package main

import (
	"strings"
	"testing"

	"pinbcast/internal/ida"
	"pinbcast/internal/transport"
)

// smokeConfig is the configuration CI's bdserved-smoke job boots.
const smokeConfig = `[station]
files = 4
slot_interval = "200us"
[listen]
ops = "127.0.0.1:9091"
[drain]
timeout = "20s"
`

// TestMaxBlockSize pins the limit to the wire format it is derived
// from: a block of maxBlockSize bytes frames, one byte more does not,
// and the rejection names the limit.
func TestMaxBlockSize(t *testing.T) {
	for _, tc := range []struct {
		size int
		ok   bool
	}{{maxBlockSize, true}, {maxBlockSize + 1, false}} {
		blocks, err := ida.DisperseFile(1, make([]byte, tc.size), 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, err = transport.AppendFrame(nil, 0, blocks[0].MarshalInto(nil))
		if (err == nil) != tc.ok {
			t.Errorf("framing a %d-byte block: err = %v, want ok=%v", tc.size, err, tc.ok)
		}
		cfg := DefaultConfig()
		cfg.BlockSize = tc.size
		if err := cfg.validate(); (err == nil) != tc.ok {
			t.Errorf("validate with block_size %d: err = %v, want ok=%v", tc.size, err, tc.ok)
		} else if err != nil && !strings.Contains(err.Error(), "1048576") {
			t.Errorf("rejection does not name the frame limit: %v", err)
		}
	}
}

// FuzzParseConfig: the loader never panics, whatever it accepts passes
// validate, and whatever it rejects says where — a line number, or the
// key whose value is out of range.
func FuzzParseConfig(f *testing.F) {
	f.Add([]byte(smokeConfig))
	f.Add([]byte("[station]\nslot_interval = \"1ms\"  # pace\n"))
	f.Add([]byte("[station]\nblock_size = 2000000\n"))
	f.Add([]byte("[station\nfiles 3\n[nope]\n = \nshard = \"a#b\" # c \" d\n"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		cfg, err := parseConfig(raw)
		if err == nil {
			if err := cfg.validate(); err != nil {
				t.Fatalf("accepted a config that fails validate: %v", err)
			}
			return
		}
		msg := err.Error()
		if !strings.HasPrefix(msg, "line ") && !strings.HasPrefix(msg, "station.") && !strings.HasPrefix(msg, "drain.") {
			t.Fatalf("rejection names neither a line nor a key: %v", err)
		}
	})
}
