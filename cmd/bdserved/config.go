package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"pinbcast/internal/transport"
)

// maxBlockSize is the largest station.block_size a subscriber can
// receive: a block travels as one frame, its 22-byte header
// (internal/ida) included, and frames past transport.MaxFramePayload
// are refused on both ends of the wire.
const maxBlockSize = transport.MaxFramePayload - 22

// Config is bdserved's runtime configuration, loaded from a
// TOML-subset file. Zero values select the documented defaults.
type Config struct {
	// [station]
	Files        int           // synthetic catalog size
	Faults       int           // designed per-retrieval fault tolerance r
	Seed         int64         // workload seed
	BlockSize    int           // bytes per catalog file block
	SlotInterval time.Duration // broadcast slot pacing
	Channels     int           // 1 = single station, >1 = cluster of K channels
	Replicas     int           // R-way replication of the hottest files (cluster)
	Shard        string        // shard policy name (cluster)

	// [listen]
	Data string // TCP fan-out address; cluster channels listen on consecutive ports (port 0 = all ephemeral)
	Ops  string // HTTP ops address (/metrics, /debug/vars, /debug/pprof, /debug/trace)

	// [drain]
	Timeout time.Duration // hard deadline for the SIGTERM data-cycle drain
}

// DefaultConfig returns the configuration bdserved runs with when a
// key (or the whole file) is absent.
func DefaultConfig() Config {
	return Config{
		Files:        8,
		Faults:       1,
		Seed:         1,
		BlockSize:    128,
		SlotInterval: 200 * time.Microsecond,
		Channels:     1,
		Replicas:     2,
		Shard:        "balanced",
		Data:         "127.0.0.1:0",
		Ops:          "127.0.0.1:0",
		Timeout:      10 * time.Second,
	}
}

// LoadConfig reads and parses the configuration file at path (see
// parseConfig for the format).
func LoadConfig(path string) (Config, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return DefaultConfig(), err
	}
	cfg, err := parseConfig(raw)
	if err != nil {
		err = fmt.Errorf("%s: %w", path, err)
	}
	return cfg, err
}

// parseConfig parses a TOML-subset configuration: `[section]` headers,
// `key = value` pairs with string ("..."), integer and duration
// ("50ms") values, `#` comments, blank lines. This covers the whole of
// bdserved's schema without pulling in a TOML dependency; unknown
// sections and keys are errors so typos fail loudly at boot rather than
// silently selecting a default. Every error names the offending line,
// or the key whose value is out of range.
func parseConfig(raw []byte) (Config, error) {
	cfg := DefaultConfig()
	section := ""
	for i, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(stripComment(line))
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "[") {
			if !strings.HasSuffix(line, "]") {
				return cfg, fmt.Errorf("line %d: malformed section header %q", i+1, line)
			}
			section = strings.TrimSpace(line[1 : len(line)-1])
			switch section {
			case "station", "listen", "drain":
			default:
				return cfg, fmt.Errorf("line %d: unknown section [%s]", i+1, section)
			}
			continue
		}
		key, value, ok := strings.Cut(line, "=")
		if !ok {
			return cfg, fmt.Errorf("line %d: expected key = value, got %q", i+1, line)
		}
		key = strings.TrimSpace(key)
		value = strings.TrimSpace(value)
		if err := cfg.set(section, key, value); err != nil {
			return cfg, fmt.Errorf("line %d: %w", i+1, err)
		}
	}
	return cfg, cfg.validate()
}

// stripComment cuts line at the first '#' outside a quoted string (the
// subset has no escapes, so quotes simply alternate).
func stripComment(line string) string {
	quoted := false
	for i := 0; i < len(line); i++ {
		switch {
		case line[i] == '"':
			quoted = !quoted
		case line[i] == '#' && !quoted:
			return line[:i]
		}
	}
	return line
}

// set applies one key = value pair to the configuration.
func (c *Config) set(section, key, value string) error {
	full := section + "." + key
	switch full {
	case "station.files":
		return intoInt(&c.Files, value)
	case "station.faults":
		return intoInt(&c.Faults, value)
	case "station.seed":
		return intoInt64(&c.Seed, value)
	case "station.block_size":
		return intoInt(&c.BlockSize, value)
	case "station.slot_interval":
		return intoDuration(&c.SlotInterval, value)
	case "station.channels":
		return intoInt(&c.Channels, value)
	case "station.replicas":
		return intoInt(&c.Replicas, value)
	case "station.shard":
		return intoString(&c.Shard, value)
	case "listen.data":
		return intoString(&c.Data, value)
	case "listen.ops":
		return intoString(&c.Ops, value)
	case "drain.timeout":
		return intoDuration(&c.Timeout, value)
	}
	return fmt.Errorf("unknown key %q", full)
}

// validate rejects out-of-range configurations at boot.
func (c *Config) validate() error {
	switch {
	case c.Files < 1:
		return fmt.Errorf("station.files %d: need at least one file", c.Files)
	case c.Faults < 0:
		return fmt.Errorf("station.faults %d: cannot be negative", c.Faults)
	case c.BlockSize < 1:
		return fmt.Errorf("station.block_size %d: need at least one byte", c.BlockSize)
	case c.BlockSize > maxBlockSize:
		return fmt.Errorf("station.block_size %d: at most %d, or the block's frame exceeds the %d-byte limit (transport.MaxFramePayload) and every subscriber is evicted",
			c.BlockSize, maxBlockSize, transport.MaxFramePayload)
	case c.SlotInterval <= 0:
		return fmt.Errorf("station.slot_interval %s: a daemon needs a positive slot pace", c.SlotInterval)
	case c.Channels < 1:
		return fmt.Errorf("station.channels %d: need at least one channel", c.Channels)
	case c.Channels > 1 && (c.Replicas < 1 || c.Replicas > c.Channels):
		return fmt.Errorf("station.replicas %d out of range [1, %d]", c.Replicas, c.Channels)
	case c.Channels > c.Files:
		return fmt.Errorf("station.channels %d exceeds station.files %d (every channel needs a file)", c.Channels, c.Files)
	case c.Timeout <= 0:
		return fmt.Errorf("drain.timeout %s: need a positive drain deadline", c.Timeout)
	}
	return nil
}

func intoString(dst *string, value string) error {
	if len(value) < 2 || value[0] != '"' || value[len(value)-1] != '"' {
		return fmt.Errorf("expected a quoted string, got %q", value)
	}
	*dst = value[1 : len(value)-1]
	return nil
}

func intoInt(dst *int, value string) error {
	v, err := strconv.Atoi(value)
	if err != nil {
		return fmt.Errorf("expected an integer, got %q", value)
	}
	*dst = v
	return nil
}

func intoInt64(dst *int64, value string) error {
	v, err := strconv.ParseInt(value, 10, 64)
	if err != nil {
		return fmt.Errorf("expected an integer, got %q", value)
	}
	*dst = v
	return nil
}

func intoDuration(dst *time.Duration, value string) error {
	var s string
	if err := intoString(&s, value); err != nil {
		return err
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("expected a duration string: %w", err)
	}
	*dst = v
	return nil
}
