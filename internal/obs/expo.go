package obs

import (
	"bufio"
	"io"
	"sort"
	"strconv"
)

// snap copies the registry's families under the read lock, sorted by
// name for deterministic exposition; instrument values are read
// lock-free afterward, so a scrape holds the lock only for the walk.
func (r *Registry) snap() []*family {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedSeries returns a family's series ordered by label signature.
func sortedSeries(f *family) []*series {
	out := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].sig < out[j].sig })
	return out
}

// WriteTo writes the registry in Prometheus text exposition format
// 0.0.4: a # HELP and # TYPE line per family, one sample line per
// series, and for histograms the cumulative `_bucket{le=...}` series
// over the power-of-two boundaries plus `_sum` and `_count`. Families
// are emitted in name order and series in label order, so the output
// is deterministic for golden tests. Values may advance mid-scrape;
// each sample is an atomic load, and histogram buckets are read before
// their count so the cumulative +Inf bucket never understates.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: bufio.NewWriter(w)}
	for _, f := range r.snap() {
		cw.str("# HELP ")
		cw.str(f.name)
		cw.str(" ")
		cw.str(helpEscaper.Replace(f.help))
		cw.str("\n# TYPE ")
		cw.str(f.name)
		cw.str(" ")
		cw.str(f.kind.String())
		cw.str("\n")
		for _, s := range sortedSeries(f) {
			switch f.kind {
			case kindCounter:
				cw.sample(f.name, "", s.sig, "", s.c.Value())
			case kindGauge:
				cw.gaugeSample(f.name, s.sig, s.g.Value())
			case kindHistogram:
				writeHistogram(cw, f.name, s)
			}
		}
	}
	err := cw.w.(*bufio.Writer).Flush()
	if cw.err == nil {
		cw.err = err
	}
	return cw.n, cw.err
}

// writeHistogram emits one histogram series: cumulative buckets at the
// power-of-two upper bounds (le="0" for the zero bucket, then
// le="2^i−1"), trimmed after the highest non-empty bucket, then +Inf,
// _sum and _count.
func writeHistogram(cw *countingWriter, name string, s *series) {
	// Load all buckets once; the count is derived from the loaded
	// buckets so cumulative +Inf equals the emitted _count even while
	// writers race the scrape.
	var b [histBuckets]uint64
	top := -1
	for i := range b {
		b[i] = s.h.Bucket(i)
		if b[i] != 0 {
			top = i
		}
	}
	var cum uint64
	for i := 0; i <= top; i++ {
		cum += b[i]
		le := "0"
		if i > 0 {
			le = strconv.FormatUint(1<<uint(i)-1, 10)
		}
		if i == 64 {
			le = "18446744073709551615"
		}
		cw.sample(name, "_bucket", s.sig, le, cum)
	}
	cw.sample(name, "_bucket", s.sig, "+Inf", cum)
	cw.sample(name, "_sum", s.sig, "", s.h.Sum())
	cw.sample(name, "_count", s.sig, "", cum)
}

// countingWriter accumulates bytes written and the first error.
type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (cw *countingWriter) str(s string) {
	if cw.err != nil {
		return
	}
	n, err := io.WriteString(cw.w, s)
	cw.n += int64(n)
	cw.err = err
}

// sample writes one `name[suffix][{labels,le}] value` line. A non-empty
// le is merged into the label set (histogram bucket lines).
func (cw *countingWriter) sample(name, suffix, sig, le string, v uint64) {
	cw.str(name)
	cw.str(suffix)
	switch {
	case le == "":
		cw.str(sig)
	case sig == "":
		cw.str(`{le="` + le + `"}`)
	default:
		// Insert le after the existing labels: {a="b"} → {a="b",le="x"}.
		cw.str(sig[:len(sig)-1])
		cw.str(`,le="` + le + `"}`)
	}
	cw.str(" ")
	cw.str(strconv.FormatUint(v, 10))
	cw.str("\n")
}

// gaugeSample writes one signed sample line.
func (cw *countingWriter) gaugeSample(name, sig string, v int64) {
	cw.str(name)
	cw.str(sig)
	cw.str(" ")
	cw.str(strconv.FormatInt(v, 10))
	cw.str("\n")
}
