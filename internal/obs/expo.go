package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"strconv"
)

// snapshot is an immutable copy of the registry's structure taken
// under the read lock; instrument values are read lock-free afterward,
// so a scrape holds the lock only for the family/series walk.
type snapshot struct {
	fams []*family
}

// snap copies the registry structure, families sorted by name and
// series sorted by label signature, for deterministic exposition.
func (r *Registry) snap() snapshot {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return snapshot{fams: fams}
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
	for _, f := range r.snap().fams {
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

// jsonSeries is one series in the JSON snapshot.
type jsonSeries struct {
	Labels map[string]string `json:"labels,omitempty"`
	Value  *int64            `json:"value,omitempty"`
	Count  *uint64           `json:"count,omitempty"`
	Sum    *uint64           `json:"sum,omitempty"`
	// Buckets maps the inclusive upper bound (decimal string) to the
	// non-cumulative count of that power-of-two bucket.
	Buckets map[string]uint64 `json:"buckets,omitempty"`
}

// jsonFamily is one metric family in the JSON snapshot.
type jsonFamily struct {
	Name   string       `json:"name"`
	Type   string       `json:"type"`
	Help   string       `json:"help"`
	Series []jsonSeries `json:"series"`
}

// WriteJSON writes the registry as a JSON array of metric families,
// deterministically ordered — the format behind the /debug/vars
// "pinbcast" expvar and bdsim -metrics-out.
func (r *Registry) WriteJSON(w io.Writer) error {
	fams := r.snap().fams
	out := make([]jsonFamily, 0, len(fams))
	for _, f := range fams {
		jf := jsonFamily{Name: f.name, Type: f.kind.String(), Help: f.help}
		for _, s := range sortedSeries(f) {
			js := jsonSeries{}
			if len(s.labels) > 0 {
				js.Labels = make(map[string]string, len(s.labels))
				for _, l := range s.labels {
					js.Labels[l.Key] = l.Value
				}
			}
			switch f.kind {
			case kindCounter:
				v := int64(s.c.Value())
				js.Value = &v
			case kindGauge:
				v := s.g.Value()
				js.Value = &v
			case kindHistogram:
				count, sum := s.h.Count(), s.h.Sum()
				js.Count, js.Sum = &count, &sum
				js.Buckets = map[string]uint64{}
				for i := 0; i < histBuckets; i++ {
					if c := s.h.Bucket(i); c != 0 {
						le := "0"
						if i > 0 && i < 64 {
							le = strconv.FormatUint(1<<uint(i)-1, 10)
						} else if i == 64 {
							le = "18446744073709551615"
						}
						js.Buckets[le] = c
					}
				}
			}
			jf.Series = append(jf.Series, js)
		}
		out = append(out, jf)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
