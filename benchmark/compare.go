package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// savedRun is the file -out writes and -compare reads.
type savedRun struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    int                `json:"trace"`
	Result   result             `json:"result"`
	Notes    map[string]float64 `json:"notes"`
}

// quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4) (exclusive).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4 // may leave [0, 4): Python then extrapolates too
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// loadSet reads one compare argument: the result files of one commit.
func loadSet(arg string) ([]savedRun, error) {
	var paths []string
	for _, part := range strings.Split(arg, ",") {
		m, err := filepath.Glob(part)
		if err != nil {
			return nil, err
		}
		if len(m) == 0 {
			return nil, fmt.Errorf("no result files match %q", part)
		}
		paths = append(paths, m...)
	}
	var set []savedRun
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r savedRun
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		set = append(set, r)
	}
	return set, nil
}

// compare prints, for every workload and metric, the median and quartiles
// of each run set. An end-to-end metric whose median moved beyond its
// bound against the first set is flagged; one whose spread within a set
// (quartile distance over median) exceeds its bound is unresolved.
func compare(w io.Writer, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("-compare needs at least one run set")
	}
	var sets [][]savedRun
	for _, a := range args {
		s, err := loadSet(a)
		if err != nil {
			return err
		}
		sets = append(sets, s)
	}
	bounds := map[string]metricDef{}
	for _, d := range endToEnd {
		bounds[d.Name] = d
	}
	type key struct {
		workload string
		trace    int
	}
	groups := map[key]bool{}
	for _, s := range sets {
		for _, r := range s {
			groups[key{r.Workload, r.Trace}] = true
		}
	}
	var keys []key
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].trace < keys[j].trace
	})
	var buf bytes.Buffer
	for _, k := range keys {
		fmt.Fprintf(&buf, "## %s (trace %d)\n", k.workload, k.trace)
		names := map[string]bool{}
		for _, s := range sets {
			for _, r := range s {
				if r.Workload == k.workload && r.Trace == k.trace {
					for n := range r.Result.Metrics {
						names[n] = true
					}
				}
			}
		}
		for _, n := range sortedKeys(names) {
			var baseMed float64
			for si, s := range sets {
				var vals []float64
				unit := ""
				for _, r := range s {
					if r.Workload != k.workload || r.Trace != k.trace {
						continue
					}
					if m, ok := r.Result.Metrics[n]; ok {
						vals = append(vals, m.Value)
						unit = m.Unit
					}
				}
				if len(vals) == 0 {
					continue
				}
				q1, med, q3 := quartiles(vals)
				line := fmt.Sprintf("%-40s set %d n=%-2d median %-12.6g q1 %-12.6g q3 %-12.6g %s", n, si+1, len(vals), med, q1, q3, unit)
				if d, ok := bounds[n]; ok {
					if med != 0 && (q3-q1)/med > d.Bound {
						line += fmt.Sprintf("  UNRESOLVED spread %.1f%% > bound %.0f%%", 100*(q3-q1)/med, 100*d.Bound)
					}
					if si == 0 {
						baseMed = med
					} else if baseMed != 0 {
						change := (med - baseMed) / baseMed
						worse := change > d.Bound
						if d.Better == "higher" {
							worse = -change > d.Bound
						}
						switch {
						case worse:
							line += fmt.Sprintf("  WORSE %+.1f%% beyond bound %.0f%%", 100*change, 100*d.Bound)
						case change > d.Bound || -change > d.Bound:
							line += fmt.Sprintf("  BETTER %+.1f%% beyond bound %.0f%%", 100*change, 100*d.Bound)
						default:
							line += fmt.Sprintf("  within bound (%+.1f%%)", 100*change)
						}
					}
				}
				fmt.Fprintln(&buf, line)
			}
		}
		fmt.Fprintln(&buf)
	}
	_, err := w.Write(buf.Bytes())
	return err
}
