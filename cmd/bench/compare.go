package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// declared is the part of BENCHMARK.json compare needs.
type declared struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSet is one result file reduced to what compare looks at: per
// workload, the median of every end-to-end metric over the file's
// untraced runs, and the requests attempted and failed.
type runSet struct {
	medians   map[string]map[string]float64
	runs      map[string]int
	attempted map[string]int64
	failed    map[string]int64
	noisy     int
}

func loadRunSet(path string) (*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs := &runSet{
		medians: map[string]map[string]float64{}, runs: map[string]int{},
		attempted: map[string]int64{}, failed: map[string]int64{},
	}
	values := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var res result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if res.Smoke {
			return nil, fmt.Errorf("%s holds smoke runs, which measure nothing", path)
		}
		if res.Trace {
			continue
		}
		if res.Noisy {
			rs.noisy++
		}
		rs.runs[res.Workload]++
		rs.attempted[res.Workload] += res.Attempted
		rs.failed[res.Workload] += res.Failed
		if values[res.Workload] == nil {
			values[res.Workload] = map[string][]float64{}
		}
		for name, m := range res.Metrics {
			values[res.Workload][name] = append(values[res.Workload][name], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for wl, byName := range values {
		rs.medians[wl] = map[string]float64{}
		for name, vs := range byName {
			rs.medians[wl][name] = median(vs)
		}
	}
	return rs, nil
}

// compareMain implements "bench compare A B": A is the base, B the
// candidate. It returns the exit code: 0 when every end-to-end metric of
// every workload in both files is within its bound and no workload fails
// a larger share of requests, 1 on any breach, 2 when the comparison
// cannot be made.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	bounds := fs.String("bounds", "BENCHMARK.json", "the file declaring metrics and bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-bounds BENCHMARK.json] A.jsonl B.jsonl")
		return 2
	}
	var decl declared
	raw, err := os.ReadFile(*bounds)
	if err == nil {
		err = json.Unmarshal(raw, &decl)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	a, err := loadRunSet(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	b, err := loadRunSet(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	if a.noisy+b.noisy > 0 {
		fmt.Fprintf(w, "warning: %d base and %d candidate runs were marked noisy\n", a.noisy, b.noisy)
	}
	var names []string
	for wl := range a.medians {
		if _, ok := b.medians[wl]; ok {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "bench compare: the two files share no workload")
		return 2
	}
	breaches := 0
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %9s %7s\n", "workload", "metric", "base", "candidate", "cand/base", "bound")
	for _, wl := range names {
		for _, d := range decl.EndToEnd {
			va, okA := a.medians[wl][d.Name]
			vb, okB := b.medians[wl][d.Name]
			if !okA || !okB || va == 0 {
				fmt.Fprintf(w, "%-14s %-16s missing from a file\n", wl, d.Name)
				breaches++
				continue
			}
			worse := vb/va - 1
			if d.Better == "higher" {
				worse = 1 - vb/va
			}
			verdict := ""
			if worse > d.Bound {
				verdict = "  BREACH"
				breaches++
			}
			fmt.Fprintf(w, "%-14s %-16s %14.6g %14.6g %9.4f %6.0f%%%s\n", wl, d.Name, va, vb, vb/va, 100*d.Bound, verdict)
		}
		fa := float64(a.failed[wl]) / float64(max(a.attempted[wl], 1))
		fb := float64(b.failed[wl]) / float64(max(b.attempted[wl], 1))
		verdict := ""
		if fb > fa {
			verdict = "  BREACH"
			breaches++
		}
		fmt.Fprintf(w, "%-14s %-16s %8d/%-8d %8d/%-8d (runs %d, %d)%s\n", wl, "fail_share",
			a.failed[wl], a.attempted[wl], b.failed[wl], b.attempted[wl], a.runs[wl], b.runs[wl], verdict)
	}
	if breaches > 0 {
		fmt.Fprintf(w, "%d breaches\n", breaches)
		return 1
	}
	return 0
}
