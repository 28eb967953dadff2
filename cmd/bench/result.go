package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// host records where the numbers came from. Every run of this benchmark
// is one process talking to itself over loopback; the numbers say what
// the code costs on this box, never how it scales.
type host struct {
	NProc         int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	GoVersion     string `json:"go_version"`
	CPUModel      string `json:"cpu_model"`
	Commit        string `json:"commit"`
	Transport     string `json:"transport"`
	SingleProcess bool   `json:"single_process"`
	Clients       int    `json:"clients"`
}

// result is one run's line in the result file.
type result struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Smoke    bool    `json:"smoke"`
	// Noisy is set when the box was busy with something else (1-minute
	// load average above nproc/2 at either end of the run) or could not
	// run the two clients in parallel (GOMAXPROCS < 2).
	Noisy     bool       `json:"noisy"`
	LoadAvg   [2]float64 `json:"load_avg"`
	Host      host       `json:"host"`
	Rig       rigSpec    `json:"rig"`
	OpDigest  string     `json:"op_digest"`
	WallS     float64    `json:"wall_s"`
	Correct   bool       `json:"correct"`
	Attempted int64      `json:"attempted"`
	Failed    int64      `json:"failed"`
	// CheckFailures lists every correctness check that tripped.
	CheckFailures []string `json:"check_failures,omitempty"`
	// Metrics are the ones BENCHMARK.json declares for this trace mode;
	// Extra are measured on this workload only and so belong to no
	// declared list. Samples gives the sample count behind a number.
	Metrics map[string]metric `json:"metrics"`
	Extra   map[string]metric `json:"extra"`
	Samples map[string]int    `json:"samples"`
}

func newResult(wl string, seed uint64, seconds float64, trace, smoke bool) *result {
	return &result{
		Workload: wl, Seed: seed, Seconds: seconds, Trace: trace, Smoke: smoke,
		Host: host{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), CPUModel: cpuModel(),
			Commit:    cmp.Or(os.Getenv("BENCH_COMMIT"), "unknown"),
			Transport: "loopback", SingleProcess: true, Clients: numClients,
		},
		Metrics: map[string]metric{}, Extra: map[string]metric{}, Samples: map[string]int{},
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// loadAvg is the 1-minute load average, or -1 where /proc has none.
func loadAvg() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	fields := strings.Fields(string(b))
	if len(fields) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// noise applies the noise guard. The run's own two busy clients push the
// load average towards 2 by the end, so the end reading is compared
// after taking that contribution off.
func (res *result) noise(before, after float64) {
	res.LoadAvg = [2]float64{before, after}
	limit := float64(res.Host.NProc) / 2
	res.Noisy = before > limit || after-numClients > limit || res.Host.GOMAXPROCS < 2
}

// print writes every metric as "workload metric value unit", then the
// driver's one-line JSON summary.
func (res *result) print(w io.Writer) {
	for _, set := range []map[string]metric{res.Metrics, res.Extra} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			line := fmt.Sprintf("%s %s %s %s", res.Workload, n, formatValue(set[n].Value), set[n].Unit)
			if c, ok := res.Samples[n]; ok {
				line += fmt.Sprintf(" (n=%d)", c)
			}
			fmt.Fprintln(w, line)
		}
	}
	fmt.Fprintf(w, "%s wall_s %s s\n", res.Workload, formatValue(res.WallS))
	fmt.Fprintf(w, "%s fail_share %s share (attempted=%d failed=%d)\n", res.Workload,
		formatValue(float64(res.Failed)/float64(max(res.Attempted, 1))), res.Attempted, res.Failed)
	for _, f := range res.CheckFailures {
		fmt.Fprintf(w, "%s CHECK FAILED: %s\n", res.Workload, f)
	}
	if res.Noisy {
		fmt.Fprintf(w, "%s NOISY: load average %.2f -> %.2f on %d cpus\n", res.Workload, res.LoadAvg[0], res.LoadAvg[1], res.Host.NProc)
	}
	summary := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, res.Metrics}
	b, _ := json.Marshal(summary) //nolint:errcheck // plain maps and numbers
	fmt.Fprintln(w, string(b))
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// appendTo adds the result as one line of the JSONL result file.
func (res *result) appendTo(path string) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
