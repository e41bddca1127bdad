// Command wirebench is the repository's end-to-end benchmark. For one
// named workload it builds a database from a seed, serves it with an
// in-process server.Server on loopback TCP, drives it with closed-loop
// clients through the wire protocol, checks every answer against a serial
// classic reference, and prints the end-to-end metrics; with --trace 1 it
// prints per-layer metrics instead. See README.md.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash wirebench/run.sh --workload star_pop --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times a run sets the system up; setup_s is the
// median, and the last set-up is the one measured.
const setupRepeats = 5

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	repeat   int
	commit   string
}

func main() {
	var o options
	fs := flag.NewFlagSet("wirebench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: star_pop, tpch_olap or point_rw (or a defect reproduction, see README)")
	fs.Int64Var(&o.seed, "seed", 1, "seed for data and statements")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 prints per-layer metrics from a traced run instead of end-to-end metrics")
	fs.IntVar(&o.repeat, "repeat", 0, "run this many untraced times on the same seed and report each metric's spread against its bound")
	fs.StringVar(&o.commit, "commit", "unknown", "commit being measured, for the header")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	w := workloadNamed(o.workload)
	if w == nil || o.seconds <= 0 || o.trace < 0 || o.trace > 1 {
		fmt.Fprintf(os.Stderr, "wirebench: need --workload %s, --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if err := run(os.Stdout, w, o); err != nil {
		fmt.Fprintln(os.Stderr, "wirebench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range allWorkloads() {
		names = append(names, w.name)
	}
	return strings.Join(names, "|")
}

// result is the last line of the output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(out io.Writer, w *mix, o options) error {
	header := map[string]any{
		"commit": o.commit, "go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc": runtime.NumCPU(), "workload": w.name, "seed": o.seed, "scale": w.scale,
		"clients": w.clients, "seconds": o.seconds, "trace": o.trace, "repeat": o.repeat,
	}
	hb, _ := json.Marshal(header) // a map of plain values always marshals
	fmt.Fprintf(out, "# wirebench %s\n", hb)
	fmt.Fprintf(out, "# %s: %s\n", w.name, w.why)

	if o.repeat > 1 {
		return repeatRun(out, w, o)
	}
	var ms []metric
	var t tally
	var err error
	if o.trace == 1 {
		ms, err = traceRun(w, o, &t)
	} else {
		ms, err = untracedRun(out, w, o, &t)
	}
	if err != nil {
		return err
	}
	printResult(out, ms, t)
	return nil
}

// untracedRun sets up setupRepeats times, measures the last set-up for the
// run's seconds, and returns the end-to-end metrics.
func untracedRun(out io.Writer, w *mix, o options, t *tally) ([]metric, error) {
	mk, err := w.streams(o.seed)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var e *env
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		e, err = startEnv(w, o.seed, mk())
		if err != nil {
			return nil, err
		}
		if err := e.warmUp(w.warm, t); err != nil {
			e.close()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	win, err := e.measure(time.Duration(o.seconds*float64(time.Second)), t)
	if err == nil {
		err = e.finalCheck(w, t)
	}
	e.close()
	if err != nil {
		return nil, err
	}
	for _, l := range classLines(win) {
		fmt.Fprintln(out, l)
	}
	ms := latencyMetrics(w, win)
	ms = append(ms, metric{"setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", len(setups))})
	return ms, nil
}

// printResult prints one line per metric and the JSON result line.
func printResult(out io.Writer, ms []metric, t tally) {
	res := result{Correct: t.failed() == 0, Attempted: t.attempted, Failed: t.failed(), Metrics: map[string]jsonMetric{}}
	for _, m := range ms {
		fmt.Fprintf(out, "%-26s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
		res.Metrics[m.name] = jsonMetric{Value: finite(m.value), Unit: m.unit}
	}
	fmt.Fprintf(out, "%-26s %14.6g %-6s attempted=%d errors=%d admit=%d wrong=%d\n",
		"error_rate", ratio(float64(t.failed()), float64(t.attempted)), "ratio", t.attempted, t.errors, t.admit, t.wrong)
	if t.firstBad != "" {
		fmt.Fprintf(out, "# first failure: %s\n", t.firstBad)
	}
	b, _ := json.Marshal(res) // finite floats and strings always marshal
	fmt.Fprintf(out, "%s\n", b)
}

// finite maps NaN and infinities, which JSON cannot carry, to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// repeatRun measures the workload o.repeat times untraced on one seed, so
// the spread is run-to-run noise alone, and reports each end-to-end
// metric's spread, (max − min) ÷ median, beside the bound BENCHMARK.json
// gives it. The last line is the
// usual result with each metric's median.
func repeatRun(out io.Writer, w *mix, o options) error {
	bounds := readBounds("BENCHMARK.json")
	values := map[string][]float64{}
	units := map[string]string{}
	var order []string
	var total tally
	for i := 0; i < o.repeat; i++ {
		var t tally
		ms, err := untracedRun(out, w, o, &t)
		if err != nil {
			return err
		}
		total.add(t)
		for _, m := range ms {
			if _, ok := values[m.name]; !ok {
				order = append(order, m.name)
			}
			values[m.name] = append(values[m.name], m.value)
			units[m.name] = m.unit
		}
		fmt.Fprintf(out, "# repeat %d/%d seed=%d done\n", i+1, o.repeat, o.seed)
	}
	var med []metric
	for _, name := range order {
		vs := values[name]
		s := append([]float64(nil), vs...)
		sort.Float64s(s)
		m := median(s)
		spread := ratio(s[len(s)-1]-s[0], m)
		verdict := "no bound"
		if b, ok := bounds[name]; ok {
			verdict = fmt.Sprintf("bound %.3g: ok", b)
			if spread > b {
				verdict = fmt.Sprintf("bound %.3g: EXCEEDED", b)
			}
		}
		fmt.Fprintf(out, "# spread %-20s %8.4f  %s  values %v\n", name, spread, verdict, vs)
		med = append(med, metric{name, m, units[name], fmt.Sprintf("median of %d runs", len(vs))})
	}
	printResult(out, med, total)
	return nil
}

// readBounds returns the end-to-end bounds of a BENCHMARK.json, or none if
// the file is missing or malformed.
func readBounds(path string) map[string]float64 {
	out := map[string]float64{}
	b, err := os.ReadFile(path)
	if err != nil {
		return out
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(b, &spec) != nil {
		return out
	}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

// oneLine collapses a statement's whitespace for messages.
func oneLine(s string) string { return strings.Join(strings.Fields(s), " ") }
