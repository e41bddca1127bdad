package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"sort"
	"testing"
	"time"

	"rqp/internal/server"
	"rqp/internal/types"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct{ n, want int }{
		{1000, 99}, {999, 98}, {100, 90}, {20, 50}, {19, 50}, {1, 50}, {5000, 99}, {300, 96},
	}
	for _, c := range cases {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
		if c.n >= 20 {
			if beyond := c.n - rankOf(got, c.n); beyond < 10 {
				t.Errorf("n=%d: p%d leaves %d samples beyond, want >= 10", c.n, got, beyond)
			}
			if got < 99 {
				if beyond := c.n - rankOf(got+1, c.n); beyond >= 10 {
					t.Errorf("n=%d: p%d is not the highest percentile with 10 beyond", c.n, got)
				}
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		q    int
		want float64
	}{{50, 50}, {90, 90}, {99, 99}, {1, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %d) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestCanonRowsMatchesHarnessRule(t *testing.T) {
	// The experiment harness renders floats with %.6g and every other value
	// by String, then sorts.
	vals := []types.Value{types.Int(-42), types.Float(0.1 + 0.2), types.Float(1e21), types.Float(123456.789),
		types.Str("a|b"), types.Date(9000), types.Null(), types.Bool(true)}
	for _, v := range vals {
		want := v.String()
		if v.K == types.KindFloat {
			want = fmt.Sprintf("%.6g", v.F)
		}
		if got := string(appendCanonValue(nil, v)); got != want {
			t.Errorf("canon(%v) = %q, want %q", v, got, want)
		}
	}

	a := []types.Row{{types.Int(2), types.Float(0.30000000000000004)}, {types.Int(1), types.Str("x")}}
	b := []types.Row{{types.Int(1), types.Str("x")}, {types.Int(2), types.Float(0.3)}}
	ca, cb := canonRows(a), canonRows(b)
	if fmt.Sprint(ca) != fmt.Sprint(cb) {
		t.Fatalf("canonRows differ for equal results: %v vs %v", ca, cb)
	}
	if !sort.StringsAreSorted(ca) {
		t.Errorf("canonRows not sorted: %v", ca)
	}
	if digestRows(a) != digestRows(b) {
		t.Errorf("digests differ for equal results")
	}
	c := []types.Row{{types.Int(1), types.Str("x")}, {types.Int(2), types.Float(0.31)}}
	if digestRows(a) == digestRows(c) {
		t.Errorf("digests equal for different results")
	}
	d := append([]types.Row{}, b...)
	d = append(d, b[0])
	if digestRows(b) == digestRows(d) {
		t.Errorf("digest ignores a duplicated row")
	}
}

// canonRows is the experiment harness's rule in full: the sorted canonical
// strings of a result. digest must agree with it.
func canonRows(rows []types.Row) []string {
	out := make([]string, len(rows))
	var buf []byte
	for i, r := range rows {
		buf = appendCanonRow(buf[:0], r)
		out[i] = string(buf)
	}
	sort.Strings(out)
	return out
}

// fakeClock returns t0, t0+1ms, t0+2ms, … on successive calls.
func fakeClock() (func() time.Time, time.Time) {
	t0 := time.Unix(1000, 0)
	n := 0
	return func() time.Time {
		t := t0.Add(time.Duration(n) * time.Millisecond)
		n++
		return t
	}, t0
}

// serveOnce reads one command frame and writes the given frames back.
func serveOnce(t *testing.T, c net.Conn, frames []func(net.Conn) error) {
	t.Helper()
	go func() {
		if _, err := server.ReadFrame(c, server.MaxFrame); err != nil {
			t.Error(err)
			return
		}
		for _, f := range frames {
			if err := f(c); err != nil {
				t.Error(err)
				return
			}
		}
	}()
}

func frame(typ byte, m server.Encoder) func(net.Conn) error {
	return func(c net.Conn) error { return server.WriteMsg(c, typ, m) }
}

func TestReplyTimestampsFirstRowAndNotices(t *testing.T) {
	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()
	rows := []types.Row{{types.Int(1), types.Float(2.5)}, {types.Int(2), types.Str("z")}}
	serveOnce(t, srv, []func(net.Conn) error{
		frame(server.MsgNotice, server.NoticeMsg{Code: server.NoticeQueued}),   // stamp 1
		frame(server.MsgNotice, server.NoticeMsg{Code: server.NoticeAdmitted}), // stamp 2
		frame(server.MsgRowDesc, server.RowDescMsg{Columns: []string{"a", "b"}}),
		frame(server.MsgRow, server.RowMsg{Values: rows[0]}), // stamp 4
		frame(server.MsgRow, server.RowMsg{Values: rows[1]}),
		frame(server.MsgComplete, server.CompleteMsg{Tag: "SELECT", Rows: 2, CostUnits: 7.25}), // stamp 6
		frame(server.MsgReady, server.ReadyMsg{SessionID: 1, Status: 'I'}),
	})
	w := newWireConn(cli)
	now, t0 := fakeClock()
	w.now = now
	r, sent, err := w.run(&stmt{sql: "SELECT 1"})
	if err != nil {
		t.Fatal(err)
	}
	at := func(i int) time.Time { return t0.Add(time.Duration(i) * time.Millisecond) }
	if !sent.Equal(at(0)) || !r.queuedAt.Equal(at(1)) || !r.admittedAt.Equal(at(2)) ||
		!r.firstRow.Equal(at(4)) || !r.complete.Equal(at(6)) {
		t.Errorf("stamps sent=%v queued=%v admitted=%v first=%v complete=%v", sent, r.queuedAt, r.admittedAt, r.firstRow, r.complete)
	}
	if r.admitWait() != time.Millisecond {
		t.Errorf("admitWait = %v, want 1ms", r.admitWait())
	}
	if r.digest != digestRows(rows) || r.rows != 2 || r.cost != 7.25 || r.tag != "SELECT" {
		t.Errorf("reply %+v does not carry the result", r)
	}
}

func TestReplyWithoutRowsStampsFirstRowAtComplete(t *testing.T) {
	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()
	serveOnce(t, srv, []func(net.Conn) error{
		frame(server.MsgComplete, server.CompleteMsg{Tag: "OK", Rows: 1}), // stamp 1
		frame(server.MsgReady, server.ReadyMsg{SessionID: 1, Status: 'I'}),
	})
	w := newWireConn(cli)
	now, t0 := fakeClock()
	w.now = now
	r, _, err := w.run(&stmt{sql: "INSERT INTO t VALUES (1)", write: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := t0.Add(time.Millisecond); !r.firstRow.Equal(want) || !r.complete.Equal(want) {
		t.Errorf("first=%v complete=%v, want both %v", r.firstRow, r.complete, want)
	}
	if r.admitWait() != 0 {
		t.Errorf("admitWait = %v without notices", r.admitWait())
	}
}

// benchmarkSpec is the metric list of the repository's BENCHMARK.json.
func benchmarkSpec(t *testing.T) (e2e, layers []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
	}
	return e2e, layers
}

// TestBenchmarkListsExactlyTheWorkloads keeps BENCHMARK.json's workloads
// and the program's in step, and the defect reproductions out of the
// benchmark.
func TestBenchmarkListsExactlyTheWorkloads(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var listed, ours []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !sameSet(listed, ours) {
		t.Errorf("BENCHMARK.json lists %v, the program's workloads are %v", listed, ours)
	}
	for _, w := range defectWorkloads {
		if workloadNamed(w.name) != w {
			t.Errorf("defect reproduction %s is not reachable by name", w.name)
		}
	}
}

func metricNames(ms []metric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.name)
	}
	return out
}

func sameSet(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	return fmt.Sprint(a) == fmt.Sprint(b)
}

// TestSmokeEveryWorkload runs each workload briefly, untraced and traced,
// and checks every answer was right and every metric of BENCHMARK.json is
// printed.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every workload's database")
	}
	e2e, layers := benchmarkSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var tl tally
			o := options{workload: w.name, seed: 3, seconds: 4}
			ms, err := untracedRun(io.Discard, w, o, &tl)
			if err != nil {
				t.Fatal(err)
			}
			if tl.failed() != 0 || tl.attempted == 0 {
				t.Fatalf("untraced: attempted %d, failed %d: %s", tl.attempted, tl.failed(), tl.firstBad)
			}
			if !sameSet(metricNames(ms), e2e) {
				t.Errorf("end-to-end metrics %v, BENCHMARK.json lists %v", metricNames(ms), e2e)
			}
			for _, m := range ms {
				if m.value <= 0 || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
					t.Errorf("%s = %v, want a positive finite value", m.name, m.value)
				}
			}

			var tt tally
			lm, err := traceRun(w, o, &tt)
			if err != nil {
				t.Fatal(err)
			}
			if tt.failed() != 0 || tt.attempted == 0 {
				t.Fatalf("traced: attempted %d, failed %d: %s", tt.attempted, tt.failed(), tt.firstBad)
			}
			if !sameSet(metricNames(lm), layers) {
				t.Errorf("per-layer metrics %v, BENCHMARK.json lists %v", metricNames(lm), layers)
			}
		})
	}
}
