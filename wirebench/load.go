package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"rqp/internal/core"
	"rqp/internal/server"
)

// env is one running system under test: an engine over a freshly built
// database, a server on a loopback port, and one connection per client.
type env struct {
	eng   *core.Engine
	srv   *server.Server
	serve chan error
	conns []*wireConn
	srcs  []source
}

// startEnv builds the database, starts the server and connects the
// clients. It does not warm up.
func startEnv(w *mix, seed int64, srcs []source) (*env, error) {
	cat, err := w.build(seed)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", w.name, err)
	}
	eng := core.Attach(cat, w.config())
	if w.planCache {
		eng.Cache = core.NewPlanCache(0)
	}
	e := &env{eng: eng, srcs: srcs, serve: make(chan error, 1)}
	e.srv = server.New(server.Config{Engine: eng})
	if err := e.srv.Listen("127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	go func() { e.serve <- e.srv.Serve() }()
	addr := e.srv.Addr().String()
	for i := range srcs {
		c, err := dialWire(addr)
		if err != nil {
			e.close()
			return nil, err
		}
		e.conns = append(e.conns, c)
		if w.prepared == nil {
			continue
		}
		for name, q := range w.prepared(i) {
			if err := c.prepare(name, q); err != nil {
				e.close()
				return nil, err
			}
		}
	}
	return e, nil
}

// close disconnects the clients, stops the server and waits for it.
func (e *env) close() {
	for _, c := range e.conns {
		c.close()
	}
	e.srv.Close()
	<-e.serve
}

// tally counts statement outcomes.
type tally struct {
	attempted int
	errors    int // Error frames other than ERR_ADMIT, and broken connections
	admit     int // ERR_ADMIT
	wrong     int // completed with rows or counts other than the reference's
	firstBad  string
}

func (t *tally) failed() int { return t.errors + t.admit + t.wrong }

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.errors += o.errors
	t.admit += o.admit
	t.wrong += o.wrong
	if t.firstBad == "" {
		t.firstBad = o.firstBad
	}
}

// sample is one successful statement as measured at the client.
type sample struct {
	latMS, ttfrMS, waitMS float64
	cost                  float64
	focus, write, queued  bool
	class                 string
}

// check classifies one reply against the statement's expected answer and
// returns whether it succeeded.
func check(s *stmt, r *reply, t *tally) bool {
	t.attempted++
	bad := ""
	switch {
	case r.errCode == server.CodeAdmit:
		t.admit++
		bad = r.errCode + ": " + r.errMsg
	case r.errCode != "":
		t.errors++
		bad = r.errCode + ": " + r.errMsg
	case s.write && r.rows != s.wantN:
		t.wrong++
		bad = fmt.Sprintf("affected %d rows, want %d", r.rows, s.wantN)
	case !s.write && r.digest != s.want:
		t.wrong++
		bad = fmt.Sprintf("rows %+v, want %+v", r.digest, s.want)
	}
	if bad != "" && t.firstBad == "" {
		t.firstBad = fmt.Sprintf("%s [%s]", bad, oneLine(s.sql))
	}
	return bad == ""
}

// runOne sends one statement on c and checks it; ok is false for a failed
// or wrong statement, err is set only when the connection broke.
func runOne(c *wireConn, s *stmt, t *tally) (sample, bool, error) {
	r, t0, err := c.run(s)
	if err != nil {
		t.attempted++
		t.errors++
		if t.firstBad == "" {
			t.firstBad = fmt.Sprintf("connection: %v [%s]", err, oneLine(s.sql))
		}
		return sample{}, false, err
	}
	if !check(s, &r, t) {
		return sample{}, false, nil
	}
	wait := r.admitWait()
	return sample{
		latMS:  ms(r.complete.Sub(t0)),
		ttfrMS: ms(r.firstRow.Sub(t0)),
		waitMS: ms(wait),
		cost:   r.cost,
		focus:  s.focus,
		write:  s.write,
		queued: !r.queuedAt.IsZero(),
		class:  s.class,
	}, true, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// warmUp runs n statements per client, serially per client and all clients
// at once, checking every answer.
func (e *env) warmUp(n int, t *tally) error {
	_, err := e.closedLoop(time.Time{}, n, t)
	return err
}

// closedLoop runs every client until the deadline (or, with a zero
// deadline, for n statements each). A client sends its next statement only
// after the previous one completes.
func (e *env) closedLoop(deadline time.Time, n int, t *tally) ([]sample, error) {
	var (
		mu      sync.Mutex
		samples []sample
		errs    []error
		wg      sync.WaitGroup
	)
	for i := range e.conns {
		wg.Add(1)
		go func(c *wireConn, src source) {
			defer wg.Done()
			var local []sample
			var lt tally
			for k := 0; ; k++ {
				if deadline.IsZero() && k >= n || !deadline.IsZero() && !time.Now().Before(deadline) {
					break
				}
				smp, ok, err := runOne(c, src.next(), &lt)
				if err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
					break
				}
				if ok {
					local = append(local, smp)
				}
			}
			mu.Lock()
			samples = append(samples, local...)
			t.add(lt)
			mu.Unlock()
		}(e.conns[i], e.srcs[i])
	}
	wg.Wait()
	return samples, errors.Join(errs...)
}

// finalCheck runs the workload's end-of-run queries on the first connection.
func (e *env) finalCheck(w *mix, t *tally) error {
	if w.final == nil {
		return nil
	}
	for _, s := range w.final(e.srcs) {
		if _, _, err := runOne(e.conns[0], s, t); err != nil {
			return err
		}
	}
	return nil
}

// runtimeSampler records the highest live heap seen while it runs.
type runtimeSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startSampler(every time.Duration) *runtimeSampler {
	s := &runtimeSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		sm := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		for {
			metrics.Read(sm)
			if v := sm[0].Value.Uint64(); v > s.peak {
				s.peak = v
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the peak live heap in bytes.
func (s *runtimeSampler) finish() uint64 {
	close(s.stop)
	<-s.done
	return s.peak
}

// gcStats is a reading of the runtime's GC counters.
type gcStats struct {
	gcCPU, totalCPU float64
	cycles          uint64
}

func readGC() gcStats {
	sm := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(sm)
	return gcStats{gcCPU: sm[0].Value.Float64(), totalCPU: sm[1].Value.Float64(), cycles: sm[2].Value.Uint64()}
}

// window is one measured closed-loop window and what the process did in it.
type window struct {
	samples    []sample
	wall       float64 // seconds
	allocBytes uint64
	peakHeap   uint64
	gc0, gc1   gcStats
}

// measure runs the closed loop for d with the runtime counters read around
// it.
func (e *env) measure(d time.Duration, t *tally) (window, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w := window{gc0: readGC()}
	smp := startSampler(20 * time.Millisecond)
	start := time.Now()
	samples, err := e.closedLoop(start.Add(d), 0, t)
	w.wall = time.Since(start).Seconds()
	w.peakHeap = smp.finish()
	w.gc1 = readGC()
	runtime.ReadMemStats(&m1)
	w.samples = samples
	w.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	return w, err
}

// metric is one named figure of the output.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // printed beside the value, never in the JSON
}

// latencyMetrics summarizes a window into the end-to-end metrics (all but
// setup_s).
func latencyMetrics(w *mix, win window) []metric {
	var lat, ttfr, focusLat, focusSvc, restSvc, cost []float64
	for _, s := range win.samples {
		lat = append(lat, s.latMS)
		ttfr = append(ttfr, s.ttfrMS)
		if svc := s.latMS - s.waitMS; s.focus {
			focusLat = append(focusLat, s.latMS)
			focusSvc = append(focusSvc, svc)
		} else {
			restSvc = append(restSvc, svc)
		}
		if !s.write {
			cost = append(cost, s.cost)
		}
	}
	for _, xs := range [][]float64{lat, ttfr, focusLat} {
		sort.Float64s(xs)
	}
	n, nf := len(lat), len(focusLat)
	q, qf := tailPercentile(n), tailPercentile(nf)
	return []metric{
		{"p50_ms", percentile(lat, 50), "ms", fmt.Sprintf("n=%d", n)},
		{"tail_ms", percentile(lat, q), "ms", fmt.Sprintf("p%d of n=%d", q, n)},
		{"qps", ratio(float64(n), win.wall), "1/s", fmt.Sprintf("%.1f s window", win.wall)},
		{"ttfr_p50_ms", percentile(ttfr, 50), "ms", fmt.Sprintf("n=%d", n)},
		{"alloc_kb_per_q", ratio(float64(win.allocBytes)/1024, float64(n)), "KiB", "client+server"},
		{"peak_heap_mb", float64(win.peakHeap) / (1 << 20), "MiB", "/gc/heap/live:bytes"},
		{"cost_units_per_q", mean(cost), "units", fmt.Sprintf("mean of n=%d SELECTs", len(cost))},
		{"focus_p50_ms", percentile(focusLat, 50), "ms", fmt.Sprintf("%s, n=%d", w.focus, nf)},
		{"focus_tail_ms", percentile(focusLat, qf), "ms", fmt.Sprintf("%s, p%d of n=%d", w.focus, qf, nf)},
		{"focus_ratio", ratio(median(focusSvc), median(restSvc)), "ratio", fmt.Sprintf("%s vs rest, median service time", w.focus)},
	}
}

// classLines breaks latency down by statement class, for reading a run.
func classLines(win window) []string {
	by := map[string][]float64{}
	for _, s := range win.samples {
		by[s.class] = append(by[s.class], s.latMS)
	}
	var names []string
	for c := range by {
		names = append(names, c)
	}
	sort.Strings(names)
	var out []string
	for _, c := range names {
		xs := by[c]
		sort.Float64s(xs)
		out = append(out, fmt.Sprintf("# class %-10s n=%-6d p50=%.4f ms p%d=%.4f ms", c, len(xs),
			percentile(xs, 50), tailPercentile(len(xs)), percentile(xs, tailPercentile(len(xs)))))
	}
	return out
}
