package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"rqp/internal/adaptive"
	"rqp/internal/core"
	"rqp/internal/exec"
	"rqp/internal/plan"
	"rqp/internal/server"
	"rqp/internal/sql"
	"rqp/internal/types"
)

// The traced run gives per-layer numbers in three phases, each on a freshly
// built database:
//
//  1. load: the workload's closed loop for half the run, untraced, for the
//     figures only concurrency shows (admission waits, GC share) and the
//     engine's own counters (plan cache, runtime filters, columnar skips,
//     spills);
//  2. wire: a serial sequence of the clients' statements over the wire,
//     untraced, for a quarter of the run, recording every answer and cost;
//  3. replay: the same sequence in process, calling each layer's public
//     functions in the order core.Engine does and timing each call:
//     sql.Parse, plan.Bind, (*opt.Optimizer).Optimize (through the plan
//     cache where the engine has one) or adaptive.Progressive.Execute
//     under POP, exec.Run, then server.WriteMsg and server.DecodeRow for
//     the result frames. Writes go through core.Engine.Exec.
//
// The replay must reproduce phase 2's rows and cost units exactly, or the
// run is not correct: the replayed pipeline must not drift from core's.

// wireEntry is one statement of the serial wire phase.
type wireEntry struct {
	sql    string
	digest digest
	rows   uint64
	cost   float64
	latMS  float64
}

// layerRec is one replayed statement's per-layer figures. Times are in
// microseconds, allocation counts are heap objects.
type layerRec struct {
	write                              bool
	pop                                bool
	parseUS, bindUS, optUS, execUS     float64
	parseAllocs, bindAllocs, optAllocs float64
	execAllocs                         float64
	encUS, decUS                       float64
	writeUS                            float64
	reopts, rowsOut, bytes, frames     int
	digest                             digest
	affected                           uint64
	cost                               float64
	attributedMS                       float64
}

// mallocs reads the process's cumulative heap allocation count. It stops
// the world, so callers read it outside timed regions.
func mallocs() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Mallocs)
}

// replayer drives one engine layer by layer.
type replayer struct {
	eng *core.Engine
	buf bytes.Buffer
	out []types.Row
}

func usSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e3 }

func (rp *replayer) run(s *stmt) (layerRec, error) {
	if s.write {
		t0 := time.Now()
		res, err := rp.eng.Exec(s.sql, s.params...)
		rec := layerRec{write: true, writeUS: usSince(t0)}
		if err != nil {
			return rec, err
		}
		rec.affected, rec.cost = uint64(res.Affected), res.Cost
		rec.attributedMS = rec.writeUS / 1e3
		return rec, nil
	}
	var rec layerRec
	cfg := rp.eng.Cfg

	a0 := mallocs()
	t0 := time.Now()
	st, err := sql.Parse(s.sql)
	rec.parseUS = usSince(t0)
	a1 := mallocs()
	if err != nil {
		return rec, err
	}
	sel, ok := st.(*sql.SelectStmt)
	if !ok {
		return rec, fmt.Errorf("replay: %T is not a SELECT", st)
	}
	t0 = time.Now()
	bq, err := plan.Bind(sel, rp.eng.Cat)
	rec.bindUS = usSince(t0)
	a2 := mallocs()
	if err != nil {
		return rec, err
	}
	rec.parseAllocs, rec.bindAllocs = a1-a0, a2-a1

	ctx := exec.NewContext()
	ctx.Params = s.params
	if cfg.MemBudgetRows > 0 {
		ctx.Mem = exec.NewMemBroker(cfg.MemBudgetRows)
	}
	if dop := exec.ResolveDOP(cfg.DOP); dop > 1 {
		ctx.DOP = dop
	}
	ctx.Vec = cfg.Vec

	var rows []types.Row
	if cfg.Policy == core.PolicyPOP {
		rec.pop = true
		prog := &adaptive.Progressive{Opt: rp.eng.Opt, Policy: adaptive.Checked, ReoptCharge: 2}
		a3 := mallocs()
		t0 = time.Now()
		pres, err := prog.Execute(bq, ctx)
		rec.execUS = usSince(t0)
		rec.execAllocs = mallocs() - a3
		if err != nil {
			return rec, err
		}
		rows, rec.reopts = pres.Rows, pres.Reopts
	} else {
		var root plan.Node
		a3 := mallocs()
		t0 = time.Now()
		if rp.eng.Cache != nil {
			root, _, _, err = rp.eng.Cache.Plan(rp.eng, s.sql, s.params)
		} else {
			root, err = rp.eng.Opt.Optimize(bq, s.params)
		}
		rec.optUS = usSince(t0)
		rec.optAllocs = mallocs() - a3
		if err != nil {
			return rec, err
		}
		// The plan marks core applies between optimizing and running.
		if ctx.DOP > 1 {
			plan.MarkParallel(root, exec.ParallelMinRows)
		}
		if ctx.Vec {
			plan.MarkVectorized(root)
		}
		if cfg.Columnar {
			plan.MarkColumnRefs(root)
		}
		if cfg.RuntimeFilters {
			if sites, _ := rp.eng.Opt.CreditRuntimeFilters(root); sites > 0 {
				ctx.RF = exec.NewRuntimeFilterSet(nil)
			}
		}
		a4 := mallocs()
		t0 = time.Now()
		rows, err = exec.Run(root, ctx)
		rec.execUS = usSince(t0)
		rec.execAllocs = mallocs() - a4
		if err != nil {
			return rec, err
		}
	}
	rec.rowsOut = len(rows)
	rec.cost = ctx.Clock.Units()

	// The result as the session frames it: RowDesc, Row*, Complete.
	rp.buf.Reset()
	t0 = time.Now()
	err = server.WriteMsg(&rp.buf, server.MsgRowDesc, server.RowDescMsg{Columns: bq.ProjNames})
	for _, r := range rows {
		if err == nil {
			err = server.WriteMsg(&rp.buf, server.MsgRow, server.RowMsg{Values: r})
		}
	}
	if err == nil {
		err = server.WriteMsg(&rp.buf, server.MsgComplete, server.CompleteMsg{Tag: "SELECT", Rows: uint64(len(rows)), CostUnits: rec.cost})
	}
	rec.encUS = usSince(t0)
	if err != nil {
		return rec, err
	}
	rec.bytes = rp.buf.Len()

	rp.out = rp.out[:0]
	rd := bytes.NewReader(rp.buf.Bytes())
	t0 = time.Now()
	for {
		f, err := server.ReadFrame(rd, server.MaxFrame)
		if err == io.EOF {
			break
		}
		if err != nil {
			return rec, err
		}
		rec.frames++
		switch f.Type {
		case server.MsgRowDesc:
			_, err = server.DecodeRowDesc(f.Payload)
		case server.MsgRow:
			var m server.RowMsg
			m, err = server.DecodeRow(f.Payload)
			rp.out = append(rp.out, m.Values)
		case server.MsgComplete:
			_, err = server.DecodeComplete(f.Payload)
		}
		if err != nil {
			return rec, err
		}
	}
	rec.decUS = usSince(t0)
	rec.digest = digestRows(rp.out)
	rec.attributedMS = (rec.parseUS + rec.bindUS + rec.optUS + rec.execUS + rec.encUS + rec.decUS) / 1e3
	return rec, nil
}

// traceMaxStatements caps the serial wire phase so the replay stays short.
const traceMaxStatements = 4000

// traceRun performs the three phases and returns the per-layer metrics.
func traceRun(w *mix, o options, t *tally) ([]metric, error) {
	mk, err := w.streams(o.seed)
	if err != nil {
		return nil, err
	}
	seed, seconds := o.seed, o.seconds
	load, err := loadPhase(w, mk(), seed, seconds/2, t)
	if err != nil {
		return nil, err
	}
	log, err := wirePhase(w, mk(), seed, seconds/4, t)
	if err != nil {
		return nil, err
	}
	recs, err := replayPhase(w, mk(), seed, log, t)
	if err != nil {
		return nil, err
	}
	return layerMetrics(load, log, recs), nil
}

// loadFigures is what the load phase measured.
type loadFigures struct {
	win   window
	delta map[string]float64 // engine counter increments over the window
	cache core.PlanCacheStats
}

// loadCounters are the engine counters the load phase reads.
var loadCounters = []string{"rqp_filter_tested_total", "rqp_filter_dropped_total",
	"rqp_columnar_blocks_skipped", "rqp_columnar_blocks_scanned", "rqp_spill_rows_total"}

func loadPhase(w *mix, srcs []source, seed int64, seconds float64, t *tally) (loadFigures, error) {
	var lf loadFigures
	e, err := startEnv(w, seed, srcs)
	if err != nil {
		return lf, err
	}
	defer e.close()
	if err := e.warmUp(w.warm, t); err != nil {
		return lf, err
	}
	counters := func() map[string]float64 {
		m := map[string]float64{}
		for _, n := range loadCounters {
			m[n] = float64(e.eng.Metrics.Counter(n).Value())
		}
		return m
	}
	cache := func() core.PlanCacheStats {
		if e.eng.Cache == nil {
			return core.PlanCacheStats{}
		}
		return e.eng.Cache.Stats()
	}
	c0, pc0 := counters(), cache()
	lf.win, err = e.measure(time.Duration(seconds*float64(time.Second)), t)
	if err != nil {
		return lf, err
	}
	c1, pc1 := counters(), cache()
	lf.delta = map[string]float64{}
	for n := range c1 {
		lf.delta[n] = c1[n] - c0[n]
	}
	lf.cache = core.PlanCacheStats{Hits: pc1.Hits - pc0.Hits, Misses: pc1.Misses - pc0.Misses, Uncacheable: pc1.Uncacheable - pc0.Uncacheable}
	return lf, e.finalCheck(w, t)
}

// wirePhase sends the clients' statements one at a time, round-robin over
// the connections, so the sequence is deterministic, and logs each answer.
func wirePhase(w *mix, srcs []source, seed int64, seconds float64, t *tally) ([]wireEntry, error) {
	e, err := startEnv(w, seed, srcs)
	if err != nil {
		return nil, err
	}
	defer e.close()
	var log []wireEntry
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for k := 0; k < traceMaxStatements && time.Now().Before(deadline); k++ {
		i := k % len(e.conns)
		s := e.srcs[i].next()
		r, t0, err := e.conns[i].run(s)
		if err != nil {
			return nil, err
		}
		check(s, &r, t)
		log = append(log, wireEntry{sql: s.sql, digest: r.digest, rows: r.rows, cost: r.cost, latMS: ms(r.complete.Sub(t0))})
	}
	return log, nil
}

// replayPhase runs the logged sequence layer by layer on a fresh engine
// and checks each statement reproduces the wire phase's answer and cost.
func replayPhase(w *mix, srcs []source, seed int64, log []wireEntry, t *tally) ([]layerRec, error) {
	cat, err := w.build(seed)
	if err != nil {
		return nil, err
	}
	rp := &replayer{eng: core.Attach(cat, w.config())}
	if w.planCache {
		rp.eng.Cache = core.NewPlanCache(0)
	}
	recs := make([]layerRec, 0, len(log))
	for k, want := range log {
		s := srcs[k%len(srcs)].next()
		if s.sql != want.sql {
			return nil, fmt.Errorf("replay statement %d is %q, wire phase sent %q", k, oneLine(s.sql), oneLine(want.sql))
		}
		rec, err := rp.run(s)
		t.attempted++
		if err != nil {
			t.errors++
			if t.firstBad == "" {
				t.firstBad = fmt.Sprintf("replay: %v [%s]", err, oneLine(s.sql))
			}
			continue
		}
		same := rec.cost == want.cost && (s.write && rec.affected == want.rows || !s.write && rec.digest == want.digest)
		if !same {
			t.wrong++
			if t.firstBad == "" {
				rows := fmt.Sprintf("rows %+v vs %+v", rec.digest, want.digest)
				if s.write {
					rows = fmt.Sprintf("affected %d vs %d", rec.affected, want.rows)
				}
				t.firstBad = fmt.Sprintf("replay differs from wire: cost %v vs %v, %s [%s]",
					rec.cost, want.cost, rows, oneLine(s.sql))
			}
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics folds the three phases into the per-layer metrics.
func layerMetrics(load loadFigures, log []wireEntry, recs []layerRec) []metric {
	var waits []float64
	queued, selects := 0, 0
	for _, s := range load.win.samples {
		waits = append(waits, s.waitMS)
		if s.queued {
			queued++
		}
		if !s.write {
			selects++
		}
	}
	n := len(load.win.samples)
	win, delta, pc := load.win, load.delta, load.cache
	var parse, bind, opt, parseA, bindA, optA, execT, execA, rowsOut, enc, dec, bytesQ, frames, writes, reopts, popExec, attributed []float64
	for _, r := range recs {
		attributed = append(attributed, r.attributedMS)
		if r.write {
			writes = append(writes, r.writeUS)
			continue
		}
		parse, parseA = append(parse, r.parseUS), append(parseA, r.parseAllocs)
		bind, bindA = append(bind, r.bindUS), append(bindA, r.bindAllocs)
		if r.pop {
			popExec = append(popExec, r.execUS/1e3)
			reopts = append(reopts, float64(r.reopts))
		} else {
			opt, optA = append(opt, r.optUS), append(optA, r.optAllocs)
		}
		execT, execA = append(execT, r.execUS/1e3), append(execA, r.execAllocs)
		rowsOut = append(rowsOut, float64(r.rowsOut))
		enc, dec = append(enc, r.encUS), append(dec, r.decUS)
		bytesQ, frames = append(bytesQ, float64(r.bytes)), append(frames, float64(r.frames))
	}
	var lat []float64
	for _, e := range log {
		lat = append(lat, e.latMS)
	}
	wireMed := median(lat)
	unattributed := 100 * ratio(wireMed-median(attributed), wireMed)
	gcCPU := 100 * ratio(win.gc1.gcCPU-win.gc0.gcCPU, win.gc1.totalCPU-win.gc0.totalCPU)
	gcPerKQ := 1000 * ratio(float64(win.gc1.cycles-win.gc0.cycles), float64(n))
	planReqs := float64(pc.Hits + pc.Misses + pc.Uncacheable)
	cnt := fmt.Sprintf("n=%d replayed", len(recs))
	return []metric{
		{"sql.parse_us", median(parse), "us", cnt},
		{"sql.parse_allocs", median(parseA), "count", "median"},
		{"plan.bind_us", median(bind), "us", ""},
		{"plan.bind_allocs", median(bindA), "count", "median"},
		{"opt.optimize_us", median(opt), "us", fmt.Sprintf("n=%d", len(opt))},
		{"opt.optimize_allocs", median(optA), "count", "median"},
		{"core.plancache_hit_ratio", ratio(float64(pc.Hits), planReqs), "ratio", fmt.Sprintf("%d of %.0f plan requests", pc.Hits, planReqs)},
		{"adaptive.execute_ms", median(popExec), "ms", fmt.Sprintf("n=%d", len(popExec))},
		{"adaptive.reopts_per_q", mean(reopts), "count", "mean"},
		{"exec.run_ms", median(execT), "ms", "median"},
		{"exec.allocs_per_q", mean(execA), "count", "mean"},
		{"exec.rows_out_per_q", mean(rowsOut), "count", "mean"},
		{"exec.rf_drop_ratio", ratio(delta["rqp_filter_dropped_total"], delta["rqp_filter_tested_total"]), "ratio",
			fmt.Sprintf("load phase, %.0f of %.0f rows tested", delta["rqp_filter_dropped_total"], delta["rqp_filter_tested_total"])},
		{"storage.col_skip_ratio", ratio(delta["rqp_columnar_blocks_skipped"], delta["rqp_columnar_blocks_skipped"]+delta["rqp_columnar_blocks_scanned"]), "ratio",
			fmt.Sprintf("load phase, %.0f skipped, %.0f scanned blocks", delta["rqp_columnar_blocks_skipped"], delta["rqp_columnar_blocks_scanned"])},
		{"exec.spill_rows_per_q", ratio(delta["rqp_spill_rows_total"], float64(selects)), "count", "load phase"},
		{"catalog.write_us", median(writes), "us", fmt.Sprintf("n=%d", len(writes))},
		{"wlm.wait_ms", mean(waits), "ms", "load phase, mean per statement"},
		{"wlm.queued_frac", ratio(float64(queued), float64(n)), "ratio", "load phase"},
		{"server.encode_us", median(enc), "us", "median"},
		{"server.decode_us", median(dec), "us", "median"},
		{"server.bytes_per_q", mean(bytesQ), "bytes", "mean"},
		{"server.frames_per_q", mean(frames), "count", "mean"},
		{"runtime.gc_cpu_pct", gcCPU, "%", "load phase"},
		{"runtime.gc_cycles_per_kq", gcPerKQ, "count", "load phase"},
		{"bench.unattributed_pct", unattributed, "%", fmt.Sprintf("wire median %.4f ms over n=%d", wireMed, len(lat))},
	}
}
