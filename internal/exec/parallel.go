package exec

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"rqp/internal/expr"
	"rqp/internal/plan"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// ResolveDOP maps a configured degree of parallelism to an effective worker
// count: negative means "all cores" (runtime.NumCPU), zero and one mean
// serial.
func ResolveDOP(n int) int {
	if n < 0 {
		return runtime.NumCPU()
	}
	if n == 0 {
		return 1
	}
	return n
}

// parallelEligible reports whether build should take the morsel-driven path
// for a node: the context must carry a DOP above one and the planner must
// have marked the node (plan.MarkParallel).
func (ctx *Context) parallelEligible(p *plan.Props) bool {
	return ctx.DOP > 1 && p.Parallel
}

// finishNode records a fused child's observed cardinality the way the
// counted wrapper would have, so LEO feedback, EXPLAIN ANALYZE spans and
// the robustness metrics still see the node even though no standalone
// operator ran for it.
func finishNode(ctx *Context, n plan.Node, actual float64) {
	n.Props().ActualRows = actual
	if ctx.Trace != nil {
		if sp := ctx.Trace.SpanOf(n); sp != nil {
			sp.Finish(actual)
		}
	}
	if ctx.OnActual != nil {
		ctx.OnActual(n, actual)
	}
}

// compilePred compiles e, or returns nil when there is no predicate.
// Morsel, shard and columnar operators call this at Open so the one-time
// compile is paid off across every morsel.
func compilePred(e expr.Expr) *expr.Pred {
	if e == nil {
		return nil
	}
	return expr.CompilePredicate(e)
}

// scanPageRange scans the heap pages [lo, hi) of a table with the exact
// serial-scan charge discipline (one sequential read per page, runtime
// filters before per-row CPU). morselSource.feed delegates here; the sharded
// co-located join path uses it directly with a partition's page range.
func scanPageRange(ctx *Context, node *plan.ScanNode, pred *expr.Pred, rf *rfConsumer, lo, hi int, clk *storage.Clock, emit func(types.Row) error) error {
	var emitErr error
	for p := lo; p < hi; p++ {
		node.Table.Heap.ScanPage(clk, p, func(_ storage.RID, r types.Row) bool {
			if rf != nil && !rf.admit(clk, r) {
				return true
			}
			clk.RowWork(1)
			if pred != nil {
				ok, err := pred.Eval(r, ctx.Params)
				if err != nil {
					emitErr = err
					return false
				}
				if !ok {
					return true
				}
			}
			if err := emit(r); err != nil {
				emitErr = err
				return false
			}
			return true
		})
		if emitErr != nil {
			return emitErr
		}
	}
	return nil
}

// morselSource is a morsel operator's input: a fused scan's morsels (page
// ranges or column blocks, with serial-scan charges) or MorselRows-row
// chunks of a drained child.
type morselSource struct {
	n    int
	rows []types.Row // the drained child; unused over a scan

	ctx     *Context
	scan    *plan.ScanNode // nil over a drained child
	pred    *expr.Pred
	rf      *rfConsumer
	col     *colScanner
	npages  int
	scanned atomic.Int64
}

// scanSource binds a fused scan — filter compiled, runtime filters bound,
// columnar core resolved so block pruning sees them — as a morsel source.
func scanSource(ctx *Context, node *plan.ScanNode) *morselSource {
	s := &morselSource{ctx: ctx, scan: node, pred: compilePred(node.Filter)}
	s.rf = bindRuntimeFilters(ctx, node.RFConsume)
	s.col = colScannerFor(ctx, node, s.rf)
	s.n, s.npages = scanGeometry(node, s.col)
	return s
}

// drainSource drains op (which drain also closes) into a morsel source.
func drainSource(op Operator) (*morselSource, error) {
	rows, err := drain(op)
	if err != nil {
		return nil, err
	}
	return &morselSource{n: morselCount(len(rows), MorselRows), rows: rows}, nil
}

// feed hands morsel m's rows to fn, charging clk. A scan morsel is charged
// exactly as the serial scan would charge it: a page range through
// scanPageRange, or one column block through the shared block core; its
// rows are the heap's (or freshly materialized columnar rows), valid until
// the query ends and never to be mutated.
func (s *morselSource) feed(m int, clk *storage.Clock, fn func(types.Row) error) error {
	if s.scan == nil {
		lo, hi := morselRange(m, MorselRows, len(s.rows))
		for _, r := range s.rows[lo:hi] {
			if err := fn(r); err != nil {
				return err
			}
		}
		return nil
	}
	rows := int64(0)
	count := func(r types.Row) error {
		rows++
		return fn(r)
	}
	var err error
	if s.col != nil {
		err = s.col.scanBlock(m, clk, count)
	} else {
		lo, hi := morselRange(m, MorselPages, s.npages)
		err = scanPageRange(s.ctx, s.scan, s.pred, s.rf, lo, hi, clk, count)
	}
	s.scanned.Add(rows)
	return err
}

// done records a fused scan's observed cardinality once every morsel has
// run, as the counted wrapper would have for a standalone scan.
func (s *morselSource) done() {
	if s.scan != nil {
		finishNode(s.ctx, s.scan, float64(s.scanned.Load()))
	}
}

// ---------- parallel scan ----------

// parallelScan splits a sequential scan into fixed page-range morsels
// dispatched to the worker pool and gathers matching rows through an
// exchange in morsel order — exactly the heap order the serial scan emits.
// Page and row charges are identical to seqScan's, issued on worker shard
// clocks and merged at the gather barrier.
type parallelScan struct {
	ctx  *Context
	node *plan.ScanNode
	x    exchange
}

func (s *parallelScan) Open() error {
	src := scanSource(s.ctx, s.node) // the counted wrapper records cardinality, not done
	s.x.reset(src.n)
	return runMorsels(s.ctx, s.node.Label(), src.n, s.ctx.DOP, func(m int, clk *storage.Clock) (int, error) {
		rows := getMorselBuf()
		err := src.feed(m, clk, func(r types.Row) error {
			rows = append(rows, r)
			return nil
		})
		if err != nil {
			putMorselBuf(rows)
			return 0, err
		}
		s.x.set(m, rows)
		return len(rows), nil
	})
}

func (s *parallelScan) Next() (types.Row, bool, error) {
	r, ok := s.x.next()
	return r, ok, nil
}

func (s *parallelScan) Close() error {
	s.x.release()
	return nil
}

// ---------- parallel hash join ----------

// hashedRow pairs a build row with its precomputed join-key hash.
type hashedRow struct {
	h uint64
	r types.Row
}

// parallelHashJoin is the morsel-driven hash join. The build side is
// drained once, hashed in parallel morsels, and repartitioned into one
// hash-table shard per worker at a gather barrier; probe-side morsels then
// stream against the frozen shards lock-free. When the probe child is a
// parallel-marked scan, the scan fuses into the probe loop: one morsel
// performs page read, filter and probe with no intermediate
// materialization. Output flows through an exchange in morsel order, and
// shard bucket chains are assembled in build order, so the emitted rows are
// byte-identical, in order, to the serial hashJoin's. The charge multiset
// also matches serial, so simulated cost is unchanged.
type parallelHashJoin struct {
	ctx   *Context
	node  *plan.JoinNode
	scan  *plan.ScanNode // fused probe-side scan (nil when left is set)
	left  Operator       // probe child when not fused
	right Operator

	dop     int
	kern    *joinKernel
	tab     *joinTable    // one part per worker, or spilling
	src     *morselSource // the probe side, readied after the build
	emitted int64
	x       exchange
	scratch sync.Pool // *probeScratch, reused across morsels
}

// openBuild drains the build side, erects the partitioned hash table and
// readies the probe side. It is Open minus the probe phase, so an enclosing
// fused aggregation can drive the probe morsels itself.
func (j *parallelHashJoin) openBuild() error {
	j.dop = max(j.ctx.DOP, 1)
	j.kern = newJoinKernel(j.ctx, j.node, true)
	build, err := drain(j.right)
	if err != nil {
		return err
	}
	grant := j.ctx.Mem.Grant(len(build))
	if len(build) > grant {
		// Graceful degradation trades parallelism for robustness: the build
		// delegates to the serial spill machinery and the probe phase runs
		// inline on the context clock (probeSerialSpill) — correct results
		// and serial-identical charges under any budget, at DOP cost.
		// Runtime filters derive serially from the drained build first, so
		// the probe-side scans still shrink the spilled probe volume.
		buildRuntimeFilters(j.ctx, j.node, j.ctx.Clock, build)
		j.tab = newJoinTable(j.ctx, j.kern, j.node, build, grant, 0)
	} else if err := j.buildPartitions(build, grant); err != nil {
		j.ctx.Mem.Release(grant)
		return err
	}
	return j.openProbe()
}

// openProbe readies the probe side once the build has published its
// runtime filters — including the filter this very join produced, which a
// fused scan commonly consumes: the fused scan, or the drained probe child.
func (j *parallelHashJoin) openProbe() error {
	if j.scan != nil {
		j.src = scanSource(j.ctx, j.scan)
		return nil
	}
	var err error
	j.src, err = drainSource(j.left)
	j.left = nil // drained and closed; Close must not close it again
	return err
}

// probeSerialSpill is the memory-pressure probe phase: every probe row is
// handled serially on the context clock through the spilling table — rows
// of resident partitions match immediately, the rest defer to probe runs —
// and the spilled partitions then replay. Every joined (and, for
// left-outer, null-extended) row goes to sink in serial-identical order
// with serial-identical charges; as with probeEach, sink's row is scratch.
func (j *parallelHashJoin) probeSerialSpill(sink func(types.Row) error) error {
	st := j.kern.newScratch()
	count := func(r types.Row) error {
		atomic.AddInt64(&j.emitted, 1)
		return sink(r)
	}
	probe := func(lr types.Row) error { return j.probeEach(lr, j.ctx.Clock, st, count) }
	for m := 0; m < j.src.n; m++ {
		if err := j.src.feed(m, j.ctx.Clock, probe); err != nil {
			return err
		}
	}
	j.src.done()
	return j.tab.finish(count)
}

func (j *parallelHashJoin) Open() error {
	if err := j.openBuild(); err != nil {
		return err
	}
	return j.probe()
}

// buildPartitions runs the two build phases: (1) parallel morsels hash
// every build row into per-morsel vectors through the kernel's build
// insert — and, when the plan announced runtime filters, fill one partial
// Bloom per filter per morsel; (2) each worker assembles its own
// hash-range shard by sweeping the vectors in morsel order, so bucket
// chains preserve build order and probing stays deterministic. Partial
// Blooms are OR-merged in morsel order at the same gather barrier and
// published before any probe morsel can run.
func (j *parallelHashJoin) buildPartitions(build []types.Row, grant int) error {
	n := morselCount(len(build), MorselRows)
	pairs := make([][]hashedRow, n)
	nf := 0
	if j.ctx.RF != nil {
		nf = len(j.node.RFilters)
	}
	var rfParts [][]*RuntimeFilter
	if nf > 0 {
		rfParts = make([][]*RuntimeFilter, n)
	}
	err := runMorsels(j.ctx, j.node.Label()+" build", n, j.dop, func(m int, clk *storage.Clock) (int, error) {
		lo, hi := morselRange(m, MorselRows, len(build))
		ps := make([]hashedRow, 0, hi-lo)
		key := make([]types.Value, len(j.node.RightKeys))
		var fs []*RuntimeFilter
		if nf > 0 {
			// Partials are sized for the full build so the barrier merge is
			// a plain word-wise OR; the batch charge equals the serial
			// build's per-row charges over this morsel's rows.
			fs = make([]*RuntimeFilter, nf)
			for i, sp := range j.node.RFilters {
				fs[i] = newRuntimeFilter(sp.ID, len(build))
			}
			clk.FilterTestsBatch((hi - lo) * nf)
		}
		for _, r := range build[lo:hi] {
			for i, sp := range j.node.RFilters[:nf] {
				fs[i].add(r[j.node.RightKeys[sp.Col]])
			}
			if h, ok := j.kern.insert(clk, key, r); ok {
				ps = append(ps, hashedRow{h, r})
			}
		}
		if nf > 0 {
			rfParts[m] = fs
		}
		pairs[m] = ps
		return len(ps), nil
	})
	if err != nil {
		return err
	}
	for i, sp := range j.node.RFilters[:nf] {
		f := newRuntimeFilter(sp.ID, len(build))
		for _, fs := range rfParts {
			f.merge(fs[i])
		}
		j.ctx.RF.publish(f)
		if j.ctx.Trace != nil {
			j.ctx.Trace.Event("rf.build", fmt.Sprintf("filter=%d keys=%d bits=%d partials=%d", f.ID, len(build), len(f.words)*64, n))
		}
	}
	parts := make([]map[uint64][]types.Row, j.dop)
	dop := uint64(j.dop)
	err = runMorsels(j.ctx, j.node.Label()+" partition", j.dop, j.dop, func(w int, _ *storage.Clock) (int, error) {
		tab := map[uint64][]types.Row{}
		for _, ps := range pairs {
			for _, p := range ps {
				if p.h%dop == uint64(w) {
					tab[p.h] = append(tab[p.h], p.r)
				}
			}
		}
		parts[w] = tab
		return 0, nil
	})
	if err != nil {
		return err
	}
	j.tab = &joinTable{parts: parts, grant: grant}
	return nil
}

// getScratch hands out a pooled probeScratch; putScratch returns it when the
// morsel finishes, so scratch allocation amortizes across morsels instead of
// recurring per morsel.
func (j *parallelHashJoin) getScratch() *probeScratch {
	if st, ok := j.scratch.Get().(*probeScratch); ok {
		return st
	}
	return j.kern.newScratch()
}

func (j *parallelHashJoin) putScratch(st *probeScratch) { j.scratch.Put(st) }

// probeEach charges one probe and runs left row lr through the join kernel
// (hashjoin.go), handing every joined (and, for left-outer, null-extended)
// row to sink. The row passed to sink is st.buf — a scratch reused on the
// next call; sinks that keep rows must clone.
func (j *parallelHashJoin) probeEach(lr types.Row, clk *storage.Clock, st *probeScratch, sink func(types.Row) error) error {
	clk.Probes(1)
	return j.kern.probe(clk, st, j.tab, lr, sink)
}

// probe runs the probe phase into the exchange (the standalone operator
// path; a fused aggregation bypasses this entirely).
func (j *parallelHashJoin) probe() error {
	if j.tab.spill != nil {
		out := getMorselBuf()
		err := j.probeSerialSpill(func(r types.Row) error {
			out = append(out, r.Clone())
			return nil
		})
		if err != nil {
			putMorselBuf(out)
			return err
		}
		j.x.reset(1)
		j.x.set(0, out)
		return nil
	}
	j.x.reset(j.src.n)
	err := runMorsels(j.ctx, j.node.Label()+" probe", j.src.n, j.dop, func(m int, clk *storage.Clock) (int, error) {
		st := j.getScratch()
		defer j.putScratch(st)
		out := getMorselBuf()
		keep := func(types.Row) error {
			out = append(out, st.take())
			return nil
		}
		err := j.src.feed(m, clk, func(lr types.Row) error { return j.probeEach(lr, clk, st, keep) })
		if err != nil {
			putMorselBuf(out)
			return 0, err
		}
		j.x.set(m, out)
		return len(out), nil
	})
	if err != nil {
		return err
	}
	j.src.done()
	return nil
}

func (j *parallelHashJoin) Next() (types.Row, bool, error) {
	r, ok := j.x.next()
	return r, ok, nil
}

// release frees the hash shards (or spill state) and returns the memory
// grant.
func (j *parallelHashJoin) release() {
	j.tab.close(j.ctx.Mem)
	j.tab = nil
}

func (j *parallelHashJoin) Close() error {
	j.release()
	j.x.release()
	if j.left != nil {
		return j.left.Close()
	}
	return nil
}

// ---------- parallel aggregation ----------

// aggPartial is one morsel's partial grouping state.
type aggPartial struct {
	groups map[uint64][]*group
	order  []*group
}

func newAggPartial() *aggPartial {
	return &aggPartial{groups: map[uint64][]*group{}}
}

// find and add are the find-or-create step every hash aggregation shares
// (aggSink.add, parallelAgg.accumRow, mergePartials). find returns key's
// group in bucket h, or nil.
func (p *aggPartial) find(key []types.Value, h uint64) *group {
	for _, cand := range p.groups[h] {
		if rowsEqual(cand.key, key) {
			return cand
		}
	}
	return nil
}

// add enters g as the group of bucket h, in first-seen order.
func (p *aggPartial) add(g *group, h uint64) *group {
	p.groups[h] = append(p.groups[h], g)
	p.order = append(p.order, g)
	return g
}

// newGroup returns an empty group for key, cloning the key (callers reuse
// their key buffer across rows).
func newGroup(key []types.Value, naggs int) *group {
	return &group{key: append([]types.Value(nil), key...), states: make([]aggState, naggs)}
}

// parallelAgg runs hash aggregation as per-morsel partial group states
// merged at a gather barrier, then sorts the merged groups on the key —
// the same deterministic output order as the serial hashAgg. Partials
// merge in morsel order, so results are reproducible run to run; SUM/AVG
// over floats may differ from serial in the last bits because partial sums
// reassociate the additions (exact for integer data).
//
// The input pipeline fuses as deep as the plan allows: over a
// parallel-marked scan, one morsel performs page read, filter and
// accumulation; over a parallel-marked hash join, one morsel runs
// scan → probe → accumulate with a scratch output row and no
// materialization at all — the morsel pipeline only breaks at the gather
// barrier, where partials merge.
type parallelAgg struct {
	ctx   *Context
	node  *plan.AggNode
	scan  *plan.ScanNode    // fused input scan (exclusive with join/child)
	join  *parallelHashJoin // fused input join (exclusive with scan/child)
	child Operator          // generic input (exclusive with scan/join)

	groupFns []expr.EvalFn // compiled group expressions
	argFns   []expr.EvalFn // compiled aggregate arguments

	out []types.Row
	pos int
}

// accumRow folds one input row into a partial, charging the serial
// hashAgg's per-row probe. key is the caller's scratch group-key buffer.
func (a *parallelAgg) accumRow(p *aggPartial, r types.Row, key []types.Value, clk *storage.Clock) error {
	clk.Probes(1)
	if err := evalGroupKey(key, a.groupFns, r, a.ctx.Params); err != nil {
		return err
	}
	h := types.HashRow(key)
	g := p.find(key, h)
	if g == nil {
		g = p.add(newGroup(key, len(a.node.Aggs)), h)
	}
	return accumGroupFns(g, a.node, a.argFns, r, a.ctx.Params)
}

func (a *parallelAgg) Open() error {
	a.groupFns, a.argFns = compileAgg(a.node)
	var (
		partials []*aggPartial
		err      error
	)
	if a.join != nil {
		partials, err = a.partialsFromJoin()
	} else {
		partials, err = a.partialsFromInput()
	}
	if err != nil {
		return err
	}
	a.out = finalizeGroups(a.node, a.mergePartials(partials), a.ctx.Clock)
	a.pos = 0
	return nil
}

// partialsFromInput accumulates the fused scan's morsels, or MorselRows
// chunks of the drained child, into one partial per morsel.
func (a *parallelAgg) partialsFromInput() ([]*aggPartial, error) {
	var src *morselSource
	if a.scan != nil {
		src = scanSource(a.ctx, a.scan)
	} else {
		var err error
		src, err = drainSource(a.child)
		a.child = nil // drained and closed; Close must not close it again
		if err != nil {
			return nil, err
		}
	}
	partials := make([]*aggPartial, src.n)
	err := runMorsels(a.ctx, a.node.Label(), src.n, a.ctx.DOP, func(m int, clk *storage.Clock) (int, error) {
		p := newAggPartial()
		key := make([]types.Value, len(a.node.GroupExprs))
		if err := src.feed(m, clk, func(r types.Row) error { return a.accumRow(p, r, key, clk) }); err != nil {
			return 0, err
		}
		partials[m] = p
		return len(p.order), nil
	})
	if err != nil {
		return nil, err
	}
	src.done()
	return partials, nil
}

// partialsFromJoin is the fully fused pipeline: build the join's hash
// shards, then run probe morsels that accumulate joined rows straight into
// partials through a scratch row — no joined row is ever materialized.
func (a *parallelAgg) partialsFromJoin() ([]*aggPartial, error) {
	jn := a.join
	if err := jn.openBuild(); err != nil {
		return nil, err
	}
	var partials []*aggPartial
	if jn.tab.spill != nil {
		// Build spilled: the fused pipeline degrades to a serial
		// probe-and-replay feeding one partial, keeping results and charges
		// serial-identical under pressure.
		p := newAggPartial()
		key := make([]types.Value, len(a.node.GroupExprs))
		err := jn.probeSerialSpill(func(r types.Row) error {
			return a.accumRow(p, r, key, a.ctx.Clock)
		})
		if err != nil {
			return nil, err
		}
		partials = []*aggPartial{p}
	} else {
		partials = make([]*aggPartial, jn.src.n)
		err := runMorsels(a.ctx, a.node.Label(), jn.src.n, jn.dop, func(m int, clk *storage.Clock) (int, error) {
			st := jn.getScratch()
			defer jn.putScratch(st)
			p := newAggPartial()
			key := make([]types.Value, len(a.node.GroupExprs))
			accum := func(r types.Row) error {
				atomic.AddInt64(&jn.emitted, 1)
				return a.accumRow(p, r, key, clk)
			}
			if err := jn.src.feed(m, clk, func(lr types.Row) error { return jn.probeEach(lr, clk, st, accum) }); err != nil {
				return 0, err
			}
			partials[m] = p
			return len(p.order), nil
		})
		if err != nil {
			return nil, err
		}
		jn.src.done()
	}
	finishNode(a.ctx, jn.node, float64(atomic.LoadInt64(&jn.emitted)))
	jn.release()
	return partials, nil
}

// mergePartials folds the per-morsel partials, in morsel order, into one
// group list. Grouping work was already charged per input row in the
// morsels; the merge itself is free on the clock, exactly like the serial
// hashAgg's in-table accumulation.
func (a *parallelAgg) mergePartials(partials []*aggPartial) []*group {
	merged := newAggPartial()
	for _, p := range partials {
		if p == nil {
			continue
		}
		for _, g := range p.order {
			h := types.HashRow(g.key)
			dst := merged.find(g.key, h)
			if dst == nil {
				merged.add(g, h)
				continue
			}
			for i := range dst.states {
				dst.states[i].merge(&g.states[i], a.node.Aggs[i])
			}
		}
	}
	return merged.order
}

func (a *parallelAgg) Next() (types.Row, bool, error) {
	if a.pos >= len(a.out) {
		return nil, false, nil
	}
	r := a.out[a.pos]
	a.pos++
	return r, true, nil
}

func (a *parallelAgg) Close() error {
	a.out = nil
	if a.child != nil {
		return a.child.Close()
	}
	return nil
}
