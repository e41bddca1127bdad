package exec

import (
	"rqp/internal/expr"
	"rqp/internal/plan"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// The hash-join kernel. Every hash-join path — the row hashJoin, the
// batchHashJoin, the morsel parallelHashJoin, the spill replay
// (joinPartition, mergeJoinSpilled) and the shard-local ShardJoiner — runs
// the one rule defined here, so charges and results cannot drift between
// them:
//
//   - build insert (joinKernel.insert): Probes(2) per build row, NULL keys
//     included, then the row joins its bucket unless its key is NULL;
//   - bucket lookup (joinTable.lookup): a NULL probe key matches nothing;
//     otherwise the bucket of a resident partition, or deferral of the probe
//     row to its spilled partition's run;
//   - match step (joinKernel.match): key equality, then the residual over
//     the joined row, then one unit of row work per accepted match;
//   - LEFT OUTER (joinKernel.extend): a probe row nothing matched is padded
//     with NULLs for one unit of row work; a deferred row is extended when
//     its partition replays.
//
// Callers charge the probe itself (Probes(1) per probe row, or ProbesBatch
// per batch) because where that charge lands is what differs between paths.

// joinKernel is one hash join's match geometry. It is read-only once built,
// so every worker probing the join shares it.
type joinKernel struct {
	leftKeys, rightKeys []int
	outer               bool
	residual            func(types.Row) (bool, error) // nil when the join has none
	nulls               types.Row                     // build-side padding for the outer extension
}

// newJoinKernel builds the kernel for node. compile selects the compiled
// residual; the row hashJoin passes false and keeps the interpreter.
func newJoinKernel(ctx *Context, node *plan.JoinNode, compile bool) *joinKernel {
	k := &joinKernel{
		leftKeys:  node.LeftKeys,
		rightKeys: node.RightKeys,
		outer:     node.Type == plan.LeftOuter,
		nulls:     nullRow(len(node.Kids[1].Schema())),
	}
	if res, params := node.Residual, ctx.Params; res != nil {
		if compile {
			pred := expr.CompilePredicate(res)
			k.residual = func(r types.Row) (bool, error) { return pred.Eval(r, params) }
		} else {
			k.residual = func(r types.Row) (bool, error) { return expr.EvalPredicate(res, r, params) }
		}
	}
	return k
}

// probeScratch is one prober's reusable workspace: the probe and candidate
// key buffers and the joined row the match step assembles, so steady-state
// probing allocates nothing. A scratch serves one goroutine at a time.
type probeScratch struct {
	key  []types.Value
	ckey []types.Value
	buf  types.Row
}

// join assembles l ++ r into buf.
func (st *probeScratch) join(l, r types.Row) types.Row {
	if n := len(l) + len(r); cap(st.buf) < n {
		st.buf = make(types.Row, 0, n)
	}
	st.buf = append(append(st.buf[:0], l...), r...)
	return st.buf
}

// take hands the last assembled row to a caller that keeps it; the next
// one is assembled into a fresh row, so keeping costs one allocation per
// row and no copy.
func (st *probeScratch) take() types.Row {
	r := st.buf
	st.buf = nil
	return r
}

func (k *joinKernel) newScratch() *probeScratch {
	return &probeScratch{
		key:  make([]types.Value, len(k.leftKeys)),
		ckey: make([]types.Value, len(k.rightKeys)),
	}
}

// insert is the build insert: it charges the insert — twice a probe (see
// cost model) — before looking at the key, so a NULL-key row pays too, and
// returns the key's hash. ok is false for a NULL key, which can match
// nothing: the caller drops the row; otherwise it appends the row to bucket
// h. A nil clk charges nothing (a shard replica whose owner copy pays).
func (k *joinKernel) insert(clk *storage.Clock, ckey []types.Value, r types.Row) (h uint64, ok bool) {
	if clk != nil {
		clk.Probes(2)
	}
	keyInto(ckey, r, k.rightKeys)
	if keyHasNull(ckey) {
		return 0, false
	}
	return types.HashRow(ckey), true
}

// candidates loads lr's key into st.key and looks its bucket up in t. A
// NULL key has no candidates; deferred reports that lr went to a spilled
// partition's probe run, which answers it (outer extension included).
func (k *joinKernel) candidates(st *probeScratch, t *joinTable, lr types.Row) (cands []types.Row, deferred bool) {
	keyInto(st.key, lr, k.leftKeys)
	if keyHasNull(st.key) {
		return nil, false
	}
	return t.lookup(lr, st.key)
}

// match is the match step for probe row lr (whose key is in st.key) and one
// candidate build row. On true st.buf holds the joined row, valid until
// the scratch is next used, and clk has been charged one unit of row work;
// a nil clk leaves that charge to the caller (the batch path charges
// RowWorkBatch per batch).
func (k *joinKernel) match(clk *storage.Clock, st *probeScratch, lr, cand types.Row) (bool, error) {
	keyInto(st.ckey, cand, k.rightKeys)
	if !keysEqual(st.key, st.ckey) {
		return false, nil
	}
	out := st.join(lr, cand)
	if k.residual != nil {
		if ok, err := k.residual(out); err != nil || !ok {
			return false, err
		}
	}
	if clk != nil {
		clk.RowWork(1)
	}
	return true, nil
}

// extend is the LEFT OUTER null extension of a probe row nothing matched:
// lr padded with NULLs into st.buf, for one unit of row work (nil clk: the
// caller's batch charge).
func (k *joinKernel) extend(clk *storage.Clock, st *probeScratch, lr types.Row) types.Row {
	if clk != nil {
		clk.RowWork(1)
	}
	return st.join(lr, k.nulls)
}

// probe runs one probe row through the kernel against t: candidates, the
// match step on each, and the outer extension, handing every output row to
// emit. The row emit receives is st.buf, overwritten by the next probe:
// sinks that keep rows take it (probeScratch.take).
func (k *joinKernel) probe(clk *storage.Clock, st *probeScratch, t *joinTable, lr types.Row, emit func(types.Row) error) error {
	cands, deferred := k.candidates(st, t, lr)
	if deferred {
		return nil
	}
	matched := false
	for _, cand := range cands {
		ok, err := k.match(clk, st, lr, cand)
		if err != nil {
			return err
		}
		if ok {
			matched = true
			if err := emit(st.buf); err != nil {
				return err
			}
		}
	}
	if k.outer && !matched {
		return emit(k.extend(clk, st, lr))
	}
	return nil
}

// joinTable is a hash join's build side behind the one bucket lookup:
// resident buckets sharded by hash over parts (one part for the serial
// joins, one per worker for the morsel join), or a spillJoin whose
// non-resident partitions defer their probe rows. It owns the memory grant
// backing it.
type joinTable struct {
	parts []map[uint64][]types.Row
	spill *spillJoin
	grant int
}

// newJoinTable erects a build side under grant, which the table now owns:
// resident when the build fits, partitioned with overflow partitions
// spilled otherwise. Build rows must be owned by the caller (drain clones
// them).
func newJoinTable(ctx *Context, k *joinKernel, node *plan.JoinNode, build []types.Row, grant, depth int) *joinTable {
	t := &joinTable{grant: grant}
	if len(build) > grant {
		t.spill = newSpillJoin(ctx, k, node, build, grant, depth)
		return t
	}
	tab := make(map[uint64][]types.Row, len(build))
	ckey := make([]types.Value, len(k.rightKeys))
	for _, r := range build {
		if h, ok := k.insert(ctx.Clock, ckey, r); ok {
			tab[h] = append(tab[h], r)
		}
	}
	t.parts = []map[uint64][]types.Row{tab}
	return t
}

// lookup is the bucket lookup for a non-NULL probe key: the candidates of a
// resident partition, or — when key's partition spilled — none, with lr
// deferred to that partition's probe run.
func (t *joinTable) lookup(lr types.Row, key []types.Value) ([]types.Row, bool) {
	if t.spill != nil {
		return t.spill.probe(lr, key)
	}
	h := types.HashRow(key)
	return t.parts[h%uint64(len(t.parts))][h], false
}

// finish replays the spilled partitions once the probe input is exhausted,
// handing their output to emit (same row validity as joinKernel.probe). A
// resident table has nothing to replay.
func (t *joinTable) finish(emit func(types.Row) error) error {
	if t.spill == nil {
		return nil
	}
	return t.spill.finish(emit)
}

// close frees the buckets and any spill runs and returns the grant. Safe on
// a nil table (an operator whose build never completed).
func (t *joinTable) close(mem *MemBroker) {
	if t == nil {
		return
	}
	t.parts = nil
	if t.spill != nil {
		t.spill.close()
		t.spill = nil
	}
	mem.Release(t.grant)
	t.grant = 0
}

// hashBuild is the build phase hashJoin and batchHashJoin share. The build
// side drains before the probe side opens so that runtime filters derived
// from the completed build are already published when probe-side scans
// bind (indexScan materializes during Open); then one grant, and the
// table — resident, or spilling when the build exceeds the grant.
type hashBuild struct {
	kern *joinKernel
	tab  *joinTable
	st   *probeScratch
	tail []types.Row // deferred partitions' output, emitted after the probe phase
	tpos int
}

func (b *hashBuild) open(ctx *Context, node *plan.JoinNode, right Operator, compile bool) error {
	build, err := drain(right)
	if err != nil {
		return err
	}
	buildRuntimeFilters(ctx, node, ctx.Clock, build)
	b.kern = newJoinKernel(ctx, node, compile)
	b.tab = newJoinTable(ctx, b.kern, node, build, ctx.Mem.Grant(len(build)), 0)
	b.st = b.kern.newScratch()
	b.tail, b.tpos = nil, 0
	return nil
}

// replay collects the deferred partitions' output into tail once the probe
// input is exhausted. Its rows were charged inside the replay.
func (b *hashBuild) replay() error {
	return b.tab.finish(func(r types.Row) error {
		b.tail = append(b.tail, r.Clone())
		return nil
	})
}

func (b *hashBuild) close(ctx *Context) {
	b.tab.close(ctx.Mem)
	b.tab = nil
	b.tail = nil
}

// hashJoin builds a hash table on the right input and probes with the left.
// If the build side exceeds the broker's grant, it becomes a hybrid hash
// join: the build partitions by key hash, overflow partitions spill to temp
// runs together with their probe rows, and the spilled pairs are joined
// recursively after the in-memory probe phase (spillJoin). It is pull-based:
// a match's row work is charged only when the parent pulls the row, which
// LIMIT depends on.
type hashJoin struct {
	ctx   *Context
	node  *plan.JoinNode
	left  Operator
	right Operator
	hashBuild

	lrow     types.Row
	matched  bool
	cands    []types.Row
	cpos     int
	lDone    bool
	finished bool
}

func (j *hashJoin) Open() error {
	if err := j.open(j.ctx, j.node, j.right, false); err != nil {
		return err
	}
	j.lrow, j.cands, j.lDone, j.finished = nil, nil, false, false
	return j.left.Open()
}

func (j *hashJoin) Next() (types.Row, bool, error) {
	for {
		for j.cpos < len(j.cands) {
			cand := j.cands[j.cpos]
			j.cpos++
			ok, err := j.kern.match(j.ctx.Clock, j.st, j.lrow, cand)
			if err != nil {
				return nil, false, err
			}
			if ok {
				j.matched = true
				return j.st.take(), true, nil
			}
		}
		if j.lrow != nil && j.kern.outer && !j.matched {
			j.kern.extend(j.ctx.Clock, j.st, j.lrow)
			out := j.st.take()
			j.lrow = nil
			return out, true, nil
		}
		if j.lDone {
			if !j.finished {
				j.finished = true
				if err := j.replay(); err != nil {
					return nil, false, err
				}
			}
			if j.tpos < len(j.tail) {
				r := j.tail[j.tpos]
				j.tpos++
				return r, true, nil
			}
			return nil, false, nil
		}
		lr, ok, err := j.left.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			j.lDone = true
			continue
		}
		j.lrow = lr.Clone()
		j.matched = false
		j.ctx.Clock.Probes(1)
		var deferred bool
		j.cands, deferred = j.kern.candidates(j.st, j.tab, j.lrow)
		j.cpos = 0
		if deferred {
			j.lrow = nil // resolved (matches and outer alike) in replay
		}
	}
}

func (j *hashJoin) Close() error {
	j.close(j.ctx)
	return j.left.Close()
}
