package exec

import (
	"fmt"
	"sort"
	"sync"

	"rqp/internal/plan"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// Graceful degradation under memory pressure: when the broker's grant does
// not cover an operator's build/state, the operator partitions its input by
// key hash into a fixed fan-out, keeps a prefix of partitions resident, and
// spills the rest to storage.TempRun partitions that are processed
// recursively once the probe/input side is exhausted. The partition
// function depends only on the key hash and the recursion depth — never on
// the grant — so a larger budget keeps a superset of partitions resident
// and the cost curve degrades monotonically as memory shrinks (the property
// the memory-axis robustness maps assert). At maxSpillDepth a partition
// that still does not fit falls back to external sort-merge, which works in
// streaming fashion for any size.
const (
	// maxSpillDepth bounds recursive repartitioning; beyond it the
	// sort-merge fallback takes over (duplicate-key skew cannot be split by
	// rehashing, no matter how deep).
	maxSpillDepth = 3
	// maxSpillFanout caps the per-level partition count.
	maxSpillFanout = 32
	// aggSpillFanout is the fixed fan-out for aggregation input spills (the
	// input size is unknown when spilling starts, so a size-derived fan-out
	// is not available).
	aggSpillFanout = 8
)

// spillFanout picks the partition count for a build of n rows: roughly one
// page per partition, clamped to [2, maxSpillFanout]. Deliberately
// independent of the grant so partition contents are identical across
// budgets.
func spillFanout(n int) int {
	f := (n + storage.PageRows - 1) / storage.PageRows
	if f < 2 {
		f = 2
	}
	if f > maxSpillFanout {
		f = maxSpillFanout
	}
	return f
}

// spillPartOf maps a key hash to a partition. The depth salt re-mixes the
// hash so recursive repartitioning splits a partition along fresh
// boundaries instead of reproducing it whole.
func spillPartOf(h uint64, depth, fanout int) int {
	h ^= uint64(depth+1) * 0x9e3779b97f4a7c15
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h % uint64(fanout))
}

// SpillStats aggregates one query's graceful-degradation activity across
// every spilling operator (hash join, hash aggregation, external sort) —
// the raw numbers behind EXPLAIN ANALYZE spill events, the spill metrics
// and the memory-sweep robustness maps.
type SpillStats struct {
	mu             sync.Mutex
	partitions     int // partitions written to temp runs
	rows           int // rows written to temp runs
	pages          int // pages written to temp runs
	maxDepth       int // deepest recursion level that spilled
	mergeFallbacks int // partitions that fell back to sort-merge
}

func (s *SpillStats) record(partitions, rows, pages, depth int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.partitions += partitions
	s.rows += rows
	s.pages += pages
	if depth > s.maxDepth {
		s.maxDepth = depth
	}
	s.mu.Unlock()
}

func (s *SpillStats) fallback() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.mergeFallbacks++
	s.mu.Unlock()
}

// Snapshot returns (partitions, rows, pages, maxDepth, mergeFallbacks).
func (s *SpillStats) Snapshot() (partitions, rows, pages, maxDepth, fallbacks int) {
	if s == nil {
		return 0, 0, 0, 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.partitions, s.rows, s.pages, s.maxDepth, s.mergeFallbacks
}

// spillEvent records a spill trace event (visible in EXPLAIN ANALYZE).
func (ctx *Context) spillEvent(kind, format string, args ...any) {
	if ctx.Trace != nil {
		ctx.Trace.Event(kind, fmt.Sprintf(format, args...))
	}
}

// ---------- partitioned (grace/hybrid) hash join ----------

// spillJoin is the spill core of the hash join (the spilling form of a
// joinTable), shared by the row-at-a-time, vectorized, morsel-parallel and
// sharded operators alike so every path stays charge- and result-identical
// under pressure. Probe rows whose partition is resident are answered
// immediately (preserving the streaming probe order), the rest are deferred
// to probe runs and joined when finish replays the spilled partitions.
type spillJoin struct {
	ctx      *Context
	kern     *joinKernel
	node     *plan.JoinNode
	depth    int
	fanout   int
	table    map[uint64][]types.Row // resident partitions' build rows
	resident []bool
	bruns    []*storage.TempRun // spilled build partitions
	pruns    []*storage.TempRun // deferred probe rows, same partitioning
}

// newSpillJoin partitions the drained build side under the given grant
// (already obtained — and kept — by the caller's joinTable).
func newSpillJoin(ctx *Context, k *joinKernel, node *plan.JoinNode, build []types.Row, grant, depth int) *spillJoin {
	s := &spillJoin{
		ctx:    ctx,
		kern:   k,
		node:   node,
		depth:  depth,
		fanout: spillFanout(len(build)),
	}
	parts := make([][]types.Row, s.fanout)
	ckey := make([]types.Value, len(node.RightKeys))
	for _, r := range build {
		keyInto(ckey, r, node.RightKeys)
		if keyHasNull(ckey) {
			continue // a null key matches nothing on either join type
		}
		p := spillPartOf(types.HashRow(ckey), depth, s.fanout)
		parts[p] = append(parts[p], r)
	}
	// Keep the longest prefix of partitions that fits the grant resident;
	// spill the rest. Residency depends on the grant only through this
	// cutoff, so a bigger budget spills a subset of the partitions a smaller
	// one does (monotone degradation).
	s.resident = make([]bool, s.fanout)
	s.bruns = make([]*storage.TempRun, s.fanout)
	s.pruns = make([]*storage.TempRun, s.fanout)
	s.table = map[uint64][]types.Row{}
	residentRows, spilledParts, spilledRows, spilledPages := 0, 0, 0, 0
	for p, rows := range parts {
		if residentRows+len(rows) <= grant {
			s.resident[p] = true
			residentRows += len(rows)
			for _, r := range rows {
				h, _ := k.insert(ctx.Clock, ckey, r) // keys are non-null here
				s.table[h] = append(s.table[h], r)
			}
			continue
		}
		run := storage.NewTempRun()
		for _, r := range rows {
			run.Append(ctx.Clock, r)
		}
		s.bruns[p] = run
		s.pruns[p] = storage.NewTempRun()
		spilledParts++
		spilledRows += run.Len()
		spilledPages += run.Pages()
	}
	ctx.Spill.record(spilledParts, spilledRows, spilledPages, depth)
	ctx.spillEvent("spill.partition", "%s depth=%d fanout=%d resident=%d/%d spilled_rows=%d pages=%d grant=%d",
		node.Label(), depth, s.fanout, s.fanout-spilledParts, s.fanout, spilledRows, spilledPages, grant)
	return s
}

// probe is joinTable.lookup for a spilling table: the bucket of a resident
// partition, or deferral of lr (cloned) to its partition's probe run,
// charging only the page writes.
func (s *spillJoin) probe(lr types.Row, key []types.Value) (bucket []types.Row, deferred bool) {
	h := types.HashRow(key)
	p := spillPartOf(h, s.depth, s.fanout)
	if s.resident[p] {
		return s.table[h], false
	}
	run := s.pruns[p]
	pagesBefore := run.Pages()
	run.Append(s.ctx.Clock, lr.Clone())
	s.ctx.Spill.record(0, 1, run.Pages()-pagesBefore, s.depth)
	return nil, true
}

// finish replays the spilled partition pairs in partition order, handing
// every joined (and, for left-outer, null-extended) output row to emit.
// Partitions with no deferred probe rows are discarded unread — no probe
// row can match them (and left-outer null extension concerns only probe
// rows, which were all answered or deferred).
func (s *spillJoin) finish(emit func(types.Row) error) error {
	for p := 0; p < s.fanout; p++ {
		if s.resident[p] {
			continue
		}
		if s.pruns[p].Len() == 0 {
			s.bruns[p].Discard()
			continue
		}
		build := s.bruns[p].Drain(s.ctx.Clock)
		probe := s.pruns[p].Drain(s.ctx.Clock)
		if err := joinPartition(s.ctx, s.kern, s.node, build, probe, s.depth+1, emit); err != nil {
			return err
		}
	}
	return nil
}

// close frees the resident table and any remaining runs. The caller owns
// (and releases) the grant backing the resident table.
func (s *spillJoin) close() {
	s.table = nil
	for p := range s.bruns {
		if s.bruns[p] != nil {
			s.bruns[p].Discard()
		}
		if s.pruns[p] != nil {
			s.pruns[p].Discard()
		}
	}
	s.bruns, s.pruns = nil, nil
}

// joinPartition joins one spilled (build, probe) partition pair through a
// joinTable — resident when the grant covers the build, repartitioned
// recursively otherwise — and by external sort-merge once the recursion
// bound is hit. Charges are the kernel's (insert = 2 probes per build row,
// 1 probe per probe row, 1 row of CPU per emitted row) plus the temp-run
// I/O charged where rows actually move. emit's row is valid until the next
// call, as for joinKernel.probe.
func joinPartition(ctx *Context, k *joinKernel, node *plan.JoinNode, build, probe []types.Row, depth int, emit func(types.Row) error) error {
	grant := ctx.Mem.Grant(len(build))
	if len(build) > grant && depth > maxSpillDepth {
		defer ctx.Mem.Release(grant)
		return mergeJoinSpilled(ctx, k, node, build, probe, emit)
	}
	t := newJoinTable(ctx, k, node, build, grant, depth)
	defer t.close(ctx.Mem)
	st := k.newScratch()
	for _, lr := range probe {
		ctx.Clock.Probes(1)
		if err := k.probe(ctx.Clock, st, t, lr, emit); err != nil {
			return err
		}
	}
	return t.finish(emit)
}

// mergeJoinSpilled is the external sort-merge fallback for a partition that
// will not fit even after maxSpillDepth repartitionings (duplicate-key
// skew). Both sides sort in grant-sized runs (comparisons charged like
// sortRows, one write+read pass over both sides for the runs), then merge
// in streaming fashion, each key group through the kernel's match step and
// outer extension. A duplicate-key group on the build side is buffered
// during the merge, as in the in-memory merge join.
func mergeJoinSpilled(ctx *Context, k *joinKernel, node *plan.JoinNode, build, probe []types.Row, emit func(types.Row) error) error {
	ctx.Spill.fallback()
	ctx.spillEvent("spill.merge_fallback", "%s build=%d probe=%d", node.Label(), len(build), len(probe))
	pages := (len(build)+storage.PageRows-1)/storage.PageRows +
		(len(probe)+storage.PageRows-1)/storage.PageRows
	ctx.Clock.Write(pages)
	ctx.Clock.SeqRead(pages)
	sortRows(ctx, probe, node.LeftKeys)
	sortRows(ctx, build, node.RightKeys)
	st := k.newScratch()
	ri := 0
	var group []types.Row
	for _, lr := range probe {
		keyInto(st.key, lr, node.LeftKeys)
		matched := false
		if !keyHasNull(st.key) {
			for ri < len(build) {
				ctx.Clock.Compares(1)
				rk := keyOf(build[ri], node.RightKeys)
				if keyHasNull(rk) || compareKeys(rk, st.key) < 0 {
					ri++
					continue
				}
				break
			}
			group = group[:0]
			for j := ri; j < len(build); j++ {
				ctx.Clock.Compares(1)
				if compareKeys(keyOf(build[j], node.RightKeys), st.key) != 0 {
					break
				}
				group = append(group, build[j])
			}
			for _, cand := range group {
				ok, err := k.match(ctx.Clock, st, lr, cand)
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
		}
		if k.outer && !matched {
			if err := emit(k.extend(ctx.Clock, st, lr)); err != nil {
				return err
			}
		}
	}
	return nil
}

// ---------- spilling hash aggregation ----------

// aggSink is the shared grouping state of the serial and vectorized hash
// aggregations: resident groups up to the broker's grant, input rows for
// groups beyond it spilled to hash partitions that finish re-aggregates
// recursively. Both paths feed rows in the same (serial) input order, so
// the trigger point, the partition contents and every charge are identical
// between them. A group is either entirely resident or entirely spilled:
// rows of a key seen before the table filled keep accumulating in place.
type aggSink struct {
	ctx      *Context
	node     *plan.AggNode
	depth    int
	grant    int
	part     *aggPartial
	runs     []*storage.TempRun
	spilling bool
}

// newAggSink obtains a group-state grant from the broker (asking for the
// whole budget, like the external sort) and prepares the resident table.
func newAggSink(ctx *Context, node *plan.AggNode, depth int) *aggSink {
	return &aggSink{
		ctx:   ctx,
		node:  node,
		depth: depth,
		grant: ctx.Mem.Grant(1 << 20),
		part:  newAggPartial(),
	}
}

// add routes one input row: accumulate into its (existing or newly created)
// resident group, or spill the row to its key partition when the resident
// table is full and the key is new. accum folds the row into a group — the
// caller chooses interpreted or compiled accumulation. The caller charges
// its per-input-row probe itself. r must remain valid until accum returns;
// spilled rows are cloned.
func (s *aggSink) add(key []types.Value, r types.Row, accum func(*group) error) error {
	h := types.HashRow(key)
	if g := s.part.find(key, h); g != nil {
		return accum(g)
	}
	if len(s.part.order) < s.grant {
		return accum(s.part.add(newGroup(key, len(s.node.Aggs)), h))
	}
	if !s.spilling {
		s.spilling = true
		s.runs = make([]*storage.TempRun, aggSpillFanout)
		for p := range s.runs {
			s.runs[p] = storage.NewTempRun()
		}
		s.ctx.Spill.record(aggSpillFanout, 0, 0, s.depth)
		s.ctx.spillEvent("spill.agg", "%s depth=%d resident_groups=%d fanout=%d grant=%d",
			s.node.Label(), s.depth, len(s.part.order), aggSpillFanout, s.grant)
	}
	p := spillPartOf(h, s.depth, aggSpillFanout)
	run := s.runs[p]
	pagesBefore := run.Pages()
	run.Append(s.ctx.Clock, r.Clone())
	s.ctx.Spill.record(0, 1, run.Pages()-pagesBefore, s.depth)
	return nil
}

// finish releases the group-state grant and re-aggregates the spilled
// partitions: recursively through a sub-sink while depth remains, by
// sort-and-stream beyond it (sorting on the group key lets groups complete
// one at a time in O(1) group state — the aggregation analogue of the
// sort-merge join fallback). Returns every group, resident first, then
// partition by partition; callers sort groups on the key afterwards, so
// output order is independent of the spill pattern.
func (s *aggSink) finish() ([]*group, error) {
	out := s.part.order
	s.ctx.Mem.Release(s.grant)
	s.grant = 0
	if !s.spilling {
		return out, nil
	}
	for _, run := range s.runs {
		if run.Len() == 0 {
			continue
		}
		rows := run.Drain(s.ctx.Clock)
		if s.depth+1 > maxSpillDepth {
			gs, err := s.sortedAggregate(rows)
			if err != nil {
				return nil, err
			}
			out = append(out, gs...)
			continue
		}
		// Re-aggregation interprets on every path: the compiled forms are
		// bit-identical, so the recursion need not know which one fed it.
		sub := newAggSink(s.ctx, s.node, s.depth+1)
		key := make([]types.Value, len(s.node.GroupExprs))
		for _, r := range rows {
			s.ctx.Clock.Probes(1) // the re-aggregation probe
			if err := evalExprs(key, s.node.GroupExprs, r, s.ctx.Params); err != nil {
				return nil, err
			}
			if err := sub.add(key, r, func(g *group) error {
				return accumGroup(g, s.node, r, s.ctx.Params)
			}); err != nil {
				return nil, err
			}
		}
		gs, err := sub.finish()
		if err != nil {
			return nil, err
		}
		out = append(out, gs...)
	}
	s.runs = nil
	return out, nil
}

// sortedAggregate is the fallback for a partition still too large at the
// recursion bound: sort the rows on the group key (comparisons charged like
// any sort), then stream-aggregate with one comparison per row — group
// state never exceeds one group regardless of partition size.
func (s *aggSink) sortedAggregate(rows []types.Row) ([]*group, error) {
	s.ctx.Spill.fallback()
	s.ctx.spillEvent("spill.merge_fallback", "%s rows=%d", s.node.Label(), len(rows))
	keys := make([][]types.Value, len(rows))
	for i, r := range rows {
		k := make([]types.Value, len(s.node.GroupExprs))
		if err := evalExprs(k, s.node.GroupExprs, r, s.ctx.Params); err != nil {
			return nil, err
		}
		keys[i] = k
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	n := len(rows)
	if n > 1 {
		s.ctx.Clock.Compares(int(float64(n) * log2(float64(n))))
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return compareKeys(keys[idx[a]], keys[idx[b]]) < 0
	})
	var out []*group
	var cur *group
	for _, i := range idx {
		s.ctx.Clock.Compares(1)
		if cur == nil || !rowsEqual(cur.key, keys[i]) {
			cur = &group{key: keys[i], states: make([]aggState, len(s.node.Aggs))}
			out = append(out, cur)
		}
		if err := accumGroup(cur, s.node, rows[i], s.ctx.Params); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// close discards any remaining runs and returns the grant (finish normally
// does both; close covers error paths).
func (s *aggSink) close() {
	if s.grant > 0 {
		s.ctx.Mem.Release(s.grant)
		s.grant = 0
	}
	for _, run := range s.runs {
		if run != nil {
			run.Discard()
		}
	}
	s.runs = nil
}
