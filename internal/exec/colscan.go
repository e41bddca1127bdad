package exec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rqp/internal/expr"
	"rqp/internal/plan"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// Columnar scan execution. All three variants — row-at-a-time (colScan),
// vectorized (batchColScan) and morsel-parallel (morselSource.feed's columnar
// branch) — share one block core, colScanner.scanBlock, so they issue the
// identical multiset of clock charges per block:
//
//	ZoneCheck(1)       per consulted pruning source (each pushed col⋈const
//	                   conjunct in order, then each enabled bounded runtime
//	                   filter), short-circuiting on the first prune;
//	SeqRead(span)      per referenced column of a surviving block;
//	FilterTest(units)  per pushed conjunct, where units is the block's
//	                   encoded evaluation work (run count for RLE blocks);
//	rf admission + RowWork(1) per row surviving the encoded filters, with
//	                   the residual predicate folded into that charge.
//
// A skipped block charges nothing beyond its zone checks, which is where the
// columnar speedup at low selectivity comes from.
type colScanner struct {
	ctx  *Context
	node *plan.ScanNode
	cs   *storage.ColumnStore
	rf   *rfConsumer

	need        []int       // columns to decode, always non-nil and sorted
	pushed      []pushedCmp // col ⋈ const conjuncts evaluated on encoded blocks
	alwaysFalse bool        // a conjunct compares against NULL: nothing matches
	residual    *expr.Pred  // compiled conjuncts that could not be pushed
}

// pushedCmp is one col ⋈ const conjunct lowered onto the column store.
type pushedCmp struct {
	col int
	op  storage.CmpOp
	v   types.Value
}

// colScannerFor builds the shared columnar scan core for a scan node, or
// returns nil when the node is not columnar or the table's snapshot has been
// invalidated by DML since planning (callers then fall back to the heap,
// which is always correct). The returned scanner is read-only after
// construction and safe for concurrent scanBlock calls.
func colScannerFor(ctx *Context, node *plan.ScanNode, rf *rfConsumer) *colScanner {
	if !node.Columnar {
		return nil
	}
	cs := node.Table.Col()
	if cs == nil {
		return nil
	}
	c := &colScanner{ctx: ctx, node: node, cs: cs, rf: rf}
	var rest []expr.Expr
	for _, cj := range expr.Conjuncts(node.Filter) {
		col, op, v, ok := expr.SplitColConst(cj, ctx.Params)
		if ok && col >= 0 && col < cs.NumCols() {
			if v.IsNull() {
				// col ⋈ NULL is never true, so the conjunction — and with it
				// the whole scan — is empty.
				c.alwaysFalse = true
				continue
			}
			if cop, ok2 := storageCmpOp(op); ok2 {
				c.pushed = append(c.pushed, pushedCmp{col: col, op: cop, v: v})
				continue
			}
		}
		rest = append(rest, cj)
	}
	c.residual = compilePred(expr.AndAll(rest))
	if node.NeedCols != nil {
		c.need = node.NeedCols
	} else {
		c.need = make([]int, cs.NumCols())
		for i := range c.need {
			c.need[i] = i
		}
	}
	return c
}

// storageCmpOp maps an expression comparison operator onto the storage
// layer's CmpOp.
func storageCmpOp(op expr.Op) (storage.CmpOp, bool) {
	switch op {
	case expr.OpEQ:
		return storage.CmpEQ, true
	case expr.OpNE:
		return storage.CmpNE, true
	case expr.OpLT:
		return storage.CmpLT, true
	case expr.OpLE:
		return storage.CmpLE, true
	case expr.OpGT:
		return storage.CmpGT, true
	case expr.OpGE:
		return storage.CmpGE, true
	}
	return 0, false
}

// scanGeometry returns the morsel count and heap page count for a scan:
// columnar scans use one morsel per column block (pages are irrelevant —
// I/O is charged per block inside scanBlock), heap scans one morsel per
// MorselPages pages. col is the scan's columnar core (nil for heap scans),
// resolved once by the caller so geometry and execution agree on the same
// snapshot.
func scanGeometry(node *plan.ScanNode, col *colScanner) (nmorsels, npages int) {
	if col != nil {
		return col.cs.NumBlocks(), 0
	}
	np := node.Table.Heap.NumPages()
	return morselCount(np, MorselPages), np
}

// skip records one pruned block: the metrics counter, and a trace event when
// tracing is on.
func (c *colScanner) skip(b int, why string) {
	atomic.AddInt64(&c.ctx.ColBlocksSkipped, 1)
	if c.ctx.Trace != nil {
		c.ctx.Trace.Event("columnar.skip", fmt.Sprintf("block=%d cause=%s", b, why))
	}
}

// scanBlock processes block b, charging clk per the contract above and
// handing surviving rows to emit. Emitted rows are freshly materialized
// (never reused), so callers may buffer them without cloning. Safe for
// concurrent use across blocks: all per-call scratch is pooled or local.
func (c *colScanner) scanBlock(b int, clk *storage.Clock, emit func(types.Row) error) error {
	if c.alwaysFalse {
		clk.ZoneChecks(1)
		c.skip(b, "const")
		return nil
	}
	for i := range c.pushed {
		p := &c.pushed[i]
		clk.ZoneChecks(1)
		if c.cs.ZonePrune(p.col, b, p.op, p.v) {
			c.skip(b, "zone")
			return nil
		}
	}
	if c.rf != nil {
		for i, f := range c.rf.filters {
			if !f.enabled() || !f.bounded {
				continue
			}
			clk.ZoneChecks(1)
			zmin, zmax, ok := c.cs.Zone(c.rf.cols[i], b)
			if !ok || types.Compare(zmax, f.min) < 0 || types.Compare(zmin, f.max) > 0 {
				c.skip(b, "rf")
				return nil
			}
		}
	}
	nrows := c.cs.BlockRows(b)
	for _, col := range c.need {
		clk.SeqRead(c.cs.PageSpan(col, b))
	}
	keep := getColKeep(nrows)
	defer putColKeep(keep)
	for i := range c.pushed {
		p := &c.pushed[i]
		clk.FilterTestsBatch(c.cs.EvalUnits(p.col, b))
		c.cs.EvalBlock(p.col, b, p.op, p.v, keep)
	}
	atomic.AddInt64(&c.ctx.ColBlocksScanned, 1)
	if c.ctx.Trace != nil {
		c.ctx.Trace.Event("columnar.decode", fmt.Sprintf("block=%d rows=%d cols=%d", b, nrows, len(c.need)))
	}
	survivors := 0
	for _, k := range keep {
		if k {
			survivors++
		}
	}
	if survivors == 0 {
		return nil
	}
	bufs := make([][]types.Value, len(c.need))
	for i, col := range c.need {
		bufs[i] = getColVals(nrows)
		c.cs.Decode(col, b, bufs[i])
	}
	defer func() {
		for _, buf := range bufs {
			putColVals(buf)
		}
	}()
	w := c.cs.NumCols()
	slab := make([]types.Value, survivors*w)
	if len(c.need) < w {
		// Unreferenced columns stay NULL — safe exactly because MarkColumnRefs
		// proved nothing above the scan reads them.
		nullv := types.Null()
		for i := range slab {
			slab[i] = nullv
		}
	}
	off := 0
	for i := 0; i < nrows; i++ {
		if !keep[i] {
			continue
		}
		row := types.Row(slab[off : off+w : off+w])
		off += w
		for j, col := range c.need {
			row[col] = bufs[j][i]
		}
		// Runtime-filter rejects pay only the membership test, never the full
		// per-row charge — same admission order as the heap scans.
		if c.rf != nil && !c.rf.admit(clk, row) {
			continue
		}
		clk.RowWork(1)
		if c.residual != nil {
			ok, err := c.residual.Eval(row, c.ctx.Params)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
		}
		if err := emit(row); err != nil {
			return err
		}
	}
	return nil
}

// ---------- scratch pools ----------

var colKeepPool = sync.Pool{New: func() any { return []bool(nil) }}

func getColKeep(n int) []bool {
	s, _ := colKeepPool.Get().([]bool)
	if cap(s) < n {
		s = make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = true
	}
	return s
}

func putColKeep(s []bool) { colKeepPool.Put(s[:0]) } //nolint:staticcheck // slice header boxing is fine here

var colValsPool = sync.Pool{New: func() any { return []types.Value(nil) }}

func getColVals(n int) []types.Value {
	s, _ := colValsPool.Get().([]types.Value)
	if cap(s) < n {
		s = make([]types.Value, n)
	}
	return s[:n]
}

func putColVals(s []types.Value) {
	s = s[:cap(s)]
	clear(s) // don't let pooled memory pin decoded strings
	colValsPool.Put(s[:0])
}

// ---------- row variant ----------

// colScan is the row-at-a-time columnar scan: it drains one block at a time
// through the shared core into a buffer, mirroring seqScan's page-refill
// shape. When the columnar snapshot vanished between planning and Open (DML
// on a cached plan), it degrades to a plain heap scan — correct results,
// heap charges.
type colScan struct {
	ctx   *Context
	node  *plan.ScanNode
	sc    *colScanner
	heap  *seqScan // fallback when the snapshot is gone
	block int
	buf   []types.Row
	pos   int
}

func (s *colScan) Open() error {
	rf := bindRuntimeFilters(s.ctx, s.node.RFConsume)
	if sc := colScannerFor(s.ctx, s.node, rf); sc != nil {
		s.sc = sc
		s.heap = nil
		s.block = 0
		s.buf = s.buf[:0]
		s.pos = 0
		return nil
	}
	s.heap = &seqScan{ctx: s.ctx, node: s.node}
	return s.heap.Open()
}

func (s *colScan) Next() (types.Row, bool, error) {
	if s.heap != nil {
		return s.heap.Next()
	}
	for {
		if s.pos < len(s.buf) {
			r := s.buf[s.pos]
			s.pos++
			return r, true, nil
		}
		if s.block >= s.sc.cs.NumBlocks() {
			return nil, false, nil
		}
		s.buf = s.buf[:0]
		s.pos = 0
		b := s.block
		s.block++
		err := s.sc.scanBlock(b, s.ctx.Clock, func(r types.Row) error {
			s.buf = append(s.buf, r)
			return nil
		})
		if err != nil {
			return nil, false, err
		}
	}
}

func (s *colScan) Close() error {
	if s.heap != nil {
		return s.heap.Close()
	}
	s.buf = nil
	return nil
}

// ---------- batch variant ----------

// batchColScan is the vectorized columnar scan. A block (~4K rows) exceeds
// BatchRows, so each decoded block drains across several NextBatch calls in
// BatchRows chunks. Charges are issued per block inside the shared core —
// the identical multiset to colScan, which is what keeps row and vectorized
// columnar runs cost-identical.
type batchColScan struct {
	ctx   *Context
	node  *plan.ScanNode
	sc    *colScanner
	heap  *batchSeqScan // fallback when the snapshot is gone
	block int
	buf   []types.Row
	pos   int
}

func (s *batchColScan) Open() error {
	rf := bindRuntimeFilters(s.ctx, s.node.RFConsume)
	if sc := colScannerFor(s.ctx, s.node, rf); sc != nil {
		s.sc = sc
		s.heap = nil
		s.block = 0
		s.buf = s.buf[:0]
		s.pos = 0
		return nil
	}
	s.heap = &batchSeqScan{ctx: s.ctx, node: s.node}
	return s.heap.Open()
}

func (s *batchColScan) NextBatch(b *Batch) (int, error) {
	if s.heap != nil {
		return s.heap.NextBatch(b)
	}
	for {
		if s.pos < len(s.buf) {
			return chunkBatch(b, s.buf, &s.pos), nil
		}
		if s.block >= s.sc.cs.NumBlocks() {
			return 0, nil
		}
		s.buf = s.buf[:0]
		s.pos = 0
		blk := s.block
		s.block++
		err := s.sc.scanBlock(blk, s.ctx.Clock, func(r types.Row) error {
			s.buf = append(s.buf, r)
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
}

func (s *batchColScan) Close() error {
	if s.heap != nil {
		return s.heap.Close()
	}
	s.buf = nil
	return nil
}
