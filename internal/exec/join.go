package exec

import (
	"fmt"
	"sort"

	"rqp/internal/expr"
	"rqp/internal/index"
	"rqp/internal/plan"
	"rqp/internal/storage"
	"rqp/internal/types"
)

func buildJoin(node *plan.JoinNode, l, r Operator, ctx *Context) (Operator, error) {
	switch node.Alg {
	case plan.JoinHash:
		return &hashJoin{ctx: ctx, node: node, left: l, right: r}, nil
	case plan.JoinMerge:
		return &mergeJoin{ctx: ctx, node: node, left: l, right: r}, nil
	case plan.JoinNL:
		return &nlJoin{ctx: ctx, node: node, left: l, right: r}, nil
	case plan.JoinSymHash:
		return &symHashJoin{ctx: ctx, node: node, left: l, right: r}, nil
	case plan.JoinGeneral:
		return &gJoin{ctx: ctx, node: node, left: l, right: r}, nil
	}
	return nil, fmt.Errorf("exec: join algorithm %v not executable", node.Alg)
}

func drain(op Operator) ([]types.Row, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	var out []types.Row
	for {
		r, ok, err := op.Next()
		if err != nil {
			op.Close()
			return nil, err
		}
		if !ok {
			break
		}
		out = append(out, r.Clone())
	}
	return out, op.Close()
}

func keyOf(r types.Row, cols []int) []types.Value {
	k := make([]types.Value, len(cols))
	keyInto(k, r, cols)
	return k
}

// keyInto fills dst (len(cols)) with r's key columns, sparing hot paths the
// per-row allocation of keyOf.
func keyInto(dst []types.Value, r types.Row, cols []int) {
	for i, c := range cols {
		dst[i] = r[c]
	}
}

func keysEqual(a, b []types.Value) bool {
	for i := range a {
		if a[i].IsNull() || b[i].IsNull() || !types.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func keyHasNull(k []types.Value) bool {
	for _, v := range k {
		if v.IsNull() {
			return true
		}
	}
	return false
}

// joinResidual is the accept/charge step of the row-only joins (nested-loop,
// merge, symmetric-hash, generalized and index nested-loop): evaluate the
// residual (if any) over the assembled output row and charge the per-row
// work only for survivors. The hash joins run the same rule as the kernel's
// match step (hashjoin.go).
func joinResidual(clk *storage.Clock, params []types.Value, residual expr.Expr, out types.Row) (bool, error) {
	if residual != nil {
		ok, err := expr.EvalPredicate(residual, out, params)
		if err != nil || !ok {
			return false, err
		}
	}
	clk.RowWork(1)
	return true, nil
}

// emitJoined evaluates the residual and assembles the output row.
func emitJoined(ctx *Context, node *plan.JoinNode, l, r types.Row) (types.Row, bool, error) {
	out := types.Concat(l, r)
	ok, err := joinResidual(ctx.Clock, ctx.Params, node.Residual, out)
	if err != nil || !ok {
		return nil, false, err
	}
	return out, true, nil
}

func nullRow(n int) types.Row {
	out := make(types.Row, n)
	for i := range out {
		out[i] = types.Null()
	}
	return out
}

// ---------- nested-loop join ----------

// nlJoin materializes the right input once and loops it per left row.
type nlJoin struct {
	ctx   *Context
	node  *plan.JoinNode
	left  Operator
	right Operator

	inner   []types.Row
	lrow    types.Row
	matched bool
	ipos    int
	lDone   bool
}

func (j *nlJoin) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	inner, err := drain(j.right)
	if err != nil {
		return err
	}
	j.inner = inner
	j.ctx.Clock.RowWork(len(inner))
	j.lrow = nil
	j.lDone = false
	return nil
}

func (j *nlJoin) Next() (types.Row, bool, error) {
	for {
		if j.lrow == nil {
			if j.lDone {
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
			j.ipos = 0
		}
		for j.ipos < len(j.inner) {
			r := j.inner[j.ipos]
			j.ipos++
			j.ctx.Clock.Compares(1)
			// Equi keys (if any) are evaluated like any other predicate here.
			if len(j.node.LeftKeys) > 0 {
				if !keysEqual(keyOf(j.lrow, j.node.LeftKeys), keyOf(r, j.node.RightKeys)) {
					continue
				}
			}
			out, ok, err := emitJoined(j.ctx, j.node, j.lrow, r)
			if err != nil {
				return nil, false, err
			}
			if ok {
				j.matched = true
				return out, true, nil
			}
		}
		if j.node.Type == plan.LeftOuter && !j.matched {
			out := types.Concat(j.lrow, nullRow(len(j.node.Kids[1].Schema())))
			j.lrow = nil
			j.ctx.Clock.RowWork(1)
			return out, true, nil
		}
		j.lrow = nil
	}
}

func (j *nlJoin) Close() error {
	j.inner = nil
	return j.left.Close()
}

// ---------- merge join ----------

// mergeJoin sorts both inputs on the join keys and merges. Duplicate key
// groups on the right are buffered and replayed.
type mergeJoin struct {
	ctx   *Context
	node  *plan.JoinNode
	left  Operator
	right Operator

	lrows, rrows []types.Row
	li, ri       int
	group        []types.Row
	gi           int
	lrow         types.Row
}

func (j *mergeJoin) Open() error {
	lrows, err := drain(j.left)
	if err != nil {
		return err
	}
	rrows, err := drain(j.right)
	if err != nil {
		return err
	}
	sortRows(j.ctx, lrows, j.node.LeftKeys)
	sortRows(j.ctx, rrows, j.node.RightKeys)
	j.lrows, j.rrows = lrows, rrows
	j.li, j.ri = 0, 0
	j.group = nil
	return nil
}

func compareKeys(a, b []types.Value) int {
	for i := range a {
		if c := types.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

func sortRows(ctx *Context, rows []types.Row, keys []int) {
	n := len(rows)
	if n > 1 {
		ctx.Clock.Compares(int(float64(n) * log2(float64(n))))
	}
	sort.SliceStable(rows, func(i, k int) bool {
		return compareKeys(keyOf(rows[i], keys), keyOf(rows[k], keys)) < 0
	})
}

func log2(x float64) float64 {
	n := 0.0
	for x > 1 {
		x /= 2
		n++
	}
	return n
}

func (j *mergeJoin) Next() (types.Row, bool, error) {
	for {
		if j.gi < len(j.group) {
			r := j.group[j.gi]
			j.gi++
			out, ok, err := emitJoined(j.ctx, j.node, j.lrow, r)
			if err != nil {
				return nil, false, err
			}
			if ok {
				return out, true, nil
			}
			continue
		}
		if j.li >= len(j.lrows) {
			return nil, false, nil
		}
		lk := keyOf(j.lrows[j.li], j.node.LeftKeys)
		if keyHasNull(lk) {
			j.li++
			continue
		}
		// advance right to lk
		for j.ri < len(j.rrows) {
			j.ctx.Clock.Compares(1)
			rk := keyOf(j.rrows[j.ri], j.node.RightKeys)
			if keyHasNull(rk) || compareKeys(rk, lk) < 0 {
				j.ri++
				continue
			}
			break
		}
		// collect matching group
		j.group = j.group[:0]
		for k := j.ri; k < len(j.rrows); k++ {
			j.ctx.Clock.Compares(1)
			if compareKeys(keyOf(j.rrows[k], j.node.RightKeys), lk) != 0 {
				break
			}
			j.group = append(j.group, j.rrows[k])
		}
		j.gi = 0
		j.lrow = j.lrows[j.li]
		j.li++
		if len(j.group) == 0 {
			// No match: next left row (which may share the key prefix and
			// reuse the same right position).
			continue
		}
	}
}

func (j *mergeJoin) Close() error {
	j.lrows, j.rrows, j.group = nil, nil, nil
	return nil
}

// ---------- symmetric hash join ----------

// symHashJoin builds hash tables on both inputs and produces results
// incrementally as either side arrives — the pipelined operator that makes
// mid-flight adaptation cheap (no build/probe commitment).
type symHashJoin struct {
	ctx   *Context
	node  *plan.JoinNode
	left  Operator
	right Operator

	ltab, rtab map[uint64][]types.Row
	out        []types.Row
	pos        int
}

func (j *symHashJoin) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	if err := j.right.Open(); err != nil {
		return err
	}
	j.ltab = map[uint64][]types.Row{}
	j.rtab = map[uint64][]types.Row{}
	j.out = nil
	j.pos = 0
	// Alternate pulls between inputs, emitting matches as they form.
	lDone, rDone := false, false
	for !lDone || !rDone {
		if !lDone {
			r, ok, err := j.left.Next()
			if err != nil {
				return err
			}
			if !ok {
				lDone = true
			} else if err := j.insert(r.Clone(), true); err != nil {
				return err
			}
		}
		if !rDone {
			r, ok, err := j.right.Next()
			if err != nil {
				return err
			}
			if !ok {
				rDone = true
			} else if err := j.insert(r.Clone(), false); err != nil {
				return err
			}
		}
	}
	return nil
}

func (j *symHashJoin) insert(r types.Row, fromLeft bool) error {
	j.ctx.Clock.Probes(2) // insert + probe
	var myKeys, otherKeys []int
	var myTab, otherTab map[uint64][]types.Row
	if fromLeft {
		myKeys, otherKeys = j.node.LeftKeys, j.node.RightKeys
		myTab, otherTab = j.ltab, j.rtab
	} else {
		myKeys, otherKeys = j.node.RightKeys, j.node.LeftKeys
		myTab, otherTab = j.rtab, j.ltab
	}
	k := keyOf(r, myKeys)
	if keyHasNull(k) {
		return nil
	}
	h := types.HashRow(k)
	myTab[h] = append(myTab[h], r)
	for _, cand := range otherTab[h] {
		if !keysEqual(k, keyOf(cand, otherKeys)) {
			continue
		}
		var l, rr types.Row
		if fromLeft {
			l, rr = r, cand
		} else {
			l, rr = cand, r
		}
		out, ok, err := emitJoined(j.ctx, j.node, l, rr)
		if err != nil {
			return err
		}
		if ok {
			j.out = append(j.out, out)
		}
	}
	return nil
}

func (j *symHashJoin) Next() (types.Row, bool, error) {
	if j.pos >= len(j.out) {
		return nil, false, nil
	}
	r := j.out[j.pos]
	j.pos++
	return r, true, nil
}

func (j *symHashJoin) Close() error {
	j.ltab, j.rtab, j.out = nil, nil, nil
	j.left.Close()
	return j.right.Close()
}

// ---------- generalized join ----------

// gJoin is Graefe's generalized join: one algorithm replacing hash, merge
// and (index) nested-loop join. It consumes the smaller input; if it fits
// the memory grant it builds a temporary in-memory index and probes
// (hash-join-like); otherwise it partitions both inputs into grant-sized
// runs (charging spill I/O) and joins run by run — degrading smoothly
// instead of falling off the nested-loops cliff when the size estimate was
// wrong.
type gJoin struct {
	ctx   *Context
	node  *plan.JoinNode
	left  Operator
	right Operator

	out []types.Row
	pos int
}

func (j *gJoin) Open() error {
	lrows, err := drain(j.left)
	if err != nil {
		return err
	}
	rrows, err := drain(j.right)
	if err != nil {
		return err
	}
	small, large := rrows, lrows
	smallKeys, largeKeys := j.node.RightKeys, j.node.LeftKeys
	smallIsRight := true
	if len(lrows) < len(rrows) {
		small, large = lrows, rrows
		smallKeys, largeKeys = j.node.LeftKeys, j.node.RightKeys
		smallIsRight = false
	}
	grant := j.ctx.Mem.Grant(len(small))
	defer j.ctx.Mem.Release(grant)

	emit := func(l, r types.Row) error {
		out, ok, err := emitJoined(j.ctx, j.node, l, r)
		if err != nil {
			return err
		}
		if ok {
			j.out = append(j.out, out)
		}
		return nil
	}
	pair := func(s, g types.Row) error {
		if smallIsRight {
			return emit(g, s)
		}
		return emit(s, g)
	}

	inMemory := func(sm, lg []types.Row) error {
		tab := make(map[uint64][]types.Row, len(sm))
		for _, r := range sm {
			j.ctx.Clock.Probes(1)
			k := keyOf(r, smallKeys)
			if keyHasNull(k) {
				continue
			}
			tab[types.HashRow(k)] = append(tab[types.HashRow(k)], r)
		}
		for _, g := range lg {
			j.ctx.Clock.Probes(1)
			k := keyOf(g, largeKeys)
			if keyHasNull(k) {
				continue
			}
			for _, s := range tab[types.HashRow(k)] {
				if keysEqual(k, keyOf(s, smallKeys)) {
					if err := pair(s, g); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}

	if len(small) <= grant {
		// In-memory phase: temporary index on the small input.
		return inMemory(small, large)
	}
	// Out-of-memory phase: partition both inputs into grant-sized runs by
	// key hash (one write+read pass over both), then join run pairs in
	// memory — the smooth degradation that replaces the NL cliff.
	if grant < 16 {
		grant = 16
	}
	parts := (len(small) + grant - 1) / grant
	spill := (len(small) + len(large) + storage.PageRows - 1) / storage.PageRows
	j.ctx.Clock.Write(spill)
	j.ctx.Clock.SeqRead(spill)
	smallParts := make([][]types.Row, parts)
	largeParts := make([][]types.Row, parts)
	for _, r := range small {
		k := keyOf(r, smallKeys)
		if keyHasNull(k) {
			continue
		}
		p := int(types.HashRow(k) % uint64(parts))
		smallParts[p] = append(smallParts[p], r)
	}
	for _, g := range large {
		k := keyOf(g, largeKeys)
		if keyHasNull(k) {
			continue
		}
		p := int(types.HashRow(k) % uint64(parts))
		largeParts[p] = append(largeParts[p], g)
	}
	for p := 0; p < parts; p++ {
		if err := inMemory(smallParts[p], largeParts[p]); err != nil {
			return err
		}
	}
	return nil
}

func (j *gJoin) Next() (types.Row, bool, error) {
	if j.pos >= len(j.out) {
		return nil, false, nil
	}
	r := j.out[j.pos]
	j.pos++
	return r, true, nil
}

func (j *gJoin) Close() error {
	j.out = nil
	return nil
}

// ---------- index nested-loop join ----------

// indexNLJoin probes a persistent B+ tree per outer row.
type indexNLJoin struct {
	ctx  *Context
	node *plan.IndexJoinNode
	left Operator

	lrow    types.Row
	matches []types.Row
	midx    int
	matched bool
	lDone   bool
}

func (j *indexNLJoin) Open() error {
	j.lDone = false
	j.lrow = nil
	return j.left.Open()
}

func (j *indexNLJoin) Next() (types.Row, bool, error) {
	for {
		for j.midx < len(j.matches) {
			r := j.matches[j.midx]
			j.midx++
			out := types.Concat(j.lrow, r)
			ok, err := joinResidual(j.ctx.Clock, j.ctx.Params, j.node.Residual, out)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				continue
			}
			j.matched = true
			return out, true, nil
		}
		if j.lrow != nil && j.node.Type == plan.LeftOuter && !j.matched {
			out := types.Concat(j.lrow, nullRow(len(j.node.Table.Schema)))
			j.lrow = nil
			j.ctx.Clock.RowWork(1)
			return out, true, nil
		}
		if j.lDone {
			return nil, false, nil
		}
		lr, ok, err := j.left.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			j.lDone = true
			j.lrow = nil
			continue
		}
		j.lrow = lr.Clone()
		j.matched = false
		j.matches = j.matches[:0]
		j.midx = 0
		key := keyOf(j.lrow, j.node.LeftKeys)
		if keyHasNull(key) {
			continue
		}
		j.node.Index.Tree.Lookup(j.ctx.Clock, key, func(e index.Entry) bool {
			if r, ok := j.node.Table.Heap.Get(j.ctx.Clock, e.RID); ok {
				j.matches = append(j.matches, r)
			}
			return true
		})
	}
}

func (j *indexNLJoin) Close() error {
	j.matches = nil
	return j.left.Close()
}
