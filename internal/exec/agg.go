package exec

import (
	"slices"
	"sort"

	"rqp/internal/expr"
	"rqp/internal/plan"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// aggState accumulates one aggregate for one group. DISTINCT aggregates
// additionally dedup their inputs per group.
type aggState struct {
	count    int64
	sum      float64
	min      types.Value
	max      types.Value
	seen     bool
	distinct map[uint64][]types.Value
}

func (a *aggState) add(v types.Value, dedup bool) {
	if v.IsNull() {
		return
	}
	if dedup {
		if a.distinct == nil {
			a.distinct = map[uint64][]types.Value{}
		}
		h := v.Hash()
		for _, prev := range a.distinct[h] {
			if types.Equal(prev, v) {
				return
			}
		}
		a.distinct[h] = append(a.distinct[h], v)
	}
	a.count++
	if v.Numeric() {
		a.sum += v.AsFloat()
	}
	if !a.seen || types.Less(v, a.min) {
		a.min = v
	}
	if !a.seen || types.Less(a.max, v) {
		a.max = v
	}
	a.seen = true
}

// merge folds partial state b into a (parallel aggregation combines
// per-morsel partials at the gather barrier). DISTINCT partials replay
// their deduped values through add so cross-partial duplicates collapse;
// the values are replayed in sorted-hash order so the merged state is
// identical run to run.
func (a *aggState) merge(b *aggState, spec plan.AggSpec) {
	if spec.Distinct {
		hs := make([]uint64, 0, len(b.distinct))
		for h := range b.distinct {
			hs = append(hs, h)
		}
		slices.Sort(hs)
		for _, h := range hs {
			for _, v := range b.distinct[h] {
				a.add(v, true)
			}
		}
		return
	}
	a.count += b.count
	a.sum += b.sum
	if b.seen {
		if !a.seen || types.Less(b.min, a.min) {
			a.min = b.min
		}
		if !a.seen || types.Less(a.max, b.max) {
			a.max = b.max
		}
		a.seen = true
	}
}

func (a *aggState) result(spec plan.AggSpec) types.Value {
	switch spec.Func {
	case "COUNT":
		return types.Int(a.count)
	case "SUM":
		if a.count == 0 {
			return types.Null()
		}
		return types.Float(a.sum)
	case "AVG":
		if a.count == 0 {
			return types.Null()
		}
		return types.Float(a.sum / float64(a.count))
	case "MIN":
		if !a.seen {
			return types.Null()
		}
		return a.min
	case "MAX":
		if !a.seen {
			return types.Null()
		}
		return a.max
	}
	return types.Null()
}

type group struct {
	key    []types.Value
	states []aggState
}

// hashAgg groups via a hash table bounded by the broker's grant: group
// state beyond the grant spills input rows to hash partitions that
// re-aggregate recursively after the input is exhausted (aggSink). Output
// order is made deterministic by sorting groups on the key (cheap relative
// to the aggregation itself and essential for reproducible experiment
// output).
type hashAgg struct {
	ctx   *Context
	node  *plan.AggNode
	child Operator

	out []types.Row
	pos int
}

func (h *hashAgg) Open() error {
	if err := h.child.Open(); err != nil {
		return err
	}
	sink := newAggSink(h.ctx, h.node, 0)
	defer sink.close()
	key := make([]types.Value, len(h.node.GroupExprs))
	for {
		r, ok, err := h.child.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		h.ctx.Clock.Probes(1)
		if err := evalExprs(key, h.node.GroupExprs, r, h.ctx.Params); err != nil {
			return err
		}
		if err := sink.add(key, r, func(g *group) error {
			return accumGroup(g, h.node, r, h.ctx.Params)
		}); err != nil {
			return err
		}
	}
	order, err := sink.finish()
	if err != nil {
		return err
	}
	h.out = finalizeGroups(h.node, order, h.ctx.Clock)
	h.pos = 0
	return nil
}

// finalizeGroups is the group finalize every hash aggregation (hashAgg,
// batchHashAgg, parallelAgg) shares: a global aggregate over empty input
// still yields one row, groups sort on the key — the deterministic output
// order of every path, independent of spill and morsel patterns — and
// each group becomes one output row. clk is charged one unit of row work
// per group; nil leaves the charge to the caller (the batch path charges
// RowWorkBatch once).
func finalizeGroups(node *plan.AggNode, order []*group, clk *storage.Clock) []types.Row {
	if len(order) == 0 && len(node.GroupExprs) == 0 {
		order = append(order, &group{states: make([]aggState, len(node.Aggs))})
	}
	sort.SliceStable(order, func(i, j int) bool {
		return compareKeys(order[i].key, order[j].key) < 0
	})
	out := make([]types.Row, 0, len(order))
	for _, g := range order {
		if clk != nil {
			clk.RowWork(1)
		}
		out = append(out, g.row(node.Aggs))
	}
	return out
}

// row assembles g's output row: the group key, then each aggregate's
// result.
func (g *group) row(aggs []plan.AggSpec) types.Row {
	row := make(types.Row, 0, len(g.key)+len(g.states))
	row = append(row, g.key...)
	for i := range g.states {
		row = append(row, g.states[i].result(aggs[i]))
	}
	return row
}

// evalExprs fills dst with r's interpreted expressions — the row
// operators' counterpart of evalGroupKey.
func evalExprs(dst []types.Value, es []expr.Expr, r types.Row, params []types.Value) error {
	for i, e := range es {
		v, err := e.Eval(r, params)
		if err != nil {
			return err
		}
		dst[i] = v
	}
	return nil
}

// accumGroup folds one input row into a group's aggregate states.
func accumGroup(g *group, node *plan.AggNode, r types.Row, params []types.Value) error {
	for i, spec := range node.Aggs {
		if spec.Star {
			g.states[i].count++
			continue
		}
		v, err := spec.Arg.Eval(r, params)
		if err != nil {
			return err
		}
		g.states[i].add(v, spec.Distinct)
	}
	return nil
}

// compileAgg lowers an aggregation's group expressions and aggregate
// arguments once at Open, for the batch and morsel aggregations; argFns is
// index-aligned with node.Aggs (nil entries are COUNT(*)).
func compileAgg(node *plan.AggNode) (groupFns, argFns []expr.EvalFn) {
	argFns = make([]expr.EvalFn, len(node.Aggs))
	for i, spec := range node.Aggs {
		if !spec.Star {
			argFns[i] = expr.Compile(spec.Arg)
		}
	}
	return expr.CompileAll(node.GroupExprs), argFns
}

// evalGroupKey fills key with r's compiled group expressions.
func evalGroupKey(key []types.Value, fns []expr.EvalFn, r types.Row, params []types.Value) error {
	for i, fn := range fns {
		v, err := fn(r, params)
		if err != nil {
			return err
		}
		key[i] = v
	}
	return nil
}

// accumGroupFns is accumGroup with compiled aggregate arguments (fns is
// index-aligned with node.Aggs; nil entries are COUNT(*)).
func accumGroupFns(g *group, node *plan.AggNode, fns []expr.EvalFn, r types.Row, params []types.Value) error {
	for i, spec := range node.Aggs {
		if spec.Star {
			g.states[i].count++
			continue
		}
		v, err := fns[i](r, params)
		if err != nil {
			return err
		}
		g.states[i].add(v, spec.Distinct)
	}
	return nil
}

func rowsEqual(a, b []types.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if types.Compare(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

func (h *hashAgg) Next() (types.Row, bool, error) {
	if h.pos >= len(h.out) {
		return nil, false, nil
	}
	r := h.out[h.pos]
	h.pos++
	return r, true, nil
}

func (h *hashAgg) Close() error {
	h.out = nil
	return h.child.Close()
}

// streamAgg expects input grouped (sorted) on the group expressions and
// emits each group as it completes — the low-memory aggregation path.
type streamAgg struct {
	ctx   *Context
	node  *plan.AggNode
	child Operator

	cur        *group // the group being accumulated; nil before the first row
	done       bool
	emittedAny bool
}

func (s *streamAgg) Open() error {
	s.cur = nil
	s.done = false
	s.emittedAny = false
	return s.child.Open()
}

func (s *streamAgg) Next() (types.Row, bool, error) {
	if s.done {
		return nil, false, nil
	}
	for {
		r, ok, err := s.child.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			s.done = true
			if s.cur != nil || (len(s.node.GroupExprs) == 0 && !s.emittedAny) {
				return s.emit(), true, nil
			}
			return nil, false, nil
		}
		s.ctx.Clock.Compares(1)
		key := make([]types.Value, len(s.node.GroupExprs))
		if err := evalExprs(key, s.node.GroupExprs, r, s.ctx.Params); err != nil {
			return nil, false, err
		}
		var out types.Row
		if s.cur != nil && !rowsEqual(s.cur.key, key) {
			out = s.emit()
		}
		if s.cur == nil {
			s.cur = &group{key: key, states: make([]aggState, len(s.node.Aggs))}
		}
		if err := accumGroup(s.cur, s.node, r, s.ctx.Params); err != nil {
			return nil, false, err
		}
		if out != nil {
			return out, true, nil
		}
	}
}

// emit finishes the current group (or, for a global aggregate over empty
// input, an empty one) into its output row.
func (s *streamAgg) emit() types.Row {
	s.ctx.Clock.RowWork(1)
	s.emittedAny = true
	g := s.cur
	if g == nil {
		g = &group{states: make([]aggState, len(s.node.Aggs))}
	}
	s.cur = nil
	return g.row(s.node.Aggs)
}

func (s *streamAgg) Close() error { return s.child.Close() }

// distinctOp removes duplicates via hashing.
type distinctOp struct {
	ctx   *Context
	child Operator
	seen  map[uint64][]types.Row
}

func (d *distinctOp) Open() error {
	d.seen = map[uint64][]types.Row{}
	return d.child.Open()
}

func (d *distinctOp) Next() (types.Row, bool, error) {
	for {
		r, ok, err := d.child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		d.ctx.Clock.Probes(1)
		h := types.HashRow(r)
		dup := false
		for _, cand := range d.seen[h] {
			if rowsEqual(cand, r) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		c := r.Clone()
		d.seen[h] = append(d.seen[h], c)
		return c, true, nil
	}
}

func (d *distinctOp) Close() error {
	d.seen = nil
	return d.child.Close()
}

// filterOp applies a predicate.
type filterOp struct {
	ctx   *Context
	pred  expr.Expr
	child Operator
}

func (f *filterOp) Open() error { return f.child.Open() }

func (f *filterOp) Next() (types.Row, bool, error) {
	for {
		r, ok, err := f.child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		f.ctx.Clock.RowWork(1)
		pass, err := expr.EvalPredicate(f.pred, r, f.ctx.Params)
		if err != nil {
			return nil, false, err
		}
		if pass {
			return r, true, nil
		}
	}
}

func (f *filterOp) Close() error { return f.child.Close() }

// projectOp computes output expressions.
type projectOp struct {
	ctx   *Context
	exprs []expr.Expr
	child Operator
}

func (p *projectOp) Open() error { return p.child.Open() }

func (p *projectOp) Next() (types.Row, bool, error) {
	r, ok, err := p.child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	p.ctx.Clock.RowWork(1)
	out := make(types.Row, len(p.exprs))
	if err := evalExprs(out, p.exprs, r, p.ctx.Params); err != nil {
		return nil, false, err
	}
	return out, true, nil
}

func (p *projectOp) Close() error { return p.child.Close() }

// limitOp skips then caps.
type limitOp struct {
	n, skip  int
	returned int
	skipped  int
	child    Operator
}

func (l *limitOp) Open() error {
	l.returned, l.skipped = 0, 0
	return l.child.Open()
}

func (l *limitOp) Next() (types.Row, bool, error) {
	for {
		if l.n >= 0 && l.returned >= l.n {
			return nil, false, nil
		}
		r, ok, err := l.child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if l.skipped < l.skip {
			l.skipped++
			continue
		}
		l.returned++
		return r, true, nil
	}
}

func (l *limitOp) Close() error { return l.child.Close() }

// materializeOp buffers its input fully on Open; POP reuses these buffers
// across re-optimizations.
type materializeOp struct {
	ctx   *Context
	child Operator
	rows  []types.Row
	pos   int
}

func (m *materializeOp) Open() error {
	rows, err := drain(m.child)
	if err != nil {
		return err
	}
	m.rows = rows
	m.pos = 0
	m.ctx.Clock.RowWork(len(rows))
	return nil
}

func (m *materializeOp) Next() (types.Row, bool, error) {
	if m.pos >= len(m.rows) {
		return nil, false, nil
	}
	r := m.rows[m.pos]
	m.pos++
	return r, true, nil
}

func (m *materializeOp) Close() error {
	m.rows = nil
	return nil
}

// checkOp is the POP CHECK operator: it counts rows flowing through and
// raises CardinalityViolation the moment the count leaves the validity
// range (or, for an undershoot, when the input ends early).
type checkOp struct {
	node  *plan.CheckNode
	child Operator
	n     float64
}

func (c *checkOp) Open() error {
	c.n = 0
	return c.child.Open()
}

func (c *checkOp) Next() (types.Row, bool, error) {
	r, ok, err := c.child.Next()
	if err != nil {
		return nil, false, err
	}
	if !ok {
		if c.n < c.node.Lo {
			return nil, false, &CardinalityViolation{Node: c.node, Actual: c.n}
		}
		return nil, false, nil
	}
	c.n++
	if c.node.Hi > 0 && c.n > c.node.Hi {
		return nil, false, &CardinalityViolation{Node: c.node, Actual: c.n}
	}
	return r, true, nil
}

func (c *checkOp) Close() error { return c.child.Close() }
