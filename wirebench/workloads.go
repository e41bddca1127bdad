package main

import (
	"fmt"
	"math/rand"
	"sort"

	"rqp/internal/catalog"
	"rqp/internal/core"
	"rqp/internal/types"
	"rqp/internal/wlm"
	"rqp/internal/workload"
)

// stmt is one statement a client sends, with the answer it must get.
type stmt struct {
	sql    string
	params []types.Value
	prep   string // prepared statement name; "" sends a simple Query
	class  string // statement template, for the per-class breakdown
	focus  bool   // in the mix's focus class (see workload.focus)
	write  bool
	want   digest // expected rows of a read
	wantN  uint64 // expected affected-row count of a write
}

// source yields one client's statements. Sources are deterministic in the
// seed, so two sources made from one seed yield the same sequence.
type source interface{ next() *stmt }

// mix is one traffic mix against one database.
type mix struct {
	name    string
	why     string
	clients int
	scale   float64
	// focus names the statement class the workload exists to stress; the
	// focus_* metrics are computed over it.
	focus string
	// config is the engine configuration; called once per engine, so each
	// engine gets its own admission gate.
	config func() core.Config
	build  func(seed int64) (*catalog.Catalog, error)
	// planCache gives the engine a plan cache (core.Engine.Cache).
	planCache bool
	// prepared names the statements client c's connection prepares at
	// set-up.
	prepared func(c int) map[string]string
	// streams computes whatever the seed's expected answers need and returns
	// a constructor of fresh per-client sources, each starting from the
	// freshly built database.
	streams func(seed int64) (func() []source, error)
	// final, when set, lists end-of-run queries whose answers follow from
	// the sources' state; they check the database as a whole after the run.
	final func(srcs []source) []*stmt
	// warm is the number of statements each client runs during set-up.
	warm int
}

// workloads are the benchmark's workloads, the ones BENCHMARK.json lists.
var workloads = []*mix{starPOP(), tpchOLAP(1), pointRW(false)}

// defectWorkloads reproduce known engine defects (see README). Each is a
// listed workload in the configuration where a defect turns answers wrong,
// and a run of it counts the wrong answers in failed. BENCHMARK.json does
// not list them: its runs must answer every statement correctly.
var defectWorkloads = []*mix{tpchOLAP(2), pointRW(true)}

func allWorkloads() []*mix { return append(append([]*mix(nil), workloads...), defectWorkloads...) }

func workloadNamed(name string) *mix {
	for _, w := range allWorkloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// referenceDigests runs each distinct statement once on a serial, classic
// engine over a separately built copy of the database and returns the
// expected digest per SQL text.
func referenceDigests(build func() (*catalog.Catalog, error), sqls []string) (map[string]digest, error) {
	cat, err := build()
	if err != nil {
		return nil, err
	}
	ref := core.Attach(cat, core.DefaultConfig())
	out := make(map[string]digest, len(sqls))
	for _, q := range sqls {
		if _, ok := out[q]; ok {
			continue
		}
		res, err := ref.Exec(q)
		if err != nil {
			return nil, fmt.Errorf("reference %q: %w", q, err)
		}
		out[q] = digestRows(res.Rows)
	}
	return out, nil
}

// cycleSource walks a fixed statement list round-robin from an offset.
type cycleSource struct {
	list []*stmt
	pos  int
}

func (c *cycleSource) next() *stmt {
	s := c.list[c.pos%len(c.list)]
	c.pos++
	return s
}

// ---- star_pop ----

// starStatements is the number of distinct star queries a run cycles
// through: enough that the run's median does not hinge on a few queries.
const starStatements = 1024

func starPOP() *mix {
	sc := func(seed int64) workload.StarConfig {
		c := workload.DefaultStar()
		c.Seed = seed
		return c
	}
	return &mix{
		name:    "star_pop",
		why:     "the paper's own workload: star joins with 20% correlation traps under POP, two clients against MPL 1",
		clients: 2,
		scale:   1,
		focus:   "trapped",
		config: func() core.Config {
			cfg := core.DefaultConfig()
			cfg.Policy = core.PolicyPOP
			cfg.Admission = wlm.NewAdmitter(1)
			return cfg
		},
		build: func(seed int64) (*catalog.Catalog, error) { return workload.BuildStar(sc(seed)) },
		streams: func(seed int64) (func() []source, error) {
			qs := workload.StarWorkload(sc(seed), starStatements, 0.2, seed)
			sqls := make([]string, len(qs))
			for i, q := range qs {
				sqls[i] = q.SQL
			}
			refs, err := referenceDigests(func() (*catalog.Catalog, error) { return workload.BuildStar(sc(seed)) }, sqls)
			if err != nil {
				return nil, err
			}
			list := make([]*stmt, len(qs))
			for i, q := range qs {
				class := "clean"
				if q.Trapped {
					class = "trapped"
				}
				list[i] = &stmt{sql: q.SQL, class: class, focus: q.Trapped, want: refs[q.SQL]}
			}
			return func() []source {
				return []source{&cycleSource{list: list}, &cycleSource{list: list, pos: len(list) / 2}}
			}, nil
		},
		warm: 128,
	}
}

// ---- tpch_olap ----

// tpchScale sizes TPC-H-lite: 48,000 lineitems and 12,000 orders.
const tpchScale = 8

// tpchExport is the result-export scan: about 34,000 of 48,000 lineitems,
// so result materialization, Row-frame encoding and time to first row are
// under load.
const tpchExport = `SELECT l_orderkey, l_partkey, l_quantity, l_extendedprice, l_shipdate
	FROM lineitem WHERE l_shipdate < DATE(9800)`

// tpchOLAP is tpch_olap at the given degree of parallelism. The benchmark
// runs it at DOP 1: at DOP 2 a runtime filter that disables itself
// mid-scan does so at a row that depends on how the two scan workers
// interleave, so identical executions return different cost units (see
// README), and that variant is tpch_olap_dop2.
func tpchOLAP(dop int) *mix {
	build := func(seed int64) (*catalog.Catalog, error) {
		return workload.BuildTPCH(workload.TPCHConfig{Scale: tpchScale, Seed: seed})
	}
	name, why := "tpch_olap", "analytic scans, joins and aggregates on the vectorized, columnar path with runtime filters, plus a large export"
	if dop != 1 {
		name = fmt.Sprintf("tpch_olap_dop%d", dop)
		why = fmt.Sprintf("tpch_olap at DOP %d, where runtime filters that disable mid-scan make cost units differ between identical executions", dop)
	}
	return &mix{
		name:    name,
		why:     why,
		clients: 1,
		scale:   tpchScale,
		focus:   "export",
		config: func() core.Config {
			cfg := core.DefaultConfig()
			cfg.Vec = true
			cfg.DOP = dop
			cfg.Columnar = true
			cfg.RuntimeFilters = true
			return cfg
		},
		build: build,
		streams: func(seed int64) (func() []source, error) {
			qs := workload.TPCHQueries()
			// On a 2-vCPU host at DOP 1 Q6, Q10 and Q1 take 5–30 ms, the Q3
			// family 45–60 ms, the export about 70 ms and Q5 about 90 ms;
			// the export's first row arrives before the Q3 family's. Q3 runs
			// in four variants with shifted literals, so the median latency
			// and the median time to first row both fall inside the Q3 group
			// rather than in a gap between groups, where they would jump from
			// run to run.
			classes := []string{"Q1", "Q6", "Q10", "Q3", "Q3a", "Q3b", "Q3c", "Q5", "export"}
			sqls := []string{qs["Q1"], qs["Q6"], qs["Q10"], qs["Q3"], workload.PerturbTPCHQuery("Q3", 1),
				workload.PerturbTPCHQuery("Q3", 2), workload.PerturbTPCHQuery("Q3", 3), qs["Q5"], tpchExport}
			refs, err := referenceDigests(func() (*catalog.Catalog, error) { return build(seed) }, sqls)
			if err != nil {
				return nil, err
			}
			list := make([]*stmt, len(sqls))
			for i, q := range sqls {
				list[i] = &stmt{sql: q, class: classes[i], focus: q == tpchExport, want: refs[q]}
			}
			return func() []source { return []source{&cycleSource{list: list}} }, nil
		},
		warm: 9,
	}
}

// ---- point_rw ----

// point_rw sizes: accounts, and transactions per account at the start.
// Writes by key scan the whole heap (see README), so these sizes set the
// write cost.
const (
	rwAccounts    = 10000
	rwTxnsPerAcct = 2
)

// The statements; %[1]s is the client's transaction table.
const (
	rwPoint   = `SELECT id, balance, region FROM acct WHERE id = ?`
	rwJoin    = `SELECT acct.id, %[1]s.tid, %[1]s.amount FROM acct, %[1]s WHERE acct.id = ? AND %[1]s.acct = acct.id`
	rwJoinLit = `SELECT acct.id, %[1]s.tid, %[1]s.amount FROM acct, %[1]s WHERE acct.id = %[2]d AND %[1]s.acct = acct.id`
	rwUpdate  = `UPDATE acct SET balance = %d WHERE id = %d`
	rwInsert  = `INSERT INTO %s VALUES (%d, %d, %d)`
	rwDelete  = `DELETE FROM %s WHERE tid = %d`
	rwRegions = 7
)

// rwTables names each client's transaction table. point_rw gives each
// client its own, with its own index: the B-tree has no latch, so an index
// one session writes while another reads or writes it can return wrong
// rows (see README). point_rw_shared gives both clients one table.
func rwTables(clients int, shared bool) []string {
	out := make([]string, clients)
	for c := range out {
		out[c] = "txn"
		if !shared {
			out[c] = fmt.Sprintf("txn%d", c)
		}
	}
	return out
}

// rwData is the initial point_rw database, generated from the seed.
type rwData struct {
	balance []int64
	amount  []int64 // indexed by tid; txn tid belongs to account tid/rwTxnsPerAcct
}

func rwGenerate(seed int64) rwData {
	g := workload.NewGen(seed)
	d := rwData{balance: make([]int64, rwAccounts), amount: make([]int64, rwAccounts*rwTxnsPerAcct)}
	for i := range d.balance {
		d.balance[i] = g.Uniform(100000)
	}
	for i := range d.amount {
		d.amount[i] = g.Uniform(1000)
	}
	return d
}

// rwBuild builds the point_rw database with the given transaction tables;
// each transaction goes to the table of the client owning its account.
func rwBuild(seed int64, tables []string) (*catalog.Catalog, error) {
	d := rwGenerate(seed)
	cat := catalog.New()
	acct, err := cat.CreateTable("acct", types.Schema{
		{Name: "id", Kind: types.KindInt},
		{Name: "balance", Kind: types.KindInt},
		{Name: "region", Kind: types.KindInt},
	})
	if err != nil {
		return nil, err
	}
	for i, b := range d.balance {
		cat.Insert(nil, acct, workload.IntRow(int64(i), b, int64(i%rwRegions)))
	}
	txns := map[string]*catalog.Table{}
	for _, name := range tables {
		if txns[name] != nil {
			continue
		}
		t, err := cat.CreateTable(name, types.Schema{
			{Name: "tid", Kind: types.KindInt},
			{Name: "acct", Kind: types.KindInt},
			{Name: "amount", Kind: types.KindInt},
		})
		if err != nil {
			return nil, err
		}
		txns[name] = t
	}
	for tid, a := range d.amount {
		acct := int64(tid / rwTxnsPerAcct)
		cat.Insert(nil, txns[tables[acct%int64(len(tables))]], workload.IntRow(int64(tid), acct, a))
	}
	if _, err := cat.CreateIndex(nil, "acct", "acct_id", []string{"id"}, true); err != nil {
		return nil, err
	}
	cat.AnalyzeTable(acct, 24)
	for name, t := range txns {
		if _, err := cat.CreateIndex(nil, name, name+"_acct", []string{"acct"}, false); err != nil {
			return nil, err
		}
		cat.AnalyzeTable(t, 24)
	}
	return cat, nil
}

// rwSource is one point_rw client. It owns the accounts whose id modulo the
// client count is its number, and every transaction of those accounts, and
// keeps a model of them: no other client writes them, so every read has a
// known answer. The clients' accounts interleave, so their keys share
// acct_id's leaves; both clients update acct.
type rwSource struct {
	txn     string // the client's transaction table
	rng     *rand.Rand
	ids     []int64 // own accounts
	balance map[int64]int64
	txns    map[int64]map[int64]int64 // account -> tid -> amount
	owner   map[int64]int64           // tid -> account
	fifo    []int64                   // own tids, oldest first
	nextTid int64
	delNext bool // the next churn write deletes (keeps the row count stationary)
}

func newRWSources(seed int64, tables []string) []source {
	d := rwGenerate(seed)
	clients := len(tables)
	out := make([]source, clients)
	for c := 0; c < clients; c++ {
		s := &rwSource{
			txn:     tables[c],
			rng:     rand.New(rand.NewSource(seed*1000 + int64(c))),
			balance: map[int64]int64{},
			txns:    map[int64]map[int64]int64{},
			owner:   map[int64]int64{},
			nextTid: int64(c+1) * 1_000_000_000,
		}
		for id := int64(c); id < rwAccounts; id += int64(clients) {
			s.ids = append(s.ids, id)
			s.balance[id] = d.balance[id]
			s.txns[id] = map[int64]int64{}
		}
		for tid, a := range d.amount {
			acct := int64(tid / rwTxnsPerAcct)
			if acct%int64(clients) == int64(c) {
				s.txns[acct][int64(tid)] = a
				s.owner[int64(tid)] = acct
				s.fifo = append(s.fifo, int64(tid))
			}
		}
		out[c] = s
	}
	return out
}

// key picks an own account uniformly.
func (s *rwSource) key() int64 { return s.ids[s.rng.Intn(len(s.ids))] }

func (s *rwSource) pointRow(id int64) types.Row {
	return workload.IntRow(id, s.balance[id], id%rwRegions)
}

func (s *rwSource) joinRows(id int64) []types.Row {
	var rows []types.Row
	for tid, amt := range s.txns[id] {
		rows = append(rows, workload.IntRow(id, tid, amt))
	}
	return rows
}

// next draws the mix: 60% point lookups, 20% short joins (a quarter of the
// reads as prepared statements), 10% balance updates, 10% transaction
// churn alternating INSERT and DELETE of the client's oldest transaction.
// Reads and updates pick their key uniformly among the client's accounts.
func (s *rwSource) next() *stmt {
	r := s.rng.Intn(100)
	id := s.key()
	switch {
	case r < 60:
		st := &stmt{class: "point", want: digestRows([]types.Row{s.pointRow(id)})}
		if r < 15 {
			st.sql, st.prep, st.params, st.class = rwPoint, "pt", []types.Value{types.Int(id)}, "point_prep"
		} else {
			st.sql = fmt.Sprintf(`SELECT id, balance, region FROM acct WHERE id = %d`, id)
		}
		return st
	case r < 80:
		st := &stmt{class: "join", want: digestRows(s.joinRows(id))}
		if r < 65 {
			st.sql, st.prep, st.params, st.class = fmt.Sprintf(rwJoin, s.txn), "jn", []types.Value{types.Int(id)}, "join_prep"
		} else {
			st.sql = fmt.Sprintf(rwJoinLit, s.txn, id)
		}
		return st
	case r < 90:
		v := s.rng.Int63n(100000)
		s.balance[id] = v
		return &stmt{sql: fmt.Sprintf(rwUpdate, v, id), class: "update", write: true, focus: true, wantN: 1}
	}
	s.delNext = !s.delNext
	if !s.delNext && len(s.fifo) > 0 {
		tid := s.fifo[0]
		s.fifo = s.fifo[1:]
		delete(s.txns[s.owner[tid]], tid)
		delete(s.owner, tid)
		return &stmt{sql: fmt.Sprintf(rwDelete, s.txn, tid), class: "delete", write: true, focus: true, wantN: 1}
	}
	// The new transaction goes to the account of the oldest one, which the
	// next churn write deletes: every account keeps its transaction count,
	// so the join's result size, and its cost, stay stationary too.
	id = s.owner[s.fifo[0]]
	tid, amt := s.nextTid, s.rng.Int63n(1000)
	s.nextTid++
	s.txns[id][tid] = amt
	s.owner[tid] = id
	s.fifo = append(s.fifo, tid)
	return &stmt{sql: fmt.Sprintf(rwInsert, s.txn, tid, id, amt), class: "insert", write: true, focus: true, wantN: 1}
}

// rwFinal checks the whole database against the clients' models: every
// balance and every transaction, including the rows the clients wrote.
func rwFinal(srcs []source) []*stmt {
	var accts []types.Row
	txns := map[string][]types.Row{}
	var tables []string
	for _, src := range srcs {
		s := src.(*rwSource)
		ids := make([]int64, 0, len(s.balance))
		for id := range s.balance {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		if _, ok := txns[s.txn]; !ok {
			tables = append(tables, s.txn)
			txns[s.txn] = nil
		}
		for _, id := range ids {
			accts = append(accts, workload.IntRow(id, s.balance[id]))
			for _, r := range s.joinRows(id) { // (acct, tid, amount) -> (tid, acct, amount)
				txns[s.txn] = append(txns[s.txn], types.Row{r[1], r[0], r[2]})
			}
		}
	}
	out := []*stmt{{sql: `SELECT id, balance FROM acct`, class: "final", want: digestRows(accts)}}
	for _, name := range tables {
		out = append(out, &stmt{sql: fmt.Sprintf(`SELECT tid, acct, amount FROM %s`, name), class: "final", want: digestRows(txns[name])})
	}
	return out
}

// pointRW is point_rw, or with shared set point_rw_shared, where both
// clients write one transaction table and its index.
func pointRW(shared bool) *mix {
	const clients = 2
	tables := rwTables(clients, shared)
	name, why := "point_rw", "short statements from two clients: index point lookups, key joins, prepared statements, and writes beside reads"
	if shared {
		name, why = "point_rw_shared", "point_rw with one transaction table that both clients write, where the unlatched B-tree races"
	}
	return &mix{
		name:    name,
		why:     why,
		clients: clients,
		scale:   1,
		focus:   "write",
		config: func() core.Config {
			return core.DefaultConfig()
		},
		build:     func(seed int64) (*catalog.Catalog, error) { return rwBuild(seed, tables) },
		planCache: true,
		prepared: func(c int) map[string]string {
			return map[string]string{"pt": rwPoint, "jn": fmt.Sprintf(rwJoin, tables[c])}
		},
		streams: func(seed int64) (func() []source, error) {
			return func() []source { return newRWSources(seed, tables) }, nil
		},
		final: rwFinal,
		warm:  300,
	}
}
