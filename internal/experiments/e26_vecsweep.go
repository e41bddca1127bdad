package experiments

import (
	"fmt"

	"rqp/internal/exec"
	"rqp/internal/opt"
	"rqp/internal/plan"
	"rqp/internal/sql"
	"rqp/internal/types"
	"rqp/internal/workload"
)

// VecSweepPoint is one rung of the vectorized-execution parity map: a
// TPC-H-lite query run row-at-a-time and batch-at-a-time. PR 3's property
// tests guarantee the two paths are bit-identical in rows and simulated
// cost; the sweep commits those per-query costs as a baseline so a
// regression in batch cost accounting or expression compilation surfaces
// as a delta against BENCH_vectorized.json.
type VecSweepPoint struct {
	Query    string  // suite query name
	RowUnits float64 // simulated cost on the row path
	VecUnits float64 // simulated cost on the vectorized path
	Match    bool    // identical result rows
	Parity   bool    // RowUnits == VecUnits exactly (integer cost identity)
}

// VecSweep runs the row-vs-vectorized parity sweep and returns the report
// plus the raw points (for rqpbench -sweep vec-sweep and the regression gate).
func VecSweep(scale float64) (*Report, []VecSweepPoint, error) {
	cat, err := workload.BuildTPCH(workload.TPCHConfig{Scale: 0.5 * scale, Seed: 23})
	if err != nil {
		return nil, nil, err
	}
	suite := []string{"Q1", "Q3", "Q10"}
	queries := workload.TPCHQueries()

	runOne := func(name string, vec bool) (float64, []types.Row, error) {
		ctx := exec.NewContext()
		ctx.Vec = vec
		o := opt.New(cat)
		st, err := sql.Parse(queries[name])
		if err != nil {
			return 0, nil, err
		}
		bq, err := plan.Bind(st.(*sql.SelectStmt), cat)
		if err != nil {
			return 0, nil, err
		}
		root, err := o.Optimize(bq, nil)
		if err != nil {
			return 0, nil, err
		}
		if vec {
			plan.MarkVectorized(root)
		}
		rows, err := exec.Run(root, ctx)
		if err != nil {
			return 0, nil, fmt.Errorf("E26 %s vec=%v: %w", name, vec, err)
		}
		return ctx.Clock.Units(), rows, nil
	}

	points := make([]VecSweepPoint, 0, len(suite))
	for _, name := range suite {
		rowUnits, rowRows, err := runOne(name, false)
		if err != nil {
			return nil, nil, err
		}
		vecUnits, vecRows, err := runOne(name, true)
		if err != nil {
			return nil, nil, err
		}
		points = append(points, VecSweepPoint{
			Query:    name,
			RowUnits: rowUnits,
			VecUnits: vecUnits,
			Match:    equalCanon(canonRows([][]types.Row{rowRows}), canonRows([][]types.Row{vecRows})),
			Parity:   rowUnits == vecUnits,
		})
	}

	r := newReport("E26", "row-vs-vectorized parity sweep (cost-identity map)")
	r.Printf("%5s %12s %12s %6s %7s", "query", "row_units", "vec_units", "exact", "parity")
	allMatch, allParity := true, true
	for _, p := range points {
		r.Printf("%5s %12.1f %12.1f %6v %7v", p.Query, p.RowUnits, p.VecUnits, p.Match, p.Parity)
		if !p.Match {
			allMatch = false
		}
		if !p.Parity {
			allParity = false
		}
	}
	r.Set("queries", float64(len(points)))
	setReportBool(r, "all_exact", allMatch)
	setReportBool(r, "cost_parity", allParity)
	return r, points, nil
}

// E26VecSweep adapts VecSweep to the registry's Runner signature.
func E26VecSweep(scale float64) (*Report, error) {
	r, _, err := VecSweep(scale)
	return r, err
}
