package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"rqp/internal/exec"
	"rqp/internal/opt"
	"rqp/internal/plan"
	"rqp/internal/sql"
	"rqp/internal/types"
	"rqp/internal/workload"
)

// DopSweepPoint is one rung of the parallel-execution robustness map: the
// TPC-H-lite suite run at one degree of parallelism. The morsel operators
// issue the same multiset of clock charges at any DOP, so total simulated
// cost is *identical* to serial at every rung — the sweep turns that
// invariant into a committed baseline so a regression in plan shapes or
// morsel cost accounting shows up against BENCH_parallel.json. Result rows
// are compared within a DOP (two runs at the same fan-out must agree to
// the float canon), not across DOPs: parallel aggregation merges per-worker
// float partials in a different order than serial, as E23 documents.
type DopSweepPoint struct {
	DOP    int     // degree of parallelism (1 = serial reference)
	Units  float64 // total simulated cost for the suite (must equal serial)
	WallMS float64 // wall-clock time (informational; machine-dependent)
	Match  bool    // two runs at this DOP produce identical results
}

// dopSweepDOPs is the fan-out ladder.
var dopSweepDOPs = []int{1, 2, 4, 8}

// DopSweep runs the TPC-H-lite suite across the DOP ladder and returns
// the report plus the raw points (for rqpbench -sweep dop-sweep and the
// regression gate).
func DopSweep(scale float64) (*Report, []DopSweepPoint, error) {
	cat, err := workload.BuildTPCH(workload.TPCHConfig{Scale: 0.5 * scale, Seed: 23})
	if err != nil {
		return nil, nil, err
	}
	suite := []string{"Q1", "Q3", "Q10"}
	queries := workload.TPCHQueries()

	runSuite := func(dop int) (float64, [][]types.Row, error) {
		ctx := exec.NewContext()
		if dop > 1 {
			ctx.DOP = dop
		}
		var results [][]types.Row
		for _, name := range suite {
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
			if dop > 1 {
				plan.MarkParallel(root, 1)
			}
			rows, err := exec.Run(root, ctx)
			if err != nil {
				return 0, nil, fmt.Errorf("E25 %s dop=%d: %w", name, dop, err)
			}
			results = append(results, rows)
		}
		return ctx.Clock.Units(), results, nil
	}

	points := make([]DopSweepPoint, 0, len(dopSweepDOPs))
	for _, dop := range dopSweepDOPs {
		start := time.Now()
		units, rows, err := runSuite(dop)
		if err != nil {
			return nil, nil, err
		}
		// Determinism check: worker interleaving must never leak into
		// results, so a second run at the same DOP must agree exactly.
		units2, rows2, err := runSuite(dop)
		if err != nil {
			return nil, nil, err
		}
		points = append(points, DopSweepPoint{
			DOP: dop, Units: units,
			WallMS: float64(time.Since(start).Microseconds()) / 1000,
			Match:  units == units2 && equalCanon(canonRows(rows), canonRows(rows2)),
		})
	}

	r := newReport("E25", "degree-of-parallelism sweep (cost-parity map)")
	r.Printf("%5s %12s %10s %6s", "dop", "cost_units", "wall_ms", "exact")
	allMatch, parity := true, true
	for _, p := range points {
		r.Printf("%5d %12.1f %10.2f %6v", p.DOP, p.Units, p.WallMS, p.Match)
		if !p.Match {
			allMatch = false
		}
		if p.Units != points[0].Units {
			parity = false
		}
	}
	r.Set("dops", float64(len(points)))
	r.Set("units_serial", points[0].Units)
	setReportBool(r, "all_exact", allMatch)
	setReportBool(r, "cost_parity", parity)
	return r, points, nil
}

// E25DopSweep adapts DopSweep to the registry's Runner signature.
func E25DopSweep(scale float64) (*Report, error) {
	r, _, err := DopSweep(scale)
	return r, err
}

// canonRows renders result sets with floats at 6 significant digits,
// sorted — the cross-configuration comparison canon shared by the sweeps
// (see MemSweep for why byte-identity is asserted elsewhere).
func canonRows(results [][]types.Row) []string {
	var out []string
	for qi, rows := range results {
		for _, r := range rows {
			parts := make([]string, len(r))
			for i, v := range r {
				if v.K == types.KindFloat {
					parts[i] = fmt.Sprintf("%.6g", v.F)
				} else {
					parts[i] = v.String()
				}
			}
			out = append(out, fmt.Sprintf("q%d:%s", qi, strings.Join(parts, "|")))
		}
	}
	sort.Strings(out)
	return out
}

func equalCanon(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func setReportBool(r *Report, k string, b bool) {
	v := 0.0
	if b {
		v = 1
	}
	r.Set(k, v)
}
