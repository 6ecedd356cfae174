package sim

import (
	"fmt"
	"reflect"
	"testing"

	"wlreviver/internal/trace"
)

// Parallel fan-out must not change a single result: every engine owns
// its seed and shares nothing, so workers=4 must reproduce workers=1
// exactly. Run under -race this is also the concurrency workout for the
// job pool.
func TestParallelMatchesSerial(t *testing.T) {
	serial := TinyScale()
	serial.Workers = 1
	parallel := TinyScale()
	parallel.Workers = 4

	t.Run("fig5", func(t *testing.T) {
		t.Parallel()
		a, err := Fig5(serial)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Fig5(parallel)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("Fig5 diverged:\nserial:   %+v\nparallel: %+v", a.Rows, b.Rows)
		}
	})

	t.Run("fig6", func(t *testing.T) {
		t.Parallel()
		var halves []fmt.Stringer
		for _, w := range ReferenceWorkloads {
			a, err := CurveFigure(serial, "fig6", w)
			if err != nil {
				t.Fatal(err)
			}
			halves = append(halves, a)
			b, err := CurveFigure(parallel, "fig6", w)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.Curves, b.Curves) {
				t.Errorf("%s: curves diverged between workers=1 and workers=4", w)
			}
			if a.SimWrites != b.SimWrites {
				t.Errorf("%s: write accounting diverged: %d vs %d", w, a.SimWrites, b.SimWrites)
			}
		}
		// The registry runs both workloads' jobs in one pool; each half
		// must still equal its workload's own serial run.
		exp, err := LookupExperiment("fig6")
		if err != nil {
			t.Fatal(err)
		}
		res, err := exp.Run(parallel)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.(ResultPair).Halves(); !reflect.DeepEqual(got, halves) {
			t.Error("registry fig6 over one pool diverged from the per-workload serial runs")
		}
	})

	t.Run("table2", func(t *testing.T) {
		t.Parallel()
		a, err := Table2(serial, []string{"ocean", "mg"})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Table2(parallel, []string{"ocean", "mg"})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Error("Table2 diverged between workers=1 and workers=4")
		}
	})
}

// The runCurve budget clamp: a budget that is not a multiple of the
// checkEvery batch must end the curve exactly at the budget, not up to
// checkEvery-1 writes past it.
func TestRunCurveRespectsBudgetExactly(t *testing.T) {
	s := TinyScale()
	cfg := s.config()
	cfg.MeanEndurance = 1e9 // indestructible: only the budget can stop the run
	gen, err := trace.NewUniform(cfg.Blocks, 5)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	budget := uint64(checkEvery*3 + 137) // deliberately off the batch grid
	if _, err := runCurve(e, nil, "clamp", survival, 0, budget, checkEvery); err != nil {
		t.Fatal(err)
	}
	if e.Writes() != budget {
		t.Errorf("engine serviced %d writes, budget was %d", e.Writes(), budget)
	}
}
