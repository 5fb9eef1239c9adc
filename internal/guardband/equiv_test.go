package guardband

import (
	"math"
	"testing"

	"tafpga/internal/hotspot"
)

// TestOptimizedRunMatchesReferenceRun: the optimized inner loop (compiled
// STA, factorized thermal solver) must land on the same
// operating point as the seed kernels. The thermal paths differ by at most
// the Gauss-Seidel tolerance (1e-5 °C), far inside the δT = 0.5 °C margin,
// so the resulting frequencies agree to a few parts per million.
func TestOptimizedRunMatchesReferenceRun(t *testing.T) {
	t.Parallel()
	f := setup(t)
	for _, amb := range []float64{25, 70} {
		opt, err := Run(f.an, f.pm, f.th, DefaultOptions(amb))
		if err != nil {
			t.Fatal(err)
		}
		refOpts := DefaultOptions(amb)
		refOpts.Reference = true
		ref, err := Run(f.an, f.pm, f.th, refOpts)
		if err != nil {
			t.Fatal(err)
		}
		if opt.BaselineMHz != ref.BaselineMHz {
			t.Fatalf("amb %g: baseline %v != reference %v (worst-case STA must be bit-identical)",
				amb, opt.BaselineMHz, ref.BaselineMHz)
		}
		if rel := math.Abs(opt.FmaxMHz-ref.FmaxMHz) / ref.FmaxMHz; rel > 1e-5 {
			t.Fatalf("amb %g: fmax %v vs reference %v (rel %g)", amb, opt.FmaxMHz, ref.FmaxMHz, rel)
		}
		if opt.Iterations != ref.Iterations || opt.Converged != ref.Converged {
			t.Fatalf("amb %g: convergence trajectory diverged: %d/%v vs %d/%v",
				amb, opt.Iterations, opt.Converged, ref.Iterations, ref.Converged)
		}
	}
}

// TestRunStatsAccounting: the stats must reflect the loop structure — one
// probe per iteration plus the baseline and final margined probes, and one
// thermal solve per iteration.
func TestRunStatsAccounting(t *testing.T) {
	t.Parallel()
	f := setup(t)
	res, err := Run(f.an, f.pm, f.th, DefaultOptions(25))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.STAProbes != res.Iterations+2 {
		t.Fatalf("%d STA probes for %d iterations, want iterations+2", st.STAProbes, res.Iterations)
	}
	if st.ThermalSolves != res.Iterations {
		t.Fatalf("%d thermal solves for %d iterations", st.ThermalSolves, res.Iterations)
	}
	if st.STANs <= 0 || st.ThermalNs <= 0 {
		t.Fatalf("kernel timings not recorded: %+v", st)
	}
	if s := st.String(); s == "" {
		t.Fatal("empty stats rendering")
	}
}

// TestUnfactorizedRunMatchesDirect: a thermal model assembled by struct
// literal has no factorization, so every solve of the loop runs the
// Gauss-Seidel reference relaxation; the answer must still match the
// direct path to within the relaxation tolerance.
func TestUnfactorizedRunMatchesDirect(t *testing.T) {
	t.Parallel()
	f := setup(t)
	direct, err := Run(f.an, f.pm, f.th, DefaultOptions(25))
	if err != nil {
		t.Fatal(err)
	}

	lit := &hotspot.Model{
		W: f.th.W, H: f.th.H,
		RSinkKPerW: f.th.RSinkKPerW, RVertKPerW: f.th.RVertKPerW, RLatKPerW: f.th.RLatKPerW,
		Tolerance: f.th.Tolerance, MaxSweeps: f.th.MaxSweeps,
	}
	res, err := Run(f.an, f.pm, lit, DefaultOptions(25))
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(res.FmaxMHz-direct.FmaxMHz) / direct.FmaxMHz; rel > 1e-5 {
		t.Fatalf("unfactorized fmax %v vs direct %v (rel %g)", res.FmaxMHz, direct.FmaxMHz, rel)
	}
	if res.Iterations != direct.Iterations || res.Converged != direct.Converged {
		t.Fatalf("convergence trajectory diverged: %d/%v vs %d/%v",
			res.Iterations, res.Converged, direct.Iterations, direct.Converged)
	}
}

// TestAdaptiveStatsAggregate: RunAdaptive must roll up per-epoch stats.
func TestAdaptiveStatsAggregate(t *testing.T) {
	t.Parallel()
	f := setup(t)
	profile := []ProfilePoint{{Hours: 8, AmbientC: 20}, {Hours: 16, AmbientC: 45}}
	res, err := RunAdaptive(f.an, f.pm, f.th, profile, DefaultOptions(25))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ThermalSolves == 0 || res.Stats.STAProbes <= len(profile) {
		t.Fatalf("adaptive stats look unaggregated: %+v", res.Stats)
	}
}
