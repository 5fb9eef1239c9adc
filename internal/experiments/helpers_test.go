package experiments

import (
	"reflect"
	"testing"

	"tafpga/internal/guardband"
)

func TestSumStatsEmpty(t *testing.T) {
	if s := SumStats(nil); s != (guardband.Stats{}) {
		t.Fatalf("SumStats(nil) = %+v, want zero", s)
	}
}

func TestSumStatsAggregates(t *testing.T) {
	rs := []BenchResult{
		{Stats: guardband.Stats{STAProbes: 3, ThermalSolves: 2, STANs: 100, PowerNs: 10, ThermalNs: 1}},
		{Stats: guardband.Stats{STAProbes: 4, ThermalSolves: 5, STANs: 900, PowerNs: 90, ThermalNs: 9}},
	}
	want := guardband.Stats{
		STAProbes: 7, ThermalSolves: 7, STANs: 1000, PowerNs: 100, ThermalNs: 10,
	}
	if got := SumStats(rs); got != want {
		t.Fatalf("SumStats = %+v, want %+v", got, want)
	}
}

func TestUnconverged(t *testing.T) {
	if un := Unconverged(nil); un != nil {
		t.Fatalf("Unconverged(nil) = %v, want nil", un)
	}
	rs := []BenchResult{
		{Name: "sha", Converged: true},
		{Name: "raygentop", Converged: false},
		{Name: "mkPktMerge", Converged: false},
	}
	if got, want := Unconverged(rs), []string{"raygentop", "mkPktMerge"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Unconverged = %v, want %v (suite order)", got, want)
	}
	if un := Unconverged(rs[:1]); un != nil {
		t.Fatalf("all-converged set must report nil, got %v", un)
	}
}

func TestSweepEdgeCases(t *testing.T) {
	cases := []struct {
		name         string
		lo, hi, step float64
		want         []float64
	}{
		{"single ambient", 25, 25, 5, []float64{25}},
		{"hi below lo", 10, 0, 5, nil},
		{"integral step", 0, 100, 25, []float64{0, 25, 50, 75, 100}},
		// 0.3 is not exactly representable: 0.3*3 accumulates to
		// 0.8999999999999999, and the endpoint must still be included.
		{"non-integral step", 0, 0.9, 0.3, []float64{0, 0.3, 0.6, 0.9}},
	}
	for _, c := range cases {
		got := sweep(c.lo, c.hi, c.step)
		if len(got) != len(c.want) {
			t.Fatalf("%s: sweep(%g,%g,%g) = %v, want %v", c.name, c.lo, c.hi, c.step, got, c.want)
		}
		for i := range got {
			if d := got[i] - c.want[i]; d > 1e-9 || d < -1e-9 {
				t.Fatalf("%s: point %d = %g, want %g", c.name, i, got[i], c.want[i])
			}
		}
	}
}
