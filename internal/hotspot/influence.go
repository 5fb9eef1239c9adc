package hotspot

import "fmt"

// influence.go exposes single columns of the inverse die conductance
// matrix. Because the spreader couples to every tile through the same
// vertical resistance, the steady-state solution decomposes exactly as
// T = tSpread·1 + K⁻¹·p: the per-tile rise over the spreader is linear in
// the power vector. A placer can therefore price a power move by
// superposing two influence columns instead of re-solving the die — the
// thermalest estimator is built on these columns.

// Influence fills out (length W·H, row-major grid order) with column src
// of K⁻¹: out[j] is the steady-state temperature rise at tile j, in kelvin
// per watt injected at tile src, measured above the spreader temperature.
// The factorized path answers in one banded substitution; a struct-literal
// model runs the reference relaxation on a unit-impulse power map.
func (m *Model) Influence(src int, out []float64) error {
	n := m.W * m.H
	if src < 0 || src >= n {
		return fmt.Errorf("hotspot: influence source %d outside %d-tile grid", src, n)
	}
	if len(out) != n {
		return fmt.Errorf("hotspot: influence output length %d != %d tiles", len(out), n)
	}
	if f := m.fact; f != nil {
		rhs := f.rhsPool.Get().([]float64)
		for s, g := range f.perm {
			if int(g) == src {
				rhs[s] = 1
			} else {
				rhs[s] = 0
			}
		}
		f.solveInPlace(rhs)
		for s, g := range f.perm {
			out[g] = rhs[s]
		}
		f.rhsPool.Put(rhs) //nolint:staticcheck // slice header allocation is negligible
		return nil
	}
	// Reference relaxation: a unit impulse is 1 W = 1e6 µW at src with the
	// spreader held at zero, so the relaxation converges straight onto the
	// rise field.
	power := make([]float64, n)
	power[src] = 1e6
	temps, err := m.referenceSweeps(power, 0)
	if err != nil {
		return err
	}
	copy(out, temps)
	return nil
}
