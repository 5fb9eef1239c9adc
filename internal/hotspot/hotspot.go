// Package hotspot is the steady-state thermal simulator of the flow,
// replacing HotSpot 6 in the paper's Algorithm 1: the die is a grid of
// thermal nodes (one per FPGA tile) laterally coupled through silicon and
// vertically coupled through the package to a heat spreader/sink node that
// convects to ambient. Solving the resistive network for a per-tile power
// vector yields the per-tile junction temperatures the temperature-aware
// timing analysis consumes.
//
// Calibration follows the paper's own cross-validation against the Xilinx
// Power Estimator: the chip-average heating obeys ΔT ≈ 0.7 · p_design /
// p_base, where p_base is the device's idle leakage power. NewModel derives
// the sink resistance from that identity; the lateral/vertical split then
// sets how sharply hotspots stand out (the paper cites >20 °C spatial
// variation as attainable on FPGAs).
package hotspot

import (
	"fmt"
	"math"
)

// Model is a steady-state RC-network thermal model of one die.
type Model struct {
	W, H int

	// RSinkKPerW couples the spreader node to ambient, in K/W.
	RSinkKPerW float64
	// RVertKPerW couples each tile vertically to the spreader, in K/W.
	RVertKPerW float64
	// RLatKPerW couples laterally adjacent tiles, in K/W.
	RLatKPerW float64

	// Tolerance terminates the Gauss-Seidel relaxation of the reference
	// solver.
	Tolerance float64
	// MaxSweeps bounds the reference relaxation.
	MaxSweeps int

	// fact is the banded Cholesky factorization of the conductance matrix,
	// built once at NewModel time (see direct.go). Nil on models assembled
	// by struct literal, which then run the reference relaxation.
	fact *cholFactor
}

// XPESensitivity is the paper's cross-validation constant:
// ΔT ≈ XPESensitivity · p_design / p_base.
const XPESensitivity = 0.7

// NewModel builds a model for a W×H tile grid whose idle (base) leakage
// power is basePowerUW. The sink resistance is calibrated so the
// chip-average rise matches the XPE sensitivity; the vertical and lateral
// resistances are set for realistic on-chip temperature contrast.
func NewModel(w, h int, basePowerUW float64) (*Model, error) {
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("hotspot: invalid grid %dx%d", w, h)
	}
	if basePowerUW <= 0 {
		return nil, fmt.Errorf("hotspot: non-positive base power %g µW", basePowerUW)
	}
	const (
		rVert = 1800.0
		rLat  = 450.0
	)
	// Calibrate the sink so the *total* chip-average rise (sink plus the
	// mean vertical drop) honors the XPE identity; on very small grids the
	// vertical term alone can exceed the target, in which case the sink
	// keeps a small floor and the identity holds only approximately.
	rSink := XPESensitivity/(basePowerUW*1e-6) - rVert/float64(w*h)
	if floor := 0.05 * XPESensitivity / (basePowerUW * 1e-6); rSink < floor {
		rSink = floor
	}
	m := &Model{
		W: w, H: h,
		RSinkKPerW: rSink,
		RVertKPerW: rVert,
		RLatKPerW:  rLat,
		Tolerance:  1e-5,
		MaxSweeps:  20000,
	}
	m.fact = factorize(w, h, 1/m.RVertKPerW, 1/m.RLatKPerW)
	return m, nil
}

// validate checks a power vector and returns the spreader temperature.
func (m *Model) validate(powerUW []float64, ambientC float64) (float64, error) {
	n := m.W * m.H
	if len(powerUW) != n {
		return 0, fmt.Errorf("hotspot: power vector length %d != %d tiles", len(powerUW), n)
	}
	totalW := 0.0
	for _, p := range powerUW {
		if p < 0 {
			return 0, fmt.Errorf("hotspot: negative tile power %g", p)
		}
		totalW += p * 1e-6
	}
	// Spreader node: all heat convects through the sink resistance.
	return ambientC + m.RSinkKPerW*totalW, nil
}

// Solve returns the per-tile junction temperature in °C for the per-tile
// power vector (µW) and ambient temperature: one banded substitution through
// the factorization, or the reference relaxation on a struct-literal model.
func (m *Model) Solve(powerUW []float64, ambientC float64) ([]float64, error) {
	tSpread, err := m.validate(powerUW, ambientC)
	if err != nil {
		return nil, err
	}
	if m.fact == nil {
		return m.referenceSweeps(powerUW, tSpread)
	}
	return m.solveDirect(powerUW, tSpread), nil
}

// SolveReference is the seed Gauss-Seidel implementation, kept verbatim as
// the golden reference for the direct solver and the "before" half of the
// perf harness.
func (m *Model) SolveReference(powerUW []float64, ambientC float64) ([]float64, error) {
	tSpread, err := m.validate(powerUW, ambientC)
	if err != nil {
		return nil, err
	}
	return m.referenceSweeps(powerUW, tSpread)
}

// referenceSweeps is the original relaxation inner loop: neighbor offsets
// and denominators rebuilt at every node visit, cold start from the
// spreader temperature.
func (m *Model) referenceSweeps(powerUW []float64, tSpread float64) ([]float64, error) {
	n := m.W * m.H
	// Gauss-Seidel with successive over-relaxation on the die layer.
	temps := make([]float64, n)
	for i := range temps {
		temps[i] = tSpread
	}
	gVert := 1 / m.RVertKPerW
	gLat := 1 / m.RLatKPerW
	const omega = 1.6
	for sweep := 0; sweep < m.MaxSweeps; sweep++ {
		maxDelta := 0.0
		for y := 0; y < m.H; y++ {
			for x := 0; x < m.W; x++ {
				i := y*m.W + x
				num := powerUW[i]*1e-6 + gVert*tSpread
				den := gVert
				for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
					nx, ny := x+d[0], y+d[1]
					if nx < 0 || ny < 0 || nx >= m.W || ny >= m.H {
						continue
					}
					num += gLat * temps[ny*m.W+nx]
					den += gLat
				}
				next := num / den
				next = temps[i] + omega*(next-temps[i])
				if d := math.Abs(next - temps[i]); d > maxDelta {
					maxDelta = d
				}
				temps[i] = next
			}
		}
		if maxDelta < m.Tolerance {
			return temps, nil
		}
	}
	return nil, fmt.Errorf("hotspot: Gauss-Seidel did not converge in %d sweeps", m.MaxSweeps)
}

// Spread returns max(T) − min(T) of a temperature map, the paper's on-chip
// variation metric.
func Spread(temps []float64) float64 {
	if len(temps) == 0 {
		return 0
	}
	lo, hi := temps[0], temps[0]
	for _, t := range temps {
		if t < lo {
			lo = t
		}
		if t > hi {
			hi = t
		}
	}
	return hi - lo
}

// Mean returns the average temperature.
func Mean(temps []float64) float64 {
	if len(temps) == 0 {
		return 0
	}
	s := 0.0
	for _, t := range temps {
		s += t
	}
	return s / float64(len(temps))
}

// Max returns the hottest tile temperature. Like Mean and Spread it
// returns 0 for an empty map, so a degenerate grid can never inject -Inf
// into the UniformT collapse of Algorithm 1.
func Max(temps []float64) float64 {
	if len(temps) == 0 {
		return 0
	}
	hi := temps[0]
	for _, t := range temps[1:] {
		if t > hi {
			hi = t
		}
	}
	return hi
}
