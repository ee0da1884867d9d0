// Package collective provides the communication primitives of the
// paper in two mirrored forms:
//
//   - analytic: Hockney α–β closed forms for ring/tree collectives
//     (§4.3) — these are what the ParaDL oracle evaluates, and
//   - simulated: step-by-step flow schedules on the simnet fabric —
//     these are what the "measured" side of the reproduction runs,
//     including self-contention between concurrent collectives and
//     background congestion.
package collective

import "math"

// AB aliases the Hockney parameter pair to keep signatures short.
type AB struct {
	Alpha, Beta float64
}

// RingAllreduce returns 2(p−1)(α + m/p·β) — the large-message NCCL ring
// algorithm (§4.3). m is the full buffer size in bytes.
func RingAllreduce(ab AB, p int, m float64) float64 {
	if p <= 1 {
		return 0
	}
	return 2 * float64(p-1) * (ab.Alpha + m/float64(p)*ab.Beta)
}

// RingAllgather returns (p−1)(α + m·β) where m is the PER-PE chunk each
// process contributes (the paper's Tag(p, B|y|/p) convention).
func RingAllgather(ab AB, p int, chunk float64) float64 {
	if p <= 1 {
		return 0
	}
	return float64(p-1) * (ab.Alpha + chunk*ab.Beta)
}

// Bcast returns ⌈log₂(p)⌉·(α + m·β): a binomial-tree broadcast, or the
// mirrored tree reduce (the ds leader hierarchy, §5.3.1).
func Bcast(ab AB, p int, m float64) float64 {
	if p <= 1 {
		return 0
	}
	return math.Ceil(math.Log2(float64(p))) * (ab.Alpha + m*ab.Beta)
}

// P2P returns α + m·β.
func P2P(ab AB, m float64) float64 { return ab.Alpha + m*ab.Beta }

// HaloExchange returns the per-layer halo cost of the spatial strategy:
// 2α + haloBytes·β for the bidirectional neighbour exchange, matching
// the Σ(2α + B(halo(x)+halo(dy))δβ) term of Table 3.
func HaloExchange(ab AB, haloBytes float64) float64 {
	return 2*ab.Alpha + haloBytes*ab.Beta
}

// WithContention divides effective bandwidth by the contention penalty
// coefficient φ (φ flows sharing each link, §4.3 "Contention
// modeling"); α is unchanged.
func WithContention(ab AB, phi float64) AB {
	if phi < 1 {
		phi = 1
	}
	return AB{Alpha: ab.Alpha, Beta: ab.Beta * phi}
}
