package collective

import (
	"fmt"

	"paradl/internal/simnet"
)

// FlowSpec describes one point-to-point transfer within a round.
type FlowSpec struct {
	Src, Dst int
	Bytes    float64
	// MPI selects the host-staged path (the paper's halo exchange and
	// Allgatherv ran over MPI rather than NCCL, §5.1).
	MPI bool
}

// Op is a communication operation expressed as synchronized rounds of
// concurrent flows: round r+1 starts only after every flow of round r
// has completed (the step barrier of ring algorithms).
type Op struct {
	Name   string
	Rounds [][]FlowSpec
}

// RingAllreduceOp builds the 2(p−1)-round ring Allreduce schedule among
// pes for an m-byte buffer: each round, every PE sends m/p to its ring
// successor (reduce-scatter phase then allgather phase — identical flow
// pattern on the wire).
func RingAllreduceOp(pes []int, m float64) *Op {
	p := len(pes)
	op := &Op{Name: fmt.Sprintf("allreduce(p=%d)", p)}
	if p <= 1 || m <= 0 {
		return op
	}
	chunk := m / float64(p)
	for step := 0; step < 2*(p-1); step++ {
		round := make([]FlowSpec, 0, p)
		for i := 0; i < p; i++ {
			round = append(round, FlowSpec{Src: pes[i], Dst: pes[(i+1)%p], Bytes: chunk})
		}
		op.Rounds = append(op.Rounds, round)
	}
	return op
}

// RingAllgatherOp builds the (p−1)-round ring Allgather among pes where
// each PE contributes a chunk of the given size.
func RingAllgatherOp(pes []int, chunk float64, mpi bool) *Op {
	p := len(pes)
	op := &Op{Name: fmt.Sprintf("allgather(p=%d)", p)}
	if p <= 1 || chunk <= 0 {
		return op
	}
	for step := 0; step < p-1; step++ {
		round := make([]FlowSpec, 0, p)
		for i := 0; i < p; i++ {
			round = append(round, FlowSpec{Src: pes[i], Dst: pes[(i+1)%p], Bytes: chunk, MPI: mpi})
		}
		op.Rounds = append(op.Rounds, round)
	}
	return op
}

// BcastOp builds a binomial-tree broadcast of m bytes from pes[0].
func BcastOp(pes []int, m float64) *Op {
	p := len(pes)
	op := &Op{Name: fmt.Sprintf("bcast(p=%d)", p)}
	if p <= 1 || m <= 0 {
		return op
	}
	have := 1 // pes[0..have) hold the data
	for have < p {
		round := make([]FlowSpec, 0, have)
		for i := 0; i < have && have+i < p; i++ {
			round = append(round, FlowSpec{Src: pes[i], Dst: pes[have+i], Bytes: m})
		}
		op.Rounds = append(op.Rounds, round)
		have *= 2
	}
	return op
}

// HaloExchangeOp builds the single-round bidirectional neighbour
// exchange of the spatial strategy: each PE swaps haloBytes with its
// successor (and implicitly its predecessor) in the logical spatial
// order. Runs on the MPI path when mpi is true, as in the paper.
func HaloExchangeOp(pes []int, haloBytes float64, mpi bool) *Op {
	p := len(pes)
	op := &Op{Name: fmt.Sprintf("halo(p=%d)", p)}
	if p <= 1 || haloBytes <= 0 {
		return op
	}
	round := make([]FlowSpec, 0, 2*(p-1))
	for i := 0; i+1 < p; i++ {
		round = append(round,
			FlowSpec{Src: pes[i], Dst: pes[i+1], Bytes: haloBytes, MPI: mpi},
			FlowSpec{Src: pes[i+1], Dst: pes[i], Bytes: haloBytes, MPI: mpi},
		)
	}
	op.Rounds = append(op.Rounds, round)
	return op
}

// P2POp builds a single transfer.
func P2POp(src, dst int, m float64, mpi bool) *Op {
	return &Op{
		Name:   "p2p",
		Rounds: [][]FlowSpec{{{Src: src, Dst: dst, Bytes: m, MPI: mpi}}},
	}
}

// RingRound builds ONE representative round of a ring collective among
// pes (every PE sends `chunk` bytes to its successor) together with the
// round count for the full operation. Ring rounds are structurally
// identical, so simulating one and multiplying by the count gives the
// exact steady-state time at a fraction of the event cost — essential
// for the 512–1024-GPU scales of Fig. 3. kind is "allreduce" (2(p−1)
// rounds), "allgather" or "reducescatter" (p−1 rounds).
func RingRound(kind string, pes []int, chunk float64, mpi bool) (*Op, int) {
	p := len(pes)
	op := &Op{Name: fmt.Sprintf("%s-round(p=%d)", kind, p)}
	if p <= 1 || chunk <= 0 {
		return op, 0
	}
	round := make([]FlowSpec, 0, p)
	for i := 0; i < p; i++ {
		round = append(round, FlowSpec{Src: pes[i], Dst: pes[(i+1)%p], Bytes: chunk, MPI: mpi})
	}
	op.Rounds = [][]FlowSpec{round}
	steps := p - 1
	if kind == "allreduce" {
		steps = 2 * (p - 1)
	}
	return op, steps
}

// Run executes a single op on a fresh position of sim and returns its
// elapsed time. Background flows already present in sim contend with
// it.
func Run(sim *simnet.Sim, topo *simnet.Topology, op *Op) float64 {
	els := RunConcurrent(sim, topo, []*Op{op})
	return els[0]
}

// RunConcurrent executes several ops concurrently on one simulator:
// each op's rounds advance independently (round barriers are per-op),
// and ops contend for shared links — this is how the segmented
// Allreduces of Data+Filter produce the φ≈2 contention the paper
// models (§4.3, §5.2). The returned slice holds each op's elapsed time
// from the common start.
func RunConcurrent(sim *simnet.Sim, topo *simnet.Topology, ops []*Op) []float64 {
	start := sim.Now()
	type opState struct {
		nextRound int
		pending   []simnet.FlowID
		finished  bool
		elapsed   float64
	}
	states := make([]opState, len(ops))
	// Empty ops complete immediately.
	for i, op := range ops {
		if len(op.Rounds) == 0 {
			states[i].finished = true
		}
	}
	launch := func(i int) {
		op := ops[i]
		st := &states[i]
		round := op.Rounds[st.nextRound]
		st.nextRound++
		for _, f := range round {
			var path []simnet.LinkID
			if f.MPI {
				path = topo.RouteMPI(f.Src, f.Dst)
			} else {
				path = topo.Route(f.Src, f.Dst)
			}
			st.pending = append(st.pending, sim.Start(path, f.Bytes))
		}
	}
	allFinished := func() bool {
		for i := range states {
			if !states[i].finished {
				return false
			}
		}
		return true
	}
	for !allFinished() {
		// Launch next rounds for every op that is ready.
		for i := range states {
			st := &states[i]
			if st.finished || len(st.pending) > 0 {
				continue
			}
			launch(i)
		}
		if !sim.Advance() {
			panic("collective: simulator stalled with unfinished ops")
		}
		// Retire completed rounds.
		for i := range states {
			st := &states[i]
			if st.finished || len(st.pending) == 0 {
				continue
			}
			done := true
			for _, id := range st.pending {
				if !sim.Done(id) {
					done = false
					break
				}
			}
			if !done {
				continue
			}
			st.pending = st.pending[:0]
			if st.nextRound >= len(ops[i].Rounds) {
				st.finished = true
				st.elapsed = sim.Now() - start
			}
		}
	}
	out := make([]float64, len(ops))
	for i := range states {
		out[i] = states[i].elapsed
	}
	return out
}
