// White-box abort-path test: concurrent World.fail from several PEs
// while nonblocking collective handles are still in flight must
// neither deadlock nor double-close the abort channel. Run under
// -race (the Makefile's race-elastic target does).
package dist

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"paradl/internal/tensor"
)

// TestConcurrentFailAbortNoDeadlock launches a 4-PE world where every
// PE posts a nonblocking allreduce, then — after a barrier that
// guarantees all handles are in flight — three PEs fail at the same
// instant while rank 0 is (or is about to be) blocked in Wait. The
// world must come down with an error, every goroutine must exit, and
// the sync.Once-guarded fail path must absorb the concurrent failures
// without panicking on a double close.
func TestConcurrentFailAbortNoDeadlock(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		var ready sync.WaitGroup
		ready.Add(4)
		_, err := runWorld(4, 0, func(c *Comm) ([]float64, error) {
			h := c.IAllReduceSum(tensor.New(64))
			ready.Done()
			ready.Wait() // every handle is now in flight
			if c.Rank() != 0 {
				// Three concurrent failures, handle deliberately dropped:
				// the error path must tolerate unwaited handles.
				_ = h
				return nil, fmt.Errorf("rank %d: synthetic fault", c.Rank())
			}
			h.Wait() // may complete or panic errAborted; both must unwind cleanly
			return []float64{0}, nil
		})
		if err == nil {
			t.Fatalf("trial %d: world survived three concurrent PE failures", trial)
		}
	}
}

// TestFailAtConvertsToTypedError pins the runWorld recover path: an
// injected *PEFailure panic surfaces as the world's error with its
// type intact (the elastic supervisor matches on it), while peer PEs
// die silently as aborted — both while they still poll for the dead
// PE's message and after they have parked. p = 3 keeps a world whose
// size is not a power of two, where the tree's ranks wait on different
// peers when one dies.
func TestFailAtConvertsToTypedError(t *testing.T) {
	for _, p := range []int{2, 3, 4} {
		for _, ft := range failTimings {
			t.Run(fmt.Sprintf("p=%d/%s", p, ft.name), func(t *testing.T) {
				_, err := runWorld(p, 0, func(c *Comm) ([]float64, error) {
					if c.Rank() == 1 {
						time.Sleep(ft.delay)
						panic(&PEFailure{PE: 1, Iter: 7})
					}
					// Peers wait in a collective the failed PE never joins.
					c.AllReduceSum(tensor.New(8))
					return []float64{0}, nil
				})
				if err == nil {
					t.Fatal("world with a dead PE returned nil error")
				}
				var pf *PEFailure
				if !errors.As(err, &pf) {
					t.Fatalf("world error %v does not unwrap to *PEFailure", err)
				}
				if pf.PE != 1 || pf.Iter != 7 {
					t.Fatalf("typed failure %+v, want PE=1 Iter=7", pf)
				}
			})
		}
	}
}
