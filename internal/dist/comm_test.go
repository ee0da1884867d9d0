package dist

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"paradl/internal/tensor"
)

// TestAllReduceDeterministic: every PE ends with the identical sum,
// reduced in ascending rank order regardless of arrival order.
func TestAllReduceDeterministic(t *testing.T) {
	const p = 4
	w := NewWorld(p)
	results := make([]*tensor.Tensor, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := w.Comm(rank)
			x := tensor.New(3)
			x.Fill(float64(rank + 1))
			results[rank] = c.AllReduceSum(x)
		}(r)
	}
	wg.Wait()
	for r := 0; r < p; r++ {
		if got := results[r].At(0); got != 10 {
			t.Fatalf("rank %d: sum %g, want 10", r, got)
		}
		if !results[r].AllClose(results[0], 0) {
			t.Fatalf("rank %d diverged from rank 0", r)
		}
	}
}

// TestAllGatherOrder: shards concatenate in rank order along the axis.
func TestAllGatherOrder(t *testing.T) {
	const p = 3
	w := NewWorld(p)
	results := make([]*tensor.Tensor, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := w.Comm(rank)
			x := tensor.New(2, 1)
			x.Fill(float64(rank))
			results[rank] = c.AllGather(x, 1)
		}(r)
	}
	wg.Wait()
	for r := 0; r < p; r++ {
		for col := 0; col < p; col++ {
			if got := results[r].At(0, col); got != float64(col) {
				t.Fatalf("rank %d col %d: %g, want %d", r, col, got, col)
			}
		}
	}
}

// TestSubCommIsolation: the §3.6 grid layout — two groups {0,1} and
// {2,3} plus two segments {0,2} and {1,3} — runs group allreduces and
// segment allgathers concurrently over one world, and every collective
// sees only its own members.
func TestSubCommIsolation(t *testing.T) {
	const p = 4
	w := NewWorld(p)
	sums := make([]*tensor.Tensor, p)
	gathers := make([]*tensor.Tensor, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := w.Comm(rank)
			group := c.Sub([]int{rank / 2 * 2, rank/2*2 + 1})
			seg := c.Sub([]int{rank % 2, rank%2 + 2})
			if group.Size() != 2 || seg.Size() != 2 {
				t.Errorf("rank %d: group size %d, segment size %d, want 2, 2", rank, group.Size(), seg.Size())
				return
			}
			if got, want := group.Rank(), rank%2; got != want {
				t.Errorf("rank %d: group rank %d, want %d", rank, got, want)
				return
			}
			if got, want := seg.Rank(), rank/2; got != want {
				t.Errorf("rank %d: segment rank %d, want %d", rank, got, want)
				return
			}
			x := tensor.New(2)
			x.Fill(float64(rank + 1))
			sums[rank] = group.AllReduceSum(x.Clone())
			gathers[rank] = seg.AllGather(x, 0)
		}(r)
	}
	wg.Wait()
	for r := 0; r < p; r++ {
		wantSum := float64(1 + 2)
		if r >= 2 {
			wantSum = 3 + 4
		}
		if got := sums[r].At(0); got != wantSum {
			t.Fatalf("rank %d: group sum %g, want %g", r, got, wantSum)
		}
		// Segment gather concatenates {k+1, k+3} for segment k = r%2.
		k := r % 2
		for g := 0; g < 2; g++ {
			if got, want := gathers[r].At(g*2), float64(g*2+k+1); got != want {
				t.Fatalf("rank %d: segment gather[%d] = %g, want %g", r, g*2, got, want)
			}
		}
	}
}

// TestSubValidation: malformed memberships panic before any traffic.
func TestSubValidation(t *testing.T) {
	w := NewWorld(3)
	c := w.Comm(0)
	for name, members := range map[string][]int{
		"empty":      {},
		"duplicate":  {0, 0},
		"out-range":  {0, 3},
		"non-member": {1, 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s membership %v must panic", name, members)
				}
			}()
			c.Sub(members)
		}()
	}
}

// TestSubOfSub: membership composes through nested sub-communicators —
// Sub's members are always ranks of the communicator it is called on.
func TestSubOfSub(t *testing.T) {
	w := NewWorld(4)
	results := make([]*tensor.Tensor, 4)
	var wg sync.WaitGroup
	for _, r := range []int{1, 2} {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			upper := w.Comm(rank).Sub([]int{1, 2, 3}) // world ranks 1..3
			duo := upper.Sub([]int{0, 1})             // upper ranks 0,1 = world ranks 1,2
			x := tensor.New(1)
			x.Set(float64(rank), 0)
			results[rank] = duo.AllReduceSum(x)
		}(r)
	}
	wg.Wait()
	for _, r := range []int{1, 2} {
		if got := results[r].At(0); got != 3 {
			t.Fatalf("rank %d: nested sum %g, want 3", r, got)
		}
	}
}

// failTimings are the two moments a test's failing PE dies: at once,
// while its peers are still inside the receive's poll window, and after
// sleeping well past the budget, once they have parked.
var failTimings = []struct {
	name  string
	delay time.Duration
}{{"polling", 0}, {"parked", 10 * waitBudget}}

// TestWorldAbortOnFailure: one failing PE tears the world down instead
// of deadlocking peers waiting in Recv, whether they are still polling
// or already parked.
func TestWorldAbortOnFailure(t *testing.T) {
	for _, p := range []int{2, 4} {
		for _, ft := range failTimings {
			t.Run(fmt.Sprintf("p=%d/%s", p, ft.name), func(t *testing.T) {
				_, err := runWorld(p, 0, func(c *Comm) ([]float64, error) {
					if c.Rank() == 0 {
						time.Sleep(ft.delay)
						panic("injected failure")
					}
					c.Recv(0) // would wait forever without the abort path
					return nil, nil
				})
				if err == nil || !strings.Contains(err.Error(), "injected failure") {
					t.Fatalf("want injected failure error, got %v", err)
				}
			})
		}
	}
}

// A receive watches abort on every poll, not only once it parks: with
// the world already failed, it unwinds before the budget is spent. A
// receive that checked abort only when parked would take the whole
// budget every time; one attempt in twenty finishing early, on a loaded
// machine, is enough to tell the two apart. A world failing a quarter
// of the budget into the wait unwinds the receive too; how soon depends
// on the scheduler's timers, so only the panic is checked there.
func TestRecvWatchesAbortWhilePolling(t *testing.T) {
	var fastest time.Duration
	for try := 0; try < 20; try++ {
		w := NewWorld(2)
		w.fail(errors.New("peer failed"))
		start := time.Now()
		if r := panicOf(func() { w.Comm(1).Recv(0) }); r != errAborted {
			t.Fatalf("receive panicked with %v, want errAborted", r)
		}
		if took := time.Since(start); try == 0 || took < fastest {
			fastest = took
		}
	}
	if fastest >= waitBudget {
		t.Fatalf("fastest of 20 aborted receives took %v, not under the %v poll budget: the poll loop does not watch abort", fastest, waitBudget)
	}

	w := NewWorld(2)
	go func() {
		time.Sleep(waitBudget / 4)
		w.fail(errors.New("peer failed"))
	}()
	if r := panicOf(func() { w.Comm(1).Recv(0) }); r != errAborted {
		t.Fatalf("receive aborted mid-poll panicked with %v, want errAborted", r)
	}
}

// A message of the wrong kind — a scalar where a collective expects a
// tensor, or a tensor where it expects a scalar — means the PEs run
// different collectives, and the receive says so. It is caught whether
// the message is already queued (found while polling) or arrives only
// after the budget (found once parked).
func TestRecvKindDiverged(t *testing.T) {
	cases := []struct {
		name string
		send func(c *Comm)
		recv func(c *Comm)
	}{
		{"scalar-for-tensor", func(c *Comm) { c.sendScalar(1, 3) }, func(c *Comm) { c.Recv(0) }},
		{"tensor-for-scalar", func(c *Comm) { c.Send(1, tensor.New(2)) }, func(c *Comm) { c.recvScalar(0) }},
	}
	for _, tc := range cases {
		for _, ft := range []struct {
			name  string
			delay time.Duration
		}{{"queued", -1}, {"after-budget", 10 * waitBudget}} {
			t.Run(tc.name+"/"+ft.name, func(t *testing.T) {
				w := NewWorld(2)
				if ft.delay < 0 {
					tc.send(w.Comm(0))
				} else {
					go func() {
						time.Sleep(ft.delay)
						tc.send(w.Comm(0))
					}()
				}
				r := panicOf(func() { tc.recv(w.Comm(1)) })
				msg, _ := r.(string)
				if !strings.Contains(msg, "collective program order diverged") {
					t.Fatalf("receive panicked with %v, want a collective program order diagnostic", r)
				}
			})
		}
	}
}

// panicOf runs f and returns what it panicked with (nil if it
// returned).
func panicOf(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// TestSendIsolation: messages are deep copies; mutating the original
// after Send must not corrupt the delivered payload.
func TestSendIsolation(t *testing.T) {
	w := NewWorld(2)
	src := tensor.New(2)
	src.Fill(7)
	c0, c1 := w.Comm(0), w.Comm(1)
	c0.Send(1, src)
	src.Fill(-1)
	got := c1.Recv(0)
	if got.At(0) != 7 {
		t.Fatalf("payload mutated in flight: %v", got)
	}
}
