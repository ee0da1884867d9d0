package main

import (
	"sync"
	"time"
)

// On a small VM the kernel can leave two newly busy threads on one
// core for up to a second or two after a single-threaded stretch
// before it moves one to the idle core. A p=2 run timed in that window
// measures the load balancer, not the program, and is what made
// data:2 bimodal in the prototype. The harness therefore waits, before
// timing anything that needs more than one core, until one spinning
// goroutine per core really runs in parallel. The wait is never part
// of a timed section or of setup_s.

var spinSink float64

// spin is a fixed amount of single-threaded arithmetic (~2 ms).
func spin() {
	x := 1.0
	for i := 0; i < 1_000_000; i++ {
		x = x*1.0000001 + 1e-9
	}
	spinSink = x
}

// settler remembers how long spin takes alone.
type settler struct {
	procs int
	alone time.Duration
}

// newSettler calibrates: the fastest of a few single-threaded spins.
func newSettler(procs int) *settler {
	s := &settler{procs: procs}
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		spin()
		if d := time.Since(t0); s.alone == 0 || d < s.alone {
			s.alone = d
		}
	}
	return s
}

// settle returns once procs concurrent spins take about as long as one
// (twice in a row), or after two seconds.
func (s *settler) settle() {
	if s.procs < 2 {
		return
	}
	good := 0
	for start := time.Now(); good < 2 && time.Since(start) < 2*time.Second; {
		var wg sync.WaitGroup
		t0 := time.Now()
		for g := 0; g < s.procs; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				spin()
			}()
		}
		wg.Wait()
		if time.Since(t0) < s.alone*3/2 {
			good++
		} else {
			good = 0
		}
	}
}
