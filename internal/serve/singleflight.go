package serve

import "sync"

// flightGroup deduplicates concurrent identical computations: while a
// key's compute is in flight, later callers block on it and share its
// result instead of recomputing — a thundering herd of identical sweep
// requests performs each grid exactly once. (Hand-rolled because the
// repo takes no external dependencies; semantics follow
// golang.org/x/sync/singleflight.)
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

type flightCall struct {
	wg   sync.WaitGroup
	val  []byte
	err  error
	dups int // callers that joined, counted under flightGroup.mu
}

// Do runs fn for key, coalescing concurrent duplicates onto one
// execution. shared is true for callers that joined an in-flight
// computation rather than leading one.
func (g *flightGroup) Do(key string, fn func() ([]byte, error)) (val []byte, err error, shared bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flightCall)
	}
	if c, ok := g.m[key]; ok {
		c.dups++
		g.mu.Unlock()
		c.wg.Wait()
		return c.val, c.err, true
	}
	c := &flightCall{}
	c.wg.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()
	c.wg.Done()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	return c.val, c.err, false
}
