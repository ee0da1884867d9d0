package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"paradl/internal/core"
	"paradl/internal/serve"
)

const (
	serveClients = 2  // closed-loop callers, each waiting for its reply
	hotKeys      = 64 // primed hot set
	adviseChecks = 32 // sampled /advise answers compared to core.Advise
	spanHeader   = "X-Bench-Span"
)

// churnKeys is the churn universe: 8x the server's LRU, so the working
// set cannot fit and eviction and recomputation run.
const churnKeys = 8 * serve.DefaultCacheEntries

// The three phases, in the order a slice runs them.
const (
	phaseCold = iota
	phaseHot
	phaseChurn
	numPhases
)

var phaseNames = [numPhases]string{"cold", "hot", "churn"}

// phaseShare is each phase's share of a slice.
var phaseShare = [numPhases]float64{0.30, 0.35, 0.35}

// sliceResult is what one phase observed in one slice.
type sliceResult struct {
	perSecond float64
	p50, p99  float64 // ms
	requests  int
	traced    bool
}

// planner is one in-process planner with the shipped defaults on its
// own loopback port. Each phase has its own, so that the phases can be
// interleaved in slices without the cold keys flushing the hot set or
// the churn working set out of the LRU.
type planner struct {
	srv     *serve.Server
	httpSrv *http.Server
	base    string
}

// serveClient is one closed-loop caller: its own keep-alive
// connections, its own draws, and the first body hash it saw per key.
type serveClient struct {
	http  *http.Client
	rng   *rand.Rand
	zipf  *rand.Zipf
	buf   bytes.Buffer
	first map[planReq]uint64
	latMS []float64
	done  int
	fails int
}

// serveSection owns the planner-serving side of a run: the three
// planners, the clients, and what every slice observed.
type serveSection struct {
	seed     int64
	rec      *spanRecorder
	cores    *settler
	planners [numPhases]*planner
	clients  []*serveClient
	hot      []planReq
	hseed    maphash.Seed
	tracing  atomic.Bool // clients open spans and tag requests
	coldNext atomic.Int64

	attempted, failed int
	slices            [numPhases][]sliceResult
	hits, misses      [numPhases]int64
}

// newServeSection starts the planners, warms one connection per client
// and planner, generates the hot set and primes it. All of it is
// set-up time.
func newServeSection(seed int64, dg *digester, rec *spanRecorder, cores *settler) (*serveSection, error) {
	s := &serveSection{seed: seed, rec: rec, cores: cores, hseed: maphash.MakeSeed()}
	for ph := range s.planners {
		p := &planner{srv: serve.New()}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, fmt.Errorf("serve section: %w", err)
		}
		handler := p.srv.Handler()
		if rec != nil {
			handler = s.spanMiddleware(handler)
		}
		p.httpSrv = &http.Server{Handler: handler}
		go p.httpSrv.Serve(ln) // returns once close() shuts the server down
		p.base = "http://" + ln.Addr().String()
		s.planners[ph] = p
	}
	for c := 0; c < serveClients; c++ {
		rng := rand.New(rand.NewSource(seed*1000 + int64(c)))
		cl := &serveClient{
			http:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 30 * time.Second},
			rng:   rng,
			zipf:  rand.NewZipf(rng, 1.1, 1, churnKeys-1),
			first: map[planReq]uint64{},
		}
		s.clients = append(s.clients, cl)
		for _, p := range s.planners {
			resp, err := cl.http.Get(p.base + "/healthz")
			if err != nil {
				s.close()
				return nil, fmt.Errorf("serve section: connection warm-up: %w", err)
			}
			cl.buf.Reset()
			cl.buf.ReadFrom(resp.Body)
			resp.Body.Close()
		}
	}
	for i := 0; i < hotKeys; i++ {
		r := genRequest(seed, hotTagBase+1+i, kindMixed)
		s.hot = append(s.hot, r)
		dg.bytes([]byte(r.path + r.body))
		s.do(s.clients[0], phaseHot, r)
	}
	for i := 0; i < 256; i++ {
		c, u := genRequest(seed, coldTagBase+1+i, kindMixed), genRequest(seed, churnTagBase+i, kindMixed)
		dg.bytes([]byte(c.path + c.body + u.path + u.body))
	}
	s.foldClients()
	return s, nil
}

// churnPrimed is how many of the most popular churn keys set-up sends
// once: they carry ~80% of the Zipf mass, so the churn phase starts
// near its steady hit ratio instead of spending a short slice filling
// an empty LRU.
const churnPrimed = 1024

// warmChurn primes the churn planner with the most popular keys.
func (s *serveSection) warmChurn() {
	for rank := 0; rank < churnPrimed; rank++ {
		s.do(s.clients[rank%len(s.clients)], phaseChurn, genRequest(s.seed, churnTagBase+rank, kindMixed))
	}
	s.foldClients()
}

// close shuts the planners down and waits for their connections to end.
func (s *serveSection) close() {
	for _, c := range s.clients {
		c.http.CloseIdleConnections()
	}
	for _, p := range s.planners {
		if p == nil {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := p.httpSrv.Shutdown(ctx); err != nil {
			p.httpSrv.Close()
		}
		cancel()
	}
}

// spanMiddleware records the server-side span of a tagged request as a
// child of the client's request span. It wraps the program's handler
// from outside; nothing inside internal/ is touched.
func (s *serveSection) spanMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tag := r.Header.Get(spanHeader)
		if tag == "" {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.Atoi(tag) // clients send only ids they were given
		id := s.rec.begin("serve.handler", parent)
		next.ServeHTTP(w, r)
		s.rec.end(id)
	})
}

// do sends one request to the phase's planner and waits for the reply.
// The request fails when the transport errors, the status is not 200
// (a shed request is 503), or the body differs from the first body
// seen for its key.
func (s *serveSection) do(c *serveClient, ph int, r planReq) {
	c.done++
	req, err := http.NewRequest(http.MethodPost, s.planners[ph].base+r.path, strings.NewReader(r.body))
	if err != nil {
		c.fails++
		return
	}
	req.Header.Set("Content-Type", "application/json")
	id := -1
	if s.tracing.Load() {
		id = s.rec.begin("serve.request."+phaseNames[ph], -1)
		req.Header.Set(spanHeader, strconv.Itoa(id))
	}
	t0 := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		c.fails++
		return
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	c.latMS = append(c.latMS, time.Since(t0).Seconds()*1e3)
	s.rec.end(id)
	if err != nil || resp.StatusCode != http.StatusOK {
		c.fails++
		return
	}
	h := maphash.Bytes(s.hseed, c.buf.Bytes())
	if first, seen := c.first[r]; !seen {
		c.first[r] = h
	} else if first != h {
		c.fails++
	}
}

// foldClients moves the clients' counts into the section.
func (s *serveSection) foldClients() {
	for _, c := range s.clients {
		s.attempted += c.done
		s.failed += c.fails
		c.done, c.fails = 0, 0
	}
}

// next draws client c's next request of phase ph: the next unused cold
// key, a uniformly drawn hot key, or a Zipf-ranked churn key.
func (s *serveSection) next(c *serveClient, ph int) planReq {
	switch ph {
	case phaseCold:
		return genRequest(s.seed, coldTagBase+int(s.coldNext.Add(1)), kindMixed)
	case phaseHot:
		return s.hot[c.rng.Intn(len(s.hot))]
	default:
		return genRequest(s.seed, churnTagBase+int(c.zipf.Uint64()), kindMixed)
	}
}

// phase runs every client closed-loop against phase ph's planner for
// d: each sends its next request and waits for the reply before
// sending again.
func (s *serveSection) phase(ph int, d time.Duration, traced bool) {
	s.cores.settle()
	s.tracing.Store(traced)
	before := s.planners[ph].srv.Stats()
	for _, c := range s.clients {
		c.latMS = c.latMS[:0]
	}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for _, c := range s.clients {
		wg.Add(1)
		go func(c *serveClient) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				s.do(c, ph, s.next(c, ph))
			}
		}(c)
	}
	wg.Wait()
	seconds := time.Since(start).Seconds()
	s.tracing.Store(false)
	after := s.planners[ph].srv.Stats()
	s.hits[ph] += after.CacheHits - before.CacheHits
	s.misses[ph] += after.CacheMisses - before.CacheMisses
	var lat []float64
	res := sliceResult{traced: traced}
	for _, c := range s.clients {
		lat = append(lat, c.latMS...)
		res.requests += c.done
	}
	res.perSecond = float64(res.requests) / seconds
	res.p50, res.p99 = percentile(lat, 50), percentile(lat, 99)
	s.slices[ph] = append(s.slices[ph], res)
	s.foldClients()
}

// slice runs the three phases once, sharing d between them.
func (s *serveSection) slice(d time.Duration, traced bool) {
	for ph := 0; ph < numPhases; ph++ {
		s.phase(ph, time.Duration(float64(d)*phaseShare[ph]), traced)
	}
}

// finish runs the checks that need the whole section: keys shared by
// clients, the planners' counters, and the sampled /advise answers.
func (s *serveSection) finish() {
	for k, h := range s.clients[0].first {
		for _, c := range s.clients[1:] {
			if other, ok := c.first[k]; ok && other != h {
				s.attempted++
				s.failed++
				fmt.Printf("# FAILED two clients saw different bodies for %s %s\n", k.path, k.body)
			}
		}
	}
	// Every cold key was sent once and every hot key many times: each
	// must have been computed exactly once — nothing shed, nothing
	// evicted, nothing computed twice.
	st := s.stats()
	cold, wantCold := s.planners[phaseCold].srv.Stats().Computations, s.coldNext.Load()
	hot := s.planners[phaseHot].srv.Stats().Computations
	if cold != wantCold || hot != hotKeys || st.Shed != 0 || st.Errors != 0 {
		s.attempted++
		s.failed++
		fmt.Printf("# FAILED planner counters: cold computations=%d want %d, hot computations=%d want %d, shed=%d errors=%d want 0\n",
			cold, wantCold, hot, hotKeys, st.Shed, st.Errors)
	}
	s.checkAdvise()
}

// stats sums the three planners' counters.
func (s *serveSection) stats() serve.Stats {
	var sum serve.Stats
	for _, p := range s.planners {
		st := p.srv.Stats()
		sum.Computations += st.Computations
		sum.Coalesced += st.Coalesced
		sum.Shed += st.Shed
		sum.Errors += st.Errors
	}
	return sum
}

// checkAdvise fetches sampled /advise answers and compares each to the
// in-process advisor's answer for the same request, byte for byte.
func (s *serveSection) checkAdvise() {
	c := s.clients[0]
	for i := 0; i < adviseChecks; i++ {
		r := genRequest(s.seed, coldTagBase+1+i, kindAdvise)
		want, err := inProcessAdvise(r.body)
		fails := c.fails
		s.do(c, phaseCold, r)
		if err != nil || (c.fails == fails && !bytes.Equal(c.buf.Bytes(), want)) {
			c.fails = fails + 1
			fmt.Printf("# FAILED /advise answer differs from core.Advise for %s (err=%v)\n", r.body, err)
		}
	}
	s.foldClients()
}

// inProcessAdvise is what the planner must answer for an /advise body.
func inProcessAdvise(body string) ([]byte, error) {
	var req serve.Request
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		return nil, err
	}
	cfg, err := req.Config()
	if err != nil {
		return nil, err
	}
	advs, err := core.Advise(cfg)
	if err != nil {
		return nil, err
	}
	return json.Marshal(advs)
}

// over folds one figure of phase ph's slices: fold over the untraced
// slices (or, with traced set, the traced ones).
func (s *serveSection) over(ph int, traced bool, get func(sliceResult) float64, fold func([]float64) float64) float64 {
	var xs []float64
	for _, r := range s.slices[ph] {
		if r.traced == traced {
			xs = append(xs, get(r))
		}
	}
	return fold(xs)
}

func fastest(xs []float64) float64  { return undisturbed(xs, higher) }
func quickest(xs []float64) float64 { return undisturbed(xs, lower) }

func perSecond(r sliceResult) float64 { return r.perSecond }
func p50(r sliceResult) float64       { return r.p50 }
func p99(r sliceResult) float64       { return r.p99 }

// endToEnd returns the four serving metrics of an untraced run: per
// slice a rate or a latency percentile, over the slices the
// undisturbed quartile (see undisturbed).
func (s *serveSection) endToEnd() map[string]float64 {
	return map[string]float64{
		"cold_ms_p50":     s.over(phaseCold, false, p50, quickest),
		"cold_ms_p99":     s.over(phaseCold, false, p99, quickest),
		"hot_req_per_s":   s.over(phaseHot, false, perSecond, fastest),
		"churn_req_per_s": s.over(phaseChurn, false, perSecond, fastest),
	}
}

func (s *serveSection) hitRatio(ph int) float64 {
	if total := s.hits[ph] + s.misses[ph]; total > 0 {
		return float64(s.hits[ph]) / float64(total)
	}
	return 0
}

// layerMetrics returns the serving rungs a traced run observed. The
// loopback overhead is the request span's self time: the client's wait
// minus the handler span it caused (socket, net/http, scheduling).
func (s *serveSection) layerMetrics() map[string]float64 {
	st := s.stats()
	out := map[string]float64{
		"serve.hot_ms_p50":      s.over(phaseHot, true, p50, median),
		"serve.hot_ms_p99":      s.over(phaseHot, true, p99, median),
		"serve.churn_ms_p50":    s.over(phaseChurn, true, p50, median),
		"serve.churn_ms_p99":    s.over(phaseChurn, true, p99, median),
		"serve.hit_ratio.hot":   s.hitRatio(phaseHot),
		"serve.hit_ratio.churn": s.hitRatio(phaseChurn),
		"serve.computations":    float64(st.Computations),
		"serve.coalesced":       float64(st.Coalesced),
		"serve.shed":            float64(st.Shed),
		"serve.errors":          float64(st.Errors),
	}
	self, count := s.rec.selfByName()
	if n := count["serve.request.hot"]; n > 0 {
		out["serve.loopback_overhead_us"] = float64(self["serve.request.hot"]) / float64(n) / 1e3
	}
	return out
}

// tracedOverheadPct is the hot phase's tracing overhead: the
// throughput lost between its untraced and its traced slices.
func (s *serveSection) tracedOverheadPct() float64 {
	if t := s.over(phaseHot, true, perSecond, median); t > 0 {
		return (s.over(phaseHot, false, perSecond, median)/t - 1) * 100
	}
	return 0
}

// nullWriter is an http.ResponseWriter that keeps nothing, so the
// handler rungs time and count the handler alone.
type nullWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *nullWriter) Header() http.Header { return w.h }
func (w *nullWriter) WriteHeader(c int)   { w.code = c }
func (w *nullWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return len(b), nil
}

// call runs one request through handler h with no socket; it reports
// whether the handler answered 200 with a body.
func call(h http.Handler, r planReq) bool {
	req, err := http.NewRequest(http.MethodPost, r.path, strings.NewReader(r.body))
	if err != nil {
		return false
	}
	w := &nullWriter{h: http.Header{}, code: http.StatusOK}
	h.ServeHTTP(w, req)
	return w.code == http.StatusOK && w.n > 0
}
