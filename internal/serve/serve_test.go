package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"paradl/internal/core"
)

func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func newTestServer(t *testing.T, opts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts...)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	resp2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var doc map[string]json.RawMessage
	if err := json.NewDecoder(resp2.Body).Decode(&doc); err != nil {
		t.Fatalf("metrics is not JSON: %v", err)
	}
	for _, k := range []string{"requests", "cache_hits", "cache_misses", "singleflight_coalesced", "computations", "projections", "errors", "latency"} {
		if _, ok := doc[k]; !ok {
			t.Fatalf("metrics missing %q: %v", k, doc)
		}
	}
	resp3, err := http.Get(ts.URL + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if ct := resp3.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("prom content type %q", ct)
	}
	prom, err := io.ReadAll(resp3.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE paradl_serve_requests_total counter",
		"# TYPE paradl_serve_request_duration_seconds histogram",
		"paradl_serve_request_duration_seconds_bucket{le=\"+Inf\"}",
	} {
		if !strings.Contains(string(prom), want) {
			t.Fatalf("prom exposition missing %q:\n%s", want, prom)
		}
	}
}

// The /project response must be bit-identical to the in-process
// core.Project result for the same config.
func TestProjectBitIdenticalToInProcess(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"model":"resnet50","gpus":64,"batch":32,"strategy":"data"}`
	code, got := post(t, ts.URL+"/project", body)
	if code != 200 {
		t.Fatalf("status %d: %s", code, got)
	}

	ref := core.ConfigRef{Model: "resnet50", Cluster: "abci-like", D: 1_281_167, B: 32 * 64, P: 64}
	cfg, err := ref.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	pr, err := core.Project(cfg, core.Data)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(pr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("server response differs from in-process projection:\nserver: %s\nlocal:  %s", got, want)
	}
}

// The /advise response must be bit-identical to in-process core.Advise.
func TestAdviseBitIdenticalToInProcess(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"model":"vgg16","gpus":256,"batch":8}`
	code, got := post(t, ts.URL+"/advise", body)
	if code != 200 {
		t.Fatalf("status %d: %s", code, got)
	}

	cfg, err := Request{Model: "vgg16", GPUs: 256, Batch: 8}.Config()
	if err != nil {
		t.Fatal(err)
	}
	advs, err := core.Advise(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(advs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("server response differs from in-process advice:\nserver: %s\nlocal:  %s", got, want)
	}
	var back []core.Advice
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatalf("response does not decode as []Advice: %v", err)
	}
	if back[0].Rank != 1 {
		t.Fatalf("first advice rank %d, want 1", back[0].Rank)
	}
}

// A repeated identical request is a cache hit: one computation total,
// byte-identical responses.
func TestAdviseCached(t *testing.T) {
	s, ts := newTestServer(t)
	body := `{"model":"resnet50","gpus":64,"batch":32}`
	_, first := post(t, ts.URL+"/advise", body)
	_, second := post(t, ts.URL+"/advise", body)
	if !bytes.Equal(first, second) {
		t.Fatal("cached response differs from computed response")
	}
	st := s.Stats()
	if st.Computations != 1 {
		t.Fatalf("computations = %d, want 1", st.Computations)
	}
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", st.CacheHits, st.CacheMisses)
	}
}

// Cache keys are content addresses of the request VALUE: JSON field
// order, float spelling, and strategy aliases cannot cause a second
// computation.
func TestCacheKeyCanonicalization(t *testing.T) {
	s, ts := newTestServer(t)
	spellings := []string{
		`{"model":"resnet50","gpus":64,"batch":32,"strategy":"data+filter","phi":0.5}`,
		`{"phi":5e-1,"strategy":"df","batch":32,"gpus":64,"model":"resnet50"}`,
		`{"strategy":"df","model":"resnet50","phi":0.500,"gpus":64,"batch":32}`,
	}
	var bodies [][]byte
	for _, sp := range spellings {
		code, b := post(t, ts.URL+"/project", sp)
		if code != 200 {
			t.Fatalf("status %d: %s", code, b)
		}
		bodies = append(bodies, b)
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("spelling %d produced a different response", i)
		}
	}
	if st := s.Stats(); st.Computations != 1 {
		t.Fatalf("computations = %d, want 1 (spellings must share one key)", st.Computations)
	}

	// Distinct values must NOT share a key.
	post(t, ts.URL+"/project", `{"model":"resnet50","gpus":64,"batch":32,"strategy":"df","phi":0.25}`)
	if st := s.Stats(); st.Computations != 2 {
		t.Fatalf("computations = %d, want 2 (phi change must miss)", st.Computations)
	}
}

// The acceptance pin: N concurrent identical /sweep requests perform
// exactly ONE grid computation — every other request either joins the
// in-flight computation (singleflight) or hits the cache it filled —
// and all N responses are bit-identical.
func TestSweepSingleflight(t *testing.T) {
	const n = 16
	s, ts := newTestServer(t)
	body := `{"model":"resnet50","batch":32,"ps":[8,16,32,64]}`

	var start sync.WaitGroup
	start.Add(1)
	results := make([][]byte, n)
	errs := make([]error, n)
	var done sync.WaitGroup
	for i := 0; i < n; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			resp, err := http.Post(ts.URL+"/sweep", "application/json", strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != 200 {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			results[i], errs[i] = io.ReadAll(resp.Body)
		}(i)
	}
	start.Done()
	done.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !bytes.Equal(results[0], results[i]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
	st := s.Stats()
	if st.Computations != 1 {
		t.Fatalf("computations = %d, want exactly 1 for %d concurrent identical sweeps", st.Computations, n)
	}
	if st.Coalesced+st.CacheHits != n-1 {
		t.Fatalf("coalesced(%d) + hits(%d) = %d, want %d", st.Coalesced, st.CacheHits, st.Coalesced+st.CacheHits, n-1)
	}
}

// Every sweep point is bit-identical to the /project answer for the
// same config — the grid is a batch of single projections, not a
// different model.
func TestSweepPointsMatchProject(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := post(t, ts.URL+"/sweep", `{"model":"resnet50","batch":32,"ps":[1,8]}`)
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	var sweep SweepResponse
	if err := json.Unmarshal(body, &sweep); err != nil {
		t.Fatal(err)
	}
	if sweep.Model != "resnet50" || len(sweep.Points) == 0 {
		t.Fatalf("unexpected sweep response: %+v", sweep)
	}
	// p=1 contributes serial; p=8 contributes 5 pure + 3 hybrids × {2x4, 4x2}.
	if want := 1 + 5 + 6; len(sweep.Points) != want {
		t.Fatalf("got %d points, want %d", len(sweep.Points), want)
	}
	for _, pt := range sweep.Points {
		if pt.Error != "" {
			t.Fatalf("point %s errored: %s", pt.Plan, pt.Error)
		}
		pr := pt.Projection
		ref := pr.Config.Ref()
		cfg, err := ref.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		local, err := core.Project(cfg, pr.Strategy)
		if err != nil {
			t.Fatal(err)
		}
		localEnc, _ := json.Marshal(local)
		pointEnc, _ := json.Marshal(pr)
		if !bytes.Equal(localEnc, pointEnc) {
			t.Fatalf("point %s differs from in-process projection:\npoint: %s\nlocal: %s", pt.Plan, pointEnc, localEnc)
		}
	}
}

// The projection cache is bounded: distinct keys beyond the cap evict
// the oldest entries instead of growing without bound.
func TestCacheBounded(t *testing.T) {
	s, ts := newTestServer(t, WithCacheEntries(4))
	for d := 1024; d < 1034; d++ {
		body := fmt.Sprintf(`{"model":"tinycnn","gpus":4,"batch":8,"d":%d}`, d)
		if code, b := post(t, ts.URL+"/advise", body); code != 200 {
			t.Fatalf("status %d: %s", code, b)
		}
	}
	if n := s.CacheLen(); n > 4 {
		t.Fatalf("cache holds %d entries, want ≤ 4", n)
	}
	// The most recent entry is still resident.
	before := s.Stats().CacheHits
	post(t, ts.URL+"/advise", `{"model":"tinycnn","gpus":4,"batch":8,"d":1033}`)
	if after := s.Stats().CacheHits; after != before+1 {
		t.Fatal("most recent entry was evicted")
	}
}

func TestRequestErrors(t *testing.T) {
	s, ts := newTestServer(t)
	cases := []struct {
		endpoint, body string
	}{
		{"/advise", `{"gpus":4}`},                                    // no model
		{"/advise", `{"model":"nope","gpus":4}`},                     // unknown model
		{"/advise", `{"model":"tinycnn","gpus":4}`},                  // toy model without d
		{"/advise", `{"model":"resnet50"}`},                          // no gpus
		{"/advise", `not json`},                                      // bad body
		{"/project", `{"model":"resnet50","gpus":4}`},                // no strategy
		{"/project", `{"model":"resnet50","gpus":4,"strategy":"x"}`}, // bad strategy
		{"/sweep", `{"model":"resnet50","ps":[0,-3]}`},               // no positive widths
		{"/advise", `{"model":"resnet50","gpus":4,"cluster":"x"}`},   // unknown cluster
		// negative grid axes whose product is still gpus
		{"/project", `{"model":"resnet50","gpus":4,"strategy":"df","p1":-2,"p2":-2}`},
	}
	for _, c := range cases {
		code, b := post(t, ts.URL+c.endpoint, c.body)
		if code != http.StatusBadRequest {
			t.Fatalf("%s %s: status %d (%s), want 400", c.endpoint, c.body, code, b)
		}
		var e map[string]string
		if err := json.Unmarshal(b, &e); err != nil || e["error"] == "" {
			t.Fatalf("%s %s: error body %q not structured", c.endpoint, c.body, b)
		}
	}
	resp, err := http.Get(ts.URL + "/advise")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /advise status %d, want 405", resp.StatusCode)
	}
	if st := s.Stats(); st.Errors != int64(len(cases))+1 {
		t.Fatalf("error counter %d, want %d", st.Errors, len(cases)+1)
	}
	if st := s.Stats(); st.Computations != 0 {
		t.Fatal("failed requests must not count as computations")
	}
}

func TestLRUUnit(t *testing.T) {
	c := newLRU(2)
	c.put("a", []byte("1"))
	c.put("b", []byte("2"))
	if v, ok := c.get("a"); !ok || string(v) != "1" {
		t.Fatal("a lost")
	}
	c.put("c", []byte("3")) // evicts b (a was refreshed)
	if _, ok := c.get("b"); ok {
		t.Fatal("b should be evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a should survive (recently used)")
	}
	c.put("a", []byte("1b")) // update in place
	if v, _ := c.get("a"); string(v) != "1b" {
		t.Fatal("update lost")
	}
	if c.len() != 2 {
		t.Fatalf("len %d, want 2", c.len())
	}
}

func TestFlightGroupUnit(t *testing.T) {
	var g flightGroup
	const n = 8
	var computes int
	gate := make(chan struct{})
	var wg sync.WaitGroup
	sharedCount := 0
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			val, err, shared := g.Do("k", func() ([]byte, error) {
				<-gate
				mu.Lock()
				computes++
				mu.Unlock()
				return []byte("v"), nil
			})
			if err != nil || string(val) != "v" {
				t.Errorf("got %q %v", val, err)
			}
			mu.Lock()
			if shared {
				sharedCount++
			}
			mu.Unlock()
		}()
	}
	// Release the leader only once the other n-1 callers have joined its
	// in-flight call. Having started is not enough: a caller that reaches
	// Do after the leader has returned leads a second computation.
	for joined(&g, "k") < n-1 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if computes != 1 {
		t.Fatalf("computes = %d, want 1", computes)
	}
	if sharedCount != n-1 {
		t.Fatalf("shared = %d, want %d", sharedCount, n-1)
	}
}

// joined returns how many callers wait on key's in-flight call.
func joined(g *flightGroup, key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.m[key]; ok {
		return c.dups
	}
	return 0
}

// normalize zeroes endpoint-irrelevant fields so they cannot fragment
// the key space.
func TestNormalizeDropsIrrelevant(t *testing.T) {
	a, err := Request{Model: "resnet50", GPUs: 8, Strategy: "data", PS: []int{4}}.normalize("project")
	if err != nil {
		t.Fatal(err)
	}
	if a.PS != nil {
		t.Fatal("project must drop ps")
	}
	b, err := Request{Model: "resnet50", GPUs: 8, Strategy: "data"}.normalize("advise")
	if err != nil {
		t.Fatal(err)
	}
	if b.Strategy != "" {
		t.Fatal("advise must drop strategy")
	}
	c, err := Request{Model: "resnet50", GPUs: 8, P1: 2, P2: 4, Strategy: "data", PS: []int{4, 2, 4}}.normalize("sweep")
	if err != nil {
		t.Fatal(err)
	}
	if c.GPUs != 0 || c.P1 != 0 || c.P2 != 0 || c.Strategy != "" {
		t.Fatalf("sweep kept irrelevant fields: %+v", c)
	}
	if len(c.PS) != 2 || c.PS[0] != 2 || c.PS[1] != 4 {
		t.Fatalf("ps not sorted/deduped: %v", c.PS)
	}
	// Same meaning, different irrelevant noise ⇒ same key.
	if a2, _ := (Request{Model: "resnet50", GPUs: 8, Strategy: "data", PS: []int{99}}.normalize("project")); a2.key("project") != a.key("project") {
		t.Fatal("irrelevant ps changed the project key")
	}
}
