package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"time"

	"dprle/internal/core"
	"dprle/internal/server"
	"dprle/internal/textio"
)

// Open-loop arrival rates in requests per second, fixed once against the
// request mix's capacity: about 430 req/s measured with perfbench
// --capacity (closed loop, 2 connections, default server policy) on a
// 2-vCPU Intel Xeon host, Go 1.24. lo is about 20% of it and hi about 40%.
// At 55% and above, CPU steal on that shared host pushed some runs past
// capacity, so that the generator fell behind. They are constants so that
// no commit under test moves its own load.
const (
	rateLo = 85
	rateHi = 170
)

// latencyLimit is the service-level limit for goodput: a response counts
// only if it is correct and arrives within this time of its due time.
const latencyLimit = 50 * time.Millisecond

// maxSustainedLag invalidates a run: if the median lag of the last quarter
// of sends exceeds it, the backlog grew instead of draining. It is five
// latency limits, well above the tens of milliseconds a burst of CPU steal
// on a shared host leaves behind; an arrival rate above capacity grows the
// lag past it within a run.
const maxSustainedLag = 250 * time.Millisecond

// warmRequests is how many requests of the stream set-up sends closed
// loop before timing starts.
const warmRequests = 200

// Request mix. No dprled traffic has been recorded, so the hot-set size
// and share, the unsat share and the guard count are assumptions, not
// measurements; they stand until a traffic trace replaces them. The
// gated serve figures depend on them: cpu_ms_per_op, goodput_per_s and
// peak_heap_mb move with the share of requests that must be solved, and
// so do server.response_hit_ratio and the solvecache counts.
const (
	hotSetSize   = 16  // distinct repeated requests
	hotFraction  = 0.4 // share of requests drawn from the hot set
	unsatShare   = 0.2 // share of generated systems with an anchored filter
	maxGuards    = 4   // auxiliary guards per system: 1..maxGuards
	queryColumns = 5   // selected columns in the query literal
	layerSample  = 100 // requests whose systems the traced direct pass solves
)

// Filters of the vulnerable input. Unanchored on the left, as in the
// Figure 12 defects, they admit a quote before the allowed suffix; the
// anchored ones do not, so their systems are unsat.
var (
	openFilters = []string{`[\d]+$`, `(asc|desc)$`, `[0-9a-f]{4,8}$`, `(id|name|date)_[0-9]+$`, `[A-Za-z]+-[0-9]+$`}
	shutFilters = []string{`^[\d]+$`, `^(asc|desc)$`, `^[0-9a-f]{4,8}$`, `^[a-z_]+$`}
	guardLangs  = []string{`[a-z]{1,8}`, `[0-9]+`, `[A-Za-z0-9_]+`, `(on|off)`, `[a-f0-9]{4,12}`, `[a-z]+@[a-z]+`}
	columns     = []string{"id", "name", "sort", "owner", "ref"}
)

// serveReq is one generated request with what the generator knows about
// its answer.
type serveReq struct {
	id      string
	body    []byte // the textio system, sent as text/plain
	wantSat bool
	filter  string   // preg_match pattern on the input
	guards  []string // exact patterns on the auxiliary inputs
	prefix  string   // query text before the input
	suffix  string   // query text after the input
}

// generator produces the seeded request stream. Request i depends only on
// the seed and i, whichever client takes it.
type generator struct {
	rng  *rand.Rand
	hot  []*serveReq
	next int
}

func newGenerator(seed int64) *generator {
	g := &generator{rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < hotSetSize; i++ {
		g.hot = append(g.hot, g.system(fmt.Sprintf("hot%d", i)))
	}
	return g
}

// request returns the next request of the stream.
func (g *generator) request() *serveReq {
	g.next++
	if g.rng.Float64() < hotFraction {
		return g.hot[g.rng.Intn(len(g.hot))]
	}
	return g.system(fmt.Sprintf("u%d", g.next))
}

// system generates one Figure 12-shaped path system: the input under its
// filter, k auxiliary guards, and the query literal around the input
// under the attack language "contains a quote".
func (g *generator) system(id string) *serveReq {
	r := &serveReq{id: id, wantSat: g.rng.Float64() >= unsatShare}
	if r.wantSat {
		r.filter = openFilters[g.rng.Intn(len(openFilters))]
	} else {
		r.filter = shutFilters[g.rng.Intn(len(shutFilters))]
	}
	table := g.word()
	cols := make([]string, queryColumns)
	for i := range cols {
		cols[i] = fmt.Sprintf("%s_%s", table, g.word())
	}
	r.prefix = fmt.Sprintf("SELECT %s FROM t_%s WHERE %s=", strings.Join(cols, ", "), table, columns[g.rng.Intn(len(columns))])
	if g.rng.Intn(2) == 0 {
		r.suffix = fmt.Sprintf(" LIMIT %d", 1+g.rng.Intn(100))
	}
	for k := 1 + g.rng.Intn(maxGuards); k > 0; k-- {
		r.guards = append(r.guards, guardLangs[g.rng.Intn(len(guardLangs))])
	}
	var b strings.Builder
	fmt.Fprintf(&b, "const filter := match /%s/;\nconst unsafe := match /'/;\n", r.filter)
	for i, gl := range r.guards {
		fmt.Fprintf(&b, "const g%d := re /%s/;\n", i, gl)
	}
	b.WriteString("id <= filter;\n")
	for i := range r.guards {
		fmt.Fprintf(&b, "a%d <= g%d;\n", i, i)
	}
	fmt.Fprintf(&b, "%q . id", r.prefix)
	if r.suffix != "" {
		fmt.Fprintf(&b, " . %q", r.suffix)
	}
	b.WriteString(" <= unsafe;\n")
	r.body = []byte(b.String())
	return r
}

// word returns a random lowercase identifier of 6 letters.
func (g *generator) word() string {
	b := make([]byte, 6)
	for i := range b {
		b[i] = byte('a' + g.rng.Intn(26))
	}
	return string(b)
}

// witnessOracle checks an answer with the standard library's regexp
// against the generator's own patterns; it shares no code with the
// solver.
type witnessOracle struct {
	mu  sync.Mutex
	res map[string]*regexp.Regexp
}

func newWitnessOracle() *witnessOracle { return &witnessOracle{res: map[string]*regexp.Regexp{}} }

func (o *witnessOracle) re(pat string) *regexp.Regexp {
	o.mu.Lock()
	defer o.mu.Unlock()
	re, ok := o.res[pat]
	if !ok {
		re = regexp.MustCompile(pat)
		o.res[pat] = re
	}
	return re
}

// check reports whether status and witnesses answer r correctly: sat
// exactly when the generator planted an open filter, and in every
// assignment the input matches the filter, each auxiliary input matches
// its guard in full, and the query built from the witnesses contains a
// quote.
func (o *witnessOracle) check(r *serveReq, status string, asgs []map[string]string) bool {
	if !r.wantSat {
		return status == server.StatusUnsat && len(asgs) == 0
	}
	if status != server.StatusSat || len(asgs) == 0 {
		return false
	}
	for _, a := range asgs {
		id, ok := a["id"]
		if !ok || !o.re(r.filter).MatchString(id) {
			return false
		}
		for i, gl := range r.guards {
			w, ok := a[fmt.Sprintf("a%d", i)]
			if !ok || !o.re(`^(?:`+gl+`)$`).MatchString(w) {
				return false
			}
		}
		if !strings.Contains(r.prefix+id+r.suffix, "'") {
			return false
		}
	}
	return true
}

// serveBench is an in-process dprled on loopback HTTP, driven by one
// process with at most min(2, nproc) client goroutines and connections.
type serveBench struct {
	seed    int64
	rate    float64
	label   string // report-name prefix: serve.lo or serve.hi
	gen     *generator
	srv     *server.Server
	hs      *http.Server
	served  chan struct{}
	url     string
	client  *http.Client
	clients int
	oracle  *witnessOracle
}

func clientCount() int { return min(2, runtime.NumCPU()) }

func setupServe(seed int64, rate float64, label string) (bench, error) {
	b := &serveBench{seed: seed, rate: rate, label: label, gen: newGenerator(seed), oracle: newWitnessOracle(), clients: clientCount()}
	b.srv = server.New(server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b.url = "http://" + ln.Addr().String()
	b.hs = &http.Server{Handler: b.srv.Handler()}
	b.served = make(chan struct{})
	go func() {
		defer close(b.served)
		_ = b.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	b.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     b.clients,
		MaxIdleConnsPerHost: b.clients,
		DisableCompression:  true,
	}}
	// Warm-up: the first requests of the stream, closed loop. Wrong
	// answers are counted by the timed phase, not here.
	b.closedLoop(warmRequests, 0)
	return b, nil
}

func (b *serveBench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = b.hs.Shutdown(ctx) // closes the listener and idle connections
	<-b.served
	_ = b.srv.Drain(ctx) // nothing is in flight once Shutdown returned
	b.client.CloseIdleConnections()
}

// answer is one request's observed outcome.
type answer struct {
	due, sent, done time.Time
	cache           string
	code            int
	ok              bool
}

// send posts r and checks the answer.
func (b *serveBench) send(r *serveReq) answer {
	a := answer{sent: time.Now()}
	resp, err := b.client.Post(b.url+"/solve", "text/plain", bytes.NewReader(r.body))
	if err != nil {
		a.done = time.Now()
		return a
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	a.done = time.Now()
	a.code = resp.StatusCode
	a.cache = resp.Header.Get("X-Dprle-Cache")
	if err != nil || resp.StatusCode != http.StatusOK {
		return a
	}
	var sr server.SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return a
	}
	asgs := make([]map[string]string, len(sr.Assignments))
	for i, m := range sr.Assignments {
		asgs[i] = map[string]string{}
		for v, sol := range m {
			asgs[i][v] = sol.Witness
		}
	}
	a.ok = b.oracle.check(r, sr.Status, asgs)
	return a
}

// closedLoop sends n requests of the stream back to back from every
// client, or keeps sending for d when n is 0.
func (b *serveBench) closedLoop(n int, d time.Duration) *outcome {
	var mu sync.Mutex
	o := &outcome{}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < b.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if (n > 0 && o.Attempted >= n) || (n == 0 && time.Since(start) >= d) {
					mu.Unlock()
					return
				}
				o.Attempted++
				r := b.gen.request()
				mu.Unlock()
				a := b.send(r)
				mu.Lock()
				if !a.ok {
					o.Failed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	o.Goodput = float64(o.Attempted-o.Failed) / time.Since(start).Seconds()
	return o
}

// measure drives the server open loop: request i is due at the i-th
// arrival of a seeded Poisson process at the workload's rate, and its
// latency counts from that due time, so time a request spends waiting for
// a free client is charged to it.
func (b *serveBench) measure(d time.Duration, tr *Tracer) (*outcome, error) {
	arrivals := rand.New(rand.NewSource(b.seed ^ 0x5eed))
	var mu sync.Mutex
	var answers []answer
	start := time.Now().Add(10 * time.Millisecond)
	end := start.Add(d)
	next := start
	cacheBefore := b.srv.CacheStats()
	var queueMax int
	lastSample := start
	cpu0 := cpuTime()

	var wg sync.WaitGroup
	for c := 0; c < b.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				mu.Lock()
				due := next
				if !due.Before(end) {
					mu.Unlock()
					return
				}
				next = next.Add(time.Duration(arrivals.ExpFloat64() / b.rate * float64(time.Second)))
				r := b.gen.request()
				idx := len(answers)
				answers = append(answers, answer{})
				sample := tr != nil && c == 0 && time.Since(lastSample) >= 50*time.Millisecond && time.Until(due) > 2*time.Millisecond
				if sample {
					lastSample = time.Now()
				}
				mu.Unlock()
				if sample {
					if q, err := b.queueLen(); err == nil {
						mu.Lock()
						queueMax = max(queueMax, q)
						mu.Unlock()
					}
				}
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sp := tr.Begin("request", r.id, 0)
				a := b.send(r)
				tr.End(sp)
				a.due = due
				mu.Lock()
				answers[idx] = a
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	cpu := cpuTime() - cpu0

	o := &outcome{Named: map[string]float64{}, Layer: map[string]float64{}}
	var good int
	var lags, lateTail, hitLat, missLat []float64
	var hits, collapsed, shed int
	for i, a := range answers {
		lat := ms(a.done.Sub(a.due))
		lag := ms(a.sent.Sub(a.due))
		o.Ops = append(o.Ops, lat)
		lags = append(lags, lag)
		if i >= len(answers)*3/4 {
			lateTail = append(lateTail, lag)
		}
		o.Attempted++
		if !a.ok {
			o.Failed++
		} else if a.done.Sub(a.due) <= latencyLimit {
			good++
		}
		switch {
		case a.code == http.StatusTooManyRequests:
			shed++
		case a.cache == server.CacheHit:
			hits++
			hitLat = append(hitLat, lat)
		case a.cache == server.CacheCollapsed:
			collapsed++
		case a.cache == server.CacheMiss:
			missLat = append(missLat, lat)
		}
	}
	if o.Attempted == 0 {
		return nil, errors.New("open loop sent no requests")
	}
	o.CPUPerOp = ms(cpu) / float64(o.Attempted)
	if lag := quantile(lateTail, 0.5); lag > ms(maxSustainedLag) {
		return nil, fmt.Errorf("%w: generator ran %.1f ms behind schedule over the last quarter at %.0f req/s", errInvalid, lag, b.rate)
	}
	name := b.label
	o.Named[name+".p50_ms"] = windowed(o.Ops, 0.5)
	o.Named[name+".p90_ms"] = windowed(o.Ops, 0.9)
	o.Named[name+".p99_ms"] = quantile(o.Ops, 0.99)
	o.Named[name+".gen_lag_ms.p50"] = quantile(lags, 0.5)
	o.Goodput = float64(good) / d.Seconds()
	o.Named[name+".goodput_rps"] = o.Goodput
	o.Named[name+".rate_rps"] = b.rate
	o.Named[name+".latency_limit_ms"] = ms(latencyLimit)
	if tr != nil {
		n := float64(len(answers))
		cs := b.srv.CacheStats()
		cacheHits := cs.Hits - cacheBefore.Hits
		cacheMisses := cs.Misses - cacheBefore.Misses
		o.Layer = map[string]float64{
			"server.hit.p50_ms":         quantile(hitLat, 0.5),
			"server.miss.p50_ms":        quantile(missLat, 0.5),
			"server.response_hit_ratio": float64(hits) / n,
			"server.collapsed_ratio":    float64(collapsed) / n,
			"server.shed_ratio":         float64(shed) / n,
			"server.queue_len.max":      float64(queueMax),
			"serve.gen_lag_ms.p99":      quantile(lags, 0.99),
			"solvecache.hits":           float64(cacheHits),
			"solvecache.misses":         float64(cacheMisses),
			"solvecache.hit_ratio":      float64(cacheHits) / float64(max(cacheHits+cacheMisses, 1)),
			"solvecache.evictions":      float64(cs.Evictions - cacheBefore.Evictions),
			"solvecache.bytes":          float64(cs.Bytes),
		}
	}
	return o, nil
}

// queueLen samples the admission queue length from /statusz.
func (b *serveBench) queueLen() (int, error) {
	resp, err := b.client.Get(b.url + "/statusz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var st server.StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, err
	}
	return st.QueueLen, nil
}

// layers solves the distinct systems among the first layerSample requests
// of a fresh stream directly, without the server or any cache, recording
// textio, core and nfa spans per system and their counts.
func (b *serveBench) layers(tr *Tracer) (*outcome, error) {
	g := newGenerator(b.seed)
	seen := map[string]bool{}
	o := &outcome{Layer: map[string]float64{}}
	var systems []*core.System
	var lc layerCounts
	for i := 0; i < layerSample; i++ {
		r := g.request()
		if seen[r.id] {
			continue
		}
		seen[r.id] = true
		root := tr.Begin("unit", r.id, 0)
		sp := tr.Begin("textio.parse", r.id, root)
		sys, err := textio.Parse(string(r.body))
		tr.End(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.id, err)
		}
		systems = append(systems, sys)
		sp = tr.Begin("core.depgraph", r.id, root)
		lc.ciGroups += len(core.BuildGraph(sys).CIGroups())
		tr.End(sp)
		sp = tr.Begin("core.solve", r.id, root)
		before := allocBytes()
		res, err := core.SolveCtx(context.Background(), sys, core.Options{})
		lc.allocBytes += allocBytes() - before
		tr.End(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.id, err)
		}
		lc.states += res.Usage.States
		lc.steps += res.Usage.Steps
		if res.Usage.Exhausted {
			lc.exhausted++
		}
		lc.assignments += len(res.Assignments)
		sp = tr.Begin("core.verify", r.id, root)
		asgs := make([]map[string]string, 0, len(res.Assignments))
		verified := true
		for _, a := range res.Assignments {
			verified = verified && core.Satisfies(sys, a)
			ws, err := core.Witnesses(a)
			if err != nil {
				verified = false
			}
			asgs = append(asgs, ws)
		}
		tr.End(sp)
		tr.End(root)
		status := server.StatusUnsat
		if len(asgs) > 0 {
			status = server.StatusSat
		}
		o.Attempted++
		if !verified || !b.oracle.check(r, status, asgs) {
			o.Failed++
		}
	}
	nf := nfaPass(tr, systems)
	o.Layer = nf.Layer
	o.Layer["core.ci_groups"] = float64(lc.ciGroups)
	o.Layer["core.assignments"] = float64(lc.assignments)
	o.Layer["core.solve_alloc_mb"] = float64(lc.allocBytes) / (1 << 20) / float64(max(len(systems), 1))
	o.Layer["budget.states"] = float64(lc.states)
	o.Layer["budget.steps"] = float64(lc.steps)
	o.Layer["budget.exhausted"] = float64(lc.exhausted)
	return o, nil
}

// capacity measures the mix's closed-loop throughput with every client
// sending back to back; it is how rateLo and rateHi were chosen.
func capacity(seed int64, d time.Duration) (float64, error) {
	bb, err := setupServe(seed, rateLo, "serve.capacity")
	if err != nil {
		return 0, err
	}
	b := bb.(*serveBench)
	defer b.close()
	o := b.closedLoop(0, d)
	if o.Failed > 0 {
		return 0, fmt.Errorf("%d of %d requests answered wrongly", o.Failed, o.Attempted)
	}
	return o.Goodput, nil
}
