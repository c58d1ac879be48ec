package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dsvc"
	"repro/internal/dsvcd"
)

const (
	// dsvcSetups is how many times a dsvc-http run sets the service up.
	dsvcSetups = 11
	// churnEvery is how many of its own sessions the churning client
	// completes between two graph changes.
	churnEvery = 400
	// longPoll is the acquire long-poll; a session still ungranted
	// after it has failed.
	longPoll = grantDeadline
)

// dsvcOp is one client call, recorded in traced runs for the replay on
// a bare dsvc.Engine.
type dsvcOp struct {
	at     int64 // send time, ns since t0
	kind   opKind
	client int
	set    []int  // acquire
	sess   string // live session ID (acquire result, release target)
	pair   [2]int // edge change
	add    bool
}

type opKind int

const (
	opAcquire opKind = iota + 1
	opRelease
	opChange
)

// httpSpan is one request seen from the client and, matched by the
// X-Bench-Req header, from a timing middleware around the handler.
type httpSpan struct {
	ID           string
	Route        string
	Start, End   int64 // client side, ns since t0
	HandlerStart int64
	HandlerNs    int64 // 0 when no handler span matched
}

// httpTracer is the traced run's dsvcd timing middleware plus the
// client spans.
type httpTracer struct {
	t0 time.Time
	mu sync.Mutex
	// handler spans by request id: start and duration
	handler map[string][2]int64
	spans   []httpSpan
	ops     []dsvcOp
	seq     atomic.Int64
}

func newHTTPTracer(t0 time.Time) *httpTracer {
	return &httpTracer{t0: t0, handler: make(map[string][2]int64)}
}

func (t *httpTracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Since(t.t0)
		h.ServeHTTP(w, r)
		d := time.Since(t.t0) - start
		if id := r.Header.Get("X-Bench-Req"); id != "" {
			t.mu.Lock()
			t.handler[id] = [2]int64{int64(start), int64(d)}
			t.mu.Unlock()
		}
	})
}

// routeOf names a request's API route.
func routeOf(method, path string) string {
	switch {
	case method == http.MethodPost && path == "/v1/sessions":
		return "acquire"
	case method == http.MethodDelete && strings.HasPrefix(path, "/v1/sessions/"):
		return "release"
	case path == "/v1/status":
		return "status"
	case path == "/v1/edges":
		return "edge"
	case strings.HasPrefix(path, "/v1/resources"):
		return "register"
	default:
		return "other"
	}
}

// service is one dsvcd instance behind a loopback http.Server.
type service struct {
	svc  *dsvcd.Service
	srv  *http.Server
	base string
	wg   sync.WaitGroup
}

func startService(tr *httpTracer) (*service, error) {
	s := &service{svc: dsvcd.New(dsvcd.Config{MaxWait: longPoll})}
	s.svc.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.svc.Stop()
		return nil, err
	}
	h := s.svc.Handler()
	if tr != nil {
		h = tr.wrap(h)
	}
	s.srv = &http.Server{Handler: h}
	s.base = "http://" + ln.Addr().String()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return s, nil
}

func (s *service) stop() {
	s.srv.Close()
	s.wg.Wait()
	s.svc.Stop()
}

// client is one closed-loop API client with its own connection.
type client struct {
	id   int
	base string
	hc   *http.Client
	tr   *httpTracer
	t0   time.Time
}

func newClient(id int, base string, tr *httpTracer, t0 time.Time) *client {
	tp := &http.Transport{Proxy: nil, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{id: id, base: base, hc: &http.Client{Transport: tp}, tr: tr, t0: t0}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call performs one request and returns the status code and body.
func (c *client) call(method, path string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	var id string
	if c.tr != nil {
		id = fmt.Sprintf("%d-%d", c.id, c.tr.seq.Add(1))
		req.Header.Set("X-Bench-Req", id)
	}
	start := time.Since(c.t0)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	if c.tr != nil {
		end := time.Since(c.t0)
		c.tr.mu.Lock()
		c.tr.spans = append(c.tr.spans, httpSpan{ID: id, Route: routeOf(method, path), Start: int64(start), End: int64(end)})
		c.tr.mu.Unlock()
	}
	return resp.StatusCode, out, nil
}

func (c *client) record(op dsvcOp) {
	if c.tr == nil {
		return
	}
	c.tr.mu.Lock()
	c.tr.ops = append(c.tr.ops, op)
	c.tr.mu.Unlock()
}

type acquireBody struct {
	Tenant    string   `json:"tenant"`
	Resources []string `json:"resources"`
	WaitMS    int      `json:"wait_ms"`
}

type edgeBody struct {
	A  string `json:"a"`
	B  string `json:"b"`
	Op string `json:"op"`
}

// acquire runs one session: acquire with long-poll, then release. It
// returns the grant latency and whether the session was granted.
func (c *client) acquire(set []int) (time.Duration, bool, error) {
	names := make([]string, len(set))
	for i, r := range set {
		names[i] = resName(r)
	}
	at := int64(time.Since(c.t0))
	start := time.Now()
	code, body, err := c.call(http.MethodPost, "/v1/sessions",
		acquireBody{Tenant: fmt.Sprintf("c%d", c.id), Resources: names, WaitMS: int(longPoll.Milliseconds())})
	lat := time.Since(start)
	if err != nil {
		return 0, false, err
	}
	if code != http.StatusCreated && code != http.StatusAccepted {
		return lat, false, nil // refused: 429, 409, 5xx
	}
	var st dsvc.SessionStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return 0, false, fmt.Errorf("acquire response: %w", err)
	}
	c.record(dsvcOp{at: at, kind: opAcquire, client: c.id, set: set, sess: st.ID})
	granted := code == http.StatusCreated && st.State == dsvc.SessionGranted.String()
	relAt := int64(time.Since(c.t0))
	code, body, err = c.call(http.MethodDelete, "/v1/sessions/"+st.ID, nil)
	if err != nil {
		return 0, false, err
	}
	if code != http.StatusOK {
		return 0, false, fmt.Errorf("release %s: HTTP %d: %s", st.ID, code, body)
	}
	c.record(dsvcOp{at: relAt, kind: opRelease, client: c.id, sess: st.ID})
	return lat, granted, nil
}

// status fetches /v1/status, returning it and its body size.
func (c *client) status() (dsvc.Status, int, error) {
	var st dsvc.Status
	code, body, err := c.call(http.MethodGet, "/v1/status", nil)
	if err != nil {
		return st, 0, err
	}
	if code != http.StatusOK {
		return st, 0, fmt.Errorf("status: HTTP %d", code)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, 0, err
	}
	return st, len(body), nil
}

// change adds or removes an edge and waits until /v1/status shows no
// pending change. It returns the commit latency and the status sizes
// seen while waiting.
func (c *client) change(pair [2]int, add bool) (time.Duration, []int, error) {
	op := "remove"
	if add {
		op = "add"
	}
	at := int64(time.Since(c.t0))
	start := time.Now()
	for {
		code, body, err := c.call(http.MethodPost, "/v1/edges", edgeBody{A: resName(pair[0]), B: resName(pair[1]), Op: op})
		if err != nil {
			return 0, nil, err
		}
		if code == http.StatusAccepted {
			break
		}
		if code != http.StatusTooManyRequests {
			return 0, nil, fmt.Errorf("edge %s %v: HTTP %d: %s", op, pair, code, body)
		}
		time.Sleep(time.Millisecond) // change window full: let it drain
	}
	c.record(dsvcOp{at: at, kind: opChange, client: c.id, pair: pair, add: add})
	var sizes []int
	for {
		st, n, err := c.status()
		if err != nil {
			return 0, nil, err
		}
		sizes = append(sizes, n)
		if st.Err != "" {
			return 0, nil, gatef("dsvc engine error: %s", st.Err)
		}
		if st.PendingChanges == 0 {
			return time.Since(start), sizes, nil
		}
	}
}

// dsvcSample is one completed session of the measured loop.
type dsvcSample struct {
	e       int64 // response time, ns since t0
	lat     float64
	granted bool
	set     int // index into the client's sets
}

// dsvcRun is everything one dsvc-http run measured.
type dsvcRun struct {
	setups   []float64
	bounds   []boundary
	rssPeaks []float64
	t0       time.Time
	samples  [][]dsvcSample // per client
	commits  []float64      // ms, changes started in the window
	sizes    []int          // /v1/status body sizes
	status   dsvc.Status    // final
}

// setupService boots the service, registers the resources, commits the
// seeded graph and grants every resource once.
func setupService(in Inputs, tr *httpTracer, t0 time.Time) (*service, error) {
	s, err := startService(tr)
	if err != nil {
		return nil, err
	}
	c := newClient(0, s.base, nil, t0)
	defer c.close()
	fail := func(err error) (*service, error) {
		s.stop()
		return nil, err
	}
	for r := 0; r < in.Resources; r++ {
		code, body, err := c.call(http.MethodPost, "/v1/resources", map[string]string{"name": resName(r), "tenant": "bench"})
		if err != nil {
			return fail(err)
		}
		if code != http.StatusCreated {
			return fail(fmt.Errorf("register %s: HTTP %d: %s", resName(r), code, body))
		}
	}
	for _, e := range in.Edges {
		if _, _, err := c.change(e, true); err != nil {
			return fail(err)
		}
	}
	for r := 0; r < in.Resources; r++ {
		_, granted, err := c.acquire([]int{r})
		if err != nil {
			return fail(err)
		}
		if !granted {
			return fail(gatef("set-up: resource %s was not granted", resName(r)))
		}
	}
	return s, nil
}

// runDsvcOnce sets up dsvcSetups times (once when traced), then runs
// the clients through warm-up and the measured window.
func runDsvcOnce(in Inputs, window time.Duration, tr *httpTracer, reps int) (*dsvcRun, error) {
	run := &dsvcRun{}
	var s *service
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		if tr != nil {
			tr.t0 = t0
		}
		var err error
		if s, err = setupService(in, tr, t0); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		run.setups = append(run.setups, time.Since(t0).Seconds())
		run.t0 = t0
		if rep < reps-1 {
			s.stop()
		}
	}
	defer s.stop()
	t0 := run.t0
	start := time.Since(t0) + warmup
	end := start + window
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make([]error, dsvcClients)
	run.samples = make([][]dsvcSample, dsvcClients)
	for ci := 0; ci < dsvcClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := newClient(ci, s.base, tr, t0)
			defer c.close()
			sets := in.Sets[ci]
			added := make([]bool, len(in.Churn))
			for k := 0; !stop.Load(); k++ {
				si := k % len(sets)
				lat, granted, err := c.acquire(sets[si])
				if err != nil {
					errs[ci] = err
					return
				}
				run.samples[ci] = append(run.samples[ci], dsvcSample{
					e: int64(time.Since(t0)), lat: float64(lat) / 1e6, granted: granted, set: si,
				})
				if ci != 0 || (k+1)%churnEvery != 0 {
					continue
				}
				ch := ((k + 1) / churnEvery) % (2 * len(in.Churn))
				pi := ch % len(in.Churn)
				began := time.Since(t0)
				d, sizes, err := c.change(in.Churn[pi], !added[pi])
				if err != nil {
					errs[ci] = err
					return
				}
				added[pi] = !added[pi]
				if began >= start && began < end {
					run.commits = append(run.commits, float64(d)/1e6)
					run.sizes = append(run.sizes, sizes...)
				}
			}
		}(ci)
	}
	run.bounds, run.rssPeaks = measureWindow(t0, start, window, nil)
	stop.Store(true)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if err := s.svc.Check(); err != nil {
		return nil, gatef("dsvcd Service.Check: %v", err)
	}
	st, ok := s.svc.Status()
	if !ok {
		return nil, errors.New("dsvcd service stopped early")
	}
	run.status = st
	return run, nil
}

// runDsvc is the end-to-end (tr == nil) or traced dsvc-http run.
func runDsvc(w *Workload, in Inputs, window time.Duration, tr *tracer) (*result, error) {
	reps := dsvcSetups
	var ht *httpTracer
	if tr != nil {
		reps = 1
		if tr.traced {
			ht = newHTTPTracer(time.Now())
			tr.http = ht
		}
	}
	run, err := runDsvcOnce(in, window, ht, reps)
	if err != nil {
		return nil, err
	}
	if run.status.Violations > 0 || run.status.Err != "" {
		return nil, gatef("dsvc engine: %d exclusion violations, error %q", run.status.Violations, run.status.Err)
	}
	res := &result{}
	var ws windowStats
	var all []float64
	start, end := run.bounds[0].at, run.bounds[len(run.bounds)-1].at
	seen := make([]bool, in.Resources)
	for k := 0; k < subWindows; k++ {
		from, to := run.bounds[k], run.bounds[k+1]
		var lats []float64
		for ci, ss := range run.samples {
			for _, s := range ss {
				if e := time.Duration(s.e); e < from.at || e >= to.at {
					continue
				}
				res.attempted++
				if !s.granted {
					res.failed++
					continue
				}
				lats = append(lats, s.lat)
				for _, r := range in.Sets[ci][s.set] {
					seen[r] = true
				}
			}
		}
		if err := ws.addWindow(lats, from, to); err != nil {
			return nil, err
		}
		all = append(all, lats...)
	}
	for r, ok := range seen {
		if !ok {
			return nil, gatef("resource %s was never granted in the measured window", resName(r))
		}
	}
	ws.report(res, all, run.setups, run.rssPeaks)
	d := Summarize(run.commits)
	res.add("change_commit_p50_ms", "ms", d.P50, d.N, "edge POST until /v1/status shows no pending change")
	switch {
	case d.TailQ >= 0.99:
		p99, _ := P99(run.commits)
		res.add("change_commit_p99_ms", "ms", p99, d.N, "")
	case d.TailQ > 0:
		res.add("change_commit_p"+pctLabel(d.TailQ)+"_ms", "ms", d.Tail, d.N,
			"p99 refused: fewer than 1000 changes; highest percentile with ten samples beyond it")
	}
	res.notes = append(res.notes, fmt.Sprintf("window %v-%v; %d clients, churn every %d sessions of client 0",
		start, end, dsvcClients, churnEvery))
	if tr != nil {
		tr.dsvc = run
	}
	return res, nil
}
