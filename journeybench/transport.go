package main

import (
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// routeKey names the layer entry point a request path belongs to. The
// names double as the <route> part of the per-layer metric names.
func routeKey(method, path string) string {
	switch {
	case path == "/jobs" && method == http.MethodPost:
		return "submit"
	case strings.HasPrefix(path, "/fleet/"):
		return strings.TrimPrefix(path, "/fleet/")
	case strings.HasPrefix(path, "/jobs/"):
		rest := strings.TrimPrefix(path, "/jobs/")
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			return strings.ReplaceAll(rest[i+1:], "/", "_")
		}
	}
	return "other"
}

// serverRoute maps a routeKey back to the server's
// easeml_http_request_seconds route label.
var serverRoute = map[string]string{
	"submit": "/jobs", "feed": "/jobs/{id}/feed", "refine": "/jobs/{id}/refine",
	"infer": "/jobs/{id}/infer", "infer_batch": "/jobs/{id}/infer/batch",
	"status": "/jobs/{id}/status", "lease": "/fleet/lease", "complete": "/fleet/complete",
	"heartbeat": "/fleet/heartbeat", "job": "/fleet/job",
}

// routeStats aggregates the transport's view of one route.
type routeStats struct {
	n         int
	rttSum    float64   // ms, slot acquired → body closed
	rtts      []float64 // ms
	respBytes int64
}

// capTransport is the single transport every client of the runner uses —
// the internal/client for user traffic and the fleet agents through
// AgentConfig.HTTPClient. It admits at most cap(slots) requests in flight
// (a request holds its slot until its response body is closed), counts
// 5xx replies and settled completions, and times each route.
type capTransport struct {
	base  http.RoundTripper
	slots chan struct{}
	spans *spanLog // nil when tracing is off

	serverErrors atomic.Int64
	completes    atomic.Int64 // /fleet/complete answered 200

	mu     sync.Mutex
	routes map[string]*routeStats
}

func newCapTransport(inFlight int, spans *spanLog) *capTransport {
	return &capTransport{
		base: &http.Transport{
			MaxIdleConnsPerHost: inFlight,
			IdleConnTimeout:     30 * time.Second,
		},
		slots:  make(chan struct{}, inFlight),
		spans:  spans,
		routes: map[string]*routeStats{},
	}
}

func (t *capTransport) client() *http.Client { return &http.Client{Transport: t} }

func (t *capTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	select {
	case t.slots <- struct{}{}:
	case <-req.Context().Done():
		return nil, req.Context().Err()
	}
	route := routeKey(req.Method, req.URL.Path)
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		<-t.slots
		t.observe(route, start, 0)
		return nil, err
	}
	if resp.StatusCode >= 500 {
		t.serverErrors.Add(1)
	}
	if route == "complete" && resp.StatusCode == http.StatusOK {
		t.completes.Add(1)
	}
	resp.Body = &slotBody{ReadCloser: resp.Body, done: func(n int64) {
		<-t.slots
		t.observe(route, start, n)
	}}
	return resp, nil
}

func (t *capTransport) observe(route string, start time.Time, n int64) {
	end := time.Now()
	ms := float64(end.Sub(start)) / 1e6
	t.mu.Lock()
	rs := t.routes[route]
	if rs == nil {
		rs = &routeStats{}
		t.routes[route] = rs
	}
	rs.n++
	rs.rttSum += ms
	rs.respBytes += n
	rs.rtts = append(rs.rtts, ms)
	t.mu.Unlock()
	if t.spans != nil && strings.HasPrefix(serverRoute[route], "/fleet/") {
		t.spans.add("fleet", route, start, end, 0)
	}
}

// snapshotRoutes copies the per-route aggregates and resets them, so a
// measured phase sees only its own traffic.
func (t *capTransport) snapshotRoutes() map[string]routeStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]routeStats, len(t.routes))
	for k, v := range t.routes {
		out[k] = *v
	}
	t.routes = map[string]*routeStats{}
	return out
}

// slotBody releases the transport slot once, when the body is closed.
type slotBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *slotBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *slotBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// span is one timed call into a layer, recorded by the runner around its
// own calls: a client op, a fleet route, or an executor call.
type span struct {
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
	Session int64  `json:"session,omitempty"`
}

// spanLog keeps spans in memory; they are written out when the run ends.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func (l *spanLog) add(layer, name string, start, end time.Time, session int64) {
	if l == nil {
		return
	}
	s := span{layer, name, start.Sub(l.origin).Microseconds(), end.Sub(l.origin).Microseconds(), session}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// busyShare is the union of a layer's span intervals inside [from, to) as
// a share of that window.
func (l *spanLog) busyShare(layer string, from, to time.Time) float64 {
	if l == nil || !to.After(from) {
		return 0
	}
	lo, hi := from.Sub(l.origin).Microseconds(), to.Sub(l.origin).Microseconds()
	l.mu.Lock()
	var iv [][2]int64
	for _, s := range l.spans {
		if s.Layer != layer || s.EndUS <= lo || s.StartUS >= hi {
			continue
		}
		iv = append(iv, [2]int64{max(s.StartUS, lo), min(s.EndUS, hi)})
	}
	l.mu.Unlock()
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var busy, curS, curE int64 = 0, -1, -1
	for _, x := range iv {
		if x[0] > curE {
			busy += curE - curS
			curS, curE = x[0], x[1]
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	busy += curE - curS
	return float64(busy) / float64(hi-lo)
}
