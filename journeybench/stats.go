package main

import (
	"math"
	"slices"
	"sort"
	"sync"
	"time"
)

// failLatencyMS is the latency charged to a request that failed or was
// refused, so it misses every latency limit.
const failLatencyMS = 60_000

// percentile is the nearest-rank q-quantile (0 < q ≤ 1) of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// kindStats tallies one request kind of user traffic: latency of each
// request from the time its schedule set, and sent/succeeded/failed.
type kindStats struct {
	Sent      int `json:"sent"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
	lat       []float64
}

// tally collects every request kind of a workload.
type tally struct {
	mu    sync.Mutex
	kinds map[string]*kindStats
	late  []float64 // generator lateness per scheduled arrival, ms
}

func newTally() *tally { return &tally{kinds: map[string]*kindStats{}} }

// record books one request of kind k, due at due and finished now.
func (t *tally) record(k string, due time.Time, err error) {
	ms := float64(time.Since(due)) / 1e6
	t.mu.Lock()
	defer t.mu.Unlock()
	ks := t.kinds[k]
	if ks == nil {
		ks = &kindStats{}
		t.kinds[k] = ks
	}
	ks.Sent++
	if err != nil {
		ks.Failed++
		ms = math.Max(ms, failLatencyMS)
	} else {
		ks.Succeeded++
	}
	ks.lat = append(ks.lat, ms)
}

func (t *tally) lateness(ms float64) {
	t.mu.Lock()
	t.late = append(t.late, ms)
	t.mu.Unlock()
}

// latencies returns a copy of the latency samples of kind k.
func (t *tally) latencies(k string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ks := t.kinds[k]; ks != nil {
		return slices.Clone(ks.lat)
	}
	return nil
}

func (t *tally) totals() (sent, ok, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, ks := range t.kinds {
		sent += ks.Sent
		ok += ks.Succeeded
		failed += ks.Failed
	}
	return
}

func (t *tally) counts() map[string]kindStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]kindStats, len(t.kinds))
	for k, v := range t.kinds {
		out[k] = kindStats{Sent: v.Sent, Succeeded: v.Succeeded, Failed: v.Failed}
	}
	return out
}
