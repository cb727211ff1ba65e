package main

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// opKind is one operation of a workload's traffic mix.
type opKind uint8

const (
	opCall  opKind = iota // Proxy.Call
	opAsync               // Proxy.CallAsync followed by Job.Wait
	opProv                // Org.Provenance of an earlier run
)

// arrival is one generated request: when it is due, relative to the start
// of the open loop, what it does, and a uniform draw the operation may use
// to choose its target (a provenance read picks an earlier run with it).
type arrival struct {
	due  time.Duration
	op   opKind
	pick float64
}

// poisson generates the arrivals of an open loop: exponential gaps at rate
// per second until dur, each operation drawn from mix (weights per
// opKind, summing to 1). The same seed gives the same schedule.
func poisson(seed int64, rate float64, dur time.Duration, mix []float64) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	var t float64
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return out
		}
		u := rng.Float64()
		op := opKind(0)
		for acc := mix[0]; u >= acc && int(op) < len(mix)-1; acc += mix[op] {
			op++
		}
		out = append(out, arrival{due: due, op: op, pick: rng.Float64()})
	}
}

// outcome is what happened to one arrival, as offsets from the loop start.
type outcome struct {
	sent time.Duration
	done time.Duration
	err  error
}

// latency is the time from when the request was due to when it finished,
// so a stall is charged to every request that waited behind it.
func (o outcome) latency(a arrival) time.Duration { return o.done - a.due }

// openLoop is the result of driving a schedule: one outcome per arrival
// sent, in schedule order.
type openLoop struct {
	start       time.Time
	outcomes    []outcome
	inflightMax int
}

// lateness returns how far behind its schedule the generator sent each
// request, in milliseconds.
func (l *openLoop) lateness(arrivals []arrival) *dist {
	d := &dist{name: "generator lateness", unit: "ms"}
	for i, o := range l.outcomes {
		d.add(ms(o.sent - arrivals[i].due))
	}
	return d
}

// runOpen sends each arrival when it is due after start, whether or not
// earlier ones have finished, with at most maxInflight outstanding; when
// that many are outstanding the generator waits and runs late, which
// lateness reports. It stops before the first arrival due at or after
// nominal once enough reports true, and waits for what it sent. Arrivals
// not sent before ctx ends fail with its error.
func runOpen(ctx context.Context, start time.Time, arrivals []arrival, nominal time.Duration, enough func() bool,
	maxInflight int, do func(ctx context.Context, i int) error) *openLoop {
	l := &openLoop{start: start, outcomes: make([]outcome, len(arrivals))}
	sem := make(chan struct{}, maxInflight)
	var inflight, peak atomic.Int64
	var wg sync.WaitGroup
	sent := len(arrivals)
	for i, a := range arrivals {
		if a.due >= nominal && enough() {
			sent = i
			break
		}
		if d := time.Until(start.Add(a.due)); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			for j := i; j < len(arrivals); j++ {
				l.outcomes[j] = outcome{sent: time.Since(start), done: time.Since(start), err: ctx.Err()}
			}
			break
		}
		l.outcomes[i].sent = time.Since(start)
		if n := inflight.Add(1); n > peak.Load() {
			peak.Store(n)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := do(ctx, i)
			l.outcomes[i].done = time.Since(start)
			l.outcomes[i].err = err
			inflight.Add(-1)
			<-sem
		}(i)
	}
	wg.Wait()
	l.outcomes = l.outcomes[:sent]
	l.inflightMax = int(peak.Load())
	return l
}

// completion is one request of a closed loop.
type completion struct {
	done    time.Time
	latency float64 // ms
	err     error
}

// runClosed runs workers callers, each issuing its next request when the
// previous one returns, until enough reports true. Each caller's requests
// are numbered from zero; do receives the caller and the request number.
// Completions are returned in no particular order.
func runClosed(ctx context.Context, workers int, enough func() bool, do func(ctx context.Context, worker, seq int) error) []completion {
	var mu sync.Mutex
	var out []completion
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := 0; !enough() && ctx.Err() == nil; seq++ {
				t0 := time.Now()
				err := do(ctx, w, seq)
				c := completion{done: time.Now(), err: err}
				c.latency = ms(c.done.Sub(t0))
				mu.Lock()
				out = append(out, c)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return out
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
