package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"nonrep"
)

// call-inproc is the paper's interceptor path alone: small Proxy.Call
// invocations between two vault-backed organisations on the in-process
// network, with fsync group commit and no pipelining, replication or
// subscribers. It is bound by evidence signing and verification and by
// vault commit, and bypasses TCP, georep, feed, durable, blob and
// chunking. After the load the client remote-audits the server's vault.
const (
	inprocRate      = 200.0 // paced arrivals per second, below the knee
	inprocPacedFrac = 0.6   // share of the run paced; the rest saturates
	inprocCallers   = 8     // closed-loop callers of the saturate phase
)

func runCallInproc(ctx context.Context, cfg *config) (*result, error) {
	res := newResult()
	res.tail = 0.9
	args := newArgGen(cfg.seed, 0)
	r, setups, err := timedSetups(cfg.dir, func(dir string) (*rig, error) {
		r, err := newRig(dir, cfg.traced, rigSpec{})
		if err != nil {
			return nil, err
		}
		if _, err := r.call(ctx, args.next()); err != nil {
			r.close()
			return nil, fmt.Errorf("first call: %w", err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	defer r.close()
	res.setup = setups
	if _, err := r.warmUp(ctx, args); err != nil {
		return nil, err
	}
	// The executor has run the warm-up and the first call.
	r.exec.executions.Store(0)

	paced := time.Duration(cfg.seconds * inprocPacedFrac * float64(time.Second))
	saturate := time.Duration(cfg.seconds*float64(time.Second)) - paced
	arrivals := poisson(cfg.seed, inprocRate, stretch*paced, []float64{1})
	callArgs := make([]string, len(arrivals))
	for i := range callArgs {
		callArgs[i] = args.next()
	}
	runs := make([]nonrep.Run, len(arrivals))
	win := openWindow(r.domain.Telemetry())
	meter := startHostMeter()
	pacedStart := time.Now()
	loop := runOpen(ctx, pacedStart, arrivals, paced, func() bool { return meter.enough(pacedStart, paced, &res.rss) }, maxInflight,
		func(ctx context.Context, i int) error {
			out, err := r.call(ctx, callArgs[i])
			if out != nil {
				runs[i] = out.Run
			}
			return err
		})
	pacedEnd := time.Now()

	// Saturate: each caller draws its arguments from its own seeded stream.
	callerArgs := make([]*argGen, inprocCallers)
	for w := range callerArgs {
		callerArgs[w] = newArgGen(cfg.seed, 1+w)
	}
	var mu sync.Mutex
	satStart := time.Now()
	sat := runClosed(ctx, inprocCallers, func() bool { return meter.enough(satStart, saturate, nil) },
		func(ctx context.Context, w, _ int) error {
			out, err := r.call(ctx, callerArgs[w].next())
			if out != nil {
				mu.Lock()
				runs = append(runs, out.Run)
				mu.Unlock()
			}
			return err
		})
	satEnd := time.Now()
	meter.close()

	pacedSel := meter.selectBlocks(pacedStart, pacedEnd, paced)
	var pacedDone []time.Time
	for i, o := range loop.outcomes {
		res.op(o.err)
		if o.err != nil {
			continue
		}
		pacedDone = append(pacedDone, pacedStart.Add(o.done))
		if pacedSel.has(pacedStart.Add(arrivals[i].due)) {
			res.call.add(ms(o.latency(arrivals[i])))
		}
	}
	res.cpuUsPerCall = pacedSel.cpuPerCallUs(pacedDone)
	res.genLate = loop.lateness(arrivals)
	res.inflightMax = loop.inflightMax
	res.logf("paced: %.0f calls/s offered, %d sent over %.1f s; %s", inprocRate, len(loop.outcomes), pacedEnd.Sub(pacedStart).Seconds(), pacedSel.note)

	satSel := meter.selectBlocks(satStart, satEnd, saturate)
	satLat := &dist{name: "saturate call", unit: "ms"}
	completed := len(pacedDone)
	var satDone []time.Time
	for _, c := range sat {
		res.op(c.err)
		if c.err != nil {
			continue
		}
		completed++
		if satSel.has(c.done) {
			satDone = append(satDone, c.done)
			satLat.add(c.latency)
		}
	}
	res.opsPerSec = ratio(float64(len(satDone)), satSel.seconds())
	res.calls = completed
	res.logf("saturate: %d callers, %.1f calls/s, %s; %s", inprocCallers, res.opsPerSec, satLat.describe(0.99), satSel.note)

	settleErr := r.settle(ctx, runs)
	res.check(settleErr == nil, "settle: %v", settleErr)
	win.record(res, completed)
	if cfg.traced {
		// Each run issues and verifies exactly two tokens at each party.
		res.check(res.layer["evidence.issued_per_call"] == 4, "evidence.issued_per_call = %v, want 4", res.layer["evidence.issued_per_call"])
		res.check(res.layer["evidence.verified_per_call"] == 4, "evidence.verified_per_call = %v, want 4", res.layer["evidence.verified_per_call"])
	}
	r.checkExecutions(res, completed)
	r.audit(ctx, res)
	r.verifyVaults(res, completed+1+warmupCalls)
	return res, nil
}
