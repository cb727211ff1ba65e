package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"time"

	"nonrep"
)

// stream-tcp is bound by bytes, not messages: one caller in a closed loop
// echoes a multi-MiB payload through CallStream over loopback TCP. It
// stresses chunking, the sha256 digest chains, framing and TCP
// throughput, and signs only four tokens per call.
const (
	streamPayload = 2 << 20
	// streamTagLen is the per-call tag ending each payload, so no two
	// calls send the same bytes.
	streamTagLen = 8
	// The server keeps every streamed result for the life of its domain
	// (about 11 MB of RSS per 2 MiB call), so a pass replaces its
	// topology after streamRigCalls calls to keep the process small; the
	// replacement is not timed.
	streamRigCalls = 10
)

// streamRig is one topology of a stream-tcp pass and what it has served.
type streamRig struct {
	*rig
	runs []nonrep.Run
	win  *window
}

func runStream(ctx context.Context, cfg *config) (*result, error) {
	res := newResult()
	res.tail = 0.9
	base := make([]byte, streamPayload-streamTagLen)
	rand.New(rand.NewSource(cfg.seed)).Read(base)
	seq := 0
	// call streams the next payload and checks the echo.
	call := func(ctx context.Context, r *streamRig) error {
		p := make([]byte, streamPayload)
		copy(p, base)
		binary.BigEndian.PutUint64(p[len(base):], uint64(cfg.seed)<<32|uint64(seq))
		seq++
		ctx, cancel := context.WithTimeout(ctx, callTimeout)
		defer cancel()
		out, err := r.proxy.CallStream(ctx, echoOp, nonrep.StreamParam("doc", bytes.NewReader(p)))
		if err != nil {
			return err
		}
		if out.Status != nonrep.StatusOK || len(out.Evidence) != 4 {
			return fmt.Errorf("run %s: status %v with %d tokens: %s", out.Run, out.Status, len(out.Evidence), out.Err)
		}
		r.runs = append(r.runs, out.Run)
		echo := out.Stream("echo0")
		if echo == nil {
			return fmt.Errorf("run %s: no echoed stream; have %v", out.Run, out.StreamNames())
		}
		// The echo is read chunk by chunk, each verified by the client
		// against the signed digest chain, and compared with what was sent.
		back, err := io.ReadAll(echo)
		if err != nil {
			return fmt.Errorf("run %s: read echo: %w", out.Run, err)
		}
		if !bytes.Equal(back, p) {
			return fmt.Errorf("run %s: echoed %d bytes differ from the %d sent", out.Run, len(back), len(p))
		}
		return nil
	}
	// build sets a topology up and makes its first call, which ends the
	// set-up and warms the route.
	build := func(dir string) (*streamRig, error) {
		r, err := newRig(dir, cfg.traced, rigSpec{domain: []nonrep.DomainOption{nonrep.WithTCP()}})
		if err != nil {
			return nil, err
		}
		sr := &streamRig{rig: r}
		if err := call(ctx, sr); err != nil {
			r.close()
			return nil, fmt.Errorf("first call: %w", err)
		}
		sr.runs = nil
		r.exec.executions.Store(0)
		return sr, nil
	}
	cur, setups, err := timedSetups(cfg.dir, build)
	if err != nil {
		return nil, err
	}
	res.setup = setups
	// finish checks everything a topology served. The last one is first
	// topped up to streamRigCalls calls, untimed, so that its audit and
	// evidence figures always cover the same amount of evidence.
	finish := func(r *streamRig, last bool) {
		if last {
			r.win.record(res, len(r.runs))
			for len(r.runs) < streamRigCalls {
				if err := call(ctx, r); err != nil {
					res.op(err)
					break
				}
			}
		} else {
			r.win.discard()
		}
		settleErr := r.settle(ctx, r.runs)
		res.check(settleErr == nil, "settle: %v", settleErr)
		r.checkExecutions(res, len(r.runs))
		if last {
			r.audit(ctx, res)
			r.verifyVaults(res, len(r.runs)+1)
		} else {
			r.deepVerify(res)
		}
		if err := r.close(); err != nil {
			res.check(false, "close topology: %v", err)
		}
	}
	cur.win = openWindow(cur.domain.Telemetry())

	meter := startHostMeter()
	nominal := time.Duration(cfg.seconds * float64(time.Second))
	type streamCall struct {
		done time.Time
		ms   float64
		cpu  float64 // process CPU seconds during the call
	}
	var calls []streamCall
	rigs := 0
	start := time.Now()
	for !meter.enough(start, nominal, &res.rss) && ctx.Err() == nil {
		if len(cur.runs) >= streamRigCalls {
			finish(cur, false)
			rigs++
			if cur, err = build(filepath.Join(cfg.dir, fmt.Sprintf("rig-%d", rigs))); err != nil {
				meter.close()
				return nil, err
			}
			cur.win = openWindow(cur.domain.Telemetry())
		}
		c0, t0 := cpuSeconds(), time.Now()
		err := call(ctx, cur)
		c := streamCall{done: time.Now(), cpu: cpuSeconds() - c0}
		c.ms = ms(c.done.Sub(t0))
		res.op(err)
		if err == nil {
			calls = append(calls, c)
		}
	}
	end := time.Now()
	meter.close()
	sel := meter.selectBlocks(start, end, nominal)
	res.call.name = "stream call"
	var cpu float64
	for _, c := range calls {
		if sel.has(c.done) {
			res.call.add(c.ms)
			cpu += c.cpu
		}
	}
	res.calls = len(calls)
	// One caller: its rate is the inverse of its mean call time, which
	// leaves out the untimed topology replacements.
	var total float64
	for _, v := range res.call.samples {
		total += v
	}
	res.opsPerSec = ratio(float64(res.call.n())*1e3, total)
	res.cpuUsPerCall = ratio(1e6*cpu, float64(res.call.n()))
	mibs := res.opsPerSec * streamPayload / (1 << 20)
	res.layer["stream.mib_s"] = mibs
	res.genLate = &dist{name: "generator lateness", unit: "ms"}
	res.genLate.add(0) // a closed loop is never late
	res.inflightMax = 1
	res.logf("stream_mib_s: %.2f MiB/s of %d MiB payloads echoed, %d calls on %d topologies over %.1f s; %s",
		mibs, streamPayload>>20, res.calls, rigs+1, end.Sub(start).Seconds(), sel.note)
	finish(cur, true)
	return res, nil
}
