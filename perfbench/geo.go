package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"nonrep"
)

// geo-mixed-tcp exercises the durability and fan-out plane, the wire and
// the coalescer, all of which call-inproc bypasses: a paced open loop over
// loopback TCP with pipelining, mixing Call, CallAsync+Wait and
// Provenance reads. The client replicates under a sync 2-of-3 quorum
// (georep), archives sealed segments (blob), journals async calls
// (durable) and is tailed by a live subscriber (feed); the server uses the
// legacy replicator, so both replication engines carry traffic.
const (
	geoRate = 40.0
	// geoClientSegment keeps the client's segments small so a run seals,
	// ships and archives many of them; the server seals a few.
	geoClientSegment = 256
	geoServerSegment = 1024
	// feedSettle bounds the wait for the subscriber to reach the vault
	// head after the load.
	feedSettle = 15 * time.Second
)

// geoMix is the operation mix: 70% Call, 20% CallAsync+Wait, 10%
// Provenance, indexed by opKind.
var geoMix = []float64{0.7, 0.2, 0.1}

// geoRig is the geo-mixed-tcp topology.
type geoRig struct {
	*rig
	auditor  *nonrep.Org
	replicas []*nonrep.Org
	archive  *timedBlob
	feed     *nonrep.Feed
	tail     *feedTail
}

func (g *geoRig) close() error {
	g.feed.Close()
	<-g.tail.done
	return g.rig.close()
}

// feedTail consumes the auditor's feed. It notes which runs' records
// arrived and, for records appended after measuring started, how long
// after its append (Record.At) each was delivered.
type feedTail struct {
	mu      sync.Mutex
	from    time.Time
	seen    map[nonrep.Run]bool
	lag     dist
	events  int
	records int
	done    chan struct{}
}

func tailFeed(f *nonrep.Feed) *feedTail {
	t := &feedTail{seen: make(map[nonrep.Run]bool), lag: dist{name: "feed lag", unit: "ms"}, done: make(chan struct{})}
	go func() {
		defer close(t.done)
		for ev := range f.Events() {
			now := time.Now()
			t.mu.Lock()
			if len(ev.Records) > 0 {
				t.events++
				t.records += len(ev.Records)
			}
			for _, rec := range ev.Records {
				if rec.Token != nil {
					t.seen[rec.Token.Run] = true
				}
				if !t.from.IsZero() && !rec.At.Before(t.from) {
					t.lag.add(ms(now.Sub(rec.At)))
				}
			}
			t.mu.Unlock()
		}
	}()
	return t
}

// measureFrom starts the lag measurement.
func (t *feedTail) measureFrom(at time.Time) {
	t.mu.Lock()
	t.from = at
	t.mu.Unlock()
}

func newGeoRig(ctx context.Context, dir string, traced bool) (*geoRig, error) {
	store, err := nonrep.OpenBlobFS(filepath.Join(dir, "archive"))
	if err != nil {
		return nil, err
	}
	archive := newTimedBlob(store)
	r, err := newRig(dir, traced, rigSpec{
		domain:   []nonrep.DomainOption{nonrep.WithTCP(), nonrep.WithPipelining()},
		replicas: []nonrep.Party{replica1, replica2},
		client: []nonrep.OrgOption{
			nonrep.WithQuorum(2, replica1, replica2),
			nonrep.WithArchive(archive),
			nonrep.WithDurable(),
		},
		clientVault: []nonrep.VaultOption{nonrep.VaultSegmentRecords(geoClientSegment)},
		server:      []nonrep.OrgOption{nonrep.WithReplication(replica1)},
		serverVault: []nonrep.VaultOption{nonrep.VaultSegmentRecords(geoServerSegment)},
	})
	if err != nil {
		return nil, err
	}
	g := &geoRig{rig: r, archive: archive}
	for _, p := range []nonrep.Party{replica1, replica2} {
		org, err := r.domain.Org(p)
		if err != nil {
			r.close()
			return nil, err
		}
		g.replicas = append(g.replicas, org)
	}
	if g.auditor, err = r.domain.AddOrg(auditorParty); err != nil {
		r.close()
		return nil, err
	}
	if g.feed, err = g.auditor.Subscribe(ctx, clientParty, nonrep.WatchConfig{}); err != nil {
		r.close()
		return nil, fmt.Errorf("subscribe: %w", err)
	}
	g.tail = tailFeed(g.feed)
	return g, nil
}

func runGeoMixed(ctx context.Context, cfg *config) (*result, error) {
	res := newResult()
	res.tail = 0.95
	args := newArgGen(cfg.seed, 0)
	g, setups, err := timedSetups(cfg.dir, func(dir string) (*geoRig, error) {
		g, err := newGeoRig(ctx, dir, cfg.traced)
		if err != nil {
			return nil, err
		}
		if _, err := g.call(ctx, args.next()); err != nil {
			g.close()
			return nil, fmt.Errorf("first call: %w", err)
		}
		return g, nil
	})
	if err != nil {
		return nil, err
	}
	defer g.close()
	res.setup = setups
	warm, err := g.warmUp(ctx, args)
	if err != nil {
		return nil, err
	}
	g.exec.executions.Store(0)

	dur := time.Duration(cfg.seconds * float64(time.Second))
	arrivals := poisson(cfg.seed, geoRate, stretch*dur, geoMix)
	callArgs := make([]string, len(arrivals))
	for i := range callArgs {
		callArgs[i] = args.next()
	}
	runs := make([]nonrep.Run, len(arrivals))
	// Provenance reads pick among the Call runs completed before them,
	// starting from the warm-up's.
	var doneMu sync.Mutex
	doneRuns := append([]nonrep.Run(nil), warm...)
	submit := &dist{name: "durable submit", unit: "us"}
	wait := &dist{name: "durable wait", unit: "ms"}
	var timeMu sync.Mutex

	var lagMax uint64
	sampleLag := func() {
		st := g.client.Durability()
		if st.LocalSeq > st.QuorumSeq && st.LocalSeq-st.QuorumSeq > lagMax {
			lagMax = st.LocalSeq - st.QuorumSeq
		}
	}
	win := openWindow(g.domain.Telemetry(), sampleLag)
	meter := startHostMeter()
	start := time.Now()
	g.tail.measureFrom(start)
	loop := runOpen(ctx, start, arrivals, dur, func() bool { return meter.enough(start, dur, &res.rss) }, maxInflight, func(ctx context.Context, i int) error {
		ctx, cancel := context.WithTimeout(ctx, callTimeout)
		defer cancel()
		switch arrivals[i].op {
		case opCall:
			out, err := g.proxy.Call(ctx, echoOp, callArgs[i])
			if err != nil {
				return err
			}
			runs[i] = out.Run
			if err := checkEcho(out, callArgs[i]); err != nil {
				return err
			}
			doneMu.Lock()
			doneRuns = append(doneRuns, out.Run)
			doneMu.Unlock()
			return nil
		case opAsync:
			t0 := time.Now()
			job, err := g.proxy.CallAsync(ctx, echoOp, callArgs[i])
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("submit: %w", err)
			}
			out, err := job.Wait(ctx)
			t2 := time.Now()
			timeMu.Lock()
			submit.add(float64(t1.Sub(t0).Nanoseconds()) / 1e3)
			wait.add(ms(t2.Sub(t1)))
			timeMu.Unlock()
			if err != nil {
				return fmt.Errorf("wait: %w", err)
			}
			runs[i] = out.Run
			return checkEcho(out, callArgs[i])
		default:
			doneMu.Lock()
			target := doneRuns[int(arrivals[i].pick*float64(len(doneRuns)))]
			doneMu.Unlock()
			graph, err := g.auditor.Provenance(ctx, clientParty, target)
			if err != nil {
				return fmt.Errorf("provenance of %s: %w", target, err)
			}
			if graph.Run != target || len(graph.Tokens) < 3 {
				return fmt.Errorf("provenance of %s: graph of run %s with %d tokens", target, graph.Run, len(graph.Tokens))
			}
			return nil
		}
	})
	end := time.Now()
	meter.close()
	sel := meter.selectBlocks(start, end, dur)
	byOp := map[opKind]*dist{
		opCall:  res.call,
		opAsync: {name: "async call+wait", unit: "ms"},
		opProv:  {name: "provenance", unit: "ms"},
	}
	calls := 0
	var callDone, opDone []time.Time
	for i, o := range loop.outcomes {
		res.op(o.err)
		if o.err != nil {
			continue
		}
		done := start.Add(o.done)
		opDone = append(opDone, done)
		if arrivals[i].op != opProv {
			calls++
			callDone = append(callDone, done)
		}
		if sel.has(start.Add(arrivals[i].due)) {
			byOp[arrivals[i].op].add(ms(o.latency(arrivals[i])))
		}
	}
	res.calls = calls
	res.genLate = loop.lateness(arrivals)
	res.inflightMax = loop.inflightMax
	res.opsPerSec = ratio(float64(sel.countIn(opDone)), sel.seconds())
	res.cpuUsPerCall = sel.cpuPerCallUs(callDone)
	res.logf("paced mix: %.0f ops/s offered, %d sent over %.1f s, %.1f ops/s completed; %s",
		geoRate, len(loop.outcomes), end.Sub(start).Seconds(), res.opsPerSec, sel.note)
	res.logf("async_p50_ms/async_p95_ms %s", byOp[opAsync].describe(0.95))
	res.logf("prov_p50_ms/prov_p95_ms %s", byOp[opProv].describe(0.95))

	settleErr := g.settle(ctx, runs)
	res.check(settleErr == nil, "settle: %v", settleErr)
	win.record(res, calls)
	res.layer["georep.quorum_lag_max_records"] = float64(lagMax)
	res.layer["durable.submit_us"] = submit.q(0.5)
	res.layer["durable.wait_ms"] = wait.q(0.5)
	g.checkExecutions(res, calls)

	g.checkDurability(ctx, res, calls)
	g.checkFeed(res, runs)
	g.audit(ctx, res)
	g.verifyVaults(res, calls+1+warmupCalls)
	return res, nil
}

// checkDurability seals and flushes both replication engines and checks
// that every record reached the quorum, every sealed segment the replicas
// and the archive, and that the archive verifies.
func (g *geoRig) checkDurability(ctx context.Context, res *result, calls int) {
	err := g.client.Vault().SealNow()
	res.check(err == nil, "seal the client vault: %v", err)
	t0 := time.Now()
	err = g.client.Georep().Flush(ctx)
	res.layer["georep.flush_ms"] = ms(time.Since(t0))
	res.check(err == nil, "georep flush: %v", err)
	st := g.client.Durability()
	res.check(st.QuorumSeq >= st.LocalSeq, "quorum position %d behind local %d after flush", st.QuorumSeq, st.LocalSeq)
	res.check(st.ArchiveError == "", "archive error: %s", st.ArchiveError)
	errs := 0
	if st.ArchiveError != "" {
		errs++
	}
	for _, t := range st.Targets {
		if t.LastError != "" {
			errs++
		}
	}
	res.layer["georep.errors"] += float64(errs)

	err = g.server.Vault().SealNow()
	res.check(err == nil, "seal the server vault: %v", err)
	err = g.server.Replication().Sync(ctx)
	res.check(err == nil, "legacy replication sync: %v", err)
	serverSegs := g.server.Vault().Stats().Segments
	held, err := g.replicas[0].Replicas().LastSealed(string(serverParty))
	res.check(err == nil && held == uint64(serverSegs), "replica-1 holds %d of the server's %d sealed segments (%v)", held, serverSegs, err)

	clientSegs := uint64(g.client.Vault().Stats().Segments)
	var shipped uint64
	var replicaBytes int64
	for _, r := range g.replicas {
		n, err := r.Replicas().LastSealed(string(clientParty))
		res.check(err == nil && n == clientSegs, "%s holds %d of the client's %d sealed segments (%v)", r.Party(), n, clientSegs, err)
		shipped += n
		b, err := dirBytes(r.Replicas().Root())
		res.op(err)
		replicaBytes += b
	}
	res.layer["georep.shipped_segments"] = float64(shipped)
	res.layer["georep.replica_bytes_per_call"] = ratio(float64(replicaBytes), float64(calls))

	entries, err := g.client.Archive().Manifest(ctx, string(clientParty))
	res.check(err == nil && uint64(len(entries)) == clientSegs, "archive manifest lists %d of %d segments (%v)", len(entries), clientSegs, err)
	for seg := uint64(1); seg <= uint64(len(entries)); seg++ {
		_, err := g.client.Archive().Fetch(ctx, string(clientParty), seg)
		res.check(err == nil, "archived segment %d does not verify: %v", seg, err)
	}
	puts, putMs, putBytes := g.archive.stats()
	res.layer["blob.puts"] = float64(puts)
	res.layer["blob.put_ms"] = putMs
	res.layer["blob.put_mib"] = float64(putBytes) / (1 << 20)
	res.layer["blob.archive_bytes_per_call"] = ratio(float64(putBytes), float64(calls))
	res.logf("durability: %d client segments on 2 replicas and the archive (%d puts, p50 %.2f ms), flush %.1f ms",
		clientSegs, puts, putMs, res.layer["georep.flush_ms"])
}

// checkFeed waits for the subscriber to reach the client's vault head and
// checks that it delivered evidence of every completed call.
func (g *geoRig) checkFeed(res *result, runs []nonrep.Run) {
	headSeq, headHash := g.client.Vault().LastPosition()
	deadline := time.Now().Add(feedSettle)
	for {
		seq, hash := g.feed.Position()
		if seq == headSeq && hash == headHash {
			break
		}
		if time.Now().After(deadline) {
			res.check(false, "feed head %d differs from vault head %d after %s", seq, headSeq, feedSettle)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	g.tail.mu.Lock()
	defer g.tail.mu.Unlock()
	missing := 0
	for _, run := range runs {
		if run != "" && !g.tail.seen[run] {
			missing++
		}
	}
	res.check(missing == 0, "feed delivered no record of %d completed calls", missing)
	res.layer["feed.records_per_push"] = ratio(float64(g.tail.records), float64(g.tail.events))
	res.logf("feed_lag_p99_ms (append to delivery) %s; %d records in %d pushes", g.tail.lag.describe(0.99), g.tail.records, g.tail.events)
}
