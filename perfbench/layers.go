package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"nonrep"
)

// Metric names the program already records (internal/obs/names.go). The
// benchmark reads them through Domain.Telemetry and adds none.
const (
	mTokenIssueNs     = "nonrep_token_issue_ns"
	mTokensIssued     = "nonrep_tokens_issued_total"
	mTokenVerifyNs    = "nonrep_token_verify_ns"
	mTokenVerifyFail  = "nonrep_token_verify_failed_total"
	mTokensVerified   = "nonrep_tokens_verified_total"
	mVaultAppendNs    = "nonrep_vault_append_ns"
	mVaultCommitNs    = "nonrep_vault_commit_ns"
	mVaultCommitBatch = "nonrep_vault_commit_batch"
	mVaultSealNs      = "nonrep_vault_seal_ns"
	mVaultSeals       = "nonrep_vault_seals_total"
	mReplErrors       = "nonrep_replication_errors_total"
	mChunkBytes       = "nonrep_chunk_reassembly_bytes"
	mBatchOccupancy   = "nonrep_coalesce_batch_occupancy"
	mDedupHits        = "nonrep_dedup_hits_total"
	mEnvelopesPrefix  = "nonrep_envelopes_" // one counter per envelope kind
	mJobRetries       = "nonrep_durable_job_retries_total"
	mJobQueueDepth    = "nonrep_durable_queue_depth"
	mSubPushed        = "nonrep_sub_pushed_records_total"
	mSubEvicted       = "nonrep_sub_evicted_total"
	mSubOutboxDepth   = "nonrep_sub_outbox_depth"
)

// Span names the program already records around its layer boundaries.
const (
	spanClientInvoke  = "client.invoke"
	spanServerExecute = "server.execute"
	spanRequest       = "transport.request"
	spanDeliver       = "transport.deliver"
)

// window brackets a measured interval. It always records the Go runtime's
// allocation and GC counters; on a traced domain it also snapshots the
// telemetry registry at both ends, harvests the sampled spans, and runs
// the samplers a workload adds for gauges that only have a current value.
type window struct {
	tel       *nonrep.Telemetry
	start     time.Time
	before    nonrep.MetricsSnapshot
	after     nonrep.MetricsSnapshot
	mem0      runtime.MemStats
	mem1      runtime.MemStats
	gc0, cpu0 float64
	gc1, cpu1 float64
	// Machine steal and total jiffies, and loopback bytes, at each end.
	steal0, total0, steal1, total1 float64
	lo0, lo1                       float64

	mu       sync.Mutex
	spans    map[string]nonrep.SpanRecord
	gaugeMax map[string]int64
	samplers []func()
	stop     chan struct{}
	done     chan struct{}
}

// sampleEvery is the sampling period of gauges and quorum lag; spans are
// harvested every harvestTicks periods, well before the tracer's
// 2048-span ring can wrap at the sampled trace rate.
const (
	sampleEvery  = 10 * time.Millisecond
	harvestTicks = 20
)

func openWindow(tel *nonrep.Telemetry, samplers ...func()) *window {
	w := &window{tel: tel, start: time.Now(), samplers: samplers}
	if tel != nil {
		w.spans = make(map[string]nonrep.SpanRecord)
		w.gaugeMax = make(map[string]int64)
		w.before = tel.Registry().Snapshot()
		w.stop = make(chan struct{})
		w.done = make(chan struct{})
		go w.sample()
	}
	w.gc0, w.cpu0 = gcCPU()
	runtime.ReadMemStats(&w.mem0)
	w.steal0, w.total0, _ = cpuJiffies()
	w.lo0, _ = loopbackBytes()
	return w
}

func (w *window) sample() {
	defer close(w.done)
	t := time.NewTicker(sampleEvery)
	defer t.Stop()
	for tick := 1; ; tick++ {
		select {
		case <-w.stop:
			w.harvest()
			return
		case <-t.C:
		}
		for _, s := range w.samplers {
			s()
		}
		snap := w.tel.Registry().Snapshot()
		w.mu.Lock()
		for _, g := range snap.Gauges {
			if g.Value > w.gaugeMax[g.Name] {
				w.gaugeMax[g.Name] = g.Value
			}
		}
		w.mu.Unlock()
		if tick%harvestTicks == 0 {
			w.harvest()
		}
	}
}

func (w *window) harvest() {
	recent := w.tel.Tracer().Recent(0)
	w.mu.Lock()
	for _, s := range recent {
		if !s.Start.Before(w.start) {
			w.spans[s.SpanID] = s
		}
	}
	w.mu.Unlock()
}

// record ends the window, once the measured work is done, and records
// its figures for calls completed calls.
func (w *window) record(res *result, calls int) {
	w.steal1, w.total1, _ = cpuJiffies()
	w.lo1, _ = loopbackBytes()
	runtime.ReadMemStats(&w.mem1)
	w.gc1, w.cpu1 = gcCPU()
	if w.tel != nil {
		close(w.stop)
		<-w.done
		w.after = w.tel.Registry().Snapshot()
	}
	res.layer["harness.steal_pct"] = 100 * stealShare(w.steal0, w.total0, w.steal1, w.total1)
	w.runtimeFigures(calls, res.layer)
	if w.tel != nil {
		w.telemetryFigures(calls, res.layer)
	}
}

// discard ends the window without recording it.
func (w *window) discard() {
	if w.tel != nil {
		close(w.stop)
		<-w.done
	}
}

// gcCPU reads the process's cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// counter is a counter's increase over the window, summed over tenants.
func (w *window) counter(name string) float64 {
	return float64(w.after.CounterTotal(name) - w.before.CounterTotal(name))
}

// hist returns a histogram's observation count and sum over the window,
// summed over tenants.
func (w *window) hist(name string) (count, sum float64) {
	tot := func(s nonrep.MetricsSnapshot) (c, v int64) {
		for _, h := range s.Histograms {
			if h.Name == name {
				c += h.Count
				v += h.Sum
			}
		}
		return c, v
	}
	c1, s1 := tot(w.after)
	c0, s0 := tot(w.before)
	return float64(c1 - c0), float64(s1 - s0)
}

// histMean is a histogram's mean over the window (0 with no observations).
func (w *window) histMean(name string) float64 {
	c, s := w.hist(name)
	return ratio(s, c)
}

// runtimeFigures records the Go runtime's cost per call.
func (w *window) runtimeFigures(calls int, m map[string]float64) {
	m["go.allocs_per_call"] = ratio(float64(w.mem1.Mallocs-w.mem0.Mallocs), float64(calls))
	m["go.alloc_bytes_per_call"] = ratio(float64(w.mem1.TotalAlloc-w.mem0.TotalAlloc), float64(calls))
	m["go.gc_cpu_frac"] = ratio(w.gc1-w.gc0, w.cpu1-w.cpu0)
}

// telemetryFigures records the per-layer figures of a traced window, per
// completed call where the name says so.
func (w *window) telemetryFigures(calls int, m map[string]float64) {
	n := float64(calls)
	m["evidence.issue_us"] = w.histMean(mTokenIssueNs) / 1e3
	m["evidence.verify_us"] = w.histMean(mTokenVerifyNs) / 1e3
	m["evidence.issued_per_call"] = ratio(w.counter(mTokensIssued), n)
	m["evidence.verified_per_call"] = ratio(w.counter(mTokensVerified), n)
	m["evidence.verify_failed"] = w.counter(mTokenVerifyFail)
	m["vault.append_us"] = w.histMean(mVaultAppendNs) / 1e3
	m["vault.commit_us"] = w.histMean(mVaultCommitNs) / 1e3
	m["vault.commit_batch"] = w.histMean(mVaultCommitBatch)
	commits, _ := w.hist(mVaultCommitNs)
	m["vault.commits_per_call"] = ratio(commits, n)
	m["vault.seal_ms"] = w.histMean(mVaultSealNs) / 1e6
	m["vault.seals"] = w.counter(mVaultSeals)
	var envelopes float64
	for name, v := range w.after.CounterTotals() {
		if strings.HasPrefix(name, mEnvelopesPrefix) {
			envelopes += float64(v - w.before.CounterTotal(name))
		}
	}
	m["transport.wire_msgs_per_call"] = ratio(envelopes, n)
	m["transport.wire_bytes_per_call"] = ratio(w.lo1-w.lo0, n)
	m["transport.batch_occupancy"] = w.histMean(mBatchOccupancy)
	m["transport.dedup_hits"] = w.counter(mDedupHits)
	_, chunk := w.hist(mChunkBytes)
	m["transport.chunk_mib"] = chunk / (1 << 20)
	m["feed.pushed_records"] = w.counter(mSubPushed)
	m["feed.evicted"] = w.counter(mSubEvicted)
	m["durable.retries"] = w.counter(mJobRetries)
	m["georep.errors"] += w.counter(mReplErrors)
	w.mu.Lock()
	m["feed.outbox_depth_max"] = float64(w.gaugeMax[mSubOutboxDepth])
	m["durable.queue_depth_max"] = float64(w.gaugeMax[mJobQueueDepth])
	spans := make([]nonrep.SpanRecord, 0, len(w.spans))
	for _, s := range w.spans {
		spans = append(spans, s)
	}
	w.mu.Unlock()
	self, roots := selfTimes(spans)
	m["invoke.spans_per_call"] = ratio(float64(len(spans)), float64(roots))
	m["invoke.client_self_us"] = self[spanClientInvoke].q(0.5)
	m["invoke.server_execute_us"] = self[spanServerExecute].q(0.5)
	m["protocol.request_self_us"] = self[spanRequest].q(0.5)
	m["protocol.deliver_self_us"] = self[spanDeliver].q(0.5)
}

// selfTimes returns, per span name, the distribution of self time in µs —
// a span's duration minus the part of it its children cover — and the
// number of root spans (one per traced call).
func selfTimes(spans []nonrep.SpanRecord) (map[string]*dist, int) {
	children := make(map[string][]nonrep.SpanRecord)
	for _, s := range spans {
		if s.Parent != "" {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*dist)
	roots := 0
	for _, s := range spans {
		if s.Name == spanClientInvoke {
			roots++
		}
		d := out[s.Name]
		if d == nil {
			d = &dist{name: s.Name, unit: "us"}
			out[s.Name] = d
		}
		d.add(float64(selfNs(s, children[s.SpanID])) / 1e3)
	}
	// Names no span carried read as zero rather than missing.
	for _, name := range []string{spanClientInvoke, spanServerExecute, spanRequest, spanDeliver} {
		if out[name] == nil {
			out[name] = &dist{name: name, unit: "us"}
		}
	}
	return out, roots
}

// selfNs is parent's duration minus the union of its children's
// intervals, each clipped to the parent's.
func selfNs(parent nonrep.SpanRecord, kids []nonrep.SpanRecord) int64 {
	start := parent.Start.UnixNano()
	end := start + parent.DurationNs
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a := max(k.Start.UnixNano(), start)
		b := min(k.Start.UnixNano()+k.DurationNs, end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	// Insertion sort: a span has a handful of children.
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0 && ivs[j].a < ivs[j-1].a; j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	var covered, reach int64
	reach = start
	for _, v := range ivs {
		if v.a > reach {
			reach = v.a
		}
		if v.b > reach {
			covered += v.b - reach
			reach = v.b
		}
	}
	return parent.DurationNs - covered
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// loopbackBytes reads the bytes received on the loopback interface, which
// in this container only the benchmark's own connections use.
func loopbackBytes() (float64, error) {
	raw, err := os.ReadFile("/proc/net/dev")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		name, rest, ok := strings.Cut(line, ":")
		if ok && strings.TrimSpace(name) == "lo" {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, errors.New("no loopback interface in /proc/net/dev")
}

// rssPeakMiB reads the process's peak resident set size.
func rssPeakMiB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
