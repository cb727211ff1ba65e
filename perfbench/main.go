// Command perfbench is the benchmark of the nonrep middleware: it drives
// the public API through one of three workloads, checks every output, and
// prints each end-to-end metric (-trace 0) or each per-layer metric with
// the machine's ceilings (-trace 1), ending with one JSON line. The metric
// tables below are the contract BENCHMARK.json records; README.md says
// what each metric should respond to.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// metricDef is one named metric of BENCHMARK.json.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the middleware sees that repeat
// closely enough across runs on a shared host to gate a change, printed
// by an untraced run. Every workload defines each of them. The run also
// logs its latency, throughput, audit rate, CPU per call and its own
// figures, which vary too much between runs on such a host to gate on;
// README.md gives the measured spreads.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"evidence_bytes_per_call", "B", "lower"},
	{"rss_peak_mb", "MiB", "lower"},
}

// perLayer are the metrics of single layers, printed by a traced run. A
// layer a workload bypasses reads 0.
var perLayer = []metricDef{
	{"evidence.issue_us", "us", "lower"},
	{"evidence.verify_us", "us", "lower"},
	{"evidence.issued_per_call", "count", "lower"},
	{"evidence.verified_per_call", "count", "lower"},
	{"evidence.verify_failed", "count", "lower"},
	{"vault.append_us", "us", "lower"},
	{"vault.commit_us", "us", "lower"},
	{"vault.commit_batch", "count", "higher"},
	{"vault.commits_per_call", "count", "lower"},
	{"vault.seal_ms", "ms", "lower"},
	{"vault.seals", "count", "lower"},
	{"vault.bytes_per_record", "B", "lower"},
	{"invoke.client_self_us", "us", "lower"},
	{"invoke.server_execute_us", "us", "lower"},
	{"invoke.spans_per_call", "count", "lower"},
	{"protocol.request_self_us", "us", "lower"},
	{"protocol.deliver_self_us", "us", "lower"},
	{"transport.wire_msgs_per_call", "count", "lower"},
	{"transport.wire_bytes_per_call", "B", "lower"},
	{"transport.batch_occupancy", "count", "higher"},
	{"transport.dedup_hits", "count", "lower"},
	{"transport.chunk_mib", "MiB", "lower"},
	{"tcp.time_wait_start", "count", "lower"},
	{"tcp.time_wait_end", "count", "lower"},
	{"tcp.sustainable_calls_s", "1/s", "higher"},
	{"georep.quorum_lag_max_records", "count", "lower"},
	{"georep.flush_ms", "ms", "lower"},
	{"georep.shipped_segments", "count", "higher"},
	{"georep.errors", "count", "lower"},
	{"georep.replica_bytes_per_call", "B", "lower"},
	{"blob.put_ms", "ms", "lower"},
	{"blob.puts", "count", "lower"},
	{"blob.put_mib", "MiB", "lower"},
	{"blob.archive_bytes_per_call", "B", "lower"},
	{"feed.pushed_records", "count", "higher"},
	{"feed.records_per_push", "count", "higher"},
	{"feed.evicted", "count", "lower"},
	{"feed.outbox_depth_max", "count", "lower"},
	{"durable.submit_us", "us", "lower"},
	{"durable.wait_ms", "ms", "lower"},
	{"durable.retries", "count", "lower"},
	{"durable.queue_depth_max", "count", "lower"},
	{"core.audit_ms", "ms", "lower"},
	{"core.audit_records", "count", "higher"},
	{"go.allocs_per_call", "count", "lower"},
	{"go.alloc_bytes_per_call", "B", "lower"},
	{"go.gc_cpu_frac", "ratio", "lower"},
	{"harness.gen_late_p99_ms", "ms", "lower"},
	{"harness.inflight_max", "count", "lower"},
	{"harness.trace_overhead_pct", "%", "lower"},
	{"harness.steal_pct", "%", "lower"},
	{"ceiling.ed25519_sign_us", "us", "lower"},
	{"ceiling.ed25519_verify_us", "us", "lower"},
	{"ceiling.sha256_mib_s", "MiB/s", "higher"},
	{"ceiling.fsync_us", "us", "lower"},
	{"ceiling.tcp_exchange_us", "us", "lower"},
	{"ceiling.tcp_mib_s", "MiB/s", "higher"},
	{"ceiling_frac.evidence_issue", "ratio", "lower"},
	{"ceiling_frac.evidence_verify", "ratio", "lower"},
	{"ceiling_frac.vault_commit", "ratio", "lower"},
	{"ceiling_frac.protocol_request", "ratio", "lower"},
	{"ceiling_frac.stream_sha256", "ratio", "higher"},
	{"ceiling_frac.stream_tcp", "ratio", "higher"},
}

// workload is one traffic mix. run performs one pass: it sets the
// topology up, drives it for cfg.seconds, checks the outputs and tears
// everything down.
type workload struct {
	name string
	tcp  bool
	run  func(ctx context.Context, cfg *config) (*result, error)
	// bypass lists the layers the workload does not exercise; their
	// per-layer metrics read 0.
	bypass []string
}

var workloads = []workload{
	{"call-inproc", false, runCallInproc, []string{"tcp.", "georep.", "blob.", "feed.", "durable."}},
	{"geo-mixed-tcp", true, runGeoMixed, nil},
	{"stream-tcp", true, runStream, []string{"georep.", "blob.", "feed.", "durable."}},
}

// bypassed reports whether metric belongs to a layer w does not exercise.
func (w *workload) bypassed(metric string) bool {
	for _, prefix := range w.bypass {
		if strings.HasPrefix(metric, prefix) {
			return true
		}
	}
	return false
}

// config is one pass of a workload.
type config struct {
	seed    int64
	seconds float64
	traced  bool
	dir     string // empty directory owned by this pass
}

// result is what one pass measured and checked.
type result struct {
	setup        setupTimes
	call         *dist   // the workload's call latency, ms
	tail         float64 // the percentile call_tail_ms reports
	opsPerSec    float64
	auditRecS    float64
	bytesPerCall float64
	cpuUsPerCall float64
	rss          nominalMark // peak RSS when the load reached its nominal length
	calls        int         // completed invocations, the base of per-call ratios
	genLate      *dist
	inflightMax  int
	lines        []string           // workload-specific figures for the log
	layer        map[string]float64 // per-layer figures

	attempted, failed int
	failures          []string
}

func newResult() *result {
	return &result{layer: make(map[string]float64), call: &dist{name: "call", unit: "ms"}}
}

// op counts one attempted operation and whether it failed.
func (r *result) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.fail("operation failed: %v", err)
	}
}

// check counts one correctness check; a failed check fails the run.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.fail(format, args...)
	}
}

// fail records a failure message, keeping the first few.
func (r *result) fail(format string, args ...any) {
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) logf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// runDeadline bounds a whole invocation, so a hung run still exits in
// time for its caller to see the failure.
const runDeadline = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: call-inproc, geo-mixed-tcp or stream-tcp")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 8, "measuring time of the run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced pass")
	workdir := fs.String("workdir", ".bench_build", "directory for the run's evidence vaults")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload call-inproc|geo-mixed-tcp|stream-tcp, -trace 0|1 and -seconds > 0\n")
		return 2
	}
	watchdog := time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %s\n", w.name, runDeadline)
		os.Exit(3)
	})
	defer watchdog.Stop()
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	root, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(root)
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()

	fmt.Printf("workload %s, seed %d, %.0f s, trace %d\n", w.name, *seed, *seconds, *trace)
	var out map[string]float64
	var res *result
	if *trace == 0 {
		res, err = pass(ctx, w, &config{seed: *seed, seconds: *seconds, dir: filepath.Join(root, "untraced")})
		if err == nil {
			out, err = endToEndFigures(res)
		}
	} else {
		res, out, err = tracedRun(ctx, w, *seed, *seconds, root)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		v, ok := out[d.Name]
		if !ok && *trace == 1 && w.bypassed(d.Name) {
			v, ok = 0, true
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.check(false, "metric %s was not measured (%v)", d.Name, v)
			v = 0
		}
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
		fmt.Printf("%-34s %14.6g %s\n", d.Name, v, d.Unit)
	}
	correct := res.failed == 0
	for _, f := range res.failures {
		fmt.Printf("FAILED: %s\n", f)
	}
	fmt.Printf("fail_frac: %d failed of %d attempted operations and checks\n", res.failed, res.attempted)
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// pass runs one pass of a workload, first letting the loopback sockets of
// earlier runs drain when the workload uses TCP.
func pass(ctx context.Context, w *workload, cfg *config) (*result, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	logf := func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	var twStart int
	if w.tcp {
		var err error
		if twStart, err = drainTimeWait(logf); err != nil {
			return nil, err
		}
	}
	if err := awaitQuietHost(logf); err != nil {
		return nil, err
	}
	res, err := w.run(ctx, cfg)
	if err != nil {
		return nil, err
	}
	if w.tcp {
		twEnd, err := timeWaitSockets()
		if err != nil {
			return nil, err
		}
		res.layer["tcp.time_wait_start"] = float64(twStart)
		res.layer["tcp.time_wait_end"] = float64(twEnd)
		res.logf("tcp: %d sockets in TIME_WAIT at start, %d at end", twStart, twEnd)
	}
	if w.tcp {
		ports, err := ephemeralPorts()
		if err != nil {
			return nil, err
		}
		// Each exchange dials one connection, whose port then waits 60 s.
		res.layer["tcp.sustainable_calls_s"] = ratio(float64(ports)/timeWaitSeconds, res.layer["transport.wire_msgs_per_call"])
	}
	res.layer["harness.gen_late_p99_ms"] = res.genLate.q(0.99)
	res.layer["harness.inflight_max"] = float64(res.inflightMax)
	fmt.Printf("-- %s pass --\n", map[bool]string{false: "untraced", true: "traced"}[cfg.traced])
	fmt.Printf("setup: median %.4f s of %d set-ups; %d of %d bursts with at most %.0f%% steal\n",
		median(res.setup.secs), len(res.setup.secs), res.setup.clean, res.setup.bursts, 100*cleanSteal)
	fmt.Println(res.call.describe(res.tail))
	fmt.Println(res.genLate.describe(0.99) + fmt.Sprintf(", %d in flight at most", res.inflightMax))
	fmt.Printf("call_p50_ms: %.3f ms; call_tail_ms: %s %.3f ms; ops_s: %.2f per s; audit_rec_s: %.0f per s; cpu_us_per_call: %.0f us\n",
		res.call.q(0.5), pctName(res.tail), res.call.q(res.tail), res.opsPerSec, res.auditRecS, res.cpuUsPerCall)
	fmt.Printf("host: steal %.1f%% while measuring\n", res.layer["harness.steal_pct"])
	for _, l := range res.lines {
		fmt.Println(l)
	}
	return res, nil
}

// endToEndFigures maps an untraced pass onto the end-to-end metrics.
func endToEndFigures(res *result) (map[string]float64, error) {
	if res.rss.err != nil {
		return nil, res.rss.err
	}
	return map[string]float64{
		"setup_s":                 median(res.setup.secs),
		"evidence_bytes_per_call": res.bytesPerCall,
		"rss_peak_mb":             res.rss.rss,
	}, nil
}

// tracedRun measures the ceilings, then runs the workload untraced and
// traced for half the time each. The per-layer figures come from the
// traced pass, except the Go runtime's and the generator's, which the
// untraced pass gives without the tracer's own cost; the difference in
// median call latency between the passes is the tracing overhead.
func tracedRun(ctx context.Context, w *workload, seed int64, seconds float64, root string) (*result, map[string]float64, error) {
	ceil, err := probeCeilings(root)
	if err != nil {
		return nil, nil, fmt.Errorf("ceiling probe: %w", err)
	}
	fmt.Printf("ceilings: ed25519 sign %.1f us, verify %.1f us; sha256 %.0f MiB/s; fsync %.0f us; loopback TCP round trip %.1f us, %.0f MiB/s\n",
		ceil.signUs, ceil.verifyUs, ceil.sha256MiBs, ceil.fsyncUs, ceil.tcpRttUs, ceil.tcpMiBs)
	plain, err := pass(ctx, w, &config{seed: seed, seconds: seconds / 2, dir: filepath.Join(root, "untraced")})
	if err != nil {
		return nil, nil, err
	}
	traced, err := pass(ctx, w, &config{seed: seed, seconds: seconds / 2, traced: true, dir: filepath.Join(root, "traced")})
	if err != nil {
		return nil, nil, err
	}
	traced.attempted += plain.attempted
	traced.failed += plain.failed
	traced.failures = append(plain.failures, traced.failures...)
	m := traced.layer
	for k, v := range plain.layer {
		if strings.HasPrefix(k, "go.") || (strings.HasPrefix(k, "harness.") && k != "harness.steal_pct") {
			m[k] = v
		}
	}
	m["harness.trace_overhead_pct"] = 100 * ratio(traced.call.q(0.5)-plain.call.q(0.5), plain.call.q(0.5))
	m["ceiling.ed25519_sign_us"] = ceil.signUs
	m["ceiling.ed25519_verify_us"] = ceil.verifyUs
	m["ceiling.sha256_mib_s"] = ceil.sha256MiBs
	m["ceiling.fsync_us"] = ceil.fsyncUs
	m["ceiling.tcp_exchange_us"] = ceil.tcpRttUs
	m["ceiling.tcp_mib_s"] = ceil.tcpMiBs
	m["ceiling_frac.evidence_issue"] = ratio(m["evidence.issue_us"], ceil.signUs)
	m["ceiling_frac.evidence_verify"] = ratio(m["evidence.verify_us"], ceil.verifyUs)
	m["ceiling_frac.vault_commit"] = ratio(m["vault.commit_us"], ceil.fsyncUs)
	m["ceiling_frac.protocol_request"] = ratio(m["protocol.request_self_us"], ceil.tcpRttUs)
	streamMiBs := plain.layer["stream.mib_s"]
	m["ceiling_frac.stream_sha256"] = ratio(streamMiBs, ceil.sha256MiBs)
	m["ceiling_frac.stream_tcp"] = ratio(streamMiBs, ceil.tcpMiBs)
	return traced, m, nil
}
