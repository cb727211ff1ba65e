package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"nonrep"
)

// Parties and the service every workload calls.
const (
	clientParty  nonrep.Party   = "urn:org:client"
	serverParty  nonrep.Party   = "urn:org:server"
	replica1     nonrep.Party   = "urn:org:replica-1"
	replica2     nonrep.Party   = "urn:org:replica-2"
	auditorParty nonrep.Party   = "urn:org:auditor"
	echoService  nonrep.Service = "urn:org:server/echo"
	echoOp                      = "Echo"
)

const (
	// setupCount is how many set-ups setup_s is the median of, taken in
	// bursts of setupBurst; the last set-up is the one driven.
	// setupMaxTime bounds the search for set-ups on a quiet host.
	setupCount   = 25
	setupBurst   = 5
	setupMaxTime = 10 * time.Second
	// warmupCalls run after set-up and before measuring, so lazy set-up
	// and caches are done when the clock starts.
	warmupCalls = 20
	// callTimeout bounds one operation; a call that takes longer fails.
	callTimeout = 30 * time.Second
	// The post-load remote audit repeats until it has run auditBudget in
	// total or maxAuditReps times; audit_rec_s is the median rate.
	auditBudget  = time.Second
	auditMax     = 4 * time.Second
	maxAuditReps = 15
	// maxInflight caps an open loop's outstanding requests.
	maxInflight = 512
)

// rig is the part of a topology every workload shares: a client calling
// the echo service on a server, both vault-backed.
type rig struct {
	domain      *nonrep.Domain
	client      *nonrep.Org
	server      *nonrep.Org
	proxy       *nonrep.Proxy
	exec        *echoExecutor
	waitReceipt func(context.Context, nonrep.Run) error
	vaultDirs   []string
}

func (r *rig) close() error { return r.domain.Close() }

// rigSpec is what a workload adds to the shared topology.
type rigSpec struct {
	domain      []nonrep.DomainOption
	client      []nonrep.OrgOption
	clientVault []nonrep.VaultOption
	server      []nonrep.OrgOption
	serverVault []nonrep.VaultOption
	replicas    []nonrep.Party // replica stores, enrolled first
}

// newRig enrols the client and server with their vaults and the spec's
// options and starts the echo server.
func newRig(dir string, traced bool, spec rigSpec) (*rig, error) {
	domainOpts := spec.domain
	if traced {
		domainOpts = append(domainOpts[:len(domainOpts):len(domainOpts)], nonrep.WithTelemetry())
	}
	d, err := nonrep.NewDomain(domainOpts...)
	if err != nil {
		return nil, err
	}
	r := &rig{domain: d, exec: &echoExecutor{}}
	for i, p := range spec.replicas {
		if _, err := d.AddOrg(p, nonrep.WithReplicaStore(filepath.Join(dir, fmt.Sprintf("replica-%d", i+1)))); err != nil {
			d.Close()
			return nil, err
		}
	}
	r.vaultDirs = []string{filepath.Join(dir, "client-vault"), filepath.Join(dir, "server-vault")}
	r.server, err = d.AddOrg(serverParty, append([]nonrep.OrgOption{nonrep.WithVault(r.vaultDirs[1], spec.serverVault...)}, spec.server...)...)
	if err != nil {
		d.Close()
		return nil, err
	}
	r.client, err = d.AddOrg(clientParty, append([]nonrep.OrgOption{nonrep.WithVault(r.vaultDirs[0], spec.clientVault...)}, spec.client...)...)
	if err != nil {
		d.Close()
		return nil, err
	}
	r.waitReceipt = r.server.ServeExecutor(r.exec.executor()).WaitReceipt
	r.proxy = r.client.Proxy(serverParty, echoService, nil)
	return r, nil
}

// timedSetups builds a topology over and over, each time in a fresh
// directory, tears down all but the last and returns it with the seconds
// each counted set-up took. A set-up ends when its first call has
// completed. Before its clock starts, the previous topology is torn
// down, its directory removed and the heap collected, so every set-up
// starts from the same files and heap: set-ups slowed down by half when
// the vaults of earlier ones stayed on disk.
// Set-ups run in bursts of setupBurst, and the host's steal is read
// around each burst. Only bursts in which the host took at most
// cleanSteal count; bursts run until setupCount set-ups count, or, once
// setupMaxTime has passed, the least-stolen bursts make up setupCount.
func timedSetups[T interface{ close() error }](dir string, build func(dir string) (T, error)) (T, setupTimes, error) {
	type burst struct {
		secs  []float64
		steal float64
	}
	var bursts []burst
	var built T
	setupDir := func(i int) string { return filepath.Join(dir, fmt.Sprintf("setup-%d", i)) }
	start := time.Now()
	for i := 0; ; {
		s0, j0, err0 := cpuJiffies()
		var b burst
		for k := 0; k < setupBurst; k, i = k+1, i+1 {
			if i > 0 {
				if err := built.close(); err != nil {
					return built, setupTimes{}, fmt.Errorf("tear down set-up %d: %w", i-1, err)
				}
				if err := os.RemoveAll(setupDir(i - 1)); err != nil {
					return built, setupTimes{}, err
				}
			}
			runtime.GC()
			t0 := time.Now()
			var err error
			if built, err = build(setupDir(i)); err != nil {
				return built, setupTimes{}, fmt.Errorf("set-up %d: %w", i, err)
			}
			b.secs = append(b.secs, time.Since(t0).Seconds())
		}
		if s1, j1, err1 := cpuJiffies(); err0 == nil && err1 == nil {
			b.steal = stealShare(s0, j0, s1, j1)
		} // else no steal column: every burst is clean
		bursts = append(bursts, b)

		st := setupTimes{bursts: len(bursts)}
		for _, b := range bursts {
			if b.steal <= cleanSteal {
				st.secs = append(st.secs, b.secs...)
				st.clean++
			}
		}
		if len(st.secs) >= setupCount {
			return built, st, nil
		}
		if time.Since(start) >= setupMaxTime {
			sort.SliceStable(bursts, func(x, y int) bool { return bursts[x].steal < bursts[y].steal })
			st.secs = st.secs[:0]
			for _, b := range bursts {
				if len(st.secs) >= setupCount {
					break
				}
				st.secs = append(st.secs, b.secs...)
			}
			return built, st, nil
		}
	}
}

// setupTimes are the seconds of the set-ups that count, and how many of
// the bursts they ran in were clean.
type setupTimes struct {
	secs          []float64
	clean, bursts int
}

// argGen generates the call arguments of a pass from its seed: small
// order strings, distinct per call.
type argGen struct{ rng *rand.Rand }

func newArgGen(seed int64, stream int) *argGen {
	return &argGen{rng: rand.New(rand.NewSource(seed*7919 + int64(stream)))}
}

func (g *argGen) next() string {
	return fmt.Sprintf("order-%016x-qty-%d", g.rng.Uint64(), 1+g.rng.Intn(99))
}

// checkEcho verifies one echo call: completed, answered with the argument
// it was sent, and the client holding the run's four evidence tokens.
func checkEcho(res *nonrep.Result, arg string) error {
	if res.Status != nonrep.StatusOK {
		return fmt.Errorf("run %s: status %v: %s", res.Run, res.Status, res.Err)
	}
	if len(res.Evidence) != 4 {
		return fmt.Errorf("run %s: client holds %d evidence tokens, want 4", res.Run, len(res.Evidence))
	}
	want, err := json.Marshal(arg)
	if err != nil {
		return err
	}
	if len(res.Result) != 1 || string(res.Result[0].Value) != string(want) {
		return fmt.Errorf("run %s: echo returned %v, want %s", res.Run, res.Result, want)
	}
	return nil
}

// call makes one echo call and checks it.
func (r *rig) call(ctx context.Context, arg string) (*nonrep.Result, error) {
	ctx, cancel := context.WithTimeout(ctx, callTimeout)
	defer cancel()
	res, err := r.proxy.Call(ctx, echoOp, arg)
	if err != nil {
		return nil, err
	}
	return res, checkEcho(res, arg)
}

// warmUp makes warmupCalls calls and returns their runs.
func (r *rig) warmUp(ctx context.Context, args *argGen) ([]nonrep.Run, error) {
	var runs []nonrep.Run
	for i := 0; i < warmupCalls; i++ {
		res, err := r.call(ctx, args.next())
		if err != nil {
			return nil, fmt.Errorf("warm-up call: %w", err)
		}
		runs = append(runs, res.Run)
	}
	return runs, nil
}

// settle waits until the server holds the client's final receipt for
// every run, so both sides' evidence of the runs is complete.
func (r *rig) settle(ctx context.Context, runs []nonrep.Run) error {
	ctx, cancel := context.WithTimeout(ctx, callTimeout)
	defer cancel()
	for _, run := range runs {
		if run == "" {
			continue
		}
		if err := r.waitReceipt(ctx, run); err != nil {
			return fmt.Errorf("receipt of run %s: %w", run, err)
		}
	}
	return nil
}

// audit remote-audits the server's vault from the client and records the
// verdict and the rate. Audits repeat until one has run on a quiet host
// (see hostMeter) and auditBudget has passed, or auditMax has; the rate
// is the median over the quiet ones, else that of the least stolen.
func (r *rig) audit(ctx context.Context, res *result) {
	var clean, all dist
	var least struct{ steal, ms float64 }
	least.steal = 2
	records := 0
	for start := time.Now(); ; {
		s0, t0, _ := cpuJiffies()
		t := time.Now()
		rep, err := r.client.RemoteAudit(ctx, serverParty, "")
		el := ms(time.Since(t))
		s1, t1, _ := cpuJiffies()
		res.op(err)
		if err != nil {
			return
		}
		res.check(rep.Clean() && rep.Records > 0, "remote audit of the server: clean=%v records=%d chain=%q faults=%d",
			rep.Clean(), rep.Records, rep.ChainError, len(rep.Faults))
		records = rep.Records
		all.add(el)
		steal := stealShare(s0, t0, s1, t1)
		if steal <= cleanSteal {
			clean.add(el)
		}
		if steal < least.steal {
			least.steal, least.ms = steal, el
		}
		spent := time.Since(start)
		if (clean.n() > 0 && spent >= auditBudget) || all.n() >= maxAuditReps || spent >= auditMax {
			break
		}
	}
	took := least.ms
	if clean.n() > 0 {
		took = clean.q(0.5)
	}
	res.auditRecS = ratio(float64(records), took/1e3)
	res.layer["core.audit_ms"] = took
	res.layer["core.audit_records"] = float64(records)
	res.logf("remote audit: %d records in %.1f ms, %.0f records/s (%d audits, %d on a quiet host)", records, took, res.auditRecS, all.n(), clean.n())
}

// deepVerify deep-verifies both vaults.
func (r *rig) deepVerify(res *result) {
	for _, org := range []*nonrep.Org{r.client, r.server} {
		err := org.Vault().DeepVerify()
		res.check(err == nil, "DeepVerify of %s's vault: %v", org.Party(), err)
	}
}

// verifyVaults deep-verifies both vaults and records the evidence bytes
// per call and per record.
func (r *rig) verifyVaults(res *result, calls int) {
	r.deepVerify(res)
	var bytes int64
	var records uint64
	for i, org := range []*nonrep.Org{r.client, r.server} {
		v := org.Vault()
		n, err := dirBytes(r.vaultDirs[i])
		res.op(err)
		bytes += n
		seq, _ := v.LastPosition()
		records += seq
	}
	res.bytesPerCall = ratio(float64(bytes), float64(calls))
	res.layer["vault.bytes_per_record"] = ratio(float64(bytes), float64(records))
	res.logf("evidence: %d bytes in %d records over %d calls", bytes, records, calls)
}

// checkExecutions checks the server executed each completed call once.
func (r *rig) checkExecutions(res *result, calls int) {
	n := r.exec.executions.Load()
	res.check(n == int64(calls), "server executed %d requests for %d completed calls", n, calls)
}
