package georep

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"nonrep/internal/clock"
	"nonrep/internal/obs"
	"nonrep/internal/store"
	"nonrep/internal/vault"
)

// Mode selects when an append counts as durable.
type Mode string

const (
	// ModeAsync replicates in the background: appends return as soon as
	// they are locally durable, replicas trail.
	ModeAsync Mode = "async"
	// ModeSync gates appends on quorum acknowledgement: an append
	// returns only once Quorum replicas durably hold the record.
	ModeSync Mode = "sync"
)

// Policy is one organisation's replication durability policy.
type Policy struct {
	// Mode selects sync (quorum-gated) or async (trailing) replication.
	Mode Mode
	// Quorum is the number of replicas (the source not counted) that
	// must durably hold a record before a sync-mode append returns.
	Quorum int
	// AckTimeout bounds how long a sync-mode append waits for quorum
	// before failing (default 30s). The record is locally durable either
	// way and replicates eventually; the error tells the caller quorum
	// durability was not confirmed in time.
	AckTimeout time.Duration
}

// ErrQuorumUnmet reports a sync-mode wait that timed out before enough
// replicas acknowledged. The record remains locally durable and keeps
// replicating in the background.
var ErrQuorumUnmet = errors.New("georep: quorum not reached")

// Target is one peer region's receiving side as the engine sees it:
// tail pushes and acknowledgement status for the quorum path, plus
// sealed-segment shipping for catch-up and compaction.
// protocol.GeoTarget implements it over the wire; tests implement it
// directly over a ReplicaSet.
type Target interface {
	// AckedSeq reports the highest record sequence of source's vault the
	// target durably holds (sealed or tail).
	AckedSeq(ctx context.Context, source string) (uint64, error)
	// Append pushes a chain-contiguous batch of records, returning the
	// target's new acknowledged sequence.
	Append(ctx context.Context, source string, recs []*store.Record) (uint64, error)
	// LastSealed reports the highest segment of source's vault the
	// target already holds (0 for none) — the catch-up negotiation.
	LastSealed(ctx context.Context, source string) (uint64, error)
	// Ship delivers one sealed segment package for source.
	Ship(ctx context.Context, source string, pkg *vault.SegmentPackage) error
}

// waiter is one blocked WaitQuorum call.
type waiter struct {
	seq uint64
	ch  chan struct{}
}

// targetState is the engine's view of one peer replica.
type targetState struct {
	name   string
	t      Target
	notify chan struct{}

	// Guarded by Engine.mu.
	acked   uint64
	lastErr string
	// trusted reports that acked and sealedTo mirror the replica's
	// durable state: the previous pass completed cleanly, so the next
	// one can skip the status round trips and push straight from the
	// cached watermarks. Any pass error clears it, and the next pass
	// re-discovers both watermarks from the replica — the lost-ack
	// idempotence story is unchanged, it just stops taxing the steady
	// state.
	trusted  bool
	sealedTo uint64
}

// EngineOption tunes an Engine.
type EngineOption func(*Engine)

// WithArchive tiers sealed segments into an object-store archive as
// they seal: the region-loss backstop behind the replicas.
func WithArchive(a *Archive) EngineOption {
	return func(e *Engine) { e.archive = a }
}

// WithRetryInterval sets the background retry cadence for failed
// targets and archive passes (default 5s).
func WithRetryInterval(d time.Duration) EngineOption {
	return func(e *Engine) {
		if d > 0 {
			e.every = d
		}
	}
}

// WithPassTimeout bounds one background push or archive pass
// (default 30s).
func WithPassTimeout(d time.Duration) EngineOption {
	return func(e *Engine) {
		if d > 0 {
			e.timeout = d
		}
	}
}

// WithAsyncLinger sets how long an async pump lingers after a commit
// wakes it before pushing, so a burst of appends coalesces into one
// replica round trip (and one replica fsync) instead of one per group
// commit (default 50ms; 0 pushes immediately). It bounds how far an
// async replica trails the source; sync pumps never linger — a gated
// append is waiting on them.
func WithAsyncLinger(d time.Duration) EngineOption {
	return func(e *Engine) {
		if d >= 0 {
			e.linger = d
		}
	}
}

// WithObserver homes the engine's replication instruments — shipped
// segments, failed passes, and the worst and summed per-target
// distance behind the seal-chain head — in the given telemetry scope.
// A nil scope leaves the engine uninstrumented.
func WithObserver(scope *obs.Scope) EngineOption {
	return func(e *Engine) {
		e.shippedC = scope.Counter(obs.MReplShippedTotal)
		e.errorsC = scope.Counter(obs.MReplErrorsTotal)
		e.lagG = scope.Gauge(obs.MReplLagSegments)
		e.backlogG = scope.Gauge(obs.MReplBacklogSegments)
	}
}

// Engine drives one organisation's replication policy: per-target push
// pumps keep peer replicas' tails current (and their sealed history
// complete), acknowledgement watermarks feed the quorum arithmetic that
// WaitQuorum blocks on, and an optional archiver tiers every sealed
// segment into the object store. Pumps react to vault commits and seals
// immediately and retry failures on a clock-driven interval, so a
// target that was down catches up without operator action.
type Engine struct {
	v       *vault.Vault
	source  string
	policy  Policy
	clk     clock.Clock
	archive *Archive
	every   time.Duration
	timeout time.Duration
	linger  time.Duration

	// Telemetry instruments (nil and no-op without WithObserver).
	shippedC *obs.Counter
	errorsC  *obs.Counter
	lagG     *obs.Gauge
	backlogG *obs.Gauge

	mu          sync.Mutex
	targets     map[string]*targetState
	waiters     []*waiter
	archivedSeg uint64
	archiveErr  string

	archNotify   chan struct{}
	quit         chan struct{}
	wg           sync.WaitGroup
	cancelSeal   func()
	cancelCommit func()
	closeOnce    sync.Once
}

// NewEngine starts a policy engine replicating v (owned by source)
// according to policy. Add peer replicas with AddTarget.
func NewEngine(v *vault.Vault, source string, policy Policy, clk clock.Clock, opts ...EngineOption) *Engine {
	if clk == nil {
		clk = clock.Real{}
	}
	if policy.Mode == "" {
		policy.Mode = ModeAsync
	}
	if policy.AckTimeout <= 0 {
		policy.AckTimeout = 30 * time.Second
	}
	e := &Engine{
		v:          v,
		source:     source,
		policy:     policy,
		clk:        clk,
		every:      5 * time.Second,
		timeout:    30 * time.Second,
		linger:     50 * time.Millisecond,
		targets:    make(map[string]*targetState),
		archNotify: make(chan struct{}, 1),
		quit:       make(chan struct{}),
	}
	for _, opt := range opts {
		opt(e)
	}
	e.cancelCommit = v.OnCommit(func([]*store.Record) { e.nudgeAll() })
	e.cancelSeal = v.OnSeal(func(vault.ManifestEntry) {
		e.nudgeAll()
		nudge(e.archNotify)
	})
	if e.archive != nil {
		e.wg.Add(1)
		go e.archiveLoop()
	}
	return e
}

// Policy returns the engine's replication policy.
func (e *Engine) Policy() Policy { return e.policy }

// AddTarget registers a peer replica and starts its push pump.
func (e *Engine) AddTarget(name string, t Target) {
	st := &targetState{name: name, t: t, notify: make(chan struct{}, 1)}
	e.mu.Lock()
	e.targets[name] = st
	e.mu.Unlock()
	e.wg.Add(1)
	go e.pump(st)
	nudge(st.notify)
}

func nudge(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

func (e *Engine) nudgeAll() {
	e.mu.Lock()
	targets := make([]*targetState, 0, len(e.targets))
	for _, st := range e.targets {
		targets = append(targets, st)
	}
	e.mu.Unlock()
	for _, st := range targets {
		nudge(st.notify)
	}
}

// passContext bounds one background pass by the pass timeout AND by
// Close, so an in-flight push to an unreachable peer cannot hold
// shutdown hostage.
func (e *Engine) passContext() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(context.Background(), e.timeout)
	go func() {
		select {
		case <-e.quit:
			cancel()
		case <-ctx.Done():
		}
	}()
	return ctx, cancel
}

// pump is one target's push loop: every vault commit/seal — and, as a
// retry net, every interval — triggers one catch-up pass toward the
// target. An async pump lingers briefly after the wake so a burst of
// commits coalesces into one push; a sync pump passes immediately —
// gated appends are blocked on its acknowledgements.
func (e *Engine) pump(st *targetState) {
	defer e.wg.Done()
	for {
		t := clock.NewTimer(e.clk, e.every)
		select {
		case <-st.notify:
			t.Stop()
			if e.policy.Quorum <= 0 && e.linger > 0 {
				lt := clock.NewTimer(e.clk, e.linger)
				select {
				case <-lt.C():
				case <-e.quit:
					lt.Stop()
					return
				}
				// Absorb wakes that arrived while lingering: the pass
				// below covers them.
				select {
				case <-st.notify:
				default:
				}
			}
		case <-t.C():
		case <-e.quit:
			t.Stop()
			return
		}
		ctx, cancel := e.passContext()
		err := e.syncTarget(ctx, st)
		cancel()
		e.recordTarget(st, err)
	}
}

// recordTarget folds one pass's outcome into the target's status and
// the telemetry instruments.
func (e *Engine) recordTarget(st *targetState, err error) {
	var head uint64
	if e.lagG != nil {
		if m := e.v.Manifest(); len(m) > 0 {
			head = m[len(m)-1].Segment
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err != nil {
		st.lastErr = err.Error()
		st.trusted = false
		e.errorsC.Inc()
	} else {
		st.lastErr = ""
	}
	if e.lagG == nil {
		return
	}
	// Lag is the worst target's distance behind the seal-chain head;
	// backlog sums that distance across targets (the catch-up work
	// outstanding).
	var lag, backlog uint64
	for _, t := range e.targets {
		if t.sealedTo < head {
			d := head - t.sealedTo
			backlog += d
			lag = max(lag, d)
		}
	}
	e.lagG.Set(int64(lag))
	e.backlogG.Set(int64(backlog))
}

// syncTarget performs one catch-up pass toward a target: ship sealed
// segments it lacks (segment-major, cheapest for deep backlogs), then
// push the unsealed tail, then account the acknowledgement watermark.
// After a clean pass the target's watermarks are trusted mirrors, so
// the steady state pays one wire round trip per push — or none at all
// when the replica is current — instead of re-interrogating the
// replica's status every pass; any error drops back to full
// re-discovery.
func (e *Engine) syncTarget(ctx context.Context, st *targetState) error {
	e.mu.Lock()
	trusted, sealedTo, acked := st.trusted, st.sealedTo, st.acked
	e.mu.Unlock()
	manifest := e.v.Manifest()
	localSeq, _ := e.v.LastPosition()
	if localSeq == 0 && len(manifest) == 0 && e.policy.Quorum <= 0 {
		// Nothing to replicate yet: an empty vault costs no status round
		// trips, so peers enrolling after this organisation are not
		// polled before there is evidence to send them. A sync policy
		// still negotiates up front, or its first gated append would
		// wait on the status round trips as well as the push.
		return nil
	}
	if trusted && acked >= localSeq &&
		(len(manifest) == 0 || manifest[len(manifest)-1].Segment <= sealedTo) {
		return nil
	}
	var err error
	if !trusted {
		if sealedTo, err = st.t.LastSealed(ctx, e.source); err != nil {
			return fmt.Errorf("georep: %s status: %w", st.name, err)
		}
	}
	shipped := false
	for _, entry := range manifest {
		if entry.Segment <= sealedTo {
			continue
		}
		pkg, perr := e.v.Package(entry.Segment)
		if perr != nil {
			return fmt.Errorf("georep: package segment %d: %w", entry.Segment, perr)
		}
		if serr := st.t.Ship(ctx, e.source, pkg); serr != nil {
			return fmt.Errorf("georep: ship segment %d to %s: %w", entry.Segment, st.name, serr)
		}
		sealedTo, shipped = entry.Segment, true
		e.shippedC.Inc()
		e.mu.Lock()
		st.sealedTo = max(st.sealedTo, sealedTo)
		e.mu.Unlock()
	}
	// A shipped segment moves the replica's watermark (its tail rebases
	// onto the seal), so the cached mirror is stale after any ship —
	// re-read it then, and whenever the cache was not trustworthy.
	if !trusted || shipped {
		if acked, err = st.t.AckedSeq(ctx, e.source); err != nil {
			return fmt.Errorf("georep: %s status: %w", st.name, err)
		}
	}
	if localSeq > acked {
		recs, qerr := e.v.QueryAll(vault.Query{AfterSeq: acked})
		if qerr != nil {
			return fmt.Errorf("georep: read tail after %d: %w", acked, qerr)
		}
		if len(recs) > 0 {
			if acked, err = st.t.Append(ctx, e.source, recs); err != nil {
				return fmt.Errorf("georep: push %d records to %s: %w", len(recs), st.name, err)
			}
		}
	}
	e.setAcked(st, acked, sealedTo)
	return nil
}

// setAcked advances a target's watermarks after a clean pass — marking
// them trusted for the fast path — and wakes every waiter the new
// quorum covers.
func (e *Engine) setAcked(st *targetState, acked, sealedTo uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if acked > st.acked {
		st.acked = acked
	}
	if sealedTo > st.sealedTo {
		st.sealedTo = sealedTo
	}
	st.trusted = true
	q := e.quorumSeqLocked()
	kept := e.waiters[:0]
	for _, w := range e.waiters {
		if w.seq <= q {
			close(w.ch)
			continue
		}
		kept = append(kept, w)
	}
	e.waiters = kept
}

// quorumSeqLocked is the highest sequence at least Quorum targets have
// acknowledged — the Quorum-th highest watermark (0 when fewer targets
// than the quorum exist).
func (e *Engine) quorumSeqLocked() uint64 {
	n := e.policy.Quorum
	if n <= 0 {
		return 0
	}
	if len(e.targets) < n {
		return 0
	}
	acks := make([]uint64, 0, len(e.targets))
	for _, st := range e.targets {
		acks = append(acks, st.acked)
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i] > acks[j] })
	return acks[n-1]
}

// QuorumSeq reports the highest record sequence the configured quorum
// of replicas durably holds.
func (e *Engine) QuorumSeq() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.quorumSeqLocked()
}

// WaitQuorum blocks until Quorum replicas acknowledge holding seq, the
// policy's AckTimeout elapses (ErrQuorumUnmet), ctx is cancelled, or
// the engine closes. Under an async policy it returns immediately —
// async durability is local durability.
func (e *Engine) WaitQuorum(ctx context.Context, seq uint64) error {
	if e.policy.Mode != ModeSync || e.policy.Quorum <= 0 {
		return nil
	}
	e.mu.Lock()
	if e.quorumSeqLocked() >= seq {
		e.mu.Unlock()
		return nil
	}
	w := &waiter{seq: seq, ch: make(chan struct{})}
	e.waiters = append(e.waiters, w)
	e.mu.Unlock()
	t := clock.NewTimer(e.clk, e.policy.AckTimeout)
	defer t.Stop()
	select {
	case <-w.ch:
		return nil
	case <-t.C():
		e.dropWaiter(w)
		return fmt.Errorf("%w: record %d not acknowledged by %d replicas within %s",
			ErrQuorumUnmet, seq, e.policy.Quorum, e.policy.AckTimeout)
	case <-ctx.Done():
		e.dropWaiter(w)
		return ctx.Err()
	case <-e.quit:
		e.dropWaiter(w)
		return errors.New("georep: engine closed")
	}
}

func (e *Engine) dropWaiter(w *waiter) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, x := range e.waiters {
		if x == w {
			e.waiters = append(e.waiters[:i], e.waiters[i+1:]...)
			return
		}
	}
}

// archiveLoop tiers sealed segments into the object store as they
// seal, retrying failures on the interval.
func (e *Engine) archiveLoop() {
	defer e.wg.Done()
	for {
		t := clock.NewTimer(e.clk, e.every)
		select {
		case <-e.archNotify:
			t.Stop()
		case <-t.C():
		case <-e.quit:
			t.Stop()
			return
		}
		ctx, cancel := e.passContext()
		err := e.archivePass(ctx)
		cancel()
		e.mu.Lock()
		if err != nil {
			e.archiveErr = err.Error()
		} else {
			e.archiveErr = ""
		}
		e.mu.Unlock()
	}
}

// archivePass archives every sealed segment beyond the archive
// watermark, in order.
func (e *Engine) archivePass(ctx context.Context) error {
	if e.archive == nil {
		return nil
	}
	e.mu.Lock()
	from := e.archivedSeg
	e.mu.Unlock()
	for _, entry := range e.v.Manifest() {
		if entry.Segment <= from {
			continue
		}
		pkg, err := e.v.Package(entry.Segment)
		if err != nil {
			return fmt.Errorf("georep: package segment %d: %w", entry.Segment, err)
		}
		if err := e.archive.Put(ctx, e.source, pkg); err != nil {
			return fmt.Errorf("georep: archive segment %d: %w", entry.Segment, err)
		}
		e.mu.Lock()
		if entry.Segment > e.archivedSeg {
			e.archivedSeg = entry.Segment
		}
		e.mu.Unlock()
	}
	return nil
}

// TargetStatus is one peer replica's health as the engine sees it.
type TargetStatus struct {
	Name     string `json:"name"`
	AckedSeq uint64 `json:"acked_seq"`
	// SealedSegments is the highest sealed segment the target is known
	// to hold — the shipping watermark.
	SealedSegments uint64 `json:"sealed_segments"`
	// LastError is the most recent pass's failure ("" when healthy).
	LastError string `json:"last_error,omitempty"`
}

// Status is a point-in-time view of the engine — what Org.Durability
// and /healthz surface.
type Status struct {
	Mode      Mode   `json:"mode"`
	Quorum    int    `json:"quorum"`
	LocalSeq  uint64 `json:"local_seq"`
	QuorumSeq uint64 `json:"quorum_seq"`
	// Targets is sorted by name.
	Targets          []TargetStatus `json:"targets,omitempty"`
	ArchivedSegments uint64         `json:"archived_segments"`
	ArchiveError     string         `json:"archive_error,omitempty"`
}

// Status reports the engine's current state.
func (e *Engine) Status() Status {
	localSeq, _ := e.v.LastPosition()
	e.mu.Lock()
	defer e.mu.Unlock()
	s := Status{
		Mode:             e.policy.Mode,
		Quorum:           e.policy.Quorum,
		LocalSeq:         localSeq,
		QuorumSeq:        e.quorumSeqLocked(),
		ArchivedSegments: e.archivedSeg,
		ArchiveError:     e.archiveErr,
	}
	for _, st := range e.targets {
		s.Targets = append(s.Targets, TargetStatus{Name: st.name, AckedSeq: st.acked, SealedSegments: st.sealedTo, LastError: st.lastErr})
	}
	sort.Slice(s.Targets, func(i, j int) bool { return s.Targets[i].Name < s.Targets[j].Name })
	return s
}

// Flush performs one synchronous pass over every target and the
// archive — the deterministic "everything replicated and archived"
// point tests and planned shutdowns want. It returns the first error
// after attempting everything.
func (e *Engine) Flush(ctx context.Context) error {
	e.mu.Lock()
	targets := make([]*targetState, 0, len(e.targets))
	for _, st := range e.targets {
		targets = append(targets, st)
	}
	e.mu.Unlock()
	sort.Slice(targets, func(i, j int) bool { return targets[i].name < targets[j].name })
	var firstErr error
	for _, st := range targets {
		err := e.syncTarget(ctx, st)
		e.recordTarget(st, err)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if e.archive != nil {
		err := e.archivePass(ctx)
		e.mu.Lock()
		if err != nil {
			e.archiveErr = err.Error()
		} else {
			e.archiveErr = ""
		}
		e.mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Sync is Flush under the name the former sealed-segment replicator
// used.
//
// Deprecated: use Flush. Sync remains so callers written against the
// replicator, the benchmark harness among them, keep building.
func (e *Engine) Sync(ctx context.Context) error { return e.Flush(ctx) }

// Close stops the pumps and detaches the vault hooks. Waiters unblock
// with an error; records already appended keep their local durability.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		e.cancelCommit()
		e.cancelSeal()
		close(e.quit)
	})
	e.wg.Wait()
	return nil
}
