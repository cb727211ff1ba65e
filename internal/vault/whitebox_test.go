package vault

import (
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"nonrep/internal/canon"
	"nonrep/internal/clock"
	"nonrep/internal/store"
)

// TestCloseFlushesPendingSealNotifications: a seal still sitting in
// pendingSeals when the committer stops must reach the OnSeal hooks
// during Close — the old Close tore the vault down without a final
// notify pass, so replication missed the last segment until the next
// status catch-up.
func TestCloseFlushesPendingSealNotifications(t *testing.T) {
	t.Parallel()
	v, err := Open(t.TempDir(), clock.Real{})
	if err != nil {
		t.Fatal(err)
	}
	var sealed, committed atomic.Int64
	v.OnSeal(func(ManifestEntry) { sealed.Add(1) })
	v.OnCommit(func(recs []*store.Record) { committed.Add(int64(len(recs))) })
	// Seed an undelivered notification of each kind, as if the committer
	// had published but stopped before its notify pass.
	v.mu.Lock()
	v.pendingSeals = append(v.pendingSeals, ManifestEntry{Segment: 1, FirstSeq: 1, LastSeq: 1})
	v.pendingCommits = append(v.pendingCommits, []*store.Record{{Seq: 1}})
	v.mu.Unlock()
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sealed.Load(); got != 1 {
		t.Fatalf("seal hook calls after Close = %d, want 1", got)
	}
	if got := committed.Load(); got != 1 {
		t.Fatalf("commit hook records after Close = %d, want 1", got)
	}
}

// TestReplicaDoctoredManifestNumbering: manifest entry digests are
// unsigned self-hashes, so an attacker with disk access can write a
// chain-consistent manifest with arbitrary segment numbering. The load
// must reject it (sequential-from-1 is the invariant Receive's duplicate
// lookup indexes on) — and a subsequent Receive must error, never panic.
func TestReplicaDoctoredManifestNumbering(t *testing.T) {
	t.Parallel()
	rs, err := OpenReplicaSet(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const source = "urn:org:victim"
	dir := rs.Dir(source)
	if err := os.MkdirAll(dir, 0o700); err != nil {
		t.Fatal(err)
	}
	e := ManifestEntry{Segment: 100, FirstSeq: 1, LastSeq: 4}
	d, err := e.computeDigest()
	if err != nil {
		t.Fatal(err)
	}
	e.Digest = d
	line, err := canon.Marshal(&e)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), append(line, '\n'), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.LastSealed(source); !errors.Is(err, ErrSealBroken) {
		t.Fatalf("doctored manifest load: err = %v, want ErrSealBroken", err)
	}
	// And the ship path (which takes the duplicate branch for segment
	// numbers <= the claimed last) must refuse, not panic.
	if err := rs.Receive(source, &SegmentPackage{Entry: ManifestEntry{Segment: 5}}); !errors.Is(err, ErrSealBroken) {
		t.Fatalf("Receive against doctored manifest: err = %v, want ErrSealBroken", err)
	}
}
