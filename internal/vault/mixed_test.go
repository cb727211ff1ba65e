package vault_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"nonrep/internal/id"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
	"nonrep/internal/vault"
)

// appendRun appends n records for a fresh run and returns it.
func appendRun(t *testing.T, realm *testpki.Realm, v *vault.Vault, n int) id.Run {
	t.Helper()
	run := id.NewRun()
	for i := 1; i <= n; i++ {
		if _, err := v.Append(store.Generated, newToken(t, realm, run, i), "note"); err != nil {
			t.Fatal(err)
		}
	}
	return run
}

// copyCorpus copies a checked-in vault corpus into a fresh temp dir and
// returns the dir plus the corpus bytes by file name.
func copyCorpus(t *testing.T, name string) (string, map[string][]byte) {
	t.Helper()
	src := filepath.Join("testdata", name)
	dir := t.TempDir()
	want := dirBytes(t, src)
	for file, data := range want {
		if err := os.WriteFile(filepath.Join(dir, file), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	return dir, want
}

// dirBytes reads every file of dir by name.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// sameBytes fails unless dir holds exactly the files of want, byte for
// byte.
func sameBytes(t *testing.T, dir string, want map[string][]byte) {
	t.Helper()
	got := dirBytes(t, dir)
	if len(got) != len(want) {
		t.Fatalf("%d files in %s, want %d", len(got), dir, len(want))
	}
	for file, data := range want {
		if !bytes.Equal(got[file], data) {
			t.Fatalf("%s changed", file)
		}
	}
}

// segEncoding reports the encoding of segment n's file in dir.
func segEncoding(t *testing.T, dir string, n uint64) store.Encoding {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, segFileName(n)))
	if err != nil {
		t.Fatal(err)
	}
	return store.DetectEncoding(data)
}

// TestVaultMixedEncodings opens the checked-in legacy vaults, written
// before the vault became binary-only, and grows them with binary
// segments.
func TestVaultMixedEncodings(t *testing.T) {
	t.Parallel()
	t.Run("legacy-json-vault", testLegacyJSONTail)
	t.Run("legacy-json-torn-tail", testLegacyTornTail)
}

// testLegacyJSONTail: one sealed JSON segment plus a non-empty JSON
// tail. A read-only open leaves every byte as it was; a writable open
// seals the JSON tail as it stands; and the mixed result holds to every
// integrity surface: queries see every record across the boundary,
// DeepVerify walks the whole seal chain, replication ships and
// re-verifies both kinds of segment, and a wiped primary restores from
// the mixed replica.
func testLegacyJSONTail(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	dir, corpus := copyCorpus(t, "legacy-json-vault")

	// A read-only open serves the legacy records and writes nothing.
	ro, err := vault.Open(dir, realm.Clock, vault.WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	legacy := ro.Records()
	if len(legacy) != 4 || len(ro.Manifest()) != 1 {
		t.Fatalf("legacy corpus: %d records in %d sealed segments, want 4 in 1", len(legacy), len(ro.Manifest()))
	}
	runJSON := legacy[0].Token.Run
	if err := ro.DeepVerify(); err != nil {
		t.Fatalf("DeepVerify on legacy corpus: %v", err)
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}
	sameBytes(t, dir, corpus)

	// A writable open seals the non-empty JSON tail without rewriting it,
	// and the binary appends that follow start a fresh segment.
	v := openVault(t, dir, vault.WithSegmentRecords(3))
	if m := v.Manifest(); len(m) != 2 || m[1].LastSeq != 4 {
		t.Fatalf("manifest after writable open = %+v, want the JSON tail sealed as segment 2", m)
	}
	for _, seg := range []string{segFileName(1), segFileName(2)} {
		data, err := os.ReadFile(filepath.Join(dir, seg))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, corpus[seg]) {
			t.Fatalf("%s rewritten by the writable open", seg)
		}
	}
	runBin := appendRun(t, realm, v, 4) // seals segment 3, leaves a binary tail
	if err := v.SealNow(); err != nil {
		t.Fatal(err)
	}
	for n, want := range []store.Encoding{store.EncJSON, store.EncJSON, store.EncBinary, store.EncBinary} {
		if got := segEncoding(t, dir, uint64(n+1)); got != want {
			t.Fatalf("segment %d: encoding %v, want %v", n+1, got, want)
		}
	}

	// Integrity and query surfaces across the encoding boundary.
	if err := v.DeepVerify(); err != nil {
		t.Fatalf("DeepVerify over mixed encodings: %v", err)
	}
	if got := len(v.Records()); got != 8 {
		t.Fatalf("Records = %d, want 8", got)
	}
	for _, rc := range []struct {
		run  id.Run
		want int
	}{{runJSON, 4}, {runBin, 4}} {
		if got := len(v.ByRun(rc.run)); got != rc.want {
			t.Fatalf("ByRun = %d records, want %d", got, rc.want)
		}
	}

	// Replication ships both kinds of segment; the replica re-verifies
	// each against the shared seal chain.
	rs, err := vault.OpenReplicaSet(filepath.Join(t.TempDir(), "replicas"))
	if err != nil {
		t.Fatal(err)
	}
	shipAll(t, v, rs)
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	replicaDir := rs.Dir(sourceOrg)
	if segEncoding(t, replicaDir, 1) != store.EncJSON || segEncoding(t, replicaDir, 4) != store.EncBinary {
		t.Fatal("replica does not hold both encodings")
	}

	// A wiped primary restores the mixed history from the replica and
	// still deep-verifies and serves every record.
	restored, err := vault.Open(t.TempDir(), realm.Clock, vault.WithRestoreFrom(replicaDir))
	if err != nil {
		t.Fatalf("restore from mixed replica: %v", err)
	}
	defer restored.Close()
	if err := restored.DeepVerify(); err != nil {
		t.Fatalf("DeepVerify on restored mixed vault: %v", err)
	}
	if got := len(restored.Records()); got != 8 {
		t.Fatalf("restored Records = %d, want 8", got)
	}
	if got := len(restored.ByRun(runJSON)); got != 4 {
		t.Fatalf("restored ByRun(JSON era) = %d, want 4", got)
	}
	if got := len(restored.ByRun(runBin)); got != 4 {
		t.Fatalf("restored ByRun(binary era) = %d, want 4", got)
	}
}

// testLegacyTornTail: one sealed JSON segment plus a JSON tail holding
// only a torn line. A read-only open recovers in memory and writes
// nothing; a writable open truncates the torn line and restarts the now
// empty tail binary, chained on from the sealed JSON segment.
func testLegacyTornTail(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	dir, corpus := copyCorpus(t, "legacy-json-torn-tail")

	ro, err := vault.Open(dir, realm.Clock, vault.WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ro.Records()); got != 3 {
		t.Fatalf("read-only open: %d records, want the 3 sealed ones", got)
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}
	sameBytes(t, dir, corpus)

	v := openVault(t, dir, vault.WithSegmentRecords(3))
	defer v.Close()
	if len(v.Manifest()) != 1 {
		t.Fatalf("manifest = %+v, want only the sealed JSON segment", v.Manifest())
	}
	if got := segEncoding(t, dir, 2); got != store.EncBinary {
		t.Fatalf("restarted tail encoding %v, want binary", got)
	}
	run := appendRun(t, realm, v, 2)
	// Sealing the restarted tail pins its index: record offsets must
	// account for the binary header for queries to find the records.
	if err := v.SealNow(); err != nil {
		t.Fatal(err)
	}
	if err := v.DeepVerify(); err != nil {
		t.Fatalf("DeepVerify after the restarted tail: %v", err)
	}
	if got := len(v.Records()); got != 5 {
		t.Fatalf("Records = %d, want 5", got)
	}
	if got := len(v.ByRun(run)); got != 2 {
		t.Fatalf("ByRun = %d, want 2", got)
	}
}

// segFileName mirrors the vault's segment naming for test inspection.
func segFileName(n uint64) string { return fmt.Sprintf("seg-%08d.log", n) }
