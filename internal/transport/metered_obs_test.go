package transport

import (
	"context"
	"testing"

	"nonrep/internal/obs"
)

// chunkEcho answers every request with a chunk-data frame carrying a
// fixed slice payload — the shape of a chunked-reply fetch.
type chunkEcho struct{ data []byte }

func (h *chunkEcho) Handle(_ context.Context, env *Envelope) (*Envelope, error) {
	return NewEnvelope(KindChunkData, marshalChunkFrame(&chunkFrame{Stream: "s", Seq: 0, Data: h.data})), nil
}

// TestMeteredCountsChunkPayloads locks in the chunked-transfer byte
// accounting: chunk-* envelopes contribute their decoded slice payload —
// not their frame encoding — and chunked replies are counted
// at all (they used to be, only the request leg was).
func TestMeteredCountsChunkPayloads(t *testing.T) {
	t.Parallel()
	inner := NewInprocNetwork()
	defer inner.Close()
	reg := obs.NewRegistry()
	metered := NewMeteredWith(inner, reg)

	payload := make([]byte, 1000)
	b, err := metered.Register("b", &chunkEcho{data: payload})
	if err != nil {
		t.Fatal(err)
	}
	a, err := metered.Register("a", &chunkEcho{data: nil})
	if err != nil {
		t.Fatal(err)
	}

	// Request leg: a chunk-part frame carrying 1000 slice bytes. Reply
	// leg: a chunk-data frame carrying another 1000.
	// The binary frame adds its header fields and the payload's length
	// prefix, so counting the frame would overshoot the payload.
	reqBody := marshalChunkFrame(&chunkFrame{Stream: "s", Seq: 0, Data: payload})
	if len(reqBody) <= len(payload) {
		t.Fatalf("frame encoding (%d bytes) not larger than payload (%d) — test premise broken", len(reqBody), len(payload))
	}
	if _, err := a.Request(context.Background(), b.Addr(), NewEnvelope(KindChunkPart, reqBody)); err != nil {
		t.Fatal(err)
	}
	if got := metered.Bytes(); got != 2000 {
		t.Fatalf("Bytes = %d, want 2000 (decoded slice payload of request and reply)", got)
	}
	// The counters are homed in the shared registry, keyed by the wire
	// metric names.
	if got := reg.Snapshot().CounterTotal(obs.MWireBytesTotal); got != 2000 {
		t.Fatalf("registry wire bytes = %d, want 2000", got)
	}

	// A malformed chunk frame falls back to raw body accounting.
	metered.Reset()
	if err := a.Send(context.Background(), b.Addr(), NewEnvelope(KindChunkPart, []byte("not-a-frame"))); err != nil {
		t.Fatal(err)
	}
	if got := metered.Bytes(); got != int64(len("not-a-frame")) {
		t.Fatalf("Bytes = %d, want raw body fallback %d", got, len("not-a-frame"))
	}
}
