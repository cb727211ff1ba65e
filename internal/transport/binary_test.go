package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"nonrep/internal/canon"
)

// goldenEnvelopes is one envelope per wire shape: plain deliver,
// tenant-routed, request/reply kinds, empty vs nil body, batches with
// want-reply and error items, nested batch replies, and chunk frames
// ride separately below.
func goldenEnvelopes() []*Envelope {
	return []*Envelope{
		{ID: "m1", Kind: "b2b-deliver", Body: []byte(`{"protocol":"ping"}`)},
		{ID: "m2", From: "a:1", To: "b:2", Kind: "b2b-request", Tenant: "urn:org:b", Body: []byte{0xEB, 0x00, 'x'}},
		{ID: "m3", Kind: "ack"},                   // nil body
		{ID: "m4", Kind: "error", Body: []byte{}}, // empty (non-nil) body
		{ID: "m5", Kind: "b2b-batch", Batch: []BatchItem{
			{Env: &Envelope{ID: "s1", Kind: "b2b-deliver", Body: []byte("one")}, WantReply: true},
			{Env: &Envelope{ID: "s2", Kind: "b2b-deliver"}},
			{Err: "boom"},
		}},
		{ID: "m6", Kind: "b2b-batch-reply", Batch: []BatchItem{
			{Env: &Envelope{ID: "r1", Kind: "b2b-batch", Batch: []BatchItem{
				{Env: &Envelope{ID: "rr1", Kind: "ack"}, WantReply: true},
			}}},
			{},
		}},
	}
}

// TestBinaryEnvelopeGoldenVectors pins the binary envelope codec to the
// canonical JSON projection: encode→decode→canonical-JSON must equal
// the original envelope's canonical JSON for every shape.
func TestBinaryEnvelopeGoldenVectors(t *testing.T) {
	t.Parallel()
	for i, env := range goldenEnvelopes() {
		want, err := canon.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := MarshalEnvelope(env)
		if err != nil {
			t.Fatalf("envelope %d: marshal: %v", i, err)
		}
		dec, err := UnmarshalEnvelope(frame)
		if err != nil {
			t.Fatalf("envelope %d: unmarshal: %v", i, err)
		}
		got, err := canon.Marshal(dec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("envelope %d: canonical projection drifted:\n want %s\n  got %s", i, want, got)
		}
	}
}

// TestBinaryChunkFrameGoldenVectors does the same for chunk frames, the
// zero-copy payload path.
func TestBinaryChunkFrameGoldenVectors(t *testing.T) {
	t.Parallel()
	frames := []*chunkFrame{
		{Stream: "s1", Seq: 0, Total: 3, Size: 1 << 20, Data: []byte("payload")},
		{Stream: "s2", Seq: 2, Total: 3, Size: 12, MsgID: "m1", Kind: "bulk", WantReply: true, Data: []byte{}},
		{Stream: "r", Seq: 1},
	}
	for i, f := range frames {
		want, err := canon.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		bin := marshalChunkFrame(f)
		var dec chunkFrame
		if err := unmarshalChunkFrame(bin, &dec); err != nil {
			t.Fatalf("frame %d: unmarshal: %v", i, err)
		}
		got, err := canon.Marshal(&dec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("frame %d: canonical projection drifted:\n want %s\n  got %s", i, want, got)
		}
		// Zero-copy contract: decoded data aliases the frame buffer.
		if len(dec.Data) > 0 && &dec.Data[0] != &bin[len(bin)-len(dec.Data)] {
			t.Fatalf("frame %d: decoded data was copied, want borrow", i)
		}
	}
}

// FuzzBinaryEnvelopeDecode feeds arbitrary bytes to the envelope
// decoder. Malformed frames must error — never panic, never allocate
// proportionally to a lying count — and whatever decodes must
// re-encode and decode back to the same canonical projection.
func FuzzBinaryEnvelopeDecode(f *testing.F) {
	// Every golden shape, alone and one batch level down.
	for _, env := range goldenEnvelopes() {
		for _, seed := range []*Envelope{env, {ID: "w", Kind: "b2b-batch", Batch: []BatchItem{{Env: env, WantReply: true}}}} {
			frame, err := MarshalEnvelope(seed)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(frame)
		}
	}
	f.Add([]byte{envMagic})                   // torn magic
	f.Add([]byte{envMagic, 0x02})             // version confusion
	f.Add([]byte{envMagic, 0x01, 0xFF, 0xFF}) // truncated field
	f.Add([]byte{chunkMagic, 0x01, 0x01, 's'})

	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := UnmarshalEnvelope(data)
		if err != nil {
			return
		}
		// Decode and encode share the batch depth cap, so anything
		// decoded re-encodes.
		frame, err := MarshalEnvelope(env)
		if err != nil {
			t.Fatalf("re-marshal of decoded envelope failed: %v", err)
		}
		back, err := UnmarshalEnvelope(frame)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		a, aerr := canon.Marshal(env)
		b, berr := canon.Marshal(back)
		if aerr == nil && berr == nil && !bytes.Equal(a, b) {
			t.Fatalf("round-trip drift:\n %s\n %s", a, b)
		}
	})
}

// TestDecodersRefuseJSON: the wire is binary-only. Each transport
// decoder refuses the canonical JSON form of its own structure — the
// encoding peers once sent — with an error naming the format it wanted.
func TestDecodersRefuseJSON(t *testing.T) {
	t.Parallel()
	envJSON := canon.MustMarshal(goldenEnvelopes()[0])
	frameJSON := binary.BigEndian.AppendUint32(nil, uint32(len(envJSON)))
	frameJSON = append(frameJSON, envJSON...)
	chunkJSON := canon.MustMarshal(&chunkFrame{Stream: "s", Seq: 0, Total: 1, Size: 2, Data: []byte("hi")})
	cases := []struct {
		decoder string
		decode  func() error
		format  string
	}{
		{"readFrame", func() error { _, err := readFrame(bytes.NewReader(frameJSON)); return err }, "binary envelope"},
		{"UnmarshalEnvelope", func() error { _, err := UnmarshalEnvelope(envJSON); return err }, "binary envelope"},
		{"unmarshalChunkFrame", func() error { return unmarshalChunkFrame(chunkJSON, new(chunkFrame)) }, "binary chunk frame"},
	}
	for _, tc := range cases {
		err := tc.decode()
		if err == nil {
			t.Errorf("%s accepted a JSON input", tc.decoder)
			continue
		}
		if !errors.Is(err, canon.ErrBinary) || !strings.Contains(err.Error(), tc.format) {
			t.Errorf("%s: error %q does not name the %s format", tc.decoder, err, tc.format)
		}
	}
}
