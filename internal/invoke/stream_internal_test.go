package invoke

import (
	"bytes"
	"testing"
	"unicode/utf8"
)

// FuzzChunkBody exercises the chunk-body decoder, which runs before any
// sender authentication: Server.processChunk buffers what it decodes
// under the sender's claimed identity. Decoding must never panic,
// whatever decodes must re-encode to the same bytes, and torn, foreign,
// version-confused or over-long frames must be refused.
func FuzzChunkBody(f *testing.F) {
	for _, b := range []chunkBody{
		{Name: "run/doc", Seq: 0, Data: []byte("payload")},
		{Name: "echo-doc", Seq: 7},
		{Name: "", Seq: -1, Data: []byte{}},
		{Name: "s", Seq: 1 << 20, Data: bytes.Repeat([]byte{0xAB}, 300)},
	} {
		f.Add(marshalChunkBody(&b))
	}
	f.Add([]byte{chunkBodyMagic})
	f.Add([]byte{chunkBodyMagic, 0x02, 0x00, 0x00, 0x00})
	f.Add([]byte(`{"data":"cGF5bG9hZA==","seq":0,"stream":"run/doc"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var b chunkBody
		if err := unmarshalChunkBody(kindChunk, data, &b); err == nil {
			var back chunkBody
			if err := unmarshalChunkBody(kindChunk, marshalChunkBody(&b), &back); err != nil || !sameChunkBody(b, back) {
				t.Fatalf("re-encode of decoded body drifted: %+v -> %+v (%v)", b, back, err)
			}
		}

		// Encode then decode is the identity, and every malformation of
		// the encoding is refused.
		in := chunkBody{Name: string(data[:len(data)/2]), Seq: len(data) - 3, Data: data[len(data)/2:]}
		if len(data)%5 == 0 {
			in.Data = nil
		}
		enc := marshalChunkBody(&in)
		if len(enc) != cap(enc) {
			t.Fatalf("encoded %d bytes into a %d-byte buffer", len(enc), cap(enc))
		}
		var out chunkBody
		err := unmarshalChunkBody(kindChunk, enc, &out)
		if !utf8.ValidString(in.Name) {
			if err == nil {
				t.Fatal("chunk body with a non-UTF-8 name decoded")
			}
			return
		}
		if err != nil {
			t.Fatalf("decode of encoded body: %v", err)
		}
		if !sameChunkBody(in, out) {
			t.Fatalf("round trip: got %+v, want %+v", out, in)
		}
		// Cuts through the first and last 64 bytes, the middle, and
		// either side of the end of the name: every field boundary, in
		// linear time.
		nameEnd := 2 + uvarintLen(uint64(len(in.Name))) + len(in.Name)
		cuts := []int{len(enc) / 2, nameEnd - 1, nameEnd, nameEnd + 1}
		for i := 0; i < len(enc) && i < 64; i++ {
			cuts = append(cuts, i, len(enc)-1-i)
		}
		for _, cut := range cuts {
			if unmarshalChunkBody(kindChunk, enc[:cut], &out) == nil {
				t.Fatalf("truncation to %d of %d bytes decoded", cut, len(enc))
			}
		}
		for _, bad := range [][]byte{
			append([]byte{chunkBodyMagic ^ 1}, enc[1:]...),
			append([]byte{chunkBodyMagic, chunkBodyVersion + 1}, enc[2:]...),
			append(append([]byte(nil), enc...), 0),
		} {
			if unmarshalChunkBody(kindChunk, bad, &out) == nil {
				t.Fatalf("malformed body %x decoded", bad)
			}
		}
	})
}

// sameChunkBody compares bodies field by field, telling nil data from
// empty data as the encoding does.
func sameChunkBody(a, b chunkBody) bool {
	return a.Name == b.Name && a.Seq == b.Seq && bytes.Equal(a.Data, b.Data) && (a.Data == nil) == (b.Data == nil)
}

// TestShortResultTailTrimmed: sealing a short streamed result trims its
// partial tail chunk to length, so a 10-byte result does not keep a whole
// chunk live for the life of the run.
func TestShortResultTailTrimmed(t *testing.T) {
	rs := NewResultStreams(0)
	w := rs.Writer("out")
	if _, err := w.Write([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.params(); err != nil {
		t.Fatal(err)
	}
	chunks := rs.chunkMap()["out"]
	if len(chunks) != 1 {
		t.Fatalf("%d chunks, want 1", len(chunks))
	}
	if tail := chunks[0]; len(tail) != 10 || cap(tail) != len(tail) {
		t.Fatalf("tail chunk len %d cap %d, want both 10", len(tail), cap(tail))
	}
}
