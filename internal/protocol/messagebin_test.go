package protocol

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"nonrep/internal/canon"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/obs"
)

// sampleMessage carries every optional field: a token, a payload and a
// trace reference.
func sampleMessage() *Message {
	return &Message{
		Protocol: "ping", Run: "run-1", Txn: "txn-1", Step: 2, Kind: "req",
		Sender: "urn:org:alice", ReplyAddr: "inproc://alice",
		Tokens: []*evidence.Token{{
			Kind: evidence.KindNRO, Run: "run-1", Step: 2, Issuer: "urn:org:alice",
			IssuedAt: time.Date(2024, 1, 2, 3, 4, 5, 0, time.UTC), Nonce: "n",
		}},
		Payload: []byte{0, 1, 2, 0xEC},
		Trace:   &obs.TraceRef{TraceID: "trace", SpanID: "span"},
	}
}

// sameMessage compares two messages by their canonical projection.
func sameMessage(t *testing.T, a, b *Message) {
	t.Helper()
	ja, err := canon.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := canon.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("message drift:\n %s\n %s", ja, jb)
	}
}

// messageHeader encodes the fixed fields of a binary message up to (not
// including) the token count, with the given version byte.
func messageHeader(version byte) []byte {
	dst := []byte{msgMagic, version}
	for _, s := range []string{"ping", "run-1", ""} {
		dst = canon.AppendString(dst, s)
	}
	dst = canon.AppendVarint(dst, 1)
	for _, s := range []string{"req", "urn:org:alice", ""} {
		dst = canon.AppendString(dst, s)
	}
	return dst
}

func TestBinaryMessageRoundTrip(t *testing.T) {
	for _, m := range []*Message{sampleMessage(), {Protocol: "p", Run: id.Run("r")}} {
		data, err := marshalMessage(m)
		if err != nil {
			t.Fatal(err)
		}
		var got Message
		if err := unmarshalMessage(data, &got); err != nil {
			t.Fatal(err)
		}
		sameMessage(t, m, &got)
	}
}

// TestMessageJSONRefused: a body that does not open with the binary
// magic is refused, canonical JSON included — there is no fallback
// decoder.
func TestMessageJSONRefused(t *testing.T) {
	m := sampleMessage()
	data, err := canon.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{data, nil, []byte(`{"protocol":`), []byte("garbage")} {
		err := unmarshalMessage(bad, new(Message))
		if !errors.Is(err, canon.ErrBinary) || !strings.Contains(err.Error(), "not a binary message") {
			t.Fatalf("non-binary message %q: error %v, want a binary-format refusal", bad, err)
		}
	}
}

// TestDecodersRefuseJSON: each protocol decoder refuses the canonical
// JSON form of its own structure — the encoding peers once sent — with
// an error naming the format it wanted.
func TestDecodersRefuseJSON(t *testing.T) {
	msgJSON := canon.MustMarshal(sampleMessage())
	pushJSON := &Message{Protocol: SubProtocol, Kind: KindSubRecords}
	if err := pushJSON.SetBody(map[string]any{"sub_id": "s", "first": 1, "count": 1, "frames": []byte{1}}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		decoder string
		decode  func() error
		format  string
	}{
		{"unmarshalMessage", func() error { return unmarshalMessage(msgJSON, new(Message)) }, "binary message"},
		{"unmarshalRecordsPush", func() error { return unmarshalRecordsPush(pushJSON, new(subRecordsPush)) }, "binary record push"},
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

// TestBinaryMessageDecodeErrors covers every refusal of the binary
// decoder: each must error, never panic or allocate by a lying count.
func TestBinaryMessageDecodeErrors(t *testing.T) {
	good, err := marshalMessage(sampleMessage())
	if err != nil {
		t.Fatal(err)
	}
	tokenBlob, err := canon.Marshal(sampleMessage().Tokens[0])
	if err != nil {
		t.Fatal(err)
	}
	withTokens := func(n uint64, blobs ...[]byte) []byte {
		dst := canon.AppendUvarint(messageHeader(msgVersion), n)
		for _, b := range blobs {
			dst = canon.AppendBytes(dst, b)
		}
		return dst
	}
	oneToken := withTokens(1, tokenBlob)
	// A message with no tokens and an empty payload, then the trace.
	withTrace := func(trace []byte) []byte {
		dst := canon.AppendBytes(withTokens(0), nil)
		dst = canon.AppendBool(dst, true)
		return append(dst, trace...)
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"unknown version", append(messageHeader(0x02), 0, 0, 0), "unknown binary message version 0x02"},
		{"token count above cap", withTokens(1<<16 + 1), "token count 65537"},
		{"token count wraps negative", withTokens(1 << 63), "token count"},
		{"truncated token", oneToken[:len(oneToken)-5], "exceeds"},
		{"token count beyond tokens", withTokens(2, tokenBlob), "truncated"},
		{"token not JSON", append(withTokens(1, []byte("{nope")), 0, 0), ""},
		{"truncated trace", withTrace(canon.AppendUvarint([]byte{1}, 20)), "exceeds"},
		{"trace not JSON", withTrace(canon.AppendBytes(nil, []byte("[1]"))), ""},
		{"missing trace flag", canon.AppendBytes(withTokens(0), nil), "truncated"},
		{"trace flag not a bool", append(canon.AppendBytes(withTokens(0), nil), 2), "bool byte 2"},
		{"torn magic", []byte{msgMagic}, "truncated"},
		{"cut payload", good[:len(good)-12], ""},
		{"trailing bytes", append(append([]byte(nil), good...), 0), "trailing"},
	}
	for _, tc := range cases {
		err := unmarshalMessage(tc.data, new(Message))
		if err == nil {
			t.Fatalf("%s: decoded", tc.name)
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
