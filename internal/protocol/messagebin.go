// Binary protocol-message encoding — the only encoding between
// coordinators, mirroring the transport layer's binary envelopes.
//
// A binary message opens with a magic byte (0xEC) and a format version,
// then varint-framed fields in the canonical JSON field order. The
// payload is carried as a raw byte run, so a protocol body — in
// particular a subscription push's concatenated record frames — travels
// from the socket read to the handler as a borrowed sub-slice of the
// envelope body, never through a base64 detour. Tokens and trace
// references stay canonical JSON inside their byte fields: they are the
// signed forms, and their encoding is what their signatures cover.
//
// The decoder refuses a body that does not open with the magic byte:
// there is no JSON fallback.
package protocol

import (
	"fmt"

	"nonrep/internal/canon"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/obs"
)

// Binary message magic byte and format version.
const (
	msgMagic   = 0xEC
	msgVersion = 0x01
)

// marshalMessage encodes a protocol message in the binary frame format.
func marshalMessage(m *Message) ([]byte, error) {
	dst := make([]byte, 0, 96+len(m.Payload))
	dst = append(dst, msgMagic, msgVersion)
	dst = canon.AppendString(dst, m.Protocol)
	dst = canon.AppendString(dst, string(m.Run))
	dst = canon.AppendString(dst, string(m.Txn))
	dst = canon.AppendVarint(dst, int64(m.Step))
	dst = canon.AppendString(dst, m.Kind)
	dst = canon.AppendString(dst, string(m.Sender))
	dst = canon.AppendString(dst, m.ReplyAddr)
	dst = canon.AppendUvarint(dst, uint64(len(m.Tokens)))
	for _, tok := range m.Tokens {
		blob, err := canon.Marshal(tok)
		if err != nil {
			return nil, err
		}
		dst = canon.AppendBytes(dst, blob)
	}
	dst = canon.AppendBytes(dst, m.Payload)
	if m.Trace == nil {
		dst = canon.AppendBool(dst, false)
	} else {
		dst = canon.AppendBool(dst, true)
		blob, err := canon.Marshal(m.Trace)
		if err != nil {
			return nil, err
		}
		dst = canon.AppendBytes(dst, blob)
	}
	return dst, nil
}

// unmarshalMessage decodes a binary protocol message. Byte fields are
// sub-slices of data: the caller must hand over ownership of the buffer,
// as it already must for the transport envelope the buffer came from.
func unmarshalMessage(data []byte, m *Message) error {
	if len(data) == 0 || data[0] != msgMagic {
		return fmt.Errorf("protocol: %w: not a binary message", canon.ErrBinary)
	}
	r := canon.NewBinReader(data)
	r.Byte() // magic, checked above
	if v := r.Byte(); r.Err() == nil && v != msgVersion {
		return fmt.Errorf("protocol: unknown binary message version 0x%02x", v)
	}
	m.Protocol = r.ValidString()
	m.Run = id.Run(r.ValidString())
	m.Txn = id.Txn(r.ValidString())
	m.Step = r.Int()
	m.Kind = r.ValidString()
	m.Sender = id.Party(r.ValidString())
	m.ReplyAddr = r.ValidString()
	n := int(r.Uvarint())
	const maxTokens = 1 << 16
	if n < 0 || n > maxTokens {
		return r.Fail(fmt.Errorf("protocol: binary message token count %d", n))
	}
	if n > 0 && r.Err() == nil {
		m.Tokens = make([]*evidence.Token, 0, min(n, 64))
		for i := 0; i < n && r.Err() == nil; i++ {
			tok := new(evidence.Token)
			if err := canon.Unmarshal(r.Bytes(), tok); err != nil {
				return r.Fail(err)
			}
			m.Tokens = append(m.Tokens, tok)
		}
	}
	m.Payload = r.Bytes()
	if r.Bool() {
		tr := new(obs.TraceRef)
		if err := canon.Unmarshal(r.Bytes(), tr); err != nil {
			return r.Fail(err)
		}
		m.Trace = tr
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("protocol: decode binary message: %w", err)
	}
	return nil
}
