package invoke

import (
	"nonrep/internal/id"
	"nonrep/internal/protocol"
)

// NewChunkMessage builds a streamed-parameter chunk message in the wire
// form Client.sendStream produces, for tests that drive the chunk path by
// hand (tampering with or withholding chunks the client would send).
func NewChunkMessage(proto string, run id.Run, stream string, seq int, data []byte) *protocol.Message {
	return &protocol.Message{Protocol: proto, Run: run, Step: stepRequest, Kind: kindChunk,
		Payload: marshalChunkBody(&chunkBody{Name: stream, Seq: seq, Data: data})}
}
