// Streamed invocation payloads: the chunked-transfer extension of the
// three-message exchange. A streamed parameter travels ahead of the
// request as ordered chunk protocol messages; the request's snapshot then
// carries the parameter resolved to its chunk-digest chain
// (evidence.StreamRef), so the NRO — and the server's NRR — sign evidence
// binding the whole payload while each chunk stays independently
// verifiable. Streamed results travel pull-style: the response snapshot
// carries the chain (signed by NRO-of-response), and the client fetches
// and verifies chunks lazily as the result is read.
//
// Chunk data travels raw: the chunk, chunk-fetch and chunk-data bodies
// are one binary frame (chunkBody) carrying the payload bytes as a raw
// length-prefixed run, decoded at the receiver as a borrowed sub-slice
// of the envelope body — never through canonical JSON or base64. The signed forms are untouched; the digest chain binds the
// bytes, not their encoding.
package invoke

import (
	"context"
	"fmt"
	"io"
	"sync"

	"nonrep/internal/canon"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/protocol"
)

// DefaultStreamChunk is the chunk size of streamed parameters and results
// (1 MiB: each chunk message rides one wire envelope comfortably inside
// the frame budget).
const DefaultStreamChunk = 1 << 20

// Streamed-payload limits on the serving side.
const (
	// DefaultMaxStreamBytes bounds one buffered inbound stream (1 GiB).
	DefaultMaxStreamBytes = 1 << 30
	// maxPendingStreams bounds concurrently buffered inbound streams; the
	// oldest is evicted when a new stream would exceed it.
	maxPendingStreams = 256
)

// Stream names one streamed invocation parameter and its byte source.
type Stream struct {
	// Name is the parameter name the evidence (and the server-side
	// Invocation) exposes the payload under.
	Name string
	// Reader supplies the payload; it is read exactly once, to EOF.
	Reader io.Reader
}

// StreamParam declares a streamed parameter for Proxy.CallStream or
// Request.Streams.
func StreamParam(name string, r io.Reader) Stream {
	return Stream{Name: name, Reader: r}
}

// Additional message kinds of a streaming run.
const (
	kindChunk      = "chunk"
	kindChunkAck   = "chunk-ack"
	kindChunkFetch = "chunk-fetch"
	kindChunkData  = "chunk-data"
)

// chunkBody is the body of every chunk, chunk-fetch and chunk-data
// message: a streamed-parameter chunk (Name is the stream id), a fetch of
// one result chunk (Name is the result stream, Data nil), or the fetched
// chunk (Name and Seq echo the fetch).
type chunkBody struct {
	Name string
	Seq  int
	Data []byte
}

// Binary chunk-body magic byte (outside UTF-8's byte range, so it cannot
// open a canonical-JSON body, and distinct from the protocol message,
// subscription push and transport chunk-frame magics) and format version.
const (
	chunkBodyMagic   = 0xF6
	chunkBodyVersion = 0x01
)

// marshalChunkBody encodes a chunk body into a buffer of exactly its
// size. Data is copied, so the caller may reuse its buffer at once.
func marshalChunkBody(b *chunkBody) []byte {
	size := 2 + uvarintLen(uint64(len(b.Name))) + len(b.Name) + uvarintLen(zigzag(int64(b.Seq))) + 1
	if b.Data != nil {
		size += uvarintLen(uint64(len(b.Data))) + len(b.Data)
	}
	dst := make([]byte, 0, size)
	dst = append(dst, chunkBodyMagic, chunkBodyVersion)
	dst = canon.AppendString(dst, b.Name)
	dst = canon.AppendVarint(dst, int64(b.Seq))
	return canon.AppendBytes(dst, b.Data)
}

// unmarshalChunkBody decodes the chunk body of a message of the given
// kind. There is no JSON form: only this package produces these kinds.
// Data is a sub-slice of data, borrowed like the envelope body it came
// from.
func unmarshalChunkBody(kind string, data []byte, b *chunkBody) error {
	if len(data) == 0 || data[0] != chunkBodyMagic {
		return fmt.Errorf("invoke: %s body is not a binary chunk body", kind)
	}
	r := canon.NewBinReader(data)
	r.Byte() // magic, checked above
	if v := r.Byte(); r.Err() == nil && v != chunkBodyVersion {
		return fmt.Errorf("invoke: %s body: unknown chunk body version 0x%02x", kind, v)
	}
	b.Name = r.ValidString()
	b.Seq = r.Int()
	b.Data = r.Bytes()
	if err := r.Done(); err != nil {
		return fmt.Errorf("invoke: decode %s body: %w", kind, err)
	}
	return nil
}

// uvarintLen is the encoded length of v as an unsigned varint.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// zigzag maps a signed integer onto the unsigned value a signed varint
// encodes.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// StreamExecutor is an Executor that additionally accepts streamed
// parameters and produces streamed results. The container implements it;
// custom executors may too. streams maps parameter names to their verified
// payloads; results collects streamed results the server ships back
// chunk-by-chunk under the response evidence.
type StreamExecutor interface {
	Executor
	ExecuteStream(ctx context.Context, req *evidence.RequestSnapshot, streams map[string]io.Reader, results *ResultStreams) ([]evidence.Param, error)
}

// StreamExecutorFunc adapts a function to StreamExecutor; plain Execute
// calls it with no streams.
type StreamExecutorFunc func(ctx context.Context, req *evidence.RequestSnapshot, streams map[string]io.Reader, results *ResultStreams) ([]evidence.Param, error)

// Execute implements Executor.
func (f StreamExecutorFunc) Execute(ctx context.Context, req *evidence.RequestSnapshot) ([]evidence.Param, error) {
	return f(ctx, req, nil, nil)
}

// ExecuteStream implements StreamExecutor.
func (f StreamExecutorFunc) ExecuteStream(ctx context.Context, req *evidence.RequestSnapshot, streams map[string]io.Reader, results *ResultStreams) ([]evidence.Param, error) {
	return f(ctx, req, streams, results)
}

// ResultStreams collects streamed results on the server side: each Writer
// buffers its payload in evidence-sized chunks and digests the chain as it
// is written, so the response snapshot can bind the whole result before a
// single chunk travels.
type ResultStreams struct {
	chunkSize int

	mu    sync.Mutex
	order []string
	m     map[string]*resultBuffer
}

// NewResultStreams creates a collector with the given chunk size (0 means
// DefaultStreamChunk).
func NewResultStreams(chunkSize int) *ResultStreams {
	if chunkSize <= 0 {
		chunkSize = DefaultStreamChunk
	}
	return &ResultStreams{chunkSize: chunkSize, m: make(map[string]*resultBuffer)}
}

// Writer returns (creating on first use) the stream writer for a named
// result. The client reads it back with Result.Stream(name).
func (r *ResultStreams) Writer(name string) io.Writer {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.m[name]
	if !ok {
		b = &resultBuffer{chunkSize: r.chunkSize}
		r.m[name] = b
		r.order = append(r.order, name)
	}
	return b
}

// params finalises every stream into its evidence parameter, in writer
// creation order.
func (r *ResultStreams) params() ([]evidence.Param, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]evidence.Param, 0, len(r.order))
	for _, name := range r.order {
		ref, err := r.m[name].ref()
		if err != nil {
			return nil, fmt.Errorf("invoke: finalise result stream %q: %w", name, err)
		}
		out = append(out, evidence.StreamRefParam(name, ref))
	}
	return out, nil
}

// chunkMap exposes the buffered chunks for fetch serving, keyed by name.
func (r *ResultStreams) chunkMap() map[string][][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.m) == 0 {
		return nil
	}
	out := make(map[string][][]byte, len(r.m))
	for name, b := range r.m {
		out[name] = b.sealedChunks()
	}
	return out
}

// resultBuffer chunks written bytes.
type resultBuffer struct {
	chunkSize int
	mu        sync.Mutex
	chunks    [][]byte
	cur       []byte
	size      int64
}

// Write implements io.Writer.
func (b *resultBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(p)
	for len(p) > 0 {
		if b.cur == nil {
			b.cur = make([]byte, 0, b.chunkSize)
		}
		take := min(b.chunkSize-len(b.cur), len(p))
		b.cur = append(b.cur, p[:take]...)
		p = p[take:]
		b.size += int64(take)
		if len(b.cur) == b.chunkSize {
			b.chunks = append(b.chunks, b.cur)
			b.cur = nil
		}
	}
	return n, nil
}

// sealedChunks returns the chunk list with any partial tail flushed. The
// tail is trimmed to its length: the server keeps result chunks for the
// run's lifetime, and a short result must not pin a whole chunk.
func (b *resultBuffer) sealedChunks() [][]byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cur != nil {
		tail := make([]byte, len(b.cur))
		copy(tail, b.cur)
		b.chunks = append(b.chunks, tail)
		b.cur = nil
	}
	return b.chunks
}

// ref digests the chain.
func (b *resultBuffer) ref() (evidence.StreamRef, error) {
	chunks := b.sealedChunks()
	d := evidence.NewStreamDigester(b.chunkSize)
	for _, c := range chunks {
		if err := d.Add(c); err != nil {
			return evidence.StreamRef{}, err
		}
	}
	return d.Ref("")
}

// chunkReader reads a verified inbound stream's chunks in order.
type chunkReader struct {
	chunks [][]byte
	pos    int
}

func newChunkReader(chunks [][]byte) *chunkReader { return &chunkReader{chunks: chunks} }

// Read implements io.Reader.
func (r *chunkReader) Read(p []byte) (int, error) {
	for r.pos < len(r.chunks) && len(r.chunks[r.pos]) == 0 {
		r.pos++
	}
	if r.pos >= len(r.chunks) {
		return 0, io.EOF
	}
	n := copy(p, r.chunks[r.pos])
	r.chunks[r.pos] = r.chunks[r.pos][n:]
	return n, nil
}

// ResultStream reads one streamed invocation result on the client side,
// fetching chunks lazily from the server and verifying every chunk
// against the digest chain the server's response evidence signed. A chunk
// that fails verification ends the stream with an ErrEvidenceInvalid
// error naming the chunk.
type ResultStream struct {
	ctx    context.Context
	co     *protocol.Coordinator
	server id.Party
	proto  string
	run    id.Run
	name   string
	ref    evidence.StreamRef

	seq int
	buf []byte
	err error
}

// Name returns the result stream's name.
func (s *ResultStream) Name() string { return s.name }

// Size returns the stream's total byte length, as bound by the response
// evidence.
func (s *ResultStream) Size() int64 { return s.ref.Size }

// Ref returns the stream's signed chunk-digest chain.
func (s *ResultStream) Ref() evidence.StreamRef { return s.ref }

// Read implements io.Reader. Fetches run under the invocation's context.
func (s *ResultStream) Read(p []byte) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	for len(s.buf) == 0 {
		if s.seq >= len(s.ref.Chunks) {
			return 0, io.EOF
		}
		msg := &protocol.Message{Protocol: s.proto, Run: s.run, Step: stepResponse, Kind: kindChunkFetch,
			Payload: marshalChunkBody(&chunkBody{Name: s.name, Seq: s.seq})}
		reply, err := s.co.DeliverRequest(s.ctx, s.server, msg)
		if err != nil {
			s.err = fmt.Errorf("invoke: fetch result stream %q chunk %d: %w", s.name, s.seq, err)
			return 0, s.err
		}
		var db chunkBody
		if err := unmarshalChunkBody(reply.Kind, reply.Payload, &db); err != nil {
			s.err = err
			return 0, s.err
		}
		if db.Name != s.name || db.Seq != s.seq {
			s.err = fmt.Errorf("invoke: fetch result stream %q chunk %d answered with %q chunk %d", s.name, s.seq, db.Name, db.Seq)
			return 0, s.err
		}
		if err := s.ref.VerifyChunk(s.seq, db.Data); err != nil {
			s.err = fmt.Errorf("%w: result stream %q: %v", ErrEvidenceInvalid, s.name, err)
			return 0, s.err
		}
		s.buf = db.Data
		s.seq++
	}
	n := copy(p, s.buf)
	s.buf = s.buf[n:]
	return n, nil
}
