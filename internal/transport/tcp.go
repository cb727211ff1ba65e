package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// maxFrame bounds a single wire frame (16 MiB).
const maxFrame = 16 << 20

// TCPNetwork is a Network whose endpoints listen on TCP addresses. Every
// exchange is a single framed request followed by a single framed reply
// (one-way sends receive an empty acknowledgement frame), which gives Send
// confirmation that the envelope reached the peer process. The network
// tracks its listeners, so Close stops every endpoint registered through
// it — including any that callers lost track of.
type TCPNetwork struct {
	mu     sync.Mutex
	eps    map[*tcpEndpoint]struct{}
	closed bool
}

var _ Network = (*TCPNetwork)(nil)

// NewTCPNetwork creates a TCP network.
func NewTCPNetwork() *TCPNetwork {
	return &TCPNetwork{eps: make(map[*tcpEndpoint]struct{})}
}

// Register implements Network: it starts a listener on addr
// (host:port; use ":0" for an ephemeral port and read Addr()).
func (n *TCPNetwork) Register(addr string, h Handler) (Endpoint, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrClosed
	}
	n.mu.Unlock()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	ep := &tcpEndpoint{net: n, ln: ln, handler: h, done: make(chan struct{})}
	// The accept loop is accounted for before the endpoint becomes
	// visible to a concurrent network Close, whose ep.Close -> wg.Wait
	// must always see the counter raised.
	ep.wg.Add(1)
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		ep.wg.Done()
		_ = ln.Close()
		return nil, ErrClosed
	}
	n.eps[ep] = struct{}{}
	n.mu.Unlock()
	go ep.acceptLoop()
	return ep, nil
}

// remove forgets a closed endpoint.
func (n *TCPNetwork) remove(ep *tcpEndpoint) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.eps, ep)
}

// Close stops every listener registered through this network and waits
// for their serving goroutines to finish. Endpoints already closed
// individually are unaffected.
func (n *TCPNetwork) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	eps := make([]*tcpEndpoint, 0, len(n.eps))
	for ep := range n.eps {
		eps = append(eps, ep)
	}
	n.mu.Unlock()
	var firstErr error
	for _, ep := range eps {
		if err := ep.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

type tcpEndpoint struct {
	net     *TCPNetwork
	ln      net.Listener
	handler Handler

	closeOnce sync.Once
	done      chan struct{}
	wg        sync.WaitGroup
}

var _ Endpoint = (*tcpEndpoint)(nil)

// Addr implements Endpoint.
func (e *tcpEndpoint) Addr() string { return e.ln.Addr().String() }

func (e *tcpEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			select {
			case <-e.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		e.wg.Add(1)
		go e.serve(conn)
	}
}

// serve handles one inbound connection carrying one exchange.
func (e *tcpEndpoint) serve(conn net.Conn) {
	defer e.wg.Done()
	defer conn.Close()
	env, err := readFrame(conn)
	if err != nil {
		return
	}
	reply, err := e.handler.Handle(context.Background(), env)
	if err != nil {
		// Protocol errors travel as an error envelope so the caller
		// does not block awaiting a frame.
		reply = &Envelope{ID: env.ID, Kind: "error", Body: []byte(err.Error())}
	}
	if reply == nil {
		reply = &Envelope{ID: env.ID, Kind: "ack"}
	}
	_ = writeFrame(conn, reply)
}

// Send implements Endpoint.
func (e *tcpEndpoint) Send(ctx context.Context, to string, env *Envelope) error {
	_, err := exchangeTCP(ctx, e.Addr(), to, env)
	return err
}

// Request implements Endpoint.
func (e *tcpEndpoint) Request(ctx context.Context, to string, env *Envelope) (*Envelope, error) {
	return exchangeTCP(ctx, e.Addr(), to, env)
}

// exchangeTCP dials to, writes env as from and reads the one reply
// frame; an error envelope becomes an error.
func exchangeTCP(ctx context.Context, from, to string, env *Envelope) (*Envelope, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", to)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %s: %v", ErrUnknownAddress, to, err)
	}
	defer conn.Close()
	if deadline, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(deadline)
	}
	env.From = from
	env.To = to
	if err := writeFrame(conn, env); err != nil {
		return nil, err
	}
	reply, err := readFrame(conn)
	if err != nil {
		return nil, err
	}
	if reply.Kind == "error" {
		return nil, fmt.Errorf("transport: remote handler: %s", reply.Body)
	}
	return reply, nil
}

// Close implements Endpoint.
func (e *tcpEndpoint) Close() error {
	var err error
	e.closeOnce.Do(func() {
		if e.net != nil {
			e.net.remove(e)
		}
		close(e.done)
		err = e.ln.Close()
		e.wg.Wait()
	})
	return err
}

// writeFrame writes a length-prefixed binary envelope.
func writeFrame(w io.Writer, env *Envelope) error {
	body, err := MarshalEnvelope(env)
	if err != nil {
		return err
	}
	if len(body) > maxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", len(body))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("transport: write frame header: %w", err)
	}
	if _, err := w.Write(body); err != nil {
		return fmt.Errorf("transport: write frame body: %w", err)
	}
	return nil
}

// frameChunk bounds how much memory a frame read commits ahead of the
// bytes actually arriving: a malicious 4-byte header claiming a
// maxFrame-sized body must not allocate maxFrame up front, so the body is
// read and grown chunk by chunk.
const frameChunk = 64 << 10

// readFrame reads a length-prefixed binary envelope. The envelope's
// byte fields alias the frame buffer, which is owned by the decoded
// envelope from here on — the zero-copy path from socket read to chunk
// reassembly.
func readFrame(r io.Reader) (*Envelope, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("transport: read frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, 0, min(int(n), frameChunk))
	for remaining := int(n); remaining > 0; {
		k := min(remaining, frameChunk)
		off := len(body)
		body = append(body, make([]byte, k)...)
		if _, err := io.ReadFull(r, body[off:]); err != nil {
			return nil, fmt.Errorf("transport: read frame body: %w", err)
		}
		remaining -= k
	}
	return UnmarshalEnvelope(body)
}
