package main

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"nonrep"
)

// echoExecutor is the server application of every workload: it returns
// its value parameters unchanged and copies each streamed parameter to a
// result stream. It counts its executions, so the benchmark can check
// that each completed call ran once.
type echoExecutor struct {
	executions atomic.Int64
}

func (e *echoExecutor) executor() nonrep.StreamExecutorFunc {
	return func(_ context.Context, req *nonrep.RequestSnapshot, streams map[string]io.Reader, results *nonrep.ResultStreams) ([]nonrep.Param, error) {
		e.executions.Add(1)
		out := make([]nonrep.Param, 0, len(req.Params))
		for i, p := range req.Params {
			if p.Stream != nil {
				in := streams[p.Name]
				if in == nil || results == nil {
					return nil, fmt.Errorf("echo: stream %q not delivered", p.Name)
				}
				if _, err := io.Copy(results.Writer(fmt.Sprintf("echo%d", i)), in); err != nil {
					return nil, fmt.Errorf("echo: copy stream %q: %w", p.Name, err)
				}
				continue
			}
			out = append(out, p)
		}
		return out, nil
	}
}

// timedBlob is the archive's object store with its writes timed from
// outside: it shows whether archiving ever runs on the commit path.
type timedBlob struct {
	nonrep.BlobStore
	mu    sync.Mutex
	put   dist // ms per Put
	bytes int64
}

func newTimedBlob(s nonrep.BlobStore) *timedBlob {
	return &timedBlob{BlobStore: s, put: dist{name: "blob put", unit: "ms"}}
}

func (b *timedBlob) Put(ctx context.Context, key string, data []byte) error {
	t0 := time.Now()
	err := b.BlobStore.Put(ctx, key, data)
	b.mu.Lock()
	b.put.add(ms(time.Since(t0)))
	b.bytes += int64(len(data))
	b.mu.Unlock()
	return err
}

// stats returns the puts so far: count, median ms and bytes.
func (b *timedBlob) stats() (int, float64, int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.put.n(), b.put.q(0.5), b.bytes
}
