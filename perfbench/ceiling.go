package main

import (
	"crypto/ed25519"
	"crypto/sha256"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"time"
)

// ceilings are this machine's limits for the work the layers do, measured
// with the standard library alone, so each layer figure can be read as a
// fraction of what the hardware allows.
type ceilings struct {
	signUs     float64 // ed25519 signature of a 32-byte digest, one core
	verifyUs   float64 // ed25519 verification, one core
	sha256MiBs float64 // sha256 over 1 MiB buffers, one core
	fsyncUs    float64 // median write of 4 KiB + fsync in the bench directory
	tcpRttUs   float64 // median 64-byte round trip on one loopback connection
	tcpMiBs    float64 // one loopback connection, 256 KiB writes
}

// probeBudget bounds each probe's measuring time.
const probeBudget = 300 * time.Millisecond

func probeCeilings(dir string) (*ceilings, error) {
	c := &ceilings{}
	_, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		return nil, err
	}
	pub := priv.Public().(ed25519.PublicKey)
	digest := sha256.Sum256([]byte("ceiling"))
	sigBytes := ed25519.Sign(priv, digest[:])
	c.signUs = perOpUs(func() { ed25519.Sign(priv, digest[:]) })
	c.verifyUs = perOpUs(func() {
		if !ed25519.Verify(pub, digest[:], sigBytes) {
			panic("ed25519 verify of a fresh signature failed")
		}
	})
	buf := make([]byte, 1<<20)
	c.sha256MiBs = 1 / (perOpUs(func() { sha256.Sum256(buf) }) / 1e6)
	if c.fsyncUs, err = probeFsync(dir); err != nil {
		return nil, err
	}
	if c.tcpRttUs, c.tcpMiBs, err = probeTCP(); err != nil {
		return nil, err
	}
	return c, nil
}

// perOpUs runs op repeatedly for probeBudget and returns µs per call.
func perOpUs(op func()) float64 {
	n := 0
	start := time.Now()
	for time.Since(start) < probeBudget {
		for i := 0; i < 16; i++ {
			op()
		}
		n += 16
	}
	return float64(time.Since(start).Microseconds()) / float64(n)
}

func probeFsync(dir string) (float64, error) {
	path := filepath.Join(dir, "fsync-probe")
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer os.Remove(path)
	defer f.Close()
	block := make([]byte, 4096)
	d := dist{}
	start := time.Now()
	for time.Since(start) < probeBudget || d.n() < 20 {
		t0 := time.Now()
		if _, err := f.Write(block); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		d.add(float64(time.Since(t0).Nanoseconds()) / 1e3)
	}
	return d.q(0.5), f.Close()
}

// probeTCP measures one loopback connection: the median round trip of a
// 64-byte message echoed back, then one-way throughput.
func probeTCP() (rttUs, mibs float64, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer conn.Close()
		msg := make([]byte, 64)
		for {
			if _, err := io.ReadFull(conn, msg); err != nil {
				served <- nil // the client closed the echo phase
				break
			}
			if msg[0] == 0xff { // switch to the throughput phase
				_, err := io.Copy(io.Discard, conn)
				served <- err
				return
			}
			if _, err := conn.Write(msg); err != nil {
				served <- err
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, 0, err
	}
	msg := make([]byte, 64)
	d := dist{}
	start := time.Now()
	for time.Since(start) < probeBudget || d.n() < 100 {
		t0 := time.Now()
		if _, err := conn.Write(msg); err != nil {
			conn.Close()
			return 0, 0, err
		}
		if _, err := io.ReadFull(conn, msg); err != nil {
			conn.Close()
			return 0, 0, err
		}
		d.add(float64(time.Since(t0).Nanoseconds()) / 1e3)
	}
	msg[0] = 0xff
	if _, err := conn.Write(msg); err != nil {
		conn.Close()
		return 0, 0, err
	}
	chunk := make([]byte, 256<<10)
	var sent int64
	start = time.Now()
	for time.Since(start) < probeBudget {
		n, err := conn.Write(chunk)
		sent += int64(n)
		if err != nil {
			conn.Close()
			return 0, 0, err
		}
	}
	elapsed := time.Since(start)
	if err := conn.Close(); err != nil {
		return 0, 0, err
	}
	if err := <-served; err != nil {
		return 0, 0, fmt.Errorf("tcp probe server: %w", err)
	}
	return d.q(0.5), float64(sent) / (1 << 20) / elapsed.Seconds(), nil
}
