package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"time"
)

// The transport dials a fresh loopback connection for every exchange,
// and each one leaves its client port in TIME_WAIT for 60 s. Runs that
// follow each other inherit those ports, and a run that finds the
// ephemeral range crowded measures connect() searching for a free port
// rather than the code under test. On a 2-CPU container with a
// 28,232-port range, a loopback dial, 8-byte exchange and close cost a
// flat 65-80 us (p50) with 3,400 to 16,000 sockets in TIME_WAIT, while
// runs that started with 30,000 doubled their median latency. A TCP
// workload therefore starts only once what earlier runs left behind has
// drained below half the range.
const (
	twMaxWait       = 65 * time.Second // longer than TIME_WAIT itself
	timeWaitSeconds = 60               // Linux TCP_TIMEWAIT_LEN
)

// timeWaitSockets counts sockets in TIME_WAIT (state 06) in this network
// namespace, IPv4 and IPv6.
func timeWaitSockets() (int, error) {
	n := 0
	for _, path := range []string{"/proc/net/tcp", "/proc/net/tcp6"} {
		f, err := os.Open(path)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return 0, err
		}
		sc := bufio.NewScanner(f)
		sc.Scan() // header
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) > 3 && fields[3] == "06" {
				n++
			}
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return 0, fmt.Errorf("read %s: %w", path, err)
		}
	}
	return n, nil
}

// ephemeralPorts returns the size of the local port range connect()
// draws client ports from.
func ephemeralPorts() (int, error) {
	raw, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range")
	if err != nil {
		return 0, err
	}
	var lo, hi int
	if _, err := fmt.Sscan(string(raw), &lo, &hi); err != nil {
		return 0, fmt.Errorf("parse ip_local_port_range: %w", err)
	}
	return hi - lo + 1, nil
}

// drainTimeWait waits until fewer than half the ephemeral ports are in
// TIME_WAIT, logging the wait, and returns the count it starts with.
func drainTimeWait(log func(format string, args ...any)) (int, error) {
	ports, err := ephemeralPorts()
	if err != nil {
		return 0, err
	}
	twDrainThreshold := ports / 2
	n, err := timeWaitSockets()
	if err != nil {
		return 0, err
	}
	if n < twDrainThreshold {
		return n, nil
	}
	start := time.Now()
	log("tcp: %d sockets in TIME_WAIT left by earlier runs (threshold %d); waiting for them to drain", n, twDrainThreshold)
	for n >= twDrainThreshold {
		if time.Since(start) > twMaxWait {
			return n, fmt.Errorf("tcp: %d sockets still in TIME_WAIT after %s", n, twMaxWait)
		}
		time.Sleep(500 * time.Millisecond)
		if n, err = timeWaitSockets(); err != nil {
			return 0, err
		}
	}
	log("tcp: waited %.1f s; %d sockets in TIME_WAIT at start", time.Since(start).Seconds(), n)
	return n, nil
}
