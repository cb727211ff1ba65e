package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The benchmark runs on virtual CPUs that share their host with other
// machines. When a neighbour is busy the hypervisor runs our CPUs late
// (steal time). On a 2-CPU container, one-second blocks of call-inproc at
// 100 calls/s had a median latency of 2.6-3.2 ms at up to 2% steal,
// 4.3-5.1 ms at 7-10% and 5.5-11.5 ms at 15-28%, and such episodes last
// from seconds to minutes. So the timed phases are cut into blocks, each
// block's steal is measured, and only the blocks in which the host took
// at most cleanSteal count; a phase runs on, up to stretch times its
// length, until enough such blocks have passed.
const (
	blockLen   = time.Second
	cleanSteal = 0.02
	stretch    = 2
	// cleanShare of a phase's nominal blocks must be clean before it ends.
	cleanShare = 0.6
)

// A pass starts only once a short probe finds the host quiet, so set-up
// is not timed during an episode either.
const (
	stealLimit   = 0.05 // share of CPU time the host may take during a probe
	stealProbe   = 300 * time.Millisecond
	stealPause   = time.Second
	stealMaxWait = 10 * time.Second
)

// cpuJiffies reads the machine-wide steal and total CPU time from
// /proc/stat, in clock ticks.
func cpuJiffies() (steal, total float64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("no steal column in /proc/stat")
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseFloat(x, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parse /proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// stealShare is the share of CPU time the host took between two
// readings.
func stealShare(s0, t0, s1, t1 float64) float64 { return ratio(s1-s0, t1-t0) }

// probeSteal keeps every CPU busy for stealProbe and returns the share of
// that time the host took.
func probeSteal() (float64, error) {
	s0, t0, err := cpuJiffies()
	if err != nil {
		return 0, err
	}
	stop := time.Now().Add(stealProbe)
	done := make(chan struct{})
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		go func() {
			for time.Now().Before(stop) {
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		<-done
	}
	s1, t1, err := cpuJiffies()
	if err != nil {
		return 0, err
	}
	return stealShare(s0, t0, s1, t1), nil
}

// awaitQuietHost waits until a probe sees less than stealLimit steal,
// logging the wait. After stealMaxWait it goes ahead and says so: the
// pass's own steal figure then tells the reader.
func awaitQuietHost(log func(format string, args ...any)) error {
	start := time.Now()
	for {
		steal, err := probeSteal()
		if err != nil {
			return err
		}
		if steal < stealLimit {
			if waited := time.Since(start); waited > stealProbe*2 {
				log("host: waited %.1f s for steal to fall below %.0f%% (now %.1f%%)", waited.Seconds(), 100*stealLimit, 100*steal)
			}
			return nil
		}
		if time.Since(start) > stealMaxWait {
			log("host: steal still %.1f%% after %s; measuring anyway", 100*steal, stealMaxWait)
			return nil
		}
		time.Sleep(stealPause)
	}
}

// cpuSeconds is the CPU time this process has used, user and system.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// hostMeter cuts time from its start into blockLen blocks and records, for
// each finished block, the host's steal share and this process's CPU time.
type hostMeter struct {
	start time.Time
	mu    sync.Mutex
	steal []float64
	cpu   []float64
	stop  chan struct{}
	done  chan struct{}
}

func startHostMeter() *hostMeter {
	h := &hostMeter{start: time.Now(), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s0, t0, err := cpuJiffies()
		c0 := cpuSeconds()
		for b := 1; ; b++ {
			select {
			case <-h.stop:
				return
			case <-time.After(time.Until(h.start.Add(time.Duration(b) * blockLen))):
			}
			s1, t1, err1 := cpuJiffies()
			c1 := cpuSeconds()
			steal := stealShare(s0, t0, s1, t1)
			if err != nil || err1 != nil {
				steal = 0 // no steal column: treat every block as clean
			}
			h.mu.Lock()
			h.steal = append(h.steal, steal)
			h.cpu = append(h.cpu, c1-c0)
			h.mu.Unlock()
			s0, t0, err, c0 = s1, t1, err1, c1
		}
	}()
	return h
}

// close waits until every block that ended by now is recorded, then stops
// the meter.
func (h *hostMeter) close() {
	want := h.block(time.Now())
	for deadline := time.Now().Add(2 * blockLen); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		h.mu.Lock()
		n := len(h.steal)
		h.mu.Unlock()
		if n >= want {
			break
		}
	}
	close(h.stop)
	<-h.done
}

// countIn counts the times that fall in selected blocks.
func (s *selection) countIn(ts []time.Time) int {
	n := 0
	for _, t := range ts {
		if s.has(t) {
			n++
		}
	}
	return n
}

// cpuPerCallUs is the process CPU time per call completed in the
// selected blocks, given the completion times of the calls.
func (s *selection) cpuPerCallUs(done []time.Time) float64 {
	return ratio(1e6*s.cpu, float64(s.countIn(done)))
}

// block is the index of the block holding t, or -1 before the start.
func (h *hostMeter) block(t time.Time) int {
	if t.Before(h.start) {
		return -1
	}
	return int(t.Sub(h.start) / blockLen)
}

// phaseBlocks lists the finished blocks that lie wholly in [from, to).
// The caller holds h.mu.
func (h *hostMeter) phaseBlocks(from, to time.Time) []int {
	var idx []int
	for b := max(h.block(from), 0); b < len(h.steal) && b < h.block(to); b++ {
		if !h.start.Add(time.Duration(b) * blockLen).Before(from) {
			idx = append(idx, b)
		}
	}
	return idx
}

// clean counts the finished clean blocks of [from, to).
func (h *hostMeter) clean(from, to time.Time) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, b := range h.phaseBlocks(from, to) {
		if h.steal[b] <= cleanSteal {
			n++
		}
	}
	return n
}

// enough reports whether a phase that started at from and is nominal long
// may end now: its nominal length has passed with at least cleanShare of
// that many clean blocks, or stretch times its length has passed. Once
// the nominal length has passed it marks at, when given.
func (h *hostMeter) enough(from time.Time, nominal time.Duration, at *nominalMark) bool {
	el := time.Since(from)
	if at != nil && el >= nominal {
		at.mark()
	}
	if el >= stretch*nominal {
		return true
	}
	return el >= nominal && h.clean(from, time.Now()) >= needBlocks(nominal)
}

func needBlocks(nominal time.Duration) int {
	return max(1, int(math.Ceil(cleanShare*nominal.Seconds()/blockLen.Seconds())))
}

// selection is the set of blocks of a phase whose samples count.
type selection struct {
	h      *hostMeter
	blocks map[int]bool
	steal  float64 // mean steal share of the selected blocks
	cpu    float64 // process CPU seconds in the selected blocks
	note   string
}

// selectBlocks picks the finished blocks of [from, to) that count: the
// clean ones, or, when fewer than the phase needs are clean, that many
// with the least steal, which the note then reports.
func (h *hostMeter) selectBlocks(from, to time.Time, nominal time.Duration) *selection {
	h.mu.Lock()
	defer h.mu.Unlock()
	sel := &selection{h: h, blocks: make(map[int]bool)}
	idx := h.phaseBlocks(from, to)
	sort.SliceStable(idx, func(i, j int) bool { return h.steal[idx[i]] < h.steal[idx[j]] })
	need := min(needBlocks(nominal), len(idx))
	for i, b := range idx {
		if h.steal[b] <= cleanSteal || i < need {
			sel.blocks[b] = true
			sel.steal += h.steal[b]
			sel.cpu += h.cpu[b]
		}
	}
	if len(sel.blocks) > 0 {
		sel.steal /= float64(len(sel.blocks))
	}
	clean := 0
	for _, b := range idx {
		if h.steal[b] <= cleanSteal {
			clean++
		}
	}
	sel.note = fmt.Sprintf("%d of %d one-second blocks counted, %d with at most %.0f%% steal; mean steal of those counted %.1f%%",
		len(sel.blocks), len(idx), clean, 100*cleanSteal, 100*sel.steal)
	if clean < need {
		sel.note += "; host contended: figures include steal"
	}
	return sel
}

// has reports whether t falls in a selected block.
func (s *selection) has(t time.Time) bool { return s.blocks[s.h.block(t)] }

// seconds is the selected blocks' total length.
func (s *selection) seconds() float64 { return float64(len(s.blocks)) * blockLen.Seconds() }

// nominalMark samples the process's peak RSS the first time a phase
// passes its nominal length, so the memory figure covers a fixed amount
// of scheduled work however long the phase runs on for clean blocks.
type nominalMark struct {
	once sync.Once
	rss  float64
	err  error
}

func (m *nominalMark) mark() {
	m.once.Do(func() { m.rss, m.err = rssPeakMiB() })
}
