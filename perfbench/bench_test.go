package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"nonrep"
)

func TestPercentileRuleNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{9, 0.5},
		{20, 0.5},
		{40, 0.75},
		{100, 0.9},
		{199, 0.9},
		{200, 0.95},
		{999, 0.95},
		{1000, 0.99},
		{9999, 0.99},
		{10000, 0.999},
	} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := highestTail(c.n); p > 0.5 && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d: %s has only %d samples beyond it", c.n, pctName(p), beyond(c.n, p))
		}
	}
	d := &dist{}
	for i := 100; i >= 1; i-- {
		d.add(float64(i))
	}
	if d.q(0.5) != 50 || d.q(0.99) != 99 || d.q(1) != 100 {
		t.Errorf("nearest rank over 1..100: p50 %v, p99 %v, max %v", d.q(0.5), d.q(0.99), d.q(1))
	}
}

// A stalled call is charged to every request due while it blocked the
// generator, not only to itself: latency runs from the due time.
func TestOpenLoopChargesStallToLaterArrivals(t *testing.T) {
	const stall = 100 * time.Millisecond
	var arrivals []arrival
	for i := 0; i < 8; i++ {
		arrivals = append(arrivals, arrival{due: time.Duration(i) * 10 * time.Millisecond})
	}
	l := runOpen(context.Background(), time.Now(), arrivals, time.Hour, func() bool { return true }, 1, func(_ context.Context, i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	late := l.lateness(arrivals)
	for i := 1; i < len(arrivals); i++ {
		o := l.outcomes[i]
		if o.done < stall {
			t.Fatalf("arrival %d finished at %s, before the stall ended", i, o.done)
		}
		if min := stall - arrivals[i].due; o.latency(arrivals[i]) < min {
			t.Errorf("arrival %d: latency %s from due, want at least %s", i, o.latency(arrivals[i]), min)
		}
	}
	if late.q(1) < ms(stall-20*time.Millisecond) {
		t.Errorf("generator lateness max %.1f ms, want the stall to show", late.q(1))
	}
	if l.inflightMax != 1 {
		t.Errorf("inflightMax = %d, want 1", l.inflightMax)
	}
}

// With room in flight, a stall delays only the call that stalls.
func TestOpenLoopIsOpen(t *testing.T) {
	arrivals := []arrival{{due: 0}, {due: 10 * time.Millisecond}, {due: 20 * time.Millisecond}}
	l := runOpen(context.Background(), time.Now(), arrivals, time.Hour, func() bool { return true }, 8, func(_ context.Context, i int) error {
		if i == 0 {
			time.Sleep(80 * time.Millisecond)
		}
		return nil
	})
	if lat := l.outcomes[2].latency(arrivals[2]); lat > 40*time.Millisecond {
		t.Errorf("arrival 2 waited %s behind an unrelated stall", lat)
	}
	if l.inflightMax < 2 {
		t.Errorf("inflightMax = %d, want the stalled call to overlap others", l.inflightMax)
	}
}

// An open loop stops at its nominal length only once enough says so.
func TestOpenLoopRunsOnUntilEnough(t *testing.T) {
	var arrivals []arrival
	for i := 0; i < 10; i++ {
		arrivals = append(arrivals, arrival{due: time.Duration(i) * time.Millisecond})
	}
	asks := 0
	l := runOpen(context.Background(), time.Now(), arrivals, 5*time.Millisecond, func() bool { asks++; return asks > 2 }, 4,
		func(context.Context, int) error { return nil })
	if len(l.outcomes) != 7 {
		t.Errorf("sent %d arrivals, want the 5 due before nominal and 2 more until enough", len(l.outcomes))
	}
}

// Only blocks in which the host took little CPU count, unless too few
// did; then the least contended ones do.
func TestBlockSelectionSkipsStolenBlocks(t *testing.T) {
	start := time.Now()
	h := &hostMeter{start: start, steal: []float64{0.01, 0.30, 0.00, 0.02, 0.10, 0.015}, cpu: []float64{1, 2, 3, 4, 5, 6}}
	at := func(b int) time.Time { return start.Add(time.Duration(b)*blockLen + blockLen/2) }
	sel := h.selectBlocks(start, start.Add(6*blockLen), 5*blockLen)
	for b, want := range []bool{true, false, true, true, false, true} {
		if sel.has(at(b)) != want {
			t.Errorf("block %d selected = %v, want %v", b, !want, want)
		}
	}
	if sel.cpu != 1+3+4+6 || sel.seconds() != 4 {
		t.Errorf("selected cpu %v over %v s", sel.cpu, sel.seconds())
	}
	// A phase beginning mid-block skips that block; one needing more
	// clean blocks than passed falls back to the least stolen.
	sel = h.selectBlocks(start.Add(blockLen/2), start.Add(3*blockLen), 5*blockLen)
	if sel.has(at(0)) || !sel.has(at(1)) || !sel.has(at(2)) {
		t.Errorf("phase from mid-block 0 to block 3 selected %v", sel.blocks)
	}
	if h.clean(start, start.Add(6*blockLen)) != 4 {
		t.Errorf("clean blocks = %d, want 4", h.clean(start, start.Add(6*blockLen)))
	}
}

func TestPoissonIsSeededAndMixed(t *testing.T) {
	a := poisson(7, 100, 20*time.Second, geoMix)
	b := poisson(7, 100, 20*time.Second, geoMix)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different schedules")
	}
	if c := poisson(8, 100, 20*time.Second, geoMix); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) < 1800 || len(a) > 2200 {
		t.Fatalf("%d arrivals in 20 s at 100/s", len(a))
	}
	counts := map[opKind]int{}
	for i, x := range a {
		counts[x.op]++
		if i > 0 && x.due < a[i-1].due {
			t.Fatal("arrivals out of order")
		}
	}
	for op, share := range geoMix {
		got := float64(counts[opKind(op)]) / float64(len(a))
		if got < share-0.04 || got > share+0.04 {
			t.Errorf("op %d: share %.3f, want about %.2f", op, got, share)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	span := func(id, parent string, from, to int) nonrep.SpanRecord {
		return nonrep.SpanRecord{SpanID: id, Parent: parent, Name: id, Start: at(from), DurationNs: int64(time.Duration(to-from) * time.Millisecond)}
	}
	parent := span("client.invoke", "", 0, 100)
	kids := []nonrep.SpanRecord{span("a", "client.invoke", 10, 30), span("b", "client.invoke", 20, 50), span("c", "client.invoke", 90, 120)}
	if got, want := selfNs(parent, kids), int64(50*time.Millisecond); got != want {
		t.Errorf("self time %d ns, want %d", got, want)
	}
	self, roots := selfTimes(append(kids, parent))
	if roots != 1 || self["client.invoke"].q(0.5) != 50e3 {
		t.Errorf("roots %d, client.invoke self %v us", roots, self["client.invoke"].q(0.5))
	}
}

// The metrics the command prints are exactly those BENCHMARK.json names,
// with the same units and directions.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%v\nprinted by the command:\n%v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\nprinted by the command:\n%v", spec.PerLayer, perLayer)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("workloads in BENCHMARK.json %v, in the command %v", names, ours)
	}
}

func TestRejectsUnknownWorkload(t *testing.T) {
	if code := run([]string{"-workload", "nope", "-seed", "1", "-seconds", "1", "-trace", "0"}); code != 2 {
		t.Errorf("exit code %d for an unknown workload, want 2", code)
	}
}
