package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

func TestPercentileNearestRankAndSampleRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{19, 0.50, 0, false}, // rank 10, 9 beyond
		{20, 0.50, 10, true}, // rank 10, 10 beyond
		{21, 0.50, 11, true}, // rank 11, 10 beyond
		{199, 0.95, 0, false},
		{200, 0.95, 190, true}, // 0.95·200 must not round up to rank 191
		{1000, 0.99, 990, true},
		{0, 0.50, 0, false},
		{50, 1.0, 0, false},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if ok != tc.ok || got != tc.want {
			t.Errorf("percentile(n=%d, p=%v) = %v,%v; want %v,%v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestOpenLoopStall injects a 350 ms stall into the third send of a
// 100 ms schedule: the sends it delays are late by what is left of the
// stall, the schedule does not shift, and the latency counted from the
// due time carries the stall while the one counted from the send would
// hide it.
func TestOpenLoopStall(t *testing.T) {
	t0 := time.Unix(1000, 0)
	now := t0
	clock := func() time.Time { return now }
	sleepUntil := func(u time.Time) { now = u }
	var completed []time.Time
	send := func(i int) {
		if i == 2 {
			now = now.Add(350 * time.Millisecond)
		}
		now = now.Add(time.Millisecond) // service time
		completed = append(completed, now)
	}
	due, sent := openLoop(t0, 100*time.Millisecond, 8, clock, sleepUntil, send)
	for i := range due {
		if want := t0.Add(time.Duration(i) * 100 * time.Millisecond); !due[i].Equal(want) {
			t.Fatalf("due[%d] = %v, want %v", i, due[i], want)
		}
	}
	wantLate := []float64{0, 0, 0, 251, 152, 53, 0, 0}
	late := lateness(due, sent)
	for i := range wantLate {
		if late[i] != wantLate[i] {
			t.Errorf("lateness[%d] = %v ms, want %v", i, late[i], wantLate[i])
		}
	}
	fromDue := completed[3].Sub(due[3])
	fromSend := completed[3].Sub(sent[3])
	if fromDue != 252*time.Millisecond || fromSend != time.Millisecond {
		t.Errorf("request 3: %v from due, %v from send; want 252ms and 1ms", fromDue, fromSend)
	}
	if p95, ok := percentile(late, 0.95); ok {
		t.Errorf("8 lateness samples gave a p95 (%v)", p95)
	}
	if got := sinceDueMs(due[3], completed[3].UnixMilli()); got != 252 {
		t.Errorf("sinceDueMs = %v, want 252", got)
	}
}

func TestMetricNameValidation(t *testing.T) {
	for _, name := range []string{"cells_per_s", "scenario.leg_ms.sketchmst", "core.ns-per.round", "9lives", strings.Repeat("a", 64)} {
		if err := validMetric(name, "ms"); err != nil {
			t.Errorf("valid name %q refused: %v", name, err)
		}
	}
	for _, name := range []string{"", ".hidden", "-x", "has space", "a/b", "naïve", strings.Repeat("a", 65)} {
		if err := validMetric(name, "ms"); err == nil {
			t.Errorf("malformed name %q accepted", name)
		}
	}
	for _, unit := range []string{"", "milli seconds", strings.Repeat("s", 17)} {
		if err := validMetric("x", unit); err == nil {
			t.Errorf("malformed unit %q accepted", unit)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Metrics.Set accepted a malformed name")
		}
	}()
	Metrics{}.Set("bad name", "ms", 1)
}

func TestUnattributed(t *testing.T) {
	left, err := unattributed(2, 100, 150)
	if err != nil || left != 50 {
		t.Errorf("unattributed(2, 100, 150) = %d,%v; want 50", left, err)
	}
	if left, err := unattributed(2, 100, 200); err != nil || left != 0 {
		t.Errorf("unattributed(2, 100, 200) = %d,%v; want 0", left, err)
	}
	if _, err := unattributed(2, 100, 201); err == nil {
		t.Error("children exceeding shards × wall were accepted")
	}
}

func TestRunSeedsRepeatHalf(t *testing.T) {
	a, b := runSeeds(7, 40), runSeeds(7, 60)
	seen := map[int64]bool{}
	for i, s := range a {
		if s != b[i] {
			t.Fatalf("run %d: seed depends on the run count", i)
		}
		if i%2 == 1 && !seen[s] {
			t.Errorf("odd run %d has a fresh seed %d", i, s)
		}
		if i%2 == 0 && seen[s] {
			t.Errorf("even run %d repeats seed %d", i, s)
		}
		seen[s] = true
	}
}

func TestCellSetDigestAndMismatch(t *testing.T) {
	rows := []scenario.CellResult{
		{Family: "gnp", N: 12, Engine: "par4", Protocol: "triangle", Seed: 5, Outcome: "ok", Output: "x"},
		{Family: "gnp", N: 12, Engine: "par4", Protocol: "routing", Seed: 6, Outcome: "ok", Output: "y"},
	}
	a, b := cellSet{}, cellSet{}
	a.add(rows)
	b.add([]scenario.CellResult{rows[1], rows[0]})
	if a.digest() != b.digest() {
		t.Error("digest depends on row order")
	}
	if keys, _ := a.mismatches(b); len(keys) != 0 {
		t.Errorf("mismatches between equal sets: %v", keys)
	}
	ref := &RefWorkload{Cells: a, Digest: a.digest()}
	var chk Check
	chk.cells(rows, "unit")
	chk.reference(b, ref, "unit")
	if !chk.Correct() || chk.Attempted != 2 {
		t.Errorf("the reference's own cells: correct=%v attempted=%d", chk.Correct(), chk.Attempted)
	}

	rows[0].Output = "z"
	c := cellSet{}
	c.add(rows)
	if keys, missing := c.mismatches(a); missing != 0 || len(keys) != 1 || keys[0] != "gnp|12|par4|triangle|5" {
		t.Errorf("mismatches = %v,%d, want the triangle cell", keys, missing)
	}
	chk = Check{}
	chk.cells(rows, "unit")
	chk.reference(c, ref, "unit")
	if chk.Failed != 1 || chk.Correct() {
		t.Errorf("a changed output counts %d failures, correct=%v", chk.Failed, chk.Correct())
	}

	// An output that leaves a cell out fails it, although every cell it
	// does hold matches.
	short := cellSet{}
	short.add(rows[1:])
	if keys, missing := short.mismatches(a); missing != 1 || len(keys) != 1 || keys[0] != "gnp|12|par4|triangle|5" {
		t.Errorf("mismatches of a set missing a row = %v,%d", keys, missing)
	}
	chk = Check{}
	chk.cells(rows[1:], "unit")
	chk.reference(short, ref, "unit")
	if chk.Failed != 1 || chk.Attempted != 2 || chk.Correct() {
		t.Errorf("a missing row: failed=%d attempted=%d correct=%v; want 1, 2, false", chk.Failed, chk.Attempted, chk.Correct())
	}
	chk = Check{}
	chk.compare(short, a, "traced unit", "the untraced run")
	if chk.Failed != 1 {
		t.Errorf("a row missing from the traced run counts %d failures, want 1", chk.Failed)
	}

	// A digest that disagrees with the pinned one fails the run even
	// when the pinned cells match.
	chk = Check{}
	chk.reference(a, &RefWorkload{Cells: a, Digest: "0"}, "unit")
	if chk.Correct() {
		t.Error("a wrong digest passed")
	}

	// Off the reference seed only the count shows a left-out cell.
	chk = Check{}
	chk.cells(rows[1:], "unit")
	chk.cellCount(1, 2, "unit")
	if chk.Failed != 1 || chk.Attempted != 2 || chk.Correct() {
		t.Errorf("a short run: failed=%d attempted=%d correct=%v; want 1, 2, false", chk.Failed, chk.Attempted, chk.Correct())
	}

	// A diverged cell that also differs from the reference fails once.
	chk = Check{}
	rows[0].Outcome = scenario.OutcomeDiverged
	chk.cells(rows, "unit")
	bad := cellSet{}
	bad.add(rows)
	chk.reference(bad, ref, "unit")
	if chk.Failed != 1 || chk.Attempted != 2 {
		t.Errorf("a diverged cell unlike the reference: failed=%d attempted=%d; want 1, 2", chk.Failed, chk.Attempted)
	}
}

// TestBenchmarkFileMatchesProgram keeps BENCHMARK.json and the metrics
// this program prints in step.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var bench struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}

	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	want := []string{fleetOpen}
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	check := func(kind string, file []struct{ Name, Unit string }, prog []metricDef) {
		if len(file) != len(prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program prints %d", kind, len(file), len(prog))
		}
		units := map[string]string{}
		for _, d := range prog {
			units[d.name] = d.unit
		}
		for _, m := range file {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: BENCHMARK.json has %s in %q, program has %q (present=%v)", kind, m.Name, m.Unit, u, ok)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer())
}
