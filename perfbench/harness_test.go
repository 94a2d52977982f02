package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"github.com/holisticim/holisticim"
)

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n         int
		want, got float64
	}{
		{n: 10, want: 0.5, got: 0}, // fewer than 11 samples: nothing qualifies
		{n: 11, want: 0.99, got: 1 - 10.0/11},
		{n: 50, want: 0.8, got: 0.8}, // exactly 10 beyond p80
		{n: 49, want: 0.8, got: 1 - 10.0/49},
		{n: 100, want: 0.9, got: 0.9},
		{n: 1000, want: 0.99, got: 0.99},
		{n: 999, want: 0.99, got: 1 - 10.0/999},
		{n: 20000, want: 0.99, got: 0.99}, // never above the wanted percentile
	} {
		got := supportedPercentile(c.n, c.want)
		if math.Abs(got-c.got) > 1e-12 {
			t.Errorf("supportedPercentile(%d, %v) = %v, want %v", c.n, c.want, got, c.got)
		}
		if got > 0 && float64(c.n)*(1-got) < minBeyond-1e-9 {
			t.Errorf("n=%d: percentile %v leaves fewer than %d samples beyond it", c.n, got, minBeyond)
		}
	}
}

func TestSummarize(t *testing.T) {
	samples := make([]float64, 200)
	for i := range samples {
		samples[len(samples)-1-i] = float64(i + 1) // 200..1, unsorted input
	}
	s := summarize(samples, 0.99)
	if s.N != 200 {
		t.Fatalf("N = %d, want 200", s.N)
	}
	if s.P50 != 100.5 {
		t.Errorf("P50 = %v, want 100.5", s.P50)
	}
	// 200 samples support p95 at most: 10 samples lie beyond it.
	if s.Pct != 0.95 {
		t.Errorf("Pct = %v, want 0.95", s.Pct)
	}
	if want := quantile(sortedCopy(samples), 0.95); s.At != want {
		t.Errorf("At = %v, want %v", s.At, want)
	}
	if samples[0] != 200 {
		t.Error("summarize reordered its input")
	}
	if e := summarize(nil, 0.9); e.N != 0 || e.Pct != 0 {
		t.Errorf("empty summary = %+v", e)
	}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s
}

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{10, 20, 30, 40}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {1, 40}, {0.5, 25}, {0.25, 17.5}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr := &tracer{}
	root := tr.record("http", 1, -1, at(0), at(100))               // 100 ms
	h := tr.record("service.ServeHTTP", 1, root, at(100), at(170)) // 70 ms
	tr.record("service.encode", 1, h, at(170), at(175))            // 5 ms
	run := tr.record("holisticim.Run", 1, h, at(175), at(225))     // 50 ms
	tr.record("holisticim.PlanQuery", 1, run, at(225), at(226))    // 1 ms
	sel := tr.record("sketch.Select", 1, run, at(226), at(266))    // 40 ms
	tr.record("ris.MemoryFootprint", 1, sel, at(266), at(296))     // 30 ms
	// A child replayed slower than its parent's whole call clamps to 0.
	slow := tr.record("http", 2, -1, at(0), at(10))
	tr.record("service.ServeHTTP", 2, slow, at(10), at(30))

	self := selfTimes(tr.spans)
	want := map[string][]time.Duration{
		"http":                 {30 * time.Millisecond, 0},
		"service.ServeHTTP":    {15 * time.Millisecond, 20 * time.Millisecond},
		"service.encode":       {5 * time.Millisecond},
		"holisticim.Run":       {9 * time.Millisecond}, // grandchild walk not subtracted here
		"holisticim.PlanQuery": {time.Millisecond},
		"sketch.Select":        {10 * time.Millisecond},
		"ris.MemoryFootprint":  {30 * time.Millisecond},
	}
	for name, w := range want {
		got := self[name]
		if len(got) != len(w) {
			t.Fatalf("%s: %d self times, want %d", name, len(got), len(w))
		}
		for i := range w {
			if got[i] != w[i] {
				t.Errorf("%s[%d] self = %v, want %v", name, i, got[i], w[i])
			}
		}
	}
	if us := medianSelfMicros(self, "sketch.Select"); us != 10000 {
		t.Errorf("median self of sketch.Select = %v µs, want 10000", us)
	}
	if us := medianSelfMicros(self, "absent"); us != 0 {
		t.Errorf("median self of an unrecorded span = %v, want 0", us)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	ran := false
	if i := tr.timed("x", 0, -1, func() { ran = true }); i != -1 || !ran {
		t.Fatalf("nil tracer: index %d, ran %v", i, ran)
	}
}

// TestMutationGeneratorNeverEmitsInvalidOps applies many generated batches
// to a live graph, which rejects a whole batch on the first invalid op.
func TestMutationGeneratorNeverEmitsInvalidOps(t *testing.T) {
	g := holisticim.GenerateBA(2000, 3, 7)
	g.SetUniformProb(0.1)
	lv := holisticim.WrapLive(g, holisticim.LiveOptions{})
	edges := newEdgeSet(g)
	r := rngFor(7, 1)
	ctx := context.Background()
	for b := 1; b <= 200; b++ {
		ops := edges.batch(r, churnBatchOps)
		if len(ops) != churnBatchOps {
			t.Fatalf("batch %d has %d ops", b, len(ops))
		}
		kinds := map[holisticim.EdgeOpKind]int{}
		seen := map[int64]bool{}
		for _, o := range ops {
			kinds[o.Op]++
			a := arcKey(o.From, o.To)
			if seen[a] {
				t.Fatalf("batch %d touches arc (%d,%d) twice", b, o.From, o.To)
			}
			seen[a] = true
		}
		if kinds[holisticim.OpAddEdge] == 0 || kinds[holisticim.OpRemoveEdge] == 0 || kinds[holisticim.OpReweightEdge] == 0 {
			t.Fatalf("batch %d lacks an op kind: %v", b, kinds)
		}
		res, err := lv.Apply(ctx, ops, holisticim.ApplyOptions{RebalanceLT: true})
		if err != nil {
			t.Fatalf("batch %d rejected: %v", b, err)
		}
		if res.Version != uint64(b) {
			t.Fatalf("batch %d produced version %d", b, res.Version)
		}
		if got, want := res.Arcs, int64(len(edges.arcs)); got != want {
			t.Fatalf("after batch %d the graph has %d arcs, the generator's copy %d", b, got, want)
		}
	}
	// The copy must match the live graph arc for arc.
	cur := lv.Graph()
	for _, a := range edges.arcs {
		if u, v := arcEnds(a); !cur.HasEdge(u, v) {
			t.Fatalf("copy holds (%d,%d), the graph does not", u, v)
		}
	}
}

func TestJobStreamMix(t *testing.T) {
	s := newJobStream(3)
	const blocks = 20
	for b := 0; b < blocks; b++ {
		counts := map[jobKind]int{}
		repeated := map[jobKind]int{}
		budgets := map[jobKind]int{}
		for i := b * len(jobBlock); i < (b+1)*len(jobBlock); i++ {
			j := s.at(i)
			counts[j.kind]++
			if j.repeat < 0 {
				budgets[j.kind] += j.req.K
				if j.kind != jobMC && (j.req.K < 10 || j.req.K > 50) {
					t.Fatalf("request %d: k=%d outside 10-50", i, j.req.K)
				}
				continue
			}
			repeated[j.kind]++
			orig := s.at(j.repeat)
			if orig.kind != j.kind || orig.repeat >= 0 {
				t.Fatalf("request %d repeats %d, a %s (repeat %d)", i, j.repeat, orig.kind, orig.repeat)
			}
			a, _ := json.Marshal(orig.req)
			b, _ := json.Marshal(j.req)
			if string(a) != string(b) {
				t.Fatalf("request %d is not an exact repeat of %d", i, j.repeat)
			}
		}
		want := map[jobKind]int{jobEaSyIM: 3, jobOSIM: 3, jobIMM: 2, jobMC: 1, jobDD: 1}
		for k, w := range want {
			if counts[k] != w {
				t.Errorf("block %d: %d %s requests, want %d", b, counts[k], k, w)
			}
		}
		// Every block repeats one EaSyIM and one OSIM request, and the
		// two fresh requests of each selection kind with two of them ask
		// for budgets summing to pairedKBudgets.
		if len(repeated) != 2 || repeated[jobEaSyIM] != 1 || repeated[jobOSIM] != 1 {
			t.Errorf("block %d repeats %v, want one easyim and one osim", b, repeated)
		}
		for _, k := range []jobKind{jobEaSyIM, jobOSIM, jobIMM} {
			if budgets[k] != pairedKBudgets {
				t.Errorf("block %d: fresh %s budgets sum to %d, want %d", b, k, budgets[k], pairedKBudgets)
			}
		}
	}
	seeds := map[uint64]bool{}
	for _, j := range s.jobs {
		if j.repeat < 0 {
			if seeds[j.req.Options.Seed] {
				t.Fatalf("fresh seed %d reused", j.req.Options.Seed)
			}
			seeds[j.req.Options.Seed] = true
		}
	}
}

func TestDistinctKs(t *testing.T) {
	r := rngFor(1, 1)
	for i := 0; i < 100; i++ {
		ks := distinctKs(r, 1, maxK-1, 4)
		if len(ks) != 4 {
			t.Fatalf("got %v", ks)
		}
		for j, k := range ks {
			if k < 1 || k > maxK-1 || (j > 0 && ks[j-1] >= k) {
				t.Fatalf("not distinct, ascending and in range: %v", ks)
			}
		}
	}
	if all := distinctKs(nil, 1, maxK, maxK); len(all) != maxK || all[0] != 1 || all[maxK-1] != maxK {
		t.Fatalf("full range: %v", all)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// lists this program prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found next to the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the program does not run", w.Name)
		}
	}
}
