package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"github.com/holisticim/holisticim"
	"github.com/holisticim/holisticim/internal/service"
)

// Every workload runs on the same kind of graph: a 50k-node
// Barabási–Albert graph with 3 attachments per node, IC probability 0.1,
// normally distributed opinions and random interaction probabilities.
const (
	graphName    = "bench"
	graphNodes   = 50000
	graphDegree  = 3
	graphProb    = 0.1
	maxK         = 50 // every select asks for k ≤ maxK, the sketches' BuildK
	sketchBuildK = 50
)

// genGraph builds the workload graph for seed.
func genGraph(seed uint64) *holisticim.Graph {
	g := holisticim.GenerateBA(graphNodes, graphDegree, seed)
	g.SetUniformProb(graphProb)
	holisticim.AssignOpinions(g, holisticim.OpinionNormal, seed+1)
	holisticim.AssignInteractions(g, seed+2)
	return g
}

// rngFor returns the deterministic stream number stream of seed.
func rngFor(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// distinctKs draws n distinct budgets in [lo, hi], ascending. With
// n = hi-lo+1 it returns every budget and needs no randomness (r may be
// nil).
func distinctKs(r *rand.Rand, lo, hi, n int) []int {
	if n == hi-lo+1 {
		ks := make([]int, n)
		for i := range ks {
			ks[i] = lo + i
		}
		return ks
	}
	seen := map[int]bool{}
	ks := make([]int, 0, n)
	for len(ks) < n {
		k := lo + r.IntN(hi-lo+1)
		if !seen[k] {
			seen[k] = true
			ks = append(ks, k)
		}
	}
	sort.Ints(ks)
	return ks
}

// membersOf returns the requested budgets of a select request.
func membersOf(req service.QueryRequest) []int {
	if len(req.Ks) > 0 {
		return req.Ks
	}
	return []int{req.K}
}

// checkSelect verifies a select answer: one member per requested k, each
// with exactly k distinct in-range seeds that are a prefix of order.
func checkSelect(req service.QueryRequest, qr *service.QueryResponse, order []int32) error {
	ks := membersOf(req)
	if qr.Answer == nil || len(qr.Answer.Members) != len(ks) {
		return fmt.Errorf("%w: want %d members", errWrong, len(ks))
	}
	for i, m := range qr.Answer.Members {
		if m.K != ks[i] || m.Result == nil || len(m.Result.Seeds) != ks[i] {
			return fmt.Errorf("%w: member %d is not a k=%d selection", errWrong, i, ks[i])
		}
		seen := make(map[int32]bool, len(m.Result.Seeds))
		for j, s := range m.Result.Seeds {
			if s < 0 || s >= graphNodes || seen[s] {
				return fmt.Errorf("%w: member %d seed %d is out of range or repeated", errWrong, i, s)
			}
			seen[s] = true
			if order != nil && (j >= len(order) || order[j] != s) {
				return fmt.Errorf("%w: member %d is not a prefix of the greedy order at %d", errWrong, i, j)
			}
		}
	}
	return nil
}

// zeroTimings clears the wall-clock fields of an answer, the only fields
// two servings of the same query may legitimately differ in.
func zeroTimings(qr *service.QueryResponse) {
	if qr.Answer == nil {
		return
	}
	qr.Answer.TookMS = 0
	for i := range qr.Answer.Members {
		if r := qr.Answer.Members[i].Result; r != nil {
			r.TookMS = 0
		}
		if e := qr.Answer.Members[i].Estimate; e != nil {
			e.TookMS = 0
		}
	}
}

// canonical renders a response with its timings zeroed, for equality.
func canonical(qr service.QueryResponse) string {
	zeroTimings(&qr)
	b, _ := json.Marshal(qr) // a decoded response always re-encodes
	return string(b)
}

// libQuery maps a wire request onto the library query the server runs,
// with idx attached as the server attaches its registered sketch.
func libQuery(req service.QueryRequest, idx *holisticim.Sketch) holisticim.Query {
	return holisticim.Query{
		Task:      holisticim.Task(req.Task),
		Algorithm: holisticim.Algorithm(req.Algorithm),
		Objective: holisticim.Objective(req.Objective),
		K:         req.K,
		Ks:        req.Ks,
		SeedSets:  req.SeedSets,
		Options: holisticim.Options{
			Model:   holisticim.ModelKind(req.Options.Model),
			Epsilon: req.Options.Epsilon,
			MCRuns:  req.Options.MCRuns,
			Seed:    req.Options.Seed,
			Sketch:  idx,
		},
	}
}

// replaySketchQuery replays one sketch-served request through the layer
// entry points under root and records a span for each: the service
// handler (in-process, no socket), JSON encoding of its reply, the
// planner's Run with PlanQuery, the sketch call and the footprint walk
// inside it. Returns the span index of the handler call.
func replaySketchQuery(ctx context.Context, tr *tracer, reqID, root int, h http.Handler, body []byte, req service.QueryRequest, g *holisticim.Graph, idx *holisticim.Sketch) error {
	var rec *httptest.ResponseRecorder
	hs := tr.timed("service.ServeHTTP", reqID, root, func() {
		hr := httptest.NewRequest(http.MethodPost, "/v2/query", bytes.NewReader(body))
		hr.Header.Set("Content-Type", "application/json")
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, hr)
	})
	if rec.Code != http.StatusOK {
		return fmt.Errorf("replay: status %d: %s", rec.Code, rec.Body.String())
	}
	var qr service.QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	tr.timed("service.encode", reqID, hs, func() { _, _ = json.Marshal(qr) })

	q := libQuery(req, idx)
	var runErr error
	rs := tr.timed("holisticim.Run", reqID, hs, func() { _, runErr = holisticim.Run(ctx, g, q) })
	if runErr != nil {
		return fmt.Errorf("replay run: %w", runErr)
	}
	tr.timed("holisticim.PlanQuery", reqID, rs, func() { _, runErr = holisticim.PlanQuery(g, q) })
	var ss int
	if q.Task == holisticim.TaskEstimate || len(req.SeedSets) > 0 {
		ss = tr.timed("sketch.EstimateOpinion", reqID, rs, func() {
			for _, set := range req.SeedSets {
				if _, err := idx.EstimateOpinion(set); err != nil {
					runErr = err
				}
			}
		})
	} else {
		ss = tr.timed("sketch.Select", reqID, rs, func() {
			if len(req.Ks) > 0 {
				_, runErr = idx.SelectPrefixes(ctx, req.Ks)
			} else {
				_, runErr = idx.Select(ctx, req.K)
			}
		})
		tr.timed("ris.MemoryFootprint", reqID, ss, func() { idx.MemoryFootprint() })
	}
	return runErr
}

// recordReplayLayers turns the replay spans into the per-layer self
// times and the direct sketch call latencies.
func recordReplayLayers(rep *report, spans []span) {
	self := selfTimes(spans)
	rep.layer["service.transport_us"] = medianSelfMicros(self, "http")
	rep.layer["service.handler_self_us"] = medianSelfMicros(self, "service.ServeHTTP")
	rep.layer["service.encode_us"] = medianSelfMicros(self, "service.encode")
	rep.layer["holisticim.run_self_us"] = medianSelfMicros(self, "holisticim.Run")
	rep.layer["holisticim.plan_us"] = medianSelfMicros(self, "holisticim.PlanQuery")
	rep.layer["sketch.select_self_us"] = medianSelfMicros(self, "sketch.Select")
	rep.layer["ris.memory_walk_us"] = medianSelfMicros(self, "ris.MemoryFootprint")
	rep.layer["sketch.estimate_opinion_us"] = medianSelfMicros(self, "sketch.EstimateOpinion")
	var sel []float64
	for _, s := range spans {
		if s.Name == "sketch.Select" {
			sel = append(sel, float64(s.dur())/float64(time.Microsecond))
		}
	}
	if len(sel) > 0 {
		t := summarize(sel, 0.99)
		rep.layer["sketch.select_p50_us"] = t.P50
		rep.layer["sketch.select_p99_us"] = t.At
		rep.detail["select_samples"] = t.N
		rep.detail["select_tail_percentile"] = t.Pct
	}
	rep.layer["trace.spans"] = float64(len(spans))
}

// recordSketchCounts sets the sketch size counters and times Stats, the
// call each /metrics scrape and sketch listing pays. Callers overwrite
// sketch.extensions with the count since warm-up.
func recordSketchCounts(rep *report, idx *holisticim.Sketch) {
	const calls = 20
	var us []float64
	var st holisticim.SketchStats
	for i := 0; i < calls; i++ {
		start := time.Now()
		st = idx.Stats()
		us = append(us, float64(time.Since(start))/float64(time.Microsecond))
	}
	rep.layer["sketch.stats_us"] = median(us)
	rep.layer["sketch.sets"] = float64(st.Sets)
	rep.layer["sketch.bytes"] = float64(st.MemoryBytes)
	rep.layer["sketch.extensions"] = float64(st.Extensions)
}

// recordScrapes times GET /metrics through the handler in-process,
// enough times for a p99 with ten samples beyond it.
func recordScrapes(rep *report, h http.Handler) {
	const scrapes = 1000
	ms := make([]float64, 0, scrapes)
	for i := 0; i < scrapes; i++ {
		start := time.Now()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if rec.Code != http.StatusOK {
			rep.wrong("scrape: status %d", rec.Code)
			return
		}
		ms = append(ms, msSince(start))
	}
	t := summarize(ms, 0.99)
	rep.layer["obs.scrape_p50_ms"] = t.P50
	rep.layer["obs.scrape_p99_ms"] = t.At
}
