package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/holisticim/holisticim"
	"github.com/holisticim/holisticim/internal/cluster"
	"github.com/holisticim/holisticim/internal/obs"
	"github.com/holisticim/holisticim/internal/ris"
	"github.com/holisticim/holisticim/internal/service"
)

// ocSketchEpsilon is the ε of routed-serve's opinion-aware OC sketch:
// ~468k sets, ~1 s to build.
const ocSketchEpsilon = 0.1

// routedReplicas is the replica count behind the router.
const routedReplicas = 3

// routedEstimateEvery: every fifth routed-serve request is an opinion
// estimate; the rest are 5-k weighted select batches.
const routedEstimateEvery = 5

// readTail is the tail percentile of routed-serve's reads. The p99 of
// served reads followed host stalls on the 2-core reference VM (4.5 to
// 10.4 ms over ten runs of one build), not the program, so the tail is
// p90.
const readTail = 0.9

// requestPool is how many distinct requests the client cycles through.
const requestPool = 512

// sketchSeed is the sampling seed of the workload's sketches.
func sketchSeed(seed uint64) uint64 { return holisticim.CanonicalSeed(seed) }

// replica is one warm-loaded server behind a loopback listener, with a
// count of the /v2/query requests it received.
type replica struct {
	srv     *service.Server
	lb      *loopback
	queries atomic.Int64
}

// routedEnv is one set-up of the routed cluster.
type routedEnv struct {
	g         *holisticim.Graph
	storeDir  string
	replicas  []*replica
	router    *cluster.Router
	routerReg *obs.Registry
	front     *loopback
	order     []int32 // greedy OC order up to maxK, from replica 0
	genS      float64
	buildS    float64
	publishMS float64
	syncMS    []float64
}

func (e *routedEnv) close() {
	if e.front != nil {
		e.front.close()
	}
	for _, r := range e.replicas {
		r.lb.close()
		r.srv.Close()
	}
	_ = os.RemoveAll(e.storeDir) // best effort: scratch files under the work dir
}

// idx returns replica 0's loaded sketch, the one direct answers use.
func (e *routedEnv) idx(seed uint64) *holisticim.Sketch {
	return e.replicas[0].srv.Sketches().Lookup(graphName, "oc", ocSketchEpsilon, sketchSeed(seed))
}

var storeRound atomic.Int64

// newRoutedEnv builds the graph and an OC sketch, publishes both to a
// snapshot store, warm-loads three replicas from it and puts a router in
// front of them.
func newRoutedEnv(ctx context.Context, cfg runConfig) (_ *routedEnv, err error) {
	e := &routedEnv{}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	start := time.Now()
	e.g = genGraph(cfg.seed)
	e.genS = time.Since(start).Seconds()
	start = time.Now()
	idx, err := holisticim.BuildSketch(ctx, e.g, ocSketchOptions(cfg.seed))
	if err != nil {
		return nil, err
	}
	e.buildS = time.Since(start).Seconds()

	e.storeDir = filepath.Join(cfg.workdir, fmt.Sprintf("store-%d-%d-%d", os.Getpid(), cfg.seed, storeRound.Add(1)))
	st, err := cluster.OpenStore(e.storeDir)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	if _, err := st.PublishGraph(graphName, e.g, idx.GraphVersion()); err != nil {
		return nil, err
	}
	if _, err := st.PublishSketch(graphName, idx); err != nil {
		return nil, err
	}
	e.publishMS = msSince(start)

	var urls []string
	for i := 0; i < routedReplicas; i++ {
		r := &replica{srv: service.New(service.Config{ColdStart: true})}
		start = time.Now()
		if _, err := cluster.NewWatcher(st, r.srv, 0).SyncOnce(ctx); err != nil {
			r.srv.Close()
			return nil, fmt.Errorf("warm-load replica %d: %w", i, err)
		}
		e.syncMS = append(e.syncMS, msSince(start))
		h := r.srv.Handler()
		counted := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Path == "/v2/query" {
				r.queries.Add(1)
			}
			h.ServeHTTP(w, req)
		})
		if r.lb, err = serveLoopback(counted); err != nil {
			r.srv.Close()
			return nil, err
		}
		e.replicas = append(e.replicas, r)
		urls = append(urls, r.lb.URL)
	}
	e.routerReg = obs.NewRegistry()
	if e.router, err = cluster.NewRouter(cluster.RouterConfig{Replicas: urls, Metrics: e.routerReg}); err != nil {
		return nil, err
	}
	e.router.PollOnce(ctx)
	if e.front, err = serveLoopback(e.router.Handler()); err != nil {
		return nil, err
	}
	// Every replica serves scattered members, so each warms its own order.
	warm := make([]*service.SelectResult, len(e.replicas))
	errs := make([]error, len(e.replicas))
	var wg sync.WaitGroup
	for i, r := range e.replicas {
		wg.Add(1)
		go func(i int, r *replica) {
			defer wg.Done()
			warm[i], errs[i] = warmUpOC(ctx, r.lb.URL, cfg.seed)
		}(i, r)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("replica %d: %w", i, err)
		}
	}
	e.order = warm[0].Seeds
	return e, nil
}

// ocSelect is a weighted (opinion-coverage) select on the OC sketch.
//
// Every OC select's largest budget is maxK, the sketch's BuildK. The OC
// θ bound grows as k shrinks, so a select whose largest budget is below
// BuildK extends the sample: warming k=1..50 one by one grew it from
// ~470k sets to between 648k and 1.48M over seeds 1-6, and the figures
// followed the seed rather than the code. A batch is sized for its
// largest member, so batches ending at maxK never extend.
func ocSelect(seed uint64, ks []int, k int) service.QueryRequest {
	return service.QueryRequest{
		Graph: graphName, Algorithm: "imm", K: k, Ks: ks,
		Options: service.Options{Model: "oc", Epsilon: ocSketchEpsilon, Seed: sketchSeed(seed)},
	}
}

// ocEstimate is a Def. 6-7 opinion-spread estimate served by the OC
// sketch.
func ocEstimate(seed uint64, seeds []int32) service.QueryRequest {
	return service.QueryRequest{
		Graph: graphName, Task: "estimate", SeedSets: [][]int32{seeds},
		Options: service.Options{Model: "oc", Epsilon: ocSketchEpsilon, Seed: sketchSeed(seed)},
	}
}

// ocRequests is a read cycle over the OC sketch: every estEvery-th
// request is an opinion estimate of 10 random nodes; the rest are 5-k
// select batches whose largest budget is maxK. The kinds follow a fixed
// pattern so every seed asks for the same mix in the same order.
func ocRequests(seed, stream uint64, estEvery int) []service.QueryRequest {
	r := rngFor(seed, stream)
	reqs := make([]service.QueryRequest, requestPool)
	for i := range reqs {
		if i%estEvery == estEvery-1 {
			reqs[i] = ocEstimate(seed, randomNodes(r, 10))
		} else {
			reqs[i] = ocSelect(seed, append(distinctKs(r, 1, maxK-1, 4), maxK), 0)
		}
	}
	return reqs
}

// randomNodes draws n node ids uniformly.
func randomNodes(r *rand.Rand, n int) []int32 {
	set := make([]int32, n)
	for j := range set {
		set[j] = r.Int32N(graphNodes)
	}
	return set
}

// warmUpOC computes an OC sketch's greedy order and the opinion
// estimate of every prefix once, with one batch of every budget, and
// returns the k=maxK answer.
func warmUpOC(ctx context.Context, url string, seed uint64) (*service.SelectResult, error) {
	var qr service.QueryResponse
	code, err := postJSON(ctx, http.DefaultClient, url+"/v2/query", ocSelect(seed, distinctKs(nil, 1, maxK, maxK), 0), &qr)
	if err != nil || code != http.StatusOK || !qr.Sketch || qr.Answer == nil || len(qr.Answer.Members) != maxK {
		return nil, fmt.Errorf("warm-up select: status %d, err %v", code, err)
	}
	return qr.Answer.Members[maxK-1].Result, nil
}

// checkEstimate verifies an opinion-estimate answer: one sketch-served
// member per seed set, with a spread beyond the seeds in [0, n]. A spread
// of 0 is legitimate: the sketch clamps its estimate there.
func checkEstimate(req service.QueryRequest, qr *service.QueryResponse) error {
	if qr.Answer == nil || len(qr.Answer.Members) != len(req.SeedSets) {
		return fmt.Errorf("%w: want %d estimate members", errWrong, len(req.SeedSets))
	}
	for i, m := range qr.Answer.Members {
		if m.Estimate == nil || !m.Estimate.Sketch || !(m.Estimate.Spread >= 0 && m.Estimate.Spread <= graphNodes) {
			return fmt.Errorf("%w: estimate member %d is missing, not sketch-served or out of range", errWrong, i)
		}
	}
	return nil
}

// runRoutedServe: a router over 3 warm-loaded replicas serving weighted
// 5-k select batches (scattered one member per upstream select) and
// opinion estimates to one closed-loop client.
func runRoutedServe(ctx context.Context, cfg runConfig, rep *report) error {
	env, err := setupRepeated(rep, setupRounds, func() (*routedEnv, error) { return newRoutedEnv(ctx, cfg) }, (*routedEnv).close)
	if err != nil {
		return err
	}
	defer env.close()
	// Replays run against replica 0's own graph instance: the sketch
	// matches it by pointer, so no replay pays a fingerprint.
	idx := env.idx(cfg.seed)
	g0, err := env.replicas[0].srv.Registry().Get(graphName)
	if idx == nil || err != nil {
		return fmt.Errorf("replica 0 holds no OC sketch or graph: %v", err)
	}
	extBefore := idx.Stats().Extensions

	reqs := ocRequests(cfg.seed, 300, routedEstimateEvery)
	bodies := make([][]byte, len(reqs))
	for i, r := range reqs {
		bodies[i], _ = json.Marshal(r) // plain struct: cannot fail
	}
	var kept replies
	client := newClient()
	defer client.CloseIdleConnections()
	op := func(tr *tracer) func(i int) (float64, error) {
		return func(i int) (float64, error) {
			p := i % requestPool
			req, body := reqs[p], bodies[p]
			reqID := i
			start := time.Now()
			code, raw, hdr, err := doHeader(ctx, client, http.MethodPost, env.front.URL+"/v2/query", body)
			ms := msSince(start)
			root := tr.record("http", reqID, -1, start, time.Now())
			if err != nil {
				return 0, err
			}
			kept = append(kept, reply{pool: p, code: code, raw: raw, scattered: hdr.Get("X-Router-Scatter") == "1"})
			if tr != nil {
				ds := time.Now()
				dcode, _, err := do(ctx, client, http.MethodPost, env.replicas[0].lb.URL+"/v2/query", body)
				direct := tr.record("cluster.direct", reqID, root, ds, time.Now())
				if err != nil || dcode != http.StatusOK {
					return 0, fmt.Errorf("direct replay: status %d, err %v", dcode, err)
				}
				if err := replaySketchQuery(ctx, tr, reqID, direct, env.replicas[0].srv.Handler(), body, req, g0, idx); err != nil {
					return 0, err
				}
			}
			return ms, nil
		}
	}

	upstream := func() int64 {
		var n int64
		for _, r := range env.replicas {
			n += r.queries.Load()
		}
		return n
	}
	failovers := env.routerReg.Counter("im_router_failovers_total", "")
	up0, fo0 := upstream(), failovers.Value()
	if !cfg.trace {
		before := readRuntime()
		st := closedLoop(cfg.window(), 1, op(nil))
		rep.add(st)
		rep.recordLatency(st.latMS, st.rate, readTail)
		rep.recordRuntime(before, len(st.latMS))
	} else {
		tr := &tracer{}
		traceRun(rep, cfg, 1, op(nil), op(tr), func() {
			rep.layer["cluster.upstream_per_read"] = float64(upstream()-up0) / float64(max(rep.attempted, 1))
			rep.layer["cluster.failovers"] = float64(failovers.Value() - fo0)
		})
		recordReplayLayers(rep, tr.spans)
		self := selfTimes(tr.spans)
		rep.layer["cluster.proxy_us"] = medianSelfMicros(self, "http")
		rep.layer["service.transport_us"] = medianSelfMicros(self, "cluster.direct")
		spanDump(cfg, tr, "routed-serve")
		sketchLayers(ctx, rep, g0, idx, env.genS, env.buildS, cfg.seed, ris.ModelOC)
		rep.layer["sketch.extensions"] = float64(idx.Stats().Extensions - extBefore)
		recordScrapes(rep, env.replicas[0].srv.Handler())
		rep.layer["cluster.publish_ms"] = env.publishMS
		rep.layer["cluster.sync_ms"] = median(env.syncMS)
		copyIdx, err := snapshotLayers(rep, g0, idx)
		if err == nil {
			err = churnLayers(ctx, rep, g0, copyIdx, cfg.seed)
		}
		if err != nil {
			rep.wrong("snapshot round trip and churn probe: %v", err)
		}
	}
	// Every batch must be scattered, and repeats of a request must answer
	// alike; the first routed answer to each pool entry is kept for the
	// comparison with the direct replica below.
	routed := map[int]string{}
	batches, scattered := 0, 0
	kept.check(rep, func(rp reply) error {
		req := reqs[rp.pool]
		var qr service.QueryResponse
		if err := json.Unmarshal(rp.raw, &qr); err != nil || rp.code != http.StatusOK || !qr.Sketch {
			return fmt.Errorf("%w: status %d, sketch %v, err %v", errWrong, rp.code, qr.Sketch, err)
		}
		var err error
		if len(req.SeedSets) > 0 {
			err = checkEstimate(req, &qr)
		} else {
			batches++
			if rp.scattered {
				scattered++
			}
			err = checkSelect(req, &qr, env.order)
		}
		if err != nil {
			return err
		}
		got := canonical(qr)
		first, seen := routed[rp.pool]
		if !seen {
			routed[rp.pool] = got
		} else if first != got {
			return fmt.Errorf("%w: two routed answers to one request differ", errWrong)
		}
		return nil
	})
	rep.detail["scattered"] = scattered
	rep.detail["batches"] = batches
	if cfg.trace {
		rep.layer["cluster.scatter_share"] = float64(scattered) / float64(max(batches, 1))
	}
	if scattered != batches {
		rep.wrong("%d of %d select batches were not scattered", batches-scattered, batches)
	}

	// Routed answers must equal the direct replica's, timings aside.
	for p, got := range routed {
		var qr service.QueryResponse
		code, err := postJSON(ctx, client, env.replicas[0].lb.URL+"/v2/query", reqs[p], &qr)
		if err != nil || code != http.StatusOK {
			rep.wrong("direct answer: status %d, err %v", code, err)
			break
		}
		if want := canonical(qr); want != got {
			rep.wrong("routed answer differs from the direct replica's:\nrouted: %.300s\ndirect: %.300s", got, want)
			break
		}
	}
	rep.detail["distinct_requests_compared"] = len(routed)
	if ext := idx.Stats().Extensions - extBefore; ext != 0 {
		rep.wrong("replica 0's sketch extended %d times after warm-up", ext)
	}
	return nil
}

// snapshotLayers times one save and one load of the sketch snapshot and
// returns the loaded copy.
func snapshotLayers(rep *report, g *holisticim.Graph, idx *holisticim.Sketch) (*holisticim.Sketch, error) {
	var buf bytes.Buffer
	start := time.Now()
	if err := holisticim.WriteSketch(&buf, idx); err != nil {
		return nil, err
	}
	rep.layer["sketch.save_ms"] = msSince(start)
	start = time.Now()
	loaded, err := holisticim.ReadSketch(bytes.NewReader(buf.Bytes()), g)
	rep.layer["sketch.load_ms"] = msSince(start)
	return loaded, err
}

// sketchLayers times the layers under a sketch build directly: graph
// generation and fingerprinting, parallel RR sampling and greedy max
// coverage on a fresh collection, and the sketch's counters.
func sketchLayers(ctx context.Context, rep *report, g *holisticim.Graph, idx *holisticim.Sketch, genS, buildS float64, seed uint64, kind ris.ModelKind) {
	rep.layer["graph.generate_s"] = genS
	rep.layer["sketch.build_s"] = buildS
	var fp []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		g.Fingerprint()
		fp = append(fp, msSince(start))
	}
	rep.layer["graph.fingerprint_ms"] = median(fp)

	const sets = 20000
	col := ris.NewCollection(g, kind)
	start := time.Now()
	if err := col.GenerateParallelCtx(ctx, sets, seed, 0); err != nil {
		rep.wrong("sample RR sets: %v", err)
		return
	}
	rep.layer["ris.sample_sets_per_s"] = sets / time.Since(start).Seconds()
	start = time.Now()
	col.MaxCoverage(maxK)
	rep.layer["ris.max_coverage_ms"] = msSince(start)
	recordSketchCounts(rep, idx)
}
