package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/holisticim/holisticim"
	"github.com/holisticim/holisticim/internal/service"
)

// jobKind is one entry of the cold-jobs mix.
type jobKind string

const (
	jobEaSyIM jobKind = "easyim"
	jobOSIM   jobKind = "osim"
	jobIMM    jobKind = "imm"
	jobMC     jobKind = "mc"
	jobDD     jobKind = "degree-discount"
)

// jobBlock is the mix of one block of ten requests: 30% easyim, 30%
// osim, 20% cold imm, 10% Monte-Carlo estimates and 10% degree-discount.
// Every block holds exactly this mix, in a seed-shuffled order, and each
// client stops only at a block boundary, so a run does the same mix of
// work whatever the seed.
var jobBlock = []jobKind{jobEaSyIM, jobEaSyIM, jobEaSyIM, jobOSIM, jobOSIM, jobOSIM, jobIMM, jobIMM, jobMC, jobDD}

// repeatKinds are the kinds of each block's two exact repeats of an
// earlier request (20%). A repeat is answered from the result cache in
// a moment, so which kinds repeat decides how much work a block leaves;
// fixing them keeps every block's work alike.
var repeatKinds = []jobKind{jobEaSyIM, jobOSIM}

// pairedKBudgets is the sum of the budgets of a block's two fresh
// requests of one kind: block b asks for k = 10+10·(b mod 5) and
// pairedKBudgets-k, so the budgets cover 10-50 every five blocks and the
// cost of a block, linear in k, is the same in every block.
const pairedKBudgets = 60

// mcSeedCount and mcRuns size the Monte-Carlo estimates.
const (
	mcSeedCount = 20
	mcRuns      = 1000
)

// coldJob is one request of the cold-jobs stream.
type coldJob struct {
	kind   jobKind
	req    service.QueryRequest
	repeat int // index of the request this one repeats, or -1
}

// jobStream is the client's request sequence. Fresh requests carry a fresh
// options.seed, so neither the result cache nor single-flight absorbs
// them; repeats copy an earlier fresh request of the same kind.
type jobStream struct {
	r        *rand.Rand
	seedBase uint64
	jobs     []coldJob
}

func newJobStream(seed uint64) *jobStream {
	return &jobStream{r: rngFor(seed, 400), seedBase: seed * 1_000_000}
}

// at returns request i, extending the stream block by block.
func (s *jobStream) at(i int) coldJob {
	for len(s.jobs) <= i {
		kinds := append([]jobKind(nil), jobBlock...)
		s.r.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
		k := 10 + 10*(len(s.jobs)/len(jobBlock)%5)
		budgets := map[jobKind][]int{jobDD: {k}}
		for _, kind := range []jobKind{jobEaSyIM, jobOSIM, jobIMM} {
			budgets[kind] = []int{k, pairedKBudgets - k}
		}
		repeats := append([]jobKind(nil), repeatKinds...)
		for _, kind := range kinds {
			job := coldJob{kind: kind, repeat: -1}
			if j := indexOf(repeats, kind); j >= 0 {
				// The first request of a repeat kind that has an earlier
				// fresh one repeats it.
				if job.repeat = s.lastFresh(kind); job.repeat >= 0 {
					repeats = append(repeats[:j], repeats[j+1:]...)
				}
			}
			if job.repeat >= 0 {
				job.req = s.jobs[job.repeat].req
			} else {
				var k int
				if b := budgets[kind]; len(b) > 0 {
					k, budgets[kind] = b[0], b[1:]
				}
				job.req = s.fresh(kind, k, uint64(len(s.jobs)))
			}
			s.jobs = append(s.jobs, job)
		}
	}
	return s.jobs[i]
}

func indexOf(kinds []jobKind, kind jobKind) int {
	for i, k := range kinds {
		if k == kind {
			return i
		}
	}
	return -1
}

// lastFresh is the index of the latest fresh request of kind, or -1.
func (s *jobStream) lastFresh(kind jobKind) int {
	for i := len(s.jobs) - 1; i >= 0; i-- {
		if s.jobs[i].kind == kind && s.jobs[i].repeat < 0 {
			return i
		}
	}
	return -1
}

// fresh draws a new request of kind and budget k with a never-used
// options.seed.
func (s *jobStream) fresh(kind jobKind, k int, i uint64) service.QueryRequest {
	req := service.QueryRequest{Graph: graphName, Options: service.Options{Seed: s.seedBase + i + 1}}
	switch kind {
	case jobEaSyIM:
		req.Algorithm, req.K = "easyim", k
	case jobOSIM:
		req.Algorithm, req.K, req.Options.Model = "osim", k, "oi-ic"
	case jobIMM:
		req.Algorithm, req.K, req.Options.Model, req.Options.Epsilon = "imm", k, "lt", 0.1
	case jobDD:
		req.Algorithm, req.K = "degree-discount", k
	case jobMC:
		set := make([]int32, mcSeedCount)
		for j := range set {
			set[j] = s.r.Int32N(graphNodes)
		}
		req.Task, req.SeedSets, req.Options.MCRuns = "estimate", [][]int32{set}, mcRuns
	}
	return req
}

// coldEnv is one set-up of a sketch-less replica.
type coldEnv struct {
	g    *holisticim.Graph
	srv  *service.Server
	lb   *loopback
	genS float64
}

func (e *coldEnv) close() {
	e.lb.close()
	e.srv.Close()
}

func newColdEnv(ctx context.Context, seed uint64) (*coldEnv, error) {
	e := &coldEnv{}
	start := time.Now()
	e.g = genGraph(seed)
	e.genS = time.Since(start).Seconds()
	e.srv = service.New(service.Config{Workers: maxConns})
	if err := e.srv.Registry().Add(graphName, e.g, "perfbench"); err != nil {
		return nil, err
	}
	var err error
	if e.lb, err = serveLoopback(e.srv.Handler()); err != nil {
		return nil, err
	}
	// Warm the job path with one cheap job.
	warm := service.QueryRequest{Graph: graphName, Algorithm: "degree-discount", K: 10}
	if _, err := runJob(ctx, http.DefaultClient, e.lb.URL, warm); err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	return e, nil
}

// jobOutcome is what one posted query came back with.
type jobOutcome struct {
	answer *service.QueryAnswer
	cached bool
}

// runJob posts a /v2/query and, when it is queued as a job, reads the
// job's event stream until the final event, which carries the answer.
func runJob(ctx context.Context, c *http.Client, url string, req service.QueryRequest) (jobOutcome, error) {
	body, _ := json.Marshal(req) // plain struct: cannot fail
	code, raw, err := do(ctx, c, http.MethodPost, url+"/v2/query", body)
	if err != nil {
		return jobOutcome{}, err
	}
	var qr service.QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		return jobOutcome{}, fmt.Errorf("decode reply (status %d): %w", code, err)
	}
	switch code {
	case http.StatusOK:
		return jobOutcome{answer: qr.Answer, cached: qr.Cached}, nil
	case http.StatusAccepted:
	default:
		return jobOutcome{}, fmt.Errorf("status %d: %s", code, raw)
	}
	code, raw, err = do(ctx, c, http.MethodGet, url+"/v2/jobs/"+qr.JobID+"/events", nil)
	if err != nil || code != http.StatusOK {
		return jobOutcome{}, fmt.Errorf("events: status %d, err %v", code, err)
	}
	var final service.QueryResponse
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			final = service.QueryResponse{}
			if err := json.Unmarshal(sc.Bytes(), &final); err != nil {
				return jobOutcome{}, fmt.Errorf("decode event: %w", err)
			}
		}
	}
	if final.State != service.StateDone {
		return jobOutcome{}, fmt.Errorf("job %s ended %s: %s", qr.JobID, final.State, final.Error)
	}
	return jobOutcome{answer: final.Answer}, nil
}

// checkJob verifies a cold answer: selections of exactly k distinct
// in-range seeds, estimates with a spread beyond the seeds in [0, n].
func checkJob(job coldJob, ans *service.QueryAnswer) error {
	if job.kind != jobMC {
		return checkSelect(job.req, &service.QueryResponse{Answer: ans}, nil)
	}
	if ans == nil || len(ans.Members) != 1 || ans.Members[0].Estimate == nil {
		return fmt.Errorf("%w: estimate answer has no member", errWrong)
	}
	sp := ans.Members[0].Estimate.Spread
	if !(sp >= 0 && sp <= graphNodes) {
		return fmt.Errorf("%w: estimated spread %v out of range", errWrong, sp)
	}
	return nil
}

// directSpan names the library layer a cold job's direct Run exercises.
var directSpan = map[jobKind]string{
	jobEaSyIM: "core.easyim",
	jobOSIM:   "core.osim",
	jobIMM:    "ris.cold_imm",
	jobMC:     "diffusion.mc_estimate",
	jobDD:     "heuristics.degree_discount",
}

// runColdJobs: one sketch-less replica; a closed-loop client posts an
// async query and streams its events to the final answer.
func runColdJobs(ctx context.Context, cfg runConfig, rep *report) error {
	env, err := setupRepeated(rep, coldSetupRounds, func() (*coldEnv, error) { return newColdEnv(ctx, cfg.seed) }, (*coldEnv).close)
	if err != nil {
		return err
	}
	defer env.close()

	stream := newJobStream(cfg.seed)
	answers := map[int]string{}
	var hits, lookups int
	// The first fresh answer of each kind, compared after the window with
	// a direct Run of the same query.
	firstFresh := map[jobKind]coldAnswer{}
	next := 0 // the client's position in its stream
	client := newClient()
	defer client.CloseIdleConnections()
	op := func(tr *tracer) func(int) (float64, error) {
		return func(int) (float64, error) {
			i := next
			next++
			job := stream.at(i)
			start := time.Now()
			out, err := runJob(ctx, client, env.lb.URL, job.req)
			ms := msSince(start)
			tr.record("http", i, -1, start, time.Now())
			if err != nil {
				return 0, err
			}
			if err := checkJob(job, out.answer); err != nil {
				return 0, err
			}
			lookups++
			if out.cached {
				hits++
			}
			key := canonical(service.QueryResponse{Answer: out.answer})
			answers[i] = key
			if job.repeat >= 0 {
				if prev, ok := answers[job.repeat]; ok && prev != key {
					return 0, fmt.Errorf("%w: repeat of request %d answered differently", errWrong, job.repeat)
				}
			} else if _, ok := firstFresh[job.kind]; !ok {
				firstFresh[job.kind] = coldAnswer{req: job.req, answer: out.answer}
			}
			return ms, nil
		}
	}

	if !cfg.trace {
		before := readRuntime()
		st := closedLoop(cfg.window(), len(jobBlock), op(nil))
		rep.add(st)
		rep.recordLatency(st.latMS, st.rate, coldTail)
		rep.recordRuntime(before, len(st.latMS))
	} else {
		w0, err := queueWait(ctx, client, env.lb.URL)
		if err != nil {
			return err
		}
		tr := &tracer{}
		traceRun(rep, cfg, len(jobBlock), op(nil), op(tr), func() {
			w1, err := queueWait(ctx, client, env.lb.URL)
			if err != nil {
				rep.wrong("%v", err)
			} else if n := w1.count - w0.count; n > 0 {
				rep.layer["service.queue_wait_ms"] = (w1.sum - w0.sum) / n * 1000
			}
			rep.layer["service.cache_lookups"] = float64(lookups)
			rep.layer["service.cache_hit_share"] = float64(hits) / float64(max(lookups, 1))
		})
		if err := coldLayers(ctx, rep, tr, env, client, stream); err != nil {
			rep.wrong("layer replay: %v", err)
		}
		rep.layer["trace.spans"] = float64(len(tr.spans))
		rep.layer["graph.generate_s"] = env.genS
		spanDump(cfg, tr, "cold-jobs")
	}
	// Only repeats can hit the cache, and a repeat served from it only
	// shows the cache returns what it stored; a fresh job against a direct
	// Run of its query shows the job path answers as the library does.
	rep.detail["cache_hits"] = hits
	checkFreshAgainstRun(ctx, rep, env.g, firstFresh)
	return nil
}

// coldAnswer is a served job answer with the request it answered.
type coldAnswer struct {
	req    service.QueryRequest
	answer *service.QueryAnswer
}

// checkFreshAgainstRun compares one fresh job answer of each kind with a
// direct holisticim.Run of the same query.
func checkFreshAgainstRun(ctx context.Context, rep *report, g *holisticim.Graph, fresh map[jobKind]coldAnswer) {
	for _, kind := range []jobKind{jobEaSyIM, jobOSIM, jobIMM, jobMC, jobDD} {
		out, ok := fresh[kind]
		if !ok {
			rep.wrong("no fresh %s job completed in the window", kind)
			continue
		}
		ans, err := holisticim.Run(ctx, g, libQuery(out.req, nil))
		if err != nil {
			rep.wrong("direct %s run: %v", kind, err)
			continue
		}
		if !sameAnswer(out.answer, ans) {
			rep.wrong("the %s job and a direct Run of its query answered differently", kind)
		}
	}
	rep.detail["fresh_checked_against_run"] = len(fresh)
}

// coldLayers replays one fresh request of each kind alone, with nothing
// else running: first as a job over HTTP (the root span), then as a
// direct holisticim.Run (its child, named after the layer that does the
// work). The root's self time is the job's overhead over the library
// call: admission, queueing, the worker hand-off, event streaming and
// JSON.
func coldLayers(ctx context.Context, rep *report, tr *tracer, env *coldEnv, client *http.Client, s *jobStream) error {
	for _, kind := range []jobKind{jobEaSyIM, jobOSIM, jobIMM, jobMC, jobDD} {
		req := s.fresh(kind, 30, uint64(1<<40)+uint64(len(tr.spans)))
		reqID := -len(tr.spans) - 1
		start := time.Now()
		out, err := runJob(ctx, client, env.lb.URL, req)
		root := tr.record("job", reqID, -1, start, time.Now())
		if err != nil {
			return err
		}
		var ans holisticim.Answer
		tr.timed(directSpan[kind], reqID, root, func() { ans, err = holisticim.Run(ctx, env.g, libQuery(req, nil)) })
		if err != nil {
			return err
		}
		if !sameAnswer(out.answer, ans) {
			return fmt.Errorf("%w: the %s job and a direct Run of it answered differently", errWrong, kind)
		}
	}
	self := selfTimes(tr.spans)
	for _, name := range directSpan {
		rep.layer[name+"_ms"] = medianSelfMicros(self, name) / 1000
	}
	rep.layer["service.job_overhead_ms"] = medianSelfMicros(self, "job") / 1000
	return nil
}

// sameAnswer reports whether a served answer has the seeds and spreads
// of a direct Run's.
func sameAnswer(served *service.QueryAnswer, direct holisticim.Answer) bool {
	if served == nil || len(served.Members) != len(direct.Members) {
		return false
	}
	for i, m := range direct.Members {
		s := served.Members[i]
		switch {
		case m.Result != nil:
			if s.Result == nil || fmt.Sprint(s.Result.Seeds) != fmt.Sprint(m.Result.Seeds) {
				return false
			}
		case m.Estimate != nil:
			if s.Estimate == nil || s.Estimate.Spread != m.Estimate.Spread {
				return false
			}
		}
	}
	return true
}

// coldTail is the tail percentile of cold-jobs. Two of every block's ten
// requests are cold imm, the slowest kind, so p80 falls on the edge of
// their band and jumped between ~560 and ~710 ms from run to run, while
// p90 falls inside it. p90 needs 100 jobs per run; the client completes
// 120 to 170 in a 45-s window.
const coldTail = 0.9

// histSum is a histogram's cumulative sum and count from /metrics.
type histSum struct{ sum, count float64 }

// queueWait scrapes the job queue-wait histogram's sum and count.
func queueWait(ctx context.Context, c *http.Client, url string) (histSum, error) {
	code, raw, err := do(ctx, c, http.MethodGet, url+"/metrics", nil)
	if err != nil || code != http.StatusOK {
		return histSum{}, fmt.Errorf("scrape: status %d, err %v", code, err)
	}
	var h histSum
	for _, line := range strings.Split(string(raw), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		switch name {
		case "im_job_queue_wait_seconds_sum":
			h.sum = v
		case "im_job_queue_wait_seconds_count":
			h.count = v
		}
	}
	return h, nil
}
