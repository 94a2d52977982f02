package main

import (
	"context"
	"fmt"
	"time"

	"github.com/holisticim/holisticim"
)

// Settings of the churn probe on routed-serve's traced run: ten generated
// batches of 50 edge ops (adds, removes and reweights).
const (
	churnProbeBatches = 10
	churnBatchOps     = 50
)

func ocSketchOptions(seed uint64) holisticim.SketchOptions {
	return holisticim.SketchOptions{Model: holisticim.ModelOC, Epsilon: ocSketchEpsilon, Seed: sketchSeed(seed), BuildK: sketchBuildK}
}

// churnLayers applies generated batches to a live graph over g and
// repairs idx, an OC sketch over g built with ocSketchOptions(seed) that
// nothing else uses, timing live.Apply, Sketch.Repair and the first
// select after each repair without a server. It then checks the end
// state: every batch advanced the version by exactly one, the sketch
// reached the last version with no stale sets, and its k=maxK answer
// equals that of a sketch sampled from scratch on the final graph with
// the same seed and set count.
func churnLayers(ctx context.Context, rep *report, g *holisticim.Graph, idx *holisticim.Sketch, seed uint64) error {
	lv := holisticim.WrapLive(g, holisticim.LiveOptions{})
	edges := newEdgeSet(g)
	r := rngFor(seed, 500)
	var applyMS, repairMS, reselectMS []float64
	var resampled, changed int
	for b := 1; b <= churnProbeBatches; b++ {
		start := time.Now()
		res, err := lv.Apply(ctx, edges.batch(r, churnBatchOps), holisticim.ApplyOptions{RebalanceLT: true})
		if err != nil {
			return fmt.Errorf("batch %d: apply: %w", b, err)
		}
		applyMS = append(applyMS, msSince(start))
		if res.Version != uint64(b) {
			return fmt.Errorf("%w: batch %d produced version %d", errWrong, b, res.Version)
		}
		start = time.Now()
		st, err := idx.Repair(ctx, lv.Graph(), res.Dirty, res.Version, holisticim.SketchRepairOptions{})
		if err != nil {
			return fmt.Errorf("batch %d: repair: %w", b, err)
		}
		repairMS = append(repairMS, msSince(start))
		resampled += st.Resampled
		changed += st.Changed
		start = time.Now()
		if _, err := idx.Select(ctx, maxK); err != nil {
			return fmt.Errorf("batch %d: reselect: %w", b, err)
		}
		reselectMS = append(reselectMS, msSince(start))
	}
	rep.layer["live.apply_ms"] = median(applyMS)
	rep.layer["sketch.repair_ms"] = median(repairMS)
	rep.layer["sketch.reselect_ms"] = median(reselectMS)
	rep.layer["sketch.repair_resampled"] = float64(resampled) / churnProbeBatches
	rep.layer["sketch.repair_changed_share"] = float64(changed) / float64(max(resampled, 1))

	if v, stale := idx.GraphVersion(), idx.StaleSets(); v != churnProbeBatches || stale != 0 {
		return fmt.Errorf("%w: repaired sketch at version %d with %d stale sets, want version %d and none stale", errWrong, v, stale, churnProbeBatches)
	}
	// Cap the from-scratch sample at the repaired set count. A smaller ε
	// makes its θ bound exceed that count, so the cap is what binds and
	// both samples hold sets 0..count-1 of the same seeded streams.
	opts := ocSketchOptions(seed)
	opts.Epsilon /= 2
	opts.MaxSets = idx.Len()
	ref, err := holisticim.BuildSketch(ctx, lv.Graph(), opts)
	if err != nil {
		return fmt.Errorf("rebuild: %w", err)
	}
	if ref.Len() != idx.Len() {
		return fmt.Errorf("%w: rebuilt sketch holds %d sets, the repaired one %d", errWrong, ref.Len(), idx.Len())
	}
	want, err := ref.Select(ctx, maxK)
	if err != nil {
		return fmt.Errorf("rebuilt select: %w", err)
	}
	got, err := idx.Select(ctx, maxK)
	if err != nil {
		return fmt.Errorf("repaired select: %w", err)
	}
	if fmt.Sprint(got.Seeds) != fmt.Sprint(want.Seeds) {
		return fmt.Errorf("%w: the repaired sketch's k=%d answer differs from the rebuilt one's", errWrong, maxK)
	}
	return nil
}
