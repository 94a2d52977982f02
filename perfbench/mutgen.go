package main

import (
	"math/rand/v2"

	"github.com/holisticim/holisticim"
)

// edgeSet is the benchmark's own copy of the graph's arcs, so mutation
// batches are valid against the live graph's current snapshot: adds name
// absent arcs, removes and reweights name present ones, and no arc is
// touched twice in one batch.
type edgeSet struct {
	n    int32
	arcs []int64         // every present arc, for uniform picks
	pos  map[int64]int32 // arc → index in arcs
}

func arcKey(u, v int32) int64 { return int64(u)<<32 | int64(uint32(v)) }

func arcEnds(a int64) (int32, int32) { return int32(a >> 32), int32(uint32(a)) }

func newEdgeSet(g *holisticim.Graph) *edgeSet {
	s := &edgeSet{n: g.NumNodes(), pos: make(map[int64]int32, g.NumEdges())}
	for u := int32(0); u < s.n; u++ {
		for _, v := range g.OutNeighbors(u) {
			s.insert(arcKey(u, v))
		}
	}
	return s
}

func (s *edgeSet) has(a int64) bool { _, ok := s.pos[a]; return ok }

func (s *edgeSet) insert(a int64) {
	s.pos[a] = int32(len(s.arcs))
	s.arcs = append(s.arcs, a)
}

func (s *edgeSet) remove(a int64) {
	i := s.pos[a]
	last := s.arcs[len(s.arcs)-1]
	s.arcs[i] = last
	s.pos[last] = i
	s.arcs = s.arcs[:len(s.arcs)-1]
	delete(s.pos, a)
}

// randomArc picks a present arc uniformly. Its source is a node drawn in
// proportion to out-degree, its target one drawn in proportion to
// in-degree.
func (s *edgeSet) randomArc(r *rand.Rand) int64 { return s.arcs[r.IntN(len(s.arcs))] }

// batch draws n operations, a third each of adds, removes and
// reweights, with endpoints drawn in proportion to degree, and applies
// them to the set. Every op is valid against the set as it was before
// the batch.
func (s *edgeSet) batch(r *rand.Rand, n int) []holisticim.EdgeOp {
	touched := make(map[int64]bool, n)
	ops := make([]holisticim.EdgeOp, 0, n)
	var added, removed []int64
	for len(ops) < n {
		switch len(ops) % 3 {
		case 0: // add an absent arc between two degree-drawn nodes
			u, _ := arcEnds(s.randomArc(r))
			_, v := arcEnds(s.randomArc(r))
			a := arcKey(u, v)
			if u == v || s.has(a) || touched[a] {
				continue
			}
			touched[a] = true
			added = append(added, a)
			p, phi := graphProb, r.Float64()
			ops = append(ops, holisticim.EdgeOp{Op: holisticim.OpAddEdge, From: u, To: v, P: &p, Phi: &phi})
		case 1: // remove a present arc
			a := s.randomArc(r)
			if touched[a] {
				continue
			}
			touched[a] = true
			removed = append(removed, a)
			u, v := arcEnds(a)
			ops = append(ops, holisticim.EdgeOp{Op: holisticim.OpRemoveEdge, From: u, To: v})
		default: // reweight a present arc
			a := s.randomArc(r)
			if touched[a] {
				continue
			}
			touched[a] = true
			u, v := arcEnds(a)
			p, phi := 0.05+0.1*r.Float64(), r.Float64()
			ops = append(ops, holisticim.EdgeOp{Op: holisticim.OpReweightEdge, From: u, To: v, P: &p, Phi: &phi})
		}
	}
	for _, a := range removed {
		s.remove(a)
	}
	for _, a := range added {
		s.insert(a)
	}
	return ops
}
