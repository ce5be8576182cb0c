package main

import (
	"fmt"
	"math"

	longtail "longtailrec"
	"longtailrec/internal/core"
	"longtailrec/internal/dataset"
	"longtailrec/internal/graph"
	"longtailrec/internal/markov"
	"longtailrec/internal/topk"
)

const (
	listK         = 10
	scoreRelTol   = 1e-9
	replaySamples = 20
)

// walkParams are the Algorithm 1 parameters a System was built with: µ
// (subgraph item budget), τ (truncated sweeps), C (cost of entering an
// item) and the entropy floor of AC2's user costs.
type walkParams struct {
	mu, tau      int
	userCost     float64
	entropyFloor float64
}

func walkParamsOf(cfg longtail.Config) walkParams {
	return walkParams{
		mu:           cfg.Walk.MaxSubgraphItems,
		tau:          cfg.Walk.Iterations,
		userCost:     cfg.UserCost,
		entropyFloor: cfg.EntropyFloor,
	}
}

// floorEntropies raises every entropy to the floor, as the AC2 engine does.
func (wp walkParams) floorEntropies(ent []float64) []float64 {
	out := make([]float64, len(ent))
	for i, e := range ent {
		out[i] = math.Max(e, wp.entropyFloor)
	}
	return out
}

// replayer re-runs Algorithm 1 stage by stage through the layers' public
// functions — extraction, chain set-up, the τ fused sweeps, top-k — with a
// span around each stage. Not safe for concurrent use.
type replayer struct {
	wp    walkParams
	g     *graph.Bipartite
	ext   *graph.SubgraphExtractor
	chain markov.Chain
	scr   markov.ChainScratch
	nodes []float64 // subgraph node counts seen
	nnz   []float64 // subgraph nonzero counts seen
}

func newReplayer(g *graph.Bipartite, wp walkParams) *replayer {
	return &replayer{wp: wp, g: g, ext: graph.NewSubgraphExtractor(g)}
}

// run replays one query for user u. userEnter is nil for AT and the floored
// topic entropies for AC2.
func (p *replayer) run(tr *Tracer, req int64, u int, userEnter []float64) ([]core.Scored, error) {
	root := tr.Begin("replay", -1, req)
	defer tr.End(root, "")
	g := p.g
	userNode := g.UserNode(u)
	seeds, _ := g.Neighbors(userNode)
	if len(seeds) == 0 {
		return nil, fmt.Errorf("replay: user %d has no ratings", u)
	}

	id := tr.Begin("graph.extract", root, req)
	sg, err := p.ext.Extract(seeds, p.wp.mu)
	tr.End(id, "")
	if err != nil {
		return nil, err
	}
	n := sg.Len()
	p.nodes = append(p.nodes, float64(n))
	p.nnz = append(p.nnz, float64(sg.Adjacency().NNZ()))

	id = tr.Begin("markov.chain_reset", root, req)
	err = p.chain.Reset(sg.Adjacency(), sg.Degrees())
	p.scr.Resize(n)
	for l := range seeds {
		p.scr.Mask[l] = true
	}
	var enter []float64
	if userEnter != nil {
		enter = p.scr.Enter
		for l := 0; l < n; l++ {
			orig := sg.OriginalNode(l)
			if g.IsUserNode(orig) {
				enter[l] = userEnter[g.UserIndex(orig)]
			} else {
				enter[l] = p.wp.userCost
			}
		}
	}
	tr.End(id, "")
	if err != nil {
		return nil, err
	}

	id = tr.Begin("markov.sweeps", root, req)
	times, err := p.chain.AbsorbingCostFused(&p.scr, enter, p.wp.tau)
	tr.End(id, "")
	if err != nil {
		return nil, err
	}

	id = tr.Begin("core.topk", root, req)
	rated := make(map[int]bool, len(seeds))
	for _, v := range seeds {
		rated[g.ItemIndex(v)] = true
	}
	sel := topk.NewSelector(listK)
	for l, t := range times {
		orig := sg.OriginalNode(l)
		if !g.IsItemNode(orig) || math.IsInf(t, 1) || math.IsNaN(t) {
			continue
		}
		if item := g.ItemIndex(orig); !rated[item] {
			sel.Offer(item, -t)
		}
	}
	items := sel.Take()
	tr.End(id, "")
	out := make([]core.Scored, len(items))
	for i, it := range items {
		out[i] = core.Scored{Item: it.ID, Score: it.Score}
	}
	return out, nil
}

// sameList reports whether two lists hold the same items in the same order
// with bit-identical scores.
func sameList(a, b []core.Scored) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// reference computes walk scores on a graph built from the training
// ratings with the allocating solvers of internal/markov — apart from the
// pooled extractor and the fused sweep kernel the System serves with.
// cold_walk's writes leave the graph's content as training had it at every
// read, so one reference graph stands for the graph each list was served
// from.
type reference struct {
	wp       walkParams
	data     *dataset.Dataset
	g        *graph.Bipartite
	chain    *markov.Chain
	comp     []int
	compSize []int
	acStep   []float64 // AC2 per-state step costs
	ext      *graph.SubgraphExtractor
}

// newReference builds the chain, the components and the AC2 step costs
// (entering a user costs its floored topic entropy userEnter, an item C).
func newReference(d *dataset.Dataset, userEnter []float64, wp walkParams) (*reference, error) {
	g := d.Graph()
	chain, err := markov.NewChain(g.Adjacency())
	if err != nil {
		return nil, err
	}
	comp, count := g.ConnectedComponents()
	size := make([]int, count)
	for _, c := range comp {
		size[c]++
	}
	enter := make([]float64, g.NumNodes())
	for v := range enter {
		if g.IsUserNode(v) {
			enter[v] = userEnter[g.UserIndex(v)]
		} else {
			enter[v] = wp.userCost
		}
	}
	return &reference{
		wp: wp, data: d, g: g, chain: chain, comp: comp, compSize: size,
		acStep: chain.StepCosts(enter), ext: graph.NewSubgraphExtractor(g),
	}, nil
}

// check compares a served list for user u with the reference: every served
// score must match, and no unserved item of the user's component the user
// had not rated in training may beat the last served one.
func (ref *reference) check(u int, ac2 bool, items []core.Scored) error {
	absorbing, _ := ref.g.Neighbors(ref.g.UserNode(u))
	var vals []float64
	var err error
	if ac2 {
		vals, err = ref.chain.AbsorbingCostTruncated(absorbing, ref.acStep, ref.wp.tau)
	} else {
		vals, err = ref.chain.AbsorbingTimeTruncated(absorbing, ref.wp.tau)
	}
	if err != nil {
		return err
	}
	served := make(map[int]bool, len(items))
	last := math.Inf(1)
	for _, it := range items {
		want := -vals[ref.g.ItemNode(it.Item)]
		if relDiff(it.Score, want) > scoreRelTol {
			return fmt.Errorf("user %d item %d: served score %.17g, reference %.17g", u, it.Item, it.Score, want)
		}
		served[it.Item] = true
		last = math.Min(last, it.Score)
	}
	uc := ref.comp[ref.g.UserNode(u)]
	for i := 0; i < ref.g.NumItems(); i++ {
		v := ref.g.ItemNode(i)
		if served[i] || ref.comp[v] != uc || ref.data.HasRating(u, i) {
			continue
		}
		if s := -vals[v]; s > last && relDiff(s, last) > scoreRelTol {
			return fmt.Errorf("user %d: unserved item %d scores %.17g above the last served %.17g", u, i, s, last)
		}
	}
	return nil
}

// subgraphLen returns the node count of the Algorithm 1 subgraph (µ items)
// around user u's rated items in the reference graph.
func (ref *reference) subgraphLen(u int) int {
	seeds, _ := ref.g.Neighbors(ref.g.UserNode(u))
	sg, err := ref.ext.Extract(seeds, ref.wp.mu)
	if err != nil {
		return -1
	}
	return sg.Len()
}

// componentSize returns the node count of user u's connected component.
func (ref *reference) componentSize(u int) int {
	return ref.compSize[ref.comp[ref.g.UserNode(u)]]
}

// checkList asserts the properties every served list must have: k distinct
// items, none of them rated (rated reports the user's rated items at the
// time of the read), scores non-increasing, and for AT (atTau > 0)
// 2 ≤ −score ≤ τ = atTau.
func checkList(items []core.Scored, k, atTau int, rated func(item int) bool) error {
	if len(items) != k {
		return fmt.Errorf("%d items, want %d", len(items), k)
	}
	seen := make(map[int]bool, k)
	for i, it := range items {
		if seen[it.Item] {
			return fmt.Errorf("item %d listed twice", it.Item)
		}
		seen[it.Item] = true
		if rated(it.Item) {
			return fmt.Errorf("item %d already rated", it.Item)
		}
		if i > 0 && it.Score > items[i-1].Score {
			return fmt.Errorf("scores increase at position %d", i)
		}
		if atTau > 0 && (-it.Score < 2-scoreRelTol || -it.Score > float64(atTau)+scoreRelTol) {
			return fmt.Errorf("AT score %v outside [-%d, -2]", it.Score, atTau)
		}
	}
	return nil
}
