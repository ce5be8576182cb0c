package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	longtail "longtailrec"
	"longtailrec/internal/core"
	"longtailrec/internal/dataset"
	"longtailrec/internal/entropy"
	"longtailrec/internal/lda"
	"longtailrec/internal/synth"
	"longtailrec/internal/worlds"
)

// cold_walk: one client queries distinct held-out users of the movielens
// world, alternating AT and AC2, against a System built on the §5.2.1
// long-tail training split with the result cache off. Each user, once
// served, changes one of its training ratings and takes the change back:
// in-memory writes (no WAL), the write path the durable workload's WAL sits
// on top of, that leave the graph's content as training had it, so no
// user is served from another user's held-out ratings.
const (
	coldTestRatings = 2000 // held-out long-tail ratings (score ≥ 5)
	coldSetups      = 3    // set-ups per run; setup_s is their median
	coldCheckStride = 16   // one AT/AC2 pair in every 16 served lists is checked against the reference
	compactEvery    = 512  // writes between CompactGraph calls, in every workload
)

type coldEnv struct {
	wp        walkParams
	world     *synth.World
	split     *dataset.HeldOutSplit
	sys       *longtail.System
	model     *lda.Model
	userEnter []float64 // floored topic entropies: AC2's cost of entering each user
}

// servedList is one read's answer, kept for the checks.
type servedList struct {
	user  int
	ac2   bool
	items []core.Scored
}

func newColdEnv(r *run) (*coldEnv, error) {
	env := &coldEnv{}
	_, err := r.timed(spanGenerate, func() (err error) {
		env.world, err = worlds.Generate("movielens", worldSeed)
		return err
	})
	r.op(phaseSetup, err)
	if err != nil {
		return nil, err
	}
	env.split, err = env.world.Data.SplitLongTailTest(rand.New(rand.NewSource(r.seed+17)), coldTestRatings, 5, 0.2)
	r.op(phaseSetup, err)
	if err != nil {
		return nil, err
	}
	cfg := longtail.DefaultConfig()
	cfg.Seed = r.seed
	env.wp = walkParamsOf(cfg)
	_, err = r.timed(spanNewSystem, func() (err error) {
		env.sys, err = longtail.NewSystem(env.split.Train, cfg)
		return err
	})
	r.op(phaseSetup, err)
	if err != nil {
		return nil, err
	}
	_, err = r.timed(spanLDA, func() (err error) {
		env.model, err = env.sys.LDAModel()
		return err
	})
	r.op(phaseSetup, err)
	if err != nil {
		return nil, err
	}
	env.userEnter = env.wp.floorEntropies(entropy.AllTopicBased(env.model))
	// Warm-up: build both recommenders and fill the engines' scratch pools.
	for u := 0; u < 2; u++ {
		for _, algo := range []string{"AT", "AC2"} {
			resp, err := env.sys.Recommend(context.Background(), algo, longtail.Request{User: u, K: listK})
			if err == nil {
				err = checkList(resp.Items, listK, env.atTau(algo == "AC2"), func(i int) bool { return env.split.Train.HasRating(u, i) })
			}
			r.op(phaseWarmup, err)
		}
	}
	return env, nil
}

func runColdWalk(r *run) error {
	var env *coldEnv
	var setups []float64
	for i := 0; i < coldSetups; i++ {
		env = nil // let the previous set-up be collected
		settle()
		t0 := time.Now()
		e, err := newColdEnv(r)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		env = e
	}
	r.measure(setups)
	sys, train := env.sys, env.split.Train

	heldOut := map[int][]dataset.Rating{}
	for _, t := range env.split.Test {
		heldOut[t.User] = append(heldOut[t.User], t)
	}
	users := make([]int, 0, len(heldOut))
	for u := range heldOut {
		users = append(users, u)
	}
	sort.Ints(users)
	rand.New(rand.NewSource(r.seed+29)).Shuffle(len(users), func(i, j int) { users[i], users[j] = users[j], users[i] })

	// Measured phase: each held-out user once, alternating AT and AC2; once
	// its list is served the user changes one of its training ratings and
	// restores it, written in memory (no WAL). In a traced run a sample of
	// reads is replayed stage by stage.
	var rep *replayer
	if r.tr != nil {
		rep = newReplayer(sys.Graph(), env.wp)
	}
	replayed := map[bool]int{}
	var reads, writes latencies
	var served []servedList
	var rewritten []dataset.Rating
	wrng := rand.New(rand.NewSource(r.seed + 31))
	mem0 := readMem()
	start := time.Now()
	for i := 0; i < len(users) && time.Since(start) < r.seconds; i++ {
		u, ac2 := users[i], i%2 == 1
		algo := "AT"
		if ac2 {
			algo = "AC2"
		}
		id := r.tr.Begin(spanRead, -1, int64(i))
		t0 := time.Now()
		resp, err := sys.Recommend(context.Background(), algo, longtail.Request{User: u, K: listK})
		reads.add(time.Since(t0))
		r.tr.End(id, "")
		r.op(phaseMeasured, err)
		if err != nil {
			continue
		}
		served = append(served, servedList{user: u, ac2: ac2, items: resp.Items})
		if rep != nil && replayed[ac2] < replaySamples/2 {
			replayed[ac2]++
			var enter []float64
			if ac2 {
				enter = env.userEnter
			}
			got, err := rep.run(r.tr, int64(i), u, enter)
			if err == nil && !sameList(got, resp.Items) {
				err = fmt.Errorf("user %d: staged replay %v differs from served %v", u, got, resp.Items)
			}
			r.op(phaseCheck, err)
		}
		own := train.UserRatings(u)
		t := own[wrng.Intn(len(own))]
		for _, score := range [2]float64{t.Score + 1, t.Score} {
			id := r.tr.Begin(spanWrite, -1, int64(i))
			t0 := time.Now()
			_, _, err := sys.ApplyRating(t.User, t.Item, score)
			writes.add(time.Since(t0))
			r.tr.End(id, "")
			r.op(phaseMeasured, err)
			r.compactAfter(sys, int64(len(writes)))
		}
		rewritten = append(rewritten, t)
	}
	secs := time.Since(start).Seconds()
	mem := readMem().since(mem0)
	if err := r.setPeakRSS(); err != nil {
		return err
	}
	if len(served) == len(users) {
		r.fail("ran out of distinct held-out users (%d) before the measured phase ended", len(users))
	}
	if err := checkColdWalk(r, env, served, rewritten); err != nil {
		return err
	}

	tail := train.LongTailItems(0.2)
	found, wanted, tailItems, items := 0, 0, 0, 0
	for _, s := range served {
		in := map[int]bool{}
		for _, it := range s.items {
			in[it.Item] = true
			if _, ok := tail[it.Item]; ok {
				tailItems++
			}
			items++
		}
		for _, h := range heldOut[s.user] {
			wanted++
			if in[h.Item] {
				found++
			}
		}
	}
	r.setE2E("reads_per_s", "1/s", float64(len(reads))/secs)
	r.setE2E("read_p50_ms", "ms", median(reads))
	r.setLayer("longtail.read_p95_ms", "ms", quantile(reads, 0.95))
	r.setLayer("longtail.read_p99_ms", "ms", quantile(reads, 0.99))
	r.setE2E("writes_per_s", "1/s", float64(len(writes))/secs)
	r.setLayer("longtail.write_p50_ms", "ms", median(writes))
	r.setLayer("longtail.write_p99_ms", "ms", quantile(writes, 0.99))
	if wanted > 0 && items > 0 {
		r.setLayer("core.recall_at_10", "ratio", float64(found)/float64(wanted))
		r.setE2E("long_tail_share", "ratio", float64(tailItems)/float64(items))
	}
	r.finishLayers(rep, mem, len(reads))
	return nil
}

// checkColdWalk checks every served list's properties; compares a sample
// of the lists, spread over the run, with the reference solvers on a graph
// built from the training ratings and asserts that the user's subgraph spans its whole
// component; and checks that every rewritten rating reads back from the
// System with its training score.
func checkColdWalk(r *run, env *coldEnv, served []servedList, rewritten []dataset.Rating) error {
	train := env.split.Train
	for _, s := range served {
		err := checkList(s.items, listK, env.atTau(s.ac2), func(i int) bool { return train.HasRating(s.user, i) })
		if err != nil {
			err = fmt.Errorf("user %d: %w", s.user, err)
		}
		r.op(phaseCheck, err)
	}
	ref, err := newReference(train, env.userEnter, env.wp)
	if err != nil {
		return err
	}
	for i, s := range served {
		if i%coldCheckStride >= 2 {
			continue
		}
		err := ref.check(s.user, s.ac2, s.items)
		if err == nil {
			if n, size := ref.subgraphLen(s.user), ref.componentSize(s.user); n != size {
				err = fmt.Errorf("user %d: subgraph has %d nodes, component %d", s.user, n, size)
			}
		}
		r.op(phaseCheck, err)
	}
	g := env.sys.Graph()
	for _, t := range rewritten {
		var err error
		if w := g.Weight(g.UserNode(t.User), g.ItemNode(t.Item)); w != t.Score {
			err = fmt.Errorf("rewritten rating (%d,%d) reads %v, want %v", t.User, t.Item, w, t.Score)
		}
		r.op(phaseCheck, err)
	}
	return nil
}

// atTau returns τ for an AT list and 0 for an AC2 one, as checkList takes
// it.
func (env *coldEnv) atTau(ac2 bool) int {
	if ac2 {
		return 0
	}
	return env.wp.tau
}
