package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	longtail "longtailrec"
	"longtailrec/internal/core"
	"longtailrec/internal/synth"
	"longtailrec/internal/wal"
	"longtailrec/internal/worlds"
)

// durable_ingest: two clients write ratings into a System with a WAL
// directory on the checkout's filesystem, each acknowledged only after its
// group-commit fsync, with a cold AT read (cache off) after every
// durWritesPerRead writes. The run ends with a checkpoint, Close, and
// timed reopens from the directory.
const (
	durSetups        = 5
	durClients       = 2
	durWritesPerRead = 9
	durWarmupRounds  = 3
	durReopens       = 3
	durSideAppends   = 200
)

type pair struct{ user, item int }

type durEnv struct {
	wp         walkParams
	world      *synth.World
	cfg        longtail.Config
	sys        *longtail.System
	seqStart   uint64
	writeCount atomic.Int64
	// last holds each client's acknowledged writes: the last score per
	// (user, item). Clients write disjoint users.
	last         [durClients]map[pair]float64
	acked        [durClients]int
	firstLists   [durClients]map[int][]core.Scored
	reads, wrote [durClients]latencies
}

func newDurEnv(r *run, dir string) (*durEnv, error) {
	env := &durEnv{}
	_, err := r.timed(spanGenerate, func() (err error) {
		env.world, err = worlds.Generate("movielens", worldSeed)
		return err
	})
	r.op(phaseSetup, err)
	if err != nil {
		return nil, err
	}
	env.cfg = longtail.DefaultConfig()
	env.cfg.Seed = r.seed
	env.cfg.WALDir = dir
	env.wp = walkParamsOf(env.cfg)
	_, err = r.timed(spanNewSystem, func() (err error) {
		env.sys, err = longtail.NewSystem(env.world.Data, env.cfg)
		return err
	})
	r.op(phaseSetup, err)
	if err != nil {
		return nil, err
	}
	env.seqStart = env.sys.ServingStats().Durability.DurableSeq
	for c := range env.last {
		env.last[c] = map[pair]float64{}
		env.firstLists[c] = map[int][]core.Scored{}
	}
	env.drive(r, phaseWarmup, durWarmupRounds, time.Time{})
	return env, nil
}

// drive runs both clients until each has done rounds write/read rounds
// (rounds > 0) or until the deadline passes. Fixed rounds run one client
// after the other, so every set-up's warm-up does the same work.
func (env *durEnv) drive(r *run, p phase, rounds int, until time.Time) {
	if rounds > 0 {
		for c := 0; c < durClients; c++ {
			env.client(r, p, c, rounds, until)
		}
		return
	}
	runClients(durClients, func(c int) { env.client(r, p, c, rounds, until) })
}

func (env *durEnv) client(r *run, p phase, c, rounds int, until time.Time) {
	rng := rand.New(rand.NewSource(r.seed*1000 + int64(p)*10 + int64(c)))
	d := env.world.Data
	measured := p == phaseMeasured
	for round := 0; rounds == 0 || round < rounds; round++ {
		if rounds == 0 && !time.Now().Before(until) {
			return
		}
		for j := 0; j < durWritesPerRead; j++ {
			// Client c writes only users u ≡ c (mod 2).
			u := 2*rng.Intn(d.NumUsers()/2) + c
			k := pair{u, rng.Intn(d.NumItems())}
			score := float64(1 + rng.Intn(5))
			id := r.tr.Begin(spanWrite, -1, r.newReq())
			t0 := time.Now()
			_, _, err := env.sys.ApplyRating(k.user, k.item, score)
			if measured {
				env.wrote[c].add(time.Since(t0))
			}
			r.tr.End(id, "")
			r.op(p, err)
			if err == nil {
				env.last[c][k] = score
				env.acked[c]++
			}
			r.compactAfter(env.sys, env.writeCount.Add(1))
		}
		// A cold read of one of this client's own users, whose rated set is
		// the corpus plus this client's acknowledged writes.
		u := 2*rng.Intn(d.NumUsers()/2) + c
		id := r.tr.Begin(spanRead, -1, r.newReq())
		t0 := time.Now()
		resp, err := env.sys.Recommend(context.Background(), "AT", longtail.Request{User: u, K: listK})
		if measured {
			env.reads[c].add(time.Since(t0))
		}
		r.tr.End(id, "")
		if err == nil {
			err = checkList(resp.Items, listK, env.wp.tau, func(i int) bool {
				_, wrote := env.last[c][pair{u, i}]
				return wrote || d.HasRating(u, i)
			})
			if err != nil {
				err = fmt.Errorf("user %d: %w", u, err)
			}
		}
		r.op(p, err)
		if err == nil && measured {
			if _, ok := env.firstLists[c][u]; !ok {
				env.firstLists[c][u] = resp.Items
			}
		}
	}
}

func runDurableIngest(r *run) error {
	var env *durEnv
	var dir string
	var setups []float64
	for i := 0; i < durSetups; i++ {
		if env != nil {
			if err := env.sys.Close(); err != nil {
				return err
			}
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			env = nil
		}
		settle()
		var err error
		if dir, err = r.scratchDir(fmt.Sprintf("wal%d", i)); err != nil {
			return err
		}
		t0 := time.Now()
		e, err := newDurEnv(r, dir)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		env = e
	}
	defer os.RemoveAll(dir)
	r.measure(setups)

	seq0 := env.sys.ServingStats().Durability.DurableSeq
	mem0 := readMem()
	start := time.Now()
	env.drive(r, phaseMeasured, 0, start.Add(r.seconds))
	secs := time.Since(start).Seconds()
	mem := readMem().since(mem0)
	seqEnd := env.sys.ServingStats().Durability.DurableSeq
	r.setLayer("wal.records", "count", float64(seqEnd-seq0))
	if err := r.setPeakRSS(); err != nil {
		return err
	}

	var reads, writes latencies
	acked := 0
	for c := 0; c < durClients; c++ {
		reads = append(reads, env.reads[c]...)
		writes = append(writes, env.wrote[c]...)
		acked += env.acked[c]
	}
	r.setE2E("reads_per_s", "1/s", float64(len(reads))/secs)
	r.setE2E("read_p50_ms", "ms", median(reads))
	r.setLayer("longtail.read_p95_ms", "ms", quantile(reads, 0.95))
	r.setLayer("longtail.read_p99_ms", "ms", quantile(reads, 0.99))
	r.setE2E("writes_per_s", "1/s", float64(len(writes))/secs)
	r.setLayer("longtail.write_p50_ms", "ms", median(writes))
	r.setLayer("longtail.write_p99_ms", "ms", quantile(writes, 0.99))
	tail := env.world.Data.LongTailItems(0.2)
	tailItems, items := 0, 0
	for c := range env.firstLists {
		for _, list := range env.firstLists[c] {
			for _, it := range list {
				if _, ok := tail[it.Item]; ok {
					tailItems++
				}
				items++
			}
		}
	}
	if items > 0 {
		r.setE2E("long_tail_share", "ratio", float64(tailItems)/float64(items))
	}

	var err error
	if uint64(acked) != seqEnd-env.seqStart {
		err = fmt.Errorf("%d writes acknowledged, durable sequence advanced %d", acked, seqEnd-env.seqStart)
	}
	r.op(phaseCheck, err)

	var rep *replayer
	if r.tr != nil {
		rep = newReplayer(env.sys.Graph(), env.wp)
		users := rand.New(rand.NewSource(r.seed + 41)).Perm(env.world.Data.NumUsers())[:replaySamples]
		for i, u := range users {
			got, err := rep.run(r.tr, int64(i), u, nil)
			if err == nil {
				var want longtail.Response
				if want, err = env.sys.Recommend(context.Background(), "AT", longtail.Request{User: u, K: listK}); err == nil {
					err = sameItemsScores(got, want.Items)
				}
			}
			r.op(phaseCheck, err)
		}
	}

	_, err = r.timed(spanCheckpoint, env.sys.SnapshotRefresh)
	r.op(phaseCheck, err)
	if err := env.sys.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	if r.tr != nil {
		if err := sideLog(r, filepath.Join(dir, "side.log")); err != nil {
			return err
		}
	}

	var recovers []float64
	for i := 0; i < durReopens; i++ {
		var sys *longtail.System
		d, err := r.timed(spanRecover, func() (err error) {
			sys, err = longtail.NewSystem(env.world.Data, env.cfg)
			return err
		})
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		recovers = append(recovers, d.Seconds())
		g := sys.Graph()
		for c := range env.last {
			for k, score := range env.last[c] {
				var err error
				if w := g.Weight(g.UserNode(k.user), g.ItemNode(k.item)); w != score {
					err = fmt.Errorf("after reopen, acknowledged rating (%d,%d) reads %v, want %v", k.user, k.item, w, score)
				}
				r.op(phaseCheck, err)
			}
		}
		if err := sys.Close(); err != nil {
			return fmt.Errorf("close after reopen: %w", err)
		}
	}
	fmt.Printf("durable_ingest: %d reads, %d writes, recover %.3fs (median of %d)\n", len(reads), len(writes), median(recovers), len(recovers))
	r.finishLayers(rep, mem, len(reads))
	return nil
}

// sideLog appends single-record batches to a log of its own in the WAL's
// directory and times each Append (one write plus one fsync).
func sideLog(r *run, path string) error {
	l, err := wal.Open(path)
	if err != nil {
		return err
	}
	for i := 0; i < durSideAppends; i++ {
		id := r.tr.Begin(spanWALAppend, -1, int64(i))
		err := l.Append([]wal.Record{{Op: wal.OpUpsert, User: i, Item: i, Score: 1}})
		r.tr.End(id, "")
		r.op(phaseCheck, err)
	}
	if err := l.Close(); err != nil {
		return err
	}
	return os.Remove(path)
}
