package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	longtail "longtailrec"
	"longtailrec/internal/core"
	"longtailrec/internal/dataset"
	"longtailrec/internal/server"
	"longtailrec/internal/synth"
	"longtailrec/internal/worlds"
)

// hot_mix: two keep-alive clients drive internal/server on loopback over
// the clustered world (islands with no edges between them) with the result
// cache on: zipf-skewed AT reads, and after every hotReadsPerWrite reads
// one user rates hotWritesPerBurst items of its own island. A burst costs
// the cache about what one write does (the island's entries are already
// stale after the first), so writes are frequent enough for a write p99
// while the hit ratio stays near 0.8, well away from one half, where the
// read median would jump between the hit and the miss latency.
const (
	hotSetups         = 5
	hotClients        = 2
	hotCacheSize      = 4096 // holds every user: entries leave only by invalidation
	hotZipfS          = 1.6
	hotReadsPerWrite  = 48
	hotWritesPerBurst = 4
	hotWarmupUsers    = 100 // hottest users whose lists the warm-up caches
	hotCheckUsers     = 40
	hotProbeReads     = 200
	hotProbeWrites    = 100
)

type hotEnv struct {
	wp           walkParams
	world        *synth.World
	sys          *longtail.System
	hs           *http.Server
	served       chan error // Serve's return value
	base         string
	clients      [hotClients]*http.Client
	islandUsers  int
	islandItems  int
	hot          []int // zipf rank → user id
	writeCount   atomic.Int64
	acked        [hotClients][]dataset.Rating // acknowledged writes, in order
	firstLists   [hotClients]map[int][]core.Scored
	reads, wrote [hotClients]latencies
}

func newHotEnv(r *run) (*hotEnv, error) {
	env := &hotEnv{}
	_, err := r.timed(spanGenerate, func() (err error) {
		env.world, err = worlds.Generate("clustered", worldSeed)
		return err
	})
	r.op(phaseSetup, err)
	if err != nil {
		return nil, err
	}
	wc := env.world.Config
	env.islandUsers, env.islandItems = wc.NumUsers/wc.Clusters, wc.NumItems/wc.Clusters
	cfg := longtail.ServingConfig(hotCacheSize, 0)
	cfg.Seed = r.seed
	env.wp = walkParamsOf(cfg)
	_, err = r.timed(spanNewSystem, func() (err error) {
		env.sys, err = longtail.NewSystem(env.world.Data, cfg)
		return err
	})
	r.op(phaseSetup, err)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(env.sys, server.Options{DefaultAlgorithm: "AT", Logger: log.New(io.Discard, "", 0)})
	r.op(phaseSetup, err)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	r.op(phaseSetup, err)
	if err != nil {
		return nil, err
	}
	env.base = "http://" + ln.Addr().String()
	env.hs = &http.Server{Handler: srv.Handler()}
	env.served = make(chan error, 1)
	go func() { env.served <- env.hs.Serve(ln) }()
	for c := range env.clients {
		env.clients[c] = &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
			Timeout:   30 * time.Second,
		}
	}
	env.hot = rand.New(rand.NewSource(r.seed + 31)).Perm(env.world.Data.NumUsers())
	env.warm(r)
	return env, nil
}

// close stops the server and waits for it to exit.
func (env *hotEnv) close() error {
	for _, c := range env.clients {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := env.hs.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-env.served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// warm fills the cache with the hotWarmupUsers hottest users' lists on
// client 0 (all misses), reads them again on client 1 (hits) and has each
// client write one burst: the same work in every set-up, whatever the seed
// and the scheduling.
func (env *hotEnv) warm(r *run) {
	for c := 0; c < hotClients; c++ {
		for _, u := range env.hot[:hotWarmupUsers] {
			_, err := env.read(r, c, u, false)
			r.op(phaseWarmup, err)
		}
	}
	for c := 0; c < hotClients; c++ {
		env.burst(r, phaseWarmup, c, rand.New(rand.NewSource(r.seed*1000+int64(phaseWarmup)*10+int64(c))))
	}
}

// drive runs both clients of the measured phase until the deadline passes.
func (env *hotEnv) drive(r *run, until time.Time) {
	runClients(hotClients, func(c int) { env.client(r, c, until) })
}

func (env *hotEnv) client(r *run, c int, until time.Time) {
	rng := rand.New(rand.NewSource(r.seed*1000 + int64(phaseMeasured)*10 + int64(c)))
	zipf := rand.NewZipf(rng, hotZipfS, 1, uint64(len(env.hot)-1))
	env.firstLists[c] = map[int][]core.Scored{}
	for time.Now().Before(until) {
		for j := 0; j < hotReadsPerWrite; j++ {
			u := env.hot[zipf.Uint64()]
			items, err := env.read(r, c, u, true)
			r.op(phaseMeasured, err)
			if _, ok := env.firstLists[c][u]; err == nil && !ok {
				env.firstLists[c][u] = items
			}
		}
		env.burst(r, phaseMeasured, c, rng)
	}
}

// burst has one user rate hotWritesPerBurst items of its own island on
// client c. Writes touch only this client's users (u ≡ c mod 2), so the
// final graph does not depend on how the clients interleave.
func (env *hotEnv) burst(r *run, p phase, c int, rng *rand.Rand) {
	u := 2*rng.Intn(env.world.Data.NumUsers()/2) + c
	for b := 0; b < hotWritesPerBurst; b++ {
		item := u/env.islandUsers*env.islandItems + rng.Intn(env.islandItems)
		rt := dataset.Rating{User: u, Item: item, Score: float64(1 + rng.Intn(5))}
		err := env.write(r, c, rt, p == phaseMeasured)
		r.op(p, err)
		if err == nil {
			env.acked[c] = append(env.acked[c], rt)
		}
		r.compactAfter(env.sys, env.writeCount.Add(1))
	}
}

// read fetches user u's AT list over HTTP and checks it: status 200, ten
// distinct items, scores non-increasing, every item in u's own island.
func (env *hotEnv) read(r *run, c, u int, record bool) ([]core.Scored, error) {
	id := r.tr.Begin(spanRead, -1, r.newReq())
	t0 := time.Now()
	body, hit, err := env.getList(c, u)
	d := time.Since(t0)
	attr := "miss"
	if hit {
		attr = "hit"
	}
	r.tr.End(id, attr)
	if record {
		env.reads[c].add(d)
	}
	if err != nil {
		return nil, err
	}
	island := u / env.islandUsers
	for _, it := range body {
		if it.Item/env.islandItems != island {
			return nil, fmt.Errorf("user %d (island %d) was recommended item %d of island %d", u, island, it.Item, it.Item/env.islandItems)
		}
	}
	err = checkList(body, listK, env.wp.tau, func(int) bool { return false })
	if err != nil {
		return nil, fmt.Errorf("user %d: %w", u, err)
	}
	return body, nil
}

// getList issues GET /v1/recommend for user u on client c.
func (env *hotEnv) getList(c, u int) ([]core.Scored, bool, error) {
	resp, err := env.clients[c].Get(fmt.Sprintf("%s/v1/recommend?user=%d&k=%d&algo=AT", env.base, u, listK))
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, false, fmt.Errorf("GET recommend user %d: status %d", u, resp.StatusCode)
	}
	var body server.RecommendResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, false, fmt.Errorf("GET recommend user %d: %w", u, err)
	}
	items := make([]core.Scored, len(body.Items))
	for i, it := range body.Items {
		items[i] = core.Scored{Item: it.Item, Score: it.Score}
	}
	return items, body.CacheHit, nil
}

// write posts one rating on client c; 200 and 201 acknowledge it.
func (env *hotEnv) write(r *run, c int, rt dataset.Rating, record bool) error {
	payload, err := json.Marshal(server.RatingRequest{User: rt.User, Item: rt.Item, Score: rt.Score})
	if err != nil {
		return err
	}
	id := r.tr.Begin(spanWrite, -1, r.newReq())
	t0 := time.Now()
	resp, err := env.clients[c].Post(env.base+"/v1/ratings", "application/json", bytes.NewReader(payload))
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
			err = fmt.Errorf("POST rating %+v: status %d", rt, resp.StatusCode)
		}
	}
	d := time.Since(t0)
	r.tr.End(id, "")
	if record {
		env.wrote[c].add(d)
	}
	return err
}

func runHotMix(r *run) error {
	var env *hotEnv
	var setups []float64
	for i := 0; i < hotSetups; i++ {
		if env != nil {
			if err := env.close(); err != nil {
				return err
			}
			env = nil
		}
		settle()
		t0 := time.Now()
		e, err := newHotEnv(r)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		env = e
	}
	r.measure(setups)
	defer env.close()

	before := env.sys.ServingStats().Cache
	mem0 := readMem()
	start := time.Now()
	env.drive(r, start.Add(r.seconds))
	secs := time.Since(start).Seconds()
	mem := readMem().since(mem0)
	after := env.sys.ServingStats().Cache
	r.setCacheLayers(before, after)
	if err := r.setPeakRSS(); err != nil {
		return err
	}

	var reads, writes latencies
	for c := 0; c < hotClients; c++ {
		reads = append(reads, env.reads[c]...)
		writes = append(writes, env.wrote[c]...)
	}
	r.setE2E("reads_per_s", "1/s", float64(len(reads))/secs)
	r.setE2E("read_p50_ms", "ms", median(reads))
	r.setLayer("longtail.read_p95_ms", "ms", quantile(reads, 0.95))
	r.setLayer("longtail.read_p99_ms", "ms", quantile(reads, 0.99))
	r.setE2E("writes_per_s", "1/s", float64(len(writes))/secs)
	r.setLayer("longtail.write_p50_ms", "ms", median(writes))
	r.setLayer("longtail.write_p99_ms", "ms", quantile(writes, 0.99))
	hits, lookups := float64(after.Hits-before.Hits), float64(after.Hits-before.Hits+after.Misses-before.Misses+after.Shared-before.Shared)
	fmt.Printf("hot_mix: %d reads, %d writes, cache hit ratio %.3f\n", len(reads), len(writes), hits/lookups)

	tail := env.world.Data.LongTailItems(0.2)
	tailItems, items := 0, 0
	seen := map[int]bool{}
	for c := 0; c < hotClients; c++ {
		for u, list := range env.firstLists[c] {
			if seen[u] {
				continue
			}
			seen[u] = true
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

	if err := checkHotMix(r, env); err != nil {
		return err
	}
	var rep *replayer
	if r.tr != nil {
		rep = newReplayer(env.sys.Graph(), env.wp)
		probeServing(r, env, rep)
	}
	r.finishLayers(rep, mem, len(reads))
	return nil
}

// checkHotMix re-queries a sample of users over HTTP with no traffic
// running and compares each answer with a cache-off System built from the
// same world plus the same acknowledged writes.
func checkHotMix(r *run, env *hotEnv) error {
	cfg := longtail.DefaultConfig()
	cfg.Seed = r.seed
	cfg.AutoGrow = true
	ref, err := longtail.NewSystem(env.world.Data, cfg)
	if err != nil {
		return fmt.Errorf("reference system: %w", err)
	}
	for c := 0; c < hotClients; c++ {
		for _, rt := range env.acked[c] {
			_, _, err := ref.ApplyRating(rt.User, rt.Item, rt.Score)
			r.op(phaseCheck, err)
		}
	}
	rng := rand.New(rand.NewSource(r.seed + 37))
	sample := append([]int(nil), env.hot[:hotCheckUsers/2]...)
	for len(sample) < hotCheckUsers {
		sample = append(sample, rng.Intn(env.world.Data.NumUsers()))
	}
	for _, u := range sample {
		got, _, err := env.getList(0, u)
		if err == nil {
			var want longtail.Response
			if want, err = ref.Recommend(context.Background(), "AT", longtail.Request{User: u, K: listK}); err == nil {
				err = sameItemsScores(got, want.Items)
			}
		}
		if err != nil {
			err = fmt.Errorf("user %d after the run: %w", u, err)
		}
		r.op(phaseCheck, err)
	}
	return nil
}

// sameItemsScores reports whether two lists hold the same items with
// scores equal within scoreRelTol.
func sameItemsScores(got, want []core.Scored) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d items, want %d", len(got), len(want))
	}
	ws := make(map[int]float64, len(want))
	for _, it := range want {
		ws[it.Item] = it.Score
	}
	for _, it := range got {
		s, ok := ws[it.Item]
		if !ok {
			return fmt.Errorf("item %d not in the reference list %v", it.Item, want)
		}
		if relDiff(it.Score, s) > scoreRelTol {
			return fmt.Errorf("item %d scores %.17g, reference %.17g", it.Item, it.Score, s)
		}
	}
	return nil
}

// probeServing runs, with no other traffic, the traced-only probes of
// hot_mix: the staged replay of a sample of hot users' AT queries (checked
// against the served answer), and the same read and write sequences first
// in-process and then over loopback HTTP, whose latency difference is the
// serving tier's overhead.
func probeServing(r *run, env *hotEnv, rep *replayer) {
	ctx := context.Background()
	for i, u := range env.hot[:replaySamples] {
		got, err := rep.run(r.tr, int64(i), u, nil)
		if err == nil {
			var want longtail.Response
			if want, err = env.sys.Recommend(ctx, "AT", longtail.Request{User: u, K: listK}); err == nil {
				err = sameItemsScores(got, want.Items)
			}
		}
		r.op(phaseCheck, err)
	}
	users := env.hot[:hotProbeReads/10]
	for i := 0; i < hotProbeReads; i++ {
		u := users[i%len(users)]
		id := r.tr.Begin(spanInproc, -1, int64(i))
		_, err := env.sys.Recommend(ctx, "AT", longtail.Request{User: u, K: listK})
		r.tr.End(id, "")
		r.op(phaseCheck, err)
	}
	for i := 0; i < hotProbeReads; i++ {
		u := users[i%len(users)]
		id := r.tr.Begin(spanHTTP, -1, int64(i))
		_, _, err := env.getList(0, u)
		r.tr.End(id, "")
		r.op(phaseCheck, err)
	}
	// Re-rates of acknowledged writes with their own scores leave the
	// graph's content as it was.
	acked := env.acked[0]
	if len(acked) > hotProbeWrites {
		acked = acked[len(acked)-hotProbeWrites:]
	}
	for i, rt := range acked {
		id := r.tr.Begin(spanInprocRate, -1, int64(i))
		_, _, err := env.sys.ApplyRating(rt.User, rt.Item, rt.Score)
		r.tr.End(id, "")
		r.op(phaseCheck, err)
	}
	for i, rt := range acked {
		id := r.tr.Begin(spanHTTPRate, -1, int64(i))
		err := env.write(r, 0, rt, false)
		r.tr.End(id, "")
		r.op(phaseCheck, err)
	}
}
