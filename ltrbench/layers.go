package main

import "longtailrec/internal/cache"

// layerMetrics lists every per-layer metric, in the order BENCHMARK.json
// names them. A traced run reports all of them; a layer the workload
// bypasses reads 0 (README.md maps which workload exercises which).
var layerMetrics = []struct{ name, unit string }{
	{"worlds.generate_s", "s"},
	{"lda.train_s", "s"},
	{"longtail.new_system_s", "s"},
	{"graph.extract_ms.p50", "ms"},
	{"graph.extract_ms.p95", "ms"},
	{"graph.subgraph_nodes", "count"},
	{"graph.subgraph_nnz", "count"},
	{"graph.compact_ms.p50", "ms"},
	{"markov.chain_reset_ms.p50", "ms"},
	{"markov.sweeps_ms.p50", "ms"},
	{"markov.sweeps_ms.p95", "ms"},
	{"core.topk_ms.p50", "ms"},
	{"core.recall_at_10", "ratio"},
	{"longtail.read_p95_ms", "ms"},
	{"longtail.read_p99_ms", "ms"},
	{"longtail.write_p50_ms", "ms"},
	{"longtail.write_p99_ms", "ms"},
	{"longtail.alloc_kb_per_read", "KB"},
	{"longtail.gc_pause_ms", "ms"},
	{"cache.hit_ratio", "ratio"},
	{"cache.hit_ms.p50", "ms"},
	{"cache.hit_ms.p99", "ms"},
	{"cache.miss_ms.p50", "ms"},
	{"cache.miss_ms.p99", "ms"},
	{"cache.fingerprint_hits", "count"},
	{"cache.fingerprint_rejects", "count"},
	{"cache.journal_overflows", "count"},
	{"cache.shared", "count"},
	{"server.recommend_overhead_ms.p50", "ms"},
	{"server.rating_overhead_ms.p50", "ms"},
	{"wal.fsync_ms.p50", "ms"},
	{"wal.fsync_ms.p99", "ms"},
	{"wal.records", "count"},
	{"persist.checkpoint_ms", "ms"},
	{"persist.recover_s", "s"},
}

// Span names whose durations feed the per-layer metrics.
const (
	spanGenerate   = "worlds.generate"
	spanLDA        = "lda.train"
	spanNewSystem  = "longtail.new_system"
	spanCompact    = "graph.compact"
	spanRead       = "read"  // attr "hit" or "miss" when served through the cache
	spanWrite      = "write" // one acknowledged rating write
	spanInproc     = "server.inproc.recommend"
	spanHTTP       = "server.http.recommend"
	spanInprocRate = "server.inproc.rating"
	spanHTTPRate   = "server.http.rating"
	spanWALAppend  = "wal.append"
	spanCheckpoint = "persist.checkpoint"
	spanRecover    = "persist.recover"
)

// finishLayers derives the span-based per-layer metrics and fills every
// metric the workload did not set with 0. rep may be nil.
func (r *run) finishLayers(rep *replayer, alloc memSnapshot, reads int) {
	if r.tr == nil {
		return
	}
	t := r.tr
	sec := func(name string) float64 { return median(t.Durations(name, "")) / 1000 }
	r.setLayer("worlds.generate_s", "s", sec(spanGenerate))
	r.setLayer("lda.train_s", "s", sec(spanLDA))
	r.setLayer("longtail.new_system_s", "s", sec(spanNewSystem))
	r.setLayer("graph.extract_ms.p50", "ms", median(t.Durations("graph.extract", "")))
	r.setLayer("graph.extract_ms.p95", "ms", quantile(t.Durations("graph.extract", ""), 0.95))
	if rep != nil {
		r.setLayer("graph.subgraph_nodes", "count", median(rep.nodes))
		r.setLayer("graph.subgraph_nnz", "count", median(rep.nnz))
	}
	r.setLayer("graph.compact_ms.p50", "ms", median(t.Durations(spanCompact, "")))
	r.setLayer("markov.chain_reset_ms.p50", "ms", median(t.Durations("markov.chain_reset", "")))
	r.setLayer("markov.sweeps_ms.p50", "ms", median(t.Durations("markov.sweeps", "")))
	r.setLayer("markov.sweeps_ms.p95", "ms", quantile(t.Durations("markov.sweeps", ""), 0.95))
	r.setLayer("core.topk_ms.p50", "ms", median(t.Durations("core.topk", "")))
	if reads > 0 {
		r.setLayer("longtail.alloc_kb_per_read", "KB", float64(alloc.totalAlloc)/1024/float64(reads))
	}
	r.setLayer("longtail.gc_pause_ms", "ms", float64(alloc.pauseNs)/1e6)
	if hits := t.Durations(spanRead, "hit"); len(hits) > 0 {
		r.setLayer("cache.hit_ms.p50", "ms", median(hits))
		r.setLayer("cache.hit_ms.p99", "ms", quantile(hits, 0.99))
	}
	if misses := t.Durations(spanRead, "miss"); len(misses) > 0 {
		r.setLayer("cache.miss_ms.p50", "ms", median(misses))
		r.setLayer("cache.miss_ms.p99", "ms", quantile(misses, 0.99))
	}
	if h := t.Durations(spanHTTP, ""); len(h) > 0 {
		r.setLayer("server.recommend_overhead_ms.p50", "ms", median(h)-median(t.Durations(spanInproc, "")))
	}
	if h := t.Durations(spanHTTPRate, ""); len(h) > 0 {
		r.setLayer("server.rating_overhead_ms.p50", "ms", median(h)-median(t.Durations(spanInprocRate, "")))
	}
	if f := t.Durations(spanWALAppend, ""); len(f) > 0 {
		r.setLayer("wal.fsync_ms.p50", "ms", median(f))
		r.setLayer("wal.fsync_ms.p99", "ms", quantile(f, 0.99))
	}
	r.setLayer("persist.checkpoint_ms", "ms", median(t.Durations(spanCheckpoint, "")))
	r.setLayer("persist.recover_s", "s", sec(spanRecover))

	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range layerMetrics {
		if _, ok := r.layer[m.name]; !ok {
			r.layer[m.name] = metric{Value: 0, Unit: m.unit}
		}
	}
}

// setCacheLayers reports the cache counters accumulated between two
// snapshots of the serving stats.
func (r *run) setCacheLayers(before, after cache.Stats) {
	hits := float64(after.Hits - before.Hits)
	lookups := hits + float64(after.Misses-before.Misses) + float64(after.Shared-before.Shared)
	if lookups > 0 {
		r.setLayer("cache.hit_ratio", "ratio", hits/lookups)
	}
	r.setLayer("cache.fingerprint_hits", "count", float64(after.FingerprintHits-before.FingerprintHits))
	r.setLayer("cache.fingerprint_rejects", "count", float64(after.FingerprintRejects-before.FingerprintRejects))
	r.setLayer("cache.journal_overflows", "count", float64(after.JournalOverflows-before.JournalOverflows))
	r.setLayer("cache.shared", "count", float64(after.Shared-before.Shared))
}
