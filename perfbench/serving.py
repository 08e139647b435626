"""The serving workloads, run in a fresh process over the saved index.

Started by ``run.py`` with ``--index`` naming the directory that
:func:`common.serving_index` built.  This process never holds the generated
corpus: it loads what an online server loads, keeps only the responses it
still has to verify, and prints the result object as its last output line.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import sys
import threading
import time
from pathlib import Path

import numpy as np

import common
from common import CheckFailed, emit, median, metric, per_layer_metrics, percentile
from tracer import Tracer

#: query_batch: one round is ROUND_BATCHES batches of BATCH_SIZE distinct queries.
BATCH_SIZE = 32
ROUND_BATCHES = 64

#: The tail percentile of query_batch and of frontdoor_open's saturation
#: phases.  Their p99 was not steady: on query_batch a tie-row batch
#: (select_top_k fallback) comes about once per 64, so p99 flips between
#: regimes from seed to seed (57% IQR).
TAIL_PERCENTILE = 90

#: frontdoor_open: a WARMUP_SECONDS open-loop warm-up and an OPEN_SECONDS
#: open loop at FIXED_RATE, far below the knee; then a WARMUP_SECONDS
#: saturation warm-up and CYCLES saturation phases.  In a saturation phase
#: one load thread keeps SATURATION_WINDOW requests in flight (under the
#: admission bound of 1024, so nothing is shed).  Capacity is the median
#: over the SLICE_SECONDS slices of all phases of the completions per
#: second; p50_ms and tail_ms are the medians over the same slices of each
#: slice's percentiles, timed from submission.  With SATURATION_WINDOW
#: requests in flight, Little's law ties their mean to the capacity.
#: The open-loop latencies go to standard error only: on the shared 2-core
#: VM the median over 0.5 s slices of their p90 spread 35% IQR over ten
#: seeds (4.1-7.5 ms) as host load came and went.  The first second or
#: more of saturation after the open loop ran at a quarter to a third of
#: the capacity, hence the saturation warm-up, and the open loop comes
#: first so that a run pays only one such ramp.
#: A p99-limited open-loop rate ladder was tried first, over a 2-worker
#: pool: climbs within one run reached anywhere from 1000 to 1900 q/s,
#: because stalls of 50-160 ms on a 2-core VM fail random steps, and the
#: 2-worker capacity itself spread 23-32% (IQR) across seeds.  With one
#: worker it spreads 3-6%, so the pool has one shard (README).  The pool
#: set-up is timed SETUP_SAMPLES times before the warm-up and after each
#: saturation phase.
FIXED_RATE = 800.0
OPEN_SECONDS = 4.0
CYCLES = 4
WARMUP_SECONDS = 1.0
SATURATION_WINDOW = 256
SLICE_SECONDS = 0.5
SETUP_SAMPLES = 4
STREAM_QUERIES = 16384

#: mixed_rw: one replayed trace holds exactly these operations, the
#: generator's default 90/8/2 query/mutation/refresh mix.  The counts are
#: fixed because a mutation costs ~15x a query: with the generator's own
#: binomial mix the ops/s of a 400-operation trace spread 33% across seeds.
#: A mutation costs 12-65 ms by kind (see README), so a trace needs over
#: a hundred of them for its median to settle.  The mutations and refresh
#: ticks come from the trace of the fixed WRITE_SEED, and --seed picks the
#: queries and probes: a batch that only adds cost about 28 ms and any
#: other 50-65 ms, and with 30-34% of add-only batches by seed the median
#: mutation spread 24% IQR over ten seeds.
TRACE_MIX = {"query": 1440, "mutate": 128, "refresh": 32}
WRITE_SEED = 0


def load_concepts(index_dir: Path):
    """``tag -> concept id`` read straight from the saved engine metadata."""
    payload = json.loads((index_dir / "mono" / "engine.json").read_text(encoding="utf-8"))
    return {
        tag: int(concept["id"])
        for concept in payload["concept_model"]["concepts"]
        for tag in concept["tags"]
    }


def purity(tag_concept, truth) -> float:
    clusters = {}
    for tag, concept in tag_concept.items():
        clusters.setdefault(concept, []).append(tag)
    return common.concept_purity(list(clusters.values()), truth["tag_concepts"])


def ndcg(rank_batch, truth) -> float:
    judged = truth["judged"]
    rankings = rank_batch([tags for tags, _ in judged])
    common.check_rankings_sorted(rankings)
    return common.ndcg_at_10([[r.resource for r in ranking] for ranking in rankings], judged)


# ---------------------------------------------------------------------- #
# query_batch: closed loop into the monolithic SearchEngine.rank_batch
# ---------------------------------------------------------------------- #
def _install_query_tracer(tracer):
    from repro.search.engine import SearchEngine
    from repro.search.matrix_space import MatrixConceptSpace

    matrix_space = importlib.import_module("repro.search.matrix_space")
    tracer.wrap(SearchEngine, "rank_batch", "search.rank_batch")
    tracer.wrap(SearchEngine, "query_concepts", "search.concept_map")
    tracer.wrap(MatrixConceptSpace, "rank_batch", "search.score")
    tracer.wrap(matrix_space, "select_top_k", "search.select_top_k")


def query_batches(seed: int, tags, resources):
    """ROUND_BATCHES batches of BATCH_SIZE distinct queries.

    The candidates come in order from the program's traffic model
    (:func:`common.query_stream`); a query already in the batch is skipped.
    """
    candidates = iter(common.query_stream(tags, resources, seed, 4 * ROUND_BATCHES * BATCH_SIZE))
    batches = []
    for _ in range(ROUND_BATCHES):
        batch, seen = [], set()
        while len(batch) < BATCH_SIZE:
            query = next(candidates)
            key = tuple(sorted(query))
            if key not in seen:
                seen.add(key)
                batch.append(query)
        batches.append(batch)
    return batches


def run_query_batch(index_dir: Path, seed: int, seconds: float, trace: bool) -> None:
    from repro.search.engine import SearchEngine

    def timed_load():
        started = time.perf_counter()
        engine = SearchEngine.load(index_dir / "mono")
        setup_times.append(time.perf_counter() - started)
        return engine

    truth = common.load_truth(index_dir)
    setup_times = []
    engine = timed_load()

    tag_concept = load_concepts(index_dir)
    bags = common.resource_bags(index_dir)
    reference = common.ReferenceRanker(bags, tag_concept)
    batches = query_batches(seed, sorted(tag_concept), sorted(bags))
    del bags

    # Warm-up round: its responses are all checked against the reference.
    for batch in batches:
        reference.check(batch, engine.rank_batch(batch, top_k=common.TOP_K), common.TOP_K)
    gc.collect()

    tracer = Tracer()
    latencies = {False: [], True: []}
    spot_checks = []
    rounds = 0
    queries = 0
    wall = 0.0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or (trace and rounds < 2):
        # One more set-up sample per round, so they spread over the run.
        timed_load()
        traced = trace and rounds % 2 == 1
        if traced:
            _install_query_tracer(tracer)
            tracer.watch_gc()
        sample = latencies[traced]
        spot = rounds % len(batches)
        round_started = time.perf_counter()
        for position, batch in enumerate(batches):
            started = time.perf_counter()
            response = engine.rank_batch(batch, top_k=common.TOP_K)
            sample.append(time.perf_counter() - started)
            if position == spot:
                spot_checks.append((spot, response))
        wall += time.perf_counter() - round_started
        tracer.close()
        queries += len(batches) * BATCH_SIZE
        rounds += 1
    # One batch of every measured round, a different one each round.
    for spot, response in spot_checks:
        reference.check(batches[spot], response, common.TOP_K)
    attempted = (rounds + 1) * len(batches)

    if not trace:
        times = np.asarray(latencies[False])
        emit(attempted, 0, {
            "setup_s": metric(median(setup_times), "s"),
            "peak_rss_mb": metric(common.peak_rss_mb(), "MB"),
            "throughput_per_s": metric(queries / wall, "1/s"),
            "p50_ms": metric(percentile(times, 50) * 1000.0, "ms"),
            "tail_ms": metric(percentile(times, TAIL_PERCENTILE) * 1000.0, "ms"),
            "ndcg10": metric(ndcg(lambda q: engine.rank_batch(q, top_k=common.TOP_K), truth), "score"),
            "concept_purity": metric(purity(tag_concept, truth), "score"),
        })
        return

    n = tracer.calls("search.rank_batch")
    traced_rounds = n / len(batches)
    concept_map = tracer.total("search.concept_map") / n
    score = tracer.total("search.score") / n
    emit(attempted, 0, per_layer_metrics({
        "search.concept_map_s": concept_map,
        "search.score_s": score,
        "search.engine_self_s": tracer.total("search.rank_batch") / n - concept_map - score,
        "search.select_top_k_calls": tracer.calls("search.select_top_k") / traced_rounds,
        "runtime.gc_gen2_collections": tracer.gc_gen2 / traced_rounds,
        "runtime.gc_pause_max_ms": max(tracer.gc_pauses, default=0.0) * 1000.0,
        "trace.overhead_pct": 100.0 * (median(latencies[True]) / median(latencies[False]) - 1.0),
    }))


# ---------------------------------------------------------------------- #
# frontdoor_open: open-loop Poisson arrivals into BatchingFrontend.submit
# over a one-worker ShardProcessPool
# ---------------------------------------------------------------------- #
class OpenLoopPhase:
    """One schedule of arrivals; completion times land here from callbacks."""

    def __init__(self, queries, offsets, keep_every: int) -> None:
        self.queries = queries
        self.offsets = offsets
        self.keep_every = keep_every
        n = len(offsets)
        self.done = np.full(n, np.nan)
        self.cached = np.zeros(n, dtype=bool)
        self.late = np.zeros(n)
        self.kept = {}
        self.errors = []
        self._remaining = n
        self._cond = threading.Condition()

    def _completed(self, position: int, future) -> None:
        finished = time.perf_counter()
        error = future.exception()
        with self._cond:
            if error is not None:
                self.errors.append(repr(error))
            else:
                response = future.result()
                self.done[position] = finished
                self.cached[position] = response.cached
                if position % self.keep_every == 0:
                    self.kept[position] = response.results
            self._remaining -= 1
            if self._remaining == 0:
                self._cond.notify_all()

    def run(self, frontend, timeout: float = 60.0) -> np.ndarray:
        """Submit every request on schedule; latencies (s) timed from due."""
        start = time.perf_counter() + 0.005
        due = start + self.offsets
        for position, tags in enumerate(self.queries):
            now = time.perf_counter()
            if now < due[position]:
                time.sleep(due[position] - now)
                now = time.perf_counter()
            self.late[position] = now - due[position]
            future = frontend.submit(tags, top_k=common.TOP_K)
            future.add_done_callback(lambda f, p=position: self._completed(p, f))
        with self._cond:
            if not self._cond.wait_for(lambda: self._remaining == 0, timeout=timeout):
                raise CheckFailed("open-loop requests did not complete")
        if self.errors:
            raise CheckFailed(f"{len(self.errors)} requests failed: {self.errors[:3]}")
        return self.done - due


def poisson_phase(rng, queries, rate: float, seconds: float, keep_every: int) -> OpenLoopPhase:
    """The next ``rate * seconds`` queries of ``queries``, at Poisson arrivals."""
    count = max(1, int(round(rate * seconds)))
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=count))
    return OpenLoopPhase([next(queries) for _ in range(count)], offsets, keep_every)


def _install_frontdoor_tracer(tracer, rows):
    from repro.search.shardpool import ShardProcessPool

    shardpool = importlib.import_module("repro.search.shardpool")
    tracer.wrap(
        ShardProcessPool, "snapshot_rank_batch", "serve.engine_call",
        on_result=lambda args, result: rows.append(len(args[1])),
    )
    tracer.wrap(ShardProcessPool, "rank_batch_detailed", "shardpool.fanout")
    tracer.wrap(shardpool, "merge_topk", "shardpool.merge")
    tracer.watch_gc()


def queue_waits(latencies, phase, tracer) -> np.ndarray:
    """Each response's latency minus the engine call its batch made.

    The batcher resolves a batch's futures right after its engine call, so
    a scored response belongs to the last engine call that ended before it
    completed; cached responses made no engine call.
    """
    ends = np.asarray(tracer.ends["serve.engine_call"])
    durations = np.asarray(tracer.spans["serve.engine_call"])
    call = np.searchsorted(ends, phase.done, side="right") - 1
    engine = np.where(phase.cached | (call < 0), 0.0, durations[np.maximum(call, 0)])
    return latencies - engine


def saturate(frontend, stream, start: int, seconds: float, keep_every: int, kept: dict):
    """Closed loop of SATURATION_WINDOW requests in flight for ``seconds``.

    Submits ``stream`` in order from position ``start``, wrapping round.
    Returns ``(rates, p50s, tails, end)``: for each whole SLICE_SECONDS
    slice, the completions per second and (if any completed) the p50 and
    TAIL_PERCENTILE latencies from submission of the requests completed in
    it; then the next position.  Every ``keep_every``-th response lands in
    ``kept`` under its position.
    """
    slots = threading.Semaphore(SATURATION_WINDOW)
    lock = threading.Lock()
    finished = []
    latencies = []
    errors = []

    def completed(position, submitted, future):
        now = time.perf_counter()
        error = future.exception()
        with lock:
            if error is not None:
                errors.append(repr(error))
            else:
                finished.append(now)
                latencies.append(now - submitted)
                if position % keep_every == 0:
                    kept[position] = future.result().results
        slots.release()

    started = time.perf_counter()
    deadline = started + seconds
    position = start
    while time.perf_counter() < deadline:
        slots.acquire()
        submitted = time.perf_counter()
        future = frontend.submit(stream[position % len(stream)], top_k=common.TOP_K)
        future.add_done_callback(lambda f, p=position, t=submitted: completed(p, t, f))
        position += 1
    for _ in range(SATURATION_WINDOW):
        if not slots.acquire(timeout=60.0):
            raise CheckFailed("saturation requests did not complete")
    if errors:
        raise CheckFailed(f"{len(errors)} requests failed: {errors[:3]}")
    slices = int(seconds // SLICE_SECONDS)
    slot = ((np.asarray(finished) - started) // SLICE_SECONDS).astype(int)
    by_slice = [np.asarray(latencies)[slot == k] for k in range(slices)]
    rates = [len(done) / SLICE_SECONDS for done in by_slice]
    p50s = [percentile(done, 50) for done in by_slice if len(done)]
    tails = [percentile(done, TAIL_PERCENTILE) for done in by_slice if len(done)]
    return rates, p50s, tails, position


def run_frontdoor_open(index_dir: Path, seed: int, seconds: float, trace: bool) -> None:
    """Open loop at FIXED_RATE, then saturation.

    An untraced run makes one OPEN_SECONDS open-loop phase, then CYCLES
    saturation phases that share out the rest of the run; the pool set-up
    is timed again after each with spare pools.  Each metric is a median
    over SLICE_SECONDS slices, so a slow stretch of the VM hits only a few
    of them.  The open-loop percentiles go to standard error.  A traced run
    makes two open-loop phases, untraced then traced, and no saturation.
    """
    from repro.search.shardpool import ShardProcessPool
    from repro.serve.frontend import BatchingFrontend

    started_run = time.perf_counter()
    truth = common.load_truth(index_dir)
    tag_concept = load_concepts(index_dir)
    reference = common.ReferenceRanker(common.resource_bags(index_dir), tag_concept)
    phase_seconds = [(seconds - WARMUP_SECONDS) / 2.0] * 2 if trace else [OPEN_SECONDS]
    open_loop = FIXED_RATE * (WARMUP_SECONDS + sum(phase_seconds)) * 1.01
    queries = iter(common.query_stream(
        sorted(tag_concept), reference.resources, seed, int(open_loop) + STREAM_QUERIES
    ))
    rng = np.random.default_rng(seed)
    warmup = poisson_phase(rng, queries, FIXED_RATE, WARMUP_SECONDS, keep_every=1)
    fixed = [poisson_phase(rng, queries, FIXED_RATE, length, keep_every=4) for length in phase_seconds]
    stream = list(queries)[:STREAM_QUERIES]
    del queries
    gc.collect()

    setup_times = []

    def start_pool():
        started = time.perf_counter()
        pool = ShardProcessPool(index_dir / "sharded")
        frontend = BatchingFrontend(pool)
        setup_times.append(time.perf_counter() - started)
        return pool, frontend

    def spare_setups(count: int) -> None:
        for _ in range(count):
            pool, frontend = start_pool()
            frontend.close()
            pool.close()

    pool = frontend = None
    try:
        pool, frontend = start_pool()
        spare_setups(SETUP_SAMPLES - 1)
        warmup.run(frontend)
        tracer = Tracer()
        rows = []
        fixed_latencies = []
        rates, p50s, tails, kept = [], [], [], {}
        position = 0
        for cycle, phase in enumerate(fixed):
            traced = trace and cycle == 1
            if traced:
                _install_frontdoor_tracer(tracer, rows)
                lookups_before = frontend.cache.stats()
            fixed_latencies.append(phase.run(frontend))
            if traced:
                tracer.close()
                lookups_after = frontend.cache.stats()
        if not trace:
            *_, position = saturate(frontend, stream, position, WARMUP_SECONDS, keep_every=64, kept=kept)
        for cycle in range(0 if trace else CYCLES):
            left = started_run + seconds - time.perf_counter()
            cycle_rates, cycle_p50s, cycle_tails, position = saturate(
                frontend, stream, position, max(1.0, left / (CYCLES - cycle)), keep_every=64, kept=kept
            )
            rates += cycle_rates
            p50s += cycle_p50s
            tails += cycle_tails
            spare_setups(SETUP_SAMPLES)
        degraded = pool.health()["degraded_reads"]
        if degraded:
            raise CheckFailed(f"{degraded} degraded pool reads")
        positions = sorted(kept)
        reference.check([stream[p % len(stream)] for p in positions], [kept[p] for p in positions], common.TOP_K)
        attempted = position
        for phase in [warmup] + fixed:
            positions = sorted(phase.kept)
            reference.check([phase.queries[p] for p in positions], [phase.kept[p] for p in positions], common.TOP_K)
            attempted += len(phase.offsets)
        quality = ndcg(lambda q: [frontend.query(t, top_k=common.TOP_K) for t in q], truth)
    finally:
        if frontend is not None:
            frontend.close()
        if pool is not None:
            pool.close()

    latencies = fixed_latencies[0]
    print(
        f"open loop at {FIXED_RATE:.0f} q/s: p50/p90/p95/p99 "
        + "/".join(f"{percentile(latencies, q) * 1e3:.2f}" for q in (50, 90, 95, 99))
        + f" ms, {np.mean(fixed[0].cached):.1%} cached"
        + (
            f"; saturated at {median(rates):.0f} q/s, "
            f"p50/p{TAIL_PERCENTILE} {median(p50s) * 1e3:.1f}/{median(tails) * 1e3:.1f} ms"
            if rates else ""
        ),
        file=sys.stderr,
    )
    if not trace:
        emit(attempted, 0, {
            "setup_s": metric(median(setup_times), "s"),
            "peak_rss_mb": metric(common.peak_rss_mb(), "MB"),
            "throughput_per_s": metric(median(rates), "1/s"),
            "p50_ms": metric(median(p50s) * 1000.0, "ms"),
            "tail_ms": metric(median(tails) * 1000.0, "ms"),
            "ndcg10": metric(quality, "score"),
            "concept_purity": metric(purity(tag_concept, truth), "score"),
        })
        return

    traced_phase = fixed[1]
    calls = tracer.calls("serve.engine_call")
    hits = lookups_after["hits"] - lookups_before["hits"]
    misses = lookups_after["misses"] - lookups_before["misses"]
    emit(attempted, 0, per_layer_metrics({
        "serve.engine_calls": calls,
        "serve.batch_size_mean": sum(rows) / calls,
        "serve.queue_wait_p50_ms": percentile(queue_waits(fixed_latencies[1], traced_phase, tracer), 50) * 1000.0,
        "serve.cache_hit_ratio": hits / (hits + misses),
        "serve.dedup_ratio": len(traced_phase.offsets) / sum(rows),
        "shardpool.fanout_p50_ms": percentile(tracer.spans["shardpool.fanout"], 50) * 1000.0,
        "shardpool.merge_s": tracer.total("shardpool.merge") / calls,
        "shardpool.degraded_reads": degraded,
        "runtime.gc_gen2_collections": tracer.gc_gen2,
        "runtime.gc_pause_max_ms": max(tracer.gc_pauses, default=0.0) * 1000.0,
        "loadgen.late_max_ms": float(traced_phase.late.max()) * 1000.0,
        "trace.overhead_pct": 100.0 * (
            percentile(fixed_latencies[1], 50) / percentile(fixed_latencies[0], 50) - 1.0
        ),
    }))


# ---------------------------------------------------------------------- #
# mixed_rw: closed-loop replay of a WorkloadGenerator trace through an
# EngineHandle over the loaded engine and its folksonomy
# ---------------------------------------------------------------------- #
def tracked_bags(index_dir: Path, trace_ops):
    """The live tag bags after the trace, applied by the benchmark itself."""
    from repro.load.workload import MUTATE

    bags = common.resource_bags(index_dir)
    for op in trace_ops:
        if op.kind != MUTATE:
            continue
        for name, bag in list(op.added.items()) + list(op.updated.items()):
            bags[name] = dict(bag)
        for name in op.removed:
            del bags[name]
    return bags


def _install_rw_tracer(tracer, refreshed):
    from repro.search.engine import SearchEngine
    from repro.search.lifecycle import EngineHandle
    from repro.tagging.folksonomy import Folksonomy

    tracer.wrap(EngineHandle, "apply_mutations", "lifecycle.apply_mutations")
    tracer.wrap(SearchEngine, "apply_mutations", "search.apply_mutations")
    tracer.wrap(Folksonomy, "apply_delta", "tagging.apply_delta")
    tracer.wrap(
        SearchEngine, "refresh", "search.refresh",
        on_result=lambda args, result: refreshed.append(bool(result)),
    )
    tracer.watch_gc()


def run_mixed_rw(index_dir: Path, seed: int, seconds: float, trace: bool) -> None:
    from repro.core.pipeline import OfflineIndex
    from repro.load.workload import MUTATE, QUERY, WorkloadConfig, WorkloadGenerator
    from repro.search.lifecycle import EngineHandle

    truth = common.load_truth(index_dir)
    tag_concept = load_concepts(index_dir)
    started = time.perf_counter()
    index = OfflineIndex.load(index_dir / "mono")
    setup_times = [time.perf_counter() - started]
    writes, reads = (
        WorkloadGenerator(
            WorkloadConfig(num_operations=2 * sum(TRACE_MIX.values()), seed=trace_seed)
        ).generate(index.folksonomy)
        for trace_seed in (WRITE_SEED, seed)
    )
    # The first operations of each kind, in the write trace's order, with
    # its query slots filled in order by the queries of the --seed trace.
    # Mutations stay a prefix of the generated sequence, so every batch is
    # still valid.
    queries = (op for op in reads.operations if op.kind == QUERY)
    quota = dict(TRACE_MIX)
    operations = []
    for op in writes.operations:
        if quota[op.kind]:
            quota[op.kind] -= 1
            operations.append(next(queries) if op.kind == QUERY else op)
    if any(quota.values()):
        raise CheckFailed(f"the generated trace is short of {quota}")
    probes = [list(query) for query in reads.eval_queries]
    mutations = sum(op.kind == MUTATE for op in operations)
    reference = common.ReferenceRanker(tracked_bags(index_dir, operations), tag_concept)
    quality = ndcg(lambda q: index.engine.rank_batch(q, top_k=common.TOP_K), truth)
    gc.collect()

    tracer = Tracer()
    refreshed = []
    query_times, mutation_times = [], []
    replay = {False: [], True: []}
    journal_entries = []
    rounds = 0
    deadline = time.perf_counter() + seconds
    while True:
        if rounds:
            if time.perf_counter() >= deadline and not (trace and rounds < 2):
                break
            del handle, index
            gc.collect()
            started = time.perf_counter()
            index = OfflineIndex.load(index_dir / "mono")
            setup_times.append(time.perf_counter() - started)
        epoch = index.engine.epoch
        handle = EngineHandle(index.engine, folksonomy=index.folksonomy)
        traced = trace and rounds % 2 == 1
        if traced:
            _install_rw_tracer(tracer, refreshed)
        round_started = time.perf_counter()
        for op in operations:
            started = time.perf_counter()
            if op.kind == QUERY:
                handle.search(list(op.query_tags), top_k=op.top_k)
                query_times.append(time.perf_counter() - started)
            elif op.kind == MUTATE:
                handle.apply_mutations(added=op.added, updated=op.updated, removed=op.removed)
                mutation_times.append(time.perf_counter() - started)
            else:
                handle.refresh()
        replay[traced].append(time.perf_counter() - round_started)
        tracer.close()
        if handle.epoch != epoch + mutations or len(handle.journal) != mutations:
            raise CheckFailed("the handle did not journal every mutation exactly once")
        journal_entries.append(len(handle.journal))
        reference.check(probes, handle.rank_batch(probes, top_k=common.TOP_K), common.TOP_K)
        rounds += 1
    attempted = rounds * len(operations)

    if not trace:
        emit(attempted, 0, {
            "setup_s": metric(median(setup_times), "s"),
            "peak_rss_mb": metric(common.peak_rss_mb(), "MB"),
            "throughput_per_s": metric(rounds * len(operations) / sum(replay[False]), "1/s"),
            "p50_ms": metric(percentile(mutation_times, 50) * 1000.0, "ms"),
            "tail_ms": metric(percentile(query_times, 99) * 1000.0, "ms"),
            "ndcg10": metric(quality, "score"),
            "concept_purity": metric(purity(tag_concept, truth), "score"),
        })
        return

    traced_rounds = len(replay[True])
    per_mutation = lambda name: tracer.total(name) / (traced_rounds * mutations)  # noqa: E731
    emit(attempted, 0, per_layer_metrics({
        "lifecycle.apply_mutations_s": per_mutation("lifecycle.apply_mutations"),
        "search.apply_mutations_s": per_mutation("search.apply_mutations"),
        "tagging.apply_delta_s": per_mutation("tagging.apply_delta"),
        "search.refresh_calls": sum(refreshed) / traced_rounds,
        "search.refresh_s": tracer.total("search.refresh") / traced_rounds,
        "lifecycle.journal_entries": max(journal_entries),
        "runtime.gc_gen2_collections": tracer.gc_gen2 / traced_rounds,
        "runtime.gc_pause_max_ms": max(tracer.gc_pauses, default=0.0) * 1000.0,
        "trace.overhead_pct": 100.0 * (median(replay[True]) / median(replay[False]) - 1.0),
    }))


WORKLOADS = {
    "query_batch": run_query_batch,
    "frontdoor_open": run_frontdoor_open,
    "mixed_rw": run_mixed_rw,
}


def main() -> int:
    parser = argparse.ArgumentParser(description="one serving workload over a saved index")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--index", type=Path, required=True)
    args = parser.parse_args()
    common.quiet_warnings()
    WORKLOADS[args.workload](args.index, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
