"""Run one benchmark workload and print its result as the last output line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload offline_fit --seed 1 --seconds 10 --trace 0

``offline_fit`` runs its warm fits in this process and its cold fits in
fresh processes (``cold_fit.py``).  The serving workloads
(``query_batch``, ``frontdoor_open``, ``mixed_rw``) make sure the saved
serving index exists (built once per checkout under ``.bench_build/``),
then run in a fresh child process that only loads that index, as an
online server would.  ``--trace 1`` reports
the per-layer metrics instead of the end-to-end ones.  A failed correctness
check or a failed child exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

import common
from common import CheckFailed, emit, median, metric, per_layer_metrics

WORKLOADS = ("offline_fit", "query_batch", "frontdoor_open", "mixed_rw")
#: offline_fit: fresh processes timed for the cold fit, and times the
#: corpus set-up is timed.
COLD_PROCESSES = 5
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170.0

# ---------------------------------------------------------------------- #
# offline_fit
# ---------------------------------------------------------------------- #
def _install_fit_tracer(tracer, sweeps):
    import importlib

    cubelsi = importlib.import_module("repro.core.cubelsi")
    pipeline_module = importlib.import_module("repro.core.pipeline")
    hosvd_module = importlib.import_module("repro.tensor.hosvd")
    tucker = importlib.import_module("repro.tensor.tucker")
    from repro.search.engine import SearchEngine
    from repro.search.matrix_space import MatrixConceptSpace
    from repro.tagging.folksonomy import Folksonomy

    tracer.wrap(Folksonomy, "to_tensor", "tagging.to_tensor")
    tracer.wrap(tucker, "hosvd", "tensor.hosvd")
    tracer.wrap(
        cubelsi, "tucker_als", "tensor.tucker_als",
        on_result=lambda args, result: sweeps.append(len(result.fit_history)),
    )
    tracer.wrap(tucker, "truncated_svd", "tensor.truncated_svd")
    tracer.wrap(hosvd_module, "truncated_svd", "tensor.truncated_svd")
    tracer.wrap(cubelsi, "tag_distance_matrix", "core.distances")
    tracer.wrap(pipeline_module, "distill_concepts", "core.distill")
    tracer.wrap(SearchEngine, "build", "search.build")
    tracer.wrap(MatrixConceptSpace, "compile", "search.compile")


def cold_fit(corpus: Path) -> float:
    """Seconds from start to the end of the first fit, in a fresh process."""
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("cold_fit.py")), str(corpus)],
        capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S,
    )
    return float(done.stdout.split()[-1]) - started


def run_offline_fit(seed: int, seconds: float, trace: bool) -> None:
    import numpy as np

    from repro.tagging.io import write_assignments_tsv
    from tracer import Tracer

    common.quiet_warnings()
    started = time.perf_counter()
    dataset, cleaned = common.make_corpus(common.FIT_SCALE, common.FIT_CORPUS_SEED)
    setup_times = [time.perf_counter() - started]
    judged = common.judged_queries(dataset, cleaned, common.FIT_CORPUS_SEED)
    truth = common.tag_truth(dataset, cleaned.tags)
    del dataset

    # The first fit of this process gives the traced run its cold HOSVD.
    fitter = common.pipeline()
    cold_tracer = Tracer()
    if trace:
        _install_fit_tracer(cold_tracer, [])
    index = fitter.fit(cleaned)
    cold_tracer.close()

    result = index.cubelsi_result
    common.check_decomposition(
        result.decomposition, result.distances, index.concept_model.concepts,
        cleaned.tags, np.random.default_rng(seed),
    )
    rankings = index.engine.rank_batch([tags for tags, _ in judged], top_k=common.TOP_K)
    common.check_rankings_sorted(rankings)
    ndcg = common.ndcg_at_10([[r.resource for r in ranking] for ranking in rankings], judged)
    purity = common.concept_purity(index.concept_model.as_clusters(), truth)
    reference = index.cubelsi_result.distances
    del index, result, rankings

    # Warm fits for ``seconds``.  An untraced run puts a cold fit and a
    # repeated set-up before each of its first warm fits, so that all three
    # samples spread over the run and a slow stretch of the VM hits few of
    # each; their time is added to the deadline.  A traced run alternates
    # untraced and traced fits so the tracing overhead is measured on the
    # same corpus.
    common.CACHE_ROOT.mkdir(parents=True, exist_ok=True)
    corpus = common.CACHE_ROOT / f"fit-corpus-{os.getpid()}.tsv"
    write_assignments_tsv(cleaned.assignments, corpus)
    cold = []
    warm = {False: [], True: []}
    tracer = Tracer()
    sweeps = []
    deadline = time.perf_counter() + seconds
    try:
        while (
            time.perf_counter() < deadline
            or not warm[False]
            or (trace and not warm[True])
            or (not trace and len(cold) < COLD_PROCESSES)
        ):
            if not trace and len(cold) < COLD_PROCESSES:
                cold.append(cold_fit(corpus))
                deadline += cold[-1]
            if not trace and len(setup_times) < SETUP_REPEATS:
                started = time.perf_counter()
                common.make_corpus(common.FIT_SCALE, common.FIT_CORPUS_SEED)
                setup_times.append(time.perf_counter() - started)
                deadline += setup_times[-1]
            traced = trace and len(warm[False]) > len(warm[True])
            if traced:
                _install_fit_tracer(tracer, sweeps)
            started = time.perf_counter()
            index = fitter.fit(cleaned)
            elapsed = time.perf_counter() - started
            tracer.close()
            warm[traced].append(elapsed)
            if not np.array_equal(index.cubelsi_result.distances, reference):
                raise CheckFailed("a warm fit disagreed with the first fit of the same corpus")
            del index
    finally:
        corpus.unlink()

    fits = len(cold) + 1 + len(warm[False]) + len(warm[True])
    if not trace:
        emit(fits, 0, {
            "setup_s": metric(median(setup_times), "s"),
            "peak_rss_mb": metric(common.peak_rss_mb(), "MB"),
            "throughput_per_s": metric(len(warm[False]) / sum(warm[False]), "1/s"),
            "p50_ms": metric(median(warm[False]) * 1000.0, "ms"),
            "tail_ms": metric(median(cold) * 1000.0, "ms"),
            "ndcg10": metric(ndcg, "score"),
            "concept_purity": metric(purity, "score"),
        })
        return

    n = len(warm[True])
    per_fit = lambda name: tracer.total(name) / n  # noqa: E731
    hosvd = per_fit("tensor.hosvd")
    emit(fits, 0, per_layer_metrics({
        "tagging.to_tensor_s": per_fit("tagging.to_tensor"),
        "tensor.hosvd_s": hosvd,
        "tensor.cold_hosvd_s": cold_tracer.total("tensor.hosvd"),
        "tensor.hooi_s": per_fit("tensor.tucker_als") - hosvd,
        "tensor.hooi_sweeps": median(sweeps),
        "tensor.truncated_svd_calls": tracer.calls("tensor.truncated_svd") / n,
        "tensor.truncated_svd_s": per_fit("tensor.truncated_svd"),
        "core.distances_s": per_fit("core.distances"),
        "core.distill_s": per_fit("core.distill"),
        "search.build_s": per_fit("search.build"),
        "search.compile_s": per_fit("search.compile"),
        "trace.overhead_pct": 100.0 * (median(warm[True]) / median(warm[False]) - 1.0),
    }))


# ---------------------------------------------------------------------- #
# Serving workloads: a fresh process over the saved index
# ---------------------------------------------------------------------- #
def run_serving(args) -> int:
    index_dir = common.serving_index()
    command = [
        sys.executable, str(Path(__file__).with_name("serving.py")),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--index", str(index_dir),
    ]
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        output, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if child.returncode != 0:
        print(f"serving process exited with {child.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(output)
    sys.stdout.flush()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(f"env {common.environment()}", file=sys.stderr)
    if args.workload == "offline_fit":
        run_offline_fit(args.seed, args.seconds, bool(args.trace))
        return 0
    return run_serving(args)


if __name__ == "__main__":
    sys.exit(main())
