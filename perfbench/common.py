"""Shared pieces of the benchmark: inputs, the reference ranker, statistics.

Everything that is not a measurement lives here: locating the program's
sources, generating a workload's inputs from its seed, building (once per
checkout) the saved serving index, and the independent computations the
program's outputs are checked against — a plain-numpy tf-idf cosine ranker,
NDCG@10 and concept purity.  The checks call none of the code they check.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

#: Where the once-per-checkout serving index is cached.
CACHE_ROOT = ROOT / ".bench_build" / "perfbench"

#: The declared metrics: every run reports each end-to-end (untraced) or
#: per-layer (traced) metric listed there, with the unit listed there.
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Corpus of the offline workload: the delicious profile at scale 1.0
#: (240 users, 94 tags, 673 resources, 11 025 assignments once cleaned).
#: The corpus seed is fixed: on corpora drawn per seed, the number of HOOI
#: sweeps before ``tol`` and the core shape change, and the fit time and
#: quality spread 16-36% from seed to seed (see README).  The judged
#: queries are fixed too; the workload seed picks the tag pairs whose
#: distances are re-derived.
FIT_PROFILE = "delicious"
FIT_SCALE = 1.0
FIT_CORPUS_SEED = 7
NUM_CONCEPTS = 30
MIN_SUPPORT = 5
NUM_JUDGED_QUERIES = 256

#: Corpus of the serving index: the delicious profile at scale 6.0 (about
#: 4000 resources), generated and fitted once per checkout with a fixed
#: seed.  The workload seed drives the queries, arrivals and traces.
SERVE_SCALE = 6.0
SERVE_CORPUS_SEED = 11
#: Shards (one pool worker each) of the save frontdoor_open serves.  Two
#: workers on a 2-core VM reached 1900-3000 q/s at saturation, with
#: 23-32% spread across seeds; one worker reaches 7400-8100 q/s, spreading
#: 3-6% (see README).
SERVE_SHARDS = 1
#: Bump when serving_index() writes a different layout.
INDEX_LAYOUT_VERSION = 1

TOP_K = 10
#: Largest score difference between the program and the reference ranker.
SCORE_TOL = 1e-9
#: Queries scored at once by the reference ranker, so that checking does
#: not set the serving process's peak memory.
CHECK_CHUNK = 64
#: Largest gap between a purified distance and its rebuilt-slice value, as
#: a share of the largest distance.
DISTANCE_RTOL = 1e-3


class CheckFailed(Exception):
    """A program output disagreed with the benchmark's own computation."""


def quiet_warnings() -> None:
    from repro.utils.errors import ConvergenceWarning

    warnings.filterwarnings("ignore", category=ConvergenceWarning)


# ---------------------------------------------------------------------- #
# Statistics and output
# ---------------------------------------------------------------------- #
def percentile(values: Sequence[float], q: float) -> float:
    if not len(values):
        raise CheckFailed("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak resident set of this process image, in MiB.

    Read from ``VmHWM``, which starts afresh at ``exec``; ``ru_maxrss``
    would carry over the peak of the parent that built the serving index.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise CheckFailed("VmHWM missing from /proc/self/status")


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def per_layer_metrics(values: Mapping[str, float]) -> Dict[str, Dict[str, object]]:
    """Every declared per-layer metric, 0 for layers this workload leaves idle."""
    declared = {entry["name"]: entry["unit"] for entry in DECLARED["per_layer"]}
    unknown = set(values) - set(declared)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return {name: metric(values.get(name, 0.0), unit) for name, unit in declared.items()}


def emit(attempted: int, failed: int, metrics: Mapping[str, Mapping]) -> None:
    """Print the result object as the last line of standard output.

    ``metrics`` must be exactly the declared end-to-end or per-layer set,
    with the declared units.
    """
    for kind in ("end_to_end", "per_layer"):
        declared = {entry["name"]: entry["unit"] for entry in DECLARED[kind]}
        if declared == {name: value["unit"] for name, value in metrics.items()}:
            break
    else:
        raise KeyError("the metrics differ from those BENCHMARK.json declares")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": dict(metrics),
            }
        ),
        flush=True,
    )


def environment() -> Dict[str, object]:
    """Cores, BLAS threading and library versions of this run."""
    import scipy

    blas_env = {
        name: os.environ[name]
        for name in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
        )
        if name in os.environ
    }
    return {
        "cores": os.cpu_count(),
        "blas_threads": blas_env or "library default (one per core)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


# ---------------------------------------------------------------------- #
# Inputs
# ---------------------------------------------------------------------- #
def make_corpus(scale: float, seed: int):
    """Generate and clean a delicious-profile corpus: ``(dataset, cleaned)``."""
    from repro.datasets.profiles import PROFILES, generate_profile_dataset
    from repro.tagging.cleaning import CleaningConfig, clean_folksonomy

    dataset = generate_profile_dataset(
        PROFILES[FIT_PROFILE], scale=scale, seed=seed, include_noise_tags=True
    )
    cleaned, _ = clean_folksonomy(
        dataset.folksonomy, CleaningConfig(min_assignments=MIN_SUPPORT)
    )
    return dataset, cleaned


def judged_queries(dataset, cleaned, seed: int) -> List[Tuple[List[str], Dict[str, int]]]:
    """Judged queries ``(tags, {resource: grade})`` with a relevant resource."""
    from repro.datasets.queries import build_query_workload

    workload = build_query_workload(
        dataset, num_queries=NUM_JUDGED_QUERIES, seed=seed + 1000, folksonomy=cleaned
    )
    judged = []
    for query in workload:
        grades = dict(workload.judgments_for(query).grades)
        if any(grade > 0 for grade in grades.values()):
            judged.append((list(query.tags), grades))
    return judged


def tag_truth(dataset, tags: Iterable[str]) -> Dict[str, List[str]]:
    """Ground-truth concept names of each tag (for concept purity)."""
    truth = dataset.ground_truth
    return {tag: sorted(truth.concepts_of_tag(tag)) for tag in tags}


def pipeline():
    from repro.core.pipeline import CubeLSIPipeline

    return CubeLSIPipeline(num_concepts=NUM_CONCEPTS, seed=0)


# ---------------------------------------------------------------------- #
# Independent checks
# ---------------------------------------------------------------------- #
def ndcg_at_10(rankings: Sequence[Sequence[str]], judged) -> float:
    """Mean NDCG@10 with gains ``2^grade - 1`` and a ``log2(rank + 1)`` discount."""
    scores = []
    for ranking, (_, grades) in zip(rankings, judged):
        dcg = sum(
            (2 ** grades.get(resource, 0) - 1) / math.log2(rank + 2)
            for rank, resource in enumerate(ranking[:10])
        )
        ideal_gains = sorted((g for g in grades.values() if g > 0), reverse=True)
        ideal = sum(
            (2**grade - 1) / math.log2(rank + 2)
            for rank, grade in enumerate(ideal_gains[:10])
        )
        scores.append(dcg / ideal)
    return float(sum(scores) / len(scores))


def concept_purity(clusters: Sequence[Sequence[str]], truth: Mapping[str, Sequence[str]]) -> float:
    """Share of tags whose cluster's majority ground-truth concept is theirs."""
    total = agreeing = 0
    for cluster in clusters:
        votes: Dict[str, int] = {}
        for tag in cluster:
            for name in truth.get(tag, ()):
                votes[name] = votes.get(name, 0) + 1
        if not votes:
            continue
        majority = min(votes, key=lambda name: (-votes[name], name))
        for tag in cluster:
            names = truth.get(tag, ())
            if names:
                total += 1
                agreeing += majority in names
    if not total:
        raise CheckFailed("no clustered tag has a ground-truth concept")
    return agreeing / total


class ReferenceRanker:
    """Plain-numpy tf-idf cosine over concept bags (paper Eq. 1, 2 and 4).

    ``bags`` maps each indexed resource to its tag bag; ``tag_to_concept``
    is the fitted concept model's hard assignment.  Tags outside the model
    contribute nothing, as the program's distilled models specify.
    """

    def __init__(self, bags: Mapping[str, Mapping[str, float]], tag_to_concept: Mapping[str, int]):
        self.tag_to_concept = dict(tag_to_concept)
        num_concepts = max(self.tag_to_concept.values()) + 1
        self.resources = sorted(bags)
        self.row_of = {name: row for row, name in enumerate(self.resources)}
        counts = np.zeros((len(self.resources), num_concepts))
        for row, name in enumerate(self.resources):
            for tag, weight in bags[name].items():
                column = self.tag_to_concept.get(tag)
                if column is not None:
                    counts[row, column] += weight
        df = (counts > 0).sum(axis=0)
        self.idf = np.where(df > 0, np.log(len(self.resources) / np.maximum(df, 1)), 0.0)
        totals = counts.sum(axis=1, keepdims=True)
        tf = np.divide(counts, totals, out=np.zeros_like(counts), where=totals > 0)
        self.weights = tf * self.idf
        self.norms = np.linalg.norm(self.weights, axis=1)

    def scores(self, queries: Sequence[Sequence[str]]) -> np.ndarray:
        """``queries x resources`` cosine similarities."""
        q = np.zeros((len(queries), self.weights.shape[1]))
        for row, tags in enumerate(queries):
            for tag in tags:
                column = self.tag_to_concept.get(tag)
                if column is not None:
                    q[row, column] += 1.0
        totals = q.sum(axis=1, keepdims=True)
        q = np.divide(q, totals, out=np.zeros_like(q), where=totals > 0) * self.idf
        q_norms = np.linalg.norm(q, axis=1)
        dots = q @ self.weights.T
        denominator = q_norms[:, None] * self.norms[None, :]
        return np.divide(dots, denominator, out=np.zeros_like(dots), where=denominator > 0)

    def check(self, queries: Sequence[Sequence[str]], responses: Sequence[Sequence], top_k: int) -> None:
        """Raise :class:`CheckFailed` unless every response is an exact top-k.

        A response passes when its scores equal the reference scores of its
        resources, it is ordered by descending score (ties by resource id),
        it has ``min(top_k, positive reference scores)`` entries, and no
        resource left out scores more than the last one kept.
        """
        for start in range(0, len(queries), CHECK_CHUNK):
            self._check_chunk(queries[start:start + CHECK_CHUNK], responses[start:start + CHECK_CHUNK], top_k)

    def _check_chunk(self, queries, responses, top_k: int) -> None:
        index = self.row_of
        for tags, response, scores in zip(queries, responses, self.scores(queries)):
            positive = int((scores > SCORE_TOL).sum())
            expected = min(top_k, positive)
            if len(response) != expected:
                raise CheckFailed(
                    f"query {list(tags)}: {len(response)} results, reference has {expected}"
                )
            previous = None
            for position, entry in enumerate(response, start=1):
                row = index.get(entry.resource)
                if row is None:
                    raise CheckFailed(f"query {list(tags)}: unknown resource {entry.resource!r}")
                if abs(scores[row] - entry.score) > SCORE_TOL or entry.rank != position:
                    raise CheckFailed(
                        f"query {list(tags)}: {entry.resource} scored {entry.score!r} at rank "
                        f"{entry.rank}, reference {scores[row]!r} at rank {position}"
                    )
                if previous is not None and (
                    entry.score > previous.score + SCORE_TOL
                    or (entry.score == previous.score and entry.resource < previous.resource)
                ):
                    raise CheckFailed(f"query {list(tags)}: results out of order at rank {position}")
                previous = entry
            if expected:
                kept = {index[entry.resource] for entry in response}
                left_out = np.delete(scores, sorted(kept))
                if left_out.size and left_out.max() > response[-1].score + SCORE_TOL:
                    raise CheckFailed(f"query {list(tags)}: a better resource was left out")


def check_decomposition(decomposition, distances: np.ndarray, concepts, tags, rng, pairs: int = 12) -> None:
    """Method properties of a fitted CubeLSI result.

    * every factor matrix has orthonormal columns;
    * sampled purified distances equal the Frobenius distance of the two tag
      slices rebuilt from the Tucker factors (Eq. 17, no shortcut), to a
      relative ``DISTANCE_RTOL``: the program's Theorem-2 kernel is exact
      only at an ALS fixed point, and HOOI stops at ``max_iter`` short of
      one (a relative gap of about 2e-5 on these corpora);
    * the concepts partition the tag set.
    """
    for mode, factor in enumerate(decomposition.factors):
        gram = factor.T @ factor
        if not np.allclose(gram, np.eye(gram.shape[0]), atol=1e-8):
            raise CheckFailed(f"mode-{mode + 1} factor is not column-orthonormal")
    core = decomposition.core
    users, tag_factor, resources = decomposition.factors
    # Slice i of F_hat is Y1 (sum_j Y2[i, j] S[:, j, :]) Y3^T.
    mixed = np.einsum("ij,ajc->iac", tag_factor, core)
    scale = float(np.abs(distances).max())
    for _ in range(pairs):
        i, j = rng.choice(len(tags), size=2, replace=False)
        slice_i = users @ mixed[i] @ resources.T
        slice_j = users @ mixed[j] @ resources.T
        direct = float(np.linalg.norm(slice_i - slice_j))
        if abs(direct - distances[i, j]) > DISTANCE_RTOL * scale:
            raise CheckFailed(
                f"distance({tags[i]}, {tags[j]}) = {distances[i, j]!r} but the rebuilt "
                f"slices are {direct!r} apart"
            )
    members = [tag for concept in concepts for tag in concept.tags]
    if len(members) != len(set(members)) or set(members) != set(tags):
        raise CheckFailed("the concepts do not partition the tag set")


def check_rankings_sorted(rankings) -> None:
    for ranking in rankings:
        scores = [entry.score for entry in ranking]
        if any(b > a + SCORE_TOL for a, b in zip(scores, scores[1:])):
            raise CheckFailed("a ranking is not in descending score order")


# ---------------------------------------------------------------------- #
# The saved serving index (built once per checkout)
# ---------------------------------------------------------------------- #
def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    recipe = (FIT_PROFILE, SERVE_SCALE, SERVE_CORPUS_SEED, MIN_SUPPORT, NUM_CONCEPTS,
              NUM_JUDGED_QUERIES, SERVE_SHARDS, INDEX_LAYOUT_VERSION)
    digest.update(repr(recipe).encode())
    return digest.hexdigest()[:16]


def serving_index() -> Path:
    """Directory of the saved serving index, built on first use.

    Holds ``mono/`` (monolithic engine plus its assignment log),
    ``sharded/`` (a ``SERVE_SHARDS``-shard memory-mappable save for the
    process pool) and ``truth.json`` (judged queries and tag concepts).
    The key covers the program's sources and the recipe above, so a
    changed program or recipe rebuilds.
    """
    target = CACHE_ROOT / f"index-{_source_digest()}"
    if (target / "truth.json").exists():
        return target
    quiet_warnings()
    CACHE_ROOT.mkdir(parents=True, exist_ok=True)
    staging = CACHE_ROOT / f"staging-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    started = time.perf_counter()
    dataset, cleaned = make_corpus(SERVE_SCALE, SERVE_CORPUS_SEED)
    index = pipeline().fit(cleaned)
    index.save(staging / "mono", include_folksonomy=True)
    index.save(staging / "sharded", num_shards=SERVE_SHARDS, mmap_ready=True)
    truth = {
        "judged": judged_queries(dataset, cleaned, SERVE_CORPUS_SEED),
        "tag_concepts": tag_truth(dataset, cleaned.tags),
        "corpus": {
            "users": cleaned.num_users,
            "tags": cleaned.num_tags,
            "resources": cleaned.num_resources,
            "assignments": cleaned.num_assignments,
        },
    }
    (staging / "truth.json").write_text(json.dumps(truth), encoding="utf-8")
    for stale in CACHE_ROOT.glob("index-*"):
        shutil.rmtree(stale, ignore_errors=True)
    staging.rename(target)
    print(
        f"built serving index in {time.perf_counter() - started:.1f}s: {truth['corpus']}",
        file=sys.stderr,
    )
    return target


def load_truth(index_dir: Path) -> Dict[str, object]:
    return json.loads((index_dir / "truth.json").read_text(encoding="utf-8"))


def resource_bags(index_dir: Path) -> Dict[str, Dict[str, float]]:
    """Tag bags (distinct users per tag) read straight from the assignment log."""
    users: Dict[Tuple[str, str], set] = {}
    with (index_dir / "mono" / "assignments.tsv").open(encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            user, tag, name = line.split("\t")
            users.setdefault((name, tag), set()).add(user)
    bags: Dict[str, Dict[str, float]] = {}
    for (name, tag), who in users.items():
        bags.setdefault(name, {})[tag] = float(len(who))
    return bags


def tag_to_concept(concept_model) -> Dict[str, int]:
    return {tag: concept.concept_id for concept in concept_model.concepts for tag in concept.tags}


def query_stream(tags: Sequence[str], resources: Sequence[str], seed: int, count: int) -> List[List[str]]:
    """``count`` queries drawn by the program's own traffic model.

    A query-only :class:`~repro.load.workload.WorkloadGenerator` trace with
    the generator's defaults: 1-3 Zipf-weighted tags (exponent 1.1, head
    picked by a seeded shuffle), 30% repeats of one of the last 16 queries,
    and 5% carrying an out-of-vocabulary tag.  The generator reads only the
    vocabulary and the resource names of the corpus it is given, so the
    serving process passes those and never holds the assignment log.
    """
    from types import SimpleNamespace

    from repro.load.workload import WorkloadConfig, WorkloadGenerator

    config = WorkloadConfig(
        num_operations=count, query_fraction=1.0, refresh_fraction=0.0,
        num_eval_queries=0, seed=seed,
    )
    corpus = SimpleNamespace(tags=list(tags), resources=list(resources))
    trace = WorkloadGenerator(config).generate(corpus)
    return [list(op.query_tags) for op in trace.operations]
