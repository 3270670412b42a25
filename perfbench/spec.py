"""Workload definitions, seeded input generation and summary statistics.

Imported by the orchestrator (``run.py``), the workload processes
(``worker.py``) and the server launcher (``launcher.py``).  It needs
only the standard library and numpy, so the orchestrator and the output
checks never import the package under test.

Every quantity a run does is fixed here from ``--seed`` and
``--seconds``: the number of solves, queries and rounds grows with
``--seconds`` (calibrated so a run's measured loop takes about that
long on a two-core machine), but no loop is ever cut by a clock.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

#: Paper defaults (Section 7): k = 50, epsilon = 0.1.
SOLVE_K = 50
SOLVE_EPSILON = 0.1

#: Graphs of the ``solve`` workload: (dataset, scale).  Chung-Lu
#: stand-ins 3.1x apart in n: pokec-sim x4 (n = 12,800, m = 243k) and
#: twitter-sim x2 (n = 40,000, m = 1.4M).
SOLVE_GRAPHS: Tuple[Tuple[str, float], ...] = (
    ("pokec-sim", 4.0),
    ("twitter-sim", 2.0),
)
SOLVE_MODELS = ("IC", "LT")

#: ``serve``: one IC sketch over pokec-sim (n = 3,200), built in set-up.
SERVE_GRAPH = ("pokec-sim", 1.0)
SERVE_MODEL = "IC"
SERVE_INDEX_RR_SETS = 20_000
SERVE_K_MAX = 300
SERVE_ZIPF_S = 1.1
SERVE_EPSILONS = (0.1, 0.2, 0.3)
SERVE_CONNECTIONS = 2
SERVE_BLOCK = 100
SERVE_READY_QUERY = {"k": SOLVE_K, "epsilon": SOLVE_EPSILON}

#: ``online``: theta0 sets in set-up, then rounds of extend(delta) ->
#: answer(k) -> checkpoint(), then warm restarts from the checkpoint.
ONLINE_GRAPH = ("pokec-sim", 1.0)
ONLINE_MODEL = "IC"
ONLINE_THETA0 = 30_000
ONLINE_DELTA = 2_000
ONLINE_K = 50
ONLINE_EPSILON = 0.1
ONLINE_RESTARTS = 5

#: Each workload's set-up (graph build, index build, server start) is
#: repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

WORKLOADS = ("solve", "serve", "online")


def solve_rounds(seconds: int) -> int:
    """Algorithm seeds per (graph, model) configuration."""
    return max(1, seconds // 5)


def serve_queries(seconds: int) -> int:
    return max(SERVE_BLOCK, 1000 * seconds)


def online_rounds(seconds: int) -> int:
    return max(2, seconds)


def workload_rng(seed: int, workload: str) -> np.random.Generator:
    """The generator every seeded input of *workload* is drawn from."""
    tag = WORKLOADS.index(workload)
    return np.random.default_rng([int(seed), tag])


def solve_seeds(seed: int, seconds: int) -> List[int]:
    """One algorithm seed per round; shared by the four configurations."""
    rng = workload_rng(seed, "solve")
    return [int(s) for s in rng.integers(1, 2**31 - 1, size=solve_rounds(seconds))]


def engine_seed(seed: int, workload: str) -> int:
    """Seed of the engine's RR stream for ``serve`` / ``online``."""
    rng = workload_rng(seed, workload)
    return int(rng.integers(1, 2**31 - 1))


def serve_sequence(seed: int, seconds: int) -> List[Dict[str, float]]:
    """The fixed query sequence: k Zipf-like over 1..300, epsilon uniform."""
    rng = workload_rng(seed, "serve")
    rng.integers(1, 2**31 - 1)  # the engine seed (see engine_seed)
    count = serve_queries(seconds)
    ks = np.arange(1, SERVE_K_MAX + 1)
    weights = ks.astype(float) ** -SERVE_ZIPF_S
    k = rng.choice(ks, size=count, p=weights / weights.sum())
    eps = rng.choice(np.asarray(SERVE_EPSILONS), size=count)
    return [
        {"k": int(a), "epsilon": float(b)} for a, b in zip(k, eps)
    ]


# ----------------------------------------------------------------------
# Summary statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(np.median(np.asarray(values, dtype=float)))


def medians_by(
    samples: Sequence[Dict[str, Any]], key: Callable[[Dict[str, Any]], Any]
) -> List[float]:
    """Median ``seconds`` of each group of *samples*, groups by *key*."""
    groups: Dict[Any, List[float]] = {}
    for sample in samples:
        groups.setdefault(key(sample), []).append(sample["seconds"])
    return [median(groups[group]) for group in sorted(groups)]


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """Highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``.  With fewer than twenty samples
    that percentile would lie below the median, so the median is
    returned and labelled as the 50th percentile.
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    count = int(ordered.size)
    if count < 20:
        return median(values), 50.0
    index = count - 11  # 10 samples lie strictly beyond this one
    return float(ordered[index]), 100.0 * (index + 1) / count

