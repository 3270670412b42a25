"""Output checks that do not trust the package under test.

* :func:`simulate_ic` / :func:`simulate_lt` — forward Monte-Carlo
  spread estimators written against the raw CSR arrays with numpy.
  They share no code with ``repro.diffusion`` (or any ``repro``
  module): the graph is read from the ``.npz`` file set-up wrote.
* :func:`check_answer` — the properties every certified answer must
  have: ``k`` distinct seeds in ``[0, n)``, ``sigma_l <= sigma_u``, and
  ``sigma_l - z*se <= sigma_hat(S*) <= sigma_u + z*se`` against the
  simulator.
* :func:`check_solve`, :func:`check_serve`, :func:`check_restarts` —
  the per-workload rules (alpha target on solves that stopped on it,
  no sampling on ``serve`` answers, one seed set per ``serve`` key,
  bitwise-identical warm restarts).

Every check returns a list of human-readable problems; empty means pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Sequence, Tuple

import numpy as np

#: Standard errors of slack on each side of the Monte-Carlo estimate.
#: The bounds themselves hold w.p. >= 1 - 1/n; z = 5 adds a
#: 3e-7 one-sided chance that the simulator itself misleads.
Z = 5.0

#: Forward simulations per checked answer: as many as fit a budget of
#: ~3e7 edge visits, between 30 and 200.
MC_EDGE_BUDGET = 30_000_000
MC_RUNS_RANGE = (30, 200)


@dataclass(frozen=True)
class GraphArrays:
    """Out-CSR of a weighted digraph, as written by set-up."""

    n: int
    out_offsets: np.ndarray
    out_targets: np.ndarray
    out_probs: np.ndarray

    @property
    def m(self) -> int:
        return int(self.out_targets.size)


def load_graph_arrays(path: str) -> GraphArrays:
    with np.load(path) as data:
        return GraphArrays(
            n=int(data["n"]),
            out_offsets=np.asarray(data["out_offsets"], dtype=np.int64),
            out_targets=np.asarray(data["out_targets"], dtype=np.int64),
            out_probs=np.asarray(data["out_probs"], dtype=np.float64),
        )


# ----------------------------------------------------------------------
# Forward Monte-Carlo simulators
# ----------------------------------------------------------------------
def simulate_ic(
    graph: GraphArrays, seeds: Sequence[int], runs: int, rng: np.random.Generator
) -> np.ndarray:
    """Activated-node count of each of *runs* independent IC cascades.

    All runs advance together one BFS level at a time: the frontier is a
    list of (run, node) pairs, each out-edge of a frontier node fires
    with its probability, and newly reached (run, node) pairs become the
    next frontier.
    """
    n = graph.n
    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    active = np.zeros((runs, n), dtype=bool)
    active[:, seeds] = True
    run_ids = np.repeat(np.arange(runs, dtype=np.int64), seeds.size)
    nodes = np.tile(seeds, runs)
    offsets = graph.out_offsets
    while run_ids.size:
        starts = offsets[nodes]
        degrees = offsets[nodes + 1] - starts
        total = int(degrees.sum())
        if total == 0:
            break
        first = np.cumsum(degrees) - degrees
        edges = np.repeat(starts - first, degrees) + np.arange(total)
        fired = rng.random(total) < graph.out_probs[edges]
        hit_runs = np.repeat(run_ids, degrees)[fired]
        hit_nodes = graph.out_targets[edges[fired]]
        fresh = ~active[hit_runs, hit_nodes]
        codes = np.unique(hit_runs[fresh] * n + hit_nodes[fresh])
        run_ids, nodes = codes // n, codes % n
        active[run_ids, nodes] = True
    return active.sum(axis=1)


def _in_csr(graph: GraphArrays) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    sources = np.repeat(
        np.arange(graph.n, dtype=np.int64), np.diff(graph.out_offsets)
    )
    order = np.argsort(graph.out_targets, kind="stable")
    in_sources = sources[order]
    in_probs = graph.out_probs[order]
    counts = np.bincount(graph.out_targets, minlength=graph.n)
    in_offsets = np.zeros(graph.n + 1, dtype=np.int64)
    np.cumsum(counts, out=in_offsets[1:])
    return in_offsets, in_sources, in_probs


def simulate_lt(
    graph: GraphArrays,
    seeds: Sequence[int],
    runs: int,
    rng: np.random.Generator,
    chunk: int = 50,
) -> np.ndarray:
    """Activated-node count of each of *runs* independent LT cascades.

    Uses the live-edge form of LT (Kempe et al.): each node keeps at
    most one in-edge, picking ``(u, v)`` with probability ``p(u, v)``
    and none with ``1 - sum_u p(u, v)``; the activated set is every node
    whose chain of kept in-edges reaches a seed.  Chains are resolved by
    pointer doubling, so the cost is ``O(runs * n * log n)``.
    """
    n = graph.n
    in_offsets, in_sources, in_probs = _in_csr(graph)
    cumulative = np.cumsum(in_probs)
    base = np.concatenate(([0.0], cumulative))[in_offsets[:-1]]
    is_seed = np.zeros(n + 1, dtype=bool)
    is_seed[np.asarray(seeds, dtype=np.int64)] = True
    steps = int(math.ceil(math.log2(n + 1))) + 1
    counts: List[np.ndarray] = []
    for lo in range(0, runs, chunk):
        width = min(chunk, runs - lo)
        draws = base[None, :] + rng.random((width, n))
        picked = np.searchsorted(cumulative, draws, side="right")
        kept = picked < in_offsets[None, 1:]
        parent = np.full((width, n + 1), n, dtype=np.int64)
        chosen = in_sources[np.minimum(picked, in_sources.size - 1)]
        parent[:, :n] = np.where(kept, chosen, n)
        flat = parent + (np.arange(width, dtype=np.int64) * (n + 1))[:, None]
        active = np.broadcast_to(is_seed, (width, n + 1)).ravel().copy()
        flat = flat.ravel()
        for _ in range(steps):
            active |= active[flat]
            flat = flat[flat]
        counts.append(active.reshape(width, n + 1)[:, :n].sum(axis=1))
    return np.concatenate(counts)


def estimate_spread(
    graph: GraphArrays,
    model: str,
    seeds: Sequence[int],
    seed: int = 0,
) -> Tuple[float, float]:
    """(mean, standard error) of the simulated spread of *seeds*."""
    low, high = MC_RUNS_RANGE
    runs = int(min(high, max(low, MC_EDGE_BUDGET // max(1, graph.m))))
    rng = np.random.default_rng(seed)
    simulate = simulate_ic if model.upper() == "IC" else simulate_lt
    sizes = simulate(graph, seeds, runs, rng).astype(float)
    return float(sizes.mean()), float(sizes.std(ddof=1) / math.sqrt(runs))


# ----------------------------------------------------------------------
# Property checks
# ----------------------------------------------------------------------
def check_seed_set(seeds: Sequence[int], k: int, n: int) -> List[str]:
    problems = []
    if len(seeds) != k:
        problems.append(f"{len(seeds)} seeds returned for k={k}")
    if len(set(seeds)) != len(seeds):
        problems.append("seed set has duplicates")
    if any(not 0 <= int(s) < n for s in seeds):
        problems.append(f"seed outside [0, {n})")
    return problems


def check_answer(
    answer: Dict[str, Any],
    graph: GraphArrays,
    model: str,
    simulate: bool = True,
    mc_seed: int = 0,
) -> List[str]:
    """Check one certified answer (``seeds``, ``k``, ``sigma_low``, ``sigma_up``)."""
    seeds = [int(s) for s in answer["seeds"]]
    problems = check_seed_set(seeds, int(answer["k"]), graph.n)
    low, up = float(answer["sigma_low"]), float(answer["sigma_up"])
    if not low <= up:
        problems.append(f"sigma_l {low:.3f} > sigma_u {up:.3f}")
    if simulate and not problems:
        mean, se = estimate_spread(graph, model, seeds, seed=mc_seed)
        if low - Z * se > mean:
            problems.append(
                f"sigma_l {low:.2f} exceeds simulated spread {mean:.2f} "
                f"+ {Z:g} se ({se:.2f})"
            )
        if mean > up + Z * se:
            problems.append(
                f"simulated spread {mean:.2f} exceeds sigma_u {up:.2f} "
                f"+ {Z:g} se ({se:.2f})"
            )
    return problems


def check_solve(answer: Dict[str, Any]) -> List[str]:
    """alpha >= 1 - 1/e - epsilon on a solve that stopped on its target."""
    target = 1.0 - 1.0 / math.e - float(answer["epsilon"])
    if answer["stopped_by"] == "alpha" and float(answer["alpha"]) < target:
        return [
            f"solve stopped on alpha but alpha {answer['alpha']:.4f} < {target:.4f}"
        ]
    return []


def check_serve(answers: Iterable[Dict[str, Any]]) -> List[str]:
    """No ``serve`` answer sampled; identical keys got identical seeds."""
    problems = []
    by_key: Dict[Tuple[int, float], List[int]] = {}
    for answer in answers:
        if int(answer["sampled"]) != 0:
            problems.append(
                f"k={answer['k']} answer sampled {answer['sampled']} RR sets"
            )
        key = (int(answer["k"]), round(float(answer["alpha_target"]), 9))
        seeds = [int(s) for s in answer["seeds"]]
        first = by_key.setdefault(key, seeds)
        if first != seeds:
            problems.append(f"key {key} answered with two different seed sets")
    return problems


#: Fields a warm restart must reproduce bit for bit.
RESTART_FIELDS = ("seeds", "alpha", "sigma_low", "sigma_up")


def check_restarts(
    reference: Dict[str, Any], restarts: Sequence[Dict[str, Any]]
) -> List[str]:
    """Every warm restart answers exactly as the uninterrupted engine."""
    problems = []
    for i, answer in enumerate(restarts):
        for field in RESTART_FIELDS:
            if answer[field] != reference[field]:
                problems.append(
                    f"restart {i}: {field} {answer[field]!r} != "
                    f"uninterrupted {reference[field]!r}"
                )
    return problems
