"""Workload processes of the benchmark.

Started by ``run.py`` with a cleaned environment and ``PYTHONPATH=src``::

    python3 perfbench/worker.py setup  --workload W --seed S --seconds T --workdir D
    python3 perfbench/worker.py solve  --seed S --seconds T --workdir D
    python3 perfbench/worker.py online --seed S --seconds T --workdir D

``setup`` builds the workload's inputs once (graphs from the dataset
generator; for ``serve`` and ``online`` also the RR-sketch index) and
writes them under the work directory, so the generator's temporaries
never count towards the measured process's peak memory.  ``solve`` and
``online`` run the measured loop over those inputs.  Each prints one
JSON object as its last line of output; with ``--trace 1`` it also
writes its spans to ``trace-<phase>-<pid>.json`` in the work directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

import spec
from tracer import ROOT, Tracer

import repro
from repro.core.opimc import opim_c
from repro.datasets import load_dataset
from repro.graph.digraph import DiGraph
from repro.sampling.kernel import resolve_kernel
from repro.serve import SeedQueryEngine


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def save_graph(graph: DiGraph, path: Path) -> None:
    np.savez(
        path,
        n=graph.n,
        out_offsets=graph.out_offsets,
        out_targets=graph.out_targets,
        out_probs=graph.out_probs,
        name=graph.name,
    )


def load_graph(path: Path) -> DiGraph:
    with np.load(path) as data:
        offsets = data["out_offsets"]
        sources = np.repeat(np.arange(int(data["n"])), np.diff(offsets))
        return DiGraph(
            int(data["n"]),
            sources,
            data["out_targets"],
            data["out_probs"],
            name=str(data["name"]),
        )


def environment() -> Dict[str, Any]:
    """What the results depend on besides the code: recorded in the output."""
    return {
        "sampler": resolve_kernel("auto") or "RRSampler (scalar)",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repro": repro.__version__,
    }


def _answer_fields(response: Dict[str, Any]) -> Dict[str, Any]:
    keep = ("k", "seeds", "alpha", "alpha_target", "sigma_low", "sigma_up",
            "sampled", "num_rr_sets", "stop", "satisfied")
    return {key: response[key] for key in keep}


class Phase:
    """Shared plumbing: optional tracer, operation spans, result output."""

    def __init__(self, name: str, args: argparse.Namespace) -> None:
        self.name = name
        self.workdir = Path(args.workdir)
        self.tracer = Tracer(name) if args.trace else None
        self.ops = 0
        if self.tracer is not None:
            self.tracer.install()

    def op(self, name: str):
        """Span of one measured operation, its own request (no-op when untraced)."""
        if self.tracer is None:
            return nullcontext()
        self.ops += 1
        return self.tracer.span(name, ROOT, request=f"{name}-{self.ops}")

    def finish(self, result: Dict[str, Any]) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()
            path = self.workdir / f"trace-{self.name}-{os.getpid()}.json"
            path.write_text(json.dumps(self.tracer.dump()))
        result["peak_rss_mb"] = peak_rss_mb()
        result["environment"] = environment()
        print(json.dumps(result))


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def run_setup(args: argparse.Namespace) -> None:
    phase = Phase(f"setup-{args.workload}", args)
    workdir = phase.workdir
    result: Dict[str, Any] = {}
    if args.workload == "solve":
        started = time.perf_counter()
        graphs = [load_dataset(name, scale) for name, scale in spec.SOLVE_GRAPHS]
        result["setup_s"] = time.perf_counter() - started
        for i, graph in enumerate(graphs):
            save_graph(graph, workdir / f"graph-{i}.npz")
    else:
        serve = args.workload == "serve"
        name, scale = spec.SERVE_GRAPH if serve else spec.ONLINE_GRAPH
        model = spec.SERVE_MODEL if serve else spec.ONLINE_MODEL
        count = spec.SERVE_INDEX_RR_SETS if serve else spec.ONLINE_THETA0
        index = workdir / "index"
        shutil.rmtree(index, ignore_errors=True)
        started = time.perf_counter()
        graph = load_dataset(name, scale)
        engine = SeedQueryEngine(
            graph, model, seed=spec.engine_seed(args.seed, args.workload),
            index_dir=index,
        )
        extend_started = time.perf_counter()
        engine.extend(count)
        result["extend_s"] = time.perf_counter() - extend_started
        result["rr_sets"] = count
        engine.checkpoint()
        engine.close()
        result["setup_s"] = time.perf_counter() - started
        save_graph(graph, workdir / "graph-0.npz")
    phase.finish(result)


# ----------------------------------------------------------------------
# solve: cold opim_c calls on two graphs, IC and LT
# ----------------------------------------------------------------------
def run_solve(args: argparse.Namespace) -> None:
    phase = Phase("solve", args)
    paths = [phase.workdir / f"graph-{i}.npz" for i in range(len(spec.SOLVE_GRAPHS))]
    solves: List[Dict[str, Any]] = []
    rounds: List[float] = []
    restarts: List[Dict[str, Any]] = []
    failed = 0
    loop_started = time.perf_counter()
    for round_index, algo_seed in enumerate(spec.solve_seeds(args.seed, args.seconds)):
        round_started = time.perf_counter()
        with phase.op("round"):
            for graph_index, path in enumerate(paths):
                load_started = time.perf_counter()
                graph = load_graph(path)
                load_s = time.perf_counter() - load_started
                for model_index, model in enumerate(spec.SOLVE_MODELS):
                    started = time.perf_counter()
                    try:
                        result = opim_c(
                            graph, model, k=spec.SOLVE_K,
                            epsilon=spec.SOLVE_EPSILON, seed=algo_seed,
                        )
                    except Exception as exc:  # counted, reported, never hidden
                        failed += 1
                        print(f"solve failed: {exc!r}", file=sys.stderr)
                        continue
                    seconds = time.perf_counter() - started
                    if model_index == 0:
                        restarts.append(
                            {"graph": graph_index, "seconds": load_s + seconds}
                        )
                    last = result.extra["alpha_trajectory"][-1]
                    solves.append({
                        "round": round_index, "graph": graph_index,
                        "model": model, "seed": algo_seed, "k": result.k,
                        "epsilon": result.epsilon, "seeds": result.seeds,
                        "alpha": result.alpha_achieved,
                        "sigma_low": last["sigma_low"], "sigma_up": last["sigma_up"],
                        "stopped_by": result.extra["stopped_by"],
                        "num_rr_sets": result.num_rr_sets,
                        "iterations": result.iterations, "seconds": seconds,
                    })
        rounds.append(time.perf_counter() - round_started)
    phase.finish({
        "attempted": len(spec.SOLVE_GRAPHS) * len(spec.SOLVE_MODELS) * len(rounds),
        "failed": failed,
        "loop_s": time.perf_counter() - loop_started,
        "solves": solves,
        "rounds": rounds,
        "restarts": restarts,
    })


# ----------------------------------------------------------------------
# online: extend -> answer -> checkpoint rounds, then warm restarts
# ----------------------------------------------------------------------
def run_online(args: argparse.Namespace) -> None:
    phase = Phase("online", args)
    graph = load_graph(phase.workdir / "graph-0.npz")
    index = phase.workdir / "index"
    seed = spec.engine_seed(args.seed, "online")

    def open_engine() -> SeedQueryEngine:
        return SeedQueryEngine(graph, spec.ONLINE_MODEL, seed=seed, index_dir=index)

    def query(engine: SeedQueryEngine) -> Dict[str, Any]:
        return engine.answer(
            spec.ONLINE_K, epsilon=spec.ONLINE_EPSILON,
            rr_budget=engine.num_rr_sets,
        )

    engine = open_engine()
    rounds: List[Dict[str, Any]] = []
    loop_started = time.perf_counter()
    for _ in range(spec.online_rounds(args.seconds)):
        with phase.op("round"):
            t0 = time.perf_counter()
            engine.extend(spec.ONLINE_DELTA)
            t1 = time.perf_counter()
            answer = query(engine)
            t2 = time.perf_counter()
            engine.checkpoint()
            t3 = time.perf_counter()
        rounds.append({
            "extend_s": t1 - t0, "answer_s": t2 - t1, "checkpoint_s": t3 - t2,
            "round_s": t3 - t0, "rr_sets": spec.ONLINE_DELTA,
            "answer": _answer_fields(answer),
        })
    # The uninterrupted engine's answer to the query every restart repeats.
    reference = _answer_fields(query(engine))
    engine.close()
    restarts: List[Dict[str, Any]] = []
    for _ in range(spec.ONLINE_RESTARTS):
        with phase.op("restart"):
            started = time.perf_counter()
            restarted = open_engine()
            answer = query(restarted)
            seconds = time.perf_counter() - started
        restarted.close()
        restarts.append({"restart_s": seconds, "answer": _answer_fields(answer)})
    phase.finish({
        "attempted": len(rounds) + len(restarts),
        "failed": 0,
        "loop_s": time.perf_counter() - loop_started,
        "rounds": rounds,
        "reference": reference,
        "restarts": restarts,
    })


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("setup", "solve", "online"))
    parser.add_argument("--workload", choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    {"setup": run_setup, "solve": run_solve, "online": run_online}[args.phase](args)


if __name__ == "__main__":
    main()
