"""End-to-end benchmark of the OPIM reproduction: solve, serve, online.

Run from the repository root::

    python3 perfbench/run.py --workload {solve,serve,online} --seed N \
        --seconds T --trace {0,1}

Each workload runs in fresh processes started from this one with every
``REPRO_*`` variable removed and ``PYTHONPATH=src``.  The amount of
work is fixed by ``--seed`` and ``--seconds`` (never cut by a clock).
Every answer is checked against properties the method must have and,
for a sample, against this directory's own Monte-Carlo simulator.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``;
with ``--trace 1`` the per-layer metrics of a traced pass, which runs
after an untraced pass of the same work so that the tracing overhead
can be reported.  Lines before it record the environment and sample
counts.  See README.md for the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

import checks
import spec
import tracer as tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT_DIR = BENCH_DIR.parent

#: Child-process limits (seconds).
CHILD_TIMEOUT = 150
SERVER_READY_TIMEOUT = 60
SERVER_STOP_TIMEOUT = 30

E2E_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "rr_sets_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "goodput_qps": "1/s",
    "round_ms": "ms",
    "restart_s": "s",
    "alpha": "ratio",
    "peak_rss_mb": "MiB",
}

LAYER_UNITS = {
    "graph.build_s": "s",
    "sampling.prepare_s": "s",
    "sampling.fill_s": "s",
    "sampling.rr_sets": "count",
    "sampling.rr_sets_per_s": "1/s",
    "sampling.edges_examined": "count",
    "sampling.mean_rr_size": "nodes",
    "collection.build_s": "s",
    "collection.builds": "count",
    "collection.entries_indexed": "count",
    "collection.sketch_mb": "MiB",
    "maxcover.greedy_s": "s",
    "maxcover.greedy_calls": "count",
    "maxcover.bound_s": "s",
    "bounds.s": "s",
    "bounds.calls": "count",
    "core.self_s": "s",
    "opimc.iterations": "count",
    "opimc.rr_sets": "count",
    "index.save_s": "s",
    "index.save_mb": "MiB",
    "index.load_s": "s",
    "index.load_mb": "MiB",
    "engine.answer_s": "s",
    "engine.answers": "count",
    "engine.sampled_answers": "count",
    "server.overhead_ms": "ms",
    "server.cached_ms": "ms",
    "cache.hit_ratio": "ratio",
    "server.coalesced": "count",
    "rss.peak_over_sketch": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.unaccounted_frac": "ratio",
}


class BenchError(RuntimeError):
    """A run that cannot produce a result (a child failed or hung)."""


def serve_cpu() -> set:
    """The one core the server and the load generator share on ``serve``.

    On a virtual machine a core left idle between requests halts, and
    waking it goes through the host, so with the two processes on
    separate cores the host's load set client latency.  Over eight
    interleaved pairs of runs on a two-core machine the spread
    (Q3 - Q1) / median of ``p50_ms`` was 0.32 on separate cores against
    0.16 on one shared core, which the closed loop keeps busy.
    """
    return {min(os.sched_getaffinity(0))}


def clean_environment() -> Dict[str, str]:
    """The caller's environment minus ``REPRO_*``, with ``PYTHONPATH=src``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT_DIR / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Pass:
    """One pass of a workload: its work directory, children and server."""

    def __init__(
        self, args: argparse.Namespace, workdir: Path, trace: bool, setups: int
    ) -> None:
        self.args = args
        self.workdir = workdir
        self.trace = trace
        self.setups = setups
        self.env = clean_environment()
        self.server: Optional[subprocess.Popen] = None
        self.server_dumps: List[Dict[str, Any]] = []
        workdir.mkdir(parents=True)

    def child(self, phase: str, **extra: Any) -> Dict[str, Any]:
        command = [
            sys.executable, str(BENCH_DIR / "worker.py"), phase,
            "--seed", str(self.args.seed), "--seconds", str(self.args.seconds),
            "--workdir", str(self.workdir), "--trace", str(int(self.trace)),
        ]
        for key, value in extra.items():
            command += [f"--{key}", str(value)]
        done = subprocess.run(
            command, env=self.env, cwd=ROOT_DIR, capture_output=True,
            text=True, timeout=CHILD_TIMEOUT,
        )
        if done.returncode != 0:
            raise BenchError(
                f"{phase} exited with {done.returncode}: {done.stderr[-2000:]}"
            )
        return json.loads(done.stdout.strip().splitlines()[-1])

    # -- serve: the server process -------------------------------------
    def start_server(self, engine_seed: int, ready_id: str) -> Dict[str, Any]:
        """Launch the server; time it until its first certified answer."""
        port_file = self.workdir / "port"
        if port_file.exists():
            port_file.unlink()
        log = open(self.workdir / "server.log", "ab")
        started = time.perf_counter()
        try:
            self.server = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "launcher.py"),
                 "--workdir", str(self.workdir), "--engine-seed", str(engine_seed),
                 "--trace", str(int(self.trace))],
                env=self.env, cwd=ROOT_DIR, stdout=log, stderr=log,
            )
        finally:
            log.close()
        os.sched_setaffinity(self.server.pid, serve_cpu())
        while not port_file.exists():
            if self.server.poll() is not None:
                raise BenchError("server exited during start; see server.log")
            if time.perf_counter() - started > SERVER_READY_TIMEOUT:
                raise BenchError("server did not bind within the time limit")
            time.sleep(0.005)
        port = int(port_file.read_text())
        status, answer = post_query(port, spec.SERVE_READY_QUERY, ready_id)
        seconds = time.perf_counter() - started
        if status != 200:
            raise BenchError(f"readiness query failed with HTTP {status}")
        return {"port": port, "start_s": seconds, "answer": answer}

    def stop_server(self) -> Dict[str, Any]:
        server, self.server = self.server, None
        if server is None:
            return {}
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=SERVER_STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
            raise BenchError("server did not drain within the time limit")
        path = self.workdir / f"server-{server.pid}.json"
        if server.returncode != 0 or not path.exists():
            raise BenchError(f"server exited with {server.returncode}")
        result = json.loads(path.read_text())
        if "trace" in result:
            self.server_dumps.append(result["trace"])
        return result

    def close(self) -> None:
        if self.server is not None:
            self.server.kill()
            self.server.wait()
            self.server = None

    def trace_dumps(self) -> List[Dict[str, Any]]:
        return self.server_dumps + [
            json.loads(path.read_text())
            for path in sorted(self.workdir.glob("trace-*.json"))
        ]


def post_query(
    port: int, query: Dict[str, Any], trace_id: str
) -> "tuple[int, Dict[str, Any]]":
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=CHILD_TIMEOUT)
    try:
        conn.request(
            "POST", "/query", body=json.dumps(query).encode(),
            headers={"Content-Type": "application/json", "X-Trace-Id": trace_id},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Workloads.  Each returns attempted/failed, the problems its checks
# found, end-to-end metrics, and what the traced analysis needs.
# ----------------------------------------------------------------------
def answer_problems(
    answers: Sequence[Dict[str, Any]],
    graph: checks.GraphArrays,
    model: str,
    simulate: Sequence[int] = (),
) -> List[str]:
    problems: List[str] = []
    for i, answer in enumerate(answers):
        problems += checks.check_answer(
            answer, graph, model, simulate=i in simulate, mc_seed=i
        )
    return problems


def run_solve(work: Pass) -> Dict[str, Any]:
    setups = [work.child("setup", workload="solve") for _ in range(work.setups)]
    result = work.child("solve")
    solves = result["solves"]
    graphs = [
        checks.load_graph_arrays(str(work.workdir / f"graph-{i}.npz"))
        for i in range(len(spec.SOLVE_GRAPHS))
    ]
    problems: List[str] = []
    for solve in solves:
        problems += checks.check_solve(solve)
    for graph_index, graph in enumerate(graphs):
        for model in spec.SOLVE_MODELS:
            mine = [
                s for s in solves if (s["graph"], s["model"]) == (graph_index, model)
            ]
            problems += answer_problems(mine, graph, model, simulate=(0,))
    # The four configurations take from 0.5 s to 2 s per call, so a
    # median over all calls falls between two of them and jumps with
    # the two calls on either side.  Each configuration's median is
    # steady; the typical call is their mean, the tail the slowest.
    config_s = spec.medians_by(solves, lambda s: (s["graph"], s["model"]))
    restarts = spec.medians_by(result["restarts"], lambda r: r["graph"])
    solve_s = sum(config_s) / len(config_s)
    metrics = {
        "setup_s": spec.median([s["setup_s"] for s in setups]),
        "solve_s": solve_s,
        "rr_sets_per_s": sum(s["num_rr_sets"] for s in solves)
        / sum(s["seconds"] for s in solves),
        "p50_ms": 1e3 * solve_s,
        "tail_ms": 1e3 * max(config_s),
        "goodput_qps": len(solves) / result["loop_s"],
        "round_ms": 1e3 * spec.median(result["rounds"]),
        "restart_s": sum(restarts) / len(restarts),
        "alpha": spec.median([s["alpha"] for s in solves]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {
        "attempted": result["attempted"], "failed": result["failed"],
        "problems": problems, "metrics": metrics,
        "samples": {"solves": len(solves), "configurations": len(config_s),
                    "rounds": len(result["rounds"]),
                    "restarts": len(result["restarts"])},
        "environment": result["environment"],
        "loop_s": result["loop_s"], "e2e_s": result["loop_s"],
        "roots": [], "root_layers": (tracing.ROOT,),
        "peak_rss_mb": result["peak_rss_mb"], "responses": [],
    }


def client_loop(port: int, queries: Sequence[Dict[str, Any]]) -> List[tuple]:
    """Closed loop over *queries* with ``SERVE_CONNECTIONS`` connections.

    Returns ``(start, end, status, body)`` per query; bodies are parsed
    after the loop so the client spends as little time as it can.
    """
    samples: List[Optional[tuple]] = [None] * len(queries)
    lock = threading.Lock()
    cursor = [0]

    def connection() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=CHILD_TIMEOUT)
        try:
            while True:
                with lock:
                    i = cursor[0]
                    if i >= len(queries):
                        return
                    cursor[0] = i + 1
                body = json.dumps(queries[i]).encode()
                headers = {"Content-Type": "application/json", "X-Trace-Id": f"q{i}"}
                start = time.perf_counter()
                try:
                    conn.request("POST", "/query", body=body, headers=headers)
                    response = conn.getresponse()
                    data = response.read()
                    status = response.status
                except (OSError, http.client.HTTPException) as exc:
                    data, status = repr(exc).encode(), 0
                    conn.close()
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", port, timeout=CHILD_TIMEOUT
                    )
                samples[i] = (start, time.perf_counter(), status, data)
        finally:
            conn.close()

    threads = [
        threading.Thread(target=connection, name=f"conn-{i}")
        for i in range(spec.SERVE_CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples  # type: ignore[return-value]


def run_serve(work: Pass) -> Dict[str, Any]:
    engine_seed = spec.engine_seed(work.args.seed, "serve")
    setups, starts = [], []
    for repeat in range(work.setups):
        setups.append(work.child("setup", workload="serve"))
        starts.append(work.start_server(engine_seed, f"ready-{repeat}"))
        if repeat < work.setups - 1:
            work.stop_server()
    queries = spec.serve_sequence(work.args.seed, work.args.seconds)
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, serve_cpu())
    try:
        samples = client_loop(starts[-1]["port"], queries)
    finally:
        os.sched_setaffinity(0, allowed)
    server = work.stop_server()

    responses, latencies, failed = [], [], 0
    for start, end, status, data in samples:
        if status != 200:
            failed += 1
            continue
        response = json.loads(data)
        response["latency_s"] = end - start
        responses.append(response)
        latencies.append(end - start)
    graph = checks.load_graph_arrays(str(work.workdir / "graph-0.npz"))
    answered = [start["answer"] for start in starts] + responses
    problems = checks.check_serve(answered)
    distinct: Dict[tuple, Dict[str, Any]] = {}
    for response in answered:
        distinct.setdefault((response["k"], response["alpha_target"]), response)
    keys = sorted(distinct)
    picks = {i * (len(keys) - 1) // 3 for i in range(4)}
    problems += answer_problems(
        [distinct[key] for key in keys], graph, spec.SERVE_MODEL, simulate=picks
    )
    engine_answered = [
        r["latency_s"] for r in responses if not r["cached"] and not r["coalesced"]
    ]
    latency_ms = [1e3 * s for s in latencies]
    tail_ms, level = spec.tail(latency_ms)
    loop_start = min(s[0] for s in samples)
    ends = sorted(s[1] for s in samples)
    loop_s = ends[-1] - loop_start
    marks = [loop_start] + ends[spec.SERVE_BLOCK - 1::spec.SERVE_BLOCK]
    blocks = [b - a for a, b in zip(marks, marks[1:])]
    metrics = {
        "setup_s": spec.median(
            [s["setup_s"] + t["start_s"] for s, t in zip(setups, starts)]
        ),
        "solve_s": spec.median(engine_answered),
        "rr_sets_per_s": sum(s["rr_sets"] for s in setups)
        / sum(s["extend_s"] for s in setups),
        "p50_ms": spec.median(latency_ms),
        "tail_ms": tail_ms,
        "goodput_qps": len(responses) / loop_s,
        "round_ms": 1e3 * spec.median(blocks),
        "restart_s": spec.median([t["start_s"] for t in starts]),
        "alpha": spec.median([r["alpha"] for r in responses]),
        "peak_rss_mb": server["peak_rss_mb"],
    }
    roots = [
        ["request", "client", start, end, None, f"q{i}"]
        for i, (start, end, *_) in enumerate(samples)
    ]
    return {
        "attempted": len(queries), "failed": failed,
        "problems": problems, "metrics": metrics,
        "samples": {"queries": len(latencies), "tail_percentile": level,
                    "engine_answered": len(engine_answered),
                    "cached": sum(1 for r in responses if r["cached"]),
                    "distinct_keys": len(keys), "blocks": len(blocks),
                    "restarts": len(starts)},
        "environment": server["environment"],
        "loop_s": loop_s, "e2e_s": spec.SERVE_CONNECTIONS * loop_s,
        "roots": roots, "root_layers": ("client",),
        "peak_rss_mb": server["peak_rss_mb"], "responses": responses,
    }


def run_online(work: Pass) -> Dict[str, Any]:
    setups = [work.child("setup", workload="online") for _ in range(work.setups)]
    result = work.child("online")
    rounds, restarts = result["rounds"], result["restarts"]
    graph = checks.load_graph_arrays(str(work.workdir / "graph-0.npz"))
    answers = [r["answer"] for r in rounds]
    problems = answer_problems(
        answers + [result["reference"]], graph, spec.ONLINE_MODEL,
        simulate=(len(answers) - 1,),
    )
    problems += [
        f"round answer sampled {a['sampled']} RR sets" for a in answers if a["sampled"]
    ]
    problems += checks.check_restarts(
        result["reference"], [r["answer"] for r in restarts]
    )
    round_ms = [1e3 * r["round_s"] for r in rounds]
    tail_ms, level = spec.tail(round_ms)
    metrics = {
        "setup_s": spec.median([s["setup_s"] for s in setups]),
        "solve_s": spec.median([r["answer_s"] for r in rounds]),
        "rr_sets_per_s": sum(r["rr_sets"] for r in rounds)
        / sum(r["extend_s"] for r in rounds),
        "p50_ms": spec.median(round_ms),
        "tail_ms": tail_ms,
        "goodput_qps": (len(rounds) + len(restarts)) / result["loop_s"],
        "round_ms": spec.median(round_ms),
        "restart_s": spec.median([r["restart_s"] for r in restarts]),
        "alpha": answers[-1]["alpha"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {
        "attempted": result["attempted"], "failed": result["failed"],
        "problems": problems, "metrics": metrics,
        "samples": {"rounds": len(rounds), "tail_percentile": level,
                    "restarts": len(restarts)},
        "environment": result["environment"],
        "loop_s": result["loop_s"], "e2e_s": result["loop_s"],
        "roots": [], "root_layers": (tracing.ROOT,),
        "peak_rss_mb": result["peak_rss_mb"], "responses": [],
    }


WORKLOADS: Dict[str, Callable[[Pass], Dict[str, Any]]] = {
    "solve": run_solve,
    "serve": run_serve,
    "online": run_online,
}


def layer_metrics(
    traced: Dict[str, Any], untraced: Dict[str, Any], dumps: List[Dict[str, Any]]
) -> "tuple[Dict[str, float], List[str]]":
    """Per-layer metrics of the traced pass, and any accounting problem."""
    summary = tracing.summarize(
        dumps, roots=traced["roots"], e2e_seconds=traced["e2e_s"],
        root_layers=traced["root_layers"],
    )
    metrics = dict(summary["metrics"])
    responses = traced["responses"]
    engine = [r for r in responses if not r["cached"] and not r["coalesced"]]
    cached = [r for r in responses if r["cached"]]
    metrics["server.overhead_ms"] = (
        spec.median([1e3 * (r["latency_s"] - r["engine_seconds"]) for r in engine])
        if engine else 0.0
    )
    metrics["server.cached_ms"] = (
        spec.median([1e3 * r["latency_s"] for r in cached]) if cached else 0.0
    )
    metrics["cache.hit_ratio"] = len(cached) / len(responses) if responses else 0.0
    metrics["server.coalesced"] = sum(1 for r in responses if r["coalesced"])
    sketch_mb = metrics["collection.sketch_mb"]
    metrics["rss.peak_over_sketch"] = (
        traced["peak_rss_mb"] / sketch_mb if sketch_mb else 0.0
    )
    metrics["trace.overhead_frac"] = traced["loop_s"] / untraced["loop_s"] - 1.0
    print(json.dumps({"layer_self_s": summary["layer_self_s"],
                      "unaccounted_s": summary["unaccounted_s"],
                      "e2e_s": summary["e2e_s"], "spans": summary["spans"],
                      "missing_targets": summary["missing_targets"]}))
    return metrics, summary["problems"]


def execute(args: argparse.Namespace, workdir: Path) -> Dict[str, Any]:
    runner = WORKLOADS[args.workload]
    # The untraced pass of a traced run only times the loop for
    # trace.overhead_frac, so it sets up once.
    passes = [(False, 1), (True, spec.SETUP_REPEATS)] if args.trace else [
        (False, spec.SETUP_REPEATS)
    ]
    outcomes = []
    for trace, setups in passes:
        work = Pass(args, workdir / f"pass-{int(trace)}", trace, setups)
        try:
            outcome = runner(work)
        finally:
            work.close()
        outcome["dumps"] = work.trace_dumps()
        outcomes.append(outcome)
    problems = [p for outcome in outcomes for p in outcome["problems"]]
    attempted = sum(o["attempted"] for o in outcomes)
    failed = sum(o["failed"] for o in outcomes)
    if args.trace:
        untraced, traced = outcomes
        values, trace_problems = layer_metrics(traced, untraced, traced["dumps"])
        problems += trace_problems
        units = LAYER_UNITS
    else:
        values, units = outcomes[0]["metrics"], E2E_UNITS
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "environment": outcomes[-1]["environment"],
                      "samples": outcomes[-1]["samples"]}))
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    bad = [name for name, value in values.items() if not math.isfinite(value)]
    if bad:
        raise BenchError(f"non-finite metrics: {bad}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT_DIR / "src" / "repro").is_dir():
        print(f"no package source at {ROOT_DIR / 'src' / 'repro'}", file=sys.stderr)
        return 2
    # A terminated run still stops its server and removes its work
    # directory: SystemExit unwinds through every ``finally`` below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    work_root = ROOT_DIR / ".bench_work"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    try:
        result = execute(args, workdir)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
