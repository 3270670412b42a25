"""Tests of the benchmark's own output checks and trace arithmetic.

Run from the repository root::

    python3 -m pytest perfbench/test_checks.py

The checks must pass honest answers and reject corrupted ones: an
inflated sigma_l, a restarted answer whose seeds differ, a ``serve``
answer that sampled, or two seed sets for one key.  The trace analysis
must reject a traced run whose layers leave the end-to-end time
unaccounted or whose entry points are missing.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import tracer

SRC = Path(__file__).resolve().parent.parent / "src"


def chain(n: int, prob: float) -> checks.GraphArrays:
    """0 -> 1 -> ... -> n-1, every edge with probability *prob*."""
    offsets = np.concatenate(([0], np.arange(n - 1) + 1, [n - 1]))
    return checks.GraphArrays(
        n=n,
        out_offsets=offsets.astype(np.int64),
        out_targets=np.arange(1, n, dtype=np.int64),
        out_probs=np.full(n - 1, prob),
    )


def test_ic_simulator_on_a_chain():
    rng = np.random.default_rng(0)
    assert (checks.simulate_ic(chain(6, 1.0), [0], 20, rng) == 6).all()
    assert (checks.simulate_ic(chain(6, 0.0), [0, 3], 20, rng) == 2).all()
    sizes = checks.simulate_ic(chain(3, 0.5), [0], 20000, rng)
    assert sizes.mean() == pytest.approx(1.75, abs=0.03)


def test_lt_simulator_on_a_chain():
    rng = np.random.default_rng(1)
    assert (checks.simulate_lt(chain(40, 1.0), [0], 20, rng) == 40).all()
    sizes = checks.simulate_lt(chain(3, 0.5), [0], 20000, rng)
    assert sizes.mean() == pytest.approx(1.75, abs=0.03)


def _answer(seeds, low, up):
    return {"k": len(seeds), "seeds": seeds, "sigma_low": low, "sigma_up": up}


def test_check_answer_accepts_honest_bounds_and_rejects_inflated_sigma_l():
    graph = chain(50, 0.9)
    mean, _ = checks.estimate_spread(graph, "IC", [0])
    honest = _answer([0], 0.8 * mean, 1.2 * mean)
    assert checks.check_answer(honest, graph, "IC") == []
    inflated = _answer([0], 2.0 * mean, 3.0 * mean)
    problems = checks.check_answer(inflated, graph, "IC")
    assert any("exceeds simulated spread" in p for p in problems)
    deflated = _answer([0], 0.1 * mean, 0.5 * mean)
    problems = checks.check_answer(deflated, graph, "IC")
    assert any("exceeds sigma_u" in p for p in problems)


def test_check_answer_rejects_bad_seed_sets_and_crossed_bounds():
    graph = chain(5, 0.5)
    for answer in (
        _answer([0, 0], 1, 2),  # duplicate seed
        _answer([0, 9], 1, 2),  # seed outside [0, n)
        _answer([0], 3, 2),  # sigma_l > sigma_u
    ):
        assert checks.check_answer(answer, graph, "IC", simulate=False)


def test_check_solve_enforces_the_target_only_when_stopped_on_it():
    answer = {"epsilon": 0.1, "alpha": 0.40, "stopped_by": "alpha"}
    assert checks.check_solve(answer)
    assert checks.check_solve({**answer, "stopped_by": "i_max"}) == []
    assert checks.check_solve({**answer, "alpha": 0.54}) == []


def test_check_serve_rejects_sampling_and_split_keys():
    base = {"k": 3, "alpha_target": 0.5, "seeds": [1, 2, 3], "sampled": 0}
    assert checks.check_serve([base, dict(base)]) == []
    assert checks.check_serve([base, {**base, "sampled": 2000}])
    assert checks.check_serve([base, {**base, "seeds": [1, 2, 4]}])


def test_check_restarts_rejects_any_drift():
    reference = {"seeds": [4, 1], "alpha": 0.61, "sigma_low": 10.5,
                 "sigma_up": 17.25}
    assert checks.check_restarts(reference, [dict(reference)] * 3) == []
    assert checks.check_restarts(reference, [{**reference, "seeds": [1, 4]}])
    assert checks.check_restarts(reference, [{**reference, "alpha": 0.6100000001}])


def test_a_real_answer_passes_and_its_corruptions_fail():
    sys.path.insert(0, str(SRC))
    try:
        from repro import load_dataset, opim_c
    finally:
        sys.path.remove(str(SRC))
    graph = load_dataset("pokec-sim", scale=0.1)
    arrays = checks.GraphArrays(
        graph.n, graph.out_offsets.astype(np.int64),
        graph.out_targets.astype(np.int64), graph.out_probs.astype(float),
    )
    result = opim_c(graph, "IC", k=5, epsilon=0.3, seed=3)
    last = result.extra["alpha_trajectory"][-1]
    answer = {"k": 5, "seeds": result.seeds,
              "sigma_low": last["sigma_low"], "sigma_up": last["sigma_up"]}
    assert checks.check_answer(answer, arrays, "IC") == []
    inflated = {**answer, "sigma_low": 3 * answer["sigma_low"],
                "sigma_up": 3 * answer["sigma_up"]}
    assert checks.check_answer(inflated, arrays, "IC")


def test_self_time_subtracts_children_and_accounting_adds_up():
    spans = [
        ["round", tracer.ROOT, 0.0, 10.0, None, "r"],
        ["engine.answer", "engine", 1.0, 6.0, 0, "r"],
        ["maxcover.greedy", "maxcover", 2.0, 5.0, 1, "r"],
    ]
    assert tracer.self_times(spans) == [5.0, 2.0, 3.0]
    summary = tracer.summarize([dump_of(spans)], e2e_seconds=12.0)
    assert summary["layer_self_s"]["engine"] == 2.0
    assert summary["layer_self_s"]["maxcover"] == 3.0
    assert summary["unaccounted_s"] == pytest.approx(7.0)  # 5 s self + 2 s gap
    assert summary["accounting_error"] == pytest.approx(0.0)


def dump_of(spans, missing=()):
    return {"spans": spans, "counters": {}, "sketch_bytes": 0,
            "missing": list(missing)}


def test_accounting_catches_overlapping_children():
    spans = [
        ["round", tracer.ROOT, 0.0, 10.0, None, None],
        ["engine.answer", "engine", 0.0, 8.0, 0, None],
        ["engine.extend", "engine", 4.0, 10.0, 0, None],
    ]
    summary = tracer.summarize([dump_of(spans)], e2e_seconds=10.0)
    assert summary["accounting_error"] > 0.3
    assert any("overlap" in problem for problem in summary["problems"])


def test_traced_run_is_rejected_when_layers_leave_time_unaccounted():
    covered = [
        ["round", tracer.ROOT, 0.0, 10.0, None, "r"],
        ["engine.answer", "engine", 0.1, 9.9, 0, "r"],
    ]
    summary = tracer.summarize([dump_of(covered)], e2e_seconds=10.0)
    assert summary["metrics"]["trace.unaccounted_frac"] == pytest.approx(0.02)
    assert summary["problems"] == []
    # The same round with a large gap no layer span covers.
    gap = [
        ["round", tracer.ROOT, 0.0, 10.0, None, "r"],
        ["engine.answer", "engine", 1.0, 2.0, 0, "r"],
    ]
    summary = tracer.summarize([dump_of(gap)], e2e_seconds=10.0)
    assert summary["metrics"]["trace.unaccounted_frac"] == pytest.approx(0.9)
    assert any("unaccounted" in problem for problem in summary["problems"])
    # Time between operations counts as unaccounted too.
    summary = tracer.summarize([dump_of(covered)], e2e_seconds=20.0)
    assert any("unaccounted" in problem for problem in summary["problems"])


def test_traced_run_is_rejected_when_an_entry_point_is_missing():
    spans = [["round", tracer.ROOT, 0.0, 10.0, None, "r"],
             ["engine.answer", "engine", 0.0, 10.0, 0, "r"]]
    summary = tracer.summarize(
        [dump_of(spans, missing=["repro.serve.engine.SeedQueryEngine.answer"])],
        e2e_seconds=10.0,
    )
    assert any("not found" in problem for problem in summary["problems"])


def test_server_spans_split_client_time_from_server_time():
    # Client request 0-10; in the server, the dispatch (1-7) waits for an
    # engine answer on another thread (2-6), then renders the response.
    roots = [["request", "client", 0.0, 10.0, None, "q0"]]
    server = [
        ["engine.answer", "engine", 2.0, 6.0, None, "q0"],
        ["maxcover.greedy", "maxcover", 3.0, 5.0, 0, "q0"],
        ["server.dispatch", "server", 1.0, 7.0, None, "q0"],
        ["server.render", "server", 7.5, 8.0, None, "q0"],
    ]
    summary = tracer.summarize(
        [dump_of(server)], roots=roots, e2e_seconds=10.0, root_layers=("client",)
    )
    layers = summary["layer_self_s"]
    assert layers["engine"] == pytest.approx(2.0)
    assert layers["maxcover"] == pytest.approx(2.0)
    assert layers["server"] == pytest.approx(2.5)
    assert layers["client"] == pytest.approx(3.5)
    assert summary["unaccounted_s"] == pytest.approx(0.0)
    assert summary["problems"] == []


def test_coroutines_are_recorded_with_their_request_id():
    import asyncio

    class Request:
        headers = {"x-trace-id": "q7"}

    async def dispatch(self, request):
        await asyncio.sleep(0)
        return 200

    recorder = tracer.Tracer("test")
    traced = recorder._wrap(dispatch, "server", "server.dispatch", None, None,
                            tracer._header_trace_id)
    assert asyncio.run(traced(None, Request())) == 200
    [span] = recorder.spans
    assert span[0:2] == ["server.dispatch", "server"]
    assert span[4:] == [None, "q7"] and span[3] > span[2]


def test_tracer_wraps_functions_where_callers_look_them_up():
    sys.path.insert(0, str(SRC))
    try:
        import repro.core.opim as opim
        import repro.maxcover.greedy as greedy
    finally:
        sys.path.remove(str(SRC))
    original = greedy.greedy_max_coverage
    recorder = tracer.Tracer("test")
    recorder.install()
    try:
        assert opim.greedy_max_coverage is not original
        assert greedy.greedy_max_coverage is opim.greedy_max_coverage
    finally:
        recorder.uninstall()
    assert opim.greedy_max_coverage is original
    assert recorder.missing == []
