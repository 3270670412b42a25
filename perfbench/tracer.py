"""Outside-in tracer for the traced benchmark run.

The package is not edited to be traced.  Instead :meth:`Tracer.install`
wraps the public entry points of each layer from outside, in every
place a caller looks them up: a module-level function is replaced in
its defining module *and* in every loaded ``repro`` module that imported
it by name; a method is replaced on its class.  Each call records a
span ``(name, layer, start, end, parent, request)`` in memory, and
hooks count the work done at the same boundary (RR sets sampled,
entries indexed, bytes written, ...).  Spans are written out once, when
the process ends.

:func:`summarize` merges the dumps of every traced process of one run
(set-up, workload, server), attaches server-side spans to the client
request that caused them by request id, and turns them into the
per-layer metrics of ``BENCHMARK.json``.  A layer's self time is its
spans' time minus the part covered by their child spans.  The run is
rejected when the layers leave more than :data:`UNACCOUNTED_LIMIT` of
the end-to-end time unaccounted, or when an entry point is missing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from typing import (
    Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

#: Layers, in the order the README's layer map lists them.  ``client``
#: is the self time of the ``serve`` load generator's request spans:
#: client-side HTTP, the loopback socket and the server's own HTTP
#: framing outside its request dispatch.
LAYERS = (
    "graph", "sampling", "collection", "maxcover", "bounds",
    "core", "index", "engine", "server", "client",
)

#: Layer of the benchmark's own operation spans (a solve, a round, a
#: restart).  Their self time is work no wrapped layer accounts for.
ROOT = "unaccounted"

#: Largest share of the end-to-end time the layers may leave
#: unaccounted.  Measured runs leave 0.4-1.6%; a renamed entry point
#: that drops a layer's spans leaves far more.
UNACCOUNTED_LIMIT = 0.05

#: Largest share by which the layers' self times plus the unaccounted
#: time may miss the end-to-end time.  They match by construction
#: unless child spans overlap, so this is a sanity check on the tree.
OVERLAP_TOLERANCE = 0.03

Hook = Callable[..., Any]


def _files_bytes(directory: Any, suffixes: Sequence[str]) -> int:
    total = 0
    try:
        names = os.listdir(directory)
    except OSError:
        return 0
    for name in names:
        if name.endswith(tuple(suffixes)):
            try:
                total += os.path.getsize(os.path.join(directory, name))
            except OSError:
                pass
    return total


def _argument(args: tuple, kwargs: dict, position: int, name: str) -> Any:
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else None


# ----------------------------------------------------------------------
# Hooks: (tracer, args, kwargs) -> state before; (tracer, args, kwargs,
# state, result) -> None after the call.
# ----------------------------------------------------------------------
def _fill_before(tracer, args, kwargs):
    sampler, collection = args[0], _argument(args, kwargs, 1, "collection")
    return (
        getattr(sampler, "sets_generated", 0),
        getattr(sampler, "edges_examined", 0),
        getattr(collection, "total_size", 0),
    )


def _fill_after(tracer, args, kwargs, state, result):
    sampler, collection = args[0], _argument(args, kwargs, 1, "collection")
    sets, edges, entries = state
    tracer.count("sampling.rr_sets", getattr(sampler, "sets_generated", 0) - sets)
    tracer.count(
        "sampling.edges_examined", getattr(sampler, "edges_examined", 0) - edges
    )
    tracer.count("sampling.entries", getattr(collection, "total_size", 0) - entries)


def _build_before(tracer, args, kwargs):
    collection = args[0]
    return tracer.built_sizes.get(collection) != len(collection)


def _build_after(tracer, args, kwargs, rebuilt, result):
    collection = args[0]
    if not rebuilt:
        return
    tracer.built_sizes[collection] = len(collection)
    tracer.count("collection.builds")
    tracer.count("collection.entries_indexed", collection.total_size)
    nbytes = sum(
        int(getattr(getattr(collection, attr, None), "nbytes", 0))
        for attr in ("rr_nodes", "rr_offsets", "node_rrs", "node_offsets")
    )
    tracer.note_sketch(id(collection), nbytes)


def _counter_after(counter):
    def after(tracer, args, kwargs, state, result):
        tracer.count(counter)
    return after


def _opimc_after(tracer, args, kwargs, state, result):
    tracer.count("opimc.iterations", result.iterations)
    tracer.count("opimc.rr_sets", result.num_rr_sets)


def _save_index_after(tracer, args, kwargs, state, result):
    directory = _argument(args, kwargs, 0, "directory")
    tracer.count("index.save_bytes", _files_bytes(directory, (".npy",)))


def _save_manifest_after(tracer, args, kwargs, state, result):
    directory = _argument(args, kwargs, 0, "directory")
    tracer.count("index.save_bytes", _files_bytes(directory, ("manifest.json",)))


def _load_index_after(tracer, args, kwargs, state, result):
    directory = _argument(args, kwargs, 0, "directory")
    tracer.count("index.loads")
    tracer.count("index.load_bytes", _files_bytes(directory, (".npy", ".json")))


def _answer_after(tracer, args, kwargs, state, result):
    tracer.count("engine.answers")
    if int(result.get("sampled", 0)) > 0:
        tracer.count("engine.sampled_answers")


def _header_trace_id(args, kwargs):
    return args[1].headers.get("x-trace-id")


def _payload_trace_id(args, kwargs):
    payload = args[1]
    return payload.get("trace_id") if isinstance(payload, dict) else None


class Target(NamedTuple):
    """One wrapped entry point.  A *path* with a dot names a method on a
    class of *module*.  *request* gives a call's request id; by default
    its ``trace_id`` keyword argument."""

    module: str
    path: str
    layer: str
    name: str
    before: Optional[Hook] = None
    after: Optional[Hook] = None
    request: Optional[Callable[[tuple, dict], Any]] = None


TARGETS: Tuple[Target, ...] = tuple(Target(*target) for target in (
    ("repro.datasets.registry", "load_dataset", "graph", "graph.build", None, None),
    ("repro.graph.digraph", "DiGraph.__init__", "graph", "graph.build", None, None),
    ("repro.sampling.generator", "RRSampler.__init__",
     "sampling", "sampling.prepare", None, None),
    ("repro.sampling.kernel", "KernelRRSampler.__init__",
     "sampling", "sampling.prepare", None, None),
    ("repro.sampling.rrset_lt", "LTAliasTables.__init__",
     "sampling", "sampling.prepare", None, None),
    ("repro.sampling.generator", "RRSampler.fill",
     "sampling", "sampling.fill", _fill_before, _fill_after),
    ("repro.sampling.kernel", "KernelRRSampler.fill",
     "sampling", "sampling.fill", _fill_before, _fill_after),
    ("repro.sampling.collection", "RRCollection.build",
     "collection", "collection.build", _build_before, _build_after),
    ("repro.sampling.collection", "RRCollection.coverage",
     "collection", "collection.coverage", None, None),
    ("repro.maxcover.greedy", "greedy_max_coverage",
     "maxcover", "maxcover.greedy", None, _counter_after("maxcover.greedy_calls")),
    ("repro.maxcover.bounds", "coverage_upper_bound_greedy",
     "maxcover", "maxcover.bound", None, None),
    ("repro.maxcover.bounds", "coverage_upper_bound_leskovec",
     "maxcover", "maxcover.bound", None, None),
    ("repro.maxcover.bounds", "coverage_upper_bound_pessimistic",
     "maxcover", "maxcover.bound", None, None),
    ("repro.bounds.concentration", "sigma_lower_bound",
     "bounds", "bounds", None, _counter_after("bounds.calls")),
    ("repro.bounds.concentration", "sigma_upper_bound",
     "bounds", "bounds", None, _counter_after("bounds.calls")),
    ("repro.bounds.concentration", "approximation_guarantee",
     "bounds", "bounds", None, _counter_after("bounds.calls")),
    ("repro.core.opimc", "OPIMC.run", "core", "core.opimc", None, _opimc_after),
    ("repro.core.session", "OPIMSession.run_until",
     "core", "core.session", None, None),
    ("repro.core.opim", "OnlineOPIM.query", "core", "core.query", None, None),
    ("repro.serve.index", "save_index",
     "index", "index.save", None, _save_index_after),
    ("repro.serve.index", "save_manifest",
     "index", "index.save", None, _save_manifest_after),
    ("repro.serve.index", "load_index",
     "index", "index.load", None, _load_index_after),
    ("repro.serve.index", "graph_fingerprint",
     "index", "index.fingerprint", None, None),
    ("repro.serve.engine", "SeedQueryEngine.__init__",
     "engine", "engine.open", None, None),
    ("repro.serve.engine", "SeedQueryEngine.answer",
     "engine", "engine.answer", None, _answer_after),
    ("repro.serve.engine", "SeedQueryEngine.extend",
     "engine", "engine.extend", None, None),
    ("repro.serve.engine", "SeedQueryEngine.checkpoint",
     "engine", "engine.checkpoint", None, None),
    # The server's handling of one request: routing, parsing, the result
    # cache, the engine queue, then rendering the response.
    ("repro.serve.server", "SeedQueryServer._dispatch",
     "server", "server.dispatch", None, None, _header_trace_id),
    ("repro.serve.http", "render_response",
     "server", "server.render", None, None, _payload_trace_id),
))


class Tracer:
    """In-memory span and counter recorder for one process."""

    def __init__(self, process: str) -> None:
        self.process = process
        #: [name, layer, start, end, parent index, request id]
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.built_sizes: "weakref.WeakKeyDictionary[Any, int]" = (
            weakref.WeakKeyDictionary()
        )
        self.missing: List[str] = []
        self._sketch: Dict[Any, Dict[int, int]] = defaultdict(dict)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------
    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def note_sketch(self, key: int, nbytes: int) -> None:
        request = getattr(self._local, "request", None)
        with self._lock:
            self._sketch[request][key] = nbytes

    def record(
        self, name: str, layer: str, start: float, end: float, request: Any
    ) -> None:
        """Record a finished span with no parent (used for coroutines,
        which interleave on one thread and so cannot nest by stack)."""
        with self._lock:
            self.spans.append([name, layer, start, end, None, request])

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(
        self, name: str, layer: str, request: Optional[str] = None
    ) -> Iterator[None]:
        """Record one span; nested calls on this thread become its children."""
        stack = self._stack()
        local = self._local
        outer_request = getattr(local, "request", None)
        if request is None:
            request = outer_request
        with self._lock:
            index = len(self.spans)
            self.spans.append(
                [name, layer, 0.0, 0.0, stack[-1] if stack else None, request]
            )
        local.request = request
        stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            local.request = outer_request
            self.spans[index][2] = start
            self.spans[index][3] = end

    # -- installation --------------------------------------------------
    def _wrap(self, original, layer, name, before, after, request=None):
        tracer = self

        def request_of(args, kwargs):
            return request(args, kwargs) if request else kwargs.get("trace_id")

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def traced_async(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return await original(*args, **kwargs)
                finally:
                    tracer.record(
                        name, layer, start, time.perf_counter(),
                        request_of(args, kwargs),
                    )

            return traced_async

        @functools.wraps(original)
        def traced(*args, **kwargs):
            state = before(tracer, args, kwargs) if before else None
            with tracer.span(name, layer, request=request_of(args, kwargs)):
                result = original(*args, **kwargs)
            if after:
                after(tracer, args, kwargs, state, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        for module_name, path, layer, name, before, after, request in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{path}")
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapped = self._wrap(original, layer, name, before, after, request)
            if owner_name:
                self._replace(owner, attr, original, wrapped)
                continue
            # A function: replace it wherever a loaded repro module holds it.
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not (
                    loaded_name == "repro" or loaded_name.startswith("repro.")
                ):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._replace(loaded, key, original, wrapped)

    def _replace(self, owner: Any, attr: str, original: Any, wrapped: Any) -> None:
        setattr(owner, attr, wrapped)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- output --------------------------------------------------------
    def dump(self) -> Dict[str, Any]:
        sketch = max(
            (sum(sizes.values()) for sizes in self._sketch.values()), default=0
        )
        return {
            "process": self.process,
            "spans": self.spans,
            "counters": dict(self.counters),
            "sketch_bytes": sketch,
            "missing": self.missing,
        }


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def _merge(dumps: Sequence[Dict[str, Any]], roots: Sequence[list]) -> List[list]:
    """One span list over all processes.

    *roots* are client-side request spans.  A parentless span with a
    request id becomes the child of the shortest longer parentless span
    of that request that encloses it (the server's dispatch encloses
    the engine answer it waited for on another thread), else of the
    request's root.
    """
    spans: List[list] = []
    root_by_request: Dict[Any, int] = {}
    for root in roots:
        root_by_request[root[5]] = len(spans)
        spans.append(list(root[:4]) + [None, root[5]])
    orphans: Dict[Any, List[int]] = defaultdict(list)
    for dump in dumps:
        offset = len(spans)
        for name, layer, start, end, parent, request in dump["spans"]:
            if parent is not None:
                parent += offset
            elif request is not None:
                orphans[request].append(len(spans))
            spans.append([name, layer, start, end, parent, request])
    for request, members in orphans.items():
        for i in members:
            start, end = spans[i][2], spans[i][3]
            enclosing = [
                j for j in members
                if j != i and spans[j][2] <= start and end <= spans[j][3]
                and spans[j][3] - spans[j][2] > end - start
            ]
            if enclosing:
                spans[i][4] = min(
                    enclosing, key=lambda j: spans[j][3] - spans[j][2]
                )
            else:
                spans[i][4] = root_by_request.get(request)
    return spans


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[list]) -> List[float]:
    """Each span's duration minus the time its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            children[span[4]].append((span[2], span[3]))
    return [
        (span[3] - span[2]) - _covered(children.get(i, []), span[2], span[3])
        for i, span in enumerate(spans)
    ]


def _under(spans: Sequence[list], index: int, layers: Sequence[str]) -> bool:
    """Whether span *index* has an ancestor in one of *layers*."""
    parent = spans[index][4]
    while parent is not None:
        if spans[parent][1] in layers:
            return True
        parent = spans[parent][4]
    return False


def _outermost(spans: Sequence[list], name: str) -> float:
    """Inclusive time of *name* spans not nested in another *name* span."""
    total = 0.0
    for i, span in enumerate(spans):
        if span[0] != name:
            continue
        parent, nested = span[4], False
        while parent is not None:
            if spans[parent][0] == name:
                nested = True
                break
            parent = spans[parent][4]
        if not nested:
            total += span[3] - span[2]
    return total


def summarize(
    dumps: Sequence[Dict[str, Any]],
    roots: Sequence[list] = (),
    e2e_seconds: float = 0.0,
    root_layers: Sequence[str] = (ROOT,),
) -> Dict[str, Any]:
    """Per-layer metrics and the accounting check of one traced run.

    *e2e_seconds* is the measured loop's time by the benchmark's own
    clock (connection-seconds for ``serve``); spans of *root_layers*
    are the benchmark's operation spans inside it.  Work in the loop
    that no layer span covers — inside an operation but outside every
    wrapped entry point, or between operations — is unaccounted.
    """
    spans = _merge(dumps, roots)
    own = self_times(spans)
    counters: Dict[str, float] = defaultdict(float)
    sketch = 0
    missing: List[str] = []
    for dump in dumps:
        for key, value in dump["counters"].items():
            counters[key] += value
        sketch = max(sketch, int(dump["sketch_bytes"]))
        missing.extend(m for m in dump["missing"] if m not in missing)

    layer_self: Dict[str, float] = defaultdict(float)
    root_total = 0.0
    root_self = 0.0
    for i, span in enumerate(spans):
        inside = _under(spans, i, root_layers)
        if span[1] in root_layers and not inside:
            root_total += span[3] - span[2]
            if span[1] == ROOT:
                root_self += own[i]
            else:
                layer_self[span[1]] += own[i]
        elif inside:
            layer_self[span[1]] += own[i]
    gaps = max(0.0, e2e_seconds - root_total)
    unaccounted = root_self + gaps
    accounted = sum(layer_self.values()) + unaccounted
    error = abs(accounted - e2e_seconds) / e2e_seconds if e2e_seconds else 0.0
    unaccounted_frac = unaccounted / e2e_seconds if e2e_seconds else 0.0
    min_self = min(own) if own else 0.0
    problems = []
    if unaccounted_frac > UNACCOUNTED_LIMIT:
        problems.append(
            f"layers leave {unaccounted_frac:.1%} of the end-to-end time "
            f"unaccounted (limit {UNACCOUNTED_LIMIT:.0%})"
        )
    if error > OVERLAP_TOLERANCE:
        problems.append(
            f"layer self times + unaccounted miss the end-to-end time by "
            f"{error:.1%}: child spans overlap"
        )
    if min_self < -1e-4:
        problems.append(f"negative self time {min_self:.6f}s")
    if missing:
        problems.append(f"entry points not found: {missing}")

    rr_sets = counters["sampling.rr_sets"]
    fill_s = _outermost(spans, "sampling.fill")
    saves = sum(1 for s in spans if s[0] == "index.save" and not (
        s[4] is not None and spans[s[4]][0] == "index.save"))
    loads = counters["index.loads"]
    metrics = {
        "graph.build_s": _outermost(spans, "graph.build"),
        "sampling.prepare_s": _outermost(spans, "sampling.prepare"),
        "sampling.fill_s": fill_s,
        "sampling.rr_sets": rr_sets,
        "sampling.rr_sets_per_s": rr_sets / fill_s if fill_s else 0.0,
        "sampling.edges_examined": counters["sampling.edges_examined"],
        "sampling.mean_rr_size": (
            counters["sampling.entries"] / rr_sets if rr_sets else 0.0
        ),
        "collection.build_s": _outermost(spans, "collection.build"),
        "collection.builds": counters["collection.builds"],
        "collection.entries_indexed": counters["collection.entries_indexed"],
        "collection.sketch_mb": sketch / 2**20,
        "maxcover.greedy_s": _outermost(spans, "maxcover.greedy"),
        "maxcover.greedy_calls": counters["maxcover.greedy_calls"],
        "maxcover.bound_s": _outermost(spans, "maxcover.bound"),
        "bounds.s": _outermost(spans, "bounds"),
        "bounds.calls": counters["bounds.calls"],
        "core.self_s": sum(t for s, t in zip(spans, own) if s[1] == "core"),
        "opimc.iterations": counters["opimc.iterations"],
        "opimc.rr_sets": counters["opimc.rr_sets"],
        "index.save_s": _outermost(spans, "index.save"),
        "index.save_mb": (
            counters["index.save_bytes"] / saves / 2**20 if saves else 0.0
        ),
        "index.load_s": _outermost(spans, "index.load"),
        "index.load_mb": (
            counters["index.load_bytes"] / loads / 2**20 if loads else 0.0
        ),
        "engine.answer_s": _outermost(spans, "engine.answer"),
        "engine.answers": counters["engine.answers"],
        "engine.sampled_answers": counters["engine.sampled_answers"],
        "trace.unaccounted_frac": unaccounted_frac,
    }
    return {
        "metrics": metrics,
        "layer_self_s": {layer: layer_self.get(layer, 0.0) for layer in LAYERS},
        "unaccounted_s": unaccounted,
        "e2e_s": e2e_seconds,
        "accounting_error": error,
        "spans": len(spans),
        "missing_targets": missing,
        "problems": problems,
    }
