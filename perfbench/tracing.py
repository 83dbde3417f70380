"""Self-time tracing installed from outside the program.

The benchmark never edits the program: a traced run wraps the public
functions and methods each layer is entered through with a counting
timer, then reads the accumulators.  A wrapper pushes a frame on entry;
on exit it adds its elapsed time to the layer's inclusive total, the
elapsed time minus its children's to the layer's self total, and its
elapsed time to its parent frame's child total.  Self times therefore
add up to the outermost wrapped call, and what a run's wall time holds
beyond them is time outside every wrapped call.

Coroutines (the HTTP read and write) are timed per step, so time a
request spends suspended waiting for the socket is not counted.

Layer names are the per-layer metric names without their unit suffix,
except the entry layers (:data:`ENTRY_LAYERS`).
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

_ns = time.perf_counter_ns

#: The program entry points an in-process workload calls.  Each is
#: wrapped so the layers below it nest under one frame, but its self
#: time is not a layer: it is the entry point's own lines plus every
#: callee no wrapper covers, so it counts as unattributed time.
ENTRY_LAYERS = ("facade", "corpus.coordinator", "shard.coordinator")


class Tracer:
    """Per-process layer accumulators (one per traced process)."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.self_ns: dict = defaultdict(int)
        self.incl_ns: dict = defaultdict(int)
        self.calls: dict = defaultdict(int)
        #: plain counters (elements skipped, cache hits, idle time, ...)
        self.counts: dict = defaultdict(int)
        #: (name, perf_counter_ns) events; the clock is system-wide
        self.marks: list = []
        self.stack: list = []

    def _close(self, layer: str, t0: int) -> None:
        elapsed = _ns() - t0
        stack = self.stack
        child = stack.pop()
        self.self_ns[layer] += elapsed - child
        self.incl_ns[layer] += elapsed
        if stack:
            stack[-1] += elapsed

    def wrap(self, layer: str, fn, after=None):
        """``fn`` timed as ``layer``; ``after(args, result)`` runs once
        the timer has stopped."""
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            tracer.stack.append(0)
            t0 = _ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(layer, t0)
            tracer.calls[layer] += 1
            if after is not None:
                after(args, result)
            return result

        return timed

    def wrap_async(self, layer: str, fn):
        """A coroutine function timed per step as ``layer``."""
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            tracer.calls[layer] += 1
            return _Steps(tracer, layer, fn(*args, **kwargs))

        return timed

    def snapshot(self) -> dict:
        return {"t_ns": _ns(), "pid": os.getpid(),
                "self_ns": dict(self.self_ns),
                "incl_ns": dict(self.incl_ns),
                "calls": dict(self.calls), "counts": dict(self.counts),
                "marks": list(self.marks)}

    def dump(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh)
        os.replace(tmp, path)


class _Steps:
    """Await ``coro`` while timing only the steps it runs."""

    __slots__ = ("tracer", "layer", "coro")

    def __init__(self, tracer: Tracer, layer: str, coro):
        self.tracer, self.layer, self.coro = tracer, layer, coro

    def __await__(self):
        tracer, layer, coro = self.tracer, self.layer, self.coro
        value, error = None, None
        while True:
            tracer.stack.append(0)
            t0 = _ns()
            try:
                if error is None:
                    step = coro.send(value)
                else:
                    step = coro.throw(error)
            except StopIteration as stop:
                tracer._close(layer, t0)
                return stop.value
            except BaseException:
                tracer._close(layer, t0)
                raise
            tracer._close(layer, t0)
            try:
                value, error = (yield step), None
            except BaseException as exc:  # delivered into the coroutine
                value, error = None, exc


def diff(before: dict, after: dict) -> dict:
    """The accumulators of ``after`` minus those of ``before``."""
    out = {"t_ns": after["t_ns"] - before["t_ns"], "pid": after["pid"],
           "marks": after["marks"][len(before["marks"]):]}
    for field in ("self_ns", "incl_ns", "calls", "counts"):
        b = before[field]
        out[field] = {k: v - b.get(k, 0) for k, v in after[field].items()}
    return out


def total(parts: "list[dict]") -> dict:
    """Accumulators summed over several processes' snapshots."""
    out = {"self_ns": defaultdict(int), "incl_ns": defaultdict(int),
           "calls": defaultdict(int), "counts": defaultdict(int),
           "marks": []}
    for part in parts:
        for field in ("self_ns", "incl_ns", "calls", "counts"):
            for k, v in part[field].items():
                out[field][k] += v
        out["marks"].extend(part["marks"])
    return out


def _patch_method(tracer: Tracer, cls, name: str, layer: str, after=None):
    setattr(cls, name, tracer.wrap(layer, cls.__dict__[name], after))


def _patch_function(tracer: Tracer, modules, name: str, layer: str,
                    after=None, is_async: bool = False) -> None:
    """Rebind ``name`` in every module of ``modules`` that imported the
    same function object, to one shared wrapper."""
    original = getattr(modules[0], name)
    wrapper = tracer.wrap_async(layer, original) if is_async \
        else tracer.wrap(layer, original, after)
    for module in modules:
        if getattr(module, name, None) is original:
            setattr(module, name, wrapper)


def install(tracer: Tracer, role: str) -> None:
    """Wrap every layer boundary a process of ``role`` crosses.

    ``role`` is ``inproc`` (a measuring process: facade, engines,
    corpus and shard coordinators, pool workers), ``server`` (a
    ``serve --port`` process) or ``node`` (a ``serve --stdio`` shard
    node).
    """
    import multiprocessing.pool

    import repro.corpus.cache as cache_mod
    import repro.corpus.validator as corpus_mod
    import repro.corpus.worker as worker_mod
    import repro.engines
    import repro.shard.aggregates as aggregates_mod
    import repro.shard.coordinator as coordinator_mod
    import repro.xmlio.parser as parser_mod
    from repro.codegen.engine import CodegenValidator, CompiledSchema
    from repro.codegen.runtime import RunState
    from repro.corpus.cache import ResultCache
    from repro.corpus.validator import CorpusValidator
    from repro.obs import Observability
    from repro.server.daemon import ValidationServer
    from repro.shard.coordinator import ShardedCorpusValidator
    from repro.shard.node import SubprocessNode
    from repro.validator import Validator

    counts = tracer.counts

    # -- facade, engine construction and routing --------------------
    _patch_method(tracer, Validator, "check", "facade")
    routed = set()

    def wrap_engine(_args, engine):
        # the engine object create() returns: its validate() is routing
        cls = type(engine)
        if cls not in routed:
            routed.add(cls)
            cls.validate = tracer.wrap("engines.dispatch", cls.validate)

    _patch_function(tracer, [repro.engines], "create", "engines.dispatch",
                    after=wrap_engine)
    _patch_method(tracer, CodegenValidator, "validate", "engines.dispatch")

    # -- codegen: pre-scan, scanner, per-document state -------------
    for name in ("validate_path", "validate_bytes", "validate_text"):
        _patch_method(tracer, CodegenValidator, name, "codegen.prescan")
    bind = CompiledSchema.__init__

    def bind_timed(self, fingerprint, source, plan, scan_str, scan_bytes):
        bind(self, fingerprint, source, plan,
             tracer.wrap("codegen.scan", scan_str),
             tracer.wrap("codegen.scan", scan_bytes))

    CompiledSchema.__init__ = bind_timed
    _patch_method(tracer, RunState, "__init__", "codegen.runstate")

    def count_elements(args, _report):
        counts["elements"] += args[0].next_vid
        counts["elements_skipped"] += args[0].n_skipped

    _patch_method(tracer, RunState, "flush_region", "constraints.flush")
    _patch_method(tracer, RunState, "finish", "constraints.finish",
                  after=count_elements)

    # -- corpus: keys, result cache, coordinator, pool, worker ------
    for name in ("result_key", "result_key_bytes", "result_key_hasher"):
        _patch_function(tracer, [cache_mod, corpus_mod, worker_mod,
                                 coordinator_mod], name, "corpus.key")

    def count_lookup(_args, report):
        counts["cache_lookups"] += 1
        counts["cache_hits"] += report is not None

    _patch_method(tracer, ResultCache, "get", "corpus.cache_get",
                  after=count_lookup)
    putting = [0]  # open ResultCache.put calls
    put = ResultCache.__dict__["put"]

    def put_counted(self, key, report):
        putting[0] += 1
        try:
            return put(self, key, report)
        finally:
            putting[0] -= 1

    ResultCache.put = tracer.wrap("corpus.cache_put", put_counted)
    _patch_method(tracer, CorpusValidator, "validate", "corpus.coordinator")
    pool_cls = multiprocessing.pool.Pool
    pool_init = pool_cls.__dict__["__init__"]

    def pool_started(self, *args, **kwargs):
        tracer.marks.append(("pool_start", time.perf_counter_ns()))
        return pool_init(self, *args, **kwargs)

    pool_cls.__init__ = tracer.wrap("corpus.pool", pool_started)
    for name in ("map", "terminate"):
        _patch_method(tracer, pool_cls, name, "corpus.pool")
    trace_dir = os.environ.get("PERFBENCH_TRACE_DIR")
    home = os.getpid()

    def worker_dump(_args, _result):
        # forked pool workers leave by os._exit: write after every call
        if trace_dir and os.getpid() != home:
            tracer.dump(os.path.join(trace_dir,
                                     f"worker-{os.getpid()}.json"))

    def worker_ready(args, result):
        tracer.marks.append(("worker_ready", time.perf_counter_ns()))
        worker_dump(args, result)

    _patch_function(tracer, [corpus_mod, worker_mod], "init_worker",
                    "corpus.worker_init", after=worker_ready)
    _patch_function(tracer, [corpus_mod, worker_mod], "stream_chunk",
                    "corpus.worker", after=worker_dump)
    os.register_at_fork(after_in_child=tracer.reset)

    # -- shard coordinator and nodes --------------------------------
    _patch_method(tracer, ShardedCorpusValidator, "validate",
                  "shard.coordinator")
    _patch_method(tracer, SubprocessNode, "request", "shard.request")
    _patch_function(tracer, [coordinator_mod, aggregates_mod],
                    "fold_aggregates", "shard.fold")
    _patch_function(tracer, [aggregates_mod], "extract_aggregates",
                    "shard.extract")
    _patch_function(tracer, [parser_mod], "parse_document", "xmlio.parse")

    # -- server -----------------------------------------------------
    _patch_method(tracer, ValidationServer, "handle_request",
                  "server.dispatch")
    _patch_method(tracer, Observability, "absorb", "obs.absorb")
    if role == "server":
        import selectors

        import repro.server.daemon as daemon_mod
        from repro.constraints.violations import ViolationReport

        _patch_function(tracer, [daemon_mod], "read_request",
                        "server.read", is_async=True)
        _patch_function(tracer, [daemon_mod], "write_response",
                        "server.write", is_async=True)
        # response encoding: the report dict and the response body; a
        # report serialized by a cache write stays in corpus.cache_put
        to_dict = ViolationReport.__dict__["to_dict"]
        encode = tracer.wrap("server.encode", to_dict)

        def to_dict_outside_put(self):
            return to_dict(self) if putting[0] else encode(self)

        ViolationReport.to_dict = to_dict_outside_put
        _patch_function(tracer, [daemon_mod], "_json_bytes", "server.encode")
        selector = selectors.DefaultSelector
        select = selector.select

        def idle(self, timeout=None):
            t0 = _ns()
            try:
                return select(self, timeout)
            finally:
                counts["idle_ns"] += _ns() - t0

        selector.select = idle
