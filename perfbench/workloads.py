"""The four workloads: why each exists, and the code that runs it.

Every function here runs in a child process of ``run.py``::

    python3 perfbench/workloads.py ACTION WORKLOAD DATADIR [SECONDS]

``ACTION`` is ``setup`` (one cold-start sample), ``measure`` (a timed
run), ``measure-traced`` (a timed run with the layer wrappers of
``tracing.py`` installed) or ``probe`` (import and schema-compile time).
The child prints one JSON line: what it measured, how many operations
it attempted and how many of them failed their checks.
"""

from __future__ import annotations

import json
import os
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time

from common import (HERE, children_cpu_ns, cpus, emit, host_scale,
                    io_bytes, loadgen_cpu, pin, program_cpu, quantile,
                    reference_on, vmhwm_mb)
from gen import SHAPES, stamped

_ns = time.perf_counter_ns

#: Why each workload exists, and the layers it should move (the
#: prediction later changes are judged against).
WORKLOADS = {
    "validate-dense": {
        "why": "bytes on disk to ValidationReport in one process, every "
               "element keyed, so constraint evaluation is large and "
               "nothing contends",
        "moves": ["engines.dispatch", "codegen.prescan", "codegen.scan",
                  "codegen.runstate", "constraints.flush",
                  "constraints.finish"],
    },
    "serve-feed": {
        "why": "request to response over HTTP with bench_stream's "
               "Sigma-sparse feeds (1,000-10,000 items, 50 keyed pairs): "
               "framing, admission, result-cache reads, the codegen "
               "skip path and encoding",
        "moves": ["server.read", "server.dispatch", "corpus.cache_get",
                  "codegen.prescan", "codegen.scan", "server.encode",
                  "obs.absorb", "server.write"],
    },
    "corpus-federated": {
        "why": "corpus to ShardReport through two serve --stdio nodes: "
               "the only path through node transport, the node re-parse "
               "and the cross-document L_id fold",
        "moves": ["shard.request", "shard.fold", "shard.extract",
                  "xmlio.parse", "corpus.cache_put"],
    },
    "corpus-pool": {
        "why": "the validate-dense files through CorpusValidator(jobs=2): "
               "the only path through the process pool and its workers",
        "moves": ["corpus.pool", "corpus.worker", "corpus.key",
                  "corpus.cache_put", "constraints.flush"],
    },
}

JOBS = 2
SHARDS = 2
#: serve-feed: connections in the closed loop, and every how many
#: requests one is a byte-identical re-submission
CONNECTIONS = 2
RESUBMIT_EVERY = 4
#: serve-feed blocks (one cycle over the base documents each) sent
#: before the window opens
SERVE_WARMUP_BLOCKS = 2
#: samples per p99 group (see ``_block_stats``)
P99_SAMPLES = 1000
#: seconds without any answer before serve-feed counts a timeout
REQUEST_TIMEOUT_S = 30
#: CPU the program's live processes may use during one host reference
#: run, and how often the reference is tried while they use more
QUIET_NS = 1_000_000
REFERENCE_TRIES = 5


class Stop(Exception):
    """A node error or a timeout ended the measuring window early (the
    operations it cost are already counted as failed)."""


class Checks:
    """Operations attempted and failed (verdict mismatches, bad
    statuses, node errors), with the first few failures described."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list = []

    def record(self, ok: bool, what: str, n: int = 1,
               bad: "int | None" = None) -> None:
        self.attempted += n
        if not ok:
            self.failed += n if bad is None else bad
            if len(self.notes) < 5:
                self.notes.append(what)

    def to_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "notes": self.notes}


class Inputs:
    """One generated input set (see ``gen.py``)."""

    def __init__(self, datadir: str):
        with open(os.path.join(datadir, "expect.json"),
                  encoding="utf-8") as fh:
            self.expect = json.load(fh)
        self.schema = os.path.join(datadir, self.expect["schema"])
        self.root = self.expect["root"]
        self.paths = [os.path.join(datadir, "docs", name)
                      for name in self.expect["docs"]]
        self.valid = self.expect["valid"]
        self.reference = self.expect["reference"]

    def handle(self):
        from repro import SchemaRegistry

        registry = SchemaRegistry()
        return registry.load(self.root, self.schema, root=self.root)


def _fresh_dir(tag: str) -> str:
    """A new empty directory in the run's scratch space."""
    return tempfile.mkdtemp(prefix=f"{tag}-",
                            dir=os.environ["PERFBENCH_TMP"])


def _tracer():
    from tracing import Tracer, install

    tracer = Tracer()
    install(tracer, "inproc")
    return tracer


class HostReference:
    """The host-speed reference on either side of every measured block
    (``refs[b]`` before block ``b``, ``refs[b + 1]`` after it).

    Each time, dirty pages (result-cache writes) are flushed first, so
    their write-back does not land in the next block.  The reference
    shares its vCPUs with the program's live processes (the server, the
    shard nodes), so it only counts while they are idle: it is taken
    again while they use more than ``QUIET_NS`` of CPU during it.  A
    block next to a reference that never found them idle counts its
    documents as failed: its times cannot be scaled, and CPU the
    program spends after answering would pass for a speed-up.
    """

    def __init__(self, cpu_list: "list[int]", checks: "Checks"):
        self.cpu_list = cpu_list
        self.checks = checks
        self.refs: list = []
        self.busy_ns: list = []
        self.retries = 0
        self._take()

    def _take(self) -> None:
        os.sync()
        for _ in range(REFERENCE_TRIES):
            before = children_cpu_ns()
            ref = reference_on(self.cpu_list)
            after = children_cpu_ns()
            busy = sum(after[pid] - t for pid, t in before.items()
                       if pid in after)
            if busy <= QUIET_NS:
                break
            self.retries += 1
            time.sleep(0.05)
        self.refs.append(ref)
        self.busy_ns.append(busy if busy > QUIET_NS else 0)

    def after_block(self, docs: int) -> None:
        """The reference after a block of ``docs`` documents."""
        self._take()
        busy = max(self.busy_ns[-2:])
        if busy:
            self.checks.record(
                False, f"program processes used {busy / 1e6:.1f} ms of "
                "CPU during every try of a host reference", n=0, bad=docs)


def _block_stats(blocks: list, host: HostReference) -> dict:
    """Medians over fixed-work blocks, each scaled to the nominal host
    speed by the reference runs on either side of it (``refs[b]`` before
    block ``b``, ``refs[b + 1]`` after it).

    ``blocks`` holds ``(wall_ns, latencies_ns)`` per block in run order.
    Throughput and p50 are medians of per-block values; p99 is the
    median over groups of consecutive blocks holding at least
    ``P99_SAMPLES`` samples each, so every group has at least ten
    samples beyond its p99.
    """
    if not blocks:
        raise RuntimeError("no block of the run completed")
    refs = host.refs
    rates, raw_rates, p50s, p99s, group = [], [], [], [], []
    for b, (wall, lat) in enumerate(blocks):
        scale = host_scale(refs[b], refs[b + 1])
        rates.append(len(lat) / (wall * scale / 1e9))
        raw_rates.append(len(lat) / (wall / 1e9))
        block = sorted(x * scale for x in lat)
        p50s.append(quantile(block, 0.50))
        group.extend(block)
        if len(group) >= P99_SAMPLES:
            p99s.append(quantile(sorted(group), 0.99))
            group = []
    if not p99s:
        p99s.append(quantile(sorted(group), 0.99))
    return {"docs_per_s": statistics.median(rates),
            "p50_ms": statistics.median(p50s) / 1e6,
            "p99_ms": statistics.median(p99s) / 1e6,
            "samples": sum(len(lat) for _, lat in blocks),
            "blocks": len(blocks), "p99_groups": len(p99s),
            "unscaled_docs_per_s": statistics.median(raw_rates),
            "reference_ms": statistics.median(refs) * 1e3,
            "reference_retries": host.retries}


def _reference_cpus(workload: str) -> "list[int]":
    """The vCPUs whose reference time scales a workload's times."""
    return cpus() if workload.startswith("corpus") else [program_cpu()]


def _scaled_setup(workload: str, inputs: Inputs) -> dict:
    """One cold-start sample, scaled like every other time of the
    workload."""
    cpu_list = _reference_cpus(workload)
    before = reference_on(cpu_list)
    out = SETUP[workload](inputs)
    scale = host_scale(before, reference_on(cpu_list))
    out["unscaled_setup_s"] = out["setup_s"]
    out["setup_s"] *= scale
    return out


# ---------------------------------------------------------------------
# validate-dense
# ---------------------------------------------------------------------

def measure_validate_dense(inputs: Inputs, seconds: float,
                           traced: bool) -> dict:
    """One caller loops ``Validator.check(path, engine="auto")`` over
    the library files; each report is checked outside the timing."""
    from repro import Validator

    pin(program_cpu())
    tracer = _tracer() if traced else None
    validator = Validator(inputs.handle())
    checks = Checks()
    paths, valid, reference = inputs.paths, inputs.valid, inputs.reference
    n = len(paths)

    def check(k: int, report) -> None:
        checks.record(report.ok == valid[k]
                      and report.to_json() == reference[k], paths[k])

    for k in range(n):  # warm-up pass, checked like the rest
        check(k, validator.check(paths[k], engine="auto"))
    before = tracer.snapshot() if tracer else None
    blocks = []  # one block per pass over the corpus
    host = HostReference([program_cpu()], checks)
    spent = 0
    while spent < seconds * 1e9:
        latencies = []
        for k in range(n):
            t0 = _ns()
            report = validator.check(paths[k], engine="auto")
            latencies.append(_ns() - t0)
            check(k, report)
        blocks.append((sum(latencies), latencies))
        host.after_block(n)
        spent += blocks[-1][0]
    out = {"docs": n * len(blocks), "wall_ns": spent,
           "stats": _block_stats(blocks, host),
           "rss_mb": vmhwm_mb(),
           **checks.to_dict()}
    if tracer:
        from tracing import diff

        out["trace"] = {"self": diff(before, tracer.snapshot())}
    return out


def setup_validate_dense(inputs: Inputs) -> dict:
    """Cold start to the first report: registry load (parse, plan),
    codegen generate and ``exec``, first document."""
    pin(program_cpu())
    from repro import SchemaRegistry, Validator
    import repro.codegen  # noqa: F401  (imports stay outside the timing)
    import repro.engines  # noqa: F401

    checks = Checks()
    t0 = _ns()
    registry = SchemaRegistry()
    registry.load(inputs.root, inputs.schema, root=inputs.root)
    validator = Validator.from_registry(registry, inputs.root)
    report = validator.check(inputs.paths[0], engine="auto")
    setup_ns = _ns() - t0
    checks.record(report.to_json() == inputs.reference[0], "first report")
    return {"setup_s": setup_ns / 1e9, **checks.to_dict()}


# ---------------------------------------------------------------------
# corpus-pool
# ---------------------------------------------------------------------

def _pin_forked_workers() -> None:
    """Pin each forked pool worker to the next vCPU in turn."""
    order = cpus()
    forks = [0]

    def before() -> None:
        forks[0] += 1

    def in_child() -> None:
        pin(order[forks[0] % len(order)])

    os.register_at_fork(before=before, after_in_child=in_child)


def _check_corpus(checks: Checks, inputs: Inputs, report) -> None:
    """Per-document verdicts against the serial reference and the
    generator's validity flags."""
    n = len(inputs.paths)
    got = report.verdicts_json()
    if got == inputs.expect["verdicts_json"] \
            and [v.ok for v in report.verdicts] == inputs.valid:
        checks.record(True, "", n=n)
        return
    ref = json.loads(inputs.expect["verdicts_json"])
    mine = json.loads(got)
    bad = sum(1 for a, b, ok, v in zip(ref, mine, inputs.valid,
                                       report.verdicts)
              if a != b or v.ok != ok) + abs(len(ref) - len(mine))
    checks.record(False, f"{bad} corpus verdicts differ", n=n, bad=bad)


def _empty_cache(directory: str) -> None:
    """Remove every entry of a result-cache directory but keep its
    prefix subdirectories, as in a cache in steady use.  (Creating them
    anew in every corpus call cost 330-650 us per entry on the host the
    benchmark was built on, and that figure changed 2x from call to
    call; with them in place an entry cost about 120 us, within 8%.)"""
    for root, _dirs, files in os.walk(directory):
        for name in files:
            os.unlink(os.path.join(root, name))


def _worker_rss(run_once) -> float:
    """Peak RSS summed over the pool workers of one more corpus call:
    each worker writes its ``VmHWM`` after every chunk."""
    import functools

    import repro.corpus.validator as corpus_mod
    import repro.corpus.worker as worker_mod

    outdir = _fresh_dir("rss")
    inner = worker_mod.stream_chunk

    @functools.wraps(inner)
    def chunk_then_rss(chunk):
        result = inner(chunk)
        with open(os.path.join(outdir, str(os.getpid())), "w") as fh:
            fh.write(str(vmhwm_mb()))
        return result

    worker_mod.stream_chunk = corpus_mod.stream_chunk = chunk_then_rss
    try:
        run_once()
    finally:
        worker_mod.stream_chunk = corpus_mod.stream_chunk = inner
    total = 0.0
    for name in os.listdir(outdir):
        with open(os.path.join(outdir, name)) as fh:
            total += float(fh.read())
    shutil.rmtree(outdir)
    return total


def measure_corpus_pool(inputs: Inputs, seconds: float,
                        traced: bool) -> dict:
    """``CorpusValidator(jobs=2, engine="auto", cache=DIR)`` over the
    validate-dense files; ``DIR`` holds no entry when a call starts."""
    from repro.corpus import CorpusValidator

    pin(program_cpu())
    _pin_forked_workers()
    tracer = _tracer() if traced else None
    handle = inputs.handle()
    checks = Checks()
    results = _fresh_dir("results")

    def once():
        validator = CorpusValidator(handle, jobs=JOBS, engine="auto",
                                    cache=results)
        t0 = _ns()
        report = validator.validate(inputs.paths)
        elapsed = _ns() - t0
        _empty_cache(results)  # before the next reference's sync
        _check_corpus(checks, inputs, report)
        return elapsed, report

    once()
    return _corpus_loop(inputs, seconds, tracer, once, checks,
                        extra_rss=lambda: _worker_rss(once))


def _corpus_loop(inputs: Inputs, seconds: float, tracer, once, checks,
                 extra_rss, before_window=None, after_window=None):
    """Call ``once`` until ``seconds`` of corpus calls have run; each
    document's latency is its call's wall time (every verdict of a
    corpus run arrives when the run returns)."""
    trace_dir = os.environ.get("PERFBENCH_TRACE_DIR")
    if trace_dir:  # workers of the warm-up call are not in the window
        for name in os.listdir(trace_dir):
            os.unlink(os.path.join(trace_dir, name))
    before = tracer.snapshot() if tracer else None
    if before_window:
        before_window()
    n = len(inputs.paths)
    blocks, phases = [], {}  # one block per call
    host = HostReference(cpus(), checks)
    spent = 0
    while spent < seconds * 1e9:
        try:
            elapsed, report = once()
        except Stop:
            break
        blocks.append((elapsed, [elapsed] * n))
        host.after_block(n)
        spent += elapsed
        for name, value in report.phases.items():
            phases[name] = phases.get(name, 0.0) + value
    out = {"docs": n * len(blocks), "wall_ns": spent, "phases": phases,
           "stats": _block_stats(blocks, host)}
    if after_window:
        out.update(after_window())
    if tracer:
        from tracing import diff

        out["trace"] = {"self": diff(before, tracer.snapshot()),
                        "workers": _read_dumps(trace_dir, "worker-")}
    out["rss_mb"] = vmhwm_mb() + extra_rss()
    out.update(checks.to_dict())
    return out


def _read_dumps(trace_dir: str, prefix: str) -> list:
    dumps = []
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith(prefix) and name.endswith(".json"):
            with open(os.path.join(trace_dir, name),
                      encoding="utf-8") as fh:
                dumps.append(json.load(fh))
    return dumps


def setup_corpus_pool(inputs: Inputs) -> dict:
    """Cold start to the first corpus report (one document)."""
    pin(program_cpu())
    _pin_forked_workers()
    from repro import SchemaRegistry
    from repro.corpus import CorpusValidator
    import repro.codegen  # noqa: F401

    checks = Checks()
    cache = _fresh_dir("results")
    t0 = _ns()
    registry = SchemaRegistry()
    handle = registry.load(inputs.root, inputs.schema, root=inputs.root)
    report = CorpusValidator(handle, jobs=JOBS, engine="auto",
                             cache=cache).validate(inputs.paths[:1])
    setup_ns = _ns() - t0
    checks.record(report.verdicts[0].ok == inputs.valid[0],
                  "first verdict")
    shutil.rmtree(cache)
    return {"setup_s": setup_ns / 1e9, **checks.to_dict()}


# ---------------------------------------------------------------------
# corpus-federated
# ---------------------------------------------------------------------

def _signal_snapshot(pid: int, role: str, seq: int) -> dict:
    """Ask a launched process for its accumulators (``launch.py``)."""
    path = os.path.join(os.environ["PERFBENCH_TRACE_DIR"],
                        f"{role}-{pid}-{seq}.json")
    os.kill(pid, signal.SIGUSR1)
    deadline = time.monotonic() + 10
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            raise RuntimeError(f"no trace snapshot from {role} {pid}")
        time.sleep(0.002)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Fleet:
    """The ``node_factory``: ``SubprocessNode`` children (through the
    tracing launcher on traced runs), node *i* pinned to vCPU *i*; it
    records when the first node was spawned and when the last one had
    its schema loaded."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.nodes: list = []
        self.t_first = None
        self.t_ready = None

    def __call__(self, name: str):
        from repro.shard.node import SubprocessNode

        fleet = self
        if self.t_first is None:
            self.t_first = _ns()

        class BenchNode(SubprocessNode):
            def __init__(self):
                if fleet.traced:
                    self.name = name
                    self.proc = subprocess.Popen(
                        [sys.executable, os.path.join(HERE, "launch.py"),
                         "node", "-q", "serve", "--stdio"],
                        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                        stderr=subprocess.DEVNULL, text=True,
                        env=dict(os.environ))
                else:
                    super().__init__(name)
                order = cpus()
                pin(order[len(fleet.nodes) % len(order)], self.proc.pid)

            def load_schema(self, *args, **kwargs):
                response = super().load_schema(*args, **kwargs)
                fleet.t_ready = _ns()
                return response

        node = BenchNode()
        self.nodes.append(node)
        return node

    def snapshots(self, seq: int) -> list:
        return [_signal_snapshot(n.proc.pid, "node", seq)
                for n in self.nodes]

    def io(self) -> int:
        return sum(io_bytes(n.proc.pid) for n in self.nodes)

    def rss_mb(self) -> float:
        return sum(vmhwm_mb(n.proc.pid) for n in self.nodes)


def _check_federated(checks: Checks, inputs: Inputs, report) -> None:
    _check_corpus(checks, inputs, report)
    want = inputs.expect["corpus"]
    codes = [v.code for v in report.corpus_violations]
    clash = [v for v in report.corpus_violations if v.code == "id-clash"]
    ok = (codes.count("id-clash") == want["id_clashes"]
          and codes.count("foreign-key") == want["ghost_refs"]
          and len(codes) == want["id_clashes"] + want["ghost_refs"]
          and all(len(v.documents) == want["id_clash_documents"]
                  for v in clash)
          and report.merge_stats.get("refs_resolved_cross_document")
          == want["refs_resolved_cross_document"])
    checks.record(ok, f"corpus-level findings {codes} "
                  f"{report.merge_stats}")


def measure_corpus_federated(inputs: Inputs, seconds: float,
                             traced: bool) -> dict:
    """``ShardedCorpusValidator(shards=2, SubprocessNode nodes,
    engine="auto")`` over the federated files: one warm fleet, and a
    result cache that holds no entry when a call starts."""
    from repro.corpus import ResultCache
    from repro.errors import ReproError
    from repro.shard import ShardedCorpusValidator

    pin(program_cpu())
    tracer = _tracer() if traced else None
    handle = inputs.handle()
    checks = Checks()
    fleet = Fleet(traced)
    results = _fresh_dir("results")
    validator = ShardedCorpusValidator(
        handle, shards=SHARDS, node_factory=fleet, engine="auto",
        cache=results)
    try:
        def once():
            # a new ResultCache: its in-memory entries start empty too
            validator.cache = ResultCache(directory=results)
            t0 = _ns()
            try:
                report = validator.validate(inputs.paths)
            except ReproError as exc:  # a node failed: every doc fails
                checks.record(False, f"node error: {exc}",
                              n=len(inputs.paths))
                raise Stop from exc
            elapsed = _ns() - t0
            _empty_cache(results)  # before the next reference's sync
            _check_federated(checks, inputs, report)
            return elapsed, report

        once()
        fleet_start_s = (fleet.t_ready - fleet.t_first) / 1e9
        marks = {}

        def before_window():
            marks["io"] = fleet.io()
            if traced:
                marks["nodes"] = fleet.snapshots(1)

        def after_window():
            out = {"wire_bytes": fleet.io() - marks["io"],
                   "fleet_start_s": fleet_start_s}
            if traced:
                from tracing import diff

                out["nodes"] = [diff(a, b) for a, b in
                                zip(marks["nodes"], fleet.snapshots(2))]
            return out

        out = _corpus_loop(inputs, seconds, tracer, once, checks,
                           extra_rss=fleet.rss_mb,
                           before_window=before_window,
                           after_window=after_window)
        return out
    finally:
        validator.close()


def setup_corpus_federated(inputs: Inputs) -> dict:
    """Coordinator construction until every node is spawned and has its
    schema loaded (the first call starts the fleet)."""
    pin(program_cpu())
    from repro.shard import ShardedCorpusValidator

    checks = Checks()
    handle = inputs.handle()
    fleet = Fleet(traced=False)
    cache = _fresh_dir("results")
    t0 = _ns()
    with ShardedCorpusValidator(handle, shards=SHARDS, node_factory=fleet,
                                engine="auto", cache=cache) as validator:
        report = validator.validate(inputs.paths[:1])
    checks.record(report.verdicts[0].ok == inputs.valid[0]
                  and len(fleet.nodes) == SHARDS, "first verdict")
    shutil.rmtree(cache)
    return {"setup_s": (fleet.t_ready - t0) / 1e9,
            "fleet_start_s": (fleet.t_ready - fleet.t_first) / 1e9,
            **checks.to_dict()}


# ---------------------------------------------------------------------
# serve-feed
# ---------------------------------------------------------------------

class Server:
    """``repro-xic serve --port 0 --engine auto --cache <fresh dir>``
    in its own process, pinned to the program vCPU."""

    def __init__(self, inputs: Inputs, traced: bool = False):
        argv = ["--root", inputs.root, "serve", "--port", "0",
                "--engine", "auto", "--cache", _fresh_dir("serve-cache"),
                "--schema", f"feed={inputs.schema}"]
        head = [sys.executable, os.path.join(HERE, "launch.py"), "server"] \
            if traced else [sys.executable, "-m", "repro"]
        self.proc = subprocess.Popen(head + argv, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL,
                                     env=dict(os.environ))
        pin(program_cpu(), self.proc.pid)
        line = self.proc.stdout.readline().decode().strip()
        if not line.startswith("serving http://"):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        host, port = line[len("serving http://"):].rsplit(":", 1)
        self.address = (host, int(port))
        self.seq = 0

    def snapshot(self) -> dict:
        self.seq += 1
        return _signal_snapshot(self.proc.pid, "server", self.seq)

    def metrics(self) -> dict:
        """``GET /metrics``: the request and engine histograms."""
        with socket.create_connection(self.address) as sock:
            sock.sendall(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n"
                         b"Connection: close\r\n\r\n")
            chunks = []
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                chunks.append(data)
        text = b"".join(chunks).decode()
        out = {}
        for line in text.split("\r\n\r\n", 1)[1].splitlines():
            for name in ('serve_request_seconds_sum{op="validate"}',
                         'serve_request_seconds_count{op="validate"}',
                         'serve_engine_seconds_sum{engine="codegen"}',
                         'serve_engine_seconds_count{engine="codegen"}'):
                if line.startswith(name + " "):
                    out[name.split("{")[0]] = float(line.split()[-1])
        return out

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        self.proc.stdout.close()


class FeedDocs:
    """The serve-feed base documents, read before anything is timed, in
    the seed's shuffled order.  ``block`` requests make one cycle: every
    base sent fresh once, plus the re-submissions in between."""

    def __init__(self, inputs: Inputs):
        import random

        self.inputs = inputs
        self.bases = []
        for path in inputs.paths:
            with open(path, "rb") as fh:
                self.bases.append(fh.read())
        self.order = list(range(len(self.bases)))
        random.Random(inputs.expect["seed"]).shuffle(self.order)
        fresh_share = RESUBMIT_EVERY - 1
        if len(self.bases) % fresh_share:
            raise RuntimeError(f"{len(self.bases)} base documents do not "
                               f"fill whole cycles of {RESUBMIT_EVERY}")
        self.block = len(self.bases) * RESUBMIT_EVERY // fresh_share


class FeedLoad:
    """The closed-loop client: each connection sends its next request
    when the previous response has arrived.  Fresh requests stamp a
    new serial into a base document; every ``RESUBMIT_EVERY``-th
    request re-sends the bytes of the most recently answered fresh one,
    so exactly that share must come back from the result cache."""

    def __init__(self, server: Server, docs: FeedDocs):
        self.inputs = docs.inputs
        self.bases = docs.bases
        self.order = docs.order
        self.sent = 0
        self.fresh = 0
        self.last_fresh = None
        self.checks = Checks()
        self.selector = selectors.DefaultSelector()
        self.conns = []
        for _ in range(CONNECTIONS):
            sock = socket.create_connection(server.address)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = {"sock": sock, "buf": b"", "job": None, "t0": 0}
            self.selector.register(sock, selectors.EVENT_READ, conn)
            self.conns.append(conn)

    def _next_job(self):
        self.sent += 1
        if self.sent % RESUBMIT_EVERY == 0 and self.last_fresh is not None:
            body, base, _ = self.last_fresh
            return body, base, True
        base = self.order[self.fresh % len(self.order)]
        body = stamped(self.bases[base], self.fresh)
        self.fresh += 1
        return body, base, False

    def _send(self, conn) -> None:
        job = self._next_job()
        conn["job"] = job
        conn["t0"] = _ns()
        conn["sock"].sendall(
            b"POST /v1/validate/feed HTTP/1.1\r\nHost: bench\r\n"
            b"Content-Length: %d\r\n\r\n" % len(job[0]) + job[0])

    def _check(self, status: int, body: bytes, job) -> None:
        _, base, resubmitted = job
        try:
            resp = json.loads(body)
            ok = (status == 200 and resp["ok"] is True
                  and resp["valid"] == self.inputs.valid[base]
                  and resp["cached"] is resubmitted
                  and json.dumps(resp["report"], sort_keys=True)
                  == self.inputs.reference[base])
        except (ValueError, KeyError):
            ok = False
        self.checks.record(ok, f"status {status} base {base} "
                           f"resubmitted={resubmitted}")

    def run(self, requests: int) -> "tuple[int, list]":
        """Send ``requests`` requests through the closed loop and wait
        for every answer; returns the wall time and the latencies (ns)
        in completion order."""
        latencies = []
        limit = self.sent + requests
        t_start = _ns()
        active = self.conns[:min(len(self.conns), requests)]
        for conn in active:
            self._send(conn)
        busy = len(active)
        while busy:
            events = self.selector.select(timeout=REQUEST_TIMEOUT_S)
            if not events:
                self.checks.record(False, "request timed out", n=busy)
                raise Stop
            for key, _ in events:
                conn = key.data
                data = conn["sock"].recv(262144)
                if not data:
                    raise RuntimeError("server closed a connection")
                buf = conn["buf"] + data
                head_end = buf.find(b"\r\n\r\n")
                if head_end < 0:
                    conn["buf"] = buf
                    continue
                length = 0
                for line in buf[:head_end].split(b"\r\n")[1:]:
                    name, _, value = line.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value)
                end = head_end + 4 + length
                if len(buf) < end:
                    conn["buf"] = buf
                    continue
                latencies.append(_ns() - conn["t0"])
                conn["buf"] = buf[end:]
                job = conn["job"]
                self._check(int(buf[9:12]), buf[head_end + 4:end], job)
                if not job[2]:
                    self.last_fresh = job
                if self.sent >= limit:
                    busy -= 1
                else:
                    self._send(conn)
        return _ns() - t_start, latencies

    def close(self) -> None:
        for conn in self.conns:
            self.selector.unregister(conn["sock"])
            conn["sock"].close()
        self.selector.close()


def measure_serve_feed(inputs: Inputs, seconds: float,
                       traced: bool) -> dict:
    """The load generator: spawns the server, warms it, then drives the
    closed loop for ``seconds``."""
    pin(loadgen_cpu())
    docs = FeedDocs(inputs)
    server = Server(inputs, traced)
    try:
        load = FeedLoad(server, docs)
        load.run(SERVE_WARMUP_BLOCKS * docs.block)
        if traced:
            metrics_before = server.metrics()
            before = server.snapshot()
        blocks = []  # one cycle over the base documents each
        host = HostReference([program_cpu()], load.checks)
        cpu_s = 0.0
        spent = 0
        while spent < seconds * 1e9:
            cpu0 = time.process_time()
            try:
                wall, latencies = load.run(docs.block)
            except Stop:
                break
            cpu_s += time.process_time() - cpu0
            blocks.append((wall, latencies))
            host.after_block(docs.block)
            spent += wall
        out = {"docs": docs.block * len(blocks), "wall_ns": spent,
               "stats": _block_stats(blocks, host),
               "latency_sum_ns": sum(sum(lat) for _, lat in blocks),
               "loadgen_cpu_ratio": cpu_s / (spent / 1e9)}
        if traced:
            from tracing import diff

            after = server.snapshot()
            metrics_after = server.metrics()
            out["trace"] = {"server": diff(before, after)}
            out["metrics"] = {k: metrics_after[k] - metrics_before[k]
                              for k in metrics_after}
        out["rss_mb"] = vmhwm_mb(server.proc.pid)
        load.close()
        out.update(load.checks.to_dict())
        return out
    finally:
        server.stop()


def setup_serve_feed(inputs: Inputs) -> dict:
    """Spawning the server until it answers its first validate request
    (interpreter start and imports included); the request bodies are
    read before the clock starts."""
    pin(loadgen_cpu())
    docs = FeedDocs(inputs)
    t0 = _ns()
    server = Server(inputs)
    try:
        load = FeedLoad(server, docs)
        load.run(1)
        setup_ns = _ns() - t0
        load.close()
        return {"setup_s": setup_ns / 1e9, **load.checks.to_dict()}
    finally:
        server.stop()


# ---------------------------------------------------------------------
# probe: import and compile time
# ---------------------------------------------------------------------

def probe(inputs: Inputs) -> dict:
    """Prints ``imported`` once ``import repro`` is done (the harness
    times interpreter start plus import up to that line), then times a
    cold schema compile: registry load, plan, codegen generate, exec."""
    pin(program_cpu())
    import repro  # noqa: F401

    print("imported", flush=True)
    from repro import SchemaRegistry

    t0 = _ns()
    handle = SchemaRegistry().load(inputs.root, inputs.schema,
                                   root=inputs.root)
    handle.plan  # noqa: B018  (the properties compile)
    handle.codegen  # noqa: B018
    return {"compile_ms": (_ns() - t0) / 1e6}


MEASURE = {"validate-dense": measure_validate_dense,
           "serve-feed": measure_serve_feed,
           "corpus-federated": measure_corpus_federated,
           "corpus-pool": measure_corpus_pool}
SETUP = {"validate-dense": setup_validate_dense,
         "serve-feed": setup_serve_feed,
         "corpus-federated": setup_corpus_federated,
         "corpus-pool": setup_corpus_pool}
assert set(MEASURE) == set(SETUP) == set(WORKLOADS) == set(SHAPES)


def main(argv: "list[str]") -> None:
    action, workload, datadir = argv[:3]
    inputs = Inputs(datadir)
    if action == "setup":
        emit(_scaled_setup(workload, inputs))
    elif action == "probe":
        emit(probe(inputs))
    elif action in ("measure", "measure-traced"):
        emit(MEASURE[workload](inputs, float(argv[3]),
                               action == "measure-traced"))
    else:
        raise SystemExit(f"unknown action {action!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
