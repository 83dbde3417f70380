"""The repository benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run compiles the package's
bytecode, generates the seed's inputs in a separate process (once per
seed, under ``.perfbench-work/``) and times the host-speed reference
(``host.spin_ms``).  With ``--trace 0`` it then takes ``SETUP_SAMPLES``
cold-start samples and one timed run of ``S`` seconds and reports the
end-to-end metrics.  With ``--trace 1`` it makes an untraced run and a
traced run of ``S/2`` seconds each, plus import and compile probes, and
reports the per-layer metrics.  Every program process runs pinned to a
fixed vCPU with ``PYTHONHASHSEED=0``; every verdict is checked.  The
last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from common import (HERE, WORK, child_env, emit, pin, program_cpu,
                    reference_s)
from gen import SHAPES
from workloads import JOBS, SHARDS, WORKLOADS

#: cold-start samples per untraced run (``setup_s`` is their median)
SETUP_SAMPLES = 5
#: import/compile probe samples per traced run
PROBE_SAMPLES = 3
#: generated input sets kept on disk (oldest removed first)
KEEP_INPUTS = 8
CHILD_TIMEOUT_S = 100


class BenchError(Exception):
    """A child process failed; the run reports nothing."""


def _child(args: "list[str]", env: dict, timeout: float = CHILD_TIMEOUT_S):
    """Run ``python3 ARGS`` in its own process group (killed whole on
    timeout) and return its last stdout line as JSON."""
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                            env=env, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(args[:2])} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args[:2])} exited with "
                         f"{proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{' '.join(args[:2])} printed nothing")
    return json.loads(lines[-1])


def _inputs(shape: str, seed: int) -> str:
    """The seed's input directory, generated in its own process."""
    root = os.path.join(WORK, "data")
    datadir = os.path.join(root, f"{shape}-{seed}")
    if not os.path.exists(os.path.join(datadir, "expect.json")):
        shutil.rmtree(datadir, ignore_errors=True)
        os.makedirs(root, exist_ok=True)
        env = child_env(REPRO_CODEGEN_CACHE=tempfile.mkdtemp(
            dir=os.environ["PERFBENCH_TMP"]))
        subprocess.run([sys.executable, os.path.join(HERE, "gen.py"),
                        shape, str(seed), datadir], env=env, check=True,
                       timeout=CHILD_TIMEOUT_S)
        kept = sorted((os.path.getmtime(os.path.join(root, d)), d)
                      for d in os.listdir(root))
        for _, name in kept[:-KEEP_INPUTS]:
            shutil.rmtree(os.path.join(root, name), ignore_errors=True)
    return datadir


def _env(**extra: str) -> dict:
    """A child environment with its own empty codegen cache."""
    return child_env(REPRO_CODEGEN_CACHE=tempfile.mkdtemp(
        prefix="codegen-", dir=os.environ["PERFBENCH_TMP"]), **extra)


def _workloads_py(*args: str) -> "list[str]":
    return [os.path.join(HERE, "workloads.py"), *args]


def _tally(results: list) -> "tuple[int, int, list]":
    attempted = sum(r.get("attempted", 0) for r in results)
    failed = sum(r.get("failed", 0) for r in results)
    notes = [n for r in results for n in r.get("notes", [])]
    return attempted, failed, notes


def end_to_end(workload: str, datadir: str, seconds: float) -> tuple:
    setups = [_child(_workloads_py("setup", workload, datadir), _env())
              for _ in range(SETUP_SAMPLES)]
    run = _child(_workloads_py("measure", workload, datadir, str(seconds)),
                 _env())
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "docs_per_s": (run["stats"]["docs_per_s"], "docs/s"),
        "latency_p50_ms": (run["stats"]["p50_ms"], "ms"),
        "latency_p99_ms": (run["stats"]["p99_ms"], "ms"),
        "peak_rss_mb": (run["rss_mb"], "MB"),
    }
    info = {"stats": run["stats"],
            "setup_samples_s": [round(s["setup_s"], 4) for s in setups]}
    return metrics, [*setups, run], info


def _probe(workload: str, datadir: str) -> "tuple[float, float]":
    """Interpreter start + ``import repro`` (s) and a cold compile (ms)."""
    proc = subprocess.Popen(
        [sys.executable, *_workloads_py("probe", workload, datadir)],
        stdout=subprocess.PIPE, env=_env(), text=True,
        start_new_session=True)
    t0 = time.perf_counter()
    try:
        first = proc.stdout.readline()
        import_s = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("probe timed out") from None
    if first.strip() != "imported" or proc.returncode != 0:
        raise BenchError("probe failed")
    return import_s, json.loads(out.strip().splitlines()[-1])["compile_ms"]


def per_layer(workload: str, datadir: str, seconds: float,
              spin: float) -> tuple:
    from tracing import ENTRY_LAYERS, total

    half = seconds / 2
    plain = _child(_workloads_py("measure", workload, datadir, str(half)),
                   _env())
    trace_dir = tempfile.mkdtemp(prefix="trace-",
                                 dir=os.environ["PERFBENCH_TMP"])
    traced = _child(_workloads_py("measure-traced", workload, datadir,
                                  str(half)),
                    _env(PERFBENCH_TRACE_DIR=trace_dir))
    probes = [_probe(workload, datadir) for _ in range(PROBE_SAMPLES)]

    trace = traced["trace"]
    docs = traced["docs"]
    # the process whose timeline the layers must fill, and all of them
    if workload == "serve-feed":
        home = trace["server"]
        wall_ns = home["t_ns"] - home["counts"].get("idle_ns", 0)
        procs = [home]
        docs = home["calls"]["server.dispatch"]  # requests in the window
    else:
        home = trace["self"]
        wall_ns = traced["wall_ns"]
        procs = [home, *trace.get("workers", []), *traced.get("nodes", [])]
    every = total(procs)
    self_ns, incl_ns = every["self_ns"], every["incl_ns"]
    calls, counts = every["calls"], every["counts"]
    phases = traced.get("phases", {})

    def us(layer: str) -> float:
        return self_ns.get(layer, 0) / 1e3 / docs

    def per_call_us(layer: str) -> float:
        n = calls.get(layer, 0)
        return self_ns.get(layer, 0) / 1e3 / n if n else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def phase_us(name: str) -> float:
        return phases.get(name, 0.0) * 1e6 / docs

    node_busy = sum(n["incl_ns"].get("server.dispatch", 0)
                    for n in traced.get("nodes", []))
    federated = workload == "corpus-federated"
    pool = workload == "corpus-pool"
    serve = workload == "serve-feed"
    m = traced.get("metrics", {})

    def served_us(name: str) -> float:
        return ratio(m.get(f"{name}_sum", 0.0),
                     m.get(f"{name}_count", 0.0)) * 1e6

    # pool start: from each Pool() to the last of its workers through
    # init_worker (a worker belongs to the latest pool started before it)
    starts = sorted(t for name, t in every["marks"] if name == "pool_start")
    ready = {}
    for name, t in every["marks"]:
        if name == "worker_ready":
            owner = max((s for s in starts if s <= t), default=None)
            if owner is not None:
                ready[owner] = max(ready.get(owner, t), t)
    pool_start_ms = statistics.mean(ready[s] - s for s in ready) / 1e6 \
        if ready else 0.0

    queue_us = 0.0
    if serve:
        served_ns = sum(home["incl_ns"].get(k, 0) for k in
                        ("server.read", "server.dispatch", "server.write"))
        queue_us = (traced["latency_sum_ns"] - served_ns) / 1e3 / docs

    # an entry point's self time is code no layer covers (ENTRY_LAYERS)
    attributed_ns = sum(ns for layer, ns in home["self_ns"].items()
                        if layer not in ENTRY_LAYERS)
    values = {
        "engines.dispatch_us": us("engines.dispatch"),
        "codegen.prescan_us": us("codegen.prescan"),
        "codegen.scan_us": us("codegen.scan"),
        "codegen.runstate_us": us("codegen.runstate"),
        "codegen.skip_ratio": ratio(counts.get("elements_skipped", 0),
                                    counts.get("elements", 0)),
        "constraints.flush_us": us("constraints.flush"),
        "constraints.flush_per_doc": calls.get("constraints.flush", 0)
        / docs,
        "constraints.finish_us": us("constraints.finish"),
        "xmlio.parse_us": us("xmlio.parse"),
        "shard.partition_us": phase_us("partition") if federated else 0.0,
        "shard.validate_us": phase_us("validate") if federated else 0.0,
        "shard.merge_us": phase_us("merge") if federated else 0.0,
        "shard.fold_us": us("shard.fold"),
        "shard.extract_us": us("shard.extract"),
        "shard.node_busy_us": node_busy / 1e3 / docs,
        "shard.transport_us": (incl_ns.get("shard.request", 0) - node_busy)
        / 1e3 / docs if federated else 0.0,
        "shard.node_idle_ratio": 1 - ratio(
            node_busy, SHARDS * phases.get("validate", 0.0) * 1e9)
        if federated else 0.0,
        "shard.wire_bytes_per_doc": traced.get("wire_bytes", 0) / docs,
        "shard.fleet_start_s": plain.get("fleet_start_s", 0.0),
        "corpus.prepare_us": phase_us("prepare") if pool else 0.0,
        "corpus.validate_us": phase_us("validate") if pool else 0.0,
        "corpus.merge_us": phase_us("merge") if pool else 0.0,
        "corpus.pool_start_ms": pool_start_ms,
        "corpus.worker_busy_ratio": ratio(
            incl_ns.get("corpus.worker", 0),
            phases.get("validate", 0.0) * 1e9 * JOBS) if pool else 0.0,
        "corpus.key_us": us("corpus.key"),
        "corpus.cache_get_us": per_call_us("corpus.cache_get"),
        "corpus.cache_put_us": per_call_us("corpus.cache_put"),
        "corpus.cache_hit_ratio": ratio(counts.get("cache_hits", 0),
                                        counts.get("cache_lookups", 0)),
        "corpus.pool_us": us("corpus.pool"),
        "corpus.worker_us": us("corpus.worker"),
        "server.read_us": us("server.read"),
        "server.request_us": served_us("serve_request_seconds"),
        "server.engine_us": served_us("serve_engine_seconds"),
        "server.encode_us": us("server.encode"),
        "server.write_us": us("server.write"),
        "server.queue_us": queue_us,
        "server.dispatch_us": us("server.dispatch"),
        "obs.absorb_us": us("obs.absorb"),
        "registry.compile_ms": statistics.median(p[1] for p in probes),
        "repro.import_s": statistics.median(p[0] for p in probes),
        "loadgen.cpu_ratio": traced.get("loadgen_cpu_ratio", 0.0),
        "host.spin_ms": spin,
        "trace.overhead_ratio": traced["stats"]["docs_per_s"]
        / plain["stats"]["docs_per_s"],
        "trace.unattributed_ratio": 1 - attributed_ns / wall_ns,
        "latency.samples": plain["stats"]["samples"],
    }
    units = {name: unit for name, unit in
             ((d["name"], d["unit"]) for d in _declared("per_layer"))}
    metrics = {name: (values[name], units[name]) for name in units}
    info = {"layers_ms": {k: round(v / 1e6, 3) for k, v in
                          sorted(home["self_ns"].items())},
            "wall_ms": round(wall_ns / 1e6, 3),
            "untraced": plain["stats"], "traced": traced["stats"]}
    return metrics, [plain, traced], info


def _declared(kind: str) -> list:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[kind]


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: no src/repro here; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    os.environ["PERFBENCH_TMP"] = tempfile.mkdtemp(
        prefix="run-", dir=os.path.join(WORK, "tmp"))
    try:
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src",
                        HERE], check=True, stdout=subprocess.DEVNULL)
        datadir = _inputs(SHAPES[args.workload], args.seed)
        pin(program_cpu())
        spin = statistics.median(reference_s() for _ in range(3)) * 1e3
        if args.trace:
            metrics, results, info = per_layer(args.workload, datadir,
                                               args.seconds, spin)
        else:
            metrics, results, info = end_to_end(args.workload, datadir,
                                                args.seconds)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.environ["PERFBENCH_TMP"], ignore_errors=True)
    attempted, failed, notes = _tally(results)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "host_spin_ms": round(spin, 3), **info,
                      "failures": notes}), file=sys.stderr)
    emit({"correct": failed == 0, "attempted": attempted, "failed": failed,
          "metrics": {name: {"value": value, "unit": unit}
                      for name, (value, unit) in metrics.items()}})
    return 0


if __name__ == "__main__":
    sys.exit(main())
