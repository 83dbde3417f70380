"""The ``repro-xic`` command-line tool.

Subcommands::

    repro-xic validate  DOC.xml SCHEMA.dtdc          # Definition 2.4
    repro-xic check-corpus SCHEMA.dtdc DOCS...       # parallel corpus run
    repro-xic describe  SCHEMA.dtdc                  # dump S and Sigma
    repro-xic lint      SCHEMA.dtdc                  # static analysis
    repro-xic imply     SCHEMA.dtdc "CONSTRAINT"     # basic implication
    repro-xic imply     --finite SCHEMA.dtdc "..."   # finite implication
    repro-xic path-type SCHEMA.dtdc TAU PATH         # type(tau.path), §4.1
    repro-xic path-imply SCHEMA.dtdc "t.p -> t.q"    # Props 4.1/4.2/4.3
    repro-xic bench-incremental                      # E16 speedup demo
    repro-xic profile --dtdc S.dtdc --doc D.xml      # span tree + counters
    repro-xic serve --port 8080 --schema book=B.dtdc # long-lived daemon
    repro-xic serve --stdio --schema book=B.dtdc     # JSONL over stdio

Every subcommand loads its schema through one per-process
:class:`~repro.server.registry.SchemaRegistry`, so the parse, the
fingerprint, and the compiled stream plan are built at most once per
schema per invocation and shared by every call site.  ``serve`` keeps
that registry alive across requests — see :mod:`repro.server`.

Every subcommand follows one exit-code contract (``validate`` and
``lint`` alike): 0 success / holds / implied / clean, 1 violation / not
implied / lint findings, 2 usage or input error.

Every subcommand also takes the same ``--format {text,json}`` flag
(from a shared parent parser, so the spelling cannot drift): ``text``
is the human-readable default, ``json`` emits one machine-readable
object on stdout with sorted keys.  ``check-corpus`` additionally
takes ``--jobs N`` (worker processes) and ``--cache DIR`` (persistent
result cache).  ``validate``, ``check-corpus`` and ``serve`` all take
``--engine {batch,codegen,auto}`` selecting the validation backend (see
:mod:`repro.engines`; ``auto`` runs as ``codegen``); output is
byte-identical across the built-in engines.

``lint`` runs the :mod:`repro.analysis` rule set over the schema:
``--format json`` for machine-readable output, ``--select`` /
``--ignore`` to filter rules by code prefix (e.g. ``--select XIC3``).
``describe`` prints the schema dump on stdout and routes its
diagnostics to stderr, so stdout stays parseable.

Observability: the global ``--trace`` / ``--metrics {text,json,prom}``
flags run any subcommand under an enabled
:class:`~repro.obs.Observability` handle and print the collected spans
and/or metrics to **stderr** afterwards (stdout stays the command's
own output).  ``profile`` is the dedicated front-end: it exercises the
parse → validate → implication → session pipeline on one
document/schema pair and prints the full report to **stdout**
(``--metrics json``/``prom`` select the export format).

Verbosity: ``-v`` adds progress notes, ``-q`` silences everything but
errors; all diagnostics flow through the ``repro`` logger
(:mod:`repro.cli.logging`) — never bare prints to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path as FsPath

from repro.cli.logging import LOG, configure_logging
from repro.constraints.parser import parse_constraint
from repro.constraints.wellformed import language_of
from repro.constraints.base import Language
from repro.dtd.validate import validate
from repro.errors import ReproError
from repro.implication.lid import LidEngine
from repro.implication.lu import LuEngine
from repro.implication.l_primary import LPrimaryEngine
from repro.obs import Observability, TraceContext, activate
from repro.paths.constraints import (
    PathFunctional, PathInclusion, PathInverse,
)
from repro.paths.implication import PathImplicationEngine
from repro.paths.path import parse_path, type_of
from repro.server.registry import SchemaRegistry
from repro.xmlio import decode_document
from repro.xmlio.dtdparse import parse_dtdc
from repro.xmlio.parser import parse_document

#: The per-process registry every subcommand loads its schema through.
#: ``put`` semantics (re-parse on every load) keep repeated ``main()``
#: calls in one process — the test suite — from ever seeing stale text.
_REGISTRY = SchemaRegistry()


def _load_schema(path: str, root: str | None):
    """Load SCHEMA through the process registry; returns the compiled
    :class:`~repro.server.registry.SchemaHandle` (schema + fingerprint
    + lazily compiled stream plan, each built once)."""
    return _REGISTRY.put(str(path), FsPath(path).read_text(), root=root)


def _load_dtdc(path: str, root: str | None):
    return _load_schema(path, root).dtd


def _print_json(payload: dict) -> None:
    """The one JSON emitter: sorted keys so output is diffable."""
    print(json.dumps(payload, indent=2, sort_keys=True))


def _worker_count(value: str) -> int:
    """argparse type for ``--jobs``/``--shards``: 0 means auto (cpu
    count), negatives are rejected here — at the flag, with the flag's
    name in the message — instead of deep inside the validator."""
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {value!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 1, or 0 for auto (cpu count); got {n}")
    return n


def _cmd_validate(args) -> int:
    handle = _load_schema(args.schema, args.root)
    dtd = handle.dtd
    LOG.info("loaded schema %s (|Sigma| = %d)", args.schema,
             len(dtd.constraints))
    engine = args.engine
    if engine is None or engine == "batch":
        tree = parse_document(
            decode_document(FsPath(args.document).read_bytes()),
            dtd.structure, obs=args.obs)
        LOG.info("parsed %s (%d vertices)", args.document, tree.size())
        report = validate(tree, dtd, obs=args.obs)
    else:
        from repro.validator import Validator

        report = Validator(handle, obs=args.obs).check(
            FsPath(args.document), engine=engine)
        LOG.info("validated %s (engine=%s)", args.document, engine)
    if args.format == "json":
        _print_json({"document": args.document, "schema": args.schema,
                     **report.to_dict()})
    else:
        print(report)
    # Same 0/1/2 contract as lint: 0 valid, 1 violations, 2 input error
    # (input errors raise ReproError/OSError, mapped to 2 in main()).
    return 0 if report.ok else 1


def _cmd_check_corpus(args) -> int:
    """Parallel Definition 2.4 over many documents (one schema)."""
    from repro.corpus import CorpusValidator

    handle = _load_schema(args.schema, args.root)
    docs: list[str] = []
    for target in args.documents:
        path = FsPath(target)
        if path.is_dir():
            docs.extend(str(p) for p in sorted(path.glob("*.xml")))
        else:
            docs.append(str(path))
    if not docs:
        LOG.error("error: no documents to validate")
        return 2
    if args.shards is not None or args.watch:
        return _check_corpus_sharded(args, handle, docs)
    LOG.info("validating %d document(s) with jobs=%d", len(docs),
             args.jobs)
    validator = CorpusValidator(handle, jobs=args.jobs, cache=args.cache,
                                obs=args.obs, engine=args.engine)
    report = validator.validate(docs)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report)
    # Exit contract: unreadable/unparseable documents are input errors
    # (2) even when other documents validated; violations alone are 1.
    # Both formats name the offending files: the text report lists them
    # under "documents with findings", the JSON report carries the
    # top-level "error_documents" array.
    if report.n_errors:
        LOG.error("error: %d document(s) could not be processed: %s",
                  report.n_errors, ", ".join(report.error_documents))
        return 2
    return 0 if report.ok else 1


def _shard_exit(report) -> int:
    """The check-corpus exit contract extended to corpus-level
    findings: an ``L_id`` clash across documents is a violation (1)
    exactly like a per-document one."""
    if report.n_errors:
        LOG.error("error: %d document(s) could not be processed: %s",
                  report.n_errors, ", ".join(report.error_documents))
        return 2
    return 0 if report.corpus_ok else 1


def _check_corpus_sharded(args, handle, docs: "list[str]") -> int:
    """``check-corpus --shards N [--watch]``: the sharded coordinator
    over ``serve --stdio`` subprocess nodes."""
    from repro.shard import (
        ShardedCorpusValidator, SubprocessNode, WatchSession,
    )

    shards = args.shards if args.shards is not None else 1
    LOG.info("validating %d document(s) across %s shard(s)",
             len(docs), shards or "auto")
    with ShardedCorpusValidator(
            handle, shards=shards, cache=args.cache, obs=args.obs,
            engine=args.engine or "auto",
            node_factory=SubprocessNode) as validator:
        if not args.watch:
            report = validator.validate(docs)
            if args.format == "json":
                print(report.to_json())
            else:
                print(report)
            return _shard_exit(report)

        session = WatchSession(validator, args.documents)
        last = {"delta": None}

        def on_delta(delta) -> None:
            last["delta"] = delta
            if args.format == "json":
                _print_json(delta.to_dict())
            else:
                print(delta)

        try:
            session.run(interval=args.interval,
                        max_cycles=args.max_cycles, on_delta=on_delta)
        except KeyboardInterrupt:
            LOG.info("watch interrupted after %d cycle(s)", session.cycle)
        if last["delta"] is None:
            LOG.error("error: watch saw no documents")
            return 2
        return _shard_exit(last["delta"].report)


def _cmd_cache_prune(args) -> int:
    """Trim a persistent result-cache directory to a byte budget."""
    from repro.corpus import ResultCache

    if not FsPath(args.directory).is_dir():
        LOG.error("error: no such cache directory: %s", args.directory)
        return 2
    cache = ResultCache(directory=args.directory)
    before = cache.disk_bytes()
    stats = cache.prune(max_bytes=args.max_bytes)
    if args.format == "json":
        _print_json({"directory": args.directory,
                     "max_bytes": args.max_bytes,
                     "before_bytes": before, **stats})
    else:
        print(f"cache {args.directory}: {before} -> "
              f"{stats['kept_bytes']} bytes "
              f"({stats['evicted']} entr{'y' if stats['evicted'] == 1 else 'ies'} "
              f"evicted, {stats['kept']} kept)")
    return 0


def _cmd_bench_incremental(args) -> int:
    """Experiment E16 in miniature: time ``session.revalidate()`` after
    single updates against a from-scratch ``check()`` on the same tree."""
    from repro.cli.bench import bench_incremental

    result = bench_incremental(nodes=args.nodes, updates=args.updates,
                               seed=args.seed)
    if args.format == "json":
        _print_json(result)
        return 0
    print(f"document: {result['vertices']} vertices, "
          f"|Sigma| = {result['sigma']}")
    print(f"revalidate after 1 update: {result['incremental_us']:10.1f} us  "
          f"(mean of {result['updates']})")
    print(f"full check():              {result['full_us']:10.1f} us  "
          f"(mean of {result['full_runs']})")
    print(f"speedup: {result['speedup']:.1f}x")
    return 0


def _cmd_describe(args) -> int:
    from repro.analysis import analyze

    dtd = _load_dtdc(args.schema, args.root)
    if args.format == "json":
        _print_json({"schema": args.schema,
                     "root": dtd.structure.root,
                     "description": dtd.describe(),
                     "constraints": [str(c) for c in dtd.constraints]})
    else:
        print(dtd.describe())
    # Diagnostics go to stderr (via the logger) so stdout stays a clean
    # schema dump; -q suppresses them, errors never are.
    for diagnostic in analyze(dtd, obs=args.obs):
        LOG.warning("%s", diagnostic)
    return 0


def _lint_prefixes(raw: list[str] | None) -> tuple[str, ...]:
    """Flatten repeatable, comma-separated ``--select``/``--ignore``
    values into a tuple of code prefixes."""
    out: list[str] = []
    for chunk in raw or []:
        out.extend(p for p in (s.strip() for s in chunk.split(",")) if p)
    return tuple(out)


def _check_rule_prefixes(prefixes: tuple[str, ...], flag: str) -> str | None:
    """Validate ``--select``/``--ignore`` prefixes against the registry;
    returns an error message naming the first unknown code, or None."""
    from repro.analysis import DEFAULT_REGISTRY

    codes = DEFAULT_REGISTRY.codes()
    for prefix in prefixes:
        if not any(code.startswith(prefix) for code in codes):
            return (f"{flag}: unknown rule code {prefix!r} (no registered "
                    f"rule matches; known codes: {', '.join(codes)})")
    return None


def _cmd_lint(args) -> int:
    from repro.analysis import LintConfig, analyze, attach_evidence

    select = _lint_prefixes(args.select)
    ignore = _lint_prefixes(args.ignore)
    for prefixes, flag in ((select, "--select"), (ignore, "--ignore")):
        message = _check_rule_prefixes(prefixes, flag)
        if message is not None:
            LOG.error("error: %s", message)
            return 2
    # check=False: the linter reports ill-formedness, it must not raise.
    dtd = parse_dtdc(FsPath(args.schema).read_text(), root=args.root,
                     check=False)
    config = LintConfig(select=select, ignore=ignore)
    report = analyze(dtd, config, obs=args.obs)
    if args.witness:
        report = attach_evidence(report, dtd, obs=args.obs)
    if args.format == "json":
        print(report.to_json(schema=args.schema))
    else:
        print(report)
        if args.witness:
            for d in report:
                if d.evidence is None and d.evidence_note is None:
                    continue
                print(f"\n{d.code} evidence"
                      + (f" ({d.evidence_note})" if d.evidence_note
                         else "") + ":")
                if d.evidence is not None:
                    print(d.evidence.rstrip("\n"))
    return 0 if report.clean else 1


def _cmd_consistent(args) -> int:
    # Routed through the shared satisfiability core — the same verdict
    # the lint rules XIC104/XIC303 report, so CLI and lint cannot
    # disagree (satellite of the synthesis subsystem).
    from repro.synthesis import check_satisfiability

    report = check_satisfiability(_load_dtdc(args.schema, args.root),
                                  synthesize=False, obs=args.obs)
    if args.format == "json":
        _print_json({"schema": args.schema,
                     "consistent": report.satisfiable,
                     "verdict": str(report.verdict),
                     "required": sorted(report.required),
                     "vacuous": sorted(report.vacuous),
                     "conflicts": sorted(report.conflicts),
                     "unsat_core": report.core.to_dict()
                     if report.core else None})
    else:
        if report.satisfiable:
            print("consistent (no required type is constraint-forced "
                  "to be empty, every required type generates)")
        else:
            inner = ", ".join(sorted(report.conflicts))
            print(f"INCONSISTENT: type(s) {{{inner}}} are required by "
                  "the content models but cannot occur in any valid "
                  "document")
            print(str(report.core))
    return 0 if report.satisfiable else 1


def _cmd_synth(args) -> int:
    """Satisfiability + witness synthesis: exit 0 SAT (witness ships),
    1 UNSAT (unsat core ships), 2 input error or UNKNOWN."""
    from repro.synthesis import Verdict, check_satisfiability, \
        per_constraint_witnesses
    from repro.xmlio.serializer import serialize

    dtd = _load_dtdc(args.schema, args.root)
    report = check_satisfiability(dtd, obs=args.obs)
    payload: dict = {"schema": args.schema, **report.to_dict(),
                     "witness": None}
    if report.witness is not None:
        xml = serialize(report.witness)
        payload["witness"] = xml
        if args.witness_out:
            FsPath(args.witness_out).write_text(xml)
            LOG.info("wrote witness to %s", args.witness_out)
    if args.per_constraint and report.verdict is Verdict.SAT:
        per = per_constraint_witnesses(dtd, obs=args.obs)
        payload["per_constraint"] = [
            {"constraint": str(entry["constraint"]),
             "exercised": entry["exercised"],
             "witness": serialize(entry["witness"])
             if entry["witness"] is not None else None}
            for entry in per]
    if args.format == "json":
        _print_json(payload)
    else:
        print(report)
        if report.witness is not None and not args.witness_out:
            print(payload["witness"].rstrip("\n"))
        for entry in payload.get("per_constraint", ()):
            print(f"\n# {entry['constraint']}"
                  + ("" if entry["exercised"] else " (not exercisable)"))
            if entry["witness"]:
                print(entry["witness"].rstrip("\n"))
    if report.verdict is Verdict.SAT:
        return 0
    if report.verdict is Verdict.UNSAT:
        return 1
    LOG.error("error: verdict is UNKNOWN — no conflict found, but no "
              "witness could be verified")
    return 2


def _pick_engine(sigma, phi, obs=None):
    """Choose the decider from the joint language of Σ ∪ {φ} — but
    build it over Σ only."""
    language = language_of(list(sigma) + [phi])
    if language & Language.LID:
        return LidEngine(sigma, obs=obs)
    if language & Language.LU:
        return LuEngine(sigma, obs=obs)
    return LPrimaryEngine(sigma, obs=obs)


def _cmd_imply(args) -> int:
    dtd = _load_dtdc(args.schema, args.root)
    phi = parse_constraint(args.constraint, dtd.structure)
    sigma = list(dtd.constraints)
    engine = _pick_engine(sigma, phi, obs=args.obs)
    result = engine.finitely_implies(phi) if args.finite \
        else engine.implies(phi)
    if args.format == "json":
        _print_json({"schema": args.schema, "constraint": args.constraint,
                     "finite": args.finite, "implied": bool(result),
                     "explanation": result.explain()})
    else:
        print(result.explain())
    return 0 if result else 1


def _cmd_path_type(args) -> int:
    dtd = _load_dtdc(args.schema, args.root)
    path_type = type_of(dtd, args.element, parse_path(args.path))
    if args.format == "json":
        _print_json({"schema": args.schema, "element": args.element,
                     "path": args.path, "type": str(path_type)})
    else:
        print(path_type)
    return 0


def _parse_path_constraint(text: str):
    for sep, cls in ((" inv ", PathInverse), (" sub ", PathInclusion),
                     (" -> ", PathFunctional)):
        if sep in text:
            left, right = text.split(sep, 1)
            lelem, _dot, lpath = left.strip().partition(".")
            relem, _dot, rpath = right.strip().partition(".")
            if cls is PathFunctional:
                if lelem != relem:
                    raise ReproError(
                        "a path functional constraint uses one element "
                        "type on both sides")
                return PathFunctional(lelem, parse_path(lpath),
                                      parse_path(rpath))
            return cls(lelem, parse_path(lpath), relem, parse_path(rpath))
    raise ReproError(f"cannot parse path constraint {text!r} "
                     "(use '->', 'sub' or 'inv')")


def _cmd_path_imply(args) -> int:
    dtd = _load_dtdc(args.schema, args.root)
    phi = _parse_path_constraint(args.constraint)
    result = PathImplicationEngine(dtd).implies(phi)
    if args.format == "json":
        _print_json({"schema": args.schema, "constraint": args.constraint,
                     "implied": bool(result),
                     "explanation": result.explain()})
    else:
        print(result.explain())
    return 0 if result else 1


def _cmd_profile(args) -> int:
    """Exercise the full pipeline on one document/schema pair under an
    enabled observability handle; print the span tree + counter report.

    Stages: parse the document, ``validate`` it (Definition 2.4), run
    the implication closure over Σ (when Σ has a decider — mixed or
    restriction-violating Σ is noted and skipped), and open an
    incremental session plus one ``revalidate()``.
    """
    from repro.incremental import DocumentSession

    obs = args.obs if args.obs is not None else Observability()
    dtd = parse_dtdc(FsPath(args.dtdc).read_text(), root=args.root)
    tree = parse_document(decode_document(FsPath(args.doc).read_bytes()),
                          dtd.structure, obs=obs)
    report = validate(tree, dtd, obs=obs)
    LOG.info("validate: %d vertices, %d violation(s)", tree.size(),
             len(report.violations))
    sigma = list(dtd.constraints)
    if sigma:
        try:
            language = language_of(sigma)
            if language & Language.LID:
                LidEngine(sigma, obs=obs)
            elif language & Language.LU:
                LuEngine(sigma, obs=obs)
            else:
                LPrimaryEngine(sigma, obs=obs)
        except ReproError as exc:
            LOG.info("implication closure skipped: %s", exc)
    session = DocumentSession(tree, dtd.constraints, dtd.structure, obs=obs)
    session.revalidate()
    # --metrics {json,prom} picks the export precisely; otherwise the
    # shared --format flag selects text vs JSON like everywhere else.
    fmt = args.metrics or args.format
    if fmt == "json":
        print(obs.to_json())
    elif fmt == "prom":
        print(obs.to_prometheus())
    else:
        print(obs.render())
    args.obs = None  # report printed here; stop main() re-emitting it
    return 0 if report.ok else 1


def _cmd_obs_export(args) -> int:
    """Convert an observability export to Chrome trace-event JSON
    (``repro-xic obs-export``) — loadable in Perfetto / chrome://tracing.

    Accepts any of the JSON shapes this tool emits: an ``obs.to_json()``
    report (``--metrics json``, ``profile --format json``), a server
    validate response carrying an inline ``"trace"`` (``?trace=1``), or
    an already-converted trace-event payload (validated and passed
    through).
    """
    from repro.obs import trace_events, validate_trace_events

    try:
        payload = json.loads(FsPath(args.input).read_text())
    except OSError as exc:
        raise ReproError(f"cannot read {args.input}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReproError(f"{args.input} is not JSON: {exc}") from exc
    if isinstance(payload, dict) and "traceEvents" in payload:
        trace = payload
    elif isinstance(payload, dict) and \
            isinstance(payload.get("trace"), dict) and \
            "traceEvents" in payload["trace"]:
        trace = payload["trace"]
    elif isinstance(payload, dict) and payload.get("spans"):
        trace = trace_events(payload["spans"])
    else:
        raise ReproError(
            f"{args.input}: no spans to export — expected an obs JSON "
            "report with a non-empty 'spans' list, a ?trace=1 validate "
            "response, or a trace-event payload")
    problems = validate_trace_events(trace)
    if problems:
        for problem in problems:
            LOG.error("invalid trace event: %s", problem)
        return 2
    text = json.dumps(trace, sort_keys=True)
    if args.out:
        FsPath(args.out).write_text(text + "\n")
        LOG.info("wrote %s", args.out)
    if args.format == "json":
        print(text)
    else:
        events = trace.get("traceEvents", [])
        slices = [e for e in events if e.get("ph") == "X"]
        pids = {e.get("pid") for e in slices}
        end = max((e["ts"] + e.get("dur", 0) for e in slices), default=0)
        trace_id = (trace.get("otherData") or {}).get("trace_id")
        print(f"trace {trace_id or '(no trace id)'}: {len(slices)} "
              f"span(s) across {len(pids)} process(es), "
              f"{end / 1000.0:.3f} ms synthetic timeline"
              + (f" -> {args.out}" if args.out
                 else "; use --out FILE or --format json to export"))
    return 0


def _cmd_top(args) -> int:
    """Live stats view of a running daemon (``repro-xic top``)."""
    from repro.cli.top import run_top

    url = args.url.rstrip("/")
    if not url.startswith(("http://", "https://")):
        url = "http://" + url
    if not url.endswith("/v1/stats"):
        url = url + "/v1/stats"
    try:
        return run_top(url, interval=args.interval, count=args.count,
                       clear=not args.no_clear,
                       as_json=(args.format == "json"))
    except KeyboardInterrupt:
        return 0
    except ValueError as exc:
        raise ReproError(str(exc)) from exc


def _parse_schema_specs(specs: "list[str] | None"
                        ) -> "list[tuple[str, str]]":
    """Split repeatable ``--schema NAME=PATH`` values."""
    out: list[tuple[str, str]] = []
    for spec in specs or []:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            raise ReproError(f"--schema expects NAME=PATH, got {spec!r}")
        out.append((name, path))
    return out


def _cmd_serve(args) -> int:
    """Run the long-lived validation daemon (``repro-xic serve``).

    At least one transport must be enabled: ``--port N`` binds the
    hand-rolled HTTP front door (``0`` picks an ephemeral port, which
    is announced on stdout), ``--stdio`` speaks JSONL over this
    process's stdin/stdout (EOF on stdin is the clean shutdown).
    ``--schema NAME=PATH`` preloads schemas; more can be loaded, hot-
    reloaded, and unloaded at runtime through either transport.
    """
    import asyncio

    from repro.obs import NULL_TRACER, EventLog
    from repro.server import ValidationServer

    if args.port is None and not args.stdio:
        LOG.error("error: serve needs --port N and/or --stdio")
        return 2
    if not 0.0 <= args.sample <= 1.0:
        LOG.error("error: --sample must be within [0, 1]")
        return 2
    from repro import engines as _engines

    if args.engine not in _engines.names():
        LOG.error("error: unknown engine %r (known: %s)",
                  args.engine, ", ".join(_engines.names()))
        return 2
    specs = _parse_schema_specs(args.schema)
    # The server-lifetime obs handle backs GET /metrics; the global
    # --trace/--metrics flags still print it to stderr on exit like any
    # other subcommand (tracer off by default: bounded memory).
    obs = args.obs if args.obs is not None \
        else Observability(tracer=NULL_TRACER)
    # The event log exists before the registry so schema preloads are
    # its first entries; --log-file makes it durable (JSONL append).
    events = EventLog(path=args.log_file)
    if obs.enabled and not obs.events:
        obs.events = events
    registry = SchemaRegistry(obs=obs)
    for name, path in specs:
        handle = registry.load(name, path, root=args.root)
        LOG.info("loaded schema %s v%d (root %s, fingerprint %s)",
                 name, handle.version, handle.dtd.structure.root,
                 handle.fingerprint[:12])
    server = ValidationServer(registry, cache=args.cache, obs=obs,
                              default_mode=args.engine,
                              sample=args.sample, slow_ms=args.slow_ms,
                              events=events,
                              trace_capacity=args.trace_capacity)

    async def _run() -> int:
        import signal

        loop = asyncio.get_running_loop()
        # Explicit handlers: SIGTERM for service managers, and SIGINT
        # even when a non-interactive shell started us with it ignored
        # (backgrounded jobs) — both wind down cleanly with exit 0.
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, server.request_shutdown)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread or exotic platform
        tasks: list = []
        try:
            if args.port is not None:
                host, port = await server.start_http(args.host, args.port)
                LOG.info("HTTP listening on %s:%d", host, port)
                if not args.stdio:
                    # stdout is free of the JSONL transport here, so
                    # announce the bound address (ephemeral --port 0
                    # would otherwise be unusable).
                    if args.format == "json":
                        _print_json({"event": "ready", "host": host,
                                     "port": port,
                                     "schemas": registry.names()})
                    else:
                        print(f"serving http://{host}:{port}", flush=True)
            if args.stdio:
                tasks.append(asyncio.ensure_future(server.serve_stdio()))
            if tasks:
                await asyncio.gather(*tasks)
            else:
                await server.wait_shutdown()
        finally:
            await server.close()
        return 0

    try:
        return asyncio.run(_run())
    except KeyboardInterrupt:
        LOG.info("interrupted; shut down")
        return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser for all subcommands.

    Every subcommand inherits the shared ``--format {text,json}`` flag
    from one parent parser, so the spelling and default are identical
    across the whole tool by construction.
    """
    parser = argparse.ArgumentParser(
        prog="repro-xic",
        description="Integrity constraints for XML (Fan & Simeon, "
        "PODS 2000): validation, implication, path reasoning.",
        epilog="exit status (all subcommands, validate and lint alike): "
        "0 success / valid / implied / clean; "
        "1 violations / not implied / lint findings; "
        "2 usage or input error.")
    parser.add_argument("--root", default=None,
                        help="root element type (default: first declared)")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="more diagnostics on stderr (-vv for debug)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="errors only on stderr")
    parser.add_argument("--trace", action="store_true",
                        help="collect spans while the command runs and "
                        "print the span tree to stderr afterwards")
    parser.add_argument("--metrics", choices=("text", "json", "prom"),
                        default=None, metavar="{text,json,prom}",
                        help="collect metrics and print them to stderr in "
                        "this format (profile prints to stdout instead)")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text",
                     help="stdout format (default: text); json output "
                     "has sorted keys")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[fmt],
                       help="validate a document (Def 2.4); "
                       "exit 0 valid, 1 violations, 2 input error")
    p.add_argument("document")
    p.add_argument("schema")
    p.add_argument("--engine", default=None, metavar="NAME",
                   help="validation backend: batch (default; parse then "
                   "validate), codegen (one pass, O(depth) memory, "
                   "scanners specialised to the schema), auto (codegen), "
                   "or a registered third-party engine; output and exit "
                   "status are identical across the built-ins")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("check-corpus", parents=[fmt],
                       help="validate many documents against one schema "
                       "in parallel, with an optional persistent result "
                       "cache; exit 0 all valid, 1 violations, 2 any "
                       "unreadable/unparseable document")
    p.add_argument("schema")
    p.add_argument("documents", nargs="+", metavar="DOC",
                   help="XML files and/or directories (a directory "
                   "contributes its *.xml files, sorted)")
    p.add_argument("--jobs", type=_worker_count, default=1, metavar="N",
                   help="worker processes (default: 1, in-process; 0 "
                   "means one per CPU; verdicts are identical for "
                   "every N)")
    p.add_argument("--shards", type=_worker_count, default=None,
                   metavar="N",
                   help="validate across N shard nodes instead of "
                   "worker processes (0 means one per CPU); documents "
                   "are partitioned by content hash, L_id constraints "
                   "are folded at the coordinator, and verdicts are "
                   "byte-identical to a serial run; each shard is a "
                   "'serve --stdio' worker process)")
    p.add_argument("--watch", action="store_true",
                   help="keep running: re-stat the corpus every "
                   "--interval seconds and revalidate only files whose "
                   "content changed (implies --shards 1 unless given)")
    p.add_argument("--interval", type=float, default=2.0,
                   metavar="SECS",
                   help="watch poll interval (default: 2.0)")
    p.add_argument("--max-cycles", type=int, default=None, metavar="N",
                   help="stop watching after N polls (default: until "
                   "interrupted)")
    p.add_argument("--cache", default=None, metavar="DIR",
                   help="persistent result-cache directory (re-running "
                   "an unchanged corpus costs one hash per document)")
    p.add_argument("--engine", default=None, metavar="NAME",
                   help="per-document backend: batch (default), "
                   "codegen or auto (codegen); the single-pass engine "
                   "reads files straight from disk and verdicts are "
                   "identical across engines")
    p.set_defaults(func=_cmd_check_corpus)

    p = sub.add_parser("cache", parents=[fmt],
                       help="manage a persistent result-cache directory")
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    cp = cache_sub.add_parser("prune", parents=[fmt],
                              help="evict least-recently-used entries "
                              "until the store fits a byte budget")
    cp.add_argument("directory", metavar="DIR",
                    help="the cache directory (as passed to --cache)")
    cp.add_argument("--max-bytes", type=int, default=0, metavar="B",
                    help="byte budget to trim to (default: 0 — empty "
                    "the store)")
    cp.set_defaults(func=_cmd_cache_prune)

    p = sub.add_parser("bench-incremental", parents=[fmt],
                       help="benchmark session.revalidate() vs a full "
                       "check() on a generated document (E16)")
    p.add_argument("--nodes", type=int, default=10000,
                   help="document size budget (default: 10000)")
    p.add_argument("--updates", type=int, default=100,
                   help="number of timed single updates (default: 100)")
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed (default: 0)")
    p.set_defaults(func=_cmd_bench_incremental)

    p = sub.add_parser("describe", parents=[fmt], help="print the DTD^C")
    p.add_argument("schema")
    p.set_defaults(func=_cmd_describe)

    p = sub.add_parser("lint", parents=[fmt],
                       help="static analysis of the schema (XIC codes)")
    p.add_argument("schema")
    p.add_argument("--select", action="append", metavar="CODES",
                   help="only run rules matching these comma-separated "
                   "code prefixes (e.g. XIC3,XIC101); repeatable")
    p.add_argument("--ignore", action="append", metavar="CODES",
                   help="skip rules matching these comma-separated code "
                   "prefixes; repeatable")
    p.add_argument("--witness", action="store_true",
                   help="attach concrete evidence documents to semantic "
                   "findings (synthesized witnesses/counterexamples)")
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("consistent", parents=[fmt],
                       help="decide schema satisfiability (shared core "
                       "with lint and synth); exit 0 SAT, 1 UNSAT")
    p.add_argument("schema")
    p.set_defaults(func=_cmd_consistent)

    p = sub.add_parser("synth", parents=[fmt],
                       help="decide satisfiability and synthesize a "
                       "minimal zero-violation witness document (SAT) "
                       "or an unsat core (UNSAT); exit 0 SAT, 1 UNSAT, "
                       "2 input error/unknown")
    p.add_argument("schema")
    p.add_argument("--witness", dest="witness_out", metavar="OUT.xml",
                   default=None,
                   help="write the witness document to this file "
                   "instead of stdout")
    p.add_argument("--per-constraint", action="store_true",
                   help="additionally synthesize one minimal witness "
                   "per constraint of Sigma")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("imply", parents=[fmt],
                       help="decide Sigma |= phi")
    p.add_argument("--finite", action="store_true",
                   help="decide finite implication instead")
    p.add_argument("schema")
    p.add_argument("constraint")
    p.set_defaults(func=_cmd_imply)

    p = sub.add_parser("path-type", parents=[fmt],
                       help="type(tau.path), §4.1")
    p.add_argument("schema")
    p.add_argument("element")
    p.add_argument("path")
    p.set_defaults(func=_cmd_path_type)

    p = sub.add_parser("path-imply", parents=[fmt],
                       help="decide path-constraint implication (§4.2)")
    p.add_argument("schema")
    p.add_argument("constraint")
    p.set_defaults(func=_cmd_path_imply)

    p = sub.add_parser("profile", parents=[fmt],
                       help="run parse -> validate -> implication -> "
                       "session on one document/schema pair and print "
                       "the span tree + counter report")
    p.add_argument("--dtdc", required=True, metavar="SCHEMA",
                   help="the DTD^C schema file")
    p.add_argument("--doc", required=True, metavar="DOC",
                   help="the XML document file")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("serve", parents=[fmt],
                       help="run the long-lived validation daemon "
                       "(SchemaRegistry + HTTP/JSONL front door); "
                       "schemas compile once and hot-reload with zero "
                       "downtime")
    p.add_argument("--host", default="127.0.0.1",
                   help="HTTP bind address (default: 127.0.0.1)")
    p.add_argument("--port", type=int, default=None, metavar="N",
                   help="bind the HTTP transport on this port "
                   "(0 picks an ephemeral port, announced on stdout)")
    p.add_argument("--stdio", action="store_true",
                   help="speak JSONL over stdin/stdout (one request "
                   "object per line; EOF is a clean shutdown)")
    p.add_argument("--schema", action="append", metavar="NAME=PATH",
                   help="preload a DTD^C under NAME; repeatable "
                   "(--root applies to each)")
    p.add_argument("--cache", default=None, metavar="DIR",
                   help="content-addressed result cache: byte-identical "
                   "re-submissions are answered without re-validating")
    p.add_argument("--engine", default="auto", metavar="NAME",
                   help="default validate engine for requests that do "
                   "not name one: auto (default; the single-pass codegen "
                   "engine), codegen, batch, or a registered third-party "
                   "engine")
    p.add_argument("--sample", type=float, default=0.0, metavar="RATE",
                   help="per-request trace sampling rate in [0, 1] "
                   "(default: 0; ?trace=1 and sampled traceparent "
                   "headers always trace)")
    p.add_argument("--slow-ms", type=float, default=500.0, metavar="MS",
                   help="requests slower than this land in the slow "
                   "log and emit a slow-request event (default: 500)")
    p.add_argument("--log-file", default=None, metavar="FILE",
                   help="append the structured event log (JSONL) to "
                   "this file, beyond the bounded in-memory ring")
    p.add_argument("--trace-capacity", type=int, default=256,
                   metavar="N",
                   help="sampled traces retained for GET /v1/traces/"
                   "<id> (default: 256)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("obs-export", parents=[fmt],
                       help="convert an observability JSON export (or "
                       "a ?trace=1 validate response) to Chrome "
                       "trace-event JSON for Perfetto/chrome://tracing")
    p.add_argument("input", metavar="OBS.json",
                   help="obs report (--metrics json), validate "
                   "response with an inline trace, or trace-event "
                   "payload to validate and pass through")
    p.add_argument("--out", default=None, metavar="TRACE.json",
                   help="also write the trace-event JSON to this file")
    p.set_defaults(func=_cmd_obs_export)

    p = sub.add_parser("top", parents=[fmt],
                       help="live view of a running daemon: polls "
                       "GET /v1/stats and repaints rps, latency "
                       "quantiles, cache ratio, slow requests "
                       "(--format json prints the raw payload)")
    p.add_argument("url", metavar="URL",
                   help="daemon base url or /v1/stats endpoint, e.g. "
                   "http://127.0.0.1:8080")
    p.add_argument("--interval", type=float, default=2.0, metavar="S",
                   help="seconds between polls (default: 2)")
    p.add_argument("--count", type=int, default=None, metavar="N",
                   help="stop after N paints (default: run until ^C)")
    p.add_argument("--no-clear", action="store_true",
                   help="do not clear the screen between paints "
                   "(append panels instead; good for transcripts)")
    p.set_defaults(func=_cmd_top)
    return parser


def _emit_obs(obs: Observability, trace: bool, metrics: str | None) -> None:
    """Print the collected spans/metrics to stderr (non-profile path)."""
    from repro.obs.export import render_metrics, render_spans

    if metrics == "json":
        print(obs.to_json(), file=sys.stderr)
        return
    if metrics == "prom":
        print(obs.to_prometheus(), file=sys.stderr)
        return
    parts = []
    if trace:
        parts.append(render_spans(obs.tracer))
    if metrics:
        parts.append(render_metrics(obs.metrics))
    print("\n".join(parts), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(-1 if args.quiet else args.verbose)
    args.obs = Observability() if (args.trace or args.metrics) else None
    # --trace runs the whole command under one TraceContext, so every
    # span (including worker-process chunk spans) shares one trace_id.
    ctx = TraceContext.new() if args.trace else None
    try:
        with activate(ctx):
            code = args.func(args)
    except ReproError as exc:
        LOG.error("error: %s", exc)
        return 2
    except OSError as exc:
        LOG.error("error: %s", exc)
        return 2
    if args.obs is not None:
        _emit_obs(args.obs, args.trace, args.metrics)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
