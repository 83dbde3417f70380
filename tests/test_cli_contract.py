"""The cross-subcommand CLI contract.

Every ``repro-xic`` subcommand promises the same three things:

1. ``--format json`` puts exactly one parseable JSON value on stdout;
2. the 0/1/2 exit contract — 0 success / holds / clean, 1 violations /
   not implied / findings, 2 usage or input error;
3. a missing input file exits 2 (never a traceback).

This test is parametrized over the full subcommand table, so adding a
subcommand without wiring the shared ``--format`` parent or the exit
contract fails here, not in review.
"""

import json
import zlib

import pytest

from repro.cli.main import build_parser, main
from repro.workloads import book_document, random_corpus
from repro.workloads.book import BOOK_CONSTRAINTS_TEXT, BOOK_DTD_TEXT
from repro.xmlio import serialize

pytestmark = pytest.mark.usefixtures("capsys")


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """One schema + document + corpus directory for every case."""
    base = tmp_path_factory.mktemp("cli_contract")
    schema = base / "book.dtdc"
    schema.write_text(BOOK_DTD_TEXT + "\n%% constraints\n"
                      + BOOK_CONSTRAINTS_TEXT)
    doc = base / "book.xml"
    doc.write_text(serialize(book_document()))
    corpus = base / "corpus"
    corpus.mkdir()
    _dtd, docs = random_corpus(n_docs=4, invalid_fraction=0.0, seed=0)
    for i, tree in enumerate(docs):
        (corpus / f"doc{i}.xml").write_text(serialize(tree))
    lib_schema = base / "library.dtdc"
    lib_schema.write_text("""
<!ELEMENT library (entry*, ref*)>
<!ELEMENT entry (#PCDATA)?>
<!ELEMENT ref EMPTY>
<!ATTLIST entry isbn CDATA #REQUIRED shelf CDATA #REQUIRED>
<!ATTLIST ref to CDATA #REQUIRED>
%% constraints
entry.isbn -> entry
ref.to sub entry.isbn
""")
    from repro.obs import Observability

    obs = Observability()
    with obs.span("cli.fixture", kind="contract-test"):
        with obs.span("child"):
            obs.counter("fixture_things", help="counted things").add(1)
    obs_json = base / "obs.json"
    obs_json.write_text(obs.to_json())
    from repro.corpus import ResultCache
    from repro.dtd.validate import ValidationReport

    cache_dir = base / "result_cache"
    ResultCache(directory=cache_dir).put("00" + "a" * 62,
                                         ValidationReport())
    return {"schema": str(schema), "doc": str(doc),
            "corpus": str(corpus), "lib_schema": str(lib_schema),
            "obs_json": str(obs_json), "cache_dir": str(cache_dir)}


#: subcommand -> (argv builder, indices of argv that are input files).
#: The builder receives the cli_files dict; file indices drive the
#: missing-file case (each listed position is replaced in turn).
CASES = {
    "validate": (
        lambda f: ["--root", "book", "validate", f["doc"], f["schema"]],
        [3, 4]),
    "check-corpus": (
        lambda f: ["check-corpus", f["lib_schema"], f["corpus"]],
        [1]),
    "describe": (
        lambda f: ["--root", "book", "describe", f["schema"]],
        [3]),
    "lint": (
        lambda f: ["--root", "book", "lint", f["schema"]],
        [3]),
    "consistent": (
        lambda f: ["--root", "book", "consistent", f["schema"]],
        [3]),
    "imply": (
        lambda f: ["--root", "book", "imply", f["schema"],
                   "entry.isbn -> entry"],
        [3]),
    "path-type": (
        lambda f: ["--root", "book", "path-type", f["schema"],
                   "book", "ref"],
        [3]),
    "path-imply": (
        lambda f: ["--root", "book", "path-imply", f["schema"],
                   "book.ref -> book.ref"],
        [3]),
    "synth": (
        lambda f: ["--root", "book", "synth", f["schema"]],
        [3]),
    "bench-incremental": (
        lambda f: ["bench-incremental", "--nodes", "120",
                   "--updates", "2"],
        []),
    "profile": (
        lambda f: ["--root", "book", "profile", "--dtdc", f["schema"],
                   "--doc", f["doc"]],
        [4, 6]),
    "obs-export": (
        lambda f: ["obs-export", f["obs_json"]],
        [1]),
    "cache": (
        lambda f: ["cache", "prune", f["cache_dir"],
                   "--max-bytes", "1000000"],
        [2]),
}


class TestSharedFormatFlag:
    def test_every_subcommand_has_format(self):
        """The parent parser reaches every subparser — by construction,
        but this is the tripwire for future subcommands."""
        parser = build_parser()
        actions = [a for a in parser._subparsers._group_actions
                   if hasattr(a, "choices")]
        subparsers = actions[0].choices
        # ``serve`` (long-lived daemon) and ``top`` (polls a running
        # daemon) are not one-shot commands, so they stay out of the
        # CASES table — but both still inherit the shared --format
        # parent like everything else.
        assert set(subparsers) == set(CASES) | {"serve", "top"}
        for name, sub in subparsers.items():
            flags = {s for a in sub._actions for s in a.option_strings}
            assert "--format" in flags, f"{name} lacks --format"

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_json_output_parses(self, name, cli_files, capsys):
        argv_builder, _files = CASES[name]
        code = main(argv_builder(cli_files) + ["--format", "json"])
        assert code in (0, 1), f"{name} exited {code}"
        out = capsys.readouterr().out
        json.loads(out)  # must be exactly one JSON value

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_text_is_the_default(self, name, cli_files, capsys):
        argv_builder, _files = CASES[name]
        code = main(argv_builder(cli_files))
        assert code in (0, 1)
        out = capsys.readouterr().out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)


class TestExitContract:
    @pytest.mark.parametrize(
        "name", sorted(n for n, (_b, files) in CASES.items() if files))
    def test_missing_file_exits_2(self, name, cli_files, capsys):
        argv_builder, file_positions = CASES[name]
        for pos in file_positions:
            argv = argv_builder(cli_files)
            argv[pos] = "/no/such/path"
            assert main(argv) == 2, f"{name} argv[{pos}]"

    def test_violations_exit_1(self, cli_files, tmp_path, capsys):
        bad = book_document()
        bad.ext("ref")[0].set_attribute("to", ["nowhere"])
        path = tmp_path / "bad.xml"
        path.write_text(serialize(bad))
        assert main(["--root", "book", "validate", str(path),
                     cli_files["schema"]]) == 1

    def test_corpus_violations_exit_1(self, cli_files, tmp_path, capsys):
        _dtd, docs = random_corpus(n_docs=3, invalid_fraction=1.0, seed=1)
        for i, tree in enumerate(docs):
            (tmp_path / f"bad{i}.xml").write_text(serialize(tree))
        assert main(["check-corpus", cli_files["lib_schema"],
                     str(tmp_path)]) == 1

    def test_corpus_parse_error_exits_2(self, cli_files, tmp_path, capsys):
        (tmp_path / "broken.xml").write_text("<library><entry")
        assert main(["check-corpus", cli_files["lib_schema"],
                     cli_files["corpus"], str(tmp_path)]) == 2

    def test_corpus_parse_error_names_file_json(self, cli_files,
                                                tmp_path, capsys):
        """An exit-2 JSON report must say *which* document failed:
        the top-level ``error_documents`` array, in input order."""
        broken = tmp_path / "broken.xml"
        broken.write_text("<library><entry")
        assert main(["check-corpus", cli_files["lib_schema"],
                     cli_files["corpus"], str(tmp_path),
                     "--format", "json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 1
        assert payload["error_documents"] == [str(broken)]
        # and the per-document verdict carries the parse error itself
        bad = [v for v in payload["verdicts"] if v["error"] is not None]
        assert [v["doc"] for v in bad] == [str(broken)]

    def test_corpus_parse_error_names_file_text(self, cli_files,
                                                tmp_path, capsys):
        broken = tmp_path / "broken.xml"
        broken.write_text("<library><entry")
        assert main(["check-corpus", cli_files["lib_schema"],
                     cli_files["corpus"], str(tmp_path)]) == 2
        out = capsys.readouterr().out
        assert f"{broken}: ERROR" in out

    def test_corpus_no_documents_exits_2(self, cli_files, tmp_path,
                                         capsys):
        assert main(["check-corpus", cli_files["lib_schema"],
                     str(tmp_path)]) == 2


class TestCheckCorpusFlags:
    def test_jobs_and_cache(self, cli_files, tmp_path, capsys):
        argv = ["check-corpus", cli_files["lib_schema"],
                cli_files["corpus"], "--jobs", "2",
                "--cache", str(tmp_path), "--format", "json"]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert cold["cached"] == 0
        assert warm["cached"] == cold["documents"]
        assert warm["verdicts"] != []  # same verdicts either way
        strip = lambda vs: [  # noqa: E731
            {k: val for k, val in v.items() if k != "cached"}
            for v in vs]
        assert strip(warm["verdicts"]) == strip(cold["verdicts"])

    def test_wrong_cache_records_are_misses(self, cli_files, tmp_path,
                                           capsys):
        """Cache records that would flip a verdict if believed — the key
        differs from the one the CRC was taken over, the CRC fails, the
        payload is not a report, or the entry is in the old
        one-file-per-key layout — are misses: the verdicts are the
        ones a run without a cache prints."""
        _dtd, docs = random_corpus(n_docs=6, invalid_fraction=0.5, seed=3)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for i, tree in enumerate(docs):
            (corpus / f"doc{i}.xml").write_text(serialize(tree))
        argv = ["check-corpus", cli_files["lib_schema"], str(corpus),
                "--format", "json"]
        code = main(argv)
        plain = json.loads(capsys.readouterr().out)
        assert code == 1 and plain["invalid"] > 0

        def crc(key, body):
            return b"%08x" % zlib.crc32(body, zlib.crc32(key))

        def record(key, crc_value, body):
            return b"\nP %s %s %s\n" % (key, crc_value, body)

        records = []
        for i, verdict in enumerate(plain["verdicts"][:4]):
            key = verdict["key"].encode()
            wrong = (b'{"ok":true,"violations":[]}' if not verdict["ok"]
                     else b'{"ok":false,"violations":[{"code":"key",'
                          b'"constraint":"","message":"planted",'
                          b'"vertices":[]}]}')
            if i == 0:
                records.append(record(key, crc(b"f" * 64, wrong), wrong))
            elif i == 1:
                flipped = wrong.replace(b"violations", b"violationr")
                records.append(record(key, crc(key, wrong), flipped))
            else:
                body = b'{"violations":[{}]}' if i == 2 else b"[]"
                records.append(record(key, crc(key, body), body))
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "results.log").write_bytes(b"".join(records))
        old = plain["verdicts"][4]["key"]
        (cache / old[:2]).mkdir()
        (cache / old[:2] / f"{old[2:]}.json").write_text(json.dumps(
            {"key": "x", "report": {"violations": [{}]}}))

        assert main(argv + ["--cache", str(cache)]) == code
        cached = json.loads(capsys.readouterr().out)
        assert cached["cached"] == 0
        strip = lambda vs: json.dumps(  # noqa: E731
            [{k: val for k, val in v.items() if k != "cached"}
             for v in vs], sort_keys=True)
        assert strip(cached["verdicts"]) == strip(plain["verdicts"])


class TestServeUsage:
    """The fast (non-daemon) half of the ``serve`` contract; the
    running-daemon behaviour lives in ``tests/test_server.py``."""

    def test_no_transport_exits_2(self, capsys):
        assert main(["serve"]) == 2

    def test_bad_schema_spec_exits_2(self, cli_files, capsys):
        assert main(["serve", "--stdio",
                     "--schema", "no-equals-sign"]) == 2

    def test_missing_schema_file_exits_2(self, capsys):
        assert main(["serve", "--stdio",
                     "--schema", "book=/no/such/schema.dtdc"]) == 2


class TestStreamFlag:
    """The single-pass engine (``--engine codegen``; ``--stream`` until
    2.0) must be invisible in the output: same bytes, same exit status,
    same ``--format`` behaviour as the default batch path.

    (Kept out of ``CASES`` — that table enumerates subcommands, not
    flag variants.)
    """

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_validate_output_is_identical(self, cli_files, fmt, capsys):
        argv = ["--root", "book", "validate", cli_files["doc"],
                cli_files["schema"], "--format", fmt]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--engine", "codegen"]) == 0
        streamed = capsys.readouterr().out
        assert streamed == plain
        if fmt == "json":
            json.loads(streamed)

    def test_validate_violations_exit_1(self, cli_files, tmp_path,
                                        capsys):
        bad = book_document()
        bad.ext("ref")[0].set_attribute("to", ["nowhere"])
        path = tmp_path / "bad.xml"
        path.write_text(serialize(bad))
        argv = ["--root", "book", "validate", str(path),
                cli_files["schema"], "--format", "json"]
        assert main(argv) == 1
        plain = capsys.readouterr().out
        assert main(argv + ["--engine", "codegen"]) == 1
        assert capsys.readouterr().out == plain

    def test_validate_missing_file_exits_2(self, cli_files, capsys):
        assert main(["--root", "book", "validate", "/no/such/doc.xml",
                     cli_files["schema"], "--engine", "codegen"]) == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_check_corpus_verdicts_identical(self, cli_files, fmt,
                                             capsys):
        argv = ["check-corpus", cli_files["lib_schema"],
                cli_files["corpus"], "--jobs", "2", "--format", fmt]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--engine", "codegen"]) == 0
        streamed = capsys.readouterr().out
        if fmt == "json":
            p, s = json.loads(plain), json.loads(streamed)
            p.pop("phases_s"), s.pop("phases_s")  # wall clock may differ
            assert s == p
        else:
            drop_timings = lambda out: [  # noqa: E731
                line for line in out.splitlines()
                if "prepare=" not in line]
            assert drop_timings(streamed) == drop_timings(plain)


class TestEngineFlag:
    """``--engine`` selects the backend without touching the output
    contract: byte-identical stdout and the same exit status across
    every built-in engine."""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_validate_output_identical_across_engines(self, cli_files,
                                                      fmt, capsys):
        argv = ["--root", "book", "validate", cli_files["doc"],
                cli_files["schema"], "--format", fmt]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        for engine in ("batch", "codegen", "auto"):
            assert main(argv + ["--engine", engine]) == 0, engine
            assert capsys.readouterr().out == plain, engine

    def test_unknown_engine_exits_2(self, cli_files, capsys):
        assert main(["--root", "book", "validate", cli_files["doc"],
                     cli_files["schema"], "--engine", "psychic"]) == 2

    def test_check_corpus_engines_identical(self, cli_files, capsys):
        argv = ["check-corpus", cli_files["lib_schema"],
                cli_files["corpus"], "--format", "json"]
        assert main(argv) == 0
        plain = json.loads(capsys.readouterr().out)
        plain.pop("phases_s")
        for engine in ("codegen", "auto"):
            assert main(argv + ["--engine", engine]) == 0, engine
            got = json.loads(capsys.readouterr().out)
            got.pop("phases_s")
            assert got == plain, engine

    def test_serve_unknown_engine_exits_2(self, cli_files, capsys):
        assert main(["serve", "--stdio", "--engine", "psychic"]) == 2
