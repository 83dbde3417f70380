"""Tests for the repro-xic command-line interface."""

import pytest

from repro.cli.main import main
from repro.workloads.book import BOOK_CONSTRAINTS_TEXT, BOOK_DTD_TEXT
from repro.workloads import book_document
from repro.xmlio import serialize


@pytest.fixture
def schema_file(tmp_path):
    path = tmp_path / "book.dtdc"
    path.write_text(BOOK_DTD_TEXT + "\n%% constraints\n"
                    + BOOK_CONSTRAINTS_TEXT)
    return str(path)


@pytest.fixture
def doc_file(tmp_path):
    path = tmp_path / "book.xml"
    path.write_text(serialize(book_document()))
    return str(path)


@pytest.fixture
def bad_doc_file(tmp_path):
    doc = book_document()
    doc.ext("ref")[0].set_attribute("to", ["nowhere"])
    path = tmp_path / "bad.xml"
    path.write_text(serialize(doc))
    return str(path)


class TestValidate:
    def test_valid_document(self, schema_file, doc_file, capsys):
        assert main(["--root", "book", "validate", doc_file,
                     schema_file]) == 0
        assert "OK" in capsys.readouterr().out

    def test_invalid_document(self, schema_file, bad_doc_file, capsys):
        assert main(["--root", "book", "validate", bad_doc_file,
                     schema_file]) == 1
        assert "violation" in capsys.readouterr().out

    def test_missing_file(self, schema_file):
        assert main(["validate", "/no/such/file.xml", schema_file]) == 2


class TestExpatParity:
    """Two inputs every engine used to decide differently from expat."""

    ENGINES = ("batch", "codegen", "auto")

    def test_duplicate_attribute_exits_2(self, schema_file, tmp_path,
                                         capsys):
        path = tmp_path / "dup.xml"
        path.write_text(serialize(book_document()).replace(
            "<ref to=", '<ref to="nowhere" to='))
        errors = set()
        for engine in self.ENGINES:
            assert main(["--root", "book", "validate", str(path),
                         schema_file, "--engine", engine]) == 2, engine
            errors.add(capsys.readouterr().err.strip())
        assert errors == {"error: duplicate attribute 'to' in start tag "
                          "<ref at line 11"}

    def test_leading_byte_order_mark_is_skipped(self, schema_file,
                                                tmp_path, capsys):
        path = tmp_path / "bom.xml"
        path.write_bytes(b"\xef\xbb\xbf"
                         + serialize(book_document()).encode("utf-8"))
        for engine in self.ENGINES:
            assert main(["--root", "book", "validate", str(path),
                         schema_file, "--engine", engine]) == 0, engine
            assert "OK" in capsys.readouterr().out


class TestDescribe:
    def test_describe(self, schema_file, capsys):
        assert main(["--root", "book", "describe", schema_file]) == 0
        out = capsys.readouterr().out
        assert "P(book)" in out
        assert "entry.isbn -> entry" in out


class TestImply:
    def test_implied(self, schema_file, capsys):
        code = main(["--root", "book", "imply", schema_file,
                     "entry.isbn -> entry"])
        assert code == 0
        assert "implied" in capsys.readouterr().out

    def test_derived(self, schema_file, capsys):
        # SFK-K: the set-valued FK makes isbn derivable even without
        # the stated key; asking for an unstated fact:
        code = main(["--root", "book", "imply", schema_file,
                     "ref.to subS entry.isbn"])
        assert code == 0

    def test_not_implied(self, schema_file, capsys):
        code = main(["--root", "book", "imply", schema_file,
                     "section.sid sub entry.isbn"])
        assert code == 1
        assert "not implied" in capsys.readouterr().out

    def test_finite_flag(self, schema_file):
        assert main(["--root", "book", "imply", "--finite", schema_file,
                     "entry.isbn -> entry"]) == 0

    def test_bad_constraint_syntax(self, schema_file):
        assert main(["--root", "book", "imply", schema_file,
                     "garbage !!"]) == 2


class TestPaths:
    def test_path_type(self, schema_file, capsys):
        assert main(["--root", "book", "path-type", schema_file,
                     "book", "entry.isbn"]) == 0
        assert capsys.readouterr().out.strip() == "S"

    def test_path_imply_functional(self, schema_file, capsys):
        # entry is unique and isbn a key: key path => functional.
        code = main(["--root", "book", "path-imply", schema_file,
                     "book.entry.isbn -> book.author"])
        assert code == 0

    def test_path_imply_inclusion_not(self, schema_file):
        code = main(["--root", "book", "path-imply", schema_file,
                     "book.author sub entry.title"])
        assert code == 1

    def test_path_imply_bad_syntax(self, schema_file):
        assert main(["--root", "book", "path-imply", schema_file,
                     "no separators here"]) == 2


class TestConsistent:
    def test_consistent_schema(self, schema_file, capsys):
        assert main(["--root", "book", "consistent", schema_file]) == 0
        assert "consistent" in capsys.readouterr().out

    def test_inconsistent_schema(self, tmp_path, capsys):
        path = tmp_path / "bad.dtdc"
        path.write_text("""
<!ELEMENT db (a, b*, c*)>
<!ELEMENT a EMPTY>
<!ATTLIST a r IDREF #REQUIRED>
<!ELEMENT b EMPTY>
<!ATTLIST b oid ID #REQUIRED>
<!ELEMENT c EMPTY>
<!ATTLIST c oid ID #REQUIRED>

%% constraints
b.oid ->id b
c.oid ->id c
a.r sub b.id
a.r sub c.id
""")
        assert main(["--root", "db", "consistent", str(path)]) == 1
        assert "INCONSISTENT" in capsys.readouterr().out


class TestImplyLanguageL:
    @pytest.fixture
    def l_schema_file(self, tmp_path):
        path = tmp_path / "pub.dtdc"
        path.write_text("""
<!ELEMENT db (publishers, editors)>
<!ELEMENT publishers (publisher*)>
<!ELEMENT publisher (pname, country, address)>
<!ELEMENT editors (editor*)>
<!ELEMENT editor (name, pname, country)>
<!ELEMENT pname (#PCDATA)> <!ELEMENT country (#PCDATA)>
<!ELEMENT address (#PCDATA)> <!ELEMENT name (#PCDATA)>

%% constraints
publisher[pname, country] -> publisher
editor[name] -> editor
editor[pname, country] sub publisher[pname, country]
""")
        return str(path)

    def test_permuted_fk_implied(self, l_schema_file, capsys):
        code = main(["--root", "db", "imply", l_schema_file,
                     "editor[country, pname] sub "
                     "publisher[country, pname]"])
        assert code == 0
        assert "implied" in capsys.readouterr().out

    def test_misaligned_not_implied(self, l_schema_file):
        assert main(["--root", "db", "imply", l_schema_file,
                     "publisher[pname, country] sub "
                     "publisher[country, pname]"]) == 1

    def test_restriction_violation_is_an_error(self, l_schema_file):
        assert main(["--root", "db", "imply", l_schema_file,
                     "publisher[pname] -> publisher"]) == 2

    def test_validate_l_document(self, l_schema_file, tmp_path, capsys):
        doc = tmp_path / "pubs.xml"
        doc.write_text("""
<db>
  <publishers>
    <publisher><pname>MK</pname><country>US</country>
      <address>CA</address></publisher>
  </publishers>
  <editors>
    <editor><name>Ed</name><pname>MK</pname><country>US</country>
    </editor>
  </editors>
</db>""")
        assert main(["--root", "db", "validate", str(doc),
                     l_schema_file]) == 0
        bad = tmp_path / "bad.xml"
        bad.write_text("""
<db>
  <publishers>
    <publisher><pname>MK</pname><country>US</country>
      <address>CA</address></publisher>
  </publishers>
  <editors>
    <editor><name>Ed</name><pname>MK</pname><country>FR</country>
    </editor>
  </editors>
</db>""")
        assert main(["--root", "db", "validate", str(bad),
                     l_schema_file]) == 1


class TestExitCodeContract:
    """validate follows the same 0/1/2 contract as lint, and --help
    documents it."""

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())  # un-wrap
        assert "exit status" in out
        assert "0 success" in out and "2 usage or input error" in out

    def test_validate_and_lint_agree_on_codes(self, schema_file, doc_file,
                                              bad_doc_file):
        # 0 = clean for both subcommands
        assert main(["--root", "book", "validate", doc_file,
                     schema_file]) == 0
        # 1 = findings for both
        assert main(["--root", "book", "validate", bad_doc_file,
                     schema_file]) == 1
        # 2 = input error for both
        assert main(["--root", "book", "validate", "/no/such.xml",
                     schema_file]) == 2
        assert main(["--root", "book", "lint", "/no/such.dtdc"]) == 2


class TestBenchIncremental:
    def test_smoke(self, capsys):
        assert main(["bench-incremental", "--nodes", "300",
                     "--updates", "4"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "revalidate" in out

    def test_json_output(self, capsys):
        import json

        assert main(["bench-incremental", "--nodes", "300",
                     "--updates", "4", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["updates"] == 4
        assert data["vertices"] > 0 and data["sigma"] > 0
        assert data["incremental_us"] > 0 and data["full_us"] > 0
        assert data["speedup"] == pytest.approx(
            data["full_us"] / data["incremental_us"])


class TestProfile:
    def test_prints_span_tree_and_counters(self, schema_file, doc_file,
                                           capsys):
        assert main(["--root", "book", "profile", "--dtdc", schema_file,
                     "--doc", doc_file]) == 0
        out = capsys.readouterr().out
        assert "== spans ==" in out and "== metrics ==" in out
        # nested spans: validate encloses structure + constraint checks
        assert "validate" in out and "validate.structure" in out
        assert "evaluate" in out and "index.build" in out
        assert "session.build" in out
        # counter table rows
        assert "evaluator_vertices_visited" in out
        assert "xmlio_documents_parsed" in out

    def test_metrics_json_round_trips(self, schema_file, doc_file, capsys):
        import json

        assert main(["--root", "book", "--metrics", "json", "profile",
                     "--dtdc", schema_file, "--doc", doc_file]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"spans", "metrics"}
        assert any(s["name"] == "validate" for s in data["spans"])
        names = {m["name"] for m in data["metrics"]}
        assert "evaluator_vertices_visited" in names

    def test_metrics_prom(self, schema_file, doc_file, capsys):
        assert main(["--root", "book", "--metrics", "prom", "profile",
                     "--dtdc", schema_file, "--doc", doc_file]) == 0
        out = capsys.readouterr().out
        assert "# TYPE evaluator_vertices_visited counter" in out

    def test_invalid_document_exits_one(self, schema_file, bad_doc_file):
        assert main(["--root", "book", "profile", "--dtdc", schema_file,
                     "--doc", bad_doc_file]) == 1

    def test_missing_file_exits_two(self, schema_file):
        assert main(["--root", "book", "profile", "--dtdc", schema_file,
                     "--doc", "/no/such.xml"]) == 2


class TestGlobalObsFlags:
    def test_trace_goes_to_stderr(self, schema_file, doc_file, capsys):
        assert main(["--root", "book", "--trace", "validate", doc_file,
                     schema_file]) == 0
        captured = capsys.readouterr()
        assert "OK" in captured.out            # stdout untouched
        assert "validate.structure" in captured.err

    def test_metrics_json_on_validate(self, schema_file, doc_file, capsys):
        import json

        assert main(["--root", "book", "--metrics", "json", "validate",
                     doc_file, schema_file]) == 0
        captured = capsys.readouterr()
        data = json.loads(captured.err)
        by_name = {m["name"]: m for m in data["metrics"]}
        assert by_name["xmlio_documents_parsed"]["value"] == 1

    def test_metrics_text_on_imply(self, schema_file, capsys):
        assert main(["--root", "book", "--metrics", "text", "imply",
                     schema_file, "entry.isbn -> entry"]) == 0
        captured = capsys.readouterr()
        assert "implication_rule_applications" in captured.err
        assert "implication_rule_applications" not in captured.out


class TestVerbosity:
    def test_verbose_progress_notes(self, schema_file, doc_file, capsys):
        assert main(["--root", "book", "-v", "validate", doc_file,
                     schema_file]) == 0
        err = capsys.readouterr().err
        assert "loaded schema" in err and "parsed" in err

    def test_default_has_no_progress_notes(self, schema_file, doc_file,
                                           capsys):
        assert main(["--root", "book", "validate", doc_file,
                     schema_file]) == 0
        assert capsys.readouterr().err == ""

    def test_quiet_suppresses_describe_diagnostics(self, tmp_path, capsys):
        import pathlib

        fixture = str(pathlib.Path(__file__).parent / "fixtures"
                      / "divergent.dtdc")
        assert main(["--root", "db", "-q", "describe", fixture]) == 0
        captured = capsys.readouterr()
        assert "P(tau)" in captured.out
        assert captured.err == ""

    def test_errors_survive_quiet(self, capsys):
        assert main(["-q", "lint", "/no/such.dtdc"]) == 2
        assert "error:" in capsys.readouterr().err
