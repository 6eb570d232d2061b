import argparse
import hashlib
import json
import time
from functools import partial

import pytest

from stackings import build_ball, cli
from stackings.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNf:
    def test_bs12_example(self, capsys):
        code, out, _ = run(capsys, "nf", "--structure", "bs1p:2", "--word", "t a T")
        assert code == 0
        assert out.splitlines() == ["a a", "steps: 1"]

    def test_empty_word(self, capsys):
        code, out, _ = run(capsys, "nf", "--structure", "bs1p:2", "--word", "")
        assert code == 0
        assert out.splitlines() == ["", "steps: 0"]

    def test_crs_file(self, capsys, z2_rules_file):
        code, out, _ = run(
            capsys, "nf", "--structure", f"crs:{z2_rules_file}", "--word", "b a"
        )
        assert code == 0 and out.splitlines()[0] == "a b"

    def test_budget_counts_the_rewrites_of_the_whole_word(self, capsys, z2_rules_file):
        # b^3 B^3 takes three rewrites, one for each B, and no stacking step
        args = ("nf", "--structure", f"crs:{z2_rules_file}", "--word", "b b b B B B")
        code, out, _ = run(capsys, *args, "--budget", "3")
        assert code == 0 and out.splitlines() == ["", "steps: 0"]
        code, _, err = run(capsys, *args, "--budget", "2")
        assert code == 3 and "budget exceeded" in err

    def test_report(self, capsys, tmp_path):
        report = tmp_path / "r.json"
        code, out, _ = run(
            capsys, "nf", "--structure", "bs1p:2", "--word", "t a T",
            "--report", str(report),
        )
        assert code == 0 and out.splitlines() == ["a a", "steps: 1"]
        assert json.loads(report.read_text()) == {"normal_form": "a a", "steps": 1}


class TestWp:
    def test_trivial(self, capsys):
        code, out, _ = run(capsys, "wp", "--structure", "bs1p:2", "--word", "t a T A A")
        assert code == 0 and out.strip() == "trivial"

    def test_nontrivial(self, capsys):
        code, out, _ = run(capsys, "wp", "--structure", "bs1p:2", "--word", "a")
        assert code == 1 and out.strip() == "nontrivial"

    @pytest.mark.parametrize("word, code, expected", [
        ("t a T A A", 0, {"trivial": True, "normal_form": "", "steps": 1}),
        ("t a T", 1, {"trivial": False, "normal_form": "a a", "steps": 1}),
    ])
    def test_report(self, capsys, tmp_path, word, code, expected):
        report = tmp_path / "r.json"
        got, _, _ = run(
            capsys, "wp", "--structure", "bs1p:2", "--word", word, "--report", str(report)
        )
        assert got == code and json.loads(report.read_text()) == expected

    def test_prefix_normal_form_out_of_budget_reach(self, capsys):
        # the prefix t^40 a T^40 has the normal form a^(2^40): stacking
        # reduction would have to read that many letters
        word = " ".join(["t"] * 40 + ["a"] + ["T"] * 40 + ["t"] * 40 + ["A"] + ["T"] * 40)
        start = time.perf_counter()
        code, out, err = run(capsys, "wp", "--structure", "bs1p:2", "--word", word)
        assert time.perf_counter() - start < 1
        assert code == 3 and "budget exceeded" in err
        assert "Traceback" not in out + err


class TestVkd:
    def test_json_to_stdout(self, capsys):
        code, out, err = run(
            capsys, "vkd", "--structure", "bs1p:2", "--word", "t a T A A"
        )
        assert code == 0
        data = json.loads(out)
        assert len(data["faces"]) == 1
        assert "faces: 1" in err

    def test_out_file_and_svg(self, capsys, tmp_path):
        target = tmp_path / "d.svg"
        code, out, _ = run(
            capsys,
            "vkd", "--structure", "bs1p:2", "--word", "t t a T T A A A A",
            "--format", "svg", "--out", str(target),
        )
        assert code == 0 and out == ""
        assert target.read_bytes().startswith(b"<svg")

    def test_deep_flow_fills(self, capsys, z2_rules_file):
        # the flow from b^400 by a is 400 edges deep
        word = " ".join(["b"] * 400 + ["a"] + ["B"] * 400 + ["A"])
        code, _, err = run(
            capsys, "vkd", "--structure", f"crs:{z2_rules_file}", "--word", word
        )
        assert code == 0 and "faces: 400" in err

    def test_report_on_pass(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "vkd", "--structure", "bs1p:2", "--word", "t a T A A",
            "--report", str(report),
        )
        assert code == 0
        data = json.loads(report.read_text())
        assert data["passed"] is True and data["details"] == []

    def test_report_on_validation_failure(self, capsys, tmp_path, monkeypatch):
        # with no relators, no face label is a relator
        monkeypatch.setattr(cli, "stacking_relation_set", lambda s, edges: set())
        report = tmp_path / "report.json"
        code, _, err = run(
            capsys, "vkd", "--structure", "bs1p:2", "--word", "t a T A A",
            "--report", str(report),
        )
        assert code == 4 and "FAIL" in err
        data = json.loads(report.read_text())
        assert data["passed"] is False
        assert data["checks"]["faces_are_relators"] is False
        assert data["details"] == ["face 1 label T a a t A is not a relator"]

    def test_nontrivial_word_is_precondition_error(self, capsys):
        code, _, err = run(capsys, "vkd", "--structure", "bs1p:2", "--word", "a")
        assert code == 2 and "not trivial" in err


class TestVerify:
    def test_bs12_passes(self, capsys, tmp_path):
        report = tmp_path / "r.json"
        code, out, _ = run(
            capsys, "verify", "--structure", "bs1p:2", "--radius", "3",
            "--report", str(report),
        )
        assert code == 0 and "PASS" in out
        assert json.loads(report.read_text())["passed"] is True

    def test_shortlex_ac_checks_geodesics_too(self, capsys, z2_rules_file):
        code, out, _ = run(
            capsys, "verify",
            "--structure", f"shortlex-ac:{z2_rules_file}:5:2", "--radius", "3",
        )
        assert code == 0
        assert out.count("PASS") == 2

    def test_report_holds_a_failing_geodesic_check(self, capsys, monkeypatch, tmp_path, z2_rules_file):
        geodesic = cli.verify_geodesic_stacking

        def failing(*args):
            geo = geodesic(*args)
            geo.nongeodesic.append("a b")
            return geo

        monkeypatch.setattr(cli, "verify_geodesic_stacking", failing)
        report = tmp_path / "r.json"
        code, out, _ = run(
            capsys, "verify", "--structure", f"shortlex-ac:{z2_rules_file}:4:2",
            "--radius", "2", "--report", str(report),
        )
        assert code == 1 and out.count("PASS") == 1
        data = json.loads(report.read_text())
        assert list(data) == ["passed", "flow", "geodesic"]
        assert data["passed"] is False and data["flow"]["passed"] is True
        assert data["geodesic"]["passed"] is False
        assert data["geodesic"]["nongeodesic_normal_forms"] == ["a b"]


class TestAcCheck:
    def test_z2_passes(self, capsys, z2_rules_file):
        code, out, _ = run(
            capsys, "ac-check", "--structure", f"crs:{z2_rules_file}",
            "--radius", "3", "--k", "2",
        )
        assert code == 0 and "PASS" in out

    def test_z2_fails_with_k1(self, capsys, z2_rules_file):
        code, out, _ = run(
            capsys, "ac-check", "--structure", f"crs:{z2_rules_file}",
            "--radius", "3", "--k", "1",
        )
        assert code == 1 and "FAIL" in out and "witness" in out


class TestBudgetReachesOracle:
    """--budget bounds the rewriting done by every command's oracle."""

    def test_ac_check(self, capsys, z2_rules_file):
        code, _, err = run(
            capsys, "ac-check", "--structure", f"crs:{z2_rules_file}",
            "--radius", "6", "--k", "2", "--budget", "3",
        )
        assert code == 3 and "budget" in err

    def test_export_ball(self, capsys, z2_rules_file):
        code, _, err = run(
            capsys, "export-ball", "--structure", f"crs:{z2_rules_file}",
            "--radius", "6", "--budget", "3",
        )
        assert code == 3 and "budget" in err

    def test_verify(self, capsys, z2_rules_file):
        code, _, _ = run(
            capsys, "verify", "--structure", f"crs:{z2_rules_file}",
            "--radius", "6", "--budget", "3",
        )
        assert code == 3


class TestThompsonNf:
    def test_accept(self, capsys):
        code, out, _ = run(capsys, "thompson-nf", "--word", "X0 x1 x0")
        assert code == 0 and out.strip() == "accepted"

    def test_reject(self, capsys):
        code, out, _ = run(capsys, "thompson-nf", "--word", "x1 x0")
        assert code == 1 and out.strip() == "rejected"

    @pytest.mark.parametrize("word, code", [("X0 x1 x0", 0), ("x1 x0", 1)])
    def test_report(self, capsys, tmp_path, word, code):
        report = tmp_path / "r.json"
        got, _, _ = run(capsys, "thompson-nf", "--word", word, "--report", str(report))
        assert got == code
        assert json.loads(report.read_text()) == {"accepted": code == 0}


class TestExportBall:
    def test_json_shape(self, capsys):
        code, out, _ = run(
            capsys, "export-ball", "--structure", "bs1p:2", "--radius", "2"
        )
        assert code == 0
        data = json.loads(out)
        assert data["radius"] == 2 and len(data["elements"]) > 1

    def test_report_counts_what_is_exported(self, capsys, tmp_path):
        report = tmp_path / "r.json"
        code, out, _ = run(
            capsys, "export-ball", "--structure", "bs1p:2", "--radius", "2",
            "--report", str(report),
        )
        assert code == 0
        data = json.loads(out)
        assert json.loads(report.read_text()) == {
            "radius": 2, "elements": len(data["elements"]), "edges": len(data["edges"])
        }

    def test_element_cap_is_a_budget(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "build_ball", partial(build_ball, max_elements=50))
        code, out, err = run(
            capsys, "export-ball", "--structure", "bs1p:2", "--radius", "5"
        )
        assert code == 3 and out == ""
        assert "budget exceeded: memory cap of 50 elements exceeded" in err


class TestErrors:
    def test_unknown_structure(self, capsys):
        code, _, err = run(capsys, "nf", "--structure", "nope:1", "--word", "a")
        assert code == 2 and "error" in err

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "nf", "--structure", "crs:/no/such/file", "--word", "a")
        assert code == 2

    def test_directory_as_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "nf", "--structure", f"crs:{tmp_path}", "--word", "a")
        assert code == 2 and err.startswith("error: ")

    def test_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "latin1.rs"
        path.write_bytes(b"[generators]\n\xe9 \xc9\n")
        code, _, err = run(capsys, "nf", "--structure", f"crs:{path}", "--word", "a")
        assert code == 2 and err.startswith("error: ") and "UTF-8" in err

    def test_bad_word_token(self, capsys):
        code, _, _ = run(capsys, "nf", "--structure", "bs1p:2", "--word", "q")
        assert code == 2

    def test_nonpositive_budget(self, capsys):
        code, _, err = run(
            capsys, "nf", "--structure", "bs1p:2", "--word", "a", "--budget", "0"
        )
        assert code == 2 and "budget" in err

    def test_out_of_memory_is_a_budget(self, capsys):
        # the phi images of BS(1,p) have p + 2 letters, and the edge from t
        # by a is recursive
        code, out, err = run(
            capsys, "nf", "--structure", "bs1p:99999999999999", "--word", "t a"
        )
        assert code == 3 and out == ""
        assert err == "budget exceeded: out of memory\n"

    def test_no_phi_image_is_built_before_it_is_used(self, capsys):
        # every edge of "a t" is degenerate
        code, out, err = run(
            capsys, "nf", "--structure", "bs1p:99999999999999", "--word", "a t"
        )
        assert (code, out, err) == (0, "a t\nsteps: 0\n", "")

    @pytest.mark.parametrize("command", [
        ("nf", "--word", "a"), ("verify", "--radius", "1"), ("export-ball", "--radius", "2"),
    ], ids=lambda c: c[0])
    def test_negative_shortlex_ac_constant(self, capsys, z2_rules_file, command):
        name, *args = command
        code, out, err = run(
            capsys, name, "--structure", f"shortlex-ac:{z2_rules_file}:3:-1", *args
        )
        assert code == 2 and out == ""
        assert err == "error: shortlex-ac requires k >= 0\n"

    def test_budget_exceeded(self, capsys, z2_rules_file):
        code, _, err = run(
            capsys, "nf", "--structure", f"crs:{z2_rules_file}",
            "--word", "b a b a b a b a", "--budget", "2",
        )
        assert code == 3 and "budget" in err

    def test_non_minimal_crs_is_validation_error(self, capsys, z2_rules_file):
        z2_rules_file.write_text(z2_rules_file.read_text() + "b b a -> a b b\n")
        code, _, err = run(
            capsys, "nf", "--structure", f"crs:{z2_rules_file}", "--word", "b b a"
        )
        assert code == 4 and "not minimal" in err

    def test_bs1p_bad_p(self, capsys):
        code, _, _ = run(capsys, "nf", "--structure", "bs1p:x", "--word", "a")
        assert code == 2

    def test_ac_refuted_during_phi_is_validation_error(self, capsys, tmp_path):
        rules = tmp_path / "c5.rs"
        rules.write_text(
            "[generators]\na A\n[inverses]\na A\n[rules]\n"
            "a a a -> A A\nA A A -> a a\na A ->\nA a ->\n"
        )
        code, _, err = run(
            capsys, "verify", "--structure", f"shortlex-ac:{rules}:3:2",
            "--radius", "2",
        )
        assert code == 4 and "almost convexity refuted" in err


# Fixed calls covering every subcommand and structure kind, with the files
# each one writes.  ``{tmp}`` stands for the test's temporary directory and
# ``{z2}`` for a file holding the Z^2 system.  The svg export is pinned
# apart, by ``SVG_SHA256`` in test_vankampen and a CLI call in test_exports.
PINNED_CALLS = [
    ("nf", "--structure", "bs1p:2", "--word", "t a T t A t"),
    ("nf", "--structure", "crs:{z2}", "--word", "b a B a b"),
    ("nf", "--structure", "shortlex-ac:{z2}:4:2", "--word", "b a B A b"),
    ("wp", "--structure", "bs1p:2", "--word", "t a T A A"),
    ("wp", "--structure", "bs1p:3", "--word", "t a T A"),
    ("wp", "--structure", "crs:{z2}", "--word", "a b A B"),
    ("vkd", "--structure", "bs1p:2", "--word", "t a T A A"),
    ("vkd", "--structure", "bs1p:2", "--word", "t t a T T A A A A",
     "--format", "dot", "--out", "{tmp}/d.dot", "--report", "{tmp}/r.json"),
    ("vkd", "--structure", "crs:{z2}", "--word", "a b A B",
     "--out", "{tmp}/d.json", "--report", "{tmp}/r.json"),
    ("vkd", "--structure", "shortlex-ac:{z2}:4:2", "--word", "a b b A B B"),
    ("vkd", "--structure", "bs1p:2", "--word", "t a"),
    ("verify", "--structure", "bs1p:2", "--radius", "3", "--report", "{tmp}/r.json"),
    ("verify", "--structure", "crs:{z2}", "--radius", "3"),
    ("verify", "--structure", "shortlex-ac:{z2}:4:2", "--radius", "2",
     "--report", "{tmp}/r.json"),
    ("ac-check", "--structure", "crs:{z2}", "--radius", "4", "--k", "2",
     "--report", "{tmp}/r.json"),
    ("ac-check", "--structure", "crs:{z2}", "--radius", "4", "--k", "1",
     "--report", "{tmp}/r.json"),
    ("ac-check", "--structure", "bs1p:2", "--radius", "2", "--k", "3"),
    ("thompson-nf", "--word", "X0 x1 x0"),
    ("thompson-nf", "--word", "x1 x0"),
    ("export-ball", "--structure", "bs1p:2", "--radius", "2", "--out", "{tmp}/b.json"),
    ("export-ball", "--structure", "crs:{z2}", "--radius", "2"),
    ("nf", "--structure", "crs:{z2}", "--word", "b a b a b a b a", "--budget", "2"),
    ("nf", "--structure", "crs:{tmp}/missing.rs", "--word", "a"),
]
PINNED_SHA256 = "eb20b19dfa4211220b4674accdbcbd4adb65d9e7871c7b3c114df7e3d8ff3cc5"


def test_pinned_outputs(capsys, tmp_path, z2_rules_file):
    """Exit code, stdout, stderr and written files of the pinned calls hash
    to a fixed digest, so a change to any output of the CLI fails here."""
    tmp = str(tmp_path)
    digest = hashlib.sha256()
    for call in PINNED_CALLS:
        argv = [a.format(tmp=tmp, z2=z2_rules_file) for a in call]
        code, out, err = run(capsys, *argv)
        files = {}
        for path in sorted(tmp_path.iterdir()):
            if path.is_file() and path != z2_rules_file:
                files[path.name] = path.read_text()
                path.unlink()
        record = [list(call), code, out.replace(tmp, "{tmp}"), err.replace(tmp, "{tmp}"), files]
        digest.update(json.dumps(record).encode())
    assert digest.hexdigest() == PINNED_SHA256


COMMANDS = ["nf", "wp", "vkd", "verify", "ac-check", "thompson-nf", "export-ball"]

# Calls that the parser answers (help and usage errors), with one call that
# runs a command between the errors.
PARSER_CALLS = [
    (),
    ("nope",),
    ("nf", "--structure", "bs1p:2"),
    ("nf", "--structure", "bs1p:2", "--word", "t a T"),
    ("vkd", "--structure", "bs1p:2", "--word", "t a T A A", "--format", "png"),
    ("verify", "--structure", "bs1p:2", "--radius", "x"),
    ("--help",),
    *[(command, "--help") for command in COMMANDS],
]
PARSER_SHA256 = "4c6119d00994ce25eb493e36aaf272cfe77a47d775db1202c8892d063d39f582"


def run_parser_call(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_outputs_pinned_and_repeatable(capsys, monkeypatch):
    """Exit code, stdout and stderr of the parser-level calls hash to a fixed
    digest, and a second pass in the same process gives the same one, so the
    one parser of all ``main`` calls keeps nothing from an earlier call."""
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at this width
    digests = []
    for _ in range(2):
        digest = hashlib.sha256()
        for call in PARSER_CALLS:
            record = [list(call), *run_parser_call(capsys, list(call))]
            digest.update(json.dumps(record).encode())
        digests.append(digest.hexdigest())
    assert digests == [PARSER_SHA256, PARSER_SHA256]


def test_parser_is_built_once(capsys, monkeypatch):
    run(capsys, "thompson-nf", "--word", "x0")
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for call in PARSER_CALLS:
        run_parser_call(capsys, list(call))
    assert built == []
