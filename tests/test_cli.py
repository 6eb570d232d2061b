import json

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


class TestWp:
    def test_trivial(self, capsys):
        code, out, _ = run(capsys, "wp", "--structure", "bs1p:2", "--word", "t a T A A")
        assert code == 0 and out.strip() == "trivial"

    def test_nontrivial(self, capsys):
        code, out, _ = run(capsys, "wp", "--structure", "bs1p:2", "--word", "a")
        assert code == 1 and out.strip() == "nontrivial"


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


class TestExportBall:
    def test_json_shape(self, capsys):
        code, out, _ = run(
            capsys, "export-ball", "--structure", "bs1p:2", "--radius", "2"
        )
        assert code == 0
        data = json.loads(out)
        assert data["radius"] == 2 and len(data["elements"]) > 1


class TestErrors:
    def test_unknown_structure(self, capsys):
        code, _, err = run(capsys, "nf", "--structure", "nope:1", "--word", "a")
        assert code == 2 and "error" in err

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "nf", "--structure", "crs:/no/such/file", "--word", "a")
        assert code == 2

    def test_bad_word_token(self, capsys):
        code, _, _ = run(capsys, "nf", "--structure", "bs1p:2", "--word", "q")
        assert code == 2

    def test_nonpositive_budget(self, capsys):
        code, _, err = run(
            capsys, "nf", "--structure", "bs1p:2", "--word", "a", "--budget", "0"
        )
        assert code == 2 and "budget" in err

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
