import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from detsing import ParseError
from detsing.cli import main
from detsing.modelfile import build_model, format_model, parse_model_file
from detsing.report import validate_report
from helpers import random_matrix_model

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"

OMEGA2 = """
[variables]
x1 x2 x3 x4 x5 y

[type]
rows = 2
cols = 3
t = 2

[matrix]
x1, x2, x3
x4, x5, x1 + y^3

[euler]
reduced = false
stratum 2: chi_stab = -1, chi_section = 2
"""
LAST_LINE = "stratum 2: chi_stab = -1, chi_section = 2\n"


class TestModelFile:
    def test_parse_round_trip(self):
        mf = parse_model_file(OMEGA2)
        model = build_model(mf)
        text = format_model(model)
        again = build_model(parse_model_file(text))
        assert again.entries == model.entries
        assert again.vars == model.vars

    def test_euler_section(self):
        mf = parse_model_file(OMEGA2)
        assert mf.euler == {2: (-1, 2)}
        assert mf.euler_reduced is False

    def test_reduced_flag(self):
        text = OMEGA2.replace("reduced = false", "reduced = true")
        mf = parse_model_file(text)
        chi = mf.chi_data()
        assert chi[2].chi_stab == 0 and chi[2].chi_section == 3

    def test_missing_section(self):
        with pytest.raises(ParseError, match=r"\[matrix\]"):
            parse_model_file("[variables]\nx y\n\n[type]\nrows=1, cols=1, t=1\n")

    def test_bad_row_width_reports_line(self):
        bad = OMEGA2.replace("x4, x5, x1 + y^3", "x4, x5")
        with pytest.raises(ParseError) as err:
            parse_model_file(bad)
        assert err.value.line is not None

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("x1 x2 x3 x4 x5 y", "x1 x2 x3\nx4 x5\ny\n1z", "bad variable name '1z' (line 6)"),
            ("t = 2\n", "", "[type] is missing 't' (line 5)"),
            ("x4, x5, x1 + y^3\n", "", "matrix has 1 rows, expected 2 (line 10)"),
            ("[type]", "[parameters]\nu\nx2\n\n[type]", "variable name 'x2' repeats (line 7)"),
            ("t = 2\n", "t = 2\nrows = 5\n", "key 'rows' repeats (line 9)"),
            ("rows = 2\n", "rows = 2\nrowz = 4\n", "unknown [type] field 'rowz' (line 7)"),
            ("chi_section = 2", "chi_sectoin = 5", "unknown euler field 'chi_sectoin' (line 16)"),
            ("= false\n", "= false\nreduced = true\n", "key 'reduced' repeats (line 16)"),
            (
                LAST_LINE,
                LAST_LINE + "stratum 2: chi_stab = 0, chi_section = 1\n",
                "euler stratum 2 repeats (line 17)",
            ),
            (LAST_LINE, LAST_LINE + "[samples]\nu = 1, u = 2\n", "key 'u' repeats (line 18)"),
            (
                LAST_LINE,
                LAST_LINE + "[supplied]\nstratum 1: e_pair = 1\nstratum 1: polar = 2\n",
                "supplied stratum 1 repeats (line 19)",
            ),
            (
                LAST_LINE,
                LAST_LINE + "[supplied]\nstratum 1: e_pair = 1, bogus = 2\n",
                "unknown supplied field 'bogus' (line 18)",
            ),
        ],
    )
    def test_errors_name_the_line_at_fault(self, old, new, message):
        # The line of the offending name, of the [type] header, of the
        # [matrix] header, of the name where it repeats, of the key or
        # stratum where it repeats, and of a key its section does not take.
        bad = OMEGA2.replace(old, new)
        with pytest.raises(ParseError) as err:
            parse_model_file(bad)
        assert str(err.value) == message

    def test_unknown_section(self):
        with pytest.raises(ParseError, match="unknown section"):
            parse_model_file("[nope]\n")

    def test_bad_entry_reports_model_line(self):
        bad = OMEGA2.replace("x4, x5, x1 + y^3", "x4, x5, x1 + w^3")
        with pytest.raises(ParseError) as err:
            build_model(parse_model_file(bad))
        assert err.value.line is not None
        assert "unknown variable" in str(err.value)

    def test_samples_parse_fractions(self):
        text = OMEGA2 + "\n[parameters]\nu\n\n[samples]\nu = -1/2\n"
        mf = parse_model_file(text)
        assert mf.samples == ((("u", Fraction(-1, 2)),),)


class TestCli:
    def run(self, capsys, *argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out

    def structured(self, capsys, *argv):
        code, out = self.run(capsys, *argv, "--format", "structured")
        report = json.loads(out)
        validate_report(report)
        return code, report

    def test_colength_command(self, capsys):
        code, report = self.structured(
            capsys, "colength", str(MODELS / "omega3.model"), "--stratum", "1"
        )
        assert code == 0
        assert report["colength"] == {"value": 4, "provenance": "computed"}

    def test_dim_command(self, capsys):
        code, report = self.structured(
            capsys, "dim", str(MODELS / "omega1.model"), "--stratum", "2"
        )
        assert code == 0
        assert report["dimension"]["value"] == 4

    def test_minors_command(self, capsys):
        code, report = self.structured(
            capsys, "minors", str(MODELS / "omega1.model"), "--size", "2"
        )
        assert code == 0
        assert len(report["minors"]) == 3

    def test_euler_solve(self, capsys):
        code, report = self.structured(
            capsys, "euler-solve", str(MODELS / "omega3.model")
        )
        assert code == 0
        assert report["mvector"]["2"]["value"] == 0
        assert report["mvector"]["1"]["value"] == 4
        assert report["warnings"] == [
            "multiplicity vector uses user-supplied Euler characteristics"
        ]

    def test_euler_solve_without_chi_claims_none(self, capsys, tmp_path):
        # q = 2: the only present stratum of [[x, y, 0], [0, x, y]] is the
        # zero-dimensional stratum 2, whose colength 3 is m[2].  The file
        # has no [euler] section, so no user-supplied chi is used or named.
        path = tmp_path / "stably_isolated.model"
        path.write_text(
            "[variables]\nx y\n\n[type]\nrows = 2\ncols = 3\nt = 2\n\n"
            "[matrix]\nx, y, 0\n0, x, y\n"
        )
        code, report = self.structured(capsys, "euler-solve", str(path))
        assert code == 0
        assert report["mvector"] == {"2": {"value": 3, "provenance": "computed"}}
        assert report["warnings"] == []

    def test_eids_check(self, capsys):
        code, report = self.structured(
            capsys, "eids-check", str(MODELS / "omega1.model")
        )
        assert code == 0
        assert report["eids"]["overall"] is True

    def test_eids_check_failing_witness(self, capsys, tmp_path):
        # An A1 germ at the origin with a second A1 at (0, 0, 1): the
        # global check fails off the origin, and the witness is the
        # singular locus, the two points, by its reduced basis.
        path = tmp_path / "two_nodes.model"
        path.write_text(
            "[variables]\nx y z\n\n[type]\nrows = 1\ncols = 1\nt = 1\n\n"
            "[matrix]\nx^2 + y^2 + z^2*(z - 1)^2\n"
        )
        code, report = self.structured(capsys, "eids-check", str(path))
        assert code == 0
        assert report["eids"]["overall"] is False
        [row] = report["eids"]["strata"]
        assert row["transversal_off_origin"] is False
        assert row["witness_generators"] == ["y", "x", "z^2 - z"]
        code, out = self.run(capsys, "eids-check", str(path))
        assert code == 0
        assert "FAILS" in out

    def test_analyze_validates_and_is_deterministic(self, capsys):
        code1, out1 = self.run(
            capsys, "analyze", str(MODELS / "omega1.model"), "--format", "structured"
        )
        code2, out2 = self.run(
            capsys, "analyze", str(MODELS / "omega1.model"), "--format", "structured"
        )
        assert code1 == code2 == 0
        assert out1 == out2  # byte-identical structured reports
        validate_report(json.loads(out1))

    def test_analyze_reports_colength_and_mvector(self, capsys):
        code, report = self.structured(
            capsys, "analyze", str(MODELS / "omega3.model")
        )
        assert code == 0
        inv = report["invariants"]
        assert inv["colengths"]["1"]["value"] == 4
        assert inv["mvector"]["2"]["value"] == 0

    def test_analyze_warnings_cover_noncomputables(self, capsys):
        code, report = self.structured(
            capsys, "analyze", str(MODELS / "omega1.model")
        )
        assert code == 0
        assert any("user-supplied" in w for w in report["warnings"])
        assert any("necessary condition" in w for w in report["warnings"])

    def test_dim_with_exponent_beyond_32_bits(self, capsys, tmp_path):
        # y^5000000000 needs 33-bit exponent fields; products of it need
        # more, which the engine must widen to rather than fail.
        text = (MODELS / "omega1.model").read_text()
        assert "x1 + y^2" in text
        path = tmp_path / "omega1_big.model"
        path.write_text(text.replace("x1 + y^2", "x1 + y^5000000000"))
        code, report = self.structured(capsys, "dim", str(path), "--stratum", "2")
        assert code == 0
        assert report["dimension"]["value"] == 4

    def test_analyze_matches_reference_digests(self, capsys):
        # The structured analyze output of every bundled model is pinned
        # byte for byte by the benchmark's reference digests.
        reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
        digests = reference["models-analyze"]
        assert sorted(digests) == sorted(p.stem for p in MODELS.glob("*.model"))
        for name, digest in sorted(digests.items()):
            code, out = self.run(
                capsys, "analyze", str(MODELS / f"{name}.model"), "--format", "structured"
            )
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, name

    def test_slice_output_reparses(self, capsys, tmp_path):
        code, out = self.run(
            capsys, "slice", str(MODELS / "omega1.model"), "--hyperplane", "x3"
        )
        assert code == 0
        sliced = build_model(parse_model_file(out))
        assert sliced.q == 5
        path = tmp_path / "sliced.model"
        path.write_text(out)
        code2, report = self.structured(capsys, "dim", str(path), "--stratum", "2")
        assert code2 == 0
        assert report["dimension"]["value"] == 3

    def test_family_scan(self, capsys):
        code, report = self.structured(
            capsys, "family-scan", str(MODELS / "omega1_family.model")
        )
        assert code == 0
        fam = report["family_scan"]
        assert fam["reliable"] is True
        assert fam["constant"] is False
        assert fam["samples"][0]["colengths"] == {"1": 2}
        assert fam["samples"][1]["colengths"] == {"1": 1}

    def test_family_scan_with_chi_solves_mvector(self, capsys):
        code, report = self.structured(
            capsys, "family-scan", str(MODELS / "omega2_family.model")
        )
        assert code == 0
        fam = report["family_scan"]
        assert fam["constant"] is True
        assert "necessary conditions" in fam["verdict"]
        for row in fam["samples"]:
            assert row["colengths"] == {"1": 3}
            assert row["mvector"] == {"1": 3, "2": 0}

    def test_screen_hyperplanes(self, capsys):
        code, report = self.structured(
            capsys, "screen-hyperplanes", str(MODELS / "omega1.model")
        )
        assert code == 0
        by_form = {row["form"]: row for row in report["genericity"]}
        assert not by_form["y"]["screen_passed"]
        assert not by_form["x3"]["screen_passed"]
        assert by_form["x1 - 2*x2 + x5"]["screen_passed"]

    def test_consistency(self, capsys):
        code, report = self.structured(
            capsys, "consistency", str(MODELS / "omega1.model")
        )
        assert code == 0
        row = report["consistency"][0]
        assert row["stratum"] == 2
        assert row["holds"] is True
        assert row["polar"] == {"value": 0, "provenance": "computed"}
        assert row["e_pair"]["provenance"] == "user-supplied"

    def test_exit_code_validation_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.model"
        bad.write_text("[variables]\nx\n")
        assert main(["analyze", str(bad)]) == 1
        assert main(["analyze", str(tmp_path / "missing.model")]) == 1

    @pytest.mark.parametrize("command", ["analyze", "family-scan"])
    @pytest.mark.parametrize(
        "sample, code, message",
        [
            ("u = 0, w = 1", 1, "unknown parameters ['w'] in sample (line 21)"),
            ("x1 = 0", 2, "sample leaves parameters ['u'] unspecialized (line 21)"),
        ],
    )
    def test_sample_errors_name_the_line(self, capsys, tmp_path, command, sample, code, message):
        # A bad [samples] line is rejected when the model is built, with
        # its line, by a command that reads samples and by one that does
        # not; the exit code stays that of the error's class.
        text = (MODELS / "omega1_family.model").read_text()
        path = tmp_path / "bad_sample.model"
        path.write_text(text.replace("u = 1\n", sample + "\n"))
        assert main([command, str(path)]) == code
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "form, message",
        [
            ("x1^2", "hyperplane form must be homogeneous linear"),
            ("x3 +", "unexpected end of expression (at position 4)"),
        ],
    )
    def test_hyperplane_errors_name_the_line(self, capsys, tmp_path, form, message):
        # A bad [hyperplanes] form names its line, in each command that
        # reads the section; the same form given by --hyperplane has no
        # line to name.
        text = (MODELS / "omega1.model").read_text()
        path = tmp_path / "bad_hyperplane.model"
        path.write_text(text.replace("\ny\n", f"\n{form}\n"))
        for command in ("analyze", "screen-hyperplanes"):
            assert main([command, str(path)]) == 1
            assert capsys.readouterr().err == f"error: {message} (line 21)\n"
        flag = ["screen-hyperplanes", str(MODELS / "omega1.model"), "--hyperplane", form]
        assert main(flag) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_exit_code_non_utf8_model(self, capsys, tmp_path):
        bad = tmp_path / "binary.model"
        bad.write_bytes(b"\xff\xfe\x00bad")
        assert main(["analyze", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "binary.model" in err and "not valid UTF-8" in err

    def test_deep_nesting_exits_one_with_line(self, capsys, tmp_path):
        entry = "(" * 300 + "x3" + ")" * 300
        path = tmp_path / "deep.model"
        path.write_text(OMEGA2.replace("x1, x2, x3", f"x1, x2, {entry}"))
        for argv in (["analyze", str(path)], ["minors", str(path), "--size", "2"]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: bad matrix entry")
            assert "nested deeper than 200 levels" in err
            assert err.rstrip().endswith("(line 11)")
        assert main(
            ["slice", str(MODELS / "omega1.model"), "--hyperplane", entry]
        ) == 1
        assert "nested deeper than 200 levels" in capsys.readouterr().err

    def test_deep_nesting_within_bound_runs(self, capsys, tmp_path):
        entry = "(" * 200 + "x3" + ")" * 200
        path = tmp_path / "deep.model"
        path.write_text(OMEGA2.replace("x1, x2, x3", f"x1, x2, {entry}"))
        plain = tmp_path / "plain.model"
        plain.write_text(OMEGA2)
        code, report = self.structured(capsys, "minors", str(path), "--size", "2")
        assert code == 0
        assert report == self.structured(capsys, "minors", str(plain), "--size", "2")[1]

    def test_python_dash_m_matches_main(self, capsys):
        argv = ["minors", str(MODELS / "omega1.model"), "--size", "2", "--format", "structured"]
        code, out = self.run(capsys, *argv)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        done = subprocess.run(
            [sys.executable, "-m", "detsing", *argv],
            capture_output=True,
            cwd=ROOT,
            env=env,
            timeout=60,
        )
        assert (done.returncode, code) == (0, 0)
        assert done.stdout == out.encode()

    def test_structured_output_ignores_the_hash_seed(self, tmp_path):
        # Six derandomized random models, written as model files, each
        # analyzed in a fresh interpreter under two hash seeds: set and
        # dict iteration orders of strings differ between the two, and
        # the output must not.
        rng = random.Random(9)
        shapes = [(2, 2, 3, 2), (2, 3, 4, 1), (2, 3, 3, 2), (1, 2, 2, 2), (2, 2, 4, 2), (3, 3, 4, 1)]
        paths = []
        for i, (rows, cols, nvars, degree) in enumerate(shapes):
            path = tmp_path / f"random{i}.model"
            path.write_text(format_model(random_matrix_model(rng, rows, cols, nvars, degree)))
            paths.append(str(path))
        script = (
            "import sys\n"
            "from detsing.cli import main\n"
            "for path in sys.argv[1:]:\n"
            "    print(main(['analyze', path, '--format', 'structured']))\n"
        )
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
            )
            done = subprocess.run(
                [sys.executable, "-c", script, *paths],
                capture_output=True,
                cwd=ROOT,
                env=env,
                timeout=120,
            )
            assert done.returncode == 0 and done.stderr == b""
            outputs.append(done.stdout)
        assert outputs[0].count(b'"command": "analyze"') == len(shapes)
        assert outputs[0] == outputs[1]

    def test_exit_code_precondition(self, capsys):
        # colength of the positive-dimensional top stratum.
        assert (
            main(
                ["colength", str(MODELS / "omega1.model"), "--stratum", "2"]
            )
            == 2
        )

    def test_exit_code_limit(self, capsys):
        assert (
            main(
                [
                    "dim",
                    str(MODELS / "omega1.model"),
                    "--stratum",
                    "2",
                    "--max-degree",
                    "1",
                ]
            )
            == 3
        )

    def test_exit_code_minor_count_cap(self, capsys, tmp_path):
        # The generic 5x4 matrix: stratum 2's locus has too many minors.
        names = [f"z{i}" for i in range(1, 21)]
        rows = [", ".join(names[4 * r : 4 * r + 4]) for r in range(5)]
        model = tmp_path / "generic54.model"
        model.write_text(
            "[variables]\n" + " ".join(names) + "\n\n[type]\nrows = 5\ncols = 4\nt = 2\n\n"
            "[matrix]\n" + "\n".join(rows) + "\n"
        )
        assert main(["eids-check", str(model)]) == 3
        assert "error: stratum 2: minors exceeded the cap" in capsys.readouterr().err

    def test_negative_max_degree_rejected(self, capsys):
        code = main(
            ["dim", str(MODELS / "omega1.model"), "--stratum", "2", "--max-degree", "-1"]
        )
        assert code == 1
        assert "--max-degree" in capsys.readouterr().err

    def test_parametric_model_needs_samples(self, capsys):
        assert (
            main(["colength", str(MODELS / "omega1_family.model"), "--stratum", "1"])
            == 2
        )

    def test_text_format_runs(self, capsys):
        code, out = self.run(capsys, "analyze", str(MODELS / "omega1.model"))
        assert code == 0
        assert "transversality off origin: pass" in out

    def test_bad_arguments_exit_one(self, capsys):
        assert main(["analyze"]) == 1
        assert main(["minors", str(MODELS / "omega1.model")]) == 1
        assert main(["no-such-command", "x"]) == 1

    def test_screen_hyperplane_flag(self, capsys):
        code, report = self.structured(
            capsys,
            "screen-hyperplanes",
            str(MODELS / "omega1.model"),
            "--hyperplane",
            "x1 - 2*x2 + x5",
            "--hyperplane",
            "y",
        )
        assert code == 0
        forms = [row["form"] for row in report["genericity"]]
        assert forms == ["x1 - 2*x2 + x5", "y"]
        assert report["genericity"][0]["screen_passed"]
        assert not report["genericity"][1]["screen_passed"]


# Pieces a fuzzed model file or argument list is made of: section
# headers, keys, operators, numbers, names and bytes that are not UTF-8.
FUZZ_PIECES = [
    "[", "]", "=", ",", ":", "\n", " ", "#", "(", ")", "^", "*", "/", "-", "+",
    "0", "1", "2", "9", "1/0", "-1", "x1", "x5", "y", "u", "z",
    "[variables]", "[parameters]", "[type]", "[matrix]", "[euler]",
    "[samples]", "[hyperplanes]", "[supplied]", "rows = ", "cols = ", "t = ",
    "reduced = ", "stratum 2: chi_stab = ", ", chi_section = ", "u = ",
    "\xff", "\x00",
]
FUZZ_FLAGS = [
    "--format", "structured", "text", "--ordering", "lex", "--max-degree",
    "--size", "--stratum", "--hyperplane", "x1 - 2*y", "y^2", "-1", "0", "2",
    "7", "x", "--bogus", "-h",
]


def test_cli_fuzz_never_raises(tmp_path, capsys):
    """Malformed model files and argument lists through ``main``: every
    run ends in an exit code 0-3, never an exception.  A model file is a
    bundled one with a few pieces deleted, inserted or swapped in; each
    run ends with a small ``--max-degree`` so that every basis is
    bounded."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from detsing.cli import VIEWS

    texts = [p.read_text(encoding="utf-8") for p in sorted(MODELS.glob("*.model"))]
    path = tmp_path / "fuzz.model"
    edit = st.tuples(
        st.sampled_from(["delete", "insert", "replace"]),
        st.floats(0, 1),
        st.integers(1, 12),
        st.sampled_from(FUZZ_PIECES),
    )

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(
        st.integers(0, len(texts) - 1),
        st.lists(edit, max_size=4),
        st.sampled_from(sorted(VIEWS)),
        st.lists(st.sampled_from(FUZZ_FLAGS), max_size=4),
        st.sampled_from([str(path), str(tmp_path), str(tmp_path / "missing.model")]),
        st.integers(0, 6),
    )
    def run(which, edits, command, flags, model, cap):
        text = texts[which]
        for kind, where, span, piece in edits:
            at = int(where * len(text))
            end = at if kind == "insert" else at + span
            text = text[:at] + ("" if kind == "delete" else piece) + text[end:]
        path.write_bytes(text.encode().replace("\xff".encode(), b"\xff"))
        code = main([command, model, *flags, "--max-degree", str(cap)])
        capsys.readouterr()
        assert code in (0, 1, 2, 3)

    run()
