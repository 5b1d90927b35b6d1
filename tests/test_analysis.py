"""One analysis per command: each stratum, section and family member is
built once per call, and no cache outlives the call."""

import ast
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from detsing import colength, colength_at_origin, eids_check, good_family_scan, groebner
from detsing.cli import main
from detsing.modelfile import build_model, load_model_file
from helpers import XY, P, generic_entry_model, omega_vars
from test_cli_reference import run_captured, write_models

MODELS = Path(__file__).resolve().parent.parent / "models"
SRC = Path(__file__).resolve().parent.parent / "src" / "detsing"


def count_calls(monkeypatch, *functions):
    """Count calls of the given (module, name) functions through every
    detsing module that binds them."""
    counts = {name: 0 for _, name in functions}
    loaded = [m for n, m in sys.modules.items() if n == "detsing" or n.startswith("detsing.")]
    for module, name in functions:
        original = getattr(module, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for mod in loaded:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, wrapper)
    return counts


# (detmodel.stratum, genericity.slice_model, strata._eids_verdict) calls in
# one analyze: the model's strata, one slice per hyperplane and one verdict
# per distinct member or section.  _eids_verdict is eids_check's body, run
# once per analysis; later eids_check calls read the kept verdict.  omega2_family's three samples specialize to
# one matrix, so they share one member.
ANALYZE_WORK = {
    "omega1": (8, 3, 4),
    "omega1_family": (6, 0, 2),
    "omega2_family": (4, 0, 1),
    "omega3": (2, 0, 1),
}


@pytest.mark.parametrize("name", sorted(ANALYZE_WORK))
def test_analyze_builds_each_stratum_slice_and_member_once(name, monkeypatch, capsys):
    from detsing import detmodel, genericity, strata

    counts = count_calls(
        monkeypatch, (detmodel, "stratum"), (genericity, "slice_model"), (strata, "_eids_verdict")
    )
    assert main(["analyze", str(MODELS / f"{name}.model"), "--format", "structured"]) == 0
    capsys.readouterr()
    got = (counts["stratum"], counts["slice_model"], counts["_eids_verdict"])
    assert got == ANALYZE_WORK[name]


def test_analyze_specializes_each_sample_once(monkeypatch, capsys):
    # omega2_family's three samples are specialized once each, though the
    # family scan and the Whitney report both ask for every member.
    from detsing.detmodel import PresentationMatrix

    calls = []
    original = PresentationMatrix.specialize

    def wrapper(self, assignment):
        calls.append(dict(assignment))
        return original(self, assignment)

    monkeypatch.setattr(PresentationMatrix, "specialize", wrapper)
    path = str(MODELS / "omega2_family.model")
    assert main(["analyze", path, "--format", "structured"]) == 0
    capsys.readouterr()
    assert len(calls) == 3
    assert {frozenset(c.items()) for c in calls} == {
        frozenset({("u", Fraction(v))}) for v in (0, 1, Fraction(-3, 2))
    }


def test_bare_model_calls_share_nothing(monkeypatch):
    # A bare matrix gets a fresh analysis per call: the second verdict
    # recomputes every basis the first one did.
    model = build_model(load_model_file(MODELS / "omega1.model"))
    counts = count_calls(monkeypatch, (groebner, "buchberger"))
    first = eids_check(model)
    once = counts["buchberger"]
    second = eids_check(model)
    assert once > 0
    assert counts["buchberger"] == 2 * once
    assert first == second


def test_members_are_keyed_on_specialized_entries():
    from detsing.analysis import Analysis

    family = Analysis(build_model(load_model_file(MODELS / "omega2_family.model")))
    member = family.member({"u": 0})
    assert family.member({"u": 1}) is member
    assert member.stratum(1) is member.stratum(1)
    split = Analysis(build_model(load_model_file(MODELS / "omega1_family.model")))
    assert split.member({"u": 0}) is not split.member({"u": 1})
    assert Analysis.of(member) is member
    assert Analysis.of(member.model) is not member


def record_bases(monkeypatch):
    """Wrap groebner.buchberger, which every basis cache calls, and return
    the list of (ideal, ordering) it is called with."""
    calls = []
    original = groebner.buchberger

    def wrapper(ideal, ordering=groebner.GREVLEX):
        calls.append((ideal, ordering))
        return original(ideal, ordering)

    monkeypatch.setattr(groebner, "buchberger", wrapper)
    return calls


def analyze(name, capsys, *extra):
    assert main(["analyze", str(MODELS / f"{name}.model"), "--format", "structured", *extra]) == 0
    return capsys.readouterr().out


# Upper bounds on Buchberger calls in one analyze.  Saturation results and
# re-wrapped bases carry their reduced basis, so no input is reduced twice,
# and a non-smooth locus that its generators or input rows certify at the
# origin has no basis built.
ANALYZE_BASES = {"omega1": 11, "omega1_family": 8, "omega2_family": 2, "omega3": 2}


@pytest.mark.parametrize("name", sorted(ANALYZE_BASES))
def test_analyze_computes_each_basis_once(name, monkeypatch, capsys):
    calls = record_bases(monkeypatch)
    analyze(name, capsys)
    inputs = {
        (ordering, ideal.vars, frozenset(tuple(sorted(g.terms.items())) for g in ideal.generators))
        for ideal, ordering in calls
    }
    assert len(calls) == len(inputs) <= ANALYZE_BASES[name]


# Upper bounds on groebner.dimension calls in one analyze.  Each stratum's
# dimension is read once, through Analysis.dimension, by the strata
# section, the eids check and the family rows alike; the rest come from
# inside support_is_origin_only and colength_at_origin.
ANALYZE_DIMENSIONS = {"omega1": 6, "omega1_family": 6, "omega2_family": 3, "omega3": 2}


@pytest.mark.parametrize("name", sorted(ANALYZE_DIMENSIONS))
def test_analyze_reads_each_stratum_dimension_once(name, monkeypatch, capsys):
    counts = count_calls(monkeypatch, (groebner, "dimension"))
    analyze(name, capsys)
    assert 0 < counts["dimension"] <= ANALYZE_DIMENSIONS[name]


@pytest.mark.parametrize("name", sorted(ANALYZE_BASES))
def test_degree_cap_reaches_every_basis(name, monkeypatch, capsys):
    uncapped = analyze(name, capsys)
    calls = record_bases(monkeypatch)
    assert analyze(name, capsys, "--max-degree", "40") == uncapped
    assert calls and all(ideal.max_degree == 40 for ideal, _ in calls)


# Capped runs whose only cap trip was in the S-pair phase of a non-smooth
# locus's basis.  The locus is certified at the origin before any S-pair,
# so each finishes with its uncapped output.
CERTIFIED_UNDER_CAP = (
    ("eids-check", "omega1", 4),
    ("analyze", "omega2_family", 6),
    ("family-scan", "omega2_family", 6),
    ("analyze", "omega3", 8),
    ("eids-check", "omega3", 8),
)


@pytest.mark.parametrize("command, name, cap", CERTIFIED_UNDER_CAP)
def test_certified_loci_finish_under_the_cap(command, name, cap, capsys):
    path = str(MODELS / f"{name}.model")
    assert main([command, path]) == 0
    uncapped = capsys.readouterr()
    assert main([command, path, "--max-degree", str(cap)]) == 0
    assert capsys.readouterr() == uncapped


# Commands whose only cap trip was the saturation by the maximal ideal of
# text-off-origin's stratum 1, (x1, ..., x5, y^2 - y^3): its degree counted
# the saturation's tags.  The origin-primary component adds no variable,
# so under a cap of 3 each prints its uncapped output.
OFF_ORIGIN_UNDER_CAP = (
    ("colength", "--stratum", "1"),
    ("screen-hyperplanes", "--hyperplane", "y"),
)


@pytest.mark.parametrize("command", OFF_ORIGIN_UNDER_CAP)
def test_off_origin_support_finishes_under_the_cap(command, tmp_path, monkeypatch):
    write_models(tmp_path)
    monkeypatch.chdir(tmp_path)
    argv = [command[0], "models/text-off-origin.model", *command[1:]]
    uncapped = run_captured(argv)
    assert run_captured([*argv, "--max-degree", "3"]) == uncapped


def test_verdicts_never_reach_the_tuple_reducer(monkeypatch, capsys):
    # groebner._divide serves only normal_form, in_ideal and
    # exact_divide.  Every support test goes through
    # support_is_origin_only, so no verdict needs it: not analyze on the
    # bundled models, not the eids check of a generic matrix, and not the
    # colengths of (x*y, x^2 + y^3), whose reduced basis the certificate
    # does not settle.
    def divide(*args):
        raise AssertionError("a verdict reached groebner._divide")

    monkeypatch.setattr(groebner, "_divide", divide)
    for path in sorted(MODELS.glob("*.model")):
        assert main(["analyze", str(path), "--format", "structured"]) == 0
    capsys.readouterr()
    assert eids_check(generic_entry_model(2, 2, 2)).overall
    I = groebner.Ideal([P("x*y", XY), P("x^2 + y^3", XY)], XY)
    assert not groebner._certifies_origin(I.groebner_basis().elements, len(XY))
    assert colength(I) == colength_at_origin(I) == 5


def test_failed_verdict_is_kept(monkeypatch):
    # At u = 0 the second row is (0, 0, y^2), so the top stratum has
    # dimension 5, not 4, and the member's eids check raises; the third
    # sample is that member again and reads the kept error.
    from detsing import DeterminantalType, PresentationMatrix, strata

    vs = omega_vars(("u",))
    rows = [["x1", "x2", "x3"], ["u*x4", "u*x5", "u*x1 + y^2"]]
    family = PresentationMatrix(
        DeterminantalType(2, 1, 2), [[P(e, vs) for e in row] for row in rows], vs
    )
    counts = count_calls(monkeypatch, (strata, "_eids_verdict"))
    records = good_family_scan(family, [{"u": 0}, {"u": 1}, {"u": 0}])
    assert counts["_eids_verdict"] == 2
    assert [r.error is None for r in records] == [False, True, False]
    assert records[0].error == records[2].error
    assert "top stratum has dimension 5" in records[0].error


def test_second_eids_check_reads_the_kept_verdict(monkeypatch):
    # One EIDS ladder per analysis: a second eids_check on the same
    # analysis builds no locus and runs no origin certificate.
    from detsing import Analysis, strata

    a = Analysis(build_model(load_model_file(MODELS / "omega1.model")))
    counts = count_calls(
        monkeypatch, (strata, "singular_locus_ideal"), (groebner, "_origin_certified")
    )
    first = eids_check(a)
    after_first = dict(counts)
    assert after_first["singular_locus_ideal"] > 0 and after_first["_origin_certified"] > 0
    second = eids_check(a)
    assert counts == after_first
    assert second is first


# Each module imports only modules before it here: the analysis memo sits
# below every verdict module, and the command line on top.
LAYERS = (
    "errors", "poly", "groebner", "detmodel", "analysis", "strata",
    "invariants", "genericity", "modelfile", "report", "cli",
)


def test_the_package_is_layered():
    # Every relative import is at module top and names an earlier layer;
    # the package's __init__ and __main__ sit above them all.
    bad = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        rank = LAYERS.index(path.stem) if path.stem in LAYERS else len(LAYERS)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node not in tree.body:
                    bad.append(f"{path.name}:{node.lineno} imports .{node.module} inside a block")
                elif node.module not in LAYERS[:rank]:
                    bad.append(f"{path.name}:{node.lineno} imports .{node.module} from below")
    assert not bad


def test_no_module_keeps_global_state():
    # Budgets such as the degree cap travel as arguments, never through
    # a module global.
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Global)]
        assert not found, f"{path.name}: global statement at line(s) {found}"


def test_runtime_imports_only_the_standard_library():
    # Every import is relative (inside detsing) or names a module of the
    # standard library, so the runtime needs nothing installed.
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names, (
                    f"{path.name}:{node.lineno} imports {name!r}"
                )
