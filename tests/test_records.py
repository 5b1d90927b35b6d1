"""The result records: named tuples with the text, equality and hashing
that the earlier frozen dataclasses had, and an import that builds no
class through generated code.

The expected ``repr`` texts were recorded from the dataclass records, and
that of ``ChainRuleResult`` from its earlier hand-written ``repr``.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from detsing import (
    ChainRuleResult,
    DeterminantalType,
    Hyperplane,
    Ideal,
    Polynomial,
    SectionInvariants,
    StratumModel,
    ValidationError,
    VariableSet,
)
from detsing.genericity import ScreenVerdict
from detsing.invariants import ChiData, EulerSystem, SampleInvariants, WhitneyReport
from detsing.modelfile import ModelFile, parse_model_file
from detsing.poly import MonomialOrdering
from detsing.strata import EidsVerdict, ScanRecord, StratumCheck

ROOT = Path(__file__).resolve().parent.parent

MODEL_TEXT = (
    "[variables]\nx y\n[type]\nrows = 1\ncols = 2\nt = 1\n[matrix]\nx, y\n"
    "[euler]\nstratum 1: chi_stab = 1, chi_section = 0\n"
)

HYPERPLANE = "Hyperplane(coefficients=(Fraction(0, 1), Fraction(1, 1), Fraction(-2, 1)))"
SCREEN = f"ScreenVerdict(hyperplane={HYPERPLANE}, passed=True, reasons=())"
CHECK = (
    "StratumCheck(index=1, expected_dim=0, actual_dim=0, "
    "transversal_off_origin=True, witness=None)"
)
VERDICT = f"EidsVerdict(strata=({CHECK},), overall=True)"

# name -> (field names, expected repr)
EXPECTED = {
    "VariableSet": (
        ("ambient", "parameters"),
        "VariableSet(ambient=('x', 'y'), parameters=('u',))",
    ),
    "MonomialOrdering": (
        ("kind", "block"),
        "MonomialOrdering(kind='block', block=(0, 1))",
    ),
    "DeterminantalType": (("n", "k", "t"), "DeterminantalType(n=3, k=1, t=2)"),
    "StratumModel": (
        ("index", "ideal", "expected_codim", "expected_dim"),
        "StratumModel(index=1, ideal=Ideal(1 generators over ('x', 'y', 'u')), "
        "expected_codim=2, expected_dim=0)",
    ),
    "Hyperplane": (("coefficients",), HYPERPLANE),
    "ScreenVerdict": (("hyperplane", "passed", "reasons"), SCREEN),
    "SectionInvariants": (
        ("hyperplane", "screen", "dims", "colengths", "mvector", "minimal"),
        f"SectionInvariants(hyperplane={HYPERPLANE}, screen={SCREEN}, dims=(1, 0), "
        "colengths={2: 3}, mvector=None, minimal=False)",
    ),
    "ChiData": (("chi_stab", "chi_section"), "ChiData(chi_stab=0, chi_section=2)"),
    "EulerSystem": (
        ("strata", "dims", "matrix"),
        "EulerSystem(strata=(1, 2), dims=(0, 1), matrix=((1,), (-2, 1)))",
    ),
    "SampleInvariants": (
        ("point", "dims", "colengths", "mvector"),
        "SampleInvariants(point={'u': Fraction(1, 2)}, dims=(0,), colengths={1: 2}, "
        "mvector=None)",
    ),
    "WhitneyReport": (
        ("reliable", "scan", "samples", "constant", "verdict", "warnings"),
        "WhitneyReport(reliable=True, scan=(), samples=(), constant=None, "
        "verdict='empty sample list', warnings=('w',))",
    ),
    "StratumCheck": (
        ("index", "expected_dim", "actual_dim", "transversal_off_origin", "witness"),
        CHECK,
    ),
    "EidsVerdict": (("strata", "overall"), VERDICT),
    "ScanRecord": (
        ("point", "verdict", "error"),
        f"ScanRecord(point={{'u': Fraction(0, 1)}}, verdict={VERDICT}, error=None)",
    ),
    "ChainRuleResult": (("ok", "mismatch"), "ChainRuleResult(ok=False, mismatch=(1, 2))"),
    "ModelFile": (
        (
            "variables", "parameters", "rows", "cols", "t", "matrix", "matrix_lines",
            "euler_reduced", "euler", "hyperplanes", "samples", "sample_lines", "supplied",
        ),
        "ModelFile(variables=('x', 'y'), parameters=(), rows=1, cols=2, t=1, "
        "matrix=(('x', 'y'),), matrix_lines=(8,), euler_reduced=False, "
        "euler={1: (1, 0)}, hyperplanes=(), samples=(), sample_lines=(), supplied={})",
    ),
}

# Records holding a dict field: hashing them raises TypeError.
UNHASHABLE = {"SectionInvariants", "SampleInvariants", "ScanRecord", "ModelFile"}


def build(name):
    """A fresh record of each kind; two calls give equal, distinct records."""
    vs = VariableSet(("x", "y"), ("u",))
    ideal = Ideal([Polynomial.variable(vs, "x")], vs)
    h = Hyperplane((0, 2, -4))
    screen = ScreenVerdict(h, True, ())
    check = StratumCheck(1, 0, 0, True)
    verdict = EidsVerdict((check,), True)
    makers = {
        "VariableSet": lambda: vs,
        "MonomialOrdering": lambda: MonomialOrdering.block_elimination(2),
        "DeterminantalType": lambda: DeterminantalType(3, 1, 2),
        "StratumModel": lambda: StratumModel(1, ideal, 2, 0),
        "Hyperplane": lambda: h,
        "ScreenVerdict": lambda: screen,
        "SectionInvariants": lambda: SectionInvariants(h, screen, (1, 0), {2: 3}, None),
        "ChiData": lambda: ChiData.from_input(-1, 1, reduced=True),
        "EulerSystem": lambda: EulerSystem((1, 2), (0, 1), ((1,), (-2, 1))),
        "SampleInvariants": lambda: SampleInvariants(
            {"u": Fraction(1, 2)}, (0,), {1: 2}, None
        ),
        "WhitneyReport": lambda: WhitneyReport(
            True, (), (), None, "empty sample list", ("w",)
        ),
        "StratumCheck": lambda: check,
        "EidsVerdict": lambda: verdict,
        "ScanRecord": lambda: ScanRecord({"u": Fraction(0)}, verdict, None),
        "ChainRuleResult": lambda: ChainRuleResult(False, (1, 2)),
        "ModelFile": lambda: parse_model_file(MODEL_TEXT),
    }
    return makers[name](), ideal


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_record_text_equality_and_hash(name):
    fields, text = EXPECTED[name]
    x, ideal = build(name)
    y, _ = build(name)
    if name == "StratumModel":
        y = StratumModel(1, ideal, 2, 0)  # the ideal compares by identity
    assert type(x).__name__ == name
    assert repr(x) == text
    assert x == y and not x != y
    values = tuple(getattr(x, f) for f in fields)
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(y) == hash(values)
    with pytest.raises(AttributeError):
        setattr(x, fields[0], values[0])
    assert repr(x) == text


def test_records_differ_when_a_field_does():
    assert VariableSet(("x", "y")) != VariableSet(("y", "x"))
    assert VariableSet(("x",), ("u",)) != VariableSet(("x", "u"))
    assert DeterminantalType(3, 1, 2) != DeterminantalType(3, 1, 1)
    assert Hyperplane((1, 2)) != Hyperplane((2, 1))
    assert ChiData(0, 2) != ChiData(2, 0)
    assert StratumCheck(1, 0, 0, True) != StratumCheck(1, 0, 0, False)


def test_chain_rule_result_is_true_only_when_ok():
    # A non-empty tuple is truthy; the record answers with its ``ok`` field.
    assert not ChainRuleResult(False, (1, 2))
    assert ChainRuleResult(True) and ChainRuleResult(True).mismatch is None


def test_validation_messages():
    cases = [
        (lambda: VariableSet(()), "variable set must not be empty"),
        (lambda: VariableSet(("x", "x")), "variable names must be unique"),
        (lambda: VariableSet(("x",), ("x",)), "variable names must be unique"),
        (lambda: DeterminantalType(0, 0, 1), "need n >= 1 and k >= 0"),
        (lambda: DeterminantalType(1, -1, 1), "need n >= 1 and k >= 0"),
        (lambda: DeterminantalType(2, 0, 3), "stratum cutoff t=3 outside 1..2"),
        (lambda: Hyperplane((0, 0)), "hyperplane coefficients must not all vanish"),
    ]
    for make, message in cases:
        with pytest.raises(ValidationError) as caught:
            make()
        assert str(caught.value) == message


def test_hyperplane_stores_normalized_coefficients():
    h = Hyperplane((0, 2, -4))
    assert h.coefficients == (0, 1, -2)
    assert all(type(c) is Fraction for c in h.coefficients)
    assert h == Hyperplane(coefficients=(0, Fraction(1, 3), Fraction(-2, 3)))


def test_keyword_construction_and_defaults():
    assert VariableSet(ambient=("x",)) == VariableSet(("x",), ())
    assert MonomialOrdering("grevlex").block == ()
    assert DeterminantalType(n=2, k=0, t=1) == DeterminantalType(2, 0, 1)
    assert StratumCheck(1, 0, 0, True).witness is None
    mf = ModelFile(("x",), (), 1, 1, 1, (("x",),))
    assert (mf.matrix_lines, mf.euler_reduced, mf.hyperplanes) == ((), False, ())
    assert (mf.samples, mf.sample_lines) == ((), ())
    # The dict fields default to an empty mapping that no record can change.
    assert mf.euler == {} and mf.supplied == {}
    with pytest.raises(TypeError):
        mf.euler[1] = (0, 0)
    assert parse_model_file(MODEL_TEXT).supplied == {}


def test_replace_builds_through_the_constructor():
    vs = VariableSet(("x", "y"))
    moved = vs._replace(parameters=("u",))
    assert moved == VariableSet(("x", "y"), ("u",))
    assert (len(moved), moved.index("u"), moved.fresh_name("x")) == (3, 2, "x1")
    with pytest.raises(ValidationError, match="unique"):
        vs._replace(parameters=("x",))
    assert Hyperplane((1, 0))._replace(coefficients=(0, 3)).coefficients == (0, 1)
    with pytest.raises(ValidationError, match="cutoff"):
        DeterminantalType(2, 0, 1)._replace(t=3)
    rows = SectionInvariants(Hyperplane((1,)), None, (), {}, None)
    assert rows._replace(minimal=True).minimal and not rows.minimal


def test_variable_set_lookups():
    vs = VariableSet(("x", "y"), ("u",))
    assert len(vs) == 3
    assert vs.names == ("x", "y", "u")
    assert [vs.index(n) for n in vs.names] == [0, 1, 2]
    assert vs.fresh_name("t") == "t" and vs.fresh_name("u") == "u1"


def test_import_loads_no_dataclasses():
    # detsing defines its records as named tuples, so importing the
    # package and its command line builds no dataclass.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    script = "import detsing, detsing.cli, sys; print('dataclasses' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        cwd=ROOT,
        env=env,
        timeout=60,
    )
    assert (done.returncode, done.stdout.strip(), done.stderr) == (0, b"False", b"")
