"""One analysis per command: each stratum, section and family member is
built once per call, and no cache outlives the call."""

import sys
from pathlib import Path

import pytest

from detsing import eids_check, groebner
from detsing.cli import main
from detsing.modelfile import build_model, load_model_file

MODELS = Path(__file__).resolve().parent.parent / "models"


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


# (detmodel.stratum, genericity.slice_model, strata.eids_check) calls in one
# analyze: the model's strata, one slice per hyperplane and one verdict per
# distinct member or section.  omega2_family's three samples specialize to
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
        monkeypatch, (detmodel, "stratum"), (genericity, "slice_model"), (strata, "eids_check")
    )
    assert main(["analyze", str(MODELS / f"{name}.model"), "--format", "structured"]) == 0
    capsys.readouterr()
    got = (counts["stratum"], counts["slice_model"], counts["eids_check"])
    assert got == ANALYZE_WORK[name]


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
