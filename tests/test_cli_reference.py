"""Byte-identity gate for the command line.

Each command variant below runs in-process through ``cli.main`` from a
directory holding ``models/``: the bundled models, the random 2x2
models ``random_matrix_model(Random(s), 2, 2, 3)`` as ``random-<s>``
for s in ``RANDOM_SEEDS``, and the small models of ``TEXT_MODELS``.
The model path is relative to it.  Its
stdout, stderr and exit code are hashed together and compared with the
digests in ``tests/cli_reference.json``.  The capped runs reach exit
codes 1, 2 and 3 and the degree-cap messages; the ``--ordering lex``
runs pin the lex basis sizes.  A random model runs only ``analyze`` and
``eids-check``, structured, under each cap in both orderings: the pairs
the update criteria prune decide where some of those runs trip the cap.
A text model runs its own commands, in both formats: each reaches a
report branch that no other model reaches.

After adding a command variant, record its digest with

    PYTHONPATH=src python tests/test_cli_reference.py

This writes only the entries the file lacks.  When an existing entry's
digest would change, it writes nothing, names each such entry and exits
1.  After an intended change of output, delete those keys from the file
by hand, so that the deletion shows in the diff, and run it again.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

import pytest

from detsing.cli import main
from detsing.modelfile import format_model
from helpers import random_matrix_model

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "cli_reference.json"
BUNDLED = sorted(p.stem for p in (ROOT / "models").glob("*.model"))
RANDOM_SEEDS = (4, 6, 8)


def _text_model(variables, rows, hyperplanes=()):
    lines = ["[variables]", variables, "", "[type]", "rows = 2", "cols = 3", "t = 2", "",
             "[matrix]", *rows]
    if hyperplanes:
        lines += ["", "[hyperplanes]", *hyperplanes]
    return "\n".join(lines) + "\n"


# name -> (model text, commands run on it).
TEXT_MODELS = {
    # Stratum 1 is (x1, ..., x5, y^2 - y^3): its colength is not
    # computable, since the support holds the point y = 1.
    "text-off-origin": (
        _text_model("x1 x2 x3 x4 x5 y", ["x1, x2, x3", "x4, x5, x1 + y^2 - y^3"]),
        ("analyze",),
    ),
    # One variable: no stratum has a nonnegative expected dimension.
    "text-empty-system": (
        _text_model("x", ["x, 0, x^2", "0, x, 0"]),
        ("analyze",),
    ),
    # q = 2 is the codimension of the rank < 2 locus, and its minors
    # x^2, x*y, y^2 confine it to the origin: stably-isolated verified.
    "text-stably-isolated": (
        _text_model("x y", ["x, y, 0", "0, x, y"]),
        ("analyze",),
    ),
    # The x1 section's stratum 1, (x2, x3, x4, x + y^2, y^3), is not
    # certified by its reduced basis, so its support needs a saturation.
    "text-screen": (
        _text_model("x1 x2 x3 x4 x y", ["x1, x2, x3", "x4, x + y^2, y^3"], ["x1"]),
        ("analyze", "screen-hyperplanes"),
    ),
}
MODELS = BUNDLED + [f"random-{s}" for s in RANDOM_SEEDS] + list(TEXT_MODELS)

COMMANDS = (
    ("analyze",),
    ("minors", "--size", "1"),
    ("minors", "--size", "2"),
    ("dim", "--stratum", "1"),
    ("dim", "--stratum", "2"),
    ("colength", "--stratum", "1"),
    ("colength", "--stratum", "2"),
    ("eids-check",),
    ("euler-solve",),
    ("slice", "--hyperplane", "x3 - 2*x1"),
    ("screen-hyperplanes",),
    ("screen-hyperplanes", "--hyperplane", "y"),
    ("family-scan",),
    ("consistency",),
)
CAPPED = ("analyze", "eids-check", "family-scan", "screen-hyperplanes", "euler-solve", "consistency")
CAPS = (1, 2, 3, 4, 5, 6, 7, 8)
LEX = ("analyze", "eids-check")


def write_models(directory, seeds=RANDOM_SEEDS):
    """Write the bundled models, the random model of each seed as
    ``random-<seed>`` and the text models into ``directory/models``."""
    models = Path(directory) / "models"
    models.mkdir()
    for stem in BUNDLED:
        (models / f"{stem}.model").write_text((ROOT / "models" / f"{stem}.model").read_text())
    for s in seeds:
        model = random_matrix_model(random.Random(s), 2, 2, 3)
        (models / f"random-{s}.model").write_text(format_model(model))
    for name, (text, _) in TEXT_MODELS.items():
        (models / f"{name}.model").write_text(text)


def variants(model):
    """(name, argv) of every run on one model."""
    path = f"models/{model}.model"
    if model in TEXT_MODELS:
        for command in TEXT_MODELS[model][1]:
            for fmt in ("text", "structured"):
                argv = [command, path, "--format", fmt]
                yield " ".join(argv), argv
        return
    if model not in BUNDLED:
        for command in LEX:
            for cap in CAPS:
                for ordering in ((), ("--ordering", "lex")):
                    argv = [command, path, *ordering, "--format", "structured",
                            "--max-degree", str(cap)]
                    yield " ".join(argv), argv
        return
    for command, *rest in COMMANDS:
        for fmt in ("text", "structured"):
            argv = [command, path, *rest, "--format", fmt]
            yield " ".join(argv), argv
    for command in CAPPED:
        for cap in CAPS:
            argv = [command, path, "--format", "structured", "--max-degree", str(cap)]
            yield " ".join(argv), argv
    for command in LEX:
        for fmt in ("text", "structured"):
            argv = [command, path, "--ordering", "lex", "--format", fmt]
            yield " ".join(argv), argv
        for cap in CAPS:
            argv = [command, path, "--ordering", "lex", "--format", "structured",
                    "--max-degree", str(cap)]
            yield " ".join(argv), argv


def digest(code, out, err):
    """SHA-256 of one run's exit code, stdout and stderr."""
    return hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()


def run_captured(argv):
    """Exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("model", MODELS)
def test_cli_output_matches_reference(model, monkeypatch, tmp_path):
    write_models(tmp_path)
    monkeypatch.chdir(tmp_path)
    expected = json.loads(REFERENCE.read_text())[model]
    got = {name: digest(*run_captured(argv)) for name, argv in variants(model)}
    assert sorted(got) == sorted(expected)
    assert [name for name in got if got[name] != expected[name]] == []


def test_cli_scan_counts_its_runs_and_compares(tmp_path, capsys):
    # cli_scan imports this module, so it is imported here, not at the top.
    import cli_scan

    assert len(list(cli_scan.runs())) == 11648
    scan = {"analyze models/a.model": "00:0", "eids-check models/a.model": "11:2"}
    files = {
        "a": scan,
        "same": dict(scan),
        "differs": dict(scan, **{"analyze models/a.model": "00:1"}),
        "lacks": {"analyze models/a.model": "00:0"},
    }
    for name, entries in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(entries))
    a = str(tmp_path / "a.json")
    codes = {name: cli_scan.main(["--compare", a, str(tmp_path / f"{name}.json")]) for name in files}
    assert codes == {"a": 0, "same": 0, "differs": 1, "lacks": 1}
    assert capsys.readouterr().out.splitlines()[-1] == "1 of 2 runs differ"


if __name__ == "__main__":
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    changed = []
    with tempfile.TemporaryDirectory() as directory:
        write_models(directory)
        os.chdir(directory)
        for model in MODELS:
            entries = reference.setdefault(model, {})
            for name, argv in variants(model):
                got = digest(*run_captured(argv))
                if entries.setdefault(name, got) != got:
                    changed.append(name)
        os.chdir(ROOT)
    if changed:
        changed.insert(0, "digests would change; delete these keys to regenerate them:")
        sys.exit("\n".join(changed))
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
