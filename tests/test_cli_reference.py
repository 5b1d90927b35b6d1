"""Byte-identity gate for the command line.

Each command variant below runs in-process through ``cli.main`` from the
repository root, with the model path relative to it.  Its stdout, stderr
and exit code are hashed together and compared with the digests in
``tests/cli_reference.json``.  The capped runs reach exit codes 1, 2 and
3 and the degree-cap messages; the ``--ordering lex`` runs pin the lex
basis sizes.

After adding a command variant, record its digest with

    PYTHONPATH=src python tests/test_cli_reference.py

This writes only the entries the file lacks.  When an existing entry's
digest would change, it writes nothing, names each such entry and exits
1.  After an intended change of output, delete those keys from the file
by hand, so that the deletion shows in the diff, and run it again.
"""

import hashlib
import json
import os
import sys
from pathlib import Path

import pytest

from detsing.cli import main

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "cli_reference.json"
MODELS = sorted(p.stem for p in (ROOT / "models").glob("*.model"))

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


def variants(model):
    """(name, argv) of every run on one model."""
    path = f"models/{model}.model"
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


def digest(argv, read_output):
    """SHA-256 of one run's exit code, stdout and stderr."""
    code = main(argv)
    out, err = read_output()
    return hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()


@pytest.mark.parametrize("model", MODELS)
def test_cli_output_matches_reference(model, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = json.loads(REFERENCE.read_text())[model]
    capsys.readouterr()
    got = {name: digest(argv, capsys.readouterr) for name, argv in variants(model)}
    assert sorted(got) == sorted(expected)
    assert [name for name in got if got[name] != expected[name]] == []


if __name__ == "__main__":
    import contextlib
    import io

    os.chdir(ROOT)
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    changed = []
    for model in MODELS:
        entries = reference.setdefault(model, {})
        for name, argv in variants(model):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                got = digest(argv, lambda: (out.getvalue(), err.getvalue()))
            if entries.setdefault(name, got) != got:
                changed.append(name)
    if changed:
        changed.insert(0, "digests would change; delete these keys to regenerate them:")
        sys.exit("\n".join(changed))
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
