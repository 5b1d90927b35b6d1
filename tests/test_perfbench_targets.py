"""The traced benchmark runs wrap detsing functions by name.

``perfbench/tracing.py`` looks each name in ``TARGETS`` up with
``getattr``, so deleting or renaming one of them would break every traced
run; this checks them all from the suite, and checks that a traced
``analyze`` still passes through every layer the per-layer metrics name.
It also runs the benchmark's own self-check, so a change that breaks a
workload's checks, or the match between ``BENCHMARK.json`` and the
reported metrics, fails here.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    targets = _tracing_module().TARGETS
    missing = [
        f"detsing.{module}.{name}"
        for module, names in targets.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"detsing.{module}"), name, None))
    ]
    assert missing == []
    from detsing.groebner import Ideal

    assert callable(Ideal.groebner_basis)


def test_tracer_sees_every_layer_of_analyze():
    # Installed tracer wrappers would leak into other tests, so the traced
    # run happens in a child process, with no bytecode written.
    script = f"""
import collections, contextlib, importlib.util, io, json, sys
sys.path.insert(0, {str(ROOT / "src")!r})
from detsing import cli
spec = importlib.util.spec_from_file_location("perfbench_tracing", {str(TRACING)!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
for name in ("omega1", "omega1_family"):
    path = {str(ROOT / "models")!r} + "/" + name + ".model"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["analyze", path, "--format", "structured"]) == 0
print(json.dumps(collections.Counter(span[0] for span in tracer.spans)))
"""
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    spans = json.loads(done.stdout)
    # Nothing in an analyze calls ideal_quotient; every other target is reached.
    expected = {
        f"{module}.{name}"
        for module, names in _tracing_module().TARGETS.items()
        for name in names
    } - {"groebner.ideal_quotient"}
    assert sorted(expected - set(spans)) == []


def test_benchmark_self_check_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--self-check"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "self-check passed"
