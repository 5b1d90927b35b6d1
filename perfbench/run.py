"""detsing benchmark: one workload per run, in this one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a checkout.  The set-up (a fresh import of detsing,
reading or generating the inputs, building the models) is repeated
SETUP_REPEATS times and its median is ``setup_s``.  Passes over the
workload's items then run until the next pass would end after ``--seconds``,
and at least MIN_PASSES times.  Every output is checked against
``reference.json`` and against the first pass's output.

Every time is taken on the reference-speed clock of ``speed.SpeedProbe``,
which leaves out the probe's own bursts; pass times as measured are
printed beside them.  With ``--trace 0`` the end-to-end metrics are
reported, tracing off.  With ``--trace 1`` one untraced pass is followed
by traced passes, and the per-layer metrics of ``tracing.py`` are reported
with the tracing overhead; their counts must repeat exactly from pass to
pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import copy
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from speed import SpeedProbe  # noqa: E402
from tracing import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    ROOT,
    WORKLOADS,
    prepare_generic_eids,
    prepare_models_analyze,
    prepare_omega_coords,
    prepare_wide_dim,
)

SETUP_REPEATS = 21
MIN_PASSES = 2

END_TO_END = {
    "wall_s": "s",
    "slowest_item_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_rate": "ratio",
}


def fresh_import():
    """Import detsing from the checkout's src/, dropping any earlier import."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "detsing" or n.startswith("detsing.")]:
        del sys.modules[name]
    ns = SimpleNamespace(
        detsing=importlib.import_module("detsing"),
        cli=importlib.import_module("detsing.cli"),
        modelfile=importlib.import_module("detsing.modelfile"),
    )
    if Path(ns.detsing.__file__).resolve().parent != ROOT / "src" / "detsing":
        raise ImportError(f"detsing imported from {ns.detsing.__file__}, not from {src}")
    return ns


def load_reference():
    return json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


def run_pass(items, first_outputs, item_times, probe):
    """One pass over the items.

    Returns (wall time of the items less the probe's bursts, that time at
    the probe's reference speed, failures).
    """
    wall = scaled = 0.0
    failed = 0
    for item in items:
        start = perf_counter()
        try:
            out = item.run()
        except Exception:  # an item that raises is a failure, not the end of the run
            out, problem = None, traceback.format_exc()
        else:
            problem = None
        end = perf_counter()
        elapsed, at_ref = probe.scale(start, end)
        wall += elapsed
        scaled += at_ref
        item_times.setdefault(item.name, []).append(at_ref)
        if problem is None:
            problem = item.check(out)
        if problem is None and first_outputs.setdefault(item.name, out) != out:
            problem = "output differs from the first pass"
        if problem is not None:
            failed += 1
            print(f"FAIL {item.name}: {problem}", file=sys.stderr)
    return wall, scaled, failed


def measure(args, workload):
    reference = load_reference()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        with SpeedProbe() as probe:
            setups, raw_setups = [], []
            for _ in range(SETUP_REPEATS):
                start = perf_counter()
                ns = fresh_import()
                items = workload(ns, args.seed, workdir, reference)
                end = perf_counter()
                elapsed, at_ref = probe.scale(start, end)
                raw_setups.append(elapsed)
                setups.append(at_ref)
                gc.collect()  # free the previous import's modules now, not whenever the bursts let it happen

            first_outputs, item_times = {}, {}
            attempted = failed = 0
            walls, raw_walls = [], []
            tracer = None
            untraced_wall = None
            layers = []
            if args.trace:
                _, untraced_wall, failed = run_pass(items, first_outputs, item_times, probe)
                attempted = len(items)
                tracer = Tracer()
                tracer.install()
            start = perf_counter()
            while True:
                if tracer is not None:
                    tracer.reset()
                wall, scaled, f = run_pass(items, first_outputs, item_times, probe)
                raw_walls.append(wall)
                walls.append(scaled)
                attempted += len(items)
                failed += f
                if tracer is not None:
                    layers.append(layer_metrics(tracer.spans, probe.clock))
                elapsed = perf_counter() - start
                if len(walls) >= MIN_PASSES and elapsed + statistics.median(raw_walls) > args.seconds:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = failed == 0
    if not args.trace:
        metrics = {
            "wall_s": statistics.median(walls),
            "slowest_item_s": max(statistics.median(t) for t in item_times.values()),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_rate": (attempted - failed) / attempted,
        }
        units = END_TO_END
    else:
        metrics = {}
        for name, (unit, _) in LAYER_METRICS.items():
            if name in ("trace.wall_s", "trace.overhead_s"):
                continue
            values = [layer[name] for layer in layers]
            if unit == "s":
                metrics[name] = statistics.median(values)
            else:
                if len(set(values)) != 1:
                    correct = False
                    print(f"NONDETERMINISTIC {name}: {values}", file=sys.stderr)
                metrics[name] = values[0]
        metrics["trace.wall_s"] = statistics.median(walls)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}

    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    print(f"failure_rate = {failed}/{attempted} = {failed / attempted}")
    print(f"pass walls = {' '.join(f'{w:.4f}' for w in raw_walls)} s as measured")
    print(f"pass walls = {' '.join(f'{w:.4f}' for w in walls)} s at the reference speed")
    print(f"setup = {statistics.median(raw_setups):.4f} s as measured (median)")
    bursts = [end - start for start, end, _, _ in probe.bursts]
    print(f"speed-probe bursts = {len(bursts)}, median {statistics.median(bursts) * 1000:.3f} ms")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def self_check():
    """Feed wrong expected values and confirm every affected item fails.

    Returns 0 when each corrupted item fails and each control item passes.
    """
    good = load_reference()
    bad = copy.deepcopy(good)
    bad["models-analyze"] = {"omega3": "0" * 64}
    bad["generic-eids"] = [{"case": [1, 0, 1], "overall": False}]
    bad["omega-coords"]["1"]["colengths"] = {"1": 99}
    bad["wide-dim"] = [{"case": [4, 1, 2], "stratum": 1, "dim": 1}]
    control = copy.deepcopy(bad)
    control["models-analyze"] = {"omega3": good["models-analyze"]["omega3"]}
    control["generic-eids"][0]["overall"] = True
    control["omega-coords"] = good["omega-coords"]
    control["wide-dim"][0]["dim"] = 0

    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = [m["name"] for m in contract["end_to_end"]] == list(END_TO_END)
    ok = ok and [m["name"] for m in contract["per_layer"]] == list(LAYER_METRICS)
    ok = ok and [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    print("BENCHMARK.json names the reported metrics and workloads:", ok)

    ns = fresh_import()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        with SpeedProbe() as probe:
            for label, reference, expect_fail in (("corrupted", bad, True), ("control", control, False)):
                items = prepare_models_analyze(ns, 0, workdir, reference)
                items += prepare_generic_eids(ns, 0, workdir, reference)
                items += [i for i in prepare_omega_coords(ns, 0, workdir, reference) if i.name.startswith("omega1_")][:1]
                items += prepare_wide_dim(ns, 0, workdir, reference)
                for item in items:
                    _, _, failed = run_pass([item], {}, {}, probe)
                    print(f"{label} {item.name}: failure_rate = {failed}/1")
                    ok = ok and failed == int(expect_fail)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(args, WORKLOADS[args.workload])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
