"""Capped command-line scan, a wider and slower companion of the
byte-identity gate in ``test_cli_reference.py`` (pytest does not collect
this file).

Every command variant of the gate's ``COMMANDS`` runs in both formats
and both orderings, with no degree cap and under ``--max-degree`` 1-12,
on the bundled models, on ``random_matrix_model(Random(s), 2, 2, 3)``
for s = 1-8 and on the gate's ``TEXT_MODELS``: 11,648 runs, in-process
through ``cli.main``.  Each run's
exit code, stdout and stderr are hashed as the gate hashes them.

    PYTHONPATH=src python tests/cli_scan.py OUT.json
    PYTHONPATH=src python tests/cli_scan.py --compare A.json B.json
    PYTHONPATH=src python tests/cli_scan.py --against REV

The first form writes ``{argv: "<sha256>:<exit code>"}`` and prints the
count of each exit code.  The second lists the runs whose entries differ
between two such files, and exits 1 when there is one.  The third checks
that the working tree keeps the command line's output of a git revision:
it extracts REV's ``src`` (``git archive REV src | tar -x``) into a
temporary directory, scans that ``src`` and the working tree's, each in
its own process with its own ``PYTHONPATH``, compares the two scans as
the second form does, and removes the directory.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

from test_cli_reference import BUNDLED, COMMANDS, TEXT_MODELS, digest, run_captured, write_models

SEEDS = range(1, 9)
CAPS = (None, *range(1, 13))


def runs():
    """argv of every run, on models written by ``write_models``."""
    models = BUNDLED + [f"random-{s}" for s in SEEDS] + list(TEXT_MODELS)
    for model in models:
        for command, *rest in COMMANDS:
            for fmt in ("text", "structured"):
                for ordering in ((), ("--ordering", "lex")):
                    for cap in CAPS:
                        limit = () if cap is None else ("--max-degree", str(cap))
                        yield [command, f"models/{model}.model", *rest, *ordering,
                               "--format", fmt, *limit]


def scan():
    results = {}
    with tempfile.TemporaryDirectory() as directory:
        write_models(directory, SEEDS)
        home = os.getcwd()
        os.chdir(directory)
        try:
            for argv in runs():
                code, out, err = run_captured(argv)
                results[" ".join(argv)] = f"{digest(code, out, err)}:{code}"
        finally:
            os.chdir(home)
    return results


def compare(a, b):
    """Names of the runs whose entries differ, or that one file lacks."""
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def report(a, b):
    """Print the runs whose entries differ between scans a and b; 1 if any."""
    differing = compare(a, b)
    for name in differing:
        print(f"{name}: {a.get(name)} -> {b.get(name)}")
    print(f"{len(differing)} of {len(a.keys() | b.keys())} runs differ")
    return 1 if differing else 0


def against(rev):
    """Scan REV's ``src`` and the working tree's ``src``, each in a child
    process, and report how they differ."""
    root = Path(__file__).resolve().parent.parent
    with tempfile.TemporaryDirectory() as directory:
        archive = subprocess.run(["git", "archive", rev, "src"], cwd=root, check=True,
                                 stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", directory], input=archive, check=True)
        scans = []
        for name, src in ((rev, Path(directory, "src")), ("working tree", root / "src")):
            out = Path(directory, f"{len(scans)}.json")
            done = subprocess.run([sys.executable, __file__, str(out)], text=True,
                                  env=dict(os.environ, PYTHONPATH=str(src)), stdout=subprocess.PIPE)
            if done.returncode:
                raise SystemExit(f"the scan of {name} failed")
            print(f"{name}: {done.stdout.strip()}")
            scans.append(json.loads(out.read_text()))
        return report(*scans)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", help="write the scan to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--against", metavar="REV", help="compare with git revision REV's src")
    args = parser.parse_args(argv)
    if args.compare:
        return report(*(json.loads(open(path).read()) for path in args.compare))
    if args.against:
        return against(args.against)
    if not args.out:
        parser.error("give an output file, --compare A B or --against REV")
    results = scan()
    with open(args.out, "w") as f:
        json.dump(results, f, indent=1, sort_keys=True)
        f.write("\n")
    codes = Counter(entry.rsplit(":", 1)[1] for entry in results.values())
    print(f"{len(results)} runs; exit codes " + ", ".join(
        f"{code}: {count}" for code, count in sorted(codes.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
