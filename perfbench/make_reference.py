"""Write reference.json: the expected outputs the benchmark checks.

    python3 perfbench/make_reference.py

The digests of the bundled models' structured ``analyze`` output, and the
invariants of the untransformed omega models, are taken from the program
as it stands when this is run; run it only where those outputs are known
to be right.  The generic-grid values are the known verdicts: every
generic-entry model is transversal off the origin.  The wide-dim values
are the known dimensions of the generic 5x4 matrix's strata: the origin,
and the rank <= 1 matrices (5 + 4 - 1 = 8).
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

from run import HERE, fresh_import
from workloads import OMEGA_KS, OMEGA_VARS, ROOT, _analyze, omega_invariants, omega_model_text

GENERIC_CASES = [
    (1, 0, 1), (1, 1, 1), (1, 2, 1),
    (2, 0, 1), (2, 0, 2), (2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2),
    (3, 0, 1), (3, 1, 1), (3, 2, 1),
]  # fmt: skip


def main():
    ns = fresh_import()
    digests = {
        path.stem: hashlib.sha256(_analyze(ns.cli, path)).hexdigest()
        for path in sorted((ROOT / "models").glob("*.model"))
    }
    omega = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        for k in OMEGA_KS:
            path = Path(workdir) / f"omega{k}.model"
            path.write_text(omega_model_text(k, OMEGA_VARS, []), encoding="utf-8")
            omega[str(k)] = omega_invariants(json.loads(_analyze(ns.cli, path)))
    reference = {
        "models-analyze": digests,
        "generic-eids": [{"case": list(c), "overall": True} for c in GENERIC_CASES],
        "omega-coords": omega,
        "wide-dim": [
            {"case": [4, 1, 2], "stratum": 1, "dim": 0},
            {"case": [4, 1, 2], "stratum": 2, "dim": 8},
        ],
    }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
