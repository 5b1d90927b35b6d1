"""The benchmark's workloads: inputs made from a seed, and the check on each output.

A workload's ``prepare(ns, seed, workdir, reference)`` is the set-up: it
reads or generates the inputs, builds the models and returns the items of
one pass.  ``ns`` holds freshly imported detsing modules; items call the
package only through its public functions and the CLI entry point.  An
item's ``run`` returns the output bytes compared across passes, and its
``check`` returns None or the reason the output is wrong.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Item:
    name: str
    run: Callable[[], bytes]
    check: Callable[[bytes], "str | None"]


def _analyze(cli, path):
    """`detsing analyze --format structured`, in-process, stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["analyze", str(path), "--format", "structured"])
    if code != 0:
        raise RuntimeError(f"analyze exited with code {code}")
    return buf.getvalue().encode()


# ---------------------------------------------------------------------------
# models-analyze: the bundled models through the CLI, checked by digest.


def _digest_check(expected):
    def check(out):
        got = hashlib.sha256(out).hexdigest()
        return None if got == expected else f"sha256 {got} differs from reference {expected}"

    return check


def prepare_models_analyze(ns, seed, workdir, reference):
    items = []
    for name, digest in sorted(reference["models-analyze"].items()):
        path = ROOT / "models" / f"{name}.model"
        ns.modelfile.build_model(ns.modelfile.load_model_file(path))
        items.append(Item(name, lambda path=path: _analyze(ns.cli, path), _digest_check(digest)))
    random.Random(seed).shuffle(items)
    return items


# ---------------------------------------------------------------------------
# generic-eids: eids_check on the generic-entry grid.


def generic_entry_model(ns, n, k, t):
    """(n+k) x n matrix of independent variables z<r>_<c>; q = n(n+k)."""
    d = ns.detsing
    names = tuple(f"z{r + 1}_{c + 1}" for r in range(n + k) for c in range(n))
    vs = d.VariableSet(names)
    entries = [
        [d.Polynomial.variable(vs, f"z{r + 1}_{c + 1}") for c in range(n)]
        for r in range(n + k)
    ]
    return d.PresentationMatrix(d.DeterminantalType(n, k, t), entries, vs)


def _verdict_bytes(verdict):
    rows = [
        [r.index, r.expected_dim, r.actual_dim, r.transversal_off_origin]
        for r in verdict.strata
    ]
    return json.dumps({"overall": verdict.overall, "strata": rows}).encode()


def _verdict_check(expected_overall):
    def check(out):
        got = json.loads(out)
        if got["overall"] != expected_overall:
            return f"overall verdict {got['overall']}, expected {expected_overall}"
        if expected_overall and any(r[1] != r[2] or not r[3] for r in got["strata"]):
            return f"a stratum is off its expected dimension or not transversal: {got['strata']}"
        return None

    return check


def prepare_generic_eids(ns, seed, workdir, reference):
    items = []
    for case in reference["generic-eids"]:
        n, k, t = case["case"]
        model = generic_entry_model(ns, n, k, t)
        items.append(
            Item(
                f"({n},{k},{t})",
                lambda model=model: _verdict_bytes(ns.detsing.eids_check(model)),
                _verdict_check(case["overall"]),
            )
        )
    random.Random(seed).shuffle(items)
    return items


# ---------------------------------------------------------------------------
# omega-coords: the omega family after a linear change of coordinates.
#
# Model k is [[x1, x2, x3], [x4, x5, x1 + y^(k+1)]] for k = 1..3, written in
# new coordinates: a permutation of the six coordinates followed by two
# elementary shears x_i <- x_i + c*x_j.  Which coordinates are permuted and
# sheared is a fixed design drawn once from OMEGA_DESIGN_SEED; the run's
# seed draws each shear's c from {-2, -1, 1, 2} and the item order.  Random
# permutations per seed gave single models of 2-4 s beside a typical 0.2 s
# (grevlex cost depends on the variable order), so the pass time moved by
# more than the benchmark's bounds from seed to seed.  Denser changes (each
# off-diagonal entry present with probability 0.3-0.7) gave single models of
# 28 s and more.  Every input differs from every other, so a basis cache
# keyed across models gets no hits.

OMEGA_VARS = ("x1", "x2", "x3", "x4", "x5", "y")
OMEGA_KS = (1, 2, 3)
OMEGA_PER_K = 6
OMEGA_SHEARS = 2
OMEGA_DESIGN_SEED = 0
OMEGA_COEFFS = (-2, -1, 1, 2)


def omega_design():
    """(k, permutation, shear pairs) of every model in a pass."""
    rng = random.Random(OMEGA_DESIGN_SEED)
    design = []
    for idx in range(len(OMEGA_KS) * OMEGA_PER_K):
        perm = list(OMEGA_VARS)
        rng.shuffle(perm)
        pairs = [tuple(rng.sample(OMEGA_VARS, 2)) for _ in range(OMEGA_SHEARS)]
        design.append((OMEGA_KS[idx % len(OMEGA_KS)], perm, pairs))
    return design


def _linear_form(coeffs):
    out = ""
    for v in OMEGA_VARS:
        c = coeffs.get(v, 0)
        if not c:
            continue
        mag = "" if abs(c) == 1 else f"{abs(c)}*"
        if out:
            out += f" {'-' if c < 0 else '+'} {mag}{v}"
        else:
            out = f"{'-' if c < 0 else ''}{mag}{v}"
    return f"({out})"


def omega_model_text(k, perm, shears):
    """Model-file text of omega model k after the change of coordinates.

    ``shears`` is a list of ((i, j), c).  The map sends each coordinate v
    to a linear form; the shear x_i <- x_i + c*x_j rewrites every form.
    """
    image = {v: {w: 1} for v, w in zip(OMEGA_VARS, perm)}
    for (i, j), c in shears:
        for form in image.values():
            a = form.get(i, 0)
            if a:
                form[j] = form.get(j, 0) + c * a
                if form[j] == 0:
                    del form[j]
    rows = [["x1", "x2", "x3"], ["x4", "x5", f"x1 + y^{k + 1}"]]
    subst = lambda s: re.sub(r"x[1-5]|y", lambda m: _linear_form(image[m.group(0)]), s)
    matrix = "\n".join(", ".join(subst(e) for e in row) for row in rows)
    return (
        f"[variables]\n{' '.join(OMEGA_VARS)}\n\n"
        "[type]\nrows = 2\ncols = 3\nt = 2\n\n"
        f"[matrix]\n{matrix}\n\n"
        f"[euler]\nreduced = false\nstratum 2: chi_stab = {1 - k}, chi_section = 2\n"
    )


def omega_invariants(report):
    """The coordinate-invariant part of a structured analyze report."""
    values = lambda section: {j: e["value"] for j, e in sorted(section.items())}
    inv = report["invariants"]
    return {
        "dims": [s["actual_dim"]["value"] for s in report["strata"]],
        "eids": report["eids"]["overall"],
        "colengths": values(inv["colengths"]),
        "mvector": values(inv["mvector"]),
    }


def _invariants_check(expected):
    def check(out):
        got = omega_invariants(json.loads(out))
        return None if got == expected else f"invariants {got}, expected {expected}"

    return check


def prepare_omega_coords(ns, seed, workdir, reference):
    rng = random.Random(seed)
    items = []
    for idx, (k, perm, pairs) in enumerate(omega_design()):
        shears = [(pair, rng.choice(OMEGA_COEFFS)) for pair in pairs]
        text = omega_model_text(k, perm, shears)
        ns.modelfile.build_model(ns.modelfile.parse_model_file(text))
        path = Path(workdir) / f"omega{k}_{idx:02d}.model"
        path.write_text(text, encoding="utf-8")
        expected = reference["omega-coords"][str(k)]
        items.append(Item(path.stem, lambda path=path: _analyze(ns.cli, path), _invariants_check(expected)))
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# wide-dim: dimension() on two strata of the generic 4x5 matrix (q = 20).
#
# Stratum 1 is the maximal ideal (dimension 0); stratum 2 with t = 2 is cut
# out by the 60 quadrics of 2x2 minors (dimension 8).  Both equal the
# stratum's expected_dim.  dimension()'s own search over variable subsets
# is most of a pass here.  Each pass builds the stratum anew, so the
# ideal's basis cache does not carry over from pass to pass.


def _dimension_bytes(ns, model, index):
    st = ns.detsing.stratum(model, index)
    dim = ns.detsing.dimension(st.ideal)
    return json.dumps({"stratum": index, "dim": dim, "expected_dim": st.expected_dim}).encode()


def _dimension_check(expected_dim):
    def check(out):
        got = json.loads(out)
        if got["dim"] != expected_dim or got["expected_dim"] != expected_dim:
            return f"dimension {got['dim']} (expected_dim {got['expected_dim']}), expected {expected_dim}"
        return None

    return check


def prepare_wide_dim(ns, seed, workdir, reference):
    items = []
    for case in reference["wide-dim"]:
        n, k, t = case["case"]
        model = generic_entry_model(ns, n, k, t)
        index = case["stratum"]
        items.append(
            Item(
                f"({n},{k},{t}) stratum {index}",
                lambda model=model, index=index: _dimension_bytes(ns, model, index),
                _dimension_check(case["dim"]),
            )
        )
    random.Random(seed).shuffle(items)
    return items


WORKLOADS = {
    "models-analyze": prepare_models_analyze,
    "generic-eids": prepare_generic_eids,
    "omega-coords": prepare_omega_coords,
    "wide-dim": prepare_wide_dim,
}
