"""Report assembly: one self-describing tree with stable key names.

Each section is a view over one :class:`~detsing.analysis.Analysis`.

Every numeric field carries a provenance marker (computed,
user-supplied, not-computable) and every non-certified claim surfaces as
a warning.  Construction order is fixed, so structured output is
byte-identical across runs on the same input.
"""

from __future__ import annotations

import json

from .analysis import Analysis
from .detmodel import PresentationMatrix
from .errors import (
    DimensionMismatchError,
    PreconditionError,
    ValidationError,
)
from .genericity import section_invariant_compare
from .invariants import (
    build_euler_system,
    m0_colength,
    md_consistency,
    mvector,
    nit_coefficient,
    polar_term_bound,
    solve_for_chi_diffs,
    whitney_report,
)
from .modelfile import ModelFile, build_hyperplanes
from .poly import GREVLEX, poly_to_str, rational_str
from .strata import conormal_fiber_gap, eids_check, stably_isolated_check

SCHEMA = "detsing-report/1"


def computed(value):
    return {"value": value, "provenance": "computed"}


def user_supplied(value):
    return {"value": value, "provenance": "user-supplied"}


NOT_COMPUTABLE = {"value": None, "provenance": "not-computable"}


def point_dict(point):
    return {name: rational_str(value) for name, value in sorted(dict(point).items())}


def model_echo(m: PresentationMatrix):
    d = m.dtype
    return {
        "variables": list(m.vars.ambient),
        "parameters": list(m.vars.parameters),
        "type": {
            "rows": m.rows,
            "cols": m.cols,
            "n": d.n,
            "k": d.k,
            "t": d.t,
            "q": m.q,
        },
        "matrix": [[poly_to_str(e) for e in row] for row in m.entries],
    }


def base_report(command, m: PresentationMatrix):
    return {
        "schema": SCHEMA,
        "command": command,
        "model": model_echo(m),
    }


def strata_section(a: Analysis, ordering=GREVLEX):
    rows = []
    for i in range(1, a.model.dtype.t + 1):
        s = a.stratum(i)
        row = {
            "index": i,
            "generator_count": len(s.ideal.generators),
            "expected_codim": s.expected_codim,
            "expected_dim": s.expected_dim,
            "present": s.present,
        }
        if a.model.is_specialized():
            row["actual_dim"] = computed(a.dimension(i))
            row["basis_size"] = computed(len(s.ideal.groebner_basis(ordering)))
        else:
            row["actual_dim"] = dict(NOT_COMPUTABLE)
            row["basis_size"] = dict(NOT_COMPUTABLE)
        rows.append(row)
    return rows


def eids_section(a: Analysis, warnings):
    if not a.model.is_specialized():
        warnings.append(
            "transversality checks need a specialized model; run family-scan "
            "with samples instead"
        )
        return {"overall": None, "provenance": "not-computable", "strata": []}
    try:
        verdict = eids_check(a)
    except DimensionMismatchError as exc:
        return {
            "overall": False,
            "provenance": "computed",
            "error": str(exc),
            "strata": [],
        }
    rows = []
    for r in verdict.strata:
        row = {
            "index": r.index,
            "expected_dim": r.expected_dim,
            "actual_dim": r.actual_dim,
            "transversal_off_origin": r.transversal_off_origin,
        }
        if r.witness is not None:
            row["witness_generators"] = [
                poly_to_str(g) for g in r.witness.groebner_basis().elements
            ]
        rows.append(row)
    return {"overall": verdict.overall, "provenance": "computed", "strata": rows}


def euler_system_echo(sys):
    rows = [list(r) for r in sys.matrix]
    return {"strata": list(sys.strata), "dims": list(sys.dims), "matrix": rows}


def mvector_echo(sys, mvec):
    """The solved multiplicity vector and the chi combinations it realizes;
    both not computable when ``mvec`` is None."""
    if mvec is None:
        return {"mvector": dict(NOT_COMPUTABLE), "chi_combinations": dict(NOT_COMPUTABLE)}
    chi = solve_for_chi_diffs(sys, mvec)
    return {
        "mvector": {str(j): computed(mvec[j]) for j in sys.strata},
        "chi_combinations": {str(j): computed(v) for j, v in zip(sys.strata, chi)},
    }


def invariants_section(a: Analysis, mf: ModelFile, warnings):
    m = a.model
    d = m.dtype
    nit_rows = []
    for t in range(1, d.n + 1):
        nit_rows.append([nit_coefficient(d.n, d.k, t, i) for i in range(1, t + 1)])
    out = {"nit_rows": nit_rows}

    try:
        sys = build_euler_system(m)
        out["euler_system"] = euler_system_echo(sys)
    except PreconditionError as exc:
        sys = None
        out["euler_system"] = None
        warnings.append(str(exc))

    out["colengths"] = {}
    if sys is not None and m.is_specialized():
        for j in sys.zero_dim_strata():
            try:
                out["colengths"][str(j)] = computed(m0_colength(a, j))
            except PreconditionError as exc:
                out["colengths"][str(j)] = dict(NOT_COMPUTABLE)
                warnings.append(f"colength of stratum {j}: {exc}")
    elif sys is not None:
        warnings.append("colengths need a specialized model")

    chi = mf.chi_data()
    mvec = None
    if sys is not None and chi and m.is_specialized():
        try:
            mvec = mvector(a, chi)
            warnings.append(
                "multiplicity vector uses user-supplied Euler characteristics"
            )
        except (PreconditionError, ValidationError) as exc:
            warnings.append(f"multiplicity solve failed: {exc}")
    elif sys is not None and not chi:
        warnings.append(
            "no Euler characteristics supplied; the multiplicity vector "
            "for positive-dimensional strata is not computable"
        )
    out.update(mvector_echo(sys, mvec))

    bounds = []
    for i in range(1, d.t + 1):
        b = polar_term_bound(d, m.q, i)
        bounds.append(
            {"stratum": i, "bound": computed(0) if b == 0 else dict(NOT_COMPUTABLE)}
        )
    out["polar_bounds"] = bounds

    verified = m.is_specialized() and any(
        stably_isolated_check(a, i) for i in range(1, d.n)
    )
    out["conormal_fiber_gap"] = {
        "value": conormal_fiber_gap(d),
        "provenance": "computed",
        "stably_isolated_verified": verified,
    }
    if not verified:
        warnings.append(
            "conormal fiber gap assumes the stably-isolated hypothesis, "
            "which was not verified for this model"
        )
    return out


def genericity_section(a: Analysis, mf: ModelFile, warnings):
    vars = a.model.vars
    hyperplanes = build_hyperplanes(mf, vars)
    if not hyperplanes:
        return None
    if not a.model.is_specialized():
        warnings.append("hyperplane screening needs a specialized model")
        return None
    out = []
    for r in section_invariant_compare(a, hyperplanes):
        out.append(
            {
                "form": r.hyperplane.as_string(vars),
                "screen_passed": r.screen.passed,
                "reasons": list(r.screen.reasons),
                "section_dims": list(r.dims),
                "section_colengths": {str(k): v for k, v in sorted(r.colengths.items())},
                "minimal_among_passing": r.minimal,
            }
        )
    warnings.append(
        "screen-pass is a necessary condition, not a certificate of a "
        "generic hyperplane"
    )
    return out


def family_section(a: Analysis, mf: ModelFile, warnings):
    if not mf.samples:
        return None
    samples = [dict(s) for s in mf.samples]
    rep = whitney_report(a, samples, mf.chi_data())
    warnings.extend(rep.warnings)
    return {
        "reliable": rep.reliable,
        "scan": [
            {
                "point": point_dict(r.point),
                "passed": r.passed,
                "error": r.error,
            }
            for r in rep.scan
        ],
        "samples": [
            {
                "point": point_dict(s.point),
                "dims": list(s.dims),
                "colengths": {str(k): v for k, v in sorted(s.colengths.items())},
                "mvector": None
                if s.mvector is None
                else {str(k): v for k, v in sorted(s.mvector.items())},
            }
            for s in rep.samples
        ],
        "constant": rep.constant,
        "verdict": rep.verdict,
    }


def consistency_section(a: Analysis, mf: ModelFile, warnings):
    if not mf.supplied:
        return None
    m = a.model
    mvec = {}
    if m.is_specialized():
        try:
            build_euler_system(m)  # an empty system is reported even without chi data
            chi = mf.chi_data()
            if chi:
                mvec = mvector(a, chi)
        except (PreconditionError, ValidationError) as exc:
            warnings.append(f"could not solve for multiplicities: {exc}")
    rows = []
    for j in sorted(mf.supplied):
        fields = mf.supplied[j]
        e_pair = fields.get("e_pair")
        polar = fields.get("polar")
        bound = polar_term_bound(m.dtype, m.q, j) if 1 <= j <= m.dtype.t else None
        if polar is None and bound == 0:
            polar_entry = computed(0)
            polar_value = 0
        elif polar is not None:
            polar_entry = user_supplied(polar)
            polar_value = polar
            if bound == 0 and polar != 0:
                warnings.append(
                    f"supplied polar term for stratum {j} is {polar}, but the "
                    "vanishing rule forces 0"
                )
        else:
            polar_entry = dict(NOT_COMPUTABLE)
            polar_value = None
        row = {
            "stratum": j,
            "e_pair": user_supplied(e_pair) if e_pair is not None else dict(NOT_COMPUTABLE),
            "polar": polar_entry,
            "m": computed(mvec[j]) if j in mvec else dict(NOT_COMPUTABLE),
        }
        if e_pair is not None and polar_value is not None and j in mvec:
            row["holds"] = md_consistency(e_pair, polar_value, mvec[j])
        else:
            row["holds"] = None
            warnings.append(
                f"consistency identity for stratum {j} not checkable: a term "
                "is missing"
            )
        rows.append(row)
    return rows


def analyze_report(a: Analysis, mf: ModelFile, warnings, ordering=GREVLEX):
    """The sections of an ``analyze`` report, between model echo and warnings."""
    rep = {
        "ordering": ordering.kind,
        "strata": strata_section(a, ordering),
        "eids": eids_section(a, warnings),
        "invariants": invariants_section(a, mf, warnings),
    }
    for key, section in (
        ("genericity", genericity_section),
        ("family_scan", family_section),
        ("consistency", consistency_section),
    ):
        body = section(a, mf, warnings)
        if body is not None:
            rep[key] = body
    return rep


def to_json(report) -> str:
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# Schema validation (used by tests and the round-trip check)

_PROVENANCES = {"computed", "user-supplied", "not-computable"}


def _check(cond, path, message):
    if not cond:
        raise ValidationError(f"report schema violation at {path}: {message}")


def _check_prov(node, path):
    _check(isinstance(node, dict), path, "expected a provenance-tagged value")
    _check(set(node) >= {"value", "provenance"}, path, "missing value/provenance")
    _check(node["provenance"] in _PROVENANCES, path, "bad provenance marker")
    if node["provenance"] == "not-computable":
        _check(node["value"] is None, path, "not-computable values must be null")


def validate_report(report):
    """Validate the stable keys and provenance discipline of a report."""
    _check(isinstance(report, dict), "$", "report must be an object")
    _check(report.get("schema") == SCHEMA, "$.schema", f"must be {SCHEMA!r}")
    _check(isinstance(report.get("command"), str), "$.command", "missing command")
    model = report.get("model")
    _check(isinstance(model, dict), "$.model", "missing model echo")
    for key in ("variables", "parameters", "type", "matrix"):
        _check(key in model, f"$.model.{key}", "missing")
    for key in ("rows", "cols", "n", "k", "t", "q"):
        _check(
            isinstance(model["type"].get(key), int), f"$.model.type.{key}", "must be int"
        )
    if "strata" in report:
        for idx, row in enumerate(report["strata"]):
            path = f"$.strata[{idx}]"
            for key in ("index", "generator_count", "expected_codim", "expected_dim"):
                _check(isinstance(row.get(key), int), f"{path}.{key}", "must be int")
            _check(isinstance(row.get("present"), bool), f"{path}.present", "must be bool")
            _check_prov(row.get("actual_dim"), f"{path}.actual_dim")
    if "eids" in report:
        eids = report["eids"]
        _check(
            eids.get("overall") in (True, False, None), "$.eids.overall", "must be bool/null"
        )
        _check(isinstance(eids.get("strata"), list), "$.eids.strata", "must be a list")
    if "invariants" in report:
        inv = report["invariants"]
        _check(isinstance(inv.get("nit_rows"), list), "$.invariants.nit_rows", "list")
        for key, node in inv.get("colengths", {}).items():
            _check_prov(node, f"$.invariants.colengths[{key}]")
        mv = inv.get("mvector")
        if isinstance(mv, dict) and "provenance" in mv:
            _check_prov(mv, "$.invariants.mvector")
        elif isinstance(mv, dict):
            for key, node in mv.items():
                _check_prov(node, f"$.invariants.mvector[{key}]")
        gap = inv.get("conormal_fiber_gap")
        _check(isinstance(gap, dict), "$.invariants.conormal_fiber_gap", "object")
        _check(
            isinstance(gap.get("stably_isolated_verified"), bool),
            "$.invariants.conormal_fiber_gap.stably_isolated_verified",
            "must be bool",
        )
    if "warnings" in report:
        _check(isinstance(report["warnings"], list), "$.warnings", "must be a list")
        for i, w in enumerate(report["warnings"]):
            _check(isinstance(w, str), f"$.warnings[{i}]", "must be a string")
    return True


# ---------------------------------------------------------------------------
# Text rendering


def _render_prov(node):
    if node["provenance"] == "not-computable":
        return "not computable"
    suffix = "" if node["provenance"] == "computed" else " (user-supplied)"
    return f"{node['value']}{suffix}"


def render_text(report) -> str:
    lines = [f"detsing {report['command']} report"]
    model = report["model"]
    t = model["type"]
    lines.append(
        f"model: {t['rows']}x{t['cols']} matrix, type "
        f"({t['n'] + t['k']},{t['n']},{t['t']}), q = {t['q']}"
    )
    if model["parameters"]:
        lines.append(f"parameters: {' '.join(model['parameters'])}")
    for key in ("stratum", "size"):
        if key in report:
            lines.append(f"{key}: {report[key]}")
    if "minors" in report:
        lines.append(f"minor count: {len(report['minors'])}")
        for s in report["minors"]:
            lines.append(f"  {s}")
    if "dimension" in report:
        lines.append(
            f"expected dim: {report['expected_dim']}, actual dim: "
            f"{_render_prov(report['dimension'])}"
        )
    if "colength" in report:
        lines.append(f"colength: {_render_prov(report['colength'])}")
    if "strata" in report:
        lines.append("strata:")
        for row in report["strata"]:
            lines.append(
                f"  {row['index']}: expected dim {row['expected_dim']} "
                f"(codim {row['expected_codim']}), actual "
                f"{_render_prov(row['actual_dim'])}, "
                f"{row['generator_count']} generators"
            )
    if "eids" in report:
        eids = report["eids"]
        overall = eids["overall"]
        label = "pass" if overall else ("fail" if overall is False else "not computed")
        lines.append(f"transversality off origin: {label}")
        if eids.get("error"):
            lines.append(f"  error: {eids['error']}")
        for row in eids["strata"]:
            lines.append(
                f"  stratum {row['index']}: dim {row['actual_dim']} "
                f"(expected {row['expected_dim']}), "
                f"{'transversal' if row['transversal_off_origin'] else 'FAILS'}"
            )
    if "invariants" in report:
        inv = report["invariants"]
        if inv.get("euler_system"):
            sys = inv["euler_system"]
            lines.append(
                f"euler system over strata {sys['strata']} "
                f"(dims {sys['dims']}): rows {sys['matrix']}"
            )
        if inv.get("colengths"):
            for key, node in inv["colengths"].items():
                lines.append(f"colength of stratum {key}: {_render_prov(node)}")
        mv = inv.get("mvector")
        if isinstance(mv, dict) and "provenance" not in mv:
            pieces = ", ".join(f"m[{k}] = {_render_prov(v)}" for k, v in mv.items())
            lines.append(f"multiplicity vector: {pieces}")
        elif isinstance(mv, dict):
            lines.append(f"multiplicity vector: {_render_prov(mv)}")
        for bound in inv.get("polar_bounds", []):
            lines.append(
                f"polar term bound, stratum {bound['stratum']}: "
                f"{_render_prov(bound['bound']) if bound['bound']['value'] is not None else 'unknown'}"
            )
        gap = inv.get("conormal_fiber_gap")
        if gap:
            note = (
                "stably-isolated verified"
                if gap["stably_isolated_verified"]
                else "stably-isolated hypothesis NOT verified"
            )
            lines.append(f"conormal fiber gap: {gap['value']} ({note})")
    if "mvector" in report:
        for k, v in report["mvector"].items():
            lines.append(f"m[{k}] = {_render_prov(v)}")
    if "genericity" in report:
        lines.append("hyperplane screen:")
        for row in report["genericity"]:
            status = "pass" if row["screen_passed"] else "fail"
            mark = " [minimal]" if row.get("minimal_among_passing") else ""
            lines.append(f"  {row['form']}: {status}{mark}")
            for reason in row["reasons"]:
                lines.append(f"    - {reason}")
            if row["section_dims"]:
                lines.append(f"    section dims: {row['section_dims']}")
    if "family_scan" in report:
        fam = report["family_scan"]
        lines.append(
            f"family scan: {'reliable' if fam['reliable'] else 'UNRELIABLE'}; "
            f"{fam['verdict']}"
        )
        for row in fam["samples"]:
            lines.append(
                f"  {row['point']}: dims {row['dims']}, colengths "
                f"{row['colengths']}, mvector {row['mvector']}"
            )
    if "consistency" in report:
        lines.append("consistency identity (e_pair + polar = m):")
        for row in report["consistency"]:
            verdict = {True: "holds", False: "VIOLATED", None: "not checkable"}[
                row["holds"]
            ]
            lines.append(
                f"  stratum {row['stratum']}: e_pair {_render_prov(row['e_pair'])}, "
                f"polar {_render_prov(row['polar'])}, m {_render_prov(row['m'])} "
                f"-> {verdict}"
            )
    for w in report.get("warnings", []):
        lines.append(f"warning: {w}")
    return "\n".join(lines) + "\n"
