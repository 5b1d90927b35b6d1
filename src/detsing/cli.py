"""Command-line front end.

Commands: analyze, minors, dim, colength, eids-check, euler-solve,
slice, screen-hyperplanes, family-scan, consistency.  Reports are
human-readable text or a structured JSON tree (--format structured).

Exit codes: 0 success, 1 validation error, 2 mathematical precondition
failure, 3 internal limit (the basis degree cap or the standard-monomial
cap).
"""

from __future__ import annotations

import argparse
import sys

from . import groebner
from .detmodel import minors as compute_minors
from .detmodel import stratum
from .errors import (
    DetsingError,
    LimitError,
    PreconditionError,
    ValidationError,
)
from .genericity import Hyperplane
from .groebner import dimension
from .invariants import build_euler_system, m0_colength, solve_for_chi_diffs, solve_for_m
from .modelfile import build_model, format_model, load_model_file
from .poly import GREVLEX, LEX, parse_polynomial, poly_to_str
from .report import (
    analyze_report,
    base_report,
    computed,
    consistency_section,
    eids_section,
    family_section,
    genericity_section,
    render_text,
    strata_section,
    to_json,
)


def _degree_cap(text):
    """A --max-degree value: a non-negative integer."""
    try:
        cap = int(text)
    except ValueError:
        cap = -1
    if cap < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return cap


def _add_common(parser):
    parser.add_argument("model", help="path to a model file")
    parser.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="output format (structured = JSON)",
    )
    parser.add_argument(
        "--ordering",
        choices=("grevlex", "lex"),
        default="grevlex",
        help="monomial ordering used for reported basis diagnostics",
    )
    parser.add_argument(
        "--max-degree",
        type=_degree_cap,
        default=None,
        help="abort basis computations past this total degree (exit 3)",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="detsing",
        description=(
            "Analyze a determinantal model: rank strata, transversality, "
            "colengths, the Euler-characteristic system, sections and "
            "family scans."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full pipeline report")
    _add_common(p)

    p = sub.add_parser("minors", help="list the s x s minors")
    _add_common(p)
    p.add_argument("--size", type=int, required=True)

    p = sub.add_parser("dim", help="dimension of one stratum")
    _add_common(p)
    p.add_argument("--stratum", type=int, required=True)

    p = sub.add_parser("colength", help="colength of a zero-dimensional stratum")
    _add_common(p)
    p.add_argument("--stratum", type=int, required=True)

    p = sub.add_parser("eids-check", help="transversality off the origin")
    _add_common(p)

    p = sub.add_parser("euler-solve", help="solve the Euler system for the m-vector")
    _add_common(p)

    p = sub.add_parser("slice", help="hyperplane section as a new model file")
    _add_common(p)
    p.add_argument("--hyperplane", required=True, help="linear form, e.g. 'x3 - 2*x1'")

    p = sub.add_parser("screen-hyperplanes", help="screen the [hyperplanes] section")
    _add_common(p)
    p.add_argument(
        "--hyperplane",
        action="append",
        default=None,
        help="screen this form instead of the [hyperplanes] section (repeatable)",
    )

    p = sub.add_parser("family-scan", help="per-sample transversality and constancy")
    _add_common(p)

    p = sub.add_parser("consistency", help="check e_pair + polar = m over [supplied]")
    _add_common(p)
    return parser


def _ordering(args):
    return GREVLEX if args.ordering == "grevlex" else LEX


def _emit(report, args):
    if args.format == "structured":
        sys.stdout.write(to_json(report))
    else:
        sys.stdout.write(render_text(report))


def _require_specialized(model):
    if not model.is_specialized():
        raise PreconditionError(
            "this command needs a specialized model (no free parameters)"
        )


def run(args) -> int:
    mf = load_model_file(args.model)
    model = build_model(mf)
    if args.max_degree is not None:
        groebner.set_max_degree(args.max_degree)
    try:
        command = args.command
        if command == "analyze":
            report = analyze_report(model, mf, _ordering(args))
            _emit(report, args)
            return 0

        if command == "minors":
            values = compute_minors(model, args.size)
            report = base_report("minors", model)
            report["size"] = args.size
            report["minors"] = [poly_to_str(p) for p in values]
            report["warnings"] = []
            _emit(report, args)
            return 0

        if command == "dim":
            _require_specialized(model)
            s = stratum(model, args.stratum)
            report = base_report("dim", model)
            report["stratum"] = args.stratum
            report["expected_dim"] = s.expected_dim
            report["dimension"] = computed(dimension(s.ideal))
            report["warnings"] = []
            _emit(report, args)
            return 0

        if command == "colength":
            _require_specialized(model)
            report = base_report("colength", model)
            report["stratum"] = args.stratum
            report["colength"] = computed(m0_colength(model, args.stratum))
            report["warnings"] = []
            _emit(report, args)
            return 0

        if command == "eids-check":
            _require_specialized(model)
            warnings = []
            report = base_report("eids-check", model)
            report["strata"] = strata_section(model, _ordering(args))
            report["eids"] = eids_section(model, warnings)
            report["warnings"] = warnings
            _emit(report, args)
            return 0

        if command == "euler-solve":
            _require_specialized(model)
            sys_ = build_euler_system(model)
            chi = mf.chi_data()
            cols = {j: m0_colength(model, j) for j in sys_.zero_dim_strata()}
            mvec = solve_for_m(sys_, chi, cols)
            report = base_report("euler-solve", model)
            report["euler_system"] = {
                "strata": list(sys_.strata),
                "dims": list(sys_.dims),
                "matrix": [list(r) for r in sys_.matrix],
            }
            report["mvector"] = {str(j): computed(mvec[j]) for j in sys_.strata}
            report["chi_combinations"] = {
                str(j): computed(v)
                for j, v in zip(sys_.strata, solve_for_chi_diffs(sys_, mvec))
            }
            report["warnings"] = [
                "multiplicity vector uses user-supplied Euler characteristics"
            ]
            _emit(report, args)
            return 0

        if command == "slice":
            form = parse_polynomial(args.hyperplane, model.vars)
            h = Hyperplane.from_linear_form(form, model.vars)
            from .genericity import slice_model

            sliced = slice_model(model, h)
            if args.format == "structured":
                report = base_report("slice", model)
                report["hyperplane"] = h.as_string(model.vars)
                report["sliced_model"] = format_model(sliced)
                report["warnings"] = []
                _emit(report, args)
            else:
                sys.stdout.write(format_model(sliced))
            return 0

        if command == "screen-hyperplanes":
            _require_specialized(model)
            warnings = []
            if args.hyperplane:
                forms = args.hyperplane
            else:
                forms = list(mf.hyperplanes)
            if not forms:
                raise ValidationError(
                    "no hyperplanes: add a [hyperplanes] section or --hyperplane"
                )
            local_mf = type(mf)(
                variables=mf.variables,
                parameters=mf.parameters,
                rows=mf.rows,
                cols=mf.cols,
                t=mf.t,
                matrix=mf.matrix,
                hyperplanes=tuple(forms),
            )
            section = genericity_section(model, local_mf, warnings)
            report = base_report("screen-hyperplanes", model)
            report["genericity"] = section
            report["warnings"] = warnings
            _emit(report, args)
            return 0

        if command == "family-scan":
            if not mf.samples:
                raise ValidationError("model file has no [samples] section")
            warnings = []
            report = base_report("family-scan", model)
            report["family_scan"] = family_section(model, mf, warnings)
            report["warnings"] = warnings
            _emit(report, args)
            return 0

        if command == "consistency":
            if not mf.supplied:
                raise ValidationError("model file has no [supplied] section")
            warnings = []
            report = base_report("consistency", model)
            report["consistency"] = consistency_section(model, mf, warnings)
            report["warnings"] = warnings
            _emit(report, args)
            return 0

        raise ValidationError(f"unknown command {command!r}")
    finally:
        if args.max_degree is not None:
            groebner.set_max_degree(None)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad arguments; that slot is reserved for
        # mathematical precondition failures.
        return 0 if exc.code in (0, None) else 1
    try:
        return run(args)
    except LimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DetsingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
