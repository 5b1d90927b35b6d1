"""Command-line front end.

Commands: analyze, minors, dim, colength, eids-check, euler-solve,
slice, screen-hyperplanes, family-scan, consistency.  Reports are
human-readable text or a structured JSON tree (--format structured).

Exit codes: 0 success, 1 validation error, 2 mathematical precondition
failure, 3 internal limit (the basis degree cap, the standard-monomial
cap or the minor-count cap).
"""

from __future__ import annotations

import argparse
import functools
import sys

from .analysis import Analysis
from .detmodel import minors as compute_minors
from .errors import (
    DetsingError,
    LimitError,
    PreconditionError,
    ValidationError,
)
from .genericity import Hyperplane
from .invariants import build_euler_system, m0_colength, mvector
from .modelfile import build_model, format_model, load_model_file
from .poly import GREVLEX, LEX, parse_polynomial, poly_to_str
from .report import (
    analyze_report,
    base_report,
    computed,
    consistency_section,
    eids_section,
    euler_system_echo,
    family_section,
    genericity_section,
    mvector_echo,
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


@functools.cache
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
    for name, (_, help_text, _) in VIEWS.items():
        _add_common(sub.add_parser(name, help=help_text))
    sub.choices["minors"].add_argument("--size", type=int, required=True)
    for name in ("dim", "colength"):
        sub.choices[name].add_argument("--stratum", type=int, required=True)
    sub.choices["slice"].add_argument(
        "--hyperplane", required=True, help="linear form, e.g. 'x3 - 2*x1'"
    )
    sub.choices["screen-hyperplanes"].add_argument(
        "--hyperplane",
        action="append",
        default=None,
        help="screen this form instead of the [hyperplanes] section (repeatable)",
    )
    return parser


def _ordering(args):
    return GREVLEX if args.ordering == "grevlex" else LEX


# Command views: each reads one Analysis and returns the fields its report
# carries between the model echo and the warnings.


def _analyze(a, mf, args, warnings):
    return analyze_report(a, mf, warnings, _ordering(args))


def _minors(a, mf, args, warnings):
    values = compute_minors(a.model, args.size)
    return {"size": args.size, "minors": [poly_to_str(p) for p in values]}


def _dim(a, mf, args, warnings):
    return {
        "stratum": args.stratum,
        "expected_dim": a.stratum(args.stratum).expected_dim,
        "dimension": computed(a.dimension(args.stratum)),
    }


def _colength(a, mf, args, warnings):
    return {"stratum": args.stratum, "colength": computed(m0_colength(a, args.stratum))}


def _eids_check(a, mf, args, warnings):
    return {"strata": strata_section(a, _ordering(args)), "eids": eids_section(a, warnings)}


def _euler_solve(a, mf, args, warnings):
    sys_ = build_euler_system(a.model)
    chi = mf.chi_data()
    mvec = mvector(a, chi)
    if chi:
        warnings.append("multiplicity vector uses user-supplied Euler characteristics")
    return {"euler_system": euler_system_echo(sys_), **mvector_echo(sys_, mvec)}


def _slice(a, mf, args, warnings):
    vars = a.model.vars
    h = Hyperplane.from_linear_form(parse_polynomial(args.hyperplane, vars), vars)
    return {"hyperplane": h.as_string(vars), "sliced_model": format_model(a.section(h).model)}


def _screen_hyperplanes(a, mf, args, warnings):
    if args.hyperplane:  # forms from arguments have no line in the file
        mf = mf._replace(hyperplanes=tuple(args.hyperplane), hyperplane_lines=())
    if not mf.hyperplanes:
        raise ValidationError("no hyperplanes: add a [hyperplanes] section or --hyperplane")
    return {"genericity": genericity_section(a, mf, warnings)}


def _family_scan(a, mf, args, warnings):
    if not mf.samples:
        raise ValidationError("model file has no [samples] section")
    return {"family_scan": family_section(a, mf, warnings)}


def _consistency(a, mf, args, warnings):
    if not mf.supplied:
        raise ValidationError("model file has no [supplied] section")
    return {"consistency": consistency_section(a, mf, warnings)}


# command -> (view, help, whether it needs a model without free parameters)
VIEWS = {
    "analyze": (_analyze, "full pipeline report", False),
    "minors": (_minors, "list the s x s minors", False),
    "dim": (_dim, "dimension of one stratum", True),
    "colength": (_colength, "colength of a zero-dimensional stratum", True),
    "eids-check": (_eids_check, "transversality off the origin", True),
    "euler-solve": (_euler_solve, "solve the Euler system for the m-vector", True),
    "slice": (_slice, "hyperplane section as a new model file", False),
    "screen-hyperplanes": (_screen_hyperplanes, "screen the [hyperplanes] section", True),
    "family-scan": (_family_scan, "per-sample transversality and constancy", False),
    "consistency": (_consistency, "check e_pair + polar = m over [supplied]", False),
}


def run(args) -> int:
    mf = load_model_file(args.model)
    model = build_model(mf)
    view, _, needs_specialized = VIEWS[args.command]
    if needs_specialized and not model.is_specialized():
        raise PreconditionError("this command needs a specialized model (no free parameters)")
    warnings = []
    report = base_report(args.command, model)
    report.update(view(Analysis(model, args.max_degree), mf, args, warnings))
    report["warnings"] = warnings
    if args.format == "structured":
        sys.stdout.write(to_json(report))
    elif args.command == "slice":  # the text form is the model file itself
        sys.stdout.write(report["sliced_model"])
    else:
        sys.stdout.write(render_text(report))
    return 0


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
    except (DetsingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, LimitError):
            return 3
        return 1 if isinstance(exc, (ValidationError, OSError)) else 2

if __name__ == "__main__":
    raise SystemExit(main())
