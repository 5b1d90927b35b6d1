"""Span tracing of detsing's public functions, installed from outside the package.

Each wrapped function records a span (name, start, end, parent, info) in an
in-memory list; per-layer metrics are computed from the list after a pass.
A function imported by name into several modules (``from .groebner import
dimension`` gives strata, report, invariants, genericity, cli and the
package their own references) is replaced in every module that binds it,
so calls through any of those names are seen.  ``Ideal.groebner_basis`` is
patched on the class, and wrapping ``groebner.buchberger`` also catches the
basis cache's own calls, because the cache looks the name up at call time.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# The public functions wrapped, per module: those the per-layer metrics
# name.  A function left unwrapped counts toward its caller's self time, so
# report.analyze_report.self_s is all report assembly outside the engine.
TARGETS = {
    "groebner": (
        "buchberger",
        "eliminate",
        "ideal_quotient",
        "saturation",
        "dimension",
        "support_is_origin_only",
        "colength",
    ),
    "detmodel": ("minors", "stratum"),
    "strata": ("singular_locus_ideal", "eids_check"),
    "genericity": ("slice_model", "hyperplane_screen"),
    "invariants": ("m0_colength", "whitney_report"),
    "report": ("analyze_report", "to_json"),
    "modelfile": ("load_model_file", "build_model"),
    "cli": ("main",),
}

NAME, START, END, PARENT, INFO = range(5)


def _basis_info(args, kwargs, result):
    """Content key of the input ideal and the largest degree in the basis."""
    source = args[0]
    default = sys.modules["detsing.groebner"].GREVLEX
    ordering = args[1] if len(args) > 1 else kwargs.get("ordering", default)
    gens = getattr(source, "generators", source)
    vars = getattr(source, "vars", None) or gens[0].vars
    content = tuple(sorted(tuple(sorted(g.terms.items())) for g in gens if not g.is_zero()))
    degree = max((g.total_degree() for g in result.elements), default=0)
    return (ordering, vars, content), degree


# Extra facts recorded on a span after a successful call.
INFO_OF = {
    "groebner.buchberger": _basis_info,
    "detmodel.minors": lambda args, kwargs, result: len(result),
    "strata.singular_locus_ideal": lambda args, kwargs, result: len(result.generators),
}


class Tracer:
    """Collects spans of wrapped calls; single-threaded, like detsing."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def reset(self):
        self.spans = []
        self._stack.clear()

    def wrap(self, name, fn):
        info = INFO_OF.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target in every loaded detsing module that binds it."""
        modules = [
            m for n, m in sys.modules.items() if n == "detsing" or n.startswith("detsing.")
        ]
        for modname, names in TARGETS.items():
            home = sys.modules[f"detsing.{modname}"]
            for fname in names:
                original = getattr(home, fname)
                wrapped = self.wrap(f"{modname}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
        ideal = sys.modules["detsing.groebner"].Ideal
        ideal.groebner_basis = self.wrap("groebner.Ideal.groebner_basis", ideal.groebner_basis)


# Per-layer metrics: name -> (unit, better).  Counts repeat exactly between
# runs of one seed; times do not.
LAYER_METRICS = {
    "groebner.buchberger.calls": ("count", "lower"),
    "groebner.buchberger.distinct": ("count", "lower"),
    "groebner.buchberger.reuse_ratio": ("ratio", "higher"),
    "groebner.buchberger.self_s": ("s", "lower"),
    "groebner.buchberger.max_degree": ("count", "lower"),
    "groebner.basis_cache.hits": ("count", "higher"),
    "groebner.basis_cache.misses": ("count", "lower"),
    "groebner.saturation.calls": ("count", "lower"),
    "groebner.saturation.total_s": ("s", "lower"),
    "groebner.saturation.bases": ("count", "lower"),
    "groebner.ideal_quotient.calls": ("count", "lower"),
    "groebner.eliminate.calls": ("count", "lower"),
    "groebner.dimension.calls": ("count", "lower"),
    "groebner.dimension.self_s": ("s", "lower"),
    "groebner.colength.self_s": ("s", "lower"),
    "groebner.support_is_origin_only.calls": ("count", "lower"),
    "groebner.support_is_origin_only.total_s": ("s", "lower"),
    "detmodel.stratum.calls": ("count", "lower"),
    "detmodel.minors.count": ("count", "lower"),
    "detmodel.minors.self_s": ("s", "lower"),
    "strata.eids_check.calls": ("count", "lower"),
    "strata.eids_check.total_s": ("s", "lower"),
    "strata.singular_locus_ideal.generators": ("count", "lower"),
    "strata.singular_locus_ideal.self_s": ("s", "lower"),
    "genericity.slice_model.calls": ("count", "lower"),
    "genericity.hyperplane_screen.total_s": ("s", "lower"),
    "invariants.whitney_report.total_s": ("s", "lower"),
    "invariants.m0_colength.calls": ("count", "lower"),
    "report.analyze_report.self_s": ("s", "lower"),
    "report.to_json.self_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "modelfile.load_model_file.total_s": ("s", "lower"),
    "modelfile.build_model.total_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_metrics(spans, clock):
    """Per-layer values of one traced pass, but for trace.wall_s and trace.overhead_s.

    ``clock`` maps a span's perf_counter() times to the times reported
    (the speed probe's reference-speed clock).  Self time is a span's duration minus the time its direct children
    cover; a total counts only spans not nested in a span of the same name,
    so recursion is not counted twice.
    """
    n = len(spans)
    duration = [clock(s[END]) - clock(s[START]) for s in spans]
    child = [0.0] * n
    under_saturation = [False] * n
    outermost = [True] * n
    names_above = [frozenset()] * n
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p < 0:
            continue
        child[p] += duration[i]
        names_above[i] = names_above[p] | {spans[p][NAME]}
        under_saturation[i] = "groebner.saturation" in names_above[i]
        outermost[i] = s[NAME] not in names_above[i]

    calls, self_s, total_s = {}, {}, {}
    for i, s in enumerate(spans):
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + duration[i] - child[i]
        if outermost[i]:
            total_s[name] = total_s.get(name, 0.0) + duration[i]

    def info(name):
        return [s[INFO] for s in spans if s[NAME] == name and s[INFO] is not None]

    bases = info("groebner.buchberger")
    basis_calls = calls.get("groebner.buchberger", 0)
    cached = "groebner.Ideal.groebner_basis"
    misses = {
        s[PARENT]
        for s in spans
        if s[NAME] == "groebner.buchberger" and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == cached
    }
    distinct = len({key for key, _ in bases})
    out = {
        "groebner.buchberger.calls": basis_calls,
        "groebner.buchberger.distinct": distinct,
        "groebner.buchberger.reuse_ratio": distinct / basis_calls if basis_calls else 0.0,
        "groebner.buchberger.max_degree": max((d for _, d in bases), default=0),
        "groebner.basis_cache.hits": calls.get(cached, 0) - len(misses),
        "groebner.basis_cache.misses": len(misses),
        "groebner.saturation.bases": sum(
            1
            for i, s in enumerate(spans)
            if s[NAME] == "groebner.buchberger" and under_saturation[i]
        ),
        "detmodel.minors.count": sum(info("detmodel.minors")),
        "strata.singular_locus_ideal.generators": sum(info("strata.singular_locus_ideal")),
        "trace.spans": len(spans),
    }
    for metric in LAYER_METRICS:
        if metric in out or metric.startswith("trace."):
            continue
        layer, measure = metric.rsplit(".", 1)
        if measure == "calls":
            out[metric] = calls.get(layer, 0)
        else:
            out[metric] = {"self_s": self_s, "total_s": total_s}[measure].get(layer, 0.0)
    return out
