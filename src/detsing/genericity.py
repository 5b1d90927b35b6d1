"""Hyperplane sections: hyperplanes, a necessary-condition screen for
candidate hyperplanes, and section-invariant comparison.  The section of
a model, ``slice_model``, lives in ``detmodel`` beside
``PresentationMatrix.specialize`` and is re-exported here.

The screen can only reject; it never certifies genericity (membership in
the set of limiting tangent hyperplanes is out of computational reach).
A hyperplane fails the screen when

  * the sliced model fails the transversality/dimension checks, or
  * a present sliced stratum has the wrong dimension, or
  * a zero-dimensional stratum scheme of the original model is truncated
    by the section: its sliced ideal must stay supported at the origin
    with the same colength, since that colength is part of the
    invariant data the section is supposed to carry.  One colength call
    tests both, as it raises PreconditionError off the origin.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple

from .analysis import Analysis
from .detmodel import PresentationMatrix, slice_model
from .errors import (
    DimensionMismatchError,
    PreconditionError,
    ValidationError,
)
from .groebner import is_unit_ideal
from .invariants import build_euler_system, invariant_vector, solve_for_m
from .poly import Polynomial, VariableSet, poly_to_str
from .strata import eids_check


class Hyperplane(namedtuple("Hyperplane", ("coefficients",))):
    """A linear form through the origin, up to scale: stored normalized
    so the first nonzero coefficient is 1."""

    __slots__ = ()

    def __new__(cls, coefficients):
        coeffs = tuple(Fraction(c) for c in coefficients)
        pivot = next((i for i, c in enumerate(coeffs) if c != 0), None)
        if pivot is None:
            raise ValidationError("hyperplane coefficients must not all vanish")
        scale = coeffs[pivot]
        return super().__new__(cls, tuple(c / scale for c in coeffs))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def pivot(self):
        return next(i for i, c in enumerate(self.coefficients) if c != 0)

    @staticmethod
    def from_linear_form(p: Polynomial, vars: VariableSet):
        """Extract coefficients from a homogeneous linear polynomial in
        the ambient variables."""
        coeffs = [Fraction(0)] * len(vars.ambient)
        for mono, c in p.terms.items():
            if sum(mono) != 1:
                raise ValidationError("hyperplane form must be homogeneous linear")
            j = mono.index(1)
            if j >= len(vars.ambient):
                raise ValidationError("hyperplane form must use ambient variables only")
            coeffs[j] = c
        return Hyperplane(tuple(coeffs))

    def as_string(self, vars: VariableSet):
        p = Polynomial.zero(vars)
        for j, c in enumerate(self.coefficients):
            if c:
                p = p + Polynomial.variable(vars, vars.ambient[j]).scale(c)
        return poly_to_str(p)


class ScreenVerdict(NamedTuple):
    hyperplane: Hyperplane
    passed: bool
    reasons: tuple

    def __bool__(self):
        return self.passed


def hyperplane_screen(m: PresentationMatrix | Analysis, h: Hyperplane) -> ScreenVerdict:
    """Necessary-condition screen; pass does not certify genericity."""
    a = Analysis.of(m)
    if not a.model.is_specialized():
        raise PreconditionError("screen needs all family parameters specialized")
    section = a.section(h)
    reasons = []
    try:
        verdict = eids_check(section)
        if not verdict.overall:
            bad = [r.index for r in verdict.strata if not r.transversal_off_origin]
            reasons.append(
                "sliced model fails transversality or dimension checks on "
                f"strata {bad}"
            )
    except DimensionMismatchError as exc:
        reasons.append(f"sliced model dimension mismatch: {exc}")
    for i in range(1, a.model.dtype.t + 1):
        if a.stratum(i).expected_dim != 0:
            continue
        if is_unit_ideal(section.stratum(i).ideal):
            continue
        try:
            sliced_colength = section.colength(i)
        except PreconditionError:
            reasons.append(
                f"section of zero-dimensional stratum {i} extends beyond the origin"
            )
            continue
        try:
            original_colength = a.colength(i)
        except PreconditionError:
            reasons.append(
                f"zero-dimensional stratum {i} of the model is not supported "
                "at the origin; cannot screen its section"
            )
            continue
        if sliced_colength != original_colength:
            reasons.append(
                f"hyperplane truncates the zero-dimensional stratum {i} "
                f"scheme: colength {original_colength} -> {sliced_colength}"
            )
    return ScreenVerdict(h, not reasons, tuple(reasons))


class SectionInvariants(NamedTuple):
    hyperplane: Hyperplane
    screen: ScreenVerdict
    dims: tuple
    colengths: dict
    mvector: dict | None
    minimal: bool = False

    vector = invariant_vector


def section_invariant_compare(m: PresentationMatrix | Analysis, hyperplanes, euler_data=None):
    """Per-hyperplane section invariants, with the screen verdicts.

    Among hyperplanes passing the screen, those whose invariant vector
    attains the componentwise minimum are marked; flagged hyperplanes
    are still reported but excluded from the comparison.  This compares
    computable proxies for the topological minimality of sections, not
    the section Euler characteristics themselves.  Each section is
    sliced and analyzed once, shared with its screen.
    """
    a = Analysis.of(m)
    hyperplanes = list(hyperplanes)
    if not hyperplanes:
        raise PreconditionError("need at least one hyperplane to compare")
    if euler_data is not None and len(euler_data) != len(hyperplanes):
        raise ValidationError("per-section chi data does not match the list")
    rows = []
    for idx, h in enumerate(hyperplanes):
        screen = hyperplane_screen(a, h)
        section = a.section(h)
        sys = None
        try:
            sys = build_euler_system(section.model)
        except PreconditionError:
            pass
        dims = []
        cols = {}
        if sys is not None:
            for j, d in zip(sys.strata, sys.dims):
                dims.append(section.dimension(j))
                if d == 0:
                    try:
                        cols[j] = section.colength(j)
                    except PreconditionError:
                        pass
        mvec = None
        if (
            sys is not None
            and euler_data is not None
            and euler_data[idx] is not None
        ):
            mvec = solve_for_m(sys, euler_data[idx], cols)
        rows.append(SectionInvariants(h, screen, tuple(dims), cols, mvec))
    passing = [pos for pos, r in enumerate(rows) if r.screen.passed]
    vectors = [rows[pos].vector() for pos in passing]
    if vectors and all(_vector_shape(v) == _vector_shape(vectors[0]) for v in vectors):
        flat = [_flatten(v) for v in vectors]
        floor = [min(col) for col in zip(*flat)]
        for pos, f in zip(passing, flat):
            if f == floor:
                rows[pos] = rows[pos]._replace(minimal=True)
    return rows


def _vector_shape(v):
    dims, cols, mv = v
    return (len(dims), tuple(k for k, _ in cols), None if mv is None else tuple(k for k, _ in mv))


def _flatten(v):
    dims, cols, mv = v
    out = list(dims) + [c for _, c in cols]
    if mv is not None:
        out += [c for _, c in mv]
    return out
