"""Geometric verdicts: singular loci, transversality of the rank strata
off the origin, family scans, stable isolation, and the conormal fiber
gap.

Transversality is tested through the equivalent smooth-of-expected-
codimension condition (Jacobian criterion) on each stratum away from the
next deeper stratum; everything stays inside ideal arithmetic.  A
zero-dimensional stratum whose elements show it lies in the origin
passes without its non-smooth locus being built.  A non-smooth locus is
tested from its generators, then from Buchberger's input phase, and only
then from its reduced basis (``groebner._origin_certified``); the
saturation by the deeper stratum runs only when none of them shows by
itself that the locus lies in the origin.  The stratum's reduced basis comes back
from the engine in its packed integer form (see ``poly``), its Jacobian
is differentiated in that form, and the Jacobian minors stay in it from
the determinant to the basis engine: when the basis's layout holds the
minors' degree, no monomial is unpacked or packed on the way.
All checks are affine/global: supports and saturations are measured
over the whole coordinate space, which matches germ-at-origin semantics
for models whose interesting locus sits at the origin.
"""

from __future__ import annotations

from typing import NamedTuple

from .analysis import Analysis
from .detmodel import DeterminantalType, PresentationMatrix, _all_minors, minors
from .errors import DimensionMismatchError, LimitError, PreconditionError, ValidationError
from .groebner import (
    Ideal,
    _origin_certified,
    saturation,
    support_is_origin_only,
)


class StratumCheck(NamedTuple):
    index: int
    expected_dim: int
    actual_dim: int
    transversal_off_origin: bool
    witness: Ideal | None = None


class EidsVerdict(NamedTuple):
    strata: tuple
    overall: bool


def singular_locus_ideal(a: Ideal, codim: int) -> Ideal:
    """The stratum ideal plus the codim x codim minors of its Jacobian;
    its zero set is where the variety fails to be smooth of that
    codimension.

    Generators born packed (a reduced basis) are differentiated in their
    packed maps, so the Jacobian reaches ``detmodel._all_minors`` in the
    basis's layout and, when that layout holds the minors' degree, no
    monomial is packed; a zero derivative or minor is not packed."""
    if codim < 1:
        raise ValidationError("codimension must be at least 1")
    gens = a.generators
    names = a.vars.names
    if codim > len(gens) or codim > len(names):
        raise ValidationError(
            f"codimension {codim} exceeds generator or variable count"
        )
    jac = [[g.derivative(n) for n in names] for g in gens]
    return Ideal(list(gens) + _all_minors(jac, codim, a.vars), a.vars, a.max_degree)


def eids_check(m: PresentationMatrix | Analysis) -> EidsVerdict:
    """Per-stratum transversality off the origin.

    A present stratum passes when it has its expected dimension and the
    non-smooth locus, saturated by the next deeper stratum, is empty or
    supported at the origin only.  The dimension is the analysis's
    (``Analysis.dimension``, one ``groebner.dimension`` per stratum),
    which certifies most uncapped strata from their generators with no
    basis.  When elements of a zero-dimensional stratum show its zero set
    lies in the origin (see ``groebner._origin_certified``), so does that
    of its non-smooth locus, which contains the stratum's generators, and
    of every saturation of the locus: the stratum passes, with no
    witness, and no Jacobian, locus or saturation is built.  A stratum of
    positive dimension cannot lie in the origin, so it skips that test.
    Otherwise the same test runs on the locus, built on the stratum's
    reduced basis: on its generators, then on the interreduced
    generators of its Buchberger input phase, then on its reduced basis.
    A certified locus passes with no witness and no saturation, and one
    certified before its reduced basis has none built, so under a degree
    cap no S-pair of it can trip the cap.  A locus with more Jacobian
    minors than ``detmodel._all_minors`` allows raises LimitError
    prefixed with the stratum index.  A wrong-dimensional top stratum
    means the model is not determinantal of its declared type and raises
    DimensionMismatchError.  The strata come from the analysis given, or
    from a fresh one of a bare matrix.
    """
    a = Analysis.of(m)
    if not a.model.is_specialized():
        raise PreconditionError("eids check needs all family parameters specialized")
    t = a.model.dtype.t
    records = []
    for i in range(1, t + 1):
        s = a.stratum(i)
        if not s.present:
            continue
        actual = a.dimension(i)
        if actual != s.expected_dim:
            if i == t:
                raise DimensionMismatchError(
                    f"top stratum has dimension {actual}, expected "
                    f"{s.expected_dim}; not determinantal of the declared type"
                )
            records.append(
                StratumCheck(i, s.expected_dim, actual, False, s.ideal)
            )
            continue
        # The locus contains the stratum: V(locus) lies in V(stratum), so
        # a stratum certified at the origin certifies its locus.  Only a
        # zero-dimensional stratum can lie in the origin.
        if actual == 0 and _origin_certified(s.ideal):
            records.append(StratumCheck(i, s.expected_dim, actual, True))
            continue
        # Reduced bases as generators keep the Jacobian and the saturation lean.
        reduced = Ideal.from_basis(s.ideal.groebner_basis(), s.ideal.vars, s.ideal.max_degree)
        try:
            locus = off_deeper = singular_locus_ideal(reduced, s.expected_codim)
        except LimitError as exc:
            raise LimitError(f"stratum {i}: {exc}") from exc
        if _origin_certified(locus):
            records.append(StratumCheck(i, s.expected_dim, actual, True))
            continue
        if i > 1:
            off_deeper = saturation(locus, a.stratum(i - 1).ideal)
        ok = support_is_origin_only(off_deeper)
        records.append(
            StratumCheck(
                i, s.expected_dim, actual, ok, None if ok else off_deeper
            )
        )
    overall = all(r.transversal_off_origin for r in records)
    return EidsVerdict(tuple(records), overall)


class ScanRecord(NamedTuple):
    point: dict
    verdict: EidsVerdict | None
    error: str | None

    @property
    def passed(self):
        return self.error is None and self.verdict is not None and self.verdict.overall


def good_family_scan(m: PresentationMatrix | Analysis, samples):
    """Evidence scan: eids check at each parameter sample.

    A pass is evidence, not proof, that the family is good (transverse
    to the rank stratification off the origin near the parameter axis):
    the sampling is finite.  Samples that specialize to the same matrix
    share one member and its verdict.
    """
    a = Analysis.of(m)
    records = []
    for point in samples:
        member = a.member(point)
        try:
            records.append(ScanRecord(dict(point), member.eids(), None))
        except DimensionMismatchError as exc:
            records.append(ScanRecord(dict(point), None, str(exc)))
    return records


def stably_isolated_check(m: PresentationMatrix | Analysis, i: int) -> bool:
    """Stabilization has only isolated singularities on stratum i: the
    ambient dimension must equal the codimension of the next deeper rank
    locus and that locus must be confined to the origin.  The deeper
    locus has the analysis's degree cap, and is the analysis's stratum
    i + 1 when the type has one."""
    a = Analysis.of(m)
    m = a.model
    if not m.is_specialized():
        raise PreconditionError("check needs all family parameters specialized")
    if i < 1:
        raise ValidationError("stratum index must be positive")
    n = m.dtype.n
    if i >= n:
        raise PreconditionError(f"no deeper stratum beyond i={i} for n={n}")
    deeper_codim = (n - i) * (n + m.dtype.k - i)
    if m.q != deeper_codim:
        return False
    if i + 1 <= m.dtype.t:
        return support_is_origin_only(a.stratum(i + 1).ideal)
    return support_is_origin_only(Ideal(minors(m, i + 1), m.vars, a.max_degree))


def conormal_fiber_gap(dtype: DeterminantalType) -> int:
    """Drop from the conormal dimension to its fiber dimension at the
    origin, k + 1, valid under the stably-isolated hypothesis (the
    caller reports whether that hypothesis was verified)."""
    return dtype.k + 1
