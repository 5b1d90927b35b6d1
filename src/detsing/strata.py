"""Geometric verdicts: singular loci, transversality of the rank strata
off the origin, family scans, stable isolation, and the conormal fiber
gap.

Transversality is tested through the equivalent smooth-of-expected-
codimension condition (Jacobian criterion) on each stratum away from the
next deeper stratum; everything stays inside ideal arithmetic.  A
zero-dimensional stratum whose elements show it lies in the origin
passes without its non-smooth locus being built.  A non-smooth locus is
tested first from a few of its elements, before it is built: the
stratum's reduced basis and one witness Jacobian minor of that basis per
variable, each led by a pure power of that variable (for a generic
matrix the non-smooth locus of stratum 2 is the origin, and each witness
is ±z^codim).  Then the locus is built on the stratum's own minors and
tested from its generators, then from Buchberger's input phase, and
only then from its reduced basis (``groebner._origin_certified``); the
saturation by the deeper stratum runs only when none of them shows by
itself that the locus lies in the origin.  The locus ideal I + I_c(Jac G)
does not depend on the generators G of I (it is the preimage of a
Fitting ideal of the module of differentials), so the witnesses, read
from the basis, and the built locus, from the minors, are elements of
one ideal.  Minors and reduced bases are in packed integer form (see
``poly``), their Jacobians are differentiated in that form, and the
Jacobian minors stay in it from the determinant to the basis engine:
when the layout holds the minors' degree, no monomial is unpacked or
packed on the way.  All checks are affine/global: supports and
saturations are measured over the whole coordinate space, which matches
germ-at-origin semantics for models whose interesting locus sits at the
origin.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .analysis import Analysis
from .detmodel import _MINOR_CAP, DeterminantalType, PresentationMatrix, _all_minors, minors
from .errors import DimensionMismatchError, LimitError, PreconditionError, ValidationError
from .groebner import (
    Ideal,
    _certify_step,
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

    Its generators follow those of a, but the ideal does not: any two
    generating sets of a give the same ideal (the preimage of a Fitting
    ideal of the module of differentials).  ``eids_check`` builds it on
    the stratum's minors, and only when a few elements of the locus
    built on the stratum's reduced basis, formed first, do not settle
    the stratum (``_witnesses_certify``: single minors of that basis's
    Jacobian).

    Generators born packed (minors, or a reduced basis) are
    differentiated in their packed maps, so the Jacobian reaches
    ``detmodel._all_minors`` in their layout and, when that layout holds
    the minors' degree, no monomial is packed; a zero derivative or
    minor is not packed."""
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


def _witnesses_certify(a: Ideal, codim: int) -> bool:
    """True when a few generators of ``singular_locus_ideal(a, codim)``
    prove that its zero set lies in the origin, with the locus not built.
    Each is one :func:`groebner._certify_step`: first a's generators,
    then one Jacobian minor for each variable x_j not yet covered, last
    variable first.  In grevlex a pure power of the last variable leads
    only a one-term element, so a miss tends to show at once.

    The minor's rows and columns are a matching of size codim (Kuhn's
    augmenting paths, rows and columns in increasing order) along
    entries with a term x_j^d, d > 0: the entry in row r, column c has
    one when generator r has the term x_j^d·x_c.  Only homogeneous
    generators give rows, so that the minor is homogeneous, as the
    step needs.  Rows and columns sorted, the minor is the locus
    generator at that position.  The first variable its minor leaves
    uncovered ends the step with False.  Every element stepped is an
    element of the same locus ideal as ``singular_locus_ideal`` of the
    stratum's minors, so the step certifies only a locus whose zero set
    lies in the origin.

    It runs only with no degree cap on a, and when the locus's minor
    count is within ``detmodel._MINOR_CAP``, the cap that
    ``singular_locus_ideal`` meets, so a capped or
    oversized locus is left to ``singular_locus_ideal`` as before.  It
    forms at most one minor per variable, each in its own call, and a
    call costs about as much as ten small minors formed together, so it
    also runs only when the locus has more than ten minors per
    variable."""
    gens = a.generators
    width = len(a.vars)
    count = comb(len(gens), codim) * comb(width, codim)
    if a.max_degree is not None or not 10 * width < count <= _MINOR_CAP:
        return False
    # A reduced basis is born packed in grevlex, and so are its nonzero
    # derivatives and their minors.
    powers = set()
    if any(_certify_step(powers, g._packed, g._packing) for g in gens):
        return True
    edges = {}  # edges[j][r]: the columns c where generator r has x_j^d·x_c
    for r, g in enumerate(gens):
        packing = g._packing
        if packing.degree(min(g._packed)) != packing.degree(max(g._packed)):
            continue
        for m in g._packed:
            e = packing.unpack(m)
            support = [i for i, x in enumerate(e) if x]
            if len(support) == 1 and e[support[0]] > 1:
                pairs = [(support[0], support[0])]
            elif len(support) == 2:
                pairs = [(j, c) for j, c in (support, support[::-1]) if e[c] == 1]
            else:
                continue
            for j, c in pairs:
                edges.setdefault(j, {}).setdefault(r, set()).add(c)
    names = a.vars.names
    for j in reversed(range(width)):
        if j in powers:
            continue
        match = _matching(edges.get(j, {}), codim)
        if match is None:
            return False
        rows, cols = sorted(match.values()), sorted(match)
        grid = [[gens[r].derivative(names[c]) for c in cols] for r in rows]
        witness = _all_minors(grid, codim, a.vars)[0]
        if witness and _certify_step(powers, witness._packed, witness._packing):
            return True
        if j not in powers:
            return False
    return False


def _matching(adj, size):
    """A matching of ``size`` rows to distinct columns along ``adj`` (row
    -> columns), as column -> row, or None when there is none: Kuhn's
    augmenting paths, rows and columns tried in increasing order."""
    owner = {}
    if len(adj) >= size:
        for r in sorted(adj):
            if _augment(adj, owner, r, set()) and len(owner) == size:
                return owner
    return None


def _augment(adj, owner, r, seen):
    """Match row r along an augmenting path, moving matched rows in
    ``owner`` to other columns.  A module-level function, not a closure
    that calls itself, so no reference cycle outlives the call."""
    for c in sorted(adj[r]):
        if c not in seen:
            seen.add(c)
            if c not in owner or _augment(adj, owner, owner[c], seen):
                owner[c] = r
                return True
    return False


def eids_check(m: PresentationMatrix | Analysis) -> EidsVerdict:
    """Per-stratum transversality off the origin, the one entry to the
    EIDS verdict.  The verdict, or the ``DetsingError`` it raised, is kept
    on the analysis (``Analysis.once``, key ``"eids"``), so a second call
    on the same analysis reads it.  The strata come from the analysis
    given, or from a fresh one of a bare matrix.

    A present stratum passes when it has its expected dimension and the
    non-smooth locus, saturated by the next deeper stratum, is empty or
    supported at the origin only.  The dimension is the analysis's
    (``Analysis.dimension``, one ``groebner.dimension`` per stratum),
    which certifies most uncapped strata from their generators with no
    basis.  A wrong-dimensional top stratum means the model is not
    determinantal of its declared type and raises DimensionMismatchError;
    any other wrong-dimensional stratum fails with its ideal as witness.
    A stratum of the expected dimension goes through
    :func:`_failing_witness`.
    """
    a = Analysis.of(m)
    return a.once("eids", lambda: _eids_verdict(a))


def _eids_verdict(a: Analysis) -> EidsVerdict:
    """The body of :func:`eids_check`, run once per analysis."""
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
            witness = s.ideal
        else:
            witness = _failing_witness(a, i)
        records.append(StratumCheck(i, s.expected_dim, actual, witness is None, witness))
    overall = all(r.transversal_off_origin for r in records)
    return EidsVerdict(tuple(records), overall)


def _failing_witness(a: Analysis, i: int) -> Ideal | None:
    """None when stratum i, of its expected dimension, is smooth off the
    origin and stratum i - 1; else the ideal whose support shows it is
    not.  Each rung settles the stratum or passes it on, cheapest first:

    1. A zero-dimensional stratum certified at the origin
       (``groebner._origin_certified``) passes: its non-smooth locus
       contains its generators, so the locus and every saturation of it
       lie in the origin too, and no Jacobian, locus or saturation is
       built.  A stratum of positive dimension cannot lie in the origin,
       so it skips this rung.
    2. With no degree cap and a locus within the minor cap, a few
       elements of the locus, with the locus not built: the stratum's
       reduced basis and one minor per variable of that basis's
       Jacobian (:func:`_witnesses_certify`).  They lie in the ideal
       that rung 3 builds, so they certify only a locus that lies in
       the origin.
    3. The locus is built on the stratum's own minors
       (:func:`singular_locus_ideal`); the reduced basis feeds only rung
       2.  More Jacobian minors than ``detmodel._all_minors`` allows
       raise LimitError prefixed with the stratum index.
    4. For i > 1, the built locus certified at the origin from its
       generators, then from the interreduced generators of its
       Buchberger input phase, then from its reduced basis, passes with
       no saturation; one certified before its reduced basis has none
       built, so under a degree cap no S-pair of it can trip the cap.
       Otherwise the locus is saturated by stratum i - 1.
    5. The locus (for i = 1, whose first rung is that same certificate)
       or its saturation passes when ``support_is_origin_only`` holds,
       and is the witness otherwise.
    """
    s = a.stratum(i)
    if s.expected_dim == 0 and _origin_certified(s.ideal):
        return None
    reduced = Ideal.from_basis(s.ideal.groebner_basis(), s.ideal.vars, s.ideal.max_degree)
    if _witnesses_certify(reduced, s.expected_codim):
        return None
    try:
        locus = singular_locus_ideal(s.ideal, s.expected_codim)
    except LimitError as exc:
        raise LimitError(f"stratum {i}: {exc}") from exc
    if i > 1:
        if _origin_certified(locus):
            return None
        locus = saturation(locus, a.stratum(i - 1).ideal)
    return None if support_is_origin_only(locus) else locus


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
            records.append(ScanRecord(dict(point), eids_check(member), None))
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
    if m.q != m.dtype.expected_codim(i + 1):
        return False
    if i + 1 <= m.dtype.t:
        return support_is_origin_only(a.stratum(i + 1).ideal)
    return support_is_origin_only(Ideal(minors(m, i + 1), m.vars, a.max_degree))


def conormal_fiber_gap(dtype: DeterminantalType) -> int:
    """Drop from the conormal dimension to its fiber dimension at the
    origin, k + 1, valid under the stably-isolated hypothesis (the
    caller reports whether that hypothesis was verified)."""
    return dtype.k + 1
