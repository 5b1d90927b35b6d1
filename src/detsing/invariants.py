"""Numerical invariants: index coefficients, colengths, the triangular
Euler-characteristic system, polar-term vanishing rules, the consistency
identity, and family constancy reports.

Convention: the system is stored with unreduced Euler characteristics;
reduced inputs are converted at the boundary (chi = 1 + reduced chi).
Zero-dimensional strata enter as constants (their colengths), not as
unknowns.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .analysis import Analysis
from .detmodel import DeterminantalType, PresentationMatrix
from .errors import (
    InconsistentDataError,
    PreconditionError,
    ValidationError,
)
from .strata import good_family_scan


def nit_coefficient(n: int, k: int, t: int, i: int) -> int:
    """Signed binomial coefficient in the index formula relating radial
    and critical-point indices across the rank strata."""
    if not 1 <= i <= t <= n:
        raise ValidationError(f"need 1 <= i <= t <= n, got i={i}, t={t}, n={n}")
    sign = -1 if (k * (t - i)) % 2 else 1
    return sign * comb(n - i, n - t)


class ChiData(NamedTuple):
    """Euler characteristics for one positive-dimensional stratum:
    the stabilization and its generic hyperplane section (unreduced)."""

    chi_stab: int
    chi_section: int

    @staticmethod
    def from_input(chi_stab, chi_section, reduced=False):
        if reduced:
            return ChiData(1 + chi_stab, 1 + chi_section)
        return ChiData(chi_stab, chi_section)


class EulerSystem(NamedTuple):
    """Unit-diagonal lower-triangular system over the present strata.

    Row j encodes: (-1)^dim chi(stab) + (-1)^(dim-1) chi(section) =
    sum over admitted i <= j of coefficient[j][i] * m_i.
    """

    strata: tuple  # present stratum indices, ascending
    dims: tuple  # their expected dimensions
    matrix: tuple  # rows of coefficients aligned with `strata`

    def row(self, j):
        return self.matrix[self.strata.index(j)]

    def zero_dim_strata(self):
        return tuple(s for s, d in zip(self.strata, self.dims) if d == 0)


def build_euler_system_for_type(dtype: DeterminantalType, q: int) -> EulerSystem:
    present = [
        i for i in range(1, dtype.t + 1) if dtype.expected_dim(i, q) >= 0
    ]
    if not present:
        raise PreconditionError("no present strata; the system is empty")
    dims = [dtype.expected_dim(i, q) for i in present]
    rows = []
    for j in present:
        row = []
        for i in present:
            if i > j:
                row.append(0)
            else:
                row.append(nit_coefficient(dtype.n, dtype.k, j, i))
        rows.append(tuple(row))
    return EulerSystem(tuple(present), tuple(dims), tuple(rows))


def build_euler_system(m: PresentationMatrix) -> EulerSystem:
    """System rows for the present strata of a model; the lowest admitted
    stratum's row has a single term (its stabilization is a smoothing)."""
    return build_euler_system_for_type(m.dtype, m.q)


def solve_from_lhs(sys: EulerSystem, lhs) -> dict:
    """Forward substitution through the unit-diagonal triangle."""
    if len(lhs) != len(sys.strata):
        raise ValidationError("left-hand side length does not match the system")
    m = {}
    for pos, j in enumerate(sys.strata):
        acc = lhs[pos]
        for pos2, i in enumerate(sys.strata[:pos]):
            acc -= sys.matrix[pos][pos2] * m[i]
        m[j] = acc
    return m


def solve_for_m(sys: EulerSystem, data: dict, colengths: dict) -> dict:
    """Solve for the polar multiplicities.

    ``data`` maps positive-dimensional present strata to ChiData;
    ``colengths`` maps zero-dimensional present strata to their
    colengths (these are fixed values, not unknowns).  Solved values
    must be non-negative; a negative value flags inconsistent input.
    """
    lhs = []
    for j, d in zip(sys.strata, sys.dims):
        if d == 0:
            if j not in colengths:
                raise PreconditionError(
                    f"zero-dimensional stratum {j} needs its colength"
                )
            if j in data:
                raise ValidationError(
                    f"stratum {j} is zero-dimensional and carries no chi data"
                )
            lhs.append(colengths[j])
        else:
            if j not in data:
                raise PreconditionError(
                    f"missing Euler characteristics for stratum {j}"
                )
            chi = data[j]
            sign = 1 if d % 2 == 0 else -1
            lhs.append(sign * chi.chi_stab - sign * chi.chi_section)
    m = solve_from_lhs(sys, lhs)
    for j, value in m.items():
        if value < 0:
            raise InconsistentDataError(
                f"solved multiplicity m[{j}] = {value} is negative; the "
                "supplied data is inconsistent"
            )
    return m


def solve_for_chi_diffs(sys: EulerSystem, m: dict):
    """Left-hand sides realized by a multiplicity vector (matrix times
    vector); round-trips with solve_from_lhs."""
    out = []
    for pos in range(len(sys.strata)):
        acc = 0
        for pos2, i in enumerate(sys.strata[: pos + 1]):
            acc += sys.matrix[pos][pos2] * m[i]
        out.append(acc)
    return out


def m0_colength(m: PresentationMatrix | Analysis, i: int) -> int:
    """Colength of a zero-dimensional stratum: the number of points of
    that singularity type on a generic fiber of the stabilization."""
    a = Analysis.of(m)
    s = a.stratum(i)
    if s.expected_dim != 0:
        raise PreconditionError(
            f"stratum {i} has expected dimension {s.expected_dim}, not 0"
        )
    return a.colength(i)


def mvector(m: PresentationMatrix | Analysis, chi) -> dict:
    """The model's Euler system solved with ``chi`` (stratum -> ChiData)
    and the colengths of its zero-dimensional strata, kept on the
    analysis per ``chi``."""
    a = Analysis.of(m)

    def solve():
        sys = build_euler_system(a.model)
        cols = {j: m0_colength(a, j) for j in sys.zero_dim_strata()}
        return solve_for_m(sys, chi, cols)

    return a.once(("mvector", tuple(sorted(chi.items()))), solve)


def polar_term_bound(dtype: DeterminantalType, q: int, i: int):
    """0 when the polar intersection number must vanish, None when the
    rule says nothing (the caller may supply a value)."""
    if not 1 <= i <= dtype.t:
        raise ValidationError(f"stratum index {i} outside 1..{dtype.t}")
    if q >= dtype.n * (dtype.n + dtype.k):
        return 0
    if dtype.n == 2 and dtype.k == 1 and i == 2 and q >= 5:
        return 0
    return None


def md_consistency(e_pair: int, polar_term: int, m_d: int) -> bool:
    """Bookkeeping identity over user-supplied terms: the pair
    multiplicity plus the polar intersection number equals m_d."""
    return e_pair + polar_term == m_d


def invariant_vector(record):
    """Dims, colengths and m-vector of a sample or a section, in order."""
    mv = tuple(sorted(record.mvector.items())) if record.mvector is not None else None
    return (record.dims, tuple(sorted(record.colengths.items())), mv)


class SampleInvariants(NamedTuple):
    point: dict
    dims: tuple
    colengths: dict  # stratum -> colength of the origin component
    mvector: dict | None

    vector = invariant_vector


class WhitneyReport(NamedTuple):
    reliable: bool
    scan: tuple
    samples: tuple
    constant: bool | None
    verdict: str
    warnings: tuple


def whitney_report(
    m: PresentationMatrix | Analysis, samples, euler_data=None
) -> WhitneyReport:
    """Constancy scan of the computable invariants across a family.

    Per sample: stratum dimensions, origin colengths of the strata
    expected and found zero-dimensional (or empty), and the solved
    multiplicity vector when chi data is supplied and every dimension is
    the expected one.  The verdict states only that the necessary
    conditions hold; pair multiplicities and polar terms are never
    computed here, so sufficiency is never claimed.  Each distinct
    member is built and reduced once, shared with the scan.
    """
    a = Analysis.of(m)
    if euler_data is not None and len(euler_data) != len(samples):
        raise ValidationError("per-sample chi data does not match the sample list")
    warnings = [
        "pair multiplicities e(JM, N) and polar intersection numbers are "
        "not computed; the verdict covers necessary conditions only"
    ]
    scan = good_family_scan(a, samples)
    reliable = bool(scan) and all(r.passed for r in scan)
    if samples and not reliable:
        warnings.append(
            "good-family scan failed on at least one sample; the report is unreliable"
        )
    sys = build_euler_system(a.model) if samples else None
    rows = []
    for idx, point in enumerate(samples):
        member = a.member(point)
        dims = []
        cols = {}
        for j, d in zip(sys.strata, sys.dims):
            dims.append(member.dimension(j))
            if d == 0 and dims[-1] <= 0:
                cols[j] = member.origin_colength(j)
        chi = euler_data[idx] if euler_data is not None else None
        mvec = None
        if chi is not None and tuple(dims) == sys.dims:
            mvec = solve_for_m(sys, chi, cols)
        rows.append(SampleInvariants(dict(point), tuple(dims), cols, mvec))
    if not rows:
        return WhitneyReport(
            reliable, tuple(scan), (), None, "empty sample list", tuple(warnings)
        )
    constant = all(r.vector() == rows[0].vector() for r in rows)
    if constant:
        verdict = (
            "necessary conditions for Whitney equisingularity hold across samples"
        )
    else:
        verdict = "invariants vary across samples; the family is not equisingular"
    return WhitneyReport(
        reliable, tuple(scan), tuple(rows), constant, verdict, tuple(warnings)
    )
