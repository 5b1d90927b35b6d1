"""Determinantal models: presentation matrices, their family members and
hyperplane sections, rank-strata ideals via minors, expected dimensions,
and the Jacobian and deformation-module generators, each a grid (a tuple
of rows of polynomials) as :func:`_all_minors` reads it, tied together by
the chain rule.

Matrices are stored in the orientation they are written in; the type
normalizes to n = min(rows, cols) and row excess k = |rows - cols|, so a
model may be entered either as (n+k) x n or as its transpose (the minor
ideals agree).

Every determinant in the package comes from one routine,
:func:`_all_minors`, which returns all minors of one size of a polynomial
grid.  It works fraction-free on integer polynomials with monomials
packed as the Groebner engine packs them for grevlex, and builds the
minors as wedge products of rows, each smaller nonzero minor formed once
and shared by every larger minor that contains it, and no zero minor
multiplied; the results are exact polynomials in packed integer form
(see ``poly``), equal term for term to a cofactor expansion, which the
engine takes as they are.  It raises LimitError, before forming any
minor, when asked for more than ``_MINOR_CAP`` (10**7) of them.  The
strata ideals (:func:`minors`), the singular loci of
``strata.singular_locus_ideal`` and the deformation generators
(:func:`n_generators`) all use it.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from math import comb, lcm, prod
from typing import NamedTuple

from .errors import LimitError, PreconditionError, ValidationError, VariableSetMismatchError
from .groebner import Ideal, _Packing, _packed_forms
from .poly import GREVLEX, Polynomial, VariableSet, _PackedPolynomial

# The most minors one _all_minors call forms; past it, LimitError.
_MINOR_CAP = 10**7


class DeterminantalType(namedtuple("DeterminantalType", ("n", "k", "t"))):
    """Type (n+k, n, t): n the smaller matrix dimension, k the excess,
    t the minor size cutting out the variety."""

    __slots__ = ()

    def __new__(cls, n, k, t):
        if n < 1 or k < 0:
            raise ValidationError("need n >= 1 and k >= 0")
        if not 1 <= t <= n:
            raise ValidationError(f"stratum cutoff t={t} outside 1..{n}")
        return super().__new__(cls, n, k, t)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def expected_codim(self, i):
        """Codimension of the rank < i locus in matrix space."""
        if not 1 <= i <= self.n:
            raise ValidationError(f"stratum index {i} outside 1..{self.n}")
        return (self.n - i + 1) * (self.n + self.k - i + 1)

    def expected_dim(self, i, q):
        return q - self.expected_codim(i)


class PresentationMatrix:
    """A polynomial matrix presenting a determinantal variety.

    Entries live over one variable set: q ambient coordinates plus
    optional family parameters.  Family members are obtained by
    substituting rational values for all parameters.
    """

    __slots__ = ("dtype", "entries", "vars")

    def __init__(self, dtype: DeterminantalType, entries, vars: VariableSet):
        rows = len(entries)
        if rows == 0 or any(len(r) != len(entries[0]) for r in entries):
            raise ValidationError("matrix entries must form a rectangular grid")
        cols = len(entries[0])
        if {rows, cols} != {dtype.n, dtype.n + dtype.k}:
            raise ValidationError(
                f"matrix shape {rows}x{cols} does not match type "
                f"({dtype.n + dtype.k},{dtype.n},{dtype.t})"
            )
        for row in entries:
            for e in row:
                if e.vars != vars:
                    raise VariableSetMismatchError(
                        "matrix entries use different variable sets"
                    )
        self.dtype = dtype
        self.entries = tuple(tuple(row) for row in entries)
        self.vars = vars

    @property
    def rows(self):
        return len(self.entries)

    @property
    def cols(self):
        return len(self.entries[0])

    @property
    def q(self):
        return len(self.vars.ambient)

    def is_specialized(self):
        return not self.vars.parameters

    def _check_sample(self, assignment):
        """Raise unless ``assignment`` names every parameter and nothing
        else."""
        missing = [p for p in self.vars.parameters if p not in assignment]
        if missing:
            raise PreconditionError(f"sample leaves parameters {missing} unspecialized")
        extra = [name for name in assignment if name not in self.vars.parameters]
        if extra:
            raise ValidationError(f"unknown parameters {extra} in sample")

    def specialize(self, assignment):
        """Member of the family at a rational parameter point."""
        self._check_sample(assignment)
        target = self.vars.ambient_only()
        subs = {
            name: Polynomial.constant(target, Fraction(value))
            for name, value in assignment.items()
        }
        entries = [
            [e.substitute(subs, target=target) for e in row] for row in self.entries
        ]
        return PresentationMatrix(self.dtype, entries, target)

    def __repr__(self):
        d = self.dtype
        return (
            f"PresentationMatrix({self.rows}x{self.cols}, type "
            f"({d.n + d.k},{d.n},{d.t}), q={self.q})"
        )


def slice_model(m: PresentationMatrix, h) -> PresentationMatrix:
    """Section by the hyperplane ``h`` (a ``genericity.Hyperplane``):
    solve the linear form for its pivot variable and substitute; the
    ambient dimension drops by one and the type is unchanged."""
    if len(h.coefficients) != m.q:
        raise ValidationError("hyperplane has the wrong number of coefficients")
    pivot_name = m.vars.ambient[h.pivot]
    target = m.vars.without_ambient(pivot_name)
    replacement = Polynomial.zero(target)
    for j, c in enumerate(h.coefficients):
        if j == h.pivot or c == 0:
            continue
        replacement = replacement - Polynomial.variable(
            target, m.vars.ambient[j]
        ).scale(c)
    subs = {pivot_name: replacement}
    entries = [
        [e.substitute(subs, target=target) for e in row] for row in m.entries
    ]
    return PresentationMatrix(m.dtype, entries, target)


class StratumModel(NamedTuple):
    """One rank stratum: its minor ideal and dimension bookkeeping."""

    index: int
    ideal: Ideal
    expected_codim: int
    expected_dim: int

    @property
    def present(self):
        return self.expected_dim >= 0


def _all_minors(grid, size, vars, cap=_MINOR_CAP):
    """Every size x size minor of a polynomial grid, ordered by (row
    subset, column subset).  Before any minor is formed, their count
    C(rows, size)·C(cols, size) is checked against ``cap``, and
    LimitError is raised past it.

    Fraction-free: row r is multiplied by a common denominator d_r of
    its entries (the lcm of the entries' integer-form denominators), so
    every entry becomes an integer polynomial, read from the entry's
    integer form.  With D = diag(d_r), det(D·M) = det(D)·det(M), so the
    minor of the scaled grid on rows R is the true minor times the
    product of d_r over R.  Each minor is returned in integer form over
    that product, so no Fraction is built here, and the term map, when a
    caller reads it, holds exactly the true minor's coefficients.

    A monomial is one int in the layout of the Groebner engine's grevlex
    ``_Packing``, so the product of a and b is ``a + b - one``.  Each
    minor keeps its packed map and that packing
    (``poly._PackedPolynomial``): a grevlex run in the same layout takes
    it with no monomial packed, and exponent tuples are formed only if a
    caller reads them.  An entry born packed in this layout (a basis
    element, or its derivative in ``strata.singular_locus_ideal``) is
    read as it is; the others are packed, each distinct monomial once.
    The fields never overflow: a minor on rows R is a sum of products of
    one entry from each row, so its total degree is at most the sum over
    rows of max(0, the row's largest total degree) (an all-zero row has
    total degree -1 and adds nothing), and the packing holds that
    degree.

    The minors are wedge (exterior) products of rows.  The nonzero
    minors on a row subset R, keyed by column set, are R's first row
    wedged with the nonzero minors on R[1:]: the entry in column c times
    the minor on columns C, for each c not in C, adds to the minor on
    C + {c} with sign (-1)^j, j the number of columns of C below c.  A
    column set is an int with bit c set for column c.  The minors are
    built level by level, from one row up, and a level holds only the
    row subsets that are a row suffix of some top-size subset, the
    subsets of size k of rows size-k onward; each level is dropped once
    the next is built, and the top-size minors are not kept at all.  A
    zero minor is never stored, so it is never multiplied.  Size 1
    returns each entry's map as it is (scaled to its row's denominator).
    Every zero minor is one zero polynomial, not packed and shared
    within the call, so the list still indexes minors by position.
    Nothing here refers back to itself, so no garbage cycle outlives the
    call.
    """
    nrows, ncols = len(grid), len(grid[0])
    count = comb(nrows, size) * comb(ncols, size)
    if count > cap:
        raise LimitError(
            f"minors exceeded the cap {cap}: {count} minors of size {size} "
            f"of a {nrows} x {ncols} matrix"
        )
    entries = [e for row in grid for e in row]
    bound = sum(max(0, max(e.total_degree() for e in row)) for row in grid)
    packing = _Packing.for_degree(GREVLEX, len(vars), bound, entries)
    one = packing.one
    forms = iter(_packed_forms(entries, packing))
    scale = []
    packed = []
    for row in grid:
        d = lcm(*(e._den for e in row))
        scale.append(d)
        packed.append(
            [
                f if e._den == d else {m: c * (d // e._den) for m, c in f.items()}
                for e, f in zip(row, forms)
            ]
        )
    # Per row, its nonzero entries as (bit, terms with the monomial 1
    # taken out).
    tops = [
        [(1 << c, [(m - one, v) for m, v in f.items()]) for c, f in enumerate(row) if f]
        for row in (packed if size > 1 else ())
    ]

    def wedge(top, below):
        # The first row's columns outermost, so each minor's terms arrive
        # in the order of its cofactor expansion along that row.
        out = {}
        for bit, terms in top:
            for cols, minor in below.items():
                if cols & bit:
                    continue
                key = cols | bit
                acc = out.get(key)
                if acc is None:
                    acc = out[key] = {}
                odd = (cols & (bit - 1)).bit_count() & 1
                for me, ce in terms:
                    if odd:
                        ce = -ce
                    for ms, cs in minor.items():
                        m = me + ms
                        acc[m] = acc.get(m, 0) + ce * cs
        out = {key: {m: c for m, c in acc.items() if c} for key, acc in out.items()}
        return {key: acc for key, acc in out.items() if acc}

    level = {
        (r,): {1 << c: f for c, f in enumerate(packed[r]) if f}
        for r in range(size - 1, nrows)
    }
    for k in range(2, size):
        level = {
            rows: wedge(tops[rows[0]], level[rows[1:]])
            for rows in combinations(range(size - k, nrows), k)
        }
    zero = Polynomial.zero(vars)
    result = []
    col_sets = [sum(1 << c for c in cols) for cols in combinations(range(ncols), size)]
    for rows in combinations(range(nrows), size):
        found = level[rows] if size == 1 else wedge(tops[rows[0]], level[rows[1:]])
        denom = prod(scale[r] for r in rows)
        for cols in col_sets:
            terms = found.get(cols)
            result.append(_PackedPolynomial(vars, terms, denom, packing) if terms else zero)
    return result


def minors(m: PresentationMatrix, size: int):
    """All size x size minors, ordered by (row subset, column subset)."""
    if not 1 <= size <= min(m.rows, m.cols):
        raise ValidationError(f"minor size {size} outside 1..{min(m.rows, m.cols)}")
    return _all_minors(m.entries, size, m.vars)


def stratum(m: PresentationMatrix, i: int, max_degree=None) -> StratumModel:
    """Preimage of the rank < i locus (ideal capped at ``max_degree``), with
    expected dimensions.  The ideal records the expected codimension as
    its Eagon-Northcott height bound, which ``groebner.dimension`` reads."""
    if not 1 <= i <= m.dtype.t:
        raise ValidationError(f"stratum index {i} outside 1..{m.dtype.t}")
    codim = m.dtype.expected_codim(i)
    ideal = Ideal(minors(m, i), m.vars, max_degree)
    ideal._height = codim
    return StratumModel(i, ideal, codim, m.dtype.expected_dim(i, m.q))


def jacobian_generators(polys, vars: VariableSet):
    """Jacobian module generators as a grid (a tuple of rows): one row
    per polynomial, one column per ambient variable."""
    if not polys:
        raise ValidationError("need at least one polynomial")
    return tuple(tuple(p.derivative(z) for z in vars.ambient) for p in polys)


def n_generators(m: PresentationMatrix, i: int):
    """Generators of the module of determinantal first-order deformations,
    as a grid (a tuple of rows): the Jacobian of the generic-matrix
    minors, evaluated on the entries.

    Rows are indexed by the i x i minors, columns by matrix positions in
    row-major order.  By Laplace expansion, the entry of the minor on
    rows R and columns C at (r, c) is (-1)^(a+b) times the (i-1)-minor
    on R - {r} and C - {c}, where r is the a-th element of R and c the
    b-th of C (1 when i = 1), and 0 off R x C.
    """
    if not 1 <= i <= m.dtype.t:
        raise ValidationError(f"stratum index {i} outside 1..{m.dtype.t}")
    rows, cols = range(m.rows), range(m.cols)
    if i == 1:
        sub = {((), ()): Polynomial.constant(m.vars, 1)}
    else:
        keys = [(R, C) for R in combinations(rows, i - 1) for C in combinations(cols, i - 1)]
        sub = dict(zip(keys, _all_minors(m.entries, i - 1, m.vars)))
    out = []
    for R in combinations(rows, i):
        for C in combinations(cols, i):
            row = [Polynomial.zero(m.vars)] * (m.rows * m.cols)
            for a, r in enumerate(R):
                for b, c in enumerate(C):
                    cofactor = sub[R[:a] + R[a + 1 :], C[:b] + C[b + 1 :]]
                    row[r * m.cols + c] = -cofactor if (a + b) & 1 else cofactor
            out.append(tuple(row))
    return tuple(out)


def dm_matrix(m: PresentationMatrix):
    """Gradients of the entries as a grid (a tuple of rows): row (r, s)
    in row-major order, one column per ambient variable (matches the
    column order of n_generators)."""
    return jacobian_generators([e for row in m.entries for e in row], m.vars)


class ChainRuleResult(NamedTuple):
    """Outcome of the chain-rule identity check; falsy on mismatch."""

    ok: bool
    mismatch: tuple | None = None

    def __bool__(self):
        return self.ok


def chain_rule_check(m: PresentationMatrix, i: int) -> ChainRuleResult:
    """Verify that the stratum Jacobian factors through the deformation
    generators: jacobian(minors) == n_generators * dm_matrix exactly.
    On a mismatch, ``mismatch`` is the (row, column) of the first entry
    that differs, in row-major order."""
    jac = jacobian_generators(minors(m, i), m.vars)
    columns = list(zip(*dm_matrix(m)))
    zero = Polynomial.zero(m.vars)
    for r, (jac_row, n_row) in enumerate(zip(jac, n_generators(m, i))):
        for c, column in enumerate(columns):
            entry = zero
            for a, b in zip(n_row, column):
                if not (a.is_zero() or b.is_zero()):
                    entry = entry + a * b
            if jac_row[c] != entry:
                return ChainRuleResult(False, (r, c))
    return ChainRuleResult(True)
