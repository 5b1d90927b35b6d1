"""Brute-force linear-algebra oracles, independent of the basis engine.

Membership and colength are re-derived from truncated multiplication
matrices (Macaulay-style) over exact integer arithmetic, at a truncation
degree verified stable: the answers at two consecutive degrees must
agree before they count.

``quotient_chain_saturation`` is the exception: a reference saturation
by chains of colon ideals, built from the engine's quotient and
intersection, to compare the one-elimination saturation against.
``saturated_support_is_origin_only`` and ``saturated_colength_at_origin``
decide support and origin colength by saturating with the engine's
``saturation`` by the ``maximal_ideal``, the reference for the
origin-primary component that the library builds instead.
``cofactor_det`` is the plain cofactor expansion on rational
polynomials, the reference for the fraction-free shared-sub-minor
determinant.  ``reference_update_pairs`` is the Gebauer-Moeller pair
update with each lcm taken on exponent tuples, the reference for the
engine's field-wise lcm on packed monomials.  ``reference_reduce_full``
is the pseudo-reducer that scales by the full leading coefficient, the
reference for the engine's gcd-scaled one.  ``reference_add``,
``reference_mul``, ``reference_scale``, ``reference_substitute``,
``reference_derivative``, ``reference_lift`` and ``reference_restrict``
are the term-map loops on Fraction coefficients, the reference for the
same operations on a polynomial's integer form.
"""

from fractions import Fraction
from heapq import heapify, heappush
from math import gcd

from detsing.groebner import (
    Ideal,
    _Overflow,
    _content,
    _primitive,
    dimension,
    ideal_intersection,
    ideal_quotient,
    ideals_equal,
    is_unit_ideal,
    saturation,
)
from detsing.poly import GREVLEX, Polynomial, monomial_lcm, monomial_mul


def monomials_up_to(width, degree):
    """All exponent tuples of total degree <= degree, largest first."""
    out = [()]
    for _ in range(width):
        out = [m + (e,) for m in out for e in range(degree + 1 - sum(m))]
    out.sort(key=GREVLEX.key, reverse=True)
    return out


class IntEchelon:
    """Row echelon form over the integers (fraction-free)."""

    def __init__(self, width):
        self.width = width
        self.rows = {}

    @staticmethod
    def _strip(vec):
        g = 0
        for v in vec:
            g = gcd(g, abs(v))
            if g == 1:
                return vec
        if g > 1:
            vec = [v // g for v in vec]
        return vec

    def reduce(self, vec):
        vec = list(vec)
        i = 0
        while i < self.width:
            if vec[i] == 0:
                i += 1
                continue
            row = self.rows.get(i)
            if row is None:
                return vec, i
            c, d = vec[i], row[i]
            g = gcd(abs(c), abs(d))
            a, b = d // g, c // g
            vec = [a * v - b * r for v, r in zip(vec, row)]
            i += 1
        return vec, None

    def insert(self, vec):
        vec, lead = self.reduce(vec)
        if lead is None:
            return False
        vec = self._strip(vec)
        if vec[lead] < 0:
            vec = [-v for v in vec]
        self.rows[lead] = vec
        return True

    @property
    def rank(self):
        return len(self.rows)


def _int_vector(poly, index_of, shift=None):
    denom = 1
    for c in poly.terms.values():
        denom = denom * c.denominator // gcd(denom, c.denominator)
    vec = [0] * len(index_of)
    for m, c in poly.terms.items():
        if shift is not None:
            m = tuple(a + b for a, b in zip(m, shift))
        vec[index_of[m]] = int(c * denom)
    return vec


def _multiples_echelon(gens, degree):
    width = len(gens[0].vars)
    monos = monomials_up_to(width, degree)
    index_of = {m: i for i, m in enumerate(monos)}
    ech = IntEchelon(len(monos))
    for g in gens:
        d = g.total_degree()
        if d < 0:
            continue
        for shift in monomials_up_to(width, degree - d):
            ech.insert(_int_vector(g, index_of, shift))
    return ech, index_of


def membership_at_degree(probe, gens, degree):
    ech, index_of = _multiples_echelon(gens, degree)
    vec, lead = ech.reduce(_int_vector(probe, index_of))
    return lead is None


def stable_membership(probes, gens, max_degree=14):
    """Membership answers at a verified-stable truncation degree."""
    start = max(
        [g.total_degree() for g in gens] + [p.total_degree() for p in probes]
    )
    prev = None
    for degree in range(start, max_degree + 1):
        cur = tuple(membership_at_degree(p, gens, degree) for p in probes)
        if cur == prev:
            return cur, degree
        prev = cur
    raise AssertionError("membership answers never stabilized; raise max_degree")


def corank_at_degree(gens, degree):
    ech, index_of = _multiples_echelon(gens, degree)
    return len(index_of) - ech.rank


def stable_corank(gens, max_degree=16):
    """Quotient dimension from truncations, stabilized over two degrees."""
    start = max(g.total_degree() for g in gens)
    prev = None
    for degree in range(start, max_degree + 1):
        cur = corank_at_degree(gens, degree)
        if cur == prev:
            return cur
        prev = cur
    raise AssertionError("corank never stabilized; raise max_degree")


def standard_monomial_count(basis, width, bound=60):
    """Recount monomials outside the leading-term ideal by brute force."""
    lts = basis.leading_monomials()
    degree = 0
    prev = None
    while degree <= bound:
        count = 0
        for m in monomials_up_to(width, degree):
            if not any(all(a <= b for a, b in zip(lt, m)) for lt in lts):
                count += 1
        if count == prev:
            return count
        prev = count
        degree += 1
    raise AssertionError("standard monomial count did not stabilize")


def monomial_ideal_dimension(monomials, width):
    """Max independent variable subset, brute force over all subsets."""
    from itertools import combinations

    supports = [frozenset(i for i, e in enumerate(m) if e) for m in monomials]
    best = -1
    for size in range(width, -1, -1):
        for subset in combinations(range(width), size):
            s = set(subset)
            if all(not sup <= s for sup in supports):
                return size
    return best


def quotient_chain_saturation(a, b, cap=50):
    """a : b^inf as a : g, (a : g) : g, ... for each generator g of b until
    the reduced basis stops changing, intersected over the generators."""
    parts = []
    for g in b.generators:
        current = a
        for _ in range(cap):
            nxt = ideal_quotient(current, g)
            if ideals_equal(nxt, current):
                break
            current = nxt
        else:
            raise AssertionError(f"quotient chain did not stabilize within {cap} rounds")
        parts.append(current)
    result = parts[0]
    for part in parts[1:]:
        result = ideal_intersection(result, part)
    return result


def maximal_ideal(vars):
    """The ideal of the origin: every variable of ``vars``."""
    return Ideal([Polynomial.variable(vars, n) for n in vars.names], vars)


def saturated_support_is_origin_only(a):
    """V(a) lies in the origin iff a : m^inf is the unit ideal."""
    return is_unit_ideal(saturation(a, maximal_ideal(a.vars)))


def saturated_colength_at_origin(a):
    """Colength of the origin-primary component of a zero-dimensional a
    (0 when the origin is not in V(a)): a itself when a : m^inf is the
    unit ideal, else a : (a : m^inf)^inf, its standard monomials
    recounted by brute force.  None when a is not zero-dimensional."""
    if is_unit_ideal(a):
        return 0
    if dimension(a) != 0:
        return None
    away = saturation(a, maximal_ideal(a.vars))
    part = a if is_unit_ideal(away) else saturation(a, away)
    if is_unit_ideal(part):
        return 0
    return standard_monomial_count(part.groebner_basis(GREVLEX), len(a.vars))


def cofactor_det(grid):
    """Cofactor expansion along the first row, increasing column order."""
    size = len(grid)
    if size == 1:
        return grid[0][0]
    vars = grid[0][0].vars
    total = Polynomial.zero(vars)
    for c in range(size):
        entry = grid[0][c]
        if entry.is_zero():
            continue
        sub = [row[:c] + row[c + 1 :] for row in grid[1:]]
        piece = entry * cofactor_det(sub)
        total = total + piece if c % 2 == 0 else total - piece
    return total


def reference_update_pairs(lts, heap, new_lt, packing):
    """``groebner._update_pairs`` with each ``lcm(lts[i], new_lt)`` formed
    from unpacked exponent tuples and packed again, and each divisibility
    tested with ``packing.divides``; raises ``_Overflow`` when an lcm does
    not fit."""
    t = len(lts)
    new_exps = packing.unpack(new_lt)
    new_lcms = [packing.pack(monomial_lcm(packing.unpack(m), new_exps)) for m in lts]
    if any(l & packing.guards for l in new_lcms):
        raise _Overflow
    pruned = {
        (l, i, j)
        for l, i, j in heap
        if packing.divides(new_lt, l)
        and l != new_lcms[i]
        and l != new_lcms[j]
    }
    if pruned:
        heap[:] = [pair for pair in heap if pair not in pruned]
        heapify(heap)
    lcm_groups = {}
    for i, l in enumerate(new_lcms):
        lcm_groups.setdefault(l, []).append(i)
    minimal = []
    for l in sorted(lcm_groups):
        if not any(packing.divides(k, l) for k in minimal):
            minimal.append(l)
    product = new_lt - packing.one
    for l in minimal:
        # Buchberger's coprime criterion: skip when lcm = product.
        if not any(lts[i] + product == l for i in lcm_groups[l]):
            heappush(heap, (l, min(lcm_groups[l]), t))


def reference_reduce_full(p, basis, packing):
    """``groebner._reduce_full`` scaling the work by the row's whole
    leading coefficient lc and subtracting c times the row, not lc and c
    divided by their gcd, and testing divisibility with
    ``packing.divides``."""
    rem = {}
    work = dict(p)
    steps = 0
    while work:
        m = max(work)
        c = work[m]
        for row in basis:
            if packing.divides(row[1], m):
                break
        else:
            del work[m]
            rem[m] = c
            continue
        _, lt, lc, g, rise = row
        if (rise + m) & packing.guards:
            raise _Overflow
        shift = m - lt
        if lc != 1:
            for k2 in work:
                work[k2] *= lc
            for k2 in rem:
                rem[k2] *= lc
        for mg, cg in g.items():
            mm = mg + shift
            s = work.get(mm, 0) - c * cg
            if s:
                work[mm] = s
            else:
                work.pop(mm, None)
        steps += 1
        if steps % 32 == 0 and rem:
            joint = dict(rem)
            joint.update(work)
            g2 = _content(joint)
            if g2 > 1:
                work = {k2: v // g2 for k2, v in work.items()}
                rem = {k2: v // g2 for k2, v in rem.items()}
    return _primitive(rem)


def reference_add(p, q):
    """p + q, term by term on the Fraction term maps."""
    out = dict(p.terms)
    for m, c in q.terms.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return Polynomial(p.vars, out)


def reference_mul(p, q):
    """p * q, every pair of terms multiplied on the Fraction term maps."""
    out = {}
    for ma, ca in p.terms.items():
        for mb, cb in q.terms.items():
            m = monomial_mul(ma, mb)
            s = out.get(m, 0) + ca * cb
            if s:
                out[m] = s
            else:
                del out[m]
    return Polynomial(p.vars, out)


def reference_scale(p, c):
    """c * p for a rational c, on the Fraction term map."""
    c = Fraction(c)
    if c == 0:
        return Polynomial(p.vars)
    return Polynomial(p.vars, {m: c * v for m, v in p.terms.items()})


def reference_substitute(p, assignment, target):
    """Simultaneous substitution of polynomials over ``target`` for
    variables of p, term by term with the reference sum and product;
    unassigned variables map to themselves."""
    per_var = [
        assignment[name]
        if name in assignment
        else Polynomial(target, {tuple(int(n == name) for n in target.names): 1})
        for name in p.vars.names
    ]
    result = Polynomial(target)
    for m, c in p.terms.items():
        piece = Polynomial(target, {(0,) * len(target): c})
        for value, e in zip(per_var, m):
            for _ in range(e):
                piece = reference_mul(piece, value)
        result = reference_add(result, piece)
    return result


def reference_derivative(p, name):
    """Partial derivative, term by term on the Fraction term map."""
    j = p.vars.index(name)
    out = {}
    for m, c in p.terms.items():
        e = m[j]
        if e == 0:
            continue
        mm = list(m)
        mm[j] = e - 1
        out[tuple(mm)] = c * e
    return Polynomial(p.vars, out)


def reference_lift(p, target):
    """``p`` over a larger variable set, on the Fraction term map."""
    positions = [target.index(n) for n in p.vars.names]
    out = {}
    for m, c in p.terms.items():
        mm = [0] * len(target)
        for pos, e in zip(positions, m):
            mm[pos] = e
        out[tuple(mm)] = c
    return Polynomial(target, out)


def reference_restrict(p, target):
    """``p`` over a smaller variable set holding every variable that
    occurs in it, on the Fraction term map."""
    out = {}
    for m, c in p.terms.items():
        mm = [0] * len(target)
        for name, e in zip(p.vars.names, m):
            if e:
                mm[target.index(name)] = e
        out[tuple(mm)] = c
    return Polynomial(target, out)
