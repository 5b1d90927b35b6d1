"""Reduced Groebner bases and the ideal-theoretic toolkit.

Buchberger's algorithm with the Gebauer-Moeller pair-elimination
criteria and the normal selection strategy (smallest lcm under the
active ordering, ties broken by generator index), so bases are
reproducible across runs.  The pending pairs are one heap of
``(lcm, i, j)``, each lcm computed once when its pair is created, so
the heap yields the next pair in exactly that order.  A pair the update
criteria prune leaves the heap at once.  The engine works on primitive
integer-coefficient polynomials.  It reads each input's integer form
(see ``poly``), which differs from the primitive one by a positive
scalar, and returns each basis element in integer form: its primitive
numerators over its leading coefficient, which is the monic element.
No Fraction is built on the way in or out.

A run may start from a seed: a leading run of the inputs that is
already a reduced basis in the run's ordering.  The seed enters the
basis as it is and no pair joins two of its elements, because a run on
the seed alone ends right there: every S-pair of a Groebner basis
reduces to zero (Gebauer & Moeller, "On an installation of Buchberger's
algorithm", J. Symb. Comp. 1988).  The other inputs are interreduced
and added one by one, pairing with the seed as usual.

Inside the engine each monomial is one ``int`` (the packing of Monagan
& Pearce, "Sparse polynomial division using a heap", J. Symb. Comp.
2011).  Every variable, and every block's degree, has a field of one
width: a guard bit above a value of at most ``limit``.  Every ordering
is a sequence of grevlex blocks, most significant first, and each block
``b`` is laid out as ``[deg | limit-e[b[-1]] | ... | limit-e[b[0]]]``:
its degree field above one complement field per variable.  Grevlex is
one block of all the variables, an elimination order two, and lex one
block per variable, so integer ``<`` is the monomial order.  Each field
is linear in the exponents, so a product is an addition and a quotient
a subtraction (each corrected by the packed monomial 1).  ``a`` divides
``b`` when the guard bits of the complement fields of ``a - b +
guards`` are all set: each such field then holds ``limit + 1`` plus one
exponent difference, so no field borrows from its neighbour.

The lcm of two packed monomials is taken field-wise on the ints, a few
whole-int operations ("SIMD within a register") and one multiplication
per block for its degree field (see :meth:`_Packing.lcms`), and a
degree is read from the packed fields.  The determinant multiplies in
the grevlex packing and its minors keep their packed maps (see
``poly._PackedPolynomial``), which a run in the same layout takes as
they are; only an input without one is packed, each distinct monomial
once.  The returned basis elements keep the run's packed maps too, so
exponent tuples are formed only when a caller reads them.

Fields start as narrow as the input's largest total degree allows (at
least 16 bits).  Each new lcm is checked, and each S-polynomial and
reduction step once against a per-row bound, for a field leaving its
range; a field above ``limit`` or below 0 shows as a set guard bit.  On
overflow the basis is recomputed from the start with fields twice as
wide.  Order, S-pair sequence and basis do not depend on the width.

On top of the basis engine: membership, sums, elimination,
intersection, quotient, saturation, Krull dimension, and colength
(standard-monomial count) for ideals supported at the origin.  The
standard monomials are counted slice by slice in the last variable's
exponent, with no monomial formed, and the count stops as soon as it
passes its cap (see :func:`_staircase_count`).  A Krull
dimension is read from the leading terms of the reduced grevlex basis,
except for a rank stratum whose generators certify it with no basis: the
cover dimension of their leading terms, a ceiling, meets the floor q
less the Eagon-Northcott height bound that ``detmodel.stratum`` records
(see :func:`dimension`).  A saturation a : b^inf is one elimination: a
fresh tag t_i for each generator g_i of b, 1 - sum t_i*g_i adjoined to
the lifted generators of a, and all the tags eliminated in one block
order.  It needs no round limit: the degree cap bounds its one basis.
a's reduced grevlex basis, lifted, replaces a's generators and seeds
the elimination: on tag-free polynomials the block order compares
exactly as grevlex in a's variables, so that basis is reduced there
too.

The one support test ("does V(a) lie in the origin?") is
``support_is_origin_only``; it passes the unit ideal.  It first reads
elements of a: its cached reduced grevlex basis, else its generators and
the rows of Buchberger's input phase up to the first that completes the
certificate (both only when no generator exceeds the degree cap), then
its reduced basis.  A nonzero constant, or homogeneous elements with a
pure-power leading term in every variable, settle it.  Otherwise a of
positive dimension fails, read from that basis.  A zero-dimensional a
with d standard monomials passes when it equals its origin-primary
component a + (x_1^d, ..., x_q^d), whose basis run is seeded by a's
basis; ``colength_at_origin`` counts that component's standard
monomials.  Neither saturates, so neither adds a variable that the
degree cap would count.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from heapq import heapify, heappop, heappush
from math import gcd
from operator import mul

from .errors import (
    DetsingError,
    LimitError,
    PreconditionError,
    ValidationError,
    VariableSetMismatchError,
)
from .poly import (
    GREVLEX,
    MonomialOrdering,
    Polynomial,
    VariableSet,
    _PackedPolynomial,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)

class GroebnerBasis:
    """A reduced Groebner basis: monic elements, sorted by leading term."""

    __slots__ = ("elements", "ordering")

    def __init__(self, elements, ordering):
        self.elements = tuple(elements)
        self.ordering = ordering

    def is_unit(self):
        return len(self.elements) == 1 and self.elements[0].is_constant()

    def leading_monomials(self):
        return [g.leading_monomial(self.ordering) for g in self.elements]

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


class Ideal:
    """An ideal given by generators, with a per-ordering basis cache.

    Zero generators may be dropped freely; an empty generator list is
    the zero ideal.  The cache behaves as a write-once map per
    (ideal, ordering) key.  ``max_degree`` (None: no cap) caps the degree
    of this ideal's basis computations; derived ideals carry it on.
    ``seed`` is a leading run of the generators that is already a reduced
    basis in its ordering (see :meth:`from_basis`); it is empty unless set.
    ``_height`` (None: unknown) bounds the height of every minimal prime
    of the ideal when it is proper (see :func:`dimension`); only
    ``detmodel.stratum`` sets it, and no derived ideal carries it.
    """

    __slots__ = ("vars", "generators", "max_degree", "seed", "_height", "_cache")

    def __init__(self, generators, vars=None, max_degree=None):
        gens = [g for g in generators if not g.is_zero()]
        if vars is None:
            if not gens:
                raise ValidationError("zero ideal needs an explicit variable set")
            vars = gens[0].vars
        for g in gens:
            if g.vars is not vars and g.vars != vars:
                raise VariableSetMismatchError("generators use different variable sets")
        self.vars = vars
        self.generators = tuple(gens)
        self.max_degree = max_degree
        self.seed = GroebnerBasis((), GREVLEX)
        self._height = None
        self._cache = {}

    @classmethod
    def from_basis(cls, basis: GroebnerBasis, vars, max_degree, rest=()) -> Ideal:
        """The ideal the basis's elements and ``rest`` generate, with the
        basis as its seed: a basis in the seed's ordering starts from it,
        its elements not interreduced again and no S-pair joining two of
        them.  With no ``rest`` the basis is the ideal's own, and cached."""
        ideal = cls(basis.elements + tuple(rest), vars, max_degree)
        ideal.seed = basis
        if not rest:
            ideal._cache[basis.ordering] = basis
        return ideal

    def cached_basis(self, ordering=GREVLEX):
        """The reduced basis in ``ordering`` if already known, else None."""
        return self._cache.get(ordering)

    def groebner_basis(self, ordering=GREVLEX):
        basis = self._cache.get(ordering)
        if basis is None:
            basis = buchberger(self, ordering)
            self._cache.setdefault(ordering, basis)
        return basis

    def __repr__(self):
        return f"Ideal({len(self.generators)} generators over {self.vars.names})"


# ---------------------------------------------------------------------------
# Integer-polynomial engine on packed monomials


class _Overflow(Exception):
    """A packed field left its range; the basis is recomputed wider."""


class _Packing:
    """Monomials of one ordering packed into one int each, in fields
    ``bits`` wide: one grevlex block ``[deg | limit-e...]`` per block of
    the ordering (see the module docstring), so integer ``<`` is
    ``ordering.key`` order, the product of ``a`` and ``b`` is
    ``a + b - one`` and their quotient ``a - b + one``."""

    __slots__ = ("ordering", "width", "bits", "key", "limit", "blocks", "degrees",
                 "slots", "coeffs", "one", "guards", "test", "units", "sums")

    def __init__(self, ordering, width, bits):
        self.ordering = ordering
        self.width = width
        self.bits = bits
        self.key = (ordering, width, bits)  # equal keys, equal layouts
        limit = self.limit = (1 << (bits - 1)) - 1
        # Most significant first; lex is a block order of single variables.
        if ordering.kind == "lex":
            blocks = [(i,) for i in range(width)]
        else:
            first = ordering.block if ordering.kind == "block" else tuple(range(width))
            blocks = [first, tuple(i for i in range(width) if i not in first)]
        self.blocks = tuple(b for b in blocks if b)
        slots = [0] * width
        coeffs = [0] * width
        degrees = []
        sums = []
        one = shift = 0
        # From the least significant field up: each block's complement
        # fields limit - e[i], then its degree field.
        for b in reversed(self.blocks):
            top = shift + len(b) * bits
            block = 0
            for i in b:
                slots[i] = shift
                coeffs[i] = (1 << top) - (1 << shift)
                block += limit << shift
                shift += bits
            degrees.append(top)
            sums.append((block, (2 * limit + 1) << top))
            one += block
            shift += bits
        self.degrees = degrees
        self.slots = tuple(slots)
        self.coeffs = tuple(coeffs)
        self.one = one
        self.units = sum(1 << k for k in range(0, shift, bits))  # 1 in every field
        self.guards = self.units << (bits - 1)
        # The complement fields' guard bits, the ones divides() reads.
        self.test = (one << 1) & self.guards
        # Per block: (mask of its complement fields, of its degree field).
        self.sums = tuple(sums)

    @classmethod
    def for_degree(cls, ordering, width, degree, polys=()):
        """A packing, at least 16 bits a field, holding every monomial of
        total degree at most ``degree``, which bounds every block degree
        and every exponent: the packing one of ``polys`` carries when it
        has that layout, else a new one."""
        key = (ordering, width, max(16, degree.bit_length() + 1))
        for p in polys:
            own = p._packing
            if own is not None and own.key == key:
                return own
        return cls(*key)

    @classmethod
    def for_input(cls, ordering, width, polys):
        """A packing holding every monomial of the polynomials, sized by
        their largest total degree."""
        peak = max((p.total_degree() for p in polys), default=0)
        return cls.for_degree(ordering, width, peak, polys)

    def wider(self):
        """The same layout with fields twice as wide."""
        return _Packing(self.ordering, self.width, 2 * self.bits)

    def peak(self, exps):
        """Largest field value of an exponent vector: its largest block
        degree."""
        return max(sum(exps[i] for i in b) for b in self.blocks)

    def pack(self, exps):
        """Packed form of exponents whose field values are at most
        ``2*limit``; a guard bit is set exactly when one exceeds
        ``limit`` (see :meth:`ceiling`)."""
        return self.one + sum(map(mul, exps, self.coeffs))

    def unpack(self, mono):
        limit = self.limit
        return tuple(limit - ((mono >> shift) & limit) for shift in self.slots)

    def lcms(self, monos, b):
        """Packed lcm of each of ``monos`` with ``b``, all of them fitting
        the packing.  As with :meth:`pack`, a guard bit is set exactly
        when a block's degree exceeds ``limit``.

        Each field of ``(a | guards) - b`` holds ``limit + 1`` plus that
        field of a less that of b, so none borrows, and ``& guards``
        flags the fields where a's is at least b's; ``d - (d >> (bits -
        1))`` widens each flag to its field's value bits.  The lcm keeps
        the smaller complement ``limit - e`` of each variable, then fills
        each block's degree field: ``one - c`` is the exponents, and the
        block's exponents alone, times ``units``, add up in that degree
        field.  Every partial sum is at most deg a + deg b <= ``2*limit``,
        so no carry crosses a field.
        """
        guards, s = self.guards, self.bits - 1
        one, units, sums = self.one, self.units, self.sums
        below = guards - b  # a + below == (a | guards) - b
        out = []
        for a in monos:
            d = (a + below) & guards
            c = (a ^ ((a ^ b) & (d - (d >> s)))) & one
            e = one - c
            for block, field in sums:
                c |= (e & block) * units & field
            out.append(c)
        return out

    def degree(self, mono):
        """Total degree of a packed monomial: the sum of its blocks'
        degree fields."""
        limit = self.limit
        degrees = self.degrees
        if len(degrees) == 1:
            return (mono >> degrees[0]) & limit
        return sum((mono >> shift) & limit for shift in degrees)

    def largest_degree(self, monos):
        """Largest total degree of packed monomials, at least one."""
        degrees = self.degrees
        if len(degrees) == 1:  # the degree field leads
            return (max(monos) >> degrees[0]) & self.limit
        return max(map(self.degree, monos))

    def divides(self, a, b):
        """True when packed monomial a divides packed monomial b.

        Each field of ``a - b + guards`` holds ``limit + 1`` plus that
        field of a less that of b, in ``1..2*limit+1``, so no field
        borrows from the next.  ``test`` reads the complement fields
        ``limit - e``, whose guard bit is set exactly when that exponent
        of b is at least that of a.
        """
        return (a - b + self.guards) & self.test == self.test

    def ceiling(self, monos):
        """Largest value of each degree field over packed monomials, with
        every complement field at exponent 0.

        An exponent never exceeds its block's degree field, so a product
        fits when its degree fields do.  ``ceiling + m - lt`` therefore has
        a guard bit set exactly when some product ``mono * m / lt`` does
        not fit: a field below ``0`` or above ``limit`` reads, with no
        borrow or carry from the fields under it, as a value with its
        guard bit set.
        """
        limit = self.limit
        degrees = self.degrees
        if len(degrees) == 1:  # the degree field leads
            return self.one | (max(monos) >> degrees[0] & limit) << degrees[0]
        out = self.one
        for shift in degrees:
            out |= max((m >> shift) & limit for m in monos) << shift
        return out


def _content(terms):
    return gcd(*terms.values())


def _primitive(terms):
    if not terms:
        return terms
    g = _content(terms)
    if terms[max(terms)] < 0:
        g = -g
    if g not in (0, 1):
        terms = {m: c // g for m, c in terms.items()}
    return terms


def _row(p, packing):
    """Reducer row of a primitive polynomial with positive leading
    coefficient: (divisor key, lt, lc, terms, ceiling - lt)."""
    lt = max(p)
    return (
        lt + packing.guards,
        lt,
        p[lt],
        p,
        packing.ceiling(p) - lt,
    )


def _reduce_full(p, basis, packing):
    """Full pseudo-reduction of an integer polynomial against a basis.

    ``basis`` is a list of rows from :func:`_row`.  Returns a primitive
    remainder; the remainder is a unit multiple of the rational normal
    form, which is all the callers need (zero tests, interreduction).

    A step cancels the term c*m with the row of leading coefficient lc
    after scaling the work by lc/g, g = gcd(lc, c), and subtracting c/g
    times the shifted row.  Scaling by lc, and subtracting c times the
    row, would give the same state times g > 0: the divisor chosen at
    every step and the primitive remainder are the same, but the
    coefficients grow faster.  The content of the whole state is also
    divided out every 32 steps.
    """
    guards, test = packing.guards, packing.test
    rem = {}
    work = dict(p)
    steps = 0
    while work:
        m = max(work)
        c = work[m]
        for row in basis:
            if (row[0] - m) & test == test:
                break
        else:
            del work[m]
            rem[m] = c
            continue
        _, lt, lc, g, rise = row
        if (rise + m) & guards:
            raise _Overflow
        shift = m - lt
        if lc != 1:
            common = gcd(lc, c)
            lc //= common
            c //= common
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


def _spoly(ri, rj, lcm, packing):
    _, lti, lci, fi, risei = ri
    _, ltj, lcj, fj, risej = rj
    if (risei + lcm) & packing.guards or (risej + lcm) & packing.guards:
        raise _Overflow
    si = lcm - lti
    sj = lcm - ltj
    out = {m + si: c * lcj for m, c in fi.items()}
    for m, c in fj.items():
        mm = m + sj
        s = out.get(mm, 0) - c * lci
        if s:
            out[mm] = s
        else:
            out.pop(mm, None)
    return out


def _check_degree(mono, cap, phase, packing):
    if cap is not None:
        degree = packing.degree(mono)
        if degree > cap:
            raise LimitError(
                f"basis computation exceeded the degree cap {cap}: "
                f"{phase} reached degree {degree}"
            )


def _interreduce_input(polys, packing, stop=None):
    """Interreduce a generator list (a run's inputs, and its minimal
    basis at the end): the reducer rows returned, sorted by leading term,
    generate the same ideal, and no term of a row is divisible by
    another row's leading term.

    The polynomials are taken smallest leading term first.  Each is made
    primitive as it is taken (so a run stopped early divides out no
    content of the rest) and reduced against the rows kept so far, and a
    kept row whose leading term the new one divides goes back into the
    queue.  The kept leading terms then divide none of each other, so a
    term of a row can only be divisible by a smaller leading term, and
    one closing pass reduces each row against the rows below it.  When
    every kept leading term arrived above all earlier ones, each row was
    already reduced against all the rows below it, and the pass is
    skipped.

    ``stop(terms, packing)``, when given, sees each row's terms as the
    row is kept, and the run returns None as soon as it returns True.
    Every row ever kept is an element of the ideal the inputs generate,
    even one that later goes back into the queue.  The input maps may be
    the polynomials' own (:func:`_packed_forms`); they are read, never
    changed, so the queue holds them uncopied.
    """
    queue = [(max(p), k, p) for k, p in enumerate(polys) if p]
    heapify(queue)
    count = len(queue)
    test, guards = packing.test, packing.guards
    kept = []
    top = -1  # the largest leading term kept so far
    ascending = True
    while queue:
        f = _reduce_full(_primitive(heappop(queue)[2]), kept, packing)
        if not f:
            continue
        row = _row(f, packing)
        lt = row[1]
        if lt > top:
            top = lt
        else:
            ascending = False
            divisor = lt + guards
            still = []
            for r in kept:
                if (divisor - r[1]) & test == test:
                    heappush(queue, (r[1], count, r[3]))
                    count += 1
                else:
                    still.append(r)
            kept = still
        kept.append(row)
        if stop is not None and stop(f, packing):
            return None
    kept.sort(key=lambda r: r[1])
    if not ascending:
        done = []
        for row in kept:
            f = _reduce_full(row[3], done, packing)
            done.append(row if f == row[3] else _row(f, packing))
        kept = done
    return kept


def _update_pairs(lts, heap, new_lt, packing):
    """Gebauer-Moeller pair update for the element about to be appended.

    ``lts`` are the packed leading terms and ``heap`` holds each pending
    pair ``(i, j)`` as ``(lcm, i, j)``, its packed lcm first.  A pending
    pair whose lcm the new leading term divides, and differs from both
    of its own lcms with it, is redundant (criterion B); the heap is
    filtered and re-heapified only when there is one.  Each new pair
    ``(i, t)`` is pushed as ``(lcm, i, t)``, so selection keeps the
    ``(lcm, i, j)`` order.  ``lcm(lts[i], new_lt)`` is computed once per
    ``i``, field-wise on the packed ints (:meth:`_Packing.lcms`).
    """
    t = len(lts)
    new_lcms = packing.lcms(lts, new_lt)
    test, guards = packing.test, packing.guards
    if any(map(guards.__and__, new_lcms)):
        raise _Overflow
    divisor = new_lt + guards
    kept = [
        pair
        for pair in heap
        if (divisor - pair[0]) & test != test
        or pair[0] == new_lcms[pair[1]]
        or pair[0] == new_lcms[pair[2]]
    ]
    if len(kept) < len(heap):
        heap[:] = kept
        heapify(heap)
    # Each distinct lcm with its smallest i (written last, as the pairs
    # are reversed), and the lcms equal to the product of the leading
    # terms, which Buchberger's coprime criterion skips.
    first = dict(zip(reversed(new_lcms), range(t - 1, -1, -1)))
    product = new_lt - packing.one
    coprime = {l for lt, l in zip(lts, new_lcms) if lt + product == l}
    keys = []  # divisor keys of the minimal lcms
    for l in sorted(first):
        for k in keys:
            if (k - l) & test == test:
                break
        else:
            keys.append(l + guards)
            if l not in coprime:
                heappush(heap, (l, first[l], t))


def _packed_forms(polys, packing):
    """Each polynomial's integer numerators keyed by monomials packed in
    ``packing``: the packed map it carries when that map is in the same
    layout (ordering, width and bits), else its exponent tuples packed,
    each distinct one once over all the polynomials.  The maps may be
    the polynomials' own; callers must not change them."""
    key = packing.key
    packed = {}
    out = []
    for p in polys:
        own = p._packing
        if own is not None and own.key == key:
            out.append(p._packed)
            continue
        ints = p._ints
        for m in ints:
            if m not in packed:
                packed[m] = packing.pack(m)
        out.append({packed[m]: c for m, c in ints.items()})
    return out


def _input_rows(polys, packing, cap, seeded=0):
    """Buchberger's input phase on integer polynomials keyed by packed
    monomials: the reducer rows of the first ``seeded`` polynomials, a reduced
    basis kept as it is, then of the others interreduced and, in a seeded
    run, reduced against the rows before them.  (Unseeded, the rows are
    already reduced against each other.)  Each row is an element of the
    ideal the inputs generate, and each leading term is checked against
    the degree cap.  Raises _Overflow when a product does not fit the
    packing."""
    rows = [_row(_primitive(p), packing) for p in polys[:seeded]]
    for row in rows:
        _check_degree(row[1], cap, "input leading term", packing)
    for row in _interreduce_input(polys[seeded:], packing):
        if seeded:
            f = _reduce_full(row[3], rows, packing)
            if not f:
                continue
            row = _row(f, packing)
        _check_degree(row[1], cap, "input leading term", packing)
        rows.append(row)
    return rows


def _packed_basis(polys, packing, cap, seeded=0):
    """Reduced basis, as primitive packed polynomials sorted by leading
    term, of integer polynomials keyed by packed monomials.  Raises
    _Overflow when a monomial does not fit the packing.

    The run starts from the rows of :func:`_input_rows`.  The first
    ``seeded`` polynomials are a reduced basis in the packing's ordering:
    they start the basis as they are, and no pair joins two of them.
    That is where a run on them alone ends, since every S-pair of a
    Groebner basis reduces to zero.  The other rows pair with every row
    before them, as they would when added one by one."""
    G = _input_rows(polys, packing, cap, seeded)
    lts = [row[1] for row in G[:seeded]]
    heap = []  # pending pairs (i, j) as (lcm(lts[i], lts[j]), i, j)
    for row in G[seeded:]:
        _update_pairs(lts, heap, row[1], packing)
        lts.append(row[1])

    while heap:
        lcm, i, j = heappop(heap)
        _check_degree(lcm, cap, "S-pair lcm", packing)
        s = _reduce_full(_spoly(G[i], G[j], lcm, packing), G, packing)
        if s:
            row = _row(s, packing)
            _check_degree(row[1], cap, "new basis element", packing)
            _update_pairs(lts, heap, row[1], packing)
            G.append(row)
            lts.append(row[1])

    # Minimalize: drop elements whose leading term another divides.  The
    # minimal rows arrive in ascending leading-term order, so their
    # interreduction is one pass with no closing pass.
    test = packing.test
    minimal = []
    for i in sorted(range(len(G)), key=lts.__getitem__):
        lt = lts[i]
        if not any((G[j][0] - lt) & test == test for j in minimal):
            minimal.append(i)
    return [r[3] for r in _interreduce_input([G[i][3] for i in minimal], packing)]


def _packed_run(ideal, ordering, run):
    """``run(polys, packing, cap, seeded)`` on the ideal's generators in
    packed integer form (:func:`_packed_forms`), under its degree cap and
    from its seed when the seed is in ``ordering``.  The packing starts as
    narrow as the generators' total degrees allow, which a generator born
    packed reads from its degree field, so generators already packed in
    that layout (the minors of one determinant call, the basis of an
    earlier grevlex run) enter as they are.  Each _Overflow makes the
    fields twice as wide and starts the run again, every generator then
    packed from its exponent tuples.  Returns run's result and the
    packing it fit."""
    gens = ideal.generators
    seeded = len(ideal.seed) if ideal.seed.ordering == ordering else 0
    packing = _Packing.for_input(ordering, len(ideal.vars), gens)
    while True:
        try:
            return run(_packed_forms(gens, packing), packing, ideal.max_degree, seeded), packing
        except _Overflow:
            packing = packing.wider()


def buchberger(ideal: Ideal, ordering=GREVLEX) -> GroebnerBasis:
    """Reduced Groebner basis of an ideal, under its degree cap.

    Deterministic: normal pair selection and fixed tie-breaking yield
    the same basis on every run.  ``ideal.max_degree`` caps the degree
    of leading terms and S-pair lcms.  The run starts from the ideal's
    seed when the seed is in ``ordering``.  Each element keeps its packed
    map (see ``poly._PackedPolynomial``): its primitive numerators over
    its leading coefficient.
    """
    final, packing = _packed_run(ideal, ordering, _packed_basis)
    vars = ideal.vars
    return GroebnerBasis(
        [_PackedPolynomial(vars, f, f[max(f)], packing) for f in final], ordering
    )


# ---------------------------------------------------------------------------
# Membership and arithmetic on ideals


def _divide(f: Polynomial, divisors, ordering):
    """Division of f by ``divisors`` in ``ordering``: the largest term
    left is cancelled by the first divisor whose leading term divides
    it, or else moves to the remainder.  Returns the quotients, one term
    map per divisor, and the remainder's term map."""
    key = ordering.key
    leads = [(g.leading_monomial(ordering), g) for g in divisors]
    quotients = [{} for _ in leads]
    work = dict(f.terms)
    rem = {}
    while work:
        m = max(work, key=key)
        for quot, (lt, g) in zip(quotients, leads):
            if monomial_divides(lt, m):
                break
        else:
            rem[m] = work.pop(m)
            continue
        shift = monomial_div(m, lt)
        coef = quot[shift] = work[m] / g.terms[lt]
        for mg, cg in g.terms.items():
            mm = monomial_mul(mg, shift)
            s = work.get(mm, 0) - coef * cg
            if s:
                work[mm] = s
            else:
                work.pop(mm, None)
    return quotients, rem


def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Remainder of f on division by a reduced basis (unique)."""
    if gb.elements and f.vars != gb.elements[0].vars:
        raise VariableSetMismatchError("polynomial and basis variable sets differ")
    return Polynomial(f.vars, _divide(f, gb.elements, gb.ordering)[1])


def in_ideal(f: Polynomial, ideal: Ideal, ordering=GREVLEX) -> bool:
    return normal_form(f, ideal.groebner_basis(ordering)).is_zero()


def is_unit_ideal(ideal: Ideal) -> bool:
    return ideal.groebner_basis(GREVLEX).is_unit()


def ideals_equal(a: Ideal, b: Ideal) -> bool:
    """Equality via uniqueness of the reduced grevlex basis."""
    return a.groebner_basis(GREVLEX).elements == b.groebner_basis(GREVLEX).elements


def s_polynomial(f: Polynomial, g: Polynomial, ordering=GREVLEX) -> Polynomial:
    lmf = f.leading_monomial(ordering)
    lmg = g.leading_monomial(ordering)
    lcm = monomial_lcm(lmf, lmg)
    mf = Polynomial(f.vars, {monomial_div(lcm, lmf): Fraction(1, 1) / f.terms[lmf]})
    mg = Polynomial(g.vars, {monomial_div(lcm, lmg): Fraction(1, 1) / g.terms[lmg]})
    return mf * f - mg * g


def ideal_sum(a: Ideal, b: Ideal) -> Ideal:
    if a.vars != b.vars:
        raise VariableSetMismatchError("ideal sum over different variable sets")
    return Ideal(a.generators + b.generators, a.vars, a.max_degree)


def eliminate(a: Ideal, drop) -> Ideal:
    """Intersection with the subring excluding the dropped variables.

    The result carries its reduced grevlex basis, the block-order basis
    elements free of the dropped variables (Cox, Little & O'Shea, ch. 3
    §1): on them the block order is grevlex in the kept variables.  An
    element is free of them when its leading term is, since the dropped
    block leads the order.  The result is over a's variables less the
    dropped ones, ambient and parameters kept apart."""
    drop_idx = sorted({a.vars.index(n) for n in drop})
    if len(drop_idx) >= len(a.vars):
        raise ValidationError("cannot eliminate every variable")
    dropped = {a.vars.names[i] for i in drop_idx}
    target = VariableSet(
        tuple(n for n in a.vars.ambient if n not in dropped),
        tuple(n for n in a.vars.parameters if n not in dropped),
    )
    order = MonomialOrdering.eliminating(drop_idx)
    kept = []
    for g in a.groebner_basis(order):
        lead = g.leading_monomial(order)
        if not any(lead[i] for i in drop_idx):
            kept.append(g.restrict(target))
    return Ideal.from_basis(GroebnerBasis(kept, GREVLEX), target, a.max_degree)


def ideal_intersection(a: Ideal, b: Ideal) -> Ideal:
    """Tag-variable intersection: eliminate t from t*a + (1-t)*b."""
    if a.vars != b.vars:
        raise VariableSetMismatchError("intersection over different variable sets")
    tag = a.vars.fresh_name("t_")
    ext = a.vars.extended(tag)
    t = Polynomial.variable(ext, tag)
    one = Polynomial.constant(ext, 1)
    gens = [t * g.lift(ext) for g in a.generators]
    gens += [(one - t) * g.lift(ext) for g in b.generators]
    return eliminate(Ideal(gens, ext, a.max_degree), [tag])


def exact_divide(p: Polynomial, g: Polynomial) -> Polynomial:
    """Divide p by g, which must divide exactly."""
    if g.is_zero():
        raise PreconditionError("division by the zero polynomial")
    (quot,), rem = _divide(p, [g], GREVLEX)
    if rem:
        raise DetsingError("exact division failed; numerator not a multiple")
    return Polynomial(p.vars, quot)


def ideal_quotient(a: Ideal, g: Polynomial) -> Ideal:
    """Colon ideal (a : g) via intersection with the principal ideal (g)."""
    if g.is_zero():
        raise PreconditionError("quotient by the zero polynomial")
    if g.is_constant():
        return a
    meet = ideal_intersection(a, Ideal([g], a.vars, a.max_degree))
    gens = [exact_divide(h, g) for h in meet.generators]
    return Ideal(gens, a.vars, a.max_degree)


def saturation(a: Ideal, b: Ideal) -> Ideal:
    """Saturation a : b^inf in one elimination, one tag per generator.

    For the non-zero generators g_1 ... g_r of b and fresh tags
    t_1 ... t_r, a : b^inf = (a + (1 - sum t_i*g_i)) with every tag
    eliminated (Cox, Little & O'Shea, *Ideals, Varieties, and
    Algorithms*, ch. 4 §4).  Proof: if g_i^N*h lies in a for every i,
    then (sum t_i*g_i)^(r(N-1)+1)*h lies in a[t] and that power is 1
    modulo 1 - sum t_i*g_i, so h is in the eliminated ideal; conversely,
    setting t_i = 1/g_i and the other tags to 0 in a certificate for h
    and clearing denominators puts g_i^N*h in a for each i, and the
    a : g_i^inf meet in a : b^inf.  A constant g gives a itself.  A
    degree-cap trip, in a's own basis or in the elimination, is re-raised
    naming the saturation and r.

    a's reduced grevlex basis, lifted, stands in for a's generators and
    seeds the elimination's run: on tag-free polynomials the elimination
    order compares exactly as grevlex in a's variables, so the lifted
    basis is reduced there.  It is not the extended ideal's basis, so it
    is not cached as one.
    """
    if a.vars != b.vars:
        raise VariableSetMismatchError("saturation over different variable sets")
    gens = b.generators
    if not gens:
        raise PreconditionError("saturation by the zero ideal")
    if any(g.is_constant() for g in gens):
        return a
    ext = a.vars
    for _ in gens:
        ext = ext.extended(ext.fresh_name("t_"))
    tags = ext.ambient[len(a.vars.ambient) :]
    tagged = Polynomial.constant(ext, 1)
    for tag, g in zip(tags, gens):
        tagged -= Polynomial.variable(ext, tag) * g.lift(ext)
    order = MonomialOrdering.eliminating([ext.index(t) for t in tags])
    try:
        seed = GroebnerBasis([h.lift(ext) for h in a.groebner_basis(GREVLEX)], order)
        return eliminate(Ideal.from_basis(seed, ext, a.max_degree, [tagged]), tags)
    except LimitError as exc:
        plural = "s" if len(gens) != 1 else ""
        raise LimitError(f"saturation by {len(gens)} generator{plural}: {exc}") from exc


# ---------------------------------------------------------------------------
# Dimension, support, colength


def _minimal_supports(lts) -> list[int]:
    """Inclusion-minimal variable supports of leading monomials (exponent
    tuples), each a bitmask (bit i set when variable i divides the
    monomial), sorted by size and then by mask."""
    supports = sorted(
        {sum(1 << i for i, e in enumerate(lt) if e) for lt in lts},
        key=lambda s: (s.bit_count(), s),
    )
    minimal = []
    for s in supports:
        if all(m & s != m for m in minimal):
            minimal.append(s)
    return minimal


def _cover_dimension(supports, q) -> int:
    """Krull dimension of the quotient by a monomial ideal over q
    variables whose minimal generators have these minimal supports
    (:func:`_minimal_supports`): q minus the size of the smallest
    variable set meeting every support.  A variable subset is
    independent modulo the monomial ideal when it contains no support
    (Cox, Little & O'Shea, *Ideals, Varieties, and Algorithms*, ch. 9
    §1).  No support gives q.

    The smallest cover is found by a depth-first branch-and-bound on an
    explicit stack.  Each node fixes some variables in the cover
    (``chosen``) and some out of it (``excluded``).  It branches on the
    open support with the fewest free variables v_1 < ... < v_k: branch
    k puts v_k in and keeps v_1 ... v_(k-1) out, so no cover is visited
    twice and there are at most 2^q nodes.  A node is pruned when an open
    support lies wholly in ``excluded``, or when its chosen count plus a
    greedy count of pairwise-disjoint open supports (a lower bound on
    what is still needed) cannot beat the best cover found.
    """
    # One variable from each support is a cover, and so is every variable.
    best = min(q, len(supports))
    stack = [(0, 0, 0)]
    while stack:
        chosen, count, excluded = stack.pop()
        open_ = [s for s in supports if not s & chosen]
        if not open_:
            best = min(best, count)
            continue
        if any(not s & ~excluded for s in open_):
            continue
        needed = seen = 0
        for s in open_:
            if not s & seen:
                seen |= s
                needed += 1
        if count + needed >= best:
            continue
        branch = min((s & ~excluded for s in open_), key=int.bit_count)
        children = []
        while branch:
            bit = branch & -branch
            children.append((chosen | bit, count + 1, excluded))
            excluded |= bit
            branch ^= bit
        stack.extend(reversed(children))
    return q - best


def _vanishes_at_origin(g) -> bool:
    """True when the polynomial g has no constant term.  The monomial 1
    is the smallest in every ordering, so a packed g has one exactly when
    its smallest packed monomial is ``one``."""
    packing = g._packing
    if packing is not None:
        return min(g._packed) != packing.one
    return (0,) * len(g.vars) not in g._ints


def dimension(a: Ideal) -> int:
    """Krull dimension of the quotient ring; -1 for the unit ideal.

    The dimension of a equals that of its leading-term ideal in grevlex,
    so it is :func:`_cover_dimension` of the leading terms of a's reduced
    grevlex basis (Cox, Little & O'Shea, ch. 9 §3).

    A rank stratum is first tried without a basis.  The leading terms of
    any elements of a generate a monomial ideal inside a's leading-term
    ideal, so their cover dimension is a ceiling on dim a.  A floor comes
    from ``a._height``, which ``detmodel.stratum`` sets to the expected
    codimension of its ideal of i x i minors: every minimal prime of a
    proper ideal of i x i minors of an r x s matrix has height at most
    (r - i + 1)(s - i + 1) (Eagon & Northcott, "Ideals defined by
    matrices and a certain complex associated with them", Proc. Roy. Soc.
    A 1962; Bruns & Vetter, *Determinantal Rings*, Thm 2.1), so such an
    ideal has dimension at least q - ``_height``.  The certificate runs
    only when all four hold:

    - ``a._height`` is set;
    - a has no degree cap, so a capped basis trips its cap as before;
    - no reduced grevlex basis is cached, which would be read instead;
    - every generator vanishes at the origin, so a is proper.

    It reads the grevlex leading terms of a's generators, and when their
    cover dimension meets the floor q - ``_height``, that is the
    dimension and no basis is built.  Otherwise the basis is.
    """
    q = len(a.vars)
    if (
        a._height is not None
        and a.max_degree is None
        and a.cached_basis() is None
        and all(map(_vanishes_at_origin, a.generators))
    ):
        floor = q - a._height
        lts = [g.leading_monomial(GREVLEX) for g in a.generators]
        if _cover_dimension(_minimal_supports(lts), q) == floor:
            return floor
    basis = a.groebner_basis(GREVLEX)
    if basis.is_unit():
        return -1
    return _cover_dimension(_minimal_supports(basis.leading_monomials()), q)


def _certify_step(powers, p, packing):
    """One step of the origin certificate (:func:`_certifies_origin`) on
    ``p``, the packed grevlex map of an element of a: True once the
    elements stepped so far prove that V(a) lies in the origin.  The
    degree field leads, with only its guard bit above, so ``m >>
    degrees[0]`` is a degree, and p is homogeneous when its smallest term
    has its lead's degree; only then does it step.  A constant proves it;
    a lead x_i^d, d > 0, packed as ``one + d*coeffs[i]``
    (:meth:`_Packing.pack`), adds i to ``powers``."""
    top = packing.degrees[0]
    lead = max(p)
    degree = lead >> top
    if min(p) >> top != degree:
        return False
    if not degree:
        return True
    power, rest = divmod(lead - packing.one, degree)
    if not rest and power in packing.coeffs:
        powers.add(packing.coeffs.index(power))
    return len(powers) == packing.width


def _certifies_origin(polys, width):
    """True when elements of an ideal a, polynomials over ``width``
    variables, prove that V(a) lies in the origin: one is a nonzero
    constant, or the homogeneous ones have grevlex leading terms that
    include a pure power of each variable (a one-term pure power is such
    an element).  The homogeneous elements then generate a homogeneous ideal
    J in a whose leading-term ideal has finite colength, so J is
    zero-dimensional (Macaulay's theorem); its zero set is a cone, so it
    is the origin alone, and V(a) lies in V(J) (the graded
    Nullstellensatz; Cox, Little & O'Shea, ch. 5 §3 and ch. 8 §3).  The
    elements need not be a basis, and unlike a one-term power of every
    variable the test survives a linear change of coordinates.  Each
    element is one :func:`_certify_step` on its packed grevlex form
    (:func:`_packed_forms`)."""
    packing = _Packing.for_input(GREVLEX, width, polys)
    powers = set()
    return any(_certify_step(powers, p, packing) for p in _packed_forms(polys, packing))


def _origin_certified(a: Ideal) -> bool:
    """True when :func:`_certifies_origin` proves V(a) lies in the origin
    from elements of a, with no saturation.  The sources are tried
    cheapest first, up to the first that proves it:

    1. a's reduced grevlex basis when it is cached, and nothing else;
    2. a's generators;
    3. the rows of Buchberger's input phase, the generators interreduced
       (:func:`_interreduce_input`), each stepped (:func:`_certify_step`)
       as it is kept, up to the first row that completes the proof;
    4. a's reduced grevlex basis, computed and cached.

    One cap test gates 2 and 3: they run only when no generator exceeds
    a's degree cap, and otherwise 4 runs at once and trips the cap where
    the basis does.  Grevlex is degree-compatible, so interreduction
    cannot raise a leading degree and no row of 3 exceeds the cap: a
    capped run that 2 or 3 certifies skips only cap trips of the S-pair
    phase.  Step 3 interreduces every generator and ignores any seed,
    such as the grevlex one of an origin component.
    """
    width = len(a.vars)
    cap = a.max_degree
    if a.cached_basis() is None and (
        cap is None or all(g.total_degree() <= cap for g in a.generators)
    ):
        if _certifies_origin(a.generators, width):
            return True
        step = partial(_certify_step, set())
        rows, _ = _packed_run(
            a, GREVLEX, lambda polys, packing, *_: _interreduce_input(polys, packing, step)
        )
        if rows is None:
            return True
    return _certifies_origin(a.groebner_basis().elements, width)


def support_is_origin_only(a: Ideal) -> bool:
    """True when V(a) lies in the origin (so the unit ideal, whose zero
    set is empty, passes).  Elements of a that :func:`_origin_certified`
    accepts (a nonzero constant, or homogeneous elements led by a pure
    power of every variable) settle it at once.  When they do not, a's
    reduced grevlex basis is cached, and a of positive Krull dimension
    fails: V(a) within the origin would make it at most 0.  A
    zero-dimensional a passes when it is its own origin-primary
    component (:func:`_origin_component`): their reduced bases agree.
    No saturation is run.  Counting a's standard monomials raises
    LimitError past 200,000 of them."""
    if _origin_certified(a) or is_unit_ideal(a):
        return True
    if dimension(a) > 0:
        return False
    return ideals_equal(_origin_component(a), a)


def _standard_monomials(basis: GroebnerBasis, width, cap=200000) -> int:
    """Number of monomials outside the leading-term ideal (finitely many
    required), counted slice by slice (:func:`_staircase_count`) with no
    monomial formed.  Raises LimitError as soon as the count passes
    ``cap``."""
    lts = basis.leading_monomials()
    # Zero-dimensionality certificate: a pure power of every variable
    # leads, that is, every {j} is a leading-term support.
    supports = set(_minimal_supports(lts))
    for j in range(width):
        if 1 << j not in supports:
            raise PreconditionError(
                "ideal is not zero-dimensional: no pure-power leading term "
                f"in variable index {j}"
            )
    return _staircase_count(lts, cap)


def _staircase_count(lts, cap) -> int:
    """Number of monomials that no exponent tuple in ``lts`` divides,
    given a pure power of every variable among them.  In one variable it
    is the smallest such power p.  Otherwise, with p the smallest power
    of the last variable, it is the sum over e < p of the counts of the
    slices at x^e: m * x^e, m free of the last variable, is divisible by
    no lt exactly when m is divisible by no ``lt[:-1]`` with ``lt[-1] <=
    e``, and x^p divides every monomial past those slices.  Each slice
    is counted against what is left of ``cap``, so the count raises
    LimitError as soon as it passes the cap."""
    top = min(lt[-1] for lt in lts if not any(lt[:-1]))
    if len(lts[0]) == 1:
        if top > cap:
            raise LimitError("standard monomial enumeration exceeded cap")
        return top
    count = 0
    for e in range(top):
        count += _staircase_count([lt[:-1] for lt in lts if lt[-1] <= e], cap - count)
    return count


def colength(a: Ideal) -> int:
    """Vector-space dimension of the quotient ring for an ideal supported
    at the origin only (equals the local colength there): the number of
    standard monomials of the reduced grevlex basis.  The support is
    checked after the count, as :func:`support_is_origin_only` checks it
    on a zero-dimensional proper ideal: :func:`_origin_certified`, which
    reads the cached basis, else the origin-primary component built from
    this count; a support off the origin raises PreconditionError."""
    basis = a.groebner_basis(GREVLEX)
    if basis.is_unit():
        raise PreconditionError("colength of the unit ideal is undefined")
    count = _standard_monomials(basis, len(a.vars))
    if not (_origin_certified(a) or ideals_equal(_origin_component(a, count), a)):
        raise PreconditionError(
            "support is not confined to the origin; colength here is a "
            "local invariant this operation cannot produce"
        )
    return count


def _origin_component(a: Ideal, d=None) -> Ideal:
    """The origin-primary component of a zero-dimensional proper ideal
    a: a + (x_1^d, ..., x_q^d), d the count of standard monomials of a's
    reduced grevlex basis (counted here unless given); the unit ideal
    when the origin is not in V(a).
    The quotient by a is the product of its local rings at the points of
    V(a) (Cox, Little & O'Shea, *Using Algebraic Geometry*, ch. 4 §2).
    The one at the origin has length at most d, so every x_i^d vanishes
    there, while at every other point some x_i, hence x_i^d, is a unit.
    The component's basis run starts from a's basis as its seed, so each
    power is reduced by the packed reducer before it pairs with a."""
    basis = a.groebner_basis(GREVLEX)
    if d is None:
        d = _standard_monomials(basis, len(a.vars))
    powers = [Polynomial.variable(a.vars, n) ** d for n in a.vars.names]
    return Ideal.from_basis(basis, a.vars, a.max_degree, powers)


def colength_at_origin(a: Ideal) -> int:
    """Colength of the origin-primary component (0 when the origin is not
    in the zero set), counted as its standard monomials.  Needs a
    zero-dimensional ideal.  The component is a itself when
    :func:`_origin_certified` accepts a, else :func:`_origin_component`;
    no saturation is run.  Counting standard monomials raises LimitError
    past 200,000 of them."""
    if is_unit_ideal(a):
        return 0
    if dimension(a) != 0:
        raise PreconditionError("colength at the origin needs a zero-dimensional ideal")
    basis = (a if _origin_certified(a) else _origin_component(a)).groebner_basis(GREVLEX)
    return 0 if basis.is_unit() else _standard_monomials(basis, len(a.vars))
