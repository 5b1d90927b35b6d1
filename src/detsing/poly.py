"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial is an immutable exact value over an ordered variable set,
stored in one form: nonzero integer numerators over one positive common
denominator.  Every operation reads and builds that form, so the
determinant, the derivative, lifting and restriction, the ring operators,
substitution and Buchberger's algorithm pass values between them without
a Fraction.  The numerators are keyed by exponent tuples, except in a
polynomial born packed: a minor from the determinant, a basis element
from the Groebner engine, or a derivative of either, keys them by the
engine's packed monomials and keeps the packing they are in (see
``_PackedPolynomial``), so a minor enters the engine, a basis leaves it,
and a basis's Jacobian reaches the determinant, with no monomial
converted.
The exponent-tuple map of such a polynomial, and the term map from
exponent tuples to nonzero Fraction coefficients (``terms``) of every
polynomial, are views derived on first read and kept; nothing is ever
computed back from them.  Equality and hashing are by value.  Exponent
tuples index into the variable set, whose order is fixed for the
lifetime of a computation.  All operations are pure; any value may be
shared freely.  Lifting, restriction and substitution share one loop
that re-indexes exponents (``Polynomial._reindex``).

The text grammar accepted by :func:`parse_polynomial`:

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' nat)?
    base   := rational | ident | '(' expr ')'
    rational := nat ('/' nat)?

Whitespace is insignificant.  Identifiers are a letter followed by
letters, digits or underscores.  The ``'/' nat`` denominator is a strict
extension of the integer-only model-file grammar so that printed
polynomials with rational coefficients re-parse (print/parse round
trip); integer-coefficient input is unaffected.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .errors import (
    ParseError,
    UnknownVariableError,
    ValidationError,
    VariableSetMismatchError,
)

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

# Deepest parenthesis nesting accepted.  Each level costs the recursive
# descent four stack frames, so the bound keeps a parse well inside
# Python's default recursion limit and turns deeper input into a
# ParseError instead of a RecursionError.
_MAX_NESTING = 200


class VariableSet(namedtuple("VariableSet", ("ambient", "parameters"), defaults=((),))):
    """Ordered, disjoint ambient coordinates and family parameters.

    A named tuple of its two fields; the position of each name is looked
    up in a map built once, when the set is made."""

    def __new__(cls, ambient, parameters=()):
        names = ambient + parameters
        if not names:
            raise ValidationError("variable set must not be empty")
        index = {n: i for i, n in enumerate(names)}
        if len(index) != len(names):
            raise ValidationError("variable names must be unique")
        self = super().__new__(cls, ambient, parameters)
        self.__dict__["_index"] = index
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @property
    def names(self):
        return self.ambient + self.parameters

    def __len__(self):
        return len(self.ambient) + len(self.parameters)

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise UnknownVariableError(f"unknown variable {name!r}") from None

    def is_parameter(self, name):
        return name in self.parameters

    def without_ambient(self, name):
        """Variable set with one ambient coordinate removed (slicing)."""
        if name not in self.ambient:
            raise UnknownVariableError(f"{name!r} is not an ambient variable")
        return VariableSet(tuple(v for v in self.ambient if v != name), self.parameters)

    def ambient_only(self):
        return VariableSet(self.ambient, ())

    def extended(self, extra):
        """Append a fresh working variable (tag variables for elimination)
        to the ambient coordinates; the parameters stay."""
        return VariableSet(self.ambient + (extra,), self.parameters)

    def fresh_name(self, stem):
        name = stem
        i = 0
        while name in self._index:
            i += 1
            name = f"{stem}{i}"
        return name


def _grevlex_key(exps):
    # Ascending sort key: compare total degree, then reversed negated exponents.
    return (sum(exps), tuple(-e for e in reversed(exps)))


class MonomialOrdering(NamedTuple):
    """A monomial order: grevlex, lex, or block elimination.

    ``block`` holds the indices of the first (eliminated) block; for the
    public block-elimination(first-block-size) form it is range(size).
    """

    kind: str
    block: tuple = ()

    @staticmethod
    def grevlex():
        return MonomialOrdering("grevlex")

    @staticmethod
    def lex():
        return MonomialOrdering("lex")

    @staticmethod
    def block_elimination(first_block_size):
        return MonomialOrdering("block", tuple(range(first_block_size)))

    @staticmethod
    def eliminating(indices):
        return MonomialOrdering("block", tuple(sorted(indices)))

    def key(self, exps):
        """Sort key; larger key means larger monomial."""
        if self.kind == "grevlex":
            return _grevlex_key(exps)
        if self.kind == "lex":
            return exps
        inside = self.block
        first = tuple(exps[i] for i in inside)
        rest = tuple(e for i, e in enumerate(exps) if i not in inside)
        return (_grevlex_key(first), _grevlex_key(rest))


GREVLEX = MonomialOrdering.grevlex()
LEX = MonomialOrdering.lex()


def monomial_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a, b):
    """True when monomial a divides monomial b."""
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def monomial_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients.

    It stores ``_ints`` (exponent tuple -> nonzero integer numerator) and
    ``_den`` (a positive integer), set when it is constructed: its
    integer form.  The map is shared; readers must not change it.  A
    polynomial born packed is a :class:`_PackedPolynomial`; every other
    one has no packing."""

    __slots__ = ("vars", "_terms", "_ints", "_den", "_hash")
    _packing = None

    def __init__(self, vars: VariableSet, terms=None):
        self.vars = vars
        clean = {}
        if terms:
            width = len(vars)
            for mono, coeff in terms.items():
                if type(coeff) is not Fraction:
                    coeff = Fraction(coeff)
                if coeff == 0:
                    continue
                if len(mono) != width or min(mono) < 0:
                    raise ValidationError(f"bad exponent vector {mono!r}")
                clean[tuple(mono)] = coeff
        den = lcm(*[c.denominator for c in clean.values()])
        self._terms = None
        self._ints = {m: c.numerator * (den // c.denominator) for m, c in clean.items()}
        self._den = den
        self._hash = None

    @classmethod
    def _integral(cls, vars, ints, den):
        """The polynomial sum(ints[m] * x^m) / den from its integer form:
        a map from exponent tuples of the set's width with no negative
        entry to integers, and a positive ``int`` denominator.  Nothing
        is checked: the only callers are ``zero``, ``constant``,
        ``variable``, ``+``, ``-``, ``*``, ``scale``, ``derivative`` and
        ``_reindex``, which build the form from polynomials already
        made; outside terms go through the constructor.  The map is kept
        as it is unless it holds a zero coefficient, which is dropped."""
        if 0 in ints.values():
            ints = {m: c for m, c in ints.items() if c}
        self = cls.__new__(cls)
        self.vars = vars
        self._terms = None
        self._ints = ints
        self._den = den
        self._hash = None
        return self

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(vars):
        return Polynomial._integral(vars, {}, 1)

    @staticmethod
    def constant(vars, value):
        value = Fraction(value)
        return Polynomial._integral(
            vars, {(0,) * len(vars): value.numerator}, value.denominator
        )

    @staticmethod
    def variable(vars, name):
        exp = [0] * len(vars)
        exp[vars.index(name)] = 1
        return Polynomial._integral(vars, {tuple(exp): 1}, 1)

    # -- the stored form and the term map ------------------------------

    @property
    def terms(self):
        """The term map: exponent tuple -> nonzero Fraction, derived from
        the integer form on first read."""
        terms = self._terms
        if terms is None:
            den = self._den
            terms = self._terms = {m: Fraction(c, den) for m, c in self._ints.items()}
        return terms

    # -- inspection ----------------------------------------------------

    def is_zero(self):
        return not self._ints

    def is_constant(self):
        return all(sum(m) == 0 for m in self._ints)

    def total_degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max(map(sum, self._ints), default=-1)

    def leading_monomial(self, ordering=GREVLEX):
        if not self._ints:
            raise ValidationError("zero polynomial has no leading monomial")
        return max(self._ints, key=ordering.key)

    def leading_coefficient(self, ordering=GREVLEX):
        return Fraction(self._ints[self.leading_monomial(ordering)], self._den)

    def __bool__(self):
        return bool(self._ints)

    def __eq__(self, other):
        # a / da == b / db term by term, cross-multiplied.
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, da = self._ints, self._den
        b, db = other._ints, other._den
        return (
            self.vars == other.vars
            and a.keys() == b.keys()
            and all(c * db == b[m] * da for m, c in a.items())
        )

    def __hash__(self):
        # The integer form divided by the gcd of its numerators and
        # denominator is the same for every form of one value.
        if self._hash is None:
            ints = self._ints
            g = gcd(self._den, *ints.values())
            items = frozenset((m, c // g) for m, c in ints.items())
            self._hash = hash((self.vars.names, self._den // g, items))
        return self._hash

    def __repr__(self):
        return f"Polynomial({poly_to_str(self)!r})"

    # -- arithmetic ----------------------------------------------------

    def _check(self, other):
        if self.vars != other.vars:
            raise VariableSetMismatchError("operands use different variable sets")

    def __add__(self, other):
        self._check(other)
        da, db = self._den, other._den
        den = lcm(da, db)
        ka, kb = den // da, den // db
        out = {m: c * ka for m, c in self._ints.items()}
        for m, c in other._ints.items():
            out[m] = out.get(m, 0) + c * kb
        return Polynomial._integral(self.vars, out, den)

    def __neg__(self):
        return Polynomial._integral(
            self.vars, {m: -c for m, c in self._ints.items()}, self._den
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        out = {}
        b = other._ints.items()
        for ma, ca in self._ints.items():
            for mb, cb in b:
                m = monomial_mul(ma, mb)
                out[m] = out.get(m, 0) + ca * cb
        return Polynomial._integral(self.vars, out, self._den * other._den)

    __rmul__ = __mul__

    def scale(self, c):
        c = Fraction(c)
        num = c.numerator
        return Polynomial._integral(
            self.vars, {m: v * num for m, v in self._ints.items()}, self._den * c.denominator
        )

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValidationError("polynomial powers must be non-negative integers")
        result = Polynomial.constant(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus and substitution --------------------------------------

    def derivative(self, name):
        """Formal partial derivative with respect to one variable."""
        j = self.vars.index(name)
        out = {}
        for m, c in self._ints.items():
            e = m[j]
            if e:
                out[m[:j] + (e - 1,) + m[j + 1 :]] = c * e
        return Polynomial._integral(self.vars, out, self._den)

    def substitute(self, assignment, target=None):
        """Simultaneous substitution of polynomials for variables.

        ``assignment`` maps variable names to polynomials over a common
        target variable set.  Variables not assigned must exist (by
        name) in the target set and map to themselves.
        """
        values = {}
        for name, val in assignment.items():
            i = self.vars.index(name)  # raises for unknown names
            if not isinstance(val, Polynomial):
                raise ValidationError("substitution values must be polynomials")
            values[i] = val
        if target is None:
            target = next((val.vars for val in values.values()), self.vars)
        if any(val.vars != target for val in values.values()):
            raise VariableSetMismatchError("substitution values use different variable sets")
        for i, name in enumerate(self.vars.names):
            if i not in values:
                target.index(name)  # raises for names the target lacks
        return self._reindex(target, values)

    def lift(self, target: VariableSet):
        """Re-express over a larger variable set containing the same names."""
        return self.substitute({}, target)

    def restrict(self, target: VariableSet):
        """Re-express over a smaller variable set; dropped variables must
        not occur."""
        return self._reindex(target, {})

    def _reindex(self, target, values):
        """This polynomial over ``target`` with ``values[i]`` (over
        ``target``) put for variable i.  Any other variable keeps its name,
        which ``target`` must hold where the variable occurs.  Terms that
        agree in the assigned exponents form one polynomial, multiplied
        once by the cached powers of the values."""
        names = self.vars.names
        width = len(target)
        # An assigned exponent goes past the target's, into its group key.
        positions = [target._index.get(n) for n in names]
        for k, i in enumerate(values):
            positions[i] = width + k
        ints, den = self._ints, self._den
        out = {}
        groups = {}
        for m, c in ints.items():
            mm = [0] * (width + len(values))
            for name, pos, e in zip(names, positions, m):
                if e:
                    if pos is None:
                        raise ValidationError(
                            f"variable {name!r} occurs but is not in the target set"
                        )
                    mm[pos] = e
            if values:
                out = groups.setdefault(tuple(mm[width:]), {})
                del mm[width:]
            out[tuple(mm)] = c
        if not values:
            return Polynomial._integral(target, out, den)
        # Each group takes its numerators; the sum is divided by the
        # denominator once, at the end.
        result = Polynomial.zero(target)
        powers = {}
        for exps, group in groups.items():
            piece = Polynomial._integral(target, group, 1)
            for i, e in zip(values, exps):
                if e:
                    if (i, e) not in powers:
                        powers[i, e] = values[i] ** e
                    piece = piece * powers[i, e]
            result = result + piece
        return Polynomial._integral(target, result._ints, result._den * den)


class _PackedPolynomial(Polynomial):
    """A nonzero polynomial born packed, by the determinant, the basis
    engine, or the derivative of one born packed.  It stores its
    numerators keyed by packed monomials (``_packed``), in the layout of
    ``_packing`` (a ``groebner._Packing``: one int per monomial, and
    integer ``<`` its ordering), over the positive denominator ``_den``.
    The exponent-tuple map ``_ints`` is derived from the packed map on
    first read and kept, as ``terms`` is from ``_ints``.  Zero tests,
    degrees, leading monomials in the packing's ordering and derivatives
    read the packed map; everything else reads ``_ints`` and builds
    polynomials that are not packed."""

    __slots__ = ("_packed", "_packing", "_unpacked")

    def __init__(self, vars, packed, den, packing):
        self.vars = vars
        self._terms = None
        self._den = den
        self._hash = None
        self._packed = packed
        self._packing = packing
        self._unpacked = None

    @property
    def _ints(self):
        ints = self._unpacked
        if ints is None:
            unpack = self._packing.unpack
            ints = self._unpacked = {unpack(m): c for m, c in self._packed.items()}
        return ints

    def is_zero(self):
        return not self._packed

    def __bool__(self):
        return bool(self._packed)

    def is_constant(self):
        # The monomial 1 is the smallest in every ordering.
        return max(self._packed) == self._packing.one

    def total_degree(self):
        return self._packing.largest_degree(self._packed)

    def leading_monomial(self, ordering=GREVLEX):
        packing = self._packing
        if ordering != packing.ordering:
            return super().leading_monomial(ordering)
        return packing.unpack(max(self._packed))

    def derivative(self, name):
        """Formal partial derivative, read from and born in the packed
        map: a term's exponent e of the variable is ``limit`` less its
        complement field, and lowering it by one subtracts the variable's
        ``coeffs`` entry.  The result keeps this packing and denominator,
        and is the unpacked zero when no term has the variable."""
        j = self.vars.index(name)
        packing = self._packing
        limit, shift, step = packing.limit, packing.slots[j], packing.coeffs[j]
        out = {}
        for m, c in self._packed.items():
            e = limit - ((m >> shift) & limit)
            if e:
                out[m - step] = c * e
        if not out:
            return Polynomial.zero(self.vars)
        return _PackedPolynomial(self.vars, out, self._den, packing)


# ---------------------------------------------------------------------------
# Parsing


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.depth = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def error(self, message):
        raise ParseError(message, position=self.pos)

    def take_nat(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected a non-negative integer")
        return int(self.text[start : self.pos])

    def take_ident(self):
        self.skip_ws()
        m = _IDENT_RE.match(self.text, self.pos)
        if not m:
            self.error("expected an identifier")
        self.pos = m.end()
        return m.group(0)

    def take(self, ch):
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch):
        if not self.take(ch):
            self.error(f"expected {ch!r}")


def parse_polynomial(text, vars: VariableSet) -> Polynomial:
    """Parse a polynomial expression over the given variables."""
    toks = _Tokens(text)
    poly = _parse_expr(toks, vars)
    toks.skip_ws()
    if toks.pos != len(toks.text):
        toks.error(f"unexpected input {toks.text[toks.pos]!r}")
    return poly


def _parse_expr(toks, vars):
    negate = toks.take("-")
    poly = _parse_term(toks, vars)
    if negate:
        poly = -poly
    while True:
        if toks.take("+"):
            poly = poly + _parse_term(toks, vars)
        elif toks.take("-"):
            poly = poly - _parse_term(toks, vars)
        else:
            return poly


def _parse_term(toks, vars):
    poly = _parse_factor(toks, vars)
    while toks.take("*"):
        poly = poly * _parse_factor(toks, vars)
    return poly


def _parse_factor(toks, vars):
    base = _parse_base(toks, vars)
    if toks.take("^"):
        return base ** toks.take_nat()
    return base


def _parse_base(toks, vars):
    ch = toks.peek()
    if ch is None:
        toks.error("unexpected end of expression")
    if ch == "(":
        if toks.depth == _MAX_NESTING:
            toks.error(f"parentheses nested deeper than {_MAX_NESTING} levels")
        toks.take("(")
        toks.depth += 1
        inner = _parse_expr(toks, vars)
        toks.expect(")")
        toks.depth -= 1
        return inner
    if ch.isdigit():
        num = toks.take_nat()
        if toks.take("/"):
            den = toks.take_nat()
            if den == 0:
                toks.error("zero denominator")
            return Polynomial.constant(vars, Fraction(num, den))
        return Polynomial.constant(vars, num)
    if ch.isalpha():
        start = toks.pos
        name = toks.take_ident()
        try:
            return Polynomial.variable(vars, name)
        except UnknownVariableError:
            raise ParseError(f"unknown variable {name!r}", position=start) from None
    toks.error(f"unexpected character {ch!r}")


# ---------------------------------------------------------------------------
# Printing


def rational_str(c: Fraction):
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def _monomial_str(mono, names):
    parts = []
    for name, e in zip(names, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def poly_to_str(p: Polynomial) -> str:
    """Canonical text form: terms in descending grevlex order."""
    if p.is_zero():
        return "0"
    names = p.vars.names
    monos = sorted(p.terms, key=GREVLEX.key, reverse=True)
    pieces = []
    for m in monos:
        c = p.terms[m]
        mono = _monomial_str(m, names)
        mag = abs(c)
        if not mono:
            body = rational_str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{rational_str(mag)}*{mono}"
        pieces.append(("-" if c < 0 else "+", body))
    sign, body = pieces[0]
    out = body if sign == "+" else "-" + body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out
