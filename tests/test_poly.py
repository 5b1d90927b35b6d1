import random
from fractions import Fraction

import pytest

from detsing import (
    GREVLEX,
    LEX,
    Ideal,
    MonomialOrdering,
    ParseError,
    Polynomial,
    UnknownVariableError,
    VariableSet,
    VariableSetMismatchError,
    ValidationError,
    chain_rule_check,
    parse_polynomial,
    poly_to_str,
)
from detsing.detmodel import _all_minors
from helpers import P, XY, omega_model, omega_vars, random_poly, watch_term_maps
from oracles import (
    reference_add,
    reference_derivative,
    reference_lift,
    reference_mul,
    reference_restrict,
    reference_scale,
    reference_substitute,
)


class TestParse:
    def test_two_term_minor(self):
        vs = omega_vars()
        p = P("x1*x5 - x2*x4", vs)
        assert len(p.terms) == 2
        assert set(p.terms.values()) == {Fraction(1), Fraction(-1)}

    def test_zero(self):
        assert P("0", XY).is_zero()

    def test_distributes(self):
        vs = omega_vars()
        assert P("x1*(x1 + y^4)", vs) == P("x1^2 + x1*y^4", vs)

    def test_leading_minus_and_parens(self):
        assert P("-x + y", XY) == P("y - x", XY)
        assert P("x*(-x + 1)", XY) == P("x - x^2", XY)

    def test_rational_literal(self):
        p = P("3/2*x", XY)
        assert p.leading_coefficient() == Fraction(3, 2)

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            P("x + * y", XY)
        assert err.value.position is not None

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="unknown variable"):
            P("x + w", XY)

    def test_exponent_must_be_literal(self):
        with pytest.raises(ParseError):
            P("x^y", XY)
        with pytest.raises(ParseError):
            P("x^(2)", XY)

    def test_juxtaposition_rejected(self):
        with pytest.raises(ParseError):
            P("2x", XY)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            P("x + y )", XY)

    def test_deep_nesting_is_a_parse_error(self):
        assert P("(" * 200 + "x" + ")" * 200, XY) == P("x", XY)
        for depth in (201, 300, 5000):
            with pytest.raises(ParseError, match="nested deeper than 200") as err:
                P("(" * depth + "x" + ")" * depth, XY)
            assert err.value.position == 200
        # Nesting depth, not the count of parentheses, is what is bounded.
        assert P(" + ".join(["((x))"] * 300), XY) == P("300*x", XY)


class TestPrintParseRoundTrip:
    def test_round_trip_random(self):
        rng = random.Random(101)
        for _ in range(120):
            p = random_poly(rng, XY, max_degree=4, max_terms=5)
            assert parse_polynomial(poly_to_str(p), XY) == p

    def test_round_trip_rational_coefficients(self):
        rng = random.Random(102)
        for _ in range(60):
            p = random_poly(rng, XY, max_degree=3)
            p = p.scale(Fraction(rng.randint(1, 9), rng.randint(2, 9)))
            assert parse_polynomial(poly_to_str(p), XY) == p

    def test_zero_prints_parseable(self):
        assert poly_to_str(Polynomial.zero(XY)) == "0"


class TestRingAxioms:
    def test_axioms_random_triples(self):
        rng = random.Random(7)
        for _ in range(50):
            a = random_poly(rng, XY, 3)
            b = random_poly(rng, XY, 3)
            c = random_poly(rng, XY, 3)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c

    def test_additive_inverse(self):
        rng = random.Random(8)
        p = random_poly(rng, XY, 4)
        assert (p + (-p)).is_zero()

    def test_multiplicative_unit(self):
        p = P("x^2 + 1", XY)
        assert p * Polynomial.constant(XY, 1) == p

    def test_difference_of_squares(self):
        assert P("x + y", XY) * P("x - y", XY) == P("x^2 - y^2", XY)

    def test_degree_additive(self):
        rng = random.Random(9)
        for _ in range(40):
            a = random_poly(rng, XY, 3)
            b = random_poly(rng, XY, 3)
            if a.is_zero() or b.is_zero():
                continue
            assert (a * b).total_degree() == a.total_degree() + b.total_degree()


class TestCalculus:
    def test_product_rule_examples(self):
        vs = omega_vars()
        assert P("x1*(x1 + y^4)", vs).derivative("x1") == P("2*x1 + y^4", vs)
        assert P("x1*x5", vs).derivative("y").is_zero()
        assert P("x1*y^3", vs).derivative("y") == P("3*x1*y^2", vs)

    def test_leibniz_random(self):
        rng = random.Random(11)
        for _ in range(40):
            p = random_poly(rng, XY, 3)
            q = random_poly(rng, XY, 3)
            left = (p * q).derivative("x")
            right = p * q.derivative("x") + q * p.derivative("x")
            assert left == right

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            P("x", XY).derivative("nope")

    def test_packed_derivative_matches_the_tuple_born_one_property(self):
        """The derivative of a polynomial born packed, by the determinant
        (grevlex) or as a reduced basis element in grevlex, lex and an
        elimination order, equals that of a tuple-born copy in every
        variable.  A nonzero one is read and born in the packed map: it
        keeps the packing and the denominator, and neither it nor its
        source has unpacked a monomial.  A vanishing one is the unpacked
        zero."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        xyu = VariableSet(("x", "y"), ("u",))
        orders = [GREVLEX, LEX, MonomialOrdering.eliminating([0])]
        entry = st.builds(
            lambda ints, den: Polynomial._integral(xyu, ints, den),
            st.dictionaries(
                st.tuples(*[st.integers(0, 2)] * len(xyu)),
                st.integers(-9, 9).filter(bool),
                max_size=3,
            ),
            st.integers(1, 6),
        )

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
        @hypothesis.given(st.lists(entry, min_size=4, max_size=4))
        def run(entries):
            grid = [entries[:2], entries[2:]]
            born = _all_minors(grid, 1, xyu) + _all_minors(grid, 2, xyu)
            gens = [e for e in entries[:2] if e]
            for order in orders if gens else ():
                born += Ideal(gens, xyu).groebner_basis(order).elements
            for g in born:
                if not g:
                    continue
                packing = g._packing
                ints = {packing.unpack(m): c for m, c in g._packed.items()}
                tuple_born = Polynomial._integral(xyu, ints, g._den)
                for name in xyu.names:
                    d = g.derivative(name)
                    assert g._unpacked is None
                    if d:
                        assert d._packing is packing and d._den == g._den
                        assert d._unpacked is None
                    else:
                        assert d.is_zero() and d._packing is None
                    want = tuple_born.derivative(name)
                    assert d == want and hash(d) == hash(want)
                    assert d == reference_derivative(tuple_born, name)
                checked.append(g)

        checked = []
        run()
        orderings = {g._packing.ordering for g in checked}
        assert orderings == set(orders)


class TestSubstitute:
    def test_drop_variable(self):
        vs = omega_vars()
        p = P("x2*(x1 + y^2) - x3*x5", vs)
        target = vs.without_ambient("x3")
        out = p.substitute({"x3": Polynomial.zero(target)}, target=target)
        assert out == P("x2*(x1 + y^2)", target)

    def test_identity(self):
        p = P("x^2 - y", XY)
        assert p.substitute({}) == p

    def test_shift(self):
        xt = VariableSet(("x", "t"))
        p = P("x^2", VariableSet(("x",)))
        out = p.substitute({"x": P("x + t", xt)})
        assert out == P("x^2 + 2*x*t + t^2", xt)


class TestOrderings:
    def test_grevlex_prefers_early_variables(self):
        x = (1, 0)
        y = (0, 1)
        assert GREVLEX.key(x) > GREVLEX.key(y)
        assert GREVLEX.key((0, 2)) > GREVLEX.key(x)  # graded first

    def test_lex_ignores_degree(self):
        assert LEX.key((1, 0)) > LEX.key((0, 5))

    def test_block_order_eliminates_first_block(self):
        order = MonomialOrdering.block_elimination(1)
        # Any monomial containing the first variable beats any that does not.
        assert order.key((1, 0)) > order.key((0, 7))

    def test_grevlex_tie_break(self):
        # x*z vs y^2 in 3 variables: same degree, last nonzero of difference
        # decides; x*z > y^2.
        assert GREVLEX.key((1, 0, 1)) < GREVLEX.key((0, 2, 0))


class TestVariableSet:
    def test_names_unique(self):
        with pytest.raises(ValidationError):
            VariableSet(("x", "x"))
        with pytest.raises(ValidationError):
            VariableSet(("x",), ("x",))

    def test_roles(self):
        vs = VariableSet(("x",), ("u",))
        assert vs.parameters == ("u",) and vs.ambient == ("x",)
        assert vs.ambient_only().names == ("x",)


class TestIntegerForm:
    def test_integer_form_matches_the_term_map_property(self):
        """A polynomial built from integers over a common denominator is
        the one the same Fractions build: equal, with equal hashes and
        term maps, and the same monomial readings before the term map is
        read.  Sum, difference, product, scaling, powers, substitution,
        derivative, lift and restriction of operands over different
        denominators agree with the Fraction loops of the oracle, and the
        integer form gives the polynomial back.  Lift, restriction and
        substitution agree with the oracle on packed-born inputs too: the
        minors of a grid from ``_all_minors`` and reduced grevlex basis
        elements.  Every result holds the form ``_integral`` takes on
        trust: exponent tuples of its set's width with no negative entry,
        over a positive ``int`` denominator."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        xyu = VariableSet(("x", "y"), ("u",))
        xy = VariableSet(("x", "y"))
        wide = VariableSet(("w", "x", "y", "v"), ("u",))

        @st.composite
        def cases(draw):
            ints = draw(
                st.dictionaries(
                    st.tuples(*[st.integers(0, 3)] * len(xyu)),
                    st.integers(-50, 50),
                    max_size=5,
                )
            )
            return ints, draw(st.integers(1, 36))

        def both(case):
            ints, den = case
            return (
                Polynomial._integral(xyu, dict(ints), den),
                Polynomial(xyu, {m: Fraction(c, den) for m, c in ints.items()}),
            )

        @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
        @hypothesis.given(
            cases(), cases(), cases(), st.fractions(max_denominator=12), st.integers(0, 3)
        )
        def run(case, second, third, c, e):
            ints, den = case
            integral, rational = both(case)
            assert integral.is_zero() == rational.is_zero()
            assert integral.is_constant() == rational.is_constant()
            assert integral.total_degree() == rational.total_degree()
            if rational:
                assert integral.leading_monomial() == rational.leading_monomial()
            assert integral._terms is None  # no Fraction built so far
            assert integral == rational and hash(integral) == hash(rational)
            assert integral.terms == rational.terms
            assert Polynomial._integral(xyu, rational._ints, rational._den) == rational
            fresh = Polynomial._integral(xyu, dict(ints), den)
            for name in xyu.names:
                expected = reference_derivative(rational, name)
                assert fresh.derivative(name) == expected
                assert rational.derivative(name) == expected
            lifted = reference_lift(rational, wide)
            assert Polynomial._integral(xyu, dict(ints), den).lift(wide) == lifted
            assert rational.lift(wide) == lifted
            assert lifted.restrict(xyu) == rational
            assert Polynomial._integral(wide, lifted._ints, lifted._den).restrict(xyu) == (
                reference_restrict(lifted, xyu)
            )
            q, q_rational = both(second)
            r, r_rational = both(third)
            product = reference_mul(rational, q_rational)
            assert fresh * q == product and hash(fresh * q) == hash(product)
            assert fresh + q == reference_add(rational, q_rational)
            assert fresh - q == reference_add(rational, reference_scale(q_rational, -1))
            assert -fresh == reference_scale(rational, -1)
            assert fresh.scale(c) == c * fresh == reference_scale(rational, c)
            power = Polynomial(xyu, {(0, 0, 0): 1})
            for _ in range(e):
                power = reference_mul(power, rational)
            assert fresh**e == power
            assert fresh.substitute({"x": q, "u": r}) == reference_substitute(
                rational, {"x": q_rational, "u": r_rational}, xyu
            )
            at_c = {"u": Polynomial.constant(xy, c)}
            assert fresh.substitute(at_c, target=xy) == reference_substitute(
                rational, {"u": Polynomial(xy, {(0, 0): c})}, xy
            )
            # Packed-born: the entries and the minor of [[p, q], [2, 1]]
            # (p - 2q), and the monic basis element of (p) over xyu and
            # of (p lifted) over wide, which restricts back to xyu.
            grid = [[fresh, q], [Polynomial.constant(xyu, 2), Polynomial.constant(xyu, 1)]]
            born = _all_minors(grid, 1, xyu) + _all_minors(grid, 2, xyu)
            if rational:
                born += Ideal([fresh], xyu).groebner_basis(GREVLEX).elements
                over_wide = Ideal([lifted], wide).groebner_basis(GREVLEX).elements[0]
                assert over_wide._packing is not None
                assert over_wide.restrict(xyu) == reference_restrict(over_wide, xyu)
            results = [fresh + q, fresh - q, -fresh, fresh * q, fresh**e, fresh.scale(c)]
            results += [fresh.derivative(name) for name in xyu.names]
            results += [fresh.lift(wide), lifted.restrict(xyu)]
            results += [fresh.substitute({"x": q, "u": r}), fresh.substitute(at_c, target=xy)]
            for g in born:
                if not g:
                    continue
                assert g._packing is not None
                assert g.lift(wide) == reference_lift(g, wide)
                assert g.lift(wide).restrict(xyu) == g
                assert g.substitute({"x": q, "u": r}) == reference_substitute(
                    g, {"x": q_rational, "u": r_rational}, xyu
                )
                assert g.substitute(at_c, target=xy) == reference_substitute(
                    g, {"u": Polynomial(xy, {(0, 0): c})}, xy
                )
                results += [g.lift(wide), g.lift(wide).restrict(xyu)]
                results += [g.substitute({"x": q, "u": r}), g.substitute(at_c, target=xy)]
            for p in results:
                ints, den = p._ints, p._den
                assert type(den) is int and den > 0
                assert all(len(m) == len(p.vars) and min(m) >= 0 for m in ints)

        run()

    def test_constructor_rejects_bad_exponent_vectors(self):
        with pytest.raises(ValidationError, match="bad exponent vector"):
            Polynomial(XY, {(1,): 1})
        with pytest.raises(ValidationError, match="bad exponent vector"):
            Polynomial(XY, {(1, -1): 1})

    def test_integral_drops_zero_coefficients(self):
        zero = Polynomial._integral(XY, {(1, 0): 0, (0, 1): 0}, 5)
        assert zero.is_zero() and zero == Polynomial.zero(XY)
        assert Polynomial._integral(XY, {(1, 0): 2, (0, 0): 0}, 4) == P("1/2*x", XY)

    def test_equality_and_hashing_read_no_term_map(self, monkeypatch):
        # 2x/4 and the parsed x/2 are one value stored over different
        # denominators; comparing and hashing them reads the integer
        # forms only.  The chain rule check compares minors, derivatives
        # and their products and reads no term map either.
        integral = Polynomial._integral(XY, {(1, 0): 2}, 4)
        parsed = P("1/2*x", XY)
        assert integral == parsed and hash(integral) == hash(parsed)
        assert integral._terms is None
        omega1 = omega_model(1)
        built, read = watch_term_maps(monkeypatch)
        assert chain_rule_check(omega1, 2).ok
        assert built == [] and read == []

    def test_restrict_rejects_a_dropped_variable_that_occurs(self):
        p = Polynomial._integral(XY, {(1, 1): 3}, 2)
        with pytest.raises(ValidationError, match="'y' occurs"):
            p.restrict(VariableSet(("x",)))


XT = VariableSet(("x", "t"))
T = VariableSet(("t",))

# Every error rule of lift, restrict and substitute, which share one
# re-indexing loop: (call, error type or None, message or result).
# Unassigned names are checked against the target before any term is
# read, so lift and substitute raise for a missing name that does not
# occur; restrict raises only for a dropped variable that occurs.
REINDEX_RULES = {
    "lift-missing-name-that-does-not-occur": (
        lambda: P("x", XY).lift(XT),
        UnknownVariableError,
        "unknown variable 'y'",
    ),
    "lift-zero-missing-name": (
        lambda: Polynomial.zero(XY).lift(XT),
        UnknownVariableError,
        "unknown variable 'y'",
    ),
    "substitute-unassigned-name-that-does-not-occur": (
        lambda: P("x", XY).substitute({"x": P("t", T)}),
        UnknownVariableError,
        "unknown variable 'y'",
    ),
    "substitute-unknown-assigned-name": (
        lambda: P("x", XY).substitute({"z": P("x", XY)}),
        UnknownVariableError,
        "unknown variable 'z'",
    ),
    "substitute-value-not-a-polynomial": (
        lambda: P("x", XY).substitute({"x": 1}),
        ValidationError,
        "substitution values must be polynomials",
    ),
    "substitute-values-over-other-variables": (
        lambda: P("x*y", XY).substitute({"x": P("t", XT), "y": P("x", XY)}),
        VariableSetMismatchError,
        "substitution values use different variable sets",
    ),
    "substitute-value-over-other-than-target": (
        lambda: P("x*y", XY).substitute({"x": P("x", XY)}, target=XT),
        VariableSetMismatchError,
        "substitution values use different variable sets",
    ),
    "restrict-dropped-variable-that-occurs": (
        lambda: P("x + x*y^2", XY).restrict(VariableSet(("x",))),
        ValidationError,
        "variable 'y' occurs but is not in the target set",
    ),
    "restrict-dropped-variable-that-does-not-occur": (
        lambda: P("x^2 - 3", XY).restrict(VariableSet(("x",))),
        None,
        P("x^2 - 3", VariableSet(("x",))),
    ),
}


@pytest.mark.parametrize("rule", sorted(REINDEX_RULES))
def test_reindex_error_rules(rule):
    call, error, expected = REINDEX_RULES[rule]
    if error is None:
        assert call() == expected
        return
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == expected
