import random
import time
from fractions import Fraction

import pytest

from detsing import (
    DeterminantalType,
    DetsingError,
    GREVLEX,
    LEX,
    Ideal,
    LimitError,
    Polynomial,
    PreconditionError,
    PresentationMatrix,
    VariableSet,
    buchberger,
    colength,
    colength_at_origin,
    dimension,
    eliminate,
    ideal_intersection,
    ideal_quotient,
    ideal_sum,
    ideals_equal,
    in_ideal,
    is_unit_ideal,
    minors,
    normal_form,
    s_polynomial,
    saturation,
    singular_locus_ideal,
    stratum,
    support_is_origin_only,
)
from detsing import groebner
from detsing.poly import (
    MonomialOrdering,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)
from helpers import (
    P,
    XY,
    XYZ,
    bundled_members,
    generic_entry_model,
    omega_model,
    omega_vars,
    random_poly,
    reduced_stratum,
    saturation_inputs,
    sheared_omega_model,
)
from oracles import (
    maximal_ideal,
    monomial_ideal_dimension,
    quotient_chain_saturation,
    reference_reduce_full,
    reference_update_pairs,
    saturated_colength_at_origin,
    saturated_support_is_origin_only,
    stable_corank,
    standard_monomial_count,
)


def ideal(vs, *texts):
    return Ideal([P(t, vs) for t in texts], vs)


def capped(I, cap):
    """I with the degree cap ``cap``."""
    return Ideal(I.generators, I.vars, max_degree=cap)


def generic_locus():
    """Singular locus of stratum 2 of the generic (2,2,2) matrix, built
    on the stratum's reduced basis."""
    s = stratum(generic_entry_model(2, 2, 2), 2)
    reduced = Ideal(s.ideal.groebner_basis().elements, s.ideal.vars)
    return singular_locus_ideal(reduced, s.expected_codim)


def sheared_omega_locus():
    """Non-smooth locus of stratum 2 of omega3 sheared as one omega-coords
    benchmark model (94 generators), built on the stratum's reduced
    basis."""
    perm = ("x4", "x5", "y", "x3", "x2", "x1")
    m = sheared_omega_model(3, perm, ((("x4", "x1"), 1), (("x1", "x2"), -2)))
    return singular_locus_ideal(*reduced_stratum(m, 2))


def generator_order_cases():
    """Cases ``(orders, vars, orderings)``: one generator list in three
    orders (as drawn, reversed, shuffled).  Twelve random ideals in x, y,
    z under grevlex and lex, and ``generic_locus()`` under grevlex."""
    rng = random.Random(41)
    cases = []
    for _ in range(12):
        gens = [random_poly(rng, XYZ, 3, allow_constant=False) for _ in range(3)]
        cases.append(([g for g in gens if not g.is_zero()], XYZ, (GREVLEX, LEX)))
    locus = generic_locus()
    cases.append((list(locus.generators), locus.vars, (GREVLEX,)))
    out = []
    for gens, vs, orderings in cases:
        shuffled = list(gens)
        rng.shuffle(shuffled)
        out.append(((gens, gens[::-1], shuffled), vs, orderings))
    return out


def saturation_cases(st):
    """Strategy for (I, J) pairs of small ideals in x, y or x, y, z, with
    the zero ideal as I and a constant among J's generators now and then;
    ``st`` is ``hypothesis.strategies``."""

    @st.composite
    def cases(draw):
        vs = draw(st.sampled_from([XY, XYZ]))
        terms = st.dictionaries(
            st.tuples(*[st.integers(0, 2)] * len(vs)).filter(lambda m: sum(m) <= 3),
            st.integers(-3, 3).filter(bool),
            min_size=1,
            max_size=3,
        )
        polys = st.builds(
            lambda t: Polynomial(vs, {m: Fraction(c) for m, c in t.items()}), terms
        )
        gens = draw(st.lists(polys, min_size=1, max_size=3))
        if draw(st.integers(0, 7)) == 0:
            gens = []
        saturator = draw(st.lists(polys, min_size=1, max_size=3))
        if draw(st.integers(0, 3)) == 0:
            saturator.append(Polynomial.constant(vs, draw(st.integers(1, 3))))
        return Ideal(gens, vs), Ideal(saturator, vs)

    return cases()


# (variables, ordering, field limit, generators, reduced basis): inputs
# that each fit the narrowest fields exactly, whose basis computation
# makes a monomial that does not fit and so widens the fields.
N_WIDE, K_WIDE = 2**31 - 1, 2**15 - 1
WIDENING_CASES = [
    (XY, GREVLEX, N_WIDE, [f"x^{N_WIDE} - y", f"y^{N_WIDE} - x"],
     [f"x^{N_WIDE} - y", f"y^{N_WIDE} - x"]),
    (XY, LEX, K_WIDE, ["x^2", f"x - y^{K_WIDE}"], [f"x - y^{K_WIDE}", f"y^{2 * K_WIDE}"]),
    (XYZ, LEX, K_WIDE, [f"x*y - z^{K_WIDE}", "x*z"],
     [f"x*y - z^{K_WIDE}", "x*z", f"z^{K_WIDE + 1}"]),
]


class TestBuchberger:
    def test_circle_line_reduced_basis(self):
        I = ideal(XY, "x^2 + y^2 - 1", "x - y")
        basis = I.groebner_basis()
        assert [g for g in basis] == [P("x - y", XY), P("y^2 - 1/2", XY)]
        # Oracle: both generators reduce to zero, and every S-pair does.
        for g in I.generators:
            assert normal_form(g, basis).is_zero()
        elems = list(basis)
        for i in range(len(elems)):
            for j in range(i + 1, len(elems)):
                s = s_polynomial(elems[i], elems[j], GREVLEX)
                assert normal_form(s, basis).is_zero()
        # Two-way membership against the generators.
        for g in basis:
            assert in_ideal(g, I)

    def test_already_reduced(self):
        basis = ideal(XY, "x", "y").groebner_basis()
        assert set(basis) == {P("x", XY), P("y", XY)}

    def test_unit_ideal(self):
        basis = ideal(XY, "x", "x + 1").groebner_basis()
        assert basis.is_unit()
        assert list(basis) == [Polynomial.constant(XY, 1)]

    def test_reduced_basis_is_unique(self):
        a = ideal(XY, "x^2 + y^2 - 1", "x - y")
        b = ideal(XY, "x - y", "2*x^2 + 2*y^2 - 2", "x^2 + y^2 - 1 + x - y")
        assert ideals_equal(a, b)
        assert a.groebner_basis().elements == b.groebner_basis().elements

    def test_reduced_basis_shape(self):
        rng = random.Random(21)
        for _ in range(10):
            gens = [random_poly(rng, XY, 3) for _ in range(2)]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            basis = Ideal(gens, XY).groebner_basis()
            lts = basis.leading_monomials()
            for i, g in enumerate(basis):
                assert g.leading_coefficient() == 1
                for j, lt in enumerate(lts):
                    if i == j:
                        continue
                    for mono in g.terms:
                        assert not all(a <= b for a, b in zip(lt, mono))

    def test_degree_cap(self):
        with pytest.raises(LimitError, match="input leading term reached degree 5"):
            buchberger(capped(ideal(XY, "x^5 - y", "y^5 - x"), 2), GREVLEX)

    def test_degree_cap_on_pair_lcm(self):
        # Every input leading term has degree <= 3, so a cap of 3 can
        # only trip on the S-pair lcm x*y^2*z of y*z and x*y^2.
        I = ideal(XYZ, "x^2*y - z", "x*y^2 - x", "y*z - 1")
        with pytest.raises(LimitError, match="S-pair lcm reached degree 4"):
            buchberger(capped(I, 3), GREVLEX)
        basis = buchberger(capped(I, 4), GREVLEX)
        assert set(basis) == {
            P("x^2 - 1", XYZ),
            P("z^2 - 1", XYZ),
            P("y - z", XYZ),
        }

    def test_degree_cap_on_new_basis_element(self):
        # In lex the S-polynomial y^4 of x*y and x^2 - y^3 has a higher
        # degree than their lcm x^2*y, so a cap of 3 trips on the new
        # basis element only; the next lcm, x*y^4, needs a cap of 5.
        I = ideal(XY, "x*y", "x^2 - y^3")
        with pytest.raises(
            LimitError, match="cap 3: new basis element reached degree 4"
        ):
            buchberger(capped(I, 3), LEX)
        basis = buchberger(capped(I, 5), LEX)
        assert set(basis) == {P("x*y", XY), P("x^2 - y^3", XY), P("y^4", XY)}

    def test_packed_fields_widen_on_overflow(self):
        # Each input fits the narrowest fields exactly, but the computation
        # makes a monomial that does not: the lcm x^N*y^N of the leading
        # terms, the reduction step x*y^K -> y^(2K), the S-polynomial term
        # z^K*z.  The basis is recomputed with wider fields, not wrapped.
        for vs, ordering, limit, gens, expected in WIDENING_CASES:
            I = ideal(vs, *gens)
            assert groebner._Packing.for_input(ordering, len(vs), I.generators).limit == limit
            assert set(buchberger(I, ordering)) == {P(t, vs) for t in expected}

    def test_basis_independent_of_generator_order(self):
        # A pair lost from, or left stale in, the pair queue shows up as
        # a basis that depends on the order the generators arrive in.
        for orders, vs, orderings in generator_order_cases():
            for ordering in orderings:
                bases = [
                    buchberger(Ideal(order, vs), ordering).elements
                    for order in orders
                ]
                assert bases[0] == bases[1] == bases[2]

    def test_pair_update_matches_tuple_reference(self, monkeypatch):
        # Each pair update leaves the same heap of pending pairs as the
        # update on exponent tuples, and overflows at the same calls.
        # That pins the S-pair sequence, and with it every degree-cap trip.
        engine = groebner._update_pairs
        outcomes = []

        def outcome(update, lts, heap, new_lt, packing):
            try:
                update(lts, heap, new_lt, packing)
            except groebner._Overflow:
                return "overflow"
            return heap

        def checked(lts, heap, new_lt, packing):
            expected = outcome(reference_update_pairs, list(lts), list(heap), new_lt, packing)
            got = outcome(engine, lts, heap, new_lt, packing)
            assert got == expected
            outcomes.append(got == "overflow")
            if got == "overflow":
                raise groebner._Overflow

        cases = [
            (Ideal(gens, vs), ordering)
            for orders, vs, orderings in generator_order_cases()
            for gens in orders
            for ordering in orderings
        ]
        cases += [(ideal(vs, *gens), ordering) for vs, ordering, _, gens, _ in WIDENING_CASES]
        monkeypatch.setattr(groebner, "_update_pairs", checked)
        for I, ordering in cases:
            buchberger(I, ordering)
        # The saturations of the (2,2,2) and (2,1,2) stratum-2 loci by
        # stratum 1, which eids_check skips now that the loci's bases
        # certify them: block orders with tag variables, most of them
        # seeded.
        for shape in ((2, 2, 2), (2, 1, 2)):
            locus, deeper = saturation_inputs(generic_entry_model(*shape), 2)
            assert is_unit_ideal(saturation(locus, deeper))
        assert any(outcomes)
        assert len(outcomes) > 800

    def test_reduce_full_matches_the_unscaled_reference(self, monkeypatch):
        # Scaling by lc/g and c/g, g = gcd(lc, c), divides every later
        # state by a positive number: each reduction in the bases of the
        # generator-order cases, the generic locus among them, gives the
        # same primitive remainder, or the same overflow, as the reducer
        # that scales by lc and c.
        engine = groebner._reduce_full
        remainders = []

        def outcome(reduce, p, basis, packing):
            try:
                return reduce(p, basis, packing)
            except groebner._Overflow:
                return "overflow"

        def checked(p, basis, packing):
            got = outcome(engine, p, basis, packing)
            assert got == outcome(reference_reduce_full, p, basis, packing)
            if got == "overflow":
                raise groebner._Overflow
            remainders.append(got)
            return got

        monkeypatch.setattr(groebner, "_reduce_full", checked)
        for orders, vs, orderings in generator_order_cases():
            for gens in orders:
                for ordering in orderings:
                    buchberger(Ideal(gens, vs), ordering)
        assert len(remainders) > 2000
        assert any(r and max(map(abs, r.values())) > 1 for r in remainders)

    def test_integer_form_generators_give_the_same_basis_property(self):
        """buchberger gives the same reduced basis from generators in
        integer form, over a denominator that need not be the least, as
        from the same generators built from Fractions, in grevlex and in
        lex; and it returns the basis in integer form."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def cases(draw):
            vs = draw(st.sampled_from([XY, XYZ]))
            terms = st.dictionaries(
                st.tuples(*[st.integers(0, 2)] * len(vs)).filter(lambda m: sum(m) <= 3),
                st.integers(-6, 6).filter(bool),
                min_size=1,
                max_size=3,
            )
            gens = draw(
                st.lists(
                    st.tuples(terms, st.integers(1, 12), st.integers(1, 3)),
                    min_size=1,
                    max_size=3,
                )
            )
            return vs, gens

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
        @hypothesis.given(cases())
        def run(case):
            vs, gens = case
            rational = [
                Polynomial(vs, {m: Fraction(c, den) for m, c in t.items()})
                for t, den, _ in gens
            ]
            integral = [
                Polynomial._integral(vs, {m: c * k for m, c in t.items()}, den * k)
                for t, den, k in gens
            ]
            for ordering in (GREVLEX, LEX):
                basis = buchberger(Ideal(integral, vs), ordering).elements
                assert all(g._terms is None for g in basis)
                assert basis == buchberger(Ideal(rational, vs), ordering).elements
                assert all(g.leading_coefficient(ordering) == 1 for g in basis)

        run()

    def test_engine_packs_only_inputs_and_unpacks_only_outputs(self, monkeypatch):
        # The generic (2,2,2) locus is its stratum's reduced basis and
        # the Jacobian minors, all born packed in the grevlex layout, so
        # they enter the engine with no monomial packed, and the basis
        # leaves it with none unpacked until a caller reads its terms,
        # then once per output monomial; with or without a degree cap.
        # Built from exponent tuples, the same generators enter once per
        # distinct input monomial (the minors share most of theirs).
        locus = generic_locus()
        assert all(g._packing is not None for g in locus.generators)
        distinct = {m for g in locus.generators for m in g.terms}
        assert len(distinct) < sum(len(g.terms) for g in locus.generators)
        tuples = Ideal(
            [Polynomial._integral(locus.vars, g._ints, g._den) for g in locus.generators],
            locus.vars,
        )
        calls = {}
        for name in ("pack", "unpack"):
            method = getattr(groebner._Packing, name)

            def counted(self, mono, name=name, method=method):
                calls[name] += 1
                return method(self, mono)

            monkeypatch.setattr(groebner._Packing, name, counted)
        for cap in (None, 100):
            calls.update(pack=0, unpack=0)
            basis = buchberger(capped(locus, cap), GREVLEX)
            assert calls == {"pack": 0, "unpack": 0}
            terms = sum(len(g.terms) for g in basis)
            assert calls == {"pack": 0, "unpack": terms}
            calls.update(pack=0, unpack=0)
            again = buchberger(capped(tuples, cap), GREVLEX)
            assert calls["pack"] == len(distinct)
            assert calls["unpack"] == 0
            assert again.elements == basis.elements

    def test_reduced_bases_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        cases = []
        for k in (1, 3):
            m = omega_model(k)
            cases += [stratum(m, i).ideal for i in (1, 2)]
        for n, k in ((2, 1), (2, 2)):
            m = generic_entry_model(n, k, 1)
            cases.append(Ideal(minors(m, 2), m.vars))
        rng = random.Random(43)
        while len(cases) < 26:
            gens = [
                random_poly(rng, XYZ, 3, allow_constant=False)
                for _ in range(rng.randint(2, 3))
            ]
            gens = [g for g in gens if not g.is_zero()]
            if gens:
                cases.append(Ideal(gens, XYZ))

        def monic(terms, ordering):
            lc = terms[max(terms, key=ordering.key)]
            return frozenset((m, c / lc) for m, c in terms.items())

        for I in cases:
            syms = sympy.symbols(I.vars.names)
            polys = [
                sympy.Poly.from_dict(
                    {m: sympy.Rational(c.numerator, c.denominator)
                     for m, c in g.terms.items()},
                    *syms,
                )
                for g in I.generators
            ]
            for ordering, name in ((GREVLEX, "grevlex"), (LEX, "lex")):
                ours = {monic(g.terms, ordering) for g in I.groebner_basis(ordering)}
                theirs = set()
                for g in sympy.groebner(polys, *syms, order=name).polys:
                    terms = {}
                    for m, c in g.as_dict().items():
                        c = sympy.Rational(c)
                        terms[m] = Fraction(int(c.p), int(c.q))
                    theirs.add(monic(terms, ordering))
                assert ours == theirs, (I, name)

    def test_all_spairs_reduce_to_zero(self):
        rng = random.Random(23)
        for _ in range(8):
            gens = [random_poly(rng, XYZ, 2) for _ in range(2)]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            basis = Ideal(gens, XYZ).groebner_basis()
            elems = list(basis)
            for i in range(len(elems)):
                for j in range(i + 1, len(elems)):
                    s = s_polynomial(elems[i], elems[j], GREVLEX)
                    assert normal_form(s, basis).is_zero()


def packing_property(check):
    """Run ``check(packing, exps)`` on exponent vectors over 1-20
    variables, each ordering kind, packed in the narrowest fields that
    hold them, so field boundaries are hit."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        n = draw(st.integers(1, 20))
        ordering = draw(
            st.sampled_from(["grevlex", "lex", "block", "eliminating"])
        )
        if ordering == "grevlex":
            ordering = GREVLEX
        elif ordering == "lex":
            ordering = LEX
        elif ordering == "block":
            ordering = MonomialOrdering.block_elimination(draw(st.integers(0, n)))
        else:
            ordering = MonomialOrdering.eliminating(
                draw(st.sets(st.integers(0, n - 1), max_size=n))
            )
        top = draw(st.sampled_from([1, 3, 100, 2**20]))
        exps = draw(
            st.lists(
                st.tuples(*[st.integers(0, top)] * n), min_size=2, max_size=6
            )
        )
        probe = groebner._Packing(ordering, n, 16)
        peak = max(probe.peak(e) for e in exps)
        return groebner._Packing(ordering, n, max(2, peak.bit_length() + 1)), exps

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(cases())
    def run(case):
        check(*case)

    run()


class TestPackedMonomials:
    def test_round_trip_order_and_divides(self):
        def check(packing, exps):
            key = packing.ordering.key
            packed = [packing.pack(e) for e in exps]
            for e, pe in zip(exps, packed):
                assert pe & packing.guards == 0
                assert packing.unpack(pe) == e
            for a, pa in zip(exps, packed):
                for b, pb in zip(exps, packed):
                    assert (pa < pb) == (key(a) < key(b))
                    assert (pa == pb) == (a == b)
                    assert packing.divides(pa, pb) == monomial_divides(a, b)

        packing_property(check)

    def test_product_quotient_and_lcm(self):
        def check(packing, exps):
            fits = lambda e: packing.peak(e) <= packing.limit
            packed = [packing.pack(e) for e in exps]
            for a, pa in zip(exps, packed):
                for b, pb in zip(exps, packed):
                    for exact, got in (
                        (monomial_mul(a, b), pa + pb - packing.one),
                        (monomial_lcm(a, b), packing.pack(monomial_lcm(a, b))),
                    ):
                        # A guard bit flags exactly the results that do
                        # not fit; the others unpack to the exact result.
                        assert (got & packing.guards == 0) == fits(exact)
                        if fits(exact):
                            assert packing.unpack(got) == exact
                    if monomial_divides(a, b):
                        quotient = pb - pa + packing.one
                        assert packing.unpack(quotient) == monomial_div(b, a)

        packing_property(check)

    def test_packed_lcm_is_the_packed_exact_lcm(self):
        # The field-wise lcm of two packed monomials unpacks to their lcm,
        # equals its packing and has its degree when it fits, and has a
        # guard bit set when it does not.
        def check(packing, exps):
            packed = [packing.pack(e) for e in exps]
            for b, pb in zip(exps, packed):
                got = packing.lcms(packed, pb)
                assert len(got) == len(exps)
                for a, lcm in zip(exps, got):
                    exact = monomial_lcm(a, b)
                    if packing.peak(exact) <= packing.limit:
                        assert lcm == packing.pack(exact)
                        assert packing.unpack(lcm) == exact
                        assert packing.degree(lcm) == sum(exact)
                    else:
                        assert lcm & packing.guards

        packing_property(check)

    def test_ceiling_flags_every_overflowing_product(self):
        # The reducer's one check per step: ceiling(g) - lt + m has a
        # guard bit set exactly when some term of g times m/lt overflows.
        def check(packing, exps):
            packed = [packing.pack(e) for e in exps]
            ceiling = packing.ceiling(packed)
            for a, pa in zip(exps, packed):
                for b, pb in zip(exps, packed):
                    if not monomial_divides(a, b):
                        continue
                    shift = monomial_div(b, a)
                    overflows = any(
                        packing.peak(monomial_mul(e, shift)) > packing.limit
                        for e in exps
                    )
                    assert bool((ceiling - pa + pb) & packing.guards) == overflows

        packing_property(check)

    def test_runs_leave_their_generators_packed_maps_unchanged(self, monkeypatch):
        # Generators born packed in a run's layout, the minors of one
        # determinant call and the basis of an earlier grevlex run, enter
        # the input phase as their own maps (no copy), so a basis run and
        # an origin certificate must only read them.
        seen = []
        real = groebner._interreduce_input
        monkeypatch.setattr(
            groebner,
            "_interreduce_input",
            lambda polys, *rest: seen.extend(polys) or real(polys, *rest),
        )
        perm = ("x4", "x5", "y", "x3", "x2", "x1")
        m = sheared_omega_model(3, perm, ((("x4", "x1"), 1), (("x1", "x2"), -2)))
        minors_ = stratum(m, 2).ideal.generators
        basis = Ideal(minors_, m.vars).groebner_basis().elements
        for gens in (minors_, basis):
            maps = [g._packed for g in gens]
            before = [dict(p) for p in maps]
            seen.clear()
            Ideal(gens, m.vars).groebner_basis()
            groebner._origin_certified(Ideal(gens, m.vars))
            assert any(p is q for p in seen for q in maps)
            assert maps == before

    @pytest.mark.parametrize("scale", [1, 3])
    def test_reduce_full_divides_out_content_on_the_way(self, scale):
        # Reducing y^41 + x^40 by 2x - 1 takes 40 steps, each multiplying
        # the remainder by the leading coefficient 2, so the reducer's
        # content division runs at step 32; with the input scaled by 3 it
        # divides that 3 out.  The primitive remainder is the normal form
        # y^41 + 1/2^40 times 2^40.
        packing = groebner._Packing.for_input(GREVLEX, 2, [P("y^41", XY)])
        pack = packing.pack
        f = {pack((0, 41)): scale, pack((40, 0)): scale}
        row = groebner._row({pack((1, 0)): 2, pack((0, 0)): -1}, packing)
        rem = groebner._reduce_full(f, [row], packing)
        assert rem == {pack((0, 41)): 2**40, pack((0, 0)): 1}
        basis = ideal(XY, "2*x - 1").groebner_basis()
        assert normal_form(P("y^41 + x^40", XY), basis) == P(f"y^41 + 1/{2**40}", XY)


class TestNormalForm:
    def test_two_step_reduction(self):
        basis = ideal(XY, "x^2 - y").groebner_basis()
        assert normal_form(P("x^2*y", XY), basis) == P("y^2", XY)

    def test_basis_elements_reduce_to_zero(self):
        basis = ideal(XY, "x^2 + y^2 - 1", "x - y").groebner_basis()
        for g in basis:
            assert normal_form(g, basis).is_zero()

    def test_unit_remainder(self):
        basis = ideal(XY, "x", "y").groebner_basis()
        one = Polynomial.constant(XY, 1)
        assert normal_form(one, basis) == one

    def test_membership_consistent_across_orderings(self):
        rng = random.Random(33)
        I = ideal(XY, "x^2 - y", "x*y - 1")
        for _ in range(20):
            f = random_poly(rng, XY, 2) * I.generators[rng.randrange(2)]
            assert normal_form(f, I.groebner_basis(GREVLEX)).is_zero()
            assert normal_form(f, I.groebner_basis(LEX)).is_zero()

    def test_exact_divide(self):
        g = P("x - y", XY)
        assert groebner.exact_divide(P("x^3 - y^3", XY), g) == P("x^2 + x*y + y^2", XY)
        with pytest.raises(DetsingError, match="numerator not a multiple"):
            groebner.exact_divide(P("x^3 - y^3 + 1", XY), g)
        with pytest.raises(PreconditionError):
            groebner.exact_divide(g, Polynomial.zero(XY))


class TestSumsProducts:
    def test_sum(self):
        assert ideals_equal(
            ideal_sum(ideal(XY, "x"), ideal(XY, "y")), ideal(XY, "x", "y")
        )

    def test_sum_idempotent(self):
        I = ideal(XY, "x^2 - y")
        assert ideals_equal(ideal_sum(I, I), I)


class TestEliminate:
    def test_free_variable(self):
        out = eliminate(ideal(XY, "x - y^2"), ["x"])
        assert not out.groebner_basis().elements

    def test_hand_elimination(self):
        out = eliminate(ideal(XY, "x - y^2", "x"), ["x"])
        target = out.vars
        assert ideals_equal(out, Ideal([P("y^2", target)], target))
        # Membership both ways.
        assert in_ideal(P("y^2", target), out)
        assert in_ideal(P("y^2", XY).restrict(target), out)

    def test_inversion_pattern(self):
        vs = VariableSet(("x", "y", "t"))
        out = eliminate(ideal(vs, "x*t - 1"), ["t"])
        assert not out.groebner_basis().elements
        # Adding y - x keeps y - x in the subring: elimination is (y - x),
        # not (0).
        out2 = eliminate(ideal(vs, "x*t - 1", "y - x"), ["t"])
        target = out2.vars
        assert ideals_equal(out2, Ideal([P("y - x", target)], target))

    def test_cannot_drop_everything(self):
        from detsing import ValidationError

        with pytest.raises(ValidationError):
            eliminate(ideal(XY, "x"), ["x", "y"])


class TestQuotientSaturation:
    def test_strip_common_factor(self):
        out = saturation(ideal(XYZ, "x*y", "x*z"), ideal(XYZ, "x"))
        assert ideals_equal(out, ideal(XYZ, "y", "z"))

    def test_square_colon(self):
        out = ideal_quotient(ideal(XY, "x^2"), P("x", XY))
        assert ideals_equal(out, ideal(XY, "x"))

    def test_unit_saturator(self):
        I = ideal(XY, "x^2 - y")
        assert ideals_equal(saturation(I, ideal(XY, "1")), I)

    def test_saturation_idempotent(self):
        rng = random.Random(55)
        for _ in range(6):
            I = Ideal(
                [random_poly(rng, XY, 3), random_poly(rng, XY, 2)], XY
            )
            J = ideal(XY, "x")
            once = saturation(I, J)
            twice = saturation(once, J)
            assert ideals_equal(once, twice)

    def test_tags_never_collide_with_model_variables(self):
        # The variables take the tag names t_, t_1, t_2 that three tags
        # would get in a fresh ring.  I = m*J for the maximal ideal m
        # and J = (t_ - 1, t_1 + t_2^2) comaximal with it, so I : m^inf = J.
        vs = VariableSet(("t_", "t_1", "t_2"))
        J = ideal(vs, "t_ - 1", "t_1 + t_2^2")
        m = maximal_ideal(vs)
        I = Ideal([f * g for f in m.generators for g in J.generators], vs)
        S = saturation(I, m)
        assert ideals_equal(S, J)
        assert ideals_equal(S, quotient_chain_saturation(I, m))

    def test_degree_cap_in_saturation_names_it(self):
        # The basis of (x*y, x*z) + (1 - t_*x - t_1*y - t_2*z) needs an
        # S-pair lcm of degree 4, that of (x*y, x*z, 1 - t_*x) one of 3.
        I = ideal(XYZ, "x*y", "x*z")
        with pytest.raises(
            LimitError,
            match=r"^saturation by 3 generators: basis computation exceeded "
            r"the degree cap 3: S-pair lcm reached degree 4$",
        ):
            saturation(capped(I, 3), maximal_ideal(XYZ))
        with pytest.raises(LimitError, match=r"^saturation by 1 generator: .* cap 2: S-pair"):
            saturation(capped(I, 2), ideal(XYZ, "x"))
        assert ideals_equal(saturation(capped(I, 4), maximal_ideal(XYZ)), I)

    def test_saturation_of_a_fresh_ideal_is_seeded(self, monkeypatch):
        # An ideal with no basis computed yet gets its reduced grevlex
        # basis first, and that basis seeds the block-order elimination.
        engine = groebner._packed_basis
        runs = []

        def packed_basis(polys, packing, cap, seeded=0):
            runs.append((packing.ordering.kind, seeded))
            return engine(polys, packing, cap, seeded)

        monkeypatch.setattr(groebner, "_packed_basis", packed_basis)
        I = ideal(XYZ, "x*y", "x*z")
        assert I.cached_basis() is None
        assert ideals_equal(saturation(I, ideal(XYZ, "x")), ideal(XYZ, "y", "z"))
        assert ("block", 2) in runs
        assert not any(kind == "block" and not seeded for kind, seeded in runs)

    def test_results_keep_the_parameters(self):
        # Tags join the ambient coordinates, so an elimination hands back
        # an ideal over exactly the input's ambient variables and
        # parameters.
        vs = VariableSet(("x", "y"), ("u",))
        S = saturation(ideal(vs, "x*(y - u)", "x^2*y"), ideal(vs, "x"))
        assert S.vars == vs
        assert ideals_equal(S, ideal(vs, "y", "u"))
        M = ideal_intersection(ideal(vs, "x"), ideal(vs, "u"))
        assert M.vars == vs
        assert ideals_equal(M, ideal(vs, "x*u"))
        assert ideals_equal(ideal_intersection(Ideal((), vs), ideal(vs, "u")), Ideal((), vs))

    def test_zero_divisor_rejected(self):
        with pytest.raises(PreconditionError):
            ideal_quotient(ideal(XY, "x"), Polynomial.zero(XY))

    def test_saturation_certified_property(self):
        """S = I : J^inf, certified without saturation: I is in S, a power
        of each g in J takes S into I, and S : J = S.  These three pin S
        down, since I : J^inf then lies in S : J^inf = S.  S also equals
        the quotient-chain reference."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        max_power = 12

        # Fixed examples: the reference and the colon check run the
        # quotient machinery, which takes seconds on some degree-3 inputs.
        @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
        @hypothesis.given(saturation_cases(st))
        def run(case):
            I, J = case
            S = saturation(I, J)
            assert all(in_ideal(f, S) for f in I.generators)
            for g in J.generators:
                for h in S.generators:
                    assert any(
                        in_ideal(g**k * h, I) for k in range(max_power + 1)
                    ), f"no power g^k, k <= {max_power}, takes {h} into I"
            colon = ideal_quotient(S, J.generators[0])
            for g in J.generators[1:]:
                colon = ideal_intersection(colon, ideal_quotient(S, g))
            assert ideals_equal(colon, S)
            assert ideals_equal(S, quotient_chain_saturation(I, J))

        run()

    def test_carried_bases_match_fresh_ones_property(self, monkeypatch):
        """A saturation or elimination result carries its reduced grevlex
        basis, and that basis equals a fresh Buchberger run on the
        result's generators.  The inputs are those of
        test_saturation_certified_property."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        fresh = groebner.buchberger
        calls = []
        monkeypatch.setattr(
            groebner, "buchberger", lambda *args: calls.append(args) or fresh(*args)
        )

        @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
        @hypothesis.given(saturation_cases(st))
        def run(case):
            I, J = case
            S = saturation(I, J)
            E = eliminate(ideal_sum(I, J), I.vars.names[:1])
            # A constant saturator returns I itself, which carries nothing.
            for result in [E] if S is I else [S, E]:
                calls.clear()
                carried = result.groebner_basis(GREVLEX)
                assert not calls
                again = fresh(Ideal(result.generators, result.vars), GREVLEX)
                assert carried.elements == again.elements

        run()

    def test_seeded_runs_match_fresh_ones_property(self):
        """A saturation of an ideal that carries its reduced basis starts
        its elimination from that basis, and gives the same reduced basis
        as the same ideal built fresh.  The engine gives the same basis
        with a seed declared as without: in grevlex (seed: I's basis, then
        J's generators) and in the saturation's elimination order (seed:
        I's basis lifted, then 1 - t*g).  The inputs are those of
        test_saturation_certified_property."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        def with_and_without(polys, seeded, vs, ordering):
            packing = groebner._Packing.for_input(ordering, len(vs), polys)
            forms = groebner._packed_forms(polys, packing)
            return [groebner._packed_basis(forms, packing, None, k) for k in (seeded, 0)]

        @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
        @hypothesis.given(saturation_cases(st))
        def run(case):
            I, J = case
            vs = I.vars
            basis = list(I.groebner_basis())
            fresh = Ideal(I.generators, vs)
            assert fresh.cached_basis() is None
            assert (
                saturation(I, J).groebner_basis().elements
                == saturation(fresh, J).groebner_basis().elements
            )
            seeded, unseeded = with_and_without(
                basis + list(J.generators), len(basis), vs, GREVLEX
            )
            assert seeded == unseeded
            ext = vs.extended(vs.fresh_name("t_"))
            tag = Polynomial.variable(ext, ext.names[-1])
            tagged = Polynomial.constant(ext, 1) - tag * J.generators[0].lift(ext)
            seeded, unseeded = with_and_without(
                [h.lift(ext) for h in basis] + [tagged],
                len(basis),
                ext,
                MonomialOrdering.eliminating([len(vs)]),
            )
            assert seeded == unseeded

        run()

    def test_no_s_pair_joins_two_seed_rows(self, monkeypatch):
        # The saturation of the (2,2,2) stratum-2 locus, which carries its
        # reduced grevlex basis, starts from that basis: its rows pair
        # with the other inputs but never with each other.
        engine, spoly = groebner._packed_basis, groebner._spoly
        seed = set()  # the current run's seed rows, by content
        seed_runs = []
        with_seed = []  # rows of each S-pair in the seed

        def key(terms):
            return frozenset(terms.items())

        def packed_basis(polys, packing, cap, seeded=0):
            seed.clear()
            for p in polys[:seeded]:
                seed.add(key(groebner._primitive(p)))
            seed_runs.append(seeded)
            return engine(polys, packing, cap, seeded)

        def counted(ri, rj, lcm, packing):
            with_seed.append((key(ri[3]) in seed) + (key(rj[3]) in seed))
            return spoly(ri, rj, lcm, packing)

        monkeypatch.setattr(groebner, "_packed_basis", packed_basis)
        monkeypatch.setattr(groebner, "_spoly", counted)
        locus, deeper = saturation_inputs(generic_entry_model(2, 2, 2), 2)
        assert is_unit_ideal(saturation(locus, deeper))
        assert any(seed_runs)
        assert 1 in with_seed
        assert 2 not in with_seed


class TestDimension:
    def test_generic_two_by_three(self):
        names = tuple(f"a{i}" for i in range(6))
        vs = VariableSet(names)
        I = Ideal(
            [
                P("a0*a4 - a1*a3", vs),
                P("a0*a5 - a2*a3", vs),
                P("a1*a5 - a2*a4", vs),
            ],
            vs,
        )
        assert dimension(I) == 4

    def test_fat_point(self):
        vs = omega_vars()
        assert dimension(ideal(vs, "x1", "x2", "x3", "x4", "x5", "y^2")) == 0

    def test_unit_ideal_convention(self):
        assert dimension(ideal(XY, "1")) == -1

    def test_zero_ideal(self):
        assert dimension(Ideal((), XY)) == 2

    def test_monomial_ideals_match_combinatorial_value(self):
        rng = random.Random(77)
        vs = VariableSet(tuple("abcdef"[:4]))
        for _ in range(20):
            monos = []
            for _ in range(rng.randint(1, 4)):
                exps = [0] * 4
                for _ in range(rng.randint(1, 3)):
                    exps[rng.randrange(4)] += 1
                monos.append(tuple(exps))
            gens = [Polynomial(vs, {m: Fraction(1)}) for m in monos]
            got = dimension(Ideal(gens, vs))
            lts = Ideal(gens, vs).groebner_basis().leading_monomials()
            assert got == monomial_ideal_dimension(lts, 4)
            assert got == monomial_ideal_dimension(monos, 4)

    def test_monomial_ideals_match_oracle_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def cases(draw):
            q = draw(st.integers(1, 12))
            supports = draw(
                st.lists(
                    st.frozensets(st.integers(0, q - 1), min_size=1),
                    min_size=1,
                    max_size=2 * q,
                )
            )
            # Exponent 1 or 2 on each support variable, varied by position.
            monos = [
                tuple(1 + (i + k) % 2 if i in s else 0 for i in range(q))
                for k, s in enumerate(supports)
            ]
            return q, monos

        @hypothesis.settings(max_examples=40, deadline=None)
        @hypothesis.given(cases())
        def run(case):
            q, monos = case
            vs = VariableSet(tuple(f"v{i}" for i in range(q)))
            gens = [Polynomial(vs, {m: Fraction(1)}) for m in monos]
            assert dimension(Ideal(gens, vs)) == monomial_ideal_dimension(monos, q)

        run()

    @pytest.mark.parametrize(
        "case, index", [((4, 1, 2), 1), ((4, 1, 2), 2), ((5, 0, 2), 2), ((4, 2, 2), 2)]
    )
    def test_wide_generic_strata(self, case, index):
        # q = 20, 25 and 24: dimensions 0, 8, 9 and 9.
        st = stratum(generic_entry_model(*case), index)
        assert dimension(st.ideal) == st.expected_dim

    def test_maximal_ideal_many_variables(self):
        vs = VariableSet(tuple(f"v{i}" for i in range(24)))
        assert dimension(maximal_ideal(vs)) == 0

    def test_wide_strata_certified_without_a_basis(self, monkeypatch):
        # The generators' leading terms meet the Eagon-Northcott floor:
        # the maximal ideal and the 60 quadrics of the generic 5x4 matrix.
        def no_basis(*args):
            raise AssertionError("basis built")

        monkeypatch.setattr(groebner, "buchberger", no_basis)
        m = generic_entry_model(4, 1, 2)
        assert [dimension(stratum(m, i).ideal) for i in (1, 2)] == [0, 8]

    def test_stratum_with_a_constant_term_takes_the_basis_path(self):
        # The minors -y^2, -x - 1 and -x generate the unit ideal.  Their
        # leading terms y^2, x and x meet the floor q - 2 = 0, but a
        # constant term leaves the ideal possibly not proper, and a unit
        # ideal has no minimal prime to bound.
        rows = [["y^2", "y^2", "1"], ["x + 1", "x", "0"]]
        entries = [[P(e, XY) for e in row] for row in rows]
        m = PresentationMatrix(DeterminantalType(2, 1, 2), entries, XY)
        s = stratum(m, 2)
        assert s.expected_dim == 0
        assert dimension(s.ideal) == -1
        assert s.ideal.cached_basis() is not None

    def test_vanishes_at_origin_reads_either_form(self):
        entries = [[P("x*y + y", XY), P("x + 1", XY)]]
        m = PresentationMatrix(DeterminantalType(1, 1, 1), entries, XY)
        packed = stratum(m, 1).ideal.generators
        assert all(g._packing is not None for g in packed)
        assert [groebner._vanishes_at_origin(g) for g in packed] == [True, False]
        assert groebner._vanishes_at_origin(P("x*y + y", XY))
        assert not groebner._vanishes_at_origin(P("x + 1", XY))

    def test_capped_stratum_takes_the_basis_path(self):
        m = generic_entry_model(4, 1, 2)
        with pytest.raises(LimitError) as trip:
            dimension(stratum(m, 2, max_degree=1).ideal)
        assert str(trip.value) == (
            "basis computation exceeded the degree cap 1: input leading term reached degree 2"
        )
        s = stratum(m, 2, max_degree=4)
        assert dimension(s.ideal) == 8
        assert s.ideal.cached_basis() is not None

    def test_a_cached_basis_is_read_instead(self, monkeypatch):
        s = stratum(generic_entry_model(2, 1, 2), 2)
        s.ideal.groebner_basis()
        supports = []
        real = groebner._minimal_supports
        monkeypatch.setattr(
            groebner, "_minimal_supports", lambda lts: supports.append(lts) or real(lts)
        )
        assert dimension(s.ideal) == 4
        assert supports == [s.ideal.cached_basis().leading_monomials()]

    def test_height_is_not_carried_to_derived_ideals(self):
        s = stratum(generic_entry_model(2, 1, 2), 2)
        assert s.ideal._height == 2
        derived = [
            Ideal.from_basis(s.ideal.groebner_basis(), s.ideal.vars, None),
            ideal_sum(s.ideal, s.ideal),
            singular_locus_ideal(s.ideal, 2),
            saturation(s.ideal, Ideal([s.ideal.generators[0]], s.ideal.vars)),
        ]
        assert [d._height for d in derived] == [None] * 4

    def test_not_zero_dimensional_names_variable(self):
        cases = (
            (("y", "z^2", "x*y"), 0),
            (("x^2", "x*y", "z"), 1),
            (("x*y", "x^2", "y^3"), 2),
        )
        for texts, index in cases:
            with pytest.raises(PreconditionError, match=f"in variable index {index}$"):
                colength(ideal(XYZ, *texts))


class TestSupport:
    def test_fat_point_true(self):
        vs = omega_vars()
        assert support_is_origin_only(
            ideal(vs, "x1", "x2", "x3", "x4", "x5", "y^4")
        )
        # V(1) is empty, so it lies in the origin too.
        assert support_is_origin_only(ideal(XY, "1"))

    def test_node_cone_false(self):
        assert not support_is_origin_only(ideal(XY, "x^2 - y^2"))

    def test_skew_pair_true(self):
        I = ideal(XY, "x*y", "x - y")
        assert support_is_origin_only(I)
        assert in_ideal(P("y^2", XY), I)

    def test_pure_powers_certify_without_saturation(self):
        # The saturation of (x^N, y) by the maximal ideal grows one basis
        # element per power of x; a pure power of every variable in the
        # reduced basis answers at once.
        x, y = (Polynomial.variable(XY, n) for n in XY.names)
        start = time.perf_counter()
        assert support_is_origin_only(Ideal([x**100000, y], XY))
        assert time.perf_counter() - start < 1.0

    def test_far_point_decided_by_the_origin_component(self):
        # (x^50 - x^51, y^50) has its zero set at the origin and at
        # (1, 0), and no certificate covers it.  Its colength is 51 * 50,
        # so its origin-primary component is I + (x^2550, y^2550), that
        # is (x^50, y^50), of colength 2,500.
        x, y = (Polynomial.variable(XY, n) for n in XY.names)
        for measure, expected in ((support_is_origin_only, False), (colength_at_origin, 2500)):
            start = time.perf_counter()
            assert measure(Ideal([x**50 - x**51, y**50], XY)) == expected
            assert time.perf_counter() - start < 1.0

    def test_support_past_the_standard_monomial_cap_raises(self):
        # (x^450 - x^451, y^450) has 451 * 450 = 202,950 standard
        # monomials, past the enumeration's cap of 200,000, so its
        # origin-primary component cannot be formed.
        x, y = (Polynomial.variable(XY, n) for n in XY.names)
        with pytest.raises(LimitError, match="^standard monomial enumeration exceeded cap$"):
            support_is_origin_only(Ideal([x**450 - x**451, y**450], XY))

    def test_homogeneous_primary_ideal_certifies_without_saturation(self, monkeypatch):
        # (x + y)^2 and (x - y)^2, a linear change of (x^2, y^2): the
        # reduced basis {x*y, x^2 + y^2, y^3} holds no one-term power of
        # x, but it is homogeneous and its leading terms include x^2 and
        # y^3, so it is primary to the maximal ideal.
        I = ideal(XY, "(x + y)^2", "(x - y)^2")
        assert set(I.groebner_basis()) == {P(t, XY) for t in ("x*y", "x^2 + y^2", "y^3")}
        saturated = []
        real = groebner.saturation
        monkeypatch.setattr(
            groebner, "saturation", lambda a, b: saturated.append(b) or real(a, b)
        )
        assert groebner._origin_certified(I)
        assert support_is_origin_only(I)
        assert colength_at_origin(I) == colength(I) == 4
        assert saturated == []

    def test_far_point_is_not_certified(self):
        # (x^2 - x, y): the origin and (1, 0); y is a one-term power, but
        # the basis is not homogeneous and holds no one-term power of x.
        I = ideal(XY, "x^2 - x", "y")
        assert not groebner._origin_certified(I)
        assert not support_is_origin_only(I)

    def test_positive_dimension_fails_without_saturation(self, monkeypatch):
        # (x^3) is not certified, and its zero set, the line x = 0, is not
        # within the origin: its dimension, read from the basis the
        # certificate cached, says so with no saturation.
        def refuse(a, b):
            raise AssertionError("saturated")

        monkeypatch.setattr(groebner, "saturation", refuse)
        assert not support_is_origin_only(ideal(XY, "x^3"))

    def test_certificate_reads_generators_and_input_rows_first(self, monkeypatch):
        # (x^2, y^2, (x + y)^3 - x*y^2) is certified by its generators.
        # (x^2 - x*y, x^2 - x*y + y^3) is not, since the second is not
        # homogeneous, but its interreduced generators x^2 - x*y and y^3
        # are.  Neither builds a reduced basis.  (x^2 - x, y) needs its
        # basis and is not certified.
        rows = []
        real = groebner._interreduce_input
        monkeypatch.setattr(
            groebner, "_interreduce_input", lambda *args: rows.append(1) or real(*args)
        )
        by_generators = ideal(XY, "x^2", "y^2", "(x + y)^3 - x*y^2")
        assert groebner._origin_certified(by_generators)
        assert (rows, by_generators.cached_basis()) == ([], None)
        by_rows = ideal(XY, "x^2 - x*y", "x^2 - x*y + y^3")
        assert groebner._origin_certified(by_rows)
        assert (rows, by_rows.cached_basis()) == ([1], None)
        far = ideal(XY, "x^2 - x", "y")
        assert not groebner._origin_certified(far)
        assert far.cached_basis() is not None

    def test_certificate_keeps_the_input_phase_cap(self):
        # The interreduced generators of (x^5 - y, y^5 - x) lead in degree
        # 5: under a cap of 2 the certificate raises the input phase's
        # own error, as the basis does.  (x^3, y^3, x*y) is certified by
        # its generators, but they exceed the cap, so they are not read:
        # the input phase trips first.  The first two input rows of
        # (x^3, y^3, x^2*y^2) prove its support, but its last generator
        # exceeds a cap of 3, so the input phase is not cut short there
        # and trips on that row.
        cases = (
            (("x^5 - y", "y^5 - x"), 2, 5),
            (("x^3", "y^3", "x*y"), 2, 3),
            (("x^3", "y^3", "x^2*y^2"), 3, 4),
        )
        for texts, cap, degree in cases:
            errors = []
            for read in (Ideal.groebner_basis, groebner._origin_certified):
                with pytest.raises(LimitError) as caught:
                    read(capped(ideal(XY, *texts), cap))
                errors.append(str(caught.value))
            message = f"basis computation exceeded the degree cap {cap}: input leading term"
            assert errors == [f"{message} reached degree {degree}"] * 2
        assert groebner._origin_certified(capped(ideal(XY, "x^3", "y^3", "x*y"), 3))
        assert groebner._origin_certified(capped(ideal(XY, "x^3", "y^3", "x^2*y^2"), 4))

    def test_certificate_stops_the_input_phase_at_the_proof(self, monkeypatch):
        # The generators of a sheared omega3 locus do not prove its
        # support, and its input rows do.  The interreduction stops once
        # the rows kept so far prove it, so it makes fewer reductions than
        # the whole input phase, which proves it too; no basis is built.
        locus = sheared_omega_locus()
        width = len(locus.vars)
        assert not groebner._certifies_origin(locus.generators, width)
        calls = []
        real = groebner._reduce_full
        monkeypatch.setattr(
            groebner, "_reduce_full", lambda *args: calls.append(1) or real(*args)
        )
        rows, packing = groebner._packed_run(locus, GREVLEX, groebner._input_rows)
        whole = len(calls)
        assert groebner._certifies_origin(
            [
                Polynomial._integral(locus.vars, {packing.unpack(m): c for m, c in r[3].items()}, 1)
                for r in rows
            ],
            width,
        )
        calls.clear()
        assert groebner._origin_certified(locus)
        assert 0 < len(calls) < whole
        assert locus.cached_basis() is None

    def test_certificate_skips_the_s_pair_phase_under_a_cap(self):
        # (x^2, y^2, z^2, x*y) lies within a cap of 2, but its basis
        # run trips on the S-pair lcm x^2*y; its generators certify it
        # before any S-pair.
        gens = ideal(XYZ, "x^2", "y^2", "z^2", "x*y")
        with pytest.raises(LimitError, match="cap 2: S-pair lcm reached degree 3$"):
            capped(gens, 2).groebner_basis()
        I = capped(gens, 2)
        assert groebner._origin_certified(I)
        assert I.cached_basis() is None

    def test_certified_ideals_saturate_to_the_unit_ideal_property(self):
        """Every proper ideal the saturation-free certificate accepts has
        a : m^inf = (1), m the maximal ideal.  The inputs are both ideals
        of each test_saturation_certified_property case, and the
        homogeneous ideals of their generators' top-degree forms.  Each
        is certified fresh, from its generators, input rows or basis in
        turn, and again with its reduced basis cached: the fresh answer
        holds whenever the cached one does."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        certified = []

        def forms(a):
            tops = [
                {m: c for m, c in g.terms.items() if sum(m) == g.total_degree()}
                for g in a.generators
            ]
            return Ideal([Polynomial(a.vars, t) for t in tops], a.vars)

        @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
        @hypothesis.given(saturation_cases(st))
        def run(case):
            for a in case + tuple(forms(a) for a in case):
                fresh = groebner._origin_certified(Ideal(a.generators, a.vars))
                a.groebner_basis()
                assert fresh or not groebner._origin_certified(a)
                if fresh and not is_unit_ideal(a):
                    certified.append(a)
                    assert saturated_support_is_origin_only(a)

        run()
        assert certified


class TestColength:
    def test_fat_point(self):
        vs = omega_vars()
        assert colength(ideal(vs, "x1", "x2", "x3", "x4", "x5", "y^4")) == 4

    def test_maximal_ideal(self):
        assert colength(ideal(XY, "x", "y")) == 1

    def test_staircase(self):
        I = ideal(XY, "x^2", "x*y", "y^3")
        assert colength(I) == 4  # standard monomials 1, x, y, y^2
        assert stable_corank(list(I.generators)) == 4

    def test_rejects_positive_dimension(self):
        with pytest.raises(PreconditionError):
            colength(ideal(XY, "x"))

    def test_rejects_support_off_origin(self):
        with pytest.raises(PreconditionError):
            colength(ideal(XY, "x - 1", "y"))

    def test_rejects_the_unit_ideal(self):
        with pytest.raises(PreconditionError, match="colength of the unit ideal is undefined"):
            colength(ideal(XY, "x", "x - 1"))

    def test_standard_monomials_counted_once(self, monkeypatch):
        # Not certified at the origin, so the support test builds the
        # origin-primary component from the colength's own count.
        calls = []
        real = groebner._standard_monomials
        monkeypatch.setattr(
            groebner, "_standard_monomials", lambda *args: calls.append(args) or real(*args)
        )
        assert colength(ideal(XY, "x*y", "x^2 + y^3")) == 5
        assert len(calls) == 1

    def test_standard_monomial_count_matches_the_oracle(self):
        # Random zero-dimensional monomial ideals in 1-5 variables: a pure
        # power of every variable and up to four more monomials.  The
        # slice count equals a brute-force recount, and the cap trips
        # exactly when the count passes it.
        rng = random.Random(28)
        top = {1: 12, 2: 8, 3: 5, 4: 4, 5: 3}
        for _ in range(150):
            width = rng.randint(1, 5)
            vs = VariableSet(tuple(f"x{i}" for i in range(width)))
            exps = [
                tuple(rng.randint(1, top[width]) if k == j else 0 for k in range(width))
                for j in range(width)
            ]
            for _ in range(rng.randint(0, 4)):
                m = tuple(rng.randint(0, top[width]) for _ in range(width))
                if any(m):
                    exps.append(m)
            basis = Ideal([Polynomial(vs, {m: 1}) for m in exps], vs).groebner_basis()
            count = standard_monomial_count(basis, width)
            assert groebner._standard_monomials(basis, width) == count
            assert groebner._standard_monomials(basis, width, cap=count) == count
            with pytest.raises(LimitError, match="^standard monomial enumeration exceeded cap$"):
                groebner._standard_monomials(basis, width, cap=count - 1)

    def test_large_colength_counted_in_slices(self, monkeypatch):
        # The origin-primary component of (x^440 - x^441, y^440) is
        # (x^440, y^440), with 193,600 standard monomials, just under the
        # cap; none of them is formed.  Two staircases are counted, the
        # ideal's (for the component's powers) and the component's, each
        # in one call plus one per slice y^e, e < 440: work, not time.
        calls = []
        count = groebner._staircase_count

        def counted(lts, cap):
            calls.append(len(lts[0]))
            return count(lts, cap)

        monkeypatch.setattr(groebner, "_staircase_count", counted)
        x, y = (Polynomial.variable(XY, n) for n in XY.names)
        assert colength_at_origin(Ideal([x**440 - x**441, y**440], XY)) == 193600
        assert sorted(calls) == [1] * 880 + [2] * 2

    def test_count_stops_at_the_cap(self):
        # (x^60, y^60, z^60, w^60) has 60^4 standard monomials; the count
        # raises once it passes 200,000, after a few thousand slices.
        vs = VariableSet(("x", "y", "z", "w"))
        I = Ideal([Polynomial.variable(vs, n) ** 60 for n in vs.names], vs)
        start = time.perf_counter()
        with pytest.raises(LimitError, match="^standard monomial enumeration exceeded cap$"):
            colength(I)
        assert time.perf_counter() - start < 0.1

    def test_standard_monomial_recount(self):
        I = ideal(XY, "x^3 - y", "y^2")
        c = colength(I)
        assert c == standard_monomial_count(I.groebner_basis(), 2)
        assert c == stable_corank(list(I.generators))

    def test_colength_at_origin_from_pure_powers(self):
        # A pure power of every variable in the reduced basis confines the
        # support to the origin, so no saturation splits anything off.
        x, y = (Polynomial.variable(XY, n) for n in XY.names)
        start = time.perf_counter()
        assert colength_at_origin(Ideal([x**1000, y], XY)) == 1000
        assert time.perf_counter() - start < 1.0

    def test_colength_at_origin_splits_off_far_points(self):
        # x(x-1) = 0 and y = 0: two reduced points; only one at the origin.
        I = ideal(XY, "x^2 - x", "y")
        assert colength_at_origin(I) == 1
        # Fat origin plus a far point.
        J = ideal(XY, "x^2*(x - 1)", "y")
        assert colength_at_origin(J) == 2
        # Unit ideal: nothing anywhere.
        assert colength_at_origin(ideal(XY, "1")) == 0

    def test_colength_at_origin_when_nothing_lies_away(self):
        # The reduced basis {x*y, y^3 + x^2, x^3} holds no pure power of
        # y and is not homogeneous, so it is not certified: the
        # origin-primary component I + (x^5, y^5) is built, and it is I.
        I = ideal(XY, "x*y", "x^2 + y^3")
        assert [len(g.terms) for g in I.groebner_basis()] == [1, 2, 1]
        assert not groebner._origin_certified(I)
        component = groebner._origin_component(I)
        assert component.generators[-2:] == (P("x^5", XY), P("y^5", XY))
        assert component.groebner_basis().elements == I.groebner_basis().elements
        assert saturated_support_is_origin_only(I)
        assert colength_at_origin(I) == colength(I) == 5

    def test_certificate_keeps_colengths_and_errors(self, monkeypatch):
        # Differential oracle: colength and colength_at_origin of every
        # stratum give the same value or error with the saturation-free
        # certificate switched off, on the bundled models, their sampled
        # members and sheared omega1-3 models.
        models = bundled_members()
        perm = ("x3", "x1", "x4", "y", "x2", "x5")
        models += [
            sheared_omega_model(k, perm, ((("x1", "x5"), 2), (("y", "x2"), -1)))
            for k in (1, 2, 3)
        ]

        def outcomes():
            out = []
            for m in models:
                for i in range(1, m.dtype.t + 1):
                    for measure in (colength, colength_at_origin):
                        try:
                            out.append(measure(stratum(m, i).ideal))
                        except DetsingError as exc:
                            out.append(f"{type(exc).__name__}: {exc}")
            return out

        certified = outcomes()
        monkeypatch.setattr(groebner, "_origin_certified", lambda a: False)
        assert outcomes() == certified
        assert any(isinstance(o, int) for o in certified)
        assert any(isinstance(o, str) for o in certified)

    def test_origin_component_matches_the_saturation_property(self, monkeypatch):
        """On every zero-dimensional ideal among I, J and I + J of the
        test_saturation_certified_property cases, support_is_origin_only
        and colength_at_origin equal the saturation reference, with the
        certificate on and off."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        certificate = groebner._origin_certified
        seen = []

        @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
        @hypothesis.given(saturation_cases(st))
        def run(case):
            for a in (*case, ideal_sum(*case)):
                if dimension(a) != 0:
                    continue
                expected = (saturated_support_is_origin_only(a), saturated_colength_at_origin(a))
                seen.append(expected)
                for check in (certificate, lambda a: False):
                    monkeypatch.setattr(groebner, "_origin_certified", check)
                    fresh = Ideal(a.generators, a.vars)
                    assert (support_is_origin_only(fresh), colength_at_origin(fresh)) == expected

        run()
        assert {support for support, _ in seen} == {True, False}
        assert any(not support and colength for support, colength in seen)

    def test_support_and_origin_colength_run_no_saturation(self, monkeypatch):
        # Every stratum of the bundled models and their sampled members,
        # with the certificate on and off: neither function saturates,
        # and origin-primary components are built in both runs.
        def refuse(a, b):
            raise AssertionError("saturated")

        components = []
        real = groebner._origin_component
        monkeypatch.setattr(groebner, "saturation", refuse)
        monkeypatch.setattr(
            groebner, "_origin_component", lambda a: components.append(a) or real(a)
        )
        models = bundled_members()
        for check in (groebner._origin_certified, lambda a: False):
            monkeypatch.setattr(groebner, "_origin_certified", check)
            components.clear()
            for m in models:
                for i in range(1, m.dtype.t + 1):
                    for measure in (support_is_origin_only, colength_at_origin):
                        try:
                            measure(stratum(m, i).ideal)
                        except PreconditionError:
                            pass
            assert components

    def test_colength_at_origin_of_a_far_point(self):
        assert colength_at_origin(ideal(XY, "x - 1", "y")) == 0
