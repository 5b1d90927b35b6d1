import gc
import random
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from detsing import (
    DeterminantalType,
    GeneratorMatrix,
    LimitError,
    Polynomial,
    PresentationMatrix,
    ValidationError,
    VariableSet,
    chain_rule_check,
    dm_matrix,
    in_ideal,
    jacobian_generators,
    minors,
    n_generators,
    singular_locus_ideal,
    stratum,
)
from detsing.detmodel import _all_minors
from detsing.groebner import Ideal, dimension, is_unit_ideal
from detsing.poly import GREVLEX, LEX, MonomialOrdering
from detsing.modelfile import build_model, load_model_file
from helpers import P, generic_entry_model, omega_model, random_matrix_model, sheared_omega_model
from oracles import cofactor_det
from test_strata import GENERIC_GRID

MODELS = Path(__file__).resolve().parent.parent / "models"


def _oracle_minors(grid, size):
    return [
        cofactor_det([[grid[r][c] for c in cols] for r in rows])
        for rows in combinations(range(len(grid)), size)
        for cols in combinations(range(len(grid[0])), size)
    ]


def _oracle_n_generators(m, i):
    """The Jacobian of the i x i minors of a generic matrix, one variable
    per entry, with each entry substituted for its variable."""
    names = tuple(f"g{r + 1}_{c + 1}" for r in range(m.rows) for c in range(m.cols))
    gvars = VariableSet(names)
    generic = [
        [Polynomial.variable(gvars, names[r * m.cols + c]) for c in range(m.cols)]
        for r in range(m.rows)
    ]
    assignment = dict(zip(names, (e for row in m.entries for e in row)))
    return tuple(
        tuple(gm.derivative(g).substitute(assignment, target=m.vars) for g in names)
        for gm in _oracle_minors(generic, i)
    )


class TestMinors:
    def test_omega_two_by_two(self):
        m = omega_model(2)
        vs = m.vars
        got = minors(m, 2)
        expected = [
            P("x1*x5 - x2*x4", vs),
            P("x1*(x1 + y^3) - x3*x4", vs),
            P("x2*(x1 + y^3) - x3*x5", vs),
        ]
        assert got == expected

    def test_size_one_is_entries(self):
        m = omega_model(1)
        assert minors(m, 1) == [e for row in m.entries for e in row]

    def test_generic_two_by_two_determinant(self):
        vs = VariableSet(("a", "b", "c", "d"))
        entries = [[P("a", vs), P("b", vs)], [P("c", vs), P("d", vs)]]
        m = PresentationMatrix(DeterminantalType(2, 0, 2), entries, vs)
        assert minors(m, 2) == [P("a*d - b*c", vs)]

    def test_count_matches_binomials(self):
        rng = random.Random(3)
        for rows, cols in [(2, 2), (3, 2), (4, 3), (5, 4)]:
            m = random_matrix_model(rng, rows, cols, 3, max_degree=1)
            for size in range(1, min(rows, cols) + 1):
                assert len(minors(m, size)) == comb(rows, size) * comb(cols, size)

    def test_minor_count_cap(self):
        # 3 x 3 entries: C(3, 2)^2 = 9 minors of size 2.
        m = generic_entry_model(3, 0, 3)
        assert len(_all_minors(m.entries, 2, m.vars, cap=9)) == 9
        with pytest.raises(LimitError) as trip:
            _all_minors(m.entries, 2, m.vars, cap=8)
        assert str(trip.value) == "minors exceeded the cap 8: 9 minors of size 2 of a 3 x 3 matrix"

    def test_size_out_of_range(self):
        with pytest.raises(ValidationError):
            minors(omega_model(1), 3)

    def test_bundled_models_keep_positions_and_values(self):
        # Every minor of every size of the bundled models and their
        # sampled members, and of the Jacobians of their present strata,
        # equals the cofactor oracle at its position.  The zero minors,
        # which the Jacobians hold, are one shared zero polynomial.
        models = []
        for path in sorted(MODELS.glob("*.model")):
            mf = load_model_file(path)
            m = build_model(mf)
            models += [m] + [m.specialize(dict(point)) for point in mf.samples]
        zeros = 0
        for m in models:
            for size in range(1, min(m.rows, m.cols) + 1):
                assert minors(m, size) == _oracle_minors(m.entries, size)
            if not m.is_specialized():
                continue
            for i in range(1, m.dtype.t + 1):
                gens = list(stratum(m, i).ideal.generators)
                jac = [[g.derivative(n) for n in m.vars.names] for g in gens]
                codim = min(m.dtype.expected_codim(i), len(gens), len(m.vars))
                got = _all_minors(jac, codim, m.vars)
                assert got == _oracle_minors(jac, codim)
                zero = [p for p in got if p.is_zero()]
                assert all(p is zero[0] for p in zero)
                zeros += len(zero)
        assert zeros

    def test_matches_cofactor_oracle_property(self):
        """minors, singular_locus_ideal and n_generators equal lists built
        with the cofactor oracle, on every minor size of random grids up
        to 4 x 4: rational coefficients, zero entries, all-zero rows, a
        family parameter and exponents of 2^32 and more."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def grids(draw):
            nvars = draw(st.integers(1, 3))
            vs = VariableSet(tuple(f"x{i}" for i in range(nvars)), ("u",))
            exponent = st.sampled_from([0, 0, 1, 2, 3, 4, 2**32, 2**32 + 1])
            coeff = st.builds(
                Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 6)
            )
            # Pure powers make the exponent bound tight, so a field one
            # bit too narrow shows.
            power = st.builds(
                lambda j, e: tuple(e if i == j else 0 for i in range(len(vs))),
                st.integers(0, nvars),
                exponent,
            )
            monomial = st.one_of(power, st.tuples(*[exponent] * len(vs)))
            entry = st.builds(
                lambda t: Polynomial(vs, t),
                st.dictionaries(monomial, coeff, max_size=3),
            )
            rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
            grid = []
            for _ in range(rows):
                row = draw(st.lists(entry, min_size=cols, max_size=cols))
                if draw(st.integers(0, 2)) == 0:
                    row = [Polynomial.zero(vs)] * cols
                grid.append(row)
            return vs, grid

        @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
        @hypothesis.given(grids())
        def run(case):
            vs, grid = case
            n, k = min(len(grid), len(grid[0])), abs(len(grid) - len(grid[0]))
            m = PresentationMatrix(DeterminantalType(n, k, n), grid, vs)
            gens = [e for row in grid for e in row if not e.is_zero()]
            for size in range(1, n + 1):
                assert minors(m, size) == _oracle_minors(grid, size)
                if size <= min(len(gens), len(vs)):
                    jac = [[g.derivative(z) for z in vs.names] for g in gens]
                    got = singular_locus_ideal(Ideal(gens, vs), size)
                    want = Ideal(gens + _oracle_minors(jac, size), vs)
                    assert got.generators == want.generators
                # The substitutions on both sides dominate; larger grids
                # only add time.
                if len(grid) * len(grid[0]) <= 9:
                    assert n_generators(m, size).entries == _oracle_n_generators(m, size)

        run()


def _tuple_born(p):
    """A copy of p that stores only its exponent-tuple integer form."""
    return Polynomial._integral(p.vars, dict(p._ints), p._den)


class TestPackedBorn:
    """Minors and reduced bases keep the engine's packed form; every view
    of them must be the value a tuple-born polynomial would give."""

    def cases(self):
        rng = random.Random(20)
        for rows, cols, nvars, degree in [(2, 2, 2, 2), (2, 3, 3, 2), (3, 3, 3, 1), (3, 2, 2, 3)]:
            for _ in range(4):
                m = random_matrix_model(rng, rows, cols, nvars, degree)
                # Rational entries: each row's denominators differ.
                yield PresentationMatrix(
                    m.dtype,
                    [[e.scale(Fraction(1, r + 2 + c)) for c, e in enumerate(row)]
                     for r, row in enumerate(m.entries)],
                    m.vars,
                )

    def test_minors_match_the_cofactor_oracle(self):
        # Term map, integer form and the readers that answer from the
        # packed map, for minors of tuple-born entries and for minors of
        # a grid of packed-born entries (the 1 x 1 minors, reshaped).
        checked = 0
        for m in self.cases():
            entries = minors(m, 1)
            reshaped = [entries[r * m.cols : (r + 1) * m.cols] for r in range(m.rows)]
            for size in range(1, min(m.rows, m.cols) + 1):
                want = _oracle_minors(m.entries, size)
                for got in (minors(m, size), _all_minors(reshaped, size, m.vars)):
                    assert len(got) == len(want)
                    for g, w in zip(got, want):
                        if w.is_zero():
                            assert g.is_zero() and g._packing is None
                            continue
                        packing = g._packing
                        assert packing.ordering == GREVLEX
                        assert g.total_degree() == w.total_degree()
                        assert g.leading_monomial() == w.leading_monomial()
                        assert g.is_constant() == w.is_constant()
                        assert not g.is_zero() and g
                        assert g._unpacked is None  # the readers unpack nothing
                        assert g == w
                        assert g.leading_monomial(LEX) == w.leading_monomial(LEX)
                        ints, den = g._ints, g._den
                        assert {packing.pack(e): c for e, c in ints.items()} == g._packed
                        assert _tuple_born(g) == w and hash(g) == hash(w)
                        assert g.terms == w.terms
                        assert {e: Fraction(c, den) for e, c in ints.items()} == w.terms
                        checked += 1
        assert checked > 200

    def test_bases_match_tuple_born_ones(self):
        # The reduced basis of packed-born generators (a stratum's minors
        # and, over two variables, the Jacobian minors of its reduced
        # basis; over three their lex bases take minutes) equals that of
        # tuple-born copies, in grevlex, in lex and in an elimination
        # order, and comes back packed in the run's ordering.
        orders = [GREVLEX, LEX, MonomialOrdering.eliminating([0])]
        compared = 0
        for m in self.cases():
            s = stratum(m, min(m.rows, m.cols))
            basis = s.ideal.groebner_basis()
            gens = list(s.ideal.generators)
            if len(m.vars) == 2 and len(basis) <= 2:
                gens += singular_locus_ideal(Ideal(basis.elements, m.vars), len(basis)).generators
            tuples = [_tuple_born(g) for g in gens]
            for order in orders:
                got = Ideal(gens, m.vars).groebner_basis(order)
                want = Ideal(tuples, m.vars).groebner_basis(order)
                assert got.elements == want.elements
                assert [g.terms for g in got] == [w.terms for w in want]
                assert got.leading_monomials() == [
                    max(w.terms, key=order.key) for w in want
                ]
                assert all(g._packing.ordering == order for g in got)
                compared += 1
        assert compared == 48

    def test_packed_inputs_widen_from_their_exponents(self):
        # x^K - y and y^K - x, K = 2^15 - 1, born packed in 16-bit fields:
        # the run takes them as they are, the lcm x^K*y^K overflows, and
        # the run starts again with 32-bit fields from their exponents.
        K = 2**15 - 1
        vs = VariableSet(("x", "y"))
        grid = [[P(f"x^{K} - y", vs), P(f"y^{K} - x", vs)]]
        gens = _all_minors(grid, 1, vs)
        assert {g._packing.bits for g in gens} == {16}
        got = Ideal(gens, vs).groebner_basis()
        assert {g._packing.bits for g in got} == {32}
        assert got.elements == Ideal([_tuple_born(g) for g in gens], vs).groebner_basis().elements
        assert set(got) == set(grid[0])


def _generic_jacobian(n, k, t):
    """The Jacobian of stratum t's reduced grevlex basis of the generic
    (n, k, t) matrix, as ``strata.singular_locus_ideal`` builds it (its
    entries born packed), with that stratum's expected codimension."""
    m = generic_entry_model(n, k, t)
    s = stratum(m, t)
    basis = s.ideal.groebner_basis()
    return [[g.derivative(z) for z in m.vars.names] for g in basis], s.expected_codim, m.vars


class TestWedgeMinors:
    """The row-wedge determinant on sparse and degenerate grids: every
    position and sign equals the cofactor oracle, and every zero minor is
    the call's one unpacked zero."""

    def check(self, grid, size, vs):
        got = _all_minors(grid, size, vs)
        want = _oracle_minors(grid, size)
        assert len(got) == len(want)
        zeros = [g for g in got if g.is_zero()]
        assert all(g is zeros[0] and g._packing is None for g in zeros)
        for g, w in zip(got, want):
            assert g == w
            assert g.is_zero() or g._packing is not None
        return got

    def test_generic_jacobians(self):
        for case, nonzero in [((2, 1, 2), 39), ((2, 2, 2), 704)]:
            jac, codim, vs = _generic_jacobian(*case)
            assert all(e._packing is not None for row in jac for e in row if e)
            got = self.check(jac, codim, vs)
            assert sum(1 for g in got if g) == nonzero
            for size in (1, min(len(jac), len(jac[0]))):
                self.check(jac, size, vs)

    def test_zero_row_and_zero_column(self):
        vs = VariableSet(("x", "y", "z"))
        texts = [
            ["x", "0", "y^2", "x*z - 1"],
            ["0", "0", "0", "0"],
            ["y", "0", "3*z", "x + y"],
            ["x*y", "0", "z^2 - x", "2"],
        ]
        grid = [[P(t, vs) for t in row] for row in texts]
        for size in range(1, 5):
            got = self.check(grid, size, vs)
        assert got == [Polynomial.zero(vs)]

    def test_rows_with_different_denominators(self):
        vs = VariableSet(("x", "y"))
        texts = [
            ["1/2*x", "1/3*y", "1/6"],
            ["5*y", "1/7*x^2", "x - y"],
            ["1/4*x*y", "2", "1/9*y^2"],
        ]
        grid = [[P(t, vs) for t in row] for row in texts]
        for size in range(1, 4):
            got = self.check(grid, size, vs)
            if size == 1:
                # Size 1 is each entry, over its row's common denominator.
                assert [g._den for g in got] == [6] * 3 + [7] * 3 + [36] * 3
        assert got[0]._den == 6 * 7 * 36

    def test_sizes_one_and_largest_on_wide_and_tall_grids(self):
        rng = random.Random(25)
        for rows, cols in [(1, 4), (4, 1), (2, 5), (5, 3)]:
            m = random_matrix_model(rng, rows, cols, 3, max_degree=2)
            sparse = [
                [e if (r + c) % 3 else Polynomial.zero(m.vars) for c, e in enumerate(row)]
                for r, row in enumerate(m.entries)
            ]
            for grid in (m.entries, sparse):
                self.check(grid, 1, m.vars)
                self.check(grid, min(rows, cols), m.vars)

    def test_leaves_no_cyclic_garbage(self):
        # The minors are built with no self-referring closure, so nothing
        # of the call waits for the cyclic collector.
        jac, codim, vs = _generic_jacobian(2, 2, 2)
        gc.collect()
        got = _all_minors(jac, codim, vs)
        assert gc.collect() == 0
        assert len(got) == 1120


class TestStratum:
    def test_omega_dimensions(self):
        m = omega_model(3)
        s2 = stratum(m, 2)
        assert (s2.expected_codim, s2.expected_dim) == (2, 4)
        s1 = stratum(m, 1)
        assert (s1.expected_codim, s1.expected_dim) == (6, 0)
        assert s1.present and s2.present

    def test_absent_stratum(self):
        vs = VariableSet(tuple(f"v{i}" for i in range(5)))
        rng = random.Random(4)
        entries = [
            [P(f"v{(r + c) % 5}", vs) for c in range(2)] for r in range(3)
        ]
        m = PresentationMatrix(DeterminantalType(2, 1, 2), entries, vs)
        s1 = stratum(m, 1)
        assert s1.expected_dim == -1
        assert not s1.present

    def test_expected_dim_grid(self):
        for n in range(1, 5):
            for k in range(0, 3):
                for t in range(1, n + 1):
                    d = DeterminantalType(n, k, t)
                    for q in range(1, 12):
                        assert d.expected_dim(t, q) == q - (n - t + 1) * (
                            n + k - t + 1
                        )

    def test_proper_strata_reach_the_expected_dimension_property(self):
        """Eagon-Northcott: every minimal prime of a proper ideal of i x i
        minors of an (n+k) x n matrix has height at most expected_codim(i)
        (Bruns & Vetter, Thm 2.1), so a proper, present stratum's
        dimension is never below expected_dim.  The inputs are
        random_matrix_model draws of five shapes (rows, columns,
        variables, entry degree)."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        shapes = ((2, 2, 4, 2), (3, 2, 4, 1), (2, 3, 4, 1), (3, 3, 4, 1), (1, 3, 3, 2))
        excess = []

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
        @hypothesis.given(st.sampled_from(shapes), st.integers(0, 2**32))
        def run(shape, seed):
            m = random_matrix_model(random.Random(seed), *shape)
            for i in range(1, m.dtype.t + 1):
                s = stratum(m, i)
                if s.present and not is_unit_ideal(s.ideal):
                    excess.append(dimension(s.ideal) - s.expected_dim)
                    assert excess[-1] >= 0, f"stratum {i} of {m.entries}"

        run()
        assert 0 in excess and any(excess)

    def test_certified_dimension_matches_the_basis_property(self):
        """dimension() of a fresh stratum, certified without a basis when
        its generators' leading terms meet the Eagon-Northcott floor,
        equals dimension() of an ideal with the same generators and no
        height bound, which reads the reduced basis.  The inputs are the
        generic grid, the bundled models and their samples, omega models
        in sheared coordinates, and random_matrix_model draws of the five
        shapes above.  A certified stratum has no basis cached: the
        certificate fires on every generic stratum and falls through on
        some other strata."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        shapes = ((2, 2, 4, 2), (3, 2, 4, 1), (2, 3, 4, 1), (3, 3, 4, 1), (1, 3, 3, 2))
        certified = []

        def check(m):
            for i in range(1, m.dtype.t + 1):
                s = stratum(m, i)
                got = dimension(s.ideal)
                assert got == dimension(Ideal(s.ideal.generators, s.ideal.vars)), (i, m.entries)
                certified.append(s.ideal.cached_basis() is None)

        for case in GENERIC_GRID:
            check(generic_entry_model(*case))
        assert all(certified)
        for path in sorted(MODELS.glob("*.model")):
            mf = load_model_file(path)
            m = build_model(mf)
            for model in [m] + [m.specialize(dict(point)) for point in mf.samples]:
                check(model)
        perm = ("x3", "y", "x1", "x5", "x2", "x4")
        for k in (1, 2, 3):
            for shears in (((("x1", "y"), 2), (("x4", "x2"), -1)), ((("y", "x3"), -2),)):
                check(sheared_omega_model(k, perm, shears))

        @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
        @hypothesis.given(st.sampled_from(shapes), st.integers(0, 2**32))
        def run(shape, seed):
            check(random_matrix_model(random.Random(seed), *shape))

        run()
        assert not all(certified)

    def test_strata_nesting(self):
        # Each i-minor lies in the ideal of the (i-1)-minors.
        m = omega_model(1)
        deeper = Ideal(minors(m, 1), m.vars)
        for f in minors(m, 2):
            assert in_ideal(f, deeper)
        rng = random.Random(5)
        g = random_matrix_model(rng, 3, 3, 3, max_degree=1)
        for i in (2, 3):
            deeper = Ideal(minors(g, i - 1), g.vars)
            for f in minors(g, i):
                assert in_ideal(f, deeper)


class TestGeneratorMatrices:
    def test_jacobian_entry(self):
        m = omega_model(1)
        jac = jacobian_generators(minors(m, 2), m.vars)
        # Second minor is x1^2 + x1*y^2 - x3*x4; d/dx1 = 2*x1 + y^2.
        assert jac.entries[1][0] == P("2*x1 + y^2", m.vars)
        assert jac.rows == 3 and jac.cols == 6

    def test_jacobian_single_poly(self):
        vs = VariableSet(("x", "y"))
        jac = jacobian_generators([P("x^2", vs)], vs)
        assert jac.entries == ((P("2*x", vs), Polynomial.zero(vs)),)

    def test_jacobian_constants(self):
        vs = VariableSet(("x", "y"))
        jac = jacobian_generators([Polynomial.constant(vs, 5)], vs)
        assert all(e.is_zero() for row in jac.entries for e in row)

    def test_n_generators_cofactors(self):
        vs = VariableSet(("a", "b", "c", "d"))
        entries = [[P("a", vs), P("b", vs)], [P("c", vs), P("d", vs)]]
        m = PresentationMatrix(DeterminantalType(2, 0, 2), entries, vs)
        ng = n_generators(m, 2)
        assert ng.entries == (
            (P("d", vs), P("-c", vs), P("-b", vs), P("a", vs)),
        )

    def test_n_generators_identity_pattern(self):
        m = omega_model(1)
        ng = n_generators(m, 1)
        one = Polynomial.constant(m.vars, 1)
        for r in range(6):
            for c in range(6):
                assert ng.entries[r][c] == (one if r == c else Polynomial.zero(m.vars))

    def test_n_generators_omega_cofactor_oracle(self):
        # Rows indexed by the three 2x2 minors of the generic 2x3 matrix;
        # recompute each derivative by expanding the minor by hand.
        m = omega_model(2)
        ng = n_generators(m, 2)
        assert ng.rows == 3 and ng.cols == 6
        e = {
            (r, c): m.entries[r][c] for r in range(2) for c in range(3)
        }
        col_pairs = list(combinations(range(3), 2))
        zero = Polynomial.zero(m.vars)
        for row_idx, (c1, c2) in enumerate(col_pairs):
            # minor = e[0,c1]*e[1,c2] - e[0,c2]*e[1,c1]
            expected = {
                (0, c1): e[1, c2],
                (1, c2): e[0, c1],
                (0, c2): -e[1, c1],
                (1, c1): -e[0, c2],
            }
            for pos in range(6):
                r, c = divmod(pos, 3)
                assert ng.entries[row_idx][pos] == expected.get((r, c), zero)

    def test_dm_matrix_rows(self):
        m = omega_model(1)
        dm = dm_matrix(m)
        assert dm.rows == 6 and dm.cols == 6
        # Row for entry (2,3) = x1 + y^2: gradient (1,0,0,0,0,2y).
        row = dm.entries[5]
        assert row[0] == Polynomial.constant(m.vars, 1)
        assert row[5] == P("2*y", m.vars)
        assert all(row[i].is_zero() for i in range(1, 5))

    def test_dm_constant_matrix_is_zero(self):
        vs = VariableSet(("x",))
        entries = [[Polynomial.constant(vs, 1)], [Polynomial.constant(vs, 2)]]
        m = PresentationMatrix(DeterminantalType(1, 1, 1), entries, vs)
        assert all(e.is_zero() for row in dm_matrix(m).entries for e in row)


class TestChainRule:
    def test_omega_all_k(self):
        for k in range(1, 6):
            assert chain_rule_check(omega_model(k), 2)
            assert chain_rule_check(omega_model(k), 1)

    def test_random_quadratic_matrices(self):
        rng = random.Random(42)
        for _ in range(4):
            m = random_matrix_model(rng, 3, 2, 4, max_degree=2)
            assert chain_rule_check(m, 2)

    def test_corruption_reports_position(self):
        m = omega_model(1)
        jac = jacobian_generators(minors(m, 2), m.vars)
        product = n_generators(m, 2).multiply(dm_matrix(m))
        rows = [list(r) for r in product.entries]
        rows[1][0] = rows[1][0] + Polynomial.constant(m.vars, 1)
        assert jac.first_mismatch(GeneratorMatrix(rows)) == (1, 0)
