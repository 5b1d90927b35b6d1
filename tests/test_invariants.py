import random
from math import comb

import pytest

from detsing import (
    ChiData,
    DeterminantalType,
    InconsistentDataError,
    PreconditionError,
    PresentationMatrix,
    ValidationError,
    VariableSet,
    build_euler_system,
    build_euler_system_for_type,
    m0_colength,
    md_consistency,
    nit_coefficient,
    parse_polynomial,
    polar_term_bound,
    solve_for_chi_diffs,
    solve_for_m,
    solve_from_lhs,
    whitney_report,
)
from helpers import generic_entry_model, omega_model


class TestNitCoefficient:
    def test_known_values(self):
        assert nit_coefficient(2, 1, 2, 1) == -1
        assert nit_coefficient(2, 1, 2, 2) == 1

    def test_diagonal_is_one(self):
        for n in range(1, 6):
            for k in range(0, 4):
                for t in range(1, n + 1):
                    assert nit_coefficient(n, k, t, t) == 1

    def test_formula_everywhere(self):
        for n in range(1, 6):
            for k in range(0, 4):
                for t in range(1, n + 1):
                    for i in range(1, t + 1):
                        value = nit_coefficient(n, k, t, i)
                        assert abs(value) == comb(n - i, n - t)
                        assert value == (-1) ** (k * (t - i)) * comb(n - i, n - t)

    def test_range_check(self):
        with pytest.raises(ValidationError):
            nit_coefficient(2, 1, 3, 1)


class TestEulerSystem:
    def test_omega_system(self):
        sys = build_euler_system(omega_model(3))
        assert sys.strata == (1, 2)
        assert sys.dims == (0, 4)
        assert sys.matrix == ((1, 0), (-1, 1))
        # Lowest admitted row has a single term.
        assert [c for c in sys.matrix[0] if c] == [1]

    def test_generic_three_by_two_same_shape(self):
        sys = build_euler_system(generic_entry_model(2, 1, 2))
        assert sys.matrix == ((1, 0), (-1, 1))

    def test_t_one_system(self):
        sys = build_euler_system(generic_entry_model(2, 1, 1))
        assert sys.strata == (1,)
        assert sys.matrix == ((1,),)

    def test_unit_diagonal_everywhere(self):
        for n in range(1, 5):
            for k in range(0, 3):
                for t in range(1, n + 1):
                    dtype = DeterminantalType(n, k, t)
                    for q in range(1, 14):
                        try:
                            sys = build_euler_system_for_type(dtype, q)
                        except PreconditionError:
                            continue
                        for pos in range(len(sys.strata)):
                            assert sys.matrix[pos][pos] == 1
                            assert all(
                                c == 0 for c in sys.matrix[pos][pos + 1 :]
                            )

    def test_no_present_strata(self):
        with pytest.raises(PreconditionError):
            build_euler_system_for_type(DeterminantalType(2, 1, 2), 1)


class TestSolve:
    def test_omega3_solution(self):
        m = omega_model(3)
        sys = build_euler_system(m)
        cols = {1: m0_colength(m, 1)}
        assert cols == {1: 4}
        solved = solve_for_m(sys, {2: ChiData(-2, 2)}, cols)
        assert solved == {1: 4, 2: 0}

    def test_perturbed_section_chi(self):
        m = omega_model(3)
        sys = build_euler_system(m)
        solved = solve_for_m(sys, {2: ChiData(-2, 1)}, {1: 4})
        assert solved[2] == 1

    def test_point_strata_only(self):
        m = generic_entry_model(2, 1, 1)
        sys = build_euler_system(m)
        solved = solve_for_m(sys, {}, {1: m0_colength(m, 1)})
        assert solved == {1: 1}

    def test_reduced_flag_conversion(self):
        assert ChiData.from_input(-3, 1, reduced=True) == ChiData(-2, 2)
        assert ChiData.from_input(-2, 2, reduced=False) == ChiData(-2, 2)

    def test_negative_solution_flagged(self):
        sys = build_euler_system(omega_model(3))
        with pytest.raises(InconsistentDataError):
            solve_for_m(sys, {2: ChiData(-2, 10)}, {1: 4})

    def test_missing_chi(self):
        sys = build_euler_system(omega_model(3))
        with pytest.raises(PreconditionError):
            solve_for_m(sys, {}, {1: 4})

    def test_chi_for_point_stratum_rejected(self):
        sys = build_euler_system(omega_model(3))
        with pytest.raises(ValidationError):
            solve_for_m(sys, {1: ChiData(1, 1), 2: ChiData(-2, 2)}, {1: 4})


class TestChiDiffRoundTrip:
    def test_omega_lhs(self):
        k = 3
        sys = build_euler_system(omega_model(k))
        lhs = solve_for_chi_diffs(sys, {1: k + 1, 2: 0})
        assert lhs == [k + 1, -(k + 1)]

    def test_zero_vector(self):
        sys = build_euler_system(omega_model(2))
        assert solve_for_chi_diffs(sys, {1: 0, 2: 0}) == [0, 0]

    def test_round_trip_random(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(1, 4)
            k = rng.randint(0, 3)
            t = rng.randint(1, n)
            q = rng.randint(1, 14)
            dtype = DeterminantalType(n, k, t)
            try:
                sys = build_euler_system_for_type(dtype, q)
            except PreconditionError:
                continue
            m = {j: rng.randint(0, 20) for j in sys.strata}
            lhs = solve_for_chi_diffs(sys, m)
            assert solve_from_lhs(sys, lhs) == m

    def test_constancy_equivalence(self):
        # Two multiplicity vectors agree iff their chi-combination vectors
        # agree: triangular invertibility restated at the report level.
        rng = random.Random(14)
        sys = build_euler_system(omega_model(2))
        for _ in range(25):
            a = {j: rng.randint(0, 9) for j in sys.strata}
            b = {j: rng.randint(0, 9) for j in sys.strata}
            same_m = a == b
            same_lhs = solve_for_chi_diffs(sys, a) == solve_for_chi_diffs(sys, b)
            assert same_m == same_lhs


class TestColengths:
    def test_omega_values(self):
        assert m0_colength(omega_model(3), 1) == 4
        assert m0_colength(omega_model(1), 1) == 2

    def test_generic_point(self):
        assert m0_colength(generic_entry_model(2, 1, 2), 1) == 1

    def test_rejects_positive_dimensional_stratum(self):
        with pytest.raises(PreconditionError):
            m0_colength(omega_model(1), 2)


class TestPolarBound:
    def test_big_ambient(self):
        assert polar_term_bound(DeterminantalType(2, 1, 2), 6, 2) == 0

    def test_refined_rule(self):
        assert polar_term_bound(DeterminantalType(2, 1, 2), 5, 2) == 0

    def test_unknown(self):
        assert polar_term_bound(DeterminantalType(2, 1, 2), 4, 2) is None
        assert polar_term_bound(DeterminantalType(2, 1, 2), 4, 1) is None


class TestMdConsistency:
    def test_cases(self):
        assert md_consistency(0, 0, 0)
        assert md_consistency(2, 0, 2)
        assert not md_consistency(1, 0, 0)


class TestWhitneyReport:
    def test_constant_family(self):
        m = omega_model(2, params=("u",))
        report = whitney_report(m, [{"u": 0}, {"u": 1}, {"u": 5}])
        assert report.reliable
        assert report.constant
        assert "necessary conditions" in report.verdict
        assert all(s.colengths == {1: 3} for s in report.samples)

    def test_splitting_family_fails(self):
        m = omega_model(1, extra_term="u*y", params=("u",))
        report = whitney_report(m, [{"u": 0}, {"u": 1}])
        assert report.reliable  # each member is still transversal off 0
        assert not report.constant
        assert report.samples[0].colengths == {1: 2}
        assert report.samples[1].colengths == {1: 1}

    def test_empty_samples(self):
        m = omega_model(1, params=("u",))
        report = whitney_report(m, [])
        assert report.constant is None
        assert report.samples == ()

    def test_solves_mvector_with_chi(self):
        # One chi mapping serves every sample.
        m = omega_model(3, params=("u",))
        chi = {2: ChiData(-2, 2)}
        report = whitney_report(m, [{"u": 0}, {"u": 1}], chi)
        assert [s.mvector for s in report.samples] == [{1: 4, 2: 0}] * 2

    def test_empty_chi_solves_nothing(self):
        # Every present stratum of x^2 + u*x^3 is zero-dimensional, so an
        # empty chi mapping would be enough to solve its system; a model
        # file with no [euler] section passes one, and gets no m-vector.
        vs = VariableSet(("x",), ("u",))
        m = PresentationMatrix(
            DeterminantalType(1, 0, 1), [[parse_polynomial("x^2 + u*x^3", vs)]], vs
        )
        samples = [{"u": 0}, {"u": 1}]
        assert solve_for_m(build_euler_system(m), {}, {1: 2}) == {1: 2}
        for chi in ({}, None):
            report = whitney_report(m, samples, chi)
            assert [(s.dims, s.colengths, s.mvector) for s in report.samples] == [
                ((0,), {1: 2}, None)
            ] * 2

    def test_never_claims_sufficiency(self):
        m = omega_model(1, params=("u",))
        report = whitney_report(m, [{"u": 0}])
        assert any("necessary conditions only" in w for w in report.warnings)
