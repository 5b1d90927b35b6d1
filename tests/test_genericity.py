import random
from fractions import Fraction

import pytest

from detsing import (
    DeterminantalType,
    Hyperplane,
    PreconditionError,
    PresentationMatrix,
    ValidationError,
    dimension,
    groebner,
    hyperplane_screen,
    parse_polynomial,
    section_invariant_compare,
    slice_model,
    stratum,
)
from detsing.cli import main
from helpers import XY, XYZ, P, generic_entry_model, omega_model, omega_vars


def hp(*coeffs):
    return Hyperplane(tuple(Fraction(c) for c in coeffs))


def model(vs, rows):
    """The model of a grid of expression texts; t is the smaller size."""
    n = min(len(rows), len(rows[0]))
    dtype = DeterminantalType(n, abs(len(rows) - len(rows[0])), n)
    return PresentationMatrix(dtype, [[P(e, vs) for e in row] for row in rows], vs)


def off_origin_omega():
    """The omega matrix with last entry x1 + y^2 - y^3: stratum 1 is
    zero-dimensional and also holds the point y = 1, x = 0."""
    return model(omega_vars(), [["x1", "x2", "x3"], ["x4", "x5", "x1 + y^2 - y^3"]])


class TestHyperplane:
    def test_normalized(self):
        h = hp(0, 2, 4)
        assert h.coefficients == (0, 1, 2)

    def test_all_zero_rejected(self):
        with pytest.raises(ValidationError):
            hp(0, 0, 0)

    def test_from_linear_form(self):
        m = omega_model(1)
        p = parse_polynomial("x1 - 2*x2 + x5", m.vars)
        h = Hyperplane.from_linear_form(p, m.vars)
        assert h.coefficients == (1, -2, 0, 0, 1, 0)

    def test_nonlinear_rejected(self):
        m = omega_model(1)
        with pytest.raises(ValidationError):
            Hyperplane.from_linear_form(parse_polynomial("x1^2", m.vars), m.vars)


class TestSlice:
    def test_pivot_substitution(self):
        m = omega_model(1)
        sliced = slice_model(m, hp(0, 0, 1, 0, 0, 0))
        assert sliced.vars.ambient == ("x1", "x2", "x4", "x5", "y")
        assert sliced.entries[0][2].is_zero()
        assert sliced.entries[1][2] == P("x1 + y^2", sliced.vars)
        assert sliced.dtype == m.dtype
        assert sliced.q == m.q - 1

    def test_variable_absent_from_entries(self):
        m = omega_model(1)
        sliced = slice_model(m, hp(0, 0, 0, 0, 0, 1))
        assert sliced.vars.ambient == ("x1", "x2", "x3", "x4", "x5")
        assert sliced.entries[1][2] == P("x1", sliced.vars)

    def test_scaling_invariance(self):
        m = omega_model(2)
        h1 = hp(1, -2, 0, 3, 0, 0)
        h2 = hp(5, -10, 0, 15, 0, 0)
        s1 = slice_model(m, h1)
        s2 = slice_model(m, h2)
        assert s1.entries == s2.entries

    def test_general_form(self):
        m = omega_model(1)
        sliced = slice_model(m, hp(2, -1, 0, 0, 0, 0))  # x1 = x2/2
        assert sliced.entries[0][0] == P("1/2*x2", sliced.vars)


class TestScreen:
    def test_y_slice_truncates_the_fat_point(self):
        m = omega_model(1)
        verdict = hyperplane_screen(m, hp(0, 0, 0, 0, 0, 1))
        assert not verdict.passed
        assert any("truncates" in r for r in verdict.reasons)

    def test_x3_slice_fails_transversality(self):
        # The x3 = 0 section has a non-isolated singular crossing: two
        # three-dimensional components meet along a surface.
        m = omega_model(1)
        verdict = hyperplane_screen(m, hp(0, 0, 1, 0, 0, 0))
        assert not verdict.passed
        assert any("transversality" in r for r in verdict.reasons)

    def test_random_x_hyperplanes_pass(self):
        rng = random.Random(2024)
        m = omega_model(1)
        for _ in range(3):
            coeffs = [Fraction(rng.randint(1, 7) * (-1) ** rng.randint(0, 1)) for _ in range(5)]
            h = Hyperplane(tuple(coeffs) + (Fraction(0),))
            verdict = hyperplane_screen(m, h)
            assert verdict.passed, verdict.reasons
            sliced = slice_model(m, h)
            assert dimension(stratum(sliced, 2).ideal) == 3

    def test_generic_model_random_hyperplane_passes(self):
        m = generic_entry_model(2, 1, 2)
        h = Hyperplane((1, 2, -1, 3, 1, -2))
        verdict = hyperplane_screen(m, h)
        assert verdict.passed, verdict.reasons

    def test_section_dimension_mismatch(self):
        # x = 0 kills the entry x*y: the section's top stratum is the
        # zero ideal, of dimension 2 where 1 is expected.
        verdict = hyperplane_screen(model(XYZ, [["x*y"]]), hp(1, 0, 0))
        assert verdict.reasons == (
            "sliced model dimension mismatch: top stratum has dimension 2, "
            "expected 1; not determinantal of the declared type",
        )

    def test_section_extends_beyond_the_origin(self):
        # The x1 section of stratum 1 is (x2, ..., x5, y^2 - y^3), which
        # keeps the point y = 1.
        verdict = hyperplane_screen(off_origin_omega(), hp(1, 0, 0, 0, 0, 0))
        assert verdict.reasons[-1] == (
            "section of zero-dimensional stratum 1 extends beyond the origin"
        )

    def test_section_that_empties_a_stratum_is_not_screened(self):
        # Stratum 1 is the point x = 0, y = 1, which the y section
        # misses: the sliced stratum is the unit ideal, so neither its
        # colength nor the model's (off the origin) is asked for.
        m = model(omega_vars(), [["x1", "x2", "x3"], ["x4", "x5", "x1 + y - 1"]])
        verdict = hyperplane_screen(m, hp(0, 0, 0, 0, 0, 1))
        assert verdict.passed and verdict.reasons == ()

    def test_model_not_supported_at_the_origin(self):
        # The y section of stratum 1 is the maximal ideal, but stratum 1
        # itself holds the point y = 1, so its colength is undefined.
        verdict = hyperplane_screen(off_origin_omega(), hp(0, 0, 0, 0, 0, 1))
        assert verdict.reasons == (
            "zero-dimensional stratum 1 of the model is not supported at the "
            "origin; cannot screen its section",
        )

    def test_analyze_tests_each_sliced_support_once(self, monkeypatch, tmp_path, capsys):
        # The x1 section's stratum 1, (x2, x3, x4, x + y^2, y^3), is not
        # certified by its reduced basis, so its support needs one
        # saturation by the maximal ideal, shared by the screen and the
        # colength: 11 bases on 11 distinct inputs.
        path = tmp_path / "screen.model"
        path.write_text(
            "[variables]\nx1 x2 x3 x4 x y\n\n[type]\nrows = 2\ncols = 3\nt = 2\n\n"
            "[matrix]\nx1, x2, x3\nx4, x + y^2, y^3\n\n[hyperplanes]\nx1\n"
        )
        calls = []
        original = groebner.buchberger

        def wrapper(ideal, ordering=groebner.GREVLEX):
            calls.append(
                (ordering, ideal.vars, frozenset(tuple(sorted(g.terms.items())) for g in ideal.generators))
            )
            return original(ideal, ordering)

        monkeypatch.setattr(groebner, "buchberger", wrapper)
        assert main(["analyze", str(path), "--format", "structured"]) == 0
        capsys.readouterr()
        assert len(calls) == len(set(calls)) == 11

    def test_needs_specialized_model(self):
        m = omega_model(1, params=("u",))
        with pytest.raises(PreconditionError):
            hyperplane_screen(m, hp(1, 0, 0, 0, 0, 0))


class TestSectionCompare:
    def test_flagged_hyperplanes_still_reported(self):
        m = omega_model(1)
        rows = section_invariant_compare(
            m, [hp(0, 0, 1, 0, 0, 0), hp(0, 0, 0, 0, 0, 1)]
        )
        assert len(rows) == 2
        assert not rows[0].screen.passed
        assert not rows[1].screen.passed
        assert all(r.dims == (3,) for r in rows)
        assert not any(r.minimal for r in rows)

    def test_single_hyperplane_minimal(self):
        m = omega_model(1)
        rows = section_invariant_compare(m, [hp(1, 1, 0, -1, 2, 0)])
        assert rows[0].screen.passed
        assert rows[0].minimal

    def test_scaled_duplicates_identical(self):
        m = omega_model(1)
        rows = section_invariant_compare(
            m, [hp(1, 1, 0, -1, 2, 0), hp(3, 3, 0, -3, 6, 0)]
        )
        assert rows[0].vector() == rows[1].vector()
        assert rows[0].minimal and rows[1].minimal

    def test_empty_list_rejected(self):
        with pytest.raises(PreconditionError):
            section_invariant_compare(omega_model(1), [])

    def test_section_without_euler_system(self):
        # The x section of (x, y, 0; 0, x, y) has q = 1, below the
        # codimension 2 of every stratum: no Euler system, so no dims.
        rows = section_invariant_compare(model(XY, [["x", "y", "0"], ["0", "x", "y"]]), [hp(1, 0)])
        assert rows[0].dims == () and rows[0].colengths == {}

    def test_section_colength_off_the_origin(self):
        # The x section of x + y^2 - y^3 is (y^2 - y^3), zero-dimensional
        # but holding y = 1: its colength is left out.
        rows = section_invariant_compare(model(XY, [["x + y^2 - y^3"]]), [hp(1, 0)])
        assert rows[0].dims == (0,) and rows[0].colengths == {}



class TestSlicedStratumDimensionDrop:
    def test_top_stratum_drops_by_exactly_one(self):
        m = omega_model(1)
        h = hp(2, -1, 1, 0, 3, 0)
        verdict = hyperplane_screen(m, h)
        assert verdict.passed
        sliced = slice_model(m, h)
        top = stratum(sliced, 2)
        assert dimension(top.ideal) == stratum(m, 2).expected_dim - 1
