import hashlib
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from detsing import (
    Analysis,
    DeterminantalType,
    DetsingError,
    DimensionMismatchError,
    Ideal,
    LimitError,
    PreconditionError,
    PresentationMatrix,
    ValidationError,
    conormal_fiber_gap,
    dimension,
    eids_check,
    good_family_scan,
    ideals_equal,
    in_ideal,
    is_unit_ideal,
    minors,
    mvector,
    saturation,
    singular_locus_ideal,
    stably_isolated_check,
    stratum,
    support_is_origin_only,
)
from detsing.poly import Polynomial, poly_to_str
from helpers import (
    MODELS,
    P,
    XY,
    XYZ,
    bundled_members,
    generic_entry_model,
    omega_model,
    random_matrix_model,
    reduced_stratum,
    saturation_inputs,
    watch_term_maps,
)
from oracles import cofactor_det


def ideal(vs, *texts):
    return Ideal([P(t, vs) for t in texts], vs)


GENERIC_GRID = [
    (1, 0, 1),
    (1, 1, 1),
    (1, 2, 1),
    (2, 0, 1),
    (2, 0, 2),
    (2, 1, 1),
    (2, 1, 2),
    (2, 2, 1),
    (2, 2, 2),
    (3, 0, 1),
    (3, 1, 1),
    (3, 2, 1),
]


def sliced_omega():
    """The section of the omega model by x3 = 0: its stratum 2 has a
    non-isolated singular crossing, so eids_check fails there."""
    from detsing import Hyperplane, slice_model

    return slice_model(omega_model(1), Hyperplane((0, 0, 1, 0, 0, 0)))


class TestSingularLocus:
    def test_node(self):
        J = singular_locus_ideal(ideal(XY, "x^2 - y^2"), 1)
        assert ideals_equal(J, ideal(XY, "x^2 - y^2", "2*x", "-2*y"))
        assert support_is_origin_only(J)

    def test_smooth_hyperplane(self):
        J = singular_locus_ideal(ideal(XY, "x"), 1)
        assert is_unit_ideal(J)

    def test_generic_two_by_three_top_stratum(self):
        m = generic_entry_model(2, 1, 2)
        s = stratum(m, 2)
        J = singular_locus_ideal(s.ideal, 2)
        # The non-smooth locus is exactly the locus where all entries vanish.
        entries = [e for row in m.entries for e in row]
        for e in entries:
            assert in_ideal(e * e, J) or in_ideal(e, J) or _in_radical(J, e)
        S = saturation(J, Ideal(entries, m.vars))
        assert is_unit_ideal(S)

    def test_codim_out_of_range(self):
        with pytest.raises(ValidationError):
            singular_locus_ideal(ideal(XY, "x"), 3)

    def test_generic_three_by_three_rank_one_locus(self):
        # Generic (3,0,2), stratum 2: the 9 quadrics plus the non-zero
        # 4 x 4 minors of their 9 x 9 Jacobian, C(9,4)^2 = 15876 in all.
        m = generic_entry_model(3, 0, 2)
        s = stratum(m, 2)
        locus = singular_locus_ideal(s.ideal, s.expected_codim)
        assert len(locus.generators) == 10467
        assert locus.generators[:9] == s.ideal.generators
        vs = m.vars
        jac = [[g.derivative(z) for z in vs.names] for g in s.ideal.generators]
        as_matrix = PresentationMatrix(DeterminantalType(9, 0, 9), jac, vs)
        every = minors(as_matrix, 4)
        assert [f for f in every if not f.is_zero()] == list(locus.generators[9:])
        subsets = [
            (rows, cols)
            for rows in combinations(range(9), 4)
            for cols in combinations(range(9), 4)
        ]
        for pos in random.Random(302).sample(range(len(subsets)), 100):
            rows, cols = subsets[pos]
            grid = [[jac[r][c] for c in cols] for r in rows]
            assert every[pos] == cofactor_det(grid), (rows, cols)

    def test_locus_of_a_packed_basis_packs_no_monomial(self, monkeypatch):
        # The Jacobian of a packed grevlex basis is differentiated in its
        # packed maps and the determinant reads them as they are, so
        # building the locus packs no exponent tuple; the locus is packed.
        from detsing.groebner import _Packing

        models = [generic_entry_model(2, 2, 2), omega_model(1), omega_model(3)]
        reduced = []
        for m in models:
            s = stratum(m, 2)
            basis = s.ideal.groebner_basis()
            reduced.append((Ideal.from_basis(basis, m.vars, None), s.expected_codim))
        packs = []
        pack = _Packing.pack
        monkeypatch.setattr(_Packing, "pack", lambda self, exps: packs.append(exps) or pack(self, exps))
        loci = [singular_locus_ideal(a, codim) for a, codim in reduced]
        assert packs == []
        assert all(g._packing is not None for locus in loci for g in locus.generators)
        assert len(loci[0].generators) == 6 + 704


# SHA-256 of the poly_to_str lines of the non-smooth loci built on the
# reduced bases of each generic-grid case (and (3,0,2)): for each present
# stratum, singular_locus_ideal of its reduced grevlex basis at its
# expected codimension, strata in order.  eids_check's witness step forms
# single minors of these loci, and it builds its locus on the stratum's
# minors, the same ideal.  The CLI reference runs reach none of these,
# so they pin the determinant and the Jacobian of reduced bases that the
# verdicts rest on.
LOCUS_DIGESTS = {
    (1, 0, 1): (2, "1b6b2cc4a973d30f4a0bda763b695c8624656bdb329e3d67d59a71372bbec541"),
    (1, 1, 1): (3, "ca015b4cb7f3a54aa83e15a0c27822a00c40e48221942771595ed4a4b82ca653"),
    (1, 2, 1): (4, "6d425ac20e22fdec57c212f7744a183ff69dbd4eec323abc2c1cf111b1336d65"),
    (2, 0, 1): (5, "d099314c63273fd8299c3cac5e49e0dd49c35e83b36313951d21c55065a036b3"),
    (2, 0, 2): (10, "48b821ccacb6feed0f9ad9182c90adcd48f723f4d6d427901f9e676e9eef8f40"),
    (2, 1, 1): (7, "608fb5cd7a990ce2b2a6e2624cb8242da8ed1c144f9c0b12be172e9a31cac568"),
    (2, 1, 2): (49, "e100088dee778caeb972a5f53e05eb3134a2b7f2a9c0400f842a47124aa4d3b7"),
    (2, 2, 1): (9, "42f09bc31f8a0b366d500737b3c4cb1a55fe1d7f5d2b1c30539300c5867944ac"),
    (2, 2, 2): (719, "2270c0eb47752b6f52c68a4d5ace2f714d0fd4440d4a7a176096ecb44ade7abe"),
    (3, 0, 1): (10, "7eb1d2329b574514161972443066e1a4e70484839d7091c925821fc3f6d60090"),
    (3, 1, 1): (13, "4ef1a3027ff89b1178e0e17c1862e3b4f2a24e6760995efe968e77e5004b3b7d"),
    (3, 2, 1): (16, "30e1cc73111c37205effebc730975df8d49ff543b5622af17d9441b25b4483a6"),
    (3, 0, 2): (10477, "1cb0bff635dcc08762db0b4510a1ff8acdf241b6a02b3d414ec521662be292cd"),
}


@pytest.mark.parametrize("case", list(LOCUS_DIGESTS), ids=str)
def test_generic_loci_match_their_digests(case):
    m = generic_entry_model(*case)
    lines = []
    for i in range(1, case[2] + 1):
        s = stratum(m, i)
        if not s.present:
            continue
        reduced = Ideal.from_basis(s.ideal.groebner_basis(), m.vars, None)
        locus = singular_locus_ideal(reduced, s.expected_codim)
        lines += [poly_to_str(g) for g in locus.generators]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == LOCUS_DIGESTS[case]


def _in_radical(J, f):
    # Rabinowitsch on a single polynomial.
    ext = J.vars.extended(J.vars.fresh_name("t_"))
    t = Polynomial.variable(ext, ext.names[-1])
    one = Polynomial.constant(ext, 1)
    lifted = [g.lift(ext) for g in J.generators]
    return is_unit_ideal(Ideal(lifted + [one - t * f.lift(ext)], ext))


# Seeds among 0-63 whose random_matrix_model(Random(seed), 3, 2, 3)
# takes over 0.25 s in its uncapped verdicts, seed 0 over 3 s:
# coefficient swell in the input phase of a non-smooth locus (ROADMAP
# item 12), which no degree cap bounds.  They wait for that item; the
# G-equivalence property below does not draw them.
SWELL_3X2 = {0, 24, 38, 39, 58, 61}


def _combine(coefficients, polys, zero):
    # sum of c * p over the nonzero integer coefficients c.
    return sum((p.scale(c) for c, p in zip(coefficients, polys) if c), zero)


def g_transformed(m, p, q, phi):
    """P*(M o phi)*Q for integer matrices P, Q and phi, where phi sends
    variable v to the sum of phi[v][w] * w."""
    vs = m.vars
    zero = Polynomial.zero(vs)
    images = [Polynomial.variable(vs, name) for name in vs.names]
    subs = {name: _combine(row, images, zero) for name, row in zip(vs.names, phi)}
    moved = [[e.substitute(subs) for e in row] for row in m.entries]
    left = [[_combine(prow, [r[c] for r in moved], zero) for c in range(m.cols)] for prow in p]
    entries = [[_combine(col, row, zero) for col in zip(*q)] for row in left]
    return PresentationMatrix(m.dtype, entries, vs)


def eids_outcome(m):
    """eids_check's records, witness ideals included, or its error."""
    try:
        verdict = eids_check(m)
    except DimensionMismatchError as exc:
        return str(exc)
    return verdict.overall, [
        (
            r.index,
            r.expected_dim,
            r.actual_dim,
            r.transversal_off_origin,
            None if r.witness is None else r.witness.generators,
        )
        for r in verdict.strata
    ]


def spy_witnesses(monkeypatch):
    """Record each (codim, result) of the witness step of eids_check."""
    from detsing import strata

    calls = []
    real = strata._witnesses_certify
    monkeypatch.setattr(
        strata,
        "_witnesses_certify",
        lambda a, codim: calls.append((codim, real(a, codim))) or calls[-1][1],
    )
    return calls


class TestEidsCheck:
    def test_omega_passes(self):
        verdict = eids_check(omega_model(1))
        assert verdict.overall
        assert [r.index for r in verdict.strata] == [1, 2]
        assert all(r.actual_dim == r.expected_dim for r in verdict.strata)

    def test_generic_entry_models_pass(self):
        # Feasible corner of the generic grid, kept fast for tier-1.
        # (3,0,2) has its own test below; (3,1,2) needs 17.2 M sextic
        # minors.
        for n, k, t in GENERIC_GRID:
            verdict = eids_check(generic_entry_model(n, k, t))
            assert verdict.overall, (n, k, t)

    def test_generic_three_by_three_rank_one_passes(self, monkeypatch):
        # Generic (3,0,2): stratum 2's singular locus has 15876 quartic
        # Jacobian minors (pinned in TestSingularLocus).  One witness
        # minor per variable certifies it, so the locus is never built.
        from detsing import strata

        loci = []
        real = strata.singular_locus_ideal
        monkeypatch.setattr(
            strata, "singular_locus_ideal", lambda a, codim: loci.append(real(a, codim)) or loci[-1]
        )
        witnessed = spy_witnesses(monkeypatch)
        verdict = eids_check(generic_entry_model(3, 0, 2))
        assert verdict.overall
        assert [(r.index, r.expected_dim) for r in verdict.strata] == [(1, 0), (2, 5)]
        assert all(r.actual_dim == r.expected_dim for r in verdict.strata)
        assert witnessed == [(4, True)]
        assert loci == []

    def test_larger_generic_cases_pass(self, monkeypatch):
        # Witness minors settle stratum 2 of each, one minor per variable:
        # 12 minors on (2,4,2), which took 4.4 s when its locus (2,378,376
        # minors, about 667,000 of them nonzero) was formed and read.
        from detsing import strata

        loci = []
        real = strata.singular_locus_ideal
        monkeypatch.setattr(
            strata, "singular_locus_ideal", lambda a, codim: loci.append(codim) or real(a, codim)
        )
        asked = []  # the minor positions of each _all_minors call in strata
        real_minors = strata._all_minors

        def counted(grid, size, vars, *rest):
            asked.append(comb(len(grid), size) * comb(len(grid[0]), size))
            return real_minors(grid, size, vars, *rest)

        monkeypatch.setattr(strata, "_all_minors", counted)
        # (3,0,3) also builds stratum 3's locus: one cubic, codimension 1,
        # so its 9 derivatives.
        work = {(2, 3, 2): [1] * 10, (3, 0, 2): [1] * 9, (3, 0, 3): [1] * 9 + [9], (2, 4, 2): [1] * 12}
        for case, minors_asked in work.items():
            loci.clear()
            asked.clear()
            verdict = eids_check(generic_entry_model(*case))
            assert verdict.overall, case
            assert all(r.actual_dim == r.expected_dim for r in verdict.strata), case
            assert asked == minors_asked, case
            assert loci == ([1] if case[2] == 3 else []), case

    def test_minor_count_cap_names_the_stratum(self, monkeypatch):
        # Generic 5x4, t = 2: stratum 2's dimension is certified with no
        # basis, and its 60-quadric basis is one Buchberger run, but its
        # locus would need C(60, 12)*C(20, 12) Jacobian minors of size 12.
        # The cap refuses them before any is formed: the only entries
        # packed for minors are the matrix's 20, for strata 1 and 2.  A
        # call that packed the Jacobian's 1,200 entries would go on to
        # form its minors, so the spy stops the check there.
        from detsing import detmodel, groebner

        packed = []
        real_forms = detmodel._packed_forms

        def forms(polys, packing):
            packed.append(len(polys))
            assert len(polys) <= 20, "Jacobian entries packed for minors"
            return real_forms(polys, packing)

        monkeypatch.setattr(detmodel, "_packed_forms", forms)
        runs = []
        real_run = groebner.buchberger
        monkeypatch.setattr(groebner, "buchberger", lambda *args: runs.append(args) or real_run(*args))
        with pytest.raises(LimitError, match="^stratum 2: minors exceeded the cap 10000000: "):
            eids_check(generic_entry_model(4, 1, 2))
        assert packed == [20, 20]
        assert len(runs) == 1

    def test_origin_certificate_only_on_zero_dimensional_strata(self, monkeypatch):
        # Generic 3x3, t = 3: strata of dimensions 0, 5 and 8.  Only
        # stratum 1 can lie in the origin; the loci of strata 2 and 3 are
        # still tested.
        from detsing import strata

        seen = []
        real = strata._origin_certified
        monkeypatch.setattr(strata, "_origin_certified", lambda a: seen.append(a) or real(a))
        witnessed = spy_witnesses(monkeypatch)
        a = Analysis(generic_entry_model(3, 0, 3))
        verdict = eids_check(a)
        assert verdict.overall
        assert [r.actual_dim for r in verdict.strata] == [0, 5, 8]
        ideals = [a.stratum(i).ideal for i in (1, 2, 3)]
        assert [i for i, x in enumerate(ideals, 1) for y in seen if x is y] == [1]
        # Witnesses settle stratum 2's locus; stratum 3's, one cubic and
        # its 9 quadric derivatives, is too small for them and is built.
        assert witnessed == [(4, True), (1, False)]
        assert len(seen) == 2

    def test_dimension_mismatch_is_an_error(self):
        vs = XY
        entries = [
            [P("x", vs), P("y", vs)],
            [P("y", vs), P("x", vs)],
            [Polynomial.zero(vs), Polynomial.zero(vs)],
        ]
        m = PresentationMatrix(DeterminantalType(2, 1, 2), entries, vs)
        with pytest.raises(DimensionMismatchError):
            eids_check(m)

    def test_needs_specialized_model(self):
        m = omega_model(1, params=("u",))
        with pytest.raises(PreconditionError):
            eids_check(m)

    def test_witness_contains_stratum(self):
        # A deliberately bad slice: the section of the omega model by
        # x3 = 0 has a non-isolated singular crossing, so stratum 2 fails
        # and its witness must contain the stratum ideal.
        sliced = sliced_omega()
        verdict = eids_check(sliced)
        assert not verdict.overall
        bad = [r for r in verdict.strata if not r.transversal_off_origin]
        assert bad and bad[0].witness is not None
        witness = bad[0].witness
        for g in stratum(sliced, bad[0].index).ideal.generators:
            assert in_ideal(g, witness)
        assert not support_is_origin_only(witness)

    @pytest.mark.parametrize("name", ["omega1", "omega3", "omega1_family"])
    def test_saturation_work_count(self, monkeypatch, name):
        # One elimination of all r tags per saturation, whatever r is:
        # no per-generator elimination, intersection or colon ideal.  The
        # omega1 and omega3 stratum-2 loci are certified without a
        # saturation, so their saturation by stratum 1 runs here directly;
        # the omega1_family member at u = 1 still saturates in eids_check.
        from detsing import groebner, strata
        from detsing.modelfile import build_model, load_model_file

        calls = {"eliminate": 0, "ideal_intersection": 0, "ideal_quotient": 0}

        def counted(fname):
            real = getattr(groebner, fname)

            def wrapper(*args, **kwargs):
                calls[fname] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(groebner, fname, wrapper)

        counted("eliminate")
        counted("ideal_intersection")
        counted("ideal_quotient")
        work = []
        real_saturation = strata.saturation

        def saturation(a, b):
            before = dict(calls)
            out = real_saturation(a, b)
            r = sum(1 for g in b.generators if not g.is_constant())
            work.append((r, {k: calls[k] - before[k] for k in calls}))
            return out

        monkeypatch.setattr(strata, "saturation", saturation)
        model = build_model(load_model_file(MODELS / f"{name}.model"))
        if name == "omega1_family":
            model = model.specialize({"u": 1})
        saturation(*saturation_inputs(model, 2))
        assert eids_check(model).overall
        assert [r for r, _ in work] == ([6, 6] if name == "omega1_family" else [6])
        for r, made in work:
            once = {"eliminate": 1, "ideal_intersection": 0, "ideal_quotient": 0}
            assert made == once, (r, made)

    def test_certified_loci_skip_the_saturation(self, monkeypatch):
        # The t = 2 cases of the generic grid, omega1, omega3 and omega1
        # with x3 + y for x3 have non-smooth loci that witness minors,
        # their generators or interreduced generators certify, so no
        # locus basis is built: witnesses settle (2,2,2), whose locus is
        # not built at all, and the other loci are too small for them.
        # The sheared model's locus is certified only through
        # homogeneity, since no one-term element of it is a power of x3.
        # The omega1_family member at u = 1 is not certified and
        # saturates.
        from detsing import strata
        from detsing.modelfile import build_model, load_model_file, parse_model_file

        sheared = (
            "[variables]\nx1 x2 x3 x4 x5 y\n\n[type]\nrows = 2\ncols = 3\nt = 2\n\n"
            "[matrix]\nx1, x2, x3 + y\nx4, x5, x1 + y^2\n"
        )
        load = lambda name: build_model(load_model_file(MODELS / f"{name}.model"))
        models = [generic_entry_model(n, k, 2) for n, k in ((2, 0), (2, 1), (2, 2))]
        models += [load("omega1"), load("omega3"), build_model(parse_model_file(sheared))]
        saturated = []
        real_saturation = strata.saturation
        monkeypatch.setattr(
            strata, "saturation", lambda a, b: saturated.append(b) or real_saturation(a, b)
        )
        loci = []
        real_locus = strata.singular_locus_ideal
        monkeypatch.setattr(
            strata,
            "singular_locus_ideal",
            lambda a, codim: loci.append(real_locus(a, codim)) or loci[-1],
        )
        witnessed = spy_witnesses(monkeypatch)
        for m in models:
            assert eids_check(m).overall
        assert saturated == []
        assert [ok for _, ok in witnessed] == [False, False, True, False, False, False]
        assert len(loci) == 5
        assert all(locus.cached_basis() is None for locus in loci)
        assert eids_check(load("omega1_family").specialize({"u": 1})).overall
        assert len(saturated) == 1

    def test_certificate_keeps_verdicts_and_witnesses(self, monkeypatch):
        # Differential oracle: every eids_check outcome (records with
        # their witnesses, or the error) is the same with the saturation-
        # free certificate and the witness step switched off, over the
        # generic grid, the bundled models with their sampled members,
        # two failing models and random quadratic models.
        from detsing import groebner, strata

        models = [generic_entry_model(*c) for c in GENERIC_GRID] + bundled_members()
        models.append(sliced_omega())
        # An A1 point at the origin and another at (0, 0, 1).
        far = P("x^2 + y^2 + z^2*(z - 1)^2", XYZ)
        models.append(PresentationMatrix(DeterminantalType(1, 0, 1), [[far]], XYZ))
        rng = random.Random(13)
        models += [random_matrix_model(rng, 2, 2, 3) for _ in range(8)]

        certified = [eids_outcome(m) for m in models]
        for module in (groebner, strata):
            monkeypatch.setattr(module, "_origin_certified", lambda a: False)
        monkeypatch.setattr(strata, "_witnesses_certify", lambda a, codim: False)
        assert [eids_outcome(m) for m in models] == certified
        assert any(o[0] is False for o in certified if isinstance(o, tuple))

    def test_certified_strata_skip_the_locus(self, monkeypatch):
        # Stratum 1 of omega1 and omega3, and the one stratum of every
        # t = 1 grid case, has a reduced basis that certifies it at the
        # origin, so no Jacobian or non-smooth locus is built for it.
        from detsing import strata
        from detsing.modelfile import build_model, load_model_file

        codims = []
        real = strata.singular_locus_ideal
        monkeypatch.setattr(
            strata,
            "singular_locus_ideal",
            lambda a, codim: codims.append(codim) or real(a, codim),
        )
        for name in ("omega1", "omega3"):
            codims.clear()
            assert eids_check(build_model(load_model_file(MODELS / f"{name}.model"))).overall
            assert codims == [2]  # stratum 2 only; stratum 1 has codimension 6
        codims.clear()
        for n, k, t in GENERIC_GRID:
            if t == 1:
                assert eids_check(generic_entry_model(n, k, t)).overall
        assert codims == []

    def test_random_three_by_two_model_passes(self):
        # eids_check builds the stratum-2 locus on the stratum's 3 minors
        # (12 generators).  The same ideal built on the stratum's reduced
        # basis has 35 generators of up to 95 terms, and its input phase
        # certifies it at the origin, stopping at the proof.  That phase
        # in full swells: about 1 s with pseudo-reduction scaled by
        # lc / gcd(lc, c), about 12 s scaled by the whole leading
        # coefficient.
        from detsing.groebner import _origin_certified

        m = random_matrix_model(random.Random(13), 3, 2, 3)
        verdict = eids_check(m)
        assert verdict.overall
        assert [
            (r.index, r.expected_dim, r.actual_dim, r.witness) for r in verdict.strata
        ] == [(2, 1, 1, None)]
        locus = singular_locus_ideal(*reduced_stratum(m, 2))
        assert len(locus.generators) == 35
        assert max(len(g.terms) for g in locus.generators) == 95
        assert _origin_certified(locus)
        assert locus.cached_basis() is None

    def test_linear_transform_builds_the_locus_on_the_minors(self, monkeypatch):
        # A linear G-transform of a fast random 3 x 2 draw.  Its stratum 2
        # has 3 minors and a reduced basis of 7 elements; the locus built
        # on that basis swelled in its input phase (4.7 s against 0.02 s
        # for the draw), the locus on the minors does not.
        from detsing import strata

        m = random_matrix_model(random.Random(46), 3, 2, 3)
        p, q = [[1, 0, 0], [-1, 1, 1], [0, 0, 1]], [[1, 1], [1, 2]]
        phi = [[1, 0, 0], [2, 1, 0], [1, 0, 1]]
        records = lambda v: [(r.index, r.expected_dim, r.actual_dim, r.transversal_off_origin) for r in v.strata]
        expected = records(eids_check(m))
        built = []
        real = strata.singular_locus_ideal
        monkeypatch.setattr(
            strata, "singular_locus_ideal", lambda b, codim: built.append(b) or real(b, codim)
        )
        a = Analysis(g_transformed(m, p, q, phi))
        assert records(eids_check(a)) == expected == [(2, 1, 1, False)]
        assert len(a.stratum(2).ideal.groebner_basis().elements) == 7
        assert [len(b.generators) for b in built] == [3]
        assert built[0] is a.stratum(2).ideal

    def test_verdict_path_stays_in_integer_form(self, monkeypatch):
        # Once the model is built, eids_check builds every polynomial in
        # integer form (minors, derivatives, bases, the saturation's tagged
        # polynomial) and reads no term map: no public constructor call,
        # no Fraction.  The omega1_family member at u = 1 has a locus its
        # basis does not certify, so its check saturates.
        from detsing import strata
        from detsing.modelfile import build_model, load_model_file

        family = build_model(load_model_file(MODELS / "omega1_family.model"))
        models = [generic_entry_model(2, 2, 2), family.specialize({"u": 1})]
        saturated = []
        real = strata.saturation
        monkeypatch.setattr(
            strata, "saturation", lambda a, b: saturated.append(a) or real(a, b)
        )
        built, read = watch_term_maps(monkeypatch)
        for m in models:
            assert eids_check(m).overall
        assert len(saturated) == 1
        assert built == [] and read == []

    def test_row_and_column_scaling_keep_every_verdict(self):
        # One row times 2/3 and one column times -3 scale every minor by
        # a nonzero constant, so the strata ideals do not change: strata
        # dimensions, eids records (witnesses by reduced basis),
        # colengths and the m-vector must not either.  The 2/3 drives
        # denominators other than 1 through the determinant and the
        # integer form.
        from detsing.modelfile import build_model, load_model_file

        def scaled(m):
            entries = [list(row) for row in m.entries]
            entries[0] = [e * Fraction(2, 3) for e in entries[0]]
            for row in entries:
                row[-1] = row[-1] * -3
            return PresentationMatrix(m.dtype, entries, m.vars)

        def attempt(compute):
            try:
                return compute()
            except DetsingError as exc:
                return type(exc).__name__, str(exc)

        def eids(a):
            return eids_check(a).overall, [
                (
                    r.index,
                    r.expected_dim,
                    r.actual_dim,
                    r.transversal_off_origin,
                    r.witness and r.witness.groebner_basis().elements,
                )
                for r in eids_check(a).strata
            ]

        def verdicts(m, chi):
            a = Analysis(m)
            out = []
            for i in range(1, m.dtype.t + 1):
                s = a.stratum(i)
                out.append(dimension(s.ideal))
                if s.expected_dim == 0:
                    out.append(attempt(lambda: a.colength(i)))
                    out.append(attempt(lambda: a.origin_colength(i)))
            out.append(attempt(lambda: eids(a)))
            if chi:
                out.append(attempt(lambda: mvector(a, chi)))
            return out

        cases = [(generic_entry_model(2, 2, 2), [{}], {})]
        for path in sorted(MODELS.glob("*.model")):
            mf = load_model_file(path)
            cases.append((build_model(mf), [dict(pt) for pt in mf.samples] or [{}], mf.chi_data()))
        compared = 0
        for m, points, chi in cases:
            sm = scaled(m)
            top = stratum(sm.specialize(points[0]) if points[0] else sm, sm.dtype.t)
            assert any(g._den > 1 for g in top.ideal.generators)
            for point in points:
                member = m.specialize(point) if point else m
                scaled_member = sm.specialize(point) if point else sm
                expected = verdicts(member, chi)
                assert verdicts(scaled_member, chi) == expected, (m, point)
                compared += 1
        assert compared == 8

    def test_verdicts_invariant_under_g_equivalence(self):
        # M and P*(M o phi)*Q, with P, Q unimodular integer matrices and
        # phi an invertible integer linear change of coordinates (each a
        # product of 1-3 steps x_i += +-x_j), are G-equivalent: present
        # strata keep their dimension, zero-dimensional strata their
        # origin colength (or both raise), and the eids verdict its
        # overall value (or both raise).  With phi the identity,
        # Cauchy-Binet makes the minor ideals of P*M*Q and M equal, so
        # each stratum's reduced grevlex basis is the same.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        def identity(size):
            return [[int(r == c) for c in range(size)] for r in range(size)]

        def unimodular(size):
            # The identity with row i += sign * row j, for each step.
            pairs = [(i, j) for i in range(size) for j in range(size) if i != j]
            if not pairs:
                return st.just(identity(size))
            step = st.tuples(st.sampled_from(pairs), st.sampled_from((1, -1)))

            def product(steps):
                u = identity(size)
                for (i, j), sign in steps:
                    u[i] = [a + sign * b for a, b in zip(u[i], u[j])]
                return u

            return st.lists(step, min_size=1, max_size=3).map(product)

        def outcome(compute, error):
            try:
                return compute()
            except error as exc:
                return type(exc).__name__

        def verdicts(m):
            a = Analysis(m)
            out = []
            for i in range(1, m.dtype.t + 1):
                if not a.stratum(i).present:
                    continue
                out.append((i, a.dimension(i)))
                if a.dimension(i) == 0:
                    out.append(outcome(lambda: a.origin_colength(i), PreconditionError))
            out.append(outcome(lambda: eids_check(a).overall, DimensionMismatchError))
            return a, out

        def compare(m, p, q, phi):
            # phi None: the identity, under which the bases agree too.
            a, expected = verdicts(m)
            b, got = verdicts(g_transformed(m, p, q, phi or identity(m.q)))
            assert got == expected, (m.entries, p, q, phi)
            if phi is None:
                for i in range(1, m.dtype.t + 1):
                    basis = a.stratum(i).ideal.groebner_basis().elements
                    assert b.stratum(i).ideal.groebner_basis().elements == basis, (m.entries, p, q, i)

        fixed = [omega_model(k) for k in (1, 2, 3)]
        fixed += [generic_entry_model(2, 0, 2), generic_entry_model(2, 1, 2)]
        shapes = [(2, 2, 3), (3, 2, 3), (1, 2, 3), (2, 2, 2)]

        # Derandomized draws follow this function's source, so the checks
        # live in compare, where editing them does not change the draws.
        @hypothesis.settings(max_examples=6, deadline=None, derandomize=True)
        @hypothesis.given(st.integers(0, 63).filter(lambda seed: seed not in SWELL_3X2), st.data())
        def check(seed, data):
            drawn = [random_matrix_model(random.Random(seed), *shape, max_degree=2) for shape in shapes]
            for m in fixed + drawn:
                move_coordinates = data.draw(st.booleans())
                p = data.draw(unimodular(m.rows))
                q = data.draw(unimodular(m.cols))
                compare(m, p, q, data.draw(unimodular(m.q)) if move_coordinates else None)

        check()


def spy_witness_minors(monkeypatch):
    """Record the minor each ``_all_minors`` call in strata returns first."""
    from detsing import detmodel, strata

    formed = []
    real = strata._all_minors

    def spy(grid, size, vars, cap=detmodel._MINOR_CAP):
        out = real(grid, size, vars, cap)
        formed.append(out[0])
        return out

    monkeypatch.setattr(strata, "_all_minors", spy)
    return formed


class TestWitnessStep:
    @pytest.mark.parametrize("case", [(2, 2, 2), (3, 0, 2)])
    def test_witnesses_are_one_term_powers_and_locus_generators(self, monkeypatch, case):
        from detsing import strata

        reduced, codim = reduced_stratum(generic_entry_model(*case), 2)
        generators = singular_locus_ideal(reduced, codim).generators
        formed = spy_witness_minors(monkeypatch)
        assert strata._witnesses_certify(reduced, codim)
        width = len(reduced.vars)
        assert len(formed) == width
        powers = set()
        for w in formed:
            (mono,) = w.terms
            (j,) = [i for i, e in enumerate(mono) if e]
            assert mono[j] == codim
            powers.add(j)
        assert powers == set(range(width))
        assert all(w in generators for w in formed)

    def test_omega_stratum_two_falls_back(self, monkeypatch):
        # Its locus, 45 minors over 6 variables, is too small for the step.
        # With the size gate lifted the step runs, and misses at once: the
        # last variable, y, occurs only in the two generators that are not
        # homogeneous, so no witness can be formed for it.
        from detsing import strata
        from detsing.modelfile import build_model, load_model_file

        omega1 = build_model(load_model_file(MODELS / "omega1.model"))
        codims = []
        real = strata.singular_locus_ideal
        monkeypatch.setattr(
            strata, "singular_locus_ideal", lambda a, codim: codims.append(codim) or real(a, codim)
        )
        witnessed = spy_witnesses(monkeypatch)
        formed = spy_witness_minors(monkeypatch)
        gated = eids_outcome(omega1)
        assert gated[0]
        assert witnessed == [(2, False)] and codims == [2]
        assert len(formed) == 1  # the locus, with no witness before it
        formed.clear()
        monkeypatch.setattr(strata, "comb", lambda n, k: 1000)
        assert eids_outcome(omega1) == gated
        assert witnessed[1:] == [(2, False)] and codims == [2, 2]
        assert len(formed) == 1

    def test_a_missed_variable_falls_back(self, monkeypatch):
        # Generic (2,2,2) with z4_2 -> z4_2 + z1_1: the last variable's
        # witness is a cubic in z1_1 and z4_2, not a one-term power, so
        # the step stops after that one minor and the locus is built.
        from detsing import strata

        m = generic_entry_model(2, 2, 2)
        vs = m.vars
        shear = {"z4_2": Polynomial.variable(vs, "z4_2") + Polynomial.variable(vs, "z1_1")}
        sheared = PresentationMatrix(
            m.dtype, [[e.substitute(shear) for e in row] for row in m.entries], vs
        )
        formed = spy_witness_minors(monkeypatch)
        witnessed = spy_witnesses(monkeypatch)
        assert eids_check(sheared).overall
        assert witnessed == [(3, False)]
        # The witness, then the locus's 1120 minors in one call.
        assert len(formed) == 2
        assert len(formed[0].terms) > 1

    def test_degree_cap_skips_the_step(self, monkeypatch):
        from detsing import strata

        formed = spy_witness_minors(monkeypatch)
        witnessed = spy_witnesses(monkeypatch)
        uncapped = eids_outcome(generic_entry_model(2, 2, 2))
        assert witnessed == [(3, True)] and len(formed) == 8
        formed.clear()
        assert eids_outcome(Analysis(generic_entry_model(2, 2, 2), max_degree=4)) == uncapped
        assert witnessed[1:] == [(3, False)]
        assert len(formed) == 1  # the locus, with no witness before it
        reduced, codim = reduced_stratum(generic_entry_model(2, 2, 2), 2)
        capped = Ideal(reduced.generators, reduced.vars, 4)
        assert strata._witnesses_certify(reduced, codim)
        assert not strata._witnesses_certify(capped, codim)

    def test_outcomes_equal_with_the_step_off(self, monkeypatch):
        # The t >= 2 generic cases, the bundled models with their members
        # and the random 3 x 2 models that do not swell: every outcome,
        # witness ideals included, is the same without the witness step.
        from detsing import strata

        models = [generic_entry_model(*c) for c in GENERIC_GRID if c[2] >= 2]
        models += [generic_entry_model(*c) for c in [(2, 3, 2), (3, 0, 2), (3, 0, 3)]]
        models += bundled_members()
        models += [
            random_matrix_model(random.Random(seed), 3, 2, 3)
            for seed in range(64)
            if seed not in SWELL_3X2
        ]
        witnessed = spy_witnesses(monkeypatch)
        on = [eids_outcome(m) for m in models]
        assert any(ok for _, ok in witnessed)
        monkeypatch.setattr(strata, "_witnesses_certify", lambda a, codim: False)
        assert [eids_outcome(m) for m in models] == on


class TestGoodFamilyScan:
    def test_shifted_family_constant_in_good_coordinates(self):
        # Parameter absent from the entries: every member is the same.
        m = omega_model(2, params=("u",))
        records = good_family_scan(m, [{"u": 0}, {"u": 1}, {"u": -2}])
        assert len(records) == 3
        assert all(r.passed for r in records)

    def test_deformed_family_members_stay_transversal(self):
        m = omega_model(1, extra_term="u*y", params=("u",))
        records = good_family_scan(m, [{"u": 0}, {"u": 1}])
        assert all(r.passed for r in records)

    def test_empty_sample_list(self):
        m = omega_model(1, params=("u",))
        assert good_family_scan(m, []) == []

    def test_unspecialized_sample_rejected(self):
        m = omega_model(1, params=("u",))
        with pytest.raises(PreconditionError):
            good_family_scan(m, [{}])


class TestStablyIsolated:
    def test_omega_arithmetic_false(self):
        # codim of the next deeper locus is 2, not 6.
        assert stably_isolated_check(omega_model(1), 1) is False

    def test_three_by_two_in_two_variables(self):
        vs = XY
        entries = [
            [P("x", vs), Polynomial.zero(vs)],
            [Polynomial.zero(vs), P("y", vs)],
            [P("y", vs), P("x", vs)],
        ]
        m = PresentationMatrix(DeterminantalType(2, 1, 2), entries, vs)
        assert stably_isolated_check(m, 1) is True

    def test_no_deeper_stratum(self):
        with pytest.raises(PreconditionError):
            stably_isolated_check(omega_model(1), 2)

    def test_deeper_locus_past_the_type(self):
        # With t = 1 the model has no stratum 2, so the deeper locus of
        # stratum 1 is the ideal of the 2x2 minors x^2, xy, y^2, formed
        # afresh; it lies in the origin and q = 2 is its codimension.
        zero = Polynomial.zero(XY)
        entries = [[P("x", XY), P("y", XY), zero], [zero, P("x", XY), P("y", XY)]]
        m = PresentationMatrix(DeterminantalType(2, 1, 1), entries, XY)
        assert stably_isolated_check(m, 1) is True

    def test_deeper_locus_is_the_analysis_stratum(self, monkeypatch, tmp_path, capsys):
        # The deeper locus of stratum 1 of [[x, y, 0], [0, x, y]] is its
        # stratum 2, so analyze forms the 2x2 minors once, for both.
        from detsing import detmodel
        from detsing.cli import main

        sizes = []
        real = detmodel._all_minors

        def counted(grid, size, vars, *rest):
            sizes.append(size)
            return real(grid, size, vars, *rest)

        monkeypatch.setattr(detmodel, "_all_minors", counted)
        path = tmp_path / "stably_isolated.model"
        path.write_text(
            "[variables]\nx y\n\n[type]\nrows = 2\ncols = 3\nt = 2\n\n"
            "[matrix]\nx, y, 0\n0, x, y\n"
        )
        assert main(["analyze", str(path), "--format", "structured"]) == 0
        assert '"stably_isolated_verified": true' in capsys.readouterr().out
        assert sizes.count(2) == 1


class TestConormalGap:
    @pytest.mark.parametrize("k,expected", [(0, 1), (1, 2), (4, 5)])
    def test_values(self, k, expected):
        assert conormal_fiber_gap(DeterminantalType(2, k, 2)) == expected

    def test_gap_at_least_two_for_positive_k(self):
        for k in range(1, 6):
            assert conormal_fiber_gap(DeterminantalType(3, k, 2)) >= 2
