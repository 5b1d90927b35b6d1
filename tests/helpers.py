"""Shared builders for the test suite."""

from fractions import Fraction

from detsing import (
    DeterminantalType,
    Ideal,
    Polynomial,
    PresentationMatrix,
    VariableSet,
    parse_polynomial,
    singular_locus_ideal,
    stratum,
)

XY = VariableSet(("x", "y"))
XYZ = VariableSet(("x", "y", "z"))


def P(text, vars):
    return parse_polynomial(text, vars)


def omega_vars(params=()):
    return VariableSet(("x1", "x2", "x3", "x4", "x5", "y"), tuple(params))


def omega_model(k, extra_term=None, params=()):
    """The corank-one 2x3 family: last entry x1 + y^(k+1) (+ extra)."""
    vs = omega_vars(params)
    last = f"x1 + y^{k + 1}"
    if extra_term:
        last += f" + {extra_term}"
    rows = [["x1", "x2", "x3"], ["x4", "x5", last]]
    entries = [[P(s, vs) for s in row] for row in rows]
    return PresentationMatrix(DeterminantalType(2, 1, 2), entries, vs)


def sheared_omega_model(k, perm, shears):
    """omega_model(k) in new coordinates, as the omega-coords benchmark
    writes it: coordinate v goes to perm's v, then each shear
    ((i, j), c), x_i <- x_i + c*x_j, rewrites every image."""
    vs = omega_vars()
    image = {v: {w: 1} for v, w in zip(vs.names, perm)}
    for (i, j), c in shears:
        for form in image.values():
            if form.get(i):
                form[j] = form.get(j, 0) + c * form[i]
    forms = {
        v: sum((Polynomial.variable(vs, w).scale(c) for w, c in form.items()), Polynomial.zero(vs))
        for v, form in image.items()
    }
    m = omega_model(k)
    entries = [[e.substitute(forms) for e in row] for row in m.entries]
    return PresentationMatrix(m.dtype, entries, vs)


def generic_entry_model(n, k, t):
    """All entries independent variables; q = n(n+k)."""
    rows, cols = n + k, n
    names = tuple(f"z{r + 1}_{c + 1}" for r in range(rows) for c in range(cols))
    vs = VariableSet(names)
    entries = [
        [Polynomial.variable(vs, f"z{r + 1}_{c + 1}") for c in range(cols)]
        for r in range(rows)
    ]
    return PresentationMatrix(DeterminantalType(n, k, t), entries, vs)


def saturation_inputs(model, i):
    """The two ideals ``eids_check`` saturates for stratum i > 1 when the
    locus is not certified without a saturation: the stratum's non-smooth
    locus, built on the stratum's reduced basis and carrying its own, and
    stratum i - 1."""
    s = stratum(model, i)
    reduced = Ideal.from_basis(s.ideal.groebner_basis(), s.ideal.vars, s.ideal.max_degree)
    locus = singular_locus_ideal(reduced, s.expected_codim)
    locus = Ideal.from_basis(locus.groebner_basis(), locus.vars, locus.max_degree)
    return locus, stratum(model, i - 1).ideal


def random_poly(rng, vars, max_degree, max_terms=4, coeff_bound=4, allow_constant=True):
    """Deterministic random polynomial with small integer coefficients."""
    width = len(vars)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        degree = rng.randint(0 if allow_constant else 1, max_degree)
        exps = [0] * width
        for _ in range(degree):
            exps[rng.randrange(width)] += 1
        coeff = 0
        while coeff == 0:
            coeff = rng.randint(-coeff_bound, coeff_bound)
        mono = tuple(exps)
        terms[mono] = terms.get(mono, 0) + coeff
    return Polynomial(vars, {m: Fraction(c) for m, c in terms.items() if c})


def random_matrix_model(rng, rows, cols, nvars, max_degree=2):
    names = tuple(f"w{i + 1}" for i in range(nvars))
    vs = VariableSet(names)
    n = min(rows, cols)
    k = abs(rows - cols)
    entries = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            p = random_poly(rng, vs, max_degree, max_terms=3, allow_constant=False)
            row.append(p)
        entries.append(row)
    return PresentationMatrix(DeterminantalType(n, k, n), entries, vs)


def watch_term_maps(monkeypatch):
    """Record each call of the public Polynomial constructor and each
    read of a term map; returns the two lists, (built, read)."""
    built, read = [], []
    init, terms = Polynomial.__init__, Polynomial.terms

    def counted_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Polynomial, "__init__", counted_init)
    monkeypatch.setattr(
        Polynomial, "terms", property(lambda p: read.append(p) or terms.fget(p))
    )
    return built, read
