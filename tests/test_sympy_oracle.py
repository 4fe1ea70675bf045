"""sympy as an independent check of gcd, Pfaffian, generic rank,
evaluation, and the rank, kernel and inverse of rational matrices.

A development-only oracle: the module is skipped when sympy is not
installed.  Each case is small (matrices of size at most 6, or 10 for the
numeric pencils) and seeded or drawn by hypothesis, with integer and with
rational coefficients.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from liepencil.errors import SingularMatrix  # noqa: E402
from liepencil.model import SkewPolyMatrix  # noqa: E402
from liepencil.pencil import generic_rank, pfaffian  # noqa: E402
from liepencil.poly import Polynomial, VarRegistry, _line, _line_bound, poly_gcd  # noqa: E402
from liepencil.ratmat import inverse, kernel, rank  # noqa: E402
from liepencil.unipoly import pencil_pfaffian  # noqa: E402

from helpers import moved_gcd_cases, prs_gcd  # noqa: E402

REG = VarRegistry(3, params=("t",))
NAMES = ("x1", "x2", "t")


def to_sympy(p):
    """The same polynomial as a sympy expression, coefficient by coefficient."""
    reg = p.registry
    total = sympy.Integer(0)
    for mono, c in p.terms():
        term = sympy.Rational(c.numerator, c.denominator)
        for pos, e in reg.exponents(mono):
            term *= sympy.Symbol(reg.name_at(pos)) ** e
        total += term
    return total


def _coefficient(rng, rational):
    c = rng.randint(-4, 4)
    return Fraction(c, rng.randint(1, 5)) if rational else c


def _linear(rng, rational):
    p = REG.zero()
    for name in rng.sample(NAMES, 2):
        p = p + _coefficient(rng, rational) * REG.var(name)
    return p + _coefficient(rng, rational)


def _product(rng, rational, factors):
    p = REG.one()
    for _ in range(factors):
        p = p * _linear(rng, rational)
    return p


def _skew_matrix(rng, rational, size, layers):
    """Skew matrix of linear forms: the sum of ``layers`` terms
    u v^T - v u^T of rank at most 2 (u constant, v linear forms), or a
    dense random one when ``layers`` is None."""
    upper = {}
    if layers is None:
        for i in range(1, size + 1):
            for j in range(i + 1, size + 1):
                upper[(i, j)] = _linear(rng, rational)
    else:
        vectors = [
            ([_coefficient(rng, rational) for _ in range(size)],
             [_linear(rng, rational) for _ in range(size)])
            for _ in range(layers)
        ]
        for i in range(size):
            for j in range(i + 1, size):
                upper[(i + 1, j + 1)] = sum(
                    (u[i] * v[j] - v[i] * u[j] for u, v in vectors), REG.zero()
                )
    return SkewPolyMatrix(size, REG, upper)


def _to_sympy_matrix(m):
    return sympy.Matrix(
        [[to_sympy(m.entry(i, j)) for j in range(1, m.size + 1)] for i in range(1, m.size + 1)]
    )


@pytest.mark.parametrize("rational", [False, True], ids=["integer", "rational"])
def test_gcd_matches_sympy(rational):
    rng = random.Random(61 + rational)
    for _ in range(8):
        common = _product(rng, rational, rng.randint(0, 2))
        p = common * _product(rng, rational, rng.randint(0, 2))
        q = common * _product(rng, rational, rng.randint(0, 2))
        ours = to_sympy(poly_gcd(p, q))
        theirs = sympy.gcd(to_sympy(p), to_sympy(q))
        ratio = sympy.cancel(ours / theirs)
        assert ratio.is_number and ratio != 0, (p, q, ours, theirs)


def _monomial_times_factor():
    x1, x2, t = (REG.var(name) for name in NAMES)
    f = 3 * x1 - t + Fraction(1, 2)
    return x1 ** 2 * x2 * f * (x2 - 3), x1 * x2 ** 3 * f


def _degenerate_line():
    """A pair whose common factor L is constant on poly_gcd's own line: L
    and both operands' top parts vanish at its direction a."""
    x1, x2, _ = (REG.var(name) for name in NAMES)
    line = _line(x1, x2)
    (_, a1), (_, a2) = (line[REG.position(name)] for name in ("x1", "x2"))
    common = a2 * x1 - a1 * x2
    p, q = common * (x1 + 1), common * (x2 - 3)
    assert _line(p, q) == line and _line_bound(p, q, line) is None
    return p, q


SPECIAL_CASES = {"monomial-times-factor": _monomial_times_factor, "degenerate-line": _degenerate_line}
SPECIAL_CASES.update({name: lambda name=name: moved_gcd_cases()[name][:2] for name in moved_gcd_cases()})


@pytest.mark.parametrize("case", list(SPECIAL_CASES))
def test_gcd_special_cases_match_sympy(case):
    p, q = SPECIAL_CASES[case]()
    assert poly_gcd(p, q) == prs_gcd(p, q)
    ours = to_sympy(poly_gcd(p, q))
    theirs = sympy.gcd(to_sympy(p), to_sympy(q))
    ratio = sympy.cancel(ours / theirs)
    assert ratio.is_number and ratio != 0, (p, q, ours, theirs)
    assert sympy.total_degree(theirs) > 0


@pytest.mark.parametrize("rational", [False, True], ids=["integer", "rational"])
def test_pfaffian_squared_is_sympy_determinant(rational):
    rng = random.Random(67 + rational)
    for size in (2, 3, 4, 5, 6):
        m = _skew_matrix(rng, rational, size, None)
        det = _to_sympy_matrix(m).det(method="domain-ge")
        assert sympy.expand(to_sympy(pfaffian(m)) ** 2 - det) == 0, size


def _int_skew(rng, n, bound):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.7:
                m[i][j] = rng.randint(-bound, bound)
                m[j][i] = -m[i][j]
    return m


def test_pencil_pfaffian_squared_is_sympy_determinant():
    """Pf(A + tB)^2 = det(A + tB), the determinant by sympy over Z[t]."""
    ring = sympy.ZZ[sympy.Symbol("t")]
    (t,) = ring.gens
    rng = random.Random(73)
    for n in range(11):
        for bound in (3, 10**15):
            a, b = _int_skew(rng, n, bound), _int_skew(rng, n, bound)
            rows = [[ring.zero + x + y * t for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
            det = DomainMatrix(rows, (n, n), ring).det()
            pf = sum((c * t**i for i, c in enumerate(pencil_pfaffian(a, b))), ring.zero)
            assert pf**2 == det, (n, bound)


@pytest.mark.parametrize("rational", [False, True], ids=["integer", "rational"])
def test_generic_rank_matches_sympy(rational):
    rng = random.Random(71 + rational)
    ranks = set()
    for size, layers in ((4, 1), (5, 2), (6, 2), (6, None)):
        m = _skew_matrix(rng, rational, size, layers)
        # fraction-free row reduction over Z[x] or Q[x]: its pivots count
        # the rank over the field of fractions
        _, _, pivots = DomainMatrix.from_Matrix(_to_sympy_matrix(m)).rref_den()
        want = len(pivots)
        assert generic_rank(m) == want, (size, layers)
        ranks.add(want)
    assert ranks == {2, 4, 6}


def _rational_matrix(rng):
    """A matrix of size at most 6 with entries in Q: dense, of lower rank
    (a product through Q^r), or dense with a zero row and a zero column;
    half of them square."""
    rows = rng.randint(1, 6)
    cols = rows if rng.random() < 0.5 else rng.randint(1, 6)
    kind = rng.choice(("dense", "deficient", "zeros"))

    def entry():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    m = [[entry() for _ in range(cols)] for _ in range(rows)]
    if kind == "deficient":
        r = rng.randint(0, min(rows, cols) - 1)
        left = [[entry() for _ in range(r)] for _ in range(rows)]
        right = [[entry() for _ in range(cols)] for _ in range(r)]
        m = [[sum((a * b[j] for a, b in zip(row, right)), Fraction(0)) for j in range(cols)]
             for row in left]
    elif kind == "zeros":
        zero_col = rng.randrange(cols)
        m[rng.randrange(rows)] = [Fraction(0)] * cols
        for row in m:
            row[zero_col] = Fraction(0)
    return m


def _fraction(v):
    return Fraction(int(v.p), int(v.q))


def test_rank_kernel_inverse_match_sympy():
    """rank, kernel and inverse of 300 seeded rational matrices against
    sympy: the kernel is sympy's nullspace() scaled to primitive integers,
    vector for vector and sign for sign."""
    rng = random.Random(79)
    inverted = singular = 0
    for trial in range(300):
        m = _rational_matrix(rng)
        sm = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in m])
        r = sm.rank()
        assert rank(m) == r, trial
        want = []
        for vec in sm.nullspace():
            vec = [_fraction(v) for v in vec]
            scale = math.lcm(*(v.denominator for v in vec))
            ints = [int(v * scale) for v in vec]
            g = math.gcd(*ints)
            want.append([v // g for v in ints])
        assert kernel(m) == want, trial
        n = len(m)
        if n != len(m[0]):
            continue
        if r < n:
            singular += 1
            with pytest.raises(SingularMatrix):
                inverse(m)
            continue
        inverted += 1
        inv = sm.inv()
        assert inverse(m) == [[_fraction(inv[i, j]) for j in range(n)] for i in range(n)], trial
    assert inverted > 50 and singular > 20


_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def _polys(draw, max_terms=4, max_degree=3):
    """A sum of up to ``max_terms`` rational multiples of monomials in
    x1, x2 and t of degree at most ``max_degree``."""
    p = REG.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        term = REG.constant(draw(_rationals))
        for _ in range(draw(st.integers(0, max_degree))):
            term = term * REG.var(draw(st.sampled_from(NAMES)))
        p = p + term
    return p


# a value for a variable: a rational or a small polynomial
_values = st.one_of(_rationals, _polys(max_terms=2, max_degree=2))


def _sympy_value(v):
    return to_sympy(v) if isinstance(v, Polynomial) else sympy.Rational(v.numerator, v.denominator)


def _sympy_image(p, values):
    """p with each variable named in ``values`` replaced at once, by sympy."""
    return to_sympy(p).xreplace({sympy.Symbol(n): _sympy_value(v) for n, v in values.items()})


@settings(max_examples=80, deadline=None)
@given(p=_polys(), values=st.dictionaries(st.sampled_from(NAMES), _values))
def test_substitute_matches_sympy(p, values):
    """Bound variables take their values, rational or polynomial, at once;
    the variables left out stay as they are."""
    ours = p.substitute(values)
    assert isinstance(ours, Polynomial)
    assert sympy.expand(to_sympy(ours) - _sympy_image(p, values)) == 0


@settings(max_examples=80, deadline=None)
@given(p=_polys(), values=st.fixed_dictionaries({n: _values for n in NAMES}))
def test_evaluate_with_polynomial_values_matches_sympy(p, values):
    ours = p.evaluate(values)
    if all(not isinstance(v, Polynomial) for v in values.values()):
        assert not isinstance(ours, Polynomial)
    assert sympy.expand(_sympy_value(ours) - _sympy_image(p, values)) == 0
