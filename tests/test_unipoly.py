"""Dense univariate polynomials over the integers."""

import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import liepencil
from liepencil import unipoly
from liepencil.unipoly import (
    deg,
    format_poly,
    gcd_poly,
    pencil_det,
    pencil_pfaffian,
    primitive,
    rational_roots,
)

from helpers import (
    divmod_poly,
    euclid_gcd,
    horner,
    laplace_det,
    pfaffian_matchings,
    reference_pencil_pfaffian,
    reference_rational_roots,
    uni_add,
    uni_div_exact as div_exact,
    uni_mul as mul,
)

int_polys = st.lists(st.integers(-9, 9), max_size=5).map(unipoly.trim)


def from_roots(roots, lead=1):
    p = [Fraction(lead)]
    for r in roots:
        p = mul(p, [-Fraction(r), Fraction(1)])
    return p


def test_divmod_reconstructs():
    p = from_roots([1, 2, 3])
    q = from_roots([2])
    assert div_exact(p, q) == from_roots([1, 3])


@given(int_polys, int_polys.filter(bool), int_polys, st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_division_in_z_matches_the_quotient_over_q(s, q, r, content):
    """For p = s*q, or s*q + r, with q of content ``content`` as well,
    the division in Z[t] gives the quotient over Q exactly when that
    quotient is in Z[t] and the remainder is 0; otherwise no quotient,
    and ``div_exact`` raises."""
    q = [content * c for c in q]
    for p in (mul(s, q), uni_add(mul(s, q), r)):
        quot, rem = divmod_poly(p, q)
        res = unipoly._divide(p, q)
        if res is not None:
            assert uni_add(mul(res[0], q), res[1]) == p
            assert deg(res[1]) < deg(q)
        if not rem and all(type(c) is int for c in quot):
            assert res == (quot, [])
            assert div_exact(p, q) == quot
        else:
            assert res is None or res[1]
            with pytest.raises(ValueError):
                div_exact(p, q)


def test_division_by_a_non_primitive_divisor_is_not_exact():
    with pytest.raises(ValueError):
        div_exact([1, 1], [2, 2])
    assert div_exact([2, 2], [2, 2]) == [1]
    with pytest.raises(ZeroDivisionError):
        div_exact([1], [])


@given(
    st.lists(st.integers(-6, 6), max_size=4),
    int_polys,
    int_polys,
    st.sampled_from([1, -3, Fraction(2, 5)]),
)
@settings(max_examples=300, deadline=None)
def test_gcd_matches_euclid_over_q(g, a, b, scale):
    """The primitive pseudo-remainder sequence in Z[t] gives the gcd of
    Euclid's algorithm over Q, for int and Fraction inputs that share the
    factor g."""
    p = [scale * c for c in mul(g, a)]
    q = mul(g, b)
    assert gcd_poly(p, q) == euclid_gcd(p, q)
    assert gcd_poly(q, p) == euclid_gcd(q, p)


def test_gcd_of_products():
    g = from_roots([5])
    p = mul(g, from_roots([1, -1]))
    q = mul(g, from_roots([7]))
    got = gcd_poly(p, q)
    # primitive integer normalization: x - 5
    assert got == [Fraction(-5), Fraction(1)]


def test_primitive_scales_out_content():
    p = [Fraction(4, 3), Fraction(-2, 3)]
    assert primitive(p) == [Fraction(-2), Fraction(1)] or primitive(p) == [Fraction(2), Fraction(-1)]


def test_rational_roots_with_multiplicity():
    p = from_roots([Fraction(1, 2), Fraction(1, 2), -3], lead=4)
    roots, residual, complete = rational_roots(p)
    assert dict(roots) == {Fraction(1, 2): 2, Fraction(-3): 1}
    assert deg(residual) == 0
    assert complete


def test_rational_roots_order_by_magnitude():
    p = from_roots([5, -1, 2])
    roots, _, _ = rational_roots(p)
    assert [r for r, _ in roots] == [Fraction(-1), Fraction(2), Fraction(5)]


def test_rational_roots_irrational_residual():
    # x^2 - 2 has no rational roots
    p = [Fraction(-2), Fraction(0), Fraction(1)]
    roots, residual, complete = rational_roots(p)
    assert roots == []
    assert deg(residual) == 2
    assert complete


# rootless over Q, or 1 for none
_ROOTLESS = ([1], [1, 0, 1], [-2, 0, 1], [3, 1, 2], [5, -3, 7])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 6)), max_size=5),
    st.sampled_from(_ROOTLESS),
    st.integers(0, 2),
    st.sampled_from([1, -4, Fraction(2, 3)]),
)
def test_rational_roots_match_horner_and_exact_division(factors, rootless, zeros, scale):
    """One integer synthetic division per candidate gives the roots, the
    order, the residual and ``complete`` of testing each candidate by
    Horner's rule in Q and dividing it out with ``div_exact``, for products
    of linear factors d*t - n, a rootless quadratic and t^zeros, given as
    ints or as Fractions."""
    p = [0] * zeros + rootless
    for n, d in factors:
        p = mul(p, [-n, d])
    p = [scale * c for c in p]
    got = rational_roots(p)
    assert got == reference_rational_roots(p)
    assert all(type(c) is int for c in got[1])


def test_rational_roots_give_up_past_the_candidate_bound():
    """963761198400 has 6720 divisors, so both ends together give about
    9*10^7 candidates, past sqrt(_FACTOR_BOUND): the search stops before
    testing any, with the input as the residual."""
    p = [963761198400, 1, 963761198400]
    start = time.perf_counter()
    got = rational_roots(p)
    assert time.perf_counter() - start < 1.0
    assert got == ([], p, False)


def test_divisors_match_trial_division_by_every_number():
    """Seeded n up to 10^6, prime powers and the ends of the range, and a
    prime and a semiprime near ``_FACTOR_BOUND``; past it, or at 0, the
    answer is None."""

    def brute(n):
        small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
        return sorted(set(small + [n // d for d in small]))

    rng = random.Random(3217)
    cases = [rng.randint(1, 10**6) for _ in range(300)]
    cases += list(range(1, 200)) + [2**19, 3**12, 5**8, 6**7, 720720, 999983, 10**6]
    for n in cases:
        assert unipoly._divisors(n) == unipoly._divisors(-n) == brute(n), n
    assert unipoly._divisors(999999999989) == [1, 999999999989]
    assert unipoly._divisors(999983 * 1000003) == [1, 999983, 1000003, 999983 * 1000003]
    assert unipoly._divisors(0) is None
    assert unipoly._divisors(unipoly._FACTOR_BOUND + 1) is None
    assert rational_roots([999999999989, 0, 1]) == ([], [999999999989, 0, 1], True)


def test_rational_roots_give_up_past_the_factor_bound():
    """A trailing coefficient past ``_FACTOR_BOUND`` ends the search after
    the zero roots, with the rest as the residual and ``complete`` False."""
    big = unipoly._FACTOR_BOUND + 1
    p = mul([0, 0, 1], mul([-big, 1], [-2, 3]))
    got = rational_roots(p)
    assert got == reference_rational_roots(p) == ([(Fraction(0), 2)], [2 * big, -3 * big - 2, 3], False)


def test_format_poly():
    assert format_poly([Fraction(1), Fraction(-2), Fraction(1)], var="t") == "t^2 - 2*t + 1"
    assert format_poly([], var="t") == "0"
    assert format_poly([Fraction(1, 2)]) == "1/2"


def test_format_poly_writes_coefficients_past_the_digit_limit():
    """Python refuses str() of an int past its digit limit; the numeric p0
    of a table with 4000-digit structure constants has such coefficients."""
    digits = sys.get_int_max_str_digits() + 700
    big = 10**digits + 7
    text = "1" + "0" * (digits - 1) + "7"
    assert format_poly([big, -3 * 10**digits, Fraction(1, big)], var="t") == (
        f"1/{text}*t^2 - 3{'0' * digits}*t + {text}"
    )
    assert format_poly([-big, 1]) == f"lambda - {text}"


def test_pencil_det_refuses_matrices_of_other_shapes():
    square = [[1, 2], [3, 4]]
    for a, b in (
        (square, [[1, 2, 3], [4, 5, 6], [7, 8, 9]]),
        (square, [[1, 2]]),
        ([[1, 2, 3], [4, 5, 6]], [[1, 2, 3], [4, 5, 6]]),
        ([[1, 2], [3]], square),
    ):
        with pytest.raises(ValueError):
            pencil_det(a, b)


def test_pencil_det_against_laplace():
    rng = random.Random(17)
    for n in (1, 2, 3, 4):
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        b = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        got = pencil_det(a, b)
        # oracle: det(A + tB) evaluated at n+1 points determines the
        # degree-n polynomial; compare values instead of coefficients
        for t in range(n + 2):
            rows = [
                [Fraction(a[i][j] + t * b[i][j]) for j in range(n)]
                for i in range(n)
            ]
            assert horner(got, Fraction(t)) == laplace_det(rows)


def _all_ints(p):
    return all(type(c) is int for c in p)


def test_pencil_det_stays_in_integers():
    """Every Bareiss division is exact in Z[t], so no Fraction appears."""
    rng = random.Random(23)
    for n in (0, 1, 2, 3, 5):
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        b = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        got = pencil_det(a, b)
        assert got and _all_ints(got), (n, got)


def _skew(rng, n, density=1.0):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                m[i][j] = rng.randint(-4, 4)
                m[j][i] = -m[i][j]
    return m


def _at(a, b, t):
    return [[x + t * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _skew_pairs(seed):
    """Seeded skew pairs of sizes 0..12, dense and sparse."""
    rng = random.Random(seed)
    for n in range(13):
        for density in (1.0, 0.35):
            yield _skew(rng, n, density), _skew(rng, n, density)


@pytest.mark.parametrize("seed", [1, 2])
def test_pencil_pfaffian_squares_to_pencil_det(seed):
    for a, b in _skew_pairs(seed):
        pf = pencil_pfaffian(a, b)
        assert mul(pf, pf) == pencil_det(a, b), (a, b)
        assert _all_ints(pf)
        if len(a) % 2:
            assert pf == []


def test_pencil_pfaffian_sign_against_matchings():
    rng = random.Random(5)
    for n in (0, 2, 4, 6, 8):
        for density in (1.0, 0.4):
            a, b = _skew(rng, n, density), _skew(rng, n, density)
            pf = pencil_pfaffian(a, b)
            for t in range(-2, 3):
                assert horner(pf, t) == pfaffian_matchings(_at(a, b, t)), (n, t)


def test_pencil_pfaffian_pivots_past_a_zero_entry():
    # the (1,2) entry is zero, so the first pivot pair has to be moved
    a = [[0, 0, 1, 2], [0, 0, 3, 1], [-1, -3, 0, 0], [-2, -1, 0, 0]]
    b = [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 1], [-1, 0, -1, 0]]
    pf = pencil_pfaffian(a, b)
    assert pf == [5, 5, 1]  # w12 w34 - w13 w24 + w14 w23 = 0 - 1 + (2 + t)(3 + t)
    for t in range(-2, 3):
        assert horner(pf, t) == pfaffian_matchings(_at(a, b, t))


def test_pencil_pfaffian_of_a_singular_pencil_is_zero():
    # rows 0 and 1 are equal for every t, so Pf(A + tB) vanishes identically
    rng = random.Random(7)
    a, b = _skew(rng, 6), _skew(rng, 6)
    for m in (a, b):
        m[0][1] = m[1][0] = 0
        for j in range(2, 6):
            m[1][j], m[j][1] = m[0][j], -m[0][j]
    assert pencil_det(a, b) == []
    assert pencil_pfaffian(a, b) == []
    assert pencil_pfaffian([[0] * 4 for _ in range(4)], [[0] * 4 for _ in range(4)]) == []


@st.composite
def _skew_pencils(draw):
    """Skew pairs of size 0..16, odd sizes included, with entries up to
    10**40 in magnitude, often zero, and up to two rows zero in both."""
    n = draw(st.integers(0, 16))
    bound = 10 ** draw(st.sampled_from([0, 1, 4, 40]))
    entry = st.one_of(st.just(0), st.integers(-bound, bound))
    zero_rows = draw(st.sets(st.integers(0, n - 1), max_size=2)) if n else set()
    pair = []
    for _ in range(2):
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if i not in zero_rows and j not in zero_rows:
                    m[i][j] = draw(entry)
                    m[j][i] = -m[i][j]
        pair.append(m)
    return pair


@given(_skew_pencils())
@settings(max_examples=150, deadline=None)
def test_pencil_pfaffian_matches_the_polynomial_elimination(pencil):
    """The one integer Pfaffian at t = 2^k, read back digit by digit, gives
    the Pfaffian of the elimination with polynomial entries."""
    a, b = pencil
    assert pencil_pfaffian(a, b) == reference_pencil_pfaffian(a, b)


@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("bits", [20, 61])
def test_pencil_pfaffian_bound_is_tight_enough(m, bits):
    """m diagonal 2x2 blocks with the entry c in both A and B give
    Pf = c^m (1 + t)^m.  Its middle coefficient C(m, m/2) c^m lies within
    a factor 4 of the Hadamard bound H = (2c)^m, and with c + 2 a power of
    two the integer bound puts 2^(k-1) just past H, so a read-back with two
    bits fewer per digit would split that coefficient."""
    c = 2**bits - 2
    a = [[0] * (2 * m) for _ in range(2 * m)]
    for i in range(0, 2 * m, 2):
        a[i][i + 1], a[i + 1][i] = c, -c
    want = [math.comb(m, i) * c**m for i in range(m + 1)]
    assert 4 * want[m // 2] > (2 * c) ** m
    assert pencil_pfaffian(a, a) == want
    assert pencil_pfaffian(a, [[-v for v in row] for row in a]) == [
        (-1) ** i * w for i, w in enumerate(want)
    ]


def test_pencil_pfaffian_refuses_non_skew_input():
    skew = [[0, 1], [-1, 0]]
    for a, b in (
        ([[0, 1], [1, 0]], skew),
        (skew, [[1, 0], [0, -1]]),
        (skew, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]),
        ([[0, 1], [-1]], skew),
    ):
        with pytest.raises(ValueError):
            pencil_pfaffian(a, b)


def test_rational_roots_refuses_the_zero_polynomial_in_every_form():
    for zero in ([], [0], [0, 0], [Fraction(0), 0]):
        with pytest.raises(ValueError):
            liepencil.rational_roots(zero)
        assert primitive(zero) == []


def test_integer_input_stays_in_integers():
    p, q = [2, -3, 1], [-1, 0, 4]
    for got in (
        unipoly.trim([1, 2, 0]),
        uni_add(p, q),
        mul(p, q),
        div_exact(mul(p, q), q),
        primitive([Fraction(4, 3), Fraction(-2, 3)]),
        rational_roots([-6, 4, 2, 0, 1, 1])[1],
    ):
        assert got and _all_ints(got), got




def test_format_poly_skips_a_zero_middle_coefficient():
    assert format_poly([1, 0, 1], var="t") == "t^2 + 1"
    assert format_poly([Fraction(-3), 0, 0, 2]) == "2*lambda^3 - 3"
