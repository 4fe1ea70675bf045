"""Exact multivariate polynomial arithmetic and gcd."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from liepencil import poly
from liepencil.errors import DegreeOverflow, RegistryMismatch
from liepencil.poly import (
    MAX_EXPONENT,
    NEG_INF,
    Polynomial,
    VarKind,
    VarRegistry,
    coefficients,
    content,
    div_exact,
    divides,
    normalize,
    poly_gcd,
    sum_of_products,
    try_divide,
)
from liepencil.poly import _line, _line_bound, _on_line, _uni_gcd_degree

from helpers import holds_ints, moved_gcd_cases, polys_equal_at_random, prs_gcd, random_point

REG = VarRegistry(3, params=("t",))


def V(name):
    return REG.var(name)


# Small random polynomials over x1..x3, a1..a3, t.
_names = st.sampled_from([f"x{k}" for k in (1, 2, 3)] + [f"a{k}" for k in (1, 2, 3)] + ["t"])
_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)


@st.composite
def polys(draw, max_terms=4, max_factors=2, max_power=1):
    p = REG.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        term = REG.constant(draw(_coeffs))
        for _ in range(draw(st.integers(0, max_factors))):
            power = draw(st.integers(1, max_power)) if max_power > 1 else 1
            term = term * V(draw(_names)) ** power
        p = p + term
    return p


# Exponents up to a third of the limit, so that three factors stay within it.
_wide_polys = polys(max_terms=6, max_factors=3, max_power=MAX_EXPONENT // 3)
_edge_exponents = st.sampled_from([0, 1, 2, MAX_EXPONENT - 1, MAX_EXPONENT]) | st.integers(0, 3)


@st.composite
def monomials(draw):
    """A monomial's exponents by name, its total degree within the limit;
    edge exponents at the limit and one below it come up often."""
    exps = {}
    budget = MAX_EXPONENT
    for name in draw(st.lists(_names, unique=True, max_size=4)):
        e = min(draw(_edge_exponents), budget)
        if e:
            exps[name] = e
            budget -= e
    return exps


def monomial(exps):
    term = REG.one()
    for name, e in exps.items():
        term = term * V(name) ** e
    return term


def test_zero_and_constants():
    assert REG.zero().is_zero()
    assert not REG.zero()
    five = REG.constant(5)
    assert five.is_constant()
    assert five.constant_value() == 5
    assert five.total_degree() == 0
    assert REG.zero().total_degree() == NEG_INF


def test_arithmetic_against_evaluation():
    rng = random.Random(7)
    x1, a2, t = V("x1"), V("a2"), V("t")
    p = (x1 + 2 * a2) * (x1 - t) + Fraction(1, 2)
    q = x1 * x1 - x1 * t + 2 * a2 * x1 - 2 * a2 * t + Fraction(1, 2)
    assert p == q
    for _ in range(6):
        point = random_point(REG, rng)
        want = (point["x1"] + 2 * point["a2"]) * (point["x1"] - point["t"]) + Fraction(1, 2)
        assert p.evaluate(point) == want


def test_power():
    x1 = V("x1")
    assert (x1 + 1) ** 3 == x1 ** 3 + 3 * x1 ** 2 + 3 * x1 + 1
    assert (x1 + 1) ** 0 == REG.one()
    with pytest.raises(ValueError):
        (x1 + 1) ** -1


def test_display_order_pins():
    # within a monomial: parameters, then coordinates, then points, then lambda
    x1, a1, t = V("x1"), V("a1"), V("t")
    lam = REG.pencil()
    assert str(x1 * a1) == "x1*a1"
    assert str(-2 * t * V("x2")) == "-2*t*x2"
    assert str(V("a3") * lam + V("x3")) == "a3*lambda + x3"
    # significance across monomials: lambda before points before coordinates
    assert str(lam + V("a1") + V("x1")) == "lambda + a1 + x1"


def test_display_of_coefficients_past_the_digit_limit():
    x1 = V("x1")
    num, den = 7**6000 + 1, 3**9100
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = f"-{num}/{den}*x1 + {num}"
    finally:
        sys.set_int_max_str_digits(previous)
    assert str(-Fraction(num, den) * x1 + num) == expected


def test_degree_in_kinds():
    x1, a1, t = V("x1"), V("a1"), V("t")
    p = x1 * x1 * a1 + t * x1
    assert p.degree_in([VarKind.COORDINATE]) == 2
    assert p.degree_in([VarKind.POINT]) == 1
    assert p.degree_in([VarKind.PARAMETER]) == 1
    assert p.degree_in([VarKind.PENCIL]) == 0
    assert p.degree_in([VarKind.COORDINATE, VarKind.POINT]) == 3
    # none of the kinds asked for occurs: 0, for constants as well
    free = t**3 * 2 - 5
    assert free.degree_in([VarKind.COORDINATE, VarKind.POINT, VarKind.PENCIL]) == 0
    assert REG.constant(7).degree_in([VarKind.PARAMETER]) == 0
    assert (V("a3") ** 2 + t).degree_in([VarKind.POINT]) == 2
    assert REG.zero().degree_in([VarKind.COORDINATE]) == NEG_INF
    assert REG.zero().degree_in([VarKind.PARAMETER]) == NEG_INF


def test_coordinate_form():
    t, x1, x2 = V("t"), V("x1"), V("x2")
    form = REG.coordinate_form({2: REG.constant(3), 1: t * t - Fraction(1, 2)})
    assert form == (t * t - Fraction(1, 2)) * x1 + 3 * x2
    assert form.coefficient(x2.leading()[0]) == 3
    assert type(form.coefficient(x2.leading()[0])) is int
    assert REG.coordinate_form({1: REG.zero()}).is_zero()
    assert REG.coordinate_form({}).is_zero()
    for bad in (x1, t * x2):
        with pytest.raises(ValueError, match="involves a coordinate"):
            REG.coordinate_form({3: bad})
    with pytest.raises(ValueError, match="out of range"):
        REG.coordinate_form({4: t})
    with pytest.raises(RegistryMismatch):
        REG.coordinate_form({1: VarRegistry(3).one()})
    # the same limit as the product c * x_k
    with pytest.raises(DegreeOverflow, match=f"total degree {MAX_EXPONENT + 1} exceeds"):
        REG.coordinate_form({1: t**MAX_EXPONENT})


def test_substitute_shift():
    x1, a1 = V("x1"), V("a1")
    lam = REG.pencil()
    p = x1 * x1
    shifted = p.substitute({"x1": x1 + lam * a1})
    assert shifted == x1 * x1 + 2 * lam * x1 * a1 + lam * lam * a1 * a1
    assert p.evaluate({"x1": x1 + lam * a1}) == shifted


def test_evaluate_needs_every_occurring_variable():
    x1, x2 = V("x1"), V("x2")
    for value in (3, Fraction(1, 2), x1 + 1):
        with pytest.raises(ValueError, match="variable 'x2' is unbound in evaluate()"):
            (x1 * x2 + 1).evaluate({"x1": value})
    assert (x1 + 1).evaluate({"x1": 2, "x2": x2}) == 3
    with pytest.raises(RegistryMismatch):
        x1.evaluate({"x1": VarRegistry(1).var("x1")})


def test_normalize_coprime_integer_positive_lead():
    x1, x2 = V("x1"), V("x2")
    p = Fraction(-2, 3) * x1 * x2 - Fraction(4, 3) * x2
    n = normalize(p)
    assert n == x1 * x2 + 2 * x2
    assert content(n) == 1
    assert normalize(REG.zero()).is_zero()


def test_exact_division():
    x1, x2, t = V("x1"), V("x2"), V("t")
    p = (x1 + t) * (x2 - 2)
    assert div_exact(p, x1 + t) == x2 - 2
    assert try_divide(p, x2) is None
    assert divides(x1 + t, p)
    assert not divides(x1 + 1, p)
    with pytest.raises(ZeroDivisionError):
        div_exact(p, REG.zero())


def test_gcd_known_factorizations():
    x1, x2, t = V("x1"), V("x2"), V("t")
    g = x1 + 2 * x2
    p = g * (x1 - t)
    q = g * (x2 + 3) * (x1 - t + 1)
    got = poly_gcd(p, q)
    assert got == normalize(g)
    # coprime pair
    assert poly_gcd(x1 + 1, x2 + 1) == REG.one()
    # gcd with zero is the (normalized) other argument
    assert poly_gcd(REG.zero(), p) == normalize(p)


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_gcd_divides_both(p, q):
    g = poly_gcd(p, q)
    if p.is_zero() and q.is_zero():
        assert g.is_zero()
        return
    assert divides(g, p)
    assert divides(g, q)
    assert g == normalize(g)


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_gcd_symmetric(p, q):
    assert poly_gcd(p, q) == poly_gcd(q, p)


@given(polys(), polys())
@settings(max_examples=50, deadline=None)
def test_gcd_absorbs_common_factor(p, q):
    g0 = poly_gcd(p, q)
    m = V("x1") + 2
    assert poly_gcd(p * m, q * m) == normalize(g0 * m) or (p.is_zero() and q.is_zero())


def _line_through(direction, start=(3, -5)):
    """The line start + t*direction in (x1, x2)."""
    return {REG.position(name): (z, a) for name, z, a in zip(("x1", "x2"), start, direction)}


def test_line_without_the_top_degree_proves_nothing():
    x1, x2 = V("x1"), V("x2")
    common = x1 + x2
    p = (x1 - x2 + 1) * common
    q = common * (x1 + 2)
    # along a = (1, -1) the common factor is the constant 3 - 5, so the
    # images look coprime; but p_top(a) = q_top(a) = 0, and the line must
    # not claim gcd(p, q) = 1
    line = _line_through((1, -1))
    assert _uni_gcd_degree(_on_line(p, line), _on_line(q, line)) == 0
    assert _line_bound(p, q, line) is None
    assert poly_gcd(p, q) == common
    # a line that keeps the degree of p bounds deg gcd from above
    assert _line_bound(p, q, _line_through((2, 7))) == 1
    assert _line_bound(x1 + 1, x2 + 1, _line_through((2, 7))) == 0


def test_line_image_is_the_substituted_polynomial():
    x1, x2 = V("x1"), V("x2")
    p = 7 * x1 ** 3 * x2 - 1000 * x2 ** 2 + x1 - 12
    line = _line_through((-999, 1000), start=(1000, -1000))
    t = REG.var("lambda")
    image = p.substitute({"x1": 1000 - 999 * t, "x2": -1000 + 1000 * t})
    want = coefficients(image, REG.position("lambda"))
    assert _on_line(p, line) == [want[e].constant_value() for e in range(4, -1, -1)]
    assert _on_line(x1 - x2, _line_through((1, 1), start=(2, 2))) == []


def test_line_degree_alone_does_not_make_a_gcd():
    x1, x2 = V("x1"), V("x2")
    line = _line(x1, x2)
    (z1, a1), (z2, a2) = (line[REG.position(name)] for name in ("x1", "x2"))
    # q = x1 + 1 and p = x2 - c meet the line at the same t, so the line
    # bound is 1, the degree of q; but q does not divide p
    root = Fraction(-(z1 + 1), a1)
    p, q = x2 - (z2 + root * a2), x1 + 1
    assert _line_bound(normalize(p), q, line) == 1
    assert poly_gcd(p, q) == poly_gcd(q, p) == REG.one()


def test_high_degree_pairs_skip_the_line():
    x1, x2 = V("x1"), V("x2")
    p, q = x1 ** 1000 + x2, x2 + 1
    line = _line(p, q)
    # the image of p would hold about 11 million bits
    assert _on_line(p, line) is None and _line_bound(p, q, line) is None
    assert _on_line(x1 ** 200 + x2, line) is not None
    assert poly_gcd(p, q) == REG.one()
    assert poly_gcd(p * q, q * (x1 - 1)) == q


_shared_monomials = st.dictionaries(_names, st.integers(1, 3), max_size=3).map(monomial)


@given(polys().filter(bool), polys().filter(bool), polys().filter(bool), _shared_monomials,
       polys(max_terms=2).filter(bool))
@settings(max_examples=80, deadline=None)
@example(REG.one(), V("x2") + 1, V("x3") - 1, monomial({"x1": 2}), V("x1") * V("x3"))
@example(V("x1") - V("x2") + 1, V("x1") + 2, V("x1") + V("x2"), REG.one(), REG.one())
def test_gcd_equals_the_prs(common, p, q, mono, extra):
    """poly_gcd takes the monomial split, the trial division and the line
    before the PRS, and must give the gcd of the plain PRS: on pairs that
    share a monomial factor and a non-monomial one, with rational
    coefficients."""
    p, q = mono * common * p, mono * extra * common * q
    assert poly_gcd(p, q) == prs_gcd(p, q)
    assert poly_gcd(q, p) == prs_gcd(q, p)


@pytest.mark.parametrize("case", sorted(moved_gcd_cases()))
def test_gcd_past_the_exits_equals_the_prs(case):
    """Pairs that no exit answers: the PRS meets a variable in one operand
    only, a gcd held in the contents, and a line bound below the smaller
    operand's degree."""
    p, q, g = moved_gcd_cases()[case]
    assert poly_gcd(p, q) == poly_gcd(q, p) == prs_gcd(p, q) == normalize(g)
    assert not divides(q, p) and not divides(p, q)


def test_line_bound_below_the_smaller_degree():
    p, q, _ = moved_gcd_cases()["bound-below-degree"]
    assert _line_bound(p, q, _line(p, q)) == 1 < q.total_degree()


def test_gcd_splits_off_monomials_and_takes_the_smaller_operand():
    x1, x2, x3, t = V("x1"), V("x2"), V("x3"), V("t")
    f = x2 - Fraction(1, 2) * x3 + t
    assert poly_gcd(x1 ** 2 * x2 * f * (x3 + 5), x1 * x3 ** 4 * f) == x1 * normalize(f)
    assert poly_gcd(x1 ** 3 * x2, x1 * x2 ** 2 * x3) == x1 * x2
    assert poly_gcd(x1 * f, x2 + 1) == REG.one()
    # the line draws its point from a fixed seed on every call
    assert _line(f, x1) == _line(x1 * f, x1 + 1) != _line(f, x2)


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms_via_evaluation(p, q, r):
    rng = random.Random(13)
    assert polys_equal_at_random(p * (q + r), p * q + p * r, rng)
    assert polys_equal_at_random((p + q) * r, p * r + q * r, rng)
    assert polys_equal_at_random(p * q, q * p, rng)


@given(polys())
@settings(max_examples=40, deadline=None)
def test_evaluation_is_ring_hom(p):
    rng = random.Random(29)
    point = random_point(REG, rng)
    q = p * p - 3 * p + 1
    want = p.evaluate(point) ** 2 - 3 * p.evaluate(point) + 1
    assert q.evaluate(point) == want


def test_foreign_registry_rejected():
    other = VarRegistry(3, params=("t",))
    assert other == REG  # same shape, equal
    different = VarRegistry(4)
    with pytest.raises(Exception):
        V("x1") + different.var("x1")
    with pytest.raises(RegistryMismatch):
        V("x1") - different.var("x1")
    with pytest.raises(RegistryMismatch):
        different.var("x1") - V("x1")
    # an equal registry that is a different object still combines
    assert V("x1") - other.var("x1") == REG.zero()
    assert other.var("x2") * V("x1") == V("x1") * V("x2")


@given(polys(), polys(), _coeffs, st.integers(-4, 4))
@settings(max_examples=80, deadline=None)
def test_ring_operations_store_no_zero_coefficient(p, q, frac, k):
    rng = random.Random(17)
    for value in (p + q, p - q, p * q, -p, p * 0, p - p, p * frac, frac * p,
                  p + k, k + p, p - k, k - p, p * k, k * p, frac - p, frac + p):
        assert all(c != 0 for _, c in value.terms()), value
    assert (p * 0).is_zero() and (p - p).is_zero()
    assert p - q == p + (-q)
    assert k - p == -(p - k) and frac - p == -(p - frac)
    assert polys_equal_at_random(k * p + frac, p * k + REG.constant(frac), rng)


def test_integer_input_stays_in_integers():
    x1, x2, t = V("x1"), V("x2"), V("t")
    assert type(REG.constant(5).constant_value()) is int
    assert type(REG.zero().constant_value()) is int
    assert holds_ints(x1) and holds_ints(REG.one())
    p = (x1 + 2 * x2 - 3) * (x1 - t)
    q = (x1 - t) * (4 * x2 + 6)
    for value in (p, q, p + q, p * q, p - 7, (x1 + t) ** 3):
        assert holds_ints(value), value
    assert holds_ints(p.substitute({"x1": x2 + 2 * t, "t": 3}))
    value = p.evaluate({"x1": 2, "x2": -1, "t": 5})
    assert type(value) is int and value == 9
    assert type(p.evaluate({"x1": 2, "x2": -1, "t": Fraction(1, 2)})) is Fraction
    assert holds_ints(div_exact(p * q, x1 - t))
    assert holds_ints(normalize(Fraction(-2, 3) * x1 * x2 - Fraction(4, 3) * x2))
    assert normalize(-4 * x1 + 6) == 2 * x1 - 3
    assert type(content(6 * x1 - 4)) is int and content(6 * x1 - 4) == 2
    assert content(Fraction(3, 2) * x1 + 3) == Fraction(3, 2)
    g = poly_gcd(p, q)
    assert g == x1 - t and holds_ints(g)


def test_try_divide_leaves_integers_only_when_inexact():
    x1, x2 = V("x1"), V("x2")
    half = try_divide(x1, 2 * x1)
    assert half == REG.constant(Fraction(1, 2))
    assert half.constant_value() == Fraction(1, 2)
    q = try_divide(3 * x1 * x2 + x2, 2 * x2)
    assert q == Fraction(3, 2) * x1 + Fraction(1, 2)
    assert holds_ints(try_divide(6 * x1 * x2 + 4 * x2, 2 * x2))


def _dense_key(mono):
    """Graded lex built naively: total degree, then the dense exponent tuple."""
    dense = [0] * len(REG.names())
    for pos, e in REG.exponents(mono):
        dense[pos] = e
    return sum(dense), tuple(dense)


@given(_wide_polys)
@settings(max_examples=80, deadline=None)
def test_term_order_is_graded_lex(p):
    monos = [m for m, _ in p.terms()]
    want = sorted(monos, key=_dense_key, reverse=True)
    assert [m for m, _ in p.sorted_terms()] == want
    if monos:
        assert p.leading()[0] == want[0]
        assert p.total_degree() == _dense_key(want[0])[0]


@given(monomials())
@settings(max_examples=60, deadline=None)
def test_exponents_read_back_each_variable(exps):
    [(mono, coeff)] = monomial(exps).terms()
    assert coeff == 1
    assert REG.exponents(mono) == sorted((REG.position(n), e) for n, e in exps.items())
    shown = sorted(exps.items(), key=lambda ne: REG.display_key(REG.position(ne[0])))
    want = "*".join(n if e == 1 else f"{n}^{e}" for n, e in shown) or "1"
    assert str(monomial(exps)) == want


@given(monomials(), monomials())
@example({"x1": MAX_EXPONENT}, {"x1": MAX_EXPONENT - 1})
@example({"x1": MAX_EXPONENT - 1}, {"x1": MAX_EXPONENT})
@example({"x1": MAX_EXPONENT - 1, "t": 1}, {"x1": MAX_EXPONENT - 1})
@example({"a1": 1}, {"x1": MAX_EXPONENT})
@settings(max_examples=150, deadline=None)
def test_monomial_division_compares_field_by_field(d, m):
    expected = all(m.get(name, 0) >= e for name, e in d.items())
    assert divides(monomial(d), monomial(m)) == expected
    q = try_divide(monomial(m), monomial(d))
    if expected:
        rest = {name: e - d.get(name, 0) for name, e in m.items() if e != d.get(name, 0)}
        assert q == monomial(rest)
    else:
        assert q is None


@given(_wide_polys)
@settings(max_examples=60, deadline=None)
def test_coefficients_reassemble_the_polynomial(p):
    for name in REG.names():
        pos = REG.position(name)
        view = coefficients(p, pos)
        assert sum((c * V(name) ** e for e, c in view.items()), REG.zero()) == p
        for c in view.values():
            assert c and all(pos not in dict(REG.exponents(m)) for m, _ in c.terms())


@given(st.integers(0, MAX_EXPONENT), st.integers(0, MAX_EXPONENT))
@example(MAX_EXPONENT, 0)
@example(MAX_EXPONENT - 1, 1)
@example(MAX_EXPONENT, 1)
@example(MAX_EXPONENT // 2, MAX_EXPONENT // 2 + 2)
@settings(max_examples=40, deadline=None)
def test_product_past_the_degree_limit_raises(d1, d2):
    left, right = V("x1") ** d1, V("x2") ** d2 + 1
    if d1 + d2 > MAX_EXPONENT:
        with pytest.raises(DegreeOverflow):
            left * right
    else:
        product = left * right
        assert product.total_degree() == d1 + d2
        assert product == right * left


def test_growth_past_the_limit_raises_through_power_and_substitute():
    x1, x2 = V("x1"), V("x2")
    assert (x1 ** MAX_EXPONENT).total_degree() == MAX_EXPONENT
    with pytest.raises(DegreeOverflow):
        x1 ** (MAX_EXPONENT + 1)
    with pytest.raises(DegreeOverflow):
        (x1 ** MAX_EXPONENT).substitute({"x1": x1 * x2})
    assert (x1 ** MAX_EXPONENT).substitute({"x1": x2}) == x2 ** MAX_EXPONENT


# -- sums of products ----------------------------------------------------------


def _seeded_poly(rng, terms=4):
    """A seeded polynomial over REG, the parameter t included: up to
    ``terms`` terms of degree at most 3 with small Fraction coefficients."""
    p = REG.zero()
    for _ in range(rng.randint(0, terms)):
        term = REG.constant(Fraction(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 3)))
        for _ in range(rng.randint(0, 3)):
            term = term * V(rng.choice(["x1", "x2", "x3", "a1", "t"]))
        p = p + term
    return p


def _ring_sum(triples):
    total = REG.zero()
    for a, b, negative in triples:
        total = total - a * b if negative else total + a * b
    return total


def test_sum_of_products_equals_the_ring_sum():
    """Seeded triples of both signs, some of them followed by the same
    products with the other sign, so that the sum cancels completely: the
    result equals the sum built with + and *, stores no zero coefficient,
    and a vanishing sum is REG.zero() itself."""
    rng = random.Random(3203)
    cancelled = 0
    for trial in range(300):
        triples = [
            (_seeded_poly(rng), _seeded_poly(rng), rng.random() < 0.5)
            for _ in range(rng.randint(0, 6))
        ]
        if trial % 3 == 0:
            triples += [(b, a, not negative) for a, b, negative in reversed(triples)]
        got = sum_of_products(REG, triples)
        assert got == _ring_sum(triples)
        assert all(c != 0 for _, c in got.terms())
        if not got:
            cancelled += 1
            assert got is REG.zero()
    assert cancelled > 100


def test_sum_of_products_takes_an_equal_registry_and_refuses_a_foreign_one():
    other = VarRegistry(3, params=("t",))
    x1, x2 = V("x1"), V("x2")
    assert sum_of_products(REG, [(other.var("x1"), x2, True)]) == -(x1 * x2)
    assert sum_of_products(REG, []) is REG.zero()
    foreign = VarRegistry(4).var("x1")
    for triple in ((foreign, x1, False), (x1, foreign, True), (foreign, REG.zero(), False)):
        with pytest.raises(RegistryMismatch):
            sum_of_products(REG, [(x1, x2, False), triple])


def test_sum_of_products_checks_the_degree_of_each_product():
    """A product past MAX_EXPONENT raises, as ``*`` does, even when the
    sum would cancel it; one at MAX_EXPONENT is built."""
    top, x2 = V("x1") ** MAX_EXPONENT, V("x2")
    for triples in (
        [(top, x2 + 1, False)],
        [(x2, top, True)],
        [(top, x2, False), (top, x2, True)],
    ):
        with pytest.raises(DegreeOverflow, match=f"total degree {MAX_EXPONENT + 1} exceeds"):
            sum_of_products(REG, triples)
    low = V("x1") ** (MAX_EXPONENT - 1)
    assert sum_of_products(REG, [(low, x2 + 1, True)]) == -(low * x2) - low


# -- refused inputs and edge values ----------------------------------------------


def test_registry_refuses_a_negative_dimension_and_a_repeated_parameter():
    with pytest.raises(ValueError, match="non-negative"):
        VarRegistry(-1)
    with pytest.raises(ValueError, match="duplicate parameter name 'a'"):
        VarRegistry(2, ["a", "b", "a"])


def test_parameter_refuses_a_coordinate_name():
    with pytest.raises(ValueError, match="'x1' is not a parameter"):
        REG.parameter("x1")


def test_constant_value_of_a_nonconstant_polynomial_raises():
    with pytest.raises(ValueError, match="is not constant"):
        (V("x1") + 1).constant_value()


def test_leading_term_of_zero_raises():
    with pytest.raises(ValueError, match="no leading term"):
        REG.zero().leading()


def test_div_exact_by_a_nondivisor_raises():
    with pytest.raises(ValueError, match="is not divisible by"):
        div_exact(V("x1") ** 2 + 1, V("x1") + 1)


def test_zero_divides_only_zero():
    assert not divides(REG.zero(), V("x1"))
    assert not divides(REG.zero(), REG.one())
    assert divides(REG.zero(), REG.zero())


def test_adding_a_string_raises_type_error():
    p = V("x1") + 1
    with pytest.raises(TypeError):
        p + "a"
    with pytest.raises(TypeError):
        "a" + p
    with pytest.raises(TypeError):
        p - "a"


@pytest.mark.parametrize("value", ["3/4", 0.75], ids=["str", "float"])
def test_evaluate_reads_other_values_through_fraction(value):
    p = V("x1") ** 2 - 2 * V("t")
    assert p.evaluate({"x1": value, "t": 1}) == Fraction(9, 16) - 2
    assert type(p.evaluate({"x1": value, "t": 1})) is Fraction


def test_line_gcd_swaps_when_the_first_image_is_shorter(monkeypatch):
    # on this line the top part x1^2 - x2^2 of p vanishes and z0 has
    # x1 = x2, so p's image is the constant 1, while q keeps degree 2
    p = V("x1") ** 2 - V("x2") ** 2 + 1
    q = V("x1") ** 2 + V("x3")
    line = {REG.position("x1"): (5, 1), REG.position("x2"): (5, 1), REG.position("x3"): (2, 3)}
    monkeypatch.setattr(poly, "_line", lambda f, g: line)
    assert _on_line(p, line) == [1]
    assert _on_line(q, line) == [1, 13, 27]
    assert _line_bound(p, q, line) == 0
    assert poly_gcd(p, q) == REG.one()
