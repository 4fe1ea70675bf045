"""Arithmetic mod one prime: the evaluator and the point move onto a factor."""

import random

from liepencil import modp
from liepencil.model import build_ax
from liepencil.modp import PRIME
from liepencil.poly import VarRegistry

from helpers import borel_algebra, heisenberg_algebra


def _random_poly(reg, names, rng, terms=6, top=4):
    """A seeded integer polynomial in ``names``: exponents up to ``top``,
    coefficients of both signs up to 3*PRIME."""
    p = reg.zero()
    for _ in range(terms):
        term = reg.constant(rng.choice([-1, 1]) * rng.randint(1, 3 * PRIME))
        for name in names:
            term = term * reg.var(name) ** rng.randint(0, top)
        p = p + term
    return p


def _exact(p, point):
    """p(point) mod PRIME by exact evaluation over Z."""
    reg = p.registry
    return p.evaluate({name: point[reg.position(name)] for name in reg.names()}) % PRIME


def _points(reg, rng):
    """The fixed point, and seeded points with small, large and zero values."""
    size = len(reg.names())
    return [modp.fixed_point(reg)] + [
        [rng.choice([0, rng.randint(1, 5), rng.randrange(PRIME)]) for _ in range(size)]
        for _ in range(4)
    ]


def test_evaluator_matches_exact_evaluation_mod_the_prime():
    """Coordinates and parameters, exponents above 1 and negative
    coefficients: the evaluator agrees with Polynomial.evaluate mod PRIME,
    also on a second call, which reads its memo of monomial values."""
    rng = random.Random(311)
    reg = VarRegistry(3, ("s", "t"))
    names = ["x1", "x2", "x3", "s", "t"]
    polys = [_random_poly(reg, rng.sample(names, rng.randint(1, 4)), rng) for _ in range(30)]
    for point in _points(reg, rng):
        value = modp.evaluator(reg, point)
        want = [_exact(p, point) for p in polys]
        assert [value(p) for p in polys] == want
        assert [value(p) for p in polys] == want


def test_on_factor_moves_the_point_onto_the_factor():
    """f = c*v + e: the moved point differs from the input only at v's
    position, and f vanishes there mod PRIME; e = 0 puts v at 0."""
    rng = random.Random(313)
    reg = VarRegistry(3, ("s",))
    moves = 0
    for trial in range(40):
        v = rng.choice(["x1", "x2", "x3"])
        rest = [n for n in ["x1", "x2", "x3", "s"] if n != v]
        c = _random_poly(reg, rng.sample(rest, 2), rng, terms=3)
        e = reg.zero() if trial % 8 == 0 else _random_poly(reg, rng.sample(rest, 2), rng, terms=3)
        f = c * reg.var(v) + e
        pos = reg.position(v)
        for point in _points(reg, rng):
            moved = modp.on_factor(f, pos, point)
            if _exact(c, point) == 0:
                assert moved is None
                continue
            moves += 1
            assert [k for k in range(len(point)) if moved[k] != point[k]] in ([], [pos])
            assert _exact(f, moved) == 0, (trial, str(f))
            if not e:
                assert moved[pos] == 0
    assert moves > 100


def test_on_factor_gives_none_where_the_coefficient_vanishes():
    """c vanishes at the point, exactly or only mod PRIME: no move."""
    reg = VarRegistry(3, ("s",))
    point = modp.fixed_point(reg)
    x1, x2, s = reg.var("x1"), reg.var("x2"), reg.var("s")
    at = point[reg.position("x1")]
    for c in [x1 - at, (x1 - at) * s + PRIME * x1 ** 2, reg.constant(PRIME)]:
        assert modp.on_factor(c * x2 + s ** 2 + 1, reg.position("x2"), point) is None


def test_fixed_point_has_one_nonzero_value_per_position():
    """Registries of one size share their seeded point, and no value is 0
    mod PRIME, so a monomial never vanishes there."""
    small, other = VarRegistry(3, ("s", "t")), VarRegistry(4)
    assert len(small.names()) == len(other.names())
    assert modp.fixed_point(small) == modp.fixed_point(other)
    point = modp.fixed_point(VarRegistry(6))
    assert len(point) == 13 and all(0 < v < PRIME for v in point)


def test_independent_rows_inverts_a_pivot_only_to_update_rows(monkeypatch):
    """On h_{2k+1} no pivot pair leaves a row to update, so the
    elimination takes no modular inverse, and it still returns every row
    but the central one.  On b6 it does take inverses, which shows that
    the count sees them."""
    inverses = []

    def counting_pow(base, exp, mod=None):
        if exp == -1:
            inverses.append(base)
        return pow(base, exp, mod)

    monkeypatch.setattr(modp, "pow", counting_pow, raising=False)
    for k in range(1, 16):
        matrix = build_ax(heisenberg_algebra(k))
        rows = modp.independent_rows(matrix, modp.fixed_point(matrix.registry))
        assert rows == tuple(range(1, 2 * k + 1))
    assert inverses == []
    matrix = build_ax(borel_algebra(6))
    rows = modp.independent_rows(matrix, modp.fixed_point(matrix.registry))
    assert len(rows) == 18 and inverses
