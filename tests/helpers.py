"""Shared oracles and generators for the test suite.

Everything in here is deliberately naive.  Determinants are Laplace
expansions, Pfaffians are sums over perfect matchings with explicitly
counted inversion signs, and polynomial identities are checked by
evaluating both sides at random rational points.  Slow but obviously
correct at the sizes the tests use, which is the point: the fast code
needs something honest to disagree with.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from liepencil import ratmat, unipoly
from liepencil.model import LieAlgebra, SkewPolyMatrix
from liepencil.oracle import InfiniteJordanBlock, JordanBlock, KroneckerBlock, assemble
from liepencil.poly import Polynomial, VarRegistry, coefficients, div_exact, normalize


def holds_ints(p: Polynomial) -> bool:
    """Every coefficient of p is an int (not a Fraction)."""
    return all(type(c) is int for _, c in p.terms())


def laplace_det(rows):
    """Determinant by first-row Laplace expansion.

    Works for entries that support +, -, * (Fractions or Polynomials).
    """
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        entry = rows[0][j]
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        term = entry * laplace_det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def bareiss_det(rows):
    """Fraction-free determinant for matrices of Polynomial entries.

    A different algorithm from both the Laplace oracle and the recursive
    Pfaffian expansion under test, so the three routes are independent.
    """
    work = [list(r) for r in rows]
    n = len(work)
    sign = 1
    prev = None
    for k in range(n):
        piv = next((i for i in range(k, n) if work[i][k]), None)
        if piv is None:
            return rows[0][0] * 0
        if piv != k:
            work[k], work[piv] = work[piv], work[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = work[k][k] * work[i][j] - work[i][k] * work[k][j]
                work[i][j] = num if prev is None else div_exact(num, prev)
        prev = work[k][k]
    d = work[n - 1][n - 1]
    return d if sign > 0 else -d


def _matchings(indices):
    """Perfect matchings of an even index list, first element matched first."""
    if not indices:
        yield []
        return
    head = indices[0]
    for i in range(1, len(indices)):
        rest = indices[1:i] + indices[i + 1:]
        for tail in _matchings(rest):
            yield [(head, indices[i])] + tail


def _matching_sign(pairs):
    """Sign of the permutation (a1 b1 a2 b2 ...) of the sorted indices."""
    flat = [v for pair in pairs for v in pair]
    inversions = 0
    for i in range(len(flat)):
        for j in range(i + 1, len(flat)):
            if flat[i] > flat[j]:
                inversions += 1
    return -1 if inversions % 2 else 1


def pfaffian_matchings(rows):
    """Pfaffian as the signed sum over perfect matchings.

    ``rows`` is a full square array (0-indexed); odd sizes give zero.
    Independent of any expansion-order recursion.
    """
    n = len(rows)
    if n % 2:
        return Fraction(0)
    if n == 0:
        return Fraction(1)
    total = None
    for pairs in _matchings(list(range(n))):
        term = _matching_sign(pairs)
        for a, b in pairs:
            term = rows[a][b] * term
        total = term if total is None else total + term
    return total if total is not None else Fraction(0)


def random_fraction(rng: random.Random, num: int = 9, den: int = 5) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def random_point(reg: VarRegistry, rng: random.Random) -> dict:
    """One rational value for every registered variable."""
    return {name: random_fraction(rng) for name in reg.names()}


def polys_equal_at_random(p: Polynomial, q: Polynomial, rng: random.Random,
                          rounds: int = 4) -> bool:
    for _ in range(rounds):
        point = random_point(p.registry, rng)
        if p.evaluate(point) != q.evaluate(point):
            return False
    return True


def prs_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Normalized gcd by the recursive primitive PRS alone.

    The package's gcd before it took exits: no monomial split, no trial
    division, no line, and the contents' gcds taken by the PRS itself, so
    it checks ``poly_gcd`` rather than leaning on it.
    """
    if p.is_zero():
        return normalize(q)
    if q.is_zero():
        return normalize(p)
    return normalize(_prs(p, q))


def _variables(p: Polynomial) -> set[int]:
    return {pos for mono, _ in p.terms() for pos, _ in p.registry.exponents(mono)}


def _deg_in(p: Polynomial, pos: int) -> int:
    return max(coefficients(p, pos), default=0)


def _content_in(p: Polynomial, pos: int) -> Polynomial:
    cs = list(coefficients(p, pos).values())
    g = cs[0]
    for c in cs[1:]:
        if g.is_constant():
            break
        g = _prs(g, c)
    if g.is_constant():
        return p.registry.one()
    return g


def _primitive_in(p: Polynomial, pos: int) -> Polynomial:
    return div_exact(p, _content_in(p, pos))


def _prem(f: Polynomial, g: Polynomial, pos: int) -> Polynomial:
    """Pseudo remainder of f by g in one variable, without the power of lc(g)."""
    reg = f.registry
    view = coefficients(g, pos)
    n = max(view)
    lc_g = view[n]
    v = reg.var(reg.name_at(pos))
    r = f
    while not r.is_zero():
        view = coefficients(r, pos)
        d = max(view)
        if d < n:
            break
        r = lc_g * r - view[d] * v ** (d - n) * g
    return r


def _prs(p: Polynomial, q: Polynomial) -> Polynomial:
    """gcd of two nonzero polynomials, up to a rational unit."""
    if p.is_constant() or q.is_constant():
        return p.registry.one()
    variables = _variables(p)
    # a variable in one operand only is absent from the gcd, which therefore
    # divides that operand's content in it: the smaller problem
    one_sided = variables ^ _variables(q)
    if one_sided:
        pos = min(one_sided)
        if _deg_in(p, pos):
            p = _content_in(p, pos)
        else:
            q = _content_in(q, pos)
        return _prs(p, q)
    # past that branch both operands hold the same variables
    pos = min(variables)
    cont_p = _content_in(p, pos)
    cont_q = _content_in(q, pos)
    a = div_exact(p, cont_p)
    b = div_exact(q, cont_q)
    if _deg_in(a, pos) < _deg_in(b, pos):
        a, b = b, a
    while not b.is_zero():
        r = _prem(a, b, pos)
        a = b
        b = p.registry.zero() if r.is_zero() else _primitive_in(r, pos)
    g = _primitive_in(a, pos) if _deg_in(a, pos) > 0 else p.registry.one()
    cont = _prs(cont_p, cont_q)
    return cont * g


def moved_gcd_cases() -> dict[str, tuple[Polynomial, Polynomial, Polynomial]]:
    """Pairs (p, q) with their normalized gcd, one for each path a gcd can
    take past the exits of ``poly_gcd``, on a registry of dimension 9."""
    reg = VarRegistry(9)
    x = {k: reg.coordinate(k) for k in range(1, 10)}
    s = x[1] + x[2]
    # the ladder pair of a benchmark pass: monomial split, then a gcd held
    # wholly in the contents with respect to x3
    h = x[4] * x[9] + x[5] * x[8]
    ladder = (
        x[4] * x[5] * h * (x[3] * x[8] + x[4] * x[7]),
        x[4] * x[5] * h * (x[3] * x[9] - x[5] * x[7]),
        x[4] * x[5] * h,
    )
    return {
        # x3 occurs in p alone
        "one-sided-variable": (s * (x[3] + 2), s * (x[1] - 1), s),
        "ladder": ladder,
        # the line bounds the gcd degree by 1, below the degree 2 of q
        "bound-below-degree": (s * (x[1] - 1) * (x[2] + 3), s * (x[2] - 2), s),
    }


def random_unimodular(n: int, rng: random.Random, steps: int = 10, cap: int = 60):
    """Integer matrix with determinant +-1, entries bounded by ``cap``.

    Built from elementary operations on the identity: row additions with
    coefficients in [-2, 2], swaps, and sign flips.  An operation that
    would push any entry past the cap is skipped.
    """
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.choice((-2, -1, 1, 2))
            candidate = [m[i][k] + c * m[j][k] for k in range(n)]
            if max(abs(v) for v in candidate) <= cap:
                m[i] = candidate
        elif kind == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        elif kind == 2:
            m[i] = [-v for v in m[i]]
    return m


def random_blocks(rng: random.Random) -> list:
    """One to five canonical blocks: Jordan blocks with eigenvalues in -6..6
    over 1..4 (so t = 0..6 can be eigenvalues), infinite Jordan blocks and
    Kronecker blocks of index 0..3."""
    blocks = []
    for _ in range(rng.randint(1, 5)):
        kind = rng.randrange(3)
        if kind == 0:
            lam = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            blocks.append(JordanBlock(lam, rng.randint(1, 3)))
        elif kind == 1:
            blocks.append(InfiniteJordanBlock(rng.randint(1, 3)))
        else:
            blocks.append(KroneckerBlock(rng.randint(0, 3)))
    return blocks


def fixed_count_samples(pencil) -> tuple[int, list[list[list[int]]]]:
    """The rank r of A + t*B and its kernels at the first n//2 + 1 points of rank r.

    The numeric oracle's walk before it stopped at a stall, kept as the
    reference for ``oracle._samples``.  r is the largest rank over
    t = 0..n//2: a nonzero principal Pfaffian of size R has degree at most
    R/2 <= n//2 in t and cannot vanish at all n//2 + 1 of those points.
    The same bound leaves at most n//2 points below rank r, so the search
    for n//2 + 1 points of rank r ends by t = n.  A point of full rank ends
    the walk at once.
    """
    n = pencil.size
    need = n // 2 + 1
    best = -1
    kernels: list[list[list[int]]] = []
    t = 0
    while t < need or len(kernels) < need:
        kernel = ratmat.kernel(pencil.at(t))
        rank_t = n - len(kernel)
        if rank_t == n:
            return n, []
        if t < need and rank_t > best:
            best, kernels = rank_t, []
        if rank_t == best:
            kernels.append(kernel)
        t += 1
    return best, kernels


def eager_reduce(w: list[int], pivot_row: list[int], col: int, d: int) -> list[int]:
    """One eager fraction-free (Bareiss) step: (p*w - w[col]*pivot_row) / d.

    p is ``pivot_row[col]`` and d the pivot before it; a row with w[col] = 0
    is rescaled to p*w/d.  ``ratmat`` defers that rescaling; this step, and
    :class:`EagerSpan` built on it, are the reference its echelon rows must
    equal.  :func:`eager_eliminate` builds on it too, for a determinant on
    the test side.
    """
    p = pivot_row[col]
    f = w[col]
    if f:
        return [(p * a - f * b) // d for a, b in zip(w, pivot_row)]
    if p != d:
        return [p * a // d for a in w]
    return w


def eager_eliminate(work: list[list[int]]) -> tuple[list[int], int, int]:
    """Eager fraction-free elimination of an integer matrix, in place.

    Returns ``(pivot_cols, d, sign)``.  Pivots are taken column by column,
    from the first row at or below the current one with a nonzero entry,
    and every row below a pivot goes through :func:`eager_reduce`.  d is
    the last pivot and ``sign`` the parity of the row swaps, so a square
    matrix of full rank has determinant sign * d.
    """
    rows = len(work)
    cols = len(work[0]) if rows else 0
    pivots: list[int] = []
    d = 1
    sign = 1
    for col in range(cols):
        row = len(pivots)
        if row == rows:
            break
        pivot = next((i for i in range(row, rows) if work[i][col]), None)
        if pivot is None:
            continue
        if pivot != row:
            work[row], work[pivot] = work[pivot], work[row]
            sign = -sign
        for i in range(row + 1, rows):
            work[i] = eager_reduce(work[i], work[row], col, d)
        d = work[row][col]
        pivots.append(col)
    return pivots, d, sign


class EagerSpan:
    """``ratmat.SpanBuilder`` on integer vectors, each reduced by
    :func:`eager_reduce` against every accepted row."""

    def __init__(self):
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def _residual(self, vec: list[int]) -> list[int]:
        res = list(vec)
        d = 1
        for row, c in zip(self.rows, self.pivots):
            res = eager_reduce(res, row, c, d)
            d = row[c]
        return res

    def add(self, vec: list[int]) -> bool:
        res = self._residual(vec)
        col = next((j for j, x in enumerate(res) if x), None)
        if col is None:
            return False
        self.rows.append(res)
        self.pivots.append(col)
        return True

    def contains(self, vec: list[int]) -> bool:
        return not any(self._residual(vec))


def uni_add(p, q):
    """p + q in Z[t]."""
    n = max(len(p), len(q))
    out = [0] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return unipoly.trim(out)


def uni_sub(p, q):
    return uni_add(p, unipoly.neg(q))


def uni_mul(p, q):
    """p * q by the schoolbook product."""
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            if b:
                out[i + j] += a * b
    return unipoly.trim(out)


def uni_div_exact(p, q):
    """p / q, for q dividing p in Z[t]; ValueError otherwise."""
    res = unipoly._divide(p, q)
    if res is None or res[1]:
        raise ValueError("univariate division was not exact in Z[t]")
    return res[0]


def reference_pencil_pfaffian(a_rows, b_rows):
    """Pf(A + t B) by fraction-free elimination with polynomial entries.

    ``unipoly.pencil_pfaffian`` before it became one integer Pfaffian at
    t = 2^k.  Each step takes the shortest nonzero entry (i, j), i < j, of
    the remaining indices as the pivot pair, with the sign
    (-1)^(pos_i + pos_j - 1) of moving it to the front, and every other
    entry (p, q), p < q, becomes (w_ij w_pq - w_ip w_jq + w_iq w_jp) / prev,
    an exact division in Z[t].  Same refusals and results as the packed
    version: ValueError for input that is not skew, [] for odd or singular.
    """
    n = len(a_rows)
    if (
        len(b_rows) != n
        or any(len(row) != n for row in (*a_rows, *b_rows))
        or any(
            m[i][j] != -m[j][i] for m in (a_rows, b_rows) for i in range(n) for j in range(i, n)
        )
    ):
        raise ValueError("a Pfaffian needs two skew-symmetric matrices of one size")
    if n % 2:
        return []
    w = [
        [unipoly.trim([a_rows[i][j], b_rows[i][j]]) if i < j else [] for j in range(n)]
        for i in range(n)
    ]
    live = list(range(n))
    prev = [1]
    sign = 1
    while live:
        best, shortest = None, 0
        for x, i in enumerate(live):
            for y in range(x + 1, len(live)):
                size = len(w[i][live[y]])
                if size and (best is None or size < shortest):
                    best, shortest = (x, y), size
        if best is None:
            return []
        x, y = best
        i, j = live[x], live[y]
        if (x + y - 1) % 2:
            sign = -sign
        rest = live[:x] + live[x + 1:y] + live[y + 1:]
        pivot = w[i][j]
        row_i = [w[i][p] if i < p else unipoly.neg(w[p][i]) for p in rest]
        row_j = [w[j][p] if j < p else unipoly.neg(w[p][j]) for p in rest]
        for x, p in enumerate(rest):
            for y in range(x + 1, len(rest)):
                num = uni_add(
                    uni_sub(uni_mul(pivot, w[p][rest[y]]), uni_mul(row_i[x], row_j[y])),
                    uni_mul(row_i[y], row_j[x]),
                )
                w[p][rest[y]] = uni_div_exact(num, prev) if num else []
        prev = pivot
        live = rest
    return unipoly.neg(prev) if sign < 0 else prev


def horner(p, x) -> Fraction:
    """p(x) in Q by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def divmod_poly(p, q):
    """Univariate long division over Q: (quotient, remainder) with
    deg(remainder) < deg(q).  A coefficient stays an int where lc(q)
    divides it exactly, and becomes a Fraction otherwise."""
    if not q:
        raise ZeroDivisionError("univariate division by zero")
    r = list(p)
    quot = [0] * max(len(p) - len(q) + 1, 0)
    dq = len(q) - 1
    lc = q[-1]
    while len(r) - 1 >= dq and any(r):
        while r and not r[-1]:
            r.pop()
        if len(r) - 1 < dq:
            break
        shift = len(r) - 1 - dq
        f, rem = divmod(r[-1], lc)
        if rem:
            f = Fraction(r[-1]) / lc
        quot[shift] = f
        for i, c in enumerate(q):
            r[shift + i] -= f * c
    return unipoly.trim(quot), unipoly.trim(r)


def euclid_gcd(p, q):
    """``unipoly.gcd_poly`` by Euclid's algorithm over Q."""
    a, b = unipoly.trim(p), unipoly.trim(q)
    while b:
        a, b = b, divmod_poly(a, b)[1]
    return unipoly.primitive(a)


def reference_rational_roots(p):
    """``unipoly.rational_roots`` with the candidates as one sorted set of
    Fractions, each tested by Horner's rule and divided out over Q while
    p(r) = 0."""
    p = unipoly.primitive(p)
    roots = []
    mult0 = 0
    while p and not p[0]:
        p = p[1:]
        mult0 += 1
    if mult0:
        roots.append((Fraction(0), mult0))
    if unipoly.deg(p) == 0:
        return roots, p, True
    nums = unipoly._divisors(p[0])
    dens = unipoly._divisors(p[-1])
    if nums is None or dens is None or 2 * len(nums) * len(dens) > math.isqrt(unipoly._FACTOR_BOUND):
        return roots, p, False
    candidates = sorted(
        {Fraction(s * n, d) for n in nums for d in dens for s in (1, -1)},
        key=lambda f: (abs(f), f < 0),
    )
    for cand in candidates:
        if unipoly.deg(p) == 0:
            break
        mult = 0
        while horner(p, cand) == 0:
            p, _ = divmod_poly(p, [-cand.numerator, cand.denominator])
            mult += 1
        if mult:
            roots.append((cand, mult))
    return roots, p, True


def reference_ax(alg: LieAlgebra) -> SkewPolyMatrix:
    """A_x by its definition in ring arithmetic: entry (i, j) is the sum of
    c_ij^k * x_k over every k, built with Polynomial ``+`` and ``*``."""
    reg = alg.registry
    upper = {}
    for i, j in itertools.combinations(range(1, alg.dim + 1), 2):
        entry = reg.zero()
        for k in range(1, alg.dim + 1):
            entry = entry + alg.structure_constant(i, j, k) * reg.coordinate(k)
        if entry:
            upper[(i, j)] = entry
    return SkewPolyMatrix(alg.dim, reg, upper)


def random_skew_linear(reg: VarRegistry, size: int, rng: random.Random,
                       max_vars: int = 3, coeff: int = 5) -> SkewPolyMatrix:
    """Random skew matrix of linear forms in the coordinates of ``reg``."""
    names = [f"x{k}" for k in range(1, reg.dim + 1)]
    upper = {}
    for i in range(1, size + 1):
        for j in range(i + 1, size + 1):
            entry = reg.zero()
            for name in rng.sample(names, min(max_vars, len(names))):
                c = rng.randint(-coeff, coeff)
                if c:
                    entry = entry + reg.var(name) * c
            if entry:
                upper[(i, j)] = entry
    return SkewPolyMatrix(size, reg, upper)


def algebra_from_table(dim, table, name=""):
    """Build a LieAlgebra from {(i, j): {k: rational}} with i < j.

    Coefficients keep their type, so an int table gives an integer algebra.
    """
    reg = VarRegistry(dim)
    brackets = {
        pair: {k: reg.constant(c) for k, c in comps.items()}
        for pair, comps in table.items()
    }
    return LieAlgebra(dim, reg, brackets=brackets, name=name)


def _matrix_unit_algebra(n, keep, name):
    """Span of the n x n matrix units E_ab with keep(a, b), ordered (1,1),
    (1,2), ..., (n,n); the kept units must be closed under the bracket.

    [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb.
    """
    units = [
        (a, b) for a in range(1, n + 1) for b in range(1, n + 1) if keep(a, b)
    ]
    index = {unit: i for i, unit in enumerate(units, start=1)}
    table = {}
    for (a, b), (c, d) in itertools.combinations(units, 2):
        # (a, d) and (c, b) coincide only for equal units, never both set
        comps = {}
        if b == c:
            comps[index[(a, d)]] = 1
        if d == a:
            comps[index[(c, b)]] = -1
        if comps:
            table[(index[(a, b)], index[(c, d)])] = comps
    return algebra_from_table(len(units), table, name=name)


def gl_algebra(n):
    """gl_n in the basis of matrix units E_ab."""
    return _matrix_unit_algebra(n, lambda a, b: True, f"gl{n}")


def borel_algebra(n):
    """b_n, the upper triangular n x n matrices."""
    return _matrix_unit_algebra(n, lambda a, b: a <= b, f"b{n}")


def nilradical_algebra(n):
    """n_n, the strictly upper triangular n x n matrices."""
    return _matrix_unit_algebra(n, lambda a, b: a < b, f"n{n}")


def heisenberg_algebra(k):
    """h_{2k+1} with basis p_1..p_k, q_1..q_k, z and [p_i, q_i] = z."""
    z = 2 * k + 1
    return algebra_from_table(
        z, {(i, k + i): {z: 1} for i in range(1, k + 1)}, name=f"h{z}"
    )


def lift(alg: LieAlgebra, m: int) -> LieAlgebra:
    """g[t]/t^m for a parameter-free table g of dimension n.

    The basis element e_k t^i, 0 <= i < m, has index i*n + k, and
    [X t^i, Y t^j] = [X, Y] t^(i+j), zero from t^m on.

    Layer s holds the coordinates x^(s) = (x_{sn+1}, .., x_{sn+n}).  The
    (i, j) layer block of A_x, rows i*n+1..i*n+n and columns j*n+1..j*n+n,
    is A_g(x^(i+j)), and it is zero for i + j >= m.

    Index = m * ind g.  Let R = F[t]/t^m over F = Q(x) and
    y(t) = sum_s x^(s) t^(m-1-s).  By the block form, u^T A_x v is the
    coefficient of t^(m-1) in U^T A_g(y(t)) V, for U = sum_i u_i t^i and
    V = sum_j v_j t^j in R^n.  That coefficient pairs R with itself
    without degeneracy, and V ranges over an R-module, so the kernel of
    A_x is the kernel of A_g(y(t)) over R.  Every (r+1)-minor of A_g, for
    r = rank g, vanishes identically, so it vanishes at y(t); and an r x r
    minor that is nonzero at y(0) = x^(m-1) is a unit of R.  Eliminating
    with that unit block leaves A_g(y(t)) equivalent over R to
    diag(1, .., 1, 0, .., 0) with r ones, whose kernel R^(n-r) has
    dimension m(n - r) over F.  So A_x has rank m*r and index m*(n - r).
    The verdict and p0 = p0(g)(x^(m-1))^m, after normalization, are not
    proved here; they are measured on the corpus tables, in their own
    basis and after a seeded basis change, by
    ``test_classify.py::test_truncated_current_algebra_keeps_the_type``.
    """
    n = alg.dim
    reg = VarRegistry(m * n)
    brackets = {}
    for i, j in itertools.product(range(m), repeat=2):
        if i + j >= m:
            continue
        for a, b in itertools.product(range(1, n + 1), repeat=2):
            if i * n + a < j * n + b:
                brackets[(i * n + a, j * n + b)] = {
                    (i + j) * n + k: reg.constant(c.constant_value())
                    for k, c in alg.bracket(a, b).items()
                }
    return LieAlgebra(m * n, reg, brackets=brackets, name=f"{alg.name}[t]/t^{m}")


def skew_pencil_algebra(blocks) -> LieAlgebra:
    """The algebra of the skew pencil (A, B) = ``oracle.assemble(blocks)``,
    of m rows: [e_i, e_j] = A_ij e_{m+1} + B_ij e_{m+2}.

    Every bracket lands in the centre, so Jacobi holds, and A_x is
    x_{m+1} A + x_{m+2} B bordered by two zero rows.  Its index is the
    number of Kronecker blocks plus 2, and p0 is, up to normalization, the
    product of (mu*x_{m+1} + x_{m+2})^k over the Jordan blocks J(mu, k)
    and of x_{m+1}^k over the infinite blocks of size k.
    """
    pencil = assemble(blocks)
    m = pencil.size
    table = {}
    for i, j in itertools.combinations(range(m), 2):
        comps = {k: v for k, v in ((m + 1, pencil.a[i][j]), (m + 2, pencil.b[i][j])) if v}
        if comps:
            table[(i + 1, j + 1)] = comps
    return algebra_from_table(m + 2, table, name=f"pencil{m}")


def naive_jacobi_violations(alg):
    """Jacobi violations by the dense triple loop over structure constants.

    Every (i < j < k, m) is summed over all l, zero products included, so
    nothing depends on which brackets are stored.  Returns (i, j, k, m,
    value) tuples in ascending order.
    """
    n = alg.dim
    c = alg.structure_constant
    bad = []
    for i, j, k in itertools.combinations(range(1, n + 1), 3):
        # [[ei,ej],ek] + [[ej,ek],ei] + [[ek,ei],ej], expanded via e_l.
        for m in range(1, n + 1):
            total = alg.registry.zero()
            for l in range(1, n + 1):
                total = (
                    total
                    + c(i, j, l) * c(l, k, m)
                    + c(j, k, l) * c(l, i, m)
                    + c(k, i, l) * c(l, j, m)
                )
            if total:
                bad.append((i, j, k, m, total))
    return bad
