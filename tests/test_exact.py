import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

from hypercone._exact import (compare_dirs, exact_cyclically_ordered,
                              exact_dirs, sign_sum)
from hypercone.projgeom import angle_dist, cyclically_ordered
from hypercone.sl2core import Mat2, eigen_data, integer_scaled
from tests.conftest import exact_canonical_pair


def F(x):
    return Fraction(x)


def test_single_radical_signs():
    assert sign_sum(-3, 2, 3) == 1    # 2*sqrt(3) > 3
    assert sign_sum(-4, 2, 3) == -1   # 2*sqrt(3) < 4
    assert sign_sum(-2, 1, 4) == 0    # sqrt(4) = 2
    assert sign_sum(5, 1, 2) == 1
    assert sign_sum(0, -1, 2) == -1


def test_compare_mixed_radicals():
    # 2 + sqrt(2) vs 1 + sqrt(5): 3.414... > 3.236...
    assert sign_sum(2 - 1, 1, 2, -1, 5) == 1
    # disguised equality: 2 + sqrt(4) == 4
    assert sign_sum(2 - 4, 1, 4) == 0
    # sqrt(2) + sqrt(3) vs 3.146, scaled by 1000 into integers: the squares
    # compare 5 + 2 sqrt(6) with 9.897..., so two squarings are needed
    want = 1 if math.sqrt(2) + math.sqrt(3) > 3.146 else -1
    assert sign_sum(-3146, 1000, 2, 1000, 3) == want


def test_compare_agrees_with_float_randomized():
    rng = random.Random(55)
    for _ in range(2000):
        pa, qa, Da, pb, qb, Db = (rng.randint(-9, 9), rng.randint(-9, 9),
                                  rng.randint(0, 9), rng.randint(-9, 9),
                                  rng.randint(-9, 9), rng.randint(0, 9))
        got = sign_sum(pa - pb, qa, Da, -qb, Db)  # (pa + qa √Da) - (pb + qb √Db)
        approx = (pa + qa * math.sqrt(Da)) - (pb + qb * math.sqrt(Db))
        if abs(approx) > 1e-9:
            assert got == (1 if approx > 0 else -1)


def _hyperbolic_draws(n):
    """n seeded rational hyperbolic matrices of det 1."""
    rng = random.Random(56)
    out = []
    while len(out) < n:
        a = F(rng.randint(-8, 8))
        b = F(rng.randint(-8, 8))
        c = F(rng.randint(-8, 8))
        if a == 0 or b * c == -1:
            continue
        d = (1 + b * c) / a
        m = Mat2(a, b, c, d)
        if abs(float(m.trace())) > 2:
            out.append(m)
    return out


def _angle(e) -> float:
    """The angle in [0, pi) of an exact direction, in floats."""
    return math.atan2(e.p + e.q * math.sqrt(e.D), e.x)


def test_exact_dirs_match_float_eigen():
    for m in _hyperbolic_draws(200):
        (u, _), (s, _) = eigen_data(m)
        du, ds = exact_dirs(m)
        for exact, pt in ((du, u), (ds, s)):
            assert 0.0 <= _angle(exact) < math.pi
            assert angle_dist(_angle(exact), pt.angle) < 1e-8


def test_exact_cyclic_order_matches_float():
    rng = random.Random(57)
    mats = []
    while len(mats) < 40:
        a = F(rng.randint(-6, 6))
        b = F(rng.randint(-6, 6))
        c = F(rng.randint(-6, 6))
        if a == 0:
            continue
        m = Mat2(a, b, c, (1 + b * c) / a)
        if abs(float(m.det()) - 1) > 1e-12:
            continue
        if abs(float(m.trace())) > 2:
            mats.append(m)
    for _ in range(100):
        sample = rng.sample(mats, 4)
        dirs = [exact_dirs(m)[0] for m in sample]
        angles = [eigen_data(m)[0][0].angle for m in sample]
        if min(abs(angles[i] - angles[j])
               for i in range(4) for j in range(i + 1, 4)) < 1e-6:
            continue
        assert exact_cyclically_ordered(dirs) == cyclically_ordered(angles)


def test_exact_dirs_of_the_integer_scaled_matrix():
    # n = s*M and 3n have M's eigendirections: the directions read
    # det n = s^2 and det 3n = 9 s^2, not 1
    scaled = 0
    for m in _hyperbolic_draws(200):
        n, s = integer_scaled(m)
        scaled += s > 1
        for k in (n, Mat2(3 * n.a, 3 * n.b, 3 * n.c, 3 * n.d)):
            assert compare_dirs(exact_dirs(k)[0], exact_dirs(m)[0]) == 0
            assert compare_dirs(exact_dirs(k)[1], exact_dirs(m)[1]) == 0
            assert compare_dirs(exact_dirs(k)[0], exact_dirs(m)[1]) != 0
    assert scaled > 50


def _decimal_dirs(m):
    """(unstable, stable) eigenvectors of m in 120-digit decimals, each
    turned into the upper half-plane, as eigen_data picks them: (b, lam - a)
    or (lam - d, c), whichever is longer."""
    n, _ = integer_scaled(m)
    a, b, c, d = (Decimal(v) for v in (n.a, n.b, n.c, n.d))
    t, r = a + d, ((a - d) * (a - d) + 4 * b * c).sqrt()
    big, small = (t + r) / 2, (t - r) / 2
    if t < 0:
        big, small = small, big

    def vector(lam):
        v1, v2 = (b, lam - a), (lam - d, c)
        x, y = v1 if v1[0] ** 2 + v1[1] ** 2 >= v2[0] ** 2 + v2[1] ** 2 else v2
        return (-x, -y) if y < 0 or (y == 0 and x < 0) else (x, y)

    return vector(big), vector(small)


def _decimal_compare(v, w) -> int:
    """Sign of angle(v) - angle(w), 0 within 1e-90 of the terms' size."""
    cross = w[0] * v[1] - v[0] * w[1]
    if abs(cross) <= Decimal("1e-90") * (abs(w[0] * v[1]) + abs(v[0] * w[1])):
        return 0
    return 1 if cross > 0 else -1


def _differential_mats(rng):
    """Seeded hyperbolic matrices: integer, Fraction and b = 0 ones, a few
    with their powers and positive multiples (equal directions), and the
    near-parabolic products of tr BA = -2 - 10^-k, k = 9..60."""
    mats = []
    while len(mats) < 120:
        den = rng.choice((1, 1, 2, 3, 7, 10 ** 6))
        a, b, c = (Fraction(rng.randint(-9, 9), den) for _ in range(3))
        if rng.random() < 0.2:
            b = Fraction(0)
        if a == 0:
            continue
        m = Mat2(a, b, c, (1 + b * c) / a)
        if abs(m.trace()) <= 2:
            continue
        mats.append(m)
        if rng.random() < 0.2:
            mats.append(m @ m if rng.random() < 0.5 else
                        Mat2(*(rng.randint(2, 9) * v for v in (m.a, m.b, m.c, m.d))))
    for k in range(9, 61):
        A, B = exact_canonical_pair(F(2), F(2), F(1), F(-4) - Fraction(1, 10 ** k))
        mats += [A, B, B @ A]
    return mats


def test_compare_dirs_matches_decimal_cross_products():
    rng = random.Random(58)
    with localcontext() as ctx:
        ctx.prec = 120
        mats = _differential_mats(rng)
        exact = [d for m in mats for d in exact_dirs(m)]
        ref = [v for m in mats for v in _decimal_dirs(m)]
        pairs = [(i, i + 1) for i in range(0, len(exact), 2)]  # u, s of one matrix
        pairs += [(i, i + 2) for i in range(len(exact) - 2)]   # neighbours, powers
        pairs += [(rng.randrange(len(exact)), rng.randrange(len(exact)))
                  for _ in range(8000)]
        got = [compare_dirs(exact[i], exact[j]) for i, j in pairs]
        want = [_decimal_compare(ref[i], ref[j]) for i, j in pairs]
    assert got == want
    assert got.count(0) > 100 and got.count(1) > 1000 and got.count(-1) > 1000

