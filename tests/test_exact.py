import math
import random
from fractions import Fraction

from hypercone._exact import (QuadVal, compare, compare_dirs,
                              exact_cyclically_ordered, exact_stable_dir,
                              exact_unstable_dir, sign_p_q_sqrtD)
from hypercone.projgeom import cyclically_ordered
from hypercone.sl2core import Mat2, eigen_data, integer_scaled


def F(x):
    return Fraction(x)


def test_single_radical_signs():
    assert sign_p_q_sqrtD(F(-3), F(2), F(3)) == 1    # 2*sqrt(3) > 3
    assert sign_p_q_sqrtD(F(-4), F(2), F(3)) == -1   # 2*sqrt(3) < 4
    assert sign_p_q_sqrtD(F(-2), F(1), F(4)) == 0    # sqrt(4) = 2
    assert sign_p_q_sqrtD(F(5), F(1), F(2)) == 1
    assert sign_p_q_sqrtD(F(0), F(-1), F(2)) == -1


def test_compare_mixed_radicals():
    # 2 + sqrt(2) vs 1 + sqrt(5): 3.414... > 3.236...
    assert compare(QuadVal(F(2), F(1), F(2)), QuadVal(F(1), F(1), F(5))) == 1
    # disguised equality: 2 + sqrt(4) == 4
    assert compare(QuadVal(F(2), F(1), F(4)), QuadVal.rational(4)) == 0
    # sqrt(2) + sqrt(3) vs 3.146...: squares compare 5 + 2 sqrt(6) vs 9.897
    # sqrt(2) + sqrt(3) vs 3.146: move one radical across before comparing
    lhs = QuadVal(F(0), F(1), F(2))                 # sqrt(2)
    rhs = QuadVal(Fraction(3146, 1000), F(-1), F(3))  # 3.146 - sqrt(3)
    want = 1 if math.sqrt(2) + math.sqrt(3) > 3.146 else -1
    assert compare(lhs, rhs) == want


def test_compare_agrees_with_float_randomized():
    rng = random.Random(55)
    for _ in range(2000):
        a = QuadVal(F(rng.randint(-9, 9)), F(rng.randint(-9, 9)),
                    F(rng.randint(0, 9)))
        b = QuadVal(F(rng.randint(-9, 9)), F(rng.randint(-9, 9)),
                    F(rng.randint(0, 9)))
        got = compare(a, b)
        approx = float(a) - float(b)
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


def test_exact_dirs_match_float_eigen():
    for m in _hyperbolic_draws(200):
        (u, _), (s, _) = eigen_data(m)
        du = exact_unstable_dir(m)
        ds = exact_stable_dir(m)
        for exact, pt in ((du, u), (ds, s)):
            if exact.kind == 1:
                assert abs(pt.angle - math.pi / 2) < 1e-8
            else:
                assert math.tan(pt.angle) == __import__("pytest").approx(
                    float(exact.slope), rel=1e-8, abs=1e-8)


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
        dirs = [exact_unstable_dir(m) for m in sample]
        pts = [eigen_data(m)[0][0] for m in sample]
        if min(abs(pts[i].angle - pts[j].angle)
               for i in range(4) for j in range(i + 1, 4)) < 1e-6:
            continue
        try:
            want = cyclically_ordered(pts, tol=0.0)
        except Exception:
            continue
        assert exact_cyclically_ordered(dirs) == want


def test_exact_dirs_of_the_integer_scaled_matrix():
    # n = s*M has M's eigendirections: the slopes read det n = s^2, not 1
    scaled = 0
    for m in _hyperbolic_draws(200):
        n, s = integer_scaled(m)
        scaled += s > 1
        assert compare_dirs(exact_unstable_dir(n), exact_unstable_dir(m)) == 0
        assert compare_dirs(exact_stable_dir(n), exact_stable_dir(m)) == 0
        assert compare_dirs(exact_unstable_dir(n), exact_stable_dir(m)) != 0
    assert scaled > 50
