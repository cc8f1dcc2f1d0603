import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercone import twoshift
from hypercone._exact import exact_cyclically_ordered, exact_dirs
from hypercone.errors import DegenerateTie
from hypercone.projgeom import angle_dist, angle_gap, norm_angle
from hypercone.sl2core import Mat2, eigen_data, integer_scaled
from hypercone.symdyn import eval_string
from hypercone.tolerances import DEFAULT
from hypercone.twoshift import (Degenerate, EllipticWitness, NonPrincipal,
                                Principal, _fricke, _step_minus, _step_plus, _Traces,
                                apply_fword_inverse, classify_pair,
                                fword_substitution)
from tests.conftest import (canonical_pair, check_walk, exact_canonical_pair,
                            pair_step_minus, pair_step_plus, rand_conj)
from tests.reference import is_free, is_twisted
from tests.test_acceptance import _strict_free_pairs, pullback_population


def traces(A: Mat2, B: Mat2) -> _Traces:
    """The walk's state of (tr A, tr B, tr AB), each over denominator 1."""
    return _Traces(A.trace(), B.trace(), (A @ B).trace())


def step_select(A: Mat2, B: Mat2, band: float = 0.0) -> str:
    """Which alternative holds for a twisted pair with tr A, tr B >= 2."""
    return twoshift._step_select_traces(traces(A, B), band)


def orientation(A: Mat2, B: Mat2) -> int:
    """+1 when u_A, s_B, u_B, s_A occur positively on P1, -1 when u_A, s_A,
    u_B, s_B do: _orientation on the integer forms of an exact pair, as
    classify_pair passes them, and on a float pair as it is."""
    if A.is_exact() and B.is_exact():
        return twoshift._orientation(integer_scaled(A), integer_scaled(B), True)
    return twoshift._orientation((A, 1), (B, 1), False)


def test_trace_steps_printed_examples():
    assert _step_plus(_Traces(3, 3, 7)) == (3, 7, 18, 1, 1, 1)
    t = _Traces(8.125, 2.5, 3.25)
    assert _step_minus(t) == (3.25, 2.5, 0.0, 1, 1, 1)
    assert _fricke(_Traces(2, 2, 2)) == 4
    assert _fricke(_step_plus(_Traces(2, 2, 2))) == 4


@given(st.tuples(st.integers(-50, 50), st.integers(-50, 50),
                 st.integers(-50, 50)))
@settings(max_examples=500)
def test_fricke_preserved_exactly(t):
    t = _Traces(*(Fraction(v, 7) for v in t))
    assert _fricke(_step_plus(t)) == _fricke(t)
    assert _fricke(_step_minus(t)) == _fricke(t)


def test_is_free_examples(free_pair):
    assert is_free(*free_pair)
    assert not is_free(Mat2(2, 0, 0, 0.5), Mat2(2, 0, 0, 0.5))
    A, B = canonical_pair(2.0, 2.0, 1.0, -3.0)  # tr AB = -1, not free
    assert not is_free(A, B)


def test_is_twisted_examples():
    assert is_twisted(*canonical_pair(2.0, 2.0, 1.0, -2.0))
    assert not is_twisted(*canonical_pair(2.0, 2.0, 1.0, 2.0))
    assert not is_twisted(Mat2(2, 1, 0, 0.5), Mat2.identity())
    assert not is_twisted(Mat2(2, 1, 0, 0.5), -Mat2.identity())


def test_is_twisted_parabolic_member():
    # parabolic shear with a lower-triangular partner: interleaved exactly
    # when the corner entry is negative
    shear = Mat2(1, 1, 0, 1)
    assert is_twisted(shear, Mat2(0.5, 0, -1.0, 2))
    assert not is_twisted(shear, Mat2(0.5, 0, 1.0, 2))


def test_is_twisted_sign_normalization():
    A, B = canonical_pair(2.0, 2.0, 1.0, -2.0)
    assert is_twisted(-A, B) and is_twisted(A, -B) and is_twisted(-A, -B)


def test_step_select_worked_examples(elliptic_walk_pair):
    A, B = elliptic_walk_pair
    assert step_select(A, B) == "-"
    A2, B2 = canonical_pair(2.0, 2.0, 1.0, -2.0)
    assert step_select(A2, B2) == "elliptic"
    A3, B3 = canonical_pair(2.0, 2.0, 1.0, -9.0)
    assert step_select(A3, B3) == "free"


def test_step_select_exclusivity_on_samples():
    rng = random.Random(11)
    for _ in range(300):
        mu = rng.uniform(1.05, 6.0)
        nu = rng.uniform(1.05, 6.0)
        gamma = -rng.uniform(0.05, 8.0)
        A, B = canonical_pair(mu, nu, 1.0, gamma)
        if not is_twisted(A, B):
            continue
        step = step_select(A, B, band=1e-9)
        if step in ("+", "-"):
            # exactly the chosen successor pair is twisted
            assert is_twisted(*pair_step_plus(A, B)) == (step == "+")
            assert is_twisted(*pair_step_minus(A, B)) == (step == "-")
        else:
            assert step in ("free", "elliptic")


def test_classify_free_pair_immediately(free_pair):
    c = classify_pair(*free_pair)
    assert isinstance(c, NonPrincipal)
    assert c.fword == "" and c.iterations == 0
    assert c.sign_pair == (1, 1) and c.orientation == 1
    # termination bound floor(5/4) - 1 = 0 steps
    assert c.iterations <= 0


def test_classify_elliptic_walk(elliptic_walk_pair):
    c = classify_pair(*elliptic_walk_pair)
    assert isinstance(c, EllipticWitness)
    assert c.word == "BAB" and c.iterations == 1
    A, B = elliptic_walk_pair
    assert abs(eval_string((A, B), c.word).trace()) < 2  # re-verify


def test_classify_principal():
    A, B = Mat2(2, 0, 0, 0.5), Mat2(3, 0.1, 0, 1 / 3)
    c = classify_pair(A, B)
    assert isinstance(c, Principal)
    assert c.sign_pair == (1, 1)
    check_walk(A, B, c)
    c = classify_pair(-A, B)
    assert isinstance(c, Principal) and c.sign_pair == (-1, 1)
    check_walk(-A, B, c)


def test_classify_sign_pairs():
    A, B = canonical_pair(2.0, 2.0, 1.0, -9.0)
    for sa in (1, -1):
        for sb in (1, -1):
            c = classify_pair(A if sa > 0 else -A, B if sb > 0 else -B)
            assert isinstance(c, NonPrincipal)
            assert c.sign_pair == (sa, sb)


def test_classify_degenerate_cases():
    assert isinstance(classify_pair(Mat2.identity(), Mat2(2, 1, 0, 0.5)),
                      Degenerate)
    shear = Mat2(1, 1, 0, 1)
    assert isinstance(classify_pair(shear, Mat2(2, 1, 0, 0.5)), Degenerate)
    # exactly on the free boundary in exact mode: tr AB = -2
    A, B = exact_canonical_pair(Fraction(2), Fraction(2), Fraction(1),
                                Fraction(-4))
    assert isinstance(classify_pair(A, B), Degenerate)


def test_tie_at_minus_two_is_named_around_minus_two():
    # tr AB = -2 exactly: at band 0 the tie sits on the band's edge, and is
    # named as the float copy, whose band holds it strictly, names it
    A, B = exact_canonical_pair(Fraction(2), Fraction(2), Fraction(1),
                                Fraction(-4))
    assert (A @ B).trace() == -2
    for pair in ((A, B), (A.to_float(), B.to_float())):
        assert classify_pair(*pair) == Degenerate(
            reason="tr AB in the band around -2", value=-2.0)


def test_band_ties_raise_the_public_degenerate_tie():
    # |tr A| = 2 exactly, within the band of is_free
    with pytest.raises(DegenerateTie, match="tr A") as info:
        is_free(Mat2(1.0, 1.0, 0.0, 1.0), Mat2(2.0, 1.0, 1.0, 1.0), band=1e-7)
    assert info.value.value == 2.0


def test_coincident_float_directions_are_degenerate():
    # det 1 each and tr AB = -3, so the pair is free, but its float
    # eigendirections coincide
    c = classify_pair(Mat2(2.0, 1e-300, 0.0, 0.5), Mat2(0.5, 0.0, -5e300, 2.0))
    assert c == Degenerate(reason="free-pair directions coincide")
    # a pair that is not free, (A, A), gives the same signal, float or exact
    for A in (Mat2(2.0, 1.0, 1.0, 1.0), Mat2(2, 1, 1, 1)):
        with pytest.raises(DegenerateTie, match="coincide"):
            orientation(A, A)


def test_classify_elliptic_generator():
    c = classify_pair(Mat2(0, -1, 1, 0), Mat2(2, 1, 0, 0.5))
    assert isinstance(c, EllipticWitness)
    assert c.word == "A"


def test_pullback_example_from_worked_pair(free_pair):
    A0, B0 = free_pair
    A, B = apply_fword_inverse(A0, B0, "+")
    assert B.det() == pytest.approx(1.0)
    # B = A0^-1 B0 has the documented entries
    assert (B.a, B.b, B.c, B.d) == pytest.approx((9.25, -2.0, -18.0, 4.0))
    c = classify_pair(A, B)
    assert isinstance(c, NonPrincipal) and c.fword == "+"


def test_walk_recovers_fwords_exactly(free_pair_exact):
    A0, B0 = free_pair_exact
    rng = random.Random(12)
    for _ in range(40):
        fword = "".join(rng.choice("+-") for _ in range(rng.randint(0, 4)))
        A, B = apply_fword_inverse(A0, B0, fword)
        c = classify_pair(A, B)
        assert isinstance(c, NonPrincipal)
        assert c.fword == fword
        check_walk(A, B, c)
        assert c.orientation == 1
        t0 = A.trace() + B.trace()
        assert c.iterations <= t0 / 4 - 1 + 1e-12


def test_classify_conjugation_invariance(free_pair):
    # conjugated in floats, the pairs' dyadic determinants run up to 2.6e-9
    # from 1, past DEFAULT.det but within the free level's DEFAULT.band,
    # and every pair is decided
    A0, B0 = free_pair
    A, B = apply_fword_inverse(A0, B0, "+-")
    rng = random.Random(13)
    base = classify_pair(A, B)
    worst = 0
    for _ in range(50):
        r = rand_conj(rng)
        pair = (r @ A @ r.inverse(), r @ B @ r.inverse())
        worst = max(worst, *(abs(_exact_det(m) - 1) for m in pair))
        c = classify_pair(*pair)
        assert isinstance(c, NonPrincipal)
        assert (c.fword, c.sign_pair, c.orientation) == \
            (base.fword, base.sign_pair, base.orientation)
    assert DEFAULT.det < worst < 3e-9


def _below_r_minus(x, y, z) -> bool:
    """z < r-(x, y) = (xy - sqrt((x^2 - 4)(y^2 - 4)))/2, for x, y > 2, in
    rationals: xy - 2z > 0 and (xy - 2z)^2 > (x^2 - 4)(y^2 - 4)."""
    t1 = x * y - 2 * z
    return t1 > 0 and t1 * t1 > (x * x - 4) * (y * y - 4)


def test_the_orientation_proof_anchors(free_pair_exact):
    # the module docstring's proof: sigma, the sign of the order of u_A,
    # s_B, u_B, s_A, times the free pair's orientation o (u_B, u_BA, s_BA,
    # s_A) is constant over F, and sigma of a state times sigma of its
    # successor is constant over R+ and over R-.  These three exact pairs,
    # read with exact directions, make each constant +1
    def sigma(A, B):
        (uA, sA), (uB, sB) = exact_dirs(A), exact_dirs(B)
        if exact_cyclically_ordered([uA, sB, uB, sA]):
            return 1
        assert exact_cyclically_ordered([uA, sA, uB, sB])
        return -1

    A, B = free_pair_exact
    x, y, z = A.trace(), B.trace(), (A @ B).trace()
    assert x > 2 and y > 2 and z < -2  # F
    uB, _ = exact_dirs(B)
    uBA, sBA = exact_dirs(B @ A)
    _, sA = exact_dirs(A)
    assert exact_cyclically_ordered([uB, uBA, sBA, sA])  # o = +1
    assert sigma(A, B) == 1
    for sign in "+-":
        P, Q = apply_fword_inverse(A, B, sign)
        x, y, z = P.trace(), Q.trace(), (P @ Q).trace()
        assert 2 < (x if sign == "+" else y) < (y if sign == "+" else x)
        assert 2 < z and _below_r_minus(x, y, z)  # R+ or R-
        assert (pair_step_plus if sign == "+" else pair_step_minus)(P, Q) == (A, B)
        assert sigma(P, Q) == 1
        c = classify_pair(P, Q)
        assert isinstance(c, NonPrincipal) and (c.fword, c.orientation) == (sign, 1)


def test_mirror_orientation(free_pair):
    A, B = free_pair
    D = Mat2(1, 0, 0, -1)  # orientation-reversing conjugation
    c = classify_pair(D @ A @ D, D @ B @ D)
    assert isinstance(c, NonPrincipal)
    assert c.orientation == -1


def test_fword_substitution_words():
    wa, wb = fword_substitution("+-")
    assert (wa, wb) == ("ABA", "AB")
    wa, wb = fword_substitution("")
    assert (wa, wb) == ("A", "B")


def test_walk_matches_matrix_walk(free_pair_exact):
    # the trace shadow of the pair walk is the trace walk
    A, B = apply_fword_inverse(*free_pair_exact, "-+")
    t = traces(A, B)
    A1, B1 = pair_step_minus(A, B)
    t1 = _step_minus(t)
    assert traces(A1, B1) == t1
    A2, B2 = pair_step_plus(A1, B1)
    t2 = _step_plus(t1)
    assert traces(A2, B2) == t2


def test_orientation_exact_fallback_near_parabolic_product(monkeypatch):
    # tr AB = -2 - 1e-18: the product's two directions are ~1e-9 apart in
    # floats, inside the escalation window, so a read of the free pair's
    # u_B, u_BA, s_BA, s_A needs the exact comparator (the point reference
    # falls back); the input directions classify_pair reads are far apart,
    # and their float angles decide without one exact sign
    z = Fraction(-2) - Fraction(1, 10 ** 18)
    gamma = z - 2  # mu = nu = 2
    A, B = exact_canonical_pair(Fraction(2), Fraction(2), Fraction(1), gamma)
    D = Mat2(1, 0, 0, -1)
    assert _point_orientation(A, B) == (1, True)
    assert _point_orientation(D @ A @ D, D @ B @ D) == (-1, True)
    signs = []
    compare = twoshift._exact.compare_dirs
    monkeypatch.setattr(twoshift._exact, "compare_dirs",
                        lambda e, f: signs.append(1) or compare(e, f))
    assert orientation(A, B) == 1
    assert orientation(D @ A @ D, D @ B @ D) == -1
    c = classify_pair(A, B)
    assert isinstance(c, NonPrincipal) and c.orientation == 1
    assert signs == []


def test_orientation_guard_reads_the_gap_across_zero(monkeypatch, free_pair_exact):
    # fifteen plus pullbacks of the free pair put the input directions u_B
    # and s_A within 1e-9 of each other; sheared so that they sit within
    # 2e-9 either side of angle 0, at the two ends of [0, pi), only the
    # cyclic gap across 0 is below the switch, and one exact cross-product
    # sign orders the two, mirrored or not
    fword = "+" * 15
    A, B = apply_fword_inverse(*free_pair_exact, fword)
    (u, _), _ = eigen_data(B)
    _, (s, _) = eigen_data(A)
    assert angle_dist(u.angle, s.angle) < 1e-9
    P = Mat2(Fraction(1), Fraction(0), -Fraction(math.tan(0.5 * (u.angle + s.angle))),
             Fraction(1))
    A, B = P @ A @ P.inverse(), P @ B @ P.inverse()
    (u, _), _ = eigen_data(B)
    _, (s, _) = eigen_data(A)
    assert max(u.angle, s.angle) > math.pi - 2e-9 and min(u.angle, s.angle) < 2e-9
    signs = []
    compare = twoshift._exact.compare_dirs
    monkeypatch.setattr(twoshift._exact, "compare_dirs",
                        lambda e, f: signs.append(1) or compare(e, f))
    D = Mat2(1, 0, 0, -1)
    for pair, want in (((A, B), 1), ((D @ A @ D, D @ B @ D), -1)):
        signs.clear()
        c = classify_pair(*pair)
        assert isinstance(c, NonPrincipal) and (c.fword, c.orientation) == (fword, want)
        assert len(signs) == 1


def test_exact_order_sorts_a_cluster_of_three(monkeypatch):
    # u_A = e1 and B's directions (1, eps), (1, 2 eps): three input
    # directions within 2 eps, ordered by exact signs alone, as they are,
    # sheared to straddle angle 0, and mirrored; float angles tie from
    # eps = 1e-30 on.  The sign is the exact cyclic order's
    def sigma(A, B):
        (uA, sA), (uB, sB) = exact_dirs(A), exact_dirs(B)
        if exact_cyclically_ordered([uA, sB, uB, sA]):
            return 1
        assert exact_cyclically_ordered([uA, sA, uB, sB])
        return -1

    signs = []
    compare = twoshift._exact.compare_dirs
    monkeypatch.setattr(twoshift._exact, "compare_dirs",
                        lambda e, f: signs.append(1) or compare(e, f))
    A = Mat2(Fraction(2), Fraction(0), Fraction(0), Fraction(1, 2))
    D = Mat2(1, 0, 0, -1)
    seen = set()
    for eps in (Fraction(2, 10 ** 9), Fraction(1, 10 ** 15), Fraction(1, 10 ** 30)):
        V = Mat2(Fraction(1), Fraction(1), 2 * eps, eps)
        B = V @ Mat2(Fraction(3), Fraction(0), Fraction(0), Fraction(1, 3)) @ V.inverse()
        for shear in (0, eps):
            P = Mat2(Fraction(1), Fraction(0), -shear, Fraction(1))
            pair = (P @ A @ P.inverse(), P @ B @ P.inverse())
            for X, Y in (pair, (D @ pair[0] @ D, D @ pair[1] @ D)):
                want = sigma(X, Y)
                signs.clear()
                assert orientation(X, Y) == want
                assert len(signs) >= 2
                seen.add(want)
    assert seen == {1, -1}


def test_classify_pair_near_parabolic_does_no_fraction_arithmetic(monkeypatch):
    # the walk and the exact orientation fallback read integer matrices only
    z = Fraction(-2) - Fraction(1, 10 ** 18)
    A, B = exact_canonical_pair(Fraction(2), Fraction(2), Fraction(1), z - 2)
    ops = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__"):
        def counted(self, other, _orig=getattr(Fraction, name)):
            ops.append(1)
            return _orig(self, other)
        monkeypatch.setattr(Fraction, name, counted)
    c = classify_pair(A, B)
    assert isinstance(c, NonPrincipal) and c.orientation == 1
    assert len(ops) == 0


def test_exact_near_identity_generator_is_decided():
    # within DEFAULT.identity of I entrywise, but hyperbolic: on rational
    # input only n = +-S I is the identity
    lam = 1 + Fraction(1, 10 ** 12)
    B = Mat2(Fraction(2), Fraction(1), Fraction(1), Fraction(1))
    for A in (Mat2.diagonal(lam), -Mat2.diagonal(lam)):
        for pair in ((A, B), (B, A)):
            c = classify_pair(*pair)
            assert isinstance(c, Principal), c
            assert c == _reference_classify(*pair, band=0)
            # the float copy stays within the identity band
            assert classify_pair(*(m.to_float() for m in pair)) == Degenerate(
                reason=f"generator {'A' if pair[0] is A else 'B'} is +-identity")
    for I in (Mat2.identity(), -Mat2.identity(),
              Mat2(Fraction(1), Fraction(0), Fraction(0), Fraction(1))):
        assert classify_pair(I, B) == Degenerate(reason="generator A is +-identity")
        assert classify_pair(B, I) == Degenerate(reason="generator B is +-identity")
        assert not is_twisted(I, B) and not is_twisted(B, I)
    # a twisted pair with a near-identity member, whose float copy is not
    A = Mat2(lam, Fraction(1, 10 ** 12), Fraction(0), 1 / lam)
    B = Mat2(Fraction(1, 2), Fraction(0), Fraction(-3), Fraction(2))
    assert is_twisted(A, B)
    assert not is_twisted(A.to_float(), B.to_float())
    # elliptic members are read exactly: tr = 2 - 1e-20 rounds to 2.0
    E = Mat2(Fraction(1), Fraction(1), -Fraction(1, 10 ** 20), 1 - Fraction(1, 10 ** 20))
    assert E.det() == 1 and float(E.trace()) == 2.0
    assert not is_twisted(E, B) and not is_twisted(B, E)


def test_exact_walk_state_stays_in_lowest_terms(monkeypatch):
    # on deep pullback draws every state the walk reads is in lowest terms,
    # the free level carries the base pair's reduced denominators, and each
    # step builds the one successor it takes
    states, builds = [], []
    select = twoshift._step_select_traces

    def spy_select(s, band):
        states.append(s)
        return select(s, band)
    monkeypatch.setattr(twoshift, "_step_select_traces", spy_select)
    for name in ("_step_plus", "_step_minus"):
        def spy_step(s, _step=getattr(twoshift, name)):
            builds.append(_step(s))
            return builds[-1]
        monkeypatch.setattr(twoshift, name, spy_step)
    checked = 0
    for (A, B), fword, _ in pullback_population(500):
        if len(fword) < 5:
            continue
        states.clear()
        builds.clear()
        c = classify_pair(A, B)
        assert isinstance(c, NonPrincipal) and c.fword == fword
        assert len(states) == len(fword) + 1
        assert len(builds) == len(fword)
        for s in states + builds:
            X, Y, Z, p, q, r = s
            assert all(type(v) is int for v in s) and min(p, q, r) > 0
            assert math.gcd(X, p) == math.gcd(Y, q) == math.gcd(Z, r) == 1
        # the base pair, replayed in Fraction arithmetic
        Ak = A if A.trace() >= 0 else -A
        Bk = B if B.trace() >= 0 else -B
        for sign in fword:
            Ak, Bk = (pair_step_plus if sign == "+" else pair_step_minus)(Ak, Bk)
        X, Y, Z, p, q, r = states[-1]
        assert (Fraction(X, p), Fraction(Y, q), Fraction(Z, r)) == \
            (Ak.trace(), Bk.trace(), (Ak @ Bk).trace())
        checked += 1
    assert checked >= 40


def _mixed_pairs():
    """30 free pairs with a rational A and a float B, conjugated by a
    rational P, from a fixed seed."""
    rng = random.Random(5)
    for _ in range(30):
        mu, nu = (Fraction(rng.randint(101, 900), rng.randint(100, 300))
                  for _ in range(2))
        z = -Fraction(rng.randint(201, 3000), 100)
        A, B = exact_canonical_pair(mu, nu, Fraction(1), z - mu / nu - nu / mu)
        p, q = (Fraction(rng.randint(1, 30), rng.randint(1, 30)) for _ in range(2))
        P = Mat2(Fraction(1), p, q, 1 + p * q)
        yield P @ A @ P.inverse(), (P @ B @ P.inverse()).to_float()


def test_mixed_free_pair_orientation_reads_eigen_data_bits(monkeypatch):
    # a rational A with a float B is walked at scale 1, so A stays a
    # Fraction matrix, and the orientation must read the angles of
    # eigen_data's points of exactly A1 and B1 (_eigen's angles, reduced as
    # eigen_data's points are)
    calls = []
    eigen = twoshift._eigen

    def spy(a, b, c, d, s):
        out = eigen(a, b, c, d, s)
        calls.append(((Mat2(a, b, c, d), s), (norm_angle(out[0]), norm_angle(out[1]))))
        return out
    monkeypatch.setattr(twoshift, "_eigen", spy)
    for A, B in _mixed_pairs():
        calls.clear()
        c = classify_pair(A, B)
        assert isinstance(c, NonPrincipal) and c.iterations == 0
        A1 = A if A.trace() >= 0 else -A
        B1 = B if B.trace() >= 0 else -B
        read = [A1, B1]
        assert [form for form, _ in calls] == [(m, 1) for m in read]
        assert [got for _, got in calls] == [
            tuple(p.angle for p, _ in eigen_data(m)) for m in read]
        assert c == _reference_classify(A, B, DEFAULT.band)


def _point_cyclically_ordered(points) -> bool:
    """The cyclic test on ProjPoints, as it read them before it took angles
    (distinct points required, tolerance 0)."""
    assert all(angle_dist(p.angle, q.angle) > 0.0
               for i, p in enumerate(points) for q in points[i + 1:])
    gaps = [angle_gap(points[0].angle, p.angle) for p in points[1:]]
    return all(gaps[i] < gaps[i + 1] for i in range(len(gaps) - 1))


def _point_orientation(A, B):
    """(orientation or the tie's reason, whether the exact fallback decided)
    of the free pair (A, B), read from eigen_data's ProjPoints."""
    (uB, _), _ = eigen_data(B)
    (uBA, _), (sBA, _) = eigen_data(B @ A)
    _, (sA, _) = eigen_data(A)
    pts = (uB, uBA, sBA, sA)
    min_gap = min(angle_dist(p.angle, q.angle)
                  for i, p in enumerate(pts) for q in pts[i + 1:])
    if min_gap > 100 * DEFAULT.angle or not (A.is_exact() and B.is_exact()):
        if min_gap == 0.0:
            return "free-pair directions coincide", False
        if _point_cyclically_ordered(pts):
            return 1, False
        if _point_cyclically_ordered((pts[0], pts[3], pts[2], pts[1])):
            return -1, False
        return "free-pair direction order is inconsistent", False
    dirs = [exact_dirs(B)[0], *exact_dirs(B @ A), exact_dirs(A)[1]]
    if exact_cyclically_ordered(dirs):
        return 1, True
    if exact_cyclically_ordered([dirs[0], dirs[3], dirs[2], dirs[1]]):
        return -1, True
    return "free-pair direction order is inconsistent", True


def _conjugated(pairs, seed: int):
    """Each pair conjugated by a random determinant-one float matrix."""
    rng = random.Random(seed)
    out = []
    for A, B in pairs:
        P = rand_conj(rng)
        Q = P.inverse()
        out.append((P @ A @ Q, P @ B @ Q))
    return out


def test_orientation_matches_the_point_reference():
    # classify_pair reads the orientation off the input pair A1, B1
    # (_orientation on sl2core._eigen's angles); it must be what the
    # ProjPoints of eigen_data and the point cyclic test give on the walked
    # pair, rebuilt here step by step, and so must the same read of the
    # walked pair itself, which lies on the free level
    exact = [pair for pair, _, _ in pullback_population(500)]
    z = Fraction(-2) - Fraction(1, 10 ** 18)
    A, B = exact_canonical_pair(Fraction(2), Fraction(2), Fraction(1), z - 2)
    D = Mat2(1, 0, 0, -1)
    near_parabolic = [(A, B), (D @ A @ D, D @ B @ D)]
    floats = [(A.to_float(), B.to_float()) for A, B in exact]
    populations = {
        "c01": _strict_free_pairs(1000),
        "pullbacks": exact,
        "pullbacks mirrored": [(D @ A @ D, D @ B @ D) for A, B in exact],
        "pullbacks as floats": floats,
        "pullbacks conjugated in floats": _conjugated(floats, 17),
        "mixed": list(_mixed_pairs()),
        "near-parabolic": near_parabolic,
        "near-boundary": _near_boundary_pairs(1500),
        "near-boundary exact": _near_boundary_pairs(300, exact=True),
    }
    # these populations hold other verdicts too; only the NonPrincipal ones
    # are compared
    mixed_verdicts = {"pullbacks conjugated in floats", "near-boundary",
                      "near-boundary exact"}
    orientations, fallbacks, compared = {}, {}, {}
    for name, pairs in populations.items():
        seen, fell_back, count = set(), 0, 0
        for A, B in pairs:
            c = classify_pair(A, B)
            if name in mixed_verdicts and not isinstance(c, NonPrincipal):
                continue
            assert isinstance(c, NonPrincipal), (name, A, B, c)
            A1 = A if A.trace() >= 0 else -A
            B1 = B if B.trace() >= 0 else -B
            Ak, Bk = A1, B1
            for sign in c.fword:
                Ak, Bk = (pair_step_plus if sign == "+" else pair_step_minus)(Ak, Bk)
            want, fallback = _point_orientation(Ak, Bk)
            assert c.orientation == want, (name, A, B)
            assert orientation(A1, B1) == want, (name, A, B)
            assert orientation(Ak, Bk) == want, (name, A, B)
            seen.add(want)
            fell_back += fallback
            count += 1
        orientations[name], fallbacks[name], compared[name] = seen, fell_back, count
    # both orientations occur where draws are mirrored, and the
    # near-parabolic pairs are decided by the exact fallback alone
    assert orientations["pullbacks"] == orientations["pullbacks as floats"] == {1, -1}
    assert orientations["pullbacks mirrored"] == {1, -1}
    assert orientations["near-parabolic"] == {1, -1}
    assert fallbacks["near-parabolic"] == 2
    assert orientations["c01"] == {1} and orientations["mixed"] == {1}
    assert compared["pullbacks conjugated in floats"] > 450
    assert compared["near-boundary"] > 50 and compared["near-boundary exact"] > 40


def test_exact_walk_matches_fraction_replay():
    # rational pairs walk on integer-scaled traces; the verdict must be the
    # one the Fraction trace triple gives, and the invariant its float
    for pair, fword, mirrored in pullback_population(500):
        A, B = pair
        c = classify_pair(A, B)
        assert c == _reference_classify(A, B, band=0)
        assert isinstance(c, NonPrincipal), (fword, c)
        assert (c.fword, c.iterations) == (fword, len(fword))
        assert c.orientation == (-1 if mirrored else 1)
        check_walk(A, B, c)
        A1 = A if A.trace() >= 0 else -A
        B1 = B if B.trace() >= 0 else -B
        t = traces(A1, B1)
        assert all(type(v) is Fraction for v in t[:3])
        assert c.invariant == float(_fricke(t))
    # near the boundary, where walks end on a band reason or on the bound
    seen = set()
    for A, B in _near_boundary_pairs(300, exact=True):
        c = classify_pair(A, B)
        assert c == _reference_classify(A, B, band=0), (A, B)
        seen.add(getattr(c, "reason", type(c).__name__))
    # at band 0 a tie is tr AB = -2 exactly, in the band around -2
    assert seen >= {"Principal", "NonPrincipal", "tr AB in the band around -2",
                    "walk exceeded its termination bound"}


# ---------------------------------------------------------------------------
# the unscaled walk on plain trace triples: Fraction arithmetic with band 0
# on rational input, the float band on float input


class _RefEscape(Exception):
    def __init__(self, reason, value=0.0):
        self.reason, self.value = reason, float(value)


def _ref_twist_state(x, y, z, band):
    t1 = x * y - 2 * z
    t2 = x * x + y * y + z * z - x * y * z - 4
    if t1 > band and t2 > band:
        return 1
    if t1 < -band or t2 < -band:
        return 0
    return -1


def _reference_classify(A, B, band):
    exact = A.is_exact() and B.is_exact()
    for name, m in (("A", A), ("B", B)):
        if (m in (Mat2.identity(), -Mat2.identity()) if exact
                else m.dist_to_pm_identity() <= DEFAULT.identity):
            return Degenerate(reason=f"generator {name} is +-identity")
    sa = 1 if A.trace() >= 0 else -1
    sb = 1 if B.trace() >= 0 else -1
    A1 = A if sa > 0 else -A
    B1 = B if sb > 0 else -B
    for name, m, given in (("A", A1, A), ("B", B1, B)):
        t = m.trace()
        if abs(t - 2) <= band:
            return Degenerate(reason=f"generator {name} is parabolic (band)",
                              value=float(t))
        if t < 2:
            return EllipticWitness(word=name, trace=float(given.trace()),
                                   iterations=0)
    x, y, z = A1.trace(), B1.trace(), (A1 @ B1).trace()
    inv = float(x * x + y * y + z * z - x * y * z)
    try:
        state = _ref_twist_state(x, y, z, band)
        if state < 0:
            raise _RefEscape("initial twist test in the boundary band")
        if state == 0:
            return Principal(sign_pair=(sa, sb), invariant=inv)
        t0 = x + y
        bound = math.floor(t0 / 4) - 1
        fword = ""
        while True:
            if abs(z) < 2 - band:
                wa, wb = fword_substitution(fword)
                return EllipticWitness(word=wa + wb, trace=float(z),
                                       iterations=len(fword))
            if z < -2 + band:
                if z > -2 - band:
                    raise _RefEscape("tr AB in the band around -2", z)
                for name, m in (("A", A1), ("B", B1)):
                    det = _exact_det(m)
                    if abs(det - 1) > band:
                        return Degenerate(reason=f"generator {name} determinant is not 1 (band)",
                                          value=float(det))
                Ak, Bk = A1, B1
                for sign in fword:
                    step = pair_step_plus if sign == "+" else pair_step_minus
                    Ak, Bk = step(Ak, Bk)
                # the orientation of the walked pair itself, from its points
                want, _ = _point_orientation(Ak, Bk)
                if isinstance(want, str):
                    return Degenerate(reason=want)
                return NonPrincipal(fword=fword, sign_pair=(sa, sb), orientation=want,
                                    iterations=len(fword), invariant=inv)
            if z < 2 + band:
                # z = -2 + band (z = -2 at band 0) lies in the band around -2
                raise _RefEscape("tr AB in the band around -2" if z < 0
                                 else "tr AB in the band around 2", z)
            plus = _ref_twist_state(x, z, x * z - y, band)
            minus = _ref_twist_state(z, y, y * z - x, band)
            if plus < 0 or minus < 0:
                raise _RefEscape("successor twist test in the boundary band")
            if plus == minus:
                return Degenerate(reason="both successor pairs test twisted"
                                  if plus else
                                  "neither successor pair tests twisted")
            if len(fword) + 1 > bound:
                raise _RefEscape("walk exceeded its termination bound", t0)
            if plus:
                x, y, z, fword = x, z, x * z - y, fword + "+"
            else:
                x, y, z, fword = z, y, y * z - x, fword + "-"
    except _RefEscape as esc:
        return Degenerate(reason=esc.reason, value=esc.value)


def _census_pairs(n, seed=31):
    rng = random.Random(seed)

    def matrix():
        while True:
            a, b, c = (rng.uniform(-3.0, 3.0) for _ in range(3))
            if abs(a) > 1e-6:
                return Mat2(a, b, c, (1.0 + b * c) / a)
    return [(matrix(), matrix()) for _ in range(n)]


def _near_boundary_pairs(n, seed=37, exact=False):
    """Canonical pairs with tr AB near -2, just above 2, or above 2; with
    exact, rational ones that also put tr AB on -2 and 2."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        if exact:
            mu, nu = (Fraction(rng.randint(101, 300), 100) for _ in range(2))
            z = rng.choice([-2 - Fraction(1, rng.randint(10, 10 ** 6)),
                            2 + Fraction(1, rng.randint(10, 10 ** 6)),
                            Fraction(rng.randint(200, 3000), 100),
                            Fraction(-2), Fraction(2)])
            pair = exact_canonical_pair(mu, nu, Fraction(1), z - mu / nu - nu / mu)
        else:
            mu, nu = rng.uniform(1.01, 3.0), rng.uniform(1.01, 3.0)
            z = rng.choice([-2.0 - 10 ** rng.uniform(-12, -6),
                            2.0 + 10 ** rng.uniform(-12, 0), rng.uniform(2.0, 30.0)])
            pair = canonical_pair(mu, nu, 1.0, z - mu / nu - nu / mu)
        out.append(pair)
    return out


def test_float_walk_is_the_unscaled_walk(monkeypatch):
    pairs = (_census_pairs(1500) + _strict_free_pairs(200)
             + _near_boundary_pairs(1500)
             + [(A.to_float(), B.to_float())
                for (A, B), _, _ in pullback_population(200)]
             + [(Mat2(1.0, 0.0, 0.0, 1.0), Mat2(2.0, 1.0, 0.0, 0.5)),
                (Mat2(1.0, 1.0, 0.0, 1.0), Mat2(2.0, 1.0, 0.0, 0.5)),
                canonical_pair(2.0, 2.0, 1.0, 1e-12)])
    (A, B), _, _ = pullback_population(1)[0]
    mixed = (A, B.to_float())
    seen = set()
    for A, B in pairs + [mixed]:
        c = classify_pair(A, B)
        assert c == _reference_classify(A, B, DEFAULT.band), (A, B)
        seen.add(c.reason if isinstance(c, Degenerate) else
                 (type(c).__name__, getattr(c, "iterations", 0) > 0))
    assert seen >= {
        ("Principal", False), ("NonPrincipal", False), ("NonPrincipal", True),
        ("EllipticWitness", False), ("EllipticWitness", True),
        "generator A is +-identity", "generator A is parabolic (band)",
        "initial twist test in the boundary band",
        "tr AB in the band around -2", "tr AB in the band around 2",
        "walk exceeded its termination bound"}

    # a mixed pair is walked at denominator 1 and with the float band
    calls = []
    select = twoshift._step_select_traces

    def spy(s, band):
        calls.append((s.p, s.q, s.r, band))
        return select(s, band)
    monkeypatch.setattr(twoshift, "_step_select_traces", spy)
    assert isinstance(classify_pair(*mixed), NonPrincipal)
    assert calls and set(calls) == {(1, 1, 1, DEFAULT.band)}
    calls.clear()
    classify_pair(*pullback_population(1)[0][0])
    assert calls and all(band == 0 for _, _, _, band in calls)


def _huge_pair(e: int):
    """A = [[10^e, 1], [0, 10^-e]], B = [[10^-e, 0], [-5, 10^e]]: free, with
    Fricke invariant about 5 * 10^(2e); past e = 154 it is beyond the float
    range."""
    big, small = Fraction(10 ** e), Fraction(1, 10 ** e)
    return Mat2(big, Fraction(1), Fraction(0), small), Mat2(small, Fraction(0),
                                                            Fraction(-5), big)


def test_invariant_beyond_the_float_range_is_infinite(monkeypatch):
    # the exact walk decides both pairs; at 10^160 the invariant and the
    # directions' float forms overflow, so the invariant reads +inf and the
    # orientation is read exactly
    for e, inv in ((150, 5e300), (160, math.inf)):
        A, B = _huge_pair(e)
        c = classify_pair(A, B)
        assert c == NonPrincipal(fword="", sign_pair=(1, 1), orientation=1,
                                 iterations=0, invariant=inv), e
        assert inv == math.inf or inv == float(_fricke(traces(A, B)))
        mirror = Mat2(1, 0, 0, -1)
        c = classify_pair(mirror @ A @ mirror, mirror @ B @ mirror)
        assert c.orientation == -1 and c.invariant == inv
    # the exact order the overflow falls back to gives the float order at 10^150
    A, B = _huge_pair(150)

    def overflowing(*args):
        raise OverflowError("int too large")

    monkeypatch.setattr(twoshift, "_eigen", overflowing)
    assert classify_pair(A, B).orientation == 1


# finite float pairs whose decision quantities leave the float range: t1 and
# t2 come out inf - inf, a NaN, for the first two; the third is straight
# whatever its NaN invariant
OVERFLOW_PAIRS = (
    (Mat2(1e200, 0.0, 0.0, 1e-200), Mat2(1e200, 1.0, 0.0, 1e-200)),
    (Mat2(1e300, 1.0, -1.0, 0.0), Mat2(0.0, -1.0, 1.0, 1e300)),
)
STRAIGHT_NAN_PAIR = (Mat2(1e160, 0.0, 0.0, 1e-160), Mat2(2.0, 1.0, 1.0, 1.0))


def test_an_overflowing_twist_test_is_named():
    for A, B in OVERFLOW_PAIRS:
        assert classify_pair(A, B) == Degenerate(
            "initial twist test overflows the float range", 0.0)
    c = classify_pair(*STRAIGHT_NAN_PAIR)
    assert isinstance(c, Principal) and c.sign_pair == (1, 1) and math.isnan(c.invariant)
    assert twoshift.classification_to_dict(c)["invariant"] is None
    # at a successor test: the plus successor's t1 of (1e200, 1e308, 1e200),
    # 2y - xz, reads inf - inf; a tie in the band still reads as one, as the
    # plus move of (2, 3, 3), with t1 = 0, shows
    for state, reason in (((1e200, 1e308, 1e200), "overflows the float range"),
                          ((2.0, 3.0, 3.0), "in the boundary band")):
        with pytest.raises(DegenerateTie, match=f"^successor twist test {reason}$"):
            twoshift._step_select_traces(_Traces(*state), DEFAULT.band)


def test_a_free_level_verdict_reads_two_eigen_routines_and_no_product(monkeypatch):
    # a NonPrincipal verdict, after any sign word, calls the eigen routine
    # on the forms of A1 and B1 only (integer_scaled's on exact input) and
    # builds no product Mat2: tr(A1 @ B1) builds none, and the walked pair
    # is not rebuilt.  A Principal verdict calls neither.
    eigen, matmul = twoshift._eigen, Mat2.__matmul__
    calls = []

    def counted_eigen(*args):
        calls.append(("eigen", Mat2(*args[:4]), args[4]))
        return eigen(*args)

    def counted_matmul(x, y):
        calls.append("matmul")
        return matmul(x, y)

    exact = [pair for pair, _, _ in pullback_population(500)][:120]
    free = (_strict_free_pairs(40) + exact
            + [(A.to_float(), B.to_float()) for A, B in exact])
    rng = random.Random(11)
    principal = [(Mat2(2, 1, 1, 1), Mat2(5, 2, 2, 1)),
                 (-Mat2(Fraction(2), Fraction(1), Fraction(1), Fraction(1)),
                  Mat2(Fraction(5, 2), Fraction(3, 2), Fraction(1, 2), Fraction(1, 2)))]
    for _ in range(20):
        P = rand_conj(rng)
        D, E = Mat2.diagonal(rng.uniform(1.5, 4.0)), Mat2.diagonal(rng.uniform(1.5, 4.0))
        principal.append((P @ D @ P.inverse(), -(P @ E @ P.inverse())))
    monkeypatch.setattr(twoshift, "_eigen", counted_eigen)
    monkeypatch.setattr(Mat2, "__matmul__", counted_matmul)
    words = set()
    for A, B in free:
        calls.clear()
        c = classify_pair(A, B)
        assert isinstance(c, NonPrincipal), c
        A1 = A if A.trace() >= 0 else -A
        B1 = B if B.trace() >= 0 else -B
        forms = ([integer_scaled(A1), integer_scaled(B1)] if A.is_exact()
                 else [(A1, 1), (B1, 1)])
        assert calls == [("eigen", *form) for form in forms], (A, B)
        words.add(c.fword)
    assert len(words) > 20 and "" in words and max(map(len, words)) == 6
    for A, B in principal:
        calls.clear()
        assert isinstance(classify_pair(A, B), Principal)
        assert calls == [], (A, B)


class _Graded(float):
    """A float that knows its degree as a polynomial in the traces of one
    state (integers have degree 0); every product it takes part in logs its
    degree in `products`."""

    products: list = []

    def __new__(cls, value, degree=1):
        self = super().__new__(cls, value)
        self.degree = degree
        return self

    def __mul__(self, other):
        degree = self.degree + getattr(other, "degree", 0)
        _Graded.products.append(degree)
        return _Graded(float(self) * float(other), degree)

    __rmul__ = __mul__

    def __add__(self, other):
        return _Graded(float(self) + float(other), max(self.degree, getattr(other, "degree", 0)))

    __radd__ = __add__

    def __sub__(self, other):
        return _Graded(float(self) - float(other), max(self.degree, getattr(other, "degree", 0)))

    def __rsub__(self, other):
        return _Graded(float(other) - float(self), max(self.degree, getattr(other, "degree", 0)))


def test_a_walk_of_k_steps_builds_k_successors_and_no_successor_t2(monkeypatch, elliptic_walk_pair):
    # both moves keep the Fricke form, so t2 is read once, from the first
    # state's _fricke; a successor's test is then its t1, read off the
    # current state, and only the successor taken is built
    draws = [(pair, fword) for pair, fword, _ in pullback_population(500)]
    draws += [((A.to_float(), B.to_float()), fword) for (A, B), fword in draws]
    # every successor test forms products of at most two of the state's
    # traces: a successor's t2 would take a product of three or four
    _Graded.products.clear()
    tested = 0
    for (A, B), fword in draws:
        A1 = A if A.trace() >= 0 else -A
        B1 = B if B.trace() >= 0 else -B
        if fword and not any(isinstance(v, Fraction) for v in (A1.a, A1.b, A1.c, A1.d)):
            state = _Traces(*(_Graded(v) for v in traces(A1, B1)[:3]))
            assert twoshift._step_select_traces(state, DEFAULT.band) == fword[0]
            tested += 1
    assert tested > 100 and max(_Graded.products) == 2
    calls = []
    for name in ("_step_plus", "_step_minus", "_fricke"):
        def spy(s, _f=getattr(twoshift, name), _name=name):
            calls.append(_name)
            return _f(s)
        monkeypatch.setattr(twoshift, name, spy)
    walked = 0
    pairs = [pair for pair, _ in draws] + [elliptic_walk_pair] + _strict_free_pairs(20)
    for A, B in pairs:
        calls.clear()
        c = classify_pair(A, B)
        if isinstance(c, Degenerate):
            continue
        assert calls.count("_fricke") == 1, (A, B)
        assert len(calls) - 1 == getattr(c, "iterations", 0), (A, B, c)
        walked += len(calls) > 1
    assert walked > 700


# float pairs rounded off SL(2, R) (det 1 - 8e-6 and 1 - 1.2e-2) whose traces
# walk to a free level where a rebuilt member is elliptic; the second read as
# Fractions too
NO_DIRECTION_PAIRS = (
    (Mat2(136504.13527362258, 268115.3413226203, 593070.0198590616, 1164881.7120813779),
     Mat2(19317.887625396692, -4446.307267214542, -9835.213691459712, 2263.724893681137)),
    (Mat2(61.49039954443604, 121.98619141184305, 285.18495273630106, 565.7732994095626),
     Mat2(21792028.960012708, -4698491.392751527, -10984569.733857619, 2368338.737173734)),
)


def _exact_det(m: Mat2) -> Fraction:
    """det m, with each entry read as the rational it is."""
    a, b, c, d = (Fraction(v) for v in (m.a, m.b, m.c, m.d))
    return a * d - b * c


def test_a_walked_member_without_a_direction_is_degenerate():
    # the free level reads both determinants before any direction: these
    # pairs are refused there, naming the first generator off SL(2, R) and
    # its exact determinant, which the float a*d - b*c misses by up to 3e-5.
    # The float pairs' other generator is within the band; exact input needs
    # det 1 exactly, so the exact copy's A (det 1 + 6e-12) is refused first
    exact = tuple(Mat2(*(Fraction(v) for v in (m.a, m.b, m.c, m.d)))
                  for m in NO_DIRECTION_PAIRS[1])
    assert abs(_exact_det(NO_DIRECTION_PAIRS[0][1]) - 1) <= DEFAULT.band
    assert 0 < abs(_exact_det(NO_DIRECTION_PAIRS[1][0]) - 1) <= DEFAULT.band
    for (A, B), name in zip(NO_DIRECTION_PAIRS + (exact,), "ABA"):
        m = A if name == "A" else B
        assert classify_pair(A, B) == Degenerate(
            f"generator {name} determinant is not 1 (band)", float(_exact_det(m)))
    assert abs(NO_DIRECTION_PAIRS[0][0].det() - _exact_det(NO_DIRECTION_PAIRS[0][0])) > 1e-5


def test_the_free_level_reads_both_determinants(free_pair_exact):
    # exact input needs det 1 exactly, read on the integer forms
    def times(m, k):
        return Mat2(m.a * k, m.b * k, m.c * k, m.d * k)
    A, B = free_pair_exact
    k = 1 + Fraction(1, 10 ** 12)
    for pair, name in (((times(A, k), B), "A"), ((A, times(B, k)), "B")):
        assert classify_pair(*pair) == Degenerate(
            f"generator {name} determinant is not 1 (band)", float(k * k))
    # float input: within DEFAULT.band of 1 is decided, past it refused
    F0, G0 = A.to_float(), B.to_float()
    for off in (5e-8, -5e-8, 2e-7, -2e-7):
        G = times(G0, math.sqrt(1 + off))
        c = classify_pair(F0, G)
        if abs(_exact_det(G) - 1) <= DEFAULT.band:
            assert isinstance(c, NonPrincipal) and c.orientation == 1
        else:
            assert c == Degenerate("generator B determinant is not 1 (band)",
                                   float(_exact_det(G)))
    # the float copies of the pullback draws whose dyadic det is past
    # DEFAULT.det (the CLI gate), 1 - 3.7e-9, are within the band and decided
    past = 0
    for (A, B), fword, mirrored in pullback_population(500):
        A, B = A.to_float(), B.to_float()
        if max(abs(_exact_det(m) - 1) for m in (A, B)) > DEFAULT.det:
            past += 1
            c = classify_pair(A, B)
            assert isinstance(c, NonPrincipal), c
            assert (c.fword, c.orientation) == (fword, -1 if mirrored else 1)
    assert past == 2


def _sl2_with_det(rng, scale: float, det: float) -> Mat2:
    """A float matrix with entries up to the scale and det about det."""
    while True:
        a, b, c = (rng.uniform(-scale, scale) for _ in range(3))
        if abs(a) > 1e-3 * scale:
            return Mat2(a, b, c, (det + b * c) / a)


def test_det_in_band_is_the_exact_band_test(monkeypatch):
    # the float determinant with its rounding allowance decides where it
    # can, and the exact read decides the rest: together they are the test
    # |det - 1| <= DEFAULT.band on the entries read exactly
    reads = []
    scaled = twoshift.integer_scaled

    def spy(m):
        reads.append(m)
        return scaled(m)
    monkeypatch.setattr(twoshift, "integer_scaled", spy)
    rng = random.Random(19)
    by_float = 0
    for _ in range(3000):
        scale = 10 ** rng.uniform(0, 6)
        det = 1 + rng.choice((1, -1)) * DEFAULT.band * (1 + rng.uniform(-1e-6, 1e-6))
        m = _sl2_with_det(rng, scale, det)
        reads.clear()
        assert twoshift._det_in_band(m, 1, False) == (abs(_exact_det(m) - 1) <= DEFAULT.band)
        by_float += not reads
    assert 500 < by_float < 2500
    # far from the band's edge, small entries never need the exact read
    reads.clear()
    assert twoshift._det_in_band(Mat2(2.0, 1.0, 1.0, 1.0), 1, False)
    assert not twoshift._det_in_band(Mat2(2.0, 1.0, 1.0, 1.0 + 1e-6), 1, False)
    assert reads == []
    # an integer form of scale s has det s^2 exactly
    assert twoshift._det_in_band(Mat2(4, 2, 2, 2), 2, True)
    assert not twoshift._det_in_band(Mat2(4, 2, 2, 3), 2, True)
