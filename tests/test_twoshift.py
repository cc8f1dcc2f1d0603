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
from hypercone.sl2core import Mat2, eigen_data
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
    return twoshift._step_select_traces(traces(A, B), band)[0]


def orientation(A: Mat2, B: Mat2) -> int:
    """+1 when u_B, u_BA, s_BA, s_A occur positively on P1, else -1."""
    return twoshift._orientation((A, 1), (B, 1), (B @ A, 1))


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
    A0, B0 = free_pair
    A, B = apply_fword_inverse(A0, B0, "+-")
    rng = random.Random(13)
    base = classify_pair(A, B)
    for _ in range(50):
        r = rand_conj(rng)
        c = classify_pair(r @ A @ r.inverse(), r @ B @ r.inverse())
        assert isinstance(c, NonPrincipal)
        assert (c.fword, c.sign_pair, c.orientation) == \
            (base.fword, base.sign_pair, base.orientation)


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


def test_orientation_exact_fallback_near_parabolic_product():
    # tr AB = -2 - 1e-18: the product's two directions are ~1e-9 apart in
    # floats, inside the escalation window, so the exact comparator decides
    z = Fraction(-2) - Fraction(1, 10 ** 18)
    gamma = z - 2  # mu = nu = 2
    A, B = exact_canonical_pair(Fraction(2), Fraction(2), Fraction(1), gamma)
    assert orientation(A, B) == 1
    D = Mat2(1, 0, 0, -1)
    assert orientation(D @ A @ D, D @ B @ D) == -1
    c = classify_pair(A, B)
    assert isinstance(c, NonPrincipal) and c.orientation == 1


def test_orientation_guard_reads_the_gap_across_zero(monkeypatch):
    # the near-parabolic pair sheared so that B @ A's two directions, 2e-9
    # either side of angle 0, sit at the two ends of [0, pi): only the
    # cyclic gap across 0 is below the switch, and the exact fallback
    # still decides, reading the three matrices' exact directions
    z = Fraction(-2) - Fraction(1, 10 ** 18)
    A, B = exact_canonical_pair(Fraction(2), Fraction(2), Fraction(1), z - 2)
    (u, _), (s, _) = eigen_data(B @ A)
    P = Mat2(Fraction(1), Fraction(0), -Fraction(math.tan(0.5 * (u.angle + s.angle))),
             Fraction(1))
    A, B = P @ A @ P.inverse(), P @ B @ P.inverse()
    (u, _), (s, _) = eigen_data(B @ A)
    assert u.angle > math.pi - 1e-8 and s.angle < 1e-8
    calls = []
    exact_dirs = twoshift._exact.exact_dirs

    def spy(m):
        calls.append(m)
        return exact_dirs(m)
    monkeypatch.setattr(twoshift._exact, "exact_dirs", spy)
    D = Mat2(1, 0, 0, -1)
    for pair, want in (((A, B), 1), ((D @ A @ D, D @ B @ D), -1)):
        calls.clear()
        c = classify_pair(*pair)
        assert isinstance(c, NonPrincipal) and c.orientation == want
        assert len(calls) == 3


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
    # step builds its two successors once
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
        assert len(builds) <= 2 * len(fword)
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
    # a rational A with a float B is walked at scale 1; when it is free at
    # once (k = 0), A stays a Fraction matrix and BA is mixed, and the
    # orientation must read the angles of eigen_data's points of exactly
    # those matrices (_eigen's angles, reduced as eigen_data's points are)
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
        read = [B1, B1 @ A1, A1]
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


def test_orientation_matches_the_point_reference():
    # classify_pair's orientation of the walked pair and
    # _orientation read eigen_angles; both must give what the
    # ProjPoints of eigen_data and the point cyclic test give
    exact = [pair for pair, _, _ in pullback_population(500)]
    z = Fraction(-2) - Fraction(1, 10 ** 18)
    A, B = exact_canonical_pair(Fraction(2), Fraction(2), Fraction(1), z - 2)
    D = Mat2(1, 0, 0, -1)
    near_parabolic = [(A, B), (D @ A @ D, D @ B @ D)]
    populations = {
        "c01": _strict_free_pairs(1000),
        "pullbacks": exact,
        "pullbacks as floats": [(A.to_float(), B.to_float()) for A, B in exact],
        "mixed": list(_mixed_pairs()),
        "near-parabolic": near_parabolic,
    }
    orientations, fallbacks = {}, {}
    for name, pairs in populations.items():
        seen, fell_back = set(), 0
        for A, B in pairs:
            c = classify_pair(A, B)
            assert isinstance(c, NonPrincipal), (name, A, B, c)
            Ak = A if A.trace() >= 0 else -A
            Bk = B if B.trace() >= 0 else -B
            for sign in c.fword:
                Ak, Bk = (pair_step_plus if sign == "+" else pair_step_minus)(Ak, Bk)
            want, fallback = _point_orientation(Ak, Bk)
            assert c.orientation == want, (name, A, B)
            assert orientation(Ak, Bk) == want, (name, A, B)
            seen.add(want)
            fell_back += fallback
        orientations[name], fallbacks[name] = seen, fell_back
    # both orientations occur where draws are mirrored, and the
    # near-parabolic pairs are decided by the exact fallback alone
    assert orientations["pullbacks"] == orientations["pullbacks as floats"] == {1, -1}
    assert orientations["near-parabolic"] == {1, -1}
    assert fallbacks["near-parabolic"] == 2
    assert orientations["c01"] == {1} and orientations["mixed"] == {1}


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
                Ak, Bk = A1, B1
                for sign in fword:
                    step = pair_step_plus if sign == "+" else pair_step_minus
                    Ak, Bk = step(Ak, Bk)
                return NonPrincipal(fword=fword, sign_pair=(sa, sb),
                                    orientation=orientation(Ak, Bk),
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
    twist_state = twoshift._twist_state

    def spy(s, band):
        calls.append((s.p, s.q, s.r, band))
        return twist_state(s, band)
    monkeypatch.setattr(twoshift, "_twist_state", spy)
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
    # at a successor test: both moves of (1e200, 1e200, 1e200) multiply two
    # of its traces past the float range; a tie in the band still reads as
    # one, as the plus move of (2, 3, 3), with t1 = 0, shows
    for state, reason in (((1e200, 1e200, 1e200), "overflows the float range"),
                          ((2.0, 3.0, 3.0), "in the boundary band")):
        with pytest.raises(DegenerateTie, match=f"^successor twist test {reason}$"):
            twoshift._step_select_traces(_Traces(*state), DEFAULT.band)


def test_a_free_level_verdict_reads_three_eigen_routines_and_one_product(monkeypatch):
    # a NonPrincipal verdict at k = 0 calls the eigen routine for B, B @ A and
    # A, and builds one product Mat2, the form of B @ A: tr(A1 @ B1) builds
    # none.  A Principal verdict calls neither.
    eigen, matmul = twoshift._eigen, Mat2.__matmul__
    calls = []

    def counted_eigen(*args):
        calls.append("eigen")
        return eigen(*args)

    def counted_matmul(x, y):
        calls.append("matmul")
        return matmul(x, y)

    free = _strict_free_pairs(40) + [
        pair for pair, fword, _ in pullback_population(500) if not fword][:20]
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
    for pairs, kind, want in ((free, NonPrincipal, ["eigen"] * 3 + ["matmul"]),
                              (principal, Principal, [])):
        for A, B in pairs:
            calls.clear()
            c = classify_pair(A, B)
            assert isinstance(c, kind) and getattr(c, "iterations", 0) == 0, c
            assert sorted(calls) == want, (A, B)
