import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercone.sl2core import Mat2
from hypercone.twoshift import (Degenerate, EllipticWitness, NonPrincipal,
                                Principal, TraceTriple, apply_fword_inverse,
                                classify_pair, eval_string, fricke,
                                fword_substitution, is_free, is_twisted,
                                pair_step_minus, pair_step_plus, step_select,
                                trace_step_minus, trace_step_plus)
from tests.conftest import (canonical_pair, check_walk, exact_canonical_pair,
                            rand_conj)


def test_trace_steps_printed_examples():
    assert trace_step_plus(TraceTriple(3, 3, 7)) == (3, 7, 18)
    t = TraceTriple(8.125, 2.5, 3.25)
    assert trace_step_minus(t) == (3.25, 2.5, 0.0)
    assert fricke(TraceTriple(2, 2, 2)) == 4
    assert fricke(trace_step_plus(TraceTriple(2, 2, 2))) == 4


@given(st.tuples(st.integers(-50, 50), st.integers(-50, 50),
                 st.integers(-50, 50)))
@settings(max_examples=500)
def test_fricke_preserved_exactly(t):
    t = TraceTriple(*(Fraction(v, 7) for v in t))
    assert fricke(trace_step_plus(t)) == fricke(t)
    assert fricke(trace_step_minus(t)) == fricke(t)


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
            c = classify_pair(A.scale(sa), B.scale(sb))
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
    t = TraceTriple(A.trace(), B.trace(), (A @ B).trace())
    A1, B1 = pair_step_minus(A, B)
    t1 = trace_step_minus(t)
    assert (A1.trace(), B1.trace(), (A1 @ B1).trace()) == tuple(t1)
    A2, B2 = pair_step_plus(A1, B1)
    t2 = trace_step_plus(t1)
    assert (A2.trace(), B2.trace(), (A2 @ B2).trace()) == tuple(t2)


def test_orientation_exact_fallback_near_parabolic_product():
    # tr AB = -2 - 1e-18: the product's two directions are ~1e-9 apart in
    # floats, inside the escalation window, so the exact comparator decides
    from hypercone.twoshift import orientation_of_free_pair
    z = Fraction(-2) - Fraction(1, 10 ** 18)
    gamma = z - 2  # mu = nu = 2
    A, B = exact_canonical_pair(Fraction(2), Fraction(2), Fraction(1), gamma)
    assert orientation_of_free_pair(A, B) == 1
    D = Mat2(1, 0, 0, -1)
    assert orientation_of_free_pair(D @ A @ D, D @ B @ D) == -1
    c = classify_pair(A, B)
    assert isinstance(c, NonPrincipal) and c.orientation == 1
