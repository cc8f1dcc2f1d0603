import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercone.errors import DegenerateInput, InadmissibleWord
from hypercone.sl2core import Mat2
from hypercone.symdyn import (Sft, hyperbolicity_rate, is_primitive,
                              min_rotation, necklace_products, parse_word,
                              periodic_words, product, render_word)


def test_full_shift_and_dual():
    s = Sft.full(3)
    assert s.is_full
    assert s.dual() == s


def test_one_way_cycle_dual():
    # directed 3-cycle is transitive; the dual reverses every arrow
    s = Sft(3, ((False, True, False), (False, False, True),
                (True, False, False)))
    d = s.dual()
    assert d.allowed == ((False, False, True), (True, False, False),
                         (False, True, False))
    assert d.dual() == s


def test_transitivity_enforced():
    with pytest.raises(DegenerateInput):
        Sft(2, ((True, False), (False, True)))  # two isolated loops


def test_sft4_rejects_forbidden_word(sft4):
    assert not sft4.admissible((0, 2))
    assert sft4.admissible((0, 1, 2))
    with pytest.raises(InadmissibleWord):
        product((Mat2.identity(),) * 4, (0, 2), sft4)


def test_product_convention(free_pair):
    A, B = free_pair
    p = product((A, B), (0, 1))  # word AB in orbit order: B acts last
    q = B @ A
    assert p.rows() == q.rows()
    assert p.trace() == pytest.approx((A @ B).trace())  # cyclic trace equality


def test_product_trace_zero_fixture():
    A = Mat2(2, 1, 0, 0.5)
    B = Mat2(0.5, 0, -2, 2)
    assert product((A, B), (0, 1)).trace() == pytest.approx(0.0, abs=1e-12)


def test_product_split_composition():
    rng = random.Random(7)
    mats = (Mat2(2, 1, 0, 0.5), Mat2(0.5, 0, -9, 2))
    sft = Sft.full(2)
    for _ in range(100):
        n = rng.randint(2, 10)
        w = tuple(rng.randint(0, 1) for _ in range(n))
        k = rng.randint(1, n - 1)
        full = product(mats, w, sft)
        left = product(mats, w[:k], sft)
        right = product(mats, w[k:], sft)
        combined = right @ left
        for v, u in zip((full.a, full.b, full.c, full.d),
                        (combined.a, combined.b, combined.c, combined.d)):
            assert u == pytest.approx(v, rel=1e-9, abs=1e-9)


def test_periodic_words_full_2_shift():
    words = list(periodic_words(Sft.full(2), 2))
    assert words == [(0,), (1,), (0, 1)]


def test_periodic_words_singletons():
    assert list(periodic_words(Sft.full(4), 1)) == [(0,), (1,), (2,), (3,)]


def test_periodic_words_exclude_forbidden(sft4):
    words = set(periodic_words(sft4, 2))
    assert (0, 2) not in words
    assert (0, 1) in words


def test_periodic_words_primitive_and_canonical():
    for w in periodic_words(Sft.full(2), 6):
        assert is_primitive(w)
        assert w == min_rotation(w)


def test_brute_force_class_count():
    # independent count: all cyclically admissible words, grouped by rotation,
    # primitive classes only
    sft = Sft.full(2)
    for n in range(1, 7):
        import itertools
        classes = set()
        for w in itertools.product((0, 1), repeat=n):
            if sft.cyclically_admissible(w) and is_primitive(w):
                classes.add(min_rotation(w))
        got = [w for w in periodic_words(sft, n) if len(w) == n]
        assert set(got) == classes


@pytest.mark.parametrize("n, depth", [(2, 12), (3, 7), (4, 5)])
def test_necklace_products_match_min_rotation_filter(n, depth):
    import itertools
    mats = [Mat2(1, k + 1, 0, 1) @ Mat2(1, 0, -k, 1) for k in range(n)]
    expected = [w for length in range(1, depth + 1)
                for w in itertools.product(range(n), repeat=length)
                if w == min_rotation(w)]
    got = list(necklace_products(mats, depth))
    assert [w for w, _ in got] == expected
    for w, p in got[::7]:
        assert p == product(mats, w)


def test_rate_single_diagonal():
    rep = hyperbolicity_rate((Mat2(2, 0, 0, 0.5),), Sft.full(1), 5)
    assert rep.value == pytest.approx(2.0, rel=1e-12)
    assert rep.word == (0,)


def test_rate_rotation_dips_to_one():
    rot = Mat2.rotation(math.pi / 2)
    rep = hyperbolicity_rate((rot,), Sft.full(1), 4)
    assert rep.value == pytest.approx(1.0, abs=1e-9)


def test_rate_monotone_in_depth(free_pair):
    sft = Sft.full(2)
    values = [hyperbolicity_rate(free_pair, sft, n).value for n in (2, 4, 6, 8)]
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-12
    assert values[-1] > 1.0


def test_word_rendering():
    assert render_word((0, 1, 0)) == "ABA"
    assert parse_word("bab") == (1, 0, 1)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=10))
@settings(max_examples=200)
def test_min_rotation_is_rotation(w):
    w = tuple(w)
    r = min_rotation(w)
    assert sorted(r) == sorted(w)
    assert any(r == w[i:] + w[:i] for i in range(len(w)))
