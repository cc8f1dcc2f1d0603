import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercone.errors import DegenerateInput, InadmissibleWord, PreconditionViolated
from hypercone.multicone import compute_cores
from hypercone.sl2core import Mat2, spectral_norm
from hypercone.symdyn import (RateReport, Sft, admissible_entries, hyperbolicity_rate,
                              periodic_entries, periodic_words, product,
                              render_word)
from hypercone.witness import (best_heteroclinic, diagnose_boundary,
                               search_elliptic, search_parabolic)
from tests.conftest import group_tuple
from tests.reference import admissible, cyclically_admissible, dual, parse_word

GOLDEN = Sft(2, ((True, True), (True, False)))


# brute-force oracles for the Lyndon-word enumeration


def min_rotation(w):
    return min(w[i:] + w[:i] for i in range(len(w)))


def is_primitive(w):
    n = len(w)
    return not any(n % p == 0 and w == w[p:] + w[:p] for p in range(1, n))


def test_full_shift_and_dual():
    s = Sft.full(3)
    assert s.is_full
    assert dual(s) == s


def test_one_way_cycle_dual():
    # directed 3-cycle is transitive; the dual reverses every arrow
    s = Sft(3, ((False, True, False), (False, False, True),
                (True, False, False)))
    d = dual(s)
    assert d.allowed == ((False, False, True), (True, False, False),
                         (False, True, False))
    assert dual(d) == s


def test_transitivity_enforced():
    with pytest.raises(DegenerateInput):
        Sft(2, ((True, False), (False, True)))  # two isolated loops


def test_a_table_without_a_cycle_is_refused():
    # one letter without its self-loop: transitive, yet no infinite word
    with pytest.raises(DegenerateInput, match="no cycle"):
        Sft(1, ((False,),))
    assert Sft(1, ((True,),)).is_full


def test_sft4_rejects_forbidden_word(sft4):
    assert not admissible(sft4, (0, 2))
    assert admissible(sft4, (0, 1, 2))
    with pytest.raises(InadmissibleWord):
        product((Mat2.identity(),) * 4, (0, 2), sft4)


def test_product_convention(free_pair):
    A, B = free_pair
    p = product((A, B), (0, 1))  # word AB in orbit order: B acts last
    q = B @ A
    assert p == q
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


def test_brute_force_class_count(sft4):
    # independent count: all cyclically admissible words, grouped by rotation,
    # primitive classes only; the restricted shifts exercise the pruning of
    # forbidden transitions inside the generator
    for sft, n_max in ((Sft.full(2), 6), (sft4, 6), (GOLDEN, 10)):
        got = list(periodic_words(sft, n_max))
        assert got == sorted(got, key=lambda w: (len(w), w))
        for n in range(1, n_max + 1):
            classes = set()
            for w in itertools.product(range(sft.n_symbols), repeat=n):
                if cyclically_admissible(sft, w) and is_primitive(w):
                    classes.add(min_rotation(w))
            assert [w for w in got if len(w) == n] == sorted(classes)


def test_golden_mean_single_letters_need_self_loops():
    assert list(periodic_words(GOLDEN, 3)) == [(0,), (0, 1), (0, 0, 1)]
    assert not cyclically_admissible(GOLDEN, (1,))


def _exact(mats):
    """The tuple with each float entry as the Fraction it is."""
    return tuple(Mat2(*map(Fraction, (m.a, m.b, m.c, m.d))) for m in mats)


def _quotient(m, scale) -> Mat2:
    """A walk's entries / scale, exact on integer entries: the scale is 1
    on float input, and float * Fraction(1) keeps the float's bits."""
    return Mat2(*(v * Fraction(1, scale) for v in m))


@pytest.mark.parametrize("shift", ["full2", "sft4", "golden"])
def test_periodic_products_match_product(shift, sft4, free_pair):
    A, B = free_pair
    mats, sft, n_max = {"full2": ((A, B), Sft.full(2), 10),
                        "sft4": ((A, B, A.inverse(), B.inverse()), sft4, 7),
                        "golden": ((A, B), GOLDEN, 12)}[shift]
    for tup in (mats, _exact(mats)):
        pairs = list(periodic_entries(tup, sft, n_max))
        assert [w for w, _, _ in pairs] == list(periodic_words(sft, n_max))
        for w, m, scale in pairs[::5] + pairs[-3:]:
            assert _quotient(m, scale) == product(tup, w, sft)


@pytest.mark.parametrize("shift", ["full2", "sft4", "golden"])
def test_admissible_entries_match_product(shift, sft4, free_pair):
    # every admissible word in shortlex order, with product()'s entries
    A, B = free_pair
    mats, sft, n_max = {"full2": ((A, B), Sft.full(2), 8),
                        "sft4": ((A, B, A.inverse(), B.inverse()), sft4, 5),
                        "golden": ((A, B), GOLDEN, 10)}[shift]
    for tup in (mats, _exact(mats)):
        got = list(admissible_entries(tup, sft, n_max))
        assert [w for w, _, _ in got] == [
            w for n in range(1, n_max + 1)
            for w in itertools.product(range(sft.n_symbols), repeat=n)
            if admissible(sft, w)]
        for w, m, scale in got:
            assert _quotient(m, scale) == product(tup, w, sft)


def _cycle_shift(n, loop=False):
    """n symbols, each allowed only before its successor mod n: the one
    primitive cyclic class is 0 1 ... n-1.  With loop, 0 may also precede
    itself, and 0^k 1 ... n-1 is a primitive cyclic class for every k >= 1."""
    return Sft(n, tuple(tuple(j == (i + 1) % n or loop and i == j == 0
                              for j in range(n)) for i in range(n)))


def test_long_float_words_need_no_determinant_check():
    # 26 copies of a det-1 matrix over the looped 26-cycle: past 64 letters
    # a float product's a*d - b*c is rounding noise (about 1e38 at 65
    # letters), yet every walk and search reads its entries to 70 letters
    mats = [Mat2(2.0, 1.0, 1.0, 1.0)] * 26
    loop = _cycle_shift(26, loop=True)
    w = (0,) * 45 + tuple(range(1, 26))
    assert product(mats, w, loop).trace() > 1e28
    assert max(len(v) for v, _, _ in periodic_entries(mats, loop, 70)) == 70
    assert max(len(v) for v, _, _ in admissible_entries(mats, loop, 70)) == 70
    # every class is a power of the symmetric generator: each rate is its norm
    assert hyperbolicity_rate(mats, loop, 70).value == pytest.approx((3 + 5 ** 0.5) / 2)
    assert search_elliptic(mats, loop, 70) is None
    assert search_parabolic(mats, loop, 70) is None


def test_det_drift_allows_determinant_minus_one():
    # 65 factors of the swap: det -1 exactly, no drift
    assert product((Mat2(0., 1., 1., 0.),), (0,) * 65).det() == -1.0


def test_det_drift_not_raised_on_exact_words():
    sft = _cycle_shift(26, loop=True)
    mats = [Mat2(Fraction(10 ** 7 + 1, 10 ** 7), Fraction(0), Fraction(0),
                 Fraction(1))] * 26
    w = (0,) * 45 + tuple(range(1, 26))
    p = product(mats, w, sft)
    assert p.det() == Fraction(10 ** 7 + 1, 10 ** 7) ** 70
    got = {v: _quotient(m, scale) for v, m, scale in periodic_entries(mats, sft, 70)}
    assert got[w] == p


def test_walks_refuse_more_symbols_than_letters():
    # a word over 27 symbols could not be rendered in LETTERS
    mats = [Mat2(2.0, 1.0, 1.0, 1.0)] * 27
    for walk in (periodic_entries, admissible_entries):
        with pytest.raises(PreconditionViolated, match="26 letters"):
            next(walk(mats, Sft.full(27), 1))
        assert next(walk(mats[:26], Sft.full(26), 1))[0] == (0,)


@pytest.mark.parametrize("n, depth", [(2, 12), (3, 7), (4, 5), ("golden", 12),
                                      ("sft4", 6), ("cycle", 9), ("looped", 9)])
def test_periodic_products_match_min_rotation_filter(n, depth, sft4):
    # order and products against brute force, on full shifts and on
    # subshifts, where the successor table prunes the tree: the golden mean,
    # SFT4 and the one-way 3-cycle, bare (one class) and with a loop at 0
    sft = {"golden": GOLDEN, "sft4": sft4, "cycle": _cycle_shift(3),
           "looped": _cycle_shift(3, loop=True)}.get(n) or Sft.full(n)
    k_max = sft.n_symbols
    mats = [Mat2(1, k + 1, 0, 1) @ Mat2(1, 0, -k, 1) for k in range(k_max)]
    expected = [w for length in range(1, depth + 1)
                for w in itertools.product(range(k_max), repeat=length)
                if w == min_rotation(w) and is_primitive(w)
                and cyclically_admissible(sft, w)]
    got = list(periodic_entries(mats, sft, depth))
    assert [w for w, _, _ in got] == expected
    for w, m, scale in got[::7]:
        assert _quotient(m, scale) == product(mats, w)


def _count_products(monkeypatch):
    import hypercone.symdyn as symdyn_mod
    products = []

    def counted(x, y, _orig=symdyn_mod._times):
        products.append(1)
        return _orig(x, y)
    monkeypatch.setattr(symdyn_mod, "_times", counted)
    return products


@pytest.mark.parametrize("n, depth, nodes", [(2, 12, 1267), (3, 8, 1649),
                                             ("sft4", 8, 1962)])
def test_lyndon_tree_builds_only_the_last_level_words_read(monkeypatch, sft4, n,
                                                             depth, nodes):
    # the deepest level holds only cyclically admissible Lyndon words: the
    # tree has n roots and one entry product per other node
    sft = sft4 if n == "sft4" else Sft.full(n)
    products = _count_products(monkeypatch)
    mats = [Mat2.identity()] * sft.n_symbols
    words = [w for w, _, _ in periodic_entries(mats, sft, depth)]
    assert words == list(periodic_words(sft, depth))
    assert sft.n_symbols + len(products) == nodes


@pytest.mark.parametrize("case, depth, count", [("free", 12, 1265),
                                                ("group", 8, 1958)])
def test_rate_and_searches_count_entry_products(monkeypatch, free_pair, sft4,
                                                 case, depth, count):
    mats, sft = {"free": (free_pair, Sft.full(2)),
                 "group": (group_tuple(free_pair), sft4)}[case]
    products = _count_products(monkeypatch)
    for search in (hyperbolicity_rate, search_elliptic, search_parabolic):
        products.clear()
        search(mats, sft, depth)
        assert len(products) == count


def _uncut_rate(mats, sft, n_max):
    """hyperbolicity_rate without the Frobenius cut, every class's norm and
    root taken, and the lengths at which its minimum improved."""
    best, best_w, gains = None, (), []
    for w, m, scale in periodic_entries(mats, sft, n_max):
        r = spectral_norm(*m, scale) ** (1.0 / len(w))
        if best is None or r < best:
            best, best_w = r, w
            gains.append(len(w))
    return RateReport(value=best, word=best_w, depth=n_max), gains


def _count_norms(monkeypatch):
    import hypercone.symdyn as symdyn_mod
    norms = []

    def counted(*args, _orig=symdyn_mod.spectral_norm):
        norms.append(args)
        return _orig(*args)
    monkeypatch.setattr(symdyn_mod, "spectral_norm", counted)
    return norms


@pytest.mark.parametrize("case, depth, classes, count", [("free", 12, 747, 2),
                                                         ("free_exact", 12, 747, 2),
                                                         ("group", 6, 198, 3)])
def test_rate_takes_norms_only_within_the_frobenius_cut(monkeypatch, free_pair, sft4,
                                                        case, depth, classes, count):
    # ||P||^2 >= |P|_F^2 / 2: past the first class, only classes that could
    # beat the best so far take spectral_norm and the root; exact input
    # compares its integer square sum with the cut times S^2
    exact = tuple(Mat2(*map(Fraction, (m.a, m.b, m.c, m.d))) for m in free_pair)
    mats, sft = {"free": (free_pair, Sft.full(2)),
                 "free_exact": (exact, Sft.full(2)),
                 "group": (group_tuple(free_pair), sft4)}[case]
    expected, _ = _uncut_rate(mats, sft, depth)
    norms = _count_norms(monkeypatch)
    assert hyperbolicity_rate(mats, sft, depth) == expected
    assert len(list(periodic_words(sft, depth))) == classes
    assert len(norms) == count


def test_rate_cut_follows_a_minimum_that_improves_to_the_deepest_length(monkeypatch):
    # the first seeded float pair whose minimum lies at the deepest length;
    # the cut is retaken at each length and each new best
    rng = random.Random("rate cut")
    sft, depth = Sft.full(2), 10

    def draw():
        while True:
            a, b, c = (rng.uniform(-3.0, 3.0) for _ in range(3))
            if abs(a) >= 0.25:
                return Mat2(a, b, c, (1 + b * c) / a)
    while True:
        mats = (draw(), draw())
        expected, gains = _uncut_rate(mats, sft, depth)
        if len(expected.word) == depth:
            break
    assert len(set(gains)) >= 4
    norms = _count_norms(monkeypatch)
    assert hyperbolicity_rate(mats, sft, depth) == expected
    assert len(gains) <= len(norms) < len(list(periodic_words(sft, depth))) // 10


def test_rate_cut_on_exact_input_matches_the_uncut_loop(monkeypatch):
    # seeded exact pairs and triples, full shift and golden mean, small
    # denominators and ones whose scale^2 leaves the float range (no cut
    # there): value and word are those of the loop that takes every norm
    rng = random.Random("exact rate cut")
    golden = Sft(2, ((True, True), (True, False)))

    def draw(big):
        while True:
            q = rng.randint(1, 3) * (2 ** 520 + 1 if big else 1)
            a, b, c = (Fraction(rng.randint(-6 * q, 6 * q), q) for _ in range(3))
            if abs(a) >= Fraction(1, 4):
                return Mat2(a, b, c, (1 + b * c) / a)
    cut = spared = 0
    for i in range(16):
        n, big = 2 + i % 2, i % 4 == 3
        mats = tuple(draw(big) for _ in range(n))
        sft = golden if n == 2 and i % 8 < 4 else Sft.full(n)
        depth = 7 if n == 2 else 5
        expected, _ = _uncut_rate(mats, sft, depth)
        norms = _count_norms(monkeypatch)
        assert hyperbolicity_rate(mats, sft, depth) == expected
        classes = len(list(periodic_words(sft, depth)))
        if big:
            assert len(norms) == classes
        else:
            cut += 1
            spared += len(norms) < classes
        monkeypatch.undo()
    assert spared == cut


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


WALK_CALLS = pytest.mark.parametrize("call", [
    lambda m, sft: compute_cores(m, sft),
    lambda m, sft: best_heteroclinic(m, sft, 2, 2, 1),
    lambda m, sft: search_elliptic(m, sft, 3),
    lambda m, sft: search_parabolic(m, sft, 3),
    lambda m, sft: hyperbolicity_rate(m, sft, 3),
    lambda m, sft: diagnose_boundary(m, sft, budget=(2, 2, 1)),
], ids=["compute_cores", "best_heteroclinic", "search_elliptic",
        "search_parabolic", "hyperbolicity_rate", "diagnose_boundary"])


@WALK_CALLS
@pytest.mark.parametrize("count", [1, 3])
def test_one_matrix_per_symbol(call, count):
    mats = (Mat2(2, 1, 1, 1),) * count
    with pytest.raises(PreconditionViolated, match=f"{count} matrices for 2 symbols"):
        call(mats, Sft.full(2))


@WALK_CALLS
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
def test_walks_refuse_non_finite_entries(call, bad):
    # a non-finite entry has no integer ratio and leaves every norm and
    # trace NaN or infinite, so every walk refuses it, also next to exact
    # entries
    for mats in ((Mat2(bad, 1.0, 1.0, 1.0), Mat2(1.0, 1.0, 1.0, 2.0)),
                 (Mat2(2, 1, 1, 1), Mat2(1, 1, bad, 2))):
        with pytest.raises(DegenerateInput, match=f"entry {bad!r} is not finite"):
            call(mats, Sft.full(2))
