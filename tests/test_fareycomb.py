import math
import random
from fractions import Fraction

import pytest

from hypercone.errors import HyperconeError, NotInterior, OrderViolation
from hypercone.fareycomb import (_family_products, _thetas, action_table,
                                 build_order, component_model, farey_interval,
                                 j_of_fword, special_words)
from hypercone.multicone import core_criterion
from hypercone.projgeom import angle_dist
from hypercone.sl2core import Mat2, eigen_data, integer_scaled
from hypercone.symdyn import eval_string
from hypercone.twoshift import apply_fword_inverse
from tests.conftest import canonical_pair
from tests.reference import BadBasePoint, _theta, orbit_words, rotation_orbit_word
from tests.test_acceptance import REFLECT, _mild_exact_base

FIGURE_ORDER_2_5 = ["BABAA", "BA", "ABABA", "AB", "AABAB",
                    "AAB", "ABAAB", "ABA", "BAABA", "BAA"]


def brute_force_parents(f: Fraction):
    """Stern-Brocot style oracle for the Farey parents."""
    p, q = f.numerator, f.denominator
    best_lo, best_hi = None, None
    for q0 in range(1, q):
        for p0 in range(0, q0 + 1):
            g = Fraction(p0, q0)
            if g.denominator != q0:
                continue  # not in lowest terms
            if g < f and (best_lo is None or g > best_lo):
                best_lo = g
            if g > f and (best_hi is None or g < best_hi):
                best_hi = g
    return best_lo, best_hi


def test_farey_interval_examples():
    assert farey_interval(Fraction(2, 5)) == (Fraction(1, 3), Fraction(1, 2))
    assert farey_interval(Fraction(1, 2)) == (Fraction(0, 1), Fraction(1, 1))
    assert farey_interval(Fraction(3, 7)) == (Fraction(2, 5), Fraction(1, 2))


def test_farey_interval_identities_all_q_up_to_12():
    count = 0
    for q in range(2, 13):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            count += 1
            f = Fraction(p, q)
            lo, hi = farey_interval(f)
            assert lo.numerator + hi.numerator == p
            assert lo.denominator + hi.denominator == q
            assert (hi.numerator * lo.denominator
                    - lo.numerator * hi.denominator) == 1
            assert (lo, hi) == brute_force_parents(f)
    # Euler phi sum over q = 2..12
    assert count == 45


def test_farey_interval_rejects_endpoints():
    with pytest.raises(NotInterior):
        farey_interval(Fraction(0, 1))
    with pytest.raises(NotInterior):
        farey_interval(Fraction(1, 1))


def test_rotation_orbit_words():
    assert rotation_orbit_word(Fraction(2, 5), Fraction(0)).letters == "AABAB"
    assert rotation_orbit_word(Fraction(2, 5), Fraction(2, 5)).letters == "ABABA"
    assert rotation_orbit_word(Fraction(1, 2), Fraction(0)).letters == "AB"


@pytest.mark.parametrize("f, letters", [(Fraction(0), "A"), (Fraction(1), "B")])
def test_rotation_orbit_word_integer_rotation(f, letters):
    # q = 1 runs the integer orbit like every other q: integer starts give
    # the one-letter word at base 0, and a start off the grid is refused
    for start in (Fraction(0), Fraction(1), Fraction(-3)):
        rw = rotation_orbit_word(f, start)
        assert (rw.letters, rw.base, rw.rotation) == (letters, 0, f)
    with pytest.raises(BadBasePoint):
        rotation_orbit_word(f, Fraction(1, 2))


def fraction_orbit_word(f: Fraction, start: Fraction) -> str:
    """Theta(start) by stepping x -> x + f mod 1 in Fractions, kept as the
    oracle of the integer orbit."""
    x, out = Fraction(start) % 1, []
    for _ in range(f.denominator):
        out.append("A" if x < 1 - f else "B")
        x = (x + f) % 1
    return "".join(out)


def test_rotation_orbit_word_matches_fraction_orbit():
    for q in range(2, 41):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            f = Fraction(p, q)
            for i in range(q):
                rw = rotation_orbit_word(f, Fraction(i, q))
                assert rw.letters == fraction_orbit_word(f, Fraction(i, q))
                assert rw.base == Fraction(i, q)
            # base points are taken mod 1
            assert rotation_orbit_word(f, Fraction(q + 1, q)).letters == \
                fraction_orbit_word(f, Fraction(1, q))
            with pytest.raises(BadBasePoint):
                rotation_orbit_word(f, Fraction(1, 2 * q))


def test_thetas_slice_one_orbit_string():
    # the library slices what the reference reads code by code, for any
    # integer k, the parents 0/1 and 1/1 included
    for q in range(1, 20):
        for p in range(q + 1):
            if math.gcd(p, q) != 1:
                continue
            theta = _thetas(p, q)
            assert [theta(k) for k in range(-2 * q, 2 * q)] == \
                [_theta(p, q, k) for k in range(-2 * q, 2 * q)]


def test_orbit_words_cardinality_and_letter_counts():
    for q in range(2, 13):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            words = orbit_words(Fraction(p, q))
            assert len({w.letters for w in words}) == q
            for w in words:
                assert w.letters.count("B") == p
            lex = sorted(w.letters for w in words)
            assert lex[0] == rotation_orbit_word(Fraction(p, q),
                                                 Fraction(0)).letters
            assert lex[-1] == rotation_orbit_word(Fraction(p, q),
                                                  Fraction(q - 1, q)).letters


def test_build_order_matches_figure():
    fam = build_order(Fraction(2, 5))
    assert fam.words() == FIGURE_ORDER_2_5
    assert fam.lex_first == "AABAB"
    assert fam.lex_last == "BABAA"


def test_build_order_base_case():
    fam = build_order(Fraction(1, 2))
    assert fam.words() == ["BA", "B", "AB", "A"]


def test_build_order_alternation_and_subfamily_orders():
    for f in (Fraction(2, 5), Fraction(3, 7), Fraction(2, 7), Fraction(5, 8)):
        fam = build_order(f)
        tags = [fw.tag for fw in fam.order]
        assert all(t == "center" for t in tags[::2])
        assert all(t != "center" for t in tags[1::2])
        # forward order = reversed emission; parent1 words appear
        # lexicographically increasing along the arc after the lex-first word
        plus = [fw for fw in reversed(fam.order)]
        start = next(i for i, fw in enumerate(plus) if fw.word == fam.lex_first)
        rotated = plus[start:] + plus[:start]
        p1 = [fw.word for fw in rotated if fw.tag == "parent1"]
        assert p1 == sorted(p1)
        p0 = [fw.word for fw in rotated if fw.tag == "parent0"]
        assert p0 == sorted(p0, reverse=True)
        # the element after the lex-first word belongs to the parent1 side
        assert rotated[1].tag in ("parent1",)


def test_j_of_fword():
    assert j_of_fword("") == Fraction(1, 2)
    assert j_of_fword("+") == Fraction(1, 3)
    assert j_of_fword("-") == Fraction(2, 3)
    assert j_of_fword("+-") == Fraction(2, 5)


def test_special_words_2_5():
    sw = special_words(Fraction(2, 5))
    assert sw["last_ending_a"] == "ABABA"
    assert sw["last_ending_b"] == "ABAAB"
    assert sw["a_sink"] == "AABAB"
    assert sw["b_sink"] == "BABAA"   # Theta(1 - 1/q), the lex-last word


def test_action_table_2_5():
    table = action_table(Fraction(2, 5))
    assert table["ABABA"]["A"] == ("AABAB", False)  # the final-letter shift
    assert table["BABAA"]["A"] == ("ABABA", True)
    assert table["AABAB"]["B"] == ("BAABA", True)
    assert table["ABABA"]["B"] == ("BABAA", False)  # absorbed into the sink


def test_action_table_free_level():
    table = action_table(Fraction(1, 2))
    assert table["AB"]["A"] == ("AB", False)
    assert table["BA"]["A"] == ("AB", False)
    assert table["AB"]["B"] == ("BA", False)  # threshold word


def test_component_model_free_pair(free_pair):
    model = component_model(*free_pair, "")
    assert model.fraction == Fraction(1, 2)
    assert model.orientation == 1
    assert model.cores.rank == 2
    # arcs span [u_A, u_AB] and [u_B, u_BA]
    u = model.u_points
    arcs = model.cores.u_arcs
    assert arcs[0].start.angle == pytest.approx(u["A"].angle)
    assert arcs[0].end.angle == pytest.approx(u["AB"].angle)
    assert arcs[1].start.angle == pytest.approx(u["B"].angle)
    assert arcs[1].end.angle == pytest.approx(u["BA"].angle)


def test_component_model_action_consistency(free_pair_exact):
    pair = apply_fword_inverse(*free_pair_exact, "+-")
    model = component_model(*pair, "+-")
    assert model.cores.rank == 5
    # the symbolic action transports unstable points exactly
    for w, row in model.table.items():
        target, exact = row["A"]
        if exact:
            m = eval_string(pair, w)
            moved = pair[0].act_angle(model.u_points[w].angle)
            assert angle_dist(moved, model.u_points[target].angle) <= 1e-9
    rep = core_criterion(pair, model.cores)
    assert rep.ok


def test_component_model_rank_equals_denominator(free_pair_exact):
    for fword in ("+", "-", "+-", "--"):
        pair = apply_fword_inverse(*free_pair_exact, fword)
        model = component_model(*pair, fword)
        assert model.cores.rank == j_of_fword(fword).denominator


def test_component_model_rejects_wrong_component(free_pair):
    with pytest.raises(OrderViolation):
        component_model(*free_pair, "+-")  # pair is in the free component


def test_component_model_mirror(free_pair):
    D = Mat2(1, 0, 0, -1)
    A, B = free_pair
    model = component_model(D @ A @ D, D @ B @ D, "")
    assert model.orientation == -1
    rep = core_criterion((D @ A @ D, D @ B @ D), model.cores)
    assert rep.ok


# one sign word per component rank 2..20 (the rank is the denominator of j)
PULLBACK_FWORDS = ("", "+", "++", "+-", "++++", "++-", "+-+", "+++-", "++--",
                   "++-+", "+--+", "+-+-", "+++-+", "++-++", "+---+", "++--+",
                   "++-+-", "+-++-", "+----+")


def exact_pullbacks(seed: int = 707, fwords=PULLBACK_FWORDS):
    """(pair, fword, model) per sign word, by default one per rank 2..20: the
    acceptance suite's mild exact base pulled back along the sign word, as
    pullback_population draws, every other one mirrored; a draw whose
    component model fails is drawn again (up to 5 times)."""
    rng = random.Random(seed)
    out = []
    for i, fword in enumerate(fwords):
        for _ in range(5):
            A, B = apply_fword_inverse(*_mild_exact_base(rng, len(fword)), fword)
            if i % 2:
                A, B = REFLECT @ A @ REFLECT, REFLECT @ B @ REFLECT
            try:
                out.append(((A, B), fword, component_model(A, B, fword)))
                break
            except HyperconeError:
                continue
    return out


def test_family_products_match_eval_string_exactly():
    pullbacks = exact_pullbacks()
    ranks = [model.cores.rank for _, _, model in pullbacks]
    assert ranks == list(range(2, 21))
    # integer entries and a determinant other than 1 take the same path
    extra = [((Mat2(2, 1, 1, 1), Mat2(1, -1, -1, 2)), "+-+"),
             ((Mat2(Fraction(3), Fraction(1, 2), Fraction(-1), Fraction(2, 3)),
               Mat2(Fraction(1, 5), Fraction(2), Fraction(1), Fraction(-7))), "++-")]
    for pair, fword in [(pair, fword) for pair, fword, _ in pullbacks] + extra:
        family = build_order(j_of_fword(fword))
        products = _family_products(pair, family, True)
        assert set(products) == set(family.words())
        for w, (n, scale) in products.items():
            entries = (n.a, n.b, n.c, n.d)
            assert all(type(v) is int for v in entries) and type(scale) is int
            exact = Mat2(*(Fraction(v, scale) for v in entries))
            assert exact == eval_string(pair, w), (fword, w)
            assert math.gcd(*entries, scale) == 1, (fword, w)  # lowest terms
        # float input has scale 1 and the bits of eval_string's product
        fpair = tuple(m.to_float() for m in pair)
        for w, (n, scale) in _family_products(fpair, family, False).items():
            assert scale == 1 and repr(n) == repr(eval_string(fpair, w)), (fword, w)


def test_family_products_share_prefixes(monkeypatch):
    # the 62 words of +--+-+ (rank 31) have 524 distinct prefixes longer than
    # a letter, one product each, which float input takes; exact input takes
    # at most 3 per word: a cyclic class's prefixes, suffixes and rotations
    family = build_order(j_of_fword("+--+-+"))
    assert family.fraction == Fraction(13, 31)
    calls = []
    matmul = Mat2.__matmul__

    def counted(x, y):
        calls.append(None)
        return matmul(x, y)

    monkeypatch.setattr(Mat2, "__matmul__", counted)
    _family_products((Mat2(2.0, 1.0, 1.0, 1.0), Mat2(1.0, 1.0, 1.0, 2.0)), family, False)
    assert len(calls) == 524
    calls.clear()
    exact = (Mat2(Fraction(3, 2), Fraction(1, 2), Fraction(1, 2), Fraction(5, 6)),
             Mat2(1, 1, 1, 2))
    _family_products(exact, family, True)
    assert len(calls) <= 3 * len(family.order) == 186


# sign words of rank 25 to 34: pullback_population's separation filter drops
# every draw this deep, so exact_pullbacks draws them
DEEP_FWORDS = ("++-+--", "+-+++-", "++-++-", "+--++-", "-+-+--",
               "+-++-+", "+--+-+", "-++-+-", "-+-+-+", "+-+-+-")


def test_component_model_exact_points_are_eval_string_bits():
    # a family word's directions are those of its exact product, whatever
    # form (scale, order of products) component_model multiplied it in
    deep = exact_pullbacks(808, DEEP_FWORDS)
    assert [model.cores.rank for _, _, model in deep] == \
        [j_of_fword(f).denominator for f in DEEP_FWORDS]
    for pair, fword, model in exact_pullbacks() + deep:
        for fw in model.family.order:
            (u, _), (s, _) = eigen_data(*integer_scaled(eval_string(pair, fw.word)))
            assert model.u_points[fw.word] == u and model.s_points[fw.word] == s, \
                (fword, fw.word)


def test_component_model_float_points_are_eval_string_bits():
    # entries far from dyadic, so a product taken another way moves its bits
    mu, nu = 1.3, 1.7
    base = canonical_pair(mu, nu, 1.0, -2.3 - mu / nu - nu / mu)
    for fword in ("", "+", "+-", "-+-"):
        pair = apply_fword_inverse(*base, fword)
        model = component_model(*pair, fword)
        for fw in model.family.order:
            (u, _), (s, _) = eigen_data(eval_string(pair, fw.word))
            assert model.u_points[fw.word] == u and model.s_points[fw.word] == s
    # so for mixed float/exact input, whose words of exact letters only are
    # exact products
    for (A, B), fword, _ in exact_pullbacks()[:6]:
        for pair in ((A, B.to_float()), (A.to_float(), B)):
            model = component_model(*pair, fword)
            for fw in model.family.order:
                (u, _), (s, _) = eigen_data(eval_string(pair, fw.word))
                assert model.u_points[fw.word] == u and model.s_points[fw.word] == s
