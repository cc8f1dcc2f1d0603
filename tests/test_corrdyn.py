import itertools
import math
import random
from fractions import Fraction

import pytest

from hypercone.corrdyn import (CombMulticone, Morphism, classify_two_morphism,
                               constant_corr, induced_morphism, morphism_hyperbolic,
                               morphism_tight, reflect, solve_s_from_u, validate,
                               winding_matrix)
from hypercone.errors import (EllipticAlongWord, NotMonotonic,
                              StructureViolation)
from hypercone.fareycomb import action_table, component_model, j_of_fword
from hypercone.multicone import core_criterion
from hypercone.sl2core import Mat2
from hypercone.twoshift import apply_fword_inverse
from tests.lifts import height, lift_height_zero, winding_comb
from tests.reference import (all_correspondences, compose, identity_corr, is_constant,
                             morphism_from_json, morphism_json, nonrealizable_fixture,
                             reduce_tight)
from tests.test_fareycomb import exact_pullbacks


def test_identity_and_constant_are_monotonic():
    for q in (1, 2, 3, 5):
        mc = CombMulticone(rank=q)
        i = identity_corr(mc)
        validate(mc, i.u, i.s)
        c = constant_corr(mc, mc.u_labels()[0], mc.s_labels()[-1])
        validate(mc, c.u, c.s)
        assert is_constant(c) and (q == 1 or not is_constant(i))


def test_transposition_with_identity_s_invalid():
    mc = CombMulticone(rank=2)
    u = (mc.u_label(1), mc.u_label(0))
    s = tuple(mc.s_labels())
    with pytest.raises(NotMonotonic):
        validate(mc, u, s)


def test_compose_identity_neutral_and_constant_absorbing():
    mc = CombMulticone(rank=3)
    ident = identity_corr(mc)
    for corr in all_correspondences(mc):
        assert compose(corr, ident) == corr
        assert compose(ident, corr) == corr
        const = constant_corr(mc, mc.u_label(1), mc.s_label(2))
        left = compose(const, corr)
        right = compose(corr, const)
        assert is_constant(left) and is_constant(right)
        # relation composition: paths pass through the left factor first,
        # so the u-value comes from the right factor acting after
        assert set(right.u) == {right.u[0]}
        validate(mc, left.u, left.s)
        validate(mc, right.u, right.s)


def test_compose_associative_randomized():
    rng = random.Random(31)
    for q in (3, 4):
        mc = CombMulticone(rank=q)
        corrs = list(all_correspondences(mc))
        for _ in range(200):
            a, b, c = (rng.choice(corrs) for _ in range(3))
            assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_compose_closed_exhaustive_small_ranks():
    for q in (1, 2, 3, 4):
        mc = CombMulticone(rank=q)
        corrs = list(all_correspondences(mc))
        for a in corrs:
            for b in corrs:
                ab = compose(a, b)
                validate(mc, ab.u, ab.s)  # raises on any rejection


def test_solve_s_from_u_round_trip():
    for q in (2, 3, 4):
        mc = CombMulticone(rank=q)
        for corr in all_correspondences(mc):
            if is_constant(corr):
                continue
            again = solve_s_from_u(mc, corr.u)
            assert again.s == corr.s


def test_morphism_hyperbolic_free_level(free_pair):
    model = component_model(*free_pair, "")
    phi = induced_morphism(free_pair, model.cores)
    assert all(is_constant(g) for g in phi.gens)
    hyp, ell = morphism_hyperbolic(phi)
    assert hyp and ell == 1
    assert morphism_tight(phi)


def test_morphism_rank_one():
    mc = CombMulticone(rank=1)
    phi = Morphism(mc, (identity_corr(mc),))
    hyp, ell = morphism_hyperbolic(phi)
    assert hyp and ell == 0
    assert classify_two_morphism(Morphism(mc, (identity_corr(mc),) * 2)) == \
        (None, 1)


def test_rotating_rank_five_pair_is_not_hyperbolic():
    # B rotates the U labels; the non-constant products recur only after
    # more than 64 letters
    mc = CombMulticone(rank=5)
    phi = Morphism(mc, (validate(mc, (0, 0, 0, 2, 6), (5, 7, 7, 9, 9)),
                        validate(mc, (2, 4, 6, 8, 0), (9, 1, 3, 5, 7))))
    assert morphism_tight(phi)
    assert morphism_hyperbolic(phi) == (False, None)
    with pytest.raises(StructureViolation) as exc:
        classify_two_morphism(phi)
    assert exc.value.step == "precondition"


def test_morphism_with_identity_generator_not_hyperbolic():
    mc = CombMulticone(rank=2)
    phi = Morphism(mc, (identity_corr(mc),
                        constant_corr(mc, mc.u_label(0), mc.s_label(0))))
    hyp, ell = morphism_hyperbolic(phi)
    assert not hyp and ell is None


def closure_hyperbolic(phi):
    """The semigroup closure on MonotoneCorr values that morphism_hyperbolic
    ran before it read the u-maps through eventual_constancy, kept as its
    oracle: products grow by one letter per level, compared by both halves."""
    if phi.mc.rank == 1:
        return True, 0
    level = set(phi.gens)
    seen = set()
    length = 1
    while True:
        nonconst = frozenset(c for c in level if not is_constant(c))
        if not nonconst:
            return True, length
        if nonconst in seen:
            return False, None
        seen.add(nonconst)
        level = {compose(g, c) for g in phi.gens for c in level}
        length += 1


def test_morphism_hyperbolic_matches_closure_on_induced_morphisms():
    # the pipeline induces a morphism once core_criterion has passed; the
    # deep draws it rejects (one per seed here) have no induced morphism
    ranks = set()
    for seed in (707, 708):
        for pair, _, model in exact_pullbacks(seed):
            if not core_criterion(pair, model.cores).ok:
                continue
            phi = induced_morphism(pair, model.cores)
            ranks.add(phi.mc.rank)
            assert morphism_hyperbolic(phi) == closure_hyperbolic(phi) == \
                (True, phi.mc.rank - 1)
    assert ranks == set(range(2, 21))


def test_morphism_hyperbolic_matches_closure_on_all_rank_three_pairs():
    mc = CombMulticone(rank=3)
    corrs = list(all_correspondences(mc))
    outcomes = set()
    for a in corrs:
        for b in corrs:
            phi = Morphism(mc, (a, b))
            got = morphism_hyperbolic(phi)
            assert got == closure_hyperbolic(phi), (a, b)
            outcomes.add(got)
    assert (False, None) in outcomes and {ell for hyp, ell in outcomes if hyp} \
        == {1, 2}


def test_morphism_hyperbolic_matches_closure_on_fixture():
    phi = nonrealizable_fixture()
    assert morphism_hyperbolic(phi) == closure_hyperbolic(phi)


def test_reduce_tight_collapses_shared_constant():
    mc = CombMulticone(rank=2)
    c = constant_corr(mc, mc.u_label(0), mc.s_label(0))
    phi = Morphism(mc, (c, c))
    assert not morphism_tight(phi)
    red = reduce_tight(phi)
    assert red.mc.rank == 1
    assert morphism_tight(red)


def test_reduce_tight_pins_the_reduced_morphism():
    # U slot 1 is in no image: it is dropped and the S labels on either side
    # of it are identified, which the s-maps allow; read as an S label, its
    # neighbours' u-maps disagree and the reduction fails
    phi = morphism_from_json({"rank": 3, "gens": [
        {"u": [0, 0, 0], "s": [1, 1, 1]}, {"u": [0, 2, 2], "s": [0, 0, 2]}]})
    assert not morphism_tight(phi)
    assert morphism_json(reduce_tight(phi)) == {"rank": 2, "parity": "even_u", "gens": [
        {"u": [1, 1], "s": [1, 1]}, {"u": [0, 1], "s": [0, 1]}]}


def test_nonrealizable_fixture_tight_hyperbolic():
    phi = nonrealizable_fixture()
    assert phi.mc.rank == 15
    assert morphism_tight(phi)
    hyp, ell = morphism_hyperbolic(phi)
    assert hyp
    assert ell <= 4


def test_induced_morphism_2_5(mild_free_pair_exact):
    # sign words of 1/3, 2/3, 2/5, 3/5, 3/4, 3/8 and 5/7
    for fword in ("+", "-", "+-", "-+", "--", "+-+", "--+"):
        pair = apply_fword_inverse(*mild_free_pair_exact, fword)
        model = component_model(*pair, fword)
        assert model.orientation == 1
        phi = induced_morphism(pair, model.cores)
        assert phi.mc.rank == model.fraction.denominator
        assert morphism_tight(phi)
        hyp, _ = morphism_hyperbolic(phi)
        assert hyp
        # u-maps agree with the symbolic action table, exact and absorbed
        # entries alike: U slot j is the j-th core arc by start angle, and
        # the arc of center word w ends at u(w)
        ends = [a.end for a in model.cores.u_arcs]
        table = action_table(model.fraction)
        slot = {w: ends.index(model.u_points[w]) for w in table}
        for w, row in table.items():
            for gen, letter in zip(phi.gens, "AB"):
                assert phi.mc.slot(gen.u_of(phi.mc.u_label(slot[w]))) == \
                    slot[row[letter][0]], (fword, w, letter)


def test_classify_two_morphism_matches_fraction(mild_free_pair_exact):
    for fword in ("", "+", "-", "+-", "-+", "++", "--", "++-"):
        pair = apply_fword_inverse(*mild_free_pair_exact, fword)
        model = component_model(*pair, fword)
        phi = induced_morphism(pair, model.cores)
        frac, orient = classify_two_morphism(phi)
        assert frac == j_of_fword(fword)
        assert orient == 1


def test_classify_two_morphism_mirror(free_pair):
    D = Mat2(1, 0, 0, -1)
    A, B = free_pair
    pair = (D @ A @ D, D @ B @ D)
    model = component_model(*pair, "")
    phi = induced_morphism(pair, model.cores)
    frac, orient = classify_two_morphism(phi)
    assert frac == Fraction(1, 2) and orient == -1


def test_classify_two_morphism_reflect_consistency(mild_free_pair_exact):
    pair = apply_fword_inverse(*mild_free_pair_exact, "+-")
    model = component_model(*pair, "+-")
    phi = induced_morphism(pair, model.cores)
    frac, orient = classify_two_morphism(reflect(phi))
    assert frac == Fraction(2, 5) and orient == -1


def test_classify_two_morphism_exhaustive_small_ranks():
    # every tight hyperbolic pair of ranks 1-4 classifies, each reduced p/q
    # of rank q occurs, and reflection flips the orientation (rank 1 has one
    # component, which reflection leaves as it is)
    counts = []
    for q in range(1, 5):
        mc = CombMulticone(rank=q)
        corrs = list(all_correspondences(mc))
        fractions = set()
        n = 0
        for a, b in itertools.product(corrs, repeat=2):
            phi = Morphism(mc, (a, b))
            if not morphism_tight(phi) or not morphism_hyperbolic(phi)[0]:
                continue
            frac, orient = classify_two_morphism(phi)
            if q > 1:
                assert classify_two_morphism(reflect(phi)) == (frac, -orient)
            fractions.add(frac)
            n += 1
        counts.append(n)
        assert fractions == ({None} if q == 1 else
                             {Fraction(p, q) for p in range(1, q) if math.gcd(p, q) == 1})
    assert counts == [1, 4, 12, 16]


def test_classify_two_morphism_rejects_untight():
    mc = CombMulticone(rank=2)
    c = constant_corr(mc, mc.u_label(0), mc.s_label(0))
    with pytest.raises(StructureViolation):
        classify_two_morphism(Morphism(mc, (c, c)))


# ---------------------------------------------------------------------------
# winding numbers


def test_winding_free_pair_block_words(free_pair):
    model = component_model(*free_pair, "")
    phi = induced_morphism(free_pair, model.cores)
    rng = random.Random(33)
    assert winding_comb(phi, "AB") == -1
    assert winding_matrix(free_pair, "AB") == -1
    assert winding_matrix(free_pair, "AAA") == 0
    assert winding_comb(phi, "AAA") == 0
    for _ in range(30):
        m = rng.randint(1, 3)
        word = "".join("A" * rng.randint(1, 3) + "B" * rng.randint(1, 3)
                       for _ in range(m))
        assert winding_matrix(free_pair, word) == -m
        assert winding_comb(phi, word) == -m


def test_winding_agreement_all_words(free_pair):
    model = component_model(*free_pair, "")
    phi = induced_morphism(free_pair, model.cores)
    for n in range(1, 7):
        for bits in itertools.product("AB", repeat=n):
            word = "".join(bits)
            try:
                wm = winding_matrix(free_pair, word)
            except EllipticAlongWord:
                continue
            assert winding_comb(phi, word) == wm


def test_winding_cyclic_invariance(mild_free_pair_exact):
    pair = apply_fword_inverse(*mild_free_pair_exact, "+-")
    model = component_model(*pair, "+-")
    phi = induced_morphism(pair, model.cores)
    rng = random.Random(34)
    for _ in range(40):
        n = rng.randint(1, 8)
        word = "".join(rng.choice("AB") for _ in range(n))
        k = rng.randrange(n)
        rotated = word[k:] + word[:k]
        assert winding_comb(phi, word) == winding_comb(phi, rotated)


def test_winding_increment_bound(mild_free_pair_exact):
    pair = apply_fword_inverse(*mild_free_pair_exact, "+-")
    model = component_model(*pair, "+-")
    phi = induced_morphism(pair, model.cores)
    rng = random.Random(35)
    for _ in range(60):
        n = rng.randint(1, 7)
        word = "".join(rng.choice("AB") for _ in range(n))
        for letter in "AB":
            assert abs(winding_comb(phi, word + letter)
                       - winding_comb(phi, word)) <= 1


def test_winding_trace_sign_law(free_pair):
    # with positive generator traces: sign(tr) = (-1)^winding
    A, B = free_pair
    from hypercone.symdyn import eval_string
    for n in range(1, 7):
        for bits in itertools.product("AB", repeat=n):
            word = "".join(bits)
            t = float(eval_string(free_pair, word).trace())
            if abs(t) <= 2.0:
                continue
            k = winding_matrix(free_pair, word)
            assert (1 if t > 0 else -1) == (-1) ** k


def test_some_word_winds_once_at_higher_rank(mild_free_pair_exact):
    pair = apply_fword_inverse(*mild_free_pair_exact, "+")
    model = component_model(*pair, "+")
    phi = induced_morphism(pair, model.cores)
    _, ell = morphism_hyperbolic(phi)
    found = None
    for n in range(1, 2 * ell + 3):
        for bits in itertools.product("AB", repeat=n):
            if abs(winding_comb(phi, "".join(bits))) == 1:
                found = "".join(bits)
                break
        if found:
            break
    assert found is not None


def test_lift_height_zero(free_pair):
    model = component_model(*free_pair, "")
    phi = induced_morphism(free_pair, model.cores)
    for g in phi.gens:
        assert height(lift_height_zero(g)) == 0


def test_winding_matrix_rejects_elliptic_product():
    A = Mat2(2, 1, 0, 0.5)
    B = Mat2(0.5, 0, -2, 2)  # tr AB = 0
    with pytest.raises(EllipticAlongWord):
        winding_matrix((A, B), "AB")


def test_morphism_json_roundtrip(free_pair):
    model = component_model(*free_pair, "")
    phi = induced_morphism(free_pair, model.cores)
    again = morphism_from_json(morphism_json(phi))
    assert again == phi


def test_reduce_tight_stable_side():
    # a generator pair covering the unstable half but missing a stable point
    mc = CombMulticone(rank=3)
    corrs = list(all_correspondences(mc))
    found = None
    for a in corrs:
        for b in corrs:
            if (a.u_image | b.u_image) == set(mc.u_labels()) and \
                    (a.s_image | b.s_image) != set(mc.s_labels()):
                found = (a, b)
                break
        if found:
            break
    assert found is not None
    red = reduce_tight(Morphism(mc, found))
    assert morphism_tight(red)
    assert red.mc.rank < 3
