"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines immediately).
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from hypercone.corrdyn import (CombMulticone, classify_two_morphism,
                               induced_morphism, morphism_hyperbolic,
                               morphism_tight, validate, winding_matrix)
from hypercone.errors import HyperconeError, NotMonotonic, OrderViolation
from hypercone.fareycomb import build_order, component_model, farey_interval, j_of_fword
from hypercone.multicone import (MulticoneFamily, certify, core_criterion,
                                 fatten_cores)
from hypercone.projgeom import ArcP1, MultiCone
from hypercone.sl2core import Mat2, c1_bound, normalize_tuple, spectral_norm
from hypercone.symdyn import Sft, eval_string, periodic_words, product
from hypercone.tolerances import DEFAULT
from hypercone.twoshift import (EllipticWitness, NonPrincipal, _fricke, _step_minus,
                                _step_plus, _Traces, apply_fword_inverse,
                                classify_pair)
from hypercone.witness import best_heteroclinic
from tests.conftest import (canonical_pair, check_walk, exact_canonical_pair,
                            four_interval_family, group_tuple)
from tests.lifts import winding_comb
from tests.reference import (all_correspondences, compose, nonrealizable_fixture,
                             orbit_words, rotation_orbit_word)

FULL2 = Sft.full(2)
REFLECT = Mat2(1, 0, 0, -1)


def report(number: int, name: str):
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


# ---------------------------------------------------------------------------
# populations shared between criteria 1, 2, 4, 5


def _strict_free_pairs(n: int, seed: int = 101):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        mu = rng.uniform(1.1, 10.0)
        nu = rng.uniform(1.1, 10.0)
        gamma = -4.0 - mu / nu - nu / mu - rng.uniform(0.0, 6.0)
        out.append(canonical_pair(mu, nu, 1.0, gamma))
    return out


def _mild_exact_base(rng, length: int):
    if length <= 2:
        lo, hi, zlo, zhi = 1.1, 3.0, -4.0, -2.1
    elif length <= 4:
        lo, hi, zlo, zhi = 1.05, 1.5, -2.6, -2.05
    else:
        lo, hi, zlo, zhi = 1.02, 1.2, -2.3, -2.02
    mu = Fraction(rng.uniform(lo, hi)).limit_denominator(64)
    nu = Fraction(rng.uniform(lo, hi)).limit_denominator(64)
    mu = max(mu, Fraction(21, 20)) if length > 4 else max(mu, Fraction(11, 10))
    nu = max(nu, Fraction(21, 20)) if length > 4 else max(nu, Fraction(11, 10))
    z = Fraction(rng.uniform(zlo, zhi)).limit_denominator(64)
    gamma = z - mu / nu - nu / mu
    return exact_canonical_pair(mu, nu, Fraction(1), gamma)


_PULLBACK_CACHE = None


def pullback_population(n: int = 500, seed: int = 202):
    """(pair, fword, mirrored) draws; deep components are redrawn when their
    point structure falls below float resolution (see the decisions log)."""
    global _PULLBACK_CACHE
    if _PULLBACK_CACHE is not None and len(_PULLBACK_CACHE) >= n:
        return _PULLBACK_CACHE[:n]
    rng = random.Random(seed)
    lengths = [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 6]
    out = []
    while len(out) < n:
        length = rng.choice(lengths)
        fword = "".join(rng.choice("+-") for _ in range(length))
        base = _mild_exact_base(rng, length)
        pair = apply_fword_inverse(*base, fword)
        mirrored = rng.random() < 0.15
        if mirrored:
            A, B = pair
            pair = (REFLECT @ A @ REFLECT, REFLECT @ B @ REFLECT)
        try:
            model = component_model(*pair, fword)
        except (OrderViolation, HyperconeError):
            continue  # below float resolution; redraw
        arcs = sorted([(a.start.angle, a.length) for a in model.cores.u_arcs]
                      + [(a.start.angle, a.length) for a in model.cores.s_arcs])
        sep = min(min(ln for _, ln in arcs),
                  min((arcs[(i + 1) % len(arcs)][0] - s - ln) % math.pi
                      for i, (s, ln) in enumerate(arcs)))
        if sep < 3e-9:
            continue  # within float dust of a degenerate configuration
        out.append((pair, fword, mirrored))
    _PULLBACK_CACHE = out
    return out


# ---------------------------------------------------------------------------


def test_c01_two_shift_classifier_free_detection():
    pairs = _strict_free_pairs(1000)
    t0 = time.perf_counter()
    results = [classify_pair(A, B) for A, B in pairs]
    elapsed = time.perf_counter() - t0
    for c in results:
        assert isinstance(c, NonPrincipal)
        assert c.fword == "" and c.iterations == 0
    assert elapsed / len(pairs) < 1e-3, f"{elapsed / len(pairs):.2e}s per pair"
    report(1, "2-shift classifier, free detection")


def test_c02_pullback_recovery():
    for pair, fword, mirrored in pullback_population(500):
        A, B = pair
        assert A.is_exact() and B.is_exact()
        c = classify_pair(A, B)
        assert isinstance(c, NonPrincipal), (fword, c)
        assert c.fword == fword
        check_walk(A, B, c)
        assert c.orientation == (-1 if mirrored else 1)
        t0 = abs(A.trace()) + abs(B.trace())
        assert c.iterations <= math.floor(t0 / 4) - 1 or c.iterations == 0
    report(2, "pullback recovery with termination bound")


def test_c03_trace_form_invariance():
    rng = random.Random(303)
    for _ in range(50_000):
        t = _Traces(Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
                    Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
                    Fraction(rng.randint(-40, 40), rng.randint(1, 9)))
        step = _step_plus if rng.random() < 0.5 else _step_minus
        assert _fricke(step(t)) == _fricke(t)  # exact
    for _ in range(50_000):
        t = _Traces(rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-20, 20))
        step = _step_plus if rng.random() < 0.5 else _step_minus
        before, after = _fricke(t), _fricke(step(t))
        assert abs(after - before) <= 1e-9 * max(1.0, abs(before))
    report(3, "trace form invariance (exact and float)")


def test_c04_certification_classification_consistency():
    # free pairs from criterion 1 (a slice) plus every pullback pair
    for A, B in _strict_free_pairs(1000)[:100]:
        model = component_model(A, B, "")
        assert core_criterion((A, B), model.cores).ok
        cone = fatten_cores((A, B), model.cores)
        rep = certify((A, B), FULL2, MulticoneFamily.constant(cone, 2))
        assert rep.ok and rep.contraction > 1.0
    for pair, fword, _ in pullback_population(500):
        model = component_model(*pair, fword)
        assert core_criterion(pair, model.cores).ok, fword
        cone = fatten_cores(pair, model.cores)
        rep = certify(pair, FULL2, MulticoneFamily.constant(cone, 2))
        assert rep.ok and rep.contraction > 1.0, fword

    # elliptic pairs: no candidate family may certify
    rng = random.Random(404)
    elliptic = []
    while len(elliptic) < 25:
        mu = rng.uniform(1.2, 4.0)
        nu = rng.uniform(1.2, 4.0)
        z = rng.uniform(-1.9, 1.9)
        pair = canonical_pair(mu, nu, 1.0, z - mu / nu - nu / mu)
        c = classify_pair(*pair)
        if isinstance(c, EllipticWitness):
            elliptic.append(pair)
    for pair in elliptic:
        for _ in range(20):
            s0 = rng.uniform(0, math.pi)
            l0 = rng.uniform(0.05, 0.8)
            gap = rng.uniform(0.05, 0.5)
            l1 = rng.uniform(0.05, max(0.06, math.pi - l0 - gap - 0.1))
            try:
                cone = MultiCone((ArcP1.from_angles(s0, s0 + l0),
                                  ArcP1.from_angles(s0 + l0 + gap,
                                                    s0 + l0 + gap + l1)))
            except HyperconeError:
                continue
            assert not certify(pair, FULL2,
                               MulticoneFamily.constant(cone, 2)).ok
    report(4, "certification and classification agree")


def test_c05_growth_bound():
    tuples = [pair for pair, fword, _ in pullback_population(500)
              if len(fword) <= 2][:100]
    tuples += _strict_free_pairs(1000)[:100]
    assert len(tuples) == 200
    violations = 0
    for pair in tuples:
        fpair = (pair[0].to_float(), pair[1].to_float())
        c = classify_pair(*fpair)
        fword = c.fword if isinstance(c, NonPrincipal) else ""
        model = component_model(*pair, fword)
        cone = fatten_cores(pair, model.cores)
        rep = certify(pair, FULL2, MulticoneFamily.constant(cone, 2))
        assert rep.ok
        C, lam = rep.comparability, rep.contraction
        for w in periodic_words(FULL2, 12):
            p = product(fpair, w)
            norm = spectral_norm(p.a, p.b, p.c, p.d)
            if norm < C ** -0.5 * lam ** (len(w) / 2.0) * (1 - 1e-12):
                violations += 1
    assert violations == 0
    report(5, "certified growth bound on cyclic words")


def test_c06_group_hyperbolicity_fixture(free_pair, sft4):
    fam = MulticoneFamily(four_interval_family(free_pair))
    rep = certify(group_tuple(free_pair), sft4, fam)
    assert rep.ok
    assert rep.margin > 1e-6
    assert rep.contraction > 1.0
    report(6, "group hyperbolicity of the free pair over the 4-symbol shift")


def test_c07_farey_combinatorics():
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
            assert hi.numerator * lo.denominator - lo.numerator * hi.denominator == 1
            assert len(orbit_words(f)) == q
    assert count == 45  # interior fractions with q <= 12
    fam = build_order(Fraction(2, 5))
    assert fam.words() == ["BABAA", "BA", "ABABA", "AB", "AABAB",
                           "AAB", "ABAAB", "ABA", "BAABA", "BAA"]
    assert rotation_orbit_word(Fraction(2, 5), Fraction(0)).letters == "AABAB"
    report(7, "Farey identities and the 2/5 cyclic order")


def test_c08_winding_cross_check(free_pair, mild_free_pair_exact):
    fixtures = []
    model_free = component_model(*free_pair, "")
    fixtures.append((free_pair, induced_morphism(free_pair, model_free.cores)))
    deep = apply_fword_inverse(*mild_free_pair_exact, "+-")
    model_deep = component_model(*deep, "+-")
    fixtures.append((deep, induced_morphism(deep, model_deep.cores)))
    for pair, phi in fixtures:
        for n in range(1, 9):
            for bits in itertools.product("AB", repeat=n):
                word = "".join(bits)
                t = float(eval_string(pair, word).trace())
                if abs(t) <= 2.0:
                    continue
                wm = winding_matrix(pair, word)
                assert winding_comb(phi, word) == wm
                assert (1 if t > 0 else -1) == (-1) ** wm  # trace-sign law
    rng = random.Random(808)
    for _ in range(50):
        m = rng.randint(1, 4)
        word = "".join("A" * rng.randint(1, 2) + "B" * rng.randint(1, 2)
                       for _ in range(m))
        assert winding_matrix(free_pair, word) == -m
    report(8, "winding number cross-check and trace-sign law")


def test_c09_correspondence_calculus():
    for q in (1, 2, 3, 4):
        mc = CombMulticone(rank=q)
        corrs = list(all_correspondences(mc))
        for a in corrs:
            for b in corrs:
                ab = compose(a, b)
                try:
                    validate(mc, ab.u, ab.s)
                except NotMonotonic as exc:  # pragma: no cover
                    pytest.fail(f"composition rejected at rank {q}: {exc}")
    phi = nonrealizable_fixture()
    assert morphism_tight(phi)
    hyp, ell = morphism_hyperbolic(phi)
    assert hyp and ell <= 4
    report(9, "correspondence calculus closed; stock morphism tight with l<=4")


def test_c10_realizability_loop():
    rng = random.Random(909)
    fwords = ["", "+", "-", "++", "--", "+-", "-+", "+++", "---", "++-",
              "--+", "+-+", "-+-", "+--", "-++"]
    checked = 0
    while checked < 100:
        fword = rng.choice(fwords)
        base = _mild_exact_base(rng, max(len(fword), 2))
        pair = apply_fword_inverse(*base, fword)
        frac = j_of_fword(fword)
        assert frac.denominator <= 8
        model = component_model(*pair, fword)
        phi = induced_morphism(pair, model.cores)
        got, orient = classify_two_morphism(phi)
        assert got == frac, (fword, got)
        assert orient == 1
        checked += 1
    report(10, "two-generator realizability loop recovers the fraction")


def test_c11_heteroclinic_fixture(boundary_triple):
    hit = best_heteroclinic(boundary_triple, Sft.full(3), 1, 1, 1)
    assert hit is not None and hit.residual <= DEFAULT.heteroclinic
    assert hit.residual <= 1e-12
    assert len(hit.source) == 1 and len(hit.connector) == 1 and len(hit.target) == 1
    lam, theta = 2.0, 1.8
    assert 5 / 3 < theta < 2
    A0, B0 = boundary_triple[:2]
    tr = (A0 @ B0).trace()
    assert tr == pytest.approx(4 - 3.24 * 2.25 + 0.25, abs=1e-9)
    assert tr < -2
    report(11, "heteroclinic fixture found at unit budgets")


def test_c12_normalization():
    rng = random.Random(121)
    bound = c1_bound(10.0)
    base_pairs = []
    while len(base_pairs) < 25:
        mu = rng.uniform(1.05, 3.0)
        nu = rng.uniform(1.05, 3.0)
        gamma = rng.uniform(-5.0, 2.0)
        A, B = canonical_pair(mu, nu, 1.0, gamma)
        if abs(A.trace()) <= 10 and abs(B.trace()) <= 10 and \
                abs((A @ B).trace()) <= 10:
            base_pairs.append((A, B))
    words = ["A", "B", "AB", "AAB", "ABB", "BBA"]
    for i in range(500):
        A, B = base_pairs[i % len(base_pairs)]
        n = math.exp(rng.uniform(0, math.log(1e6)))
        R0 = Mat2(n, 0, 0, 1 / n) @ Mat2.rotation(rng.uniform(0, math.pi))
        conj = [R0 @ m @ R0.inverse() for m in (A, B)]
        _, out = normalize_tuple(conj, 10.0)
        assert max(abs(float(v)) for m in out for v in (m.a, m.b, m.c, m.d)) <= bound
        for word in words:
            t0 = eval_string(conj, word).trace()
            t1 = eval_string(out, word).trace()
            assert t1 == pytest.approx(t0, rel=1e-6, abs=1e-6)
        _, out2 = normalize_tuple(out, 10.0)
        for m1, m2 in zip(out, out2):
            for v, w in zip((m1.a, m1.b, m1.c, m1.d),
                            (m2.a, m2.b, m2.c, m2.d)):
                assert abs(v - w) <= 1e-6
    report(12, "compactness normalization: bounds, traces, idempotence")
