import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypercone import multicone
from hypercone.errors import (BadFamily, DegenerateInput, HyperconeError,
                              NoConvergence, PreconditionViolated,
                              SearchBudgetExceeded)
from hypercone.fareycomb import component_model, j_of_fword
from hypercone.multicone import (PUFF, CoreSet, MulticoneFamily, _named, _runs,
                                 alternation, best_target, certify, component_map,
                                 compute_cores, core_criterion,
                                 eventual_constancy, fatten_cores, start_order)
from hypercone.projgeom import (PI, POINT_CONTRACTION, ArcP1, MultiCone, angle_dist,
                                angle_gap, containment_margin, merge_spans,
                                norm_angle)
from hypercone.sl2core import Mat2, eigen_data, spectral_norm
from hypercone.symdyn import Sft, periodic_words, product
from hypercone.tolerances import DEFAULT
from hypercone.twoshift import apply_fword_inverse
from hypercone.witness import search_elliptic
from tests.conftest import exact_canonical_pair, four_interval_family, group_tuple
from tests.test_acceptance import (REFLECT, _mild_exact_base, _strict_free_pairs,
                                   pullback_population)
from tests.reference import (cyclically_admissible, dual, family_json, parse_word,
                             tightness)
from tests.test_symdyn import min_rotation


def arc(a, b):
    return ArcP1.from_angles(a, b)


def test_certify_common_axis_pair():
    A = Mat2(2, 0, 0, 0.5)
    cone = MultiCone((arc(-math.pi / 4, math.pi / 4),))
    rep = certify((A, A), Sft.full(2), MulticoneFamily.constant(cone, 2))
    assert rep.ok and rep.contraction > 1.0


def test_certify_free_pair_two_intervals(free_pair):
    model = component_model(*free_pair, "")
    cone = fatten_cores(free_pair, model.cores)
    rep = certify(free_pair, Sft.full(2), MulticoneFamily.constant(cone, 2))
    assert rep.ok
    assert rep.contraction > 1.0
    assert rep.margin > 0


def test_fatten_cores_hosts_each_u_arc_in_its_own_gap():
    # S0 U0 S1 U1 in cyclic order, with S1 and U1 ~1e-11 long: U1 sticks
    # out of the gap before its own (S0, S1) by 3e-11 only, within
    # DEFAULT.angle, so a first fit by margin put it there (OutOfArc)
    def hyperbolic(u, s, lam):
        P = Mat2(math.cos(u), math.cos(s), math.sin(u), math.sin(s))
        return P @ Mat2.diagonal(lam) @ P.inverse()

    S0, U0 = arc(0.5, 0.6), arc(1.0, 1.2)
    S1, U1 = arc(2.0, 2.0 + 1e-11), arc(2.0 + 2e-11, 2.0 + 3e-11)
    cores = CoreSet(u_arcs=(U0, U1), s_arcs=(S0, S1))
    assert containment_margin(ArcP1(S0.end, S1.start), U1.span) > -DEFAULT.angle
    pair = (hyperbolic(2.0 + 2.5e-11, 0.55, 1e6), hyperbolic(1.1, 2.0 + 5e-12, 1e6))
    cone = fatten_cores(pair, cores)
    assert certify(pair, Sft.full(2), MulticoneFamily.constant(cone, 2)).ok
    for core, fat, gap in ((U0, cone.arcs[0], ArcP1(S0.end, S1.start)),
                           (U1, cone.arcs[1], ArcP1(S1.end, S0.start))):
        assert containment_margin(fat, core.span) > 0
        assert containment_margin(gap, fat.span) > 0


def test_certify_rejects_bad_family(free_pair):
    cone = MultiCone((arc(0.0, 0.3),))
    rep = certify(free_pair, Sft.full(2), MulticoneFamily.constant(cone, 2))
    assert not rep.ok
    assert rep.witness is not None


def test_touching_arcs_rejected_at_construction():
    from hypercone.errors import DegenerateInput
    with pytest.raises(DegenerateInput):
        MultiCone((arc(0.0, 1.6), arc(1.6, 3.0)))


def test_certify_family_size_mismatch(free_pair):
    cone = MultiCone((arc(0.0, 0.3),))
    with pytest.raises(BadFamily):
        certify(free_pair, Sft.full(2), MulticoneFamily.constant(cone, 3))


def test_certify_group_hyperbolic_fixture(free_pair, sft4):
    fam = MulticoneFamily(four_interval_family(free_pair))
    rep = certify(group_tuple(free_pair), sft4, fam)
    assert rep.ok
    assert rep.margin > 1e-6
    assert rep.contraction > 1.0


def test_certify_growth_bound(free_pair):
    model = component_model(*free_pair, "")
    cone = fatten_cores(free_pair, model.cores)
    rep = certify(free_pair, Sft.full(2), MulticoneFamily.constant(cone, 2))
    C, lam = rep.comparability, rep.contraction
    sft = Sft.full(2)
    for w in periodic_words(sft, 12):
        p = product(free_pair, w)
        norm = spectral_norm(p.a, p.b, p.c, p.d)
        assert norm >= C ** -0.5 * lam ** (len(w) / 2.0) * (1 - 1e-12)


@pytest.mark.parametrize("num", [float, Fraction])
def test_certify_counts_point_images_in_the_comparability(num):
    # the unimodular matrix squeezes the arc to one float angle: a point
    # image, whose density still bounds C from below by 1
    m = Mat2(num(10 ** 9), num(1), num(10 ** 9 - 1), num(1))
    assert m.det() == 1
    fam = MulticoneFamily.constant(MultiCone((ArcP1.from_angles(0.3, 1.2),)), 1)
    rep = certify((m,), Sft.full(1), fam)
    assert rep.ok and rep.contraction == POINT_CONTRACTION
    assert rep.comparability >= 1.0


def test_duality_of_certificates(free_pair, sft4):
    from hypercone.multicone import image_span
    from hypercone.projgeom import PI, arcs_of_spans, merge_spans
    fam = MulticoneFamily(four_interval_family(free_pair))
    tup = group_tuple(free_pair)
    duals = []
    for i in range(4):
        m = tup[i].inverse()
        spans = [image_span(m, (a.start.angle - 1e-12, a.length + 2e-12))
                 for a in fam.cones[i].arcs]
        comp = merge_spans(spans)
        gaps = []
        for k, (s, ln) in enumerate(comp):
            nxt = comp[(k + 1) % len(comp)]
            gaps.append(((s + ln) % PI, (nxt[0] - s - ln) % PI))
        duals.append(MultiCone(arcs_of_spans(gaps)))
    inv_tup = tuple(m.inverse() for m in tup)
    rep = certify(inv_tup, dual(sft4), MulticoneFamily(tuple(duals)))
    assert rep.ok


def test_compute_cores_free_pair(free_pair):
    cores = compute_cores(free_pair, Sft.full(2), depth=40)
    assert cores.rank == 2
    assert len(cores.s_arcs) == 2
    assert core_criterion(free_pair, cores).ok
    model = component_model(*free_pair, "")
    # pair arcs by circle distance: the arc at 0 may start just below pi
    paired = set()
    for want in model.cores.u_arcs:
        got = min(cores.u_arcs,
                  key=lambda a: angle_dist(a.start.angle, want.start.angle))
        paired.add(got)
        assert angle_dist(got.start.angle, want.start.angle) == pytest.approx(
            0.0, abs=1e-9)
        assert angle_dist(got.end.angle, want.end.angle) == pytest.approx(
            0.0, abs=1e-9)
    assert len(paired) == cores.rank


# a float pair of rank 1 whose U arc runs across the 0/pi seam, from u(B)
# near 2.39 to u(A) near 0.08: a fill that bridged the gap as a span ended
# an ulp short of u(A) and left it an arc of its own until word length 2
SEAM_PAIR = (Mat2(1.4441995210551806, -2.524190278766337, -1.1083196828876014,
                  2.6295603300959494),
             Mat2(-3.4649706642420472, 3.948960347052121, -0.2556960485367057,
                  0.002809131017995052))


@pytest.mark.parametrize("case", ["full", "golden", "seam"])
def test_compute_cores_monotone_in_depth(free_pair, case):
    # out of budget below the first certifying word length, the same cores
    # from there on
    mats, sft, length = {"full": (free_pair, Sft.full(2), 2),
                         "golden": (free_pair, Sft(2, ((True, True), (True, False))), 2),
                         "seam": (SEAM_PAIR, Sft.full(2), 1)}[case]
    want = compute_cores(mats, sft, depth=12)
    assert want.word_length == length
    for depth in range(1, 13):
        if depth < want.word_length:
            with pytest.raises(SearchBudgetExceeded):
                compute_cores(mats, sft, depth=depth)
        else:
            assert compute_cores(mats, sft, depth=depth) == want, depth


def test_float_pullbacks_certify_at_their_rank():
    # a U arc of draws 67 and 96 runs across 0, as the seam pair's does, and
    # draw 107's first U arc starts below half its end angle: a fill that
    # bridged each gap as a (start, length) span, whose sum rounded, stopped
    # an ulp short of the next point there and left one arc too many
    population = pullback_population(120)
    for i, rank in ((67, 11), (96, 7), (107, 8)):
        pair = tuple(m.to_float() for m in population[i][0])
        cores = compute_cores(pair, Sft.full(2), depth=rank)
        assert cores.rank == cores.word_length == rank, i
        _assert_arcs_end_at_named_points(pair, Sft.full(2), cores)


def _assert_arcs_end_at_named_points(mats, sft, cores):
    """Each arc starts at the U (S) point of the word that names its start,
    bit for bit with eigen_data(product(...)), and ends PUFF past the point
    of the word naming its end; the words are cyclically admissible, and
    carried points, "(w)B" or "B(w)", are skipped."""
    def point(name, side):
        assert cyclically_admissible(sft, parse_word(name)), name
        return eigen_data(product(mats, parse_word(name)))[side][0].angle

    checked = 0
    for arcs, words, side in ((cores.u_arcs, cores.u_words, 0),
                              (cores.s_arcs, cores.s_words, 1)):
        for a, (first, last) in zip(arcs, words):
            if "(" not in first:
                assert a.start.angle == point(first, side), first
                checked += 1
            if "(" not in last:
                offset = (a.end.angle - point(last, side)) % PI
                assert abs(offset - PUFF) <= 1e-15, last
                checked += 1
    assert checked > 0


def test_compute_cores_rank5_certifies_at_word_length_5(free_pair_exact):
    # rank-5 pullback: one U arc sits on the 0/pi seam
    pair = apply_fword_inverse(*free_pair_exact, "+-")
    cores = compute_cores(pair, Sft.full(2))
    assert cores.rank == 5 and cores.word_length == 5
    _assert_arcs_end_at_named_points(pair, Sft.full(2), cores)


@pytest.mark.parametrize("case", ["full", "golden", "group", "pullback"])
def test_compute_cores_arcs_end_at_named_points(case, free_pair, sft4):
    # the exact pullback (sign word -+, rank 5) walks integer matrices whose
    # words have scales far above 1
    mats, sft = {"full": (free_pair, Sft.full(2)),
                 "golden": (free_pair, Sft(2, ((True, True), (True, False)))),
                 "group": (group_tuple(free_pair), sft4),
                 "pullback": (pullback_population(20)[7][0], Sft.full(2))}[case]
    _assert_arcs_end_at_named_points(mats, sft, compute_cores(mats, sft))


def test_exact_compute_cores_multiplies_no_fraction(monkeypatch):
    # the word tree multiplies integer matrices; the only Fraction products
    # left are the determinants of the generators' inverses
    pair = pullback_population(20)[7][0]
    assert all(m.is_exact() for m in pair)
    muls = []
    for name in ("__mul__", "__rmul__"):
        def counted(self, other, _orig=getattr(Fraction, name)):
            muls.append(1)
            return _orig(self, other)
        monkeypatch.setattr(Fraction, name, counted)
    cores = compute_cores(pair, Sft.full(2))
    assert cores.rank == 5 and len(muls) <= 2 * len(pair)


def _match_arcs(got, want, bound):
    assert got.rank == want.rank
    for got_arcs, want_arcs in ((got.u_arcs, want.u_arcs), (got.s_arcs, want.s_arcs)):
        for w in want_arcs:
            g = min(got_arcs, key=lambda a: angle_dist(a.start.angle, w.start.angle))
            assert angle_dist(g.start.angle, w.start.angle) <= bound
            assert angle_dist(g.end.angle, w.end.angle) <= bound


def test_compute_cores_matches_component_model():
    full = Sft.full(2)
    # c04's strict-free pairs, given exactly
    for A, B in _strict_free_pairs(1000)[:100]:
        pair = exact_canonical_pair(Fraction(A.a), Fraction(B.d), Fraction(1),
                                    Fraction(B.c))
        cores = compute_cores(pair, full)
        assert cores.word_length == 2
        _match_arcs(cores, component_model(*pair, "").cores, 1e-14)
    # every pullback pair of rank <= 9, given as float
    checked = 0
    for pair, fword, _ in pullback_population(500):
        if j_of_fword(fword).denominator > 9:
            continue
        cores = compute_cores(tuple(m.to_float() for m in pair), full, depth=12)
        _match_arcs(cores, component_model(*pair, fword).cores, 1e-10)
        checked += 1
    assert checked == 400


def test_compute_cores_group_tuple_fast(free_pair, sft4):
    tup = group_tuple(free_pair)
    best = float("inf")
    for _ in range(3):
        t0 = time.process_time()
        cores = compute_cores(tup, sft4)
        best = min(best, time.process_time() - t0)
    assert cores.rank == 4
    assert best < 0.05, f"{best:.3f} s"


def test_compute_cores_names_the_elliptic_word(elliptic_walk_pair):
    with pytest.raises(NoConvergence, match="cyclic word ABB is not hyperbolic"):
        compute_cores(elliptic_walk_pair, Sft.full(2), depth=24)
    assert abs(product(elliptic_walk_pair, parse_word("ABB")).trace()) <= 2


def test_exact_compute_cores_names_the_elliptic_word():
    # |tr AB| = 11/6 and det 1, reported as int/int divisions of the word's
    # integer product: the bits of float() on the rational values
    A = Mat2(Fraction(2), Fraction(0), Fraction(0), Fraction(1, 2))
    B = Mat2(Fraction(1, 6), Fraction(1), Fraction(-1, 2), Fraction(3))
    for pair in ((A, B), (A.to_float(), B.to_float())):
        with pytest.raises(NoConvergence) as info:
            compute_cores(pair, Sft.full(2))
        assert str(info.value) == ("cyclic word AB is not hyperbolic "
                                   "(|tr| = 1.83333, det = 1)")


def test_float_compute_cores_rereads_a_failing_word_exactly(monkeypatch):
    # pullback pairs 24 and 42, given as float: the float products of
    # AABABAABABAB and BBABABBABABA drift to det 1.02 and 1.09 and test
    # non-hyperbolic, yet both words are hyperbolic on the entries read
    # exactly, so depth 14 ends as on exact input, with no certified system
    import hypercone.symdyn as symdyn_mod
    rebuilt = []

    def counted(m, _orig=symdyn_mod.integer_scaled):
        rebuilt.append(m)
        return _orig(m)
    monkeypatch.setattr(symdyn_mod, "integer_scaled", counted)
    population = pullback_population(500)
    for i, fword in ((24, "+--+-"), (42, "-++-+")):
        pair, got, _ = population[i]
        assert got == fword
        rebuilt.clear()
        with pytest.raises(SearchBudgetExceeded):
            compute_cores(tuple(m.to_float() for m in pair), Sft.full(2), depth=14)
        # one word rebuilt, each generator read exactly once for it
        assert len(rebuilt) == len(pair)


def test_compute_cores_refuses_a_generator_of_negative_det():
    # A has eigenvalues 2 and -1/2, hyperbolic, but reverses orientation
    pair = (Mat2(2.0, 1.0, 0.0, -0.5), Mat2(0.5, 0.0, -9.0, 2.0))
    exact = tuple(Mat2(*map(Fraction, (m.a, m.b, m.c, m.d))) for m in pair)
    for tup in (pair, exact, pair[::-1]):
        name = "A" if tup[0].det() < 0 else "B"
        with pytest.raises(PreconditionViolated, match=f"generator {name} has det < 0"):
            compute_cores(tup, Sft.full(2))


def test_compute_cores_principal_pair():
    pair = (Mat2(2, 0, 0, 0.5), Mat2(3, 0, 0, 1 / 3))
    cores = compute_cores(pair, Sft.full(2), depth=30)
    assert cores.rank == 1
    assert cores.u_arcs[0].midpoint.angle == pytest.approx(0.0, abs=1e-3)
    assert cores.s_arcs[0].midpoint.angle == pytest.approx(math.pi / 2,
                                                           abs=1e-3)


def test_compute_cores_deeper_component(free_pair_exact):
    from hypercone.twoshift import apply_fword_inverse
    A, B = apply_fword_inverse(*free_pair_exact, "+-")
    cores = compute_cores((A, B), Sft.full(2), depth=60)
    assert cores.rank == 5  # rank equals the fraction denominator


def test_core_criterion_on_model_cores(free_pair):
    model = component_model(*free_pair, "")
    rep = core_criterion(free_pair, model.cores)
    assert rep.ok
    assert rep.constancy_length == 1


def test_core_criterion_rank_one_minus_identity_letter():
    # rank-1 cores: the component action is constant, so only the scan of
    # single letters can see that the second letter is -id
    A = Mat2(2, 0, 0, 0.5)
    cores = CoreSet(u_arcs=(arc(math.pi - 0.3, 0.3),),
                    s_arcs=(arc(math.pi / 2 - 0.3, math.pi / 2 + 0.3),))
    assert core_criterion((A,), cores).ok
    rep = core_criterion((A, -Mat2.identity()), cores)
    assert not rep.ok
    assert rep.reasons == ("IdentityProduct: word (1,) is +-identity",)


# one sign word per rank 2..12: the rank is the denominator of the
# component's fraction
RANK_FWORDS = ("", "+", "--", "-+", "----", "--+", "+-+", "+---", "++--",
               "+-++", "+--+")


def _necklaces(n, depth):
    """Every word of length 1..depth that is the least of its rotations."""
    for length in range(1, depth + 1):
        for w in itertools.product(range(n), repeat=length):
            if w == min_rotation(w):
                yield w


def test_core_criterion_excludes_identity_necklaces():
    # the entrywise +-identity scan core_criterion ran at every rank, kept as
    # an oracle: wherever the criterion passes at rank >= 2, eventual
    # constancy has excluded every +-identity product the scan could find
    rng = random.Random(606)
    pairs = [(pair, "") for pair in _strict_free_pairs(1000)[:10]]
    for fword in RANK_FWORDS:
        for mirrored in (False, True):
            A, B = apply_fword_inverse(*_mild_exact_base(rng, len(fword)), fword)
            if mirrored:
                A, B = REFLECT @ A @ REFLECT, REFLECT @ B @ REFLECT
            pairs.append(((A, B), fword))
    ranks = set()
    for pair, fword in pairs:
        try:
            cores = component_model(*pair, fword).cores
        except HyperconeError:
            continue
        if not core_criterion(pair, cores).ok:
            continue
        depth = min(cores.rank, 12)
        if len(pair) ** depth > 4096:
            continue
        ranks.add(cores.rank)
        for w in _necklaces(len(pair), depth):
            assert product(pair, w).dist_to_pm_identity() > DEFAULT.identity, \
                (fword, w)
    assert ranks == set(range(2, 13))


def test_float_stages_convert_each_generator_once(monkeypatch):
    # each call converts, however many arcs the cores have, the entries of
    # each generator where it acts in floats, those of its exact inverse
    # where it maps S arcs back, and (fatten_cores) its exact determinant;
    # a component map the cores already hold (CoreSet.action) converts
    # nothing, so over one CoreSet each generator's entries go to the maps
    # once and its inverse's entries once
    from hypercone.corrdyn import induced_morphism
    from tests.test_fareycomb import exact_pullbacks
    calls = []
    to_float = Fraction.__float__

    def counting(x):
        calls.append(x)
        return to_float(x)

    full2 = Sft.full(2)
    for pair, fword, model in exact_pullbacks()[3::5]:  # ranks 5, 10, 15, 20
        assert model.cores.rank >= 5 and all(m.is_exact() for m in pair)
        entries = [v for m in pair for v in (m.a, m.b, m.c, m.d)]
        inverses = [v for m in pair for v in (m.d, -m.b, -m.c, m.a)]  # det 1
        dets = [m.det() for m in pair]
        monkeypatch.setattr(Fraction, "__float__", counting)
        # the pipeline's order, then the fattening first on equal new cores
        for cores, stages in (
                (model.cores, (("criterion", entries + inverses),
                               ("fatten", entries + dets), ("certify", entries),
                               ("induced", []))),
                (CoreSet(model.cores.u_arcs, model.cores.s_arcs),
                 (("fatten", entries + dets), ("induced", inverses),
                  ("criterion", []), ("certify", entries)))):
            for stage, converted in stages:
                calls.clear()
                if stage == "criterion":
                    assert core_criterion(pair, cores).ok
                elif stage == "fatten":
                    fam = MulticoneFamily.constant(fatten_cores(pair, cores), 2)
                elif stage == "certify":
                    assert certify(pair, full2, fam).ok
                else:
                    induced_morphism(pair, cores)
                assert sorted(calls) == sorted(converted), (fword, stage)
        calls.clear()
        component_model(*pair, fword)  # integer products and int / int
        assert calls == []
        monkeypatch.undo()
    # the length stored on ArcP1 is not part of its value
    a = arc(0.25, 1.5)
    assert repr(a) == ("ArcP1(start=ProjPoint(angle=0.25), "
                       "end=ProjPoint(angle=1.5))")
    assert a == arc(0.25, 1.5) and a != arc(0.25, 1.25)
    assert hash(a) == hash((a.start, a.end)) and a.length == 1.25


def _fatten_reference(mats, cores):
    """fatten_cores as a certify loop: the endpoint graph on (arc, side)
    dicts, then certify on each halving's cone, the arc it rejected last
    tried first."""
    from hypercone.multicone import (BOOST, HILBERT_EPS, MAX_HALVINGS, _angle_derivative,
                                     _strict_image, _xi, _xi_inv)
    from hypercone.errors import AmbiguousIncidence, DegenerateInput
    from hypercone.projgeom import hilbert_density
    sft = Sft.full(len(mats))
    abs_dets = [abs(float(m.det())) for m in mats]
    mats = [m.to_float() for m in mats]
    q = cores.rank
    tagged, defect = alternation(cores.u_arcs, cores.s_arcs)
    if defect is not None:
        raise DegenerateInput(f"cores do not alternate ({defect}); cannot fatten")
    host_of = {a: ArcP1(tagged[i - 1][2].end, tagged[(i + 1) % (2 * q)][2].start)
               for i, (_, kind, a) in enumerate(tagged) if kind == 0}
    hosts = [host_of[u] for u in cores.u_arcs]
    nodes = [(j, side) for j in range(q) for side in (0, 1)]
    point = {(j, side): (a.start if side == 0 else a.end).angle
             for j, a in enumerate(cores.u_arcs) for side in (0, 1)}
    raw = {n: [] for n in nodes}
    for m, abs_det in zip(mats, abs_dets):
        try:
            targets = component_map(m, cores.u_arcs, cores.u_arcs)
        except AmbiguousIncidence as exc:
            raise DegenerateInput("cores are not invariant; cannot fatten") from exc
        for (j, side) in nodes:
            tgt = targets[j]
            src, dst = point[(j, side)], point[(tgt, side)]
            img = m.act_angle(src)
            if (angle_dist(img, dst) * hilbert_density(hosts[tgt], dst)
                    > 8.0 * HILBERT_EPS):
                continue
            dh = (_angle_derivative(m, abs_det, src) * hilbert_density(hosts[tgt], img)
                  / hilbert_density(hosts[j], src))
            raw[(j, side)].append(((tgt, side), min(math.log(max(dh, 1e-300)), 0.0)))
    # Karp's mean cycle on the dict graph
    NEG, n = float("-inf"), len(nodes)
    D = [dict.fromkeys(nodes, NEG) for _ in range(n + 1)]
    D[0] = dict.fromkeys(nodes, 0.0)
    for k in range(1, n + 1):
        for u in nodes:
            if D[k - 1][u] != NEG:
                for v, w in raw[u]:
                    if D[k - 1][u] + w > D[k][v]:
                        D[k][v] = D[k - 1][u] + w
    mean = NEG
    for v in nodes:
        rs = [(D[n][v] - D[k][v]) / (n - k) for k in range(n) if D[k][v] != NEG]
        if D[n][v] != NEG and rs:
            mean = max(mean, min(rs))
    b = min(BOOST, max(-0.5 * mean, 1e-12))
    edges = {u: [(t, w + b) for t, w in raw[u]] for u in nodes}
    P = dict.fromkeys(nodes, 0.0)
    for _ in range(2 * q + 2):
        relaxed = {u: max([0.0] + [w + P[t] for t, w in edges[u]]) for u in nodes}
        if relaxed == P:
            break
        P = relaxed
    radius = {u: HILBERT_EPS * math.exp(-P[u]) for u in nodes}
    xi = {u: _xi(hosts[u[0]], point[u]) for u in nodes}
    scale, rejected = 1.0, None
    for _ in range(MAX_HALVINGS):
        try:
            cone = MultiCone(tuple(arc(
                _xi_inv(hosts[j], xi[(j, 0)] - scale * radius[(j, 0)]),
                _xi_inv(hosts[j], xi[(j, 1)] + scale * radius[(j, 1)]))
                for j in range(q)))
        except DegenerateInput:
            cone = None
        if cone is not None and (rejected is None or _strict_image(
                mats[rejected[0]], cone.arcs[rejected[1]], cone.arcs,
                start_order(cone.arcs))[1] is not None):
            report = certify(mats, sft, MulticoneFamily.constant(cone, len(mats)))
            if report.ok:
                return cone
            rejected = (report.witness["beta"], report.witness["component"])
        scale *= 0.5
    raise DegenerateInput("no certified fattening found for the given cores")


def _outcome(fatten, mats, cores):
    try:
        return repr(fatten(mats, cores))
    except HyperconeError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_fatten_cores_matches_the_certify_halving_reference():
    # c04's certified pairs, the float copies of the pullback draws on their
    # exact cores, strict-free pairs, and deep length-6 draws, some of which
    # run all 60 halvings: the same cone, bit for bit, or the same error
    cases = [((A, B), component_model(A, B, "").cores)
             for A, B in _strict_free_pairs(400)]
    for pair, fword, _ in pullback_population(500):
        cores = component_model(*pair, fword).cores
        cases += [(pair, cores), ((pair[0].to_float(), pair[1].to_float()), cores)]
    rng, deep = random.Random(606), 0
    while deep < 40:
        fword = "".join(rng.choice("+-") for _ in range(6))
        pair = apply_fword_inverse(*_mild_exact_base(rng, 6), fword)
        try:
            cases.append((pair, component_model(*pair, fword).cores))
        except HyperconeError:
            continue
        deep += 1
    outcomes = []
    for mats, cores in cases:
        ref = _outcome(_fatten_reference, mats, cores)
        # on an equal new CoreSet, which holds no map yet
        assert _outcome(fatten_cores, mats, CoreSet(cores.u_arcs, cores.s_arcs)) == ref
        outcomes.append(ref)
    exhausted = "DegenerateInput: no certified fattening found for the given cores"
    assert outcomes.count(exhausted) >= 5


def test_fatten_cores_builds_one_full_cone_on_an_exhausted_draw(monkeypatch):
    # the first three deep length-6 draws of the reference test's population
    # that run all 60 halvings: the first halving's cone is rejected, and
    # each later one retests the rejected arc alone, which fails on every
    # one, so no other full cone is built (60 were)
    built = []

    class Counted(MultiCone):
        def __init__(self, arcs):
            built.append(None)
            super().__init__(arcs)

    monkeypatch.setattr(multicone, "MultiCone", Counted)
    rng, exhausted = random.Random(606), []
    while len(exhausted) < 3:
        fword = "".join(rng.choice("+-") for _ in range(6))
        pair = apply_fword_inverse(*_mild_exact_base(rng, 6), fword)
        try:
            cores = component_model(*pair, fword).cores
        except HyperconeError:
            continue
        built.clear()
        try:
            fatten_cores(pair, cores)
        except DegenerateInput as exc:
            if "no certified fattening" in str(exc):
                exhausted.append((fword, cores.rank, len(built)))
    assert exhausted == [("+-+++-", 25, 1), ("-+--++", 27, 1), ("++-+-+", 29, 1)]


def test_cores_share_one_component_action(monkeypatch):
    # criterion -> fatten -> certify -> induced on one CoreSet computes each
    # generator's U map and S map once: 2N component_map calls (5N when
    # each stage made its own); an equal but new CoreSet, or a generator
    # that is another object, computes its maps again
    import copy
    import pickle

    from hypercone.corrdyn import induced_morphism
    from tests.test_fareycomb import exact_pullbacks
    calls = []
    monkeypatch.setattr(multicone, "component_map",
                        lambda *a, **k: calls.append(a[0]) or component_map(*a, **k))
    pair, _, model = exact_pullbacks()[4]
    mats = (*pair, pair[0] @ pair[1])  # AB acts on the pair's cores
    cores, n = model.cores, 3
    before = (repr(cores), hash(cores), cores.to_json(), pickle.dumps(cores))
    assert core_criterion(mats, cores).ok
    cone = fatten_cores(mats, cores)
    assert certify(mats, Sft.full(n), MulticoneFamily.constant(cone, n)).ok
    phi = induced_morphism(mats, cores)
    assert len(calls) == 2 * n
    assert (repr(cores), hash(cores), cores.to_json(), pickle.dumps(cores)) == before
    assert "_maps" not in repr(cores) and CoreSet._fields == CoreSet.__slots__[:-1]
    # the same again reads the held maps
    assert core_criterion(mats, cores).ok and induced_morphism(mats, cores) == phi
    assert len(calls) == 2 * n
    # equal cores that are another object start empty
    for other in (CoreSet(cores.u_arcs, cores.s_arcs), pickle.loads(pickle.dumps(cores)),
                  copy.copy(cores)):
        assert other == cores and hash(other) == hash(cores) and other is not cores
        calls.clear()
        assert core_criterion(mats, other).ok and len(calls) == 2 * n
    # a generator that is another object, equal or not, is mapped again
    for g in (Mat2(*pair[0]._key()), pair[0] @ pair[0]):
        calls.clear()
        assert core_criterion((g, *mats[1:]), cores).ok
        assert calls == [g.to_float(), g.inverse().to_float()]


def test_ambiguous_stable_map_is_reported_as_before():
    # U maps into itself under A and under its square; the S arc's image
    # under A^-1 sticks out of it.  Only maps that succeed are held, so the
    # criterion reports the S arc whether or not the fattening ran first,
    # and the fattening, which reads U maps only, grows its cone as before
    A, R = Mat2(2.0, 0.0, 0.0, 0.5), Mat2.rotation(0.5)
    s_message = ("InvarianceViolation: image of arc at 1.620796 not inside "
                 "a single component (margin -3.749e-02)")
    r_message = ("InvarianceViolation: image of arc at 3.041593 not inside "
                 "a single component (margin -5.000e-01)")
    for first_fatten in (False, True):
        cores = CoreSet((arc(-0.1, 0.1),), (arc(PI / 2 + 0.05, PI / 2 + 0.3),))
        if first_fatten:
            assert repr(fatten_cores((A,), cores)) == (
                "MultiCone(arcs=(ArcP1(start=ProjPoint(angle=2.414263627403475), "
                "end=ProjPoint(angle=0.9163517162529207)),))")
            with pytest.raises(DegenerateInput, match="cores are not invariant"):
                fatten_cores((A, R), cores)
        for mats, reason in (((A,), s_message), ((A, R), s_message),
                             ((R, A), r_message), ((A,), s_message)):
            assert core_criterion(mats, cores).reasons == (reason,)
        assert _outcome(fatten_cores, (A,), cores) == _outcome(_fatten_reference,
                                                              (A,), cores)


def test_core_criterion_rejects_overlap():
    cores = CoreSet(u_arcs=(arc(0.0, 0.6),), s_arcs=(arc(0.5, 1.0),))
    rep = core_criterion((Mat2(2, 0, 0, 0.5),), cores)
    assert not rep.ok
    assert "Disjointness" in rep.reasons[0]


def test_core_criterion_identity_guard():
    # rotation by pi/2 maps the symmetric rank-2 core system to itself but
    # its square is -identity: the action never becomes constant
    rot = Mat2.rotation(math.pi / 2)
    cores = CoreSet(u_arcs=(arc(-0.1, 0.1), arc(math.pi / 2 - 0.1,
                                                math.pi / 2 + 0.1)),
                    s_arcs=(arc(0.6, 0.8), arc(math.pi / 2 + 0.6,
                                               math.pi / 2 + 0.8)))
    rep = core_criterion((rot,), cores)
    assert not rep.ok


def test_tightness(free_pair):
    model = component_model(*free_pair, "")
    cone = fatten_cores(free_pair, model.cores)
    assert tightness(free_pair, cone, model.cores)
    # split one component artificially: no longer tight
    a0 = cone.arcs[0]
    third = a0.length / 3
    split = MultiCone((ArcP1.from_angles(a0.start.angle, a0.start.angle + third),
                       ArcP1.from_angles(a0.end.angle - third, a0.end.angle),
                       cone.arcs[1]))
    assert not tightness(free_pair, split, model.cores)


def component_length(mats, cone):
    return eventual_constancy([component_map(m.to_float(), cone.arcs, cone.arcs)
                               for m in mats])


def test_single_component_length_free_pair(free_pair):
    model = component_model(*free_pair, "")
    cone = fatten_cores(free_pair, model.cores)
    assert component_length(free_pair, cone) == (True, 1)


def test_single_component_length_single_matrix():
    cone = MultiCone((arc(-0.3, 0.3),))
    assert component_length((Mat2(2, 0, 0, 0.5),), cone) == (True, 1)


def test_single_component_length_raises_on_a_cycle():
    # a quarter turn swaps the two arcs: no product is constant
    cone = MultiCone((arc(0.2, 0.6), arc(0.2 + PI / 2, 0.6 + PI / 2)))
    assert component_length((Mat2(0.0, -1.0, 1.0, 0.0),), cone) == (False, 0)


def test_single_component_length_matches_morphism(free_pair_exact):
    from hypercone.corrdyn import induced_morphism, morphism_hyperbolic
    from hypercone.twoshift import apply_fword_inverse
    pair = apply_fword_inverse(*free_pair_exact, "+-")
    model = component_model(*pair, "+-")
    cone = fatten_cores(pair, model.cores)
    ok, k = component_length(pair, cone)
    _, ell = morphism_hyperbolic(induced_morphism(pair, model.cores))
    assert ok and k == ell


# u-maps (in slots) of a tight rank-5 pair whose B rotates the U labels:
# its non-constant products come back only after more than 64 letters
ROTATING_PAIR_U_MAPS = [(0, 0, 0, 1, 3), (1, 2, 3, 4, 0)]


def constancy_oracle(maps):
    """Least k <= max(1, C(q, 2)) with every length-k product constant, or
    None.  Exact: an acyclic pair graph has no path of C(q, 2) edges."""
    q = len(maps[0]) if maps else 0
    products = set(maps)
    for k in range(1, max(1, q * (q - 1) // 2) + 1):
        if all(len(set(f)) == 1 for f in products):
            return k
        products = {tuple(f[v] for v in g) for f in maps for g in products}
    return None


def test_eventual_constancy_cycle_detection():
    ok, _ = eventual_constancy([(1, 0)])  # transposition cycles forever
    assert not ok
    ok, ell = eventual_constancy([(0, 0), (1, 1)])
    assert ok and ell == 1
    assert eventual_constancy(ROTATING_PAIR_U_MAPS) == (False, 0)


def test_eventual_constancy_long_chain():
    # x -> max(x - 1, 0) on 100 points: 99 steps reach 0 from everywhere
    chain = tuple(max(x - 1, 0) for x in range(100))
    assert eventual_constancy([chain]) == (True, 99)


def test_eventual_constancy_matches_product_oracle():
    assert eventual_constancy([]) == eventual_constancy([(0,)]) == (True, 1)
    rng = random.Random(15)
    draws = [ROTATING_PAIR_U_MAPS]
    for _ in range(1000):
        q = rng.randint(1, 5)
        draws.append([tuple(rng.randrange(q) for _ in range(q))
                      for _ in range(rng.randint(1, 3))])
    outcomes = set()
    for maps in draws:
        want = constancy_oracle(maps)
        assert eventual_constancy(maps) == \
            ((False, 0) if want is None else (True, want)), maps
        outcomes.add(want)
    assert None in outcomes and max(k for k in outcomes if k) >= 4


def test_certify_never_passes_with_elliptic_witness():
    rng = random.Random(21)
    sft = Sft.full(2)
    checked = 0
    while checked < 1000:
        def rnd():
            while True:
                a = rng.uniform(-2.5, 2.5)
                b = rng.uniform(-2.5, 2.5)
                c = rng.uniform(-2.5, 2.5)
                if abs(a) > 1e-2:
                    return Mat2(a, b, c, (1 + b * c) / a)
        mats = (rnd(), rnd())
        witness = search_elliptic(mats, sft, 4)
        if witness is None:
            continue
        checked += 1
        s0 = rng.uniform(0, math.pi)
        ln0 = rng.uniform(0.05, 1.0)
        s1 = s0 + ln0 + rng.uniform(0.05, 0.6)
        ln1 = rng.uniform(0.05, max(0.06, math.pi - 0.1 - ln0 -
                                    (s1 - s0 - ln0)))
        try:
            cone = MultiCone((arc(s0, s0 + ln0), arc(s1, s1 + ln1)))
        except Exception:
            continue
        rep = certify(mats, sft, MulticoneFamily.constant(cone, 2))
        assert not rep.ok


def test_family_json_roundtrip(free_pair):
    model = component_model(*free_pair, "")
    cone = fatten_cores(free_pair, model.cores)
    fam = MulticoneFamily.constant(cone, 2)
    again = MulticoneFamily.from_json(family_json(fam))
    assert len(again.cones) == 2
    assert again.cones[0].arcs[0].start.angle == pytest.approx(
        fam.cones[0].arcs[0].start.angle)


def test_core_duality_swaps_roles(free_pair):
    # cores of the inverse tuple over the dual (= same full) shift swap U and S
    inv = tuple(m.inverse() for m in free_pair)
    cores = compute_cores(free_pair, Sft.full(2), depth=40)
    swapped = compute_cores(inv, dual(Sft.full(2)), depth=40)
    assert swapped.rank == cores.rank
    for got, want in zip(swapped.u_arcs, cores.s_arcs):
        assert got.start.angle == pytest.approx(want.start.angle, abs=1e-8)
        assert got.end.angle == pytest.approx(want.end.angle, abs=1e-8)
    for got, want in zip(swapped.s_arcs, cores.u_arcs):
        assert got.start.angle == pytest.approx(want.start.angle, abs=1e-8)
        assert got.end.angle == pytest.approx(want.end.angle, abs=1e-8)


def test_compute_cores_no_convergence_on_elliptic_tuple():
    from hypercone.errors import NoConvergence
    import math as _math
    rot = Mat2.rotation(0.77)
    with pytest.raises((NoConvergence,) ):
        compute_cores((rot, Mat2.rotation(1.3)), Sft.full(2), depth=24)


# the fill (_runs) against the linear scan over puffed points it replaced


def _fill_against_linear(spans, blockers):
    """Reference: test each gap against every blocker."""
    spans = merge_spans(spans)
    if len(spans) <= 1 or not blockers:
        return spans
    blocked = merge_spans(blockers)

    def gap_is_blocked(gs, gl):
        return any((bs - gs) % PI < gl or (gs - bs) % PI < bl
                   for bs, bl in blocked)

    out = []
    for i, (s, ln) in enumerate(spans):
        out.append((s, ln))
        gap_start = s + ln
        gap_len = (spans[(i + 1) % len(spans)][0] - gap_start) % PI
        if not gap_is_blocked(gap_start % PI, gap_len):
            out.append((gap_start % PI, gap_len))
    return merge_spans(out)


# dyadic starts and lengths add exactly, so ends often fall on other ends;
# lengths up to 2.5 let ends wrap past pi, and length 0 puts both ends on
# one point
_dyadic_spans = st.lists(st.tuples(st.integers(0, 50).map(lambda k: k / 16),
                                   st.integers(0, 40).map(lambda k: k / 16)),
                         max_size=8)


@given(_dyadic_spans, _dyadic_spans)
@settings(max_examples=400, deadline=None)
@example([(0.0, 0.5), (1.0, 0.5)], [(0.0, PI)])              # whole circle
@example([(0.0, 0.5), (1.0, 0.5)], [])                        # no blockers
@example([(0.0, 0.5), (1.0, 0.5)], [(0.7, 0.0)])              # only empty ones
@example([(0.0, 0.5), (1.0, 0.5)], [(3.0, 0.5)])              # wraps past pi
@example([(0.0, 0.5), (1.0, 0.5)], [(0.5, 0.25)])             # gap starts on a start
@example([(0.0, 0.5), (1.0, 0.5)], [(0.25, 0.25)])            # ... and on an end
@example([(0.5, 0.5), (2.0, 0.5)], [(2.75, 0.5), (0.25, 0.5)])
def test_fill_against_matches_linear_scan(spans, blockers):
    # the ends of the spans are the points, named by their place, and the
    # ends of the blockers block; the scan takes the points puffed to PUFF
    # and the blockers to 2 PUFF, so a blocker on a point lies past it, as
    # in _runs, and _named names its spans
    points = [(norm_angle(x), str(i)) for i, x in
              enumerate(x for s, ln in spans for x in (s, s + ln))]
    ends = [norm_angle(x) for s, ln in blockers for x in (s, s + ln)]
    got, names = _runs(points, ends)
    if not ends:
        assert (got, names) == ([], ())  # no fill
        return
    want = _fill_against_linear([(x, PUFF) for x, _ in points],
                                [(x, 2 * PUFF) for x in ends])
    assert len(got) == len(want)
    for (s, ln), (ws, wln) in zip(got, want):
        assert s == ws and abs(ln - wln) <= 4e-16
    assert names == _named(want, points)[1]


def test_alternation_defects():
    u, s = (arc(0.0, 0.4), arc(1.5, 1.9)), (arc(0.6, 1.0), arc(2.1, 2.5))
    assert [t for _, t, _ in alternation(u, s)[0]] == [0, 1, 0, 1]
    assert alternation(u, s)[1] is None
    assert alternation(u, s[:1])[1] == "counts"
    assert alternation((), ())[1] == "counts"
    assert alternation((u[0], s[0]), (u[1], s[1]))[1] == "order"
    assert alternation((arc(0.0, 0.7),) + u[1:], s)[1] == "overlap"


# ---------------------------------------------------------------------------
# best_target's bisection against the scan over every target


def _best_target_scan(img, targets):
    """Reference: the first largest containment margin over all targets."""
    best, best_j = -PI, None
    for j, comp in enumerate(targets):
        mg = containment_margin(comp, img)
        if mg > best:
            best, best_j = mg, j
    return best_j, best


def _random_targets(rng, q):
    """q arcs with disjoint closures; arcs and gaps between 1e-11 and about
    pi/q, turned by a random angle so that an arc may wrap across 0."""
    pieces = [10 ** rng.uniform(-11, -1) if rng.random() < 0.25 else rng.random()
              for _ in range(2 * q)]
    scale = PI / sum(pieces)
    at, ends = rng.uniform(0.0, PI), []
    for piece in pieces:
        ends.append(at)
        at += piece * scale
    return MultiCone(tuple(ArcP1.from_angles(ends[i], ends[i + 1])
                           for i in range(0, 2 * q, 2))).arcs


def _random_spans(rng, targets, n):
    """Spans anywhere, inside a target, pinned to a target's endpoint, just
    before a target's start, and across 0/pi; lengths from 0 to near pi."""
    for _ in range(n):
        t = rng.choice(targets)
        s, ln = t.start.angle, t.length
        kind = rng.randrange(5)
        if kind == 0:
            yield (rng.uniform(0.0, PI),
                   rng.choice([0.0, rng.uniform(0.0, PI), PI - 10 ** -rng.uniform(1, 12)]))
        elif kind == 1:
            off = rng.random() * ln
            yield norm_angle(s + off), rng.random() * (ln - off)
        elif kind == 2:  # pinned: an endpoint that is the target's own
            x = norm_angle(s + rng.uniform(-0.1, 1.1) * ln)
            yield rng.choice([(s, angle_gap(s, x)), (x, angle_gap(x, t.end.angle)),
                              (s, ln), (t.end.angle, 0.0), (s, 0.0)])
        elif kind == 3:
            yield norm_angle(s - 10 ** -rng.uniform(9, 17)), rng.random() * ln
        else:
            x = 10 ** -rng.uniform(1, 12)
            yield norm_angle(rng.choice([-x, x])), rng.uniform(0.0, PI - x)


def test_best_target_matches_the_scan_over_all_targets():
    rng = random.Random(24)
    fast = slow = 0
    for q in range(1, 32):
        for shuffled in (False, True, False, True):
            targets = list(_random_targets(rng, q))
            if shuffled:
                rng.shuffle(targets)
            targets = tuple(targets)
            order = start_order(targets)
            for img in _random_spans(rng, targets, 60):
                got = best_target(img, targets, order)
                assert got == _best_target_scan(img, targets), (targets, img)
                if got[1] >= 0.0:
                    fast += 1
                else:
                    slow += 1
    assert fast > 1000 and slow > 1000


def test_certify_reads_one_margin_per_image(monkeypatch):
    # an accepted certificate of a rank-13 component: each of the 4 * 13
    # images lands inside its target, where the bisected arc is the one
    from tests.test_fareycomb import exact_pullbacks
    pair, _, model = exact_pullbacks()[11]
    assert model.cores.rank == 13
    cone = fatten_cores(pair, model.cores)
    fam = MulticoneFamily.constant(cone, 2)
    calls = []

    def counted(outer, span):
        calls.append(span)
        return containment_margin(outer, span)

    monkeypatch.setattr(multicone, "containment_margin", counted)
    rep = certify(pair, Sft.full(2), fam)
    assert rep.ok
    assert len(calls) == 4 * 13
