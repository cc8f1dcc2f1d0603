import itertools
import math
import random
from fractions import Fraction

import pytest

from hypercone.errors import DegenerateInput, HyperconeError, WitnessUnverified
from hypercone.fareycomb import component_model
from hypercone.multicone import MulticoneFamily, certify, fatten_cores
from hypercone.projgeom import angle_dist
from hypercone.sl2core import Mat2, eigen_data, spectral_norm
from hypercone.symdyn import (RateReport, Sft, hyperbolicity_rate,
                              periodic_words, product)
from hypercone.tolerances import DEFAULT
from hypercone.witness import (BoundaryReport, HeteroclinicHit, ParabolicHit,
                               best_heteroclinic, diagnose_boundary,
                               search_elliptic, search_parabolic)
from tests.conftest import canonical_pair, exact_canonical_pair, group_tuple
from tests.reference import admissible, cyclically_admissible, is_twisted


def test_elliptic_rotation_length_one():
    rot = Mat2.rotation(math.pi / 2)
    assert search_elliptic((rot,), Sft.full(1), 3) == (0,)


def test_elliptic_product_ab():
    pair = canonical_pair(2.0, 2.0, 1.0, -2.0)  # tr AB = 0
    assert search_elliptic(pair, Sft.full(2), 4) == (0, 1)


def test_elliptic_none_on_certified_pair(free_pair):
    assert search_elliptic(free_pair, Sft.full(2), 10) is None


def test_parabolic_shear():
    hit = search_parabolic((Mat2(1, 1, 0, 1),), Sft.full(1), 2)
    assert hit.kind == "parabolic" and hit.word == (0,)


def test_parabolic_trace_two_product():
    pair = canonical_pair(2.0, 2.0, 1.0, 0.0)  # tr AB = 2 exactly
    hit = search_parabolic(pair, Sft.full(2), 3)
    assert hit.kind == "parabolic" and hit.word == (0, 1)
    assert not is_twisted(*pair)


def test_identity_product_rotation_pi():
    hit = search_parabolic((Mat2.rotation(math.pi),), Sft.full(1), 2)
    assert hit.kind == "identity"


def test_heteroclinic_fixture(boundary_triple):
    hit = best_heteroclinic(boundary_triple, Sft.full(3), 1, 1, 1)
    assert hit is not None and hit.residual <= DEFAULT.heteroclinic
    assert hit.residual <= 1e-12
    assert len(hit.source) == 1 and len(hit.target) == 1
    assert hit.connector == (2,)
    # parameter constraints of the family
    lam, theta = 2.0, 1.8
    assert (lam * lam + 1) / (lam * lam - 1) < theta < 2 / (lam - 1)
    A0, B0 = boundary_triple[0], boundary_triple[1]
    assert (A0 @ B0).trace() == pytest.approx(-3.04, abs=1e-9)
    assert (A0 @ B0).trace() < -2


def test_heteroclinic_none_for_principal_pair():
    pair = (Mat2(2, 0, 0, 0.5), Mat2(3, 0, 0, 1 / 3))
    hit = best_heteroclinic(pair, Sft.full(2), 2, 2, 2)
    assert hit is None or hit.residual > DEFAULT.heteroclinic


def test_heteroclinic_residual_decreases_toward_connection():
    # push the perturbed corner matrix back toward the connection: the
    # carried direction C u_B approaches s_A and the best residual shrinks
    lam, theta, nu = 2.0, 1.8, 3.0
    d = nu + 1 / nu

    def triple(t):
        A0 = Mat2(lam, 0, -theta * (lam - 1 / lam), 1 / lam)
        B0 = Mat2(lam, theta * (lam - 1 / lam), 0, 1 / lam)
        C = Mat2(t, -1 + t * d, 1, d)
        return (A0, B0, C)

    residuals = []
    for t in (0.05, 0.02, 0.005, 0.0):
        hit = best_heteroclinic(triple(t), Sft.full(3), 1, 1, 1)
        residuals.append(hit.residual)
    assert residuals[0] > residuals[1] > residuals[2] > residuals[3]
    assert residuals[3] <= 1e-12


def test_diagnose_boundary_kinds(boundary_triple):
    rep = diagnose_boundary(boundary_triple, Sft.full(3), budget=(1, 1, 1))
    assert rep.kind == "heteroclinic"
    rot = (Mat2.rotation(1.0),)
    assert diagnose_boundary(rot, Sft.full(1), budget=(2, 2, 1)).kind == "elliptic"


def exact_boundary_triple(shear=Fraction(0)):
    """The boundary triple of conftest in rationals (lambda = 2, theta = 9/5,
    nu = 3), its C times the shear [[1, 0], [shear, 1]]."""
    lam, theta, nu = Fraction(2), Fraction(9, 5), Fraction(3)
    return (Mat2(lam, 0, -theta * (lam - 1 / lam), 1 / lam),
            Mat2(lam, theta * (lam - 1 / lam), 0, 1 / lam),
            Mat2(0, -1, 1, nu + 1 / nu) @ Mat2(1, 0, shear, 1))


def test_exact_connection_is_heteroclinic():
    # C carries u(B) onto s(A) exactly, and exact_dirs shows it
    rep = diagnose_boundary(exact_boundary_triple(), Sft.full(3), budget=(6, 6, 4))
    assert rep.kind == "heteroclinic"
    assert rep.heteroclinic == HeteroclinicHit(source=(1,), connector=(2,), target=(0,),
                                               residual=0.0)


def test_near_connection_is_not_heteroclinic_on_exact_input():
    # the shear moves C u(B) off s(A) by about 1e-12, within
    # DEFAULT.heteroclinic: a float claim, but no exact connection
    sheared = exact_boundary_triple(Fraction(1, 10 ** 12))
    rep = diagnose_boundary(sheared, Sft.full(3), budget=(6, 6, 4))
    assert rep.kind == "none"
    hit = rep.heteroclinic
    assert (hit.source, hit.connector, hit.target) == ((1,), (2,), (0,))
    assert 0.5e-12 < hit.residual <= DEFAULT.heteroclinic
    # float input, and mixed input, which is read as float, keep the claim
    floats = tuple(m.to_float() for m in sheared)
    mixed = sheared[:2] + floats[2:]
    for mats in (floats, mixed):
        rep = diagnose_boundary(mats, Sft.full(3), budget=(6, 6, 4))
        assert rep.kind == "heteroclinic" and rep.heteroclinic.residual == hit.residual


def test_diagnose_certified_tuple_none(free_pair):
    rep = diagnose_boundary(free_pair, Sft.full(2), budget=(6, 6, 3))
    assert rep.kind == "none"
    assert rep.budgets == {"k": 6, "l": 6, "n": 3}


def test_certification_excludes_witnesses(free_pair):
    assert search_elliptic(free_pair, Sft.full(2), 12) is None
    assert search_parabolic(free_pair, Sft.full(2), 12) is None


def test_witness_and_certify_mutually_exclusive():
    rng = random.Random(41)
    sft = Sft.full(2)
    confirmed = 0
    for _ in range(300):
        mu = rng.uniform(1.1, 4.0)
        nu = rng.uniform(1.1, 4.0)
        gamma = rng.uniform(-8.0, -0.1)
        pair = canonical_pair(mu, nu, 1.0, gamma)
        w = search_elliptic(pair, sft, 6)
        if w is None:
            continue
        confirmed += 1
        try:
            model = component_model(*pair, "")
            cone = fatten_cores(pair, model.cores)
        except Exception:
            continue  # no candidate multicone at all
        rep = certify(pair, sft, MulticoneFamily.constant(cone, 2))
        assert not rep.ok
    assert confirmed > 20


def _brute_candidates(mats, sft, k_max, ell_max, n_max):
    """Every admissible (residual, source, connector, target), visited in the
    order best_heteroclinic documents: connectors shortlex (the empty one
    first), sources shortlex, targets by stable angle.  Cyclic classes come
    from the brute-force min-rotation filter; the hyperbolic ones have
    |tr| > 2 + DEFAULT.parabolic at det > 0 (the parabolic band is tested
    first) and |tr| > DEFAULT.trace at det < 0, with band 0 in place of both
    on exact input."""
    exact = all(m.is_exact() for m in mats)
    band, near = (0, 0) if exact else (DEFAULT.trace, DEFAULT.parabolic)

    def words(n):
        return [w for length in range(1, n + 1)
                for w in itertools.product(range(sft.n_symbols), repeat=length)
                if cyclically_admissible(sft, w)
                and w == min(w[i:] + w[:i] for i in range(1, length + 1))
                and all(length % p or w != w[p:] + w[:p] for p in range(1, length))]

    def hyperbolic(n):
        return [(w, p) for w, p in ((w, product(mats, w)) for w in words(n))
                if abs(p.trace()) > (2 + near if p.det() > 0 else band)]

    sources = [(v, eigen_data(p)[0][0].angle) for v, p in hyperbolic(k_max)]
    targets = sorted((eigen_data(p)[1][0].angle, w) for w, p in hyperbolic(ell_max))
    connectors = [c for length in range(n_max + 1)
                  for c in itertools.product(range(sft.n_symbols), repeat=length)
                  if admissible(sft, c)]
    for conn in connectors:
        P = product(mats, conn) if conn else Mat2.identity()
        for v, u_angle in sources:
            if conn and not sft.ok(v[-1], conn[0]):
                continue
            carried = P.act_angle(u_angle)
            left = conn[-1] if conn else v[-1]
            for s_angle, w in targets:
                if w != v and sft.ok(left, w[0]):
                    yield angle_dist(carried, s_angle), v, conn, w


def _brute_heteroclinic(mats, sft, k_max, ell_max, n_max):
    """The first minimum of _brute_candidates, or None."""
    best = None
    for cand in _brute_candidates(mats, sft, k_max, ell_max, n_max):
        if best is None or cand[0] < best[0]:
            best = cand
    return best


@pytest.mark.parametrize("case", ["free", "triple", "group", "reflection"])
def test_best_heteroclinic_matches_brute_force(case, free_pair, boundary_triple, sft4):
    # reflection: a generator of determinant -1, so that connectors through
    # it reverse the orientation of P1 while the free pair's prune blocks
    mats, sft, budget = {
        "free": (free_pair, Sft.full(2), (4, 4, 3)),
        "triple": (boundary_triple, Sft.full(3), (2, 2, 2)),
        "group": (group_tuple(free_pair), sft4, (3, 3, 2)),
        "reflection": (free_pair + (Mat2(0.0, 1.0, 1.0, 0.0),), Sft.full(3),
                       (4, 4, 3)),
    }[case]
    hit = best_heteroclinic(mats, sft, *budget)
    r, v, conn, w = _brute_heteroclinic(mats, sft, *budget)
    assert (hit.residual, hit.source, hit.connector, hit.target) == (r, v, conn, w)


ROT4 = Mat2(0, -1, 1, 0)  # elliptic of order 4
ROT6 = Mat2(0, -1, 1, 1)  # elliptic of order 6
# golden-mean shifts: B may not follow B
GOLDEN2 = Sft(2, ((True, True), (True, False)))
GOLDEN3 = Sft(3, ((True, True, True), (True, False, True), (True, True, True)))
# three 2-cycles, A <-> B, C <-> D and E <-> F, joined by A -> D, C -> F and
# E -> B: the cyclic classes of length <= 5 are AB, CD and EF, and none may
# precede another but through a connector, so the empty connector has no
# candidate
RING = Sft(6, tuple(tuple(j == i ^ 1 or (i % 2 == 0 and j == (i + 3) % 6)
                          for j in range(6)) for i in range(6)))


def _random_matrix(rng, exact, det=1):
    while True:
        if exact:
            a, b, c = (Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3))
        else:
            a, b, c = (rng.uniform(-3.0, 3.0) for _ in range(3))
        if abs(a) >= 0.25:
            return Mat2(a, b, c, (det + b * c) / a)


def _random_sft(rng, n):
    """A transitive shift on n letters in which some letter may not precede
    another."""
    while True:
        allowed = tuple(tuple(rng.random() < 0.7 for _ in range(n)) for _ in range(n))
        if not all(map(all, allowed)):
            try:
                return Sft(n, allowed)
            except DegenerateInput:
                pass


@pytest.mark.parametrize("kind", ["random", "rot4", "rot6", "det_minus_one",
                                  "inverse", "sft", "no_empty"])
def test_best_heteroclinic_differential(kind):
    """Seeded pairs and triples on the full and golden-mean shifts, float and
    Fraction entries: elliptic generators of finite order repeat products
    exactly, an inverse pair puts stable on unstable directions (residual-0
    ties), and a generator of determinant -1 gives orientation-reversing
    connectors.  The sft kind draws triples and quadruples over random
    transitive shifts, where each letter precedes its own set of targets.
    The no_empty kind draws six matrices over RING, where no empty-connector
    candidate exists, so the search has no residual before its first scan
    and prunes nothing until a connector gives one."""
    rng = random.Random(f"heteroclinic:{kind}")
    ties_at_zero = flips = connected = 0
    for i in range(12):
        n, exact = 6 if kind == "no_empty" else 2 + i % 2 + (kind == "sft"), i % 4 < 2
        mats = [_random_matrix(rng, exact) for _ in range(n)]
        if kind in ("rot4", "rot6"):
            rot = ROT4 if kind == "rot4" else ROT6
            mats[-1] = rot if exact else rot.to_float()
        elif kind == "det_minus_one":
            mats[0] = _random_matrix(rng, exact, det=-1)
        elif kind == "inverse":
            mats[-1] = mats[0].inverse()
        mats = tuple(mats)
        if kind == "no_empty":
            sft, budget = RING, (2 + i % 4, 5 - i % 4, 2 + i % 3)
        else:
            sft = (_random_sft(rng, n) if kind == "sft"
                   else (Sft.full(n), GOLDEN2 if n == 2 else GOLDEN3)[i // 2 % 2])
            budget = (3 + i % 2, 3, i % 4)
        cands = list(_brute_candidates(mats, sft, *budget))
        if kind == "no_empty":
            assert all(c[2] for c in cands)
        hit = best_heteroclinic(mats, sft, *budget)
        if not cands:
            assert hit is None
            continue
        r, v, conn, w = _brute_heteroclinic(mats, sft, *budget)
        assert (hit.residual, hit.source, hit.connector, hit.target) == (r, v, conn, w)
        connected += 1
        ties_at_zero += r == 0.0 and sum(c[0] == r for c in cands) > 1
        connectors = {c[2] for c in cands if c[2]}
        flips += any(product(mats, c).det() < 0 for c in connectors)
    if kind == "inverse":
        assert ties_at_zero > 0
    if kind == "det_minus_one":
        assert flips > 0
    if kind == "no_empty":
        assert connected >= 6


def test_best_heteroclinic_shortest_connector_wins_a_tie(boundary_triple):
    # C and BC carry a source equally close to its target: the shortlex
    # connector order makes C, the shorter, the first strict minimum
    hit = best_heteroclinic(boundary_triple, Sft.full(3), 2, 2, 2)
    assert hit.connector == (2,)


def test_best_heteroclinic_negative_det_endpoints():
    # A has det -1 and |tr| 1.5 < 2, yet eigenvalues 2 and -1/2: it is a
    # source or target, and B (det 1) the other end
    mats = (Mat2(2.0, 0, 0, -0.5), Mat2(2.0, 1.0, 1.0, 1.0))
    hit = best_heteroclinic(mats, Sft.full(2), 1, 1, 0)
    assert hit is not None and {hit.source, hit.target} == {(0,), (1,)}
    assert hit.connector == ()


def test_best_heteroclinic_free_pair_default_budget(free_pair):
    # the CLI's default budget 12,12,8, pinned to the full scan's answer
    hit = best_heteroclinic(free_pair, Sft.full(2), 12, 12, 8)
    assert hit == HeteroclinicHit(source=(0,) + (1,) * 11, connector=(1,) * 8,
                                  target=(1,), residual=0.16514867741528838)


def test_best_heteroclinic_group_tuple_sft4(free_pair, sft4):
    # the group tuple over SFT4, pinned to the answers of a scan over every
    # target with the admissibility test on each (the CLI default 12,12,8
    # takes ~2 s there, too long for this suite)
    group = group_tuple(free_pair)
    assert best_heteroclinic(group, sft4, 7, 7, 5) == HeteroclinicHit(
        source=(0,) + (3,) * 6, connector=(3,) * 5, target=(3,),
        residual=0.16514871366084094)
    assert best_heteroclinic(group, sft4, 10, 10, 6) == HeteroclinicHit(
        source=(0,) + (3,) * 9, connector=(3,) * 6, target=(3,),
        residual=0.1651486775562132)


def test_best_heteroclinic_carries_each_source_once_per_connector(
        monkeypatch, free_pair):
    # the halves of a block take over its endpoints' carried angles, so the
    # prune and the scan carry each source at most once per connector; the
    # blocks, one per last letter, are mostly pruned whole.  Each connector
    # entry marks itself current when the search unpacks it; the empty
    # connector, first, is a plain tuple
    import hypercone.witness as witness_mod
    current, carried = [()], []

    class Marked(tuple):
        def __iter__(self):
            current[0] = self[0]
            return super().__iter__()

    def entries(*args, _orig=witness_mod.admissible_entries):
        return (Marked(e) for e in _orig(*args))

    def counted(a, _orig=witness_mod.norm_angle):
        carried.append((current[0], a))
        return _orig(a)
    monkeypatch.setattr(witness_mod, "admissible_entries", entries)
    monkeypatch.setattr(witness_mod, "norm_angle", counted)
    hit = best_heteroclinic(free_pair, Sft.full(2), 10, 10, 6)
    assert hit.connector == (1,) * 6 and len(carried) == 479
    # one connector's carries of distinct sources are distinct angles here
    assert len(set(carried)) == len(carried)
    assert len({conn for conn, _ in carried}) == 127


def test_best_heteroclinic_bounds_the_empty_connector_before_any_scan(
        monkeypatch, free_pair):
    # the residuals of the empty connector, read off the source angles by
    # one bisection each, bound it before its first scan: of the free
    # pair's 226 sources it carries 17 (every scanned source is carried),
    # and its answer is the full scan's
    import hypercone.witness as witness_mod
    carried = []

    def counted(a, _orig=witness_mod.norm_angle):
        carried.append(a)
        return _orig(a)
    monkeypatch.setattr(witness_mod, "norm_angle", counted)
    hit = best_heteroclinic(free_pair, Sft.full(2), 10, 10, 0)
    assert len(carried) == 17
    r, v, conn, w = _brute_heteroclinic(free_pair, Sft.full(2), 10, 10, 0)
    assert (hit.residual, hit.source, hit.connector, hit.target) == (r, v, conn, w)


def test_search_elliptic_reverifies_its_witness(monkeypatch):
    # the witness is rebuilt exactly, by symdyn.exact_product
    import hypercone.symdyn as symdyn_mod
    pair = canonical_pair(2.0, 2.0, 1.0, -2.0)  # tr AB = 0
    monkeypatch.setattr(symdyn_mod, "product", lambda mats, w: Mat2(2.0, 0, 0, 0.5))
    with pytest.raises(WitnessUnverified) as err:
        search_elliptic(pair, Sft.full(2), 4)
    assert isinstance(err.value, HyperconeError)


@pytest.mark.parametrize("kind, mat", [("parabolic", Mat2(1, 1, 0, 1)),
                                       ("identity", Mat2.rotation(math.pi)),
                                       ("parabolic", Mat2(1.0, 1.0, 0.0, 1.0))],
                         ids=["parabolic", "identity", "float-parabolic"])
def test_search_parabolic_reverifies_its_witness(monkeypatch, kind, mat):
    # float hits are rebuilt by product, exact ones by symdyn.exact_product
    import hypercone.symdyn as symdyn_mod
    import hypercone.witness as witness_mod
    assert search_parabolic((mat,), Sft.full(1), 2).kind == kind
    for module in (witness_mod, symdyn_mod):
        monkeypatch.setattr(module, "product", lambda mats, w: Mat2(2.0, 0, 0, 0.5))
    with pytest.raises(WitnessUnverified):
        search_parabolic((mat,), Sft.full(1), 2)


def test_best_heteroclinic_reverifies_its_witness(monkeypatch, boundary_triple):
    import hypercone.witness as witness_mod
    hit = best_heteroclinic(boundary_triple, Sft.full(3), 1, 1, 1)
    assert hit.residual <= 1e-12
    # every rebuilt product diagonal: the source's unstable direction is 0,
    # the target's stable direction pi/2, so the residual comes out pi/2
    monkeypatch.setattr(witness_mod, "product", lambda mats, w: Mat2(2.0, 0, 0, 0.5))
    with pytest.raises(WitnessUnverified):
        best_heteroclinic(boundary_triple, Sft.full(3), 1, 1, 1)


def test_search_elliptic_checks_its_witness_exactly(monkeypatch):
    # the float search finds AB; read exactly, every generator is made the
    # hyperbolic [[2, 1], [1, 1]], so the exact check must refuse the word
    import hypercone.symdyn as symdyn_mod
    pair = canonical_pair(2.0, 2.0, 1.0, -2.0)  # tr AB = 0
    assert search_elliptic(pair, Sft.full(2), 4) == (0, 1)
    monkeypatch.setattr(symdyn_mod, "integer_scaled",
                        lambda m: (Mat2(2, 1, 1, 1), 3))
    with pytest.raises(WitnessUnverified, match="rebuilt exactly"):
        search_elliptic(pair, Sft.full(2), 4)


def _near_parabolic_pair(eps):
    """[[1, 1], [eps, 1 + eps]], of det 1 and trace 2 + eps, with diag(2, 1/2)."""
    return (Mat2(Fraction(1), Fraction(1), eps, 1 + eps),
            Mat2(Fraction(2), Fraction(0), Fraction(0), Fraction(1, 2)))


def test_exact_searches_take_band_zero():
    # tr A = 2 + 1e-8 is hyperbolic, and 2 - 1e-10 elliptic, when read
    # exactly; as floats both are parabolic within DEFAULT.parabolic
    full = Sft.full(2)
    above = _near_parabolic_pair(Fraction(1, 10 ** 8))
    assert search_parabolic(above, full, 6) is None
    assert diagnose_boundary(above, full, (4, 4, 2)).kind != "parabolic"
    floats = tuple(m.to_float() for m in above)
    assert search_parabolic(floats, full, 6).word == (0,)
    below = _near_parabolic_pair(Fraction(-1, 10 ** 10))
    assert search_elliptic(below, full, 6) == (0,)
    assert search_elliptic(tuple(m.to_float() for m in below), full, 6) is None
    shear = (Mat2(Fraction(1), Fraction(1), Fraction(0), Fraction(1)), above[1])
    assert search_parabolic(shear, full, 4) == ParabolicHit(
        word=(0,), kind="parabolic", trace=2.0)


def test_search_parabolic_checks_its_witness_exactly(monkeypatch):
    # read exactly, the rebuilt hit is made the hyperbolic [[2, 1], [1, 1]]
    # over 3, so the exact re-check must refuse the word (the walk reads the
    # generators with integer_scaled too, so that is left as it is)
    import hypercone.witness as witness_mod
    shear = (Mat2(1, 1, 0, 1),)
    assert search_parabolic(shear, Sft.full(1), 2).kind == "parabolic"
    monkeypatch.setattr(witness_mod, "exact_product",
                        lambda mats, w: (Mat2(2, 1, 1, 1), 3))
    with pytest.raises(WitnessUnverified, match="rebuilt exactly"):
        search_parabolic(shear, Sft.full(1), 2)


def test_exact_searches_multiply_no_fraction_per_word(monkeypatch,
                                                       free_pair_exact):
    # the walks multiply the integer_scaled generators, so the Fraction
    # products do not grow with the word length; the heteroclinic
    # re-verification rebuilds its words on the given entries on purpose,
    # and is left out of the count
    import hypercone.witness as witness_mod
    monkeypatch.setattr(witness_mod, "_reverify_heteroclinic", lambda mats, hit: None)
    muls = []
    for name in ("__mul__", "__rmul__"):
        def counted(self, other, _orig=getattr(Fraction, name)):
            muls.append(1)
            return _orig(self, other)
        monkeypatch.setattr(Fraction, name, counted)
    sft = Sft.full(2)
    searches = (lambda n: search_elliptic(free_pair_exact, sft, n),
                lambda n: search_parabolic(free_pair_exact, sft, n),
                lambda n: hyperbolicity_rate(free_pair_exact, sft, n),
                lambda n: best_heteroclinic(free_pair_exact, sft, n, n, n - 2))
    for search in searches:
        counts = []
        for n in (6, 10):
            muls.clear()
            search(n)
            counts.append(len(muls))
        assert counts[0] == counts[1]


SWAP = Mat2(0.0, 1.0, 1.0, 0.0)  # det -1, tr 0: an involution


def test_negative_det_product_is_not_elliptic(free_pair):
    # eigenvalues 2 and -1/2: hyperbolic, though |tr| = 1.5 < 2
    flip = (Mat2(2.0, 0.0, 0.0, -0.5),)
    assert search_elliptic(flip, Sft.full(1), 3) is None
    assert diagnose_boundary(flip, Sft.full(1), budget=(3, 3, 2)).kind == "none"
    assert hyperbolicity_rate(flip, Sft.full(1), 3).value == 2.0
    # the swap C is not elliptic, but C^2 = I: an identity hit on CC
    mats = free_pair + (SWAP,)
    assert search_elliptic(mats, Sft.full(3), 4) is None
    assert search_parabolic(mats, Sft.full(3), 3) == ParabolicHit(
        word=(2, 2), kind="identity", trace=2.0)
    rep = diagnose_boundary(mats, Sft.full(3), budget=(3, 3, 2)).to_json()
    assert (rep["kind"], rep["parabolic_word"]) == ("identity", "CC")
    # ACACB (two swaps, det 1) is elliptic, and larger budgets find it
    assert diagnose_boundary(mats, Sft.full(3), budget=(8, 8, 5)).elliptic == \
        (0, 2, 0, 2, 1)


def _reference_searches(mats, sft, n_max):
    """search_elliptic, search_parabolic and hyperbolicity_rate as one plain
    loop of product() over periodic_words: a product of det < 0 is never
    elliptic or parabolic, and its square at +-identity is an identity hit
    on the doubled word; an elliptic word is no parabolic or identity hit.
    Exact input takes band 0: Fraction products are compared with 2 and
    with +-identity exactly."""
    exact = all(m.is_exact() for m in mats)
    pm_identity = (Mat2.identity(), -Mat2.identity())

    def is_identity(p):
        return p in pm_identity if exact else p.dist_to_pm_identity() <= DEFAULT.identity

    elliptic = parabolic = rate = None
    rate_w = ()
    for w in periodic_words(sft, n_max):
        p = product(mats, w)
        t = abs(p.trace() if exact else float(p.trace()))
        is_elliptic = t < 2 - (0 if exact else DEFAULT.trace) and p.det() > 0
        if elliptic is None and is_elliptic:
            elliptic = w
        if parabolic is None and not is_elliptic:
            if p.det() < 0:
                q = product(mats, w + w)
                if is_identity(q):
                    parabolic = ParabolicHit(w + w, "identity", float(q.trace()))
            elif is_identity(p):
                parabolic = ParabolicHit(w, "identity", float(p.trace()))
            elif (t == 2 if exact else abs(t - 2.0) <= DEFAULT.parabolic):
                parabolic = ParabolicHit(w, "parabolic", float(p.trace()))
        r = spectral_norm(p.a, p.b, p.c, p.d) ** (1.0 / len(w))
        if rate is None or r < rate:
            rate, rate_w = r, w
    return elliptic, parabolic, RateReport(value=rate, word=rate_w, depth=n_max)


def test_searches_match_reference_loop(sft4):
    """Seeded float and Fraction tuples over full shifts, the golden mean and
    SFT4, with generators of determinant -1, shears, -I and finite-order
    rotations mixed in: the entry-tuple searches give what the reference
    loop gives, bit for bit."""
    rng = random.Random("entry tuples")
    specials = [SWAP, Mat2(1, 1, 0, 1), Mat2(-1, 0, 0, -1), ROT4,
                Mat2(2, 0, 0, Fraction(-1, 2))]
    shifts = [(Sft.full(1), 6), (Sft.full(2), 7), (GOLDEN2, 8),
              (Sft.full(3), 5), (sft4, 5)]
    seen = {"elliptic": 0, "parabolic": 0, "identity": 0, "doubled": 0,
            "det<0 skipped": 0}
    for i in range(60):
        sft, n_max = shifts[i % len(shifts)]
        exact = i // len(shifts) % 2 == 0
        mats = [_random_matrix(rng, exact, det=rng.choice((1, 1, -1)))
                for _ in range(sft.n_symbols)]
        if rng.random() < 0.6:
            special = rng.choice(specials)
            mats[rng.randrange(len(mats))] = special if exact else special.to_float()
        mats = tuple(mats)
        elliptic, parabolic, rate = _reference_searches(mats, sft, n_max)
        assert search_elliptic(mats, sft, n_max) == elliptic
        assert search_parabolic(mats, sft, n_max) == parabolic
        assert hyperbolicity_rate(mats, sft, n_max) == rate
        seen["elliptic"] += elliptic is not None
        if parabolic is not None:
            seen[parabolic.kind] += 1
            seen["doubled"] += len(parabolic.word) % 2 == 0 and \
                parabolic.word[:len(parabolic.word) // 2] * 2 == parabolic.word
        seen["det<0 skipped"] += any(
            abs(float(product(mats, w).trace())) < 2.0 - DEFAULT.trace
            and product(mats, w).det() < 0 for w in periodic_words(sft, n_max))
    assert all(seen.values()), seen


def _shear(e):
    """The entries of [[1, 1], [e, 1 + e]]: det 1, trace 2 + e."""
    return (1, 1, e, 1 + e)


S = 10 ** 10


@pytest.mark.parametrize("entries, scale, exact, kind", [
    # float bands: DEFAULT.trace on the elliptic side, DEFAULT.parabolic
    # around |tr| = 2, DEFAULT.identity entrywise
    (_shear(-5e-7), 1, False, "elliptic"),
    (_shear(-5e-8), 1, False, "elliptic"),
    (_shear(-5e-10), 1, False, "parabolic"),
    (_shear(5e-10), 1, False, "parabolic"),
    (_shear(5e-8), 1, False, "parabolic"),
    (_shear(5e-7), 1, False, "hyperbolic"),
    ((-1.0, 1e-12, 0.0, -1.0), 1, False, "identity"),
    ((0.0, -1.0, 1.0, 0.0), 1, False, "elliptic"),
    ((2.0, 0.0, 0.0, -0.5), 1, False, "hyperbolic"),
    ((0.0, 1.0, 1.0, 0.0), 1, False, "doubled identity"),
    ((0.0, 2.0, 2.0, 0.0), 1, False, "none"),
    # exact: band 0 on the integer product n over its scale S; at tr n = 0
    # and det n < 0, n^2 = -det(n) I, the identity when det n = -S^2
    ((S, S, -1, S - 1), S, True, "elliptic"),
    ((S, S, 1, S + 1), S, True, "hyperbolic"),
    ((S, S, 0, S), S, True, "parabolic"),
    ((-S, 0, 0, -S), S, True, "identity"),
    ((1, 1, 1, 0), 1, True, "hyperbolic"),
    ((0, 2, 2, 0), 2, True, "doubled identity"),
    ((0, 2, 2, 0), 1, True, "none"),
], ids=["float-below-band", "float-elliptic-band", "float-parabolic-low",
        "float-parabolic-high", "float-parabolic-band", "float-above-band",
        "float-minus-identity", "float-rotation", "float-det<0", "float-swap",
        "float-det<0-none", "exact-elliptic", "exact-hyperbolic", "exact-parabolic",
        "exact-identity", "exact-det<0", "exact-swap", "exact-det<0-none"])
def test_one_kind_per_class(entries, scale, exact, kind):
    from hypercone.witness import _kind
    w = (0, 1)
    expected = ("identity", w + w) if kind == "doubled identity" else (kind, w)
    assert _kind(w, entries, scale, exact) == expected


def test_standalone_searches_keep_to_one_kind():
    # tr AB = 2 - 5e-8 is elliptic, no parabolic hit; tr AB = 2 + 5e-8 is
    # parabolic, no heteroclinic source or target; A and B are hyperbolic
    full = Sft.full(2)
    below = canonical_pair(2.0, 1.5, 1.0, 2 - 5e-8 - 2.0 / 1.5 - 1.5 / 2.0)
    assert search_elliptic(below, full, 2) == (0, 1)
    assert search_parabolic(below, full, 2) is None
    above = canonical_pair(2.0, 1.5, 1.0, 2 + 5e-8 - 2.0 / 1.5 - 1.5 / 2.0)
    assert search_elliptic(above, full, 2) is None
    assert search_parabolic(above, full, 2).word == (0, 1)
    hit = best_heteroclinic(above, full, 2, 2, 1)
    assert (0, 1) not in (hit.source, hit.target)
    assert diagnose_boundary(above, full, (2, 2, 1)).kind == "parabolic"


def test_diagnose_boundary_builds_each_tree_node_once(monkeypatch, free_pair):
    # one walk of the Lyndon tree to max(k, l), whose every node product is
    # built once, and one of the connectors' admissible-word tree to n: the
    # three searches in sequence walk the Lyndon tree three times (4,303)
    import hypercone.symdyn as symdyn_mod
    import hypercone.witness as witness_mod
    from hypercone.symdyn import admissible_entries, periodic_entries
    full = Sft.full(2)
    products = []

    def counted(x, y, _orig=symdyn_mod._times):
        products.append(1)
        return _orig(x, y)
    monkeypatch.setattr(symdyn_mod, "_times", counted)
    sum(1 for _ in periodic_entries(free_pair, full, 12))
    sum(1 for _ in admissible_entries(free_pair, full, 8))
    nodes = len(products)
    walks = []

    def walked(*args, _orig=witness_mod.periodic_entries):
        walks.append(args)
        return _orig(*args)
    monkeypatch.setattr(witness_mod, "periodic_entries", walked)
    products.clear()
    assert diagnose_boundary(free_pair, full, (12, 12, 8)).kind == "none"
    assert len(walks) == 1 and len(products) == nodes == 1773


def _sequential(mats, sft, budget):
    """diagnose_boundary as the three standalone searches in sequence."""
    k_max, ell_max, n_max = budget
    budgets = {"k": k_max, "l": ell_max, "n": n_max}
    w = search_elliptic(mats, sft, max(k_max, ell_max))
    if w is not None:
        return BoundaryReport(kind="elliptic", elliptic=w, budgets=budgets)
    hit = search_parabolic(mats, sft, max(k_max, ell_max))
    if hit is not None:
        return BoundaryReport(kind=hit.kind, parabolic=hit, budgets=budgets)
    het = best_heteroclinic(mats, sft, k_max, ell_max, n_max)
    kind = ("heteroclinic" if het is not None and het.residual <= DEFAULT.heteroclinic
            else "none")
    return BoundaryReport(kind=kind, heteroclinic=het, budgets=budgets)


def _boundary_population(sft4, triple):
    """Float pairs with tr AB within 1e-7 of +-2, rational pairs near and on
    +-2 and random ones, the det -1 swap with [[2, 1], [1, 1]], the SFT4
    group tuple and the boundary triple, float and rational, each with a
    shift and a budget."""
    rng = random.Random("one walk")
    full = Sft.full(2)
    out = []
    for i in range(40):
        mu, nu = rng.uniform(1.1, 3.0), rng.uniform(1.1, 3.0)
        z = rng.choice((2.0, -2.0)) + rng.uniform(-1e-7, 1e-7)
        out.append((canonical_pair(mu, nu, 1.0, z - mu / nu - nu / mu),
                    (full, GOLDEN2)[i % 2], (6, 6, 3)))
    for i in range(30):
        mu, nu = (Fraction(rng.randint(101, 300), 100) for _ in range(2))
        z = rng.choice((2, -2))
        z += Fraction(rng.choice((0, 1, -1)), rng.randint(10, 10 ** 8))
        out.append((exact_canonical_pair(mu, nu, Fraction(1), z - mu / nu - nu / mu),
                    (full, GOLDEN2)[i % 2], (6, 6, 3)))
        out.append((tuple(_random_matrix(rng, True) for _ in range(2)), full, (5, 5, 2)))
    swap = (Mat2(0, 1, 1, 0), Mat2(2, 1, 1, 1))
    out += [(swap, full, (6, 6, 3)), (tuple(m.to_float() for m in swap), full, (6, 6, 3))]
    group = group_tuple(canonical_pair(2.0, 2.0, 1.0, -9.0))
    group_exact = group_tuple(exact_canonical_pair(Fraction(2), Fraction(2), Fraction(1),
                                                   Fraction(-9)))
    out += [(group, sft4, (6, 6, 4)), (group_exact, sft4, (5, 5, 3))]
    triple_exact = tuple(Mat2(*map(Fraction, (m.a, m.b, m.c, m.d))) for m in triple)
    out += [(triple, Sft.full(3), (2, 2, 2)), (triple_exact, Sft.full(3), (2, 2, 2))]
    return out


def test_diagnose_boundary_is_the_searches_in_sequence(sft4, boundary_triple):
    seen = set()
    for mats, sft, budget in _boundary_population(sft4, boundary_triple):
        rep = diagnose_boundary(mats, sft, budget)
        assert rep == _sequential(mats, sft, budget), (mats, budget)
        seen.add(rep.kind)
    assert seen == {"elliptic", "parabolic", "identity", "heteroclinic", "none"}, seen
