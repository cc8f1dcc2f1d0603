"""Certification of uniform hyperbolicity via multicones and cores.

A family of multicones (one per symbol) certifies a tuple over a subshift
when every allowed transition maps the source multicone strictly inside the
target one.  The certificate carries two constants: the guaranteed Hilbert
contraction factor per step, and the comparability constant between Hilbert
and angle metric on the image region; together they give the exponential
lower bound  ||product|| >= C^(-1/2) lambda^(n/2)  on cyclic words.

Cores are the canonical minimal forward/backward invariant arc systems; they
are computed here as stabilized hulls of iterated images, and tested by the
structural criterion (disjointness, alternation, invariance, and eventual
constancy of the component action, which rules out +-identity products of
every length).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (AmbiguousIncidence, BadFamily, DegenerateInput,
                     NoConvergence, SearchBudgetExceeded)
from .projgeom import (PI, POINT_CONTRACTION, ArcP1, MultiCone, Span,
                       angle_dist, angle_gap, arcs_of_spans, containment_margin,
                       contraction_factor, density_extremes, hilbert_density,
                       merge_spans, spans_of_arcs)
from .sl2core import Mat2, eigen_data
from .symdyn import Sft, necklace_products, periodic_words, product
from .tolerances import DEFAULT, Tolerances

# half-width of the arcs seeded around periodic directions, and the longest
# periodic word seeded
SEED_RADIUS = 1e-3
SEED_LEN = 6
# the exact +-identity scan runs while (alphabet size)^depth stays below this
ID_WORD_CAP = 4096
# longest product length eventual_constancy composes
CONSTANCY_BUDGET = 64
# fattening radius in the S-gaps' Hilbert metrics, the per-edge slack cap
# spent from the cycle deficit, and the radius halvings tried
HILBERT_EPS = 0.25
BOOST = 0.05
MAX_HALVINGS = 60


def image_span(m: Mat2, span: Span) -> Span:
    """Image of a circular span under the projective action (orientation kept)."""
    s, ln = span
    a1 = m.act_angle(s)
    a2 = m.act_angle(s + ln)
    return (a1, angle_gap(a1, a2))


def best_target(img: Span, targets) -> tuple[int | None, float]:
    """(index, margin) of the target arc holding the span by the largest
    containment margin; the first maximum wins, and (None, -pi) means no
    margin exceeds -pi."""
    best, best_j = -PI, None
    for j, comp in enumerate(targets):
        mg = containment_margin(comp, img)
        if mg > best:
            best, best_j = mg, j
    return best_j, best


def _incidence_slack(tol: Tolerances, src_len: float, img_len: float) -> float:
    """Allowed negative margin: float noise scales with the local expansion."""
    expansion = img_len / max(src_len, 1e-300)
    return tol.angle + 1e-14 * (1.0 + expansion)


def component_map(m: Mat2, source, target, tol: Tolerances) -> tuple[int, ...]:
    """Which target arc absorbs the image of each source arc, within the
    incidence slack (AmbiguousIncidence otherwise)."""
    out = []
    for arc in source:
        img = image_span(m, arc.span)
        j, margin = best_target(img, target)
        if margin < -_incidence_slack(tol, arc.length, img[1]):
            raise AmbiguousIncidence(
                f"image of arc at {arc.start.angle:.6f} not inside a single "
                f"component (margin {margin:.3e})")
        out.append(j)
    return tuple(out)


@dataclass(frozen=True)
class MulticoneFamily:
    """One multicone per symbol of the ambient subshift."""

    cones: tuple[MultiCone, ...]

    @staticmethod
    def constant(cone: MultiCone, n: int) -> "MulticoneFamily":
        return MulticoneFamily(tuple(cone for _ in range(n)))

    def to_json(self) -> dict:
        return {str(i): cone.to_json() for i, cone in enumerate(self.cones)}

    @staticmethod
    def from_json(data) -> "MulticoneFamily":
        if isinstance(data, list):
            return MulticoneFamily(tuple(MultiCone.from_json(d) for d in data))
        if "arcs" in data:
            raise BadFamily("single multicone given where a family was expected; "
                            "key it by symbol index or pass a list")
        items = sorted(((int(k), v) for k, v in data.items()))
        return MulticoneFamily(tuple(MultiCone.from_json(v) for _, v in items))


@dataclass(frozen=True)
class CertifyReport:
    ok: bool
    contraction: float        # lambda > 1 per step when ok
    comparability: float      # C in the growth bound when ok
    witness: dict | None      # first violated inclusion otherwise
    margin: float             # smallest containment margin seen

    def __bool__(self) -> bool:
        return self.ok

    def to_json(self) -> dict:
        return {"ok": self.ok, "contraction": self.contraction,
                "comparability": self.comparability,
                "margin": self.margin, "witness": self.witness}


def certify(mats, sft: Sft, fam: MulticoneFamily,
            tol: Tolerances = DEFAULT) -> CertifyReport:
    """Check the strict-inclusion condition and report certificate constants."""
    n = sft.n_symbols
    if len(fam.cones) != n or len(mats) != n:
        raise BadFamily(f"family/tuple size mismatch with {n} symbols")
    for i, cone in enumerate(fam.cones):
        if cone.total_length() >= PI - tol.angle:
            raise BadFamily(f"multicone for symbol {i} is dense")

    # images[beta][j] collects spans landing in component j of cone beta
    images: list[dict[int, list[Span]]] = [dict() for _ in range(n)]
    worst = PI
    for alpha in range(n):
        for beta in range(n):
            if not sft.ok(alpha, beta):
                continue
            targets = fam.cones[beta].arcs
            for ai, arc in enumerate(fam.cones[alpha].arcs):
                img = image_span(mats[beta], arc.span)
                j, best = best_target(img, targets)
                # the strict-containment floor scales with the target
                # component: deep components are exponentially thin and a
                # fixed absolute floor would reject genuine certificates
                if j is None or best < max(tol.margin * min(1.0, targets[j].length),
                                           4e-14):
                    witness = {"alpha": alpha, "beta": beta, "component": ai,
                               "margin": best}
                    return CertifyReport(ok=False, contraction=0.0,
                                         comparability=0.0, witness=witness,
                                         margin=best)
                worst = min(worst, best)
                images[beta].setdefault(j, []).append(img)

    lam = float("inf")
    c_max = 0.0
    c_min = float("inf")
    for beta in range(n):
        for comp in fam.cones[beta].arcs:
            c_min = min(c_min, hilbert_density(comp, comp.midpoint.angle))
        for j, spans in images[beta].items():
            comp = fam.cones[beta].arcs[j]
            for s, ln in merge_spans(spans):
                if ln <= 0.0:
                    # point-like image: infinitely contracted, no constraint
                    c_max = max(c_max, hilbert_density(comp, s))
                    continue
                inner = ArcP1.from_angles(s, s + ln)
                lam = min(lam, contraction_factor(comp, inner))
                _, hi = density_extremes(comp, inner)
                c_max = max(c_max, hi)
    if lam == float("inf"):
        lam = POINT_CONTRACTION  # all images point-like
    comparability = c_max / c_min
    return CertifyReport(ok=True, contraction=lam, comparability=comparability,
                         witness=None, margin=worst)


# ---------------------------------------------------------------------------
# cores


@dataclass(frozen=True)
class CoreSet:
    """Closed arc systems: forward-invariant U and backward-invariant S.

    Arcs are stored as ArcP1 hulls (endpoints included by convention).  For a
    non-full subshift the per-symbol systems are kept alongside the merged
    global ones.
    """

    u_arcs: tuple[ArcP1, ...]
    s_arcs: tuple[ArcP1, ...]
    # per arc, (start shift, end shift) over the final iteration
    u_uncertainty: tuple[tuple[float, float], ...] = ()
    s_uncertainty: tuple[tuple[float, float], ...] = ()
    per_symbol: tuple[tuple[tuple[ArcP1, ...], tuple[ArcP1, ...]], ...] | None = None

    @property
    def rank(self) -> int:
        return len(self.u_arcs)

    def to_json(self) -> dict:
        out = {"u": [[a.start.angle, a.end.angle] for a in self.u_arcs],
               "s": [[a.start.angle, a.end.angle] for a in self.s_arcs],
               "rank": self.rank}
        if self.u_uncertainty:
            out["u_uncertainty"] = [list(v) for v in self.u_uncertainty]
            out["s_uncertainty"] = [list(v) for v in self.s_uncertainty]
        return out


def _seed_spans(mats, sft: Sft):
    """Fattened unions of periodic unstable/stable directions, per symbol.

    Over the full shift the limit sets are global, so every symbol gets the
    same seed set.
    """
    n = sft.n_symbols
    useeds: list[list[Span]] = [[] for _ in range(n)]
    sseeds: list[list[Span]] = [[] for _ in range(n)]
    for w in periodic_words(sft, SEED_LEN):
        p = product(mats, w, sft)
        t = abs(float(p.trace()))
        if t < 2.0:
            continue
        (u, _), (s, _) = eigen_data(p)
        u_span = ((u.angle - SEED_RADIUS) % PI, 2 * SEED_RADIUS)
        s_span = ((s.angle - SEED_RADIUS) % PI, 2 * SEED_RADIUS)
        if sft.is_full:
            for b in range(n):
                useeds[b].append(u_span)
                sseeds[b].append(s_span)
        else:
            useeds[w[-1]].append(u_span)
            sseeds[w[0]].append(s_span)
    return ([merge_spans(x) for x in useeds], [merge_spans(x) for x in sseeds])


def _puffed(span: Span) -> Span:
    return (span[0], max(span[1], 1e-15))


def _fill_against(spans: list[Span], blockers: list[Span]) -> list[Span]:
    """Merge gaps between spans that contain no part of the blocking set.

    This realizes the passage from a limit set to its core: complement
    components that miss the opposite family are absorbed.
    """
    spans = merge_spans(spans)
    if len(spans) <= 1 or not blockers:
        return spans
    blocked = merge_spans(blockers)

    def gap_is_blocked(gs: float, gl: float) -> bool:
        for (bs, bl) in blocked:
            off = (bs - gs) % PI
            if off < gl or (gs - bs) % PI < bl:
                return True
        return False

    spans2 = []
    for i, (s, ln) in enumerate(spans):
        spans2.append((s, ln))
        nxt = spans[(i + 1) % len(spans)]
        gap_start = s + ln
        gap_len = (nxt[0] - gap_start) % PI
        if not gap_is_blocked(gap_start % PI, gap_len):
            spans2.append((gap_start % PI, gap_len))  # bridge the gap
    return merge_spans(spans2)


def _capped_merge(spans: list[Span], cap: int = 4096) -> list[Span]:
    eps = 1e-12
    out = merge_spans(spans, eps)
    while len(out) > cap:
        eps *= 4.0
        out = merge_spans(out, eps)
    return out


def _iterate_cores(prev_u, prev_s, mats, sft: Sft):
    """One forward/backward image step on the raw limit-set approximations."""
    n = sft.n_symbols
    inv = [m.inverse() for m in mats]
    next_u: list[list[Span]] = [[] for _ in range(n)]
    next_s: list[list[Span]] = [[] for _ in range(n)]
    for alpha in range(n):
        for beta in range(n):
            if not sft.ok(alpha, beta):
                continue
            for sp in prev_u[alpha]:
                next_u[beta].append(_puffed(image_span(mats[beta], sp)))
            for sp in prev_s[beta]:
                next_s[alpha].append(_puffed(image_span(inv[alpha], sp)))
    return ([_capped_merge(x) for x in next_u],
            [_capped_merge(x) for x in next_s])


def _filled_view(u_cur, s_cur, mats, sft: Sft):
    """Cores from limit sets: gaps missing the opposite family are absorbed.

    Over the full shift the limit sets are global (union over symbols) and
    block each other directly; the per-symbol variant blocks against the
    one-step transported sets.
    """
    n = sft.n_symbols
    if sft.is_full:
        u_all = [sp for a in range(n) for sp in u_cur[a]]
        s_all = [sp for a in range(n) for sp in s_cur[a]]
        u_glob = _fill_against(u_all, s_all)
        s_glob = _fill_against(s_all, u_all)
        return ([u_glob for _ in range(n)], [s_glob for _ in range(n)])
    inv = [m.inverse() for m in mats]
    filled_u, filled_s = [], []
    for alpha in range(n):
        s_fwd = [_puffed(image_span(mats[alpha], sp)) for sp in s_cur[alpha]]
        u_bwd = [_puffed(image_span(inv[alpha], sp)) for sp in u_cur[alpha]]
        filled_u.append(_fill_against(u_cur[alpha], s_fwd))
        filled_s.append(_fill_against(s_cur[alpha], u_bwd))
    return filled_u, filled_s


def compute_cores(mats, sft: Sft, depth: int = 48,
                  start: MulticoneFamily | None = None,
                  tol: Tolerances = DEFAULT) -> CoreSet:
    """Outer approximation of the cores by stabilized iterated-image hulls."""
    n = sft.n_symbols
    if start is not None:
        u_cur = [spans_of_arcs(start.cones[a].arcs) for a in range(n)]
        s_cur = [spans_of_arcs(start.cones[a].complement().arcs) for a in range(n)]
    else:
        u_cur, s_cur = _seed_spans(mats, sft)
        if not any(u_cur) or not any(s_cur):
            raise NoConvergence("no hyperbolic periodic data to seed the cores")

    window = max(depth // 4, 8)

    def fill_counts(f):
        return (sum(len(x) for x in f[0]), sum(len(x) for x in f[1]))

    # phase 1: raw image iteration until consecutive hull views agree (the
    # seed fattening must shrink below the smallest gap before hulls are
    # trustworthy); phase 2: feed the hulls back in, which pins the arcs
    # onto the invariant components
    feedback = start is not None
    stable_streak = 0
    last_counts = None
    counts: list[tuple[int, int]] = []
    prev_filled = None
    filled = None
    for step in range(depth):
        u_cur, s_cur = _iterate_cores(u_cur, s_cur, mats, sft)
        prev_filled = filled
        filled = _filled_view(u_cur, s_cur, mats, sft)
        c = fill_counts(filled)
        if not feedback:
            stable_streak = stable_streak + 1 if c == last_counts else 0
            last_counts = c
            if stable_streak >= 3 and step >= 5:
                feedback = True
        else:
            u_cur, s_cur = filled
        counts.append(c)
    tail = counts[-min(window, len(counts)):]
    if len(set(tail)) != 1 or not feedback:
        raise NoConvergence(f"component counts did not stabilize: tail {tail}")
    fu, fs = filled

    def shifts(prev, cur):
        out = []
        for a in range(n):
            if len(prev[a]) != len(cur[a]):
                out.extend((PI, PI) for _ in cur[a])
                continue
            for (ps, pl), (cs, cl) in zip(sorted(prev[a]), sorted(cur[a])):
                out.append((min(angle_gap(ps, cs), angle_gap(cs, ps)),
                            min(angle_gap(ps + pl, cs + cl),
                                angle_gap(cs + cl, ps + pl))))
        return out

    u_unc = shifts(prev_filled[0], fu)
    s_unc = shifts(prev_filled[1], fs)

    u_global = merge_spans([sp for a in range(n) for sp in fu[a]])
    s_global = merge_spans([sp for a in range(n) for sp in fs[a]])
    per_symbol = None
    if not sft.is_full:
        per_symbol = tuple((arcs_of_spans(fu[a]), arcs_of_spans(fs[a]))
                           for a in range(n))
    return CoreSet(u_arcs=arcs_of_spans(u_global), s_arcs=arcs_of_spans(s_global),
                   u_uncertainty=tuple(u_unc[:len(u_global)]),
                   s_uncertainty=tuple(s_unc[:len(s_global)]),
                   per_symbol=per_symbol)


# ---------------------------------------------------------------------------
# component action and the core criterion


def eventual_constancy(maps: list[tuple[int, ...]]) -> tuple[bool, int]:
    """(all long products constant?, least such length).

    Products of the maps are composed breadth-first; the search stops when
    every product of the current length is constant, or when the set of
    reachable non-constant products repeats (a cycle: never constant).
    """
    def is_const(f):
        return len(set(f)) == 1

    def compose(f, g):  # apply g, then f
        return tuple(f[v] for v in g)

    if all(is_const(f) for f in maps):
        return True, 1
    cur = set(maps)
    seen_states = set()
    for k in range(1, CONSTANCY_BUDGET + 1):
        if all(is_const(f) for f in cur):
            return True, k
        state = frozenset(f for f in cur if not is_const(f))
        if state in seen_states:
            return False, 0
        seen_states.add(state)
        cur = {compose(f, g) for f in maps for g in cur}
    raise SearchBudgetExceeded(
        f"no constancy length found within {CONSTANCY_BUDGET}")


@dataclass(frozen=True)
class CriterionReport:
    ok: bool
    reasons: tuple[str, ...]
    constancy_length: int = 0

    def __bool__(self) -> bool:
        return self.ok


def _alternating(u_arcs, s_arcs) -> bool:
    tagged = sorted([(a.start.angle, 0, a) for a in u_arcs] +
                    [(a.start.angle, 1, a) for a in s_arcs])
    if len(u_arcs) != len(s_arcs) or not u_arcs:
        return False
    for i, (_, tag, arc) in enumerate(tagged):
        nxt = tagged[(i + 1) % len(tagged)]
        if nxt[1] == tag:
            return False
        if angle_gap(arc.start.angle, arc.end.angle) >= \
                angle_gap(arc.start.angle, nxt[2].start.angle):
            return False  # overlap
    return True


def core_criterion(mats, cores: CoreSet,
                   tol: Tolerances = DEFAULT) -> CriterionReport:
    """Structural test implying uniform hyperbolicity of the tuple.

    Checks disjoint alternation, forward/backward invariance within
    tolerance, and eventual constancy of the component action.  The latter
    excludes +-identity products of every length (such a product would act as
    the identity on components, and then no power of it could be constant);
    short products are additionally tested entrywise when the alphabet size
    makes that cheap: every necklace of length up to min(rank, 12), exactly.
    At rank 1 the component action is constant from the start, so the scan
    is the only +-identity test there, and it covers single letters only.
    """
    reasons = []
    if not _alternating(cores.u_arcs, cores.s_arcs):
        reasons.append("DisjointnessViolation: U/S fail to alternate disjointly")
        return CriterionReport(ok=False, reasons=tuple(reasons))

    u_maps, s_maps = [], []
    try:
        for m in mats:
            u_maps.append(component_map(m, cores.u_arcs, cores.u_arcs, tol))
            s_maps.append(component_map(m.inverse(), cores.s_arcs, cores.s_arcs, tol))
    except AmbiguousIncidence as exc:
        reasons.append(f"InvarianceViolation: {exc}")
        return CriterionReport(ok=False, reasons=tuple(reasons))

    ok_u, ell_u = eventual_constancy(u_maps)
    ok_s, ell_s = eventual_constancy(s_maps)
    if not ok_u or not ok_s:
        reasons.append("IdentityRisk: component action never becomes constant")
        return CriterionReport(ok=False, reasons=tuple(reasons))

    # direct +-identity scan (powers included: a product equal to +-id is
    # conjugation invariant, so one representative per rotation class suffices)
    depth = min(cores.rank, 12)
    if len(mats) ** depth <= ID_WORD_CAP:
        for w, p in necklace_products(mats, depth):
            if p.dist_to_pm_identity() <= tol.identity:
                reasons.append(f"IdentityProduct: word {w} is +-identity")
                return CriterionReport(ok=False, reasons=tuple(reasons))
    return CriterionReport(ok=True, reasons=(), constancy_length=max(ell_u, ell_s))


def tightness(mats, cone: MultiCone, cores: CoreSet,
              tol: Tolerances = DEFAULT) -> bool:
    """Each cone component holds one U component; each gap one S component."""
    for comp_set, arcs in ((cone.arcs, cores.u_arcs),
                           (cone.complement().arcs, cores.s_arcs)):
        counts = [0 for _ in comp_set]
        for arc in arcs:
            j, margin = best_target(arc.span, comp_set)
            if margin <= -tol.angle:
                return False
            counts[j] += 1
        if any(c != 1 for c in counts):
            return False
    return True


def single_component_length(mats, cone: MultiCone,
                            tol: Tolerances = DEFAULT) -> int:
    """Least k with every length-k product constant on cone components."""
    maps = [component_map(m, cone.arcs, cone.arcs, tol) for m in mats]
    ok, ell = eventual_constancy(maps)
    if not ok:
        raise SearchBudgetExceeded("component action cycles without constancy")
    return ell


def _xi(arc: ArcP1, angle: float) -> float:
    """Isometric coordinate for the Hilbert metric of an arc."""
    t = arc.signed_offset_of(angle)
    return math.log(math.sin(t)) - math.log(math.sin(arc.length - t))


def _xi_inv(arc: ArcP1, xi: float) -> float:
    e = math.exp(xi)
    L = arc.length
    t = math.atan2(e * math.sin(L), 1.0 + e * math.cos(L))
    return (arc.start.angle + t) % PI


def _angle_derivative(m: Mat2, angle: float) -> float:
    x, y = math.cos(angle), math.sin(angle)
    wx = float(m.a) * x + float(m.b) * y
    wy = float(m.c) * x + float(m.d) * y
    return abs(float(m.det())) / (wx * wx + wy * wy)


def _max_mean_cycle(nodes, edges) -> float:
    """Karp bound: largest mean edge weight over cycles, -inf when acyclic."""
    idx = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    NEG = float("-inf")
    D = [[NEG] * n for _ in range(n + 1)]
    for i in range(n):
        D[0][i] = 0.0
    for k in range(1, n + 1):
        for u in nodes:
            du = D[k - 1][idx[u]]
            if du == NEG:
                continue
            for (v, w) in edges[u]:
                j = idx[v]
                if du + w > D[k][j]:
                    D[k][j] = du + w
    best = NEG
    for v in range(n):
        if D[n][v] == NEG:
            continue
        worst = None
        for k in range(n):
            if D[k][v] == NEG:
                continue
            r = (D[n][v] - D[k][v]) / (n - k)
            worst = r if worst is None else min(worst, r)
        if worst is not None:
            best = max(best, worst)
    return best


def fatten_cores(mats, cores: CoreSet, sft: Sft | None = None,
                 tol: Tolerances = DEFAULT) -> MultiCone:
    """Open multicone around U, grown in the Hilbert metrics of the S-gaps.

    Each unstable component sits in one component of the complement of S;
    fattening by a Hilbert-neighborhood keeps the arcs inside those gaps
    (so closures stay disjoint for every radius), and the per-step Hilbert
    non-expansion makes the grown arcs map strictly inside each other once
    endpoint radii are weighted against the boundary dynamics: along the
    chains of endpoint identifications the derivative telescopes to the
    return-word contraction, so the weight graph has no positive cycles and
    a fraction of the measured cycle deficit can be spent as per-edge slack.
    The result is verified by certify, halving the radius until it passes.
    """
    if sft is None:
        sft = Sft.full(len(mats))
    q = cores.rank
    s_arcs = sorted(cores.s_arcs, key=lambda a: a.start.angle)
    gaps = []
    for i, a in enumerate(s_arcs):
        b = s_arcs[(i + 1) % len(s_arcs)]
        gaps.append(ArcP1(a.end, b.start))
    # first fit within tol.angle, not best_target: U arcs of deep components
    # (~2e-11 long) also fit, by a negative margin, the gap before their own,
    # and the best gap there changes how fatten_cores fails
    hosts = []
    for u_arc in cores.u_arcs:
        host = None
        for g in gaps:
            if containment_margin(g, u_arc.span) > -tol.angle:
                host = g
                break
        if host is None:
            raise DegenerateInput("an unstable component is not inside an S-gap")
        hosts.append(host)

    # endpoint nodes (comp j, side 0=start 1=end) with tight-edge weights
    nodes = [(j, side) for j in range(q) for side in (0, 1)]
    point = {(j, 0): cores.u_arcs[j].start.angle for j in range(q)}
    point.update({(j, 1): cores.u_arcs[j].end.angle for j in range(q)})
    raw_edges: dict[tuple, list] = {n: [] for n in nodes}
    for m in mats:
        try:
            targets = component_map(m, cores.u_arcs, cores.u_arcs, tol)
        except AmbiguousIncidence as exc:
            raise DegenerateInput("cores are not invariant; cannot fatten") from exc
        for j, tgt in enumerate(targets):
            for side in (0, 1):
                src_angle = point[(j, side)]
                img_angle = m.act_angle(src_angle)
                tgt_angle = point[(tgt, side)]
                # measure the endpoint slack in the target gap's Hilbert units;
                # anything beyond a few fattening radii cannot be overshot
                slack_h = (angle_dist(img_angle, tgt_angle)
                           * hilbert_density(hosts[tgt], tgt_angle))
                if slack_h > 8.0 * HILBERT_EPS:
                    continue  # genuinely interior; no constraint needed
                dh = (_angle_derivative(m, src_angle)
                      * hilbert_density(hosts[tgt], img_angle)
                      / hilbert_density(hosts[j], src_angle))
                w = min(math.log(max(dh, 1e-300)), 0.0)
                raw_edges[(j, side)].append(((tgt, side), w))

    # spend half the measured cycle deficit as per-edge slack
    # (an acyclic graph, mean -inf, gets the full BOOST)
    mean_cycle = _max_mean_cycle(nodes, raw_edges)
    b = min(BOOST, max(-0.5 * mean_cycle, 1e-12))
    edges = {n: [(t, w + b) for (t, w) in raw_edges[n]] for n in nodes}

    P = {n: 0.0 for n in nodes}
    for _ in range(2 * q + 2):
        P = {n: max([0.0] + [w + P[t] for (t, w) in edges[n]]) for n in nodes}

    radius = {n: HILBERT_EPS * math.exp(-P[n]) for n in nodes}
    scale = 1.0
    for _ in range(MAX_HALVINGS):
        arcs = []
        ok_build = True
        for j in range(q):
            a = _xi_inv(hosts[j], _xi(hosts[j], point[(j, 0)])
                        - scale * radius[(j, 0)])
            b = _xi_inv(hosts[j], _xi(hosts[j], point[(j, 1)])
                        + scale * radius[(j, 1)])
            try:
                arcs.append(ArcP1.from_angles(a, b))
            except DegenerateInput:
                ok_build = False
                break
        if ok_build:
            try:
                cone = MultiCone(tuple(arcs))
            except DegenerateInput:
                cone = None
            if cone is not None:
                report = certify(mats, sft, MulticoneFamily.constant(cone, sft.n_symbols), tol)
                if report.ok:
                    return cone
        scale *= 0.5
    raise DegenerateInput("no certified fattening found for the given cores")
