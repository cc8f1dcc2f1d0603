"""Certification of uniform hyperbolicity via multicones and cores.

A family of multicones (one per symbol) certifies a tuple over a subshift
when every allowed transition maps the source multicone strictly inside the
target one.  The certificate carries two constants: the guaranteed Hilbert
contraction factor per step, and the comparability constant between Hilbert
and angle metric on the image region; together they give the exponential
lower bound  ||product|| >= C^(-1/2) lambda^(n/2)  on cyclic words.

Cores are the canonical minimal forward/backward invariant arc systems, with
endpoints at unstable and stable directions of periodic words.  They are
computed here by filling the periodic directions of words up to a length L
against each other and raising L until the filled system is invariant, and
tested by the structural criterion (disjointness, alternation, invariance,
and eventual constancy of the component action).  At rank >= 2 eventual
constancy rules out +-identity products of every length; at rank 1 the
action is constant from the start, and each letter is checked against
+-identity instead.

The layer takes generators of determinant > 0: an image span keeps the
orientation of its arc (image_span), and a generator of determinant < 0
reverses it, so compute_cores refuses one (PreconditionViolated).
"""

from __future__ import annotations

import bisect
import itertools
import math

from ._record import Record
from .errors import (AmbiguousIncidence, BadFamily, DegenerateInput, NoConvergence,
                     NoInvariantDirection, PreconditionViolated, SearchBudgetExceeded)
from .projgeom import (PI, POINT_CONTRACTION, ArcP1, MultiCone, Span,
                       angle_dist, angle_gap, arcs_of_spans, containment_margin,
                       contraction_factor, density_extremes, hilbert_density,
                       merge_spans)
from .sl2core import Mat2, check_finite, eigen_data, is_pm_identity
from .symdyn import LETTERS, Sft, admissible_entries, exact_product, render_word
from .tolerances import DEFAULT

# fattening radius in the S-gaps' Hilbert metrics, the per-edge slack cap
# spent from the cycle deficit, and the radius halvings tried
HILBERT_EPS = 0.25
BOOST = 0.05
MAX_HALVINGS = 60


def image_span(m: Mat2, span: Span, pins=(None, None)) -> Span:
    """Image of a circular span under the projective action (orientation
    kept); pins gives image endpoints known exactly, None where not."""
    s, ln = span
    a1 = m.act_angle(s) if pins[0] is None else pins[0]
    a2 = m.act_angle(s + ln) if pins[1] is None else pins[1]
    return (a1, angle_gap(a1, a2))


def start_order(targets) -> tuple[list[float], range | list[int]]:
    """The target arcs' start angles in increasing order, and the index of
    each in targets: best_target's lookup, made once per target tuple.
    Targets that come sorted, as a MultiCone's arcs and computed cores do,
    keep their indices."""
    starts = [a.start.angle for a in targets]
    ordered = sorted(starts)
    if ordered == starts:
        return starts, range(len(starts))
    return ordered, sorted(range(len(starts)), key=starts.__getitem__)


def best_target(img: Span, targets, order) -> tuple[int | None, float]:
    """(index, margin) of the target arc holding the span by the largest
    containment margin; the first maximum wins, and (None, -pi) means no
    margin exceeds -pi.  order is start_order(targets).

    The target arcs have disjoint closures.  A non-negative margin puts the
    whole span, start included, in the closure of its arc, so at most one
    arc has one, and it is the strict first maximum.  That arc is the last
    one starting at or before the span's start (the last arc of all when
    the span starts before every arc: it wraps across 0), found by
    bisection.  When its margin is negative, the scan over all arcs finds
    the largest, so the margins, the index and the first maximum rule are
    those of the scan alone.  In floats a margin carries
    a few ulps of pi of rounding, so a second arc can also read a margin
    >= 0 only when its closure lies within those few ulps of the first
    arc's and both margins are that small; there the bisected arc is
    returned, where the scan returns the first.
    """
    starts, idx = order
    if idx:
        k = idx[bisect.bisect_right(starts, img[0]) - 1]
        mg = containment_margin(targets[k], img)
        if mg >= 0.0:
            return k, mg
    best, best_j = -PI, None
    for j, comp in enumerate(targets):
        mg = containment_margin(comp, img)
        if mg > best:
            best, best_j = mg, j
    return best_j, best


def _incidence_slack(src_len: float, img_len: float) -> float:
    """Allowed negative margin: float noise scales with the local expansion."""
    expansion = img_len / max(src_len, 1e-300)
    return DEFAULT.angle + 1e-14 * (1.0 + expansion)


def component_map(m: Mat2, source, target, pins=None) -> tuple[int, ...]:
    """Which target arc absorbs the image of each source arc, within the
    incidence slack (AmbiguousIncidence otherwise); pins gives, per source
    arc, image endpoints known exactly (see image_span)."""
    out = []
    order = start_order(target)
    for i, arc in enumerate(source):
        img = image_span(m, arc.span, pins[i] if pins else (None, None))
        j, margin = best_target(img, target, order)
        if margin < -_incidence_slack(arc.length, img[1]):
            raise AmbiguousIncidence(
                f"image of arc at {arc.start.angle:.6f} not inside a single "
                f"component (margin {margin:.3e})")
        out.append(j)
    return tuple(out)


class MulticoneFamily(Record):
    """One multicone per symbol of the ambient subshift, a tuple of MultiCone."""

    __slots__ = ("cones",)

    @staticmethod
    def constant(cone: MultiCone, n: int) -> "MulticoneFamily":
        return MulticoneFamily(tuple(cone for _ in range(n)))

    @staticmethod
    def from_json(data) -> "MulticoneFamily":
        if isinstance(data, list):
            return MulticoneFamily(tuple(MultiCone.from_json(d) for d in data))
        if "arcs" in data:
            raise BadFamily("single multicone given where a family was expected; "
                            "key it by symbol index or pass a list")
        items = sorted(((int(k), v) for k, v in data.items()))
        return MulticoneFamily(tuple(MultiCone.from_json(v) for _, v in items))


class CertifyReport(Record):
    __slots__ = ("ok",
                 "contraction",    # lambda > 1 per step when ok
                 "comparability",  # C in the growth bound when ok
                 "witness",        # first violated inclusion (a dict) otherwise
                 "margin")         # smallest containment margin seen

    def __bool__(self) -> bool:
        return self.ok

    def to_json(self) -> dict:
        return {"ok": self.ok, "contraction": self.contraction,
                "comparability": self.comparability,
                "margin": self.margin, "witness": self.witness}


def _strict_image(m: Mat2, arc: ArcP1, targets,
                  order) -> tuple[Span, int | None, float]:
    """(image span, target index, margin) of the arc under m, order being
    start_order(targets); the index is None below the strict-containment
    floor, which scales with the target: deep components are exponentially
    thin, and a fixed floor rejects true ones."""
    img = image_span(m, arc.span)
    j, best = best_target(img, targets, order)
    if j is not None and best < max(DEFAULT.margin * min(1.0, targets[j].length), 4e-14):
        j = None
    return img, j, best


def _inclusions(mats, sft: Sft, cones) -> tuple[list | None, float, dict | None]:
    """certify's strict-inclusion check, cones[beta] for symbol beta:
    (images, least margin, None), images[beta][j] the spans landing in arc j
    of cone beta, or (None, margin, witness) at the first arc not mapped
    strictly inside one.  BadFamily on a size mismatch or a dense cone."""
    n = sft.n_symbols
    if len(cones) != n or len(mats) != n:
        raise BadFamily(f"family/tuple size mismatch with {n} symbols")
    for i, cone in enumerate(cones):
        if cone.total_length() >= PI - DEFAULT.angle:
            raise BadFamily(f"multicone for symbol {i} is dense")
    mats = [m.to_float() for m in mats]
    images: list[dict[int, list[Span]]] = [dict() for _ in range(n)]
    worst = PI
    # one lookup per distinct cone: a constant family repeats one object
    orders = {id(cone): start_order(cone.arcs) for cone in cones}
    for alpha in range(n):
        for beta in range(n):
            if not sft.ok(alpha, beta):
                continue
            targets, order = cones[beta].arcs, orders[id(cones[beta])]
            for ai, arc in enumerate(cones[alpha].arcs):
                img, j, best = _strict_image(mats[beta], arc, targets, order)
                if j is None:
                    return None, best, {"alpha": alpha, "beta": beta,
                                        "component": ai, "margin": best}
                worst = min(worst, best)
                images[beta].setdefault(j, []).append(img)
    return images, worst, None


def certify(mats, sft: Sft, fam: MulticoneFamily) -> CertifyReport:
    """Check the strict-inclusion condition and report certificate constants."""
    check_finite(mats)
    images, worst, witness = _inclusions(mats, sft, fam.cones)
    if witness is not None:
        return CertifyReport(ok=False, contraction=0.0, comparability=0.0,
                             witness=witness, margin=worst)
    lam = float("inf")
    c_max = 0.0
    c_min = float("inf")
    for beta, cone in enumerate(fam.cones):
        for comp in cone.arcs:
            c_min = min(c_min, hilbert_density(comp, comp.midpoint.angle))
        for j, spans in images[beta].items():
            comp = cone.arcs[j]
            # a point image is infinitely contracted, and merge_spans drops
            # it: only its density counts
            c_max = max([c_max] + [hilbert_density(comp, s)
                                   for s, ln in spans if ln <= 0.0])
            for s, ln in merge_spans(spans):
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


class CoreSet(Record):
    """Closed arc systems: forward-invariant U and backward-invariant S.

    Arcs are stored as tuples of ArcP1 hulls (endpoints included by
    convention).  The slot _maps is not a field: it holds the component
    maps this instance has computed (action), so it takes no part in
    equality, hash, repr, pickling or to_json, and every new CoreSet, equal
    to this one or not, starts without it.
    """

    # u_words and s_words give per arc the names of its (start, end) points,
    # and word_length the word length that certified them (compute_cores);
    # empty and 0 for cores in closed form
    __slots__ = ("u_arcs", "s_arcs", "u_words", "s_words", "word_length", "_maps")
    _fields = __slots__[:-1]
    _defaults = {"u_words": (), "s_words": (), "word_length": 0}

    def action(self, m: Mat2, stable: bool = False):
        """component_map of m's float form on the U arcs or, stable, of its
        exact inverse's float form on the S arcs; held per generator object
        once it succeeds, so a failure recurs."""
        maps = getattr(self, "_maps", None)
        if maps is None:
            maps = {}
            _set_maps(self, maps)
        key = (id(m), stable)
        if key in maps and maps[key][0] is m:
            return maps[key][1]
        arcs = self.s_arcs if stable else self.u_arcs
        out = component_map((m.inverse() if stable else m).to_float(), arcs, arcs)
        maps[key] = (m, out)  # m held, so no other object takes its id
        return out

    @property
    def rank(self) -> int:
        return len(self.u_arcs)

    def to_json(self) -> dict:
        out = {"u": [[a.start.angle, a.end.angle] for a in self.u_arcs],
               "s": [[a.start.angle, a.end.angle] for a in self.s_arcs],
               "rank": self.rank}
        if self.word_length:
            out["u_words"] = [list(v) for v in self.u_words]
            out["s_words"] = [list(v) for v in self.s_words]
            out["word_length"] = self.word_length
        return out


_set_maps = CoreSet.__dict__["_maps"].__set__

# how far an arc runs past its last point, which gives a one-point run a length
PUFF = 1e-15


def _runs(points, blockers) -> tuple[list[Span], tuple]:
    """The fill of the (angle, name) points against the blocker angles: the
    spans and, per span, the names of its first and last point, by start.

    This realizes the passage from a limit set to its core: complement
    components that miss the opposite family are absorbed.  In one cyclic
    sweep each maximal run of points with no blocker between two of them
    spans from its first point to PUFF past its last; where points tie the
    smallest name is first and the largest last, and a blocker tied with a
    point follows it.  Without points or blockers there is no fill ([]).
    """
    marks = sorted([(x, False, name) for x, name in points]
                   + [(b, True, "") for b in blockers])
    cut = next((i for i, (_, blocks, _) in enumerate(marks) if blocks), None)
    if cut is None:
        return [], ()
    runs, first = [], None
    # from just past a blocker round to it, so a blocker closes every run
    for x, blocks, name in marks[cut + 1:] + marks[:cut + 1]:
        if not blocks:
            first, last = first or (x, name), (x, name)
        elif first:
            # a run across 0 ends past pi
            end = last[0] + PUFF + (PI if last[0] < first[0] else 0.0)
            runs.append(((first[0], end - first[0]), (first[1], last[1])))
            first = None
    runs.sort()
    return [span for span, _ in runs], tuple(ends for _, ends in runs)


def _filled_view(u_pts, s_pts, mats, inv, sft: Sft):
    """Per symbol, the _runs of its U points against S and of its S points
    against U.  Over the full shift the points are pooled and block each
    other directly; on a subshift symbol a's U points block against its S
    points carried over letter a, and its S points against its U points
    carried back over it.
    """
    n = sft.n_symbols
    if sft.is_full:
        u_all, s_all = sum(u_pts, []), sum(s_pts, [])
        return ([_runs(u_all, [x for x, _ in s_all])] * n,
                [_runs(s_all, [x for x, _ in u_all])] * n)
    return ([_runs(u_pts[a], [mats[a].act_angle(x) for x, _ in s_pts[a]])
             for a in range(n)],
            [_runs(s_pts[a], [inv[a].act_angle(x) for x, _ in u_pts[a]])
             for a in range(n)])


def _named(spans: list[Span], points) -> tuple[tuple[ArcP1, ...], tuple]:
    """The arcs of the filled spans and, per arc, the names of its first and
    last point; every point lies in one of the spans."""
    starts = [s for s, _ in spans]
    held: list[list] = [[] for _ in spans]  # (offset from the start, name)
    for x, name in points:
        i = bisect.bisect_right(starts, x) - 1  # -1: in the span across 0
        held[i].append(((x - starts[i]) % PI, name))
    return arcs_of_spans(spans), tuple((min(h)[1], max(h)[1]) for h in held)


def _pin(name: str, letter: int, at: dict, forward: bool) -> float | None:
    """Where the letter (forward) or its inverse carries the periodic point
    so named, by an identity of words, or None: w[0] conjugates the product
    of w into that of w[1:] + w[:1], and w[-1]^-1 into that of w[-1:] + w[:-1]."""
    if "(" in name:  # a carried point
        return None
    ch = LETTERS[letter]
    if forward and name[0] == ch:
        return at[name[1:] + name[0]]
    if not forward and name[-1] == ch:
        return at[name[-1] + name[:-1]]
    return None


def _invariant(u, s, mats, inv, sft: Sft, u_at: dict, s_at: dict) -> bool:
    """Each symbol's U and S arcs alternate, and each allowed a -> b maps U
    arcs of a into U arcs of b and, backward, S arcs of b into S arcs of a.
    u[a] and s[a] are (arcs, names) of _runs; image endpoints that an
    identity of words places on a rotated word's point are pinned there."""
    n = sft.n_symbols
    if any(alternation(u[a][0], s[a][0])[1] is not None for a in range(n)):
        return False

    def pins(names, letter, at, forward):
        return [tuple(_pin(x, letter, at, forward) for x in ends) for ends in names]

    try:
        for a, b in ((a, b) for a in range(n) for b in range(n) if sft.ok(a, b)):
            component_map(mats[b], u[a][0], u[b][0], pins(u[a][1], b, u_at, True))
            component_map(inv[a], s[b][0], s[a][0], pins(s[b][1], a, s_at, False))
    except AmbiguousIncidence:
        return False
    return True


def _directions(mats, w, n: Mat2, scale: int) -> tuple[float, float]:
    """The U and S angles of the cyclic word w's product n/scale (scale 1
    but for integer n), or NoConvergence naming w.  A float n that tests
    non-hyperbolic (rounding, or det drift) is rebuilt exactly first."""
    tr = n.trace()
    if abs(tr) > 2 * scale:
        try:
            (u, _), (s, _) = eigen_data(n, scale)
            return u.angle, s.angle
        except NoInvariantDirection:
            pass
    if not n.is_exact():
        return _directions(mats, w, *exact_product(mats, w))
    raise NoConvergence(f"cyclic word {render_word(w)} is not hyperbolic (|tr| = "
                        f"{float(abs(tr) / scale):.6g}, det = "
                        f"{float(n.det() / (scale * scale)):.6g})")


def compute_cores(mats, sft: Sft, depth: int = 12) -> CoreSet:
    """The cores, filled from periodic points; depth is the longest periodic
    word length L tried.

    For L = 1, 2, ... the U and S points of every cyclically admissible word
    w of length <= L that is not a power are taken from w's own product, read
    off the admissible-word tree (admissible_entries), and named
    render_word(w); U points go to the symbol of w's last letter, S points
    to that of its first.  On a subshift each point is also carried one
    admissible letter forward (U, "(w)B" names B u(w)) or backward (S,
    "B(w)" names B^-1 s(w)), since some per-symbol endpoints are
    preperiodic.  The points are filled U against S and S against U
    (_filled_view) in one sweep each (_runs): a run of points with no
    blocking point of the other kind between two of them is one arc, from
    its first point to PUFF past its last.  The first system to pass
    _invariant is returned; SearchBudgetExceeded if none up to depth does.
    Every cyclic word of a uniformly hyperbolic tuple is hyperbolic, so the
    first that is not raises NoConvergence (_directions).  A generator of
    determinant < 0 raises PreconditionViolated when the tree reaches it; on
    exact input the sign is read on its integer entries, so exactly.

    Exact input walks integer matrices (admissible_entries): w's product
    n/S is read by eigen_data(n, S).

    Why the first passing system is the cores.  Periodic U (S) points lie
    in the U (S) cores, and every core arc holds some.  If each letter maps
    U' into U', its complement C is open, holds the S arcs, and is mapped
    into itself by each inverse letter.  The inverse product of a periodic
    word w draws every point but u(w) to s(w), so s(w) lies in the closure
    of C, and not on the boundary of U', whose endpoints are U points (the
    end PUFF past one).  So
    U' holds no periodic S point and bridges no gap of the U cores, which
    holds a core S arc; dually for S', and on a subshift the same holds per
    symbol along admissible cycles.  A fill below the true word length can
    therefore not pass as a coarser system: U' and S' lie inside the cores,
    and an alternating invariant system inside them is the cores, the
    minimal invariant multicone.  Longer words add points inside the same
    arcs, so every depth from the first certifying L on gives the same
    result.  The argument is exact on the edges an identity of words
    decides (_pin); the others allow _incidence_slack.
    """
    check_finite(mats)
    n = sft.n_symbols
    inv = [m.inverse() for m in mats]
    u_at: dict[str, float] = {}
    s_at: dict[str, float] = {}
    u_pts: list[list] = [[] for _ in range(n)]  # per symbol: (angle, name)
    s_pts: list[list] = [[] for _ in range(n)]
    tree = admissible_entries(mats, sft, depth)
    for length, words in itertools.groupby(tree, key=lambda x: len(x[0])):
        for w, m, scale in words:
            name = render_word(w)
            if length == 1 and m[0] * m[3] < m[1] * m[2]:
                raise PreconditionViolated(f"generator {name} has det < 0; the "
                                           "multicone layer takes det > 0")
            if not sft.ok(w[-1], w[0]) or (name + name).find(name, 1) < length:
                continue
            u, s = _directions(mats, w, Mat2(*m), scale)
            u_at[name], s_at[name] = u, s
            u_pts[w[-1]].append((u, name))
            s_pts[w[0]].append((s, name))
            if sft.is_full:
                continue
            for b in range(n):
                if sft.ok(w[-1], b) and b != w[0]:
                    u_pts[b].append((mats[b].act_angle(u), f"({name}){LETTERS[b]}"))
                if sft.ok(b, w[0]) and b != w[-1]:
                    s_pts[b].append((inv[b].act_angle(s), f"{LETTERS[b]}({name})"))
        fu, fs = _filled_view(u_pts, s_pts, mats, inv, sft)
        if not all(len(x[0]) == len(y[0]) > 0 for x, y in zip(fu, fs)):
            continue  # no alternation
        # per-symbol arcs, then the merged ones
        u, s = ([(arcs_of_spans(sp), ends) for sp, ends in f] for f in (fu, fs))
        if sft.is_full:
            u_glob, s_glob = u[0], s[0]
        else:
            u_glob = _named(merge_spans([x for sp, _ in fu for x in sp]), sum(u_pts, []))
            s_glob = _named(merge_spans([x for sp, _ in fs for x in sp]), sum(s_pts, []))
        if _invariant(u, s, mats, inv, sft, u_at, s_at):
            return CoreSet(u_arcs=u_glob[0], s_arcs=s_glob[0], u_words=u_glob[1],
                           s_words=s_glob[1], word_length=length)
    raise SearchBudgetExceeded(
        f"no certified invariant cores from periodic words of length <= {depth}")


# ---------------------------------------------------------------------------
# component action and the core criterion


def eventual_constancy(maps: list[tuple[int, ...]]) -> tuple[bool, int]:
    """(all long products constant?, least such length), decided exactly.

    Pair graph (Perles, Rabin & Shamir 1963): the nodes are the unordered
    pairs {x, y} of distinct points, and each map f with f(x) != f(y) gives
    an edge {x, y} -> {f(x), f(y)}.  Some product of k maps separates x and
    y iff {x, y} starts a path of k edges, so all length-k products are
    constant iff no path has k edges.  A cycle gives paths of every length:
    (False, 0).  Otherwise the least length is the longest path plus 1, at
    most max(1, C(q, 2)) on q points.  One Kahn pass over the C(q, 2) nodes
    and N C(q, 2) edges finds both, in O(N q^2) with no budget.
    """
    q = len(maps[0]) if maps else 0
    pairs = list(itertools.combinations(range(q), 2))
    succ = {p: [] for p in pairs}
    indeg = dict.fromkeys(pairs, 0)
    for (x, y), out in succ.items():
        for f in maps:
            a, b = f[x], f[y]
            if a != b:
                out.append((a, b) if a < b else (b, a))
                indeg[out[-1]] += 1
    depth = dict.fromkeys(pairs, 0)
    ready = [p for p in pairs if not indeg[p]]
    while ready:  # Kahn: a pair is taken after all its predecessors
        p = ready.pop()
        for e in succ.pop(p):
            depth[e] = max(depth[e], depth[p] + 1)
            indeg[e] -= 1
            if not indeg[e]:
                ready.append(e)
    if succ:  # the pairs left lie on a cycle or behind one
        return False, 0
    return True, max(depth.values(), default=0) + 1


class CriterionReport(Record):
    __slots__ = ("ok", "reasons", "constancy_length")
    _defaults = {"constancy_length": 0}

    def __bool__(self) -> bool:
        return self.ok


def alternation(u_arcs, s_arcs):
    """(arcs, defect): the U and S arcs as (start, 0 for U / 1 for S, arc)
    sorted by start, and the first defect of disjoint alternation found --
    None, "counts" (unequal or no arcs), "order" or "overlap"."""
    tagged = sorted([(a.start.angle, 0, a) for a in u_arcs] +
                    [(a.start.angle, 1, a) for a in s_arcs])
    if len(u_arcs) != len(s_arcs) or not u_arcs:
        return tagged, "counts"
    pairs = list(zip(tagged, tagged[1:] + tagged[:1]))
    if any(here[1] == nxt[1] for here, nxt in pairs):
        return tagged, "order"
    for (start, _, arc), (nxt_start, _, _) in pairs:
        if angle_gap(start, arc.end.angle) >= angle_gap(start, nxt_start):
            return tagged, "overlap"
    return tagged, None


def core_criterion(mats, cores: CoreSet) -> CriterionReport:
    """Structural test implying uniform hyperbolicity of the tuple.

    Checks disjoint alternation, forward/backward invariance within
    tolerance, and eventual constancy of the component action.  At rank >= 2
    that excludes +-identity products of every length: one would map each
    core component onto itself, a bijection of two or more components, and
    no power of that is constant.  This holds while adjacent core components
    lie farther apart than the _incidence_slack component_map allows,
    carried along the word.  certify is a second guard: a +-identity product
    maps a multicone onto itself, not strictly inside it.  At rank 1 the
    action is constant from the start, so each letter is checked instead.
    """
    check_finite(mats)

    def fail(reason):
        return CriterionReport(ok=False, reasons=(reason,))

    if alternation(cores.u_arcs, cores.s_arcs)[1] is not None:
        return fail("DisjointnessViolation: U/S fail to alternate disjointly")
    u_maps, s_maps = [], []
    try:
        for m in mats:
            u_maps.append(cores.action(m))
            s_maps.append(cores.action(m, stable=True))
    except AmbiguousIncidence as exc:
        return fail(f"InvarianceViolation: {exc}")
    ok_u, ell_u = eventual_constancy(u_maps)
    ok_s, ell_s = eventual_constancy(s_maps)
    if not ok_u or not ok_s:
        return fail("IdentityRisk: component action never becomes constant")
    if cores.rank == 1:
        for s, m in enumerate(mats):
            if is_pm_identity(m):
                return fail(f"IdentityProduct: word {(s,)} is +-identity")
    return CriterionReport(ok=True, reasons=(), constancy_length=max(ell_u, ell_s))


def _xi(arc: ArcP1, angle: float) -> float:
    """Isometric coordinate for the Hilbert metric of an arc."""
    t = arc.signed_offset_of(angle)
    return math.log(math.sin(t)) - math.log(math.sin(arc.length - t))


def _xi_inv(arc: ArcP1, xi: float) -> float:
    e = math.exp(xi)
    L = arc.length
    t = math.atan2(e * math.sin(L), 1.0 + e * math.cos(L))
    return (arc.start.angle + t) % PI


def _angle_derivative(m: Mat2, abs_det: float, angle: float) -> float:
    """Derivative of the float matrix m's action at angle; abs_det is
    |det| of the matrix m stands for, rounded once."""
    x, y = math.cos(angle), math.sin(angle)
    wx = m.a * x + m.b * y
    wy = m.c * x + m.d * y
    return abs_det / (wx * wx + wy * wy)


def _max_mean_cycle(edges) -> float:
    """Karp bound: largest mean edge weight over cycles, -inf when acyclic;
    edges[u] lists the (v, weight) out of node u, nodes being 0 .. n-1."""
    n = len(edges)
    NEG = float("-inf")
    D = [[0.0] * n] + [[NEG] * n for _ in range(n)]
    for k in range(1, n + 1):
        prev, row = D[k - 1], D[k]
        for u in range(n):
            du = prev[u]
            if du == NEG:
                continue
            for (v, w) in edges[u]:
                if du + w > row[v]:
                    row[v] = du + w
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


def fatten_cores(mats, cores: CoreSet) -> MultiCone:
    """Open multicone around U, grown in the Hilbert metrics of the S-gaps.

    Each unstable component sits in one component of the complement of S;
    fattening by a Hilbert-neighborhood keeps the arcs inside those gaps
    (so closures stay disjoint for every radius), and the per-step Hilbert
    non-expansion makes the grown arcs map strictly inside each other once
    endpoint radii are weighted against the boundary dynamics: along the
    chains of endpoint identifications the derivative telescopes to the
    return-word contraction, so the weight graph has no positive cycles and
    a fraction of the measured cycle deficit can be spent as per-edge slack.
    The radius is halved until the grown arcs pass certify's strict
    inclusion over the full shift (_inclusions); the caller's certify
    computes the certificate's constants.

    Once a halving's cone is rejected, each later halving first retests the
    arc rejected last, growing only that arc and the one whose host holds
    its image's start, and builds and checks the full cone only when that
    arc maps strictly inside it.  This returns the cone the full check
    alone would: a retest failure means a failing cone, since the full check
    passes only if every arc maps inside some grown arc by a margin of at
    least 4e-14.  Each grown arc lies in its own host, and the hosts are
    disjoint, so that margin puts the image's start inside exactly one host,
    the last one starting at or before it (the last of all when it starts
    before every host), and the arc it maps into is that host's.  A grown
    arc that cannot be built fails the halving either way.
    """
    check_finite(mats)
    abs_dets = [abs(float(m.det())) for m in mats]
    fmats = [m.to_float() for m in mats]
    q = cores.rank
    # each U arc's host: the S-gap between its neighbours in the cyclic order
    tagged, defect = alternation(cores.u_arcs, cores.s_arcs)
    if defect is not None:
        raise DegenerateInput(f"cores do not alternate ({defect}); cannot fatten")
    host_of = {arc: ArcP1(tagged[i - 1][2].end, tagged[(i + 1) % (2 * q)][2].start)
               for i, (_, kind, arc) in enumerate(tagged) if kind == 0}
    hosts = [host_of[u_arc] for u_arc in cores.u_arcs]

    # endpoint nodes 2j + side (side 0 = start, 1 = end of U arc j) with
    # tight-edge weights
    nodes = range(2 * q)
    point = [x for arc in cores.u_arcs for x in (arc.start.angle, arc.end.angle)]
    raw_edges: list[list] = [[] for _ in nodes]
    for m, fm, abs_det in zip(mats, fmats, abs_dets):
        try:
            targets = cores.action(m)
        except AmbiguousIncidence as exc:
            raise DegenerateInput("cores are not invariant; cannot fatten") from exc
        for j, tgt in enumerate(targets):
            for side in (0, 1):
                src_angle = point[2 * j + side]
                img_angle = fm.act_angle(src_angle)
                tgt_angle = point[2 * tgt + side]
                # measure the endpoint slack in the target gap's Hilbert units;
                # anything beyond a few fattening radii cannot be overshot
                slack_h = (angle_dist(img_angle, tgt_angle)
                           * hilbert_density(hosts[tgt], tgt_angle))
                if slack_h > 8.0 * HILBERT_EPS:
                    continue  # genuinely interior; no constraint needed
                dh = (_angle_derivative(fm, abs_det, src_angle)
                      * hilbert_density(hosts[tgt], img_angle)
                      / hilbert_density(hosts[j], src_angle))
                w = min(math.log(max(dh, 1e-300)), 0.0)
                raw_edges[2 * j + side].append((2 * tgt + side, w))

    # spend half the measured cycle deficit as per-edge slack
    # (an acyclic graph, mean -inf, gets the full BOOST)
    mean_cycle = _max_mean_cycle(raw_edges)
    b = min(BOOST, max(-0.5 * mean_cycle, 1e-12))
    edges = [[(t, w + b) for (t, w) in out] for out in raw_edges]

    # longest-path relaxation, to its fixed point: a round that changes no
    # value of P would be repeated by every later round
    P = [0.0] * (2 * q)
    for _ in range(2 * q + 2):
        relaxed = [max([0.0] + [w + P[t] for (t, w) in out]) for out in edges]
        if relaxed == P:
            break
        P = relaxed

    radius = [HILBERT_EPS * math.exp(-p) for p in P]
    xi = [_xi(hosts[n // 2], point[n]) for n in nodes]
    host_starts, host_index = start_order(hosts)

    def grown(j: int) -> ArcP1:
        """U arc j grown by the halving's scale; DegenerateInput if it
        collapses."""
        return ArcP1.from_angles(
            _xi_inv(hosts[j], xi[2 * j] - scale * radius[2 * j]),
            _xi_inv(hosts[j], xi[2 * j + 1] + scale * radius[2 * j + 1]))

    def retest(beta: int, j: int) -> bool:
        """Whether letter beta maps grown arc j strictly inside a grown arc."""
        img = image_span(fmats[beta], grown(j).span)
        target = grown(host_index[bisect.bisect_right(host_starts, img[0]) - 1])
        return containment_margin(target, img) >= max(
            DEFAULT.margin * min(1.0, target.length), 4e-14)

    sft = Sft.full(len(mats))
    scale, rejected = 1.0, None  # rejected: (letter, U arc) that failed last
    for _ in range(MAX_HALVINGS):
        cone = None
        try:
            if rejected is None or retest(*rejected):
                arcs = [grown(j) for j in range(q)]
                cone = MultiCone(arcs)
        except DegenerateInput:
            pass
        if cone is not None:
            _, _, witness = _inclusions(fmats, sft, (cone,) * sft.n_symbols)
            if witness is None:
                return cone
            rejected = (witness["beta"], arcs.index(cone.arcs[witness["component"]]))
        scale *= 0.5
    raise DegenerateInput("no certified fattening found for the given cores")
