"""Constructive witnesses of non-hyperbolicity and boundary structure.

Searches run over primitive cyclic word classes in shortlex order, so the
returned witnesses are canonical and reproducible.  One classifier (_kind)
gives each class one kind, read on its product entries / S as the first of:

  elliptic    det > 0 and |tr| < 2 - DEFAULT.trace;
  identity    within DEFAULT.identity of +-I (sl2core.is_pm_identity), or
              of det < 0 with |tr| <= DEFAULT.parabolic and its square
              +-I, when the hit is the doubled word;
  parabolic   ||tr| - 2| <= DEFAULT.parabolic;
  hyperbolic  |tr| > 2 + DEFAULT.trace, or > DEFAULT.trace at det <= 0;
  none        anything else (det <= 0 and tr near 0).

So a float class with 2 - DEFAULT.parabolic <= |tr| < 2 - DEFAULT.trace is
elliptic, and one with 2 + DEFAULT.trace < |tr| <= 2 + DEFAULT.parabolic
parabolic, in every search.  Exact input (every generator exact) takes band
0, as twoshift does: the searches read the integer product n of a word's
integer_scaled generators and the product S of their scales, so a class is
elliptic when |tr n| < 2S, +-identity when n = +-S I, parabolic when
|tr n| = 2S and hyperbolic when |tr n| > 2S.  search_elliptic,
search_parabolic and best_heteroclinic each read the first class of their
kind, or all hyperbolic ones; diagnose_boundary reads all three off one walk.

Before a witness is reported it is re-verified on products rebuilt from the
generators, not the walk's prefix-tree products and carried angles.  An
elliptic witness is checked exactly: its product on the given entries, a
float read as the dyadic rational it is, has det > 0 and tr^2 < 4 det.  A
parabolic or identity hit is classified again on its rebuilt product:
exactly on exact input, and on a float product from symdyn.product on float
input, where it is a claim within the DEFAULT.parabolic and DEFAULT.identity
bands, not a proof, since a rounded float product is almost never exactly
parabolic.  A heteroclinic residual is recomputed on float products, and a
witness failing any of these checks raises WitnessUnverified.  On float
input the connection is a claim within DEFAULT.heteroclinic.  On exact
input diagnose_boundary reports it only when it is exact: the best
connection, the first strict minimum in the search's order, is the hit if
its residual is within DEFAULT.heteroclinic and its two directions are
equal in integers (_exact_connection); otherwise the kind is none, with that
connection and its residual.  So every witness kind is exact on exact input.
Mixed input, exact and float generators together, is read as float input,
here as in _kind: a word product of a float generator is a float.
"""

from __future__ import annotations

import bisect
import math

from ._record import Record
from .errors import WitnessUnverified
from .projgeom import PI, angle_dist, norm_angle
from .sl2core import Mat2, check_finite, eigen_angles, eigen_data, is_pm_identity
from .symdyn import (Sft, Word, admissible_entries, exact_product, periodic_entries,
                     product, render_word)
from .tolerances import DEFAULT


class ParabolicHit(Record):
    __slots__ = ("word",
                 "kind",   # "parabolic" or "identity"
                 "trace")


class HeteroclinicHit(Record):
    __slots__ = ("source",      # periodic word whose unstable direction is carried
                 "connector",   # admissible glue (may be empty)
                 "target",      # periodic word whose stable direction is hit
                 "residual")


class BoundaryReport(Record):
    """The boundary witness found: an elliptic word, a ParabolicHit or a
    HeteroclinicHit (None where not found), with the search budgets."""

    __slots__ = ("kind",   # elliptic | parabolic | identity | heteroclinic | none
                 "elliptic", "parabolic", "heteroclinic", "budgets")

    def __init__(self, kind: str, elliptic=None, parabolic=None, heteroclinic=None,
                 budgets=None):
        super().__init__(kind, elliptic, parabolic, heteroclinic,
                         {} if budgets is None else budgets)

    def to_json(self) -> dict:
        out = {"kind": self.kind, "budgets": dict(self.budgets)}
        if self.elliptic is not None:
            out["elliptic_word"] = render_word(self.elliptic)
        if self.parabolic is not None:
            out["parabolic_word"] = render_word(self.parabolic.word)
            out["parabolic_kind"] = self.parabolic.kind
            out["trace"] = self.parabolic.trace
        if self.heteroclinic is not None:
            h = self.heteroclinic
            out["heteroclinic"] = {"source": render_word(h.source),
                                   "connector": render_word(h.connector),
                                   "target": render_word(h.target),
                                   "residual": h.residual}
        return out


def _kind(w: Word, m, scale: int, exact: bool) -> tuple[str, Word]:
    """(kind, hit word) of the cyclic class w whose product is the entries
    m / scale: the first of elliptic, identity, parabolic and hyperbolic
    that holds, else "none"; the hit word is w, or w + w for a det < 0
    class whose square is +-identity.  Exact input takes band 0."""
    a, b, c, d = m
    t, det = abs(a + d), a * d - b * c
    band, near = (0, 0) if exact else (DEFAULT.trace, DEFAULT.parabolic)
    if det < 0:
        # real eigenvalues of opposite signs; C^2 = tr(C) C - det(C) I, so
        # C^2 near +-I needs tr(C) near 0: at det -1 some |C_ij| >= 1/sqrt 2,
        # and C^2 within DEFAULT.identity of I needs |tr| <= sqrt 2 times that
        if t <= near * scale:
            q = Mat2(a, b, c, d)
            if is_pm_identity(q @ q, scale * scale):
                return "identity", w + w
        return ("hyperbolic" if t > band * scale else "none"), w
    if t < (2 - band) * scale and det > 0:
        return "elliptic", w
    if abs(t - 2 * scale) <= near * scale:
        # +-I has |tr| within 2 DEFAULT.identity of 2
        return ("identity" if is_pm_identity(Mat2(a, b, c, d), scale) else "parabolic"), w
    return ("hyperbolic" if t > (band + (2 if det > 0 else 0)) * scale else "none"), w


def search_elliptic(mats, sft: Sft, max_len: int) -> Word | None:
    """First cyclic class (shortlex) of kind elliptic (_kind), checked
    exactly (_verify_elliptic)."""
    exact = check_finite(mats)
    for w, m, scale in periodic_entries(mats, sft, max_len):
        # an elliptic class has |tr| < 2S: most words stop here
        if abs(m[0] + m[3]) < 2 * scale and _kind(w, m, scale, exact)[0] == "elliptic":
            _verify_elliptic(mats, w)
            return w
    return None


def _verify_elliptic(mats, w: Word) -> None:
    """Raise WitnessUnverified unless the product of w is elliptic on the
    given entries read exactly (a float is a dyadic rational): det > 0 and
    tr^2 < 4 det, for the integer product n / S (exact_product), S
    cancelling from both tests."""
    n, scale = exact_product(mats, w)
    tr, det = n.trace(), n.det()
    if not (det > 0 and tr * tr < 4 * det):
        raise WitnessUnverified(
            f"elliptic witness {render_word(w)} has trace {tr / scale} and "
            f"det {det / (scale * scale)} when its product is rebuilt exactly")


def search_parabolic(mats, sft: Sft, max_len: int) -> ParabolicHit | None:
    """First cyclic class (shortlex) of kind parabolic or identity (_kind),
    re-checked on its rebuilt product (_checked_hit)."""
    exact = check_finite(mats)
    for w, m, scale in periodic_entries(mats, sft, max_len):
        # a parabolic or identity class has |tr| / S within 1/2 of 2, or below
        # 1/2 (at det < 0): most words stop here
        t = abs(m[0] + m[3]) / scale
        if abs(t - 2.0) > 0.5 and t > 0.5:
            continue
        kind, hit = _kind(w, m, scale, exact)
        if kind in ("parabolic", "identity"):
            return _checked_hit(mats, hit, kind, exact)
    return None


def _checked_hit(mats, w: Word, kind: str, exact: bool) -> ParabolicHit:
    """The hit of kind on w, once _kind gives kind on w's rebuilt product:
    exact_product on exact input, product on float input (else
    WitnessUnverified)."""
    n, scale = exact_product(mats, w) if exact else (product(mats, w), 1)
    trace = float(n.trace() / scale)
    if _kind(w, (n.a, n.b, n.c, n.d), scale, exact)[0] != kind:
        raise WitnessUnverified(
            f"{kind} witness {render_word(w)} has trace {trace} when its product "
            f"is rebuilt{' exactly' if exact else ''}")
    return ParabolicHit(word=w, kind=kind, trace=trace)


def _arc_bound(lo: float, hi: float, ts: list[float]) -> float:
    """Least distance from the positive arc lo -> hi to the sorted, non-empty
    angles ts; 0 when the arc holds one of them.  Otherwise the arc lies in
    the gap between two consecutive angles, before and after: every target
    is reached from a point of the arc through before or through after, so
    the least distance is taken at an end of the arc."""
    k = bisect.bisect_left(ts, lo)
    before, after = ts[k - 1], ts[k % len(ts)]
    if (after - lo) % PI <= (hi - lo) % PI:
        return 0.0
    return min((lo - before) % PI, (after - hi) % PI)


def best_heteroclinic(mats, sft: Sft, k_max: int, ell_max: int,
                      n_max: int) -> HeteroclinicHit | None:
    """Minimal-residual admissible connection, regardless of tolerance.

    Admissibility glue: the last letter of the source feeds the connector
    (or the target directly when the connector is empty) and the connector
    feeds the first letter of the target; source and target must not lie on
    the same cyclic orbit.  Candidates are visited connector by connector
    (shortlex), then source by source (shortlex), then target by target (by
    stable angle); the first strict minimum wins, so the shortest connector
    of equal residuals.  Sources and targets are the cyclic classes of kind
    hyperbolic (_kind).

    Each letter has one list of the targets it may precede, sorted by stable
    angle; a carried source scans the list of the connector's last letter
    (its own when the connector is empty) by a bisection plus an outward
    walk.  Every target not yet visited lies on the arc between the two last
    visited that does not hold the carried angle, so its distance is at
    least the smaller of theirs: the walk stops as soon as both exceed the
    best residual, with no floor on the offset.

    Most (connector, source) pairs are never scanned.  A connector P acts on
    P1 as a homeomorphism that keeps the orientation when det P > 0 and
    reverses it when det P < 0 (generators of determinant -1 are allowed).
    So the sources of a block, any set of them sorted by unstable angle and
    scanning one list, are carried into the arc between the images of the
    block's first and last source.  When that arc holds none of the list's
    targets it lies in the gap between two of them, and every residual of
    the block is at least the distance from the nearer end of the arc to
    the end of the gap beyond it (_arc_bound, exact).  A block whose bound
    exceeds the limit is skipped; others are halved, and a source is
    carried at most once per connector.  The first blocks are the sources
    ending in each letter that may precede the connector: a word's unstable
    direction is set mostly by its last letters, so most of them are
    skipped whole.  They depend only on the connector's first and last
    letters, so they are planned once per pair of letters.

    The limit is known before the first scan.  The empty connector carries
    each source by the identity, so its residuals are, up to rounding, the
    distances from each source's own angle to the two targets beside it in
    its letter's list (the target equal to the source skipped): the least
    of them bounds the answer, and the empty connector's blocks are pruned
    like any other's.  The kept sources are scanned in shortlex order, so
    the visiting order, the ties and the result are those of the full scan.
    The connection found is re-verified from scratch.
    """
    exact = check_finite(mats)
    # a class with |tr| > 3S is hyperbolic whatever its det: most words stop here
    return _best_connection(mats, sft, [
        (w, m, scale) for w, m, scale in periodic_entries(mats, sft, max(k_max, ell_max))
        if abs(m[0] + m[3]) > 3 * scale or _kind(w, m, scale, exact)[0] == "hyperbolic"],
        k_max, ell_max, n_max)


def _best_connection(mats, sft: Sft, classes, k_max: int, ell_max: int,
                     n_max: int) -> HeteroclinicHit | None:
    """best_heteroclinic over the hyperbolic classes, (word, entries, scale)
    in shortlex order: the sources keep that order.

    The prune margin is a proven rounding allowance (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 2002, ch. 2-3; libm's cos,
    sin and atan2 within an ulp).  Read a connector as the float matrix P
    its carry uses, and let q = |P|_F^2 / |det P|, at least the ratio k of
    its singular values and at most k + 1.  Its blocks are pruned against
    min(best residual, U) + 1e-12 + 1.2e-15 q, U the empty connector's
    least residual read off the source angles, when q <= q_max =
    2e14 min(1/2, pi - the widest block's span); else every source is kept.

    - The carry of a direction w is off its true image by at most
      e = 3.8e-16 sqrt(q) x + 8e-16 <= 3.8e-16 q + 8e-16, where x^2 =
      |det P| / |P w|^2, in [1/q, q], is the action's derivative at w: the
      rounded (cos, sin) moves w by 1.6e-16, stretched by x^2; the two dot
      products err by 2.2e-16 |P|_F |w|, an angle of 2.2e-16 sqrt(q) x at
      P w; atan2 and norm_angle add 8e-16.
    - A block's sources lie on the arc of span S from its first to its last
      angle, so their true images lie on that arc's image, of length L, and
      their carries within 2e of the arc between the carried ends, or of
      one end (3e) when L < 2e and the ends may swap.
    - The ends cannot swap the other way, L near pi and the carried arc
      short, when q <= q_max.  If S > pi/2: sin(pi - L) = sin(S) x_1 x_2,
      x_i at the ends (a 2x2 determinant), so pi - L exceeds both ends'
      errors once sin S > 2.4e-15 q, which q_max gives.  If S <= pi/2: P
      acts as phi -> arctan(tan(phi) / k) in singular coordinates, so an
      image pi - L <= pi/4 of the complement, of span >= pi/2, puts its ends
      at -a and b about the most contracted direction; with s = tan(.) / k
      at each, x^2 <= 1 + q s^2 there and pi - L >= (pi/4)(s_a + s_b) >=
      pi / (2q), more than both ends' errors for q <= 1e14.
    - A residual and a bound each round by under 1e-15, and U is a
      candidate's residual but for its identity carry (exact dot products;
      cos, sin, atan2 and norm_angle: 1e-15).  So every computed residual of
      a pruned block exceeds min(best residual, that candidate's): no
      pruned source could have been the first strict minimum.
    """
    periodic = [(w, eigen_angles(*m, scale)) for w, m, scale in classes]
    sources = [(v, u) for v, (u, _) in periodic if len(v) <= k_max]
    target_dirs = sorted((s, w) for w, (_, s) in periodic if len(w) <= ell_max)
    # each source's (cos, sin), as act_angle takes them
    trig = [(math.cos(u), math.sin(u)) for _, u in sources]
    by_angle = sorted(range(len(sources)), key=lambda i: sources[i][1])
    letters = range(sft.n_symbols)
    allowed = sft.allowed
    # by angle, the sources that end in each letter; the angles and the words
    # of the targets each letter may precede
    ending = [[i for i in by_angle if sources[i][0][-1] == s] for s in letters]
    fed = [[(a, w) for a, w in target_dirs if allowed[s][w[0]]] for s in letters]
    fed = [([a for a, _ in f], [w for _, w in f]) for f in fed]
    # the blocks of a connector by its first and last letter: one per letter
    # e, the sources ending in e, which scan the targets of the connector's
    # last letter (e's own when it is empty), those with a source and a
    # target; the bound may ignore that a target must differ from its source
    plans = [[[(ending[e], s, fed[s][0]) for e in letters
               if allowed[e][f] and ending[e] and fed[s][0]] for s in letters]
             for f in letters]
    no_connector = [(ending[e], e, fed[e][0]) for e in letters if ending[e] and fed[e][0]]
    span = max([sources[g[-1]][1] - sources[g[0]][1] for g in ending if g], default=0.0)
    q_max = 2e14 * min(0.5, PI - span)

    # U: each source's residual by the identity, at the targets beside it in
    # its letter's list, past the one equal to it; min(g, PI - g) rounds alike
    bound_u = math.inf
    half = PI / 2
    for group, e, ts in no_connector:
        tws, m_t = fed[e][1], len(ts)
        for i in group:
            v, u = sources[i]
            k = bisect.bisect_left(ts, u) % m_t
            for j in (k, k - 1):
                if tws[j] == v:
                    if m_t == 1:
                        continue
                    j = (j + 1) % m_t if j == k else j - 1
                g = (u - ts[j]) % PI
                if g > half:
                    g = PI - g
                if g < bound_u:
                    bound_u = g

    best = None
    best_r = math.inf
    for conn, P, scale in [((), (1, 0, 0, 1), 1), *admissible_entries(mats, sft, n_max)]:
        flip = P[0] * P[3] - P[1] * P[2] < 0
        # act_angle's arithmetic on the entries / scale, x / 1 being x
        a, b, c, d = P if scale == 1 else [v / scale for v in P]
        f, det = a * a + b * b + c * c + d * d, abs(a * d - b * c)
        limit = (min(best_r, bound_u) + 1e-12 + 1.2e-15 * f / det
                 if f <= q_max * det else math.inf)
        keep = []
        for group, s, ts in plans[conn[0]][conn[-1]] if conn else no_connector:
            if limit == math.inf:
                keep += [(i, norm_angle(math.atan2(c * x + d * y, a * x + b * y)), s)
                         for i in group for x, y in (trig[i],)]
                continue
            # the carried angles of the block ends: each source is carried
            # once, where it first ends a block
            x, y = trig[group[0]]
            t_lo = t_hi = norm_angle(math.atan2(c * x + d * y, a * x + b * y))
            if len(group) > 1:
                x, y = trig[group[-1]]
                t_hi = norm_angle(math.atan2(c * x + d * y, a * x + b * y))
            blocks = [(0, len(group) - 1, t_lo, t_hi)]
            while blocks:
                lo, hi, t_lo, t_hi = blocks.pop()
                if (_arc_bound(t_hi, t_lo, ts) if flip else _arc_bound(t_lo, t_hi, ts)) > limit:
                    continue
                if lo == hi:
                    keep.append((group[lo], t_lo, s))
                else:
                    mid = (lo + hi) // 2
                    t_mid, t_next = t_lo, t_hi
                    if mid > lo:
                        x, y = trig[group[mid]]
                        t_mid = norm_angle(math.atan2(c * x + d * y, a * x + b * y))
                    if mid + 1 < hi:
                        x, y = trig[group[mid + 1]]
                        t_next = norm_angle(math.atan2(c * x + d * y, a * x + b * y))
                    blocks += ((lo, mid, t_lo, t_mid), (mid + 1, hi, t_next, t_hi))
        keep.sort()

        for i, angle, s in keep:
            v = sources[i][0]
            ts, tws = fed[s]
            m_t = len(ts)
            # the first target in angle order among those that beat best_r
            # by the most; the scan meets equal distances out of that order
            near_r, near = best_r, None
            start = bisect.bisect_left(ts, angle) % m_t
            for off in range(m_t):
                fwd, bwd = (start + off) % m_t, (start - 1 - off) % m_t
                g = (angle - ts[fwd]) % PI
                r_fwd = min(g, PI - g)
                g = (angle - ts[bwd]) % PI
                r_bwd = min(g, PI - g)
                for idx, r in ((fwd, r_fwd), (bwd, r_bwd)):
                    if (r < near_r or (r == near_r and near is not None and idx < near)) \
                            and tws[idx] != v:
                        near_r, near = r, idx
                if min(r_fwd, r_bwd) > near_r:
                    break
            if near is not None:
                best_r = near_r
                best = HeteroclinicHit(source=v, connector=conn,
                                       target=tws[near], residual=near_r)
    if best is not None:
        _reverify_heteroclinic(mats, best)
    return best


def _reverify_heteroclinic(mats, hit: HeteroclinicHit) -> None:
    """Recompute the residual from rebuilt products (WitnessUnverified on a
    mismatch); the empty connector is the identity."""
    u = eigen_data(product(mats, hit.source))[0][0].angle
    s = eigen_data(product(mats, hit.target))[1][0].angle
    P = product(mats, hit.connector) if hit.connector else Mat2.identity()
    r = angle_dist(P.act_angle(u), s)
    if not abs(r - hit.residual) <= DEFAULT.heteroclinic:
        raise WitnessUnverified(
            f"heteroclinic witness {render_word(hit.source)}, "
            f"{render_word(hit.connector)}, {render_word(hit.target)} has "
            f"residual {r} when rebuilt, not {hit.residual}")


def diagnose_boundary(mats, sft: Sft,
                      budget: tuple[int, int, int] = (12, 12, 8)) -> BoundaryReport:
    """The three witness searches under a shared budget, read off one walk:
    the first elliptic class, else the first parabolic or identity class,
    else the best heteroclinic connection between the hyperbolic classes,
    checked exactly on exact input.

    Near a non-principal component no product may come close to +-identity,
    so an identity hit is reported as its own kind.
    """
    exact = check_finite(mats)
    k_max, ell_max, n_max = budget
    budgets = {"k": k_max, "l": ell_max, "n": n_max}
    hit = None
    hyperbolic = []
    for w, m, scale in periodic_entries(mats, sft, max(k_max, ell_max)):
        kind, v = _kind(w, m, scale, exact)
        if kind == "elliptic":
            _verify_elliptic(mats, w)
            return BoundaryReport(kind="elliptic", elliptic=w, budgets=budgets)
        if kind == "hyperbolic":
            hyperbolic.append((w, m, scale))
        elif kind != "none" and hit is None:
            hit = v, kind
    if hit is not None:
        hit = _checked_hit(mats, *hit, exact)
        return BoundaryReport(kind=hit.kind, parabolic=hit, budgets=budgets)
    het = _best_connection(mats, sft, hyperbolic, k_max, ell_max, n_max)
    if het is not None and het.residual <= DEFAULT.heteroclinic and (
            not exact or _exact_connection(mats, het)):
        return BoundaryReport(kind="heteroclinic", heteroclinic=het,
                              budgets=budgets)
    return BoundaryReport(kind="none", heteroclinic=het, budgets=budgets)


def _exact_connection(mats, hit: HeteroclinicHit) -> bool:
    """Whether the connector carries the source's unstable direction exactly
    onto the target's stable one, on the entries read exactly.  With n_w the
    integer product of the word w (exact_product; its scale is positive and
    moves no direction) and adj the adjugate, P u(v) = u(n_P n_v adj(n_P)),
    so _exact.compare_dirs decides the connection in integers."""
    from ._exact import compare_dirs, exact_dirs
    n_v, _ = exact_product(mats, hit.source)
    if hit.connector:
        p, _ = exact_product(mats, hit.connector)
        n_v = p @ n_v @ Mat2(p.d, -p.b, -p.c, p.a)
    n_t, _ = exact_product(mats, hit.target)
    return compare_dirs(exact_dirs(n_v)[0], exact_dirs(n_t)[1]) == 0
