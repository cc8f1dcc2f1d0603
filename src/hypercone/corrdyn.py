"""Combinatorial multicone dynamics: monotonic correspondences on a cyclic set.

A pair of combinatorial multicones is a cyclically ordered set of 2q points
alternating between a stable half and an unstable half.  A monotonic
correspondence carries a forward map on the unstable half and a backward map
on the stable half whose joint graph admits a compatible cyclic ordering;
the local rules checked here are

  for each unstable x with image y = C_u(x):
      x+ in Im C_s   =>  C_s(y+) = x+       (the graph turns diagonally)
      x+ not in Im C_s  =>  C_u(x++) = y    (the graph continues horizontally)

and dually on the stable half.  Relation composition makes these a monoid;
note (C o C')_u = C'_u o C_u while (C o C')_s = C_s o C'_s, so the
correspondence attached to a left-to-right matrix word composes the letter
relations right-to-left.  With that convention the combinatorial winding
number (the height of the composed height-zero lifts) agrees with the
circle-map winding number of the same product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (ClosureBudgetExceeded, EllipticAlongWord, HeightUndefined,
                     NoInvariantDirection, NotMonotonic, StructureViolation)
from .fareycomb import farey_interval
from .multicone import CoreSet, component_map
from .projgeom import PI, ProjPoint, cross_ratio, cyclically_ordered
from .sl2core import Mat2, eigen_data
from .symdyn import LETTERS
from .tolerances import DEFAULT, Tolerances
from .twoshift import eval_string


@dataclass(frozen=True)
class CombMulticone:
    """Cyclic set 0..2q-1 split into alternating unstable/stable halves."""

    rank: int
    even_is_u: bool = True

    @property
    def size(self) -> int:
        return 2 * self.rank

    def is_u(self, e: int) -> bool:
        return (e % 2 == 0) == self.even_is_u

    def u_labels(self) -> list[int]:
        return [e for e in range(self.size) if self.is_u(e)]

    def s_labels(self) -> list[int]:
        return [e for e in range(self.size) if not self.is_u(e)]

    def nxt(self, e: int, k: int = 1) -> int:
        return (e + k) % self.size

    def slot(self, e: int) -> int:
        return e // 2

    def u_label(self, slot: int) -> int:
        return 2 * slot + (0 if self.even_is_u else 1)

    def s_label(self, slot: int) -> int:
        return 2 * slot + (1 if self.even_is_u else 0)

    def between(self, a: int, b: int) -> list[int]:
        """Labels strictly inside the positive cyclic interval (a, b)."""
        out = []
        e = self.nxt(a)
        while e != b:
            out.append(e)
            e = self.nxt(e)
        return out

    def count_in(self, a: int, b: int, want_u: bool) -> int:
        """Elements of one parity in the half-open interval [a, b)."""
        if a == b:
            return 0
        n = 1 if self.is_u(a) == want_u else 0
        return n + sum(1 for e in self.between(a, b) if self.is_u(e) == want_u)


@dataclass(frozen=True)
class MonotoneCorr:
    """Monotonic correspondence; maps are stored per slot, values are labels."""

    mc: CombMulticone
    u: tuple[int, ...]  # indexed by u-slot, values are u-labels
    s: tuple[int, ...]  # indexed by s-slot, values are s-labels

    def u_of(self, e: int) -> int:
        return self.u[self.mc.slot(e)]

    def s_of(self, e: int) -> int:
        return self.s[self.mc.slot(e)]

    @property
    def u_image(self) -> frozenset:
        return frozenset(self.u)

    @property
    def s_image(self) -> frozenset:
        return frozenset(self.s)

    @property
    def is_constant(self) -> bool:
        return len(self.u_image) == 1

    def key(self):
        return (self.u, self.s)

    def to_json(self) -> dict:
        return {"u": [self.mc.slot(v) for v in self.u],
                "s": [self.mc.slot(v) for v in self.s]}


def validate(mc: CombMulticone, u_map, s_map) -> MonotoneCorr:
    """Check the local monotonicity rules and return the correspondence."""
    q = mc.rank
    u, s = tuple(u_map), tuple(s_map)
    if len(u) != q or len(s) != q:
        raise NotMonotonic("arity", (len(u), len(s)))
    for v in u:
        if not mc.is_u(v):
            raise NotMonotonic("u-parity", v)
    for v in s:
        if mc.is_u(v):
            raise NotMonotonic("s-parity", v)
    corr = MonotoneCorr(mc=mc, u=u, s=s)
    if len(corr.u_image) != len(corr.s_image):
        raise NotMonotonic("image-count", (len(corr.u_image), len(corr.s_image)))
    s_im, u_im = corr.s_image, corr.u_image
    for x in mc.u_labels():
        y = corr.u_of(x)
        if mc.nxt(x) in s_im:
            if corr.s_of(mc.nxt(y)) != mc.nxt(x):
                raise NotMonotonic("u-diagonal", x)
        elif corr.u_of(mc.nxt(x, 2)) != y:
            raise NotMonotonic("u-horizontal", x)
    for y in mc.s_labels():
        x = corr.s_of(y)
        if mc.nxt(y) in u_im:
            if corr.u_of(mc.nxt(x)) != mc.nxt(y):
                raise NotMonotonic("s-diagonal", y)
        elif corr.s_of(mc.nxt(y, 2)) != x:
            raise NotMonotonic("s-horizontal", y)
    return corr


def identity_corr(mc: CombMulticone) -> MonotoneCorr:
    return MonotoneCorr(mc=mc, u=tuple(mc.u_labels()), s=tuple(mc.s_labels()))


def constant_corr(mc: CombMulticone, a_u: int, a_s: int) -> MonotoneCorr:
    return MonotoneCorr(mc=mc, u=tuple(a_u for _ in range(mc.rank)),
                        s=tuple(a_s for _ in range(mc.rank)))


def compose(c1: MonotoneCorr, c2: MonotoneCorr) -> MonotoneCorr:
    """Relation composition c1 o c2 (paths pass through c1 first)."""
    mc = c1.mc
    u = tuple(c2.u_of(c1.u_of(x)) for x in mc.u_labels())
    s = tuple(c1.s_of(c2.s_of(y)) for y in mc.s_labels())
    return MonotoneCorr(mc=mc, u=u, s=s)


def solve_s_from_u(mc: CombMulticone, u_map) -> MonotoneCorr:
    """The unique monotonic correspondence with the given non-constant u-map."""
    u = tuple(u_map)
    if len(set(u)) == 1:
        raise NotMonotonic("constant-u-underdetermined", u[0])
    s_tab: dict[int, int] = {}
    for x in mc.u_labels():
        y = u[mc.slot(x)]
        y2 = u[mc.slot(mc.nxt(x, 2))]
        if y == y2:
            continue
        for z in mc.between(y, y2):
            if mc.is_u(z):
                continue
            if z in s_tab:
                raise NotMonotonic("u-not-monotone", x)
            s_tab[z] = mc.nxt(x)
    if len(s_tab) != mc.rank:
        raise NotMonotonic("u-not-degree-one", len(s_tab))
    s = tuple(s_tab[mc.s_label(j)] for j in range(mc.rank))
    return validate(mc, u, s)


def all_correspondences(mc: CombMulticone):
    """Every monotonic correspondence on mc (exhaustive; use for small rank)."""
    from itertools import product as iproduct
    for a_u in mc.u_labels():
        for a_s in mc.s_labels():
            yield constant_corr(mc, a_u, a_s)
    for u_map in iproduct(mc.u_labels(), repeat=mc.rank):
        if len(set(u_map)) == 1:
            continue
        try:
            yield solve_s_from_u(mc, u_map)
        except NotMonotonic:
            continue


@dataclass(frozen=True)
class Morphism:
    mc: CombMulticone
    gens: tuple[MonotoneCorr, ...]

    def to_json(self) -> dict:
        return {"rank": self.mc.rank,
                "parity": "even_u" if self.mc.even_is_u else "even_s",
                "gens": [g.to_json() for g in self.gens]}

    @staticmethod
    def from_json(data: dict) -> "Morphism":
        mc = CombMulticone(rank=int(data["rank"]),
                           even_is_u=data.get("parity", "even_u") == "even_u")
        gens = []
        for g in data["gens"]:
            u = tuple(mc.u_label(i) for i in g["u"])
            s = tuple(mc.s_label(i) for i in g["s"])
            gens.append(validate(mc, u, s))
        return Morphism(mc=mc, gens=tuple(gens))


def morphism_hyperbolic(phi: Morphism, budget: int = 10 ** 6) -> tuple[bool, int | None]:
    """(are all long words constant?, least length at which they all are)."""
    if phi.mc.rank == 1:
        return True, 0
    level = {g.key(): g for g in phi.gens}
    seen: set[frozenset] = set()
    total = len(level)
    length = 1
    while True:
        nonconst = frozenset(k for k, c in level.items() if not c.is_constant)
        if not nonconst:
            return True, length
        if nonconst in seen:
            return False, None
        seen.add(nonconst)
        nxt = {}
        for g in phi.gens:
            for c in level.values():
                cc = compose(g, c)
                nxt[cc.key()] = cc
        total += len(nxt)
        if total > budget:
            raise ClosureBudgetExceeded(f"semigroup closure passed {budget} elements")
        level = nxt
        length += 1


def morphism_tight(phi: Morphism) -> bool:
    u_cov, s_cov = set(), set()
    for g in phi.gens:
        u_cov |= g.u_image
        s_cov |= g.s_image
    return u_cov == set(phi.mc.u_labels()) and s_cov == set(phi.mc.s_labels())


def _drop_element(phi: Morphism, x: int, drop_u: bool) -> Morphism:
    """Remove an uncovered element, identifying its two neighbors."""
    mc = phi.mc
    prev, nxt = mc.nxt(x, -1), mc.nxt(x, 1)
    for g in phi.gens:
        f = g.s_of if drop_u else g.u_of
        if f(prev) != f(nxt):
            raise StructureViolation("reduce",
                                     "neighbor maps disagree at an uncovered element")
    survivors = []
    e = mc.nxt(nxt)
    while e != x:
        survivors.append(e)
        e = mc.nxt(e)
    pos = {e: i for i, e in enumerate(survivors)}

    def proj(e: int) -> int:
        return prev if e == nxt else e

    new_mc = CombMulticone(rank=mc.rank - 1, even_is_u=mc.is_u(survivors[0]))
    gens = []
    for g in phi.gens:
        u, s = [], []
        for e in survivors:
            if mc.is_u(e):
                u.append(pos[proj(g.u_of(e))])
            else:
                s.append(pos[proj(g.s_of(e))])
        gens.append(validate(new_mc, tuple(u), tuple(s)))
    return Morphism(mc=new_mc, gens=tuple(gens))


def reduce_tight(phi: Morphism) -> Morphism:
    """Collapse uncovered elements until the morphism is tight."""
    while not morphism_tight(phi):
        u_cov, s_cov = set(), set()
        for g in phi.gens:
            u_cov |= g.u_image
            s_cov |= g.s_image
        missing_u = [e for e in phi.mc.u_labels() if e not in u_cov]
        missing_s = [e for e in phi.mc.s_labels() if e not in s_cov]
        if missing_u:
            phi = _drop_element(phi, missing_u[0], drop_u=True)
        else:
            phi = _drop_element(phi, missing_s[0], drop_u=False)
    return phi


# ---------------------------------------------------------------------------
# induced morphism from cores


def induced_morphism(mats, cores: CoreSet, tol: Tolerances = DEFAULT) -> Morphism:
    """Component incidence of each generator on the core arc systems."""
    arcs = sorted([(a.start.angle, 0, a) for a in cores.u_arcs] +
                  [(a.start.angle, 1, a) for a in cores.s_arcs])
    if len(cores.u_arcs) != len(cores.s_arcs) or not cores.u_arcs:
        raise StructureViolation("induced", "core component counts differ")
    for i in range(len(arcs)):
        if arcs[i][1] == arcs[(i + 1) % len(arcs)][1]:
            raise StructureViolation("induced", "core components do not alternate")
    mc = CombMulticone(rank=len(cores.u_arcs), even_is_u=arcs[0][1] == 0)
    # the j-th arc of each half, in label order, carries slot j
    u_arcs = tuple(a for (_, tag, a) in arcs if tag == 0)
    s_arcs = tuple(a for (_, tag, a) in arcs if tag == 1)
    gens = []
    for m in mats:
        u = (mc.u_label(j) for j in component_map(m, u_arcs, u_arcs, tol))
        s = (mc.s_label(j) for j in component_map(m.inverse(), s_arcs, s_arcs, tol))
        gens.append(validate(mc, tuple(u), tuple(s)))
    return Morphism(mc=mc, gens=tuple(gens))


# ---------------------------------------------------------------------------
# lifted correspondences and winding numbers


@dataclass(frozen=True)
class LiftedCorr:
    """Lift of a monotonic correspondence to the integer line.

    u_hat[slot] is the lifted image of the unstable residue with that slot;
    lifts extend by (2q, 2q)-periodicity.  s_hat[slot] stores the lifted
    first coordinate attached to the stable residue in second position.
    """

    corr: MonotoneCorr
    u_hat: tuple[int, ...]
    s_hat: tuple[int, ...]

    def u_lift(self, x: int) -> int:
        size = self.corr.mc.size
        r = x % size
        return self.u_hat[self.corr.mc.slot(r)] + (x - r)

    def s_lift(self, y: int) -> int:
        size = self.corr.mc.size
        r = y % size
        return self.s_hat[self.corr.mc.slot(r)] + (y - r)


def build_lift(corr: MonotoneCorr) -> LiftedCorr:
    """Unroll the canonical cyclic ordering of the graph once around."""
    mc = corr.mc
    size = mc.size
    u_hat: dict[int, int] = {}
    s_hat: dict[int, int] = {}
    x0 = mc.u_labels()[0]
    X, Y = x0, corr.u_of(x0)
    on_u = True
    for _ in range(size):
        if on_u:
            x, y = X % size, Y % size
            if corr.u_of(x) != y:
                raise StructureViolation("lift", "walk left the graph (u)")
            if mc.slot(x) in u_hat:
                raise StructureViolation("lift", "u-residue visited twice")
            u_hat[mc.slot(x)] = Y - (X - x)
            if mc.nxt(x) in corr.s_image:
                X, Y = X + 1, Y + 1
                on_u = False
            else:
                X, Y = X + 2, Y
        else:
            x, y = X % size, Y % size
            if corr.s_of(y) != x:
                raise StructureViolation("lift", "walk left the graph (s)")
            if mc.slot(y) in s_hat:
                raise StructureViolation("lift", "s-residue visited twice")
            s_hat[mc.slot(y)] = X - (Y - y)
            if mc.nxt(y) in corr.u_image:
                X, Y = X + 1, Y + 1
                on_u = True
            else:
                X, Y = X, Y + 2
    if not (on_u and X == x0 + size and Y == corr.u_of(x0) + size):
        raise StructureViolation("lift", "walk failed to close up")
    if len(u_hat) != mc.rank or len(s_hat) != mc.rank:
        raise StructureViolation("lift", "walk missed residues")
    return LiftedCorr(corr=corr,
                      u_hat=tuple(u_hat[i] for i in range(mc.rank)),
                      s_hat=tuple(s_hat[i] for i in range(mc.rank)))


def _u_fixed_label(corr: MonotoneCorr) -> int:
    e = corr.mc.u_labels()[0]
    for _ in range(corr.mc.size + 1):
        e = corr.u_of(e)
    if corr.u_of(e) != e:
        raise HeightUndefined("u-map has a cycle longer than a fixed point")
    return e


def height(lift: LiftedCorr) -> int:
    size = lift.corr.mc.size
    r = _u_fixed_label(lift.corr)
    d = lift.u_lift(r) - r
    if d % size != 0:
        raise HeightUndefined("diagonal offset is not a period multiple")
    return d // size


def shift_lift(lift: LiftedCorr, h: int) -> LiftedCorr:
    """Translate the relation by (0, -2q h): lowers the height by h."""
    c = lift.corr.mc.size * h
    return LiftedCorr(corr=lift.corr,
                      u_hat=tuple(v - c for v in lift.u_hat),
                      s_hat=tuple(v + c for v in lift.s_hat))


def lift_height_zero(corr: MonotoneCorr) -> LiftedCorr:
    lift = build_lift(corr)
    return shift_lift(lift, height(lift))


def compose_lifts(l1: LiftedCorr, l2: LiftedCorr) -> LiftedCorr:
    """Lift of the relation composition l1 o l2."""
    mc = l1.corr.mc
    corr = compose(l1.corr, l2.corr)
    u_hat = tuple(l2.u_lift(l1.u_lift(r)) for r in mc.u_labels())
    s_hat = tuple(l1.s_lift(l2.s_lift(r)) for r in mc.s_labels())
    return LiftedCorr(corr=corr, u_hat=u_hat, s_hat=s_hat)


def winding_comb(phi: Morphism, word: str) -> int:
    """Height of the composed height-zero generator lifts along the word."""
    if not word:
        return 0
    if phi.mc.rank == 1:
        return 0
    lifts = {}
    for ch in set(word):
        lifts[ch] = lift_height_zero(phi.gens[LETTERS.index(ch)])
    letters = list(word)
    total = lifts[letters[-1]]
    for ch in reversed(letters[:-1]):
        total = compose_lifts(total, lifts[ch])
    return height(total)


def _lift_apply(m: Mat2, fix: float, x: float) -> float:
    k = math.floor(x - fix)
    img = m.act_angle(PI * x) / PI
    frac = (img - fix) % 1.0
    return fix + k + frac


def winding_matrix(mats, word: str) -> int:
    """Winding number via circle-map lifts fixing each generator's axis."""
    if not word:
        return 0
    fixes = []
    for m in mats:
        if m.dist_to_pm_identity() <= DEFAULT.identity:
            raise NoInvariantDirection("+-identity generator has no axis")
        (u, _), _ = eigen_data(m)  # raises for elliptic generators
        fixes.append(u.angle / PI)
    W = eval_string(mats, word)
    if abs(float(W.trace())) < 2.0:
        raise EllipticAlongWord(f"product along {word} is elliptic")
    (uW, _), _ = eigen_data(W)
    x0 = uW.angle / PI
    X = x0
    for ch in reversed(word):
        i = LETTERS.index(ch)
        X = _lift_apply(mats[i], fixes[i], X)
    n = X - x0
    r = round(n)
    if abs(n - r) > 1e-6:
        raise StructureViolation("winding", f"lift displacement {n} is not integral")
    return int(r)


# ---------------------------------------------------------------------------
# classification of tight hyperbolic two-generator morphisms


class _NotPositive(Exception):
    pass


def reflect(phi: Morphism) -> Morphism:
    """Reverse the cyclic orientation of the combinatorial multicone."""
    mc = phi.mc
    size = mc.size

    def r(e: int) -> int:
        return (-e) % size

    order = [r(i) for i in range(size)]  # new label i corresponds to old r(i)
    pos = {e: i for i, e in enumerate(order)}
    new_mc = CombMulticone(rank=mc.rank, even_is_u=mc.is_u(order[0]))
    gens = []
    for g in phi.gens:
        u, s = [], []
        for e in order:
            if mc.is_u(e):
                u.append(pos[g.u_of(e)])
            else:
                s.append(pos[g.s_of(e)])
        gens.append(validate(new_mc, tuple(u), tuple(s)))
    return Morphism(mc=new_mc, gens=tuple(gens))


def _s_fixed_label(corr: MonotoneCorr) -> int:
    e = corr.mc.s_labels()[0]
    for _ in range(corr.mc.size + 1):
        e = corr.s_of(e)
    if corr.s_of(e) != e:
        raise HeightUndefined("s-map has a cycle longer than a fixed point")
    return e


def _collapse_pair(mc: CombMulticone, f1, f2, labels) -> tuple[int, int]:
    pairs = []
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            if f1(a) == f1(b) and f2(a) == f2(b):
                pairs.append((a, b))
    if len(pairs) != 1:
        raise StructureViolation("collapse-pair",
                                 f"expected a unique pair, found {len(pairs)}")
    return pairs[0]


def _orient_pair(mc: CombMulticone, pair, im_first, im_second,
                 want_u: bool) -> tuple[int, int]:
    """Order the pair so im_first fills the inside of (first, second)."""
    a, b = pair
    for first, second in ((a, b), (b, a)):
        inside = {e for e in mc.between(first, second) if mc.is_u(e) == want_u}
        outside = {e for e in mc.between(second, first) if mc.is_u(e) == want_u}
        if inside == set(im_first) and outside == set(im_second):
            return first, second
    raise StructureViolation("image-interval",
                             "generator images are not complementary intervals")


def _reduce_level(phi: Morphism, xs0: int, xs1: int) -> Morphism:
    """Peel one regeneration level: restrict to Im A_u, collapse the s-block."""
    mc = phi.mc
    A, B = phi.gens
    block = [xs1] + mc.between(xs1, xs0) + [xs0]
    block_s = [e for e in block if not mc.is_u(e)]
    vals = {A.s_of(e) for e in block_s}
    if len(vals) != 1:
        raise StructureViolation("reduce-level",
                                 "first generator is not constant on the block")
    survivors = [e for e in mc.between(xs0, xs1)]
    order = [xs1] + survivors  # xs1 stands for the merged block point
    pos = {e: i for i, e in enumerate(order)}

    def proj(e: int) -> int:
        return xs1 if e in block_s else e

    new_mc = CombMulticone(rank=len(order) // 2, even_is_u=mc.is_u(order[0]))
    u_a, s_a, u_b, s_b = [], [], [], []
    for e in order:
        if mc.is_u(e):
            u_a.append(pos[A.u_of(e)])
            u_b.append(pos[A.u_of(B.u_of(e))])
        else:
            src = xs0 if e == xs1 else e  # any block member represents the merge
            s_a.append(pos[proj(A.s_of(src))])
            s_b.append(pos[proj(B.s_of(A.s_of(src)))])
    A2 = validate(new_mc, tuple(u_a), tuple(s_a))
    B2 = validate(new_mc, tuple(u_b), tuple(s_b))
    return Morphism(mc=new_mc, gens=(A2, B2))


def _positive_fraction(phi: Morphism) -> Fraction:
    mc = phi.mc
    q = mc.rank
    A, B = phi.gens
    fix_au = _u_fixed_label(A)
    fix_bs = _s_fixed_label(B)
    if mc.nxt(fix_au) != fix_bs:
        raise _NotPositive
    if q == 2:
        if not (A.is_constant and B.is_constant):
            raise StructureViolation("rank-2", "generators must both be constant")
        return Fraction(1, 2)

    p = len(B.u_image)
    swapped = False
    if 2 * p > q:
        A, B = B, A
        p = q - p
        swapped = True
        fix_au = _u_fixed_label(A)
        fix_bs = _s_fixed_label(B)
        if mc.nxt(fix_au) != fix_bs:
            raise _NotPositive

    xs_pair = _collapse_pair(mc, A.s_of, B.s_of, mc.s_labels())
    xu_pair = _collapse_pair(mc, A.u_of, B.u_of, mc.u_labels())
    xs0, xs1 = _orient_pair(mc, xs_pair, A.u_image, B.u_image, want_u=True)
    xu1, xu0 = _orient_pair(mc, xu_pair, A.s_image, B.s_image, want_u=False)

    reduced = _reduce_level(Morphism(mc, (A, B)), xs0, xs1)
    f_sub = _positive_fraction(reduced)          # = p / (q - p)
    f = Fraction(f_sub.numerator, f_sub.numerator + f_sub.denominator)
    if f.numerator != p or f.denominator != q:
        raise StructureViolation("fraction",
                                 f"recursion produced {f}, expected {p}/{q}")
    p0bar = mc.count_in(xu0, fix_au, want_u=True)
    q0bar = p0bar + mc.count_in(xs0, fix_bs, want_u=False)
    f0, _ = farey_interval(f)
    if (p0bar, q0bar) != (f0.numerator, f0.denominator):
        raise StructureViolation(
            "farey", f"bookkeeping ({p0bar},{q0bar}) != parent {f0}")
    return 1 - f if swapped else f


def classify_two_morphism(phi: Morphism) -> tuple[Fraction | None, int]:
    """Fraction and orientation of the unique realizing component (N = 2)."""
    if len(phi.gens) != 2:
        raise StructureViolation("arity", "exactly two generators required")
    hyp, _ = morphism_hyperbolic(phi)
    if not hyp or not morphism_tight(phi):
        raise StructureViolation("precondition", "morphism must be tight and hyperbolic")
    if phi.mc.rank == 1:
        return None, +1
    try:
        return _positive_fraction(phi), +1
    except _NotPositive:
        pass
    try:
        return _positive_fraction(reflect(phi)), -1
    except _NotPositive:
        raise StructureViolation("orientation",
                                 "morphism is positive in neither orientation")


# ---------------------------------------------------------------------------
# cross-ratio obstruction and the stock non-realizable morphism


def cross_ratio_decreasing(a1: ProjPoint, a: ProjPoint, b: ProjPoint,
                           b1: ProjPoint, c1: ProjPoint, c: ProjPoint,
                           d: ProjPoint, d1: ProjPoint) -> bool:
    """For points in cyclic order a' a b b' c' c d d': [a',b',c',d'] < [a,b,c,d]."""
    if not cyclically_ordered((a1, a, b, b1, c1, c, d, d1)):
        raise StructureViolation("cross-ratio", "points are not in the stated order")
    return cross_ratio(a1, b1, c1, d1) < cross_ratio(a, b, c, d)


_NR_ORDER = ("alpha", "a", "b", "omega", "c", "d", "beta", "beta_p", "d_p",
             "o", "a_p", "omega_p", "b_p", "c_p", "alpha_p")

_NR_A_U = {"alpha": "omega", "a": "beta", "b": "alpha"}  # everything else -> omega
_NR_B_U = {"alpha": "a_p", "a": "a_p", "b": "b_p", "omega": "c_p", "c": "c_p",
           "d": "d_p", "beta": "d_p", "beta_p": "o", "d_p": "o", "o": "o",
           "a_p": "o", "omega_p": "o", "b_p": "o", "c_p": "o", "alpha_p": "o"}
_NR_C_U = {"b_p": "alpha_p", "c_p": "beta_p"}            # everything else -> omega_p


def nonrealizable_fixture(n_gens: int | None = None) -> Morphism:
    """The rank-15 three-generator morphism with no matrix realization.

    The three unstable maps are hard data; their stable halves are the unique
    monotonic completions, and constant generators are appended to cover the
    remaining elements so the morphism is tight.
    """
    q = len(_NR_ORDER)
    mc = CombMulticone(rank=q, even_is_u=True)
    idx = {name: 2 * i for i, name in enumerate(_NR_ORDER)}

    def table(special: dict, default: str | None) -> tuple[int, ...]:
        out = []
        for name in _NR_ORDER:
            out.append(idx[special.get(name, default)])
        return tuple(out)

    gen_a = solve_s_from_u(mc, table(_NR_A_U, "omega"))
    gen_b = solve_s_from_u(mc, table(_NR_B_U, None))
    gen_c = solve_s_from_u(mc, table(_NR_C_U, "omega_p"))

    gens = [gen_a, gen_b, gen_c]
    u_cov = set().union(*(g.u_image for g in gens))
    s_cov = set().union(*(g.s_image for g in gens))
    u_unc = [e for e in mc.u_labels() if e not in u_cov]
    s_unc = [e for e in mc.s_labels() if e not in s_cov]
    k = max(len(u_unc), len(s_unc))
    for i in range(k):
        a_u = u_unc[i] if i < len(u_unc) else mc.u_labels()[0]
        a_s = s_unc[i] if i < len(s_unc) else mc.s_labels()[0]
        gens.append(constant_corr(mc, a_u, a_s))
    if n_gens is not None:
        while len(gens) < n_gens:
            gens.append(constant_corr(mc, mc.u_labels()[0], mc.s_labels()[0]))
    return Morphism(mc=mc, gens=tuple(gens))
