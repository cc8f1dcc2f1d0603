"""Combinatorial multicone dynamics: monotonic correspondences on a cyclic set.

A pair of combinatorial multicones is a cyclically ordered set of 2q points
alternating between a stable half and an unstable half.  A monotonic
correspondence carries a forward map on the unstable half and a backward map
on the stable half whose joint graph admits a compatible cyclic ordering;
the local rules checked here are

  for each unstable x with image y = C_u(x):
      x+ in Im C_s   =>  C_s(y+) = x+       (the graph turns diagonally)
      x+ not in Im C_s  =>  C_u(x++) = y    (the graph continues horizontally)

and dually on the stable half.  Relation composition makes these a monoid
(tests/reference.py composes them, and reduces a morphism to a tight one);
note (C o C')_u = C'_u o C_u while (C o C')_s = C_s o C'_s, so the
correspondence attached to a left-to-right matrix word composes the letter
relations right-to-left.  The winding number of a word is read off
circle-map lifts of the matrices (winding_matrix); the tests check it against
the height of the composed lifts of the correspondences (tests/lifts.py).

multicone and fareycomb are imported inside the three functions that read
them (induced_morphism, morphism_hyperbolic, _model_morphism), so that the
calculus and winding_matrix, which the `winding` subcommand runs, load
neither module, and the word product comes from symdyn, not twoshift: a
CLI process compiles what it imports, on every call.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from ._record import Record
from .errors import (EllipticAlongWord, HeightUndefined, NoInvariantDirection,
                     NotMonotonic, StructureViolation)
from .projgeom import PI
from .sl2core import Mat2, check_finite, eigen_data, is_pm_identity
from .symdyn import LETTERS, eval_string


class CombMulticone(Record):
    """Cyclic set 0..2q-1 (q the rank) split into alternating unstable/stable
    halves."""

    __slots__ = ("rank", "even_is_u")
    _defaults = {"even_is_u": True}

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


class MonotoneCorr(Record):
    """Monotonic correspondence on the CombMulticone mc; maps are stored per
    slot, values are labels."""

    __slots__ = ("mc",
                 "u",   # indexed by u-slot, values are u-labels
                 "s")   # indexed by s-slot, values are s-labels

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


def constant_corr(mc: CombMulticone, a_u: int, a_s: int) -> MonotoneCorr:
    return MonotoneCorr(mc=mc, u=tuple(a_u for _ in range(mc.rank)),
                        s=tuple(a_s for _ in range(mc.rank)))


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


class Morphism(Record):
    """One MonotoneCorr per generator (gens) on the CombMulticone mc."""

    __slots__ = ("mc", "gens")


def morphism_hyperbolic(phi: Morphism) -> tuple[bool, int | None]:
    """(are all long words constant?, least length at which they all are).

    Constancy reads only the u-half, and a non-constant monotonic
    correspondence's s-half is fixed by its u-half (solve_s_from_u), so the
    u-maps alone give the level sets, the cycle and the length that the full
    correspondences give; eventual_constancy decides them on the pair graph.
    """
    from .multicone import eventual_constancy
    if phi.mc.rank == 1:
        return True, 0
    slot = phi.mc.slot
    ok, length = eventual_constancy([tuple(slot(v) for v in g.u) for g in phi.gens])
    return (True, length) if ok else (False, None)


def _uncovered(mc: CombMulticone, gens) -> tuple[list[int], list[int]]:
    """The U and S labels no generator's image covers, in label order."""
    u_cov = set().union(*(g.u_image for g in gens))
    s_cov = set().union(*(g.s_image for g in gens))
    return ([e for e in mc.u_labels() if e not in u_cov],
            [e for e in mc.s_labels() if e not in s_cov])


def morphism_tight(phi: Morphism) -> bool:
    return _uncovered(phi.mc, phi.gens) == ([], [])


# ---------------------------------------------------------------------------
# induced morphism from cores


def induced_morphism(mats, cores) -> Morphism:
    """Component incidence of each generator on the core arc systems (a
    multicone.CoreSet), read from the cores' shared action."""
    check_finite(mats)
    from .multicone import CoreSet, alternation
    arcs, defect = alternation(cores.u_arcs, cores.s_arcs)
    if defect == "counts":
        raise StructureViolation("induced", "core component counts differ")
    if defect == "order":
        raise StructureViolation("induced", "core components do not alternate")
    mc = CombMulticone(rank=len(cores.u_arcs), even_is_u=arcs[0][1] == 0)
    # the j-th arc of each half, in label order, carries slot j: arcs not
    # sorted by start (never so from the library) get a CoreSet of their own
    u_arcs = tuple(a for (_, tag, a) in arcs if tag == 0)
    s_arcs = tuple(a for (_, tag, a) in arcs if tag == 1)
    if u_arcs != cores.u_arcs or s_arcs != cores.s_arcs:
        cores = CoreSet(u_arcs=u_arcs, s_arcs=s_arcs)
    gens = []
    for m in mats:
        u = tuple(mc.u_label(j) for j in cores.action(m))
        s = tuple(mc.s_label(j) for j in cores.action(m, stable=True))
        gens.append(validate(mc, u, s))
    return Morphism(mc=mc, gens=tuple(gens))


# ---------------------------------------------------------------------------
# winding number


def _lift_apply(m: Mat2, fix: float, x: float) -> float:
    k = math.floor(x - fix)
    img = m.act_angle(PI * x) / PI
    frac = (img - fix) % 1.0
    return fix + k + frac


def winding_matrix(mats, word: str) -> int:
    """Winding number via circle-map lifts fixing each generator's axis."""
    check_finite(mats)
    if not word:
        return 0
    fixes = []
    for m in mats:
        if is_pm_identity(m):
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


@functools.cache
def _model_morphism(f: Fraction) -> Morphism:
    """The positive model of the component p/q, read off fareycomb.

    U slot j is the j-th center word of the plus order (labels 2j are U,
    2j + 1 are S), and each generator's u-map is its action table.  A
    non-constant u-map fixes its s-half (solve_s_from_u); a constant
    generator takes the one s-label the other's s-image misses, as tightness
    forces.  At rank 2 both are constant, and B's s-label follows A's u-label.
    Cached per fraction, which is safe as a Morphism is frozen.
    """
    from .fareycomb import action_table, build_order
    mc = CombMulticone(rank=f.denominator)
    centers = [fw.word for fw in reversed(build_order(f).order) if fw.tag == "center"]
    label = {w: mc.u_label(j) for j, w in enumerate(centers)}
    table = action_table(f)
    u_maps = [tuple(label[table[w][g][0]] for w in centers) for g in "AB"]
    gens = [solve_s_from_u(mc, u) if len(set(u)) > 1 else None for u in u_maps]
    if gens == [None, None]:
        gens[1] = constant_corr(mc, u_maps[1][0], mc.nxt(u_maps[0][0]))
    for i, g in enumerate(gens):
        if g is None:
            missing, = set(mc.s_labels()) - gens[1 - i].s_image
            gens[i] = constant_corr(mc, u_maps[i][0], missing)
    return Morphism(mc=mc, gens=tuple(gens))


def _u_fixed_label(corr: MonotoneCorr) -> int:
    e = corr.mc.u_labels()[0]
    for _ in range(corr.mc.size + 1):
        e = corr.u_of(e)
    if corr.u_of(e) != e:
        raise HeightUndefined("u-map has a cycle longer than a fixed point")
    return e


def _matches(phi: Morphism, model: Morphism) -> bool:
    """Is phi the model after the label shift carrying A's fixed u-label
    onto the model's?  Both are U labels, so the shift keeps the parity."""
    mc, size = model.mc, model.mc.size
    d = _u_fixed_label(model.gens[0]) - _u_fixed_label(phi.gens[0])
    for g, h in zip(phi.gens, model.gens):
        u = tuple((g.u_of((e - d) % size) + d) % size for e in mc.u_labels())
        s = tuple((g.s_of((e - d) % size) + d) % size for e in mc.s_labels())
        if (u, s) != (h.u, h.s):
            return False
    return True


def classify_two_morphism(phi: Morphism) -> tuple[Fraction | None, int]:
    """Fraction and orientation of the unique realizing component (N = 2).

    The fraction is p/q with p = |Im B_u| and q the rank.  phi names the
    component p/q with orientation +1 if it is the positive model of p/q
    (_model_morphism) up to a rotation of the labels, and -1 if its
    reflection is; anything else raises StructureViolation.  Rank 1 has one
    component, named (None, +1).
    """
    if len(phi.gens) != 2:
        raise StructureViolation("arity", "exactly two generators required")
    hyp, _ = morphism_hyperbolic(phi)
    if not hyp or not morphism_tight(phi):
        raise StructureViolation("precondition", "morphism must be tight and hyperbolic")
    q = phi.mc.rank
    if q == 1:
        return None, +1
    p = len(phi.gens[1].u_image)
    if math.gcd(p, q) != 1:
        raise StructureViolation("fraction", f"|Im B_u| = {p} is not prime to rank {q}")
    f = Fraction(p, q)
    model = _model_morphism(f)
    if _matches(phi, model):
        return f, +1
    if _matches(reflect(phi), model):
        return f, -1
    raise StructureViolation("model", f"morphism is not the model of {f} in either orientation")
