"""Lifted correspondences: the combinatorial winding number, as a reference.

The library's winding number is `corrdyn.winding_matrix`, read off circle-map
lifts of the matrices.  This module computes the same number from the
morphism alone: each generator's correspondence is lifted to the integer
line, shifted to height zero, and the lifts are composed along the word;
the height of the composition is the winding number.  c08 and
`test_corrdyn.py` check that the two agree.

Relation composition reverses the unstable maps, (C o C')_u = C'_u o C_u,
so the lifts of a left-to-right matrix word compose right-to-left.
"""

from __future__ import annotations

from dataclasses import dataclass

from hypercone.corrdyn import MonotoneCorr, Morphism, _u_fixed_label
from hypercone.errors import HeightUndefined, StructureViolation
from hypercone.symdyn import LETTERS
from tests.reference import compose


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
