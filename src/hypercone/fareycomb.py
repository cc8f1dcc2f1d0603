"""Rotation-word combinatorics and the explicit core model of 2-shift components.

Words over {A, B} of rotation number p/q are generated by coding the orbit of
rigid rotation by p/q: theta(x) = 'A' on [0, 1 - p/q) and 'B' on [1 - p/q, 1),
and Theta(x) reads q consecutive codes.  The set of the q words so obtained
is closed under cyclic permutation; Theta(0) is lexicographically first and
Theta(1 - 1/q) last.

The cyclic order on the 2q-element family (the q center words together with
the q words of the two Farey parents) is built from the neighbor rules: for
the orbit positions x = R^i(0) forward and backward, the successor and
predecessor of Theta(x) are the corresponding parent words, the forward rules
reading in the p1/q1 parent and the backward rules in the p0/q0 parent.  The
emitted sequence starts at Theta(1 - 1/q) and runs so that the parent word
printed after each center word is its order-predecessor (matching the usual
picture of the circle with labels read clockwise).

The core model of a component evaluates the family words on the pair and
assembles the unstable/stable arc systems

    I_u(w) = [u(w^-), u(w)]   and   I_s(w) = [s(w), s(w^+)]

over the center words w, together with the symbolic action table: a generator
acts exactly on the center words ending with its letter (cyclically shifting
the final letter to the front) and absorbs all others into its sink word
Theta(0) (for A) or Theta(1 - p/q) (for B).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadBasePoint, NotInterior, OrderViolation
from .multicone import CoreSet
from .projgeom import ArcP1, ProjPoint, angle_gap
from .sl2core import Mat2, eigen_data
from .twoshift import eval_string, fword_substitution
from .tolerances import DEFAULT, Tolerances


def farey_interval(f: Fraction) -> tuple[Fraction, Fraction]:
    """The unique parents (p0/q0, p1/q1) with p0+p1 = p, q0+q1 = q, p1 q0 - p0 q1 = 1."""
    p, q = f.numerator, f.denominator
    if not 0 < p < q:
        raise NotInterior(f"{f} has no Farey parents")
    q1 = (-pow(p, -1, q)) % q
    if q1 == 0:
        q1 = q  # unreachable for interior fractions; guard
    p1 = (1 + p * q1) // q
    p0, q0 = p - p1, q - q1
    left, right = Fraction(p0, q0), Fraction(p1, q1)
    assert p1 * q0 - p0 * q1 == 1
    return left, right


@dataclass(frozen=True)
class RotWord:
    letters: str
    base: Fraction
    rotation: Fraction

    def __str__(self) -> str:
        return self.letters


def rotation_orbit_word(f: Fraction, start: Fraction) -> RotWord:
    """The coded orbit word Theta(start) of length q."""
    p, q = f.numerator, f.denominator
    if q == 1:
        return RotWord(letters="A" if p == 0 else "B", base=Fraction(0),
                       rotation=f)
    start = Fraction(start) % 1
    if (start * q).denominator != 1:
        raise BadBasePoint(f"start {start} is not a multiple of 1/{q}")
    threshold = 1 - f
    out = []
    x = start
    for _ in range(q):
        out.append("A" if x < threshold else "B")
        x = (x + f) % 1
    return RotWord(letters="".join(out), base=start, rotation=f)


def orbit_words(f: Fraction) -> list[RotWord]:
    """All q rotation words of f, by base point 0, 1/q, ..., (q-1)/q."""
    q = f.denominator
    if q == 1:
        return [rotation_orbit_word(f, Fraction(0))]
    return [rotation_orbit_word(f, Fraction(i, q)) for i in range(q)]


@dataclass(frozen=True)
class FamilyWord:
    word: str
    tag: str  # "center", "parent0", "parent1"


@dataclass(frozen=True)
class OrderedFamily:
    """The 2q-element cyclic order, emitted from Theta(1 - 1/q)."""

    fraction: Fraction
    parents: tuple[Fraction, Fraction]
    order: tuple[FamilyWord, ...]
    lex_first: str   # Theta(0)
    lex_last: str    # Theta(1 - 1/q)

    def words(self) -> list[str]:
        return [fw.word for fw in self.order]


def build_order(f: Fraction) -> OrderedFamily:
    p, q = f.numerator, f.denominator
    f0, f1 = farey_interval(f)
    q0, q1 = f0.denominator, f1.denominator

    def theta(frac: Fraction, x: Fraction) -> str:
        return rotation_orbit_word(frac, x).letters

    def step(frac: Fraction, x: Fraction, k: int) -> Fraction:
        return (x + k * frac) % 1

    last_base = Fraction(q - 1, q)          # base of Theta(1 - 1/q)
    last0 = Fraction(q0 - 1, q0) if q0 > 1 else Fraction(0)
    last1 = Fraction(q1 - 1, q1) if q1 > 1 else Fraction(0)

    succ: dict[str, str] = {}
    pred: dict[str, str] = {}
    tag_of: dict[str, str] = {}
    for i in range(q1):
        w = theta(f, step(f, Fraction(0), i))
        w_to = theta(f1, step(f1, Fraction(0), i))
        succ[w] = w_to
        tag_of[w_to] = "parent1"
    for i in range(q0):
        w = theta(f, step(f, last_base, i))
        w_to = theta(f0, step(f0, last0, i))
        succ[w] = w_to
        tag_of[w_to] = "parent0"
    for i in range(q0):
        w = theta(f, step(f, Fraction(0), -i))
        pred[w] = theta(f0, step(f0, Fraction(0), -i))
    for i in range(q1):
        w = theta(f, step(f, last_base, -i))
        pred[w] = theta(f1, step(f1, last1, -i))

    succ_inv = {v: k for k, v in succ.items()}
    emitted: list[FamilyWord] = []
    w = theta(f, last_base)
    for _ in range(q):
        emitted.append(FamilyWord(word=w, tag="center"))
        parent = pred[w]
        emitted.append(FamilyWord(word=parent, tag=tag_of[parent]))
        w = succ_inv[parent]
    if w != theta(f, last_base):
        raise OrderViolation("family order failed to close up")
    return OrderedFamily(fraction=f, parents=(f0, f1), order=tuple(emitted),
                         lex_first=theta(f, Fraction(0)),
                         lex_last=theta(f, last_base))


def j_of_fword(fword: str) -> Fraction:
    """Rotation number of the component with the given sign word."""
    wa, wb = fword_substitution(fword)
    w = wa + wb
    return Fraction(w.count("B"), len(w))


def special_words(f: Fraction) -> dict:
    """The four threshold words of the action table."""
    p, q = f.numerator, f.denominator
    return {
        "last_ending_a": rotation_orbit_word(f, Fraction(p, q)).letters,
        "last_ending_b": rotation_orbit_word(f, Fraction(p - 1, q) % 1).letters,
        "a_sink": rotation_orbit_word(f, Fraction(0)).letters,
        "b_sink": rotation_orbit_word(f, (1 - f) % 1).letters,
    }


def action_table(f: Fraction) -> dict:
    """word -> per-generator (target word, exact?) for the center words.

    A generator acts exactly on words ending with its own letter by moving
    that letter to the front (base point x -> x - p/q); every other word is
    absorbed into the generator's sink component.
    """
    sw = special_words(f)
    table: dict[str, dict[str, tuple[str, bool]]] = {}
    for rw in orbit_words(f):
        w = rw.letters
        x = rw.base
        shifted = rotation_orbit_word(f, (x - f) % 1).letters
        row = {}
        if w.endswith("A"):
            row["A"] = (shifted, w != sw["last_ending_a"])
            row["B"] = (sw["b_sink"], False)
        else:
            row["A"] = (sw["a_sink"], False)
            row["B"] = (shifted, w != sw["last_ending_b"])
        table[w] = row
    return table


@dataclass(frozen=True)
class ComponentModel:
    fraction: Fraction
    orientation: int
    family: OrderedFamily
    cores: CoreSet
    table: dict
    u_points: dict   # word -> ProjPoint
    s_points: dict

    def to_json(self) -> dict:
        return {
            "fraction": f"{self.fraction.numerator}/{self.fraction.denominator}",
            "orientation": "positive" if self.orientation > 0 else "negative",
            "order": [fw.word for fw in self.family.order],
            "cores": self.cores.to_json(),
            "action": {w: {g: {"to": t, "exact": e} for g, (t, e) in row.items()}
                       for w, row in self.table.items()},
        }


def _family_point_order_ok(family: OrderedFamily, u_pts, s_pts,
                           reverse: bool) -> bool:
    """Check the expected interleaving of u/s points along the family order."""
    seq = []
    plus_order = [fw for fw in reversed(family.order)]
    for fw in plus_order:
        if fw.tag == "center":
            seq.append(u_pts[fw.word].angle)
            seq.append(s_pts[fw.word].angle)
        else:
            seq.append(s_pts[fw.word].angle)
            seq.append(u_pts[fw.word].angle)
    if reverse:
        seq = [(-a) for a in seq]
    base = seq[0]
    gaps = [angle_gap(base, a) for a in seq[1:]]
    return all(gaps[i] < gaps[i + 1] for i in range(len(gaps) - 1)) and \
        all(g > 0 for g in gaps)


def component_model(A: Mat2, B: Mat2, fword: str,
                    tol: Tolerances = DEFAULT) -> ComponentModel:
    """Cores and action table of the component containing (A, B).

    The pair must classify into the component with the given sign word (with
    both traces normalized positive); the computed directions are checked
    against the combinatorial cyclic order and an OrderViolation signals a
    misclassified or near-boundary pair.
    """
    f = j_of_fword(fword)
    family = build_order(f)
    mats = (A, B)

    u_pts: dict[str, ProjPoint] = {}
    s_pts: dict[str, ProjPoint] = {}
    for fw in family.order:
        m = eval_string(mats, fw.word)
        if abs(float(m.trace())) <= 2.0:
            raise OrderViolation(f"family word {fw.word} is not hyperbolic")
        (u, _), (s, _) = eigen_data(m)
        u_pts[fw.word] = u
        s_pts[fw.word] = s

    if _family_point_order_ok(family, u_pts, s_pts, reverse=False):
        orientation = +1
    elif _family_point_order_ok(family, u_pts, s_pts, reverse=True):
        orientation = -1
    else:
        raise OrderViolation("computed directions violate the family order")

    plus_order = [fw for fw in reversed(family.order)]
    u_arcs, s_arcs = [], []
    n = len(plus_order)
    for i, fw in enumerate(plus_order):
        if fw.tag != "center":
            continue
        prev_word = plus_order[(i - 1) % n].word
        next_word = plus_order[(i + 1) % n].word
        if orientation > 0:
            u_arcs.append(ArcP1(u_pts[prev_word], u_pts[fw.word]))
            s_arcs.append(ArcP1(s_pts[fw.word], s_pts[next_word]))
        else:
            u_arcs.append(ArcP1(u_pts[fw.word], u_pts[prev_word]))
            s_arcs.append(ArcP1(s_pts[next_word], s_pts[fw.word]))
    cores = CoreSet(u_arcs=tuple(sorted(u_arcs, key=lambda a: a.start.angle)),
                    s_arcs=tuple(sorted(s_arcs, key=lambda a: a.start.angle)))
    return ComponentModel(fraction=f, orientation=orientation, family=family,
                          cores=cores, table=action_table(f),
                          u_points=u_pts, s_points=s_pts)
