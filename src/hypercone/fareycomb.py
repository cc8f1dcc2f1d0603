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
the final letter to the front, base point x -> x - p/q) and absorbs all others
into its sink word, Theta(0) for A and Theta(1 - 1/q) for B.  The last word
ending with each letter, Theta(p/q) for A and Theta((p - 1)/q) for B, shifts
onto that letter's sink, so its entry is not exact.

Base points are integer indices: Theta(k/q) reads the codes of k, k + p,
k + 2p, ... mod q, and stepping along the orbit adds multiples of p mod q.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .errors import NotInterior, OrderViolation
from .projgeom import ArcP1, ProjPoint, cyclically_ordered
from .sl2core import Mat2, eigen_data, integer_scaled
from .symdyn import LETTERS

# multicone and twoshift are imported where they are used, so that the
# combinatorics (build_order, action_table) load neither


def farey_interval(f: Fraction) -> tuple[Fraction, Fraction]:
    """The unique parents (p0/q0, p1/q1) with p0+p1 = p, q0+q1 = q, p1 q0 - p0 q1 = 1."""
    p, q = f.numerator, f.denominator
    if not 0 < p < q:
        raise NotInterior(f"{f} has no Farey parents")
    q1 = (-pow(p, -1, q)) % q  # in 1..q-1: p is a unit mod q >= 2
    p1 = (1 + p * q1) // q
    p0, q0 = p - p1, q - q1
    left, right = Fraction(p0, q0), Fraction(p1, q1)
    assert p1 * q0 - p0 * q1 == 1
    return left, right


def _theta(p: int, q: int, k: int) -> str:
    """Letters of Theta(k/q) for rotation p/q, for any integer k."""
    # x = k/q codes 'A' while x < 1 - p/q, i.e. k < q - p; x + p/q is k + p
    return "".join("A" if (k + i * p) % q < q - p else "B" for i in range(q))


class FamilyWord(Record):
    __slots__ = ("word",
                 "tag")  # "center", "parent0", "parent1"


class OrderedFamily(Record):
    """The 2q-element cyclic order of FamilyWords, emitted from Theta(1 - 1/q)."""

    __slots__ = ("fraction",
                 "parents",    # the two Farey parents
                 "order",
                 "lex_first",  # Theta(0)
                 "lex_last")   # Theta(1 - 1/q)

    def words(self) -> list[str]:
        return [fw.word for fw in self.order]


def build_order(f: Fraction) -> OrderedFamily:
    p, q = f.numerator, f.denominator
    f0, f1 = farey_interval(f)
    p0, q0 = f0.numerator, f0.denominator
    p1, q1 = f1.numerator, f1.denominator

    # base indices: Theta(1 - 1/q) is index q - 1, and so for the parents
    succ: dict[str, str] = {}
    pred: dict[str, str] = {}
    tag_of: dict[str, str] = {}
    for i in range(q1):
        w_to = _theta(p1, q1, i * p1)
        succ[_theta(p, q, i * p)] = w_to
        tag_of[w_to] = "parent1"
    for i in range(q0):
        w_to = _theta(p0, q0, q0 - 1 + i * p0)
        succ[_theta(p, q, q - 1 + i * p)] = w_to
        tag_of[w_to] = "parent0"
    for i in range(q0):
        pred[_theta(p, q, -i * p)] = _theta(p0, q0, -i * p0)
    for i in range(q1):
        pred[_theta(p, q, q - 1 - i * p)] = _theta(p1, q1, q1 - 1 - i * p1)

    succ_inv = {v: k for k, v in succ.items()}
    emitted: list[FamilyWord] = []
    last = w = _theta(p, q, q - 1)
    for _ in range(q):
        emitted.append(FamilyWord(word=w, tag="center"))
        parent = pred[w]
        emitted.append(FamilyWord(word=parent, tag=tag_of[parent]))
        w = succ_inv[parent]
    if w != last:
        raise OrderViolation("family order failed to close up")
    return OrderedFamily(fraction=f, parents=(f0, f1), order=tuple(emitted),
                         lex_first=_theta(p, q, 0), lex_last=last)


def j_of_fword(fword: str) -> Fraction:
    """Rotation number of the component with the given sign word."""
    from .twoshift import fword_substitution
    wa, wb = fword_substitution(fword)
    w = wa + wb
    return Fraction(w.count("B"), len(w))


def special_words(f: Fraction) -> dict:
    """The four threshold words of the action table."""
    p, q = f.numerator, f.denominator
    return {
        "last_ending_a": _theta(p, q, p),
        "last_ending_b": _theta(p, q, p - 1),
        "a_sink": _theta(p, q, 0),
        "b_sink": _theta(p, q, q - 1),
    }


def action_table(f: Fraction) -> dict:
    """word -> per-generator (target word, exact?) for the center words.

    A generator acts exactly on words ending with its own letter by moving
    that letter to the front (base index k -> k - p); every other word is
    absorbed into the generator's sink component.
    """
    p, q = f.numerator, f.denominator
    sw = special_words(f)
    table: dict[str, dict[str, tuple[str, bool]]] = {}
    for k in range(q):
        w = _theta(p, q, k)
        shifted = _theta(p, q, k - p)
        if w.endswith("A"):
            table[w] = {"A": (shifted, w != sw["last_ending_a"]),
                        "B": (sw["b_sink"], False)}
        else:
            table[w] = {"A": (sw["a_sink"], False),
                        "B": (shifted, w != sw["last_ending_b"])}
    return table


class ComponentModel(Record):
    __slots__ = ("fraction", "orientation", "family", "cores", "table",
                 "u_points",   # word -> ProjPoint
                 "s_points")


def _family_point_order_ok(family: OrderedFamily, u_pts, s_pts,
                           reverse: bool) -> bool:
    """Check the expected interleaving of u/s points along the family order."""
    seq = []
    for fw in reversed(family.order):
        if fw.tag == "center":
            seq.append(u_pts[fw.word].angle)
            seq.append(s_pts[fw.word].angle)
        else:
            seq.append(s_pts[fw.word].angle)
            seq.append(u_pts[fw.word].angle)
    return cyclically_ordered([-a for a in seq] if reverse else seq)


def _family_products(mats, family: OrderedFamily) -> dict:
    """word -> (n, s): the product of each family word over mats is n/s.

    Exact input is multiplied as integer matrices (integer_scaled), and s is
    the product of the letters' scales.  Other input has s = 1, and n is then
    exact only for a word of the exact letters of mixed input, which
    eigen_data integer-scales.  The words share one tree of prefix products:
    each prefix's product is its parent prefix's times its last letter, so
    every word is multiplied left to right, as symdyn.eval_string does, and
    has its bits, while a prefix that several words share (a rotation
    family's words have few distinct factors) is multiplied once.
    """
    exact = all(m.is_exact() for m in mats)
    tree = {ch: integer_scaled(m) if exact else (m, 1) for ch, m in zip(LETTERS, mats)}
    out = {}
    for fw in family.order:
        word = fw.word
        n, s = tree[word[0]]
        for i in range(2, len(word) + 1):
            known = tree.get(word[:i])
            if known is None:
                m, t = tree[word[i - 1]]
                known = tree[word[:i]] = (n @ m, s * t)
            n, s = known
        out[word] = (n, s)
    return out


def component_model(A: Mat2, B: Mat2, fword: str) -> ComponentModel:
    """Cores and action table of the component containing (A, B).

    The pair must classify into the component with the given sign word (with
    both traces normalized positive); the computed directions are checked
    against the combinatorial cyclic order and an OrderViolation signals a
    misclassified or near-boundary pair.  The family products are integer
    matrices with a scale on exact input (_family_products), and their
    directions come from eigen_data(n, s).
    """
    from .multicone import CoreSet
    f = j_of_fword(fword)
    family = build_order(f)
    products = _family_products((A, B), family)

    u_pts: dict[str, ProjPoint] = {}
    s_pts: dict[str, ProjPoint] = {}
    for fw in family.order:
        n, scale = products[fw.word]
        if abs(n.trace() / scale) <= 2.0:
            raise OrderViolation(f"family word {fw.word} is not hyperbolic")
        (u, _), (s, _) = eigen_data(n, scale)
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
