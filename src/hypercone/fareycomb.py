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

over the center words w.  The symbolic action table, action_table(p/q), is
the fraction's alone: a generator acts exactly on the center words ending
with its letter (cyclically shifting the final letter to the front, base
point x -> x - p/q) and absorbs all others into its sink word, Theta(0) for
A and Theta(1 - 1/q) for B.  The last word ending with each letter,
Theta(p/q) for A and Theta((p - 1)/q) for B, shifts onto that letter's
sink, so its entry is not exact.

Base points are integer indices: Theta(k/q) reads the codes of k, k + p,
k + 2p, ... mod q, and stepping along the orbit adds multiples of p mod q.
So every Theta(k/q) is a slice of one string, the codes of 0, p, 2p, ...
mod q read twice over, from the step k * p^-1 mod q at which the orbit is
at k.

The 2q family words are the rotations of three words: the center word and
the two parents'.  On exact input each of these cyclic classes is
multiplied once: with a word's prefix and suffix products, each rotation
w[i:] + w[:i] is one product more, kept in lowest terms as an integer
matrix over a scale.  The scale moves no bit of the eigen data, each of
whose floats is one correctly rounded int / int division.  Float input is
multiplied along a tree of shared prefixes, left to right as
symdyn.eval_string multiplies, so that each word keeps its bits.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .errors import NotInterior, OrderViolation
from .projgeom import ArcP1, ProjPoint, cyclically_ordered
from .sl2core import Mat2, check_finite, eigen_data, form_product, integer_scaled
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


def _thetas(p: int, q: int):
    """k -> the letters of Theta(k/q) for rotation p/q, for any integer k.

    The orbit 0, p/q, 2p/q, ... is at k/q after k * p^-1 mod q steps, so
    Theta(k/q) is the q codes of the orbit read twice over from there.
    """
    # x = i/q codes 'A' while x < 1 - p/q, i.e. i < q - p
    orbit = "".join("A" if i * p % q < q - p else "B" for i in range(q)) * 2
    inv = pow(p, -1, q)

    def theta(k: int) -> str:
        i = k * inv % q
        return orbit[i:i + q]
    return theta


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

    theta, theta0, theta1 = _thetas(p, q), _thetas(p0, q0), _thetas(p1, q1)

    # base indices: Theta(1 - 1/q) is index q - 1, and so for the parents
    succ: dict[str, str] = {}
    pred: dict[str, str] = {}
    tag_of: dict[str, str] = {}
    for i in range(q1):
        w_to = theta1(i * p1)
        succ[theta(i * p)] = w_to
        tag_of[w_to] = "parent1"
    for i in range(q0):
        w_to = theta0(q0 - 1 + i * p0)
        succ[theta(q - 1 + i * p)] = w_to
        tag_of[w_to] = "parent0"
    for i in range(q0):
        pred[theta(-i * p)] = theta0(-i * p0)
    for i in range(q1):
        pred[theta(q - 1 - i * p)] = theta1(q1 - 1 - i * p1)

    succ_inv = {v: k for k, v in succ.items()}
    emitted: list[FamilyWord] = []
    last = w = theta(q - 1)
    for _ in range(q):
        emitted.append(FamilyWord(word=w, tag="center"))
        parent = pred[w]
        emitted.append(FamilyWord(word=parent, tag=tag_of[parent]))
        w = succ_inv[parent]
    if w != last:
        raise OrderViolation("family order failed to close up")
    return OrderedFamily(fraction=f, parents=(f0, f1), order=tuple(emitted),
                         lex_first=theta(0), lex_last=last)


def j_of_fword(fword: str) -> Fraction:
    """Rotation number of the component with the given sign word."""
    from .twoshift import fword_substitution
    wa, wb = fword_substitution(fword)
    w = wa + wb
    return Fraction(w.count("B"), len(w))


def special_words(f: Fraction) -> dict:
    """The four threshold words of the action table."""
    p, q = f.numerator, f.denominator
    theta = _thetas(p, q)
    return {
        "last_ending_a": theta(p),
        "last_ending_b": theta(p - 1),
        "a_sink": theta(0),
        "b_sink": theta(q - 1),
    }


def action_table(f: Fraction) -> dict:
    """word -> per-generator (target word, exact?) for the center words.

    A generator acts exactly on words ending with its own letter by moving
    that letter to the front (base index k -> k - p); every other word is
    absorbed into the generator's sink component.
    """
    p, q = f.numerator, f.denominator
    sw = special_words(f)
    theta = _thetas(p, q)
    table: dict[str, dict[str, tuple[str, bool]]] = {}
    for k in range(q):
        w = theta(k)
        shifted = theta(k - p)
        if w.endswith("A"):
            table[w] = {"A": (shifted, w != sw["last_ending_a"]),
                        "B": (sw["b_sink"], False)}
        else:
            table[w] = {"A": (sw["a_sink"], False),
                        "B": (shifted, w != sw["last_ending_b"])}
    return table


class ComponentModel(Record):
    __slots__ = ("fraction", "orientation", "family", "cores",
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


def _family_products(mats, family: OrderedFamily, exact: bool) -> dict:
    """word -> (n, s): the product of each family word over mats is n/s.

    Exact input (exact: every entry of mats is, as check_finite reports) is
    multiplied as integer matrices (integer_scaled), once per
    cyclic class: the family's words are the rotations of three words (the
    center word and the two parents'), and with the prefix products w[:i]
    and the suffix products w[i:] of one of them, its rotation w[i:] + w[:i]
    is one more product, suffix @ prefix, so a class of L words takes 3L - 4
    products, not the L^2/2 of a prefix tree.  Each product is in lowest
    terms (form_product divides by the gcd of the entries and the scale),
    which moves no bit of eigen_data(n, s): each of its floats is one int /
    int division of the same rational, correctly rounded.

    Other input has s = 1, and n is then exact only for a word of the exact
    letters of mixed input, which eigen_data integer-scales.  Its words share
    one tree of prefix products: each prefix's product is its parent prefix's
    times its last letter, so every word is multiplied left to right, as
    symdyn.eval_string does, and has its bits.
    """
    if exact:
        return _class_products([integer_scaled(m) for m in mats], family)
    tree = dict(zip(LETTERS, mats))  # prefix -> its product
    out = {}
    for fw in family.order:
        word = fw.word
        n = tree[word[0]]
        for i in range(2, len(word) + 1):
            known = tree.get(word[:i])
            if known is None:
                known = tree[word[:i]] = n @ tree[word[i - 1]]
            n = known
        out[word] = (n, 1)
    return out


def _class_products(forms, family: OrderedFamily) -> dict:
    """word -> lowest-terms (n, s) form of each family word over the letters'
    forms, multiplied once per cyclic class (see _family_products)."""
    letter = dict(zip(LETTERS, forms))
    out = {}
    for fw in family.order:
        w = fw.word
        if w in out:  # a rotation of a class already multiplied
            continue
        prefix = [letter[w[0]]]  # prefix[i] is the form of w[:i + 1]
        for ch in w[1:-1]:
            prefix.append(form_product(prefix[-1], letter[ch]))
        suffix = [letter[w[-1]]]  # built from the right: w[-1:], w[-2:], ...
        for ch in reversed(w[:-1]):
            suffix.append(form_product(letter[ch], suffix[-1]))
        suffix.reverse()  # suffix[i] is the form of w[i:]
        out[w] = suffix[0]
        for i in range(1, len(w)):
            out[w[i:] + w[:i]] = form_product(suffix[i], prefix[i - 1])
    return out


def component_model(A: Mat2, B: Mat2, fword: str) -> ComponentModel:
    """Cores and direction points of the component containing (A, B).

    The pair must classify into the component with the given sign word (with
    both traces normalized positive); the computed directions are checked
    against the combinatorial cyclic order and an OrderViolation signals a
    misclassified or near-boundary pair.  The family products are integer
    matrices with a scale on exact input (_family_products), and their
    directions come from eigen_data(n, s).
    """
    exact = check_finite((A, B))
    from .multicone import CoreSet
    f = j_of_fword(fword)
    family = build_order(f)
    products = _family_products((A, B), family, exact)

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
                          cores=cores, u_points=u_pts, s_points=s_pts)
