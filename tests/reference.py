"""References the tests compare the library against: the notions of the paper
and the helpers that no verdict reads.

The library keeps what a verdict reads.  What is here is read only by tests,
each as an independent statement of a fact the library uses or implies:

- the trace trichotomy and the invariant directions of one matrix
  (classify, invariant_dirs), and the triangular normal form of a pair,
  whose gamma = alpha * beta is twoshift's twist test (canonical_form);
- the cross-ratio and the Hilbert distance of an arc (cross_ratio,
  hilbert_dist), of which projgeom keeps the density and the contraction;
- the trace-level twist and freeness tests of a pair (is_twisted, is_free);
- the tightness of a multicone against cores (tightness, complement);
- the coded rotation orbits, code by code (_theta, rotation_orbit_word,
  orbit_words), of which fareycomb slices the words its family order reads
  from one orbit string;
- the monoid of monotonic correspondences (identity_corr, compose,
  is_constant), their enumeration (all_correspondences), the reduction of a
  morphism to a tight one (reduce_tight) and the paper's rank-15 morphism
  that no matrix family induces (nonrealizable_fixture);
- the JSON writers of the multicone family format that `hypercone certify
  --multicone` reads (family_json, cone_json), and of morphisms;
- words typed as text and the time-reversed shift (parse_word, admissible,
  cyclically_admissible, dual).
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from itertools import product as iproduct

from hypercone._record import Record
from hypercone.corrdyn import (CombMulticone, Morphism, MonotoneCorr, _uncovered,
                               constant_corr, solve_s_from_u, validate)
from hypercone.errors import (DegenerateInput, DegenerateTie, HyperconeError,
                              NoInvariantDirection, NotMonotonic, OutOfArc,
                              StructureViolation)
from hypercone.multicone import CoreSet, MulticoneFamily, best_target, start_order
from hypercone.projgeom import ArcP1, MultiCone, ProjPoint, angle_dist
from hypercone.sl2core import Mat2, eigen_data, integer_scaled, is_pm_identity
from hypercone.symdyn import LETTERS, Sft, Word
from hypercone.tolerances import DEFAULT


class NotCanonicalizable(HyperconeError):
    """Pair cannot be put in upper/lower triangular normal form."""


class BadBasePoint(HyperconeError):
    """Base point of a rotation word is not of the form i/q."""


# ---------------------------------------------------------------------------
# one matrix and the normal form of a pair


class MatClass(Enum):
    HYPERBOLIC = "hyperbolic"
    PARABOLIC = "parabolic"
    ELLIPTIC = "elliptic"
    PLUS_MINUS_IDENTITY = "pm_identity"


def classify(m: Mat2) -> MatClass:
    """Trace trichotomy; the band ||tr|-2| <= DEFAULT.trace reports parabolic.
    Exact input takes band 0 throughout."""
    if is_pm_identity(m):
        return MatClass.PLUS_MINUS_IDENTITY
    if m.is_exact():
        t = abs(m.trace())
        return (MatClass.HYPERBOLIC if t > 2 else MatClass.ELLIPTIC if t < 2
                else MatClass.PARABOLIC)
    t = abs(float(m.trace()))
    if t > 2.0 + DEFAULT.trace:
        return MatClass.HYPERBOLIC
    if t < 2.0 - DEFAULT.trace:
        return MatClass.ELLIPTIC
    return MatClass.PARABOLIC


def invariant_dirs(m: Mat2) -> tuple[ProjPoint, ProjPoint]:
    """Unstable and stable directions (equal for parabolic input)."""
    cls = classify(m)
    if cls in (MatClass.ELLIPTIC, MatClass.PLUS_MINUS_IDENTITY):
        raise NoInvariantDirection(f"no invariant direction for {cls.value} matrix")
    (u, _), (s, _) = eigen_data(m)
    return u, s


def vector(p: ProjPoint) -> tuple[float, float]:
    return (math.cos(p.angle), math.sin(p.angle))


class CanonicalPair(Record):
    """Upper/lower triangular normal form of a twisted-candidate pair.

    In the stored basis (a Mat2) the first matrix is [[mu, alpha], [0, 1/mu]]
    and the second is [[1/nu, 0], [beta, nu]]; gamma = alpha * beta is
    basis-free.
    """

    __slots__ = ("mu", "nu", "alpha", "beta", "basis", "gamma")


def canonical_form(A: Mat2, B: Mat2) -> CanonicalPair:
    """The normal form of (A, B); NotCanonicalizable unless both traces are
    >= 2 (read exactly on exact input, as classify does), neither is
    +-identity, and each has an unstable direction, the two distinct."""
    if any(m.trace() < 2 if m.is_exact() else float(m.trace()) < 2.0 - DEFAULT.trace
           for m in (A, B)):
        raise NotCanonicalizable("both traces must be >= 2")
    for m in (A, B):
        if is_pm_identity(m):
            raise NotCanonicalizable("+-identity member admits no canonical basis")
    try:  # a float trace within the band may still read elliptic
        uA, uB = eigen_data(A)[0][0], eigen_data(B)[0][0]
    except NoInvariantDirection as exc:
        raise NotCanonicalizable("a member has no invariant direction") from exc
    if same_angle(uA.angle, uB.angle, DEFAULT.angle):
        raise NotCanonicalizable("unstable directions coincide")
    va, vb = vector(uA), vector(uB)
    det = va[0] * vb[1] - va[1] * vb[0]
    if det < 0:
        vb = (-vb[0], -vb[1])
        det = -det
    s = 1.0 / math.sqrt(det)
    basis = Mat2(va[0] * s, vb[0] * s, va[1] * s, vb[1] * s)
    inv = basis.inverse()
    At = inv @ A.to_float() @ basis
    Bt = inv @ B.to_float() @ basis
    mu, alpha = At.a, At.b
    nu, beta = Bt.d, Bt.c
    return CanonicalPair(mu=mu, nu=nu, alpha=alpha, beta=beta, basis=basis,
                         gamma=alpha * beta)


# ---------------------------------------------------------------------------
# cross-ratio and Hilbert distance
#
# Cross-ratios are computed projectively: with points given by angles, every
# chart difference c - a equals sin(ac - aa) up to a cosine factor that
# cancels in the full ratio, so
#
#     [a, b, c, d] = sin(c-a) sin(d-b) / (sin(b-a) sin(d-c))
#
# with all differences taken between representative angles.  Each point
# enters one numerator and one denominator factor, so the pi-ambiguity of
# representatives cancels and the value is chart-independent, without ever
# forming a near-infinite chart coordinate.  The Hilbert metric of an open
# arc I with endpoints a, b is d_I(x, y) = |log [a, x, y, b]|;
# projgeom.hilbert_density is its derivative in one argument.


def same_angle(a: float, b: float, tol: float = DEFAULT.angle) -> bool:
    return angle_dist(a, b) <= tol


def cross_ratio(a: ProjPoint, b: ProjPoint, c: ProjPoint, d: ProjPoint,
                tol: float = DEFAULT.angle) -> float:
    points = (a, b, c, d)
    for i in range(4):
        for j in range(i + 1, 4):
            if same_angle(points[i].angle, points[j].angle, tol):
                raise DegenerateInput(f"points {i} and {j} coincide within tolerance {tol}")
    s = math.sin
    aa, ab, ac, ad = a.angle, b.angle, c.angle, d.angle
    return (s(ac - aa) * s(ad - ab)) / (s(ab - aa) * s(ad - ac))


def arc_contains(arc: ArcP1, p: ProjPoint, margin: float = 0.0) -> bool:
    """Membership with a signed margin; margin > 0 demands interior depth."""
    off = arc.signed_offset_of(p.angle)
    return margin < off < arc.length - margin


def hilbert_dist(arc: ArcP1, x: ProjPoint, y: ProjPoint) -> float:
    """Hilbert distance |log [a, x, y, b]| inside the open arc (a, b)."""
    for p in (x, y):
        if not arc_contains(arc, p):
            raise OutOfArc(f"point at angle {p.angle} is not inside the arc")
    if same_angle(x.angle, y.angle, 0.0):
        return 0.0
    return abs(math.log(cross_ratio(arc.start, x, y, arc.end, tol=0.0)))


# ---------------------------------------------------------------------------
# trace-level tests of a pair


def is_free(A: Mat2, B: Mat2, band: float = 0.0) -> bool:
    """|tr A|, |tr B|, |tr AB| > 2 with a negative trace product."""
    x, y, z = A.trace(), B.trace(), (A @ B).trace()
    for name, v in (("tr A", x), ("tr B", y), ("tr AB", z)):
        if abs(abs(v) - 2) <= band:
            raise DegenerateTie(f"|{name}| in the band around 2", v)
    return abs(x) > 2 and abs(y) > 2 and abs(z) > 2 and x * y * z < 0


def is_twisted(A: Mat2, B: Mat2, band: float = 0.0) -> bool:
    """Interleaved invariant directions, decided from traces alone."""
    exact = A.is_exact() and B.is_exact()
    if exact:
        (A, a), (B, b) = integer_scaled(A), integer_scaled(B)
    else:
        a = b = 1
    # elliptic members are never twisted
    for m, s in ((A, a), (B, b)):
        if is_pm_identity(m, s) or (abs(m.trace()) < 2 * s if exact
                                    else abs(float(m.trace())) < 2.0):
            return False
    x, y, z = A.trace(), B.trace(), (A @ B).trace()
    if exact:
        x, y, z = Fraction(x, a), Fraction(y, b), Fraction(z, a * b)
    if x < 0:
        x, z = -x, -z
    if y < 0:
        y, z = -y, -z
    # gamma < 0 iff t1 > 0 and t2 > 0, with both traces >= 2
    t1, t2 = x * y - 2 * z, x * x + y * y + z * z - x * y * z - 4
    if t1 < -band or t2 < -band:
        return False
    if t1 > band and t2 > band:
        return True
    if band > 0:
        raise DegenerateTie("twist test in the boundary band")
    return False


# ---------------------------------------------------------------------------
# multicones


def tightness(mats, cone: MultiCone, cores: CoreSet) -> bool:
    """Each cone component holds one U component; each gap one S component."""
    for comp_set, arcs in ((cone.arcs, cores.u_arcs),
                           (complement(cone).arcs, cores.s_arcs)):
        counts = [0 for _ in comp_set]
        order = start_order(comp_set)
        for arc in arcs:
            j, margin = best_target(arc.span, comp_set, order)
            if margin <= -DEFAULT.angle:
                return False
            counts[j] += 1
        if any(c != 1 for c in counts):
            return False
    return True


def complement(cone: MultiCone) -> MultiCone:
    """The gaps between the arcs, as a multicone (complement of the closure)."""
    arcs = cone.arcs
    return MultiCone(tuple(ArcP1(a.end, arcs[(i + 1) % len(arcs)].start)
                           for i, a in enumerate(arcs)))


def cone_json(cone: MultiCone) -> dict:
    return {"arcs": [[a.start.angle, a.end.angle] for a in cone.arcs]}


def family_json(fam: MulticoneFamily) -> dict:
    """The family as `hypercone certify --multicone` reads it, keyed by symbol."""
    return {str(i): cone_json(cone) for i, cone in enumerate(fam.cones)}


# ---------------------------------------------------------------------------
# rotation orbits


class RotWord(Record):
    __slots__ = ("letters", "base", "rotation")

    def __str__(self) -> str:
        return self.letters


def _theta(p: int, q: int, k: int) -> str:
    """Letters of Theta(k/q) for rotation p/q, for any integer k."""
    # x = k/q codes 'A' while x < 1 - p/q, i.e. k < q - p; x + p/q is k + p
    return "".join("A" if (k + i * p) % q < q - p else "B" for i in range(q))


def rotation_orbit_word(f: Fraction, start: Fraction) -> RotWord:
    """The coded orbit word Theta(start) of length q."""
    p, q = f.numerator, f.denominator
    start = Fraction(start) % 1
    k = start * q
    if k.denominator != 1:
        raise BadBasePoint(f"start {start} is not a multiple of 1/{q}")
    return RotWord(letters=_theta(p, q, k.numerator), base=start, rotation=f)


def orbit_words(f: Fraction) -> list[RotWord]:
    """All q rotation words of f, by base point 0, 1/q, ..., (q-1)/q."""
    q = f.denominator
    return [rotation_orbit_word(f, Fraction(i, q)) for i in range(q)]


# ---------------------------------------------------------------------------
# the correspondence calculus


def identity_corr(mc: CombMulticone) -> MonotoneCorr:
    return MonotoneCorr(mc=mc, u=tuple(mc.u_labels()), s=tuple(mc.s_labels()))


def compose(c1: MonotoneCorr, c2: MonotoneCorr) -> MonotoneCorr:
    """Relation composition c1 o c2 (paths pass through c1 first)."""
    mc = c1.mc
    u = tuple(c2.u_of(c1.u_of(x)) for x in mc.u_labels())
    s = tuple(c1.s_of(c2.s_of(y)) for y in mc.s_labels())
    return MonotoneCorr(mc=mc, u=u, s=s)


def is_constant(corr: MonotoneCorr) -> bool:
    return len(corr.u_image) == 1


def all_correspondences(mc: CombMulticone):
    """Every monotonic correspondence on mc (exhaustive; use for small rank)."""
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


def morphism_json(phi: Morphism) -> dict:
    mc = phi.mc
    return {"rank": mc.rank, "parity": "even_u" if mc.even_is_u else "even_s",
            "gens": [{"u": [mc.slot(v) for v in g.u], "s": [mc.slot(v) for v in g.s]}
                     for g in phi.gens]}


def morphism_from_json(data: dict) -> Morphism:
    mc = CombMulticone(rank=int(data["rank"]),
                       even_is_u=data.get("parity", "even_u") == "even_u")
    gens = []
    for g in data["gens"]:
        u = tuple(mc.u_label(i) for i in g["u"])
        s = tuple(mc.s_label(i) for i in g["s"])
        gens.append(validate(mc, u, s))
    return Morphism(mc=mc, gens=tuple(gens))


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
    while True:
        u_unc, s_unc = _uncovered(phi.mc, phi.gens)
        if not u_unc and not s_unc:
            return phi
        phi = _drop_element(phi, (u_unc or s_unc)[0], drop_u=bool(u_unc))


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
        return tuple(idx[special.get(name, default)] for name in _NR_ORDER)

    gen_a = solve_s_from_u(mc, table(_NR_A_U, "omega"))
    gen_b = solve_s_from_u(mc, table(_NR_B_U, None))
    gen_c = solve_s_from_u(mc, table(_NR_C_U, "omega_p"))

    gens = [gen_a, gen_b, gen_c]
    u_unc, s_unc = _uncovered(mc, gens)
    k = max(len(u_unc), len(s_unc))
    for i in range(k):
        a_u = u_unc[i] if i < len(u_unc) else mc.u_labels()[0]
        a_s = s_unc[i] if i < len(s_unc) else mc.s_labels()[0]
        gens.append(constant_corr(mc, a_u, a_s))
    if n_gens is not None:
        while len(gens) < n_gens:
            gens.append(constant_corr(mc, mc.u_labels()[0], mc.s_labels()[0]))
    return Morphism(mc=mc, gens=tuple(gens))


# ---------------------------------------------------------------------------
# words and shifts


def parse_word(text: str) -> Word:
    """The inverse of symdyn.render_word."""
    return tuple(LETTERS.index(ch) for ch in text.strip().upper())


def dual(sft: Sft) -> Sft:
    """The time-reversed shift."""
    n = sft.n_symbols
    return Sft(n, tuple(tuple(sft.allowed[j][i] for j in range(n)) for i in range(n)))


def admissible(sft: Sft, w: Word) -> bool:
    return all(sft.ok(w[i], w[i + 1]) for i in range(len(w) - 1))


def cyclically_admissible(sft: Sft, w: Word) -> bool:
    """The periodic orbit of w is allowed (a letter needs its self-loop)."""
    return admissible(sft, w) and sft.ok(w[-1], w[0])
