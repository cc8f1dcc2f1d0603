"""Decision procedure for pairs over the full 2-shift.

The classification walks the pair through the two regeneration moves

    step_plus(A, B)  = (A, A@B)        step_minus(A, B) = (B@A, B)

whose trace shadows (x, y, z) = (tr A, tr B, tr AB) are

    plus:  (x, y, z) -> (x, z, x*z - y)
    minus: (x, y, z) -> (z, y, y*z - x)

both preserving the Fricke form x^2 + y^2 + z^2 - x*y*z.

With both traces normalized to be >= 2, the interleaving ("twisted") test is
purely rational: writing t1 = x*y - 2*z and t2 = Fricke form - 4, the
quantity gamma of the triangular normal form (tests/reference.py's
canonical_form) satisfies

    gamma < 0  iff  t1 > 0 and t2 > 0,

because 2*gamma = 2z - x*y + sqrt((x^2-4)(y^2-4)) and
t1^2 - (x^2-4)(y^2-4) = 4*t2.  On exact (rational) inputs the whole walk is
decided without any boundary band; on floats a band around each strict
comparison reports a degenerate outcome instead of guessing.

Both moves keep the Fricke form (Goldman, "Trace coordinates on Fricke
spaces", 2009), so t2 is the same at every state: it is read once, from the
first state's Fricke form, which also gives the reported invariant, and the
walk goes on only when it is > band.  A successor is then twisted iff its t1
is positive, 2*y - x*z for the plus successor (x, z, x*z - y) and 2*x - y*z
for the minus one (z, y, y*z - x): each successor test is one sign read off
the current state, and only the successor taken is built.

Exactly one successor is twisted, so the guards against both or neither
catch only float rounding.  The walk tests successors of a twisted state
(t1 > 0, t2 > 0) with x, y >= 2 and z > 2.  Both twisted is impossible:
(2y - xz) + (2x - yz) = (x + y)(2 - z) < 0.  Neither is impossible: t2 > 0
puts z outside the roots r-, r+ = (xy -+ sqrt((x^2-4)(y^2-4)))/2 of
z^2 - xyz + x^2 + y^2 - 4, and t1 > 0 puts it below xy/2 <= r+, so
z < r- <= max(2x/y, 2y/x) (for x >= y, r- <= 2x/y squares to x >= y), while
both straight needs z > 2y/x and z > 2x/y.  A sign of 0 is the tie.

The walk runs on traces in lowest terms, (X, Y, Z, p, q, r) standing for
x = X/p, y = Y/q, z = Z/r with positive integer denominators, each prime to
its numerator.  On rational input they start from integer_scaled's integer
matrices a*A and b*B: x = tr(a*A)/a, y = tr(b*B)/b and z = tr(a*A @ b*B)/(a*b),
each reduced.  A move builds one new trace and reduces it once with gcd:

    plus:  z' = x*z - y = (X*Z*q - Y*p*r) / (p*q*r)
    minus: z' = y*z - x = (Y*Z*p - X*q*r) / (p*q*r)

so the state stands for the rationals themselves and shrinks as the walk
undoes a pullback, instead of carrying a scale that multiplies at every
step.  The decision quantities scale by positive integers,

    p*q*r * t1          = X*Y*r - 2*Z*p*q
    (p*q*r)^2 * t2      = (X*q*r)^2 + (Y*p*r)^2 + (Z*p*q)^2 - X*Y*Z*p*q*r
                          - 4*(p*q*r)^2
    p*q*r * (2*y - x*z) = 2*Y*p*r - X*Z*q
    p*q*r * (2*x - y*z) = 2*X*q*r - Y*Z*p
    r * (|z| - 2)       = |Z| - 2*r,

so their signs, which are all the walk reads, are decided by exact integer
arithmetic without any Fraction; so is the termination bound
floor((x + y)/4) - 1 = (X*q + Y*p) // (4*p*q) - 1.  The orientation is read
off the input's integer forms (a*A1, a) and (b*B1, b) (below): the angles
of their eigendirections with those scales (sl2core._eigen(a, b, c, d, s),
the routine of eigen_data), or, for near directions, their exact
directions: _exact.int_dir gives each as an integer vector
(x, p + q*sqrt(D)), and _exact.compare_dirs orders two by the sign of their
cross product, in integers.  Every float the verdict reports is one int/int
true division, correctly rounded like float(Fraction), so it has the bits
of the rational value.  A generator is +-identity on rational input only
when its integer form is +-a*I.

The orientation of a non-principal verdict is that of the free pair
(A_k, B_k) the walk reaches from the sign-normalized input (A1, B1): o = +1
when u_B, u_BA, s_BA, s_A (the unstable and stable eigendirections of B_k,
B_k @ A_k and A_k) occur in this cyclic order on P1, -1 when they occur in
the reverse one.  It is read off the input pair, without building A_k and
B_k: with sigma(A, B) = +1 when u_A, s_B, u_B, s_A occur in this cyclic
order and -1 when u_A, s_A, u_B, s_B do, o(A_k, B_k) = sigma(A1, B1).

Proof.  For traces x, y > 2 let r- = (xy - sqrt((x^2-4)(y^2-4)))/2, the
lesser root above.  Every walk state lies in T = {x, y > 2, z < r-}, as
t1 > 0 and t2 > 0 put it there.  A state the walk leaves by a plus move
lies in R+ = {2 < x < y, 2 < z < r-}: its successor is twisted, 2y > xz,
while z < r- <= max(2x/y, 2y/x), so x < y.  A minus-move state lies in R-,
the same with x and y swapped, and the free level in
F = {x, y > 2, z < -2}, inside T.  Each region is connected: over a convex
set of (x, y), z runs through an interval with ends continuous in (x, y),
never empty (r- > 2 exactly when x != y).  (R+ was also checked against its
defining inequalities, with the walk's own tests, on 2*10^6 random
triples, with no mismatch.)  Over T a pair is irreducible: t2 > 0 makes
tr [A, B] = (Fricke form) - 2 > 2, where a common eigenvector would make
it 2.  So no two of A, B and B @ A share a direction (one shared by two is
the third's too), and, the directions of a hyperbolic matrix being
continuous in it, each cyclic order among them is locally constant.  Every
pair over T is SL(2, R)-conjugate to A = diag(lam, 1/lam), lam > 1,
B = [[p, +-1], [r, s]] (a diagonal conjugator scales B's corners by t^2
and 1/t^2, and their product ps - 1 is not 0 on an irreducible pair), with
lam, p, r, s continuous in (x, y, z); the mirror diag(1, -1) swaps the two
signs.  So over a connected region the pairs form two connected families,
which the mirror swaps.  A sign read off a cyclic order is unchanged by
SL(2, R) conjugation, which preserves the order on P1, and negated by the
mirror, which reverses it.  Whether u_A, s_B, u_B, s_A alternate
(u, s, u, s: the two orders of sigma) is thus constant over T, and so,
over F, is whether u_B, u_BA, s_BA, s_A are in one of o's two orders; the
exact free pair with traces (2.5, 2.5, -7) has both, so sigma is defined
over T and o over F.  Then o*sigma over F, and
sigma(successor)*sigma(state) over R+ and over R- (the successor is
twisted, so in T), are locally constant, conjugation- and
mirror-invariant, hence constant, and three exact anchors make each +1:
that free pair and its apply_fword_inverse pullbacks by "+" and by "-",
which lie in R+ and R- (tests/test_twoshift.py,
test_the_orientation_proof_anchors).  Along a walk sigma is therefore the
same at every state, and o at the free level.

The proof holds on SL(2, R), and a positive multiple of a matrix has its
directions, so the free level checks both determinants before it reads the
orientation: det n = s^2 exactly on an integer form (n, s), and within
DEFAULT.band on float or mixed input (_det_in_band).  On exact input the
float angles closer than 100 * DEFAULT.angle are ordered exactly, one
cross-product sign per pair of neighbours (_exact_order): a deep pullback
puts its own input directions within 1e-15 of each other.

Only rational input is scaled, and it is decided with band 0.  Float and
mixed float/rational input keep every denominator 1, where every formula
above is the unscaled one (multiplying by the integer 1 is exact, and no
gcd is taken), so the band never meets a denominator other than 1.

Words here are plain strings over 'A', 'B' whose matrix value is the
left-to-right product ("BAB" means B @ A @ B).  Boundary cases raise
DegenerateTie, which classify_pair reports as a Degenerate verdict.
"""

from __future__ import annotations

from functools import cmp_to_key
from math import gcd, inf, isfinite
from typing import NamedTuple, Union

from . import _exact
from ._record import Record
from .errors import DegenerateTie, NoInvariantDirection
from .projgeom import PI, angle_gap, norm_angle
from .sl2core import Mat2, _eigen, check_finite, integer_scaled, is_pm_identity
from .tolerances import DEFAULT


class _Traces(NamedTuple):
    """Traces x = X/p, y = Y/q, z = Z/r in lowest terms, with positive
    integer denominators; all 1 for float input."""

    X: object
    Y: object
    Z: object
    p: int = 1
    q: int = 1
    r: int = 1


def _lowest(n, d: int):
    """n/d in lowest terms; denominator 1, the only one float input meets,
    passes through untouched."""
    if d == 1:
        return n, 1
    g = gcd(n, d)
    return n // g, d // g


def _step_plus(s: _Traces) -> _Traces:
    X, Y, Z, p, q, r = s
    pr = p * r
    W, w = _lowest(X * Z * q - Y * pr, pr * q)
    return _Traces(X, Z, W, p, r, w)


def _step_minus(s: _Traces) -> _Traces:
    X, Y, Z, p, q, r = s
    qr = q * r
    W, w = _lowest(Y * Z * p - X * qr, qr * p)
    return _Traces(Z, Y, W, r, q, w)


def _fricke(s: _Traces):
    """(p*q*r)^2 times the Fricke form of the traces s stands for."""
    X, Y, Z, p, q, r = s
    qr = q * r
    Xqr, Ypr, Zpq = X * qr, Y * (p * r), Z * (p * q)
    return Xqr * Xqr + Ypr * Ypr + Zpq * Zpq - X * Y * Z * (p * qr)


def apply_fword_inverse(A: Mat2, B: Mat2, fword: str) -> tuple[Mat2, Mat2]:
    """Pair whose walk performs exactly the given sign sequence to reach (A, B),
    undoing the regeneration moves in reverse."""
    for sign in reversed(fword):
        A, B = (A, A.inverse() @ B) if sign == "+" else (B.inverse() @ A, B)
    return A, B


def fword_substitution(fword: str) -> tuple[str, str]:
    """Words expressing the walked pair in the original letters."""
    wa, wb = "A", "B"
    for sign in fword:
        if sign == "+":
            wb = wa + wb
        else:
            wa = wb + wa
    return wa, wb


# ---------------------------------------------------------------------------
# classification outcomes


class Principal(Record):
    __slots__ = ("sign_pair", "invariant")

    def __init__(self, sign_pair, invariant):
        _p_sign_pair(self, sign_pair)
        _p_invariant(self, invariant)


class NonPrincipal(Record):
    __slots__ = ("fword", "sign_pair", "orientation", "iterations", "invariant")

    def __init__(self, fword, sign_pair, orientation, iterations, invariant):
        _n_fword(self, fword)
        _n_sign_pair(self, sign_pair)
        _n_orientation(self, orientation)
        _n_iterations(self, iterations)
        _n_invariant(self, invariant)


class EllipticWitness(Record):
    __slots__ = ("word", "trace", "iterations")

    def __init__(self, word, trace, iterations):
        _e_word(self, word)
        _e_trace(self, trace)
        _e_iterations(self, iterations)


class Degenerate(Record):
    __slots__ = ("reason", "value")

    def __init__(self, reason, value=0.0):
        _d_reason(self, reason)
        _d_value(self, value)


def _setters(cls) -> tuple:
    """The slots' own setters, which the frozen __setattr__ does not block:
    a verdict is built on every call, and writes its slots through them."""
    return tuple(cls.__dict__[f].__set__ for f in cls.__slots__)


_p_sign_pair, _p_invariant = _setters(Principal)
_n_fword, _n_sign_pair, _n_orientation, _n_iterations, _n_invariant = _setters(NonPrincipal)
_e_word, _e_trace, _e_iterations = _setters(EllipticWitness)
_d_reason, _d_value = _setters(Degenerate)


Classification2 = Union[Principal, NonPrincipal, EllipticWitness, Degenerate]


# ---------------------------------------------------------------------------
# twist tests on lowest-terms traces (x, y assumed >= 2), each the sign of one
# scaled quantity; a non-zero band comes only with denominator 1, where the
# scaled quantities are the plain ones.  A sign that is neither straight nor
# twisted is a tie: in the band, or (_OVERFLOW) a NaN from float traces whose
# products leave the float range, such as inf - inf

_TWISTED, _STRAIGHT, _BOUNDARY, _OVERFLOW = 1, 0, -1, -2


def _sign(t, band) -> int:
    if t > band:
        return _TWISTED
    if t < -band:
        return _STRAIGHT
    # a NaN fails both comparisons above; only this rare path reads it
    return _OVERFLOW if t != t else _BOUNDARY


def _tie(test: str, state: int) -> DegenerateTie:
    """The tie of a twist test that came out _BOUNDARY or _OVERFLOW."""
    if state == _OVERFLOW:
        return DegenerateTie(f"{test} twist test overflows the float range")
    return DegenerateTie(f"{test} twist test in the boundary band")


def _step_select_traces(s: _Traces, band) -> str:
    """The step the walk takes from s, a state whose t2 is > band: "+",
    "-", "free" or "elliptic"."""
    X, Y, Z, p, q, r = s
    if abs(Z) < (2 - band) * r:
        return "elliptic"
    if Z < (-2 + band) * r:
        if Z > (-2 - band) * r:
            raise DegenerateTie("tr AB in the band around -2", Z / r)
        return "free"
    if Z < (2 + band) * r:
        # Z < 0 here only on the edge (-2 + band) r, Z = -2r at band 0
        raise DegenerateTie(f"tr AB in the band around {-2 if Z < 0 else 2}", Z / r)
    # each successor's t1, scaled by p*q*r: with t2 invariant, all its test
    plus = _sign(2 * Y * p * r - X * Z * q, band)
    minus = _sign(2 * X * q * r - Y * Z * p, band)
    if plus < 0 or minus < 0:
        raise _tie("successor", min(plus, minus))
    if plus == minus:
        raise DegenerateTie("both successor pairs test twisted" if plus == _TWISTED
                            else "neither successor pair tests twisted")
    return "+" if plus == _TWISTED else "-"


# ---------------------------------------------------------------------------
# the free level: determinants and orientation, read off the input pair


def _det_in_band(m: Mat2, s: int, exact: bool) -> bool:
    """Whether det(m / s) is 1: exactly on exact input, where m is the
    integer matrix of a form of scale s, and within DEFAULT.band otherwise
    (s = 1), for the entries read as the rationals they are.

    A float determinant fl(fl(ad) - fl(bc)) is within (4u + 7u^2)(|ad| + |bc|)
    of ad - bc, u = 2^-53: each product rounds once, and once more for each
    factor converted from an int or a Fraction, and the difference rounds
    once.  8.9e-16 (|ad| + |bc|) is twice that bound, and the slack covers
    the rounding of the allowance itself and of |det - 1|, which is exact
    for det in [0.5, 2] (Sterbenz).  An underflowing product adds at most
    2^-1075, which the allowance dwarfs wherever |det - 1| is near the band
    (there |ad| + |bc| >= 1/2).  Where the allowance cannot decide, or a
    product leaves the float range (inf or NaN fails both tests), the
    determinant is read exactly, in integers.
    """
    if exact:
        return m.det() == s * s
    ad, bc = m.a * m.d, m.b * m.c
    det = ad - bc
    if type(det) is float:
        off, allow = abs(det - 1.0), 8.9e-16 * (abs(ad) + abs(bc))
        if off + allow <= DEFAULT.band:
            return True
        if off - allow > DEFAULT.band:
            return False
    n, k = integer_scaled(m)
    tol, den = DEFAULT.band.as_integer_ratio()
    return abs(n.det() - k * k) * den <= tol * k * k


def _det_value(m: Mat2, s: int) -> float:
    """det(m / s), read exactly (a float entry as the dyadic rational it
    is) and rounded once; +-inf beyond the float range."""
    n, k = integer_scaled(m)
    det = n.det()
    try:
        return det / (k * k * s * s)
    except OverflowError:
        return inf if det > 0 else -inf


# the cyclic orders of the labels of u_A, s_B, u_B, s_A (0, 1, 2, 3), each
# read from any of its points, and the orientation each gives
_ORIENTATIONS = {order[i:] + order[:i]: sign
                 for sign, order in ((1, (0, 1, 2, 3)), (-1, (0, 3, 2, 1)))
                 for i in range(4)}


def _orientation(A, B, exact: bool) -> int:
    """Orientation of the walk's free level, read off the (matrix, scale)
    forms A, B of the sign-normalized input pair: +1 when u_A, s_B, u_B, s_A
    occur in this cyclic order on P1, -1 when u_A, s_A, u_B, s_B do (the
    module docstring proves that the free pair's order of u_B, u_BA, s_BA,
    s_A gives the same sign).  Scales other than 1 come only with integer
    matrices, and at scale 1 any matrix is read by _eigen.  exact says
    whether every entry of the pair is exact.

    The four directions are the angles of eigen_data's points, with their
    bits: _eigen's angles of A and B, reduced by norm_angle, and sorted.
    Where every cyclic gap between neighbours exceeds 100 * DEFAULT.angle,
    or on float input, the sorted order is the order (a gap of 0 is a
    tie); on exact input the neighbours nearer than that are ordered
    exactly (_exact_order).  A member with no eigendirection, which
    hyperbolic traces rule out at det 1 but not on a float pair rounded off
    SL(2, R), is a named tie.
    """
    (m, s), (n, t) = A, B
    try:
        uA, sA, _, _ = _eigen(m.a, m.b, m.c, m.d, s)
        uB, sB, _, _ = _eigen(n.a, n.b, n.c, n.d, t)
    except OverflowError:  # integer forms beyond the float range: exact order
        return _exact_orientation(m, n)
    except NoInvariantDirection as err:
        raise DegenerateTie(f"free pair: {err}") from None
    pts = sorted(((norm_angle(uA), 0), (norm_angle(sB), 1),
                  (norm_angle(uB), 2), (norm_angle(sA), 3)))
    (w, i), (x, j), (y, k), (z, l) = pts
    gaps = (x - w, y - x, z - y, angle_gap(z, w))
    min_gap = min(gaps)
    if min_gap > 100 * DEFAULT.angle or not exact:
        if min_gap == 0.0:
            raise DegenerateTie("free-pair directions coincide")
        order = (i, j, k, l)
    else:
        order = _exact_order(pts, gaps, m, n)
    sign = _ORIENTATIONS.get(order)
    if sign is None:
        raise DegenerateTie("free-pair direction order is inconsistent")
    return sign


def _exact_order(pts, gaps, m: Mat2, n: Mat2) -> tuple:
    """The labels of the sorted (angle, label) points pts of the integer
    matrices m (A) and n (B) in their exact cyclic order.

    Float angles that are further apart than 100 * DEFAULT.angle are in
    the right order; nearer ones are ordered by one cross-product sign,
    from _exact.int_dir's directions of the two.  The points are read from
    just past their largest gap (at least pi/4), so near points are
    neighbours on the line read.  Two near directions in [0, pi) whose
    angles lie on either side of 0 (one near 0, one near pi) are in the
    reverse order of their angles; both lie near the horizontal, where the
    upper half-plane vector of a direction has x > 0 short of pi/2 and
    x < 0 past it, so the exact x components tell the two cases apart.
    """
    cut = gaps.index(max(gaps)) + 1
    line = pts[cut:] + pts[:cut]
    start = line[0][0]
    dirs = {}

    def direction(label: int) -> _exact.ExactDir:
        if label not in dirs:  # u_A, s_B, u_B, s_A
            dirs[label] = _exact.int_dir(n if label in (1, 2) else m, label in (0, 2))
        return dirs[label]

    def before(e, f) -> int:
        """-1 when e comes first on the line, +1 when f does."""
        (ae, le), (af, lf) = e, f
        ge, gf = angle_gap(start, ae), angle_gap(start, af)
        if abs(gf - ge) > 100 * DEFAULT.angle:
            return -1 if ge < gf else 1
        de, df = direction(le), direction(lf)
        later = _exact.compare_dirs(df, de)  # sign of angle(f) - angle(e)
        if later == 0:
            raise DegenerateTie("free-pair directions coincide")
        if not 0.25 * PI < ae < 0.75 * PI and (de.x > 0) != (df.x > 0):
            later = -later  # on either side of 0
        return -later

    line.sort(key=cmp_to_key(before))
    return tuple(label for _, label in line)


def _exact_orientation(m: Mat2, n: Mat2) -> int:
    """_orientation's sign for integer matrices m (A) and n (B) whose
    directions have no float angles, from their exact directions."""
    uA, sA = _exact.exact_dirs(m)
    uB, sB = _exact.exact_dirs(n)
    if _exact.exact_cyclically_ordered((uA, sB, uB, sA)):
        return +1
    if _exact.exact_cyclically_ordered((uA, sA, uB, sB)):
        return -1
    raise DegenerateTie("free-pair direction order is inconsistent")


# ---------------------------------------------------------------------------
# the decision algorithm


def classify_pair(A: Mat2, B: Mat2) -> Classification2:
    """Decide membership and component data for a pair over the full 2-shift.

    Exact inputs (int/Fraction entries) are decided with band 0 on
    lowest-terms traces; boundary cases then mean genuine boundary points
    and come back Degenerate.
    """
    exact = check_finite((A, B))
    try:
        return _classify(A, B, exact)
    except DegenerateTie as tie:
        return Degenerate(str(tie), tie.value)


def _classify(A: Mat2, B: Mat2, exact: bool) -> Classification2:
    # Only exact input (exact: every entry of A and B is) is scaled, and it
    # has band 0: the band only ever meets denominator 1, where the scaled
    # decision quantities are the plain ones.
    if exact:
        band = 0
        (A, a), (B, b) = integer_scaled(A), integer_scaled(B)
    else:
        band, a, b = DEFAULT.band, 1, 1
    for name, m, scale in (("A", A, a), ("B", B, b)):
        if is_pm_identity(m, scale):
            return Degenerate(f"generator {name} is +-identity")

    sa = 1 if A.trace() >= 0 else -1
    sb = 1 if B.trace() >= 0 else -1
    sign_pair = (sa, sb)
    A1 = A if sa > 0 else -A
    B1 = B if sb > 0 else -B
    X, Y = A1.trace(), B1.trace()

    for name, T, scale, sign in (("A", X, a, sa), ("B", Y, b, sb)):
        if abs(T - 2 * scale) <= band:
            return Degenerate(f"generator {name} is parabolic (band)", float(T / scale))
        if T < 2 * scale:
            return EllipticWitness(name, float(sign * T / scale), 0)

    # tr(A1 @ B1) in Mat2.__matmul__'s association, so a float keeps its bits
    Z = (A1.a * B1.a + A1.b * B1.c) + (A1.c * B1.b + A1.d * B1.d)
    (X, p), (Y, q), (Z, r) = _lowest(X, a), _lowest(Y, b), _lowest(Z, a * b)
    s = _Traces(X, Y, Z, p, q, r)
    pq, pqr = p * q, p * q * r
    fricke = _fricke(s)
    try:
        inv = float(fricke / (pqr * pqr))
    except OverflowError:  # an exact invariant beyond the float range
        inv = inf if fricke > 0 else -inf
    t1 = _sign(X * Y * r - 2 * Z * pq, band)
    t2 = _sign(fricke - 4 * pqr * pqr, band)
    if _STRAIGHT in (t1, t2):
        return Principal(sign_pair, inv)
    if min(t1, t2) < 0:
        raise _tie("initial", min(t1, t2))

    # floor((x + y) / 4) - 1, with x + y = t0 / (p*q)
    t0 = X * q + Y * p
    bound = t0 // (4 * pq) - 1
    fword = ""
    while True:
        step = _step_select_traces(s, band)
        if step == "free":
            # the walk's formulas hold on SL(2, R), and so does the
            # orientation read off the input pair
            for name, m, scale in (("A", A1, a), ("B", B1, b)):
                if not _det_in_band(m, scale, exact):
                    raise DegenerateTie(f"generator {name} determinant is not 1 (band)",
                                        _det_value(m, scale))
            orient = _orientation((A1, a), (B1, b), exact)
            return NonPrincipal(fword, sign_pair, orient, len(fword), inv)
        if step == "elliptic":
            wa, wb = fword_substitution(fword)
            return EllipticWitness(wa + wb, float(s.Z / s.r), len(fword))
        if len(fword) >= bound:
            raise DegenerateTie("walk exceeded its termination bound", t0 / pq)
        s = _step_plus(s) if step == "+" else _step_minus(s)
        fword += step


def classification_to_dict(c: Classification2) -> dict:
    """The verdict as JSON values; an invariant beyond the float range
    (+-inf) is written null."""
    if isinstance(c, Principal):
        return {"variant": "principal",
                "sign_pair": _signs(c.sign_pair),
                "invariant": _finite(c.invariant)}
    if isinstance(c, NonPrincipal):
        return {"variant": "non_principal",
                "fword": c.fword,
                "sign_pair": _signs(c.sign_pair),
                "orientation": "positive" if c.orientation > 0 else "negative",
                "iterations": c.iterations,
                "invariant": _finite(c.invariant)}
    if isinstance(c, EllipticWitness):
        return {"variant": "elliptic",
                "witness": c.word,
                "trace": c.trace,
                "iterations": c.iterations}
    return {"variant": "degenerate", "reason": c.reason, "value": c.value}


def _finite(x: float) -> float | None:
    return x if isfinite(x) else None


def _signs(pair) -> str:
    return "".join("+" if s > 0 else "-" for s in pair)
