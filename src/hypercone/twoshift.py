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

    p*q*r * t1         = X*Y*r - 2*Z*p*q
    (p*q*r)^2 * t2     = (X*q*r)^2 + (Y*p*r)^2 + (Z*p*q)^2 - X*Y*Z*p*q*r
                         - 4*(p*q*r)^2
    r * (|z| - 2)      = |Z| - 2*r,

so their signs, which are all the walk reads, are decided by exact integer
arithmetic without any Fraction; so is the termination bound
floor((x + y)/4) - 1 = (X*q + Y*p) // (4*p*q) - 1.  The walked pair is
rebuilt as products of (integer matrix, scale) pairs, each divided by the
gcd of its entries and scale, and its orientation reads the angles of their
eigendirections with those scales (sl2core._eigen(a, b, c, d, s), the
routine of eigen_data), or, for
near-coincident directions, their exact directions: _exact.exact_dirs gives
each as an integer vector (x, p + q*sqrt(D)), and _exact.compare_dirs orders
two by the sign of their cross product, in integers.  Every float the
verdict reports is one int/int true division, correctly rounded like
float(Fraction), so it has the bits of the rational value.  A generator is
+-identity on rational input only when its integer form is +-a*I.

Only rational input is scaled, and it is decided with band 0.  Float and
mixed float/rational input keep every denominator 1, where every formula
above is the unscaled one (multiplying by the integer 1 is exact, and no
gcd is taken), so the band never meets a denominator other than 1.

Words here are plain strings over 'A', 'B' whose matrix value is the
left-to-right product ("BAB" means B @ A @ B).  Boundary cases raise
DegenerateTie, which classify_pair reports as a Degenerate verdict.
"""

from __future__ import annotations

from math import gcd, inf, isfinite
from typing import NamedTuple, Union

from . import _exact
from ._record import Record
from .errors import DegenerateTie
from .projgeom import angle_gap, cyclically_ordered, norm_angle
from .sl2core import Mat2, _eigen, check_finite, form_product, integer_scaled, is_pm_identity
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


def pair_unstep(A: Mat2, B: Mat2, sign: str) -> tuple[Mat2, Mat2]:
    """Inverse of a regeneration move (used to build members of a component)."""
    if sign == "+":
        return (A, A.inverse() @ B)
    return (B.inverse() @ A, B)


def apply_fword_inverse(A: Mat2, B: Mat2, fword: str) -> tuple[Mat2, Mat2]:
    """Pair whose walk performs exactly the given sign sequence to reach (A, B)."""
    for sign in reversed(fword):
        A, B = pair_unstep(A, B, sign)
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
# state tests on lowest-terms traces (x, y assumed >= 2); a non-zero band
# comes only with denominator 1, where the scaled quantities are t1 and t2
# themselves.  A test that is neither straight nor twisted is a tie: in the
# band, or (_OVERFLOW) a NaN from float traces whose products leave the
# float range, such as inf - inf

_TWISTED, _STRAIGHT, _BOUNDARY, _OVERFLOW = 1, 0, -1, -2


def _lowest_traces(X, Y, Z, a: int, b: int) -> _Traces:
    """The state of the traces X/a, Y/b and Z/(a*b); scales 1, which float
    input has, are the state as they stand."""
    if a == 1 and b == 1:
        return _Traces(X, Y, Z)
    X, p = _lowest(X, a)
    Y, q = _lowest(Y, b)
    Z, r = _lowest(Z, a * b)
    return _Traces(X, Y, Z, p, q, r)


def _twist_state(s: _Traces, band) -> int:
    # p*q*r t1 and (p*q*r)^2 t2, sharing their products; t1 first, since a
    # successor that is straight by t1 needs no t2
    X, Y, Z, p, q, r = s
    pq = p * q
    XYr, Zpq = X * Y * r, Z * pq
    t1 = XYr - 2 * Zpq
    if t1 < -band:
        return _STRAIGHT
    Xqr, Ypr, pqr = X * (q * r), Y * (p * r), pq * r
    t2 = Xqr * Xqr + Ypr * Ypr + Zpq * Zpq - XYr * Zpq - 4 * pqr * pqr
    if t2 < -band:
        return _STRAIGHT
    if t1 > band and t2 > band:
        return _TWISTED
    # a NaN fails every comparison above; only this rare path reads it
    return _OVERFLOW if t1 != t1 or t2 != t2 else _BOUNDARY


def _tie(test: str, state: int) -> DegenerateTie:
    """The tie of a twist test that came out _BOUNDARY or _OVERFLOW."""
    if state == _OVERFLOW:
        return DegenerateTie(f"{test} twist test overflows the float range")
    return DegenerateTie(f"{test} twist test in the boundary band")


class Step:
    PLUS = "+"
    MINUS = "-"
    FREE = "free"
    ELLIPTIC = "elliptic"


def _step_select_traces(s: _Traces, band):
    """(step, the successor state it steps to, or None when the walk ends)."""
    Z, r = s.Z, s.r
    if abs(Z) < (2 - band) * r:
        return Step.ELLIPTIC, None
    if Z < (-2 + band) * r:
        if Z > (-2 - band) * r:
            raise DegenerateTie("tr AB in the band around -2", Z / r)
        return Step.FREE, None
    if Z < (2 + band) * r:
        # Z < 0 here only on the edge (-2 + band) r, Z = -2r at band 0
        raise DegenerateTie(f"tr AB in the band around {-2 if Z < 0 else 2}", Z / r)
    succ_plus, succ_minus = _step_plus(s), _step_minus(s)
    plus = _twist_state(succ_plus, band)
    minus = _twist_state(succ_minus, band)
    if plus < 0 or minus < 0:
        raise _tie("successor", min(plus, minus))
    if plus == _TWISTED and minus == _TWISTED:
        raise DegenerateTie("both successor pairs test twisted")
    if plus == _STRAIGHT and minus == _STRAIGHT:
        raise DegenerateTie("neither successor pair tests twisted")
    if plus == _TWISTED:
        return Step.PLUS, succ_plus
    return Step.MINUS, succ_minus


# ---------------------------------------------------------------------------
# orientation of a free pair


def _orientation(A, B, BA, exact: bool | None = None) -> int:
    """Orientation of the free pair given as (matrix, scale) forms, with BA
    the form of B @ A; scales other than 1 come only with integer matrices,
    and at scale 1 any matrix is read by _eigen.  exact says whether every
    entry of the pair is exact, read off A and B when None.

    The four directions u_B, u_BA, s_BA and s_A are the angles of
    eigen_data's points, with their bits: _eigen's angles of B, B @ A and A,
    only the four used reduced by norm_angle.  Their least pairwise distance
    is the least of the four cyclic gaps between them in sorted order, since
    either arc between two angles that are not adjacent holds a third, and
    so spans a gap between adjacent ones.  In floats a sorted gap reads 0
    only for equal angles (a difference of two distinct floats is not 0),
    where angle_dist of two angles below pi/2 and one ulp apart can round
    to 0.
    """
    (m, s), (n, t), (k, r) = A, B, BA
    try:
        uB = norm_angle(_eigen(n.a, n.b, n.c, n.d, t)[0])
        uBA, sBA, _, _ = _eigen(k.a, k.b, k.c, k.d, r)
        uBA, sBA = norm_angle(uBA), norm_angle(sBA)
        sA = norm_angle(_eigen(m.a, m.b, m.c, m.d, s)[1])
        w, x, y, z = sorted((uB, uBA, sBA, sA))
        min_gap = min(x - w, y - x, z - y, angle_gap(z, w))
    except OverflowError:  # integer forms beyond the float range: exact order
        min_gap = 0.0
    if min_gap > 100 * DEFAULT.angle or not (
            exact if exact is not None else m.is_exact() and n.is_exact()):
        if min_gap == 0.0:
            raise DegenerateTie("free-pair directions coincide")
        if cyclically_ordered((uB, uBA, sBA, sA)):
            return +1
        if cyclically_ordered((uB, sA, sBA, uBA)):
            return -1
        raise DegenerateTie("free-pair direction order is inconsistent")
    # exact fallback for near-coincident float angles
    uBA, sBA = _exact.exact_dirs(k)
    dirs = [_exact.exact_dirs(n)[0], uBA, sBA, _exact.exact_dirs(m)[1]]
    if _exact.exact_cyclically_ordered(dirs):
        return +1
    if _exact.exact_cyclically_ordered([dirs[0], dirs[3], dirs[2], dirs[1]]):
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
    s = _lowest_traces(X, Y, Z, a, b)
    pqr = s.p * s.q * s.r
    try:
        inv = float(_fricke(s) / (pqr * pqr))
    except OverflowError:  # an exact invariant beyond the float range
        inv = inf if _fricke(s) > 0 else -inf
    state = _twist_state(s, band)
    if state == _STRAIGHT:
        return Principal(sign_pair, inv)
    if state < 0:
        raise _tie("initial", state)

    # floor((x + y) / 4) - 1, with x + y = t0 / (p*q)
    pq = s.p * s.q
    t0 = s.X * s.q + s.Y * s.p
    bound = t0 // (4 * pq) - 1
    fword = []
    k = 0
    while True:
        step, succ = _step_select_traces(s, band)
        if step == Step.FREE:
            # the walked pair, rebuilt by the same products the walk implies
            Ak, Bk = (A1, a), (B1, b)
            for sign in fword:
                if sign == Step.PLUS:
                    Bk = form_product(Ak, Bk)
                else:
                    Ak = form_product(Bk, Ak)
            orient = _orientation(Ak, Bk, form_product(Bk, Ak), exact)
            return NonPrincipal("".join(fword), sign_pair, orient, k, inv)
        if step == Step.ELLIPTIC:
            wa, wb = fword_substitution("".join(fword))
            return EllipticWitness(wa + wb, float(s.Z / s.r), k)
        if k + 1 > bound:
            raise DegenerateTie("walk exceeded its termination bound", t0 / pq)
        s = succ
        fword.append(step)
        k += 1


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
