"""Decision procedure for pairs over the full 2-shift.

The classification walks the pair through the two regeneration moves

    step_plus(A, B)  = (A, A@B)        step_minus(A, B) = (B@A, B)

whose trace shadows are

    trace_step_plus(x, y, z)  = (x, z, x*z - y)
    trace_step_minus(x, y, z) = (z, y, y*z - x)

both preserving fricke(x, y, z) = x^2 + y^2 + z^2 - x*y*z.

With both traces normalized to be >= 2, the interleaving ("twisted") test is
purely rational: writing t1 = x*y - 2*z and t2 = fricke - 4, the quantity
gamma of the triangular normal form satisfies

    gamma < 0  iff  t1 > 0 and t2 > 0,

because 2*gamma = 2z - x*y + sqrt((x^2-4)(y^2-4)) and
t1^2 - (x^2-4)(y^2-4) = 4*t2.  On exact (rational) inputs the whole walk is
decided without any boundary band; on floats a band around each strict
comparison reports a degenerate outcome instead of guessing.

The walk runs on integer-scaled traces (X, Y, Z, a, b), standing for
x = X/a, y = Y/b, z = Z/(a*b) with positive integer scales a, b.  On
rational input a and b start as the least common denominators of A and B,
so that a*A and b*B are integer matrices, X = tr(a*A), Y = tr(b*B) and Z is
the trace of their product.  The moves keep every quantity an integer:

    plus:  (X, Y, Z, a, b) -> (X, Z, X*Z - Y*a*a, a, a*b)
    minus: (X, Y, Z, a, b) -> (Z, Y, Y*Z - X*b*b, a*b, b)

and the decision quantities scale by positive integers,

    a*b * t1       = X*Y - 2*Z
    a^2*b^2 * t2   = X^2*b^2 + Y^2*a^2 + Z^2 - X*Y*Z - 4*a^2*b^2
    a*b * (|z| - 2) = |Z| - 2*a*b,

so their signs, which are all the walk reads, are decided by exact integer
arithmetic without any Fraction; so is the termination bound
floor((x + y)/4) - 1 = (X*b + Y*a) // (4*a*b) - 1.  The walked pair is
rebuilt as integer matrix products with the same scales, and its orientation
reads their eigen data with those scales (eigen_data(n, s)), or, for
near-coincident directions, their exact directions: _exact.exact_dirs gives
each as an integer vector (x, p + q*sqrt(D)), and _exact.compare_dirs orders
two by the sign of their cross product, in integers.  Every float
the verdict reports is one int/int true division, correctly rounded
like float(Fraction), so it has the bits of the rational value.

Only rational input is scaled, and it is decided with band 0.  Float and
mixed float/rational input take a = b = 1, where every formula above is the
unscaled one (multiplying by the integer 1 is exact), so the band never
meets a scale other than 1.  trace_step_plus, trace_step_minus and fricke
are the scale-1 case of the same step functions.

Words here are plain strings over 'A', 'B' whose matrix value is the
left-to-right product ("BAB" means B @ A @ B).  Boundary cases raise
DegenerateTie, which classify_pair reports as a Degenerate verdict.
"""

from __future__ import annotations

from typing import NamedTuple, Union

from . import _exact
from ._record import Record
from .errors import DegenerateTie
from .projgeom import angle_dist, cyclically_ordered
from .sl2core import Mat2, eigen_data, integer_scaled
from .tolerances import DEFAULT


class TraceTriple(NamedTuple):
    x: object  # tr A
    y: object  # tr B
    z: object  # tr AB


class _Scaled(NamedTuple):
    """Traces x = X/a, y = Y/b, z = Z/(a*b) with positive integer scales."""

    X: object
    Y: object
    Z: object
    a: int = 1
    b: int = 1


def _step_plus(s: _Scaled) -> _Scaled:
    X, Y, Z, a, b = s
    return _Scaled(X, Z, X * Z - Y * a * a, a, a * b)


def _step_minus(s: _Scaled) -> _Scaled:
    X, Y, Z, a, b = s
    return _Scaled(Z, Y, Y * Z - X * b * b, a * b, b)


def _fricke(s: _Scaled):
    """a^2 b^2 times the Fricke form of the traces s stands for."""
    X, Y, Z, a, b = s
    Xb, Ya = X * b, Y * a
    return Xb * Xb + Ya * Ya + Z * Z - X * Y * Z


def trace_step_plus(t: TraceTriple) -> TraceTriple:
    return TraceTriple(*_step_plus(_Scaled(*t))[:3])


def trace_step_minus(t: TraceTriple) -> TraceTriple:
    return TraceTriple(*_step_minus(_Scaled(*t))[:3])


def fricke(t: TraceTriple):
    return _fricke(_Scaled(*t))


def pair_step_plus(A: Mat2, B: Mat2) -> tuple[Mat2, Mat2]:
    return (A, A @ B)


def pair_step_minus(A: Mat2, B: Mat2) -> tuple[Mat2, Mat2]:
    return (B @ A, B)


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


class NonPrincipal(Record):
    __slots__ = ("fword", "sign_pair", "orientation", "iterations", "invariant")


class EllipticWitness(Record):
    __slots__ = ("word", "trace", "iterations")


class Degenerate(Record):
    __slots__ = ("reason", "value")
    _defaults = {"value": 0.0}


Classification2 = Union[Principal, NonPrincipal, EllipticWitness, Degenerate]


# ---------------------------------------------------------------------------
# state tests on scaled traces (x, y assumed >= 2); a non-zero band comes
# only with scale 1, where the scaled quantities are t1 and t2 themselves

_TWISTED, _STRAIGHT, _BOUNDARY = 1, 0, -1


def _twist_state(s: _Scaled, band) -> int:
    X, Y, Z, a, b = s
    t1 = X * Y - 2 * Z
    ab = a * b
    t2 = _fricke(s) - 4 * ab * ab
    if t1 > band and t2 > band:
        return _TWISTED
    if t1 < -band or t2 < -band:
        return _STRAIGHT
    return _BOUNDARY


def is_free(A: Mat2, B: Mat2, band: float = 0.0) -> bool:
    """|tr A|, |tr B|, |tr AB| > 2 with a negative trace product."""
    x, y, z = A.trace(), B.trace(), (A @ B).trace()
    for name, v in (("tr A", x), ("tr B", y), ("tr AB", z)):
        if abs(abs(v) - 2) <= band:
            raise DegenerateTie(f"|{name}| in the band around 2", v)
    return abs(x) > 2 and abs(y) > 2 and abs(z) > 2 and x * y * z < 0


def is_twisted(A: Mat2, B: Mat2, band: float = 0.0) -> bool:
    """Interleaved invariant directions, decided from traces alone."""
    for m in (A, B):
        if m.dist_to_pm_identity() <= DEFAULT.identity:
            return False
        if abs(float(m.trace())) < 2.0:
            return False  # elliptic members are never twisted
    x, y, z = A.trace(), B.trace(), (A @ B).trace()
    sx = 1 if x >= 0 else -1
    sy = 1 if y >= 0 else -1
    st = _twist_state(_Scaled(sx * x, sy * y, sx * sy * z), band)
    if st == _BOUNDARY and band > 0:
        raise DegenerateTie("twist test in the boundary band")
    return st == _TWISTED


class Step:
    PLUS = "+"
    MINUS = "-"
    FREE = "free"
    ELLIPTIC = "elliptic"


def step_select(A: Mat2, B: Mat2, band: float = 0.0) -> str:
    """Which alternative holds for a twisted pair with tr A, tr B >= 2."""
    s = _Scaled(A.trace(), B.trace(), (A @ B).trace())
    return _step_select_traces(s, band)


def _step_select_traces(s: _Scaled, band) -> str:
    _, _, Z, a, b = s
    ab = a * b
    if abs(Z) < (2 - band) * ab:
        return Step.ELLIPTIC
    if Z < (-2 + band) * ab:
        if Z > (-2 - band) * ab:
            raise DegenerateTie("tr AB in the band around -2", Z / ab)
        return Step.FREE
    if Z < (2 + band) * ab:
        # Z < 0 here only on the edge (-2 + band) ab, Z = -2ab at band 0
        raise DegenerateTie(f"tr AB in the band around {-2 if Z < 0 else 2}", Z / ab)
    plus = _twist_state(_step_plus(s), band)
    minus = _twist_state(_step_minus(s), band)
    if plus == _BOUNDARY or minus == _BOUNDARY:
        raise DegenerateTie("successor twist test in the boundary band")
    if plus == _TWISTED and minus == _TWISTED:
        raise DegenerateTie("both successor pairs test twisted")
    if plus == _STRAIGHT and minus == _STRAIGHT:
        raise DegenerateTie("neither successor pair tests twisted")
    return Step.PLUS if plus == _TWISTED else Step.MINUS


# ---------------------------------------------------------------------------
# orientation of a free pair


def orientation_of_free_pair(A: Mat2, B: Mat2) -> int:
    """+1 when u_B, u_BA, s_BA, s_A occur positively on P1, else -1."""
    return _orientation(A, B, B @ A, 1, 1)


def _orientation(A: Mat2, B: Mat2, BA: Mat2, a: int, b: int) -> int:
    """Orientation of the free pair A/a, B/b, given BA = B @ A; scales other
    than 1 come only with integer matrices, and at scale 1 any matrix is
    read by eigen_data."""
    (uB, _), _ = eigen_data(B, b)
    (uBA, _), (sBA, _) = eigen_data(BA, a * b)
    _, (sA, _) = eigen_data(A, a)
    pts = (uB, uBA, sBA, sA)
    min_gap = min(angle_dist(pts[i].angle, pts[j].angle)
                  for i in range(4) for j in range(i + 1, 4))
    if min_gap > 100 * DEFAULT.angle or not (A.is_exact() and B.is_exact()):
        if min_gap == 0.0:
            raise DegenerateTie("free-pair directions coincide")
        if cyclically_ordered(pts, tol=0.0):
            return +1
        if cyclically_ordered((pts[0], pts[3], pts[2], pts[1]), tol=0.0):
            return -1
        raise DegenerateTie("free-pair direction order is inconsistent")
    # exact fallback for near-coincident float angles
    uBA, sBA = _exact.exact_dirs(BA)
    dirs = [_exact.exact_dirs(B)[0], uBA, sBA, _exact.exact_dirs(A)[1]]
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
    integer-scaled traces; boundary cases then mean genuine boundary points
    and come back Degenerate.
    """
    try:
        return _classify(A, B)
    except DegenerateTie as tie:
        return Degenerate(reason=str(tie), value=tie.value)


def _classify(A: Mat2, B: Mat2) -> Classification2:
    for name, m in (("A", A), ("B", B)):
        if m.dist_to_pm_identity() <= DEFAULT.identity:
            return Degenerate(reason=f"generator {name} is +-identity")

    # Only exact input is scaled, and it has band 0: the band only ever
    # meets scale 1, where the scaled decision quantities are the plain ones.
    exact = A.is_exact() and B.is_exact()
    if exact:
        band = 0
        (A, a), (B, b) = integer_scaled(A), integer_scaled(B)
    else:
        band, a, b = DEFAULT.band, 1, 1

    sa = 1 if A.trace() >= 0 else -1
    sb = 1 if B.trace() >= 0 else -1
    sign_pair = (sa, sb)
    A1 = A if sa > 0 else -A
    B1 = B if sb > 0 else -B
    X, Y = A1.trace(), B1.trace()

    for name, T, scale, sign in (("A", X, a, sa), ("B", Y, b, sb)):
        if abs(T - 2 * scale) <= band:
            return Degenerate(reason=f"generator {name} is parabolic (band)",
                              value=float(T / scale))
        if T < 2 * scale:
            return EllipticWitness(word=name, trace=float(sign * T / scale),
                                   iterations=0)

    s = _Scaled(X, Y, (A1 @ B1).trace(), a, b)
    inv = float(_fricke(s) / (a * a * b * b))
    state = _twist_state(s, band)
    if state == _BOUNDARY:
        raise DegenerateTie("initial twist test in the boundary band")
    if state == _STRAIGHT:
        return Principal(sign_pair=sign_pair, invariant=inv)

    # floor((x + y) / 4) - 1, with x + y = t0 / (a*b)
    t0 = X * b + Y * a
    bound = t0 // (4 * a * b) - 1
    fword = []
    k = 0
    while True:
        step = _step_select_traces(s, band)
        if step == Step.FREE:
            # the walked pair, rebuilt by the same products the walk implies;
            # its scales are those of the walked traces
            Ak, Bk = A1, B1
            for sign in fword:
                step_pair = pair_step_plus if sign == Step.PLUS else pair_step_minus
                Ak, Bk = step_pair(Ak, Bk)
            orient = _orientation(Ak, Bk, Bk @ Ak, s.a, s.b)
            return NonPrincipal(fword="".join(fword), sign_pair=sign_pair,
                                orientation=orient, iterations=k, invariant=inv)
        if step == Step.ELLIPTIC:
            wa, wb = fword_substitution("".join(fword))
            return EllipticWitness(word=wa + wb, trace=float(s.Z / (s.a * s.b)),
                                   iterations=k)
        if k + 1 > bound:
            raise DegenerateTie("walk exceeded its termination bound",
                                t0 / (a * b))
        s = _step_plus(s) if step == Step.PLUS else _step_minus(s)
        fword.append(step)
        k += 1


def classification_to_dict(c: Classification2) -> dict:
    if isinstance(c, Principal):
        return {"variant": "principal",
                "sign_pair": _signs(c.sign_pair),
                "invariant": c.invariant}
    if isinstance(c, NonPrincipal):
        return {"variant": "non_principal",
                "fword": c.fword,
                "sign_pair": _signs(c.sign_pair),
                "orientation": "positive" if c.orientation > 0 else "negative",
                "iterations": c.iterations,
                "invariant": c.invariant}
    if isinstance(c, EllipticWitness):
        return {"variant": "elliptic",
                "witness": c.word,
                "trace": c.trace,
                "iterations": c.iterations}
    return {"variant": "degenerate", "reason": c.reason, "value": c.value}


def _signs(pair) -> str:
    return "".join("+" if s > 0 else "-" for s in pair)
