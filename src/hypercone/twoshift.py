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

Words here are plain strings over 'A', 'B' whose matrix value is the
left-to-right product ("BAB" means B @ A @ B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

from . import _exact
from .errors import DegenerateTie
from .projgeom import angle_dist, cyclically_ordered
from .sl2core import Mat2, eigen_data
from .symdyn import LETTERS
from .tolerances import DEFAULT


class TraceTriple(NamedTuple):
    x: object  # tr A
    y: object  # tr B
    z: object  # tr AB


def trace_step_plus(t: TraceTriple) -> TraceTriple:
    x, y, z = t
    return TraceTriple(x, z, x * z - y)


def trace_step_minus(t: TraceTriple) -> TraceTriple:
    x, y, z = t
    return TraceTriple(z, y, y * z - x)


def fricke(t: TraceTriple):
    x, y, z = t
    return x * x + y * y + z * z - x * y * z


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


def eval_string(mats, word: str) -> Mat2:
    """Left-to-right product of the word over mats = (A, B[, ...])."""
    out = None
    for ch in word:
        m = mats[LETTERS.index(ch)]
        out = m if out is None else out @ m
    return out


# ---------------------------------------------------------------------------
# classification outcomes


@dataclass(frozen=True)
class Principal:
    sign_pair: tuple[int, int]
    invariant: float


@dataclass(frozen=True)
class NonPrincipal:
    fword: str
    sign_pair: tuple[int, int]
    orientation: int
    iterations: int
    invariant: float


@dataclass(frozen=True)
class EllipticWitness:
    word: str
    trace: float
    iterations: int


@dataclass(frozen=True)
class Degenerate:
    reason: str
    value: float = 0.0


Classification2 = Union[Principal, NonPrincipal, EllipticWitness, Degenerate]


# ---------------------------------------------------------------------------
# state tests on trace triples (x, y assumed >= 2)

_TWISTED, _STRAIGHT, _BOUNDARY = 1, 0, -1


def _twist_state(t: TraceTriple, band) -> int:
    x, y, z = t
    t1 = x * y - 2 * z
    t2 = x * x + y * y + z * z - x * y * z - 4
    if t1 > band and t2 > band:
        return _TWISTED
    if t1 < -band or t2 < -band:
        return _STRAIGHT
    return _BOUNDARY


class _DegenerateEscape(Exception):
    def __init__(self, reason: str, value=0.0):
        self.reason = reason
        self.value = float(value)


def is_free(A: Mat2, B: Mat2, band: float = 0.0) -> bool:
    """|tr A|, |tr B|, |tr AB| > 2 with a negative trace product."""
    x, y, z = A.trace(), B.trace(), (A @ B).trace()
    for name, v in (("tr A", x), ("tr B", y), ("tr AB", z)):
        if abs(abs(v) - 2) <= band:
            raise _DegenerateEscape(f"|{name}| in the band around 2", v)
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
    st = _twist_state(TraceTriple(sx * x, sy * y, sx * sy * z), band)
    if st == _BOUNDARY and band > 0:
        raise _DegenerateEscape("twist test in the boundary band")
    return st == _TWISTED


class Step:
    PLUS = "+"
    MINUS = "-"
    FREE = "free"
    ELLIPTIC = "elliptic"


def step_select(A: Mat2, B: Mat2, band: float = 0.0) -> str:
    """Which alternative holds for a twisted pair with tr A, tr B >= 2."""
    t = TraceTriple(A.trace(), B.trace(), (A @ B).trace())
    return _step_select_traces(t, band)


def _step_select_traces(t: TraceTriple, band) -> str:
    x, y, z = t
    if abs(z) < 2 - band:
        return Step.ELLIPTIC
    if z < -2 + band:
        if z > -2 - band:
            raise _DegenerateEscape("tr AB in the band around -2", z)
        return Step.FREE
    if z < 2 + band:
        raise _DegenerateEscape("tr AB in the band around 2", z)
    plus = _twist_state(trace_step_plus(t), band)
    minus = _twist_state(trace_step_minus(t), band)
    if plus == _BOUNDARY or minus == _BOUNDARY:
        raise _DegenerateEscape("successor twist test in the boundary band")
    if plus == _TWISTED and minus == _TWISTED:
        raise DegenerateTie("both successor pairs test twisted")
    if plus == _STRAIGHT and minus == _STRAIGHT:
        raise DegenerateTie("neither successor pair tests twisted")
    return Step.PLUS if plus == _TWISTED else Step.MINUS


# ---------------------------------------------------------------------------
# orientation of a free pair


def _orientation_points(A: Mat2, B: Mat2):
    BA = B @ A
    (uB, _), _ = eigen_data(B)
    (uBA, _), (sBA, _) = eigen_data(BA)
    _, (sA, _) = eigen_data(A)
    return uB, uBA, sBA, sA


def orientation_of_free_pair(A: Mat2, B: Mat2) -> int:
    """+1 when u_B, u_BA, s_BA, s_A occur positively on P1, else -1."""
    pts = _orientation_points(A, B)
    min_gap = min(angle_dist(pts[i].angle, pts[j].angle)
                  for i in range(4) for j in range(i + 1, 4))
    if min_gap > 100 * DEFAULT.angle or not (A.is_exact() and B.is_exact()):
        if cyclically_ordered(pts, tol=0.0):
            return +1
        if cyclically_ordered((pts[0], pts[3], pts[2], pts[1]), tol=0.0):
            return -1
        raise _DegenerateEscape("free-pair direction order is inconsistent")
    # exact fallback for rational pairs with near-coincident float angles
    BA = B @ A
    dirs = [_exact.exact_unstable_dir(B), _exact.exact_unstable_dir(BA),
            _exact.exact_stable_dir(BA), _exact.exact_stable_dir(A)]
    if _exact.exact_cyclically_ordered(dirs):
        return +1
    if _exact.exact_cyclically_ordered([dirs[0], dirs[3], dirs[2], dirs[1]]):
        return -1
    raise _DegenerateEscape("free-pair direction order is inconsistent")


# ---------------------------------------------------------------------------
# the decision algorithm


def classify_pair(A: Mat2, B: Mat2) -> Classification2:
    """Decide membership and component data for a pair over the full 2-shift.

    Exact inputs (int/Fraction entries) are decided with band 0; boundary
    cases then mean genuine boundary points and come back Degenerate.
    """
    band = 0 if A.is_exact() and B.is_exact() else DEFAULT.band
    try:
        return _classify(A, B, band)
    except _DegenerateEscape as esc:
        return Degenerate(reason=esc.reason, value=esc.value)
    except DegenerateTie as tie:
        return Degenerate(reason=str(tie))


def _classify(A: Mat2, B: Mat2, band) -> Classification2:
    for name, m in (("A", A), ("B", B)):
        if m.dist_to_pm_identity() <= DEFAULT.identity:
            return Degenerate(reason=f"generator {name} is +-identity")

    x0, y0 = A.trace(), B.trace()
    sa = 1 if x0 >= 0 else -1
    sb = 1 if y0 >= 0 else -1
    sign_pair = (sa, sb)
    A1 = A if sa > 0 else -A
    B1 = B if sb > 0 else -B

    for name, m in (("A", A1), ("B", B1)):
        t = m.trace()
        if abs(t - 2) <= band:
            return Degenerate(reason=f"generator {name} is parabolic (band)",
                              value=float(t))
        if t < 2:
            return EllipticWitness(word=name, trace=float(A.trace() if name == "A"
                                                          else B.trace()),
                                   iterations=0)

    t = TraceTriple(A1.trace(), B1.trace(), (A1 @ B1).trace())
    inv = float(fricke(t))
    state = _twist_state(t, band)
    if state == _BOUNDARY:
        raise _DegenerateEscape("initial twist test in the boundary band")
    if state == _STRAIGHT:
        return Principal(sign_pair=sign_pair, invariant=inv)

    t0 = t.x + t.y
    bound = math.floor(t0 / 4) - 1
    fword = []
    k = 0
    while True:
        step = _step_select_traces(t, band)
        if step == Step.FREE:
            # the walked pair, rebuilt by the same products the walk implies
            Ak, Bk = A1, B1
            for sign in fword:
                step_pair = pair_step_plus if sign == Step.PLUS else pair_step_minus
                Ak, Bk = step_pair(Ak, Bk)
            orient = orientation_of_free_pair(Ak, Bk)
            return NonPrincipal(fword="".join(fword), sign_pair=sign_pair,
                                orientation=orient, iterations=k, invariant=inv)
        if step == Step.ELLIPTIC:
            wa, wb = fword_substitution("".join(fword))
            return EllipticWitness(word=wa + wb, trace=float(t.z), iterations=k)
        if k + 1 > bound:
            raise _DegenerateEscape("walk exceeded its termination bound", float(t0))
        t = trace_step_plus(t) if step == Step.PLUS else trace_step_minus(t)
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
