"""2x2 unimodular matrices: classification, invariant directions, normal forms.

Entries may be floats or ``fractions.Fraction``; arithmetic stays in the
entry domain (exact when the inputs are exact) and only the angle/norm
helpers convert to float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from numbers import Rational

from .errors import (DegenerateInput, NoInvariantDirection, NotCanonicalizable,
                     PreconditionViolated)
from .projgeom import ProjPoint, norm_angle, same_angle
from .tolerances import DEFAULT, Tolerances


def is_exact(value) -> bool:
    return isinstance(value, Rational)


@dataclass(frozen=True)
class Mat2:
    """Real 2x2 matrix, normally of determinant 1."""

    a: float
    b: float
    c: float
    d: float

    # -- construction -----------------------------------------------------

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(1, 0, 0, 1)

    @staticmethod
    def rotation(theta: float) -> "Mat2":
        co, si = math.cos(theta), math.sin(theta)
        return Mat2(co, si, -si, co)

    @staticmethod
    def diagonal(lam) -> "Mat2":
        return Mat2(lam, 0, 0, 1 / lam if is_exact(lam) else 1.0 / lam)

    @staticmethod
    def from_rows(rows) -> "Mat2":
        (a, b), (c, d) = rows
        return Mat2(a, b, c, d)

    def rows(self):
        return ((self.a, self.b), (self.c, self.d))

    # -- algebra -----------------------------------------------------------

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a * other.a + self.b * other.c,
                    self.a * other.b + self.b * other.d,
                    self.c * other.a + self.d * other.c,
                    self.c * other.b + self.d * other.d)

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def scale(self, s) -> "Mat2":
        return Mat2(self.a * s, self.b * s, self.c * s, self.d * s)

    def det(self):
        return self.a * self.d - self.b * self.c

    def trace(self):
        return self.a + self.d

    def inverse(self) -> "Mat2":
        det = self.det()
        return Mat2(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def is_exact(self) -> bool:
        return all(is_exact(v) for v in (self.a, self.b, self.c, self.d))

    def to_float(self) -> "Mat2":
        return Mat2(float(self.a), float(self.b), float(self.c), float(self.d))

    def max_abs_entry(self) -> float:
        return max(abs(float(v)) for v in (self.a, self.b, self.c, self.d))

    def frobenius_sq(self) -> float:
        return sum(float(v) * float(v) for v in (self.a, self.b, self.c, self.d))

    def norm(self) -> float:
        """Spectral norm from the closed-form singular values of a 2x2 matrix."""
        s = self.frobenius_sq()
        det = float(self.det())
        disc = max(s * s - 4.0 * det * det, 0.0)
        return math.sqrt(0.5 * (s + math.sqrt(disc)))

    def dist_to_pm_identity(self) -> float:
        plus = max(abs(float(self.a) - 1), abs(float(self.b)),
                   abs(float(self.c)), abs(float(self.d) - 1))
        minus = max(abs(float(self.a) + 1), abs(float(self.b)),
                    abs(float(self.c)), abs(float(self.d) + 1))
        return min(plus, minus)

    # -- projective action --------------------------------------------------

    def act_angle(self, angle: float) -> float:
        x, y = math.cos(angle), math.sin(angle)
        wx = float(self.a) * x + float(self.b) * y
        wy = float(self.c) * x + float(self.d) * y
        return norm_angle(math.atan2(wy, wx))

    def act(self, p: ProjPoint) -> ProjPoint:
        return ProjPoint(self.act_angle(p.angle))


def check_unimodular(m: Mat2, tol: Tolerances = DEFAULT) -> Mat2:
    if abs(float(m.det()) - 1.0) > tol.det:
        raise DegenerateInput(f"matrix determinant {float(m.det())} is not 1")
    return m


class MatClass(Enum):
    HYPERBOLIC = "hyperbolic"
    PARABOLIC = "parabolic"
    ELLIPTIC = "elliptic"
    PLUS_MINUS_IDENTITY = "pm_identity"


def classify(m: Mat2, tol: Tolerances = DEFAULT) -> MatClass:
    """Trace trichotomy; the band ||tr|-2| <= tol.trace reports parabolic."""
    if m.dist_to_pm_identity() <= tol.identity:
        return MatClass.PLUS_MINUS_IDENTITY
    t = abs(float(m.trace()))
    if t > 2.0 + tol.trace:
        return MatClass.HYPERBOLIC
    if t < 2.0 - tol.trace:
        return MatClass.ELLIPTIC
    return MatClass.PARABOLIC


def eigen_data(m: Mat2):
    """((u, eig_u), (s, eig_s)) with |eig_u| >= 1 >= |eig_s|.

    Defined for non-elliptic matrices away from +-id; for parabolic input the
    two directions coincide.  Exact entries keep the discriminant sign exact,
    which matters for long products with traces barely above 2.
    """
    a, b, c, d = (float(v) for v in (m.a, m.b, m.c, m.d))
    t = a + d
    if m.is_exact():
        tr = m.trace()
        disc = float(tr * tr - 4 * m.det())
    else:
        disc = t * t - 4.0 * float(m.det())
    if disc < 0.0:
        raise NoInvariantDirection("elliptic matrix has no invariant direction")
    r = math.sqrt(max(disc, 0.0))
    lam_u = 0.5 * (t + r) if t >= 0 else 0.5 * (t - r)
    lam_s = float(m.det()) / lam_u if lam_u != 0 else 0.0

    def direction(lam):
        v1 = (b, lam - a)
        v2 = (lam - d, c)
        n1 = v1[0] * v1[0] + v1[1] * v1[1]
        n2 = v2[0] * v2[0] + v2[1] * v2[1]
        v = v1 if n1 >= n2 else v2
        if v[0] == 0.0 and v[1] == 0.0:
            raise NoInvariantDirection("matrix is +-identity")
        return ProjPoint.from_vector(*v)

    return (direction(lam_u), lam_u), (direction(lam_s), lam_s)


def invariant_dirs(m: Mat2, tol: Tolerances = DEFAULT) -> tuple[ProjPoint, ProjPoint]:
    """Unstable and stable directions (equal for parabolic input)."""
    cls = classify(m, tol)
    if cls in (MatClass.ELLIPTIC, MatClass.PLUS_MINUS_IDENTITY):
        raise NoInvariantDirection(f"no invariant direction for {cls.value} matrix")
    (u, _), (s, _) = eigen_data(m)
    return u, s


def unstable_direction(m: Mat2) -> ProjPoint:
    return eigen_data(m)[0][0]


def stable_direction(m: Mat2) -> ProjPoint:
    return eigen_data(m)[1][0]


@dataclass(frozen=True)
class CanonicalPair:
    """Upper/lower triangular normal form of a twisted-candidate pair.

    In the stored basis the first matrix is [[mu, alpha], [0, 1/mu]] and the
    second is [[1/nu, 0], [beta, nu]]; gamma = alpha * beta is basis-free.
    """

    mu: float
    nu: float
    alpha: float
    beta: float
    basis: Mat2
    gamma: float


def gamma_from_traces(x, y, z) -> float:
    """gamma as a function of the three traces (x, y >= 2 assumed).

    The two solutions of t^2 - xy t + (x^2 + y^2 - 4) split the product trace:
    z = (xy - sqrt((x^2-4)(y^2-4)))/2 + gamma.
    """
    disc = (float(x) ** 2 - 4.0) * (float(y) ** 2 - 4.0)
    return float(z) - 0.5 * (float(x) * float(y) - math.sqrt(max(disc, 0.0)))


def canonical_form(A: Mat2, B: Mat2, tol: Tolerances = DEFAULT) -> CanonicalPair:
    if float(A.trace()) < 2.0 - tol.trace or float(B.trace()) < 2.0 - tol.trace:
        raise NotCanonicalizable("both traces must be >= 2")
    for m in (A, B):
        if m.dist_to_pm_identity() <= tol.identity:
            raise NotCanonicalizable("+-identity member admits no canonical basis")
    uA = unstable_direction(A)
    uB = unstable_direction(B)
    if same_angle(uA.angle, uB.angle, tol.angle):
        raise NotCanonicalizable("unstable directions coincide")
    va, vb = uA.vector(), uB.vector()
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
    gamma = alpha * beta
    return CanonicalPair(mu=mu, nu=nu, alpha=alpha, beta=beta, basis=basis,
                         gamma=gamma)


# ---------------------------------------------------------------------------
# bounded conjugation of tuples with bounded traces


def c1_bound(C: float, rotation_stage: bool = False) -> float:
    """Explicit entry bound achieved by normalize_tuple under trace bound C.

    The chain below follows the two-stage construction.  Rotation stage, for
    the matrix with the largest entry-square sum (written (x1, y1, z1, t1),
    after the rotation, with |y1| >= |z1| arranged by an extra quarter turn):
      |x1| <= 2C                    (zeroed combination plus |x1 + t1| <= C,
                                     possibly swapped with t1 by the quarter turn)
      |t1| <= 3C
      |y1 z1| <= 1 + |x1 t1|
      x1^2 + z1^2 + t1^2 <= C5      (using |z1| <= sqrt(|y1 z1|))
    so every entry of every matrix is <= |y1| + C6 with C6 = sqrt(C5); chasing
    the pair bounds |tr A1 Ai| <= C through y1 z_i gives |x_i| <= C2 for all i.
    Balancing stage, valid once |x_i| <= C2:
      |t_i| <= C2 + C,  |y_i z_i| <= C2(C2 + C) + 1,
      |y_i z_j + y_j z_i| <= C + C2^2 + (C2 + C)^2,
      |y_i z_j| <= C4  for all i, j  (quadratic in the symmetric bound),
    and the balancing conjugation makes max|y|, max|z| <= sqrt(C4).
    With rotation_stage, the chain stops at C2, the corner-entry bound that
    normalize_tuple checks after its rotation stage.
    """
    c13 = 2.0 * C
    c15 = c13 + C
    c16 = 1.0 + c13 * c15
    C5 = c13 * c13 + c16 + c15 * c15
    C6 = math.sqrt(C5)
    C7 = c16 + C6 * math.sqrt(c16)
    c22 = c15 * C
    C8 = max(C7 + C + c22, 2.0 * c13 + C)
    C2big = 0.5 * ((C + 2.0 * C8) + math.sqrt((C + 2.0 * C8) ** 2 + 4.0 * (1.0 + 2.0 * C8)))
    C2 = max(2.0 * C6, C2big)
    if rotation_stage:
        return C2
    C3p = C2 + C
    C3pp = C2 * C3p + 1.0
    C3ppp = C + C2 * C2 + C3p * C3p
    C4 = max(C3pp, 0.5 * (C3ppp + math.sqrt(C3ppp * C3ppp + 4.0 * C3pp * C3pp)))
    return max(C2, C3p, math.sqrt(C4), 1.0)


def _conjugate_all(R: Mat2, mats) -> list[Mat2]:
    Rinv = R.inverse()
    return [R @ m.to_float() @ Rinv for m in mats]


def normalize_tuple(mats, C: float, tol: Tolerances = DEFAULT) -> tuple[Mat2, list[Mat2]]:
    """Conjugate the tuple by a single R so every entry is <= c1_bound(C).

    Preconditions |tr A_i| <= C and |tr A_i A_j| <= C are checked.  The
    construction is a rotation (fixing the largest matrix's diagonal pressure)
    followed by a diagonal balancing of the off-diagonal maxima; both stages
    snap to the identity when their goal already holds, which makes the map
    idempotent up to rounding.
    """
    mats = [m.to_float() for m in mats]
    for i, m in enumerate(mats):
        if abs(m.trace()) > C:
            raise PreconditionViolated(f"|tr A_{i}| = {abs(m.trace())} > {C}")
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            t = (mats[i] @ mats[j]).trace()
            if abs(t) > C:
                raise PreconditionViolated(f"|tr A_{i} A_{j}| = {abs(t)} > {C}")

    R = Mat2.identity()
    work = list(mats)

    # rotation stage, skipped when the balancing-stage hypothesis holds already
    x_cap = c1_bound(C, rotation_stage=True)
    if max(abs(m.a) for m in work) > x_cap:
        k = max(range(len(work)), key=lambda i: work[i].frobenius_sq())
        m = work[k]
        theta0 = 0.5 * math.atan2(-m.a, 0.5 * (m.b + m.c))
        candidates = []
        for theta in (theta0, theta0 + 0.5 * math.pi):
            S = Mat2.rotation(theta)
            mm = S @ m @ S.inverse()
            candidates.append((theta, S, mm))
        # prefer |y1| >= |z1| (the bound chase needs it); tie-break on |x1|
        candidates.sort(key=lambda c: (abs(c[2].b) < abs(c[2].c), abs(c[2].a)))
        theta, S, _ = candidates[0]
        work = _conjugate_all(S, work)
        R = S @ R
        if max(abs(m.a) for m in work) > x_cap * (1.0 + 1e-9):
            raise PreconditionViolated("rotation stage failed to bound the corner entries")

    # balancing stage
    ys = max(abs(m.b) for m in work)
    zs = max(abs(m.c) for m in work)
    if ys > 0.0 and zs > 0.0:
        lam2 = math.sqrt(zs / ys)
    elif ys > 0.0:
        lam2 = 1.0 / ys
    elif zs > 0.0:
        lam2 = zs
    else:
        lam2 = 1.0
    if lam2 != 1.0:
        D = Mat2.diagonal(math.sqrt(lam2))
        work = _conjugate_all(D, work)
        R = D @ R
    return R, work
