"""2x2 unimodular matrices: classification, invariant directions, normal forms.

Entries may be floats or ``fractions.Fraction``; arithmetic stays in the
entry domain (exact when the inputs are exact).  Exact matrices become floats
in two ways, both correctly rounded and so with the same bits: as an integer
matrix n and one positive integer scale s (integer_scaled, the one exact
representation), whose entries and eigen data are int / int divisions
(eigen_data(n, s)), or entry by entry through to_float(), which the float
stages call once per matrix before their angle work.
"""

from __future__ import annotations

import math
from numbers import Rational

from ._record import Record
from .errors import DegenerateInput, NoInvariantDirection, PreconditionViolated
from .projgeom import ProjPoint, norm_angle
from .tolerances import DEFAULT


# entry type -> whether it is a Rational; filled by is_exact on first sight
_EXACT_TYPES = {int: True, float: False}


def is_exact(value) -> bool:
    """isinstance(value, numbers.Rational), read once per entry type: the
    answer for a type is kept from its first entry, a dict lookup after
    that where the ABC check costs ten times as much.  A type registered
    with Rational.register after is_exact has first seen it keeps the
    answer it had then (False), so register a type before its entries
    reach the library."""
    t = type(value)
    exact = _EXACT_TYPES.get(t)
    if exact is None:
        exact = _EXACT_TYPES[t] = issubclass(t, Rational)
    return exact


class Mat2(Record):
    """Real 2x2 matrix [[a, b], [c, d]], normally of determinant 1."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        _set_a(self, a)
        _set_b(self, b)
        _set_c(self, c)
        _set_d(self, d)

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

    # -- algebra -----------------------------------------------------------

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a * other.a + self.b * other.c,
                    self.a * other.b + self.b * other.d,
                    self.c * other.a + self.d * other.c,
                    self.c * other.b + self.d * other.d)

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def det(self):
        return self.a * self.d - self.b * self.c

    def trace(self):
        return self.a + self.d

    def inverse(self) -> "Mat2":
        det = self.det()
        return Mat2(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def is_exact(self) -> bool:
        return (is_exact(self.a) and is_exact(self.b) and is_exact(self.c)
                and is_exact(self.d))

    def to_float(self) -> "Mat2":
        """The matrix with float entries: self when they already are."""
        if (type(self.a) is float and type(self.b) is float
                and type(self.c) is float and type(self.d) is float):
            return self
        return Mat2(float(self.a), float(self.b), float(self.c), float(self.d))

    def frobenius_sq(self) -> float:
        return sum(float(v) * float(v) for v in (self.a, self.b, self.c, self.d))

    def dist_to_pm_identity(self) -> float:
        a, b, c, d = float(self.a), float(self.b), float(self.c), float(self.d)
        plus = max(abs(a - 1), abs(b), abs(c), abs(d - 1))
        minus = max(abs(a + 1), abs(b), abs(c), abs(d + 1))
        return min(plus, minus)

    # -- projective action --------------------------------------------------

    def act_angle(self, angle: float) -> float:
        x, y = math.cos(angle), math.sin(angle)
        wx = float(self.a) * x + float(self.b) * y
        wy = float(self.c) * x + float(self.d) * y
        return norm_angle(math.atan2(wy, wx))


# the slots' own setters, which the frozen __setattr__ does not block
_set_a, _set_b, _set_c, _set_d = (Mat2.__dict__[f].__set__ for f in Mat2.__slots__)


def spectral_norm(a, b, c, d, s: int = 1) -> float:
    """Spectral norm of [[a, b], [c, d]] / s from the closed-form singular
    values; s > 1 only for integer entries, read as in eigen_data."""
    if s == 1:
        fa, fb, fc, fd = float(a), float(b), float(c), float(d)
        det = float(a * d - b * c)
    else:
        fa, fb, fc, fd, det = a / s, b / s, c / s, d / s, (a * d - b * c) / (s * s)
    sq = fa * fa + fb * fb + fc * fc + fd * fd
    disc = max(sq * sq - 4.0 * det * det, 0.0)
    return math.sqrt(0.5 * (sq + math.sqrt(disc)))


def integer_scaled(m: Mat2) -> tuple[Mat2, int]:
    """(s*m, s) for the least positive integer s that makes m integral; a
    float entry is read as the dyadic rational it is (as_integer_ratio)."""
    ratios = [v.as_integer_ratio() for v in (m.a, m.b, m.c, m.d)]
    s = math.lcm(*(q for _, q in ratios))
    return Mat2(*(p * (s // q) for p, q in ratios)), s


def form_product(f, g):
    """The form of f @ g, for (matrix, scale) forms f and g, in lowest terms:
    divided by the gcd of its entries and scale; scale 1 (float input)
    passes through."""
    (m, s), (n, t) = f, g
    mn, st = m @ n, s * t
    if st == 1:
        return mn, 1
    k = math.gcd(mn.a, mn.b, mn.c, mn.d, st)
    if k == 1:
        return mn, st
    return Mat2(mn.a // k, mn.b // k, mn.c // k, mn.d // k), st // k


def check_finite(mats) -> bool:
    """The input gate of every exported function that takes matrices:
    DegenerateInput naming the first NaN or infinite entry, else whether
    every entry is exact (is_exact), which the caller reads instead of
    scanning the matrices again.  A float entry is read with math.isfinite;
    an exact one is skipped, since a Rational is finite and float() of a
    huge one overflows.  Products and walks inside the library are not
    checked again."""
    exact, exact_type = True, _EXACT_TYPES.get
    for i, m in enumerate(mats):
        for v in (m.a, m.b, m.c, m.d):
            known = exact_type(type(v))
            if known or (known is None and is_exact(v)):
                continue
            exact = False
            if math.isfinite(v):
                continue
            name = "abcd"[(m.a, m.b, m.c, m.d).index(v)]
            raise DegenerateInput(f"entry {v!r} is not finite (entry {name} of matrix {i})")
    return exact


def check_unimodular(m: Mat2) -> Mat2:
    """m, unless check_finite refuses it or its determinant, read exactly (a
    float as the dyadic rational it is), is not 1, within DEFAULT.det on
    float or mixed input: DegenerateInput.  In integers, |det n - s^2| is
    held against DEFAULT.det s^2 for n, s = integer_scaled(m); the message's
    det n / s^2 raises OverflowError past the float range."""
    check_finite((m,))
    n, s = integer_scaled(m)
    det, ss = n.det(), s * s
    tol, den = (0, 1) if m.is_exact() else DEFAULT.det.as_integer_ratio()
    if abs(det - ss) * den > tol * ss:
        raise DegenerateInput(f"matrix determinant {det / ss} is not 1")
    return m


def is_pm_identity(m: Mat2, s: int = 1) -> bool:
    """m / s = +-I: read exactly (m = +-s I) on exact entries, within
    DEFAULT.identity entrywise on float ones.  A scale s > 1 needs an
    integer matrix m, as in eigen_data."""
    if m.is_exact():
        return m.b == 0 and m.c == 0 and m.a == m.d and abs(m.a) == s
    # an off-diagonal entry past the tolerance decides it: the distance is
    # then at least that entry, or NaN
    tol = DEFAULT.identity
    if abs(float(m.b)) > tol or abs(float(m.c)) > tol:
        return False
    return m.dist_to_pm_identity() <= tol


def eigen_data(m: Mat2, s: int = 1):
    """((u, eig_u), (s, eig_s)) of m / s, with |eig_u| >= 1 >= |eig_s|.

    Defined for non-elliptic matrices away from +-id; for parabolic input the
    two directions coincide.  Exact entries keep the discriminant sign exact,
    which matters for long products with traces barely above 2.  A scale
    s > 1 needs an integer matrix m (integer_scaled gives the least s); every
    float is then one int / int division, correctly rounded like
    float(Fraction), so the result has the same bits for any scale.
    """
    u, v, lam_u, lam_s = _eigen(m.a, m.b, m.c, m.d, s)
    return (ProjPoint(u), lam_u), (ProjPoint(v), lam_s)


def eigen_angles(a, b, c, d, s: int = 1) -> tuple[float, float]:
    """The angles of eigen_data(Mat2(a, b, c, d), s)'s directions, with the
    same bits, for the searches that read entry tuples."""
    u, v, _, _ = _eigen(a, b, c, d, s)
    return norm_angle(u), norm_angle(v)


def _eigen(a, b, c, d, s: int) -> tuple[float, float, float, float]:
    """(angle_u, angle_s, eig_u, eig_s) of [[a, b], [c, d]] / s, in floats:
    each angle is atan2's of the longer of the eigenvector candidates
    (b, lam - a) and (lam - d, c), in (-pi, pi]; ProjPoint and eigen_angles
    reduce it into [0, pi) with norm_angle."""
    if s == 1 and not (is_exact(a) and is_exact(b) and is_exact(c) and is_exact(d)):
        det = float(a * d - b * c)
        a, b, c, d = float(a), float(b), float(c), float(d)
        disc = (a + d) * (a + d) - 4.0 * det
    else:
        if s == 1:
            n, s = integer_scaled(Mat2(a, b, c, d))
            a, b, c, d = n.a, n.b, n.c, n.d
        ss, nd, tr = s * s, a * d - b * c, a + d
        disc, det = (tr * tr - 4 * nd) / ss, nd / ss
        a, b, c, d = a / s, b / s, c / s, d / s
    if disc < 0.0:
        raise NoInvariantDirection("elliptic matrix has no invariant direction")
    t = a + d
    r = math.sqrt(disc)  # disc >= 0 here, or NaN
    lam_u = 0.5 * (t + r) if t >= 0 else 0.5 * (t - r)
    lam_s = det / lam_u if lam_u != 0 else 0.0
    out = []
    for lam in (lam_u, lam_s):
        x, y, x2, y2 = b, lam - a, lam - d, c
        if not x * x + y * y >= x2 * x2 + y2 * y2:
            x, y = x2, y2
        if x == 0.0 and y == 0.0:
            raise NoInvariantDirection("matrix is +-identity")
        out.append(math.atan2(y, x))
    return out[0], out[1], lam_u, lam_s


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


def normalize_tuple(mats, C: float) -> tuple[Mat2, list[Mat2]]:
    """Conjugate the tuple by a single R so every entry is <= c1_bound(C).

    C must be a finite number >= 0, and the preconditions |tr A_i| <= C and
    |tr A_i A_j| <= C are checked.  The construction is a rotation (fixing
    the largest matrix's diagonal pressure) followed by a diagonal balancing
    of the off-diagonal maxima; both stages snap to the identity when their
    goal already holds, which makes the map idempotent up to rounding.
    Each matrix must pass check_unimodular, since the bound's chain reads
    |y z| <= 1 + |x t|, which holds at det 1.
    """
    check_finite(mats)
    for m in mats:
        check_unimodular(m)
    if not 0.0 <= C < math.inf:  # NaN fails both comparisons
        raise PreconditionViolated(f"trace bound {C} is not a finite number >= 0")
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
