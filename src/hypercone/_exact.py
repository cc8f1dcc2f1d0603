"""Exact order of eigendirections, in integers only.

An eigendirection of a hyperbolic integer matrix n = [[a, b], [c, d]] is the
vector (x, p + q*sqrt(D)) with integers x, p, q and D = (a - d)^2 + 4bc:
(2b, d - a +- sqrt(D)), or, when b = 0, (a - d, c) for the eigenvalue a and
(0, 1) for d.  Turned into the upper half-plane, its angle lies in [0, pi),
and two directions compare by the sign of one cross product
u + x*sqrt(D1) + y*sqrt(D2), which sign_sum decides with at most two
squarings.  A positive multiple of a matrix has its eigendirections, so
int_dir reads an integer form's matrix as it is, whatever its scale, and
exact_dirs reads any exact matrix through sl2core.integer_scaled.
"""

from __future__ import annotations

from ._record import Record
from .errors import DegenerateTie
from .sl2core import Mat2, integer_scaled


def _sgn(v) -> int:
    return (v > 0) - (v < 0)


def sign_sum(u: int, x: int, D1: int, y: int = 0, D2: int = 0) -> int:
    """Sign of u + x*sqrt(D1) + y*sqrt(D2) for integers with D1, D2 >= 0.

    With B the last radical term and A the rest, A + B has the sign of
    either term when they agree or the other is 0, and otherwise the sign
    of A times that of A^2 - B^2, which has one radical fewer.
    """
    if y and D2:
        sa, sb = sign_sum(u, x, D1), _sgn(y)
    elif x and D1:
        sa, sb = _sgn(u), _sgn(x)
    else:
        return _sgn(u)
    if sa == 0 or sa == sb:
        return sb
    if y and D2:
        return sa * sign_sum(u * u + x * x * D1 - y * y * D2, 2 * u * x, D1)
    return sa * _sgn(u * u - x * x * D1)


class ExactDir(Record):
    """The direction of the vector (x, p + q*sqrt(D)), with p + q*sqrt(D) > 0,
    or = 0 and x > 0: its angle lies in [0, pi)."""

    __slots__ = ("x", "p", "q", "D")

    def __init__(self, x, p, q, D):
        _set_x(self, x)
        _set_p(self, p)
        _set_q(self, q)
        _set_D(self, D)


# the slots' own setters, which the frozen __setattr__ does not block
_set_x, _set_p, _set_q, _set_D = (ExactDir.__dict__[f].__set__
                                  for f in ExactDir.__slots__)


def _upper(x: int, p: int, q: int, D: int) -> ExactDir:
    """The direction of (x, p + q*sqrt(D)), as the vector of it or of its
    negative that points into the upper half-plane."""
    sy = sign_sum(p, q, D)
    if sy < 0 or (sy == 0 and x < 0):
        return ExactDir(-x, -p, -q, D)
    return ExactDir(x, p, q, D)


def int_dir(n: Mat2, unstable: bool) -> ExactDir:
    """The unstable (or stable) eigendirection of the integer matrix n, with
    real eigenvalues, as eigen_data picks it: the direction of the
    eigenvalue of larger (smaller) modulus."""
    a, b, c, d = n.a, n.b, n.c, n.d
    if b == 0:  # the eigenvalues are a and d themselves
        if (abs(a) > abs(d)) == unstable:
            return _upper(a - d, c, 0, 0)
        return ExactDir(0, 1, 0, 0)
    # the eigenvalue (t +- sqrt(D)) / 2 of larger modulus takes the sign of t
    root = 1 if (a + d >= 0) == unstable else -1
    return _upper(2 * b, d - a, root, (a - d) * (a - d) + 4 * b * c)


def exact_dirs(m: Mat2) -> tuple[ExactDir, ExactDir]:
    """(unstable, stable) eigendirections of an exact matrix with real
    eigenvalues, as eigen_data orders them."""
    n, _ = integer_scaled(m)
    return int_dir(n, True), int_dir(n, False)


def compare_dirs(e: ExactDir, f: ExactDir) -> int:
    """Sign of angle(e) - angle(f): the sign of the cross product of f and e."""
    return sign_sum(f.x * e.p - e.x * f.p, f.x * e.q, e.D, -e.x * f.q, f.D)


def exact_cyclically_ordered(dirs) -> bool:
    """True iff the distinct directions occur in the listed cyclic order."""
    dirs = list(dirs)
    base = dirs[0]

    def position(d: ExactDir) -> tuple[int, ExactDir]:
        c = compare_dirs(d, base)
        if c == 0:
            raise DegenerateTie("coincident directions")
        return (0 if c > 0 else 1, d)  # wrapped past the base point?

    def less(x, y) -> bool:
        (wx, dx), (wy, dy) = x, y
        if wx != wy:
            return wx < wy
        return compare_dirs(dx, dy) < 0

    pos = [position(d) for d in dirs[1:]]
    return all(less(pos[i], pos[i + 1]) for i in range(len(pos) - 1))
