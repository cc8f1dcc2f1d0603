"""Shared fixtures: canonical pairs, the 4-symbol shift, the boundary triple."""

from fractions import Fraction

import pytest

from hypercone.projgeom import ArcP1, MultiCone, angle_dist, cyclically_ordered
from hypercone.sl2core import Mat2, eigen_data
from hypercone.symdyn import Sft
from hypercone.twoshift import (NonPrincipal, Principal, _fricke, _step_minus,
                                _step_plus, _Traces)


def pair_step_plus(A: Mat2, B: Mat2) -> tuple[Mat2, Mat2]:
    return (A, A @ B)


def pair_step_minus(A: Mat2, B: Mat2) -> tuple[Mat2, Mat2]:
    return (B @ A, B)


def canonical_pair(mu, nu, alpha, beta):
    """Upper/lower triangular pair with the given normal-form data."""
    return (Mat2(mu, alpha, 0, 1 / mu if isinstance(mu, Fraction) else 1.0 / mu),
            Mat2(1 / nu if isinstance(nu, Fraction) else 1.0 / nu, 0, beta, nu))


def exact_canonical_pair(mu: Fraction, nu: Fraction, alpha: Fraction,
                         beta: Fraction):
    return (Mat2(mu, alpha, Fraction(0), 1 / mu),
            Mat2(1 / nu, Fraction(0), beta, nu))


@pytest.fixture
def free_pair():
    """The worked free pair: traces (2.5, 2.5, -7)."""
    return canonical_pair(2.0, 2.0, 1.0, -9.0)


@pytest.fixture
def free_pair_exact():
    return exact_canonical_pair(Fraction(2), Fraction(2), Fraction(1),
                                Fraction(-9))


@pytest.fixture
def mild_free_pair_exact():
    """Free pair with tr AB close to -2; deep components stay resolvable."""
    mu, nu = Fraction(11, 10), Fraction(23, 20)
    gamma = Fraction(-21, 10) - mu / nu - nu / mu
    return exact_canonical_pair(mu, nu, Fraction(1), gamma)


@pytest.fixture
def elliptic_walk_pair():
    """mu=8, nu=2, alpha=1, beta=-1: one minus-step then an elliptic product."""
    return canonical_pair(8.0, 2.0, 1.0, -1.0)


@pytest.fixture
def sft4():
    """Four symbols (A, B, A^-1, B^-1); transitions to the inverse forbidden."""
    forbidden = {(0, 2), (2, 0), (1, 3), (3, 1)}
    allowed = tuple(tuple((i, j) not in forbidden for j in range(4))
                    for i in range(4))
    return Sft(4, allowed)


def group_tuple(pair):
    A, B = pair
    return (A, B, A.inverse(), B.inverse())


def four_interval_family(pair):
    """The two-per-side interval family certifying group hyperbolicity.

    Padding is asymmetric: the endpoints carried exactly onto other
    endpoints (u_BA to u_AB under A, s_BA to s_AB under B^-1) need the
    receiving side padded wider than the sending side.
    """
    A, B = pair
    (uA, _), (sA, _) = eigen_data(A)
    (uB, _), (sB, _) = eigen_data(B)
    (uAB, _), (sAB, _) = eigen_data(A @ B)
    (uBA, _), (sBA, _) = eigen_data(B @ A)
    I1 = ArcP1.from_angles(uA.angle - 0.02, uAB.angle + 0.02)
    I2 = ArcP1.from_angles(uB.angle - 0.02, uBA.angle + 0.002)
    I3 = ArcP1.from_angles(sBA.angle - 0.02, sA.angle + 0.02)
    I4 = ArcP1.from_angles(sAB.angle - 0.004, sB.angle + 0.02)
    return tuple(MultiCone((arc,)) for arc in (I1, I2, I3, I4))


@pytest.fixture
def boundary_triple():
    """The parameterized triple sitting on a heteroclinic boundary point."""
    lam, theta, nu = 2.0, 1.8, 3.0
    A0 = Mat2(lam, 0, -theta * (lam - 1 / lam), 1 / lam)
    B0 = Mat2(lam, theta * (lam - 1 / lam), 0, 1 / lam)
    C0 = Mat2(0, -1, 1, nu + 1 / nu)
    return (A0, B0, C0)


def rand_conj(rng, scale: float = 3.0) -> Mat2:
    """Random determinant-one conjugator with entries up to the scale."""
    while True:
        a = rng.uniform(-scale, scale)
        b = rng.uniform(-scale, scale)
        c = rng.uniform(-scale, scale)
        if abs(a) > 1e-2:
            return Mat2(a, b, c, (1.0 + b * c) / a)


def check_walk(A: Mat2, B: Mat2, c) -> None:
    """Cross-check a Principal or NonPrincipal verdict of classify_pair(A, B)
    on the sign-normalized pair.

    Principal: the unstable directions are not separated by the stable
    ones, so a common strictly invariant interval exists.  NonPrincipal:
    c.fword replayed on the trace triple steps only from tr AB > 2, decays
    the product trace at every step, keeps the Fricke form, and ends on a
    free triple.
    """
    A1 = A if A.trace() >= 0 else -A
    B1 = B if B.trace() >= 0 else -B
    if isinstance(c, Principal):
        (uA, _), (sA, _) = eigen_data(A1)
        (uB, _), (sB, _) = eigen_data(B1)
        angles = (uA.angle, sA.angle, uB.angle, sB.angle)
        # coincident directions are not interleaved
        interleaved = (min(angle_dist(a, b) for i, a in enumerate(angles)
                           for b in angles[i + 1:]) > 0.0
                       and (cyclically_ordered(angles)
                            or cyclically_ordered((uA.angle, sB.angle,
                                                   uB.angle, sA.angle))))
        assert not interleaved
        return
    assert isinstance(c, NonPrincipal), c
    # the traces, each over denominator 1 (the walk's float form)
    t = _Traces(A1.trace(), B1.trace(), (A1 @ B1).trace())
    inv = float(_fricke(t))
    for sign in c.fword:
        assert t.Z > 2, "the walk stepped on from a free or elliptic triple"
        t = _step_plus(t) if sign == "+" else _step_minus(t)
        assert float(t.Z) <= float(max(t.X, t.Y)) + 1e-9, \
            "product trace failed to decay"
        assert abs(float(_fricke(t)) - inv) <= 1e-9 * max(1.0, abs(inv)), \
            "fricke form drifted"
    assert t.Z < -2, "the walk does not end on a free triple"
