"""Seeded input generators for the benchmark.

Everything here is plain Python data: a 2x2 matrix is a tuple (a, b, c, d)
of floats or Fractions and a pair is a tuple of two of them.  The workloads
turn these into the program's own input types only at the call boundary, so
the program receives nothing but generated inputs.

The distributions follow the populations the acceptance suite and the census
script define, rebuilt here so the benchmark depends on no test file:

* census pairs: random determinant-one pairs at entry scale 3;
* strict-free float pairs: the free-detection criterion's distribution;
* exact pullback pairs: a mild exact free pair pulled back along a known sign
  word of length 0-6, 15% of them mirrored.  Unlike the acceptance suite's
  population, no draw is ever filtered or redrawn.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# Relative frequency of sign-word lengths in the pullback population.
PULLBACK_LENGTHS = (0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 6)
MIRROR_SHARE = 0.15
CENSUS_SCALE = 3.0


def rng_for(seed: int, stream: str) -> random.Random:
    """Independent, reproducible stream per (seed, purpose)."""
    return random.Random(f"{seed}:{stream}")


def inverse(m):
    a, b, c, d = m
    return (d, -b, -c, a)


def mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mirror(m):
    """Conjugation by diag(1, -1): reverses the orientation of P1."""
    a, b, c, d = m
    return (a, -b, -c, d)


def canonical_pair(mu, nu, alpha, beta):
    """Upper/lower triangular pair with normal-form data (mu, nu, alpha, beta)."""
    return ((mu, alpha, 0 * mu, 1 / mu), (1 / nu, 0 * nu, beta, nu))


def census_matrix(rng: random.Random, scale: float = CENSUS_SCALE):
    while True:
        a = rng.uniform(-scale, scale)
        b = rng.uniform(-scale, scale)
        c = rng.uniform(-scale, scale)
        if abs(a) > 1e-6:
            return (a, b, c, (1.0 + b * c) / a)


def census_pair(rng: random.Random):
    return (census_matrix(rng), census_matrix(rng))


def strict_free_pair(rng: random.Random):
    mu = rng.uniform(1.1, 10.0)
    nu = rng.uniform(1.1, 10.0)
    gamma = -4.0 - mu / nu - nu / mu - rng.uniform(0.0, 6.0)
    return canonical_pair(mu, nu, 1.0, gamma)


def elliptic_pair(rng: random.Random):
    """Float pair with tr AB in (-1.9, 1.9): AB is elliptic by construction."""
    mu = rng.uniform(1.2, 4.0)
    nu = rng.uniform(1.2, 4.0)
    z = rng.uniform(-1.9, 1.9)
    return canonical_pair(mu, nu, 1.0, z - mu / nu - nu / mu)


def candidate_multicone(rng: random.Random):
    """Two disjoint arcs (start, end) in radians, total length below pi - 0.1."""
    s0 = rng.uniform(0, math.pi)
    l0 = rng.uniform(0.05, 0.8)
    gap = rng.uniform(0.05, 0.5)
    l1 = rng.uniform(0.05, max(0.06, math.pi - l0 - gap - 0.1))
    return ((s0, s0 + l0), (s0 + l0 + gap, s0 + l0 + gap + l1))


def mild_exact_base(rng: random.Random, length: int):
    """Exact free pair whose pullback along a sign word of this length stays mild."""
    if length <= 2:
        lo, hi, zlo, zhi = 1.1, 3.0, -4.0, -2.1
    elif length <= 4:
        lo, hi, zlo, zhi = 1.05, 1.5, -2.6, -2.05
    else:
        lo, hi, zlo, zhi = 1.02, 1.2, -2.3, -2.02
    floor = Fraction(21, 20) if length > 4 else Fraction(11, 10)
    mu = max(Fraction(rng.uniform(lo, hi)).limit_denominator(64), floor)
    nu = max(Fraction(rng.uniform(lo, hi)).limit_denominator(64), floor)
    z = Fraction(rng.uniform(zlo, zhi)).limit_denominator(64)
    return canonical_pair(mu, nu, Fraction(1), z - mu / nu - nu / mu)


def pull_back(pair, fword: str):
    """Pair whose regeneration walk performs exactly `fword` to reach `pair`.

    The walk's moves are (A, B) -> (A, AB) for '+' and (A, B) -> (BA, B) for
    '-'; this undoes them from the last sign to the first.
    """
    a, b = pair
    for sign in reversed(fword):
        if sign == "+":
            b = mul(inverse(a), b)
        else:
            a = mul(inverse(b), a)
    return (a, b)


def fword_schedule(n: int) -> list[str]:
    """n sign words with the pullback length mix, the same for every seed.

    Slot k takes length PULLBACK_LENGTHS[k % 11]; each length cycles through
    all of its sign words in a fixed scrambled order.  A fixed schedule keeps
    the mix of component ranks, which sets the cost of a pair, identical
    between seeds; the seed varies the numeric pairs drawn for each word.
    """
    orders = {}
    shuffle = random.Random("fword-schedule")
    for length in set(PULLBACK_LENGTHS):
        words = ["".join("+-"[(i >> j) & 1] for j in range(length))
                 for i in range(2 ** length)]
        shuffle.shuffle(words)
        orders[length] = words
    used = {length: 0 for length in orders}
    out = []
    for k in range(n):
        length = PULLBACK_LENGTHS[k % len(PULLBACK_LENGTHS)]
        words = orders[length]
        out.append(words[used[length] % len(words)])
        used[length] += 1
    return out


def pullback_draw(rng: random.Random, fword: str):
    """(pair, fword, mirrored) for one exact pullback pair."""
    pair = pull_back(mild_exact_base(rng, len(fword)), fword)
    mirrored = rng.random() < MIRROR_SHARE
    if mirrored:
        pair = (mirror(pair[0]), mirror(pair[1]))
    return pair, fword, mirrored


# ---------------------------------------------------------------------------
# fixed tuples of the search and cli workloads


def free_pair():
    """The worked free pair (mu, nu, alpha, beta) = (2, 2, 1, -9)."""
    return canonical_pair(2.0, 2.0, 1.0, -9.0)


def free_pair_cone():
    """Two arcs (start, end), in radians, of a multicone certifying free_pair().

    The free level's unstable cores run from u_A = 0 to u_AB and from
    u_B = pi/2 to u_BA; the first arc is padded outward by 0.2 at both ends,
    the second by 0.1.  The cli workload's certify call, which must accept
    this family, guards the numbers.
    """
    return [[math.pi - 0.2, 0.7202915454843752],
            [math.pi / 2 - 0.1, 1.734371537048415]]


def elliptic_walk_pair():
    """One minus-step, then an elliptic product."""
    return canonical_pair(8.0, 2.0, 1.0, -1.0)


def boundary_triple():
    """Triple on a heteroclinic boundary point of the full 3-shift."""
    lam, theta, nu = 2.0, 1.8, 3.0
    return ((lam, 0.0, -theta * (lam - 1 / lam), 1 / lam),
            (lam, theta * (lam - 1 / lam), 0.0, 1 / lam),
            (0.0, -1.0, 1.0, nu + 1 / nu))


def group_tuple(pair):
    """(A, B, A^-1, B^-1), to be read over SFT4."""
    a, b = pair
    return (a, b, inverse(a), inverse(b))


# Four symbols A, B, A^-1, B^-1; a letter may not be followed by its inverse.
SFT4 = tuple(tuple((i, j) not in {(0, 2), (2, 0), (1, 3), (3, 1)}
                   for j in range(4)) for i in range(4))
# Golden-mean shift: B may not follow B.
GOLDEN = ((True, True), (True, False))


def allowed_table(n: int, table):
    return table if table is not None else tuple((True,) * n for _ in range(n))

