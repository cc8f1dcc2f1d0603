"""Correctness checks that never call the layer under test.

Each check recomputes what it needs with the benchmark's own float 2x2
arithmetic, its own cyclic-word enumeration and its own sign-word algebra,
and raises CheckFailed when a verdict disagrees.  Verdict objects are read by
attribute name only.

Word conventions follow the program: a two-letter word such as "BAB" is the
left-to-right product B @ A @ B; a symbol sequence (w0, ..., wk) of the
symbolic-dynamics layer has the product M[wk] @ ... @ M[w0].
"""

from __future__ import annotations

import math
from fractions import Fraction

from gen import allowed_table, mul

# Tolerance on float comparisons against the boundary |tr| = 2; it sits
# above the program's declared band (1e-7) so band cases are not misjudged.
EDGE = 1e-6


class CheckFailed(AssertionError):
    pass


def require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# reference arithmetic


def to_float(m):
    return tuple(float(v) for v in m)


def trace(m):
    return m[0] + m[3]


def letters_product(mats, word: str):
    """Left-to-right product over letters 'A', 'B', ..."""
    out = None
    for ch in word:
        m = mats[ord(ch) - ord("A")]
        out = m if out is None else mul(out, m)
    return out


def orbit_product(mats, symbols):
    """Cocycle product of a symbol sequence: last symbol leftmost."""
    out = mats[symbols[0]]
    for s in symbols[1:]:
        out = mul(mats[s], out)
    return out


def norm2(m):
    a, b, c, d = to_float(m)
    s = a * a + b * b + c * c + d * d
    det = a * d - b * c
    return math.sqrt(0.5 * (s + math.sqrt(max(s * s - 4.0 * det * det, 0.0))))


def eigen_angles(m):
    """(unstable angle, stable angle) in [0, pi) of a hyperbolic matrix."""
    a, b, c, d = to_float(m)
    t = a + d
    r = math.sqrt(max(t * t - 4.0 * (a * d - b * c), 0.0))
    lam_u = 0.5 * (t + r) if t >= 0 else 0.5 * (t - r)
    lam_s = (a * d - b * c) / lam_u

    def angle(lam):
        v1, v2 = (b, lam - a), (lam - d, c)
        v = v1 if v1[0] ** 2 + v1[1] ** 2 >= v2[0] ** 2 + v2[1] ** 2 else v2
        return math.atan2(v[1], v[0]) % math.pi

    return angle(lam_u), angle(lam_s)


def act_angle(m, angle: float) -> float:
    a, b, c, d = to_float(m)
    x, y = math.cos(angle), math.sin(angle)
    return math.atan2(c * x + d * y, a * x + b * y) % math.pi


def angle_dist(a: float, b: float) -> float:
    g = (a - b) % math.pi
    return min(g, math.pi - g)


def in_arc(angle: float, start: float, end: float, slack: float) -> bool:
    """angle lies on the positive arc from start to end, up to slack."""
    length = (end - start) % math.pi
    off = (angle - start) % math.pi
    return off <= length + slack or off >= math.pi - slack


def lyndon_words(n_symbols: int, max_len: int):
    """Lyndon words up to max_len in lexicographic order (Duval's algorithm)."""
    w = [-1]
    while w:
        w[-1] += 1
        yield tuple(w)
        m = len(w)
        while len(w) < max_len:
            w.append(w[len(w) - m])
        while w and w[-1] == n_symbols - 1:
            w.pop()


def cyclic_words(n_symbols: int, max_len: int, table=None):
    """Primitive cyclic classes, shortlex by least rotation, cyclically admissible."""
    allowed = allowed_table(n_symbols, table)
    out = [w for w in lyndon_words(n_symbols, max_len)
           if all(allowed[w[i]][w[(i + 1) % len(w)]] for i in range(len(w)))]
    out.sort(key=lambda w: (len(w), w))
    return out


def fword_words(fword: str) -> tuple[str, str]:
    """Words in A, B for the walked pair after the regeneration moves of fword."""
    wa, wb = "A", "B"
    for sign in fword:
        if sign == "+":
            wb = wa + wb
        else:
            wa = wb + wa
    return wa, wb


def fraction_of(fword: str) -> Fraction:
    """Rotation number of a component: share of B in its substituted word."""
    wa, wb = fword_words(fword)
    w = wa + wb
    return Fraction(w.count("B"), len(w))


def sign_normalized(pair):
    a, b = (to_float(m) for m in pair)
    sa = 1 if trace(pair[0]) >= 0 else -1
    sb = 1 if trace(pair[1]) >= 0 else -1
    return (sa, sb), (tuple(sa * v for v in a), tuple(sb * v for v in b))


# ---------------------------------------------------------------------------
# twoshift.classify_pair


def constructed_verdict(v, fword: str, mirrored: bool):
    """A constructed pair must come back in its known component."""
    kind = type(v).__name__
    require(kind == "NonPrincipal", f"expected NonPrincipal, got {v!r}")
    require(v.fword == fword, f"sign word {v.fword!r} != known {fword!r}")
    want = -1 if mirrored else 1
    require(v.orientation == want, f"orientation {v.orientation} != {want}")
    require(v.iterations == len(fword),
            f"iterations {v.iterations} != {len(fword)}")


def census_verdict(pair, v):
    """A random pair's verdict must be consistent with its own traces.

    Degenerate verdicts are undecided, not wrong, and pass.
    """
    kind = type(v).__name__
    if kind == "Degenerate":
        require(bool(v.reason), "degenerate verdict without a reason")
        return
    signs, (a1, b1) = sign_normalized(pair)
    if kind == "EllipticWitness":
        t = trace(letters_product((a1, b1), v.word))
        require(abs(t) < 2.0 + EDGE, f"witness {v.word} has |tr| = {abs(t)}")
        return
    require(tuple(v.sign_pair) == signs,
            f"sign pair {v.sign_pair} != trace signs {signs}")
    x, y, z = trace(a1), trace(b1), trace(mul(a1, b1))
    fricke = x * x + y * y + z * z - x * y * z
    require(abs(fricke - v.invariant) <= 1e-9 * max(1.0, abs(fricke)),
            f"invariant {v.invariant} != {fricke}")
    if kind == "Principal":
        # straight pair: not (x*y - 2z > 0 and fricke - 4 > 0)
        require(x * y - 2 * z <= EDGE * max(1.0, abs(x * y))
                or fricke - 4 <= EDGE * max(1.0, abs(fricke)),
                "principal verdict on a twisted pair")
        return
    require(kind == "NonPrincipal", f"unknown verdict {v!r}")
    require(v.iterations == len(v.fword), "iterations != sign-word length")
    wa, wb = fword_words(v.fword)
    ma, mb = letters_product((a1, b1), wa), letters_product((a1, b1), wb)
    xa, yb, zab = trace(ma), trace(mb), trace(mul(ma, mb))
    require(xa > 2 - EDGE and yb > 2 - EDGE and zab < -2 + EDGE,
            f"walked pair along {v.fword!r} is not free: {(xa, yb, zab)}")


# ---------------------------------------------------------------------------
# the certify pipeline


def growth_bound(pair, comparability: float, contraction: float,
                 max_len: int = 10):
    """||product|| >= C^(-1/2) lambda^(n/2) on every cyclic word up to max_len."""
    require(contraction > 1.0, f"contraction {contraction} <= 1")
    mats = tuple(to_float(m) for m in pair)
    for w in cyclic_words(len(mats), max_len):
        bound = comparability ** -0.5 * contraction ** (len(w) / 2.0)
        nrm = norm2(orbit_product(mats, w))
        require(nrm >= bound * (1 - 1e-12),
                f"growth bound fails on {w}: {nrm} < {bound}")


def morphism_class(result, fword: str, mirrored: bool):
    frac, orient = result
    want = fraction_of(fword)
    require(frac == want, f"morphism fraction {frac} != {want}")
    require(orient == (-1 if mirrored else 1), f"morphism orientation {orient}")


def rejected(report):
    """A multicone for a pair with an elliptic product can never certify."""
    require(not report.ok, "certified a family for a pair with an elliptic product")


def elliptic_product(pair):
    require(abs(trace(mul(*(to_float(m) for m in pair)))) < 2.0,
            "probe pair's product is not elliptic")


# ---------------------------------------------------------------------------
# symdyn and witness


def elliptic_word(mats, word):
    require(word is not None, "no elliptic witness found")
    t = trace(orbit_product(tuple(to_float(m) for m in mats), word))
    require(abs(t) < 2.0, f"witness {word} has |tr| = {abs(t)}")


def no_witness(result):
    require(result is None, f"unexpected witness {result!r} for a free tuple")


def heteroclinic(mats, hit, table=None, tol: float = 1e-9):
    """The reported residual is the carried-to-stable angle distance."""
    require(hit is not None, "no heteroclinic candidate")
    fm = tuple(to_float(m) for m in mats)
    allowed = allowed_table(len(fm), table)
    glue = hit.source[-1:] + hit.connector + hit.target[:1]
    require(all(allowed[glue[i]][glue[i + 1]] for i in range(len(glue) - 1)),
            "connection is not admissible")
    u, _ = eigen_angles(orbit_product(fm, hit.source))
    carried = act_angle(orbit_product(fm, hit.connector), u) if hit.connector else u
    _, s = eigen_angles(orbit_product(fm, hit.target))
    r = angle_dist(carried, s)
    require(abs(r - hit.residual) <= 1e-9, f"residual {hit.residual} != {r}")
    return r <= tol


def rate(mats, depth: int, report, table=None):
    fm = tuple(to_float(m) for m in mats)
    best = min(norm2(orbit_product(fm, w)) ** (1.0 / len(w))
               for w in cyclic_words(len(fm), depth, table))
    require(abs(report.value - best) <= 1e-9 * best,
            f"rate {report.value} != {best}")
    got = norm2(orbit_product(fm, report.word)) ** (1.0 / len(report.word))
    require(abs(got - best) <= 1e-9 * best, f"rate word {report.word} is not minimal")


def periodic_words(words, n_symbols: int, max_len: int, table=None):
    require(list(words) == cyclic_words(n_symbols, max_len, table),
            "periodic words differ from the reference enumeration")


def cores_hold_directions(mats, cores, table=None, max_len: int = 6,
                          slack: float = 1e-7):
    """Every periodic unstable (stable) direction lies in a U (S) core arc."""
    fm = tuple(to_float(m) for m in mats)
    for w in cyclic_words(len(fm), max_len, table):
        p = orbit_product(fm, w)
        if abs(trace(p)) <= 2.0 + EDGE:
            continue
        u, s = eigen_angles(p)
        for angle, arcs, name in ((u, cores.u_arcs, "U"), (s, cores.s_arcs, "S")):
            require(any(in_arc(angle, a.start.angle, a.end.angle, slack)
                        for a in arcs),
                    f"{name} direction of {w} at {angle} outside the {name} cores")


# ---------------------------------------------------------------------------
# cli


def exit_code(name: str, got: int, want: int, stderr: str = ""):
    require(got == want, f"{name}: exit code {got}, documented {want}; {stderr[-200:]}")


def same_envelope(name: str, first: bytes, again: bytes):
    require(first == again, f"{name}: envelope differs between invocations")
