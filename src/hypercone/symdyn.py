"""Subshifts of finite type, admissible words, cocycle products.

A word is a tuple of 0-based symbols read in orbit order x_0, x_1, ...; the
cocycle product of a word therefore has the *last* symbol's matrix leftmost:

    product(mats, (w0, ..., wk)) = mats[wk] @ ... @ mats[w0].

Two walks, both shortlex, share one word tree with inadmissible transitions
pruned inside it: admissible_entries visits every admissible word, and the
cyclic enumeration its prenecklace part (Fredricksen-Maiorana; Duval, TCS 60,
1988), for one representative per primitive cyclic class, the Lyndon word
(powers of shorter words carry no new spectral information); its deepest
level holds only those Lyndon words, and a successor table, the symbols
>= lo that may follow each symbol, built once per walk, gives each node its
children with no transition test.  Both walks yield (word, entries, scale),
the word's product being entries / scale, each node's entries made from its
parent's in Mat2.__matmul__'s order: product()'s bits and scale 1 on float
or mixed input; on exact input the product of the integer_scaled generators
and of their scales, so no Fraction is multiplied.  The exported functions
refuse a NaN or infinite entry first (sl2core.check_finite).

hyperbolicity_rate reads the cyclic walk with a Frobenius cut: ||P||^2 >=
|P|_F^2 / 2, so a class whose entry-square sum is past 2 (best (1 +
1e-9))^(2n), times S^2 on exact input, cannot beat the best rate so far,
and is spared its spectral norm and n-th root.  The margin is far above the
few ulps by which the sum, the norm and the root round, so the cut never
changes the value or the word: 2 norms of 747 classes on the free pair at
depth 12, float or exact.
"""

from __future__ import annotations

import math

from ._record import Record
from .errors import (DegenerateInput, DetDrift, InadmissibleWord, PreconditionViolated,
                     SearchBudgetExceeded)
from .sl2core import Mat2, check_finite, integer_scaled, is_exact, spectral_norm

Word = tuple[int, ...]

LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"

# largest | |det| - 1 | a float product of more than 64 factors may reach;
# generators of determinant -1 are allowed, so the sign is not checked
DET_DRIFT = 1e-6
DRIFT_FREE_LEN = 64


def render_word(w: Word) -> str:
    return "".join(LETTERS[s] for s in w)


class Sft(Record):
    """Transition-restricted alphabet of n_symbols letters; allowed, a tuple
    of bool tuples, has allowed[a][b] when a can precede b.  The table must
    be transitive and hold a cycle, else no infinite word is allowed; a
    transitive table on two or more symbols holds one, so only a single
    symbol without its self-loop is refused for the cycle."""

    __slots__ = ("n_symbols", "allowed")

    def __init__(self, n_symbols: int, allowed: tuple[tuple[bool, ...], ...]):
        super().__init__(n_symbols, allowed)
        n = self.n_symbols
        if len(self.allowed) != n or any(len(r) != n for r in self.allowed):
            raise DegenerateInput("transition table shape mismatch")
        if not self._transitive():
            raise DegenerateInput("transition table is not transitive")
        if not any(map(any, self.allowed)):
            raise DegenerateInput("transition table has no cycle, so no infinite word")

    def _transitive(self) -> bool:
        n = self.n_symbols

        def reach(start, table):
            seen = {start}
            stack = [start]
            while stack:
                i = stack.pop()
                for j in range(n):
                    if table[i][j] and j not in seen:
                        seen.add(j)
                        stack.append(j)
            return seen

        fwd = reach(0, self.allowed)
        rev = reach(0, tuple(tuple(self.allowed[j][i] for j in range(n))
                             for i in range(n)))
        return len(fwd) == n and len(rev) == n

    @staticmethod
    def full(n: int) -> "Sft":
        return Sft(n, tuple(tuple(True for _ in range(n)) for _ in range(n)))

    @property
    def is_full(self) -> bool:
        return all(all(row) for row in self.allowed)

    def ok(self, a: int, b: int) -> bool:
        return self.allowed[a][b]

def _check_drift(m, length: int) -> None:
    """Float entries (a, b, c, d) of a word of length > DRIFT_FREE_LEN must
    keep det near +-1 (else DetDrift); shorter words are not checked."""
    if not all(map(is_exact, m)):
        det = float(m[0] * m[3] - m[1] * m[2])
        if abs(abs(det) - 1.0) > DET_DRIFT:
            raise DetDrift(f"det drifted to {det} over {length} factors")


def product(mats, w: Word, sft: Sft | None = None) -> Mat2:
    """Cocycle product along the word (last symbol leftmost)."""
    check_finite(mats)
    if not w:
        raise InadmissibleWord("empty word has no product")
    if sft is not None:
        for i in range(len(w) - 1):
            if not sft.ok(w[i], w[i + 1]):
                raise InadmissibleWord(f"transition {w[i]}->{w[i + 1]} forbidden",
                                       index=i)
    out = mats[w[0]]
    for s in w[1:]:
        out = mats[s] @ out
    if len(w) > DRIFT_FREE_LEN:
        _check_drift((out.a, out.b, out.c, out.d), len(w))
    return out


def exact_product(mats, w: Word) -> tuple[Mat2, int]:
    """(n, S) with n / S the product of w on the given entries read exactly
    (a float is a dyadic rational): n the product of the integer_scaled
    generators, S that of their scales."""
    scaled = [integer_scaled(m) for m in mats]
    return product([n for n, _ in scaled], w), math.prod(scaled[s][1] for s in w)


def eval_string(mats, word: str) -> Mat2:
    """Left-to-right product of a word of LETTERS over mats = (A, B[, ...]):
    "BAB" is B @ A @ B, the reverse of product's orbit order."""
    out = None
    for ch in word:
        m = mats[LETTERS.index(ch)]
        out = m if out is None else out @ m
    return out


def _times(x, y):
    """The entries of Mat2(*x) @ Mat2(*y), in Mat2.__matmul__'s operation order."""
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _entry_tuples(mats, sft: Sft) -> tuple[list[tuple], list[int] | None]:
    """The generators' entries and scales: integer_scaled if all are exact,
    else as given and None.  PreconditionViolated unless one per symbol, and
    one letter of LETTERS per symbol, so that every word renders.  A NaN or
    infinite entry, which no walk could read, is refused by the caller's
    input gate (sl2core.check_finite)."""
    if len(mats) != sft.n_symbols:
        raise PreconditionViolated(f"{len(mats)} matrices for {sft.n_symbols} symbols")
    if len(mats) > len(LETTERS):
        raise PreconditionViolated(f"{len(mats)} symbols, more than the "
                                   f"{len(LETTERS)} letters of a word")
    if not all(m.is_exact() for m in mats):
        return [(m.a, m.b, m.c, m.d) for m in mats], None
    scaled = [integer_scaled(m) for m in mats]
    return [(n.a, n.b, n.c, n.d) for n, _ in scaled], [s for _, s in scaled]


def admissible_entries(mats, sft: Sft, n_max: int):
    """(word, (a, b, c, d), S) for every admissible word of length 1..n_max,
    shortlex: product(mats, word, sft) as entries / S, DetDrift included."""
    ents, scales = _entry_tuples(mats, sft)
    level = [((s,), ents[s]) for s in range(sft.n_symbols)]
    for length in range(1, n_max + 1):
        drift = length > DRIFT_FREE_LEN
        done = []
        for w, m in level:
            if drift:
                _check_drift(m, length)
            done.append((w, m))
            yield w, m, 1 if scales is None else math.prod([scales[s] for s in w])
        # lazy: a reader stopping at the next level's first word pays for it alone
        level = ((w + (s,), _times(ents[s], m)) for w, m in done
                 for s in range(sft.n_symbols) if sft.allowed[w[-1]][s])


def periodic_words(sft: Sft, n_max: int):
    """Primitive cyclic classes of length 1..n_max, shortlex by representative."""
    for w, _, _ in periodic_entries(None, sft, n_max):
        yield w


def periodic_entries(mats, sft: Sft, n_max: int):
    """(word, (a, b, c, d), S) for the cyclically admissible Lyndon words,
    shortlex, as admissible_entries gives them; entries None without mats.

    The admissible prenecklaces are walked level by level (Fredricksen-
    Maiorana), each level in lexicographic order as (word, p, product), p
    the length of the word's longest Lyndon prefix: w extends by w[-p],
    keeping p, or by any larger symbol, which makes it Lyndon.  Over a
    subshift only allowed transitions are followed; every prefix of an
    admissible word is admissible, so nothing is lost.  The successor table
    succ[a][lo], the symbols >= lo that may follow a in increasing order, is
    built once per call, so a child costs no transition test.  The last
    level is never extended, so only its cyclically admissible Lyndon words
    are built.
    """
    n = sft.n_symbols
    allowed = sft.allowed
    succ = [[tuple(s for s in range(lo, n) if row[s]) for lo in range(n + 1)]
            for row in allowed]
    ents, scales = (None, None) if mats is None else _entry_tuples(mats, sft)
    level = [((s,), 1, None if ents is None else ents[s]) for s in range(n)]
    for length in range(1, n_max + 1):
        drift = ents is not None and length > DRIFT_FREE_LEN
        for w, p, m in level:
            if p == length and allowed[w[-1]][w[0]]:
                if drift:
                    _check_drift(m, length)
                yield w, m, 1 if scales is None else math.prod([scales[s] for s in w])
        if length + 1 < n_max:
            level = [(w + (s,), p if s == w[-p] else length + 1,
                      None if ents is None else _times(ents[s], m))
                     for w, p, m in level for s in succ[w[-1]][w[-p]]]
        elif length + 1 == n_max:
            # a child by w[-p] keeps p below its length, so is never Lyndon
            level = [(w + (s,), n_max, None if ents is None else _times(ents[s], m))
                     for w, p, m in level for s in succ[w[-1]][w[-p] + 1]
                     if allowed[s][w[0]]]


class RateReport(Record):
    """min ||product||^(1/n) (value), its word and the depth searched."""

    __slots__ = ("value", "word", "depth")


def hyperbolicity_rate(mats, sft: Sft, n_max: int) -> RateReport:
    """min over cyclic classes of ||product||^(1/n); a finite-depth estimate.
    SearchBudgetExceeded when no cyclic word has length <= n_max.

    A Frobenius cut spares most classes spectral_norm and the n-th root:
    ||P||^2 >= |P|_F^2 / 2, so a class of length n whose entries / S have a
    square sum above cut = 2 (best (1 + 1e-9))^(2n) cannot beat best.  On
    float or mixed input (S = 1) the sum is spectral_norm's own on float
    entries, and within a few ulps of it where an exact entry is squared
    exactly (a sum of squares has no cancellation).  On exact input the
    integer square sum N of the entries is compared, exactly (Python
    compares an int with a float exactly), with cut * S^2 rounded to a
    float, within 2 ulps of cut S^2; spectral_norm's sum of the squares of
    the correctly rounded a / S, ... is within 6 ulps of N / S^2.  Every
    operation after the sum rounds monotonically.  So a class past the cut
    has a computed rate above best (1 + 1e-9) (1 - a few ulps) > best: it
    could never have won, and value and word are those of the full loop.
    The cut is taken again at each new length and each new best; past the
    float range (cut, S^2 or their product) it is inf, which cuts nothing.
    """
    check_finite(mats)
    best = None
    best_w: Word = ()
    length = 0
    cut = math.inf
    for w, (a, b, c, d), scale in periodic_entries(mats, sft, n_max):
        if len(w) != length:
            length = len(w)
            cut = _frobenius_cut(best, length)
        if a * a + b * b + c * c + d * d > (cut if scale == 1 else _scaled(cut, scale)):
            continue
        r = spectral_norm(a, b, c, d, scale) ** (1.0 / len(w))
        if best is None or r < best:
            best, best_w = r, w
            cut = _frobenius_cut(best, length)
    if best is None:
        raise SearchBudgetExceeded(f"no cyclic words of length <= {n_max}")
    return RateReport(value=best, word=best_w, depth=n_max)


def _scaled(cut: float, scale: int) -> float:
    """cut * scale^2 as a float; inf past the float range."""
    try:
        return cut * (scale * scale)
    except OverflowError:  # scale^2 has no float
        return math.inf


def _frobenius_cut(best: float | None, n: int) -> float:
    """2 (best (1 + 1e-9))^(2n): an entry-square sum above it is a class of
    length n whose rate exceeds best; inf without a best or past the float
    range."""
    if best is None:
        return math.inf
    try:
        return 2.0 * (best * (1 + 1e-9)) ** (2 * n)
    except OverflowError:
        return math.inf
