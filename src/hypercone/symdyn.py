"""Subshifts of finite type, admissible words, cocycle products.

A word is a tuple of 0-based symbols read in orbit order x_0, x_1, ...; the
cocycle product of a word therefore has the *last* symbol's matrix leftmost:

    product(mats, (w0, ..., wk)) = mats[wk] @ ... @ mats[w0].

Cyclic word enumeration returns one representative per primitive cyclic
class (powers of shorter words are excluded: their products are powers and
carry no new spectral information), using the lexicographically minimal
rotation as representative, in shortlex order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateInput, DetDrift, InadmissibleWord
from .sl2core import Mat2

Word = tuple[int, ...]

LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def render_word(w: Word) -> str:
    return "".join(LETTERS[s] for s in w)


def parse_word(text: str) -> Word:
    return tuple(LETTERS.index(ch) for ch in text.strip().upper())


@dataclass(frozen=True)
class Sft:
    """Transition-restricted alphabet; allowed[a][b] means a can precede b."""

    n_symbols: int
    allowed: tuple[tuple[bool, ...], ...]

    def __post_init__(self):
        n = self.n_symbols
        if len(self.allowed) != n or any(len(r) != n for r in self.allowed):
            raise DegenerateInput("transition table shape mismatch")
        if not self._transitive():
            raise DegenerateInput("transition table is not transitive")

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

    def dual(self) -> "Sft":
        n = self.n_symbols
        return Sft(n, tuple(tuple(self.allowed[j][i] for j in range(n))
                            for i in range(n)))

    def admissible(self, w: Word) -> bool:
        return all(self.ok(w[i], w[i + 1]) for i in range(len(w) - 1))

    def cyclically_admissible(self, w: Word) -> bool:
        return self.admissible(w) and (len(w) == 1 or self.ok(w[-1], w[0]))

    def to_json(self) -> dict:
        if self.is_full:
            return {"type": "full", "n": self.n_symbols}
        return {"type": "sft",
                "allowed": [[bool(v) for v in row] for row in self.allowed]}


def product(mats, w: Word, sft: Sft | None = None,
            det_tol: float = 1e-6) -> Mat2:
    """Cocycle product along the word (last symbol leftmost)."""
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
    if len(w) > 64 and not out.is_exact():
        if abs(float(out.det()) - 1.0) > det_tol:
            raise DetDrift(f"det drifted to {float(out.det())} over {len(w)} factors")
    return out


def necklace_products(mats, depth: int):
    """(word, product) for every necklace of length 1..depth, in shortlex order.

    A necklace is a word that is the least of its rotations, powers included
    (the words the filter w == min_rotation(w) keeps).  They are generated
    level by level along the prenecklace tree (Fredricksen-Maiorana): a
    prenecklace w whose longest Lyndon prefix has length p extends by
    w[-p], keeping p, or by any larger symbol, which makes it Lyndon; it is
    a necklace when p divides its length.  Each product costs one matmul,
    mats[s] @ product(parent).
    """
    n = len(mats)
    level = [((s,), 1, mats[s]) for s in range(n)]
    for length in range(1, depth + 1):
        for w, p, m in level:
            if length % p == 0:
                yield w, m
        if length < depth:
            level = [(w + (s,), p if s == w[-p] else length + 1, mats[s] @ m)
                     for w, p, m in level for s in range(w[-p], n)]


def min_rotation(w: Word) -> Word:
    return min(w[i:] + w[:i] for i in range(len(w)))


def is_primitive(w: Word) -> bool:
    n = len(w)
    for p in range(1, n):
        if n % p == 0 and w == w[p:] + w[:p]:
            return False
    return True


def periodic_words(sft: Sft, n_max: int):
    """Primitive cyclic classes of length 1..n_max, shortlex by representative."""
    n = sft.n_symbols
    for length in range(1, n_max + 1):
        seen = set()
        stack = [(s,) for s in range(n - 1, -1, -1)]
        while stack:
            w = stack.pop()
            if len(w) == length:
                if sft.ok(w[-1], w[0]) and is_primitive(w):
                    r = min_rotation(w)
                    if r == w and r not in seen:
                        seen.add(r)
                        yield r
                continue
            for s in range(n - 1, -1, -1):
                if sft.ok(w[-1], s):
                    stack.append(w + (s,))


@dataclass(frozen=True)
class RateReport:
    value: float
    word: Word
    depth: int


def hyperbolicity_rate(mats, sft: Sft, n_max: int) -> RateReport:
    """min over cyclic classes of ||product||^(1/n); a finite-depth estimate."""
    best = None
    best_w: Word = ()
    for w in periodic_words(sft, n_max):
        v = product(mats, w, sft) if len(w) > 1 else mats[w[0]]
        r = v.norm() ** (1.0 / len(w))
        if best is None or r < best:
            best, best_w = r, w
    if best is None:
        raise DegenerateInput("no cyclic words up to the requested depth")
    return RateReport(value=best, word=best_w, depth=n_max)
