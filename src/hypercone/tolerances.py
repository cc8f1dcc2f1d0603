"""Numeric tolerances used by the geometric and spectral predicates.

All comparisons against mathematically strict inequalities go through one
fixed table, DEFAULT, which each module reads directly and every CLI envelope
reports, so that every decision is reproducible and self-describing.  The
``band`` half-width is the declared no-man's-land around the trichotomy
boundaries (|tr| = 2, gamma = 0, ...): inside it classifiers report a
degenerate outcome instead of guessing.
"""

from __future__ import annotations

from ._record import Record


class Tolerances(Record):
    _defaults = {
        "angle": 1e-10,         # equality of projective points, radians
        "det": 1e-9,            # |det - 1| allowed at construction
        "trace": 1e-9,          # |tr| vs 2 comparisons
        "band": 1e-7,           # boundary band half-width for classifiers
        "identity": 1e-9,       # entrywise distance to +-id
        "parabolic": 1e-7,      # ||tr| - 2| for parabolic witnesses
        "heteroclinic": 1e-9,   # angular residual of a connection
        "margin": 1e-8,         # minimal compact-containment margin, radians
    }
    __slots__ = tuple(_defaults)

    def as_dict(self) -> dict:
        return dict(zip(self._fields, self._key()))


DEFAULT = Tolerances()
