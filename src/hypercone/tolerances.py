"""Numeric tolerances used by the geometric and spectral predicates.

All comparisons against mathematically strict inequalities go through one
fixed table, DEFAULT, which each module reads directly and every CLI envelope
reports, so that every decision is reproducible and self-describing.  The
``band`` half-width is the declared no-man's-land around the trichotomy
boundaries (|tr| = 2, gamma = 0, ...): inside it classifiers report a
degenerate outcome instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict


@dataclass(frozen=True)
class Tolerances:
    angle: float = 1e-10        # equality of projective points, radians
    det: float = 1e-9           # |det - 1| allowed at construction
    trace: float = 1e-9         # |tr| vs 2 comparisons
    band: float = 1e-7          # boundary band half-width for classifiers
    identity: float = 1e-9      # entrywise distance to +-id
    parabolic: float = 1e-7     # ||tr| - 2| for parabolic witnesses
    heteroclinic: float = 1e-9  # angular residual of a connection
    margin: float = 1e-8        # minimal compact-containment margin, radians

    def as_dict(self) -> dict:
        return asdict(self)


DEFAULT = Tolerances()
