"""Numeric tolerances used by the geometric and spectral predicates.

DEFAULT is the one table of declared bands: each module reads it directly
and every CLI envelope reports it.  The ``band`` half-width is the declared
no-man's-land around the trichotomy boundaries (|tr| = 2, gamma = 0, ...):
inside it classifiers report a degenerate outcome instead of guessing.

DEFAULT is not every constant a decision reads.  The ledger below gives
each float constant below 1e-3 in src/, and each DEFAULT field a module
reads, one status (tests/test_package.py fails on one it does not list):

- band: a declared no-man's-land, in DEFAULT and so in every envelope;
- allowance: a proven rounding allowance, argued where it is used;
- remove: unproven; the ROADMAP item named removes it ("no item": none yet).

    status     module     constants (where; what removes it)
    band       multicone  DEFAULT.angle DEFAULT.margin
    band       sl2core    DEFAULT.det DEFAULT.identity
    band       twoshift   DEFAULT.band DEFAULT.angle (x100: _orientation's exact switch)
    allowance  twoshift   8.9e-16 (_det_in_band's rounding allowance)
    band       witness    DEFAULT.trace DEFAULT.parabolic DEFAULT.heteroclinic
    allowance  witness    1e-12 1.2e-15 (_best_connection's prune margin)
    allowance  symdyn     1e-9 (hyperbolicity_rate's Frobenius cut)
    allowance  projgeom   1e-12 (CONTRACTION_SHADE) 1.2246467991473532e-16 (PI_LO, exact)
    remove     multicone  1e-14 1e-300 (_incidence_slack) 1e-15 (PUFF); item 1 stage D
    remove     multicone  4e-14 (strict-image floor) 1e-12 1e-300 (fattening); item 2
    remove     corrdyn    1e-6 (winding_matrix's integrality); no item
    remove     sl2core    1e-9 (normalize_tuple's corner check); no item
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
