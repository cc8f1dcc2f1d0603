"""Uniform hyperbolicity of finite SL(2,R) families over subshifts.

A library and CLI that decides uniform hyperbolicity of matrix pairs over
the full 2-shift, certifies tuples over general subshifts of finite type via
multicone inclusions, computes core arc systems and their combinatorial
shadow (monotonic correspondences and winding numbers), searches for
boundary witnesses, and conjugates trace-bounded tuples into a compact
entry range.

The exports below load on first use (PEP 562): `import hypercone` imports
no submodule, and `hypercone.certify` imports `hypercone.multicone` then.
"""

import importlib

__version__ = "0.1.0"

# export name -> the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "projgeom": ("ArcP1", "MultiCone", "ProjPoint"),
    "sl2core": ("Mat2", "c1_bound", "normalize_tuple"),
    "symdyn": ("RateReport", "Sft", "hyperbolicity_rate", "periodic_words",
               "product"),
    "multicone": ("CertifyReport", "CoreSet", "MulticoneFamily", "certify",
                  "compute_cores", "core_criterion", "fatten_cores"),
    "twoshift": ("Classification2", "Degenerate", "EllipticWitness",
                 "NonPrincipal", "Principal", "classify_pair"),
    "fareycomb": ("ComponentModel", "build_order", "component_model",
                  "farey_interval", "j_of_fword"),
    "corrdyn": ("CombMulticone", "MonotoneCorr", "Morphism",
                "classify_two_morphism", "induced_morphism",
                "morphism_hyperbolic", "morphism_tight", "validate",
                "winding_matrix"),
    "witness": ("BoundaryReport", "best_heteroclinic", "diagnose_boundary",
                "search_elliptic", "search_parabolic"),
    "tolerances": ("DEFAULT", "Tolerances"),
}.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
