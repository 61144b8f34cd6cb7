"""Exact exponents and lattice structure of rank-2 multiarrangements.

The package computes, in exact arithmetic, the exponents and bases of the
derivation module of a 2-multiarrangement, maps the exponent gap over
finite windows of the multiplicity lattice, and mechanically verifies the
structural facts the gap obeys (unit covering steps, ball-shaped
components with unique centers, generator transport along chains,
independence across components, and the certification criteria built on
them), with special support for the rank-2 Coxeter arrangements.

The public names load lazily (PEP 562): ``import multilattice`` imports no
submodule, and a name's module is imported when the name is first used, so
a command line that solves one point never loads the scan and
verification layers.
"""

import importlib

__version__ = "1.0.0"

# public name -> the submodule defining it
_EXPORTS = {
    name: module
    for module, names in {
        "coxeter": ("GroupElement", "act", "check_delta_invariance", "coxeter_arrangement",
                    "group_closure", "near_constant_exponents", "standard_generators",
                    "symmetric_peak_certificate"),
        "dermod": ("ExponentResult", "SaitoVerdict", "delta", "exponents", "full_basis",
                   "in_module", "min_derivation", "verify_saito"),
        "errors": ("MultilatticeError",),
        "explorer": ("Component", "ScanResult", "centers", "components", "scan"),
        "field": ("FieldSpec", "ModInt", "QuadElem"),
        "lattice": ("ball", "box_points", "distance", "is_balanced", "meet_join",
                    "parse_multiplicity"),
        "poly": ("Arrangement", "Derivation", "HomogPoly", "LinearForm", "defining_polynomial",
                 "saito_determinant"),
        "theorems": ("CandidateMap", "ThetaOracle", "Verdict", "basis_for", "certify_centers",
                     "certify_support", "check_ball_structure", "check_basis_step_and_path",
                     "check_covering_steps", "check_independency", "check_singleton_gaps",
                     "construct_basis_between", "reconstruct_components"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
