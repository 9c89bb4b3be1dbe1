"""Workbench for finite ordered gamma-groupoids and gamma-semigroups."""

__version__ = "0.1.0"

from .structure import (GammaStructure, StructureError, downward_closure,
                        factorizations, principal_ideal, subset_product,
                        validate_structure)
from .fuzzy import (FuzzySubset, GridBattery, characteristic, compose,
                    constant_one, default_battery, enumerate_grid_battery,
                    point_characteristic)
from .ideals import (ClassificationReport, DeciderDisagreement, classify,
                     is_ideal)
from .theorems import (THEOREM_IDS, TheoremVerdict, check, check_all,
                       find_counterexample, replay_witness)
from .enumeration import SearchSpec, canonical_form, enumerate_structures

__all__ = [
    "GammaStructure", "StructureError", "downward_closure", "factorizations",
    "principal_ideal", "subset_product", "validate_structure",
    "FuzzySubset", "GridBattery", "characteristic", "compose", "constant_one",
    "default_battery", "enumerate_grid_battery", "point_characteristic",
    "ClassificationReport", "DeciderDisagreement", "classify", "is_ideal",
    "THEOREM_IDS", "TheoremVerdict", "check", "check_all",
    "find_counterexample", "replay_witness",
    "SearchSpec", "canonical_form", "enumerate_structures",
]
