"""setfam: exact machinery for intersecting, cross-intersecting and s-union
set families, with closed-form bounds, extremal constructions, compression
operators, and independent exhaustive search oracles.

Each public name below loads the submodule that defines it on first access
(PEP 562), so that importing one layer does not import the others.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "bounds": (
        "BoundValue",
        "Params",
        "binomial",
        "bound_classic",
        "bound_diversity",
        "bound_hemibundled",
        "bound_pairs",
        "bound_union",
    ),
    "constructions": ("ConstructionId", "construct", "expected_size"),
    "family": (
        "Family",
        "IsoCertificate",
        "Subset",
        "are_cross_intersecting",
        "are_isomorphic",
        "complement_family",
        "degree_profile",
        "is_s_union",
        "is_t_intersecting",
        "read_family",
        "restrict",
        "write_family",
    ),
    "search": ("Problem", "SearchReport", "check_layer_inequality", "enumerate_shifted", "solve"),
    "shifting": (
        "disjointness_family",
        "dominance_closure_check",
        "fully_shift",
        "is_shifted",
        "lex_family",
        "max_cross_partner",
        "shift_once",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
