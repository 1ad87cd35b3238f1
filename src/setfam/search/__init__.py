"""Exact search oracles: problem kinds, ``solve`` and grid verification.

``KINDS``, ``ENGINES`` and ``THEOREMS`` are defined here, so that the
command-line parser can list them without importing the search layers.
Every other name is defined in ``problems`` and loads it on first access
(PEP 562).
"""

KINDS = (
    "hemibundled_max",
    "cross_pair_max",
    "cross_pair_capped",
    "diverse_intersecting_max",
    "s_union_max",
    "s_union_conditioned_max",
)

# The engines a Problem can name; which of them each kind runs, and the note
# each one's report carries, is the engine table of ``problems``.
ENGINES = ("auto", "brute", "shifted", "clique")

# theorem id -> (problem kind, grid variables, fixed params, assert mode)
# assert mode "equality": optimum must equal the bound; "upper": optimum
# must not exceed it (stated as an inequality only).
THEOREMS = {
    "f16": ("hemibundled_max", ("n", "k", "t"), {"r": 1}, "equality"),
    "w23": ("hemibundled_max", ("n", "k", "t"), {"r": 2}, "equality"),
    "main1": ("hemibundled_max", ("n", "k", "t", "r"), {}, "equality"),
    "f24": ("cross_pair_max", ("n", "k", "r"), {}, "equality"),
    "main3": ("cross_pair_capped", ("n", "k", "r"), {}, "upper"),
    "diversity": ("diverse_intersecting_max", ("n", "k", "r"), {}, "equality"),
    "katona": ("s_union_max", ("n", "s"), {}, "equality"),
    "main5": ("s_union_conditioned_max", ("n", "s", "r"), {}, "equality"),
}

_FROM_PROBLEMS = (
    "LayerBound",
    "MaximizerClass",
    "Problem",
    "SearchReport",
    "bound_for",
    "check_layer_inequality",
    "classify_maximizers",
    "enumerate_shifted",
    "solve",
)

__all__ = ["KINDS", "ENGINES", "THEOREMS", *_FROM_PROBLEMS]


def __getattr__(name):
    if name in _FROM_PROBLEMS:
        from . import problems

        return getattr(problems, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
