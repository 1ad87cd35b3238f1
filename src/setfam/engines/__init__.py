"""Search kernel backends.

``pykern`` implements the kernels in pure Python.  ``fastcore.c`` is its
compiled twin: ``pip install -e .`` builds it into a shared library next to
this package, and ``fastcore`` loads that library through ctypes.  The
compiled backend is the default exactly when the library is there and loads;
otherwise the pure-Python twin runs, and asking for ``compiled`` raises an
error that names the reason.  Every kernel entry point accepts
``backend="compiled"|"python"`` overrides through :func:`backend_module`.
"""

from __future__ import annotations

import os
from importlib.machinery import EXTENSION_SUFFIXES

from ..errors import InfeasibleInstanceError, ParamRangeError
from . import pykern

# The width of the compiled kernels' index sets (MAXBITS in fastcore.c): no
# table universe may hold more entries.  Set before fastcore loads, which
# reads it.
MAX_BITS = 128


def _load_compiled():
    """(the compiled kernels, None), or (None, why they are missing)."""
    here = os.path.dirname(os.path.abspath(__file__))
    for suffix in EXTENSION_SUFFIXES:
        path = os.path.join(here, "_fastcore" + suffix)
        if os.path.exists(path):
            break
    else:
        return None, (
            f"no kernel library _fastcore{EXTENSION_SUFFIXES[0]} in {here}; "
            "build it with `pip install -e .`"
        )
    from .fastcore import Kernels  # imports ctypes only when a library is there

    try:
        return Kernels(path), None
    except (OSError, AttributeError) as exc:
        return None, f"{path} does not load: {exc}"


_compiled, _missing = _load_compiled()
HAVE_COMPILED = _compiled is not None
DEFAULT_BACKEND = "compiled" if HAVE_COMPILED else "python"
BACKENDS = ("compiled", "python") if HAVE_COMPILED else ("python",)


def backend_module(name: str | None = None):
    name = name or DEFAULT_BACKEND
    if name == "python":
        return pykern
    if name == "compiled":
        if _compiled is None:
            raise InfeasibleInstanceError(f"compiled backend requested but {_missing}")
        return _compiled
    raise ParamRangeError(f"unknown backend {name!r} (expected 'compiled' or 'python')")
