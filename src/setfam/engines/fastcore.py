"""ctypes binding of ``fastcore.c``, the compiled twin of :mod:`pykern`.

:class:`Kernels` loads one build of the C file and exposes ``pair_bnb``,
``clique_bnb`` and ``diversity_bnb`` with pykern's signatures, results and
errors; see pykern for what each argument means.  Index sets travel as
16-byte little-endian words, tables and maximizers alike (every kernel
returns its maximizers as one index set each), so no universe may exceed
128 entries.  ctypes releases the interpreter lock for the length of each
call.
"""

from __future__ import annotations

import ctypes
import math

from ..errors import InfeasibleInstanceError
from . import pykern

MAX_BITS = 128
_WORD = 16
_OK, _TIMEOUT, _CAP, _NOMEM = range(4)


class _Search(ctypes.Structure):
    _fields_ = [
        ("deadline", ctypes.c_double),
        ("cap", ctypes.c_longlong),
        ("nodes", ctypes.c_longlong),
        ("count", ctypes.c_longlong),
        ("alloc", ctypes.c_longlong),
        ("items", ctypes.c_void_p),
        ("best", ctypes.c_int),
        ("status", ctypes.c_int),
    ]


def _words(values, count: int) -> bytes:
    """The first ``count`` bitsets of ``values`` as 16-byte words."""
    if len(values) < count:
        raise ValueError(f"table has {len(values)} rows where {count} are needed")
    return b"".join(v.to_bytes(_WORD, "little") for v in values[:count])


def _require_width(*sizes: int) -> None:
    if max(sizes) > MAX_BITS:
        raise InfeasibleInstanceError(f"compiled kernels take at most {MAX_BITS} entries per set")


class Kernels:
    """The three kernels of the shared library at ``path``."""

    def __init__(self, path: str):
        lib = ctypes.CDLL(path)
        i, w = ctypes.c_int, ctypes.c_char_p
        search = ctypes.POINTER(_Search)
        signatures = {
            "pair_bnb": [i, w, w, w, i, w, i, i, i, i],
            "clique_bnb": [i, w, w, i, w, w, i, i],
            "diversity_bnb": [i, w, w, w, i, w, i, i],
        }
        for name, argtypes in signatures.items():
            fn = getattr(lib, name)
            fn.argtypes = [search, *argtypes]
            fn.restype = ctypes.c_int
            setattr(self, "_" + name, fn)
        self._free = lib.fastcore_free
        self._free.argtypes = [ctypes.c_void_p]
        self._free.restype = None

    def _run(self, fn, deadline, *args):
        """Call one kernel; returns (best, maximizers as int bitsets, nodes)."""
        cap = pykern.MAXIMIZER_CAP
        s = _Search(deadline=math.inf if deadline is None else deadline, cap=cap)
        status = fn(ctypes.byref(s), *args)
        try:
            raw = ctypes.string_at(s.items, s.count * _WORD) if s.count else b""
        finally:
            self._free(s.items)
        if status == _TIMEOUT:
            raise pykern._over_time(s.nodes, s.best)
        if status == _CAP:
            raise pykern._over_cap(cap)
        if status == _NOMEM:
            raise MemoryError("compiled kernel ran out of memory")
        words = [int.from_bytes(raw[j:j + _WORD], "little") for j in range(0, len(raw), _WORD)]
        return s.best, words, s.nodes

    def pair_bnb(self, m, compat, pred, kill, ng, rmask, r_min, g_min, g_ge_f, cap_excess,
                 deadline=None):
        """See :func:`setfam.engines.pykern.pair_bnb`."""
        _require_width(m, ng)
        return self._run(
            self._pair_bnb, deadline, m,
            None if compat is None else _words(compat, m),
            _words(pred, m),
            _words(kill, m), ng, _words([rmask], 1), r_min, g_min, bool(g_ge_f), cap_excess,
        )

    def clique_bnb(self, nverts, adj, sup, cons_kind, layer, vmasks, nelems, r, deadline=None):
        """See :func:`setfam.engines.pykern.clique_bnb`."""
        _require_width(nverts, nelems)
        return self._run(
            self._clique_bnb, deadline, nverts, _words(adj, nverts), _words(sup, nverts),
            cons_kind, _words([layer], 1), _words(vmasks, nverts), nelems, r,
        )

    def diversity_bnb(self, mh, hcompat, hmasks, akill, na, avoid_a, r, nelems,
                      deadline=None):
        """See :func:`setfam.engines.pykern.diversity_bnb`."""
        _require_width(mh, na, nelems)
        return self._run(
            self._diversity_bnb, deadline, mh, _words(hcompat, mh), _words(hmasks, mh),
            _words(akill, mh), na, _words(avoid_a, nelems + 1), r, nelems,
        )
