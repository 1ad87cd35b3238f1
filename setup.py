"""Builds the optional compiled search kernels.

``fastcore.c`` is plain C with no Python API: it is built as an ordinary
extension library, and ``setfam.engines`` loads it through ctypes.  The
package works without it (the pure-Python twin ``pykern`` runs instead), so
the build is optional and an install without a C compiler still succeeds.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "setfam.engines._fastcore",
            ["src/setfam/engines/fastcore.c"],
            extra_compile_args=["-O3"],
            optional=True,
        )
    ]
)
