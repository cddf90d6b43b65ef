"""Hypothesis profiles, and a report header that names the BLAS kernel.

``ci`` draws the same examples on every run (``derandomize``) and keeps
no example database, so a CI verdict does not depend on the run:

    python -m pytest --hypothesis-profile=ci

Without the flag, hypothesis draws new examples on every run.

The header prints numpy's version and the build and core type of numpy's
bundled OpenBLAS (the core type follows ``OPENBLAS_CORETYPE``), since the
kernel OpenBLAS picks decides the last bits of the floats the goldens pin.
It only reads them.
"""
import ctypes
from pathlib import Path

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)


def _openblas() -> list[str]:
    """The build string and core type of numpy's bundled OpenBLAS, each
    "unknown" where the library or its symbol cannot be found."""
    import numpy as np

    package = Path(np.__file__).resolve().parent
    found = sorted(package.parent.glob("numpy.libs/libscipy_openblas*")) + sorted(
        package.glob(".dylibs/libscipy_openblas*")
    )
    try:
        library = ctypes.CDLL(str(found[0]))  # the copy numpy has loaded
    except (IndexError, OSError):
        library = None
    values = []
    for name in ("scipy_openblas_get_config64_", "scipy_openblas_get_corename64_"):
        read = getattr(library, name, None)
        if read is None:
            values.append("unknown")
            continue
        read.argtypes, read.restype = [], ctypes.c_char_p
        values.append(read().decode())
    return values


def pytest_report_header(config) -> list[str]:
    import numpy as np

    build, core = _openblas()
    return [f"numpy {np.__version__}", f"openblas: {build}", f"openblas core: {core}"]
