"""Whether numba is importable, for benchmark fingerprints.

No kernel backend lives here and the kernels package does not import
this module; it only keeps ``numba_available`` importable.
"""

import importlib.util


def numba_available() -> bool:
    """True when numba can be imported in this interpreter."""
    return importlib.util.find_spec("numba") is not None
