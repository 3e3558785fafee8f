"""Deterministic random-number-generator plumbing.

Every stochastic entry point in the package accepts either an integer seed,
a ``numpy.random.Generator``, or ``None`` and funnels it through
:func:`ensure_rng` so results are reproducible end to end.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

if TYPE_CHECKING:
    import numpy as np

SeedLike = Union[None, int, "np.random.Generator"]


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for any accepted seed form.

    Passing a ``Generator`` returns it unchanged so that callers can thread a
    single stream through nested components; integers and ``None`` construct
    a fresh ``default_rng``.
    """
    import numpy as np

    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, n: int) -> list:
    """Derive ``n`` independent child generators from ``rng``.

    Used when a pipeline stage fans out into parallel sub-tasks that must not
    share a stream (e.g. per-class METIS refinement).
    """
    import numpy as np

    seeds = rng.integers(0, 2**63 - 1, size=n)
    return [np.random.default_rng(int(s)) for s in seeds]
