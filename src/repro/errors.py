"""Exception hierarchy for the repro package."""

from typing import Iterable, Optional


def did_you_mean(
    name: str, choices: Iterable[str], prefix: bool = False
) -> Optional[str]:
    """The best near-miss for ``name`` among ``choices`` (or ``None``).

    The one matching policy behind every usage-error suggestion
    (``--grid`` axes, ``--objectives``, ``--constrain`` metrics, memory
    kinds): a case slip resolves exactly, then — when ``prefix`` is set —
    a unit/suffix slip (``dram_bytes``, ``latency_ms``) resolves to the
    objective it starts with, then difflib catches one-edit-away typos.
    """
    import difflib

    choices = list(choices)
    folded = str(name).casefold()
    by_fold = {str(c).casefold(): c for c in choices}
    close = by_fold.get(folded)
    if close is None and prefix:
        close = next(
            (c for c in choices if folded.startswith(str(c).casefold())),
            None,
        )
    if close is None:
        close = next(
            iter(difflib.get_close_matches(str(name), choices, n=1,
                                           cutoff=0.6)),
            None,
        )
    return close


def invalid_value_error(name: str, value, describe: str) -> "ConfigError":
    """The one message format for a bad scalar setting.

    Mirrors ``AxisDef.coerce``'s wording — names the offending value *and
    its type* plus what the setting wanted — so ``hidden=0`` rejections
    read exactly like a bad ``--grid`` axis value.
    """
    return ConfigError(
        f"{name}: invalid value {value!r} of type "
        f"{type(value).__name__} ({describe})"
    )


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(ReproError):
    """An array or matrix had an incompatible shape."""


class ConfigError(ReproError):
    """An invalid configuration was supplied."""


class KernelError(ReproError):
    """An unknown or invalid SpMM kernel backend was requested."""


class PartitionError(ReproError):
    """Graph partitioning failed or was given invalid inputs."""


class UnknownExperimentError(ReproError, KeyError):
    """An experiment name not present in the runtime registry was requested.

    Subclasses ``KeyError`` so registry lookups keep behaving like mapping
    access for callers that predate the registry.
    """

    def __str__(self):  # KeyError quotes its message; keep it readable
        return ReproError.__str__(self)


class UnknownDatasetError(ReproError, KeyError):
    """A dataset name not present in ``DATASET_SPECS`` was requested."""

    def __str__(self):
        return ReproError.__str__(self)


class UnknownSweepError(ReproError, KeyError):
    """A sweep name not present in the sweep registry was requested."""

    def __str__(self):
        return ReproError.__str__(self)


class ServeProtocolError(ReproError):
    """A malformed `repro serve` wire message (bad JSON, missing fields)."""
