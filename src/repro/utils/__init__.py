"""Shared utilities: RNG handling, table formatting, ASCII plots."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".rng": ("ensure_rng",),
    ".sysinfo": ("effective_cpu_count",),
    ".tables": ("format_table",),
    ".ascii_plot": ("density_plot", "bar_chart"),
})
