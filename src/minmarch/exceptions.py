"""Exception types shared across the toolkit."""

from __future__ import annotations


class MinmarchError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(MinmarchError):
    """Invalid run configuration (unknown keys, bad values, unknown problem)."""


class StationarityError(MinmarchError):
    """Initial state handed to the marcher is not a stationary point."""


class NominalSolveError(MinmarchError):
    """The nominal optimization solve failed; nothing meaningful to march from."""


class BvpSolveError(MinmarchError):
    """The discrete boundary value problem could not be solved."""


class DegenerateBandwidthError(MinmarchError):
    """Kernel density estimation received a zero-variance sample set."""
