"""Exception types shared across the simulator."""

from __future__ import annotations


class SimError(Exception):
    """Base class for all simulator errors."""


class ShapeError(SimError):
    """Tensor shapes are inconsistent at the named node."""

    def __init__(self, node_id: str, message: str):
        super().__init__(f"{node_id}: {message}")
        self.node_id = node_id


class NumericsError(SimError):
    """Non-finite values produced at the named node."""

    def __init__(self, node_id: str):
        super().__init__(f"non-finite values produced at node {node_id}")
        self.node_id = node_id


class CapacityError(SimError):
    """On-chip buffer capacity exceeded.

    Carries the requested and available byte counts so callers can report
    the deficit; every infeasible allocation, tiling, group or layer is one.
    """

    def __init__(self, requested: int, available: int, what: str = "allocation"):
        super().__init__(
            f"{what} needs {requested} B but only {available} B available "
            f"(deficit {requested - available} B)"
        )
        self.requested = requested
        self.available = available
        self.what = what


class UseAfterFreeError(SimError):
    """Access to a scratchpad region that is not live."""


class AttentionInSliceError(SimError):
    """Attention is global over tokens and cannot be spatially haloed."""


class InconsistentStatsError(SimError):
    """Sparsity stats do not belong to the cost report being adjusted."""


class ConfigError(SimError):
    """Malformed configuration or unknown preset, node or layer kind; names the field."""


class SelfCheckError(SimError):
    """A closed-form cost disagrees with the simulator counters of its schedule."""
