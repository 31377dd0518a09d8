"""Exception types shared across the simulator: one class per CLI exit code."""

from __future__ import annotations


class SimError(Exception):
    """Base class: the CLI prints ``label: message`` on stderr and exits ``exit_code``."""
    exit_code = 1
    label = "error"


class ConfigError(SimError):
    """Malformed config, graph or shape, unknown preset, node or layer kind, or a
    non-finite reference output; names the field, node or layer."""
    exit_code = 1
    label = "config error"


class CapacityError(SimError):
    """On-chip buffer capacity exceeded.

    Carries the requested and available byte counts so callers can report
    the deficit; every infeasible allocation, tiling, group or layer is one.
    """
    exit_code = 2
    label = "infeasible schedule"

    def __init__(self, requested: int, available: int, what: str = "allocation"):
        super().__init__(
            f"{what} needs {requested} B but only {available} B available "
            f"(deficit {requested - available} B)"
        )
        self.requested = requested
        self.available = available
        self.what = what


class SelfCheckError(SimError):
    """A closed-form cost disagrees with the simulator counters of its schedule, or
    a schedule breaks the simulator's rules (a region used while not live, a byte
    count that is negative or beyond its region, an unknown action)."""
    exit_code = 3
    label = "self-check failure"
