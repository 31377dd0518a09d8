"""Memory-hierarchy and compute-throughput model.

The ScratchpadSim is the ground truth for every external-memory-access (EMA)
claim: optimizer modules provide closed-form byte counts, and every one of
those formulas is cross-checked against the counters of a replayed schedule.
Default hardware parameters are order-of-magnitude placeholders, overridable
from the CLI config; every report embeds the config it was produced with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from typing import Callable, NamedTuple

from .errors import CapacityError, ConfigError, SelfCheckError

KIB = 1024


def parse_number(name: str, value, integer: bool) -> int | float:
    """A config value as an int or a finite float; ConfigError naming ``name`` if not.

    ``int(str(value))`` rejects 1.5 and "1.5", which ``int(value)`` would truncate.
    """
    try:
        number = int(str(value)) if integer else float(value)
    except (TypeError, ValueError):
        noun = "an integer" if integer else "a number"
        raise ConfigError(f"{name} must be {noun}, got {value!r}")
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {number}")
    return number


def check_keys(where: str, d: dict, known) -> None:
    """ConfigError if config part ``d`` is not an object or has a key not ``known``."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object, got {d!r}")
    bad = sorted(set(d) - set(known))
    if bad:
        raise ConfigError(f"unknown {where} field(s): {bad}")


def check_list(where: str, value) -> list:
    """``value`` if it is a list; ConfigError naming config part ``where`` if not."""
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list, got {value!r}")
    return value


@dataclass(frozen=True)
class HardwareConfig:
    scratchpad_bytes: int = 256 * KIB
    pe_count: int = 1024            # MACs per cycle
    dram_bytes_per_cycle: int = 16
    e_dram: float = 100.0           # pJ per DRAM byte
    e_sram: float = 1.0             # pJ per scratchpad byte
    e_mac: float = 0.5              # pJ per MAC
    element_bytes: int = 1          # datatype width of modeled traffic

    def __post_init__(self):
        for name, value in asdict(self).items():
            if not math.isfinite(value):
                raise ConfigError(f"hardware.{name} must be finite, got {value}")
            if value <= 0:
                raise ConfigError(f"hardware.{name} must be > 0")
        if self.e_dram <= self.e_sram:
            # EMA minimization is meaningless if DRAM is not the expensive level.
            raise ConfigError("hardware.e_dram must exceed e_sram")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "HardwareConfig":
        check_keys("hardware", d, cls.__dataclass_fields__)
        return cls(**{k: parse_number(f"hardware.{k}", v, not k.startswith("e_"))
                      for k, v in d.items()})


class ScratchpadSim:
    """Transaction-counting on-chip buffer.

    Named regions are allocated against a hard capacity; the sum of live
    allocations exceeding capacity is an error, never silent. Counters are
    bytes and monotonically nondecreasing. ``load``/``store`` move data
    between DRAM and the scratchpad; ``touch`` is on-chip-only traffic.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ConfigError("scratchpad capacity must be > 0")
        self.capacity = capacity
        self.regions: dict[str, int] = {}
        self.dram_reads = 0
        self.dram_writes = 0
        self.sram_accesses = 0
        self.high_water = 0

    @property
    def live_bytes(self) -> int:
        return sum(self.regions.values())

    @property
    def ema_bytes(self) -> int:
        return self.dram_reads + self.dram_writes

    def alloc(self, name: str, nbytes: int) -> str:
        if name in self.regions:
            raise SelfCheckError(f"region {name!r} already live")
        if nbytes < 0:
            raise SelfCheckError("allocation size must be >= 0")
        needed = self.live_bytes + nbytes
        if needed > self.capacity:
            raise CapacityError(needed, self.capacity, what=f"alloc {name!r}")
        self.regions[name] = nbytes
        self.high_water = max(self.high_water, needed)
        return name

    def _check(self, name: str, nbytes: int):
        if name not in self.regions:
            raise SelfCheckError(f"region {name!r} is not live")
        if nbytes < 0:
            raise SelfCheckError("byte count must be >= 0")
        if nbytes > self.regions[name]:
            raise SelfCheckError(
                f"{nbytes} B exceeds region {name!r} size {self.regions[name]} B")

    def load(self, name: str, nbytes: int):
        self._check(name, nbytes)
        self.dram_reads += nbytes
        self.sram_accesses += nbytes

    def store(self, name: str, nbytes: int):
        self._check(name, nbytes)
        self.dram_writes += nbytes
        self.sram_accesses += nbytes

    def touch(self, name: str, nbytes: int):
        if name not in self.regions:
            raise SelfCheckError(f"region {name!r} is not live")
        if nbytes < 0:
            raise SelfCheckError("byte count must be >= 0")
        self.sram_accesses += nbytes

    def free(self, name: str):
        if name not in self.regions:
            raise SelfCheckError(f"region {name!r} is not live")
        del self.regions[name]


class Txn(NamedTuple):
    """One scratchpad transaction of a schedule; the tags locate it for compute."""
    action: str          # alloc | load | store | touch | free
    region: str
    nbytes: int
    head: int = -1
    tile: int = -1
    block: int = -1
    what: str = ""


def replay(txns: list[Txn], sim: ScratchpadSim,
           compute: Callable[[Txn], None] | None = None):
    """Drive a schedule through the simulator; raises CapacityError or SelfCheckError.

    This is the only place that dispatches transactions. ``compute``, if
    given, runs after each transaction so numerics follow the same schedule.
    """
    for t in txns:
        if t.action == "alloc":
            sim.alloc(t.region, t.nbytes)
        elif t.action == "load":
            sim.load(t.region, t.nbytes)
        elif t.action == "store":
            sim.store(t.region, t.nbytes)
        elif t.action == "touch":
            sim.touch(t.region, t.nbytes)
        elif t.action == "free":
            sim.free(t.region)
        else:
            raise SelfCheckError(f"unknown action {t.action!r}")
        if compute is not None:
            compute(t)


def roofline_cycles(macs: int, ema_bytes: int, hw: HardwareConfig) -> int:
    """Max of compute-bound and bandwidth-bound cycles, perfectly overlapped."""
    compute = -(-macs // hw.pe_count)
    transfer = -(-ema_bytes // hw.dram_bytes_per_cycle)
    return max(compute, transfer)


@dataclass
class CostReport:
    ema_bytes: int
    macs: int
    vector_ops: int
    sram_accesses: int
    cycles: int
    energy_pj: float
    scratchpad_high_water: int
    breakdown: list[dict] = field(default_factory=list)
    hardware: dict = field(default_factory=dict)
    seed: int | None = None
    notes: str = "software model, parameters not from silicon"

    CSV_FIELDS = ("ema_bytes", "macs", "vector_ops", "sram_accesses",
                  "cycles", "energy_pj", "scratchpad_high_water")

    def to_dict(self) -> dict:
        return asdict(self)


def price(macs: int, ema_bytes: int, sram_accesses: int,
          hw: HardwareConfig) -> tuple[int, float]:
    """(cycles, energy_pj); energy is exactly linear in traffic and MACs, and finite."""
    energy = ema_bytes * hw.e_dram + sram_accesses * hw.e_sram + macs * hw.e_mac
    if not math.isfinite(energy):
        raise ConfigError("energy overflows: lower hardware.e_dram, hardware.e_sram "
                          "or hardware.e_mac")
    return roofline_cycles(macs, ema_bytes, hw), energy


def build_report(macs: int, vector_ops: int, sim: ScratchpadSim,
                 hw: HardwareConfig, breakdown: list[dict] | None = None,
                 seed: int | None = None) -> CostReport:
    """Assemble a report from the simulator counters."""
    cycles, energy = price(macs, sim.ema_bytes, sim.sram_accesses, hw)
    return CostReport(
        ema_bytes=sim.ema_bytes,
        macs=macs,
        vector_ops=vector_ops,
        sram_accesses=sim.sram_accesses,
        cycles=cycles,
        energy_pj=energy,
        scratchpad_high_water=sim.high_water,
        breakdown=breakdown or [],
        hardware=hw.to_dict(),
        seed=seed,
    )
