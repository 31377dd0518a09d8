"""Memory-hierarchy and compute-throughput model.

The ScratchpadSim is the ground truth for every external-memory-access (EMA)
claim: optimizer modules provide closed-form byte counts, and every one of
those formulas is cross-checked against the counters of a replayed schedule.
Default hardware parameters are order-of-magnitude placeholders, overridable
from the CLI config; every report embeds the config it was produced with.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from typing import Callable, Iterable, NamedTuple, get_args, get_origin, get_type_hints

from .errors import CapacityError, ConfigError, SelfCheckError

KIB = 1024


def parse_number(name: str, value, integer: bool, least: int | None = None,
                 most: int | None = None) -> int | float:
    """A config value as an int or a finite float, in [least, most] where given;
    ConfigError naming ``name`` if not.

    ``int(str(value))`` rejects 1.5 and "1.5", which ``int(value)`` would truncate.
    An int is held to the float range, as a float is to finite values.
    """
    try:
        if isinstance(value, bool):   # JSON true is not 1
            raise TypeError
        number = int(str(value)) if integer or type(value) is int else float(value)
    except (TypeError, ValueError):
        noun = "an integer" if integer else "a number"
        raise ConfigError(f"{name} must be {noun}, got {value!r}")
    if type(number) is int and abs(number) > sys.float_info.max:  # exact: no conversion to float
        raise ConfigError(f"{name} must be at most {sys.float_info.max:.4g}, "
                          f"got {len(str(abs(number)))} digits")
    if not integer and not math.isfinite(number := float(number)):
        raise ConfigError(f"{name} must be finite, got {number}")
    if least is not None and number < least:
        raise ConfigError(f"{name} must be >= {least}, got {number}")
    if most is not None and number > most:
        raise ConfigError(f"{name} must be at most {most}, got {number}")
    return number


def check_keys(where: str, d: dict, known) -> None:
    """ConfigError if config part ``d`` is not an object or has a key not ``known``."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object, got {d!r}")
    bad = sorted(set(d) - set(known))
    if bad:
        raise ConfigError(f"unknown {where} field(s): {bad}")


_type_hints = functools.cache(get_type_hints)   # per dataclass: parse_fields reads them


def bounded(least: int | None = None, most: int | None = None, **kwargs):
    """A dataclass field whose config value ``parse_fields`` holds to [least, most]."""
    return field(metadata={"least": least, "most": most}, **kwargs)


def parse_fields(where: str, d: dict, cls, prefix: str | None = None, extra=(),
                 required=()) -> dict:
    """The fields of dataclass ``cls`` that config part ``d`` gives, each parsed by its
    annotation: an int or float by ``parse_number``, held to its ``bounded`` metadata;
    an enum by value; a str as given; a bool as JSON true or false only; a tuple of ints
    as a list of as many, each held to the field's bounds; anything else as given. A key
    that is neither a field nor in ``extra`` is rejected, and a field in ``required``
    that ``d`` lacks is parsed as None. Each error names ``prefix`` + the field
    (``prefix`` defaults to ``where.``)."""
    check_keys(where, d, (*extra, *(f.name for f in fields(cls))))
    prefix = f"{where}." if prefix is None else prefix
    types = _type_hints(cls)
    d = {**dict.fromkeys(required), **d}
    return {f.name: _parse_value(prefix + f.name, d[f.name], types[f.name], f.metadata)
            for f in fields(cls) if f.name in d}


def check_derived(prefix: str, given: dict, record, raw: dict, basis: str) -> None:
    """ConfigError naming ``prefix`` + the first field of config part ``raw`` (parsed:
    ``given``) that is not ``record``'s: only a field derived from ``basis`` can differ."""
    for name, value in given.items():
        if getattr(record, name) != value:
            raise ConfigError(f"{prefix}{name} must be {json.dumps(asdict(record)[name])} "
                              f"(derived from {basis}), got {json.dumps(raw[name])}")


def _parse_value(name: str, value, kind, bounds):
    if get_origin(kind) is tuple:
        if not isinstance(value, list) or len(value) != len(get_args(kind)):
            raise ConfigError(f"{name} must be a list of {len(get_args(kind))} integers, "
                              f"got {value!r}")
        return tuple(_parse_value(name, v, int, bounds) for v in value)
    if kind in (int, float):
        value = parse_number(name, value, kind is int, **bounds)
    elif isinstance(kind, type) and issubclass(kind, Enum):
        values = [m.value for m in kind]
        if value not in values:
            raise ConfigError(f"{name} must be one of {values}, got {value!r}")
        value = kind(value)
    elif kind is str and not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    elif kind is bool and not isinstance(value, bool):   # 1 == True, but 1 is no boolean
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


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
        for name, value in asdict(self).items():   # parse_number has made each finite
            if value <= 0:
                raise ConfigError(f"hardware.{name} must be > 0")
        if self.e_dram <= self.e_sram:
            # EMA minimization is meaningless if DRAM is not the expensive level.
            raise ConfigError("hardware.e_dram must exceed e_sram")

    @classmethod
    def from_dict(cls, *parts: dict) -> "HardwareConfig":
        """The config of ``hardware`` parts, a later part's fields winning."""
        return cls(**{k: v for d in parts for k, v in parse_fields("hardware", d, cls).items()})


class ScratchpadSim:
    """Transaction-counting on-chip buffer.

    Named regions are allocated against a hard capacity; the sum of live
    allocations exceeding capacity is an error, never silent. Counters are
    bytes and monotonically nondecreasing. ``load``/``store`` move data
    between DRAM and the scratchpad; ``touch`` is on-chip-only traffic.
    """

    def __init__(self, capacity: int):
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

    def free(self, name: str, nbytes: int = 0):
        self._check(name, nbytes)
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


def replay(txns: Iterable[Txn], sim: ScratchpadSim,
           compute: Callable[[Txn], None] | None = None):
    """Drive a schedule through the simulator; raises CapacityError or SelfCheckError.

    This is the only place that dispatches transactions. ``compute``, if
    given, runs after each ``touch``: every compute step of a schedule is one.
    """
    steps = {"alloc": sim.alloc, "load": sim.load, "store": sim.store,
             "touch": sim.touch, "free": sim.free}
    for t in txns:
        step = steps.get(t.action)
        if step is None:
            raise SelfCheckError(f"unknown action {t.action!r}")
        step(t.region, t.nbytes)
        if compute is not None and t.action == "touch":
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
        hardware=asdict(hw),
        seed=seed,
    )
