"""Whole-network scheduling and execution.

A network schedule is a sequence of units stitched at DRAM granularity:
fusable chains (scheduled by the fusion partitioner), attention barriers
(scheduled by the tiling search, with projection GEMMs modeled as plain
untiled passes), and residual adds. ``run_schedule`` is the network
executor: one ScratchpadSim instance spans the whole execution, so its
counters are the network's EMA ground truth.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from . import attention_tiling as at
from . import layer_fusion as lf
from .errors import CapacityError, ConfigError, SelfCheckError
from .hwmodel import (CostReport, HardwareConfig, ScratchpadSim, Txn, bounded,
                      build_report, parse_fields, replay)
from .workload import (MAX_EXTENT, Attention, AttentionDims, LayerNode,
                       NetworkGraph, attention_dims, attention_operands, layer_macs,
                       layer_vector_ops, projection_passes)


@dataclass
class ChainUnit:
    layers: list[lf.ChainLayer]
    plan: lf.FusionPlan


@dataclass
class AttentionUnit:
    node: LayerNode
    dims: AttentionDims
    tiling: at.AttentionTiling | None   # None: the spilled-score baseline core
    buffer_bytes: int = 0


@dataclass
class AddUnit:
    node: LayerNode


ScheduleUnit = ChainUnit | AttentionUnit | AddUnit


@dataclass
class NetworkSchedule:
    units: list[ScheduleUnit]

    def to_dict(self) -> dict:
        out = []
        for u in self.units:
            if isinstance(u, ChainUnit):
                out.append({"kind": "chain",
                            "layers": [l.node.id for l in u.layers],
                            "plan": u.plan.to_dict()})
            elif isinstance(u, AttentionUnit):
                if u.tiling is None:
                    tiling = "baseline"
                else:
                    tiling = dict(u.tiling.to_dict(),
                                  element_bytes=u.dims.element_bytes,
                                  ema_bytes=at.attention_ema(u.dims, u.tiling),
                                  buffer_bytes=u.buffer_bytes)
                out.append({"kind": "attention", "node": u.node.id,
                            "tiling": tiling})
            else:
                out.append({"kind": "add", "node": u.node.id})
        return {"units": out}


def plan_network(graph: NetworkGraph, hw: HardwareConfig,
                 attention_mode: str | dict = "auto",
                 fusion_mode: str | dict = "auto", tables: dict | None = None
                 ) -> NetworkSchedule:
    """Build the unit schedule: fusion plans per chain, tilings per attention.

    A dict ``attention_mode`` is an ``at.tiling_spec``; each attention layer
    gets its fixed tiling, with t_k = N_r in resident mode. Every group, core
    and pass is capacity-checked here, before anything executes; ``tables``, which
    calls may share, keeps fusion cost tables, attention searches and passed replays.
    """
    tables = {} if tables is None else tables
    segments = lf.split_into_segments(graph)
    if isinstance(fusion_mode, dict):
        chains = {str(i) for i in range(sum(kind == "chain" for kind, _ in segments))}
        unknown = sorted(set(fusion_mode) - chains)
        if unknown:
            raise ConfigError(f"schedule.fusion names no chain {unknown}; the graph "
                              f"has {len(chains)} chain(s), numbered from 0")
    if isinstance(attention_mode, dict) and not any(
            isinstance(n.op, Attention) for n in graph.nodes):
        raise ConfigError("schedule.attention fixes a tiling, but the graph has no attention")
    units: list[ScheduleUnit] = []
    chain_idx = 0
    for kind, nodes in segments:
        if kind == "chain":
            layers = lf.chain_from_nodes(graph, nodes)
            if fusion_mode == "auto":
                plan = lf.partition_chain(layers, hw, tables)
            elif fusion_mode == "singleton":
                plan = lf.singleton_plan(layers, hw, tables)
            else:
                plan = _fixed_plan(layers, fusion_mode.get(str(chain_idx)), hw, tables)
            units.append(ChainUnit(layers, plan))
            chain_idx += 1
        else:
            node = nodes[0]
            try:   # capacity-check the core, then the gemm or add passes without compute
                if isinstance(node.op, Attention):
                    dims = attention_dims(graph, node, hw.element_bytes)
                    if attention_mode == "auto":   # one search per geometry and hardware
                        tiling = tables[dims, hw] = (tables.get((dims, hw))
                                                     or at.search_attention_tiling(dims, hw))
                    elif attention_mode == "baseline":
                        tiling = None
                    else:
                        tiling = at.AttentionTiling(
                            attention_mode["t_q"], attention_mode.get("t_k", dims.N_r),
                            at.ResidencyMode(attention_mode["mode"]))
                        at.check_tiling(dims, tiling, node.id)
                    units.append(AttentionUnit(node, dims, tiling,
                                               at.tiling_buffer_bytes(dims, tiling, hw)))
                    key, passes = (node.op, dims, hw), _projection_txns(units[-1], hw)
                else:   # an add: shape inference leaves no other barrier
                    units.append(AddUnit(node))
                    elems = graph.out_shape(node.id).elements
                    key, passes = (elems, hw), _add_pass(elems, hw)
                if key not in tables:   # one replay per geometry and hardware that passes
                    replay(passes, ScratchpadSim(hw.scratchpad_bytes))
                    tables[key] = True
            except CapacityError as e:
                raise CapacityError(e.requested, e.available, f"{node.id}: {e.what}") from e
    return NetworkSchedule(units)


@dataclass(frozen=True)
class FixedGroup:
    """A ``schedule.fusion`` group as a config gives it: chain layers start..end, fused
    at one tile and halo policy."""
    start: int = bounded(0, MAX_EXTENT)
    end: int = bounded(0, MAX_EXTENT)
    tile: tuple[int, int] = bounded(most=MAX_EXTENT)
    policy: lf.HaloPolicy = lf.HaloPolicy.RECOMPUTE


def _fixed_plan(layers: list[lf.ChainLayer], group_spec: list | None,
                hw: HardwareConfig, tables: dict | None) -> lf.FusionPlan:
    if group_spec is None:
        return lf.singleton_plan(layers, hw, tables)
    groups = []
    covered = 0
    for g in group_spec:
        spec = FixedGroup(**parse_fields("schedule.fusion group", g, FixedGroup,
                                         "schedule.fusion group ",
                                         required=("start", "end", "tile")))
        try:
            tile = lf.TileShape(*spec.tile)
        except ValueError as e:
            raise ConfigError(f"schedule.fusion group {g!r}: {e}")
        start, end = spec.start, spec.end
        if start != covered or end < start or end >= len(layers):
            raise ConfigError(f"schedule.fusion groups must cover the chain in order; "
                              f"bad group [{start}, {end}]")
        chosen = lf.fixed_tile_choice(layers[start:end + 1], tile, spec.policy, hw, tables)
        groups.append(replace(chosen, start=start, end=end))
        covered = end + 1
    if covered != len(layers):
        raise ConfigError("schedule.fusion groups do not cover the whole chain")
    return lf.FusionPlan(groups)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _balanced_split(total: int, parts: int) -> list[int]:
    base, rem = divmod(total, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


def _stream_blocks(in_elems: int, out_elems: int, eb: int, avail: int) -> int:
    """Fewest blocks whose in + out block fits ``avail`` B (need falls as blocks grow)."""
    most = max(in_elems, out_elems, 1)
    return min(most, 1 + bisect_left(range(1, most + 1), True, key=lambda blocks: (
        -(-in_elems // blocks) + -(-out_elems // blocks)) * eb <= avail))


def _gemm_pass(tag: str, in_elems: int, w_elems: int, out_elems: int,
               hw: HardwareConfig) -> Iterator[Txn]:
    """Projection pass with resident weights and block-streamed activations.

    Every input and output byte moves exactly once, so total traffic equals
    in + weights + out regardless of the block count. Blocks shrink until the
    working set fits beside the weights (nothing else is live between passes).
    Lazy, so a replay that cannot fit the weights stops before any block is made.
    """
    eb = hw.element_bytes
    yield Txn("alloc", f"{tag}_w", w_elems * eb)
    yield Txn("load", f"{tag}_w", w_elems * eb)
    blocks = _stream_blocks(in_elems, out_elems, eb,
                            hw.scratchpad_bytes - w_elems * eb)
    yield Txn("alloc", f"{tag}_in", -(-in_elems // blocks) * eb)
    yield Txn("alloc", f"{tag}_out", -(-out_elems // blocks) * eb)
    for i_n, o_n in zip(_balanced_split(in_elems, blocks),
                        _balanced_split(out_elems, blocks)):
        yield from (Txn("load", f"{tag}_in", i_n * eb),
                    Txn("touch", f"{tag}_out", (i_n + w_elems + o_n) * eb),
                    Txn("store", f"{tag}_out", o_n * eb))
    yield from (Txn("free", f"{tag}_{r}", 0) for r in ("out", "in", "w"))


def _add_pass(elems: int, hw: HardwareConfig) -> Iterator[Txn]:
    """Residual add, block-streamed; each operand and the sum move once. Lazy, as the gemm's.

    The block search is the gemm's with input = output = ``elems``.
    """
    eb = hw.element_bytes
    blocks = _stream_blocks(elems, elems, eb, hw.scratchpad_bytes)
    blk = -(-elems // blocks)
    yield from (Txn("alloc", "add_a", blk * eb), Txn("alloc", "add_b", blk * eb))
    for n in _balanced_split(elems, blocks):
        yield from (Txn("load", "add_a", n * eb), Txn("load", "add_b", n * eb),
                    Txn("touch", "add_a", 3 * n * eb), Txn("store", "add_a", n * eb))
    yield from (Txn("free", "add_b", 0), Txn("free", "add_a", 0))


def _projection_txns(unit: AttentionUnit, hw: HardwareConfig) -> Iterator[Txn]:
    """The unit's projection passes (Q, spatial reduction, K, V), in order, lazily."""
    c = unit.dims.heads * unit.dims.d
    return (t for tag, n_in, weights, n_out
            in projection_passes(unit.node.op, unit.dims.N, unit.dims.N_r)
            for t in _gemm_pass(tag, n_in * c, weights, n_out * c, hw))


def attention_unit_execute(x: np.ndarray, unit: AttentionUnit,
                           params: dict[str, np.ndarray],
                           sim: ScratchpadSim, hw: HardwareConfig) -> np.ndarray:
    """Projections (Q, spatial reduction, K, V) then the attention core.

    Projection operands round-trip through DRAM; the core re-reads Q/K/V per
    its residency mode, matching the closed-form EMA model.
    """
    dims = unit.dims
    c, h, w = x.shape
    q, k, v = attention_operands(x, unit.node.op, params)
    replay(_projection_txns(unit, hw), sim)
    o = at.tiled_attention_execute(q, k, v, dims, unit.tiling, sim)
    merged = o.transpose(1, 0, 2).reshape(dims.N, c)
    return merged.T.reshape(c, h, w)


def add_unit_execute(a: np.ndarray, b: np.ndarray, sim: ScratchpadSim,
                     hw: HardwareConfig) -> np.ndarray:
    """Residual add, traffic per ``_add_pass``."""
    replay(_add_pass(a.size, hw), sim)
    return a + b


def unit_cost(graph: NetworkGraph, unit: ScheduleUnit, hw: HardwareConfig) -> dict:
    """Closed-form breakdown row ``{unit, ema_bytes, macs, vector_ops}`` of a unit."""
    if isinstance(unit, ChainUnit):
        nodes = [l.node for l in unit.layers]
        label = "chain[" + ",".join(n.id for n in nodes) + "]"
        ema, extra_macs = unit.plan.total_ema, unit.plan.total_extra_macs
    elif isinstance(unit, AttentionUnit):
        nodes, label, extra_macs = [unit.node], unit.node.id, 0
        dims = unit.dims
        c = dims.heads * dims.d
        # each pass moves its input, weights and output once (``_gemm_pass``)
        ema = sum((n_in * c + weights + n_out * c) * dims.element_bytes
                  for _, n_in, weights, n_out
                  in projection_passes(unit.node.op, dims.N, dims.N_r))
        ema += at.attention_ema(dims, unit.tiling)
    else:
        nodes, label, extra_macs = [unit.node], unit.node.id, 0
        ema = 3 * graph.out_shape(unit.node.id).elements * hw.element_bytes
    return {"unit": label, "ema_bytes": ema,
            "macs": sum(layer_macs(graph, n) for n in nodes) + extra_macs,
            "vector_ops": sum(layer_vector_ops(graph, n) for n in nodes)}


def run_schedule(graph: NetworkGraph, schedule: NetworkSchedule, x: np.ndarray,
                 params: dict[str, dict[str, np.ndarray]], hw: HardwareConfig,
                 seed: int, reference: dict
                 ) -> tuple[np.ndarray, CostReport, list[tuple[str, float]]]:
    """Run the scheduled network through one simulator; its output, its counters'
    report and each unit's (label, max abs deviation from ``reference``).

    ``reference`` holds each unit's last output by node id. The report's breakdown
    has one ``unit_cost`` row per unit. SelfCheckError names the first unit whose
    simulated EMA is not its closed form, and a CapacityError (or a MemoryError, as
    a ConfigError) raised while a unit runs is re-raised naming it. An output is
    freed after its last reader runs.
    """
    sim = ScratchpadSim(hw.scratchpad_bytes)
    unit_nodes = [[l.node for l in u.layers] if isinstance(u, ChainUnit) else [u.node]
                  for u in schedule.units]
    last_read = {p: i for i, nodes in enumerate(unit_nodes) for p in nodes[0].preds}
    values: dict[str, np.ndarray] = {}
    breakdown: list[dict] = []
    deviations: list[tuple[str, float]] = []
    out = x
    for i, (unit, nodes) in enumerate(zip(schedule.units, unit_nodes)):
        ins = [values[p] for p in nodes[0].preds] or [x]
        values = {k: v for k, v in values.items() if last_read.get(k) != i}
        row = unit_cost(graph, unit, hw)
        ema0 = sim.ema_bytes
        try:
            if isinstance(unit, ChainUnit):
                out = lf.fused_execute(unit.layers, unit.plan, ins[0], sim, params, hw)
            elif isinstance(unit, AttentionUnit):
                out = attention_unit_execute(ins[0], unit, params[unit.node.id], sim, hw)
            else:
                out = add_unit_execute(*ins, sim, hw)
        except CapacityError as e:
            raise CapacityError(e.requested, e.available, f"{row['unit']}: {e.what}") from e
        except MemoryError as e:
            raise ConfigError(f"{row['unit']}: out of memory ({e})") from e
        values[nodes[-1].id] = out
        if row["ema_bytes"] != sim.ema_bytes - ema0:
            raise SelfCheckError(f"{row['unit']}: closed-form EMA {row['ema_bytes']} B "
                                 f"!= simulator {sim.ema_bytes - ema0} B")
        deviations.append((row["unit"], float(np.max(np.abs(out - reference[nodes[-1].id])))))
        breakdown.append(row)
    report = build_report(sum(r["macs"] for r in breakdown),
                          sum(r["vector_ops"] for r in breakdown), sim, hw,
                          breakdown=breakdown, seed=seed)
    return out, report, deviations
