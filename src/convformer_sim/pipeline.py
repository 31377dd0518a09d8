"""Whole-network scheduling and execution.

A network schedule is a sequence of units stitched at DRAM granularity: fusable
chains (scheduled by the fusion partitioner), attention barriers (scheduled by the
tiling search, with projection GEMMs modeled as plain untiled passes), and residual
adds; each kind has ``nodes``, a breakdown ``row``, ``execute`` and ``to_dict``, and
each barrier kind the ``passes`` that planning replays. ``run_schedule`` is the network
executor: one ScratchpadSim instance spans the whole execution, so its counters are the
network's EMA ground truth.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import asdict, dataclass, replace
from typing import Iterator

import numpy as np

from . import attention_tiling as at
from . import layer_fusion as lf
from .errors import CapacityError, ConfigError, SelfCheckError
from .hwmodel import (CostReport, HardwareConfig, ScratchpadSim, Txn, build_report,
                      check_derived, parse_fields, replay)
from .workload import (Attention, AttentionDims, LayerNode, NetworkGraph, attention_dims,
                       attention_forward, layer_work, projection_passes)


@dataclass
class ChainUnit:
    layers: list[lf.ChainLayer]
    plan: list[lf.FusionGroup]
    row: dict   # {unit, ema_bytes, macs, vector_ops}, as in every unit kind

    @property
    def nodes(self) -> list[LayerNode]:
        return [l.node for l in self.layers]

    def execute(self, ins: list, params: dict, sim: ScratchpadSim, hw: HardwareConfig):
        return lf.fused_execute(self.layers, self.plan, ins[0], sim, params, hw)

    def to_dict(self) -> dict:
        return {"kind": "chain", "layers": [n.id for n in self.nodes], "plan": {
            "groups": [asdict(g) for g in self.plan],
            "total_ema": sum(g.ema_bytes for g in self.plan),
            "total_extra_macs": sum(g.extra_macs for g in self.plan)}}


@dataclass
class AttentionUnit:
    nodes: list[LayerNode]   # the attention node alone, as in an add
    dims: AttentionDims
    tiling: at.AttentionTiling | None   # None: the spilled-score baseline core
    row: dict

    @property
    def node(self) -> LayerNode:
        return self.nodes[0]

    def passes(self, hw: HardwareConfig) -> Iterator[Txn]:
        """The projection passes (Q, spatial reduction, K, V), in order, lazily."""
        c = self.dims.heads * self.dims.d
        return (t for tag, n_in, weights, n_out
                in projection_passes(self.node.op, self.dims.N, self.dims.N_r)
                for t in _gemm_pass(tag, n_in * c, weights, n_out * c, hw))

    def execute(self, ins: list, params: dict, sim: ScratchpadSim, hw: HardwareConfig):
        return attention_unit_execute(ins[0], self, params[self.node.id], sim, hw)

    def to_dict(self) -> dict:
        return {"kind": "attention", "node": self.node.id,
                "tiling": "baseline" if self.tiling is None else asdict(self.tiling)}


@dataclass
class AddUnit:
    nodes: list[LayerNode]   # the add node alone
    elems: int   # of each operand and of the sum
    row: dict

    def passes(self, hw: HardwareConfig) -> Iterator[Txn]:
        return _add_pass(self.elems, hw)

    def execute(self, ins: list, params: dict, sim: ScratchpadSim, hw: HardwareConfig):
        return add_unit_execute(*ins, self, sim, hw)

    def to_dict(self) -> dict:
        return {"kind": "add", "node": self.nodes[0].id}


def plan_network(graph: NetworkGraph, hw: HardwareConfig,
                 attention_mode: str | dict = "auto",
                 fusion_mode: str | dict = "auto", tables: dict | None = None
                 ) -> list[ChainUnit | AttentionUnit | AddUnit]:
    """Build the schedule, its list of units: fusion plans per chain, tilings per
    attention, and each unit's breakdown row.

    A dict ``attention_mode`` maps attention layer ids to the records ``run`` prints
    (``at.fixed_tiling``); a layer it does not name runs the baseline core. Every
    group, core and pass is capacity-checked here, before anything executes; ``tables``,
    which calls may share, keeps the fusion cost tables (``lf._candidate_table``).
    """
    tables = {} if tables is None else tables
    segments = lf.split_into_segments(graph)
    if isinstance(fusion_mode, dict):
        chains = {str(i) for i in range(sum(kind == "chain" for kind, _ in segments))}
        unknown = sorted(set(fusion_mode) - chains)
        if unknown:
            raise ConfigError(f"schedule.fusion names no chain {unknown}; the graph "
                              f"has {len(chains)} chain(s), numbered from 0")
    records = attention_mode if isinstance(attention_mode, dict) else {}
    unknown = sorted(set(records) - {n.id for n in graph.nodes if isinstance(n.op, Attention)})
    if unknown:
        raise ConfigError(f"schedule.attention fixes a tiling for {unknown}, but the graph "
                          "has no attention layer of that id")

    def row(nodes: list[LayerNode], label: str, ema: int, extra_macs: int = 0) -> dict:
        macs, vector_ops = map(sum, zip(*(layer_work(graph, n) for n in nodes)))
        return {"unit": label, "ema_bytes": ema,   # closed forms, checked as the unit runs
                "macs": macs + extra_macs, "vector_ops": vector_ops}

    units: list[ChainUnit | AttentionUnit | AddUnit] = []
    chain_idx = 0
    for kind, nodes in segments:
        if kind == "chain":   # its cost table capacity-checks every group: it has no passes
            layers = lf.chain_from_nodes(graph, nodes)
            plan = _chain_plan(layers, fusion_mode, chain_idx, hw, tables)
            label = "chain[" + ",".join(n.id for n in nodes) + "]"
            units.append(ChainUnit(layers, plan, row(nodes, label, sum(g.ema_bytes for g in plan),
                                                     sum(g.extra_macs for g in plan))))
            chain_idx += 1
            continue
        node, eb = nodes[0], hw.element_bytes
        try:   # capacity-check the core, then replay the unit's passes without compute
            if isinstance(node.op, Attention):
                dims = attention_dims(graph, node, eb)
                # a layer that a map does not name runs the baseline core
                tiling = (at.search_attention_tiling(dims, hw) if attention_mode == "auto"
                          else at.fixed_tiling(records.get(node.id, "baseline"), dims, hw))
                # each pass moves its input, weights and output once (``_gemm_pass``)
                ema = at.attention_ema(dims, tiling) + eb * sum(
                    (n_in + n_out) * dims.heads * dims.d + weights
                    for _, n_in, weights, n_out in projection_passes(node.op, dims.N, dims.N_r))
                unit = AttentionUnit(nodes, dims, tiling, row(nodes, node.id, ema))
            else:   # an add: shape inference leaves no other barrier
                elems = graph.out_shape(node.id).elements
                unit = AddUnit(nodes, elems, row(nodes, node.id, 3 * elems * eb))
            replay(unit.passes(hw), ScratchpadSim(hw.scratchpad_bytes))
        except CapacityError as e:
            raise CapacityError(e.requested, e.available, f"{node.id}: {e.what}") from e
        except ConfigError as e:   # a field of the layer's fixed tiling
            raise ConfigError(f"{node.id}: {e}") from e
        units.append(unit)
    return units


def _chain_plan(layers: list[lf.ChainLayer], fusion_mode: str | dict, index: int,
                hw: HardwareConfig, tables: dict) -> list[lf.FusionGroup]:
    """Chain ``index``'s plan in ``fusion_mode``; a chain a map does not name is singleton.

    A map's groups are ``FusionGroup`` records, as ``run`` prints them: each group is
    costed from its start, end, tile and policy, and a derived field it gives must
    equal the recomputed one."""
    if fusion_mode == "auto":
        return lf.partition_chain(layers, hw, tables)
    group_spec = None if fusion_mode == "singleton" else fusion_mode.get(str(index))
    if group_spec is None:
        return lf.singleton_plan(layers, hw, tables)
    groups, covered = [], 0
    for g in group_spec:
        given = parse_fields("schedule.fusion group", g, lf.FusionGroup,
                             "schedule.fusion group ", required=("start", "end", "tile"))
        start, end = given["start"], given["end"]
        if start != covered or end < start or end >= len(layers):
            raise ConfigError(f"schedule.fusion groups must cover the chain in order; "
                              f"bad group [{start}, {end}]")
        chosen = replace(lf.fixed_tile_choice(layers[start:end + 1], given["tile"],
                                              given.get("policy", lf.FusionGroup.policy),
                                              hw, tables), start=start, end=end)
        check_derived("schedule.fusion group ", given, chosen, g,
                      "start, end, tile and policy")
        groups.append(chosen)
        covered = end + 1
    if covered != len(layers):
        raise ConfigError("schedule.fusion groups do not cover the whole chain")
    return groups


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


def attention_unit_execute(x: np.ndarray, unit: AttentionUnit,
                           params: dict[str, np.ndarray],
                           sim: ScratchpadSim, hw: HardwareConfig) -> np.ndarray:
    """Projections (Q, spatial reduction, K, V) then the attention core.

    Projection operands round-trip through DRAM; the core re-reads Q/K/V per
    its residency mode, matching the closed-form EMA model.
    """
    replay(unit.passes(hw), sim)
    return attention_forward(x, unit.node.op, params, core=lambda q, k, v: (
        at.tiled_attention_execute(q, k, v, unit.dims, unit.tiling, sim)))


def add_unit_execute(a: np.ndarray, b: np.ndarray, unit: AddUnit, sim: ScratchpadSim,
                     hw: HardwareConfig) -> np.ndarray:
    """Residual add, traffic per the unit's ``passes``."""
    replay(unit.passes(hw), sim)
    return a + b


def run_schedule(schedule: list[ChainUnit | AttentionUnit | AddUnit], x: np.ndarray,
                 params: dict[str, dict[str, np.ndarray]], hw: HardwareConfig,
                 seed: int, reference: dict
                 ) -> tuple[np.ndarray, CostReport, list[tuple[str, float]]]:
    """Run the scheduled network through one simulator; its output, its counters'
    report and each unit's (label, max abs deviation from ``reference``).

    ``reference`` holds each unit's last output by node id. The report's breakdown
    is the units' rows. SelfCheckError names the first unit whose simulated EMA is
    not its row's, or that overflows ``hw``'s scratchpad as it runs (planning at
    ``hw`` rules that out); a MemoryError is a ConfigError naming the unit. An output
    is freed after its last reader runs.
    """
    sim = ScratchpadSim(hw.scratchpad_bytes)
    last_read = {p: i for i, u in enumerate(schedule) for p in u.nodes[0].preds}
    values: dict[str, np.ndarray] = {}
    deviations: list[tuple[str, float]] = []
    out = x
    for i, unit in enumerate(schedule):
        nodes, row = unit.nodes, unit.row
        ins = [values[p] for p in nodes[0].preds] or [x]
        values = {k: v for k, v in values.items() if last_read.get(k) != i}
        ema0 = sim.ema_bytes
        try:
            out = unit.execute(ins, params, sim, hw)
        except CapacityError as e:   # planning capacity-checked it: the plan is broken
            raise SelfCheckError(f"{row['unit']}: planned to fit, but running it: {e}") from e
        except MemoryError as e:
            raise ConfigError(f"{row['unit']}: out of memory ({e})") from e
        values[nodes[-1].id] = out
        if row["ema_bytes"] != sim.ema_bytes - ema0:
            raise SelfCheckError(f"{row['unit']}: closed-form EMA {row['ema_bytes']} B "
                                 f"!= simulator {sim.ema_bytes - ema0} B")
        deviations.append((row["unit"], float(np.max(np.abs(out - reference[nodes[-1].id])))))
    rows = [u.row for u in schedule]
    report = build_report(sum(r["macs"] for r in rows), sum(r["vector_ops"] for r in rows),
                          sim, hw, breakdown=rows, seed=seed)
    return out, report, deviations
