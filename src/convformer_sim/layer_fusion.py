"""Layer-fusion scheduling: halo arithmetic, group costing, DP partition, executor.

Consecutive spatial/pointwise layers are grouped so their intermediate feature
maps live entirely on chip: only the first layer's input, the last layer's
output, and weights ever touch DRAM. Convolution tiles need halo (extra input
border); the halo is either recomputed per tile (extra MACs, minimal buffer)
or cached in line buffers (no extra MACs, extra buffer). A dynamic program
over split points picks the minimum-EMA partition of a chain under the
scratchpad capacity.

Attention is global over tokens, so it can never sit inside a spatially tiled
group; chains handed to the partitioner contain only conv / downsample /
linear / norm / activation layers, and attention (plus residual adds) is
stitched between chains at DRAM granularity by the pipeline module.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from itertools import product
from typing import Sequence

import numpy as np

from .errors import CapacityError, ConfigError
from .hwmodel import HardwareConfig, ScratchpadSim, Txn, replay
from .workload import (Attention, Conv2D, GELU, LayerNode, LayerNorm, Linear,
                       NetworkGraph, TensorShape, divisors, layer_forward, op_cost,
                       tile_intervals, window)
from .workload import conv2d_region  # noqa: F401  (perfbench/tracer.py wraps this alias)


class HaloPolicy(str, Enum):
    RECOMPUTE = "recompute"
    CACHE = "cache"


@dataclass(frozen=True)
class TileShape:
    h_t: int
    w_t: int

    def __post_init__(self):
        if min(self.h_t, self.w_t) < 1:
            raise ValueError(f"tile extents must be >= 1, got {self.h_t}x{self.w_t}")


@dataclass(frozen=True)
class ChainLayer:
    node: LayerNode
    in_shape: TensorShape
    out_shape: TensorShape


@dataclass(frozen=True)
class FusionGroup:
    """One group of a chain and its cost (see ``_GroupTable``)."""
    start: int            # first layer index in the chain, inclusive
    end: int              # last layer index, inclusive
    tile: TileShape
    policy: HaloPolicy
    weights_resident: bool
    ema: int
    extra_macs: int
    buffer_bytes: int

    def to_dict(self) -> dict:
        return {"start": self.start, "end": self.end,
                "tile": [self.tile.h_t, self.tile.w_t],
                "policy": self.policy.value,
                "weights_resident": self.weights_resident,
                "ema_bytes": self.ema, "extra_macs": self.extra_macs}


@dataclass
class FusionPlan:
    groups: list[FusionGroup]

    @property
    def total_ema(self) -> int:
        return sum(g.ema for g in self.groups)

    @property
    def total_extra_macs(self) -> int:
        return sum(g.extra_macs for g in self.groups)

    def to_dict(self) -> dict:
        return {"groups": [g.to_dict() for g in self.groups],
                "total_ema": self.total_ema, "total_extra_macs": self.total_extra_macs}


# ---------------------------------------------------------------------------
# Spatial geometry
# ---------------------------------------------------------------------------

def _window(node: LayerNode) -> tuple[int, int, int, int]:
    """``window`` of a chain layer; attention is global over tokens."""
    if isinstance(node.op, Attention):
        raise ConfigError(
            f"{node.id}: attention cannot be spatially tiled inside a fusion group")
    return window(node.op)


def _walk(layers: Sequence[ChainLayer], lo: np.ndarray, hi: np.ndarray, axis
          ) -> tuple[np.ndarray, np.ndarray]:
    """Back-propagate last-layer output intervals [lo, hi) along ``axis`` (0 rows,
    1 columns; one for all or one per interval).

    Returns int64 (los, his) of shape (len(lo), len(layers) + 1): column l is
    layer l's input interval, column l + 1 its output. Layer l's interval
    depends only on layers l.., so one walk serves every group that ends at
    the last layer. An interval that is empty or lands wholly in the padding
    ring becomes empty at its clamped start.
    """
    n = len(layers)
    in_lens = np.array([(l.in_shape.h, l.in_shape.w) for l in layers],
                       dtype=np.int64)[:, axis]
    walk = np.empty((2, len(lo), n + 1), dtype=np.int64)
    walk[0, :, n], walk[1, :, n] = lo, hi
    for li in reversed(range(n)):
        k, s, p, _ = _window(layers[li].node)
        if (k, s, p) == (1, 1, 0):   # pointwise: same extent, same interval
            walk[:, :, li] = walk[:, :, li + 1]
            continue
        a, b = walk[:, :, li + 1]
        ends = walk[:, :, li]
        np.clip(walk[:, :, li + 1] * s + [[-p], [k - s - p]], 0, in_lens[li], out=ends)
        np.copyto(ends[1], ends[0], where=(b <= a) | (ends[1] <= ends[0]))
    return walk[0], walk[1]


def _axis_tables(layers: Sequence[ChainLayer], h_extents: Sequence[int],
                 w_extents: Sequence[int]) -> tuple[tuple, tuple]:
    """Row and column tables of the last layer's output tiles, from one walk.

    Each is (count, lens, sums, union) with, per extent e: ``count[e]``
    tiles; per ``_walk`` column the total interval length ``sums[e]`` and
    the union length ``union[e]``; ``lens[e]`` the rows of lengths that
    differ from the previous tile (interior tiles repeat), zero padded to a
    common row count (a zero row never raises a peak).
    """
    last = layers[-1].out_shape
    n_h = len(h_extents)
    step = np.array([*h_extents, *w_extents], dtype=np.int64)
    total = np.where(np.arange(len(step)) < n_h, last.h, last.w)
    count = -(-total // step)
    starts = np.cumsum(count) - count
    seg = np.repeat(np.arange(len(step)), count)
    lo = (np.arange(len(seg)) - starts[seg]) * step[seg]
    los, his = _walk(layers, lo, np.minimum(lo + step[seg], total[seg]),
                     (seg >= n_h).astype(np.int64))
    lens = his - los
    # lo is non-decreasing in tile order, so a tile adds to the union what
    # lies past the furthest end before it; the shift restarts that running
    # maximum at each extent
    shift = seg[:, None] * (int(his.max()) + 1)
    before = np.zeros_like(his)
    before[1:] = np.maximum.accumulate(his + shift, axis=0)[:-1] - shift[:-1]
    before[starts] = 0
    union = np.add.reduceat(np.maximum(his - np.maximum(los, before), 0), starts)
    keep = np.ones(len(seg), dtype=bool)
    keep[1:] = (lens[1:] != lens[:-1]).any(axis=1)
    keep[starts] = True
    rank = np.cumsum(keep) - 1
    pos = (rank - rank[starts][seg])[keep]
    distinct = np.zeros((len(step), int(pos.max()) + 1, lens.shape[1]), dtype=np.int64)
    distinct[seg[keep], pos] = lens[keep]
    table = (count, distinct, np.add.reduceat(lens, starts), union)
    return tuple(a[:n_h] for a in table), tuple(a[n_h:] for a in table)


def _tile_walks(layers: Sequence[ChainLayer], tile: TileShape) -> list[tuple]:
    """Row-major (row, column) walks of every tile: [lo, hi] per ``_walk`` column."""
    last = layers[-1].out_shape
    rows, cols = tile_intervals(last.h, tile.h_t), tile_intervals(last.w, tile.w_t)
    lo, hi = np.array(rows + cols, dtype=np.int64).T
    walk = np.stack(_walk(layers, lo, hi, np.repeat([0, 1], [len(rows), len(cols)])),
                    axis=-1).tolist()
    return list(product(walk[:len(rows)], walk[len(rows):]))


# ---------------------------------------------------------------------------
# Group cost and feasibility
# ---------------------------------------------------------------------------

POLICIES = (HaloPolicy.RECOMPUTE, HaloPolicy.CACHE)
_INT64_SAFE = float(1 << 62)


def _line_buffer(layer: ChainLayer, eb: int) -> int:
    """Bytes of the layer's halo line buffer under CACHE (none if k = 1)."""
    return (_window(layer.node)[0] - 1) * layer.in_shape.w * layer.in_shape.c * eb


def _suffix(acc: np.ufunc, x: np.ndarray) -> np.ndarray:
    """``acc`` over x[i:] for every i, along axis 0."""
    return acc.accumulate(x[::-1], axis=0)[::-1]


class _GroupTable:
    """Every (tile, halo policy, weight residency) option of every group ``layers[i:]``.

    Tiles split the last layer's output into ``h_extents`` x ``w_extents``
    (any extent >= 1). ``buf`` and ``ema`` (n, A, B, 2, 2) and ``extra``
    (n, A, B, 2) are indexed by start i, extents (a, b), policy p in
    ``POLICIES`` order and resident (r = 0) or streamed (r = 1) weights.
    ``buf`` is the peak live bytes over every (tile, layer) pair of the fused
    replay at the executor's exact clamped extents, plus resident weights and
    (under CACHE) halo line buffers. Intermediate maps cost no EMA; under
    RECOMPUTE each tile re-reads its input halo and overlapping intermediate
    pixels are recomputed (``extra`` MACs), under CACHE each input byte is
    read once; streamed weights are read once per tile.
    """

    def __init__(self, layers: Sequence[ChainLayer], hw: HardwareConfig,
                 h_extents: Sequence[int], w_extents: Sequence[int]):
        eb = hw.element_bytes
        self.extents = (list(h_extents), list(w_extents))
        (r_count, r_lens, r_sums, r_union), (c_count, c_lens, c_sums, c_union) = \
            _axis_tables(layers, h_extents, w_extents)
        c_in, c_out, w, ppm, full, lb = per_layer = np.array(   # int64 once bounded
            [(l.in_shape.c, l.out_shape.c, *op_cost(l.node.op),
              l.out_shape.h * l.out_shape.w, _line_buffer(l, eb)) for l in layers],
            dtype=object).T
        last = layers[-1].out_shape
        out_bytes = last.h * last.w * last.c * eb
        # every entry below, and every partial sum of one, is at most this
        bound = (float(r_sums.max()) * float(c_sums.max()) * eb
                 * float((c_in + c_out).max() + ppm.sum()) + float(lb.sum()) + out_bytes
                 + float(w.sum()) * eb * float(r_count.max() * c_count.max()))
        if bound >= _INT64_SAFE:
            raise ConfigError(f"{layers[-1].node.id}: fusion cost table exceeds int64 "
                              f"(bound {bound:.3g})")
        c_in, c_out, w, ppm, full, lb = per_layer.astype(np.int64)

        def outer(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
            return rows.T[:, :, None] * cols.T[:, None, :]   # (n, A, B)

        # peak live elements of each layer over every tile pair
        r, c = r_lens[:, :, None, None], c_lens[None, None]
        live = r[..., :-1] * c[..., :-1] * c_in + r[..., 1:] * c[..., 1:] * c_out
        peak = np.moveaxis(live.max(axis=(1, 3)), -1, 0)
        w_suffix = _suffix(np.add, w)[:, None, None] * eb
        self.buf = np.empty(peak.shape + (2, 2), dtype=np.int64)
        self.buf[..., 0, 0] = _suffix(np.maximum, peak) * eb + w_suffix
        self.buf[..., 0, 1] = _suffix(np.maximum, peak + w[:, None, None]) * eb
        self.buf[..., 1, :] = self.buf[..., 0, :] + _suffix(np.add, lb)[:, None, None, None]
        input_bytes = np.stack([outer(r_sums[:, :-1], c_sums[:, :-1]),
                                outer(r_union[:, :-1], c_union[:, :-1])],
                               axis=-1) * (c_in * eb)[:, None, None, None]
        self.ema = np.empty_like(self.buf)
        self.ema[..., 0] = input_bytes + out_bytes + w_suffix[..., None]
        self.ema[..., 1] = (input_bytes + out_bytes
                            + (w_suffix * r_count[:, None] * c_count)[..., None])
        self.extra = np.zeros(peak.shape + (2,), dtype=np.int64)
        self.extra[..., 0] = _suffix(np.add, (outer(r_sums[:, 1:], c_sums[:, 1:])
                                              - full[:, None, None]) * ppm[:, None, None])

    def choice(self, i: int, a: int, b: int, p: int, r: int) -> FusionGroup:
        """The group ``layers[i:]`` at extents (a, b), policy p and residency r."""
        tile = TileShape(int(self.extents[0][a]), int(self.extents[1][b]))
        return FusionGroup(i, len(self.buf) - 1, tile, POLICIES[p], r == 0,
                           int(self.ema[i, a, b, p, r]), int(self.extra[i, a, b, p]),
                           int(self.buf[i, a, b, p, r]))

    def best(self, capacity: int) -> list[FusionGroup | None]:
        """Minimum-EMA option that fits ``capacity`` per start i, or None.

        Ties prefer larger tiles, fewer extra MACs, a smaller buffer, then
        RECOMPUTE; exact ties go to the first option in index order.
        """
        shape = self.buf.shape
        h, w = (np.array(e, dtype=np.int64) for e in self.extents)
        keys = (self.ema, -(h[:, None] * w)[:, :, None, None], self.extra[..., None],
                self.buf, np.arange(2)[:, None])
        fits = self.buf <= capacity
        cand = fits
        for key in keys:
            key = np.broadcast_to(key, shape)
            low = np.where(cand, key, np.iinfo(np.int64).max).min(
                axis=(1, 2, 3, 4), keepdims=True)
            cand = cand & (key == low)
        first = cand.reshape(shape[0], -1).argmax(axis=1)
        return [self.choice(i, *map(int, np.unravel_index(f, shape[1:])))
                if fits[i].any() else None for i, f in enumerate(first)]


def _candidate_table(layers: Sequence[ChainLayer], hw: HardwareConfig) -> _GroupTable:
    """The table over every tile whose extents divide the last layer's output."""
    last = layers[-1].out_shape
    return _GroupTable(layers, hw, divisors(last.h), divisors(last.w))


def _option(layers: Sequence[ChainLayer], tile: TileShape, policy: HaloPolicy,
            weights_resident: bool, hw: HardwareConfig) -> FusionGroup:
    return _GroupTable(layers, hw, [tile.h_t], [tile.w_t]).choice(
        0, 0, 0, POLICIES.index(policy), 0 if weights_resident else 1)


def group_ema(layers: Sequence[ChainLayer], tile: TileShape, policy: HaloPolicy,
              weights_resident: bool, hw: HardwareConfig) -> tuple[int, int]:
    """(ema_bytes, extra_macs) for one fusion group (see ``_GroupTable``)."""
    choice = _option(layers, tile, policy, weights_resident, hw)
    return choice.ema, choice.extra_macs


def group_buffer_bytes(layers: Sequence[ChainLayer], tile: TileShape,
                       policy: HaloPolicy, weights_resident: bool,
                       hw: HardwareConfig) -> int:
    """Peak live scratchpad bytes of the fused replay; raises over capacity.

    The peak uses the exact clamped extents the executor allocates (see
    ``_GroupTable``).
    """
    req = _option(layers, tile, policy, weights_resident, hw).buffer_bytes
    if req > hw.scratchpad_bytes:
        raise CapacityError(req, hw.scratchpad_bytes, what="fusion group")
    return req


# ---------------------------------------------------------------------------
# Partition search
# ---------------------------------------------------------------------------

def best_group_choice(layers: Sequence[ChainLayer], hw: HardwareConfig
                      ) -> FusionGroup | None:
    """Minimum-EMA (tile, policy, residency) for one group, or None if infeasible.

    Tiles are the divisor extents of the group's output; ties as in
    ``_GroupTable.best``.
    """
    return _candidate_table(layers, hw).best(hw.scratchpad_bytes)[0]


def fixed_tile_choice(layers: Sequence[ChainLayer], tile: TileShape,
                      policy: HaloPolicy, hw: HardwareConfig) -> FusionGroup:
    """Resident weights if they fit at this tile, else streamed weights.

    Raises ``CapacityError`` with the streamed requirement if neither fits.
    """
    table = _GroupTable(layers, hw, [tile.h_t], [tile.w_t])
    for r in (0, 1):
        choice = table.choice(0, 0, 0, POLICIES.index(policy), r)
        if choice.buffer_bytes <= hw.scratchpad_bytes:
            return choice
    raise CapacityError(choice.buffer_bytes, hw.scratchpad_bytes, what="fusion group ["
                        + ",".join(l.node.id for l in layers) + "]")


def partition_chain(chain: Sequence[ChainLayer], hw: HardwareConfig) -> FusionPlan:
    """Minimum-EMA partition of a linear chain into fusion groups.

    DP over split points: best[j] = min over i of best[i-1] + cost(i..j),
    where cost(i..j) is the best option over divisor tiles of layer j's
    output and both halo policies. One ``_GroupTable`` per end layer j costs
    every start i at once. Ties break toward fewer groups.
    """
    n = len(chain)
    if n == 0:
        return FusionPlan([])
    # best[j] = (ema, n_groups) for chain[0..j], reached by group back[j]
    best: list[tuple[int, int] | None] = [None] * n
    back: list[FusionGroup | None] = [None] * n
    alone: CapacityError | None = None   # the first layer that fits no tile alone
    for j in range(n):
        table = _candidate_table(chain[:j + 1], hw)
        choices = table.best(hw.scratchpad_bytes)
        if choices[j] is None and alone is None:   # entry j is layer j alone
            alone = CapacityError(int(table.buf[j].min()), hw.scratchpad_bytes,
                                  f"layer {chain[j].node.id} as a singleton group "
                                  "at its smallest tile")
        for i, g in enumerate(choices):
            if g is None:
                continue
            prev = (0, 0) if i == 0 else best[i - 1]
            if prev is None:
                continue
            cand = (prev[0] + g.ema, prev[1] + 1)
            if best[j] is None or cand < best[j]:
                best[j] = cand
                back[j] = g
    if best[n - 1] is None:
        raise alone  # type: ignore[misc]

    groups: list[FusionGroup] = []
    j = n - 1
    while j >= 0:
        groups.append(back[j])  # type: ignore[arg-type]
        j = groups[-1].start - 1
    return FusionPlan(groups[::-1])


def singleton_plan(chain: Sequence[ChainLayer], hw: HardwareConfig) -> FusionPlan:
    """Fusion-free baseline: every layer is its own group (full-map tile if it fits)."""
    groups: list[FusionGroup] = []
    for i, layer in enumerate(chain):
        full = TileShape(layer.out_shape.h, layer.out_shape.w)
        try:
            chosen = fixed_tile_choice([layer], full, HaloPolicy.RECOMPUTE, hw)
        except CapacityError:
            (chosen,) = partition_chain([layer], hw).groups
        groups.append(replace(chosen, start=i, end=i))
    return FusionPlan(groups)


# ---------------------------------------------------------------------------
# Fused schedule and execution
# ---------------------------------------------------------------------------

def schedule_group(layers: Sequence[ChainLayer], tile: TileShape,
                   policy: HaloPolicy, weights_resident: bool,
                   hw: HardwareConfig) -> list[Txn]:
    """Ordered scratchpad transactions of one fusion group, tile by tile.

    Each tile loads its first-layer input region (under CACHE only the bytes
    no earlier tile loaded), runs every layer on chip and stores the last
    layer's output. The compute step of layer ``li`` on row-major tile ``t``
    is the touch tagged ``tile=t, block=li``.
    """
    eb = hw.element_bytes
    w = [op_cost(l.node.op)[0] * eb for l in layers]
    line_buffers = [(li, nbytes) for li, l in enumerate(layers)
                    if (nbytes := _line_buffer(l, eb)) and policy is HaloPolicy.CACHE]
    c_in0 = layers[0].in_shape.c
    covered = np.zeros((layers[0].in_shape.h, layers[0].in_shape.w), dtype=bool)
    resident_w = sum(w) if weights_resident else 0
    txns: list[Txn] = []
    if resident_w:
        txns += [Txn("alloc", "gW", resident_w), Txn("load", "gW", resident_w)]
    txns += [Txn("alloc", f"gLB{li}", nbytes) for li, nbytes in line_buffers]
    for t, (rows, cols) in enumerate(_tile_walks(layers, tile)):
        (ir0, ir1), (ic0, ic1) = rows[0], cols[0]
        prev, prev_bytes = "tin", (ir1 - ir0) * (ic1 - ic0) * c_in0 * eb
        if policy is HaloPolicy.RECOMPUTE:
            load = prev_bytes
        else:
            region = covered[ir0:ir1, ic0:ic1]
            load = int(region.size - region.sum()) * c_in0 * eb
            region[...] = True
        txns += [Txn("alloc", "tin", prev_bytes), Txn("load", "tin", load)]
        for li, layer in enumerate(layers):
            (or0, or1), (oc0, oc1) = rows[li + 1], cols[li + 1]
            name = f"tb{li}"
            out_bytes = (or1 - or0) * (oc1 - oc0) * layer.out_shape.c * eb
            streamed = 0 if weights_resident else w[li]
            txns.append(Txn("alloc", name, out_bytes))
            if streamed:
                txns += [Txn("alloc", "tw", streamed), Txn("load", "tw", streamed)]
            txns.append(Txn("touch", name, prev_bytes + streamed + out_bytes,
                            tile=t, block=li, what="layer"))
            if streamed:
                txns.append(Txn("free", "tw", 0))
            txns.append(Txn("free", prev, 0))
            prev, prev_bytes = name, out_bytes
        txns += [Txn("store", prev, prev_bytes), Txn("free", prev, 0)]
    txns += [Txn("free", f"gLB{li}", 0) for li, _ in line_buffers]
    if resident_w:
        txns.append(Txn("free", "gW", 0))
    return txns


def fused_execute(chain: Sequence[ChainLayer], plan: FusionPlan, x: np.ndarray,
                  sim: ScratchpadSim,
                  params: dict[str, dict[str, np.ndarray]],
                  hw: HardwareConfig) -> np.ndarray:
    """Execute a fusion plan tile-by-tile, replaying each group's schedule.

    Each compute step runs one layer on one tile; intermediate maps within a
    group never touch DRAM. The resulting counters match ``group_ema``
    byte-exactly and the output matches the dense reference path.
    """
    cur = np.asarray(x, dtype=np.float64)
    for group in plan.groups:
        layers = chain[group.start:group.end + 1]
        walks = _tile_walks(layers, group.tile)
        last = layers[-1].out_shape
        out = np.empty((last.c, last.h, last.w), dtype=np.float64)
        tile_val = None

        def compute(txn: Txn):   # runs only inside this group's replay
            nonlocal tile_val
            if txn.what != "layer":
                return
            li = txn.block
            rows, cols = walks[txn.tile]
            if li == 0:
                tile_val = cur[:, slice(*rows[0]), slice(*cols[0])]
            node = layers[li].node
            tile_val = layer_forward(node, [tile_val], params[node.id], rows[li + 1],
                                     cols[li + 1], (rows[li][0], cols[li][0]))
            if li == len(layers) - 1:
                out[:, slice(*rows[li + 1]), slice(*cols[li + 1])] = tile_val

        replay(schedule_group(layers, group.tile, group.policy,
                              group.weights_resident, hw), sim, compute)
        cur = out
    return cur


# ---------------------------------------------------------------------------
# Chain extraction from a graph
# ---------------------------------------------------------------------------

FUSABLE_OPS = (Conv2D, Linear, LayerNorm, GELU)


def chain_from_nodes(graph: NetworkGraph, node_ids: Sequence[str]) -> list[ChainLayer]:
    return [ChainLayer(graph.node(i), graph.in_shape(graph.node(i)),
                       graph.out_shape(i)) for i in node_ids]


def split_into_segments(graph: NetworkGraph) -> list[tuple[str, list[LayerNode]]]:
    """Partition the graph into ('chain', nodes) and ('barrier', [node]) segments.

    A chain extends only while each node's output feeds exactly the next node;
    attention and residual adds are barriers (their operands live in DRAM), and
    any node with fan-out ends its chain because its output must be DRAM-visible
    to the other consumers.
    """
    consumers = graph.consumers()
    segments: list[tuple[str, list[LayerNode]]] = []
    current: list[LayerNode] = []
    for node in graph.nodes:
        if isinstance(node.op, FUSABLE_OPS):
            if current and node.preds != (current[-1].id,):
                segments.append(("chain", current))
                current = []
            current.append(node)
            if len(consumers[node.id]) != 1:
                segments.append(("chain", current))
                current = []
        else:
            if current:
                segments.append(("chain", current))
                current = []
            segments.append(("barrier", [node]))
    if current:
        segments.append(("chain", current))
    return segments
