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
from .hwmodel import HardwareConfig, ScratchpadSim, Txn, bounded, replay
from .workload import (FUSABLE_OPS, MAX_EXTENT, LayerNode, NetworkGraph, TensorShape,
                       divisors, keeps_layout, layer_forward, op_cost, tile_intervals, window)
from .workload import conv2d_region  # noqa: F401  (perfbench/tracer.py wraps this alias)


class HaloPolicy(str, Enum):
    RECOMPUTE = "recompute"
    CACHE = "cache"


@dataclass(frozen=True)
class ChainLayer:
    node: LayerNode
    in_shape: TensorShape
    out_shape: TensorShape


@dataclass(frozen=True)
class FusionGroup:
    """One group of a chain and its cost (see ``_GroupTable``): the record ``run`` prints
    and a ``schedule.fusion`` group reads back. ``start``, ``end``, ``tile`` and ``policy``
    choose the group; the fields after them are derived from those, so a config may
    leave each out (None), and one it gives must equal the recomputed value."""
    start: int = bounded(0, MAX_EXTENT)   # first layer index in the chain, inclusive
    end: int = bounded(0, MAX_EXTENT)     # last layer index, inclusive
    tile: tuple[int, int] = bounded(1, MAX_EXTENT)   # output rows, columns
    policy: HaloPolicy = HaloPolicy.RECOMPUTE
    weights_resident: bool = None
    ema_bytes: int = None
    extra_macs: int = None
    buffer_bytes: int = None


# ---------------------------------------------------------------------------
# Spatial geometry
# ---------------------------------------------------------------------------

def _walk(layers: Sequence[ChainLayer], lo: np.ndarray, hi: np.ndarray, axis,
          last=None) -> tuple[np.ndarray, np.ndarray]:
    """Back-propagate output intervals [lo, hi) of layer ``last`` (default the last)
    along ``axis`` (0 rows, 1 columns); each is one for all or one per interval.

    Returns int64 (los, his) of shape (len(lo), len(layers) + 1): column l is
    layer l's input interval, column l + 1 its output, and past ``last`` the
    interval is unchanged. Layer l's interval depends only on layers l..last,
    so one walk serves every group that ends at ``last``. An interval that is
    empty or lands wholly in the padding ring becomes empty at its clamped start.
    """
    n = len(layers)
    in_lens = np.array([(l.in_shape.h, l.in_shape.w) for l in layers],
                       dtype=np.int64)[:, axis]
    walk = np.empty((2, len(lo), n + 1), dtype=np.int64)
    walk[0, :, n], walk[1, :, n] = lo, hi
    for li in reversed(range(n)):
        k, s, p, _ = window(layers[li].node.op)
        if (k, s, p) == (1, 1, 0):   # pointwise: the clip below gives this interval, slower
            walk[:, :, li] = walk[:, :, li + 1]
            continue
        a, b = walk[:, :, li + 1]
        ends = walk[:, :, li]
        np.clip(walk[:, :, li + 1] * s + [[-p], [k - s - p]], 0, in_lens[li], out=ends)
        np.copyto(ends[1], ends[0], where=(b <= a) | (ends[1] <= ends[0]))
        if last is not None:
            np.copyto(ends, walk[:, :, li + 1], where=last < li)
    return walk[0], walk[1]


def _axis_tables(layers: Sequence[ChainLayer], h_extents: np.ndarray,
                 w_extents: np.ndarray) -> tuple[tuple, tuple]:
    """Row and column tables of the output tiles of end e, one of the last E layers, at
    extents ``h_extents[e]`` x ``w_extents[e]`` (each (E, A) or (E, B)), from one walk.

    Each is (count, lens, sums, union), indexed by end e and extent index:
    ``count`` tiles; per ``_walk`` column the total interval length ``sums``
    and the union length ``union``; ``lens`` the rows of lengths that differ
    from the previous tile (interior tiles repeat), zero padded to a common
    row count (a zero row never raises a peak).
    """
    first = len(layers) - len(h_extents)
    axis, end, step, total = np.array(
        [(ax, e, x, (layer.out_shape.h, layer.out_shape.w)[ax]) for ax, extents in
         enumerate((h_extents, w_extents)) for e, layer in enumerate(layers[first:])
         for x in extents[e]], dtype=np.int64).T
    count = -(-total // step)
    starts = np.add.accumulate(count) - count
    seg = np.arange(len(step)).repeat(count)
    lo = (np.arange(len(seg)) - starts[seg]) * step[seg]
    los, his = _walk(layers, lo, np.minimum(lo + step[seg], total[seg]), axis[seg],
                     first + end[seg] if first < len(layers) - 1 else None)
    lens = his - los
    # lo is non-decreasing in tile order, so a tile adds to the union what
    # lies past the furthest end before it; the shift restarts that running
    # maximum at each extent
    shift = seg[:, None] * (int(his.max()) + 1)
    before = np.zeros(his.shape, dtype=np.int64)
    before[1:] = np.maximum.accumulate(his + shift, axis=0)[:-1] - shift[:-1]
    before[starts] = 0
    union = np.add.reduceat(np.maximum(his - np.maximum(los, before), 0), starts)
    keep = np.ones(len(seg), dtype=bool)
    keep[1:] = np.logical_or.reduce(lens[1:] != lens[:-1], axis=1)
    keep[starts] = True
    rank = np.add.accumulate(keep, dtype=np.int64) - 1
    pos = (rank - rank[starts][seg])[keep]
    distinct = np.zeros((len(step), int(pos.max()) + 1, lens.shape[1]), dtype=np.int64)
    distinct[seg[keep], pos] = lens[keep]
    table = (count, distinct, np.add.reduceat(lens, starts), union)
    return tuple(tuple(a[part].reshape(len(h_extents), -1, *a.shape[1:]) for a in table)
                 for part in (slice(h_extents.size), slice(h_extents.size, None)))


def _tile_walks(layers: Sequence[ChainLayer], tile: tuple[int, int]) -> list[tuple]:
    """Row-major (row, column) walks of every tile: [lo, hi] per ``_walk`` column."""
    last = layers[-1].out_shape
    rows, cols = tile_intervals(last.h, tile[0]), tile_intervals(last.w, tile[1])
    lo, hi = np.array(rows + cols, dtype=np.int64).T
    walk = np.stack(_walk(layers, lo, hi, np.repeat([0, 1], [len(rows), len(cols)])),
                    axis=-1).tolist()
    return list(product(walk[:len(rows)], walk[len(rows):]))


# ---------------------------------------------------------------------------
# Group cost and feasibility
# ---------------------------------------------------------------------------

POLICIES = (HaloPolicy.RECOMPUTE, HaloPolicy.CACHE)
_INT64_SAFE = 1 << 62


def _line_buffer(layer: ChainLayer, eb: int) -> int:
    """Bytes of the layer's halo line buffer under CACHE (none if k = 1)."""
    return (window(layer.node.op)[0] - 1) * layer.in_shape.w * layer.in_shape.c * eb


def _suffix(acc: np.ufunc, x: np.ndarray) -> np.ndarray:
    """``acc`` over x[:, i:] for every i, along axis 1."""
    return acc.accumulate(x[:, ::-1], axis=1)[:, ::-1]


class _GroupTable:
    """Every (tile, halo policy, weight residency) option of every group ``layers[i..j]``
    ending at layer j = len(layers) - E + e for an end e < E = ``len(extents)``.

    End e's tiles split layer j's output into ``extents[e]`` = (row, column extents),
    each >= 1, its last repeated up to A and B (a repeat ties with it, so never wins
    or lowers a minimum). ``buf`` and ``ema`` (E, n, A, B, 2, 2) and ``extra``
    (E, n, A, B, 2) are indexed by end e, start i <= j, extents (a, b), policy p in
    ``POLICIES`` order and resident (r = 0) or streamed (r = 1) weights. ``buf`` is
    the peak live bytes over every (tile, layer) pair of the fused replay at the
    executor's exact clamped extents, plus resident weights and (under CACHE) halo
    line buffers. Intermediate maps cost no EMA; under RECOMPUTE each tile re-reads
    its input halo and overlapping intermediate pixels are recomputed (``extra``
    MACs), under CACHE each input byte is read once; streamed weights are read once
    per tile.
    """

    def __init__(self, layers: Sequence[ChainLayer], hw: HardwareConfig,
                 extents: Sequence[tuple]):
        eb, n, first = hw.element_bytes, len(layers), len(layers) - len(extents)
        self.ends, self.bests = range(first, n), {}
        most = [max(len(x[ax]) for x in extents) for ax in (0, 1)]   # A and B
        self.h, self.w = (np.array([x[ax] + x[ax][-1:] * (most[ax] - len(x[ax]))
                                    for x in extents]) for ax in (0, 1))
        (r_count, r_lens, r_sums, r_union), (c_count, c_lens, c_sums, c_union) = \
            _axis_tables(layers, self.h, self.w)
        per_layer = [(l.in_shape.c, l.out_shape.c, *op_cost(l.node.op),   # int64 once bounded
                      l.out_shape.h * l.out_shape.w, _line_buffer(l, eb)) for l in layers]
        c_in, c_out, w, ppm, _, lb = zip(*per_layer)
        out = [l.out_shape.elements * eb for l in layers[first:]]
        # end e's bound caps its every entry and partial sum; exact, as eb may pass a float
        top = [np.maximum.reduce(a.reshape(len(a), -1), axis=1).tolist()
               for a in (r_sums, c_sums, r_count, c_count)]
        for e, k in enumerate(range(first + 1, n + 1)):   # end e is layer k - 1
            b = (top[0][e] * top[1][e] * eb * (max(map(sum, zip(c_in[:k], c_out[:k])))
                                               + sum(ppm[:k])) + sum(lb[:k]) + out[e]
                 + sum(w[:k]) * eb * top[2][e] * top[3][e])
            if b >= _INT64_SAFE:   # the first end whose prefix overflows
                size = f"{b:.3g}" if b < 10**308 else "over 1e+308"  # float range
                raise ConfigError(f"{layers[k - 1].node.id}: fusion cost table exceeds int64 "
                                  f"(bound {size})")
        # (E, n) counts, zero past end e. Peaks go one end at a time: a temporary over
        # glibc's 128 KB mmap threshold raised a run's peak RSS once freed
        c_in, c_out, w, ppm, full, lb = np.array(per_layer, dtype=np.int64).T[:, None] * np.tri(
            n, dtype=np.int64)[first:]
        peak = np.empty((len(extents), n, self.h.shape[1], self.w.shape[1]), dtype=np.int64)
        for e, (r, c) in enumerate(zip(r_lens[:, :, :, None, None], c_lens[:, None, None])):
            peak[e] = (r[..., :-1] * c[..., :-1] * c_in[e] + r[..., 1:] * c[..., 1:] * c_out[e]
                       ).max(axis=(1, 3)).transpose(2, 0, 1)
        w, ppm, full, lb, c_in = (a[..., None, None] for a in (w, ppm, full, lb, c_in))
        w_suffix = _suffix(np.add, w) * eb
        self.buf = np.empty(peak.shape + (2, 2), dtype=np.int64)
        self.buf[..., 0, 0] = _suffix(np.maximum, peak) * eb + w_suffix
        self.buf[..., 0, 1] = _suffix(np.maximum, peak + w) * eb
        self.buf[..., 1, :] = self.buf[..., 0, :] + _suffix(np.add, lb)[..., None]
        # (E, n + 1, A, B): the total and union interval area of each walk column
        area, union = (rows.swapaxes(1, 2)[..., None] * cols.swapaxes(1, 2)[:, :, None]
                       for rows, cols in ((r_sums, c_sums), (r_union, c_union)))
        input_bytes = (np.stack([area[:, :-1], union[:, :-1]], axis=-1) * (c_in * eb)[..., None]
                       + np.array(out, dtype=np.int64)[:, None, None, None, None])
        self.ema = np.empty_like(self.buf)
        self.ema[..., 0] = input_bytes + w_suffix[..., None]
        self.ema[..., 1] = input_bytes + (w_suffix * r_count[:, None, :, None]
                                          * c_count[:, None, None, :])[..., None]
        self.extra = np.zeros(peak.shape + (2,), dtype=np.int64)
        self.extra[..., 0] = _suffix(np.add, (area[:, 1:] - full) * ppm)

    def choice(self, e: int, i: int, a: int, b: int, p: int, r: int) -> FusionGroup:
        """The group ``layers[i..j]`` of end e at extents (a, b), policy p and residency r."""
        return FusionGroup(i, self.ends[e], (int(self.h[e, a]), int(self.w[e, b])),
                           POLICIES[p], r == 0, int(self.ema[e, i, a, b, p, r]),
                           int(self.extra[e, i, a, b, p]), int(self.buf[e, i, a, b, p, r]))

    def best(self, capacity: int) -> list[list[FusionGroup | None]]:
        """Per end e, the minimum-EMA option that fits ``capacity`` per start i <= j, or None.

        Ties prefer larger tiles, fewer extra MACs, resident weights (the one residency
        rule, as ``fixed_tile_choice``'s), a smaller buffer, then RECOMPUTE; exact ties
        go to the first option in index order. Memoized.
        """
        if capacity not in self.bests:
            if not self.bests:   # the first capacity ranks each (e, i)'s options once
                keys = np.broadcast_arrays(   # the last key sorts first
                    np.arange(2)[:, None], self.buf, np.arange(2), self.extra[..., None],
                    -(self.h[:, None, :, None] * self.w[:, None, None, :])[..., None, None],
                    self.ema)
                self.order = np.lexsort([k.reshape(-1, self.buf[0, 0].size) for k in keys])
                self.order += np.arange(0, self.buf.size, self.order.shape[1])[:, None]
            fits = self.buf.ravel()[self.order] <= capacity   # each row's first fit wins
            index = np.unravel_index(self.order[np.arange(len(fits)), fits.argmax(axis=1)],
                                     self.buf.shape)
            found = fits.any(axis=1).reshape(self.buf.shape[:2]).tolist()
            index = np.array(index).T.reshape(*self.buf.shape[:2], -1).tolist()
            self.bests[capacity] = [[self.choice(*index[e][i]) if found[e][i] else None
                                     for i in range(j + 1)] for e, j in enumerate(self.ends)]
        return self.bests[capacity]


def _candidate_table(layers: Sequence[ChainLayer], hw: HardwareConfig,
                     tables: dict | None = None, tile: tuple[int, int] | None = None
                     ) -> _GroupTable:
    """The table at ``tile`` of the groups ending at the last layer, or of every group over
    every tile whose extents divide its last layer's output. Chains of one geometry (ops
    and shapes, not node ids) share it through ``tables``; a failed build is not stored."""
    key = (tuple((l.node.op, l.in_shape, l.out_shape) for l in layers), hw.element_bytes, tile)
    tables = {} if tables is None else tables
    if key not in tables:
        tables[key] = _GroupTable(layers, hw, [((tile[0],), (tile[1],))] if tile else
                                  [(divisors(l.out_shape.h), divisors(l.out_shape.w))
                                   for l in layers])
    return tables[key]


def _option(layers: Sequence[ChainLayer], tile: tuple[int, int], policy: HaloPolicy,
            weights_resident: bool, hw: HardwareConfig) -> FusionGroup:
    return _candidate_table(layers, hw, tile=tile).choice(
        0, 0, 0, 0, POLICIES.index(policy), 0 if weights_resident else 1)


def group_ema(layers: Sequence[ChainLayer], tile: tuple[int, int], policy: HaloPolicy,
              weights_resident: bool, hw: HardwareConfig) -> tuple[int, int]:
    """(ema_bytes, extra_macs) for one fusion group (see ``_GroupTable``)."""
    choice = _option(layers, tile, policy, weights_resident, hw)
    return choice.ema_bytes, choice.extra_macs


def group_buffer_bytes(layers: Sequence[ChainLayer], tile: tuple[int, int],
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
    return _candidate_table(layers, hw).best(hw.scratchpad_bytes)[-1][0]


def fixed_tile_choice(layers: Sequence[ChainLayer], tile: tuple[int, int], policy: HaloPolicy,
                      hw: HardwareConfig, tables: dict | None = None) -> FusionGroup:
    """Resident weights if they fit at this tile, else streamed weights: the rule that
    ``_GroupTable.best`` ranks by.

    Raises ``CapacityError`` with the streamed requirement if neither fits.
    """
    table = _candidate_table(layers, hw, tables, tile)
    for r in (0, 1):
        choice = table.choice(0, 0, 0, 0, POLICIES.index(policy), r)
        if choice.buffer_bytes <= hw.scratchpad_bytes:
            return choice
    raise CapacityError(choice.buffer_bytes, hw.scratchpad_bytes, what="fusion group ["
                        + ",".join(l.node.id for l in layers) + "]")


def partition_chain(chain: Sequence[ChainLayer], hw: HardwareConfig,
                    tables: dict | None = None) -> list[FusionGroup]:
    """Minimum-EMA partition of a linear chain into fusion groups, its plan.

    DP over split points: plans[j], the plan of chain[0..j], is the minimum over
    i of plans[i-1] plus group(i..j), the best option over divisor tiles of layer
    j's output and both halo policies. One ``_GroupTable``, from ``tables``,
    costs every (i, j) at once. Ties break toward fewer groups, then the first i.
    """
    table = _candidate_table(chain, hw, tables)
    choices = table.best(hw.scratchpad_bytes)
    plans = {-1: []}   # prefix end j -> its minimum (EMA, group count) plan
    for j, starts in enumerate(choices):
        cands = [plans[i - 1] + [g] for i, g in enumerate(starts)
                 if g is not None and i - 1 in plans]
        if cands:
            plans[j] = min(cands, key=lambda plan: (sum(g.ema_bytes for g in plan), len(plan)))
    if len(chain) - 1 not in plans:   # then some layer fits no tile alone: name the first
        j = next(j for j, starts in enumerate(choices) if starts[j] is None)
        raise CapacityError(int(table.buf[j, j].min()), hw.scratchpad_bytes,
                            f"layer {chain[j].node.id} as a singleton group at its smallest tile")
    return plans[len(chain) - 1]


def singleton_plan(chain: Sequence[ChainLayer], hw: HardwareConfig,
                   tables: dict | None = None) -> list[FusionGroup]:
    """Fusion-free baseline: every layer is its own group (full-map tile if it fits)."""
    groups: list[FusionGroup] = []
    for i, layer in enumerate(chain):
        full = (layer.out_shape.h, layer.out_shape.w)
        try:
            chosen = fixed_tile_choice([layer], full, HaloPolicy.RECOMPUTE, hw, tables)
        except CapacityError:
            (chosen,) = partition_chain([layer], hw, tables)
        groups.append(replace(chosen, start=i, end=i))
    return groups


# ---------------------------------------------------------------------------
# Fused schedule and execution
# ---------------------------------------------------------------------------

def schedule_group(layers: Sequence[ChainLayer], walks: list[tuple],
                   policy: HaloPolicy, weights_resident: bool,
                   hw: HardwareConfig) -> list[Txn]:
    """Ordered scratchpad transactions of one fusion group, tile by tile.

    Each tile loads its first-layer input region (under CACHE only the bytes
    no earlier tile loaded), runs every layer on chip and stores the last
    layer's output. The compute step of layer ``li`` on row-major tile ``t``
    is the touch tagged ``tile=t, block=li``. ``walks`` is its tile's ``_tile_walks``.
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
    for t, (rows, cols) in enumerate(walks):
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
            txns.append(Txn("touch", name, prev_bytes + streamed + out_bytes, tile=t, block=li))
            if streamed:
                txns.append(Txn("free", "tw", 0))
            txns.append(Txn("free", prev, 0))
            prev, prev_bytes = name, out_bytes
        txns += [Txn("store", prev, prev_bytes), Txn("free", prev, 0)]
    txns += [Txn("free", f"gLB{li}", 0) for li, _ in line_buffers]
    if resident_w:
        txns.append(Txn("free", "gW", 0))
    return txns


def fused_execute(chain: Sequence[ChainLayer], plan: list[FusionGroup], x: np.ndarray,
                  sim: ScratchpadSim,
                  params: dict[str, dict[str, np.ndarray]],
                  hw: HardwareConfig) -> np.ndarray:
    """Execute a fusion plan tile-by-tile, replaying each group's schedule.

    Each compute step runs one layer on one tile; intermediate maps within a
    group never touch DRAM. The resulting counters match ``group_ema``
    byte-exactly and the output matches the dense reference path. A layer after
    the first donates its tile input, under the reference's ``keeps_layout`` rule.
    """
    for group in plan:   # each group reads the last one's output as ``x``
        layers = chain[group.start:group.end + 1]
        walks = _tile_walks(layers, group.tile)
        last = layers[-1].out_shape
        out = np.empty((last.c, last.h, last.w), dtype=np.float64)
        tile_val = None

        def compute(txn: Txn):   # runs only inside this group's replay
            nonlocal tile_val
            li = txn.block
            rows, cols = walks[txn.tile]
            if li == 0:
                tile_val = x[:, slice(*rows[0]), slice(*cols[0])]
            node = layers[li].node
            donate = li > 0 and keeps_layout([l.node.op for l in layers[li + 1:li + 2]])
            tile_val = layer_forward(node, [tile_val], params[node.id], rows[li + 1],
                                     cols[li + 1], (rows[li][0], cols[li][0]), donate)
            if li == len(layers) - 1:
                out[:, slice(*rows[li + 1]), slice(*cols[li + 1])] = tile_val

        replay(schedule_group(layers, walks, group.policy, group.weights_resident, hw),
               sim, compute)
        x = out
    return x


# ---------------------------------------------------------------------------
# Chain extraction from a graph
# ---------------------------------------------------------------------------

def chain_from_nodes(graph: NetworkGraph, nodes: Sequence[LayerNode]) -> list[ChainLayer]:
    return [ChainLayer(n, graph.in_shape(n), graph.out_shape(n.id)) for n in nodes]


def split_into_segments(graph: NetworkGraph) -> list[tuple[str, list[LayerNode]]]:
    """Partition the graph into ('chain', nodes) and ('barrier', [node]) segments.

    A non-fusable node (attention, residual add) is a barrier: its operands live
    in DRAM. A fusable node extends the chain before it only if it reads only
    that chain's last node and is that node's one reader; any other reader needs
    the output DRAM-visible. Otherwise it starts a new chain.
    """
    consumers = graph.consumers()
    segments: list[tuple[str, list[LayerNode]]] = []
    for node in graph.nodes:
        last = segments[-1][1][-1].id if segments and segments[-1][0] == "chain" else None
        if not isinstance(node.op, FUSABLE_OPS):
            segments.append(("barrier", [node]))
        elif node.preds == (last,) and consumers[last] == [node.id]:
            segments[-1][1].append(node)
        else:
            segments.append(("chain", [node]))
    return segments
