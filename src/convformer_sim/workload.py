"""ConvFormer layer graph, shape inference, presets, and the reference executor.

The reference executor runs every layer densely in float64 with standard
row-wise softmax; it is the correctness oracle against which every optimized
schedule (tiled attention, fused chains) is checked. Presets are reduced-scale
topologies: operator sequence follows the published stage patterns of the
hybrid CNN-Transformer families they are named after, with dimensions shrunk
so any tensor fits in ~1 MiB. Weights are drawn from a seeded generator,
uniform in [-0.5, 0.5]; determinism matters more than realism here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from .errors import ConfigError
from .hwmodel import bounded, check_keys, check_list, parse_fields, parse_number

LN_EPS = 1e-5
GELU_C = math.sqrt(2.0 / math.pi)
# elements per block of the blocked kernels (256 KiB of float64), so that a
# block's operands and temporaries stay in cache between passes
BLOCK_ELEMENTS = 1 << 15
# parsed integers that planning loops or sizes arrays by: map sides, windows,
# reduction ratios, heads and fusion-group integers
MAX_EXTENT = 1 << 16


@dataclass(frozen=True)
class TensorShape:
    n: int
    c: int
    h: int
    w: int

    @property
    def tokens(self) -> int:
        """Sequence view: h*w tokens of dimension c."""
        return self.h * self.w

    @property
    def elements(self) -> int:
        return self.n * self.c * self.h * self.w


# ---------------------------------------------------------------------------
# Layer kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Conv2D:
    c_in: int = bounded(1)
    c_out: int = bounded(1)
    k: int = bounded(1, MAX_EXTENT)
    stride: int = bounded(1, MAX_EXTENT, default=1)
    pad: int = bounded(0, MAX_EXTENT, default=0)
    groups: int = bounded(1, default=1)

    def __post_init__(self):
        if self.c_in % self.groups or self.c_out % self.groups:
            raise ConfigError("conv2d: groups must divide c_in and c_out")


@dataclass(frozen=True)
class Attention:
    heads: int = bounded(1, MAX_EXTENT)   # the schedules loop once per head
    d_head: int = bounded(1)
    sr_ratio: int = bounded(1, MAX_EXTENT, default=1)


@dataclass(frozen=True)
class Linear:
    c_in: int = bounded(1)
    c_out: int = bounded(1)


@dataclass(frozen=True)
class LayerNorm:
    pass


@dataclass(frozen=True)
class GELU:
    pass


@dataclass(frozen=True)
class Add:
    residual_of: str  # id of the skip-connection source


@dataclass(frozen=True)
class Downsample:
    """Patch-merging: an unpadded dense k x k strided conv, channel-preserving;
    an input form that ``infer_shapes`` lowers to ``Conv2D(c, c, k, stride)``."""
    k: int = bounded(1, MAX_EXTENT)
    stride: int = bounded(1, MAX_EXTENT)


LayerOp = Conv2D | Attention | Linear | LayerNorm | GELU | Add | Downsample


@dataclass(frozen=True)
class LayerNode:
    id: str
    op: LayerOp
    preds: tuple[str, ...] = ()


@dataclass
class NetworkGraph:
    nodes: list[LayerNode]
    input_shape: TensorShape
    shapes: dict[str, TensorShape] = field(default_factory=dict)

    def out_shape(self, node_id: str) -> TensorShape:
        return self.shapes[node_id]

    def in_shape(self, node: LayerNode) -> TensorShape:
        if not node.preds:
            return self.input_shape
        return self.out_shape(node.preds[0])

    def consumers(self) -> dict[str, list[str]]:
        """Node id -> ids of the nodes that read its output, in graph order."""
        out: dict[str, list[str]] = {n.id: [] for n in self.nodes}
        for n in self.nodes:
            for p in n.preds:
                out[p].append(n.id)
        return out


# ---------------------------------------------------------------------------
# Attention geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttentionDims:
    """Operand geometry of one attention operator (per-head core)."""
    N: int        # query tokens
    N_r: int      # key/value tokens after spatial reduction
    d: int        # per-head dimension
    heads: int
    element_bytes: int = 1


def attention_dims(graph: NetworkGraph, node: LayerNode, element_bytes: int = 1) -> AttentionDims:
    op = node.op
    shp, sr = graph.in_shape(node), sr_conv(op)
    return AttentionDims(N=shp.tokens, N_r=conv_out_dim(shp.h, sr) * conv_out_dim(shp.w, sr),
                         d=op.d_head, heads=op.heads, element_bytes=element_bytes)


def sr_conv(op: Attention) -> Conv2D:
    """The K/V spatial reduction: a depthwise conv whose kernel equals its stride
    (PVT, SegFormer); at sr_ratio 1 it keeps every token and is not run. Depthwise
    keeps its weights at c*sr^2, so the pass stays schedulable on small scratchpads."""
    c = op.heads * op.d_head
    return Conv2D(c, c, op.sr_ratio, op.sr_ratio, 0, groups=c)


# ---------------------------------------------------------------------------
# Shape inference
# ---------------------------------------------------------------------------

def conv_out_dim(size: int, op: Conv2D) -> int:
    """Output rows (or columns) of ``op`` on ``size`` input rows (or columns)."""
    return (size + 2 * op.pad - op.k) // op.stride + 1


@functools.cache
def divisors(n: int) -> tuple[int, ...]:
    """Every tile extent that splits ``n`` (at least 1) evenly, ascending."""
    p = next((p for p in range(2, math.isqrt(n) + 1) if n % p == 0), n)   # least prime factor
    return (1,) if n == 1 else tuple(sorted({d * f for d in divisors(n // p) for f in (1, p)}))


def tile_intervals(total: int, step: int) -> list[tuple[int, int]]:
    """Half-open [lo, hi) tiles of ``step`` covering ``total``; the last may be short."""
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def infer_shapes(graph: NetworkGraph) -> NetworkGraph:
    """Annotate every node with its output shape and lower each ``Downsample``
    to its ``Conv2D``; idempotent. The last node is the graph's one output, so
    every node before it must be read by a later one."""
    shapes: dict[str, TensorShape] = {}
    nodes: list[LayerNode] = []
    for node in graph.nodes:
        if node.id in shapes:
            raise ConfigError(f"{node.id}: field id is already used by an earlier node")
        if len(node.preds) > 1 and not isinstance(node.op, Add):
            raise ConfigError(f"{node.id}: field preds names {len(node.preds)} inputs; "
                              "only an add takes two")
        for p in node.preds:
            if p not in shapes:
                raise ConfigError(f"{node.id}: predecessor {p!r} not defined earlier "
                                  "(graph must be topologically ordered)")
        ins = graph.input_shape if not node.preds else shapes[node.preds[0]]
        op = node.op
        if isinstance(op, Downsample):
            op = Conv2D(ins.c, ins.c, op.k, op.stride)
            node = replace(node, op=op)
        out = ins   # only a conv or a linear computes a new shape
        if isinstance(op, (Conv2D, Linear)):
            if ins.c != op.c_in:
                raise ConfigError(f"{node.id}: expects c_in={op.c_in}, got {ins.c}")
            out = replace(ins, c=op.c_out)
        if isinstance(op, Conv2D):
            out = replace(out, h=conv_out_dim(ins.h, op), w=conv_out_dim(ins.w, op))
            if out.h < 1 or out.w < 1:
                raise ConfigError(f"{node.id}: kernel larger than padded input")
        elif isinstance(op, Attention):
            if op.heads * op.d_head != ins.c:
                raise ConfigError(f"{node.id}: heads*d_head = {op.heads * op.d_head} "
                                  f"!= c = {ins.c}")
            if op.sr_ratio > min(ins.h, ins.w):
                raise ConfigError(f"{node.id}: field sr_ratio {op.sr_ratio} exceeds the "
                                  f"{ins.h}x{ins.w} input map")
        elif isinstance(op, Add):
            if len(node.preds) != 2:
                raise ConfigError(f"{node.id}: Add needs exactly 2 predecessors")
            if ins != shapes[node.preds[1]]:
                raise ConfigError(f"{node.id}: mismatched operands {ins} vs "
                                  f"{shapes[node.preds[1]]}")
            skip = min(node.preds, key=list(shapes).index)
            if op.residual_of != skip:
                raise ConfigError(f"{node.id}: field residual_of must name the skip input "
                                  f"{skip!r}, got {op.residual_of!r}")
        shapes[node.id] = out
        nodes.append(node)
    read = {p for node in nodes for p in node.preds}
    for node in nodes[:-1]:
        if node.id not in read:
            raise ConfigError(f"{node.id}: no node reads its output; only the last node "
                              "may be the graph's output")
    return replace(graph, nodes=nodes, shapes=shapes)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

def _draw(rng: np.random.Generator, *shape: int) -> np.ndarray:
    # bit-identical to rng.uniform(-0.5, 0.5, shape), which adds -0.5 to 1.0 * each draw
    a = rng.random(shape)
    a -= 0.5
    return a


def param_shapes(op: LayerOp) -> dict[str, tuple[int, ...]]:
    """Each parameter's shape, in draw order: the one statement of what ``op`` holds.
    An attention layer's ``w_sr`` is its ``sr_conv``'s weight, without a bias.
    LayerNorm runs with gamma=1, beta=0 so zero rows stay zero rows; GELU and Add
    carry no parameters."""
    if isinstance(op, Conv2D):
        return {"w": (op.c_out, op.c_in // op.groups, op.k, op.k), "b": (op.c_out,)}
    if isinstance(op, Linear):
        return {"w": (op.c_in, op.c_out), "b": (op.c_out,)}
    if isinstance(op, Attention):
        c = op.heads * op.d_head
        sr = {"w_sr": param_shapes(sr_conv(op))["w"]} if op.sr_ratio > 1 else {}
        return {"wq": (c, c), "wk": (c, c), "wv": (c, c), **sr}
    if isinstance(op, Downsample):
        raise ConfigError("downsample: infer shapes before drawing or costing parameters")
    return {}


def node_params(node: LayerNode, idx: int, seed: int = 0) -> dict[str, np.ndarray]:
    """Node ``idx``'s seeded parameters, from its own stream: alike in any draw order."""
    rng = np.random.default_rng([seed, idx])
    return {name: _draw(rng, *shape) for name, shape in param_shapes(node.op).items()}


def init_params(graph: NetworkGraph, seed: int = 0) -> dict[str, dict[str, np.ndarray]]:
    """Seeded per-node parameters; stable across runs for a given graph."""
    return {node.id: node_params(node, idx, seed) for idx, node in enumerate(graph.nodes)}


def op_cost(op: LayerOp) -> tuple[int, int]:
    """(weight elements incl. bias, MACs per output pixel) of a spatial or token op.

    Each output pixel takes one MAC per element of the ``w`` parameter. Norm,
    activation and add layers report (0, 0). Attention is never asked: its unit
    costs its projections (``projection_passes``) and its core.
    """
    shapes = param_shapes(op)
    return sum(map(math.prod, shapes.values())), math.prod(shapes["w"]) if shapes else 0


FUSABLE_OPS = (Conv2D, Linear, LayerNorm, GELU)   # what a fusion chain may hold


def window(op: LayerOp) -> tuple[int, int, int, int]:
    """(k, stride, pad, groups) of a conv; a token-wise layer is a 1x1 window."""
    if isinstance(op, Conv2D):
        return op.k, op.stride, op.pad, op.groups
    if isinstance(op, FUSABLE_OPS):
        return 1, 1, 0, 1
    raise ConfigError(f"{op!r}: has no spatial window")


# ---------------------------------------------------------------------------
# Dense kernels (shared by reference and fused executors)
# ---------------------------------------------------------------------------

def block_rows(row_elements: int) -> int:
    """Rows of ``row_elements`` each in one block of the blocked kernels."""
    return max(1, BLOCK_ELEMENTS // max(row_elements, 1))


def conv2d_region(x: np.ndarray, op: Conv2D, w: np.ndarray,
                  b: np.ndarray, rows: tuple[int, int], cols: tuple[int, int],
                  origin: tuple[int, int] = (0, 0), donate: bool = False) -> np.ndarray:
    """Compute conv output pixels for out rows [r0,r1) x cols [c0,c1).

    ``x`` is a (c, h', w') array whose [0,0] pixel sits at absolute position
    ``origin``; positions outside it are zero padding. The reference executor
    passes the full tensor at origin (0,0); the fused executor passes a tile
    region. Shared so per-pixel arithmetic is identical on both paths.
    ``donate`` lets a depthwise conv whose region is the shape of ``x`` write
    into ``x`` and return it.
    """
    k, stride, pad, groups = window(op)
    c_in, c_out = x.shape[0], op.c_out
    r0, r1 = rows
    c0, c1 = cols
    oh, ow = r1 - r0, c1 - c0
    if oh <= 0 or ow <= 0:
        return np.zeros((c_out, max(oh, 0), max(ow, 0)), dtype=np.float64)
    cig = c_in // groups
    cog = c_out // groups
    depthwise = cig == cog == 1
    # padded input window of the output region (absolute coordinates), for
    # one block of channels at a time; a dense conv takes them all at once.
    # Each channel's window is one row of ``flat``: hp x wp and a tail of k
    # zeros, so that under stride 1 each depthwise tap is one contiguous run
    # of oh * wp elements. The wp - ow columns past the region's right edge
    # are computed too, and cropped before the bias.
    in_r0 = r0 * stride - pad
    in_c0 = c0 * stride - pad
    hp = (r1 - 1) * stride + k - r0 * stride
    wp = (c1 - 1) * stride + k - c0 * stride
    cw = wp if stride == 1 else ow       # output columns computed per row
    step = block_rows(oh * cw) if depthwise else c_in
    flat = np.zeros((min(step, c_in), hp * wp + k), dtype=np.float64)
    win = flat[:, :hp * wp].reshape(-1, hp, wp)
    xr0, xc0 = origin
    sr0, sr1 = max(in_r0, xr0), min(in_r0 + hp, xr0 + x.shape[1])
    sc0, sc1 = max(in_c0, xc0), min(in_c0 + wp, xc0 + x.shape[2])

    def padded(lo: int) -> int:
        """Fill the window with channels [lo, lo + step) and return their
        count. Only the part inside ``x`` is written, so the zeros around it
        stay for the next block."""
        n = min(step, c_in - lo)
        if sr0 < sr1 and sc0 < sc1:
            win[:n, sr0 - in_r0:sr1 - in_r0, sc0 - in_c0:sc1 - in_c0] = \
                x[lo:lo + n, sr0 - xr0:sr1 - xr0, sc0 - xc0:sc1 - xc0]
        return n

    if depthwise:
        # k*k taps, row-major from zero, bias last: each pixel's float
        # operations are the same in any region and any block. A donated x
        # takes each block's result once the block is in the window, since
        # channels are independent; else the result is fresh and C-contiguous
        out = (x if donate and x.shape == (c_out, oh, ow)
               else np.empty((c_out, oh, ow), dtype=np.float64))
        acc = np.empty((len(flat), oh, cw), dtype=np.float64)
        prod = np.empty_like(acc)
        for lo in range(0, c_out, step):
            n = padded(lo)
            block, pb = acc[:n], prod[:n]
            block.fill(0.0)
            for i, j in np.ndindex(k, k):
                if stride == 1:
                    tap = flat[:n, i * wp + j:(i + oh) * wp + j].reshape(n, oh, wp)
                else:
                    tap = win[:n, i:i + (oh - 1) * stride + 1:stride,
                              j:j + (ow - 1) * stride + 1:stride]
                np.multiply(w[lo:lo + n, 0, i, j, None, None], tap, out=pb)
                block += pb
            # axes reversed: numpy then writes a channel-last out 2.5x faster
            np.add(block[:, :, :ow].T, b[lo:lo + n], out=out[lo:lo + n].T)
        return out
    padded(0)
    # every stride-th k x k window of the padded input: (c_in, oh, ow, k, k)
    windows = np.lib.stride_tricks.sliding_window_view(
        win, (k, k), axis=(1, 2))[:, ::stride, ::stride]
    out = np.empty((c_out, oh, ow), dtype=np.float64)
    for g in range(groups):
        # im2col: (oh*ow, cig*k*k); the contiguous copy fixes the matmul
        # operand layout, though BLAS may still round by the region's size
        patches = np.ascontiguousarray(
            windows[g * cig:(g + 1) * cig].transpose(1, 2, 0, 3, 4)
        ).reshape(oh * ow, cig * k * k)
        wg = w[g * cog:(g + 1) * cog].reshape(cog, -1)
        res = patches @ wg.T
        res += b[g * cog:(g + 1) * cog]
        out[g * cog:(g + 1) * cog] = res.T.reshape(cog, oh, ow)
    return out


def layernorm(x: np.ndarray) -> np.ndarray:
    """Per-pixel normalization over channels; gamma=1, beta=0. The variance is
    numpy's ``var``: the mean of the squared deviations, summed over axis 0."""
    d = x - x.mean(axis=0, keepdims=True)
    var = np.add.reduce(d * d, axis=0, keepdims=True)
    var /= x.shape[0]
    var += LN_EPS
    d /= np.sqrt(var, out=var)
    return d


def gelu(x: np.ndarray, donate: bool = False) -> np.ndarray:
    """Tanh-form GELU, shared by every executor:
    0.5 * x * (1 + tanh(c * (x + 0.044715 * x*x*x))), in that order, over
    blocks of ``x``'s first axis; x*x*x as numpy's x**3 is slow below 0.
    ``donate`` writes the result into ``x``, its axes taken in memory order."""
    xs = x.transpose(np.argsort(x.strides, kind="stable")[::-1]) if donate else x
    out = xs if donate else np.empty(x.shape, dtype=np.float64)
    step = block_rows(math.prod(xs.shape[1:]))
    tmp = np.empty((min(step, len(xs)), *xs.shape[1:]), dtype=np.float64)
    for lo in range(0, len(xs), step):
        xb, ob = xs[lo:lo + step], out[lo:lo + step]
        t = tmp[:len(xb)]
        np.multiply(xb, xb, out=t)
        t *= xb
        t *= 0.044715
        t += xb
        t *= GELU_C
        np.tanh(t, out=t)
        t += 1.0
        np.multiply(0.5, xb, out=ob)
        ob *= t
    return x if donate else out


def linear_tokens(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Token-wise linear layer on a (c, h, w) map."""
    c, h, wd = x.shape
    tok = x.reshape(c, h * wd).T  # (N, c)
    out = tok @ w
    out += b
    return out.T.reshape(w.shape[1], h, wd)


def softmax_rows(s: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction (the baseline the online form must match)."""
    e = s - s.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def dense_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """softmax(QK^T / sqrt(d)) V per head; q,k,v are (heads, N, d)/(heads, N_r, d)."""
    d = q.shape[-1]
    out = np.empty_like(q)
    for h in range(q.shape[0]):
        s = (q[h] @ k[h].T) / math.sqrt(d)
        out[h] = softmax_rows(s) @ v[h]
    return out


def attention_operands(x: np.ndarray, op: Attention, p: dict[str, np.ndarray]
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project a (c, h, w) map into per-head Q, K, V; K/V from the reduced sequence."""
    c, h, w = x.shape
    n_tok = h * w
    tok = x.reshape(c, n_tok).T  # (N, c)
    q = tok @ p["wq"]
    if op.sr_ratio > 1:
        sr = sr_conv(op)
        red = conv2d_region(x, sr, p["w_sr"], np.zeros(c),
                            (0, conv_out_dim(h, sr)), (0, conv_out_dim(w, sr)))
        tok_r = red.reshape(c, -1).T
    else:
        tok_r = tok
    kk = tok_r @ p["wk"]
    vv = tok_r @ p["wv"]

    def split(m: np.ndarray) -> np.ndarray:
        n = m.shape[0]
        return m.reshape(n, op.heads, op.d_head).transpose(1, 0, 2)

    return split(q), split(kk), split(vv)


def attention_forward(x: np.ndarray, op: Attention, p: dict[str, np.ndarray],
                      core=dense_attention) -> np.ndarray:
    """Attention on a (c, h, w) map: project, run ``core`` on the per-head Q, K, V,
    and merge its (heads, N, d) output back into a (c, h, w) map."""
    c, h, w = x.shape
    o = core(*attention_operands(x, op, p))
    merged = o.transpose(1, 0, 2).reshape(h * w, c)
    return merged.T.reshape(c, h, w)


# ---------------------------------------------------------------------------
# Reference execution
# ---------------------------------------------------------------------------

def keeps_layout(readers: list[LayerOp]) -> bool:
    """Whether a layer read by ``readers`` may write into its dead input (``donate``),
    so that its result keeps that input's memory layout. A LayerNorm's channel sums
    round by layout, and an add passes its operands' layout on."""
    return not any(isinstance(op, (LayerNorm, Add)) for op in readers)


def layer_forward(node: LayerNode, inputs: list[np.ndarray], p: dict[str, np.ndarray],
                  rows: tuple[int, int] | None = None, cols: tuple[int, int] | None = None,
                  origin: tuple[int, int] = (0, 0), donate: bool = False) -> np.ndarray:
    """One layer, for the reference and the fused executor. A conv computes
    output rows x cols (default: all) of an input whose [0, 0] pixel sits at
    ``origin``; the other layers are pixel- or token-wise and take their whole input.
    ``donate``, which the executors set when nothing else reads the input, lets a
    depthwise conv or a GELU write into it."""
    op = node.op
    x = inputs[0]
    if isinstance(op, Conv2D):
        rows = rows or (0, conv_out_dim(x.shape[1], op))
        cols = cols or (0, conv_out_dim(x.shape[2], op))
        return conv2d_region(x, op, p["w"], p["b"], rows, cols, origin, donate)
    if isinstance(op, Attention):
        return attention_forward(x, op, p)
    if isinstance(op, Linear):
        return linear_tokens(x, p["w"], p["b"])
    if isinstance(op, LayerNorm):
        return layernorm(x)
    if isinstance(op, GELU):
        return gelu(x, donate)
    return inputs[0] + inputs[1]   # an add


def reference_execute(graph: NetworkGraph, x: np.ndarray,
                      params: dict[str, dict[str, np.ndarray]],
                      record: dict[str, np.ndarray] | None = None) -> np.ndarray:
    """Dense, untiled, float64 execution: the oracle for all optimized paths.

    ``x`` is the float64 input (``seeded_input``), ``params`` those the schedule reads.
    ``record``, if given, gets every node's output; outputs are freed after their
    last read unless ``record`` keeps them (``in record``). A node donates its input
    if it is the input's one reader and ``keeps_layout`` of its own readers.
    """
    if tuple(x.shape) != (graph.input_shape.c, graph.input_shape.h, graph.input_shape.w):
        raise ConfigError(f"input: expected {graph.input_shape}, got {x.shape}")
    last_read = {p: n.id for n in graph.nodes for p in n.preds}
    consumers, ops = graph.consumers(), {n.id: n.op for n in graph.nodes}
    values: dict[str, np.ndarray] = {}
    out = x
    for node in graph.nodes:
        ins = [values[p] for p in node.preds] if node.preds else [x]
        donate = (bool(node.preds) and consumers[node.preds[0]] == [node.id]
                  and (record is None or node.preds[0] not in record)
                  and keeps_layout([ops[r] for r in consumers[node.id]]))
        try:
            out = layer_forward(node, ins, params[node.id], donate=donate)
        except MemoryError as e:
            raise ConfigError(f"{node.id}: out of memory in the reference ({e})") from e
        if not np.all(np.isfinite(out)):
            raise ConfigError(f"non-finite values produced at node {node.id}")
        values = {k: v for k, v in values.items() if last_read.get(k) != node.id}
        values[node.id] = out
        if record is not None:
            record[node.id] = out
    return out


def seeded_input(graph: NetworkGraph, seed: int = 0) -> np.ndarray:
    s = graph.input_shape
    return _draw(np.random.default_rng([seed, 0xFEED]), s.c, s.h, s.w)


# ---------------------------------------------------------------------------
# Cost primitives
# ---------------------------------------------------------------------------

def layer_work(graph: NetworkGraph, node: LayerNode) -> tuple[int, int]:
    """(MACs, vector ops) of one layer. Norm, activation and add layers are vector ops;
    an attention layer's projections and core (QK^T + AV) are MACs, and its softmax
    map is vector ops."""
    op, outs = node.op, graph.out_shape(node.id)
    if isinstance(op, Attention):
        dims = attention_dims(graph, node)
        scores = op.heads * dims.N * dims.N_r   # the softmax map
        projections = sum(n_out * weights for _, _, weights, n_out
                          in projection_passes(op, dims.N, dims.N_r))
        return projections + 2 * scores * op.d_head, scores
    return (outs.h * outs.w * op_cost(op)[1],
            outs.elements if isinstance(op, (LayerNorm, GELU, Add)) else 0)


def projection_passes(op: Attention, n: int, n_r: int) -> list[tuple[str, int, int, int]]:
    """(tag, input tokens, weight elements, output tokens) of each projection
    pass of an attention layer on ``n`` tokens reduced to ``n_r``, in order:
    Q, the depthwise spatial reduction (``sr_conv``) when sr > 1, K, V. Each
    output token costs one MAC per weight element."""
    w = {name: math.prod(shape) for name, shape in param_shapes(op).items()}
    sr = [("attnSR", n, w["w_sr"], n_r)] if "w_sr" in w else []
    return [("attnQ", n, w["wq"], n), *sr, ("attnK", n_r, w["wk"], n_r),
            ("attnV", n_r, w["wv"], n_r)]


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def _transformer_block(nodes: list[LayerNode], prev: str, stage: int, blk: int,
                       c: int, heads: int, sr: int, mlp_ratio: int,
                       dw_in_mlp: bool = False) -> str:
    tag = f"s{stage}b{blk}"
    nodes.append(LayerNode(f"{tag}_ln1", LayerNorm(), (prev,)))
    nodes.append(LayerNode(f"{tag}_attn", Attention(heads, c // heads, sr), (f"{tag}_ln1",)))
    nodes.append(LayerNode(f"{tag}_add1", Add(prev), (f"{tag}_attn", prev)))
    nodes.append(LayerNode(f"{tag}_ln2", LayerNorm(), (f"{tag}_add1",)))
    nodes.append(LayerNode(f"{tag}_fc1", Linear(c, c * mlp_ratio), (f"{tag}_ln2",)))
    prev_mlp = f"{tag}_fc1"
    if dw_in_mlp:
        nodes.append(LayerNode(f"{tag}_dw", Conv2D(c * mlp_ratio, c * mlp_ratio, 3,
                                                   1, 1, groups=c * mlp_ratio), (prev_mlp,)))
        prev_mlp = f"{tag}_dw"
    nodes.append(LayerNode(f"{tag}_act", GELU(), (prev_mlp,)))
    nodes.append(LayerNode(f"{tag}_fc2", Linear(c * mlp_ratio, c), (f"{tag}_act",)))
    nodes.append(LayerNode(f"{tag}_add2", Add(f"{tag}_add1"), (f"{tag}_fc2", f"{tag}_add1")))
    return f"{tag}_add2"


def _pyramid_preset(dw_in_mlp: bool, local_conv: bool) -> NetworkGraph:
    c = 16
    sr_ratios = (8, 4, 2, 1)
    heads = (1, 2, 4, 8)
    nodes: list[LayerNode] = [
        LayerNode("stem", Conv2D(3, c, 3, 1, 1), ()),
    ]
    prev = "stem"
    for s in range(4):
        nodes.append(LayerNode(f"s{s}_down", Downsample(2, 2), (prev,)))
        prev = f"s{s}_down"
        if local_conv:
            nodes.append(LayerNode(f"s{s}_lpu", Conv2D(c, c, 3, 1, 1, groups=c), (prev,)))
            nodes.append(LayerNode(f"s{s}_lpu_add", Add(prev), (f"s{s}_lpu", prev)))
            prev = f"s{s}_lpu_add"
        prev = _transformer_block(nodes, prev, s, 0, c, heads[s], sr_ratios[s],
                                  mlp_ratio=2, dw_in_mlp=dw_in_mlp)
    return NetworkGraph(nodes=nodes, input_shape=TensorShape(1, 3, 32, 32))


# each pyramid preset's (dw_in_mlp, local_conv)
_PYRAMIDS = {"segformer-micro": (False, False), "pvtv2-micro": (True, False),
             "cmt-micro": (False, True)}
PRESETS = ("toy-chain", *_PYRAMIDS)


def build_preset(name: str) -> NetworkGraph:
    """Reduced-scale model presets; shapes come pre-inferred."""
    if name == "toy-chain":
        c = 8
        nodes = [
            LayerNode("c0", Conv2D(c, c, 3, 1, 1), ()),
            LayerNode("c1", Conv2D(c, c, 3, 1, 1), ("c0",)),
            LayerNode("c2", Conv2D(c, c, 3, 1, 1), ("c1",)),
            LayerNode("c3", Conv2D(c, c, 3, 1, 1), ("c2",)),
        ]
        g = NetworkGraph(nodes=nodes, input_shape=TensorShape(1, c, 16, 16))
    elif name in _PYRAMIDS:
        g = _pyramid_preset(*_PYRAMIDS[name])
    else:
        raise ConfigError(f"unknown preset {name!r}; known: {PRESETS}")
    return infer_shapes(g)


# ---------------------------------------------------------------------------
# Declarative graph definition (config-file schema)
# ---------------------------------------------------------------------------

_KINDS = {"conv2d": Conv2D, "attention": Attention, "linear": Linear,
          "layernorm": LayerNorm, "gelu": GELU, "add": Add, "downsample": Downsample}


def _node_from_dict(nd: dict) -> LayerNode:
    """One graph node: its kind's fields by ``parse_fields``; each error names the node."""
    if not isinstance(nd, dict):
        raise ConfigError(f"graph node must be an object, got {nd!r}")
    node_id = str(nd["id"])
    kind = _KINDS.get(str(nd["kind"]).lower())
    if kind is None:
        raise ConfigError(f"unknown layer kind {nd['kind']!r} of node {node_id!r}")
    where = f"graph node {node_id!r}"
    args = parse_fields(where, nd, kind, f"{where} field ", extra=("id", "kind", "preds"))
    for f in fields(kind):
        if f.name not in args and f.default is MISSING:
            raise ConfigError(f"{node_id}: missing field {f.name!r}")
    preds = check_list(f"{where} field preds", nd.get("preds", []))
    try:
        op = kind(**args)
    except ConfigError as e:  # the op's own check, e.g. groups dividing the channels
        raise ConfigError(f"{where}: {e}")
    return LayerNode(node_id, op, tuple(str(p) for p in preds))


def graph_from_dict(d: dict) -> NetworkGraph:
    """Build a graph from the declarative form used in experiment configs."""
    try:
        check_keys("graph", d, ("input_shape", "nodes"))
        shape = [parse_number("graph input_shape", v, integer=True, least=1)
                 for v in check_list("graph input_shape", d["input_shape"])]
        if len(shape) != 4 or shape[0] != 1:   # the executors run one image
            raise ConfigError(f"graph input_shape must be [n, c, h, w] with n = 1, "
                              f"got {shape}")
        if max(shape[2:]) > MAX_EXTENT:
            raise ConfigError(f"graph input_shape h and w must be at most {MAX_EXTENT}, "
                              f"got {shape[2:]}")
        nodes = [_node_from_dict(nd) for nd in check_list("graph nodes", d["nodes"])]
    except KeyError as e:
        raise ConfigError(f"graph: missing field {e.args[0]!r} in graph definition")
    return infer_shapes(NetworkGraph(nodes=nodes, input_shape=TensorShape(*shape)))
