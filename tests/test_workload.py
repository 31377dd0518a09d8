import math
import time

import numpy as np
import pytest

import convformer_sim as cs
from convformer_sim import workload
from convformer_sim.errors import ConfigError
from convformer_sim.workload import (Add, Attention, Conv2D, GELU,
                                     LayerNode, LayerNorm, Linear, NetworkGraph,
                                     TensorShape, attention_dims, build_preset,
                                     dense_attention, graph_from_dict,
                                     infer_shapes, init_params, layer_macs,
                                     reference_execute, seeded_input)

# frozen once from the reference executor on the seeded toy-chain input;
# every equivalence test reuses this oracle
TOY_GOLDEN_SUM = 7.762626046958e+02
TOY_GOLDEN_ABS_SUM = 1.432514219715e+04


def test_tensor_shape_views():
    s = TensorShape(1, 16, 8, 4)
    assert s.tokens == 32
    assert s.tokens * s.c == s.elements  # sequence and spatial views agree


def test_tensor_shape_rejects_zero_dim():
    with pytest.raises(ConfigError):
        TensorShape(1, 0, 8, 8)


class TestPresets:
    def test_toy_chain_structure(self):
        g = build_preset("toy-chain")
        assert len(g.nodes) == 4
        assert all(isinstance(n.op, Conv2D) for n in g.nodes)
        assert g.input_shape == TensorShape(1, 8, 16, 16)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            build_preset("bogus")

    def test_segformer_micro_stage_pattern(self):
        g = build_preset("segformer-micro")
        # each Downsample(2, 2) is lowered to its dense conv at shape inference
        downs = [n for n in g.nodes if n.id.endswith("_down")]
        assert all(n.op == Conv2D(16, 16, 2, 2) for n in downs)
        attns = [n.op for n in g.nodes if isinstance(n.op, Attention)]
        assert len(downs) == 4 and len(attns) == 4
        assert [a.sr_ratio for a in attns] == [8, 4, 2, 1]
        # stage order: each downsample precedes its stage's attention
        order = [n.id for n in g.nodes]
        for s in range(4):
            assert order.index(f"s{s}_down") < order.index(f"s{s}b0_attn")

    @pytest.mark.parametrize("name", cs.PRESETS)
    def test_preset_tensors_small(self, name):
        g = build_preset(name)
        assert all(s.elements <= (1 << 20) for s in g.shapes.values())

    @pytest.mark.parametrize("name", cs.PRESETS)
    def test_zeros_input_is_finite(self, name):
        g = build_preset(name)
        x = np.zeros((g.input_shape.c, g.input_shape.h, g.input_shape.w))
        out = reference_execute(g, x, seed=0)
        assert np.all(np.isfinite(out))


class TestInferShapes:
    def test_same_padding_identity(self):
        g = NetworkGraph([LayerNode("c", Conv2D(4, 4, 3, 1, 1))],
                         TensorShape(1, 4, 16, 16))
        g = infer_shapes(g)
        assert g.shapes["c"] == TensorShape(1, 4, 16, 16)

    def test_stride_two(self):
        g = NetworkGraph([LayerNode("c", Conv2D(4, 8, 3, 2, 1))],
                         TensorShape(1, 4, 16, 16))
        g = infer_shapes(g)
        assert g.shapes["c"] == TensorShape(1, 8, 8, 8)

    def test_add_mismatch(self):
        nodes = [
            LayerNode("a", Conv2D(4, 4, 3, 1, 1)),
            LayerNode("b", Conv2D(4, 4, 3, 2, 1)),
            LayerNode("s", Add("a"), ("a", "b")),
        ]
        with pytest.raises(ConfigError, match="s"):
            infer_shapes(NetworkGraph(nodes, TensorShape(1, 4, 16, 16)))

    def test_attention_head_mismatch(self):
        g = NetworkGraph([LayerNode("a", Attention(3, 5))], TensorShape(1, 16, 4, 4))
        with pytest.raises(ConfigError):
            infer_shapes(g)

    def test_idempotent(self):
        g1 = build_preset("segformer-micro")
        g2 = infer_shapes(g1)
        assert g1.shapes == g2.shapes


class TestReferenceExecute:
    def test_identity_conv(self):
        g = infer_shapes(NetworkGraph([LayerNode("c", Conv2D(2, 2, 1))],
                                      TensorShape(1, 2, 4, 4)))
        params = init_params(g, 0)
        params["c"]["w"] = np.eye(2).reshape(2, 2, 1, 1)
        params["c"]["b"] = np.zeros(2)
        x = np.arange(32, dtype=float).reshape(2, 4, 4)
        out = reference_execute(g, x, params)
        np.testing.assert_array_equal(out, x)

    def test_attention_single_token_returns_v(self, rng):
        # softmax over one logit is 1, so O = V exactly
        q = rng.normal(size=(2, 1, 4))
        k = rng.normal(size=(2, 1, 4))
        v = rng.normal(size=(2, 1, 4))
        np.testing.assert_allclose(dense_attention(q, k, v), v, atol=1e-15)

    def test_toy_chain_golden(self):
        g = build_preset("toy-chain")
        out = reference_execute(g, seeded_input(g, 0), seed=0)
        assert abs(out.sum() - TOY_GOLDEN_SUM) < 1e-8
        assert abs(np.abs(out).sum() - TOY_GOLDEN_ABS_SUM) < 1e-7

    def test_deterministic(self):
        g = build_preset("pvtv2-micro")
        x = seeded_input(g, 7)
        a = reference_execute(g, x, seed=7)
        b = reference_execute(g, x, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_input_shape_check(self):
        g = build_preset("toy-chain")
        with pytest.raises(ConfigError):
            reference_execute(g, np.zeros((3, 4, 4)))


class TestLayerMacs:
    def test_conv(self):
        g = infer_shapes(NetworkGraph([LayerNode("c", Conv2D(3, 8, 3, 1, 1))],
                                      TensorShape(1, 3, 8, 8)))
        assert layer_macs(g, g.nodes[0]) == 8 * 8 * 8 * 3 * 9  # 13824

    def test_linear(self):
        g = infer_shapes(NetworkGraph([LayerNode("l", Linear(4, 4))],
                                      TensorShape(1, 4, 1, 2)))
        assert layer_macs(g, g.nodes[0]) == 2 * 4 * 4

    def test_attention_core_term(self):
        # score + context on N=64, N_r=16, d=32, heads=1 contributes 65536
        g = infer_shapes(NetworkGraph([LayerNode("a", Attention(1, 32, 2))],
                                      TensorShape(1, 32, 8, 8)))
        dims = attention_dims(g, g.nodes[0])
        assert dims.N == 64 and dims.N_r == 16 and dims.d == 32
        c = 32
        expected_core = 64 * 16 * 32 * 2
        proj = 64 * c * c + 2 * 16 * c * c
        sr = 16 * c * 2 ** 2  # depthwise patch reduction
        assert layer_macs(g, g.nodes[0]) == expected_core + proj + sr

    def test_depthwise_is_dense_over_cin(self):
        dense = NetworkGraph([LayerNode("c", Conv2D(8, 8, 3, 1, 1))],
                             TensorShape(1, 8, 8, 8))
        dw = NetworkGraph([LayerNode("c", Conv2D(8, 8, 3, 1, 1, groups=8))],
                          TensorShape(1, 8, 8, 8))
        md = layer_macs(infer_shapes(dense), dense.nodes[0])
        mw = layer_macs(infer_shapes(dw), dw.nodes[0])
        assert mw * 8 == md

    def test_norm_and_activation_are_zero_macs(self):
        nodes = [LayerNode("n", LayerNorm()), LayerNode("g", GELU(), ("n",))]
        g = infer_shapes(NetworkGraph(nodes, TensorShape(1, 4, 4, 4)))
        assert layer_macs(g, g.nodes[0]) == 0
        assert layer_macs(g, g.nodes[1]) == 0


def test_divisors_equal_brute_force():
    for n in range(1, 2001):
        assert workload.divisors(n) == [i for i in range(1, n + 1) if n % i == 0], n


def test_divisors_of_a_huge_map_size_at_once():
    # a walk over range(1, n + 1) did not finish; 10**15 = 2**15 * 5**15
    start = time.perf_counter()
    got = workload.divisors(10**15)
    assert time.perf_counter() - start < 1.0
    assert len(got) == 256 and got == sorted(set(got))
    assert all(10**15 % d == 0 for d in got) and got[-1] == 10**15


def test_sr_ratio_one_means_full_sequence():
    g = infer_shapes(NetworkGraph([LayerNode("a", Attention(2, 8, 1))],
                                  TensorShape(1, 16, 4, 4)))
    dims = attention_dims(g, g.nodes[0])
    assert dims.N_r == dims.N == 16


def test_graph_from_dict_roundtrip():
    g = graph_from_dict({
        "input_shape": [1, 4, 8, 8],
        "nodes": [
            {"id": "c1", "kind": "conv2d", "c_in": 4, "c_out": 8, "k": 3,
             "stride": 1, "pad": 1},
            {"id": "n1", "kind": "layernorm", "preds": ["c1"]},
            {"id": "a1", "kind": "attention", "heads": 2, "d_head": 4,
             "sr_ratio": 2, "preds": ["n1"]},
        ],
    })
    assert g.shapes["a1"] == TensorShape(1, 8, 8, 8)
    out = reference_execute(g, seeded_input(g, 0), seed=0)
    assert np.all(np.isfinite(out))


def test_graph_from_dict_missing_field():
    with pytest.raises(ConfigError):
        graph_from_dict({"nodes": []})


# ---------------------------------------------------------------------------
# conv2d_region against a per-pixel im2col oracle, bit for bit
# ---------------------------------------------------------------------------

def loop_conv2d_region(x, op, w, b, rows, cols, origin=(0, 0)):
    """Per-pixel im2col, the original formulation of ``conv2d_region``; a
    depthwise conv sums its taps pixel by pixel."""
    k, stride, pad, groups = op.k, op.stride, op.pad, op.groups
    c_in, c_out = x.shape[0], op.c_out
    (r0, r1), (c0, c1) = rows, cols
    oh, ow = r1 - r0, c1 - c0
    in_r0, in_c0 = r0 * stride - pad, c0 * stride - pad
    in_r1, in_c1 = (r1 - 1) * stride - pad + k, (c1 - 1) * stride - pad + k
    win = np.zeros((c_in, in_r1 - in_r0, in_c1 - in_c0))
    xr0, xc0 = origin
    sr0, sr1 = max(in_r0, xr0), min(in_r1, xr0 + x.shape[1])
    sc0, sc1 = max(in_c0, xc0), min(in_c1, xc0 + x.shape[2])
    if sr0 < sr1 and sc0 < sc1:
        win[:, sr0 - in_r0:sr1 - in_r0, sc0 - in_c0:sc1 - in_c0] = \
            x[:, sr0 - xr0:sr1 - xr0, sc0 - xc0:sc1 - xc0]
    cig, cog = c_in // groups, c_out // groups
    out = np.empty((c_out, oh, ow))
    if cig == cog == 1:  # depthwise: Python floats, taps in row-major order, bias last
        for ch in range(c_out):
            for r in range(oh):
                for c in range(ow):
                    acc = 0.0
                    for i in range(k):
                        for j in range(k):
                            acc += float(win[ch, r * stride + i, c * stride + j]) \
                                * float(w[ch, 0, i, j])
                    out[ch, r, c] = acc + float(b[ch])
        return out
    for g in range(groups):
        xs = win[g * cig:(g + 1) * cig]
        patches = np.empty((oh * ow, cig * k * k))
        idx = 0
        for r in range(oh):
            for c in range(ow):
                patch = xs[:, r * stride:r * stride + k, c * stride:c * stride + k]
                patches[idx] = patch.reshape(-1)
                idx += 1
        wg = w[g * cog:(g + 1) * cog].reshape(cog, -1)
        res = patches @ wg.T + b[g * cog:(g + 1) * cog]
        out[g * cog:(g + 1) * cog] = res.T.reshape(cog, oh, ow)
    return out


def random_region_case(rng, single_channel_strip=False):
    """(x, op, w, b, rows, cols, origin) with a random conv and output region."""
    k = int(rng.integers(1, 5))
    stride = int(rng.integers(1, 6))  # stride > k happens often
    if single_channel_strip:
        op = Conv2D(1, int(rng.integers(1, 3)), k, stride, int(rng.integers(0, k)))
        c_in = 1
    elif rng.random() < 0.2:  # a lowered Downsample(k, stride)
        c_in = int(rng.integers(1, 5))
        op = Conv2D(c_in, c_in, k, stride)
    else:
        groups = int(rng.choice([1, 1, 2, 3]))
        c_in = groups * int(rng.integers(1, 4))
        if rng.random() < 0.3:  # depthwise
            groups, c_in = c_in, c_in
        c_out = groups * int(rng.integers(1, 3))
        op = Conv2D(c_in, c_out, k, stride, int(rng.integers(0, k)), groups)
    w = rng.standard_normal((op.c_out, c_in // op.groups, k, k))
    b = rng.standard_normal(op.c_out)
    origin = (int(rng.integers(0, 6)), int(rng.integers(0, 6)))
    x = rng.standard_normal((c_in, int(rng.integers(1, 12)), int(rng.integers(1, 12))))
    r0, c0 = int(rng.integers(0, 5)), int(rng.integers(0, 5))
    oh, ow = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    if single_channel_strip:
        if rng.random() < 0.5:
            ow = 1
        else:
            oh = 1
    return x, op, w, b, (r0, r0 + oh), (c0, c0 + ow), origin


@pytest.mark.parametrize("strip", [False, True], ids=["mixed", "1-wide-single-channel"])
def test_conv2d_region_bit_identical_to_per_pixel_im2col(strip):
    from convformer_sim.workload import conv2d_region
    rng = np.random.default_rng(7 + strip)
    for case in range(400):
        x, op, w, b, rows, cols, origin = random_region_case(rng, strip)
        got = conv2d_region(x, op, w, b, rows, cols, origin=origin)
        want = loop_conv2d_region(x, op, w, b, rows, cols, origin=origin)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (case, op, rows, cols, origin)


# ---------------------------------------------------------------------------
# Blocked and in-place kernels against the expressions they replaced, bit for bit
# ---------------------------------------------------------------------------

def expr_gelu(x):
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * (x * x * x))))


def expr_layernorm(x):
    mean = x.mean(axis=0, keepdims=True)
    var = x.var(axis=0, keepdims=True)
    return (x - mean) / np.sqrt(var + workload.LN_EPS)


def expr_softmax_rows(s):
    m = s.max(axis=-1, keepdims=True)
    e = np.exp(s - m)
    return e / e.sum(axis=-1, keepdims=True)


def awkward_values(rng, shape):
    """Normal values with signed zeros, huge and tiny magnitudes mixed in."""
    x = rng.standard_normal(shape) * rng.choice([1e-3, 1.0, 30.0, 1e6], size=shape)
    picks = rng.random(shape)
    x[picks < 0.05] = 0.0
    x[(picks >= 0.05) & (picks < 0.1)] = -0.0
    x[(picks >= 0.1) & (picks < 0.12)] = 1e200
    x[(picks >= 0.12) & (picks < 0.14)] = -1e200
    return x


@pytest.mark.parametrize("shape", [(3, 4, 5), (70, 30, 30), (1, 200, 200), (40000,), (0, 3)])
def test_elementwise_kernels_bit_identical_to_expressions(shape):
    """GELU, LayerNorm and softmax equal the one-expression forms byte for
    byte, on whole arrays (several GELU blocks for the larger shapes) and on
    strided views of them."""
    from convformer_sim.workload import gelu, layernorm, softmax_rows
    rng = np.random.default_rng(sum(shape))
    x = awkward_values(rng, shape)
    views = [x] + ([x[1:, 1:-1:2]] if len(shape) == 3 and shape[0] > 1 else [])
    with np.errstate(all="ignore"):  # x*x*x overflows to +-inf at 1e200
        for v in views:
            assert gelu(v).tobytes() == expr_gelu(v).tobytes()
            if v.ndim == 3:
                assert layernorm(v).tobytes() == expr_layernorm(v).tobytes()
            if v.ndim >= 2 and v.size:
                s = v.reshape(v.shape[0], -1)
                assert softmax_rows(s).tobytes() == expr_softmax_rows(s).tobytes()
                assert softmax_rows(s[:, ::2]).tobytes() == expr_softmax_rows(s[:, ::2]).tobytes()


@pytest.mark.parametrize("block", [1, 5, 16, 64])
def test_blocked_gelu_matches_at_any_block(block, monkeypatch):
    monkeypatch.setattr(workload, "BLOCK_ELEMENTS", block)
    rng = np.random.default_rng(block)
    x = awkward_values(rng, (7, 3, 5))
    with np.errstate(all="ignore"):
        assert workload.gelu(x).tobytes() == expr_gelu(x).tobytes()


def depthwise_case(rng, sr_style=False):
    """(x, op, w, b, rows, cols, origin) of a depthwise conv and output region."""
    c = int(rng.integers(1, 12))
    if sr_style:  # the attention's spatial reduction: k == stride, no padding
        k = stride = int(rng.choice([2, 4]))
        pad = 0
    else:
        k, stride = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        pad = int(rng.integers(0, k))
    op = Conv2D(c, c, k, stride, pad, groups=c)
    w = rng.standard_normal((c, 1, k, k))
    b = rng.standard_normal(c)
    x = awkward_values(rng, (c, int(rng.integers(1, 14)), int(rng.integers(1, 14))))
    origin = (int(rng.integers(0, 4)), int(rng.integers(0, 4)))
    r0, c0 = int(rng.integers(0, 4)), int(rng.integers(0, 4))
    oh, ow = int(rng.integers(1, 8)), int(rng.integers(1, 8))
    return x, op, w, b, (r0, r0 + oh), (c0, c0 + ow), origin


@pytest.mark.parametrize("block", [1, 7, 24, 50])
@pytest.mark.parametrize("sr_style", [False, True], ids=["mixed", "k-eq-stride"])
def test_depthwise_blocks_bit_identical_to_per_pixel_oracle(block, sr_style, monkeypatch):
    """Blocks of one or many channels, a last block that is short (channel
    counts not a multiple of the block) and regions larger than a block all
    give the per-pixel sums, bit for bit."""
    monkeypatch.setattr(workload, "BLOCK_ELEMENTS", block)
    rng = np.random.default_rng(block + 100 * sr_style)
    for case in range(60):
        x, op, w, b, rows, cols, origin = depthwise_case(rng, sr_style)
        got = workload.conv2d_region(x, op, w, b, rows, cols, origin=origin)
        want = loop_conv2d_region(x, op, w, b, rows, cols, origin=origin)
        assert got.tobytes() == want.tobytes(), (case, op, rows, cols, origin)


def test_depthwise_at_the_default_block_size():
    """A region of more output pixels than one block holds (one channel per
    block, three blocks) and one of many channels with a short last block."""
    rng = np.random.default_rng(3)
    side = math.isqrt(workload.BLOCK_ELEMENTS) + 2
    for c, k, stride, pad, hw in [(3, 1, 1, 0, side), (2, 2, 2, 0, 2 * side),
                                  (2 * workload.BLOCK_ELEMENTS // 64 + 5, 1, 1, 0, 8)]:
        op = Conv2D(c, c, k, stride, pad, groups=c)
        w, b = rng.standard_normal((c, 1, k, k)), rng.standard_normal(c)
        x = rng.standard_normal((c, hw, hw))
        oh = (hw + 2 * pad - k) // stride + 1
        got = workload.conv2d_region(x, op, w, b, (0, oh), (0, oh))
        want = loop_conv2d_region(x, op, w, b, (0, oh), (0, oh))
        assert got.tobytes() == want.tobytes(), (c, k, stride, hw)


def test_kernels_leave_their_input_unchanged():
    """Every kernel reads a read-only strided view without writing to it: the
    fused executor passes slices of its running map, and the reference keeps
    boundary tensors that later units read."""
    from convformer_sim.workload import (conv2d_region, gelu, layernorm, linear_tokens,
                                         softmax_rows)
    rng = np.random.default_rng(11)
    base = rng.standard_normal((6, 9, 10))
    base.setflags(write=False)
    x = base[:, 1:5, 2:7]
    before = x.copy()
    gelu(x)
    layernorm(x)
    softmax_rows(x[0])
    linear_tokens(x, rng.standard_normal((6, 3)), rng.standard_normal(3))
    for op in (Conv2D(6, 6, 3, 1, 1, groups=6), Conv2D(6, 4, 3, 2, 1, groups=2),
               Conv2D(6, 6, 2, 2, 0, groups=6)):
        w = rng.standard_normal((op.c_out, 6 // op.groups, op.k, op.k))
        conv2d_region(x, op, w, rng.standard_normal(op.c_out), (0, 2), (0, 2), origin=(1, 1))
    assert x.tobytes() == before.tobytes()
