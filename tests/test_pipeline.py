import ast
import contextlib
import io
import json
import math
import random
import re
import tempfile
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import convformer_sim as cs
from convformer_sim import cli, pipeline, workload
from convformer_sim.attention_tiling import ResidencyMode, search_attention_tiling
from convformer_sim.hwmodel import HardwareConfig, ScratchpadSim, replay
from convformer_sim.layer_fusion import split_into_segments
from convformer_sim.workload import (FUSABLE_OPS, Attention, attention_dims, graph_from_dict,
                                     init_params, layer_work,
                                     op_cost, reference_execute, seeded_input)
from conftest import checked_run


@pytest.fixture(params=cs.PRESETS)
def preset(request):
    return request.param


def test_every_schedule_matches_reference(preset, hw):
    g = cs.build_preset(preset)
    params = init_params(g, 0)
    x = seeded_input(g, 0)
    ref = reference_execute(g, x, params)
    for att in ("auto", "baseline"):
        for fus in ("auto", "singleton"):
            sched = pipeline.plan_network(g, hw, att, fus)
            out, report, deviations = checked_run(g, sched, x, params, hw)
            dev = float(np.max(np.abs(out - ref)))
            assert dev <= 1e-9, (preset, att, fus, dev)
            assert len(deviations) == len(sched)
            assert all(d <= 1e-9 for _, d in deviations), (preset, att, fus, deviations)
            assert report.ema_bytes > 0
            # run_schedule itself asserts formula == counters byte-exactly


def test_singleton_toy_chain_is_layer_sum_and_exact(hw):
    g = cs.build_preset("toy-chain")
    params = init_params(g, 0)
    x = seeded_input(g, 0)
    ref = reference_execute(g, x, params)
    sched = pipeline.plan_network(g, hw, "auto", "singleton")
    out, report, _ = checked_run(g, sched, x, params, hw)
    assert float(np.max(np.abs(out - ref))) == 0.0
    expect = 0
    for n in g.nodes:
        ins = g.in_shape(n)
        outs = g.out_shape(n.id)
        w = op_cost(n.op)[0]
        expect += (ins.elements + outs.elements + w) * hw.element_bytes
    assert report.ema_bytes == expect


def every_attention_layer(g, record) -> dict:
    """A ``schedule.attention`` map that gives each attention layer of ``g`` ``record``."""
    return {n.id: record for n in g.nodes if isinstance(n.op, Attention)}


def test_fixed_streaming_tiling_applies_everywhere(hw):
    g = cs.build_preset("segformer-micro")
    spec = every_attention_layer(g, {"t_q": 2, "t_k": 2, "mode": "streaming_kv"})
    sched = pipeline.plan_network(g, hw, spec, "auto")
    units = [u for u in sched if isinstance(u, pipeline.AttentionUnit)]
    assert len(units) == 4
    assert all(u.tiling.mode is ResidencyMode.STREAMING_KV for u in units)


def test_fixed_resident_tiling_resolves_tk(hw):
    g = cs.build_preset("segformer-micro")
    sched = pipeline.plan_network(g, hw, every_attention_layer(
        g, {"t_q": 2, "mode": "resident_kv"}), "auto")
    units = [u for u in sched if isinstance(u, pipeline.AttentionUnit)]
    for u in units:
        assert u.dims == attention_dims(g, u.node, hw.element_bytes)
        assert u.tiling.t_k == u.dims.N_r  # resolved per layer


def test_attention_unit_ema_matches_execution(hw):
    g = cs.build_preset("pvtv2-micro")
    params = init_params(g, 0)
    record = {}
    reference_execute(g, seeded_input(g, 0), params, record=record)
    units = [u for u in pipeline.plan_network(g, hw)
             if isinstance(u, pipeline.AttentionUnit)]
    assert len(units) == sum(isinstance(n.op, Attention) for n in g.nodes)
    for unit in units:
        assert unit.tiling == search_attention_tiling(unit.dims, hw)
        sim = ScratchpadSim(hw.scratchpad_bytes)
        x = record[unit.node.preds[0]]
        pipeline.attention_unit_execute(x, unit, params[unit.node.id], sim, hw)
        assert sim.ema_bytes == unit.row["ema_bytes"]


def _dw(node_id, k, pred, stride=1):
    return {"id": node_id, "kind": "conv2d", "c_in": 8, "c_out": 8, "k": k,
            "stride": stride, "pad": k // 2, "groups": 8, "preds": [pred] if pred else []}


DEPTHWISE_CHAIN = {"input_shape": [1, 8, 12, 12], "nodes": [
    _dw("dw1", 3, None),
    {"id": "act1", "kind": "gelu", "preds": ["dw1"]},
    {"id": "ln", "kind": "layernorm", "preds": ["act1"]},
    _dw("dw2", 5, "ln"),
    {"id": "act2", "kind": "gelu", "preds": ["dw2"]},
    _dw("dw3", 3, "act2", stride=2),
]}


@pytest.mark.parametrize("policy", ["recompute", "cache"])
@pytest.mark.parametrize("tile", [(th, tw) for th in (1, 2, 3, 5, 6) for tw in (1, 4, 6)],
                         ids=lambda t: f"{t[0]}x{t[1]}")
def test_depthwise_chain_is_region_independent(tile, policy):
    """A fused depthwise chain equals the reference bit for bit at any tile:
    each output pixel is the same sequence of float operations whatever
    region it is computed in (per-group matmuls used to round by tile size)."""
    group = {"start": 0, "end": 5, "tile": list(tile), "policy": policy}
    cfg = cli.ExperimentConfig(model={"graph": DEPTHWISE_CHAIN}, fusion={"0": [group]})
    res = json.loads(json.dumps(cli.run_experiment(cfg, cli.simulate(cfg))))   # as printed
    assert res["schedule"]["units"][0]["plan"]["groups"][0]["tile"] == list(tile)
    assert res["max_abs_deviation"] == 0.0


@pytest.mark.parametrize("policy", ["recompute", "cache"])
@pytest.mark.parametrize("tile", [(4, 6), (6, 12), (9, 12)], ids=lambda t: f"{t[0]}x{t[1]}")
def test_depthwise_chain_is_region_independent_across_channel_blocks(tile, policy):
    """As above on a 72x72 map: the reference's full-map depthwise convs take
    their 8 channels in several blocks, each tile's in one block (the tile of
    the stride-2 output needs at most 2t + 7 input pixels a side)."""
    th, tw = tile
    assert workload.block_rows(72 * 72) < 8 <= workload.block_rows((2 * th + 7) * (2 * tw + 7))
    graph = {**DEPTHWISE_CHAIN, "input_shape": [1, 8, 72, 72]}
    group = {"start": 0, "end": 5, "tile": list(tile), "policy": policy}
    cfg = cli.ExperimentConfig(model={"graph": graph}, fusion={"0": [group]},
                               hardware=HardwareConfig(scratchpad_bytes=1 << 22))
    res = json.loads(json.dumps(cli.run_experiment(cfg, cli.simulate(cfg))))   # as printed
    assert res["schedule"]["units"][0]["plan"]["groups"][0]["tile"] == list(tile)
    assert res["max_abs_deviation"] == 0.0


def test_gemm_pass_blocks_shrink_to_fit():
    hw = HardwareConfig(scratchpad_bytes=600)
    sim = ScratchpadSim(600)
    replay(pipeline._gemm_pass("t", in_elems=4096, w_elems=256, out_elems=4096,
                               hw=hw), sim)
    assert sim.ema_bytes == 4096 + 256 + 4096  # blocks never change traffic
    assert sim.high_water <= 600


def test_schedule_serializes(hw):
    g = cs.build_preset("cmt-micro")
    sched = pipeline.plan_network(g, hw, "auto", "auto")
    kinds = {u.to_dict()["kind"] for u in sched}
    assert kinds == {"chain", "attention", "add"}


def test_macs_include_recompute_overhead():
    hw = HardwareConfig(scratchpad_bytes=4000)  # one tiled RECOMPUTE group
    g = cs.build_preset("toy-chain")
    (unit,) = pipeline.plan_network(g, hw, "auto", "auto")
    extra = sum(group.extra_macs for group in unit.plan)
    assert extra > 0
    base = sum(layer_work(g, n)[0] for n in g.nodes)
    assert unit.row["macs"] == base + extra


@pytest.mark.parametrize("scratchpad_bytes, schedule",
                         [(256 * 1024, s) for s in sorted(cli.SCHEDULE_PRESETS)]
                         # pvtv2-micro's fused chains recompute at 2048 B, where
                         # untiled (baseline) attention does not fit
                         + [(2048, "tiling"), (2048, "full")])
def test_units_cover_the_graph_and_sum_its_costs(preset, scratchpad_bytes, schedule):
    """The report's MACs and vector ops, summed over units, equal the
    graph-wide count plus the fusion plans' recompute MACs."""
    hw = HardwareConfig(scratchpad_bytes=scratchpad_bytes)
    g = cs.build_preset(preset)
    sched = pipeline.plan_network(g, hw, *cli.SCHEDULE_PRESETS[schedule])
    covered = [node.id for u in sched for node in u.nodes]
    assert sorted(covered) == sorted(n.id for n in g.nodes)   # each exactly once
    params = init_params(g, 0)
    _, report, _ = checked_run(g, sched, seeded_input(g, 0), params, hw)
    extra = sum(group.extra_macs for u in sched if isinstance(u, pipeline.ChainUnit)
                for group in u.plan)
    assert report.macs == sum(layer_work(g, n)[0] for n in g.nodes) + extra
    assert report.vector_ops == sum(layer_work(g, n)[1] for n in g.nodes)


def random_network(rng, idx):
    """A random but structurally valid hybrid conv/attention graph."""
    from convformer_sim.workload import (Add, Attention, Conv2D, Downsample,
                                         GELU, LayerNode, LayerNorm, Linear,
                                         NetworkGraph, TensorShape,
                                         infer_shapes)
    c = int(rng.choice([4, 8, 16]))
    h = w = 16  # matches the fixed input; halved by each downsample
    nodes = [LayerNode("stem", Conv2D(3, c, 3, 1, 1))]
    prev = "stem"
    n_blocks = int(rng.integers(1, 4))
    uid = 0

    def nid():
        nonlocal uid
        uid += 1
        return f"n{uid}"

    for _ in range(n_blocks):
        kind = rng.random()
        if kind < 0.25 and h >= 4:
            i = nid()
            nodes.append(LayerNode(i, Downsample(2, 2), (prev,)))
            prev = i
            h //= 2
            w //= 2
        elif kind < 0.5:
            i = nid()
            groups = c if rng.random() < 0.5 else 1
            nodes.append(LayerNode(i, Conv2D(c, c, 3, 1, 1, groups=groups), (prev,)))
            prev = i
        elif kind < 0.75:
            skip = prev
            ln, at_, ad = nid(), nid(), nid()
            heads = int(rng.choice([hh for hh in (1, 2, 4) if c % hh == 0]))
            sr = int(rng.choice([s for s in (1, 2) if h % s == 0 and h // s >= 1]))
            nodes.append(LayerNode(ln, LayerNorm(), (prev,)))
            nodes.append(LayerNode(at_, Attention(heads, c // heads, sr), (ln,)))
            nodes.append(LayerNode(ad, Add(skip), (at_, skip)))
            prev = ad
        else:
            skip = prev
            ln, f1, ac, f2, ad = nid(), nid(), nid(), nid(), nid()
            nodes.append(LayerNode(ln, LayerNorm(), (prev,)))
            nodes.append(LayerNode(f1, Linear(c, 2 * c), (ln,)))
            nodes.append(LayerNode(ac, GELU(), (f1,)))
            nodes.append(LayerNode(f2, Linear(2 * c, c), (ac,)))
            nodes.append(LayerNode(ad, Add(skip), (f2, skip)))
            prev = ad
    return infer_shapes(NetworkGraph(nodes, TensorShape(1, 3, 16, 16)))


@pytest.mark.parametrize("idx", range(8))
def test_random_networks_all_schedules_equivalent(idx, hw):
    rng = np.random.default_rng([77, idx])
    g = random_network(rng, idx)
    params = init_params(g, idx)
    x = seeded_input(g, idx)
    ref = reference_execute(g, x, params)
    for att, fus in (("auto", "auto"), ("baseline", "singleton")):
        sched = pipeline.plan_network(g, hw, att, fus)
        out, report, deviations = checked_run(g, sched, x, params, hw, idx)
        dev = float(np.max(np.abs(out - ref)))
        assert dev <= 1e-9, (idx, att, fus, dev)
        assert len(deviations) == len(sched)
        assert all(d <= 1e-9 for _, d in deviations), (idx, att, fus, deviations)
        # run_schedule cross-checks closed-form EMA against counters


def linear_stream_blocks(in_elems, out_elems, eb, avail):
    """The block search as a linear scan: the oracle for the bisection."""
    blocks = 1
    while (blocks < max(in_elems, out_elems, 1)
           and (-(-in_elems // blocks) + -(-out_elems // blocks)) * eb > avail):
        blocks += 1
    return blocks


def test_stream_blocks_bisection_equals_linear_scan():
    sizes = (0, 1, 2, 3, 7, 16, 49, 100, 257)
    nothing_fits = 0
    for in_elems in sizes:
        for out_elems in sizes:
            for eb in (1, 2, 4):
                for avail in (-8, 0, 1, 2, 3, 4, 5, 8, 13, 64, 100, 1000, 4096):
                    want = linear_stream_blocks(in_elems, out_elems, eb, avail)
                    assert pipeline._stream_blocks(in_elems, out_elems, eb, avail) == want, \
                        (in_elems, out_elems, eb, avail)
                    nothing_fits += 2 * eb > avail and max(in_elems, out_elems) > 0
    assert nothing_fits > 0


def test_projection_pass_over_capacity_fails_at_plan_time():
    # one attention node (8 heads x 8 on a 4x4 map): the core fits 1000 B,
    # the 4096 B Q projection weights do not
    g = graph_from_dict({"input_shape": [1, 64, 4, 4], "nodes": [
        {"id": "mha", "kind": "attention", "heads": 8, "d_head": 8}]})
    with pytest.raises(cs.CapacityError) as info:
        pipeline.plan_network(g, HardwareConfig(scratchpad_bytes=1000))
    assert str(info.value).startswith("mha: alloc 'attnQ_w' needs 4096 B")
    assert "deficit 3096 B" in str(info.value)


def test_a_unit_that_overflows_when_run_is_a_self_check_failure():
    """Planning capacity-checks every unit, so a unit that overflows the scratchpad of
    the hardware it runs on means a broken plan (exit 3), not an infeasible schedule:
    here a plan for 256 KiB runs on 2 KiB, and the error names its first unit."""
    g = cs.build_preset("segformer-micro")
    sched = pipeline.plan_network(g, HardwareConfig(scratchpad_bytes=262144))
    with pytest.raises(cs.SelfCheckError) as info:
        checked_run(g, sched, seeded_input(g, 0), init_params(g, 0),
                    HardwareConfig(scratchpad_bytes=2048))
    assert str(info.value).startswith("chain[stem,s0_down]: ")
    assert "alloc 'tin' needs 4560 B but only 2048 B available" in str(info.value)


def test_run_schedule_frees_each_output_after_its_last_read(monkeypatch, hw):
    """While unit i runs, only outputs that unit i or a later unit reads are alive."""
    g = cs.build_preset("pvtv2-micro")
    sched = pipeline.plan_network(g, hw)
    firsts = [u.nodes[0] for u in sched]
    lasts = [u.nodes[-1].id for u in sched]
    still_read = [{lasts.index(p) for n in firsts[i:] for p in n.preds}
                  for i in range(len(firsts))]
    outputs, alive_at = [], []

    def spy(run):
        def wrapped(*args, **kwargs):
            alive_at.append({j for j, ref in enumerate(outputs) if ref() is not None})
            out = run(*args, **kwargs)
            outputs.append(weakref.ref(out))
            return out
        return wrapped

    for owner, name in ((pipeline.lf, "fused_execute"), (pipeline, "attention_unit_execute"),
                        (pipeline, "add_unit_execute")):
        monkeypatch.setattr(owner, name, spy(getattr(owner, name)))
    params = init_params(g, 0)
    checked_run(g, sched, seeded_input(g, 0), params, hw)
    assert len(alive_at) == len(sched)
    assert any(len(still_read[i]) < i for i in range(len(still_read)))
    for i, alive in enumerate(alive_at):
        assert alive <= still_read[i], (i, alive - still_read[i])


# ---------------------------------------------------------------------------
# Random whole graphs
# ---------------------------------------------------------------------------

CHANNELS = (2, 4, 8)
SCRATCHPADS = (256, 600, 1024, 2048, 4096, 16384, 262144)


@st.composite
def whole_graphs(draw):
    """A graph dict of 1-5 blocks on a 4-12 px map, each block reading the last."""
    c, h, w = (draw(st.sampled_from(CHANNELS)), draw(st.integers(4, 12)),
               draw(st.integers(4, 12)))
    shape, nodes = [1, c, h, w], []

    def add(kind, **fields):
        preds = [nodes[-1]["id"]] if nodes else []
        nodes.append({"id": f"n{len(nodes)}", "kind": kind, "preds": preds, **fields})
        return nodes[-1]["id"]

    for _ in range(draw(st.integers(1, 5))):
        blocks = ["attention", "mlp"] if nodes else []   # their add reads a node
        blocks += ["dense", "depthwise", "gelu"]
        blocks += ["downsample", "depthwise_s2"] if min(h, w) >= 4 else []
        block = draw(st.sampled_from(blocks))
        if block == "dense":
            k = draw(st.sampled_from([1, 3]))
            c_out = draw(st.sampled_from(CHANNELS))
            add("conv2d", c_in=c, c_out=c_out, k=k, pad=k // 2)
            c = c_out
        elif block in ("depthwise", "depthwise_s2"):
            stride = 2 if block == "depthwise_s2" else 1
            add("conv2d", c_in=c, c_out=c, k=3, stride=stride, pad=1, groups=c)
            h, w = (h - 1) // stride + 1, (w - 1) // stride + 1
        elif block == "downsample":
            add("downsample", k=2, stride=2)
            h, w = h // 2, w // 2
        elif block == "gelu":
            add("gelu")
        else:
            skip = nodes[-1]["id"]
            add("layernorm")
            if block == "attention":
                heads = draw(st.sampled_from([d for d in CHANNELS if c % d == 0] + [1]))
                last = add("attention", heads=heads, d_head=c // heads,
                           sr_ratio=draw(st.integers(1, 2)))
            else:
                hidden = draw(st.sampled_from(CHANNELS))
                add("linear", c_in=c, c_out=hidden)
                add("gelu")
                last = add("linear", c_in=hidden, c_out=c)
            add("add", residual_of=skip)
            nodes[-1]["preds"].append(skip)
    return {"input_shape": shape, "nodes": nodes}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(whole_graphs(), st.sampled_from(SCRATCHPADS), st.sampled_from([1, 2]),
       st.sampled_from(sorted(cli.SCHEDULE_PRESETS)))
def test_random_graph_plans_and_executes_or_exits_2(graph, scratchpad, eb, schedule):
    """Once a plan succeeds, execution fits and matches the reference; when
    nothing fits, ``run`` exits 2 naming a node and the bytes it lacks."""
    g = graph_from_dict(graph)
    hw = HardwareConfig(scratchpad_bytes=scratchpad, element_bytes=eb)
    attention, fusion = cli.SCHEDULE_PRESETS[schedule]
    try:
        sched = pipeline.plan_network(g, hw, attention, fusion)
    except cs.CapacityError:
        config = {"model": {"graph": graph},
                  "hardware": {"scratchpad_bytes": scratchpad, "element_bytes": eb},
                  "schedule": {"attention": attention, "fusion": fusion}}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "exp.json"
            path.write_text(json.dumps(config))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["run", "--config", str(path)])
        err = err.getvalue()
        assert (code, out.getvalue()) == (2, ""), err
        assert any(re.search(rf"\b{n['id']}\b", err) for n in graph["nodes"]), err
        m = re.search(r"needs (\d+) B but only (\d+) B available \(deficit (\d+) B\)", err)
        assert m and int(m[3]) == int(m[1]) - int(m[2]), err
        return
    params, x = init_params(g, 0), seeded_input(g, 0)
    out, report, deviations = checked_run(g, sched, x, params, hw)
    assert float(np.max(np.abs(out - reference_execute(g, x, params)))) <= 1e-9
    assert len(deviations) == len(sched)
    assert all(d <= 1e-9 for _, d in deviations), deviations
    assert report.scratchpad_high_water <= scratchpad


def run_or_capacity_error(cfg: cli.ExperimentConfig, ref: cli.Reference | None = None):
    """``cfg``'s ``run`` result, or the text of the CapacityError that planning raises."""
    try:
        return cli.run_experiment(cfg, cli.simulate(cfg, ref))
    except cs.CapacityError as e:
        return str(e)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(whole_graphs(), st.sampled_from([256, 2048, 16384, 262144]), st.sampled_from([1, 2]))
def test_different_seed_changes_deviation_not_cost_on_random_graphs(graph, scratchpad, eb):
    """Without pruning, seeds 0 and 7 print the same ``run`` result once the deviation and
    the echoed seeds are dropped; an infeasible graph is infeasible alike at both, plan
    only."""
    hw = HardwareConfig(scratchpad_bytes=scratchpad, element_bytes=eb)
    results = []
    for seed in (0, 7):
        result = run_or_capacity_error(cli.ExperimentConfig({"graph": graph}, hw, seed=seed))
        if isinstance(result, dict):
            assert (result["config"].pop("seed"), result["report"].pop("seed")) == (seed, seed)
            del result["max_abs_deviation"]
        results.append(result)
    assert results[0] == results[1]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(whole_graphs(), st.sampled_from([256, 2048, 16384, 262144]))
def test_cycles_never_rise_with_pe_count_or_dram_bandwidth_on_random_graphs(graph, scratchpad):
    """Cycles never rise as ``pe_count`` or ``dram_bytes_per_cycle`` grows, the other at
    its default, and nothing else ``run`` prints moves but the echoed hardware; an
    infeasible graph is infeasible alike at every value, plan only. The rows share one
    Reference, so the reference runs once."""
    g, base = graph_from_dict(graph), HardwareConfig(scratchpad_bytes=scratchpad)
    ref, results = cli.Reference(g, 0, False), []
    for field, values in (("pe_count", (1, 8, 4096)), ("dram_bytes_per_cycle", (1, 4, 64))):
        cycles = []
        for value in values:
            cfg = cli.ExperimentConfig({"graph": graph}, replace(base, **{field: value}))
            result = run_or_capacity_error(cfg, ref)
            if isinstance(result, dict):
                del result["config"]["hardware"], result["report"]["hardware"]
                cycles.append(result["report"].pop("cycles"))
            results.append(result)
        assert cycles == sorted(cycles, reverse=True), (field, cycles)
    assert all(r == results[0] for r in results)


B0_GRAPH = Path(__file__).parent / "golden" / "b0-224.json"


def token_node(node_id, kind, *preds, **fields):
    return {"id": node_id, "kind": kind, "preds": list(preds), **fields}


# two GELUs that read a linear's channel-last map; were they to donate it, an add
# whose other operand is channel-last too, and a LayerNorm, would get that layout.
# 16 channels, so that LayerNorm's sums round by layout
LAYOUT_TRAPS = {"input_shape": [1, 4, 6, 5], "nodes": [
    token_node("fc0", "linear", c_in=4, c_out=16), token_node("ln0", "layernorm", "fc0"),
    token_node("fc1", "linear", "ln0", c_in=16, c_out=16), token_node("g1", "gelu", "fc1"),
    token_node("add1", "add", "g1", "ln0", residual_of="ln0"),
    token_node("ln1", "layernorm", "add1"),
    token_node("fc2", "linear", "ln1", c_in=16, c_out=16), token_node("g2", "gelu", "fc2"),
    token_node("ln2", "layernorm", "g2")]}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(whole_graphs().map(graph_from_dict))
@example(cs.build_preset("toy-chain"))
@example(cs.build_preset("segformer-micro"))
@example(cs.build_preset("pvtv2-micro"))
@example(cs.build_preset("cmt-micro"))
@example(graph_from_dict(json.loads(B0_GRAPH.read_text())["model"]["graph"]))
@example(graph_from_dict(LAYOUT_TRAPS))
def test_donated_reference_equals_a_full_record(g):
    """Without a record, the reference writes dead maps over (donates them); a dict
    record keeps every output, so it donates none. Both give the same bytes, and each
    kept output is its layer run again on the kept inputs: no donation reached a kept
    map, nor carried a layout into a LayerNorm or an add."""
    params, x, full = init_params(g, 0), seeded_input(g, 0), {}
    out = reference_execute(g, x, params)
    assert reference_execute(g, x, params, record=full).tobytes() == out.tobytes()
    for node in g.nodes:
        again = workload.layer_forward(node, [full[p] for p in node.preds] or [x],
                                       params[node.id])
        assert again.tobytes() == full[node.id].tobytes(), node.id


@settings(max_examples=400, deadline=None, derandomize=True)
@given(whole_graphs().map(graph_from_dict))
@example(cs.build_preset("toy-chain"))
@example(cs.build_preset("segformer-micro"))
@example(cs.build_preset("pvtv2-micro"))
@example(cs.build_preset("cmt-micro"))
def test_segments_follow_the_chain_rule(g):
    """The segments cover the nodes once, in order; a barrier is one non-fusable node;
    in a chain each node reads only the node before it, whose one reader it is; and
    no chain could have taken in the chain after it."""
    segments, consumers = split_into_segments(g), g.consumers()
    assert [n.id for _, nodes in segments for n in nodes] == [n.id for n in g.nodes]
    for kind, nodes in segments:
        assert kind in ("chain", "barrier")
        assert all(isinstance(n.op, FUSABLE_OPS) == (kind == "chain") for n in nodes)
        assert kind == "chain" or len(nodes) == 1
        for a, b in zip(nodes, nodes[1:]):
            assert b.preds == (a.id,) and len(consumers[a.id]) == 1, (a.id, b.id)
    for (kind, nodes), (next_kind, after) in zip(segments, segments[1:]):
        if kind == next_kind == "chain":
            assert not (after[0].preds == (nodes[-1].id,)
                        and len(consumers[nodes[-1].id]) == 1), (nodes[-1].id, after[0].id)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(whole_graphs(), st.sampled_from([1, 2]),
       st.lists(st.integers(256, 65536), min_size=2, max_size=4, unique=True))
def test_plan_ema_falls_as_the_scratchpad_grows(graph, eb, scratchpads):
    """Plan only: no named schedule's EMA rises, nor does it stop fitting, as the
    scratchpad grows; where all four fit, full <= fusion <= naive and full <=
    tiling <= naive. ``whole_graphs`` draws no stride > kernel."""
    g, tables, last = graph_from_dict(graph), {}, {}
    for scratchpad in sorted(scratchpads):
        hw = HardwareConfig(scratchpad_bytes=scratchpad, element_bytes=eb)
        ema = {}
        for name, modes in cli.SCHEDULE_PRESETS.items():
            try:
                units = pipeline.plan_network(g, hw, *modes, tables)
                ema[name] = sum(u.row["ema_bytes"] for u in units)
            except cs.CapacityError:
                ema[name] = math.inf
            assert ema[name] <= last.get(name, math.inf), (name, scratchpad)
        if math.inf not in ema.values():
            assert ema["full"] <= ema["fusion"] <= ema["naive"], (scratchpad, ema)
            assert ema["full"] <= ema["tiling"] <= ema["naive"], (scratchpad, ema)
        last = ema


# ---------------------------------------------------------------------------
# One group record and one tiling record: the printed schedule is a config that
# reproduces it
# ---------------------------------------------------------------------------


def printed_groups(schedule: dict) -> dict:
    """Each chain unit's printed ``plan.groups``, unedited, as a ``schedule.fusion`` map."""
    chains = [u for u in schedule["units"] if u["kind"] == "chain"]
    return {str(i): u["plan"]["groups"] for i, u in enumerate(chains)}


def printed_tilings(schedule: dict) -> dict:
    """Each attention unit's printed ``tiling``, unedited, as a ``schedule.attention`` map."""
    return {u["node"]: u["tiling"] for u in schedule["units"] if u["kind"] == "attention"}


def chain_ema(unit: pipeline.ChainUnit) -> int:
    """The EMA of a chain unit's plan, the sum over its groups."""
    return sum(group.ema_bytes for group in unit.plan)


def run_stdout(config: dict, tmp: Path) -> tuple[int, str]:
    path = tmp / "config.json"
    path.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["run", "--config", str(path)])
    return code, out.getvalue()


@pytest.mark.parametrize("model", [*cs.PRESETS, "b0-224"])
def test_printed_groups_fed_back_reproduce_the_run(model, tmp_path):
    """``run``'s stdout, pasted tilings and groups and all, is the auto run's byte for
    byte, but for the config echo of ``schedule.attention`` and ``schedule.fusion``: on
    each preset at five scratchpads and both element widths, and on the B0 golden
    config."""
    configs = ([json.loads(B0_GRAPH.read_text())] if model == "b0-224" else
               [{"model": model, "hardware": {"scratchpad_bytes": cap, "element_bytes": eb}}
                for cap in (2048, 4096, 8192, 65536, 262144) for eb in (1, 2)])
    fed_back = 0
    for config in configs:
        code, out = run_stdout(config, tmp_path)
        if code == 2:   # nothing to print
            continue
        data = json.loads(out)
        fixed = {"attention": printed_tilings(data["schedule"]),
                 "fusion": printed_groups(data["schedule"])}
        data["config"]["schedule"].update(fixed)
        config = dict(config, schedule=dict(config.get("schedule", {}), **fixed))
        assert run_stdout(config, tmp_path) == (
            code, json.dumps(data, sort_keys=True, indent=2) + "\n"), config["hardware"]
        fed_back += 1
    assert fed_back >= (1 if model == "b0-224" else 8)


@settings(max_examples=300, deadline=None, derandomize=True)   # over 500 feasible plans
@given(whole_graphs().map(graph_from_dict), st.sampled_from(SCRATCHPADS),
       st.sampled_from([1, 2]))
def test_printed_groups_fed_back_reproduce_the_plan(g, scratchpad, eb):
    """Plan only: under each named schedule, each attention unit's printed tiling and
    each chain's printed groups, fed back as ``schedule.attention`` and
    ``schedule.fusion``, give the same printed ``schedule``."""
    hw, tables = HardwareConfig(scratchpad_bytes=scratchpad, element_bytes=eb), {}
    for name, modes in cli.SCHEDULE_PRESETS.items():
        try:
            units = pipeline.plan_network(g, hw, *modes, tables)
            printed = json.loads(json.dumps({"units": [u.to_dict() for u in units]}))
        except cs.CapacityError:
            continue
        again = pipeline.plan_network(g, hw, printed_tilings(printed), printed_groups(printed),
                                      tables)
        assert json.loads(json.dumps({"units": [u.to_dict() for u in again]})) == printed, name


def random_groups(rng: random.Random, layers: list) -> list[dict]:
    """A random partition of a chain into ``schedule.fusion`` groups, each at a divisor
    tile of its last layer's output and either halo policy."""
    cuts = sorted(rng.sample(range(1, len(layers)), rng.randint(0, len(layers) - 1)))
    groups = []
    for start, stop in zip([0, *cuts], [*cuts, len(layers)]):
        out = layers[stop - 1].out_shape
        groups.append({"start": start, "end": stop - 1,
                       "tile": [rng.choice(workload.divisors(out.h)),
                                rng.choice(workload.divisors(out.w))],
                       "policy": rng.choice(["recompute", "cache"])})
    return groups


@settings(max_examples=150, deadline=None, derandomize=True)
@given(whole_graphs().map(graph_from_dict), st.sampled_from(SCRATCHPADS),
       st.sampled_from([1, 2]), st.integers(0, 2**32))
@example(cs.build_preset("toy-chain"), 2048, 1, 0)
@example(cs.build_preset("segformer-micro"), 8192, 2, 1)
@example(cs.build_preset("pvtv2-micro"), 4096, 1, 2)
@example(cs.build_preset("cmt-micro"), 65536, 1, 3)
def test_no_fed_back_partition_beats_the_search(g, scratchpad, eb, seed):
    """Plan only: any partition of a chain, at divisor tiles and either policy, fed back
    as ``schedule.fusion``, is infeasible or costs that chain at least the EMA of the
    auto plan's. This checks the search through the path a fixed group takes."""
    hw = HardwareConfig(scratchpad_bytes=scratchpad, element_bytes=eb)
    tables, rng = {}, random.Random(seed)
    try:
        auto = pipeline.plan_network(g, hw, "auto", "auto", tables)
    except cs.CapacityError:
        return
    chains = [u for u in auto if isinstance(u, pipeline.ChainUnit)]
    for index, unit in enumerate(chains):
        for _ in range(8):
            fusion = {str(index): random_groups(rng, unit.layers)}
            try:
                units = pipeline.plan_network(g, hw, "auto", fusion, tables)
            except cs.CapacityError:
                continue
            fixed = [u for u in units if isinstance(u, pipeline.ChainUnit)][index]
            assert chain_ema(fixed) >= chain_ema(unit), fusion


def one_step_neighbours(tiling, dims) -> list[dict]:
    """The ``schedule.attention`` records one step from searched ``tiling`` on a layer of
    ``dims``: the next smaller and next larger divisor t_q, the neighbouring divisor t_k
    under streaming, and the mode flipped (a streaming t_k is then N_r)."""
    choice = {"t_q": tiling.t_q, "t_k": tiling.t_k, "mode": tiling.mode.value}
    streaming = tiling.mode is ResidencyMode.STREAMING_KV
    steps = []
    for key, extent in (("t_q", dims.N), ("t_k", dims.N_r))[:1 + streaming]:
        sizes = workload.divisors(extent)
        i = sizes.index(choice[key])
        steps += [dict(choice, **{key: sizes[j]}) for j in (i - 1, i + 1)
                  if 0 <= j < len(sizes)]
    flipped = ResidencyMode.RESIDENT_KV if streaming else ResidencyMode.STREAMING_KV
    return [*steps, dict(choice, mode=flipped.value, t_k=dims.N_r)]


@pytest.mark.parametrize("scratchpad", [2048, 8192, 65536])
def test_no_one_step_neighbour_beats_the_searched_tiling(scratchpad):
    """Plan only: on every preset, each attention unit's one-step neighbours, fed back
    in place of its printed tiling, are infeasible or cost that unit's row at least the
    EMA of the auto plan's. This checks the search through the path a fixed tiling
    takes."""
    hw, checked = HardwareConfig(scratchpad_bytes=scratchpad), 0
    for preset in cs.PRESETS:
        g, tables = cs.build_preset(preset), {}
        try:
            auto = pipeline.plan_network(g, hw, "auto", "auto", tables)
        except cs.CapacityError:
            continue
        attention = [(i, u) for i, u in enumerate(auto) if isinstance(u, pipeline.AttentionUnit)]
        printed = printed_tilings(json.loads(json.dumps({"units": [u.to_dict() for u in auto]})))
        for i, unit in attention:
            for record in one_step_neighbours(unit.tiling, unit.dims):
                try:
                    units = pipeline.plan_network(g, hw, dict(printed, **{unit.node.id: record}),
                                                  "auto", tables)
                except cs.CapacityError:
                    continue
                assert units[i].row["ema_bytes"] >= unit.row["ema_bytes"], (preset, record)
                checked += 1
    assert checked >= 10


def one_step_partitions(groups: list[dict], layers: list) -> list[list[dict]]:
    """The ``schedule.fusion`` group lists one step from a chain's printed ``groups``, their
    derived fields left out: a group's tile at the next smaller or next larger divisor in
    rows or in columns; its policy flipped; two adjacent groups merged at the second's
    tile and policy; a group split at each interior layer, the first part at its full-map
    tile."""
    chosen = [{k: g[k] for k in ("start", "end", "tile", "policy")} for g in groups]
    neighbours = []
    for i, g in enumerate(chosen):
        before, after = chosen[:i], chosen[i + 1:]
        out = layers[g["end"]].out_shape
        for axis, extent in enumerate((out.h, out.w)):
            sizes = workload.divisors(extent)
            k = sizes.index(g["tile"][axis])
            neighbours += [[*before, dict(g, tile=[*g["tile"][:axis], sizes[j],
                                                   *g["tile"][axis + 1:]]), *after]
                           for j in (k - 1, k + 1) if 0 <= j < len(sizes)]
        flipped = "cache" if g["policy"] == "recompute" else "recompute"
        neighbours.append([*before, dict(g, policy=flipped), *after])
        if after:
            neighbours.append([*before, dict(after[0], start=g["start"]), *after[1:]])
        for cut in range(g["start"], g["end"]):
            full = layers[cut].out_shape
            neighbours.append([*before, dict(g, end=cut, tile=[full.h, full.w]),
                               dict(g, start=cut + 1), *after])
    return neighbours


@pytest.mark.parametrize("scratchpad", [2048, 8192, 65536])
def test_no_one_step_neighbour_beats_the_searched_groups(scratchpad):
    """Plan only: on every preset, each chain's one-step neighbour partitions, fed back
    in place of its printed groups while every other chain keeps its own, are infeasible
    or cost that chain at least the auto plan's EMA. This checks the partition search
    through the path fixed groups take."""
    hw, checked = HardwareConfig(scratchpad_bytes=scratchpad), 0
    for preset in cs.PRESETS:
        g, tables = cs.build_preset(preset), {}
        try:
            auto = pipeline.plan_network(g, hw, "auto", "auto", tables)
        except cs.CapacityError:
            continue
        printed = printed_groups(json.loads(json.dumps({"units": [u.to_dict() for u in auto]})))
        chains = [u for u in auto if isinstance(u, pipeline.ChainUnit)]
        for index, unit in enumerate(chains):
            for groups in one_step_partitions(printed[str(index)], unit.layers):
                fusion = dict(printed, **{str(index): groups})
                try:
                    units = pipeline.plan_network(g, hw, "auto", fusion, tables)
                except cs.CapacityError:
                    continue
                fixed = [u for u in units if isinstance(u, pipeline.ChainUnit)][index]
                assert chain_ema(fixed) >= chain_ema(unit), (preset, index, groups)
                checked += 1
    assert checked >= 100


# ---------------------------------------------------------------------------
# Fusion cost tables shared by a command's plans
# ---------------------------------------------------------------------------

def planned(graph, hw, schedule, tables=None):
    """Each unit's ``to_dict()`` in a named schedule, or its CapacityError's text."""
    try:
        return [u.to_dict() for u in pipeline.plan_network(
            graph, hw, *cli.SCHEDULE_PRESETS[schedule], tables)]
    except cs.CapacityError as e:
        return str(e)


@pytest.mark.parametrize("name", [*cs.PRESETS, "b0-224"])
def test_plans_from_shared_tables_equal_fresh_plans(name):
    g = (graph_from_dict(json.loads(B0_GRAPH.read_text())["model"]["graph"])
         if name == "b0-224" else cs.build_preset(name))
    tables = {}
    # the README sweep, then the b0-224 config's own (B0 fits no smaller one), in sequence
    for scratchpad in (2048, 8192, 65536, 262144, 1 << 20):
        hw = HardwareConfig(scratchpad_bytes=scratchpad)
        for schedule in cli.SCHEDULE_PRESETS:
            assert planned(g, hw, schedule, tables) == planned(g, hw, schedule), \
                (schedule, scratchpad)
    assert tables


def renamed(graph):
    """``graph`` with node i renamed ``"{n - i}#"`` (n nodes), in ``preds`` and
    ``residual_of`` too, and a function that maps those ids in a text back."""
    old = [n.id for n in graph.nodes]
    assert not any("#" in i for i in old)
    new = {i: f"{len(old) - k}#" for k, i in enumerate(old)}
    nodes = [workload.LayerNode(new[n.id], replace(n.op, residual_of=new[n.op.residual_of])
                                if isinstance(n.op, workload.Add) else n.op,
                                tuple(new[p] for p in n.preds)) for n in graph.nodes]
    back = {v: k for k, v in new.items()}
    return (workload.infer_shapes(workload.NetworkGraph(nodes, graph.input_shape)),
            lambda text: re.sub(r"\d+#", lambda m: back[m[0]], text))


def assert_renaming_changes_only_labels(g, hw, tables):
    """Under each named schedule, planning the renamed ``g`` gives the plan of ``g``,
    or its CapacityError text, once the ids are mapped back; both plans share ``tables``,
    which key by geometry, not by node id."""
    other, back = renamed(g)
    for schedule in cli.SCHEDULE_PRESETS:
        assert (back(json.dumps(planned(other, hw, schedule, tables)))
                == json.dumps(planned(g, hw, schedule, tables))), schedule


@pytest.mark.parametrize("name", cs.PRESETS)
def test_renaming_every_node_changes_only_the_labels(name):
    g = cs.build_preset(name)
    for eb in (1, 2):
        tables = {}
        for scratchpad in (2048, 8192, 65536, 262144):
            hw = HardwareConfig(scratchpad_bytes=scratchpad, element_bytes=eb)
            assert_renaming_changes_only_labels(g, hw, tables)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(whole_graphs().map(graph_from_dict), st.sampled_from(SCRATCHPADS),
       st.sampled_from([1, 2]))
def test_renaming_every_node_of_a_random_graph_changes_only_the_labels(g, scratchpad, eb):
    assert_renaming_changes_only_labels(
        g, HardwareConfig(scratchpad_bytes=scratchpad, element_bytes=eb), {})


def test_plan_replays_every_barrier_unit_and_shares_only_fusion_tables(monkeypatch):
    """Each plan replays one capacity check per attention or add unit, B0's 8 and 16,
    also when it shares ``tables`` with an earlier plan: they hold fusion cost tables
    alone."""
    g = graph_from_dict(json.loads(B0_GRAPH.read_text())["model"]["graph"])
    replays, real = [], pipeline.replay
    monkeypatch.setattr(pipeline, "replay",
                        lambda txns, sim: replays.append(sim) or real(txns, sim))
    tables, hw = {}, HardwareConfig(scratchpad_bytes=1 << 20)
    sched = pipeline.plan_network(g, hw, "auto", "auto", tables)
    assert sum(not isinstance(u, pipeline.ChainUnit) for u in sched) == len(replays) == 24
    pipeline.plan_network(g, hw, "auto", "singleton", tables)
    assert len(replays) == 48
    assert tables and all(isinstance(t, cs.layer_fusion._GroupTable)
                          for t in tables.values())


UNIT_KINDS = ("ChainUnit", "AttentionUnit", "AddUnit")
UNIT_PROTOCOL = ("nodes", "row", "execute", "to_dict")   # a barrier kind adds ``passes``


def test_no_code_asks_a_unit_its_kind():
    """Every unit kind answers one protocol (each barrier kind also its plan-time
    ``passes``), so no ``isinstance`` in the package names a unit kind: one would bring
    back a per-kind ladder."""
    tests = []
    for path in sorted(Path(cs.__file__).parent.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text())):
            if (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                    and n.func.id == "isinstance" and len(n.args) == 2):
                kinds = n.args[1].elts if isinstance(n.args[1], ast.Tuple) else [n.args[1]]
                if any(getattr(k, "id", getattr(k, "attr", None)) in UNIT_KINDS for k in kinds):
                    tests.append(f"{path.name}:{n.lineno}")
    assert tests == []
    for kind in UNIT_KINDS:
        cls = getattr(pipeline, kind)
        names = {f.name for f in fields(cls)} | {
            name for name, value in vars(cls).items()
            if callable(value) or isinstance(value, property)}
        barrier = {"passes"} if kind != "ChainUnit" else set()
        assert set(UNIT_PROTOCOL) | barrier <= names, kind
