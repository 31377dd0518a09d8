"""SegFormer-B0-shaped experiment config (Xie et al., arXiv:2105.15203).

Four stages with channels 32/64/160/256, heads 1/2/5/8 and spatial-reduction
ratios 8/4/2/1. Each stage opens with an overlapping patch embed written as a
strided ``conv2d`` (7x7/4 pad 3 for stage 1, 3x3/2 pad 1 after it) plus a
``layernorm``, then holds two blocks of ln -> attention -> add -> ln -> fc1
(x4) -> 3x3 depthwise conv -> gelu -> fc2 -> add, and ends with a
``layernorm``. At 224x224 input the stage maps are 56/28/14/7 and every
attention has N_r = 49.

Run ``python3 perfbench/b0graph.py`` to self-test the generator against the
simulator's own graph builder.
"""

from __future__ import annotations

import sys
from pathlib import Path

CHANNELS = (32, 64, 160, 256)
HEADS = (1, 2, 5, 8)
SR_RATIOS = (8, 4, 2, 1)
BLOCKS = 2
MLP_RATIO = 4
INPUT_HW = 224
SCRATCHPAD_BYTES = 1 << 20  # stage-4 fc1 weights alone are 256 KiB


def b0_graph() -> dict:
    """The graph definition in the ``graph_from_dict`` schema."""
    nodes: list[dict] = []

    def add(node_id: str, kind: str, preds: list[str], **fields) -> str:
        nodes.append({"id": node_id, "kind": kind, "preds": preds, **fields})
        return node_id

    prev_c = 3
    prev: list[str] = []
    for s, (c, heads, sr) in enumerate(zip(CHANNELS, HEADS, SR_RATIOS)):
        k, stride, pad = (7, 4, 3) if s == 0 else (3, 2, 1)
        x = add(f"s{s}_embed", "conv2d", prev, c_in=prev_c, c_out=c, k=k,
                stride=stride, pad=pad)
        x = add(f"s{s}_embed_ln", "layernorm", [x])
        hidden = c * MLP_RATIO
        for b in range(BLOCKS):
            t = f"s{s}b{b}"
            y = add(f"{t}_ln1", "layernorm", [x])
            y = add(f"{t}_attn", "attention", [y], heads=heads,
                    d_head=c // heads, sr_ratio=sr)
            x = add(f"{t}_add1", "add", [y, x], residual_of=x)
            y = add(f"{t}_ln2", "layernorm", [x])
            y = add(f"{t}_fc1", "linear", [y], c_in=c, c_out=hidden)
            y = add(f"{t}_dw", "conv2d", [y], c_in=hidden, c_out=hidden, k=3,
                    stride=1, pad=1, groups=hidden)
            y = add(f"{t}_act", "gelu", [y])
            y = add(f"{t}_fc2", "linear", [y], c_in=hidden, c_out=c)
            x = add(f"{t}_add2", "add", [y, x], residual_of=x)
        x = add(f"s{s}_norm", "layernorm", [x])
        prev, prev_c = [x], c
    return {"input_shape": [1, 3, INPUT_HW, INPUT_HW], "nodes": nodes}


def b0_config(seed: int) -> dict:
    """Experiment config for ``run``/``compare``: the B0 graph, 1 MiB scratchpad."""
    return {"model": {"graph": b0_graph()},
            "hardware": {"scratchpad_bytes": SCRATCHPAD_BYTES},
            "schedule": {"attention": "auto", "fusion": "auto"},
            "seed": seed}


def self_test() -> None:
    """Build the graph through ``graph_from_dict`` and check its shape."""
    from convformer_sim.workload import Attention, attention_dims, graph_from_dict

    graph = graph_from_dict(b0_config(0)["model"]["graph"])
    if len(graph.nodes) != 84:
        raise AssertionError(f"expected 84 nodes, got {len(graph.nodes)}")
    maps = [graph.out_shape(f"s{s}_norm") for s in range(4)]
    got = [(m.c, m.h, m.w) for m in maps]
    want = [(c, hw, hw) for c, hw in zip(CHANNELS, (56, 28, 14, 7))]
    if got != want:
        raise AssertionError(f"stage maps {got}, expected {want}")
    attn = [n for n in graph.nodes if isinstance(n.op, Attention)]
    dims = sorted({(d.N, d.N_r) for d in
                   (attention_dims(graph, n) for n in attn)}, reverse=True)
    if dims != [(3136, 49), (784, 49), (196, 49), (49, 49)]:
        raise AssertionError(f"attention (N, N_r) {dims}")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    self_test()
    print("b0graph: 84 nodes, maps 56/28/14/7, N 3136/784/196/49, N_r 49: ok")
    sys.exit(0)
