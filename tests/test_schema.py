"""The config schema: every config field either changes the result or is rejected.

``hwmodel.parse_fields`` reads each config part from its dataclass (``PARTS``): the
fields, their types, their bounds (``hwmodel.bounded``) and their defaults. The README's
config tables must equal the tables read from those dataclasses. After changing one,
print the tables with::

    PYTHONPATH=src python tests/test_schema.py

The property runs ``cli.main`` on a config of ``segformer-micro`` or ``pvtv2-micro``
that gives every part: the graph inline, all hardware fields, a fixed streaming tiling
on each attention layer, a fixed fusion group on chain 0, and pruning. It sets each
field in turn (of the first attention layer's tiling, for ``schedule.attention``):

* to a value outside its declared bounds, of the wrong type, or a boolean: exit 1,
  no stdout, and stderr names the field. A derived field (default None: a fusion
  group's ``weights_resident``, ``ema_bytes``, ``extra_macs`` and ``buffer_bytes``,
  and a tiling's ``element_bytes``, ``ema_bytes`` and ``buffer_bytes``) is also
  rejected at any value but the one recomputed from its record, and at that value it
  changes nothing;
* to another legal value: ``report``, ``schedule``, ``pruning`` or
  ``adjusted_report`` changes (the hardware and seed that a report echoes do not
  count), or the schedule is infeasible (exit 2), or a rule across fields rejects the
  config (exit 1, no stdout): a node's channels must match its input, a fixed
  tiling's sizes must fit its attention layer, and an add's ``residual_of`` must
  name the earlier of its two predecessors, say.

Each example draws one bad and one legal value for every field (for a node field, of
one node of its kind); ``EXEMPT`` lists the fields whose legal values need not change
the result, and ``ACTING`` the fields whose legal values are drawn where they act.
"""

import contextlib
import copy
import io
import json
import math
import sys
import typing
from dataclasses import MISSING, asdict, astuple, fields
from enum import Enum
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convformer_sim import cli
from convformer_sim.attention_tiling import AttentionTiling
from convformer_sim.feature_pruning import PruneConfig
from convformer_sim.hwmodel import HardwareConfig
from convformer_sim.layer_fusion import FusionGroup, split_into_segments
from convformer_sim.workload import (Add, Attention, Conv2D, Downsample, Linear,
                                     build_preset)

README = Path(__file__).parent.parent / "README.md"

# config part -> its dataclass and the fields the part gives (None: every field)
PARTS = {
    "top level": (cli.ExperimentConfig, ("model", "seed", "tolerance")),
    "hardware": (HardwareConfig, None),
    "schedule.pruning": (PruneConfig, None),
    "schedule.attention": (AttentionTiling, None),
    "schedule.fusion group": (FusionGroup, None),
    "conv2d node": (Conv2D, None),
    "downsample node": (Downsample, None),
    "attention node": (Attention, None),
    "linear node": (Linear, None),
    "add node": (Add, None),
}
KINDS = {"conv2d node": "conv2d", "downsample node": "downsample",
         "attention node": "attention", "linear node": "linear", "add node": "add"}

# fields a config may give only at the value recomputed from the others (default None)
DERIVED = {(part, f.name) for part, (cls, names) in PARTS.items() for f in fields(cls)
           if f.default is None and (names is None or f.name in names)}
# fields whose default depends on another field of their part, with that dependence
CONDITIONAL = {("schedule.attention", "t_k"):
               "required under `streaming_kv`, derived (the layer's N_r) under `resident_kv`"}
# fields whose legal values need not change the result, each with its reason
EXEMPT = {
    ("top level", "tolerance"): "it only gates equivalence_ok and the exit code",
    **{key: "derived: any other value exits 1, and the recomputed one changes nothing"
       for key in DERIVED},
}
# legal values drawn where the field acts, each with its reason
ACTING = {
    # both configs are bandwidth-bound at 1024 PEs: fewer than ~100 make them compute-bound
    ("hardware", "pe_count"): st.integers(1, 64),
    # every plan fits 256 KiB with room to spare: a scratchpad this small changes plans
    ("hardware", "scratchpad_bytes"): st.integers(1024, 16384),
}


def part_fields(part: str) -> list:
    cls, names = PARTS[part]
    return [f for f in fields(cls) if names is None or f.name in names]


# ---------------------------------------------------------------------------
# README tables
# ---------------------------------------------------------------------------

def type_name(kind) -> str:
    if isinstance(kind, type) and issubclass(kind, Enum):
        return "one of " + ", ".join(f"`{m.value}`" for m in kind)
    if typing.get_origin(kind) is tuple:
        return "[" + ", ".join(type_name(k) for k in typing.get_args(kind)) + "]"
    if typing.get_args(kind):   # a union
        return " or ".join(type_name(k) for k in typing.get_args(kind))
    return {str: "string", dict: "object", type(None): "null"}.get(kind, kind.__name__)


def default_text(f) -> str:
    if f.default is None:
        return "derived"
    if f.default is MISSING:
        return "default of `HardwareConfig`" if f.default_factory is not MISSING else "required"
    value = f.default.value if isinstance(f.default, Enum) else f.default
    return f"`{json.dumps(value)}`"


def schema_tables() -> str:
    """One markdown table per config part, read from its dataclass."""
    lines = []
    for part, (cls, _) in PARTS.items():
        hints = typing.get_type_hints(cls)
        lines += [f"`{part}` (`{cls.__name__}`):", "",
                  "| field | type | least | most | default |", "|---|---|---|---|---|"]
        for f in part_fields(part):
            least, most = (f.metadata.get(k) for k in ("least", "most"))
            lines.append(f"| `{f.name}` | {type_name(hints[f.name])} | "
                         f"{'' if least is None else least} | {'' if most is None else most} | "
                         f"{CONDITIONAL.get((part, f.name)) or default_text(f)} |")
        lines.append("")
    return "\n".join(lines)


def test_readme_tables_equal_the_dataclasses():
    assert schema_tables() in README.read_text()


# ---------------------------------------------------------------------------
# Property: each field changes the result or is rejected
# ---------------------------------------------------------------------------

@cache
def base_config(preset: str) -> str:
    """``preset`` as a config giving every part, as JSON (copied per use)."""
    graph = build_preset(preset)
    nodes = []
    for n in graph.nodes:   # shapes are inferred, so each downsample is its conv
        node = {"id": n.id, "preds": list(n.preds), "kind": type(n.op).__name__.lower()}
        if n.id.endswith("_down"):
            node.update(kind="downsample", k=n.op.k, stride=n.op.stride)
        else:
            node.update(vars(n.op))
        nodes.append(node)
    chain = next(nodes for kind, nodes in split_into_segments(graph) if kind == "chain")
    return json.dumps({
        "model": {"graph": {"input_shape": list(astuple(graph.input_shape)),
                            "nodes": nodes}},
        "hardware": asdict(HardwareConfig()),
        "schedule": {
            "attention": {n.id: {"t_q": 2, "t_k": 4, "mode": "streaming_kv"}
                          for n in graph.nodes if isinstance(n.op, Attention)},
            "fusion": {"0": [{"start": 0, "end": len(chain) - 1, "tile": [4, 4],
                              "policy": "recompute"}]},
            "pruning": {"theta_attn": 0.01, "theta_act": 0.001, "granularity": "element"}},
        "seed": 0, "tolerance": 1e-6})


def locate(config: dict, part: str, node_id: str | None) -> tuple[dict, str]:
    """The object of ``config`` that holds ``part``'s fields, and the prefix of their
    names in error messages."""
    if part == "top level":
        return config, ""
    if node_id is not None:
        node = next(n for n in config["model"]["graph"]["nodes"] if n["id"] == node_id)
        return node, f"graph node {node_id!r} field "
    if part == "hardware":
        return config["hardware"], "hardware."
    if part == "schedule.fusion group":
        return config["schedule"]["fusion"]["0"][0], "schedule.fusion group "
    if part == "schedule.attention":
        layer = next(iter(config["schedule"]["attention"]))
        return config["schedule"]["attention"][layer], f"{layer}: schedule.attention."
    return config["schedule"][part.split(".")[1]], f"{part}."


def run(config: dict, tmp: Path) -> tuple[int, str, str]:
    path = tmp / "config.json"
    path.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["run", "--config", str(path)])
    return code, out.getvalue(), err.getvalue()


def result(out: str) -> dict:
    """What a run reports, without the hardware and seed each report echoes."""
    data = json.loads(out)
    kept = {k: data[k] for k in ("report", "schedule", "pruning", "adjusted_report")}
    for key in ("report", "adjusted_report"):
        kept[key] = {k: v for k, v in kept[key].items() if k not in ("hardware", "seed")}
    return kept


def bad_values(f, kind, derived=MISSING) -> st.SearchStrategy:
    """Values of field ``f`` (annotated ``kind``) outside its bounds or of a wrong type,
    or, for a derived field, other than its ``derived`` value."""
    least, most = f.metadata.get("least"), f.metadata.get("most")
    wrong = [True, False, None, [1], {"a": 1}]
    if kind is bool:
        wrong = [not derived, None, [1], {"a": 1}, 0, 1, "true"]
    elif derived is not MISSING:
        return st.one_of(st.sampled_from(wrong + ["x", 2.5]),
                         st.integers().filter(lambda v: v != derived))
    elif kind in (int, float):
        wrong += ["x"]
        wrong += [least - 1] if least is not None else []
        wrong += [most + 1] if most is not None else []
        wrong += [2.5] if kind is int else [math.nan, math.inf, -math.inf]
        if kind is float and least is not None:
            return st.one_of(st.sampled_from(wrong), st.floats(max_value=least,
                                                               exclude_max=True))
    elif typing.get_origin(kind) is tuple:
        wrong += ["x", 4, [4, 4, 4], [2.5, 4], [True, 4], [4, most + 1]]
    elif isinstance(kind, type) and issubclass(kind, Enum):
        wrong += ["x", 5]
    else:   # a string, or the model (a preset name or an object)
        wrong += [5]
    return st.sampled_from(wrong)


def legal_values(part, f, kind, holder, preset) -> st.SearchStrategy:
    """Legal values of field ``f`` other than its value in ``holder``."""
    base = holder[f.name]
    if (part, f.name) in ACTING:
        return ACTING[part, f.name].filter(lambda v: v != base)
    if f.name == "model":
        return st.just(({"segformer-micro", "pvtv2-micro"} - {preset}).pop())
    if f.name == "residual_of":   # the add's other predecessor
        return st.sampled_from([p for p in holder["preds"] if p != base])
    if typing.get_origin(kind) is tuple:
        return st.lists(st.integers(1, 2 * base[0] + 2), min_size=2, max_size=2).filter(
            lambda v: v != base)
    if isinstance(kind, type) and issubclass(kind, Enum):
        return st.sampled_from([m.value for m in kind if m.value != base])
    if kind is float:
        return st.sampled_from([1 / 8, 1 / 4, 1 / 2, 2, 4, 8]).map(lambda x: base * x)
    least, most = f.metadata.get("least"), f.metadata.get("most")
    top = 2 * base + 2 if most is None else min(most, 2 * base + 2)
    return st.integers(1 if least is None else least, top).filter(lambda v: v != base)


@pytest.mark.parametrize("preset", ["segformer-micro", "pvtv2-micro"])
@settings(max_examples=1, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_every_field_changes_the_result_or_is_rejected(preset, data, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("schema")
    base = json.loads(base_config(preset))
    code, out, err = run(base, tmp)
    assert (code, err) == (0, ""), err
    base_result = result(out)
    # chain 0's one fixed group and the first attention layer's tiling, as run printed
    # them: their derived fields' recomputed values
    units = base_result["schedule"]["units"]
    printed = {"schedule.fusion group": next(u for u in units if u["kind"] == "chain")[
                   "plan"]["groups"][0],
               "schedule.attention": next(u for u in units if u["kind"] == "attention")[
                   "tiling"]}
    for part, (cls, _) in PARTS.items():
        hints = typing.get_type_hints(cls)
        nodes = [n["id"] for n in base["model"]["graph"]["nodes"] if n["kind"] == KINDS.get(part)]
        for f in part_fields(part):
            node_id = data.draw(st.sampled_from(nodes), label=part) if nodes else None
            config = copy.deepcopy(base)
            holder, prefix = locate(config, part, node_id)
            name = prefix + f.name
            derived = printed[part][f.name] if (part, f.name) in DERIVED else MISSING
            holder[f.name] = data.draw(bad_values(f, hints[f.name], derived), label=name)
            code, out, err = run(config, tmp)
            assert (code, out) == (1, ""), (name, holder[f.name], err)
            assert name in err, (name, holder[f.name], err)
            if derived is not MISSING:
                holder[f.name] = derived
                code, out, err = run(config, tmp)
                assert (code, err) == (0, "") and result(out) == base_result, (name, err)
            if (part, f.name) in EXEMPT:
                continue
            config = copy.deepcopy(base)
            holder, _ = locate(config, part, node_id)
            value = data.draw(legal_values(part, f, hints[f.name], holder, preset),
                              label=f"legal {name}")
            holder[f.name] = value
            if f.name == "mode" and value == "resident_kv":
                del holder["t_k"]   # derived under resident_kv: each layer's N_r
            code, out, err = run(config, tmp)
            assert code in (0, 1, 2, 3), (name, value, err)
            if code == 1:
                assert out == "", (name, value)
            elif code != 2:
                assert result(out) != base_result, (name, value)


if __name__ == "__main__":
    sys.stdout.write(schema_tables())
