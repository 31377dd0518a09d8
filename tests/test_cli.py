import contextlib
import importlib.util
import io
import json
import re
import sys
import tempfile
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convformer_sim import cli, pipeline, workload
from convformer_sim.errors import ConfigError, SelfCheckError
from convformer_sim.hwmodel import Txn
from convformer_sim.layer_fusion import split_into_segments
from convformer_sim.workload import GELU, PRESETS, build_preset, reference_execute


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, cfg, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def one_conv_graph(input_shape=(1, 4, 8, 8), **fields):
    """A model with one 3x3 conv node ``c1``; ``fields`` override or add keys."""
    node = {"id": "c1", "kind": "conv2d", "c_in": 4, "c_out": 4, "k": 3, **fields}
    return {"graph": {"input_shape": list(input_shape), "nodes": [node]}}


def mha_graph(heads, d_head):
    """A model with one attention node ``mha`` on a 4x4 map."""
    node = {"id": "mha", "kind": "attention", "heads": heads, "d_head": d_head}
    return {"graph": {"input_shape": [1, heads * d_head, 4, 4], "nodes": [node]}}


def two_node_graph(second, input_shape=(1, 4, 8, 8)):
    """``one_conv_graph`` plus a ``second`` node (id ``g`` unless given)."""
    model = one_conv_graph(input_shape)
    model["graph"]["nodes"].append({"id": "g", **second})
    return model


class TestExitCodes:
    def test_ok_run(self, capsys):
        code, out, _ = run_cli(["run", "--model", "toy-chain"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["max_abs_deviation"] == 0.0
        assert data["report"]["hardware"]["scratchpad_bytes"] == 256 * 1024
        assert data["report"]["seed"] == 0

    def test_config_error_bad_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(["run", "--config", str(path)], capsys)
        assert code == 1
        assert "line" in err  # diagnostic carries a position

    def test_config_error_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schedule": {"attention": "sideways"}})
        code, _, err = run_cli(["run", "--config", cfg], capsys)
        assert code == 1
        assert "schedule.attention" in err

    def test_config_error_unknown_preset(self, capsys):
        code, _, err = run_cli(["run", "--model", "bogus"], capsys)
        assert code == 1

    def test_config_error_unknown_flag(self, capsys):
        code, _, _ = run_cli(["run", "--model", "toy-chain", "--frobnicate"], capsys)
        assert code == 1

    def test_infeasible_exit(self, capsys):
        code, _, err = run_cli(["run", "--model", "toy-chain",
                                "--hw.scratchpad_bytes=64"], capsys)
        assert code == 2
        assert "infeasible" in err

    def test_equivalence_exit(self, tmp_path, capsys):
        # a multi-block streaming schedule reorders sums, so with tolerance 0
        # the tiny residual deviation must trip the equivalence gate
        cfg = write_config(tmp_path, {
            "model": "segformer-micro",
            "schedule": {"attention": {"t_q": 2, "t_k": 2, "mode": "streaming_kv"}},
        })
        code, _, err = run_cli(["run", "--config", cfg, "--tolerance", "0"], capsys)
        assert code == 3
        assert "equivalence" in err
        code, _, _ = run_cli(["run", "--config", cfg], capsys)
        assert code == 0  # default 1e-6 tolerance passes


class TestDeterminism:
    def test_run_byte_identical(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            code, _, _ = run_cli(["run", "--model", "segformer-micro",
                                  "--seed", "5", "--out", str(out)], capsys)
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sweep_byte_identical(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            code, _, _ = run_cli(["sweep", "--model", "toy-chain",
                                  "--axis", "scratchpad_bytes",
                                  "--values", "8192,65536,1048576",
                                  "--format", "csv", "--out", str(out)], capsys)
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_different_seed_changes_deviation_not_cost(self, tmp_path, capsys):
        reports = []
        for seed in ("1", "2"):
            out = tmp_path / f"{seed}.json"
            run_cli(["run", "--model", "segformer-micro", "--seed", seed,
                     "--out", str(out)], capsys)
            reports.append(json.loads(out.read_text()))
        assert reports[0]["report"]["ema_bytes"] == reports[1]["report"]["ema_bytes"]
        assert reports[0]["report"]["seed"] == 1


class TestHwOverrides:
    def test_override_applies_and_is_recorded(self, capsys):
        code, out, _ = run_cli(["run", "--model", "toy-chain",
                                "--hw.e_dram=200", "--hw.pe_count=64"], capsys)
        assert code == 0
        hwd = json.loads(out)["report"]["hardware"]
        assert hwd["e_dram"] == 200.0 and hwd["pe_count"] == 64

    def test_flag_beats_config_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": "toy-chain",
                                      "hardware": {"pe_count": 32}})
        code, out, _ = run_cli(["run", "--config", cfg, "--hw.pe_count=128"], capsys)
        assert json.loads(out)["report"]["hardware"]["pe_count"] == 128

    def test_invalid_override_rejected(self, capsys):
        code, _, _ = run_cli(["run", "--model", "toy-chain",
                              "--hw.e_dram=0.5", "--hw.e_sram=1.0"], capsys)
        assert code == 1


class TestCompare:
    def test_tiled_attention_beats_untiled(self, capsys):
        code, out, _ = run_cli(["compare", "--model", "segformer-micro",
                                "--schedules", "naive,tiling"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert rows[1]["ema_bytes"] < rows[0]["ema_bytes"]
        assert rows[0]["ema_bytes_norm"] == 1.0

    def test_fused_beats_singleton(self, capsys):
        code, out, _ = run_cli(["compare", "--model", "toy-chain",
                                "--schedules", "naive,fusion"], capsys)
        rows = json.loads(out)
        assert rows[1]["ema_bytes"] <= rows[0]["ema_bytes"]

    def test_identical_schedules_identical_rows(self, capsys):
        code, out, _ = run_cli(["compare", "--model", "toy-chain",
                                "--schedules", "full,full"], capsys)
        rows = json.loads(out)
        a = {k: v for k, v in rows[0].items() if k != "schedule"}
        b = {k: v for k, v in rows[1].items() if k != "schedule"}
        assert a == b
        assert rows[1]["ema_bytes_norm"] == 1.0

    def test_compare_needs_two(self, capsys):
        code, _, _ = run_cli(["compare", "--model", "toy-chain",
                              "--schedules", "full"], capsys)
        assert code == 1

    @pytest.mark.parametrize("field, value", [
        ("attention", {"t_q": 4, "t_k": 2, "mode": "streaming_kv"}),
        ("attention", "baseline"),
        ("fusion", "singleton"),
        ("fusion", {"0": [{"start": 0, "end": 1, "tile": [8, 8]}]}),
        ("pruning", {"theta_attn": 0.01}),
    ])
    def test_schedule_section_rejected(self, field, value, tmp_path, capsys):
        # each named schedule sets its own attention and fusion and no
        # pruning, so a configured one used to be dropped without a word
        cfg = write_config(tmp_path, {"model": "pvtv2-micro", "schedule": {field: value}})
        code, out, err = run_cli(["compare", "--config", cfg,
                                  "--schedules", "naive,full"], capsys)
        assert code == 1
        assert f"schedule.{field}" in err
        assert out == ""

    def test_default_schedule_section_accepted(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": "toy-chain", "schedule": {
            "attention": "auto", "fusion": "auto", "pruning": "off"}})
        code, out, _ = run_cli(["compare", "--config", cfg,
                                "--schedules", "naive,full"], capsys)
        assert code == 0
        code, out_model, _ = run_cli(["compare", "--model", "toy-chain",
                                      "--schedules", "naive,full"], capsys)
        assert out == out_model


class TestSweep:
    def test_scratchpad_sweep_ema_nonincreasing(self, capsys):
        code, out, _ = run_cli(["sweep", "--model", "segformer-micro",
                                "--axis", "scratchpad_bytes",
                                "--values", "8192,16384,65536,262144,1048576"],
                               capsys)
        assert code == 0
        emas = [r["ema_bytes"] for r in json.loads(out)]
        assert all(a >= b for a, b in zip(emas, emas[1:]))

    def test_theta_zero_matches_pruning_off(self, capsys):
        code, out, _ = run_cli(["sweep", "--model", "segformer-micro",
                                "--axis", "theta_attn", "--values", "0"], capsys)
        row = json.loads(out)[0]
        code2, out2, _ = run_cli(["run", "--model", "segformer-micro"], capsys)
        base = json.loads(out2)["report"]
        assert row["skipped_macs"] == 0
        for key in ("ema_bytes", "macs", "cycles", "energy_pj"):
            assert row[key] == base[key]

    def test_empty_values_errors(self, capsys):
        code, _, _ = run_cli(["sweep", "--model", "toy-chain",
                              "--axis", "theta_attn", "--values", ""], capsys)
        assert code == 1

    def test_bad_axis_errors(self, capsys):
        code, _, err = run_cli(["sweep", "--model", "toy-chain",
                                "--axis", "voltage", "--values", "1"], capsys)
        assert code == 1
        assert "axis" in err

    def test_tq_sweep(self, capsys):
        code, out, _ = run_cli(["sweep", "--model", "segformer-micro",
                                "--axis", "t_q", "--values", "1,2,4"], capsys)
        assert code == 0
        assert len(json.loads(out)) == 3

    def test_tq_need_not_divide_n(self, capsys):
        # the sweep used to demand that t_q divide N, a rule run does not have
        code, out, err = run_cli(["sweep", "--model", "pvtv2-micro",
                                  "--axis", "t_q", "--values", "3"], capsys)
        assert code == 0, err
        assert json.loads(out)[0]["value"] == 3

    def test_tq_out_of_range(self, capsys):
        code, out, err = run_cli(["sweep", "--model", "segformer-micro",
                                  "--axis", "t_q", "--values", "0"], capsys)
        assert code == 1
        assert "t_q=0 out of" in err
        assert out == ""

    def test_tq_out_of_range_names_field_and_layer(self, capsys):
        # the message used to be "tiling: t_q=64 out of [1, 16]"
        code, out, err = run_cli(["sweep", "--model", "pvtv2-micro",
                                  "--axis", "t_q", "--values", "4,64"], capsys)
        assert code == 1
        assert "s2b0_attn: schedule.attention.t_q=64 out of [1, 16]" in err
        assert out == ""


class TestFixedSchedules:
    def test_fixed_fusion_plan(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model": "toy-chain",
            "schedule": {"fusion": {"0": [
                {"start": 0, "end": 1, "tile": [8, 8], "policy": "recompute"},
                {"start": 2, "end": 3, "tile": [16, 16], "policy": "cache"},
            ]}},
        })
        code, out, _ = run_cli(["run", "--config", cfg], capsys)
        assert code == 0
        data = json.loads(out)
        plan = data["schedule"]["units"][0]["plan"]
        assert [g["start"] for g in plan["groups"]] == [0, 2]
        assert plan["groups"][0]["policy"] == "recompute"
        assert plan["groups"][1]["policy"] == "cache"
        assert data["max_abs_deviation"] <= 1e-12

    def test_fixed_fusion_gap_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model": "toy-chain",
            "schedule": {"fusion": {"0": [
                {"start": 0, "end": 1, "tile": [8, 8]},
                {"start": 3, "end": 3, "tile": [8, 8]},
            ]}},
        })
        code, _, err = run_cli(["run", "--config", cfg], capsys)
        assert code == 1
        assert "cover" in err

    def test_fixed_fusion_bad_policy(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model": "toy-chain",
            "schedule": {"fusion": {"0": [
                {"start": 0, "end": 3, "tile": [8, 8], "policy": "teleport"},
            ]}},
        })
        code, _, err = run_cli(["run", "--config", cfg], capsys)
        assert code == 1

    def test_fixed_attention_tiling(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model": "segformer-micro",
            "schedule": {"attention": {"t_q": 4, "mode": "resident_kv"}},
        })
        code, out, _ = run_cli(["run", "--config", cfg], capsys)
        assert code == 0
        units = json.loads(out)["schedule"]["units"]
        tilings = [u["tiling"] for u in units if u["kind"] == "attention"]
        assert all(t["t_q"] == 4 and t["mode"] == "resident_kv" for t in tilings)


FIXED_ATTENTION = str(Path(__file__).parent / "golden" / "fixed-attention.json")


def test_tq_sweep_row_equals_run_on_streaming_config(capsys):
    # the sweep used to replace a configured streaming tiling by a resident one
    code, out, _ = run_cli(["run", "--config", FIXED_ATTENTION], capsys)
    assert code == 0
    run = json.loads(out)
    code, out, _ = run_cli(["sweep", "--config", FIXED_ATTENTION, "--axis", "t_q",
                            "--values", "4"], capsys)
    assert code == 0
    row, = json.loads(out)
    for key in ("ema_bytes", "macs", "cycles", "energy_pj"):
        assert row[key] == run["report"][key], key
    assert row["max_abs_deviation"] == run["max_abs_deviation"]


def test_sweep_non_numeric_values(capsys):
    code, _, err = run_cli(["sweep", "--model", "toy-chain", "--axis",
                            "theta_attn", "--values", "a,b"], capsys)
    assert code == 1
    assert "numeric" in err


def test_unwritable_output_path(capsys):
    code, _, err = run_cli(["run", "--model", "toy-chain",
                            "--out", "/nonexistent-dir/x.json"], capsys)
    assert code == 1


def test_presets_listing(capsys):
    code, out, _ = run_cli(["presets"], capsys)
    assert code == 0
    names = [p["name"] for p in json.loads(out)]
    assert "segformer-micro" in names and "toy-chain" in names


def test_inline_graph_model(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"graph": {
            "input_shape": [1, 4, 8, 8],
            "nodes": [
                {"id": "c1", "kind": "conv2d", "c_in": 4, "c_out": 4, "k": 3,
                 "stride": 1, "pad": 1},
                {"id": "c2", "kind": "conv2d", "c_in": 4, "c_out": 4, "k": 3,
                 "stride": 1, "pad": 1, "preds": ["c1"]},
            ],
        }},
    })
    code, out, _ = run_cli(["run", "--config", cfg], capsys)
    assert code == 0
    assert json.loads(out)["max_abs_deviation"] <= 1e-9


def test_pruning_config_produces_adjusted_report(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": "segformer-micro",
        "schedule": {"pruning": {"theta_attn": 0.02, "theta_act": 0.001}},
    })
    code, out, _ = run_cli(["run", "--config", cfg], capsys)
    assert code == 0
    data = json.loads(out)
    assert "adjusted_report" in data and "pruning" in data
    assert data["adjusted_report"]["macs"] < data["report"]["macs"]
    assert data["adjusted_report"]["energy_pj"] < data["report"]["energy_pj"]


def test_csv_run_format(capsys):
    code, out, _ = run_cli(["run", "--model", "toy-chain", "--format", "csv"],
                           capsys)
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert "ema_bytes" in lines[0]


class TestEquivalenceAndSelfCheckExit:
    """Exit 3 applies to every unpruned result, after the output is written."""

    def test_compare_applies_tolerance(self, capsys):
        code, out, err = run_cli(["compare", "--model", "pvtv2-micro",
                                  "--schedules", "naive,full",
                                  "--tolerance=1e-30"], capsys)
        assert code == 3
        assert len(json.loads(out)) == 2
        assert "equivalence failure" in err

    def test_sweep_applies_tolerance(self, capsys):
        code, out, err = run_cli(["sweep", "--model", "pvtv2-micro", "--axis",
                                  "scratchpad_bytes", "--values", "65536",
                                  "--tolerance=1e-30"], capsys)
        assert code == 3
        assert len(json.loads(out)) == 1
        assert "equivalence failure" in err

    def test_pruned_sweep_rows_are_exempt(self, capsys):
        config = Path(__file__).parent.parent / "configs" / "pruning_sweep.json"
        code, _, _ = run_cli(["sweep", "--config", str(config),
                              "--axis", "theta_attn", "--values", "0",
                              "--tolerance=1e-30"], capsys)
        assert code == 0

    def test_self_check_failure_names_both_counts(self, monkeypatch, capsys):
        # one unit of many is off: the check runs per unit and names it
        code, out, _ = run_cli(["run", "--model", "pvtv2-micro"], capsys)
        rows = json.loads(out)["report"]["breakdown"]
        ema = next(r["ema_bytes"] for r in rows if r["unit"] == "s0b0_attn")
        real = pipeline.unit_cost

        def off_by_one(graph, unit, hw):
            row = real(graph, unit, hw)
            if row["unit"] == "s0b0_attn":
                row["ema_bytes"] += 1
            return row

        monkeypatch.setattr(pipeline, "unit_cost", off_by_one)
        code, _, err = run_cli(["run", "--model", "pvtv2-micro"], capsys)
        assert code == 3
        assert "self-check" in err and "s0b0_attn" in err
        assert f"{ema + 1} B" in err and f"{ema} B" in err

    @pytest.mark.parametrize("txns, message", [
        # exited 1 as "error: region 'add_a' is not live"
        ([Txn("load", "add_a", 1)], "region 'add_a' is not live"),
        # a count beyond its region was a ValueError traceback
        ([Txn("alloc", "add_a", 1), Txn("load", "add_a", 2), Txn("free", "add_a", 0)],
         "2 B exceeds region 'add_a' size 1 B"),
    ])
    def test_simulator_rule_violation_exits_3(self, txns, message, monkeypatch, capsys):
        # a schedule that breaks the simulator's rules is a failed self-check
        monkeypatch.setattr(pipeline, "_add_pass", lambda elems, hw: txns)
        code, out, err = run_cli(["run", "--model", "segformer-micro"], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("self-check failure: ") and message in err

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_reference_output_exits_1(self, monkeypatch, capsys):
        # exited 1, but as "error: ..." rather than a config error
        def all_inf(graph, seed):
            return np.full(workload.seeded_input(graph, seed).shape, np.inf)

        monkeypatch.setattr(cli, "seeded_input", all_inf)
        code, out, err = run_cli(["run", "--model", "toy-chain"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("config error: non-finite values produced at node c0")


@pytest.mark.parametrize("argv, field", [
    (["--hw.e_dram=nan"], "hardware.e_dram"),
    (["--hw.e_dram=inf"], "hardware.e_dram"),
    (["--hw.scratchpad_bytes=1.5"], "hardware.scratchpad_bytes"),
    (["--seed=-1"], "seed"),
    (["--tolerance=nan"], "tolerance"),
    (["--tolerance=-1"], "tolerance"),
    # finite, but the priced energy overflowed: Infinity on stdout with exit 0
    (["--hw.e_dram=1e308"], "hardware.e_dram"),
    (["--hw.e_mac=1e308"], "hardware.e_mac"),
    # huge element widths overflowed the fusion cost table before its int64
    # guard (an OverflowError traceback); a later --model wins
    *(([*model, f"--hw.element_bytes={eb}"], f"{layer}: fusion cost table exceeds int64")
      for model, layer in (([], "c0"), (["--model", "segformer-micro"], "stem"))
      for eb in (10**18, 10**19)),
    # integers too long for a float: the finiteness check raised OverflowError
    *(([f"--{flag}={10**400}"], f"{name} must be at most 1.798e+308, got 401 digits")
      for flag, name in (("hw.element_bytes", "hardware.element_bytes"),
                         ("hw.scratchpad_bytes", "hardware.scratchpad_bytes"),
                         ("hw.pe_count", "hardware.pe_count"),
                         ("hw.dram_bytes_per_cycle", "hardware.dram_bytes_per_cycle"),
                         ("seed", "seed"))),
])
def test_bad_number_exits_1_naming_field(argv, field, capsys):
    # in-process: a traceback would surface as an uncaught exception here
    code, out, err = run_cli(["run", "--model", "toy-chain", *argv], capsys)
    assert code == 1
    assert field in err
    assert out == ""
    assert "Traceback" not in err


def test_energy_overflow_in_compare_exits_1(capsys):
    # printed Infinity energies and a NaN energy_pj_norm with exit 0
    code, out, err = run_cli(["compare", "--model", "toy-chain", "--schedules", "naive,full",
                              "--hw.e_dram=1e308"], capsys)
    assert (code, out) == (1, "")
    assert "hardware.e_dram" in err


def test_infeasible_sweep_row_names_layer(capsys):
    # the first row is infeasible; the second row's bad threshold is never
    # reached, so the exit is 2 (not 1) and stderr names the layer
    config = Path(__file__).parent.parent / "configs" / "pruning_sweep.json"
    code, out, err = run_cli(["sweep", "--config", str(config),
                              "--hw.scratchpad_bytes=1024", "--axis",
                              "theta_attn", "--values=0.01,-1"], capsys)
    assert code == 2
    assert out == ""
    assert "s0_down" in err


@pytest.mark.parametrize("command, model, schedule, capacity, node, deficit", [
    # the search named the dims, not the layer, and no requirement
    ("run", mha_graph(1, 64), {}, 200, "mha", 59),
    # a fixed tiling over capacity named no layer
    ("run", mha_graph(1, 16), {"attention": {"t_q": 16, "mode": "resident_kv"}}, 700,
     "mha", 324),
    # a baseline core was not checked at plan time; the replay named region 'S'
    ("run", mha_graph(1, 16), {"attention": "baseline"}, 700, "mha", 68),
    ("compare", "segformer-micro", {}, 2048, "s0b0_attn", 3136),
    # projection weights over capacity named only region 'attnQ_w'
    ("run", mha_graph(8, 8), {}, 1000, "mha", 3096),
    # a fixed fusion group over capacity named no layer
    ("run", "toy-chain", {"fusion": {"0": [{"start": 0, "end": 3, "tile": [16, 16]}]}},
     2048, "c0,c1,c2,c3", 2632),
])
def test_infeasible_exits_2_naming_node_and_deficit(command, model, schedule, capacity,
                                                    node, deficit, tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": model, "schedule": schedule})
    argv = [command, "--config", cfg, f"--hw.scratchpad_bytes={capacity}"]
    if command == "compare":
        argv.append("--schedules=naive,full")
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert node in err
    assert f"deficit {deficit} B" in err
    assert out == ""


@pytest.mark.parametrize("axis, value", [("scratchpad_bytes", "65536.7"),
                                         ("t_q", "2.5"), ("t_q", "0")])
def test_sweep_rejects_fractional_integer_axis(axis, value, capsys):
    code, out, err = run_cli(["sweep", "--model", "segformer-micro", "--axis",
                              axis, "--values", value], capsys)
    assert code == 1
    assert axis in err
    assert out == ""


@pytest.mark.parametrize("tile", [[0, 4], [-2, 4], [4, 0]])
def test_fixed_fusion_tile_extent_below_one_rejected(tile, tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": "toy-chain",
        "schedule": {"fusion": {"0": [
            {"start": 0, "end": 3, "tile": tile, "policy": "recompute"},
        ]}},
    })
    code, out, err = run_cli(["run", "--config", cfg], capsys)
    assert code == 1
    assert "schedule.fusion group" in err and "tile extents" in err
    assert out == ""


def test_pruning_analyzes_attention_on_network_input(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"graph": {
            "input_shape": [1, 8, 4, 4],
            "nodes": [
                {"id": "attn", "kind": "attention", "heads": 2, "d_head": 4},
                {"id": "fc", "kind": "linear", "c_in": 8, "c_out": 8,
                 "preds": ["attn"]},
            ],
        }},
        "schedule": {"pruning": {"theta_attn": 0.5, "theta_act": 0.0}},
    })
    code, out, _ = run_cli(["run", "--config", cfg], capsys)
    assert code == 0
    rows = json.loads(out)["pruning"]
    assert [(r["node"], r["point"]) for r in rows] == [("attn", "attention")]
    assert rows[0]["skipped_macs"] > 0


def test_tq_sweep_without_attention_exits_1(capsys):
    # each value used to run the same report (ema_bytes 6432 on every row)
    code, out, err = run_cli(["sweep", "--model", "toy-chain", "--axis", "t_q",
                              "--values", "1,2,3"], capsys)
    assert code == 1
    assert "schedule.attention fixes a tiling, but the graph has no attention" in err
    assert out == ""


@pytest.mark.parametrize("axis", ["theta_attn", "theta_act"])
def test_sweep_rejects_non_finite_threshold(axis, capsys):
    # 1e400 parses as inf; it used to reach the report as "value": Infinity
    config = Path(__file__).parent.parent / "configs" / "pruning_sweep.json"
    code, out, err = run_cli(["sweep", "--config", str(config), "--axis", axis,
                              "--values", "1e400"], capsys)
    assert code == 1
    assert f"{axis} must be finite" in err
    assert out == ""


@pytest.mark.parametrize("model, schedule, field", [
    # non-finite or missing thresholds used to run (NaN reached the report)
    ("pvtv2-micro", {"pruning": {"theta_attn": float("nan"), "theta_act": 0.001}},
     "schedule.pruning.theta_attn must be finite"),
    ("pvtv2-micro", {"pruning": {"theta_act": float("inf")}},
     "schedule.pruning.theta_act must be finite"),
    ("pvtv2-micro", {"pruning": {"theta_attn": None}},
     "schedule.pruning.theta_attn must be a number"),
    # fractional integers used to be truncated (t_q 2.9 ran as 2)
    ("pvtv2-micro", {"attention": {"t_q": 2.9, "mode": "resident_kv"}},
     "schedule.attention.t_q must be an integer"),
    ("toy-chain", {"fusion": {"0": [{"start": 0, "end": 3.7, "tile": [4, 4]}]}},
     "schedule.fusion group end must be an integer"),
    ("toy-chain", {"fusion": {"0": [{"start": 0, "end": 3, "tile": [4.9, 4]}]}},
     "schedule.fusion group tile must be an integer"),
    # a chain's groups must be a list (an int was a TypeError traceback)
    ("toy-chain", {"fusion": {"0": 5}}, "schedule.fusion must be"),
    # a key naming no chain used to be ignored (the singleton plan ran)
    ("toy-chain", {"fusion": {"9": [{"start": 0, "end": 3, "tile": [4, 4]}]}},
     "schedule.fusion names no chain ['9']"),
    # graph integer fields were truncated by int() (k 3.9 ran as a 3x3 conv),
    # and a non-numeric one was a ValueError traceback
    (one_conv_graph(k=3.9), {}, "graph node 'c1' field k must be an integer, got 3.9"),
    (one_conv_graph(stride="x"), {}, "graph node 'c1' field stride must be an integer"),
    (one_conv_graph(input_shape=(1, 4, 8.5, 8)), {}, "graph input_shape must be an integer"),
    # a wrong-length input_shape was a TypeError traceback
    (one_conv_graph(input_shape=(4, 8, 8)), {}, "input_shape must be [n, c, h, w]"),
    # config parts of the wrong JSON type were TypeError tracebacks, and a
    # string preds was split into characters (predecessor 'c' undefined)
    (5, {}, "model must be an object, got 5"),
    ({"graph": 5}, {}, "graph must be an object, got 5"),
    ({"graph": {"input_shape": [1, 4, 8, 8], "nodes": 5}}, {},
     "graph nodes must be a list, got 5"),
    ({"graph": {"input_shape": [1, 4, 8, 8], "nodes": [5]}}, {},
     "graph node must be an object, got 5"),
    ({"graph": {"input_shape": 4, "nodes": []}}, {}, "graph input_shape must be a list, got 4"),
    (one_conv_graph(preds="c1"), {}, "graph node 'c1' field preds must be a list, got 'c1'"),
    # resident K/V are whole, so t_k is each layer's N_r; a given t_k was ignored
    *(("pvtv2-micro", {"attention": {"t_q": 4, "t_k": t_k, "mode": "resident_kv"}},
       "schedule.attention.t_k is not allowed with resident_kv") for t_k in (1, 3, 999)),
    # out-of-range sizes named neither the field nor the layer ("tiling: t_k=5 ...")
    ("pvtv2-micro", {"attention": {"t_q": 64, "mode": "resident_kv"}},
     "s2b0_attn: schedule.attention.t_q=64 out of [1, 16]"),
    ("pvtv2-micro", {"attention": {"t_q": 4, "t_k": 5, "mode": "streaming_kv"}},
     "s0b0_attn: schedule.attention.t_k=5 out of [1, 4]"),
    # the executors run one image: batch 2 failed the self-check after an
    # add, and after a gelu it reported twice the vector ops of one image
    *((two_node_graph(second, input_shape=(2, 4, 8, 8)), {},
       "graph input_shape must be [n, c, h, w] with n = 1, got [2, 4, 8, 8]")
      for second in ({"kind": "add", "residual_of": "c1", "preds": ["c1", "c1"]},
                     {"kind": "gelu", "preds": ["c1"]})),
    # groups 0 was a ZeroDivisionError and -2 a ValueError traceback
    (one_conv_graph(groups=0), {}, "graph node 'c1' field groups must be >= 1, got 0"),
    (one_conv_graph(groups=-2), {}, "graph node 'c1' field groups must be >= 1, got -2"),
    # a reduction window larger than the map was a zero-size-array traceback
    ({"graph": {"input_shape": [1, 8, 4, 4], "nodes": [
        {"id": "a1", "kind": "attention", "heads": 2, "d_head": 4, "sr_ratio": 8}]}}, {},
     "a1: field sr_ratio 8 exceeds the 4x4 input map"),
    # a repeated id was a KeyError: 'w' traceback
    (two_node_graph({"id": "c1", "kind": "gelu", "preds": ["c1"]}), {},
     "c1: field id is already used by an earlier node"),
    # a negative pad ran as a crop
    (one_conv_graph(input_shape=(1, 4, 6, 6), k=1, pad=-1), {},
     "graph node 'c1' field pad must be >= 0, got -1"),
    # a second input to a one-input layer was ignored
    (two_node_graph({"kind": "gelu", "preds": ["c1", "c1"]}), {},
     "g: field preds names 2 inputs; only an add takes two"),
    # k 0 did not name the node ("conv2d: k and stride must be >= 1")
    (one_conv_graph(k=0), {}, "graph node 'c1' field k must be >= 1, got 0"),
    # nor did groups that divide neither channel count
    (one_conv_graph(groups=3), {},
     "graph node 'c1': conv2d: groups must divide c_in and c_out"),
    # a fixed tiling on a graph without attention was ignored (the auto report ran)
    ("toy-chain", {"attention": {"t_q": 4, "mode": "resident_kv"}},
     "schedule.attention fixes a tiling, but the graph has no attention"),
    # a huge channel count overflowed the fusion cost table before its int64 guard
    (one_conv_graph(input_shape=(1, 10**19, 4, 4), c_in=10**19, pad=1), {},
     "c1: fusion cost table exceeds int64"),
    # the table's bound overflowed a float (weights of 10**400 elements)
    (one_conv_graph(input_shape=(1, 10**200, 4, 4), c_in=10**200, c_out=10**200, pad=1), {},
     "c1: fusion cost table exceeds int64 (bound over 1e+308)"),
    # an integer too long for a float was an OverflowError traceback
    (one_conv_graph(pad=10**400), {}, "graph node 'c1' field pad must be at most 1.798e+308"),
    ("toy-chain", {"fusion": {"0": [{"start": 0, "end": 3, "tile": [10**400, 4]}]}},
     "schedule.fusion group tile must be at most 1.798e+308"),
])
def test_bad_schedule_field_exits_1_naming_it(model, schedule, field, tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": model, "schedule": schedule})
    code, out, err = run_cli(["run", "--config", cfg], capsys)
    assert code == 1
    assert field in err
    assert out == ""


@pytest.mark.parametrize("config, key", [
    ({"schedul": {}}, "unknown config field(s): ['schedul']"),
    ({"model": {"preset": "toy-chain", "grpah": {}}}, "unknown model field(s): ['grpah']"),
    ({"schedule": {"pruninng": "off"}}, "unknown schedule field(s): ['pruninng']"),
    ({"schedule": {"pruning": {"theta_atn": 0.5}}},
     "unknown schedule.pruning field(s): ['theta_atn']"),
    ({"schedule": {"attention": {"t_q": 4, "t_k": 4, "mode": "resident_kv",
                                 "element_bytes": 2}}},
     "unknown schedule.attention field(s): ['element_bytes']"),
    ({"schedule": {"fusion": {"0": [{"start": 0, "end": 3, "tile": [4, 4],
                                     "polcy": "cache"}]}}},
     "unknown schedule.fusion group field(s): ['polcy']"),
    # cascading was never wired: every value ran the same first-consumer count
    *(({"schedule": {"pruning": {"cascade_enabled": value}}},
       "unknown schedule.pruning field(s): ['cascade_enabled']")
      for value in (True, False, "false")),
    # graph dicts were never checked ("strde" ran as stride 1)
    ({"model": one_conv_graph(strde=2)}, "unknown graph node 'c1' field(s): ['strde']"),
    ({"model": one_conv_graph(residual_of="c0")},
     "unknown graph node 'c1' field(s): ['residual_of']"),
    ({"model": {"graph": {**one_conv_graph()["graph"], "input": [1, 4, 8, 8]}}},
     "unknown graph field(s): ['input']"),
    # a non-object hardware part was a TypeError traceback
    ({"hardware": 5}, "hardware must be an object, got 5"),
    ({"hardware": [1]}, "hardware must be an object, got [1]"),
])
def test_unknown_config_key_exits_1_naming_it(config, key, tmp_path, capsys):
    # each of these used to run on the defaults
    code, out, err = run_cli(["run", "--config", write_config(tmp_path, config)], capsys)
    assert code == 1
    assert key in err
    assert out == ""


def _shipped_configs():
    """Every config the repository ships or documents, by name."""
    root = Path(__file__).parent.parent
    configs = {p.name: json.loads(p.read_text())
               for p in [*root.glob("configs/*.json"), *root.glob("tests/golden/*.json")]
               if p.name != "exit_codes.json"}
    readme = (root / "README.md").read_text()
    for i, block in enumerate(re.findall(r"```json\n(.*?)```", readme, re.S)):
        configs[f"README block {i}"] = json.loads(block)
    spec = importlib.util.spec_from_file_location("b0graph", root / "perfbench" / "b0graph.py")
    b0graph = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(b0graph)
    configs["b0_config"] = b0graph.b0_config(0)
    return configs


def test_shipped_configs_load(tmp_path):
    configs = _shipped_configs()
    assert len(configs) >= 6
    for name, config in configs.items():
        path = write_config(tmp_path, config)
        cfg = cli.load_config(path, cli.make_parser().parse_args(["run"]), {})
        cli.build_graph(cfg.model)
        assert cfg.resolved_dict()["seed"] == config.get("seed", 0), name


# ---------------------------------------------------------------------------
# Random command lines
# ---------------------------------------------------------------------------

# good values repeat so that most examples get past config parsing
HW_VALUES = ("nan", "inf", "-inf", "1.5", "0", "-1", "1e400", "2048", "65536", "65536")
# integers past the int64 range of the fusion cost table, and past a float's
INT_HW_VALUES = HW_VALUES + ("1000000000000000000", "10000000000000000000", str(10**400))
# finite energies whose priced sum can overflow
ENERGY_VALUES = HW_VALUES + ("1e300", "1e308", "1.7976931348623157e308")
# scratchpads small enough that some layer of either model cannot fit (exit 2)
SMALL_SCRATCHPADS = ("1200", "2048", "4096")
THRESHOLDS = (0.0, 0.01, 0.001, 0.5, 0.01, float("nan"), float("inf"), -1, None, "x")
SWEEP_VALUES = {"scratchpad_bytes": ("65536", "8192", "2048", "65536.7", "1e400", "0"),
                "theta_attn": ("0", "0.01", "0.5", "2.5", "1e400", "-1"),
                "theta_act": ("0", "0.01", "0.5", "2.5", "1e400", "-1"),
                "t_q": ("1", "2", "4", "2.5", "1e400", "0")}


@st.composite
def command_lines(draw):
    """(argv, schedule of the config file or None) for run, compare or sweep."""
    command = draw(st.sampled_from(["run", "compare", "sweep"]))
    argv = [command, "--model", draw(st.sampled_from(["toy-chain", "segformer-micro"]))]
    fields = draw(st.lists(st.sampled_from(sorted(cli.HardwareConfig.__dataclass_fields__)),
                           max_size=1))
    for f in fields:
        values = ENERGY_VALUES if f.startswith("e_") else INT_HW_VALUES
        argv.append(f"--hw.{f}={draw(st.sampled_from(values))}")
    if not fields and draw(st.booleans()):
        argv.append(f"--hw.scratchpad_bytes={draw(st.sampled_from(SMALL_SCRATCHPADS))}")
    if draw(st.booleans()):
        argv.append(f"--tolerance={draw(st.sampled_from(['1e-30', '1e-30', 'nan', '1']))}")
    if command == "compare":
        argv.append("--schedules=naive,full")
    if command == "sweep":
        axis = draw(st.sampled_from(cli.SWEEP_AXES))
        values = draw(st.lists(st.sampled_from(SWEEP_VALUES[axis]), min_size=1, max_size=2))
        argv += [f"--axis={axis}", f"--values={','.join(values)}"]
    schedule = {}
    if draw(st.booleans()):
        theta = st.sampled_from(THRESHOLDS)
        schedule["pruning"] = {"theta_attn": draw(theta), "theta_act": draw(theta)}
    if draw(st.booleans()):
        mode = draw(st.sampled_from(["resident_kv", "streaming_kv", "baseline"]))
        schedule["attention"] = {"t_q": draw(st.sampled_from([1, 2, 4, 4, 2.9, 0, "x"])),
                                 "mode": mode}
        if mode == "baseline":
            schedule["attention"] = "baseline"
        elif mode == "streaming_kv":  # resident K/V take no t_k
            schedule["attention"]["t_k"] = draw(st.sampled_from([1, 2, 4, 4, 3.7]))
    if draw(st.booleans()):
        # chain 0 has 4 layers on toy-chain and 2 on segformer-micro
        schedule["fusion"] = {"0": [{"start": 0,
                                     "end": draw(st.sampled_from([1, 3, 3, 3.7])),
                                     "tile": [draw(st.sampled_from([4, 8, 16, 4.9, 0])),
                                              draw(st.sampled_from([4, 8, 16]))]}]}
    return argv, schedule if schedule or draw(st.booleans()) else None


def _no_constant(name):
    raise ValueError(f"{name} in JSON output")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(command_lines())
def test_random_command_lines_exit_cleanly(case):
    """Any command line ends in 0, 1, 2 or 3 without an exception; on 2 stderr
    names a layer and the bytes it lacks; on 0 and 3 stdout is strict JSON,
    and a run uses the fixed tiling and fusion groups its config gives, as
    given."""
    argv, schedule = case
    with tempfile.TemporaryDirectory() as tmp:
        if schedule is not None:
            argv = [*argv, "--config", write_config(Path(tmp), {"schedule": schedule})]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 1, 2, 3), err.getvalue()
    if code == 2:
        nodes = [n.id for n in cli.build_graph(argv[2]).nodes]
        assert any(node in err.getvalue() for node in nodes), err.getvalue()
        m = re.search(r"needs (\d+) B but only (\d+) B available \(deficit (\d+) B\)",
                      err.getvalue())
        assert m and int(m[3]) == int(m[1]) - int(m[2]), err.getvalue()
    if code not in (0, 3):
        return
    data = json.loads(out.getvalue(), parse_constant=_no_constant)
    if argv[0] != "run":
        return
    units = data["schedule"]["units"]
    attention = (schedule or {}).get("attention")
    if attention is not None:
        for tiling in (u["tiling"] for u in units if u["kind"] == "attention"):
            if attention == "baseline":
                assert tiling == "baseline"
                continue
            assert tiling["t_q"] == attention["t_q"]
            if attention["mode"] == "streaming_kv":
                assert tiling["t_k"] == attention["t_k"]
    fusion = (schedule or {}).get("fusion")
    if fusion is not None:
        given_group, = fusion["0"]
        ran, = next(u for u in units if u["kind"] == "chain")["plan"]["groups"]
        assert [ran["start"], ran["end"], ran["tile"]] == \
            [given_group["start"], given_group["end"], given_group["tile"]]


def count_references(monkeypatch):
    """Count the reference runs ``cli`` starts; returns the one-item counter."""
    calls = [0]
    real = cli.reference_execute

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "reference_execute", counted)
    return calls


def test_projection_pass_infeasible_exits_2_before_any_numerics(tmp_path, monkeypatch,
                                                                capsys):
    calls = count_references(monkeypatch)
    cfg = write_config(tmp_path, {"model": mha_graph(8, 8)})
    code, out, err = run_cli(["run", "--config", cfg, "--hw.scratchpad_bytes=1000"], capsys)
    assert code == 2
    assert "mha" in err and "deficit 3096 B" in err
    assert out == ""
    assert calls[0] == 0


@pytest.mark.parametrize("argv", [
    ["compare", "--model", "segformer-micro", "--schedules", "naive,tiling,fusion,full"],
    ["sweep", "--model", "segformer-micro", "--axis", "scratchpad_bytes",
     "--values", "2048,8192,65536,262144"],
    ["sweep", "--config", str(Path(__file__).parent.parent / "configs" / "pruning_sweep.json"),
     "--axis", "theta_attn", "--values", "0,0.01,0.02,0.05"],
])
def test_one_reference_per_command(argv, monkeypatch, capsys):
    calls = count_references(monkeypatch)
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert len(json.loads(out)) == 4
    assert calls[0] == 1


def boundary_ids(graph):
    """The last node of every segment: where unit outputs meet."""
    return {nodes[-1].id for _, nodes in split_into_segments(graph)}


@pytest.mark.parametrize("pruning", [False, True])
@pytest.mark.parametrize("preset", PRESETS)
def test_reference_keeps_boundaries_bit_identical_to_full_record(preset, pruning):
    graph = build_preset(preset)
    params, x, kept = cli.Reference(graph, 3, pruning).tensors
    full = {}
    reference_execute(graph, x, params, record=full)
    gelus = {n.id for n in graph.nodes if isinstance(n.op, GELU)}
    assert set(kept) == boundary_ids(graph) | (gelus if pruning else set())
    assert len(kept) < len(full)
    for node_id, tensor in kept.items():
        assert tensor.dtype == full[node_id].dtype
        assert tensor.tobytes() == full[node_id].tobytes(), node_id


def test_reference_step_frees_non_boundary_outputs(monkeypatch):
    """An output that is not kept is dead once its last consumer has run,
    and every output but the kept ones once the reference step returns."""
    graph = build_preset("pvtv2-micro")
    order = {n.id: i for i, n in enumerate(graph.nodes)}
    last_read = {p: order[n.id] for n in graph.nodes for p in n.preds}
    kept_ids = boundary_ids(graph)
    outputs, stale = {}, []
    real = workload.layer_forward

    def spy(node, inputs, p, *args, **kwargs):
        stale.extend((node.id, k) for k, ref in outputs.items() if ref() is not None
                     and k not in kept_ids and last_read[k] < order[node.id])
        out = real(node, inputs, p, *args, **kwargs)
        outputs[node.id] = weakref.ref(out)
        return out

    monkeypatch.setattr(workload, "layer_forward", spy)
    _, _, kept = cli.Reference(graph, 0, False).tensors
    assert set(kept) == kept_ids
    assert stale == []
    assert set(outputs) == set(order)
    dropped = set(outputs) - kept_ids
    assert dropped
    assert all(outputs[node_id]() is None for node_id in dropped)
    assert all(outputs[node_id]() is not None for node_id in kept_ids)


def test_perturbed_unit_exits_3_naming_it(monkeypatch, capsys):
    real = pipeline.attention_unit_execute

    def perturbed(x, unit, *args):
        out = real(x, unit, *args)
        return out + 1e-3 if unit.node.id == "s1b0_attn" else out

    monkeypatch.setattr(pipeline, "attention_unit_execute", perturbed)
    code, out, err = run_cli(["run", "--model", "pvtv2-micro"], capsys)
    assert code == 3
    assert json.loads(out)["max_abs_deviation"] > 1e-6
    assert err.startswith("equivalence failure: deviation")
    assert "first unit over it: s1b0_attn" in err


def test_empty_graph_runs_with_zero_deviation(tmp_path, capsys):
    # no units: the output is the input, and no unit check runs
    cfg = write_config(tmp_path, {"model": {"graph": {"input_shape": [1, 4, 8, 8],
                                                      "nodes": []}}})
    code, out, _ = run_cli(["run", "--config", cfg], capsys)
    assert code == 0
    assert json.loads(out)["max_abs_deviation"] == 0.0


# ---------------------------------------------------------------------------
# The reference on a worker thread beside the schedule
# ---------------------------------------------------------------------------

PRUNING = str(Path(__file__).parent.parent / "configs" / "pruning_sweep.json")


@pytest.fixture(params=["serial", "overlapped"])
def reference_timing(request, monkeypatch):
    """Each micro preset runs its reference before its schedule; ``overlapped``
    runs every reference beside its schedule."""
    if request.param == "overlapped":
        monkeypatch.setattr(cli, "SERIAL_MAX_ELEMENTS", 0)
    return request.param


def all_inf(graph, seed):
    return np.full(workload.seeded_input(graph, seed).shape, np.inf)


def failing_unit(*args, **kwargs):
    raise SelfCheckError("chain[c0,c1,c2,c3]: planted failure")


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_reference_error_wins_over_a_failing_first_unit(reference_timing, monkeypatch,
                                                         capsys):
    # as if the reference had run to completion before the schedule
    monkeypatch.setattr(cli, "seeded_input", all_inf)
    monkeypatch.setattr(pipeline.lf, "fused_execute", failing_unit)
    code, out, err = run_cli(["run", "--model", "toy-chain"], capsys)
    assert (code, out) == (1, "")
    assert err == "config error: non-finite values produced at node c0\n"


def read_in_thread(ref, node_id, before=lambda: None) -> BaseException | None:
    """Read ``ref[node_id]`` on its own thread, calling ``before`` while the read
    runs; the error it raised, failing the test if it has not ended in 30 s."""
    raised = []

    def read():
        try:
            ref[node_id]
        except BaseException as e:
            raised.append(e)

    reader = threading.Thread(target=read, daemon=True)   # a hung read cannot block exit
    reader.start()
    before()
    reader.join(30)
    assert not reader.is_alive(), f"read of {node_id} did not return"
    return raised[0] if raised else None


def test_read_waiting_on_a_failed_reference_raises_its_error(monkeypatch):
    go = threading.Event()

    def fails_when_told(*args, **kwargs):
        assert go.wait(30)
        raise ConfigError("planted reference failure")

    def fail_while_reading():
        time.sleep(0.05)   # the reader is waiting on an output never stored
        go.set()

    monkeypatch.setattr(cli, "reference_execute", fails_when_told)
    monkeypatch.setattr(cli, "SERIAL_MAX_ELEMENTS", 0)
    ref = cli.Reference(build_preset("toy-chain"), 0, False)
    ref.start()
    error = read_in_thread(ref, "c3", fail_while_reading)
    assert isinstance(error, ConfigError) and str(error) == "planted reference failure"
    with pytest.raises(ConfigError, match="planted reference failure"):
        ref.join()
    assert not ref.worker.is_alive()


def test_read_of_an_output_never_kept_raises_at_once(reference_timing):
    ref = cli.Reference(build_preset("toy-chain"), 0, False)
    ref.start()
    assert isinstance(read_in_thread(ref, "c0"), KeyError)   # not a unit boundary
    ref.join()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("argv, fault, code", [
    (["run", "--model", "toy-chain"], None, 0),
    (["run", "--config", PRUNING], None, 0),
    (["compare", "--model", "pvtv2-micro"], None, 0),
    (["sweep", "--config", PRUNING, "--axis", "theta_attn", "--values", "0,0.01"], None, 0),
    (["run", "--model", "toy-chain", "--hw.scratchpad_bytes=256"], None, 2),
    (["run", "--model", "toy-chain"], "reference", 1),
    (["run", "--model", "toy-chain"], "unit", 3),
    (["run", "--model", "toy-chain"], "both", 1),
    (["compare", "--model", "toy-chain"], "both", 1),
    (["run", "--model", "pvtv2-micro", "--tolerance", "0"], "perturbed", 3),
], ids=["run", "pruned-run", "compare", "sweep", "plan-error", "reference-error",
        "unit-error", "both-errors", "compare-both-errors", "equivalence"])
def test_no_thread_outlives_the_command(argv, fault, code, reference_timing, monkeypatch,
                                        capsys):
    if fault in ("reference", "both"):
        monkeypatch.setattr(cli, "seeded_input", all_inf)
    if fault in ("unit", "both"):
        monkeypatch.setattr(pipeline.lf, "fused_execute", failing_unit)
    if fault == "perturbed":
        real = pipeline.add_unit_execute
        monkeypatch.setattr(pipeline, "add_unit_execute", lambda *a: real(*a) + 1e-3)
    before = threading.active_count()
    assert run_cli(argv, capsys)[0] == code
    assert threading.active_count() == before


def stored_outputs(monkeypatch) -> dict:
    """A weak reference to each output the reference stores, by node id."""
    stored = {}
    real = cli.Reference.__setitem__

    def spy(self, node_id, out):
        stored[node_id] = weakref.ref(out)
        real(self, node_id, out)

    monkeypatch.setattr(cli.Reference, "__setitem__", spy)
    return stored


def test_run_drops_each_reference_output_once_its_unit_is_checked(reference_timing,
                                                                  monkeypatch):
    """Serial, each boundary is dead once the next unit starts; either way none
    is alive once the run returns."""
    stored = stored_outputs(monkeypatch)
    alive_at = []

    def spy(run):
        def wrapped(*args, **kwargs):
            alive_at.append({k for k, ref in stored.items() if ref() is not None})
            return run(*args, **kwargs)
        return wrapped

    for owner, name in ((pipeline.lf, "fused_execute"), (pipeline, "attention_unit_execute"),
                        (pipeline, "add_unit_execute")):
        monkeypatch.setattr(owner, name, spy(getattr(owner, name)))
    sim = cli.simulate(cli.ExperimentConfig(model="pvtv2-micro"))
    ends = [u.layers[-1].node.id if isinstance(u, pipeline.ChainUnit) else u.node.id
            for u in sim["schedule"].units]
    assert set(stored) == set(ends)
    assert len(alive_at) == len(ends)
    if reference_timing == "serial":
        assert alive_at == [set(ends[i:]) for i in range(len(ends))]
    assert [k for k, ref in stored.items() if ref() is not None] == []


@pytest.mark.parametrize("command", ["compare", "sweep", "pruned-run"])
def test_shared_or_pruned_reference_keeps_every_output(command, reference_timing,
                                                       monkeypatch):
    stored = stored_outputs(monkeypatch)
    cfg = cli.ExperimentConfig(model="pvtv2-micro")
    # ``held`` keeps the command's simulations, and with them its reference, alive
    if command == "compare":
        held = cli.compare_experiments(cfg, ["naive", "tiling", "full"])
    elif command == "sweep":
        held = cli.sweep_experiments(cfg, "scratchpad_bytes", [65536, 262144])
    else:
        cfg = cli.load_config(PRUNING, None, {})
        held = cli.simulate(cfg)
        cli.run_experiment(cfg, held)
    assert stored
    assert [k for k, ref in stored.items() if ref() is None] == []


def test_concurrent_commands_under_fast_thread_switching(monkeypatch):
    """Three commands, each with its reference beside its schedule, on two
    cores: every unit's deviation is what the serial timing computes."""
    cfg = cli.ExperimentConfig(model="pvtv2-micro")
    want = cli.simulate(cfg)["unit_deviations"]
    monkeypatch.setattr(cli, "SERIAL_MAX_ELEMENTS", 0)
    got = [None] * 3

    def command(i):
        got[i] = cli.simulate(cfg)["unit_deviations"]

    threads = [threading.Thread(target=command, args=(i,)) for i in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [want] * 3
