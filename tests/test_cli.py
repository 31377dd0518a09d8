import contextlib
import copy
import functools
import importlib.util
import io
import json
import math
import re
import sys
import tempfile
import threading
import time
import weakref
from collections import Counter
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convformer_sim import attention_tiling as at
from convformer_sim import cli, pipeline, workload
from convformer_sim.errors import ConfigError, SelfCheckError
from convformer_sim.hwmodel import HardwareConfig, Txn
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


# the attention layers of segformer-micro, pvtv2-micro and cmt-micro
MICRO_ATTENTION = ("s0b0_attn", "s1b0_attn", "s2b0_attn", "s3b0_attn")


def every_layer(record) -> dict:
    """A ``schedule.attention`` map that gives each micro preset layer ``record``."""
    return {layer: record for layer in MICRO_ATTENTION}


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
            "schedule": {"attention": every_layer({"t_q": 2, "t_k": 2, "mode": "streaming_kv"})},
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

    def test_different_seed_changes_deviation_not_cost(self, capsys):
        """Without pruning, the seed moves no modeled number: on every preset at two
        scratchpads and on the B0 golden config, seeds 0 and 7 print the same ``run``
        result once the deviation and the echoed seeds are dropped."""
        for argv in [*(["--model", p, f"--hw.scratchpad_bytes={s}"]
                       for p in PRESETS for s in (2048, 262144)), ["--config", B0_CONFIG]]:
            results = []
            for seed in (0, 7):
                code, out, err = run_cli(["run", *argv, "--seed", str(seed)], capsys)
                result = json.loads(out)
                assert (code, err, result["config"].pop("seed"),
                        result["report"].pop("seed")) == (0, "", seed, seed), argv
                del result["max_abs_deviation"]
                results.append(result)
            assert results[0] == results[1], argv


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

    @pytest.mark.parametrize("name", PRESETS)
    def test_cycles_never_rise_with_pe_count_or_dram_bandwidth(self, name):
        """At 8 KiB, cycles never rise as ``pe_count`` or ``dram_bytes_per_cycle``
        grows, the other at its default, and nothing else ``run`` prints moves but the
        echoed hardware. The rows share one Reference, so the reference runs once."""
        ref = cli.Reference(build_preset(name), 0, False)
        base = HardwareConfig(scratchpad_bytes=8192)
        results = []
        for field, values in (("pe_count", (1, 4, 64, 4096)),
                              ("dram_bytes_per_cycle", (1, 4, 16, 64))):
            cycles = []
            for value in values:
                cfg = cli.ExperimentConfig(name, replace(base, **{field: value}))
                result = cli.run_experiment(cfg, cli.simulate(cfg, ref))
                del result["config"]["hardware"], result["report"]["hardware"]
                cycles.append(result["report"].pop("cycles"))
                results.append(result)
            assert cycles == sorted(cycles, reverse=True), (field, cycles)
        assert all(r == results[0] for r in results)


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
        ("attention", every_layer({"t_q": 4, "t_k": 2, "mode": "streaming_kv"})),
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
        assert "s0b0_attn: schedule.attention.t_q must be >= 1, got 0" in err
        assert out == ""

    def test_tq_out_of_range_names_field_and_layer(self, capsys):
        # the message used to be "tiling: t_q=64 out of [1, 16]", then
        # "s2b0_attn: schedule.attention.t_q=64 out of [1, 16]"
        code, out, err = run_cli(["sweep", "--model", "pvtv2-micro",
                                  "--axis", "t_q", "--values", "4,64"], capsys)
        assert code == 1
        assert "s2b0_attn: schedule.attention.t_q must be at most 16, got 64" in err
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
            "schedule": {"attention": every_layer({"t_q": 4, "mode": "resident_kv"})},
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
    """Exit 3 applies to every result, pruned or not, after the output is written."""

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

    @pytest.mark.parametrize("argv", [
        ["run"], ["sweep", "--axis", "theta_attn", "--values", "0"]], ids=["run", "sweep"])
    def test_pruned_rows_apply_tolerance(self, argv, capsys):
        # a pruned row reports its schedule's deviation, so that deviation gates it
        config = str(Path(__file__).parent.parent / "configs" / "pruning_sweep.json")
        code, out, err = run_cli([*argv, "--config", config, "--tolerance=1e-30"], capsys)
        assert code == 3
        data = json.loads(out)
        assert "pruning" in data if argv == ["run"] else "skipped_macs" in data[0]
        assert err.startswith("equivalence failure: deviation")
        assert err.endswith("first unit over it: s1b0_attn\n")
        code, _, err = run_cli([*argv, "--config", config], capsys)
        assert (code, err) == (0, "")

    def test_self_check_failure_names_both_counts(self, monkeypatch, capsys):
        # one unit of many is off: the check runs per unit and names it
        code, out, _ = run_cli(["run", "--model", "pvtv2-micro"], capsys)
        rows = json.loads(out)["report"]["breakdown"]
        ema = next(r["ema_bytes"] for r in rows if r["unit"] == "s0b0_attn")
        real = pipeline.plan_network

        def off_by_one(*args, **kwargs):
            schedule = real(*args, **kwargs)
            (unit,) = [u for u in schedule if u.row["unit"] == "s0b0_attn"]
            unit.row["ema_bytes"] += 1
            return schedule

        monkeypatch.setattr(pipeline, "plan_network", off_by_one)
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
    ("run", mha_graph(1, 16), {"attention": {"mha": {"t_q": 16, "mode": "resident_kv"}}},
     700, "mha", 324),
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
    assert f"schedule.fusion group tile must be >= 1, got {min(tile)}" in err
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
    assert ("a t_q sweep sets schedule.attention.t_q, but the graph has no attention "
            "layer") in err
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
    ("pvtv2-micro", {"attention": {"s0b0_attn": {"t_q": 2.9, "mode": "resident_kv"}}},
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
    # resident K/V are whole, so t_k is each layer's N_r; a given t_k was ignored,
    # and then rejected ("schedule.attention.t_k is not allowed with resident_kv")
    *(("pvtv2-micro", {"attention": {"s0b0_attn": {"t_q": 4, "t_k": t_k,
                                                   "mode": "resident_kv"}}},
       "schedule.attention.t_k must be 4 (derived from t_q, mode and a streaming t_k), "
       f"got {t_k}") for t_k in (1, 3, 999)),
    # out-of-range sizes named neither the field nor the layer ("tiling: t_k=5 ...")
    ("pvtv2-micro", {"attention": {"s2b0_attn": {"t_q": 64, "mode": "resident_kv"}}},
     "s2b0_attn: schedule.attention.t_q must be at most 16, got 64"),
    ("pvtv2-micro", {"attention": {"s0b0_attn": {"t_q": 4, "t_k": 5, "mode": "streaming_kv"}}},
     "s0b0_attn: schedule.attention.t_k must be at most 4, got 5"),
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
    # a fixed tiling on a graph without attention was ignored (the auto report ran);
    # a map key that names no attention layer is rejected as an unknown chain is
    ("toy-chain", {"attention": {"c0": {"t_q": 4, "mode": "resident_kv"}}},
     "schedule.attention fixes a tiling for ['c0'], but the graph has no attention layer "
     "of that id"),
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
    # error paths that no other test ran
    ({}, {}, "model: give exactly one of preset or graph"),
    ("pvtv2-micro", {"pruning": {"granularity": "diagonal"}},
     "schedule.pruning.granularity must be one of ['element', 'row', 'column'], "
     "got 'diagonal'"),
    ("pvtv2-micro", {"pruning": 3}, "schedule.pruning must be 'off' or an object, got 3"),
    ("pvtv2-micro", {"attention": {"s0b0_attn": {"t_q": 4, "mode": "bogus"}}},
     "schedule.attention.mode must be one of ['resident_kv', 'streaming_kv'], got 'bogus'"),
    ({"graph": {"input_shape": [1, 4, 8, 8], "nodes": [
        {"id": "a", "kind": "gelu", "preds": ["b"]}, {"id": "b", "kind": "gelu"}]}}, {},
     "a: predecessor 'b' not defined earlier"),
    (one_conv_graph(c_in=5), {}, "c1: expects c_in=5, got 4"),
    ({"graph": {"input_shape": [1, 4, 8, 8], "nodes": [
        {"id": "l", "kind": "linear", "c_in": 5, "c_out": 4}]}}, {}, "l: expects c_in=5, got 4"),
    (two_node_graph({"kind": "add", "residual_of": "c1", "preds": ["c1"]}), {},
     "g: Add needs exactly 2 predecessors"),
    ({"graph": {"input_shape": [1, 4, 8, 8], "nodes": [
        {"id": "a", "kind": "gelu"}, {"id": "b", "kind": "gelu", "preds": ["a"]},
        {"id": "c", "kind": "gelu", "preds": ["b"]},
        {"id": "s", "kind": "add", "residual_of": "a", "preds": ["b", "c"]}]}}, {},
     "s: field residual_of must name the skip input 'b', got 'a'"),
    (two_node_graph({"kind": "pool", "preds": ["c1"]}), {}, "unknown layer kind 'pool' of node 'g'"),
    (two_node_graph({"kind": "downsample", "k": 2, "preds": ["c1"]}), {},
     "g: missing field 'stride'"),
    # a tile that is not two integers was a TypeError ("'int' object is not iterable",
    # "TileShape.__init__() takes 3 positional arguments but 4 were given")
    *(("toy-chain", {"fusion": {"0": [{"start": 0, "end": 3, "tile": tile}]}},
       f"schedule.fusion group tile must be a list of 2 integers, got {tile}")
      for tile in (4, [4, 4, 4])),
    # true ran as threshold 1.0, and -1 said "prune thresholds must be >= 0"
    ("pvtv2-micro", {"pruning": {"theta_attn": True}},
     "schedule.pruning.theta_attn must be a number, got True"),
    ("pvtv2-micro", {"pruning": {"theta_attn": -1}},
     "schedule.pruning.theta_attn must be >= 0, got -1.0"),
    # the boundary that lets plan_network take any other fusion mode as a map
    ("toy-chain", {"fusion": "fused"}, "schedule.fusion must be auto, singleton"),
    # a second sink was charged its EMA (chain[z], 532 B), but only the last
    # unit's deviation was reported
    ({"graph": {"input_shape": [1, 4, 8, 8], "nodes": [
        {"id": "a", "kind": "conv2d", "c_in": 4, "c_out": 4, "k": 3, "pad": 1},
        {"id": "z", "kind": "conv2d", "c_in": 4, "c_out": 4, "k": 1, "preds": ["a"]},
        {"id": "b", "kind": "conv2d", "c_in": 4, "c_out": 4, "k": 1, "preds": ["a"]},
        {"id": "s", "kind": "add", "residual_of": "a", "preds": ["b", "a"]}]}}, {},
     "z: no node reads its output"),
    # naming the add's later predecessor changed nothing: an add is symmetric
    ({"graph": {"input_shape": [1, 4, 8, 8], "nodes": [
        {"id": "a", "kind": "gelu"}, {"id": "b", "kind": "gelu", "preds": ["a"]},
        {"id": "s", "kind": "add", "residual_of": "b", "preds": ["b", "a"]}]}}, {},
     "s: field residual_of must name the skip input 'a', got 'b'"),
    # a zero dimension is rejected where the graph is parsed, n = 0 included
    *((one_conv_graph(input_shape=shape), {}, "graph input_shape must be >= 1, got 0")
      for shape in ((1, 0, 8, 8), (0, 4, 8, 8))),
    # a derived group field must be a JSON boolean or integer equal to the one the
    # group's start, end, tile and policy give (1 == True would have passed as true)
    ("toy-chain", {"fusion": {"0": [{"start": 0, "end": 3, "tile": [16, 16],
                                     "weights_resident": 1}]}},
     "schedule.fusion group weights_resident must be true or false, got 1"),
    ("toy-chain", {"fusion": {"0": [{"start": 0, "end": 3, "tile": [16, 16],
                                     "weights_resident": False}]}},
     "schedule.fusion group weights_resident must be true (derived from start, end, tile "
     "and policy), got false"),
    ("toy-chain", {"fusion": {"0": [{"start": 0, "end": 3, "tile": [16, 16],
                                     "ema_bytes": 1}]}},
     "schedule.fusion group ema_bytes must be "),
    # a layer's record is "baseline" or a tiling, as run prints it, and its derived
    # fields must be the recomputed ones
    *(("pvtv2-micro", {"attention": {"s0b0_attn": record}},
       "schedule.attention must be auto, baseline, or a map of attention layer to baseline "
       "or a tiling object") for record in (5, "auto", [4])),
    ("pvtv2-micro", {"attention": {"s1b0_attn": {"t_q": 4, "t_k": 2, "mode": "streaming_kv",
                                                 "ema_bytes": 1}}},
     "s1b0_attn: schedule.attention.ema_bytes must be 4096 (derived from t_q, mode and a "
     "streaming t_k), got 1"),
    ("pvtv2-micro", {"attention": {"s1b0_attn": {"t_q": 4, "mode": "resident_kv",
                                                 "element_bytes": 2}}},
     "s1b0_attn: schedule.attention.element_bytes must be 1 (derived from t_q, mode and a "
     "streaming t_k), got 2"),
    ("pvtv2-micro", {"attention": {"s1b0_attn": {"t_q": 4, "mode": "streaming_kv"}}},
     "s1b0_attn: schedule.attention.t_k must be an integer, got None"),
])
def test_bad_schedule_field_exits_1_naming_it(model, schedule, field, tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": model, "schedule": schedule})
    code, out, err = run_cli(["run", "--config", cfg], capsys)
    assert code == 1
    assert field in err
    assert out == ""


@pytest.mark.parametrize("config, field", [
    ({"tolerance": True}, "tolerance"),
    ({"hardware": {"e_dram": True}}, "hardware.e_dram"),
])
def test_boolean_is_not_a_number(config, field, tmp_path, capsys):
    # each float field read JSON true as 1.0 and ran
    code, out, err = run_cli(["run", "--config", write_config(tmp_path, config)], capsys)
    assert (code, out) == (1, "")
    assert f"{field} must be a number, got True" in err


def test_negative_sweep_threshold_names_its_axis(capsys):
    # it said "prune thresholds must be >= 0"
    config = Path(__file__).parent.parent / "configs" / "pruning_sweep.json"
    code, out, err = run_cli(["sweep", "--config", str(config), "--axis", "theta_act",
                              "--values=-0.5"], capsys)
    assert (code, out) == (1, "")
    assert err == "config error: theta_act must be >= 0, got -0.5\n"


@pytest.mark.parametrize("argv", [
    ["run"], ["sweep", "--axis", "theta_attn", "--values", "0.1,0.5"],
    ["sweep", "--axis", "theta_act", "--values", "0.5"],
])
def test_pruning_without_a_pruning_point_exits_1_before_numerics(argv, tmp_path, monkeypatch,
                                                                  capsys):
    # toy-chain has no attention and no GELU read by a linear: pruning ran, reported
    # "pruning": [] and the unpruned costs, and exited 0
    def unreachable(*args, **kwargs):
        raise AssertionError("planning ran under a pruning config that prunes nothing")

    monkeypatch.setattr(pipeline, "plan_network", unreachable)
    cfg = write_config(tmp_path, {"model": "toy-chain", "schedule": {
        "pruning": {"theta_attn": 0.5, "theta_act": 0.5}} if argv == ["run"] else {}})
    code, out, err = run_cli([*argv, "--config", cfg], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("config error: schedule.pruning sets thresholds, but the graph "
                          "has no pruning point")


@pytest.mark.parametrize("config, key", [
    ({"schedul": {}}, "unknown config field(s): ['schedul']"),
    ({"model": {"preset": "toy-chain", "grpah": {}}}, "unknown model field(s): ['grpah']"),
    ({"schedule": {"pruninng": "off"}}, "unknown schedule field(s): ['pruninng']"),
    ({"schedule": {"pruning": {"theta_atn": 0.5}}},
     "unknown schedule.pruning field(s): ['theta_atn']"),
    ({"model": "pvtv2-micro", "schedule": {"attention": {"s0b0_attn": {
        "t_q": 4, "mode": "resident_kv", "elem_bytes": 1}}}},
     "unknown schedule.attention field(s): ['elem_bytes']"),
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
    ([{"model": "toy-chain"}], "config root must be a JSON object"),
    ({"model": {"preset": "toy-chain", "graph": one_conv_graph()["graph"]}},
     "model: give exactly one of preset or graph"),
])
def test_unknown_config_key_exits_1_naming_it(config, key, tmp_path, capsys):
    # each of these used to run on the defaults
    code, out, err = run_cli(["run", "--config", write_config(tmp_path, config)], capsys)
    assert code == 1
    assert key in err
    assert out == ""


def test_missing_config_file_exits_1_naming_it(tmp_path, capsys):
    path = str(tmp_path / "absent.json")
    code, out, err = run_cli(["run", "--config", path], capsys)
    assert (code, out) == (1, "")
    assert f"cannot read config {path!r}" in err


@pytest.mark.parametrize("content, message", [
    # 100,000 nested arrays were a RecursionError traceback from json
    (b"[" * 100_000, "maximum recursion depth exceeded while decoding a JSON array"),
    # a file that is not UTF-8 was a UnicodeDecodeError traceback
    (b"\xff\xfe{", "'utf-8' codec can't decode byte 0xff in position 0"),
    # a number of more than 4,300 digits was a ValueError traceback
    (b'{"seed": ' + b"1" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
    # a repeated key ran on its last value: the first was neither used nor rejected
    (b'{"model": "toy-chain", "seed": 1, "seed": 2}',
     "key 'seed' is repeated in the object with keys ['model', 'seed']"),
    (b'{"hardware": {"pe_count": 4, "e_dram": 50.5, "pe_count": 4}}',
     "key 'pe_count' is repeated in the object with keys ['e_dram', 'pe_count']"),
], ids=["too-deep", "not-utf-8", "huge-number", "repeated-key", "repeated-nested-key"])
def test_unreadable_config_file_exits_1_naming_it(content, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run_cli(["run", "--config", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"config error: config {str(path)!r} cannot be read as JSON: ")
    assert message in err


@pytest.mark.parametrize("config, where", [
    ({"hardware": [0] * 100_000}, "hardware"),
    ({"model": json.loads("[" * 900 + "]" * 900)}, "model"),
], ids=["wide", "deep"])
def test_config_error_echoing_a_huge_value_is_cut_in_the_middle(config, where, tmp_path,
                                                                  capsys):
    # the whole value was echoed: 300,047 and 1,844 bytes of stderr
    full = f"config error: {where} must be an object, got {config[where]!r}"
    code, out, err = run_cli(["run", "--config", write_config(tmp_path, config)], capsys)
    assert (code, out) == (1, "")
    assert err == (f"{full[:500]} [... {len(full) - 1000} characters cut ...] "
                   f"{full[-500:]}\n")


@pytest.mark.parametrize("argv, field", [
    (["--config", {"hardware": {"e_dram": 10**400}}], "hardware.e_dram"),
    (["--config", {"tolerance": 10**400}], "tolerance"),
    (["--config", {"schedule": {"pruning": {"theta_attn": 10**400}}}],
     "schedule.pruning.theta_attn"),
    (["sweep", "--axis", "theta_act", "--values", str(10**400)], "theta_act"),
])
def test_integer_past_the_float_range_in_a_float_field_exits_1_naming_it(argv, field,
                                                                          tmp_path, capsys):
    # a JSON or --values integer of 401 digits in a float field was an OverflowError
    # traceback; an integer field already exited 1 so
    if argv[0] == "--config":
        argv = ["run", "--config", write_config(tmp_path, argv[1])]
    code, out, err = run_cli([*argv, "--model", "segformer-micro"], capsys)
    assert (code, out) == (1, "")
    assert f"{field} must be at most 1.798e+308, got 401 digits" in err


@pytest.mark.parametrize("argv, message", [
    (["compare", "--model", "toy-chain", "--schedules", "naive,bogus"],
     "unknown schedule 'bogus'"),
    # usage errors exit 1 like every config error, not with argparse's 2
    (["sweep", "--model", "toy-chain"], "the following arguments are required: --axis"),
    (["run", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
])
def test_bad_command_line_exits_1_naming_it(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert message in err and "Traceback" not in err


def test_hw_flag_takes_its_value_with_or_without_equals(capsys):
    # the space form was an unrecognized argument
    runs = [run_cli(["run", "--model", "toy-chain", *flag], capsys)
            for flag in (["--hw.pe_count", "128"], ["--hw.pe_count=128"])]
    assert runs[0] == runs[1]
    assert runs[0][0] == 0
    assert json.loads(runs[0][1])["config"]["hardware"]["pe_count"] == 128


@pytest.mark.parametrize("command", ["run", "compare", "sweep"])
def test_help_lists_every_hardware_field(command, capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main([command, "--help"])
    out = capsys.readouterr().out
    assert exit_.value.code == 0
    assert [f.name for f in fields(HardwareConfig) if f"--hw.{f.name} " not in out] == []


def test_preset_object_form_runs_the_preset(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": {"preset": "toy-chain"}})
    code, out, err = run_cli(["run", "--config", cfg], capsys)
    assert (code, err) == (0, "")
    _, out_name, _ = run_cli(["run", "--model", "toy-chain"], capsys)
    assert json.loads(out)["report"] == json.loads(out_name)["report"]


def test_two_chains_on_the_input_joined_by_an_add_run(tmp_path, capsys):
    # b does not read a, so split_into_segments ends a's chain before b
    model = one_conv_graph(pad=1)
    model["graph"]["nodes"] += [
        {"id": "b", "kind": "conv2d", "c_in": 4, "c_out": 4, "k": 1},
        {"id": "s", "kind": "add", "residual_of": "c1", "preds": ["c1", "b"]}]
    code, out, err = run_cli(["run", "--config", write_config(tmp_path, {"model": model})],
                             capsys)
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert [u["kind"] for u in data["schedule"]["units"]] == ["chain", "chain", "add"]
    assert data["max_abs_deviation"] <= 1e-9


def test_baseline_attention_prints_baseline_tiling(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": "pvtv2-micro",
                                  "schedule": {"attention": "baseline"}})
    code, out, err = run_cli(["run", "--config", cfg], capsys)
    assert (code, err) == (0, "")
    tilings = [u["tiling"] for u in json.loads(out)["schedule"]["units"]
               if u["kind"] == "attention"]
    assert tilings and all(t == "baseline" for t in tilings)


# integers that fit a float but not the planner: each ended in an OverflowError
# or a numpy MemoryError traceback from inside planning
@pytest.mark.parametrize("model, schedule, field", [
    (one_conv_graph(stride=10**30), {}, "graph node 'c1' field stride must be at most 65536"),
    (two_node_graph({"kind": "downsample", "k": 2, "stride": 10**30, "preds": ["c1"]}), {},
     "graph node 'g' field stride must be at most 65536"),
    (one_conv_graph(input_shape=(1, 4, 10**30, 8)), {},
     "graph input_shape h and w must be at most 65536"),
    ("toy-chain", {"fusion": {"0": [{"start": 0, "end": 3, "tile": [10**30, 4]}]}},
     "schedule.fusion group tile must be at most 65536"),
    (one_conv_graph(input_shape=(1, 4, 10**15, 8)), {},
     "graph input_shape h and w must be at most 65536"),
    (one_conv_graph(pad=10**15), {}, "graph node 'c1' field pad must be at most 65536"),
    ({"graph": {"input_shape": [1, 10**30, 4, 4], "nodes": [
        {"id": "a", "kind": "attention", "heads": 10**30, "d_head": 1}]}}, {},
     "graph node 'a' field heads must be at most 65536"),
])
def test_integer_too_large_to_plan_exits_1_before_planning(model, schedule, field, tmp_path,
                                                           monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("the planner ran on an oversized integer")

    # parsing rejects each input before the fusion planner builds an array
    monkeypatch.setattr("convformer_sim.layer_fusion._walk", unreachable)
    cfg = write_config(tmp_path, {"model": model, "schedule": schedule})
    start = time.perf_counter()
    code, out, err = run_cli(["run", "--config", cfg], capsys)
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (1, "")
    assert field in err and "Traceback" not in err


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
# (a later module-level SWEEP_VALUES, of other tests, used to shadow these: the draws
# took single characters of its strings)
RANDOM_SWEEP_VALUES = {"scratchpad_bytes": ("65536", "8192", "2048", "65536.7", "1e400", "0"),
                "theta_attn": ("0", "0.01", "0.5", "2.5", "1e400", "-1"),
                "theta_act": ("0", "0.01", "0.5", "2.5", "1e400", "-1"),
                "t_q": ("1", "2", "4", "2.5", "1e400", "0")}


# a derived tiling field drawn wrong: an offset from its recomputed value, or a bad value
WRONG_DERIVED = (1, -4, 2.5, "x", True, None)


@st.composite
def tiling_records(draw, layer: str, fills: list):
    """A ``schedule.attention`` record for ``layer``: ``"baseline"``, or a tiling whose
    sizes may be bad and whose derived fields are each given right, given wrong or left
    out. Each given one is appended to ``fills`` as (layer, field, None if right, else
    how it is wrong), and its value is filled in where the model and hardware are
    known (``fill_derived``)."""
    if draw(st.integers(0, 5)) == 0:
        return "baseline"
    mode = draw(st.sampled_from(["resident_kv", "streaming_kv"]))
    record = {"t_q": draw(st.sampled_from([1, 2, 4] * 3 + [2.9, 0, "x"])), "mode": mode}
    derived = ["element_bytes", "ema_bytes", "buffer_bytes"]
    if mode == "streaming_kv":
        record["t_k"] = draw(st.sampled_from([1, 2, 4] * 3 + [3.7]))
    else:   # derived: each layer's N_r
        derived.append("t_k")
    for name in derived:
        how = draw(st.sampled_from(["right", "right", "absent", "absent", "wrong"]))
        if how != "absent":
            fills.append((layer, name, None if how == "right"
                          else draw(st.sampled_from(WRONG_DERIVED))))
    return record


def fill_derived(model: str, eb: int, attention: dict, fills: list) -> set:
    """Give each drawn derived field its value on ``model`` at element width ``eb``
    (its recomputed value, or that value made wrong); the (layer, field) pairs of the
    map that are bad: a size that is no integer or out of range, or a wrong field."""
    graph, bad = build_preset(model), set()
    dims = {n.id: workload.attention_dims(graph, n, eb) for n in graph.nodes
            if isinstance(n.op, workload.Attention)}
    for layer, record in attention.items():
        if record == "baseline" or layer not in dims:
            continue
        d, streaming = dims[layer], record["mode"] == "streaming_kv"
        t_k = record["t_k"] if streaming else d.N_r
        sizes = [("t_q", record["t_q"], d.N)] + [("t_k", t_k, d.N_r)] * streaming
        bad_sizes = {(layer, k) for k, v, top in sizes
                     if type(v) is not int or not 1 <= v <= top}
        bad |= bad_sizes
        right = {"t_k": t_k, "element_bytes": eb} if bad_sizes else asdict(at.costed(
            d, at.AttentionTiling(record["t_q"], t_k, at.ResidencyMode(record["mode"])),
            HardwareConfig(scratchpad_bytes=math.inf)))
        for _, name, wrong in (f for f in fills if f[0] == layer):
            value = right.get(name, 0)
            record[name] = (value if wrong is None else value + wrong
                            if type(wrong) is int else wrong)
            bad |= {(layer, name)} if wrong is not None else set()
    return bad


@st.composite
def attention_maps(draw, fills: list):
    """A ``schedule.attention`` map of some micro preset layers and, now and then,
    ``stem``, which names no attention layer; ``fills`` as in ``tiling_records``."""
    layers = draw(st.lists(st.sampled_from(MICRO_ATTENTION), unique=True, max_size=4))
    layers += ["stem"] * (draw(st.integers(0, 4)) == 0)
    return {layer: draw(tiling_records(layer, fills)) for layer in layers}


def attention_faults(argv: list, attention, fills: list) -> tuple[set, list]:
    """The bad (layer, field) pairs of command line ``argv``'s ``schedule.attention``
    (``fill_derived``, which fills the map in), and the keys that name no attention
    layer of its model."""
    bad, unknown = set(), []
    if isinstance(attention, dict):
        eb = next((a.split("=")[1] for a in argv if a.startswith("--hw.element_bytes=")),
                  "1")
        bad = fill_derived(argv[2], int(eb) if eb.isdigit() else 1, attention, fills)
        unknown = sorted(set(attention) - {n.id for n in build_preset(argv[2]).nodes
                                           if isinstance(n.op, workload.Attention)})
    if "--axis=t_q" in argv:   # each row sets t_q, and each record keeps its mode and t_k
        bad = {(layer, name) for layer, name in bad if name == "t_k"}
        bad |= {(layer, "t_q") for layer in MICRO_ATTENTION
                if any(v in argv[-1] for v in ("2.5", "1e400", "=0", ",0"))}
    return bad, unknown


def check_attention_outcome(argv: list, attention, bad: set, unknown: list, code: int,
                            err: str, out: str) -> None:
    """A map with a bad pair or an unknown key never runs, and an exit 1 that names
    ``schedule.attention`` names one of them; a run that ran gave each attention layer
    the record the map gives it (a derived field at its given value), and each layer
    the map does not name the baseline."""
    if code == 1 and "schedule.attention" in err and argv[0] != "compare":
        names = [f"fixes a tiling for {unknown}"] * bool(unknown) + [
            f"{layer}: schedule.attention.{name}" for layer, name in bad] + [
            "the graph has no attention layer"]
        assert any(name in err for name in names), (bad, unknown, err)
    if bad or unknown:
        assert code in (1, 2), (bad, unknown)
    if argv[0] != "run" or code not in (0, 3) or attention is None:
        return
    for unit in (u for u in json.loads(out)["schedule"]["units"] if u["kind"] == "attention"):
        record = attention if attention == "baseline" else attention.get(unit["node"],
                                                                          "baseline")
        assert unit["tiling"] == record if record == "baseline" else all(
            unit["tiling"][k] == v for k, v in record.items()), (record, unit)


@st.composite
def command_lines(draw):
    """(argv, schedule of the config file or None, the derived attention fields to fill
    in: ``tiling_records``) for run, compare or sweep."""
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
        values = draw(st.lists(st.sampled_from(RANDOM_SWEEP_VALUES[axis]), min_size=1,
                               max_size=2))
        argv += [f"--axis={axis}", f"--values={','.join(values)}"]
    schedule = {}
    if draw(st.booleans()):
        theta = st.sampled_from(THRESHOLDS)
        schedule["pruning"] = {"theta_attn": draw(theta), "theta_act": draw(theta)}
    fills = []
    if draw(st.booleans()):
        schedule["attention"] = ("baseline" if draw(st.integers(0, 4)) == 0
                                 else draw(attention_maps(fills)))
    if draw(st.booleans()):
        # chain 0 has 4 layers on toy-chain and 2 on segformer-micro
        schedule["fusion"] = {"0": [{"start": 0,
                                     "end": draw(st.sampled_from([1, 3, 3, 3.7])),
                                     "tile": [draw(st.sampled_from([4, 8, 16, 4.9, 0])),
                                              draw(st.sampled_from([4, 8, 16]))]}]}
    return argv, schedule if schedule or draw(st.booleans()) else None, fills


# every option of run, compare and sweep but the --hw.* ones
OPTIONS = ("--config", "--model", "--seed", "--tolerance", "--out", "--format", "--schedules",
           "--axis", "--values", "--help")
HW_FIELDS = tuple(f.name for f in fields(HardwareConfig))


@st.composite
def bad_command_lines(draw):
    """(argv, the words stderr must name): a command line with good ``--hw.*`` flags,
    in either form, and one bad token: an unknown flag, ``--hw.<not a field>=1``, a
    trailing ``--hw.<field>`` with no value, ``--format xml``, or a sweep without
    ``--axis``."""
    command = draw(st.sampled_from(["run", "compare", "sweep"]))
    argv = [command, "--model", draw(st.sampled_from(["toy-chain", "segformer-micro"]))]
    for f in draw(st.lists(st.sampled_from(HW_FIELDS), max_size=2)):
        argv += draw(st.sampled_from([[f"--hw.{f}=64"], [f"--hw.{f}", "64"]]))
    bad = draw(st.sampled_from(["flag", "hw", "trailing", "format"]
                               + ["axis"] * (command == "sweep")))
    if command == "sweep":
        argv += ["--values=1"] if bad == "axis" else ["--axis=t_q", "--values=1"]
    if bad == "flag":
        token = draw(st.from_regex(r"--[a-z][a-z_.]{0,11}", fullmatch=True).filter(
            lambda t: t not in OPTIONS and not t.startswith("--hw.")))
        return [*argv, token], [token]
    if bad == "hw":
        name = draw(st.from_regex(r"[a-z][a-z_]{0,15}", fullmatch=True).filter(
            lambda n: n not in HW_FIELDS))
        return [*argv, f"--hw.{name}=1"], [f"--hw.{name}=1"]
    if bad == "trailing":
        flag = f"--hw.{draw(st.sampled_from(HW_FIELDS))}"
        return [*argv, flag], [flag]
    if bad == "format":
        return [*argv, "--format", "xml"], ["--format", "'xml'"]
    return argv, ["--axis"]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(bad_command_lines())
@example((["run", "--hw.pe=1"], ["--hw.pe=1"]))   # a prefix of pe_count is no field
def test_malformed_command_line_exits_1_naming_the_token(case):
    """argparse's usage errors end in main's one handler: exit 1, no stdout, and a
    ``config error`` naming the token (they were a SystemExit from inside the parse)."""
    argv, names = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert (code, out.getvalue()) == (1, ""), err.getvalue()
    assert err.getvalue().startswith("config error: "), err.getvalue()
    assert all(name in err.getvalue() for name in names), (names, err.getvalue())


def _no_constant(name):
    raise ValueError(f"{name} in JSON output")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(command_lines())
def test_random_command_lines_exit_cleanly(case):
    """Any command line ends in 0, 1, 2 or 3 without an exception; on 2 stderr
    names a layer and the bytes it lacks; on 0 and 3 stdout is strict JSON,
    and a run uses the fixed tilings and fusion groups its config gives, as
    given. A ``schedule.attention`` map with a bad size, a wrong derived field or
    a key that names no attention layer never runs: its exit 1 names the layer and
    the field, or the keys (unless another part of the command fails first)."""
    argv, schedule, fills = case
    attention = (schedule or {}).get("attention")
    bad, unknown = attention_faults(argv, attention, fills)
    with tempfile.TemporaryDirectory() as tmp:
        if schedule is not None:
            argv = [*argv, "--config", write_config(Path(tmp), {"schedule": schedule})]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 1, 2, 3), err.getvalue()
    check_attention_outcome(argv, attention, bad, unknown, code, err.getvalue(),
                            out.getvalue())
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
    fusion = (schedule or {}).get("fusion")
    if fusion is not None:
        given_group, = fusion["0"]
        ran, = next(u for u in units if u["kind"] == "chain")["plan"]["groups"]
        assert [ran["start"], ran["end"], ran["tile"]] == \
            [given_group["start"], given_group["end"], given_group["tile"]]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(["segformer-micro", "pvtv2-micro", "cmt-micro"]),
       st.sampled_from([["run"], ["sweep", "--axis=t_q", "--values=1,4"],
                        ["sweep", "--axis=scratchpad_bytes", "--values=262144"]]),
       st.sampled_from(["1", "2"]), st.data())
def test_random_attention_maps_run_or_exit_1_naming_the_field(model, command, eb, data):
    """A ``schedule.attention`` map of per-layer records, each derived field given
    right, given wrong or left out, and now and then a key that names no attention
    layer, on a micro preset whose every tiling fits: a map with a bad size, a wrong
    field or such a key exits 1 naming the layer and the field, or the key; any other
    runs (exit 0), each layer with its record, and a layer it does not name with the
    baseline. Never a traceback."""
    fills = []
    attention = data.draw(attention_maps(fills))
    argv = [command[0], "--model", model, f"--hw.element_bytes={eb}", *command[1:]]
    bad, unknown = attention_faults(argv, attention, fills)
    with tempfile.TemporaryDirectory() as tmp:
        config = write_config(Path(tmp), {"schedule": {"attention": attention}})
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--config", config])
    assert (code, err.getvalue() == "") == ((1, False) if bad or unknown else (0, True)), \
        (bad, unknown, err.getvalue())
    check_attention_outcome(argv, attention, bad, unknown, code, err.getvalue(),
                            out.getvalue())


# ---------------------------------------------------------------------------
# Random config files
# ---------------------------------------------------------------------------

FUZZ_BASES = (   # valid configs, each planned and run in a few milliseconds
    {"model": "toy-chain", "hardware": {"scratchpad_bytes": 8192, "element_bytes": 2},
     "schedule": {"fusion": {"0": [{"start": 0, "end": 1, "tile": [8, 8], "policy": "cache"},
                                  {"start": 2, "end": 3, "tile": [16, 16]}]}},
     "seed": 3, "tolerance": 1e-6},
    {"model": mha_graph(2, 4), "schedule": {
        "attention": {"mha": {"t_q": 4, "t_k": 2, "mode": "streaming_kv"}},
        "pruning": {"theta_attn": 0.01, "theta_act": 0.001, "granularity": "row"}}},
    {"model": two_node_graph({"kind": "gelu"}), "schedule": {"fusion": "singleton"}},
    {"model": {"preset": "toy-chain"}, "hardware": {"pe_count": 16, "e_dram": 50.5}},
)
# a value swapped in at a path: every JSON type, and numbers out of every range
FUZZ_VALUES = ("x", "", 1, -1, 0, 2.5, True, None, [], {}, [1, 2], {"x": 1},
               10**400, 2**63, float("nan"), float("inf"))
FUZZ_KEYS = st.sampled_from(["model", "hardware", "schedule", "seed", "tolerance", "graph",
                             "preset", "nodes", "fusion", "attention", "x"]) | st.text(max_size=3)
JSON_LEAVES = st.sampled_from(["null", "true", "false", "NaN", "Infinity", "-Infinity", "1e999",
                               "1" + "0" * 400, "9" * 5000, "-0", '"toy-chain"']) \
    | st.integers().map(str) | st.floats().map(json.dumps) | st.text(max_size=4).map(json.dumps)


def _tree_paths(tree, path=()):
    yield path
    items = (tree.items() if isinstance(tree, dict) else
             enumerate(tree) if isinstance(tree, list) else ())
    for key, value in items:
        yield from _tree_paths(value, (*path, key))


@st.composite
def mutated_configs(draw):
    """A ``FUZZ_BASES`` config, as JSON text, changed at one path: its value swapped for
    one of ``FUZZ_VALUES``, deleted, or given a new key or item."""
    config = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    *parents, key = draw(st.sampled_from(list(_tree_paths(config))[1:]))
    parent = functools.reduce(lambda tree, k: tree[k], parents, config)
    value = copy.deepcopy(draw(st.sampled_from(FUZZ_VALUES)))
    action = draw(st.sampled_from(["swap", "delete", "add"]))
    if action == "delete":
        del parent[key]
    elif action == "add" and isinstance(parent[key], dict):
        parent[key][draw(FUZZ_KEYS)] = value
    elif action == "add" and isinstance(parent[key], list):
        parent[key].append(value)
    else:
        parent[key] = value
    return json.dumps(config)


def json_texts():
    """JSON text, repeated keys, ``NaN`` literals and huge numbers included, at most
    100,000 levels deep."""
    tree = st.recursive(JSON_LEAVES, lambda kids: st.lists(kids, max_size=3).map(
        lambda xs: f"[{', '.join(xs)}]") | st.lists(st.tuples(FUZZ_KEYS.map(json.dumps), kids),
                                                  max_size=4).map(
        lambda pairs: "{" + ", ".join(f"{k}: {v}" for k, v in pairs) + "}"), max_leaves=10)
    wrap = st.sampled_from([("", "")] * 4 + [("[", "]"), ('{"model": ', "}")])
    return st.builds(lambda w, depth, text: w[0] * depth + text + w[1] * depth, wrap,
                     st.sampled_from([1, 900, 100_000]), tree)


# the config's root and the fields of its parts, as errors name them
CONFIG_FIELDS = ("config root", "model", "preset", "graph", "hardware", *HW_FIELDS, "schedule",
                 "attention", "fusion", "pruning", "seed", "tolerance")


def config_names(text: str) -> set[str]:
    """Every object key and string member value of config ``text``, if it parses."""
    names = set()

    def collect(pairs):
        names.update(n for k, v in pairs for n in (k, v) if isinstance(n, str))
        return dict(pairs)
    try:
        json.loads(text, object_pairs_hook=collect)
    except (RecursionError, ValueError):
        return set()
    return names


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.one_of(st.binary(max_size=40), json_texts().map(str.encode),
                 mutated_configs().map(str.encode)))
@example(b"[" * 100_000)
@example(b"\xff\xfe{")
@example(b'{"model": "toy-chain", "seed": 1, "seed": 2}')
def test_random_config_files_exit_cleanly(content):
    """Any config file ends in exit 0, 1, 2 or 3, never an exception: arbitrary bytes,
    arbitrary JSON trees and valid configs changed at one path. Exit 1 names the file,
    a key or string of the file, its root or a config field; on 0 and 3 stdout is strict
    JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_bytes(content)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["run", "--config", str(path)])
    assert code in (0, 1, 2, 3), err.getvalue()
    if code == 1:
        names = {str(path), *CONFIG_FIELDS} | config_names(content.decode("utf-8", "replace"))
        assert any(repr(n) in err.getvalue() or n.strip() and re.search(
            rf"(?<!\w){re.escape(n)}(?!\w)", err.getvalue()) for n in names), err.getvalue()
    if code in (0, 3):
        json.loads(out.getvalue(), parse_constant=_no_constant)


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


def test_threshold_sweep_runs_its_schedule_once(monkeypatch, capsys):
    """Rows that differ only in pruning reuse the last row's schedule run."""
    calls = Counter()
    for owner, name in ((pipeline, "run_schedule"), (cli, "pruning_analysis")):
        def counted(*args, real=getattr(owner, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    code, out, _ = run_cli(["sweep", "--config", PRUNING, "--axis", "theta_attn",
                            "--values", "0,0.005,0.01,0.02,0.05"], capsys)
    assert code == 0
    assert len(json.loads(out)) == 5
    assert calls == {"run_schedule": 1, "pruning_analysis": 5}


def test_an_equal_plan_on_another_scratchpad_runs_again():
    """A schedule does not record its passes' block counts: at 512 B the baseline
    projections stream in more blocks than at 1024 B and count their weights once per
    block, so an equal plan can report other SRAM accesses and another peak. Each row of
    an ascending scratchpad sweep is its own run."""
    cfg = cli.ExperimentConfig(model=mha_graph(2, 8), attention="baseline")
    _, sims = cli.sweep_experiments(cfg, "scratchpad_bytes", [512, 1024])
    assert sims[0]["schedule"] == sims[1]["schedule"]
    assert sims[0]["report"].sram_accesses != sims[1]["report"].sram_accesses
    for size, sim in zip([512, 1024], sims):
        fresh = cli.simulate(replace(cfg, hardware=HardwareConfig(scratchpad_bytes=size)))
        assert sim["report"] == fresh["report"]


def boundary_ids(graph):
    """The last node of every segment: where unit outputs meet."""
    return {nodes[-1].id for _, nodes in split_into_segments(graph)}


@pytest.mark.parametrize("pruning", [False, True])
@pytest.mark.parametrize("preset", PRESETS)
def test_reference_keeps_boundaries_bit_identical_to_full_record(preset, pruning):
    graph = build_preset(preset)
    ref = cli.Reference(graph, 3, pruning)
    ref.start()
    kept, full = ref.join(), {}
    reference_execute(graph, ref.x, ref.params, record=full)
    gelus = {n.id for n, linear in cli.pruning_points(graph) if linear is not None}
    assert gelus == {n.id for n in graph.nodes if isinstance(n.op, GELU)}
    assert set(kept) == boundary_ids(graph) | (gelus if pruning else set())
    assert len(kept) < len(full)
    for node_id, tensor in kept.items():
        assert tensor.dtype == full[node_id].dtype
        assert tensor.tobytes() == full[node_id].tobytes(), node_id


def test_pruned_reference_keeps_only_the_gelus_pruning_reads():
    # g1 feeds a conv, so it is no pruning point; the Reference kept it anyway
    graph = workload.graph_from_dict({"input_shape": [1, 4, 4, 4], "nodes": [
        {"id": "c1", "kind": "conv2d", "c_in": 4, "c_out": 4, "k": 1},
        {"id": "g1", "kind": "gelu", "preds": ["c1"]},
        {"id": "c2", "kind": "conv2d", "c_in": 4, "c_out": 4, "k": 1, "preds": ["g1"]},
        {"id": "g2", "kind": "gelu", "preds": ["c2"]},
        {"id": "l", "kind": "linear", "c_in": 4, "c_out": 4, "preds": ["g2"]}]})
    assert [n.id for n, _ in cli.pruning_points(graph)] == ["g2"]
    ref = cli.Reference(graph, 0, True)
    ref.start()
    assert set(ref.join()) == {"g2", "l"}


def test_reference_step_frees_non_boundary_outputs(monkeypatch):
    """A buffer that is not kept is dead once the last consumer of the output
    it holds has run, and every buffer but the kept ones once the reference step
    returns. A donated buffer holds its consumer's output from then on."""
    graph = build_preset("pvtv2-micro")
    order = {n.id: i for i, n in enumerate(graph.nodes)}
    last_read = {p: order[n.id] for n in graph.nodes for p in n.preds}
    kept_ids = boundary_ids(graph)
    outputs, stale, donated = {}, [], set()
    real = workload.layer_forward

    def spy(node, inputs, p, *args, **kwargs):
        stale.extend((node.id, k) for k, ref in outputs.items() if ref() is not None
                     and k not in kept_ids and last_read[k] < order[node.id])
        out = real(node, inputs, p, *args, **kwargs)
        for k in [k for k, ref in outputs.items() if ref() is out]:
            del outputs[k]   # donated: the buffer now holds this node's output
            donated.add(k)
        outputs[node.id] = weakref.ref(out)
        return out

    monkeypatch.setattr(workload, "layer_forward", spy)
    ref = cli.Reference(graph, 0, False)
    ref.start()
    kept = ref.join()
    assert set(kept) == kept_ids
    assert stale == []
    assert donated == {f"s{s}b0_{layer}" for s in range(4) for layer in ("fc1", "dw")}
    assert set(outputs) == set(order) - donated
    dropped = set(outputs) - kept_ids
    assert dropped
    assert all(outputs[node_id]() is None for node_id in dropped)
    assert all(outputs[node_id]() is not None for node_id in kept_ids)


def test_a_donation_into_a_kept_output_raises(monkeypatch):
    """The Reference keeps each output read-only. One that claims to keep nothing
    lets the GELU write into the attention output that it keeps: the write raises."""
    graph = workload.graph_from_dict({"input_shape": [1, 4, 4, 4], "nodes": [
        {"id": "a", "kind": "attention", "heads": 1, "d_head": 4},
        {"id": "g", "kind": "gelu", "preds": ["a"]},
        {"id": "l", "kind": "linear", "c_in": 4, "c_out": 4, "preds": ["g"]}]})
    ref = cli.Reference(graph, 0, False)
    ref.start()
    assert not any(a.flags.writeable for a in ref.join().values())
    monkeypatch.setattr(cli.Reference, "__contains__", lambda self, node_id: False)
    ref = cli.Reference(graph, 0, False)
    ref.start()
    with pytest.raises(ValueError, match="read-only"):
        ref.join()


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
        real(self, node_id, out)
        if node_id in self.stored:
            stored[node_id] = weakref.ref(out)

    monkeypatch.setattr(cli.Reference, "__setitem__", spy)
    return stored


def made_references(monkeypatch) -> list:
    """Every Reference ``cli`` makes, kept alive by the returned list."""
    made = []
    real = cli.Reference.__init__

    def spy(self, *args, **kwargs):
        made.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(cli.Reference, "__init__", spy)
    return made


def run_holding_reference(command: str, monkeypatch) -> cli.ExperimentConfig:
    """Run ``command`` on pvtv2-micro while holding its one Reference; its config."""
    held = made_references(monkeypatch)
    cfg = cli.ExperimentConfig(model="pvtv2-micro")
    if command == "compare":
        cli.compare_experiments(cfg, ["naive", "tiling", "full"])
    elif command == "sweep":
        cli.sweep_experiments(cfg, "scratchpad_bytes", [65536, 262144])
    else:
        cfg = cli.load_config(PRUNING, None, {})
        cli.run_experiment(cfg, cli.simulate(cfg))
    assert len(held) == 1
    return cfg


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
    ends = [u.nodes[-1].id for u in sim["schedule"]]
    assert set(stored) == set(ends)
    assert len(alive_at) == len(ends)
    if reference_timing == "serial":
        assert alive_at == [set(ends[i:]) for i in range(len(ends))]
    assert [k for k, ref in stored.items() if ref() is not None] == []


@pytest.mark.parametrize("command", ["compare", "sweep", "pruned-run"])
def test_shared_or_pruned_reference_keeps_every_output(command, reference_timing,
                                                       monkeypatch):
    stored = stored_outputs(monkeypatch)
    run_holding_reference(command, monkeypatch)
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


# ---------------------------------------------------------------------------
# Plans and rows of one command
# ---------------------------------------------------------------------------

B0_CONFIG = str(Path(__file__).parent / "golden" / "b0-224.json")


def count_tables(monkeypatch) -> list:
    """The geometry of every fusion cost table built: ops and shapes, element
    width and each end's tile extents, in build order."""
    built = []
    real = pipeline.lf._GroupTable.__init__

    def counted(self, layers, hw, extents):
        built.append((tuple((l.node.op, l.in_shape, l.out_shape) for l in layers),
                      hw.element_bytes, tuple(extents)))
        real(self, layers, hw, extents)

    monkeypatch.setattr(pipeline.lf._GroupTable, "__init__", counted)
    return built


# one table per distinct chain geometry, shared by every scratchpad size of the
# sweep and every schedule of the compare (one per chain prefix made 21 and 52)
TABLES_BUILT = {"sweep": 12, "compare": 36}


@pytest.mark.parametrize("argv", [
    ["sweep", "--model", "segformer-micro", "--axis", "scratchpad_bytes",
     "--values", "2048,8192,65536,262144"],
    ["compare", "--config", B0_CONFIG, "--schedules", "naive,tiling,fusion,full"],
])
def test_a_command_builds_each_distinct_table_once(argv, monkeypatch, capsys):
    built = count_tables(monkeypatch)
    assert run_cli(argv, capsys)[0] == 0
    first = list(built)
    assert len(first) == len(set(first)) == TABLES_BUILT[argv[0]]
    assert run_cli(argv, capsys)[0] == 0   # the next command shares none of them
    assert built == first + first


SWEEP_VALUES = {"scratchpad_bytes": "8192,65536", "theta_attn": "0,0.02",
                "theta_act": "0,0.01", "t_q": "2,4"}


@pytest.mark.parametrize("axis", cli.SWEEP_AXES)
def test_sweep_rows_equal_runs_of_their_configs(axis, tmp_path, capsys):
    code, out, _ = run_cli(["sweep", "--model", "pvtv2-micro", "--axis", axis,
                            "--values", SWEEP_VALUES[axis]], capsys)
    assert code == 0
    for row in json.loads(out):
        value = row["value"]
        cfg = {"model": "pvtv2-micro"}
        if axis == "scratchpad_bytes":
            cfg["hardware"] = {"scratchpad_bytes": value}
        elif axis == "t_q":
            cfg["schedule"] = {"attention": every_layer({"t_q": value, "mode": "resident_kv"})}
        else:   # the other threshold stays off, as in the sweep
            cfg["schedule"] = {"pruning": {"theta_attn": 0, "theta_act": 0, axis: value}}
        code, out, _ = run_cli(["run", "--config", write_config(tmp_path, cfg)], capsys)
        assert code == 0
        run = json.loads(out)
        report = run.get("adjusted_report", run["report"])
        for key in ("ema_bytes", "macs", "cycles", "energy_pj"):
            assert row[key] == report[key], (key, value)
        assert row["max_abs_deviation"] == run["max_abs_deviation"]
        assert ("skipped_macs" in row) == ("pruning" in run) == (axis.startswith("theta"))
        if "pruning" in run:
            assert row["skipped_macs"] == sum(l["skipped_macs"] for l in run["pruning"])


@pytest.mark.parametrize("heads", [16384, 65536])
def test_unfit_projection_weights_exit_2_at_once(heads, tmp_path, capsys):
    # the pass's block transactions used to be built before its weights' alloc failed
    node = {"id": "a", "kind": "attention", "heads": heads, "d_head": 1, "sr_ratio": 1}
    cfg = write_config(tmp_path, {"model": {"graph": {"input_shape": [1, heads, 4, 4],
                                                      "nodes": [node]}}})
    start = time.perf_counter()
    code, out, err = run_cli(["run", "--config", cfg], capsys)
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (2, "")
    need, room = heads * heads, 256 * 1024
    assert err == (f"infeasible schedule: a: alloc 'attnQ_w' needs {need} B but only "
                   f"{room} B available (deficit {need - room} B)\n")


OUT_OF_MEMORY = "Unable to allocate 8.00 EiB for an array with shape (1152921504606846976,)"


def out_of_memory_at(module, node_id, monkeypatch):
    """``module.layer_forward`` fails to allocate node ``node_id``'s output."""
    real = module.layer_forward

    def forward(node, *args, **kwargs):
        if node.id == node_id:
            raise MemoryError(OUT_OF_MEMORY)
        return real(node, *args, **kwargs)

    monkeypatch.setattr(module, "layer_forward", forward)


def test_reference_out_of_memory_exits_1_naming_the_node(reference_timing, monkeypatch,
                                                         capsys):
    out_of_memory_at(workload, "c2", monkeypatch)
    code, out, err = run_cli(["run", "--model", "toy-chain"], capsys)
    assert (code, out) == (1, "")
    assert err == f"config error: c2: out of memory in the reference ({OUT_OF_MEMORY})\n"


def test_unit_out_of_memory_exits_1_naming_the_unit(reference_timing, monkeypatch, capsys):
    out_of_memory_at(pipeline.lf, "c2", monkeypatch)
    code, out, err = run_cli(["run", "--model", "toy-chain"], capsys)
    assert (code, out) == (1, "")
    assert err == f"config error: chain[c0,c1,c2,c3]: out of memory ({OUT_OF_MEMORY})\n"


# ---------------------------------------------------------------------------
# Parameters drawn on first read
# ---------------------------------------------------------------------------

PARAM_GRAPHS = {**{name: build_preset(name) for name in PRESETS},
                "b0-224": cli.build_graph(json.loads(Path(B0_CONFIG).read_text())["model"])}


def assert_params_equal(got, want):
    assert set(got) == set(want)
    for node_id, p in want.items():
        assert list(got[node_id]) == list(p), node_id
        for key, a in p.items():
            assert (got[node_id][key].dtype, got[node_id][key].shape) == (a.dtype, a.shape)
            assert got[node_id][key].tobytes() == a.tobytes(), (node_id, key)
            assert not got[node_id][key].flags.writeable


@contextlib.contextmanager
def fast_thread_switching():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def count_draws(monkeypatch, slow: bool = False) -> Counter:
    """Count ``node_params`` calls by node id; ``slow`` widens each draw's window."""
    drawn = Counter()
    real = cli.node_params

    def counted(node, idx, seed):
        drawn[node.id] += 1
        if slow:
            time.sleep(0.001)
        return real(node, idx, seed)

    monkeypatch.setattr(cli, "node_params", counted)
    return drawn


@pytest.mark.parametrize("order", ["graph", "reverse", "threads"])
@pytest.mark.parametrize("name", PARAM_GRAPHS)
def test_params_drawn_on_read_equal_init_params(name, order, monkeypatch):
    graph, drawn = PARAM_GRAPHS[name], count_draws(monkeypatch)
    params = cli.Params(graph, 5)
    ids = [n.id for n in graph.nodes]
    if order == "threads":   # two read in graph order and two in reverse, on two cores
        threads = [threading.Thread(target=lambda ids=ids[::step]: [params[k] for k in ids])
                   for step in (1, -1, 1, -1)]
        with fast_thread_switching():
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        assert not any(t.is_alive() for t in threads)
    else:
        for node_id in ids if order == "graph" else reversed(ids):
            params[node_id]
    assert drawn == Counter(ids)
    assert_params_equal(dict(params), workload.init_params(graph, 5))


def test_reading_drawn_params_takes_no_lock():
    params = cli.Params(build_preset("toy-chain"), 0)
    drawn = params["c1"]
    with params.lock:   # a read that waited for it would not return
        assert read_in_thread(params, "c1") is None
    assert params["c1"] is drawn


# every command runs pvtv2-micro (the model of configs/pruning_sweep.json)
DRAW_COMMANDS = {
    "run": ["run", "--model", "pvtv2-micro"],
    "pruned-run": ["run", "--config", PRUNING],
    "compare": ["compare", "--model", "pvtv2-micro", "--schedules", "naive,tiling,fusion,full"],
    "sweep": ["sweep", "--config", PRUNING, "--axis", "theta_attn", "--values", "0,0.01,0.02"],
}


def once_each() -> Counter:
    return Counter(n.id for n in build_preset("pvtv2-micro").nodes)


@pytest.mark.parametrize("command", DRAW_COMMANDS)
def test_each_node_is_drawn_once_per_command(command, reference_timing, monkeypatch, capsys):
    argv = DRAW_COMMANDS[command]
    drawn = count_draws(monkeypatch)
    assert run_cli(argv, capsys)[0] == 0
    assert drawn == once_each()


def test_each_node_is_drawn_once_under_fast_thread_switching(monkeypatch, capsys):
    """Both threads reach the first nodes together: no node is drawn twice, and none
    again after its unit drops it."""
    monkeypatch.setattr(cli, "SERIAL_MAX_ELEMENTS", 0)
    drawn = count_draws(monkeypatch, slow=True)
    with fast_thread_switching():
        for argv in DRAW_COMMANDS.values():
            drawn.clear()
            assert run_cli(argv, capsys)[0] == 0
            assert drawn == once_each(), argv


def drawn_arrays(monkeypatch) -> dict:
    """Weak references to each node's drawn param arrays, by node id."""
    drawn = {}
    real = cli.node_params

    def spy(node, idx, seed):
        p = real(node, idx, seed)
        drawn[node.id] = [weakref.ref(a) for a in p.values()]
        return p

    monkeypatch.setattr(cli, "node_params", spy)
    return drawn


def alive(drawn: dict) -> set:
    return {k for k, refs in drawn.items() if any(ref() is not None for ref in refs)}


def test_run_drops_each_units_params_once_it_is_checked(reference_timing, monkeypatch):
    """Serial, each unit's params are dead once the next unit starts; either way
    none is alive once the run returns."""
    drawn = drawn_arrays(monkeypatch)
    alive_at = []

    def spy(run):
        def wrapped(*args, **kwargs):
            alive_at.append(alive(drawn))
            return run(*args, **kwargs)
        return wrapped

    for owner, name in ((pipeline.lf, "fused_execute"), (pipeline, "attention_unit_execute"),
                        (pipeline, "add_unit_execute")):
        monkeypatch.setattr(owner, name, spy(getattr(owner, name)))
    sim = cli.simulate(cli.ExperimentConfig(model="pvtv2-micro"))
    units = [[n.id for n in u.nodes] for u in sim["schedule"]]
    with_params = {k for k, refs in drawn.items() if refs}
    assert set(drawn) == {k for ids in units for k in ids}
    assert len(alive_at) == len(units)
    if reference_timing == "serial":
        assert alive_at == [{k for ids in units[i:] for k in ids} & with_params
                            for i in range(len(units))]
    assert alive(drawn) == set()


@pytest.mark.parametrize("command", ["compare", "sweep", "pruned-run"])
def test_shared_or_pruned_reference_keeps_every_nodes_params(command, reference_timing,
                                                             monkeypatch):
    drawn = drawn_arrays(monkeypatch)
    cfg = run_holding_reference(command, monkeypatch)
    assert set(drawn) == {n.id for n in cli.build_graph(cfg.model).nodes}
    assert alive(drawn) == {k for k, refs in drawn.items() if refs}


@pytest.mark.parametrize("command", ["run", "compare"])
def test_params_out_of_memory_exits_1_naming_the_node(command, reference_timing,
                                                      monkeypatch, capsys):
    real = cli.node_params

    def draw(node, idx, seed):
        if node.id == "c2":
            raise MemoryError(OUT_OF_MEMORY)
        return real(node, idx, seed)

    monkeypatch.setattr(cli, "node_params", draw)
    code, out, err = run_cli([command, "--model", "toy-chain"], capsys)
    assert (code, out) == (1, "")
    assert err == (f"config error: c2: out of memory drawing its parameters "
                   f"({OUT_OF_MEMORY})\n")


def test_input_out_of_memory_exits_1_naming_it(reference_timing, monkeypatch, capsys):
    def draw(graph, seed):
        raise MemoryError(OUT_OF_MEMORY)

    monkeypatch.setattr(cli, "seeded_input", draw)
    before = threading.active_count()
    code, out, err = run_cli(["run", "--model", "toy-chain"], capsys)
    assert (code, out) == (1, "")
    assert err == f"config error: input: out of memory drawing it ({OUT_OF_MEMORY})\n"
    assert threading.active_count() == before
