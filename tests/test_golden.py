"""Golden CLI outputs: byte-exact stdout and exit code for fixed commands.

Every case in ``golden_cases`` is replayed through ``cli.main`` and must
reproduce the stored stdout byte for byte and the stored exit code. The set
covers ``run`` and a four-schedule ``compare`` on every preset at four
scratchpad sizes (at the smallest, ``compare`` is infeasible, exit 2, on three
presets), plus ``run`` on a SegFormer-B0-shaped 224x224 graph
(``golden/b0-224.json``). Further cases cover both README sweeps, two
``t_q`` sweeps (one exits 1, one runs), pruning runs in JSON and CSV,
``element_bytes=2``, a fixed fusion plan (``golden/fixed-fusion.json``:
cache and streamed-weight groups beside singleton chains), a fixed streaming
attention tiling (``golden/fixed-attention.json``) in ``run`` and in a
``t_q`` sweep, a ``theta_act``
sweep in JSON and CSV, and a threshold sweep whose first row is infeasible.
Every case runs twice: once as the command runs it (the reference overlaps
the schedule on the B0 graph only) and once with every reference overlapping
its schedule.

To see what a change does to them, without writing anything::

    PYTHONPATH=src python tests/test_golden.py --diff

which prints each golden that differs: its changed paths (``-`` only in the
golden, ``+`` only in the new output, ``~`` changed value), where a CSV
output counts as a list of rows keyed by column, so a changed cell reads
``~[0].max_abs_deviation``; a line diff for any other output; and any
exit-code change. It exits 1 if any golden differs. To rewrite the goldens
after a deliberate, documented change of output::

    PYTHONPATH=src python tests/test_golden.py
"""

import argparse
import contextlib
import csv
import difflib
import io
import json
import sys
import threading
from pathlib import Path

import pytest

from convformer_sim import cli
from convformer_sim.workload import PRESETS

GOLDEN = Path(__file__).parent / "golden"
PRUNING = str(Path(__file__).parent.parent / "configs" / "pruning_sweep.json")
EXITS = GOLDEN / "exit_codes.json"
SCRATCHPADS = (2048, 8192, 65536, 262144)


def golden_cases() -> list[dict]:
    cases = []
    for preset in PRESETS:
        for cap in SCRATCHPADS:
            hw = f"--hw.scratchpad_bytes={cap}"
            cases.append({"name": f"run-{preset}-{cap}",
                          "argv": ["run", "--model", preset, hw]})
            cases.append({"name": f"compare-{preset}-{cap}",
                          "argv": ["compare", "--model", preset, "--schedules",
                                   "naive,tiling,fusion,full", hw]})
    cases.append({"name": "run-b0-224",
                  "argv": ["run", "--config", str(GOLDEN / "b0-224.json")]})
    cases += [
        {"name": "sweep-segformer-micro-scratchpad",
         "argv": ["sweep", "--model", "segformer-micro", "--axis",
                  "scratchpad_bytes", "--values", "2048,8192,65536,262144"]},
        {"name": "sweep-pruning-theta-attn",
         "argv": ["sweep", "--config", PRUNING, "--axis", "theta_attn",
                  "--values", "0,0.005,0.01,0.02,0.05"]},
        {"name": "run-pruning", "argv": ["run", "--config", PRUNING]},
        {"name": "run-pruning-csv",
         "argv": ["run", "--config", PRUNING, "--format", "csv"]},
        {"name": "sweep-pvtv2-micro-tq",
         "argv": ["sweep", "--model", "pvtv2-micro", "--axis", "t_q",
                  "--values", "4,64"]},
        # 64 exceeds N=16 at stage 2, so the case above exits 1 with no
        # output; this one runs the fixed resident tilings it rejects
        {"name": "sweep-pvtv2-micro-tq-divisors",
         "argv": ["sweep", "--model", "pvtv2-micro", "--axis", "t_q",
                  "--values", "1,2,4"]},
        {"name": "run-pvtv2-micro-eb2",
         "argv": ["run", "--model", "pvtv2-micro", "--hw.element_bytes=2"]},
        {"name": "run-fixed-fusion",
         "argv": ["run", "--config", str(GOLDEN / "fixed-fusion.json")]},
        {"name": "run-fixed-attention",
         "argv": ["run", "--config", str(GOLDEN / "fixed-attention.json")]},
        {"name": "sweep-fixed-attention-tq",
         "argv": ["sweep", "--config", str(GOLDEN / "fixed-attention.json"),
                  "--axis", "t_q", "--values", "2,4"]},
        {"name": "sweep-pruning-theta-act",
         "argv": ["sweep", "--config", PRUNING, "--axis", "theta_act",
                  "--values", "0,0.001,0.01"]},
        {"name": "sweep-pruning-theta-act-csv",
         "argv": ["sweep", "--config", PRUNING, "--axis", "theta_act",
                  "--values", "0,0.001,0.01", "--format", "csv"]},
        # the first row is infeasible (exit 2) before the second row's bad
        # threshold is ever parsed (that alone would exit 1)
        {"name": "sweep-pruning-theta-attn-infeasible",
         "argv": ["sweep", "--config", PRUNING, "--hw.scratchpad_bytes=1024",
                  "--axis", "theta_attn", "--values=0.01,-1"]},
    ]
    return cases


def replay(argv: list[str]) -> tuple[int, str]:
    return replay_with_stderr(argv)[:2]


def replay_with_stderr(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _expected_exits() -> dict[str, int]:
    return json.loads(EXITS.read_text())


@pytest.mark.parametrize("case", golden_cases(), ids=lambda c: c["name"])
def test_golden_output(case):
    code, out = replay(case["argv"])
    assert code == _expected_exits()[case["name"]]
    assert out == (GOLDEN / f"{case['name']}.out").read_text()


@pytest.mark.parametrize("case", golden_cases(), ids=lambda c: c["name"])
def test_golden_output_with_every_reference_overlapped(case, monkeypatch):
    # every graph has an activation above 0 elements, so each runs its
    # reference beside its schedule
    code = _expected_exits()[case["name"]]
    serial_err = replay_with_stderr(case["argv"])[2] if code else ""
    monkeypatch.setattr(cli, "SERIAL_MAX_ELEMENTS", 0)
    assert replay_with_stderr(case["argv"]) == (
        code, (GOLDEN / f"{case['name']}.out").read_text(), serial_err)


@pytest.mark.parametrize("model, overlaps", [
    *((name, False) for name in PRESETS),
    (json.loads((GOLDEN / "b0-224.json").read_text())["model"], True),
])
@pytest.mark.parametrize("forced", [False, True], ids=["gate", "forced"])
def test_only_a_large_graph_overlaps_reference_and_schedule(model, overlaps, forced,
                                                            monkeypatch):
    """``start`` returns while the reference runs only on a graph with an activation
    above ``SERIAL_MAX_ELEMENTS``; on any other it waits for the reference to end."""
    if forced:
        monkeypatch.setattr(cli, "SERIAL_MAX_ELEMENTS", 0)
    overlaps = overlaps or forced
    go, real = threading.Event(), cli.reference_execute

    def held(*args, **kwargs):   # the reference cannot end before ``go`` is set
        assert go.wait(30)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "reference_execute", held)
    ref = cli.Reference(cli.build_graph(model), 0, False)
    starter = threading.Thread(target=ref.start)
    starter.start()
    starter.join(10 if overlaps else 0.2)
    try:
        assert starter.is_alive() != overlaps
    finally:
        go.set()
        starter.join(30)
    ref.join()


def test_every_golden_has_a_case():
    assert sorted(_expected_exits()) == sorted(c["name"] for c in golden_cases())


def json_paths(old, new, path: str = "") -> list[str]:
    """Each path at which two parsed JSON values differ, marked ``-`` (only in
    ``old``), ``+`` (only in ``new``) or ``~`` (changed)."""
    if isinstance(old, dict) and isinstance(new, dict):
        paths = []
        for key in sorted(set(old) | set(new)):
            sub = f"{path}.{key}" if path else key
            if key not in new:
                paths.append("-" + sub)
            elif key not in old:
                paths.append("+" + sub)
            else:
                paths += json_paths(old[key], new[key], sub)
        return paths
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [p for i, (a, b) in enumerate(zip(old, new))
                for p in json_paths(a, b, f"{path}[{i}]")]
    return [] if type(old) is type(new) and old == new else ["~" + (path or "$")]


def test_json_paths_names_each_changed_leaf():
    old = {"a": {"b": 1, "gone": True}, "rows": [{"x": 1.0}, {"x": 2}], "s": "k"}
    new = {"a": {"b": 1, "new": None}, "rows": [{"x": 1}, {"x": 3}], "s": "k"}
    assert json_paths(old, new) == ["-a.gone", "+a.new", "~rows[0].x", "~rows[1].x"]
    assert json_paths([1, 2], [1]) == ["~$"]
    assert json_paths(old, old) == []


def parse_output(text: str):
    """A golden's stdout as JSON, or as CSV rows keyed by column; None if
    it is neither (empty output, say)."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        rows = list(csv.reader(io.StringIO(text)))
    if len(rows) > 1 and len(rows[0]) > 1 and all(len(r) == len(rows[0]) for r in rows):
        return [dict(zip(rows[0], r)) for r in rows[1:]]
    return None


def test_parse_output_reads_csv_by_column():
    old = parse_output("cycles,max_abs_deviation\n10,1e-16\n20,0.0\n")
    new = parse_output("cycles,max_abs_deviation\n10,2e-16\n20,0.0\n")
    assert old == [{"cycles": "10", "max_abs_deviation": "1e-16"},
                   {"cycles": "20", "max_abs_deviation": "0.0"}]
    assert json_paths(old, new) == ["~[0].max_abs_deviation"]
    assert parse_output('{"a": [1]}') == {"a": [1]}
    assert parse_output("") is None
    assert parse_output("not,a\ntable\n") is None


def diff_goldens() -> int:
    """Print how each golden differs from a fresh replay; 1 if any does."""
    exits = _expected_exits()
    differs = False
    for case in golden_cases():
        name = case["name"]
        code, out = replay(case["argv"])
        old = (GOLDEN / f"{name}.out").read_text()
        if code == exits[name] and out == old:
            continue
        differs = True
        print(f"{name}:")
        if code != exits[name]:
            print(f"  exit {exits[name]} -> {code}")
        if out == old:
            continue
        old_data, new_data = parse_output(old), parse_output(out)
        if old_data is not None and new_data is not None:
            changes = json_paths(old_data, new_data)
        else:
            changes = list(difflib.unified_diff(old.splitlines(), out.splitlines(),
                                                "golden", "output", lineterm=""))
        for line in changes or ["(same data, different text)"]:
            print(f"  {line}")
    return int(differs)


def write_goldens() -> None:
    exits = {}
    for case in golden_cases():
        code, out = replay(case["argv"])
        (GOLDEN / f"{case['name']}.out").write_text(out)
        exits[case["name"]] = code
        print(f"{case['name']}: exit {code}, {len(out)} chars", file=sys.stderr)
    EXITS.write_text(json.dumps(exits, indent=1) + "\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Rewrite the CLI goldens.")
    parser.add_argument("--diff", action="store_true",
                        help="print how each golden differs; write nothing")
    if parser.parse_args().diff:
        sys.exit(diff_goldens())
    write_goldens()
