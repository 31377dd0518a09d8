"""Benchmark convformer-sim through its command line.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the simulator is imported from its
``src`` directory. Every op is one ``convformer_sim.cli.main`` call in a fresh
interpreter (``opchild.py``), run one at a time, so no in-process cache
carries from one repetition to the next. Each op's output is checked
(``check.py``). The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from check import SIM_KEYS, check_output  # noqa: E402
from opchild import EXIT_WRONG_PACKAGE  # noqa: E402
from tracer import REJECTING, TRACED  # noqa: E402

CLOCK = time.CLOCK_MONOTONIC
MIN_REPS = 5            # repetitions per untraced run, even past --seconds
SETUP_PROBES = 4        # extra set-ups per untraced run, for a steadier setup_s
RUN_BUDGET_S = 170.0    # no op may still be running after this
# One BLAS thread: ops run one at a time, and a second BLAS thread only spins
# against whatever else holds the other core (measured: more CPU, no faster).
OP_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
              MKL_NUM_THREADS="1")

B0 = "{b0_config}"
SEED = "{seed}"


# The CLI arguments of each op; why each workload was chosen is in README.md.
WORKLOADS: dict[str, tuple[tuple[str, ...], ...]] = {
    "b0-224-run": (("run", "--config", B0),),
    "micro-sweeps": (
        ("sweep", "--model", "segformer-micro", "--seed", SEED,
         "--axis", "scratchpad_bytes", "--values", "2048,8192,65536,262144"),
        ("sweep", "--config", "configs/pruning_sweep.json", "--seed", SEED,
         "--axis", "theta_attn", "--values", "0,0.005,0.01,0.02,0.05"),
        ("compare", "--model", "segformer-micro", "--seed", SEED,
         "--schedules", "naive,tiling"),
    ),
}


class BenchError(Exception):
    """The benchmark cannot measure here; no result is printed."""


def clock() -> float:
    return time.clock_gettime(CLOCK)


@dataclass
class Rep:
    """One repetition: every op of the workload once."""
    traced: bool
    setup_s: float = 0.0
    wall_s: float = 0.0
    rss_kb: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    sims: dict | None = None
    traces: list[dict] = field(default_factory=list)


class Runner:
    """Runs repetitions of one workload and keeps the run inside its budget."""

    def __init__(self, workload: str, seed: int, workdir: Path,
                 spans_dir: Path | None):
        self.workload = workload
        self.ops = WORKLOADS[workload]
        self.seed = seed
        self.workdir = workdir
        self.spans_dir = spans_dir
        self.start = clock()
        self.reps = 0
        self.timed_out = False

    def elapsed(self) -> float:
        return clock() - self.start

    def _inputs(self) -> dict[str, str]:
        """Generate this repetition's inputs from the seed."""
        subst = {SEED: str(self.seed)}
        if any(B0 in op for op in self.ops):
            from b0graph import b0_config
            path = self.workdir / f"b0-{self.reps}.json"
            path.write_text(json.dumps(b0_config(self.seed)))
            subst[B0] = str(path)
        return subst

    def rep(self, traced: bool = False, setup_only: bool = False) -> Rep:
        """Set up and run every op once; ``setup_only`` stops each op before ``main``."""
        rep = Rep(traced)
        t0 = clock()
        subst = self._inputs()
        rep.setup_s = clock() - t0
        sims = dict.fromkeys(SIM_KEYS, 0)
        for i, op in enumerate(self.ops):
            argv = [subst.get(a, a) for a in op]
            op_id = f"{self.workload}/seed{self.seed}/rep{self.reps}/op{i}"
            spans = (str(self.spans_dir / f"rep{self.reps}-op{i}.jsonl")
                     if traced and self.spans_dir else None)
            env, problem = self._spawn({"src": str(SRC), "argv": argv,
                                        "trace": traced, "op_id": op_id,
                                        "spans_path": spans,
                                        "setup_only": setup_only})
            rep.attempted += not setup_only
            if env is None:
                rep.failures.append(f"{op_id}: {problem}")
                sims = None
                continue
            rep.setup_s += env["t_enter"] - env["t_spawn"]
            if setup_only:
                continue
            rep.wall_s += env["t_exit"] - env["t_enter"]
            rep.rss_kb = max(rep.rss_kb, env["maxrss_kb"])
            if traced:
                rep.traces.append(env["trace"])
            problems, op_sims = check_output(argv, env["code"], env["stdout"])
            if problems:
                rep.failures.append(f"{op_id}: " + "; ".join(problems))
                sims = None
            elif sims is not None:
                for k in SIM_KEYS:
                    sims[k] += op_sims[k]
        rep.sims = sims
        self.reps += 1
        return rep

    def _spawn(self, spec: dict) -> tuple[dict | None, str]:
        timeout = RUN_BUDGET_S - self.elapsed()
        if timeout <= 0:
            self.timed_out = True
            return None, "not started: run budget spent"
        t_spawn = clock()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "opchild.py"), json.dumps(spec)],
                cwd=ROOT, env=OP_ENV, capture_output=True, text=True,
                timeout=timeout)
        except subprocess.TimeoutExpired:
            self.timed_out = True
            return None, f"timed out after {timeout:.0f} s"
        if proc.returncode == EXIT_WRONG_PACKAGE:
            raise BenchError(proc.stderr.strip())
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
            return None, f"op process exited {proc.returncode}: {tail[0]}"
        env = json.loads(proc.stdout)
        env["t_spawn"] = t_spawn
        return env, ""


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least 10 samples beyond it."""
    n = len(values)
    if n <= 10:
        return "none (fewer than 11 samples)"
    return f"p{100 * (n - 10) / n:g}={sorted(values)[n - 11]:.4f} s"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: the result object plus ``problems`` and ``summary``."""
    if not (SRC / "convformer_sim" / "cli.py").is_file():
        raise BenchError(f"no convformer_sim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    problems: list[str] = []
    if any(B0 in op for op in WORKLOADS[workload]):
        from b0graph import self_test
        try:
            self_test()
        except AssertionError as e:
            problems.append(f"b0graph self-test: {e}")

    spans_dir = None
    if trace:
        spans_dir = ROOT / ".perfbench-out" / f"{workload}-seed{seed}"
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)
    tmp_root = ROOT / ".perfbench-tmp"
    tmp_root.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
            runner = Runner(workload, seed, Path(tmp), spans_dir)
            reps: list[Rep] = []
            longest = 0.0
            while True:
                t0 = runner.elapsed()
                if trace:
                    reps += [runner.rep(), runner.rep(traced=True)]
                    done = runner.elapsed() >= seconds
                else:
                    reps.append(runner.rep())
                    done = len(reps) >= MIN_REPS and runner.elapsed() >= seconds
                longest = max(longest, runner.elapsed() - t0)
                if (done or runner.timed_out
                        or runner.elapsed() + longest > RUN_BUDGET_S):
                    break
            setups = [r.setup_s for r in reps if not r.traced]
            if not trace:
                setups += [runner.rep(setup_only=True).setup_s for _ in range(SETUP_PROBES)]
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    attempted = sum(r.attempted for r in reps)
    failed = sum(len(r.failures) for r in reps)
    problems += [f for r in reps for f in r.failures]
    sims = [r.sims for r in reps if r.sims is not None]
    if any(s != sims[0] for s in sims):
        problems.append(f"modeled totals differ between repetitions: {sims}")
    plain = [r for r in reps if not r.traced]
    walls = [r.wall_s for r in plain]
    summary = {"workload": workload, "seed": seed, "reps": len(plain),
               "wall_s": walls, "wall_s_tail": tail_percentile(walls),
               "setup_s": setups, "sims": sims[0] if sims else None}

    if trace:
        traced = [r for r in reps if r.traced]
        layers = [layer_metrics(r) for r in traced]
        if any(lay["hwmodel"] != layers[0]["hwmodel"] for lay in layers):
            problems.append("hwmodel counts differ between traced repetitions")
        values = {name: statistics.median(lay["metrics"].get(name, 0) for lay in layers)
                  for name in PER_LAYER_UNITS}
        values["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                      - statistics.median(walls))
        summary["traced_wall_s"] = [r.wall_s for r in traced]
        summary["hwmodel"] = layers[0]["hwmodel"]
        units = PER_LAYER_UNITS
    else:
        first = sims[0] if sims else dict.fromkeys(SIM_KEYS, 0)
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r.rss_kb for r in plain) / 1024,
            "ok_ops": (attempted - failed) / attempted,
            "sim_ema_bytes": first["ema_bytes"],
            "sim_cycles": first["cycles"],
            "sim_energy_pj": first["energy_pj"],
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "problems": problems, "summary": summary}


END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "ok_ops": "ratio", "sim_ema_bytes": "B", "sim_cycles": "cycles",
                    "sim_energy_pj": "pJ"}

HWMODEL_KEYS = ("ema_bytes", "sram_accesses", "high_water_bytes")


def _per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for module, names in TRACED.items():
        for fname in names:
            units[f"{module}.{fname}.self_s"] = "s"
            units[f"{module}.{fname}.total_s"] = "s"
            units[f"{module}.{fname}.calls"] = "count"
    for name in REJECTING:
        units[f"{name}.rejects"] = "count"
        units[f"{name.partition('.')[0]}.feasible_ratio"] = "ratio"
    units.update({"feature_pruning.skipped_macs": "MAC", "hwmodel.sim_ops": "count"})
    units.update({f"hwmodel.{k}": "B" for k in HWMODEL_KEYS})
    units["trace.overhead_s"] = "s"
    return units


PER_LAYER_UNITS = _per_layer_units()


def layer_metrics(rep: Rep) -> dict:
    """Per-layer metrics of one traced repetition, summed over its ops.

    The modeled ``hwmodel`` counts are sums over every ``build_report``,
    except high water, which is the maximum.
    """
    m: dict[str, float] = {}

    def add(name: str, value: float) -> None:
        m[name] = m.get(name, 0) + value

    hw = dict.fromkeys(HWMODEL_KEYS, 0)
    for t in rep.traces:
        for name, calls in t["calls"].items():
            add(f"{name}.calls", calls)
            add(f"{name}.self_s", t["self_s"][name])
            add(f"{name}.total_s", t["total_s"][name])
        for name, n in t["rejects"].items():
            add(f"{name}.rejects", n)
        add("feature_pruning.skipped_macs", t["skipped_macs"])
        add("hwmodel.sim_ops", t["sim_ops"])
        hw["ema_bytes"] += t["modeled"]["ema_bytes"]
        hw["sram_accesses"] += t["modeled"]["sram_accesses"]
        hw["high_water_bytes"] = max(hw["high_water_bytes"],
                                     t["modeled"]["high_water_bytes"])
    for name in REJECTING:
        calls = m.get(f"{name}.calls", 0)
        ok = calls - m.get(f"{name}.rejects", 0)
        m[f"{name.partition('.')[0]}.feasible_ratio"] = ok / calls if calls else 1.0
    m.update({f"hwmodel.{k}": v for k, v in hw.items()})
    return {"metrics": m, "hwmodel": hw}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    for problem in result.pop("problems"):
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps(result.pop("summary")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
