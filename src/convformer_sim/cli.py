"""Experiment orchestration CLI: run | compare | sweep | presets.

Configuration comes from a JSON file plus command-line overrides (flags win
over file fields, which win over defaults). Reports embed the resolved
hardware config and seed, and all outputs are byte-deterministic for a fixed
config and seed. Exit codes: 0 ok, 1 config error, 2 infeasible schedule,
3 equivalence or self-check failure (an unpruned result deviates from the
reference by more than the tolerance, a closed-form EMA disagrees with the
simulator, or a schedule breaks the simulator's rules); on an equivalence
failure the output is still written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
import threading
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import attention_tiling as at
from . import feature_pruning as fp
from . import layer_fusion as lf
from . import pipeline
from .errors import ConfigError, SimError
from .hwmodel import CostReport, HardwareConfig, check_keys, parse_number
from .workload import (Attention, GELU, Linear, NetworkGraph, PRESETS,
                       attention_operands, build_preset,
                       graph_from_dict, init_params, reference_execute,
                       seeded_input)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_EQUIVALENCE = 3
# A graph whose largest activation (input included) has at most this many elements runs its
# reference before its schedule: overlapping them made micro-sweeps wall_s 21% slower.
SERIAL_MAX_ELEMENTS = 1 << 15

SCHEDULE_PRESETS = {
    "naive": ("baseline", "singleton"),
    "tiling": ("auto", "singleton"),
    "fusion": ("baseline", "auto"),
    "full": ("auto", "auto"),
}


@dataclass
class ExperimentConfig:
    model: str | dict = "toy-chain"
    hardware: HardwareConfig = field(default_factory=HardwareConfig)
    attention: str | dict = "auto"
    fusion: str | dict = "auto"
    pruning: fp.PruneConfig | None = None
    seed: int = 0
    tolerance: float = 1e-6

    def resolved_dict(self) -> dict:
        sched: dict = {
            "attention": self.attention,
            "fusion": self.fusion,
            "pruning": "off" if self.pruning is None else dict(
                asdict(self.pruning), granularity=self.pruning.granularity.value),
        }
        return {"model": self.model, "hardware": self.hardware.to_dict(),
                "schedule": sched, "seed": self.seed, "tolerance": self.tolerance}


def load_config(path: str | None, args: argparse.Namespace,
                hw_overrides: dict) -> ExperimentConfig:
    raw: dict = {}
    if path:
        try:
            with open(path) as f:
                raw = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot read config {path!r}: {e}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"config {path!r} is not valid JSON "
                              f"(line {e.lineno}, column {e.colno}): {e.msg}")
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
    check_keys("config", raw, ("model", "hardware", "schedule", "seed", "tolerance"))

    model = raw.get("model", "toy-chain")
    if not isinstance(model, str):
        check_keys("model", model, ("preset", "graph"))
        if "preset" in model and "graph" in model:
            raise ConfigError("model: give exactly one of preset or graph")
    if getattr(args, "model", None):
        model = args.model

    hw_raw = raw.get("hardware", {})
    check_keys("hardware", hw_raw, HardwareConfig.__dataclass_fields__)
    hardware = HardwareConfig.from_dict({**hw_raw, **hw_overrides})

    sched = raw.get("schedule", {})
    check_keys("schedule", sched, ("attention", "fusion", "pruning"))
    attention = sched.get("attention", "auto")
    if isinstance(attention, dict):
        attention = at.tiling_spec(attention)
    elif attention not in ("auto", "baseline"):
        raise ConfigError(f"schedule.attention must be auto, baseline, or a "
                          f"tiling object, got {attention!r}")
    fusion = sched.get("fusion", "auto")
    if not (fusion in ("auto", "singleton") or isinstance(fusion, dict) and all(
            isinstance(groups, list) for groups in fusion.values())):
        raise ConfigError("schedule.fusion must be auto, singleton, or a map of chain "
                          f'index to group lists ({{"0": [...]}}), got {fusion!r}')

    pruning_raw = sched.get("pruning", "off")
    pruning: fp.PruneConfig | None
    if pruning_raw == "off" or pruning_raw is None:
        pruning = None
    elif isinstance(pruning_raw, dict):
        check_keys("schedule.pruning", pruning_raw, fp.PruneConfig.__dataclass_fields__)
        thetas = {k: parse_number(f"schedule.pruning.{k}", pruning_raw.get(k, v),
                                  integer=False)
                  for k, v in (("theta_attn", 0.01), ("theta_act", 0.001))}
        try:
            pruning = fp.PruneConfig(
                **thetas,
                granularity=fp.Granularity(pruning_raw.get("granularity", "element")))
        except ValueError as e:
            raise ConfigError(f"schedule.pruning: {e}")
    else:
        raise ConfigError(f"schedule.pruning must be 'off' or an object, "
                          f"got {pruning_raw!r}")

    seed = raw.get("seed", 0)
    if getattr(args, "seed", None) is not None:
        seed = args.seed
    seed = parse_number("seed", seed, integer=True)
    tolerance = raw.get("tolerance", 1e-6)
    if getattr(args, "tolerance", None) is not None:
        tolerance = args.tolerance
    tolerance = parse_number("tolerance", tolerance, integer=False)
    for name, value in (("seed", seed), ("tolerance", tolerance)):
        if value < 0:
            raise ConfigError(f"{name} must be >= 0, got {value}")

    return ExperimentConfig(model=model, hardware=hardware, attention=attention,
                            fusion=fusion, pruning=pruning, seed=seed,
                            tolerance=tolerance)


def build_graph(model: str | dict) -> NetworkGraph:
    if isinstance(model, str):
        return build_preset(model)
    if "preset" in model:
        return build_preset(str(model["preset"]))
    if "graph" in model:
        return graph_from_dict(model["graph"])
    raise ConfigError("model must be a preset name or contain preset/graph")


# ---------------------------------------------------------------------------
# Experiment primitives
# ---------------------------------------------------------------------------

class Reference:
    """The reference run of one model and seed, shared by a command's rows. It keeps
    unit-boundary outputs (alike in every schedule) and, if pruning, GELUs."""

    def __init__(self, graph: NetworkGraph, seed: int, pruning: bool, release: bool = False):
        self.graph, self.seed, self.pruning, self.release = graph, seed, pruning, release
        self.outputs, self.error, self.worker, self.inputs = {}, None, None, None

    def start(self) -> tuple[dict, np.ndarray]:
        """Read-only (params, input); the first call starts the reference on its thread."""
        if self.worker is None:
            params, x = init_params(self.graph, self.seed), seeded_input(self.graph, self.seed)
            for a in (x, *(a for p in params.values() for a in p.values())):
                a.flags.writeable = False
            keep = {nodes[-1].id for _, nodes in lf.split_into_segments(self.graph)}
            keep |= {n.id for n in self.graph.nodes if self.pruning and isinstance(n.op, GELU)}
            self.inputs, self.stored = (params, x), {k: threading.Event() for k in keep}
            self.worker = threading.Thread(target=self._run, args=(x, params))
            shapes = (self.graph.input_shape, *self.graph.shapes.values())
            if max(s.elements for s in shapes) > SERIAL_MAX_ELEMENTS:
                self.worker.start()
            else:   # see SERIAL_MAX_ELEMENTS
                self.worker.run()   # on this thread, to the end
        return self.inputs

    def _run(self, x: np.ndarray, params: dict) -> None:
        try:
            reference_execute(self.graph, x, params, record=self, keep=self.stored)
        except BaseException as e:   # raised again by the reading thread
            self.error = e
        for stored in self.stored.values():   # a failed run stores nothing more
            stored.set()

    def __setitem__(self, node_id: str, out: np.ndarray) -> None:
        self.outputs[node_id] = out
        self.stored[node_id].set()

    def __getitem__(self, node_id: str) -> np.ndarray:
        """Waits until ``node_id`` is stored and, with ``release``, drops it."""
        self.stored[node_id].wait()
        if self.error is not None:
            raise self.error
        return self.outputs.pop(node_id) if self.release else self.outputs[node_id]

    def join(self) -> dict[str, np.ndarray]:
        """Wait for the started reference; its outputs by node id, or its error."""
        if self.worker.is_alive():   # else it ended, or ran in ``start``
            self.worker.join()
        if self.error is not None:
            raise self.error
        return self.outputs

    @property
    def tensors(self) -> tuple[dict, np.ndarray, dict[str, np.ndarray]]:
        """(params, input, outputs by node id) once the reference has finished."""
        return (*self.start(), self.join())


def simulate(cfg: ExperimentConfig, ref: Reference | None = None) -> dict:
    """Plan ``cfg``, then run it (pruning aside), checking each unit against ``ref`` as
    soon as it is stored. A Reference made here drops each once checked, unless pruning."""
    ref = ref or Reference(build_graph(cfg.model), cfg.seed, cfg.pruning is not None,
                           release=cfg.pruning is None)
    schedule = pipeline.plan_network(ref.graph, cfg.hardware, cfg.attention, cfg.fusion)
    params, x = ref.start()
    deviations: list[tuple[str, float]] = []
    try:
        _, report = pipeline.run_schedule(ref.graph, schedule, x, params, cfg.hardware,
                                          seed=cfg.seed, reference=ref, deviations=deviations)
    finally:   # a reference error replaces the schedule's, as if the reference ran first
        ref.join()
    # the last unit's output is the network's (an empty graph outputs its input)
    return {"ref": ref, "schedule": schedule, "report": report, "unit_deviations": deviations,
            "deviation": deviations[-1][1] if deviations else 0.0}


def run_experiment(cfg: ExperimentConfig, sim: dict | None = None) -> dict:
    """The ``run`` result of ``cfg`` from ``sim`` (default: ``simulate(cfg)``)."""
    sim = sim or simulate(cfg)
    result = {
        "config": cfg.resolved_dict(),
        "report": sim["report"].to_dict(),
        "schedule": sim["schedule"].to_dict(),
        "max_abs_deviation": sim["deviation"],
        "equivalence_ok": sim["deviation"] <= cfg.tolerance,
    }
    if cfg.pruning is not None:
        params, x, record = sim["ref"].tensors
        pruned = pruning_analysis(sim["ref"].graph, record, x, params,
                                  cfg.pruning, cfg.hardware)
        stats = pruned["aggregate_stats"]
        adjusted = fp.sparse_cost_adjust(sim["report"], stats, cfg.hardware,
                                         cfg.pruning.granularity)
        result["pruning"] = pruned["layers"]
        result["adjusted_report"] = adjusted.to_dict()
    return result


def pruning_analysis(graph: NetworkGraph, record: dict[str, np.ndarray],
                     x: np.ndarray, params: dict, cfg: fp.PruneConfig,
                     hw: HardwareConfig) -> dict:
    """Layer-level pruning sweep points: attention maps and post-GELU maps.

    ``record`` holds the reference outputs of attention inputs and GELUs,
    ``x`` the network input."""
    layers = []
    total_skipped = 0
    total_elided = 0
    consumers = graph.consumers()
    for node in graph.nodes:
        if isinstance(node.op, Attention):
            xin = record[node.preds[0]] if node.preds else x
            q, k, v = attention_operands(xin, node.op, params[node.id])
            _, stats = fp.pruned_attention_execute(q, k, v, cfg)
            total_skipped += stats.skipped_macs
            total_elided += stats.elided_output_elems
            layers.append({"node": node.id, "point": "attention",
                           **stats.to_dict()})
        elif isinstance(node.op, GELU):
            nxt = consumers[node.id]
            if len(nxt) != 1:
                continue
            nxt_node = graph.node(nxt[0])
            if not isinstance(nxt_node.op, Linear):
                continue
            t = record[node.id]
            tok = t.reshape(t.shape[0], -1).T
            _, stats = fp.prune_activation_map(tok, cfg.theta_act,
                                               cfg.granularity,
                                               nxt_node.op.c_out)
            total_skipped += stats.skipped_macs
            layers.append({"node": node.id, "point": "activation",
                           **stats.to_dict()})
    agg = fp.SparsityStats(skipped_macs=total_skipped,
                           elided_output_elems=total_elided)
    return {"layers": layers, "aggregate_stats": agg}


def compare_experiments(cfg: ExperimentConfig, schedule_names: list[str]) -> tuple:
    for key, default in (("attention", "auto"), ("fusion", "auto"), ("pruning", None)):
        if getattr(cfg, key) != default:
            raise ConfigError(f"compare runs named schedules: leave schedule.{key} unset")
    keys = ("ema_bytes", "cycles", "energy_pj")
    rows, sims, ref = [], [], Reference(build_graph(cfg.model), cfg.seed, False)
    for name in schedule_names:
        if name not in SCHEDULE_PRESETS:
            raise ConfigError(f"unknown schedule {name!r}; "
                              f"known: {sorted(SCHEDULE_PRESETS)}")
        attention, fusion = SCHEDULE_PRESETS[name]
        sims.append(simulate(replace(cfg, attention=attention, fusion=fusion), ref))
        rows.append({"schedule": name,
                     **{k: getattr(sims[-1]["report"], k) for k in keys},
                     "max_abs_deviation": sims[-1]["deviation"]})
    base = rows[0]
    for row in rows:
        for key in keys:
            row[f"{key}_norm"] = row[key] / base[key] if base[key] else 1.0
    return rows, sims


SWEEP_AXES = ("scratchpad_bytes", "theta_attn", "theta_act", "t_q")


def sweep_experiments(cfg: ExperimentConfig, axis: str, values: list) -> tuple:
    """(rows, simulations of unpruned rows), a row per value, its config built just
    before it runs; consecutive rows that differ only in pruning share a simulation."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
    if not values:
        raise ConfigError("sweep values must be a nonempty list")
    pruning = cfg.pruning is not None or axis in ("theta_attn", "theta_act")
    rows, sims, ref = [], [], Reference(build_graph(cfg.model), cfg.seed, pruning)
    simulated: tuple[ExperimentConfig, dict] | None = None
    for value in values:
        sub = cfg
        if axis == "scratchpad_bytes":
            sub = replace(cfg, hardware=replace(cfg.hardware, scratchpad_bytes=(
                parse_number(axis, value, integer=True))))
        elif axis in ("theta_attn", "theta_act"):
            # the un-swept threshold stays off unless the config enables it
            base = cfg.pruning or fp.PruneConfig(theta_attn=0.0, theta_act=0.0)
            sub = replace(cfg, pruning=replace(base, **{
                axis: parse_number(axis, value, integer=False)}))
        elif axis == "t_q":
            # only t_q changes in a configured tiling; otherwise K/V stay resident
            spec = (cfg.attention if isinstance(cfg.attention, dict)
                    else {"mode": at.ResidencyMode.RESIDENT_KV.value})
            sub = replace(cfg, attention=at.tiling_spec(dict(spec, t_q=value)))
        if simulated is None or simulated[0] != replace(sub, pruning=None):
            simulated = replace(sub, pruning=None), simulate(sub, ref)
        res = run_experiment(sub, simulated[1])
        if sub.pruning is None:
            sims.append(simulated[1])
        report = res["adjusted_report"] if "adjusted_report" in res else res["report"]
        row = {"axis": axis, "value": value,
               **{k: report[k] for k in ("ema_bytes", "macs", "cycles", "energy_pj")},
               "max_abs_deviation": res["max_abs_deviation"]}
        if "pruning" in res:
            attn = [l for l in res["pruning"] if l["point"] == "attention"]
            row["granularity"] = sub.pruning.granularity.value
            row["skipped_macs"] = sum(l["skipped_macs"] for l in res["pruning"])
            row["pruned_fraction"] = (sum(l["pruned_fraction"] for l in attn)
                                      / len(attn) if attn else 0.0)
            row["max_output_mse"] = max((l["output_mse"] for l in attn),
                                        default=0.0)
            row["min_output_cosine"] = min((l["output_cosine"] for l in attn),
                                           default=1.0)
        rows.append(row)
    return rows, sims


# ---------------------------------------------------------------------------
# Output formatting
# ---------------------------------------------------------------------------

def emit(data, fmt: str, out_path: str | None):
    if fmt == "json":
        text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    else:
        rows = data if isinstance(data, list) else [data]
        csv_fields = sorted({k for r in rows for k in r
                             if not isinstance(r[k], (dict, list))})
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=csv_fields, extrasaction="ignore",
                                lineterminator="\n")
        writer.writeheader()
        for r in rows:
            writer.writerow(r)
        text = buf.getvalue()
    if out_path:
        with open(out_path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _equivalence_exit(sims: list[dict], tolerance: float) -> int:
    """EXIT_EQUIVALENCE, naming the first unit over ``tolerance`` on stderr, if any."""
    bad = [s for s in sims if not s["deviation"] <= tolerance]
    if not bad:
        return EXIT_OK
    unit = next(u for u, d in bad[0]["unit_deviations"] if not d <= tolerance)
    print(f"equivalence failure: deviation {max(s['deviation'] for s in bad):.3e} > "
          f"{tolerance:.3e}; first unit over it: {unit}", file=sys.stderr)
    return EXIT_EQUIVALENCE


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; 2 means "infeasible" here
    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


HW_FLAG = re.compile(r"^--hw\.([A-Za-z_]+)=(.+)$")


def _extract_hw_overrides(extra: list[str]) -> dict:
    overrides = {}
    for token in extra:
        m = HW_FLAG.match(token)
        if not m:
            raise ConfigError(f"unrecognized argument {token!r}")
        key, value = m.group(1), m.group(2)
        overrides[key] = value
    return overrides


def make_parser() -> _Parser:
    p = _Parser(prog="convformer-sim",
                description="Schedule optimizer and cost simulator for hybrid "
                            "CNN-Transformer accelerator workloads")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON experiment config")
        sp.add_argument("--model", help="preset name (overrides config)")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--tolerance", type=float, default=None,
                        help="max-abs equivalence tolerance (default 1e-6)")
        sp.add_argument("--out", help="output path (default stdout)")
        sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("run", help="run one experiment and emit its cost report")
    common(sp)
    sp = sub.add_parser("compare", help="run several schedules, emit a table")
    common(sp)
    sp.add_argument("--schedules", default="naive,full",
                    help=f"comma list from {sorted(SCHEDULE_PRESETS)}")
    sp = sub.add_parser("sweep", help="sweep one parameter axis")
    common(sp)
    sp.add_argument("--axis", required=True)
    sp.add_argument("--values", required=True,
                    help="comma-separated numeric values")
    sub.add_parser("presets", help="list embedded model presets")
    return p


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args, extra = parser.parse_known_args(argv)
    try:
        hw_overrides = _extract_hw_overrides(extra)
        if args.command == "presets":
            data = []
            for name in PRESETS:
                g = build_preset(name)
                data.append({"name": name, "layers": len(g.nodes),
                             "input_shape": list(g.input_shape.as_tuple())})
            emit(data, "json", None)
            return EXIT_OK

        cfg = load_config(args.config, args, hw_overrides)
        if args.command == "run":
            result = run_experiment(cfg, sim := simulate(cfg))
            if args.format == "csv":
                report = result.get("adjusted_report", result["report"])
                row = {k: report[k] for k in CostReport.CSV_FIELDS}
                row["max_abs_deviation"] = result["max_abs_deviation"]
                emit([row], "csv", args.out)
            else:
                emit(result, "json", args.out)
            return _equivalence_exit([] if cfg.pruning else [sim], cfg.tolerance)
        if args.command == "compare":
            names = [s.strip() for s in args.schedules.split(",") if s.strip()]
            if len(names) < 2:
                raise ConfigError("compare needs at least 2 schedules")
            rows, sims = compare_experiments(cfg, names)
            emit(rows, args.format, args.out)
            return _equivalence_exit(sims, cfg.tolerance)
        if args.command == "sweep":
            try:
                values = [float(v) if "." in v or "e" in v.lower() else int(v)
                          for v in args.values.split(",") if v.strip()]
            except ValueError:
                raise ConfigError(f"sweep values must be numeric, got "
                                  f"{args.values!r}")
            rows, sims = sweep_experiments(cfg, args.axis, values)
            emit(rows, args.format, args.out)
            # pruned rows are exempt, as in run
            return _equivalence_exit(sims, cfg.tolerance)
        raise ConfigError(f"unknown command {args.command!r}")
    except SimError as e:
        print(f"{e.label}: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"output error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
