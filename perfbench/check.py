"""Output checker for one CLI op.

An op fails when its exit code is not 0, its output is not strict JSON
(NaN and Infinity are rejected), an unpruned row's ``max_abs_deviation`` is
above the tolerance, ``scratchpad_high_water`` is above ``scratchpad_bytes``,
or the number of rows differs from the schedules or values requested. A
failed op is reported, and the ops after it still run.
"""

from __future__ import annotations

import json
import math

TOLERANCE = 1e-6  # the CLI's default --tolerance; no op overrides it
SIM_KEYS = ("ema_bytes", "cycles", "energy_pj")


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in output")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def parse_values(text: str) -> list:
    """The sweep values as the CLI parses ``--values``."""
    return [float(v) if "." in v or "e" in v.lower() else int(v)
            for v in text.split(",") if v.strip()]


def check_output(argv: list[str], code, stdout: str
                 ) -> tuple[list[str], dict | None]:
    """Return (problems, sums of the sim keys over the report rows).

    ``argv`` are the op's CLI arguments; its command is ``argv[0]``.
    """
    if code != 0:
        return [f"exit code {code}"], None
    try:
        data = strict_json(stdout)
    except ValueError as e:
        return [f"output is not strict JSON: {e}"], None

    problems: list[str] = []
    try:
        sums = _check_rows(argv, data, problems)
    except (KeyError, IndexError, TypeError, ValueError) as e:
        return [f"output lacks an expected field: {e!r}"], None
    return problems, sums


def _check_rows(argv: list[str], data, problems: list[str]) -> dict:
    if argv[0] == "run":
        rows = [data["report"]]
        if "pruning" not in data:
            _check_deviation(data, "run", problems)
            if not data["equivalence_ok"]:
                problems.append("equivalence_ok is false")
        for report in (data["report"], data.get("adjusted_report")):
            if report is None:
                continue
            high, cap = (report["scratchpad_high_water"],
                         report["hardware"]["scratchpad_bytes"])
            if high > cap:
                problems.append(f"scratchpad_high_water {high} > {cap}")
    else:
        rows = data
        if argv[0] == "compare":
            flag, key = "--schedules", "schedule"
            want = [s.strip() for s in _flag(argv, flag).split(",") if s.strip()]
        else:
            flag, key = "--values", "value"
            want = parse_values(_flag(argv, flag))
        got = [row[key] for row in rows]
        if got != want:
            problems.append(f"rows {got} differ from {flag} {want}")
        for row in rows:
            if "granularity" not in row:   # sweep rows with pruning carry it
                _check_deviation(row, f"{key} {row[key]}", problems)
    sums = {k: sum(row[k] for row in rows) for k in SIM_KEYS}
    for k, v in sums.items():
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
            problems.append(f"{k} total {v!r} is not a positive number")
    return sums


def _check_deviation(row: dict, what: str, problems: list[str]) -> None:
    dev = row["max_abs_deviation"]
    if not dev <= TOLERANCE:
        problems.append(f"{what}: max_abs_deviation {dev} > {TOLERANCE}")


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]
