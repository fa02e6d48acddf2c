"""The benchmark's workloads: the CLI call each one times and the checks on its output.

Every workload drives ``nonmarkov.cli.main`` with an INI file from
``perfbench/workloads``.  The workload seed is passed as the search ``--seed``.
The checks read the files the call wrote and return one message per failed
check; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

CONFIG_DIR = Path(__file__).resolve().parent / "workloads"

# 1 - exp(-2): the witness and BLP measures of paper example 1 (criterion 2).
SINE_MEASURE_FLOOR = 1.0 - math.exp(-2.0) - 1e-3


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _column(path: Path, name: str) -> np.ndarray:
    header, rows = _read_csv(path)
    k = header.index(name)
    return np.array([float(row[k]) for row in rows])


def _measure(report: dict, name: str):
    entry = (report.get("measures") or {}).get(name)
    return entry["value"] if isinstance(entry, dict) else entry


def _windows(report: dict) -> list:
    return (report.get("verdict") or {}).get("violation_intervals") or []


def _check_windows(report: dict, expected: list, tol: float) -> list[str]:
    found = [(w[0], w[1]) for w in _windows(report)]
    if len(found) != len(expected):
        return [f"{len(found)} verdict windows, expected {len(expected)}: {found}"]
    return [
        f"verdict window {got} is not within {tol} of {want}"
        for got, want in zip(found, expected)
        if abs(got[0] - want[0]) > tol or abs(got[1] - want[1]) > tol
    ]


def check_sine(out: Path, report: dict) -> list[str]:
    errors = []
    n_rhp = _measure(report, "rhp")
    if n_rhp is None or abs(n_rhp - 2.0) > 1e-2:
        errors.append(f"n_rhp {n_rhp} is not 2 +/- 1e-2")
    for name in ("witness", "blp"):
        value = _measure(report, name)
        if value is None or value < SINE_MEASURE_FLOOR:
            errors.append(f"{name} measure {value} < {SINE_MEASURE_FLOOR:.6f}")
    # One window over the half period where the rate sin t is negative; the
    # step-Choi scan resolves its ends to one grid step (2*pi/256).
    errors += _check_windows(report, [(math.pi, 2.0 * math.pi)], 0.05)
    ext = out / report["witness_series_files"][0]
    t, value = _column(ext, "t"), _column(ext, "value")
    err = float(np.max(np.abs(value + np.sin(t) * np.exp(-(1.0 - np.cos(t))))))
    if not err <= 1e-4:
        errors.append(f"ext-trace flow deviates from -sin t exp(-(1 - cos t)) by {err:.2e}")
    return errors


def check_replacement(out: Path, report: dict) -> list[str]:
    errors = []
    blp = _measure(report, "blp")
    if blp is None or blp > 1e-8:
        errors.append(f"BLP measure {blp} > 1e-8 (the objective is identically zero)")
    witness = _measure(report, "witness")
    if witness is None or not witness > 1e-4:
        errors.append(f"witness measure {witness} is not above 1e-4")
    # The averaged target leaves the state space where |1.2 sin t| > 1.
    a = math.asin(1.0 / 1.2)
    errors += _check_windows(report, [(a, math.pi - a), (math.pi + a, 2.0 * math.pi - a)], 0.02)
    return errors


# gksl_bank reference values at data rows 250, 750, 1250 and 1750 of each CSV
# (t near pi/2, 3pi/2, 5pi/2 and 7pi/2; rows 750 and 1750 lie in the verdict
# windows), from the RK45 backend at the INI's settings.
GKSL_N_RHP = 6.823610
GKSL_ROWS = (250, 750, 1250, 1750)
GKSL_REFERENCE = {
    "choi_min_eig": (0.0, -6.318763e-3, 0.0, -6.318765e-3),
    "rhp_rate": (0.0, 1.8, 0.0, 1.8),
    "witness_0_trace_norm_extended": (-0.30205460, 0.19671653, -0.16114252, 0.10494592),
    "witness_1_dual_operator_norm": (-0.30205460, 0.19671653, -0.16114252, 0.10494592),
    "witness_2_trace_norm_plain": (-0.30205460, 0.19671653, -0.16114252, 0.10494592),
    "witness_3_blp": (-0.30205460, 0.19671653, -0.16114252, 0.10494592),
    "witness_4_relative_entropy": (-0.06730762, 0.03902600, -0.02624957, 0.01507809),
    "witness_5_renyi": (-0.03322648, 0.01808442, -0.01150161, 0.00610927),
    "witness_6_tsallis": (-0.03304633, 0.01802444, -0.01148016, 0.00610248),
    "witness_7_fidelity": (-0.02949034, 0.01428862, -0.00835769, 0.00405810),
}
GKSL_TOL = 1e-6  # absolute; the values above are rounded to 5e-9


def check_gksl(out: Path, report: dict) -> list[str]:
    errors = []
    for path in sorted(out.glob("*.csv")):
        _, rows = _read_csv(path)
        bad = sum(1 for row in rows for cell in row if not (cell and math.isfinite(float(cell))))
        if bad:
            errors.append(f"{path.name}: {bad} values that are empty or not finite")
    n_rhp = _measure(report, "rhp")
    if n_rhp is None or abs(n_rhp - GKSL_N_RHP) > 1e-4:
        errors.append(f"n_rhp {n_rhp} is not {GKSL_N_RHP} +/- 1e-4")
    rates = next(out.glob("*_rhp_rate.csv"), None)
    if rates is not None and n_rhp is not None:
        area = float(np.trapezoid(_column(rates, "value"), _column(rates, "t")))
        if abs(area - n_rhp) > 1e-12 * max(1.0, abs(n_rhp)):
            errors.append(f"n_rhp {n_rhp} is not the trapezoid {area} of its rate CSV")
    # The sigma_z rate 0.5 sin t is negative on (pi, 2pi) and (3pi, 4pi).
    errors += _check_windows(report, [(math.pi, 2.0 * math.pi), (3.0 * math.pi, 4.0 * math.pi)],
                             0.02)
    for stem, want in GKSL_REFERENCE.items():
        path = next(out.glob(f"*_{stem}*.csv"), None)
        if path is None:
            errors.append(f"no {stem} CSV")
            continue
        header, rows = _read_csv(path)
        k = header.index("min_eigenvalue" if "min_eigenvalue" in header else "value")
        for row, value in zip(GKSL_ROWS, want):
            got = float(rows[row][k])
            if abs(got - value) > GKSL_TOL:
                errors.append(f"{path.name} row {row}: {got} is not {value} +/- {GKSL_TOL}")
    return errors


_TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')


def normalized_report(path: Path) -> bytes:
    """report.json with its timestamp blanked: the part that must not vary."""
    return _TIMESTAMP.sub(b'"timestamp": ""', path.read_bytes())


@dataclass(frozen=True)
class Workload:
    name: str
    command: str               # "report" or "import"
    config: str                # INI file under CONFIG_DIR
    check: Callable[[Path, dict], list[str]]
    simulate: str | None = None  # INI whose `simulate` output the command imports

    @property
    def config_path(self) -> Path:
        return CONFIG_DIR / self.config

    def run_config(self):
        """The parsed INI (needs ``nonmarkov`` on ``sys.path``)."""
        from nonmarkov.cli import load_config

        return load_config(self.config_path, for_import=self.command == "import")

    def budget(self) -> str:
        """The search budget, seeds x iterations, as the INI sets it."""
        cfg = self.run_config()
        if not (cfg.measure_witness or cfg.measure_blp):
            return "searches off"
        return f"{cfg.search.seeds} x {cfg.search.iterations}"

    def argv(self, out: Path, seed: int, trajectory: Path | None) -> list[str]:
        head = [self.command] + ([str(trajectory)] if self.command == "import" else [])
        return head + ["--config", str(self.config_path), "--out", str(out),
                       "--seed", str(seed), "--quiet"]


# BENCHMARK.json and README.md give why each workload is here and which
# layer does most of its work.
WORKLOADS = {
    w.name: w for w in [
        Workload(name="sine_search", command="report", config="sine_search.ini",
                 check=check_sine),
        Workload(name="gksl_bank", command="report", config="gksl_bank.ini",
                 check=check_gksl),
        Workload(name="replacement_import", command="import",
                 config="replacement_import.ini", check=check_replacement,
                 simulate="replacement_simulate.ini"),
    ]
}
