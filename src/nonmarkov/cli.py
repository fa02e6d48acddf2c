"""Command-line pipeline: simulate -> witness -> measure -> verdict -> report.

Subcommands
    simulate   build the trajectory and write the trajectory cache file
    witness    evaluate the configured witness series (one CSV each)
    verdict    step-divisibility verdict (Choi min-eigenvalue CSV + JSON)
    measure    scalar measures (witness / RHP / BLP) + verdict JSON
    report     full pipeline, all outputs
    import     run the pipeline on an externally produced trajectory file

Exit codes: 0 success, 2 configuration or file-format error, 3 numeric failure
(the diagnostic names the failing operation).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import MIN_NODES, ConfigError, RunConfig, load_config
from .dynamics import evolve, load_trajectory, save_trajectory
from .measures import (
    blp_measure,
    divisibility_verdict,
    rhp_rate,
    step_choi_data,
    witness_measure,
)
from .witnesses import series as witness_series


class PipelineError(RuntimeError):
    """Numeric failure wrapper carrying the name of the failing operation."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        super().__init__(f"numeric failure in {stage}: {cause}")


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ConfigError:
        raise
    except Exception as exc:
        raise PipelineError(name, exc) from exc


def _slug(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", text.lower()).strip("_")


def _matrix_json(m: np.ndarray) -> dict:
    m = np.asarray(m)
    return {"real": m.real.tolist(), "imag": m.imag.tolist()}


def _write_csv(path: Path, header: list, row_format: str, *columns) -> None:
    """Write the header line and one ``row_format % row`` line per row of the
    columns (arrays or lists), rendered whole and written once."""
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
    lines = [",".join(header), *(row_format % row for row in rows)]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _run_pipeline(cfg: RunConfig, args, traj=None) -> int:
    do_witness = args.command in ("witness", "report", "import")
    do_verdict = args.command in ("verdict", "measure", "report", "import")
    do_measure = args.command in ("measure", "report", "import") and cfg.measures_enabled
    save_traj = args.command in ("simulate", "report")

    out_dir = cfg.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    quiet = args.quiet

    if traj is None:
        traj = _stage("evolve", evolve, cfg.model, cfg.times, backend=cfg.backend)
    if not quiet:
        print(f"trajectory: dim={traj.dim} nodes={traj.nodes} backend={traj.backend}")

    report: dict = {
        "tool": {"name": "nonmarkov", "version": __version__},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "command": args.command,
        "seed": cfg.search.rng_seed,
        "backend": traj.backend,
        "model": traj.meta,
        "grid": {"t_max": float(traj.times[-1]), "nodes": int(traj.nodes)},
        "witness_series_files": [],
        "verdict": None,
        "measures": None,
    }

    if save_traj:
        traj_path = out_dir / f"{cfg.prefix}_trajectory.traj"
        _stage("save_trajectory", save_trajectory, traj, traj_path)
        if not quiet:
            print(f"wrote {traj_path}")
        if args.command == "simulate":
            return 0

    if do_witness:
        for idx, (descriptor, spec) in enumerate(cfg.witnesses):
            ws = _stage(f"witness:{descriptor}", witness_series, traj, spec)
            name = f"{cfg.prefix}_witness_{idx}_{_slug(descriptor)}.csv"
            _write_csv(out_dir / name, ["t", "value", "violating"], "%.17g,%.17g,%d",
                       ws.times, ws.values, ws.violating)
            report["witness_series_files"].append(name)
            if not quiet:
                print(f"wrote {name} ({len(ws.violation_intervals)} violation intervals)")

    steps = None
    if do_verdict or do_measure:
        steps = _stage("divisibility:choi", step_choi_data, traj)

    if do_verdict:
        verdict = _stage("divisibility_verdict", divisibility_verdict, traj,
                         cfg.divisibility_tol, steps)
        report["verdict"] = dataclasses.asdict(verdict)
        # an excluded step has no eigenvalue: its cell is left empty
        min_eigs = ["" if w != w else "%.17g" % w for w in steps.min_eigenvalues.tolist()]
        _write_csv(out_dir / f"{cfg.prefix}_choi_min_eig.csv",
                   ["t_start", "t_end", "min_eigenvalue", "excluded"], "%.17g,%.17g,%s,%d",
                   steps.start_times, steps.end_times, min_eigs, steps.excluded)
        if not quiet:
            print(f"verdict: markovian={verdict.markovian} "
                  f"violations={len(verdict.violation_intervals)} "
                  f"excluded={len(verdict.excluded_intervals)}")

    if do_measure:
        measures: dict = {"rhp": None, "witness": None, "blp": None}
        if cfg.measure_rhp and traj.model is not None:
            rate_values = _stage("measure:rhp", rhp_rate, traj.model, traj.times)
            measures["rhp"] = float(np.trapezoid(rate_values, traj.times))
            _write_csv(out_dir / f"{cfg.prefix}_rhp_rate.csv", ["t", "value"], "%.17g,%.17g",
                       traj.times, rate_values)
        # the BLP search runs first: its optimum is the witness search's first seed
        bm = None
        if cfg.measure_blp:
            bm = _stage("measure:blp", blp_measure, traj, cfg.search, steps,
                        cfg.divisibility_tol)
            measures["blp"] = {
                "value": bm.value,
                "pair": (
                    {"rho1": _matrix_json(bm.pair[0]), "rho2": _matrix_json(bm.pair[1])}
                    if bm.pair is not None else None
                ),
                "violation_intervals": bm.series.violation_intervals if bm.series else [],
            }
        if cfg.measure_witness:
            wm = _stage("measure:witness", witness_measure, traj, cfg.search, steps,
                        cfg.divisibility_tol, bm)
            measures["witness"] = {
                "value": wm.value,
                "witness": _matrix_json(wm.witness) if wm.witness is not None else None,
                "violation_intervals": wm.series.violation_intervals if wm.series else [],
            }
        report["measures"] = measures
        if not quiet:
            shown = {k: (v["value"] if isinstance(v, dict) else v)
                     for k, v in measures.items() if v is not None}
            print(f"measures: {shown}")

    report_path = out_dir / f"{cfg.prefix}_report.json"
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if not quiet:
        print(f"wrote {report_path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonmarkov",
        description="simulate time-local quantum dynamics and quantify non-Markovianity",
    )
    parser.add_argument("--version", action="version", version=f"nonmarkov {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in [
        ("simulate", "build and cache the trajectory"),
        ("witness", "evaluate witness series"),
        ("verdict", "step-divisibility verdict"),
        ("measure", "scalar non-Markovianity measures"),
        ("report", "full pipeline"),
        ("import", "run the pipeline on a trajectory file"),
    ]:
        cmd = sub.add_parser(name, help=doc)
        if name == "import":
            cmd.add_argument("trajectory", help="trajectory file to ingest")
        cmd.add_argument("--config", required=True, help="INI run configuration")
        cmd.add_argument("--out", default=None, help="output directory override")
        cmd.add_argument("--seed", type=int, default=None, help="search seed override")
        cmd.add_argument("--backend", choices=["auto", "analytic", "numeric"],
                         default=None, help="trajectory backend override")
        cmd.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(
            args.config,
            seed_override=args.seed,
            backend_override=args.backend,
            out_override=args.out,
            for_import=args.command == "import",
        )
        traj = None
        if args.command == "import":
            try:
                traj = load_trajectory(args.trajectory)
                if traj.nodes < MIN_NODES:
                    raise ValueError(f"it has {traj.nodes} nodes, fewer than {MIN_NODES}")
            except (ValueError, OSError) as exc:
                print(f"error: trajectory file rejected: {exc}", file=sys.stderr)
                return 2
            for descriptor, spec in cfg.witnesses:
                if spec.system_dim != traj.dim:
                    raise ConfigError("witnesses.specs", f"{descriptor} acts on dimension "
                                      f"{spec.system_dim}, the trajectory file on {traj.dim}")
        return _run_pipeline(cfg, args, traj=traj)
    except ConfigError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
