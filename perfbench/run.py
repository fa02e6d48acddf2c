"""Benchmark of `nonmarkov report` / `nonmarkov import`, end to end and per layer.

    python3 perfbench/run.py --workload sine_search --seed 7 --seconds 20 --trace 0

Runs from a source checkout: the package is imported from ``src/``.  One
process runs a closed loop, one CLI invocation at a time through
``nonmarkov.cli.main``, until ``--seconds`` have passed (at least one
invocation).  Every invocation's output is checked.

``--trace 0`` reports the end-to-end metrics:

* ``report_s``: median wall time of one invocation;
* ``setup_s``: median, over fresh interpreters, of ``import nonmarkov.cli``
  plus ``load_config`` of the workload's INI.  Half of them run before the
  timed loop and half after it, so that they sample the same stretch of
  machine time as ``report_s``;
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` runs the same untraced loop, then a traced loop of the same
length, and reports the per-layer metrics.  ``BENCHMARK.json`` names the
metrics of both modes and their units.  The spans
are written to ``.perfbench_work/<workload>/spans.jsonl``.

Each run also prints a provenance record and runs the known-failure probe
(paper example 3, spin-boson), which is neither timed nor counted.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

from workloads import CONFIG_DIR, WORKLOADS, normalized_report

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_RUNS = 9

# Run in a fresh interpreter: the time to import the CLI and parse the INI.
SETUP_SNIPPET = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from nonmarkov.cli import load_config
load_config(sys.argv[2], for_import=sys.argv[3] == "import")
print(time.perf_counter() - start)
"""


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7, help="search seed of the workload")
    parser.add_argument("--seconds", type=float, default=10.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_package():
    """Import nonmarkov from this checkout's src/, or exit 2 without a result."""
    if not (SRC / "nonmarkov" / "cli.py").is_file():
        print(f"error: {SRC / 'nonmarkov'} not found; run from a nonmarkov source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import nonmarkov.cli

    if Path(nonmarkov.cli.__file__).resolve().parent != (SRC / "nonmarkov").resolve():
        print(f"error: imported nonmarkov from {nonmarkov.cli.__file__}, not from {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return nonmarkov.cli


def _invoke(main, argv) -> tuple[int, str]:
    """One in-process CLI call; returns its exit code and standard error.

    An exception that escapes ``main`` is a failed call (exit code -1), so the
    run still reports how many calls failed."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except Exception:
            traceback.print_exc()
            rc = -1
    return rc, err.getvalue()


def _setup_seconds(workload, runs: int) -> list[float]:
    times = []
    for _ in range(runs):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(workload.config_path),
             workload.command],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _openblas():
    """(version, threads) of the OpenBLAS this process loaded, where it can tell."""
    import ctypes

    import numpy as np

    version = "unknown"
    with contextlib.suppress(AttributeError, KeyError, TypeError):
        version = np.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    threads = None
    with contextlib.suppress(OSError):
        libs = {line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line}
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    fn = getattr(lib, symbol)
                    fn.restype = ctypes.c_int
                    threads = fn()
                    break
    return version, threads


def _provenance(seed: int, workloads) -> dict:
    import numpy
    import scipy

    sha = "unknown (not a git checkout)"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        if done.returncode == 0:
            sha = done.stdout.strip()
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas_version, blas_threads = _openblas()
    return {
        "git_sha": sha,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_version,
        "blas_threads": blas_threads,
        "seed": seed,
        "search_budget": {w.name: w.budget() for w in workloads.values()},
    }


class Loop:
    """The closed loop of one workload: timed invocations and their checks."""

    def __init__(self, main, workload, seed: int, work: Path, trajectory: Path | None):
        self.main = main
        self.workload = workload
        self.seed = seed
        self.work = work
        self.trajectory = trajectory
        self.prefix = workload.run_config().prefix
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: bytes | None = None
        self.values: dict[str, float] = {}

    def run_once(self, tracer=None) -> tuple[float, float, dict]:
        """One invocation: (wall seconds, CPU seconds, per-layer metrics)."""
        index = self.attempted
        self.attempted += 1
        out = self.work / f"invocation_{index}"
        argv = self.workload.argv(out, self.seed, self.trajectory)
        main = self.main if tracer is None else tracer.wrap("cli.main", self.main)
        cpu0, start = time.process_time(), time.perf_counter()
        rc, err = _invoke(main, argv)
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu0

        layers = {}
        if tracer is not None:
            layers = tracer.layer_metrics()
            tracer.finish(index)
            trajectory = out / f"{self.prefix}_trajectory.traj"
            layers["cli.bytes_written"] = float(sum(
                p.stat().st_size for p in out.glob("*") if p != trajectory))
        errors = [f"exit code {rc}: {err.strip()[-300:]}"] if rc != 0 else self._check(out)
        if errors:
            self.failures.append(f"invocation {index}: " + "; ".join(errors))
        shutil.rmtree(out, ignore_errors=True)
        return wall, cpu, layers

    def _check(self, out: Path) -> list[str]:
        """The workload's output checks, and report.json against the first call's."""
        report_path = out / f"{self.prefix}_report.json"
        try:
            report = json.loads(report_path.read_text())
            errors = self.workload.check(out, report)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"output unreadable: {exc!r}"]
        normalized = normalized_report(report_path)
        if self.reference is None:
            self.reference = normalized
        elif normalized != self.reference:
            errors.append("report.json differs from the first call's beyond its timestamp")
        for name in ("witness", "blp"):
            entry = (report.get("measures") or {}).get(name)
            self.values[name] = entry["value"] if entry else 0.0
        return errors

    def run(self, seconds: float, tracer=None) -> list[tuple[float, float, dict]]:
        samples = []
        start = time.perf_counter()
        while not samples or time.perf_counter() - start < seconds:
            samples.append(self.run_once(tracer))
        return samples


def _probe(main, work: Path) -> str:
    """Paper example 3 with both backends; its two known defects, or what changed."""
    config = CONFIG_DIR / "spin_boson_probe.ini"
    expected = {"analytic": "measure:rhp", "numeric": "witness:fidelity(plus,maxmixed)"}
    parts = []
    for backend, stage in expected.items():
        out = work / f"probe_{backend}"
        rc, err = _invoke(main, ["report", "--config", str(config), "--out", str(out),
                                 "--backend", backend, "--quiet"])
        found = re.search(r"numeric failure in (\S+?): ", err)
        at = found.group(1) if found else None
        part = f"{backend}: exit {rc}" + (f" at {at}" if at else "")
        if backend == "numeric":
            entropy = next(out.glob("*relative_entropy*.csv"), None)
            if entropy is not None:
                nans = sum(1 for line in entropy.read_text().splitlines()[1:]
                           if line.split(",")[1] == "nan")
                part += f", relative_entropy flow NaN at {nans} nodes"
        known = rc == 3 and at == stage
        parts.append(part + ("" if known else " (CHANGED: the known defect is gone or moved)"))
        shutil.rmtree(out, ignore_errors=True)
    return "known-failure probe, spin-boson 2001 nodes on [0, 10] (not timed, not counted): " \
        + "; ".join(parts)


def _summary_lines(name, report_s, setup_s, rss_mb, loop) -> list[str]:
    n = len(report_s)
    lines = [f"{name} report_s: median {median(report_s):.4f} s, max {max(report_s):.4f} s, "
             f"n={n} invocations"]
    if n >= 20:
        p = math.floor(100 * (1 - 10 / n))
        ranked = sorted(report_s)
        lines.append(f"{name} report_s: p{p} {ranked[math.ceil(p / 100 * n) - 1]:.4f} s (n={n})")
    else:
        lines.append(f"{name} report_s: no percentile above the median has 10 samples beyond "
                     f"it at n={n}")
    lines += [
        f"{name} setup_s: median {median(setup_s):.4f} s over {len(setup_s)} fresh interpreters",
        f"{name} peak_rss_mb: {rss_mb:.1f} MB",
        f"{name} witness_measure_value: {loop.values.get('witness', 0.0):.6g} (1, higher is better)",
        f"{name} blp_measure_value: {loop.values.get('blp', 0.0):.6g} (1, higher is better)",
        f"{name} failed_frac: {len(loop.failures) / loop.attempted:.4g} "
        f"({len(loop.failures)} of {loop.attempted} invocations)",
    ]
    return lines


def main(argv=None) -> int:
    args = _parse_args(argv)
    cli = _import_package()
    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    provenance = _provenance(args.seed, WORKLOADS)
    (work / "provenance.json").write_text(json.dumps(provenance, indent=2) + "\n")

    trajectory = None
    if workload.simulate is not None:
        source = work / "input"
        rc, err = _invoke(cli.main, ["simulate", "--config", str(CONFIG_DIR / workload.simulate),
                                     "--out", str(source), "--quiet"])
        if rc != 0:
            print(f"error: simulate failed with exit code {rc}: {err}", file=sys.stderr)
            return 2
        trajectory = next(source.glob("*_trajectory.traj"))

    setup_s = _setup_seconds(workload, SETUP_RUNS - SETUP_RUNS // 2)
    loop = Loop(cli.main, workload, args.seed, work, trajectory)
    untraced = loop.run(args.seconds)
    setup_s += _setup_seconds(workload, SETUP_RUNS // 2)
    report_s = [wall for wall, _, _ in untraced]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        from tracing import Tracer, median_invocation

        tracer = Tracer()
        with tracer.installed():
            traced = loop.run(args.seconds, tracer)
        tracer.write(work / "spans.jsonl")
        layers = median_invocation([sample for _, _, sample in traced])
        layers["process.cpu_util"] = sum(c for _, c, _ in untraced) / sum(report_s)
        layers["tracing.overhead_s"] = median(w for w, _, _ in traced) - median(report_s)
        layers["measures.witness_measure.value"] = loop.values.get("witness", 0.0)
        layers["measures.blp_measure.value"] = loop.values.get("blp", 0.0)
        values, kind = layers, "per_layer"
    else:
        values = {"report_s": median(report_s), "setup_s": median(setup_s), "peak_rss_mb": rss_mb}
        kind = "end_to_end"
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print("provenance " + json.dumps(provenance, sort_keys=True))
    for line in _summary_lines(workload.name, report_s, setup_s, rss_mb, loop):
        print(line)
    for failure in loop.failures:
        print(f"{workload.name} FAILED {failure}")
    print(_probe(cli.main, work))
    print(json.dumps({
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
