"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import time as _time

import numpy as np
import pytest

from nonmarkov import operators as ops
from nonmarkov.dynamics import (
    BlochZSineTarget,
    Constant,
    Dephasing,
    Sine,
    SpinBoson,
    TraceReplacement,
    apply_superop,
    averaged_target_series,
    evolve,
    intermediate_map,
)
from nonmarkov.measures import (
    SearchConfig,
    blp_measure,
    divisibility_verdict,
    rhp_measure,
    rhp_rate,
    step_choi_data,
    witness_measure,
)
from nonmarkov.volterra import ExponentialKernel, solve_memory_kernel
from nonmarkov.witnesses import (
    DualOperatorNormWitness,
    ExtendedTraceNormWitness,
    InvariantOverlap,
    HeisenbergSkew,
    derivative_series,
    detect_violations,
    series,
    spectral_modes,
)

from conftest import KET0, KET1, PAULI_X, PAULI_Y, PAULI_Z, projector, random_cptp

SINE_GRID = np.linspace(0.0, 2.0 * np.pi, 257)
X0 = 0.5 * np.kron(PAULI_X, PAULI_X)


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


@pytest.fixture(scope="module")
def sine_traj():
    return evolve(Dephasing(rate=Sine(1.0)), SINE_GRID, backend="analytic")


@pytest.fixture(scope="module")
def replacement_model():
    return TraceReplacement(rate=Constant(1.0), target=BlochZSineTarget(scale=1.2))


@pytest.fixture(scope="module")
def replacement_traj(replacement_model):
    return evolve(replacement_model, np.linspace(0.0, 2.0 * np.pi, 513), backend="analytic")


@pytest.fixture(scope="module")
def spin_boson_setup():
    times = np.linspace(0.0, 10.0, 2001)
    kernel = ExponentialKernel(coupling=4.0, rate=1.0)
    traj = evolve(SpinBoson(kernel=kernel), times, backend="analytic")
    return times, kernel, traj


def test_criterion_1_example1_witness_closed_form(sine_traj):
    started = _time.monotonic()
    ws = series(sine_traj, ExtendedTraceNormWitness(X0))
    expected = -np.sin(ws.times) * np.exp(-(1.0 - np.cos(ws.times)))
    error = float(np.abs(ws.values - expected).max())
    elapsed = _time.monotonic() - started
    ok = error <= 1e-4 and elapsed < 5.0
    _report(1, ok, f"flow vs -rate*exp(-Gamma): max err {error:.2e} "
                   f"(tol 1e-4), runtime {elapsed:.2f}s (< 5s)")
    assert error <= 1e-4
    assert elapsed < 5.0


def test_criterion_2_measures_on_example1(sine_traj):
    started = _time.monotonic()
    n_rhp = rhp_measure(Dephasing(rate=Sine(1.0)), SINE_GRID)
    search = SearchConfig(rng_seed=7)  # default budget: 64 seeds x 200 steps
    result = witness_measure(sine_traj, search)
    elapsed = _time.monotonic() - started
    target = 1.0 - np.exp(-2.0)
    reference = series(sine_traj, ExtendedTraceNormWitness(X0))
    series_gap = float(np.abs(result.series.values - reference.values).max())
    ok = (abs(n_rhp - 2.0) <= 1e-2 and result.value >= target - 1e-3
          and series_gap <= 1e-3 and elapsed < 60.0)
    _report(2, ok, f"n_rhp {n_rhp:.5f} (2 +/- 1e-2), n_witness {result.value:.5f} "
                   f">= {target - 1e-3:.5f}, optimizer-vs-X0 series gap {series_gap:.2e} "
                   f"(<= 1e-3), runtime {elapsed:.1f}s (< 60s)")
    assert abs(n_rhp - 2.0) <= 1e-2
    assert result.value >= target - 1e-3
    assert series_gap <= 1e-3
    assert elapsed < 60.0


def test_criterion_3_rhp_rate_formula():
    model = Dephasing(rate=Sine(1.0))
    worst_negative = 0.0
    worst_positive = 0.0
    for t in SINE_GRID:
        rate = float(np.sin(t))
        g = rhp_rate(model, t)
        if rate < -1e-3:
            worst_negative = max(worst_negative, abs(g - abs(rate)))
        elif rate >= 0.0:
            worst_positive = max(worst_positive, g)
    ok = worst_negative <= 1e-4 and worst_positive <= 1e-6
    _report(3, ok, f"g vs |rate| where rate < -1e-3: max err {worst_negative:.2e} "
                   f"(tol 1e-4); g where rate >= 0: max {worst_positive:.2e} (tol 1e-6)")
    assert worst_negative <= 1e-4
    assert worst_positive <= 1e-6


def test_criterion_4_example2_separation(replacement_model, replacement_traj):
    times = replacement_traj.times
    _, omegas = averaged_target_series(replacement_model, times)
    min_eig_omega = min(
        float(np.linalg.eigvalsh(omegas[k]).min()) for k in range(1, times.size)
    )
    psd_ok = min_eig_omega >= -1e-9

    blp = blp_measure(replacement_traj, SearchConfig(rng_seed=7))
    blp_ok = abs(blp.value) <= 1e-8

    verdict = divisibility_verdict(replacement_traj)
    edge = float(np.arcsin(1.0 / 1.2))
    expected = [(edge, np.pi - edge), (np.pi + edge, 2.0 * np.pi - edge)]
    verdict_ok = (not verdict.markovian) and len(verdict.violation_intervals) == 2 and all(
        abs(a - c) <= 0.02 and abs(b - d) <= 0.02
        for (a, b, _), (c, d) in zip(verdict.violation_intervals, expected)
    )

    wit = witness_measure(replacement_traj, SearchConfig(rng_seed=7))
    witness_ok = wit.value > 1e-4

    ok = psd_ok and blp_ok and verdict_ok and witness_ok
    _report(4, ok,
            f"Omega PSD precheck min eig {min_eig_omega:.3e} (>= -1e-9): "
            f"{'ok' if psd_ok else 'FAILED'}; blp {blp.value:.2e} (<= 1e-8): "
            f"{'ok' if blp_ok else 'FAILED'}; verdict intervals "
            f"{[(round(a, 3), round(b, 3)) for a, b, _ in verdict.violation_intervals]} "
            f"vs {[(round(c, 3), round(d, 3)) for c, d in expected]} (+/- 0.02): "
            f"{'ok' if verdict_ok else 'FAILED'}; witness {wit.value:.3e} (> 1e-4): "
            f"{'ok' if witness_ok else 'FAILED'}")
    assert blp_ok, f"blp measure {blp.value} not within 1e-8 of zero"
    assert verdict_ok, f"verdict intervals {verdict.violation_intervals} do not match {expected}"
    assert witness_ok, f"witness measure {wit.value} not above 1e-4"
    assert psd_ok, (
        f"min eig of the averaged target reaches {min_eig_omega:.3e} < -1e-9 on the grid: "
        "the stated instance does not satisfy the PSD premise (see decisions ledger); "
        "all other assertions of this criterion hold"
    )


def test_criterion_5_spin_boson_equivalences(spin_boson_setup):
    times, kernel, traj = spin_boson_setup
    solution = solve_memory_kernel(kernel, times)
    closed = kernel.closed_form_amplitude(times)
    amp_err = float(np.abs(solution.values.real - closed).max())
    amp_ok = amp_err <= 1e-5 and float(np.abs(solution.values.imag).max()) == 0.0

    overlap = series(traj, InvariantOverlap(projector(KET1), KET0))
    skew = series(traj, HeisenbergSkew(projector(KET0), PAULI_X, 0.5))
    growth, _ = detect_violations(times[1:-1], derivative_series(times, closed**2))

    h = times[1] - times[0]

    def intervals_agree(a, b):
        if len(a) != len(b):
            return False
        return all(abs(x0 - y0) <= h + 1e-12 and abs(x1 - y1) <= h + 1e-12
                   for (x0, x1, *_), (y0, y1, *_) in zip(a, b))

    agree_ok = (intervals_agree(overlap.violation_intervals, skew.violation_intervals)
                and intervals_agree(overlap.violation_intervals, growth))

    data = step_choi_data(traj)
    verdict = divisibility_verdict(traj, steps=data)
    tiny = np.abs(closed) < 1e-12
    tiny_steps = np.flatnonzero(tiny[:-1] | tiny[1:])
    flagged_ok = all(
        any(a <= times[k] and times[k + 1] <= b for a, b in verdict.excluded_intervals)
        for k in tiny_steps
    )

    ok = amp_ok and agree_ok and flagged_ok
    _report(5, ok,
            f"Volterra vs closed form max err {amp_err:.2e} (tol 1e-5); "
            f"overlap/skew/d|G|^2 interval sets "
            f"({len(overlap.violation_intervals)}/{len(skew.violation_intervals)}/{len(growth)}) "
            f"agree within one step: {'ok' if agree_ok else 'FAILED'}; "
            f"collapsed-amplitude steps flagged excluded: {'ok' if flagged_ok else 'FAILED'} "
            f"({tiny_steps.size} steps below 1e-12)")
    assert amp_ok
    assert agree_ok
    assert flagged_ok


def test_criterion_6_composition_law(sine_traj, replacement_traj, spin_boson_setup):
    _, _, sb_traj = spin_boson_setup
    markov_traj = evolve(Dephasing(rate=Constant(1.0)), SINE_GRID, backend="analytic")
    rng = np.random.default_rng(123)
    worst = 0.0
    for traj in (sine_traj, markov_traj, replacement_traj, sb_traj):
        checked = 0
        while checked < 100:
            u, s, t = np.sort(rng.choice(traj.nodes, size=3, replace=False))
            try:
                v_ts = intermediate_map(traj, traj.times[t], traj.times[s])
                v_su = intermediate_map(traj, traj.times[s], traj.times[u])
                v_tu = intermediate_map(traj, traj.times[t], traj.times[u])
            except Exception:
                continue  # singular propagator: reported, not judged
            worst = max(worst, float(np.linalg.norm(v_ts @ v_su - v_tu)))
            checked += 1
    ok = worst <= 1e-6
    _report(6, ok, f"composition-law max residual over 4 models x 100 triples: "
                   f"{worst:.2e} (tol 1e-6)")
    assert worst <= 1e-6


def test_criterion_7_property_suites(sine_traj):
    rng = np.random.default_rng(2024)
    failures = []

    # contraction of CPTP snapshots on 200 random witnesses
    markov = evolve(Dephasing(rate=Constant(1.0)), np.linspace(0, 2, 33))
    snapshots = [markov.maps[10], markov.maps[-1],
                 random_cptp(2, rng), random_cptp(2, rng)]
    for i in range(200):
        x = ops.random_hermitian(4, rng)
        m = snapshots[i % len(snapshots)]
        if ops.trace_norm(apply_superop(m, x)) > ops.trace_norm(x) + 1e-8:
            failures.append("contraction")
            break

    # fidelity-distance bounds on 200 random pairs (squared-F convention)
    for _ in range(200):
        d = int(rng.integers(2, 5))
        rho = ops.random_density_matrix(d, rng)
        sigma = ops.random_density_matrix(d, rng)
        fid, dist = ops.fidelity(rho, sigma), ops.trace_distance(rho, sigma)
        if not (1.0 - np.sqrt(fid) <= dist + 1e-9 and dist <= np.sqrt(1.0 - fid) + 1e-9):
            failures.append("fidelity-distance")
            break

    # PSD witnesses carry no signal
    psd = ops.random_hermitian(4, rng)
    psd = psd @ psd.conj().T + 0.05 * np.eye(4)
    values = np.asarray([ops.trace_norm(apply_superop(m, psd)) for m in sine_traj.maps])
    flows = derivative_series(sine_traj.times, values)
    if np.abs(flows).max() > 1e-8:
        failures.append("psd-nullity")

    # divergence monotonicity and fidelity growth under CPTP snapshots
    for _ in range(25):
        channel = random_cptp(2, rng)
        rho = ops.random_density_matrix(2, rng)
        sigma = ops.random_density_matrix(2, rng)
        crho, csigma = apply_superop(channel, rho), apply_superop(channel, sigma)
        checks = [
            ops.relative_entropy(crho, csigma) <= ops.relative_entropy(rho, sigma) + 1e-9,
            ops.renyi_relative_entropy(crho, csigma, 2.0)
            <= ops.renyi_relative_entropy(rho, sigma, 2.0) + 1e-9,
            ops.tsallis_relative_entropy(crho, csigma, 0.5)
            <= ops.tsallis_relative_entropy(rho, sigma, 0.5) + 1e-9,
            ops.fidelity(crho, csigma) >= ops.fidelity(rho, sigma) - 1e-9,
        ]
        if not all(checks):
            failures.append("monotonicity")
            break

    # skew information: nonnegative, and the variance for pure states
    for _ in range(50):
        rho = ops.random_density_matrix(3, rng)
        x = ops.random_hermitian(3, rng)
        p = float(rng.uniform(0.05, 0.95))
        if ops.skew_information(rho, x, p) < -1e-10:
            failures.append("skew-nonneg")
            break
    psi = ops.random_pure_state(3, rng)
    x = ops.random_hermitian(3, rng)
    variance = float((psi.conj() @ x @ x @ psi - (psi.conj() @ x @ psi) ** 2).real)
    if abs(ops.skew_information(projector(psi), x, 0.5) - variance) > 1e-9:
        failures.append("skew-variance")

    # dual/primal violation-detection agreement on the tested models
    models = [
        evolve(Dephasing(rate=Sine(1.0)), SINE_GRID),
        markov,
        evolve(TraceReplacement(rate=Constant(1.0), target=BlochZSineTarget(scale=1.2)),
               np.linspace(0, 2 * np.pi, 257)),
    ]
    for traj in models:
        candidates = [0.5 * np.kron(a, b)
                      for a in (np.eye(2), PAULI_X, PAULI_Y, PAULI_Z)
                      for b in (PAULI_X, PAULI_Y, PAULI_Z)]
        data = step_choi_data(traj)
        if data.worst_vector is not None:
            candidates.append(np.outer(data.worst_vector, data.worst_vector.conj())
                              - np.eye(4) / 4)
        primal_hit = dual_hit = False
        for x in candidates:
            try:
                primal_hit |= bool(series(traj, ExtendedTraceNormWitness(x)).violation_intervals)
                dual_hit |= bool(series(traj, DualOperatorNormWitness(x)).violation_intervals)
            except ValueError:
                continue
        if primal_hit != dual_hit:
            failures.append("dual-primal")
            break

    ok = not failures
    _report(7, ok, "contraction, F-D bounds, PSD nullity, channel monotonicity, "
                   "skew information, dual/primal agreement"
                   + ("" if ok else f" - FAILED: {failures}"))
    assert not failures


def test_criterion_8_commutative_modes(sine_traj):
    result = spectral_modes(sine_traj)
    expected = np.exp(-(1.0 - np.cos(SINE_GRID)))
    flat = [m for m in result.modes if np.abs(np.abs(m.eigenvalues) - 1.0).max() <= 1e-6]
    damped = [m for m in result.modes if np.abs(m.eigenvalues - expected).max() <= 1e-6]
    counts_ok = result.commutative and len(flat) == 2 and len(damped) == 2

    h = SINE_GRID[1] - SINE_GRID[0]
    flags_ok = True
    for mode in damped:
        if len(mode.monotonicity_violations) != 1:
            flags_ok = False
            continue
        a, b = mode.monotonicity_violations[0]
        flags_ok &= abs(a - np.pi) <= h + 1e-12 and abs(b - 2.0 * np.pi) <= h + 1e-12
    for mode in flat:
        flags_ok &= mode.monotonicity_violations == []

    ok = counts_ok and flags_ok
    _report(8, ok, f"modes (1,1,e^-Gamma,e^-Gamma) within 1e-6: "
                   f"{'ok' if counts_ok else 'FAILED'}; monotonicity flagged exactly on "
                   f"the negative-rate window: {'ok' if flags_ok else 'FAILED'}")
    assert counts_ok
    assert flags_ok
