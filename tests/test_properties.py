"""Randomized invariant suites: norm orderings, fidelity bounds, channel
monotonicity, contraction of extended maps, hierarchy of criteria, composition
law and trace preservation along trajectories, and convergence of the verdict
windows under grid refinement."""

import numpy as np
import pytest

from nonmarkov import operators as ops
from nonmarkov.dynamics import (
    SIGMA_MINUS,
    BlochZSineTarget,
    Constant,
    Dephasing,
    Lindblad,
    OffsetSine,
    Sine,
    SpinBoson,
    TraceReplacement,
    apply_superop,
    choi_matrix,
    dual_superop,
    evolve,
    intermediate_map,
)
from nonmarkov.measures import divisibility_verdict
from nonmarkov.volterra import ExponentialKernel
from nonmarkov.witnesses import (
    DualOperatorNormWitness,
    ExtendedTraceNormWitness,
    InformationFlowPair,
    derivative_series,
    series,
)

from conftest import PAULI_X, PAULI_Y, PAULI_Z, random_cptp


def _models_and_grids():
    return [
        (Dephasing(rate=Sine(1.0)), np.linspace(0, 2 * np.pi, 257), "analytic"),
        (Dephasing(rate=Constant(1.0)), np.linspace(0, 2 * np.pi, 257), "analytic"),
        (TraceReplacement(rate=Constant(1.0), target=BlochZSineTarget(scale=1.2)),
         np.linspace(0, 2 * np.pi, 257), "analytic"),
        (SpinBoson(kernel=ExponentialKernel(coupling=4.0, rate=1.0)),
         np.linspace(0, 10, 2001), "analytic"),
    ]


class TestNormOrdering:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_trace_norm_bounds(self, dim, rng):
        for _ in range(50):
            a = ops.random_hermitian(dim, rng)
            tn, on = ops.trace_norm(a), np.abs(ops.eigvalsh(a)).max(-1)
            assert tn >= on - 1e-12
            assert tn <= dim * on + 1e-12


class TestFidelityDistanceBounds:
    def test_bounds_on_random_pairs(self, rng):
        # with the squared Uhlmann convention F = (Tr sqrt(sqrt(r) s sqrt(r)))^2
        # the two-sided bound reads 1 - sqrt(F) <= D <= sqrt(1 - F)
        for _ in range(200):
            d = int(rng.integers(2, 5))
            rho = ops.random_density_matrix(d, rng)
            sigma = ops.random_density_matrix(d, rng)
            fid = ops.fidelity(rho, sigma)
            dist = ops.trace_distance(rho, sigma)
            assert 1.0 - np.sqrt(fid) <= dist + 1e-9
            assert dist <= np.sqrt(1.0 - fid) + 1e-9


class TestDivergenceProperties:
    def test_relative_entropy_nonnegative_and_faithful(self, rng):
        for _ in range(50):
            rho = ops.random_density_matrix(3, rng)
            sigma = ops.random_density_matrix(3, rng)
            assert ops.relative_entropy(rho, sigma) >= -1e-9
            assert ops.relative_entropy(rho, rho) <= 1e-9

    def test_skew_information_nonnegative(self, rng):
        for _ in range(50):
            rho = ops.random_density_matrix(3, rng)
            x = ops.random_hermitian(3, rng)
            p = float(rng.uniform(0.05, 0.95))
            assert ops.skew_information(rho, x, p) >= -1e-10

    def test_unitary_invariance(self, rng):
        for _ in range(10):
            rho = ops.random_density_matrix(3, rng)
            sigma = ops.random_density_matrix(3, rng)
            h = ops.random_hermitian(3, rng)
            w, v = np.linalg.eigh(h)
            u = (v * np.exp(1j * w)) @ v.conj().T
            ur, us = u @ rho @ u.conj().T, u @ sigma @ u.conj().T
            assert ops.relative_entropy(ur, us) == pytest.approx(
                ops.relative_entropy(rho, sigma), abs=1e-9)
            assert ops.renyi_relative_entropy(ur, us, 1.5) == pytest.approx(
                ops.renyi_relative_entropy(rho, sigma, 1.5), abs=1e-9)
            assert ops.tsallis_relative_entropy(ur, us, 0.5) == pytest.approx(
                ops.tsallis_relative_entropy(rho, sigma, 0.5), abs=1e-9)
            assert ops.fidelity(ur, us) == pytest.approx(
                ops.fidelity(rho, sigma), abs=1e-9)


class TestChannelMonotonicity:
    def test_divergences_contract_and_fidelity_grows(self, rng):
        for _ in range(25):
            d = 2
            channel = random_cptp(d, rng)
            rho = ops.random_density_matrix(d, rng)
            sigma = ops.random_density_matrix(d, rng)
            crho = apply_superop(channel, rho)
            csigma = apply_superop(channel, sigma)
            assert ops.relative_entropy(crho, csigma) <= ops.relative_entropy(rho, sigma) + 1e-9
            for alpha in (0.3, 1.5, 2.0):
                assert ops.renyi_relative_entropy(crho, csigma, alpha) <= (
                    ops.renyi_relative_entropy(rho, sigma, alpha) + 1e-9)
            assert ops.tsallis_relative_entropy(crho, csigma, 0.5) <= (
                ops.tsallis_relative_entropy(rho, sigma, 0.5) + 1e-9)
            assert ops.fidelity(crho, csigma) >= ops.fidelity(rho, sigma) - 1e-9


class TestContraction:
    def test_extended_map_contracts_trace_norm(self, rng):
        traj = evolve(Dephasing(rate=Constant(1.0)), np.linspace(0, 2, 33))
        snapshots = [traj.maps[10], traj.maps[-1], random_cptp(2, rng), random_cptp(2, rng)]
        count = 0
        while count < 200:
            x = ops.random_hermitian(4, rng)
            m = snapshots[count % len(snapshots)]
            assert ops.trace_norm(apply_superop(m, x)) <= ops.trace_norm(x) + 1e-8
            count += 1

    def test_psd_witness_is_blind(self, rng):
        traj = evolve(Dephasing(rate=Sine(1.0)), np.linspace(0, 2 * np.pi, 129))
        psd = ops.random_hermitian(4, rng)
        psd = psd @ psd.conj().T + 0.1 * np.eye(4)
        values = np.asarray([ops.trace_norm(apply_superop(m, psd)) for m in traj.maps])
        np.testing.assert_allclose(values, np.trace(psd).real, atol=1e-10)
        flows = derivative_series(traj.times, values)
        assert np.abs(flows).max() <= 1e-8


class TestHierarchy:
    def test_markovian_no_witness_implies_no_backflow(self, rng):
        traj = evolve(Dephasing(rate=Constant(1.0)), np.linspace(0, 2 * np.pi, 129))
        candidates = [0.5 * np.kron(a, b)
                      for a in (np.eye(2), PAULI_X, PAULI_Y, PAULI_Z)
                      for b in (np.eye(2), PAULI_X, PAULI_Y, PAULI_Z)][1:]
        worst = -np.inf
        for x in candidates:
            try:
                spec = ExtendedTraceNormWitness(x)
            except ValueError:
                continue
            worst = max(worst, series(traj, spec).values.max())
        assert worst <= 1e-8
        for _ in range(20):
            pair = InformationFlowPair(ops.random_density_matrix(2, rng),
                                       ops.random_density_matrix(2, rng))
            assert series(traj, pair).values.max() <= 1e-8

    def test_backflow_implies_witness(self):
        traj = evolve(Dephasing(rate=Sine(1.0)), np.linspace(0, 2 * np.pi, 257))
        pair = InformationFlowPair(
            0.5 * (np.eye(2) + PAULI_X), 0.5 * (np.eye(2) - PAULI_X))
        assert series(traj, pair).values.max() > 1e-3
        spec = ExtendedTraceNormWitness(0.5 * np.kron(PAULI_X, PAULI_X))
        assert series(traj, spec).values.max() > 1e-3


class TestDualEquivalence:
    @pytest.mark.parametrize("model,grid,backend", _models_and_grids())
    def test_violation_detection_agrees(self, model, grid, backend):
        from nonmarkov.measures import step_choi_data
        traj = evolve(model, grid, backend=backend)
        candidates = [0.5 * np.kron(a, b)
                      for a in (np.eye(2), PAULI_X, PAULI_Y, PAULI_Z)
                      for b in (PAULI_X, PAULI_Y, PAULI_Z)]
        data = step_choi_data(traj)
        if data.worst_vector is not None:
            proj = np.outer(data.worst_vector, data.worst_vector.conj())
            candidates.append(proj - np.eye(4) / 4)
        primal_hit = dual_hit = False
        for x in candidates:
            try:
                primal_hit |= bool(series(traj, ExtendedTraceNormWitness(x)).violation_intervals)
                dual_hit |= bool(series(traj, DualOperatorNormWitness(x)).violation_intervals)
            except ValueError:
                continue
        assert primal_hit == dual_hit


class TestTrajectoryInvariants:
    @pytest.mark.parametrize("model,grid,backend", _models_and_grids())
    def test_composition_law(self, model, grid, backend, rng):
        traj = evolve(model, grid, backend=backend)
        checked = 0
        while checked < 30:
            u, s, t = np.sort(rng.choice(traj.nodes, size=3, replace=False))
            try:
                v_ts = intermediate_map(traj, traj.times[t], traj.times[s])
                v_su = intermediate_map(traj, traj.times[s], traj.times[u])
                v_tu = intermediate_map(traj, traj.times[t], traj.times[u])
            except Exception:
                continue  # singular interval, excluded from divisibility checks
            assert np.linalg.norm(v_ts @ v_su - v_tu) <= 1e-6
            checked += 1

    @pytest.mark.parametrize("model,grid,backend", _models_and_grids())
    def test_trace_preservation(self, model, grid, backend, rng):
        traj = evolve(model, grid, backend=backend)
        for _ in range(10):
            x = ops.random_hermitian(traj.dim, rng)
            evolved = apply_superop(traj.maps[:: max(1, traj.nodes // 32)], x)
            traces = np.trace(evolved, axis1=1, axis2=2)
            np.testing.assert_allclose(traces, np.trace(x), atol=1e-8)

    def test_choi_of_cptp_snapshot_is_psd(self):
        traj = evolve(Dephasing(rate=Constant(1.0)), np.linspace(0, 2, 65))
        for m in traj.maps:
            assert np.linalg.eigvalsh(choi_matrix(m)).min() >= -1e-9

    def test_hermiticity_preservation(self, rng):
        traj = evolve(Dephasing(rate=Sine(1.0)), np.linspace(0, 2 * np.pi, 65))
        x = ops.random_hermitian(2, rng)
        evolved = apply_superop(traj.maps, x)
        assert np.abs(evolved - np.conj(np.transpose(evolved, (0, 2, 1)))).max() < 1e-9

    def test_dual_pairing_along_trajectory(self, rng):
        traj = evolve(Dephasing(rate=Sine(1.0)), np.linspace(0, 2 * np.pi, 65))
        for k in (3, 17, 40):
            rho = ops.random_density_matrix(2, rng)
            x = ops.random_hermitian(2, rng)
            lhs = np.trace(apply_superop(traj.maps[k], rho) @ x)
            rhs = np.trace(rho @ apply_superop(dual_superop(traj.maps[k]), x))
            assert abs(lhs - rhs) <= 1e-10

    def test_verdict_ordering_example(self):
        # Markovian iff every step Choi is PSD: a positive-rate dephasing
        traj = evolve(Dephasing(rate=Constant(1.0)), np.linspace(0, 2, 65))
        assert divisibility_verdict(traj).markovian


# Models with their grid end and exact violation windows: the rate is negative
# on the windows of sine dephasing and of the driven GKSL qubit of
# perfbench/workloads/gksl_bank.ini, and example 2's target leaves the state
# space where |1.2 sin t| > 1.
_EDGE = float(np.arcsin(1.0 / 1.2))
CONVERGENCE_CASES = {
    "sine_dephasing": (Dephasing(rate=Sine(1.0)), 2 * np.pi, [(np.pi, 2 * np.pi)]),
    "gksl_bank": (Lindblad(hamiltonian=0.5 * PAULI_Z,
                           noise=((SIGMA_MINUS, OffsetSine(0.2, 1.0)), (PAULI_Z, Sine(0.5))),
                           dim=2),
                  4 * np.pi, [(np.pi, 2 * np.pi), (3 * np.pi, 4 * np.pi)]),
    "example_2": (TraceReplacement(rate=Constant(1.0), target=BlochZSineTarget(scale=1.2)),
                  2 * np.pi, [(_EDGE, np.pi - _EDGE), (np.pi + _EDGE, 2 * np.pi - _EDGE)]),
}


class TestVerdictConvergence:
    @pytest.mark.parametrize("name", sorted(CONVERGENCE_CASES))
    @pytest.mark.parametrize("nodes", [257, 1025, 4097])
    def test_windows_within_one_step_of_exact(self, name, nodes):
        model, t_max, exact = CONVERGENCE_CASES[name]
        times = np.linspace(0, t_max, nodes)
        windows = divisibility_verdict(evolve(model, times)).violation_intervals
        assert len(windows) == len(exact)
        h = times[1]
        for (start, end, _), (want_start, want_end) in zip(windows, exact):
            assert abs(start - want_start) <= h
            assert abs(end - want_end) <= h
