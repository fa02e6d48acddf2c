import dataclasses
import json
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson, solve_ivp

import nonmarkov.dynamics as dyn
from nonmarkov.dynamics import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    BlochZSineTarget,
    Constant,
    ConstantTarget,
    Dephasing,
    Lindblad,
    OffsetSine,
    Sine,
    SingularPropagatorError,
    SpinBoson,
    TraceReplacement,
    Trajectory,
    apply_superop,
    choi_matrix,
    dual_superop,
    evolve,
    generator_superoperator,
    intermediate_map,
    load_trajectory,
    pull_back,
    save_trajectory,
    vec,
)
from nonmarkov.measures import step_choi_data
from nonmarkov.operators import max_entangled_projector, random_hermitian
from nonmarkov.volterra import ExponentialKernel, TabulatedKernel, amplitude, solve_memory_kernel

from conftest import PAULI_X, PAULI_Z, projector, KET0, KET1, extended_superop, unvec


class TestVectorization:
    def test_vec_column_stacking(self):
        m = np.array([[1, 2], [3, 4]])
        np.testing.assert_array_equal(vec(m), [1, 3, 2, 4])
        np.testing.assert_array_equal(unvec(vec(m)), m)

    def test_apply_superop_identity(self, rng):
        x = random_hermitian(3, rng)
        np.testing.assert_allclose(apply_superop(np.eye(9), x), x, atol=1e-14)

    def test_batch_matches_single(self, rng):
        ms = np.stack([np.eye(4, dtype=complex),
                       dyn.sandwich(PAULI_X)])
        x = random_hermitian(2, rng)
        batch = apply_superop(ms, x)
        for k in range(2):
            np.testing.assert_allclose(batch[k], apply_superop(ms[k], x), atol=1e-13)

    def test_nested_stack_matches_per_map_calls(self, rng):
        ms = rng.normal(size=(3, 4, 9, 9)) + 1j * rng.normal(size=(3, 4, 9, 9))
        x = random_hermitian(3, rng)
        stacked = apply_superop(ms, x)
        assert stacked.shape == (3, 4, 3, 3)
        for i, j in np.ndindex(3, 4):
            np.testing.assert_allclose(stacked[i, j], apply_superop(ms[i, j], x), atol=1e-13)
            np.testing.assert_allclose(stacked[i, j], unvec(ms[i, j] @ vec(x), 3), atol=1e-13)

    def test_extended_superop_matches_blockwise(self, rng):
        m = dyn.sandwich(PAULI_X) @ np.diag([1.0, 0.5, 0.5, 1.0]).astype(complex)
        y = random_hermitian(4, rng)
        via_matrix = unvec(extended_superop(m) @ vec(y), 4)
        np.testing.assert_allclose(apply_superop(m, y), via_matrix, atol=1e-12)


class TestGenerator:
    def test_dephasing_on_sigma_x(self):
        gen = generator_superoperator(Dephasing(rate=Constant(1.0)), 0.3)
        np.testing.assert_allclose(apply_superop(gen, PAULI_X), -PAULI_X, atol=1e-14)

    @pytest.mark.parametrize("model", [
        Dephasing(rate=Sine(1.0)),
        TraceReplacement(rate=Constant(1.0), target=BlochZSineTarget(scale=1.2)),
        Lindblad(hamiltonian=0.5 * PAULI_Z, noise=((PAULI_X, Constant(0.3)),), dim=2),
    ])
    def test_trace_annihilation(self, model, rng):
        gen = generator_superoperator(model, 1.1)
        for _ in range(5):
            x = random_hermitian(2, rng)
            assert abs(np.trace(apply_superop(gen, x))) < 1e-12

    def test_trace_replacement_form(self, rng):
        model = TraceReplacement(rate=Constant(1.0),
                                 target=ConstantTarget(0.5 * np.eye(2)))
        gen = generator_superoperator(model, 0.0)
        rho = np.array([[0.8, 0.1], [0.1, 0.2]], dtype=complex)
        np.testing.assert_allclose(apply_superop(gen, rho), 0.5 * np.eye(2) - rho, atol=1e-14)

    def test_target_trace_validated(self):
        model = TraceReplacement(rate=Constant(1.0), target=ConstantTarget(np.eye(2)))
        with pytest.raises(ValueError):
            generator_superoperator(model, 0.0)

    def test_spin_boson_is_its_kernel_alone(self):
        model = SpinBoson(kernel=ExponentialKernel(1.0, 4.0))
        assert [f.name for f in dataclasses.fields(model)] == ["kernel"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.kernel = ExponentialKernel(4.0, 1.0)

    def test_gksl_matches_dephasing(self):
        # sigma_z noise at half rate reproduces the pure-dephasing generator
        a = generator_superoperator(Dephasing(rate=Constant(1.0)), 0.0)
        b = generator_superoperator(
            Lindblad(hamiltonian=None, noise=((PAULI_Z, Constant(0.5)),), dim=2), 0.0
        )
        np.testing.assert_allclose(a, b, atol=1e-14)


def _kron_generator(model, t):
    """Reference L_t at one time, from explicit Kronecker products."""
    d = model.dim
    eye = np.eye(d)
    lmul = lambda a: np.kron(eye, a)
    rmul = lambda b: np.kron(b.T, eye)
    hamiltonian = lambda h: -1j * (lmul(h) - rmul(h))

    def dissipator(a):
        gram = a.conj().T @ a
        return np.kron(a.conj(), a) - 0.5 * (lmul(gram) + rmul(gram))

    if isinstance(model, Dephasing):
        return 0.5 * float(model.rate(t)) * dissipator(PAULI_Z)
    if isinstance(model, TraceReplacement):
        omega = model.target(t)
        return float(model.rate(t)) * (np.outer(vec(omega), vec(eye)) - np.eye(d * d))
    if isinstance(model, SpinBoson):
        # G is real, so the shift -2 Im G'/G vanishes
        g, dg = amplitude(model.kernel, t)
        ratio = dg / g
        return -2.0 * float(ratio) * dissipator(SIGMA_MINUS)
    out = np.zeros((d * d, d * d), dtype=complex)
    if model.hamiltonian is not None:
        out += hamiltonian(model.hamiltonian)
    for op, rate in model.noise:
        out += float(rate(t)) * dissipator(op)
    return out


GENERATOR_CASES = {
    "sine_dephasing": (Dephasing(rate=Sine(1.0)), np.linspace(0, 2 * np.pi, 97)),
    "bloch_z_replacement": (
        TraceReplacement(rate=Constant(1.0), target=BlochZSineTarget(scale=1.2)),
        np.linspace(0, 2 * np.pi, 97)),
    # the driven GKSL qubit of perfbench/workloads/gksl_bank.ini
    "gksl_bank": (
        Lindblad(hamiltonian=0.5 * SIGMA_Z,
                 noise=((SIGMA_MINUS, OffsetSine(0.2, 1.0)), (SIGMA_Z, Sine(0.5))), dim=2),
        np.linspace(0, 4 * np.pi, 201)),
    "hamiltonian_only": (Lindblad(hamiltonian=0.5 * PAULI_X, noise=(), dim=2),
                         np.linspace(0, 1, 9)),
    "qutrit": (Lindblad(hamiltonian=None,
                        noise=((np.diag([1.0, 0, 0]).astype(complex), Constant(1.0)),), dim=3),
               np.linspace(0, 1, 9)),
    "spin_boson": (SpinBoson(kernel=ExponentialKernel(1.0, 4.0)), np.linspace(0, 5, 101)),
}


class TestGeneratorStack:
    @pytest.mark.parametrize("name", sorted(GENERATOR_CASES))
    def test_stack_matches_scalar_and_kron_reference(self, name):
        model, times = GENERATOR_CASES[name]
        n = model.dim ** 2
        stack = generator_superoperator(model, times)
        assert stack.shape == (times.size, n, n)
        for k, t in enumerate(times):
            single = generator_superoperator(model, t)
            assert single.shape == (n, n)
            np.testing.assert_array_equal(single, stack[k])
            np.testing.assert_allclose(stack[k], _kron_generator(model, t), rtol=0, atol=1e-14)
        grid = generator_superoperator(model, times[: times.size // 2 * 2].reshape(2, -1))
        np.testing.assert_array_equal(grid.reshape(-1, n, n), stack[: times.size // 2 * 2])

    def test_first_bad_target_time_named(self):
        def target(t):
            late = (np.asarray(t) > 1.0)[..., None, None]
            return 0.5 * np.eye(2, dtype=complex) * (1.0 + late)

        model = TraceReplacement(rate=Constant(1.0), target=target)
        assert generator_superoperator(model, np.linspace(0, 1, 5)).shape == (5, 4, 4)
        with pytest.raises(ValueError, match=r"t=1\.5 has trace"):
            generator_superoperator(model, np.linspace(0, 2, 5))


class TestChoiAndDual:
    def test_choi_identity(self):
        np.testing.assert_allclose(
            choi_matrix(np.eye(4, dtype=complex)), 2.0 * max_entangled_projector(2),
            atol=1e-14,
        )

    def test_choi_depolarizing(self):
        # rho -> I/2 for every input
        m = np.outer(vec(0.5 * np.eye(2, dtype=complex)), vec(np.eye(2, dtype=complex)).conj())
        np.testing.assert_allclose(choi_matrix(m), np.eye(4) / 2.0, atol=1e-14)

    def test_choi_dephasing_eigenvalues(self):
        gamma = 0.7
        m = np.diag([1.0, np.exp(-gamma), np.exp(-gamma), 1.0]).astype(complex)
        eig = np.sort(np.linalg.eigvalsh(choi_matrix(m)))
        np.testing.assert_allclose(
            eig, [0.0, 0.0, 1.0 - np.exp(-gamma), 1.0 + np.exp(-gamma)], atol=1e-12
        )

    def test_choi_matches_definition(self, rng):
        m = dyn.sandwich(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        expected = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                unit = np.zeros((2, 2), dtype=complex)
                unit[i, j] = 1.0
                expected += np.kron(unit, apply_superop(m, unit))
        np.testing.assert_allclose(choi_matrix(m), expected, atol=1e-12)

    def test_dual_identity_and_involution(self, rng):
        from conftest import random_cptp
        m = random_cptp(2, rng)
        np.testing.assert_allclose(dual_superop(np.eye(4)), np.eye(4), atol=1e-15)
        np.testing.assert_allclose(dual_superop(dual_superop(m)), m, atol=1e-15)

    def test_dual_trace_pairing(self, rng):
        from conftest import random_cptp
        m = random_cptp(3, rng)
        rho = np.asarray(np.diag([0.5, 0.3, 0.2]), dtype=complex)
        x = random_hermitian(3, rng)
        lhs = np.trace(apply_superop(m, rho) @ x)
        rhs = np.trace(rho @ apply_superop(dual_superop(m), x))
        assert abs(lhs - rhs) < 1e-10

    def test_dual_unital_when_trace_preserving(self, rng):
        from conftest import random_cptp
        m = random_cptp(2, rng)
        out = apply_superop(dual_superop(m), np.eye(2, dtype=complex))
        np.testing.assert_allclose(out, np.eye(2), atol=1e-8)

    def test_spin_boson_heisenberg_entries(self):
        g = 0.6 + 0.3j
        maps = dyn._spin_boson_maps(np.array([g]))
        dual = dual_superop(maps[0])
        x = np.array([[1.5, 2.0 - 1.0j], [2.0 + 1.0j, -0.5]], dtype=complex)
        out = apply_superop(dual, x)
        # populations mix with 1-|G|^2 weight, coherence picks up G itself
        assert out[0, 0] == pytest.approx(x[0, 0])
        assert out[1, 1] == pytest.approx((1 - abs(g) ** 2) * x[0, 0] + abs(g) ** 2 * x[1, 1])
        assert out[0, 1] == pytest.approx(g * x[0, 1])


class TestEvolve:
    def test_identity_at_time_zero(self):
        traj = evolve(Dephasing(rate=Sine(1.0)), np.linspace(0, 1, 33))
        np.testing.assert_allclose(traj.maps[0], np.eye(4), atol=1e-13)

    def test_dephasing_damping_factor(self):
        traj = evolve(Dephasing(rate=Constant(1.0)), np.linspace(0, 1, 101))
        rho = projector((KET0 + KET1) / np.sqrt(2))
        out = apply_superop(traj.maps[-1], rho)
        assert out[0, 1] == pytest.approx(0.5 * np.exp(-1.0), abs=1e-9)

    def test_trace_replacement_convex_combination(self):
        omega = projector(KET1)
        model = TraceReplacement(rate=Constant(1.0), target=ConstantTarget(omega))
        traj = evolve(model, np.linspace(0, 2, 65))
        rho = projector(KET0)
        decay = np.exp(-2.0)
        expected = decay * rho + (1 - decay) * omega
        np.testing.assert_allclose(apply_superop(traj.maps[-1], rho), expected, atol=1e-9)

    @pytest.mark.parametrize("model", [
        Dephasing(rate=Sine(1.0)),
        TraceReplacement(rate=Constant(1.0), target=BlochZSineTarget(scale=1.2)),
    ])
    def test_analytic_numeric_agreement(self, model):
        times = np.linspace(0, 2 * np.pi, 129)
        analytic = evolve(model, times, backend="analytic")
        numeric = evolve(model, times, backend="numeric")
        assert np.abs(analytic.maps - numeric.maps).max() < 1e-6

    def test_trace_replacement_at_a_later_zero_of_gamma(self):
        # Gamma = 1 - cos t vanishes again at 2 pi, where the varying target
        # leaves id + |int rate e^Gamma target><I|, not the identity; just past
        # it Gamma is of order delta^2, and the map must not divide by it
        model = TraceReplacement(rate=Sine(1.0), target=BlochZSineTarget(scale=1.2))
        for delta in (0.0, 1e-6, 1e-5, 1e-4):
            times = np.linspace(0, 2 * np.pi + delta, 257)
            analytic = evolve(model, times, backend="analytic").maps
            numeric = evolve(model, times, backend="numeric").maps
            assert np.abs(analytic[-1] - np.eye(4)).max() > 1.0, delta
            assert np.abs(analytic[-1] - numeric[-1]).max() <= 1e-5, delta

    def test_spin_boson_ode_reproduces_populations(self):
        times = np.linspace(0, 10, 501)
        kernel = ExponentialKernel(coupling=1.0, rate=4.0)
        maps = _reference_numeric_maps(SpinBoson(kernel=kernel), times)
        g = kernel.closed_form_amplitude(times)
        rho = np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, 0.7]], dtype=complex)
        evolved = apply_superop(maps, rho)
        assert np.abs(evolved[:, 1, 1] - np.abs(g) ** 2 * rho[1, 1]).max() < 1e-6
        assert np.abs(evolved[:, 0, 1] - np.conj(g) * rho[0, 1]).max() < 1e-6

    def test_spin_boson_numeric_self_consistent(self):
        # the numeric maps carry the memory-kernel stepper's G itself
        times = np.linspace(0, 10, 2001)
        model = SpinBoson(kernel=ExponentialKernel(coupling=1.0, rate=4.0))
        traj = evolve(model, times, backend="numeric")
        g = solve_memory_kernel(model.kernel, times).values
        assert np.abs(traj.maps[:, 3, 3] - np.abs(g) ** 2).max() < 1e-5
        assert np.abs(traj.maps[:, 2, 2] - np.conj(g)).max() < 1e-5

    def test_spin_boson_backends_agree(self):
        # the paper's kernel, whose G changes sign four times on [0, 10]
        model = SpinBoson(kernel=ExponentialKernel(coupling=4.0, rate=1.0))
        errors = []
        for nodes in (1001, 2001):
            times = np.linspace(0, 10, nodes)
            analytic = evolve(model, times, backend="analytic")
            numeric = evolve(model, times, backend="numeric")
            errors.append(np.abs(analytic.maps - numeric.maps).max())
        assert errors[1] <= 1e-5
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.3)

    @pytest.mark.parametrize("backend", ["analytic", "numeric"])
    def test_spin_boson_longer_grid_solves_kernel_again(self, backend):
        # a model holds no state: reused on a longer grid it gives a fresh one's maps
        dense = np.linspace(0, 8, 801)
        kernel = TabulatedKernel(times=dense,
                                 values=ExponentialKernel(coupling=1.0, rate=4.0)(dense))
        model = SpinBoson(kernel=kernel)
        evolve(model, np.linspace(0, 1, 65), backend=backend)
        grid = np.linspace(0, 6, 385)
        reused = evolve(model, grid, backend=backend)
        fresh = evolve(SpinBoson(kernel=kernel), grid, backend=backend)
        np.testing.assert_array_equal(reused.maps, fresh.maps)

    def test_lindblad_has_no_analytic_backend(self):
        model = Lindblad(hamiltonian=None, noise=((PAULI_Z, Constant(0.5)),), dim=2)
        with pytest.raises(ValueError):
            evolve(model, np.linspace(0, 1, 33), backend="analytic")

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            evolve(Dephasing(rate=Constant(1.0)), np.linspace(0, 1, 17), backend="magic")


def _reference_numeric_maps(model, times):
    """dLambda/dt = L_t Lambda by scipy's DOP853 at rtol 1e-12, atol 1e-14,
    calling ``generator_superoperator`` at every right-hand side."""
    n = model.dim ** 2

    def rhs(t, y):
        return (generator_superoperator(model, t) @ y.reshape(n, n)).reshape(-1)

    sol = solve_ivp(rhs, (times[0], times[-1]), np.eye(n, dtype=complex).reshape(-1),
                    method="DOP853", t_eval=times, rtol=1e-12, atol=1e-14)
    assert sol.success, sol.message
    return sol.y.T.reshape(times.size, n, n)


NUMERIC_CASES = {
    # perfbench/workloads/gksl_bank.ini: the step doubling stops at 2 substeps
    "gksl_bank": (GENERATOR_CASES["gksl_bank"][0], np.linspace(0, 4 * np.pi, 2001), 2),
    "qutrit": (Lindblad(hamiltonian=np.diag([0.0, 1.0, 3.0]).astype(complex),
                        noise=((np.diag([1.0, 1.0], k=1).astype(complex), Sine(1.0)),
                               (np.diag([1.0, 0, -1.0]).astype(complex), Constant(0.2))),
                        dim=3),
               np.linspace(0, 4.0, 201), 4),
}


class TestNumericEvolve:
    @pytest.mark.parametrize("name", sorted(NUMERIC_CASES))
    def test_matches_high_order_reference(self, name, monkeypatch):
        model, times, substeps = NUMERIC_CASES[name]
        levels = []

        def recording_rk4_maps(gens, times, sub, _fn=dyn._rk4_maps):
            levels.append(sub)
            return _fn(gens, times, sub)

        monkeypatch.setattr(dyn, "_rk4_maps", recording_rk4_maps)
        maps = evolve(model, times, backend="numeric").maps
        reference = _reference_numeric_maps(model, times)
        tol = dyn.DEFAULT_ATOL + dyn.DEFAULT_RTOL * np.abs(reference).max()
        assert np.abs(maps - reference).max() <= tol
        assert levels[-1] == substeps

    def test_stiff_model_converges(self):
        # rate 30 at 64 intervals on [0, 2]: the maps fall to e^-60, and the
        # step doubling goes on to 32 substeps per interval
        model = Dephasing(rate=Constant(30.0))
        times = np.linspace(0, 2, 65)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            numeric = evolve(model, times, backend="numeric").maps
        analytic = evolve(model, times, backend="analytic").maps
        assert np.abs(numeric - analytic).max() <= 1e-8 * np.abs(analytic).max()

    def test_past_the_budget_fails_cleanly(self):
        # h * rate = 30 still at the last level within STEP_STACK_BUDGET
        model = Dephasing(rate=Constant(1e6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match="trajectory integration failed"):
                evolve(model, np.linspace(0, 2, 65), backend="numeric")

    def test_periodic_step_maps_agree(self):
        # the gksl_bank rates have period 2 pi, and the grid holds two periods:
        # step k and step k + 1000 are the same map, so the verdict windows are too
        model, times, _ = NUMERIC_CASES["gksl_bank"]
        minima = step_choi_data(evolve(model, times, backend="numeric")).min_eigenvalues
        assert minima[750] < -1e-3
        assert np.abs(minima[:1000] - minima[1000:]).max() <= 1e-12

    def test_constant_terms_built_once(self, monkeypatch):
        model, times, _ = NUMERIC_CASES["gksl_bank"]
        calls = {"commutator": 0, "dissipator": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(dyn, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(dyn, name, counted)
        evolve(model, times[:257], backend="numeric")
        assert calls == {"commutator": 1, "dissipator": 1}

    def test_generator_errors(self):
        with pytest.raises(TypeError, match="unknown generator model"):
            dyn.generator(object())


class TestIntermediateMap:
    @pytest.fixture
    def traj(self):
        return evolve(Dephasing(rate=Sine(1.0)), np.linspace(0, 2 * np.pi, 129))

    def test_same_time_is_identity(self, traj):
        t = traj.times[40]
        np.testing.assert_allclose(intermediate_map(traj, t, t), np.eye(4), atol=1e-10)

    def test_from_zero_is_full_map(self, traj):
        t = traj.times[77]
        np.testing.assert_allclose(intermediate_map(traj, t, 0.0), traj.maps[77], atol=1e-12)

    def test_dephasing_offdiagonal_ratio(self, traj):
        t, s = traj.times[100], traj.times[60]
        gamma = lambda u: 1.0 - np.cos(u)
        prop = intermediate_map(traj, t, s)
        expected = np.exp(-(gamma(t) - gamma(s)))
        assert prop[1, 1] == pytest.approx(expected, abs=1e-9)
        assert prop[2, 2] == pytest.approx(expected, abs=1e-9)

    def test_time_order_enforced(self, traj):
        with pytest.raises(ValueError):
            intermediate_map(traj, 0.1, 0.5)

    def test_singular_map_raises(self):
        # enormous accumulated damping makes Lambda_s numerically singular
        traj = evolve(Dephasing(rate=Constant(30.0)), np.linspace(0, 2, 65))
        with pytest.raises(SingularPropagatorError):
            intermediate_map(traj, 2.0, traj.times[60])

    def test_time_off_the_grid_raises(self, traj):
        # times are matched to nodes within 1e-9 max(1, t_max), never interpolated
        t, s = traj.times[64], traj.times[32]
        np.testing.assert_array_equal(intermediate_map(traj, t + 1e-12, s),
                                      intermediate_map(traj, t, s))
        mid = 0.5 * (s + traj.times[33])
        for late, early, off in [(t, mid, mid), (t + 1e-3, s, t + 1e-3), (7.0, 0.0, 7.0)]:
            with pytest.raises(ValueError, match=re.escape(f"t={off} is not a node")):
                intermediate_map(traj, late, early)


class TestAveragedTarget:
    @staticmethod
    def _omega(model, t):
        """Omega at t, the last node of a 513-node grid from 0."""
        return dyn.averaged_target_series(model, np.linspace(0.0, t, 513))[1][-1]

    def test_constant_target_is_fixed_point(self):
        omega = 0.5 * (np.eye(2) + 0.3 * PAULI_Z)
        model = TraceReplacement(rate=Constant(1.0), target=ConstantTarget(omega))
        np.testing.assert_allclose(self._omega(model, 1.7), omega, atol=1e-9)

    def test_unit_trace(self):
        model = TraceReplacement(rate=Constant(1.0), target=BlochZSineTarget(scale=1.2))
        for t in (0.5, 2.0, 5.0):
            assert np.trace(self._omega(model, t)).real == pytest.approx(1.0, abs=1e-9)

    def test_bloch_z_closed_form(self):
        model = TraceReplacement(rate=Constant(1.0), target=BlochZSineTarget(scale=1.2))
        t = 2.0
        out = self._omega(model, t)
        z = 1.2 * (np.exp(t) * (np.sin(t) - np.cos(t)) + 1.0) / (2.0 * (np.exp(t) - 1.0))
        assert out[0, 0].real == pytest.approx(0.5 * (1.0 + z), abs=1e-9)
        assert out[1, 1].real == pytest.approx(0.5 * (1.0 - z), abs=1e-9)

    def test_zero_time_limit(self):
        model = TraceReplacement(rate=Constant(1.0), target=BlochZSineTarget(scale=1.2))
        _, omegas = dyn.averaged_target_series(model, np.zeros(1))
        np.testing.assert_allclose(omegas[-1], 0.5 * np.eye(2), atol=1e-12)

    def test_nan_where_the_trace_is_rounding(self):
        # Gamma = 1 - cos t returns to 0 at 2 pi, where Tr W = e^Gamma - 1 is
        # rounding (-2.3e-14) and W / Tr W would be 2.5e14; the node before it
        # has Tr W = 3e-4 and a large but well-posed Omega
        model = TraceReplacement(rate=Sine(1.0), target=BlochZSineTarget(scale=1.2))
        _, omegas = dyn.averaged_target_series(model, np.linspace(0, 2 * np.pi, 257))
        nan = np.isnan(omegas).all(axis=(1, 2))
        assert nan.tolist() == [False] * 256 + [True]
        np.testing.assert_array_equal(omegas[0], model.target(0.0))
        assert np.trace(omegas[1:-1], axis1=1, axis2=2) == pytest.approx(1.0, abs=1e-9)


class TestTrajectoryValidation:
    def test_identity_enforced(self):
        maps = np.stack([np.eye(4) * 1.1, np.eye(4)]).astype(complex)
        with pytest.raises(ValueError, match="identity"):
            Trajectory(times=np.array([0.0, 1.0]), maps=maps)

    def test_trace_preservation_reports_node(self):
        traj = evolve(Dephasing(rate=Constant(1.0)), np.linspace(0, 1, 17))
        maps = traj.maps.copy()
        maps[5, 0, 0] = 2.0
        with pytest.raises(ValueError, match="node 5"):
            Trajectory(times=traj.times, maps=maps)

    @pytest.mark.parametrize("backend", ["analytic", "numeric"])
    @pytest.mark.parametrize("rate", [-5.0, -6.0])
    def test_trace_preservation_relative_to_map_scale(self, rate, backend):
        # Γ = 4 rate at the end, so the maps grow like e^{-Γ} and carry
        # rounding of that size in their traces
        model = TraceReplacement(Constant(rate), BlochZSineTarget(1.2))
        traj = evolve(model, np.linspace(0, 4, 129), backend=backend)
        assert np.abs(traj.maps).max() > 1e8

    def test_trace_defect_at_unit_scale_rejected(self):
        traj = evolve(Dephasing(rate=Constant(1.0)), np.linspace(0, 1, 17))
        maps = traj.maps.copy()
        maps[5, 0, 0] += 1e-6
        with pytest.raises(ValueError, match="node 5"):
            Trajectory(times=traj.times, maps=maps)

    def test_monotone_times(self):
        maps = np.stack([np.eye(4), np.eye(4)]).astype(complex)
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 0.0]), maps=maps)

    @pytest.mark.parametrize("rows, cols", [(3, 3), (4, 5), (0, 0)])
    def test_maps_must_be_square_of_a_square(self, rows, cols):
        maps = np.zeros((2, rows, cols), dtype=complex)
        maps[:, range(min(rows, cols)), range(min(rows, cols))] = 1.0
        with pytest.raises(ValueError, match=rf"maps of shape \(2, {rows}, {cols}\)"):
            Trajectory(times=np.array([0.0, 1.0]), maps=maps)

    def test_empty_grid(self):
        with pytest.raises(ValueError, match="empty"):
            Trajectory(times=np.array([]), maps=np.zeros((0, 4, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_map_rejected(self, bad):
        traj = evolve(Dephasing(rate=Constant(1.0)), np.linspace(0, 1, 17))
        maps = traj.maps.copy()
        maps[5, 2, 1] = bad
        with pytest.raises(ValueError, match="node 5 .*non-finite"):
            Trajectory(times=traj.times, maps=maps)

    @pytest.mark.parametrize("node, bad", [(9, np.nan), (16, np.inf)])
    def test_non_finite_time_rejected(self, node, bad):
        traj = evolve(Dephasing(rate=Constant(1.0)), np.linspace(0, 1, 17))
        times = traj.times.copy()
        times[node] = bad
        with pytest.raises(ValueError, match=f"node {node} .*non-finite"):
            Trajectory(times=times, maps=traj.maps)


class TestTrajectoryFile:
    def test_round_trip_bit_exact(self, tmp_path):
        traj = evolve(Dephasing(rate=Sine(1.0)), np.linspace(0, 2 * np.pi, 65))
        traj.maps[3, 1, 2] = complex(-0.0, 0.0)  # a signed zero survives too
        path = tmp_path / "t.traj"
        save_trajectory(traj, path)
        loaded = load_trajectory(path)
        assert loaded.times.tobytes() == traj.times.tobytes()
        assert loaded.maps.tobytes() == traj.maps.tobytes()
        assert loaded.meta["variant"] == "dephasing"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.traj"
        path.write_bytes(b"NOTATRAJ" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_trajectory(path)

    def test_truncated_rejected(self, tmp_path):
        traj = evolve(Dephasing(rate=Constant(1.0)), np.linspace(0, 1, 17))
        path = tmp_path / "t.traj"
        save_trajectory(traj, path)
        blob = path.read_bytes()
        header_len = struct.unpack("<Q", blob[8:16])[0]
        header = json.loads(blob[16:16 + header_len])

        def with_header(**changes):
            edited = {k: v for k, v in {**header, **changes}.items() if v != "drop"}
            text = json.dumps(edited).encode()
            return blob[:8] + struct.pack("<Q", len(text)) + text + blob[16 + header_len:]

        for broken in (
            blob[: len(blob) - 100],
            blob[:10],  # cut inside the 8-byte header-length field
            with_header(dim="drop"),
            with_header(dim=None),
            with_header(nodes=0),
            with_header(nodes=18),  # one node more than the file holds
        ):
            path.write_bytes(broken)
            with pytest.raises(ValueError):
                load_trajectory(path)
        for broken, message in (
            (blob + bytes(40), f"holds {len(blob) + 40} bytes.* needs {len(blob)}"),
            (with_header(nodes=16), r"\(16 maps of dimension 2\)"),  # one node fewer
            (with_header(dim=2.7), "integer 'dim'"),
            (with_header(nodes=17.0), "integer 'dim' and 'nodes'"),
            (with_header(dim=True), "integer 'dim'"),
            (with_header(model="not a model"), "JSON object 'model'"),
            (with_header(backend=[1, 2]), "string or null 'backend'"),
            (with_header(format="not-nonmarkov"), "'format' 'nonmarkov-trajectory'"),
            (with_header(format="drop"), "'format' 'nonmarkov-trajectory', got None"),
            (with_header(version=99), "'version' 1, got 99"),
            (with_header(version=1.0), "'version' 1, got 1.0"),
            (with_header(version="drop"), "'version' 1, got None"),
        ):
            path.write_bytes(broken)
            with pytest.raises(ValueError, match=message):
                load_trajectory(path)

    def test_model_echo_pinned_and_round_tripped(self, tmp_path):
        def unit_trace(t):
            return np.broadcast_to(np.eye(2) / 2, np.shape(t) + (2, 2))

        cases = [
            (Dephasing(Constant(0.5)),
             {"variant": "dephasing", "rate": {"preset": "constant", "value": 0.5}}),
            (Dephasing(Sine(1.0, 2.0, 0.25)),
             {"variant": "dephasing", "rate": {"preset": "sine", "amplitude": 1.0,
                                               "angular_frequency": 2.0, "phase": 0.25}}),
            (Dephasing(OffsetSine(0.5, 1.0)),
             {"variant": "dephasing", "rate": {"preset": "offset_sine", "offset": 0.5,
                                               "amplitude": 1.0, "angular_frequency": 1.0,
                                               "phase": 0.0}}),
            (Dephasing(dyn.Table((0.0, 1.0, 2.0), (1.0, -1.0, 0.5))),
             {"variant": "dephasing", "rate": {"preset": "table", "times": [0.0, 1.0, 2.0],
                                               "values": [1.0, -1.0, 0.5]}}),
            (TraceReplacement(Constant(1.0), ConstantTarget([[0.5, 0.25j], [-0.25j, 0.5]])),
             {"variant": "trace_replacement", "rate": {"preset": "constant", "value": 1.0},
              "target": {"preset": "constant", "matrix_real": [[0.5, 0.0], [0.0, 0.5]],
                         "matrix_imag": [[0.0, 0.25], [-0.25, 0.0]]}}),
            (TraceReplacement(Sine(1.0), BlochZSineTarget(1.2)),
             {"variant": "trace_replacement",
              "rate": {"preset": "sine", "amplitude": 1.0, "angular_frequency": 1.0,
                       "phase": 0.0},
              "target": {"preset": "bloch_z_sine", "scale": 1.2, "angular_frequency": 1.0}}),
            (SpinBoson(ExponentialKernel(2.0, 0.5)),
             {"variant": "spin_boson",
              "kernel": {"preset": "exponential", "coupling": 2.0, "rate": 0.5}}),
            (SpinBoson(TabulatedKernel([0.0, 1.0, 2.0], [1.0, 0.5, 0.25])),
             {"variant": "spin_boson", "kernel": {"preset": "table", "times": [0.0, 1.0, 2.0],
                                                  "values": [1.0, 0.5, 0.25]}}),
            (Lindblad(hamiltonian=SIGMA_Z, noise=((SIGMA_MINUS, Constant(1.0)),), dim=2),
             {"variant": "gksl", "hamiltonian_real": [[1, 0], [0, -1]],
              "hamiltonian_imag": [[0, 0], [0, 0]],
              "noise": [{"operator_real": [[0, 1], [0, 0]], "operator_imag": [[0, 0], [0, 0]],
                         "rate": {"preset": "constant", "value": 1.0}}],
              "dim": 2}),
            (Lindblad(hamiltonian=None, noise=((SIGMA_Z, Sine(0.5)), (0.5j * SIGMA_Z, dyn.Table(
                (0.0, 1.0), (1.0, 2.0)))), dim=2),
             {"variant": "gksl", "hamiltonian": None,
              "noise": [{"operator_real": [[1, 0], [0, -1]], "operator_imag": [[0, 0], [0, 0]],
                         "rate": {"preset": "sine", "amplitude": 0.5,
                                  "angular_frequency": 1.0, "phase": 0.0}},
                        {"operator_real": [[0, 0], [0, 0]], "operator_imag": [[0.5, 0], [0, -0.5]],
                         "rate": {"preset": "table", "times": [0.0, 1.0],
                                  "values": [1.0, 2.0]}}],
              "dim": 2}),
            (Dephasing(lambda t: np.ones_like(t)),
             {"variant": "dephasing", "rate": {"preset": "custom"}}),
            (TraceReplacement(Constant(1.0), unit_trace),
             {"variant": "trace_replacement", "rate": {"preset": "constant", "value": 1.0},
              "target": {"preset": "custom"}}),
            (None, {}),
        ]
        identity = np.broadcast_to(np.eye(4, dtype=complex), (3, 4, 4))
        for model, echo in cases:
            assert dyn.describe_model(model) == echo
            traj = Trajectory(times=np.linspace(0.0, 1.0, 3), maps=identity, model=model)
            assert traj.meta == echo
            save_trajectory(traj, tmp_path / "t.traj")
            assert load_trajectory(tmp_path / "t.traj").meta == echo

    def test_gksl_models_differing_in_one_rate_echo_differently(self):
        def model(rate):
            return Lindblad(hamiltonian=0.5 * SIGMA_Z,
                            noise=((SIGMA_MINUS, OffsetSine(0.2, 1.0)), (SIGMA_Z, Sine(rate))),
                            dim=2)

        assert dyn.describe_model(model(0.5)) != dyn.describe_model(model(0.25))
        assert dyn.describe_model(model(0.5)) == dyn.describe_model(model(0.5))

    def test_invariant_checked_on_load(self, tmp_path):
        traj = evolve(Dephasing(rate=Constant(1.0)), np.linspace(0, 1, 17))
        traj.maps[3, 0, 0] = 1.5
        path = tmp_path / "bad.traj"
        save_trajectory(traj, path)
        with pytest.raises(ValueError, match="node 3"):
            load_trajectory(path)


def _refined_uniform_grid(length):
    """A grid of ``length`` points built by ``_refined_grid`` from a coarse
    uniform grid, refine 16 where the length allows it."""
    refine = 16 if (length - 1) % 16 == 0 else length - 1
    return dyn._refined_grid(np.linspace(0.0, 2.0, (length - 1) // refine + 1), refine)


SIMPSON_GRIDS = {
    "uniform": lambda length: np.linspace(0.0, 2.0, length),
    "refined_uniform": _refined_uniform_grid,
    "non_uniform": lambda length: np.cumsum(
        np.random.default_rng(length).uniform(0.05, 1.0, length)) - 0.05,
}


class TestCumulativeSimpson:
    """The numpy port against scipy.integrate.cumulative_simpson(y, x=x,
    initial=0.0, axis=0), byte for byte."""

    @pytest.mark.parametrize("shape", [(), (2, 2)])
    @pytest.mark.parametrize("length", [1, 3, 4, 17, 18, 4097])
    @pytest.mark.parametrize("grid", sorted(SIMPSON_GRIDS))
    def test_bit_identical_to_scipy(self, grid, length, shape):
        x = SIMPSON_GRIDS[grid](length)
        assert x.size == length and np.all(np.diff(x) > 0)
        rng = np.random.default_rng(3)
        y = rng.normal(size=(length, *shape))
        expected = cumulative_simpson(y, x=x, initial=0.0, axis=0)
        got = dyn._cumulative_simpson(y, x)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

        z = y + 1j * rng.normal(size=y.shape)
        got = dyn._cumulative_simpson(z, x)
        assert got.dtype == complex and got.shape == z.shape
        assert got.real.tobytes() == cumulative_simpson(z.real, x=x, initial=0.0,
                                                        axis=0).tobytes()
        assert got.imag.tobytes() == cumulative_simpson(z.imag, x=x, initial=0.0,
                                                        axis=0).tobytes()

    def test_one_node_grid(self):
        model = TraceReplacement(rate=Constant(1.0), target=BlochZSineTarget(scale=1.2))
        gammas, omegas = dyn.averaged_target_series(model, np.zeros(1))
        assert gammas.tolist() == [0.0]
        np.testing.assert_array_equal(omegas, [model.target(0.0)])
        assert dyn.cumulative_rate_integral(Sine(1.0), np.zeros(1)).tolist() == [0.0]


_amplitudes = st.floats(-1.5, 1.5)
_frequencies = st.floats(0.2, 3.0)
_offsets = st.floats(-1.0, 1.0)
_rates = st.one_of(
    st.builds(Constant, _amplitudes),
    st.builds(Sine, _amplitudes, _frequencies),
    st.builds(OffsetSine, _offsets, _amplitudes, _frequencies),
)
_replacement_rates = st.one_of(
    st.builds(Constant, _amplitudes),
    st.builds(OffsetSine, _offsets, _amplitudes, _frequencies),
)
_targets = st.one_of(
    st.builds(lambda x, z: ConstantTarget(0.5 * (np.eye(2) + x * PAULI_X + z * PAULI_Z)),
              st.floats(-0.7, 0.7), st.floats(-0.7, 0.7)),
    st.builds(BlochZSineTarget, st.floats(0.0, 1.5), _frequencies),
)
_grids = st.builds(lambda t_max, nodes: np.linspace(0.0, t_max, nodes),
                   st.floats(0.5, 2 * np.pi), st.integers(33, 257))


def _assert_backends_agree(model, times):
    """Closed form and RK4 agree to 1e-5, relative to the map scale where a
    negative integrated rate makes the maps grow."""
    analytic = evolve(model, times, backend="analytic").maps
    numeric = evolve(model, times, backend="numeric").maps
    scale = max(1.0, float(np.abs(analytic).max()))
    assert np.abs(analytic - numeric).max() <= 1e-5 * scale


class TestBackendAgreement:
    """The ported quadrature of the closed forms against RK4 on the generator."""

    @settings(max_examples=25, deadline=None)
    @given(rate=_rates, times=_grids)
    def test_dephasing(self, rate, times):
        _assert_backends_agree(Dephasing(rate=rate), times)

    @settings(max_examples=25, deadline=None)
    @given(rate=_replacement_rates, target=_targets, times=_grids)
    # Gamma < 0 after t = 0: Omega is the integral quotient there, not target(0)
    @example(rate=OffsetSine(-0.3, 1.0), target=BlochZSineTarget(1.2),
             times=np.linspace(0.0, 3.0, 65))
    # Gamma < 0: the map multiplies the quadrature error of Tr Omega by 1 - e^{-Gamma}
    @example(rate=Constant(-1.5), target=ConstantTarget(0.5 * np.eye(2)),
             times=np.linspace(0.0, 4.0, 33))
    def test_trace_replacement(self, rate, target, times):
        _assert_backends_agree(TraceReplacement(rate=rate, target=target), times)


class TestApplySuperopStack:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 3), extended=st.booleans())
    def test_matches_materialized_superop(self, seed, dim, extended):
        rng = np.random.default_rng(seed)
        n = dim * dim
        size = n if extended else dim  # the operator acts on H ⊗ H or on H
        maps = rng.normal(size=(5, n, n)) + 1j * rng.normal(size=(5, n, n))
        y = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        stacked = apply_superop(maps, y)
        assert stacked.shape == (5, size, size)
        for m, got in zip(maps, stacked):
            want = unvec((extended_superop(m) if extended else m) @ vec(y), size)
            tol = 1e-13 * np.abs(m).max() * np.abs(y).max() * n
            np.testing.assert_allclose(got, want, rtol=0, atol=tol)
            np.testing.assert_array_equal(apply_superop(m, y), got)

    @pytest.mark.parametrize("dim, ancilla", [(2, 1), (2, 2), (3, 1), (3, 3)])
    def test_pull_back_is_the_adjoint(self, dim, ancilla):
        # Σ_k <(id_a ⊗ Λ_k)(x), y_k> = <x, pull_back(m, y)>, with <A, B> = Tr A†B
        rng = np.random.default_rng(10 * dim + ancilla)
        n, size = dim * dim, ancilla * dim
        maps = rng.normal(size=(7, n, n)) + 1j * rng.normal(size=(7, n, n))
        x = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        y = rng.normal(size=(7, size, size)) + 1j * rng.normal(size=(7, size, size))
        evolved = apply_superop(maps, x)
        lhs = np.vdot(evolved, y)
        rhs = np.vdot(x, pull_back(maps, y))
        assert abs(lhs - rhs) <= 1e-13 * np.linalg.norm(evolved) * np.linalg.norm(y)

    @pytest.mark.parametrize("dim, size", [(2, 1100), (3, 100)])
    def test_stack_spanning_several_row_blocks(self, dim, size):
        # more rows than one GEMM (H ⊗ H) or GEMV (H) block takes, split
        # inside a map for dim 3 and for the GEMV
        rng = np.random.default_rng(dim)
        n = dim * dim
        maps = rng.normal(size=(size, n, n)) + 1j * rng.normal(size=(size, n, n))
        assert size * n * n * n > dyn._SERIAL_GEMM_MNK and size * n * n > dyn._SERIAL_GEMV_MN
        for side in (n, dim):
            y = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
            stacked = apply_superop(maps, y)
            tol = 1e-13 * np.abs(maps).max() * np.abs(y).max() * n
            for k in range(size):
                matrix = extended_superop(maps[k]) if side == n else maps[k]
                want = unvec(matrix @ vec(y), side)
                np.testing.assert_allclose(stacked[k], want, rtol=0, atol=tol)
