import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nonmarkov.operators as ops
import nonmarkov.witnesses as wit
from nonmarkov.dynamics import (
    Constant,
    ConstantTarget,
    Dephasing,
    Sine,
    SpinBoson,
    TraceReplacement,
    Trajectory,
    apply_superop,
    dissipator,
    dual_superop,
    evolve,
    generator_superoperator,
    sandwich,
)
from nonmarkov.volterra import ExponentialKernel
from nonmarkov.witnesses import (
    DualOperatorNormWitness,
    ExtendedTraceNormWitness,
    InformationFlowPair,
    InvarianceError,
    InvariantOverlap,
    HeisenbergSkew,
    PlainTraceNormWitness,
    SchrodingerSkew,
    Stencil,
    TraceNormKernel,
    derivative_series,
    detect_violations,
    series,
    spectral_modes,
    verify_invariance,
)

from conftest import KET0, KET1, KET_MINUS, KET_PLUS, PAULI_X, PAULI_Z, projector

SINE_GRID = np.linspace(0, 2 * np.pi, 257)


@pytest.fixture(scope="module")
def sine_traj():
    return evolve(Dephasing(rate=Sine(1.0)), SINE_GRID)


@pytest.fixture(scope="module")
def markov_traj():
    return evolve(Dephasing(rate=Constant(1.0)), SINE_GRID)


class TestSpecValidation:
    def test_extended_witness_rejects_psd(self):
        with pytest.raises(ValueError, match="PSD"):
            ExtendedTraceNormWitness(np.eye(4))

    def test_dual_witness_rejects_psd(self):
        with pytest.raises(ValueError, match="PSD"):
            DualOperatorNormWitness(0.5 * np.kron(np.eye(2) + PAULI_X, np.eye(2)))

    def test_extended_witness_normalized(self):
        spec = ExtendedTraceNormWitness(0.5 * np.kron(PAULI_X, PAULI_X))
        assert np.abs(np.linalg.eigvalsh(spec.witness)).sum() == pytest.approx(1.0)

    def test_zero_plain_operator_rejected(self):
        with pytest.raises(ValueError, match="operator"):
            PlainTraceNormWitness(np.zeros((2, 2)))

    @pytest.mark.parametrize("psi0", [np.zeros(2), [np.nan, 1.0], [np.inf, 1.0]])
    def test_degenerate_invariant_vector_rejected(self, psi0):
        with pytest.raises(ValueError, match="psi0"):
            InvariantOverlap(0.5 * np.eye(2), np.asarray(psi0))

    def test_information_flow_pair_checks_states(self):
        with pytest.raises(ValueError):
            InformationFlowPair(np.eye(2), 0.5 * np.eye(2))

    def test_dimension_mismatch(self, sine_traj):
        spec = InformationFlowPair(np.eye(3) / 3, np.diag([1.0, 0, 0]).astype(complex))
        with pytest.raises(ValueError, match="dimension"):
            series(sine_traj, spec)


class TestFlows:
    def test_example_witness_closed_form(self, sine_traj):
        spec = ExtendedTraceNormWitness(0.5 * np.kron(PAULI_X, PAULI_X))
        ws = series(sine_traj, spec)
        expected = -np.sin(ws.times) * np.exp(-(1.0 - np.cos(ws.times)))
        assert np.abs(ws.values - expected).max() < 1e-4

    def test_information_flow_trace_replacement(self):
        model = TraceReplacement(rate=Constant(1.0),
                                 target=ConstantTarget(0.5 * np.eye(2)))
        traj = evolve(model, np.linspace(0, 3, 129))
        rho1, rho2 = projector(KET0), projector(KET1)
        ws = series(traj, InformationFlowPair(rho1, rho2))
        # flow = -gamma e^{-Gamma} * D(rho1, rho2), with D = 1 here
        expected = -np.exp(-ws.times)
        assert np.abs(ws.values - expected).max() < 1e-4
        assert np.abs(ws.values[1:-1] - expected[1:-1]).max() < 1e-6

    def test_identity_evolution_all_flows_vanish(self):
        traj = evolve(Dephasing(rate=Constant(0.0)), np.linspace(0, 1, 33))
        rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
        sigma = 0.5 * np.eye(2, dtype=complex)
        specs = [
            ExtendedTraceNormWitness(0.5 * np.kron(PAULI_X, PAULI_X)),
            PlainTraceNormWitness(np.diag([0.7, -0.3]).astype(complex)),
            InformationFlowPair(rho, sigma),
            wit.RelativeEntropyPair(rho, sigma),
            wit.RenyiPair(rho, sigma, alpha=1.5),
            wit.TsallisPair(rho, sigma, q=0.5),
            wit.FidelityPair(rho, sigma),
            InvariantOverlap(rho, KET0),
            SchrodingerSkew(rho, PAULI_X, 0.5),
            HeisenbergSkew(sigma, PAULI_X, 0.5),
            DualOperatorNormWitness(0.5 * np.kron(PAULI_X, PAULI_X)),
        ]
        for spec in specs:
            ws = series(traj, spec)
            assert np.abs(ws.values).max() < 1e-10, type(spec).__name__

    def test_dual_equals_primal_for_product_witness(self, sine_traj):
        primal = series(sine_traj, ExtendedTraceNormWitness(0.5 * np.kron(PAULI_X, PAULI_X)))
        dual = series(sine_traj, DualOperatorNormWitness(0.5 * np.kron(PAULI_X, PAULI_X)))
        assert np.abs(primal.values - dual.values).max() < 1e-10


@pytest.fixture(scope="module")
def spin_boson_traj():
    return evolve(SpinBoson(kernel=ExponentialKernel(coupling=4.0, rate=1.0)),
                  np.linspace(0, 10, 2001), backend="analytic")


PLUS, MINUS, MIXED = projector(KET_PLUS), projector(KET_MINUS), 0.5 * np.eye(2, dtype=complex)
XX = 0.5 * np.kron(PAULI_X, PAULI_X)

# Per family: the spec, a trajectory on which its flow is not zero, the sign
# (+1 where CP-divisible evolution cannot raise the functional, -1 where it
# cannot lower it) and the functional of one map from single-matrix calls.
FAMILY_REFERENCES = {
    "trace_norm_extended": (
        lambda: ExtendedTraceNormWitness(XX), "sine_traj", 1.0,
        lambda s, m: ops.trace_norm(apply_superop(m, s.witness))),
    "trace_norm_plain": (
        lambda: PlainTraceNormWitness(PAULI_X), "sine_traj", 1.0,
        lambda s, m: ops.trace_norm(apply_superop(m, s.operator))),
    "blp": (
        lambda: InformationFlowPair(PLUS, MINUS), "sine_traj", 1.0,
        lambda s, m: ops.trace_distance(apply_superop(m, s.rho1), apply_superop(m, s.rho2))),
    "relative_entropy": (
        lambda: wit.RelativeEntropyPair(PLUS, MIXED), "sine_traj", 1.0,
        lambda s, m: ops.relative_entropy(apply_superop(m, s.rho), apply_superop(m, s.sigma))),
    "renyi": (
        lambda: wit.RenyiPair(PLUS, MIXED, alpha=1.5), "sine_traj", 1.0,
        lambda s, m: ops.renyi_relative_entropy(apply_superop(m, s.rho),
                                                apply_superop(m, s.sigma), s.alpha)),
    "tsallis": (
        lambda: wit.TsallisPair(PLUS, MIXED, q=0.5), "sine_traj", 1.0,
        lambda s, m: ops.tsallis_relative_entropy(apply_superop(m, s.rho),
                                                  apply_superop(m, s.sigma), s.q)),
    "fidelity": (
        lambda: wit.FidelityPair(PLUS, MIXED), "sine_traj", -1.0,
        lambda s, m: ops.fidelity(apply_superop(m, s.rho), apply_superop(m, s.sigma))),
    "overlap": (
        lambda: InvariantOverlap(projector(KET1), KET0), "spin_boson_traj", -1.0,
        lambda s, m: (s.psi0.conj() @ apply_superop(m, s.rho) @ s.psi0).real),
    "skew_schrodinger": (
        lambda: SchrodingerSkew(PLUS, PAULI_Z, 0.5), "sine_traj", -1.0,
        lambda s, m: ops.skew_information(apply_superop(m, s.rho), s.observable, s.exponent)),
    "skew_heisenberg": (
        lambda: HeisenbergSkew(projector(KET0), PAULI_X, 0.5), "spin_boson_traj", 1.0,
        lambda s, m: ops.skew_information(s.sigma0, apply_superop(dual_superop(m), s.observable),
                                          s.exponent)),
    "dual_operator_norm": (
        lambda: DualOperatorNormWitness(XX), "sine_traj", 1.0,
        lambda s, m: np.abs(ops.eigvalsh(apply_superop(dual_superop(m), s.witness))).max(-1)),
}


@pytest.mark.parametrize("family", FAMILY_REFERENCES)
def test_family_matches_single_matrix_reference(family, request):
    make, traj_name, sign, functional = FAMILY_REFERENCES[family]
    spec, traj = make(), request.getfixturevalue(traj_name)
    values = np.array([functional(spec, m) for m in traj.maps])
    # none of these functionals kinks on its trajectory, so differencing the
    # functional itself is a reference for the spectral rule of the norm families
    reference = sign * derivative_series(traj.times, values)
    assert np.abs(reference).max() > 1e-3
    np.testing.assert_allclose(series(traj, spec).values, reference, rtol=0, atol=1e-12)


@pytest.mark.parametrize("grid", ["uniform", "nonuniform"])
@pytest.mark.parametrize("family", FAMILY_REFERENCES)
def test_series_on_a_support_is_the_full_grid_flow(family, grid, request):
    # With a mask over the interior nodes, the flow at a masked node is the
    # full grid's, at the grid's edges too, and 0 elsewhere.  Dropping one
    # node makes the grid non-uniform: the secants read only neighbours, and
    # a uniform run must not switch to the five-point stencil.
    make, traj_name, _, _ = FAMILY_REFERENCES[family]
    spec, traj = make(), request.getfixturevalue(traj_name)
    if grid == "nonuniform":
        keep = np.arange(traj.nodes) != traj.nodes // 2
        traj = Trajectory(times=traj.times[keep], maps=traj.maps[keep])
    full = spec.orientation * spec.derivative(traj.times, traj.maps)
    support = np.zeros(full.size, dtype=bool)
    support[[0, 9, 10, 11, 40, full.size // 2, full.size - 3, full.size - 1]] = True
    values = series(traj, spec, Stencil(traj.times, support)).values
    np.testing.assert_allclose(values[support], full[support], rtol=0, atol=1e-12)
    assert (values[~support] == 0.0).all()
    # every node masked, as by default, is the full grid bit for bit
    np.testing.assert_array_equal(series(traj, spec).values, full)
    np.testing.assert_array_equal(series(traj, spec, Stencil(traj.times)).values, full)
    empty = Stencil(traj.times, np.zeros(full.size, dtype=bool))
    assert (series(traj, spec, empty).values == 0.0).all()
    # a mask of another shape would broadcast over the nodes while the runs
    # read only its first entries
    for wrong in (np.array([True]), support[:-1]):
        with pytest.raises(ValueError, match="not one per interior node"):
            Stencil(traj.times, wrong)
    # a stencil of another grid with as many nodes would difference the
    # runs of that grid
    with pytest.raises(ValueError, match="not on the trajectory's grid"):
        series(traj, spec, Stencil(2.0 * traj.times, support))


class TestSeries:
    @pytest.mark.parametrize("step", ["identity", "transpose"])
    def test_two_nodes_have_no_interior_flow(self, step):
        # the stencil of a grid without interior nodes is empty, and a series
        # on it raises derivative_series's message
        stencil = Stencil(np.array([0.0, 1.0]))
        assert stencil.support.shape == (0,) and not stencil.read.any()
        second = np.eye(4) if step == "identity" else np.eye(4)[[0, 2, 1, 3]]
        traj = Trajectory(times=np.array([0.0, 1.0]), maps=np.stack([np.eye(4), second]))
        for spec in (ExtendedTraceNormWitness(XX), PlainTraceNormWitness(PAULI_X),
                     InformationFlowPair(PLUS, MINUS)):
            with pytest.raises(ValueError, match="need at least three nodes"):
                series(traj, spec)

    def test_sine_violation_interval(self, sine_traj):
        spec = ExtendedTraceNormWitness(0.5 * np.kron(PAULI_X, PAULI_X))
        ws = series(sine_traj, spec)
        assert len(ws.violation_intervals) == 1
        start, end, peak = ws.violation_intervals[0]
        h = SINE_GRID[1] - SINE_GRID[0]
        assert abs(start - np.pi) <= h + 1e-12
        assert abs(end - 2 * np.pi) <= h + 1e-12
        assert peak > 0

    def test_markovian_has_no_violations(self, markov_traj):
        spec = ExtendedTraceNormWitness(0.5 * np.kron(PAULI_X, PAULI_X))
        assert series(markov_traj, spec).violation_intervals == []

    def test_spin_boson_overlap_tracks_amplitude_growth(self):
        times = np.linspace(0, 10, 2001)
        kernel = ExponentialKernel(coupling=4.0, rate=1.0)
        traj = evolve(SpinBoson(kernel=kernel), times, backend="analytic")
        ws = series(traj, InvariantOverlap(projector(KET1), KET0))
        g2 = kernel.closed_form_amplitude(times) ** 2
        reference, _ = detect_violations(times[1:-1], derivative_series(times, g2))
        assert len(ws.violation_intervals) == len(reference)
        h = times[1] - times[0]
        for (a, b, _), (c, d, _) in zip(ws.violation_intervals, reference):
            assert abs(a - c) <= h + 1e-12 and abs(b - d) <= h + 1e-12

    def test_detect_violations_hysteresis(self):
        times = np.arange(6.0)
        cases = [
            # entry above 1e-9 at t=1, stays through the sub-threshold dip, exits at t=4
            ([0.0, 5e-9, 5e-10, 2e-9, -1e-12, 0.0], [(1.0, 3.0, 5e-9)],
             [False, True, True, True, False, False]),
            # a NaN neither enters nor ends a run, and is left out of the peak
            ([np.nan, 2e-9, np.nan, 3e-9, 0.0, 0.0], [(1.0, 3.0, 3e-9)],
             [False, True, True, True, False, False]),
            # a run reaching the last node closes there; the sub-threshold
            # nodes before its entry stay outside it
            ([0.0, 5e-10, 5e-10, 2e-9, 1e-10, 4e-9], [(3.0, 5.0, 4e-9)],
             [False, False, False, True, True, True]),
        ]
        for values, expected, expected_mask in cases:
            intervals, mask = detect_violations(times, np.array(values))
            assert intervals == expected
            assert mask.tolist() == expected_mask


    def test_violations_detected_on_first_access(self, sine_traj, monkeypatch):
        calls = []

        def counted(times, values):
            calls.append(1)
            return detect_violations(times, values)

        monkeypatch.setattr(wit, "detect_violations", counted)
        ws = series(sine_traj, ExtendedTraceNormWitness(0.5 * np.kron(PAULI_X, PAULI_X)))
        assert ws.total_violation > 0 and calls == []
        intervals, mask = detect_violations(ws.times, ws.values)
        assert ws.violation_intervals == intervals
        np.testing.assert_array_equal(ws.violating, mask)
        assert calls == [1]


class TestInvariance:
    def test_maximally_mixed_invariant_under_dephasing(self, sine_traj):
        ok, dev = verify_invariance(sine_traj, state=0.5 * np.eye(2))
        assert ok and dev < 1e-12

    def test_ground_state_invariant_under_spin_boson(self):
        traj = evolve(SpinBoson(kernel=ExponentialKernel(4.0, 1.0)),
                      np.linspace(0, 10, 501), backend="analytic")
        ok, _ = verify_invariance(traj, state=projector(KET0))
        assert ok

    def test_coherent_state_not_invariant(self, sine_traj):
        ok, dev = verify_invariance(sine_traj, state=projector(KET_PLUS))
        assert not ok and dev > 0.1

    def test_observable_invariance(self, sine_traj):
        ok, _ = verify_invariance(sine_traj, observable=PAULI_Z)
        assert ok
        ok2, _ = verify_invariance(sine_traj, observable=PAULI_X)
        assert not ok2

    def test_overlap_gated_on_invariance(self, sine_traj):
        with pytest.raises(InvarianceError):
            series(sine_traj, InvariantOverlap(projector(KET0), KET_PLUS))

    def test_schrodinger_skew_gated_on_constant_of_motion(self, sine_traj):
        with pytest.raises(InvarianceError):
            series(sine_traj, SchrodingerSkew(projector(KET0), PAULI_X, 0.5))
        # sigma_z is conserved under dephasing
        ws = series(sine_traj, SchrodingerSkew(projector(KET_PLUS), PAULI_Z, 0.5))
        assert np.all(np.isfinite(ws.values))

    def test_heisenberg_skew_gated_on_invariant_state(self, sine_traj):
        with pytest.raises(InvarianceError):
            series(sine_traj, HeisenbergSkew(projector(KET_PLUS), PAULI_X, 0.5))

    def test_exactly_one_argument(self, sine_traj):
        with pytest.raises(ValueError):
            verify_invariance(sine_traj)


class TestSpectralModes:
    def test_dephasing_modes(self, sine_traj):
        result = spectral_modes(sine_traj)
        assert result.commutative and len(result.modes) == 4
        expected = np.exp(-(1.0 - np.cos(SINE_GRID)))
        flat = [m for m in result.modes if np.abs(np.abs(m.eigenvalues) - 1.0).max() < 1e-6]
        damped = [m for m in result.modes
                  if np.abs(m.eigenvalues - expected).max() < 1e-6]
        assert len(flat) == 2 and len(damped) == 2

    def test_monotonicity_flags_negative_rate_region(self, sine_traj):
        result = spectral_modes(sine_traj)
        h = SINE_GRID[1] - SINE_GRID[0]
        for mode in result.modes:
            if np.abs(np.abs(mode.eigenvalues) - 1.0).max() < 1e-6:
                assert mode.monotonicity_violations == []
            else:
                assert len(mode.monotonicity_violations) == 1
                a, b = mode.monotonicity_violations[0]
                assert abs(a - np.pi) <= h + 1e-12
                assert abs(b - 2 * np.pi) <= h + 1e-12

    def test_identity_evolution_all_unit(self):
        traj = evolve(Dephasing(rate=Constant(0.0)), np.linspace(0, 1, 33))
        result = spectral_modes(traj)
        for mode in result.modes:
            np.testing.assert_allclose(mode.eigenvalues, 1.0, atol=1e-10)

    def test_spin_boson_coherence_mode(self):
        times = np.linspace(0, 6, 301)
        kernel = ExponentialKernel(coupling=1.0, rate=4.0)
        traj = evolve(SpinBoson(kernel=kernel), times, backend="analytic")
        result = spectral_modes(traj)
        assert result.commutative
        g = kernel.closed_form_amplitude(times)
        # G is real for this kernel, so both coherence modes carry it
        coh_modes = [m for m in result.modes
                     if np.abs(m.eigenvalues - np.conj(g)).max() < 1e-8]
        assert len(coh_modes) == 2
        offdiag = sorted(abs(m.operator[0, 1]) for m in coh_modes)
        assert offdiag[0] == pytest.approx(0.0, abs=1e-8)   # |excited><ground|
        assert offdiag[1] == pytest.approx(1.0, abs=1e-8)   # |ground><excited|

    def test_non_commutative_flagged(self):
        # glue two unitary conjugation families with different axes
        times = np.linspace(0, 1, 21)
        maps = []
        for k, t in enumerate(times):
            axis = PAULI_Z if k <= 10 else PAULI_X
            angle = t if k <= 10 else times[10]
            base = sandwich(np.eye(2, dtype=complex) if k == 0 else
                            np.cos(angle) * np.eye(2) - 1j * np.sin(angle) * axis)
            maps.append(base)
        traj = wit.Trajectory(times=times, maps=np.stack(maps))
        result = spectral_modes(traj)
        assert not result.commutative
        assert result.unmatched > 0


class TestNormFlows:
    """Norm flows from the derivatives of the sorted spectrum, against closed
    forms, across zero crossings and eigenvalue crossings."""

    def test_plain_trace_norm_through_zero_and_same_sign_crossing(self):
        # Y_t = diag(2e^{-t}, 1 - 2e^{-t})/3: one eigenvalue crosses zero at
        # ln 2, and the two cross each other, both positive, at ln 4
        times = np.linspace(0, 2, 257)
        traj = evolve(TraceReplacement(Constant(1.0), ConstantTarget(projector(KET1))), times)
        ws = series(traj, PlainTraceNormWitness(np.diag([2.0, -1.0]) / 3))
        decay = (2 / 3) * np.exp(-ws.times)
        exact = -decay + np.sign(1 - 2 * np.exp(-ws.times)) * decay
        assert np.abs(ws.values - exact)[1:-1].max() <= 1e-8

    def test_extended_trace_norm_matches_exact_flow(self, sine_traj):
        # exact flow Tr[sign(Y_t) (id ⊗ L_t Λ_t) W] with Y_t = (id ⊗ Λ_t) W
        rates = generator_superoperator(sine_traj.model, sine_traj.times) @ sine_traj.maps
        rng = np.random.default_rng(11)
        for _ in range(50):
            spec = ExtendedTraceNormWitness(ops.random_hermitian(4, rng))
            ws = series(sine_traj, spec)
            eigs, vecs = np.linalg.eigh(apply_superop(sine_traj.maps, spec.witness))
            signs = np.einsum("kij,kj,klj->kil", vecs, np.sign(eigs), vecs.conj())
            rate = apply_superop(rates, spec.witness)
            exact = np.einsum("kij,kji->k", signs, rate).real[1:-1]
            assert np.abs(ws.values - exact)[1:-1].max() <= 1e-5
            positive = np.trapezoid(np.clip(exact, 0.0, None), ws.times)
            assert abs(ws.total_violation - positive) <= 1e-5

    def test_dual_operator_norm_branch_switch(self):
        # Y_t = diag(0.6 - 0.6e^{-t}, 0.6, -0.2 - 0.8e^{-t}, -0.2): -λ_min
        # leads until ln 2, the constant λ_max = 0.6 after it
        times = np.linspace(0, 2, 257)
        traj = evolve(TraceReplacement(Constant(1.0), ConstantTarget(projector(KET1))), times)
        ws = series(traj, DualOperatorNormWitness(np.diag([0.0, 0.6, -1.0, -0.2])))
        exact = np.where(ws.times < np.log(2), -0.8 * np.exp(-ws.times), 0.0)
        assert np.abs(ws.values - exact)[1:-1].max() <= 1e-8

    def test_dual_operator_norm_persistent_tie(self, sine_traj):
        # Y_t = e^{-(1 - cos t)} X ⊗ X: λ_max = -λ_min at every node
        ws = series(sine_traj, DualOperatorNormWitness(np.kron(PAULI_X, PAULI_X)))
        exact = -np.sin(ws.times) * np.exp(-(1 - np.cos(ws.times)))
        assert np.abs(ws.values - exact)[1:-1].max() <= 1e-6


class TestQubitEntropyFlow:
    """dS/dt of an evolved qubit state is minus the relative-entropy flow
    toward I/2, since S(rho || I/2) = log 2 - S(rho)."""

    @staticmethod
    def _entropy_flow(traj, rho):
        ws = series(traj, wit.RelativeEntropyPair(rho, 0.5 * np.eye(2, dtype=complex)))
        return ws.times, -ws.values

    def test_negative_somewhere_in_backflow_window(self, sine_traj):
        t, values = self._entropy_flow(sine_traj, projector(KET_PLUS))
        window = (t > np.pi) & (t < 2 * np.pi)
        assert (values[window] < 0).any()

    def test_maximally_mixed_is_flat(self, sine_traj):
        _, values = self._entropy_flow(sine_traj, 0.5 * np.eye(2, dtype=complex))
        assert np.abs(values).max() == 0.0

    def test_matches_direct_entropy_derivative(self, markov_traj):
        rho = np.array([[0.7, 0.25], [0.25, 0.3]], dtype=complex)
        t, values = self._entropy_flow(markov_traj, rho)
        eigs = ops.eigvalsh(apply_superop(markov_traj.maps, rho))
        entropy = -(eigs * np.log(eigs)).sum(axis=1)  # rho stays full rank
        direct = derivative_series(markov_traj.times, entropy)
        assert np.abs(values - direct).max() <= 1e-12
        assert (values >= -1e-10).all()  # entropy increases under Markovian unital dynamics


class TestDerivativeEstimator:
    def test_five_point_accuracy(self):
        t = np.linspace(0, 2 * np.pi, 257)
        est = derivative_series(t, np.sin(t))
        exact = np.cos(t[1:-1])
        assert np.abs(est[1:-1] - exact[1:-1]).max() < 1e-6   # 5-point inside
        assert np.abs(est - exact).max() < 2e-4               # secant at the edges

    def test_nonuniform_falls_back_to_secant(self):
        t = np.array([0.0, 0.1, 0.3, 0.35, 0.6])
        values = t**2
        est = derivative_series(t, values)
        expected = (values[2:] - values[:-2]) / (t[2:] - t[:-2])
        np.testing.assert_allclose(est, expected)


def _reference_derivative(times, values):
    """derivative_series of a 1-d series node by node, as its docstring states it."""
    steps = np.diff(times)
    uniform = np.allclose(steps, steps[0], rtol=1e-8, atol=1e-14)
    n = times.size
    out = []
    for k in range(1, n - 1):
        if uniform and 2 <= k <= n - 3:
            out.append((-values[k + 2] + 8.0 * values[k + 1] - 8.0 * values[k - 1]
                        + values[k - 2]) / (12.0 * steps[0]))
        else:
            out.append((values[k + 1] - values[k - 1]) / (times[k + 1] - times[k - 1]))
    return np.array(out)


@st.composite
def _grids(draw):
    """(times, values): a uniform, nearly uniform or irregular grid of 3 to 9
    nodes and random values, a 1-d series or a stack of 1 to 3 columns."""
    n = draw(st.integers(3, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["linspace", "exact", "jitter", "irregular"]))
    h = rng.uniform(1e-3, 1.0)
    if kind == "linspace":
        times = np.linspace(0.0, h * (n - 1), n)
    elif kind == "exact":
        times = h * np.arange(n)
    elif kind == "jitter":  # steps on both sides of the uniformity tolerance
        times = np.concatenate([[0.0], np.cumsum(h * (1 + rng.uniform(-2e-8, 2e-8, n - 1)))])
    else:
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, n - 1))])
    shape = (n,) if draw(st.booleans()) else (n, draw(st.integers(1, 3)))
    return times, rng.normal(size=shape)


class TestDerivativeReference:
    @settings(max_examples=300, deadline=None)
    @given(grid=_grids())
    def test_bit_equal_to_per_node_reference(self, grid):
        times, values = grid
        stacked = derivative_series(times, values)
        assert stacked.shape == (times.size - 2,) + values.shape[1:]
        columns = values.reshape(times.size, -1).T
        for column, estimate in zip(columns, stacked.reshape(times.size - 2, -1).T):
            np.testing.assert_array_equal(estimate, _reference_derivative(times, column))
            np.testing.assert_array_equal(estimate, derivative_series(times, column))

    @settings(max_examples=300, deadline=None)
    @given(grid=_grids(), data=st.data())
    def test_adjoint_pairs_with_the_stencil(self, grid, data):
        # Σ w·D[v] = Σ Dᵀ[w]·v on the support, which the gradient of the
        # search rests on; D reads the values at the read nodes
        times, values = grid
        support = np.array(data.draw(st.lists(st.booleans(), min_size=times.size - 2,
                                              max_size=times.size - 2)), dtype=bool)
        stencil = Stencil(times, support)
        weights = np.random.default_rng(times.size).normal(size=support.sum())
        adjoint = stencil.adjoint(weights)
        assert adjoint.shape == (stencil.read.sum(),)
        flow = derivative_series(times, values)
        np.testing.assert_allclose(stencil.derivative(values[stencil.read]), flow[support],
                                   rtol=0, atol=1e-13 * np.abs(values).max() / np.diff(times).min())
        scale = np.abs(weights).sum() * np.abs(values).max() / np.diff(times).min()
        assert np.all(np.abs(np.tensordot(weights, flow[support], axes=(0, 0))
                             - np.tensordot(adjoint, values[stencil.read], axes=(0, 0)))
                      <= 1e-13 * scale)
        # the gradient's weights are the value's quadrature: np.trapezoid on
        # the support, whose one sample on three nodes integrates to 0
        mask = support.reshape((-1,) + (1,) * (flow.ndim - 1))
        trapezoid = np.trapezoid(flow * mask, times[1:-1], axis=0)
        scale = (times[-2] - times[1]) * np.abs(flow).max()
        assert np.all(np.abs(np.tensordot(stencil.weights, flow, axes=(0, 0)) - trapezoid)
                      <= 1e-13 * scale)
        if times.size == 3:
            assert stencil.weights.tolist() == [0.0]

    @settings(max_examples=200, deadline=None)
    @given(grid=_grids(), data=st.data())
    def test_kernel_is_the_series_and_has_its_gradient(self, grid, data):
        # On random maps X ↦ X + D[A_k](X), trace and Hermiticity preserving
        # and not CP for every A_k, and a random support: the kernel's value
        # of an operator of each trace-norm family is its series' total
        # violation bit for bit, and away from the kinks of |λ| and max(0, ·)
        # its gradient is that of Σ w·max(0, D[‖·‖₁]) on the support.
        times, _ = grid
        support = np.array(data.draw(st.lists(st.booleans(), min_size=times.size - 2,
                                              max_size=times.size - 2)), dtype=bool)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        jumps = rng.normal(size=(times.size, 2, 2)) + 1j * rng.normal(size=(times.size, 2, 2))
        maps = np.eye(4) + dissipator(jumps)
        maps[0] = np.eye(4)
        traj = Trajectory(times=times, maps=maps)
        stencil = Stencil(times, support)
        kernel = TraceNormKernel(stencil, maps)
        for family, n in ((ExtendedTraceNormWitness, 4), (PlainTraceNormWitness, 2)):
            x = ops.random_hermitian(n, rng)
            spec = family(x - np.trace(x).real / n * np.eye(n))  # traceless, so not PSD
            x = spec.witness if family is ExtendedTraceNormWitness else spec.operator
            value, stack = kernel.value(x)
            assert value == series(traj, spec, stencil).total_violation

            def objective(y):
                norms = np.abs(np.linalg.eigvalsh(apply_superop(maps, y))).sum(1)
                flow = derivative_series(times, norms)
                return np.trapezoid(np.clip(flow, 0.0, None) * support, times[1:-1]), norms, flow

            eps = 1e-7
            d = ops.random_hermitian(n, rng)
            d /= np.linalg.norm(d)
            level, norms, flow = objective(x)
            eigs = np.linalg.eigvalsh(apply_superop(maps, x))
            scale = max(1.0, np.abs(flow).max())
            assume(np.abs(eigs).min() > 1e-4 and np.abs(flow[support]).min(initial=1.0) > 1e-4 * scale)
            along = np.vdot(kernel.gradient(stack), d).real
            assert along == pytest.approx((objective(x + eps * d)[0] - objective(x - eps * d)[0])
                                          / (2 * eps), abs=1e-6 * scale)
