import numpy as np
import pytest

from nonmarkov import measures
from nonmarkov import operators as ops
from nonmarkov.dynamics import (
    CONDITION_LIMIT,
    SIGMA_MINUS,
    SIGMA_Z,
    BlochZSineTarget,
    Constant,
    Dephasing,
    Lindblad,
    OffsetSine,
    Sine,
    SpinBoson,
    TraceReplacement,
    Trajectory,
    apply_superop,
    choi_matrix,
    evolve,
    generator_superoperator,
    vec,
)
from nonmarkov.measures import (
    SearchConfig,
    blp_measure,
    divisibility_verdict,
    gell_mann_basis,
    rhp_measure,
    rhp_rate,
    step_choi_data,
    witness_measure,
)
from nonmarkov.volterra import ExponentialKernel
from nonmarkov.witnesses import (
    ExtendedTraceNormWitness,
    InformationFlowPair,
    PlainTraceNormWitness,
    _trace_norm_gradient,
    derivative_series,
    series,
)

from conftest import PAULI_X, extended_superop, unvec

SINE_GRID = np.linspace(0, 2 * np.pi, 257)
QUICK = SearchConfig(seeds=12, iterations=40, rng_seed=3)


@pytest.fixture(scope="module")
def sine_traj():
    return evolve(Dephasing(rate=Sine(1.0)), SINE_GRID)


@pytest.fixture(scope="module")
def markov_traj():
    return evolve(Dephasing(rate=Constant(1.0)), SINE_GRID)


@pytest.fixture(scope="module")
def replacement_traj():
    model = TraceReplacement(rate=Constant(1.0), target=BlochZSineTarget(scale=1.2))
    return evolve(model, np.linspace(0, 2 * np.pi, 513))


def _pulled_back_projector(traj, k):
    """(id ⊗ Λ_{t_k})⁻¹P₊ through the materialized matrix of id ⊗ Λ_{t_k}⁻¹."""
    n = traj.dim ** 2
    inverse = extended_superop(np.linalg.inv(traj.maps[k]))
    return unvec(inverse @ vec(ops.max_entangled_projector(traj.dim)), n)


def _certified_reference(traj, data, tol=measures.DIVISIBILITY_TOL):
    """The pulled-back projectors of the first and the worst step of each
    verdict window, in time order."""
    seeds = []
    for start, end, _ in divisibility_verdict(traj, tol, data).violation_intervals:
        first = int(np.searchsorted(data.start_times, start))
        last = int(np.searchsorted(data.end_times, end))
        worst = first + int(np.argmin(data.min_eigenvalues[first:last + 1]))
        seeds += [_pulled_back_projector(traj, k) for k in sorted({first, worst})]
    return seeds


def _valued_seeds(traj, search, monkeypatch, **kwargs):
    """The operators that ``witness_measure`` values as seeds, in order, with
    the climbs switched off."""
    seen = []
    point = measures._point

    def record(spec_cls, x):
        seen.append(x)
        return point(spec_cls, x)

    monkeypatch.setattr(measures, "_point", record)
    monkeypatch.setattr(measures, "_climb", lambda traj, spec_cls, project, start, its: start)
    witness_measure(traj, search, **kwargs)
    return seen


def _qutrit_dephasing(rate):
    """Qutrit dephasing by diag(1, 0, -1) under a commuting Hamiltonian: the
    maps are CP while the integrated rate stays non-negative."""
    model = Lindblad(hamiltonian=np.diag([0.0, 0.5, 1.5]).astype(complex),
                     noise=((np.diag([1.0, 0.0, -1.0]).astype(complex), rate),), dim=3)
    return evolve(model, np.linspace(0, 2 * np.pi, 129))


@pytest.fixture(scope="module")
def qutrit_traj():
    # the rate sin t is negative on (pi, 2pi)
    return _qutrit_dephasing(Sine(1.0))


@pytest.fixture(scope="module")
def qutrit_markov_traj():
    return _qutrit_dephasing(Constant(1.0))


class TestVerdict:
    def test_markovian_dephasing(self, markov_traj):
        verdict = divisibility_verdict(markov_traj)
        assert verdict.markovian
        assert verdict.violation_intervals == []
        assert verdict.excluded_intervals == []

    def test_sine_dephasing_violations(self, sine_traj):
        verdict = divisibility_verdict(sine_traj)
        assert not verdict.markovian
        assert len(verdict.violation_intervals) == 1
        start, end, min_eig = verdict.violation_intervals[0]
        h = SINE_GRID[1] - SINE_GRID[0]
        assert abs(start - np.pi) <= h + 1e-12
        assert abs(end - 2 * np.pi) <= h + 1e-12
        assert min_eig < -1e-3

    def test_replacement_violations_follow_target_negativity(self, replacement_traj):
        verdict = divisibility_verdict(replacement_traj)
        assert not verdict.markovian
        assert len(verdict.violation_intervals) == 2
        edge = np.arcsin(1.0 / 1.2)
        expected = [(edge, np.pi - edge), (np.pi + edge, 2 * np.pi - edge)]
        for (a, b, _), (c, d) in zip(verdict.violation_intervals, expected):
            assert abs(a - c) <= 0.02
            assert abs(b - d) <= 0.02

    def test_singular_steps_are_excluded_not_judged(self):
        traj = evolve(Dephasing(rate=Constant(30.0)), np.linspace(0, 2, 65))
        verdict = divisibility_verdict(traj)
        assert verdict.excluded_intervals != []
        assert not verdict.markovian

    @pytest.mark.parametrize("case", ["sine", "singular"])
    def test_batched_scan_matches_per_step_reference(self, case, sine_traj):
        traj = sine_traj if case == "sine" else evolve(
            Dephasing(rate=Constant(30.0)), np.linspace(0, 2, 65))
        maps = traj.maps
        min_eigs = np.full(traj.nodes - 1, np.nan)
        excluded = np.zeros(traj.nodes - 1, dtype=bool)
        worst_vec, worst_val = None, np.inf
        for k in range(traj.nodes - 1):
            cond = float(np.linalg.cond(maps[k]))
            if not np.isfinite(cond) or cond > CONDITION_LIMIT:
                excluded[k] = True
                continue
            prop = np.linalg.solve(maps[k].T, maps[k + 1].T).T
            w, v = np.linalg.eigh(ops.hermitian_part(choi_matrix(prop)))
            min_eigs[k] = w[0]
            if w[0] < worst_val:
                worst_val, worst_vec = float(w[0]), v[:, 0]
        data = step_choi_data(traj)
        assert case == "sine" or excluded.any()
        np.testing.assert_array_equal(data.min_eigenvalues, min_eigs)
        np.testing.assert_array_equal(data.excluded, excluded)
        assert data.worst_value == worst_val
        np.testing.assert_array_equal(data.worst_vector, worst_vec)

    def test_step_data_shapes(self, sine_traj):
        data = step_choi_data(sine_traj)
        assert data.min_eigenvalues.size == sine_traj.nodes - 1
        assert data.worst_value < -1e-3
        negative = data.min_eigenvalues < -1e-8
        mid = 0.5 * (data.start_times + data.end_times)
        assert np.all((mid[negative] > np.pi) & (mid[negative] < 2 * np.pi))


def _rhp_rate_reference(model, t, eps=1e-6):
    """Finite-difference RHP rate: the trace-norm quotient
    (||P + e Δ||_1 - 1) / e, Richardson-extrapolated from e = eps and eps/2."""
    projector = ops.max_entangled_projector(model.dim)
    delta = apply_superop(generator_superoperator(model, t), projector)

    def quotient(e):
        return (ops.trace_norm(projector + e * delta) - 1.0) / e

    return max(2.0 * quotient(eps / 2.0) - quotient(eps), 0.0)


RHP_MODELS = {
    # the driven GKSL qubit of perfbench/workloads/gksl_bank.ini
    "gksl": (Lindblad(hamiltonian=0.5 * SIGMA_Z,
                      noise=((SIGMA_MINUS, OffsetSine(0.2, 1.0)), (SIGMA_Z, Sine(0.5))),
                      dim=2),
             np.linspace(0, 4 * np.pi, 2001)),
    "replacement": (TraceReplacement(rate=Constant(1.0), target=BlochZSineTarget(scale=1.2)),
                    np.linspace(0, 2 * np.pi, 257)),
    "dephasing": (Dephasing(rate=Sine(1.0)), SINE_GRID),
    # paper example 3 between the first two zeros of G (t = 1.46 and 3.84)
    "spin_boson": (SpinBoson(kernel=ExponentialKernel(coupling=4.0, rate=1.0)),
                   np.linspace(1.6, 3.6, 401)),
}


class TestRhp:
    @pytest.mark.parametrize("name", sorted(RHP_MODELS))
    def test_closed_form_matches_finite_difference(self, name):
        model, grid = RHP_MODELS[name]
        rates = rhp_rate(model, grid)
        reference = np.array([_rhp_rate_reference(model, t) for t in grid])
        assert rates.shape == grid.shape
        assert reference.max() > 0.05
        assert np.abs(rates - reference).max() <= 1e-8
        for k in range(0, grid.size, 37):
            scalar = rhp_rate(model, grid[k])
            assert isinstance(scalar, float)
            assert scalar == rates[k]

    def test_rate_is_negative_rate_part(self):
        model = Dephasing(rate=Sine(1.0))
        assert rhp_rate(model, 3 * np.pi / 2) == pytest.approx(1.0, abs=1e-6)
        assert rhp_rate(model, np.pi / 2) <= 1e-6

    def test_rate_zero_for_gksl_form(self):
        from nonmarkov.dynamics import SIGMA_MINUS
        model = Lindblad(hamiltonian=None, noise=((SIGMA_MINUS, Constant(1.0)),), dim=2)
        assert rhp_rate(model, 0.7) <= 1e-6

    def test_measure_sine_full_period(self):
        assert rhp_measure(Dephasing(rate=Sine(1.0)), SINE_GRID) == pytest.approx(2.0, abs=1e-3)

    def test_measure_zero_for_markovian(self):
        assert rhp_measure(Dephasing(rate=Constant(1.0)), SINE_GRID) == 0.0

    def test_measure_zero_on_positive_half_period(self):
        grid = np.linspace(0, np.pi, 129)
        assert rhp_measure(Dephasing(rate=Sine(1.0)), grid) == 0.0


class TestWitnessMeasure:
    def test_dephasing_lower_bound_and_optimal_witness(self, sine_traj):
        result = witness_measure(sine_traj, SearchConfig(rng_seed=7))
        assert result.value >= 1.0 - np.exp(-2.0) - 1e-3
        reference = series(sine_traj, ExtendedTraceNormWitness(0.5 * np.kron(PAULI_X, PAULI_X)))
        assert np.abs(result.series.values - reference.values).max() <= 1e-3

    def test_markovian_yields_zero(self, markov_traj):
        result = witness_measure(markov_traj, QUICK)
        assert result.value == 0.0
        assert result.witness is None and result.series is None

    def test_replacement_detects_nondivisibility(self, replacement_traj):
        result = witness_measure(replacement_traj, QUICK)
        assert result.value > 1e-4

    @pytest.mark.parametrize("name,seeds", [
        ("sine_traj", 1), ("sine_traj", 2), ("sine_traj", 12), ("sine_traj", 15),
        ("sine_traj", 16), ("sine_traj", 17), ("sine_traj", 64), ("qutrit_traj", 64),
    ])
    def test_seed_order(self, name, seeds, request, monkeypatch):
        # The certified seeds in time order (first and worst step of each
        # window), then the products in tensor-basis order, then random draws
        # from the search's rng_seed, cut to the budget.
        traj = request.getfixturevalue(name)
        seen = _valued_seeds(traj, SearchConfig(seeds=seeds, rng_seed=5), monkeypatch)
        certified = _certified_reference(traj, step_choi_data(traj))
        assert len(certified) == 2
        local = [np.eye(traj.dim, dtype=complex)] + gell_mann_basis(traj.dim)
        products = [0.5 * np.kron(a, b) for a in local for b in local][1:]
        rng = np.random.default_rng(5)
        draws = [ops.hermitian_part(ops.random_hermitian(traj.dim ** 2, rng))
                 for _ in range(seeds - len(certified) - len(products))]
        expected = (certified + products + draws)[:seeds]
        assert len(seen) == seeds
        for got, want in zip(seen, certified):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
        for got, want in zip(seen[len(certified):], expected[len(certified):]):
            np.testing.assert_array_equal(got, want)

    def test_certified_seeds_follow_the_verdict_tolerance(self, monkeypatch):
        # At a weak rate the step Choi eigenvalues stay above the default
        # tolerance; the verdict at a finer one finds a window, and the
        # witness search at that tolerance starts from its certified seeds.
        traj = evolve(Dephasing(rate=Sine(1e-7)), SINE_GRID)
        data = step_choi_data(traj)
        tol = 1e-10
        (window,) = divisibility_verdict(traj, tol, data).violation_intervals
        assert -measures.DIVISIBILITY_TOL < window[2] < -tol
        assert measures._certified_candidates(traj, data) == []
        certified = _certified_reference(traj, data, tol)
        assert len(certified) == 2
        seen = _valued_seeds(traj, QUICK, monkeypatch, tol=tol)
        for got, want in zip(seen, certified):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
            assert series(traj, ExtendedTraceNormWitness(want)).total_violation > 0.0

    @pytest.mark.parametrize("case", [
        "example1-129", "example1-257", "example1-513",
        "example2-129", "example2-257", "example2-513",
        "qutrit", "replacement-rate5",
    ])
    def test_certified_seed_of_each_window_is_positive(self, case, qutrit_traj):
        # Where the verdict finds a violation, the certified seed of the
        # window's first step has a positive flow, so the search has a
        # positive value to climb from.
        if case == "qutrit":
            traj = qutrit_traj
        elif case == "replacement-rate5":
            traj = evolve(TraceReplacement(rate=Constant(5.0), target=BlochZSineTarget(1.2)),
                          np.linspace(0, 10, 257))
        else:
            example, nodes = case.split("-")
            model = (Dephasing(rate=Sine(1.0)) if example == "example1" else
                     TraceReplacement(rate=Constant(1.0), target=BlochZSineTarget(scale=1.2)))
            traj = evolve(model, np.linspace(0, 2 * np.pi, int(nodes)))
        data = step_choi_data(traj)
        verdict = divisibility_verdict(traj, steps=data)
        assert verdict.violation_intervals
        certified = measures._certified_candidates(traj, data)
        for start, _, _ in verdict.violation_intervals:
            first = int(np.searchsorted(data.start_times, start))
            seed = _pulled_back_projector(traj, first)
            assert any(np.allclose(seed, x, rtol=0, atol=1e-12 * np.abs(seed).max())
                       for x in certified)
            assert series(traj, ExtendedTraceNormWitness(seed)).total_violation > 0.0
        assert witness_measure(traj, QUICK).value > 0.0

    def test_reproducible_under_seed(self, sine_traj, replacement_traj):
        a = witness_measure(sine_traj, QUICK)
        b = witness_measure(sine_traj, QUICK)
        assert a.value == b.value
        np.testing.assert_array_equal(a.witness, b.witness)
        # reference values of the seed-3 search; a refactor must reproduce them.
        # Example 2's pin moved when the norm flows moved to the derivative of
        # the sorted spectrum and when gradient moves replaced random ones,
        # both times on a climb from a seed of value 0, routed by rounding
        # noise.  Only seeds of positive value climb now; this value is the
        # climb from a certified seed.
        assert a.value == pytest.approx(0.8643064805615197, rel=1e-12)
        assert witness_measure(replacement_traj, QUICK).value == pytest.approx(
            0.013897496628432095, rel=1e-12)


class TestBlpMeasure:
    def test_dephasing_antipodal_pair(self, sine_traj):
        result = blp_measure(sine_traj, SearchConfig(rng_seed=7))
        assert result.value >= 1.0 - np.exp(-2.0) - 1e-3
        rho1, rho2 = result.pair
        # the optimal pair stays antipodal on the equator: orthogonal states
        assert np.trace(rho1 @ rho2).real == pytest.approx(0.0, abs=1e-2)

    def test_markovian_yields_zero(self, markov_traj):
        result = blp_measure(markov_traj, QUICK)
        assert result.value == 0.0 and result.pair is None

    def test_replacement_blp_blind(self, replacement_traj):
        # the Example-2 separation: non-divisible yet no information backflow
        result = blp_measure(replacement_traj, SearchConfig(rng_seed=5))
        assert result.value == 0.0

    def test_reproducible_under_seed(self, sine_traj, replacement_traj):
        a = blp_measure(sine_traj, QUICK)
        b = blp_measure(sine_traj, QUICK)
        assert a.value == b.value
        # reference values of the seed-3 search; a refactor must reproduce them
        assert a.value == pytest.approx(0.8643064805615198, rel=1e-12)
        assert blp_measure(replacement_traj, QUICK).value == 0.0

    @pytest.mark.parametrize("name", ["sine_traj", "replacement_traj", "qutrit_traj"])
    def test_pair_flow_is_the_operator_flow(self, name, request):
        # The search ranges over traceless X of unit trace norm.  The BLP flow
        # of (2X+, 2X-) must be the trace-norm flow of X, for a pair of
        # orthogonal states, pure on a qubit.
        traj = request.getfixturevalue(name)
        result = blp_measure(traj, QUICK)
        assert (result.value > 0.0) == (result.pair is not None) == (name != "replacement_traj")
        rng = np.random.default_rng(11)
        points = gell_mann_basis(traj.dim) + [
            measures._traceless(ops.random_hermitian(traj.dim, rng)) for _ in range(4)]
        cases = [(ws, measures._pair(ws.spec.operator))
                 for ws in (series(traj, PlainTraceNormWitness(x)) for x in points)]
        if result.pair is not None:
            cases.append((result.series, result.pair))
        for ws, pair in cases:
            reference = series(traj, InformationFlowPair(*pair))
            assert np.abs(ws.values - reference.values).max() <= 1e-12
            rho1, rho2 = (ops.check_density_matrix(rho) for rho in pair)
            assert abs(np.trace(rho1 @ rho2)) <= 1e-12
            if traj.dim == 2:
                for rho in pair:
                    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)


class TestClimb:
    @pytest.mark.parametrize("name", ["sine_traj", "replacement_traj", "qutrit_traj"])
    @pytest.mark.parametrize("family", [ExtendedTraceNormWitness, PlainTraceNormWitness])
    def test_gradient_matches_central_differences(self, name, family, request):
        # The gradient is that of the value with the eigenvalue signs read at
        # every stencil node, the positive part of D[‖Y‖₁].  That flow equals
        # the value's at every node whose stencil sees no sign change, so the
        # gradient also matches central differences of ``series`` wherever no
        # evolved eigenvalue changes sign in time.  Directions are tangent to
        # the unit trace-norm sphere, where the spec's normalisation changes
        # the operator only at second order.
        traj = request.getfixturevalue(name)
        extended = family is ExtendedTraceNormWitness
        n = traj.dim ** 2 if extended else traj.dim
        evolved = lambda x: apply_superop(traj.maps, x)
        nodes = traj.times.size
        # the nodes that each interior node's stencil may read
        stencils = np.clip(np.arange(1, nodes - 1)[:, None] + np.arange(-2, 3), 0, nodes - 1)

        def surrogate(x):
            flow = derivative_series(traj.times, np.abs(np.linalg.eigvalsh(evolved(x))).sum(1))
            return np.trapezoid(np.clip(flow, 0.0, None), traj.times[1:-1])

        rng = np.random.default_rng(5)
        positive = crossing_free = 0
        eps = 1e-6
        for _ in range(10):
            spec = family(ops.random_hermitian(n, rng))
            x = getattr(spec, "witness" if extended else "operator")
            grad = _trace_norm_gradient(traj.times, traj.maps, evolved(x))
            w, v = np.linalg.eigh(x)
            normal = (v * np.sign(w)) @ v.conj().T
            d = ops.random_hermitian(n, rng)
            d -= np.vdot(normal, d).real / np.vdot(normal, normal).real * normal
            d /= np.linalg.norm(d)
            along = np.vdot(grad, d).real
            assert along == pytest.approx(
                (surrogate(x + eps * d) - surrogate(x - eps * d)) / (2 * eps), abs=1e-8)

            eigs = np.linalg.eigvalsh(evolved(x))
            signs = np.sign(eigs)
            calm = (signs[stencils] == signs[1:-1, None]).all(axis=(1, 2))
            flow = derivative_series(traj.times, np.abs(eigs).sum(1))
            np.testing.assert_allclose(series(traj, spec).values[calm], flow[calm],
                                       rtol=0, atol=1e-12)
            if calm.all():
                crossing_free += 1
                value = lambda e: series(traj, family(x + e * d)).total_violation
                assert along == pytest.approx((value(eps) - value(-eps)) / (2 * eps), abs=1e-8)
            positive += series(traj, spec).total_violation > 1e-6
        assert crossing_free > 0
        # the BLP objective of example 2 is identically 0
        assert positive > 0 or (name, family) == ("replacement_traj", PlainTraceNormWitness)

    @pytest.mark.parametrize("name", ["sine_traj", "replacement_traj", "qutrit_traj"])
    def test_value_is_the_series_of_the_result_and_beats_every_seed(self, name, request,
                                                                   monkeypatch):
        traj = request.getfixturevalue(name)
        seeded = []
        evaluate = measures.series

        def record(traj, spec):
            ws = evaluate(traj, spec)
            seeded.append(ws.total_violation)
            return ws

        monkeypatch.setattr(measures, "series", record)
        for measure, operator in ((witness_measure, "witness"), (blp_measure, None)):
            seeded.clear()
            result = measure(traj, QUICK)
            if result.series is None:
                assert result.value == 0.0 and max(seeded) == 0.0
                continue
            spec = result.series.spec
            if operator is not None:
                np.testing.assert_array_equal(getattr(spec, operator), result.witness)
            assert evaluate(traj, spec).total_violation == result.value
            # seeds and moves alike: no evaluated point beats the result
            assert result.value >= max(seeded)

    def test_seeds_of_value_zero_are_not_climbed(self, markov_traj, replacement_traj,
                                                 monkeypatch):
        # each of the QUICK seeds is evaluated once; none has a positive flow
        calls = []
        evaluate = measures.series

        def count(traj, spec):
            calls.append(spec)
            return evaluate(traj, spec)

        monkeypatch.setattr(measures, "series", count)
        assert blp_measure(replacement_traj, QUICK).value == 0.0
        assert len(calls) == QUICK.seeds == 12
        calls.clear()
        assert witness_measure(markov_traj, QUICK).value == 0.0
        assert len(calls) == 12

    @pytest.mark.parametrize("budget", [{"seeds": 0}, {"iterations": -3}, {"rng_seed": -1}],
                             ids=["seeds_zero", "iterations_negative", "rng_seed_negative"])
    def test_invalid_budget_is_rejected(self, budget):
        # at seeds = 0 the search ran one seed, at iterations < 0 no moves, and
        # a negative rng_seed failed only where random seeds were drawn
        with pytest.raises(ValueError, match="seeds must be >= 1"):
            SearchConfig(**budget)

    @pytest.mark.parametrize("iterations", [0, 3])
    def test_iterations_bound_every_climb(self, sine_traj, iterations, monkeypatch):
        # each climb makes at most one ``series`` call per iteration after its
        # seed's; uncapped, these climbs make far more than 4 calls per seed
        search = SearchConfig(seeds=12, iterations=iterations, rng_seed=3)
        values = []
        evaluate = measures.series

        def record(traj, spec):
            ws = evaluate(traj, spec)
            values.append(ws.total_violation)
            return ws

        monkeypatch.setattr(measures, "series", record)
        for measure in (witness_measure, blp_measure):
            values.clear()
            result = measure(sine_traj, search)
            if iterations == 0:
                assert len(values) == search.seeds
                assert result.value == max(values) > 0.0
            else:
                assert search.seeds < len(values) <= search.seeds * (1 + iterations)

    @pytest.mark.parametrize("name", ["sine_traj", "qutrit_traj"])
    def test_climb_ends_where_its_ascent_vanishes(self, name, request, monkeypatch):
        # With no ascent anywhere, every accepted seed is valued once and
        # never moved, and random numbers are drawn only for the fill-up.
        traj = request.getfixturevalue(name)
        search = SearchConfig(seeds=24, iterations=40, rng_seed=3)
        values, draws = [], []
        evaluate, draw = measures.series, ops.random_hermitian

        def record(traj, spec):
            ws = evaluate(traj, spec)
            values.append(ws.total_violation)
            return ws

        def count(dim, rng):
            draws.append(dim)
            return draw(dim, rng)

        monkeypatch.setattr(measures, "_ascent", lambda *args: None)
        monkeypatch.setattr(measures, "series", record)
        monkeypatch.setattr(ops, "random_hermitian", count)
        # the certified seeds and the d⁴ - 1 products; the d² - 1 Gell-Mann matrices
        certified = _certified_reference(traj, step_choi_data(traj))
        for measure, directed in ((witness_measure, len(certified) + traj.dim ** 4 - 1),
                                  (blp_measure, traj.dim ** 2 - 1)):
            values.clear()
            draws.clear()
            result = measure(traj, search)
            assert len(values) == search.seeds
            assert len(draws) == max(search.seeds - directed, 0)
            assert result.value == max(values) > 0.0

    def test_one_dimensional_trajectory_has_nothing_to_climb(self):
        # d = 1 has no traceless operator and no Gell-Mann basis to seed from
        traj = Trajectory(times=np.linspace(0, 1, 17), maps=np.ones((17, 1, 1), dtype=complex))
        assert witness_measure(traj, QUICK).value == 0.0
        result = blp_measure(traj, QUICK)
        assert (result.value, result.pair) == (0.0, None)


class TestSeparation:
    def test_verdict_witness_agreement(self, sine_traj, markov_traj, replacement_traj,
                                       qutrit_traj, qutrit_markov_traj):
        for traj in (sine_traj, markov_traj, replacement_traj, qutrit_traj, qutrit_markov_traj):
            verdict = divisibility_verdict(traj)
            value = witness_measure(traj, QUICK).value
            assert (not verdict.markovian) == (value > 1e-6)

    def test_markovian_qutrit_yields_zero(self, qutrit_markov_traj):
        wm = witness_measure(qutrit_markov_traj, QUICK)
        bm = blp_measure(qutrit_markov_traj, QUICK)
        assert wm.value == 0.0 and wm.witness is None
        assert bm.value == 0.0 and bm.pair is None

    def test_witness_and_rhp_positive_together(self):
        grids = {
            "sine": (Dephasing(rate=Sine(1.0)), SINE_GRID),
            "const": (Dephasing(rate=Constant(1.0)), SINE_GRID),
        }
        for model, grid in grids.values():
            rhp = rhp_measure(model, grid)
            wit_value = witness_measure(evolve(model, grid), QUICK).value
            assert (rhp > 1e-6) == (wit_value > 1e-6)


def test_gell_mann_basis_properties():
    for d in (2, 3, 4):
        basis = gell_mann_basis(d)
        assert len(basis) == d * d - 1
        for mat in basis:
            assert abs(np.trace(mat)) < 1e-12
            np.testing.assert_allclose(mat, mat.conj().T, atol=1e-12)
