import numpy as np
import pytest
from scipy.integrate import quad

from nonmarkov.dynamics import SpinBoson, Table, describe_model, evolve
from nonmarkov.measures import rhp_rate
from nonmarkov.volterra import (
    AmplitudeSolution,
    ExponentialKernel,
    SingularAmplitudeError,
    VolterraStepError,
    amplitude,
    solve_memory_kernel,
    time_local_rates,
)

UNDERDAMPED = ExponentialKernel(coupling=4.0, rate=1.0)
OVERDAMPED = ExponentialKernel(coupling=1.0, rate=4.0)
CRITICAL = ExponentialKernel(coupling=1.0, rate=2.0)  # d = 0


def test_initial_value_is_one():
    times = np.linspace(0, 5, 501)
    sol = solve_memory_kernel(OVERDAMPED, times)
    assert sol.values[0] == 1.0
    assert sol.derivatives[0] == 0.0


def test_zero_kernel_keeps_amplitude_constant():
    kernel = Table(times=np.array([0.0, 10.0]), values=np.array([0.0, 0.0]))
    sol = solve_memory_kernel(kernel, np.linspace(0, 10, 101))
    np.testing.assert_allclose(sol.values, 1.0, atol=1e-14)


@pytest.mark.parametrize("kernel", [OVERDAMPED, UNDERDAMPED, CRITICAL])
def test_closed_form_satisfies_the_equation(kernel):
    # independent oracle: substitute the closed form into the memory-kernel
    # equation and quadrature the convolution
    for t in (0.5, 1.7, 3.9, 7.3):
        conv, err = quad(
            lambda tau: float(kernel(t - tau)) * float(kernel.closed_form_amplitude(tau)),
            0.0, t, limit=200,
        )
        lhs = float(amplitude(kernel, t)[1])
        assert lhs == pytest.approx(-conv, abs=max(1e-9, 10 * err))


@pytest.mark.parametrize("kernel", [OVERDAMPED, UNDERDAMPED, CRITICAL])
def test_numeric_matches_closed_form(kernel):
    times = np.linspace(0, 10, 2001)
    sol = solve_memory_kernel(kernel, times)
    exact = kernel.closed_form_amplitude(times)
    assert np.abs(sol.values.real - exact).max() < 1e-5
    assert np.abs(sol.values.imag).max() == 0.0


def test_second_order_convergence():
    coarse = solve_memory_kernel(UNDERDAMPED, np.linspace(0, 10, 1001))
    fine = solve_memory_kernel(UNDERDAMPED, np.linspace(0, 10, 2001))
    err_coarse = np.abs(coarse.values.real - UNDERDAMPED.closed_form_amplitude(coarse.times)).max()
    err_fine = np.abs(fine.values.real - UNDERDAMPED.closed_form_amplitude(fine.times)).max()
    assert err_coarse / err_fine == pytest.approx(4.0, rel=0.3)


def test_rates_match_closed_form():
    times = np.linspace(0, 5, 2001)
    sol = solve_memory_kernel(OVERDAMPED, times)
    decay = time_local_rates(times, sol.values, sol.derivatives)
    for k in (200, 800, 1600):  # t = 0.5, 2.0, 4.0
        t = times[k]
        ratio = amplitude(OVERDAMPED, t)[1] / OVERDAMPED.closed_form_amplitude(t)
        assert decay[k] == pytest.approx(-2.0 * ratio, abs=1e-4)


def test_step_too_large_rejected():
    with pytest.raises(VolterraStepError):
        solve_memory_kernel(UNDERDAMPED, np.linspace(0, 10, 16))


def test_nonuniform_grid_rejected():
    times = np.concatenate([np.linspace(0, 1, 50), np.linspace(1.1, 2, 20)])
    with pytest.raises(ValueError):
        solve_memory_kernel(OVERDAMPED, times)


def test_grid_must_start_at_zero():
    with pytest.raises(ValueError):
        solve_memory_kernel(OVERDAMPED, np.linspace(1, 2, 64))


def test_collapse_detection_and_singular_rates():
    times = np.linspace(0, 1, 11)
    values = np.ones(11, dtype=complex)
    values[5] = 1e-14  # forced collapse at t = 0.5
    sol = AmplitudeSolution(times=times, values=values, derivatives=np.zeros(11, complex))
    with pytest.raises(SingularAmplitudeError, match=r"\|G\(0\.5\)\|"):
        time_local_rates(sol.times, sol.values, sol.derivatives)
    with pytest.raises(SingularAmplitudeError):
        time_local_rates(times[5], values[5], sol.derivatives[5])


def test_rates_on_an_array_of_times():
    sol = solve_memory_kernel(OVERDAMPED, np.linspace(0, 5, 501))
    decay = time_local_rates(sol.times, sol.values, sol.derivatives)
    assert decay.shape == sol.times.shape
    for k, t in enumerate(sol.times):
        one = time_local_rates(t, sol.values[k], sol.derivatives[k])
        assert isinstance(one, float)
        assert one == decay[k]
    times = np.linspace(0, 1, 11)
    values = np.where(np.arange(11) == 5, 1e-14, 1.0)
    assert time_local_rates(times[[1, 2]], values[[1, 2]], np.zeros(2)).shape == (2,)
    with pytest.raises(SingularAmplitudeError, match=r"\|G\(0\.5\)\|"):
        time_local_rates(times[[1, 5, 7]], values[[1, 5, 7]], np.zeros(3))


def test_sign_change_names_both_times():
    times = np.linspace(0, 1, 11)
    assert time_local_rates(times[:6], 0.55 - times[:6], -np.ones(6)).shape == (6,)
    with pytest.raises(SingularAmplitudeError, match=r"between t=0\.5 and t=0\.6"):
        time_local_rates(times, 0.55 - times, -np.ones(11))


def test_no_collapse_for_overdamped():
    sol = solve_memory_kernel(OVERDAMPED, np.linspace(0, 10, 2001))
    decay = time_local_rates(sol.times, sol.values, sol.derivatives)
    assert np.isfinite(decay).all()


def test_tabulated_matches_exponential():
    dense = np.linspace(0, 12, 48001)
    tab = Table(times=dense, values=np.asarray(OVERDAMPED(dense)))
    times = np.linspace(0, 10, 2001)
    a = solve_memory_kernel(OVERDAMPED, times)
    b = solve_memory_kernel(tab, times)
    assert np.abs(a.values - b.values).max() < 1e-6


def test_table_must_start_at_zero():
    table = Table((0.5, 1.0), (1.0, 1.0))
    with pytest.raises(ValueError, match=r"spans \[0.5, 1\]"):
        solve_memory_kernel(table, np.linspace(0, 1, 11))


@pytest.mark.parametrize("times", [0.7, np.linspace(0.5, 1.0, 11), np.array([0.0, 0.1, 0.3])],
                         ids=["one_time", "late_start", "non_uniform"])
def test_table_amplitude_needs_a_uniform_grid_from_zero(times):
    dense = np.linspace(0, 2, 201)
    model = SpinBoson(kernel=Table(times=dense, values=OVERDAMPED(dense)))
    shown = np.array2string(np.ravel(times), threshold=6)
    with pytest.raises(ValueError, match="tabulated kernel.*uniform grid") as info:
        rhp_rate(model, times)
    assert str(info.value).endswith(f"from t = 0; got t = {shown}")


def test_table_is_not_extrapolated():
    table = Table(times=np.array([0.0, 1.0]), values=np.array([1.0, 0.5]))
    assert solve_memory_kernel(table, np.linspace(0, 1, 65)).values.shape == (65,)
    with pytest.raises(ValueError, match=r"spans \[0, 1\]"):
        solve_memory_kernel(table, np.linspace(0, 5, 65))
    with pytest.raises(ValueError, match=r"spans \[0, 1\]"):
        Table((0.0, 1.0), (1.0, 0.5))(5.0)


def test_guard_reads_the_kernel_on_the_grid():
    # the table's values past the grid's end are never sampled: f = 1 on [0, 1]
    table = Table((0.0, 1.0, 100.0), (1.0, 1.0, 1e3))
    sol = solve_memory_kernel(table, np.linspace(0, 1, 101))
    assert sol.values[-1] == pytest.approx(np.cos(1.0), abs=1e-3)


@pytest.mark.parametrize("backend", ["analytic", "numeric"])
def test_custom_kernel_goes_through_the_stepper(backend):
    times = np.linspace(0, 4, 257)
    model = SpinBoson(lambda t: 0.5 * np.exp(-np.asarray(t)))
    assert describe_model(model)["kernel"] == {"preset": "custom"}
    maps = evolve(model, times, backend=backend).maps
    stepped = evolve(SpinBoson(ExponentialKernel()), times, backend="numeric").maps
    np.testing.assert_array_equal(maps, stepped)
    # a constant kernel may give one value for all times, as a rate may
    constant = evolve(SpinBoson(lambda t: 0.5), times, backend=backend).maps
    table = evolve(SpinBoson(Table((0.0, 4.0), (0.5, 0.5))), times, backend=backend).maps
    np.testing.assert_array_equal(constant, table)


def test_kernel_validation():
    with pytest.raises(ValueError):
        ExponentialKernel(coupling=-1.0, rate=1.0)
    with pytest.raises(ValueError):
        Table(times=np.array([0.0, 0.0]), values=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        Table(times=np.array([0.0, 1.0]), values=np.array([1.0, np.inf]))
