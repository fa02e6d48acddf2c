"""Memory-kernel equation for the spin-boson excited-state amplitude.

Solves the non-local equation

    G'(t) = - int_0^t f(t - tau) G(tau) dtau,   G(0) = 1,

on a uniform grid with trapezoidal product quadrature of the memory integral
inside a predictor-corrector step (second order).  For the exponential kernel
f(t) = gamma0 * lam * exp(-lam t) / 2 the closed-form solution is available as
an independent cross-check.  The time-local rates driving the master equation
are read off the same derivative series the stepper produced:

    shift s(t) = -2 Im G'(t)/G(t),   decay gamma(t) = -2 Re G'(t)/G(t).

The off-grid interpolation uses scipy's CubicSpline, imported when the first
solution is built, so importing this module does not load scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from scipy.interpolate import CubicSpline

# |G| below this means the time-local rates are singular.
AMPLITUDE_FLOOR = 1e-12
# Stability guard for the explicit part of the stepper.
MAX_STEP_KERNEL_PRODUCT = 0.5


class VolterraStepError(ValueError):
    """Raised when the grid step is too large for the kernel."""


class SingularAmplitudeError(RuntimeError):
    """Raised when rates are requested where |G| has collapsed."""


@dataclass(frozen=True)
class ExponentialKernel:
    """Reservoir correlation f(t) = coupling * rate * exp(-rate * t) / 2."""

    coupling: float  # gamma0 > 0
    rate: float      # lam > 0

    def __post_init__(self) -> None:
        if self.coupling <= 0 or self.rate <= 0:
            raise ValueError("ExponentialKernel parameters must be positive")

    def __call__(self, t: np.ndarray | float) -> np.ndarray | float:
        return 0.5 * self.coupling * self.rate * np.exp(-self.rate * np.asarray(t))

    @property
    def peak(self) -> float:
        return 0.5 * self.coupling * self.rate

    def closed_form_amplitude(self, t: np.ndarray | float) -> np.ndarray:
        """Exact G(t) = e^{-lt/2} [cosh(dt/2) + (l/d) sinh(dt/2)], d = sqrt(l^2 - 2 g0 l)."""
        t = np.asarray(t, dtype=float)
        lam, g0 = self.rate, self.coupling
        d = np.sqrt(complex(lam * lam - 2.0 * g0 * lam))
        if abs(d) < 1e-14:  # critically damped limit
            out = np.exp(-lam * t / 2.0) * (1.0 + lam * t / 2.0)
            return np.asarray(out, dtype=float)
        out = np.exp(-lam * t / 2.0) * (np.cosh(d * t / 2.0) + (lam / d) * np.sinh(d * t / 2.0))
        return np.asarray(out.real, dtype=float)

    def closed_form_derivative(self, t: np.ndarray | float) -> np.ndarray:
        """Exact G'(t) = -(g0 l / d) e^{-lt/2} sinh(dt/2)."""
        t = np.asarray(t, dtype=float)
        lam, g0 = self.rate, self.coupling
        d = np.sqrt(complex(lam * lam - 2.0 * g0 * lam))
        if abs(d) < 1e-14:
            out = -0.5 * g0 * lam * t * np.exp(-lam * t / 2.0)
            return np.asarray(out, dtype=float)
        out = -(g0 * lam / d) * np.exp(-lam * t / 2.0) * np.sinh(d * t / 2.0)
        return np.asarray(out.real, dtype=float)

    def closed_form_solution(self, times: np.ndarray) -> "AmplitudeSolution":
        """Amplitude solution built from the closed form instead of the stepper."""
        times = np.asarray(times, dtype=float)
        return AmplitudeSolution(
            times=times,
            values=self.closed_form_amplitude(times).astype(complex),
            derivatives=self.closed_form_derivative(times).astype(complex),
        )


@dataclass(frozen=True)
class TabulatedKernel:
    """Piecewise-linear kernel given by sample points."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape:
            raise ValueError("times and values must be matching 1-d arrays")
        if not np.all(np.diff(times) > 0):
            raise ValueError("kernel times must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("kernel values must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __call__(self, t: np.ndarray | float) -> np.ndarray:
        return np.interp(np.asarray(t), self.times, self.values)

    @property
    def peak(self) -> float:
        return float(np.abs(self.values).max())


MemoryKernel = ExponentialKernel | TabulatedKernel


def _quotient(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex a / b by Smith's formula with true divisions, as Python divides
    complex numbers; numpy multiplies by a reciprocal, which differs in the last
    bit, and RK45 amplifies that near the zeros of G."""
    turn = np.where(np.abs(np.real(b)) >= np.abs(np.imag(b)), 1.0, 1j)
    a, b = a * turn, b * turn  # exact; now |Re b| >= |Im b|
    ratio = b.imag / b.real
    denom = b.real + b.imag * ratio
    return (a.real + a.imag * ratio) / denom + 1j * ((a.imag - a.real * ratio) / denom)


@dataclass
class AmplitudeSolution:
    """G and G' on a uniform grid, with cubic interpolation for off-grid queries."""

    times: np.ndarray
    values: np.ndarray       # G(t_k), complex
    derivatives: np.ndarray  # G'(t_k), complex
    first_collapse: float | None = None  # first node time with |G| < AMPLITUDE_FLOOR

    _value_spline: CubicSpline = field(init=False, repr=False)
    _deriv_spline: CubicSpline = field(init=False, repr=False)

    def __post_init__(self) -> None:
        from scipy.interpolate import CubicSpline

        below = np.abs(self.values) < AMPLITUDE_FLOOR
        if self.first_collapse is None and below.any():
            self.first_collapse = float(self.times[np.argmax(below)])
        self._value_spline = CubicSpline(self.times, self.values)
        self._deriv_spline = CubicSpline(self.times, self.derivatives)

    def amplitude(self, t: np.ndarray | float) -> np.ndarray:
        return self._value_spline(t)

    def derivative(self, t: np.ndarray | float) -> np.ndarray:
        return self._deriv_spline(t)

    def rates(self, t: np.ndarray | float):
        """Time-local (shift, decay) rates at one time (floats) or an array of
        times (arrays); fails where |G| is singular."""
        g = np.asarray(self._value_spline(t))
        collapsed = (np.abs(g) < AMPLITUDE_FLOOR).reshape(-1)
        if collapsed.any():
            k = int(np.argmax(collapsed))
            raise SingularAmplitudeError(f"|G({np.ravel(t)[k]})| = {abs(g.reshape(-1)[k]):.3e} "
                                         f"below {AMPLITUDE_FLOOR}; rates diverge")
        ratio = _quotient(self._deriv_spline(t), g)
        shift, decay = -2.0 * ratio.imag, -2.0 * ratio.real
        return (float(shift), float(decay)) if g.ndim == 0 else (shift, decay)


def solve_memory_kernel(
    kernel: MemoryKernel,
    times: np.ndarray,
    corrector_iterations: int = 2,
) -> AmplitudeSolution:
    """Integrate the memory-kernel equation on a uniform grid starting at 0."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValueError("need at least two grid points")
    if abs(times[0]) > 1e-15:
        raise ValueError("grid must start at t = 0")
    steps = np.diff(times)
    h = float(steps[0])
    if not np.allclose(steps, h, rtol=1e-10, atol=1e-14):
        raise ValueError("memory-kernel grid must be uniform")
    if h * kernel.peak > MAX_STEP_KERNEL_PRODUCT:
        raise VolterraStepError(
            f"step {h:.3e} too large for kernel peak {kernel.peak:.3e} "
            f"(h*max|f| = {h * kernel.peak:.3e} > {MAX_STEP_KERNEL_PRODUCT})"
        )

    n = times.size
    fv = np.asarray(kernel(times), dtype=float)  # f(t_k - t_j) = fv[k - j]
    g = np.zeros(n, dtype=complex)
    gd = np.zeros(n, dtype=complex)
    g[0] = 1.0
    for k in range(1, n):
        # Trapezoidal history: f(t_k)G_0/2 + sum_{j=1}^{k-1} f(t_k - t_j) G_j
        hist = 0.5 * fv[k] * g[0]
        if k > 1:
            hist = hist + fv[k - 1:0:-1] @ g[1:k]
        predicted = g[k - 1] + h * gd[k - 1]
        for _ in range(corrector_iterations):
            slope = -h * (hist + 0.5 * fv[0] * predicted)
            predicted = g[k - 1] + 0.5 * h * (gd[k - 1] + slope)
        g[k] = predicted
        gd[k] = -h * (hist + 0.5 * fv[0] * g[k])
    return AmplitudeSolution(times=times, values=g, derivatives=gd)
