"""Memory-kernel equation for the spin-boson excited-state amplitude.

Solves the non-local equation

    G'(t) = - int_0^t f(t - tau) G(tau) dtau,   G(0) = 1,

on a uniform grid with trapezoidal product quadrature of the memory integral
inside a predictor-corrector step (second order).  For the exponential kernel
f(t) = gamma0 * lam * exp(-lam t) / 2 the closed form is exact at any times.
Both kernel types are real, so G is real.  G alone fixes the spin-boson maps
(populations |G|^2, coherences G*) and the time-local rates

    shift s(t) = -2 Im G'(t)/G(t),   decay gamma(t) = -2 Re G'(t)/G(t),

which diverge at every zero of G.  :func:`amplitude` gives (G, G') on a
stack of times and :func:`time_local_rates` turns them into the rates, or
raises :class:`SingularAmplitudeError` where G vanishes or changes sign.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# |G| below this means the time-local rates are singular.
AMPLITUDE_FLOOR = 1e-12
# Stability guard for the explicit part of the stepper.
MAX_STEP_KERNEL_PRODUCT = 0.5
# Corrector passes per step of the memory-kernel stepper.
CORRECTOR_ITERATIONS = 2


class VolterraStepError(ValueError):
    """Raised when the grid step is too large for the kernel."""


class SingularAmplitudeError(RuntimeError):
    """Raised when rates are requested where G vanishes or changes sign."""


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

    def _closed_form(self, t: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
        """Exact (G, G') at ``t``, one evaluation for both; G as in
        :meth:`closed_form_amplitude`, G'(t) = -(g0 l / d) e^{-lt/2} sinh(dt/2)."""
        t = np.asarray(t, dtype=float)
        lam, g0 = self.rate, self.coupling
        z = np.sqrt(complex(lam * lam - 2.0 * g0 * lam)) * t / 2.0
        damping = np.exp(-lam * t / 2.0)
        sinhc = np.sinc(1j * z / np.pi)  # sinh(z)/z, 1 at z = 0: d = 0 needs no branch
        g = damping * (np.cosh(z) + lam * t / 2.0 * sinhc)
        dg = -0.5 * g0 * lam * t * damping * sinhc
        return np.asarray(g.real, dtype=float), np.asarray(dg.real, dtype=float)

    def closed_form_amplitude(self, t: np.ndarray | float) -> np.ndarray:
        """Exact G(t) = e^{-lt/2} [cosh(dt/2) + (l/d) sinh(dt/2)], d = sqrt(l^2 - 2 g0 l)."""
        return self._closed_form(t)[0]


@dataclass(frozen=True)
class TabulatedKernel:
    """Piecewise-linear kernel given by sample points from t = 0; it is not
    extrapolated past its last time."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape:
            raise ValueError("times and values must be matching 1-d arrays")
        if times.size == 0 or times[0] != 0.0:
            raise ValueError("kernel times must start at t = 0")
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


@dataclass(frozen=True)
class AmplitudeSolution:
    """G and G' at the nodes of a uniform grid from t = 0."""

    times: np.ndarray
    values: np.ndarray       # G(t_k)
    derivatives: np.ndarray  # G'(t_k)


def solve_memory_kernel(kernel: MemoryKernel, times: np.ndarray) -> AmplitudeSolution:
    """Integrate the memory-kernel equation on a uniform grid starting at 0."""
    times = np.asarray(times, dtype=float)
    steps = np.diff(times) if times.ndim == 1 and times.size > 1 else np.zeros(1)
    h = float(steps[0])
    if not (h > 0 and abs(times[0]) <= 1e-15 and np.allclose(steps, h, rtol=1e-10, atol=1e-14)):
        raise ValueError("G of the memory-kernel stepper, so of any tabulated kernel, is "
                         "known only on a uniform grid of two or more times from t = 0; "
                         f"got t = {np.array2string(times.reshape(-1), threshold=6)}")
    if h * kernel.peak > MAX_STEP_KERNEL_PRODUCT:
        raise VolterraStepError(
            f"step {h:.3e} too large for kernel peak {kernel.peak:.3e} "
            f"(h*max|f| = {h * kernel.peak:.3e} > {MAX_STEP_KERNEL_PRODUCT})"
        )
    if isinstance(kernel, TabulatedKernel) and times[-1] > kernel.times[-1]:
        raise ValueError(f"grid runs to t={times[-1]:.6g}, past the kernel table's "
                         f"last time t={kernel.times[-1]:.6g}")

    n = times.size
    fv = np.asarray(kernel(times), dtype=float)  # f(t_k - t_j) = fv[k - j]
    g = np.zeros(n)
    gd = np.zeros(n)
    g[0] = 1.0
    for k in range(1, n):
        # Trapezoidal history: f(t_k)G_0/2 + sum_{j=1}^{k-1} f(t_k - t_j) G_j
        hist = 0.5 * fv[k] * g[0]
        if k > 1:
            hist = hist + fv[k - 1:0:-1] @ g[1:k]
        predicted = g[k - 1] + h * gd[k - 1]
        for _ in range(CORRECTOR_ITERATIONS):
            slope = -h * (hist + 0.5 * fv[0] * predicted)
            predicted = g[k - 1] + 0.5 * h * (gd[k - 1] + slope)
        g[k] = predicted
        gd[k] = -h * (hist + 0.5 * fv[0] * g[k])
    return AmplitudeSolution(times=times, values=g, derivatives=gd)


def amplitude(kernel: MemoryKernel, times) -> tuple[np.ndarray, np.ndarray]:
    """(G, G') at ``times``: the closed form of an exponential kernel at any
    times, or the memory-kernel stepper's nodes for a table, where ``times``
    must be a uniform grid from 0 (ValueError otherwise)."""
    if isinstance(kernel, ExponentialKernel):
        return kernel._closed_form(times)
    solution = solve_memory_kernel(kernel, times)
    return solution.values, solution.derivatives


def time_local_rates(times, g, dg):
    """(shift, decay) = (-2 Im G'/G, -2 Re G'/G) at one time (floats) or a
    stack of times (arrays).

    Raises SingularAmplitudeError at the first time, in the order given, where
    |G| < AMPLITUDE_FLOOR, or the first pair of consecutive times between
    which Re G changes sign: the rates diverge at the zero of G in between.
    """
    t, flat = np.ravel(times), np.ravel(g)
    collapsed = np.abs(flat) < AMPLITUDE_FLOOR
    flips = np.append((flat.real[:-1] < 0) != (flat.real[1:] < 0), False)
    if (collapsed | flips).any():
        k = int(np.argmax(collapsed | flips))
        if collapsed[k]:
            raise SingularAmplitudeError(f"|G({t[k]:.6g})| = {abs(flat[k]):.3e} "
                                         f"below {AMPLITUDE_FLOOR}; rates diverge")
        raise SingularAmplitudeError(f"G changes sign between t={t[k]:.6g} and "
                                     f"t={t[k + 1]:.6g}; rates diverge at its zero")
    ratio = np.asarray(dg) / np.asarray(g)
    shift, decay = -2.0 * np.imag(ratio), -2.0 * np.real(ratio)
    return (float(shift), float(decay)) if np.ndim(g) == 0 else (shift, decay)
