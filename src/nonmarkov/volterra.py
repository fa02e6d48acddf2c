"""Memory-kernel equation for the spin-boson excited-state amplitude.

Solves the non-local equation

    G'(t) = - int_0^t f(t - tau) G(tau) dtau,   G(0) = 1,

on a uniform grid with trapezoidal product quadrature of the memory integral
inside a predictor-corrector step (second order).  For the exponential kernel
f(t) = gamma0 * lam * exp(-lam t) / 2 the closed form is exact at any times.
Any other kernel, a ``dynamics.Table`` or a custom callable of an array of
times, goes through the stepper, whose step guard reads the kernel sampled on
the grid.  A kernel is real, so G is real.  G alone fixes the spin-boson maps
(populations |G|^2, coherences G*) and the time-local decay rate

    gamma(t) = -2 G'(t)/G(t),

which diverges at every zero of G.  :func:`amplitude` gives (G, G') on a
stack of times and :func:`time_local_rates` turns them into the rate, or
raises :class:`SingularAmplitudeError` where G vanishes or changes sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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

    coupling: float = 1.0  # gamma0 > 0
    rate: float = 1.0      # lam > 0

    def __post_init__(self) -> None:
        if self.coupling <= 0 or self.rate <= 0:
            raise ValueError("ExponentialKernel parameters must be positive")

    def __call__(self, t: np.ndarray | float) -> np.ndarray | float:
        return 0.5 * self.coupling * self.rate * np.exp(-self.rate * np.asarray(t))

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
class AmplitudeSolution:
    """G and G' at the nodes of a uniform grid from t = 0."""

    times: np.ndarray
    values: np.ndarray       # G(t_k)
    derivatives: np.ndarray  # G'(t_k)


def solve_memory_kernel(kernel: Callable, times: np.ndarray) -> AmplitudeSolution:
    """Integrate the memory-kernel equation on a uniform grid starting at 0,
    for a kernel callable on an array of times, sampled once on the grid
    (one value, or one per time: fv[k - j] = f(t_k - t_j))."""
    times = np.asarray(times, dtype=float)
    steps = np.diff(times) if times.ndim == 1 and times.size > 1 else np.zeros(1)
    h = float(steps[0])
    if not (h > 0 and abs(times[0]) <= 1e-15 and np.allclose(steps, h, rtol=1e-10, atol=1e-14)):
        raise ValueError("G of the memory-kernel stepper, so of any tabulated kernel, is "
                         "known only on a uniform grid of two or more times from t = 0; "
                         f"got t = {np.array2string(times.reshape(-1), threshold=6)}")
    fv = np.broadcast_to(np.asarray(kernel(times), dtype=float), times.shape)
    peak = float(np.abs(fv).max())
    if not h * peak <= MAX_STEP_KERNEL_PRODUCT:  # NaN samples fail too
        raise VolterraStepError(
            f"step {h:.3e} too large for kernel peak {peak:.3e} on the grid "
            f"(h*max|f| = {h * peak:.3e} > {MAX_STEP_KERNEL_PRODUCT})"
        )
    n = times.size
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


def amplitude(kernel: Callable, times) -> tuple[np.ndarray, np.ndarray]:
    """(G, G') at ``times``: the closed form of an exponential kernel at any
    times, or for any other kernel (a ``dynamics.Table`` or a custom callable
    of an array of times) the memory-kernel stepper's nodes, where ``times``
    must be a uniform grid from 0 (ValueError otherwise)."""
    if isinstance(kernel, ExponentialKernel):
        return kernel._closed_form(times)
    solution = solve_memory_kernel(kernel, times)
    return solution.values, solution.derivatives


def time_local_rates(times, g, dg):
    """The decay rate -2 Re G'/G at one time (a float) or a stack of times (an array).

    Raises SingularAmplitudeError at the first time, in the order given, where
    |G| < AMPLITUDE_FLOOR, or the first pair of consecutive times between
    which Re G changes sign: the rate diverges at the zero of G in between.
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
    decay = -2.0 * np.real(np.asarray(dg) / np.asarray(g))
    return float(decay) if np.ndim(g) == 0 else decay
