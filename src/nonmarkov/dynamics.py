"""Superoperators, time-local generator models and dynamical-map trajectories.

Operators are vectorized by column stacking, so a map on d-dimensional states
is a d^2 x d^2 complex matrix and vec(A X B) = (B^T kron A) vec(X).  The Choi
matrix and the Heisenberg-picture dual are derived from that convention.

Generators are built in GKSL form on one time or an array of times; rate
functions and replacement targets are evaluated on arrays, so custom ones
must accept arrays.  :func:`generator` builds the constant GKSL
superoperators of a model once and returns L_t as a function of time.

Trajectories hold the map at every node of a time grid.  The analytic backend
builds them from closed-form solutions (pure dephasing, trace replacement,
spin-boson from the memory-kernel amplitude).  The numeric backend chains RK4
step maps of dLambda/dt = L_t Lambda, except for spin-boson, whose maps it
builds from the amplitude G of the memory-kernel stepper: the time-local
rates diverge at every zero of G, so no integrator may step through them.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from math import isqrt
from typing import Callable, Union

import numpy as np

from .operators import _dagger
from .volterra import ExponentialKernel, amplitude, solve_memory_kernel, time_local_rates

IDENTITY_TOL = 1e-12
TRACE_PRESERVATION_TOL = 1e-8
CONDITION_LIMIT = 1e10
DEFAULT_ATOL = 1e-10
DEFAULT_RTOL = 1e-8
# Simpson subintervals per grid step of the closed-form running integrals.
REFINE = 16
# Complex entries (16 MB) in the RK4 step maps of any numeric level past the second.
STEP_STACK_BUDGET = 2**20

TRAJECTORY_MAGIC = b"NMTRAJ01"

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)  # |ground><excited|
SIGMA_PLUS = np.array([[0, 0], [1, 0]], dtype=complex)


class SingularPropagatorError(RuntimeError):
    """Raised when Lambda_s is too ill-conditioned to invert."""


# ---------------------------------------------------------------------------
# Vectorization and superoperator algebra
# ---------------------------------------------------------------------------

def vec(matrix: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(matrix).reshape(-1, order="F")


def superop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Superoperator B^T ⊗ A of X -> A X B.  Stacks (..., d, d) broadcast to a
    stack (..., d^2, d^2)."""
    a, b = np.asarray(a), np.asarray(b)
    d = a.shape[-1]
    prod = np.swapaxes(b, -1, -2)[..., :, None, :, None] * a[..., None, :, None, :]
    return prod.reshape(*prod.shape[:-4], d * d, d * d)


def sandwich(a: np.ndarray) -> np.ndarray:
    """Superoperator of X -> A X A†."""
    return superop(a, _dagger(a))


def dissipator(jumps: np.ndarray) -> np.ndarray:
    """D[A] = A · A† − ½{A†A, ·} for one jump operator or a stack of them."""
    jumps = np.asarray(jumps, dtype=complex)
    eye = np.eye(jumps.shape[-1])
    gram = _dagger(jumps) @ jumps
    return sandwich(jumps) - 0.5 * (superop(gram, eye) + superop(eye, gram))


def commutator(h: np.ndarray) -> np.ndarray:
    """The Hamiltonian part −i[H, ·]."""
    h = np.asarray(h, dtype=complex)
    eye = np.eye(h.shape[-1])
    return -1j * (superop(h, eye) - superop(eye, h))


# OpenBLAS spreads a GEMM over its threads from m·n·k = 2**16 on.  For these
# thin products that gains no time, and waking the helper threads raises the
# peak memory of a run (by 0.6 MB on a 2001-node stack).  Row blocks below
# that size stay on one thread.  With a = 1 the product is a GEMV, which
# OpenBLAS spreads from m·n = 2**12 on.
_SERIAL_GEMM_MNK = 2**16 - 1
_SERIAL_GEMV_MN = 2**12 - 1


def apply_superop(m: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Apply Λ to an operator on H, or id_a ⊗ Λ to one on H_a ⊗ H, with the
    ancilla size a read from ``y``.  A stack of maps (..., d^2, d^2) gives
    the stack of results."""
    n = m.shape[-1]
    d = isqrt(n)
    a = y.shape[-1] // d
    blocks = y.reshape(a, d, a, d).transpose(0, 2, 3, 1).reshape(a * a, n).T
    rows = m.reshape(-1, n)
    w = np.empty((rows.shape[0], a * a), dtype=np.result_type(rows, blocks))
    step = max((_SERIAL_GEMM_MNK if a > 1 else _SERIAL_GEMV_MN) // (n * a * a), 1)
    for start in range(0, rows.shape[0], step):
        np.matmul(rows[start:start + step], blocks, out=w[start:start + step])
    return w.reshape(-1, d, d, a, a).transpose(0, 3, 2, 4, 1).reshape(*m.shape[:-2], a * d, a * d)


def pull_back(m: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Σ_k (id_a ⊗ Λ_k)†(y_k) for a map stack (K, d^2, d^2) and a stack y
    (K, ad, ad): the adjoint of :func:`apply_superop`, summed over the stack;
    entry [e', b', e, b] of m[k] as (d, d, d, d) weighs X[b, e] in Λ_k(X)[b', e']."""
    d = isqrt(m.shape[-1])
    a = y.shape[-1] // d
    pulled = np.tensordot(m.reshape(-1, d, d, d, d).conj(), y.reshape(-1, a, d, a, d),
                          axes=([0, 1, 2], [0, 4, 2]))
    return pulled.transpose(2, 1, 3, 0).reshape(a * d, a * d)


def choi_matrix(m: np.ndarray) -> np.ndarray:
    """Choi matrix sum_ij |i><j| ⊗ Λ(|i><j|); PSD iff Λ is completely positive.
    Takes one map or a stack (..., d^2, d^2)."""
    n = m.shape[-1]
    d = isqrt(n)
    lead = m.shape[:-2]
    return np.swapaxes(m.reshape(*lead, d, d, d, d), -4, -1).reshape(*lead, n, n)


def dual_superop(m: np.ndarray) -> np.ndarray:
    """Heisenberg-picture dual, the Hilbert-Schmidt adjoint Λ*, of one map or a stack."""
    return _dagger(m)


# ---------------------------------------------------------------------------
# Scalar and target presets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constant:
    value: float = 1.0

    def __call__(self, t):
        return self.value * np.ones_like(np.asarray(t, dtype=float))


@dataclass(frozen=True)
class Sine:
    amplitude: float = 1.0
    angular_frequency: float = 1.0
    phase: float = 0.0

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return self.amplitude * np.sin(self.angular_frequency * t + self.phase)


@dataclass(frozen=True)
class OffsetSine:
    offset: float = 0.0
    amplitude: float = 1.0
    angular_frequency: float = 1.0
    phase: float = 0.0

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return self.offset + self.amplitude * np.sin(self.angular_frequency * t + self.phase)


@dataclass(frozen=True)
class Table:
    """Piecewise-linear function of time, a rate or a memory kernel, never
    extrapolated past its times."""

    times: tuple
    values: tuple

    def __post_init__(self) -> None:
        if len(self.times) != len(self.values) or len(self.times) < 2:
            raise ValueError("table needs matching times and values lists of two or more")
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("table times must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("table values must be finite")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if t.size and (t.min() < self.times[0] or t.max() > self.times[-1]):
            raise ValueError(f"the table spans [{self.times[0]:.6g}, {self.times[-1]:.6g}]; "
                             f"it is not extrapolated to [{t.min():.6g}, {t.max():.6g}]")
        return np.interp(t, self.times, self.values)


RateFunction = Union[Constant, Sine, OffsetSine, Table, Callable]


@dataclass(frozen=True)
class ConstantTarget:
    """Time-independent replacement state for the trace-replacement model."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=complex))

    def __call__(self, t) -> np.ndarray:
        return np.broadcast_to(self.matrix, np.shape(t) + self.matrix.shape)


@dataclass(frozen=True)
class BlochZSineTarget:
    """Qubit target (I + scale sin(w t) sigma_z) / 2; unit trace, possibly non-PSD."""

    scale: float = 1.0
    angular_frequency: float = 1.0

    def __call__(self, t) -> np.ndarray:
        z = self.scale * np.sin(self.angular_frequency * np.asarray(t, dtype=float))
        return 0.5 * (np.eye(2, dtype=complex) + z[..., None, None] * SIGMA_Z)


# ---------------------------------------------------------------------------
# Generator models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dephasing:
    """Pure qubit dephasing, L_t(rho) = rate(t) (sigma_z rho sigma_z - rho) / 2."""

    rate: RateFunction

    @property
    def dim(self) -> int:
        return 2


@dataclass(frozen=True)
class TraceReplacement:
    """L_t(rho) = rate(t) (target(t) Tr(rho) - rho), Tr target(t) = 1."""

    rate: RateFunction
    target: Callable[[np.ndarray], np.ndarray]

    @property
    def dim(self) -> int:
        return int(np.asarray(self.target(0.0)).shape[-1])


@dataclass(frozen=True)
class SpinBoson:
    """Qubit amplitude damping driven by the memory-kernel amplitude G(t);
    the kernel is an ExponentialKernel, a Table or any callable of an array of times."""

    kernel: Callable

    @property
    def dim(self) -> int:
        return 2


@dataclass(frozen=True)
class Lindblad:
    """GKSL generator -i[H, .] + sum_k rate_k(t) D[A_k] with time-dependent,
    possibly negative rates.

    ``hamiltonian`` is a constant matrix or None; ``noise`` is a sequence of
    (jump operator A_k, rate_k) pairs, each rate a callable of an array of times.
    """

    hamiltonian: np.ndarray | None
    noise: tuple
    dim: int


GeneratorModel = Union[Dephasing, TraceReplacement, SpinBoson, Lindblad]

# The [model] vocabulary of configs and echoes: preset names per model slot, and variants.
RATES = {"constant": Constant, "sine": Sine, "offset_sine": OffsetSine, "table": Table}
TARGETS = {"constant": ConstantTarget, "bloch_z_sine": BlochZSineTarget}
KERNELS = {"exponential": ExponentialKernel, "table": Table}
VARIANTS = {"dephasing": Dephasing, "trace_replacement": TraceReplacement,
            "spin_boson": SpinBoson, "gksl": Lindblad}


def _eval_scalar(fn, t) -> np.ndarray:
    """A rate function, which must accept arrays, on a time or an array of times."""
    values = np.asarray(fn(t), dtype=float)
    return values if values.shape == np.shape(t) else np.broadcast_to(values, np.shape(t))


def _check_unit_trace(omegas: np.ndarray, times) -> np.ndarray:
    """The target stack at ``times``, or an error naming the first non-unit trace."""
    omegas = np.asarray(omegas, dtype=complex)
    tr = np.trace(omegas, axis1=-2, axis2=-1).reshape(-1)
    bad = np.abs(tr - 1.0) > 1e-10
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"replacement target at t={np.asarray(times).reshape(-1)[k]} "
                         f"has trace {tr[k]}, expected 1")
    return omegas


def _replacement(omegas: np.ndarray) -> np.ndarray:
    """|vec omega><vec I|, the map rho -> omega Tr(rho), for a stack of omegas."""
    d = omegas.shape[-1]
    vec_omegas = np.swapaxes(omegas, -1, -2).reshape(*omegas.shape[:-2], d * d)
    return vec_omegas[..., :, None] * vec(np.eye(d, dtype=complex)).conj()


def generator(model: GeneratorModel) -> Callable[[float | np.ndarray], np.ndarray]:
    """L_t as a function of one time (one d^2 x d^2 matrix back) or of an
    array of times (the stack (..., d^2, d^2) back).  The constant GKSL
    superoperators are built here, once; each call weights them by the rate
    arrays at its times.  Trace replacement is rate(t) (|vec target(t)><vec I| - id).
    The spin-boson decay rate comes from G at the given times (see
    :func:`volterra.amplitude`) and raises SingularAmplitudeError across a
    zero of G; a kernel other than the exponential one needs a uniform grid
    from 0."""
    if isinstance(model, TraceReplacement):
        def replacement_generator(t):
            times = np.asarray(t, dtype=float)
            replacement = _replacement(_check_unit_trace(model.target(times), times))
            g = _eval_scalar(model.rate, times)
            return g[..., None, None] * (replacement - np.eye(replacement.shape[-1]))
        return replacement_generator
    if isinstance(model, Dephasing):
        terms = dissipator(SIGMA_Z[None])
        rates = lambda times: [0.5 * _eval_scalar(model.rate, times)]
    elif isinstance(model, SpinBoson):
        terms = dissipator(SIGMA_MINUS[None])
        rates = lambda times: [time_local_rates(times, *amplitude(model.kernel, times))]
    elif isinstance(model, Lindblad):
        d = model.dim
        h = np.zeros((d, d)) if model.hamiltonian is None else model.hamiltonian
        jumps = np.reshape([op for op, _ in model.noise], (-1, d, d))
        terms = np.concatenate([commutator(h)[None], dissipator(jumps)])
        rates = lambda times: ([np.ones(times.shape)]
                               + [_eval_scalar(rate, times) for _, rate in model.noise])
    else:
        raise TypeError(f"unknown generator model {type(model).__name__}")

    def gksl_generator(t):
        times = np.asarray(t, dtype=float)
        return np.einsum("...k,kij->...ij", np.stack(rates(times), axis=-1), terms)
    return gksl_generator


def generator_superoperator(model: GeneratorModel, t: float | np.ndarray) -> np.ndarray:
    """The generator L_t of ``model`` at one time or an array of times; see
    :func:`generator`."""
    return generator(model)(t)


# ---------------------------------------------------------------------------
# Quadrature helpers for the closed-form backends
#
# The closed forms need running integrals of sampled rates and of the
# weighted target stack.  _cumulative_simpson is scipy's
# cumulative_simpson(y, x=x, initial=0.0, axis=0) in numpy, operation for
# operation, so the closed-form backends need no scipy and their results are
# bit-identical to scipy's.  Each interval gets the three-point formula for
# unequal spacing (Cartwright, eq. 8): from the triple to its right ("h1") on
# even intervals, from the triple to its left ("h2") on odd ones and on the
# last.  The pieces are summed with cumsum.  Complex samples are integrated
# in one call.
# ---------------------------------------------------------------------------

def _simpson_h1(y: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """The integral over [x_k, x_{k+1}] from the quadratic through nodes
    k, k+1, k+2, for every k; ``dx`` broadcasts against ``y`` along axis 0."""
    x21, x32 = dx[:-1], dx[1:]
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21_x32 = x21 / x32
    x21x21_x31x32 = x21_x31 * x21_x32
    coeff1 = 3 - x21_x31
    coeff2 = 3 + x21x21_x31x32 + x21_x31
    coeff3 = -x21x21_x31x32
    return x21 / 6 * (coeff1 * y[:-2] + coeff2 * y[1:-1] + coeff3 * y[2:])


def _cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running integral of samples ``y`` (axis 0) over the increasing 1-d
    grid ``x``, starting at 0; the trapezoid rule below three nodes."""
    y = np.asarray(y)
    dx = np.diff(np.asarray(x, dtype=float)).reshape((-1,) + (1,) * (y.ndim - 1))
    if y.shape[0] < 3:
        res = np.cumsum(dx * (y[1:] + y[:-1]) / 2.0, axis=0)
    else:
        h1 = _simpson_h1(y, dx)
        h2 = _simpson_h1(y[::-1], dx[::-1])[::-1]
        pieces = np.empty((y.shape[0] - 1,) + y.shape[1:], dtype=np.result_type(y, dx))
        pieces[:-1:2] = h1[::2]
        pieces[1::2] = h2[::2]
        pieces[-1] = h2[-1]
        res = np.cumsum(pieces, axis=0)
    res += 0.0  # scipy adds initial=0.0, which turns -0.0 into 0.0
    return np.concatenate([np.zeros((1,) + y.shape[1:], dtype=res.dtype), res])


def _refined_grid(times: np.ndarray, refine: int) -> np.ndarray:
    inner = np.linspace(times[:-1], times[1:], refine + 1, axis=-1)[:, 1:]
    return np.concatenate([times[:1], inner.reshape(-1)])


def cumulative_rate_integral(rate: RateFunction, times: np.ndarray) -> np.ndarray:
    """Gamma(t_k) = int_0^{t_k} rate, by composite Simpson on a refined grid."""
    times = np.asarray(times, dtype=float)
    tt = _refined_grid(times, REFINE)
    return _cumulative_simpson(_eval_scalar(rate, tt), tt)[::REFINE]


def _replacement_series(model: TraceReplacement, times: np.ndarray):
    """Gamma and W = int_0^t rate e^Gamma target at the nodes."""
    times = np.asarray(times, dtype=float)
    tt = _refined_grid(times, REFINE)
    rates = _eval_scalar(model.rate, tt)
    gammas = _cumulative_simpson(rates, tt)
    targets = _check_unit_trace(model.target(tt), tt)
    weighted = _cumulative_simpson((rates * np.exp(gammas))[:, None, None] * targets, tt)
    return gammas[::REFINE], weighted[::REFINE]


def averaged_target_series(model: TraceReplacement, times: np.ndarray):
    """Gamma(t_k) and the weighted target average Omega(t_k) on a grid.

    Omega(t) = W(t) / Tr W(t) with W(t) = int_0^t rate e^{Gamma(tau)} target(tau) dtau,
    and target(0), the t -> 0 limit, at node 0.  Gamma may be negative.  Tr W
    is e^Gamma - 1 up to the quadrature error, so Tr Omega = 1 to rounding; at
    a later zero of Gamma, Omega is 0/0 and ill-posed, while the map
    e^{-Gamma}(id + |W><I|) is not.  Omega is NaN at every later node where
    |Tr W| is within the rounding bound of its running sum, (pieces summed) x
    eps x int_0^t |rate| e^Gamma.  Maps are built from W alone."""
    gammas, weighted = _replacement_series(model, times)
    tt = _refined_grid(np.asarray(times, dtype=float), REFINE)
    rates = _eval_scalar(model.rate, tt)
    scale = _cumulative_simpson(np.abs(rates) * np.exp(_cumulative_simpson(rates, tt)), tt)
    rounding = np.arange(tt.size) * np.finfo(float).eps * scale
    traces = np.trace(weighted, axis1=1, axis2=2)
    lost = np.abs(traces) <= rounding[::REFINE]
    omegas = np.where(lost[:, None, None], np.nan,
                      weighted / np.where(lost, 1.0, traces)[:, None, None])
    omegas[0] = model.target(0.0)
    return gammas, omegas


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Time grid plus the dynamical map at each node; ``meta``, the model's
    JSON echo, is :func:`describe_model` of ``model`` unless given."""

    times: np.ndarray
    maps: np.ndarray  # (N, d^2, d^2)
    model: GeneratorModel | None = None
    backend: str | None = None
    meta: dict | None = None

    def __post_init__(self) -> None:
        if self.meta is None:
            self.meta = describe_model(self.model)
        self.times = np.asarray(self.times, dtype=float)
        self.maps = np.asarray(self.maps, dtype=complex)
        if self.times.ndim != 1 or self.maps.ndim != 3 or self.maps.shape[0] != self.times.size:
            raise ValueError("need matching 1-d times and (N, d^2, d^2) maps")
        n = self.maps.shape[1]
        if self.maps.shape[2] != n or n == 0 or isqrt(n) ** 2 != n:
            raise ValueError(f"maps of shape {self.maps.shape} are not (N, d^2, d^2) "
                             f"for an integer d >= 1")
        if self.times.size == 0:
            raise ValueError("trajectory grid is empty")
        finite = np.isfinite(self.times) & np.isfinite(self.maps).all(axis=(1, 2))
        if not finite.all():
            k = int(np.argmin(finite))
            raise ValueError(f"node {k} (t={self.times[k]}) has a non-finite time or map")
        ident_err = np.abs(self.maps[0] - np.eye(n)).max()
        if ident_err > IDENTITY_TOL:
            raise ValueError(f"map at node 0 deviates from identity by {ident_err:.3e}")
        # <I|Λ_k = <I|, judged relative to max(1, max|Λ_k|): a growing map
        # carries rounding of its own size
        ident = vec(np.eye(self.dim))
        residual = (np.abs(ident @ self.maps - ident).max(axis=1)
                    / np.maximum(1.0, np.abs(self.maps).max(axis=(1, 2))))
        worst = int(np.argmax(residual))
        if residual[worst] > TRACE_PRESERVATION_TOL:
            raise ValueError(
                f"map at node {worst} (t={self.times[worst]}) violates trace preservation "
                f"by {residual[worst]:.3e} relative to max(1, max|map|)"
            )
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("trajectory times must be strictly increasing")
        if abs(self.times[0]) > 1e-15:
            raise ValueError("trajectory must start at t = 0")

    @property
    def dim(self) -> int:
        return isqrt(self.maps.shape[1])

    @property
    def nodes(self) -> int:
        return self.times.size


def _spin_boson_maps(amplitudes: np.ndarray) -> np.ndarray:
    """Map stack from the amplitude series: populations |G|^2, coherences G*."""
    g = np.asarray(amplitudes, dtype=complex)
    mods = np.abs(g) ** 2
    maps = np.zeros((g.size, 4, 4), dtype=complex)
    maps[:, 0, 0] = 1.0
    maps[:, 0, 3] = 1.0 - mods
    maps[:, 1, 1] = g
    maps[:, 2, 2] = np.conj(g)
    maps[:, 3, 3] = mods
    return maps


def _evolve_analytic(model: GeneratorModel, times: np.ndarray) -> np.ndarray:
    if isinstance(model, Dephasing):
        gammas = cumulative_rate_integral(model.rate, times)
        damping = np.exp(-gammas)
        maps = np.zeros((times.size, 4, 4), dtype=complex)
        maps[:, 0, 0] = maps[:, 3, 3] = 1.0
        maps[:, 1, 1] = maps[:, 2, 2] = damping
        return maps
    if isinstance(model, TraceReplacement):
        # e^{-Gamma}(id + |W><I|), plus on |I/d><I| the trace that the
        # quadrature misses: 0 where Tr W is exactly e^Gamma - 1
        gammas, weighted = _replacement_series(model, times)
        decay = np.exp(-gammas)[:, None, None]
        lost = 1.0 - decay * (1.0 + np.trace(weighted, axis1=1, axis2=2)[:, None, None])
        d = model.dim
        return decay * np.eye(d * d) + _replacement(decay * weighted + lost * np.eye(d) / d)
    if isinstance(model, SpinBoson):
        return _spin_boson_maps(amplitude(model.kernel, times)[0])
    raise ValueError(f"no analytic backend for {type(model).__name__}")


def _rk4_maps(gens: np.ndarray, times: np.ndarray, sub: int) -> np.ndarray:
    """The maps at ``times`` by RK4 at ``sub`` (a power of 2) substeps per
    interval, from L on ``_refined_grid(times, 2 * sub)``.  Each step is the
    matrix S = I + h/6 (K1 + 2 K2 + 2 K3 + K4), K1 = L(t), K2 = L(t+h/2)(I + h/2 K1),
    K3 = L(t+h/2)(I + h/2 K2), K4 = L(t+h)(I + h K3); <I|S = <I| as <I|L_t = 0."""
    n = gens.shape[-1]
    h = np.diff(_refined_grid(times, sub))[:, None, None]
    left, mid, right = gens[:-1:2], gens[1::2], gens[2::2]
    k2 = mid + h / 2 * (mid @ left)
    k3 = mid + h / 2 * (mid @ k2)
    k4 = right + h * (right @ k3)
    steps = (np.eye(n) + h / 6 * (left + 2 * (k2 + k3) + k4)).reshape(-1, sub, n, n)
    while steps.shape[1] > 1:  # the substeps of each interval, multiplied pairwise
        steps = steps[:, 1::2] @ steps[:, ::2]
    maps = np.broadcast_to(np.eye(n, dtype=complex), (times.size, n, n)).copy()
    for k, step in enumerate(steps[:, 0]):
        np.matmul(step, maps[k], out=maps[k + 1])
    return maps


def _evolve_numeric(model: GeneratorModel, times: np.ndarray) -> np.ndarray:
    """RK4 at 1, 2, 4, ... substeps until two levels differ by at most 15 (atol +
    rtol max|Lambda|), Richardson's bound for a fourth-order method; the finer
    is returned.  An overflowing level (h rate beyond about 2.8) fails the test."""
    if isinstance(model, SpinBoson):
        return _spin_boson_maps(solve_memory_kernel(model.kernel, times).values)
    gen_at = generator(model)
    coarse, sub = np.nan, 1  # the first level compares equal to nothing
    while sub <= 2 or (times.size - 1) * sub * model.dim ** 4 <= STEP_STACK_BUDGET:
        gens = gen_at(_refined_grid(times, 2 * sub))
        with np.errstate(over="ignore", invalid="ignore"):
            fine = _rk4_maps(gens, times, sub)
            if np.abs(fine - coarse).max() <= 15 * (DEFAULT_ATOL + DEFAULT_RTOL * abs(fine).max()):
                return fine
        coarse, sub = fine, 2 * sub
    raise RuntimeError(f"trajectory integration failed: RK4 not converged at {sub // 2} "
                       f"substeps per interval; {sub} would pass STEP_STACK_BUDGET")


def evolve(model: GeneratorModel, times: np.ndarray, backend: str = "auto") -> Trajectory:
    """Build the trajectory of dynamical maps on a grid starting at t = 0.

    ``backend='analytic'`` uses the closed-form solution (dephasing, trace
    replacement, spin-boson from the amplitude G: the closed form of an
    exponential kernel, the memory-kernel stepper for any other kernel).
    ``backend='numeric'`` chains RK4 step maps of dLambda/dt = L_t Lambda to
    ``DEFAULT_ATOL``/``DEFAULT_RTOL`` (RuntimeError past ``STEP_STACK_BUDGET``);
    for spin-boson it builds the maps from the stepper's G on the grid
    instead.  ``'auto'`` picks the analytic form when one exists.
    """
    times = np.asarray(times, dtype=float)
    if backend == "auto":
        closed_form = isinstance(model, (Dephasing, TraceReplacement, SpinBoson))
        backend = "analytic" if closed_form else "numeric"
    if backend == "analytic":
        maps = _evolve_analytic(model, times)
    elif backend == "numeric":
        maps = _evolve_numeric(model, times)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return Trajectory(times=times, maps=maps, model=model, backend=backend)


def propagators(later: np.ndarray, earlier: np.ndarray):
    """V = later earlier^{-1} for stacks ``(N, n, n)`` of maps, skipping each
    earlier map whose condition number is beyond ``CONDITION_LIMIT``.

    Returns the propagators of the kept pairs, the excluded mask and the
    condition numbers."""
    cond = np.linalg.cond(earlier)
    excluded = ~np.isfinite(cond) | (cond > CONDITION_LIMIT)
    kept = ~excluded
    props = np.linalg.solve(earlier[kept].transpose(0, 2, 1),
                            later[kept].transpose(0, 2, 1)).transpose(0, 2, 1)
    return props, excluded, cond


def intermediate_map(traj: Trajectory, t: float, s: float) -> np.ndarray:
    """Propagator V_{t,s} = Lambda_t Lambda_s^{-1} between two grid times,
    each matched to a node within 1e-9 max(1, t_max) (ValueError otherwise)."""
    if t < s:
        raise ValueError(f"need t >= s, got t={t}, s={s}")
    nodes = np.abs(traj.times[:, None] - [t, s]).argmin(axis=0)
    off = np.abs(traj.times[nodes] - [t, s]) > 1e-9 * max(1.0, traj.times[-1])
    if off.any():
        raise ValueError(f"t={(t, s)[int(np.argmax(off))]} is not a node of the trajectory grid")
    props, excluded, cond = propagators(traj.maps[nodes[:1]], traj.maps[nodes[1:]])
    if excluded[0]:
        raise SingularPropagatorError(
            f"map at s={s} has condition number {cond[0]:.3e} beyond {CONDITION_LIMIT:.0e}"
        )
    return props[0]


# ---------------------------------------------------------------------------
# Model descriptors and trajectory files
# ---------------------------------------------------------------------------

# Class -> name, of the presets and of the variants.
_NAMES = {cls: name for table in (RATES, TARGETS, KERNELS, VARIANTS)
          for name, cls in table.items()}


def _echo(values: dict) -> dict:
    """JSON echo of dataclass fields: a matrix as its real and imaginary parts
    (``<key>_real``, ``<key>_imag``), a rate, target or kernel as its preset
    name and fields ("custom" outside the name table), the rest as it is."""
    echo = {}
    for key, value in values.items():
        if np.ndim(value) == 2:
            matrix = np.asarray(value, dtype=complex)
            echo[f"{key}_real"], echo[f"{key}_imag"] = matrix.real.tolist(), matrix.imag.tolist()
        elif type(value) in _NAMES:
            echo[key] = {"preset": _NAMES[type(value)], **_echo(vars(value))}
        elif callable(value):
            echo[key] = {"preset": "custom"}
        else:
            echo[key] = np.asarray(value).tolist() if np.ndim(value) else value
    return echo


def describe_model(model: GeneratorModel | None) -> dict:
    """The JSON echo of a model, "custom" for a class outside the name tables;
    a GKSL model's noise is a list of jump operators with their rates."""
    if model is None:
        return {}
    if _NAMES.get(type(model)) not in VARIANTS:
        return {"variant": "custom"}
    if isinstance(model, Lindblad):
        noise = [_echo({"operator": op, "rate": rate}) for op, rate in model.noise]
        return {"variant": "gksl", **_echo({"hamiltonian": model.hamiltonian}),
                "noise": noise, "dim": model.dim}
    return {"variant": _NAMES[type(model)], **_echo(vars(model))}


def save_trajectory(traj: Trajectory, path) -> None:
    """Write a trajectory file: magic, JSON header, grid, interleaved re/im maps."""
    header = {
        "format": "nonmarkov-trajectory",
        "version": 1,
        "dim": traj.dim,
        "nodes": int(traj.nodes),
        "model": traj.meta,
        "backend": traj.backend,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(TRAJECTORY_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(traj.times.astype("<f8").tobytes())
        fh.write(traj.maps.astype("<c16").tobytes())


def load_trajectory(path) -> Trajectory:
    """Read and validate a trajectory file written by :func:`save_trajectory`;
    a malformed file raises ValueError."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[: len(TRAJECTORY_MAGIC)]
    if magic != TRAJECTORY_MAGIC:
        raise ValueError(f"not a trajectory file (bad magic {magic!r})")
    if len(data) < 16:
        raise ValueError("trajectory file truncated in its header length")
    (blob_len,) = struct.unpack_from("<Q", data, 8)
    header = json.loads(data[16:16 + blob_len].decode("utf-8"))
    if not isinstance(header, dict):
        header = {}
    for key, value in (("format", "nonmarkov-trajectory"), ("version", 1)):
        if header.get(key) != value or type(header.get(key)) is not type(value):
            raise ValueError(f"trajectory header needs {key!r} {value!r}, got {header.get(key)!r}")
    dim, nodes = header.get("dim"), header.get("nodes")
    if not all(type(v) is int and v >= 1 for v in (dim, nodes)):
        raise ValueError(f"trajectory header needs positive integer 'dim' and 'nodes', "
                         f"got {dim!r} and {nodes!r}")
    model, backend = header.get("model"), header.get("backend")
    if not isinstance(model, dict):
        raise ValueError(f"trajectory header needs a JSON object 'model', got {model!r}")
    if not (backend is None or isinstance(backend, str)):
        raise ValueError(f"trajectory header needs a string or null 'backend', got {backend!r}")
    n = dim * dim
    start = 16 + blob_len
    expected = start + nodes * (1 + 2 * n * n) * 8
    if len(data) != expected:
        raise ValueError(f"trajectory file holds {len(data)} bytes, but its header "
                         f"({nodes} maps of dimension {dim}) needs {expected}")
    times = np.frombuffer(data, dtype="<f8", count=nodes, offset=start).copy()
    maps = np.frombuffer(data, dtype="<c16", count=nodes * n * n,
                         offset=start + nodes * 8).reshape(nodes, n, n).copy()
    return Trajectory(times=times, maps=maps, backend=backend, meta=model)
