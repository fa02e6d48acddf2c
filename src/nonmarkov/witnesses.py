"""Witness functionals along a trajectory and violation-interval detection.

A witness family is a functional of the evolved maps that CP-divisible
evolution cannot raise (orientation +1) or cannot lower (-1), so a positive
oriented flow signals a breakdown of divisibility.  Each family is one spec
class, the only place it is defined: ``derivative(times, maps)`` is the
derivative of its functional on a map stack at the interior nodes,
``orientation`` its sign, and ``invariant()`` the state or observable it needs
left fixed, or None:

* extended/plain trace-norm witnesses: d/dt of the evolved trace norm
  (witnesses are stored with unit trace norm, so the flow is scale-free);
* state-distinguishability flow: half the derivative of the evolved
  trace distance between two states;
* divergences (relative entropy, Renyi, Tsallis): d/dt of the divergence;
* fidelity and invariant-state overlap: minus the derivative;
* skew information: minus the derivative in the Schrodinger picture with a
  conserved observable, plus the derivative in the Heisenberg picture with an
  invariant state;
* dual operator-norm witness: d/dt of the evolved operator norm.

Derivatives are estimated from node values with a fourth-order central
stencil on uniform interiors and plain central secants next to the grid
edges.  Smooth functionals are differenced directly.  A norm kinks where an
eigenvalue of the evolved operator crosses zero, but each sorted eigenvalue
passes through zero smoothly, so the norm families difference the ascending
spectrum instead: d‖Y‖₁/dt = Σᵢ sign(λᵢ) λ̇ᵢ, and d‖Y‖/dt is λ̇_max or −λ̇_min,
whichever of λ_max and −λ_min leads (Bhatia, *Matrix Analysis*, §VI).
One ``Stencil`` per search owns how its flows use the grid: the support of
the flagged steps, the nodes read, their runs, the trapezoid weights, the
derivative band's rows at the support with their adjoint, and the rounding
floor.  A ``TraceNormKernel`` of a stencil and a map stack gives the
trace-norm flow on the support from one diagonalization per read node and
those band rows; the trace-norm witness families' ``series`` use it, and
each measure search builds one to value its candidates and their gradients.
``total_violation`` integrates with the trapezoid rule's node weights, the
stencil's, and a test pins them to ``np.trapezoid``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from math import isqrt

import numpy as np

from . import operators as ops
from .dynamics import (
    Trajectory,
    apply_superop,
    dual_superop,
    pull_back,
)

VIOLATION_ENTER = 1e-9
VIOLATION_EXIT = 0.0
INVARIANCE_TOL = 1e-8
NON_PSD_TOL = 1e-12
# Largest deviation of M v from mu v for an eigenoperator v of every map.
SPECTRAL_RESIDUAL_TOL = 1e-6
# Seed of the random node combination that spectral_modes diagonalizes.
SPECTRAL_SEED = 1234


class InvarianceError(RuntimeError):
    """Raised when a witness needs an invariant object the trajectory lacks."""


# ---------------------------------------------------------------------------
# Derivative estimation
# ---------------------------------------------------------------------------

def derivative_series(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Derivative estimates at the interior nodes times[1:-1] of each column
    of ``values``, a series along axis 0 (a 1-d series is one column).

    Uses the fourth-order five-point stencil where a uniform window is
    available and the plain central secant next to the boundaries.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size < 3:
        raise ValueError("need at least three nodes for interior derivatives")
    spans = (times[2:] - times[:-2]).reshape((-1,) + (1,) * (values.ndim - 1))
    out = (values[2:] - values[:-2]) / spans
    if _five_point(times):
        out[1:-1] = (-values[4:] + 8.0 * values[3:-1] - 8.0 * values[1:-3]
                     + values[:-4]) / (12.0 * (times[1] - times[0]))
    return out


def _five_point(times: np.ndarray) -> bool:
    """Whether :func:`derivative_series` uses five points: on five or more nodes
    whose steps equal the first within rtol 1e-8, atol 1e-14 (np.allclose's rule)."""
    steps = np.diff(times)
    return times.size >= 5 and bool((abs(steps - steps[0]) <= 1e-14 + 1e-8 * abs(steps[0])).all())


class Stencil:
    """The grid rules of a flow on ``support``, a mask over the interior nodes
    of ``times`` (all by default): ``read``, the nodes its stencils read (node
    i reads i − 2 to i + 2); ``runs``, the runs of those, each differenced
    alone so the flow on the mask is the full grid's (the whole grid where it
    has no five-point stencil); ``weights``, the trapezoid weights;
    ``derivative`` and ``adjoint``, the full grid's derivative at the mask and
    its transpose, which read and give values at the read nodes alone."""

    def __init__(self, times: np.ndarray, support: np.ndarray | None = None) -> None:
        self.times = np.asarray(times, dtype=float)
        self.support = (np.ones(self.times.size - 2, dtype=bool) if support is None
                        else np.asarray(support, dtype=bool))
        if self.support.shape != (self.times.size - 2,):
            raise ValueError(f"support of shape {self.support.shape} is not one per interior node")
        # a grid of two nodes has no interior node, so nothing is read
        self.read = (np.convolve(self.support, np.ones(5))[1:-1] > 0.0 if self.support.size
                     else np.zeros(self.times.size, dtype=bool))
        self.runs = _runs(self.read) if _five_point(self.times) else [(0, self.times.size - 1)]

    @classmethod
    def of_steps(cls, times: np.ndarray, flagged: np.ndarray) -> Stencil:
        """The ``Stencil`` on the interior nodes whose stencil reads a step of
        ``flagged``, a mask over the steps: node i reads steps i − 2 to i + 1."""
        # entry i + 1 of the convolution counts the flagged steps i − 2 to i + 1
        return cls(times, np.convolve(flagged, np.ones(4))[2:-2] > 0.0)

    def rounding_level(self, m: int) -> float:
        """The value rounding alone gives an operator with ``m`` eigenvalues
        and an evolved trace norm near 1: each evolved eigenvalue one ulp of 1
        off at every node, differenced by weights of at most 1.5/h (h the
        smallest step) in absolute value and integrated with the ``weights``."""
        return 1.5 * m * np.finfo(float).eps * self.weights.sum() / np.diff(self.times).min()

    @cached_property
    def weights(self) -> np.ndarray:
        return _trapezoid_weights(self.times[1:-1]) * self.support

    @cached_property
    def _band(self) -> tuple[np.ndarray, np.ndarray]:
        """D of :func:`derivative_series` on the whole grid as a band: row j
        reads nodes j − 1 to j + 3, one of each residue mod 5, so D of the
        five combs of a residue gives the coefficients, and ``cols`` the
        nodes they weigh (clipped to the grid, where the band is 0)."""
        n = self.times.size
        band = derivative_series(self.times, np.arange(n)[:, None] % 5 == np.arange(5))
        first = np.arange(n - 2)[:, None] - 1
        return band, np.clip(first + (np.arange(5) - first) % 5, 0, n - 1)

    @cached_property
    def _rows(self) -> tuple:
        """The band's rows at the support nodes: their coefficients, the
        places among the read nodes of the nodes they weigh and of their
        centres, and their trapezoid weights."""
        band, cols = self._band
        rows = np.flatnonzero(self.support)
        place = np.cumsum(self.read) - 1
        return band[rows], place[cols[rows]], place[rows + 1], self.weights[rows]

    def derivative(self, values: np.ndarray) -> np.ndarray:
        """The rows of :func:`derivative_series` on the whole grid at the
        support nodes, of ``values`` given at the read nodes (axis 0)."""
        band, cols, _, _ = self._rows
        return (band.reshape(band.shape + (1,) * (values.ndim - 1)) * values[cols]).sum(axis=1)

    def adjoint(self, w: np.ndarray) -> np.ndarray:
        """Dᵀ of ``w``, one per support node, at the read nodes, so that
        Σ w·D[v] = Σ Dᵀ[w]·v for D of :meth:`derivative`."""
        band, cols, _, _ = self._rows
        return np.bincount(cols.ravel(), (band * w[:, None]).ravel(),
                           minlength=int(self.read.sum()))


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    """Node weights of the trapezoid rule on the nodes ``x``; one node integrates to 0."""
    return np.convolve(np.diff(x), [0.5, 0.5]) if x.size > 1 else np.zeros(x.size)


def _positive_integral(weights: np.ndarray, values: np.ndarray) -> float:
    """Σ w·max(0, v) over the nodes where ``values`` is positive or NaN, so a
    NaN flow integrates to NaN."""
    positive = ~(values <= 0.0)
    return float(weights[positive] @ values[positive])


# ---------------------------------------------------------------------------
# Norm flows from the sorted spectrum
# ---------------------------------------------------------------------------

class TraceNormKernel:
    """The trace-norm flow of operators that ``maps`` evolve, on the support
    of ``stencil``: Σᵢ sign(λᵢ) D[λᵢ] over the ascending spectrum, the signs
    read at the centre.  Each sorted eigenvalue passes smoothly through zero,
    and eigenvalues of equal sign that cross each other add up to a smooth
    sum, so no kink needs detecting.  Only the maps at the read nodes are
    kept, and only the band rows of the support are applied."""

    def __init__(self, stencil: Stencil, maps: np.ndarray) -> None:
        self.stencil = stencil
        self.maps = maps if stencil.read.all() else maps[stencil.read]

    def evolve(self, x: np.ndarray) -> np.ndarray:
        """The operator ``x`` evolved at the read nodes."""
        return apply_superop(self.maps, x)

    def flow(self, stack: np.ndarray) -> np.ndarray:
        """The flow at the support nodes of an evolved ``stack``."""
        eigs = ops.eigvalsh(stack)
        return (np.sign(eigs[self.stencil._rows[2]]) * self.stencil.derivative(eigs)).sum(axis=1)

    def value(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """The integral of the positive flow of ``x`` over the support (that
        of its ``series`` on the stencil, bit for bit) and ``evolve(x)``."""
        stack = self.evolve(x)
        return _positive_integral(self.stencil._rows[3], self.flow(stack)), stack

    def gradient(self, stack: np.ndarray) -> np.ndarray:
        """Gradient of Σⱼ wⱼ max(0, D[‖·‖₁]ⱼ) on the support (w the trapezoid
        weights) with respect to the operator evolved into ``stack``: the
        eigenprojectors Pᵢ of the stack, weighted by
        c = sign(λ) Dᵀ(w [D[‖·‖₁] > 0]) and pulled back.  This flow reads
        sign(λᵢ) at every stencil node, where :meth:`flow` reads it at the
        centre; the two agree wherever no eigenvalue changes sign inside a
        stencil.  The centred flow jumps each time an eigenvalue's zero
        crossing passes a node, and its gradient pushes crossings into those
        jumps; this flow is continuous and sees them move."""
        eigs, vecs = np.linalg.eigh(stack)
        flow = self.stencil.derivative(np.abs(eigs).sum(axis=1))
        coeffs = np.sign(eigs) * self.stencil.adjoint(self.stencil._rows[3] * (flow > 0.0))[:, None]
        return pull_back(self.maps, (vecs * coeffs[:, None, :]) @ vecs.conj().swapaxes(-1, -2))


def _operator_norm_derivative(times: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """d/dt of the operator norm of a Hermitian stack at the interior nodes:
    D of whichever of λ_max and −λ_min leads at the node."""
    branches = ops.eigvalsh(stack)[:, [-1, 0]] * (1.0, -1.0)
    rates = derivative_series(times, branches)
    return np.where(branches[1:-1, 0] >= branches[1:-1, 1], rates[:, 0], rates[:, 1])


def _non_psd_witness(witness: np.ndarray, kind: str, norm) -> np.ndarray:
    """A Hermitian, non-PSD operator on H ⊗ H divided by ``norm`` of its
    eigenvalue magnitudes."""
    w = ops.check_hermitian(witness, "witness")
    eigs = np.linalg.eigvalsh(w)
    if eigs.min() >= -NON_PSD_TOL:
        raise ValueError(f"{kind} witness must not be PSD (min eigenvalue >= -1e-12)")
    return w / norm(np.abs(eigs))


# ---------------------------------------------------------------------------
# Witness families
# ---------------------------------------------------------------------------

class WitnessSpec:
    """What the families share.  Each family is a frozen dataclass deriving
    from this class (never from another family), the state pairs by way of
    ``_StatePair`` and the trace-norm witnesses by way of ``_TraceNorm``, and
    has ``derivative(times, maps)``: the un-oriented derivative of its
    functional at the interior nodes times[1:-1], from the stencil of
    :func:`derivative_series` applied to the functional, or to the evolved
    spectrum for the norm families."""

    orientation = 1.0  # -1 for functionals that CP-divisible evolution cannot lower
    _doubled = False  # the first field is an operator on H ⊗ H

    @property
    def system_dim(self) -> int:
        n = getattr(self, fields(self)[0].name).shape[0]
        return isqrt(n) if self._doubled else n

    def invariant(self) -> dict | None:
        """``{"state": σ}`` or ``{"observable": X}`` the trajectory must leave
        fixed, as keyword arguments of :func:`verify_invariance`; or None."""
        return None

    def flow(self, stencil: Stencil, maps: np.ndarray) -> np.ndarray:
        """The un-oriented flow at the support nodes of ``stencil``: the
        ``derivative`` of each of its runs, differenced alone."""
        flow = np.zeros(stencil.times.size - 2)
        for first, last in stencil.runs:
            flow[first:last - 1] = self.derivative(stencil.times[first:last + 1],
                                                   maps[first:last + 1])
        return flow[stencil.support]


class _TraceNorm(WitnessSpec):
    """A trace-norm witness: the functional is the trace norm of the evolved
    operator of the first field, whose flow one ``TraceNormKernel`` gives."""

    def flow(self, stencil: Stencil, maps: np.ndarray) -> np.ndarray:
        kernel = TraceNormKernel(stencil, maps)
        return kernel.flow(kernel.evolve(getattr(self, fields(self)[0].name)))

    def derivative(self, times: np.ndarray, maps: np.ndarray):
        return self.flow(Stencil(times), maps)


@dataclass(frozen=True)
class ExtendedTraceNormWitness(_TraceNorm):
    """Hermitian, non-PSD operator on H ⊗ H, stored with unit trace norm."""

    witness: np.ndarray
    _doubled = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "witness", _non_psd_witness(self.witness, "extended", np.sum))


@dataclass(frozen=True)
class PlainTraceNormWitness(_TraceNorm):
    """Hermitian operator on H, stored with unit trace norm."""

    operator: np.ndarray

    def __post_init__(self) -> None:
        x = ops.check_hermitian(self.operator, "operator")
        norm = ops.trace_norm(x)
        if norm == 0.0:
            raise ValueError("operator must not be zero")
        object.__setattr__(self, "operator", x / norm)


@dataclass(frozen=True)
class InformationFlowPair(WitnessSpec):
    """State pair for the distinguishability (information-flow) criterion."""

    rho1: np.ndarray
    rho2: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho1", ops.check_density_matrix(self.rho1, "rho1"))
        object.__setattr__(self, "rho2", ops.check_density_matrix(self.rho2, "rho2"))

    def derivative(self, times: np.ndarray, maps: np.ndarray):
        kernel = TraceNormKernel(Stencil(times), maps)
        return 0.5 * kernel.flow(kernel.evolve(self.rho1 - self.rho2))


@dataclass(frozen=True)
class _StatePair(WitnessSpec):
    """``functional`` of the evolved pair (ρ_t, σ_t), which each family defines;
    evaluated on (ρ, σ) at construction, so a parameter out of range raises there."""

    rho: np.ndarray
    sigma: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho", ops.check_density_matrix(self.rho, "rho"))
        object.__setattr__(self, "sigma", ops.check_density_matrix(self.sigma, "sigma"))
        self.functional(self.rho, self.sigma)

    def derivative(self, times: np.ndarray, maps: np.ndarray):
        rho_t, sigma_t = (ops.hermitian_part(apply_superop(maps, state))
                          for state in (self.rho, self.sigma))
        return derivative_series(times, self.functional(rho_t, sigma_t))


@dataclass(frozen=True)
class RelativeEntropyPair(_StatePair):
    def functional(self, rho, sigma):
        return ops.relative_entropy(rho, sigma)


@dataclass(frozen=True)
class RenyiPair(_StatePair):
    alpha: float = 0.5

    def functional(self, rho, sigma):
        return ops.renyi_relative_entropy(rho, sigma, self.alpha)


@dataclass(frozen=True)
class TsallisPair(_StatePair):
    q: float = 0.5

    def functional(self, rho, sigma):
        return ops.tsallis_relative_entropy(rho, sigma, self.q)


@dataclass(frozen=True)
class FidelityPair(_StatePair):
    orientation = -1.0

    def functional(self, rho, sigma):
        return ops.fidelity(rho, sigma)


@dataclass(frozen=True)
class InvariantOverlap(WitnessSpec):
    """Overlap of the evolved state with an invariant pure state."""

    rho: np.ndarray
    psi0: np.ndarray
    orientation = -1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho", ops.check_density_matrix(self.rho, "rho"))
        psi = np.asarray(self.psi0, dtype=complex).reshape(-1)
        norm = np.linalg.norm(psi)
        if not 0.0 < norm < np.inf:
            raise ValueError(f"psi0 must be a nonzero finite vector, got norm {norm}")
        object.__setattr__(self, "psi0", psi / norm)

    def derivative(self, times: np.ndarray, maps: np.ndarray):
        evolved = apply_superop(maps, self.rho)
        overlap = np.einsum("i,kij,j->k", self.psi0.conj(), evolved, self.psi0).real
        return derivative_series(times, overlap)

    def invariant(self) -> dict:
        return {"state": np.outer(self.psi0, self.psi0.conj())}


@dataclass(frozen=True)
class SchrodingerSkew(WitnessSpec):
    """Skew information of the evolved state with a conserved observable."""

    rho: np.ndarray
    observable: np.ndarray
    exponent: float = 0.5
    orientation = -1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho", ops.check_density_matrix(self.rho, "rho"))
        object.__setattr__(self, "observable", ops.check_hermitian(self.observable, "observable"))
        ops.skew_information(self.rho, self.observable, self.exponent)

    def derivative(self, times: np.ndarray, maps: np.ndarray):
        rho_t = ops.hermitian_part(apply_superop(maps, self.rho))
        skew = ops.skew_information(rho_t, self.observable, self.exponent)
        return derivative_series(times, skew)

    def invariant(self) -> dict:
        return {"observable": self.observable}


@dataclass(frozen=True)
class HeisenbergSkew(WitnessSpec):
    """Skew information of an invariant state with the dual-evolved observable."""

    sigma0: np.ndarray
    observable: np.ndarray
    exponent: float = 0.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma0", ops.check_density_matrix(self.sigma0, "sigma0"))
        object.__setattr__(self, "observable", ops.check_hermitian(self.observable, "observable"))
        ops.skew_information(self.sigma0, self.observable, self.exponent)

    def derivative(self, times: np.ndarray, maps: np.ndarray):
        obs_t = ops.hermitian_part(apply_superop(dual_superop(maps), self.observable))
        return derivative_series(times, ops.skew_information(self.sigma0, obs_t, self.exponent))

    def invariant(self) -> dict:
        return {"state": self.sigma0}


@dataclass(frozen=True)
class DualOperatorNormWitness(WitnessSpec):
    """Hermitian, non-PSD operator on H ⊗ H for the Heisenberg-picture
    operator-norm criterion; stored with unit operator norm."""

    witness: np.ndarray
    _doubled = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "witness", _non_psd_witness(self.witness, "dual", np.max))

    def derivative(self, times: np.ndarray, maps: np.ndarray):
        return _operator_norm_derivative(times, apply_superop(dual_superop(maps), self.witness))


# ---------------------------------------------------------------------------
# Flows, series, violation intervals
# ---------------------------------------------------------------------------

def verify_invariance(traj: Trajectory, state: np.ndarray | None = None,
                      observable: np.ndarray | None = None) -> tuple[bool, float]:
    """Check Λ_t σ0 = σ0 (or Λ*_t X0 = X0) across the grid; returns (ok, max dev)."""
    if (state is None) == (observable is None):
        raise ValueError("pass exactly one of state or observable")
    maps = traj.maps if state is not None else dual_superop(traj.maps)
    fixed = np.asarray(state if state is not None else observable, dtype=complex)
    dev = float(np.abs(apply_superop(maps, fixed) - fixed).max())
    return dev <= INVARIANCE_TOL, dev


def _runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Inclusive (first, last) index pairs of the maximal True runs of a 1-d mask."""
    padded = np.concatenate(([False], np.asarray(mask, dtype=bool), [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1]).reshape(-1, 2)
    return [(first, end - 1) for first, end in edges.tolist()]


def detect_violations(times: np.ndarray, values: np.ndarray):
    """Maximal runs of positive flow with hysteresis (enter above
    ``VIOLATION_ENTER``, leave once the flow drops to ``VIOLATION_EXIT`` or
    below).  A NaN neither enters nor leaves a run."""
    intervals: list[tuple[float, float, float]] = []
    mask = np.zeros(values.size, dtype=bool)
    for first, last in _runs(~(values <= VIOLATION_EXIT)):
        entered = np.flatnonzero(values[first:last + 1] > VIOLATION_ENTER)
        if entered.size:
            start = first + int(entered[0])
            mask[start:last + 1] = True
            peak = np.nanmax(values[start:last + 1])
            intervals.append((float(times[start]), float(times[last]), float(peak)))
    return intervals, mask


@dataclass
class WitnessSeries:
    """Oriented flow series with detected positive-violation intervals; the
    intervals are detected on first access, not by every search candidate."""

    spec: WitnessSpec
    times: np.ndarray
    values: np.ndarray

    @cached_property
    def _violations(self) -> tuple:
        return detect_violations(self.times, self.values)

    @property
    def violating(self) -> np.ndarray:
        return self._violations[1]

    @property
    def violation_intervals(self) -> list:
        return self._violations[0]

    @property
    def total_violation(self) -> float:
        """Integral of the positive part of the flow, by the trapezoid rule's
        node weights: for a trace-norm series on a search's ``Stencil``, the
        search's ``TraceNormKernel.value`` bit for bit."""
        return _positive_integral(_trapezoid_weights(self.times), self.values)


def series(traj: Trajectory, spec: WitnessSpec,
           stencil: Stencil | None = None) -> WitnessSeries:
    """Oriented flow of ``spec`` at the interior nodes times[1:-1] on the
    support of ``stencil``, a ``Stencil`` of the trajectory's grid (every
    interior node by default), and 0 off it: ``spec.flow`` on the stencil."""
    if spec.system_dim != traj.dim:
        raise ValueError(f"spec dimension {spec.system_dim} does not match trajectory "
                         f"dimension {traj.dim}")
    required = spec.invariant()
    if required is not None:
        ok, dev = verify_invariance(traj, **required)
        if not ok:
            (kind,) = required
            raise InvarianceError(f"witness requires an invariant {kind}; max deviation "
                                  f"{dev:.3e} exceeds {INVARIANCE_TOL}")
    stencil = Stencil(traj.times) if stencil is None else stencil
    if stencil.times is not traj.times and not np.array_equal(stencil.times, traj.times):
        raise ValueError("stencil is not on the trajectory's grid")
    values = np.zeros(traj.nodes - 2)
    values[stencil.support] = spec.orientation * spec.flow(stencil, traj.maps)
    return WitnessSeries(spec=spec, times=traj.times[1:-1], values=values)


# ---------------------------------------------------------------------------
# Spectral modes of commutative dynamics
# ---------------------------------------------------------------------------

@dataclass
class SpectralMode:
    """A time-independent eigenoperator with its eigenvalue series."""

    operator: np.ndarray
    eigenvalues: np.ndarray
    max_residual: float
    monotonicity_violations: list  # [(t_start, t_end)] where |mu| increases


@dataclass
class SpectralModesResult:
    modes: list
    commutative: bool
    unmatched: int  # eigenvector candidates that failed time-independence


def spectral_modes(traj: Trajectory) -> SpectralModesResult:
    """Diagonalize the map family by a random linear combination of nodes and
    verify the eigenoperators are time independent across the grid."""
    if traj.nodes < 3:
        raise ValueError("need at least three nodes to identify spectral modes")
    rng = np.random.default_rng(SPECTRAL_SEED)
    idx = np.unique(np.linspace(1, traj.nodes - 1, min(16, traj.nodes - 1)).astype(int))
    weights = rng.normal(size=idx.size) + 1j * rng.normal(size=idx.size)
    combo = np.einsum("k,kij->ij", weights, traj.maps[idx])
    _, vectors = np.linalg.eig(combo)

    modes: list[SpectralMode] = []
    unmatched = 0
    for col in range(vectors.shape[1]):
        v = vectors[:, col]
        v = v / np.linalg.norm(v)
        mv = traj.maps @ v
        mu = np.einsum("i,ki->k", v.conj(), mv)
        residual = float(np.abs(mv - mu[:, None] * v[None, :]).max())
        if residual > SPECTRAL_RESIDUAL_TOL:
            unmatched += 1
            continue
        mods = np.abs(mu)
        grows = np.diff(mods) > 1e-12 * np.maximum(mods[:-1], 1.0)
        violations = [(float(traj.times[a]), float(traj.times[b + 1])) for a, b in _runs(grows)]
        modes.append(SpectralMode(
            operator=v.reshape(traj.dim, traj.dim, order="F").copy(),
            eigenvalues=mu,
            max_residual=residual,
            monotonicity_violations=violations,
        ))
    modes.sort(key=lambda m: -float(np.mean(np.abs(m.eigenvalues))))
    return SpectralModesResult(modes=modes, commutative=unmatched == 0, unmatched=unmatched)

