"""Witness functionals along a trajectory and violation-interval detection.

Every witness is a time functional of the evolved maps whose derivative is
sign-normalized so that positive values signal a breakdown of divisibility:

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

Derivatives are estimated from the node values with a fourth-order central
stencil on uniform interiors, falling back to plain central secants near the
grid edges and to one-sided secants where the evolved spectrum approaches a
zero crossing (trace norms are only piecewise smooth there).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from . import operators as ops
from .dynamics import (
    Trajectory,
    apply_extended,
    apply_superop_batch,
    dual_superop,
)

VIOLATION_ENTER = 1e-9
VIOLATION_EXIT = 0.0
INVARIANCE_TOL = 1e-8
KINK_GAP_TOL = 1e-6
NON_PSD_TOL = 1e-12


class InvarianceError(RuntimeError):
    """Raised when a witness needs an invariant object the trajectory lacks."""


# ---------------------------------------------------------------------------
# Witness specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtendedTraceNormWitness:
    """Hermitian, non-PSD operator on H ⊗ H, stored with unit trace norm."""

    witness: np.ndarray

    def __post_init__(self) -> None:
        w = ops.check_hermitian(self.witness, "witness")
        eigs = np.linalg.eigvalsh(w)
        if eigs.min() >= -NON_PSD_TOL:
            raise ValueError("extended witness must not be PSD (min eigenvalue >= -1e-12)")
        object.__setattr__(self, "witness", w / np.abs(eigs).sum())

    @property
    def system_dim(self) -> int:
        return isqrt(self.witness.shape[0])


@dataclass(frozen=True)
class PlainTraceNormWitness:
    """Hermitian operator on H, stored with unit trace norm."""

    operator: np.ndarray

    def __post_init__(self) -> None:
        x = ops.check_hermitian(self.operator, "operator")
        object.__setattr__(self, "operator", x / ops.trace_norm(x))

    @property
    def system_dim(self) -> int:
        return self.operator.shape[0]


@dataclass(frozen=True)
class InformationFlowPair:
    """State pair for the distinguishability (information-flow) criterion."""

    rho1: np.ndarray
    rho2: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho1", ops.check_density_matrix(self.rho1, "rho1"))
        object.__setattr__(self, "rho2", ops.check_density_matrix(self.rho2, "rho2"))

    @property
    def system_dim(self) -> int:
        return self.rho1.shape[0]


@dataclass(frozen=True)
class _StatePair:
    rho: np.ndarray
    sigma: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho", ops.check_density_matrix(self.rho, "rho"))
        object.__setattr__(self, "sigma", ops.check_density_matrix(self.sigma, "sigma"))

    @property
    def system_dim(self) -> int:
        return self.rho.shape[0]


@dataclass(frozen=True)
class RelativeEntropyPair(_StatePair):
    pass


@dataclass(frozen=True)
class RenyiPair(_StatePair):
    alpha: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (0.0 <= self.alpha < 1.0 or 1.0 < self.alpha <= 2.0):
            raise ValueError(f"alpha must lie in [0,1) u (1,2], got {self.alpha}")


@dataclass(frozen=True)
class TsallisPair(_StatePair):
    q: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.q < 1.0:
            raise ValueError(f"q must lie in [0,1), got {self.q}")


@dataclass(frozen=True)
class FidelityPair(_StatePair):
    pass


@dataclass(frozen=True)
class InvariantOverlap:
    """Overlap of the evolved state with an invariant pure state."""

    rho: np.ndarray
    psi0: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho", ops.check_density_matrix(self.rho, "rho"))
        psi = np.asarray(self.psi0, dtype=complex).reshape(-1)
        object.__setattr__(self, "psi0", psi / np.linalg.norm(psi))

    @property
    def system_dim(self) -> int:
        return self.rho.shape[0]


@dataclass(frozen=True)
class SchrodingerSkew:
    """Skew information of the evolved state with a conserved observable."""

    rho: np.ndarray
    observable: np.ndarray
    exponent: float = 0.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho", ops.check_density_matrix(self.rho, "rho"))
        object.__setattr__(self, "observable", ops.check_hermitian(self.observable, "observable"))
        if not 0.0 < self.exponent < 1.0:
            raise ValueError(f"exponent must lie in (0,1), got {self.exponent}")

    @property
    def system_dim(self) -> int:
        return self.rho.shape[0]


@dataclass(frozen=True)
class HeisenbergSkew:
    """Skew information of an invariant state with the dual-evolved observable."""

    sigma0: np.ndarray
    observable: np.ndarray
    exponent: float = 0.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma0", ops.check_density_matrix(self.sigma0, "sigma0"))
        object.__setattr__(self, "observable", ops.check_hermitian(self.observable, "observable"))
        if not 0.0 < self.exponent < 1.0:
            raise ValueError(f"exponent must lie in (0,1), got {self.exponent}")

    @property
    def system_dim(self) -> int:
        return self.sigma0.shape[0]


@dataclass(frozen=True)
class DualOperatorNormWitness:
    """Hermitian, non-PSD operator on H ⊗ H for the Heisenberg-picture
    operator-norm criterion; stored with unit operator norm."""

    witness: np.ndarray

    def __post_init__(self) -> None:
        w = ops.check_hermitian(self.witness, "witness")
        eigs = np.linalg.eigvalsh(w)
        if eigs.min() >= -NON_PSD_TOL:
            raise ValueError("dual witness must not be PSD (min eigenvalue >= -1e-12)")
        object.__setattr__(self, "witness", w / np.abs(eigs).max())

    @property
    def system_dim(self) -> int:
        return isqrt(self.witness.shape[0])


WitnessSpec = (
    ExtendedTraceNormWitness
    | PlainTraceNormWitness
    | InformationFlowPair
    | RelativeEntropyPair
    | RenyiPair
    | TsallisPair
    | FidelityPair
    | InvariantOverlap
    | SchrodingerSkew
    | HeisenbergSkew
    | DualOperatorNormWitness
)

# Sign convention: +1 when the Markovian constraint bounds the derivative above
# zero (monotone decreasing functionals), -1 for monotone increasing ones.
_ORIENTATION = {
    ExtendedTraceNormWitness: 1.0,
    PlainTraceNormWitness: 1.0,
    InformationFlowPair: 1.0,
    RelativeEntropyPair: 1.0,
    RenyiPair: 1.0,
    TsallisPair: 1.0,
    FidelityPair: -1.0,
    InvariantOverlap: -1.0,
    SchrodingerSkew: -1.0,
    HeisenbergSkew: 1.0,
    DualOperatorNormWitness: 1.0,
}


def orientation(spec: WitnessSpec) -> float:
    return _ORIENTATION[type(spec)]


def _check_dims(traj: Trajectory, spec: WitnessSpec) -> None:
    if spec.system_dim != traj.dim:
        raise ValueError(
            f"spec dimension {spec.system_dim} does not match trajectory dimension {traj.dim}"
        )


# ---------------------------------------------------------------------------
# Functional evaluation
# ---------------------------------------------------------------------------

def _window_changes(series: np.ndarray) -> np.ndarray:
    """Nodes where a discrete label changes against either neighbor."""
    kinks = np.zeros(series.size, dtype=bool)
    if series.size > 1:
        step = series[1:] != series[:-1]
        kinks[:-1] |= step
        kinks[1:] |= step
    return kinks


def _trace_norm_values(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    eigs = np.linalg.eigvalsh(ops.hermitian_part(stack))
    values = np.abs(eigs).sum(axis=1)
    # the trace norm kinks exactly where an eigenvalue crosses zero, i.e. the
    # count of (dead-banded) negative eigenvalues changes; persistent zero
    # eigenvalues do not kink and must not trip the detector
    scale = np.maximum(np.abs(eigs).max(axis=1), 1.0)
    neg_count = (eigs < -KINK_GAP_TOL * scale[:, None]).sum(axis=1)
    return values, _window_changes(neg_count)


def _operator_norm_values(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    eigs = np.linalg.eigvalsh(ops.hermitian_part(stack))
    values = np.abs(eigs).max(axis=1)
    # the operator norm kinks where the leading branch flips between the
    # largest and the most negative eigenvalue; exact persistent ties are smooth
    lead = eigs[:, -1] + eigs[:, 0]  # >0: top eigenvalue leads, <0: bottom
    scale = np.maximum(values, 1.0)
    label = np.where(np.abs(lead) <= KINK_GAP_TOL * scale, 0, np.sign(lead)).astype(int)
    changed = _window_changes(label)
    tie = label == 0
    if tie.size > 2:
        # ties surrounded by ties belong to a smooth degenerate stretch
        interior_tie = np.zeros_like(tie)
        interior_tie[1:-1] = tie[1:-1] & tie[:-2] & tie[2:]
        changed &= ~interior_tie
    return values, changed


def _functional_on_maps(maps: np.ndarray, spec: WitnessSpec):
    """Underlying functional for a stack of maps, plus a kink-suspicion mask."""
    duals = dual_superop(maps)
    none = np.zeros(maps.shape[0], dtype=bool)
    if isinstance(spec, ExtendedTraceNormWitness):
        return _trace_norm_values(apply_extended(maps, spec.witness))
    if isinstance(spec, PlainTraceNormWitness):
        return _trace_norm_values(apply_superop_batch(maps, spec.operator))
    if isinstance(spec, InformationFlowPair):
        values, kinks = _trace_norm_values(apply_superop_batch(maps, spec.rho1 - spec.rho2))
        return 0.5 * values, kinks
    if isinstance(spec, DualOperatorNormWitness):
        return _operator_norm_values(apply_extended(duals, spec.witness))
    if isinstance(spec, InvariantOverlap):
        evolved = apply_superop_batch(maps, spec.rho)
        values = np.einsum("i,kij,j->k", spec.psi0.conj(), evolved, spec.psi0).real
        return values, none
    if isinstance(spec, (RelativeEntropyPair, RenyiPair, TsallisPair, FidelityPair)):
        rho_t = ops.hermitian_part(apply_superop_batch(maps, spec.rho))
        sigma_t = ops.hermitian_part(apply_superop_batch(maps, spec.sigma))
        if isinstance(spec, RelativeEntropyPair):
            return ops.relative_entropy(rho_t, sigma_t), none
        if isinstance(spec, RenyiPair):
            return ops.renyi_relative_entropy(rho_t, sigma_t, spec.alpha), none
        if isinstance(spec, TsallisPair):
            return ops.tsallis_relative_entropy(rho_t, sigma_t, spec.q), none
        return ops.fidelity(rho_t, sigma_t), none
    if isinstance(spec, SchrodingerSkew):
        rho_t = ops.hermitian_part(apply_superop_batch(maps, spec.rho))
        return ops.skew_information(rho_t, spec.observable, spec.exponent), none
    if isinstance(spec, HeisenbergSkew):
        obs_t = ops.hermitian_part(apply_superop_batch(duals, spec.observable))
        return ops.skew_information(spec.sigma0, obs_t, spec.exponent), none
    raise TypeError(f"unknown witness spec {type(spec).__name__}")


def functional_series(traj: Trajectory, spec: WitnessSpec):
    """Underlying functional at every grid node, plus a kink-suspicion mask."""
    _check_dims(traj, spec)
    return _functional_on_maps(traj.maps, spec)


def _functional_at(traj: Trajectory, spec: WitnessSpec, t: float) -> float:
    """Single off-grid functional evaluation through map interpolation."""
    values, _ = _functional_on_maps(traj.map_at(t)[None, :, :], spec)
    return float(values[0])


# ---------------------------------------------------------------------------
# Derivative estimation
# ---------------------------------------------------------------------------

def derivative_series(times: np.ndarray, values: np.ndarray,
                      kinks: np.ndarray | None = None) -> np.ndarray:
    """Derivative estimates at the interior nodes times[1:-1].

    Uses the fourth-order five-point stencil where a uniform window is
    available, the plain central secant next to the boundaries or next to a
    suspected kink, and one-sided secants (the larger-magnitude side) at
    kink nodes themselves.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    n = times.size
    if n < 3:
        raise ValueError("need at least three nodes for interior derivatives")
    steps = np.diff(times)
    h = float(steps[0])
    uniform = bool(np.allclose(steps, h, rtol=1e-8, atol=1e-14))

    out = (values[2:] - values[:-2]) / (times[2:] - times[:-2])
    if uniform and n >= 5:
        five = (-values[4:] + 8.0 * values[3:-1] - 8.0 * values[1:-3] + values[:-4]) / (12.0 * h)
        inner = np.ones(n - 2, dtype=bool)
        inner[0] = inner[-1] = False
        if kinks is not None and kinks.any():
            # a kink anywhere inside the 5-point window invalidates the stencil
            reach = np.convolve(kinks.astype(int), np.ones(5, dtype=int), mode="same") > 0
            inner &= ~reach[1:-1]
        out[inner] = five[np.flatnonzero(inner) - 1]
    if kinks is not None:
        for k in np.flatnonzero(kinks[1:-1]) + 1:
            left = (values[k] - values[k - 1]) / (times[k] - times[k - 1])
            right = (values[k + 1] - values[k]) / (times[k + 1] - times[k])
            out[k - 1] = left if abs(left) >= abs(right) else right
    return out


# ---------------------------------------------------------------------------
# Flows, series, violation intervals
# ---------------------------------------------------------------------------

def verify_invariance(traj: Trajectory, state: np.ndarray | None = None,
                      observable: np.ndarray | None = None,
                      tol: float = INVARIANCE_TOL) -> tuple[bool, float]:
    """Check Λ_t σ0 = σ0 (or Λ*_t X0 = X0) across the grid; returns (ok, max dev)."""
    if (state is None) == (observable is None):
        raise ValueError("pass exactly one of state or observable")
    if state is not None:
        evolved = apply_superop_batch(traj.maps, np.asarray(state, dtype=complex))
        dev = float(np.abs(evolved - np.asarray(state)).max())
    else:
        evolved = apply_superop_batch(dual_superop(traj.maps), np.asarray(observable, dtype=complex))
        dev = float(np.abs(evolved - np.asarray(observable)).max())
    return dev <= tol, dev


def _ensure_invariance(traj: Trajectory, spec: WitnessSpec) -> None:
    """Raise InvarianceError unless the invariant state or observable the spec
    relies on is invariant along the trajectory."""
    if isinstance(spec, InvariantOverlap):
        required = {"state": np.outer(spec.psi0, spec.psi0.conj())}
    elif isinstance(spec, HeisenbergSkew):
        required = {"state": spec.sigma0}
    elif isinstance(spec, SchrodingerSkew):
        required = {"observable": spec.observable}
    else:
        return
    ok, dev = verify_invariance(traj, **required)
    if not ok:
        (kind,) = required
        raise InvarianceError(f"witness requires an invariant {kind}; max deviation "
                              f"{dev:.3e} exceeds {INVARIANCE_TOL}")


def flow_series(traj: Trajectory, spec: WitnessSpec) -> tuple[np.ndarray, np.ndarray]:
    """Oriented witness flow at the interior nodes (times, values)."""
    _ensure_invariance(traj, spec)
    values, kinks = functional_series(traj, spec)
    deriv = derivative_series(traj.times, values, kinks)
    return traj.times[1:-1], orientation(spec) * deriv


def flow(traj: Trajectory, spec: WitnessSpec, t: float) -> float:
    """Witness flow at a single interior time."""
    if not traj.times[0] < t < traj.times[-1]:
        raise ValueError(f"t={t} is not interior to the grid")
    k = traj.node_index(t)
    if k is not None and 1 <= k <= traj.nodes - 2:
        times, vals = flow_series(traj, spec)
        return float(vals[k - 1])
    _ensure_invariance(traj, spec)
    h = traj.spacing or float(np.diff(traj.times).min())
    h = min(h, t - traj.times[0], traj.times[-1] - t)
    f_plus = _functional_at(traj, spec, t + h)
    f_minus = _functional_at(traj, spec, t - h)
    return float(orientation(spec) * (f_plus - f_minus) / (2.0 * h))


def _runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Inclusive (first, last) index pairs of the maximal True runs of a 1-d mask."""
    edges = np.diff(np.asarray(mask, dtype=np.int8), prepend=0, append=0)
    return list(zip(np.flatnonzero(edges == 1).tolist(),
                    (np.flatnonzero(edges == -1) - 1).tolist()))


def detect_violations(times: np.ndarray, values: np.ndarray,
                      enter: float = VIOLATION_ENTER,
                      exit_level: float = VIOLATION_EXIT):
    """Maximal runs of positive flow with hysteresis (enter above ``enter``,
    leave once the flow drops to ``exit_level`` or below; ``enter`` must not
    lie below ``exit_level``).  A NaN neither enters nor leaves a run."""
    intervals: list[tuple[float, float, float]] = []
    mask = np.zeros(values.size, dtype=bool)
    for first, last in _runs(~(values <= exit_level)):
        entered = np.flatnonzero(values[first:last + 1] > enter)
        if entered.size:
            start = first + int(entered[0])
            mask[start:last + 1] = True
            peak = np.nanmax(values[start:last + 1])
            intervals.append((float(times[start]), float(times[last]), float(peak)))
    return intervals, mask


@dataclass
class WitnessSeries:
    """Oriented flow series with detected positive-violation intervals."""

    spec: WitnessSpec
    times: np.ndarray
    values: np.ndarray
    violating: np.ndarray = field(default=None)
    violation_intervals: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.violating is None:
            self.violation_intervals, self.violating = detect_violations(self.times, self.values)

    @property
    def total_violation(self) -> float:
        """Integral of the positive part of the flow (trapezoidal)."""
        return float(np.trapezoid(np.clip(self.values, 0.0, None), self.times))


def series(traj: Trajectory, spec: WitnessSpec) -> WitnessSeries:
    """Evaluate the flow at every interior node and detect violations."""
    times, values = flow_series(traj, spec)
    return WitnessSeries(spec=spec, times=times, values=values)


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


def spectral_modes(traj: Trajectory, residual_tol: float = 1e-6,
                   seed: int = 1234) -> SpectralModesResult:
    """Diagonalize the map family by a random linear combination of nodes and
    verify the eigenoperators are time independent across the grid."""
    if traj.nodes < 3:
        raise ValueError("need at least three nodes to identify spectral modes")
    rng = np.random.default_rng(seed)
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
        if residual > residual_tol:
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


# ---------------------------------------------------------------------------
# Qubit entropy flow
# ---------------------------------------------------------------------------

def qubit_entropy_flow(traj: Trajectory, rho: np.ndarray,
                       cross_check_tol: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """Entropy production rate dS/dt of an evolved qubit state.

    Uses the closed form dS/dt = -(d lambda_+/dt) log(lambda_+/lambda_-) with
    the eigenvalue pair from direct diagonalization of the evolved state, and
    cross-checks it against the generic relative-entropy flow toward the
    maximally mixed state: the values must satisfy the log-2-offset identity
    S(rho_t || I/2) = log 2 - S(rho_t), the flows must be sign-opposite, and
    their magnitudes must agree to ``cross_check_tol`` wherever the state is
    mixed enough (smaller eigenvalue above 0.05) for finite differences of the
    entropy itself to be reliable.  Near purity only the closed form keeps its
    accuracy, which is the reason it exists.
    """
    if traj.dim != 2:
        raise ValueError("qubit entropy flow requires a two-level trajectory")
    rho = ops.check_density_matrix(rho, "rho")
    evolved = ops.hermitian_part(apply_superop_batch(traj.maps, rho))
    eigs = np.linalg.eigvalsh(evolved)
    lam_minus = np.clip(eigs[:, 0], 0.0, None)
    lam_plus = np.clip(eigs[:, 1], 0.0, None)

    lam_dot = derivative_series(traj.times, lam_plus)
    gap = (lam_plus - lam_minus)[1:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log(lam_plus[1:-1] / np.where(lam_minus[1:-1] > 0, lam_minus[1:-1], np.nan))
    flow_values = np.where(gap < 1e-12, 0.0, -lam_dot * log_ratio)
    flow_values = np.nan_to_num(flow_values, nan=0.0, posinf=0.0, neginf=0.0)

    relent = ops.relative_entropy(evolved, 0.5 * np.eye(2))
    entropy = ops.von_neumann_entropy(evolved)
    offset_identity = float(np.abs(relent - (np.log(2.0) - entropy)).max())
    if offset_identity > cross_check_tol:
        raise RuntimeError(
            f"entropy-flow cross-check failed: S(rho||I/2) and log 2 - S(rho) "
            f"disagree by {offset_identity:.3e}"
        )
    generic = derivative_series(traj.times, relent)
    significant = (np.abs(flow_values) > 1e-8) & (np.abs(generic) > 1e-8)
    if np.any(np.sign(flow_values[significant]) != -np.sign(generic[significant])):
        raise RuntimeError("entropy-flow cross-check failed: sign mismatch against "
                           "the relative-entropy flow")
    trustworthy = lam_minus[1:-1] >= 0.05
    # the first and last interior nodes only get O(h^2) secants; the 1e-6
    # magnitude comparison needs the fourth-order stencil
    trustworthy[0] = trustworthy[-1] = False
    if trustworthy.any():
        mismatch = float(np.abs(flow_values[trustworthy] + generic[trustworthy]).max())
        if mismatch > cross_check_tol:
            raise RuntimeError(
                f"entropy-flow cross-check failed: closed form and relative-entropy "
                f"flow disagree by {mismatch:.3e} on mixed-state nodes"
            )
    return traj.times[1:-1], flow_values
