"""Scalar non-Markovianity measures and the step-divisibility verdict.

The verdict inspects the Choi matrix of every consecutive-step propagator
V_{t_{k+1}, t_k}; a negative eigenvalue below tolerance marks the step as a
divisibility violation, and steps whose map cannot be inverted reliably are
reported as excluded rather than judged.

Three measures are computed over a finite, user-configured horizon:

* the RHP measure, the integral of the divisibility rate, in closed form
  twice the summed magnitude of the negative eigenvalues of Q (id ⊗ L_t)(P) Q;
* the trace-norm witness measure, a lower bound on the supremum over unit
  trace-norm Hermitian witnesses of the integrated positive flow;
* the state-distinguishability (BLP) measure, the same supremum over pairs of
  states.

The last two share one hill climber, ``_search``, over one kind of point: a
Hermitian operator of unit trace norm, fed to a trace-norm witness family.
The witness search ranges over operators on H ⊗ H
(``ExtendedTraceNormWitness``).  Its seeds are the certified candidates
(id ⊗ Λ_{t_k})⁻¹P₊ of violating steps k, whose flow is positive right after
t_k, then the tensor-product basis candidates, then random witnesses.  The
BLP search ranges over traceless operators X on H (``PlainTraceNormWitness``)
and starts from the generalized Gell-Mann basis, then random traceless
operators.  That loses nothing: the BLP flow of a pair (ρ1, ρ2) is
½‖ρ1 − ρ2‖₁ ≤ 1 times the trace-norm flow of X = (ρ1 − ρ2)/‖ρ1 − ρ2‖₁, a
traceless operator of unit trace norm, and conversely the pair (2X⁺, 2X⁻) of
the positive and negative parts of such an X has ρ1 − ρ2 = 2X, so its BLP
flow is exactly the flow of X.

Seeds are taken in order in one pass: each is valued once and, if its value
is positive, climbed at once.  A move follows ``_trace_norm_gradient`` of the
evolved operator in the tangent space of the search space: the exact gradient
of the value with the eigenvalue signs read at every node of the derivative
stencil.  Unlike the gradient of the value itself, it sees the zero crossing
of an evolved eigenvalue move between nodes.  A climb ends where that ascent
vanishes or its step falls below ``MIN_STEP``.  A move is kept only if its
``series`` strictly raises the value, so values never decrease, and the
random numbers drawn for the fill-up seeds are the only ones in the search.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import operators as ops
from .dynamics import (
    GeneratorModel,
    Trajectory,
    apply_superop,
    choi_matrix,
    generator_superoperator,
    propagators,
)
from .witnesses import (
    ExtendedTraceNormWitness,
    PlainTraceNormWitness,
    WitnessSeries,
    _runs,
    _trace_norm_gradient,
    series,
)

DIVISIBILITY_TOL = 1e-8
INITIAL_STEP = 0.5
MIN_STEP = 1e-6
MAX_STEP = 2.0


@dataclass(frozen=True)
class SearchConfig:
    """Budget of the measure searches: ``seeds`` starting points, each climbed
    for at most ``iterations`` moves; ``rng_seed`` seeds the random draws
    that fill the seeds up after the directed ones, and nothing else."""

    seeds: int = 64
    iterations: int = 200
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.seeds < 1 or self.iterations < 0 or self.rng_seed < 0:
            raise ValueError("seeds must be >= 1, iterations >= 0 and rng_seed >= 0, got "
                             f"{self.seeds}, {self.iterations} and {self.rng_seed}")


@dataclass
class Verdict:
    """Step-divisibility verdict with violating and excluded intervals."""

    markovian: bool
    violation_intervals: list  # [(t_start, t_end, min Choi eigenvalue)]
    excluded_intervals: list   # [(t_start, t_end)] propagator singular
    tolerance: float


@dataclass
class StepChoiData:
    """Minimum Choi eigenvalue of each consecutive-step propagator."""

    start_times: np.ndarray
    end_times: np.ndarray
    min_eigenvalues: np.ndarray     # nan where excluded
    excluded: np.ndarray            # bool mask
    worst_vector: np.ndarray | None  # eigenvector of the most negative eigenvalue
    worst_value: float


@dataclass
class WitnessMeasureResult:
    value: float
    witness: np.ndarray | None
    series: WitnessSeries | None


@dataclass
class BlpMeasureResult:
    value: float
    pair: tuple | None
    series: WitnessSeries | None


# ---------------------------------------------------------------------------
# Divisibility
# ---------------------------------------------------------------------------

def step_choi_data(traj: Trajectory) -> StepChoiData:
    """Choi spectra of V_{t_{k+1}, t_k} = Λ_{k+1} Λ_k^{-1} for every grid step;
    a step whose Λ_k has condition number beyond ``CONDITION_LIMIT`` is excluded."""
    props, excluded, _ = propagators(traj.maps[1:], traj.maps[:-1])
    w, v = np.linalg.eigh(ops.hermitian_part(choi_matrix(props)))
    min_eigs = np.full(excluded.size, np.nan)
    min_eigs[~excluded] = w[:, 0]
    worst = int(np.argmin(w[:, 0])) if len(w) else None
    return StepChoiData(
        start_times=traj.times[:-1],
        end_times=traj.times[1:],
        min_eigenvalues=min_eigs,
        excluded=excluded,
        worst_vector=None if worst is None else v[worst, :, 0].copy(),
        worst_value=np.nan if worst is None else float(w[worst, 0]),
    )


def _violating_runs(data: StepChoiData, tol: float) -> list:
    """(first, last) step of each run of violating steps: not excluded, with a
    minimum Choi eigenvalue below -``tol``."""
    return _runs(~data.excluded & (data.min_eigenvalues < -tol))


def divisibility_verdict(traj: Trajectory, tol: float = DIVISIBILITY_TOL,
                         steps: StepChoiData | None = None) -> Verdict:
    """Markovian iff every step propagator is CP (no violations, no exclusions)."""
    if traj.nodes < 2:
        raise ValueError("need at least two nodes for a divisibility verdict")
    data = steps if steps is not None else step_choi_data(traj)
    violations = [
        (float(data.start_times[a]), float(data.end_times[b]),
         float(np.nanmin(data.min_eigenvalues[a:b + 1])))
        for a, b in _violating_runs(data, tol)
    ]
    excluded = [
        (float(data.start_times[a]), float(data.end_times[b]))
        for a, b in _runs(data.excluded)
    ]
    return Verdict(
        markovian=not violations and not excluded,
        violation_intervals=violations,
        excluded_intervals=excluded,
        tolerance=tol,
    )


# ---------------------------------------------------------------------------
# RHP measure
# ---------------------------------------------------------------------------

def rhp_rate(model: GeneratorModel, t: float | np.ndarray) -> float | np.ndarray:
    """RHP rate lim_{e->0+} (||(id + e L_t ⊗ id) P||_1 - 1) / e in closed form,
    2 Σ |negative eigenvalues of Q Δ Q| with Δ = (id ⊗ L_t) P, P the maximally
    entangled projector and Q = 1 - P (PRL 105, 050403; PRA 89, 042120).

    ``t`` is one time (gives a float) or an array of times (an array).
    Eigenvalues above -``ops.ZERO_EIG_TOL`` times the spectral scale count as
    zero, so a GKSL generator with non-negative rates gives exactly 0.
    """
    times = np.asarray(t, dtype=float)
    gens = generator_superoperator(model, times.reshape(-1))
    projector = ops.max_entangled_projector(model.dim)
    complement = np.eye(projector.shape[0]) - projector
    delta = apply_superop(gens, projector)
    w = ops.eigvalsh(complement @ delta @ complement)
    scale = np.abs(w).max(axis=-1, keepdims=True, initial=1.0)
    rates = 2.0 * np.where(w < -ops.ZERO_EIG_TOL * scale, -w, 0.0).sum(axis=-1)
    return float(rates[0]) if times.ndim == 0 else rates.reshape(times.shape)


def rhp_measure(model: GeneratorModel, times: np.ndarray) -> float:
    """Trapezoidal integral of the RHP rate over the grid."""
    times = np.asarray(times, dtype=float)
    return float(np.trapezoid(rhp_rate(model, times), times))


# ---------------------------------------------------------------------------
# Witness- and BLP-measure search
# ---------------------------------------------------------------------------

def gell_mann_basis(d: int) -> list:
    """Generalized Gell-Mann matrices (traceless Hermitian basis of su(d))."""
    mats = []
    for i in range(d):
        for j in range(i + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[i, j] = sym[j, i] = 1.0
            mats.append(sym)
            anti = np.zeros((d, d), dtype=complex)
            anti[i, j] = -1j
            anti[j, i] = 1j
            mats.append(anti)
    for l in range(1, d):
        diag = np.zeros((d, d), dtype=complex)
        for k in range(l):
            diag[k, k] = 1.0
        diag[l, l] = -l
        mats.append(diag * np.sqrt(2.0 / (l * (l + 1))))
    return mats


def _product_candidates(d: int) -> list:
    """Tensor products ½ a ⊗ b of single-system basis elements, the identity
    first and then the Gell-Mann basis, skipping the PSD identity ⊗ identity
    direction."""
    basis = [np.eye(d, dtype=complex)] + gell_mann_basis(d)
    return [0.5 * np.kron(a, b) for a in basis for b in basis][1:]


def _certified_candidates(traj: Trajectory, data: StepChoiData,
                          tol: float = DIVISIBILITY_TOL) -> list:
    """W_k = (id ⊗ Λ_{t_k})⁻¹P₊ for the first and the worst step k of each run
    of violating steps (``_violating_runs``), in time order.

    (id ⊗ Λ_{t_k})W_k = P₊ has trace norm 1 and (id ⊗ Λ_{t_{k+1}})W_k =
    (id ⊗ V_k)P₊ has trace norm ‖Choi(V_k)‖₁/d > 1 where V_k is not CP, so the
    flow of W_k is positive right after t_k (Chruściński, Kossakowski and
    Rivas, PRA 83, 052128 (2011)).  A violating step is never excluded, so
    Λ_{t_k} is well conditioned."""
    steps = []
    for first, last in _violating_runs(data, tol):
        worst = first + int(np.argmin(data.min_eigenvalues[first:last + 1]))
        steps += [first] if worst == first else [first, worst]
    return [ops.hermitian_part(apply_superop(np.linalg.inv(traj.maps[k]),
                                             ops.max_entangled_projector(traj.dim)))
            for k in steps]


def _traceless(x: np.ndarray) -> np.ndarray:
    """Hermitian part of ``x`` with its trace removed: the projection onto the
    BLP search space."""
    x = ops.hermitian_part(x)
    return x - (np.trace(x).real / len(x)) * np.eye(len(x))


def _pair(x: np.ndarray) -> tuple:
    """(2X⁺, 2X⁻) of a traceless Hermitian X of unit trace norm, from one ``eigh``."""
    w, v = np.linalg.eigh(x)
    return tuple(2.0 * (v * np.clip(sign * w, 0.0, None)) @ v.conj().T for sign in (1, -1))


def _point(spec_cls, x):
    """``(operator, spec)`` of ``spec_cls(x)``, the operator as the spec holds
    it (unit trace norm); None where the spec rejects ``x``, such as a PSD
    witness, which carries no witness information."""
    try:
        spec = spec_cls(x)
    except ValueError:
        return None
    return getattr(spec, fields(spec)[0].name), spec


def _ascent(traj, point, project):
    """``_trace_norm_gradient`` at ``point``, projected, less its part along
    the projected normal sign(point) of the unit trace-norm sphere; scaled to
    unit trace norm, or None where it vanishes."""
    grad = project(_trace_norm_gradient(traj.times, traj.maps, apply_superop(traj.maps, point)))
    w, v = np.linalg.eigh(point)
    normal = project((v * np.sign(w)) @ v.conj().T)
    grad = grad - np.vdot(normal, grad).real / np.vdot(normal, normal).real * normal
    norm = ops.trace_norm(grad)
    return grad / norm if norm > 0.0 else None


def _climb(traj, spec_cls, project, start, iterations):
    """Best (operator, series, value) of a climb from the triple ``start``,
    whose value is positive.  Each move is a step along ``_ascent``; the step
    doubles after a kept move and halves otherwise.  The climb ends where the
    ascent vanishes or once the step falls below ``MIN_STEP``."""
    point, ws, value = start
    ascent = None
    step = INITIAL_STEP
    for _ in range(iterations):
        if ascent is None:
            ascent = _ascent(traj, point, project)
        if ascent is None or step < MIN_STEP:
            break
        moved = _point(spec_cls, point + step * ascent)
        if moved is not None:
            cand = series(traj, moved[1])
            if cand.total_violation > value:
                point, ws, value = moved[0], cand, cand.total_violation
                ascent = None
                step = min(2.0 * step, MAX_STEP)
                continue
        step /= 2.0
    return point, ws, value


def _search(traj, directed, spec_cls, project, search):
    """Best (operator, series, value) of a hill climb from every positive seed.

    ``spec_cls`` is a trace-norm witness family that stores its Hermitian
    operator with unit trace norm; ``project`` projects onto the search space
    (Hermitian or traceless operators).  The seeds are the ``directed``
    operators, filled up with projected Gaussian draws from
    ``np.random.default_rng(search.rng_seed)`` and cut to ``search.seeds``; a
    seed or move that ``spec_cls`` rejects is skipped.  In one pass, each
    seed is valued once and climbed at once for at most ``search.iterations``
    moves if its value is positive.  A seed of value 0 is not climbed: no
    direction is known to raise it.  Returns ``(None, None, 0.0)`` when no
    positive value is found.
    """
    seeds = list(directed)
    rng = np.random.default_rng(search.rng_seed)
    size = traj.dim ** 2 if spec_cls._doubled else traj.dim
    while len(seeds) < search.seeds:
        seeds.append(project(ops.random_hermitian(size, rng)))
    best = (None, None, 0.0)
    for point, spec in filter(None, (_point(spec_cls, x) for x in seeds[:search.seeds])):
        ws = series(traj, spec)
        if ws.total_violation > 0.0:
            climbed = _climb(traj, spec_cls, project, (point, ws, ws.total_violation),
                             search.iterations)
            if climbed[2] > best[2]:
                best = climbed
    return best


def witness_measure(traj: Trajectory, search: SearchConfig = SearchConfig(),
                    steps: StepChoiData | None = None,
                    tol: float = DIVISIBILITY_TOL) -> WitnessMeasureResult:
    """Lower bound on the optimal-witness measure with the witness that attains it.

    The seeds are, in this order, the certified candidates of the steps that
    violate divisibility at tolerance ``tol`` (the verdict's), the product
    candidates, then random witnesses, cut to ``search.seeds``."""
    data = steps if steps is not None else step_choi_data(traj)
    directed = _certified_candidates(traj, data, tol) + _product_candidates(traj.dim)
    witness, ws, value = _search(traj, directed, ExtendedTraceNormWitness,
                                 ops.hermitian_part, search)
    return WitnessMeasureResult(value=float(value), witness=witness, series=ws)


def blp_measure(traj: Trajectory, search: SearchConfig = SearchConfig()) -> BlpMeasureResult:
    """Lower bound on the state-distinguishability measure with the best pair.

    Searches traceless Hermitian X of unit trace norm for the largest positive
    trace-norm flow; the pair is (2X⁺, 2X⁻), the doubled positive and negative
    parts of the best X, whose BLP flow is the flow of X (module docstring).
    """
    x, ws, value = _search(traj, gell_mann_basis(traj.dim), PlainTraceNormWitness,
                           _traceless, search)
    return BlpMeasureResult(value=float(value), pair=None if x is None else _pair(x), series=ws)
