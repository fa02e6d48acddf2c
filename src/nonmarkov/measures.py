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
A CP step raises no trace norm (Chruściński, Kossakowski and Rivas, PRA 83,
052128 (2011)), so the searches look for flow only at the interior nodes
whose stencil reads a violating or an excluded step at the verdict's
tolerance, the support of ``Stencil.of_steps``.  The value of an operator
is defined as the integral of its positive flow over that support.  Off it,
the five-point stencil can still read a small positive flow from a norm that
does not increase; that flow is not part of the value, and is discarded.  On
an empty support, as where every violation lies within the tolerance, both
searches return 0 without evaluating a flow.
The BLP search ranges over traceless operators X on H
(``PlainTraceNormWitness``) and starts from the generalized Gell-Mann basis,
then random traceless operators.  That loses nothing: the BLP flow of a pair
(ρ1, ρ2) is ½‖ρ1 − ρ2‖₁ ≤ 1 times the trace-norm flow of
X = (ρ1 − ρ2)/‖ρ1 − ρ2‖₁, a traceless operator of unit trace norm, and
conversely the pair (2X⁺, 2X⁻) of the positive and negative parts of such an
X has ρ1 − ρ2 = 2X, so its BLP flow is exactly the flow of X.
The witness search ranges over operators on H ⊗ H
(``ExtendedTraceNormWitness``).  Its first seed is the BLP optimum X lifted
to |0⟩⟨0| ⊗ X: ‖(id ⊗ Λ)(|0⟩⟨0| ⊗ X)‖₁ = ‖ΛX‖₁, so its flow is X's flow,
and the witness search starts at the BLP value, which the witness measure
bounds (Breuer, Laine and Piilo, PRL 103, 210401 (2009)).
Then come the certified candidates (id ⊗ Λ_{t_k})⁻¹ψψ† of violating steps k,
ψψ† the ``_best_pure_input`` of the step, whose flow is positive right after
t_k, then the tensor-product basis candidates, then random witnesses.

Seeds are taken in order in one pass: each is valued once and, if its value
is above the support's ``Stencil.rounding_level``, climbed at once.  The
pass stops after ``PATIENCE`` climbs in a row that raise the best value by no
more than ``PLATEAU_GAIN`` relative plus that level, so ``search.seeds`` is
a cap.  Each search builds one ``Stencil`` of its support and one
``TraceNormKernel`` from it, once: the maps at the nodes the stencil reads
and its derivative band's rows at the support.  The kernel values every
seed and move, one ``eigvalsh`` of the evolved operator and the band rows,
the arithmetic of ``series`` on that stencil, so a value is that series'
``total_violation`` bit for bit; only the result's ``WitnessSeries`` is
built.  A move follows ``TraceNormKernel.gradient`` at the evolved operator
of its point, in the tangent space of the search space: the exact gradient
of the value with the eigenvalue signs read at every node of the derivative
stencil.  Unlike the gradient of the value itself, it sees the zero crossing
of an evolved eigenvalue move between nodes.  A climb ends where that
ascent vanishes or its step falls below ``MIN_STEP``.  A move is kept only
if it strictly raises the value, so values never decrease, and the random
numbers drawn for the fill-up seeds are the only ones in the search.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import isqrt

import numpy as np

from . import operators as ops
from .dynamics import (
    GeneratorModel,
    Trajectory,
    apply_superop,
    choi_matrix,
    generator_superoperator,
    propagators,
    pull_back,
)
from .witnesses import (
    ExtendedTraceNormWitness,
    PlainTraceNormWitness,
    Stencil,
    TraceNormKernel,
    WitnessSeries,
    _runs,
    series,
)

DIVISIBILITY_TOL = 1e-8
INITIAL_STEP = 0.5
MIN_STEP = 1e-6
MAX_STEP = 2.0
# A search stops after PATIENCE consecutive climbs that raise its best value
# by no more than PLATEAU_GAIN relative plus the support's rounding level.
PATIENCE = 4
PLATEAU_GAIN = 1e-9
# Most see-saw rounds that look for a step's best pure input, and the
# relative gain below which a round is not kept.  On the paper's examples,
# the qutrit and the rate-5 trace replacement the see-saw keeps at most one
# round and stops at the second, so the cap only bounds the cost; a search
# that reaches it keeps its best input, whose certificate holds.
SEESAW_ROUNDS = 10
SEESAW_GAIN = 1e-12


@dataclass(frozen=True)
class SearchConfig:
    """Budget of the measure searches: at most ``seeds`` starting points, each
    climbed for at most ``iterations`` moves; ``rng_seed`` seeds the random
    draws that fill the seeds up after the directed ones, and nothing else.
    A search stops before its last seed once ``PATIENCE`` climbs in a row
    have not raised its value, so ``seeds`` is a cap."""

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
    """Best witness found; ``value == series.total_violation``.
    ``evaluations`` counts the points the search valued, plus one for the
    result's full-grid ``series`` call."""

    value: float
    witness: np.ndarray | None
    series: WitnessSeries | None
    evaluations: int


@dataclass
class BlpMeasureResult:
    """Best pair found; ``value == series.total_violation``.
    ``evaluations`` counts the points the search valued, plus one for the
    result's full-grid ``series`` call."""

    value: float
    pair: tuple | None
    series: WitnessSeries | None
    evaluations: int


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


def _violating(data: StepChoiData, tol: float) -> np.ndarray:
    """Mask of the violating steps: not excluded, with a minimum Choi
    eigenvalue below -``tol``."""
    return ~data.excluded & (data.min_eigenvalues < -tol)


def divisibility_verdict(traj: Trajectory, tol: float = DIVISIBILITY_TOL,
                         steps: StepChoiData | None = None) -> Verdict:
    """Markovian iff every step propagator is CP (no violations, no exclusions)."""
    if traj.nodes < 2:
        raise ValueError("need at least two nodes for a divisibility verdict")
    data = steps if steps is not None else step_choi_data(traj)
    violations = [
        (float(data.start_times[a]), float(data.end_times[b]),
         float(np.nanmin(data.min_eigenvalues[a:b + 1])))
        for a, b in _runs(_violating(data, tol))
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


def _best_pure_input(v: np.ndarray) -> np.ndarray:
    """A pure state Z on H ⊗ H of large ‖(id ⊗ V)Z‖₁, by a see-saw from P₊.

    With S = sign((id ⊗ V)ψψ†), ‖(id ⊗ V)ψψ†‖₁ = ⟨ψ|(id ⊗ V)†(S)|ψ⟩, and the
    top eigenvector ψ' of (id ⊗ V)†(S) has
    ‖(id ⊗ V)ψ'ψ'†‖₁ ≥ ⟨ψ'|(id ⊗ V)†(S)|ψ'⟩ ≥ ⟨ψ|(id ⊗ V)†(S)|ψ⟩.  A round is
    kept only if it raises the norm by more than ``SEESAW_GAIN`` relative, so
    the result's norm is at least P₊'s, which exceeds 1 where V is not CP,
    and rounding does not move it."""
    best = ops.max_entangled_projector(isqrt(len(v)))
    norm = ops.trace_norm(apply_superop(v, best))
    for _ in range(SEESAW_ROUNDS):
        w, u = np.linalg.eigh(ops.hermitian_part(apply_superop(v, best)))
        dual = pull_back(v[None], (u * np.sign(w)) @ u.conj().T)
        top = np.linalg.eigh(ops.hermitian_part(dual))[1][:, -1]
        pure = np.outer(top, top.conj())
        raised = ops.trace_norm(apply_superop(v, pure))
        if not raised > norm * (1.0 + SEESAW_GAIN):
            break
        best, norm = pure, raised
    return best


def _certified_candidates(traj: Trajectory, data: StepChoiData,
                          tol: float = DIVISIBILITY_TOL) -> list:
    """W_k = (id ⊗ Λ_{t_k})⁻¹Z_k for the first and the worst step k of each
    run of violating steps, in time order, with Z_k
    the ``_best_pure_input`` of the step propagator V_k = Λ_{t_{k+1}}Λ_{t_k}⁻¹.

    (id ⊗ Λ_{t_k})W_k = Z_k has trace norm 1 and (id ⊗ Λ_{t_{k+1}})W_k =
    (id ⊗ V_k)Z_k has trace norm at least ‖(id ⊗ V_k)P₊‖₁ = ‖Choi(V_k)‖₁/d > 1
    where V_k is not CP, so the flow of W_k is positive right after t_k
    (Chruściński, Kossakowski and Rivas, PRA 83, 052128 (2011)).  A
    violating step is never excluded, so Λ_{t_k} is well conditioned."""
    steps = []
    for first, last in _runs(_violating(data, tol)):
        worst = first + int(np.argmin(data.min_eigenvalues[first:last + 1]))
        steps += [first] if worst == first else [first, worst]
    seeds = []
    for k in steps:
        inverse = np.linalg.inv(traj.maps[k])
        seeds.append(ops.hermitian_part(apply_superop(
            inverse, _best_pure_input(traj.maps[k + 1] @ inverse))))
    return seeds


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


def _ascent(kernel, point, stack, project):
    """``TraceNormKernel.gradient`` at ``point``, evolved into ``stack``,
    projected, less its part along the projected normal sign(point) of the
    unit trace-norm sphere; scaled to unit trace norm, or None where it
    vanishes."""
    grad = project(kernel.gradient(stack))
    w, v = np.linalg.eigh(point)
    normal = project((v * np.sign(w)) @ v.conj().T)
    grad = grad - np.vdot(normal, grad).real / np.vdot(normal, normal).real * normal
    norm = ops.trace_norm(grad)
    return grad / norm if norm > 0.0 else None


def _climb(kernel, spec_cls, project, start, iterations):
    """Best (operator, spec, value, stack) of a climb on the ``kernel``'s
    support from ``start``, a point of positive value, and the number of
    points it valued.  Each move is a step along ``_ascent``; the step
    doubles after a kept move and halves otherwise.  The climb ends where the
    ascent vanishes or once the step falls below ``MIN_STEP``."""
    point, spec, value, stack = start
    ascent = None
    step = INITIAL_STEP
    calls = 0
    for _ in range(iterations):
        if ascent is None:
            ascent = _ascent(kernel, point, stack, project)
        if ascent is None or step < MIN_STEP:
            break
        moved = _point(spec_cls, point + step * ascent)
        if moved is not None:
            raised, evolved = kernel.value(moved[0])
            calls += 1
            if raised > value:
                (point, spec), value, stack = moved, raised, evolved
                ascent = None
                step = min(2.0 * step, MAX_STEP)
                continue
        step /= 2.0
    return (point, spec, value, stack), calls


def _search(traj, directed, spec_cls, project, search, data, tol):
    """Best (operator, series, value) of a hill climb from the seeds above
    the rounding level, each operator valued by its flow on the support of
    the steps that violate at ``tol`` or are excluded in ``data``, and the
    number of evaluations: the points valued, plus the result's ``series``.

    ``spec_cls`` is a trace-norm witness family that stores its Hermitian
    operator with unit trace norm; ``project`` projects onto the search space
    (Hermitian or traceless operators).  The seeds are the ``directed``
    operators, filled up with projected Gaussian draws from
    ``np.random.default_rng(search.rng_seed)`` and cut to ``search.seeds``; a
    seed or move that ``spec_cls`` rejects is skipped.  In one pass, each
    seed is valued once and climbed at once for at most ``search.iterations``
    moves if its value exceeds the ``Stencil.rounding_level`` of the searched
    operator.  Any other seed is not climbed: its value is rounding noise, and
    no direction is known to raise it.  The pass stops early, after
    ``PATIENCE`` consecutive climbs that raise the best value by no more than
    ``PLATEAU_GAIN`` relative plus that level.  Returns ``(None, None, 0.0)``
    when no seed is climbed, and without any evaluation when the support is
    empty.
    """
    stencil = Stencil.of_steps(traj.times, _violating(data, tol) | data.excluded)
    if not stencil.support.any():
        return (None, None, 0.0), 0
    kernel = TraceNormKernel(stencil, traj.maps)
    seeds = list(directed)
    rng = np.random.default_rng(search.rng_seed)
    size = traj.dim ** 2 if spec_cls._doubled else traj.dim
    floor = stencil.rounding_level(size)
    while len(seeds) < search.seeds:
        seeds.append(project(ops.random_hermitian(size, rng)))
    best = (None, None, 0.0, None)
    evaluations = stale = 0
    for point, spec in filter(None, (_point(spec_cls, x) for x in seeds[:search.seeds])):
        value, stack = kernel.value(point)
        evaluations += 1
        if value > floor:
            climbed, calls = _climb(kernel, spec_cls, project, (point, spec, value, stack),
                                    search.iterations)
            evaluations += calls
            gain = climbed[2] - best[2]
            stale = stale + 1 if gain <= PLATEAU_GAIN * best[2] + floor else 0
            if gain > 0.0:
                best = climbed
            if stale == PATIENCE:
                break
    point, spec, value, stack = best
    if point is None:
        return (None, None, 0.0), evaluations
    # The result's series is the kernel's flow on the support and, off it,
    # the full-grid flow where that is not positive: positive flow there is
    # not part of the value (module docstring).
    full = series(traj, spec)
    values = np.minimum(full.values, 0.0)
    values[stencil.support] = kernel.flow(stack)
    return (point, WitnessSeries(spec, full.times, values), value), evaluations + 1


def witness_measure(traj: Trajectory, search: SearchConfig = SearchConfig(),
                    steps: StepChoiData | None = None,
                    tol: float = DIVISIBILITY_TOL,
                    blp: BlpMeasureResult | None = None) -> WitnessMeasureResult:
    """Lower bound on the optimal-witness measure with the witness that attains it.

    The seeds are, in this order, the lifted BLP optimum |0⟩⟨0| ⊗ X, with
    X = (ρ1 − ρ2)/2 of the pair of ``blp``, the certified candidates of the
    steps that violate divisibility at tolerance ``tol`` (the verdict's), the
    product candidates, then random witnesses, cut to ``search.seeds``.
    ‖(id ⊗ Λ)(|0⟩⟨0| ⊗ X)‖₁ = ‖ΛX‖₁, so the lifted seed's value is the BLP
    value, and climbs never lower a value.  Where ``blp`` is None,
    ``blp_measure`` runs on the same arguments first, so passing its result
    changes nothing but the work.  Flows are valued on the support of the
    steps at ``tol`` (module docstring)."""
    data = steps if steps is not None else step_choi_data(traj)
    if blp is None:
        blp = blp_measure(traj, search, data, tol)
    lifted = []
    if blp.pair is not None:
        ancilla = np.zeros((traj.dim, traj.dim), dtype=complex)
        ancilla[0, 0] = 1.0
        lifted.append(np.kron(ancilla, 0.5 * (blp.pair[0] - blp.pair[1])))
    directed = lifted + _certified_candidates(traj, data, tol) + _product_candidates(traj.dim)
    (witness, ws, value), evaluations = _search(traj, directed, ExtendedTraceNormWitness,
                                                ops.hermitian_part, search, data, tol)
    return WitnessMeasureResult(value=float(value), witness=witness, series=ws,
                                evaluations=evaluations)


def blp_measure(traj: Trajectory, search: SearchConfig = SearchConfig(),
                steps: StepChoiData | None = None,
                tol: float = DIVISIBILITY_TOL) -> BlpMeasureResult:
    """Lower bound on the state-distinguishability measure with the best pair.

    Searches traceless Hermitian X of unit trace norm for the largest positive
    trace-norm flow on the support of the steps at ``tol``; the pair is
    (2X⁺, 2X⁻), the doubled positive and negative parts of the best X, whose
    BLP flow is the flow of X (module docstring).
    """
    data = steps if steps is not None else step_choi_data(traj)
    (x, ws, value), evaluations = _search(traj, gell_mann_basis(traj.dim), PlainTraceNormWitness,
                                          _traceless, search, data, tol)
    return BlpMeasureResult(value=float(value), pair=None if x is None else _pair(x), series=ws,
                            evaluations=evaluations)
