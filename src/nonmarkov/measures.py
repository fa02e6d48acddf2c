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

The last two share one seeded derivative-free hill climber, ``_search``, over
one kind of point: a Hermitian operator of unit trace norm, fed to a
trace-norm witness family and moved by adding a step times a random Hermitian
direction.  The witness search ranges over operators on H ⊗ H
(``ExtendedTraceNormWitness``) and starts from tensor-product basis
candidates, the negative-Choi-direction candidate and random witnesses.  The
BLP search ranges over traceless operators X on H (``PlainTraceNormWitness``)
and starts from the generalized Gell-Mann basis and random traceless
operators.  That loses nothing: the BLP flow of a pair (ρ1, ρ2) is
½‖ρ1 − ρ2‖₁ ≤ 1 times the trace-norm flow of X = (ρ1 − ρ2)/‖ρ1 − ρ2‖₁, a
traceless operator of unit trace norm, and conversely the pair (2X⁺, 2X⁻) of
the positive and negative parts of such an X has ρ1 − ρ2 = 2X, so its BLP
flow is exactly the flow of X.  Each seed climbs on its own random stream and
accepts a move only if it strictly raises the integrated positive flow.  The
step starts at ``INITIAL_STEP``, grows by 1.4 after an accepted move (up to
``MAX_STEP``) and shrinks by 0.8 otherwise (down to ``MIN_STEP``).

The seed climbs are independent, so they run in parallel in forked worker
processes, one per CPU available to this process.  Search results are
reproducible lower bounds: values never decrease during refinement and depend
only on the recorded seed, not on the number of CPUs.

Each search candidate costs one ``series`` call, and nearly all of a search
is these calls.  On a qubit the 2 × 2 spectra are closed-form
(``operators.eigvalsh``), so what is left of a witness candidate is mostly
LAPACK: about 70% of an extended trace-norm candidate is the batched 4 × 4
``eigvalsh`` of the evolved witnesses.  Further gains have to come from fewer
evaluations per search, not from cheaper ones.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from . import operators as ops
from .dynamics import (
    GeneratorModel,
    Trajectory,
    apply_extended,
    choi_matrix,
    generator_superoperator,
    propagators,
)
from .witnesses import (
    ExtendedTraceNormWitness,
    PlainTraceNormWitness,
    WitnessSeries,
    _runs,
    series,
)

DIVISIBILITY_TOL = 1e-8
INITIAL_STEP = 0.5
MIN_STEP = 1e-6
MAX_STEP = 2.0


@dataclass(frozen=True)
class SearchConfig:
    """Budget and reproducibility knobs for the measure optimizers."""

    seeds: int = 64
    iterations: int = 200
    rng_seed: int = 0


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


def divisibility_verdict(traj: Trajectory, tol: float = DIVISIBILITY_TOL,
                         steps: StepChoiData | None = None) -> Verdict:
    """Markovian iff every step propagator is CP (no violations, no exclusions)."""
    if traj.nodes < 2:
        raise ValueError("need at least two nodes for a divisibility verdict")
    data = steps if steps is not None else step_choi_data(traj)
    violating = ~data.excluded & (data.min_eigenvalues < -tol)
    violations = [
        (float(data.start_times[a]), float(data.end_times[b]),
         float(np.nanmin(data.min_eigenvalues[a:b + 1])))
        for a, b in _runs(violating)
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
    delta = apply_extended(gens, projector)
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


def _product_candidates(d: int, cap: int) -> list:
    """The first ``cap`` tensor products of single-system basis elements
    (identity included), skipping the PSD identity x identity direction."""
    basis = [np.eye(d, dtype=complex)] + gell_mann_basis(d)
    return [0.5 * np.kron(a, b) for a in basis for b in basis][1:cap + 1]


def _choi_candidates(data: StepChoiData, n: int) -> list:
    """Witness directions from the most negative Choi eigenvector."""
    if data.worst_vector is None or not np.isfinite(data.worst_value):
        return []
    proj = np.outer(data.worst_vector, data.worst_vector.conj())
    return [proj - np.eye(n) / n]


def _random_traceless(d: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian random Hermitian d × d matrix with its trace removed."""
    x = ops.random_hermitian(d, rng)
    return x - (np.trace(x).real / d) * np.eye(d)


def _pair(x: np.ndarray) -> tuple:
    """(2X⁺, 2X⁻) of a traceless Hermitian X of unit trace norm, from one ``eigh``."""
    w, v = np.linalg.eigh(x)
    return tuple(2.0 * (v * np.clip(sign * w, 0.0, None)) @ v.conj().T for sign in (1, -1))


def _cpu_count() -> int:
    """CPUs this process may run on; 1 where the platform cannot tell."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _point(spec_cls, x):
    """``(operator, spec)`` of ``spec_cls(x)``, the operator as the spec holds
    it (unit trace norm); None where the spec rejects ``x``, such as a PSD
    witness, which carries no witness information."""
    try:
        spec = spec_cls(x)
    except ValueError:
        return None
    return getattr(spec, fields(spec)[0].name), spec


def _climb(job, i):
    """Hill climb of seed ``i`` of ``job``; returns its (operator, series, value)."""
    traj, seeded, spec_cls, direction, stream, search = job
    point, ws, value = seeded[i]
    rng = np.random.default_rng((search.rng_seed, stream, i))
    step = INITIAL_STEP
    for _ in range(search.iterations):
        moved = _point(spec_cls, point + step * direction(rng))
        if moved is not None:
            cand_series = series(traj, moved[1])
            cand_value = cand_series.total_violation
            if cand_value > value:
                point, ws, value = moved[0], cand_series, cand_value
                step = min(step * 1.4, MAX_STEP)
                continue
        step = max(step * 0.8, MIN_STEP)
    return point, ws, value


# The search job of a pool worker.  Set only inside forked workers, by the
# pool initializer, so that each worker inherits the job (the trajectory and
# the seed series) once instead of receiving it with every task.
_worker_job = None


def _start_worker(job) -> None:
    global _worker_job
    _worker_job = job


def _climb_in_worker(i):
    return _climb(_worker_job, i)


def _search(traj, data, basis, spec_cls, direction, stream, search):
    """Best (operator, series, value) of a hill climb from every seed.

    ``spec_cls`` is a trace-norm witness family that stores its Hermitian
    operator with unit trace norm, and ``direction(rng)`` draws a random
    Hermitian operator.  The seeds are the ``basis`` operators, filled up with
    ``direction`` draws on the random stream ``search.rng_seed`` and cut to
    ``search.seeds`` (at least one); a seed or a move that ``spec_cls``
    rejects is skipped.  Seed i climbs for ``search.iterations`` moves on the
    random stream ``(search.rng_seed, stream, i)``; a move adds ``step`` times
    a ``direction`` draw to the current operator.  The value of a spec is the
    integrated positive part of its flow.  When every step propagator is CP
    and no seed shows a positive flow the climb is skipped, since contraction
    forces every flow to be non-positive.  Returns ``(None, None, 0.0)`` when
    no positive value is found.

    The climbs are independent, so they run in forked worker processes, one
    per CPU available to this process (in process with one CPU or where
    ``fork`` is missing).  The best climb is picked in seed order, so the
    result does not depend on the number of workers.  The pool is closed
    before this returns or raises; an exception in a worker reaches the caller.
    """
    seeds = list(basis)
    rng = np.random.default_rng(search.rng_seed)
    while len(seeds) < search.seeds:
        seeds.append(direction(rng))
    seeded = []
    for point, spec in filter(None, (_point(spec_cls, x) for x in seeds[:max(search.seeds, 1)])):
        ws = series(traj, spec)
        seeded.append((point, ws, ws.total_violation))

    cp_violated = bool(np.any(~data.excluded & (data.min_eigenvalues < -1e-12)))
    best = (None, None, 0.0)
    if not cp_violated and all(v == 0.0 for _, _, v in seeded):
        return best

    job = (traj, seeded, spec_cls, direction, stream, search)
    workers = min(_cpu_count(), len(seeded))
    import multiprocessing  # here, so that importing the package stays cheap

    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("fork")
        with context.Pool(workers, _start_worker, (job,)) as pool:
            climbed = pool.map(_climb_in_worker, range(len(seeded)), chunksize=1)
    else:
        climbed = [_climb(job, i) for i in range(len(seeded))]

    for result in climbed:
        if result[2] > best[2]:
            best = result
    return best


def witness_measure(traj: Trajectory, search: SearchConfig = SearchConfig(),
                    steps: StepChoiData | None = None) -> WitnessMeasureResult:
    """Lower bound on the optimal-witness measure with the witness that attains it.

    The negative-Choi candidate is a seed whenever it exists; the product
    candidates fill the rest of the seed budget."""
    n = traj.dim ** 2
    data = steps if steps is not None else step_choi_data(traj)
    choi = _choi_candidates(data, n)
    basis = _product_candidates(traj.dim, max(search.seeds, 1) - len(choi)) + choi
    witness, ws, value = _search(traj, data, basis, ExtendedTraceNormWitness,
                                 partial(ops.random_hermitian, n), 1, search)
    return WitnessMeasureResult(value=float(value), witness=witness, series=ws)


def blp_measure(traj: Trajectory, search: SearchConfig = SearchConfig(),
                steps: StepChoiData | None = None) -> BlpMeasureResult:
    """Lower bound on the state-distinguishability measure with the best pair.

    Searches traceless Hermitian X of unit trace norm for the largest positive
    trace-norm flow; the pair is (2X⁺, 2X⁻), the doubled positive and negative
    parts of the best X, whose BLP flow is the flow of X (module docstring).
    """
    data = steps if steps is not None else step_choi_data(traj)
    x, ws, value = _search(traj, data, gell_mann_basis(traj.dim), PlainTraceNormWitness,
                           partial(_random_traceless, traj.dim), 2, search)
    return BlpMeasureResult(value=float(value), pair=None if x is None else _pair(x), series=ws)

