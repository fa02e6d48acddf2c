"""Dense Hermitian linear algebra and state functionals.

Everything here operates on plain complex numpy arrays.  States are density
matrices (Hermitian, PSD, unit trace), observables and witnesses are Hermitian
matrices.  Spectral functions take one matrix or a stack ``(..., d, d)``,
broadcast over the leading axes, and act on each matrix on its own: one matrix
gives a ``float``, a stack an array.  Spectra of 2 × 2 Hermitian parts have a
closed form (:func:`eigvalsh`); all other spectral work goes through
``numpy.linalg.eigh``.  Eigenvalues below the support cutoff are treated as
exact zeros so that logarithms and fractional powers stay finite near rank
deficiency.  Divergences use the natural logarithm throughout; the Tsallis
divergence and the Renyi divergence below alpha = 1 are both functions of one
quasi-entropy, Tr rho^a sigma^(1-a).
"""

from __future__ import annotations

import numpy as np

# Hermiticity tolerance, relative to the largest entry magnitude.
HERMITICITY_TOL = 1e-12
# Density-matrix validation: min eigenvalue and trace deviation.
DENSITY_TOL = 1e-10
# Minimum eigenvalue below which a matrix is rejected as not PSD.
PSD_TOL = 1e-8
# Eigenvalues below this (relative to the spectral scale) count as exact zeros.
ZERO_EIG_TOL = 1e-12
# Sigma eigenvalues below this count as outside the support for divergences.
SUPPORT_TOL = 1e-10


class NotPSDError(ValueError):
    """Raised when an operation requires a positive semidefinite input."""


def _dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _float_if_single(x: np.ndarray) -> float | np.ndarray:
    """A result for one matrix as a float; a result for a stack as it is."""
    return float(x) if np.ndim(x) == 0 else x


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """Return (A + A†)/2."""
    a = np.asarray(a, dtype=complex)
    return 0.5 * (a + _dagger(a))


def is_hermitian(a: np.ndarray) -> bool:
    """Check A = A† within ``HERMITICITY_TOL`` relative to the largest entry magnitude."""
    a = np.asarray(a)
    scale = max(np.abs(a).max(), 1.0) if a.size else 1.0
    return bool(np.abs(a - _dagger(a)).max() <= HERMITICITY_TOL * scale)


_DOWN_UP = np.array([-1.0, 1.0])


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of each matrix in ``a``.

    For 2 × 2 matrices this is the closed form m ± hypot((a - c)/2, |b|) of
    [[a, b], [b*, c]], m = (a + c)/2; larger matrices go to LAPACK.
    """
    a = np.asarray(a)
    if a.shape[-2:] != (2, 2):
        return np.linalg.eigvalsh(hermitian_part(a))
    p, c = a[..., 0, 0].real, a[..., 1, 1].real
    m = 0.5 * p + 0.5 * c
    r = np.hypot(0.5 * p - 0.5 * c, 0.5 * np.abs(a[..., 0, 1] + a[..., 1, 0].conj()))
    return m[..., None] + r[..., None] * _DOWN_UP


def check_hermitian(a: np.ndarray, name: str = "operator") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    if not is_hermitian(a):
        raise ValueError(f"{name} is not Hermitian within tolerance {HERMITICITY_TOL}")
    return a


def check_density_matrix(rho: np.ndarray, name: str = "state") -> np.ndarray:
    """Validate Hermiticity, positivity (≥ -1e-10) and unit trace (±1e-10)."""
    rho = check_hermitian(rho, name)
    w = eigvalsh(rho)
    if w.min() < -DENSITY_TOL:
        raise ValueError(f"{name} has negative eigenvalue {w.min():.3e}")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > DENSITY_TOL:
        raise ValueError(f"{name} has trace {tr!r}, expected 1")
    return rho


def _pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both arguments as complex arrays whose matrices have the same shape."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape[-2:] != b.shape[-2:]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a, b


def trace_norm(a: np.ndarray) -> float | np.ndarray:
    """Trace norm ||A||_1; for Hermitian A this is the sum of |eigenvalues|."""
    w = eigvalsh(a)
    return _float_if_single(np.abs(w).sum(axis=-1))


def _clamp_zeros(w: np.ndarray) -> np.ndarray:
    """Eigenvalues below the support cutoff, relative to their matrix's scale, set to 0."""
    scale = np.abs(w).max(axis=-1, keepdims=True, initial=1.0)
    return np.where(w < ZERO_EIG_TOL * scale, 0.0, w)


def _compose(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The matrices V diag(w) V†."""
    return (v * w[..., None, :]) @ _dagger(v)


def _xlogx(w: np.ndarray) -> np.ndarray:
    """w log w with 0 log 0 := 0 (non-positive entries give 0)."""
    return np.where(w > 0, w * np.log(np.where(w > 0, w, 1.0)), 0.0)


def _trace(a: np.ndarray) -> np.ndarray:
    return np.trace(a, axis1=-2, axis2=-1).real


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float | np.ndarray:
    """D(rho, sigma) = ||rho - sigma||_1 / 2."""
    rho, sigma = _pair(rho, sigma)
    return 0.5 * trace_norm(rho - sigma)


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float | np.ndarray:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2; NotPSDError unless rho >= -1e-8."""
    rho, sigma = _pair(rho, sigma)
    p, u = np.linalg.eigh(hermitian_part(rho))
    if p.size and p.min() < -PSD_TOL:
        raise NotPSDError(f"fidelity: min eigenvalue of rho {p.min():.3e} < -{PSD_TOL}")
    s = _compose(np.sqrt(_clamp_zeros(p)), u)
    w = np.clip(eigvalsh(s @ sigma @ s), 0.0, None)
    return _float_if_single(np.sqrt(w).sum(axis=-1) ** 2)


def _eig_state(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """State eigensystem with the support cutoff applied (tiny eigenvalues are
    exact zeros, so fractional powers cannot amplify eigensolver noise)."""
    w, v = np.linalg.eigh(hermitian_part(rho))
    return _clamp_zeros(w), v


def _outside_support(p: np.ndarray, overlap: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Where rho (eigenvalues p) puts over SUPPORT_TOL weight on the kernel of sigma
    (eigenvalues q below SUPPORT_TOL); overlap[..., i, j] = |<u_i|v_j>|^2."""
    kernel = q < SUPPORT_TOL
    weight = np.sum(p * np.sum(overlap * kernel[..., None, :], axis=-1), axis=-1)
    return weight > SUPPORT_TOL


def _quasi_entropy(rho: np.ndarray, sigma: np.ndarray, a: float) -> np.ndarray:
    """Tr rho^a sigma^(1-a) for a in [0,1), with rho^0 the identity and sigma's
    eigenvalues below the support cutoff exact zeros."""
    p, u = _eig_state(rho)
    q, v = _eig_state(sigma)
    q_pow = np.where(q > 0, np.where(q > 0, q, 1.0) ** (1.0 - a), 0.0)
    return _trace(_compose(p**a, u) @ _compose(q_pow, v))


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float | np.ndarray:
    """S(rho||sigma) = Tr rho (log rho - log sigma), natural log.

    Returns ``inf`` when the support of rho is not contained in the support of
    sigma (sigma eigenvalues below 1e-10 carrying nonzero rho weight).
    """
    rho, sigma = _pair(rho, sigma)
    p, u = _eig_state(rho)
    q, v = _eig_state(sigma)
    overlap = np.abs(_dagger(u) @ v) ** 2
    kernel = q < SUPPORT_TOL
    logq = np.where(kernel, 0.0, np.log(np.where(kernel, 1.0, q)))
    cross = np.sum(p * (overlap @ logq[..., None])[..., 0], axis=-1)
    value = np.sum(_xlogx(p), axis=-1) - cross
    return _float_if_single(np.where(_outside_support(p, overlap, q), np.inf, value))


def renyi_relative_entropy(rho: np.ndarray, sigma: np.ndarray, alpha: float) -> float | np.ndarray:
    """Renyi relative entropy log(Tr rho^a sigma^(1-a)) / (a - 1).

    Restricted to the channel-monotone range alpha in [0,1) u (1,2].  For
    alpha > 1 a support violation yields +inf, as does a trace Tr rho^a
    sigma^(1-a) that is not positive.
    """
    if not (0.0 <= alpha < 1.0 or 1.0 < alpha <= 2.0):
        raise ValueError(f"alpha must lie in [0,1) u (1,2], got {alpha}")
    rho, sigma = _pair(rho, sigma)
    if alpha < 1.0:
        val, violated = _quasi_entropy(rho, sigma, alpha), False
    else:
        p, u = _eig_state(rho)
        q, v = _eig_state(sigma)
        violated = _outside_support(p, np.abs(_dagger(u) @ v) ** 2, q)
        kernel = q < SUPPORT_TOL
        q_pow = np.where(kernel, 0.0, np.where(kernel, 1.0, q) ** (1.0 - alpha))
        val = _trace(_compose(p**alpha, u) @ _compose(q_pow, v))
    value = np.log(np.where(val > 0.0, val, 1.0)) / (alpha - 1.0)
    return _float_if_single(np.where(violated | (val <= 0.0), np.inf, value))


def tsallis_relative_entropy(rho: np.ndarray, sigma: np.ndarray, q: float) -> float | np.ndarray:
    """Tsallis relative entropy (1 - Tr rho^q sigma^(1-q)) / (1 - q), q in [0,1)."""
    if not 0.0 <= q < 1.0:
        raise ValueError(f"q must lie in [0,1), got {q}")
    val = _quasi_entropy(*_pair(rho, sigma), q)
    return _float_if_single((1.0 - val) / (1.0 - q))


def skew_information(rho: np.ndarray, x: np.ndarray, p: float = 0.5) -> float | np.ndarray:
    """Wigner-Yanase-Dyson skew information -Tr [rho^p, X][rho^(1-p), X] / 2."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0,1), got {p}")
    rho, x = _pair(rho, x)
    w, v = _eig_state(rho)
    a = _compose(w**p, v)
    b = _compose(w ** (1.0 - p), v)
    ca = a @ x - x @ a
    cb = b @ x - x @ b
    return _float_if_single(-0.5 * _trace(ca @ cb))


def max_entangled_projector(dim: int) -> np.ndarray:
    """Projector onto (1/sqrt(d)) sum_i |i>|i> on the doubled space."""
    if dim < 2:
        raise ValueError("dim must be at least 2")
    psi = np.zeros(dim * dim, dtype=complex)
    psi[:: dim + 1] = 1.0 / np.sqrt(dim)
    return np.outer(psi, psi.conj())


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian random Hermitian matrix."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return hermitian_part(a)


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank state from the Ginibre ensemble."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit vector."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)
