"""Dense linear-algebra kernels shared across the package.

Covariance handling follows one policy everywhere: matrices are kept
explicitly symmetric, and failures raise :class:`NumericsError` so
callers can tell numerical breakdown apart from bad arguments. The
finite screen (:func:`_finite`), the PSD screen (:func:`_psd_ok`,
:func:`_require_psd`) and the fit's kernels (the QR fit of weighted
points :func:`_weighted_qr`, the Gram solve :func:`_cho_solve_jittered`
from moments, the clip :func:`_clip_psd` and the roots
:func:`_psd_roots`) are defined here once. They call LAPACK's
``dgeqrf``, ``dtrtrs``, ``dpotrf``, ``dpotrs`` and (in :func:`_eigh`)
``dsyevd`` directly: for the small matrices here the wrappers cost more
than the arithmetic. The kernels do not check their arguments: a value
is screened where it enters the package or in the kernel that produced
it. Only the Cholesky solve retries, with an escalating diagonal
jitter, before giving up; a matrix that fails the PSD screen is
rejected, not repaired.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dgeqrf, dpotrf, dpotrs, dsyevd, dtrtrs

# Jitter schedule: start at BASE_JITTER * mean(diag), grow tenfold per
# retry, give up after MAX_JITTER_ROUNDS retries.
BASE_JITTER = 1e-12
MAX_JITTER_ROUNDS = 3

# Relative tolerance of the PSD screen (_psd_ok) and of _clip_psd.
PSD_REL_TOL = 1e-10

_TINY = np.finfo(float).tiny

__all__ = [
    "NumericsError",
    "symmetrize",
    "gaussian_pdf",
]


class NumericsError(RuntimeError):
    """Numerical breakdown, as opposed to a bad argument.

    Raised for non-finite values, a matrix that fails the PSD screen,
    and a factorization that fails beyond the jitter budget. Sequential
    drivers (the filter loop) fill in ``step`` so a failed run reports
    where it broke down; one-shot operations leave it ``None``.
    """

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return the symmetric part 0.5 * (a + a.T)."""
    return 0.5 * (a + a.T)


def _finite(a: np.ndarray) -> bool:
    return bool(np.isfinite(a).all())


def _psd_ok(w: np.ndarray) -> np.ndarray:
    # The PSD screen, on ascending eigenvalues of shape (..., n): PSD up
    # to roundoff, smallest >= -PSD_REL_TOL * max|eigenvalue|. A NaN
    # eigenvalue fails it.
    scale = np.maximum(np.abs(w[..., 0]), np.abs(w[..., -1]))
    return w[..., 0] >= -PSD_REL_TOL * np.maximum(scale, _TINY)


def _require_psd(mat: np.ndarray, what: str) -> None:
    # Raising form of the PSD screen for one finite square matrix; only
    # its symmetric part is screened.
    w = np.linalg.eigvalsh(symmetrize(mat))
    if not _psd_ok(w):
        raise NumericsError(
            f"{what} has eigenvalue {float(w[0])!r}, negative beyond tolerance"
        )


def _cho_solve_jittered(mat: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Solves mat @ x = b for a symmetric positive definite float matrix,
    # of which only the lower triangle is read, with escalating diagonal
    # jitter on factorization failure and NumericsError once the budget
    # is exhausted. Callers pass screened input or screen the solution:
    # non-finite input may factor without complaint and carry NaN into
    # the result.
    jitter = None
    for round_ in range(MAX_JITTER_ROUNDS + 1):
        low, info = dpotrf(mat, lower=1)
        if info == 0:
            return dpotrs(low, b, lower=1)[0]
        if round_ < MAX_JITTER_ROUNDS:
            if jitter is None:
                # Scale-aware, with an absolute floor for all-zero
                # matrices so escalation is never a no-op.
                jitter = BASE_JITTER * max(float(np.trace(mat)) / mat.shape[0], _TINY)
            mat = mat + jitter * np.eye(mat.shape[0])
            jitter *= 10.0
    raise NumericsError("matrix is singular within the jitter budget")


def _weighted_qr(cols, rows, sqrt_w, a):
    # Weighted least squares of ``rows`` (m, n) on ``cols`` (n, k) over n
    # points, by Householder QR of A = diag(sqrt_w) [cols | rows^T]. ``a``
    # is a (k + m, n) workspace: written in that row order it holds A^T,
    # so A is Fortran-ordered and dgeqrf factors it in place. With
    # R = [[R_11, R_12], [0, R_22]], A^T A = R^T R, the coefficients are
    # R_11^-1 R_12 and the weighted residual's second moment is
    # R_22^T R_22, PSD by construction: the normal equations, which square
    # the conditioning of A, are never formed. Returns R's rows, at most
    # k + m, with Householder vectors below the diagonal, and the
    # coefficients (k, m), meaningless where R_11 is singular.
    k = cols.shape[1]
    np.multiply(cols.T, sqrt_w, out=a[:k])
    np.multiply(rows, sqrt_w, out=a[k:])
    qr = dgeqrf(a.T, overwrite_a=1)[0]
    return qr[: a.shape[0]], dtrtrs(qr[:, :k], qr[:k, k:])[0]


def _clip_psd(a: np.ndarray, scale):
    # Symmetrize a stack of square float matrices (L, d, d) and clip
    # eigenvalues that are negative within tolerance to zero. ``scale``
    # gives each one's reference magnitude for the tolerance (after a
    # subtractive update the result can be much smaller than the
    # operands). Returns the clipped stack and {index: message} for the
    # matrices that cannot be made PSD, whose entries are meaningless.
    # Non-finite input is reported as such, not as an indefinite matrix.
    if a.shape[-1] == 1:
        v = a[:, 0, 0]
        if v.min() >= 0.0 and v.max() < np.inf:
            return v.reshape(-1, 1, 1).copy(), {}
        nonneg = v >= 0.0
        ok = (nonneg | (v >= -PSD_REL_TOL * np.maximum(scale, _TINY))) & np.isfinite(v)
        problems = {}
        if not ok.all():
            for i in np.flatnonzero(~ok).tolist():
                vi = float(v[i])
                problems[i] = (
                    f"non-finite variance {vi!r} cannot be made PSD"
                    if not math.isfinite(vi)
                    else f"variance {vi!r} is negative beyond tolerance"
                )
        return np.where(nonneg, v, 0.0).reshape(-1, 1, 1), problems

    out = 0.5 * (a + a.swapaxes(1, 2))
    if _finite(a):
        w, vec = _eigh(out)
        if w[:, 0].min() >= 0.0:
            return out, {}
        finite = np.full(len(a), True)
    else:
        finite = np.isfinite(a).all(axis=(1, 2))
        w, vec = _eigh(np.where(finite[:, None, None], out, 0.0))
    ok = finite & ~(w[:, 0] < -PSD_REL_TOL * np.maximum(scale, _TINY))
    problems = {}
    if not ok.all():
        for i in np.flatnonzero(~ok).tolist():
            problems[i] = (
                "non-finite matrix cannot be made PSD"
                if not finite[i]
                else f"matrix has eigenvalue {float(w[i, 0])!r}, negative beyond tolerance"
            )
    neg = np.flatnonzero(w[:, 0] < 0.0)
    if neg.size:
        clipped = (vec[neg] * np.maximum(w[neg], 0.0)[:, None, :]) @ vec[neg].swapaxes(1, 2)
        out[neg] = 0.5 * (clipped + clipped.swapaxes(1, 2))
    return out, problems


def _psd_roots(covs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric square roots of a stack of covariances, shape (L, d, d).

    Also returns the PSD screen (:func:`_psd_ok`), a boolean mask over
    the stack. Roots of screened-out entries are meaningless. There is
    no jitter retry: a belief that fails the screen is broken.
    Non-finite input need not fail the screen, but its root then holds
    NaN, which the caller's non-finite screen catches downstream.
    """
    if covs.shape[-1] == 1:
        # The screen's verdict on a single eigenvalue w is w >= 0.
        var = covs[:, 0, 0]
        ok = var >= 0.0
        return np.sqrt(np.where(ok, var, 0.0))[:, None, None], ok
    w, v = _eigh(0.5 * (covs + covs.swapaxes(-1, -2)))
    return (v * np.sqrt(np.maximum(w, 0.0))[:, None, :]) @ v.swapaxes(-1, -2), _psd_ok(w)


def _eigh(a):
    # np.linalg.eigh of a stack of symmetric matrices, bit for bit: both run
    # dsyevd on the lower triangles, and raise where it fails (NaN input).
    w, v = np.empty(a.shape[:2]), np.empty(a.shape)
    for i in range(len(a)):
        w[i], v[i], info = dsyevd(a[i], lower=1)
        if info:
            raise NumericsError(f"eigendecomposition failed (LAPACK dsyevd info {info})")
    return w, v


def gaussian_pdf(x, mean=0.0, var=1.0):
    """Univariate normal density, broadcasting over all arguments.

    ``var`` must be positive wherever it is used; callers owning
    degenerate cases (zero variance) must mask them out themselves.
    """
    x = np.asarray(x, dtype=float)
    d = x - mean
    return np.exp(-0.5 * d * d / var) / np.sqrt(2.0 * np.pi * var)
