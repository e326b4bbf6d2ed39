"""Unit tests for the shared dense linear-algebra kernels.

Tests named for sqrt_psd, solve_psd and ensure_psd check the operation
by that name: the symmetric root (_psd_roots), the jittered Cholesky
solve (_cho_solve_jittered) and the PSD clip (_clip_psd). Tests named
for weighted_qr check the filter pass's least-squares fit
(_weighted_qr) against numpy's.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from fgfilter import FgfPosteriorParams, GaussianBelief, JointMoments, NumericsError
import fgfilter._linalg
from fgfilter._linalg import (
    PSD_REL_TOL,
    _cho_solve_jittered,
    _clip_psd,
    _eigh,
    _psd_roots,
    _weighted_qr,
    gaussian_pdf,
    symmetrize,
)
from helpers import gaussian_log_pdf, random_spd


def test_symmetrize():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4))
    s = symmetrize(a)
    assert_allclose(s, s.T)
    assert_allclose(symmetrize(s), s)


def test_sqrt_psd_squares_back():
    rng = np.random.default_rng(1)
    for n in (1, 2, 5):
        a = random_spd(rng, n)
        root = _psd_roots(a[None])[0][0]
        assert_allclose(root, root.T, atol=1e-12)
        assert_allclose(root @ root.T, a, atol=1e-12)


def test_sqrt_psd_of_a_diagonal_is_exact():
    root = _psd_roots(np.diag([4.0, 9.0, 0.0])[None])[0][0]
    assert np.array_equal(root, np.diag([2.0, 3.0, 0.0]))
    rng = np.random.default_rng(6)
    for n in (1, 2, 3, 5):
        for _ in range(20):
            d = rng.exponential(size=n) * 10.0 ** rng.integers(-6, 6, size=n)
            d[rng.uniform(size=n) < 0.2] = 0.0
            assert np.array_equal(_psd_roots(np.diag(d)[None])[0][0], np.diag(np.sqrt(d)))


def test_sqrt_psd_singular_input():
    rng = np.random.default_rng(2)
    v = rng.standard_normal(4)
    a = np.outer(v, v)
    root = _psd_roots(a[None])[0][0]
    assert_allclose(root @ root.T, a, atol=1e-10)


def test_sqrt_psd_rejects_bad_input():
    with pytest.raises(NumericsError):
        _screened_roots(np.array([[-1.0]]))
    with pytest.raises(NumericsError):
        _screened_roots(np.array([[np.nan]]))


def test_solve_psd_matches_reference():
    rng = np.random.default_rng(3)
    a = random_spd(rng, 5)
    b = rng.standard_normal((5, 3))
    assert_allclose(_cho_solve_jittered(a, b), np.linalg.solve(a, b), atol=1e-10)
    x = rng.standard_normal(5)
    assert_allclose(_cho_solve_jittered(a, x), np.linalg.solve(a, x), atol=1e-10)


def test_solve_psd_jitter_recovers_singular():
    # Rank-deficient PSD left-hand side: the escalating jitter makes the
    # factorization succeed and the residual stays tiny for a consistent
    # right-hand side.
    rng = np.random.default_rng(4)
    v = rng.standard_normal(3)
    a = np.outer(v, v)
    b = a @ rng.standard_normal(3)
    x = _cho_solve_jittered(a, b)
    assert_allclose(a @ x, b, atol=1e-6)


def test_solve_psd_indefinite_fails():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NumericsError):
        _cho_solve_jittered(a, np.ones(2))


def test_ensure_psd_passes_through_psd():
    rng = np.random.default_rng(5)
    a = random_spd(rng, 4)
    assert_allclose(_clip_psd(a[None], np.ones(1))[0][0], a, atol=1e-14)


def test_ensure_psd_clips_roundoff():
    a = np.diag([1.0, -1e-14])
    out = _clip_psd(a[None], np.ones(1))[0][0]
    assert out[1, 1] == 0.0
    assert np.min(np.linalg.eigvalsh(out)) >= 0.0


def test_ensure_psd_rejects_indefinite():
    assert _clip_psd(np.diag([1.0, -1.0])[None], np.ones(1))[1]
    assert _clip_psd(np.array([[[np.nan]]]), np.ones(1))[1]


def test_ensure_psd_scale_widens_tolerance():
    # Relative to its own largest eigenvalue the -1e-12 entry is badly
    # negative, but relative to the caller's scale it is roundoff.
    a = np.diag([1e-20, -1e-12])[None]
    assert _clip_psd(a, np.array([1e-12]))[1]
    out, problems = _clip_psd(a, np.ones(1))
    assert not problems and out[0, 1, 1] == 0.0


def test_ensure_psd_scalar_paths():
    assert _clip_psd(np.array([[[2.5]]]), np.ones(1))[0][0, 0, 0] == 2.5
    assert _clip_psd(np.array([[[-1e-15]]]), np.ones(1))[0][0, 0, 0] == 0.0
    message = _clip_psd(np.array([[[-0.5]]]), np.array([0.5]))[1][0]
    assert "variance -0.5 is negative" in message
    assert "np.float64" not in message


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_clip_psd_reports_non_finite_input(bad):
    # The filter's fit calls the stacked clip kernel directly: a NaN
    # variance is not "negative", and a 2x2 matrix holding NaN or inf is
    # reported, not passed back as a NaN matrix. A finite neighbour in
    # the stack is clipped as on its own.
    for mat in (np.array([[bad]]), np.array([[1.0, bad], [bad, 2.0]])):
        good = np.eye(mat.shape[0])
        out, problems = _clip_psd(np.stack([good, mat]), np.ones(2))
        assert list(problems) == [1] and "non-finite" in problems[1]
        assert np.array_equal(out[0], good)
        assert "non-finite" in _clip_psd(mat[None], np.ones(1))[1][0]


def _weighted_points(rng, k, m, n):
    # n points of a feature (n, k) with a constant first column, states
    # (m, n) that depend on it plus noise, and positive weights summing
    # to 1.
    cols = np.column_stack([np.ones(n), rng.standard_normal((n, k - 1))])
    rows = (cols @ rng.standard_normal((k, m))).T + 0.1 * rng.standard_normal((m, n))
    w = rng.uniform(0.5, 1.5, n)
    return cols, rows, w / w.sum()


@pytest.mark.parametrize("k, m, n", [(2, 1, 5), (3, 1, 9), (4, 2, 40), (6, 3, 200), (3, 2, 4)])
def test_weighted_qr_solves_weighted_least_squares(k, m, n):
    # R^T R is A^T A for A = diag(sqrt_w) [cols | rows^T], the
    # coefficients are numpy's weighted least-squares solution and
    # R_22^T R_22 is the weighted second moment of its residual. With
    # n < k + m points, R has n rows.
    cols, rows, w = _weighted_points(np.random.default_rng(k * 100 + n), k, m, n)
    sqrt_w = np.sqrt(w)
    top, gamma = _weighted_qr(cols, rows, sqrt_w, np.empty((k + m, n)))
    assert top.shape == (min(n, k + m), k + m) and gamma.shape == (k, m)
    a = sqrt_w[:, None] * np.column_stack([cols, rows.T])
    r = np.triu(top)
    assert_allclose(r.T @ r, a.T @ a, rtol=1e-12, atol=1e-14)
    ref = np.linalg.lstsq(a[:, :k], a[:, k:], rcond=None)[0]
    assert_allclose(gamma, ref, rtol=1e-10, atol=1e-12)
    resid = a[:, k:] - a[:, :k] @ ref
    r_22 = r[k:, k:]
    assert_allclose(r_22.T @ r_22, resid.T @ resid, rtol=1e-8, atol=1e-14)


def test_weighted_qr_ignores_zero_weight_points():
    # A point of weight zero is a zero row of A, so appending points of
    # weight zero, however wild, leaves the fit as it was.
    rng = np.random.default_rng(11)
    cols, rows, w = _weighted_points(rng, 3, 2, 30)
    extra_cols = np.column_stack([np.ones(5), 1e6 * rng.standard_normal((5, 2))])
    extra_rows = 1e6 * rng.standard_normal((2, 5))
    gamma = _weighted_qr(cols, rows, np.sqrt(w), np.empty((5, 30)))[1]
    padded = _weighted_qr(
        np.vstack([cols, extra_cols]),
        np.hstack([rows, extra_rows]),
        np.sqrt(np.concatenate([w, np.zeros(5)])),
        np.empty((5, 35)),
    )[1]
    assert_allclose(padded, gamma, rtol=1e-12, atol=1e-14)


def test_gaussian_pdf_matches_scipy():
    x = np.linspace(-4.0, 7.0, 23)
    ref = stats.norm.pdf(x, loc=0.3, scale=np.sqrt(2.5))
    assert_allclose(gaussian_pdf(x, 0.3, 2.5), ref, rtol=1e-12)
    assert_allclose(gaussian_log_pdf(x, 0.3, 2.5), stats.norm.logpdf(x, 0.3, np.sqrt(2.5)),
                    rtol=1e-12)


def test_gaussian_log_pdf_survives_underflow():
    assert gaussian_pdf(60.0) == 0.0
    assert np.isfinite(gaussian_log_pdf(60.0))
    assert_allclose(gaussian_log_pdf(60.0), -0.5 * (3600.0 + np.log(2.0 * np.pi)))


def test_psd_rel_tol_is_small():
    assert 0.0 < PSD_REL_TOL <= 1e-8


# A finite matrix whose entries sum past the largest float.
HUGE = np.diag([8e307] * 3)


def test_huge_finite_matrices_pass_the_finite_screen():
    assert np.array_equal(_psd_roots(HUGE[None])[0][0], np.diag([np.sqrt(8e307)] * 3))
    assert np.array_equal(_clip_psd(HUGE[None], np.ones(1))[0][0], HUGE)
    assert_allclose(_cho_solve_jittered(HUGE, np.full(3, 8e307)), np.ones(3))


def _screened_roots(mat):
    if not _psd_roots(mat[None])[1][0]:
        raise NumericsError("screened out")


# Every consumer of the PSD screen, each fed one 2x2 matrix.
PSD_SCREENED = {
    "GaussianBelief": lambda m: GaussianBelief(np.zeros(2), m),
    "JointMoments": lambda m: JointMoments(
        mu_x=np.zeros(2),
        mu_f=np.array([1.0, 0.0]),
        s_xx=m,
        s_ff=np.diag([0.0, 1.0]),
        s_xf=np.zeros((2, 2)),
    ),
    "FgfPosteriorParams": lambda m: FgfPosteriorParams(gamma=np.ones((2, 3)), sigma=m),
    "_psd_roots": _screened_roots,
}


@pytest.mark.parametrize("consumer", sorted(PSD_SCREENED))
def test_psd_screen_is_shared(consumer):
    # Eigenvalues (1, -0.5 * tol) are PSD up to roundoff, (1, -1.5 * tol)
    # are not, for every consumer alike.
    q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((2, 2)))
    inside, outside = (
        symmetrize((q * np.array([1.0, -f * PSD_REL_TOL])) @ q.T) for f in (0.5, 1.5)
    )
    screen = PSD_SCREENED[consumer]
    screen(inside)
    with pytest.raises(NumericsError):
        screen(outside)


def _symmetric_stacks(rng, d, n_lanes):
    # PSD, indefinite and singular stacks, then stacks with one entry
    # (and its mirror) non-finite in one matrix.
    for _ in range(20):
        a = rng.standard_normal((n_lanes, d, d))
        yield a @ a.swapaxes(1, 2)
        yield a + a.swapaxes(1, 2)
        v = rng.standard_normal((n_lanes, d, 1))
        yield v @ v.swapaxes(1, 2)
    for bad in (np.nan, np.inf, -np.inf):
        for i in range(d):
            for j in range(i + 1):
                a = rng.standard_normal((n_lanes, d, d))
                a = a @ a.swapaxes(1, 2)
                lane = rng.integers(n_lanes)
                a[lane, i, j] = a[lane, j, i] = bad
                yield a


@pytest.mark.parametrize("n_lanes", [1, 7])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_eigh_is_numpy_eigh_bit_for_bit(d, n_lanes):
    # Same eigenvalues and eigenvectors, NaN where numpy gives NaN; where
    # numpy's LAPACK call fails (it raises LinAlgError), _eigh raises
    # NumericsError. Which non-finite inputs fail depends on the LAPACK
    # build; every finite stack must come through.
    rng = np.random.default_rng(100 * d + n_lanes)
    finite = 0
    for a in _symmetric_stacks(rng, d, n_lanes):
        try:
            want = np.linalg.eigh(a)
        except np.linalg.LinAlgError:
            with pytest.raises(NumericsError, match="dsyevd info"):
                _eigh(a)
            continue
        got = _eigh(a)
        assert np.array_equal(got[0], want[0], equal_nan=True)
        assert np.array_equal(got[1], want[1], equal_nan=True)
        finite += bool(np.isfinite(a).all())
    assert finite == 60


def test_eigh_raises_on_nonzero_lapack_info(monkeypatch):
    def failing(a, lower):
        return np.zeros(len(a)), np.zeros_like(a), -4

    monkeypatch.setattr(fgfilter._linalg, "dsyevd", failing)
    with pytest.raises(NumericsError, match="dsyevd info -4"):
        _eigh(np.eye(3)[None])
    with pytest.raises(NumericsError, match="dsyevd info -4"):
        _psd_roots(np.eye(3)[None])
