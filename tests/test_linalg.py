import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scipy.linalg

from mpsprep import SvdConvergenceError
from mpsprep.linalg import (
    _SIGN_EPS,
    _fix_svd_signs,
    _gram_schmidt,
    _qr_signed,
    _svd_cut,
)

from conftest import householder_qr


def _fix_svd_signs_loop(u, vt):
    # Column-by-column reference for the vectorized sign fix.
    u = u.copy()
    vt = vt.copy()
    for j in range(u.shape[1]):
        col = u[:, j]
        nz = np.nonzero(np.abs(col) > _SIGN_EPS)[0]
        if len(nz) and col[nz[0]] < 0:
            u[:, j] = -col
            vt[j, :] = -vt[j, :]
    return u, vt


def _reconstruct(u, s, vt):
    return (u * s) @ vt


def _discarded(a, k):
    # Frobenius weight of the singular values past the k-th, from numpy's
    # own SVD: the Eckart-Young distance to the best rank-k approximation.
    s = np.linalg.svd(a, compute_uv=False)
    return np.sqrt(np.sum(s[k:] ** 2))


class TestTruncatedSvd:
    def test_identity(self):
        _, s, _ = _svd_cut(np.eye(2), None)
        assert np.allclose(s, [1.0, 1.0])

    def test_rank_one_frobenius(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        u, s, vt = _svd_cut(a, None)
        assert np.allclose(s, [5.0], atol=1e-12)
        assert np.linalg.norm(a - _reconstruct(u, s, vt)) <= 1e-12

    def test_reconstruction_8x6(self, rng):
        a = rng.standard_normal((8, 6))
        assert np.linalg.norm(_reconstruct(*_svd_cut(a, None)) - a) <= 1e-10

    def test_reconstruction_property(self, rng):
        for _ in range(20):
            m = int(rng.integers(1, 65))
            n = int(rng.integers(1, 65))
            a = rng.standard_normal((m, n))
            err = np.linalg.norm(_reconstruct(*_svd_cut(a, None)) - a)
            assert err <= 1e-9 * np.linalg.norm(a)

    def test_orthogonality(self, rng):
        u, _, vt = _svd_cut(rng.standard_normal((30, 12)), None)
        assert np.max(np.abs(u.T @ u - np.eye(12))) <= 1e-10
        assert np.max(np.abs(vt @ vt.T - np.eye(12))) <= 1e-10

    def test_sign_convention(self, rng):
        u, _, _ = _svd_cut(rng.standard_normal((9, 9)), None)
        for j in range(9):
            col = u[:, j]
            first = col[np.abs(col) > 1e-12][0]
            assert first > 0

    def test_sign_fix_matches_loop(self, rng):
        rank_deficient = rng.standard_normal((9, 3)) @ rng.standard_normal((3, 7))
        leading_zero = rng.standard_normal((6, 5))
        leading_zero[:2] = 0.0
        tiny_lead = rng.standard_normal((5, 5))
        tiny_lead[0] = -1e-13
        mats = [rng.standard_normal((m, n)) for m, n in ((8, 5), (5, 8), (1, 4))]
        mats += [rank_deficient, leading_zero, tiny_lead, np.zeros((3, 2))]
        cases = [np.linalg.svd(a, full_matrices=False)[::2] for a in mats]
        # a column with no entry above the threshold keeps its signs
        u, vt = rng.standard_normal((4, 3)), rng.standard_normal((3, 5))
        u[:, 1] = -1e-13
        cases.append((u, vt))
        for u, vt in cases:
            got, want = _fix_svd_signs(u, vt), _fix_svd_signs_loop(u, vt)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes()

    def test_sorted_nonincreasing(self, rng):
        _, s, _ = _svd_cut(rng.standard_normal((12, 7)), None)
        assert np.all(np.diff(s) <= 0)
        assert np.all(s >= 0)

    def test_gesvd_fallback(self, rng, monkeypatch):
        def diverge(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        a = rng.standard_normal((7, 5))
        monkeypatch.setattr(np.linalg, "svd", diverge)
        u, s, vt = _svd_cut(a, None)
        assert np.linalg.norm(_reconstruct(u, s, vt) - a) <= 1e-10
        for j in range(len(s)):
            col = u[:, j]
            assert col[np.abs(col) > 1e-12][0] > 0

        monkeypatch.setattr(scipy.linalg, "svd", diverge)
        with pytest.raises(SvdConvergenceError, match="7x5"):
            _svd_cut(a, None)

    def test_convergence_error_carries_dimensions(self):
        err = SvdConvergenceError(12, 7)
        assert err.rows == 12 and err.cols == 7
        assert "12x7" in str(err)

    def test_identity_rank1(self):
        a = np.eye(2)
        u, s, vt = _svd_cut(a, 1)
        assert np.allclose(s, [1.0])
        assert np.linalg.norm(a - _reconstruct(u, s, vt)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        a = np.diag([3.0, 2.0, 1.0])
        u, s, vt = _svd_cut(a, 2)
        assert np.allclose(s, [3.0, 2.0])
        assert np.linalg.norm(a - _reconstruct(u, s, vt)) == pytest.approx(1.0, abs=1e-12)

    def test_eckart_young_oracle(self, rng):
        a = rng.standard_normal((16, 16))
        u, s, vt = _svd_cut(a, 4)
        # independent oracle: distance to the best rank-4 approximation
        uu, ss, vvt = np.linalg.svd(a)
        best = (uu[:, :4] * ss[:4]) @ vvt[:4, :]
        err = np.linalg.norm(a - _reconstruct(u, s, vt))
        assert err == pytest.approx(np.linalg.norm(a - best), abs=1e-10)
        assert err == pytest.approx(_discarded(a, 4), abs=1e-10)

    def test_eckart_young_every_rank(self, rng):
        a = rng.standard_normal((10, 14))
        for k in range(1, 11):
            u, s, vt = _svd_cut(a, k)
            assert len(s) == k
            err = np.linalg.norm(a - _reconstruct(u, s, vt))
            assert abs(err - _discarded(a, k)) <= 1e-10

    def test_rank_floor_cuts_round_off(self):
        a = np.diag([1.0, 1e-14])
        u, s, vt = _svd_cut(a, None)
        assert len(s) == 1
        assert np.linalg.norm(a - _reconstruct(u, s, vt)) == pytest.approx(1e-14)

    def test_rank_floor_is_relative(self):
        a = np.diag([1.0, 1e-12, 1e-14])
        for scale in (1e-6, 1.0, 1e6):
            assert len(_svd_cut(scale * a, None)[1]) == 2

    def test_zero_matrix_keeps_one_null_triplet(self):
        u, s, vt = _svd_cut(np.zeros((3, 2)), 2)
        assert u.shape == (3, 1) and vt.shape == (1, 2)
        assert len(s) == 1 and s[0] == 0.0

    def test_cap_above_rank_keeps_numerical_rank(self, rng):
        a = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 5))
        u, s, vt = _svd_cut(a, 4)
        assert len(s) == 2
        assert u.shape == (6, 2) and vt.shape == (2, 5)
        assert np.linalg.norm(_reconstruct(u, s, vt) - a) <= 1e-10 * np.linalg.norm(a)


class TestQr:
    def test_identity(self):
        q, r = _qr_signed(np.eye(3))
        assert np.allclose(q, np.eye(3))
        assert np.allclose(r, np.eye(3))

    def test_single_column(self):
        q, r = _qr_signed(np.array([[3.0], [4.0]]))
        assert np.allclose(q, [[0.6], [0.8]])
        assert np.allclose(r, [[5.0]])

    def test_orthonormality_10x4(self, rng):
        a = rng.standard_normal((10, 4))
        q, r = _qr_signed(a)
        assert np.max(np.abs(q.T @ q - np.eye(4))) <= 1e-12
        assert np.max(np.abs(q @ r - a)) <= 1e-10
        assert np.all(np.diag(r) >= 0)
        assert np.allclose(r, np.triu(r))

    def test_rank_deficient_allowed(self):
        a = np.ones((4, 2))
        q, r = _qr_signed(a)
        assert np.max(np.abs(q @ r - a)) <= 1e-12

    @pytest.mark.parametrize(
        "shape,rank", [((6, 3), 3), ((4, 4), 4), ((2, 5), 2), ((5, 3), 1), ((3, 5), 1)]
    )
    def test_signed_qr_any_shape(self, rng, shape, rank):
        # tall, square, wide, and rank-deficient tall and wide
        rows, cols = shape
        m = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
        q, r = _qr_signed(m)
        assert q.shape == (rows, min(shape)) and r.shape == (min(shape), cols)
        assert np.all(np.diagonal(r) >= 0)
        assert np.max(np.abs(q @ r - m)) <= 1e-12 * np.max(np.abs(m))



class TestClosedFormQr:
    """Up to two columns, ``_qr_signed`` is Gram-Schmidt applied twice; it
    is LAPACK's signed QR up to rounding, at any scale."""

    @given(
        shape=st.sampled_from([(1, 1), (2, 1), (4, 1), (2, 2), (4, 2), (8, 2)]),
        e=st.integers(-1000, 1000),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_householder(self, shape, e, data):
        # entries are multiples of 2^-20 in [-1, 1], scaled by 2^e, so each
        # nonzero one is a normal float
        size = shape[0] * shape[1]
        ints = st.lists(st.integers(-(2**20), 2**20), min_size=size, max_size=size)
        m = np.ldexp(np.array(data.draw(ints), dtype=float).reshape(shape), e - 20)
        q, r = _qr_signed(m)
        hq, hr = householder_qr(m)
        assert q.shape == hq.shape and r.shape == hr.shape
        assert np.array_equal(r, np.triu(r)) and np.all(np.diagonal(r) >= 0)
        closed = _gram_schmidt(m)
        if closed is None:  # a zero or numerically dependent column
            assert np.array_equal(q, hq) and np.array_equal(r, hr)
            return
        assert np.array_equal(q, closed[0]) and np.array_equal(r, closed[1])
        cols = shape[1]
        assert np.max(np.abs(q.T @ q - np.eye(cols))) <= 1e-15
        scale = np.max(np.abs(m))
        assert np.max(np.abs(q @ r - m)) <= 1e-15 * scale
        if np.linalg.cond(m) <= 10:
            assert np.max(np.abs(q - hq)) <= 1e-14
            assert np.max(np.abs(r - hr)) <= 1e-14 * np.max(np.abs(hr))

    @pytest.mark.parametrize("e", [-1000, 0, 1000])
    def test_degenerate_and_wide_take_householder(self, rng, e):
        col = rng.standard_normal((4, 1))
        cases = [
            np.hstack([np.zeros((4, 1)), col]),  # zero first column
            np.hstack([col, np.zeros((4, 1))]),  # zero second column
            np.hstack([col, 3.0 * col]),  # parallel columns
            np.zeros((2, 1)),
            rng.standard_normal((1, 2)),  # wide
            rng.standard_normal((2, 4)),
        ]
        for m in cases:
            m = np.ldexp(m, e)
            if m.shape[0] >= m.shape[1]:
                assert _gram_schmidt(m) is None
            q, r = _qr_signed(m)
            hq, hr = householder_qr(m)
            assert np.array_equal(q, hq) and np.array_equal(r, hr)
