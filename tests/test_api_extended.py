"""Tests for the extended API surface: lu(), distributed runtime, options."""

import numpy as np
import pytest

import repro


class TestLuApi:
    def test_lu_reconstructs(self):
        packed, info = repro.lu(n=64, b=16, dist=repro.BlockCyclic2D(2, 2))
        n = 64
        L = np.tril(packed, -1) + np.eye(n)
        U = np.triu(packed)
        np.testing.assert_allclose(L @ U, info["a"], atol=1e-9)

    def test_lu_threads_runtime(self):
        packed, info = repro.lu(
            n=48, b=16, dist=repro.BlockCyclic2D(2, 2), runtime="threads"
        )
        n = 48
        L = np.tril(packed, -1) + np.eye(n)
        np.testing.assert_allclose(L @ np.triu(packed), info["a"], atol=1e-9)

    def test_lu_comm_counted(self):
        _packed, info = repro.lu(n=48, b=16, dist=repro.BlockCyclic2D(3, 2))
        assert info["comm"].total_bytes > 0


class TestDistributedRuntimeApi:
    def test_cholesky_distributed(self):
        import scipy.linalg

        L, info = repro.cholesky(
            n=80, b=16, dist=repro.SymmetricBlockCyclic(3), runtime="distributed"
        )
        np.testing.assert_allclose(
            L, scipy.linalg.cholesky(info["a"], lower=True), atol=1e-9
        )


class TestSimulateOptions:
    def test_broadcast_and_aggregate_preserve_bytes(self):
        d = repro.SymmetricBlockCyclic(4)
        base = repro.simulate_cholesky(ntiles=16, b=500, dist=d)
        tree = repro.simulate_cholesky(ntiles=16, b=500, dist=d, broadcast="tree")
        aggr = repro.simulate_cholesky(ntiles=16, b=500, dist=d, aggregate=True)
        assert base.comm_bytes == tree.comm_bytes == aggr.comm_bytes
        assert aggr.comm_messages <= base.comm_messages


class TestUserProvidedData:
    def _spd(self, n, seed=9):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, n))
        return g @ g.T + n * np.eye(n)

    def test_cholesky_user_matrix(self):
        import scipy.linalg

        a = self._spd(96)
        L, info = repro.cholesky(n=96, b=16, dist=repro.SymmetricBlockCyclic(4), a=a)
        np.testing.assert_allclose(
            L, scipy.linalg.cholesky(a, lower=True), atol=1e-9
        )
        np.testing.assert_array_equal(info["a"], a)

    def test_cholesky_user_matrix_distributed(self):
        import scipy.linalg

        a = self._spd(64)
        L, _info = repro.cholesky(
            n=64, b=16, dist=repro.SymmetricBlockCyclic(3), a=a,
            runtime="distributed",
        )
        np.testing.assert_allclose(
            L, scipy.linalg.cholesky(a, lower=True), atol=1e-9
        )

    def test_solve_user_system(self):
        import scipy.linalg

        a = self._spd(64)
        rhs = np.random.default_rng(1).standard_normal((64, 5))
        x, info = repro.solve(
            n=64, b=16, dist=repro.SymmetricBlockCyclic(3), a=a, rhs=rhs
        )
        np.testing.assert_allclose(a @ x, rhs, atol=1e-8)
        assert x.shape == (64, 5)

    def test_inverse_user_matrix(self):
        a = self._spd(64)
        inv, _info = repro.inverse(n=64, b=16, dist=repro.SymmetricBlockCyclic(4), a=a)
        np.testing.assert_allclose(inv @ a, np.eye(64), atol=1e-7)

    def test_rejects_wrong_size_matrix(self):
        with pytest.raises(ValueError):
            repro.cholesky(n=64, b=16, dist=repro.BlockCyclic2D(2, 2),
                           a=self._spd(32))

    def test_rejects_asymmetric_matrix(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            repro.cholesky(n=32, b=16, dist=repro.BlockCyclic2D(2, 2),
                           a=rng.standard_normal((32, 32)))

    def test_rejects_wrong_size_rhs(self):
        with pytest.raises(ValueError):
            repro.solve(n=64, b=16, dist=repro.BlockCyclic2D(2, 2),
                        rhs=np.zeros((32, 4)))
