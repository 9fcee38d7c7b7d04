"""Engine tests: hand-computed forward oracles, finite-difference gradient
checks for every operation, DAG accumulation within one backward (and none
across calls), and the strict deterministic matrix product."""

import gc
import weakref

import numpy as np
import pytest

from latentgraph import engine
from latentgraph.engine import (
    GradCheckReport,
    SparseMatrix,
    Value,
    add,
    add_row,
    backward,
    constant,
    grad_check,
    hadamard,
    kl_div,
    matmul,
    mse_per,
    no_grad,
    release,
    relu,
    row_select,
    scale,
    softmax_ce,
    spmm,
    sqrt_eps,
    sub,
    sum_squares,
)


def rand_value(rng, rows, cols, lo=-2.0, hi=2.0):
    return Value(rng.uniform(lo, hi, size=(rows, cols)))


class TestForwardOracles:
    def test_matmul_identity(self):
        a = Value([[1.0, 2.0], [3.0, 4.0]])
        eye = Value(np.eye(2))
        np.testing.assert_array_equal(matmul(a, eye).data, a.data)

    def test_matmul_column(self):
        a = Value(np.eye(2))
        b = Value([[2.0], [3.0]])
        np.testing.assert_array_equal(matmul(a, b).data, [[2.0], [3.0]])

    def test_spmm_path_graph(self):
        adj = SparseMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])
        h = Value([[1.0], [2.0]])
        np.testing.assert_array_equal(spmm(adj, h).data, [[2.0], [1.0]])

    def test_spmm_all_zero(self):
        s = SparseMatrix.from_coo([], [], [], shape=(3, 3))
        h = Value(np.arange(6.0).reshape(3, 2))
        np.testing.assert_array_equal(spmm(s, h).data, np.zeros((3, 2)))

    def test_relu_clamps_negatives(self):
        x = Value([[-1.0, 0.0, 2.0]])
        np.testing.assert_array_equal(relu(x).data, [[0.0, 0.0, 2.0]])

    def test_hadamard_with_ones_is_identity(self):
        rng = np.random.default_rng(0)
        x = rand_value(rng, 3, 4)
        np.testing.assert_array_equal(hadamard(x, Value(np.ones((3, 4)))).data, x.data)

    def test_row_select_reorders_rows(self):
        h = Value([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(row_select(h, [2, 0]).data, [[5.0, 6.0], [1.0, 2.0]])

    def test_row_select_full_range_is_identity(self):
        rng = np.random.default_rng(1)
        h = rand_value(rng, 5, 3)
        np.testing.assert_array_equal(row_select(h, range(5)).data, h.data)

    def test_row_select_empty(self):
        h = Value(np.ones((3, 2)))
        assert row_select(h, []).data.shape == (0, 2)

    def test_mse_per_hand_value(self):
        # (1-0)^2 + (2-0)^2 = 5, divisor 1
        out = mse_per(Value([[1.0, 2.0]]), Value([[0.0, 0.0]]), 1.0)
        assert out.item() == pytest.approx(5.0)

    def test_mse_per_zero_on_equal_inputs(self):
        x = Value([[1.0, 2.0], [3.0, 4.0]])
        y = Value(x.data.copy())
        assert mse_per(x, y, 4.0).item() == 0.0

    def test_add_row_broadcasts_over_rows(self):
        a = Value([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        b = Value([[10.0, 20.0]])
        np.testing.assert_array_equal(add_row(a, b).data,
                                      [[11.0, 22.0], [13.0, 24.0], [15.0, 26.0]])

    def test_sqrt_eps_at_zero(self):
        assert sqrt_eps(Value([[0.0]]), eps=1e-12).item() == pytest.approx(1e-6)

    def test_sqrt_eps_exact(self):
        assert sqrt_eps(Value([[4.0]]), eps=0.0).item() == pytest.approx(2.0)

    def test_sqrt_eps_gradient_at_zero(self):
        x = Value([[0.0]])
        backward(sqrt_eps(x, eps=1e-12))
        assert x.grad[0, 0] == pytest.approx(5e5)

    def test_softmax_ce_uniform_logits(self):
        d = 5
        logits = Value(np.zeros((3, d)))
        targets = np.eye(d)[[0, 2, 4]]
        assert softmax_ce(logits, targets).item() == pytest.approx(np.log(d))

    def test_kl_div_identical_logits_is_zero(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-2, 2, size=(4, 3))
        assert kl_div(Value(x), Value(x.copy())).item() == pytest.approx(0.0, abs=1e-15)

    def test_scale_and_sub(self):
        x = Value([[1.0, -2.0]])
        y = Value([[0.5, 0.5]])
        np.testing.assert_array_equal(scale(x, 2.0).data, [[2.0, -4.0]])
        np.testing.assert_array_equal(sub(x, y).data, [[0.5, -2.5]])

    def test_forward_results_finite_on_finite_inputs(self):
        rng = np.random.default_rng(3)
        a = rand_value(rng, 4, 4)
        b = rand_value(rng, 4, 4)
        outs = [
            matmul(a, b),
            add(a, b),
            hadamard(a, b),
            relu(a),
            sum_squares(a),
            mse_per(a, b, 4.0),
            softmax_ce(a, np.eye(4)),
            kl_div(a, b),
        ]
        for out in outs:
            assert np.isfinite(out.data).all()


class TestBackward:
    def test_sum_squares_scalar(self):
        w = Value([[3.0]])
        backward(sum_squares(w))
        assert w.grad[0, 0] == pytest.approx(6.0)

    def test_unreachable_param_gets_no_gradient(self):
        w = Value([[1.0]])
        x = Value([[2.0]])
        grads = backward(sum_squares(x))
        assert w not in grads
        assert w.grad is None

    def test_diamond_graph_accumulates(self):
        # y = w + w, loss = sum(y^2) = 4 w^2, dloss/dw = 8w
        w = Value([[1.5]])
        backward(sum_squares(add(w, w)))
        assert w.grad[0, 0] == pytest.approx(8.0 * 1.5)

    def test_fanout_accumulates_path_sum(self):
        # z = w*w (hadamard), loss = sum(z) via mse against 0: d/dw sum(w^2)/1 = 2w
        rng = np.random.default_rng(4)
        w = rand_value(rng, 3, 3)
        loss = mse_per(hadamard(w, w), Value(np.zeros((3, 3))), 1.0)
        # loss = sum(w^4), gradient 4 w^3
        backward(loss)
        np.testing.assert_allclose(w.grad, 4.0 * w.data**3, rtol=1e-12)

    def test_backward_rejects_non_scalar(self):
        w = Value(np.ones((2, 2)))
        with pytest.raises(ValueError):
            backward(add(w, w))

    def test_graph_dropped_after_backward(self):
        w = Value([[2.0]])
        y = sum_squares(w)
        backward(y)
        assert y._parents == ()
        assert y._backward is None

    def test_default_backward_returns_leaf_gradients_only(self):
        rng = np.random.default_rng(5)
        x, w, b = rand_value(rng, 4, 3), rand_value(rng, 3, 2), rand_value(rng, 1, 2)
        h = add_row(matmul(x, w), b)
        z = relu(h)
        loss = sum_squares(z)
        grads = backward(loss)
        assert set(grads) == {x, w, b}
        assert all(isinstance(g, np.ndarray) for g in grads.values())
        assert grads[w] is w.grad
        for interior in (h, z, loss):
            assert interior.grad is None
            assert interior._parents == ()

    def test_interior_values_are_freed_once_the_loss_is_dropped(self):
        rng = np.random.default_rng(6)
        x, w = rand_value(rng, 4, 3), rand_value(rng, 3, 2)
        h = matmul(x, w)
        ref = weakref.ref(h)
        loss = sum_squares(relu(h))
        del h
        grads = backward(loss)
        del loss
        gc.collect()
        assert ref() is None
        assert set(grads) == {x, w}

    def test_retain_graph_returns_interior_gradients(self):
        rng = np.random.default_rng(7)
        w = rand_value(rng, 2, 2)
        h = scale(w, 3.0)
        loss = sum_squares(h)
        grads = backward(loss, retain_graph=True)
        assert set(grads) == {w, h, loss}
        np.testing.assert_allclose(grads[h], 2.0 * h.data)
        np.testing.assert_allclose(grads[w], 18.0 * w.data)
        assert h._parents == (w,)

    def test_retain_graph_allows_second_pass(self):
        # the second pass returns this loss's gradient again, not twice it
        w = Value([[2.0]])
        y = sum_squares(w)
        first = backward(y, retain_graph=True)[w]
        second = backward(y)
        np.testing.assert_array_equal(second[w], first)
        assert w.grad is second[w]

    def test_each_backward_returns_only_its_own_gradient(self):
        rng = np.random.default_rng(8)
        x, w = rand_value(rng, 4, 3), rand_value(rng, 3, 2)
        first = backward(sum_squares(matmul(x, w)))
        np.testing.assert_allclose(
            first[w], 2.0 * x.data.T @ (x.data @ w.data), rtol=1e-12)
        kept = first[w].copy()
        second = backward(sum_squares(scale(w, 3.0)))
        assert set(second) == {w}
        np.testing.assert_allclose(second[w], 18.0 * w.data, rtol=1e-12)
        assert w.grad is second[w]
        np.testing.assert_array_equal(first[w], kept)


class TestGradChecks:
    """Central differences at step 1e-3 against analytic gradients, error
    measured as |a-n| / max(1, |a|, |n|)."""

    TOL = 1e-4

    def check(self, f, params, tol=TOL):
        report = grad_check(f, params, step=1e-3, tol=tol)
        assert report.ok, (
            f"max rel err {report.max_rel_err:.3e} at param {report.worst_param} "
            f"coord {report.worst_coord} (analytic {report.worst_analytic:.6e}, "
            f"numeric {report.worst_numeric:.6e})"
        )
        return report

    def test_matmul(self):
        rng = np.random.default_rng(10)
        a, b = rand_value(rng, 3, 4), rand_value(rng, 4, 2)
        target = rng.uniform(-2, 2, size=(3, 2))
        self.check(lambda: mse_per(matmul(a, b), Value(target), 6.0), [a, b])

    def test_spmm(self):
        rng = np.random.default_rng(11)
        dense = (rng.uniform(0, 1, size=(5, 5)) < 0.4).astype(float)
        s = SparseMatrix.from_dense(dense)
        d = rand_value(rng, 5, 3)
        target = rng.uniform(-2, 2, size=(5, 3))
        self.check(lambda: mse_per(spmm(s, d), Value(target), 5.0), [d])

    def test_add_row(self):
        rng = np.random.default_rng(22)
        a, b = rand_value(rng, 5, 3), rand_value(rng, 1, 3)
        target = rng.uniform(-2, 2, size=(5, 3))
        self.check(lambda: mse_per(add_row(a, b), Value(target), 5.0), [a, b])

    def test_add_sub_hadamard_scale(self):
        rng = np.random.default_rng(12)
        a, b = rand_value(rng, 4, 4), rand_value(rng, 4, 4)
        target = rng.uniform(-2, 2, size=(4, 4))

        def f():
            mixed = add(hadamard(a, b), scale(sub(a, b), 0.7))
            return mse_per(mixed, Value(target), 16.0)

        self.check(f, [a, b])

    def test_relu(self):
        rng = np.random.default_rng(13)
        # keep inputs away from the kink so the finite difference is meaningful
        x = rng.uniform(-2, 2, size=(4, 4))
        x[np.abs(x) < 0.05] = 0.1
        a = Value(x)
        target = rng.uniform(-2, 2, size=(4, 4))
        self.check(lambda: mse_per(relu(a), Value(target), 4.0), [a])

    def test_row_select_with_duplicates(self):
        rng = np.random.default_rng(14)
        h = rand_value(rng, 5, 3)
        idx = [0, 3, 3, 1]
        target = rng.uniform(-2, 2, size=(4, 3))
        self.check(lambda: mse_per(row_select(h, idx), Value(target), 4.0), [h])

    def test_sum_squares_and_sqrt(self):
        rng = np.random.default_rng(15)
        a = rand_value(rng, 3, 3)
        self.check(lambda: sqrt_eps(sum_squares(a), eps=1e-12), [a])

    def test_mse_per_both_sides(self):
        rng = np.random.default_rng(16)
        a, b = rand_value(rng, 4, 3), rand_value(rng, 4, 3)
        self.check(lambda: mse_per(a, b, 7.0), [a, b])

    def test_softmax_ce(self):
        rng = np.random.default_rng(17)
        logits = rand_value(rng, 3, 4)
        targets = np.eye(4)[rng.integers(0, 4, size=3)]
        self.check(lambda: softmax_ce(logits, targets), [logits])

    def test_kl_div_both_arguments(self):
        rng = np.random.default_rng(18)
        p, q = rand_value(rng, 3, 4), rand_value(rng, 3, 4)
        self.check(lambda: kl_div(p, q), [p, q])

    def test_composite_expression(self):
        rng = np.random.default_rng(19)
        w1, w2 = rand_value(rng, 4, 6), rand_value(rng, 6, 4)
        x = rng.uniform(-2, 2, size=(5, 4))
        adj = SparseMatrix.from_dense((rng.uniform(0, 1, (5, 5)) < 0.4).astype(float))

        def f():
            h = relu(matmul(spmm(adj, Value(x)), w1))
            back = matmul(h, w2)
            recon = mse_per(back, Value(x), 5.0)
            gap = sqrt_eps(mse_per(row_select(back, [1, 3]), Value(x[[1, 3]]), 2.0))
            return add(recon, scale(gap, 0.5))

        self.check(f, [w1, w2])

    def test_linear_function_near_machine_precision(self):
        rng = np.random.default_rng(20)
        a = rand_value(rng, 3, 3)
        ones = Value(np.ones((3, 3)))
        report = grad_check(lambda: mse_per(hadamard(a, ones), Value(np.zeros((3, 3))), 1.0),
                            [a], step=1e-3, tol=1e-4)
        # quadratic loss: central differences are exact up to rounding
        assert report.max_rel_err < 1e-9

    def test_corrupted_gradient_is_flagged(self):
        rng = np.random.default_rng(21)
        a = rand_value(rng, 2, 2)

        def buggy_double(v):
            out = Value(v.data * 2.0, parents=(v,), op="buggy")

            def _back(g):
                v.grad = (v.grad if v.grad is not None else 0) + g * 3.0  # wrong: should be 2

            out._backward = _back
            return out

        report = grad_check(
            lambda: mse_per(buggy_double(a), Value(np.zeros((2, 2))), 1.0),
            [a], step=1e-3, tol=1e-4,
        )
        assert not report.ok
        assert report.failures


class TestErrors:
    def test_matmul_shape_error(self):
        with pytest.raises(ValueError):
            matmul(Value(np.ones((2, 3))), Value(np.ones((2, 3))))

    def test_add_shape_error(self):
        with pytest.raises(ValueError):
            add(Value(np.ones((2, 3))), Value(np.ones((3, 2))))

    def test_add_row_shape_error(self):
        a = Value(np.ones((2, 3)))
        for bad in (np.ones((1, 2)), np.ones((2, 3)), np.ones((3, 1))):
            with pytest.raises(ValueError):
                add_row(a, Value(bad))

    def test_spmm_shape_error(self):
        s = SparseMatrix.from_dense(np.ones((2, 2)))
        with pytest.raises(ValueError):
            spmm(s, Value(np.ones((3, 1))))

    def test_row_select_out_of_range(self):
        h = Value(np.ones((3, 2)))
        with pytest.raises(IndexError):
            row_select(h, [0, 3])
        with pytest.raises(IndexError):
            row_select(h, [-1])

    def test_mse_per_rejects_nonpositive_divisor(self):
        x = Value(np.ones((2, 2)))
        with pytest.raises(ValueError):
            mse_per(x, x, 0.0)

    def test_sqrt_eps_rejects_negative(self):
        with pytest.raises(ValueError):
            sqrt_eps(Value([[-0.5]]))

    def test_softmax_ce_rejects_non_stochastic_targets(self):
        logits = Value(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            softmax_ce(logits, np.ones((2, 3)))

    def test_grad_check_rejects_nonpositive_step(self):
        a = Value([[1.0]])
        with pytest.raises(ValueError):
            grad_check(lambda: sum_squares(a), [a], step=0.0)


class TestSparseMatrix:
    def test_spmm_matches_dense_matmul_exactly_on_integer_data(self):
        # integer-valued doubles make the product exact, so any summation
        # order gives bit-identical results
        rng = np.random.default_rng(30)
        for _ in range(20):
            m = int(rng.integers(1, 17))
            k = int(rng.integers(1, 17))
            n = int(rng.integers(1, 9))
            dense = np.where(rng.uniform(0, 1, (m, k)) < 0.3,
                             rng.integers(-8, 9, size=(m, k)), 0).astype(float)
            s = SparseMatrix.from_dense(dense)
            d = rng.integers(-8, 9, size=(k, n)).astype(float)
            np.testing.assert_array_equal(s.matmat(d), dense @ d)

    def test_spmm_matches_index_ordered_accumulation_bitwise(self):
        # float oracle summed in ascending column order, the CSR iteration order
        rng = np.random.default_rng(32)
        for _ in range(10):
            m = int(rng.integers(1, 17))
            k = int(rng.integers(1, 17))
            dense = np.where(rng.uniform(0, 1, (m, k)) < 0.4, rng.normal(size=(m, k)), 0.0)
            s = SparseMatrix.from_dense(dense)
            d = rng.normal(size=(k, 3))
            expected = np.zeros((m, 3))
            for i in range(m):
                for j in range(3):
                    acc = 0.0
                    for kk in range(k):
                        if dense[i, kk] != 0.0:
                            acc += dense[i, kk] * d[kk, j]
                    expected[i, j] = acc
            np.testing.assert_array_equal(s.matmat(d), expected)

    def test_spmm_matches_dense_matmul_float(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            m = int(rng.integers(1, 17))
            k = int(rng.integers(1, 17))
            dense = np.where(rng.uniform(0, 1, (m, k)) < 0.3, rng.normal(size=(m, k)), 0.0)
            s = SparseMatrix.from_dense(dense)
            d = rng.normal(size=(k, 4))
            np.testing.assert_allclose(s.matmat(d), dense @ d, rtol=1e-13, atol=1e-15)

    def test_csr_fields_strictly_increasing(self):
        s = SparseMatrix.from_coo([0, 0, 1, 0], [2, 0, 1, 2], [1.0, 2.0, 3.0, 4.0], (2, 3))
        for r in range(s.shape[0]):
            row_cols = s.indices[s.indptr[r]:s.indptr[r + 1]]
            assert (np.diff(row_cols) > 0).all()

    def test_duplicate_coo_entries_are_summed(self):
        s = SparseMatrix.from_coo([0, 0], [1, 1], [1.5, 2.5], (1, 2))
        np.testing.assert_array_equal(s.to_dense(), [[0.0, 4.0]])

    def test_out_of_range_coo_indices_rejected(self):
        with pytest.raises(IndexError):
            SparseMatrix.from_coo([0], [5], [1.0], (2, 3))

    def test_transpose_round_trip(self):
        rng = np.random.default_rng(31)
        dense = np.where(rng.uniform(0, 1, (4, 6)) < 0.5, 1.0, 0.0)
        s = SparseMatrix.from_dense(dense)
        np.testing.assert_array_equal(s.transpose().to_dense(), dense.T)
        d = rng.normal(size=(4, 2))
        np.testing.assert_array_equal(s.transpose().matmat(d), dense.T @ d)

    def test_rmatmat_equals_the_transposed_product_bitwise(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            m = int(rng.integers(1, 40))
            k = int(rng.integers(1, 40))
            dense = np.where(rng.uniform(0, 1, (m, k)) < 0.3, rng.normal(size=(m, k)), 0.0)
            s = SparseMatrix.from_dense(dense)
            g = rng.normal(size=(m, int(rng.integers(1, 6))))
            out = s.rmatmat(g)
            assert out.flags.c_contiguous
            np.testing.assert_array_equal(out, s.transpose().matmat(g))
            np.testing.assert_allclose(out, dense.T @ g, rtol=1e-13, atol=1e-15)


class TestStrictDeterminism:
    def test_strict_matmul_is_slice_stable(self):
        rng = np.random.default_rng(40)
        a = rng.normal(size=(12, 7))
        b = rng.normal(size=(7, 5))
        engine.set_strict_determinism(True)
        try:
            full = matmul(Value(a), Value(b)).data
            top = matmul(Value(a[:5]), Value(b)).data
            bottom = matmul(Value(a[5:]), Value(b)).data
        finally:
            engine.set_strict_determinism(False)
        np.testing.assert_array_equal(full, np.vstack([top, bottom]))

    def test_strict_matches_default_on_integer_data(self):
        rng = np.random.default_rng(41)
        a = rng.integers(-5, 6, size=(6, 4)).astype(float)
        b = rng.integers(-5, 6, size=(4, 3)).astype(float)
        fast = matmul(Value(a), Value(b)).data
        engine.set_strict_determinism(True)
        try:
            strict = matmul(Value(a), Value(b)).data
        finally:
            engine.set_strict_determinism(False)
        np.testing.assert_array_equal(fast, strict)

    def test_toggle_reports_state(self):
        assert not engine.strict_determinism_enabled()
        engine.set_strict_determinism(True)
        try:
            assert engine.strict_determinism_enabled()
        finally:
            engine.set_strict_determinism(False)


class TestNoGrad:
    def all_ops(self, rng):
        """One result of every engine op plus batch norm, in both modes."""
        from latentgraph.models import batch_norm

        a, b = rand_value(rng, 3, 4), rand_value(rng, 3, 4)
        w, row = rand_value(rng, 4, 2), rand_value(rng, 1, 4)
        s = SparseMatrix.from_dense(np.array([[1.0, 0, 2], [0, 0, 1], [3, 0, 0]]))
        targets = np.full((3, 4), 0.25)
        return [
            matmul(a, w), spmm(s, a), add(a, b), add_row(a, row), sub(a, b),
            hadamard(a, b), scale(a, 1.5), relu(a), row_select(a, [2, 0]),
            sum_squares(a), mse_per(a, b, 2.0), sqrt_eps(sum_squares(a)),
            softmax_ce(a, targets), kl_div(a, b),
            batch_norm(a, Value(np.ones((1, 4))), Value(np.zeros((1, 4))),
                       np.zeros((1, 4)), np.ones((1, 4)), training=False),
        ]

    def test_ops_record_no_parents_and_no_closure(self):
        recorded = self.all_ops(np.random.default_rng(30))
        with no_grad():
            bare = self.all_ops(np.random.default_rng(30))
        assert len(bare) == 15
        for rec, out in zip(recorded, bare):
            assert rec._parents and rec._backward is not None, rec.op
            assert out._parents == () and out._backward is None, out.op
            assert out.op == rec.op
            np.testing.assert_array_equal(out.data, rec.data)

    def test_recording_resumes_after_the_block(self):
        a = Value(np.ones((2, 2)))
        with no_grad():
            with no_grad():
                pass
            assert scale(a, 2.0)._parents == ()
        out = scale(a, 2.0)
        assert out._parents == (a,)
        assert backward(sum_squares(out))[a] is not None

    def test_recording_resumes_when_the_block_raises(self):
        a = Value(np.ones((2, 2)))
        with pytest.raises(RuntimeError, match="inside"):
            with no_grad():
                raise RuntimeError("inside")
        assert scale(a, 2.0)._backward is not None


class TestRelease:
    """``release`` drops an interior Value's data; closures keep what they read."""

    def test_leaf_keeps_its_data(self):
        w = Value(np.ones((2, 3)))
        data = w.data
        release(w, constant([[1.0]]))
        assert w.data is data

    def test_nothing_is_released_under_no_grad(self):
        a = Value(np.ones((2, 2)))
        recorded = scale(a, 2.0)
        with no_grad():
            bare = scale(a, 2.0)
            release(recorded, bare, a)
        for v in (recorded, bare, a):
            assert v.data is not None

    def test_interior_value_drops_its_data(self):
        h = scale(Value(np.ones((2, 2))), 2.0)
        release(h)
        assert h.data is None
        assert "released" in repr(h)
        with pytest.raises(AttributeError):
            matmul(h, Value(np.ones((2, 2))))

    def test_released_matmul_input_leaves_gradients_unchanged(self):
        def grads(release_input):
            rng = np.random.default_rng(40)
            x, w = rand_value(rng, 4, 3), rand_value(rng, 3, 2)
            a = scale(x, 1.0)
            out = matmul(a, w)
            if release_input:
                release(a)
                assert a.data is None
            g = backward(sum_squares(out))
            return g[x], g[w]

        for kept, released in zip(grads(False), grads(True)):
            np.testing.assert_array_equal(kept, released)

    def test_every_op_backward_ignores_released_inputs(self):
        from latentgraph.models import batch_norm
        s = SparseMatrix.from_dense(np.array([[1.0, 0, 2], [0, 0, 1], [3, 0, 0]]))
        targets = np.full((3, 4), 0.25)
        ops = {
            "matmul": lambda a, b, w: matmul(a, w),
            "spmm": lambda a, b, w: spmm(s, a),
            "add": lambda a, b, w: add(a, b),
            "add_row": lambda a, b, w: add_row(a, row_select(b, [0])),
            "sub": lambda a, b, w: sub(a, b),
            "hadamard": lambda a, b, w: hadamard(a, b),
            "scale": lambda a, b, w: scale(a, 1.5),
            "relu": lambda a, b, w: relu(a),
            "row_select": lambda a, b, w: row_select(a, [2, 0, 2]),
            "sum_squares": lambda a, b, w: sum_squares(a),
            "mse_per": lambda a, b, w: mse_per(a, b, 2.0),
            "sqrt_eps": lambda a, b, w: sqrt_eps(sum_squares(a)),
            "softmax_ce": lambda a, b, w: softmax_ce(a, targets),
            "kl_div": lambda a, b, w: kl_div(a, b),
            "batch_norm": lambda a, b, w: batch_norm(
                a, w, row_select(b, [1]), np.zeros((1, 4)), np.ones((1, 4)),
                training=True),
        }

        def grads(op, release_inputs):
            rng = np.random.default_rng(41)
            leaves = [rand_value(rng, 3, 4), rand_value(rng, 3, 4)]
            # scaled by one: interior Values holding the leaves' numbers
            a, b = (scale(leaf, 1.0) for leaf in leaves)
            w_leaf = rand_value(rng, 4, 4)
            w = row_select(w_leaf, [0]) if op == "batch_norm" else scale(w_leaf, 1.0)
            out = ops[op](a, b, w)
            if release_inputs:
                release(a, b, w)
            g = backward(sum_squares(out))
            return [g.get(v) for v in leaves + [w_leaf]]

        for op in ops:
            for kept, released in zip(grads(op, False), grads(op, True)):
                if kept is None:
                    assert released is None, op
                else:
                    np.testing.assert_array_equal(kept, released, err_msg=op)

