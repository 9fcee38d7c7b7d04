"""Engine tests: hand-computed forward oracles, finite-difference gradient
checks for every operation, DAG accumulation within one backward (and none
across calls), and the strict deterministic matrix product."""

import ast
import gc
import os
import pathlib
import subprocess
import sys
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
    batch_norm,
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
    stack_rows,
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
        s = SparseMatrix.from_dense(np.zeros((3, 3)))
        h = Value(np.arange(6.0).reshape(3, 2))
        np.testing.assert_array_equal(spmm(s, h).data, np.zeros((3, 2)))

    def test_relu_clamps_negatives(self):
        x = Value([[-1.0, 0.0, 2.0]])
        np.testing.assert_array_equal(relu(x).data, [[0.0, 0.0, 2.0]])

    def test_relu_zeros_are_positive_and_nan_propagates(self):
        # a NaN input stays NaN, so it reaches the non-finite-loss check
        out = relu(Value([[-0.0, 0.0, -1.0, np.nan, 2.0]])).data
        np.testing.assert_array_equal(out, [[0.0, 0.0, 0.0, np.nan, 2.0]])
        assert not np.signbit(out[0, :3]).any()
        assert np.isnan(sum_squares(relu(Value([[np.nan, 1.0]]))).item())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_finite_forward_is_bitwise_the_masked_select(self, dtype):
        x = np.random.default_rng(5).normal(size=(50, 8)).astype(dtype)
        x[0, :4] = [0.0, -0.0, 1e-300, -1e-300]
        ref = np.where(x > 0.0, x, 0.0)
        out = relu(Value(x)).data
        assert out.dtype == ref.dtype
        assert out.tobytes() == ref.tobytes()

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

    def test_add_row_overwrite_a_writes_into_a(self):
        rng = np.random.default_rng(70)
        for dtype in (np.float32, np.float64):
            data = rng.normal(size=(6, 3)).astype(dtype)
            row = rng.normal(size=(1, 3)).astype(dtype)
            a, b = Value(data.copy()), Value(row)
            out = add_row(a, b, overwrite_a=True)
            assert out.data is a.data
            assert out.data.tobytes() == (data + row).tobytes()
            g = rng.normal(size=(6, 3)).astype(dtype)
            grads = backward(mse_per(out, constant(g), 1.0))
            ref_a, ref_b = Value(data.copy()), Value(row)
            ref = backward(mse_per(add_row(ref_a, ref_b), constant(g), 1.0))
            assert grads[b].tobytes() == ref[ref_b].tobytes()
            assert grads[a].tobytes() == ref[ref_a].tobytes()
        # a float32 ``a`` that a float64 row promotes is left alone
        a = Value(np.ones((2, 3), np.float32))
        out = add_row(a, Value(np.ones((1, 3))), overwrite_a=True)
        assert out.data.dtype == np.float64 and (a.data == 1.0).all()

    def test_sqrt_eps_at_zero(self):
        assert sqrt_eps(Value([[0.0]])).item() == pytest.approx(1e-6)

    def test_sqrt_eps_exact(self):
        assert sqrt_eps(Value([[4.0]])).item() == pytest.approx(2.0)

    def test_sqrt_eps_gradient_at_zero(self):
        x = Value([[0.0]])
        backward(sqrt_eps(x))
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

    def test_contributions_arrive_in_reverse_creation_order(self):
        # x feeds three consumers, which the loss sums out of creation
        # order; float addition is not associative, so the order is part of
        # the gradient's bits
        x = Value([[0.0]])
        arrived = []

        def consumer(tag, g_out):
            def _back(g):
                arrived.append(tag)
                engine._accumulate(x, np.full((1, 1), g_out))
            return Value([[0.0]], parents=(x,), backward=_back, op=tag)

        first, second, third = (consumer("first", 1e16),
                                consumer("second", 1.0),
                                consumer("third", -1e16))
        grads = backward(add(add(third, first), second))
        assert arrived == ["third", "second", "first"]
        assert grads[x][0, 0] == (-1e16 + 1.0) + 1e16 == 0.0

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
        assert getattr(y._backward, "__closure__", None) is None  # holds nothing

    def test_walking_the_same_loss_twice_raises(self):
        rng = np.random.default_rng(7)
        w = rand_value(rng, 2, 2)
        loss = sum_squares(scale(w, 3.0))
        first = backward(loss)[w]
        with pytest.raises(ValueError, match="already walked; run the forward again"):
            backward(loss)
        assert w.grad is first  # the refused walk changed nothing

    def test_a_loss_on_a_walked_subgraph_raises(self):
        # h was consumed by the first walk; a second loss built on it would
        # otherwise reach h as a leaf and give w no gradient
        rng = np.random.default_rng(11)
        w = rand_value(rng, 2, 2)
        h = scale(w, 3.0)
        backward(sum_squares(h))
        with pytest.raises(ValueError, match="already walked"):
            backward(sum_squares(scale(h, 2.0)))

    def test_retain_graph_is_refused(self):
        w = Value([[2.0]])
        with pytest.raises(ValueError, match="walked once"):
            backward(sum_squares(w), retain_graph=True)
        assert w.grad is None

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

    @pytest.mark.parametrize("add_first", [True, False])
    def test_a_gradient_shared_through_add_is_never_written(self, add_first):
        # add hands one array to both operands as their gradient; p's later
        # contribution must go into an array of its own, not into the one q
        # holds. Either term of the loss may reach p first.
        rng = np.random.default_rng(30)
        p, q = rand_value(rng, 3, 2), rand_value(rng, 3, 2)
        shared_term = sum_squares(add(p, q))
        own_term = sum_squares(scale(p, 2.0))
        loss = add(shared_term, own_term) if add_first else add(own_term, shared_term)
        grads = backward(loss)
        shared = 2.0 * (p.data + q.data)
        assert grads[q].tobytes() == shared.tobytes()
        assert not np.shares_memory(grads[p], grads[q])
        assert grads[p].tobytes() == (shared + (2.0 * (2.0 * p.data)) * 2.0).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_owned_gradients_sum_to_the_bits_of_fresh_sums(self, monkeypatch, dtype):
        # x gets three fresh matmul products, added in place into the first
        rng = np.random.default_rng(31)
        x = Value(rng.normal(size=(5, 4)).astype(dtype))
        ws = [Value(rng.normal(size=(4, 3)).astype(dtype)) for _ in range(3)]

        def loss():
            return sum_squares(add(add(matmul(x, ws[0]), matmul(x, ws[1])),
                                   matmul(x, ws[2])))

        owned = backward(loss())[x]

        def into_a_third_array(node, g, fresh=False):
            if node.op != "const":
                node.grad = g if node.grad is None else node.grad + g

        monkeypatch.setattr(engine, "_accumulate", into_a_third_array)
        assert backward(loss())[x].tobytes() == owned.tobytes()

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

    def test_constant_leaf_gets_no_gradient(self):
        rng = np.random.default_rng(9)
        x, w = rng.normal(size=(5, 3)), rand_value(rng, 3, 2)
        ordinary = backward(sum_squares(add(matmul(Value(x), w), Value(np.ones((5, 2))))))[w]
        c = constant(x)
        grads = backward(sum_squares(add(matmul(c, w), constant(np.ones((5, 2))))))
        assert set(grads) == {w}
        assert c.grad is None
        np.testing.assert_array_equal(grads[w], ordinary)

    def test_spmm_computes_no_gradient_for_a_constant(self, monkeypatch):
        rng = np.random.default_rng(10)
        s = SparseMatrix.from_dense(np.eye(5)[::-1])
        x, w = rng.normal(size=(5, 3)), rand_value(rng, 3, 2)
        ordinary = backward(sum_squares(matmul(spmm(s, Value(x)), w)))[w]

        def unused(self, dense):
            raise AssertionError("rmatmat of a constant operand")

        monkeypatch.setattr(SparseMatrix, "rmatmat", unused)
        grads = backward(sum_squares(matmul(spmm(s, constant(x)), w)))
        assert set(grads) == {w}
        np.testing.assert_array_equal(grads[w], ordinary)


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

    def test_stack_rows(self):
        rng = np.random.default_rng(23)
        a, b = rand_value(rng, 3, 2), rand_value(rng, 1, 2)
        x = rng.uniform(-2, 2, size=(5, 4))
        target = rng.uniform(-2, 2, size=(5, 2))
        self.check(lambda: mse_per(matmul(Value(x), stack_rows(a, b)), Value(target), 5.0),
                   [a, b])

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
        self.check(lambda: sqrt_eps(sum_squares(a)), [a])

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

    def test_grad_check_rejects_float32_params(self):
        # step 1e-3 and tol 1e-4 are float64 tolerances
        a = Value(np.ones((2, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="float32"):
            grad_check(lambda: sum_squares(a), [a])


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
            np.testing.assert_array_equal(out, SparseMatrix.from_dense(dense.T).matmat(g))
            np.testing.assert_allclose(out, dense.T @ g, rtol=1e-13, atol=1e-15)


class TestSparseMatrixAgainstScipy:
    """``SparseMatrix`` builds its CSR arrays in numpy; scipy's own
    construction is the oracle, down to the bits of ``data`` and the index
    dtype."""

    @staticmethod
    def scipy_csr(rows, cols, values, shape):
        import scipy.sparse as sp
        csr = sp.csr_matrix((np.asarray(values, dtype=np.float64),
                             (np.asarray(rows, dtype=np.intp),
                              np.asarray(cols, dtype=np.intp))), shape=shape)
        csr.sum_duplicates()
        csr.sort_indices()
        return csr

    @staticmethod
    def assert_same_csr(s, csr):
        assert s.shape == csr.shape
        for name in ("indptr", "indices", "data"):
            ours, theirs = getattr(s, name), getattr(csr, name)
            assert ours.dtype == theirs.dtype, name
            assert ours.tobytes() == theirs.tobytes(), name

    def test_from_dense_and_to_dense_round_trip(self):
        import scipy.sparse as sp
        rng = np.random.default_rng(36)
        for m, k in [(1, 1), (5, 3), (3, 9), (12, 12)]:
            dense = np.where(rng.uniform(size=(m, k)) < 0.4, rng.normal(size=(m, k)), 0.0)
            dense[-1] = 0.0  # a trailing empty row
            s = SparseMatrix.from_dense(dense)
            self.assert_same_csr(s, sp.csr_matrix(dense))
            back = s.to_dense()
            assert back.dtype == np.float64 and back.flags.c_contiguous
            assert back.tobytes() == dense.tobytes()
            self.assert_same_csr(SparseMatrix.from_dense(back), sp.csr_matrix(dense))

    @pytest.mark.parametrize("dense", [
        # zeros, a negative zero among them, are not stored
        [[0.0, -0.0, 1.5], [-0.0, 2.5, 0.0], [0.0, 0.0, -3.0]],
        # empty rows in the middle and at the end
        [[0.0, 1.0], [0.0, 0.0], [0.0, 0.0], [2.0, 3.0], [0.0, 0.0]],
        # integer and float32 inputs become float64
        np.array([[0, 3, 0], [-1, 0, 2]], dtype=np.int64),
        np.array([[0.1, 0.0], [0.0, 0.2]], dtype=np.float32),
        np.zeros((0, 0)),
        np.zeros((0, 4)),
        np.zeros((4, 0)),
    ])
    def test_from_dense_matches_scipy(self, dense):
        import scipy.sparse as sp
        s = SparseMatrix.from_dense(dense)
        assert s.data.dtype == np.float64
        for r in range(s.shape[0]):
            assert (np.diff(s.indices[s.indptr[r]:s.indptr[r + 1]]) > 0).all()
        self.assert_same_csr(s, sp.csr_matrix(np.asarray(dense, dtype=np.float64)))

    @pytest.mark.parametrize("a", [np.float64(1.0), np.ones(3), np.ones((2, 2, 2))])
    def test_from_dense_rejects_a_non_matrix(self, a):
        with pytest.raises(ValueError, match="expects a matrix"):
            SparseMatrix.from_dense(a)

    def test_trusted_constructor_equals_scipy_on_every_callers_input(self, monkeypatch):
        from latentgraph import graphs

        calls = []
        trusted = SparseMatrix._from_sorted_coo.__func__

        def recording(cls, rows, cols, values, shape):
            calls.append(tuple(np.array(a) for a in (rows, cols, values)) + (shape,))
            return trusted(cls, rows, cols, values, shape)

        monkeypatch.setattr(SparseMatrix, "_from_sorted_coo", classmethod(recording))
        rng = np.random.default_rng(37)
        blobs = list(graphs.make_blob_dataset(6, 2, rng, feature_dim=3))
        # self-loops, repeated and one-sided edges, an isolated last node
        loops = graphs._symmetrized_adjacency(5, [0, 2, 2, 1, 3], [0, 1, 1, 2, 3])
        blobs.append(graphs.Graph(5, loops, np.ones((5, 3))))
        # a batch and its pool are cut from CSR arrays: no call
        graphs.batch_graphs(blobs).pool_matrix()
        sbm = graphs.make_sbm_graph(60, 3, 0.2, 0.02, 4, rng)
        graphs.sample_node_subset(sbm, 25, rng)
        monkeypatch.undo()
        # 7 graphs, the SBM graph, the subset
        assert len(calls) == 9
        for rows, cols, values, shape in calls:
            # every caller builds a 0/1 matrix from float32 ones, which the
            # trusted constructor keeps; scipy's is built from float64
            # values, so the arrays are compared with the values in float64
            trusted = SparseMatrix._from_sorted_coo(rows, cols, values, shape)
            assert values.dtype == trusted.data.dtype == np.float32
            assert SparseMatrix.from_dense(trusted.to_dense()).data.dtype == np.float64
            assert trusted.data.tobytes() == np.ones(trusted.nnz, np.float32).tobytes()
            self.assert_same_csr(trusted.astype(np.float64),
                                 self.scipy_csr(rows, cols, values, shape))

    @staticmethod
    def product_cases(rng):
        """Matrices with empty rows, no entries or no rows, one with int64
        index arrays set by hand."""
        cases = []
        for m, k in [(6, 4), (30, 17), (1, 9), (9, 1)]:
            dense = np.where(rng.uniform(size=(m, k)) < 0.4, rng.normal(size=(m, k)), 0.0)
            dense[m // 2] = 0.0
            cases.append(SparseMatrix.from_dense(dense))
        wide = SparseMatrix.from_dense(cases[1].to_dense())
        wide.indptr, wide.indices = wide.indptr.astype(np.int64), wide.indices.astype(np.int64)
        cases.append(wide)
        cases += [SparseMatrix.from_dense(np.zeros(shape)) for shape in [(5, 3), (0, 4), (4, 0)]]
        return cases

    def test_products_match_scipy_bitwise(self):
        import scipy.sparse as sp
        rng = np.random.default_rng(38)
        for s in self.product_cases(rng):
            m, k = s.shape
            csr = sp.csr_matrix((s.data, s.indices, s.indptr), shape=s.shape)
            for width in (0, 1, 3):
                d, g = rng.normal(size=(k, 2 * width)), rng.normal(size=(m, 2 * width))
                # contiguous, Fortran-ordered and strided operands
                for dd, gg in [(d[:, :width], g[:, :width]),
                               (np.asfortranarray(d[:, :width]), np.asfortranarray(g[:, :width])),
                               (d[:, ::2], g[:, ::2])]:
                    for ours, theirs in [(s.matmat(dd), csr @ dd), (s.rmatmat(gg), csr.T @ gg)]:
                        assert ours.shape == theirs.shape
                        assert ours.flags.c_contiguous
                        assert ours.tobytes() == np.ascontiguousarray(theirs).tobytes()

    def test_products_reject_a_mismatched_operand(self):
        s = SparseMatrix.from_dense(np.eye(3, 2))
        for bad in (np.ones((3, 2)), np.ones(2), np.ones((2, 2, 1))):
            with pytest.raises(ValueError):
                s.matmat(bad)
        with pytest.raises(ValueError):
            s.rmatmat(np.ones((2, 2)))

    def test_installed_scipy_has_the_kernels(self):
        import scipy.sparse._sparsetools as sparsetools
        for name in ("csr_matvecs", "csc_matvecs"):
            assert callable(getattr(sparsetools, name))
            assert getattr(engine._sparsetools(), name) is not None

    def test_missing_kernels_name_the_scipy_version(self, monkeypatch):
        import importlib.machinery

        import scipy
        monkeypatch.setattr(engine, "_SPARSETOOLS", None)
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
        with pytest.raises(ImportError, match=f"scipy: {scipy.__version__}$"):
            SparseMatrix.from_dense(np.eye(2)).matmat(np.ones((2, 1)))

    def test_scipy_version_is_read_from_the_install(self, monkeypatch):
        import importlib.util

        import scipy
        assert engine.scipy_version() == scipy.__version__
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
        with pytest.raises(ImportError, match="scipy is not installed"):
            engine.scipy_version()

    @pytest.mark.parametrize("first", ["scipy.sparse", "product"])
    def test_products_stay_right_whichever_loads_first(self, first):
        """One process that imports ``scipy.sparse`` before or after its
        first product gets scipy's products throughout."""
        code = ("import numpy as np\n"
                f"if {first!r} == 'scipy.sparse':\n"
                "    import scipy.sparse\n"
                "from latentgraph.engine import SparseMatrix\n"
                "rng = np.random.default_rng(39)\n"
                "a = np.where(rng.uniform(size=(20, 15)) < 0.3, rng.normal(size=(20, 15)), 0.0)\n"
                "s = SparseMatrix.from_dense(a)\n"
                "d, g = rng.normal(size=(15, 4)), rng.normal(size=(20, 3))\n"
                "early = [s.matmat(d), s.rmatmat(g)]\n"
                "import scipy.sparse as sp\n"
                "csr = sp.csr_matrix((s.data, s.indices, s.indptr), shape=s.shape)\n"
                "late = [s.matmat(d), s.rmatmat(g)]\n"
                "want = [csr @ d, csr.T @ g] * 2\n"
                "print(all(x.tobytes() == y.tobytes() for x, y in zip(early + late, want)))\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(engine.__file__)))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                text=True, cwd="/", env=dict(os.environ, PYTHONPATH=path))
        assert result.returncode == 0, result.stderr
        assert result.stdout.split()[-1] == "True"


STRICT_SHAPES = [(0, 5, 3), (6, 1, 4), (9, 7, 1), (1, 3, 4), (300, 32, 32),
                 (37, 700, 16), (12, 1024, 5)]
STRICT_DTYPES = [(np.float64, np.float64), (np.float32, np.float32),
                 (np.float32, np.float64), (np.float64, np.float32)]


class TestStrictDeterminism:
    @staticmethod
    def per_row_gemv(a, b):
        """Reference strict product: one ``a[i] @ b`` GEMV per row, looped in
        Python."""
        out = np.empty((a.shape[0], b.shape[1]), dtype=np.result_type(a, b))
        for i in range(a.shape[0]):
            out[i] = a[i] @ b
        return out

    @staticmethod
    def assert_same_bits(actual, expected):
        assert actual.dtype == expected.dtype and actual.shape == expected.shape
        np.testing.assert_array_equal(
            actual.view(np.uint8), np.ascontiguousarray(expected).view(np.uint8))

    @pytest.mark.parametrize("dtypes", STRICT_DTYPES,
                             ids=lambda d: f"{d[0].__name__}-{d[1].__name__}")
    @pytest.mark.parametrize("shape", STRICT_SHAPES,
                             ids=lambda s: "x".join(map(str, s)))
    def test_strict_matmul_matches_per_row_gemv_bitwise(self, shape, dtypes):
        # forward a @ b, and the backward's g @ b.T and a.T @ g, whose
        # transposed operands are strided views
        n, k, q = shape
        rng = np.random.default_rng(n * 10007 + k * 101 + q)
        a = Value(rng.standard_normal((n, k)).astype(dtypes[0]))
        b = Value(rng.standard_normal((k, q)).astype(dtypes[1]))
        engine.set_strict_determinism(True)
        try:
            out = matmul(a, b)
            grads = backward(sum_squares(out))
        finally:
            engine.set_strict_determinism(False)
        expected = self.per_row_gemv(a.data, b.data)
        self.assert_same_bits(out.data, expected)
        g = 2.0 * expected  # the upstream gradient of sum_squares
        self.assert_same_bits(grads[a], self.per_row_gemv(g, b.data.T))
        self.assert_same_bits(grads[b], self.per_row_gemv(a.data.T, g))

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
        """One result of every engine op, in both modes."""
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


class TestRecompute:
    """A matmul holds a left operand's ``_recompute`` closure, not its data."""

    @staticmethod
    def product(dtype, recomputable, calls):
        rng = np.random.default_rng(42)
        x = Value(rng.uniform(-2.0, 2.0, size=(9, 4)).astype(dtype))
        w = Value(rng.uniform(-2.0, 2.0, size=(4, 3)).astype(dtype))
        a = scale(x, 0.75)
        if recomputable:
            def again():
                calls.append(1)
                return x.data * 0.75
            a._recompute = again
        out = matmul(a, w)
        data = weakref.ref(a.data)
        release(a)
        gc.collect()
        held = data() is not None
        g = backward(sum_squares(out))
        return held, [out.data, g[x], g[w]]

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_the_stored_operand(self, dtype, strict, monkeypatch):
        monkeypatch.setattr(engine, "_STRICT", strict)
        calls = []
        held, stored = self.product(dtype, False, calls)
        assert held and calls == []
        held, recomputed = self.product(dtype, True, calls)
        assert not held and calls == [1]
        for a, b in zip(stored, recomputed):
            assert a.dtype == b.dtype == dtype
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_product_of_a_constant_is_recomputable(self, dtype, strict, monkeypatch):
        # its recompute runs the forward's product again, bit for bit
        monkeypatch.setattr(engine, "_STRICT", strict)
        rng = np.random.default_rng(43)
        a = constant(rng.normal(size=(300, 9)).astype(dtype))
        w = Value(rng.normal(size=(9, 64)).astype(dtype))
        out = matmul(a, w)
        assert out._recompute is not None
        for _ in range(3):
            again = out._recompute()
            assert again.dtype == dtype and again.tobytes() == out.data.tobytes()
        # a left operand that takes a gradient is not recomputable
        assert matmul(Value(a.data), w)._recompute is None
        with no_grad():
            assert matmul(a, w)._recompute is None

    def test_backward_drops_the_closure(self):
        x, w = Value(np.ones((2, 2))), Value(np.ones((2, 2)))
        a = scale(x, 2.0)
        a._recompute = lambda: x.data * 2.0
        backward(sum_squares(matmul(a, w)))
        assert a._recompute is None



def _dtype_cases():
    """Per op: a builder taking (leaf maker, dtype) that returns the op's
    output and the leaves it should send a gradient to."""
    s = SparseMatrix.from_dense(np.array([[1.0, 0, 2], [0, 0, 1], [3, 0, 0]]))
    one_hot = np.eye(4)[[0, 3, 1]]  # float64 targets whatever the logits

    def batch_norm_case(training):
        def build(leaf, dtype):
            x, gamma, beta = leaf(3, 4), leaf(1, 4), leaf(1, 4)
            stats = np.zeros((1, 4), dtype=dtype), np.ones((1, 4), dtype=dtype)
            out = batch_norm(x, gamma, beta, *stats, training=training)
            assert all(a.dtype == dtype for a in stats)
            return out, [x, gamma, beta]
        return build

    def binary(op):
        def build(leaf, dtype):
            a, b = leaf(3, 4), leaf(3, 4)
            return op(a, b), [a, b]
        return build

    def unary(op, rows=3, cols=4):
        def build(leaf, dtype):
            a = leaf(rows, cols)
            return op(a), [a]
        return build

    def matmul_case(leaf, dtype):
        a, b = leaf(3, 4), leaf(4, 2)
        return matmul(a, b), [a, b]

    def stack_rows_case(leaf, dtype):
        a, b = leaf(3, 4), leaf(1, 4)
        return stack_rows(a, b), [a, b]

    def add_row_case(leaf, dtype):
        a, b = leaf(3, 4), leaf(1, 4)
        return add_row(a, b), [a, b]

    def sqrt_eps_case(leaf, dtype):
        x = Value(np.array([[2.0]], dtype=dtype))
        return sqrt_eps(x), [x]

    return {
        "matmul": matmul_case,
        "matmul-strict": matmul_case,
        "spmm": unary(lambda d: spmm(s.astype(d.data.dtype), d)),
        "add": binary(add),
        "add_row": add_row_case,
        "stack_rows": stack_rows_case,
        "sub": binary(sub),
        "hadamard": binary(hadamard),
        "scale": unary(lambda a: scale(a, 0.5)),
        "relu": unary(relu),
        "row_select": unary(lambda h: row_select(h, [2, 0, 2])),
        "sum_squares": unary(sum_squares),
        "mse_per": binary(lambda a, b: mse_per(a, b, 3.0)),
        "sqrt_eps": sqrt_eps_case,
        "softmax_ce": unary(lambda z: softmax_ce(z, one_hot)),
        "kl_div": binary(kl_div),
        "batch_norm-train": batch_norm_case(True),
        "batch_norm-eval": batch_norm_case(False),
    }


DTYPE_CASES = _dtype_cases()
# engine.__all__ names that are not differentiable ops
NOT_OPS = {"Value", "SparseMatrix", "backward", "release", "no_grad", "grad_check",
           "GradCheckReport", "constant", "set_strict_determinism",
           "strict_determinism_enabled", "scipy_version",
           "first_non_stochastic_row"}


class TestDtypes:
    """Every op keeps its operands' dtype, forward and backward: float32 in
    gives float32 data and float32 gradients, float64 gives float64."""

    def test_every_op_has_a_case(self):
        ops = {name.split("-")[0] for name in DTYPE_CASES}
        assert ops == set(engine.__all__) - NOT_OPS

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", sorted(DTYPE_CASES))
    def test_op_keeps_its_operands_dtype(self, case, dtype, monkeypatch):
        monkeypatch.setattr(engine, "_STRICT", case == "matmul-strict")
        rng = np.random.default_rng(0)

        def leaf(rows, cols):
            return Value(rng.uniform(-2.0, 2.0, size=(rows, cols)).astype(dtype))

        out, leaves = DTYPE_CASES[case](leaf, dtype)
        assert out.data.dtype == dtype
        loss = out if out.shape == (1, 1) else sum_squares(out)
        grads = backward(loss)
        assert [grads[v].dtype for v in leaves] == [np.dtype(dtype)] * len(leaves)

    @pytest.mark.parametrize("op", ["sum_squares", "mse_per", "softmax_ce", "kl_div"])
    def test_a_float64_scalar_gradient_does_not_upcast(self, op):
        # the incoming 1x1 gradient scales the operands' gradients as a
        # Python float, so its dtype does not leak into them
        rng = np.random.default_rng(1)

        def leaf(rows, cols):
            return Value(rng.normal(size=(rows, cols)).astype(np.float32))

        out, leaves = DTYPE_CASES[op](leaf, np.float32)
        out._backward(np.ones((1, 1)))
        assert [v.grad.dtype for v in leaves] == [np.dtype(np.float32)] * len(leaves)

    def test_mixed_operands_promote_to_float64(self):
        a = Value(np.ones((2, 2), dtype=np.float32))
        b = Value(np.ones((2, 2)))
        assert add(a, b).data.dtype == np.float64

    def test_values_other_than_float32_become_float64(self):
        for data in ([[1, 2]], np.ones((1, 2), dtype=np.int32), np.float16(1.0), 3):
            assert Value(data).data.dtype == np.float64
        assert Value(np.float32(1.0)).data.dtype == np.float32

    def test_float32_sparse_products_match_scipy_bitwise(self):
        import scipy.sparse as sp
        rng = np.random.default_rng(2)
        dense = np.where(rng.uniform(size=(6, 5)) < 0.4, rng.normal(size=(6, 5)), 0.0)
        s = SparseMatrix.from_dense(dense).astype(np.float32)
        assert s.data.dtype == np.float32 and s.astype(np.float32) is s
        csr = sp.csr_matrix((s.data, s.indices, s.indptr), shape=s.shape)
        d = rng.normal(size=(5, 3)).astype(np.float32)
        g = rng.normal(size=(6, 3)).astype(np.float32)
        for ours, theirs in [(s.matmat(d), csr @ d), (s.rmatmat(g), csr.T @ g)]:
            assert ours.dtype == np.float32
            assert ours.tobytes() == np.ascontiguousarray(theirs).tobytes()
        # a float64 operand promotes the product, as numpy would
        assert s.matmat(d.astype(np.float64)).dtype == np.float64


def test_no_module_uses_an_engine_private():
    """A module's private names stay inside it, the engine's protocol
    (``_accumulate``, the recording flags, ...) above all: every module
    imports or reads public names of the package's other modules only."""
    package = pathlib.Path(engine.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    found = []
    for path in sorted(package.glob("*.py")):
        others = modules - {path.stem}
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level == 1 or (node.module or "").startswith("latentgraph")):
                names = [alias.name for alias in node.names]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in others):
                names = [node.attr]
            else:
                continue
            # a dunder such as __version__ is public
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.startswith("_") and not name.endswith("__")]
    assert found == []
