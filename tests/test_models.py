"""Layer semantics, initialization statistics, equivariance properties, and
gradient checks through full encoder/decoder stacks."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from latentgraph import engine, models
from latentgraph.engine import (SparseMatrix, Value, constant, grad_check, matmul, mse_per,
                                relu)
from latentgraph.graphs import Graph, batch_graphs
from latentgraph.models import (
    BN_EPS,
    BatchNorm,
    Decoder,
    Encoder,
    GCNLayer,
    GINLayer,
    Linear,
    Model,
    build_model,
    readout_sum,
    xavier_init,
)
from latentgraph.training import preset_config


def single_node_graph(features):
    features = np.atleast_2d(np.asarray(features, dtype=float))
    return Graph(1, SparseMatrix.from_dense(np.zeros((1, 1))), features)


def triangle_graph(features):
    adj = SparseMatrix.from_dense(np.ones((3, 3)) - np.eye(3))
    return Graph(3, adj, np.asarray(features, dtype=float))


def cube_graph(features):
    """3-regular graph on 8 nodes: vertices are 3-bit strings, edges flip one bit."""
    pairs = [(u, u ^ (1 << b)) for u in range(8) for b in range(3) if u < (u ^ (1 << b))]
    dense = np.zeros((8, 8))
    dense[tuple(np.transpose(pairs))] = 1.0
    adj = SparseMatrix.from_dense(dense + dense.T)
    return Graph(8, adj, np.asarray(features, dtype=float))


def permute_graph(g, perm):
    dense = g.adjacency.to_dense()[np.ix_(perm, perm)]
    return Graph(g.num_nodes, SparseMatrix.from_dense(dense),
                 g.features[perm], g.label, None)


def dyadic_weights(model, rng):
    """Overwrite the linear maps' parameters with multiples of 1/16 so float
    sums are exact, and make every batch norm an exact relu in eval mode:
    unit gamma and zero beta, with identity running statistics."""
    for name, v in model.named_parameters():
        if ".bn" not in name:
            v.data = rng.integers(-8, 9, size=v.data.shape).astype(float) / 16.0
    layers = model.encoder.layers + model.decoder.layers
    for bn in [part for layer in layers for part in vars(layer).values()]:
        if isinstance(bn, BatchNorm):
            bn.set_identity_stats()


class TestXavierInit:
    def test_single_entry_within_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            w = xavier_init(1, 1, rng)
            assert abs(w[0, 0]) <= np.sqrt(3.0)

    def test_empirical_variance(self):
        rng = np.random.default_rng(1)
        rows, cols = 40, 60
        w = xavier_init(rows, cols, rng)
        # 2400 entries is plenty for a 5% check of var = 2/(rows+cols)
        target = 2.0 / (rows + cols)
        assert abs(w.var() - target) / target < 0.05

    def test_same_seed_identical(self):
        w1 = xavier_init(5, 7, np.random.default_rng(42))
        w2 = xavier_init(5, 7, np.random.default_rng(42))
        np.testing.assert_array_equal(w1, w2)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            xavier_init(0, 3, np.random.default_rng(0))


class TestBatchNorm:
    def test_train_mode_standardizes(self):
        # the relu after the normalisation passes everything once beta
        # lifts every unit above 0, so out - beta is the standardised batch
        rng = np.random.default_rng(2)
        bn = BatchNorm(4)
        bn.beta.data[:] = 10.0
        x = Value(rng.normal(3.0, 2.0, size=(50, 4)))
        out = bn(x, training=True)
        assert (out.data > 0.0).all()
        np.testing.assert_allclose((out.data - 10.0).mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose((out.data - 10.0).var(axis=0), 1.0, atol=1e-3)

    def test_running_stats_blend(self):
        bn = BatchNorm(2)
        x = Value(np.array([[2.0, 4.0], [4.0, 8.0]]))
        bn(x, training=True)
        np.testing.assert_allclose(bn.running_mean, 0.9 * 0.0 + 0.1 * np.array([[3.0, 6.0]]))
        np.testing.assert_allclose(bn.running_var, 0.9 * 1.0 + 0.1 * np.array([[1.0, 4.0]]))

    def test_eval_identity_stats_is_noop(self):
        rng = np.random.default_rng(3)
        bn = BatchNorm(3)
        bn.set_identity_stats()
        x = Value(rng.normal(size=(6, 3)))
        np.testing.assert_array_equal(bn(x, training=False).data, relu(x).data)

    def test_eval_mode_does_not_touch_running_stats(self):
        rng = np.random.default_rng(4)
        bn = BatchNorm(3)
        before = bn.running_mean.copy(), bn.running_var.copy()
        bn(Value(rng.normal(size=(5, 3))), training=False)
        np.testing.assert_array_equal(bn.running_mean, before[0])
        np.testing.assert_array_equal(bn.running_var, before[1])

    def test_gradcheck_train_mode(self):
        rng = np.random.default_rng(5)
        bn = BatchNorm(3)
        bn.gamma.data = rng.uniform(0.5, 1.5, size=(1, 3))
        bn.beta.data = rng.uniform(-0.5, 0.5, size=(1, 3))
        x = Value(rng.uniform(-2, 2, size=(6, 3)))
        target = rng.uniform(-2, 2, size=(6, 3))

        def f():
            # freeze running stats so repeated forward passes are identical
            bn.running_mean[:] = 0.0
            bn.running_var[:] = 1.0
            return mse_per(bn(x, training=True), Value(target), 6.0)

        report = grad_check(f, [x, bn.gamma, bn.beta], step=1e-3, tol=1e-4)
        assert report.ok, f"max rel err {report.max_rel_err:.3e}"

    def test_gradcheck_eval_mode(self):
        rng = np.random.default_rng(6)
        bn = BatchNorm(3)
        bn.running_mean[:] = rng.normal(size=(1, 3))
        bn.running_var[:] = rng.uniform(0.5, 2.0, size=(1, 3))
        x = Value(rng.uniform(-2, 2, size=(5, 3)))
        target = rng.uniform(-2, 2, size=(5, 3))
        report = grad_check(
            lambda: mse_per(bn(x, training=False), Value(target), 5.0),
            [x, bn.gamma, bn.beta], step=1e-3, tol=1e-4,
        )
        assert report.ok, f"max rel err {report.max_rel_err:.3e}"


def unfused_bn_relu(x, gamma, beta, running_mean, running_var, training,
                    momentum=0.9, eps=1e-5):
    """Reference: batch norm, then relu, as two separate steps in numpy."""
    if training:
        mu = x.mean(axis=0, keepdims=True)
        var = x.var(axis=0, keepdims=True)
        running_mean *= momentum
        running_mean += (1.0 - momentum) * mu
        running_var *= momentum
        running_var += (1.0 - momentum) * var
    else:
        mu, var = running_mean, running_var
    pre = gamma * ((x - mu) * (1.0 / np.sqrt(var + eps))) + beta
    return np.where(pre > 0.0, pre, 0.0)


class TestFusedBatchNorm:
    """``batch_norm`` is relu(gamma * xhat + beta) in one op."""

    def test_bitwise_the_unfused_reference(self):
        rng = np.random.default_rng(60)
        bn = BatchNorm(7)
        bn.gamma.data = rng.uniform(0.5, 1.5, size=(1, 7))
        bn.beta.data = rng.uniform(-0.5, 0.5, size=(1, 7))
        stats = bn.running_mean.copy(), bn.running_var.copy()
        gamma, beta = bn.gamma.data.copy(), bn.beta.data.copy()
        for training in (True, True, False):
            x = rng.normal(1.0, 2.0, size=(300, 7))
            out = bn(Value(x), training=training).data
            ref = unfused_bn_relu(x, gamma, beta, *stats, training=training)
            assert 0.0 < (ref > 0.0).mean() < 1.0
            assert out.tobytes() == ref.tobytes()
            assert bn.running_mean.tobytes() == stats[0].tobytes()
            assert bn.running_var.tobytes() == stats[1].tobytes()

    def test_rectifies_like_relu(self):
        # a -0.0 pre-activation comes out as +0.0 and a NaN stays NaN
        bn = BatchNorm(5)
        bn.set_identity_stats()
        bn.beta.data[:] = -0.0
        x = Value([[-0.0, 0.0, -1.0, np.nan, 2.0]])
        out = bn(x, training=False).data
        np.testing.assert_array_equal(out, relu(x).data)
        np.testing.assert_array_equal(out, [[0.0, 0.0, 0.0, np.nan, 2.0]])
        assert not np.signbit(out[0, :3]).any()

    @pytest.mark.parametrize("training", [True, False])
    def test_gradcheck_active_and_inactive_units(self, training):
        rng = np.random.default_rng(86)
        bn = BatchNorm(4)
        bn.gamma.data = rng.uniform(0.5, 1.5, size=(1, 4))
        bn.beta.data = np.array([[-0.4, -0.1, 0.1, 0.4]])
        running = rng.normal(size=(1, 4)), rng.uniform(0.5, 2.0, size=(1, 4))
        x = Value(rng.uniform(-2, 2, size=(10, 4)))
        target = rng.uniform(-2, 2, size=(10, 4))

        def f():
            # reset the running stats so repeated forward passes are identical
            bn.running_mean[:], bn.running_var[:] = running
            return mse_per(bn(x, training=training), Value(target), 10.0)

        # both kinds of unit, none within a step's reach of the kink
        mu, var = (x.data.mean(axis=0), x.data.var(axis=0)) if training else running
        pre = bn.gamma.data * (x.data - mu) / np.sqrt(var + BN_EPS) + bn.beta.data
        assert (pre > 0.05).any() and (pre < -0.05).any()
        assert np.abs(pre).min() > 0.05
        report = grad_check(f, [x, bn.gamma, bn.beta], step=1e-3, tol=1e-4)
        assert report.ok, f"max rel err {report.max_rel_err:.3e}"

    @pytest.mark.parametrize("training", [True, False])
    def test_backward_allocates_one_array(self, training):
        # row-block temporaries, and the input gradient only when it is not
        # written over xhat; the unfused batch norm held two 4000 x 64
        # arrays besides the incoming gradient
        rng = np.random.default_rng(62)
        bn = BatchNorm(64, dtype=np.float32)
        x = Value(rng.normal(size=(4000, 64)).astype(np.float32))
        g = rng.normal(size=(4000, 64)).astype(np.float32)
        out = bn(x, training=training)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out._backward(g)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert x.grad.shape == g.shape
        assert peak < 1.5 * g.nbytes, f"peak {peak / g.nbytes:.2f} arrays"

    def test_eval_forward_under_no_grad_allocates_one_array(self):
        rng = np.random.default_rng(63)
        bn = BatchNorm(64, dtype=np.float32)
        x = Value(rng.normal(size=(4000, 64)).astype(np.float32))
        with engine.no_grad():
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                out = bn(x, training=False)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert out.data.shape == x.data.shape
        assert peak < 1.25 * x.data.nbytes, f"peak {peak / x.data.nbytes:.2f} arrays"

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("training", [True, False])
    def test_a_matmul_recomputes_the_output_bitwise(self, training, dtype, strict,
                                                    monkeypatch):
        # the output is rebuilt from xhat for W's gradient, not held; the
        # forward and every gradient are bitwise those of holding it
        monkeypatch.setattr(engine, "_STRICT", strict)

        def run(recompute):
            rng = np.random.default_rng(64)
            bn = BatchNorm(6, dtype=dtype)
            bn.beta.data = rng.uniform(-0.5, 0.5, size=(1, 6)).astype(dtype)
            x = Value(rng.normal(size=(40, 6)).astype(dtype))
            w = Value(rng.normal(size=(6, 3)).astype(dtype))
            y = bn(x, training=training)
            assert y._recompute().tobytes() == y.data.tobytes()
            if not recompute:
                y._recompute = None
            out = matmul(y, w)
            engine.release(y)
            grads = engine.backward(mse_per(out, Value(np.zeros((40, 3), dtype)), 40.0))
            return [out.data] + [grads[v] for v in (x, bn.gamma, bn.beta, w)]

        for held, recomputed in zip(run(False), run(True)):
            assert held.dtype == recomputed.dtype == dtype
            assert held.tobytes() == recomputed.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("training", [True, False])
    def test_a_walk_writes_over_xhat_and_a_fresh_forward_repeats_it_bitwise(
            self, training, dtype):
        # the backward writes the input gradient over xhat, so the walked
        # graph cannot be walked again; a fresh forward gives the same
        # gradients bitwise. Three full row blocks and a ragged one.
        n = 3 * engine._BN_BLOCK_ROWS + 37

        def forward():
            rng = np.random.default_rng(67)
            bn = BatchNorm(6, dtype=dtype)
            bn.gamma.data = rng.uniform(0.5, 1.5, size=(1, 6)).astype(dtype)
            bn.beta.data = rng.uniform(-0.5, 0.5, size=(1, 6)).astype(dtype)
            bn.running_mean[:] = rng.normal(size=(1, 6))
            bn.running_var[:] = rng.uniform(0.5, 2.0, size=(1, 6))
            x = Value(rng.normal(size=(n, 6)).astype(dtype))
            w = Value(rng.normal(size=(6, 3)).astype(dtype))
            y = bn(x, training=training)
            assert 0.0 < (y.data > 0.0).mean() < 1.0
            loss = mse_per(matmul(y, w), Value(np.zeros((n, 3), dtype)), float(n))
            return loss, y, [x, bn.gamma, bn.beta, w]

        def walk(loss, params):
            grads = engine.backward(loss)
            assert all(grads[p].dtype == dtype for p in params)
            return [grads[p].tobytes() for p in params]

        loss, y, params = forward()
        rebuild = y._recompute
        assert rebuild().tobytes() == y.data.tobytes()  # xhat is intact
        first = walk(loss, params)
        assert rebuild().tobytes() != y.data.tobytes()  # xhat now holds dx
        with pytest.raises(ValueError, match="already walked"):
            engine.backward(loss)
        loss, _, params = forward()
        assert walk(loss, params) == first

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("training", [True, False])
    def test_a_recomputable_input_is_rebuilt_not_held(self, training, dtype, strict,
                                                      monkeypatch):
        # the private input is a product of a constant, so xhat is not kept:
        # the output's recompute rebuilds it bitwise the forward's and writes
        # the output over it, and every gradient, from the backward's own
        # rebuilt xhat, is bitwise that of holding it
        monkeypatch.setattr(engine, "_STRICT", strict)
        calls = []
        affine_relu = engine._affine_relu

        def recorded(xhat, gamma, beta, out):
            calls.append((xhat.tobytes(), out is xhat))
            return affine_relu(xhat, gamma, beta, out)

        monkeypatch.setattr(engine, "_affine_relu", recorded)
        n = 2 * engine._BN_BLOCK_ROWS + 37

        def run(rebuild):
            del calls[:]
            rng = np.random.default_rng(68)
            bn = BatchNorm(6, dtype=dtype)
            bn.gamma.data = rng.uniform(0.5, 1.5, size=(1, 6)).astype(dtype)
            bn.beta.data = rng.uniform(-0.5, 0.5, size=(1, 6)).astype(dtype)
            bn.running_mean[:] = rng.normal(size=(1, 6))
            bn.running_var[:] = rng.uniform(0.5, 2.0, size=(1, 6))
            a = constant(rng.normal(size=(n, 9)).astype(dtype))
            w = Value(rng.normal(size=(9, 6)).astype(dtype))
            v = Value(rng.normal(size=(6, 3)).astype(dtype))
            x = matmul(a, w)
            if not rebuild:
                x._recompute = None
            data = weakref.ref(x.data)
            y = bn(x, training=training, overwrite_x=True)
            engine.release(x)
            gc.collect()
            assert (data() is None) == rebuild
            out = y.data.copy()
            assert 0.0 < (out > 0.0).mean() < 1.0
            assert y._recompute().tobytes() == out.tobytes()
            loss = mse_per(matmul(y, v), Value(np.zeros((n, 3), dtype)), float(n))
            engine.release(y)
            grads = engine.backward(loss)
            return [out] + [grads[p] for p in (w, bn.gamma, bn.beta, v)]

        held = run(False)
        assert [over for _, over in calls] == [False, False, False]
        rebuilt = run(True)
        # the forward, the explicit recompute, the matmul backward's recompute
        assert [over for _, over in calls] == [False, True, True]
        assert len({xhat for xhat, _ in calls}) == 1
        for a, b in zip(held, rebuilt):
            assert a.dtype == b.dtype == dtype
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("training", [True, False])
    def test_a_callers_input_is_never_overwritten(self, training):
        rng = np.random.default_rng(65)
        x = Value(rng.normal(size=(30, 5)))
        before = x.data.tobytes()
        BatchNorm(5)(x, training=training)
        with engine.no_grad():
            BatchNorm(5)(x, training=training)
        assert x.data.tobytes() == before

    def test_overwrite_x_centres_the_input_in_place(self):
        rng = np.random.default_rng(66)
        bn = BatchNorm(5, dtype=np.float32)
        x = Value(rng.normal(size=(30, 5)).astype(np.float32))
        with engine.no_grad():
            # the centred input is the eval output: no array is made
            assert bn(x, training=False, overwrite_x=True).data is x.data
        # an input that float64 statistics promote is centred into a copy
        before = x.data.tobytes()
        out = BatchNorm(5)(x, training=False, overwrite_x=True)
        assert out.data.dtype == np.float64 and x.data.tobytes() == before


class TestLinear:
    def test_recorded_forward_allocates_one_output(self):
        # the bias goes into the product's fresh output; adding it into a
        # second array held two 4000 x 64 arrays
        rng = np.random.default_rng(64)
        lin = Linear(64, 64, rng, dtype=np.float32)
        lin.b.data[:] = rng.normal(size=(1, 64))
        x = Value(rng.normal(size=(4000, 64)).astype(np.float32))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = lin(x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * out.data.nbytes, f"peak {peak / out.data.nbytes:.2f} arrays"
        expected = x.data @ lin.W.data + lin.b.data
        assert out.data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("recording", [True, False])
    def test_in_place_bias_is_bitwise_the_copy(self, recording, monkeypatch):
        rng = np.random.default_rng(65)
        lin = Linear(5, 4, rng)
        lin.b.data[:] = rng.normal(size=(1, 4))
        x = Value(rng.normal(size=(7, 5)))
        target = Value(rng.normal(size=(7, 4)))

        def run():
            if not recording:
                with engine.no_grad():
                    return lin(x).data, None
            out = lin(x)
            grads = engine.backward(mse_per(out, target, 7.0))
            return out.data, [grads[p] for p in (lin.W, lin.b, x)]

        got = run()
        real = engine.add_row
        monkeypatch.setattr(models, "add_row", lambda a, b, overwrite_a: real(a, b))
        want = run()
        assert got[0].tobytes() == want[0].tobytes()
        if recording:
            assert [g.tobytes() for g in got[1]] == [g.tobytes() for g in want[1]]


class TestGCNLayer:
    def test_isolated_node_identity_weights(self):
        rng = np.random.default_rng(7)
        layer = GCNLayer(3, 3, rng)
        layer.lin.W.data = np.eye(3)
        layer.bn.set_identity_stats()
        g = single_node_graph([[0.5, -1.0, 2.0]])
        batch = batch_graphs([g])
        out = layer(batch.normalized_adjacency(), Value(batch.features), training=False)
        np.testing.assert_array_equal(out.data, [[0.5, 0.0, 2.0]])

    def test_two_node_path_hand_computed(self):
        rng = np.random.default_rng(8)
        layer = GCNLayer(1, 1, rng)
        layer.lin.W.data = np.array([[2.0]])
        layer.bn.set_identity_stats()
        g = Graph(2, SparseMatrix.from_dense([[0, 1], [1, 0]]),
                  np.array([[1.0], [3.0]]))
        batch = batch_graphs([g])
        out = layer(batch.normalized_adjacency(), Value(batch.features), training=False)
        # A_norm = [[.5,.5],[.5,.5]]; relu(A_norm @ (x*2)) = [[4],[4]]
        np.testing.assert_allclose(out.data, [[4.0], [4.0]], rtol=1e-15)

    def test_permutation_equivariance_exact_dyadic(self):
        # 3-regular graph keeps the degree normalization dyadic (0.25), and
        # sixteenth-valued weights keep every float sum exact, so equivariance
        # holds bit for bit in strict mode
        rng = np.random.default_rng(9)
        feats = rng.integers(-4, 5, size=(8, 3)).astype(float)
        g = cube_graph(feats)
        enc = Encoder("gcn", 3, 4, 2, rng)
        model = Model(enc, Decoder(4, 3, 1, rng), "graph")
        dyadic_weights(model, rng)
        perm = rng.permutation(8)
        engine.set_strict_determinism(True)
        try:
            out = enc.encode(batch_graphs([g]), training=False)[-1].data
            out_p = enc.encode(batch_graphs([permute_graph(g, perm)]), training=False)[-1].data
        finally:
            engine.set_strict_determinism(False)
        np.testing.assert_array_equal(out[perm], out_p)

    def test_permutation_equivariance_float_with_bn(self):
        rng = np.random.default_rng(10)
        feats = rng.normal(size=(8, 3))
        g = cube_graph(feats)
        enc = Encoder("gcn", 3, 4, 2, np.random.default_rng(99))
        perm = rng.permutation(8)
        out = enc.encode(batch_graphs([g]), training=True)[-1].data
        # a fresh encoder from the same seed has identical weights and stats
        enc2 = Encoder("gcn", 3, 4, 2, np.random.default_rng(99))
        out_p = enc2.encode(batch_graphs([permute_graph(g, perm)]), training=True)[-1].data
        np.testing.assert_allclose(out[perm], out_p, atol=1e-10)


    @staticmethod
    def random_graph(rng, n, features):
        dense = np.triu((rng.uniform(size=(n, n)) < 0.2).astype(float), 1)
        return Graph(n, SparseMatrix.from_dense(dense + dense.T),
                     rng.normal(size=(n, features)))

    @staticmethod
    def layer(in_dim, out_dim, seed):
        rng = np.random.default_rng(seed)
        layer = GCNLayer(in_dim, out_dim, rng)
        layer.lin.b.data = rng.normal(size=(1, out_dim))
        layer.bn.beta.data = rng.uniform(-0.5, 0.5, size=(1, out_dim))
        layer.bn.running_mean[:] = rng.normal(size=(1, out_dim))
        layer.bn.running_var[:] = rng.uniform(0.5, 2.0, size=(1, out_dim))
        return layer

    @pytest.mark.parametrize("training", [True, False])
    def test_a_constant_input_is_aggregated_first(self, training, monkeypatch):
        # (A [X 1]) [W; b] equals A (X W + 1 b) to rounding, before and after
        # the batch norm, and the sparse product is in_dim + 1 wide
        rng = np.random.default_rng(11)
        graph = self.random_graph(rng, 40, 5)
        adjacency = batch_graphs([graph]).normalized_adjacency()
        widths, pre = [], []
        product, batch_norm = SparseMatrix._product, models.batch_norm

        def recorded_product(s, kernel, shape, dense):
            widths.append(np.shape(dense)[1])
            return product(s, kernel, shape, dense)

        def recorded_norm(x, *args, **kwargs):
            pre.append(x.data.copy())
            return batch_norm(x, *args, **kwargs)

        monkeypatch.setattr(SparseMatrix, "_product", recorded_product)
        monkeypatch.setattr(models, "batch_norm", recorded_norm)
        layer = self.layer(5, 16, 12)
        first = layer(adjacency, constant(graph.features), training).data
        assert widths == [6]
        last = self.layer(5, 16, 12)(adjacency, Value(graph.features), training).data
        assert widths == [6, 16]
        expected = adjacency.to_dense() @ (graph.features @ layer.lin.W.data
                                           + layer.lin.b.data)
        for got, want in [(pre[0], expected), (pre[1], expected), (first, last)]:
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("in_dim, first", [(14, True), (15, True), (16, False),
                                               (40, False)])
    def test_only_a_narrow_constant_input_is_aggregated_first(self, in_dim, first,
                                                              monkeypatch):
        # [x 1] is aggregated first only while it is no wider than the
        # output; a wider constant input keeps A (x W + 1 b), whose sparse
        # product is out_dim wide and has a backward, and the same value
        rng = np.random.default_rng(17)
        graph = self.random_graph(rng, 40, in_dim)
        adjacency = batch_graphs([graph]).normalized_adjacency()
        products = []
        product = SparseMatrix._product

        def recorded(s, kernel, shape, dense):
            products.append((kernel, np.shape(dense)[1]))
            return product(s, kernel, shape, dense)

        monkeypatch.setattr(SparseMatrix, "_product", recorded)
        layer = self.layer(in_dim, 16, 18)
        out = layer(adjacency, constant(graph.features), True)
        engine.backward(mse_per(out, Value(np.zeros((40, 16))), 40.0))
        if first:
            assert products == [("csr_matvecs", in_dim + 1)]
        else:
            assert products == [("csr_matvecs", 16), ("csc_matvecs", 16)]
        last = self.layer(in_dim, 16, 18)(adjacency, Value(graph.features), True).data
        assert np.abs(out.data - last).max() <= 1e-12 * np.abs(last).max()

    @pytest.mark.parametrize("training", [True, False])
    def test_gradcheck_of_an_aggregated_first_layer(self, training):
        rng = np.random.default_rng(13)
        graph = self.random_graph(rng, 12, 3)
        adjacency = batch_graphs([graph]).normalized_adjacency()
        layer = self.layer(3, 4, 14)
        running = layer.bn.running_mean.copy(), layer.bn.running_var.copy()
        target = Value(rng.uniform(0.0, 2.0, size=(12, 4)))

        def f():
            layer.bn.running_mean[:], layer.bn.running_var[:] = running
            return mse_per(layer(adjacency, constant(graph.features), training),
                           target, 12.0)

        report = grad_check(f, [layer.lin.W, layer.lin.b], step=1e-3, tol=1e-4)
        assert report.ok, f"max rel err {report.max_rel_err:.3e}"

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_a_fresh_forward_gives_the_same_gradients_twice(self, dtype):
        rng = np.random.default_rng(15)
        graph = self.random_graph(rng, 30, 4)
        encoder = Encoder("gcn", 4, 8, 2, rng, dtype=dtype)
        params = [p for _, p in encoder.named_parameters()]

        def forward():
            last = encoder.encode(batch_graphs([graph]), training=True)[-1]
            return mse_per(last, Value(np.ones(last.shape, dtype)), 30.0)

        loss = forward()
        grads = engine.backward(loss)
        first = [grads[p].tobytes() for p in params]
        with pytest.raises(ValueError, match="already walked"):
            engine.backward(loss)
        again = engine.backward(forward())
        assert [again[p].tobytes() for p in params] == first


class TestGINLayer:
    def test_isolated_node_is_mlp_of_features(self):
        rng = np.random.default_rng(11)
        layer = GINLayer(2, 2, rng)
        layer.bn1.set_identity_stats()
        layer.bn2.set_identity_stats()
        g = single_node_graph([[1.0, -0.5]])
        batch = batch_graphs([g])
        out = layer(batch.block_adjacency, Value(batch.features), training=False)
        # manual mlp on the raw feature row
        z = np.maximum(batch.features @ layer.lin1.W.data + layer.lin1.b.data, 0.0)
        z = np.maximum(z @ layer.lin2.W.data + layer.lin2.b.data, 0.0)
        np.testing.assert_allclose(out.data, z, rtol=1e-12)

    def test_triangle_identical_features_all_equal(self):
        rng = np.random.default_rng(12)
        layer = GINLayer(2, 3, rng)
        layer.bn1.set_identity_stats()
        layer.bn2.set_identity_stats()
        x = np.tile([0.5, 1.5], (3, 1))
        g = triangle_graph(x)
        batch = batch_graphs([g])
        out = layer(batch.block_adjacency, Value(batch.features), training=False).data
        np.testing.assert_allclose(out[0], out[1], rtol=1e-12)
        np.testing.assert_allclose(out[0], out[2], rtol=1e-12)
        # aggregation is (1+0) x + sum of two neighbors = 3x
        z = np.maximum(3 * x[:1] @ layer.lin1.W.data + layer.lin1.b.data, 0.0)
        z = np.maximum(z @ layer.lin2.W.data + layer.lin2.b.data, 0.0)
        np.testing.assert_allclose(out[:1], z, rtol=1e-12)

    def test_permutation_equivariance_exact_dyadic(self):
        rng = np.random.default_rng(13)
        feats = rng.integers(-4, 5, size=(7, 2)).astype(float)
        dense = np.triu((rng.uniform(size=(7, 7)) < 0.5).astype(float), 1)
        dense = dense + dense.T
        g = Graph(7, SparseMatrix.from_dense(dense), feats)
        enc = Encoder("gin", 2, 4, 2, rng)
        model = Model(enc, Decoder(4, 2, 1, rng), "graph")
        dyadic_weights(model, rng)
        perm = rng.permutation(7)
        engine.set_strict_determinism(True)
        try:
            out = enc.encode(batch_graphs([g]), training=False)[-1].data
            out_p = enc.encode(batch_graphs([permute_graph(g, perm)]), training=False)[-1].data
        finally:
            engine.set_strict_determinism(False)
        np.testing.assert_array_equal(out[perm], out_p)


class TestEncoder:
    def test_layer_outputs_have_hidden_width(self):
        rng = np.random.default_rng(14)
        ds_feats = rng.normal(size=(5, 6))
        dense = np.triu((rng.uniform(size=(5, 5)) < 0.5).astype(float), 1)
        g = Graph(5, SparseMatrix.from_dense(dense + dense.T), ds_feats)
        enc = Encoder("gin", 6, 32, 3, rng)
        # a recorded forward releases the inner layers' data
        with engine.no_grad():
            outs = enc.encode(batch_graphs([g]), training=True)
        assert [o.data.shape for o in outs] == [(5, 32)] * 3

    def test_eval_mode_is_pure(self):
        rng = np.random.default_rng(15)
        g = triangle_graph(rng.normal(size=(3, 2)))
        enc = Encoder("gcn", 2, 4, 2, rng)
        batch = batch_graphs([g])
        out1 = enc.encode(batch, training=False)[-1].data
        out2 = enc.encode(batch, training=False)[-1].data
        np.testing.assert_array_equal(out1, out2)

    def test_rejects_unknown_kind_and_zero_layers(self):
        rng = np.random.default_rng(16)
        with pytest.raises(ValueError):
            Encoder("gat", 3, 4, 2, rng)
        with pytest.raises(ValueError):
            Encoder("gcn", 3, 4, 0, rng)

    def test_batch_forward_equals_per_graph_eval_mode(self):
        rng = np.random.default_rng(17)
        graphs = []
        for _ in range(3):
            n = int(rng.integers(2, 6))
            dense = np.triu((rng.uniform(size=(n, n)) < 0.5).astype(float), 1)
            graphs.append(Graph(n, SparseMatrix.from_dense(dense + dense.T),
                                rng.normal(size=(n, 4))))
        enc = Encoder("gin", 4, 5, 2, rng)
        batched = enc.encode(batch_graphs(graphs), training=False)[-1].data
        per_graph = np.vstack([
            enc.encode(batch_graphs([g]), training=False)[-1].data for g in graphs
        ])
        np.testing.assert_allclose(batched, per_graph, atol=1e-12)

    def test_batch_forward_equals_per_graph_bitwise_dyadic(self):
        # eval-mode norm-free GIN on integer features with sixteenth-valued
        # weights: block-diagonal batching must be bit-identical to per-graph
        # runs under the strict row-sequential product
        rng = np.random.default_rng(18)
        graphs = []
        for _ in range(3):
            n = int(rng.integers(2, 6))
            dense = np.triu((rng.uniform(size=(n, n)) < 0.5).astype(float), 1)
            graphs.append(Graph(n, SparseMatrix.from_dense(dense + dense.T),
                                rng.integers(-4, 5, size=(n, 4)).astype(float)))
        enc = Encoder("gin", 4, 5, 2, rng)
        model = Model(enc, Decoder(5, 4, 1, rng), "graph")
        dyadic_weights(model, rng)
        engine.set_strict_determinism(True)
        try:
            batched = enc.encode(batch_graphs(graphs), training=False)[-1].data
            per_graph = np.vstack([
                enc.encode(batch_graphs([g]), training=False)[-1].data for g in graphs
            ])
        finally:
            engine.set_strict_determinism(False)
        np.testing.assert_array_equal(batched, per_graph)


class TestDecoder:
    def test_identity_single_layer(self):
        rng = np.random.default_rng(19)
        dec = Decoder(3, 3, 1, rng)
        dec.layers[0].W.data = np.eye(3)
        h = Value(rng.normal(size=(4, 3)))
        np.testing.assert_array_equal(dec(h).data, h.data)

    def test_output_dim_matches_feature_dim(self):
        rng = np.random.default_rng(20)
        dec = Decoder(32, 7, 2, rng)
        out = dec(Value(rng.normal(size=(10, 32))), training=True)
        assert out.data.shape == (10, 7)

    def test_mlp_decoder_is_row_local_in_eval_mode(self):
        rng = np.random.default_rng(21)
        dec = Decoder(4, 3, 2, rng)
        h = rng.normal(size=(5, 4))
        base = dec(Value(h), training=False).data
        bumped = h.copy()
        bumped[2] += 0.7
        out = dec(Value(bumped), training=False).data
        changed = np.abs(out - base).sum(axis=1) > 0
        np.testing.assert_array_equal(changed, [False, False, True, False, False])

    def test_gradcheck_through_encode_decode(self):
        rng = np.random.default_rng(24)
        feats = rng.uniform(-1, 1, size=(5, 3))
        dense = np.triu((rng.uniform(size=(5, 5)) < 0.6).astype(float), 1)
        g = Graph(5, SparseMatrix.from_dense(dense + dense.T), feats)
        batch = batch_graphs([g])
        model = build_model("graph", "gcn", 3, 4, 2, 2, rng)

        def f():
            # training-mode batch norm drifts its running stats on every
            # forward pass; pin them so finite differencing sees a pure function
            for name, buf in model.named_buffers():
                if name.endswith("running_mean"):
                    buf[:] = 0.0
                else:
                    buf[:] = 1.0
            h = model.encoder.encode(batch, training=True)[-1]
            recon = model.decoder(h, training=True)
            return mse_per(recon, Value(batch.features), 5.0)

        params = [v for _, v in model.named_parameters()]
        report = grad_check(f, params, step=1e-3, tol=1e-4)
        assert report.ok, (
            f"max rel err {report.max_rel_err:.3e} at {report.worst_param}/{report.worst_coord}"
        )


class TestReleasedIntermediates:
    """Layers release their private intermediates during the forward; the
    parameter gradients stay bitwise those of the same ops without it."""

    LAYERS = {
        "gcn": lambda rng: (GCNLayer(3, 5, rng),
                            lambda layer, batch, h: layer(
                                batch.normalized_adjacency(), h, True)),
        "gin": lambda rng: (GINLayer(3, 5, rng),
                            lambda layer, batch, h: layer(
                                batch.block_adjacency, h, True)),
        "decoder-mlp": lambda rng: (Decoder(3, 4, 3, rng),
                                    lambda layer, batch, h: layer(
                                        h, training=True)),
    }

    def grads(self, kind):
        rng = np.random.default_rng(31)
        dense = np.triu((rng.uniform(size=(7, 7)) < 0.4).astype(float), 1)
        graph = Graph(7, SparseMatrix.from_dense(dense + dense.T),
                      rng.normal(size=(7, 3)))
        batch = batch_graphs([graph])
        layer, run = self.LAYERS[kind](rng)
        h = Value(graph.features)
        out = run(layer, batch, h)
        released = sum(v.data is None for v in engine._toposort(out))
        grads = engine.backward(mse_per(out, Value(np.ones(out.shape)), 7.0))
        params = [v for _, v in layer.named_parameters()]
        return released, [grads[p] for p in params + [h]]

    @pytest.mark.parametrize("kind", sorted(LAYERS))
    def test_in_place_centring_is_bitwise_the_copy(self, kind, monkeypatch):
        # a layer's batch norm centres its private input in place; the
        # gradients are bitwise those of centring a copy
        _, in_place = self.grads(kind)
        batch_norm = models.batch_norm
        calls = []

        def copying(*args, overwrite_x, **kwargs):
            calls.append(overwrite_x)
            return batch_norm(*args, **kwargs)

        monkeypatch.setattr(models, "batch_norm", copying)
        _, copied = self.grads(kind)
        assert calls and all(calls)
        for a, b in zip(in_place, copied):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind", ["gcn", "gin"])
    def test_a_recorded_encode_keeps_its_last_layer_only(self, kind,
                                                        monkeypatch):
        # each layer releases its input, the layer before's output, once
        # the stages that read it have run
        def run():
            rng = np.random.default_rng(32)
            dense = np.triu((rng.uniform(size=(7, 7)) < 0.4).astype(float), 1)
            graph = Graph(7, SparseMatrix.from_dense(dense + dense.T),
                          rng.normal(size=(7, 3)))
            encoder = Encoder(kind, 3, 5, 2, rng)
            layers = encoder.encode(batch_graphs([graph]), training=True)
            kept = [h.data is not None for h in layers]
            last = layers[-1]
            grads = engine.backward(mse_per(last, Value(np.ones(last.shape)), 7.0))
            return kept, [grads[p] for _, p in encoder.named_parameters()]

        kept, with_release = run()
        assert kept == [False, True]
        monkeypatch.setattr(models, "release", lambda *values: None)
        all_kept, without = run()
        assert all_kept == [True, True]
        assert len(with_release) == len(without) == (8 if kind == "gcn" else 16)
        for a, b in zip(with_release, without):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind", sorted(LAYERS))
    def test_gradients_are_bitwise_those_without_release(self, kind,
                                                        monkeypatch):
        released, with_release = self.grads(kind)
        assert released > 0
        monkeypatch.setattr(models, "release", lambda *values: None)
        none_released, without = self.grads(kind)
        assert none_released == 0
        assert len(with_release) == len(without)
        for a, b in zip(with_release, without):
            np.testing.assert_array_equal(a, b)


class TestReadout:
    def test_single_node_graph_returns_embedding(self):
        g = single_node_graph([[2.0, 3.0]])
        batch = batch_graphs([g])
        out = readout_sum(Value(batch.features), batch)
        np.testing.assert_array_equal(out.data, [[2.0, 3.0]])

    def test_identical_graphs_identical_rows(self):
        g = triangle_graph(np.arange(6, dtype=float).reshape(3, 2))
        batch = batch_graphs([g, g])
        out = readout_sum(Value(batch.features), batch)
        np.testing.assert_array_equal(out.data[0], out.data[1])

    def test_permutation_invariance_exact_on_integer_embeddings(self):
        rng = np.random.default_rng(25)
        feats = rng.integers(-6, 7, size=(6, 3)).astype(float)
        dense = np.triu((rng.uniform(size=(6, 6)) < 0.5).astype(float), 1)
        g = Graph(6, SparseMatrix.from_dense(dense + dense.T), feats)
        perm = rng.permutation(6)
        out = readout_sum(Value(batch_graphs([g]).features), batch_graphs([g])).data
        gp = permute_graph(g, perm)
        out_p = readout_sum(Value(batch_graphs([gp]).features), batch_graphs([gp])).data
        np.testing.assert_array_equal(out, out_p)

    def test_shape_mismatch_rejected(self):
        g = triangle_graph(np.zeros((3, 2)))
        batch = batch_graphs([g])
        with pytest.raises(ValueError):
            readout_sum(Value(np.zeros((4, 2))), batch)


def reachable_arrays(obj, seen=None):
    """Every Value and ndarray reachable from ``obj`` through attributes,
    lists, tuples and dicts, each once; a Value's own data is not entered."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, (Value, np.ndarray)):
        yield obj
        return
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        children = list(obj)
    elif hasattr(obj, "__dict__") and not isinstance(obj, type):
        children = list(vars(obj).values())
    else:
        return
    for child in children:
        yield from reachable_arrays(child, seen)


def preset_model(name, feature_dim=7):
    config = preset_config(name)
    return build_model(config.level, config.encoder, feature_dim, config.hidden_dim,
                       config.encoder_layers, config.decoder_layers,
                       np.random.default_rng(0), dtype=config.dtype)


GIN_PARAMETERS = ["lin1.W", "lin1.b", "lin2.W", "lin2.b",
                  "bn1.gamma", "bn1.beta", "bn2.gamma", "bn2.beta"]
GIN_BUFFERS = ["bn1.running_mean", "bn1.running_var",
               "bn2.running_mean", "bn2.running_var"]
GCN_PARAMETERS = ["lin.W", "lin.b", "bn.gamma", "bn.beta"]
GCN_BUFFERS = ["bn.running_mean", "bn.running_var"]
# the names a checkpoint stores: changing one breaks every earlier checkpoint
PRESET_NAMES = {
    "molecule": (
        [f"encoder.{i}.{name}" for i in range(3) for name in GIN_PARAMETERS]
        + ["decoder.0.W", "decoder.0.b", "decoder.0.bn.gamma", "decoder.0.bn.beta",
           "decoder.1.W", "decoder.1.b"],
        [f"encoder.{i}.{name}" for i in range(3) for name in GIN_BUFFERS]
        + ["decoder.0.bn.running_mean", "decoder.0.bn.running_var"]),
    "node": (
        [f"encoder.{i}.{name}" for i in range(2) for name in GCN_PARAMETERS]
        + ["decoder.0.W", "decoder.0.b"],
        [f"encoder.{i}.{name}" for i in range(2) for name in GCN_BUFFERS]),
}


class TestNaming:
    @pytest.mark.parametrize("preset", sorted(PRESET_NAMES))
    def test_preset_names_are_pinned(self, preset):
        model = preset_model(preset)
        parameters, buffers = PRESET_NAMES[preset]
        assert [name for name, _ in model.named_parameters()] == parameters
        assert [name for name, _ in model.named_buffers()] == buffers

    @pytest.mark.parametrize("preset", ["molecule", "protein", "node"])
    def test_every_reachable_array_is_named_once(self, preset):
        model = preset_model(preset)
        found = list(reachable_arrays(model))
        values = [id(v) for v in found if isinstance(v, Value)]
        arrays = [id(a) for a in found if isinstance(a, np.ndarray)]
        named = [id(v) for _, v in model.named_parameters()]
        buffers = [id(a) for _, a in model.named_buffers()]
        assert len(named) == len(set(named)) and set(named) == set(values)
        assert len(buffers) == len(set(buffers)) and set(buffers) == set(arrays)
        assert len(model.state_arrays()) == len(named) + len(buffers)

    def test_a_new_parameter_is_named_by_its_path(self):
        model = preset_model("node")
        extra = model.decoder.layers[0].extra = Value(np.zeros((1, 1)))
        name, value = model.named_parameters()[-1]
        assert name == "decoder.0.extra" and value is extra


class TestModelPlumbing:
    def test_named_parameters_are_unique_and_complete(self):
        rng = np.random.default_rng(26)
        model = build_model("graph", "gin", 5, 8, 3, 2, rng)
        names = [n for n, _ in model.named_parameters()]
        assert len(names) == len(set(names))
        # 3 GIN layers x (2 linears x 2 tensors + 2 bns x 2 tensors) + decoder
        assert len(names) == 3 * 8 + (2 * 2 + 2)

    def test_state_arrays_cover_buffers(self):
        rng = np.random.default_rng(27)
        model = build_model("node", "gcn", 4, 6, 2, 2, rng)
        arrays = model.state_arrays()
        assert any(name.endswith("running_mean") for name in arrays)
        assert any(name.endswith("running_var") for name in arrays)

    def test_state_arrays_are_the_parameters_data(self):
        rng = np.random.default_rng(28)
        model = build_model("graph", "gin", 3, 4, 1, 1, rng)
        before = {k: v.copy() for k, v in model.state_arrays().items()}
        model.parameters()[0].data += 1.0
        changed = [k for k, v in model.state_arrays().items()
                   if not np.array_equal(v, before[k])]
        assert changed == [model.named_parameters()[0][0]]
