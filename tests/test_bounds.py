"""Tests for the synthetic-laboratory bound verifier."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from latentgraph import bounds
from latentgraph.bounds import (
    BoundEstimate,
    InnerProductEstimate,
    StackPredictor,
    SyntheticSetup,
    check_dae_inner_product,
    constant_predictor,
    dae_identity_expectation,
    estimate_corollary,
    estimate_theorem1,
    gen_adjacency,
    gen_latent_stack,
    gen_observation_stack,
    identity_predictor,
    lipschitz_upper,
    make_random_predictor,
    spectral_norm,
)
from latentgraph.objectives import MaskSpec, sample_mask_noise


def small_setup(**overrides):
    base = dict(num_nodes=8, feature_dim=3, edge_prob=0.4, noise_sd=0.1,
                mask_ratio=0.25, mask_noise_sd=0.5)
    base.update(overrides)
    return SyntheticSetup(**base)


class TestGenerator:
    def test_zero_noise_observation_is_latent(self):
        setup = small_setup(noise_sd=0.0)
        rng = np.random.default_rng(0)
        latent = gen_latent_stack(setup, rng, 3)
        observed = gen_observation_stack(latent, setup, rng)
        assert np.array_equal(latent, observed)

    def test_noise_moments(self):
        setup = small_setup(noise_sd=0.3)
        rng = np.random.default_rng(1)
        latent = gen_latent_stack(setup, rng, 2000)
        observed = gen_observation_stack(latent, setup, rng)
        noise = (observed - latent).ravel()
        se_mean = setup.noise_sd / np.sqrt(noise.size)
        assert abs(noise.mean()) < 4 * se_mean
        var = noise.var(ddof=1)
        se_var = setup.noise_sd ** 2 * np.sqrt(2.0 / (noise.size - 1))
        assert abs(var - setup.noise_sd ** 2) < 4 * se_var

    def test_gaussian_prior_moments(self):
        setup = small_setup()
        rng = np.random.default_rng(2)
        latent = gen_latent_stack(setup, rng, 3000).ravel()
        assert abs(latent.mean()) < 4 / np.sqrt(latent.size)
        assert abs(latent.std(ddof=1) - 1.0) < 0.04

    def test_er_adjacency_is_simple_symmetric(self):
        setup = small_setup(num_nodes=20, edge_prob=0.5)
        rng = np.random.default_rng(4)
        adj = gen_adjacency(setup, rng)
        assert adj.shape == (20, 20)
        assert np.array_equal(adj, adj.T)
        assert np.all(np.diag(adj) == 0)
        assert set(np.unique(adj)) <= {0.0, 1.0}
        assert adj.sum() > 0

    def test_edge_prob_extremes(self):
        rng = np.random.default_rng(5)
        empty = gen_adjacency(small_setup(edge_prob=0.0), rng)
        assert empty.sum() == 0
        full = gen_adjacency(small_setup(edge_prob=1.0), rng)
        n = full.shape[0]
        assert full.sum() == n * (n - 1)

    def test_fixed_adjacency_passthrough(self):
        ring = np.zeros((4, 4))
        for i in range(4):
            ring[i, (i + 1) % 4] = ring[(i + 1) % 4, i] = 1.0
        setup = small_setup(num_nodes=4, adjacency=ring)
        adj = gen_adjacency(setup, np.random.default_rng(0))
        assert np.array_equal(adj, ring)

    def test_fixed_adjacency_shape_mismatch(self):
        setup = small_setup(num_nodes=5, adjacency=np.zeros((4, 4)))
        with pytest.raises(ValueError, match="shape"):
            gen_adjacency(setup, np.random.default_rng(0))

    def test_mask_count_property(self):
        assert small_setup(num_nodes=8, mask_ratio=0.25).mask_count == 2
        assert small_setup(num_nodes=3, mask_ratio=0.05).mask_count == 1

    @pytest.mark.parametrize("bad", [
        dict(num_nodes=0),
        dict(feature_dim=0),
        dict(edge_prob=1.5),
        dict(noise_sd=-0.1),
        dict(mask_ratio=0.0),
        dict(mask_ratio=1.5),
        dict(mask_noise_sd=-1.0),
        dict(mask_mode="shuffle"),
    ])
    def test_setup_validation(self, bad):
        with pytest.raises(ValueError):
            small_setup(**bad)


class TestLipschitz:
    def test_scaled_identity(self):
        assert spectral_norm(2.0 * np.eye(3)) == pytest.approx(2.0, rel=1e-6)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-6)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 2))) == 0.0

    def test_rectangular_matches_numpy(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=(5, 3))
        expected = np.linalg.svd(w, compute_uv=False)[0]
        assert spectral_norm(w) == pytest.approx(expected, rel=1e-5)

    def test_not_two_dimensional(self):
        with pytest.raises(ValueError):
            spectral_norm(np.ones(3))

    def test_product_of_diagonals(self):
        bound = lipschitz_upper([np.diag([2.0, 2.0]), np.diag([3.0, 3.0])])
        assert bound == pytest.approx(6.0, rel=1e-6)

    def test_empty_weight_list(self):
        with pytest.raises(ValueError):
            lipschitz_upper([])

    def test_bound_covers_the_heads_top_singular_values(self):
        # heads shaped like the verifier's: an estimate from below would
        # shrink the corollaries' penalty
        for seed in range(20):
            rng = np.random.default_rng(seed)
            predictor = make_random_predictor(int(rng.integers(2, 9)), 8, 2, 2,
                                              "gin", rng)
            product = np.prod([np.linalg.svd(w, compute_uv=False)[0]
                               for w in predictor.decoder_weights])
            assert lipschitz_upper(predictor.decoder_weights) >= product

    def test_head_is_actually_lipschitz(self):
        rng = np.random.default_rng(8)
        predictor = make_random_predictor(4, 6, 2, 2, "gin", rng)
        ell = lipschitz_upper(predictor.decoder_weights)
        a = rng.normal(size=(300, 1, 6))
        b = rng.normal(size=(300, 1, 6))
        out_gap = np.linalg.norm(predictor.decode(a) - predictor.decode(b),
                                 axis=(1, 2))
        in_gap = np.linalg.norm(a - b, axis=(1, 2))
        assert np.all(out_gap <= ell * in_gap * (1 + 1e-9))


class TestStackPredictor:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            StackPredictor("gat", [np.eye(2)], [np.eye(2)])
        with pytest.raises(ValueError):
            StackPredictor("gcn", [], [np.eye(2)])

    def test_batched_matches_per_matrix(self):
        # the estimators run the predictor chunk by chunk: any slice of a
        # stack must predict exactly what the whole stack predicts there
        for kind in ("gcn", "gin"):
            rng = np.random.default_rng(9)
            predictor = make_random_predictor(3, 5, 2, 2, kind, rng)
            setup = small_setup(feature_dim=3)
            adj = gen_adjacency(setup, rng)
            stack = rng.normal(size=(130, setup.num_nodes, 3))
            batched = predictor.predict(adj, stack)
            for size in (1, 3, 64):
                for start in range(0, 130, size):
                    part = slice(start, start + size)
                    np.testing.assert_array_equal(
                        predictor.predict(adj, stack[part]), batched[part])

    @pytest.mark.parametrize("kind", ["gcn", "gin"])
    def test_embed_follows_a_changed_adjacency(self, kind):
        rng = np.random.default_rng(10)
        predictor = make_random_predictor(3, 5, 2, 2, kind, rng)
        setup = small_setup(feature_dim=3)
        stack = rng.normal(size=(2, setup.num_nodes, 3))
        adj = gen_adjacency(setup, rng)
        first = predictor.embed(adj, stack)
        adj[0, 1] = adj[1, 0] = 1.0 - adj[0, 1]  # flip one edge in place
        fresh = StackPredictor(kind, predictor.encoder_weights,
                               predictor.decoder_weights)
        np.testing.assert_array_equal(predictor.embed(adj, stack),
                                      fresh.embed(adj, stack))
        assert not np.array_equal(predictor.embed(adj, stack), first)

    def test_gin_isolated_node_hand_value(self):
        # single node, no edges: embed = relu(x W); weights of ones
        predictor = StackPredictor("gin", [np.ones((2, 2))], [np.eye(2)])
        adj = np.zeros((1, 1))
        out = predictor.predict(adj, np.array([[[1.0, 2.0]]]))
        np.testing.assert_allclose(out, [[[3.0, 3.0]]])

    def test_readout_sums_rows(self):
        predictor = StackPredictor("gin", [np.eye(2)], [np.eye(2)])
        h = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        np.testing.assert_allclose(predictor.readout(h), [[4.0, 6.0]])

    def test_output_shape_mismatch_detected(self):
        setup = small_setup(feature_dim=3)
        bad = StackPredictor("gin", [np.eye(3)], [np.ones((3, 2))])
        with pytest.raises(ValueError, match="shape"):
            estimate_theorem1(bad.predict, setup, n_mc=4, mask_draws=1,
                              rng=np.random.default_rng(0))


class TestTheorem1:
    def test_constant_predictor_gives_equality(self):
        setup = small_setup()
        target = np.zeros((setup.num_nodes, setup.feature_dim))
        est = estimate_theorem1(constant_predictor(target), setup,
                                n_mc=4096, mask_draws=4,
                                rng=np.random.default_rng(10))
        assert est.penalty == 0.0
        assert abs(est.slack) <= 3 * est.slack_se
        assert est.slack_se > 0

    def test_identity_predictor_small_noise_holds(self):
        setup = small_setup(num_nodes=16, feature_dim=4, noise_sd=0.1,
                            mask_noise_sd=0.5)
        est = estimate_theorem1(identity_predictor(), setup, n_mc=1024,
                                mask_draws=8, rng=np.random.default_rng(11))
        assert est.slack >= -2 * est.slack_se
        assert est.slack > 0  # comfortably inside the bound in this regime

    def test_identity_predictor_matches_analytics(self):
        # f = X makes every piece analytic: lhs = 2 n d s^2, recon = 0,
        # gap/|J| concentrates at d * mask_sd^2
        setup = small_setup(num_nodes=16, feature_dim=4, noise_sd=0.1,
                            mask_noise_sd=0.5)
        est = estimate_theorem1(identity_predictor(), setup, n_mc=4096,
                                mask_draws=8, rng=np.random.default_rng(12))
        lhs_expected = 2 * 16 * 4 * 0.1 ** 2
        penalty_expected = (2 * 0.1 * 16) * np.sqrt(4) * 0.5
        assert est.lhs_mean == pytest.approx(lhs_expected, rel=0.05)
        assert est.penalty == pytest.approx(penalty_expected, rel=0.05)
        assert est.rhs_mean == pytest.approx(est.penalty)

    def test_random_networks_respect_bound(self):
        failures = 0
        for trial in range(10):
            rng = np.random.default_rng(100 + trial)
            n = int(rng.integers(4, 17))
            d = int(rng.integers(2, 6))
            setup = SyntheticSetup(num_nodes=n, feature_dim=d,
                                   edge_prob=0.4, noise_sd=0.1,
                                   mask_ratio=0.25, mask_noise_sd=0.5)
            predictor = make_random_predictor(d, 8, 2, 2,
                                              "gin" if trial % 2 else "gcn",
                                              rng)
            est = estimate_theorem1(predictor.predict, setup, n_mc=256,
                                    mask_draws=4, rng=rng)
            if est.slack < -2 * est.slack_se:
                failures += 1
        assert failures == 0

    def test_estimate_invariants(self):
        setup = small_setup()
        rng = np.random.default_rng(13)
        predictor = make_random_predictor(3, 4, 1, 1, "gcn", rng)
        est = estimate_theorem1(predictor.predict, setup, n_mc=64,
                                mask_draws=3, rng=rng)
        assert isinstance(est, BoundEstimate)
        assert est.which == "theorem1"
        assert est.slack == est.rhs_mean - est.lhs_mean
        assert est.lhs_se >= 0 and est.rhs_se >= 0 and est.slack_se >= 0
        assert est.n_samples == 64
        assert est.mask_draws == 3
        doc = est.as_dict()
        assert doc["which"] == "theorem1"
        assert set(doc) == {"which", "lhs_mean", "lhs_se", "rhs_mean",
                            "rhs_se", "slack", "slack_se", "penalty",
                            "n_samples", "mask_draws"}

    def test_zero_noise_collapses_to_exact_equality(self):
        setup = small_setup(noise_sd=0.0)
        rng = np.random.default_rng(14)
        predictor = make_random_predictor(3, 4, 1, 1, "gin", rng)
        est = estimate_theorem1(predictor.predict, setup, n_mc=32,
                                mask_draws=2, rng=rng)
        assert est.penalty == 0.0
        assert est.slack == 0.0
        assert est.slack_se == 0.0

    def test_penalty_scale_hook(self):
        setup = small_setup(num_nodes=16, feature_dim=4)
        est = estimate_theorem1(identity_predictor(), setup, n_mc=512,
                                mask_draws=4, rng=np.random.default_rng(15),
                                penalty_scale=0.01)
        # a crippled multiplier must make the check fail for f = X
        assert est.slack < -2 * est.slack_se

    def test_sample_count_validation(self):
        setup = small_setup()
        with pytest.raises(ValueError):
            estimate_theorem1(identity_predictor(), setup, n_mc=1,
                              rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            estimate_theorem1(identity_predictor(), setup, n_mc=8,
                              mask_draws=0, rng=np.random.default_rng(0))

    def test_successive_estimates_draw_fresh_data(self):
        # each estimate spawns its streams from the rng it is given, which
        # advances the rng's spawn counter: the records of one trial must
        # not share their draws
        setup = small_setup()
        rng = np.random.default_rng(16)
        first, second = (estimate_theorem1(identity_predictor(), setup,
                                           n_mc=64, mask_draws=2, rng=rng)
                         for _ in range(2))
        assert first != second
        assert first.lhs_mean != second.lhs_mean
        assert first == estimate_theorem1(identity_predictor(), setup,
                                          n_mc=64, mask_draws=2,
                                          rng=np.random.default_rng(16))


class TestCorollaries:
    def test_random_network_node_level(self):
        setup = small_setup(num_nodes=12, feature_dim=4)
        rng = np.random.default_rng(20)
        predictor = make_random_predictor(4, 6, 2, 2, "gcn", rng)
        est = estimate_corollary("node", predictor, setup, n_mc=256,
                                 mask_draws=4, rng=rng)
        assert est.which == "corollary1"
        assert est.slack >= -2 * est.slack_se

    def test_random_network_graph_level(self):
        setup = small_setup(num_nodes=12, feature_dim=4)
        rng = np.random.default_rng(21)
        predictor = make_random_predictor(4, 6, 2, 2, "gin", rng)
        est = estimate_corollary("graph", predictor, setup, n_mc=256,
                                 mask_draws=4, rng=rng)
        assert est.which == "corollary2"
        assert est.slack >= -2 * est.slack_se

    def test_identity_head_matches_output_level_exactly(self):
        # with an identity head, embeddings are the outputs and ell = 1, so
        # the embedding-level estimate must reproduce the output-level one
        # bit for bit under the same seed
        setup = small_setup(num_nodes=10, feature_dim=3)
        rng = np.random.default_rng(22)
        enc = rng.normal(size=(3, 3))
        predictor = StackPredictor("gin", [enc], [np.eye(3)])
        est_node = estimate_corollary("node", predictor, setup, n_mc=128,
                                      mask_draws=4,
                                      rng=np.random.default_rng(23))
        est_out = estimate_theorem1(predictor.predict, setup, n_mc=128,
                                    mask_draws=4,
                                    rng=np.random.default_rng(23))
        assert est_node.rhs_mean == est_out.rhs_mean
        assert est_node.lhs_mean == est_out.lhs_mean
        assert est_node.slack == est_out.slack
        assert est_node.penalty == est_out.penalty

    def test_penalties_scale_with_the_heads_last_matrix(self):
        # ell is the product of the head's spectral norms, and both
        # corollaries' gaps read only the embedding: scaling the head's last
        # matrix by c scales each penalty by c, down to a zero head
        setup = small_setup(num_nodes=16, feature_dim=3)
        predictor = make_random_predictor(3, 4, 1, 2, "gin",
                                          np.random.default_rng(26))
        *inner, last = predictor.decoder_weights
        for level in ("node", "graph"):
            base, doubled, zeroed = (
                estimate_corollary(
                    level, StackPredictor("gin", predictor.encoder_weights,
                                          inner + [c * last]),
                    setup, n_mc=64, mask_draws=2,
                    rng=np.random.default_rng(27))
                for c in (1.0, 2.0, 0.0))
            assert base.penalty > 0.0
            assert doubled.penalty == pytest.approx(2 * base.penalty,
                                                    rel=1e-12)
            assert zeroed.penalty == 0.0

    def test_multipliers_use_head_norms_and_sqrt_n(self, monkeypatch):
        setup = small_setup(num_nodes=16, feature_dim=3, noise_sd=0.2)
        predictor = make_random_predictor(3, 4, 1, 2, "gin",
                                          np.random.default_rng(29))
        seen = {}
        monkeypatch.setattr(bounds, "_estimate_bound",
                            lambda which, multiplier, *rest, **stages:
                            seen.setdefault(which, multiplier))
        for level in ("node", "graph"):
            estimate_corollary(level, predictor, setup, penalty_scale=0.5,
                               rng=np.random.default_rng(0))
        ell = lipschitz_upper(predictor.decoder_weights)
        assert seen["corollary1"] == pytest.approx(2 * 0.2 * 16 * ell * 0.5,
                                                   rel=1e-12)
        assert seen["corollary2"] == pytest.approx(
            2 * 0.2 * 16 * 4.0 * ell * 0.5, rel=1e-12)

    def test_level_validation(self):
        setup = small_setup()
        predictor = make_random_predictor(3, 4, 1, 1, "gcn",
                                          np.random.default_rng(28))
        with pytest.raises(ValueError, match="level"):
            estimate_corollary("edge", predictor, setup,
                               rng=np.random.default_rng(0))


class TestBlindInnerProduct:
    def test_blind_network_uncorrelated(self):
        # zeroed rows carry no trace of the masked noise, so the error of a
        # predictor that only sees the corrupted copy is independent of it
        setup = small_setup(num_nodes=12, feature_dim=4, mask_mode="zeros")
        rng = np.random.default_rng(30)
        predictor = make_random_predictor(4, 6, 2, 2, "gin", rng)
        est = check_dae_inner_product(predictor.predict, setup, n_mc=2048,
                                      mask_draws=8, rng=rng)
        assert isinstance(est, InnerProductEstimate)
        assert abs(est.mean) <= 3 * est.se
        assert est.n_samples == 2048

    def test_constant_zero_uncorrelated_any_mode(self):
        setup = small_setup(num_nodes=12, feature_dim=4)
        target = np.zeros((12, 4))
        est = check_dae_inner_product(constant_predictor(target), setup,
                                      n_mc=2048, mask_draws=8,
                                      rng=np.random.default_rng(31))
        assert abs(est.mean) <= 3 * est.se

    def test_leaky_identity_matches_analytic_value(self):
        setup = small_setup(num_nodes=12, feature_dim=4, noise_sd=0.3,
                            mask_mode="zeros")
        est = check_dae_inner_product(identity_predictor(), setup,
                                      n_mc=4096, mask_draws=8,
                                      rng=np.random.default_rng(32),
                                      pass_full_input=True)
        expected = dae_identity_expectation(setup)
        assert expected == pytest.approx(3 * 4 * 0.09)
        assert abs(est.mean - expected) <= 3 * est.se
        assert est.se > 0

    def test_as_dict(self):
        est = InnerProductEstimate(mean=0.5, se=0.1, n_samples=10)
        assert est.as_dict() == {"mean": 0.5, "se": 0.1, "n_samples": 10}

    def test_sample_count_validation(self):
        setup = small_setup()
        with pytest.raises(ValueError):
            check_dae_inner_product(identity_predictor(), setup, n_mc=8,
                                    mask_draws=8, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            check_dae_inner_product(identity_predictor(), setup, n_mc=8,
                                    mask_draws=0, rng=np.random.default_rng(0))

    def test_every_draw_is_used(self):
        # 100 draws over 8 mask draws: four score 12 draws and four score 13
        est = check_dae_inner_product(identity_predictor(), small_setup(),
                                      n_mc=100, mask_draws=8,
                                      rng=np.random.default_rng(0))
        assert est.n_samples == 100


class TestStreams:
    """The estimators read each of their streams one chunk at a time, and
    their records do not depend on the chunk size because of this: drawn in
    chunks of 64, 64 and 2 draws from one Generator, noise equals one whole
    draw bit for bit and leaves the same state."""

    BOUNDS = (0, 64, 128, 130)

    def _chunked_equals_whole(self, draw):
        """`draw(span, rng)` draws the noise of the draws in `span`."""
        chunked_rng, whole_rng = (np.random.default_rng(60) for _ in range(2))
        chunked = np.concatenate([
            draw(slice(start, stop), chunked_rng)
            for start, stop in zip(self.BOUNDS[:-1], self.BOUNDS[1:])])
        whole = draw(slice(0, self.BOUNDS[-1]), whole_rng)
        assert chunked.tobytes() == whole.tobytes()
        assert (chunked_rng.bit_generator.state
                == whole_rng.bit_generator.state)

    @pytest.mark.parametrize("mode", ["gaussian", "zeros"])
    def test_mask_noise(self, mode):
        spec = MaskSpec(ratio=0.25, noise_sd=0.5, mode=mode)
        self._chunked_equals_whole(lambda span, rng: sample_mask_noise(
            (span.stop - span.start, 3, 5), spec, rng))

    def test_latent_stack(self):
        setup = small_setup()
        self._chunked_equals_whole(lambda span, rng: gen_latent_stack(
            setup, rng, span.stop - span.start))

    @pytest.mark.parametrize("noise_sd", [0.1, 0.0])
    def test_observation_noise(self, noise_sd):
        setup = small_setup(noise_sd=noise_sd)
        latent = gen_latent_stack(setup, np.random.default_rng(61),
                                  self.BOUNDS[-1])
        self._chunked_equals_whole(lambda span, rng: gen_observation_stack(
            latent[span], setup, rng))


class TestChunking:
    """The estimators run their predictors over chunks of
    `bounds._CHUNK_SAMPLES` draws; one chunk of every draw is the
    reference, and 130 draws make two full chunks and a partial one."""

    N_MC = 130

    @staticmethod
    def _setup():
        return SyntheticSetup(num_nodes=11, feature_dim=5, edge_prob=0.4,
                              noise_sd=0.1, mask_ratio=0.25,
                              mask_noise_sd=0.5)

    def _both(self, monkeypatch, run):
        chunked = run()
        with monkeypatch.context() as patch:
            patch.setattr(bounds, "_CHUNK_SAMPLES", self.N_MC)
            whole = run()
        return chunked, whole

    def test_chunks_cover_every_draw_once(self):
        assert bounds._CHUNK_SAMPLES == 64
        spans = [(c.start, c.stop) for c in bounds._chunks(self.N_MC)]
        assert spans == [(0, 64), (64, 128), (128, 130)]

    def test_predictor_sees_one_chunk_at_a_time(self, monkeypatch):
        runs = []
        identity = identity_predictor()

        def spy(adj, x_stack):
            runs[-1].append(len(x_stack))
            return identity(adj, x_stack)

        def run():
            runs.append([])
            return estimate_theorem1(spy, self._setup(), n_mc=self.N_MC,
                                     mask_draws=2,
                                     rng=np.random.default_rng(40))

        chunked, whole = self._both(monkeypatch, run)
        assert chunked == whole
        chunked_sizes, whole_sizes = runs
        assert max(chunked_sizes) <= bounds._CHUNK_SAMPLES
        # per chunk one clean call and one per mask draw; the reference
        # makes the same three calls on one chunk of every draw
        assert sorted(chunked_sizes) == [2] * 3 + [64] * 6
        assert whole_sizes == [self.N_MC] * 3

    def test_corollary_embeds_each_input_once_per_chunk(self, monkeypatch):
        # the clean embedding feeds both the prediction and the gap, so per
        # chunk the encoder runs once on it and once per corrupted copy
        sizes = []
        embed = StackPredictor.embed

        def spy(predictor, adj, x_stack):
            sizes.append(len(x_stack))
            return embed(predictor, adj, x_stack)

        monkeypatch.setattr(StackPredictor, "embed", spy)
        predictor = make_random_predictor(5, 8, 2, 2, "gin",
                                          np.random.default_rng(45))
        estimate_corollary("node", predictor, self._setup(), n_mc=self.N_MC,
                           mask_draws=2, rng=np.random.default_rng(46))
        assert sizes == [64] * 3 + [64] * 3 + [2] * 3

    @pytest.mark.parametrize("regime", ["gcn", "gin", "identity", "constant"])
    def test_theorem1_is_bit_identical(self, monkeypatch, regime):
        setup = self._setup()
        if regime in ("gcn", "gin"):
            predict = make_random_predictor(5, 8, 2, 2, regime,
                                            np.random.default_rng(41)).predict
        elif regime == "identity":
            predict = identity_predictor()
        else:
            predict = constant_predictor(np.zeros((11, 5)))
        chunked, whole = self._both(monkeypatch, lambda: estimate_theorem1(
            predict, setup, n_mc=self.N_MC, mask_draws=5,
            rng=np.random.default_rng(42)))
        assert chunked == whole

    @pytest.mark.parametrize("level", ["node", "graph"])
    @pytest.mark.parametrize("network", ["random-gnn", "relu-passthrough"])
    def test_corollaries_are_bit_identical(self, monkeypatch, level, network):
        setup = self._setup()
        if network == "random-gnn":
            predictor = make_random_predictor(5, 8, 2, 2, "gin",
                                              np.random.default_rng(43))
        else:
            predictor = StackPredictor("gin", [np.eye(5)], [np.eye(5)])
            setup = dataclasses.replace(setup, adjacency=np.zeros((11, 11)))
        chunked, whole = self._both(monkeypatch, lambda: estimate_corollary(
            level, predictor, setup, n_mc=self.N_MC, mask_draws=5,
            rng=np.random.default_rng(44)))
        assert chunked == whole

    @pytest.mark.parametrize("leaky", [False, True])
    def test_dae_checks_are_bit_identical(self, monkeypatch, leaky):
        # two mask draws of 130 draws each: every block is chunked
        setup = dataclasses.replace(self._setup(), mask_mode="zeros")
        if leaky:
            predict = identity_predictor()
        else:
            predict = make_random_predictor(5, 8, 2, 2, "gcn",
                                            np.random.default_rng(45)).predict
        chunked, whole = self._both(monkeypatch, lambda: check_dae_inner_product(
            predict, setup, n_mc=2 * self.N_MC, mask_draws=2,
            rng=np.random.default_rng(46), pass_full_input=leaky))
        assert chunked == whole
        assert chunked.n_samples == 2 * self.N_MC


class TestWorkingSet:
    """At n=32, d=8 and hidden 8 one (n_mc, n, d) stack of 2048 draws is
    4 MiB. An estimate holds one chunk's work plus the per-draw scalars,
    so its traced peak stays well under one stack, and four times the draws
    add only the scalars: the per-draw statistics, the gap columns and the
    delta method's copies, a few float64 each (a whole stack would add 256
    per draw)."""

    N_MC = 2048
    STACK = N_MC * 32 * 8 * 8
    # bytes that one more draw may add to the peak: 16 float64 scalars
    PER_DRAW = 16 * 8

    @staticmethod
    def _traced_peak(run):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def _check(self, run):
        setup = SyntheticSetup(num_nodes=32, feature_dim=8, edge_prob=0.4,
                               noise_sd=0.1, mask_ratio=0.25,
                               mask_noise_sd=0.5)
        predictor = make_random_predictor(8, 8, 2, 2, "gcn",
                                          np.random.default_rng(50))
        small, large = (self._traced_peak(lambda: run(predictor, setup, n_mc))
                        for n_mc in (self.N_MC, 4 * self.N_MC))
        assert small < self.STACK / 2, (
            f"peak {small / 2**20:.2f} MiB, stack {self.STACK / 2**20:.1f} MiB")
        assert large - small < 3 * self.N_MC * self.PER_DRAW, (
            f"peak {small / 2**20:.2f} -> {large / 2**20:.2f} MiB")

    def test_theorem1_peak(self):
        self._check(lambda predictor, setup, n_mc: estimate_theorem1(
            predictor.predict, setup, n_mc=n_mc, mask_draws=2,
            rng=np.random.default_rng(51)))

    def test_corollary_peak(self):
        self._check(lambda predictor, setup, n_mc: estimate_corollary(
            "node", predictor, setup, n_mc=n_mc, mask_draws=2,
            rng=np.random.default_rng(51)))

    def test_dae_check_peak(self):
        self._check(lambda predictor, setup, n_mc: check_dae_inner_product(
            predictor.predict, setup, n_mc=n_mc, mask_draws=1,
            rng=np.random.default_rng(52)))
