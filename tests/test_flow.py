import math

import numpy as np
import pytest
from helpers import (
    backward_grads,
    build_model_with_encoder,
    composed_inverse,
    composed_latent,
    finite_diff_check,
    force_affine,
    randomize_model,
    small_flow,
)

from tcflow import diffcore as dc
from tcflow.conditioners import EncoderConfig
from tcflow.flow import (
    FlowNanError,
    _gaussian_log_density_nodes,
    gaussian_log_density,
    nll_loss,
)

LN2 = math.log(2.0)


def as_node(arr):
    return dc.constant(np.atleast_2d(arr))


class TestCouplingLayer:
    def test_fresh_layer_is_identity(self):
        model = small_flow(dim=4, n_layers=1)
        u = np.array([[0.3, -0.2, 1.1, 0.0]])
        x, logdet = model.layers[0].forward(as_node(u), None)
        np.testing.assert_allclose(x.value, u)
        np.testing.assert_allclose(logdet.value, [0.0])

    def test_hand_evaluated_scale_and_shift(self):
        model = small_flow(dim=2, n_layers=1)
        force_affine(model.layers[0], LN2, 1.0)
        x, logdet = model.layers[0].forward(as_node([0.0, 1.0]), None)
        np.testing.assert_allclose(x.value, [[0.0, 3.0]], atol=1e-12)
        np.testing.assert_allclose(logdet.value, [LN2], atol=1e-12)

    def test_symmetric_scales_cancel_in_logdet(self):
        model = small_flow(dim=4, n_layers=1)
        force_affine(model.layers[0], [0.5, -0.5], [0.0, 0.0])
        _, logdet = model.layers[0].forward(as_node([1.0, 2.0, 3.0, 4.0]), None)
        np.testing.assert_allclose(logdet.value, [0.0], atol=1e-12)

    def test_inverse_of_hand_example(self):
        model = small_flow(dim=2, n_layers=1)
        force_affine(model.layers[0], LN2, 1.0)
        out = model.layers[0].inverse(as_node([0.0, 3.0]), None)
        np.testing.assert_allclose(out.value[:, :2], [[0.0, 1.0]], atol=1e-12)
        np.testing.assert_allclose(out.value[:, 2], [-LN2], atol=1e-12)

    def test_identity_inverse_is_identity(self):
        model = small_flow(dim=2, n_layers=1)
        x = np.array([[0.7, -0.4]])
        out = model.layers[0].inverse(as_node(x), None)
        np.testing.assert_allclose(out.value[:, :2], x)

    def test_round_trip_with_random_parameters(self):
        rng = np.random.default_rng(0)
        model = small_flow(dim=4, n_layers=1, context_dim=3)
        randomize_model(model, rng)
        layer = model.layers[0]
        u = rng.normal(size=(5, 4))
        ctx = dc.constant(rng.normal(size=(5, 3)))
        x, fwd = layer.forward(dc.constant(u), ctx)
        back = layer.inverse(dc.constant(x.value), ctx)
        np.testing.assert_allclose(back.value[:, :4], u, atol=1e-9)
        np.testing.assert_allclose(fwd.value, -back.value[:, 4], atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        model = small_flow(dim=4, n_layers=1)
        with pytest.raises(dc.ShapeError):
            model.layers[0].forward(as_node([1.0, 2.0]), None)


class TestGaussianLogDensity:
    def test_origin_2d(self):
        assert gaussian_log_density(np.zeros(2)) == pytest.approx(-math.log(2 * math.pi))

    def test_origin_1d(self):
        assert gaussian_log_density(np.zeros(1)) == pytest.approx(-0.918938533204673)

    def test_unit_radius_2d(self):
        value = gaussian_log_density(np.array([1.0, 1.0]))
        assert value == pytest.approx(-math.log(2 * math.pi) - 1.0)


class TestFlowLogProb:
    def test_identity_flow_equals_base_density(self):
        model = small_flow(dim=2, n_layers=3)
        x = np.array([[0.4, -1.2], [0.0, 0.0]])
        np.testing.assert_allclose(model.log_prob(x), gaussian_log_density(x))

    def test_two_swapped_scaling_layers_drop_density_by_dim_ln2(self):
        model = small_flow(dim=2, n_layers=2)
        force_affine(model.layers[0], LN2, 0.0)
        force_affine(model.layers[1], LN2, 0.0)
        x = np.array([[0.8, -0.6]])
        latent, _ = model.latent(x)
        expected = gaussian_log_density(latent) - 2 * LN2
        np.testing.assert_allclose(model.log_prob(x), expected, atol=1e-12)

    def test_density_integrates_to_one_on_grid(self):
        rng = np.random.default_rng(42)
        model = small_flow(dim=2, n_layers=2, context_dim=3)
        randomize_model(model, rng, scale=0.3)
        ctx_row = rng.normal(size=3)
        axis = np.linspace(-8.0, 8.0, 321)
        step = axis[1] - axis[0]
        grid = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
        total = 0.0
        for lo in range(0, grid.shape[0], 8192):
            chunk = grid[lo : lo + 8192]
            ctx = np.broadcast_to(ctx_row, (chunk.shape[0], 3))
            total += float(np.exp(model.log_prob(chunk, ctx)).sum()) * step * step
        assert total == pytest.approx(1.0, abs=0.02)

    def test_nan_input_reports_layer_index(self):
        model = small_flow(dim=2, n_layers=3)
        with pytest.raises(FlowNanError) as excinfo:
            model.log_prob(np.array([[np.nan, 0.0]]))
        assert excinfo.value.layer_index == 2

    def test_logdet_chain_consistent_between_directions(self):
        rng = np.random.default_rng(1)
        model = small_flow(dim=4, n_layers=3, context_dim=2)
        randomize_model(model, rng)
        ctx_values = rng.normal(size=(3, 2))
        u = rng.normal(size=(3, 4))
        ctx = dc.constant(ctx_values)
        x = dc.constant(u)
        forward_total = np.zeros(3)
        for i, layer in enumerate(model.layers):
            x, ld = layer.forward(x, ctx)
            forward_total += ld.value
            if i < len(model.layers) - 1:
                half = model.dim // 2
                x = dc.concat([x[:, half:], x[:, :half]], axis=1)
        latent, inverse_total = model.latent(x.value, ctx_values)
        np.testing.assert_allclose(latent, u, atol=1e-9)
        np.testing.assert_allclose(forward_total, -inverse_total, atol=1e-10)


class TestInvertibility:
    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_round_trip_under_random_parameters(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(10):
            model = small_flow(dim=dim, n_layers=3, context_dim=4, seed=int(rng.integers(1 << 30)))
            randomize_model(model, rng)
            ctx_values = rng.normal(size=(4, 4))
            u = rng.normal(size=(4, dim))
            ctx = dc.constant(ctx_values)
            x = dc.constant(u)
            for i, layer in enumerate(model.layers):
                x, _ = layer.forward(x, ctx)
                if i < len(model.layers) - 1:
                    half = dim // 2
                    x = dc.concat([x[:, half:], x[:, :half]], axis=1)
            latent, _ = model.latent(x.value, ctx_values)
            assert np.abs(latent - u).max() <= 1e-6


class TestScaleStabilization:
    def test_effective_scale_bounded_by_cap_under_saturating_inputs(self):
        model = small_flow(dim=2, n_layers=1)
        layer = model.layers[0]
        for w, b in layer.hidden:
            w.value[:] = 50.0
            b.value[:] = 50.0
        layer.head_w.value[:] = 50.0
        layer.head_b.value[:] = 50.0
        cap = layer.scale_cap.value.copy()
        x = np.array([[1e3, -1e3]])
        _, logdet = layer.forward(as_node(x), None)
        assert np.isfinite(logdet.value).all()
        assert np.abs(logdet.value) <= np.abs(cap).sum() + 1e-12


class TestSampling:
    def test_identity_model_samples_standard_normal(self):
        model = small_flow(dim=2, n_layers=2)
        draws = model.sample(None, np.random.default_rng(0), n=10000)
        n = draws.shape[0]
        assert np.abs(draws.mean(axis=0)).max() < 4.0 / math.sqrt(n)
        assert np.abs(draws.var(axis=0) - 1.0).max() < 5.0 * math.sqrt(2.0 / n)
        corr = np.corrcoef(draws.T)[0, 1]
        assert abs(corr) < 4.0 / math.sqrt(n)

    def test_fixed_seed_reproduces_sample(self):
        rng = np.random.default_rng(9)
        model = small_flow(dim=4, n_layers=2, context_dim=2, seed=5)
        randomize_model(model, rng)
        ctx = rng.normal(size=2)
        a = model.sample(ctx, np.random.default_rng(123), n=5)
        b = model.sample(ctx, np.random.default_rng(123), n=5)
        np.testing.assert_array_equal(a, b)

    def test_sampled_points_have_finite_log_prob(self):
        rng = np.random.default_rng(4)
        model = small_flow(dim=4, n_layers=3, context_dim=2)
        randomize_model(model, rng)
        ctx = rng.normal(size=(8, 2))
        draws = model.sample(ctx[0], np.random.default_rng(1), n=8)
        assert np.isfinite(model.log_prob(draws, ctx)).all()


class TestNllLoss:
    def test_identity_model_at_origin(self):
        model = small_flow(dim=2, n_layers=2)
        loss = nll_loss(model, np.zeros((3, 2)))
        assert float(loss.value) == pytest.approx(math.log(2 * math.pi))

    def test_duplicated_batch_has_same_loss(self):
        rng = np.random.default_rng(8)
        model = small_flow(dim=2, n_layers=2)
        randomize_model(model, rng, scale=0.2)
        batch = rng.normal(size=(6, 2))
        single = float(nll_loss(model, batch).value)
        doubled = float(nll_loss(model, np.vstack([batch, batch])).value)
        assert doubled == pytest.approx(single)

    def test_single_point_unit_radius(self):
        model = small_flow(dim=2, n_layers=1)
        loss = nll_loss(model, np.array([[1.0, 1.0]]))
        assert float(loss.value) == pytest.approx(math.log(2 * math.pi) + 1.0)

    def test_empty_batch_rejected(self):
        model = small_flow(dim=2, n_layers=1)
        with pytest.raises(ValueError, match="empty"):
            nll_loss(model, np.zeros((0, 2)))


class TestGradients:
    def test_loss_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        model = small_flow(dim=2, n_layers=2, context_dim=2, multiplier=1)
        randomize_model(model, rng, scale=0.3)
        x = rng.normal(size=(4, 2))
        ctx = rng.normal(size=(4, 2))

        def loss():
            return nll_loss(model, x, dc.constant(ctx))

        err = finite_diff_check(loss, model.parameters(), epsilon=1e-5)
        assert err < 1e-4


class TestFusedCoupling:
    """``CouplingLayer.inverse`` is one fused node; the composition of
    primitives in ``helpers.composed_inverse`` is its reference. Values and
    gradients must be equal, not merely close."""

    @staticmethod
    def _values_and_grads(build, model, x, ctx_values, training):
        ctx = None if ctx_values is None else dc.Parameter(ctx_values.copy(), "ctx")
        latent, log_det = build(model, x, ctx, training, np.random.default_rng(11))
        loss = dc.mean(dc.neg(dc.add(_gaussian_log_density_nodes(latent), log_det)))
        params = model.parameters() + ([] if ctx is None else [ctx])
        return latent.value, log_det.value, loss.value, backward_grads(loss, params)

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "training"])
    @pytest.mark.parametrize("dim,n_layers,context_dim,cond_layers", [
        (2, 1, 0, 3), (4, 3, 3, 4), (6, 4, 5, 5), (8, 12, 2, 3),
    ])
    def test_stack_matches_composed_primitives(self, training, dim, n_layers, context_dim,
                                               cond_layers):
        rng = np.random.default_rng(dim * 100 + n_layers)
        model = small_flow(dim=dim, n_layers=n_layers, context_dim=context_dim,
                           multiplier=3, cond_layers=cond_layers, seed=dim)
        randomize_model(model, rng)
        x = rng.normal(size=(37, dim))
        ctx = rng.normal(size=(37, context_dim)) if context_dim else None

        fused = self._values_and_grads(
            lambda m, *a: m.latent_nodes(*a), model, x, ctx, training)
        reference = self._values_and_grads(composed_latent, model, x, ctx, training)

        for got, want in zip(fused[:3], reference[:3]):
            np.testing.assert_array_equal(got, want)
        expected = {p.name for p in model.parameters()} | ({"ctx"} if context_dim else set())
        assert fused[3].keys() == reference[3].keys() == expected
        for name, grad in reference[3].items():
            np.testing.assert_array_equal(fused[3][name], grad, err_msg=name)

    def test_dropout_masks_drawn_as_by_the_composition(self):
        model = small_flow(dim=4, n_layers=2, context_dim=2, dropout=0.5)
        randomize_model(model, np.random.default_rng(3))
        x = dc.constant(np.random.default_rng(4).normal(size=(9, 4)))
        ctx = dc.constant(np.random.default_rng(5).normal(size=(9, 2)))
        fused_rng, reference_rng = np.random.default_rng(6), np.random.default_rng(6)
        out = model.layers[0].inverse(x, ctx, True, fused_rng)
        points, log_det = composed_inverse(model.layers[0], x, ctx, True, reference_rng)
        np.testing.assert_array_equal(out.value[:, :4], points.value)
        np.testing.assert_array_equal(out.value[:, 4], log_det.value)
        assert fused_rng.random() == reference_rng.random()

    def test_finite_differences_through_stack_with_mlp_encoder(self):
        rng = np.random.default_rng(21)
        model = build_model_with_encoder(
            2, 3, EncoderConfig("mlp", lookback=3, mlp_layers=3), seed=2, multiplier=1)
        randomize_model(model, rng, scale=0.3)
        x = rng.normal(size=(4, 2))
        windows = rng.normal(size=(4, 3, 2))

        def loss():
            return nll_loss(model, x, model.encoder.encode_batch(windows))

        assert any(p.name.startswith("encoder.") for p in model.parameters())
        assert finite_diff_check(loss, model.parameters(), epsilon=1e-5) < 1e-4

    def test_nan_from_a_middle_layer_names_that_layer(self):
        model = small_flow(dim=2, n_layers=3)
        model.layers[1].head_b.value[:] = np.nan
        with pytest.raises(FlowNanError) as excinfo:
            model.log_prob(np.array([[0.3, -0.1]]))
        assert excinfo.value.layer_index == 1

    def test_fused_inverse_then_composed_forward_round_trips(self):
        rng = np.random.default_rng(8)
        model = small_flow(dim=4, n_layers=1, context_dim=3)
        randomize_model(model, rng)
        layer = model.layers[0]
        x = rng.normal(size=(6, 4))
        ctx = dc.constant(rng.normal(size=(6, 3)))
        inverted = layer.inverse(dc.constant(x), ctx)
        back, fwd = layer.forward(dc.constant(inverted.value[:, :4]), ctx)
        np.testing.assert_allclose(back.value, x, atol=1e-9)
        np.testing.assert_allclose(fwd.value, -inverted.value[:, 4], atol=1e-12)

    def test_builds_one_node_per_layer(self):
        model = small_flow(dim=4, n_layers=5, context_dim=2)
        ctx = dc.constant(np.zeros((3, 2)))
        latent, log_det = model.latent_nodes(np.zeros((3, 4)), ctx, True,
                                             np.random.default_rng(0))
        ops = [node.op for node in dc._topo_order(dc.sum_(log_det))
               if not isinstance(node, dc.Parameter)]
        assert ops.count("coupling") == 5
        assert len(ops) == 5 + 4  # input, context, log-det slice and the sum

    def test_dropped_graph_is_freed_without_cycle_collection(self):
        import gc

        model = small_flow(dim=4, n_layers=3, context_dim=2)
        gc.collect()
        gc.disable()
        try:
            ctx = dc.constant(np.ones((5, 2)))
            loss = nll_loss(model, np.ones((5, 4)), ctx, True, np.random.default_rng(0))
            dc.backward(loss)
            del loss, ctx
            assert gc.collect() == 0
        finally:
            gc.enable()
