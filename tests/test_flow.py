import math
import re

import numpy as np
import pytest
from helpers import (
    backward_grads,
    build_model_with_encoder,
    composed_forward,
    composed_latent,
    context_node,
    finite_diff_check,
    force_affine,
    latent,
    log_prob,
    randomize_model,
    small_flow,
)

from tcflow import diffcore as dc
from tcflow.conditioners import EncoderConfig, build_encoder
from tcflow.flow import (
    FlowConfig,
    FlowModel,
    FlowNanError,
    _gaussian_log_density_nodes,
    gaussian_log_density,
    nll_loss,
)

LN2 = math.log(2.0)


def as_node(arr):
    return dc.constant(np.atleast_2d(arr))


def chained(points):
    """The points as a coupling layer takes them: ``[points | -0.0]``, the
    running log-det before the first layer."""
    points = np.atleast_2d(points)
    return dc.constant(np.concatenate([points, np.full((len(points), 1), -0.0)], axis=1))


class TestCouplingLayer:
    def test_fresh_layer_is_identity(self):
        model = small_flow(dim=4, coupling_layers=1)
        u = np.array([[0.3, -0.2, 1.1, 0.0]])
        x, logdet = composed_forward(model.layers[0], as_node(u), None)
        np.testing.assert_allclose(x.value, u)
        np.testing.assert_allclose(logdet.value, [0.0])

    def test_hand_evaluated_scale_and_shift(self):
        model = small_flow(dim=2, coupling_layers=1)
        force_affine(model.layers[0], LN2, 1.0)
        x, logdet = composed_forward(model.layers[0], as_node([0.0, 1.0]), None)
        np.testing.assert_allclose(x.value, [[0.0, 3.0]], atol=1e-12)
        np.testing.assert_allclose(logdet.value, [LN2], atol=1e-12)

    def test_symmetric_scales_cancel_in_logdet(self):
        model = small_flow(dim=4, coupling_layers=1)
        force_affine(model.layers[0], [0.5, -0.5], [0.0, 0.0])
        _, logdet = composed_forward(model.layers[0], as_node([1.0, 2.0, 3.0, 4.0]), None)
        np.testing.assert_allclose(logdet.value, [0.0], atol=1e-12)

    def test_inverse_of_hand_example(self):
        model = small_flow(dim=2, coupling_layers=1)
        force_affine(model.layers[0], LN2, 1.0)
        out = model.layers[0].inverse(chained([0.0, 3.0]), context_node(None, 1), None, False)
        np.testing.assert_allclose(out.value[:, :2], [[0.0, 1.0]], atol=1e-12)
        np.testing.assert_allclose(out.value[:, 2], [-LN2], atol=1e-12)

    def test_identity_inverse_is_identity(self):
        model = small_flow(dim=2, coupling_layers=1)
        x = np.array([[0.7, -0.4]])
        out = model.layers[0].inverse(chained(x), context_node(None, 1), None, False)
        np.testing.assert_allclose(out.value[:, :2], x)

    def test_round_trip_with_random_parameters(self):
        rng = np.random.default_rng(0)
        model = small_flow(dim=4, coupling_layers=1, context_dim=3)
        randomize_model(model, rng)
        layer = model.layers[0]
        u = rng.normal(size=(5, 4))
        ctx = dc.constant(rng.normal(size=(5, 3)))
        x, fwd = composed_forward(layer, dc.constant(u), ctx)
        back = layer.inverse(chained(x.value), ctx, None, False)
        np.testing.assert_allclose(back.value[:, :4], u, atol=1e-9)
        np.testing.assert_allclose(fwd.value, -back.value[:, 4], atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        model = small_flow(dim=4, coupling_layers=1)
        with pytest.raises(dc.ShapeError):
            composed_forward(model.layers[0], as_node([1.0, 2.0]), None)

    def test_inverse_takes_only_the_chained_width(self):
        # (batch, dim + 1) is the one form: unchained points, and chained
        # points of another width, are rejected, by the pass too; so is a
        # context of another width than the layer's
        model = small_flow(dim=4, coupling_layers=1)
        empty = context_node(None, 1)
        for x in (as_node([1.0, 2.0, 3.0, 4.0]), chained([1.0, 2.0]), chained([1.0] * 6)):
            with pytest.raises(dc.ShapeError, match=r"^coupling: .* and \(5,\)$"):
                model.layers[0].inverse(x, empty, None, False)
        with pytest.raises(dc.ShapeError, match=r"^coupling: "):
            model.latent_nodes(np.array([[1.0, 2.0]]), empty, None)
        conditioned = small_flow(dim=4, coupling_layers=1, context_dim=3).layers[0]
        with pytest.raises(dc.ShapeError, match=r"^coupling context: "):
            conditioned.inverse(chained([1.0] * 4), empty, None, False)


class TestNormStats:
    """A ``FlowModel`` is built with its ``norm_stats`` and checks them once."""

    @staticmethod
    def _build(dim, lo, hi):
        rng = np.random.default_rng(0)
        return FlowModel(dim, FlowConfig(), build_encoder(EncoderConfig("none"), dim, rng),
                         (np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)), rng)

    def test_an_odd_channel_count_fits_the_padded_dim(self):
        model = self._build(4, [0.0, 1.0, 2.0], [1.0, 1.0, 3.0])  # channel 1 is constant
        np.testing.assert_array_equal(model.norm_stats[0], [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(model.norm_stats[1], [1.0, 1.0, 3.0])

    @pytest.mark.parametrize("dim,channels", [(4, 2), (2, 4), (4, 5), (4, 1)])
    def test_statistics_that_do_not_fit_dim_rejected(self, dim, channels):
        with pytest.raises(ValueError, match=re.escape(
                f"dim {dim} does not fit {channels} norm_stats channels")):
            self._build(dim, np.zeros(channels), np.ones(channels))

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_statistics_rejected_with_channel(self, side, value):
        stats = [[0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]]
        stats[side][2] = value
        with pytest.raises(ValueError, match="^non-finite norm_stats for channel 2$"):
            self._build(4, *stats)

    def test_min_above_max_rejected_with_channel(self):
        with pytest.raises(ValueError, match="^norm_stats min above max for channel 1$"):
            self._build(4, [0.0, 2.0, 0.0, 5.0], [1.0, 1.0, 1.0, 4.0])

    def test_model_keeps_its_own_copy(self):
        # the checked statistics cannot change behind the model's back
        lo, hi = np.zeros(2), np.ones(2)
        model = self._build(2, lo, hi)
        lo[0] = 5.0
        np.testing.assert_array_equal(model.norm_stats[0], [0.0, 0.0])


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
        model = small_flow(dim=2, coupling_layers=3)
        x = np.array([[0.4, -1.2], [0.0, 0.0]])
        np.testing.assert_allclose(log_prob(model, x), gaussian_log_density(x))

    def test_two_swapped_scaling_layers_drop_density_by_dim_ln2(self):
        model = small_flow(dim=2, coupling_layers=2)
        force_affine(model.layers[0], LN2, 0.0)
        force_affine(model.layers[1], LN2, 0.0)
        x = np.array([[0.8, -0.6]])
        points, _ = latent(model, x)
        expected = gaussian_log_density(points) - 2 * LN2
        np.testing.assert_allclose(log_prob(model, x), expected, atol=1e-12)

    def test_density_integrates_to_one_on_grid(self):
        rng = np.random.default_rng(42)
        model = small_flow(dim=2, coupling_layers=2, context_dim=3)
        randomize_model(model, rng, scale=0.3)
        ctx_row = rng.normal(size=3)
        axis = np.linspace(-8.0, 8.0, 321)
        step = axis[1] - axis[0]
        grid = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
        total = 0.0
        for lo in range(0, grid.shape[0], 8192):
            chunk = grid[lo : lo + 8192]
            ctx = np.broadcast_to(ctx_row, (chunk.shape[0], 3))
            total += float(np.exp(log_prob(model, chunk, ctx)).sum()) * step * step
        assert total == pytest.approx(1.0, abs=0.02)

    def test_nan_input_reports_layer_index(self):
        model = small_flow(dim=2, coupling_layers=3)
        with pytest.raises(FlowNanError) as excinfo:
            log_prob(model, np.array([[np.nan, 0.0]]))
        assert excinfo.value.layer_index == 2

    def test_logdet_chain_consistent_between_directions(self):
        rng = np.random.default_rng(1)
        model = small_flow(dim=4, coupling_layers=3, context_dim=2)
        randomize_model(model, rng)
        ctx_values = rng.normal(size=(3, 2))
        u = rng.normal(size=(3, 4))
        ctx = dc.constant(ctx_values)
        x = dc.constant(u)
        forward_total = np.zeros(3)
        for i, layer in enumerate(model.layers):
            x, ld = composed_forward(layer, x, ctx)
            forward_total += ld.value
            if i < len(model.layers) - 1:
                half = model.dim // 2
                x = dc.concat([x[:, half:], x[:, :half]], axis=1)
        points, inverse_total = latent(model, x.value, ctx_values)
        np.testing.assert_allclose(points, u, atol=1e-9)
        np.testing.assert_allclose(forward_total, -inverse_total, atol=1e-10)


class TestInvertibility:
    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_round_trip_under_random_parameters(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(10):
            model = small_flow(dim=dim, coupling_layers=3, context_dim=4, seed=int(rng.integers(1 << 30)))
            randomize_model(model, rng)
            ctx_values = rng.normal(size=(4, 4))
            u = rng.normal(size=(4, dim))
            ctx = dc.constant(ctx_values)
            x = dc.constant(u)
            for i, layer in enumerate(model.layers):
                x, _ = composed_forward(layer, x, ctx)
                if i < len(model.layers) - 1:
                    half = dim // 2
                    x = dc.concat([x[:, half:], x[:, :half]], axis=1)
            points, _ = latent(model, x.value, ctx_values)
            assert np.abs(points - u).max() <= 1e-6


class TestScaleStabilization:
    def test_effective_scale_bounded_by_cap_under_saturating_inputs(self):
        model = small_flow(dim=2, coupling_layers=1)
        layer = model.layers[0]
        for w, b in layer.hidden:
            w.value[:] = 50.0
            b.value[:] = 50.0
        layer.head_w.value[:] = 50.0
        layer.head_b.value[:] = 50.0
        cap = layer.scale_cap.value.copy()
        x = np.array([[1e3, -1e3]])
        _, logdet = composed_forward(layer, as_node(x), None)
        assert np.isfinite(logdet.value).all()
        assert np.abs(logdet.value) <= np.abs(cap).sum() + 1e-12


class TestNllLoss:
    def test_identity_model_at_origin(self):
        model = small_flow(dim=2, coupling_layers=2)
        loss = nll_loss(model, np.zeros((3, 2)), context_node(None, 3), None)
        assert float(loss.value) == pytest.approx(math.log(2 * math.pi))

    def test_duplicated_batch_has_same_loss(self):
        rng = np.random.default_rng(8)
        model = small_flow(dim=2, coupling_layers=2)
        randomize_model(model, rng, scale=0.2)
        batch = rng.normal(size=(6, 2))
        single = float(nll_loss(model, batch, context_node(None, 6), None).value)
        doubled = nll_loss(model, np.vstack([batch, batch]), context_node(None, 12), None)
        assert float(doubled.value) == pytest.approx(single)

    def test_single_point_unit_radius(self):
        model = small_flow(dim=2, coupling_layers=1)
        loss = nll_loss(model, np.array([[1.0, 1.0]]), context_node(None, 1), None)
        assert float(loss.value) == pytest.approx(math.log(2 * math.pi) + 1.0)

    def test_empty_batch_rejected(self):
        model = small_flow(dim=2, coupling_layers=1)
        with pytest.raises(ValueError, match="empty"):
            nll_loss(model, np.zeros((0, 2)), context_node(None, 0), None)


class TestGradients:
    def test_loss_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        model = small_flow(dim=2, coupling_layers=2, context_dim=2, multiplier=1)
        randomize_model(model, rng, scale=0.3)
        x = rng.normal(size=(4, 2))
        ctx = rng.normal(size=(4, 2))

        def loss():
            return nll_loss(model, x, dc.constant(ctx), None)

        err = finite_diff_check(loss, model.parameters(), epsilon=1e-5)
        assert err < 1e-4


class TestFusedCoupling:
    """``CouplingLayer.inverse`` is one fused node; the composition of
    primitives in ``helpers.composed_inverse`` is its reference. Values and
    gradients must be equal, not merely close."""

    @staticmethod
    def _values_and_grads(build, model, x, ctx_values, training):
        ctx = (context_node(None, len(x)) if ctx_values is None
               else dc.Parameter(ctx_values.copy(), "ctx"))
        latent, log_det = build(model, x, ctx, np.random.default_rng(11) if training else None)
        loss = dc.mean(dc.neg(dc.add(_gaussian_log_density_nodes(latent), log_det)))
        params = model.parameters() + ([] if ctx_values is None else [ctx])
        return latent.value, log_det.value, loss.value, backward_grads(loss, params)

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "training"])
    @pytest.mark.parametrize("dim,coupling_layers,context_dim,cond_layers", [
        (2, 1, 0, 3), (4, 3, 3, 4), (6, 4, 5, 5), (8, 12, 2, 3),
    ])
    def test_stack_matches_composed_primitives(self, training, dim, coupling_layers, context_dim,
                                               cond_layers):
        rng = np.random.default_rng(dim * 100 + coupling_layers)
        model = small_flow(dim=dim, coupling_layers=coupling_layers, context_dim=context_dim,
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
        # the pass draws every mask at once; the composition draws one per
        # hidden layer and coupling layer: the same doubles, in the same order
        model = small_flow(dim=4, coupling_layers=3, context_dim=2, dropout=0.5)
        randomize_model(model, np.random.default_rng(3))
        for batch in (9, 37):
            x = np.random.default_rng(4).normal(size=(batch, 4))
            ctx = dc.constant(np.random.default_rng(5).normal(size=(batch, 2)))
            fused_rng, reference_rng = np.random.default_rng(6), np.random.default_rng(6)
            latent, log_det = model.latent_nodes(x, ctx, fused_rng)
            points, total = composed_latent(model, x, ctx, reference_rng)
            np.testing.assert_array_equal(latent.value, points.value)
            np.testing.assert_array_equal(log_det.value, total.value)
            assert fused_rng.random() == reference_rng.random()

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "training"])
    def test_constant_inputs_get_no_gradient_and_change_no_parameter_gradient(self, training):
        # the same chained points (into one fused layer) and context (into the
        # whole pass) as constants and as Parameters: the constants keep grad
        # None, and every parameter gradient is equal
        model = small_flow(dim=4, coupling_layers=3, context_dim=3)
        data = np.random.default_rng(12)
        randomize_model(model, data)
        points, context = data.normal(size=(11, 5)), data.normal(size=(11, 3))
        layer, fixed_ctx = model.layers[1], dc.constant(context)
        layer_grads, grads = [], []
        for leaf in (lambda v, name: dc.constant(v), dc.Parameter):
            x, ctx = leaf(points.copy(), "x"), leaf(context.copy(), "ctx")
            masks = model._dropout_masks(11, np.random.default_rng(1))[1] if training else None
            out = dc.coupling_inverse(x, fixed_ctx, layer.hidden, layer.head_w, layer.head_b,
                                      layer.scale_cap, masks, swap=True)
            layer_grads.append(backward_grads(dc.mean(dc.mul(out, out)), layer.parameters()))
            rng = np.random.default_rng(1) if training else None
            loss = dc.mean(dc.neg(model.log_prob_nodes(points[:, :4], ctx, rng)))
            grads.append(backward_grads(loss, model.parameters()))
            if isinstance(x, dc.Parameter):
                # the running log-det column included
                assert (x.grad != 0).any(axis=0).all() and ctx.grad.any()
            else:
                assert x.grad is None and ctx.grad is None
        for pair in (layer_grads, grads):
            assert pair[0].keys() == pair[1].keys()
            for name, grad in pair[1].items():
                np.testing.assert_array_equal(pair[0][name], grad, err_msg=name)

    def test_finite_differences_through_stack_with_mlp_encoder(self):
        rng = np.random.default_rng(21)
        model = build_model_with_encoder(
            2, 3, EncoderConfig("mlp", lookback=3, mlp_layers=3), seed=2, multiplier=1)
        randomize_model(model, rng, scale=0.3)
        x = rng.normal(size=(4, 2))
        windows = rng.normal(size=(4, 3, 2))

        def loss():
            return nll_loss(model, x, model.encoder.encode_batch(windows, None), None)

        assert any(p.name.startswith("encoder.") for p in model.parameters())
        assert finite_diff_check(loss, model.parameters(), epsilon=1e-5) < 1e-4

    def test_nan_from_a_middle_layer_names_that_layer(self):
        model = small_flow(dim=2, coupling_layers=3)
        model.layers[1].head_b.value[:] = np.nan
        with pytest.raises(FlowNanError) as excinfo:
            log_prob(model, np.array([[0.3, -0.1]]))
        assert excinfo.value.layer_index == 1

    def test_fused_inverse_then_composed_forward_round_trips(self):
        rng = np.random.default_rng(8)
        model = small_flow(dim=4, coupling_layers=1, context_dim=3)
        randomize_model(model, rng)
        layer = model.layers[0]
        x = rng.normal(size=(6, 4))
        ctx = dc.constant(rng.normal(size=(6, 3)))
        inverted = layer.inverse(chained(x), ctx, None, False)
        back, fwd = composed_forward(layer, dc.constant(inverted.value[:, :4]), ctx)
        np.testing.assert_allclose(back.value, x, atol=1e-9)
        np.testing.assert_allclose(fwd.value, -inverted.value[:, 4], atol=1e-12)

    def test_builds_one_node_per_layer(self):
        model = small_flow(dim=4, coupling_layers=5, context_dim=2)
        ctx = dc.constant(np.zeros((3, 2)))
        latent, log_det = model.latent_nodes(np.zeros((3, 4)), ctx, np.random.default_rng(0))
        ops = [node.op for node in dc._topo_order(dc.sum_(log_det))
               if not isinstance(node, dc.Parameter)]
        assert ops.count("coupling") == 5
        assert len(ops) == 5 + 4  # input, context, log-det slice and the sum

    def test_dropped_graph_is_freed_without_cycle_collection(self):
        import gc

        model = small_flow(dim=4, coupling_layers=3, context_dim=2)
        gc.collect()
        gc.disable()
        try:
            ctx = dc.constant(np.ones((5, 2)))
            loss = nll_loss(model, np.ones((5, 4)), ctx, np.random.default_rng(0))
            dc.backward(loss)
            del loss, ctx
            assert gc.collect() == 0
        finally:
            gc.enable()
