"""Shared test utilities."""

import numpy as np

from tcflow import diffcore as dc
from tcflow import metrics as mx
from tcflow.conditioners import EncoderConfig, build_encoder
from tcflow.flow import ConditionerConfig, FlowConfig, FlowModel
from tcflow.hyperopt import CmaEs, _openblas_threads_function
from tcflow.metrics import precision_recall_f1


def openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None without one."""
    get_threads = _openblas_threads_function("get")
    return None if get_threads is None else get_threads()


def auc_pairwise_oracle(scores, labels):
    """O(n^2) pairwise counting with ties worth one half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    pos = scores[labels]
    neg = scores[~labels]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (pos.size * neg.size)


def best_f1_threshold_oracle(scores, labels):
    """The loop over every unique score, ascending, keeping the first best F1
    of ``precision_recall_f1``: the exact reference for ``select_threshold``."""
    best_thr, best_f1 = float(scores.max()), -1.0
    for thr in np.unique(scores):
        _, _, f1 = precision_recall_f1(scores, labels, float(thr))
        if f1 > best_f1:
            best_f1, best_thr = f1, float(thr)
    return best_thr


def range_labels(labels, width: int) -> np.ndarray:
    """Continuous label weights: 1 on ranges, linear decay through a buffer
    of ``width`` cells on each side, max where buffers overlap. ``vus_roc``
    averages the weighted AUC over these weights for widths 0..max_width."""
    labels = np.asarray(labels, dtype=bool)
    if width < 0:
        raise ValueError("buffer width must be >= 0")
    if width == 0 or not labels.any():
        return labels.astype(np.float64)
    return mx._buffer_weights(mx._distance_to_true(labels), width)


def small_flow(dim=2, n_layers=2, context_dim=0, seed=0, multiplier=2,
               cond_layers=3, dropout=0.1, funnel=1.5, encoder=None):
    cfg = FlowConfig(n_layers, ConditionerConfig(multiplier, cond_layers, dropout, funnel))
    if encoder is None:
        encoder = (_FixedDimEncoder(context_dim) if context_dim > 0
                   else build_encoder(EncoderConfig("none"), dim))
    return FlowModel(dim, cfg, encoder, np.random.default_rng(seed))


class _FixedDimEncoder:
    """Bare encoder stub exposing only a context dimension."""

    def __init__(self, context_dim):
        self.context_dim = context_dim

    def parameters(self):
        return []


def build_model_with_encoder(dim, n_layers, encoder_cfg: EncoderConfig, seed=0,
                             multiplier=2, cond_layers=3):
    rng = np.random.default_rng(seed)
    encoder = build_encoder(encoder_cfg, dim, rng)
    cfg = FlowConfig(n_layers, ConditionerConfig(multiplier, cond_layers, 0.1, 1.5))
    return FlowModel(dim, cfg, encoder, rng)


def randomize_model(model, rng, scale=0.4):
    """Overwrite every parameter (including heads and caps) with noise, so the
    flow is far from the identity."""
    for p in model.parameters():
        p.value = rng.normal(0.0, scale, p.value.shape)


def force_affine(layer, log_scale, shift):
    """Pin a coupling layer to constant (log_scale, shift) regardless of input."""
    half = layer.dim - layer.split
    for w, b in layer.hidden:
        w.value[:] = 0.0
        b.value[:] = 0.0
    layer.head_w.value[:] = 0.0
    layer.head_b.value[:half] = 1.0
    layer.head_b.value[half:] = np.asarray(shift, dtype=float)
    layer.scale_cap.value[:] = np.asarray(log_scale, dtype=float) / np.tanh(1.0)


def log_prob(model, points, context=None):
    """Evaluation-mode ``FlowModel.log_prob_nodes``, plain arrays in and out."""
    return model.log_prob_nodes(points, context).value


def composed_scale_shift(layer, untouched, context, rng=None):
    """Reference conditioner net of a coupling layer, built from diffcore
    primitives: ``(log_scale, shift)`` nodes for the untouched half and the
    context, with one dropout draw per hidden layer when ``rng`` is given."""
    h = untouched if context is None else dc.concat([untouched, context], axis=1)
    for w, b in layer.hidden:
        h = dc.tanh(dc.add(dc.matmul(h, w), b))
        h = dc.dropout(h, layer.cfg.dropout, rng)
    raw = dc.add(dc.matmul(h, layer.head_w), layer.head_b)
    out_half = layer.dim - layer.split
    log_scale = dc.mul(layer.scale_cap, dc.tanh(raw[:, :out_half]))
    return log_scale, raw[:, out_half:]


def composed_forward(layer, u, context):
    """Reference base-to-data direction of a coupling layer, which the
    detector never runs: returns ``([u1 | x2], per-row log|det J|)`` as graph
    nodes, the log-det being the row sum of the effective scale."""
    layer._check(u, context, (layer.dim,))
    u1 = u[:, : layer.split]
    u2 = u[:, layer.split :]
    log_scale, shift = composed_scale_shift(layer, u1, context)
    x2 = dc.add(dc.mul(u2, dc.exp(log_scale)), shift)
    return dc.concat([u1, x2], axis=1), dc.sum_(log_scale, axis=1)


def composed_inverse(layer, x, context, rng=None):
    """Reference coupling inverse built from diffcore primitives: returns
    ``([x1 | u2], per-row log-det)`` as graph nodes, the composition that
    ``dc.coupling_inverse`` fuses into one node."""
    x1 = x[:, : layer.split]
    x2 = x[:, layer.split :]
    log_scale, shift = composed_scale_shift(layer, x1, context, rng)
    u2 = dc.mul(dc.sub(x2, shift), dc.exp(dc.neg(log_scale)))
    return dc.concat([x1, u2], axis=1), dc.neg(dc.sum_(log_scale, axis=1))


def composed_latent(model, points, context=None, rng=None):
    """Reference ``FlowModel.latent_nodes``: one ``composed_inverse`` per layer,
    halves swapped between layers, log-dets summed in graph nodes."""
    x = points if isinstance(points, dc.Node) else dc.constant(points)
    ctx = model._context_node(context)
    total = None
    for i in reversed(range(len(model.layers))):
        x, log_det = composed_inverse(model.layers[i], x, ctx, rng)
        total = log_det if total is None else dc.add(total, log_det)
        if i > 0:
            half = model.dim // 2
            x = dc.concat([x[:, half:], x[:, :half]], axis=1)
    return x, total


def einsum_conv1d(x, weight, bias=None):
    """Reference ``dc.conv1d``: one ``einsum`` over sliding windows of the
    zero-padded input for the forward and for the weight gradient, a per-tap
    loop for the input gradient, and the bias added by a separate
    ``dc.add`` node."""
    kernel = weight.value.shape[0]
    left, right = (kernel - 1) // 2, kernel // 2
    padded = np.pad(x.value, ((0, 0), (left, right), (0, 0)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, kernel, axis=1)
    out = dc.Node(np.einsum("btck,kco->bto", windows, weight.value), "conv1d", (x, weight))
    n_time = x.value.shape[1]

    def backward(out):
        weight.grad += np.einsum("btck,bto->kco", windows, out.grad)
        grad_padded = np.zeros_like(padded)
        for k in range(kernel):
            grad_padded[:, k : k + n_time, :] += out.grad @ weight.value[k].T
        x.grad += grad_padded[:, left : left + n_time, :]

    out._backward = backward
    return out if bias is None else dc.add(out, bias)


def reference_window_rows(values, lookback, train_idx, val_idx):
    """Reference batched training rows: every fully observed window
    (t, rows t - lookback .. t - 1, row t) for t >= lookback, or every row
    with an empty (0, D) context for lookback 0, kept when t is in a split's
    index set. Returns (train targets, train contexts, val targets, val
    contexts)."""
    values = np.asarray(values, dtype=np.float64)
    if lookback > 0:
        windows = [(t, values[t - lookback : t].copy(), values[t].copy())
                   for t in range(lookback, values.shape[0])]
        targets = np.stack([w[2] for w in windows])
        contexts = np.stack([w[1] for w in windows])
        t_index = [w[0] for w in windows]
    else:
        targets, t_index = values, range(values.shape[0])
        contexts = np.empty((values.shape[0], 0, values.shape[1]))
    train_set, val_set = set(train_idx.tolist()), set(val_idx.tolist())
    in_train = np.array([t in train_set for t in t_index])
    in_val = np.array([t in val_set for t in t_index])
    return targets[in_train], contexts[in_train], targets[in_val], contexts[in_val]


def composed_lstm_stack(encoder, steps, states, rng=None):
    """Reference ``LstmEncoder._run_stack``: one ``dc.lstm_cell`` per step
    and layer over a list of (batch, input) step nodes, from per-layer
    ``(h, c)`` node pairs, with one dropout draw per step between layers when
    ``rng`` is given. Returns the top layer's hidden nodes and the new pairs."""
    seq = list(steps)
    new_states = []
    for j, (w, b) in enumerate(encoder.pairs):
        h, c = states[j]
        outputs = []
        for step in seq:
            h, c = dc.lstm_cell(step, h, c, w, b)
            outputs.append(h)
        new_states.append((h, c))
        if j < len(encoder.pairs) - 1:
            outputs = [dc.dropout(o, encoder.cfg.dropout, rng) for o in outputs]
        seq = outputs
    return seq, new_states


def param_grads(params):
    """Each parameter's ``grad``, copied (a later ``dc.backward`` overwrites
    it in place), keyed by name."""
    return {p.name: p.grad.copy() for p in params}


def backward_grads(loss, params):
    """``dc.backward(loss)``, then ``param_grads(params)``; raises KeyError
    for a parameter that the loss graph does not reach."""
    params = list(params)
    reached = {id(node) for node in dc._topo_order(loss)}
    missing = [p.name for p in params if id(p) not in reached]
    if missing:
        raise KeyError(f"parameters not reached by the loss graph: {missing}")
    dc.backward(loss)
    return param_grads(params)


def finite_diff_check(build_loss, params, epsilon=1e-5):
    """Max entrywise relative error between analytic and central-difference
    gradients: |analytic - numeric| / (|analytic| + |numeric| + 1e-12).

    ``build_loss`` must rebuild the scalar loss from the parameters' current
    values and be deterministic (dropout disabled).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    params = list(params)
    analytic = backward_grads(build_loss(), params)
    worst = 0.0
    for p in params:
        a_grad = analytic[p.name]
        for idx in np.ndindex(p.value.shape):
            saved = p.value[idx]
            p.value[idx] = saved + epsilon
            f_plus = float(build_loss().value)
            p.value[idx] = saved - epsilon
            f_minus = float(build_loss().value)
            p.value[idx] = saved
            numeric = (f_plus - f_minus) / (2.0 * epsilon)
            a = float(a_grad[idx])
            err = abs(a - numeric) / (abs(a) + abs(numeric) + 1e-12)
            worst = max(worst, err)
    return worst


def minimize(func, n, budget, seed=0, sigma0=0.3):
    """CMA-ES loop: minimize func over [0, 1]^n within a budget of
    evaluations; returns (best vector, best fitness, evaluations used)."""
    opt = CmaEs(n, seed=seed, sigma0=sigma0)
    if budget < opt.lam:
        raise ValueError(f"budget {budget} is below one population of {opt.lam}")
    used = 0
    while used + opt.lam <= budget:
        xs = opt.ask()
        fits = np.array([func(x) for x in xs])
        opt.tell(xs, fits)
        used += opt.lam
    return opt.best_vector, opt.best_fitness, used
