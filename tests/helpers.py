"""Shared test utilities."""

import numpy as np

from tcflow import diffcore as dc
from tcflow import metrics as mx
from tcflow.conditioners import EncoderConfig, build_encoder
from tcflow.data import DataError, label_runs
from tcflow.flow import FlowConfig, FlowModel
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


def identity_stats(dim):
    """Statistics under which ``prepare`` maps a value v to (v + 1) - 1,
    which is v up to rounding."""
    return np.full(dim, -1.0), np.full(dim, 1.0)


def small_flow(dim=2, coupling_layers=2, context_dim=0, seed=0, multiplier=2,
               cond_layers=3, dropout=0.1, funnel=1.5, encoder=None):
    """A ``FlowModel`` of ``identity_stats``."""
    cfg = FlowConfig(coupling_layers, multiplier, cond_layers, dropout, funnel)
    if encoder is None:
        encoder = (_FixedDimEncoder(context_dim) if context_dim > 0
                   else build_encoder(EncoderConfig("none"), dim, np.random.default_rng(seed)))
    return FlowModel(dim, cfg, encoder, identity_stats(dim), np.random.default_rng(seed))


class _FixedDimEncoder:
    """Bare encoder stub exposing only a context dimension."""

    def __init__(self, context_dim):
        self.context_dim = context_dim

    def parameters(self):
        return []


def build_model_with_encoder(dim, coupling_layers, encoder_cfg: EncoderConfig, seed=0,
                             multiplier=2, cond_layers=3):
    """A ``FlowModel`` of ``identity_stats``, its encoder built first from
    the same rng."""
    rng = np.random.default_rng(seed)
    encoder = build_encoder(encoder_cfg, dim, rng)
    cfg = FlowConfig(coupling_layers, multiplier, cond_layers, 0.1, 1.5)
    return FlowModel(dim, cfg, encoder, identity_stats(dim), rng)


def randomize_model(model, rng, scale=0.4):
    """Overwrite every parameter (including heads and caps) with noise, so the
    flow is far from the identity."""
    for p in model.parameters():
        p.value = rng.normal(0.0, scale, p.value.shape)


def force_affine(layer, log_scale, shift):
    """Pin a coupling layer to constant (log_scale, shift) regardless of input."""
    half = layer.dim // 2
    for w, b in layer.hidden:
        w.value[:] = 0.0
        b.value[:] = 0.0
    layer.head_w.value[:] = 0.0
    layer.head_b.value[:half] = 1.0
    layer.head_b.value[half:] = np.asarray(shift, dtype=float)
    layer.scale_cap.value[:] = np.asarray(log_scale, dtype=float) / np.tanh(1.0)


def context_node(context, batch):
    """A context array as a constant node, a node as it is, and None as the
    empty (``batch``, 0) context of the unconditioned flow."""
    if context is None:
        context = np.empty((batch, 0))
    return context if isinstance(context, dc.Node) else dc.constant(context)


def log_prob(model, points, context=None):
    """Evaluation-mode ``FlowModel.log_prob_nodes``, plain arrays in and out
    (the context may also be a node)."""
    return model.log_prob_nodes(points, context_node(context, len(points)), None).value


def latent(model, points, context=None):
    """Evaluation-mode ``FlowModel.latent_nodes``: (latent, log-det) arrays,
    plain arrays in (the context may also be a node)."""
    latent_node, log_det = model.latent_nodes(points, context_node(context, len(points)), None)
    return latent_node.value, log_det.value


def composed_scale_shift(layer, untouched, context, rng=None, rate=0.0):
    """Reference conditioner net of a coupling layer, built from diffcore
    primitives: ``(log_scale, shift)`` nodes for the untouched half and the
    context, with one dropout draw at ``rate`` per hidden layer when ``rng``
    is given; a None ``context`` is the empty one."""
    h = dc.concat([untouched, context_node(context, len(untouched.value))], axis=1)
    for w, b in layer.hidden:
        h = dc.tanh(dc.add(dc.matmul(h, w), b))
        h = dc.dropout(h, rate, rng)
    raw = dc.add(dc.matmul(h, layer.head_w), layer.head_b)
    half = layer.dim // 2
    log_scale = dc.mul(layer.scale_cap, dc.tanh(raw[:, :half]))
    return log_scale, raw[:, half:]


def composed_forward(layer, u, context):
    """Reference base-to-data direction of a coupling layer, which the
    detector never runs: returns ``([u1 | x2], per-row log|det J|)`` as graph
    nodes, the log-det being the row sum of the effective scale."""
    if u.value.ndim != 2 or u.value.shape[1] != layer.dim:
        raise dc.ShapeError("coupling", u.value.shape, (layer.dim,))
    context = context_node(context, len(u.value))
    if context.value.shape[1] != layer.context_dim:
        raise dc.ShapeError("coupling context", context.value.shape[1:], (layer.context_dim,))
    u1 = u[:, : layer.dim // 2]
    u2 = u[:, layer.dim // 2 :]
    log_scale, shift = composed_scale_shift(layer, u1, context)
    x2 = dc.add(dc.mul(u2, dc.exp(log_scale)), shift)
    return dc.concat([u1, x2], axis=1), dc.sum_(log_scale, axis=1)


def composed_inverse(layer, x, context, rng=None, rate=0.0):
    """Reference coupling inverse built from diffcore primitives: returns
    ``([x1 | u2], per-row log-det)`` as graph nodes, the composition that
    ``dc.coupling_inverse`` fuses into one node; dropout as
    ``composed_scale_shift``."""
    x1 = x[:, : layer.dim // 2]
    x2 = x[:, layer.dim // 2 :]
    log_scale, shift = composed_scale_shift(layer, x1, context, rng, rate)
    u2 = dc.mul(dc.sub(x2, shift), dc.exp(dc.neg(log_scale)))
    return dc.concat([x1, u2], axis=1), dc.neg(dc.sum_(log_scale, axis=1))


def composed_latent(model, points, context=None, rng=None):
    """Reference ``FlowModel.latent_nodes``: one ``composed_inverse`` per layer,
    halves swapped between layers, log-dets summed in graph nodes."""
    x = dc.constant(points)
    ctx = context_node(context, len(points))
    total = None
    for i in reversed(range(len(model.layers))):
        x, log_det = composed_inverse(model.layers[i], x, ctx, rng, model.config.cond_dropout)
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
    n_time = x.value.shape[1]

    def backward(out):
        weight.grad += np.einsum("btck,bto->kco", windows, out.grad)
        grad_padded = np.zeros_like(padded)
        for k in range(kernel):
            grad_padded[:, k : k + n_time, :] += out.grad @ weight.value[k].T
        x.grad += grad_padded[:, left : left + n_time, :]

    out = dc.Node(np.einsum("btck,kco->bto", windows, weight.value), "conv1d", (x, weight),
                  backward)
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


def reference_split(n_steps, lookback, mode, rng):
    """Reference train/validation split, before ``Encoder.split``'s cut:
    ``random-sections`` (the stateless kinds) carves five equal random
    sections totaling 20% of the series, one ``rng.integers`` draw per fifth;
    ``sequential-tail`` (the stateful LSTM) uses the last 20%. Every training
    index is more than ``lookback`` steps away from every validation index,
    found by excluding ``lookback`` rows around each run of the validation
    mask. Raises ``DataError`` where no such split exists."""
    val_total = int(round(n_steps * (1.0 - 0.8)))  # the training share is 0.8
    if val_total < 5:
        raise DataError(f"series too short to split: {n_steps} steps")
    gap = max(0, int(lookback))
    val_mask = np.zeros(n_steps, dtype=bool)
    if mode == "sequential-tail":
        val_mask[n_steps - val_total :] = True
    else:
        section = val_total // 5
        block = n_steps // 5
        if section < 1 or block <= section + gap:
            raise DataError(
                f"series too short for five sections of {section} with gap {gap}"
            )
        for b in range(5):
            lo = b * block
            start = lo + int(rng.integers(0, block - section + 1))
            val_mask[start : start + section] = True
    excluded = val_mask.copy()
    val_idx = np.nonzero(val_mask)[0]
    for v0, v1 in label_runs(val_mask):
        excluded[max(0, v0 - gap) : min(n_steps, v1 + gap)] = True
    train_idx = np.nonzero(~excluded)[0]
    if train_idx.size == 0:
        raise DataError("gap exclusion removed every training index")
    return train_idx, val_idx


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


def gaussian_entropy(cov):
    """Differential entropy of a Gaussian of covariance ``cov``,
    1/2 log det(2 pi e cov), in nats."""
    return 0.5 * np.linalg.slogdet(2.0 * np.pi * np.e * np.asarray(cov, dtype=float))[1]


class GaussianVar1:
    """The stable Gaussian VAR(1) ``x_t = a x_{t-1} + e_t``, ``e_t ~ N(0, sigma)``.

    Its conditional density given the previous step is N(a x_{t-1}, sigma),
    of entropy ``conditional_entropy``. Its stationary law is N(0, P), of
    entropy ``stationary_entropy``, where P solves the discrete Lyapunov
    equation P = a P a^T + sigma.
    """

    def __init__(self, a, sigma):
        self.a = np.asarray(a, dtype=float)
        self.sigma = np.asarray(sigma, dtype=float)
        if np.abs(np.linalg.eigvals(self.a)).max() >= 1.0:
            raise ValueError("VAR(1) is not stable: a has an eigenvalue of modulus >= 1")
        dim = len(self.a)
        # vec(a P a^T) = (a kron a) vec(P), so vec(P) = (I - a kron a)^-1 vec(sigma)
        self.stationary_cov = np.linalg.solve(np.eye(dim * dim) - np.kron(self.a, self.a),
                                              self.sigma.reshape(-1)).reshape(dim, dim)
        self.conditional_entropy = gaussian_entropy(self.sigma)
        self.stationary_entropy = gaussian_entropy(self.stationary_cov)

    def sample(self, n_steps, seed):
        """(n_steps, dim) values, the first drawn from the stationary law."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n_steps, len(self.a)))
        x[0] = np.linalg.cholesky(self.stationary_cov) @ x[0]
        x[1:] = x[1:] @ np.linalg.cholesky(self.sigma).T
        for t in range(1, n_steps):
            x[t] += self.a @ x[t - 1]
        return x


def minimize(func, n, budget, seed=0):
    """CMA-ES loop: minimize func over [0, 1]^n within a budget of
    evaluations; returns (best vector, best fitness, evaluations used)."""
    opt = CmaEs(n, seed=seed)
    if budget < opt.lam:
        raise ValueError(f"budget {budget} is below one population of {opt.lam}")
    used = 0
    while used + opt.lam <= budget:
        xs = opt.ask()
        fits = np.array([func(x) for x in xs])
        opt.tell(xs, fits)
        used += opt.lam
    return opt.best_vector, opt.best_fitness, used
