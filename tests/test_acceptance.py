"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL
line. Run with ``pytest tests/test_acceptance.py -v -s``.

The detection criteria run a real CMA-ES search over generated data at a
small, fixed budget; they are calibrated to finish on a laptop CPU.
"""

import math
import time

import numpy as np
import pytest
from helpers import auc_pairwise_oracle, randomize_model, small_flow

from tcflow import data as dt
from tcflow import diffcore as dc
from tcflow import metrics as mx
from tcflow.conditioners import EncoderConfig, build_encoder, padded_context_windows
from tcflow.flow import ConditionerConfig, FlowConfig, nll_loss
from tcflow.hyperopt import CmaEs, minimize, run_search
from tcflow.score import score_series
from tcflow.train import TrainConfig, load_model, save_model, train_model


def report(name, ok, detail=""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def make_bundle(family, seed, anomalies, n_steps=2000):
    """Clean training series plus labeled evaluation and test series with the
    given anomalies injected at strided positions."""
    train = dt.generate_synthetic(family, n_steps, 2, noise=0.05, seed=seed)
    rng = np.random.default_rng(seed + 3)
    out = []
    for offset in (1, 2):
        ds = dt.generate_synthetic(family, n_steps, 2, noise=0.05, seed=seed + offset)
        for i, (kind, length, mag) in enumerate(anomalies):
            start = int((i + 1) * n_steps / (len(anomalies) + 1) + rng.integers(-100, 100))
            channel = int(rng.integers(0, 2))
            spec = dt.AnomalySpec(kind, start, length, mag, (channel,))
            ds = dt.inject_anomaly(ds, spec, seed=int(rng.integers(1 << 30)))
        out.append(ds)
    return train, out[0], out[1]


SEARCH_CANDIDATE_CFG = TrainConfig(epochs=8, batch_size=128, learning_rate=3e-3, patience=3)


def searched_test_auc(family, method, seed, anomalies, budget):
    train, labeled, test = make_bundle(family, seed, anomalies)
    result = run_search(train, labeled, method, "labeled-30-70", budget=budget,
                        seed=seed, candidate_cfg=SEARCH_CANDIDATE_CFG,
                        final_epochs=20, lookback_max=50)
    prepared = dt.pad_even_channels(
        dt.normalize_with_stats(test, result.best_model.norm_stats))
    scores = score_series(result.best_model, prepared).scores
    return mx.auc_roc(scores, prepared.labels)


def test_a01_invertibility():
    start = time.perf_counter()
    worst = 0.0
    for dim in (2, 4, 8):
        rng = np.random.default_rng(dim)
        for trial in range(100):
            model = small_flow(dim=dim, n_layers=3, context_dim=4,
                               seed=int(rng.integers(1 << 30)))
            randomize_model(model, rng)
            u = rng.normal(size=(1, dim))
            ctx = rng.normal(size=(1, 4))
            x = dc.constant(u)
            ctx_node = dc.constant(ctx)
            for i, layer in enumerate(model.layers):
                x, _ = layer.forward(x, ctx_node)
                if i < len(model.layers) - 1:
                    x = dc.concat([x[:, dim // 2 :], x[:, : dim // 2]], axis=1)
            latent, _ = model.latent(x.value, ctx)
            worst = max(worst, float(np.abs(latent - u).max()))
    elapsed = time.perf_counter() - start
    report("invertibility", worst <= 1e-6 and elapsed < 10.0,
           f"max round-trip error {worst:.2e}, {elapsed:.1f}s over 300 triples")


def test_a02_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    errors = {}

    def check_full_loss(tag, encoder_cfg, lookback):
        enc_rng = np.random.default_rng(1)
        encoder = build_encoder(encoder_cfg, 2, enc_rng)
        cfg = FlowConfig(2, ConditionerConfig(1, 3, 0.1, 1.5))
        from tcflow.flow import FlowModel

        model = FlowModel(2, cfg, encoder, enc_rng)
        randomize_model(model, rng, scale=0.3)
        points = rng.normal(size=(3, 2))
        contexts = rng.normal(size=(3, lookback, 2)) if encoder is not None else None

        def loss():
            ctx = encoder.encode_batch(contexts) if encoder is not None else None
            return nll_loss(model, points, ctx)

        errors[tag] = dc.finite_diff_check(loss, model.parameters(), epsilon=1e-5)

    check_full_loss("coupling", EncoderConfig("none"), 0)
    check_full_loss("mlp", EncoderConfig("mlp", lookback=3, mlp_layers=3,
                                         mlp_compression=2), 3)
    check_full_loss("cnn", EncoderConfig("cnn", lookback=5, cnn_layers=2,
                                         cnn_kernel=3, cnn_max_channels=4), 5)
    check_full_loss("lstm", EncoderConfig("lstm-stateless", lookback=3,
                                          lstm_layers=1, lstm_hidden=3), 3)

    # stateful handover: gradient through a chain of stepwise encodings
    stateful = build_encoder(EncoderConfig("lstm-stateful", lookback=4,
                                           lstm_layers=1, lstm_hidden=3),
                             2, np.random.default_rng(2))
    from tcflow.flow import FlowModel

    model = FlowModel(2, FlowConfig(2, ConditionerConfig(1, 3, 0.1, 1.5)),
                      stateful, np.random.default_rng(3))
    randomize_model(model, rng, scale=0.3)
    stream = rng.normal(size=(5, 2))
    targets = rng.normal(size=(5, 2))

    def stateful_loss():
        handle = stateful.new_handle()
        terms = []
        for t in range(5):
            w = stateful.encode_step(stream[t], handle, t)
            terms.append(dc.neg(model.log_prob_nodes(targets[t : t + 1], w)))
        return dc.mean(dc.concat(terms, axis=0))

    errors["stateful"] = dc.finite_diff_check(stateful_loss, model.parameters(),
                                              epsilon=1e-5)
    elapsed = time.perf_counter() - start
    worst = max(errors.values())
    detail = ", ".join(f"{k}={v:.2e}" for k, v in errors.items())
    report("gradient-correctness", worst <= 1e-4 and elapsed < 60.0,
           f"{detail}, {elapsed:.1f}s")


def test_a03_density_sanity():
    start = time.perf_counter()
    ok = True
    details = []
    for dim in (2, 4):
        rng = np.random.default_rng(dim)
        model = small_flow(dim=dim, n_layers=3)
        draws = rng.standard_normal((10_000, dim))
        nll = -model.log_prob(draws)
        target = dim / 2.0 * math.log(2.0 * math.pi * math.e)
        stderr = nll.std(ddof=1) / math.sqrt(nll.size)
        gap = abs(nll.mean() - target)
        ok &= gap <= 3.0 * stderr
        details.append(f"D={dim}: |{nll.mean():.4f}-{target:.4f}|={gap:.4f} vs 3se={3*stderr:.4f}")
    elapsed = time.perf_counter() - start
    report("density-sanity", ok and elapsed < 10.0, "; ".join(details) + f", {elapsed:.1f}s")


def test_a04_learned_density_normalizes():
    ds = dt.pad_even_channels(dt.normalize_minmax(
        dt.generate_synthetic("sine", 800, 2, noise=0.2, seed=0)))
    model, _ = train_model(
        ds, EncoderConfig("passthrough", lookback=4),
        FlowConfig(2, ConditionerConfig(2, 3, 0.1, 1.5)),
        TrainConfig(epochs=8, batch_size=128, learning_rate=3e-3, seed=0))
    context = model.encoder.encode_batch(
        padded_context_windows(ds.values, 4)[300][None]).value[0]
    step, extent = 0.04, 12.0
    axis = np.arange(-extent, extent + step / 2, step)
    grid = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
    total = 0.0
    for lo in range(0, grid.shape[0], 16384):
        chunk = grid[lo : lo + 16384]
        ctx = np.broadcast_to(context, (chunk.shape[0], context.size))
        total += float(np.exp(model.log_prob(chunk, ctx)).sum()) * step * step
    report("density-normalization", 0.98 <= total <= 1.02,
           f"grid quadrature = {total:.4f}")


def test_a05_metric_oracles():
    rng = np.random.default_rng(0)
    exact = 0
    for _ in range(50):
        n = int(rng.integers(10, 201))
        scores = rng.integers(0, 15, n).astype(float)
        labels = rng.random(n) < 0.3
        if labels.all() or not labels.any():
            labels[0], labels[1] = True, False
        if mx.auc_roc(scores, labels) == auc_pairwise_oracle(scores, labels):
            exact += 1
    worked = mx.auc_roc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
    vus_gap = 0.0
    for seed in range(10):
        r = np.random.default_rng(seed)
        scores = r.normal(size=120)
        labels = r.random(120) < 0.25
        if labels.all() or not labels.any():
            labels[0], labels[1] = True, False
        vus_gap = max(vus_gap, abs(mx.vus_roc(scores, labels, 0) - mx.auc_roc(scores, labels)))
    report("metric-oracles",
           exact == 50 and worked == 0.75 and vus_gap < 1e-12,
           f"pairwise exact {exact}/50, worked example {worked}, max |vus0-auc| {vus_gap:.1e}")


def test_a06_cma_es():
    start = time.perf_counter()
    successes = 0
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        target = rng.uniform(0.25, 0.75, 5)

        def sphere(v):
            return float(((v - target) ** 2).sum())

        _, best, _ = minimize(sphere, 5, budget=3000, seed=seed)
        successes += best < 1e-8

    invariant = True
    for seed in range(5):
        means = []
        for transform in (lambda f: f, lambda f: np.tanh(f) * 3.0 + 5.0):
            opt = CmaEs(4, seed=seed)
            gen_rng = np.random.default_rng(seed)
            for _ in range(4):
                xs = opt.ask()
                fits = np.array([float(((x - 0.4) ** 2).sum()) for x in xs])
                opt.tell(xs, transform(fits))
            means.append(opt.state.mean.copy())
        invariant &= np.allclose(means[0], means[1])
    elapsed = time.perf_counter() - start
    report("cma-es", successes >= 9 and invariant and elapsed < 30.0,
           f"sphere {successes}/10 seeds, rank-invariance {invariant}, {elapsed:.1f}s")


@pytest.mark.slow
def test_a07_desk_scale_detection():
    start = time.perf_counter()
    anomalies = [("spike", 1, 5.0), ("platform", 25, 0.25), ("spike", 1, 4.0)]
    aucs = [searched_test_auc("sine", "tcnf-base", 100 + 10 * s, anomalies, budget=12)
            for s in range(3)]
    elapsed = time.perf_counter() - start
    median = float(np.median(aucs))
    report("desk-scale-detection", median >= 0.80 and elapsed < 600.0,
           f"AUCs {[round(a, 3) for a in aucs]}, median {median:.3f}, {elapsed:.0f}s")


@pytest.mark.slow
def test_a08_conditioning_benefit():
    start = time.perf_counter()
    anomalies = [("platform", 30, 0.25), ("pattern", 40, 2.2), ("platform", 30, -0.2)]
    gaps = []
    per_seed = []
    for s in range(3):
        seed = 200 + 10 * s
        conditioned = searched_test_auc("wave", "tcnf-base", seed, anomalies, budget=12)
        baseline = searched_test_auc("wave", "realnvp", seed, anomalies, budget=12)
        gaps.append(conditioned - baseline)
        per_seed.append(f"{conditioned:.3f}-{baseline:.3f}")
    elapsed = time.perf_counter() - start
    median = float(np.median(gaps))
    report("conditioning-benefit", median >= 0.10,
           f"auc pairs {per_seed}, median gap {median:.3f}, {elapsed:.0f}s")


def test_a09_leak_freedom():
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 1000:
        n_steps = int(rng.integers(80, 2500))
        lookback = int(rng.integers(1, 26))
        mode = ("random-sections", "sequential-tail")[checked % 2]
        try:
            train_idx, val_idx = dt.split_train_val(
                n_steps, lookback, mode, np.random.default_rng(int(rng.integers(1 << 30))))
        except dt.DataError:
            continue
        val_sorted = np.sort(val_idx)
        pos = np.searchsorted(val_sorted, train_idx)
        nearest = np.full(train_idx.size, np.inf)
        right = pos < val_sorted.size
        nearest[right] = np.abs(val_sorted[pos[right]] - train_idx[right])
        left = pos > 0
        nearest[left] = np.minimum(nearest[left],
                                   np.abs(train_idx[left] - val_sorted[pos[left] - 1]))
        assert nearest.min() > lookback, f"gap violated: {nearest.min()} <= {lookback}"
        checked += 1
    report("leak-freedom", checked == 1000, f"{checked} randomized configurations")


def test_a10_reproducibility(tmp_path):
    def one_run(tag):
        out = tmp_path / tag
        out.mkdir()
        train = dt.generate_synthetic("sine", 300, 2, noise=0.1, seed=5)
        labeled = dt.generate_synthetic("sine", 300, 2, noise=0.1, seed=6)
        labeled = dt.inject_anomaly(labeled, dt.AnomalySpec("spike", 150, 1, 6.0, (0,)))
        result = run_search(train, labeled, "tcnf-base", "labeled-30-70", budget=9,
                            seed=3, candidate_cfg=TrainConfig(epochs=2, batch_size=128,
                                                              patience=2),
                            final_epochs=2, lookback_max=6)
        result.trials_csv(out / "trials.csv")
        save_model(result.best_model, out / "model.tcf")
        prepared = dt.pad_even_channels(
            dt.normalize_with_stats(labeled, result.best_model.norm_stats))
        score_series(load_model(out / "model.tcf"), prepared).to_csv(
            out / "scores.csv", labels=prepared.labels)
        return out

    a, b = one_run("a"), one_run("b")
    same = {name: (a / name).read_bytes() == (b / name).read_bytes()
            for name in ("scores.csv", "trials.csv", "model.tcf")}
    report("reproducibility", all(same.values()),
           ", ".join(f"{k} identical={v}" for k, v in same.items()))
