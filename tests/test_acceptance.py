"""Acceptance suite: property checks at fixed tolerances plus seeded
desk-scale directional reproductions.  Each criterion prints one PASS/FAIL
line; directional criteria train small federated runs and take a few
minutes total.

Criteria 1 and 2 check SFAT's form of the relaxed loss, `alpha_slack_loss`'s
default: its lower bound on the plain sum holds for that form only, and
Re-SFAT's relaxed loss, which weighs the *largest* losses by (1+a), can lie
above the plain sum.  Criterion 14 checks every mode's form against the
server step.

Criterion 2 note: k_hat counts the clients with the *smallest* weighted
losses, which get weight (1+a); the rest get (1-a).  Raising k_hat by one
moves the next-smallest loss s_(k_hat+1) from the (1-a) group to the (1+a)
group, so the relaxed loss rises by exactly 2a*s_(k_hat+1) >= 0.  The k_hat
axis is therefore checked as a strict increase (losses are >= 0.01) with
that exact step, staying at or below the plain sum; a decrease in k_hat
could only be claimed by contradicting criterion 1's lower bound.  The
alpha axis is a non-increase, strict once k_hat > 0.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from fedslack import nn
from fedslack.aggregation import (AggregationMode, AggregationPolicy,
                                  alpha_slack_loss, slack_aggregate)
from fedslack.attacks import AttackSpec, fgsm, pgd
from fedslack.data import Dataset, PartitionSpec, class_counts, partition
from fedslack.local import LocalConfig
from fedslack.metrics import trace_topk
from fedslack.runner import DatasetSpec, ExperimentConfig, RunState, load_metrics, run
from fedslack.streams import stream
from oracles import RoundArrays, class_groups, fedavg_aggregate, fgsm_clip, server_weights

LAYOUT = (("dense0.W", (1, 1)), ("dense0.b", (1,)))


def _report(num: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def _updates(rng, k=None, ns=None, thetas=None, losses=None):
    k = k if k is not None else int(rng.integers(2, 13))
    ns = ns if ns is not None else rng.integers(1, 60, size=k).tolist()
    thetas = thetas if thetas is not None else rng.normal(size=k).tolist()
    losses = losses if losses is not None else rng.uniform(0.01, 2, size=k).tolist()
    return RoundArrays(np.array([[t, 0.0] for t in thetas]), losses, ns, LAYOUT)


def test_criterion_1_lower_bound():
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(1000):
        k = int(rng.integers(2, 13))
        wl = (rng.integers(1, 60, size=k) / 100) * rng.uniform(0, 2, size=k)
        alpha = float(rng.uniform(0, 0.999))
        k_hat = int(rng.integers(0, k // 2 + 1))
        ok &= alpha_slack_loss(wl, alpha, k_hat) <= wl.sum() + 1e-12
        ok &= abs(alpha_slack_loss(wl, 0.0, k_hat) - wl.sum()) <= 1e-12
    _report(1, ok, "relaxed loss is a lower bound on the plain sum, tight at alpha=0")


def test_criterion_2_monotonicity_both_axes():
    rng = np.random.default_rng(102)
    alpha_ok = True
    khat_ok = True
    for _ in range(200):
        k = int(rng.integers(2, 13))
        wl = rng.uniform(0.01, 2, size=k)  # distinct with probability 1
        alphas = np.arange(0.0, 1.0, 0.1)
        for k_hat in range(k // 2 + 1):
            vals = [alpha_slack_loss(wl, a, k_hat) for a in alphas]
            alpha_ok &= all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
            if k_hat > 0:
                alpha_ok &= all(a > b for a, b in zip(vals, vals[1:]))
        s = np.sort(wl)
        for alpha in alphas[1:]:
            vals = [alpha_slack_loss(wl, alpha, kh) for kh in range(k // 2 + 1)]
            khat_ok &= all(b > a for a, b in zip(vals, vals[1:]))
            # step k_hat -> k_hat+1 moves s[k_hat] into the (1+a) group
            khat_ok &= all(abs((b - a) - 2 * alpha * s[kh]) <= 1e-12
                           for kh, (a, b) in enumerate(zip(vals, vals[1:])))
            khat_ok &= all(v <= wl.sum() + 1e-12 for v in vals)
    ok = alpha_ok and khat_ok
    detail = ("non-increasing in alpha (strict for k_hat > 0); strictly increasing "
              "in k_hat by exactly 2*alpha*s_(k_hat+1), never above the plain sum")
    if not alpha_ok:
        detail += " (alpha axis failed)"
    if not khat_ok:
        detail += " (k_hat axis failed)"
    _report(2, ok, detail)


def test_criterion_3_simplex_and_ratio():
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(300):
        ups = _updates(rng)
        k = len(ups.n_k)
        alpha = float(rng.uniform(0.0, 0.95))
        k_hat = int(rng.integers(0, k // 2 + 1))
        mode = [AggregationMode.FAT, AggregationMode.SFAT,
                AggregationMode.RE_SFAT][int(rng.integers(3))]
        weights, is_top = server_weights(ups, AggregationPolicy(mode, alpha, k_hat))
        ok &= abs(weights.sum() - 1.0) <= 1e-9
        if is_top.any():
            per_sample = weights / ups.n_k.astype(float)
            r = (1 + alpha) / (1 - alpha)
            for i in range(k):
                for j in range(k):
                    if is_top[i] and not is_top[j]:
                        ok &= abs(per_sample[i] / per_sample[j] - r) <= 1e-9
    # pinned pattern: K=5 equal N, alpha=1/6 -> 1.4 : 1, weights /5.4
    ups = _updates(np.random.default_rng(0), k=5, ns=[10] * 5,
                   losses=[0.5, 0.4, 0.1, 0.3, 0.2])
    weights, _ = server_weights(ups, AggregationPolicy(AggregationMode.SFAT, 1 / 6, 1))
    ok &= abs(weights[2] / weights[0] - 1.4) <= 1e-12
    ok &= np.allclose(weights, np.array([1, 1, 1.4, 1, 1]) / 5.4, atol=1e-9)
    _report(3, ok, "weights on the simplex, top/other per-sample ratio (1+a)/(1-a), "
                   "1.4:1 pattern for K=5, alpha=1/6")


def test_criterion_4_reductions():
    rng = np.random.default_rng(104)
    ok = True
    for _ in range(50):
        ups = _updates(rng)
        k = len(ups.n_k)
        base = fedavg_aggregate(ups).values
        for policy in [AggregationPolicy(AggregationMode.FAT, 0.0, 0),
                       AggregationPolicy(AggregationMode.SFAT, 0.0, k // 2),
                       AggregationPolicy(AggregationMode.SFAT, 0.4, 0)]:
            agg = slack_aggregate(ups.uploads, server_weights(ups, policy)[0])
            ok &= np.array_equal(agg, base)
    _report(4, ok, "SFAT(alpha=0) = SFAT(k_hat=0) = FAT = FedAvg, bit-identical")


def test_criterion_5_gradient_checks():
    ok = True
    h = 1e-5
    for trial in range(100):
        rng = stream(trial, "acceptance-grad")
        dims = [int(rng.integers(2, 6)) for _ in range(3)]
        model = nn.Model.init(dims, rng)
        # one sample, as a batch of one
        x = rng.uniform(0.1, 0.9, size=(1, dims[0]))
        y = rng.integers(dims[-1], size=1)
        _, pgrads = nn.batch_loss_and_grads(model, x, y)
        xgrad = nn.input_grads_ce(model, x, nn.one_hot(y, dims[-1], x.shape))[0]
        theta = model.params.values
        vec = theta.copy()
        for i in range(len(vec)):
            vp, vm = vec.copy(), vec.copy()
            vp[i] += h
            vm[i] -= h
            theta[:] = vp
            lp, _ = nn.batch_loss_and_grads(model, x, y)
            theta[:] = vm
            lm, _ = nn.batch_loss_and_grads(model, x, y)
            fd = (lp - lm) / (2 * h)
            ok &= abs(pgrads[i] - fd) <= 1e-4 * max(1e-4, abs(fd))
        theta[:] = vec
        for i in range(x.shape[1]):
            xp, xm = x.copy(), x.copy()
            xp[0, i] += h
            xm[0, i] -= h
            lp, _ = nn.batch_loss_and_grads(model, xp, y)
            lm, _ = nn.batch_loss_and_grads(model, xm, y)
            fd = (lp - lm) / (2 * h)
            ok &= abs(xgrad[i] - fd) <= 1e-4 * max(1e-4, abs(fd))
    _report(5, ok, "analytic gradients match central differences at rel. 1e-4, "
                   "100 random MLPs")


def test_criterion_6_attack_invariants():
    rng = stream(0, "acceptance-attack")
    model = nn.Model.init([6, 8, 3], rng)
    spec = AttackSpec(8 / 255, 2 / 255, steps=10, random_start=True)
    ok = True
    done = 0
    batch = 500
    while done < 10_000:
        X = rng.uniform(size=(batch, 6))
        y = rng.integers(3, size=batch)
        adv = pgd(model, X, y, spec, stream(done, "attack"))
        ok &= np.max(np.abs(adv - X)) <= 8 / 255 + 1e-12
        ok &= adv.min() >= 0.0 and adv.max() <= 1.0
        done += batch
    X = rng.uniform(size=(256, 6))
    y = rng.integers(3, size=256)
    for eps in (0.05, 0.0):
        one = AttackSpec(eps, 0.05, steps=1, random_start=False)
        ref = fgsm_clip(model, X, y, eps).tobytes()
        ok &= pgd(model, X, y, one).tobytes() == ref == fgsm(model, X, y, one).tobytes()
        ok &= np.array_equal(pgd(model, X, y, one), fgsm(model, X, y, one))
    _report(6, ok, "10k attacked samples stay in the ball and [0,1]; "
                   "FGSM = 1-step PGD = clip(x + eps*sign(grad), 0, 1) bit-exact")


def test_criterion_7_partition_correctness():
    labels = np.repeat(np.arange(10), 1000)
    feats = np.random.default_rng(0).uniform(size=(len(labels), 2))
    from fedslack.data import Dataset
    ds = Dataset(feats, labels, 10)
    shards = partition(ds, PartitionSpec(5, skew=2.0, seed=7))
    table = class_counts(ds, shards)
    groups = class_groups(10, 5)
    ok = True
    for k in range(5):
        for c in range(10):
            expected = 920 if c in groups[k] else 20
            ok &= abs(table[k, c] - expected) <= 1
    all_idx = np.concatenate([s.indices for s in shards])
    ok &= len(all_idx) == len(ds) and len(np.unique(all_idx)) == len(ds)
    _report(7, ok, "K=5, s=2: majority 92% / minority 2% per class within 1 sample, "
                   "disjoint and exhaustive")


def test_criterion_8_oracle_equivalence():
    def oracle(values, weights):
        out = [0.0] * len(values[0])
        for v, w in zip(values, weights):
            for i in range(len(v)):
                out[i] += w * v[i]
        return np.array(out)

    ok = True
    # scalar toy
    ups = _updates(np.random.default_rng(1), k=3, ns=[2, 3, 5],
                   thetas=[1.0, -2.0, 4.0], losses=[0.3, 0.1, 0.2])
    fa = fedavg_aggregate(ups).values
    ok &= np.max(np.abs(fa - oracle(list(ups.uploads), [0.2, 0.3, 0.5]))) <= 1e-12
    policy = AggregationPolicy(AggregationMode.SFAT, 1 / 3, 1)
    # client 1 has smallest weighted loss: p = (1, 2, 1), w = p*n / sum
    pn = np.array([2.0, 6.0, 5.0])
    sa = slack_aggregate(ups.uploads, server_weights(ups, policy)[0])
    ok &= np.max(np.abs(sa - oracle(list(ups.uploads), list(pn / pn.sum())))) <= 1e-12
    # vector toy
    vec_layout = (("dense0.W", (2, 2)),)
    rng = np.random.default_rng(2)
    vals = [rng.normal(size=4) for _ in range(3)]
    ups = RoundArrays(np.stack(vals), [0.5, 0.2, 0.9], [4, 5, 1], vec_layout)
    fa = fedavg_aggregate(ups).values
    ok &= np.max(np.abs(fa - oracle(vals, [0.4, 0.5, 0.1]))) <= 1e-12
    sa = slack_aggregate(ups.uploads, server_weights(ups, policy)[0])
    # client 2 has the smallest weighted loss (0.1*0.9): p = (1, 1, 2)
    pn = np.array([4.0, 5.0, 2.0])
    ok &= np.max(np.abs(sa - oracle(vals, list(pn / pn.sum())))) <= 1e-12
    _report(8, ok, "aggregation matches the brute-force weighted-mean oracle at 1e-12")


# --- desk-scale directional runs -------------------------------------------

def desk_config(seed, eps, mode=AggregationMode.FAT, alpha=0.0, k_hat=0,
                rounds=80, trainer="at", eval_every=10, separation=0.9,
                placement="random", batch_size=25, epochs=2):
    return ExperimentConfig(
        dataset=DatasetSpec(n_per_class=100, num_classes=5, dim=8,
                            separation=separation, placement=placement),
        partition=PartitionSpec(5, skew=5.0, seed=seed),
        hidden_dims=[16],
        local=LocalConfig(epochs=epochs, batch_size=batch_size, trainer=trainer,
                          attack=AttackSpec(eps, eps / 4 if eps > 0 else 0.01, 7,
                                            random_start=True),
                          lr=0.05, momentum=0.9, weight_decay=1e-4),
        policy=AggregationPolicy(mode, alpha=alpha, k_hat=k_hat),
        rounds=rounds, eval_every=eval_every, seed=seed)


def robust_acc(artifact):
    evals = [r.pgd20_acc for r in artifact.reports if r.pgd20_acc is not None]
    return float(np.mean(evals[-3:]))


def natural_acc(artifact):
    evals = [r.nat_acc for r in artifact.reports if r.nat_acc is not None]
    return float(np.mean(evals[-3:]))


def late_drift(artifact):
    tail = artifact.reports[len(artifact.reports) * 2 // 3:]
    return float(np.mean([r.mean_drift for r in tail]))


@pytest.fixture(scope="module")
def sfat_fat_runs():
    out = {}
    for seed in range(5):
        out[seed] = {
            "fat": run(desk_config(seed, 0.10)),
            "sfat": run(desk_config(seed, 0.10, AggregationMode.SFAT, 1 / 6, 1)),
            "resfat": run(desk_config(seed, 0.10, AggregationMode.RE_SFAT, 1 / 3, 1)),
        }
    return out


def test_criterion_9_intensified_heterogeneity():
    hits = 0
    for seed in range(5):
        drifts = [run(desk_config(seed, eps, rounds=40, eval_every=0)).reports[-1]
                  .mean_drift for eps in (0.0, 0.05, 0.15)]
        hits += drifts[0] <= drifts[1] <= drifts[2]
    _report(9, hits >= 4,
            f"final-round drift non-decreasing over the epsilon grid in {hits}/5 seeds")


def test_criterion_10_sfat_beats_fat(sfat_fat_runs):
    hits = 0
    for seed, runs in sfat_fat_runs.items():
        drift_ok = late_drift(runs["sfat"]) <= late_drift(runs["fat"])
        acc_ok = robust_acc(runs["sfat"]) >= robust_acc(runs["fat"])
        hits += drift_ok and acc_ok
    _report(10, hits >= 4,
            f"slack run has lower late drift and at least FAT's robust accuracy "
            f"in {hits}/5 seeds")


def test_criterion_11_reversed_slack_degrades(sfat_fat_runs):
    hits = 0
    for seed, runs in sfat_fat_runs.items():
        hits += robust_acc(runs["resfat"]) <= robust_acc(runs["fat"])
    _report(11, hits >= 4,
            f"reversed slack robust accuracy <= FAT's in {hits}/5 seeds")


def test_criterion_12_dynamic_routing(tmp_path):
    hits = 0
    for seed in range(5):
        out = tmp_path / f"seed{seed}"
        config = desk_config(seed, 0.10, AggregationMode.SFAT, 1 / 6, 1,
                             rounds=100, eval_every=0, separation=0.6,
                             placement="orthogonal", batch_size=10)
        run(replace(config, out_dir=str(out)))
        counts, rounds = trace_topk(load_metrics(out / "metrics.csv"))
        assert rounds == 100 and len(counts) == 5
        hits += max(counts.values()) <= 60
    _report(12, hits >= 4,
            f"no client selected as top in more than 60% of 100 rounds "
            f"in {hits}/5 seeds")


def test_criterion_13_standard_training_control():
    hits = 0
    for seed in range(5):
        plain = run(desk_config(seed, 0.0, rounds=60, trainer="standard"))
        slack = run(desk_config(seed, 0.0, AggregationMode.SFAT, 1 / 6, 1,
                                rounds=60, trainer="standard"))
        hits += natural_acc(slack) - natural_acc(plain) <= 0.005
    _report(13, hits >= 3,
            f"slack on natural training gains <= 0.5 points of natural accuracy "
            f"in {hits}/5 seeds")


def one_step_identity_error(seed, mode, alpha, k_hat, lr=0.1, h=1e-5):
    """Relative gap between one full-shard SGD round's server step, scaled to
    the relaxed objective's gradient, and a central difference of
    `alpha_slack_loss` along a random unit direction d.

    The aggregate is theta_t - lr * sum_k w_k grad F_k, with w_k = c_k n_k /
    sum_j c_j n_j and c_k = 1+a for a top client, else 1-a (`coef`).  So
    (theta_t - theta_t+1)/lr * sum_k c_k n_k / N is the gradient of
    sum_k c_k n_k/N F_k, `alpha_slack_loss` of the weighted losses n_k/N F_k."""
    config = ExperimentConfig(
        dataset=DatasetSpec(n_per_class=100, num_classes=3, dim=4),
        partition=PartitionSpec(5, mode="iid", sample_counts=[20, 35, 50, 60, 27], seed=seed),
        hidden_dims=[6],
        local=LocalConfig(epochs=1, batch_size=60, trainer="standard", lr=lr, momentum=0.0,
                          weight_decay=0.0),
        policy=AggregationPolicy(mode, alpha, k_hat), rounds=1, eval_every=0, seed=seed)
    state = RunState(config)
    theta = state.model.params.values.copy()
    rep = state.server_step(1, state.train_round(1))
    ds, N = state.train_set, len(state.train_set)
    n_k = np.array([r.n_samples for r in rep.clients], dtype=float)
    coef = np.where([r.is_top for r in rep.clients], 1 + alpha, 1 - alpha)
    shards = [state.shards[r.client_id].indices for r in rep.clients]

    def relaxed(values):
        model = nn.Model(state.model.dims, values)
        F = [nn.batch_loss_and_grads(model, ds.features[i], ds.labels[i])[0] for i in shards]
        return alpha_slack_loss(n_k / N * np.array(F), alpha, k_hat, mode)

    d = np.random.default_rng(seed).normal(size=theta.size)
    d /= np.linalg.norm(d)
    grad = (theta - state.model.params.values) / lr * (coef @ n_k) / N
    fd = (relaxed(theta + h * d) - relaxed(theta - h * d)) / (2 * h)
    return abs(grad @ d - fd) / abs(fd)


def test_criterion_14_server_step_descends_the_relaxed_objective():
    cases = [(AggregationMode.FAT, 0.0, 0), (AggregationMode.SFAT, 0.25, 1),
             (AggregationMode.SFAT, 0.25, 2), (AggregationMode.RE_SFAT, 0.25, 1),
             (AggregationMode.RE_SFAT, 0.25, 2)]
    worst = max(one_step_identity_error(seed, *case) for seed in range(5) for case in cases)
    _report(14, worst <= 1e-6,
            f"one full-shard SGD round's server step is a gradient step on the relaxed "
            f"objective under FAT, SFAT and Re-SFAT (worst relative error {worst:.1e})")
