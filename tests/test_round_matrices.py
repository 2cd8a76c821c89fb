"""The round matrices: clients train in rows of one upload matrix, and the
server step reads it in place, bit-equal to the per-client list formulas."""

from __future__ import annotations

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fedslack import aggregation, metrics, nn, threads
from fedslack.aggregation import (AggregationMode, AggregationPolicy, client_drift,
                                  gradient_variance, scaffold_server_update, slack_aggregate)
from fedslack.attacks import AttackSpec
from fedslack.data import ClientShard, Dataset, PartitionSpec
from fedslack.errors import ShapeError
from fedslack.local import LocalConfig, Trainer, cohorts, train_client, update_scaffold_client
from fedslack.runner import DatasetSpec, ExperimentConfig, RunState, run
from fedslack.streams import stream
from oracles import (RoundArrays, client_drift_list, gradient_variance_list, scaffold_delta,
                     scaffold_server_update_list, scaffold_two_stage, server_weights,
                     slack_aggregate_list, update_client_variates_dict)

DIMS = [20, 64, 10]
MS = [1, 2, 7]
# an odd row count and a column count that is no multiple of 8, whose
# product is large enough for the server step to split its work in halves
SPLIT = "split"
SPLIT_SHAPE = (7, 450_001)


def random_round(m: int, seed: int, P: int | None = None):
    """m uploads of a DIMS model (or of P random parameters) around a random
    theta, as a matrix and as a round."""
    rng = np.random.default_rng(seed)
    if P is None:
        params = nn.Model.init(DIMS, rng).params
        theta, layout = params.values, params.layout
    else:
        theta, layout = rng.normal(size=P), None
    uploads = theta + rng.normal(scale=0.1, size=(m, theta.size))
    ns = rng.integers(1, 60, size=m)
    losses = rng.uniform(0.01, 2.0, size=m)
    updates = RoundArrays(uploads, losses, ns, layout)
    return rng, theta, uploads, updates


def shapes(monkeypatch, m):
    """(seed, m, P) cases of an oracle test: seeds 0-4 of m rows and the
    test's own P (None), or for m = SPLIT, seeds 0 and 1 of `SPLIT_SHAPE`,
    each under `threads.cores()` 1, 2 and 3 and, as in a run, one BLAS
    thread: a product this large sums in another order on two."""
    if m != SPLIT:
        yield from ((seed, m, None) for seed in range(5))
        return
    m, P = SPLIT_SHAPE
    assert len(threads.halves(m, m * P)) == len(threads.halves(P, m * P, 8)) == 2
    with threads.one_blas_thread():
        for seed in range(2):
            for n in (1, 2, 3):
                monkeypatch.setattr(threads, "cores", lambda n=n: n)
                yield seed, m, P


@pytest.mark.parametrize("m", MS + [SPLIT])
def test_slack_aggregate_matches_the_list_oracle_bitwise(monkeypatch, m):
    for seed, m, P in shapes(monkeypatch, m):
        rng, theta, uploads, updates = random_round(m, seed, P)
        alpha = float(rng.uniform(0.0, 0.9))
        for mode in AggregationMode:
            policy = AggregationPolicy(mode, alpha, m // 2)
            agg = slack_aggregate(uploads, server_weights(updates, policy)[0])
            ref = slack_aggregate_list(updates, policy)
            assert np.array_equal(agg, ref)


@pytest.mark.parametrize("m", MS + [SPLIT])
def test_client_drift_matches_the_list_oracle_bitwise(monkeypatch, m):
    for seed, m, P in shapes(monkeypatch, m):
        rng, theta, uploads, _ = random_round(m, seed, P)
        center = theta + rng.normal(scale=0.05, size=theta.size)
        assert client_drift(uploads, center) == client_drift_list(list(uploads), center)


@pytest.mark.parametrize("m", MS + [9, 50, SPLIT])
def test_gradient_variance_matches_the_list_oracle_bitwise(monkeypatch, m):
    for seed, m, P in shapes(monkeypatch, m):
        _, theta, uploads, _ = random_round(m, seed, P)
        got = gradient_variance(uploads, theta)
        assert got == gradient_variance_list(list(uploads), theta)


def peak_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def large_rounds(monkeypatch):
    """(theta, uploads) of 8 x 20,000 and, in halves on 3 cores, of `SPLIT_SHAPE`."""
    for m, P, n in ((8, 20_000, 1), (*SPLIT_SHAPE, 3)):
        monkeypatch.setattr(threads, "cores", lambda n=n: n)
        rng = np.random.default_rng(0)
        theta = rng.normal(size=P)
        yield theta, theta + rng.normal(size=(m, P))


def test_gradient_variance_copies_no_upload_matrix(monkeypatch):
    for theta, uploads in large_rounds(monkeypatch):
        assert peak_bytes(gradient_variance, uploads, theta) < uploads.nbytes


def test_client_drift_copies_no_upload_matrix(monkeypatch):
    for theta, uploads in large_rounds(monkeypatch):
        assert peak_bytes(client_drift, uploads, theta) < uploads.nbytes


def scaffold_round(m: int, P: int, seed: int, K: int | None = None):
    """A SCAFFOLD server step's inputs: (c_global, c_locals, ids, uploads,
    theta_prev, steps, lr) for m participants, sorted non-adjacent ids of
    K = 2m + 1 clients (or of the K given), unequal step counts and an lr
    that is no power of two."""
    rng = np.random.default_rng(seed)
    K = K or 2 * m + 1
    theta = rng.normal(size=P)
    uploads = theta + rng.normal(scale=0.1, size=(m, P))
    ids = sorted(rng.choice(K, size=m, replace=False).tolist())
    steps = rng.integers(1, 9, size=m).tolist()
    return (rng.normal(scale=0.01, size=P), rng.normal(scale=0.01, size=(K, P)), ids,
            uploads, theta, steps, 0.1)


def test_scaffold_server_update_copies_no_delta_matrix(monkeypatch):
    # the variate changes are computed column half by column half in a (P,)
    # scratch row: at fleet's shape the call allocates under four such rows
    m, P = 50, 50_826
    args = scaffold_round(m, P, 0, K=2 * m)
    for n in (1, 2):
        monkeypatch.setattr(threads, "cores", lambda n=n: n)
        assert len(threads.halves(P, m * P, 8)) == 2
        assert peak_bytes(scaffold_server_update, *args) < 4 * 8 * P


@pytest.mark.parametrize("m", MS + [SPLIT])
def test_scaffold_updates_match_the_list_oracles_bitwise(monkeypatch, m):
    for seed, m, P in shapes(monkeypatch, m):
        c_global, c_locals, ids, uploads, theta, steps, lr = scaffold_round(m, P or 300, seed)
        K = len(c_locals)
        deltas = [scaffold_delta(theta, up, n, lr, c_locals[cid], c_global)
                  for cid, up, n in zip(ids, uploads, steps)]
        by_id = {cid: row.copy() for cid, row in enumerate(c_locals)}
        got = c_global.copy()
        scaffold_server_update(got, c_locals, ids, uploads, theta, steps, lr)
        assert np.array_equal(got, scaffold_server_update_list(c_global, deltas, m, K))
        update_client_variates_dict(by_id, ids, deltas)
        assert all(np.array_equal(c_locals[cid], by_id[cid]) for cid in range(K))

        theta_g, theta_l, c_local = np.random.default_rng(seed).normal(size=(3, P or 300))
        row = np.empty_like(c_local)
        out = update_scaffold_client(theta_g, theta_l, 3, 0.05, c_local, c_global, out=row,
                                     scratch=np.empty_like(c_local))
        out -= c_local
        assert out is row
        assert np.array_equal(row, scaffold_delta(theta_g, theta_l, 3, 0.05, c_local, c_global))


@pytest.mark.parametrize("shape", [(7, 300), SPLIT_SHAPE])
@pytest.mark.parametrize("n_cores", [1, 8])
def test_scaffold_server_update_gives_the_two_stage_bits(monkeypatch, shape, n_cores):
    # computing each variate change in the server step, not in its cohort,
    # changes no bit of the variates
    monkeypatch.setattr(threads, "cores", lambda: n_cores)
    m, P = shape
    assert len(threads.halves(P, m * P, 8)) == (2 if shape == SPLIT_SHAPE else 1)
    for seed in range(2):
        args = scaffold_round(m, P, seed)
        c_global, c_locals, ids, _, _, steps, _ = args
        assert len(set(steps)) > 1 and any(b - a > 1 for a, b in zip(ids, ids[1:]))
        expected = [c_global.copy(), c_locals.copy()]
        scaffold_two_stage(*expected, *args[2:])
        scaffold_server_update(*args)
        assert c_global.tobytes() == expected[0].tobytes()
        assert c_locals.tobytes() == expected[1].tobytes()


def test_matrix_calls_reject_mismatched_shapes():
    _, theta, uploads, updates = random_round(3, 0)
    weights, _ = server_weights(updates, AggregationPolicy())
    with pytest.raises(ShapeError):
        slack_aggregate(uploads[:2], weights)
    with pytest.raises(ShapeError):
        client_drift(uploads, theta[:-1])
    with pytest.raises(ShapeError):
        gradient_variance(uploads[:, :-1], theta)
    # K = 5 clients, m = 3 uploads, P = 4; each case but the first's disagrees
    # in one of the upload width, theta_prev, c_global, the width of c_locals,
    # the number of client ids or the number of step counts
    ok = dict(c_global=np.zeros(4), c_locals=np.zeros((5, 4)), client_ids=[0, 1, 2],
              uploads=np.ones((3, 4)), theta_prev=np.zeros(4), steps=[1, 1, 1], lr=0.5)
    scaffold_server_update(**ok)
    for key, bad in [("uploads", np.ones((3, 5))), ("uploads", np.ones(4)),
                     ("theta_prev", np.zeros(5)), ("c_global", np.zeros(5)),
                     ("c_locals", np.zeros((5, 5))), ("client_ids", [0, 1]),
                     ("client_ids", [0, 1, 2, 3]), ("steps", [1, 1]),
                     ("steps", [1, 1, 1, 1])]:
        args = {k: np.copy(v) if isinstance(v, np.ndarray) else v for k, v in ok.items()}
        args[key] = bad
        with pytest.raises(ShapeError):
            scaffold_server_update(**args)
    with pytest.raises(ShapeError):
        nn.Model(DIMS, np.empty((1, theta.size), dtype=np.float32))
    with pytest.raises(ShapeError):
        nn.Model(DIMS, np.empty((1, theta.size + 1)))
    with pytest.raises(ShapeError):     # (P,) or (M, P), nothing else
        nn.Model(DIMS, np.empty((1, 1, theta.size)))
    with pytest.raises(ShapeError):     # rows may be strided, not their entries
        nn.Model(DIMS, np.empty((2, 2 * theta.size))[:, ::2])


def test_the_server_step_and_evaluation_do_not_import_each_other():
    # every read of the round's matrices is in `aggregation`, eval in `metrics`
    for module, other in ((aggregation, "metrics"), (metrics, "aggregation")):
        tree = ast.parse(Path(module.__file__).read_text())
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name for alias in node.names)
                names.add(getattr(node, "module", None) or "")
        assert other not in {name.rsplit(".", 1)[-1] for name in names}


def toy_client():
    rng = np.random.default_rng(0)
    X = rng.uniform(0.2, 0.8, size=(40, 3))
    y = np.arange(40) % 2
    ds = Dataset(X, y, 2)
    return ds, ClientShard(0, np.arange(len(ds))), nn.Model.init([3, 6, 2], rng)


@pytest.mark.parametrize("trainer", [Trainer.AT, Trainer.TRADES])
def test_training_in_a_row_equals_training_in_a_fresh_array(trainer):
    ds, shard, theta = toy_client()
    rng = stream(2, "variates")
    c_global = rng.normal(scale=0.01, size=theta.params.values.shape)
    c_local = rng.normal(scale=0.01, size=theta.params.values.shape)
    cfg = LocalConfig(epochs=2, batch_size=16, trainer=trainer, fedprox_mu=0.1,
                      attack=AttackSpec(0.05, 0.0125, steps=3, random_start=True), lr=0.1)
    before = [a.tobytes() for a in (theta.params.values, c_global, c_local, ds.features,
                                    ds.labels)]
    P = theta.params.values.size
    fresh = np.empty((1, P))
    (cohort,) = cohorts([shard], theta.params.values.size, 1, 1)
    (fresh_loss,) = train_client(cohort, ds, theta, cfg, out=fresh, c_global=c_global,
                                 c_local=c_local[None])
    uploads = np.full((3, P), np.nan)
    (loss,) = train_client(cohort, ds, theta, cfg, c_global=c_global,
                           c_local=c_local[None], out=uploads[1:2])
    # the variates are read, not written: the call writes `out` alone
    after = (theta.params.values, c_global, c_local, ds.features, ds.labels)
    assert [a.tobytes() for a in after] == before
    assert np.array_equal(uploads[1], fresh[0])
    assert loss == fresh_loss and type(loss) is float
    assert np.isnan(uploads[[0, 2]]).all()


def test_a_scaffold_run_holds_no_round_matrix_but_the_uploads():
    # no (m, P) matrix of variate changes: the server step computes each
    # participant's change from its upload row
    cfg = ExperimentConfig(
        dataset=DatasetSpec(n_per_class=40, num_classes=5, dim=3, separation=0.8),
        partition=PartitionSpec(6, skew=4.0, seed=0), hidden_dims=[8],
        local=LocalConfig(epochs=1, batch_size=16, trainer="standard", lr=0.1),
        optimizer="scaffold", rounds=2, participation=0.5, eval_every=0, seed=0)
    for state in (RunState(cfg), run(cfg)):
        m, P = state.uploads.shape
        assert m < len(state.c_locals)
        held = [name for name, value in vars(state).items()
                if isinstance(value, np.ndarray) and value.shape == (m, P)]
        assert held == ["uploads"]


def test_scaffold_run_stacks_nothing_on_the_server(monkeypatch):
    stacked = []

    class NoStack:
        def __getattr__(self, attr):
            return getattr(np, attr)

        def stack(self, arrays, *args, **kwargs):
            stacked.append(len(arrays))
            return np.stack(arrays, *args, **kwargs)

    for module in (aggregation, metrics):
        monkeypatch.setattr(module, "np", NoStack())
    cfg = ExperimentConfig(
        dataset=DatasetSpec(n_per_class=40, num_classes=5, dim=3, separation=0.8),
        partition=PartitionSpec(6, skew=4.0, seed=0), hidden_dims=[8],
        local=LocalConfig(epochs=1, batch_size=16, trainer="standard", lr=0.1),
        policy=AggregationPolicy(AggregationMode.SFAT, 0.2, 1), optimizer="scaffold",
        rounds=3, participation=0.5, eval_every=3, seed=0)
    art = run(cfg)
    assert len(art.reports) == 3 and art.reports[-1].grad_variance > 0
    assert stacked == []
