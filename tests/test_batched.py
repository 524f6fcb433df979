"""Batched inference and training against the per-user path.

The inference references run the per-user `forward` directly, one row and
one greedy step at a time, so they share no code with the bucketed, chunked
last-position path they check, which must match them bit for bit. The
training references run one per-user forward and backward per row and one
loss call per target; stacked gradients differ from them only in the order
of summation.
"""
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import recgpt.recall
from recgpt.checkpoint import load
from recgpt.data import truncate_last
from recgpt.evaluation import (
    MODES,
    MetricsReport,
    eval_input,
    evaluate,
    hr_at_k,
    ndcg_at_k,
    prompt_inputs,
)
from recgpt.model import (
    PROMPT,
    REAL,
    SCORER_OUTPUT_LAYER,
    SCORER_TIED_EMB,
    backward,
    forward,
    last_hidden,
    rank_items,
    score_items,
)
from recgpt.numerics import AdamState, NumericsError, adam_step, bce_pair_loss, cross_entropy
from recgpt.recall import (
    CHUNK_POSITIONS,
    STEP1,
    STEP2,
    RecallResult,
    dump_recall_csv,
    final_hidden,
    greedy_steps,
    recall_grid,
    recall_two_step,
)
from recgpt.training import (
    BUCKET_WIDTH,
    PromptEnhancedSequence,
    _batch_grads,
    _bce_target,
    _ce_target,
    _valid_hr_at_10,
    generate_prompt_cache,
    pretrain_row,
    prompt_tune,
    tune_row,
)

from conftest import make_dataset, tiny_hyper, tiny_params


def ref_hidden(params, user, items, segments):
    items, segments = truncate_last(list(items), list(segments), params.hyper.max_len)
    return forward(params, user, items, segments)[0][-1]


def ref_recall(params, user, seq, segments, m, n, scorer, filter_history):
    """Two-step recall as the per-user loop ran it: one forward per step."""
    logits = score_items(params, ref_hidden(params, user, seq, segments), scorer)
    real = {v for v, s in zip(seq, segments) if s == REAL} if filter_history else set()
    top = rank_items(logits, m, exclude=real)
    items, scores, prov = top.tolist(), logits[top].tolist(), [STEP1] * len(top)
    if n:
        h2 = ref_hidden(params, user, list(seq) + [int(top[0])], list(segments) + [PROMPT])
        logits2 = score_items(params, h2, scorer)
        fill = rank_items(logits2, n, exclude=set(items) | real)
        items += fill.tolist()
        scores += logits2[fill].tolist()
        prov += [STEP2] * len(fill)
    return items, scores, prov


def ref_prompts(params, user, seq, K):
    """Greedy prompts for one user, one per-user forward per prompt."""
    items, segments = [], []
    for v in seq:
        for _ in range(K if items else 0):
            h = ref_hidden(params, user, items, segments)
            items.append(int(np.argmax(score_items(params, h, SCORER_OUTPUT_LAYER))))
            segments.append(PROMPT)
        items.append(int(v))
        segments.append(REAL)
    return items, segments


def _params(seed, n_users=4, n_items=10, max_len=5, ties=False, dtype=np.float32, **hyper):
    params = tiny_params(n_users=n_users, n_items=n_items, seed=seed, max_len=max_len, **hyper)
    rng = np.random.default_rng(seed + 100)
    # segment embeddings start at zero; make PROMPT and REAL differ
    params["W_s"].value[...] = rng.standard_normal(params["W_s"].value.shape) * 0.5
    if ties:
        # duplicated item rows: every top score ties, broken to the lower index
        for name in ("W_e", "W_l"):
            w = params[name].value
            w[1::2] = w[0::2][:w[1::2].shape[0]]
    return params if dtype is np.float32 else params.astype(dtype)


def _rows(rng, lengths):
    return [(rng.integers(0, 10, size=L).tolist(), rng.integers(0, 2, size=L).tolist())
            for L in lengths]


# ---------------------------------------------------------------------------
# the BLAS facts the last-position path rests on
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blas_stacked_and_row_count_independent_matmul(dtype):
    """A stacked (B, L, d) @ W equals the per-slice 2-D matmul, and the rows
    of a matmul with two or more rows do not depend on how many it has. If
    the installed BLAS breaks either, batched inference no longer reproduces
    the per-user forward, and checkpoint and CSV bytes would change."""
    rng = np.random.default_rng(0)
    for d, e in ((4, 4), (8, 32), (16, 16), (64, 64), (64, 256), (256, 64)):
        w = rng.standard_normal((d, e)).astype(dtype)
        x = rng.standard_normal((7, 50, d)).astype(dtype)
        stacked = x @ w
        for b in range(7):
            assert np.array_equal(stacked[b], x[b] @ w)
        full = x[0] @ w
        for rows in (2, 3, 5, 8, 17, 33, 49):
            assert np.array_equal(x[0, :rows] @ w, full[:rows])
        # the final position of every row, a strided (B, d) view, as last_hidden reads it
        assert np.array_equal(x[:, -1] @ w, stacked[:, -1])
        assert np.array_equal(x[:2, -1] @ w, stacked[:2, -1])


# ---------------------------------------------------------------------------
# last-position forward
# ---------------------------------------------------------------------------

@given(B=st.integers(1, 40), L=st.integers(1, 6), n_layers=st.integers(1, 2),
       n_heads=st.sampled_from([1, 2]), d=st.sampled_from([4, 8, 16]),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 3))
@example(B=1, L=6, n_layers=2, n_heads=2, d=8, dtype=np.float32, seed=0)
@example(B=2, L=1, n_layers=1, n_heads=1, d=4, dtype=np.float32, seed=1)
@example(B=40, L=6, n_layers=2, n_heads=2, d=16, dtype=np.float64, seed=2)
def test_last_position_forward_equals_per_user_forward(B, L, n_layers, n_heads, d, dtype,
                                                       seed):
    params = _params(seed, max_len=6, dtype=dtype, n_layers=n_layers, n_heads=n_heads, d=d)
    rng = np.random.default_rng(seed)
    users = rng.integers(0, 4, size=B)
    items = rng.integers(0, 10, size=(B, L))
    segments = rng.integers(0, 2, size=(B, L))
    expected = np.stack([forward(params, u, i, s)[0][-1]
                         for u, i, s in zip(users, items, segments)])
    got = final_hidden(params, users.tolist(), list(zip(items.tolist(), segments.tolist())))
    assert got.dtype == expected.dtype == dtype
    assert np.array_equal(got, expected)
    if B >= 2:
        assert np.array_equal(last_hidden(params, users, items, segments), expected)


def test_last_hidden_refuses_a_single_row():
    params = _params(0)
    with pytest.raises(NumericsError, match="B >= 2"):
        last_hidden(params, [0], [[1, 2]], [[REAL, REAL]])


# ---------------------------------------------------------------------------
# batched greedy steps and recall
# ---------------------------------------------------------------------------

@given(lengths=st.lists(st.integers(1, 9), min_size=1, max_size=12),
       m=st.integers(1, 4), n=st.integers(0, 2), filter_history=st.booleans(),
       ties=st.booleans(), scorer=st.sampled_from([SCORER_TIED_EMB, SCORER_OUTPUT_LAYER]),
       seed=st.integers(0, 3))
@example(lengths=[9, 9, 9], m=3, n=2, filter_history=True, ties=True,
         scorer=SCORER_OUTPUT_LAYER, seed=0)
@example(lengths=[1], m=1, n=1, filter_history=False, ties=True, scorer=SCORER_TIED_EMB, seed=1)
def test_batched_recall_and_greedy_steps_equal_the_per_user_path(lengths, m, n, filter_history,
                                                                 ties, scorer, seed):
    # max_len 5 under lengths up to 9: truncation shifts positions, and the
    # appended step-2 prompt moves a row into the next length bucket
    params = _params(seed, ties=ties)
    rng = np.random.default_rng(seed)
    rows = _rows(rng, lengths)
    users = [i % 4 for i in range(len(rows))]

    [results] = recall_grid(params, users, rows, [(m, n)], scorer, filter_history=filter_history)
    assert [r.user for r in results] == users
    for user, (seq, segments), res in zip(users, rows, results):
        items, scores, prov = ref_recall(params, user, seq, segments, m, n, scorer,
                                         filter_history)
        assert (res.items.tolist(), res.scores.tolist(), res.provenance) == (items, scores, prov)
        one = recall_two_step(params, user, seq, m, n, scorer, segments=segments,
                              filter_history=filter_history)
        assert np.array_equal(one.items, res.items) and np.array_equal(one.scores, res.scores)

    hidden, picks = greedy_steps(params, users, rows, scorer)
    for user, (seq, segments), h, pick in zip(users, rows, hidden, picks):
        expected = ref_hidden(params, user, seq, segments)
        assert np.array_equal(h, expected)
        assert pick == int(rank_items(score_items(params, expected, scorer), 1)[0])


def test_final_hidden_chunks_each_length_bucket_and_keeps_input_order(monkeypatch):
    params = _params(5, max_len=50)
    per_call = CHUNK_POSITIONS // 50
    rng = np.random.default_rng(5)
    # two full 50-position buckets past one chunk (rows longer than 50 are
    # truncated into it), lone rows, and an L = 1 bucket, shuffled together
    lengths = [50] * (2 * per_call + 1) + [63, 71] + [1] * 3 + [7] + [30] * (per_call + 2)
    lengths = rng.permutation(lengths).tolist()
    rows = _rows(rng, lengths)
    users = rng.integers(0, 4, size=len(rows)).tolist()
    shapes = []

    def recording(params, users, items, segments):
        shapes.append(np.asarray(items).shape)
        return last_hidden(params, users, items, segments)

    monkeypatch.setattr(recgpt.recall, "last_hidden", recording)
    got = final_hidden(params, users, rows)
    expected = np.stack([ref_hidden(params, u, *row) for u, row in zip(users, rows)])
    assert np.array_equal(got, expected)
    assert all(B >= 2 and B * L <= CHUNK_POSITIONS for B, L in shapes)
    assert sum(B for B, L in shapes if L == 50) == 2 * per_call + 3
    assert len([1 for B, L in shapes if L == 50]) > 2
    assert sum(B for B, _ in shapes) == len(rows) - 1    # the lone 7-item row ran forward


# ---------------------------------------------------------------------------
# empty and length-1 prefixes in one batch with longer rows
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ragged():
    """Train prefixes of length 0, 1 and past max_len in one dataset, with a
    pretrained and a tuned model to evaluate them."""
    seqs = [[], [3], [1, 4, 2, 5, 7, 0, 8], [6], [], [2, 9, 3], [5, 5, 1, 0, 4, 6]]
    valid = [4, 7, 3, 0, 9, 1, 2]
    test = [1, 2, 6, 8, 3, 5, 7]
    ds = make_dataset(seqs, valid, test, 16)
    pre = _params(11, n_users=7, n_items=16, max_len=4, ties=True)
    tuned = _params(12, n_users=7, n_items=16, max_len=4)
    return ds, pre, tuned


def test_prompt_cache_and_inputs_with_empty_and_short_prefixes(ragged):
    ds, pre, _ = ragged
    cache = generate_prompt_cache(ds, pre, 2)
    assert [(p.items, p.segments) for p in cache] == \
        [ref_prompts(pre, u, seq, 2) for u, seq in enumerate(ds.sequences)]
    for split in ("valid", "test"):
        rows = prompt_inputs(ds, split, pre, cache, 2)
        assert [(p.items, p.segments) for p in rows] == \
            [ref_prompts(pre, u, eval_input(ds, u, split), 2) for u in range(ds.n_users)]


@pytest.mark.parametrize("split", ["valid", "test"])
@pytest.mark.parametrize("mode", sorted(MODES))
def test_every_mode_with_empty_and_short_prefixes_equals_the_per_user_path(ragged, tmp_path,
                                                                           split, mode):
    ds, pre, tuned = ragged
    ks, m, n, K = (2, 3), 2, 1, 2
    got = evaluate(ds, split, mode, pretrained=pre, tuned=tuned, ks=ks, m=m, n=n, prompt_k=K,
                   filter_history=True, dump_path=tmp_path / "batched.csv")

    which, two_step, scorer = MODES[mode]
    params = pre if which == "pretrained" else tuned
    results, hits = [], {(metric, k): 0.0 for k in ks for metric in ("HR", "NDCG")}
    for u in range(ds.n_users):
        seq = eval_input(ds, u, split)
        if which == "tuned":
            seq, segments = ref_prompts(pre, u, seq, K)
        else:
            segments = [REAL] * len(seq)
        if not seq:
            continue
        items, scores, prov = ref_recall(params, u, seq, segments, m if two_step else max(ks),
                                         n if two_step else 0, scorer, True)
        results.append(RecallResult(u, np.asarray(items), np.asarray(scores, dtype=params.dtype),
                                    prov))
        target = int(ds.test_target[u] if split == "test" else ds.valid_target[u])
        for k in ks:
            hits[("HR", k)] += hr_at_k(results[-1], target, k)
            hits[("NDCG", k)] += ndcg_at_k(results[-1], target, k)
    dump_recall_csv(tmp_path / "per_user.csv", results, catalog=ds.catalog)
    expected = MetricsReport(mode, split, len(results), ds.n_users - len(results),
                             {key: total / len(results) for key, total in hits.items()})

    assert got == expected
    assert got.n_excluded == (2 if split == "valid" else 0)
    assert (tmp_path / "batched.csv").read_bytes() == (tmp_path / "per_user.csv").read_bytes()


@pytest.mark.parametrize("scorer", [SCORER_TIED_EMB, SCORER_OUTPUT_LAYER])
def test_early_stopping_hr_equals_the_per_user_path(scorer):
    rng = np.random.default_rng(8)
    seqs = [rng.integers(0, 40, size=L).tolist() for L in (0, 1, 3, 4, 4, 6, 9, 2, 0, 5, 4, 7)]
    ds = make_dataset(seqs, rng.integers(0, 40, size=12), rng.integers(0, 40, size=12), 40)
    inputs = [(seq, [REAL] * len(seq)) for seq in ds.sequences]
    for seed in range(4):
        params = _params(20 + seed, n_users=12, n_items=40, max_len=4)
        hits = sum(int(ds.valid_target[u]) in
                   rank_items(score_items(params, ref_hidden(params, u, *row), scorer), 10)
                   for u, row in enumerate(inputs) if row[0])
        assert _valid_hr_at_10(ds, params, scorer, inputs) == hits / ds.n_users


# ---------------------------------------------------------------------------
# stacked training steps
# ---------------------------------------------------------------------------

def ref_bce(params, h, d_h, t, pos, negs):
    """Pairwise BCE of one target."""
    w_e = params["W_e"]
    loss, d_pos, d_negs = bce_pair_loss(float(w_e.value[pos] @ h[t]), w_e.value[negs] @ h[t])
    d_h[t] += d_pos * w_e.value[pos] + d_negs @ w_e.value[negs]
    w_e.grad[pos] += d_pos * h[t]
    np.add.at(w_e.grad, negs, np.outer(d_negs, h[t]))
    return loss


def ref_ce(params, h, d_h, pos, tgt):
    """Full-catalog cross-entropy of one target."""
    w_l = params["W_l"]
    loss, d_logits = cross_entropy(w_l.value @ h[pos], tgt)
    w_l.grad += np.outer(d_logits, h[pos])
    d_h[pos] += w_l.value.T @ d_logits
    return loss


def ref_batch_grads(params, rows, target_loss):
    """One per-user forward and backward per row, one loss call per target;
    gradients averaged over the rows."""
    params.zero_grads()
    total = 0.0
    for user, items, segments, targets in rows:
        if not len(targets[0]):
            continue
        h, cache = forward(params, user, items, segments)
        d_h = np.zeros_like(h)
        for target in zip(*targets):
            total += target_loss(params, h, d_h, *target)
        backward(params, cache, d_h)
    params.scale_grads(1.0 / len(rows))
    return total


def _grads(params):
    return {name: params[name].grad.copy() for name in params.names()}


@given(lengths=st.lists(st.integers(1, 8), min_size=1, max_size=9),
       n_layers=st.integers(1, 2), n_heads=st.sampled_from([1, 2]),
       stage=st.sampled_from(["pretrain", "last", "all_real"]), seed=st.integers(0, 7))
@example(lengths=[1], n_layers=1, n_heads=1, stage="last", seed=0)
@example(lengths=[8, 1, 5, 5, 7, 1, 8, 2, 5], n_layers=2, n_heads=2, stage="pretrain", seed=1)
@example(lengths=[8, 1, 5, 5, 7, 1, 8, 2, 5], n_layers=2, n_heads=2, stage="all_real", seed=2)
def test_stacked_batch_gradients_equal_the_per_user_loop(lengths, n_layers, n_heads, stage,
                                                         seed):
    """Rows of mixed lengths, a lone row, length 1 and rows past max_len 5;
    item ids repeat within and across rows, so scattered gradients add up.
    Under either tuning objective, one prompt_tune epoch of one batch also
    moves W_s and W_l by one Adam step of the per-user gradients."""
    rng = np.random.default_rng(seed)
    n_users, n_items = len(lengths), 16
    params = _params(seed, n_users=n_users, n_items=n_items, max_len=5, dtype=np.float64,
                     n_layers=n_layers, n_heads=n_heads)
    seqs = [rng.integers(0, 10, size=L).tolist() for L in lengths]
    ds = make_dataset(seqs, rng.integers(0, 10, size=n_users), rng.integers(0, 10, size=n_users),
                      n_items)
    if stage == "pretrain":
        draw = np.random.default_rng(seed)
        rows = [pretrain_row(ds, u, 5, 2, draw) for u in range(n_users)]
        batched, ref = _bce_target, ref_bce
    else:
        prompts = [PromptEnhancedSequence(seq, rng.integers(0, 2, size=len(seq)).tolist())
                   for seq in seqs]
        inputs = [truncate_last(p.items, p.segments, 5) for p in prompts]
        rows = [tune_row(u, *inputs[u], int(ds.valid_target[u]), stage) for u in range(n_users)]
        batched, ref = _ce_target, ref_ce

    loss = _batch_grads(params, rows, batched)
    got = _grads(params)
    expected_loss = ref_batch_grads(params, rows, ref)
    assert abs(loss - expected_loss) <= 1e-12 * max(1.0, abs(expected_loss))
    for name, grad in _grads(params).items():
        assert np.max(np.abs(got[name] - grad), initial=0.0) <= 1e-12, name

    if stage != "pretrain":
        hyper = tiny_hyper(seed=seed, max_len=5, n_layers=n_layers, n_heads=n_heads,
                           batch_size=n_users)
        tuned, _ = prompt_tune(ds, params, prompts, hyper, epochs=1, loss_positions=stage)
        start = params.copy()
        start["W_s"].value[...] = 0.0
        start["W_l"].value[...] = start["W_e"].value
        ref_batch_grads(start, rows, ref)
        for name in ("W_s", "W_l"):
            adam_step(start[name], AdamState.for_param(start[name], lr=hyper.lr))
            assert np.max(np.abs(tuned[name].value - start[name].value)) <= 1e-12, name


@given(lengths=st.lists(st.integers(1, 20), max_size=9), n_layers=st.integers(1, 2),
       n_heads=st.sampled_from([1, 2]), stage=st.sampled_from(["pretrain", "last", "all_real"]),
       seed=st.integers(0, 7))
@example(lengths=list(range(1, 21)), n_layers=2, n_heads=2, stage="pretrain", seed=3)
@example(lengths=list(range(1, 21)), n_layers=1, n_heads=2, stage="all_real", seed=4)
def test_padded_length_buckets_give_the_per_user_gradients(lengths, n_layers, n_heads, stage,
                                                           seed):
    """At max_len 20, rows of lengths 3, 9 and 19 always join the drawn
    ones: they pad inside the first bucket, into the next one and up to the
    cap. Every stacked forward must see exactly the bucket lengths, more
    positions than the rows hold, and the gradients of the per-user loop."""
    rng = np.random.default_rng(seed)
    lengths = lengths + [3, 9, 19]
    n_users, n_items, max_len = len(lengths), 16, 20
    params = _params(seed, n_users=n_users, n_items=n_items, max_len=max_len, dtype=np.float64,
                     n_layers=n_layers, n_heads=n_heads)
    seqs = [rng.integers(0, 10, size=L).tolist() for L in lengths]
    ds = make_dataset(seqs, rng.integers(0, 10, size=n_users), rng.integers(0, 10, size=n_users),
                      n_items)
    if stage == "pretrain":
        rows = [pretrain_row(ds, u, max_len, 2, np.random.default_rng(seed)) for u in range(n_users)]
        batched, ref = _bce_target, ref_bce
    else:
        rows = [tune_row(u, seq, rng.integers(0, 2, size=len(seq)).tolist(),
                         int(ds.valid_target[u]), stage) for u, seq in enumerate(seqs)]
        batched, ref = _ce_target, ref_ce

    shapes = []

    def spy(params, users, items, segments):
        shapes.append(np.shape(items))
        return forward(params, users, items, segments)

    with mock.patch("recgpt.training.forward", spy):
        loss = _batch_grads(params, rows, batched)
    got = _grads(params)
    real = [len(items) for _, items, _, targets in rows if len(targets[0])]
    buckets = [min(-(-L // BUCKET_WIDTH) * BUCKET_WIDTH, max_len) for L in real]
    assert sorted(L for B, L in shapes for _ in range(B)) == sorted(buckets)
    assert sum(B * L for B, L in shapes) > sum(real)

    expected_loss = ref_batch_grads(params, rows, ref)
    assert abs(loss - expected_loss) <= 1e-12 * max(1.0, abs(expected_loss))
    for name, grad in _grads(params).items():
        assert np.max(np.abs(got[name] - grad), initial=0.0) <= 1e-12, name


def test_stacked_backward_matches_finite_differences():
    """A B = 3 stack, with one user twice and repeated items, through two
    layers of two heads: the stacked backward of sum(h * R) against central
    differences of every weight the forward reads."""
    params = _params(9, n_users=2, n_items=5, max_len=4, dtype=np.float64, d=4, n_layers=2,
                     n_heads=2)
    users = np.array([0, 1, 0])
    items = np.array([[1, 1, 3, 0], [4, 2, 2, 4], [3, 0, 1, 1]])
    segments = np.array([[REAL, PROMPT, REAL, REAL], [REAL, REAL, PROMPT, REAL],
                         [PROMPT, REAL, REAL, PROMPT]])
    R = np.random.default_rng(3).standard_normal((3, 4, 4))

    def loss():
        return float(np.sum(forward(params, users, items, segments)[0] * R))

    params.zero_grads()
    h, cache = forward(params, users, items, segments)
    backward(params, cache, R)
    step = 1e-6
    # no FFN pre-activation within reach of a step: differences do not cross a ReLU kink
    assert min(np.abs(block.a1).min() for block in cache.blocks) > 1e3 * step
    for name in params.names():
        if name == "W_l":
            continue
        value = params[name].value.reshape(-1)
        numeric = np.empty_like(value)
        for i in range(value.size):
            orig = value[i]
            value[i] = orig + step
            up = loss()
            value[i] = orig - step
            down = loss()
            value[i] = orig
            numeric[i] = (up - down) / (2 * step)
        analytic = params[name].grad.reshape(-1)
        assert np.allclose(analytic, numeric, rtol=1e-6, atol=1e-8), name
        assert np.any(analytic != 0.0), name


def _blob_digests(threads: int, tmp_path: Path) -> dict[str, str]:
    """Run preprocess, pretrain, gen-prompts and tune for one epoch each in a
    fresh interpreter with OPENBLAS_NUM_THREADS = threads; returns each
    checkpoint's blob SHA-256."""
    data = tmp_path / "interactions.tsv"
    with open(data, "w", encoding="utf-8") as fh:
        n = 0
        for u in range(100):
            # 6 to 34 interactions, so train prefixes of 4 to 32 items fill
            # every length bucket up to max_len, padded; 1,980 distinct items
            for t in range(6 + 11 * u % 29):
                fh.write(f"u{u}\ti{n}\t{t}\n")
                n += 1
    out = tmp_path / f"threads{threads}"
    cfg = tmp_path / f"threads{threads}.cfg"
    cfg.write_text(f"data_path = {data}\nout_dir = {out}\nkcore_k = 1\nd = 64\n"
                   "n_heads = 1\nmax_len = 30\nbatch_size = 32\npretrain_epochs = 1\n"
                   "tune_epochs = 1\nearly_stop_patience = 0\nprompt_window = 1\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([str(src)] + [p for p in [os.environ.get("PYTHONPATH")]
                                                        if p]))
    script = ("import sys\nfrom recgpt.cli import main\n"
              "for stage in ('preprocess', 'pretrain', 'gen-prompts', 'tune'):\n"
              "    assert main([stage, '--config', sys.argv[1]]) == 0\n")
    subprocess.run([sys.executable, "-c", script, str(cfg)], env=env, check=True, timeout=300,
                   stdout=subprocess.DEVNULL)
    [run] = [d for d in out.iterdir() if d.is_dir()]
    names = ("dataset.ckpt", "pretrain.ckpt", "prompts_K1.ckpt", "tuned_K1.ckpt")
    return {name: load(run / name)[1]["blob_sha256"] for name in names}


def test_training_checkpoints_do_not_depend_on_the_blas_thread_count(tmp_path):
    """Stacked training GEMMs run to TRAIN_CHUNK_POSITIONS padded positions
    at d = 64, in every length bucket from 8 to max_len 30, and tuning
    scores groups of up to 8 rows of 30 positions against a catalog of
    1,980 items, past the sizes where OpenBLAS splits a GEMM across
    threads; one and two threads must write the same checkpoint bytes."""
    assert _blob_digests(1, tmp_path) == _blob_digests(2, tmp_path)