"""Batched inference against the per-user path, bit for bit.

The references here run the per-user `forward` directly, one row and one
greedy step at a time, so they share no code with the bucketed, chunked
last-position path they check.
"""
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import recgpt.recall
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
    forward,
    last_hidden,
    rank_items,
    score_items,
)
from recgpt.numerics import NumericsError
from recgpt.recall import (
    CHUNK_POSITIONS,
    STEP1,
    STEP2,
    RecallResult,
    dump_recall_csv,
    final_hidden,
    greedy_steps,
    recall_rows,
    recall_two_step,
)
from recgpt.training import _valid_hr_at_10, generate_prompt_cache

from conftest import make_dataset, tiny_params


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

    results = recall_rows(params, users, rows, m, n, scorer, filter_history=filter_history)
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
