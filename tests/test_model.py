"""Decoder forward-pass semantics: embedding sum, causal attention, scoring."""
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from recgpt.model import (
    PROMPT,
    REAL,
    SCORER_OUTPUT_LAYER,
    SCORER_TIED_EMB,
    embed_input,
    forward,
    rank_items,
    score_items,
)
from recgpt.numerics import NumericsError

from conftest import tiny_params


def forward_oracle(params, user, items, segments):
    """Straight-line float64 re-implementation with explicit loops."""
    hp = params.hyper
    d, n_heads = hp.d, hp.n_heads
    head_dim = d // n_heads
    L = len(items)
    W = {name: params[name].value.astype(np.float64) for name in params.names()}
    h = np.zeros((L, d))
    for t in range(L):
        h[t] = W["W_u"][user] + W["W_e"][items[t]] + W["W_p"][t] + W["W_s"][segments[t]]
    for l in range(hp.n_layers):
        q = h @ W[f"layer{l}.W_q"]
        k = h @ W[f"layer{l}.W_k"]
        v = h @ W[f"layer{l}.W_v"]
        att = np.zeros((L, d))
        for hd in range(n_heads):
            sl = slice(hd * head_dim, (hd + 1) * head_dim)
            for t in range(L):
                scores = np.array([q[t, sl] @ k[j, sl] / np.sqrt(d)
                                   for j in range(t + 1)])
                e = np.exp(scores - scores.max())
                p = e / e.sum()
                att[t, sl] = sum(p[j] * v[j, sl] for j in range(t + 1))
        s = att @ W[f"layer{l}.W_s"]
        a1 = s @ W[f"layer{l}.W_1"] + W[f"layer{l}.b_1"]
        h = np.maximum(a1, 0.0) @ W[f"layer{l}.W_2"] + W[f"layer{l}.b_2"]
    return h


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

def test_embed_input_zero_tables_give_zero():
    params = tiny_params()
    for name in ("W_u", "W_e", "W_p", "W_s"):
        params[name].value[...] = 0.0
    h0 = embed_input(params, 0, [1, 2, 3], [REAL, REAL, REAL])
    assert np.array_equal(h0, np.zeros_like(h0))


def test_embed_input_segment_term_is_additive_identity_at_zero():
    params = tiny_params(seed=5)
    assert np.array_equal(params["W_s"].value, np.zeros_like(params["W_s"].value))
    a = embed_input(params, 1, [0, 4, 2], [REAL, REAL, REAL])
    b = embed_input(params, 1, [0, 4, 2], [PROMPT, REAL, PROMPT])
    assert np.array_equal(a, b)


def test_embed_input_matches_per_position_sum(rng):
    params = tiny_params(seed=6)
    params["W_s"].value[...] = rng.standard_normal(params["W_s"].value.shape).astype(np.float32)
    items, segments = [3, 0, 5], [REAL, PROMPT, REAL]
    h0 = embed_input(params, 2, items, segments)
    for t in range(3):
        expected = (params["W_u"].value[2] + params["W_e"].value[items[t]]
                    + params["W_p"].value[t] + params["W_s"].value[segments[t]])
        assert np.allclose(h0[t], expected, rtol=1e-6)


def test_embed_input_rejects_overlong_sequence():
    params = tiny_params()
    too_long = [0] * (params.hyper.max_len + 1)
    with pytest.raises(NumericsError):
        embed_input(params, 0, too_long, [REAL] * len(too_long))


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_forward_single_token_attention_is_identity():
    params = tiny_params(seed=7)
    h, cache = forward(params, 0, [2], [REAL])
    for p in cache.blocks[0].probs:
        assert np.array_equal(p, np.array([[1.0]], dtype=p.dtype))


def test_forward_matches_float64_oracle(rng):
    for seed in range(5):
        params = tiny_params(seed=seed, n_items=8).astype(np.float64)
        L = int(rng.integers(1, 8))
        items = rng.integers(0, 8, size=L).tolist()
        segments = rng.integers(0, 2, size=L).tolist()
        h, _ = forward(params, 1, items, segments)
        expected = forward_oracle(params, 1, items, segments)
        assert np.allclose(h, expected, rtol=1e-9, atol=1e-12)


def test_forward_two_layers_matches_oracle(rng):
    params = tiny_params(seed=9, n_layers=2).astype(np.float64)
    items = [1, 4, 2, 0]
    segments = [REAL, REAL, PROMPT, REAL]
    h, _ = forward(params, 0, items, segments)
    assert np.allclose(h, forward_oracle(params, 0, items, segments), rtol=1e-9)


def test_forward_is_pure():
    params = tiny_params(seed=10)
    a, _ = forward(params, 0, [1, 2, 3], [REAL] * 3)
    b, _ = forward(params, 0, [1, 2, 3], [REAL] * 3)
    assert np.array_equal(a, b)


def test_causality_future_perturbation_invariance(rng):
    params = tiny_params(seed=11, n_items=10)
    for _ in range(20):
        L = int(rng.integers(2, 10))
        items = rng.integers(0, 10, size=L).tolist()
        segs = [REAL] * L
        t = int(rng.integers(0, L - 1))
        h_ref, _ = forward(params, 0, items, segs)
        perturbed = list(items)
        for j in range(t + 1, L):
            perturbed[j] = int(rng.integers(0, 10))
        h_alt, _ = forward(params, 0, perturbed, segs)
        assert np.array_equal(h_ref[: t + 1], h_alt[: t + 1])


def test_user_module_is_additive():
    params = tiny_params(seed=12)
    items, segs = [1, 3, 2], [REAL] * 3
    h_u0, _ = forward(params, 0, items, segs)
    h_u1, _ = forward(params, 1, items, segs)
    assert not np.array_equal(h_u0, h_u1)
    params["W_u"].value[1] = params["W_u"].value[0]
    h_u1_same, _ = forward(params, 1, items, segs)
    h_u0_again, _ = forward(params, 0, items, segs)
    assert np.array_equal(h_u0_again, h_u1_same)


def test_one_layer_sees_the_order_of_earlier_items():
    """With one layer and no residual path, the last position's attention
    output is a softmax-weighted sum over the earlier tokens, which only the
    position embeddings make depend on their order. At unit-scale weights,
    reversing the first 11 of 12 distinct items moves the final hidden state
    far past float64 rounding."""
    params = tiny_params(n_items=20, seed=13, d=16, max_len=12).astype(np.float64)
    prng = np.random.default_rng(113)
    for p in params.parameters():
        p.value = prng.standard_normal(p.value.shape)
    items = list(range(3, 15))
    h, _ = forward(params, 0, items, [REAL] * 12)
    h_rev, _ = forward(params, 0, items[-2::-1] + items[-1:], [REAL] * 12)
    assert np.max(np.abs(h_rev[-1] - h[-1])) > 1e-6 * np.max(np.abs(h[-1]))


# ---------------------------------------------------------------------------
# scoring / ranking
# ---------------------------------------------------------------------------

def test_scorers_identical_at_tied_init(rng):
    params = tiny_params(seed=13)
    assert np.array_equal(params["W_l"].value, params["W_e"].value)
    h = rng.standard_normal(params.hyper.d).astype(np.float32)
    assert np.array_equal(score_items(params, h, SCORER_TIED_EMB),
                          score_items(params, h, SCORER_OUTPUT_LAYER))


def test_score_items_matches_matvec_oracle(rng):
    params = tiny_params(seed=14)
    h = rng.standard_normal(params.hyper.d).astype(np.float32)
    logits = score_items(params, h, SCORER_TIED_EMB)
    expected = np.array([params["W_e"].value[i] @ h for i in range(params.n_items)])
    assert np.allclose(logits, expected, rtol=1e-6)


def test_score_items_unknown_scorer():
    params = tiny_params()
    with pytest.raises(ValueError):
        score_items(params, np.zeros(params.hyper.d, dtype=np.float32), "bogus")


def test_rank_items_tie_break_ascending_index():
    top = rank_items(np.zeros(6), 4)
    assert top.tolist() == [0, 1, 2, 3]


def test_rank_items_exclusion():
    logits = np.array([5.0, 4.0, 3.0, 2.0])
    top = rank_items(logits, 2, exclude={0, 2})
    assert top.tolist() == [1, 3]


def test_rank_items_monotone_transform_invariance(rng):
    logits = rng.standard_normal(20)
    a = rank_items(logits, 10)
    b = rank_items(3.0 * logits + 7.0, 10)
    assert np.array_equal(a, b)


def test_full_catalog_ranking_is_total_order(rng):
    logits = rng.standard_normal(15)
    order = rank_items(logits, 15)
    assert sorted(order.tolist()) == list(range(15))
    assert np.all(np.diff(logits[order]) <= 0)


# ---------------------------------------------------------------------------
# partial-selection ranking against the full sort it replaced
# ---------------------------------------------------------------------------

def _perfbench_checks():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle_top = _perfbench_checks().oracle_top


def full_sort_rank(logits, k, exclude=None):
    """rank_items as a stable argsort of the whole catalog and an isin filter."""
    order = np.argsort(-logits, kind="stable")
    if exclude:
        order = order[~np.isin(order, list(exclude))]
    return order[:k]


# few distinct values, so most ranks tie; -0.0 and 0.0 compare equal
_LOGIT = st.one_of(st.integers(-2, 2).map(float),
                   st.sampled_from([-np.inf, np.inf, -0.0, 0.0]))


@st.composite
def _ranking_case(draw):
    n = draw(st.integers(0, 24))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    logits = np.asarray(draw(st.lists(_LOGIT, min_size=n, max_size=n)), dtype=dtype)
    ids = st.integers(0, n - 1) if n else st.nothing()
    exclude = draw(st.one_of(st.none(), st.just(set()), st.just(set(range(n))),
                             st.sets(ids, max_size=n)))
    return logits, draw(st.integers(0, n + 2)), exclude


@given(_ranking_case())
def test_rank_items_equals_the_full_sort_on_tie_heavy_logits(case):
    logits, k, exclude = case
    got = rank_items(logits, k, exclude=exclude)
    eligible = logits.shape[0] - len(exclude or ())
    assert got.dtype == np.intp and got.shape == (min(k, eligible),)
    assert got.tolist() == full_sort_rank(logits, k, exclude).tolist()
    assert got.tolist() == oracle_top(logits, k, exclude or ())


@given(st.integers(1, 20).flatmap(
    lambda n: st.tuples(st.lists(st.integers(-2, 2).map(float), min_size=n, max_size=n),
                        st.integers(0, n - 1), st.integers(0, n + 2))))
def test_rank_items_refuses_a_nan_logit(case):
    values, at, k = case
    logits = np.asarray(values, dtype=np.float32)
    logits[at] = np.nan
    with pytest.raises(NumericsError):
        rank_items(logits, k)
