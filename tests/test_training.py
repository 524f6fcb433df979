"""Two-stage training: pairwise pre-training, prompt generation, tuning."""
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import recgpt.training
from recgpt.model import (
    PROMPT,
    REAL,
    SCORER_OUTPUT_LAYER,
    SCORER_TIED_EMB,
    HyperParams,
    ModelParams,
    forward,
    rank_items,
    score_items,
)
from recgpt.numerics import bce_pair_loss, cross_entropy
from recgpt.recall import recall_one_step
from recgpt.training import (
    PromptEnhancedSequence,
    TrainingError,
    extend_prompt_rows,
    generate_prompt_cache,
    generate_prompts,
    pretrain,
    pretrain_row,
    prompt_tune,
)

from conftest import tiny_dataset, tiny_hyper, tiny_params
from reference import decode64, forward_states, greedy_prompts


def zeroed_params(**kw):
    params = tiny_params(**kw)
    for p in params.parameters():
        p.value[...] = 0.0
    return params


# ---------------------------------------------------------------------------
# pre-training
# ---------------------------------------------------------------------------

def test_pretrain_loss_decreases():
    ds = tiny_dataset(n_users=4, n_items=8, length=6, seed=1)
    params, report = pretrain(ds, tiny_hyper(seed=1), epochs=5)
    assert len(report.epoch_losses) == 5
    assert all(np.isfinite(l) for l in report.epoch_losses)
    assert report.epoch_losses[-1] < report.epoch_losses[0]


def test_zero_model_pair_loss_is_two_ln_two():
    params = zeroed_params()
    h, _ = forward(params, 0, [1, 2, 3], [REAL] * 3)
    assert np.array_equal(h, np.zeros_like(h))
    pos = float(params["W_e"].value[4] @ h[0])
    neg = params["W_e"].value[[5]] @ h[0]
    loss, _, _ = bce_pair_loss(pos, neg)
    assert math.isclose(loss, 2 * math.log(2), rel_tol=1e-12)


def test_pretrain_deterministic_given_seed():
    ds = tiny_dataset(n_users=4, n_items=8, length=6, seed=2)
    a, _ = pretrain(ds, tiny_hyper(seed=3), epochs=2)
    b, _ = pretrain(ds, tiny_hyper(seed=3), epochs=2)
    for name in a.names():
        assert np.array_equal(a[name].value, b[name].value)


def test_pretrain_leaves_segment_and_output_weights_untouched():
    ds = tiny_dataset(n_users=4, n_items=8, length=6, seed=2)
    params, _ = pretrain(ds, tiny_hyper(seed=4), epochs=2)
    assert np.array_equal(params["W_s"].value, np.zeros_like(params["W_s"].value))
    # W_l is not trained but ends as a copy of the trained W_e, so greedy
    # prompts are the argmax of the tied scorer pretraining trained
    assert np.array_equal(params["W_l"].value, params["W_e"].value)
    for u in range(ds.n_users):
        pes = generate_prompts(params, u, ds.sequences[u], 1)
        for pos in (i for i, s in enumerate(pes.segments) if s == PROMPT):
            h, _ = forward(params, u, pes.items[:pos], pes.segments[:pos])
            logits = score_items(params, h[-1], SCORER_TIED_EMB)
            assert pes.items[pos] == int(rank_items(logits, 1)[0])


def test_pretrain_row_keeps_the_last_max_len_items():
    ds = tiny_dataset(n_users=2, n_items=12, length=10, seed=14)
    user, items, segments, targets = pretrain_row(ds, 1, 4, 1, np.random.default_rng(0))
    assert (user, items, segments) == (1, ds.sequences[1][-4:], [REAL] * 4)
    assert [(t, pos) for t, pos, _ in zip(*targets)] == [(t, items[t + 1]) for t in range(3)]


def test_both_stages_train_on_the_last_hyper_max_len_items(monkeypatch):
    """Train prefixes of 8 items under max_len 4: each stage cuts every row
    it trains on to its last 4 items, as inference does. Rows run as stacked
    (B, L) calls, so the recorder counts the rows of each call."""
    ds = tiny_dataset(n_users=4, n_items=12, length=10, seed=13)
    hp = tiny_hyper(seed=13, max_len=4)
    lengths = []

    def recording(params, user, items, segments):
        lengths.extend([np.shape(items)[-1]] * len(np.atleast_2d(items)))
        return forward(params, user, items, segments)

    monkeypatch.setattr(recgpt.training, "forward", recording)
    pre, report = pretrain(ds, hp, epochs=1)
    assert lengths == [4] * ds.n_users and np.isfinite(report.epoch_losses[0])
    lengths.clear()
    _, report = prompt_tune(ds, pre, generate_prompt_cache(ds, pre, 1), hp, epochs=1)
    assert lengths == [4] * ds.n_users and np.isfinite(report.epoch_losses[0])


# ---------------------------------------------------------------------------
# prompt generation
# ---------------------------------------------------------------------------

def test_generate_prompts_k0_is_identity():
    params = tiny_params(seed=5)
    seq = [1, 4, 2, 0]
    pes = generate_prompts(params, 0, seq, 0)
    assert pes.items == seq
    assert pes.segments == [REAL] * 4


def test_prompt_layout_example():
    params = tiny_params(seed=5)
    pes = generate_prompts(params, 0, [1, 4, 2], 2)
    assert len(pes.items) == 3 + 2 * 2
    assert pes.real_positions == [0, 3, 6]   # 1-based: {1, 4, 7}


def test_prompt_length_law_100_instances(rng):
    params = tiny_params(seed=6, n_items=10)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        K = int(rng.integers(0, 4))
        seq = rng.integers(0, 10, size=n).tolist()
        pes = generate_prompts(params, int(rng.integers(0, 3)), seq, K)
        assert len(pes.items) == n + (n - 1) * K
        assert pes.real_positions == [j * (K + 1) for j in range(n)]
        assert [pes.items[p] for p in pes.real_positions] == seq


def test_generate_prompts_rejects_negative_k():
    with pytest.raises(TrainingError):
        generate_prompts(tiny_params(), 0, [1, 2], -1)


def test_greedy_decode_matches_oracle_on_d2_v3_model():
    hp = HyperParams(d=2, n_heads=1, n_layers=1, max_len=10, seed=0)
    rng = np.random.default_rng(0)
    for trial in range(10):
        params = ModelParams(2, 3, hp, rng=np.random.default_rng(trial)).astype(np.float64)
        seq = rng.integers(0, 3, size=4).tolist()
        K = int(rng.integers(1, 3))
        pes = generate_prompts(params, 1, seq, K)
        items, segs = greedy_prompts(decode64, params, 1, seq, K)
        assert pes.items == items
        assert pes.segments == segs


def test_greedy_decode_matches_oracle_on_unit_scale_two_layer_model():
    """Unit-scale weights in two layers of two heads spread the argmax over
    the catalog, and 6-item rows under max_len 5 make the later prompts read
    a truncated window."""
    hp = HyperParams(d=4, n_heads=2, n_layers=2, max_len=5, seed=0)
    rng = np.random.default_rng(1)
    for trial in range(10):
        params = ModelParams(2, 8, hp).astype(np.float64)
        prng = np.random.default_rng(trial + 100)
        for p in params.parameters():
            p.value = prng.standard_normal(p.value.shape)
        seq = rng.integers(0, 8, size=6).tolist()
        K = int(rng.integers(1, 3))
        pes = generate_prompts(params, 1, seq, K)
        assert (pes.items, pes.segments) == greedy_prompts(decode64, params, 1, seq, K)


def test_generate_prompt_cache_deterministic():
    ds = tiny_dataset(n_users=4, n_items=8, length=6, seed=7)
    params = tiny_params(n_users=4, n_items=8, seed=7)
    a = generate_prompt_cache(ds, params, 2)
    b = generate_prompt_cache(ds, params, 2)
    assert [(p.items, p.segments) for p in a] == [(p.items, p.segments) for p in b]


@given(prefix=st.lists(st.integers(0, 7), max_size=9),
       new_items=st.lists(st.integers(0, 7), max_size=3),
       K=st.integers(0, 3), max_len=st.sampled_from([2, 3, 5, 12]),
       user=st.integers(0, 2), seed=st.integers(0, 3), ties=st.booleans())
@example(prefix=[], new_items=[5], K=2, max_len=3, user=0, seed=0, ties=True)
@example(prefix=[4], new_items=[1, 6], K=3, max_len=2, user=1, seed=1, ties=True)
@example(prefix=[0, 1, 2, 3, 4, 5, 6], new_items=[7], K=3, max_len=5, user=2, seed=2,
         ties=False)
def test_extending_a_cached_row_equals_regenerating(prefix, new_items, K, max_len, user,
                                                    seed, ties):
    params = tiny_params(n_items=8, seed=seed, max_len=max_len)
    if ties:
        # duplicated output rows: every argmax has a tie, broken to the lower index
        w_l = params["W_l"].value
        w_l[1::2] = w_l[0::2]
    cached = generate_prompts(params, user, prefix, K)
    [extended] = extend_prompt_rows(params, [user], [cached], [new_items], K)
    whole = generate_prompts(params, user, prefix + new_items, K)
    assert (extended.items, extended.segments) == (whole.items, whole.segments)
    assert (whole.items, whole.segments) == greedy_prompts(forward_states, params, user,
                                                           prefix + new_items, K)


# ---------------------------------------------------------------------------
# prompt tuning
# ---------------------------------------------------------------------------

def test_tune_at_init_with_k0_scores_like_pretrained():
    ds = tiny_dataset(n_users=4, n_items=8, length=6, seed=8)
    pre, _ = pretrain(ds, tiny_hyper(seed=8), epochs=2)
    prompts = generate_prompt_cache(ds, pre, 0)
    tuned, _ = prompt_tune(ds, pre, prompts, tiny_hyper(seed=8), epochs=0)
    for u in range(ds.n_users):
        a = recall_one_step(pre, u, ds.sequences[u], 5, SCORER_TIED_EMB)
        b = recall_one_step(tuned, u, ds.sequences[u], 5, SCORER_OUTPUT_LAYER)
        assert np.array_equal(a.items, b.items)
        assert np.array_equal(a.scores, b.scores)


def test_tune_resets_heads_at_start():
    ds = tiny_dataset(n_users=4, n_items=8, length=6, seed=9)
    pre, _ = pretrain(ds, tiny_hyper(seed=9), epochs=1)
    pre["W_s"].value[...] = 1.0   # pretend a stale segment table survived
    tuned, _ = prompt_tune(ds, pre, generate_prompt_cache(ds, pre, 0),
                           tiny_hyper(seed=9), epochs=0)
    assert np.array_equal(tuned["W_s"].value, np.zeros_like(tuned["W_s"].value))
    assert np.array_equal(tuned["W_l"].value, tuned["W_e"].value)


def test_uniform_logit_tuning_loss_is_ln_vocab():
    loss, _ = cross_entropy(np.zeros(8), 3)
    assert math.isclose(loss, math.log(8), rel_tol=1e-12)


def test_tune_loss_decreases_and_is_finite():
    ds = tiny_dataset(n_users=5, n_items=8, length=6, seed=10)
    pre, _ = pretrain(ds, tiny_hyper(seed=10), epochs=2)
    prompts = generate_prompt_cache(ds, pre, 1)
    tuned, report = prompt_tune(ds, pre, prompts,
                                tiny_hyper(seed=10), epochs=5)
    assert all(np.isfinite(l) for l in report.epoch_losses)
    assert report.epoch_losses[-1] < report.epoch_losses[0]


def test_tune_all_real_positions_mode():
    ds = tiny_dataset(n_users=4, n_items=8, length=6, seed=11)
    pre, _ = pretrain(ds, tiny_hyper(seed=11), epochs=1)
    prompts = generate_prompt_cache(ds, pre, 1)
    tuned, report = prompt_tune(ds, pre, prompts,
                                tiny_hyper(seed=11), epochs=2,
                                loss_positions="all_real")
    assert all(np.isfinite(l) for l in report.epoch_losses)
    # more targets per user than the single-position default
    _, last_report = prompt_tune(ds, pre, prompts,
                                 tiny_hyper(seed=11), epochs=1)
    assert report.epoch_losses[0] > last_report.epoch_losses[0]


def test_tune_rejects_bad_options():
    ds = tiny_dataset()
    pre = tiny_params()
    prompts = generate_prompt_cache(ds, pre, 0)
    with pytest.raises(TrainingError):
        prompt_tune(ds, pre, prompts, tiny_hyper(), 1, loss_positions="bogus")


def test_prompt_sequence_alignment_is_enforced():
    with pytest.raises(TrainingError):
        PromptEnhancedSequence([1, 2], [REAL])
