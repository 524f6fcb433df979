"""One-step and two-step recall semantics."""
import numpy as np
import pytest

from recgpt.model import (
    PROMPT,
    REAL,
    SCORER_OUTPUT_LAYER,
    SCORER_TIED_EMB,
    forward,
    rank_items,
    score_items,
)
from recgpt.data import truncate_last
from recgpt.recall import (
    STEP1,
    STEP2,
    dump_recall_csv,
    greedy_step,
    interest_vectors,
    recall_one_step,
    recall_two_step,
)

from conftest import tiny_params


def test_one_step_matches_exhaustive_scoring_oracle(rng):
    params = tiny_params(seed=1, n_items=12)
    seq = rng.integers(0, 12, size=5).tolist()
    res = recall_one_step(params, 0, seq, 6, SCORER_TIED_EMB)
    h, _ = forward(params, 0, seq, [REAL] * 5)
    logits = params["W_e"].value @ h[-1]
    order = sorted(range(12), key=lambda i: (-logits[i], i))
    assert res.items.tolist() == order[:6]
    assert np.array_equal(res.scores, logits[res.items])
    assert res.provenance == [STEP1] * 6


def test_one_step_requires_nonempty_sequence():
    with pytest.raises(ValueError):
        recall_one_step(tiny_params(), 0, [], 3, SCORER_TIED_EMB)


def test_two_step_with_n0_equals_one_step_bitwise(rng):
    for trial in range(100):
        params = tiny_params(seed=trial, n_items=9)
        L = int(rng.integers(1, 8))
        seq = rng.integers(0, 9, size=L).tolist()
        m = int(rng.integers(1, 9))
        scorer = SCORER_TIED_EMB if trial % 2 else SCORER_OUTPUT_LAYER
        a = recall_one_step(params, 0, seq, m, scorer)
        b = recall_two_step(params, 0, seq, m, 0, scorer)
        assert np.array_equal(a.items, b.items)
        assert np.array_equal(a.scores, b.scores)
        assert a.provenance == b.provenance


def test_two_step_appends_argmax_as_prompt_item(rng):
    params = tiny_params(seed=3, n_items=10)
    seq = rng.integers(0, 10, size=4).tolist()
    res = recall_two_step(params, 1, seq, 3, 2, SCORER_TIED_EMB)
    step1 = recall_one_step(params, 1, seq, 3, SCORER_TIED_EMB)
    assert np.array_equal(res.items[:3], step1.items)
    # second pass: rerun with the step-1 argmax appended as a PROMPT token
    ext_items, ext_segs = truncate_last(seq + [int(step1.items[0])],
                                        [REAL] * 4 + [PROMPT], params.hyper.max_len)
    h2, _ = forward(params, 1, ext_items, ext_segs)
    logits2 = params["W_e"].value @ h2[-1]
    fill = rank_items(logits2, 2, exclude=set(step1.items.tolist()))
    assert np.array_equal(res.items[3:], fill)
    assert res.provenance == [STEP1] * 3 + [STEP2] * 2


def test_two_step_result_has_k_distinct_items(rng):
    params = tiny_params(seed=4, n_items=11)
    for _ in range(30):
        seq = rng.integers(0, 11, size=int(rng.integers(1, 6))).tolist()
        m = int(rng.integers(1, 8))
        n = int(rng.integers(0, 11 - m))
        res = recall_two_step(params, 0, seq, m, n, SCORER_TIED_EMB)
        assert len(res.items) == m + n
        assert len(set(res.items.tolist())) == m + n


def test_two_step_scores_monotone_within_provenance(rng):
    params = tiny_params(seed=5, n_items=10)
    seq = rng.integers(0, 10, size=5).tolist()
    res = recall_two_step(params, 0, seq, 4, 3, SCORER_TIED_EMB)
    assert np.all(np.diff(res.scores[:4]) <= 0)
    assert np.all(np.diff(res.scores[4:]) <= 0)


def test_two_step_rejects_bad_split():
    with pytest.raises(ValueError):
        recall_two_step(tiny_params(), 0, [1], 0, 2, SCORER_TIED_EMB)


def test_filter_history_excludes_real_items_only():
    params = tiny_params(seed=6, n_items=8)
    seq = [1, 2, 3]
    segs = [REAL, PROMPT, REAL]
    res = recall_one_step(params, 0, seq, 6, SCORER_TIED_EMB,
                          segments=segs, filter_history=True)
    assert 1 not in res.items and 3 not in res.items
    assert len(res.items) == 6   # prompt item 2 remains eligible


def test_greedy_step_picks_rank_items_top_on_tie_heavy_logits(rng):
    # item rows drawn from three distinct vectors (one of them zero), so most
    # logits tie; the greedy step must take the lowest index of the top group
    for trial in range(100):
        n_items = int(rng.integers(2, 13))
        params = tiny_params(seed=trial, n_items=n_items)
        base = np.vstack([np.zeros(8), rng.standard_normal((2, 8))]).astype(np.float32)
        rows = base[rng.integers(0, 3, size=n_items)]
        params["W_e"].value[...] = rows
        params["W_l"].value[...] = rows
        seq = rng.integers(0, n_items, size=int(rng.integers(1, 16))).tolist()
        segs = rng.integers(0, 2, size=len(seq)).tolist()
        scorer = SCORER_TIED_EMB if trial % 2 else SCORER_OUTPUT_LAYER
        h, item = greedy_step(params, 1, seq, segs, scorer)
        items, segments = truncate_last(seq, segs, params.hyper.max_len)
        expected_h, _ = forward(params, 1, items, segments)
        assert np.array_equal(h, expected_h[-1])
        assert item == int(rank_items(score_items(params, h, scorer), 1)[0])


def test_interest_vectors_unroll():
    params = tiny_params(seed=7, n_items=9)
    seq = [2, 5, 1]
    vecs = interest_vectors(params, 0, seq, 3, SCORER_TIED_EMB)
    assert len(vecs) == 3
    h, _ = forward(params, 0, seq, [REAL] * 3)
    assert np.array_equal(vecs[0], h[-1])
    # manual three-pass oracle
    items, segs = list(seq), [REAL] * 3
    for step in range(3):
        hh, _ = forward(params, 0, items, segs)
        assert np.array_equal(vecs[step], hh[-1])
        logits = score_items(params, hh[-1], SCORER_TIED_EMB)
        items.append(int(rank_items(logits, 1)[0]))
        segs.append(PROMPT)
    with pytest.raises(ValueError):
        interest_vectors(params, 0, seq, 0, SCORER_TIED_EMB)


def test_interest_vectors_first_matches_two_step_hidden_state():
    params = tiny_params(seed=8, n_items=9)
    seq = [3, 0, 4]
    vecs = interest_vectors(params, 0, seq, 2, SCORER_TIED_EMB)
    logits1 = score_items(params, vecs[0], SCORER_TIED_EMB)
    step1 = recall_one_step(params, 0, seq, 4, SCORER_TIED_EMB)
    assert np.array_equal(rank_items(logits1, 4), step1.items)
    logits2 = score_items(params, vecs[1], SCORER_TIED_EMB)
    res = recall_two_step(params, 0, seq, 4, 2, SCORER_TIED_EMB)
    fill = rank_items(logits2, 2, exclude=set(step1.items.tolist()))
    assert np.array_equal(res.items[4:], fill)


def test_dump_recall_csv(tmp_path, rng):
    params = tiny_params(seed=9, n_items=8)
    results = [recall_one_step(params, u, [1, 2], 3, SCORER_TIED_EMB)
               for u in range(2)]
    path = tmp_path / "recall.csv"
    dump_recall_csv(path, results)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "user_id,rank,item_id,score,provenance"
    assert len(lines) == 1 + 2 * 3
    user, rank, item, score, prov = lines[1].split(",")
    assert (user, rank, prov) == ("0", "1", "STEP1")
    assert float(score) == float(results[0].scores[0])
