"""One-step and two-step recall semantics."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from recgpt.evaluation import mn_grid
from recgpt.recall import (
    STEP1,
    STEP2,
    dump_recall_csv,
    greedy_steps,
    recall_grid,
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


def test_step_2_refuses_a_row_whose_step_1_ranked_nothing():
    # filter_history excludes every item of a 6-item catalog
    params, seq = tiny_params(n_items=6), [0, 1, 2, 3, 4, 5]
    with pytest.raises(ValueError, match="row 0: step 1 ranked no item"):
        recall_two_step(params, 0, seq, 1, 1, SCORER_OUTPUT_LAYER, filter_history=True)
    with pytest.raises(ValueError, match="row 1: step 1 ranked no item"):
        recall_grid(params, [0, 1], [([0], None), (seq, None)], [(1, 1)], SCORER_OUTPUT_LAYER,
                    filter_history=True)
    with pytest.raises(ValueError, match="row 0: step 1 ranked no item"):
        recall_grid(params, [0], [(seq, None)], [(2, 0), (1, 1)], SCORER_OUTPUT_LAYER,
                    filter_history=True)


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
        [h], [item] = greedy_steps(params, [1], [(seq, segs)], scorer)
        items, segments = truncate_last(seq, segs, params.hyper.max_len)
        expected_h, _ = forward(params, 1, items, segments)
        assert np.array_equal(h, expected_h[-1])
        assert item == int(rank_items(score_items(params, h, scorer), 1)[0])


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


# rows of items and segments on a 10-item catalog: with filter_history a row
# can leave fewer eligible items than k, so some results come back short
_ROWS = st.lists(st.integers(1, 7).flatmap(lambda L: st.tuples(
    st.lists(st.integers(0, 9), min_size=L, max_size=L),
    st.lists(st.sampled_from([REAL, PROMPT]), min_size=L, max_size=L))), min_size=1, max_size=6)


@given(rows=_ROWS, k=st.integers(1, 9), ties=st.booleans(), filter_history=st.booleans(),
       scorer=st.sampled_from([SCORER_TIED_EMB, SCORER_OUTPUT_LAYER]))
def test_recall_grid_equals_recall_two_step_at_every_point(rows, k, ties, filter_history,
                                                           scorer):
    params = tiny_params(n_users=6, n_items=10, seed=4, max_len=5)
    params["W_s"].value[...] = np.random.default_rng(5).standard_normal((2, 8))
    if ties:
        # duplicated item rows: step 2's ties straddle the items step 1 chose
        for name in ("W_e", "W_l"):
            w = params[name].value
            w[1::2] = w[0::2]
    users = list(range(len(rows)))
    grid = mn_grid(k, min_m=1)
    for (m, n), got in zip(grid, recall_grid(params, users, rows, grid, scorer,
                                             filter_history)):
        want = [recall_two_step(params, u, seq, m, n, scorer, segments=segments,
                                filter_history=filter_history)
                for u, (seq, segments) in zip(users, rows)]
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.user == b.user and a.provenance == b.provenance
            assert a.items.dtype == b.items.dtype and a.items.tolist() == b.items.tolist()
            assert a.scores.dtype == b.scores.dtype
            assert a.scores.tobytes() == b.scores.tobytes()


def test_recall_grid_refuses_points_of_different_k():
    with pytest.raises(ValueError, match="m \\+ n = 5"):
        recall_grid(tiny_params(), [0], [([1, 2], None)], [(5, 0), (3, 1)], SCORER_TIED_EMB)
