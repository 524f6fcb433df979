"""Metrics, evaluation modes, and sweep tables."""
import math

import numpy as np
import pytest

from recgpt.evaluation import (
    MODES,
    EvalError,
    eval_input,
    evaluate,
    hr_at_k,
    mn_grid,
    ndcg_at_k,
    prompt_inputs,
    sweep_mn,
)
from recgpt.model import rank_items
from recgpt.training import generate_prompt_cache, generate_prompts, pretrain, prompt_tune

from conftest import make_dataset, tiny_dataset, tiny_hyper, tiny_params


# ---------------------------------------------------------------------------
# metric formulas
# ---------------------------------------------------------------------------

def test_hr_closed_forms():
    ranked = np.array([7, 3, 9, 1, 4, 2])
    assert hr_at_k(ranked, 7, 5) == 1
    assert hr_at_k(ranked, 2, 5) == 0


def test_ndcg_closed_forms():
    ranked = np.array([7, 3, 9, 1])
    assert ndcg_at_k(ranked, 7, 4) == 1.0
    assert math.isclose(ndcg_at_k(ranked, 9, 4), 0.5, rel_tol=1e-12)  # 1/log2(4)
    assert ndcg_at_k(ranked, 5, 4) == 0.0


def test_metrics_against_direct_formula_oracle(rng):
    for _ in range(1000):
        n = int(rng.integers(1, 20))
        ranked = rng.permutation(50)[:n]
        target = int(rng.integers(0, 50))
        k = int(rng.integers(1, n + 1))
        in_top = target in ranked[:k].tolist()
        assert hr_at_k(ranked, target, k) == int(in_top)
        if in_top:
            rank = ranked[:k].tolist().index(target) + 1
            expected = 1.0 / math.log2(rank + 1)
        else:
            expected = 0.0
        got = ndcg_at_k(ranked, target, k)
        assert math.isclose(got, expected, rel_tol=1e-12) or got == expected
        assert got <= hr_at_k(ranked, target, k)


def test_metrics_reject_short_rankings():
    with pytest.raises(EvalError):
        hr_at_k(np.array([1, 2]), 1, 5)
    with pytest.raises(EvalError):
        ndcg_at_k(np.array([1, 2]), 1, 5)


# ---------------------------------------------------------------------------
# evaluation inputs and modes
# ---------------------------------------------------------------------------

def test_eval_input_splits():
    ds = tiny_dataset(n_users=2, n_items=8, length=6, seed=1)
    assert eval_input(ds, 0, "valid") == ds.sequences[0]
    assert eval_input(ds, 0, "test") == ds.sequences[0] + [int(ds.valid_target[0])]
    with pytest.raises(EvalError):
        eval_input(ds, 0, "train")


def test_mode_table_covers_variants():
    assert MODES["PRETRAIN"] == MODES["VARIANT_3"]
    assert MODES["RECGPT1"] == MODES["VARIANT_2"]
    assert MODES["RECGPT"][1] is True
    assert MODES["VARIANT_1"] == ("pretrained", True, "tied")


def test_perfect_ranking_upper_bound():
    # zeroed model: all logits tie, ranking falls back to ascending item index,
    # so a dataset whose targets are all item 0 is ranked perfectly
    ds = tiny_dataset(n_users=3, n_items=8, length=6, seed=2)
    ds.test_target[...] = 0
    params = tiny_params(n_users=3, n_items=8)
    for p in params.parameters():
        p.value[...] = 0.0
    report = evaluate(ds, "test", "PRETRAIN", pretrained=params, ks=(5,))
    assert report.metrics[("HR", 5)] == 1.0
    assert report.metrics[("NDCG", 5)] == 1.0


def test_pretrain_and_variant3_reports_identical():
    ds = tiny_dataset(n_users=4, n_items=12, length=6, seed=3)
    params = tiny_params(n_users=4, n_items=12, seed=3)
    a = evaluate(ds, "test", "PRETRAIN", pretrained=params, ks=(5, 10))
    b = evaluate(ds, "test", "VARIANT_3", pretrained=params, ks=(5, 10))
    assert a.metrics == b.metrics
    assert a.n_users == b.n_users


def test_evaluate_requires_checkpoints():
    ds = tiny_dataset(n_users=2, n_items=12, length=6, seed=4)
    with pytest.raises(EvalError):
        evaluate(ds, "test", "RECGPT1", pretrained=tiny_params(n_items=12))
    with pytest.raises(EvalError):
        evaluate(ds, "test", "NOT_A_MODE", pretrained=tiny_params(n_items=12))
    with pytest.raises(EvalError):
        evaluate(ds, "test", "RECGPT", pretrained=tiny_params(n_items=12),
                 tuned=tiny_params(n_items=12), ks=(10,), m=4, n=4)
    with pytest.raises(EvalError):
        # prompt-aware evaluation of a tuned model needs the prompt generator
        evaluate(ds, "test", "RECGPT1", tuned=tiny_params(n_items=12),
                 ks=(5,), prompt_k=2)


def test_users_with_fewer_than_k_eligible_items_are_excluded():
    """Under filter_history, user 0's test input holds 5 of the 8 items, so
    no top 5 can be filled: evaluate and every sweep_mn point count the user
    as excluded and rank the other two; unfiltered, all three are ranked."""
    ds = make_dataset([[0, 1, 2, 3], [5, 5, 6], [7]], [4, 6, 2], [6, 0, 3], 8)
    pre = tiny_params(n_users=3, n_items=8, seed=40)
    tuned = tiny_params(n_users=3, n_items=8, seed=41)
    report = evaluate(ds, "test", "PRETRAIN", pretrained=pre, ks=(5,), filter_history=True)
    assert (report.n_users, report.n_excluded) == (2, 1)
    assert evaluate(ds, "test", "PRETRAIN", pretrained=pre, ks=(5,)).n_excluded == 0
    table = sweep_mn(ds, "test", pre, tuned, ks=(5,), filter_history=True)
    for i, (m, n) in enumerate(table.points):
        point = evaluate(ds, "test", "RECGPT", pretrained=pre, tuned=tuned, ks=(5,), m=m, n=n,
                         filter_history=True)
        assert point.n_excluded == 1
        assert {key: values[i] for key, values in table.values.items()} == point.metrics


def test_metrics_bounded_and_monotone_in_k():
    ds = tiny_dataset(n_users=6, n_items=15, length=6, seed=5)
    params = tiny_params(n_users=6, n_items=15, seed=5)
    report = evaluate(ds, "test", "PRETRAIN", pretrained=params, ks=(5, 10))
    for value in report.metrics.values():
        assert 0.0 <= value <= 1.0
    assert report.metrics[("HR", 5)] <= report.metrics[("HR", 10)]
    assert report.metrics[("NDCG", 5)] <= report.metrics[("HR", 5)]
    assert report.metrics[("NDCG", 10)] <= report.metrics[("HR", 10)]


def test_report_matches_recall_csv_recompute(tmp_path):
    ds = tiny_dataset(n_users=5, n_items=12, length=6, seed=6)
    params = tiny_params(n_users=5, n_items=12, seed=6)
    dump = tmp_path / "recall.csv"
    report = evaluate(ds, "test", "PRETRAIN", pretrained=params, ks=(5, 10),
                      dump_path=dump)
    per_user = {}
    for line in dump.read_text().strip().split("\n")[1:]:
        user, rank, item, score, prov = line.split(",")
        per_user.setdefault(user, []).append(int(item[1:]))  # strip the i prefix
    for k in (5, 10):
        hr = ndcg = 0.0
        for u, ranked in sorted(per_user.items()):
            target = int(ds.test_target[int(u[1:])])
            hr += hr_at_k(np.array(ranked), target, k)
            ndcg += ndcg_at_k(np.array(ranked), target, k)
        assert report.metrics[("HR", k)] == hr / len(per_user)
        assert report.metrics[("NDCG", k)] == ndcg / len(per_user)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_mn_grid_complete():
    assert mn_grid(10) == [(10, 0), (9, 1), (8, 2), (7, 3), (6, 4), (5, 5)]
    assert mn_grid(4) == [(4, 0), (3, 1), (2, 2)]


def test_sweep_mn_first_row_equals_one_step_eval():
    ds = tiny_dataset(n_users=5, n_items=15, length=6, seed=7)
    hp = tiny_hyper(seed=7, prompt_window=1)
    pre, _ = pretrain(ds, hp, epochs=1)
    prompts = generate_prompt_cache(ds, pre, 1)
    tuned, _ = prompt_tune(ds, pre, prompts, hp, epochs=1)
    table = sweep_mn(ds, "test", pre, tuned, ks=(5, 10), prompt_k=1)
    assert table.points == mn_grid(10)
    one_step = evaluate(ds, "test", "RECGPT1", pretrained=pre, tuned=tuned,
                        ks=(5, 10), prompt_k=1)
    for key, value in one_step.metrics.items():
        assert table.values[key][0] == value
    csv = table.csv()
    assert csv.splitlines()[1].startswith("10_0,")
    assert len(csv.splitlines()) == 1 + len(mn_grid(10))


# ---------------------------------------------------------------------------
# eval-time prompts continue the train-prefix cache
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def prompted():
    """A pretrained and a K=2-tuned model on histories longer than max_len,
    so building the test input shifts the truncation window."""
    ds = tiny_dataset(n_users=6, n_items=12, length=9, seed=21)
    hp = tiny_hyper(seed=21, max_len=4, prompt_window=2)
    pre, _ = pretrain(ds, hp, epochs=1)
    cache = generate_prompt_cache(ds, pre, 2)
    tuned, _ = prompt_tune(ds, pre, cache, hp, epochs=1)
    return ds, pre, tuned, cache


@pytest.mark.parametrize("split", ["valid", "test"])
def test_prompt_inputs_equal_prompts_generated_over_the_eval_input(prompted, split):
    ds, pre, _, cache = prompted
    rows = prompt_inputs(ds, split, pre, cache, 2)
    for u, row in enumerate(rows):
        whole = generate_prompts(pre, u, eval_input(ds, u, split), 2)
        assert (row.items, row.segments) == (whole.items, whole.segments)
    assert [(r.items, r.segments) for r in prompt_inputs(ds, split, pre, rows, 2)] == \
        [(r.items, r.segments) for r in rows]
    if split == "valid":
        assert [(r.items, r.segments) for r in rows] == [(c.items, c.segments) for c in cache]


@pytest.mark.parametrize("split", ["valid", "test"])
@pytest.mark.parametrize("mode", sorted(MODES))
def test_evaluate_with_and_without_a_prompt_cache_agree(prompted, tmp_path, split, mode):
    ds, pre, tuned, cache = prompted
    kwargs = dict(pretrained=pre, tuned=tuned, ks=(5,), m=4, n=1, prompt_k=2,
                  filter_history=True)
    prompts = {"none": None, "cache": cache,
               "split": prompt_inputs(ds, split, pre, cache, 2)}
    reports, dumps = [], []
    for name, given_prompts in prompts.items():
        dump = tmp_path / f"{name}.csv"
        reports.append(evaluate(ds, split, mode, dump_path=dump, prompts=given_prompts,
                                **kwargs))
        dumps.append(dump.read_bytes())
    assert reports[0] == reports[1] == reports[2]
    assert dumps[0] == dumps[1] == dumps[2]


def test_prompt_inputs_refuse_rows_of_other_histories(prompted):
    ds, pre, _, cache = prompted
    with pytest.raises(EvalError, match="user 0"):
        prompt_inputs(ds, "test", pre, cache[1:] + cache[:1], 2)
    with pytest.raises(EvalError, match="prompt rows"):
        prompt_inputs(ds, "test", pre, cache[1:], 2)


# ---------------------------------------------------------------------------
# the one-pass m/n sweep against one evaluate per point
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def swept():
    """Empty, short and past-max_len train prefixes; a tuned model with and
    without duplicated W_l rows, whose tied step-2 scores overlap step 1."""
    seqs = [[], [3], [1, 4, 2, 5, 7, 0, 8], [6, 6], [], [2, 9, 3], [5, 5, 1, 0, 4, 6]]
    ds = make_dataset(seqs, [4, 7, 3, 0, 9, 1, 2], [1, 2, 6, 8, 3, 5, 7], 24)
    pre = tiny_params(n_users=7, n_items=24, seed=31, max_len=4)
    tuned = tiny_params(n_users=7, n_items=24, seed=32, max_len=4)
    for params in (pre, tuned):
        # segment embeddings start at zero; make PROMPT and REAL differ
        params["W_s"].value[...] = np.random.default_rng(33).standard_normal((2, 8))
    tied = tuned.copy()
    w = tied["W_l"].value
    w[1::2] = w[0::2]
    return ds, pre, {False: tuned, True: tied}, generate_prompt_cache(ds, pre, 2)


@pytest.mark.parametrize("ks,grid", [((5,), None), ((5, 10), None),
                                     ((3, 7), [(1, 6), (7, 0), (4, 3), (6, 1)])],
                         ids=["k5", "k10", "custom"])
@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "tied"])
@pytest.mark.parametrize("split", ["valid", "test"])
@pytest.mark.parametrize("filter_history", [False, True])
@pytest.mark.parametrize("K", [0, 2])
def test_sweep_mn_equals_one_evaluate_per_point(swept, K, filter_history, split, ties, ks,
                                                 grid):
    ds, pre, tuned, cache = swept
    kwargs = dict(pretrained=pre, tuned=tuned[ties], ks=ks, prompt_k=K,
                  filter_history=filter_history, prompts=cache if K else None)
    table = sweep_mn(ds, split, grid=grid, **kwargs)
    points = mn_grid(max(ks)) if grid is None else grid
    expected = {}
    for m, n in points:
        report = evaluate(ds, split, "RECGPT", m=m, n=n, **kwargs)
        for key, value in report.metrics.items():
            expected.setdefault(key, []).append(value)
    assert table.points == points
    assert table.values == expected


def test_sweep_mn_ranks_each_step_once_per_user(swept, monkeypatch):
    import recgpt.recall

    ds, pre, tuned, cache = swept
    calls = []

    def counting(logits, k, exclude=None):
        calls.append(k)
        return rank_items(logits, k, exclude=exclude)

    monkeypatch.setattr(recgpt.recall, "rank_items", counting)
    sweep_mn(ds, "valid", pre, tuned[False], ks=(5, 10), prompt_k=2, prompts=cache)
    assert calls == [10] * (2 * 5)     # 5 users with a non-empty valid input


@pytest.mark.parametrize("grid", [[(0, 5)], [(5, 0), (6, -1)], [(4, 2)], [(5, 0), (2, 2)]],
                         ids=["m0", "negative_n", "sum_past_k", "sum_short_of_k"])
def test_sweep_mn_refuses_a_bad_grid_point(swept, grid):
    ds, pre, tuned, cache = swept
    with pytest.raises(EvalError, match="recall split"):
        sweep_mn(ds, "test", pre, tuned[False], grid=grid, ks=(5,))
