"""Preprocessing: ingestion, k-core filtering, leave-one-out splits, batching."""
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from recgpt.data import (
    DataError,
    Interaction,
    build_splits,
    ingest_tsv,
    iter_batches,
    kcore_filter,
    sample_negatives,
    truncate_last,
)

from recgpt.model import REAL
from recgpt.training import pretrain_row

from conftest import tiny_dataset


def write_tsv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write("\t".join(str(x) for x in row) + "\n")
    return path


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def test_ingest_basic(tmp_path):
    path = write_tsv(tmp_path / "a.tsv", [("u1", "i9", 100)])
    assert ingest_tsv(path) == [Interaction("u1", "i9", 100)]


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("")
    assert ingest_tsv(path) == []


def test_ingest_wrong_arity_names_line(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("u1\ti9\n")
    with pytest.raises(DataError, match="line 1"):
        ingest_tsv(path)


def test_ingest_bad_timestamp(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("u1\ti9\tnope\n")
    with pytest.raises(DataError, match="line 1"):
        ingest_tsv(path)
    path.write_text("u1\ti9\t-5\n")
    with pytest.raises(DataError, match="negative"):
        ingest_tsv(path)


def test_ingest_missing_file(tmp_path):
    with pytest.raises(DataError):
        ingest_tsv(tmp_path / "missing.tsv")


# ---------------------------------------------------------------------------
# k-core
# ---------------------------------------------------------------------------

def kcore_oracle(records, k):
    """Remove one violator at a time until stable. The k-core is unique, so
    any removal order reaches the same fixpoint as the batch implementation."""
    current = list(records)
    changed = True
    while changed:
        changed = False
        user_counts = Counter(r.user_id for r in current)
        item_users = defaultdict(set)
        for r in current:
            item_users[r.item_id].add(r.user_id)
        for u, c in user_counts.items():
            if c < k:
                current = [r for r in current if r.user_id != u]
                changed = True
                break
        else:
            for v, us in item_users.items():
                if len(us) < k:
                    current = [r for r in current if r.item_id != v]
                    changed = True
                    break
    return current


def test_kcore_already_satisfying_unchanged():
    records = [Interaction(f"u{u}", f"i{v}", 10 * u + v)
               for u in range(5) for v in range(5)]
    assert kcore_filter(records, k=5) == records


def test_kcore_single_small_user_removed():
    records = [Interaction("u1", f"i{v}", v) for v in range(4)]
    assert kcore_filter(records, k=5) == []


def test_kcore_cascade_matches_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(5, 21))
        records = [
            Interaction(f"u{int(rng.integers(0, 5))}", f"i{int(rng.integers(0, 5))}", t)
            for t in range(n)
        ]
        for k in (2, 3):
            got = kcore_filter(records, k=k)
            expected = kcore_oracle(records, k=k)
            assert sorted(map(repr, got)) == sorted(map(repr, expected))


def test_kcore_is_fixpoint():
    rng = np.random.default_rng(8)
    for _ in range(20):
        records = [
            Interaction(f"u{int(rng.integers(0, 6))}", f"i{int(rng.integers(0, 6))}", t)
            for t in range(int(rng.integers(10, 40)))
        ]
        once = kcore_filter(records, k=3)
        assert kcore_filter(once, k=3) == once


def test_kcore_rejects_bad_k():
    with pytest.raises(DataError):
        kcore_filter([], k=0)


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

def test_build_splits_leave_one_out():
    records = [Interaction("u1", item, ts)
               for ts, item in enumerate(["A", "B", "C", "D", "E"])]
    ds = build_splits(records)
    idx = ds.catalog.item_to_index
    assert ds.sequences[0] == [idx["A"], idx["B"], idx["C"]]
    assert int(ds.valid_target[0]) == idx["D"]
    assert int(ds.test_target[0]) == idx["E"]


def test_build_splits_drops_short_users():
    records = [Interaction("u1", "A", 0), Interaction("u1", "B", 1)]
    ds = build_splits(records)
    assert ds.n_users == 0


def test_build_splits_tie_break_is_input_order():
    records = [Interaction("u1", item, 100) for item in ["C", "A", "B", "E", "D"]]
    ds = build_splits(records)
    idx = ds.catalog.item_to_index
    assert ds.sequences[0] == [idx["C"], idx["A"], idx["B"]]
    assert int(ds.valid_target[0]) == idx["E"]
    assert int(ds.test_target[0]) == idx["D"]


def test_build_splits_deterministic():
    rng = np.random.default_rng(11)
    records = [
        Interaction(f"u{int(rng.integers(0, 4))}", f"i{int(rng.integers(0, 6))}",
                    int(rng.integers(0, 50)))
        for _ in range(40)
    ]
    a = build_splits(records)
    b = build_splits(records)
    assert a.sequences == b.sequences
    assert np.array_equal(a.valid_target, b.valid_target)
    assert np.array_equal(a.test_target, b.test_target)
    assert a.catalog.users == b.catalog.users
    assert a.catalog.items == b.catalog.items


def test_catalog_dense_and_bijective():
    records = [Interaction("u1", item, ts)
               for ts, item in enumerate(["A", "B", "C", "D", "E"])]
    ds = build_splits(records)
    assert sorted(ds.catalog.item_to_index.values()) == list(range(ds.catalog.n_items))
    for name, i in ds.catalog.item_to_index.items():
        assert ds.catalog.items[i] == name


# ---------------------------------------------------------------------------
# negatives / truncation
# ---------------------------------------------------------------------------

def test_sample_negatives_forced_choice(rng):
    out = sample_negatives([0], 2, 1, rng)
    assert out.tolist() == [1]


def test_sample_negatives_never_in_sequence(rng):
    for _ in range(100):
        vocab = int(rng.integers(4, 30))
        seq = rng.integers(0, vocab, size=int(rng.integers(1, vocab - 1))).tolist()
        out = sample_negatives(seq, vocab, 5, rng)
        assert not (set(out.tolist()) & set(seq))


def test_sample_negatives_uniform_chi_square():
    rng = np.random.default_rng(42)
    vocab, excluded = 20, [0, 1, 2, 3, 4]
    draws = sample_negatives(excluded, vocab, 100_000, rng)
    counts = Counter(draws.tolist())
    eligible = vocab - len(excluded)
    expected = len(draws) / eligible
    chi2 = sum((counts.get(i, 0) - expected) ** 2 / expected
               for i in range(5, vocab))
    # df = 14: mean 14, sd sqrt(28); 3 sigma above the mean is ~29.9
    assert chi2 < 30.0


def test_sample_negatives_vocab_exhausted(rng):
    with pytest.raises(DataError):
        sample_negatives([0, 1], 2, 1, rng)


def rejection_loop(seq_items, vocab_size, count, rng):
    """sample_negatives' draws for in-range ids, written out: redraw until
    the candidate is outside the sequence."""
    excluded = set(int(i) for i in seq_items)
    out = np.empty(count, dtype=np.int64)
    for i in range(count):
        while True:
            cand = int(rng.integers(0, vocab_size))
            if cand not in excluded:
                out[i] = cand
                break
    return out


@st.composite
def _nearly_full_history(draw):
    vocab = draw(st.integers(1, 12))
    order = draw(st.permutations(range(vocab)))
    j = draw(st.integers(1, vocab))
    held = order[j:]
    history = draw(st.lists(st.sampled_from(held), max_size=2 * len(held))) if held else []
    return vocab, set(order[:j]), draw(st.permutations(held + history))


@given(case=_nearly_full_history(), count=st.integers(1, 30), seed=st.integers(0, 2**32 - 1),
       outside=st.lists(st.sampled_from([-3, -1, 12, 40]), max_size=3))
def test_sample_negatives_draws_only_the_items_left(case, count, seed, outside):
    vocab, free, history = case
    out = sample_negatives(history + outside, vocab, count, np.random.default_rng(seed))
    assert set(out.tolist()) <= free
    # ids outside the catalog change neither the exhaustion check nor the stream
    assert out.tolist() == rejection_loop(history, vocab, count,
                                          np.random.default_rng(seed)).tolist()


def test_sample_negatives_ignores_ids_outside_the_catalog(rng):
    assert sample_negatives([0, 1, 9], 3, 1, rng).tolist() == [2]
    with pytest.raises(DataError):
        sample_negatives([0, 1, 2, 9], 3, 1, rng)


def test_truncate_last():
    items = list(range(60))
    segs = [i % 2 for i in range(60)]
    out_items, out_segs = truncate_last(items, segs, 50)
    assert out_items == items[-50:]
    assert out_segs == segs[-50:]
    short_items, short_segs = truncate_last([1, 2, 3], [0, 0, 0], 50)
    assert short_items == [1, 2, 3] and short_segs == [0, 0, 0]


def test_truncate_last_keeps_pairs_aligned(rng):
    for _ in range(50):
        n = int(rng.integers(1, 40))
        limit = int(rng.integers(1, 45))
        items = rng.integers(0, 100, size=n).tolist()
        segs = rng.integers(0, 2, size=n).tolist()
        out_items, out_segs = truncate_last(items, segs, limit)
        pairs = list(zip(items, segs))[-limit:]
        assert list(zip(out_items, out_segs)) == pairs


# ---------------------------------------------------------------------------
# stats / batches
# ---------------------------------------------------------------------------

def test_stats_match_direct_count_oracle():
    ds = tiny_dataset(n_users=5, n_items=9, length=7, seed=3)
    stats = ds.stats()
    actions = sum(len(ds.full_sequence(u)) for u in range(ds.n_users))
    assert stats["users"] == 5
    assert stats["items"] == 9
    assert stats["actions"] == actions
    assert stats["avg_length"] == actions / 5
    assert stats["sparsity"] == 1.0 - actions / (5 * 9)


def test_iter_batches_contract():
    # max_len below the train-prefix length, so rows are truncated
    ds = tiny_dataset(n_users=7, n_items=10, length=6, seed=4)
    rng = np.random.default_rng(0)
    seen_users = []
    for rows in iter_batches(ds.n_users, 3, rng, lambda u: pretrain_row(ds, u, 3, 2, rng)):
        assert len(rows) <= 3
        for u, items, segments, targets in rows:
            seen_users.append(u)
            assert items == ds.sequences[u][-3:]
            assert segments == [REAL] * len(items)
            full = set(ds.full_sequence(u))
            assert [t for t, _, _ in targets] == list(range(len(items) - 1))
            for t, target, negatives in targets:
                assert target == items[t + 1]
                assert len(negatives) == 2
                assert not (set(negatives.tolist()) & full)
    assert sorted(seen_users) == list(range(7))
