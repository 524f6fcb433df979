"""Interaction ingestion, 5-core filtering, leave-one-out splits, and batching."""
from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np


class DataError(RuntimeError):
    """Malformed input file or invalid preprocessing request."""


@dataclass(frozen=True)
class Interaction:
    user_id: str
    item_id: str
    timestamp: int


@dataclass
class Catalog:
    """Bijective maps between external string ids and dense integer indices."""

    users: list[str]
    items: list[str]
    user_to_index: dict[str, int] = field(default_factory=dict)
    item_to_index: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.user_to_index:
            self.user_to_index = {u: i for i, u in enumerate(self.users)}
        if not self.item_to_index:
            self.item_to_index = {v: i for i, v in enumerate(self.items)}

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_items(self) -> int:
        return len(self.items)


@dataclass
class SplitDataset:
    """Per-user chronological train prefixes with leave-one-out targets.

    sequences[u] is the train prefix; valid_target[u] is the second-to-last
    interaction and test_target[u] the last one.
    """

    sequences: list[list[int]]
    valid_target: np.ndarray
    test_target: np.ndarray
    catalog: Catalog
    max_len: int = 50

    @property
    def n_users(self) -> int:
        return len(self.sequences)

    def full_sequence(self, user: int) -> list[int]:
        return self.sequences[user] + [int(self.valid_target[user]), int(self.test_target[user])]

    def stats(self) -> dict:
        n_users = self.n_users
        n_items = self.catalog.n_items
        actions = sum(len(s) for s in self.sequences) + 2 * n_users
        avg_len = actions / n_users if n_users else 0.0
        sparsity = 1.0 - actions / (n_users * n_items) if n_users and n_items else 0.0
        return {
            "users": n_users,
            "items": n_items,
            "actions": actions,
            "avg_length": avg_len,
            "sparsity": sparsity,
        }


@dataclass
class Batch:
    """Padded per-user training rows; padding columns are excluded via lengths."""

    user_ids: np.ndarray          # (B,)
    items: np.ndarray             # (B, L) padded with 0
    segments: np.ndarray          # (B, L)
    lengths: np.ndarray           # (B,) true row lengths
    targets: np.ndarray           # (B, L) next-item ids, valid for t < length-1
    negatives: np.ndarray         # (B, L, neg_count)


def ingest_tsv(path) -> list[Interaction]:
    """Parse `user<TAB>item<TAB>timestamp` lines; reject wrong arity with line numbers."""
    records = []
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataError(f"{path}: line {lineno}: expected 3 tab-separated fields, got {len(parts)}")
            user, item, ts = parts
            try:
                ts_val = int(ts)
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: bad timestamp {ts!r}") from exc
            if ts_val < 0:
                raise DataError(f"{path}: line {lineno}: negative timestamp")
            records.append(Interaction(user, item, ts_val))
    return records


def kcore_filter(interactions: list[Interaction], k: int = 5) -> list[Interaction]:
    """Iterate to fixpoint: users need >= k interactions, items >= k distinct users."""
    if k < 1:
        raise DataError("k-core requires k >= 1")
    current = list(interactions)
    while True:
        user_counts = Counter(r.user_id for r in current)
        item_users = defaultdict(set)
        for r in current:
            item_users[r.item_id].add(r.user_id)
        bad_users = {u for u, c in user_counts.items() if c < k}
        bad_items = {v for v, us in item_users.items() if len(us) < k}
        if not bad_users and not bad_items:
            return current
        current = [r for r in current if r.user_id not in bad_users and r.item_id not in bad_items]


def build_splits(
    interactions: list[Interaction],
    min_ts: int | None = None,
    max_len: int = 50,
) -> SplitDataset:
    """Chronological per-user split: last item -> test, second-to-last -> valid.

    Ties in timestamp are broken by input order (stable sort), so the result
    is a deterministic function of the input record list. Users left with
    fewer than 3 interactions are dropped.
    """
    if min_ts is not None:
        interactions = [r for r in interactions if r.timestamp >= min_ts]
    per_user: dict[str, list[tuple[int, int, str]]] = defaultdict(list)
    for idx, r in enumerate(interactions):
        per_user[r.user_id].append((r.timestamp, idx, r.item_id))

    kept_users = sorted(u for u, recs in per_user.items() if len(recs) >= 3)
    item_ids = sorted({item for u in kept_users for _, _, item in per_user[u]})
    catalog = Catalog(users=kept_users, items=item_ids)

    sequences = []
    valid_target = np.zeros(len(kept_users), dtype=np.int64)
    test_target = np.zeros(len(kept_users), dtype=np.int64)
    for ui, u in enumerate(kept_users):
        ordered = sorted(per_user[u], key=lambda t: (t[0], t[1]))
        seq = [catalog.item_to_index[item] for _, _, item in ordered]
        sequences.append(seq[:-2])
        valid_target[ui] = seq[-2]
        test_target[ui] = seq[-1]
    return SplitDataset(sequences, valid_target, test_target, catalog, max_len=max_len)


def sample_negatives(seq_items, vocab_size: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draws over items absent from the user's full sequence."""
    excluded = set(int(i) for i in seq_items)
    if vocab_size <= len(excluded):
        raise DataError("negative sampling: vocabulary exhausted by the user's sequence")
    out = np.empty(count, dtype=np.int64)
    for i in range(count):
        while True:
            cand = int(rng.integers(0, vocab_size))
            if cand not in excluded:
                out[i] = cand
                break
    return out


def truncate_last(items, segments, max_len: int):
    """Keep the final max_len (item, segment) pairs, order preserved."""
    if max_len < 1:
        raise DataError("truncate_last requires max_len >= 1")
    if len(items) != len(segments):
        raise DataError("items and segments must be aligned")
    return list(items[-max_len:]), list(segments[-max_len:])


def iter_batches(
    dataset: SplitDataset,
    batch_size: int,
    neg_count: int,
    rng: np.random.Generator,
):
    """Yield padded pretraining batches in rng-shuffled user order.

    Targets at row position t are the next item in the train prefix; negatives
    are drawn outside the user's full (train+valid+test) sequence.
    """
    order = rng.permutation(dataset.n_users)
    max_len = dataset.max_len
    vocab = dataset.catalog.n_items
    for start in range(0, len(order), batch_size):
        users = order[start:start + batch_size]
        rows = []
        for u in users:
            seq = dataset.sequences[u][-max_len:]
            rows.append((int(u), seq))
        L = max(len(seq) for _, seq in rows)
        B = len(rows)
        items = np.zeros((B, L), dtype=np.int64)
        segments = np.zeros((B, L), dtype=np.int64)
        lengths = np.zeros(B, dtype=np.int64)
        targets = np.zeros((B, L), dtype=np.int64)
        negatives = np.zeros((B, L, neg_count), dtype=np.int64)
        for i, (u, seq) in enumerate(rows):
            n = len(seq)
            lengths[i] = n
            items[i, :n] = seq
            full = dataset.full_sequence(u)
            for t in range(n - 1):
                targets[i, t] = seq[t + 1]
                negatives[i, t] = sample_negatives(full, vocab, neg_count, rng)
        yield Batch(
            user_ids=np.asarray([u for u, _ in rows], dtype=np.int64),
            items=items,
            segments=segments,
            lengths=lengths,
            targets=targets,
            negatives=negatives,
        )
