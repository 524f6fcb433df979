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
    item_to_index: dict[str, int] = field(init=False)

    def __post_init__(self):
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


def build_splits(interactions: list[Interaction]) -> SplitDataset:
    """Chronological per-user split: last item -> test, second-to-last -> valid.

    Ties in timestamp are broken by input order (stable sort), so the result
    is a deterministic function of the input record list. Users left with
    fewer than 3 interactions are dropped.
    """
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
    return SplitDataset(sequences, valid_target, test_target, catalog)


def sample_negatives(seq_items, vocab_size: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draws over items absent from the user's full sequence; ids
    outside [0, vocab_size) are never drawn, so they exclude nothing."""
    excluded = {i for i in map(int, seq_items) if 0 <= i < vocab_size}
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


def iter_batches(n_users: int, batch_size: int, rng: np.random.Generator, row):
    """Yield lists of row(u), batch_size users at a time, in rng-shuffled user
    order; each training stage supplies its own row function."""
    order = rng.permutation(n_users)
    for start in range(0, n_users, batch_size):
        yield [row(int(u)) for u in order[start:start + batch_size]]
