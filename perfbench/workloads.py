"""Deterministic synthetic workloads for the pipeline benchmark.

Each workload is a fixed shape (users, items, history-length multiset, model
config) plus a seeded generator for item identities. The seed changes which
items each user touches, never how many: user count, catalog size and every
history length are the same for every seed, so stage cost does not drift
with the seed while the data does.

Histories are walks on a ring of items: from item r the walk moves to r+1,
and with probability ``p_jump`` a step is instead a popular item drawn from a
Zipf law over a seeded ranking. The walk is what makes recall learnable; the
jumps give the popularity skew. Unordered workloads shuffle each history.
Users' walks are laid end to end around the ring, and a repair pass reassigns
slots to any item with fewer than ``kcore_k`` distinct users, so the k-core
filter in ``recgpt preprocess`` keeps every user and every item.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

L2_BYTES_PER_CORE = 2 * 1024 * 1024
FLOAT_BYTES = 4
# recall list length for eval and sweep. The paper's k = 10 gives a six-point
# (m, n) sweep; k = 5 gives three points, which lets every stage be sampled at
# least twice in one run.
TOP_K = 5


@dataclass(frozen=True)
class Shape:
    users: int
    items: int
    min_len: int             # shortest full history (train prefix + valid + test)
    len_scale: float         # full length = min_len + floor(geometric quantile * scale)
    max_full_len: int        # cap on full history length
    p_jump: float            # probability that a step is a popular item
    ordered: bool            # False: a user's items come in random order
    hr_floor_over_chance: float | None   # RECGPT HR@TOP_K floor; None: no floor
    sparse_users: int        # extra users below kcore_k interactions; preprocess drops them
    config: dict = field(default_factory=dict)   # recgpt config keys
    eval_modes: tuple = ()


WORKLOADS = {
    # Amazon Beauty shape: short histories (mean about 9 interactions, far
    # below max_len), a catalog of thousands of items with popularity skew,
    # K = 1. Catalog scoring and ranking dominate inference. The k-core is 3,
    # not Beauty's 5: a 5-core over 2000 items needs about 1400 users, and
    # eval plus sweep over that many users does not fit one benchmark run.
    "beauty": Shape(
        users=720, items=2000, min_len=5, len_scale=4.3, max_full_len=40,
        p_jump=0.1, ordered=True, hr_floor_over_chance=2.5, sparse_users=6000,
        config={"prompt_window": 1, "filter_history": "true", "kcore_k": 3,
                "pretrain_epochs": 5, "tune_epochs": 3, "batch_size": 32},
        eval_modes=("PRETRAIN", "RECGPT1", "RECGPT"),
    ),
    # MovieLens-1M shape: every history at or above max_len, a catalog of a
    # few hundred items, K = 3, history filtering on. Greedy decoding re-runs
    # a full max_len prefix per prompt token and truncation fires constantly.
    # ML-1M users rate many movies per session, so order within a history is
    # close to random. With 48 users and three prompts per real item, RECGPT
    # hits ranged from 1 to 9 across 20 seeds where chance expects 0.6, so a
    # floor well above chance would fail on good code: no floor.
    "long_history": Shape(
        users=48, items=400, min_len=52, len_scale=0.0, max_full_len=60,
        p_jump=0.05, ordered=False, hr_floor_over_chance=None, sparse_users=3000,
        config={"prompt_window": 3, "filter_history": "true",
                "pretrain_epochs": 8, "tune_epochs": 5, "batch_size": 16},
        eval_modes=("RECGPT1", "RECGPT"),
    ),
}

BASE_CONFIG = {
    "kcore_k": 5,
    "d": 64,
    "n_heads": 1,             # one head, as SASRec uses on Beauty and ML-1M
    "n_layers": 1,
    "max_len": 50,
    "lr": 0.01,
    "neg_count": 1,
    "seed": 0,
    "early_stop_patience": 0,
    "recall_m": TOP_K - 1,
    "recall_n": 1,
    "eval_ks": str(TOP_K),
    "eval_split": "test",
    "sweep_axis": "m_n",
}


def recgpt_config(shape: Shape) -> dict:
    """The workload's recgpt config keys, without the file paths."""
    return {**BASE_CONFIG, **shape.config, "eval_modes": ",".join(shape.eval_modes)}


def history_lengths(shape: Shape) -> np.ndarray:
    """The fixed multiset of full history lengths, in ascending order.

    With ``len_scale > 0`` lengths follow geometric quantiles (a long tail
    like real purchase logs); with ``len_scale == 0`` they are spread evenly
    from ``min_len`` to ``max_full_len``.
    """
    q = (np.arange(shape.users) + 0.5) / shape.users
    if shape.len_scale > 0:
        extra = np.floor(-np.log1p(-q) * shape.len_scale)
    else:
        extra = np.floor(q * (shape.max_full_len - shape.min_len + 1))
    return np.minimum(shape.min_len + extra.astype(np.int64), shape.max_full_len)


def generate(shape: Shape, seed: int) -> list[list[int]]:
    """Per-user item sequences over ring positions 0..items-1.

    Walk segments are laid end to end around the ring in a seeded user order,
    so every lap of the ring visits each item once; jump items are extra
    interactions that do not move the walk.
    """
    rng = np.random.default_rng(seed)
    V, U = shape.items, shape.users
    lengths = rng.permutation(history_lengths(shape))
    popular = rng.permutation(V)
    weights = 1.0 / np.arange(1, V + 1)         # Zipf, exponent 1
    weights /= weights.sum()

    sequences = []
    cursor = int(rng.integers(0, V))
    for u in range(U):
        n = int(lengths[u])
        is_jump = rng.random(n) < shape.p_jump
        jumps = popular[rng.choice(V, size=n, p=weights)]
        seq = [cursor]
        for t in range(1, n):
            if is_jump[t]:
                seq.append(int(jumps[t]))
            else:
                cursor = (cursor + 1) % V
                seq.append(cursor)
        cursor = (cursor + 1) % V
        sequences.append(seq if shape.ordered else [seq[i] for i in rng.permutation(n)])
    _repair_kcore(sequences, V, int(recgpt_config(shape)["kcore_k"]), rng)
    return sequences


def sparse_sequences(shape: Shape, seed: int) -> list[list[int]]:
    """Users with 1 to kcore_k - 1 random items, as in a raw log before the
    k-core filter; ``recgpt preprocess`` must read and then drop them all."""
    rng = np.random.default_rng([seed, 1])
    lengths = rng.integers(1, int(recgpt_config(shape)["kcore_k"]), size=shape.sparse_users)
    draws = rng.integers(0, shape.items, size=int(lengths.sum()))
    return [d.tolist() for d in np.split(draws, np.cumsum(lengths)[:-1])]


def _repair_kcore(sequences, n_items, k, rng) -> None:
    """Give every item at least k distinct users by reassigning slots.

    Slots are visited in a seeded order; a slot is taken only when the item it
    held keeps more than k users, so a repair never opens a new deficit.
    Raises if the slots run out, which means the shape is too sparse for the
    k-core rule.
    """
    holders = [set() for _ in range(n_items)]
    for u, seq in enumerate(sequences):
        for v in seq:
            holders[v].add(u)
    slots = [(u, t) for u, seq in enumerate(sequences) for t in range(1, len(seq))]
    order = rng.permutation(len(slots))
    cursor = 0
    for v in range(n_items):
        while len(holders[v]) < k:
            while True:
                if cursor >= len(order):
                    raise ValueError(f"cannot give item {v} {k} users: shape too sparse")
                u, t = slots[order[cursor]]
                cursor += 1
                old = sequences[u][t]
                if u not in holders[v] and len(holders[old]) > k:
                    break
            sequences[u][t] = v
            holders[v].add(u)
            if old not in sequences[u]:
                holders[old].discard(u)


def write_workload(name: str, seed: int, directory: Path) -> tuple[Path, dict]:
    """Write ``interactions.tsv`` and ``run.cfg`` into ``directory``.

    Returns the config path and the workload's shape report.
    """
    shape = WORKLOADS[name]
    directory.mkdir(parents=True, exist_ok=True)
    sequences = generate(shape, seed)
    width = len(str(shape.items))
    tsv = directory / "interactions.tsv"
    lines = []
    for prefix, seqs in (("u", sequences), ("s", sparse_sequences(shape, seed))):
        for u, seq in enumerate(seqs):
            for t, v in enumerate(seq):
                lines.append(f"{prefix}{u:05d}\ti{v:0{width}d}\t{1_000_000 + 100 * t}\n")
    tsv.write_text("".join(lines), encoding="utf-8")

    config = {**recgpt_config(shape), "data_path": str(tsv), "out_dir": str(directory / "runs")}
    cfg_path = directory / "run.cfg"
    cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in config.items()), encoding="utf-8")
    return cfg_path, shape_report(shape, sequences, config)


def shape_report(shape: Shape, sequences, config: dict) -> dict:
    """Users, items, density, history lengths and truncation shares."""
    lengths = np.asarray([len(s) for s in sequences])
    prefix = lengths - 2                                 # train prefix
    max_len = int(config["max_len"])
    K = int(config["prompt_window"])
    # prompt-enhanced test input: prefix + valid real items, K prompts between
    enhanced = (prefix + 1) + K * prefix
    users_per_item = np.zeros(shape.items, dtype=np.int64)
    for seq in sequences:
        for v in set(seq):
            users_per_item[v] += 1
    table_bytes = shape.items * int(config["d"]) * FLOAT_BYTES
    return {
        "users": shape.users,
        "items": shape.items,
        "interactions": int(lengths.sum()),
        "sparse_users_dropped_by_preprocess": shape.sparse_users,
        "interactions_per_item": float(lengths.sum() / shape.items),
        "min_users_per_item": int(users_per_item.min()),
        "mean_history": float(lengths.mean()),
        "max_history": int(lengths.max()),
        "share_users_truncated": float(np.mean(prefix > max_len)),
        "share_prompt_inputs_truncated": float(np.mean(enhanced > max_len)),
        "item_table_bytes": table_bytes,
        "item_table_over_l2": float(table_bytes / L2_BYTES_PER_CORE),
        "chance_hr": TOP_K / shape.items,
        "prompt_window": K,
        # greedy prompts for the train prefixes: K before each real item but the first
        "prompt_tokens": int(K * np.maximum(prefix - 1, 0).sum()),
    }

