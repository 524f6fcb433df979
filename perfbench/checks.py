"""Output checks that run outside the timed stages.

The ranking oracle re-implements greedy prompts, one-step and two-step recall
with its own ranking rule, a stable full sort by descending logit then
ascending item index, and only borrows ``forward`` for hidden states. Its
lists are compared with the per-user recall lists that ``recgpt eval --dump``
wrote.
"""
from __future__ import annotations

import csv
import hashlib

import numpy as np

REAL, PROMPT = 0, 1


def oracle_top(logits, k: int, exclude=()) -> list[int]:
    """Top-k indices: descending logit, ties by ascending index, minus exclude."""
    excluded = set(exclude)
    order = sorted(range(len(logits)), key=lambda i: (-float(logits[i]), i))
    return [i for i in order if i not in excluded][:k]


def _last_hidden(forward, params, user, items, segments, max_len):
    h, _ = forward(params, user, items[-max_len:], segments[-max_len:])
    return h[-1]


def oracle_prompts(forward, params, user, seq, K, max_len):
    """Greedy prompts: K argmax items from the output layer before each real
    item after the first; ``np.argmax`` returns the lowest index on ties."""
    items, segments = [int(seq[0])], [REAL]
    for v in seq[1:]:
        for _ in range(K):
            h = _last_hidden(forward, params, user, items, segments, max_len)
            items.append(int(np.argmax(params["W_l"].value @ h)))
            segments.append(PROMPT)
        items.append(int(v))
        segments.append(REAL)
    return items, segments


def oracle_lists(forward, dataset, user, modes, pretrained, tuned, K, m, n, k,
                 filter_history, max_len) -> dict[str, list[int]]:
    """Ranked test-split lists for one user in each requested mode."""
    seq = list(dataset.sequences[user]) + [int(dataset.valid_target[user])]
    out = {}
    if "PRETRAIN" in modes:
        h = _last_hidden(forward, pretrained, user, seq, [REAL] * len(seq), max_len)
        exclude = seq if filter_history else ()
        out["PRETRAIN"] = oracle_top(pretrained["W_e"].value @ h, k, exclude)
    if "RECGPT1" in modes or "RECGPT" in modes:
        if K > 0:
            items, segments = oracle_prompts(forward, pretrained, user, seq, K, max_len)
        else:
            items, segments = seq, [REAL] * len(seq)
        real = [v for v, s in zip(items, segments) if s == REAL] if filter_history else []
        h = _last_hidden(forward, tuned, user, items, segments, max_len)
        logits = tuned["W_l"].value @ h
        if "RECGPT1" in modes:
            out["RECGPT1"] = oracle_top(logits, k, real)
        if "RECGPT" in modes:
            step1 = oracle_top(logits, m, real)
            h2 = _last_hidden(forward, tuned, user, items + [step1[0]],
                              segments + [PROMPT], max_len)
            fill = oracle_top(tuned["W_l"].value @ h2, n, set(step1) | set(real))
            out["RECGPT"] = step1 + fill
    return out


def read_dump(path, catalog, users: set[str]) -> dict[str, list[int]]:
    """Ranked item indices per external user id from a recall dump CSV."""
    lists: dict[str, list[tuple[int, int]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if row["user_id"] in users:
                lists.setdefault(row["user_id"], []).append(
                    (int(row["rank"]), catalog.item_to_index[row["item_id"]]))
    return {u: [item for _, item in sorted(ranked)] for u, ranked in lists.items()}


def read_eval_csv(path) -> dict[tuple[str, str, int], str]:
    """(mode, metric, k) -> value text, exactly as written."""
    with open(path, newline="", encoding="utf-8") as fh:
        return {(r["mode"], r["metric"], int(r["k"])): r["value"] for r in csv.DictReader(fh)}


def read_sweep_row(path, label: str) -> dict[tuple[str, int], str]:
    """(metric, k) -> value text for one grid point of a sweep CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if row["point"] == label:
                out = {}
                for key, value in row.items():
                    if key != "point":
                        metric, k = key.split("@")
                        out[(metric, int(k))] = value
                return out
    raise KeyError(f"{path}: no sweep point {label}")


def file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
