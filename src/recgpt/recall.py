"""Inference: one-step inner-product recall and two-step autoregressive recall,
batched over rows of equal truncated length."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import truncate_last
from .model import PROMPT, REAL, ModelParams, forward, last_hidden, rank_items, score_items

STEP1 = "STEP1"
STEP2 = "STEP2"


@dataclass
class RecallResult:
    user: int
    items: np.ndarray        # ranked ids, length k, no duplicates
    scores: np.ndarray       # logit per ranked item
    provenance: list[str]    # STEP1 or STEP2 per item


# positions per stacked forward: one call's activations stay near L2-sized at
# d = 64, and whole buckets of long rows would raise peak memory
CHUNK_POSITIONS = 512


def real_items(seq, segments) -> set[int]:
    return {int(v) for v, s in zip(seq, segments) if s == REAL}


def _tagged(seq, segments) -> tuple[list, list]:
    """The sequence and its segments as lists; all REAL when none are given."""
    seq = list(seq)
    return seq, [REAL] * len(seq) if segments is None else list(segments)


def final_hidden(params: ModelParams, users, rows) -> np.ndarray:
    """Hidden state at the last position of each row's final max_len items,
    (len(rows), d) in input order; rows are (items, segments) pairs.

    Rows of equal truncated length run together through model.last_hidden,
    at most CHUNK_POSITIONS positions per call, so row b is bit-identical to
    forward(params, users[b], *truncated rows[b])[0][-1]. A lone row runs
    that per-user forward: last_hidden needs two rows or more."""
    cut = [truncate_last(list(items), list(segments), params.hyper.max_len)
           for items, segments in rows]
    by_len: dict[int, list[int]] = {}
    for i, (items, _) in enumerate(cut):
        if not items:
            raise ValueError(f"row {i}: no hidden state for an empty sequence")
        by_len.setdefault(len(items), []).append(i)
    out = np.empty((len(rows), params.hyper.d), dtype=params.dtype)
    for L, idx in by_len.items():
        n_calls = -(-len(idx) // max(1, CHUNK_POSITIONS // L))
        for chunk in np.array_split(np.asarray(idx), n_calls):
            if len(chunk) == 1:
                out[chunk] = forward(params, users[chunk[0]], *cut[chunk[0]])[0][-1]
            else:
                out[chunk] = last_hidden(params, [users[i] for i in chunk],
                                         [cut[i][0] for i in chunk], [cut[i][1] for i in chunk])
    return out


def greedy_steps(params: ModelParams, users, rows, scorer: str) -> tuple[np.ndarray, list[int]]:
    """One greedy decoding step per row: the final hidden states and each
    row's top-scoring item. np.argmax takes the lowest index among tied
    maxima, the same item as rank_items(logits, 1)[0]."""
    hidden = final_hidden(params, users, rows)
    return hidden, [int(np.argmax(score_items(params, h, scorer))) for h in hidden]


def _step(params: ModelParams, users, rows, chosen: list[RecallResult], k: int, scorer: str,
          filter_history: bool, tag: str) -> list[RecallResult]:
    """One recall step: chosen[b], row b's result so far (empty at step 1),
    grown by the top-k by logit from the row's final hidden state, skipping
    the items it holds and, with filter_history, the row's real items."""
    out = []
    for (seq, segments), res, h in zip(rows, chosen, final_hidden(params, users, rows)):
        logits = score_items(params, h, scorer)
        exclude = {int(i) for i in res.items}
        # history filtering excludes real interactions only, never prompt items
        if filter_history:
            exclude |= real_items(seq, segments)
        top = rank_items(logits, k, exclude=exclude)
        out.append(RecallResult(res.user, np.concatenate([res.items, top]),
                                np.concatenate([res.scores, logits[top]]),
                                res.provenance + [tag] * len(top)))
    return out


def _grown(rows, step1: list[RecallResult]) -> list[tuple[list, list]]:
    """Each row with its step-1 argmax appended as a PROMPT; a row whose
    step 1 ranked nothing (every item excluded) is refused."""
    for i, res in enumerate(step1):
        if not len(res.items):
            raise ValueError(f"row {i}: step 1 ranked no item to append for step 2")
    return [(seq + [int(res.items[0])], segments + [PROMPT])
            for (seq, segments), res in zip(rows, step1)]


def _second_step(params: ModelParams, users, rows, step1: list[RecallResult], n: int,
                 scorer: str, filter_history: bool) -> list[RecallResult]:
    """Append each row's step-1 argmax as a PROMPT, re-run, and fill n more
    slots from the second ranking, skipping items already selected."""
    return _step(params, users, _grown(rows, step1), step1, n, scorer, filter_history, STEP2)


def recall_rows(params: ModelParams, users, rows, m: int, n: int, scorer: str,
                filter_history: bool = False) -> list[RecallResult]:
    """Two-step recall for every (items, segments) row, one-step when n = 0;
    result b equals recall_two_step(params, users[b], *rows[b], m, n, ...)."""
    rows = [_tagged(seq, segments) for seq, segments in rows]
    if m < 1 or n < 0:
        raise ValueError("recall requires m >= 1 and n >= 0")
    if not all(seq for seq, _ in rows):
        raise ValueError("recall requires a non-empty sequence")
    empty = [RecallResult(u, np.zeros(0, np.intp), np.zeros(0, params.dtype), []) for u in users]
    step1 = _step(params, users, rows, empty, m, scorer, filter_history, STEP1)
    return step1 if n == 0 else _second_step(params, users, rows, step1, n, scorer,
                                             filter_history)


def _merged(step1: RecallResult, step2: RecallResult, m: int, n: int) -> RecallResult:
    """step1's first m items, then the first n of step2's not among them."""
    head = set(step1.items[:m].tolist())
    fill = [i for i, item in enumerate(step2.items.tolist()) if item not in head][:n]
    return RecallResult(step1.user, np.concatenate([step1.items[:m], step2.items[fill]]),
                        np.concatenate([step1.scores[:m], step2.scores[fill]]),
                        step1.provenance[:m] + [STEP2] * len(fill))


def recall_grid(params: ModelParams, users, rows, grid, scorer: str,
                filter_history: bool = False) -> list[list[RecallResult]]:
    """recall_rows(params, users, rows, m, n, ...) for every (m, n) of a grid
    whose points all have m + n = k, from two rankings per row.

    Step 1 ranks the top k once; its first m items are point (m, n)'s step 1.
    Every point with n > 0 appends the same step-1 argmax, so step 2 runs
    once, excluding only the real items under filter_history, and ranks its
    top k: point (m, n) fills its n slots with the first of them not among
    its m step-1 items. At most m of step 2's top k are, so k is enough."""
    if not grid:
        return []
    k = sum(grid[0])
    if any(m < 1 or n < 0 or m + n != k for m, n in grid):
        raise ValueError(f"recall grid points need m >= 1, n >= 0 and m + n = {k}")
    rows = [_tagged(seq, segments) for seq, segments in rows]
    step1 = recall_rows(params, users, rows, k, 0, scorer, filter_history)
    step2 = step1
    if any(n for _, n in grid):
        # the PROMPT appended is no real item, so filter_history excludes the
        # row's real items only; _merged tags the fill STEP2
        step2 = recall_rows(params, users, _grown(rows, step1), k, 0, scorer, filter_history)
    return [[_merged(a, b, m, n) for a, b in zip(step1, step2)] for m, n in grid]


def recall_one_step(params: ModelParams, user: int, seq, k: int, scorer: str,
                    segments=None, filter_history: bool = False) -> RecallResult:
    """Score the whole catalog from the final hidden state; top-k by logit,
    ties broken by ascending item index."""
    [res] = recall_rows(params, [user], [(seq, segments)], k, 0, scorer, filter_history)
    return res


def recall_two_step(params: ModelParams, user: int, seq, m: int, n: int, scorer: str,
                    segments=None, filter_history: bool = False) -> RecallResult:
    """Step A: top-m from the current hidden state; step B: append the step-A
    argmax (tagged PROMPT), re-run, and fill the remaining n slots from the
    second ranking, skipping items already selected."""
    if n < 0:
        raise ValueError("recall requires m >= 1 and n >= 0")
    step1 = recall_one_step(params, user, seq, m, scorer, segments=segments,
                            filter_history=filter_history)
    if n == 0:
        return step1
    return _second_step(params, [user], [_tagged(seq, segments)], [step1], n, scorer,
                        filter_history)[0]


def dump_recall_csv(path, results: list[RecallResult], catalog=None) -> None:
    """One line per (user, rank): user_id, rank, item_id, score, provenance."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("user_id,rank,item_id,score,provenance\n")
        for res in results:
            uid = catalog.users[res.user] if catalog else res.user
            for rank, (item, score, prov) in enumerate(
                    zip(res.items, res.scores, res.provenance), start=1):
                iid = catalog.items[int(item)] if catalog else int(item)
                fh.write(f"{uid},{rank},{iid},{float(score)!r},{prov}\n")
