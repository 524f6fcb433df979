"""Inference: one-step inner-product recall and two-step autoregressive recall."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import truncate_last
from .model import PROMPT, REAL, ModelParams, forward, rank_items, score_items

STEP1 = "STEP1"
STEP2 = "STEP2"


@dataclass
class RecallResult:
    user: int
    items: np.ndarray        # ranked ids, length k, no duplicates
    scores: np.ndarray       # logit per ranked item
    provenance: list[str]    # STEP1 or STEP2 per item


def _real_items(seq, segments) -> set[int]:
    return {int(v) for v, s in zip(seq, segments) if s == REAL}


def _tagged(seq, segments) -> tuple[list, list]:
    """The sequence and its segments as lists; all REAL when none are given."""
    seq = list(seq)
    return seq, [REAL] * len(seq) if segments is None else list(segments)


def _final_hidden(params: ModelParams, user: int, items, segments) -> np.ndarray:
    """Hidden state at the last position of the final max_len items."""
    items, segments = truncate_last(list(items), list(segments), params.hyper.max_len)
    h, _ = forward(params, user, items, segments)
    return h[-1]


def greedy_step(params: ModelParams, user: int, items, segments, scorer: str
                ) -> tuple[np.ndarray, int]:
    """One greedy decoding step: the final hidden state and the top-scoring
    item. np.argmax takes the lowest index among tied maxima, the same item
    as rank_items(logits, 1)[0]."""
    h = _final_hidden(params, user, items, segments)
    return h, int(np.argmax(score_items(params, h, scorer)))


def recall_one_step(params: ModelParams, user: int, seq, k: int, scorer: str,
                    segments=None, filter_history: bool = False) -> RecallResult:
    """Score the whole catalog from the final hidden state; top-k by logit,
    ties broken by ascending item index."""
    seq, segments = _tagged(seq, segments)
    if not seq:
        raise ValueError("recall requires a non-empty sequence")
    h = _final_hidden(params, user, seq, segments)
    logits = score_items(params, h, scorer)
    # history filtering excludes real interactions only, never prompt items
    exclude = _real_items(seq, segments) if filter_history else None
    top = rank_items(logits, k, exclude=exclude)
    return RecallResult(user, top, logits[top], [STEP1] * len(top))


def recall_two_step(params: ModelParams, user: int, seq, m: int, n: int, scorer: str,
                    segments=None, filter_history: bool = False) -> RecallResult:
    """Step A: top-m from the current hidden state; step B: append the step-A
    argmax (tagged PROMPT), re-run, and fill the remaining n slots from the
    second ranking, skipping items already selected."""
    if m < 1 or n < 0:
        raise ValueError("recall_two_step requires m >= 1 and n >= 0")
    step1 = recall_one_step(params, user, seq, m, scorer,
                            segments=segments, filter_history=filter_history)
    if n == 0:
        return step1
    seq, segments = _tagged(seq, segments)
    h2 = _final_hidden(params, user, seq + [int(step1.items[0])], segments + [PROMPT])
    logits2 = score_items(params, h2, scorer)
    chosen = set(int(i) for i in step1.items)
    exclude = chosen | (_real_items(seq, segments) if filter_history else set())
    fill = rank_items(logits2, n, exclude=exclude)
    items = np.concatenate([step1.items, fill])
    scores = np.concatenate([step1.scores, logits2[fill]])
    return RecallResult(user, items, scores, [STEP1] * m + [STEP2] * len(fill))


def interest_vectors(params: ModelParams, user: int, seq, steps: int, scorer: str,
                     segments=None) -> list[np.ndarray]:
    """Unroll greedy decoding, emitting the final hidden state at each step.

    With filter_history off, steps=2 yields exactly the (h*_1, h*_2) pair used
    by recall_two_step. With it on, recall_two_step appends the top item
    outside the user's history, which can differ from the unfiltered argmax
    appended here. Deeper unrolling is exposed for analysis only.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    items, segments = _tagged(seq, segments)
    out = []
    for _ in range(steps):
        h, nxt = greedy_step(params, user, items, segments, scorer)
        out.append(h)
        items.append(nxt)
        segments.append(PROMPT)
    return out


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
