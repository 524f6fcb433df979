"""Two-stage training: autoregressive pre-training, then prompt-tuning on
sequences interleaved with model-generated prompt items."""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .data import SplitDataset, iter_batches, length_groups, sample_negatives, truncate_last
from .model import (
    PROMPT,
    REAL,
    SCORER_OUTPUT_LAYER,
    SCORER_TIED_EMB,
    HyperParams,
    ModelParams,
    backward,
    forward,
)
from .numerics import AdamState, adam_step, bce_pair_loss, cross_entropy
from .recall import greedy_steps, recall_grid


class TrainingError(RuntimeError):
    """Divergence or invalid training configuration."""


# positions per stacked training step: a step keeps every block's activations
# for its backward, so it stacks half as many positions as an inference call
# (recall.CHUNK_POSITIONS), which bounds peak memory
TRAIN_CHUNK_POSITIONS = 256

# training rows are right-padded to their length rounded up to a multiple of
# this, so rows of nearby lengths share one stacked step
BUCKET_WIDTH = 8

# prompt_tune's allowed loss_positions
LOSS_POSITIONS = ("last", "all_real")


@dataclass
class PromptEnhancedSequence:
    """Real items interleaved with K generated prompt items before each real
    item after the first: v1, [K prompts], v2, ..., [K prompts], v_n."""

    items: list[int]
    segments: list[int]

    def __post_init__(self):
        if len(self.items) != len(self.segments):
            raise TrainingError("prompt sequence items/segments misaligned")

    @property
    def real_positions(self) -> list[int]:
        """0-based indices of REAL items (1-based law: {1, 2+K, 3+2K, ...})."""
        return [i for i, s in enumerate(self.segments) if s == REAL]

    @property
    def real_items(self) -> list[int]:
        return [v for v, s in zip(self.items, self.segments) if s == REAL]


@dataclass
class TrainReport:
    stage: str
    epoch_losses: list[float] = field(default_factory=list)
    wall_time: float = 0.0
    best_epoch: int = -1
    best_valid_hr10: float | None = None


def _valid_hr_at_10(dataset: SplitDataset, params: ModelParams, scorer: str,
                    inputs) -> float:
    """HR@10 predicting the validation target from each user's
    (items, segments) input, used for early stopping; an empty input is a
    miss."""
    users = [u for u, (items, _) in enumerate(inputs) if items]
    [results] = recall_grid(params, users, [inputs[u] for u in users], [(10, 0)], scorer)
    hits = sum(int(dataset.valid_target[res.user]) in res.items for res in results)
    return hits / max(1, dataset.n_users)


def _bce_target(params: ModelParams, h: np.ndarray, d_h: np.ndarray, rows: np.ndarray,
                positions: np.ndarray, pos: np.ndarray, negs: np.ndarray) -> float:
    """Pairwise BCE through the tied item embeddings, summed over targets:
    target i scores h[rows[i], positions[i]] against item pos[i] and the
    negs[i] items."""
    w_e = params["W_e"]
    hs = h[rows, positions]                              # (n, d)
    ids = np.column_stack([pos, negs])                   # (n, 1 + neg_count)
    emb = w_e.value[ids]
    scores = (emb * hs[:, None, :]).sum(axis=-1)
    loss, d_pos, d_negs = bce_pair_loss(scores[:, 0], scores[:, 1:])
    d_scores = np.column_stack([d_pos, d_negs]).astype(h.dtype)
    np.add.at(d_h, (rows, positions), (d_scores[..., None] * emb).sum(axis=1))
    np.add.at(w_e.grad, ids, d_scores[..., None] * hs[:, None, :])
    return float(loss.sum())


def _ce_target(params: ModelParams, h: np.ndarray, d_h: np.ndarray, rows: np.ndarray,
               positions: np.ndarray, targets: np.ndarray) -> float:
    """Full-catalog cross-entropy through the output layer, summed over
    targets: target i predicts item targets[i] from h[rows[i], positions[i]],
    all targets' logits as one (n, V) matmul and W_l's gradient as one
    (V, d) matmul."""
    w_l = params["W_l"]
    hs = h[rows, positions]
    loss, d_logits = cross_entropy(hs @ w_l.value.T, targets)
    w_l.grad += d_logits.T @ hs
    # one (V,) @ (V, d) product per target: an (n, V) @ (V, d) matmul sums
    # over the catalog, and OpenBLAS gives it other bits at two threads than
    # at one (seen at V = 2000, n >= 8), which would make checkpoint bytes
    # depend on OPENBLAS_NUM_THREADS
    np.add.at(d_h, (rows, positions), (d_logits[:, None, :] @ w_l.value)[:, 0])
    return float(loss.sum())


def _group_step(params: ModelParams, rows, length: int, target_loss) -> float:
    """One stacked forward, loss and backward over rows right-padded to
    `length` positions with item 0 and segment REAL; adds their gradients to
    params and returns their summed loss. Under the causal mask no real
    position attends to a later padded one, and padded positions carry no
    target, so their gradient is exactly zero: the sums equal those of the
    unpadded rows up to summation order. Its activations are freed on
    return, before the next group's forward."""
    users, items, segments, targets = zip(*rows)
    padded_items = np.zeros((len(rows), length), dtype=np.int64)
    padded_segments = np.full((len(rows), length), REAL, dtype=np.int64)
    for b, (its, segs) in enumerate(zip(items, segments)):
        padded_items[b, :len(its)] = its
        padded_segments[b, :len(segs)] = segs
    h, cache = forward(params, np.asarray(users), padded_items, padded_segments)
    d_h = np.zeros_like(h)
    row_of = np.repeat(np.arange(len(rows)), [len(t[0]) for t in targets])
    loss = target_loss(params, h, d_h, row_of, *map(np.concatenate, zip(*targets)))
    backward(params, cache, d_h)
    return loss


def _batch_grads(params: ModelParams, rows, target_loss) -> float:
    """Set params' gradients to the batch's loss gradient averaged over its
    rows; returns the summed loss.

    rows are (user, items, segments, targets), where targets is a tuple of
    equal-length index arrays, the first of them the positions the targets
    are read at; a row without targets is skipped. Each row is padded to its
    length bucket, the length rounded up to a multiple of BUCKET_WIDTH and
    capped at max_len, and the rows of each bucket run as stacked groups of
    at most TRAIN_CHUNK_POSITIONS padded positions (data.length_groups): one
    forward, then target_loss(params, h, d_h, rows, *targets), which adds
    every target's loss gradient to d_h and to the head it scores with (rows
    maps each target to its row of the group), then one backward."""
    params.zero_grads()
    kept = [row for row in rows if len(row[3][0])]
    buckets = [min(-(-len(row[1]) // BUCKET_WIDTH) * BUCKET_WIDTH, params.hyper.max_len)
               for row in kept]
    loss = 0.0
    for group in length_groups(buckets, TRAIN_CHUNK_POSITIONS):
        loss += _group_step(params, [kept[i] for i in group], buckets[group[0]], target_loss)
    params.scale_grads(1.0 / max(1, len(rows)))
    return loss


def _train(params: ModelParams, trainable: list[str], batches, target_loss, epochs: int,
           lr: float, early_stop_patience: int, valid_hr, stage: str
           ) -> tuple[ModelParams, TrainReport]:
    """The loop both stages share.

    batches() yields one epoch's lists of rows; each batch takes one Adam step on
    `trainable` with the gradients _batch_grads gives. With
    early_stop_patience > 0, valid_hr(params) is checked after each epoch and
    the best copy is returned.
    """
    states = {n: AdamState.for_param(params[n], lr=lr) for n in trainable}
    report = TrainReport(stage)
    t0 = time.perf_counter()
    best_hr, best_params, patience_left = -1.0, None, early_stop_patience

    for epoch in range(epochs):
        epoch_loss, n_rows = 0.0, 0
        for rows in batches():
            epoch_loss += _batch_grads(params, rows, target_loss)
            for name in trainable:
                adam_step(params[name], states[name])
            n_rows += len(rows)
        mean_loss = epoch_loss / max(1, n_rows)
        if not np.isfinite(mean_loss):
            raise TrainingError(f"{report.stage} diverged at epoch {epoch}: loss={mean_loss}")
        report.epoch_losses.append(mean_loss)

        if early_stop_patience > 0:
            hr = valid_hr(params)
            if hr > best_hr:
                best_hr, best_params, patience_left = hr, params.copy(), early_stop_patience
                report.best_epoch = epoch
            else:
                patience_left -= 1
                if patience_left <= 0:
                    break

    if early_stop_patience > 0 and best_params is not None:
        params = best_params
        report.best_valid_hr10 = best_hr
    report.wall_time = time.perf_counter() - t0
    return params, report


def pretrain_row(dataset: SplitDataset, user: int, max_len: int, neg_count: int,
                 rng: np.random.Generator):
    """A pretraining row: the user's last max_len train items, all REAL, with
    targets (positions, next items, negatives) at every position t but the
    last: item seq[t + 1] and neg_count items drawn outside the user's full
    sequence, all of the row's negatives in one draw."""
    seq = dataset.sequences[user][-max_len:]
    n = max(0, len(seq) - 1)
    negs = sample_negatives(dataset.full_sequence(user), dataset.catalog.n_items,
                            n * neg_count, rng)
    return user, seq, [REAL] * len(seq), (
        np.arange(n), np.asarray(seq[1:], dtype=np.int64), negs.reshape(n, neg_count))


def pretrain(
    dataset: SplitDataset,
    hyper: HyperParams,
    epochs: int,
    early_stop_patience: int = 0,
) -> tuple[ModelParams, TrainReport]:
    """Stage 1: pairwise BCE over every next-item position of the train prefix.

    Per user position t, the loss is -log sig(h_t . e_pos) - sum log(1 - sig(h_t . e_neg))
    with uniform negatives outside the user's full sequence; batches average
    per-user sums. The initialisation and the batch order and negatives each
    draw from their own generator seeded by hyper.seed. Segment embeddings
    stay at zero and are not trained here. Neither is W_l: it ends as a copy
    of the trained W_e, so prompts generated from the pre-trained model score
    with the head pretraining trained.
    """
    rng = np.random.default_rng(hyper.seed)
    params = ModelParams(dataset.catalog.n_users, dataset.catalog.n_items, hyper)

    def batches():
        return iter_batches(dataset.n_users, hyper.batch_size, rng,
                            lambda u: pretrain_row(dataset, u, hyper.max_len, hyper.neg_count, rng))

    reals = [(seq, [REAL] * len(seq)) for seq in dataset.sequences]
    params, report = _train(params, [n for n in params.names() if n not in ("W_s", "W_l")],
                            batches, _bce_target, epochs, hyper.lr, early_stop_patience,
                            lambda p: _valid_hr_at_10(dataset, p, SCORER_TIED_EMB, reals),
                            "pretrain")
    params["W_l"].value[...] = params["W_e"].value
    return params, report


def extend_prompt_rows(params: ModelParams, users, rows: list[PromptEnhancedSequence],
                       new_items, K: int) -> list[PromptEnhancedSequence]:
    """Continue each prompt-enhanced sequence rows[i] (of user users[i]) with
    the real items new_items[i]: before each new item, unless the sequence is
    still empty, K greedy prompts are generated as in generate_prompts. Every
    row steps in lockstep, one greedy step for all rows at a time. Each step
    sees only the items already placed in its row, so extending
    generate_prompts(seq) by new_items gives exactly
    generate_prompts(seq + new_items)."""
    if K < 0:
        raise TrainingError("K must be >= 0")
    items = [list(p.items) for p in rows]
    segments = [list(p.segments) for p in rows]
    for t in range(max(map(len, new_items), default=0)):
        placing = [i for i, new in enumerate(new_items) if t < len(new)]
        prompted = [i for i in placing if items[i]]
        for _ in range(K if prompted else 0):
            _, picks = greedy_steps(params, [users[i] for i in prompted],
                                    [(items[i], segments[i]) for i in prompted],
                                    SCORER_OUTPUT_LAYER)
            for i, v in zip(prompted, picks):
                items[i].append(v)
                segments[i].append(PROMPT)
        for i in placing:
            items[i].append(int(new_items[i][t]))
            segments[i].append(REAL)
    return [PromptEnhancedSequence(i, s) for i, s in zip(items, segments)]


def generate_prompts(params: ModelParams, user: int, seq, K: int) -> PromptEnhancedSequence:
    """Greedy left-to-right prompt generation from a (frozen) model.

    Before each real item after the first, K prompt items are generated one
    at a time: forward over the current prefix (segment-tagged, truncated to
    max_len), score with the output layer, append the argmax with a PROMPT
    tag. The result follows the layout law: the first item is REAL, and
    exactly K PROMPT items precede each later REAL item. K=0 returns the
    original sequence unchanged.
    """
    return extend_prompt_rows(params, [user], [PromptEnhancedSequence([], [])], [seq], K)[0]


def generate_prompt_cache(dataset: SplitDataset, params: ModelParams, K: int) -> list[PromptEnhancedSequence]:
    """One PromptEnhancedSequence per user, from the user's train prefix,
    generated for every user in lockstep."""
    return extend_prompt_rows(params, range(dataset.n_users),
                              [PromptEnhancedSequence([], [])] * dataset.n_users,
                              dataset.sequences, K)


def tune_row(user: int, items, segments, target: int, loss_positions: str):
    """A tuning row: the (truncated) prompt-enhanced input with targets
    (positions, items): `target` at the last position and, under
    'all_real', each next real item at every real position but the last. An
    empty input has no targets."""
    positions, targets = [], []
    if items:
        if loss_positions == "all_real":
            reals = [i for i, s in enumerate(segments) if s == REAL]
            positions, targets = reals[:-1], [items[i] for i in reals[1:]]
        positions.append(len(items) - 1)
        targets.append(target)
    return user, items, segments, (np.asarray(positions, dtype=np.intp),
                                   np.asarray(targets, dtype=np.int64))


def prompt_tune(
    dataset: SplitDataset,
    pretrained: ModelParams,
    prompts: list[PromptEnhancedSequence],
    hyper: HyperParams,
    epochs: int,
    loss_positions: str = "last",
    early_stop_patience: int = 0,
) -> tuple[ModelParams, TrainReport]:
    """Stage 2: cross-entropy on prompt-enhanced sequences, training every
    parameter.

    prompts are the frozen pre-trained model's cached prompt-enhanced
    sequences (generate_prompt_cache); each is cut to its last hyper.max_len
    positions once, and every epoch reuses them. W_s restarts at zero and W_l as a copy of W_e, so at zero
    epochs with K=0 the tuned model scores identically to the pre-trained
    one. The default target is the held-out next item at the final real
    position; loss_positions='all_real' additionally predicts each next real
    item. Batches are drawn from a generator seeded by hyper.seed + 1.
    """
    if loss_positions not in LOSS_POSITIONS:
        raise TrainingError(f"unknown loss_positions {loss_positions!r}")
    rng = np.random.default_rng(hyper.seed + 1)
    params = pretrained.copy()
    params["W_s"].value[...] = 0.0
    params["W_l"].value[...] = params["W_e"].value
    inputs = [tuple(truncate_last(p.items, p.segments, hyper.max_len)) for p in prompts]

    def row(u):
        return tune_row(u, *inputs[u], int(dataset.valid_target[u]), loss_positions)

    def batches():
        return iter_batches(dataset.n_users, hyper.batch_size, rng, row)

    return _train(params, params.names(), batches, _ce_target, epochs, hyper.lr,
                  early_stop_patience,
                  lambda p: _valid_hr_at_10(dataset, p, SCORER_OUTPUT_LAYER, inputs),
                  "prompt_tune")
