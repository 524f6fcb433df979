"""Two-stage training: autoregressive pre-training, then prompt-tuning on
sequences interleaved with model-generated prompt items."""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .data import SplitDataset, iter_batches, sample_negatives, truncate_last
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
from .recall import greedy_steps, recall_rows


class TrainingError(RuntimeError):
    """Divergence or invalid training configuration."""


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
    param_norms: dict = field(default_factory=dict)
    seed: int = 0
    best_epoch: int = -1
    extra: dict = field(default_factory=dict)


def _param_norms(params: ModelParams) -> dict:
    return {name: float(np.linalg.norm(p.value)) for name, p in
            zip(params.names(), params.parameters())}


def _valid_hr_at_10(dataset: SplitDataset, params: ModelParams, scorer: str,
                    inputs) -> float:
    """HR@10 predicting the validation target from each user's
    (items, segments) input, used for early stopping; an empty input is a
    miss."""
    users = [u for u, (items, _) in enumerate(inputs) if items]
    results = recall_rows(params, users, [inputs[u] for u in users], 10, 0, scorer)
    hits = sum(int(dataset.valid_target[res.user]) in res.items for res in results)
    return hits / max(1, dataset.n_users)


def _bce_target(params: ModelParams, h: np.ndarray, d_h: np.ndarray, t: int, pos: int,
                negs: np.ndarray) -> float:
    """Pairwise BCE at position t through the tied item embeddings."""
    w_e = params["W_e"]
    loss, d_pos, d_negs = bce_pair_loss(float(w_e.value[pos] @ h[t]), w_e.value[negs] @ h[t])
    d_h[t] += d_pos * w_e.value[pos] + d_negs @ w_e.value[negs]
    w_e.grad[pos] += d_pos * h[t]
    np.add.at(w_e.grad, negs, np.outer(d_negs, h[t]))
    return loss


def _ce_target(params: ModelParams, h: np.ndarray, d_h: np.ndarray, pos: int, tgt: int) -> float:
    """Full-catalog cross-entropy at position pos through the output layer."""
    w_l = params["W_l"]
    loss, d_logits = cross_entropy(w_l.value @ h[pos], tgt)
    w_l.grad += np.outer(d_logits, h[pos])
    d_h[pos] += w_l.value.T @ d_logits
    return loss


def _train(params: ModelParams, trainable: list[str], batches, target_loss, epochs: int,
           lr: float, early_stop_patience: int, valid_hr, report: TrainReport
           ) -> tuple[ModelParams, TrainReport]:
    """The loop both stages share.

    batches(epoch) yields lists of (user, items, segments, targets) rows; a
    row without targets is skipped. Each row is run forward, and
    target_loss(params, h, d_h, *target) adds each target's loss gradient to
    d_h and to the head it scores with; the batch then takes one Adam step on
    `trainable` with gradients averaged over its rows. With
    early_stop_patience > 0, valid_hr(params) is checked after each epoch and
    the best copy is returned.
    """
    states = {n: AdamState.for_param(params[n], lr=lr) for n in trainable}
    t0 = time.time()
    best_hr, best_params, patience_left = -1.0, None, early_stop_patience

    for epoch in range(epochs):
        epoch_loss, n_rows = 0.0, 0
        for rows in batches(epoch):
            params.zero_grads()
            batch_loss = 0.0
            for user, items, segments, targets in rows:
                if not targets:
                    continue
                h, cache = forward(params, user, items, segments)
                d_h = np.zeros_like(h)
                user_loss = 0.0
                for target in targets:
                    user_loss += target_loss(params, h, d_h, *target)
                backward(params, cache, d_h)
                batch_loss += user_loss
            params.scale_grads(1.0 / max(1, len(rows)))
            for name in trainable:
                adam_step(params[name], states[name])
            epoch_loss += batch_loss
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
        report.extra["best_valid_hr10"] = best_hr
    report.wall_time = time.time() - t0
    report.param_norms = _param_norms(params)
    return params, report


def pretrain_row(dataset: SplitDataset, user: int, neg_count: int, rng: np.random.Generator):
    """A pretraining row: the user's last max_len train items, all REAL, with
    a target (t, next item, negatives drawn outside the user's full sequence)
    at every position t but the last."""
    seq = dataset.sequences[user][-dataset.max_len:]
    full = dataset.full_sequence(user)
    return user, seq, [REAL] * len(seq), [
        (t, int(seq[t + 1]), sample_negatives(full, dataset.catalog.n_items, neg_count, rng))
        for t in range(len(seq) - 1)]


def pretrain(
    dataset: SplitDataset,
    hyper: HyperParams,
    epochs: int,
    seed: int | None = None,
    early_stop_patience: int = 0,
) -> tuple[ModelParams, TrainReport]:
    """Stage 1: pairwise BCE over every next-item position of the train prefix.

    Per user position t, the loss is -log sig(h_t . e_pos) - sum log(1 - sig(h_t . e_neg))
    with uniform negatives outside the user's full sequence; batches average
    per-user sums. Segment embeddings stay at zero and are not trained here.
    Neither is W_l: it ends as a copy of the trained W_e, so prompts generated
    from the pre-trained model score with the head pretraining trained.
    """
    if seed is None:
        seed = hyper.seed
    rng = np.random.default_rng(seed)
    params = ModelParams(dataset.catalog.n_users, dataset.catalog.n_items, hyper,
                         rng=np.random.default_rng(seed))

    def batches(epoch):
        return iter_batches(dataset.n_users, hyper.batch_size, rng,
                            lambda u: pretrain_row(dataset, u, hyper.neg_count, rng))

    reals = [(seq, [REAL] * len(seq)) for seq in dataset.sequences]
    params, report = _train(params, [n for n in params.names() if n not in ("W_s", "W_l")],
                            batches, _bce_target, epochs, hyper.lr, early_stop_patience,
                            lambda p: _valid_hr_at_10(dataset, p, SCORER_TIED_EMB, reals),
                            TrainReport(stage="pretrain", seed=seed))
    params["W_l"].value[...] = params["W_e"].value
    report.param_norms["W_l"] = report.param_norms["W_e"]
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


def regeneration_epochs(total_epochs: int, every: int | None) -> list[int]:
    """Epochs at which prompts are regenerated. Default policy: never (the
    single generation pass from the frozen pre-trained model is reused)."""
    if not every or every <= 0:
        return []
    return list(range(every, total_epochs, every))


def prompt_tune(
    dataset: SplitDataset,
    pretrained: ModelParams,
    prompts: list[PromptEnhancedSequence],
    hyper: HyperParams,
    epochs: int,
    seed: int | None = None,
    loss_positions: str = "last",
    trainable: str = "all",
    early_stop_patience: int = 0,
    regen_every: int | None = None,
) -> tuple[ModelParams, TrainReport]:
    """Stage 2: cross-entropy on prompt-enhanced sequences.

    W_s restarts at zero and W_l as a copy of W_e, so at zero epochs with K=0
    the tuned model scores identically to the pre-trained one. The default
    target is the held-out next item at the final real position;
    loss_positions='all_real' additionally predicts each next real item.
    """
    if loss_positions not in ("last", "all_real"):
        raise TrainingError(f"unknown loss_positions {loss_positions!r}")
    if trainable not in ("all", "head"):
        raise TrainingError(f"unknown trainable set {trainable!r}")
    if seed is None:
        seed = hyper.seed
    rng = np.random.default_rng(seed + 1)
    params = pretrained.copy()
    params["W_s"].value[...] = 0.0
    params["W_l"].value[...] = params["W_e"].value

    def tune_inputs(pes_list):
        return [tuple(truncate_last(p.items, p.segments, dataset.max_len))
                for p in pes_list]

    def row(u):
        items, segments = inputs[u]
        if not items:
            return u, items, segments, []
        targets = []
        if loss_positions == "all_real":
            reals = [i for i, s in enumerate(segments) if s == REAL]
            targets = [(reals[j], items[reals[j + 1]]) for j in range(len(reals) - 1)]
        return u, items, segments, targets + [(len(items) - 1, int(dataset.valid_target[u]))]

    def batches(epoch):
        nonlocal inputs
        if epoch in regen_at:
            inputs = tune_inputs(generate_prompt_cache(dataset, params, hyper.prompt_window))
        return iter_batches(dataset.n_users, hyper.batch_size, rng, row)

    inputs = tune_inputs(prompts)
    regen_at = set(regeneration_epochs(epochs, regen_every))
    return _train(params, params.names() if trainable == "all" else ["W_s", "W_l"],
                  batches, _ce_target, epochs, hyper.lr, early_stop_patience,
                  lambda p: _valid_hr_at_10(dataset, p, SCORER_OUTPUT_LAYER, inputs),
                  TrainReport(stage="prompt_tune", seed=seed, extra={"K": hyper.prompt_window}))
