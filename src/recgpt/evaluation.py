"""HR@k / NDCG@k over the whole catalog, mode-based evaluation, and sweeps."""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data import SplitDataset
from .model import REAL, SCORER_OUTPUT_LAYER, SCORER_TIED_EMB, ModelParams
from .recall import RecallResult, dump_recall_csv, real_items, recall_grid, recall_rows
from .training import PromptEnhancedSequence, extend_prompt_rows, generate_prompt_cache, prompt_tune

# mode -> (which params, two_step?, scorer)
MODES = {
    "PRETRAIN": ("pretrained", False, SCORER_TIED_EMB),
    "FINETUNE": ("tuned", False, SCORER_OUTPUT_LAYER),
    "RECGPT1": ("tuned", False, SCORER_OUTPUT_LAYER),
    "RECGPT": ("tuned", True, SCORER_OUTPUT_LAYER),
    "VARIANT_1": ("pretrained", True, SCORER_TIED_EMB),
}
MODES.update(VARIANT_2=MODES["RECGPT1"], VARIANT_3=MODES["PRETRAIN"])


class EvalError(RuntimeError):
    pass


@dataclass
class MetricsReport:
    mode: str
    split: str
    n_users: int
    n_excluded: int = 0
    metrics: dict = field(default_factory=dict)   # (metric, k) -> value

    def table(self) -> str:
        lines = [f"mode={self.mode} split={self.split} users={self.n_users} "
                 f"excluded={self.n_excluded}"]
        header = f"{'metric':<8}{'k':>4}{'value':>12}"
        lines.append(header)
        lines.append("-" * len(header))
        for (metric, k), value in sorted(self.metrics.items()):
            lines.append(f"{metric:<8}{k:>4}{value:>12.6f}")
        return "\n".join(lines)

    def csv_rows(self) -> list[str]:
        return [f"{self.mode},{metric},{k},{value!r},{self.n_users}"
                for (metric, k), value in sorted(self.metrics.items())]


@dataclass
class SweepTable:
    axis: str
    points: list
    values: dict = field(default_factory=dict)    # (metric, k) -> list aligned with points

    def csv(self) -> str:
        keys = sorted(self.values)
        lines = ["point," + ",".join(f"{m}@{k}" for m, k in keys)]
        for i, point in enumerate(self.points):
            label = "_".join(str(p) for p in point) if isinstance(point, tuple) else str(point)
            lines.append(label + "," + ",".join(repr(self.values[key][i]) for key in keys))
        return "\n".join(lines)


def _top(ranked, k: int) -> list[int]:
    items = np.asarray(ranked.items if isinstance(ranked, RecallResult) else ranked)
    if items.shape[0] < k:
        raise EvalError(f"ranking shorter than k={k}")
    return [int(i) for i in items[:k]]


def hr_at_k(ranked, target: int, k: int) -> int:
    """1 iff the target appears in the first k ranked items."""
    return int(target in _top(ranked, k))


def ndcg_at_k(ranked, target: int, k: int) -> float:
    """1/log2(rank+1) for the single relevant item at 1-based rank <= k, else 0."""
    top = _top(ranked, k)
    return float(1.0 / np.log2(top.index(target) + 2)) if target in top else 0.0


def eval_input(dataset: SplitDataset, user: int, split: str) -> list[int]:
    """valid split conditions on the train prefix; test additionally appends
    the validation item (leave-one-out)."""
    if split == "valid":
        return list(dataset.sequences[user])
    if split == "test":
        return list(dataset.sequences[user]) + [int(dataset.valid_target[user])]
    raise EvalError(f"unknown split {split!r}")


def prompt_inputs(dataset: SplitDataset, split: str, pretrained: ModelParams, prompts,
                  K: int) -> list[PromptEnhancedSequence]:
    """Each user's prompt-enhanced input for the split at prompt window K.

    Row u of `prompts` is continued by greedy prompts from the frozen
    pre-trained model over the split's real items it does not hold yet. From
    the train-prefix cache (generate_prompt_cache, as saved in
    prompts_K{K}.ckpt) that is nothing on the valid split and the validation
    item on test; rows this function returned come back unchanged, so one
    call per (split, K) serves every mode and sweep point. With prompts None,
    the train-prefix cache is generated first.
    """
    if prompts is None:
        prompts = generate_prompt_cache(dataset, pretrained, K)
    if len(prompts) != dataset.n_users:
        raise EvalError(f"{len(prompts)} prompt rows for {dataset.n_users} users")
    new_items = []
    for u, pes in enumerate(prompts):
        seq = eval_input(dataset, u, split)
        held = pes.real_items
        if held != seq[:len(held)]:
            raise EvalError(f"user {u}: prompt row's real items do not begin the {split} input")
        new_items.append(seq[len(held):])
    return extend_prompt_rows(pretrained, range(dataset.n_users), prompts, new_items, K)


def _recall_split(m, n, k_max: int) -> None:
    if m is None or n is None or m < 1 or n < 0 or m + n != k_max:
        raise EvalError(f"recall split (m, n) = ({m}, {n}) needs m >= 1, n >= 0 and "
                        f"m+n = k = {k_max}")


def _inputs(dataset: SplitDataset, split: str, which: str, pretrained: ModelParams | None,
            prompts, prompt_k: int, k: int, filter_history: bool) -> tuple[list[int], list]:
    """The users whose split input can fill a ranking of k and their (items,
    segments) rows: prompt-enhanced for a tuned model at prompt_k > 0, else
    real. A user is excluded when the input is empty or fewer than k catalog
    items are eligible, which under filter_history are those outside the
    input's real items."""
    if which == "tuned" and prompt_k > 0:
        inputs = [(p.items, p.segments)
                  for p in prompt_inputs(dataset, split, pretrained, prompts, prompt_k)]
    else:
        inputs = [(seq, [REAL] * len(seq))
                  for seq in (eval_input(dataset, u, split) for u in range(dataset.n_users))]

    def eligible(row) -> int:
        return dataset.catalog.n_items - (len(real_items(*row)) if filter_history else 0)

    users = [u for u, row in enumerate(inputs) if row[0] and eligible(row) >= k]
    return users, [inputs[u] for u in users]


def _report(dataset: SplitDataset, split: str, mode: str, ks, users,
            results: list[RecallResult]) -> MetricsReport:
    """HR@k / NDCG@k averaged over the ranked users; the rest are excluded."""
    hits = {(metric, k): 0.0 for k in ks for metric in ("HR", "NDCG")}
    for u, res in zip(users, results):
        target = int(dataset.test_target[u] if split == "test" else dataset.valid_target[u])
        for k in ks:
            hits[("HR", k)] += hr_at_k(res, target, k)
            hits[("NDCG", k)] += ndcg_at_k(res, target, k)

    n_users = len(results)
    report = MetricsReport(mode=mode, split=split, n_users=n_users,
                           n_excluded=dataset.n_users - n_users)
    for key, total in hits.items():
        report.metrics[key] = float(total / n_users) if n_users else 0.0
    return report


def evaluate(
    dataset: SplitDataset,
    split: str,
    mode: str,
    pretrained: ModelParams | None = None,
    tuned: ModelParams | None = None,
    ks=(5, 10),
    m: int | None = None,
    n: int | None = None,
    prompt_k: int = 0,
    filter_history: bool = False,
    dump_path=None,
    prompts=None,
) -> MetricsReport:
    """Average HR@k / NDCG@k over all users for the given mode.

    FINETUNE expects `tuned` to be the K=0-tuned checkpoint; VARIANT modes map
    onto the same (params, recall path, scorer) table as the headline modes.
    With prompt_k > 0, tuned-model modes see the same prompt-interleaved
    layout they were tuned on: prompt_inputs continues `prompts` (the
    train-prefix cache, or rows prompt_inputs built for this split) with the
    pre-trained model, so `pretrained` is required too.
    """
    mode = mode.upper()
    if mode not in MODES:
        raise EvalError(f"unknown evaluation mode {mode!r}")
    which, two_step, scorer = MODES[mode]
    params = pretrained if which == "pretrained" else tuned
    if params is None:
        raise EvalError(f"mode {mode} needs the {which} checkpoint")
    if which == "tuned" and prompt_k > 0 and pretrained is None:
        raise EvalError(f"mode {mode} with prompt_k={prompt_k} needs the pretrained "
                        "checkpoint for prompt generation")
    if not two_step:
        m, n = max(ks), 0   # two-step recall with n = 0 is one-step recall
    _recall_split(m, n, max(ks))

    users, rows = _inputs(dataset, split, which, pretrained, prompts, prompt_k, max(ks),
                          filter_history)
    results = recall_rows(params, users, rows, m, n, scorer, filter_history=filter_history)
    if dump_path is not None:
        dump_recall_csv(dump_path, results, catalog=dataset.catalog)
    return _report(dataset, split, mode, ks, users, results)


def mn_grid(k: int = 10, min_m: int | None = None) -> list[tuple[int, int]]:
    """The (k,0), (k-1,1), ..., (k/2, k/2) recall-split grid."""
    if min_m is None:
        min_m = k - k // 2
    return [(m, k - m) for m in range(k, min_m - 1, -1)]


def _collect(table: SweepTable, report: MetricsReport) -> None:
    for key, value in report.metrics.items():
        table.values.setdefault(key, []).append(value)


def sweep_mn(
    dataset: SplitDataset,
    split: str,
    pretrained: ModelParams,
    tuned: ModelParams,
    grid=None,
    ks=(5, 10),
    prompt_k: int = 0,
    filter_history: bool = False,
    prompts=None,
) -> SweepTable:
    """Vary only the two-step recall split over one tuned checkpoint; the
    (k, 0) point is one-step recall, since two-step with n = 0 returns it.

    One pass: the inputs are built once (prompt-enhanced from `prompts`, as
    in evaluate) and recall_grid ranks each step once per user, so each
    point's table row equals evaluate(..., "RECGPT", m=m, n=n)'s metrics."""
    if grid is None:
        grid = mn_grid(max(ks))
    for m, n in grid:
        _recall_split(m, n, max(ks))
    which, _, scorer = MODES["RECGPT"]
    users, rows = _inputs(dataset, split, which, pretrained, prompts, prompt_k, max(ks),
                          filter_history)
    table = SweepTable(axis="m_n", points=list(grid))
    for results in recall_grid(tuned, users, rows, table.points, scorer, filter_history):
        _collect(table, _report(dataset, split, "RECGPT", ks, users, results))
    return table


def sweep_k(
    dataset: SplitDataset,
    split: str,
    pretrained: ModelParams,
    hyper,
    tune_epochs: int,
    k_grid=range(0, 7),
    ks=(5, 10),
    m: int | None = None,
    n: int | None = None,
    filter_history: bool = False,
    tune_kwargs=None,
) -> SweepTable:
    """Retune per prompt-window size K and evaluate each tuned model."""
    table = SweepTable(axis="K", points=list(k_grid))
    tune_kwargs = dict(tune_kwargs or {})
    if m is None or n is None:
        m, n = max(ks), 0
    for K in table.points:
        prompts = generate_prompt_cache(dataset, pretrained, K)
        tuned, _ = prompt_tune(dataset, pretrained, prompts, replace(hyper, prompt_window=K),
                               tune_epochs, **tune_kwargs)
        _collect(table, evaluate(dataset, split, "RECGPT", pretrained=pretrained,
                                 tuned=tuned, ks=ks, m=m, n=n, prompt_k=K,
                                 filter_history=filter_history, prompts=prompts))
    return table
