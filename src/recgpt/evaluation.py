"""HR@k / NDCG@k over the whole catalog, mode-based evaluation, and sweeps."""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data import SplitDataset
from .model import REAL, SCORER_OUTPUT_LAYER, SCORER_TIED_EMB, ModelParams
from .recall import RecallResult, dump_recall_csv, recall_two_step
from .training import generate_prompt_cache, generate_prompts, prompt_tune

# mode -> (which params, two_step?, scorer)
MODES = {
    "PRETRAIN": ("pretrained", False, SCORER_TIED_EMB),
    "FINETUNE": ("tuned", False, SCORER_OUTPUT_LAYER),
    "RECGPT1": ("tuned", False, SCORER_OUTPUT_LAYER),
    "RECGPT": ("tuned", True, SCORER_OUTPUT_LAYER),
    "VARIANT_1": ("pretrained", True, SCORER_TIED_EMB),
    "VARIANT_2": ("tuned", False, SCORER_OUTPUT_LAYER),
    "VARIANT_3": ("pretrained", False, SCORER_TIED_EMB),
}


class EvalError(RuntimeError):
    pass


@dataclass
class MetricsReport:
    mode: str
    split: str
    n_users: int
    n_excluded: int = 0
    metrics: dict = field(default_factory=dict)   # (metric, k) -> value
    config: dict = field(default_factory=dict)

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


def _mode_input(dataset, user, split, which, prompt_k, prompt_params):
    """Tuned-model modes see the same prompt-interleaved layout they were
    tuned on; prompts come from the frozen pre-trained model, as in training."""
    seq = eval_input(dataset, user, split)
    if which == "tuned" and prompt_k > 0:
        pes = generate_prompts(prompt_params, user, seq, prompt_k)
        return pes.items, pes.segments
    return seq, [REAL] * len(seq)


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
) -> MetricsReport:
    """Average HR@k / NDCG@k over all users for the given mode.

    FINETUNE expects `tuned` to be the K=0-tuned checkpoint; VARIANT modes map
    onto the same (params, recall path, scorer) table as the headline modes.
    With prompt_k > 0, tuned-model modes are fed prompt-enhanced inputs
    generated by the pre-trained model (so `pretrained` is required too).
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
    k_max = max(ks)
    if not two_step:
        m, n = k_max, 0     # two-step recall with n = 0 is one-step recall
    if m is None or n is None:
        raise EvalError(f"mode {mode} needs recall split (m, n)")
    if m + n != k_max:
        raise EvalError(f"m+n={m + n} must equal k={k_max}")

    results = []
    hits = {(metric, k): 0.0 for k in ks for metric in ("HR", "NDCG")}
    for u in range(dataset.n_users):
        seq, segments = _mode_input(dataset, u, split, which, prompt_k, pretrained)
        if not seq:
            continue
        target = int(dataset.test_target[u] if split == "test" else dataset.valid_target[u])
        res = recall_two_step(params, u, seq, m, n, scorer, segments=segments,
                              filter_history=filter_history)
        results.append(res)
        for k in ks:
            hits[("HR", k)] += hr_at_k(res, target, k)
            hits[("NDCG", k)] += ndcg_at_k(res, target, k)

    n_users = len(results)
    report = MetricsReport(mode=mode, split=split, n_users=n_users,
                           n_excluded=dataset.n_users - n_users)
    for key, total in hits.items():
        report.metrics[key] = float(total / n_users) if n_users else 0.0
    if dump_path is not None:
        dump_recall_csv(dump_path, results, catalog=dataset.catalog)
    return report


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
) -> SweepTable:
    """Vary only the two-step recall split over one tuned checkpoint; the
    (k, 0) point is one-step recall, since two-step with n = 0 returns it."""
    if grid is None:
        grid = mn_grid(max(ks))
    table = SweepTable(axis="m_n", points=list(grid))
    for m, n in grid:
        _collect(table, evaluate(dataset, split, "RECGPT", pretrained=pretrained,
                                 tuned=tuned, ks=ks, m=m, n=n, prompt_k=prompt_k,
                                 filter_history=filter_history))
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
                                 filter_history=filter_history))
    return table
