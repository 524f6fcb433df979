"""Pipeline CLI: preprocess -> pretrain -> gen-prompts -> tune -> eval/sweep.

Each stage writes one artifact into a run directory keyed by the config hash
and refuses to overwrite without --force. Downstream stages verify both the
config hash and the recorded upstream blob hash, so stale or mixed artifacts
fail loudly naming the mismatched stage.
"""
from __future__ import annotations

import argparse
import ctypes
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import checkpoint
from .checkpoint import CheckpointError
from .config import ConfigError, RunConfig, parse_config
from .data import Catalog, DataError, SplitDataset, build_splits, ingest_tsv, kcore_filter
from .evaluation import MODES, EvalError, evaluate, mn_grid, prompt_inputs, sweep_k, sweep_mn
from .model import PROMPT, REAL, HyperParams, ModelParams
from .numerics import NumericsError
from .training import (
    PromptEnhancedSequence,
    TrainingError,
    TrainReport,
    generate_prompt_cache,
    prompt_tune,
    pretrain,
)

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# glibc mallopt parameter numbers, from malloc.h
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
# blocks up to this size come from the heap; twice it may stay there freed
HEAP_BLOCK_BYTES = 4 << 20


class StageError(RuntimeError):
    """Artifact bookkeeping problem (missing/stale/preexisting artifact)."""


def run_dir(cfg: RunConfig, out_override=None) -> Path:
    base = Path(out_override) if out_override else Path(cfg.out_dir)
    return base / cfg.config_hash()[:12]


def _outputs(cfg: RunConfig, args, *names: str) -> list[Path]:
    """A stage's output paths; refuses, before the stage does any work, to
    overwrite one that exists unless --force is given."""
    paths = [run_dir(cfg, args.out) / name for name in names]
    for path in paths:
        if path.exists() and not args.force:
            raise StageError(f"{path} already exists; pass --force to overwrite")
    return paths


def _load_checked(path, cfg: RunConfig, stage: str, *names: str) -> tuple[dict, dict]:
    """checkpoint.load, refusing an artifact made under another config or
    missing one of the named tensors."""
    tensors, manifest = checkpoint.load(path)
    if manifest.get("config_hash") != cfg.config_hash():
        raise StageError(
            f"stage {stage}: artifact was produced under a different config "
            f"(hash {manifest.get('config_hash', '?')[:12]} != {cfg.config_hash()[:12]})"
        )
    for name in names:
        if name not in tensors:
            raise CheckpointError(f"{path}: checkpoint missing tensor {name}")
    return tensors, manifest


def _is_int(v, low: int) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= low


_STRINGS = ("a list of strings", lambda v: isinstance(v, list)
            and all(isinstance(x, str) for x in v))
_POSITIVE = ("a positive integer", lambda v: _is_int(v, 1))
# manifest meta key -> (what its value must be, check)
_META_TYPES = {
    "users": _STRINGS,
    "items": _STRINGS,
    "n_users": _POSITIVE,
    "n_items": _POSITIVE,
    "K": ("a non-negative integer", lambda v: _is_int(v, 0)),
    "upstream": ("a dict of strings", lambda v: isinstance(v, dict)
                 and all(isinstance(x, str) for x in (*v, *v.values()))),
}


def _meta(path, manifest: dict, *keys: str) -> list:
    """The named values of a manifest's meta, refusing one that is missing
    or not of its key's type in _META_TYPES."""
    meta = manifest.get("meta")
    for key in keys:
        if not isinstance(meta, dict) or key not in meta:
            raise CheckpointError(f"{path}: manifest meta missing key {key!r}")
        what, check = _META_TYPES[key]
        if not check(meta[key]):
            raise CheckpointError(f"{path}: manifest meta key {key!r} must be {what}, "
                                  f"got {meta[key]!r:.40}")
    return [meta[key] for key in keys]


# ---------------------------------------------------------------------------
# artifact serialization
# ---------------------------------------------------------------------------

def _pack(rows) -> tuple[np.ndarray, np.ndarray]:
    """Ragged integer rows -> (flat values, offsets with row i at [o[i], o[i+1]))."""
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum([len(r) for r in rows])
    flat = (np.concatenate([np.asarray(r, dtype=np.int64) for r in rows]) if rows
            else np.zeros(0, dtype=np.int64))
    return flat, offsets


def _unpack(path, flat: np.ndarray, offsets: np.ndarray, n_rows: int, n_values: int,
            what: str) -> list[list[int]]:
    """Inverse of _pack for n_rows rows of ids in [0, n_values); raises
    CheckpointError on offsets that do not start at 0, go down or do not end
    at the flat length, and on any id out of range."""
    if flat.ndim != 1 or flat.dtype.kind != "i" or (
            flat.size and (flat.min() < 0 or flat.max() >= n_values)):
        raise CheckpointError(f"{path}: {what} outside [0, {n_values})")
    if (offsets.shape != (n_rows + 1,) or offsets[0] != 0 or np.any(np.diff(offsets) < 0)
            or offsets[-1] != flat.shape[0]):
        raise CheckpointError(f"{path}: offsets do not split {flat.shape[0]} {what} values "
                              f"into {n_rows} rows")
    bounds = offsets.tolist()
    return [flat[a:b].tolist() for a, b in zip(bounds[:-1], bounds[1:])]


def save_dataset(path, dataset: SplitDataset, cfg: RunConfig) -> None:
    seq_flat, offsets = _pack(dataset.sequences)
    checkpoint.save(
        path,
        {
            "seq_flat": seq_flat,
            "seq_offsets": offsets,
            "valid_target": dataset.valid_target.astype(np.int64),
            "test_target": dataset.test_target.astype(np.int64),
        },
        stage="preprocess",
        config_hash=cfg.config_hash(),
        meta={"users": dataset.catalog.users, "items": dataset.catalog.items},
    )


def load_dataset(path, cfg: RunConfig) -> tuple[SplitDataset, dict]:
    tensors, manifest = _load_checked(path, cfg, "preprocess", "seq_flat", "seq_offsets",
                                      "valid_target", "test_target")
    users, items = _meta(path, manifest, "users", "items")
    catalog = Catalog(users=list(users), items=list(items))
    sequences = _unpack(path, tensors["seq_flat"], tensors["seq_offsets"],
                        catalog.n_users, catalog.n_items, "item id")
    for name in ("valid_target", "test_target"):
        _unpack(path, tensors[name], np.asarray([0, catalog.n_users]), 1,
                catalog.n_items, name)
    return SplitDataset(sequences, tensors["valid_target"], tensors["test_target"],
                        catalog), manifest


def save_model(path, params: ModelParams, stage: str, cfg: RunConfig,
               upstream: dict | None = None, report: TrainReport | None = None) -> None:
    meta = {
        "n_users": params.n_users,
        "n_items": params.n_items,
        "hyper": vars(params.hyper),
        "upstream": upstream or {},
    }
    if report is not None:
        # wall time is deliberately excluded: checkpoints must be bit-identical
        # across reruns of the same config
        meta["report"] = {
            "epochs": len(report.epoch_losses),
            "final_loss": report.epoch_losses[-1] if report.epoch_losses else None,
            "best_epoch": report.best_epoch,
            "seed": report.seed,
        }
    checkpoint.save(path, params.tensors(), stage=stage,
                    config_hash=cfg.config_hash(), meta=meta)


def load_model(path, cfg: RunConfig, stage: str, hyper: HyperParams) -> tuple[ModelParams, dict]:
    tensors, manifest = _load_checked(path, cfg, stage)
    n_users, n_items = _meta(path, manifest, "n_users", "n_items")
    params = ModelParams(n_users, n_items, hyper)
    try:
        params.load_tensors(tensors)
    except (KeyError, ValueError) as exc:
        raise CheckpointError(f"{path}: {exc.args[0]}") from exc
    for p in params.parameters():
        if not np.all(np.isfinite(p.value)):
            raise CheckpointError(f"{path}: tensor {p.name} holds non-finite values")
    return params, manifest


def save_prompts(path, prompts: list[PromptEnhancedSequence], K: int,
                 cfg: RunConfig, upstream: dict) -> None:
    items, offsets = _pack([p.items for p in prompts])
    segments, _ = _pack([p.segments for p in prompts])
    checkpoint.save(path, {"items": items, "segments": segments, "offsets": offsets},
                    stage="gen-prompts", config_hash=cfg.config_hash(),
                    meta={"K": K, "n_users": len(prompts), "upstream": upstream})


def load_prompts(path, cfg: RunConfig, dataset: SplitDataset,
                 K: int) -> tuple[list[PromptEnhancedSequence], dict]:
    """The prompt cache of the dataset's train prefixes at prompt window K.
    Refused unless it has one row per user, every id is in the catalog, its
    manifest K is K, and row u holds dataset.sequences[u] as its REAL items
    in the layout law of generate_prompts."""
    tensors, manifest = _load_checked(path, cfg, "gen-prompts", "items", "segments", "offsets")
    n_rows, saved_k = _meta(path, manifest, "n_users", "K")
    if n_rows != dataset.n_users or saved_k != K:
        raise CheckpointError(f"{path}: prompts for {n_rows} users at K={saved_k}, "
                              f"expected {dataset.n_users} users at K={K}")
    items = _unpack(path, tensors["items"], tensors["offsets"], n_rows,
                    dataset.catalog.n_items, "item id")
    segments = _unpack(path, tensors["segments"], tensors["offsets"], n_rows, 2,
                       "segment (REAL or PROMPT)")
    prompts = [PromptEnhancedSequence(i, s) for i, s in zip(items, segments)]
    for u, (pes, seq) in enumerate(zip(prompts, dataset.sequences)):
        layout = [REAL] + ([PROMPT] * K + [REAL]) * (len(seq) - 1) if seq else []
        if pes.segments != layout or pes.real_items != seq:
            raise CheckpointError(f"{path}: row {u} is not user {u}'s train prefix with "
                                  f"{K} prompts before each real item after the first")
    return prompts, manifest


def _require(path: Path, stage: str) -> Path:
    if not path.exists():
        raise StageError(f"missing upstream artifact {path}; run `recgpt {stage}` first")
    return path


def _verify_upstream_hash(path, manifest: dict, key: str, expected: str, stage: str) -> None:
    [upstream] = _meta(path, manifest, "upstream")
    recorded = upstream.get(key)
    if recorded != expected:
        raise StageError(
            f"stage {stage}: upstream {key} hash mismatch "
            f"(recorded {str(recorded)[:12]}, found {expected[:12]}); rerun {key}"
        )


def _print_speed(report: TrainReport, n_users: int) -> None:
    """Wall time and user-epochs/s of a training stage, and, with early
    stopping, the epoch kept; stdout only, as wall time must stay out of
    the checkpoints and report CSVs."""
    epochs = len(report.epoch_losses)
    print(f"{report.stage}: {epochs} epochs in {report.wall_time:.3f} s, "
          f"{n_users * epochs / max(report.wall_time, 1e-9):.1f} user-epochs/s")
    if "best_valid_hr10" in report.extra:
        print(f"best epoch {report.best_epoch}, "
              f"best_valid_hr10 {report.extra['best_valid_hr10']:.4f}")


def _write_report(path: Path, report: TrainReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,loss\n")
        for epoch, loss in enumerate(report.epoch_losses):
            fh.write(f"{epoch},{loss!r}\n")


# ---------------------------------------------------------------------------
# stage commands
# ---------------------------------------------------------------------------

def cmd_preprocess(cfg: RunConfig, args) -> int:
    path, stats_path = _outputs(cfg, args, "dataset.ckpt", "stats.csv")
    records = ingest_tsv(cfg.data_path)
    if cfg.min_timestamp >= 0:
        records = [r for r in records if r.timestamp >= cfg.min_timestamp]
    records = kcore_filter(records, k=cfg.kcore_k)
    if not records:
        raise DataError("no interactions left after filtering")
    dataset = build_splits(records)
    if dataset.n_users == 0:
        raise DataError("no users left after split construction")
    path.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(path, dataset, cfg)

    stats = dataset.stats()
    print(f"{'users':>10} {'items':>10} {'actions':>10} {'avg_len':>10} {'sparsity':>10}")
    print(f"{stats['users']:>10} {stats['items']:>10} {stats['actions']:>10} "
          f"{stats['avg_length']:>10.2f} {stats['sparsity']:>10.4%}")
    with open(stats_path, "w", encoding="utf-8") as fh:
        fh.write("users,items,actions,avg_length,sparsity\n")
        fh.write(f"{stats['users']},{stats['items']},{stats['actions']},"
                 f"{stats['avg_length']!r},{stats['sparsity']!r}\n")
    print(f"wrote {path}")
    return 0


def cmd_pretrain(cfg: RunConfig, args) -> int:
    path, report_path = _outputs(cfg, args, "pretrain.ckpt", "pretrain_report.csv")
    dataset, ds_manifest = load_dataset(_require(path.parent / "dataset.ckpt", "preprocess"), cfg)
    params, report = pretrain(dataset, cfg.hyper(), cfg.pretrain_epochs,
                              early_stop_patience=cfg.early_stop_patience)
    save_model(path, params, "pretrain", cfg,
               upstream={"preprocess": ds_manifest["blob_sha256"]}, report=report)
    _write_report(report_path, report)
    _print_speed(report, dataset.n_users)
    print(f"pretrained {len(report.epoch_losses)} epochs, "
          f"final loss {report.epoch_losses[-1]:.4f}; wrote {path}")
    return 0


def _k_value(cfg: RunConfig, args) -> int:
    return cfg.prompt_window if args.k is None else args.k


def _load_pretrained(cfg: RunConfig, d: Path, ds_manifest: dict,
                     stage: str) -> tuple[ModelParams, dict]:
    """pretrain.ckpt, refused unless it was trained on the run's dataset."""
    path = _require(d / "pretrain.ckpt", "pretrain")
    params, manifest = load_model(path, cfg, "pretrain", hyper=cfg.hyper())
    _verify_upstream_hash(path, manifest, "preprocess", ds_manifest["blob_sha256"], stage)
    return params, manifest


def _load_tuned(cfg: RunConfig, d: Path, K: int, pre_manifest: dict, stage: str) -> ModelParams:
    path = _require(d / f"tuned_K{K}.ckpt", f"tune --k {K}")
    tuned, manifest = load_model(path, cfg, "tune", hyper=cfg.hyper())
    _verify_upstream_hash(path, manifest, "pretrain", pre_manifest["blob_sha256"], stage)
    return tuned


def _saved_prompts(cfg: RunConfig, d: Path, dataset: SplitDataset, K: int,
                   pre_manifest: dict, stage: str) -> list[PromptEnhancedSequence]:
    """prompts_K{K}.ckpt, checked against the dataset and refused unless it
    was generated from the run's pretrained model."""
    path = _require(d / f"prompts_K{K}.ckpt", f"gen-prompts --k {K}")
    prompts, manifest = load_prompts(path, cfg, dataset, K)
    _verify_upstream_hash(path, manifest, "pretrain", pre_manifest["blob_sha256"], stage)
    return prompts


def _new_prompts(path: Path, dataset: SplitDataset, pre: ModelParams, K: int,
                 cfg: RunConfig, pre_manifest: dict) -> list[PromptEnhancedSequence]:
    prompts = generate_prompt_cache(dataset, pre, K)
    save_prompts(path, prompts, K, cfg, upstream={"pretrain": pre_manifest["blob_sha256"]})
    return prompts


def _tune_options(cfg: RunConfig) -> dict:
    return {"loss_positions": cfg.loss_positions, "trainable": cfg.trainable,
            "early_stop_patience": cfg.early_stop_patience,
            "regen_every": cfg.regen_every or None}


def cmd_gen_prompts(cfg: RunConfig, args) -> int:
    K = _k_value(cfg, args)
    [path] = _outputs(cfg, args, f"prompts_K{K}.ckpt")
    dataset, ds_manifest = load_dataset(_require(path.parent / "dataset.ckpt", "preprocess"), cfg)
    params, pre_manifest = _load_pretrained(cfg, path.parent, ds_manifest, "gen-prompts")
    _new_prompts(path, dataset, params, K, cfg, pre_manifest)
    print(f"generated prompts for {dataset.n_users} users at K={K}; wrote {path}")
    return 0


def cmd_tune(cfg: RunConfig, args) -> int:
    K = _k_value(cfg, args)
    path, report_path = _outputs(cfg, args, f"tuned_K{K}.ckpt", f"tune_K{K}_report.csv")
    d = path.parent
    dataset, ds_manifest = load_dataset(_require(d / "dataset.ckpt", "preprocess"), cfg)
    pre, pre_manifest = _load_pretrained(cfg, d, ds_manifest, "tune")
    hyper = replace(cfg.hyper(), prompt_window=K)
    prompt_path = d / f"prompts_K{K}.ckpt"
    if prompt_path.exists():
        prompts = _saved_prompts(cfg, d, dataset, K, pre_manifest, "tune")
    else:
        prompts = _new_prompts(prompt_path, dataset, pre, K, cfg, pre_manifest)
    tuned, report = prompt_tune(dataset, pre, prompts, hyper, cfg.tune_epochs,
                                **_tune_options(cfg))
    save_model(path, tuned, "tune", cfg,
               upstream={"pretrain": pre_manifest["blob_sha256"]}, report=report)
    _write_report(report_path, report)
    _print_speed(report, dataset.n_users)
    print(f"tuned {len(report.epoch_losses)} epochs at K={K}; wrote {path}")
    return 0


def _mode_k(cfg: RunConfig, mode: str) -> int:
    """Prompt window a mode is evaluated at: FINETUNE is the K=0-tuned model."""
    return 0 if mode == "FINETUNE" else cfg.prompt_window


def _load_for_eval(cfg: RunConfig, d: Path, dataset: SplitDataset, ds_manifest: dict,
                   modes) -> tuple[ModelParams, dict, dict]:
    """The pretrained model (every mode needs it, for scoring, prompts or the
    upstream check) and, keyed by K, each tuned model a mode reads in MODES
    and, for K > 0, the eval split's prompt-enhanced inputs, continued once
    from the saved prompt cache and shared by every mode."""
    pretrained, pre_manifest = _load_pretrained(cfg, d, ds_manifest, "eval")
    ks = sorted({_mode_k(cfg, mode) for mode in modes if MODES[mode][0] == "tuned"})
    tuned = {K: _load_tuned(cfg, d, K, pre_manifest, "eval") for K in ks}
    prompts = {K: prompt_inputs(dataset, cfg.eval_split, pretrained,
                                _saved_prompts(cfg, d, dataset, K, pre_manifest, "eval"), K)
               for K in ks if K > 0}
    return pretrained, tuned, prompts


def cmd_eval(cfg: RunConfig, args) -> int:
    split = cfg.eval_split
    modes = cfg.modes()
    dumps = [f"recall_{mode}_{split}.csv" for mode in modes] if args.dump else []
    csv_path, *dump_paths = _outputs(cfg, args, f"eval_{split}.csv", *dumps)
    d = csv_path.parent
    dataset, ds_manifest = load_dataset(_require(d / "dataset.ckpt", "preprocess"), cfg)
    pretrained, tuned, prompts = _load_for_eval(cfg, d, dataset, ds_manifest, modes)
    rows = ["mode,metric,k,value,n_users"]
    for i, mode in enumerate(modes):
        K = _mode_k(cfg, mode)
        report = evaluate(
            dataset, split, mode, pretrained=pretrained, tuned=tuned.get(K),
            ks=cfg.ks(), m=cfg.recall_m, n=cfg.recall_n, prompt_k=K,
            filter_history=cfg.filter_history,
            dump_path=dump_paths[i] if args.dump else None, prompts=prompts.get(K),
        )
        print(report.table())
        print()
        rows.extend(report.csv_rows())
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"wrote {csv_path}")
    return 0


def cmd_sweep(cfg: RunConfig, args) -> int:
    [path] = _outputs(cfg, args, f"sweep_{cfg.sweep_axis}.csv")
    d = path.parent
    dataset, ds_manifest = load_dataset(_require(d / "dataset.ckpt", "preprocess"), cfg)
    pretrained, pre_manifest = _load_pretrained(cfg, d, ds_manifest, "sweep")
    ks = cfg.ks()
    if cfg.sweep_axis == "m_n":
        K = cfg.prompt_window
        tuned = _load_tuned(cfg, d, K, pre_manifest, "sweep")
        prompts = _saved_prompts(cfg, d, dataset, K, pre_manifest, "sweep") if K else None
        table = sweep_mn(dataset, cfg.eval_split, pretrained, tuned,
                         grid=mn_grid(max(ks)), ks=ks, prompt_k=K,
                         filter_history=cfg.filter_history, prompts=prompts)
    else:
        table = sweep_k(dataset, cfg.eval_split, pretrained, cfg.hyper(),
                        cfg.tune_epochs, ks=ks,
                        m=cfg.recall_m, n=cfg.recall_n,
                        filter_history=cfg.filter_history,
                        tune_kwargs=_tune_options(cfg))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(table.csv() + "\n")
    print(table.csv())
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

COMMANDS = {
    "preprocess": cmd_preprocess,
    "pretrain": cmd_pretrain,
    "gen-prompts": cmd_gen_prompts,
    "tune": cmd_tune,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recgpt",
        description="Two-stage GPT-decoder sequential recommender pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to key = value config file")
        p.add_argument("--force", action="store_true", help="overwrite existing artifacts")
        p.add_argument("--out", default=None, help="override the output directory root")
        if name in ("gen-prompts", "tune"):
            p.add_argument("--k", type=int, default=None,
                           help="override the prompt window size for this stage")
        if name == "eval":
            p.add_argument("--dump", action="store_true",
                           help="write per-user recall CSVs next to the report")
    return parser


def retain_freed_memory() -> None:
    """Let the stages reuse freed numpy temporaries instead of faulting fresh
    pages in for each one; glibc only, a no-op where mallopt is missing.

    glibc's defaults map every block of 128 KiB or more on its own and hand
    free memory at the top of the heap back to the OS, so each stacked
    activation a call frees is page-faulted in again by the next call: on
    perfbench's long_history workload a pretrain stage took about 27,000
    minor faults and a sweep 2,400 to 5,300, at a cost that varies with the
    host. Blocks up to
    HEAP_BLOCK_BYTES come from the heap, which is trimmed only past twice
    that free, the thresholds glibc's dynamic rule itself sets once a block
    of that size is freed.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, HEAP_BLOCK_BYTES)
    mallopt(M_TRIM_THRESHOLD, 2 * HEAP_BLOCK_BYTES)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    retain_freed_memory()
    try:
        cfg = parse_config(args.config)
        return COMMANDS[args.command](cfg, args)
    except (ConfigError, StageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, CheckpointError, EvalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericsError, TrainingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
