"""Pipeline CLI: preprocess -> pretrain -> gen-prompts -> tune -> eval/sweep.

Each stage writes its outputs into a run directory keyed by the config hash
and refuses to overwrite them without --force. The checkpoints, and the one
loader that checks each against the run and against the checkpoint it was
built from, are in recgpt.artifacts; this module is the pipeline.
"""
from __future__ import annotations

import argparse
import ctypes
import sys
from pathlib import Path

from .artifacts import (DATASET, PRETRAINED, PROMPTS, TUNED, StageError, load_dataset,
                        load_model, load_prompts, save_dataset, save_model, save_prompts)
from .checkpoint import CheckpointError
from .config import ConfigError, RunConfig, parse_config
from .data import DataError, build_splits, ingest_tsv, kcore_filter
from .evaluation import MODES, EvalError, evaluate, mn_grid, prompt_inputs, sweep_k, sweep_mn
from .numerics import NumericsError
from .training import TrainingError, TrainReport, generate_prompt_cache, prompt_tune, pretrain

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# glibc mallopt parameter numbers, from malloc.h
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
# blocks up to this size come from the heap; twice it may stay there freed
HEAP_BLOCK_BYTES = 4 << 20


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


def _print_speed(report: TrainReport, n_users: int) -> None:
    """Wall time and user-epochs/s of a training stage, and, with early
    stopping, the epoch kept; stdout only, as wall time must stay out of
    the checkpoints and report CSVs."""
    epochs = len(report.epoch_losses)
    print(f"{report.stage}: {epochs} epochs in {report.wall_time:.3f} s, "
          f"{n_users * epochs / max(report.wall_time, 1e-9):.1f} user-epochs/s")
    if report.best_valid_hr10 is not None:
        print(f"best epoch {report.best_epoch}, best_valid_hr10 {report.best_valid_hr10:.4f}")


def _write_report(path: Path, report: TrainReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,loss\n")
        for epoch, loss in enumerate(report.epoch_losses):
            fh.write(f"{epoch},{loss!r}\n")


# ---------------------------------------------------------------------------
# stage commands
# ---------------------------------------------------------------------------

def cmd_preprocess(cfg: RunConfig, args) -> int:
    path, stats_path = _outputs(cfg, args, DATASET.name(), "stats.csv")
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
    path, report_path = _outputs(cfg, args, PRETRAINED.name(), "pretrain_report.csv")
    dataset, ds_manifest = load_dataset(path.parent / DATASET.name(), cfg)
    params, report = pretrain(dataset, cfg.hyper(), cfg.pretrain_epochs,
                              early_stop_patience=cfg.early_stop_patience)
    save_model(path, params, "pretrain", cfg, ds_manifest, report)
    _write_report(report_path, report)
    _print_speed(report, dataset.n_users)
    print(f"pretrained {len(report.epoch_losses)} epochs, "
          f"final loss {report.epoch_losses[-1]:.4f}; wrote {path}")
    return 0


def _tune_options(cfg: RunConfig) -> dict:
    return {"loss_positions": cfg.loss_positions,
            "early_stop_patience": cfg.early_stop_patience}


def cmd_gen_prompts(cfg: RunConfig, args) -> int:
    K = cfg.prompt_window if args.k is None else args.k
    [path] = _outputs(cfg, args, PROMPTS.name(K))
    dataset, ds_manifest = load_dataset(path.parent / DATASET.name(), cfg)
    params, pre_manifest = load_model(path.parent / PRETRAINED.name(), cfg, "pretrain",
                                      cfg.hyper(), ds_manifest)
    save_prompts(path, generate_prompt_cache(dataset, params, K), K, cfg, pre_manifest)
    print(f"generated prompts for {dataset.n_users} users at K={K}; wrote {path}")
    return 0


def cmd_tune(cfg: RunConfig, args) -> int:
    K = cfg.prompt_window if args.k is None else args.k
    path, report_path = _outputs(cfg, args, TUNED.name(K), f"tune_K{K}_report.csv")
    d = path.parent
    dataset, ds_manifest = load_dataset(d / DATASET.name(), cfg)
    pre, pre_manifest = load_model(d / PRETRAINED.name(), cfg, "pretrain", cfg.hyper(),
                                   ds_manifest)
    prompt_path = d / PROMPTS.name(K)
    if prompt_path.exists():
        prompts, _ = load_prompts(prompt_path, cfg, dataset, K, pre_manifest)
    else:
        prompts = generate_prompt_cache(dataset, pre, K)
        save_prompts(prompt_path, prompts, K, cfg, pre_manifest)
    tuned, report = prompt_tune(dataset, pre, prompts, cfg.hyper(), cfg.tune_epochs,
                                **_tune_options(cfg))
    save_model(path, tuned, "tune", cfg, pre_manifest, report)
    _write_report(report_path, report)
    _print_speed(report, dataset.n_users)
    print(f"tuned {len(report.epoch_losses)} epochs at K={K}; wrote {path}")
    return 0


def _mode_k(cfg: RunConfig, mode: str) -> int:
    """Prompt window a mode is evaluated at: FINETUNE is the K=0-tuned model."""
    return 0 if mode == "FINETUNE" else cfg.prompt_window


def cmd_eval(cfg: RunConfig, args) -> int:
    split = cfg.eval_split
    modes = cfg.modes()
    dumps = [f"recall_{mode}_{split}.csv" for mode in modes] if args.dump else []
    csv_path, *dump_paths = _outputs(cfg, args, f"eval_{split}.csv", *dumps)
    d = csv_path.parent
    dataset, ds_manifest = load_dataset(d / DATASET.name(), cfg)
    pretrained, pre_manifest = load_model(d / PRETRAINED.name(), cfg, "pretrain", cfg.hyper(),
                                          ds_manifest)
    # keyed by K: each tuned model a mode reads and, for K > 0, the split's
    # prompt-enhanced inputs, continued once from the saved cache for every mode
    tuned, prompts = {}, {}
    for K in sorted({_mode_k(cfg, mode) for mode in modes if MODES[mode][0] == "tuned"}):
        tuned[K], _ = load_model(d / TUNED.name(K), cfg, "tune", cfg.hyper(), pre_manifest)
        if K:
            cache, _ = load_prompts(d / PROMPTS.name(K), cfg, dataset, K, pre_manifest)
            prompts[K] = prompt_inputs(dataset, split, pretrained, cache, K)
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
    dataset, ds_manifest = load_dataset(d / DATASET.name(), cfg)
    pretrained, pre_manifest = load_model(d / PRETRAINED.name(), cfg, "pretrain", cfg.hyper(),
                                          ds_manifest)
    ks = cfg.ks()
    if cfg.sweep_axis == "m_n":
        K = cfg.prompt_window
        tuned, _ = load_model(d / TUNED.name(K), cfg, "tune", cfg.hyper(), pre_manifest)
        prompts = (load_prompts(d / PROMPTS.name(K), cfg, dataset, K, pre_manifest)[0]
                   if K else None)
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
