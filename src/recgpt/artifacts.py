"""The checkpoints of a run directory, each declared once, and the one loader
that checks them.

A run is the chain dataset.ckpt -> pretrain.ckpt -> prompts_K{K}.ckpt, with
tuned_K{K}.ckpt also built on pretrain.ckpt. Each checkpoint past the first
records, in meta["upstream"], the blob hash of the checkpoint it was built
from. `_read` checks every checkpoint in one order, so a file that is stale
is reported as stale before its contents are compared with the run:

1. the file exists;
2. `checkpoint.load` (container, checksum, tensor directory);
3. the config hash is the run's;
4. the declared tensors are present;
5. the declared meta keys are present and well-typed;
6. the recorded upstream blob hash is the upstream checkpoint's;
7. only then decoding and the content checks.

Every refusal names the file first and, last, the command that rebuilds it.
Steps 1, 3 and 6 raise StageError (exit 2), the others CheckpointError
(exit 3).
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import checkpoint
from .checkpoint import CheckpointError
from .config import RunConfig
from .data import Catalog, SplitDataset
from .model import PROMPT, REAL, HyperParams, ModelParams
from .training import PromptEnhancedSequence, TrainReport


class StageError(RuntimeError):
    """Artifact bookkeeping problem (missing/stale/preexisting artifact)."""


def _is_int(v, low: int) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= low


# meta value types: (what the value must be, check)
_STRINGS = ("a list of strings", lambda v: isinstance(v, list)
            and all(isinstance(x, str) for x in v))
_POSITIVE = ("a positive integer", lambda v: _is_int(v, 1))
_COUNT = ("a non-negative integer", lambda v: _is_int(v, 0))
_HASHES = ("a dict of strings", lambda v: isinstance(v, dict)
           and all(isinstance(x, str) for x in (*v, *v.values())))


@dataclass(frozen=True)
class Artifact:
    file: str                 # name in the run directory; {K} is the prompt window
    stage: str                # the stage that writes it, also its manifest stage tag
    tensors: tuple[str, ...]  # in blob order; a model's are its ModelParams names
    meta: dict                # meta key -> value type, in the order save and load pass them
    upstream: str | None      # stage whose checkpoint's blob hash meta["upstream"] holds

    def name(self, K: int | None = None) -> str:
        return self.file.format(K=K)

    def command(self, path) -> str:
        """`recgpt <stage>`, with `--k K` read back from path's name when the
        file name carries the prompt window."""
        head, k, tail = self.file.partition("{K}")
        name = Path(path).name
        return f"recgpt {self.stage}" + (f" --k {name[len(head):len(name) - len(tail)]}"
                                         if k else "")


DATASET = Artifact("dataset.ckpt", "preprocess",
                   ("seq_flat", "seq_offsets", "valid_target", "test_target"),
                   {"users": _STRINGS, "items": _STRINGS}, None)
PRETRAINED = Artifact("pretrain.ckpt", "pretrain", (),
                      {"n_users": _POSITIVE, "n_items": _POSITIVE}, "preprocess")
PROMPTS = Artifact("prompts_K{K}.ckpt", "gen-prompts", ("items", "segments", "offsets"),
                   {"n_users": _POSITIVE, "K": _COUNT}, "pretrain")
TUNED = Artifact("tuned_K{K}.ckpt", "tune", (),
                 {"n_users": _POSITIVE, "n_items": _POSITIVE}, "pretrain")
ARTIFACTS = {a.stage: a for a in (DATASET, PRETRAINED, PROMPTS, TUNED)}


def _read(art: Artifact, path, cfg: RunConfig, upstream: dict | None, decode):
    """Steps 1-7 of the module docstring for path as art; returns
    (decode(path, tensors, *declared meta values), manifest). The upstream
    hash is checked against the upstream manifest when one is given."""
    if not Path(path).exists():
        raise StageError(f"{path}: missing; run `{art.command(path)}` first")
    try:
        tensors, manifest = checkpoint.load(path)
        if manifest.get("config_hash") != cfg.config_hash():
            raise StageError(f"{path}: made under another config (hash "
                             f"{str(manifest.get('config_hash'))[:12]} != "
                             f"{cfg.config_hash()[:12]})")
        for name in art.tensors:
            if name not in tensors:
                raise CheckpointError(f"{path}: checkpoint missing tensor {name}")
        meta = manifest.get("meta")
        typed = dict(art.meta, upstream=_HASHES) if art.upstream else art.meta
        for key, (what, check) in typed.items():
            if not isinstance(meta, dict) or key not in meta:
                raise CheckpointError(f"{path}: manifest meta missing key {key!r}")
            if not check(meta[key]):
                raise CheckpointError(f"{path}: manifest meta key {key!r} must be {what}, "
                                      f"got {meta[key]!r:.40}")
        if upstream is not None:
            recorded, found = meta["upstream"].get(art.upstream), upstream["blob_sha256"]
            if recorded != found:
                raise StageError(f"{path}: upstream {art.upstream} hash mismatch "
                                 f"(recorded {str(recorded)[:12]}, found {found[:12]})")
        return decode(path, tensors, *(meta[key] for key in art.meta)), manifest
    except (StageError, CheckpointError) as exc:
        raise type(exc)(f"{exc}; rebuild it with `{art.command(path)} --force`") from exc


def _write(art: Artifact, path, cfg: RunConfig, tensors, meta: tuple,
           upstream: dict | None = None, **extra) -> None:
    """Save path as art: tensors as values in declared order (a model's as
    its name -> value dict), meta as values in declared order plus extra, and
    the upstream manifest's blob hash as meta["upstream"]."""
    meta = dict(zip(art.meta, meta), **extra)
    if art.upstream:
        meta["upstream"] = {art.upstream: upstream["blob_sha256"]}
    checkpoint.save(path, dict(zip(art.tensors, tensors)) if art.tensors else tensors,
                    stage=art.stage, config_hash=cfg.config_hash(), meta=meta)


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
    targets = (dataset.valid_target.astype(np.int64), dataset.test_target.astype(np.int64))
    _write(DATASET, path, cfg, (*_pack(dataset.sequences), *targets),
           (dataset.catalog.users, dataset.catalog.items))


def _dataset(path, tensors: dict, users: list, items: list) -> SplitDataset:
    seq_flat, offsets, *targets = (tensors[name] for name in DATASET.tensors)
    catalog = Catalog(users=list(users), items=list(items))
    sequences = _unpack(path, seq_flat, offsets, catalog.n_users, catalog.n_items, "item id")
    for name, target in zip(DATASET.tensors[2:], targets):
        _unpack(path, target, np.asarray([0, catalog.n_users]), 1, catalog.n_items, name)
    return SplitDataset(sequences, *targets, catalog)


def load_dataset(path, cfg: RunConfig) -> tuple[SplitDataset, dict]:
    return _read(DATASET, path, cfg, None, _dataset)


def save_model(path, params: ModelParams, stage: str, cfg: RunConfig, upstream: dict,
               report: TrainReport) -> None:
    # wall time is deliberately excluded: checkpoints must be bit-identical
    # across reruns of the same config
    _write(ARTIFACTS[stage], path, cfg, params.tensors(), (params.n_users, params.n_items),
           upstream, hyper=vars(params.hyper), report={
               "epochs": len(report.epoch_losses),
               "final_loss": report.epoch_losses[-1] if report.epoch_losses else None,
               "best_epoch": report.best_epoch,
           })


def load_model(path, cfg: RunConfig, stage: str, hyper: HyperParams,
               upstream: dict | None = None) -> tuple[ModelParams, dict]:
    """The model a training stage wrote, rebuilt with hyper; refused unless
    every tensor has its shape and holds finite values, and the checkpoint
    holds no tensor the model does not declare."""
    def decode(path, tensors, n_users, n_items):
        try:
            params = ModelParams(n_users, n_items, hyper, tensors=tensors)
        except (KeyError, ValueError) as exc:
            raise CheckpointError(f"{path}: {exc.args[0]}") from exc
        for p in params.parameters():
            if not np.all(np.isfinite(p.value)):
                raise CheckpointError(f"{path}: tensor {p.name} holds non-finite values")
        return params
    return _read(ARTIFACTS[stage], path, cfg, upstream, decode)


def save_prompts(path, prompts: list[PromptEnhancedSequence], K: int,
                 cfg: RunConfig, upstream: dict) -> None:
    items, offsets = _pack([p.items for p in prompts])
    segments, _ = _pack([p.segments for p in prompts])
    _write(PROMPTS, path, cfg, (items, segments, offsets), (len(prompts), K), upstream)


def load_prompts(path, cfg: RunConfig, dataset: SplitDataset, K: int,
                 upstream: dict | None = None) -> tuple[list[PromptEnhancedSequence], dict]:
    """The prompt cache of the dataset's train prefixes at prompt window K.
    Refused unless it has one row per user, every id is in the catalog, its
    manifest K is K, and row u holds dataset.sequences[u] as its REAL items
    in the layout law of generate_prompts."""
    def decode(path, tensors, n_rows, saved_k):
        if n_rows != dataset.n_users or saved_k != K:
            raise CheckpointError(f"{path}: prompts for {n_rows} users at K={saved_k}, "
                                  f"expected {dataset.n_users} users at K={K}")
        items, segments, offsets = (tensors[name] for name in PROMPTS.tensors)
        items = _unpack(path, items, offsets, n_rows, dataset.catalog.n_items, "item id")
        segments = _unpack(path, segments, offsets, n_rows, 2, "segment (REAL or PROMPT)")
        prompts = [PromptEnhancedSequence(i, s) for i, s in zip(items, segments)]
        for u, (pes, seq) in enumerate(zip(prompts, dataset.sequences)):
            layout = [REAL] + ([PROMPT] * K + [REAL]) * (len(seq) - 1) if seq else []
            if pes.segments != layout or pes.real_items != seq:
                raise CheckpointError(f"{path}: row {u} is not user {u}'s train prefix with "
                                      f"{K} prompts before each real item after the first")
        return prompts
    return _read(PROMPTS, path, cfg, upstream, decode)
