"""Outside-in span tracer for the recgpt layers.

``traced(tracer)`` wraps the layer-boundary functions listed in ``LAYERS``
and rebinds every ``recgpt`` module attribute that refers to one of them
(``recgpt.training.forward`` and ``recgpt.recall.forward`` as well as
``recgpt.model.forward``), then restores the originals on exit. Each call
records a span: name, start, end, parent span and stage id. Spans live in
compact in-memory arrays and are written out only when the benchmark ends.
Counters that give a layer's work (rows, items sorted, bytes, ...) are taken
at the same boundaries by small per-function hooks.
"""
from __future__ import annotations

import importlib
import os
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

import numpy as np

# module -> layer-boundary functions. Kernels inside a layer (decoder_block,
# masked_softmax, ...) are deliberately not wrapped: their call counts would
# make tracing cost more than the work it measures.
LAYERS = {
    "recgpt.data": ("ingest_tsv", "kcore_filter", "build_splits", "sample_negatives",
                    "truncate_last", "iter_batches"),
    "recgpt.model": ("forward", "backward", "score_items", "rank_items"),
    "recgpt.numerics": ("bce_pair_loss", "cross_entropy", "adam_step"),
    "recgpt.training": ("pretrain", "prompt_tune", "generate_prompts", "generate_prompt_cache"),
    "recgpt.recall": ("recall_one_step", "recall_two_step"),
    "recgpt.evaluation": ("evaluate", "sweep_mn"),
    "recgpt.checkpoint": ("save", "load"),
    "recgpt.cli": ("save_dataset", "load_dataset", "save_model", "load_model",
                   "save_prompts", "load_prompts"),
}
GENERATORS = {"data.iter_batches"}


def _arg(args, kwargs, pos, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _count_forward(t, args, kwargs, result):
    t.counters["model.forward.rows"] += result[0].shape[0]


def _count_rank(t, args, kwargs, result):
    t.counters["model.rank_items.items_sorted"] += args[0].shape[0]
    t.counters["model.rank_items.items_returned"] += len(result)
    exclude = _arg(args, kwargs, 2, "exclude")
    if exclude:
        t.counters["model.rank_items.excluded"] += len(exclude)


def _count_truncate(t, args, kwargs, result):
    if len(args[0]) > _arg(args, kwargs, 2, "max_len"):
        t.counters["data.truncate_last.truncated"] += 1


def _count_prompts(t, args, kwargs, result):
    # split by caller: the prompt cache (gen-prompts, tune) or evaluation
    t.counters[f"training.generate_prompts.tokens@{t.current()}"] += sum(result.segments)


def _count_evaluate(t, args, kwargs, result):
    t.counters["evaluation.evaluate.users"] += result.n_users


def _count_adam(t, args, kwargs, result):
    t.counters["numerics.adam_step.elements"] += args[0].value.size


def _count_file_bytes(name):
    def hook(t, args, kwargs, result):
        t.counters[f"{name}.bytes"] += os.path.getsize(args[0])
    return hook


HOOKS = {
    "model.forward": _count_forward,
    "model.rank_items": _count_rank,
    "data.truncate_last": _count_truncate,
    "training.generate_prompts": _count_prompts,
    "evaluation.evaluate": _count_evaluate,
    "numerics.adam_step": _count_adam,
    "checkpoint.save": _count_file_bytes("checkpoint.save"),
    "checkpoint.load": _count_file_bytes("checkpoint.load"),
}


class Tracer:
    """Spans in parallel arrays; ``stage`` tags every span opened meanwhile."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.stage_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stages: list[str] = []
        self._stack: list[int] = []
        self._stage = -1
        self.counters: dict[str, float] = defaultdict(float)

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.stage_id.append(self._stage)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def current(self) -> str:
        """Name of the innermost open span, or '' outside any span."""
        return self.names[self.name_id[self._stack[-1]]] if self._stack else ""

    @contextmanager
    def stage(self, name: str):
        """A root span for one pipeline stage; nested spans carry its id."""
        if self._stack:
            raise RuntimeError("a stage must be a root span")
        self._stage = len(self.stages)
        self.stages.append(name)
        idx = self.open(f"stage.{name}")
        try:
            yield
        finally:
            self.close(idx)
            self._stage = -1

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = end - start
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).astype(np.int64),
            "parent": parent,
            "stage_id": np.frombuffer(self.stage_id, dtype=np.int32).astype(np.int64),
            "start": start,
            "end": end,
            "duration": dur,
            "self": dur - covered,
        }

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, overall and per stage."""
        a = self.arrays()
        out = {"by_name": {}, "by_stage": {}}
        n_names = len(self.names)
        calls = np.bincount(a["name_id"], minlength=n_names)
        total = np.bincount(a["name_id"], weights=a["duration"], minlength=n_names)
        self_s = np.bincount(a["name_id"], weights=a["self"], minlength=n_names)
        for i, name in enumerate(self.names):
            out["by_name"][name] = {"calls": int(calls[i]), "total_s": float(total[i]),
                                    "self_s": float(self_s[i])}
        for sid, stage in enumerate(self.stages):
            mask = a["stage_id"] == sid
            names = a["name_id"][mask]
            per = np.bincount(names, weights=a["self"][mask], minlength=n_names)
            root = int(np.flatnonzero(mask)[0])
            out["by_stage"][stage] = {
                "wall_s": float(a["duration"][root]),
                "self_s": {self.names[i]: float(per[i]) for i in np.flatnonzero(per)},
            }
        return out

    def parent_names(self, name: str) -> dict[str, dict]:
        """For spans called ``name``: calls and self seconds by parent name."""
        a = self.arrays()
        nid = self._ids.get(name)
        out: dict[str, dict] = {}
        if nid is None:
            return out
        idx = np.flatnonzero(a["name_id"] == nid)
        parents = a["parent"][idx]
        pnames = np.where(parents >= 0, a["name_id"][np.maximum(parents, 0)], -1)
        for pid in np.unique(pnames):
            sel = pnames == pid
            key = self.names[pid] if pid >= 0 else ""
            out[key] = {"calls": int(sel.sum()), "self_s": float(a["self"][idx[sel]].sum())}
        return out

    def save(self, path) -> None:
        a = self.arrays()
        np.savez_compressed(path, names=np.asarray(self.names), stages=np.asarray(self.stages),
                            **{k: a[k] for k in ("name_id", "parent", "stage_id", "start", "end")})


def _wrap(tracer: Tracer, name: str, fn):
    hook = HOOKS.get(name)
    if name in GENERATORS:
        @wraps(fn)
        def gen_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = tracer.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(idx)
                yield item
        return gen_wrapper

    @wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result
    return wrapper


def _recgpt_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "recgpt" or n.startswith("recgpt."))]


@contextmanager
def traced(tracer: Tracer):
    """Rebind every recgpt reference to a layer function to a tracing wrapper.

    Yields the ``(module, attribute, original)`` triples that were rebound.
    """
    by_id = {}
    for modname, names in LAYERS.items():
        module = importlib.import_module(modname)
        layer = modname.split(".", 1)[1]
        for fname in names:
            fn = getattr(module, fname)
            by_id[id(fn)] = (fn, _wrap(tracer, f"{layer}.{fname}", fn))
    rebound = []
    try:
        for module in _recgpt_modules():
            for attr, value in list(vars(module).items()):
                entry = by_id.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    rebound.append((module, attr, value))
        yield rebound
    finally:
        for module, attr, value in rebound:
            setattr(module, attr, value)
