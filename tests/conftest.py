"""Shared synthetic dataset builders and tiny-model helpers."""
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from recgpt.checkpoint import MAGIC
from recgpt.data import Catalog, SplitDataset
from recgpt.model import HyperParams, ModelParams
from recgpt.numerics import NumericsError

# property tests replay the same examples on every run, keep no example
# database and stay within the tier-1 time budget; hypothesis still caches the
# constants it reads from source files, so its storage lives outside the checkout
settings.register_profile("recgpt", derandomize=True, database=None, max_examples=40,
                          deadline=None)
settings.load_profile("recgpt")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "recgpt-hypothesis")


def rewrite_manifest(path, edit):
    """Apply edit to the manifest of a checkpoint, keeping its blob (and so
    its checksum) as it is."""
    raw = path.read_bytes()
    end = 12 + int(np.frombuffer(raw[8:12], dtype="<u4")[0])
    manifest = json.loads(raw[12:end])
    edit(manifest)
    payload = json.dumps(manifest).encode("utf-8")
    path.write_bytes(MAGIC + np.array(len(payload), dtype="<u4").tobytes() + payload + raw[end:])


def make_dataset(sequences, valid, test, n_items):
    """Wrap raw per-user index sequences into a SplitDataset."""
    catalog = Catalog(
        users=[f"u{i}" for i in range(len(sequences))],
        items=[f"i{j}" for j in range(n_items)],
    )
    return SplitDataset(
        [list(map(int, s)) for s in sequences],
        np.asarray(valid, dtype=np.int64),
        np.asarray(test, dtype=np.int64),
        catalog,
    )


def cyclic_dataset(n_users=200, length=15, n_items=20, seed=0):
    """Deterministic walk: each user starts at a random item and always moves
    to the next index mod n_items. The generator is the ground-truth oracle:
    the target after item v is always (v + 1) % n_items."""
    rng = np.random.default_rng(seed)
    seqs, valid, test = [], [], []
    for _ in range(n_users):
        start = int(rng.integers(0, n_items))
        full = [(start + t) % n_items for t in range(length)]
        seqs.append(full[:-2])
        valid.append(full[-2])
        test.append(full[-1])
    return make_dataset(seqs, valid, test, n_items)


def lookahead_dataset(n_users=200, length=15, n_items=40, seed=0):
    """Stochastic walk stepping +1 or +2 with equal probability, so the target
    distribution covers both the next and the next-next item of the cycle."""
    rng = np.random.default_rng(seed)
    seqs, valid, test = [], [], []
    for _ in range(n_users):
        cur = int(rng.integers(0, n_items))
        full = [cur]
        for _ in range(length - 1):
            cur = (cur + (2 if rng.random() < 0.5 else 1)) % n_items
            full.append(cur)
        seqs.append(full[:-2])
        valid.append(full[-2])
        test.append(full[-1])
    return make_dataset(seqs, valid, test, n_items)


def noisy_walk_dataset(n_users=300, length=20, n_items=100, p_skip=0.3, seed=1):
    """Walk stepping +1 (probability 1-p_skip) or +2 (p_skip) mod n_items.
    Harder than the lookahead task: the larger catalog keeps HR@10 off its
    ceiling, which is what the prompt-window sweep needs to show a shape."""
    rng = np.random.default_rng(seed)
    seqs, valid, test = [], [], []
    for _ in range(n_users):
        cur = int(rng.integers(0, n_items))
        full = [cur]
        for _ in range(length - 1):
            cur = (cur + (2 if rng.random() < p_skip else 1)) % n_items
            full.append(cur)
        seqs.append(full[:-2])
        valid.append(full[-2])
        test.append(full[-1])
    return make_dataset(seqs, valid, test, n_items)


def tiny_hyper(**overrides):
    base = dict(d=8, n_heads=2, n_layers=1, max_len=12, lr=0.01,
                batch_size=8, neg_count=1, seed=0)
    base.update(overrides)
    return HyperParams(**base)


def tiny_params(n_users=3, n_items=6, seed=0, **hyper_overrides):
    hp = tiny_hyper(seed=seed, **hyper_overrides)
    return ModelParams(n_users, n_items, hp, rng=np.random.default_rng(seed))


def tiny_dataset(n_users=3, n_items=6, length=6, seed=0):
    rng = np.random.default_rng(seed)
    seqs, valid, test = [], [], []
    for _ in range(n_users):
        full = rng.integers(0, n_items, size=length).tolist()
        seqs.append(full[:-2])
        valid.append(full[-2])
        test.append(full[-1])
    return make_dataset(seqs, valid, test, n_items)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def grad_check(fn, inputs, h: float = 1e-5) -> float:
    """Max relative error between fn's analytic gradients and central differences.

    fn(inputs) must return (scalar value, [gradient array per input]) and be
    evaluable in float64. Error per element: |a - n| / max(1e-8, |a| + |n|).
    """
    inputs = [np.array(x, dtype=np.float64) for x in inputs]
    value, analytic = fn(inputs)
    if not np.isfinite(value):
        raise NumericsError("grad_check: non-finite function value")
    max_err = 0.0
    for k, x in enumerate(inputs):
        flat = x.reshape(-1)
        a_flat = np.asarray(analytic[k], dtype=np.float64).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up, _ = fn(inputs)
            flat[i] = orig - h
            down, _ = fn(inputs)
            flat[i] = orig
            num = (up - down) / (2.0 * h)
            err = abs(a_flat[i] - num) / max(1e-8, abs(a_flat[i]) + abs(num))
            max_err = max(max_err, err)
    return max_err
