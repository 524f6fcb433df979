"""GPT-style decoder for next-item prediction.

Architecture, exactly as trained here: token-level input is the sum of a
broadcast user embedding, item embeddings, learned positions, and segment
embeddings (real vs generated-prompt). Each block is masked multi-head
self-attention (scores scaled by sqrt(d), the full model dimension) followed
by a two-layer ReLU FFN. No residuals, no layer norm, no dropout.

Gradients are hand-written: forward() returns caches that backward() consumes.
Both take one user's (L,) row or a stacked (B, L) batch of equal-length rows;
training right-pads a batch's rows to a few length buckets and runs each
bucket as one stacked forward and one stacked backward, whose weight
gradients sum over every row and position (padded positions add zeros).
Inference reads only the final position and runs last_hidden(), a stacked
batch forward without caches whose rows equal forward()'s bit for bit: on
the last layer only the final queries go through the softmax, the weighted
sum, W^S and the FFN. score_items scores one hidden state or a block of them,
each row as its own matrix-vector product.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (
    NumericsError,
    Parameter,
    causal_mask,
    embedding_backward,
    masked_softmax,
    matmul_backward,
    relu,
    relu_backward,
    require_finite,
    softmax_backward,
)

REAL = 0
PROMPT = 1

SCORER_TIED_EMB = "tied"
SCORER_OUTPUT_LAYER = "output"


@dataclass
class HyperParams:
    d: int = 64
    n_heads: int = 2
    n_layers: int = 1
    d_ff: int = 0          # 0 means 4*d
    max_len: int = 50
    lr: float = 0.001
    batch_size: int = 256
    neg_count: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.d < 1 or self.n_heads < 1:
            raise ValueError(f"d={self.d} and n_heads={self.n_heads} must be >= 1")
        if self.d % self.n_heads != 0:
            raise ValueError(f"d={self.d} not divisible by n_heads={self.n_heads}")
        if self.n_layers < 0 or self.d_ff < 0:
            raise ValueError(f"n_layers={self.n_layers} and d_ff={self.d_ff} must be >= 0")
        if self.d_ff == 0:
            self.d_ff = 4 * self.d
        if self.batch_size < 1:
            raise ValueError(f"batch_size={self.batch_size} must be >= 1")
        if self.neg_count < 1:
            raise ValueError(f"neg_count={self.neg_count} must be >= 1")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr={self.lr} must be finite and > 0")
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed={self.seed} must be >= 0")


class ModelParams:
    """All learnable tensors, keyed by name, in a fixed iteration order."""

    def __init__(self, n_users: int, n_items: int, hyper: HyperParams,
                 rng: np.random.Generator | None = None, dtype=np.float32,
                 tensors: dict[str, np.ndarray] | None = None):
        """A fresh initialisation drawn from rng (seeded by hyper.seed when
        None) or, given tensors, a copy of them cast to dtype, drawing
        nothing: a missing tensor raises KeyError, a misshapen one ValueError,
        and so does one the model does not declare (a checkpoint of another
        architecture would otherwise load as a different model)."""
        self.n_users = n_users
        self.n_items = n_items
        self.hyper = hyper
        self.dtype = dtype
        if rng is None and tensors is None:
            rng = np.random.default_rng(hyper.seed)

        def normal(shape):
            return (rng.standard_normal(shape) * 0.02).astype(dtype)

        def glorot(shape):
            # blocks carry no residual path, so embedding-scale init would
            # collapse activations; Glorot keeps them at input scale
            scale = np.sqrt(2.0 / (shape[0] + shape[1]))
            return (rng.standard_normal(shape) * scale).astype(dtype)

        def zeros(shape):
            return np.zeros(shape, dtype=dtype)

        d, dff = hyper.d, hyper.d_ff
        self._params: dict[str, Parameter] = {}

        def add(name, shape, init):
            if tensors is None:
                value = init(shape)
            elif name not in tensors:
                raise KeyError(f"checkpoint missing tensor {name}")
            elif tensors[name].shape != shape:
                raise ValueError(f"tensor {name}: shape {tensors[name].shape} != {shape}")
            else:
                value = tensors[name].astype(dtype)
            self._params[name] = Parameter(name, value)

        add("W_u", (n_users, d), normal)
        add("W_e", (n_items, d), normal)
        add("W_p", (hyper.max_len, d), normal)
        add("W_s", (2, d), zeros)
        for l in range(hyper.n_layers):
            add(f"layer{l}.W_q", (d, d), glorot)
            add(f"layer{l}.W_k", (d, d), glorot)
            add(f"layer{l}.W_v", (d, d), glorot)
            add(f"layer{l}.W_s", (d, d), glorot)
            add(f"layer{l}.W_1", (d, dff), glorot)
            add(f"layer{l}.b_1", (dff,), zeros)
            add(f"layer{l}.W_2", (dff, d), glorot)
            add(f"layer{l}.b_2", (d,), zeros)
        add("W_l", (n_items, d), lambda shape: self._params["W_e"].value.copy())
        undeclared = sorted(set(tensors or ()) - set(self._params))
        if undeclared:
            raise ValueError(f"checkpoint holds undeclared tensors {undeclared}")

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def parameters(self) -> list[Parameter]:
        return list(self._params.values())

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.zero_grad()

    def scale_grads(self, factor: float) -> None:
        for p in self._params.values():
            p.grad *= factor

    def copy(self) -> "ModelParams":
        other = ModelParams.__new__(ModelParams)
        other.n_users = self.n_users
        other.n_items = self.n_items
        other.hyper = self.hyper
        other.dtype = self.dtype
        other._params = {
            name: Parameter(name, p.value.copy(), p.grad.copy())
            for name, p in self._params.items()
        }
        return other

    def astype(self, dtype) -> "ModelParams":
        other = self.copy()
        other.dtype = dtype
        for p in other._params.values():
            p.value = p.value.astype(dtype)
            p.grad = p.grad.astype(dtype)
        return other

    def tensors(self) -> dict[str, np.ndarray]:
        return {name: p.value for name, p in self._params.items()}


@dataclass
class BlockCache:
    h_in: np.ndarray
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    probs: list          # per-head attention weights, each (..., L, L)
    att_concat: np.ndarray
    s: np.ndarray        # after the W^S projection
    a1: np.ndarray       # FFN pre-activation
    r1: np.ndarray       # ReLU output


@dataclass
class ForwardCache:
    user: int | np.ndarray   # one user, or (B,) for a stacked batch
    items: np.ndarray
    segments: np.ndarray
    blocks: list


def embed_input(params: ModelParams, user, items, segments) -> np.ndarray:
    """h0[t] = W_u[user] + W_e[items[t]] + W_p[t] + W_s[segments[t]].

    One user's (L,) items give (L, d); users of shape (B,) with (B, L) items
    give the stacked (B, L, d), each slice equal to the per-user sum."""
    items = np.asarray(items)
    segments = np.asarray(segments)
    L = items.shape[-1]
    if L > params.hyper.max_len:
        raise NumericsError(f"sequence length {L} exceeds max_len {params.hyper.max_len}")
    if segments.shape != items.shape:
        raise NumericsError("segments misaligned with items")
    h0 = (
        params["W_u"].value[user][..., None, :]
        + params["W_e"].value[items]
        + params["W_p"].value[:L]
        + params["W_s"].value[segments]
    )
    return h0


def _attention(params: ModelParams, layer: int, h: np.ndarray, rows: int | None = None):
    """Masked multi-head self-attention over h, (L, d) or stacked (B, L, d);
    returns q, k, v, the per-head weights and the heads' concatenated
    outputs. Every query's scores are formed; given rows, the softmax and the
    weighted sum run on the final `rows` queries only, so the weights are
    (..., rows, L) and the outputs (..., rows, d)."""
    hp = params.hyper
    d = hp.d
    head_dim = d // hp.n_heads
    L = h.shape[-2]
    rows = L if rows is None else rows
    mask = causal_mask(L, dtype=h.dtype)[L - rows:]

    q = h @ params[f"layer{layer}.W_q"].value
    k = h @ params[f"layer{layer}.W_k"].value
    v = h @ params[f"layer{layer}.W_v"].value

    att_concat = np.empty(h.shape[:-2] + (rows, d), dtype=h.dtype)
    probs = []
    scale = 1.0 / np.sqrt(np.asarray(d, dtype=h.dtype))
    for hd in range(hp.n_heads):
        sl = slice(hd * head_dim, (hd + 1) * head_dim)
        scores = (q[..., sl] @ k[..., sl].swapaxes(-1, -2)) * scale
        p = masked_softmax(scores[..., L - rows:, :], mask)
        probs.append(p)
        att_concat[..., sl] = p @ v[..., sl]
    return q, k, v, probs, att_concat


def _block_output(params: ModelParams, layer: int, att_concat: np.ndarray):
    """The W^S projection and the ReLU FFN, row by row; returns s, the FFN
    pre-activation, its ReLU and the block output."""
    s = att_concat @ params[f"layer{layer}.W_s"].value
    a1 = s @ params[f"layer{layer}.W_1"].value + params[f"layer{layer}.b_1"].value
    r1 = relu(a1)
    out = r1 @ params[f"layer{layer}.W_2"].value + params[f"layer{layer}.b_2"].value
    require_finite(out, f"decoder block {layer} output")
    return s, a1, r1, out


def decoder_block(params: ModelParams, layer: int, h: np.ndarray) -> tuple[np.ndarray, BlockCache]:
    q, k, v, probs, att_concat = _attention(params, layer, h)
    s, a1, r1, out = _block_output(params, layer, att_concat)
    return out, BlockCache(h, q, k, v, probs, att_concat, s, a1, r1)


def decoder_block_backward(params: ModelParams, layer: int, cache: BlockCache,
                           d_out: np.ndarray) -> np.ndarray:
    hp = params.hyper
    d = hp.d
    head_dim = d // hp.n_heads
    scale = 1.0 / np.sqrt(np.asarray(d, dtype=d_out.dtype))

    w2 = params[f"layer{layer}.W_2"]
    w1 = params[f"layer{layer}.W_1"]
    b1 = params[f"layer{layer}.b_1"]
    b2 = params[f"layer{layer}.b_2"]
    ws = params[f"layer{layer}.W_s"]
    wq = params[f"layer{layer}.W_q"]
    wk = params[f"layer{layer}.W_k"]
    wv = params[f"layer{layer}.W_v"]

    d_r1, d_w2 = matmul_backward(d_out, cache.r1, w2.value)
    w2.grad += d_w2
    b2.grad += d_out.reshape(-1, d_out.shape[-1]).sum(axis=0)
    d_a1 = relu_backward(d_r1, cache.a1)
    d_s, d_w1 = matmul_backward(d_a1, cache.s, w1.value)
    w1.grad += d_w1
    b1.grad += d_a1.reshape(-1, d_a1.shape[-1]).sum(axis=0)
    d_att, d_ws = matmul_backward(d_s, cache.att_concat, ws.value)
    ws.grad += d_ws

    d_q = np.zeros_like(cache.q)
    d_k = np.zeros_like(cache.k)
    d_v = np.zeros_like(cache.v)
    for hd in range(hp.n_heads):
        sl = slice(hd * head_dim, (hd + 1) * head_dim)
        p = cache.probs[hd]
        d_a_h = d_att[..., sl]
        d_p = d_a_h @ cache.v[..., sl].swapaxes(-1, -2)
        d_v[..., sl] = p.swapaxes(-1, -2) @ d_a_h
        d_scores = softmax_backward(d_p, p) * scale
        d_q[..., sl] = d_scores @ cache.k[..., sl]
        d_k[..., sl] = d_scores.swapaxes(-1, -2) @ cache.q[..., sl]

    d_h, d_wq = matmul_backward(d_q, cache.h_in, wq.value)
    wq.grad += d_wq
    dh_k, d_wk = matmul_backward(d_k, cache.h_in, wk.value)
    wk.grad += d_wk
    dh_v, d_wv = matmul_backward(d_v, cache.h_in, wv.value)
    wv.grad += d_wv
    return d_h + dh_k + dh_v


def forward(params: ModelParams, user, items, segments) -> tuple[np.ndarray, ForwardCache]:
    """Embed then run all decoder blocks; returns hidden states + caches.

    One user with (L,) items and segments gives (L, d); users of shape (B,)
    with (B, L) items and segments give the stacked (B, L, d), each slice
    computed by the same per-slice matmuls as the per-user call."""
    items = np.asarray(items)
    segments = np.asarray(segments)
    h = embed_input(params, user, items, segments)
    blocks = []
    for l in range(params.hyper.n_layers):
        h, cache = decoder_block(params, l, h)
        blocks.append(cache)
    return h, ForwardCache(user, items, segments, blocks)


def backward(params: ModelParams, cache: ForwardCache, d_h: np.ndarray) -> None:
    """Accumulate gradients for the whole forward pass into params; d_h has
    the shape of forward's hidden states, and a stacked batch adds the sum of
    its rows' gradients."""
    for l in range(params.hyper.n_layers - 1, -1, -1):
        d_h = decoder_block_backward(params, l, cache.blocks[l], d_h)
    L = cache.items.shape[-1]
    embedding_backward(d_h.sum(axis=-2), cache.user, params["W_u"].grad)
    embedding_backward(d_h, cache.items, params["W_e"].grad)
    params["W_p"].grad[:L] += d_h.reshape(-1, L, d_h.shape[-1]).sum(axis=0)
    embedding_backward(d_h, cache.segments, params["W_s"].grad)


def last_hidden(params: ModelParams, users, items, segments) -> np.ndarray:
    """Hidden state at the final position of each row of a stacked batch.

    users is (B,) with B >= 2, items and segments are (B, L) with L >= 1;
    row b of the (B, d) result is bit-identical to forward(params, users[b],
    items[b], segments[b])[0][-1]. Every layer but the last runs attention
    over every position as stacked (B, L, d) matmuls, whose slices equal the
    per-user 2-D products. Only the final position is read, so on the last
    layer the softmax and the weighted sum run on the final two queries, and
    W^S and the FFN on the final one as one (B, d) matmul: softmax is
    row-wise, and the rows of a matmul with at least two rows do not depend
    on how many it has. The score product q k^T stays full, because its rows
    do depend on the query count. At L = 1 these would be one-row products,
    which take another BLAS path, so the last layer keeps the stacked
    per-position form; for the same reason a single row must run the
    per-user forward. No caches are kept.
    """
    items = np.asarray(items)
    segments = np.asarray(segments)
    if items.ndim != 2 or items.shape[0] < 2:
        raise NumericsError(f"last_hidden needs a (B, L) batch with B >= 2, got {items.shape}")
    h = embed_input(params, np.asarray(users), items, segments)
    last = params.hyper.n_layers - 1
    for l in range(last + 1):
        if l == last and h.shape[1] > 1:
            att_concat = _attention(params, l, h, rows=2)[-1][:, -1]
        else:
            att_concat = _attention(params, l, h)[-1]
        h = _block_output(params, l, att_concat)[-1]
    return h if h.ndim == 2 else h[:, -1]


def score_items(params: ModelParams, h: np.ndarray, scorer: str) -> np.ndarray:
    """Logits over the whole catalog from one hidden state (d,), or from a
    block of them (B, d) as (B, V). Both run numpy's (stacked)
    matrix-vector product, one W @ h per row, so each row of a block is
    bit-identical to scoring that state alone; a (B, d) @ (d, V) matmul would
    not be."""
    if scorer == SCORER_TIED_EMB:
        w = params["W_e"].value
    elif scorer == SCORER_OUTPUT_LAYER:
        w = params["W_l"].value
    else:
        raise ValueError(f"unknown scorer {scorer!r}")
    return (w @ h[..., None])[..., 0]


def rank_items(logits: np.ndarray, k: int, exclude=None) -> np.ndarray:
    """Top-k item indices by descending logit; ties broken by ascending index.

    Ids in exclude are masked out (those outside the catalog exclude
    nothing). np.partition of the eligible logits finds the k-th largest, and
    every eligible item at or above it stays a candidate, so the whole tie
    block at the boundary survives; the candidates come in ascending index
    order, so a stable sort of them ranks ties by index. A NaN logit raises
    NumericsError: it has no place in a descending order, and np.argmax
    would pick it first.
    """
    if np.isnan(logits).any():
        raise NumericsError("NaN logit in rank_items")
    neg = -logits
    eligible = np.ones(neg.shape[0], dtype=bool)
    if exclude:
        ex = np.fromiter(exclude, dtype=np.intp)
        eligible[ex[(ex >= 0) & (ex < neg.shape[0])]] = False
    values = neg[eligible]
    if 0 < k < values.shape[0]:
        eligible &= neg <= np.partition(values, k - 1)[k - 1]
    ids = np.flatnonzero(eligible)
    return ids[np.argsort(neg[ids], kind="stable")[:k]]
