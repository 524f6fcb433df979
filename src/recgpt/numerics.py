"""Hand-rolled differentiable kernels and Adam.

Tensors are plain row-major numpy ndarrays. Training runs in float32;
gradient checking promotes everything to float64. Every op is a pure
function of its inputs, and every differentiable op ships with an explicit
backward companion so the whole kernel set stays auditable op-by-op.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


class NumericsError(RuntimeError):
    """Shape violation or non-finite value inside a kernel."""


def require_finite(x, what: str) -> None:
    if not np.all(np.isfinite(x)):
        raise NumericsError(f"non-finite values in {what}")


@dataclass
class Parameter:
    """A named learnable tensor with an accumulated gradient of the same shape."""

    name: str
    value: np.ndarray
    grad: np.ndarray = None

    def __post_init__(self):
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        if self.grad.shape != self.value.shape:
            raise NumericsError(
                f"parameter {self.name}: grad shape {self.grad.shape} "
                f"!= value shape {self.value.shape}"
            )

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


# ---------------------------------------------------------------------------
# forward / backward op pairs
# ---------------------------------------------------------------------------

def matmul_backward(d_out, a, b):
    """d(a@b) -> (da, db) given upstream d_out; a and d_out may carry leading
    batch axes, over which db sums as one matmul."""
    return d_out @ b.T, a.reshape(-1, a.shape[-1]).T @ d_out.reshape(-1, d_out.shape[-1])


@functools.lru_cache(maxsize=None)
def causal_mask(length: int, dtype=np.float32) -> np.ndarray:
    """0 on and below the diagonal, -inf strictly above (future positions).

    Built once per (length, dtype), lengths being at most max_len, and
    shared by every caller, so it is read-only."""
    mask = np.zeros((length, length), dtype=dtype)
    mask[np.triu_indices(length, k=1)] = -np.inf
    mask.flags.writeable = False
    return mask


def masked_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row softmax of logits + mask; entries masked with -inf come out exactly 0.
    An (L, L) mask broadcasts over stacked (B, L, L) logits."""
    if logits.shape[logits.ndim - mask.ndim:] != mask.shape:
        raise NumericsError(f"softmax mask shape {mask.shape} != logits {logits.shape}")
    require_finite(logits, "softmax logits")
    x = logits + mask
    row_max = np.max(x, axis=-1, keepdims=True)
    if not np.all(np.isfinite(row_max)):
        raise NumericsError("softmax row with every entry masked")
    e = np.exp(x - row_max)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward(d_probs, probs):
    return probs * (d_probs - np.sum(d_probs * probs, axis=-1, keepdims=True))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(d_out, x):
    # subgradient at exactly 0 is taken as 0
    return d_out * (x > 0)


def embedding_backward(d_out, ids, grad_table) -> None:
    """Scatter-add upstream rows into grad_table; duplicate ids accumulate."""
    np.add.at(grad_table, np.asarray(ids), d_out)


def sigmoid(x):
    # exp(-softplus(-x)): stable for large |x|
    return np.exp(-np.logaddexp(0.0, -x))


def bce_pair_loss(pos_score, neg_scores) -> tuple:
    """-log sigmoid(pos) - sum log(1 - sigmoid(neg)), in log-space-stable form.

    pos_score has shape S (a scalar, or one score per target) and neg_scores
    S + (n,). Returns (loss, d_loss/d_pos, d_loss/d_neg) in float64; loss and
    d_pos have shape S, and are floats for a scalar pos_score.
    """
    pos = np.asarray(pos_score, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    require_finite(neg, "bce negative scores")
    if not np.all(np.isfinite(pos)):
        raise NumericsError("non-finite positive score in bce_pair_loss")
    loss = np.logaddexp(0.0, -pos) + np.sum(np.logaddexp(0.0, neg), axis=-1)
    d_pos = -sigmoid(-pos)
    d_neg = sigmoid(neg)
    return loss[()], d_pos[()], d_neg


def cross_entropy(logits: np.ndarray, target) -> tuple:
    """-log softmax(logits)[target] over the last axis; returns (loss, grad =
    softmax - one_hot). logits (..., V) take target ids of shape (...); a
    (V,) row with an int target gives a float loss."""
    target = np.asarray(target)
    n = logits.shape[-1]
    if np.any((target < 0) | (target >= n)):
        raise IndexError(f"cross_entropy target {target} out of range [0, {n})")
    require_finite(logits, "cross_entropy logits")
    z = logits - logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    at = target[..., None]
    loss = (lse - np.take_along_axis(z, at, axis=-1))[..., 0]
    grad = np.exp(z - lse)
    np.put_along_axis(grad, at, np.take_along_axis(grad, at, axis=-1) - 1.0, axis=-1)
    return loss[()], grad


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step_count: int = 0
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_param(cls, param: Parameter, lr: float = 0.001) -> "AdamState":
        return cls(m=np.zeros_like(param.value), v=np.zeros_like(param.value), lr=lr)


def adam_step(param: Parameter, state: AdamState) -> None:
    """One Adam update with bias correction, in place:

        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        value -= lr * (m / c1) / (sqrt(v / c2) + eps)

    with c1 = 1 - beta1 ** t and c2 = 1 - beta2 ** t. Every operation writes
    through out= into m, v, the value or one of two scratch tensors, in the
    formula's order and at its dtype, so the result is bit for bit that of
    the formula evaluated with a new array per operation."""
    state.step_count += 1
    g, m, v, value = param.grad, state.m, state.v, param.value
    step, denom = np.empty_like(m), np.empty_like(m)
    c1 = 1.0 - state.beta1 ** state.step_count
    c2 = 1.0 - state.beta2 ** state.step_count
    np.multiply(state.beta1, m, out=m)
    np.multiply(1.0 - state.beta1, g, out=step)
    np.add(m, step, out=m)
    np.multiply(state.beta2, v, out=v)
    np.multiply(1.0 - state.beta2, g, out=step)
    np.multiply(step, g, out=step)
    np.add(v, step, out=v)
    np.divide(m, c1, out=step)
    np.multiply(state.lr, step, out=step)
    np.divide(v, c2, out=denom)
    np.sqrt(denom, out=denom)
    np.add(denom, state.eps, out=denom)
    np.divide(step, denom, out=step)
    np.subtract(value, step, out=value)
