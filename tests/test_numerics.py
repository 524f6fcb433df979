"""Kernel-level oracles: each op is checked against an independent direct
implementation and against finite differences."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from recgpt.numerics import (
    AdamState,
    NumericsError,
    Parameter,
    adam_step,
    bce_pair_loss,
    causal_mask,
    cross_entropy,
    embedding_backward,
    masked_softmax,
    matmul_backward,
    relu,
    relu_backward,
    sigmoid,
)

from conftest import grad_check


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def test_matmul_gradients():
    def fn(inputs):
        a, b = inputs
        out = a @ b
        d_out = np.ones_like(out)
        da, db = matmul_backward(d_out, a, b)
        return float(out.sum()), [da, db]

    g = np.random.default_rng(0)
    err = grad_check(fn, [g.standard_normal((3, 4)), g.standard_normal((4, 2))])
    assert err < 1e-6


# ---------------------------------------------------------------------------
# masked softmax
# ---------------------------------------------------------------------------

def softmax_oracle(logits, mask):
    x = np.asarray(logits, dtype=np.float64) + np.asarray(mask, dtype=np.float64)
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        row = x[i]
        finite = row[np.isfinite(row)]
        e = np.where(np.isfinite(row), np.exp(row - finite.max()), 0.0)
        out[i] = e / e.sum()
    return out


def test_masked_softmax_uniform_rows():
    mask = causal_mask(2)
    out = masked_softmax(np.zeros((2, 2)), mask)
    assert np.array_equal(out, np.array([[1.0, 0.0], [0.5, 0.5]]))
    flat = masked_softmax(np.ones((1, 3)), np.zeros((1, 3)))
    assert np.allclose(flat, np.full((1, 3), 1.0 / 3.0))


def test_masked_softmax_derived_example():
    logits = np.array([[2.0, 5.0], [2.0, 5.0]])
    mask = causal_mask(2, dtype=np.float64)
    out = masked_softmax(logits, mask)
    assert np.array_equal(out[0], [1.0, 0.0])
    assert np.allclose(out[1], [0.04742587, 0.95257413], atol=1e-7)
    assert np.allclose(out, softmax_oracle(logits, mask), rtol=1e-12)


def test_masked_softmax_properties_100_instances(rng):
    for _ in range(100):
        n = int(rng.integers(1, 9))
        logits = rng.standard_normal((n, n)) * 5
        mask = causal_mask(n, dtype=np.float64)
        out = masked_softmax(logits, mask)
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-6)
        assert np.all(out[np.triu_indices(n, k=1)] == 0.0)
        assert np.allclose(out, softmax_oracle(logits, mask), rtol=1e-10)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_causal_mask_is_built_once_read_only_and_equals_a_fresh_build(dtype):
    for n in (1, 2, 5, 50):
        fresh = np.zeros((n, n), dtype=dtype)
        fresh[np.triu_indices(n, k=1)] = -np.inf
        mask = causal_mask(n, dtype=dtype)
        assert mask.dtype == dtype and np.array_equal(mask, fresh)
        assert causal_mask(n, dtype=dtype) is mask
        with pytest.raises(ValueError, match="read-only"):
            mask[-1, 0] = -np.inf
        with pytest.raises(ValueError, match="read-only"):
            mask += 1.0
        assert np.array_equal(causal_mask(n, dtype=dtype), fresh)


def test_masked_softmax_all_masked_row_raises():
    mask = np.full((1, 2), -np.inf)
    with pytest.raises(NumericsError):
        masked_softmax(np.zeros((1, 2)), mask)


def test_masked_softmax_nonfinite_logits_raise():
    with pytest.raises(NumericsError):
        masked_softmax(np.array([[np.nan, 0.0]]), np.zeros((1, 2)))


# ---------------------------------------------------------------------------
# relu / embeddings
# ---------------------------------------------------------------------------

def test_relu_examples():
    assert np.array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])
    assert np.array_equal(relu(np.array([-3.0, -0.5])), [0.0, 0.0])
    grad = relu_backward(np.array([1.0, 1.0]), np.array([-1.0, 2.0]))
    assert np.array_equal(grad, [0.0, 1.0])


def test_relu_subgradient_at_zero_is_zero():
    assert relu_backward(np.array([5.0]), np.array([0.0]))[0] == 0.0


def test_embedding_backward_accumulates_duplicate_ids(rng):
    table = rng.standard_normal((5, 3))
    grad = np.zeros_like(table)
    up = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    embedding_backward(up, [3, 3], grad)
    assert np.array_equal(grad[3], up[0] + up[1])


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def test_bce_pair_loss_closed_forms():
    loss, d_pos, d_neg = bce_pair_loss(0.0, [0.0])
    assert math.isclose(loss, 2 * math.log(2), rel_tol=1e-12)
    assert math.isclose(d_pos, -0.5, rel_tol=1e-12)
    assert math.isclose(float(d_neg[0]), 0.5, rel_tol=1e-12)
    # saturated case: confident scores drive the loss to zero
    loss, _, _ = bce_pair_loss(40.0, [-40.0])
    assert loss < 1e-15


def test_bce_pair_loss_against_direct_formula():
    def direct(pos, negs):
        s = -math.log(1.0 / (1.0 + math.exp(-pos)))
        for n in negs:
            s -= math.log(1.0 - 1.0 / (1.0 + math.exp(-n)))
        return s

    loss, _, _ = bce_pair_loss(1.2, [-0.7, 0.3])
    assert math.isclose(loss, direct(1.2, [-0.7, 0.3]), rel_tol=1e-12)


def test_bce_pair_loss_gradients():
    def fn(inputs):
        pos, negs = inputs
        loss, d_pos, d_neg = bce_pair_loss(float(pos), negs)
        return loss, [np.array(d_pos), d_neg]

    g = np.random.default_rng(1)
    err = grad_check(fn, [g.standard_normal(()), g.standard_normal(4)])
    assert err < 1e-6


def test_cross_entropy_closed_forms():
    loss, grad = cross_entropy(np.zeros(4), 0)
    assert math.isclose(loss, math.log(4), rel_tol=1e-12)
    assert np.allclose(grad, [0.25 - 1.0, 0.25, 0.25, 0.25])
    loss, _ = cross_entropy(np.array([0.0, 30.0, 0.0]), 1)
    assert loss < 1e-10


def test_cross_entropy_derived_example():
    logits = np.array([1.0, 2.0, 3.0])
    e = np.exp(logits - logits.max())
    expected = -math.log(e[1] / e.sum())
    loss, grad = cross_entropy(logits, 1)
    assert math.isclose(loss, expected, rel_tol=1e-12)
    assert math.isclose(loss, 1.40760596, rel_tol=1e-7)
    one_hot = np.array([0.0, 1.0, 0.0])
    assert np.allclose(grad, e / e.sum() - one_hot, rtol=1e-12)


def test_cross_entropy_target_out_of_range():
    with pytest.raises(IndexError):
        cross_entropy(np.zeros(3), 3)


def test_cross_entropy_gradients():
    def fn(inputs):
        (logits,) = inputs
        loss, grad = cross_entropy(logits, 2)
        return loss, [grad]

    g = np.random.default_rng(2)
    assert grad_check(fn, [g.standard_normal(5)]) < 1e-6


def test_sigmoid_stable_at_extremes():
    assert sigmoid(-800.0) == 0.0
    assert math.isclose(float(sigmoid(800.0)), 1.0, rel_tol=1e-15)
    assert math.isclose(float(sigmoid(0.0)), 0.5, rel_tol=1e-15)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_zero_grad_is_identity():
    p = Parameter("w", np.array([1.0, -2.0, 3.0]))
    state = AdamState.for_param(p, lr=0.1)
    before = p.value.copy()
    adam_step(p, state)
    assert np.array_equal(p.value, before)
    assert state.step_count == 1


def test_adam_first_step_magnitude_is_lr():
    p = Parameter("w", np.zeros(3), grad=np.array([0.3, -7.0, 100.0]))
    state = AdamState.for_param(p, lr=0.05)
    adam_step(p, state)
    # after bias correction the first step is a signed step of ~lr
    assert np.allclose(np.abs(p.value), 0.05, rtol=1e-6)
    assert np.array_equal(np.sign(p.value), [-1.0, 1.0, -1.0])


def test_adam_trajectory_matches_scalar_reference():
    # reference: 3 steps minimizing x^2 from x=1 with lr=0.1
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    x, m, v = 1.0, 0.0, 0.0
    trajectory = []
    for step in range(1, 4):
        g = 2.0 * x
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** step)
        v_hat = v / (1 - b2 ** step)
        x -= lr * m_hat / (math.sqrt(v_hat) + eps)
        trajectory.append(x)

    p = Parameter("x", np.array([1.0]))
    state = AdamState.for_param(p, lr=0.1)
    for step in range(3):
        p.grad[...] = 2.0 * p.value
        adam_step(p, state)
        assert math.isclose(float(p.value[0]), trajectory[step], rel_tol=1e-12)


def allocating_adam_step(param, state):
    """Adam as a textbook formula, one new array per operation: the
    reference the in-place adam_step must match bit for bit."""
    state.step_count += 1
    g = param.grad
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * g
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * g * g
    m_hat = state.m / (1.0 - state.beta1 ** state.step_count)
    v_hat = state.v / (1.0 - state.beta2 ** state.step_count)
    param.value -= (state.lr * m_hat / (np.sqrt(v_hat) + state.eps)).astype(
        param.value.dtype, copy=False
    )


@given(shape=st.lists(st.integers(1, 7), min_size=1, max_size=3),
       dtype=st.sampled_from([np.float32, np.float64]),
       lr=st.floats(1e-5, 1.0), steps=st.integers(20, 40), seed=st.integers(0, 2 ** 16))
def test_in_place_adam_is_bit_identical_to_the_allocating_formula(shape, dtype, lr, steps, seed):
    """Gradients over eight orders of magnitude, with exact zeros; value, m
    and v are compared bytewise after every step."""
    rng = np.random.default_rng(seed)
    value = rng.standard_normal(shape).astype(dtype)
    fast, slow = Parameter("w", value.copy()), Parameter("w", value.copy())
    fast_state, slow_state = AdamState.for_param(fast, lr=lr), AdamState.for_param(slow, lr=lr)
    for _ in range(steps):
        g = rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 3, size=shape)
        g[rng.random(shape) < 0.2] = 0.0
        fast.grad[...] = g
        slow.grad[...] = g
        adam_step(fast, fast_state)
        allocating_adam_step(slow, slow_state)
        for a, b in ((fast.value, slow.value), (fast_state.m, slow_state.m),
                     (fast_state.v, slow_state.v)):
            assert a.dtype == b.dtype == dtype and a.tobytes() == b.tobytes()
    assert fast_state.step_count == slow_state.step_count == steps


# ---------------------------------------------------------------------------
# gradient checker
# ---------------------------------------------------------------------------

def test_grad_check_exact_for_linear():
    w = np.array([2.0, -3.0, 0.5])

    def fn(inputs):
        (x,) = inputs
        return float(w @ x), [w.copy()]

    assert grad_check(fn, [np.array([1.0, 2.0, 3.0])]) < 1e-10


def test_grad_check_composed_pipeline():
    g = np.random.default_rng(3)
    a0 = g.standard_normal((3, 3))
    b0 = g.standard_normal((3, 3))

    def fn(inputs):
        a, b = inputs
        z = a @ b
        mask = np.zeros_like(z)
        probs = masked_softmax(z, mask)
        loss = 0.0
        d_probs = np.zeros_like(probs)
        for i in range(3):
            row_loss, row_grad = cross_entropy(np.log(probs[i]), i)
            loss += row_loss
            d_probs[i] = row_grad / probs[i]
        d_z = probs * (d_probs - np.sum(d_probs * probs, axis=-1, keepdims=True))
        da, db = matmul_backward(d_z, a, b)
        return loss, [da, db]

    assert grad_check(fn, [a0, b0]) < 1e-6


def test_grad_check_detects_wrong_gradient():
    w = np.array([1.0, 1.0])

    def fn(inputs):
        (x,) = inputs
        return float(w @ x), [2.0 * w]   # deliberately scaled x2

    err = grad_check(fn, [np.array([0.3, -0.4])])
    assert math.isclose(err, 1.0 / 3.0, rel_tol=1e-6)


def test_ops_pure_and_deterministic(rng):
    logits = rng.standard_normal((4, 4))
    mask = causal_mask(4, dtype=np.float64)
    assert np.array_equal(masked_softmax(logits, mask), masked_softmax(logits, mask))
