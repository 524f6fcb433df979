"""Reference implementations the tests check the library against.

Every test oracle of the model's arithmetic lives here, so an architecture
change edits the test side in one place. `decode64` is an explicit-loop
float64 decoder; `forward_states` is the library's per-user forward. The
greedy and recall references take either as their hidden-state function,
keep the last max_len positions by slicing and rank with a full stable sort,
so they share neither the truncation, the batching nor the partial ranking
they check.
"""
from collections import Counter, defaultdict

import numpy as np

from recgpt.model import PROMPT, REAL, forward, score_items
from recgpt.numerics import bce_pair_loss, cross_entropy
from recgpt.recall import STEP1, STEP2


def decode64(params, user, items, segments):
    """Every position's hidden state, (L, d) in float64, from explicit loops:
    the sum of user, item, position and segment embeddings, then per layer
    masked multi-head attention (scores scaled by sqrt(d)), the W_s
    projection and a two-layer ReLU FFN, with no residual path."""
    hp = params.hyper
    d, n_heads = hp.d, hp.n_heads
    head_dim = d // n_heads
    L = len(items)
    W = {name: params[name].value.astype(np.float64) for name in params.names()}
    h = np.zeros((L, d))
    for t in range(L):
        h[t] = W["W_u"][user] + W["W_e"][items[t]] + W["W_p"][t] + W["W_s"][segments[t]]
    for l in range(hp.n_layers):
        q = h @ W[f"layer{l}.W_q"]
        k = h @ W[f"layer{l}.W_k"]
        v = h @ W[f"layer{l}.W_v"]
        att = np.zeros((L, d))
        for hd in range(n_heads):
            sl = slice(hd * head_dim, (hd + 1) * head_dim)
            for t in range(L):
                scores = np.array([q[t, sl] @ k[j, sl] / np.sqrt(d)
                                   for j in range(t + 1)])
                e = np.exp(scores - scores.max())
                p = e / e.sum()
                att[t, sl] = sum(p[j] * v[j, sl] for j in range(t + 1))
        s = att @ W[f"layer{l}.W_s"]
        a1 = s @ W[f"layer{l}.W_1"] + W[f"layer{l}.b_1"]
        h = np.maximum(a1, 0.0) @ W[f"layer{l}.W_2"] + W[f"layer{l}.b_2"]
    return h


def forward_states(params, user, items, segments):
    """Every position's hidden state from the library's per-user forward."""
    return forward(params, user, items, segments)[0]


def last_window(items, segments, max_len):
    """The last max_len (item, segment) pairs, as lists."""
    return list(items)[-max_len:], list(segments)[-max_len:]


def last_state(hidden, params, user, items, segments):
    """The final position's hidden state over the row's last max_len pairs."""
    return hidden(params, user, *last_window(items, segments, params.hyper.max_len))[-1]


def full_sort_rank(logits, k, exclude=None):
    """Top-k ids as a stable argsort of the whole catalog and an isin filter:
    descending logit, ascending id on ties."""
    order = np.argsort(-logits, kind="stable")
    if exclude:
        order = order[~np.isin(order, list(exclude))]
    return order[:k]


def greedy_prompts(hidden, params, user, seq, K):
    """One user's prompt-enhanced row: K prompts before each real item after
    the first, each the argmax of W_l over the row so far, lowest id on ties."""
    items, segments = [], []
    for v in seq:
        for _ in range(K if items else 0):
            logits = params["W_l"].value @ last_state(hidden, params, user, items, segments)
            items.append(int(full_sort_rank(logits, 1)[0]))
            segments.append(PROMPT)
        items.append(int(v))
        segments.append(REAL)
    return items, segments


def two_step_recall(hidden, params, user, seq, segments, m, n, scorer, filter_history):
    """One user's two-step recall as (items, scores, provenance): the top m,
    then the top n of a second pass with step 1's first item appended as a
    PROMPT, skipping step 1's items; filter_history skips the real items."""
    logits = score_items(params, last_state(hidden, params, user, seq, segments), scorer)
    real = {v for v, s in zip(seq, segments) if s == REAL} if filter_history else set()
    top = full_sort_rank(logits, m, exclude=real)
    items, scores, prov = top.tolist(), logits[top].tolist(), [STEP1] * len(top)
    if n:
        h2 = last_state(hidden, params, user, list(seq) + [int(top[0])],
                        list(segments) + [PROMPT])
        logits2 = score_items(params, h2, scorer)
        fill = full_sort_rank(logits2, n, exclude=set(items) | real)
        items += fill.tolist()
        scores += logits2[fill].tolist()
        prov += [STEP2] * len(fill)
    return items, scores, prov


def ref_bce(params, h, d_h, t, pos, negs):
    """Pairwise BCE of one target at position t through W_e; adds its
    gradients into d_h and W_e.grad and returns its loss."""
    w_e = params["W_e"]
    loss, d_pos, d_negs = bce_pair_loss(float(w_e.value[pos] @ h[t]), w_e.value[negs] @ h[t])
    d_h[t] += d_pos * w_e.value[pos] + d_negs @ w_e.value[negs]
    w_e.grad[pos] += d_pos * h[t]
    np.add.at(w_e.grad, negs, np.outer(d_negs, h[t]))
    return loss


def ref_ce(params, h, d_h, pos, tgt):
    """Full-catalog cross-entropy of one target at position pos through W_l;
    adds its gradients into d_h and W_l.grad and returns its loss."""
    w_l = params["W_l"]
    loss, d_logits = cross_entropy(w_l.value @ h[pos], tgt)
    w_l.grad += np.outer(d_logits, h[pos])
    d_h[pos] += w_l.value.T @ d_logits
    return loss


def kcore_oracle(records, k):
    """Remove one violator at a time until stable. The k-core is unique, so
    any removal order reaches the same fixpoint as the batch implementation."""
    current = list(records)
    changed = True
    while changed:
        changed = False
        user_counts = Counter(r.user_id for r in current)
        item_users = defaultdict(set)
        for r in current:
            item_users[r.item_id].add(r.user_id)
        for u, c in user_counts.items():
            if c < k:
                current = [r for r in current if r.user_id != u]
                changed = True
                break
        else:
            for v, us in item_users.items():
                if len(us) < k:
                    current = [r for r in current if r.item_id != v]
                    changed = True
                    break
    return current
