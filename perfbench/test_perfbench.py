"""Tests of the benchmark itself: generator, tracer and metric lists.

    python3 -m pytest perfbench
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from recgpt.model import rank_items  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_tsv(name, tmp_path):
    workloads.write_workload(name, 7, tmp_path / "a")
    workloads.write_workload(name, 7, tmp_path / "b")
    workloads.write_workload(name, 8, tmp_path / "c")
    a = (tmp_path / "a" / "interactions.tsv").read_bytes()
    assert a == (tmp_path / "b" / "interactions.tsv").read_bytes()
    assert a != (tmp_path / "c" / "interactions.tsv").read_bytes()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_shape_is_seed_independent_and_survives_kcore(name):
    shape = workloads.WORKLOADS[name]
    k = int(workloads.recgpt_config(shape)["kcore_k"])
    lengths = None
    for seed in (1, 2):
        seqs = workloads.generate(shape, seed)
        assert len(seqs) == shape.users
        assert sorted(len(s) for s in seqs) == sorted(workloads.history_lengths(shape))
        if lengths is not None:
            assert sorted(len(s) for s in seqs) == lengths
        lengths = sorted(len(s) for s in seqs)
        users_per_item = np.zeros(shape.items, dtype=int)
        for s in seqs:
            for v in set(s):
                users_per_item[v] += 1
        assert users_per_item.min() >= k
        assert min(lengths) >= k


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_covered_child_intervals():
    # stage [0, 10] > a [1, 6] > b [2, 3], c [4, 5.5]; stage > d [7, 9]
    t = tracer_mod.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5.5, 6, 7, 9, 10]))
    with t.stage("eval"):
        a = t.open("a")
        b = t.open("b")
        t.close(b)
        c = t.open("c")
        t.close(c)
        t.close(a)
        d = t.open("d")
        t.close(d)
    s = t.summary()
    self_s = {name: v["self_s"] for name, v in s["by_name"].items()}
    assert self_s == pytest.approx({"stage.eval": 3.0, "a": 2.5, "b": 1.0, "c": 1.5, "d": 2.0})
    stage = s["by_stage"]["eval"]
    assert stage["wall_s"] == 10.0
    assert sum(stage["self_s"].values()) == pytest.approx(10.0)
    assert t.parent_names("b")["a"]["calls"] == 1


def test_spans_must_close_in_order():
    t = tracer_mod.Tracer(clock=FakeClock(range(10)))
    outer = t.open("outer")
    t.open("inner")
    with pytest.raises(RuntimeError):
        t.close(outer)


def _references(functions):
    """(module, attribute) -> function for every recgpt attribute bound to one of them."""
    by_id = {id(f): f for f in functions}
    found = {}
    for module in tracer_mod._recgpt_modules():
        for attr, value in vars(module).items():
            if by_id.get(id(value)) is value:
                found[(module.__name__, attr)] = value
    return found


def test_traced_rebinds_every_reference_and_restores():
    import importlib

    import recgpt.cli  # noqa: F401  (so every recgpt module is loaded)

    layer_fns = [getattr(importlib.import_module(m), f)
                 for m, names in tracer_mod.LAYERS.items() for f in names]
    before = _references(layer_fns)
    # the same function imported by several modules is rebound in each
    assert ("recgpt.training", "forward") in before
    assert ("recgpt.recall", "forward") in before
    assert ("recgpt.cli", "pretrain") in before
    t = tracer_mod.Tracer()
    with tracer_mod.traced(t) as rebound:
        assert {(m.__name__, a) for m, a, _ in rebound} == set(before)
        assert _references(layer_fns) == {}
        from recgpt.model import forward

        assert forward is not before[("recgpt.model", "forward")]
    assert _references(layer_fns) == before


def test_traced_recall_counts_work_at_layer_boundaries():
    from recgpt import recall
    from recgpt.model import HyperParams, ModelParams

    params = ModelParams(2, 30, HyperParams(d=8, n_heads=2, max_len=4),
                         rng=np.random.default_rng(0))
    t = tracer_mod.Tracer()
    with tracer_mod.traced(t):
        with t.stage("eval"):
            res = recall.recall_two_step(params, 1, [3, 4, 5, 6, 7, 8], 4, 2, "output",
                                         filter_history=True)
    by_name = t.summary()["by_name"]
    assert by_name["recall.recall_two_step"]["calls"] == 1
    assert by_name["recall.recall_one_step"]["calls"] == 1
    assert by_name["model.forward"]["calls"] == 2
    assert by_name["data.truncate_last"]["calls"] == 2
    assert t.counters["data.truncate_last.truncated"] == 2      # 6 and 7 items > 4
    assert t.counters["model.forward.rows"] == 8
    assert t.counters["model.rank_items.items_sorted"] == 60
    assert t.counters["model.rank_items.items_returned"] == len(res.items) == 6
    assert t.counters["model.rank_items.excluded"] == 6 + (4 + 6)
    assert t.parent_names("model.forward")["recall.recall_one_step"]["calls"] == 1


def test_oracle_ranking_matches_rank_items_on_ties():
    rng = np.random.default_rng(3)
    for _ in range(50):
        logits = rng.integers(0, 4, size=40).astype(np.float32)
        exclude = set(rng.integers(0, 40, size=5).tolist())
        expected = rank_items(logits, 10, exclude=exclude).tolist()
        assert checks.oracle_top(logits, 10, exclude) == expected


def test_benchmark_json_lists_the_metrics_run_py_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"][1] == "perfbench/run.py"
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert listed == table
