"""Stage-level benchmark of the recgpt pipeline.

    python3 perfbench/run.py --workload beauty --seed 1 --seconds 60 --trace 0

Generates the workload from ``--seed``, then drives the real CLI stages
(``recgpt.cli.main``) in this process and times each stage from outside. A
plain run (``--trace 0``) makes one full pass, spends what is left of
``--seconds`` re-running stages, and reports each stage's median. A traced run (``--trace 1``) makes one untraced pass and one pass
with every layer-boundary function wrapped (see tracer.py), and reports
per-layer metrics plus the tracing overhead per stage. Output checks run
outside the timed stages; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

BLAS and OpenMP are pinned to one thread before numpy is imported. Files are
written under ``.perfbench_work/`` in the checkout root.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, traced  # noqa: E402
from workloads import TOP_K  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

STAGES = ("preprocess", "pretrain", "gen-prompts", "tune", "eval", "sweep")
STAGE_ARGS = {"eval": ("--dump",)}
SETUP_REPEATS = 3
MAX_STAGE_SAMPLES = 9
CHEAP_S = 1.0
ORACLE_USERS = 12

# name -> (unit, better); BENCHMARK.json lists the same names
END_TO_END = {
    "setup_s": ("s", "lower"),
    "preprocess_s": ("s", "lower"),
    "pretrain_users_per_s": ("user-epochs/s", "higher"),
    "gen_prompts_tokens_per_s": ("tokens/s", "higher"),
    "tune_users_per_s": ("user-epochs/s", "higher"),
    "eval_users_per_s": ("user-modes/s", "higher"),
    "sweep_users_per_s": ("user-points/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}

# layer function -> metrics; calls and self_s come from its spans, the rest
# from the counters its tracing hook keeps
_COUNTED = {
    "model.rank_items": ("calls", "self_s", "items_sorted", "items_returned", "excluded"),
    "model.score_items": ("calls", "self_s"),
    "model.forward": ("calls", "rows", "self_s"),
    "model.backward": ("calls", "self_s"),
    "training.pretrain": ("self_s",),
    "numerics.bce_pair_loss": ("calls", "self_s"),
    "data.sample_negatives": ("calls", "self_s"),
    "training.prompt_tune": ("self_s",),
    "numerics.cross_entropy": ("calls", "self_s"),
    "numerics.adam_step": ("calls", "self_s", "elements"),
    "data.truncate_last": ("calls", "truncated"),
    "recall.recall_one_step": ("calls", "self_s"),
    "recall.recall_two_step": ("calls", "self_s"),
    "evaluation.evaluate": ("calls", "users", "self_s"),
    "evaluation.sweep_mn": ("self_s",),
    "checkpoint.save": ("calls", "self_s", "bytes"),
    "checkpoint.load": ("calls", "self_s", "bytes"),
    "data.ingest_tsv": ("self_s",),
    "data.kcore_filter": ("self_s",),
    "data.build_splits": ("self_s",),
    "cli.save_dataset": ("self_s",),
    "cli.load_dataset": ("self_s",),
    "cli.save_prompts": ("self_s",),
    "cli.load_prompts": ("self_s",),
    "cli.save_model": ("self_s",),
    "cli.load_model": ("self_s",),
}
# generate_prompts split by the span that called it
PROMPT_CALLERS = {"cache": "training.generate_prompt_cache", "evaluate": "evaluation.evaluate"}
_UNITS = {"self_s": "s", "wait_s": "s", "bytes": "bytes"}


def _per_layer_spec() -> dict[str, tuple[str, str]]:
    spec = {}
    for fn, fields in _COUNTED.items():
        for f in fields:
            spec[f"{fn}.{f}"] = (_UNITS.get(f, "count"), "lower")
    spec["data.iter_batches.wait_s"] = ("s", "lower")
    for caller in PROMPT_CALLERS:
        for f in ("calls", "tokens", "self_s"):
            spec[f"training.generate_prompts.{caller}.{f}"] = (_UNITS.get(f, "count"), "lower")
    for stage in STAGES:
        for f in ("traced_s", "untraced_s", "trace_overhead_s", "layer_self_s"):
            spec[f"stage.{stage}.{f}"] = ("s", "lower")
    spec[f"quality.hr_at_{TOP_K}"] = ("ratio", "higher")
    spec[f"quality.ndcg_at_{TOP_K}"] = ("ratio", "higher")
    spec["trace.spans"] = ("count", "lower")
    return spec


PER_LAYER = _per_layer_spec()


class Ops:
    """Counts checked operations; a failure is recorded with its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = blas.get("name")
        env["blas_version"] = blas.get("version")
        env["openblas_config"] = blas.get("openblas configuration")
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    return env


def import_seconds() -> float:
    """Start a fresh interpreter that imports numpy and the recgpt CLI."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, recgpt.cli"], env=env, cwd=ROOT,
                   check=True, timeout=120)
    return time.perf_counter() - t0


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "recgpt").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_stage(cli, stage: str, cfg_path: Path, ops: Ops, tracer=None) -> float:
    """One CLI call with --force; returns wall seconds. Output is discarded."""
    argv = [stage, "--config", str(cfg_path), "--force", *STAGE_ARGS.get(stage, ())]
    gc.collect()
    sink = io.StringIO()
    span = tracer.stage(stage) if tracer is not None else contextlib.nullcontext()
    rc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), span:
            rc = cli.main(argv)
    except Exception:  # a crashing stage is a failed operation, not a crashed benchmark
        traceback.print_exc(file=sys.stderr)
    elapsed = time.perf_counter() - t0
    if not ops.check(rc == 0, f"stage {stage} exit code {rc}"):
        print(sink.getvalue()[-2000:], file=sys.stderr)
    return elapsed


def artifacts(run_dir: Path, K: int) -> dict[str, Path]:
    return {
        "preprocess": run_dir / "dataset.ckpt",
        "pretrain": run_dir / "pretrain.ckpt",
        "gen-prompts": run_dir / f"prompts_K{K}.ckpt",
        "tune": run_dir / f"tuned_K{K}.ckpt",
        "eval": run_dir / "eval_test.csv",
        "sweep": run_dir / "sweep_m_n.csv",
    }


def artifact_digest(path: Path) -> str:
    """Checkpoint blob SHA-256 (manifest excluded), or file SHA-256 for CSVs."""
    from recgpt import checkpoint

    if not path.exists():
        return "missing"
    if path.suffix == ".ckpt":
        return checkpoint.load(path)[1]["blob_sha256"]
    return checks.file_sha256(path)


def measure(cli, cfg_path, run_dir, K, seconds, ops) -> dict[str, list[float]]:
    """One full pass, then re-runs while ``seconds`` last: always of a stage
    with the fewest samples, the longest of those that fits in the time left.
    Stages faster than ``CHEAP_S`` are also re-run before every other stage,
    so their samples spread over the whole run.

    Every re-run must reproduce the first pass's artifact bit for bit.
    """
    deadline = time.perf_counter() + seconds
    paths = artifacts(run_dir, K)
    times: dict[str, list[float]] = {}
    first: dict[str, str] = {}

    def sample(stage):
        times.setdefault(stage, []).append(run_stage(cli, stage, cfg_path, ops))
        digest = artifact_digest(paths[stage])
        if stage in first:
            ops.check(digest == first[stage], f"re-run of {stage} changed {paths[stage].name}")
        first.setdefault(stage, digest)

    def cheap_round():
        for stage in list(times):
            if times[stage][0] < CHEAP_S and len(times[stage]) < MAX_STAGE_SAMPLES:
                sample(stage)

    for stage in STAGES:
        cheap_round()
        sample(stage)
    while True:
        left = deadline - time.perf_counter()
        fits = [s for s in STAGES if times[s][0] >= CHEAP_S
                and len(times[s]) < MAX_STAGE_SAMPLES and statistics.median(times[s]) <= left]
        if not fits:
            break
        cheap_round()
        sample(min(fits, key=lambda s: (len(times[s]), -statistics.median(times[s]))))
    return times


def pass_times(cli, cfg_path, ops, tracer=None) -> dict[str, float]:
    return {s: run_stage(cli, s, cfg_path, ops, tracer) for s in STAGES}


def check_outputs(cfg_path, run_dir, shape, report, ops) -> dict:
    """Shape kept, prompt count, n = 0 invariant, HR floor, ranking oracle."""
    from recgpt import checkpoint
    from recgpt.cli import load_dataset, load_model
    from recgpt.config import parse_config
    from recgpt.model import forward

    cfg = parse_config(cfg_path)
    K = cfg.prompt_window
    paths = artifacts(run_dir, K)
    dataset, _ = load_dataset(paths["preprocess"], cfg)
    ops.check((dataset.n_users, dataset.catalog.n_items) == (shape.users, shape.items),
              f"preprocess kept {dataset.n_users} users and {dataset.catalog.n_items} items, "
              f"generated {shape.users} and {shape.items}")

    prompts, _ = checkpoint.load(paths["gen-prompts"])
    tokens = int((prompts["segments"] == checks.PROMPT).sum())
    ops.check(tokens == report["prompt_tokens"],
              f"gen-prompts wrote {tokens} prompt items, expected {report['prompt_tokens']}")

    evals = checks.read_eval_csv(paths["eval"])
    k_max = max(cfg.ks())
    sweep_n0 = checks.read_sweep_row(paths["sweep"], f"{k_max}_0")
    recgpt1 = {(metric, k): v for (mode, metric, k), v in evals.items() if mode == "RECGPT1"}
    ops.check(sweep_n0 == recgpt1, "sweep (k,0) row differs from eval RECGPT1")

    hr = float(evals[("RECGPT", "HR", k_max)])
    ndcg = float(evals[("RECGPT", "NDCG", k_max)])
    if shape.hr_floor_over_chance is not None:
        floor = shape.hr_floor_over_chance * report["chance_hr"]
        ops.check(hr >= floor, f"RECGPT HR@{k_max} {hr:.4f} below floor {floor:.4f}")

    pretrained, _ = load_model(paths["pretrain"], cfg, "pretrain", hyper=cfg.hyper())
    tuned, _ = load_model(paths["tune"], cfg, "tune", hyper=cfg.hyper())
    modes = cfg.modes()
    step = max(1, dataset.n_users // ORACLE_USERS)
    ids = {dataset.catalog.users[u]: u for u in range(0, dataset.n_users, step)[:ORACLE_USERS]}
    dumps = {mode: checks.read_dump(run_dir / f"recall_{mode}_{cfg.eval_split}.csv",
                                    dataset.catalog, set(ids)) for mode in modes}
    for uid, u in ids.items():
        expected = checks.oracle_lists(forward, dataset, u, modes, pretrained, tuned, K,
                                       cfg.recall_m, cfg.recall_n, k_max,
                                       cfg.filter_history, cfg.max_len)
        got = {mode: dumps[mode].get(uid) for mode in modes}
        ops.check(got == expected, f"user {uid}: ranked lists differ from the oracle")
    return {f"hr_at_{k_max}": hr, f"ndcg_at_{k_max}": ndcg}


def check_determinism(key: str, digests: dict, ops) -> None:
    """Compare artifact digests with an earlier run of the same code and seed."""
    path = WORK / "digests" / f"{key}.json"
    if path.exists():
        previous = json.loads(path.read_text())
        for name, digest in digests.items():
            ops.check(previous.get(name) == digest,
                      f"{name} differs from an earlier run of the same code and seed")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(digests, indent=1))


def stage_throughput(shape, cfg, report, times) -> dict[str, float]:
    med = {s: statistics.median(v) for s, v in times.items()}
    users = shape.users
    return {
        "preprocess_s": med["preprocess"],
        "pretrain_users_per_s": users * cfg.pretrain_epochs / med["pretrain"],
        "gen_prompts_tokens_per_s": report["prompt_tokens"] / med["gen-prompts"],
        "tune_users_per_s": users * cfg.tune_epochs / med["tune"],
        "eval_users_per_s": users * len(shape.eval_modes) / med["eval"],
        "sweep_users_per_s": users * report["sweep_points"] / med["sweep"],
    }


def _layer_self_s(stage_summary) -> float:
    """Self time of the layer spans in a stage, without the stage's own."""
    return sum(v for k, v in stage_summary["self_s"].items() if not k.startswith("stage."))


def layer_metrics(tracer, summary, traced, untraced, quality) -> dict[str, float]:
    by_name = summary["by_name"]
    counters = tracer.counters
    out = {}
    for fn, fields in _COUNTED.items():
        stats = by_name.get(fn, {"calls": 0, "self_s": 0.0})
        for f in fields:
            out[f"{fn}.{f}"] = stats[f] if f in ("calls", "self_s") else counters.get(f"{fn}.{f}", 0)
    out["data.iter_batches.wait_s"] = by_name.get("data.iter_batches", {}).get("total_s", 0.0)
    callers = tracer.parent_names("training.generate_prompts")
    for caller, span in PROMPT_CALLERS.items():
        stats = callers.get(span, {"calls": 0, "self_s": 0.0})
        out[f"training.generate_prompts.{caller}.calls"] = stats["calls"]
        out[f"training.generate_prompts.{caller}.self_s"] = stats["self_s"]
        out[f"training.generate_prompts.{caller}.tokens"] = counters.get(
            f"training.generate_prompts.tokens@{span}", 0)
    for stage in STAGES:
        per = summary["by_stage"].get(stage, {"wall_s": 0.0, "self_s": {}})
        out[f"stage.{stage}.traced_s"] = traced[stage]
        out[f"stage.{stage}.untraced_s"] = untraced[stage]
        out[f"stage.{stage}.trace_overhead_s"] = traced[stage] - untraced[stage]
        out[f"stage.{stage}.layer_self_s"] = _layer_self_s(per)
    for name, value in quality.items():
        out[f"quality.{name}"] = value
    out["trace.spans"] = len(tracer.start)
    return out


def trace_checks(summary, rebound, ops) -> None:
    """Self times partition each stage; every wrapper was removed again."""
    for stage, per in summary["by_stage"].items():
        layers = _layer_self_s(per)
        ops.check(layers <= per["wall_s"] * (1 + 1e-9),
                  f"stage {stage}: layer self times {layers:.4f}s exceed wall {per['wall_s']:.4f}s")
    restored = all(getattr(m, a) is original for m, a, original in rebound)
    ops.check(bool(rebound) and restored, "tracing wrappers were not all restored")


def print_breakdown(summary) -> dict:
    """Largest layer self-time shares per stage, to stderr; returns them."""
    shares = {}
    for stage, per in summary["by_stage"].items():
        wall = per["wall_s"]
        top = sorted(per["self_s"].items(), key=lambda kv: -kv[1])[:5]
        shares[stage] = {k: v / wall for k, v in top}
        print(f"[trace] {stage:<12} {wall:8.3f}s  " +
              "  ".join(f"{k} {v / wall:5.1%}" for k, v in top), file=sys.stderr)
    return shares


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from recgpt import cli
    except ImportError as exc:
        print(f"error: cannot import recgpt from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: recgpt was imported from {cli.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    shape = workloads.WORKLOADS[args.workload]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = WORK / tag
    shutil.rmtree(out, ignore_errors=True)
    # set-up = a fresh interpreter importing the program + generating the
    # workload; done SETUP_REPEATS times, the median is reported
    setups, dirs = [], [out / "workload"] + [out / f"setup{i}" for i in range(1, SETUP_REPEATS)]
    for d in dirs:
        seconds = import_seconds()
        t0 = time.perf_counter()
        written = workloads.write_workload(args.workload, args.seed, d)
        setups.append(seconds + time.perf_counter() - t0)
        if d == dirs[0]:
            cfg_path, report = written
    setup_s = statistics.median(setups)
    for d in dirs[1:]:
        if (d / "interactions.tsv").read_bytes() != (dirs[0] / "interactions.tsv").read_bytes():
            print("error: workload generation is not deterministic", file=sys.stderr)
            return 3
        shutil.rmtree(d)
    from recgpt.config import parse_config
    from recgpt.evaluation import mn_grid
    cfg = parse_config(cfg_path)
    run_dir = cli.run_dir(cfg)
    K = cfg.prompt_window
    report["sweep_points"] = len(mn_grid(max(cfg.ks())))
    env = environment()
    print(json.dumps({"environment": env}), file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "shape": report}),
          file=sys.stderr)

    ops = Ops()
    spec = PER_LAYER if args.trace else END_TO_END
    if args.trace:
        untraced = pass_times(cli, cfg_path, ops)
        tracer = Tracer()
        with traced(tracer) as rebound:
            traced_times = pass_times(cli, cfg_path, ops, tracer)
        summary = tracer.summary()
        trace_checks(summary, rebound, ops)
        quality = check_outputs(cfg_path, run_dir, shape, report, ops)
        metrics = layer_metrics(tracer, summary, traced_times, untraced, quality)
        shares = print_breakdown(summary)
        tracer.save(out / "spans.npz")
        (out / "trace_summary.json").write_text(json.dumps(
            {"summary": summary, "top_shares": shares, "counters": tracer.counters}, indent=1))
    else:
        times = measure(cli, cfg_path, run_dir, K, args.seconds, ops)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        quality = check_outputs(cfg_path, run_dir, shape, report, ops)
        digests = {s: artifact_digest(p) for s, p in artifacts(run_dir, K).items()}
        check_determinism(f"{args.workload}-seed{args.seed}-{code_digest()[:16]}", digests, ops)
        metrics = {"setup_s": setup_s, **stage_throughput(shape, cfg, report, times),
                   "peak_rss_mb": peak_rss_mb}
        print(json.dumps({"stage_samples": times, "quality": quality}), file=sys.stderr)

    result = {
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {name: {"value": metrics[name], "unit": spec[name][0]} for name in spec},
    }
    (out / "result.json").write_text(json.dumps(
        {"environment": env, "shape": report, "failures": ops.failures, **result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
