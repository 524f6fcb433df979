"""Config parsing and the end-to-end pipeline CLI."""
import os
import platform
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from recgpt.checkpoint import load
from recgpt.cli import load_dataset, main, run_dir
from recgpt.config import ConfigError, RunConfig, parse_config
from recgpt.model import HyperParams

from conftest import rewrite_manifest

# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

CONFIG_TEMPLATE = """
# toy pipeline configuration
data_path = {data}
kcore_k = 2
d = 8
n_heads = 2
max_len = 12
lr = 0.01
batch_size = 8
seed = 0
pretrain_epochs = 2
tune_epochs = 2
early_stop_patience = 0
prompt_window = 1
recall_m = 9
recall_n = 1
eval_modes = PRETRAIN,FINETUNE,RECGPT1,RECGPT
eval_ks = 5,10
out_dir = {out}
"""


def write_toy_tsv(path, n_users=20, n_items=20, length=10):
    with open(path, "w", encoding="utf-8") as fh:
        for u in range(n_users):
            for t in range(length):
                fh.write(f"u{u:02d}\ti{(u + t) % n_items}\t{t}\n")
    return path


def write_config(tmp_path, name="run.cfg", **overrides):
    """The toy config with each override in place of its template line, as a
    config names each key once."""
    data = write_toy_tsv(tmp_path / "toy.tsv")
    text = "".join(f"{line}\n" for line in
                   CONFIG_TEMPLATE.format(data=data, out=tmp_path / "runs").splitlines()
                   if line.partition("=")[0].strip() not in overrides)
    for key, value in overrides.items():
        text += f"{key} = {value}\n"
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_config_round_trip(tmp_path):
    cfg = parse_config(write_config(tmp_path))
    assert cfg.d == 8
    assert cfg.kcore_k == 2
    assert cfg.ks() == (5, 10)
    assert cfg.modes() == ["PRETRAIN", "FINETUNE", "RECGPT1", "RECGPT"]
    assert cfg.hyper().d_ff == 32


def test_unknown_key_is_hard_error(tmp_path, capsys):
    # regen_every and trainable were keys once; a config naming them exits 2
    for key, value in (("learning_rate", 0.1), ("regen_every", 0), ("trainable", "all")):
        path = write_config(tmp_path, **{key: value})
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(path)
        assert main(["preprocess", "--config", str(path)]) == 2
        assert f"unknown key '{key}'" in capsys.readouterr().err


def test_bad_value_types_rejected(tmp_path):
    with pytest.raises(ConfigError, match="integer"):
        parse_config(write_config(tmp_path, d="eight"))
    with pytest.raises(ConfigError, match="boolean"):
        parse_config(write_config(tmp_path, filter_history="maybe"))


def test_bool_coercion(tmp_path):
    cfg = parse_config(write_config(tmp_path, filter_history="true"))
    assert cfg.filter_history is True


def test_recall_split_must_match_largest_k(tmp_path):
    # every k at least 1 and named once, and m >= 1, n >= 0, even where m + n
    # is the largest k
    for overrides, match in (({"recall_m": 5, "recall_n": 2}, "recall_m"),
                             ({"recall_m": 0, "recall_n": 10}, "recall_m"),
                             ({"recall_m": 11, "recall_n": -1}, "recall_n"),
                             ({"eval_ks": "-1,10"}, "eval_ks"),
                             ({"eval_ks": "0,10"}, "eval_ks"),
                             ({"eval_ks": "5,5,10"}, "eval_ks '5,5,10'"),
                             ({"eval_ks": "10,10"}, "eval_ks '10,10'")):
        with pytest.raises(ConfigError, match=match):
            parse_config(write_config(tmp_path, **overrides))


def test_hyperparameters_that_would_crash_or_mistrain_are_refused(tmp_path, capsys):
    # each of these raised a traceback in some stage or trained on silently
    for overrides, match in (({"n_heads": 0}, "n_heads=0"),
                             ({"d": 0}, "d=0"),
                             ({"d": -8}, "d=-8"),
                             ({"d_ff": -4}, "d_ff=-4"),
                             ({"n_layers": -1}, "n_layers=-1"),
                             ({"batch_size": 0}, "batch_size=0"),
                             ({"batch_size": -3}, "batch_size=-3"),
                             ({"neg_count": 0}, "neg_count=0"),
                             ({"neg_count": -1}, "neg_count=-1"),
                             ({"lr": -1}, "lr=-1"),
                             ({"lr": 0}, "lr=0"),
                             ({"lr": "nan"}, "lr=nan"),
                             ({"lr": "inf"}, "lr=inf"),
                             ({"seed": -1}, "seed=-1"),
                             ({"prompt_window": -1}, "prompt_window = -1"),
                             ({"pretrain_epochs": 0}, "pretrain_epochs = 0"),
                             ({"tune_epochs": -2}, "tune_epochs = -2")):
        path = write_config(tmp_path, **overrides)
        with pytest.raises(ConfigError, match=match):
            parse_config(path)
        assert main(["preprocess", "--config", str(path)]) == 2, overrides
        assert match in capsys.readouterr().err


def test_a_repeated_key_or_eval_mode_exits_2(tmp_path, capsys):
    """A key on two lines names both; a repeated eval mode, which would write
    its eval rows and recall dump twice, is named."""
    repeated = tmp_path / "repeated.cfg"
    repeated.write_text("data_path = x\nmax_len = 50\n\n# shorter\nmax_len = 7\n")
    for path, match in (
            (repeated, "line 5: key 'max_len' repeats line 2"),
            (write_config(tmp_path, eval_modes="RECGPT,PRETRAIN,recgpt"),
             "eval mode 'RECGPT' is repeated")):
        with pytest.raises(ConfigError, match=match):
            parse_config(path)
        assert main(["preprocess", "--config", str(path)]) == 2, match
        assert match in capsys.readouterr().err


def test_config_requires_data_path():
    with pytest.raises(ConfigError, match="data_path"):
        RunConfig().validate()


def test_config_hash_tracks_content(tmp_path):
    a = parse_config(write_config(tmp_path, name="a.cfg"))
    b = parse_config(write_config(tmp_path, name="b.cfg"))
    c = parse_config(write_config(tmp_path, name="c.cfg", seed=99))
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


def test_every_hyper_param_is_a_config_key_with_its_default():
    defaults = {f.name: f.default for f in fields(RunConfig)}
    for f in fields(HyperParams):
        assert defaults[f.name] == f.default, f.name
    assert RunConfig().hyper() == HyperParams()


def test_d_ff_zero_and_four_d_name_one_run(tmp_path):
    a = parse_config(write_config(tmp_path, name="a.cfg", d_ff=0))
    b = parse_config(write_config(tmp_path, name="b.cfg", d_ff=32))
    assert a.d_ff == b.d_ff == 32
    assert a.config_hash() == b.config_hash()


def test_d_not_divisible_by_n_heads_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, n_heads=3)
    with pytest.raises(ConfigError, match="not divisible"):
        parse_config(path)
    assert main(["preprocess", "--config", str(path)]) == 2
    assert "not divisible by n_heads=3" in capsys.readouterr().err


def test_min_timestamp_drops_earlier_interactions_before_the_kcore(tmp_path):
    """Item E has two users, but one of them only before timestamp 1: with
    min_timestamp = 1 the filter runs first and the 2-core then drops E,
    with item A that only timestamp 0 holds. The default -1 keeps all."""
    tsv = tmp_path / "ts.tsv"
    tsv.write_text("".join(f"{u}\t{i}\t{t}\n" for u, i, t in (
        ("u0", "A", 0), ("u0", "E", 0), ("u0", "B", 1), ("u0", "C", 2), ("u0", "D", 3),
        ("u1", "A", 0), ("u1", "B", 5), ("u1", "C", 6), ("u1", "D", 7), ("u1", "E", 8),
        ("u2", "B", 4), ("u2", "C", 5), ("u2", "D", 6))))
    for min_ts, items, actions in ((-1, ["A", "B", "C", "D", "E"], 13), (1, ["B", "C", "D"], 9)):
        path = tmp_path / f"ts{min_ts}.cfg"
        path.write_text(CONFIG_TEMPLATE.format(data=tsv, out=tmp_path / "runs")
                        + f"min_timestamp = {min_ts}\n")
        assert main(["preprocess", "--config", str(path)]) == 0
        cfg = parse_config(path)
        stats = (run_dir(cfg) / "stats.csv").read_text().splitlines()[1].split(",")
        assert stats[:3] == ["3", str(len(items)), str(actions)]
        dataset, manifest = load_dataset(run_dir(cfg) / "dataset.ckpt", cfg)
        assert dataset.catalog.items == items
        assert "max_len" not in manifest["meta"]
    idx = dataset.catalog.item_to_index
    assert dataset.sequences == [[idx["B"]]] * 3
    assert dataset.valid_target.tolist() == [idx["C"]] * 3
    assert dataset.test_target.tolist() == [idx["D"]] * 3


def test_unknown_eval_mode_rejected(tmp_path):
    with pytest.raises(ConfigError, match="mode"):
        parse_config(write_config(tmp_path, eval_modes="PRETRAIN,BOGUS"))


# ---------------------------------------------------------------------------
# pipeline CLI
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipeline")
    cfg_path = write_config(tmp)
    cfg = parse_config(cfg_path)
    run = tmp / "runs" / cfg.config_hash()[:12]
    for cmd in (
        ["preprocess"],
        ["pretrain"],
        ["gen-prompts"],
        ["tune"],
        ["tune", "--k", "0"],
        ["eval", "--dump"],
        ["sweep"],
    ):
        assert main(cmd + ["--config", str(cfg_path)]) == 0, cmd
    return tmp, cfg_path, cfg, run


def test_pipeline_emits_all_artifacts(pipeline):
    _, _, _, run = pipeline
    for name in ("dataset.ckpt", "pretrain.ckpt", "prompts_K1.ckpt",
                 "tuned_K1.ckpt", "tuned_K0.ckpt", "eval_test.csv",
                 "sweep_m_n.csv", "stats.csv", "pretrain_report.csv"):
        assert (run / name).exists(), name


def test_each_checkpoint_holds_what_its_declaration_says(pipeline):
    """Every declared checkpoint the stages wrote carries its stage tag, its
    declared tensors in blob order (a model's are its parameters), its meta
    keys and, in meta["upstream"], exactly the blob hash of its upstream."""
    from recgpt.artifacts import ARTIFACTS
    from recgpt.model import ModelParams

    _, _, cfg, run = pipeline
    model_tensors = ModelParams(1, 1, cfg.hyper()).names()
    for art in ARTIFACTS.values():
        for K in (0, 1) if "{K}" in art.file else (None,):
            _, manifest = load(run / art.name(K))
            meta, directory = manifest["meta"], manifest["tensors"]
            assert manifest["stage"] == art.stage
            in_blob_order = sorted(directory, key=lambda name: directory[name]["offset"])
            assert in_blob_order == (list(art.tensors) or model_tensors), art.name(K)
            assert set(art.meta) <= set(meta), art.name(K)
            if art.upstream is None:
                assert "upstream" not in meta
            else:
                _, upstream = load(run / ARTIFACTS[art.upstream].name())
                assert meta["upstream"] == {art.upstream: upstream["blob_sha256"]}


def test_loaders_keep_the_call_form_of_the_benchmark(pipeline):
    from recgpt.cli import load_model

    _, _, cfg, run = pipeline
    dataset, _ = load_dataset(run / "dataset.ckpt", cfg)
    for stage, name in (("pretrain", "pretrain.ckpt"), ("tune", "tuned_K1.ckpt")):
        params, manifest = load_model(run / name, cfg, stage, hyper=cfg.hyper())
        assert manifest["stage"] == stage
        assert (params.n_users, params.n_items) == (dataset.n_users, dataset.catalog.n_items)


def test_load_model_builds_the_params_from_the_saved_tensors(pipeline, monkeypatch):
    """Loading draws no random initialisation only to overwrite it."""
    import numpy as np

    from recgpt.cli import load_model

    _, _, cfg, run = pipeline
    saved, _ = load(run / "tuned_K1.ckpt")

    def no_rng(*args, **kwargs):
        raise AssertionError("load_model drew a random initialisation")
    monkeypatch.setattr(np.random, "default_rng", no_rng)
    params, _ = load_model(run / "tuned_K1.ckpt", cfg, "tune", hyper=cfg.hyper())
    assert sorted(params.names()) == sorted(saved)
    for p in params.parameters():
        assert p.value.dtype == np.float32 and np.array_equal(p.value, saved[p.name])
        assert p.grad.shape == p.value.shape and not p.grad.any()


def test_a_stale_checkpoint_is_refused_naming_the_command_that_rebuilds_it(tmp_path, capsys):
    """New data under the same config path: each stage refuses the first
    stale file it reads as stale (exit 2), before comparing its contents
    with the new dataset, and names that file and the command that rebuilds
    it."""
    cfg_path = write_config(tmp_path, seed=19)
    run = tmp_path / "runs" / parse_config(cfg_path).config_hash()[:12]

    def stage(*cmd):
        capsys.readouterr()
        return main([*cmd, "--config", str(cfg_path)]), capsys.readouterr().err

    for cmd in (["preprocess"], ["pretrain"], ["gen-prompts"]):
        assert stage(*cmd)[0] == 0, cmd
    write_toy_tsv(tmp_path / "toy.tsv", length=11)
    assert stage("preprocess", "--force")[0] == 0
    code, err = stage("gen-prompts", "--force")
    assert code == 2, err
    assert f"error: {run / 'pretrain.ckpt'}: upstream preprocess hash mismatch" in err
    assert "`recgpt pretrain --force`" in err
    assert stage("pretrain", "--force")[0] == 0
    code, err = stage("tune")
    assert code == 2, err
    assert f"error: {run / 'prompts_K1.ckpt'}: upstream pretrain hash mismatch" in err
    assert "`recgpt gen-prompts --k 1 --force`" in err
    assert stage("gen-prompts", "--force")[0] == 0
    assert stage("tune")[0] == 0


def test_pipeline_artifacts_name_config_hash(pipeline):
    _, _, cfg, run = pipeline
    for name in ("dataset.ckpt", "pretrain.ckpt", "tuned_K1.ckpt"):
        _, manifest = load(run / name)
        assert manifest["config_hash"] == cfg.config_hash()


def test_eval_csv_has_all_modes(pipeline):
    _, _, _, run = pipeline
    lines = (run / "eval_test.csv").read_text().strip().split("\n")
    assert lines[0] == "mode,metric,k,value,n_users"
    modes = {line.split(",")[0] for line in lines[1:]}
    assert modes == {"PRETRAIN", "FINETUNE", "RECGPT1", "RECGPT"}
    for line in lines[1:]:
        value = float(line.split(",")[3])
        assert 0.0 <= value <= 1.0


def test_sweep_csv_covers_grid(pipeline):
    _, _, _, run = pipeline
    lines = (run / "sweep_m_n.csv").read_text().strip().split("\n")
    labels = [line.split(",")[0] for line in lines[1:]]
    assert labels == ["10_0", "9_1", "8_2", "7_3", "6_4", "5_5"]


def test_refuses_overwrite_without_force(pipeline):
    _, cfg_path, _, _ = pipeline
    assert main(["preprocess", "--config", str(cfg_path)]) == 2
    assert main(["preprocess", "--config", str(cfg_path), "--force"]) == 0


def test_eval_mode_with_specific_recall_split(pipeline, tmp_path):
    tmp, cfg_path, _, _ = pipeline
    # (9,1) split reads the tuned checkpoint and exercises the two-step path
    alt = tmp_path / "alt.cfg"
    alt.write_text(cfg_path.read_text().replace("eval_modes = PRETRAIN,FINETUNE,RECGPT1,RECGPT",
                                                "eval_modes = RECGPT"))
    # new config hash -> new run dir; stage the pipeline again quickly
    for cmd in (["preprocess"], ["pretrain"], ["tune"], ["eval"]):
        assert main(cmd + ["--config", str(alt)]) == 0, cmd


def test_missing_config_key_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("data_path = x\nnot_a_key = 1\n")
    assert main(["preprocess", "--config", str(bad)]) == 2


def test_missing_data_file_is_data_error(tmp_path):
    cfg = write_config(tmp_path, name="missing.cfg")
    text = cfg.read_text().replace(str(tmp_path / "toy.tsv"),
                                   str(tmp_path / "nope.tsv"))
    cfg.write_text(text)
    assert main(["preprocess", "--config", str(cfg)]) == 3


def test_stage_requires_upstream(tmp_path):
    cfg_path = write_config(tmp_path, seed=7)
    assert main(["pretrain", "--config", str(cfg_path)]) == 2


def test_pipeline_deterministic_across_runs(pipeline, tmp_path):
    _, cfg_path, cfg, run = pipeline
    out2 = tmp_path / "rerun"
    for cmd in (["preprocess"], ["pretrain"], ["tune"]):
        assert main(cmd + ["--config", str(cfg_path), "--out", str(out2)]) == 0
    rerun = out2 / cfg.config_hash()[:12]
    for name in ("dataset.ckpt", "pretrain.ckpt", "tuned_K1.ckpt"):
        assert (run / name).read_bytes() == (rerun / name).read_bytes(), name


def test_training_stages_print_their_speed_outside_the_reports(tmp_path, capsys):
    """pretrain and tune print wall time, user-epochs/s and, with early
    stopping, the epoch kept; two runs still write identical reports."""
    cfg_path = write_config(tmp_path, early_stop_patience=5)
    cfg = parse_config(cfg_path)
    for out in ("one", "two"):
        assert main(["preprocess", "--config", str(cfg_path), "--out", str(tmp_path / out)]) == 0
        for stage, name in (("pretrain", "pretrain"), ("tune", "prompt_tune")):
            capsys.readouterr()
            assert main([stage, "--config", str(cfg_path), "--out", str(tmp_path / out)]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert re.fullmatch(rf"{name}: 2 epochs in \d+\.\d{{3}} s, \d+\.\d user-epochs/s",
                                lines[0]), lines
            assert re.fullmatch(r"best epoch [01], best_valid_hr10 \d\.\d{4}", lines[1]), lines
    runs = [tmp_path / out / cfg.config_hash()[:12] for out in ("one", "two")]
    for name in ("pretrain_report.csv", "tune_K1_report.csv", "pretrain.ckpt", "tuned_K1.ckpt"):
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt thresholds are glibc's")
def test_main_keeps_freed_activations_for_reuse():
    """Once main has run, even for a stage that fails on its config, 20
    stacked forwards of 10 rows of 50 positions at d = 64 page-fault less
    than once per call: glibc's defaults return their 100-128 KiB
    activations to the OS on free, and the calls fault about 4,600 pages in
    again. A stray fault or two of the interpreter's own is allowed."""
    script = (
        "import resource\nimport numpy as np\n"
        "from recgpt.cli import main\n"
        "from recgpt.model import HyperParams, ModelParams, last_hidden\n"
        "assert main(['pretrain', '--config', 'no-such.cfg']) == 2\n"
        "params = ModelParams(10, 400, HyperParams(d=64, n_heads=1, max_len=50))\n"
        "items = np.arange(500).reshape(10, 50) % 400\n"
        "segments = np.zeros_like(items)\n"
        "last_hidden(params, range(10), items, segments)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(20):\n"
        "    last_hidden(params, range(10), items, segments)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(src)] + [p for p in [os.environ.get("PYTHONPATH")]
                                                        if p]))
    done = subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120,
                          capture_output=True, text=True)
    assert int(done.stdout) < 20


def _refuse(*args, **kwargs):
    raise AssertionError("stage did work although its outputs exist")


@pytest.mark.parametrize("stage,work", [
    ("pretrain", "pretrain"),
    ("gen-prompts", "generate_prompt_cache"),
    ("tune", "prompt_tune"),
    ("eval", "evaluate"),
    ("sweep", "sweep_mn"),
])
def test_stage_refuses_overwrite_before_any_work(pipeline, monkeypatch, stage, work):
    import recgpt.cli

    _, cfg_path, _, _ = pipeline
    monkeypatch.setattr(recgpt.cli, work, _refuse)
    assert main([stage, "--config", str(cfg_path)]) == 2


def test_pretrain_checks_its_report_before_writing_the_checkpoint(tmp_path, monkeypatch):
    import recgpt.cli

    cfg_path = write_config(tmp_path, seed=11)
    run = tmp_path / "runs" / parse_config(cfg_path).config_hash()[:12]
    assert main(["preprocess", "--config", str(cfg_path)]) == 0
    (run / "pretrain_report.csv").write_text("epoch,loss\n")
    monkeypatch.setattr(recgpt.cli, "pretrain", _refuse)
    assert main(["pretrain", "--config", str(cfg_path)]) == 2
    assert not (run / "pretrain.ckpt").exists()


# ---------------------------------------------------------------------------
# ragged artifacts: dataset.ckpt and prompts_K*.ckpt are validated on load
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def prompt_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ragged")
    cfg_path = write_config(tmp, seed=5)
    for cmd in (["preprocess"], ["pretrain"], ["gen-prompts"], ["tune"], ["tune", "--k", "0"]):
        assert main(cmd + ["--config", str(cfg_path)]) == 0, cmd
    return cfg_path, tmp / "runs" / parse_config(cfg_path).config_hash()[:12]


def _copy_run(run, out, cfg_path, names):
    import shutil

    dest = out / parse_config(cfg_path).config_hash()[:12]
    dest.mkdir(parents=True)
    for name in names:
        shutil.copy(run / name, dest / name)
    return dest


def _resave(path, mutate):
    """Rewrite a checkpoint with mutated tensors and meta; the checksum stays valid."""
    from recgpt.checkpoint import save

    tensors, manifest = load(path)
    meta = manifest["meta"]
    mutate(tensors, meta)
    save(path, tensors, stage=manifest["stage"], config_hash=manifest["config_hash"], meta=meta)


def _set(key, index, value):
    def mutate(tensors, meta):
        tensors[key][index] = value
    return mutate


def _drop_last_user(tensors, meta):
    end = int(tensors["offsets"][-2])
    tensors["items"] = tensors["items"][:end]
    tensors["segments"] = tensors["segments"][:end]
    tensors["offsets"] = tensors["offsets"][:-1]
    meta["n_users"] -= 1


def _drop(key):
    def mutate(tensors, meta):
        del tensors[key]
    return mutate


def _reshape(key):
    def mutate(tensors, meta):
        tensors[key] = tensors[key].reshape(-1)
    return mutate


def _swap_offsets(key):
    def mutate(tensors, meta):
        tensors[key][[1, 2]] = tensors[key][[2, 1]]
    return mutate


@pytest.mark.parametrize("mutate", [
    _set("items", 0, -1),                 # NumPy would read it as the last item
    _set("items", 0, 20),                 # the toy catalog has 20 items
    _set("segments", 0, 2),
    _set("offsets", 0, 1),
    _swap_offsets("offsets"),
    _set("offsets", -1, 10**6),
    _drop_last_user,
    _drop("segments"),
], ids=["negative_item", "item_past_catalog", "bad_segment", "offsets_not_from_zero",
        "offsets_go_down", "offsets_overrun", "user_count", "missing_segments"])
def test_tune_rejects_malformed_prompts(prompt_run, tmp_path, mutate):
    cfg_path, run = prompt_run
    dest = _copy_run(run, tmp_path, cfg_path, ("dataset.ckpt", "pretrain.ckpt", "prompts_K1.ckpt"))
    _resave(dest / "prompts_K1.ckpt", mutate)
    assert main(["tune", "--config", str(cfg_path), "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize("mutate", [
    _set("seq_flat", 0, -1),
    _set("seq_flat", 0, 20),
    _set("valid_target", 0, -1),
    _set("test_target", 0, 20),
    _set("seq_offsets", 0, 1),
    _swap_offsets("seq_offsets"),
    _set("seq_offsets", -1, 10**6),
    _drop("seq_offsets"),
], ids=["negative_item", "item_past_catalog", "negative_valid_target",
        "test_target_past_catalog", "offsets_not_from_zero", "offsets_go_down",
        "offsets_overrun", "missing_offsets"])
def test_pretrain_rejects_malformed_dataset(prompt_run, tmp_path, mutate):
    cfg_path, run = prompt_run
    dest = _copy_run(run, tmp_path, cfg_path, ("dataset.ckpt",))
    _resave(dest / "dataset.ckpt", mutate)
    assert main(["pretrain", "--config", str(cfg_path), "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize("mutate", [_drop("W_l"), _reshape("W_e")],
                         ids=["missing_output_layer", "flat_item_embeddings"])
def test_gen_prompts_rejects_malformed_model(prompt_run, tmp_path, mutate):
    cfg_path, run = prompt_run
    dest = _copy_run(run, tmp_path, cfg_path, ("dataset.ckpt", "pretrain.ckpt"))
    _resave(dest / "pretrain.ckpt", mutate)
    assert main(["gen-prompts", "--config", str(cfg_path), "--out", str(tmp_path)]) == 3


def test_k_sweep_tunes_with_the_options_of_tune(tmp_path, monkeypatch):
    import recgpt.cli
    import recgpt.evaluation
    from recgpt.training import prompt_tune

    calls = {"cli": [], "evaluation": []}

    def recorder(where):
        def record(*args, **kwargs):
            calls[where].append(kwargs)
            return prompt_tune(*args, **kwargs)
        return record

    monkeypatch.setattr(recgpt.cli, "prompt_tune", recorder("cli"))
    monkeypatch.setattr(recgpt.evaluation, "prompt_tune", recorder("evaluation"))
    cfg_path = write_config(tmp_path, seed=13, loss_positions="all_real", sweep_axis="K")
    for cmd in (["preprocess"], ["pretrain"], ["tune"], ["sweep"]):
        assert main(cmd + ["--config", str(cfg_path)]) == 0, cmd
    assert len(calls["cli"]) == 1 and calls["evaluation"]
    for options in calls["evaluation"]:
        assert options == calls["cli"][0]


EVAL_INPUTS = ("dataset.ckpt", "pretrain.ckpt", "tuned_K1.ckpt", "tuned_K0.ckpt")


def _del_meta(key):
    def mutate(tensors, meta):
        del meta[key]
    return mutate


def _set_meta(key, value):
    def mutate(tensors, meta):
        meta[key] = value
    return mutate


def _other_first_item(tensors, meta):
    tensors["items"][0] = (tensors["items"][0] + 1) % 20


def _prompt_as_real(tensors, meta):
    tensors["segments"][1] = 0    # REAL where the layout law puts user 0's first prompt


def _real_items_run_together(tensors, meta):
    # user 0: v1, p, v2, ... -> v1, v2, p, ...: the same real items, out of layout
    for key in ("items", "segments"):
        tensors[key][[1, 2]] = tensors[key][[2, 1]]


@pytest.mark.parametrize("stage", ["tune", "eval"])
@pytest.mark.parametrize("mutate", [
    _other_first_item,
    _prompt_as_real,
    _real_items_run_together,
    _set_meta("K", 2),
    _set("items", 1, 20),
    _drop_last_user,
    _del_meta("K"),
], ids=["real_item_not_in_dataset", "prompt_tagged_real", "real_items_out_of_layout",
        "other_k", "item_past_catalog", "user_count", "missing_k"])
def test_saved_prompts_must_fit_the_dataset(prompt_run, tmp_path, stage, mutate, capsys):
    cfg_path, run = prompt_run
    dest = _copy_run(run, tmp_path, cfg_path, EVAL_INPUTS + ("prompts_K1.ckpt",))
    _resave(dest / "prompts_K1.ckpt", mutate)
    assert main([stage, "--config", str(cfg_path), "--out", str(tmp_path), "--force"]) == 3
    assert "prompts_K1.ckpt" in capsys.readouterr().err


@pytest.mark.parametrize("stage", ["eval", "sweep"])
def test_eval_and_sweep_need_the_saved_prompts(prompt_run, tmp_path, stage, capsys):
    cfg_path, run = prompt_run
    _copy_run(run, tmp_path, cfg_path, EVAL_INPUTS)
    assert main([stage, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "recgpt gen-prompts --k 1" in capsys.readouterr().err


@pytest.mark.parametrize("stage", ["eval", "sweep"])
def test_eval_and_sweep_refuse_prompts_of_another_pretrain(prompt_run, tmp_path, stage,
                                                            capsys):
    cfg_path, run = prompt_run
    dest = _copy_run(run, tmp_path, cfg_path, EVAL_INPUTS + ("prompts_K1.ckpt",))
    _resave(dest / "prompts_K1.ckpt", _set_meta("upstream", {"pretrain": "0" * 64}))
    assert main([stage, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "upstream pretrain hash mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("stage", ["eval", "sweep"])
def test_eval_and_sweep_continue_each_saved_row_once(prompt_run, tmp_path, monkeypatch, stage):
    import recgpt.evaluation

    cfg_path, run = prompt_run
    _copy_run(run, tmp_path, cfg_path, EVAL_INPUTS + ("prompts_K1.ckpt",))
    extended = []

    def extend(params, users, rows, new_items, K):
        extended.extend(u for u, new in zip(users, new_items) if new)
        return recgpt.training.extend_prompt_rows(params, users, rows, new_items, K)

    monkeypatch.setattr(recgpt.evaluation, "generate_prompt_cache", _refuse)
    monkeypatch.setattr(recgpt.evaluation, "extend_prompt_rows", extend)
    assert main([stage, "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    assert sorted(extended) == list(range(20))


def test_finetune_eval_needs_no_prompts(tmp_path):
    cfg_path = write_config(tmp_path, seed=17, eval_modes="FINETUNE")
    run = tmp_path / "runs" / parse_config(cfg_path).config_hash()[:12]
    for cmd in (["preprocess"], ["pretrain"], ["tune", "--k", "0"]):
        assert main(cmd + ["--config", str(cfg_path)]) == 0, cmd
    for path in run.glob("prompts_K*.ckpt"):
        path.unlink()
    assert main(["eval", "--config", str(cfg_path)]) == 0


@pytest.mark.parametrize("name,stage,mutate", [
    ("dataset.ckpt", "gen-prompts", _del_meta("users")),
    ("pretrain.ckpt", "gen-prompts", _del_meta("n_items")),
    ("prompts_K1.ckpt", "tune", _del_meta("n_users")),
], ids=["dataset_users", "model_n_items", "prompts_n_users"])
def test_loaders_refuse_a_manifest_missing_a_meta_key(prompt_run, tmp_path, name, stage,
                                                       mutate, capsys):
    cfg_path, run = prompt_run
    dest = _copy_run(run, tmp_path, cfg_path, ("dataset.ckpt", "pretrain.ckpt", "prompts_K1.ckpt"))
    _resave(dest / name, mutate)
    assert main([stage, "--config", str(cfg_path), "--out", str(tmp_path), "--force"]) == 3
    err = capsys.readouterr().err
    assert name in err and "missing key" in err


@pytest.mark.parametrize("name,mutate", [
    ("dataset.ckpt", _set_meta("items", "abc")),
    ("pretrain.ckpt", _set_meta("n_items", "20")),
    ("pretrain.ckpt", _set_meta("upstream", [1])),
], ids=["dataset_items_str", "model_n_items_str", "model_upstream_list"])
def test_loaders_refuse_a_mistyped_meta_value(prompt_run, tmp_path, name, mutate, capsys):
    cfg_path, run = prompt_run
    dest = _copy_run(run, tmp_path, cfg_path, ("dataset.ckpt", "pretrain.ckpt"))
    _resave(dest / name, mutate)
    assert main(["gen-prompts", "--config", str(cfg_path), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert name in err and "manifest meta key" in err and "must be" in err


@pytest.mark.parametrize("stage", ["gen-prompts", "tune", "eval", "sweep"])
def test_stages_refuse_a_pretrained_model_of_another_dataset(prompt_run, tmp_path, stage,
                                                              capsys):
    cfg_path, run = prompt_run
    dest = _copy_run(run, tmp_path, cfg_path, EVAL_INPUTS + ("prompts_K1.ckpt",))
    _resave(dest / "pretrain.ckpt", _set_meta("upstream", {"preprocess": "0" * 64}))
    assert main([stage, "--config", str(cfg_path), "--out", str(tmp_path), "--force"]) == 2
    assert "upstream preprocess hash mismatch" in capsys.readouterr().err


def test_stage_refuses_a_tensor_directory_that_does_not_fit_the_blob(prompt_run, tmp_path,
                                                                     capsys):
    def negative_offset(manifest):
        manifest["tensors"]["W_e"]["offset"] = -8

    cfg_path, run = prompt_run
    dest = _copy_run(run, tmp_path, cfg_path, ("dataset.ckpt", "pretrain.ckpt"))
    rewrite_manifest(dest / "pretrain.ckpt", negative_offset)
    assert main(["gen-prompts", "--config", str(cfg_path), "--out", str(tmp_path)]) == 3
    assert "pretrain.ckpt: tensor W_e: offset" in capsys.readouterr().err


@pytest.mark.parametrize("stage,name", [("gen-prompts", "pretrain.ckpt"),
                                        ("eval", "tuned_K1.ckpt")])
def test_stages_refuse_a_model_with_non_finite_weights(prompt_run, tmp_path, stage, name,
                                                       capsys):
    cfg_path, run = prompt_run
    dest = _copy_run(run, tmp_path, cfg_path, EVAL_INPUTS + ("prompts_K1.ckpt",))
    _resave(dest / name, _set("W_l", 3, float("nan")))
    assert main([stage, "--config", str(cfg_path), "--out", str(tmp_path), "--force"]) == 3
    assert f"{name}: tensor W_l holds non-finite values" in capsys.readouterr().err


@pytest.mark.parametrize("name,stage,command", [
    ("dataset.ckpt", "pretrain", "recgpt preprocess --force"),
    ("pretrain.ckpt", "gen-prompts", "recgpt pretrain --force"),
    ("prompts_K1.ckpt", "tune", "recgpt gen-prompts --k 1 --force"),
    ("tuned_K0.ckpt", "eval", "recgpt tune --k 0 --force"),
])
def test_a_checkpoint_of_another_config_is_refused_naming_its_rebuild(prompt_run, tmp_path, name,
                                                                     stage, command, capsys):
    def other_config(manifest):
        manifest["config_hash"] = "0" * 64

    cfg_path, run = prompt_run
    dest = _copy_run(run, tmp_path, cfg_path, EVAL_INPUTS + ("prompts_K1.ckpt",))
    rewrite_manifest(dest / name, other_config)
    assert main([stage, "--config", str(cfg_path), "--out", str(tmp_path), "--force"]) == 2
    err = capsys.readouterr().err
    assert f"error: {dest / name}: made under another config" in err
    assert err.rstrip().endswith(f"rebuild it with `{command}`")
