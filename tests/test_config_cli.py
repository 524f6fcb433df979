"""Config parsing and the end-to-end pipeline CLI."""
from dataclasses import fields

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
    data = write_toy_tsv(tmp_path / "toy.tsv")
    text = CONFIG_TEMPLATE.format(data=data, out=tmp_path / "runs")
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


def test_unknown_key_is_hard_error(tmp_path):
    path = write_config(tmp_path, learning_rate=0.1)
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(path)


def test_bad_value_types_rejected(tmp_path):
    with pytest.raises(ConfigError, match="integer"):
        parse_config(write_config(tmp_path, d="eight"))
    with pytest.raises(ConfigError, match="boolean"):
        parse_config(write_config(tmp_path, filter_history="maybe"))


def test_bool_coercion(tmp_path):
    cfg = parse_config(write_config(tmp_path, filter_history="true"))
    assert cfg.filter_history is True


def test_recall_split_must_match_largest_k(tmp_path):
    with pytest.raises(ConfigError, match="recall_m"):
        parse_config(write_config(tmp_path, recall_m=5, recall_n=2))


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
    cfg_path = write_config(tmp_path, seed=13, regen_every=2, sweep_axis="K")
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
