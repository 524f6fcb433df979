"""Config parsing and the end-to-end pipeline CLI."""
import pytest

from recgpt.checkpoint import load
from recgpt.cli import main
from recgpt.config import ConfigError, RunConfig, parse_config

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
    for cmd in (["preprocess"], ["pretrain"], ["gen-prompts"]):
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
], ids=["negative_item", "item_past_catalog", "bad_segment", "offsets_not_from_zero",
        "offsets_go_down", "offsets_overrun", "user_count"])
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
], ids=["negative_item", "item_past_catalog", "negative_valid_target",
        "test_target_past_catalog", "offsets_not_from_zero", "offsets_go_down",
        "offsets_overrun"])
def test_pretrain_rejects_malformed_dataset(prompt_run, tmp_path, mutate):
    cfg_path, run = prompt_run
    dest = _copy_run(run, tmp_path, cfg_path, ("dataset.ckpt",))
    _resave(dest / "dataset.ckpt", mutate)
    assert main(["pretrain", "--config", str(cfg_path), "--out", str(tmp_path)]) == 3
