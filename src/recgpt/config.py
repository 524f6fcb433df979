"""Flat `key = value` run configuration with a strict key set."""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

from .model import HyperParams
from .training import LOSS_POSITIONS


class ConfigError(RuntimeError):
    pass


@dataclass
class RunConfig(HyperParams):
    """The model's HyperParams keys, then the pipeline's."""
    # data
    data_path: str = ""
    min_timestamp: int = -1          # -1 disables the filter
    kcore_k: int = 5
    # optimization
    pretrain_epochs: int = 50
    tune_epochs: int = 50
    early_stop_patience: int = 10
    # prompts
    prompt_window: int = 1
    loss_positions: str = "last"     # or all_real
    # recall / evaluation
    recall_m: int = 9
    recall_n: int = 1
    filter_history: bool = False
    eval_modes: str = "PRETRAIN,FINETUNE,RECGPT1,RECGPT"
    eval_split: str = "test"
    eval_ks: str = "5,10"
    sweep_axis: str = "m_n"          # m_n | K
    # output
    out_dir: str = "runs"

    def validate(self) -> None:
        if not self.data_path:
            raise ConfigError("data_path is required")
        for key, allowed in (("loss_positions", LOSS_POSITIONS),
                             ("eval_split", ("valid", "test")), ("sweep_axis", ("m_n", "K"))):
            if getattr(self, key) not in allowed:
                raise ConfigError(f"bad {key} {getattr(self, key)!r}")
        if self.kcore_k < 1:
            raise ConfigError("kcore_k must be >= 1")
        if self.prompt_window < 0:
            raise ConfigError(f"prompt_window = {self.prompt_window} must be >= 0")
        if self.pretrain_epochs < 1 or self.tune_epochs < 0:
            raise ConfigError(f"pretrain_epochs = {self.pretrain_epochs} and tune_epochs = "
                              f"{self.tune_epochs} must be >= 1 and >= 0")
        try:
            self.ks()
            self.modes()
        except (ValueError, ConfigError) as exc:
            raise ConfigError(str(exc)) from exc
        if min(self.ks()) < 1 or len(set(self.ks())) < len(self.ks()):
            raise ConfigError(f"eval_ks {self.eval_ks!r}: every k must be >= 1 and "
                              "appear once")
        if self.recall_m < 1 or self.recall_n < 0:
            raise ConfigError(f"recall_m = {self.recall_m} and recall_n = {self.recall_n} "
                              "must be >= 1 and >= 0")
        if self.recall_m + self.recall_n != max(self.ks()):
            raise ConfigError(
                f"recall_m + recall_n = {self.recall_m + self.recall_n} "
                f"must equal the largest eval k {max(self.ks())}"
            )

    def ks(self) -> tuple[int, ...]:
        return tuple(int(k) for k in self.eval_ks.split(","))

    def modes(self) -> list[str]:
        from .evaluation import MODES
        modes = [m.strip().upper() for m in self.eval_modes.split(",") if m.strip()]
        for i, m in enumerate(modes):
            if m not in MODES:
                raise ConfigError(f"unknown eval mode {m!r}")
            if m in modes[:i]:
                raise ConfigError(f"eval mode {m!r} is repeated")
        return modes

    def hyper(self) -> HyperParams:
        return HyperParams(**{f.name: getattr(self, f.name) for f in fields(HyperParams)})

    def canonical(self) -> str:
        return "\n".join(f"{f.name} = {getattr(self, f.name)}" for f in fields(self))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()


def _coerce(key: str, raw: str):
    proto = getattr(RunConfig(), key)
    if isinstance(proto, bool):
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"key {key}: expected a boolean, got {raw!r}")
    for kind, expected in ((int, "an integer"), (float, "a number")):
        if isinstance(proto, kind):
            try:
                return kind(raw)
            except ValueError as exc:
                raise ConfigError(f"key {key}: expected {expected}, got {raw!r}") from exc
    return raw


def parse_config(path) -> RunConfig:
    """Unknown keys are hard errors; '#' starts a comment. The config is
    built once from every parsed key, so HyperParams' checks and its d_ff
    default see the final values."""
    known = {f.name for f in fields(RunConfig)}
    values, lines = {}, {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}: line {lineno}: expected `key = value`")
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in known:
                raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
            if key in lines:
                raise ConfigError(f"{path}: line {lineno}: key {key!r} repeats line "
                                  f"{lines[key]}")
            values[key], lines[key] = _coerce(key, raw), lineno
    try:
        cfg = RunConfig(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    cfg.validate()
    return cfg
