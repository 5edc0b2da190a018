"""Run configuration: one JSON document drives every command.

The schema is validated strictly: unknown keys are rejected and every
error carries the JSON pointer of the offending entry. A run is fully
determined by the effective configuration plus the seed(s); the config
hash recorded in reports covers everything except the output directory.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from promix.embedspace import SyntheticConfig
from promix.evaluation import HarnessConfig
from promix.head import DEFAULT_TAU
from promix.losses import LOSS_KINDS, LossConfig
from promix.outclass import STRATEGY_KINDS, OutclassStrategy
from promix.train import HyperParams, OptimizerConfig


class ConfigError(ValueError):
    """Invalid run configuration; ``pointer`` locates the bad entry."""

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(f"{pointer or '/'}: {message}")
        self.pointer = pointer or "/"


def _require_keys(obj: dict, allowed: dict, pointer: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r}", f"{pointer}/{key}")


def _typed(obj: dict, key: str, kind, default, pointer: str):
    if key not in obj:
        return default
    value = obj[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"expected {kind.__name__}", f"{pointer}/{key}")
    return value


@dataclass(frozen=True)
class RunConfig:
    out_dir: str = "runs/default"
    seed: int = 0
    seeds: tuple[int, ...] = (0, 1, 2)
    jobs: int = 1
    tau: float = DEFAULT_TAU
    synthetic: SyntheticConfig | None = SyntheticConfig()
    files: dict | None = None
    partition: dict | None = None
    hyper: HyperParams = HyperParams()
    loss: LossConfig = LossConfig()
    optimizer: OptimizerConfig = OptimizerConfig()
    outclass: OutclassStrategy = OutclassStrategy()
    pool_size: int = 64
    pool_file: str | None = None
    parameterization: str = "two_stage"

    def harness(self) -> HarnessConfig:
        if self.synthetic is None:
            raise ConfigError("this command requires a synthetic data source", "/data")
        return HarnessConfig(
            synthetic=self.synthetic,
            hyper=self.hyper,
            loss=self.loss,
            optimizer=self.optimizer,
            outclass=self.outclass,
            parameterization=self.parameterization,
            seeds=self.seeds,
            pool_size=self.pool_size,
            tau=self.tau,
            jobs=self.jobs,
        )

    def canonical(self) -> dict:
        return {
            "seed": self.seed,
            "seeds": list(self.seeds),
            "jobs": self.jobs,
            "tau": self.tau,
            "data": (
                {"synthetic": self.synthetic.to_dict()}
                if self.synthetic is not None
                else {"files": self.files}
            ),
            "partition": self.partition,
            "hyper": {
                "conf_weight": self.hyper.conf_weight,
                "ent_weight": self.hyper.ent_weight,
                "margin": self.hyper.margin,
                "context_len": self.hyper.context_len,
            },
            "loss": {
                "kind": self.loss.kind,
                "w": self.loss.w,
                "gamma": self.loss.gamma,
                "q": self.loss.q,
            },
            "optimizer": {
                "prompt_lr": self.optimizer.prompt_lr,
                "prompt_weight_decay": self.optimizer.prompt_weight_decay,
                "beta1": self.optimizer.beta1,
                "beta2": self.optimizer.beta2,
                "eps": self.optimizer.eps,
                "weight_lr": self.optimizer.weight_lr,
                "weight_momentum": self.optimizer.weight_momentum,
                "weight_weight_decay": self.optimizer.weight_weight_decay,
                "epochs": self.optimizer.epochs,
                "batch_size": self.optimizer.batch_size,
                "weight_epochs": self.optimizer.weight_epochs,
            },
            "outclass": {
                "kind": self.outclass.kind,
                "count": self.outclass.count,
                "pool_size": self.pool_size,
                "pool_file": self.pool_file,
            },
            "weights": {"parameterization": self.parameterization},
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _parse_synthetic(obj: dict, pointer: str) -> SyntheticConfig:
    defaults = SyntheticConfig()
    allowed = {
        "dim": int, "num_classes": int, "shots": int, "test_per_class": int,
        "intra_noise": float, "proto_noise": float, "confusion_pairs": int, "seed": int,
    }
    _require_keys(obj, allowed, pointer)
    kwargs = {
        key: _typed(obj, key, kind, getattr(defaults, key), pointer)
        for key, kind in allowed.items()
    }
    try:
        return SyntheticConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc), pointer) from exc


def _parse_partition(obj: dict, pointer: str) -> dict:
    allowed = {"kind": str, "base_size": int, "way": int, "sets": list, "seed": int}
    _require_keys(obj, allowed, pointer)
    kind = _typed(obj, "kind", str, "base_new_even_split", pointer)
    if kind not in ("base_new_even_split", "session_schedule", "explicit"):
        raise ConfigError(f"unknown partition kind {kind!r}", f"{pointer}/kind")
    fields = {key: _typed(obj, key, allowed[key], None, pointer) for key in allowed}
    for i, subset in enumerate(fields["sets"] or []):
        if not isinstance(subset, list):
            raise ConfigError("expected list", f"{pointer}/sets/{i}")
        for j, c in enumerate(subset):
            if not isinstance(c, int) or isinstance(c, bool):
                raise ConfigError("expected int", f"{pointer}/sets/{i}/{j}")
    if fields["seed"] is not None and fields["seed"] < 0:
        raise ConfigError("expected non-negative integer", f"{pointer}/seed")
    return {**fields, "kind": kind}


def parse_config(raw: dict) -> RunConfig:
    """Validate a raw JSON document into a RunConfig."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object")
    top_allowed = {
        "out_dir": str, "seed": int, "seeds": list, "jobs": int, "tau": float,
        "data": dict, "partition": dict, "hyper": dict, "loss": dict,
        "optimizer": dict, "outclass": dict, "weights": dict,
    }
    _require_keys(raw, top_allowed, "")

    seeds_raw = _typed(raw, "seeds", list, [0, 1, 2], "")
    if not all(isinstance(s, int) and not isinstance(s, bool) for s in seeds_raw):
        raise ConfigError("seeds must be integers", "/seeds")
    if not seeds_raw:
        raise ConfigError("seeds must be non-empty", "/seeds")
    if len(set(seeds_raw)) != len(seeds_raw):
        raise ConfigError("seeds must be distinct", "/seeds")

    data = raw.get("data", {"synthetic": {}})
    _require_keys(data, {"synthetic": dict, "files": dict}, "/data")
    if ("synthetic" in data) == ("files" in data):
        raise ConfigError("exactly one of 'synthetic' or 'files' required", "/data")
    synthetic = None
    files = None
    if "synthetic" in data:
        synthetic = _parse_synthetic(data["synthetic"], "/data/synthetic")
    else:
        files_obj = data["files"]
        _require_keys(
            files_obj, {"train": str, "test": str, "anchors": str}, "/data/files"
        )
        for key in ("train", "test", "anchors"):
            if key not in files_obj:
                raise ConfigError(f"missing file path {key!r}", "/data/files")
        files = dict(files_obj)

    hyper_obj = raw.get("hyper", {})
    _require_keys(
        hyper_obj,
        {"conf_weight": float, "ent_weight": float, "margin": float, "context_len": int},
        "/hyper",
    )
    hd = HyperParams()
    try:
        hyper = HyperParams(
            conf_weight=_typed(hyper_obj, "conf_weight", float, hd.conf_weight, "/hyper"),
            ent_weight=_typed(hyper_obj, "ent_weight", float, hd.ent_weight, "/hyper"),
            margin=_typed(hyper_obj, "margin", float, hd.margin, "/hyper"),
            context_len=_typed(hyper_obj, "context_len", int, hd.context_len, "/hyper"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), "/hyper") from exc

    loss_obj = raw.get("loss", {})
    _require_keys(loss_obj, {"kind": str, "w": float, "gamma": float, "q": float}, "/loss")
    ld = LossConfig()
    kind = _typed(loss_obj, "kind", str, ld.kind, "/loss")
    if kind not in LOSS_KINDS:
        raise ConfigError(f"unknown loss kind {kind!r}", "/loss/kind")
    try:
        loss = LossConfig(
            kind=kind,
            w=_typed(loss_obj, "w", float, ld.w, "/loss"),
            gamma=_typed(loss_obj, "gamma", float, ld.gamma, "/loss"),
            q=_typed(loss_obj, "q", float, ld.q, "/loss"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), "/loss") from exc

    opt_obj = raw.get("optimizer", {})
    opt_allowed = {
        "prompt_lr": float, "prompt_weight_decay": float, "beta1": float,
        "beta2": float, "eps": float, "weight_lr": float, "weight_momentum": float,
        "weight_weight_decay": float, "epochs": int, "batch_size": int,
        "weight_epochs": int,
    }
    _require_keys(opt_obj, opt_allowed, "/optimizer")
    od = OptimizerConfig()
    try:
        optimizer = OptimizerConfig(
            **{
                key: _typed(opt_obj, key, kind, getattr(od, key), "/optimizer")
                for key, kind in opt_allowed.items()
            }
        )
    except ValueError as exc:
        raise ConfigError(str(exc), "/optimizer") from exc

    oc_obj = raw.get("outclass", {})
    _require_keys(
        oc_obj, {"kind": str, "count": int, "pool_size": int, "pool_file": str}, "/outclass"
    )
    oc_kind = _typed(oc_obj, "kind", str, "random_word", "/outclass")
    if oc_kind not in STRATEGY_KINDS:
        raise ConfigError(f"unknown out-class kind {oc_kind!r}", "/outclass/kind")
    try:
        outclass = OutclassStrategy(
            kind=oc_kind, count=_typed(oc_obj, "count", int, None, "/outclass")
        )
    except ValueError as exc:
        raise ConfigError(str(exc), "/outclass") from exc

    weights_obj = raw.get("weights", {})
    _require_keys(weights_obj, {"parameterization": str}, "/weights")
    parameterization = _typed(weights_obj, "parameterization", str, "two_stage", "/weights")
    if parameterization not in ("one_stage", "two_stage"):
        raise ConfigError(
            f"parameterization must be one_stage or two_stage, got {parameterization!r}",
            "/weights/parameterization",
        )

    partition = _parse_partition(raw.get("partition", {}), "/partition")

    pool_size = _typed(oc_obj, "pool_size", int, 64, "/outclass")
    if pool_size < 1:
        raise ConfigError("pool_size must be at least 1", "/outclass/pool_size")

    jobs = _typed(raw, "jobs", int, 1, "")
    if jobs < 1:
        raise ConfigError("jobs must be at least 1", "/jobs")

    tau = _typed(raw, "tau", float, DEFAULT_TAU, "")
    if not math.isfinite(tau) or tau <= 0:
        raise ConfigError(f"tau must be finite and positive, got {tau}", "/tau")

    return RunConfig(
        out_dir=_typed(raw, "out_dir", str, "runs/default", ""),
        seed=_typed(raw, "seed", int, 0, ""),
        seeds=tuple(seeds_raw),
        jobs=jobs,
        tau=tau,
        synthetic=synthetic,
        files=files,
        partition=partition,
        hyper=hyper,
        loss=loss,
        optimizer=optimizer,
        outclass=outclass,
        pool_size=pool_size,
        pool_file=_typed(oc_obj, "pool_file", str, None, "/outclass"),
        parameterization=parameterization,
    )


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply ``--set path=value`` pairs; paths are dot-separated, values
    parse as JSON when possible and fall back to strings."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form path=value")
        path, _, literal = item.partition("=")
        try:
            value = json.loads(literal)
        except json.JSONDecodeError:
            value = literal
        keys = [k for k in path.split(".") if k]
        if not keys:
            raise ConfigError(f"override {item!r} has an empty path")
        node = raw
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"cannot descend into {key!r}", "/" + "/".join(keys))
        node[keys[-1]] = value
    return raw


def load_config(path, overrides: list[str] | None = None) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if overrides:
        raw = apply_overrides(raw, list(overrides))
    return parse_config(raw)
