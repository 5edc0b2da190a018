"""Run configuration: one JSON document drives every command.

A RunConfig is the harnesses' HarnessConfig plus the six fields only the
command line reads: ``out_dir``, the top-level ``seed``, the data
``files``, the ``partition``, the out-class ``pool_file`` and the ``loss``
parameters of the ``losses`` zoo, whose kind each row sets. The schema
is validated strictly: unknown keys are rejected and every error carries
the JSON pointer of the offending entry. The parser checks the document's
shape (objects, keys and types); each value's range is checked by the
dataclass that holds it, whose FieldError the parser turns into the
field's pointer. A run is fully determined by the effective configuration
plus the seed(s); the config hash recorded in reports covers everything
except the output directory.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from collections.abc import Sequence
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from promix.embedspace import FieldError, SyntheticConfig
from promix.evaluation import HarnessConfig
from promix.head import DEFAULT_TAU
from promix.losses import LossConfig
from promix.outclass import OutclassStrategy
from promix.train import HyperParams, OptimizerConfig

_FILE_KEYS = ("train", "test", "anchors")


class ConfigError(ValueError):
    """Invalid run configuration; ``pointer`` locates the bad entry."""

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(f"{pointer or '/'}: {message}")
        self.pointer = pointer or "/"


def _require_keys(obj, allowed, pointer: str) -> None:
    """``obj`` must be a JSON object whose keys all lie in ``allowed``."""
    if not isinstance(obj, dict):
        raise ConfigError("expected object", pointer)
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r}", f"{pointer}/{key}")


def _typed(obj: dict, key: str, kind, default, pointer: str):
    if key not in obj:
        return default
    value = obj[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"expected {kind.__name__}", f"{pointer}/{key}")
    return value


def _build(cls, values: dict, pointer: str, sections: dict | None = None):
    """``cls(**values)``, its FieldError raised again as a ConfigError at
    ``<pointer>/<field>``; ``sections`` gives the pointer of a field that
    the document keeps in another section."""
    try:
        return cls(**values)
    except FieldError as exc:
        where = (sections or {}).get(exc.field, pointer)
        raise ConfigError(str(exc), f"{where}/{exc.field}") from exc


def _section(obj, cls, pointer: str, skip=()):
    """Parse a section whose keys are the fields of dataclass ``cls`` (less
    ``skip``); each value must have the type of the field's default."""
    defaults = cls()
    names = [f.name for f in fields(cls) if f.name not in skip]
    _require_keys(obj, names, pointer)
    values = {
        name: _typed(obj, name, type(getattr(defaults, name)), getattr(defaults, name), pointer)
        for name in names
    }
    return _build(cls, values, pointer)


@dataclass(frozen=True)
class RunConfig(HarnessConfig):
    """A HarnessConfig plus the fields only the command line reads."""

    out_dir: str = "runs/default"
    seed: int = 0
    loss: LossConfig = LossConfig()
    files: dict | None = None
    partition: dict | None = None
    pool_file: str | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.seed < 0:
            raise FieldError("seed", "must be non-negative")

    def canonical(self) -> dict:
        """The hashed document: every field but ``out_dir`` and the fscil
        session settings, laid out by section. ``data.synthetic`` is hashed
        with a ``seed`` of 0 that no field holds, and the document with a
        ``jobs`` of 1, the worker count that configs once set and no output
        depended on, so the hashes that earlier reports and manifests carry
        still match; the seeds that draw the data are hashed as ``seed`` and
        ``seeds``."""
        doc = asdict(self)
        for key in ("out_dir", "fscil_base_size", "fscil_way"):
            del doc[key]
        doc["jobs"] = 1
        synthetic, files = doc.pop("synthetic"), doc.pop("files")
        synthetic["seed"] = 0
        doc["data"] = {"synthetic": synthetic} if files is None else {"files": files}
        doc["outclass"].update(pool_size=doc.pop("pool_size"), pool_file=doc.pop("pool_file"))
        doc["weights"] = {"parameterization": doc.pop("parameterization")}
        return doc

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _parse_partition(obj: dict, pointer: str) -> dict:
    allowed = {"kind": str, "base_size": int, "way": int, "sets": list, "seed": int}
    _require_keys(obj, allowed, pointer)
    kind = _typed(obj, "kind", str, "base_new_even_split", pointer)
    if kind not in ("base_new_even_split", "session_schedule", "explicit"):
        raise ConfigError(f"unknown partition kind {kind!r}", f"{pointer}/kind")
    spec = {key: _typed(obj, key, allowed[key], None, pointer) for key in allowed}
    for i, subset in enumerate(spec["sets"] or []):
        if not isinstance(subset, list):
            raise ConfigError("expected list", f"{pointer}/sets/{i}")
        for j, c in enumerate(subset):
            if not isinstance(c, int) or isinstance(c, bool):
                raise ConfigError("expected int", f"{pointer}/sets/{i}/{j}")
    reads = {"base_new_even_split": ("seed",), "session_schedule": ("base_size", "way", "seed"),
             "explicit": ("sets",)}[kind]
    for key in ("base_size", "way", "sets", "seed"):
        if spec[key] is not None and key not in reads:
            raise ConfigError(f"a {kind} partition does not read {key!r}", f"{pointer}/{key}")
    if kind == "explicit" and spec["sets"] is not None and len(spec["sets"]) < 2:
        raise ConfigError("explicit partition needs two sets or more: Y_0, then the tuned Y_1",
                          f"{pointer}/sets")
    if spec["seed"] is not None and spec["seed"] < 0:
        raise ConfigError("expected non-negative integer", f"{pointer}/seed")
    return {**spec, "kind": kind}


def parse_config(raw: dict) -> RunConfig:
    """Validate a raw JSON document into a RunConfig."""
    top_keys = ("out_dir", "seed", "seeds", "tau", "data", "partition", "hyper", "loss",
                "optimizer", "outclass", "weights")
    _require_keys(raw, top_keys, "")

    data = raw.get("data", {"synthetic": {}})
    _require_keys(data, ("synthetic", "files"), "/data")
    if ("synthetic" in data) == ("files" in data):
        raise ConfigError("exactly one of 'synthetic' or 'files' required", "/data")
    synthetic = SyntheticConfig()
    files = None
    if "synthetic" in data:
        synthetic = _section(data["synthetic"], SyntheticConfig, "/data/synthetic")
    else:
        files_obj = data["files"]
        _require_keys(files_obj, _FILE_KEYS, "/data/files")
        for key in _FILE_KEYS:
            if key not in files_obj:
                raise ConfigError(f"missing file path {key!r}", "/data/files")
        files = {key: _typed(files_obj, key, str, None, "/data/files") for key in _FILE_KEYS}

    oc_obj = raw.get("outclass", {})
    _require_keys(oc_obj, ("kind", "count", "pool_size", "pool_file"), "/outclass")
    if "pool_size" in oc_obj and "pool_file" in oc_obj:
        raise ConfigError("a pool_file's words are the pool, so pool_size would go unread",
                          "/outclass/pool_size")
    outclass = _build(OutclassStrategy, {
        "kind": _typed(oc_obj, "kind", str, "random_word", "/outclass"),
        "count": _typed(oc_obj, "count", int, None, "/outclass"),
    }, "/outclass")
    for key in ("pool_size", "pool_file"):
        if key in oc_obj and not outclass.draws_words:
            raise ConfigError(f"kind {outclass.kind} draws no words, so {key} would go unread",
                              f"/outclass/{key}")

    weights_obj = raw.get("weights", {})
    _require_keys(weights_obj, ("parameterization",), "/weights")

    values = {
        "synthetic": synthetic,
        "hyper": _section(raw.get("hyper", {}), HyperParams, "/hyper"),
        # each row of the `losses` zoo sets its own kind, so a loss kind would go unread
        "loss": _section(raw.get("loss", {}), LossConfig, "/loss", skip=("kind",)),
        "optimizer": _section(raw.get("optimizer", {}), OptimizerConfig, "/optimizer"),
        "outclass": outclass,
        "parameterization": _typed(weights_obj, "parameterization", str, "two_stage", "/weights"),
        "seeds": tuple(_typed(raw, "seeds", list, [0, 1, 2], "")),
        "pool_size": _typed(oc_obj, "pool_size", int, 64, "/outclass"),
        "tau": _typed(raw, "tau", float, DEFAULT_TAU, ""),
        "out_dir": _typed(raw, "out_dir", str, "runs/default", ""),
        "seed": _typed(raw, "seed", int, 0, ""),
        "files": files,
        "partition": _parse_partition(raw.get("partition", {}), "/partition"),
        "pool_file": _typed(oc_obj, "pool_file", str, None, "/outclass"),
    }
    if outclass.kind == "none" and "margin" in raw.get("hyper", {}):
        raise ConfigError("kind none fits no out-weight, so its margin would go unread",
                          "/hyper/margin")
    return _build(RunConfig, values, "",
                  sections={"parameterization": "/weights", "pool_size": "/outclass"})


def apply_overrides(raw: dict, overrides: Sequence[str]) -> dict:
    """Apply ``--set path=value`` pairs; paths are dot-separated, values
    parse as JSON when possible and fall back to strings."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form path=value")
        path, _, literal = item.partition("=")
        try:
            value = json.loads(literal)
        except ValueError:
            value = literal
        keys = [k for k in path.split(".") if k]
        if not keys:
            raise ConfigError(f"override {item!r} has an empty path")
        node = raw
        for key in keys[:-1]:
            node = node.setdefault(key, {}) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            raise ConfigError(f"override {item!r} descends into a non-object", "/" + "/".join(keys))
        node[keys[-1]] = value
    return raw


def load_config(path, overrides: Sequence[str] = ()) -> RunConfig:
    """The RunConfig of the JSON file at ``path`` with the ``--set`` pairs
    ``overrides`` applied."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"config file not found or unreadable: {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if overrides:
        raw = apply_overrides(raw, overrides)
    return parse_config(raw)
