"""Versioned experiment configs and the on-disk checkpoint format.

A config is one JSON document with a mandatory ``version`` and a global
``seed``; everything else lives in optional blocks (architecture,
optimizer, gp, fvp, task, study, glm, experiment). Parsing is strict:
unknown keys are rejected rather than ignored, so a typo fails loudly
instead of silently running defaults. Blocks that were absent stay null
in the resolved document; commands that need them say so.

Each key's default has one home. The ``study`` and ``experiment``
blocks, the fit keys of ``glm`` and the sinusoid keys of ``task`` take
their defaults and types from the library dataclass they build
(``StudyConfig``, ``SinusoidExperimentConfig``, ``GlmFitConfig``,
``SinusoidTaskSpec``), and ``from_block`` builds that dataclass; the
``glm`` fit keys steer only the Adam fits (``map`` and ``svi``), and a
``laplace`` fit, which is Newton's method, accepts and ignores them. The
``optimizer`` block keeps its own table: it defaults to Adam, where
``OptimizerConfig`` defaults to SGD with momentum, and it needs
``learning_rate`` and ``epochs``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
from pathlib import Path

import numpy as np

from .adapt import SinusoidExperimentConfig, SinusoidTaskSpec
from .analysis import StudyConfig
from .errors import ConfigError
from .glm import FISHER_SOURCES, FIT_METHODS, PREDICT_MODES, GlmFitConfig
from .net import MlpArchitecture, MlpNetwork, OptimizerConfig, TaskDataset
from .serialize import _CHECKS, atomic_write_text, canonical_json, file_field, read_dataset_csv, read_json

CONFIG_VERSION = 1
CHECKPOINT_VERSION = 1

_REQUIRED = object()


# A dataclass field's annotation (a string, under postponed evaluation) -> type name.
_TYPE_NAMES = {"int": "int", "float": "number"}


def _schema_of(cls) -> dict:
    """Schema entries for the fields of ``cls`` bar ``seed`` and ``architecture``."""
    return {
        f.name: (f.default, _TYPE_NAMES[f.type])
        for f in dataclasses.fields(cls)
        if f.name not in ("seed", "architecture")
    }


# block -> key -> (default, type name); _REQUIRED defaults must be supplied
# whenever the block itself is present.
_SCHEMA = {
    "architecture": {
        "input_dim": (_REQUIRED, "int"),
        "hidden_widths": ([], "int list"),
        "output_dim": (_REQUIRED, "int"),
        "activation": ("tanh", "string"),
        "heteroscedastic": (False, "bool"),
    },
    "optimizer": {
        "optimizer": ("adam", "string"),
        "learning_rate": (_REQUIRED, "number"),
        "epochs": (_REQUIRED, "int"),
        "batch_size": (32, "int"),
        "loss": ("mse", "string"),
        "momentum": (0.9, "number"),
    },
    "gp": {
        "mean_kind": ("zero", "string"),
        "noise_variance": (None, "number or null"),
        "noise_grid_decades": (None, "int or null"),
        "center_on_network": (True, "bool"),
        "baselines": (False, "bool"),
    },
    "fvp": {
        "epsilons": ([1e-8, 1e-6, 1e-4, 1e-2], "number list"),
        "probes": (8, "int"),
        "likelihood": ("gaussian", "string"),
        "noise_variance": (1.0, "number"),
    },
    "task": {
        "kind": ("sinusoid", "string"),
        "num_tasks": (3, "int"),
        **_schema_of(SinusoidTaskSpec),
        "context_size": (10, "int"),
        "train_csv": (None, "string or null"),
        "noise_variance": (None, "number or null"),
    },
    "study": _schema_of(StudyConfig),
    "glm": {
        "method": ("map", "string"),
        "prior_variance": (1.0, "number"),
        **_schema_of(GlmFitConfig),
        "include_network_output": (False, "bool"),
        "fisher_source": ("train", "string"),
        "predict_mode": ("mean", "string"),
    },
    "experiment": _schema_of(SinusoidExperimentConfig),
}


# (block, key) -> the values a string key may take.
_CHOICES = {
    ("glm", "method"): FIT_METHODS,
    ("glm", "fisher_source"): FISHER_SOURCES,
    ("glm", "predict_mode"): PREDICT_MODES,
}


def _resolve_block(name: str, given: dict) -> dict:
    schema = _SCHEMA[name]
    for key in given:
        if key not in schema:
            raise ConfigError(f"unknown config key {key!r} in block {name!r}")
    resolved = {}
    for key, (default, type_name) in schema.items():
        if key in given:
            value = given[key]
            if not _CHECKS[type_name](value):
                raise ConfigError(f"config key {name}.{key} must be {type_name}, got {value!r}")
            allowed = _CHOICES.get((name, key))
            if allowed is not None and value not in allowed:
                raise ConfigError(f"config key {name}.{key} must be one of {allowed}, got {value!r}")
        elif default is _REQUIRED:
            raise ConfigError(f"block {name!r} is missing the mandatory key {key!r}")
        else:
            value = default
        resolved[key] = value
    return resolved


def resolve_config(raw: dict, seed_override: int | None = None) -> dict:
    """Validate a parsed config document and fill in every default.

    The result is the provenance record: blocks the document never
    mentioned stay null, present blocks carry all their keys.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    if "version" not in raw:
        raise ConfigError("config is missing the mandatory 'version' field")
    if raw["version"] != CONFIG_VERSION:
        raise ConfigError(
            f"unsupported config version {raw['version']!r}, this tool reads version {CONFIG_VERSION}"
        )
    known = {"version", "seed", *_SCHEMA}
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
    seed = raw.get("seed", 0)
    if not _CHECKS["int"](seed):
        raise ConfigError(f"config key 'seed' must be int, got {seed!r}")
    if seed < 0:
        raise ConfigError(f"config key 'seed' must be non-negative, got {seed}")
    if seed_override is not None and seed_override < 0:
        raise ConfigError(f"the seed override must be non-negative, got {seed_override}")
    resolved = {"version": CONFIG_VERSION, "seed": seed}
    for name in _SCHEMA:
        block = raw.get(name)
        if block is None:
            resolved[name] = None
            continue
        if not isinstance(block, dict):
            raise ConfigError(f"config block {name!r} must be a JSON object")
        resolved[name] = _resolve_block(name, block)
    if seed_override is not None:
        resolved["seed"] = int(seed_override)
    return resolved


def load_config(path, seed_override: int | None = None) -> dict:
    """Read, parse, and resolve a config file; parse errors name the byte offset."""
    return resolve_config(read_json(path)[0], seed_override)


def config_hash(resolved: dict) -> str:
    return hashlib.sha256(canonical_json(resolved).encode()).hexdigest()[:16]


def _need(resolved: dict, block: str) -> dict:
    if resolved.get(block) is None:
        raise ConfigError(f"this command needs a {block!r} block in the config")
    return resolved[block]


def block_or_defaults(resolved: dict, block: str) -> dict:
    """The resolved block, or its all-defaults form when the config omitted it."""
    if resolved.get(block) is not None:
        return resolved[block]
    return _resolve_block(block, {})


def architecture_from(resolved: dict) -> MlpArchitecture:
    return MlpArchitecture.from_dict(_need(resolved, "architecture"))


def from_block(cls, block: dict, seed: int, **fields):
    """``cls`` built from the resolved ``block``'s values of its fields, ``seed`` and ``fields``.

    Float fields pass through ``float``, so a JSON integer becomes a float.
    """
    values = {
        f.name: float(block[f.name]) if f.type == "float" else block[f.name]
        for f in dataclasses.fields(cls)
        if f.name in block
    }
    return cls(**values, seed=seed, **fields)


def optimizer_from(resolved: dict) -> OptimizerConfig:
    return from_block(OptimizerConfig, _need(resolved, "optimizer"), resolved["seed"])


def glm_fit_config_from(resolved: dict) -> GlmFitConfig:
    return from_block(GlmFitConfig, block_or_defaults(resolved, "glm"), resolved["seed"])


def study_config_from(resolved: dict) -> StudyConfig:
    fields = {}
    if resolved.get("architecture") is not None:
        fields["architecture"] = architecture_from(resolved)
    return from_block(StudyConfig, block_or_defaults(resolved, "study"), resolved["seed"], **fields)


def experiment_config_from(resolved: dict) -> SinusoidExperimentConfig:
    return from_block(SinusoidExperimentConfig, block_or_defaults(resolved, "experiment"), resolved["seed"])


# ---------------------------------------------------------------------------
# Checkpoints


float_array = functools.partial(np.asarray, dtype=np.float64)


def save_checkpoint(network: MlpNetwork, path, provenance: dict) -> None:
    """Write a network as JSON: architecture, exact parameters, fingerprint."""
    doc = {
        "kind": "mlp-checkpoint",
        "version": CHECKPOINT_VERSION,
        **provenance,
        "architecture": network.architecture.to_dict(),
        "params": [float(v) for v in network.params],
        "fingerprint": network.fingerprint(),
    }
    atomic_write_text(path, canonical_json(doc))


def load_checkpoint(path, with_digest: bool = False):
    """Read a checkpoint back; the stored fingerprint must match the contents.

    With ``with_digest`` the result is (network, sha256 hex digest of the
    bytes it was parsed from).
    """
    doc, blob = read_json(path)
    if not isinstance(doc, dict) or doc.get("kind") != "mlp-checkpoint":
        raise ConfigError(f"{path}: not a checkpoint file")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(f"{path}: unsupported checkpoint version {doc.get('version')!r}")
    field = functools.partial(file_field, path, "checkpoint", doc)
    arch = field("architecture", convert=lambda b: MlpArchitecture.from_dict(_resolve_block("architecture", b)))
    network = MlpNetwork(arch, field("params", convert=float_array))
    if network.fingerprint() != doc.get("fingerprint"):
        raise ConfigError(f"{path}: fingerprint does not match the stored parameters")
    return (network, hashlib.sha256(blob).hexdigest()) if with_digest else network


# ---------------------------------------------------------------------------
# Task manifests (file-backed adaptation runs)


def read_task_manifest(path) -> list[tuple[TaskDataset, TaskDataset | None]]:
    """Read a JSON list of {"context": csv, "eval": csv|null, "noise_variance": v}.

    CSV paths are resolved relative to the manifest's directory. Eval may
    be null for fit-only tasks.
    """
    base = Path(path).parent
    entries, _ = read_json(path)
    if not isinstance(entries, list) or not entries:
        raise ConfigError(f"{path}: manifest must be a nonempty JSON list")
    pairs = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "context" not in entry:
            raise ConfigError(f"{path}: entry {i} needs at least a 'context' CSV path")
        unknown = set(entry) - {"context", "eval", "noise_variance"}
        if unknown:
            raise ConfigError(f"{path}: entry {i} has unknown keys {sorted(unknown)}")
        noise = entry.get("noise_variance", 1.0)
        if not _CHECKS["number"](noise) or not noise > 0:
            raise ConfigError(f"{path}: entry {i} noise_variance must be a positive finite number")
        field = functools.partial(file_field, path, f"entry {i}", entry)
        cx, cy = read_dataset_csv(base / field("context", "string"))
        context = TaskDataset(cx, cy, noise_variance=float(noise))
        eval_set = None
        if entry.get("eval") is not None:
            ex, ey = read_dataset_csv(base / field("eval", "string"))
            eval_set = TaskDataset(ex, ey, noise_variance=float(noise))
        pairs.append((context, eval_set))
    return pairs
