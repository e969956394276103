"""Strict config resolution, checkpoint round-trips, task manifests."""

import dataclasses
import json

import numpy as np
import pytest

from tangentgp.adapt import SinusoidExperimentConfig, SinusoidTaskSpec
from tangentgp.analysis import StudyConfig
from tangentgp.cli import _load_glm_fit
from tangentgp.config import (
    _REQUIRED,
    _SCHEMA,
    CONFIG_VERSION,
    architecture_from,
    block_or_defaults,
    config_hash,
    experiment_config_from,
    load_checkpoint,
    load_config,
    optimizer_from,
    read_task_manifest,
    resolve_config,
    save_checkpoint,
    study_config_from,
)
from tangentgp.errors import ConfigError
from tangentgp.glm import GlmFitConfig
from tangentgp.net import MlpArchitecture, OptimizerConfig, init_network
from tangentgp.serialize import write_dataset_csv


def minimal(**blocks):
    return {"version": CONFIG_VERSION, **blocks}


class TestResolveConfig:
    def test_absent_blocks_stay_null(self):
        resolved = resolve_config(minimal())
        assert resolved["seed"] == 0
        assert resolved["architecture"] is None
        assert resolved["gp"] is None

    def test_present_block_gets_all_defaults(self):
        resolved = resolve_config(minimal(gp={"noise_variance": 0.5}))
        gp = resolved["gp"]
        assert gp["noise_variance"] == 0.5
        assert gp["center_on_network"] is True
        assert set(gp) == {
            "mean_kind",
            "noise_variance",
            "noise_grid_decades",
            "center_on_network",
            "baselines",
        }

    def test_missing_version_rejected(self):
        with pytest.raises(ConfigError, match="version"):
            resolve_config({"seed": 1})

    def test_wrong_version_rejected(self):
        with pytest.raises(ConfigError, match="unsupported config version"):
            resolve_config({"version": 99})

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="'sede'"):
            resolve_config(minimal(sede=3))

    def test_unknown_block_key(self):
        with pytest.raises(ConfigError, match="'learning_rte'"):
            resolve_config(minimal(optimizer={"learning_rte": 0.1, "epochs": 1}))

    def test_missing_required_block_key(self):
        with pytest.raises(ConfigError, match="'learning_rate'"):
            resolve_config(minimal(optimizer={"epochs": 1}))

    def test_type_errors(self):
        with pytest.raises(ConfigError, match="must be number"):
            resolve_config(minimal(optimizer={"learning_rate": "fast", "epochs": 1}))
        with pytest.raises(ConfigError, match="must be int"):
            resolve_config(minimal(optimizer={"learning_rate": 0.1, "epochs": 1.5}))
        with pytest.raises(ConfigError, match="must be a JSON object"):
            resolve_config(minimal(gp=[1, 2]))
        # json reads Infinity, NaN and overflowing literals as non-finite floats.
        for text in ("Infinity", "-Infinity", "NaN", "1e400", "1" + "0" * 400):
            with pytest.raises(ConfigError, match="gp.noise_variance must be number or null"):
                resolve_config(minimal(gp={"noise_variance": json.loads(text)}))
            with pytest.raises(ConfigError, match="optimizer.learning_rate must be number"):
                resolve_config(minimal(optimizer={"learning_rate": json.loads(text), "epochs": 1}))
        arch = {"input_dim": 1, "output_dim": 1}
        for widths in ([4, True], [4, 2.0], 4):
            with pytest.raises(ConfigError, match="hidden_widths must be int list"):
                resolve_config(minimal(architecture={**arch, "hidden_widths": widths}))
        resolved = resolve_config(minimal(architecture={**arch, "hidden_widths": [4, 2]}))
        assert resolved["architecture"]["hidden_widths"] == [4, 2]

    def test_number_list_entries_must_be_finite(self):
        # An all-float list takes one finiteness pass; a list holding an
        # int (or a bool, a string, a list) is checked entry by entry.
        for text in ("Infinity", "-Infinity", "NaN", "1e400", "1" + "0" * 400):
            for entries in ([json.loads(text)], [1e-4, json.loads(text)], [1, json.loads(text)]):
                with pytest.raises(ConfigError, match="fvp.epsilons must be number list"):
                    resolve_config(minimal(fvp={"epsilons": entries}))
        for entries in ([1e-4, True], [1e-4, "1e-3"], [1e-4, [1e-3]]):
            with pytest.raises(ConfigError, match="fvp.epsilons must be number list"):
                resolve_config(minimal(fvp={"epsilons": entries}))
        assert resolve_config(minimal(fvp={"epsilons": [1e-4, 1]}))["fvp"]["epsilons"] == [1e-4, 1]

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="config key 'seed' must be non-negative, got -1"):
            resolve_config(minimal(seed=-1))
        with pytest.raises(ConfigError, match="config key 'seed' must be non-negative, got -1"):
            resolve_config(minimal(seed=-1), seed_override=3)
        with pytest.raises(ConfigError, match="seed override must be non-negative, got -2"):
            resolve_config(minimal(seed=4), seed_override=-2)
        assert resolve_config(minimal(), seed_override=0)["seed"] == 0

    @pytest.mark.parametrize(
        "key, allowed",
        [
            ("method", ("map", "svi", "laplace")),
            ("fisher_source", ("train", "test_batch")),
            ("predict_mode", ("mean", "single_sample")),
        ],
    )
    def test_glm_choices(self, key, allowed):
        for value in allowed:
            assert resolve_config(minimal(glm={key: value}))["glm"][key] == value
        for value in ("bogus", "MAP", ""):
            with pytest.raises(ConfigError, match=f"config key glm.{key} must be one of .*got {value!r}"):
                resolve_config(minimal(glm={key: value}))
        with pytest.raises(ConfigError, match=f"config key glm.{key} must be string"):
            resolve_config(minimal(glm={key: 1}))

    def test_seed_override_changes_hash(self):
        base = resolve_config(minimal())
        overridden = resolve_config(minimal(), seed_override=7)
        assert overridden["seed"] == 7
        assert config_hash(base) != config_hash(overridden)

    def test_hash_stable_under_input_key_order(self):
        a = resolve_config({"version": 1, "seed": 3, "gp": {"noise_grid_decades": 8}})
        b = resolve_config({"gp": {"noise_grid_decades": 8}, "seed": 3, "version": 1})
        assert config_hash(a) == config_hash(b)


class TestConstructors:
    def test_architecture_and_optimizer(self):
        resolved = resolve_config(
            minimal(
                seed=5,
                architecture={"input_dim": 2, "hidden_widths": [8], "output_dim": 3},
                optimizer={"learning_rate": 0.01, "epochs": 4},
            )
        )
        arch = architecture_from(resolved)
        assert arch == MlpArchitecture(2, (8,), 3, activation="tanh")
        opt = optimizer_from(resolved)
        assert opt.seed == 5 and opt.optimizer == "adam" and opt.epochs == 4

    def test_missing_block_named_in_error(self):
        with pytest.raises(ConfigError, match="'architecture'"):
            architecture_from(resolve_config(minimal()))

    def test_block_or_defaults_fills_absent_block(self):
        fvp = block_or_defaults(resolve_config(minimal()), "fvp")
        assert fvp["epsilons"] == [1e-8, 1e-6, 1e-4, 1e-2]
        assert fvp["probes"] == 8

    def test_experiment_defaults_match_dataclass(self):
        cfg = experiment_config_from(resolve_config(minimal(seed=2)))
        assert cfg.num_tasks == 20 and cfg.source_points == 200 and cfg.seed == 2

    @pytest.mark.parametrize(
        "block, cls, keys",
        [
            ("experiment", SinusoidExperimentConfig, None),
            ("study", StudyConfig, None),
            ("glm", GlmFitConfig, ("learning_rate", "epochs", "batch_size")),
            ("task", SinusoidTaskSpec, ("points_per_task", "x_low", "x_high")),
        ],
    )
    def test_schema_defaults_match_the_dataclass(self, block, cls, keys):
        # The config schema and the dataclass each hold these defaults.
        schema = {key: default for key, (default, _) in _SCHEMA[block].items()}
        fields = {f.name: f.default for f in dataclasses.fields(cls)}
        if keys is None:
            keys = tuple(schema)
            assert set(keys) == set(fields) - {"seed", "architecture"}
        for key in keys:
            assert (schema[key], type(schema[key])) == (fields[key], type(fields[key])), key

    def test_optimizer_schema_differs_from_the_dataclass_only_where_documented(self):
        # The one block with a literal schema: its keys are OptimizerConfig's
        # fields, and its defaults differ in exactly three.
        schema = {key: default for key, (default, _) in _SCHEMA["optimizer"].items()}
        fields = {f.name: f.default for f in dataclasses.fields(OptimizerConfig)}
        assert set(schema) == set(fields) - {"seed"}
        differ = {key for key in schema if (schema[key], type(schema[key])) != (fields[key], type(fields[key]))}
        assert differ == {"optimizer", "learning_rate", "epochs"}
        assert (schema["optimizer"], fields["optimizer"]) == ("adam", "sgd-momentum")
        assert schema["learning_rate"] is schema["epochs"] is _REQUIRED

    def test_resolved_defaults_of_the_derived_blocks(self):
        blocks = ("task", "study", "glm", "experiment")
        resolved = resolve_config(minimal(**{name: {} for name in blocks}))
        expected = {
            "task": {
                "kind": "sinusoid", "num_tasks": 3, "points_per_task": 50, "context_size": 10,
                "x_low": -5.0, "x_high": 5.0, "train_csv": None, "noise_variance": None,
            },
            "study": {
                "models_per_group": 5, "train_points": 100, "eval_points": 64, "epochs": 150,
                "learning_rate": 5e-3, "batch_size": 32, "realign_steps": 200,
                "realign_learning_rate": 0.01,
            },
            "glm": {
                "method": "map", "prior_variance": 1.0, "learning_rate": 1e-3, "epochs": 10,
                "batch_size": 32, "include_network_output": False, "fisher_source": "train",
                "predict_mode": "mean",
            },
            "experiment": {
                "num_tasks": 20, "context_size": 10, "points_per_task": 50, "source_points": 200,
                "source_epochs": 2500, "source_learning_rate": 1e-3, "source_batch_size": 3,
                "noise_grid_decades": 10,
            },
        }
        for name in blocks:
            typed = {key: (value, type(value)) for key, value in resolved[name].items()}
            assert typed == {key: (value, type(value)) for key, value in expected[name].items()}, name
        assert config_hash(resolved) == "1a06ef096b9964a4"

    def test_hash_of_a_document_with_every_block(self):
        resolved = resolve_config(
            minimal(
                architecture={"input_dim": 1, "output_dim": 1},
                optimizer={"learning_rate": 0.01, "epochs": 1},
                **{name: {} for name in ("gp", "fvp", "task", "study", "glm", "experiment")},
            )
        )
        assert config_hash(resolved) == "43b5ac67d7f1cfc2"

    def test_study_uses_architecture_block_when_given(self):
        resolved = resolve_config(
            minimal(architecture={"input_dim": 2, "hidden_widths": [6], "output_dim": 2, "activation": "relu"})
        )
        cfg = study_config_from(resolved)
        assert cfg.architecture.hidden_widths == (6,)


class TestCheckpoints:
    def test_roundtrip_identical_parameters(self, tmp_path):
        net = init_network(MlpArchitecture(2, (5,), 1), seed=3)
        path = tmp_path / "ckpt.json"
        save_checkpoint(net, path, {"tool_version": "0", "config_hash": "h"})
        loaded = load_checkpoint(path)
        assert loaded.fingerprint() == net.fingerprint()
        assert np.array_equal(loaded.params, net.params)

    def test_tampered_parameters_rejected(self, tmp_path):
        net = init_network(MlpArchitecture(1, (3,), 1), seed=0)
        path = tmp_path / "ckpt.json"
        save_checkpoint(net, path, {})
        doc = json.loads(path.read_text())
        doc["params"][0] += 1.0
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="fingerprint"):
            load_checkpoint(path)

    def test_wrong_kind_and_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "something-else"}')
        with pytest.raises(ConfigError, match="not a checkpoint"):
            load_checkpoint(path)
        net = init_network(MlpArchitecture(1, (), 1), seed=0)
        save_checkpoint(net, path, {})
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="version"):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="No such file"):
            load_checkpoint(tmp_path / "absent.json")


class TestTaskManifest:
    def write_pair(self, tmp_path):
        rng = np.random.default_rng(0)
        write_dataset_csv(tmp_path / "ctx.csv", rng.normal(size=(4, 1)), rng.normal(size=(4, 1)))
        write_dataset_csv(tmp_path / "ev.csv", rng.normal(size=(6, 1)), rng.normal(size=(6, 1)))

    def test_reads_pairs_relative_to_manifest(self, tmp_path):
        self.write_pair(tmp_path)
        manifest = tmp_path / "tasks.json"
        manifest.write_text(
            json.dumps(
                [
                    {"context": "ctx.csv", "eval": "ev.csv", "noise_variance": 0.25},
                    {"context": "ctx.csv", "eval": None},
                ]
            )
        )
        pairs = read_task_manifest(manifest)
        assert len(pairs) == 2
        assert pairs[0][0].x.shape == (4, 1) and pairs[0][1].x.shape == (6, 1)
        assert pairs[0][0].noise_variance == 0.25
        assert pairs[1][1] is None

    def test_entry_validation(self, tmp_path):
        self.write_pair(tmp_path)
        manifest = tmp_path / "tasks.json"
        manifest.write_text(json.dumps([{"eval": "ev.csv"}]))
        with pytest.raises(ConfigError, match="context"):
            read_task_manifest(manifest)
        manifest.write_text(json.dumps([{"context": "ctx.csv", "nois": 1.0}]))
        with pytest.raises(ConfigError, match="unknown keys"):
            read_task_manifest(manifest)
        manifest.write_text(json.dumps([{"context": "ctx.csv", "noise_variance": -1}]))
        with pytest.raises(ConfigError, match="positive"):
            read_task_manifest(manifest)
        for text in ("Infinity", "NaN", "1e400"):
            manifest.write_text(f'[{{"context": "ctx.csv", "noise_variance": {text}}}]')
            with pytest.raises(ConfigError, match="entry 0 noise_variance must be a positive finite number"):
                read_task_manifest(manifest)
        manifest.write_text("[]")
        with pytest.raises(ConfigError, match="nonempty"):
            read_task_manifest(manifest)


JSON_READERS = {
    "config": load_config,
    "checkpoint": load_checkpoint,
    "task_manifest": read_task_manifest,
    "glm_fit": lambda path: _load_glm_fit(path, init_network(MlpArchitecture(1, (), 2), seed=0)),
}


@pytest.mark.parametrize("reader", JSON_READERS.values(), ids=JSON_READERS.keys())
def test_json_readers_name_the_file_and_the_fault(tmp_path, reader):
    missing = tmp_path / "absent.json"
    with pytest.raises(ConfigError) as caught:
        reader(missing)
    assert str(caught.value) == f"{missing}: No such file or directory"
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 1,,}')
    with pytest.raises(ConfigError) as caught:
        reader(bad)
    assert str(caught.value) == (
        f"{bad}: parse error at byte 14: Expecting property name enclosed in double quotes"
    )


GLM_NET = init_network(MlpArchitecture(1, (), 2), seed=0)


def glm_fit_doc(method):
    doc = {
        "kind": "glm-fit",
        "version": 1,
        "method": method,
        "prior_variance": 1.0,
        "include_network_output": False,
        "network_fingerprint": GLM_NET.fingerprint(),
    }
    if method == "map":
        doc["coefficients"] = [0.0] * GLM_NET.architecture.parameter_count
    else:
        doc.update(
            mean=[0.0] * GLM_NET.architecture.parameter_count,
            n_train=2,
            fisher_on_train=True,
            fisher_x=[[0.5], [-0.5]],
        )
    return doc


def malformed_checkpoint(tmp_path, edit):
    path = tmp_path / "ckpt.json"
    save_checkpoint(init_network(MlpArchitecture(1, (3,), 1), seed=0), path, {})
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return load_checkpoint, path


def malformed_glm_fit(method, edit):
    def make(tmp_path):
        path = tmp_path / "fit.json"
        doc = glm_fit_doc(method)
        edit(doc)
        path.write_text(json.dumps(doc))
        return (lambda p: _load_glm_fit(p, GLM_NET)), path

    return make


def malformed_manifest(tmp_path):
    write_dataset_csv(tmp_path / "ctx.csv", np.zeros((2, 1)), np.zeros((2, 1)))
    path = tmp_path / "tasks.json"
    path.write_text(json.dumps([{"context": "ctx.csv"}, {"context": 7}]))
    return read_task_manifest, path


MALFORMED_FILES = {
    "checkpoint_without_architecture": (
        lambda tmp: malformed_checkpoint(tmp, lambda d: d.pop("architecture")),
        "checkpoint has no 'architecture'",
    ),
    "checkpoint_without_params": (
        lambda tmp: malformed_checkpoint(tmp, lambda d: d.pop("params")),
        "checkpoint has no 'params'",
    ),
    "checkpoint_string_params": (
        lambda tmp: malformed_checkpoint(tmp, lambda d: d.update(params="abc")),
        "checkpoint key 'params' is malformed",
    ),
    "checkpoint_int_hidden_widths": (
        lambda tmp: malformed_checkpoint(tmp, lambda d: d["architecture"].update(hidden_widths=3)),
        "checkpoint key 'architecture' is malformed",
    ),
    "checkpoint_list_architecture": (
        lambda tmp: malformed_checkpoint(tmp, lambda d: d.update(architecture=[1, [3], 1])),
        "checkpoint key 'architecture' is malformed",
    ),
    "checkpoint_float_input_dim": (
        lambda tmp: malformed_checkpoint(tmp, lambda d: d["architecture"].update(input_dim=1.7)),
        "checkpoint key 'architecture' is malformed: config key architecture.input_dim must be int",
    ),
    "checkpoint_string_heteroscedastic": (
        lambda tmp: malformed_checkpoint(tmp, lambda d: d["architecture"].update(heteroscedastic="no")),
        "checkpoint key 'architecture' is malformed: config key architecture.heteroscedastic must be bool",
    ),
    "glm_fit_string_coefficients": (
        malformed_glm_fit("map", lambda d: d.update(coefficients="abc")),
        "GLM fit file key 'coefficients' must be number list",
    ),
    "glm_fit_true_inside_mean": (
        malformed_glm_fit("laplace", lambda d: d["mean"].__setitem__(1, True)),
        "GLM fit file key 'mean' must be number list",
    ),
    "glm_fit_string_prior_variance": (
        malformed_glm_fit("map", lambda d: d.update(prior_variance="abc")),
        "GLM fit file key 'prior_variance' must be number",
    ),
    "glm_fit_yes_include_network_output": (
        malformed_glm_fit("map", lambda d: d.update(include_network_output="yes")),
        "GLM fit file key 'include_network_output' must be bool",
    ),
    "glm_fit_string_n_train": (
        malformed_glm_fit("laplace", lambda d: d.update(n_train="abc")),
        "GLM fit file key 'n_train' must be int",
    ),
    "glm_fit_yes_fisher_on_train": (
        malformed_glm_fit("laplace", lambda d: d.update(fisher_on_train="yes")),
        "GLM fit file key 'fisher_on_train' must be bool",
    ),
    "glm_fit_ragged_fisher_x": (
        malformed_glm_fit("laplace", lambda d: d.update(fisher_x=[[0.5], [0.5, 1.0]])),
        "GLM fit file key 'fisher_x' is malformed",
    ),
    "manifest_numeric_context": (
        malformed_manifest,
        "entry 1 key 'context' must be string",
    ),
}


@pytest.mark.parametrize("make,fault", MALFORMED_FILES.values(), ids=MALFORMED_FILES.keys())
def test_malformed_artifacts_name_the_file_and_the_key(tmp_path, make, fault):
    reader, path = make(tmp_path)
    with pytest.raises(ConfigError) as caught:
        reader(path)
    assert str(caught.value).startswith(f"{path}: {fault}")
