"""End-to-end command tests driven through main(argv)."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tangentgp
import tangentgp.glm as glm_module
import tangentgp.gp as gp_module
from tangentgp import analysis, cli
from tangentgp.adapt import SinusoidTaskSpec, sample_sinusoid_tasks, stratified_split
from tangentgp.cli import build_parser, main
from tangentgp.config import load_checkpoint, save_checkpoint
from tangentgp.errors import (
    ConfigError,
    ConsistencyError,
    ContractViolationError,
    FitError,
    NumericBreakdownError,
    ResourceLimitError,
    TangentGpError,
    TrainingDivergenceError,
)
from tangentgp.net import JacobianOperator, MlpArchitecture, MlpNetwork, forward, init_network
from tangentgp.serialize import fmt_float, read_dataset_csv, write_classification_csv, write_dataset_csv

TRAIN_CONFIG = {
    "version": 1,
    "seed": 0,
    "architecture": {"input_dim": 1, "hidden_widths": [16, 16], "output_dim": 1},
    "optimizer": {"learning_rate": 5e-3, "epochs": 150, "batch_size": 8},
    "task": {"kind": "sinusoid", "points_per_task": 40},
}


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def write_inputs_csv(path, x):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    header = ",".join(f"x_{j}" for j in range(x.shape[1]))
    lines = [header] + [",".join(fmt_float(v) for v in row) for row in x]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def not_positive_definite(gram):
    raise np.linalg.LinAlgError("Matrix is not positive definite")


def data_lines(path):
    """CSV rows with the provenance comments and header stripped."""
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    return lines[0].split(","), [l.split(",") for l in lines[1:]]


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """A trained checkpoint shared by the read-only command tests."""
    root = tmp_path_factory.mktemp("cli")
    config = write_json(root / "train.json", TRAIN_CONFIG)
    ckpt = str(root / "ckpt.json")
    assert main(["train", "--config", config, "--out", ckpt]) == 0
    return {"root": root, "config": config, "ckpt": ckpt}


class TestTrain:
    def test_checkpoint_roundtrips_and_trace_written(self, ws):
        net = load_checkpoint(ws["ckpt"])
        assert net.architecture == MlpArchitecture(1, (16, 16), 1)
        assert np.all(np.isfinite(net.params))
        header, rows = data_lines(ws["root"] / "ckpt.trace.csv")
        assert header == ["epoch", "loss"]
        assert len(rows) == TRAIN_CONFIG["optimizer"]["epochs"]
        assert float(rows[-1][1]) < float(rows[0][1])

    def test_same_seed_gives_byte_identical_checkpoints(self, ws, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["train", "--config", ws["config"], "--out", a]) == 0
        assert main(["train", "--config", ws["config"], "--out", b]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_threads_is_an_adapt_option_only(self, ws, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["train", "--config", ws["config"], "--threads", "2", "--out", str(tmp_path / "c.json")])
        assert exit_info.value.code == 2

    def test_seed_override_changes_checkpoint(self, ws, tmp_path):
        out = str(tmp_path / "c.json")
        assert main(["train", "--config", ws["config"], "--seed", "1", "--out", out]) == 0
        other = load_checkpoint(out)
        assert not np.array_equal(other.params, load_checkpoint(ws["ckpt"]).params)

    def test_mid_epoch_divergence_exits_4(self, tmp_path, capsys):
        cfg = dict(TRAIN_CONFIG, optimizer={"learning_rate": 1.7e308, "epochs": 2, "batch_size": 8})
        path = write_json(tmp_path / "diverge.json", cfg)
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["train", "--config", path, "--out", str(tmp_path / "x.json")])
        assert code == 4
        assert "non-finite parameters at epoch 0" in capsys.readouterr().err

    def test_divergence_prints_no_raw_numpy_warnings(self, tmp_path, capsys):
        cfg = dict(TRAIN_CONFIG, optimizer={"learning_rate": 1.7e308, "epochs": 2, "batch_size": 8})
        path = write_json(tmp_path / "diverge.json", cfg)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--config", path, "--out", str(tmp_path / "x.json")])
        assert code == 4
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert "non-finite parameters at epoch 0" in capsys.readouterr().err

    @pytest.mark.parametrize("momentum", [-3.0, 1.0])
    def test_momentum_outside_unit_interval_exits_2(self, tmp_path, capsys, momentum):
        optimizer = {"optimizer": "sgd-momentum", "learning_rate": 5e-3, "epochs": 20, "momentum": momentum}
        path = write_json(tmp_path / "momentum.json", dict(TRAIN_CONFIG, optimizer=optimizer))
        out = tmp_path / "x.json"
        assert main(["train", "--config", path, "--out", str(out)]) == 2
        assert f"momentum must lie in [0, 1), got {momentum}" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_config_reports_byte_offset(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 1,,}')
        code = main(["train", "--config", str(bad), "--out", str(tmp_path / "x.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "parse error at byte 14" in err

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"version": 1, "sede": 3})
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "x.json")]) == 2

    def test_missing_config_file(self, tmp_path):
        code = main(["train", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x.json")])
        assert code == 2

    @pytest.mark.parametrize("noise", [0, -1.0])
    def test_csv_task_noise_variance_must_be_positive(self, tmp_path, capsys, noise):
        write_dataset_csv(tmp_path / "train.csv", np.zeros((4, 1)), np.zeros((4, 1)))
        task = {"kind": "csv", "train_csv": str(tmp_path / "train.csv"), "noise_variance": noise}
        path = write_json(tmp_path / "c.json", dict(TRAIN_CONFIG, task=task))
        assert main(["train", "--config", path, "--out", str(tmp_path / "x.json")]) == 2
        assert f"noise variance must be positive, got {noise}" in capsys.readouterr().err


DOCUMENTED_EXIT_CODES = [
    (ConfigError("bad input"), 2),
    (ContractViolationError("bad call"), 2),
    (ConsistencyError("stale"), 3),
    (FitError("no fit"), 4),
    (NumericBreakdownError("breakdown"), 4),
    (ResourceLimitError("too big"), 4),
    (TrainingDivergenceError("diverged"), 4),
    (OSError("disk"), 2),
    (FileNotFoundError("gone"), 2),
]


class TestExitCodes:
    @pytest.mark.parametrize("error,code", DOCUMENTED_EXIT_CODES, ids=lambda v: type(v).__name__)
    def test_error_from_a_command_maps_to_its_code(self, error, code, monkeypatch, tmp_path, capsys):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "load_config", fail)
        assert main(["train", "--config", "c.json", "--out", str(tmp_path / "x.json")]) == code
        assert capsys.readouterr().err == f"tangentgp: {error}\n"

    def test_every_package_error_has_a_code(self):
        mapped = {kind for kind, _ in cli.EXIT_CODES}
        assert set(TangentGpError.__subclasses__()) | {OSError} == mapped

    def test_other_errors_propagate(self, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "load_config", lambda *a: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            main(["train", "--config", "c.json", "--out", str(tmp_path / "x.json")])


def make_manifest(root, num_tasks=3, noise_variance=None, context_only=False):
    spec = SinusoidTaskSpec(points_per_task=30, seed=4)
    entries = []
    for i, task in enumerate(sample_sinusoid_tasks(spec, num_tasks)):
        context, eval_set = stratified_split(task, 10)
        write_dataset_csv(root / f"ctx{i}.csv", context.x, context.y)
        entry = {"context": f"ctx{i}.csv"}
        if not context_only:
            write_dataset_csv(root / f"ev{i}.csv", eval_set.x, eval_set.y)
            entry["eval"] = f"ev{i}.csv"
        if noise_variance is not None:
            entry["noise_variance"] = noise_variance
        entries.append(entry)
    return write_json(root / "tasks.json", entries)


class TestAdapt:
    def test_three_tasks_with_baselines(self, ws, tmp_path):
        manifest = make_manifest(tmp_path)
        cfg = write_json(
            tmp_path / "adapt.json",
            {
                "version": 1,
                "gp": {"baselines": True, "noise_variance": 0.01},
                "optimizer": {"learning_rate": 5e-3, "epochs": 60, "batch_size": 8},
            },
        )
        out = tmp_path / "results.csv"
        code = main(
            ["adapt", "--config", cfg, "--checkpoint", ws["ckpt"], "--tasks", manifest, "--out", str(out)]
        )
        assert code == 0
        header, rows = data_lines(out)
        assert header == ["task_id", "method", "context_size", "mse", "nll"]
        by_method = {}
        for row in rows:
            by_method.setdefault(row[1], []).append(row)
        assert set(by_method) == {"finite-ntk", "no-retrain", "last-layer"}
        assert all(len(v) == 3 for v in by_method.values())
        assert all(float(r[3]) >= 0.0 for r in rows)

    def test_identical_invocations_are_byte_identical(self, ws, tmp_path):
        manifest = make_manifest(tmp_path)
        cfg = write_json(tmp_path / "adapt.json", {"version": 1})
        outs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            assert (
                main(["adapt", "--config", cfg, "--checkpoint", ws["ckpt"], "--tasks", manifest, "--out", str(out)])
                == 0
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_threads_option_is_a_usage_error(self, ws, tmp_path):
        # Same-size tasks adapt in one stacked pass; there is no thread pool.
        manifest = make_manifest(tmp_path)
        cfg = write_json(tmp_path / "adapt.json", {"version": 1})
        out = tmp_path / "t.csv"
        with pytest.raises(SystemExit) as exit_info:
            main(
                [
                    "adapt", "--config", cfg, "--checkpoint", ws["ckpt"],
                    "--tasks", manifest, "--threads", "2", "--out", str(out),
                ]
            )
        assert exit_info.value.code == 2
        assert not out.exists()

    def test_overflowing_gram_fails_each_task_with_its_message(self, tmp_path, capsys):
        # A relu net at parameters 1e200: every task's Gram overflows. The
        # breakdown is recorded per task, so the command warns and exits 0
        # with no rows instead of ending in a raw numpy traceback.
        arch = MlpArchitecture(1, (8,), 1, activation="relu")
        ckpt = tmp_path / "blown.json"
        save_checkpoint(MlpNetwork(arch, np.full(arch.parameter_count, 1e200)), ckpt, {})
        manifest = make_manifest(tmp_path, num_tasks=2)
        cfg = write_json(
            tmp_path / "adapt.json",
            {"version": 1, "architecture": arch.to_dict(), "gp": {"center_on_network": False}},
        )
        out = tmp_path / "blown.csv"
        argv = ["adapt", "--config", cfg, "--checkpoint", str(ckpt), "--tasks", manifest, "--out", str(out)]
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(argv) == 0
        _, rows = data_lines(out)
        assert rows == []
        err = capsys.readouterr().err
        for task in (0, 1):
            assert f"task {task} failed: the 10 x 10 Gram matrix has non-finite entries" in err

    @pytest.mark.parametrize("side", ["context", "eval"])
    @pytest.mark.parametrize("width", [1, 3])
    def test_wrong_target_width_warns_and_writes_no_row(self, tmp_path, capsys, side, width):
        # On a two-output checkpoint, task 1's context or eval CSV has one
        # or three target columns: the task fails, the others keep rows.
        arch = MlpArchitecture(1, (8,), 2)
        ckpt = tmp_path / "two.json"
        save_checkpoint(init_network(arch, seed=0), ckpt, {})
        rng = np.random.default_rng(6)
        entries = []
        for task in range(3):
            entry = {}
            for name, n in (("context", 6), ("eval", 4)):
                x = rng.uniform(-2.0, 2.0, size=(n, 1))
                columns = width if (task, name) == (1, side) else 2
                write_dataset_csv(tmp_path / f"{name}{task}.csv", x, np.sin(x + np.arange(columns)))
                entry[name] = f"{name}{task}.csv"
            entries.append(entry)
        manifest = write_json(tmp_path / "tasks.json", entries)
        cfg = write_json(tmp_path / "adapt.json", {"version": 1, "architecture": arch.to_dict()})
        out = tmp_path / "r.csv"
        argv = ["adapt", "--config", cfg, "--checkpoint", str(ckpt), "--tasks", manifest, "--out", str(out)]
        assert main(argv) == 0
        _, rows = data_lines(out)
        assert [(row[0], row[1]) for row in rows] == [("0", "finite-ntk"), ("2", "finite-ntk")]
        message = f"task 1 failed: {side} targets have {width} channels but the regression view has 2"
        assert message in capsys.readouterr().err

    def test_debug_logging_does_not_change_output(self, ws, tmp_path):
        manifest = make_manifest(tmp_path)
        cfg = write_json(
            tmp_path / "adapt.json",
            {
                "version": 1,
                "gp": {"baselines": True, "noise_variance": 0.01},
                "optimizer": {"learning_rate": 5e-3, "epochs": 5, "batch_size": 8},
            },
        )
        env = {k: v for k, v in os.environ.items() if k != "TANGENTGP_LOG_LEVEL"}
        env["PYTHONPATH"] = str(Path(tangentgp.__file__).parents[1])
        outs, errs = [], []
        for name, level in (("quiet.csv", None), ("debug.csv", "DEBUG")):
            out = tmp_path / name
            argv = [
                sys.executable, "-m", "tangentgp.cli", "adapt", "--config", cfg,
                "--checkpoint", ws["ckpt"], "--tasks", manifest, "--out", str(out),
            ]
            run_env = env if level is None else {**env, "TANGENTGP_LOG_LEVEL": level}
            done = subprocess.run(argv, env=run_env, capture_output=True, text=True)
            assert done.returncode == 0, done.stderr
            outs.append(out.read_bytes())
            errs.append(done.stderr)
        assert outs[0] == outs[1]
        assert errs[0] == ""
        timed = [line for line in errs[1].splitlines() if line.startswith("DEBUG tangentgp.adapt")]
        # One line for the stacked pass of the three 10-point tasks, one
        # for the stacked head refit.
        assert len(timed) == 2
        assert "adapted 3 tasks of 10 context points in" in timed[0]
        assert "refit 3 last-layer heads in" in timed[-1]

    def test_generated_tasks_when_no_manifest(self, ws, tmp_path):
        cfg = write_json(
            tmp_path / "adapt.json",
            {"version": 1, "seed": 2, "task": {"num_tasks": 2, "points_per_task": 24, "context_size": 8}},
        )
        out = tmp_path / "gen.csv"
        assert main(["adapt", "--config", cfg, "--checkpoint", ws["ckpt"], "--out", str(out)]) == 0
        _, rows = data_lines(out)
        assert len(rows) == 2
        assert all(r[2] == "8" for r in rows)

    def test_missing_checkpoint_is_input_error(self, ws, tmp_path):
        cfg = write_json(tmp_path / "adapt.json", {"version": 1})
        code = main(
            ["adapt", "--config", cfg, "--checkpoint", str(tmp_path / "ghost.json"), "--out", str(tmp_path / "o.csv")]
        )
        assert code == 2

    def test_architecture_mismatch_is_consistency_error(self, ws, tmp_path):
        cfg = write_json(
            tmp_path / "adapt.json",
            {"version": 1, "architecture": {"input_dim": 2, "hidden_widths": [16, 16], "output_dim": 1}},
        )
        code = main(["adapt", "--config", cfg, "--checkpoint", ws["ckpt"], "--out", str(tmp_path / "o.csv")])
        assert code == 3

    def test_baseline_divergence_exits_4_without_numpy_warnings(self, ws, tmp_path, capsys):
        manifest = make_manifest(tmp_path)
        cfg = write_json(
            tmp_path / "adapt.json",
            {
                "version": 1,
                "gp": {"baselines": True, "noise_variance": 0.01},
                "optimizer": {"learning_rate": 1e300, "epochs": 3, "batch_size": 8},
            },
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(
                ["adapt", "--config", cfg, "--checkpoint", ws["ckpt"], "--tasks", manifest,
                 "--out", str(tmp_path / "o.csv")]
            )
        assert code == 4
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert "last-layer baseline of task 0" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "gp, manifest_noise, message",
        [
            ('{"noise_variance": 1e400}', None, "config key gp.noise_variance must be number or null, got inf"),
            ('{"noise_variance": 0.01, "noise_grid_decades": 0}', None,
             "gp.noise_grid_decades must be at least 1, got 0"),
            ('{"noise_variance": 1e300, "noise_grid_decades": 10}', None,
             "gp.noise_grid_decades 10 overflows: the top of the grid, gp.noise_variance 1e+300 "
             "times 10^9, is not finite"),
            ("{}", float("inf"), "entry 0 noise_variance must be a positive finite number"),
        ],
        ids=["overflowing-literal", "no-decades", "overflowing-grid", "infinite-manifest-entry"],
    )
    def test_non_finite_noise_exits_2_naming_the_key(self, ws, tmp_path, capsys, gp, manifest_noise, message):
        manifest = make_manifest(tmp_path, num_tasks=1, noise_variance=manifest_noise)
        cfg = tmp_path / "adapt.json"
        cfg.write_text(f'{{"version": 1, "gp": {gp}}}')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(
                ["adapt", "--config", str(cfg), "--checkpoint", ws["ckpt"], "--tasks", manifest,
                 "--out", str(tmp_path / "o.csv")]
            )
        assert code == 2
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_consistency_error_is_a_package_error_exiting_3(self, ws, tmp_path, capsys):
        assert issubclass(ConsistencyError, TangentGpError)
        cfg = write_json(
            tmp_path / "adapt.json",
            {"version": 1, "architecture": {"input_dim": 1, "hidden_widths": [8], "output_dim": 1}},
        )
        code = main(["adapt", "--config", cfg, "--checkpoint", ws["ckpt"], "--out", str(tmp_path / "o.csv")])
        assert code == 3
        assert "does not match the checkpoint" in capsys.readouterr().err

    def test_misspelled_mean_kind_exits_2(self, ws, tmp_path, capsys):
        gp = {"center_on_network": False, "mean_kind": "jacobain_mean"}
        cfg = write_json(tmp_path / "adapt.json", {"version": 1, "gp": gp})
        out = tmp_path / "o.csv"
        argv = ["adapt", "--config", cfg, "--checkpoint", ws["ckpt"], "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "mean kind must be one of" in err and "got 'jacobain_mean'" in err
        assert not out.exists()

    def test_space_key_is_unknown(self, ws, tmp_path, capsys):
        cfg = write_json(tmp_path / "adapt.json", {"version": 1, "gp": {"space": "function"}})
        argv = ["adapt", "--config", cfg, "--checkpoint", ws["ckpt"], "--out", str(tmp_path / "o.csv")]
        assert main(argv) == 2
        assert "unknown config key 'space' in block 'gp'" in capsys.readouterr().err

    def test_rank_key_is_unknown(self, ws, tmp_path, capsys):
        cfg = write_json(tmp_path / "adapt.json", {"version": 1, "gp": {"rank": 8}})
        argv = ["adapt", "--config", cfg, "--checkpoint", ws["ckpt"], "--out", str(tmp_path / "o.csv")]
        assert main(argv) == 2
        assert "unknown config key 'rank' in block 'gp'" in capsys.readouterr().err

    def test_posterior_out_needs_single_task(self, ws, tmp_path):
        manifest = make_manifest(tmp_path)
        cfg = write_json(tmp_path / "adapt.json", {"version": 1})
        code = main(
            [
                "adapt", "--config", cfg, "--checkpoint", ws["ckpt"], "--tasks", manifest,
                "--posterior-out", str(tmp_path / "post.json"), "--out", str(tmp_path / "o.csv"),
            ]
        )
        assert code == 2


@pytest.fixture(scope="module")
def cached_posterior(ws, tmp_path_factory):
    """Fit one near-noiseless context and cache the posterior for predict tests."""
    root = tmp_path_factory.mktemp("post")
    rng = np.random.default_rng(9)
    x = np.sort(rng.uniform(-3.0, 3.0, size=(8, 1)), axis=0)
    y = 1.3 * np.sin(2.0 * x + 0.4)
    write_dataset_csv(root / "ctx.csv", x, y)
    manifest = write_json(
        root / "tasks.json", [{"context": "ctx.csv", "noise_variance": 1e-8}]
    )
    cfg = write_json(
        root / "adapt.json", {"version": 1, "gp": {"center_on_network": False}}
    )
    posterior = root / "posterior.json"
    code = main(
        [
            "adapt", "--config", cfg, "--checkpoint", ws["ckpt"], "--tasks", manifest,
            "--posterior-out", str(posterior), "--out", str(root / "o.csv"),
        ]
    )
    assert code == 0
    return {"root": root, "posterior": str(posterior), "x": x, "y": y}


class TestPredict:
    def test_reproduces_cached_context_points(self, ws, cached_posterior, tmp_path):
        inputs = write_inputs_csv(tmp_path / "in.csv", cached_posterior["x"])
        out = tmp_path / "pred.csv"
        code = main(
            [
                "predict", "--checkpoint", ws["ckpt"], "--posterior", cached_posterior["posterior"],
                "--inputs", inputs, "--out", str(out),
            ]
        )
        assert code == 0
        header, rows = data_lines(out)
        assert header == ["x_0", "mean_0", "var_0"]
        mean = np.array([float(r[1]) for r in rows])
        var = np.array([float(r[2]) for r in rows])
        assert np.max(np.abs(mean - cached_posterior["y"].ravel())) <= 1e-3
        assert np.all(var >= 0.0)

    def test_empty_inputs_give_header_only_output(self, ws, cached_posterior, tmp_path):
        inputs = tmp_path / "empty.csv"
        inputs.write_text("x_0\n")
        out = tmp_path / "pred.csv"
        code = main(
            [
                "predict", "--checkpoint", ws["ckpt"], "--posterior", cached_posterior["posterior"],
                "--inputs", str(inputs), "--out", str(out),
            ]
        )
        assert code == 0
        header, rows = data_lines(out)
        assert header == ["x_0", "mean_0", "var_0"]
        assert rows == []

    def test_non_archive_posterior_is_input_error(self, ws, cached_posterior, tmp_path, capsys):
        bogus = tmp_path / "post.npz"
        bogus.write_text("not an archive\n")
        inputs = write_inputs_csv(tmp_path / "in.csv", cached_posterior["x"][:2])
        code = main(
            [
                "predict", "--checkpoint", ws["ckpt"], "--posterior", str(bogus),
                "--inputs", inputs, "--out", str(tmp_path / "pred.csv"),
            ]
        )
        assert code == 2
        assert f"{bogus}: not a posterior cache" in capsys.readouterr().err

    def test_posterior_without_mean_cache_is_input_error(
        self, ws, cached_posterior, tmp_path, capsys
    ):
        with np.load(cached_posterior["posterior"], allow_pickle=False) as archive:
            arrays = {k: archive[k] for k in archive.files if k != "mean_cache"}
        partial = tmp_path / "partial.npz"
        np.savez(partial, **arrays)
        inputs = write_inputs_csv(tmp_path / "in.csv", cached_posterior["x"][:2])
        code = main(
            [
                "predict", "--checkpoint", ws["ckpt"], "--posterior", str(partial),
                "--inputs", inputs, "--out", str(tmp_path / "pred.csv"),
            ]
        )
        assert code == 2
        assert f"{partial}: posterior cache has no 'mean_cache'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value", [("noise_variance", "abc"), ("noise_variance", None), ("theta_fingerprint", 12)]
    )
    def test_malformed_posterior_field_is_input_error(
        self, ws, cached_posterior, tmp_path, capsys, key, value
    ):
        with np.load(cached_posterior["posterior"], allow_pickle=False) as archive:
            arrays = {k: archive[k] for k in archive.files}
        meta = json.loads(str(arrays["meta"]))
        arrays["meta"] = np.array(json.dumps({**meta, key: value}))
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        inputs = write_inputs_csv(tmp_path / "in.csv", cached_posterior["x"][:2])
        out = tmp_path / "pred.csv"
        code = main(
            [
                "predict", "--checkpoint", ws["ckpt"], "--posterior", str(bad),
                "--inputs", inputs, "--out", str(out),
            ]
        )
        assert code == 2
        kind = "number" if key == "noise_variance" else "string"
        assert f"{bad}: posterior cache key {key!r} must be {kind}, got {value!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["mean_cache", "variance_root", "inputs"])
    def test_non_finite_posterior_array_is_input_error(self, ws, cached_posterior, tmp_path, capsys, key):
        with np.load(cached_posterior["posterior"], allow_pickle=False) as archive:
            arrays = {k: archive[k] for k in archive.files}
        arrays[key] = arrays[key].copy()
        arrays[key].flat[-1] = np.nan
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        inputs = write_inputs_csv(tmp_path / "in.csv", cached_posterior["x"][:2])
        out = tmp_path / "pred.csv"
        code = main(
            [
                "predict", "--checkpoint", ws["ckpt"], "--posterior", str(bad),
                "--inputs", inputs, "--out", str(out),
            ]
        )
        assert code == 2
        assert f"{bad}: posterior cache key {key!r} must be number array" in capsys.readouterr().err
        assert not out.exists()

    def test_stale_posterior_is_consistency_error(self, ws, cached_posterior, tmp_path):
        other = str(tmp_path / "other.json")
        assert main(["train", "--config", ws["config"], "--seed", "5", "--out", other]) == 0
        inputs = write_inputs_csv(tmp_path / "in.csv", cached_posterior["x"][:2])
        code = main(
            [
                "predict", "--checkpoint", other, "--posterior", cached_posterior["posterior"],
                "--inputs", inputs, "--out", str(tmp_path / "pred.csv"),
            ]
        )
        assert code == 3

    def test_architecture_mismatch_is_consistency_error(self, ws, cached_posterior, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "predict.json",
            {"version": 1, "architecture": {"input_dim": 1, "hidden_widths": [9, 9], "output_dim": 1}},
        )
        inputs = write_inputs_csv(tmp_path / "in.csv", cached_posterior["x"][:2])
        out = tmp_path / "pred.csv"
        code = main(
            [
                "predict", "--config", cfg, "--checkpoint", ws["ckpt"],
                "--posterior", cached_posterior["posterior"], "--inputs", inputs, "--out", str(out),
            ]
        )
        assert code == 3
        assert "does not match the checkpoint" in capsys.readouterr().err
        assert not out.exists()


class TestHeteroscedastic:
    @pytest.mark.parametrize(
        "widths, n_context",
        [([8, 8], 12), ([4], 30)],  # p = 106 >= 12 outputs (kernel side); p = 18 < 30 (p side)
    )
    def test_adapt_then_predict_matches_dense_mean_channel_oracle(self, tmp_path, widths, n_context):
        # Train a heteroscedastic checkpoint, cache a posterior of its mean
        # channel and predict; the GP regresses y - f(X) on the mean channel.
        arch = {"input_dim": 1, "hidden_widths": widths, "output_dim": 1, "heteroscedastic": True}
        train_cfg = write_json(
            tmp_path / "train.json",
            {
                "version": 1,
                "seed": 0,
                "architecture": arch,
                "optimizer": {"learning_rate": 5e-3, "epochs": 20, "batch_size": 8,
                              "loss": "heteroscedastic-gaussian"},
                "task": {"kind": "sinusoid", "points_per_task": 40},
            },
        )
        ckpt = str(tmp_path / "ckpt.json")
        assert main(["train", "--config", train_cfg, "--out", ckpt]) == 0
        rng = np.random.default_rng(5)
        x = rng.uniform(-3.0, 3.0, size=(n_context, 1))
        y = np.sin(2.0 * x)
        write_dataset_csv(tmp_path / "ctx.csv", x, y)
        manifest = write_json(tmp_path / "tasks.json", [{"context": "ctx.csv", "noise_variance": 0.05}])
        adapt_cfg = write_json(tmp_path / "adapt.json", {"version": 1, "architecture": arch})
        posterior = str(tmp_path / "posterior.npz")
        code = main(
            [
                "adapt", "--config", adapt_cfg, "--checkpoint", ckpt, "--tasks", manifest,
                "--posterior-out", posterior, "--out", str(tmp_path / "o.csv"),
            ]
        )
        assert code == 0
        xq = np.vstack([x[:3], rng.uniform(-4.0, 4.0, size=(5, 1))])
        out = tmp_path / "pred.csv"
        code = main(
            [
                "predict", "--checkpoint", ckpt, "--posterior", posterior,
                "--inputs", write_inputs_csv(tmp_path / "in.csv", xq), "--out", str(out),
            ]
        )
        assert code == 0
        header, rows = data_lines(out)
        assert header == ["x_0", "mean_0", "var_0"]
        mean = np.array([float(r[1]) for r in rows])
        var = np.array([float(r[2]) for r in rows])

        # Dense oracle on the mean channel's columns (internal channel 0)
        # of the full Jacobians.
        net = load_checkpoint(ckpt)
        j = JacobianOperator(net, x).dense()[:, 0::2]
        jq = JacobianOperator(net, xq).dense()[:, 0::2]
        resid = y[:, 0] - forward(net, x)[:, 0]
        gram = j.T @ j + 0.05 * np.eye(n_context)
        want_mean = jq.T @ j @ np.linalg.solve(gram, resid)
        cross = j.T @ jq
        want_var = np.sum(jq * jq, axis=0) - np.sum(cross * np.linalg.solve(gram, cross), axis=0)
        assert np.all(want_var > 0.0)
        np.testing.assert_allclose(mean, want_mean, rtol=1e-10, atol=1e-10 * np.max(np.abs(want_mean)))
        np.testing.assert_allclose(var, want_var, rtol=1e-10)


def optimizer_block(loss, batch_size):
    """A two-epoch optimizer block; ``loss`` None leaves the default ("mse")."""
    block = {"learning_rate": 1e-3, "epochs": 2, "batch_size": batch_size}
    if loss is not None:
        block["loss"] = loss
    return block


class TestLossFitsArchitecture:
    """The training loss must be "heteroscedastic-gaussian" exactly when the
    architecture is heteroscedastic; ``train`` and the last-layer baseline
    both check it before any step and exit 2 naming the key."""

    @staticmethod
    def adapt_with_baselines(tmp_path, arch, loss):
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(init_network(arch, seed=0), ckpt, {})
        rng = np.random.default_rng(3)
        for name, n in (("ctx.csv", 8), ("ev.csv", 5)):
            x = rng.uniform(-2.0, 2.0, size=(n, 1))
            write_dataset_csv(tmp_path / name, x, np.sin(x * np.arange(1, arch.output_dim + 1)))
        manifest = write_json(tmp_path / "tasks.json", [{"context": "ctx.csv", "eval": "ev.csv"}])
        cfg = write_json(
            tmp_path / "adapt.json",
            {
                "version": 1,
                "architecture": arch.to_dict(),
                "gp": {"baselines": True, "noise_variance": 0.01},
                "optimizer": optimizer_block(loss, batch_size=4),
            },
        )
        out = tmp_path / "o.csv"
        argv = ["adapt", "--config", cfg, "--checkpoint", str(ckpt), "--tasks", manifest, "--out", str(out)]
        return main(argv), out

    @pytest.mark.parametrize(
        "outputs, heteroscedastic, loss",
        [(2, True, None), (1, True, None), (1, False, "heteroscedastic-gaussian")],
        ids=["two-channel-heteroscedastic-mse", "one-channel-heteroscedastic-mse", "plain-heteroscedastic-loss"],
    )
    def test_train_exits_2(self, tmp_path, capsys, outputs, heteroscedastic, loss):
        arch = MlpArchitecture(1, (8, 8), outputs, heteroscedastic=heteroscedastic)
        x = np.linspace(-2.0, 2.0, 20)[:, None]
        write_dataset_csv(tmp_path / "train.csv", x, np.sin(x * np.arange(1, outputs + 1)))
        cfg = write_json(
            tmp_path / "train.json",
            {"version": 1, "architecture": arch.to_dict(), "optimizer": optimizer_block(loss, batch_size=8),
             "task": {"kind": "csv", "train_csv": str(tmp_path / "train.csv")}},
        )
        out = tmp_path / "ckpt.json"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"optimizer.loss {loss or 'mse'!r} does not fit the architecture" in err
        assert f"'heteroscedastic': {heteroscedastic}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "arch, loss",
        [(MlpArchitecture(1, (8, 8), 2, heteroscedastic=True), None),
         (MlpArchitecture(1, (8, 8), 1), "heteroscedastic-gaussian")],
        ids=["heteroscedastic-mse", "plain-heteroscedastic-loss"],
    )
    def test_adapt_with_baselines_exits_2(self, tmp_path, capsys, arch, loss):
        code, out = self.adapt_with_baselines(tmp_path, arch, loss)
        assert code == 2
        assert f"optimizer.loss {loss or 'mse'!r} does not fit the architecture" in capsys.readouterr().err
        assert not out.exists()

    def test_heteroscedastic_baselines_read_the_mean_channels(self, tmp_path):
        arch = MlpArchitecture(1, (8, 8), 2, heteroscedastic=True)
        code, out = self.adapt_with_baselines(tmp_path, arch, "heteroscedastic-gaussian")
        assert code == 0
        _, rows = data_lines(out)
        assert [row[1] for row in rows] == ["finite-ntk", "no-retrain", "last-layer"]
        source = load_checkpoint(tmp_path / "ckpt.json")
        x, y = read_dataset_csv(tmp_path / "ev.csv")
        mean = forward(source, x)[:, 0::2]
        assert float(rows[1][3]) == pytest.approx(float(np.mean((mean - y) ** 2)), rel=1e-12)


class TestLogLevel:
    def test_every_call_reads_the_variable(self, ws, cached_posterior, tmp_path, monkeypatch, capsys):
        inputs = write_inputs_csv(tmp_path / "in.csv", cached_posterior["x"])
        errs = []
        for level in ("WARNING", "INFO", "WARNING"):
            monkeypatch.setenv("TANGENTGP_LOG_LEVEL", level)
            out = tmp_path / f"{level}.csv"
            argv = [
                "predict", "--checkpoint", ws["ckpt"], "--posterior", cached_posterior["posterior"],
                "--inputs", inputs, "--out", str(out),
            ]
            assert main(argv) == 0
            errs.append(capsys.readouterr().err)
        assert errs == ["", f"INFO tangentgp: wrote {tmp_path / 'INFO.csv'}\n", ""]


class TestParserReuse:
    def predict_argv(self, ws, cached_posterior, inputs, out, *extra):
        return [
            "predict", "--checkpoint", ws["ckpt"], "--posterior", cached_posterior["posterior"],
            "--inputs", inputs, "--out", str(out), *extra,
        ]

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()
        assert cli._shared_parser() is cli._shared_parser()

    def test_seed_override_does_not_stick(self, ws, cached_posterior, tmp_path):
        inputs = write_inputs_csv(tmp_path / "in.csv", cached_posterior["x"][:3])
        runs = [("a.csv", []), ("b.csv", ["--seed", "7"]), ("c.csv", [])]
        for name, extra in runs:
            assert main(self.predict_argv(ws, cached_posterior, inputs, tmp_path / name, *extra)) == 0
        a, b, c = ((tmp_path / name).read_bytes() for name, _ in runs)
        assert a == c
        assert a != b and b'"seed":7' in b

    def test_json_format_does_not_stick(self, ws, cached_posterior, tmp_path):
        inputs = write_inputs_csv(tmp_path / "in.csv", cached_posterior["x"][:3])
        csv_out, json_out = tmp_path / "p.csv", tmp_path / "p.json"
        main(self.predict_argv(ws, cached_posterior, inputs, json_out, "--format", "json"))
        assert main(self.predict_argv(ws, cached_posterior, inputs, csv_out)) == 0
        doc = json.loads(json_out.read_text())
        header, rows = data_lines(csv_out)
        assert csv_out.read_text().startswith("# tool_version")
        assert doc["columns"] == header and doc["rows"] == rows

    def test_usage_error_then_good_call(self, ws, cached_posterior, tmp_path):
        inputs = write_inputs_csv(tmp_path / "in.csv", cached_posterior["x"][:3])
        assert main(self.predict_argv(ws, cached_posterior, inputs, tmp_path / "a.csv")) == 0
        with pytest.raises(SystemExit) as exit_info:
            main(["predict", "--checkpoint", ws["ckpt"], "--format", "xml", "--out", "x"])
        assert exit_info.value.code == 2
        assert main(self.predict_argv(ws, cached_posterior, inputs, tmp_path / "b.csv")) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestFvpBench:
    def test_default_grid_accuracy(self, ws, tmp_path):
        cfg = write_json(tmp_path / "fvp.json", {"version": 1, "task": {"points_per_task": 40}})
        out = tmp_path / "sweep.csv"
        assert main(["fvp-bench", "--config", cfg, "--checkpoint", ws["ckpt"], "--out", str(out)]) == 0
        header, rows = data_lines(out)
        assert header == ["epsilon", "mean_rel_err", "max_rel_err", "probes", "seed"]
        assert len(rows) == 4
        by_eps = {float(r[0]): float(r[1]) for r in rows}
        assert by_eps[1e-4] <= 1e-2

    def test_reproducible(self, ws, tmp_path):
        cfg = write_json(tmp_path / "fvp.json", {"version": 1})
        outs = []
        for name in ("s1.csv", "s2.csv"):
            out = tmp_path / name
            assert main(["fvp-bench", "--config", cfg, "--checkpoint", ws["ckpt"], "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_categorical_likelihood(self, tmp_path):
        # The softmax Fisher of a three-class network, against the Gaussian one of the same network.
        ckpt = tmp_path / "clf.json"
        save_checkpoint(init_network(MlpArchitecture(2, (8,), 3), seed=1), ckpt, {})
        write_dataset_csv(tmp_path / "x.csv", np.random.default_rng(0).normal(size=(20, 2)), np.zeros((20, 1)))
        sweeps = {}
        for likelihood in ("categorical", "gaussian"):
            task = {"kind": "csv", "train_csv": str(tmp_path / "x.csv")}
            cfg = write_json(tmp_path / "fvp.json", {"version": 1, "task": task, "fvp": {"likelihood": likelihood}})
            out = tmp_path / f"{likelihood}.csv"
            assert main(["fvp-bench", "--config", cfg, "--checkpoint", str(ckpt), "--out", str(out)]) == 0
            _, sweeps[likelihood] = data_lines(out)
        errors = np.array([[float(v) for v in row[1:3]] for row in sweeps["categorical"]])
        assert errors.shape == (4, 2) and np.isfinite(errors).all()
        assert errors[2, 0] <= 1e-2  # epsilon 1e-4
        assert sweeps["categorical"] != sweeps["gaussian"]

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "1e400"])
    def test_non_finite_epsilon_exits_2_naming_the_key(self, ws, tmp_path, capsys, text):
        cfg = tmp_path / "fvp.json"
        cfg.write_text(f'{{"version": 1, "fvp": {{"epsilons": [1e-4, {text}]}}}}')
        out = tmp_path / "sweep.csv"
        assert main(["fvp-bench", "--config", str(cfg), "--checkpoint", ws["ckpt"], "--out", str(out)]) == 2
        assert "config key fvp.epsilons must be number list" in capsys.readouterr().err
        assert not out.exists()


def save_relu_checkpoint(path, w1, b1, w2, b2):
    arch = MlpArchitecture(2, (4,), 1, activation="relu")
    params = np.concatenate(
        [np.asarray(a, dtype=float).ravel() for a in (w1, b1, w2, b2)]
    )
    save_checkpoint(init_network(arch, seed=0).with_params(params), path, {})
    return str(path)


class TestSimilarity:
    def test_self_similarity_is_one(self, ws, tmp_path):
        cfg = write_json(tmp_path / "sim.json", {"version": 1})
        inputs = write_inputs_csv(tmp_path / "in.csv", np.linspace(-2, 2, 6)[:, None])
        out = tmp_path / "sim.json.out"
        code = main(
            [
                "similarity", "--config", cfg, "--checkpoints", ws["ckpt"], ws["ckpt"],
                "--inputs", inputs, "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert float(doc["matrix"][0][1]) == pytest.approx(1.0, abs=1e-12)
        assert float(doc["matrix"][0][0]) == 1.0

    def test_disjoint_tangent_support_scores_near_zero(self, tmp_path):
        # Net A keeps every hidden unit inactive on the eval inputs, so its
        # only nonzero parameter gradient is the output bias.  Net B runs all
        # units in the active regime at large weight scale, which makes that
        # shared bias coordinate negligible after normalization.
        dead = save_relu_checkpoint(
            tmp_path / "dead.json", np.ones((4, 2)), np.full(4, -1e3), np.ones((1, 4)), [0.0]
        )
        alive = save_relu_checkpoint(
            tmp_path / "alive.json", np.ones((4, 2)), np.full(4, 1e3), np.full((1, 4), 1e4), [0.0]
        )
        cfg = write_json(tmp_path / "sim.json", {"version": 1})
        rng = np.random.default_rng(0)
        inputs = write_inputs_csv(tmp_path / "in.csv", rng.uniform(-1, 1, size=(8, 2)))
        out = tmp_path / "report.json"
        code = main(
            ["similarity", "--config", cfg, "--checkpoints", dead, alive, "--inputs", inputs, "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert float(doc["matrix"][0][1]) <= 1e-6

    def test_report_schema(self, ws, tmp_path):
        cfg = write_json(tmp_path / "sim.json", {"version": 1})
        inputs = write_inputs_csv(tmp_path / "in.csv", np.linspace(-1, 1, 5)[:, None])
        out = tmp_path / "report.json"
        assert (
            main(["similarity", "--config", cfg, "--checkpoints", ws["ckpt"], ws["ckpt"], "--inputs", inputs, "--out", str(out)])
            == 0
        )
        doc = json.loads(out.read_text())
        for key in ("model_ids", "distribution_ids", "n_eval", "seed", "matrix", "summary", "config_hash", "tool_version"):
            assert key in doc
        assert doc["model_ids"] == ["ckpt", "ckpt"]
        assert doc["n_eval"] == 5

    def test_mismatched_parameter_counts_rejected(self, ws, tmp_path):
        small = tmp_path / "small.json"
        save_checkpoint(init_network(MlpArchitecture(1, (3,), 1), seed=0), small, {})
        cfg = write_json(tmp_path / "sim.json", {"version": 1})
        inputs = write_inputs_csv(tmp_path / "in.csv", np.zeros((2, 1)))
        code = main(
            ["similarity", "--config", cfg, "--checkpoints", ws["ckpt"], str(small), "--inputs", inputs, "--out", str(tmp_path / "o.json")]
        )
        assert code == 3

    def test_checkpoints_flag_without_paths_is_a_usage_error(self, tmp_path, monkeypatch):
        # It used to parse as no checkpoints and run the full transfer study.
        def no_study(cfg):
            raise AssertionError("ran the transfer study")

        monkeypatch.setattr(cli, "task_similarity_study", no_study)
        cfg = write_json(tmp_path / "sim.json", {"version": 1})
        inputs = write_inputs_csv(tmp_path / "in.csv", np.zeros((2, 1)))
        out = tmp_path / "o.json"
        with pytest.raises(SystemExit) as exit_info:
            main(["similarity", "--config", cfg, "--checkpoints", "--inputs", inputs, "--out", str(out)])
        assert exit_info.value.code == 2
        assert not out.exists()

    def test_equal_parameter_counts_of_different_shapes_rejected(self, tmp_path, capsys):
        # Both have 13 parameters, but their layers do not correspond.
        paths = []
        for name, widths in (("deep", (2, 2)), ("wide", (4,))):
            paths.append(str(tmp_path / f"{name}.json"))
            save_checkpoint(init_network(MlpArchitecture(1, widths, 1), seed=0), paths[-1], {})
        cfg = write_json(tmp_path / "sim.json", {"version": 1})
        inputs = write_inputs_csv(tmp_path / "in.csv", np.zeros((2, 1)))
        code = main(
            ["similarity", "--config", cfg, "--checkpoints", *paths, "--inputs", inputs, "--out", str(tmp_path / "o.json")]
        )
        assert code == 3
        assert "different layer shapes" in capsys.readouterr().err

    def test_kernels_over_the_cap_exit_4(self, ws, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(analysis, "DENSE_JACOBIAN_CAP", 35)
        cfg = write_json(tmp_path / "sim.json", {"version": 1})
        inputs = write_inputs_csv(tmp_path / "in.csv", np.linspace(-1, 1, 6)[:, None])
        out = tmp_path / "o.json"
        code = main(
            ["similarity", "--config", cfg, "--checkpoints", ws["ckpt"], ws["ckpt"], "--inputs", inputs, "--out", str(out)]
        )
        assert code == 4
        assert "similarity kernels need 36 entries (cap 35)" in capsys.readouterr().err
        assert not out.exists()

    def test_study_mode_produces_summary(self, tmp_path):
        cfg = write_json(
            tmp_path / "study.json",
            {
                "version": 1,
                "seed": 0,
                "study": {
                    "models_per_group": 1,
                    "train_points": 40,
                    "eval_points": 12,
                    "epochs": 8,
                    "realign_steps": 20,
                },
            },
        )
        out = tmp_path / "report.json"
        assert main(["similarity", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["model_ids"] == ["base-a-0", "base-b-0", "shifted-0"]
        assert doc["summary"]["within_pairs"] >= 1
        assert doc["summary"]["cross_pairs"] >= 1


@pytest.fixture(scope="module")
def blob_data(tmp_path_factory):
    """Two well separated gaussian blobs with integer class labels."""
    root = tmp_path_factory.mktemp("glm")
    rng = np.random.default_rng(3)
    a = rng.normal(loc=(-2.0, -2.0), scale=0.4, size=(20, 2))
    b = rng.normal(loc=(2.0, 2.0), scale=0.4, size=(20, 2))
    x = np.vstack([a, b])
    labels = np.array([0] * 20 + [1] * 20)
    write_classification_csv(root / "blobs.csv", x, labels)
    ckpt = root / "clf.json"
    save_checkpoint(init_network(MlpArchitecture(2, (8,), 2), seed=1), ckpt, {})
    return {"root": root, "data": str(root / "blobs.csv"), "ckpt": str(ckpt)}


RECORD_ARRAYS = ("mean", "params", "fisher_x", "fisher_map")


def read_record(path):
    """A Laplace record's meta and data fields, the factor as its m square: the reader the tests trust."""
    record = np.load(path)
    meta = json.loads(record["meta"].item())
    shapes, data, start = meta["shapes"], record["data"], 0
    m = shapes["factor"][0]
    factor = np.zeros((m, m))
    for i in range(0, m, gp_module.CHOLESKY_BLOCK):
        j = min(m, i + gp_module.CHOLESKY_BLOCK)
        factor[i:j, :j] = data[start : start + (j - i) * j].reshape(j - i, j)
        start += (j - i) * j
    fields = {"factor": factor}
    for name in RECORD_ARRAYS:
        size = math.prod(shapes[name])
        fields[name], start = data[start : start + size].reshape(shapes[name]), start + size
    assert start == len(data)
    return meta, fields


def save_record(path, meta, data):
    """``data`` and the JSON of ``meta`` in a record's two fields."""
    blob = json.dumps(meta).encode()
    record = np.zeros((), dtype=[("data", "<f8", data.shape), ("meta", f"S{len(blob)}")])
    record["data"], record["meta"] = data, blob
    np.save(path, record)


def write_record(path, meta, fields):
    """A record of ``meta`` and ``fields`` (the factor as an m square) in glm-fit's layout, with the arrays' shapes."""
    factor, block = fields["factor"], gp_module.CHOLESKY_BLOCK
    shapes = {"factor": list(factor.shape), **{name: list(np.shape(fields[name])) for name in RECORD_ARRAYS}}
    panels = [factor[i : i + block, : i + block].ravel() for i in range(0, len(factor), block)]
    save_record(path, {**meta, "shapes": shapes}, np.concatenate(panels + [np.ravel(fields[n]) for n in RECORD_ARRAYS]))


def save_eleven_field_record(path, meta, fields, first):
    """The record in the eleven-field layout that held the Gram (``first="gram"``) or its square factor first."""
    factor = fields["factor"]
    values = {
        first: factor @ factor.T if first == "gram" else factor,
        "mean": fields["mean"],
        "params": fields["params"],
        "fisher_x": fields["fisher_x"],
        "prior_variance": meta["prior_variance"],
        "n_train": meta["n_train"],
        "include_network_output": meta["include_network_output"],
        "checkpoint_sha256": meta["checkpoint_sha256"].encode(),
        "fit_sha256": meta["fit_sha256"].encode(),
        "network_fingerprint": meta["network_fingerprint"].encode(),
        "architecture": json.dumps(meta["architecture"], sort_keys=True).encode(),
    }
    record = np.zeros((), dtype=[(name, np.asarray(v).dtype, np.shape(v)) for name, v in values.items()])
    for name, value in values.items():
        record[name] = value
    np.save(path, record)


class TestGlm:
    def fit(self, blob_data, tmp_path, method, ckpt=None, out="fit.json", **glm):
        cfg = write_json(
            tmp_path / "glm.json",
            {"version": 1, "glm": {"method": method, "epochs": 40, "learning_rate": 0.01, **glm}},
        )
        fit_path = tmp_path / out
        code = main(
            [
                "glm-fit", "--config", cfg, "--checkpoint", ckpt or blob_data["ckpt"],
                "--data", blob_data["data"], "--out", str(fit_path),
            ]
        )
        assert code == 0
        return cfg, str(fit_path)

    def predict(self, blob_data, tmp_path, cfg, fit_path, ckpt=None, out="pred.csv"):
        inputs = write_inputs_csv(tmp_path / "in.csv", [[-2.0, -2.0], [0.1, 0.3], [2.0, 2.0]])
        code = main(
            [
                "glm-predict", "--config", cfg, "--checkpoint", ckpt or blob_data["ckpt"],
                "--fit", fit_path, "--inputs", inputs, "--out", str(tmp_path / out),
            ]
        )
        return code, tmp_path / out

    @pytest.mark.parametrize("widths", [(8,), (4,)])
    def test_laplace_fit_caches_its_gram_and_a_missing_one_is_rebuilt(
        self, blob_data, tmp_path, monkeypatch, capsys, widths
    ):
        # 40 Fisher inputs, 2 classes: the (8,) net (p = 42) takes the
        # 40 x 40 kernel side, the (4,) net (p = 22) the 22 x 22 p side.
        # A record written for these checkpoint and fit bytes serves each
        # predict_mode alone and silently: no JSON file is parsed and no
        # Gram is built or factored, and the output is the bytes of a run
        # without the record.
        ckpt = str(tmp_path / "clf.json")
        save_checkpoint(init_network(MlpArchitecture(2, widths, 2), seed=1), ckpt, {})
        glm = {"method": "laplace", "include_network_output": True, "prior_variance": 0.5}
        _, fit_path = self.fit(blob_data, tmp_path, ckpt=ckpt, **glm)
        record_path = tmp_path / "fit.laplace.npy"
        size = min(40, 5 * widths[0] + 2)
        assert read_record(record_path)[1]["factor"].shape == (size, size)

        def unreached(*args, **kwargs):
            raise AssertionError("glm-predict did not predict from the record alone")

        for mode in ("single_sample", "mean"):
            cfg = write_json(tmp_path / f"{mode}.json", {"version": 1, "glm": {**glm, "predict_mode": mode}})
            with monkeypatch.context() as patch:
                for module, name in (
                    (glm_module, "_tangent_kernel"), (glm_module, "_shifted_gram"), (glm_module, "gram_cholesky"),
                    (cli, "load_checkpoint"), (cli, "_load_glm_fit"),
                ):
                    patch.setattr(module, name, unreached)
                code, cached = self.predict(blob_data, tmp_path, cfg, fit_path, ckpt, f"cached-{mode}.csv")
            assert code == 0
            assert capsys.readouterr().err == ""
            record = record_path.read_bytes()
            record_path.unlink()
            code, rebuilt = self.predict(blob_data, tmp_path, cfg, fit_path, ckpt, f"rebuilt-{mode}.csv")
            record_path.write_bytes(record)
            assert code == 0
            assert cached.read_bytes() == rebuilt.read_bytes()

    @pytest.mark.parametrize(
        "tamper",
        [
            "other fit", "digest", "shape", "non-finite", "one array", "archive", "not numpy",
            "re-indented fit", "non-finite mean", "mis-shaped fisher_x", "non-finite params",
            "earlier layout", "zero rows", "factor not lower-triangular",
            "factor with a zero diagonal entry", "gram layout", "meta not an object", "meta key missing",
            "data length", "non-finite fisher map", "fisher map shape", "nonzero above a diagonal block",
            "zero diagonal", "square factor layout", "n_train a string", "include_network_output 1",
            "digest a number", "architecture a list", "integer prior_variance",
        ],
    )
    def test_record_that_is_not_a_hit_is_never_used(self, blob_data, tmp_path, monkeypatch, capsys, tamper):
        # A miss parses both files and rebuilds the Gram, and writes the
        # bytes of a run without the record; only a record that fails a
        # check, not one written for other bytes, is a warning. An integer
        # prior_variance, which the fit file reads as a number too, is a hit.
        cfg, fit_path = self.fit(blob_data, tmp_path, "laplace", predict_mode="single_sample")
        code, hit = self.predict(blob_data, tmp_path, cfg, fit_path, out="hit.csv")
        assert code == 0
        gram_path = tmp_path / "fit.laplace.npy"
        meta, fields = read_record(gram_path)
        factor = fields["factor"]

        def spoiled(name, index, value):
            array = fields[name].copy()
            array[index] = value
            return array

        changed = {
            "digest": {"fit_sha256": "0" * 64},
            "shape": {"factor": factor[:-1, :-1]},
            "non-finite": {"factor": spoiled("factor", (5, 3), np.inf)},
            "non-finite mean": {"mean": spoiled("mean", 3, np.nan)},
            "mis-shaped fisher_x": {"fisher_x": fields["fisher_x"][:, :1]},
            "non-finite params": {"params": spoiled("params", 0, np.nan)},
            "zero rows": {"fisher_x": fields["fisher_x"][:0], "factor": factor[:0, :0]},
            # The upper factor L', as a solver that returns U would give it.
            "factor not lower-triangular": {"factor": factor.T},
            "factor with a zero diagonal entry": {"factor": spoiled("factor", (2, 2), 0.0)},
            "non-finite fisher map": {"fisher_map": spoiled("fisher_map", (4, 0, 1), np.nan)},
            # The map of one Fisher input fewer.
            "fisher map shape": {"fisher_map": fields["fisher_map"][:-1]},
            "nonzero above a diagonal block": {"factor": spoiled("factor", (len(factor) - 2, len(factor) - 1), 0.5)},
            "zero diagonal": {"factor": spoiled("factor", (len(factor) - 1,) * 2, 0.0)},
            "n_train a string": {"n_train": str(meta["n_train"])},
            "include_network_output 1": {"include_network_output": 1},
            "digest a number": {"checkpoint_sha256": 0},
            "architecture a list": {"architecture": list(meta["architecture"].values())},
            "integer prior_variance": {"prior_variance": int(meta["prior_variance"])},
        }
        assert meta["prior_variance"] == 1.0
        if tamper == "other fit":
            # Rewrites glm.json too, so the outputs' config_hash is not the hit's.
            self.fit(blob_data, tmp_path, "laplace", out="other.json", epochs=20, predict_mode="single_sample")
            (tmp_path / "other.laplace.npy").replace(gram_path)
        elif tamper == "one array":
            np.save(gram_path, factor)
        elif tamper == "archive":
            with open(gram_path, "wb") as fh:
                np.savez(fh, gram=factor, digest=meta["fit_sha256"])
        elif tamper == "not numpy":
            gram_path.write_bytes(b"not a record")
        elif tamper == "re-indented fit":
            # The same values in other bytes: the record is keyed by the fit file's bytes.
            Path(fit_path).write_text(json.dumps(json.loads(Path(fit_path).read_text()), indent=4))
        elif tamper == "earlier layout":
            # The Gram and the fit file's digest, as glm-fit wrote them before the record.
            earlier = np.zeros((), dtype=[("digest", "S64"), ("gram", "<f8", factor.shape)])
            earlier["digest"], earlier["gram"] = meta["fit_sha256"], factor @ factor.T
            np.save(gram_path, earlier)
        elif tamper == "gram layout":
            # The eleven-field record as glm-fit wrote it before it held the factor: the Gram, as "gram".
            save_eleven_field_record(gram_path, meta, fields, "gram")
        elif tamper == "square factor layout":
            # The eleven-field record that held the factor as an m square, zeros and all.
            save_eleven_field_record(gram_path, meta, fields, "gram_factor")
        elif tamper == "meta not an object":
            save_record(gram_path, list(meta), np.load(gram_path)["data"])
        elif tamper == "meta key missing":
            save_record(gram_path, {key: meta[key] for key in meta if key != "n_train"}, np.load(gram_path)["data"])
        elif tamper == "data length":
            save_record(gram_path, meta, np.load(gram_path)["data"][:-1])
        else:
            change = changed[tamper]
            write_record(
                gram_path,
                {key: change.get(key, value) for key, value in meta.items()},
                {name: change.get(name, value) for name, value in fields.items()},
            )
        capsys.readouterr()
        shifted_gram, built = glm_module._shifted_gram, []
        monkeypatch.setattr(glm_module, "_shifted_gram", lambda *args: built.append(args) or shifted_gram(*args))
        served = tamper == "integer prior_variance"
        warned = tamper not in ("other fit", "digest", "re-indented fit") and not served
        # The check that refuses each record; the others are not in the record's layout.
        key = "Laplace record key"
        factor_key = f"{key} 'factor' is malformed: "
        above, diagonal = "the factor has a nonzero entry above", "the factor has a diagonal entry that is not positive"
        reasons = {
            "archive": "not a .npy record",
            "not numpy": "not a .npy record",
            "shape": "factor of shape (39, 39), expected (40, 40)",
            "non-finite": factor_key + "non-finite factor entries",
            "non-finite mean": f"{key} 'mean' must be number array, got array([",
            "mis-shaped fisher_x": f"{key} 'fisher_x' is malformed: Fisher inputs of shape (40, 1)",
            "non-finite params": f"{key} 'params' is malformed: parameter vector contains non-finite entries",
            "zero rows": f"{key} 'fisher_x' is malformed: Fisher inputs of shape (0, 2)",
            "factor not lower-triangular": factor_key + above,
            "factor with a zero diagonal entry": factor_key + diagonal,
            "meta not an object": "meta is not an object of the keys",
            "meta key missing": "meta is not an object of the keys",
            "data length": "data holds 1843 floats, its meta's shapes 1844",
            "non-finite fisher map": f"{key} 'fisher_map' must be number array, got array([",
            "fisher map shape": "fisher_map of shape (39, 1, 2), expected (40, 1, 2)",
            "nonzero above a diagonal block": factor_key + above,
            "zero diagonal": factor_key + diagonal,
            "n_train a string": f"{key} 'n_train' must be int, got '40')",
            "include_network_output 1": f"{key} 'include_network_output' must be bool, got 1)",
            "digest a number": f"{key} 'checkpoint_sha256' must be string, got 0)",
            "architecture a list": f"{key} 'architecture' is malformed: expected an object, got list)",
        }
        glm = json.loads(Path(cfg).read_text())["glm"]
        for mode in ("single_sample", "mean"):
            mode_cfg = write_json(tmp_path / f"{mode}.json", {"version": 1, "glm": {**glm, "predict_mode": mode}})
            built.clear()
            code, miss = self.predict(blob_data, tmp_path, mode_cfg, fit_path, out=f"miss-{mode}.csv")
            assert code == 0
            err = capsys.readouterr().err
            if warned:
                assert err.startswith(f"WARNING tangentgp: {gram_path}: not used (")
                assert err.endswith("; rerun glm-fit to predict from the record\n")
                assert f"not used ({reasons.get(tamper, 'not a Laplace record in this layout')}" in err
                if tamper == "not numpy":
                    assert "allow_pickle" not in err
            else:
                assert err == ""
            assert len(built) == (mode == "single_sample" and not served)
            tampered = gram_path.read_bytes()
            gram_path.unlink()
            code, without = self.predict(blob_data, tmp_path, mode_cfg, fit_path, out=f"without-{mode}.csv")
            gram_path.write_bytes(tampered)
            assert code == 0
            assert miss.read_bytes() == without.read_bytes()
            if mode == "single_sample":
                assert data_lines(miss) == data_lines(hit)

    def test_record_serves_only_the_checkpoint_bytes_it_was_written_for(self, blob_data, tmp_path, monkeypatch, capsys):
        cfg, fit_path = self.fit(blob_data, tmp_path, "laplace", predict_mode="single_sample")
        code, hit = self.predict(blob_data, tmp_path, cfg, fit_path, out="hit.csv")
        assert code == 0
        # The same network in other checkpoint bytes: a miss, which parses
        # each file once, rebuilds the Gram and draws the same bytes.
        resaved = tmp_path / "resaved.json"
        save_checkpoint(load_checkpoint(blob_data["ckpt"]), resaved, {"note": "re-written"})
        parsed = []
        for module, name in ((cli, "load_checkpoint"), (cli, "_load_glm_fit"), (glm_module, "_shifted_gram")):
            original = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *args, name=name, original=original: parsed.append(name) or original(*args)
            )
        monkeypatch.setenv("TANGENTGP_LOG_LEVEL", "INFO")
        capsys.readouterr()
        code, miss = self.predict(blob_data, tmp_path, cfg, fit_path, str(resaved), "miss.csv")
        assert code == 0
        assert sorted(parsed) == ["_load_glm_fit", "_shifted_gram", "load_checkpoint"]
        assert miss.read_bytes() == hit.read_bytes()
        gram_path = tmp_path / "fit.laplace.npy"
        err = capsys.readouterr().err
        assert f"INFO tangentgp: {gram_path}: not used, it was written for other checkpoint or fit bytes" in err
        assert "WARNING" not in err
        # Another network is a stale fit, as without a record.
        other = tmp_path / "other.json"
        save_checkpoint(init_network(MlpArchitecture(2, (8,), 2), seed=9), other, {})
        code, out = self.predict(blob_data, tmp_path, cfg, fit_path, str(other), "stale.csv")
        assert code == 3
        assert "stale GLM fit" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,mode,cached",
        [("mean", "single_sample", True), ("mean", "single_sample", False), ("fisher_x", "mean", True)],
        ids=["nan-mean-with-gram", "nan-mean-without-gram", "inf-fisher-x-mean-mode"],
    )
    def test_non_finite_laplace_field_is_input_error(self, blob_data, tmp_path, capsys, key, mode, cached):
        # Refused at load, naming the file and the key, whatever the mode and the cache.
        cfg, fit_path = self.fit(blob_data, tmp_path, "laplace", predict_mode=mode)
        if not cached:
            (tmp_path / "fit.laplace.npy").unlink()
        doc = json.loads(Path(fit_path).read_text())
        if key == "mean":
            doc["mean"][3] = math.nan
        else:
            doc["fisher_x"][2][1] = math.inf
        write_json(Path(fit_path), doc)
        code, out = self.predict(blob_data, tmp_path, cfg, fit_path)
        assert code == 2
        kind = "number list" if key == "mean" else "number table"
        assert f"{fit_path}: GLM fit file key {key!r} must be {kind}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["mean", "single_sample"])
    @pytest.mark.parametrize(
        "fisher_x", [[[0.0, 0.0, 0.0]] * 3, [], [[], []]], ids=["three-wide-rows", "no-rows", "zero-width-rows"]
    )
    def test_mis_shaped_fisher_x_is_input_error(self, blob_data, tmp_path, capsys, fisher_x, mode):
        # The Fisher inputs must be a table of at least one row of the
        # network's input_dim, whatever the mode reads of them.
        cfg, fit_path = self.fit(blob_data, tmp_path, "laplace", predict_mode=mode)
        doc = json.loads(Path(fit_path).read_text())
        doc["fisher_x"] = fisher_x
        write_json(Path(fit_path), doc)
        code, out = self.predict(blob_data, tmp_path, cfg, fit_path)
        assert code == 2
        err = capsys.readouterr().err
        assert f"{fit_path}: GLM fit file key 'fisher_x' is malformed: " in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_pinned_record_with_an_unreadable_checkpoint_exits_2(self, blob_data, tmp_path, capsys):
        # The record misses, as its checkpoint digest names no readable bytes, and the checkpoint's read fails.
        cfg, fit_path = self.fit(blob_data, tmp_path, "laplace")
        ckpt = tmp_path / "ckptdir"
        ckpt.mkdir()
        code, out = self.predict(blob_data, tmp_path, cfg, fit_path, str(ckpt))
        assert code == 2
        err = capsys.readouterr().err
        assert f"tangentgp: {ckpt}: Is a directory" in err
        assert "Traceback" not in err and "WARNING" not in err
        assert not out.exists()

    def test_failed_record_write_keeps_the_previous_record(self, blob_data, tmp_path, monkeypatch, capsys):
        # The record streams into a temp file that replaces it only once written whole.
        cfg, fit_path = self.fit(blob_data, tmp_path, "laplace")
        record_path = tmp_path / "fit.laplace.npy"
        before = record_path.read_bytes()
        save = np.save

        def partial_save(file, array):
            save(file, array[()]["data"][:10])
            raise OSError("disk full")

        monkeypatch.setattr(np, "save", partial_save)
        argv = ["glm-fit", "--config", cfg, "--checkpoint", blob_data["ckpt"], "--data", blob_data["data"], "--out", fit_path]
        assert main(argv) == 2
        assert "tangentgp: disk full" in capsys.readouterr().err
        assert record_path.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))

    def test_only_a_pinned_laplace_fit_leaves_a_gram_file(self, blob_data, tmp_path):
        gram_path = tmp_path / "fit.laplace.npy"
        for method, source, written in [
            ("laplace", "train", True),
            ("map", "train", False),
            ("laplace", "train", True),
            ("laplace", "test_batch", False),
            ("svi", "train", False),
        ]:
            self.fit(blob_data, tmp_path, method, fisher_source=source)
            assert gram_path.exists() == written

    @pytest.mark.parametrize(
        "module, name, value, message",
        [
            # 40 inputs, 2 classes: the (8,) net's Gram is the 40 x 40 kernel side.
            (gp_module, "DENSE_JACOBIAN_CAP", 40 * 40 - 1, "Gram factorization needs a 40 x 40 matrix (cap 1599 entries)"),
            # The Gram fits under the cap; the 80 x 80 tangent kernel it is mapped from does not.
            (gp_module, "DENSE_JACOBIAN_CAP", 40 * 40, "the Laplace Gram's tangent kernel needs a 80 x 80 matrix (cap 1600 entries)"),
            (glm_module, "NEWTON_MAX_ITERATIONS", 1, "Newton's method did not reach the Laplace mode in 1 iterations"),
            # The Newton steps solve by LU; only the final Gram is factored by Cholesky.
            (np.linalg, "cholesky", not_positive_definite, "Cholesky factorization of the 40 x 40 Gram matrix failed"),
        ],
        ids=["gram-over-the-cap", "kernel-over-the-cap", "iteration-cap", "cholesky-breakdown"],
    )
    def test_failed_laplace_fit_exits_4_writing_nothing(
        self, blob_data, tmp_path, monkeypatch, capsys, module, name, value, message
    ):
        monkeypatch.setattr(module, name, value)
        cfg = write_json(tmp_path / "glm.json", {"version": 1, "glm": {"method": "laplace"}})
        out = tmp_path / "fit.json"
        code = main(
            ["glm-fit", "--config", cfg, "--checkpoint", blob_data["ckpt"], "--data", blob_data["data"], "--out", str(out)]
        )
        assert code == 4
        err = capsys.readouterr().err
        assert message in err and "matrix-free" not in err
        assert not out.exists() and not (tmp_path / "fit.laplace.npy").exists()

    def test_fit_then_predict_separates_blobs(self, blob_data, tmp_path):
        cfg, fit_path = self.fit(blob_data, tmp_path, "map")
        inputs = write_inputs_csv(tmp_path / "centers.csv", [[-2.0, -2.0], [2.0, 2.0]])
        out = tmp_path / "pred.csv"
        code = main(
            [
                "glm-predict", "--config", cfg, "--checkpoint", blob_data["ckpt"],
                "--fit", fit_path, "--inputs", inputs, "--out", str(out),
            ]
        )
        assert code == 0
        header, rows = data_lines(out)
        assert header == ["index", "label", "prob_0", "prob_1"]
        assert [r[1] for r in rows] == ["0", "1"]
        for row in rows:
            probs = [float(row[2]), float(row[3])]
            assert sum(probs) == pytest.approx(1.0, abs=1e-9)
            assert max(probs) > 0.8

    @pytest.mark.parametrize("widths, gram", [((8,), "kernel-side Gram 40 x 40"), ((4,), "parameter-side Gram 22 x 22")])
    def test_newton_report_changes_no_output(self, blob_data, tmp_path, monkeypatch, capsys, widths, gram):
        ckpt = str(tmp_path / "clf.json")
        save_checkpoint(init_network(MlpArchitecture(2, widths, 2), seed=1), ckpt, {})
        outputs, errs = [], []
        for level in ("WARNING", "DEBUG"):
            monkeypatch.setenv("TANGENTGP_LOG_LEVEL", level)
            work = tmp_path / level
            work.mkdir()
            capsys.readouterr()
            _, fit_path = self.fit(blob_data, work, "laplace", ckpt=ckpt)
            outputs.append([Path(fit_path).read_bytes(), (work / "fit.laplace.npy").read_bytes()])
            errs.append(capsys.readouterr().err)
        assert outputs[0] == outputs[1]
        assert errs[0] == ""
        [report] = [line for line in errs[1].splitlines() if line.startswith("DEBUG tangentgp.glm: Laplace fit")]
        assert report.endswith(gram) and "Newton's method took" in report

    def test_laplace_fit_roundtrips(self, blob_data, tmp_path):
        cfg, fit_path = self.fit(blob_data, tmp_path, "laplace")
        inputs = write_inputs_csv(tmp_path / "in.csv", [[-2.0, -2.0]])
        out = tmp_path / "pred.csv"
        code = main(
            [
                "glm-predict", "--config", cfg, "--checkpoint", blob_data["ckpt"],
                "--fit", fit_path, "--inputs", inputs, "--out", str(out),
            ]
        )
        assert code == 0
        _, rows = data_lines(out)
        assert rows[0][1] == "0"

    def test_map_divergence_prints_no_raw_numpy_warnings(self, blob_data, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "glm.json",
            {"version": 1, "glm": {"method": "map", "epochs": 2, "learning_rate": 1.7e308}},
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(
                [
                    "glm-fit", "--config", cfg, "--checkpoint", blob_data["ckpt"],
                    "--data", blob_data["data"], "--out", str(tmp_path / "fit.json"),
                ]
            )
        assert code == 4
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "method,key",
        [
            ("map", "include_network_output"),
            ("map", "coefficients"),
            ("svi", "raw_scales"),
            ("laplace", "mean"),
            ("laplace", "n_train"),
        ],
    )
    def test_fit_file_missing_key_is_input_error(self, blob_data, tmp_path, capsys, method, key):
        cfg, fit_path = self.fit(blob_data, tmp_path, method)
        doc = json.loads(open(fit_path).read())
        del doc[key]
        write_json(tmp_path / "fit.json", doc)
        inputs = write_inputs_csv(tmp_path / "in.csv", [[0.0, 0.0]])
        code = main(
            [
                "glm-predict", "--config", cfg, "--checkpoint", blob_data["ckpt"],
                "--fit", fit_path, "--inputs", inputs, "--out", str(tmp_path / "p.csv"),
            ]
        )
        assert code == 2
        assert f"{fit_path}: GLM fit file has no {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "method,key,value",
        [
            ("svi", "raw_scales", [0.0]),
            ("svi", "raw_scales", [0.0] * 3),
            ("laplace", "n_train", -5),
            ("laplace", "n_train", 0),
            ("laplace", "mean", [0.0] * 5),
            ("map", "coefficients", [0.0] * 5),
            ("svi", "mu", [0.0] * 5),
        ],
    )
    def test_malformed_posterior_field_is_input_error(self, blob_data, tmp_path, capsys, method, key, value):
        # Single-sample draws read every posterior field; the Laplace fit has no Gram file.
        cfg, fit_path = self.fit(blob_data, tmp_path, method, predict_mode="single_sample")
        (tmp_path / "fit.laplace.npy").unlink(missing_ok=True)
        doc = json.loads(open(fit_path).read())
        doc[key] = value
        write_json(tmp_path / "fit.json", doc)
        code, out = self.predict(blob_data, tmp_path, cfg, fit_path)
        assert code == 2
        err = capsys.readouterr().err
        reason = {
            "raw_scales": "raw_scales must be vectors of one length",
            "n_train": f"n_train >= 1, got {value}",
        }.get(key, "coefficients, got 5")
        assert f"{fit_path}: GLM fit file key {key!r} is malformed: " in err
        assert reason in err and "Traceback" not in err
        assert not out.exists()

    def test_empty_inputs_give_empty_predictions(self, blob_data, tmp_path):
        cfg, fit_path = self.fit(blob_data, tmp_path, "map")
        inputs = tmp_path / "empty.csv"
        inputs.write_text("x_0,x_1\n")
        outs = {}
        for fmt in ("csv", "json"):
            outs[fmt] = tmp_path / f"pred.{fmt}"
            code = main(
                [
                    "glm-predict", "--config", cfg, "--checkpoint", blob_data["ckpt"],
                    "--fit", fit_path, "--inputs", str(inputs), "--out", str(outs[fmt]),
                    "--format", fmt,
                ]
            )
            assert code == 0
        assert data_lines(outs["csv"]) == (["index", "label", "prob_0", "prob_1"], [])
        doc = json.loads(outs["json"].read_text())
        assert doc["labels"] == [] and doc["probs"] == []
        assert "columns" not in doc and "rows" not in doc

    @pytest.mark.parametrize("key", ["method", "fisher_source", "predict_mode"])
    def test_unknown_choice_exits_2_naming_the_key(self, blob_data, tmp_path, capsys, key):
        _, fit_path = self.fit(blob_data, tmp_path, "map")
        bad = write_json(tmp_path / "bad.json", {"version": 1, "glm": {key: "bogus"}})
        inputs = write_inputs_csv(tmp_path / "in.csv", [[0.0, 0.0]])
        common = ["--config", bad, "--checkpoint", blob_data["ckpt"]]
        for argv in (
            ["glm-fit", *common, "--data", blob_data["data"], "--out", str(tmp_path / "f.json")],
            ["glm-predict", *common, "--fit", fit_path, "--inputs", inputs, "--out", str(tmp_path / "p.csv")],
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert f"config key glm.{key} must be one of" in err and "'bogus'" in err
            assert "Traceback" not in err
        assert not (tmp_path / "f.json").exists() and not (tmp_path / "p.csv").exists()

    def test_stale_fit_is_consistency_error(self, blob_data, tmp_path):
        cfg, fit_path = self.fit(blob_data, tmp_path, "map")
        other = tmp_path / "other.json"
        save_checkpoint(init_network(MlpArchitecture(2, (8,), 2), seed=9), other, {})
        inputs = write_inputs_csv(tmp_path / "in.csv", [[0.0, 0.0]])
        code = main(
            [
                "glm-predict", "--config", cfg, "--checkpoint", str(other),
                "--fit", fit_path, "--inputs", inputs, "--out", str(tmp_path / "p.csv"),
            ]
        )
        assert code == 3

    def test_architecture_mismatch_is_consistency_error(self, blob_data, tmp_path, capsys):
        _, fit_path = self.fit(blob_data, tmp_path, "map")
        cfg = write_json(
            tmp_path / "wrong.json",
            {"version": 1, "architecture": {"input_dim": 2, "hidden_widths": [9, 9], "output_dim": 2}},
        )
        code, out = self.predict(blob_data, tmp_path, cfg, fit_path)
        assert code == 3
        assert "does not match the checkpoint" in capsys.readouterr().err
        assert not out.exists()


def insert_invalid_utf8(path):
    """Put byte 0xff at the start of the file's second line; return its byte offset."""
    blob = path.read_bytes()
    at = blob.index(b"\n") + 1
    path.write_bytes(blob[:at] + b"\xff" + blob[at:])
    return at


@pytest.mark.parametrize(
    "kind", ["config", "checkpoint", "glm fit", "task manifest", "dataset csv", "inputs csv", "classification csv"]
)
def test_invalid_utf8_input_exits_2_naming_the_file(blob_data, tmp_path, capsys, kind):
    # Every writer encodes UTF-8, and every reader decodes it whatever the locale.
    cfg = tmp_path / "glm.json"
    cfg.write_text(json.dumps({"version": 1, "glm": {"method": "map", "epochs": 1}}, indent=2))
    ckpt, data = tmp_path / "clf.json", tmp_path / "blobs.csv"
    ckpt.write_bytes(Path(blob_data["ckpt"]).read_bytes())
    data.write_bytes(Path(blob_data["data"]).read_bytes())
    fit = tmp_path / "fit.json"
    assert main(["glm-fit", "--config", str(cfg), "--checkpoint", str(ckpt), "--data", str(data), "--out", str(fit)]) == 0
    inputs = Path(write_inputs_csv(tmp_path / "in.csv", [[0.0, 0.0], [1.0, 1.0]]))
    context = tmp_path / "ctx.csv"
    write_dataset_csv(context, np.zeros((3, 2)), np.zeros((3, 2)))
    manifest = tmp_path / "tasks.json"
    manifest.write_text(json.dumps([{"context": context.name}], indent=2))
    out = tmp_path / "out.csv"
    predict = ["glm-predict", "--config", str(cfg), "--checkpoint", str(ckpt), "--fit", str(fit), "--inputs", str(inputs)]
    bad, argv = {
        "config": (cfg, predict),
        "checkpoint": (ckpt, predict),
        "glm fit": (fit, predict),
        "inputs csv": (inputs, predict),
        "classification csv": (data, ["glm-fit", "--config", str(cfg), "--checkpoint", str(ckpt), "--data", str(data)]),
        "task manifest": (manifest, ["adapt", "--config", str(cfg), "--checkpoint", str(ckpt), "--tasks", str(manifest)]),
        "dataset csv": (context, ["adapt", "--config", str(cfg), "--checkpoint", str(ckpt), "--tasks", str(manifest)]),
    }[kind]
    at = insert_invalid_utf8(bad)
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    where = f"{bad}:2:" if bad.suffix == ".csv" else f"{bad}: not valid UTF-8 at byte {at}"
    assert where in err and "not valid UTF-8" in err and "Traceback" not in err
    assert not out.exists()


class TestSinusoidExp:
    def test_small_run_summary_and_rows(self, tmp_path):
        cfg = write_json(
            tmp_path / "exp.json",
            {
                "version": 1,
                "seed": 0,
                "experiment": {
                    "num_tasks": 3,
                    "context_size": 8,
                    "points_per_task": 30,
                    "source_points": 60,
                    "source_epochs": 200,
                    "noise_grid_decades": 6,
                },
            },
        )
        out = tmp_path / "exp.json.out"
        code = main(["sinusoid-exp", "--config", cfg, "--format", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        summary = doc["summary"]
        assert 0.0 <= summary["win_rate_vs_no_retrain"] <= 1.0
        assert 0.0 <= summary["win_rate_vs_last_layer"] <= 1.0
        assert summary["source_training_mse"] > 0.0
        assert len(doc["rows"]) == 9
        assert doc["columns"] == ["task_id", "method", "context_size", "mse", "nll"]

    def test_failed_task_exits_4_naming_it(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise NumericBreakdownError("injected")

        monkeypatch.setattr(tangentgp.adapt, "_adapt_stack", fail)
        experiment = {"num_tasks": 3, "context_size": 8, "points_per_task": 30,
                      "source_points": 60, "source_epochs": 20, "noise_grid_decades": 6}
        cfg = write_json(tmp_path / "exp.json", {"version": 1, "experiment": experiment})
        out = tmp_path / "o.csv"
        assert main(["sinusoid-exp", "--config", cfg, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "tangentgp: task 0 did not adapt: injected\n" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_overflowing_noise_grid_exits_2_naming_the_key(self, tmp_path, capsys):
        experiment = {"num_tasks": 2, "context_size": 8, "points_per_task": 30,
                      "source_points": 60, "source_epochs": 5, "noise_grid_decades": 400}
        cfg = write_json(tmp_path / "exp.json", {"version": 1, "experiment": experiment})
        out = tmp_path / "o.csv"
        assert main(["sinusoid-exp", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "tangentgp: experiment.noise_grid_decades 400 overflows" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "seed, override, message",
        [(-1, [], "config key 'seed' must be non-negative, got -1"),
         (0, ["--seed", "-2"], "the seed override must be non-negative, got -2")],
    )
    def test_negative_seed_exits_2_naming_it(self, tmp_path, capsys, seed, override, message):
        cfg = write_json(tmp_path / "exp.json", {"version": 1, "seed": seed})
        out = tmp_path / "o.csv"
        assert main(["sinusoid-exp", "--config", cfg, "--out", str(out), *override]) == 2
        err = capsys.readouterr().err
        assert f"tangentgp: {message}\n" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_timing_key_is_unknown(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "exp.json", {"version": 1, "experiment": {"timing": True}})
        assert main(["sinusoid-exp", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        assert "unknown config key 'timing'" in capsys.readouterr().err

    def test_space_key_is_unknown(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "exp.json", {"version": 1, "experiment": {"space": "auto"}})
        assert main(["sinusoid-exp", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        assert "unknown config key 'space' in block 'experiment'" in capsys.readouterr().err
