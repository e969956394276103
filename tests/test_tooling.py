"""Repository tooling that imports the package from outside it.

The benchmark's tracer (``perfbench/spans.py``) patches tangentgp
functions and methods by name. A rename in the package would make every
traced benchmark run fail; these tests fail first instead. They read the
tracer's instrument table, and install the tracer only around small
fits, adaptations (one through the ``adapt`` command), training runs, MAP
fits (one through the ``glm-fit`` command), SVI fits and single Laplace draws
(two through the ``glm-predict`` command, reading the fit's record).
The package's ``__all__`` is checked the same way, so that a deletion
leaving a stale export fails here rather than in
``from tangentgp import *``. The signatures of ``tangentgp.gp``'s public functions are checked for a
``channels`` parameter: the network's architecture fixes the GP's
regression view, so no caller picks one, and no posterior stores one.
The sources of ``net``, ``adapt`` and ``glm`` are checked for the one
place that draws a batch order.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

import tangentgp
import tangentgp.glm as glm_module
import tangentgp.gp as gp_module
import tangentgp.net as net_module
from tangentgp import cli
from tangentgp.adapt import AdaptConfig, adapt_task, run_adaptation
from tangentgp.config import save_checkpoint
from tangentgp.glm import (
    ClassificationData,
    GlmFitConfig,
    fit_laplace,
    predict_class,
    zero_coefficients_glm,
)
from tangentgp.gp import fit_posterior
from tangentgp.net import MlpArchitecture, MlpNetwork, OptimizerConfig, TaskDataset, init_network
from tangentgp.serialize import write_classification_csv, write_dataset_csv

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def instruments():
    return spans().INSTRUMENTS


def entry_id(entry):
    return ".".join(entry[1:4] if entry[0] == "method" else entry[1:3])


@pytest.mark.parametrize("entry", instruments(), ids=entry_id)
def test_every_traced_name_resolves(entry):
    kind, module_name = entry[0], entry[1]
    module = importlib.import_module(module_name)
    if kind == "method":
        cls = getattr(module, entry[2])
        assert callable(cls.__dict__[entry[3]])
    else:
        assert kind == "function"
        assert callable(getattr(module, entry[2]))


def test_every_exported_name_resolves():
    assert [name for name in tangentgp.__all__ if not hasattr(tangentgp, name)] == []


def test_no_public_gp_function_takes_channels(tmp_path):
    public = [
        name
        for name, value in vars(gp_module).items()
        if inspect.isfunction(value) and value.__module__ == gp_module.__name__ and not name.startswith("_")
    ]
    assert "fit_posterior" in public and "kernel_matrix" in public
    assert [name for name in public if "channels" in inspect.signature(getattr(gp_module, name)).parameters] == []
    # Nor does a posterior store its own view, in memory or on disk.
    assert "channels" not in {f.name for f in dataclasses.fields(gp_module.NtkPosterior)}
    net = init_network(MlpArchitecture(1, (4,), 1, heteroscedastic=True), seed=0)
    x = np.linspace(-1.0, 1.0, 3)[:, None]
    path = tmp_path / "post.npz"
    gp_module.save_posterior(fit_posterior(net, TaskDataset(x, np.sin(x), 0.1)), path)
    with np.load(path, allow_pickle=False) as archive:
        assert "channels" not in json.loads(str(archive["meta"]))


def test_batch_order_is_drawn_in_one_place():
    # Every first-order fit takes its batches from net._minibatches.
    calls = {
        name: inspect.getsource(importlib.import_module(f"tangentgp.{name}")).count("permutation(")
        for name in ("net", "adapt", "glm")
    }
    assert calls == {"net": 1, "adapt": 0, "glm": 0}


def test_fit_posterior_fits_count_per_dual_system():
    # The tracer counts fits by patching fit_function_space and
    # fit_parameter_space; fit_posterior reaches both through the gp module.
    net = init_network(MlpArchitecture(1, (4,), 1), seed=0)  # p = 13
    tracer = spans().Tracer()
    tracer.install()
    try:
        for n in (5, 20):  # the kernel side, then the p side
            x = np.linspace(-1.0, 1.0, n)[:, None]
            fit_posterior(net, TaskDataset(x, np.sin(x), noise_variance=0.1))
    finally:
        tracer.uninstall()
    assert tracer.counts["gp.fit.function.calls"] == 1
    assert tracer.counts["gp.fit.parameter.calls"] == 1


@pytest.mark.parametrize("n_fisher, kernels", [(6, 1), (12, 0)])
def test_laplace_draw_attribution_on_each_side(n_fisher, kernels):
    # p = 32 with 4 classes: n*(c-1) = 18 takes the kernel side, 36 the p side.
    net = init_network(MlpArchitecture(2, (4,), 4), seed=2)
    model = zero_coefficients_glm(net)
    rng = np.random.default_rng(n_fisher)
    data = ClassificationData(rng.normal(size=(n_fisher, 2)), np.arange(n_fisher) % 4)
    # Without the fit's cached Gram factor, so that the draw builds a Gram.
    posterior = dataclasses.replace(fit_laplace(model, data), gram_factor=None)
    tracer = spans().Tracer()
    tracer.install()
    try:
        predict_class(model, posterior, rng.normal(size=(3, 2)), mode="single_sample")
    finally:
        tracer.uninstall()
    assert tracer.calls["gp.kernel_matrix"] == kernels
    assert tracer.mismatches == []


def test_adaptation_counts_its_eval_points_on_each_side():
    # The tracer counts predicted points from predict's third argument. A
    # kernel-side task is the one-task stacked pass: it traces its context
    # and its eval set once each, takes one vjp for its mean cache, and
    # runs no gp.fit or gp.predict span. The p side fits in parameter
    # space and predicts its 7 eval rows.
    net = init_network(MlpArchitecture(1, (4,), 1), seed=0)  # p = 13
    tracer = spans().Tracer()
    tracer.install()
    sides = []
    try:
        for n in (5, 20):  # the kernel side, then the p side
            x = np.linspace(-1.0, 1.0, n)[:, None]
            eval_x = np.linspace(-0.9, 0.9, 7)[:, None]
            adapt_task(
                net,
                TaskDataset(x, np.sin(x), noise_variance=0.1),
                TaskDataset(eval_x, np.sin(eval_x), noise_variance=0.1),
                AdaptConfig(noise_grid=(1e-2, 1e-1)),
            )
            sides.append(tracer.snapshot())
    finally:
        tracer.uninstall()
    kernel_side = sides[0]
    assert kernel_side["calls"] == {"net.forward": 2, "net.jacobian_op": 2, "net.vjp": 1, "adapt.loo": 1}
    assert set(kernel_side["counts"]) == {"net.vjp.flops"}
    assert tracer.counts["gp.predict.points"] == 7
    assert tracer.counts["gp.fit.parameter.calls"] == 1
    assert "gp.fit.function.calls" not in tracer.counts
    assert tracer.mismatches == []


def test_stacked_group_selects_its_noise_in_one_span():
    # Three same-size kernel-side tasks with a noise grid run as one
    # stacked group, which picks every task's variance in one call.
    net = init_network(MlpArchitecture(1, (8,), 1), seed=0)  # p = 25 >= 6 outputs
    rng = np.random.default_rng(2)
    pairs = []
    for _ in range(3):
        x, eval_x = rng.uniform(-2.0, 2.0, size=(6, 1)), rng.uniform(-2.0, 2.0, size=(5, 1))
        pairs.append((TaskDataset(x, np.sin(x), 0.1), TaskDataset(eval_x, np.sin(eval_x), 0.1)))
    tracer = spans().Tracer()
    tracer.install()
    try:
        run = run_adaptation(net, pairs, AdaptConfig(noise_grid=(1e-2, 1e-1, 1.0)))
    finally:
        tracer.uninstall()
    assert [task.status for task in run.tasks] == ["ok"] * 3
    assert tracer.calls["adapt.loo"] == 1
    assert tracer.mismatches == []


def test_adapt_with_baselines_traces_each_input_set_once(tmp_path):
    # Three 6-point contexts, eval sets of 5, 5 and 7 points. The GP runs
    # one stacked pass per (context size, eval size) group, each tracing
    # its contexts and its eval sets once: 2 groups, 4 traces. The
    # baselines trace the source once per eval size (2) and once per
    # refit context (3): 9 net.forward spans in all.
    arch = MlpArchitecture(1, (8,), 1)  # p = 25 >= 6 outputs: the kernel side
    ckpt = tmp_path / "ckpt.json"
    save_checkpoint(init_network(arch, seed=0), ckpt, {})
    rng = np.random.default_rng(4)
    entries = []
    for task, m in enumerate((5, 5, 7)):
        for name, n in (("ctx", 6), ("ev", m)):
            x = rng.uniform(-2.0, 2.0, size=(n, 1))
            write_dataset_csv(tmp_path / f"{name}{task}.csv", x, np.sin(x))
        entries.append({"context": f"ctx{task}.csv", "eval": f"ev{task}.csv"})
    (tmp_path / "tasks.json").write_text(json.dumps(entries))
    config = {
        "version": 1,
        "gp": {"baselines": True, "noise_variance": 0.01},
        "optimizer": {"learning_rate": 1e-3, "epochs": 2, "batch_size": 4},
    }
    (tmp_path / "adapt.json").write_text(json.dumps(config))
    argv = [
        "adapt", "--config", str(tmp_path / "adapt.json"), "--checkpoint", str(ckpt),
        "--tasks", str(tmp_path / "tasks.json"), "--out", str(tmp_path / "o.csv"),
    ]
    tracer = spans().Tracer()
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert tracer.calls["net.forward"] == 9
    assert tracer.calls["adapt.refit_last_layer"] == 1
    assert tracer.mismatches == []


def test_map_fit_builds_the_operators_the_tracer_expects():
    # One operator per minibatch step plus one per epoch-end objective.
    # The products run on the fit's bound buffers, not through the
    # operator's checked public jvp and vjp.
    net = init_network(MlpArchitecture(2, (4,), 3), seed=1)
    rng = np.random.default_rng(1)
    data = ClassificationData(rng.normal(size=(10, 2)), np.arange(10) % 3)
    tracer = spans().Tracer()
    tracer.install()
    try:
        # Through the module: the tracer replaces the name where it is bound.
        glm_module.fit_map(zero_coefficients_glm(net), data, GlmFitConfig(epochs=2, batch_size=4))
    finally:
        tracer.uninstall()
    assert tracer.counts["glm.fit_map.steps"] == 6
    assert tracer.mismatches == []
    assert tracer.calls["net.jvp"] == 0 and tracer.calls["net.vjp"] == 0


def test_svi_fit_builds_one_operator_per_step_and_no_public_products():
    # The SVI step takes the MAP fit's passes on bound views: one operator
    # per minibatch step, and no checked public jvp or vjp.
    net = init_network(MlpArchitecture(2, (4,), 3), seed=1)
    rng = np.random.default_rng(1)
    data = ClassificationData(rng.normal(size=(10, 2)), np.arange(10) % 3)
    tracer = spans().Tracer()
    tracer.install()
    try:
        glm_module.fit_svi(zero_coefficients_glm(net), data, GlmFitConfig(epochs=2, batch_size=4))
    finally:
        tracer.uninstall()
    assert tracer.calls["net.jacobian_op"] == 6
    assert tracer.calls["net.jvp"] == 0 and tracer.calls["net.vjp"] == 0
    assert tracer.mismatches == []


def test_laplace_glm_fit_runs_newton_and_writes_its_last_gram(tmp_path, monkeypatch):
    # A Laplace glm-fit runs Newton's method, not the MAP fit's Adam loop:
    # one kernel_matrix call per fit, then one Gram per iteration, each
    # mapped from that kernel and solved by LU, and the record holds the
    # Cholesky factor of the last one, taken once, rather than of a Gram
    # built once more.
    ckpt = tmp_path / "clf.json"
    save_checkpoint(init_network(MlpArchitecture(2, (4,), 3), seed=1), ckpt, {})
    data = tmp_path / "labeled.csv"
    write_classification_csv(data, np.random.default_rng(1).normal(size=(10, 2)), np.arange(10) % 3)
    config = {"version": 1, "glm": {"method": "laplace", "epochs": 2, "batch_size": 4}}
    (tmp_path / "glm.json").write_text(json.dumps(config))
    argv = [
        "glm-fit", "--config", str(tmp_path / "glm.json"), "--checkpoint", str(ckpt),
        "--data", str(data), "--out", str(tmp_path / "fit.json"),
    ]
    solves, factored = [], []
    gram_solve, gram_cholesky = glm_module.gram_solve, glm_module.gram_cholesky
    monkeypatch.setattr(glm_module, "gram_solve", lambda gram, rhs: solves.append(gram) or gram_solve(gram, rhs))
    monkeypatch.setattr(glm_module, "gram_cholesky", lambda gram: factored.append(gram) or gram_cholesky(gram))
    tracer = spans().Tracer()
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert tracer.calls["glm.fit_map"] == 0 and tracer.counts["glm.fit_map.steps"] == 0
    # One Newton step per iteration, the last of them not taken.
    assert len(solves) >= 2
    assert tracer.calls["gp.kernel_matrix"] == 1  # n*(c-1) = 20 <= p = 27
    assert tracer.counts["gp.kernel_matrix.columns"] == 30  # the n*c square kernel, built once
    assert tracer.mismatches == []
    assert len(factored) == 1 and factored[0] is solves[-1]
    # The record's data opens with the factor's row panels, each up to the end of its diagonal block.
    square, block = np.linalg.cholesky(solves[-1]), gp_module.CHOLESKY_BLOCK
    panels = np.concatenate([square[i : i + block, : i + block].ravel() for i in range(0, len(square), block)])
    assert np.array_equal(np.load(tmp_path / "fit.laplace.npy")["data"][: panels.size], panels)


def test_pinned_draw_factors_no_gram_on_a_hit_and_one_on_a_miss(tmp_path, monkeypatch):
    # A hit draws with the record's factor and Fisher map, and rebuilds no
    # Fisher root; a miss rebuilds the root at the mean, builds the tangent
    # kernel, maps it to the Gram and factors that, each once, and neither
    # takes an LU solve.
    ckpt = tmp_path / "clf.json"
    save_checkpoint(init_network(MlpArchitecture(2, (4,), 3), seed=1), ckpt, {})
    data = tmp_path / "labeled.csv"
    write_classification_csv(data, np.random.default_rng(1).normal(size=(10, 2)), np.arange(10) % 3)
    inputs = tmp_path / "query.csv"
    inputs.write_text("x_0,x_1\n0.5,-1\n2,0.25\n")
    config = {"version": 1, "glm": {"method": "laplace", "predict_mode": "single_sample"}}
    (tmp_path / "glm.json").write_text(json.dumps(config))
    common = ["--config", str(tmp_path / "glm.json"), "--checkpoint", str(ckpt)]
    assert cli.main(["glm-fit", *common, "--data", str(data), "--out", str(tmp_path / "fit.json")]) == 0
    calls = []
    for name in ("gram_solve", "gram_cholesky", "_fisher_root", "_fisher_at_map", "_tangent_kernel", "_shifted_gram"):
        original = getattr(glm_module, name)
        monkeypatch.setattr(glm_module, name, lambda *args, name=name, original=original: calls.append(name) or original(*args))
    predict = ["glm-predict", *common, "--fit", str(tmp_path / "fit.json"), "--inputs", str(inputs)]
    assert cli.main([*predict, "--out", str(tmp_path / "hit.csv")]) == 0
    assert calls == []
    (tmp_path / "fit.laplace.npy").unlink()
    assert cli.main([*predict, "--out", str(tmp_path / "miss.csv")]) == 0
    assert sorted(calls) == ["_fisher_at_map", "_fisher_root", "_shifted_gram", "_tangent_kernel", "gram_cholesky"]
    assert (tmp_path / "miss.csv").read_bytes() == (tmp_path / "hit.csv").read_bytes()


def test_pinned_laplace_draws_read_the_record_under_the_tracer(tmp_path):
    # Both draws of a hit round predict from the record that glm-fit wrote,
    # so the round loads the checkpoint once, in glm-fit. A miss round,
    # whose record is deleted before the draws, loads it once per draw and
    # draws the same bytes. Tracing changes no byte.
    ckpt = tmp_path / "clf.json"
    save_checkpoint(init_network(MlpArchitecture(2, (4,), 3), seed=1), ckpt, {})
    rng = np.random.default_rng(1)
    data = tmp_path / "labeled.csv"
    write_classification_csv(data, rng.normal(size=(10, 2)), np.arange(10) % 3)
    inputs = tmp_path / "query.csv"
    inputs.write_text("x_0,x_1\n0.5,-1\n2,0.25\n")
    config = {"version": 1, "glm": {"method": "laplace", "predict_mode": "single_sample"}}
    (tmp_path / "glm.json").write_text(json.dumps(config))
    common = ["--config", str(tmp_path / "glm.json"), "--checkpoint", str(ckpt)]

    def round_bytes(out, hit=True):
        out.mkdir()
        fit = out / "fit.json"
        assert cli.main(["glm-fit", *common, "--data", str(data), "--out", str(fit)]) == 0
        if not hit:
            (out / "fit.laplace.npy").unlink()
        for seed in ("0", "1"):
            argv = ["glm-predict", *common, "--fit", str(fit), "--inputs", str(inputs), "--seed", seed]
            assert cli.main([*argv, "--out", str(out / f"probs_{seed}.csv")]) == 0
        return {path.name: path.read_bytes() for path in out.iterdir()}

    untraced = round_bytes(tmp_path / "untraced")
    for hit, loads in ((True, 1), (False, 3)):
        tracer = spans().Tracer()
        tracer.install()
        try:
            traced = round_bytes(tmp_path / f"traced-{hit}", hit)
        finally:
            tracer.uninstall()
        assert tracer.calls["config.load_checkpoint"] == loads
        assert tracer.mismatches == []
        if hit:
            assert sorted(traced) == ["fit.json", "fit.laplace.npy", "probs_0.csv", "probs_1.csv"]
            assert traced == untraced
        else:
            assert sorted(traced) == ["fit.json", "probs_0.csv", "probs_1.csv"]
            assert all(traced[name] == untraced[name] for name in traced)


def test_train_builds_the_operators_the_tracer_expects(monkeypatch):
    # One operator per minibatch step, and a fixed number of validated
    # networks per run (the result), however many steps it takes.
    built = []
    post_init = MlpNetwork.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    net = init_network(MlpArchitecture(2, (4,), 1), seed=1)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(10, 2))
    data = TaskDataset(x, np.sin(x[:, :1]), noise_variance=0.1)
    monkeypatch.setattr(MlpNetwork, "__post_init__", counting_post_init)
    networks = []
    for epochs in (1, 3):
        tracer = spans().Tracer()
        tracer.install()
        try:
            # Through the module: the tracer replaces the name where it is bound.
            net_module.train(net, data, OptimizerConfig(epochs=epochs, batch_size=4))
        finally:
            tracer.uninstall()
        assert tracer.counts["net.train.steps"] == 3 * epochs
        assert tracer.calls["net.jacobian_op"] == 3 * epochs
        assert tracer.mismatches == []
        networks.append(len(built))
        built.clear()
    assert networks == [1, 1]
