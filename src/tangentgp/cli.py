"""Command-line front end: train, adapt, predict, benchmark, study.

Every command reads local files, writes one output file atomically, and
embeds provenance (tool version, resolved-config hash) in what it
writes. Two write a companion file next to ``--out`` as well: ``train``
its loss trace (``<stem>.trace.csv``), and ``glm-fit`` with
``method: laplace`` on a training-input Fisher a record of the whole fit
(``<stem>.laplace.npy``; a failed fit writes neither file).
``glm-predict`` predicts from that record when it was written for the
bytes of both its files, and otherwise parses them; either way it writes
the same bytes. Exit codes: 0 success, 2 input or parse error, 3
consistency error (stale or mismatched artifacts), 4 numeric failure.
The only environment influence is TANGENTGP_LOG_LEVEL.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .adapt import (
    RESULT_COLUMNS,
    AdaptConfig,
    SinusoidTaskSpec,
    _result_row,
    decade_grid,
    run_adaptation,
    sample_sinusoid_tasks,
    score_baselines,
    sinusoid_experiment,
    stratified_split,
)
from .analysis import SimilarityReport, similarity_matrix, task_similarity_study
from .config import (
    CONFIG_VERSION,
    _resolve_block,
    architecture_from,
    block_or_defaults,
    config_hash,
    experiment_config_from,
    float_array,
    from_block,
    glm_fit_config_from,
    load_checkpoint,
    load_config,
    optimizer_from,
    read_task_manifest,
    resolve_config,
    save_checkpoint,
    study_config_from,
)
from .errors import (
    ConfigError,
    ConsistencyError,
    ContractViolationError,
    FitError,
    NumericBreakdownError,
    ResourceLimitError,
    TrainingDivergenceError,
)
from .fisher import CategoricalLikelihood, GaussianLikelihood, fvp_error_sweep, sweep_csv
from .glm import (
    ClassificationData,
    LaplacePosterior,
    MapPosterior,
    MeanFieldPosterior,
    fit_laplace,
    fit_map,
    fit_svi,
    predict_class,
    prediction_csv,
    zero_coefficients_glm,
)
from .gp import check_cholesky_panels, load_posterior, panel_shapes, predict, save_posterior
from .net import MlpArchitecture, MlpNetwork, TaskDataset, init_network, train
from .serialize import (
    atomic_file,
    atomic_write_bytes,
    atomic_write_text,
    canonical_json,
    file_field,
    float_lines,
    fmt_float,
    read_classification_csv,
    read_dataset_csv,
    read_inputs_csv,
    read_json,
    render_csv,
)

log = logging.getLogger("tangentgp")

GLM_FIT_VERSION = 1


# ---------------------------------------------------------------------------
# Provenance plumbing


def _load_or_default(args) -> dict:
    if args.config is not None:
        return load_config(args.config, args.seed)
    return resolve_config({"version": CONFIG_VERSION}, args.seed)


def _provenance(resolved: dict) -> dict:
    return {"tool_version": __version__, "config_hash": config_hash(resolved)}


def _csv_provenance(resolved: dict) -> str:
    compact = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return (
        f"# tool_version: {__version__}\n"
        f"# config_hash: {config_hash(resolved)}\n"
        f"# config: {compact}\n"
    )


def _emit(args, resolved: dict, json_fields, csv_body) -> None:
    """Write a command's output file in ``args.format`` and log its path.

    JSON is the provenance, the resolved config and the dict
    ``json_fields()``; CSV is the provenance comments and ``csv_body()``.
    Only the chosen format's callable runs.
    """
    if args.format == "json":
        text = canonical_json({**_provenance(resolved), "config": resolved, **json_fields()})
    else:
        text = _csv_provenance(resolved) + csv_body()
    atomic_write_text(args.out, text)
    log.info("wrote %s", args.out)


def _emit_rows(args, resolved: dict, columns, rows) -> None:
    """``_emit`` a table: rows are lists of cell strings, or a 2-D float array."""

    def json_fields():
        cells = rows
        if isinstance(rows, np.ndarray):
            cells = [line.split(",") for line in float_lines(rows)]
        return {"columns": list(columns), "rows": cells}

    _emit(args, resolved, json_fields, lambda: render_csv(list(columns), rows))


# ---------------------------------------------------------------------------
# Input assembly


def _sinusoid_spec(resolved: dict) -> SinusoidTaskSpec:
    """The sinusoid task generator that the ``task`` block and the seed describe."""
    return from_block(SinusoidTaskSpec, block_or_defaults(resolved, "task"), resolved["seed"])


def _training_data(resolved: dict) -> TaskDataset:
    task = block_or_defaults(resolved, "task")
    if task["kind"] == "csv":
        if task["train_csv"] is None:
            raise ConfigError("task.kind 'csv' needs task.train_csv")
        x, y = read_dataset_csv(task["train_csv"])
        noise = 1.0 if task["noise_variance"] is None else task["noise_variance"]
        return TaskDataset(x, y, noise_variance=noise)
    if task["kind"] == "sinusoid":
        return sample_sinusoid_tasks(_sinusoid_spec(resolved), 1)[0]
    raise ConfigError(f"unknown task.kind {task['kind']!r}, expected 'sinusoid' or 'csv'")


def _adapt_config(resolved: dict) -> AdaptConfig:
    gp = block_or_defaults(resolved, "gp")
    noise_variance = gp["noise_variance"]
    decades = gp["noise_grid_decades"]
    noise_grid = None
    if decades is not None:
        if noise_variance is None:
            raise ConfigError("gp.noise_grid_decades needs gp.noise_variance as the anchor")
        noise_grid = decade_grid(noise_variance, decades, "gp.noise_grid_decades", "gp.noise_variance")
        noise_variance = None
    return AdaptConfig(
        mean_kind=gp["mean_kind"],
        center_on_network=gp["center_on_network"],
        noise_variance=noise_variance,
        noise_grid=noise_grid,
    )


def _check_architecture(resolved: dict, network) -> None:
    if resolved.get("architecture") is None:
        return
    declared = architecture_from(resolved)
    if declared != network.architecture:
        raise ConsistencyError(
            "config architecture does not match the checkpoint: "
            f"{declared.to_dict()} vs {network.architecture.to_dict()}"
        )


# ---------------------------------------------------------------------------
# Commands


def cmd_train(args) -> int:
    resolved = load_config(args.config, args.seed)
    arch = architecture_from(resolved)
    opt = optimizer_from(resolved)
    data = _training_data(resolved)
    network = init_network(arch, seed=resolved["seed"])
    result = train(network, data, opt)
    save_checkpoint(result.network, args.out, _provenance(resolved))
    trace_rows = [[str(i), fmt_float(v)] for i, v in enumerate(result.loss_trace)]
    trace = _csv_provenance(resolved) + render_csv(["epoch", "loss"], trace_rows)
    trace_path = _sibling_path(args.out, ".trace.csv")
    atomic_write_text(trace_path, trace)
    log.info("wrote %s and %s", args.out, trace_path)
    return 0


def _sibling_path(out, suffix: str) -> Path:
    """``out`` with its ``.json`` ending (if any) replaced by ``suffix``."""
    p = Path(out)
    stem = p.name[: -len(".json")] if p.name.endswith(".json") else p.name
    return p.with_name(stem + suffix)


def cmd_adapt(args) -> int:
    resolved = load_config(args.config, args.seed)
    network = load_checkpoint(args.checkpoint)
    _check_architecture(resolved, network)
    if args.tasks is not None:
        pairs = read_task_manifest(args.tasks)
    else:
        task = block_or_defaults(resolved, "task")
        raw = sample_sinusoid_tasks(_sinusoid_spec(resolved), task["num_tasks"])
        pairs = [stratified_split(t, task["context_size"]) for t in raw]
    cfg = _adapt_config(resolved)
    run = run_adaptation(network, pairs, cfg)
    gp = block_or_defaults(resolved, "gp")
    baselines = {}
    # Tasks with a GP row get baseline rows, all scored in one call.
    scored = [r.task_id for r in run.tasks if r.metrics is not None]
    if gp["baselines"] and scored:
        try:
            scores = score_baselines(
                network, [pairs[i] for i in scored], optimizer_from(resolved), gp["noise_variance"]
            )
        except TrainingDivergenceError as exc:
            raise TrainingDivergenceError(
                f"last-layer baseline of task {scored[exc.task]}: "
                f"non-finite loss or parameters at epoch {exc.epoch}",
                epoch=exc.epoch,
                task=scored[exc.task],
            ) from exc
        baselines = dict(zip(scored, scores))
    rows = []
    for record, (context, _) in zip(run.tasks, pairs):
        if record.status == "failed":
            log.warning("task %d failed: %s", record.task_id, record.error)
            continue
        if record.metrics is None:
            continue
        size = context.x.shape[0]
        rows.append(_result_row(record.task_id, "finite-ntk", size, record.metrics))
        if record.task_id in baselines:
            plain, head = baselines[record.task_id]
            rows.append(_result_row(record.task_id, "no-retrain", size, plain))
            rows.append(_result_row(record.task_id, "last-layer", size, head))
    if args.posterior_out is not None:
        fitted = [t for t in run.tasks if t.posterior is not None]
        if len(fitted) != 1:
            raise ConfigError(
                f"--posterior-out needs exactly one fitted task, got {len(fitted)}"
            )
        save_posterior(fitted[0].posterior, args.posterior_out)
    _emit_rows(args, resolved, RESULT_COLUMNS, rows)
    return 0


def cmd_predict(args) -> int:
    resolved = _load_or_default(args)
    network = load_checkpoint(args.checkpoint)
    _check_architecture(resolved, network)
    posterior = load_posterior(args.posterior)
    x = read_inputs_csv(args.inputs)
    mean, var = predict(posterior, network, x)
    columns = (
        [f"x_{j}" for j in range(x.shape[1])]
        + [f"mean_{c}" for c in range(mean.shape[1])]
        + [f"var_{c}" for c in range(mean.shape[1])]
    )
    _emit_rows(args, resolved, columns, np.hstack([x, mean, var]))
    return 0


def cmd_fvp_bench(args) -> int:
    resolved = load_config(args.config, args.seed)
    network = load_checkpoint(args.checkpoint)
    _check_architecture(resolved, network)
    fvp = block_or_defaults(resolved, "fvp")
    if fvp["likelihood"] == "gaussian":
        like = GaussianLikelihood(noise_variance=float(fvp["noise_variance"]))
    elif fvp["likelihood"] == "categorical":
        like = CategoricalLikelihood(num_classes=network.architecture.output_dim)
    else:
        raise ConfigError(
            f"unknown fvp.likelihood {fvp['likelihood']!r}, expected 'gaussian' or 'categorical'"
        )
    x = _training_data(resolved).x
    sweep = fvp_error_sweep(
        network, x, like, fvp["epsilons"], num_probes=fvp["probes"], seed=resolved["seed"]
    )
    _emit(
        args,
        resolved,
        lambda: {
            "epsilons": [fmt_float(e) for e in sweep.epsilons],
            "mean_rel_err": [fmt_float(e) for e in sweep.mean_rel_err],
            "max_rel_err": [fmt_float(e) for e in sweep.max_rel_err],
            "probes": sweep.num_probes,
            "seed": sweep.seed,
        },
        lambda: sweep_csv(sweep),
    )
    return 0


def cmd_similarity(args) -> int:
    resolved = load_config(args.config, args.seed)
    if args.checkpoints:
        if args.inputs is None:
            raise ConfigError("pairwise similarity needs --inputs with shared evaluation points")
        networks = [load_checkpoint(p) for p in args.checkpoints]
        x = read_inputs_csv(args.inputs)
        if x.shape[0] == 0:
            raise ConfigError(f"{args.inputs}: need at least one evaluation point")
        report = SimilarityReport(
            matrix=similarity_matrix(networks, x),
            model_ids=tuple(Path(p).stem for p in args.checkpoints),
            distribution_ids=tuple(range(len(networks))),
            n_eval=x.shape[0],
            seed=resolved["seed"],
        )
    else:
        report = task_similarity_study(study_config_from(resolved))
    _emit(args, resolved, lambda: json.loads(report.to_json()), report.to_csv)
    return 0


def cmd_glm_fit(args) -> int:
    resolved = load_config(args.config, args.seed)
    network, checkpoint_digest = load_checkpoint(args.checkpoint, with_digest=True)
    _check_architecture(resolved, network)
    glm = block_or_defaults(resolved, "glm")
    x, labels = read_classification_csv(args.data)
    data = ClassificationData(x, labels)
    model = zero_coefficients_glm(
        network,
        include_network_output=glm["include_network_output"],
        prior_variance=float(glm["prior_variance"]),
    )
    doc = {
        "kind": "glm-fit",
        "version": GLM_FIT_VERSION,
        **_provenance(resolved),
        "method": glm["method"],
        "prior_variance": float(glm["prior_variance"]),
        "include_network_output": glm["include_network_output"],
        "network_fingerprint": network.fingerprint(),
    }
    approx = None
    if glm["method"] == "map":
        fitted = fit_map(model, data, glm_fit_config_from(resolved))
        doc["coefficients"] = [float(v) for v in fitted.model.coefficients]
    elif glm["method"] == "svi":
        fitted = fit_svi(model, data, glm_fit_config_from(resolved))
        doc["mu"] = [float(v) for v in fitted.posterior.mu]
        doc["raw_scales"] = [float(v) for v in fitted.posterior.raw_scales]
    else:  # laplace; config resolution rejects any other method
        approx = fit_laplace(model, data, fisher_source=glm["fisher_source"])
        doc["mean"] = [float(v) for v in approx.mean]
        doc["n_train"] = approx.n_train
        doc["fisher_on_train"] = approx.fisher_x is not None
        if approx.fisher_x is not None:
            doc["fisher_x"] = [[float(v) for v in row] for row in approx.fisher_x]
    blob = canonical_json(doc).encode("utf-8")
    record = None
    if approx is not None and approx.gram_factor is not None:
        record = _record(model, approx, checkpoint_digest, hashlib.sha256(blob).hexdigest())
    atomic_write_bytes(args.out, blob)
    log.info("wrote %s", args.out)
    record_path = _gram_path(args.out)
    if record is None:
        # Only this fit's record may sit next to its file.
        record_path.unlink(missing_ok=True)
    else:
        with atomic_file(record_path) as fh:
            np.save(fh, record)
        log.info("wrote %s", record_path)
    return 0


# A Laplace fit whose Fisher is pinned to the training inputs
# (``fisher_source: train``) fixes everything a prediction from it reads.
# ``glm-fit`` writes all of it next to the fit file as one .npy record,
# with the sha256 of the checkpoint bytes it parsed and of the fit bytes it
# wrote. ``glm-predict`` predicts from the record alone when both digests
# name the bytes of its ``--checkpoint`` and ``--fit`` and the record
# passes the checks the JSON loaders make: a hit. Anything else is a miss,
# which parses both files as if there were no record, and so is a record
# in any earlier layout. The record is one 0-d structured array of two
# fields: ``data``, one float64 vector of the arrays a draw reads, back to
# back, and ``meta``, a JSON object of the scalars, the digests, the
# architecture and each array's shape. Its .npy header is a two-field
# dtype, which ``np.load`` evaluates in a fraction of the time an
# eleven-field one took. The precision's Gram is stored as the lower
# Cholesky factor's panels (``gp.gram_cholesky``), which hold no entry
# right of a diagonal block, and the Fisher root as its output map
# (``glm.LaplacePosterior``), so a draw takes two triangular solves and
# rebuilds no root. A hit checks the panels' diagonal blocks to be lower
# triangular with a positive diagonal (``gp.check_cholesky_panels``).
# Every key of ``meta`` and every array of ``data`` is read through
# ``serialize.file_field``, as the fit file's keys are.

# The arrays of a record's ``data``, in order, with the number of
# dimensions of each; the float vector comes first in the record, so that
# it sits 8-byte aligned.
_DATA_FIELDS = {"factor": 2, "mean": 1, "params": 1, "fisher_x": 2, "fisher_map": 3}
_META_KEYS = {
    "architecture", "checkpoint_sha256", "fit_sha256", "include_network_output",
    "n_train", "network_fingerprint", "prior_variance", "shapes",
}


def _gram_path(out) -> Path:
    return _sibling_path(out, ".laplace.npy")


def _record(model, approx, checkpoint_digest: str, fit_digest: str) -> np.ndarray:
    """The record of a pinned Laplace fit, with the checkpoint's and the fit file's digests."""
    network = model.network
    size = approx.gram_factor[-1].shape[1]
    arrays = [approx.mean, network.params, approx.fisher_x, approx.fisher_map]
    meta = {
        "architecture": network.architecture.to_dict(),
        "checkpoint_sha256": checkpoint_digest,
        "fit_sha256": fit_digest,
        "include_network_output": model.include_network_output,
        "n_train": approx.n_train,
        "network_fingerprint": network.fingerprint(),
        "prior_variance": approx.prior_variance,
        "shapes": dict(zip(_DATA_FIELDS, [[size, size]] + [list(a.shape) for a in arrays])),
    }
    data = np.concatenate([panel.ravel() for panel in approx.gram_factor] + [a.ravel() for a in arrays])
    blob = json.dumps(meta, sort_keys=True).encode()
    record = np.empty((), dtype=[("data", "<f8", data.shape), ("meta", f"S{len(blob)}")])
    record["data"], record["meta"] = data, blob
    return record


def _in_record_layout(record) -> bool:
    return (
        isinstance(record, np.ndarray)
        and record.shape == ()
        and record.dtype.names == ("data", "meta")
        and record.dtype["data"].base == np.dtype("<f8")
        and record.dtype["data"].ndim == 1
        and record.dtype["meta"].kind == "S"
    )


def _object(value) -> dict:
    """``value`` if it is a JSON object, else ``ValueError``."""
    if not isinstance(value, dict):
        raise ValueError(f"expected an object, got {type(value).__name__}")
    return value


def _record_shapes(shapes) -> dict:
    """A record's ``shapes``, if it gives each ``_DATA_FIELDS`` field one shape of its number of dimensions."""
    if _object(shapes).keys() != _DATA_FIELDS.keys() or not all(
        type(shapes[name]) is list and len(shapes[name]) == ndim and all(type(d) is int and d >= 0 for d in shapes[name])
        for name, ndim in _DATA_FIELDS.items()
    ):
        raise ValueError("expected one shape of its dimensions per data field")
    return shapes


def _record_fields(shapes: dict, data: np.ndarray) -> dict:
    """The arrays of a record's ``data`` by name, as views of it: the factor as its panels.

    ``data`` must hold exactly the floats that ``shapes`` take, else ``ValueError``.
    """
    panels, arrays = panel_shapes(shapes["factor"][0]), list(_DATA_FIELDS)[1:]
    sizes = [rows * cols for rows, cols in panels] + [math.prod(shapes[name]) for name in arrays]
    if sum(sizes) != len(data):
        raise ValueError(f"data holds {len(data)} floats, its meta's shapes {sum(sizes)}")
    pieces = [data[end - size : end] for size, end in zip(sizes, itertools.accumulate(sizes))]
    fields = {name: piece.reshape(shapes[name]) for name, piece in zip(arrays, pieces[len(panels) :])}
    fields["factor"] = tuple(piece.reshape(shape) for piece, shape in zip(pieces, panels))
    return fields


def _file_sha256(path) -> str | None:
    """The hex sha256 of a file's bytes, or None when it cannot be read."""
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError:
        return None


def _fisher_inputs(value, input_dim: int) -> np.ndarray:
    """``value`` as pinned Fisher inputs: a finite table of at least one row of ``input_dim``."""
    table = float_array(value)
    if table.ndim != 2 or len(table) < 1 or table.shape[1] != input_dim:
        raise ValueError(f"Fisher inputs of shape {table.shape}, expected at least one row of {input_dim}")
    if not np.isfinite(table).all():
        raise ValueError("non-finite fisher_x entries")
    return table


def _record_hit(checkpoint, fit_path):
    """The model and posterior in the record of ``fit_path`` on a hit, else None.

    A record that is there but missed is logged with the reason: at INFO
    when it was written for other checkpoint or fit bytes, else at WARNING.
    """
    path = _gram_path(fit_path)
    try:
        with open(path, "rb") as fh:
            # np.load reads any other bytes as a pickle, and its refusal advises an unsafe load.
            if fh.read(len(np.lib.format.MAGIC_PREFIX)) != np.lib.format.MAGIC_PREFIX:
                raise ValueError("not a .npy record")
            fh.seek(0)
            record = np.load(fh, allow_pickle=False)
        if not _in_record_layout(record):
            raise ValueError("not a Laplace record in this layout")
        meta = json.loads(record["meta"].item())
        if not isinstance(meta, dict) or meta.keys() != _META_KEYS:
            raise ValueError(f"meta is not an object of the keys {sorted(_META_KEYS)}")
        field = functools.partial(file_field, path, "Laplace record", meta)
        prior_variance = field("prior_variance", "number", float)
        include_network_output = field("include_network_output", "bool")
        n_train = field("n_train", "int")
        fingerprint = field("network_fingerprint", "string")
        architecture = field("architecture", convert=_object)
        shapes = field("shapes", convert=_record_shapes)
        digests = (field("checkpoint_sha256", "string"), field("fit_sha256", "string"))
        if digests != (_file_sha256(checkpoint), _file_sha256(fit_path)):
            log.info("%s: not used, it was written for other checkpoint or fit bytes", path)
            return None
        array = functools.partial(file_field, path, "Laplace record", _record_fields(shapes, record["data"]))
        arch = MlpArchitecture.from_dict(_resolve_block("architecture", architecture))
        network = array("params", convert=lambda params: MlpNetwork(arch, params))
        if network.fingerprint() != fingerprint:
            raise ValueError("the parameters do not match their fingerprint")
        model = zero_coefficients_glm(
            network, include_network_output=include_network_output, prior_variance=prior_variance
        )
        p, c = arch.parameter_count, model.num_classes
        fisher_x = array("fisher_x", "number array", lambda table: _fisher_inputs(table, arch.input_dim))
        size = min(len(fisher_x) * (c - 1), p)
        for name, shape in (("factor", (size, size)), ("fisher_map", (len(fisher_x), c - 1, c)), ("mean", (p,))):
            if tuple(shapes[name]) != shape:
                raise ValueError(f"{name} of shape {tuple(shapes[name])}, expected {shape}")
        factor = array("factor", convert=lambda panels: check_cholesky_panels(panels) or panels)
        fisher_map = array("fisher_map", "number array")
        approx = LaplacePosterior(array("mean", "number array"), n_train, prior_variance, fisher_x, factor, fisher_map)
    except FileNotFoundError:
        return None
    except (OSError, EOFError, ValueError, ConfigError, ContractViolationError) as exc:
        reason = str(exc).removeprefix(f"{path}: ")  # file_field's refusals name the file
        log.warning("%s: not used (%s); rerun glm-fit to predict from the record", path, reason)
        return None
    return model, approx


def _load_glm_fit(path, network):
    """The fit file's model and posterior."""
    doc, _ = read_json(path)
    if not isinstance(doc, dict) or doc.get("kind") != "glm-fit":
        raise ConfigError(f"{path}: not a GLM fit file")
    if doc.get("version") != GLM_FIT_VERSION:
        raise ConfigError(f"{path}: unsupported GLM fit version {doc.get('version')!r}")
    if doc.get("network_fingerprint") != network.fingerprint():
        raise ConsistencyError(
            "stale GLM fit: it was produced for different network parameters"
        )

    field = functools.partial(file_field, path, "GLM fit file", doc)
    p = network.architecture.parameter_count

    def coefficients(value):
        vec = float_array(value)
        if vec.shape != (p,):
            raise ValueError(f"expected {p} coefficients, got {vec.size}")
        return vec

    # Each posterior is built in the convert of its last field, so a
    # constructor's refusal names the file and that key.
    prior_variance = field("prior_variance", "number", float)
    model = zero_coefficients_glm(
        network,
        include_network_output=field("include_network_output", "bool"),
        prior_variance=prior_variance,
    )
    method = doc.get("method")
    if method == "map":
        approx = MapPosterior(coefficients=field("coefficients", "number list", coefficients))
    elif method == "svi":
        mu = field("mu", "number list", coefficients)
        approx = field("raw_scales", "number list", lambda raw: MeanFieldPosterior(mu, float_array(raw)))
    elif method == "laplace":
        fisher_x = None
        if field("fisher_on_train", "bool"):
            input_dim = network.architecture.input_dim
            fisher_x = field("fisher_x", "number table", lambda table: _fisher_inputs(table, input_dim))
        mean = field("mean", "number list", coefficients)
        approx = field("n_train", "int", lambda n: LaplacePosterior(mean, n, prior_variance, fisher_x))
    else:
        raise ConfigError(f"{path}: unknown fit method {method!r}")
    return model, approx


def cmd_glm_predict(args) -> int:
    resolved = _load_or_default(args)
    glm = block_or_defaults(resolved, "glm")
    hit = _record_hit(args.checkpoint, args.fit)
    network = hit[0].network if hit else load_checkpoint(args.checkpoint)
    _check_architecture(resolved, network)
    model, approx = hit or _load_glm_fit(args.fit, network)
    x = read_inputs_csv(args.inputs)
    probs, labels = predict_class(model, approx, x, mode=glm["predict_mode"], seed=resolved["seed"])
    _emit(
        args,
        resolved,
        lambda: {
            "labels": [int(v) for v in labels],
            "probs": [line.split(",") for line in float_lines(probs)],
        },
        lambda: prediction_csv(probs, labels),
    )
    return 0


def cmd_sinusoid_exp(args) -> int:
    resolved = load_config(args.config, args.seed)
    exp = sinusoid_experiment(experiment_config_from(resolved))
    log.info(
        "win rates: %.2f vs no-retrain, %.2f vs last-layer",
        exp.win_rate_vs_no_retrain,
        exp.win_rate_vs_last_layer,
    )
    _emit(
        args,
        resolved,
        lambda: {
            "summary": json.loads(exp.summary_json()),
            "columns": list(RESULT_COLUMNS),
            "rows": [list(r) for r in exp.rows],
        },
        exp.to_csv,
    )
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and dispatch


def _add_common(sub, config_required=True, default_format="csv"):
    sub.add_argument("--config", required=config_required, help="experiment config JSON")
    sub.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub.add_argument("--out", required=True, help="output file path")
    sub.add_argument("--format", choices=("csv", "json"), default=default_format)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tangentgp",
        description="Tangent-kernel GP workflows: train, adapt, benchmark, compare.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a network and write a checkpoint")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("adapt", help="fit a GP per task around a checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--tasks", help="JSON manifest of context/eval CSV pairs")
    p.add_argument("--posterior-out", help="save the fitted posterior (single-task runs)")
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser("predict", help="evaluate a cached posterior at new inputs")
    _add_common(p, config_required=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--posterior", required=True)
    p.add_argument("--inputs", required=True, help="inputs-only CSV (x_0..x_{d-1})")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("fvp-bench", help="finite-difference Fisher product error sweep")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_fvp_bench)

    p = sub.add_parser("similarity", help="tangent-kernel similarity study or pairwise compare")
    _add_common(p, default_format="json")
    p.add_argument("--checkpoints", nargs="+", help="pairwise mode: the checkpoints to compare")
    p.add_argument("--inputs", help="shared evaluation inputs CSV for pairwise mode")
    p.set_defaults(func=cmd_similarity)

    p = sub.add_parser("glm-fit", help="fit a linearized softmax GLM around a checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="classification CSV (x_0..x_{d-1},label)")
    p.set_defaults(func=cmd_glm_fit)

    p = sub.add_parser("glm-predict", help="class probabilities under a fitted GLM posterior")
    _add_common(p, config_required=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--fit", required=True, help="GLM fit file from glm-fit")
    p.add_argument("--inputs", required=True, help="inputs-only CSV")
    p.set_defaults(func=cmd_glm_predict)

    p = sub.add_parser("sinusoid-exp", help="source-to-sinusoid adaptation experiment")
    _add_common(p)
    p.set_defaults(func=cmd_sinusoid_exp)

    return parser


class _StderrHandler(logging.StreamHandler):
    """Writes each record to whatever ``sys.stderr`` is when it arrives, so
    callers that swap the stream between in-process calls get the output."""

    stream = property(lambda self: sys.stderr, lambda self, _: None)


def _init_logging() -> None:
    """Set the ``tangentgp`` logger's level from TANGENTGP_LOG_LEVEL
    (WARNING when unset or unknown) on every ``main`` call, and give the
    logger one stderr handler.
    """
    name = os.environ.get("TANGENTGP_LOG_LEVEL", "WARNING").upper()
    level = getattr(logging, name, None)
    log.setLevel(level if isinstance(level, int) else logging.WARNING)
    if not any(isinstance(h, _StderrHandler) for h in log.handlers):
        handler = _StderrHandler()
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        log.addHandler(handler)


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses: built on the first call, then reused.

    Parsing leaves a parser unchanged (each call fills a fresh namespace,
    and no default is mutable), so calls in one process cannot leak state.
    """
    return build_parser()


# Exit code of each error a command may raise, first match wins; any
# other exception propagates.
EXIT_CODES = (
    (ConfigError, 2),
    (ContractViolationError, 2),
    (ConsistencyError, 3),
    (FitError, 4),
    (NumericBreakdownError, 4),
    (ResourceLimitError, 4),
    (TrainingDivergenceError, 4),
    (OSError, 2),
)


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    _init_logging()
    try:
        return args.func(args)
    except tuple(kind for kind, _ in EXIT_CODES) as exc:
        print(f"tangentgp: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
