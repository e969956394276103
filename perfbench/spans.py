"""Span and counter tracing of tangentgp from outside the library.

``Tracer.install`` replaces the public function of each layer at every
name a tangentgp module bound it to (so the fits ``adapt`` reaches through
``gp.fit_posterior``, and the ``JacobianOperator`` that ``net.train`` builds
per step, are both caught), and patches the methods of the operator classes. ``Tracer.uninstall`` puts the
originals back, so untraced rounds in the same process run the library
unchanged. No library file is modified.

A span is (name, start, end, parent, task id). Every span feeds per-name
totals (calls, inclusive seconds, self seconds = inclusive minus child
spans). Spans of the fine-grained products (``HOT``) are aggregated only;
the rest are also kept as records and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

# Span names whose individual records are not kept (hundreds of thousands
# per round); their totals are still exact.
HOT = frozenset(
    {
        "net.jvp",
        "net.vjp",
        "net.jacobian_op",
        "net.forward",
        "linalg.op_apply",
        "fisher.hessian_block",
        "serialize.render_csv",
    }
)


def _product_flops(op) -> int:
    """Multiply-add flops of one jvp or vjp, computed from the shapes.

    Each layer costs one (n x fan_in) by (fan_in x fan_out) product; every
    layer after the first adds the propagation product of the same size.
    """
    dims = op.network.architecture.layer_dims
    pairs = [a * b for a, b in zip(dims[:-1], dims[1:])]
    return 2 * op.n_data * (pairs[0] + 2 * sum(pairs[1:]))


def _steps(data_n: int, epochs: int, batch_size: int) -> int:
    return epochs * math.ceil(data_n / batch_size)


class Tracer:
    """Collects spans and counters while installed; inert otherwise."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.records = []
        self.mismatches = []
        self.task_id = None
        self._stack = []
        self._patches = []

    # -- spans -------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` and return its result."""
        frame = [name, 0.0]
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
            if name not in HOT:
                self.records.append((name, start, end, parent, self.task_id))

    def count(self, name: str, amount=1) -> None:
        self.counts[name] += amount

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.mismatches.append(what)

    def snapshot(self) -> dict:
        """Copy of every total, for per-round differences."""
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }

    def write_records(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, task in self.records:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "task": task}
                    )
                    + "\n"
                )

    # -- installation ------------------------------------------------------

    def _wrap(self, name, fn, after=None, watch=None):
        tracer = self

        if after is None:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer.span(name, fn, *args, **kwargs)

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = tracer.calls[watch] if watch else 0
            result = tracer.span(name, fn, *args, **kwargs)
            nested = tracer.calls[watch] - before if watch else None
            after(tracer, args, result, nested)
            return result

        return wrapper

    def _patch_function(self, module_name, attr, name, after=None, watch=None):
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = self._wrap(name, original, after, watch)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "tangentgp" and not mod_name.startswith("tangentgp."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)

    def _patch_method(self, module_name, cls_name, method, name, after=None, watch=None):
        cls = getattr(importlib.import_module(module_name), cls_name)
        original = cls.__dict__[method]
        self._patches.append((cls, method, original))
        setattr(cls, method, self._wrap(name, original, after, watch))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for spec in INSTRUMENTS:
            kind, args = spec[0], spec[1:]
            if kind == "method":
                self._patch_method(*args)
            else:
                self._patch_function(*args)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)


# -- counters taken after a call returns --------------------------------------


def _after_train(tracer, args, result, nested):
    data, cfg = args[1], args[2]
    steps = _steps(data.n, cfg.epochs, cfg.batch_size)
    tracer.count("net.train.steps", steps)
    # One Jacobian operator per minibatch step; a mismatch means the
    # counter no longer describes the loop.
    tracer.check(nested == steps, f"net.train built {nested} operators for {steps} steps")


def _after_product(kind):
    def after(tracer, args, result, nested):
        tracer.count(f"net.{kind}.flops", _product_flops(args[0]))

    return after


def _after_cg(tracer, args, result, nested):
    tracer.count("linalg.cg.iterations", result.iterations)
    tracer.count("linalg.cg.converged", int(result.converged))
    # One product per iteration plus at most one true-residual check each.
    low = result.iterations + (1 if result.converged and result.iterations else 0)
    tracer.check(
        low <= nested <= 2 * result.iterations,
        f"cg reported {result.iterations} iterations but applied the operator {nested} times",
    )


def _after_lanczos(tracer, args, result, nested):
    op = args[0]
    tracer.count("linalg.lanczos.steps", result.rank)
    # Krylov space exhausted: breakdown was detected, or the basis spans
    # the whole space; either way the factorization is exact.
    tracer.count("linalg.lanczos.exhausted", int(result.exhausted or result.rank == op.dim))
    tracer.check(
        nested == result.rank,
        f"lanczos reported rank {result.rank} but applied the operator {nested} times",
    )


def _after_kernel(tracer, args, result, nested):
    tracer.count("gp.kernel_matrix.columns", result.shape[1])


def _after_fit(space):
    def after(tracer, args, result, nested):
        tracer.count(f"gp.fit.{space}.calls")

    return after


def _after_predict(tracer, args, result, nested):
    tracer.count("gp.predict.points", len(args[2]))


def _after_fit_map(tracer, args, result, nested):
    data, cfg = args[1], args[2]
    steps = _steps(data.n, cfg.epochs, cfg.batch_size)
    tracer.count("glm.fit_map.steps", steps)
    # One operator per minibatch step plus one per epoch-end objective.
    tracer.check(
        nested == steps + cfg.epochs,
        f"glm.fit_map built {nested} operators for {steps} steps and {cfg.epochs} epochs",
    )


def _file_bytes(index):
    def after(tracer, args, result, nested):
        tracer.count("gp.posterior_io.bytes", Path(args[index]).stat().st_size)

    return after


def _after_write(tracer, args, result, nested):
    tracer.count("serialize.write.bytes", len(args[1].encode()))


INSTRUMENTS = (
    ("function", "tangentgp.net", "train", "net.train", _after_train, "net.jacobian_op"),
    ("function", "tangentgp.net", "_forward_trace", "net.forward"),
    ("method", "tangentgp.net", "JacobianOperator", "__init__", "net.jacobian_op"),
    ("method", "tangentgp.net", "JacobianOperator", "jvp", "net.jvp", _after_product("jvp")),
    ("method", "tangentgp.net", "JacobianOperator", "vjp", "net.vjp", _after_product("vjp")),
    ("method", "tangentgp.net", "JacobianOperator", "dense", "net.dense"),
    ("method", "tangentgp.linalg", "SymmetricLinearOperator", "apply", "linalg.op_apply"),
    ("function", "tangentgp.linalg", "cg_solve", "linalg.cg", _after_cg, "linalg.op_apply"),
    ("function", "tangentgp.linalg", "lanczos_factorize", "linalg.lanczos", _after_lanczos, "linalg.op_apply"),
    ("function", "tangentgp.linalg", "lowrank_inverse_root", "linalg.inverse_root"),
    ("function", "tangentgp.gp", "kernel_matrix", "gp.kernel_matrix", _after_kernel),
    ("function", "tangentgp.gp", "fit_function_space", "gp.fit", _after_fit("function")),
    ("function", "tangentgp.gp", "fit_parameter_space", "gp.fit", _after_fit("parameter")),
    ("function", "tangentgp.gp", "predict", "gp.predict", _after_predict),
    ("function", "tangentgp.gp", "save_posterior", "gp.save_posterior", _file_bytes(1)),
    ("function", "tangentgp.gp", "load_posterior", "gp.load_posterior", _file_bytes(0)),
    ("function", "tangentgp.adapt", "select_noise_by_loo", "adapt.loo"),
    ("function", "tangentgp.adapt", "refit_last_layer", "adapt.refit_last_layer"),
    ("function", "tangentgp.glm", "fit_map", "glm.fit_map", _after_fit_map, "net.jacobian_op"),
    ("function", "tangentgp.glm", "laplace_precision", "glm.laplace_precision"),
    ("function", "tangentgp.glm", "sample_gaussian_from_precision", "glm.sample"),
    ("function", "tangentgp.fisher", "_hessian_block_apply", "fisher.hessian_block"),
    ("function", "tangentgp.config", "load_checkpoint", "config.load_checkpoint"),
    ("function", "tangentgp.serialize", "read_dataset_csv", "serialize.read_csv"),
    ("function", "tangentgp.serialize", "read_inputs_csv", "serialize.read_csv"),
    ("function", "tangentgp.serialize", "read_classification_csv", "serialize.read_csv"),
    ("function", "tangentgp.serialize", "render_csv", "serialize.render_csv"),
    ("function", "tangentgp.serialize", "atomic_write_text", "serialize.write", _after_write),
)
