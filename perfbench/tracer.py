"""In-memory span tracing around the calls into each promix layer.

A ``Tracer`` replaces public functions with wrappers that record one span
per call: name, start, end and the enclosing span. Names bound with
``from promix.x import f`` are replaced in every promix module that holds
them, so calls from any caller are seen; the kernels are wrapped on the
active kernels module, which callers reach through ``backend.kernels``.
``restore`` puts every original back.

Spans stay in memory until ``aggregate`` folds them into per-name totals:
calls, inclusive seconds, self seconds (inclusive minus direct children)
and the counts each wrapper takes from arguments and return values.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import os
import sys
from time import perf_counter

import numpy as np

LAYERS = ("kernels", "losses", "train", "head", "mixture", "evaluation", "embedspace", "cli")

# span record fields
NAME, START, END, PARENT, EXTRA = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._seen_reads: set[tuple[str, int, int]] = set()

    # ---- recording -------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a call into a layer."""
        _, rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name: str) -> tuple[int, list]:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        idx = len(self.spans)
        self.spans.append(rec)
        self._stack.append(idx)
        rec[START] = perf_counter()
        return idx, rec

    def _close(self, rec: list) -> None:
        rec[END] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None, prepare=None):
        """Traced version of ``fn``.

        ``prepare(args, kwargs)`` may rewrite the arguments before the
        call; ``count(idx, args, kwargs, result)`` returns a dict of counts
        stored on the span once the call has returned.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            idx, rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if count is not None:
                rec[EXTRA] = count(idx, args, kwargs, result)
            return result

        return traced

    def new_pass(self) -> None:
        """Forget spans and the file-read history of the previous pass."""
        self.spans = []
        self._seen_reads = set()

    # ---- installing wrappers ----------------------------------------------

    def replace_everywhere(self, module, attr: str, wrapper) -> None:
        """Rebind ``module.attr`` and every promix alias of the same object."""
        original = getattr(module, attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "promix" or mod_name.startswith("promix.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def install(self) -> "Tracer":
        import promix.backend
        import promix.embedspace
        import promix.evaluation
        import promix.head
        import promix.losses
        import promix.mixture
        import promix.train

        kernels = promix.backend.kernels
        for fn_name in ("softmax_rows", "prompt_step"):
            original = getattr(kernels, fn_name)
            self._restore.append((kernels, fn_name, original))
            setattr(kernels, fn_name, self.wrap(f"kernels.{fn_name}", original, _count_elems))

        plain = {
            promix.losses: ("batch_loss_grad",),
            promix.head: ("similarity_matrix",),
            promix.mixture: ("mixture_scaled_logits", "bound_gap"),
            promix.evaluation: (
                "accuracy", "base_to_new_eval", "fscil_run", "assumption_check",
                "bound_sweep", "confusing_gain",
            ),
        }
        for module, names in plain.items():
            layer = module.__name__.split(".")[-1]
            for fn_name in names:
                fn = getattr(module, fn_name)
                self.replace_everywhere(module, fn_name, self.wrap(f"{layer}.{fn_name}", fn))

        train = promix.train
        for fn_name in ("tune_prompt", "tune_prompt_one_stage"):
            fn = getattr(train, fn_name)
            wrapper = self.wrap(
                f"train.{fn_name}", fn, _tuning_counter(fn), self._hook_wrapper(fn)
            )
            self.replace_everywhere(train, fn_name, wrapper)
        for fn_name, precompute in (("optimize_in_weight", 0), ("optimize_out_weight", 1)):
            fn = getattr(train, fn_name)
            counter = _weight_fit_counter(self, fn, precompute)
            self.replace_everywhere(train, fn_name, self.wrap(f"train.{fn_name}", fn, counter))

        emb = promix.embedspace
        self.replace_everywhere(
            emb, "generate_synthetic",
            self.wrap("embedspace.generate_synthetic", emb.generate_synthetic, _count_config),
        )
        self.replace_everywhere(
            emb, "read_embedding_file",
            self.wrap("embedspace.read_embedding_file", emb.read_embedding_file, self._count_read),
        )
        self.replace_everywhere(
            emb, "write_embedding_file",
            self.wrap("embedspace.write_embedding_file", emb.write_embedding_file, _count_write),
        )
        return self

    def restore(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore = []

    def _hook_wrapper(self, fn):
        """Trace the per-epoch hook so tuning throughput can leave it out."""
        signature = inspect.signature(fn)
        if "epoch_hook" not in signature.parameters:
            return None

        def prepare(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            hook = bound.arguments.get("epoch_hook")
            if hook is None:
                return args, kwargs
            bound.arguments["epoch_hook"] = self.wrap("evaluation.epoch_hook", hook)
            return bound.args, bound.kwargs

        return prepare

    def _count_read(self, _idx, args, kwargs, _result) -> dict:
        path = _first_arg(args, kwargs, "path")
        stat = os.stat(path)
        key = (os.path.realpath(path), stat.st_mtime_ns, stat.st_size)
        repeat = stat.st_size if key in self._seen_reads else 0
        self._seen_reads.add(key)
        return {"bytes": stat.st_size, "repeat_bytes": repeat}

    # ---- aggregation -------------------------------------------------------

    def aggregate(self) -> dict[str, dict]:
        """Per-name totals over the recorded spans."""
        child_s = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child_s[rec[PARENT]] += rec[END] - rec[START]
        totals: dict[str, dict] = {}
        for i, rec in enumerate(self.spans):
            row = totals.setdefault(rec[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0})
            duration = rec[END] - rec[START]
            row["calls"] += 1
            row["s"] += duration
            row["self_s"] += duration - child_s[i]
            for key, value in (rec[EXTRA] or {}).items():
                if isinstance(value, list):
                    row.setdefault(key, []).extend(value)
                else:
                    row[key] = row.get(key, 0) + value
            if rec[NAME] == "evaluation.epoch_hook" and rec[PARENT] >= 0:
                owner = totals.setdefault(
                    self.spans[rec[PARENT]][NAME] + ".hooks", {"calls": 0, "s": 0.0, "self_s": 0.0}
                )
                owner["s"] += duration
        return totals


def _first_arg(args, kwargs, name: str):
    return args[0] if args else kwargs[name]


def _count_elems(_idx, args, _kwargs, _result) -> dict:
    return {"elems": int(np.size(args[0]))}


def _count_config(_idx, args, kwargs, _result) -> dict:
    return {"configs": [_first_arg(args, kwargs, "config")]}


def _count_write(_idx, args, kwargs, _result) -> dict:
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.stat(path).st_size}


def _tuning_counter(fn):
    """samples = epochs x rows fed to tuning, read from the arguments."""
    signature = inspect.signature(fn)

    def count(_idx, args, kwargs, _result) -> dict:
        bound = signature.bind(*args, **kwargs)
        return {"samples": bound.arguments["opt"].epochs * len(bound.arguments["train_set"])}

    return count


def _weight_fit_counter(tracer: Tracer, fn, precompute: int):
    """Objective evaluations of one weight fit and how many were useful.

    Every objective evaluation runs one ``softmax_rows``; the out-weight
    fit also runs one for its generalized-head precompute, which is not an
    evaluation. Evaluations on the returned descent path are the initial
    one plus ``steps_per_epoch`` for each epoch the returned trace kept;
    the rest went to the rejected epoch and the lr/10 retry.
    """
    from promix.train import OptimizerConfig

    signature = inspect.signature(fn)

    def count(idx, args, kwargs, result) -> dict:
        bound = signature.bind(*args, **kwargs)
        # the count runs as the span closes, so every later span is inside it
        softmax_calls = sum(
            1 for rec in tracer.spans[idx + 1 :] if rec[NAME] == "kernels.softmax_rows"
        )
        evals = max(softmax_calls - precompute, 0)
        trace = result[1]
        if not trace:
            return {"objective_evals": 0, "useful_evals": 0}
        opt = bound.arguments.get("opt") or OptimizerConfig()
        steps_per_epoch = max(1, math.ceil(len(bound.arguments["train_set"]) / opt.batch_size))
        return {"objective_evals": evals, "useful_evals": 1 + (len(trace) - 1) * steps_per_epoch}

    return count
