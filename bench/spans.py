"""Span tracer that times the program's public functions from outside it.

Nothing inside src/ is instrumented. While a traced operation runs, each
target function is replaced by a timing wrapper in every patchlens module
that binds it: the module that defines it and every module that imported it
by name (pipeline binds forward_batch through `from .network import`, so the
wrapper must sit there too). Spans are kept in memory as flat arrays and
written out once, at the end of the run.

A span's self time is its duration minus the time of the spans it directly
encloses; a layer's self time is the sum over its spans. Program code that
is not wrapped is charged to the nearest wrapped caller, so tensor's work
shows inside perturbation and importance.
"""
from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

ROOT_SPAN = "cli.main"


def _conv_flop(dout, layer) -> int:
    """Multiply-adds x 2 of one conv GEMM, from the output-shaped tensor."""
    n, o, ho, wo = dout.shape
    _, c, kh, kw = layer.w.shape
    return 2 * n * o * ho * wo * c * kh * kw


def _arg(a, k, i, name):
    return a[i] if len(a) > i else k[name]


# (module, function, span name, hook). A hook sees (tracer, args, kwargs,
# result) after the call. conv_forward_cols is the one function every conv
# forward goes through (conv_forward calls it), so it carries the
# network.conv_forward span.
TARGETS = (
    ("perturbation", "perturb_batch", "perturbation.perturb_batch", None),
    ("network", "forward", "network.forward", None),
    ("network", "forward_batch", "network.forward_batch", None),
    ("network", "conv_forward_cols", "network.conv_forward",
     lambda t, a, k, r: t.add_flop(_conv_flop(r[0], _arg(a, k, 1, "layer")))),
    ("network", "conv_input_grad", "network.conv_input_grad",
     lambda t, a, k, r: t.add_flop(_conv_flop(_arg(a, k, 0, "dout"), _arg(a, k, 1, "layer")))),
    ("network", "conv_param_grad", "network.conv_param_grad",
     lambda t, a, k, r: t.add_flop(_conv_flop(_arg(a, k, 0, "dout"), _arg(a, k, 2, "layer")))),
    ("network", "maxpool_forward", "network.maxpool_forward", None),
    ("network", "maxpool_backward", "network.maxpool_backward", None),
    ("network", "loss_gradients", "network.loss_gradients", None),
    ("network", "evaluate_accuracy", "network.evaluate_accuracy", None),
    ("importance", "score_neurons", "importance.score_neurons", None),
    ("importance", "rank", "importance.rank", None),
    ("importance", "score_act_sum", "importance.score.act-sum", None),
    ("importance", "score_act_var", "importance.score.act-var", None),
    ("importance", "score_weight_sum", "importance.score.weight-sum", None),
    ("importance", "score_weight_var", "importance.score.weight-var", None),
    ("importance", "score_correlation", "importance.score.act-out-corr", None),
    ("importance", "score_precision", "importance.score.act-precision", None),
    ("deconvnet", "deconvolve", "deconvnet.deconvolve",
     lambda t, a, k, r: t.add_neuron(_arg(a, k, 1, "trace"), _arg(a, k, 2, "neuron"))),
    ("deconvnet", "extract_top_patches", "deconvnet.extract_top_patches", None),
    ("pipeline", "explain", "pipeline.explain", None),
    ("evaluation", "convergence_study", "evaluation.convergence_study", None),
    ("evaluation", "localization_study", "evaluation.localization_study", None),
    ("evaluation", "train_secondary", "evaluation.train_secondary", None),
    ("imageio", "write_ppm", "imageio.write_ppm", None),
    ("imageio", "read_ppm", "imageio.read_ppm", None),
    ("imageio", "annotate_patches", "imageio.annotate_patches", None),
    ("imageio", "resize_bilinear", "imageio.resize_bilinear", None),
)
LAYERS = ("perturbation", "network", "importance", "deconvnet", "pipeline",
          "evaluation", "imageio", "cli")


class Tracer:
    def __init__(self):
        self.names = [ROOT_SPAN] + [t[2] for t in TARGETS]
        self._sid = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.flop: list[int] = []
        self.deconv_calls: list[int] = []
        self.deconv_distinct: list[set] = []
        self._held: list = []  # traces keyed by id() stay alive for the op
        self._stack: list[int] = []
        self.missing: list[str] = []

    # -- recording ----------------------------------------------------------

    def _open(self, sid: int) -> int:
        idx = len(self.start)
        self.name.append(sid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(len(self.flop) - 1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def add_flop(self, n: int) -> None:
        self.flop[-1] += n

    def add_neuron(self, trace, neuron) -> None:
        self._held.append(trace)
        self.deconv_calls[-1] += 1
        self.deconv_distinct[-1].add((id(trace), neuron.layer, neuron.channel))

    def _wrap(self, fn, sid, hook):
        tracer = self

        def wrapper(*a, **k):
            idx = tracer._open(sid)
            try:
                result = fn(*a, **k)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer, a, k, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def run_op(self, call):
        """Trace one operation: wrap every target, run call() under the root
        span, restore every binding, return call()'s value."""
        self.flop.append(0)
        self.deconv_calls.append(0)
        self.deconv_distinct.append(set())
        patched = []
        try:
            for module, func, span, hook in TARGETS:
                mod = importlib.import_module(f"patchlens.{module}")
                fn = getattr(mod, func, None)
                if fn is None:
                    if span not in self.missing:
                        self.missing.append(span)
                    continue
                wrapper = self._wrap(fn, self._sid[span], hook)
                for name, loaded in list(sys.modules.items()):
                    if name == "patchlens" or name.startswith("patchlens."):
                        for attr, value in list(vars(loaded).items()):
                            if value is fn:
                                setattr(loaded, attr, wrapper)
                                patched.append((loaded, attr, fn))
            root = self._open(self._sid[ROOT_SPAN])
            try:
                return call()
            finally:
                self._close(root)
        finally:
            for loaded, attr, fn in reversed(patched):
                setattr(loaded, attr, fn)
            self._held.clear()

    # -- results ------------------------------------------------------------

    def per_op(self) -> list[dict]:
        """Per traced operation: total ms and call count per span name, self
        ms per layer, computed conv flop, deconvolve calls and distinct
        (trace, neuron) pairs."""
        name = np.frombuffer(self.name, dtype=np.int32)
        dur = (np.frombuffer(self.end) - np.frombuffer(self.start)) * 1e3
        parent = np.frombuffer(self.parent, dtype=np.int32)
        op = np.frombuffer(self.op, dtype=np.int32)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ms = dur - child
        layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in self.names])
        out = []
        for o in range(len(self.flop)):
            sel = op == o
            n_names = len(self.names)
            totals = np.bincount(name[sel], weights=dur[sel], minlength=n_names)
            calls = np.bincount(name[sel], minlength=n_names)
            selfs = np.bincount(layer_of[name[sel]], weights=self_ms[sel], minlength=len(LAYERS))
            out.append({
                "ms": dict(zip(self.names, totals.tolist())),
                "calls": dict(zip(self.names, calls.tolist())),
                "self_ms": dict(zip(LAYERS, selfs.tolist())),
                "flop": self.flop[o],
                "deconv_calls": self.deconv_calls[o],
                "deconv_distinct": len(self.deconv_distinct[o]),
            })
        return out

    def write(self, path) -> None:
        """Every span as one tab-separated row: op, name, start and end in ms
        from the first span, parent row (-1 for a root)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("op\tname\tstart_ms\tend_ms\tparent\n")
            for i in range(len(self.start)):
                fh.write(f"{self.op[i]}\t{self.names[self.name[i]]}\t{(self.start[i] - t0) * 1e3:.4f}"
                         f"\t{(self.end[i] - t0) * 1e3:.4f}\t{self.parent[i]}\n")
