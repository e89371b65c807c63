"""Span tracing of advlm's public functions, installed from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
loaded ``advlm`` module that binds it (``from .model import forward`` makes
``advlm.train.forward`` a second binding), so no program file changes.
``Tracer.restore`` puts every original back. Spans are kept in flat arrays
(no per-span Python container, so the cyclic collector sees no extra
objects) and written out by ``dump`` when the run ends.

Besides spans, the tracer keeps three counts at the tape boundary:
records per backward pass, the share of ``.grad`` fills that land on leaf
tensors, and the most tapes still alive when a new window's tape opens.
Tapes are tracked through a ``weakref.WeakSet``, which neither keeps them
alive nor triggers a collection.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
import weakref
from array import array

# (module, attribute) of each traced function; a dotted attribute is a method.
TRACED = [
    ("corpus", "read_tokens"),
    ("corpus", "build_vocab"),
    ("corpus", "batchify"),
    ("model", "init_params"),
    ("model", "forward"),
    ("model", "save_checkpoint"),
    ("model", "load_checkpoint"),
    ("autodiff", "gather_rows"),
    ("autodiff", "Tape.backward"),
    ("advsoft", "adv_nll_loss"),
    ("train", "train_epoch"),
    ("train", "sgd_step"),
    ("train", "evaluate"),
    ("analysis", "nearest_neighbor_distances"),
    ("analysis", "singular_values"),
    ("analysis", "diversity_report"),
    ("analysis", "context_probes"),
    ("experiment", "run_one"),
]
# model.forward runs taped in training and untaped in evaluation; the two
# uses are reported under separate names.
UNTAPED_FORWARD = "model.forward_eval"
COUNT_SPAN = "trace.count"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._tapes = weakref.WeakSet()
        self._taped = 0
        self.records_per_backward: list[int] = []
        self.leaf_ratios: list[float] = []
        self.tapes_alive_max = 0

    # -- spans ---------------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.starts)
        self.name_ids.append(self._name_id(name))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._stack.pop()

    def span(self, name: str, fn):
        """Wrap fn so each call records one span named name."""
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    # -- installing wrappers -------------------------------------------
    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, original, new) -> None:
        for modname, module in list(sys.modules.items()):
            if modname == "advlm" or modname.startswith("advlm."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, new)

    def install(self) -> None:
        """Wrap every TRACED function and the tape hooks behind the counts."""
        import advlm.advsoft  # noqa: F401  (load every traced module)
        import advlm.analysis  # noqa: F401
        import advlm.autodiff as ad
        import advlm.cli  # noqa: F401
        import advlm.experiment  # noqa: F401

        for modname, attr in TRACED:
            module = sys.modules[f"advlm.{modname}"]
            name = f"{modname}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = getattr(owner, meth)
                wrapped = self.span(name, original)
                if name == "autodiff.Tape.backward":
                    wrapped = self._counting_backward(wrapped)
                self._patch(owner, meth, wrapped)
            elif name == "model.forward":
                original = getattr(module, attr)
                self._patch_everywhere(original, self._forward(original))
            else:
                original = getattr(module, attr)
                self._patch_everywhere(original, self.span(name, original))
        self._patch_tape(ad.Tape)

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _forward(self, original):
        taped = self.span("model.forward", original)
        untaped = self.span(UNTAPED_FORWARD, original)

        def forward(*args, **kwargs):
            return (taped if self._taped else untaped)(*args, **kwargs)
        return forward

    def _patch_tape(self, tape_cls) -> None:
        enter, exit_ = tape_cls.__enter__, tape_cls.__exit__
        tracer = self

        def __enter__(tape):
            alive = sum(1 for t in tracer._tapes if t is not tape)
            tracer.tapes_alive_max = max(tracer.tapes_alive_max, alive)
            tracer._tapes.add(tape)
            result = enter(tape)
            tracer._taped += 1
            return result

        def __exit__(tape, *exc):
            tracer._taped -= 1
            return exit_(tape, *exc)

        self._patch(tape_cls, "__enter__", __enter__)
        self._patch(tape_cls, "__exit__", __exit__)

    def _counting_backward(self, backward):
        tracer = self

        def counted(tape, loss):
            result = backward(tape, loss)
            idx = tracer.open(COUNT_SPAN)
            try:
                tracer._count_grads(tape)
            finally:
                tracer.close(idx)
            return result
        return counted

    def _count_grads(self, tape) -> None:
        outs, filled = set(), {}
        for out, inputs, _ in tape.records:
            outs.add(id(out))
            for t in (out, *inputs):
                if t.grad is not None:
                    filled[id(t)] = t
        self.records_per_backward.append(len(tape.records))
        if filled:
            leaves = sum(1 for key in filled if key not in outs)
            self.leaf_ratios.append(leaves / len(filled))

    # -- output ----------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "names": self.names,
            "spans": [[self.name_ids[i], self.starts[i], self.ends[i], self.parents[i]]
                      for i in range(len(self.starts))],
            "records_per_backward": self.records_per_backward,
            "leaf_ratios": self.leaf_ratios,
            "tapes_alive_max": self.tapes_alive_max,
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)


def self_times(spans) -> list[float]:
    """Per span: its duration minus the durations of its direct children.

    spans is a list of (name_id, start, end, parent) with parent an index
    into the list or -1. Children of one span never overlap because the
    program is single-threaded, so their durations simply add.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list; 0.0 when empty."""
    if not sorted_values:
        return 0.0
    k = math.ceil(q * len(sorted_values)) - 1
    return sorted_values[max(0, min(len(sorted_values) - 1, k))]


def summarize(traces: list[dict]) -> dict:
    """Per-layer numbers from the dumps of one or more traced operations.

    self_s and calls are per operation (averaged over the dumps);
    p50_ms/p95_ms are over every call's inclusive duration.
    """
    n = len(traces)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    records, ratios, alive = [], [], 0
    for tr in traces:
        spans = tr["spans"]
        own = self_times(spans)
        for (nid, start, end, _), s in zip(spans, own):
            name = tr["names"][nid]
            self_s[name] = self_s.get(name, 0.0) + s
            calls[name] = calls.get(name, 0) + 1
            durations.setdefault(name, []).append(end - start)
        records += tr["records_per_backward"]
        ratios += tr["leaf_ratios"]
        alive = max(alive, tr["tapes_alive_max"])
    out = {}
    for name in self_s:
        d = sorted(durations[name])
        out[name] = {
            "self_s": self_s[name] / n,
            "calls": calls[name] / n,
            "p50_ms": 1e3 * percentile(d, 0.50),
            "p95_ms": 1e3 * percentile(d, 0.95),
        }
    out["autodiff.tape_records_per_window"] = (
        statistics.fmean(records) if records else 0.0)
    out["autodiff.leaf_grad_ratio"] = statistics.fmean(ratios) if ratios else 0.0
    out["autodiff.tapes_alive_max"] = alive
    return out
