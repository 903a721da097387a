"""In-memory span tracer that wraps organmatch's public functions from outside.

A span is (name, start, end, parent, run id). Spans are kept in parallel
lists while the traced code runs and written out once at the end. Wrapping
replaces every module attribute in the package that refers to a traced
function, so a call that goes through a ``from .numkit import adam_step``
binding in ``matchrep`` or ``baselines`` is seen as well as one that goes
through ``numkit.adam_step``.

A layer's self time is its span's duration minus the durations of its
direct child spans; children of one span never overlap, because the traced
program is single-threaded.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
from collections import Counter
from time import perf_counter


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _dense_macs(net, rows):
    return rows * sum(layer.weight.shape[0] * layer.weight.shape[1] for layer in net.layers)


def _forward_counts(args, kwargs):
    net, batch = _arg(args, kwargs, 0, "net"), _arg(args, kwargs, 1, "batch")
    rows = len(batch)
    return {"numkit.mlp_forward.rows": rows, "numkit.mlp.flops": 2 * _dense_macs(net, rows)}


def _backward_counts(args, kwargs):
    net, upstream = _arg(args, kwargs, 0, "net"), _arg(args, kwargs, 2, "upstream_grad")
    # two matrix products per layer: the weight gradient and the input gradient
    return {"numkit.mlp.flops": 4 * _dense_macs(net, len(upstream))}


def _adam_counts(args, kwargs):
    return {"numkit.adam_step.elems": sum(p.size for p in _arg(args, kwargs, 0, "params"))}


def _select_counts(args, kwargs):
    return {"allocsim.policy_select.rows": len(_arg(args, kwargs, 1, "waiting_ids"))}


# Extra counts recorded at a function's boundary, from its arguments.
COUNTERS = {
    "numkit.mlp_forward": _forward_counts,
    "numkit.mlp_backward": _backward_counts,
    "numkit.adam_step": _adam_counts,
    "allocsim.policy_select": _select_counts,
}

# Functions whose spans are named after one argument, so that each baseline
# spec, pair-regressor kind and policy gets its own line.
SPAN_NAMES = {
    "baselines.fit_cluster_predictor": lambda a, k: "baselines.fit.{0.clusterer}_{0.predictor}".format(
        _arg(a, k, 3, "spec")),
    "baselines.fit_pair_regressor": lambda a, k: "baselines.pair." + _arg(a, k, 3, "kind"),
    "allocsim.run_policy": lambda a, k: "allocsim.run_policy." + _arg(a, k, 2, "policy"),
}

# Functions that return a scorer closure; the closure is wrapped to count
# the calls and candidate rows the simulator scores.
SCORER_FACTORIES = ("allocsim.model_scorer", "allocsim.oracle_mean_scorer",
                    "allocsim.pair_regressor_scorer")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.runs: list[str] = []
        self.counts: Counter = Counter()
        self.run_id = ""
        self._stack: list[int] = []
        self._paused = False

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        span_name = SPAN_NAMES.get(name)
        scorer = name in SCORER_FACTORIES
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            idx = len(tracer.names)
            tracer.names.append(span_name(args, kwargs) if span_name else name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.runs.append(tracer.run_id)
            if counter:
                tracer.counts.update(counter(args, kwargs))
            tracer._stack.append(idx)
            tracer.ends.append(0.0)
            tracer.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = perf_counter()
                tracer._stack.pop()
            return tracer._counting_scorer(result) if scorer else result

        return traced

    def _counting_scorer(self, score):
        counts = self.counts

        def counted(recipient_ids, donor_id):
            counts["allocsim.scorer.calls"] += 1
            counts["allocsim.scorer.rows"] += len(recipient_ids)
            return score(recipient_ids, donor_id)

        return counted

    @contextlib.contextmanager
    def installed(self, modules):
        """Wrap every public function defined in ``modules`` at every module
        attribute that refers to it; restore the originals on exit."""
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, val in vars(mod).items():
                if (inspect.isfunction(val) and val.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[val] = self._wrap(f"{layer}.{attr}", val)
        patched = []
        try:
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if inspect.isfunction(val) and val in wrapped:
                        setattr(mod, attr, wrapped[val])
                        patched.append((mod, attr, val))
            yield self
        finally:
            for mod, attr, val in patched:
                setattr(mod, attr, val)

    @contextlib.contextmanager
    def paused(self):
        """Run a block with the wrappers passing straight through."""
        previous, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = previous

    # -- analysis ----------------------------------------------------------

    def _has_ancestor(self, i, name):
        p = self.parents[i]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parents[p]
        return False

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        return [e - s - c for s, e, c in zip(self.starts, self.ends, child)]

    def stats(self) -> dict:
        """Per span name: ``.calls``, ``.self_s`` and ``.s`` (inclusive time,
        counting only the outermost span when a function nests in itself),
        plus the boundary counts."""
        out: Counter = Counter()
        for i, (name, own) in enumerate(zip(self.names, self.self_times())):
            out[name + ".calls"] += 1
            out[name + ".self_s"] += own
            if not self._has_ancestor(i, name):
                out[name + ".s"] += self.ends[i] - self.starts[i]
        out.update(self.counts)
        return dict(out)

    def calls(self, name, within=None, outside=None) -> int:
        """Spans named ``name`` that have (or lack) an ancestor span."""
        return sum(1 for i, n in enumerate(self.names) if n == name
                   and (within is None or self._has_ancestor(i, within))
                   and (outside is None or not self._has_ancestor(i, outside)))

    def write(self, path) -> None:
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for row in zip(self.names, self.starts, self.ends, self.parents, self.runs):
                name, start, end, parent, run = row
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "run": run}) + "\n")
