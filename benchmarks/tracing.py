"""Spans around buildtuner's public functions, recorded from outside the program.

The program binds most functions with ``from module import name``, so a
function is wrapped at every module that holds it, not only where it is
defined.  Classes keep their identity: their methods are wrapped in place.
Spans stay in memory until the benchmark writes them out.
"""
from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


def _rows(args, kwargs, result):
    matrix = args[1] if len(args) > 1 else kwargs["matrix"]
    return {"surrogate.score.rows": matrix.shape[0]}


def _selections(args, kwargs, result):
    return {"sampler.selections": len(result.trace)}


def _dag_shape(args, kwargs, result):
    graph = args[1] if len(args) > 1 else kwargs["graph"]
    configs = args[0] if args else kwargs["configs"]
    return {"buildsim.dag_configs": len(configs),
            "buildsim.dag_units": result.node_count,
            "buildsim.dag_unshared_units": len(result.origins) * graph.n_packages}


def _units(args, kwargs, result):
    return {"buildsim.units": result.attempted + result.skipped}


PACKAGE = "buildtuner"

# (module, attribute, span name, count hook).  A hook sees the call's
# arguments and result and returns the counts to add.
FUNCTIONS = [
    ("configspace", "config_digest", "configspace.config_digest", None),
    ("configspace", "full_space_matrix", "configspace.full_space_matrix", None),
    ("surrogate", "expected_improvement_many", "surrogate.score", _rows),
    ("surrogate", "crowd_score_many", "surrogate.score", _rows),
    ("surrogate", "fit", "surrogate.fit", None),
    ("surrogate", "refit_incremental", "surrogate.refit_incremental", None),
    ("sampler", "run", "sampler.run", _selections),
    ("dataset", "load_dataset", "dataset.load_dataset", None),
    ("dataset", "split_train_test", "dataset.split_train_test", None),
    ("dataset", "save_dataset", "dataset.save_dataset", None),
    ("metrics", "sweep_experiment", "metrics.sweep_experiment", None),
    ("metrics", "auprc_experiment", "metrics.auprc_experiment", None),
    ("metrics", "auprc", "metrics.auprc", None),
    ("analysis", "importance_ranking", "analysis.importance_ranking", None),
    ("analysis", "pair_compatibility", "analysis.pair_compatibility", None),
    ("buildsim", "generate_benchmark", "buildsim.generate_benchmark", None),
    ("buildsim", "enumerate_records", "buildsim.enumerate_records", None),
    ("buildsim", "build_dag", "buildsim.build_dag", _dag_shape),
    ("buildsim", "simulate", "buildsim.simulate", _units),
    ("cli", "dispatch", "cli.dispatch", None),
]

# (module, class, method, span name)
METHODS = [
    ("dataset", "Dataset", "__init__", "dataset.Dataset"),
    ("dataset", "DatasetOracle", "evaluate", "dataset.DatasetOracle.evaluate"),
    ("buildsim", "SyntheticOracle", "evaluate", "buildsim.SyntheticOracle.evaluate"),
]

SPAN_NAMES = sorted({name for _, _, name, _ in FUNCTIONS} | {m[3] for m in METHODS})


class Tracer:
    """In-memory span recorder: name, start, end and parent of every call."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.root_s = 0.0
        self._stack: list[list] = []  # [span index, time covered by children]

    def wrap(self, name: str, fn, hook=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.start)
            self.start.append(0.0)
            self.end.append(0.0)
            self.name.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            frame = [index, 0.0]
            stack.append(frame)
            began = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = perf_counter()
                stack.pop()
                duration = ended - began
                self.start[index] = began
                self.end[index] = ended
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                else:
                    self.root_s += duration
            if hook is not None:
                self.counts.update(hook(args, kwargs, result))
            return result

        return traced

    def write(self, path: str, origin: float) -> None:
        """Write every span as a tab-separated line, times relative to origin."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                         f"{self.start[i] - origin:.9f}\t{self.end[i] - origin:.9f}\n")


@contextmanager
def installed(tracer: Tracer):
    """Swap the wrappers into every module of buildtuner, restoring them on exit."""
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
    undo: list[tuple[object, str, object]] = []
    try:
        for module, attr, name, hook in FUNCTIONS:
            original = getattr(sys.modules[f"{PACKAGE}.{module}"], attr)
            wrapper = tracer.wrap(name, original, hook)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        undo.append((holder, key, value))
                        setattr(holder, key, wrapper)
        for module, cls_name, method, name in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{module}"], cls_name)
            original = cls.__dict__[method]
            undo.append((cls, method, original))
            setattr(cls, method, tracer.wrap(name, original))
        yield tracer
    finally:
        for holder, key, value in reversed(undo):
            setattr(holder, key, value)
