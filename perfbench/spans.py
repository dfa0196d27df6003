"""Span recording around the package's public functions, from outside.

The package is not edited. A traced round replaces each layer function, in
every package module that binds it, by a wrapper that records a span (name,
start, end, parent) and the layer's work counters; the originals are put back
when the round ends. `simulate` and `treecode` look these functions up as
module globals at call time, so their calls go through the wrappers.
"""

import os
import time
from contextlib import contextmanager


def _grid_work(args, result):
    ens, grid = args[0], args[1]
    return ens.size * grid.num_cells


def _score_work(args, result):
    grid, targets = args[1], args[3]
    return len(targets) * grid.num_cells


def _pairs(args, result):
    ens, spec = args[0], args[2]
    # gamma = 0 takes the O(N) moment path; otherwise every ordered pair
    return ens.size if spec.gamma == 0.0 else ens.size * ens.size


def _tree_nodes(args, result):
    return len(result.nodes)


def _snapshot_bytes(args, result):
    return sum(os.path.getsize(p) for p in result)


def _diagnostics_bytes(args, result):
    return os.path.getsize(result)


# (module, function, counter name, counter) for every wrapped layer function;
# the span is named "module.function" and the counter "module.function.name".
LAYERS = (
    ("config", "parse_config", None, None),
    ("simulate", "run", None, None),
    ("particles", "init_from_density", None, None),
    ("particles", "mollified_grid_density", "work", _grid_work),
    ("particles", "score_field", "work", _score_work),
    ("particles", "velocity_field_direct", "pairs", _pairs),
    ("particles", "min_pair_distance", None, None),
    ("treecode", "treecode_velocity_field", None, None),
    ("treecode", "build_tree", "nodes", _tree_nodes),
    ("treecode", "compute_moments", None, None),
    ("treecode", "treecode_sum", None, None),
    ("diagnostics", "moments", None, None),
    ("diagnostics", "discrete_entropy", None, None),
    ("diagnostics", "relative_entropy", None, None),
    ("diagnostics", "dissipation_from_velocities", None, None),
    ("output", "write_snapshot", "bytes", _snapshot_bytes),
    ("output", "write_diagnostics", "bytes", _diagnostics_bytes),
)

PACKAGE_MODULES = (
    "config", "exact", "kernels", "particles", "treecode", "diagnostics",
    "simulate", "output",
)


class Tracer:
    """Spans kept in memory: spans[i] = [name, start, end, parent index or -1]."""

    def __init__(self, package):
        self.package = package
        self.modules = [getattr(package, m) for m in PACKAGE_MODULES]
        self.spans = []
        self.counters = {
            f"{mod}.{fn}.{key}": 0 for mod, fn, key, _ in LAYERS if key is not None
        }
        self._open = []

    @contextmanager
    def span(self, name):
        """Record a span around a block of the benchmark's own code."""
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)

    def _begin(self, name):
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(idx)
        return idx

    def _end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def _wrap(self, name, fn, key, counter):
        def wrapper(*args, **kwargs):
            idx = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if counter is not None:
                self.counters[f"{name}.{key}"] += counter(args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every layer function in every module that binds it."""
        saved = []
        for mod_name, fn_name, key, counter in LAYERS:
            original = getattr(getattr(self.package, mod_name), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, key, counter)
            for mod in self.modules:
                if getattr(mod, fn_name, None) is original:
                    saved.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapper)
        try:
            yield self
        finally:
            for mod, fn_name, original in saved:
                setattr(mod, fn_name, original)


def self_times(spans):
    """Per span: its duration minus the time covered by its direct children."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [(end - start) - child_time[i] for i, (_, start, end, _) in enumerate(spans)]


def self_time_by_name(spans):
    totals = {}
    for (name, *_), own in zip(spans, self_times(spans)):
        totals[name] = totals.get(name, 0.0) + own
    return totals
