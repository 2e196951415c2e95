"""Layer spans recorded from outside idslab, by wrapping its public functions.

``Tracer.install`` replaces each function listed in ``SPANS`` with a timing
wrapper.  idslab modules bind each other's functions by name
(``from .spectral import eigenvalues``), so the wrapper is written into
every loaded ``idslab`` module attribute and class attribute that holds the
original, aliases such as ``AlmostAdditiveField.__call__`` included.
Spans nest on a stack (the traced runs are single-threaded), and a span's
self time is its duration minus the time of its direct children.  Spans stay
in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

ROOT = "cli"

# span name -> public functions ("module:qualname") whose calls it times
SPANS = {
    "lattice.boundary": ["lattice:boundary"],
    "lattice.windows": ["lattice:enumerate_window_patterns"],
    "lattice.freq_table": ["lattice:exact_frequency_table", "lattice:estimated_frequency_table"],
    "operators.assemble": ["operators:discretize", "operators:lattice_model"],
    "operators.grid_points": ["operators:grid_points"],
    "spectral.eigvals": ["spectral:eigenvalues"],
    "spectral.eigsys": ["spectral:eigensystem"],
    "spectral.hermitian": ["spectral:assert_hermitian"],
    "spectral.stepfn": [
        "spectral:counting_function", "spectral:linear_combination", "spectral:subtract",
        "spectral:lp_distance", "spectral:lp_norm", "spectral:integrate_transform",
        "spectral:integrate_product",
    ],
    "ssf.semigroup_svd": ["ssf:semigroup_difference_singular_values"],
    "ssf.shift": ["ssf:spectral_shift"],
    "ssf.bounds": [
        "ssf:fit_decay", "ssf:hs_bound", "ssf:ssf_lp_integral", "ssf:young_check",
        "ssf:facet_ssf_norm_bound",
    ],
    "ergodic.field_init": ["ergodic:AlmostAdditiveField.__init__"],
    "ergodic.evaluate": ["ergodic:AlmostAdditiveField.evaluate"],
    "ergodic.evaluate_pattern": ["ergodic:AlmostAdditiveField.evaluate_pattern"],
    "ergodic.routes": ["ergodic:two_route_experiment", "ergodic:direct_route", "ergodic:pattern_route"],
    "montecarlo.estimate": ["montecarlo:pastur_shubin_mc"],
    "montecarlo.sample": ["montecarlo:localized_counting"],
    "montecarlo.compare": ["montecarlo:compare_random_ids"],
    "montecarlo.truncation": ["montecarlo:semigroup_truncation_diagnostic"],
}

# counted, not timed: called too often for a span per call
COUNTERS = {"lattice.color": "lattice:Pattern.color"}


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _matrix_attrs(args, kwargs, result):
    return {"dim": int(_first_arg(args, kwargs).shape[0])}


def _assembled_attrs(args, kwargs, result):
    return {"dim": int(result.shape[0]), "bytes": int(result.nbytes)}


def _window_attrs(args, kwargs, result):
    return {"count": int(sum(result.values()))}


# span name -> attributes recorded from the call's arguments and result
ATTRS = {
    "spectral.eigvals": _matrix_attrs,
    "spectral.eigsys": _matrix_attrs,
    "ssf.semigroup_svd": _matrix_attrs,
    "operators.assemble": _assembled_attrs,
    "lattice.windows": _window_attrs,
}


def _resolve(target: str):
    """The function a "module:qualname" target names, as its owner stores it."""
    module_name, qualname = target.split(":")
    owner = sys.modules[f"idslab.{module_name}"]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return vars(owner)[attr]


class Tracer:
    """Timing wrappers around idslab's layer functions, and the spans they record."""

    def __init__(self):
        # span: [name, parent index or -1, start, end, child seconds, attrs]
        self.spans: list[list] = []
        self.counts: dict[str, int] = {name: 0 for name in COUNTERS}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, parent, time.perf_counter(), 0.0, 0.0, None]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent][4] += record[3] - record[2]

    def _timed(self, name, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if attrs is not None:
                record[5] = attrs(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Rebind every idslab name that refers to a traced function."""
        wrappers = {}
        for name, targets in SPANS.items():
            for target in targets:
                fn = _resolve(target)
                wrappers[id(fn)] = (fn, self._timed(name, fn))
        for name, target in COUNTERS.items():
            fn = _resolve(target)
            wrappers[id(fn)] = (fn, self._counted(name, fn))
        namespaces = []
        for module_name, module in list(sys.modules.items()):
            if module_name == "idslab" or module_name.startswith("idslab."):
                namespaces.append(module)
                namespaces.extend(v for v in vars(module).values()
                                  if isinstance(v, type) and v.__module__ == module_name)
        for owner in namespaces:
            for attr, value in list(vars(owner).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(owner, attr, hit[1])
                    self._patched.append((owner, attr, value))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def dump(self, path: str, run_s: float) -> None:
        with open(path, "w") as fh:
            json.dump({"run_s": run_s, "counts": self.counts, "spans": self.spans}, fh)


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics from one dumped trace.

    ``calls`` counts the outermost span of a name (``discretize`` entering
    ``lattice_model`` is one assembly); ``self_s`` sums the self time of all
    spans of the name.  ``cli.self_s`` is the command's time outside every
    layer span and ``trace.unattributed_s`` the part of the traced ``run_s``
    outside the root span.
    """
    spans = trace["spans"]
    m: dict[str, float] = {}
    for name in [ROOT, *SPANS]:
        m[f"{name}.calls"] = 0
        m[f"{name}.self_s"] = 0.0
    for key in ("spectral.eigvals", "spectral.eigsys", "ssf.semigroup_svd", "operators.assemble"):
        m[f"{key}.dim_max"] = 0
    m["spectral.eigvals.n3_sum"] = 0
    m["operators.assemble.dim_sum"] = 0
    m["operators.assemble.bytes_max"] = 0
    m["lattice.windows.count"] = 0
    m["ergodic.cache.misses"] = 0
    root_s = 0.0
    for name, parent, start, end, child_s, attrs in spans:
        m[f"{name}.self_s"] += end - start - child_s
        if name == ROOT:
            root_s += end - start
        outer = True
        p = parent
        while p >= 0:
            if spans[p][0] == name:
                outer = False
                break
            p = spans[p][1]
        if not outer:
            continue
        m[f"{name}.calls"] += 1
        if not attrs:  # no attributes, or the call raised
            continue
        if "dim" in attrs:
            m[f"{name}.dim_max"] = max(m[f"{name}.dim_max"], attrs["dim"])
        if name == "spectral.eigvals":
            m["spectral.eigvals.n3_sum"] += attrs["dim"] ** 3
        elif name == "operators.assemble":
            m["operators.assemble.dim_sum"] += attrs["dim"]
            m["operators.assemble.bytes_max"] = max(m["operators.assemble.bytes_max"], attrs["bytes"])
            if parent >= 0 and spans[parent][0] == "ergodic.evaluate_pattern":
                m["ergodic.cache.misses"] += 1
        elif name == "lattice.windows":
            m["lattice.windows.count"] += attrs["count"]
    lookups = m["ergodic.evaluate_pattern.calls"]
    m["ergodic.cache.hit_ratio"] = (
        (lookups - m["ergodic.cache.misses"]) / lookups if lookups else 0.0
    )
    for name, count in trace["counts"].items():
        m[f"{name}.calls"] = count
    m["trace.run_s"] = trace["run_s"]
    m["trace.unattributed_s"] = trace["run_s"] - root_s
    return m
