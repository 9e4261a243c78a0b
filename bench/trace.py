"""Span recorder for traced benchmark runs.

Wrappers are installed around the program's public functions and methods for
the length of one traced pass and removed afterwards.  Every call records a
span (id, family, start, end, parent span, job) into a per-thread buffer held
in memory.  ``parallel.tmap`` is wrapped so that each task runs as a child of
the ``tmap`` span in its worker thread, carrying the job id along; the task
span also records the thread CPU time it used.

A family's ``busy`` time sums the durations of its outermost spans (a span
with no ancestor of the same family), across threads, so it can exceed the
wall time the family covers.  ``self`` time is a span's duration minus the
union of its children's intervals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import threading
import time
from array import array
from dataclasses import dataclass

import numpy as np

PACKAGE = "equator_forge"
MODULES = ("tensor_core", "sphere_geom", "jets", "correspondence", "verification",
           "parallel", "harmonics", "analysis", "tableio", "cli")

_JET_OPS = ("__add__", "__neg__", "__sub__", "__rsub__", "__mul__", "__truediv__",
            "__rtruediv__", "power", "log", "exp", "sqrt")

# family -> targets; "module:Class.method" patches one method, "module:name" a
# function (in every module that imported it), "*.method" the method on every
# class of the package that defines it
FAMILIES = {
    "tensor_core.sec_min_estimate": ["tensor_core:sec_min_estimate"],
    "tensor_core.random_positive": ["tensor_core:random_positive"],
    "tensor_core.io": ["tensor_core:save_tensor", "tensor_core:load_tensor"],
    "correspondence.chart_jet": ["*.chart_jet"],
    "correspondence.ambient_matrices": ["*.ambient_matrices"],
    "correspondence.roundtrip": ["correspondence:killing_from_metric",
                                 "correspondence:curv_from_killing"],
    "correspondence.killing_constancy_residual": ["correspondence:killing_constancy_residual"],
    "jets.matrix_det": ["jets:MatrixJet.det"],
    "jets.ops": ["jets:MatrixJet.logdet", "jets:MatrixJet.scaled", "jets:MatrixJet.__add__",
                 "jets:quadratic_matrix_jet", "jets:quadratic_scalar_jet", "jets:constant_jet"]
    + [f"jets:ScalarJet.{op}" for op in _JET_OPS],
    "verification.christoffels": ["verification:christoffels"],
    "verification.curvature_of_metric": ["verification:curvature_of_metric"],
    "verification.mean_curvature_sweep": ["verification:mean_curvature_sweep"],
    "verification.mean_curvature_equator": ["verification:mean_curvature_equator"],
    "verification.metric_equation_sweep": ["verification:metric_equation_sweep"],
    "verification.equivariance_residual": ["verification:equivariance_residual"],
    "verification.antipodal_residual": ["verification:antipodal_residual"],
    "analysis.equator_mesh": ["analysis:equator_mesh"],
    "analysis.galerkin_assembly": ["analysis:build_jacobi_galerkin"],
    "analysis.eigensolve": ["analysis:JacobiGalerkin.eigenvalues"],
    "analysis.area_elements": ["analysis:equator_area", "analysis:funk_radon"],
    "harmonics.real_harmonic_basis": ["harmonics:real_harmonic_basis"],
    "sphere_geom.ops": ["sphere_geom:equator_quadrature", "sphere_geom:sphere_quadrature",
                        "sphere_geom:chart_at", "sphere_geom:random_equator",
                        "sphere_geom:random_unit", "sphere_geom:great_circle",
                        "sphere_geom:tangent_frame"],
    "cli.main": ["cli:main"],
    "tableio.write": ["tableio:write_csv", "tableio:write_json"],
}
TMAP = "parallel.tmap"
TASK = "parallel.task"


def _result_rows(args, result) -> float:
    return float(np.shape(result)[0])


def _mesh_nodes(args, result) -> float:
    return float(result.nodes.shape[0])


def _file_bytes(args, result) -> float:
    return float(os.path.getsize(args[0]))


# family -> function of (args, result) giving the amount of work in one call
MEASURES = {
    "correspondence.ambient_matrices": _result_rows,
    "analysis.equator_mesh": _mesh_nodes,
    "tableio.write": _file_bytes,
}


class SpanRecorder:
    """Collects spans from wrapped program calls, one buffer per thread."""

    def __init__(self):
        self.families = [*FAMILIES, TMAP, TASK]
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._spans = []  # per-thread array('d') of (id, family, t0, t1, parent, job)
        self._extras = []  # per-thread array('d') of (id, amount)
        self._patches = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _state(self):
        loc = self._local
        if not hasattr(loc, "spans"):
            loc.spans, loc.extras = array("d"), array("d")
            loc.parent, loc.job = -1.0, -1.0
            with self._lock:
                self._spans.append(loc.spans)
                self._extras.append(loc.extras)
        return loc

    def set_job(self, job: int) -> None:
        self._state().job = float(job)

    def _wrap(self, family: str, fn, measure=None):
        fid = float(self.families.index(family))
        ids, state = self._ids, self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            loc = state()
            parent = loc.parent
            sid = float(next(ids))
            loc.parent = sid
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                loc.parent = parent
                loc.spans.extend((sid, fid, t0, t1, parent, loc.job))
            if measure is not None:
                loc.extras.extend((sid, measure(args, result)))
            return result

        return wrapper

    def _wrap_tmap(self, tmap):
        task_fid = float(self.families.index(TASK))
        ids, state = self._ids, self._state

        def traced_tmap(fn, items):
            outer = state()
            parent, job = outer.parent, outer.job

            def task(item):
                loc = state()
                saved = loc.parent, loc.job
                sid = float(next(ids))
                loc.parent, loc.job = sid, job
                c0, t0 = time.thread_time(), time.perf_counter()
                try:
                    return fn(item)
                finally:
                    t1, c1 = time.perf_counter(), time.thread_time()
                    loc.parent, loc.job = saved
                    loc.spans.extend((sid, task_fid, t0, t1, parent, job))
                    loc.extras.extend((sid, c1 - c0))

            return tmap(task, items)

        return self._wrap(TMAP, functools.wraps(tmap)(traced_tmap))

    # -- installing wrappers -------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES]
        package = importlib.import_module(PACKAGE)
        for family, targets in FAMILIES.items():
            for target in targets:
                if target.startswith("*."):
                    method = target[2:]
                    for owner in self._classes_defining(modules, method):
                        self._patch_method(family, owner, method)
                    continue
                module_name, qualname = target.split(":")
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
                if "." in qualname:
                    cls_name, method = qualname.split(".")
                    self._patch_method(family, getattr(module, cls_name), method)
                else:
                    original = getattr(module, qualname)
                    wrapper = self._wrap(family, original, MEASURES.get(family))
                    self._patch_references([package, *modules], original, wrapper)
        parallel = importlib.import_module(f"{PACKAGE}.parallel")
        self._patch_references([package, *modules], parallel.tmap, self._wrap_tmap(parallel.tmap))

    @staticmethod
    def _classes_defining(modules, method: str):
        for module in modules:
            for _, cls in inspect.getmembers(module, inspect.isclass):
                if cls.__module__ == module.__name__ and method in vars(cls):
                    yield cls

    def _patch_method(self, family: str, owner, method: str) -> None:
        original = vars(owner)[method]
        self._patches.append((owner, method, original))
        setattr(owner, method, self._wrap(family, original, MEASURES.get(family)))

    def _patch_references(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def spans(self) -> np.ndarray:
        """All recorded spans as rows (id, family, t0, t1, parent, job)."""
        with self._lock:
            flat = [np.frombuffer(buf, dtype=float) for buf in self._spans]
        data = np.concatenate(flat) if flat else np.empty(0)
        return data.reshape(-1, 6)

    def extras(self) -> dict:
        with self._lock:
            flat = [np.frombuffer(buf, dtype=float) for buf in self._extras]
        data = (np.concatenate(flat) if flat else np.empty(0)).reshape(-1, 2)
        return dict(zip(data[:, 0].astype(np.int64).tolist(), data[:, 1].tolist()))


@dataclass
class FamilyStats:
    calls: int
    busy_s: float  # summed duration of outermost spans
    self_s: float  # summed self time of all spans
    wall_s: float  # union of the intervals of outermost spans
    amount: float  # summed measure of outermost spans


def _union_lengths(groups: np.ndarray, t0: np.ndarray, t1: np.ndarray, count: int) -> np.ndarray:
    """Length of the union of intervals [t0, t1) within each group id."""
    out = np.zeros(count)
    if groups.size == 0:
        return out
    order = np.lexsort((t0, groups))
    g, s, e = groups[order], t0[order], t1[order]
    # a per-group running maximum of interval ends: offset each group beyond the last
    span = float(e.max() - s.min()) + 1.0
    shifted = np.maximum.accumulate(e + g * span) - g * span
    prev_end = np.empty_like(e)
    prev_end[0] = -np.inf
    prev_end[1:] = shifted[:-1]
    prev_end[1:][g[1:] != g[:-1]] = -np.inf
    np.add.at(out, g, np.maximum(0.0, e - np.maximum(s, prev_end)))
    return out


def family_stats(recorder: SpanRecorder) -> dict:
    """Per-family calls, busy, self and wall time, and measured amounts."""
    rows = recorder.spans()
    extras = recorder.extras()
    n = rows.shape[0]
    sid = rows[:, 0].astype(np.int64)
    fam = rows[:, 1].astype(np.int64)
    t0, t1 = rows[:, 2], rows[:, 3]
    base = t0.min() if n else 0.0
    t0, t1 = t0 - base, t1 - base
    row_of = np.full(int(sid.max()) + 1 if n else 1, -1, dtype=np.int64)
    row_of[sid] = np.arange(n)
    parent_sid = rows[:, 4].astype(np.int64)
    parent = np.where(parent_sid >= 0, row_of[np.maximum(parent_sid, 0)], -1)

    # outermost: no ancestor of the same family
    nested = np.zeros(n, dtype=bool)
    anc = parent.copy()
    while True:
        live = anc >= 0
        if not live.any():
            break
        nested[live] |= fam[anc[live]] == fam[live]
        anc[live] = parent[anc[live]]
    outer = ~nested

    # self time: duration minus the union of child intervals (clipped to the parent)
    child = parent >= 0
    pr = parent[child]
    covered = _union_lengths(pr, np.maximum(t0[child], t0[pr]), np.minimum(t1[child], t1[pr]), n)
    self_time = (t1 - t0) - covered

    amount = np.zeros(n)
    if extras:
        for row in np.flatnonzero(np.isin(sid, list(extras))):
            amount[row] = extras[int(sid[row])]

    k = len(recorder.families)
    calls = np.bincount(fam, minlength=k)
    busy = np.bincount(fam[outer], weights=(t1 - t0)[outer], minlength=k)
    selfs = np.bincount(fam, weights=self_time, minlength=k)
    amounts = np.bincount(fam[outer], weights=amount[outer], minlength=k)
    walls = _union_lengths(fam[outer], t0[outer], t1[outer], k)
    return {
        name: FamilyStats(int(calls[i]), float(busy[i]), float(selfs[i]), float(walls[i]),
                          float(amounts[i]))
        for i, name in enumerate(recorder.families)
    }
