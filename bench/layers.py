"""Per-layer metrics derived from the span families of one traced pass.

Each entry names the metric, its unit, which direction is better, and the
end-to-end metric and workload it should move.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str
    value: Callable  # (stats: dict[str, FamilyStats], jobs: int) -> float


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _calls(family):
    return lambda s, jobs: float(s[family].calls)


def _busy(*families):
    return lambda s, jobs: sum(s[f].busy_s for f in families)


def _self(*families):
    return lambda s, jobs: sum(s[f].self_s for f in families)


def _wall(family):
    return lambda s, jobs: s[family].wall_s


def _amount(family):
    return lambda s, jobs: s[family].amount


POSITIVITY = "run_s, job_p50_s on forge; job_p50_s on verify; none on spectrum"
CHART_JETS = "run_s, job_p50_s on verify and spectrum"
JETS = "run_s on verify and spectrum; none on forge"
SWEEPS = "run_s, job_p50_s on verify"
POOL = "run_s, cpu_s on verify and spectrum"
SPECTRUM = "run_s, job_p50_s on spectrum"
CLI = "job_p50_s on verify and spectrum"

LAYER_METRICS = [
    LayerMetric("tensor_core.sec_min_estimate.calls", "count", "lower", POSITIVITY,
                _calls("tensor_core.sec_min_estimate")),
    LayerMetric("tensor_core.sec_min_estimate.busy_s", "s", "lower", POSITIVITY,
                _busy("tensor_core.sec_min_estimate")),
    LayerMetric("tensor_core.probes_per_tensor", "1", "lower", POSITIVITY,
                lambda s, jobs: _ratio(s["tensor_core.sec_min_estimate"].calls,
                                       s["tensor_core.random_positive"].calls)),
    LayerMetric("tensor_core.random_positive.busy_s", "s", "lower", POSITIVITY,
                _busy("tensor_core.random_positive")),
    LayerMetric("tensor_core.io_s", "s", "lower", POSITIVITY, _busy("tensor_core.io")),
    LayerMetric("correspondence.chart_jet.calls", "count", "lower", CHART_JETS,
                _calls("correspondence.chart_jet")),
    LayerMetric("correspondence.chart_jet.self_s", "s", "lower", CHART_JETS,
                _self("correspondence.chart_jet")),
    LayerMetric("correspondence.ambient_matrices.points", "count", "lower", SPECTRUM,
                _amount("correspondence.ambient_matrices")),
    LayerMetric("correspondence.ambient_matrices.busy_s", "s", "lower", SPECTRUM,
                _busy("correspondence.ambient_matrices")),
    LayerMetric("correspondence.roundtrip.busy_s", "s", "lower", "run_s on forge",
                _busy("correspondence.roundtrip")),
    LayerMetric("correspondence.killing_constancy_residual.busy_s", "s", "lower",
                "run_s on forge and verify", _busy("correspondence.killing_constancy_residual")),
    LayerMetric("jets.self_s", "s", "lower", JETS, _self("jets.matrix_det", "jets.ops")),
    LayerMetric("jets.matrix_det.calls", "count", "lower", JETS, _calls("jets.matrix_det")),
    LayerMetric("verification.christoffels.calls", "count", "lower", SWEEPS,
                _calls("verification.christoffels")),
    LayerMetric("verification.christoffels.self_s", "s", "lower", SWEEPS,
                _self("verification.christoffels")),
    LayerMetric("verification.curvature_of_metric.calls", "count", "lower", SWEEPS,
                _calls("verification.curvature_of_metric")),
    LayerMetric("verification.dgamma_use_ratio", "1", "higher", SWEEPS,
                lambda s, jobs: _ratio(s["verification.curvature_of_metric"].calls,
                                       s["verification.christoffels"].calls)),
    LayerMetric("verification.mean_curvature_sweep.wall_s", "s", "lower", SWEEPS,
                _wall("verification.mean_curvature_sweep")),
    LayerMetric("verification.mean_curvature_sweep.points", "count", "lower", SWEEPS,
                _calls("verification.mean_curvature_equator")),
    LayerMetric("verification.metric_equation_sweep.wall_s", "s", "lower", SWEEPS,
                _wall("verification.metric_equation_sweep")),
    LayerMetric("verification.equivariance_residual.busy_s", "s", "lower", SWEEPS,
                _busy("verification.equivariance_residual")),
    LayerMetric("verification.antipodal_residual.busy_s", "s", "lower", SWEEPS,
                _busy("verification.antipodal_residual")),
    LayerMetric("parallel.tmap.calls", "count", "lower", POOL, _calls("parallel.tmap")),
    LayerMetric("parallel.tmap.wall_s", "s", "lower", POOL, _wall("parallel.tmap")),
    LayerMetric("parallel.tmap.speedup", "1", "higher", POOL,
                lambda s, jobs: _ratio(s["parallel.task"].amount, s["parallel.tmap"].wall_s)),
    LayerMetric("analysis.equator_mesh.calls", "count", "lower", SPECTRUM,
                _calls("analysis.equator_mesh")),
    LayerMetric("analysis.equator_mesh.wall_s", "s", "lower", SPECTRUM,
                _wall("analysis.equator_mesh")),
    LayerMetric("analysis.equator_mesh.nodes", "count", "lower", SPECTRUM,
                _amount("analysis.equator_mesh")),
    LayerMetric("analysis.mesh_builds_per_job", "1", "lower", SPECTRUM,
                lambda s, jobs: _ratio(s["analysis.equator_mesh"].calls, jobs)),
    LayerMetric("analysis.galerkin_assembly.self_s", "s", "lower", SPECTRUM,
                _self("analysis.galerkin_assembly")),
    LayerMetric("analysis.eigensolve.busy_s", "s", "lower", SPECTRUM,
                _busy("analysis.eigensolve")),
    LayerMetric("analysis.area_elements.busy_s", "s", "lower", SPECTRUM,
                _busy("analysis.area_elements")),
    LayerMetric("harmonics.real_harmonic_basis.calls", "count", "lower", SPECTRUM,
                _calls("harmonics.real_harmonic_basis")),
    LayerMetric("harmonics.real_harmonic_basis.busy_s", "s", "lower", SPECTRUM,
                _busy("harmonics.real_harmonic_basis")),
    LayerMetric("sphere_geom.self_s", "s", "lower", "all workloads, small",
                _self("sphere_geom.ops")),
    LayerMetric("cli.self_s", "s", "lower", CLI, _self("cli.main")),
    LayerMetric("tableio.write_s", "s", "lower", CLI, _busy("tableio.write")),
    LayerMetric("tableio.bytes_written", "B", "lower", CLI, _amount("tableio.write")),
]

OVERHEAD = LayerMetric("trace.overhead_ratio", "1", "lower",
                       "none: traced run_s / warm untraced run_s, both on the inputs of pass 0", None)

# counts that must repeat exactly between two traced passes with the same seed
REPEATABLE = (
    "correspondence.chart_jet.calls",
    "verification.christoffels.calls",
    "verification.curvature_of_metric.calls",
    "tensor_core.sec_min_estimate.calls",
    "analysis.equator_mesh.calls",
    "correspondence.ambient_matrices.points",
)


def layer_values(stats: dict, jobs: int) -> dict:
    return {m.name: float(m.value(stats, jobs)) for m in LAYER_METRICS}
