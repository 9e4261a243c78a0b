"""Command-line interface.

Subcommands: ``gen`` writes model or random curvature tensors (and the bump
negative-control fixture) as JSON; ``verify`` runs the verification suite on a
tensor or fixture file and exits 1 if any check fails; ``area``, ``spectrum``
and ``radon`` export equator-area scans, Jacobi spectra and great-sphere
transforms as CSV; ``act`` applies a group element to a tensor file.  Exit
codes: 0 success, 1 verification failure, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .analysis import (
    _galerkin_order,
    build_jacobi_galerkin,
    equator_area,
    funk_radon,
    jacobi_spectrum_probe,
    left_invariant_metric,
)
from .correspondence import metric_from_curv
from .parallel import _one_blas_thread
from .sphere_geom import Equator, _random_normals, sphere_quadrature, tangent_frame
from .tableio import write_csv, write_json
from .tensor_core import (
    _file_dimension,
    _require_array,
    _require_memory,
    _tensor_from_payload,
    act,
    constant_curvature,
    fubini_study,
    load_matrix,
    load_tensor,
    random_positive,
    save_tensor,
)
from .verification import DEFAULT_TOLERANCES, BumpMetric, verify_metric, verify_tensor

BUMP_FORMAT = "bump-metric-v1"

CHECK_NAMES = tuple(DEFAULT_TOLERANCES)


@dataclass
class RunConfig:
    """Parameters of one CLI invocation, embedded in every report."""

    command: str
    seed: int = 0
    version: str = __version__
    params: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)


def _emit(payload: dict) -> None:
    """Print one JSON document; nothing is written if it does not encode."""
    sys.stdout.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")


def _require_at_least_one(args, *names) -> None:
    for name in names:
        if getattr(args, name) < 1:
            raise ValueError(f"--{name} must be at least 1, got {getattr(args, name)}")


def _load_subject(path: str):
    """Load a tensor file or a bump fixture; returns ('tensor', R) or ('bump', g)."""
    with open(path) as fh:
        head = json.load(fh)
    if isinstance(head, dict) and head.get("format") == BUMP_FORMAT:
        g = BumpMetric(
            n=_file_dimension(path, head),
            amplitude=float(head["amplitude"]),
            width=float(head["width"]),
            center=np.asarray(head["center"], dtype=float),
            direction=np.asarray(head["direction"], dtype=float),
        )
        return "bump", g
    return "tensor", _tensor_from_payload(path, head)


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    config = RunConfig("gen", seed=args.seed, params={"kind": args.kind})
    _require_memory({"fubini-study": 2 * args.m + 1, "left-invariant": 3}.get(args.kind, args.n))
    if args.kind == "round":
        R = constant_curvature(args.n, 1.0)
        info = {"kind": "round", "n": args.n}
    elif args.kind == "fubini-study":
        R = fubini_study(args.m)
        info = {"kind": "fubini-study", "m": args.m, "n": 2 * args.m + 1}
    elif args.kind == "left-invariant":
        _, R = left_invariant_metric(args.a, args.b, args.c)
        info = {"kind": "left-invariant", "coefficients": [args.a, args.b, args.c], "n": 3}
    elif args.kind == "random":
        R, margin, eps = random_positive(args.n, args.seed, target_margin=args.margin)
        info = {
            "kind": "random",
            "n": args.n,
            "seed": args.seed,
            "positivity_margin": margin,
            "step": eps,
        }
    elif args.kind == "bump":
        g = BumpMetric(n=args.n, amplitude=args.amplitude, width=args.width)
        payload = {
            "format": BUMP_FORMAT,
            "n": g.n,
            "amplitude": g.amplitude,
            "width": g.width,
            "center": g.center.tolist(),
            "direction": g.direction.tolist(),
        }
        write_json(args.out, payload)
        _emit({"config": config.as_dict(), "written": args.out, "info": {"kind": "bump"}})
        return 0
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown kind {args.kind}")
    save_tensor(R, args.out)
    _emit({"config": config.as_dict(), "written": args.out, "info": info})
    return 0


# ---------------------------------------------------------------------------
# verify


def _bump_probe_pairs(g: BumpMetric, points: int = 12):
    """Equators through the bump center with points walking into the bump.

    The normals mix the perturbation direction with its orthogonal
    complement: an equator whose normal is parallel or perpendicular to the
    direction is fixed by a reflection that preserves the metric, so its mean
    curvature vanishes identically and it cannot witness the perturbation.
    """
    center = g.center / np.linalg.norm(g.center)
    d = g.direction - (g.direction @ center) * center
    d /= np.linalg.norm(d)
    comp = [w - (w @ d) * d for w in tangent_frame(center) if abs(w @ d) < 0.9]
    a = comp[0] / np.linalg.norm(comp[0])
    normals = [d + a]
    if len(comp) > 1:  # on S^2 the complement of d in the tangent plane is one line
        b = comp[1] - (comp[1] @ a) * a
        b /= np.linalg.norm(b)
        normals += [d + b, d + a + b]
    ts = np.linspace(0.05, 0.6, points)
    pairs = []
    for v in normals:
        eq = Equator(v)
        u = d - (d @ eq.normal) * eq.normal
        u /= np.linalg.norm(u)
        pts = np.cos(ts)[:, None] * center + np.sin(ts)[:, None] * u
        pairs.append((eq.normal, pts))
    return pairs


def cmd_verify(args) -> int:
    _require_at_least_one(args, "equators", "points")
    tolerances = {}
    for name in CHECK_NAMES:
        val = getattr(args, f"tol_{name}")
        if val is not None:
            if not np.isfinite(val):
                raise ValueError(f"--tol-{name.replace('_', '-')} must be finite, got {val}")
            tolerances[name] = val
    kind, subject = _load_subject(args.input)
    _require_array(f"--equators {args.equators} --points {args.points}",  # the sweep's R contracted with q
                   args.equators * args.points * (subject.n + 1) ** 3)
    config = RunConfig(
        "verify",
        seed=args.seed,
        params={"input": args.input, "equators": args.equators, "points": args.points},
    )
    if kind == "tensor":
        report = verify_tensor(
            subject,
            seed=args.seed,
            tolerances=tolerances,
            equators=args.equators,
            points=args.points,
        )
    else:
        report = verify_metric(
            subject,
            seed=args.seed,
            tolerances=tolerances,
            equators=args.equators,
            points=args.points,
            extra_pairs=_bump_probe_pairs(subject),
        )
    payload = {"config": config.as_dict(), "report": report.as_dict()}
    if args.out:
        write_json(args.out, payload)
    _emit(payload)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# area / spectrum / radon


def _metric_from_file(path: str):
    kind, subject = _load_subject(path)
    if kind == "tensor":
        return metric_from_curv(subject, override=True)
    return subject


def _scan_normals(args, g) -> np.ndarray:
    """A scan's seeded equator normals, once its bases and node blocks are known to fit in memory."""
    _require_array(f"--equators {args.equators} --order {args.order}",
                   max(args.equators, 2 * args.order**2) * (g.n + 1) ** 2)
    return _random_normals(np.random.default_rng(args.seed), g.n, args.equators)


def cmd_area(args) -> int:
    _require_at_least_one(args, "equators", "order")
    g = _metric_from_file(args.input)
    normals = _scan_normals(args, g)
    areas = equator_area(g, normals, args.order)
    header = [f"v{i}" for i in range(g.n + 1)] + ["area"]
    write_csv(args.out, header, ([float(c) for c in v] + [float(a)] for v, a in zip(normals, areas)))
    mean = float(areas.mean())
    spread = float((areas.max() - areas.min()) / mean) if mean else float("inf")
    config = RunConfig(
        "area",
        seed=args.seed,
        params={"input": args.input, "equators": args.equators, "order": args.order},
    )
    _emit(
        {
            "config": config.as_dict(),
            "written": args.out,
            "mean_area": mean,
            "relative_spread": spread,
        }
    )
    return 0


def cmd_spectrum(args) -> int:
    if not (np.isfinite(args.null_tol) and args.null_tol >= 0.0):
        raise ValueError(f"--null-tol must be finite and >= 0, got {args.null_tol}")
    levels = args.L or [12]
    orders = [_galerkin_order(L) if args.order is None else args.order for L in levels]
    for L, order in zip(levels, orders):  # the mesh's chart bases, the Galerkin factor and matrices
        if L < 0:
            raise ValueError(f"--L must be at least 0, got {L}")
        _require_array(f"--L {L} --order {order}",
                       max(32 * order**2, (2 * L + 1) * order * (L + 1) ** 2, (L + 1) ** 4))
    g = _metric_from_file(args.input)
    if args.v:
        v = np.asarray([float(t) for t in args.v.split(",")])
        if v.shape != (g.n + 1,) or not np.all(np.isfinite(v)):
            raise ValueError(f"--v must be {g.n + 1} finite numbers for n={g.n}, got {args.v!r}")
        v = Equator(v)
    else:
        v = Equator(np.eye(g.n + 1)[0])
    rows = []
    summary = []
    for L, order in zip(levels, orders):
        gal = build_jacobi_galerkin(g, v, L, order=order)
        probe = jacobi_spectrum_probe(g, v, L, null_tol=args.null_tol, galerkin=gal)
        for idx, lam in enumerate(probe.eigenvalues):
            rows.append([L, idx, float(lam)])
        summary.append({"L": L, "order": probe.order, "n_negative": probe.n_negative, "n_null": probe.n_null,
                        "max_abs_mean_curvature": float(np.max(np.abs(gal.mesh.mean_curv)))})
    write_csv(args.out, ["L", "index", "eigenvalue"], rows)
    config = RunConfig(
        "spectrum",
        seed=0,
        params={"input": args.input, "L": levels, "null_tol": args.null_tol},
    )
    _emit({"config": config.as_dict(), "written": args.out, "levels": summary})
    return 0


def _radon_function(kind: str, seed: int, dim: int):
    if kind == "one":
        return lambda P: np.ones(P.shape[0])
    rng = np.random.default_rng(seed)
    c0 = rng.standard_normal()
    c1 = rng.standard_normal(dim)
    c2 = rng.standard_normal((dim, dim))
    c2 = 0.5 * (c2 + c2.T)

    def poly(P):
        return c0 + P @ c1 + np.einsum("ni,ij,nj->n", P, c2, P)

    return poly


def cmd_radon(args) -> int:
    _require_at_least_one(args, "equators", "order")
    g = _metric_from_file(args.input)
    f = _radon_function(args.f, args.f_seed, g.n + 1)
    normals = _scan_normals(args, g)
    values = funk_radon(g, f, normals, args.order)
    header = [f"v{i}" for i in range(g.n + 1)] + ["transform"]
    write_csv(args.out, header, ([float(c) for c in v] + [float(val)] for v, val in zip(normals, values)))
    reference = sphere_quadrature(g.n, 2).integrate(f)  # exact: f has degree at most 2
    config = RunConfig(
        "radon",
        seed=args.seed,
        params={
            "input": args.input,
            "equators": args.equators,
            "order": args.order,
            "f": args.f,
            "f_seed": args.f_seed,
        },
    )
    _emit(
        {
            "config": config.as_dict(),
            "written": args.out,
            "mean_transform": float(np.mean(values)),
            "sphere_integral": reference,
        }
    )
    return 0


def cmd_act(args) -> int:
    R = load_tensor(args.tensor)
    T = load_matrix(args.matrix)
    out = act(R, T)
    save_tensor(out, args.out)
    config = RunConfig("act", seed=0, params={"tensor": args.tensor, "matrix": args.matrix})
    _emit(
        {
            "config": config.as_dict(),
            "written": args.out,
            "n": out.n,
            "max_norm": out.max_norm(),
        }
    )
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache  # built on the first main() call, then reused
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equator-forge",
        description="Curvature tensors whose spheres have all equators minimal.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a tensor (or fixture) file")
    p.add_argument("kind", choices=["round", "fubini-study", "left-invariant", "random", "bump"])
    p.add_argument("--n", type=int, default=3, help="sphere dimension")
    p.add_argument("--m", type=int, default=2, help="complex dimension for fubini-study")
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--margin", type=float, default=0.1, help="positivity margin for random")
    p.add_argument("--amplitude", type=float, default=0.1, help="bump fixture amplitude")
    p.add_argument("--width", type=float, default=0.04, help="bump fixture width")
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="run the verification suite on a file")
    p.add_argument("input")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--equators", type=int, default=20)
    p.add_argument("--points", type=int, default=10)
    p.add_argument("--out", default=None, help="also write the JSON report here")
    for name in CHECK_NAMES:
        p.add_argument(
            f"--tol-{name.replace('_', '-')}",
            dest=f"tol_{name}",
            type=float,
            default=None,
            help=f"override tolerance of the {name} check",
        )

    p = sub.add_parser("area", help="CSV scan of equator areas")
    p.add_argument("input")
    p.add_argument("--equators", type=int, default=50)
    p.add_argument("--order", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("spectrum", help="CSV of Jacobi-operator eigenvalues")
    p.add_argument("input")
    p.add_argument("--v", default=None, help="comma-separated equator normal")
    p.add_argument("--L", type=int, action="append", default=None, help="basis degree (repeatable)")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--null-tol", dest="null_tol", type=float, default=1e-3)
    p.add_argument("--out", required=True)

    p = sub.add_parser("radon", help="CSV scan of the great-sphere transform")
    p.add_argument("input")
    p.add_argument("--equators", type=int, default=100)
    p.add_argument("--order", type=int, default=24)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--f", choices=["one", "poly"], default="poly")
    p.add_argument("--f-seed", dest="f_seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("act", help="apply a group element to a tensor file")
    p.add_argument("tensor")
    p.add_argument("matrix")
    p.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _one_blas_thread():  # small matrices: a second BLAS thread only spins
            return globals()[f"cmd_{args.command}"](args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
