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

import numpy as np

from . import __version__
from .analysis import (
    _galerkin_order,
    build_jacobi_galerkin,
    funk_radon,
    jacobi_spectrum_probe,
    left_invariant_metric,
)
from .correspondence import metric_from_curv
from .parallel import _one_blas_thread
from .sphere_geom import Equator, _random_normals, sphere_quadrature
from .tableio import write_csv, write_json
from .tensor_core import (
    _file_array,
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
from .verification import DEFAULT_TOLERANCES, BumpMetric, _checked_tolerances, verify_metric, verify_tensor

BUMP_FORMAT = "bump-metric-v1"

# the bump file's numeric fields after n, with their rank: a number, or a vector of n + 1 numbers
BUMP_FIELDS = {"amplitude": 0, "width": 0, "center": 1, "direction": 1}

CHECK_NAMES = tuple(DEFAULT_TOLERANCES)


def _document(args, params, **fields) -> dict:
    """A command's stdout document: its run record (the command, seed, version and the ``params`` named
    from ``args``), then the command's own ``fields``."""
    config = {"command": args.command, "seed": getattr(args, "seed", 0), "version": __version__,
              "params": {name: getattr(args, name) for name in params}}
    return {"config": config, **fields}


def _emit(payload: dict) -> None:
    """Print one JSON document; nothing is written if it does not encode."""
    sys.stdout.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")


def _require_at_least_one(args, *names) -> None:
    for name in names:
        if getattr(args, name) < 1:
            raise ValueError(f"--{name} must be at least 1, got {getattr(args, name)}")


def _bump(**params) -> BumpMetric:
    """The bump fixture, if it is a metric: along the direction's part w_t tangent at p, g has the eigenvalue
    1 + amplitude h |w_t|^2 with h <= 1 and |w_t| <= |direction|, equal at a unit centre orthogonal to it."""
    g = BumpMetric(**params)
    if g.amplitude * (g.direction @ g.direction) <= -1.0:
        raise ValueError(f"bump is not a metric: amplitude {g.amplitude:g} * |direction|^2 must exceed -1")
    return g


def _load_subject(path: str):
    """Load a tensor file or a bump fixture; returns ('tensor', R) or ('bump', g)."""
    with open(path) as fh:
        head = json.load(fh)
    if isinstance(head, dict) and head.get("format") == BUMP_FORMAT:
        n = _file_dimension(path, head)
        fields = {k: _file_array(path, head, k, (n + 1,) * rank) for k, rank in BUMP_FIELDS.items()}
        return "bump", _bump(n=n, **fields)
    return "tensor", _tensor_from_payload(path, head)


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    kind = args.kind
    _require_memory({"fubini-study": 2 * args.m + 1, "left-invariant": 3}.get(kind, args.n))
    info = {"kind": kind, "n": args.n}
    if kind == "bump":
        g = _bump(n=args.n, amplitude=args.amplitude, width=args.width)
        write_json(args.out, {"format": BUMP_FORMAT, "n": g.n,
                              **{k: np.asarray(getattr(g, k)).tolist() for k in BUMP_FIELDS}})
        info = {"kind": kind}
    else:
        if kind == "round":
            R = constant_curvature(args.n, 1.0)
        elif kind == "fubini-study":
            R = fubini_study(args.m)
            info = {"kind": kind, "m": args.m, "n": 2 * args.m + 1}
        elif kind == "left-invariant":
            _, R = left_invariant_metric(args.a, args.b, args.c)
            info = {"kind": kind, "coefficients": [args.a, args.b, args.c], "n": 3}
        else:  # random
            R, margin, eps = random_positive(args.n, args.seed, target_margin=args.margin)
            info.update(seed=args.seed, positivity_margin=margin, step=eps)
        save_tensor(R, args.out)
    _emit(_document(args, ["kind"], written=args.out, info=info))
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    _require_at_least_one(args, "equators", "points")
    tolerances = {name: val for name in CHECK_NAMES if (val := getattr(args, f"tol_{name}")) is not None}
    _checked_tolerances(tolerances, lambda name: f"--tol-{name.replace('_', '-')}")
    kind, subject = _load_subject(args.input)
    _require_array(f"--equators {args.equators} --points {args.points}",  # the sweep's R contracted with q
                   args.equators * args.points * (subject.n + 1) ** 3)
    run = verify_tensor if kind == "tensor" else verify_metric
    report = run(subject, seed=args.seed, tolerances=tolerances, equators=args.equators, points=args.points)
    payload = _document(args, ["input", "equators", "points"], report=report.as_dict())
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


def _scan(args, column: str, integrand=lambda dim: None):
    """``area`` and ``radon``: one CSV row per seeded equator of the file's metric g, its normal and then, as
    ``column``, the integral of f = ``integrand(n + 1)`` over it (f = None integrates 1).  Returns g, f and
    the values.  The normals are drawn once their bases and node blocks are known to fit in memory.
    """
    _require_at_least_one(args, "equators", "order")
    g = _metric_from_file(args.input)
    f = integrand(g.n + 1)
    _require_array(f"--equators {args.equators} --order {args.order}",
                   max(args.equators, 2 * args.order**2) * (g.n + 1) ** 2)
    normals = _random_normals(np.random.default_rng(args.seed), g.n, args.equators)
    values = funk_radon(g, f, normals, args.order)
    header = [f"v{i}" for i in range(g.n + 1)] + [column]
    write_csv(args.out, header, ([float(c) for c in v] + [float(x)] for v, x in zip(normals, values)))
    return g, f, values


def cmd_area(args) -> int:
    _, _, areas = _scan(args, "area")
    mean = float(areas.mean())
    spread = float((areas.max() - areas.min()) / mean) if mean else float("inf")
    _emit(_document(args, ["input", "equators", "order"], written=args.out, mean_area=mean, relative_spread=spread))
    return 0


def cmd_spectrum(args) -> int:
    if not (np.isfinite(args.null_tol) and args.null_tol >= 0.0):
        raise ValueError(f"--null-tol must be finite and >= 0, got {args.null_tol}")
    levels = args.L = args.L or [12]  # the run record shows the levels run
    orders = []
    for L in levels:  # the degree, the mesh order, then the mesh's chart bases, the Galerkin factor and matrices
        if L < 0:
            raise ValueError(f"--L must be at least 0, got {L}")
        orders.append(order := _galerkin_order(L, args.order))
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
    _emit(_document(args, ["input", "L", "null_tol"], written=args.out, levels=summary))
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
    g, f, values = _scan(args, "transform", functools.partial(_radon_function, args.f, args.f_seed))
    reference = sphere_quadrature(g.n, 2).integrate(f)  # exact: f has degree at most 2
    _emit(_document(args, ["input", "equators", "order", "f", "f_seed"], written=args.out,
                    mean_transform=float(np.mean(values)), sphere_integral=reference))
    return 0


def cmd_act(args) -> int:
    out = act(load_tensor(args.tensor), load_matrix(args.matrix))
    save_tensor(out, args.out)
    _emit(_document(args, ["tensor", "matrix"], written=args.out, n=out.n, max_norm=out.max_norm()))
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

    def scan_parser(name: str, help: str, equators: int, order: int) -> argparse.ArgumentParser:
        """The options ``area`` and ``radon`` share, with the command's defaults."""
        p = sub.add_parser(name, help=help)
        p.add_argument("input")
        p.add_argument("--equators", type=int, default=equators)
        p.add_argument("--order", type=int, default=order)
        p.add_argument("--seed", type=int, default=0)
        return p

    p = scan_parser("area", "CSV scan of equator areas", 50, 32)
    p.add_argument("--out", required=True)

    p = sub.add_parser("spectrum", help="CSV of Jacobi-operator eigenvalues")
    p.add_argument("input")
    p.add_argument("--v", default=None, help="comma-separated equator normal")
    p.add_argument("--L", type=int, action="append", default=None, help="basis degree (repeatable)")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--null-tol", dest="null_tol", type=float, default=1e-3)
    p.add_argument("--out", required=True)

    p = scan_parser("radon", "CSV scan of the great-sphere transform", 100, 24)
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
