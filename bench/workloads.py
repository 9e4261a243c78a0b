"""The benchmark's workloads: job lists built from a seeded generator.

Each pass of a run draws a fresh job list from its own generator, seeded by
the workload seed and the pass index, so a run averages over the inputs of
several passes and the same seed always gives the same inputs.  A job is one
unit of user work.  ``run`` does the program's work and is
timed; ``check`` inspects what ``run`` returned with the benchmark's own code
and is not timed.  Checks return ``(problems, residuals)`` and never raise.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable


from . import checks, inputs


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple]


@dataclass
class Workload:
    name: str
    why: str
    mix: str
    sizes: tuple  # sphere dimensions n whose first-use caches set-up fills
    build: Callable  # (program, rng, workdir) -> list[Job] for one pass


def _call_cli(cli, argv):
    """Run ``cli.main(argv)`` in-process; returns (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _parse(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# forge: the quick-start chain R -> g -> k -> R


FORGE_SIZES = (2, 3, 4, 5)


def _forge_job(ef, n: int, seed: int) -> Job:
    def run():
        R, _, _ = ef.random_positive(n, seed)
        g = ef.metric_from_curv(R, override=True)
        k = ef.killing_from_metric(g)
        return R.coeffs, ef.curv_from_killing(k).coeffs

    return Job(f"forge n={n} seed={seed}", run, lambda out: checks.check_forge(*out))


def build_forge(program, rng, workdir: str) -> list[Job]:
    seeds = rng.integers(0, 2**31 - 1, size=len(FORGE_SIZES))
    return [_forge_job(program.package, n, int(s)) for n, s in zip(FORGE_SIZES, seeds)]


# ---------------------------------------------------------------------------
# verify: the verify command on member tensors and bump fixtures


VERIFY_SIZES = (3, 4, 5)


def _verify_job(cli, path: str, label: str, check) -> Job:
    def run():
        return _call_cli(cli, ["verify", path])

    return Job(label, run, lambda out: check(out[0], _parse(out[1])))


def build_verify(program, rng, workdir: str) -> list[Job]:
    jobs = []
    for n in VERIFY_SIZES:
        R, eps = inputs.member_tensor(n, rng)
        path = os.path.join(workdir, f"member-n{n}.json")
        inputs.write_tensor(path, R)
        jobs.append(_verify_job(program.cli, path, f"verify member n={n} eps={eps:.3f}",
                                checks.check_verify_member))
        path = os.path.join(workdir, f"bump-n{n}.json")
        inputs.write_bump(path, inputs.bump_fixture(n, rng))
        jobs.append(_verify_job(program.cli, path, f"verify bump n={n}", checks.check_verify_bump))
    return jobs


# ---------------------------------------------------------------------------
# spectrum: Jacobi spectra, an area scan and the Funk-Radon transform of 1 on S^3


SPECTRUM_LEVELS = (12, 16)
SCAN_ORDER = 32
SCAN_EQUATORS = 50


def _spectrum_job(cli, path: str, outdir: str, scan_seed: int, label: str) -> Job:
    files = {cmd: os.path.join(outdir, f"{cmd}.csv") for cmd in ("spectrum", "area", "radon")}
    scan = ["--order", str(SCAN_ORDER), "--equators", str(SCAN_EQUATORS), "--seed", str(scan_seed)]
    levels = [arg for L in SPECTRUM_LEVELS for arg in ("--L", str(L))]
    argvs = {
        "spectrum": ["spectrum", path, *levels, "--out", files["spectrum"]],
        "area": ["area", path, *scan, "--out", files["area"]],
        "radon": ["radon", path, "--f", "one", *scan, "--out", files["radon"]],
    }

    def run():
        return {cmd: _call_cli(cli, argv) for cmd, argv in argvs.items()}

    def check(out):
        codes = {cmd: code for cmd, (code, _) in out.items()}
        try:
            areas = checks.read_csv_column(files["area"], "area")
            radons = checks.read_csv_column(files["radon"], "transform")
        except (OSError, KeyError, ValueError) as exc:
            return [f"unreadable scan output: {exc}"], []
        return checks.check_spectrum(codes, _parse(out["spectrum"][1]), _parse(out["area"][1]),
                                     areas, radons)

    return Job(label, run, check)


def build_spectrum(program, rng, workdir: str) -> list[Job]:
    R, eps = inputs.member_tensor(3, rng)
    path = os.path.join(workdir, "spectrum-n3.json")
    inputs.write_tensor(path, R)
    scan_seed = int(rng.integers(0, 2**31 - 1))
    return [_spectrum_job(program.cli, path, workdir, scan_seed, f"spectrum n=3 eps={eps:.3f}")]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "forge",
            "The quick-start chain spends about 99% of its time in the positivity probe of "
            "random_positive; it uses no chart jets, meshes or thread pool.",
            "random_positive -> metric_from_curv(override) -> killing_from_metric -> "
            "curv_from_killing for n = 2, 3, 4, 5, one seed each",
            FORGE_SIZES,
            build_forge,
        ),
        Workload(
            "verify",
            "The verify command spends most of its time in first-order chart jets of the "
            "mean-curvature sweep, plus one positivity probe and the tmap pool.",
            "verify on one member tensor R0 + eps U and one bump fixture for each n = 3, 4, 5",
            VERIFY_SIZES,
            build_verify,
        ),
        Workload(
            "spectrum",
            "Jacobi meshes need second-order jets and curvature per node, then harmonics, "
            "Galerkin assembly and eigensolves; area and radon use batched ambient matrices.",
            "spectrum --L 12 --L 16, area --order 32 and radon --f one --order 32 on one "
            "S^3 member tensor",
            (3,),
            build_spectrum,
        ),
    )
}
