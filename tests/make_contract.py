"""The CLI contract: twenty-five ``cli.main`` calls and the outputs they must keep.

Run ``PYTHONPATH=src python tests/make_contract.py`` from the repository root to rerun the calls in a
temporary directory and rewrite ``tests/contract.json``; ``tests/test_contract.py`` reruns them and
compares by each node's rule.  A regeneration keeps every committed node that the new output still
meets by that same comparison, so rounding moves nothing.  It replaces only the nodes that break their
rule or change keys or length, adds or drops calls at the end, and prints a line for each of them.

For each call the fixture holds the argv, the exit code, the stdout document and the file written to
``--out`` (a JSON document, or a CSV's header, row count and columns).  Every number is stored with its
rule:

- the ``config`` record, integers, strings, booleans, check tolerances and ``gen random``'s certified
  margin: exactly;
- a residual that is zero in exact arithmetic (a member's check residuals, a mesh's largest |H| below
  1e-6): ``{"max": b}``, the next power of ten at least twice its value and at least 1e-13;
- a residual of a metric outside the family (the bump's) and an area scan's relative spread, a
  difference of nearly equal areas: ``{"atol": 1e-13, "value": x}``;
- any other float: ``{"rtol": 1e-12, "value": x}``, and a list of floats ``{"rtol": 1e-12, "values": xs}``,
  relative to the largest entry.

No hash is stored: bits may follow the CPU's SIMD paths.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import pathlib
import tempfile

import numpy as np

from equator_forge.cli import main

FIXTURE = pathlib.Path(__file__).with_name("contract.json")

CALLS = (
    [["gen", "random", "--n", str(n), "--seed", "2", "--out", f"r{n}.json"] for n in (2, 3, 4, 5)]
    + [["verify", f"r{n}.json"] for n in (2, 3, 4, 5)]
    + [
        ["gen", "fubini-study", "--out", "fs.json"],
        ["verify", "fs.json"],
        ["gen", "bump", "--out", "bump.json"],
        ["verify", "bump.json"],
        ["gen", "left-invariant", "--a", "1", "--b", "2", "--c", "3", "--out", "li.json"],
        ["area", "r3.json", "--out", "area3.csv"],
        ["radon", "r3.json", "--f", "poly", "--out", "radon3.csv"],
        ["spectrum", "r3.json", "--L", "12", "--L", "16", "--out", "spectrum3.csv"],
        ["area", "r5.json", "--out", "area5.csv"],
        # at width 4 the random sweep, not the probe pairs, sets the bump's largest |H|
        ["gen", "bump", "--width", "4", "--out", "bump4.json"],
        ["verify", "bump4.json"],
        # an equator through the default bump: its spectrum counts (2, 1), on the full mesh a bump takes
        ["spectrum", "bump.json", "--v", "0,1,1,0", "--L", "12", "--out", "spectrum_bump.csv"],
        # the antipodal row maps: S^2's one circle, an even k on S^4, an odd order's self-mirrored theta row,
        # and a bump's scan, which evaluates every node
        ["area", "r2.json", "--out", "area2.csv"],
        ["radon", "r4.json", "--f", "poly", "--out", "radon4.csv"],
        ["spectrum", "r3.json", "--L", "12", "--order", "27", "--out", "spectrum27.csv"],
        ["area", "bump.json", "--order", "16", "--out", "area_bump.csv"],
        # a tilted member equator, where the mesh has no axis symmetry, and L = 0, whose odd-degree block is empty
        ["spectrum", "r3.json", "--v", "0.3,-0.5,0.2,0.9", "--L", "0", "--L", "16", "--out", "spectrum_tilted.csv"],
    ]
)

RTOL = 1e-12  # floats that are not residuals
ATOL = 1e-13  # the residuals of a metric outside the family, and area spreads
FLOOR = 1e-13  # the least bound of a residual at rounding level
RULES = [{"max"}, {"atol", "value"}, {"rtol", "value"}, {"rtol", "values"}]
EXACT = {"tolerance", "positivity_margin"}
ROUNDING = {"max_abs_mean_curvature"}  # zero in exact arithmetic on a member


def _read(path: pathlib.Path):
    """A written file: its JSON document, or a CSV as its header, row count and float columns."""
    if path.suffix == ".json":
        return json.loads(path.read_text())
    header, *rows = list(csv.reader(path.read_text().splitlines()))
    return {"header": header, "rows": len(rows),
            "columns": {h: [float(r[i]) for r in rows] for i, h in enumerate(header)}}


def run_calls(directory) -> list[dict]:
    """Run ``CALLS`` in order in ``directory``: each call's argv, exit code, stdout document and written file."""
    outputs, cwd = [], os.getcwd()
    os.chdir(directory)
    try:
        for argv in CALLS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(list(argv))
            written = pathlib.Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
            outputs.append({"argv": argv, "exit": code, "stdout": json.loads(out.getvalue()),
                            "file": _read(written) if written else None})
    finally:
        os.chdir(cwd)
    return outputs


def _bound(x: float) -> float:
    return max(FLOOR, 10.0 ** math.ceil(math.log10(2.0 * x))) if x > 0.0 else FLOOR


def spec(node, key=None, member=True):
    """``node`` with each float replaced by its rule; ``member`` is False inside a report on a metric."""
    if key == "config":
        return node
    if isinstance(node, dict):
        member = member and node.get("subject", "tensor") == "tensor"
        return {k: spec(v, k, member) for k, v in node.items()}
    if isinstance(node, list):
        if node and all(isinstance(v, float) for v in node):
            return {"rtol": RTOL, "values": node}
        return [spec(v, key, member) for v in node]
    if not isinstance(node, float) or key in EXACT:
        return node
    if (key == "residual" and not member) or key == "relative_spread":
        return {"atol": ATOL, "value": node}
    if key == "residual" or (key in ROUNDING and abs(node) < 1e-6):  # a bump's |H| is no rounding residual
        return {"max": _bound(node)}
    return {"rtol": RTOL, "value": node}


def _mismatches(want, got, path: str) -> list[str]:
    """Where ``got`` breaks the fixture node ``want``, as ``path: reason`` lines."""
    if isinstance(want, dict) and set(want) in RULES:
        if "values" in want:
            ref, val = np.asarray(want["values"]), np.asarray(got, dtype=float)
            ok = ref.shape == val.shape and np.max(np.abs(val - ref)) <= want["rtol"] * np.max(np.abs(ref))
        elif not isinstance(got, float):
            ok = False
        elif "max" in want:
            ok = abs(got) <= want["max"]
        else:
            ok = abs(got - want["value"]) <= want.get("atol", want.get("rtol", 0.0) * abs(want["value"]))
        return [] if ok else [f"{path}: {got!r} breaks {want}"]
    if isinstance(want, dict):
        if not isinstance(got, dict) or list(got) != list(want):
            return [f"{path}: keys {list(got) if isinstance(got, dict) else got!r} != {list(want)}"]
        return [m for k in want for m in _mismatches(want[k], got[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [m for i, (w, g) in enumerate(zip(want, got)) for m in _mismatches(w, g, f"{path}[{i}]")]
    return [] if (type(got), got) == (type(want), want) else [f"{path}: {got!r} != {want!r}"]


def _merge(want, got, new, path: str):
    """The fixture node ``want`` where ``got`` still meets it, else ``new`` (``got`` under its rules), walking
    down while keys and lengths agree; and the ``_mismatches`` lines of the nodes replaced."""
    if isinstance(want, dict) and set(want) not in RULES and isinstance(got, dict) and list(got) == list(want):
        parts = [_merge(want[k], got[k], new[k], f"{path}.{k}") for k in want]
    elif isinstance(want, list) and isinstance(got, list) and isinstance(new, list) and len(got) == len(want):
        parts = [_merge(w, g, m, f"{path}[{i}]") for i, (w, g, m) in enumerate(zip(want, got, new))]
    else:
        lines = _mismatches(want, got, path)
        return (new if lines else want), lines
    nodes = [node for node, _ in parts]
    return (dict(zip(want, nodes)) if isinstance(want, dict) else nodes), [m for _, lines in parts for m in lines]


def regenerate(committed: list, outputs: list) -> tuple[list, list[str]]:
    """The fixture for ``outputs``: each committed node that its output still meets, the output's rules where it
    breaks, and calls added or dropped at the end; with a line for each node replaced and each call added or
    dropped."""
    common = min(len(committed), len(outputs))
    fresh = [spec(call) for call in outputs]
    kept, lines = _merge(committed[:common], outputs[:common], fresh[:common], "")
    return kept + fresh[common:], lines + [
        f"[{i}]: {'added' if i < len(outputs) else 'dropped'}" for i in range(common, max(len(committed), len(outputs)))]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        outputs = run_calls(tmp)
    committed = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else []
    fixture, lines = regenerate(committed, outputs)
    for line in lines:
        print(line)
    FIXTURE.write_text(json.dumps(fixture, indent=1) + "\n")
    print(f"wrote {FIXTURE} ({len(fixture)} calls)")
