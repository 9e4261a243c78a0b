import contextlib
import csv
import io
import json
import os
import threading
import time

import numpy as np
import pytest

from equator_forge import cli, parallel
from equator_forge.analysis import build_jacobi_galerkin
from equator_forge.correspondence import metric_from_curv
from equator_forge.parallel import _one_blas_thread, tmap
from equator_forge.sphere_geom import Equator
from equator_forge.tensor_core import constant_curvature
from equator_forge.tableio import write_csv, write_json


def test_write_csv_roundtrips_floats(tmp_path):
    path = tmp_path / "table.csv"
    value = 1.0 / 3.0
    write_csv(path, ["name", "x"], [["a", value], ["b", 2]])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["name", "x"]
    assert float(rows[1][1]) == value  # 17 significant digits survive parsing
    assert rows[2] == ["b", "2"]


def test_write_json_is_parseable(tmp_path):
    path = tmp_path / "out.json"
    payload = {"a": [1, 2.5], "b": {"c": None}}
    write_json(path, payload)
    with open(path) as fh:
        assert json.load(fh) == payload
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]


def test_write_overwrites_atomically(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"v": 1})
    write_json(path, {"v": 2})
    with open(path) as fh:
        assert json.load(fh) == {"v": 2}


def test_tmap_preserves_order():
    assert tmap(lambda i: i * i, range(40)) == [i * i for i in range(40)]
    assert tmap(np.sqrt, []) == []


def test_spectrum_starts_no_thread(monkeypatch, tmp_path):
    tensor = str(tmp_path / "t.json")
    assert _main("gen", "random", "--n", "3", "--seed", "1", "--out", tensor) == 0

    def refuse(self):
        raise AssertionError(f"thread {self.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert _main("spectrum", tensor, "--L", "4", "--L", "6", "--out", str(tmp_path / "s.csv")) == 0


@pytest.fixture
def blas_counts():
    """Every loaded OpenBLAS (scipy's too) set to 2 threads; the counts are restored after."""
    import scipy.linalg  # noqa: F401  scipy's own OpenBLAS loads with it

    controls = parallel._openblas_controls()
    if not controls:
        pytest.skip("no OpenBLAS with a known thread-count symbol is loaded")
    saved = [get() for get, _ in controls]
    for _, put in controls:
        put(2)
    yield lambda: [get() for get, _ in controls]
    for (_, put), count in zip(controls, saved):
        put(count)


def _main(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))


def test_a_command_runs_on_one_blas_thread(blas_counts, monkeypatch):
    seen = []

    def command(args):
        seen.append(blas_counts())
        return 0

    monkeypatch.setattr(cli, "cmd_area", command)
    assert _main("area", "unused.json", "--out", "unused.csv") == 0
    assert seen and all(count == 1 for count in seen[0])
    assert blas_counts() == [2] * len(seen[0])


def test_commands_restore_the_callers_blas_threads(blas_counts, tmp_path):
    tensor = str(tmp_path / "t.json")
    before = blas_counts()
    for argv, code in (
        (("gen", "round", "--n", "3", "--out", tensor), 0),
        # spectrum's eigensolves run inside the command's guard
        (("spectrum", tensor, "--L", "4", "--out", str(tmp_path / "s.csv")), 0),
        (("verify", str(tmp_path / "missing.json")), 2),
    ):
        assert _main(*argv) == code
        assert blas_counts() == before


def test_the_guard_is_reentrant_and_restores_after_an_exception(blas_counts):
    gal = build_jacobi_galerkin(metric_from_curv(constant_curvature(3, 1.0)),
                                Equator(np.eye(4)[0]), 4)
    with pytest.raises(RuntimeError):
        with _one_blas_thread():
            with _one_blas_thread():  # a nested guard
                gal.eigenvalues()
            assert set(blas_counts()) == {1}
            raise RuntimeError("body failed")
    assert set(blas_counts()) == {2}
    gal.eigenvalues()
    assert set(blas_counts()) == {2}


def test_the_guard_does_nothing_without_openblas(blas_counts, monkeypatch):
    monkeypatch.setattr(parallel, "_openblas_paths", lambda: [])
    monkeypatch.setattr(parallel, "_blas_controls", [None, []])
    with _one_blas_thread():
        assert parallel._openblas_controls() == []
        assert set(blas_counts()) == {2}
    assert set(blas_counts()) == {2}


def _openblas_loaded() -> bool:
    try:
        with open("/proc/self/maps") as fh:
            return any("openblas" in line for line in fh)
    except OSError:
        return False


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores")
def test_commands_leave_no_spinning_blas_thread(blas_counts, tmp_path):
    # after a threaded call, an idle OpenBLAS worker busy-waits for ~0.13 s of CPU; blas_counts
    # gives the commands a two-thread caller, as outside the test suite's one-thread guard
    if not _openblas_loaded():
        pytest.skip("no OpenBLAS loaded")
    member, s3 = str(tmp_path / "m.json"), str(tmp_path / "s3.json")
    assert _main("gen", "random", "--n", "5", "--seed", "1", "--out", member) == 0
    assert _main("gen", "random", "--n", "3", "--seed", "1", "--out", s3) == 0
    for argv in (("verify", member), ("spectrum", s3, "--L", "16", "--out", str(tmp_path / "s.csv"))):
        time.sleep(0.3)  # let any earlier spin end
        assert _main(*argv) == 0
        start = time.process_time()
        time.sleep(0.3)
        spin = time.process_time() - start
        assert spin < 0.03, f"{argv[0]}: {spin * 1e3:.0f} ms of CPU while the process slept"
