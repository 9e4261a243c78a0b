import csv
import filecmp
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import equator_forge
from equator_forge import correspondence, tensor_core, verification
from equator_forge.cli import _emit, main
from equator_forge.correspondence import metric_from_curv
from equator_forge.tableio import write_json
from equator_forge.tensor_core import (
    CurvatureTensor,
    DegenerateInputError,
    DimensionError,
    GroupElement,
    PositivityError,
    constant_curvature,
    _require_memory,
    curv_dim,
    is_positive,
    load_tensor,
    save_matrix,
    save_tensor,
    sectional,
    tensor_from_basis,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


def test_version_flag():
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


def test_gen_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code, payload, _ = run(capsys, "gen", "random", "--n", "3", "--seed", "7", "--out", str(a))
    assert code == 0
    assert payload["info"]["positivity_margin"] > 0.0
    assert payload["config"]["seed"] == 7
    code, _, _ = run(capsys, "gen", "random", "--n", "3", "--seed", "7", "--out", str(b))
    assert code == 0
    assert filecmp.cmp(a, b, shallow=False)
    R = load_tensor(a)
    assert R.n == 3


def test_gen_round_and_loadable(tmp_path, capsys):
    out = tmp_path / "round.json"
    code, payload, _ = run(capsys, "gen", "round", "--n", "3", "--out", str(out))
    assert code == 0
    assert payload["written"] == str(out)
    R = load_tensor(out)
    assert R.coeffs.shape == (4, 4, 4, 4)


def test_gen_fubini_study_m1_is_an_input_error(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "fubini-study", "--m", "1", "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["left-invariant", "--a", "nan"],
        ["left-invariant", "--b", "inf"],
        ["bump", "--width", "0"],
        ["bump", "--width", "nan"],
        ["bump", "--amplitude", "inf"],
        ["bump", "--n", "1"],
        ["bump", "--amplitude", "-2"],
    ],
)
def test_gen_rejects_bad_model_parameters(tmp_path, capsys, argv):
    out = tmp_path / "x.json"
    code, _, err = run(capsys, "gen", *argv, "--out", str(out))
    assert code == 2
    assert "error:" in err
    assert not out.exists()


def test_verify_rejects_zero_width_bump_fixture(tmp_path, capsys):
    fixture = tmp_path / "bump.json"
    fixture.write_text(json.dumps({
        "format": "bump-metric-v1", "n": 3, "amplitude": 0.1, "width": 0.0,
        "center": [1.0, 0.0, 0.0, 0.0], "direction": [0.0, 1.0, 0.0, 0.0],
    }))
    report = tmp_path / "report.json"
    code, _, err = run(capsys, "verify", str(fixture), "--out", str(report))
    assert code == 2
    assert "error:" in err
    assert not report.exists()


@pytest.mark.parametrize(
    "center, direction",
    [
        ([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]),  # zero direction
        ([float("nan"), 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]),  # NaN centre
        ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]),  # centre of the wrong length
        ([0.6, 0.8, 0.0, 0.0], [-1.2, -1.6, 0.0, 0.0]),  # direction parallel to the centre
    ],
)
def test_verify_rejects_degenerate_bump_geometry(tmp_path, capsys, center, direction):
    fixture = tmp_path / "bump.json"
    fixture.write_text(json.dumps({
        "format": "bump-metric-v1", "n": 3, "amplitude": 0.1, "width": 0.04,
        "center": center, "direction": direction,
    }))
    code, payload, err = run(capsys, "verify", str(fixture))
    assert code == 2
    assert payload is None
    assert "error:" in err
    assert "Traceback" not in err


def test_verify_bump_fixture_on_s2_fails(tmp_path, capsys):
    fixture = tmp_path / "bump.json"
    assert run(capsys, "gen", "bump", "--n", "2", "--out", str(fixture))[0] == 0
    code, payload, _ = run(capsys, "verify", str(fixture), "--equators", "3", "--points", "3")
    assert code == 1
    assert payload["report"]["checks"]["mean_curvature"]["residual"] > 1e-2


def test_verify_an_s2_bump_whose_centre_has_two_probe_directions(tmp_path, capsys):
    # both tangent vectors at this centre pass the probe filter, and on S^2 they span one line
    fixture = tmp_path / "bump.json"
    write_json(str(fixture), {
        "format": "bump-metric-v1", "n": 2, "amplitude": 0.1, "width": 0.04,
        "center": [-0.3633046792124539, 0.023497237666401986, -0.9313740332886593],
        "direction": [-0.540420892887301, -0.8196324756084776, 0.19012591474812277]})
    code, payload, err = run(capsys, "verify", str(fixture))
    assert code == 1 and err == ""
    assert payload["report"]["checks"]["mean_curvature"]["residual"] > 0.2


def test_verify_random_tensor_passes(tmp_path, capsys):
    tensor = tmp_path / "t.json"
    run(capsys, "gen", "random", "--n", "3", "--seed", "3", "--out", str(tensor))
    report_path = tmp_path / "report.json"
    code, payload, _ = run(
        capsys, "verify", str(tensor),
        "--equators", "4", "--points", "4", "--out", str(report_path),
    )
    assert code == 0
    assert payload["report"]["pass"] is True
    assert set(payload["report"]["checks"]) == {
        "symmetry", "positivity", "roundtrip", "killing_constancy",
        "mean_curvature", "metric_equation", "equivariance", "antipodal",
    }
    with open(report_path) as fh:
        assert json.load(fh) == payload


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_verify_reports_the_roundtrips_polarization_points(tmp_path, capsys, n):
    tensor = tmp_path / "t.json"
    run(capsys, "gen", "round", "--n", str(n), "--out", str(tensor))
    code, payload, _ = run(capsys, "verify", str(tensor), "--equators", "2", "--points", "2")
    assert code == 0
    assert payload["report"]["checks"]["roundtrip"]["samples"] == (n + 1) * (n + 2) // 2


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_verify_rejects_non_finite_tolerance(tmp_path, capsys, value):
    tensor = tmp_path / "round.json"
    run(capsys, "gen", "round", "--n", "3", "--out", str(tensor))
    code, payload, err = run(capsys, "verify", str(tensor), "--tol-roundtrip", value)
    assert code == 2
    assert "error:" in err and "--tol-roundtrip must be finite" in err
    assert payload is None


@pytest.mark.parametrize("name", ["symmetry", "positivity", "roundtrip", "killing_constancy",
                                  "mean_curvature", "metric_equation", "equivariance", "antipodal"])
def test_verify_rejects_a_negative_tolerance_before_reading_the_input(tmp_path, capsys, name):
    # a negative tolerance fails every check: exit 1 would claim a member is not in the family
    tensor = tmp_path / "t.json"
    run(capsys, "gen", "random", "--n", "3", "--seed", "2", "--out", str(tensor))
    option = f"--tol-{name.replace('_', '-')}"
    for path in (tensor, tmp_path / "missing.json"):
        code, payload, err = run(capsys, "verify", str(path), f"{option}=-1e-30")
        assert code == 2 and payload is None
        assert f"error: {option} must be finite and >= 0" in err and "Traceback" not in err


def test_verify_rejects_a_negative_plane_for_every_seed(tmp_path, capsys):
    # U is the unit direction random_positive(5, seed=1) draws; R0 + t U has the
    # least sectional curvature 1 + t lower(U) = -0.05.  A seeded 8 x 250
    # descent probe passed this tensor with seed 18.
    u = np.random.default_rng(1).standard_normal(curv_dim(5))
    U = tensor_from_basis(5, u / np.linalg.norm(u))
    cert = is_positive(U)
    t = 1.05 / -cert.lower
    R = CurvatureTensor(constant_curvature(5).coeffs + t * U.coeffs)
    assert sectional(R, cert.x, cert.y) < -0.049
    path = tmp_path / "negative.json"
    save_tensor(R, str(path))
    for seed in range(20):
        code, payload, _ = run(capsys, "verify", str(path), "--seed", str(seed))
        assert code == 1
        assert not payload["report"]["checks"]["positivity"]["pass"]
    with pytest.raises(PositivityError):
        metric_from_curv(R)


def test_verify_tolerance_override_can_fail(tmp_path, capsys):
    tensor = tmp_path / "t.json"
    run(capsys, "gen", "random", "--n", "3", "--seed", "3", "--out", str(tensor))
    code, payload, _ = run(
        capsys, "verify", str(tensor),
        "--equators", "2", "--points", "2", "--tol-roundtrip", "0",
    )
    assert code == 1
    assert payload["report"]["checks"]["roundtrip"]["pass"] is False
    assert payload["report"]["checks"]["roundtrip"]["tolerance"] == 0.0


def test_verify_bump_fixture_fails(tmp_path, capsys):
    fixture = tmp_path / "bump.json"
    code, _, _ = run(capsys, "gen", "bump", "--n", "3", "--out", str(fixture))
    assert code == 0
    with open(fixture) as fh:
        assert json.load(fh)["format"] == "bump-metric-v1"
    code, payload, _ = run(capsys, "verify", str(fixture), "--equators", "5", "--points", "5")
    assert code == 1
    checks = payload["report"]["checks"]
    assert checks["mean_curvature"]["pass"] is False
    assert checks["mean_curvature"]["residual"] > 1e-2
    assert checks["killing_constancy"]["pass"] is False
    assert checks["metric_equation"]["pass"] is False
    assert checks["antipodal"]["pass"] is False


def test_verify_missing_and_malformed_files(tmp_path, capsys):
    code, _, err = run(capsys, "verify", str(tmp_path / "nope.json"))
    assert code == 2
    assert "error:" in err
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "bogus"}\n')
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2
    assert "error:" in err


def test_area_scan_csv(tmp_path, capsys):
    tensor = tmp_path / "berger.json"
    run(capsys, "gen", "left-invariant", "--a", "1", "--b", "1", "--c", "4", "--out", str(tensor))
    out = tmp_path / "areas.csv"
    code, payload, _ = run(
        capsys, "area", str(tensor), "--equators", "5", "--order", "24", "--out", str(out)
    )
    assert code == 0
    assert payload["relative_spread"] < 1e-8
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["v0", "v1", "v2", "v3", "area"]
    assert len(rows) == 6
    areas = [float(r[-1]) for r in rows[1:]]
    assert np.allclose(areas, payload["mean_area"], rtol=1e-8)


def test_spectrum_csv(tmp_path, capsys):
    tensor = tmp_path / "round.json"
    run(capsys, "gen", "round", "--n", "3", "--out", str(tensor))
    out = tmp_path / "spec.csv"
    code, payload, _ = run(
        capsys, "spectrum", str(tensor), "--L", "8", "--v", "1,0,0,0", "--out", str(out)
    )
    assert code == 0
    level = payload["levels"][0]
    assert (level["n_negative"], level["n_null"]) == (1, 3)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["L", "index", "eigenvalue"]
    assert len(rows) == 1 + 81  # (L+1)^2 basis functions at L=8
    assert abs(float(rows[1][2]) + 2.0) < 1e-9


def test_spectrum_defaults_to_L12(tmp_path, capsys):
    tensor = tmp_path / "round.json"
    run(capsys, "gen", "round", "--n", "3", "--out", str(tensor))
    out = tmp_path / "spec.csv"
    code, payload, _ = run(capsys, "spectrum", str(tensor), "--out", str(out))
    assert code == 0
    assert [level["L"] for level in payload["levels"]] == [12]
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 169  # (L+1)^2 basis functions at L=12
    assert {r[0] for r in rows[1:]} == {"12"}


def test_spectrum_reports_the_mesh_mean_curvature(tmp_path, capsys):
    member, bump, out = (str(tmp_path / name) for name in ("m.json", "b.json", "spec.csv"))
    run(capsys, "gen", "random", "--n", "3", "--seed", "7", "--out", member)
    run(capsys, "gen", "bump", "--n", "3", "--out", bump)
    code, payload, _ = run(capsys, "spectrum", member, "--L", "8", "--L", "12", "--out", out)
    assert code == 0
    assert [level["max_abs_mean_curvature"] < 1e-10 for level in payload["levels"]] == [True, True]
    # an equator through the bump centre, its normal mixing the bump direction with another axis
    # (the default equator, normal e_0, lies a quarter circle from the bump centre e_0)
    code, payload, _ = run(capsys, "spectrum", bump, "--L", "8", "--v", "0,1,1,0", "--out", out)
    assert code == 0 and payload["levels"][0]["max_abs_mean_curvature"] > 1e-3


def test_radon_constant_function(tmp_path, capsys):
    tensor = tmp_path / "round.json"
    run(capsys, "gen", "round", "--n", "3", "--out", str(tensor))
    out = tmp_path / "radon.csv"
    code, payload, _ = run(
        capsys, "radon", str(tensor), "--equators", "3", "--order", "16",
        "--f", "one", "--out", str(out),
    )
    assert code == 0
    assert abs(payload["mean_transform"] - 4.0 * np.pi) < 1e-9
    assert abs(payload["sphere_integral"] - 2.0 * np.pi**2) < 1e-9
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 4
    assert abs(float(rows[1][-1]) - 4.0 * np.pi) < 1e-9


def test_radon_sphere_integral_of_a_quadratic_on_s5_is_exact(tmp_path, capsys):
    # the integral comes from a fixed low-order rule: exact for degree <= 3, and cheap on S^5
    tensor, out = str(tmp_path / "t.json"), str(tmp_path / "radon.csv")
    run(capsys, "gen", "round", "--n", "5", "--out", tensor)
    code, payload, _ = run(capsys, "radon", tensor, "--f", "poly", "--f-seed", "3", "--order", "16",
                           "--equators", "2", "--out", out)
    assert code == 0
    rng = np.random.default_rng(3)  # poly's draws: c0, c1, then c2
    c0, _, c2 = rng.standard_normal(), rng.standard_normal(6), rng.standard_normal((6, 6))
    volume = np.pi**3  # |S^5|
    exact = c0 * volume + np.trace(c2) * volume / 6
    assert abs(payload["sphere_integral"] - exact) <= 1e-12 * abs(exact)


def test_radon_of_one_is_the_area_scan(tmp_path, capsys):
    tensor, areas, radons = (str(tmp_path / name) for name in ("t.json", "area.csv", "radon.csv"))
    run(capsys, "gen", "random", "--n", "3", "--seed", "7", "--out", tensor)
    scan = ["--order", "32", "--equators", "9", "--seed", "4"]  # 9 equators of 2,048 nodes: three blocks
    assert run(capsys, "area", tensor, *scan, "--out", areas)[0] == 0
    assert run(capsys, "radon", tensor, "--f", "one", *scan, "--out", radons)[0] == 0
    with open(areas, newline="") as fa, open(radons, newline="") as fr:
        area_rows, radon_rows = list(csv.reader(fa))[1:], list(csv.reader(fr))[1:]
    assert len(area_rows) == 9
    assert [row[:-1] for row in area_rows] == [row[:-1] for row in radon_rows]
    assert [row[-1] for row in area_rows] == [row[-1] for row in radon_rows]


@pytest.mark.parametrize("option", [
    ["--v", "1,0,0,0,0"], ["--v", "1,0,0"], ["--v", "1,nan,0,0"],
    ["--null-tol", "nan"], ["--null-tol", "inf"], ["--null-tol", "-0.001"],
])
def test_spectrum_rejects_a_bad_normal_or_null_tol_before_writing(tmp_path, capsys, option):
    tensor, out = tmp_path / "t.json", tmp_path / "spec.csv"
    run(capsys, "gen", "random", "--n", "3", "--seed", "3", "--out", str(tensor))
    code = main(["spectrum", str(tensor), "--L", "4", *option, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error:" in captured.err and option[0] in captured.err
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_verify_builds_no_second_order_data(tmp_path, capsys, monkeypatch):
    # the sweeps read only g and its first derivatives: no four-slot chart
    # quadratic of R and no curvature assembly
    tensor, fixture = tmp_path / "t.json", tmp_path / "bump.json"
    run(capsys, "gen", "random", "--n", "4", "--seed", "3", "--out", str(tensor))
    run(capsys, "gen", "bump", "--n", "3", "--out", str(fixture))

    def refuse(*args):
        raise AssertionError("a verify sweep built second-order data")

    monkeypatch.setattr(correspondence, "_chart_quadratic", refuse)
    monkeypatch.setattr(verification, "_curvature_arrays", refuse)
    assert run(capsys, "verify", str(tensor))[0] == 0
    code, payload, _ = run(capsys, "verify", str(fixture))
    assert code == 1 and not payload["report"]["checks"]["mean_curvature"]["pass"]


@pytest.mark.parametrize("argv", [["verify", "--points", "2"], ["area", "--out", "area.csv"]])
def test_a_command_parses_its_input_file_once(tmp_path, capsys, monkeypatch, argv):
    tensor = tmp_path / "t.json"
    run(capsys, "gen", "random", "--n", "3", "--seed", "3", "--out", str(tensor))
    parsed, load = [], json.load
    monkeypatch.setattr(json, "load", lambda fh, **kw: parsed.append(fh.name) or load(fh, **kw))
    monkeypatch.chdir(tmp_path)
    assert run(capsys, argv[0], str(tensor), "--equators", "2", *argv[1:])[0] == 0
    assert parsed == [str(tensor)]


def test_verify_passes_a_member_with_an_ill_conditioned_group_draw(tmp_path, capsys):
    # with --seed 3 one of the five draws I + 0.35 N has condition number
    # 3,482, and rounding alone put the equivariance residual at 1.9e-8
    tensor = tmp_path / "t.json"
    run(capsys, "gen", "random", "--n", "3", "--seed", "7", "--out", str(tensor))
    code, payload, _ = run(capsys, "verify", str(tensor), "--seed", "3")
    assert code == 0
    assert payload["report"]["checks"]["equivariance"]["residual"] < 1e-12


def test_a_failed_roundtrip_solve_is_an_input_error(tmp_path, capsys, monkeypatch):
    tensor = tmp_path / "t.json"
    run(capsys, "gen", "random", "--n", "3", "--out", str(tensor))

    def fail(*args, **kwargs):
        raise DegenerateInputError("field is not constant along great circles")

    monkeypatch.setattr(verification, "curv_from_killing", fail)
    code, payload, err = run(capsys, "verify", str(tensor))
    assert code == 2 and payload is None
    assert "error: field is not constant" in err and "Traceback" not in err


def test_size_guard_arithmetic(monkeypatch):
    # n = 400: one tensor's (n+1)^4 doubles are 192.7 GiB; the basis has
    # curv_dim(n) such rows.  Only the arithmetic runs: nothing is allocated.
    monkeypatch.setattr(tensor_core, "_physical_memory", lambda: 8 * 2**30)
    with pytest.raises(DimensionError, match=r"n=400 needs an array of 193 GiB"):
        _require_memory(400)
    with pytest.raises(DimensionError):
        _require_memory(200)  # 12.2 GiB
    _require_memory(150)  # 3.8 GiB
    _require_memory(12, curv_dim(12))  # the basis at n = 12: 0.50 GiB
    with pytest.raises(DimensionError):
        _require_memory(25, curv_dim(25))  # 129 GiB
    monkeypatch.setattr(tensor_core, "_physical_memory", lambda: None)
    _require_memory(400, curv_dim(400))  # no limit where the memory is unknown


def test_physical_memory_comes_from_sysconf():
    have = tensor_core._physical_memory()
    assert have is None or have == os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


@pytest.mark.parametrize("argv", [
    ("gen", "round", "--n", "3"),
    ("gen", "random", "--n", "3"),
    ("gen", "fubini-study", "--m", "2"),
    ("gen", "bump", "--n", "3"),
    ("verify", "TENSOR"),
    ("area", "TENSOR"),
])
def test_a_dimension_beyond_physical_memory_exits_2(tmp_path, capsys, monkeypatch, argv):
    # the physical memory is patched down so that n = 3 (or 5) stands for n = 400
    tensor, out = tmp_path / "t.json", tmp_path / "out"
    run(capsys, "gen", "round", "--n", "3", "--out", str(tensor))
    monkeypatch.setattr(tensor_core, "_physical_memory", lambda: 8 * 4**4 - 1)
    argv = [str(tensor) if a == "TENSOR" else a for a in argv]
    code, payload, err = run(capsys, *argv, "--out", str(out))
    assert code == 2 and payload is None
    assert "physical memory" in err and "Traceback" not in err
    assert not out.exists()


def test_gen_random_also_needs_room_for_the_basis(tmp_path, capsys, monkeypatch):
    out = tmp_path / "t.json"
    tensor_core.basis_matrix.cache_clear()  # a cached basis allocates nothing
    monkeypatch.setattr(tensor_core, "_physical_memory", lambda: 8 * 4**4)
    assert run(capsys, "gen", "round", "--n", "3", "--out", str(out))[0] == 0
    code, _, err = run(capsys, "gen", "random", "--n", "3", "--out", str(out))
    assert code == 2 and "physical memory" in err


def test_act_rejects_a_non_finite_matrix_file(tmp_path, capsys):
    tensor, mat, out = tmp_path / "t.json", tmp_path / "m.json", tmp_path / "out.json"
    run(capsys, "gen", "round", "--n", "3", "--out", str(tensor))
    save_matrix(GroupElement(np.eye(4)), mat)
    payload = json.loads(mat.read_text())
    payload["matrix"][1][2] = float("nan")
    mat.write_text(json.dumps(payload))  # the stdlib writes a NaN token by default
    code, payload, err = run(capsys, "act", str(tensor), str(mat), "--out", str(out))
    assert code == 2
    assert "error:" in err and str(mat) in err and "non-finite" in err
    assert payload is None
    assert not out.exists()


def test_act_with_orthogonal_matrix(tmp_path, capsys):
    tensor = tmp_path / "t.json"
    run(capsys, "gen", "random", "--n", "3", "--seed", "5", "--out", str(tensor))
    mat = tmp_path / "rot.json"
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    save_matrix(GroupElement(Q), mat)
    out = tmp_path / "acted.json"
    code, payload, _ = run(capsys, "act", str(tensor), str(mat), "--out", str(out))
    assert code == 0
    acted = load_tensor(out)
    R = load_tensor(tensor)
    # orthogonal elements preserve the dense norm of the tensor
    assert abs(np.linalg.norm(acted.coeffs) - np.linalg.norm(R.coeffs)) < 1e-9
    assert payload["n"] == 3


def _nan_tensor_file(tmp_path, capsys):
    tensor = tmp_path / "nan.json"
    run(capsys, "gen", "round", "--n", "3", "--out", str(tensor))
    payload = json.loads(tensor.read_text())
    payload["coeffs"][0] = float("nan")
    tensor.write_text(json.dumps(payload))  # the stdlib writes a NaN token by default
    return tensor


@pytest.mark.parametrize("command", ["verify", "area", "act"])
def test_non_finite_tensor_file_is_an_input_error(tmp_path, capsys, command):
    tensor = _nan_tensor_file(tmp_path, capsys)
    mat = tmp_path / "eye.json"
    save_matrix(GroupElement(np.eye(4)), mat)
    out = tmp_path / "out"
    argv = {
        "verify": ["verify", str(tensor), "--out", str(out)],
        "area": ["area", str(tensor), "--equators", "3", "--out", str(out)],
        "act": ["act", str(tensor), str(mat), "--out", str(out)],
    }[command]
    code, payload, err = run(capsys, *argv)
    assert code == 2
    assert "error:" in err and "non-finite" in err
    assert "Traceback" not in err
    assert payload is None
    assert not out.exists()


@pytest.mark.parametrize("bad", [None, [0.5, 0.5], {"value": 0.5}, "0.5", True, 10**400],
                         ids=["null", "list", "object", "string", "bool", "huge-integer"])
@pytest.mark.parametrize("command, kind, key", [
    ("verify", "bump", "amplitude"), ("verify", "bump", "width"), ("verify", "tensor", "coeffs"),
    ("area", "bump", "amplitude"), ("area", "bump", "width"), ("area", "tensor", "coeffs"),
    ("act", "tensor", "coeffs"), ("act", "matrix", "matrix"),
])
def test_a_file_field_that_is_not_numbers_is_an_input_error(tmp_path, capsys, command, kind, key, bad):
    tensor, mat, fixture, out = tmp_path / "t.json", tmp_path / "eye.json", tmp_path / "bump.json", tmp_path / "out"
    run(capsys, "gen", "round", "--n", "3", "--out", str(tensor))
    run(capsys, "gen", "bump", "--n", "3", "--out", str(fixture))
    save_matrix(GroupElement(np.eye(4)), mat)
    path = {"tensor": tensor, "matrix": mat, "bump": fixture}[kind]
    payload = json.loads(path.read_text())
    if kind == "tensor":
        payload["coeffs"][5] = bad
    elif kind == "matrix":
        payload["matrix"][1][2] = bad
    else:
        payload[key] = bad
    path.write_text(json.dumps(payload))
    subject = str(fixture if kind == "bump" else tensor)
    argv = {
        "verify": ["verify", subject, "--out", str(out)],
        "area": ["area", subject, "--equators", "3", "--out", str(out)],
        "act": ["act", str(tensor), str(mat), "--out", str(out)],
    }[command]
    code, payload, err = run(capsys, *argv)
    assert code == 2
    assert f"error: {path}: {key} " in err
    assert "Traceback" not in err
    assert payload is None
    assert not out.exists()


@pytest.mark.parametrize("n", ["3", None, 3.0, True])
@pytest.mark.parametrize("command", ["verify", "area", "act"])
def test_non_integer_n_is_an_input_error(tmp_path, capsys, command, n):
    tensor, mat, out = tmp_path / "t.json", tmp_path / "eye.json", tmp_path / "out"
    run(capsys, "gen", "round", "--n", "3", "--out", str(tensor))
    save_matrix(GroupElement(np.eye(4)), mat)
    bad = mat if command == "act" else tensor
    payload = json.loads(bad.read_text())
    payload["n"] = n
    bad.write_text(json.dumps(payload))
    argv = {
        "verify": ["verify", str(tensor), "--out", str(out)],
        "area": ["area", str(tensor), "--equators", "3", "--out", str(out)],
        "act": ["act", str(tensor), str(mat), "--out", str(out)],
    }[command]
    code, payload, err = run(capsys, *argv)
    assert code == 2
    assert "error:" in err and "n must be an integer" in err
    assert "Traceback" not in err
    assert payload is None
    assert not out.exists()


@pytest.mark.parametrize("n", [3.7, "3", None, True])
@pytest.mark.parametrize("command", ["verify", "area"])
def test_bump_fixture_with_non_integer_n_is_an_input_error(tmp_path, capsys, command, n):
    fixture, out = tmp_path / "bump.json", tmp_path / "out"
    run(capsys, "gen", "bump", "--n", "3", "--out", str(fixture))
    payload = json.loads(fixture.read_text())
    payload["n"] = n
    fixture.write_text(json.dumps(payload))
    argv = {
        "verify": ["verify", str(fixture), "--out", str(out)],
        "area": ["area", str(fixture), "--equators", "3", "--out", str(out)],
    }[command]
    code, payload, err = run(capsys, *argv)
    assert code == 2
    assert "error:" in err and "n must be an integer" in err
    assert "Traceback" not in err
    assert payload is None
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "area", "radon", "spectrum"])
def test_a_bump_fixture_that_is_not_a_metric_writes_nothing(tmp_path, capsys, command):
    # at the centre g has the eigenvalue 1 + amplitude along the direction: -2 is indefinite, -0.5 a metric
    fixture, out = tmp_path / "bump.json", tmp_path / "out"
    argv = {
        "verify": ["verify", str(fixture), "--out", str(out)],
        "area": ["area", str(fixture), "--equators", "5", "--out", str(out)],
        "radon": ["radon", str(fixture), "--equators", "5", "--out", str(out)],
        "spectrum": ["spectrum", str(fixture), "--v", "0,1,1,0", "--out", str(out)],
    }[command]
    code, _, _ = run(capsys, "gen", "bump", "--n", "3", "--amplitude", "-0.5", "--out", str(fixture))
    assert code == 0
    code, payload, _ = run(capsys, *argv)
    assert code == (1 if command == "verify" else 0)  # the bump is not in the family, but it runs
    assert payload is not None and out.exists()
    out.unlink()
    bump = json.loads(fixture.read_text())
    fixture.write_text(json.dumps(dict(bump, amplitude=-2.0)))
    code, payload, err = run(capsys, *argv)
    assert code == 2
    assert "error:" in err and "not a metric" in err
    assert "Traceback" not in err
    assert payload is None
    assert not out.exists()


@pytest.mark.parametrize("command", ["area", "radon"])
def test_indefinite_killing_tensor_is_an_input_error(tmp_path, capsys, command):
    # on S^4 the Killing tensor of curvature -1 is minus the round metric: four negative
    # eigenvalues, so its determinant is positive and only a factorisation sees the sign
    tensor, out = tmp_path / "neg.json", tmp_path / "out.csv"
    save_tensor(constant_curvature(4, -1.0), tensor)
    code, payload, err = run(capsys, command, str(tensor), "--equators", "3", "--out", str(out))
    assert code == 2
    assert "error:" in err and "not positive definite" in err
    assert "Traceback" not in err
    assert payload is None
    assert not out.exists()


@pytest.mark.parametrize("command, option", [
    ("area", "--equators"), ("radon", "--equators"), ("verify", "--equators"), ("verify", "--points"),
])
def test_zero_counts_are_input_errors_that_write_nothing(tmp_path, capsys, command, option):
    tensor, out = tmp_path / "t.json", tmp_path / "out"
    run(capsys, "gen", "round", "--n", "3", "--out", str(tensor))
    code = main([command, str(tensor), option, "0", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error:" in captured.err and option in captured.err
    assert "Traceback" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command, params, fields", [
    ("gen", ["kind"], ["written", "info"]),
    ("verify", ["input", "equators", "points"], ["report"]),
    ("area", ["input", "equators", "order"], ["written", "mean_area", "relative_spread"]),
    ("spectrum", ["input", "L", "null_tol"], ["written", "levels"]),
    ("radon", ["input", "equators", "order", "f", "f_seed"], ["written", "mean_transform", "sphere_integral"]),
    ("act", ["tensor", "matrix"], ["written", "n", "max_norm"]),
])
def test_every_document_opens_with_its_run_record(tmp_path, capsys, command, params, fields):
    tensor, mat, out = tmp_path / "t.json", tmp_path / "eye.json", tmp_path / "out"
    run(capsys, "gen", "round", "--n", "3", "--out", str(tensor))
    save_matrix(GroupElement(np.eye(4)), mat)
    argv = {
        "gen": ["gen", "random", "--n", "3", "--seed", "4", "--out", str(out)],
        "verify": ["verify", str(tensor), "--seed", "4", "--equators", "3", "--points", "3"],
        "area": ["area", str(tensor), "--equators", "3", "--order", "8", "--seed", "4", "--out", str(out)],
        "spectrum": ["spectrum", str(tensor), "--L", "2", "--out", str(out)],
        "radon": ["radon", str(tensor), "--equators", "3", "--order", "8", "--seed", "4", "--out", str(out)],
        "act": ["act", str(tensor), str(mat), "--out", str(out)],
    }[command]
    code, payload, _ = run(capsys, *argv)
    assert code == 0
    assert list(payload) == ["config", *fields]
    assert list(payload["config"]) == ["command", "seed", "version", "params"]
    assert payload["config"]["command"] == command
    assert payload["config"]["seed"] == (4 if "--seed" in argv else 0)
    assert payload["config"]["version"] == equator_forge.__version__
    assert list(payload["config"]["params"]) == params


def test_emit_writes_nothing_for_a_document_that_does_not_encode(capsys):
    with pytest.raises(ValueError):
        _emit({"config": {"command": "radon"}, "mean_transform": float("nan")})
    assert capsys.readouterr().out == ""


def test_json_writers_refuse_nan(tmp_path):
    out = tmp_path / "x.json"
    with pytest.raises(ValueError):
        write_json(out, {"residual": float("nan")})
    assert not out.exists()


def _run_fresh(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this same copy of the package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(equator_forge.__file__)))
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)


def _every_command(tmp_path) -> list:
    """(argv, exit code) pairs that run every command, in this order; every run exits 0
    but verify on the bump fixture, the negative control, which exits 1."""
    t3, t5, bump, mat = (str(tmp_path / name) for name in ("t3.json", "t5.json", "bump.json", "eye.json"))
    out = lambda name: ["--out", str(tmp_path / name)]
    return [
        (["gen", "random", "--n", "3", "--out", t3], 0),
        (["gen", "round", "--n", "5", "--out", t5], 0),
        (["gen", "fubini-study", "--m", "2"] + out("fs.json"), 0),
        (["gen", "left-invariant", "--a", "1.2"] + out("li.json"), 0),
        (["gen", "bump", "--n", "3", "--out", bump], 0),
        (["verify", t3, "--equators", "3", "--points", "3"], 0),
        (["verify", bump, "--equators", "3", "--points", "3"], 1),
        (["act", t3, mat] + out("acted.json"), 0),
        (["area", t3, "--equators", "3"] + out("area.csv"), 0),
        (["area", t5, "--equators", "3", "--order", "8"] + out("area5.csv"), 0),
        (["radon", t3, "--equators", "3", "--f", "one"] + out("one.csv"), 0),
        (["radon", t3, "--equators", "3", "--f", "poly"] + out("poly.csv"), 0),
        (["spectrum", t3, "--L", "12"] + out("spectrum.csv"), 0),
    ]


_COMMANDS_SCRIPT = """
import sys
import numpy as np
{preamble}
import equator_forge.cli as cli
from equator_forge.tensor_core import GroupElement, save_matrix
loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy" and sys.modules[m])
assert loaded() == [], loaded()
save_matrix(GroupElement(np.eye(4)), {mat!r})
for argv, code in {commands!r}:
    assert cli.main(argv) == code, argv
print("scipy modules:", loaded())
"""


def test_no_command_imports_scipy(tmp_path):
    script = _COMMANDS_SCRIPT.format(preamble="", mat=str(tmp_path / "eye.json"),
                                     commands=_every_command(tmp_path))
    proc = _run_fresh(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "scipy modules: []"


def test_every_command_runs_without_scipy(tmp_path):
    # scipy set to None in sys.modules makes any import of it fail, as if it were not installed
    script = _COMMANDS_SCRIPT.format(preamble='sys.modules["scipy"] = None',
                                     mat=str(tmp_path / "eye.json"), commands=_every_command(tmp_path))
    proc = _run_fresh(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "scipy modules: []"


@pytest.mark.parametrize("argv", [
    ("spectrum", "TENSOR", "--L", "100000"),
    ("spectrum", "TENSOR", "--L", "12", "--order", "100000"),
    ("area", "TENSOR", "--order", "1000000"),
    ("area", "TENSOR", "--equators", "100000000000"),
    ("radon", "TENSOR", "--order", "1000000"),
    ("radon", "TENSOR", "--equators", "100000000000"),
    ("verify", "TENSOR", "--points", "100000000000"),
])
def test_a_count_whose_largest_array_exceeds_memory_exits_2(tmp_path, capsys, monkeypatch, argv):
    # every count is far past 8 GiB, so the guard refuses it before anything is allocated
    tensor, out = tmp_path / "t.json", tmp_path / "out"
    run(capsys, "gen", "round", "--n", "3", "--out", str(tensor))
    monkeypatch.setattr(tensor_core, "_physical_memory", lambda: 8 * 2**30)
    argv = [str(tensor) if a == "TENSOR" else a for a in argv]
    code, payload, err = run(capsys, *argv, "--out", str(out))
    assert code == 2 and payload is None
    assert "needs an array of" in err and "physical memory" in err and "Traceback" not in err
    assert not out.exists()


def test_spectrum_refuses_an_order_below_L_plus_1(tmp_path, capsys):
    # below L + 1 the mesh rule misses products of two degree-L harmonics: a singular mass matrix
    tensor, out = tmp_path / "t.json", tmp_path / "spec.csv"
    run(capsys, "gen", "random", "--n", "3", "--seed", "2", "--out", str(tensor))
    for L, order in [(16, 16), (12, 12), (8, 2)]:
        code, payload, err = run(capsys, "spectrum", str(tensor), "--L", str(L), "--order", str(order),
                                 "--out", str(out))
        assert code == 2 and payload is None
        assert f"error: a degree-{L} basis needs a mesh order of at least {L + 1}, got {order}" in err
        assert not out.exists()


def test_spectrum_checks_every_levels_order_before_meshing(tmp_path, capsys, monkeypatch):
    # L = 4 fits order 16, L = 16 does not: no level is meshed or solved before the refusal
    from equator_forge import analysis

    tensor, out, meshes = tmp_path / "t.json", tmp_path / "spec.csv", []
    run(capsys, "gen", "random", "--n", "3", "--seed", "2", "--out", str(tensor))
    mesh = analysis.equator_mesh
    monkeypatch.setattr(analysis, "equator_mesh", lambda *a, **k: meshes.append(a) or mesh(*a, **k))
    code, payload, err = run(capsys, "spectrum", str(tensor), "--L", "4", "--L", "16", "--order", "16",
                             "--out", str(out))
    assert code == 2 and payload is None and meshes == []
    assert "error: a degree-16 basis needs a mesh order of at least 17, got 16" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("spectrum", "TENSOR", "--L", "-1"),
    ("spectrum", "TENSOR", "--L", "8", "--L", "-3"),
    ("area", "TENSOR", "--order", "0"),
    ("radon", "TENSOR", "--order", "-2"),
])
def test_a_negative_degree_or_order_is_refused_before_any_io(tmp_path, capsys, argv):
    out = tmp_path / "out"
    argv = [str(tmp_path / "missing.json") if a == "TENSOR" else a for a in argv]  # never read
    code, payload, err = run(capsys, *argv, "--out", str(out))
    assert code == 2 and payload is None
    assert f"error: {argv[-2]} must be at least" in err and "Traceback" not in err
    assert not out.exists()
