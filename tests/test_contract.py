"""The CLI contract of ``tests/contract.json``: see ``tests/make_contract.py`` for the calls and the rules."""

import json

import numpy as np
import pytest

from make_contract import CALLS, FIXTURE, run_calls

CONTRACT = json.loads(FIXTURE.read_text())
RULES = [{"max"}, {"atol", "value"}, {"rtol", "value"}, {"rtol", "values"}]


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


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_calls(tmp_path_factory.mktemp("contract"))


def test_fixture_lists_the_calls():
    assert [call["argv"] for call in CONTRACT] == CALLS


@pytest.mark.parametrize("index", range(len(CALLS)), ids=[f"{i:02d}-{a[0]}-{a[1]}" for i, a in enumerate(CALLS)])
def test_cli_output_keeps_the_contract(index, outputs):
    assert _mismatches(CONTRACT[index], outputs[index], "") == []
