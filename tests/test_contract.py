"""The CLI contract of ``tests/contract.json``: see ``tests/make_contract.py`` for the calls and the rules."""

import copy
import json

import pytest

from make_contract import CALLS, FIXTURE, _mismatches, regenerate, run_calls, spec

CONTRACT = json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_calls(tmp_path_factory.mktemp("contract"))


def test_fixture_lists_the_calls():
    assert [call["argv"] for call in CONTRACT] == CALLS


@pytest.mark.parametrize("index", range(len(CALLS)), ids=[f"{i:02d}-{a[0]}-{a[1]}" for i, a in enumerate(CALLS)])
def test_cli_output_keeps_the_contract(index, outputs):
    assert _mismatches(CONTRACT[index], outputs[index], "") == []


def test_regeneration_keeps_a_fixture_that_holds(outputs):
    assert regenerate(CONTRACT, outputs) == (CONTRACT, [])


def test_regeneration_replaces_only_the_broken_node(outputs):
    # a value pushed past its rtol is the one node replaced; a call added at the end is appended under its rules
    pushed = copy.deepcopy(outputs)
    pushed[13]["stdout"]["mean_area"] *= 1 + 1e-9
    want = copy.deepcopy(CONTRACT[:-1]) + [spec(pushed[23])]
    want[13]["stdout"]["mean_area"] = {"rtol": 1e-12, "value": pushed[13]["stdout"]["mean_area"]}
    fixture, lines = regenerate(CONTRACT[:-1], pushed)
    assert [line.split(":")[0] for line in lines] == ["[13].stdout.mean_area", "[23]"]
    assert fixture == want
