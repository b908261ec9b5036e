"""Every report of the bit-contract grid (bit_contract.py) keeps its pinned digest."""

import json

import pytest

import bit_contract


@pytest.mark.parametrize("runs", [runs for runs, _ in bit_contract.GRID_RUNS])
def test_reports_keep_their_pinned_digests(runs):
    expected = bit_contract.pinned(runs)
    digests = {key: bit_contract.digest(entry) for key, entry in bit_contract.grid(runs).items()}
    moved = sorted(key for key in expected if digests[key] != expected[key])
    assert not moved, f"{len(moved)} of {len(expected)} reports moved, among them {moved[:5]}"


def test_the_pins_are_the_grid():
    assert sorted(json.loads(bit_contract.PINS.read_text())) == sorted(bit_contract.keys())
    assert len(bit_contract.keys()) == 7 * 4 * 4 * 5


def test_diff_names_each_moved_report_with_its_largest_relative_change():
    entry = {"bits": [(1.0).hex(), (-4.0).hex(), 100, 0], "notes": ["a"]}
    old = {"same": entry, "rounding": entry, "notes": entry, "shape": entry}
    new = {
        "same": entry,
        "rounding": {**entry, "bits": [(1.0).hex(), (-4.0 * (1 + 2**-50)).hex(), 100, 0]},
        "notes": {**entry, "notes": ["a", "b"]},
        "shape": {**entry, "bits": [(1.0).hex(), 90, 10]},
    }
    assert bit_contract.moved(old, new) == {
        "notes": "notes changed",
        "rounding": f"largest relative change {2**-50 / (1 + 2**-50):.3g}",
        "shape": "numbers 4 -> 3, run counts [100, 0] -> [90, 10]",
    }
