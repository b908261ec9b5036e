"""Every report of the bit-contract grid (bit_contract.py) keeps its pinned digest."""

import json

import pytest

import bit_contract


@pytest.mark.parametrize("runs", sorted({bit_contract.call_of(key)[3] for key in bit_contract.keys()}))
def test_reports_keep_their_pinned_digests(runs):
    expected = bit_contract.pinned(runs)
    digests = {key: bit_contract.digest(entry) for key, entry in bit_contract.grid(runs).items()}
    moved = sorted(key for key in expected if digests[key] != expected[key])
    assert not moved, f"{len(moved)} of {len(expected)} reports moved, among them {moved[:5]}"


def test_the_pins_are_the_grid():
    assert sorted(json.loads(bit_contract.PINS.read_text())) == sorted(bit_contract.keys())
    # the grid on seed 43, then the benchmark's calls on seed 11
    assert len(bit_contract.keys()) == 7 * 4 * 4 * 5 + 25
    assert len(set(bit_contract.FOLDED)) == 25 and all(key.endswith("/4096/seed11") for key in bit_contract.FOLDED)
    assert bit_contract.call_of(bit_contract.FOLDED[0]) == (["plain"], "asian_fixed_strike", 30, 20000, 4096, 11)
    assert bit_contract.call_of("plain/european_call/5/40/4096") == (["plain"], "european_call", 5, 40, 4096, 43)


def test_diff_names_each_moved_report_with_its_largest_relative_change(tmp_path, capsys):
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
    # --diff exits 1 when a report moved or a key is in one dump only, else 0
    dumps = {"old": old, "new": new, "same": {"same": entry}, "more": {"same": entry, "extra": entry}}
    for name, dump in dumps.items():
        (tmp_path / name).write_text(json.dumps(dump))

    def diff(a, b):
        code = bit_contract.main(["--diff", str(tmp_path / a), str(tmp_path / b)])
        return code, capsys.readouterr().out.splitlines()[-1]

    assert diff("old", "new") == (1, "3 of 4 reports moved; 0 in one dump only")
    assert diff("same", "old") == (1, "0 of 1 reports moved; 3 in one dump only")
    assert diff("same", "more") == (1, "0 of 1 reports moved; 1 in one dump only")
    assert diff("old", "old") == (0, "0 of 4 reports moved; 0 in one dump only")
