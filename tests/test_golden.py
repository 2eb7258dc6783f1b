"""Golden CLI outputs: fixed-seed bytes that must not move across commits.

Each file under tests/golden/ holds the stdout of one invocation, recorded
once and compared byte for byte: `simulate` CSV for one fast-sampler cell
and one literal (`use_batches`) cell per scheme, `verify --draws 7 --seed 3
--format json` for each suite, `verify --suite all --seed 0 --format
json` at the CLI's default draws, and the JSON reports of `bounds`,
`maxnormal`, `verify --selftest` and a replay of that selftest report. A
change that alters any of these streams must say so and re-record the
file. Lab numbers that no CLI stream prints are pinned below as float.hex
values.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from corrcomm.cli import main
from corrcomm.contraction import search_max_ratio, sweep, verify_shift_reduction
from corrcomm.infotheory import FiniteJoint

GOLDEN = Path(__file__).with_name("golden")

# name -> (scheme, k, rho, params, trials, use_batches)
SIMULATE_CELLS = {
    "naive-fast": ("naive", 16, 0.5, {}, 2000, False),
    "max-fast": ("max", 10, 0.3, {}, 2000, False),
    "local-fast": ("local", 12, 0.6, {}, 2000, False),
    "two_way-fast": ("two_way", 12, 0.6, {}, 2000, False),
    "binary_block-fast": (
        "binary_block", 12, 0.6,
        {"rho_tilde": 0.2, "n_block": 200, "rho_nominal": 0.9}, 2000, False,
    ),
    "naive-literal": ("naive", 16, 0.5, {}, 100, True),
    "max-literal": ("max", 8, 0.6, {}, 100, True),
    "local-literal": ("local", 8, 0.6, {"rho_nominal": 0.5}, 100, True),
    "two_way-literal": ("two_way", 10, 0.6, {"k1": 3}, 100, True),
    "binary_block-literal": (
        "binary_block", 8, 0.6, {"rho_tilde": 0.5, "n_block": 16}, 100, True,
    ),
}

VERIFY_SUITES = ("sdpi", "tilted", "tensor", "chain", "shift", "gaphamming")

# name -> (argv, exit code): JSON reports that the files above do not cover
JSON_REPORTS = {
    "bounds": (["bounds", "--k", "4,16", "--rho", "0,0.5", "--format", "json"], 0),
    "maxnormal": (["maxnormal", "--n", "1,2,1024", "--format", "json"], 0),
    "verify-selftest": (["verify", "--selftest", "--format", "json"], 1),
    "verify-replay": (
        ["verify", "--replay", str(GOLDEN / "verify-selftest.json"), "--format", "json"],
        1,
    ),
    # every suite at its default draws: the sdpi search's restarts reach
    # each (rounds, message sizes) group of random_spec
    "verify-all-default": (["verify", "--suite", "all", "--seed", "0", "--format", "json"], 0),
}


def simulate_argv(tmp_path: Path, name: str) -> list[str]:
    scheme, k, rho, params, trials, batches = SIMULATE_CELLS[name]
    config = {
        "scheme": scheme,
        "k_grid": [k],
        "rho_grid": [rho],
        "params": params,
        "trials": trials,
        "seed": 11,
        "use_batches": batches,
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config))
    return ["simulate", "--config", str(path)]


def verify_argv(suite: str) -> list[str]:
    return ["verify", "--suite", suite, "--draws", "7", "--seed", "3",
            "--format", "json"]


def _stdout(capsys, argv) -> str:
    code = main(argv)
    assert code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(SIMULATE_CELLS))
def test_simulate_matches_golden(tmp_path, capsys, name):
    out = _stdout(capsys, simulate_argv(tmp_path, name))
    assert out == (GOLDEN / f"simulate-{name}.csv").read_text(encoding="ascii")


@pytest.mark.parametrize("suite", VERIFY_SUITES)
def test_verify_matches_golden(capsys, suite):
    out = _stdout(capsys, verify_argv(suite))
    assert out == (GOLDEN / f"verify-{suite}.json").read_text(encoding="ascii")


@pytest.mark.parametrize("name", sorted(JSON_REPORTS))
def test_json_report_matches_golden(capsys, name):
    argv, code = JSON_REPORTS[name]
    assert main(argv) == code
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="ascii")


def test_lab_numbers_off_the_cli():
    # the binary_contraction suite has no CLI defaults, and the shift rows
    # carry no divergences
    outcome = sweep("binary_input_contraction", 200, 0)
    assert outcome.stats["worst_margin"].hex() == "0x1.2151f37182200p-32"
    values = verify_shift_reduction(0.25, 0.5, (np.eye(2),)).values
    assert {key: value.hex() for key, value in values.items()} == {
        "div_x": "0x0.0p+0",
        "div_y": "0x1.f5fd8a9063e2cp-5",
        "bound": "0x1.c71c71c71c71cp-4",
        "rho_input": "0x1.5555555555555p-2",
        "message_bits": "0x1.0000000000000p+0",
    }


# (rho, keyword arguments) -> (evaluations, best_ratio, max_ratio_seen,
# violation count, sha256 of the violations' ratios as space-joined float.hex)
SEARCH_PINS = [
    (
        (0.6, {"restarts": 50, "seed": 5, "ceiling": 0.2}),
        (950, "0x1.70a3d6c05e0bfp-2", "0x1.70a3d6c05e0bfp-2", 482,
         "85eb5bdc148bdc825a7f758bc6ba9346d935d16577bee9389e35ddce6a297fd4"),
    ),
    (
        (0.4, {"r_max": 1, "restarts": 20, "seed": 6}),
        (920, "0x1.47ae13dc06499p-3", "0x1.47ae13dc06499p-3", 0,
         hashlib.sha256(b"").hexdigest()),
    ),
]


@pytest.mark.parametrize("case, pinned", SEARCH_PINS)
def test_search_max_ratio_pins(case, pinned):
    rho, kwargs = case
    result = search_max_ratio(FiniteJoint.binary_symmetric(rho), **kwargs)
    ratios = " ".join(v["ratio"].hex() for v in result.violations)
    assert (
        result.evaluations,
        result.best_ratio.hex(),
        result.max_ratio_seen.hex(),
        len(result.violations),
        hashlib.sha256(ratios.encode()).hexdigest(),
    ) == pinned
