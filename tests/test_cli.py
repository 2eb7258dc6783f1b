"""Command-line interface: argument handling, formats, exit codes.

Run in-process through main(argv) so stdout/stderr are capturable and
failures carry Python tracebacks; one subprocess smoke test covers the
installed entry point. It is skipped unless the `corrcomm` console script
is on PATH (a source checkout run with PYTHONPATH=src has none), and a
companion test checks the script target declared in pyproject.toml by
running it through the current interpreter.
"""

import importlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import corrcomm
from conftest import child_env
from corrcomm.cli import main

GOLDEN_BOUNDS = """\
k,rho,global_upper,local_upper,local_lower,naive_risk,max_scheme_risk
4,0,0.18033688,0.18033688,0.18033688,0.25,0.18033688
4,0.5,0.18033688,0.101439495,0.04508422,0.1875,0.13525266
16,0,0.04508422,0.04508422,0.04508422,0.0625,0.04508422
16,0.5,0.04508422,0.0253598738,0.011271055,0.046875,0.033813165
"""

GOLDEN_MAXNORMAL = """\
n,mean,variance,asymptote,ratio
1,0,1,0,nan
2,0.564189584,0.681690114,1.17741002,0.479178513
1024,3.2482396,0.123032926,3.72329741,0.872409384
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, **overrides):
    cfg = {
        "scheme": "naive",
        "k_grid": [16],
        "rho_grid": [0.0],
        "trials": 200,
        "seed": 7,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


# ----------------------------------------------------------------------
# bounds
# ----------------------------------------------------------------------

def test_bounds_golden_csv(capsys):
    # grids arrive unsorted and with duplicates; output is sorted and unique
    code, out, _ = run(capsys, "bounds", "--k", "16,4,16", "--rho", "0.5,0")
    assert code == 0
    assert out == GOLDEN_BOUNDS


def test_bounds_json_document(capsys):
    code, out, _ = run(capsys, "bounds", "--k", "4", "--rho", "0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"] == {"seed": None, "version": corrcomm.__version__, "schema": 1}
    assert doc["rows"][0]["k"] == 4
    assert doc["rows"][0]["naive_risk"] == pytest.approx(0.25)


def test_bounds_rejects_bad_grids(capsys):
    code, _, err = run(capsys, "bounds", "--k", "4", "--rho", "1.5")
    assert code == 2
    assert "error" in json.loads(err.strip().splitlines()[-1])
    code, _, _ = run(capsys, "bounds", "--k", " , ", "--rho", "0")
    assert code == 2
    code, _, _ = run(capsys, "bounds", "--k", "4.5", "--rho", "0")
    assert code == 2
    code, _, _ = run(capsys, "bounds", "--k", str(10**400), "--rho", "0.5")
    assert code == 2


def test_bounds_out_file(tmp_path, capsys):
    target = tmp_path / "bounds.csv"
    code, out, _ = run(
        capsys, "bounds", "--k", "16,4,16", "--rho", "0.5,0", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_bytes() == GOLDEN_BOUNDS.encode("ascii")


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--k", "4", "--rho", "0.5"],
        # exit 2 even where a written report would exit 1
        ["verify", "--selftest", "--format", "json"],
    ],
)
def test_unwritable_out_is_a_config_error(tmp_path, capsys, argv):
    # an --out that cannot be opened once ended in a traceback and exit 1,
    # the code of a verification failure
    target = tmp_path / "missing" / "report"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 2
    assert out == ""
    assert "cannot write output" in json.loads(err.strip().splitlines()[-1])["error"]
    assert not target.parent.exists()


# ----------------------------------------------------------------------
# maxnormal
# ----------------------------------------------------------------------

def test_maxnormal_golden_csv(capsys):
    code, out, _ = run(capsys, "maxnormal", "--n", "1024,2,1")
    assert code == 0
    assert out == GOLDEN_MAXNORMAL


def test_maxnormal_json_turns_nan_into_null(capsys):
    code, out, _ = run(capsys, "maxnormal", "--n", "1", "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["ratio"] is None
    assert row["mean"] == 0.0


def test_maxnormal_rejects_bad_pool(capsys):
    code, _, _ = run(capsys, "maxnormal", "--n", "0")
    assert code == 2
    code, _, err = run(capsys, "maxnormal", "--n", str(2**1024))  # past float range
    assert code == 2
    assert "error" in json.loads(err.strip().splitlines()[-1])
    # past 2^960 the quadrature loses accuracy before it overflows
    for n in (2**1020, 2**1023):
        code, out, err = run(capsys, "maxnormal", "--n", str(n))
        assert code == 2
        assert out == ""
        assert "2^960" in json.loads(err.strip().splitlines()[-1])["error"]


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------

def test_simulate_csv_row(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code, out, err = run(capsys, "simulate", "--config", cfg)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("scheme,k,rho,mse,")
    cells = lines[1].split(",")
    assert cells[0] == "naive"
    assert cells[1] == "16"
    assert abs(float(cells[3]) - 1.0 / 16) < 0.02
    assert "simulate: k=16" in err  # progress goes to stderr only


def test_simulate_runs_are_reproducible(tmp_path, capsys):
    cfg = write_config(tmp_path)
    _, first, _ = run(capsys, "simulate", "--config", cfg)
    _, second, _ = run(capsys, "simulate", "--config", cfg)
    assert first == second


def test_simulate_json_meta_reflects_seed_override(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code, out, _ = run(
        capsys, "simulate", "--config", cfg, "--seed", "99", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["seed"] == 99
    assert doc["rows"][0]["scheme"] == "naive"


def test_simulate_trials_override_rescues_bad_config(tmp_path, capsys):
    cfg = write_config(tmp_path, trials=50)
    code, _, _ = run(capsys, "simulate", "--config", cfg)
    assert code == 2
    code, _, _ = run(capsys, "simulate", "--config", cfg, "--trials", "200")
    assert code == 0


@pytest.mark.parametrize("trials", [2.5, True, 99])
def test_simulate_trials_is_a_count(tmp_path, capsys, trials):
    cfg = write_config(tmp_path, trials=trials)
    code, out, err = run(capsys, "simulate", "--config", cfg)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": f"trials must be an integer >= 100, got {trials!r}"}


def test_simulate_grid_is_sorted_and_unique(tmp_path, capsys):
    cfg = write_config(tmp_path, k_grid=[32, 16, 32], rho_grid=[0.5, 0.0])
    code, out, _ = run(capsys, "simulate", "--config", cfg)
    assert code == 0
    heads = [tuple(line.split(",")[1:3]) for line in out.splitlines()[1:]]
    assert heads == [("16", "0"), ("16", "0.5"), ("32", "0"), ("32", "0.5")]


@pytest.mark.parametrize(
    "overrides",
    [
        {"scheme": "quantum"},
        {"k_grid": []},
        {"rho_grid": ["abc"]},
        {"trials": "many"},
        {"seed": -1},
        {"format": "xml"},
        {"params": 7},
        {"k_grid": [10**20]},  # past the naive binomial's int64 count
        # past 2^960 pointers the fast max-normal draw leaves its law
        {"scheme": "max", "k_grid": [1000], "rho_grid": [0.5]},
        # an anchor sum of 0 once divided Bob's sum by 3.2e-299
        {"scheme": "binary_block", "params": {"rho_tilde": 1e-300, "n_block": 32}},
        {"scheme": "binary_block", "params": {"rho_tilde": 0.5, "n_block": 32,
                                              "guard_bits": -100}},
    ],
)
def test_simulate_config_errors(tmp_path, capsys, overrides):
    cfg = write_config(tmp_path, **overrides)
    code, _, err = run(capsys, "simulate", "--config", cfg)
    assert code == 2
    assert "error" in json.loads(err.strip().splitlines()[-1])


BLOCK = {"scheme": "binary_block", "k_grid": [64], "rho_grid": [0.5]}


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"k_grid": [16.7]}, "k_grid"),
        ({"k_grid": [True]}, "k_grid"),
        ({"seed": True}, "seed"),
        ({"use_batches": "false"}, "use_batches"),
        ({"scheme": "local", "params": {"rho_nominal": "x"}}, "rho_nominal"),
        ({"scheme": "local", "params": {"c_bit": 0.9, "rho_tilde": 3}}, "c_bit"),
        ({"scheme": "local", "params": {"rho_tilde": 3}}, "rho_tilde"),
        ({"rho_grid": [True, 0.5]}, "rho_grid"),
        ({"rho_grid": ["0.5"]}, "rho_grid"),
        ({"use_batch": True, "sed": 5}, "sed"),
        (dict(BLOCK, params={"rho_tilde": 0.5, "n_block": 32.0}), "n_block"),
        (dict(BLOCK, params={"rho_tilde": 0.5, "n_block": 16.0}, use_batches=True),
         "n_block"),
        ({"scheme": "two_way", "k_grid": [10], "params": {"k1": 3.0},
          "use_batches": True}, "k1"),
        (dict(BLOCK, params={"rho_tilde": 0.5, "n_block": 32, "guard_bits": 0.5}),
         "guard_bits"),
    ],
    ids=[
        "float-k",
        "bool-k",
        "bool-seed",
        "string-use_batches",
        "string-param",
        "typo-param",
        "foreign-param",
        "bool-rho",
        "string-rho",
        "unknown-keys",
        "float-n_block",
        "float-n_block-literal",
        "float-k1-literal",
        "fractional-guard_bits",
    ],
)
def test_simulate_rejects_mistyped_values(tmp_path, capsys, overrides, field):
    # each of these used to run a different cell than asked, or crash
    cfg = write_config(tmp_path, **overrides)
    code, out, err = run(capsys, "simulate", "--config", cfg)
    assert code == 2
    assert out == ""
    assert field in json.loads(err.strip().splitlines()[-1])["error"]


def test_simulate_accepts_typed_values(tmp_path, capsys):
    # None means the default, and an integer serves where a float is asked
    for scheme, params in [("two_way", {"k1": None}), ("local", {"rho_nominal": 0})]:
        cfg = write_config(tmp_path, scheme=scheme, params=params, use_batches=False)
        code, out, _ = run(capsys, "simulate", "--config", cfg)
        assert code == 0
        assert out.splitlines()[1].startswith(f"{scheme},16,0,")


@pytest.mark.parametrize(
    "scheme, name",
    [("local", "c_threshold"), ("two_way", "c_bits"), ("binary_block", "exist_factor")],
)
def test_simulate_rejects_fixed_constants(tmp_path, capsys, scheme, name):
    # the scheme constants are not settable: a config naming one exits 2
    params = {"rho_tilde": 0.5, "n_block": 32} if scheme == "binary_block" else {}
    cfg = write_config(tmp_path, scheme=scheme, k_grid=[64], rho_grid=[0.5],
                       params={**params, name: 0.2})
    code, out, err = run(capsys, "simulate", "--config", cfg)
    assert code == 2
    assert out == ""
    assert f"takes no parameter '{name}'" in json.loads(err.strip().splitlines()[-1])["error"]


def test_simulate_rejects_cells_before_any_trial(tmp_path, capsys):
    # a missing scheme parameter is caught during the precondition pass
    cfg = write_config(tmp_path, scheme="binary_block", k_grid=[8])
    code, _, err = run(capsys, "simulate", "--config", cfg)
    assert code == 2
    assert "rho_tilde" in err


@pytest.mark.parametrize(
    "scheme, k_grid, message",
    [
        pytest.param("max", [16, 961], "2^960 pointers", id="max"),
        pytest.param("naive", [4, 10**300], "fast naive budget", id="naive"),
    ],
)
def test_simulate_rejects_a_cell_past_its_bound_before_any_trial(
    tmp_path, capsys, scheme, k_grid, message
):
    # the pool bound of the fast max-normal draw, and the int64 count of
    # the naive binomial: the smaller cell must not run first
    cfg = write_config(tmp_path, scheme=scheme, k_grid=k_grid, rho_grid=[0.5])
    code, out, err = run(capsys, "simulate", "--config", cfg)
    assert code == 2
    assert out == ""
    assert message in err
    assert f"simulate: k={k_grid[0]}" not in err


def test_simulate_missing_config_file(capsys):
    code, _, _ = run(capsys, "simulate", "--config", "/nonexistent.json")
    assert code == 2


def test_simulate_non_object_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2]")
    code, _, _ = run(capsys, "simulate", "--config", str(path))
    assert code == 2
    path.write_text('{"scheme": "naive",')
    code, _, err = run(capsys, "simulate", "--config", str(path))
    assert code == 2
    assert "not valid JSON" in json.loads(err.strip().splitlines()[-1])["error"]


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def test_verify_single_suites_pass(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "shift", "--draws", "5", "--seed", "3"
    )
    assert code == 0
    header, row = out.splitlines()
    assert header == "suite,checks,violations,worst_margin"
    cells = row.split(",")
    assert cells[0] == "shift"
    assert cells[1] == "5"
    assert cells[2] == "0"
    assert float(cells[3]) >= 0.0


def test_verify_gaphamming_counts_the_majority_demo(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "gaphamming", "--draws", "2", "--format", "json"
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["suite"] == "gaphamming"
    assert row["checks"] == 3
    assert row["stats"]["majority"]["implied_k_lower"] > 0.0


def test_verify_zero_draws_warns_and_passes(capsys):
    code, _, err = run(capsys, "verify", "--suite", "tilted", "--draws", "0")
    assert code == 0
    assert "vacuously" in err
    # the ratio search has no restarts to climb from, and checks nothing
    code, out, _ = run(capsys, "verify", "--suite", "sdpi", "--draws", "0")
    assert code == 0
    assert out.splitlines()[1] == "sdpi,0,0,inf"


def test_verify_negative_draws_rejected(capsys):
    for suite in ("tilted", "all"):
        code, out, err = run(capsys, "verify", "--suite", suite, "--draws", "-5")
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "draws must be an integer >= 0, got -5"}


@pytest.mark.parametrize("suite", ["shift", "chain", "tensor", "gaphamming"])
def test_verify_rho_rejected_by_suites_without_one(capsys, suite):
    code, out, err = run(capsys, "verify", "--suite", suite, "--rho", "0.9", "--draws", "2")
    assert code == 2
    assert out == ""
    assert json.loads(err.strip().splitlines()[-1]) == {
        "error": f"--rho applies to the sdpi/tilted suites, not {suite}"
    }


def test_verify_rho_sets_sdpi_and_tilted_only(capsys):
    def rows(*argv):
        code, out, _ = run(capsys, "verify", "--draws", "2", "--format", "json", *argv)
        assert code == 0
        return {row["suite"]: row for row in json.loads(out)["rows"]}

    for suite in ("sdpi", "tilted"):
        assert rows("--suite", suite, "--rho", "0.3") != rows("--suite", suite)
    # with all, the other suites keep their own defaults
    moved, plain = rows("--rho", "0.3"), rows()
    assert [s for s in plain if moved[s] != plain[s]] == ["sdpi", "tilted"]


SELFTEST_REPORT = Path(__file__).with_name("golden") / "verify-selftest.json"


@pytest.mark.parametrize("extra", [
    ("--suite", "shift"), ("--suite", "all"), ("--draws", "2"), ("--rho", "0.9"),
])
@pytest.mark.parametrize("mode", ["--selftest", "--replay"])
def test_verify_selftest_and_replay_take_no_suite_flags(capsys, mode, extra):
    argv = [mode] if mode == "--selftest" else [mode, str(SELFTEST_REPORT)]
    code, out, err = run(capsys, "verify", *argv, *extra)
    assert code == 2
    assert out == ""
    assert json.loads(err.strip().splitlines()[-1]) == {
        "error": f"{mode} cannot be combined with {extra[0]}"
    }


def test_verify_selftest_and_replay_exclude_each_other(capsys):
    code, out, err = run(
        capsys, "verify", "--selftest", "--replay", str(SELFTEST_REPORT)
    )
    assert code == 2
    assert out == ""
    assert "cannot be combined" in err
    # an empty replay path is a replay of an unreadable file, not a suite run
    code, out, err = run(capsys, "verify", "--replay", "", "--draws", "1")
    assert code == 2
    assert out == ""
    code, out, err = run(capsys, "verify", "--replay", "")
    assert code == 2
    assert "cannot read replay file" in err


def test_verify_unknown_suite_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--suite", "unknowable"])
    assert excinfo.value.code == 2


def test_verify_selftest_flags_the_planted_violation(capsys):
    code, out, _ = run(capsys, "verify", "--selftest", "--format", "json")
    assert code == 1
    row = json.loads(out)["rows"][0]
    assert row["suite"] == "selftest"
    assert row["violations"] == 1
    assert row["records"][0]["check"] == "interactive_chain"
    assert row["stats"]["worst_margin"] < 0


def test_verify_replay_round_trip(tmp_path, capsys):
    report = tmp_path / "selftest.json"
    code, _, _ = run(
        capsys, "verify", "--selftest", "--format", "json", "--out", str(report)
    )
    assert code == 1
    code, out, _ = run(capsys, "verify", "--replay", str(report))
    assert code == 1  # the planted record still violates on replay
    row = out.splitlines()[1].split(",")
    assert row[0] == "replay:interactive_chain"
    assert row[2] == "1"


def test_verify_replay_of_clean_report_passes(tmp_path, capsys):
    report = tmp_path / "clean.json"
    code, _, _ = run(
        capsys,
        "verify",
        "--suite",
        "tilted",
        "--draws",
        "5",
        "--format",
        "json",
        "--out",
        str(report),
    )
    assert code == 0
    code, out, _ = run(capsys, "verify", "--replay", str(report))
    assert code == 0
    assert out.splitlines() == ["suite,checks,violations,worst_margin"]


def test_verify_replay_rows_carry_ceiling_margins(tmp_path, capsys):
    source = corrcomm.FiniteJoint.binary_symmetric(0.6)
    search = corrcomm.search_max_ratio(
        source, restarts=5, ascent_steps=0, seed=3, ceiling=0.01
    )
    s2 = corrcomm.FiniteJoint.binary_symmetric(0.8)
    spec = corrcomm.random_spec(
        source.product(s2), 2, 2, corrcomm.substream(3, "cli-replay")
    )
    tensor = corrcomm.verify_tensorization(
        source, s2, spec.channels, sup1=0.0, sup2=0.0, slack=0.0
    )
    records = [search.violations[0], tensor.instance]
    path = tmp_path / "records.json"
    path.write_text(json.dumps(records))
    code, out, _ = run(capsys, "verify", "--replay", str(path), "--format", "json")
    assert code == 1
    rows = json.loads(out)["rows"]
    assert [row["suite"] for row in rows] == [
        "replay:ratio_ceiling",
        "replay:tensorization",
    ]
    for row, record in zip(rows, records):
        assert row["worst_margin"] == pytest.approx(
            record["ceiling"] - record["ratio"], abs=1e-12
        )
        assert row["worst_margin"] < 0


@pytest.mark.parametrize("field, value", [
    ("rho", math.nan), ("ceiling", math.nan), ("ceiling", math.inf),
])
def test_verify_replay_rejects_non_finite_numbers(tmp_path, capsys, field, value):
    # the CLI writes NaN and Infinity as null, but Python's json parses them,
    # and they once replayed as verdicts: exit 1 (margin ~0 or nan) or 0
    if field == "rho":
        record = json.loads(SELFTEST_REPORT.read_text())["rows"][0]["records"][0]
    else:
        record = corrcomm.search_max_ratio(
            corrcomm.FiniteJoint.binary_symmetric(0.6),
            restarts=5, ascent_steps=0, seed=3, ceiling=0.01,
        ).violations[0]
    path = tmp_path / "records.json"
    path.write_text(json.dumps([{**record, field: value}]))
    code, out, err = run(capsys, "verify", "--replay", str(path))
    assert (code, out) == (2, "")
    assert "NaN or Infinity" in json.loads(err.strip().splitlines()[-1])["error"]


def test_verify_replay_margin_matches_the_selftest(tmp_path, capsys):
    report = tmp_path / "selftest.json"
    code, _, _ = run(
        capsys, "verify", "--selftest", "--format", "json", "--out", str(report)
    )
    assert code == 1
    selftest = json.loads(report.read_text())["rows"][0]
    code, out, _ = run(capsys, "verify", "--replay", str(report), "--format", "json")
    assert code == 1
    replayed = json.loads(out)["rows"][0]
    assert selftest["worst_margin"] < 0
    assert replayed["worst_margin"] == selftest["worst_margin"]


def test_verify_replay_rows_carry_passing_margins(tmp_path, capsys):
    rng = corrcomm.substream(5, "cli-replay-passing")
    shift_spec = corrcomm.random_spec(
        corrcomm.binary_symmetric_product(0.0, 1), 2, 3, rng
    )
    gap_spec = corrcomm.random_spec(
        corrcomm.binary_symmetric_product(0.0, 3), 2, 2, rng
    )
    channels = {
        "shift": [c.tolist() for c in shift_spec.channels],
        "gap": [c.tolist() for c in gap_spec.channels],
        # a two-sided tilted record: its margin is the tighter of both sides
        "u": rng.dirichlet([1.0, 1.0, 1.0], size=2).tolist(),
        "v": rng.dirichlet([1.0, 1.0], size=2).tolist(),
    }
    tilt = {"rho": 0.7, "f": [0.3, 1.6], "g": [1.2, 0.4]}
    records = [
        {"check": "shift_reduction", "rho0": 0.25, "rho1": 0.5, "n": 1,
         "channels": channels["shift"]},
        {"check": "gap_hamming", "n": 3, "c": 1.0, "channels": channels["gap"]},
        {"check": "tilted_contraction", **tilt, "channel_u": channels["u"],
         "channel_v": channels["v"]},
    ]
    tilted = corrcomm.verify_tilted_contraction(
        0.7, tilt["f"], tilt["g"], channels["u"], channels["v"]
    )
    expected = [
        corrcomm.verify_shift_reduction(0.25, 0.5, channels["shift"]).margin,
        corrcomm.gap_hamming_demo(3, channels["gap"], 1.0).margin,
        tilted.margin,
    ]
    assert tilted.margin == min(tilted.values["margin_u"], tilted.values["margin_v"])
    path = tmp_path / "records.json"
    path.write_text(json.dumps(records))
    code, out, _ = run(capsys, "verify", "--replay", str(path), "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["suite"] for row in rows] == [
        "replay:shift_reduction",
        "replay:gap_hamming",
        "replay:tilted_contraction",
    ]
    for row, margin in zip(rows, expected):
        assert row["violations"] == 0
        assert row["worst_margin"] is not None  # JSON null stands for NaN
        assert row["worst_margin"] == margin >= 0


def test_verify_replay_bad_file(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text('{"neither": "rows nor check"}')
    code, _, _ = run(capsys, "verify", "--replay", str(path))
    assert code == 2
    path.write_text("[1]")  # a record that is not an object
    code, _, _ = run(capsys, "verify", "--replay", str(path))
    assert code == 2
    path.write_text('[{"check": []}]')  # a kind that is not a string
    code, _, _ = run(capsys, "verify", "--replay", str(path))
    assert code == 2
    path.write_text('{"rows": [1]}')  # a report row that is not an object
    code, _, _ = run(capsys, "verify", "--replay", str(path))
    assert code == 2
    path.write_text('{"rows": [{"records": 5}]}')  # records that are not a list
    code, _, _ = run(capsys, "verify", "--replay", str(path))
    assert code == 2
    # scalar fields of the wrong type
    path.write_text(json.dumps([
        {"check": "gap_hamming", "n": 2.5, "c": 1.0,
         "channels": [[[1, 0], [0, 1], [1, 0], [0, 1]]]}
    ]))
    code, _, err = run(capsys, "verify", "--replay", str(path))
    assert code == 2
    assert "bad violation record" in json.loads(err.strip().splitlines()[-1])["error"]
    path.write_text(json.dumps([
        {"check": "shift_reduction", "rho0": "0.25", "rho1": 0.5,
         "channels": [[[1, 0], [0, 1]]]}
    ]))
    code, _, _ = run(capsys, "verify", "--replay", str(path))
    assert code == 2
    # JSON booleans where a record holds numbers
    for record in (
        {"check": "gap_hamming", "n": True, "c": True, "channels": [[[1, 0], [0, 1]]]},
        {"check": "interactive_chain", "rho": True, "source": [[0.4, 0.1], [0.1, 0.4]],
         "channels": [[[1, 0], [0, 1]]]},
    ):
        for payload in ([record], record):  # a list, or one bare record
            path.write_text(json.dumps(payload))
            code, _, err = run(capsys, "verify", "--replay", str(path))
            assert code == 2
            assert "boolean" in json.loads(err.strip().splitlines()[-1])["error"]
    code, _, _ = run(capsys, "verify", "--replay", str(tmp_path / "absent.json"))
    assert code == 2


def test_verify_seed_must_be_u64(capsys):
    code, _, _ = run(capsys, "verify", "--suite", "tilted", "--draws", "1", "--seed", "-3")
    assert code == 2


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.strip() == corrcomm.__version__


@pytest.mark.skipif(
    shutil.which("corrcomm") is None,
    reason="console script `corrcomm` is not installed on PATH",
)
def test_console_script_smoke():
    proc = subprocess.run(
        ["corrcomm", "bounds", "--k", "4", "--rho", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].startswith("4,0,")


def test_console_script_target():
    # what the installed script would run, checked without installing it
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts["corrcomm"] == "corrcomm.cli:main"
    # call the target as a console-script wrapper does: main() reads
    # sys.argv[1:] once the target spec is popped off
    wrapper = (
        "import importlib, sys; "
        "module, attr = sys.argv.pop(1).split(':'); "
        "sys.exit(getattr(importlib.import_module(module), attr)())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, scripts["corrcomm"], "bounds", "--k", "4", "--rho", "0"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].startswith("4,0,")


def test_module_has_no_other_entry():
    # the package exposes exactly one executable surface
    proc = subprocess.run(
        [sys.executable, "-c", "from corrcomm.cli import main; raise SystemExit(main(['--version']))"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0


NO_SCIPY_LOADED = """
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""


def run_without_scipy(script):
    proc = subprocess.run(
        [sys.executable, "-c", script + NO_SCIPY_LOADED],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr


# Every scheme's fast sampler, one literal cell per scheme and one verify
# suite, so an import hidden inside a function body is caught as well as a
# top-level one.
EXERCISE_EVERY_SCHEME = """
import sys
from corrcomm.cli import main
from corrcomm.schemes import SCHEME_NAMES, SchemeConfig, estimate_risk

cells = {  # (k, params) of a fast and of a literal cell per scheme
    "naive": [(8, {}), (8, {})],
    "max": [(6, {}), (6, {})],
    "local": [(8, {"rho_nominal": 0.6}), (6, {})],
    "two_way": [(8, {}), (8, {})],
    "binary_block": [(12, {"rho_tilde": 0.2, "n_block": 200, "rho_nominal": 0.9}),
                     (8, {"rho_tilde": 0.5, "n_block": 16})],
}
assert set(cells) == set(SCHEME_NAMES)
for scheme, ((k, params), (k_literal, params_literal)) in cells.items():
    estimate_risk(SchemeConfig(scheme, k, params), 0.6, 100, 5)
    estimate_risk(SchemeConfig(scheme, k_literal, params_literal, use_batches=True), 0.6, 100, 5)
assert main(["verify", "--suite", "tilted", "--draws", "5"]) == 0
"""


def test_package_never_imports_scipy_stats():
    # the binomial pmf and the normal kernels are the package's own, so no
    # scheme loads scipy.stats, nor any other scipy module
    run_without_scipy(EXERCISE_EVERY_SCHEME)


CONVERSE_COMMANDS = """
import sys
from corrcomm.cli import main

assert main(["bounds", "--k", "8", "--rho", "0.5"]) == 0
assert main(["verify", "--suite", "tilted", "--draws", "5"]) == 0
"""


def test_bounds_and_verify_never_import_scipy():
    run_without_scipy(CONVERSE_COMMANDS)


# Every caller of the max-normal quadrature: fast and literal cells of the
# three schemes that divide by E[max of 2^k normals], and maxnormal.
EXERCISE_THE_QUADRATURE = """
import sys
from corrcomm.cli import main
from corrcomm.schemes import SchemeConfig, estimate_risk

for scheme in ("max", "local", "two_way"):
    for use_batches in (False, True):
        estimate_risk(SchemeConfig(scheme, 6, use_batches=use_batches), 0.5, 100, 5)
assert main(["maxnormal", "--n", "1,2,1024,65536"]) == 0
"""


def test_package_never_imports_scipy_integrate():
    # the max-normal moments need only numpy's Gauss-Legendre nodes and the
    # package's own log_ndtr; neither scipy.integrate nor scipy.special loads
    run_without_scipy(EXERCISE_THE_QUADRATURE)


# ----------------------------------------------------------------------
# package surface
# ----------------------------------------------------------------------

LAYERS = ("rng", "infotheory", "sources", "contraction", "schemes")


def test_package_serves_every_module_name():
    exported = ["__version__"]
    for layer in LAYERS:
        module = importlib.import_module(f"corrcomm.{layer}")
        for name in module.__all__:
            assert getattr(corrcomm, name) is getattr(module, name), name
        exported += module.__all__
    assert sorted(corrcomm.__all__) == sorted(exported)
    assert len(set(exported)) == len(exported)  # no name shadows another


def test_package_rejects_unknown_names():
    with pytest.raises(ImportError):
        from corrcomm import nope  # noqa: F401
    with pytest.raises(AttributeError):
        corrcomm.nope
