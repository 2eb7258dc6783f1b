"""Demo scripts print fixed bytes.

Each script under demos/ runs in-process as `__main__`, and its stdout is
compared byte for byte with tests/golden/demo-NN.txt. The demos draw from
fixed seeds, so a change that moves any of these numbers must say so and
re-record the file.
"""

import runpy
import tracemalloc
from pathlib import Path

import pytest

import corrcomm.contraction
import corrcomm.schemes

DEMOS = sorted(Path(__file__).resolve().parents[1].joinpath("demos").glob("[0-9]*.py"))
GOLDEN = Path(__file__).with_name("golden")


def test_every_demo_has_a_golden():
    assert [path.name[:2] for path in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_output_matches_golden(capsys, path):
    runpy.run_path(str(path), run_name="__main__")
    golden = GOLDEN / f"demo-{path.name[:2]}.txt"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_demo_02_monte_carlo_draws_in_chunks(capsys):
    # Drawn as one million-entry stream, the cross-check peaked at 55.3 MiB
    # traced; 8192 uniforms at a time, the whole demo peaks at 3.7 MiB.
    # The package is imported above, so its import is not counted.
    tracemalloc.start()
    try:
        runpy.run_path(str(DEMOS[1]), run_name="__main__")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
