"""The benchmark tracer's name tables stay in step with the package."""

import types
from pathlib import Path

import corrcomm.cli
import corrcomm.schemes

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    # run from its source text, so no bytecode cache lands beside it
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), vars(module))
    return module


def test_tracer_tables_name_the_package_schemes_runners_and_suites():
    # a scheme, runner or suite added or removed must reach the tracer too
    tracing = load_tracing()
    assert sorted(tracing.SCHEMES) == sorted(corrcomm.schemes.SCHEMES)
    runners = [name for name in corrcomm.schemes.__all__ if name.startswith("run_")]
    assert sorted(tracing.RUNNERS) == sorted(runners)
    assert tracing.SUITES == tuple(corrcomm.cli.SUITES)
