"""corrcomm benchmark: drives ``corrcomm.cli.main(argv)`` in-process.

    python3 perfbench/run.py --workload block_sampler --seed 1 --seconds 35 --trace 0

One process, one thread, a closed loop with a single caller: each CLI
invocation starts after the previous one returns. A pass runs every
operation of the workload once; passes repeat, all with the same seed,
until ``--seconds`` is spent (at least two, so byte identity is checked).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics plus the
tracing overhead. The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` whose metric names and
units are those listed in BENCHMARK.json. See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy can load; children inherit this.
PINNED_POOLS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in PINNED_POOLS:
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import importlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 3  # this process's own set-up plus fresh subprocesses
MIN_PASSES = 2
SUBPROCESS_TIMEOUT_S = 120


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------

def setup(workload: str, seed: int, tiny: bool = False):
    """Import corrcomm, generate every config and check its preconditions.

    Returns (seconds, package, layer modules by name, ops); the clock
    starts before the import.
    """
    start = perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("corrcomm")
    layers = {
        name: importlib.import_module(f"corrcomm.{name}") for name in tracing.LAYERS
    }
    workdir = OUT / "configs" / f"seed{seed}"
    ops = workloads.build_ops(workload, seed, workdir, layers["schemes"], tiny)
    seconds = perf_counter() - start
    if Path(package.__file__).resolve().parent != SRC / "corrcomm":
        raise RuntimeError(f"imported corrcomm from {package.__file__}, not {SRC}")
    return seconds, package, layers, ops


def setup_in_subprocess(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, as a new CLI process pays it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------

class NoteLog(io.StringIO):
    """stderr capture that timestamps every write (suite boundaries)."""

    def __init__(self):
        super().__init__()
        self.notes: list[tuple[float, str]] = []

    def write(self, text: str) -> int:
        self.notes.append((perf_counter(), text))
        return super().write(text)


@dataclass
class OpRecord:
    op: workloads.Op
    start: float
    end: float
    code: object  # exit code, or the traceback of an exception
    stdout: str
    notes: list
    errors: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Pass:
    pass_id: int
    traced: bool
    wall: float
    records: list


def run_pass(cli, ops, pass_id: int, caches, tracer=None) -> Pass:
    """One pass over the ops, each a closed-loop call of cli.main(argv)."""
    for cache in caches:  # every pass pays the quadrature a fresh process pays
        cache.cache_clear()
    if tracer is not None:
        tracer.install(pass_id)
    records = []
    try:
        begin = perf_counter()
        for op in ops:
            out, err = io.StringIO(), NoteLog()
            start = perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(list(op.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:  # an operation failure, recorded and counted
                code = traceback.format_exc()
            end = perf_counter()
            records.append(OpRecord(op, start, end, code, out.getvalue(), err.notes))
        wall = perf_counter() - begin
    finally:
        if tracer is not None:
            tracer.uninstall()
    return Pass(pass_id, tracer is not None, wall, records)


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------

def parse_rows(stdout: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(stdout)))


def check_record(record: OpRecord, reference: str, schemes) -> list[str]:
    """Reasons the operation failed; empty when it is correct."""
    if record.code != 0:
        return [f"exit {record.code!r}"]
    errors = []
    if record.stdout != reference:
        errors.append("stdout differs from the first pass with the same seed")
    rows = parse_rows(record.stdout)
    op = record.op
    if op.scheme is None:
        bad = [r["suite"] for r in rows if int(r["violations"]) != 0]
        if bad or not rows:
            errors.append(f"verify violations in {bad or 'no rows'}")
        return errors
    if len(rows) != 1:
        return errors + [f"expected one row, got {len(rows)}"]
    mse = float(rows[0]["mse"])
    se = float(rows[0]["ci95"]) / 1.96
    if op.scheme == "naive":
        exact = schemes.naive_mse_exact(op.k, op.rho)
        if abs(mse - exact) > 4 * se:
            errors.append(f"naive mse {mse} is more than 4 s.e. from {exact}")
    elif op.scheme == "max":
        exact = schemes.max_scheme_mse_exact(op.k, op.rho)
        if mse > exact + 4 * se:
            errors.append(f"max mse {mse} exceeds exact {exact} + 4 s.e.")
    return errors


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def op_work(record: OpRecord) -> int:
    """Trials for a simulate cell, checks for a verify run."""
    if record.op.scheme is not None:
        return record.op.trials
    return sum(int(r["checks"]) for r in parse_rows(record.stdout))


def op_time_to_2pct(record: OpRecord) -> float:
    """Time to a 95% CI half-width of 2% of the risk, from the cell's row.

    Verify checks are exact, so their time to any precision is their time.
    """
    rows = parse_rows(record.stdout)
    if record.op.scheme is None or not rows:
        return record.seconds
    mse, ci95 = float(rows[0]["mse"]), float(rows[0]["ci95"])
    return record.seconds * (ci95 / (0.02 * mse)) ** 2


def fastest(passes: list[Pass]) -> list[OpRecord]:
    """Each operation's fastest record over the passes.

    On a shared host the speed of the machine can change by up to 2x over
    tens of seconds. When it switches between a fast and a slow level, an
    operation's fastest time stays put from run to run, while a median
    over passes follows whichever level the run fell in.
    """
    return [min(records, key=lambda r: r.seconds)
            for records in zip(*(p.records for p in passes))]


def end_to_end_metrics(passes: list[Pass], setup_samples: list[float]) -> dict:
    best = fastest(passes)
    seconds = sum(r.seconds for r in best)
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": seconds,
        "ops_per_s": sum(op_work(r) for r in best) / seconds,
        "time_to_2pct_s": sum(op_time_to_2pct(r) for r in best),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def git_rev() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_meta(args) -> dict:
    import numpy
    import scipy

    return {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "threads_pinned": {v: os.environ[v] for v in PINNED_POOLS},
        "argv": sys.argv[1:],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def load_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, setup_samples: int = SETUP_SAMPLES,
            min_passes: int = MIN_PASSES) -> dict:
    """Set up, run passes for ``seconds``, check every output, compute metrics."""
    setup_s, package, layers, ops = setup(workload, seed, tiny)
    samples = [setup_s] + [
        setup_in_subprocess(workload, seed) for _ in range(setup_samples - 1)
    ]
    caches = tracing.package_caches(layers.values())
    tracer = tracing.Tracer(package, layers) if trace else None

    passes: list[Pass] = []
    begin = perf_counter()
    while len(passes) < min_passes or (
        perf_counter() - begin + passes[-1].wall <= seconds
    ):
        traced = trace and len(passes) % 2 == 1
        passes.append(
            run_pass(layers["cli"], ops, len(passes), caches, tracer if traced else None)
        )

    reference = [r.stdout for r in passes[0].records]
    attempted = failed = 0
    for p in passes:
        for record, ref in zip(p.records, reference):
            record.errors = check_record(record, ref, layers["schemes"])
            attempted += 1
            failed += bool(record.errors)
    for cache in caches:  # the checks' reference values filled them
        cache.cache_clear()

    untraced = [p for p in passes if not p.traced]
    result = {
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end_metrics(untraced, samples),
        "setup_samples": samples,
    }
    if trace:
        traced = {p.pass_id: p.records for p in passes if p.traced}
        layers = tracing.layer_metrics(tracer, traced)
        layers["trace.overhead_frac"] = (
            statistics.median(p.wall for p in passes if p.traced)
            / statistics.median(p.wall for p in untraced)
            - 1.0
        )
        result["per_layer"] = layers
        result["tracer"] = tracer
    return result


def emitted_metrics(result: dict, units: dict, trace: bool) -> dict:
    """The metrics BENCHMARK.json lists for this mode, with their units."""
    kind = "per_layer" if trace else "end_to_end"
    return {
        name: {"value": result[kind][name], "unit": unit}
        for name, unit in units[kind].items()
    }


def summary_lines(workload: str, result: dict, trace: bool,
                  meta: dict | None = None) -> list[str]:
    """Human-readable report, using the README's names for the e2e metrics."""
    e2e = result["end_to_end"]
    passes = result["passes"]
    best = fastest([p for p in passes if not p.traced])
    lines = [
        f"run: git_rev={meta['git_rev']} python={meta['python']} "
        f"numpy={meta['numpy']} scipy={meta['scipy']} nproc={meta['nproc']} "
        f"cpu={meta['cpu_model']!r}"
    ] if meta else []
    lines += [
        f"workload {workload}: {len(passes)} passes "
        f"({sum(p.traced for p in passes)} traced), "
        f"{len(passes[0].records)} operations per pass",
        f"  setup_s         {e2e['setup_s']:.6g} s  (median of {len(result['setup_samples'])})",
        f"  wall_s          {e2e['wall_s']:.6g} s",
        f"  ops_per_s       {e2e['ops_per_s']:.6g} ops/s  (trials and checks)",
    ]
    for name, unit, records in (
        ("trials_per_s", "trials/s", [r for r in best if r.op.scheme is not None]),
        ("checks_per_s", "checks/s", [r for r in best if r.op.scheme is None]),
    ):
        if records:
            rate = sum(op_work(r) for r in records) / sum(r.seconds for r in records)
            lines.append(f"  {name:15s} {rate:.6g} {unit}")
    lines.append(f"  time_to_2pct_s  {e2e['time_to_2pct_s']:.6g} s")
    lines += [
        f"  peak_rss_mb     {e2e['peak_rss_mb']:.6g} MiB",
        f"  fail_frac       {result['failed'] / result['attempted']:.6g} ratio "
        f"({result['failed']}/{result['attempted']})",
    ]
    for p in passes:
        for record in p.records:
            for error in record.errors:
                lines.append(f"  FAIL pass {p.pass_id} {record.op.label}: {error}")
    if trace:
        lines.append("  per-layer (median over traced passes):")
        for name, value in result["per_layer"].items():
            lines.append(f"    {name:56s} {value:.6g}")
    return lines


def write_record(args, meta: dict, result: dict, metrics: dict,
                 lines: list[str]) -> None:
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    record = {
        "meta": meta,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "setup_samples": result["setup_samples"],
        "passes": [
            {
                "pass_id": p.pass_id,
                "traced": p.traced,
                "wall_s": p.wall,
                "ops": [
                    {"label": r.op.label, "seconds": r.seconds, "errors": r.errors,
                     "stdout": r.stdout}
                    for r in p.records
                ],
            }
            for p in result["passes"]
        ],
        "summary": lines,
    }
    (runs / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if "tracer" in result:
        result["tracer"].write(OUT / "spans" / f"{stem}.jsonl.gz")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print this interpreter's set-up time and exit")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("seed must be in [0, 2**64)")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        print(setup(args.workload, args.seed)[0])
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = emitted_metrics(result, load_units(), bool(args.trace))
    meta = run_meta(args)
    lines = summary_lines(args.workload, result, bool(args.trace), meta)
    write_record(args, meta, result, metrics, lines)
    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
