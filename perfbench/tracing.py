"""Spans around the package's public functions, and the per-layer metrics.

The tracer wraps, from outside the package, every public function of each
layer module (the names in its ``__all__``; ``cli``, which has none, is
entered through ``main``) and the constructor of every public class. A
function is rebound in every module that imported it by name, so
``contraction.mutual_info`` and ``infotheory.mutual_info`` both record a
span named ``infotheory.mutual_info``. Spans are kept in memory as
``[name, start, end, parent, pass_id, info]`` and written out at the end.
"""

from __future__ import annotations

import functools
import gzip
import json
import re
import statistics
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "schemes", "sources", "rng", "infotheory", "contraction")
SCHEMES = ("naive", "max", "local", "two_way", "binary_block")
RUNNERS = ("run_naive", "run_max_scheme", "run_local_scheme", "run_binary_block",
           "run_two_way")
SUITES = ("sdpi", "tilted", "tensor", "chain", "shift", "gaphamming")
SUITE_NOTE = re.compile(r"verify: suite=(\w+) checks=(\d+)")

NAME, START, END, PARENT, PASS, INFO = range(6)


def package_caches(modules) -> list:
    """Every functools cache defined in the package's modules."""
    found = {}
    for module in modules:
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and getattr(
                value, "__module__", ""
            ).startswith("corrcomm"):
                found[id(value)] = value
    return list(found.values())


class Tracer:
    """Installs span-recording wrappers for one traced pass at a time."""

    def __init__(self, package, layer_modules: dict):
        self.package = package
        self.layer_modules = layer_modules  # layer name -> module
        self.caches = package_caches(layer_modules.values())
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._pass_id = -1
        self._patches: list[tuple] = []

    # -- annotations read from arguments and results ----------------------

    def _cache_misses(self) -> int:
        return sum(cache.cache_info().misses for cache in self.caches)

    def _annotator(self, name: str):
        """(before, after) hooks that attach work counts to a span."""
        if name == "schemes.estimate_risk":
            def after(_, args, kwargs, report):
                config = args[0] if args else kwargs["config"]
                return {
                    "scheme": report.scheme,
                    "literal": bool(config.use_batches),
                    "trials": report.trials,
                    "decode_fail": report.extras.get("decode_fail_rate"),
                    "exist_fail": report.extras.get("exist_fail_rate"),
                }
            return None, after
        if name == "schemes.expected_max_normal":
            def after(misses, args, kwargs, result):
                return {"cold": self._cache_misses() > misses}
            return self._cache_misses, after
        if name == "sources.gen_pairs":
            def after(_, args, kwargs, batch):
                return {"pairs": len(batch)}
            return None, after
        if name == "contraction.search_max_ratio":
            def after(_, args, kwargs, result):
                return {"evals": result.evaluations}
            return None, after
        return None, None

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        before, after = self._annotator(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._pass_id, None]
            stack.append(len(spans))
            spans.append(span)
            state = before() if before else None
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if after:
                span[INFO] = after(state, args, kwargs, result)
            return result

        return traced

    # -- install / uninstall ---------------------------------------------

    def install(self, pass_id: int) -> None:
        self._pass_id = pass_id
        replacements = {}  # id(original function) -> wrapper
        for layer, module in self.layer_modules.items():
            names = getattr(module, "__all__", ("main",))
            for attr in names:
                obj = getattr(module, attr, None)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if isinstance(obj, type):
                    if "__init__" in vars(obj):
                        self._patch(obj, "__init__", self._wrap(name, obj.__init__))
                elif callable(obj):
                    replacements[id(obj)] = (obj, self._wrap(name, obj))
        for module in (self.package, *self.layer_modules.values()):
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (gzip) with its self time."""
        path.parent.mkdir(parents=True, exist_ok=True)
        covered = child_coverage(self.spans)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i, span in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": span[NAME],
                            "start": span[START],
                            "end": span[END],
                            "parent": span[PARENT],
                            "pass": span[PASS],
                            "self": span[END] - span[START] - covered[i],
                            "info": span[INFO],
                        }
                    )
                    + "\n"
                )


def child_coverage(spans) -> list[float]:
    """Per span, the part of its interval its direct children cover.

    Calls are strictly nested on the one thread, so children never overlap
    and their durations add.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return covered


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def pass_layer_metrics(spans, covered, pass_id: int, records) -> dict:
    """Per-layer metrics of one traced pass.

    Ratios and rates over no work (a layer the workload never calls) are 0.
    ``records`` are the pass's operation records, which carry stdout and
    the timestamped stderr notes that bound each verify suite.
    """
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    self_time: dict[str, float] = {}
    risk: dict[tuple, list] = {}  # (scheme, literal) -> [trials, seconds, dfail, efail]
    cold = [0, 0.0]
    pairs = 0
    search_evals = 0
    for i, span in enumerate(spans):
        if span[PASS] != pass_id:
            continue
        name = span[NAME]
        dur = span[END] - span[START]
        calls[name] = calls.get(name, 0) + 1
        inclusive[name] = inclusive.get(name, 0.0) + dur
        self_time[name] = self_time.get(name, 0.0) + dur - covered[i]
        info = span[INFO]
        if info is None:
            continue
        if name == "schemes.estimate_risk":
            acc = risk.setdefault((info["scheme"], info["literal"]), [0, 0.0, 0.0, 0.0])
            acc[0] += info["trials"]
            acc[1] += dur
            acc[2] += (info["decode_fail"] or 0.0) * info["trials"]
            acc[3] += (info["exist_fail"] or 0.0) * info["trials"]
        elif name == "schemes.expected_max_normal" and info["cold"]:
            cold[0] += 1
            cold[1] += dur
        elif name == "sources.gen_pairs":
            pairs += info["pairs"]
        elif name == "contraction.search_max_ratio":
            search_evals += info["evals"]

    def per_call_us(name: str, table: dict) -> float:
        return 1e6 * _rate(table.get(name, 0.0), calls.get(name, 0))

    m: dict[str, float] = {}
    for literal in (False, True):
        prefix = "schemes.estimate_risk." + ("literal." if literal else "")
        for scheme in SCHEMES:
            trials, seconds, _, _ = risk.get((scheme, literal), (0, 0.0, 0, 0))
            m[f"{prefix}{scheme}.trials_per_s"] = _rate(trials, seconds)
    m["schemes.estimate_risk.trials"] = sum(acc[0] for acc in risk.values())
    m["schemes.expected_max_normal.cold_s"] = cold[1]
    m["schemes.expected_max_normal.cold_calls"] = cold[0]
    def ok_frac(scheme: str, column: int) -> float:
        """1 - failed trials / trials, over fast and literal cells."""
        trials = sum(acc[0] for key, acc in risk.items() if key[0] == scheme)
        fails = sum(acc[column] for key, acc in risk.items() if key[0] == scheme)
        return 1.0 - fails / trials if trials else 0.0

    for scheme in ("local", "two_way", "binary_block"):
        m[f"schemes.{scheme}.decode_ok_frac"] = ok_frac(scheme, 2)
    m["schemes.binary_block.exist_ok_frac"] = ok_frac("binary_block", 3)
    for runner in RUNNERS:
        m[f"schemes.{runner}.us_per_call"] = per_call_us(f"schemes.{runner}", self_time)

    m["sources.gen_pairs.calls"] = calls.get("sources.gen_pairs", 0)
    m["sources.gen_pairs.pairs_per_s"] = _rate(pairs, inclusive.get("sources.gen_pairs", 0.0))
    m["rng.substream.calls"] = calls.get("rng.substream", 0)
    m["rng.substream.us_per_call"] = per_call_us("rng.substream", inclusive)

    m["contraction.search_max_ratio.evals"] = search_evals
    m["contraction.search_max_ratio.evals_per_s"] = _rate(
        search_evals, inclusive.get("contraction.search_max_ratio", 0.0)
    )
    for fn in ("compute_info_split", "build_joint"):
        name = f"contraction.{fn}"
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.evals_per_s"] = _rate(calls.get(name, 0), inclusive.get(name, 0.0))
    m["contraction.InteractiveSpec.us_per_call"] = per_call_us(
        "contraction.InteractiveSpec", inclusive
    )
    for fn in ("mutual_info", "kl", "cond_mutual_info"):
        name = f"infotheory.{fn}"
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.us_per_call"] = per_call_us(name, inclusive)
    m["infotheory.FiniteJoint.us_per_call"] = per_call_us("infotheory.FiniteJoint", inclusive)

    for layer in LAYERS[1:]:
        m[f"{layer}.self_s"] = sum(
            (t for name, t in self_time.items() if name.startswith(layer + ".")), 0.0
        )
    m["cli.main.self_s"] = self_time.get("cli.main", 0.0)
    m["cli.stdout_bytes"] = sum(len(r.stdout.encode("utf-8")) for r in records)

    suite_s = dict.fromkeys(SUITES, 0.0)
    suite_checks = dict.fromkeys(SUITES, 0)
    for record in records:
        mark = record.start
        for when, text in record.notes:
            hit = SUITE_NOTE.search(text)
            if hit and hit.group(1) in suite_s:
                suite_s[hit.group(1)] += when - mark
                suite_checks[hit.group(1)] += int(hit.group(2))
                mark = when
    for suite in SUITES:
        m[f"contraction.sweep.{suite}.s"] = suite_s[suite]
        m[f"contraction.sweep.{suite}.checks"] = suite_checks[suite]
    return m


def layer_metrics(tracer: Tracer, traced_passes: dict) -> dict:
    """Median over traced passes of each per-layer metric.

    ``traced_passes`` maps pass id to that pass's operation records.
    """
    covered = child_coverage(tracer.spans)
    per_pass = [
        pass_layer_metrics(tracer.spans, covered, pass_id, records)
        for pass_id, records in traced_passes.items()
    ]
    return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
