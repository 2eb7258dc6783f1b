"""The benchmark's workloads: which CLI invocations one pass runs.

Each simulate invocation is one (k, rho) cell, so every operation's time
pairs up with the accuracy row it prints. Configs are generated from the
workload seed, written as JSON files, and handed to ``corrcomm simulate``
exactly as a user would; the program sees nothing else.

Trial counts are sized so one pass takes 1.5-12 s on a 2-vCPU Xeon VM and
the Monte Carlo part of the seed-to-seed spread of ``time_to_2pct_s``
stays near 4%. ``literal_and_verify`` runs the literal cells and then one
verify invocation per suite at a fifth of the CLI's default draws, so a
pass takes about 4.5 s rather than 12 s and a run holds several passes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("block_sampler", "pointer_samplers", "literal_and_verify")

# Criterion 05's anchors (rho_tilde, n_block, trials) at k=16, rho=0, plus
# the partial-prefix layout (prefix 12 of 13 index bits) at (rho, trials),
# which runs the decode/bucket path that rho_nominal=0 skips.
BLOCK_ANCHORS = ((0.5, 32, 600), (0.25, 128, 700), (0.1, 1000, 450))
PARTIAL_PREFIX = {"rho_tilde": 0.2, "n_block": 200, "rho_nominal": 0.9}
PARTIAL_PREFIX_CELLS = ((0.6, 900), (0.9, 600))

POINTER_SCHEMES = ("naive", "max", "local", "two_way")
POINTER_KS = (8, 12, 16, 20)
POINTER_RHOS = (0.0, 0.3, 0.6, 0.9)
POINTER_TRIALS = 100_000

# (scheme, k, params, trials) for the literal use_batches path, at rho 0.6.
LITERAL_RHO = 0.6
LITERAL_CELLS = (
    ("naive", 64, {}, 4000),
    ("max", 10, {}, 3000),
    ("local", 10, {}, 4000),
    ("two_way", 10, {}, 6000),
    ("binary_block", 8, {"rho_tilde": 0.5, "n_block": 16, "rho_nominal": 0.4}, 3000),
)

# Verify: one invocation per suite, at a fifth of the CLI's default
# draws (sdpi 2000, tilted 10000, tensor 500, chain 201, shift 100,
# gaphamming 100). Fixed costs (tensor's two 400-restart searches, sdpi's
# first evaluations) do not shrink with the draws.
VERIFY_DRAWS = {"sdpi": 400, "tilted": 2000, "tensor": 100, "chain": 40,
                "shift": 20, "gaphamming": 20}

# Self-check sizes: a fiftieth of the trials, but never below the CLI's
# minimum of 100. The 4 s.e. checks estimate s.e. from the sample, which
# needs a few thousand trials when squared errors are heavy-tailed, and the
# cheap pointer cells keep that many.
TINY_TRIALS_DIVISOR = 50
TINY_TRIALS_MIN = 100
TINY_DRAWS = 2


@dataclass(frozen=True)
class Op:
    """One CLI invocation of a pass."""

    label: str
    argv: tuple
    scheme: str | None = None  # None for verify
    k: int = 0
    rho: float = 0.0
    trials: int = 0


def _simulate_cells(workload: str, tiny: bool):
    """(scheme, k, rho, params, trials, use_batches) for each cell."""
    cells = []
    if workload == "block_sampler":
        for rho_tilde, n_block, trials in BLOCK_ANCHORS:
            params = {"rho_tilde": rho_tilde, "n_block": n_block}
            cells.append(("binary_block", 16, 0.0, params, trials, False))
        for rho, trials in PARTIAL_PREFIX_CELLS:
            cells.append(("binary_block", 12, rho, PARTIAL_PREFIX, trials, False))
    elif workload == "pointer_samplers":
        for scheme in POINTER_SCHEMES:
            for k in POINTER_KS:
                for rho in POINTER_RHOS:
                    cells.append((scheme, k, rho, {}, POINTER_TRIALS, False))
    elif workload == "literal_and_verify":
        for scheme, k, params, trials in LITERAL_CELLS:
            cells.append((scheme, k, LITERAL_RHO, params, trials, True))
    if tiny:
        cells = [
            (*cell[:4], max(TINY_TRIALS_MIN, cell[4] // TINY_TRIALS_DIVISOR), cell[5])
            for cell in cells
        ]
    return cells


def build_ops(workload: str, seed: int, workdir: Path, schemes,
              tiny: bool = False) -> list[Op]:
    """Generate every config from the seed, check it, and return the ops.

    Each simulate config is written to ``workdir`` and must pass
    ``check_preconditions`` before the first trial of the first pass runs.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for i, (scheme, k, rho, params, trials, batches) in enumerate(
        _simulate_cells(workload, tiny)
    ):
        schemes.check_preconditions(
            schemes.SchemeConfig(scheme, k, dict(params), use_batches=batches), rho
        )
        config = {
            "scheme": scheme,
            "k_grid": [k],
            "rho_grid": [rho],
            "params": params,
            "trials": trials,
            "seed": seed,
            "use_batches": batches,
        }
        path = workdir / f"{workload}-{i:02d}.json"
        path.write_text(json.dumps(config, sort_keys=True) + "\n", encoding="utf-8")
        label = f"{'literal/' if batches else ''}{scheme}/k={k}/rho={rho}"
        if params:
            label += "/" + ",".join(f"{key}={params[key]}" for key in sorted(params))
        ops.append(
            Op(
                label=label,
                argv=("simulate", "--config", str(path)),
                scheme=scheme,
                k=k,
                rho=rho,
                trials=trials,
            )
        )
    if workload == "literal_and_verify":
        ops += [
            Op(
                label=f"verify/{suite}",
                argv=("verify", "--suite", suite, "--seed", str(seed),
                      "--draws", str(TINY_DRAWS if tiny else draws)),
            )
            for suite, draws in VERIFY_DRAWS.items()
        ]
    return ops
