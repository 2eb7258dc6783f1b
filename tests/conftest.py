"""Shared test plumbing: the acceptance-criteria scoreboard, the
environment for child interpreters, and the gaussian pair recipe written
out.

Acceptance tests report their verdict through record_criterion before
asserting, so the terminal summary always carries one PASS/FAIL line per
criterion even when pytest captures stdout.
"""

import os
from pathlib import Path

import numpy as np

import corrcomm
from corrcomm._normal import ndtri

_CRITERIA: dict[int, tuple[str, bool, str]] = {}


def record_criterion(number: int, name: str, ok: bool, detail: str = "") -> None:
    _CRITERIA[number] = (name, bool(ok), detail)


def pytest_terminal_summary(terminalreporter):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_CRITERIA):
        name, ok, detail = _CRITERIA[number]
        verdict = "PASS" if ok else "FAIL"
        line = f"criterion {number:02d} {verdict:4s} {name}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)


def child_env() -> dict[str, str]:
    """Environment for a subprocess that must import this corrcomm.

    The directory holding the imported package goes first on PYTHONPATH,
    ahead of any inherited entries, so a child interpreter runs the code
    under test from a source tree or an installed package alike, and from
    any working directory.
    """
    env = dict(os.environ)
    root = str(Path(corrcomm.__file__).resolve().parents[1])
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([root, inherited]) if inherited else root
    return env


def word_normals(words: np.ndarray) -> np.ndarray:
    """The normals a gaussian stream makes of raw 64-bit words, written out:
    Phi^-1((j + 1/2) 2^-53) of each word's high 53 bits j, through the mirror
    min(j, 2^53 - 1 - j) that keeps ndtri's argument exact, with the sign of
    the word's top bit."""
    high = words >> 11
    normals = ndtri((np.minimum(high, 2**53 - 1 - high) + 0.5) * 2.0**-53)
    return np.where(high >> 52, -normals, normals)
