"""README tables against the tables the code reads.

The `params` table and the `CHECKS` table in README.md are parsed and
compared, row for row, with `schemes.SCHEMES` and `contraction.CHECKS`,
so adding, removing or retuning a setting cannot leave README stale.
"""

import math
import re
from pathlib import Path

from corrcomm.contraction import CHECKS
from corrcomm.schemes import SCHEMES

README = Path(__file__).resolve().parents[1] / "README.md"

# README's words for the defaults that depend on the cell's (k, rho)
CELL_DEFAULTS = {
    "rho": lambda k, rho: rho,
    "ceil(sqrt(k))": lambda k, rho: math.ceil(math.sqrt(k)),
}


def table_rows(header: str) -> list[list[str]]:
    """The cells of each body row of the README table under header."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(header) + 2  # skip the header and its rule
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def test_readme_params_table_matches_schemes():
    documented = {}
    for schemes, keys in table_rows("| scheme | `params` keys (default) |"):
        pairs = [] if keys == "none" else re.findall(r"`(\w+)` \((.*?)\)(?:, |$)", keys)
        for scheme in re.findall(r"`(\w+)`", schemes):
            documented[scheme] = pairs
    assert set(documented) == set(SCHEMES)
    for name, scheme in SCHEMES.items():
        assert [key for key, _ in documented[name]] == list(scheme.params), name
        for key, text in documented[name]:
            default = scheme.params[key]
            if text == "required":
                assert default is None, (name, key)
            elif callable(default):
                for k, rho in [(9, 0.3), (20, -0.6)]:
                    assert default(k, rho) == CELL_DEFAULTS[text](k, rho), (name, key)
            else:
                assert default == float(text), (name, key)


def test_readme_checks_table_matches_checks():
    header = "| check kind | suite | CLI draws | CLI arguments |"
    documented = {}
    for kind, suite, draws, args in table_rows(header):
        documented[kind.strip("`")] = (
            suite.strip("`"),
            None if draws == "not on the CLI" else int(draws),
            re.findall(r"`([^`]*)`", args)[:1],
            "(`--rho`)" in args,
        )
    assert documented == {
        kind: (
            check.suite,
            check.draws,
            [", ".join(f"{key}={value!r}" for key, value in check.args.items())]
            if check.args else [],
            "rho" in check.args,
        )
        for kind, check in CHECKS.items()
    }
