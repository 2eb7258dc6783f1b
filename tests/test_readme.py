"""README tables and constants against the code.

The `params` table and the `CHECKS` table in README.md are parsed and
compared, row for row, with `schemes.SCHEMES` and `contraction.CHECKS`,
and every constant README names is looked up in those two modules, so
adding, removing or retuning a setting cannot leave README stale.
"""

import math
import re
from pathlib import Path

import corrcomm.contraction
import corrcomm.schemes
from corrcomm.contraction import CHECKS
from corrcomm.schemes import SCHEMES

README = Path(__file__).resolve().parents[1] / "README.md"

# README's words for the defaults that depend on the cell's (k, rho)
CELL_DEFAULTS = {
    "rho": lambda k, rho: rho,
    "ceil(sqrt(k))": lambda k, rho: math.ceil(math.sqrt(k)),
}


# names README spells in capitals that are not constants of the package
NOT_CONSTANTS = {"PATH"}  # the environment variable


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


def test_readme_constants_exist_with_their_values():
    # a backticked name of two or more capitals, digits and underscores is
    # a constant (single capitals such as `X` are variables of the math)
    text = README.read_text(encoding="utf-8")
    modules = (corrcomm.schemes, corrcomm.contraction)
    names = set(re.findall(r"`([A-Z][A-Z0-9_]+)`", text)) - NOT_CONSTANTS
    assert names
    for name in names:
        assert any(hasattr(module, name) for module in modules), name
    pairs = re.findall(r"`([A-Z][A-Z0-9_]+)`\s+=\s+(-?[0-9][0-9.e+-]*[0-9])", text)
    assert pairs
    for name, value in pairs:
        actual = next(getattr(m, name) for m in modules if hasattr(m, name))
        assert actual == float(value), name
