"""Correlation estimation under communication constraints.

Two parties observe correlated samples (symmetric +-1 pairs or unit-variance
Gaussian pairs sharing a correlation rho) and may exchange at most k bits.
The package provides:

* exact information measures and closed-form risk benchmarks (``infotheory``),
* correlated-pair generation, the correlation-shift device, and the
  binary-to-Gaussian lift (``sources``),
* the estimation schemes themselves with exact transcripts plus fast
  sufficient-statistic samplers for Monte Carlo risk (``schemes``),
* a finite-alphabet verification lab for the contraction inequalities that
  drive the lower bounds (``contraction``),
* a command-line harness (``corrcomm``) for sweeps and verification suites.
"""

import importlib

__version__ = "0.1.0"

# Each public name lives in its module's __all__; the modules are searched in
# this order and imported on first use, so the lab never loads the schemes.
_MODULES = ("rng", "infotheory", "sources", "contraction", "schemes")


def _module(name: str):
    return importlib.import_module(f"{__name__}.{name}")


def __getattr__(name: str):
    if name == "__all__":
        return ["__version__", *(n for m in _MODULES for n in _module(m).__all__)]
    if not name.startswith("_"):  # no module exports a private name
        for module in map(_module, _MODULES):
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

