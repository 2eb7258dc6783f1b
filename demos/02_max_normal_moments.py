"""Moments of the maximum of n standard normals, exactly.

The pointer schemes divide by E[max of 2^k normals], so that constant has
to be right to all the digits the estimator needs. The library computes
it by Gauss-Legendre quadrature on the order-statistic density; this script
cross-checks a mid-sized value by Monte Carlo through the inverse CDF
(max of n uniforms is one uniform raised to 1/n) and shows how slowly the
textbook asymptote sqrt(2 ln n) is approached: the ratio is still only
~0.92 at n = 2^26, which is exactly why finite-k code must not use the
asymptote as a plug-in.
"""

import math

from corrcomm import expected_max_normal, var_max_normal
from corrcomm._normal import ndtri
from corrcomm.rng import substream


# uniforms drawn per piece: the stream is the same as one draw of them all
CHUNK = 1 << 13


def mc_mean(n: int, draws: int, seed: int = 5) -> float:
    rng = substream(seed, "demo/max-normal-mc")
    sums = [
        float(ndtri(rng.random(min(CHUNK, draws - start)) ** (1.0 / n)).sum())
        for start in range(0, draws, CHUNK)
    ]
    return math.fsum(sums) / draws


def main() -> None:
    print(f"{'n':>10} {'mean':>10} {'variance':>10} {'sqrt(2 ln n)':>13} {'ratio':>7}")
    for exp in (1, 4, 8, 12, 16, 20, 26):
        n = 2**exp
        mean = expected_max_normal(n)
        asym = math.sqrt(2.0 * math.log(n))
        print(
            f"{n:>10} {mean:>10.5f} {var_max_normal(n):>10.5f}"
            f" {asym:>13.5f} {mean / asym:>7.4f}"
        )
    print()
    n = 2**10
    draws = 1_000_000
    mc = mc_mean(n, draws)
    quad = expected_max_normal(n)
    print(f"cross-check at n = {n}: quadrature {quad:.6f}, MC({draws}) {mc:.6f}")
    print(f"difference {abs(quad - mc):.2e} (MC standard error ~ "
          f"{math.sqrt(var_max_normal(n) / draws):.2e})")


if __name__ == "__main__":
    main()
