"""Two reductions: recentering a correlation, and testing its sign.

Part 1. A pair with correlation rho0 can be shifted to correlation rho1
by mixing in a shared random sign. The shift is a local operation, so
any protocol that estimates near rho1 also works near rho0 after the
shift, and the information cost of telling the two hypotheses apart is
at most ((rho1 - rho0) / (1 - |rho0|))^2 per transcript bit. The library
verifies that bound exactly on finite instances; here we sample the
coupling and watch the moments land where they should.

Part 2. Deciding the *sign* of a weak correlation c/sqrt(n) needs order
n transcript bits, because each bit moves the two hypothesis mixtures
apart by at most rho0^2 = c^2/n. The demo computes I(hypothesis;
transcript) exactly, from tables of 2^n rows, for n from 2 to 16 and
reports the implied budget.
"""

from corrcomm import (
    CorrelationModel,
    gen_pairs,
    gap_hamming_demo,
    majority_channel,
    shift_correlation,
    shift_params,
    verify_shift_reduction,
)

import numpy as np

SEED = 13


def main() -> None:
    rho0, rho1 = 0.25, 0.5
    params = shift_params("binary", rho0, rho1)
    print(f"shift {rho0} -> {rho1}: mix weight {params.alpha:.3f}, "
          f"input correlation {params.input_rho:.4f}")
    base = gen_pairs(CorrelationModel("binary", params.input_rho), 400_000, SEED)
    shifted = shift_correlation(base, params, SEED)
    print(f"  sampled correlation after shift: "
          f"{shifted.empirical_correlation():.4f} (target {rho1})")
    report = verify_shift_reduction(rho0, rho1, (np.eye(2),))
    print(f"  exact one-bit transcript check: divergences "
          f"({report.values['div_x']:.5f}, {report.values['div_y']:.5f}) "
          f"<= bound {report.values['bound']:.5f} -> ok = {report.ok}")
    print()

    print("sign testing at per-coordinate correlation 1/sqrt(n):")
    print(f"{'n':>3} {'I(U; transcript)':>17} {'implied budget':>15}")
    for n in (2, 4, 6, 8, 12, 16):
        # two rounds of coordinate majorities, the natural first attempt
        vote = majority_channel(n)
        second = np.stack([vote] * 2, axis=1)
        demo = gap_hamming_demo(n, (vote, second), c=1.0)
        print(f"{n:>3} {demo.values['i_u_pi']:>17.6f} "
              f"{demo.values['implied_k_lower']:>15.3f}")
    print()
    print("One round of majority alone is blind (a transcript computed from")
    print("x only cannot see the sign), and even with a reply the per-bit")
    print("information shrinks like 1/n: useful transcripts must be long.")


if __name__ == "__main__":
    main()
