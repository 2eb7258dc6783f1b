"""Why k bits can never carry more than rho^2 * k bits across.

Every protocol message injects some information about the speaker's own
sample and interchanges some about the other party's. For the symmetric
+-1 source at correlation rho, the interchanged sum is capped at rho^2
times the injected sum, no matter how many rounds run or how the
messages are encoded. This script hunts for the worst case by randomized
search, shows the cap holding while being essentially attained, and then
demonstrates that the verifier actually bites by feeding it a mislabeled
instance.
"""

import numpy as np

from corrcomm import (
    FiniteJoint,
    InteractiveSpec,
    compute_info_split,
    search_max_ratio,
    verify_interactive_chain,
)


def main() -> None:
    print("searching for the worst interchanged/injected ratio")
    print(f"{'rho':>5} {'rho^2':>8} {'best ratio found':>17} {'specs':>7}")
    for rho in (0.3, 0.6, 0.9):
        result = search_max_ratio(
            FiniteJoint.binary_symmetric(rho),
            r_max=3,
            u_max=3,
            restarts=1500,
            seed=20,
            ceiling=rho * rho + 1e-9,
        )
        assert not result.violations
        print(
            f"{rho:>5.1f} {rho * rho:>8.4f} {result.best_ratio:>17.6f}"
            f" {result.evaluations:>7}"
        )
    print("the cap is tight: weak channels push the ratio toward rho^2")
    print()

    # a transcript that reveals Alice's sample outright
    spec = InteractiveSpec(
        source=FiniteJoint.binary_symmetric(0.6), channels=(np.eye(2),)
    )
    split = compute_info_split(spec)
    print("full-disclosure round at rho = 0.6:")
    print(f"  injected     {split.injected:.6f} bits (Alice's entire sample)")
    print(f"  interchanged {split.interchanged:.6f} bits (= I(X;Y))")
    print(f"  ratio        {split.ratio:.6f} <= 0.36")
    print()

    honest = verify_interactive_chain(spec, rho=0.6)
    lying = verify_interactive_chain(spec, rho=0.1)
    print("chain verifier on the same spec:")
    print(f"  claimed rho = 0.6 -> ok = {honest.ok}")
    print(f"  claimed rho = 0.1 -> ok = {lying.ok} "
          f"(interchanged {lying.values['interchanged']:.4f} > rho^2 injected "
          f"{lying.values['rho_sq_injected']:.4f})")
    print("a silent verifier would be useless; this one flags the lie")


if __name__ == "__main__":
    main()
