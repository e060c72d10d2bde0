#!/usr/bin/env python3
"""Run the full modular-behavior campaign and print a summary table.

Exercises: the eight theta transformation laws, the exact half-period
exchange, the S-exchange of the plus-kind and first half-level genera
(measuring the rank factor 2^l from the data), and weight-2 group checks
for the curvature-matched bundle on CP^2 over all four congruence groups.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ellgen.bundleops import ProjBundle  # noqa: E402
from ellgen.cohring import LinearClass, builtin_manifold  # noqa: E402
from ellgen.genera import THETA_PRODUCT, GenusKind, pell  # noqa: E402
from ellgen.modcheck import GroupSpec, check_T_exact, check_group, cross_transform  # noqa: E402
from ellgen.theta import jacobi_identity_exact, transformation_law_table  # noqa: E402


def main():
    print("== theta transformation laws (worst residual over 3 samples) ==")
    for kind, law, resid in transformation_law_table():
        print(f"  {kind.value:7s} {law}-law  {resid:.3e}")
    print(f"  product identity exact to q^10: {jacobi_identity_exact(20)}")

    cp2 = builtin_manifold("CP2")
    x = LinearClass.generator(cp2.presentation, "x")
    matched = ProjBundle(rank=3, roots=(x, x, x), twist_b=LinearClass.zero(cp2.presentation))

    print("== genera of the curvature-matched bundle on CP2 ==")
    series = {
        kind: pell(cp2, matched, kind, THETA_PRODUCT, 80).series
        for kind in (GenusKind.PELL, GenusKind.PELL1, GenusKind.PELL2, GenusKind.PELL3)
    }
    print(f"  first genus identically zero: {series[GenusKind.PELL].is_zero()}")
    print(
        "  exact half-period exchange: "
        f"{check_T_exact(series[GenusKind.PELL2], series[GenusKind.PELL3])}"
    )

    rank_factor = 2**matched.rank
    rep = cross_transform(
        series[GenusKind.PELL1], series[GenusKind.PELL2], weight=2, multiplier=rank_factor
    )
    print(
        f"  S-exchange: measured multiplier {rep.measured_ratios[0].real:.9f} "
        f"(rank factor 2^l = {rank_factor}), max residual {rep.max_residual():.2e}, "
        f"best q-prefactor exponent {rep.best_prefactor_exponent}"
    )

    print("== weight-2 group checks ==")
    jobs = [
        (GenusKind.PELL, GroupSpec.SL2Z),
        (GenusKind.PELL1, GroupSpec.Gamma0_2),
        (GenusKind.PELL2, GroupSpec.Gamma_up0_2),
        (GenusKind.PELL3, GroupSpec.GammaTheta),
    ]
    for kind, group in jobs:
        reports = check_group(series[kind], group, weight=2).reports
        for r in reports:
            print(f"  {kind.value:6s} over {group.value:12s} {r.summary()}")


if __name__ == "__main__":
    main()
