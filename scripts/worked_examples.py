#!/usr/bin/env python3
"""Reproduce the worked examples end to end and print the tables.

Covers the fractional A-hat indices on CP^2/CP^4, the Witten genus, the
four twisted genera of O(1) on CP^2 by both engines, the spin-c operator
reduction, the theta-derivative closed form for the plus-kind genus, and
the degree-12 cancellation identity.
"""

import cmath
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ellgen.bundleops import ProjBundle  # noqa: E402
from ellgen.cohring import LinearClass, builtin_manifold  # noqa: E402
from ellgen.genera import (  # noqa: E402
    DEFINITION,
    THETA_PRODUCT,
    GenusKind,
    a_hat_integral,
    cancellation12_check,
    pell,
    witten_genus,
)
from ellgen.qseries import power_label  # noqa: E402
from ellgen.theta import ThetaKind, theta_numeric, theta_numeric_dv  # noqa: E402

ORDER = 12


def print_series(label, series, limit=9):
    terms = ", ".join(f"{p}: {v}" for p, v in series.term_strings()[:limit])
    print(f"  {label}: {terms if terms else '0'}")


def main():
    cp2 = builtin_manifold("CP2")
    cp4 = builtin_manifold("CP4")
    x = LinearClass.generator(cp2.presentation, "x")
    zero = LinearClass.zero(cp2.presentation)

    print("== fractional indices ==")
    print(f"  integral of A-hat over CP2: {a_hat_integral(cp2)}")
    print(f"  integral of A-hat over CP4: {a_hat_integral(cp4)}")

    print("== Witten genus of CP2 ==")
    print_series("W", witten_genus(cp2, ORDER))

    print("== twisted genera of O(1) on CP2, both engines ==")
    o1 = ProjBundle(rank=1, roots=(x,), twist_b=zero)
    for kind in (GenusKind.PELL, GenusKind.PELL1, GenusKind.PELL2, GenusKind.PELL3):
        a = pell(cp2, o1, kind, THETA_PRODUCT, ORDER).series
        b = pell(cp2, o1, kind, DEFINITION, ORDER).series
        print_series(f"{kind.value} (theta product)", a)
        print(f"    definition engine agrees: {a == b}")

    print("== spin-c Dirac operator reduction ==")
    # an operator's genera are pell on its reduced bundle: the trivial line here
    trivial = ProjBundle(rank=1, roots=(zero,), twist_b=zero)
    w = witten_genus(cp2, ORDER)
    for kind, label in [
        (GenusKind.PELL, "Ell"),
        (GenusKind.PELL1, "Ell_1"),
        (GenusKind.PELL2, "Ell_2"),
        (GenusKind.PELL3, "Ell_3"),
    ]:
        series = pell(cp2, trivial, kind, THETA_PRODUCT, ORDER).series
        note = ""
        if series == w:
            note = "  (= W)"
        elif series == w * 2:
            note = "  (= 2W)"
        elif series.is_zero():
            note = "  (= 0)"
        print_series(label + note, series, limit=5)

    print("== plus-kind genus vs theta-derivative closed form ==")
    p1 = pell(cp2, o1, GenusKind.PELL1, THETA_PRODUCT, 8).series
    print_series("series", p1, limit=4)
    for qv in (1e-3, 1e-4):
        tau = cmath.log(qv) / (2j * cmath.pi)
        closed = -(
            theta_numeric_dv(ThetaKind.THETA1, 0, tau, 80, 2)
            / theta_numeric(ThetaKind.THETA1, 0, tau, 80)
            - theta_numeric_dv(ThetaKind.THETA, 0, tau, 80, 3)
            / theta_numeric_dv(ThetaKind.THETA, 0, tau, 80, 1)
        ) / (8 * cmath.pi**2)
        print(
            f"  closed form / q at q = {qv:g}: {closed.real / qv:.6f}"
            f"  (series leading coefficient {p1.coefficient(2)} = 2^rank x closed)"
        )

    print("== degree-12 cancellation identity ==")
    for rank in (2, 4):
        res = cancellation12_check(rank, impose_relation=True)
        print(f"  rank {rank}, curvature relation imposed: equal = {res.equal}")
    res = cancellation12_check(2, impose_relation=False)
    print(
        f"  rank 2, no relation: equal = {res.equal}, "
        f"residual divisible by (s2T - s2E) = {res.residual_divisible}"
    )


if __name__ == "__main__":
    main()
