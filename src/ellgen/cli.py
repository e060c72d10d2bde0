"""Command-line front end.

Subcommands: compute (one genus of one manifest), verify (named check
suites), decompose (determinant-weight tables), cancel12 (the degree-12
identity).  Manifests are JSON documents with keys "manifold", "bundle",
"order"; every rational is a string "p/q" so no floats ever enter.

Exit codes: 0 ok, 1 verification failed, 2 input error, 3 guard violation,
4 unsupported rank.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import modcheck, qseries, theta
from .bundleops import (
    GradedKind,
    GuardExceeded,
    ProjBundle,
    gch,
    gch_closed_form,
    graded_decompose,
    tensor_exterior_identity_check,
)
from .cohring import (
    LinearClass,
    Manifold,
    PresentationMismatch,
    RingPresentation,
    UnknownManifold,
    builtin_manifold,
    parse_linear_class,
    root_square_sum,
)
from .genera import (
    DEFINITION,
    GENUS_GROUP,
    THETA_PRODUCT,
    GenusKind,
    UnsupportedRank,
    a_hat_integral,
    cancellation12_check,
    pell,
    witten_genus,
)
from .qseries import HalfQSeries, format_rational, power_label

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_GUARD = 3
EXIT_UNSUPPORTED = 4

BUILTIN_NAMES = ("CP2", "CP4", "free")


class ManifestError(ValueError):
    pass


@dataclass
class Manifest:
    manifold: Manifold
    bundle: ProjBundle | None
    order: int


def default_order() -> int:
    raw = os.environ.get("ELLGEN_ORDER_DEFAULT")
    if raw is None:
        return 20
    try:
        order = int(raw)
    except ValueError as exc:
        raise ManifestError(f"ELLGEN_ORDER_DEFAULT must be an integer, got {raw!r}") from exc
    if order < 0:
        raise ManifestError(f"ELLGEN_ORDER_DEFAULT must be non-negative, got {order}")
    return order


def _monomial_from_dict(pres: RingPresentation, data: dict) -> tuple[int, ...]:
    mono = [0] * len(pres.generators)
    for name, exponent in data.items():
        mono[pres.generator_index(name)] = int(exponent)
    return tuple(mono)


def _monomial_to_dict(pres: RingPresentation, mono) -> dict:
    return {
        name: e for e, (name, _) in zip(mono, pres.generators) if e != 0
    }


def _linear_class_to_dict(lc: LinearClass) -> dict:
    return {
        name: format_rational(c)
        for c, (name, _) in zip(lc.coeffs, lc.presentation.generators)
        if c != 0
    }


def _load_manifold(spec) -> Manifold:
    if isinstance(spec, str):
        return builtin_manifold(spec)
    if not isinstance(spec, dict):
        raise ManifestError("manifold must be a builtin name or an object")
    try:
        generators = tuple((str(n), int(d)) for n, d in spec["generators"])
        pres = RingPresentation(
            generators=generators,
            top_degree=int(spec["top_degree"]),
            vanishing_monomials=(),
            integration_table=(),
        )
        vanishing = tuple(
            _monomial_from_dict(pres, item) for item in spec.get("vanishing_monomials", [])
        )
        table = tuple(
            (_monomial_from_dict(pres, mono), qseries.parse_rational(value))
            for mono, value in spec.get("integration_table", [])
        )
        pres = RingPresentation(
            generators=generators,
            top_degree=int(spec["top_degree"]),
            vanishing_monomials=vanishing,
            integration_table=table,
        )
        roots = tuple(parse_linear_class(pres, r) for r in spec.get("tangent_roots", []))
        return Manifold(
            name=str(spec.get("name", "custom")),
            presentation=pres,
            dimension=int(spec["top_degree"]),
            tangent_roots=roots,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ManifestError(f"bad manifold spec: {exc}") from exc


def _load_bundle(spec, manifold: Manifold) -> ProjBundle:
    try:
        rank = int(spec["rank"])
        roots = tuple(
            parse_linear_class(manifold.presentation, r) for r in spec["roots"]
        )
        twist = parse_linear_class(manifold.presentation, spec.get("twist_b", {}))
        return ProjBundle(rank=rank, roots=roots, twist_b=twist)
    except (KeyError, TypeError, ValueError) as exc:
        raise ManifestError(f"bad bundle spec: {exc}") from exc


def load_manifest(path: str) -> Manifest:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(data, dict) or "manifold" not in data:
        raise ManifestError("manifest must be an object with a 'manifold' key")
    manifold = _load_manifold(data["manifold"])
    bundle = None
    if data.get("bundle") is not None:
        bundle = _load_bundle(data["bundle"], manifold)
    order = data.get("order", default_order())
    if isinstance(order, bool) or not isinstance(order, int) or order < 0:
        raise ManifestError(f"order must be a non-negative integer, got {order!r}")
    return Manifest(manifold=manifold, bundle=bundle, order=order)


def manifest_to_dict(man: Manifest) -> dict:
    m = man.manifold
    if m.name in BUILTIN_NAMES and m == builtin_manifold(m.name):
        manifold_spec = m.name
    else:
        pres = m.presentation
        manifold_spec = {
            "name": m.name,
            "generators": [[n, d] for n, d in pres.generators],
            "top_degree": pres.top_degree,
            "vanishing_monomials": [
                _monomial_to_dict(pres, mono) for mono in pres.vanishing_monomials
            ],
            "integration_table": [
                [_monomial_to_dict(pres, mono), format_rational(v)]
                for mono, v in pres.integration_table
            ],
            "tangent_roots": [_linear_class_to_dict(r) for r in m.tangent_roots],
        }
    out = {"manifold": manifold_spec, "order": man.order}
    if man.bundle is not None:
        out["bundle"] = {
            "rank": man.bundle.rank,
            "roots": [_linear_class_to_dict(r) for r in man.bundle.roots],
            "twist_b": _linear_class_to_dict(man.bundle.twist_b),
        }
    else:
        out["bundle"] = None
    return out


def save_manifest(man: Manifest, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest_to_dict(man), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

_GENUS_BY_NAME = {
    "ahat": GenusKind.AHAT,
    "witten": GenusKind.WITTEN,
    "pell": GenusKind.PELL,
    "pell1": GenusKind.PELL1,
    "pell2": GenusKind.PELL2,
    "pell3": GenusKind.PELL3,
}

_METHOD_BY_NAME = {"theta": THETA_PRODUCT, "definition": DEFINITION}


def _series_json(series: HalfQSeries) -> list[dict]:
    return [
        {"power": str(Fraction(k, 2)), "value": format_rational(c)}
        for k, c in enumerate(series.coeffs)
    ]


def cmd_compute(args, out) -> int:
    manifest = load_manifest(args.input)
    order = args.order if args.order is not None else manifest.order
    kind = _GENUS_BY_NAME[args.genus]
    method = _METHOD_BY_NAME[args.method]
    m = manifest.manifold
    payload = {
        "kind": kind.value, "method": method, "weight": m.weight, "group": GENUS_GROUP[kind],
    }

    header = None
    if kind is GenusKind.AHAT:
        series = HalfQSeries.constant(a_hat_integral(m), 0)
    elif kind is GenusKind.WITTEN:
        series = witten_genus(m, order)
        header = f"witten genus of {m.name}, order {order}"
    else:
        if manifest.bundle is None:
            raise ManifestError("this genus needs a 'bundle' entry in the manifest")
        report = pell(m, manifest.bundle, kind, method, order)
        series = report.series
        payload.update(manifold=report.manifold, bundle=report.bundle)
        header = (
            f"{kind.value} of {report.manifold} with {report.bundle} "
            f"[method {method}, weight {report.weight}, group {report.group}]"
        )
    payload.update(coefficients=_series_json(series), checks=[])

    if args.json:
        print(json.dumps(payload, indent=2), file=out)
    elif header is None:
        print(series.coefficient(0), file=out)
    else:
        print(header, file=out)
        for k, c in enumerate(series.coeffs):
            print(f"{power_label(k)}: {c}", file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def _parse_tau_list(raw: str | None):
    if not raw:
        return modcheck.DEFAULT_TAU_SAMPLES
    try:
        return tuple(complex(part) for part in raw.split(","))
    except ValueError as exc:
        raise ManifestError(f"bad tau list {raw!r}: {exc}") from exc


def _suite_theta_laws(args, out) -> bool:
    taus = _parse_tau_list(args.tau)
    samples = tuple((v, tau) for tau in taus for v in (0.13 + 0.04j, 0.21, 0.08 - 0.05j))
    ok = True
    for kind, law, resid in theta.transformation_law_table(samples):
        passed = resid < args.tol
        ok = ok and passed
        print(
            f"{'pass' if passed else 'FAIL'} {kind.value} {law}-law residual {resid:.3e}",
            file=out,
        )
    return ok


def _suite_jacobi(args, out) -> bool:
    order = args.order if args.order is not None else default_order()
    ok = theta.jacobi_identity_exact(order)
    print(f"{'pass' if ok else 'FAIL'} jacobi product identity to order {order}", file=out)
    return ok


def _suite_consistency(args, out) -> bool:
    manifest = _manifest_with_bundle(args)
    order = args.order if args.order is not None else manifest.order
    ok = True
    for kind in (GenusKind.PELL, GenusKind.PELL1, GenusKind.PELL2, GenusKind.PELL3):
        a = pell(manifest.manifold, manifest.bundle, kind, THETA_PRODUCT, order).series
        b = pell(manifest.manifold, manifest.bundle, kind, DEFINITION, order).series
        same = a == b
        ok = ok and same
        print(
            f"{'pass' if same else 'FAIL'} {kind.value}: theta product == definition "
            f"(order {order})",
            file=out,
        )
    return ok


def _suite_half_period(args, out) -> bool:
    manifest = _manifest_with_bundle(args)
    order = args.order if args.order is not None else manifest.order
    a = pell(manifest.manifold, manifest.bundle, GenusKind.PELL2, THETA_PRODUCT, order).series
    b = pell(manifest.manifold, manifest.bundle, GenusKind.PELL3, THETA_PRODUCT, order).series
    ok = modcheck.check_T_exact(a, b)
    print(
        f"{'pass' if ok else 'FAIL'} half-period: second genus at tau+1 equals third genus",
        file=out,
    )
    return ok


def _suite_s_transform(args, out) -> bool:
    manifest = _manifest_with_bundle(args)
    order = args.order if args.order is not None else max(manifest.order, 40)
    taus = _parse_tau_list(args.tau)
    m = manifest.manifold
    tangent_sq = root_square_sum(m.tangent_roots, 0, m.presentation)
    bundle_sq = manifest.bundle.pontryagin_shift_class(0)
    print(
        "curvature squares match (sum of shifted root squares vs tangent): "
        f"{'yes' if tangent_sq == bundle_sq else 'no'}",
        file=out,
    )
    p1 = pell(m, manifest.bundle, GenusKind.PELL1, THETA_PRODUCT, order).series
    p2 = pell(m, manifest.bundle, GenusKind.PELL2, THETA_PRODUCT, order).series
    multiplier = 2**manifest.bundle.rank
    report = modcheck.cross_transform(
        p1, p2, weight=m.weight, multiplier=multiplier,
        tau_samples=taus, tol=args.tol,
    )
    ratios = ", ".join(f"{r:.6f}" for r in report.measured_ratios)
    print(f"measured multiplier (first genus vs second under S): {ratios}", file=out)
    print(f"expected rank factor 2^l = {multiplier}", file=out)
    print(f"best-fitting q-power prefactor exponent: {report.best_prefactor_exponent}", file=out)
    print(
        f"{'pass' if report.passed else 'FAIL'} max residual {report.max_residual():.3e} "
        f"(tol {args.tol:g})",
        file=out,
    )
    return report.passed


def _suite_schur(args, out) -> bool:
    ok = True
    for ru in (1, 2, 3):
        for rv in (1, 2, 3):
            for n in range(1, min(4, ru * rv) + 1):
                good = tensor_exterior_identity_check(ru, rv, n)
                ok = ok and good
                print(
                    f"{'pass' if good else 'FAIL'} exterior power of tensor product "
                    f"rank {ru} x rank {rv}, n = {n}",
                    file=out,
                )
    return ok


def _manifest_with_bundle(args) -> Manifest:
    if not args.input:
        raise ManifestError("this suite requires --input")
    manifest = load_manifest(args.input)
    if manifest.bundle is None:
        raise ManifestError("this suite requires a manifest with a bundle")
    return manifest


_SUITES = {
    "theta-laws": _suite_theta_laws,
    "consistency": _suite_consistency,
    "half-period": _suite_half_period,
    "s-transform": _suite_s_transform,
    "jacobi": _suite_jacobi,
    "schur": _suite_schur,
}


def cmd_verify(args, out) -> int:
    ok = _SUITES[args.suite](args, out)
    print("all checks passed" if ok else "verification failed", file=out)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def cmd_decompose(args, out) -> int:
    manifest = _manifest_with_bundle(args)
    order = args.order if args.order is not None else manifest.order
    kind = GradedKind[args.kind]
    table = graded_decompose(kind, manifest.bundle, order)
    step_label = "q^n" if kind in (GradedKind.W, GradedKind.A) else "q^(n/2)"
    print(
        f"graded decomposition {kind.value} of {manifest.bundle.describe()} "
        f"on {manifest.manifold.name}, order {order} (steps in {step_label})",
        file=out,
    )
    for n in range(table.step_count()):
        weights = table.weights_at(n)
        if not weights:
            continue
        print(f"n = {n}:", file=out)
        for m in weights:
            entry = table.entries[(m, n)]
            rank = entry.scalar_part().coefficient(0)
            print(f"  m = {m:3d}  virtual rank {rank}  {entry}", file=out)
    resummed = gch(kind, manifest.bundle, order)
    closed = gch_closed_form(kind, manifest.bundle, order)
    agree = resummed == closed
    print(f"gch == closed form: {'yes' if agree else 'NO'}", file=out)
    return EXIT_OK if agree else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# cancel12
# ---------------------------------------------------------------------------


def cmd_cancel12(args, out) -> int:
    result = cancellation12_check(args.rank, impose_relation=not args.no_relation)
    print(f"rank {args.rank}, relation imposed: {result.relation_imposed}", file=out)
    print(f"equal: {'yes' if result.equal else 'no'}", file=out)
    if not result.relation_imposed:
        div = "yes" if result.residual_divisible else "no"
        print(f"residual divisible by (s2T - s2E): {div}", file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellgen",
        description="Exact q-series computations of twisted elliptic genera.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute one genus from a manifest")
    p_compute.add_argument("--input", required=True, help="manifest JSON file")
    p_compute.add_argument("--genus", required=True, choices=sorted(_GENUS_BY_NAME))
    p_compute.add_argument("--method", default="theta", choices=sorted(_METHOD_BY_NAME))
    p_compute.add_argument("--order", type=int, default=None)
    p_compute.add_argument("--json", action="store_true")
    p_compute.set_defaults(func=cmd_compute)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=sorted(_SUITES))
    p_verify.add_argument("--input", default=None)
    p_verify.add_argument("--order", type=int, default=None)
    p_verify.add_argument("--tol", type=float, default=1e-8)
    p_verify.add_argument("--tau", default=None, help="comma-separated complex samples")
    p_verify.set_defaults(func=cmd_verify)

    p_dec = sub.add_parser("decompose", help="print a determinant-weight table")
    p_dec.add_argument("--input", required=True)
    p_dec.add_argument("--kind", required=True, choices=[k.name for k in GradedKind])
    p_dec.add_argument("--order", type=int, default=None)
    p_dec.set_defaults(func=cmd_decompose)

    p_can = sub.add_parser("cancel12", help="degree-12 cancellation identity")
    p_can.add_argument("--rank", type=int, required=True)
    p_can.add_argument("--no-relation", action="store_true")
    p_can.set_defaults(func=cmd_cancel12)
    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "order", None) is not None and args.order < 0:
            raise ManifestError(f"--order must be non-negative, got {args.order}")
        return args.func(args, out)
    except (ManifestError, UnknownManifold, PresentationMismatch) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GuardExceeded as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except UnsupportedRank as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
