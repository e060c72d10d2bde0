"""Command-line front end.

Subcommands: compute (one genus of one manifest), verify (named check
suites), decompose (determinant-weight tables), cancel12 (the degree-12
identity).  Manifests are JSON documents with keys "manifold", "bundle",
"order"; every rational is a string "p/q" or an integer, never a float.

Exit codes: 0 ok, 1 verification failed, 2 input error, 3 guard violation
(an expansion guard, a truncation tail too large for --tol, a numeric sample
that the truncated series cannot evaluate, a coefficient too long to print,
or an order too large to allocate), 4 unsupported rank; the entry point
exits 141 (128 + SIGPIPE, nothing on stderr) when stdout's reader closes it.

compute --json writes json.dumps(payload, indent=2) one value at a time, each
scalar through json's C encoder; a subcommand's parser reads its argv alone.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from itertools import repeat
from operator import floordiv

from . import modcheck, qseries, theta
from .bundleops import (
    GradedKind,
    GuardExceeded,
    ProjBundle,
    gch_closed_form,
    graded_decompose,
    resum_graded,
    tensor_exterior_identity_check,
)
from .cohring import (
    Manifold,
    PresentationMismatch,
    RingPresentation,
    UnknownManifold,
    builtin_manifold,
    parse_linear_class,
    power_sums,
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
from .qseries import HalfQSeries, power_label

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_GUARD = 3
EXIT_UNSUPPORTED = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: what a shell reports for a process SIGPIPE ends

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
    return _json_int(order, "ELLGEN_ORDER_DEFAULT")


def _json_int(value, what: str, minimum: int = 0) -> int:
    """A JSON integer (not a bool) from minimum to sys.maxsize, the longest a
    series or list can be, else an input error."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ManifestError(f"{what} must be an integer >= {minimum}, got {value!r}")
    if value > sys.maxsize:
        raise ManifestError(f"{what} must be at most {sys.maxsize}, got {value}")
    return value


def _monomial_from_dict(names: list[str], data: dict) -> tuple[int, ...]:
    if not isinstance(data, dict):
        raise ManifestError(f"a monomial must be an object, got {data!r}")
    mono = [0] * len(names)
    for name, exponent in data.items():
        mono[names.index(name)] = _json_int(exponent, f"exponent of {name}")
    return tuple(mono)


def _load_manifold(spec) -> Manifold:
    if isinstance(spec, str):
        return builtin_manifold(spec)
    if not isinstance(spec, dict):
        raise ManifestError("manifold must be a builtin name or an object")
    try:
        generators = tuple(
            (str(n), _json_int(d, f"degree of {n}")) for n, d in spec["generators"]
        )
        top = _json_int(spec["top_degree"], "top_degree")
        names = [name for name, _ in generators]
        pres = RingPresentation(
            generators=generators,
            top_degree=top,
            vanishing_monomials=tuple(
                _monomial_from_dict(names, item) for item in spec.get("vanishing_monomials", [])
            ),
            integration_table=tuple(
                (_monomial_from_dict(names, mono), qseries.parse_rational(value))
                for mono, value in spec.get("integration_table", [])
            ),
        )
        roots = tuple(parse_linear_class(pres, r) for r in spec.get("tangent_roots", []))
        return Manifold(
            name=str(spec.get("name", "custom")),
            presentation=pres,
            dimension=top,
            tangent_roots=roots,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ManifestError(f"bad manifold spec: {exc}") from exc


def _load_bundle(spec, manifold: Manifold) -> ProjBundle:
    try:
        rank = _json_int(spec["rank"], "rank", 1)
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
    except (OSError, ValueError, RecursionError) as exc:  # bad JSON, too long or too deep
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(data, dict) or "manifold" not in data:
        raise ManifestError("manifest must be an object with a 'manifold' key")
    manifold = _load_manifold(data["manifold"])
    bundle = None
    if data.get("bundle") is not None:
        bundle = _load_bundle(data["bundle"], manifold)
    order = _json_int(data["order"] if "order" in data else default_order(), "order")
    return Manifest(manifold=manifold, bundle=bundle, order=order)


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

_METHOD_BY_NAME = {"theta": THETA_PRODUCT, "definition": DEFINITION}


@functools.lru_cache(maxsize=8)  # a few orders per process, about 20 KB each at N = 320
def _coefficients_template(length: int) -> str:
    """The text of _coefficients_json for `length` coefficients, "%d/%d" for each value."""
    powers = (f"{k}/2" if k & 1 else str(k >> 1) for k in range(length))
    return "[\n    " + ",\n    ".join(
        f'{{\n      "power": "{p}",\n      "value": "%d/%d"\n    }}' for p in powers) + "\n  ]"


def _coefficients_json(series: HalfQSeries) -> str:
    """The list of {"power": "k/2", "value": "p/q"} objects, as json.dumps(..., indent=2)
    writes it one level deep in an object: the order's template filled by one `%` from the
    integer numerators, one gcd each; `%d` raises str's ValueError on too many digits."""
    den, nums = series.den, series.nums
    gcds = list(map(math.gcd, nums, repeat(den)))
    values = [0] * (2 * len(gcds))
    values[0::2] = map(floordiv, nums, gcds)
    values[1::2] = map(floordiv, repeat(den), gcds)
    return _coefficients_template(len(gcds)) % tuple(values)


def compute_json(payload: dict) -> str:
    """json.dumps(payload, indent=2), byte for byte, where a HalfQSeries value
    stands for its coefficient list and is written by _coefficients_json.

    A list, tuple or dict goes through json.dumps(value, indent=2), re-indented by two
    spaces as the encoder does one level deep; a scalar through the C encoder.
    """
    items = []
    for key, value in payload.items():
        if isinstance(value, HalfQSeries):
            text = _coefficients_json(value)
        elif isinstance(value, (list, tuple, dict)):
            text = json.dumps(value, indent=2).replace("\n", "\n  ")
        else:
            text = json.dumps(value)
        items.append(f"{json.dumps(key)}: {text}")
    return "{\n  " + ",\n  ".join(items) + "\n}"


def _rendered(render) -> str:
    """render(), with a number too long to print a guard violation (exit 3)."""
    try:
        return render()
    except ValueError as exc:  # int -> str beyond sys.get_int_max_str_digits()
        raise GuardExceeded("a coefficient has too many digits to print") from exc


def cmd_compute(args, out) -> int:
    kind = GenusKind(args.genus)
    method = _METHOD_BY_NAME[args.method]
    if method == DEFINITION and kind in (GenusKind.AHAT, GenusKind.WITTEN):
        raise ManifestError(
            f"--method definition is not available for --genus {args.genus}: "
            "only the twisted genera have a definition engine"
        )
    manifest = load_manifest(args.input)
    order = args.order if args.order is not None else manifest.order
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
    payload.update(coefficients=series, checks=[])

    def render() -> str:
        if args.json:
            return compute_json(payload)
        if header is None:
            return str(series.coefficient(0))
        lines = [f"{power_label(k)}: {c}" for k, c in enumerate(series.coeffs)]
        return "\n".join([header] + lines)

    print(_rendered(render), file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def _parse_tau_list(raw: str | None):
    if not raw:
        return modcheck.DEFAULT_TAU_SAMPLES
    try:
        taus = tuple(complex(part) for part in raw.split(","))
    except ValueError as exc:
        raise ManifestError(f"bad tau list {raw!r}: {exc}") from exc
    for tau in taus:
        if not (cmath.isfinite(tau) and tau.imag > 0):
            raise ManifestError(f"tau = {tau} must be finite with Im(tau) > 0")
    return taus


def _bundle_input(args, floor: int = 0) -> tuple[Manifold, ProjBundle, int]:
    """Manifold and bundle of the --input manifest (which must have a bundle),
    and the order: --order if given, else the manifest's, raised to floor."""
    if not args.input:
        raise ManifestError("this suite requires --input")
    manifest = load_manifest(args.input)
    if manifest.bundle is None:
        raise ManifestError("this suite requires a manifest with a bundle")
    order = args.order if args.order is not None else max(manifest.order, floor)
    return manifest.manifold, manifest.bundle, order


# A suite maps the arguments to its report, rows (verdict, text) with verdict
# True/False for a check and None for an informational line.
Rows = list[tuple[bool | None, str]]


def _suite_theta_laws(args) -> Rows:
    taus = _parse_tau_list(args.tau)
    samples = tuple((v, tau) for tau in taus for v, _ in theta.DEFAULT_LAW_SAMPLES)
    try:
        rows = theta.transformation_law_table(samples)
        tail = theta.transformation_law_tail(samples)
    except (ArithmeticError, ValueError) as exc:
        # e^(2 pi i v) underflows to 0 at a huge Im(tau), or a transformed
        # sample leaves the upper half plane in floating point
        raise ManifestError(f"tau list {args.tau!r} cannot be evaluated: {exc}") from exc
    if not tail < args.tol / 10.0:  # a nan estimate refuses too
        raise modcheck.TailTooLarge(f"truncation tail estimate {tail:.3e} of the theta "
                                    f"products exceeds tol/10 = {args.tol / 10:.3e}")
    return [(resid < args.tol, f"{kind.value} {law}-law residual {resid:.3e}")
            for kind, law, resid in rows]


def _suite_jacobi(args) -> Rows:
    order = args.order if args.order is not None else default_order()
    return [(theta.jacobi_identity_exact(order), f"jacobi product identity to order {order}")]


def _suite_consistency(args) -> Rows:
    m, e, order = _bundle_input(args)
    return [
        (pell(m, e, kind, THETA_PRODUCT, order).series
         == pell(m, e, kind, DEFINITION, order).series,
         f"{kind.value}: theta product == definition (order {order})")
        for kind in (GenusKind.PELL, GenusKind.PELL1, GenusKind.PELL2, GenusKind.PELL3)
    ]


def _suite_half_period(args) -> Rows:
    m, e, order = _bundle_input(args)
    a = pell(m, e, GenusKind.PELL2, THETA_PRODUCT, order).series
    b = pell(m, e, GenusKind.PELL3, THETA_PRODUCT, order).series
    return [(modcheck.check_T_exact(a, b),
             "half-period: second genus at tau+1 equals third genus")]


def _suite_s_transform(args) -> Rows:
    m, e, order = _bundle_input(args, floor=40)
    taus = _parse_tau_list(args.tau)
    tangent_sq = power_sums(m.tangent_roots, m.presentation, 2)[2]
    p1 = pell(m, e, GenusKind.PELL1, THETA_PRODUCT, order).series
    p2 = pell(m, e, GenusKind.PELL2, THETA_PRODUCT, order).series
    multiplier = 2**e.rank
    report = modcheck.cross_transform(
        p1, p2, weight=m.weight, multiplier=multiplier,
        tau_samples=taus, tol=args.tol,
    )
    ratios = ", ".join(f"{r:.6f}" for r in report.measured_ratios)
    return [
        (None, "curvature squares match (sum of shifted root squares vs tangent): "
               f"{'yes' if tangent_sq == e.pontryagin_shift_class() else 'no'}"),
        (None, f"measured multiplier (first genus vs second under S): {ratios}"),
        (None, f"expected rank factor 2^l = {multiplier}"),
        (None, f"best-fitting q-power prefactor exponent: {report.best_prefactor_exponent}"),
        (report.passed, f"max residual {report.max_residual():.3e} (tol {args.tol:g})"),
    ]


def _suite_schur(args) -> Rows:
    return [
        (tensor_exterior_identity_check(ru, rv, n),
         f"exterior power of tensor product rank {ru} x rank {rv}, n = {n}")
        for ru in (1, 2, 3) for rv in (1, 2, 3) for n in range(1, min(4, ru * rv) + 1)
    ]


_SUITES = {
    "theta-laws": _suite_theta_laws,
    "consistency": _suite_consistency,
    "half-period": _suite_half_period,
    "s-transform": _suite_s_transform,
    "jacobi": _suite_jacobi,
    "schur": _suite_schur,
}


def cmd_verify(args, out) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ManifestError(f"--tol must be finite and positive, got {args.tol}")
    rows = _SUITES[args.suite](args)
    for verdict, text in rows:
        prefix = "" if verdict is None else "pass " if verdict else "FAIL "
        print(prefix + text, file=out)
    ok = all(verdict is not False for verdict, _ in rows)
    print("all checks passed" if ok else "verification failed", file=out)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def cmd_decompose(args, out) -> int:
    manifold, bundle, order = _bundle_input(args)
    kind = GradedKind[args.kind]
    table = graded_decompose(kind, bundle, order)
    agree = resum_graded(table, bundle.presentation) == gch_closed_form(kind, bundle, order)

    def render() -> str:
        step_label = "q^(n/2)" if table.upower(1) == 1 else "q^n"
        lines = [f"graded decomposition {kind.value} of {bundle.describe()} "
                 f"on {manifold.name}, order {order} (steps in {step_label})"]
        step = None
        # one pass by step, then weight; an entry's order-0 scalar part prints as its value
        for (m, n), entry in sorted(table.entries.items(), key=lambda item: item[0][::-1]):
            if n != step:
                step = n
                lines.append(f"n = {n}:")
            lines.append(f"  m = {m:3d}  virtual rank {entry.scalar_part()}  {entry}")
        lines.append(f"gch == closed form: {'yes' if agree else 'NO'}")
        return "\n".join(lines)

    print(_rendered(render), file=out)
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


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommand parsers by name, built once (no environment defaults)."""
    parser = argparse.ArgumentParser(
        prog="ellgen",
        description="Exact q-series computations of twisted elliptic genera.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute one genus from a manifest")
    p_compute.add_argument("--input", required=True, help="manifest JSON file")
    p_compute.add_argument("--genus", required=True, choices=sorted(k.value for k in GenusKind))
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
    return parser, sub.choices


def parse_args(argv: list[str]) -> argparse.Namespace:
    """The parser's parse_args(argv); a leading subcommand's own parser reads the rest."""
    parser, commands = build_parser()
    if not argv or argv[0] not in commands:  # only the top level answers these
        return parser.parse_args(argv)
    args, extra = commands[argv[0]].parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extra:  # reported as the top-level parse reports them
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        if getattr(args, "order", None) is not None:
            _json_int(args.order, "--order")
        return args.func(args, out)
    except (ManifestError, UnknownManifold, PresentationMismatch) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (GuardExceeded, modcheck.TailTooLarge, MemoryError) as exc:
        print(f"guard violation: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_GUARD
    except UnsupportedRank as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED


def entrypoint():
    try:
        status = main()
        # flush here, so that a closed pipe shows up inside this try block
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (`ellgen ... | head`); as the Python `signal`
        # docs advise, point stdout at devnull so that the flush at shutdown
        # cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        status = EXIT_BROKEN_PIPE
    sys.exit(status)


if __name__ == "__main__":
    entrypoint()
