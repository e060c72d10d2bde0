"""Character-level bundle operations.

A projective bundle is carried by its rank, formal Chern roots and a
rational degree-2 twist shift b; the conjugate bundle has negated shifted
roots.  All K-theory style operations (total exterior/symmetric powers at
q-levels, the infinite Witten tensor products, determinant-weight graded
decompositions, Schur functors) happen on characters: sums of exponentials
of shifted roots inside a truncated cohomology ring.

The determinant-weight decomposition tracks an auxiliary weight w (one
power per E-factor, inverse per conjugate factor); the weight-m piece at a
q-level receives the twist factor exp(m*b).  Resumming the table is the
same as substituting w -> e^b, which is how the closed forms are recovered.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .cohring import (
    CohElement,
    LinearClass,
    PresentationMismatch,
    RingPresentation,
    exp_nilpotent,
    root_square_sum,
)
from .qseries import HalfQSeries
from .theta import ThetaKind


class GuardExceeded(ValueError):
    """Requested expansion exceeds the configured memory guards."""


class PartitionTooTall(ValueError):
    """Partition has more rows than the bundle rank."""


@dataclass(frozen=True)
class ProjBundle:
    """rank, Chern roots y_j, and the rational twist shift b."""

    rank: int
    roots: tuple[LinearClass, ...]
    twist_b: LinearClass

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be positive")
        if len(self.roots) != self.rank:
            raise ValueError("need exactly one root per rank unit")
        for root in self.roots:
            if root.presentation != self.twist_b.presentation:
                raise PresentationMismatch("roots and twist live in different rings")

    @property
    def presentation(self) -> RingPresentation:
        return self.twist_b.presentation

    def shifted_roots(self) -> tuple[LinearClass, ...]:
        return tuple(root + self.twist_b for root in self.roots)

    def pontryagin_shift_class(self, order: int) -> CohElement:
        """The first rational twisted Pontryagin class: sum (y_j + b)^2."""
        return root_square_sum(self.shifted_roots(), order, self.presentation)

    def describe(self) -> str:
        roots = ", ".join(str(r) for r in self.roots)
        return f"rank {self.rank}, roots [{roots}], b = {self.twist_b}"


def exp_class(lc: LinearClass, order: int) -> CohElement:
    """exp of a degree-2 class (finite by nilpotency)."""
    return exp_nilpotent(lc.as_element(order))


def ch(e: ProjBundle, order: int, weight: int = 1) -> CohElement:
    """Twisted character of E at determinant weight m: exp(m*b) sum exp(y_j).

    For the natural weight m = 1 this is sum_j exp(y_j + b).
    """
    twist = exp_class(e.twist_b.scale(weight), order)
    return twist * adams_power_sum(e.roots, 1, order, e.presentation)


def adams_power_sum(roots, k: int, order: int, presentation: RingPresentation) -> CohElement:
    """sum_j exp(k * root_j): character of the k-th Adams operation."""
    total = CohElement.zero(presentation, order)
    for root in roots:
        total = total + exp_class(root.scale(k), order)
    return total


def log_lambda_sum(
    roots,
    sign: int,
    levels: str,
    order: int,
    presentation: RingPresentation,
) -> CohElement:
    """log character of the product of total exterior powers over q-levels.

    levels "integer" means t runs over q^u (u-powers 2, 4, ...); "half"
    means q^(u - 1/2) (u-powers 1, 3, ...).  Returns
    sum_{t} sum_{k>=1} (-1)^(k+1) sign^k (t^k / k) sum_j exp(k * root_j);
    exponentiating yields the character of the Witten-type product
    including its scalar infinite-product part.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if levels not in ("integer", "half"):
        raise ValueError("levels must be 'integer' or 'half'")
    total = CohElement.zero(presentation, order)
    start = 2 if levels == "integer" else 1
    kmax = order // start if start <= order else 0
    for k in range(1, kmax + 1):
        exps = adams_power_sum(roots, k, order, presentation)
        if exps.is_zero():
            continue
        scalar = HalfQSeries.zero(order)
        for level in range(start, order + 1, 2):
            if level * k <= order:
                scalar = scalar + HalfQSeries.u_power(
                    level * k, order, Fraction((-1) ** (k + 1) * sign**k, k)
                )
        total = total + exps * scalar
    return total


_WITTEN_SIGN = {
    ThetaKind.THETA: -1,
    ThetaKind.THETA1: 1,
    ThetaKind.THETA2: -1,
    ThetaKind.THETA3: 1,
}
_WITTEN_LEVELS = {
    ThetaKind.THETA: "integer",
    ThetaKind.THETA1: "integer",
    ThetaKind.THETA2: "half",
    ThetaKind.THETA3: "half",
}


def witten_bundle_ch(kind: ThetaKind, e: ProjBundle, order: int) -> CohElement:
    """Character of the infinite exterior-power product over E and conj(E).

    Shifted roots w_j = y_j + b enter for E and -w_j for the conjugate, so
    this is the closed (w -> e^b substituted) form of the graded tables.
    """
    shifted = e.shifted_roots()
    conj = tuple(-w for w in shifted)
    log_char = log_lambda_sum(
        shifted + conj, _WITTEN_SIGN[kind], _WITTEN_LEVELS[kind], order, e.presentation
    )
    return exp_nilpotent(log_char)


class GradedKind(enum.Enum):
    """Which composite gets decomposed by determinant weight."""

    W = "W"  # (even - odd exterior sum) x Theta
    A = "A"  # (even + odd exterior sum) x Theta1
    B = "B"  # Theta2
    C = "C"  # Theta3


_GRADED_THETA = {
    GradedKind.W: ThetaKind.THETA,
    GradedKind.A: ThetaKind.THETA1,
    GradedKind.B: ThetaKind.THETA2,
    GradedKind.C: ThetaKind.THETA3,
}

RANK_GUARD = 6
ORDER_GUARD = 24


@dataclass
class GradedTable:
    """(m, n) -> twisted character of the weight-m piece at q-step n.

    For kinds W/A the step n multiplies q^n (u-power 2n); for B/C it
    multiplies q^(n/2) (u-power n).  Entries are order-0 elements with the
    exp(m*b) twist already applied.
    """

    kind: GradedKind
    rank: int
    order: int
    entries: dict[tuple[int, int], CohElement]

    def upower(self, n: int) -> int:
        return 2 * n if self.kind in (GradedKind.W, GradedKind.A) else n

    def step_count(self) -> int:
        if self.kind in (GradedKind.W, GradedKind.A):
            return self.order // 2 + 1
        return self.order + 1

    def weights_at(self, n: int) -> list[int]:
        return sorted(m for (m, nn) in self.entries if nn == n)


def graded_decompose(kind: GradedKind, e: ProjBundle, order: int) -> GradedTable:
    """Expand the composite bundle with a determinant-weight tracking slot.

    Every E-root exponential carries w^(+1), every conjugate-root
    exponential w^(-1); the coefficient of w^m at q-step n is the character
    of the weight-m piece, which then receives the twist exp(m*b).
    """
    if e.rank > RANK_GUARD or order > ORDER_GUARD:
        raise GuardExceeded(
            f"bivariate expansion guard: rank <= {RANK_GUARD}, order <= {ORDER_GUARD}"
        )
    pres = e.presentation
    exp_plus = [exp_class(y, order) for y in e.roots]
    exp_minus = [exp_class(-y, order) for y in e.roots]

    table: dict[int, CohElement] = {0: CohElement.one(pres, order)}

    def multiply(m_shift: int, factor: CohElement):
        # table *= (1 + w^(m_shift) * factor)
        updates: dict[int, CohElement] = {}
        for m, elem in table.items():
            term = elem * factor
            if term.is_zero():
                continue
            tgt = m + m_shift
            acc = updates.get(tgt)
            updates[tgt] = term if acc is None else acc + term
        for tgt, term in updates.items():
            acc = table.get(tgt)
            table[tgt] = term if acc is None else acc + term

    sign = _WITTEN_SIGN[_GRADED_THETA[kind]]
    if kind is GradedKind.W:
        for j in range(e.rank):
            multiply(1, -exp_plus[j])
    elif kind is GradedKind.A:
        for j in range(e.rank):
            multiply(1, exp_plus[j])

    start = 2 if _WITTEN_LEVELS[_GRADED_THETA[kind]] == "integer" else 1
    for level in range(start, order + 1, 2):
        t = HalfQSeries.u_power(level, order, sign)
        for j in range(e.rank):
            multiply(1, exp_plus[j] * t)
            multiply(-1, exp_minus[j] * t)

    out = GradedTable(kind=kind, rank=e.rank, order=order, entries={})
    upow_step = 2 if kind in (GradedKind.W, GradedKind.A) else 1
    twists: dict[int, CohElement] = {}
    for m, elem in table.items():
        if elem.is_zero():
            continue
        if m not in twists:
            twists[m] = exp_class(e.twist_b.scale(m), 0)
        for upow in range(0, order + 1, upow_step):
            piece = elem.u_slice(upow)
            if piece.is_zero():
                continue
            n = upow // upow_step
            out.entries[(m, n)] = twists[m] * piece
    return out


def _lift_to_order(elem: CohElement, order: int) -> CohElement:
    out = CohElement(elem.presentation, order)
    for mono, s in elem.coeffs.items():
        out.coeffs[mono] = HalfQSeries(order, s.coeffs[: min(s.order, order) + 1])
    return out


def gch(kind: GradedKind, e: ProjBundle, order: int) -> CohElement:
    """Graded twisted character: resum the decomposition table over (m, n)."""
    table = graded_decompose(kind, e, order)
    total = CohElement.zero(e.presentation, order)
    for (m, n), entry in table.entries.items():
        upow = table.upower(n)
        total = total + _lift_to_order(entry, order) * HalfQSeries.u_power(upow, order)
    return total


def gch_closed_form(kind: GradedKind, e: ProjBundle, order: int) -> CohElement:
    """The w -> e^b substituted form: shifted-root characters directly."""
    theta_char = witten_bundle_ch(_GRADED_THETA[kind], e, order)
    if kind in (GradedKind.B, GradedKind.C):
        return theta_char
    front = CohElement.one(e.presentation, order)
    one = CohElement.one(e.presentation, order)
    for w in e.shifted_roots():
        ew = exp_class(w, order)
        front = front * (one - ew if kind is GradedKind.W else one + ew)
    return front * theta_char


def det_sqrt_ch(e: ProjBundle, order: int) -> CohElement:
    """sqrt of the twisted determinant character of the conjugate bundle:
    exp(-(1/2) sum_j (y_j + b)), the branch with constant term 1."""
    total = sum(e.shifted_roots(), LinearClass.zero(e.presentation))
    return exp_class(total.scale(Fraction(-1, 2)), order)


# ---------------------------------------------------------------------------
# Schur functors at character level
# ---------------------------------------------------------------------------


def _complete_homogeneous(roots, count: int, order: int, pres: RingPresentation):
    """h_0..h_count from power sums by Newton's identities."""
    p = [None] + [adams_power_sum(roots, k, order, pres) for k in range(1, count + 1)]
    h = [CohElement.one(pres, order)]
    for k in range(1, count + 1):
        acc = CohElement.zero(pres, order)
        for i in range(1, k + 1):
            acc = acc + p[i] * h[k - i]
        h.append(acc * Fraction(1, k))
    return h


def _schur_from_roots(roots, lam, order: int, pres: RingPresentation) -> CohElement:
    """Jacobi-Trudi: s_lam = det(h_(lam_i - i + j)) over exponential roots."""
    rows = len(lam)
    if rows == 0:
        return CohElement.one(pres, order)
    hmax = max(lam[i] - i + j for i in range(rows) for j in range(rows))
    h = _complete_homogeneous(roots, max(hmax, 0), order, pres)

    def entry(i: int, j: int) -> CohElement:
        k = lam[i] - (i + 1) + (j + 1)
        if k < 0:
            return CohElement.zero(pres, order)
        return h[k]

    total = CohElement.zero(pres, order)
    for perm in itertools.permutations(range(rows)):
        sign = _perm_sign(perm)
        term = CohElement.one(pres, order)
        for i in range(rows):
            term = term * entry(i, perm[i])
            if term.is_zero():
                break
        total = total + term * sign
    return total


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def normalize_partition(lam) -> tuple[int, ...]:
    parts = tuple(int(p) for p in lam if int(p) > 0)
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError("partition parts must be weakly decreasing")
    return parts


def conjugate_partition(lam) -> tuple[int, ...]:
    lam = normalize_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= i) for i in range(1, lam[0] + 1))


def schur_character(lam, e: ProjBundle, order: int) -> CohElement:
    """Character of the Schur functor S_lam applied to E (shifted roots)."""
    lam = normalize_partition(lam)
    if len(lam) > e.rank:
        raise PartitionTooTall(f"partition has {len(lam)} rows, bundle rank is {e.rank}")
    return _schur_from_roots(e.shifted_roots(), lam, order, e.presentation)


def partitions_in_box(n: int, max_rows: int, max_cols: int):
    """Partitions of n fitting in a max_rows x max_cols box."""

    def rec(remaining, cap, rows_left):
        if remaining == 0:
            yield ()
            return
        if rows_left == 0:
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first, rows_left - 1):
                yield (first,) + rest

    yield from rec(n, max_cols, max_rows)


def tensor_exterior_identity_check(rank_u: int, rank_v: int, n: int) -> bool:
    """Check ch Lambda^n(U (x) V) = sum_lam s_lam(U) s_lam'(V) with generic
    independent roots, the sum over partitions of n inside the rank box."""
    if rank_u > 4 or rank_v > 4:
        raise GuardExceeded("tensor identity check supports ranks <= 4")
    if n > rank_u * rank_v:
        raise GuardExceeded("n exceeds the rank of the tensor product")
    gens = tuple((f"u{i}", 2) for i in range(1, rank_u + 1)) + tuple(
        (f"v{j}", 2) for j in range(1, rank_v + 1)
    )
    pres = RingPresentation(generators=gens, top_degree=2 * n + 4)
    order = 0
    u_roots = [LinearClass.generator(pres, f"u{i}") for i in range(1, rank_u + 1)]
    v_roots = [LinearClass.generator(pres, f"v{j}") for j in range(1, rank_v + 1)]

    # elementary symmetric e_n of the rank_u * rank_v exponentials e^(u_i+v_j)
    elementary = [CohElement.one(pres, order)] + [
        CohElement.zero(pres, order) for _ in range(n)
    ]
    for ur in u_roots:
        for vr in v_roots:
            ew = exp_class(ur + vr, order)
            for k in range(n, 0, -1):
                elementary[k] = elementary[k] + elementary[k - 1] * ew
    lhs = elementary[n]

    rhs = CohElement.zero(pres, order)
    for lam in partitions_in_box(n, rank_u, rank_v):
        s_u = _schur_from_roots(u_roots, lam, order, pres)
        s_v = _schur_from_roots(v_roots, conjugate_partition(lam), order, pres)
        rhs = rhs + s_u * s_v
    return lhs == rhs
