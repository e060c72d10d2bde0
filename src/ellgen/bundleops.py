"""Character-level bundle operations.

A projective bundle is carried by its rank, formal Chern roots and a
rational degree-2 twist shift b; the conjugate bundle has negated shifted
roots.  All K-theory style operations (total exterior/symmetric powers at
q-levels, the infinite Witten tensor products, determinant-weight graded
decompositions, Schur functors) happen on characters: sums of exponentials
of shifted roots inside a truncated cohomology ring.  Each class is
exponentiated once; the Adams operation psi^a (degree 2k scaled by a^k)
reads exp(a*y) off exp(y), and `_adams_series` applies a series-weighted
sum of Adams operations degree by degree to the exterior-power logs.

The determinant-weight decomposition tracks an auxiliary weight w (one
power per E-factor, inverse per conjugate factor) and twists the weight-m
piece by exp(m*b).  Each shifted root brings Jacobi's theta series
sum_a s^a u^(k_a) psi^a(e^w) (the triple product times E(u)), and
E(u)^(-rank) is applied once, as the scalar the table and `gch` start at.
One kernel, `_root_product`, multiplies these out for both on
Kronecker-packed integers, psi^a read off the packed q-free exp(w).
"""

from __future__ import annotations

import enum
import functools
import itertools
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, isqrt, lcm, prod

from .cohring import (
    CohElement,
    LinearClass,
    PresentationMismatch,
    RingPresentation,
    exp_nilpotent,
    power_sum_numerators,
    power_sums,
    sum_of_elements,
    sum_of_products,
)
from .qseries import _bias, _digit_bytes, _pack, _unpack, eta_like_product, from_numerators
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

    def pontryagin_shift_class(self) -> CohElement:
        """The first rational twisted Pontryagin class: sum (y_j + b)^2, q-free."""
        return power_sums(self.shifted_roots(), self.presentation, 2)[2]

    def describe(self) -> str:
        roots = ", ".join(str(r) for r in self.roots)
        return f"rank {self.rank}, roots [{roots}], b = {self.twist_b}"


def exp_class(lc: LinearClass, order: int) -> CohElement:
    """exp of a degree-2 class in closed form: sum_k lc^k / k!, lc^k the integer
    numerators of `power_sum_numerators([lc], ...)` over d^k, each coefficient one
    constant series over d^k * k!, or at order 0 one packed numerator over their lcm.
    Reading the power sums keeps the engines independent: it is exact ring arithmetic
    like the ring product, reads no `factor_log`, and multi-generator tests pin it."""
    pres, pad = lc.presentation, (0,) * order
    levels = enumerate(power_sum_numerators([lc], pres, pres.top_degree // 2))
    terms = [(mono, c, dk * factorial(k)) for k, (dk, level) in levels for mono, c in level]
    if order == 0:
        den, key = lcm(*[d for _, _, d in terms]), pres._table
        return CohElement.from_packed(pres, den, [(key[m], c * (den // d)) for m, c, d in terms])
    return CohElement._of(pres, order, {m: from_numerators(order, (c,) + pad, d)
                                        for m, c, d in terms})


def _exp_multiple(char: CohElement, a: int) -> CohElement:
    """The Adams operation psi^a: the degree-2k part is scaled by a^k.

    It is a ring endomorphism, and psi^a exp(y) = exp(a*y) for a degree-2
    class y, so it acts on any character: exp(a*y) is read off exp(y).  2k is a
    monomial's packed key shifted past its exponent digits; q-free, it stays packed.
    """
    pres, shift = char.presentation, char.presentation._table.shift + 1
    if char.order == 0:
        den, terms = char.packed()
        return CohElement.from_packed(pres, den, [(k, c * a ** (k >> shift)) for k, c in terms])
    scaled = {mono: s * a ** (pres._table[mono] >> shift) for mono, s in char.coeffs.items()}
    return CohElement._of(pres, char.order, scaled)


def ch(e: ProjBundle, order: int, weight: int = 1) -> CohElement:
    """Twisted character of E at determinant weight m: exp(m*b) sum exp(y_j).

    For the natural weight m = 1 this is sum_j exp(y_j + b).
    """
    twist = _exp_multiple(exp_class(e.twist_b, order), weight)
    return twist * adams_power_sum(e.roots, 1, order, e.presentation)


def adams_power_sum(roots, k: int, order: int, presentation: RingPresentation) -> CohElement:
    """sum_j exp(k * root_j) = psi^k(sum_j exp(root_j)): one exp per root."""
    exps = [exp_class(root, order) for root in roots]
    return _exp_multiple(sum_of_elements([CohElement.zero(presentation, order)] + exps), k)


def log_lambda_sum(
    roots, sign: int, levels: str, order: int, presentation: RingPresentation
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
    return _log_lambda(adams_power_sum(roots, 1, order, presentation), sign, levels == "half")


def _log_lambda(exps: CohElement, sign: int, half: bool) -> CohElement:
    """log_lambda_sum from the character exps = sum_j exp(root_j): the Adams
    series of the terms (k, -(-sign)^k / k, level k) over levels and k >= 1."""
    order = exps.order
    den = lcm(*range(1, order + 1))
    terms = [(k, -(-sign) ** k * (den // k), level * k)
             for level in range(1 if half else 2, order + 1, 2)
             for k in range(1, order // level + 1)]
    return _adams_series(exps, terms, den)


def _adams_series(char: CohElement, terms, den: int = 1) -> CohElement:
    """sum (c / den) u^e psi^k(char) over the integer triples (k, c, e).

    psi^k scales the degree-2i part of char by k^i, so each monomial of
    degree 2i is multiplied by the one series sum_(k, c, e) c k^i u^e / den."""
    pres, order = char.presentation, char.order
    weights = []
    for i in range(pres.top_degree // 2 + 1):
        nums = [0] * (order + 1)
        for k, c, e in terms:
            nums[e] += c * k**i
        weights.append(from_numerators(order, tuple(nums), den))
    return CohElement._of(pres, order, {mono: s * weights[pres.monomial_degree(mono) // 2]
                                        for mono, s in char.coeffs.items()})


def witten_bundle_ch(kind: ThetaKind, e: ProjBundle, order: int) -> CohElement:
    """Character of the infinite exterior-power product over E and conj(E).

    Shifted roots w_j = y_j + b enter for E and -w_j for the conjugate, so
    this is the closed (w -> e^b substituted) form of the graded tables.
    """
    return _witten_ch(kind, adams_power_sum(e.shifted_roots(), 1, order, e.presentation), e.rank)


def _witten_ch(kind: ThetaKind, exps: CohElement, rank: int) -> CohElement:
    """witten_bundle_ch from exps = sum_j exp(w_j) over `rank` shifted roots:
    the conjugate bundle's character sum_j exp(-w_j) is psi^(-1) of it.  The
    scalar part 2 rank of the character is the prefactor
    prod_t (1 + s t)^(2 rank); only the scalar-free rest is exponentiated."""
    char = exps + _exp_multiple(exps, -1) - 2 * rank
    bare = exp_nilpotent(_log_lambda(char, kind.sign, kind.half))
    return bare * eta_like_product(kind.sign, kind.half, 2 * rank, exps.order)


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
    """m -> twisted character of the weight-m piece, at the full order with
    the exp(m*b) twist applied; `entries` slices it by q-step.

    For kinds W/A the step n multiplies q^n (u-power 2n); for B/C it
    multiplies q^(n/2) (u-power n).
    """

    kind: GradedKind
    rank: int
    order: int
    weights: dict[int, CohElement]

    @functools.cached_property
    def entries(self) -> dict[tuple[int, int], CohElement]:
        """(m, n) -> the nonzero order-0 slice of weight m at q-step n."""
        slices, step = {}, self.upower(1)
        for m, elem in self.weights.items():  # packed over the lcm of the weight's denominators
            den, table = lcm(*[s.den for s in elem.coeffs.values()]), elem.presentation._table
            rows = [(table[mono], s.nums, den // s.den) for mono, s in elem.coeffs.items()]
            for k in range(0, self.order + 1, step):
                if terms := [(key, nums[k] * f) for key, nums, f in rows if nums[k]]:
                    slices[(m, k // step)] = CohElement.from_packed(elem.presentation, den, terms)
        return slices

    def upower(self, n: int) -> int:
        return n if _GRADED_THETA[self.kind].half else 2 * n


def _theta_terms(kind: GradedKind, e: ProjBundle, order: int) -> list[tuple[int, int, int]]:
    """The triples (a, s^a, k_a), about 2 sqrt(order), with sum_a s^a u^(k_a) X^a
    = E(u) prod_t (1 + s t X)(1 + s t / X), times 1 + s X for W/A, over the
    kind's levels t = u^level with its Witten sign s, X = weight times e^(y+b)
    and E(u) = prod_n (1 - u^(2n)).  By Jacobi's triple product, k_a = a^2 at
    half levels and a(a-1) at integer levels.  The one guard check."""
    if e.rank > RANK_GUARD or order > ORDER_GUARD:
        raise GuardExceeded(
            f"bivariate expansion guard: rank <= {RANK_GUARD}, order <= {ORDER_GUARD}"
        )
    theta = _GRADED_THETA[kind]
    shift = 0 if theta.half else 1
    powers = ((a, a * (a - shift)) for a in range(-isqrt(order), isqrt(order) + 2))
    return [(a, theta.sign ** abs(a), k) for a, k in powers if k <= order]


def _root_product(kind: GradedKind, e: ProjBundle, order: int, weighted: bool):
    """weight -> its part of E(u)^(-rank) prod_w sum_a s^a u^(k_a) psi^a(e^w) over the
    shifted roots w: weight m + a when weighted, else all at weight 0; every weight
    reached, in the order first reached.  A term reads psi^a(e^w) off the packed
    q-free exp(w) = sum c x^key / d_w: it scales by s^a c a^i at a key of degree 2i
    and shifts by k_a digits.  Each (weight, key) entry is one Kronecker-packed
    integer of order + 1 w-bit digits modulo 2^(w (order + 1)), so a shift truncates,
    over the one denominator den(E^-r) prod_w d_w.  The bound max|E^-r| prod_w sum |f|
    on every numerator, f a root's summed scales, sets w; each entry is unpacked once."""
    terms = _theta_terms(kind, e, order)
    pres, table = e.presentation, e.presentation._table
    inv_e = eta_like_product(-1, False, -e.rank, order)
    roots, scales = [exp_class(w, 0).packed() for w in e.shifted_roots()], []
    bound, den = max(map(abs, inv_e.nums)), inv_e.den * prod([d for d, _ in roots])
    for _, keys in roots:  # the terms of one weight, key and u-power add up
        fs = defaultdict(int)
        for (a, s, k), (key, c) in itertools.product(terms, keys):
            fs[key, a * weighted, k] += s * c * a ** (key >> table.shift + 1)
        scales.append(sorted([(*slot, f) for slot, f in fs.items() if f]))
        bound *= sum(map(abs, fs.values())) or 1  # all cancelled: the product is 0
    nbytes, size = _digit_bytes(bound), order + 1
    width, bias, mask = 8 * nbytes, _bias(nbytes, size), (1 << 8 * nbytes * size) - 1
    state, weights = {(0, 0): _pack(inv_e.nums, nbytes, bias)}, [0]
    for fs in scales:
        weights = list(dict.fromkeys([m + a * weighted for m in weights for a, _, _ in terms]))
        grown = defaultdict(int)
        for (m, key1), v in state.items():
            room = table.limit - key1
            for key2, a, k, f in fs:  # sorted by key, that is by degree
                if key2 >= room:
                    break
                grown[(m + a, key1 + key2)] += f * v << width * k
        state = {slot: v & mask for slot, v in grown.items()}
    parts = {m: {} for m in weights}
    for (m, key), v in state.items():
        if v and (mono := table[key]) is not None:
            parts[m][mono] = from_numerators(order, _unpack(v, nbytes, size, bias), den)
    return {m: CohElement._of(pres, order, coeffs) for m, coeffs in parts.items()}


def graded_decompose(kind: GradedKind, e: ProjBundle, order: int) -> GradedTable:
    """Expand the composite bundle with a determinant-weight tracking slot.

    Every E-root exponential carries w^(+1), every conjugate-root
    exponential w^(-1); the coefficient of w^m at q-step n is the character
    of the weight-m piece, twisted by exp(m*b).  The factors commute, so
    weight m + a collects each weight-m entry times the weight-a term
    s^a u^(k_a) psi^a(e^w) of each shifted root w in turn; the table starts
    at E(u)^(-rank).
    """
    return GradedTable(kind=kind, rank=e.rank, order=order,
                       weights=_root_product(kind, e, order, weighted=True))


def resum_graded(table: GradedTable, presentation: RingPresentation) -> CohElement:
    """Resum a decomposition table into its graded character: the sum of
    its twisted weights (the q-step slices of a weight add back up to it)."""
    return sum_of_elements([CohElement.zero(presentation, table.order), *table.weights.values()])


def gch(kind: GradedKind, e: ProjBundle, order: int) -> CohElement:
    """Graded twisted character: the weight table summed over m, taken as
    E(u)^(-rank) times the product over shifted roots w of the Adams series
    sum_a s^a u^(k_a) psi^a(e^w)."""
    return _root_product(kind, e, order, weighted=False)[0]


def gch_closed_form(kind: GradedKind, e: ProjBundle, order: int) -> CohElement:
    """The w -> e^b substituted form: shifted-root characters directly,
    with one exp per shifted root."""
    exps = [exp_class(w, order) for w in e.shifted_roots()]
    theta = _GRADED_THETA[kind]
    theta_char = _witten_ch(theta, sum_of_elements(exps), e.rank)
    if theta.half:
        return theta_char
    for exp_w in exps:
        theta_char = theta_char * (exp_w * theta.sign + 1)
    return theta_char


def det_sqrt_ch(e: ProjBundle, order: int) -> CohElement:
    """sqrt of the twisted determinant character of the conjugate bundle:
    exp(-(1/2) sum_j (y_j + b)), the branch with constant term 1."""
    total = sum(e.shifted_roots(), LinearClass.zero(e.presentation))
    return exp_class(total.scale(Fraction(-1, 2)), order)


# ---------------------------------------------------------------------------
# Schur functors at character level
# ---------------------------------------------------------------------------


def schur_polynomial(lam, nvars: int) -> dict[tuple[int, ...], int]:
    """s_lam(x_1..x_nvars) as {exponent vector: Kostka number}.

    Branching rule (Macdonald I.5): s_lam(x_1..x_r) is the sum over mu
    interlacing lam (lam_1 >= mu_1 >= lam_2 >= ... >= mu_(r-1) >= lam_r) of
    s_mu(x_1..x_(r-1)) * x_r^(|lam| - |mu|).  Empty when lam is too tall.
    """
    if len(lam) > nvars:
        return {}
    if nvars == 0:
        return {(): 1}
    padded = tuple(lam) + (0,) * (nvars - len(lam))
    size = sum(padded)
    out: dict[tuple[int, ...], int] = {}
    ranges = (range(padded[i + 1], padded[i] + 1) for i in range(nvars - 1))
    for mu in itertools.product(*ranges):
        last = size - sum(mu)
        for exps, kostka in schur_polynomial(tuple(p for p in mu if p), nvars - 1).items():
            key = exps + (last,)
            out[key] = out.get(key, 0) + kostka
    return out


def _psi_sum(exps, poly, order: int, pres: RingPresentation) -> CohElement:
    """sum_a c_a prod_i psi^(a_i)(exps_i) for an integer polynomial {a: c_a}:
    the polynomial at X_i = exps_i, each power read off exps_i by psi^(a_i)."""
    one, pairs = CohElement.one(pres, order), []
    for a, c in poly.items():
        # the factors but the last, times c, paired with the last factor
        *rest, last = [exp_r if a_i == 1 else _exp_multiple(exp_r, a_i)
                       for exp_r, a_i in zip(exps, a) if a_i] or [one]
        head = prod(rest[1:], start=rest[0]) if rest else one
        pairs.append((head if c == 1 else head * c, last))
    return sum_of_products(pairs) if pairs else CohElement.zero(pres, order)


def _monomial_symmetric(mu, nvars: int) -> dict[tuple[int, ...], int]:
    """m_mu(x_1..x_nvars) as {exponent vector: 1}; empty when mu is too long."""
    padded = tuple(mu) + (0,) * (nvars - len(mu))
    return dict.fromkeys(set(itertools.permutations(padded)), 1) if len(mu) <= nvars else {}


def normalize_partition(lam) -> tuple[int, ...]:
    """The nonzero parts of lam; a negative or non-integer part is an error."""
    if any(p != int(p) or p < 0 for p in lam):
        raise ValueError(f"partition parts must be nonnegative integers: {tuple(lam)}")
    parts = tuple(int(p) for p in lam if p)
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError("partition parts must be weakly decreasing")
    return parts


def conjugate_partition(lam) -> tuple[int, ...]:
    lam = normalize_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= i) for i in range(1, lam[0] + 1))


def schur_character(lam, e: ProjBundle, order: int) -> CohElement:
    """Character of the Schur functor S_lam applied to E: s_lam at X_i = exp(w_i)
    over the shifted roots w_i, with one exp per root."""
    lam = normalize_partition(lam)
    if len(lam) > e.rank:
        raise PartitionTooTall(f"partition has {len(lam)} rows, bundle rank is {e.rank}")
    exps = [exp_class(w, order) for w in e.shifted_roots()]
    return _psi_sum(exps, schur_polynomial(lam, e.rank), order, e.presentation)


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


def _exterior_of_tensor(exp_u, exp_v, n: int, order: int, pres: RingPresentation) -> CohElement:
    """e_n(X_i Y_j) at X = exp_u, Y = exp_v as sum_mu m_mu(X) e_mu(Y) (Macdonald
    I (4.2')), mu in the box where m_mu(X) and e_mu(Y) can be nonzero."""
    elementary = [_psi_sum(exp_v, _monomial_symmetric((1,) * k, len(exp_v)), order, pres)
                  for k in range(len(exp_v) + 1)]
    # the empty mu (n = 0) pairs m_() = 1 with the empty product e_0 = 1
    return sum_of_products([
        (_psi_sum(exp_u, _monomial_symmetric(mu, len(exp_u)), order, pres),
         prod((elementary[k] for k in mu[1:]), start=elementary[mu[0] if mu else 0]))
        for mu in partitions_in_box(n, len(exp_u), len(exp_v))])


def tensor_exterior_identity_check(rank_u: int, rank_v: int, n: int) -> bool:
    """Check ch Lambda^n(U (x) V) = sum_mu m_mu(e^u) e_mu(e^v) (Macdonald I (4.2'))
    against sum_lam s_lam(e^u) s_lam'(e^v) (I (4.3')), over partitions of n in the
    rank box, for generic independent roots; both sides share one exp per root, and
    each closed-form exp must first equal the ring's own (a falsification test of it)."""
    if n < 0 or rank_u < 1 or rank_v < 1:
        raise ValueError("tensor identity check needs n >= 0 and ranks >= 1")
    if rank_u > 4 or rank_v > 4:
        raise GuardExceeded("tensor identity check supports ranks <= 4")
    if n > rank_u * rank_v:
        raise GuardExceeded("n exceeds the rank of the tensor product")
    gens = tuple((f"{c}{i}", 2) for c, r in zip("uv", (rank_u, rank_v)) for i in range(1, r + 1))
    pres, order = RingPresentation(generators=gens, top_degree=2 * n + 4), 0
    roots = [LinearClass.generator(pres, name) for name, _ in gens]
    exps = [exp_class(root, order) for root in roots]
    if any(e != exp_nilpotent(root.as_element(order)) for e, root in zip(exps, roots)):
        return False
    exp_u, exp_v = exps[:rank_u], exps[rank_u:]
    rhs = sum_of_products([
        (_psi_sum(exp_u, schur_polynomial(lam, rank_u), order, pres),
         _psi_sum(exp_v, schur_polynomial(conjugate_partition(lam), rank_v), order, pres))
        for lam in partitions_in_box(n, rank_u, rank_v)])
    return _exterior_of_tensor(exp_u, exp_v, n, order, pres) == rhs
