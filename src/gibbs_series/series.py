"""Certified evaluation of f^(p)(y) = sum_n sigma_n^p exp(sigma_n y).

Every evaluation returns a bracket: ``value`` is a provable lower bound
(a partial sum, plus a certified lower integral correction where the
tail is sandwiched) and ``value + tail_bound`` is a provable upper bound.
The walk (``_sum_blocks``) sums doubling blocks of terms and bounds the
rest after each with the family's tail certificate (``rules.tail``, which
``sequences`` defines), unless the family's closed form of the whole sum
(``rules.whole``) already meets its target; the process keeps its last
walks, failed ones too (``_walk``).  Box values come from the factorization
f_box(y) = g(y)^3, g(y) = sum_k exp(kappa k^2 y): certified brackets of
g and its first two derivatives at y, each walked to 1/4 of its own
lower end and, where the product misses its target, once more to a
width that provably meets it (``_eval_box``).

Floating-point error is folded into the bracket: reported values are
shifted down by the rounding slack and ``tail_bound`` widens by twice of
it, so the enclosure holds including roundoff.  The slack covers the
summation and each term's rounded exponent, whose error grows like
|sigma y| u (see ``_roundoff``).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np

from .sequences import (
    BoundaryClass,
    Family,
    SequenceIndexError,
    SigmaSequence,
    _TINY,
    _U,
    _up,
    box_factor,
    sigma_values,
)

__all__ = [
    "BoundaryClass",
    "DomainInfo",
    "SeriesEval",
    "DomainError",
    "BudgetExceededError",
    "DEFAULT_MAX_TERMS",
    "max_terms_budget",
    "domain_info",
    "eval_series",
    "phi",
    "log_f",
    "tail_bound_after",
]

DEFAULT_MAX_TERMS = 10_000_000


def max_terms_budget(max_terms: Optional[int] = None) -> int:
    """Effective term budget: the argument, else the default."""
    return DEFAULT_MAX_TERMS if max_terms is None else int(max_terms)


def _compared(*skip: str) -> tuple:
    """``__eq__``, ``__ne__`` and ``__hash__`` for a NamedTuple result: equal
    only to its own type, never to a bare tuple, on every field but ``skip``."""

    def key(record: tuple) -> tuple:
        return tuple(v for f, v in zip(record._fields, record) if f not in skip)

    def eq(a: tuple, b: object):
        return type(a) is type(b) and key(a) == key(b) if isinstance(b, tuple) else NotImplemented

    return eq, object.__ne__, lambda record: hash(key(record))


class DomainInfo(NamedTuple):
    """Domain classification of f(y) = sum exp(sigma_n y).

    The domain is an interval (-inf, -alpha) or (-inf, -alpha]; ``gamma``
    is the left derivative of f at the edge, gamma = sum sigma_n
    exp(-sigma_n alpha), possibly infinite.  When finite, ``gamma`` and
    ``f_at_boundary`` are certified midpoints with half-widths
    ``gamma_err`` and ``f_boundary_err``.
    """

    alpha: float
    boundary_class: BoundaryClass
    gamma: float
    f_at_boundary: float
    gamma_err: float = 0.0
    f_boundary_err: float = 0.0

    @property
    def empty(self) -> bool:
        return self.boundary_class is BoundaryClass.EMPTY_DOMAIN


class SeriesEval(NamedTuple):
    """Certified bracket for f^(p)(y): true value in [value, value+tail_bound].

    ``truncation_index`` is the last index summed (for the box, the largest
    of its factors'): start_index - 1 where a closed form of the whole sum
    (``_Rules.whole``) gave the bracket and no term was summed.
    """

    value: float
    truncation_index: int
    tail_bound: float
    __eq__, __ne__, __hash__ = _compared()

    @property
    def midpoint(self) -> float:
        return self.value + 0.5 * self.tail_bound

    @property
    def upper(self) -> float:
        return self.value + self.tail_bound


class DomainError(ValueError):
    """Evaluation outside the effective domain; carries the DomainInfo."""

    def __init__(self, message: str, info: DomainInfo, y: Optional[float] = None):
        super().__init__(message)
        self.info = info
        self.y = y


class BudgetExceededError(RuntimeError):
    """Tolerance unreachable within the term budget; carries the best bracket."""

    def __init__(self, message: str, best: SeriesEval):
        super().__init__(message)
        self.best = best


# ---------------------------------------------------------------------------
# Domain classification
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def domain_info(
    seq: SigmaSequence, tol: float = 1e-8, max_terms: Optional[int] = None
) -> DomainInfo:
    """Classify the domain of f for a sequence, with certified edge values.

    The edge and its class are the family's (``rules.domain``), which every
    evaluation, solve and fit reads itself.  ``tol`` only affects the
    certified accuracy of the finite boundary values gamma and f(-alpha),
    summed within ``max_terms`` (default: the global term budget).
    """
    alpha, edge = seq.family.rules.domain(seq)
    if edge is BoundaryClass.EMPTY_DOMAIN:
        return DomainInfo(alpha, edge, math.nan, math.nan)
    if edge is BoundaryClass.OPEN_BOUNDARY:
        return DomainInfo(alpha, edge, math.inf, math.inf)
    budget = max_terms_budget(max_terms)
    fb = _sum_blocks(seq, -alpha, 0, tol, budget)
    if edge is BoundaryClass.CLOSED_INFINITE_SLOPE:
        return DomainInfo(alpha, edge, math.inf, fb.midpoint, 0.0, 0.5 * fb.tail_bound)
    gm = _sum_blocks(seq, -alpha, 1, tol, budget)
    return DomainInfo(
        alpha, edge, gm.midpoint, fb.midpoint, 0.5 * gm.tail_bound, 0.5 * fb.tail_bound
    )


def _refused(seq: SigmaSequence, message: str, y: Optional[float]) -> DomainError:
    """DomainError with the sequence's ``_record``."""
    return DomainError(message, _record(seq), y)


@lru_cache(maxsize=64)
def _record(seq: SigmaSequence) -> DomainInfo:
    """``domain_info``'s record, or, where its edge sums exceed the budget,
    the rules' edge and class with NaN values; cached like ``domain_info``,
    so that a refusal repeated in one process walks no edge sum again."""
    try:
        return domain_info(seq)
    except BudgetExceededError:
        return DomainInfo(*seq.family.rules.domain(seq), math.nan, math.nan)


def _edge(seq: SigmaSequence, empty: str, y: Optional[float] = None) -> tuple[float, BoundaryClass]:
    """The edge alpha and its class (``rules.domain``); ``_refused`` with the
    message ``empty`` for an empty domain."""
    alpha, edge = seq.family.rules.domain(seq)
    if edge is BoundaryClass.EMPTY_DOMAIN:
        raise _refused(seq, empty, y)
    return alpha, edge


# ---------------------------------------------------------------------------
# Rounding of the walk, and each family's tail certificate (``rules.tail``)
# ---------------------------------------------------------------------------

_SUBNORMAL = 2.0 ** -1074  # the smallest subnormal float64


def _roundoff(
    seq: SigmaSequence,
    y: float,
    p: int,
    total: float,
    n_terms: int,
    sigma_last: float,
    weight: float = 0.0,
) -> float:
    """Bound on the rounding error of a computed partial sum ``total`` of
    ``n_terms`` terms t_n = sigma_n^p exp(sigma_n y), y < 0, the last
    exponent being ``sigma_last``.

    Pairwise numpy summation costs u log2(n) sum |t_n| (u = 2^-53), and a
    few extra ulps cover each term's own exp and pow.  The exp argument
    fl(sigma_n) y is off by at most ((e_rel + 1) sigma_n + e_abs) |y| u
    (``SigmaSequence.sigma_error`` and the product's rounding), which
    moves the term by that much relative, and sigma_n^p adds p (e_pow + 3)
    u relative.  Where every exponent is positive, so is every term, and
    |y| sigma_n t_n needs no pass of its own: -sigma_n y = ln(1/t_n) +
    p ln sigma_n, and x ln(1/x) is concave, so its sum is at most
    T (ln(n/T) + p ln sigma_last) for the total T of the n terms.  0.01 of
    it more covers the rounding of T itself and second-order terms.

    A ``signed`` sequence's walk passes instead ``weight``, the sum of
    |t_n| (1 + |sigma_n y|), which bounds both sums the slack is made of.
    A term that underflows, to 0 or a subnormal, is off by at most the
    smallest subnormal besides.
    """
    n_log2 = n_terms.bit_length()  # >= log2(n)
    if weight:
        return weight * 1.12e-16 * (9.0 + n_log2 + 3.0 * p) + n_terms * _SUBNORMAL
    if total <= 0.0:  # no term, or every one zero
        return n_terms * _SUBNORMAL
    e_rel, e_abs, e_pow = seq.sigma_error
    ratio = n_terms * sigma_last ** p / total if p else n_terms / total
    if ratio < math.inf:
        spread = math.log(ratio)
    else:  # a total near the underflow threshold
        spread = math.log(n_terms) - math.log(total) + p * math.log(sigma_last)
    rel = p * (e_pow + 3.0) - e_abs * y
    if spread > 0.0:  # always, but for rounding when T is near n sigma_last^p
        rel += (e_rel + 1.01) * spread
    return total * (1.12e-16 * (8.0 + n_log2) + _U * rel) + n_terms * _SUBNORMAL


def _abs_weight(seq: SigmaSequence, y: float, p: int, first: int, stop: int) -> float:
    """Sum of |t_n| (1 + |sigma_n y|) over first <= n < stop (see
    ``_roundoff``), for sequences whose terms need not all be positive."""
    s = sigma_values(seq, np.arange(first, stop, dtype=np.int64))
    with np.errstate(over="ignore"):  # to an inf weight, where exp(sigma_n y) passes float64
        weights = np.abs(s * y) + 1.0  # a product and a row sum, not BLAS (n + 1 roundings)
        weights *= np.abs(s ** p * np.exp(s * y))
    return float(np.add.reduce(weights)) * (1.0 + 4.0 * (stop - first) * _U)


def tail_bound_after(seq: SigmaSequence, y: float, p: int, N: int) -> Optional[float]:
    """Certified bound on sum_{n>N} sigma_n^p exp(sigma_n y), if available.

    The box spectrum is cut between levels, so for the box family ``N``
    is a level s: the bound covers every triple with k^2+l^2+m^2 > s.
    Raises SequenceIndexError for N below the start index less one.
    """
    if N < seq.start_index - 1:
        raise SequenceIndexError(f"tail after index {N} below start index {seq.start_index}")
    bounds = seq.family.rules.tail(seq, y, p, N)
    return None if bounds is None else bounds[1]


# ---------------------------------------------------------------------------
# Evaluation engines
# ---------------------------------------------------------------------------

_CHUNK = 1 << 15  # indices per pass of a block: its arrays stay in L2


def _block_sum(
    seq: SigmaSequence, y: float, p: int, first: int, stop: int
) -> tuple[float, float]:
    """Sum of sigma_n^p exp(sigma_n y) over first <= n < stop, and
    sigma_(stop-1) (for ``_roundoff``).

    The block is computed chunk by chunk, in place, into one block-sized
    array: the temporaries stay in cache, each term gets the same
    elementwise operations as ``s ** p * np.exp(s * y)``, and the whole
    contiguous block is still added in numpy's pairwise order, so the sum
    is bit-identical to the one-pass expression.  Overflow is quiet: a
    sigma_n y past float64 is an -inf that exp takes to 0, and a term or a
    sum past it is the inf that ``_walk`` reports.
    """
    block = np.empty(stop - first)
    with np.errstate(over="ignore"):
        for lo in range(first, stop, _CHUNK):
            hi = min(lo + _CHUNK, stop)
            s = sigma_values(seq, np.arange(lo, hi, dtype=np.int64))
            terms = block[lo - first : hi - first]
            np.multiply(s, y, out=terms)
            np.exp(terms, out=terms)
            if p:
                terms *= s ** p if p > 1 else s  # s ** 1 == s; skipping it saves a pass
        return float(np.add.reduce(block)), float(s[-1])


def _sum_blocks(
    seq: SigmaSequence,
    y: float,
    p: int,
    tol: float,
    budget: int,
    rel: float = 0.0,
) -> SeriesEval:
    """Partial sums in doubling blocks until the certified bracket is at
    most max(tol, rel * its lower end) wide.

    Away from the domain edge a family with a closed form of the whole sum
    (``rules.whole``) returns its bracket first, with truncation index
    start_index - 1, where that bracket meets the target and, for a
    relative walk, has a positive lower end.  Everywhere else the block
    walk (``_walk``) runs; where it fails too, its BudgetExceededError
    carries the narrower of the two brackets and names it.
    """
    rules = seq.family.rules
    closed = None
    if rules.whole is not None and y != -rules.domain(seq)[0]:
        bounds = rules.whole(seq, y, p)
        if bounds is not None:
            lower, upper = bounds
            closed = SeriesEval(lower, seq.start_index - 1, _up(upper - lower, 0.0))
            if closed.tail_bound <= max(tol, rel * lower) and (lower > 0.0 or not rel):
                return closed
    best, failure = _walk(seq, seq.generator, y, p, tol, budget, rel)
    if failure is None:
        return best
    if closed is not None:
        if closed.tail_bound < best.tail_bound:
            best, failure = closed, f"{failure}; carried: the closed form's bracket, {closed.tail_bound:g} wide"
        else:
            failure += f"; carried: the walk's bracket (the closed form's is {closed.tail_bound:g} wide)"
    raise BudgetExceededError(failure, best)


@lru_cache(maxsize=256)
def _walk(
    seq: SigmaSequence, generator: Optional[Callable], y: float, p: int, tol: float, budget: int, rel: float
) -> tuple[SeriesEval, Optional[str]]:
    """``_sum_blocks``'s walk from the first term: its bracket and None, or
    where it fails its best bracket and the message of the
    BudgetExceededError that ``_sum_blocks`` raises from them.  The process
    keeps its last 256 walks, failed ones too, keyed on the generator as
    well, which a custom sequence does not compare.

    After each block the family's certificate (``rules.tail``) bounds the
    terms after index N (width inf while it returns None).  The computed
    partial is accurate to +-slack, so the bracket is [partial + lower -
    slack, partial + upper + slack].  Its lower end is at or below the true
    sum, so a width ``rel`` of it is a relative accuracy ``rel``.  A
    relative walk whose lower end is not positive (the sum underflows)
    stops at the first certified block, for the caller to refuse.  A
    certified width already below the slack with 2 slack above the target
    fails at once: more terms only raise the accumulation floor.  So does
    a block whose partial sum passes float64, with the bracket [2^1023,
    inf], or value -inf and tail bound inf where a signed sum passes
    -2^1023.  At the domain edge y = -alpha the first block is 4096 terms,
    not 256, and the budget message names a boundary tolerance; a walk cut
    at the last float exponent (``Rules.last``) names it, not the budget.
    A ``signed`` sequence's blocks also add their ``_abs_weight``, on which
    the slack is charged.

    A sandwich's integral is only computed where its block could end the
    walk.  Where the walk is absolute and the budget not yet spent, the
    certificate is told the width ``need`` = max(tol - 2 slack, slack)
    (1 + 1e-9).  A width above it exceeds the slack, and with 2 slack
    added exceeds tol by at least 3e-10 tol (max(tol - 2 slack, slack) is
    at least tol/3), far more than the rounding of either subtraction or
    sum, so the block can neither stop the walk nor end it at the
    accumulation floor.  A sandwich whose cheap floor on its width
    already exceeds ``need`` leaves out its integral and returns None.
    """
    rules = seq.family.rules
    edge = y == -rules.domain(seq)[0]
    block = 4096 if edge else 256
    start = seq.start_index
    last = min(start + budget - 1, rules.last(seq, p))  # no exponent past float64
    total = weight = s_last = 0.0
    n_done = start - 1
    while True:
        n1 = min(n_done + block, last)
        if n1 > n_done:
            block_total, s_last = _block_sum(seq, y, p, n_done + 1, n1 + 1)
            total += block_total
            if abs(total) == math.inf:  # from 2^1023: a factor 2 spares the rounding
                passed = f"partial sum passed float64 after index {n1} for {seq.spec_string()} at y={y!r}"
                low = 2.0 ** 1023 if total > 0.0 else -math.inf
                return SeriesEval(low, n1, math.inf), passed
            if seq.signed:
                weight += _abs_weight(seq, y, p, n_done + 1, n1 + 1)
            n_done = n1
        slack = _roundoff(seq, y, p, total, n_done - start + 1, s_last, weight)
        need = math.inf if rel or n_done >= last else max(tol - 2.0 * slack, slack) * (1.0 + 1e-9)
        lower, upper = rules.tail(seq, y, p, n_done, need) or (0.0, math.inf)
        width = upper - lower
        best = SeriesEval(total + lower - slack, n_done, width + 2.0 * slack)
        target = max(tol, rel * best.value)
        if best.tail_bound <= target or (rel and best.value <= 0.0 and width < math.inf):
            return best, None
        if 2.0 * slack > target and width <= slack:
            return best, (
                f"tolerance {target:g} is below the float64 accumulation floor "
                f"{2.0 * slack:g} for {seq.spec_string()} at y={y!r}"
            )
        if n_done >= last:
            within = f"within {budget} terms"
            if last < start + budget - 1:
                within = f"by index {last}, the last float exponent"
            return best, (
                f"boundary tolerance {target:g} unreachable {within} "
                f"(best width {best.tail_bound:g})"
                if edge
                else f"tolerance {target:g} unreachable {within} "
                f"(best tail bound {best.tail_bound:g}) for {seq.spec_string()} at y={y!r}"
            )
        block = min(block * 2, 1_000_000)


# (g^3)^(p), p <= 2: rows (c, a, b, d) of its monomials c g^a g'^b g''^d
_CUBE = (((1.0, 3, 0, 0),), ((3.0, 2, 1, 0),), ((6.0, 1, 2, 0), (3.0, 2, 0, 1)))


def _cube(g: list[float], p: int) -> float:
    """(g^3)^(p) from the factor ends (g, g', g''); inf where a float ** passes float64."""
    total = 0.0
    try:
        for c, a, b, d in _CUBE[p]:
            total += c * g[0] ** a * g[1] ** b * g[2] ** d
    except OverflowError:
        return math.inf
    return total


def _eval_box(
    seq: SigmaSequence, y: float, p: int, tol: float, budget: int, rel: float = 0.0
) -> SeriesEval:
    """Box series via f = g^3, g walked at y over ``box_factor``'s kappa
    k^2, orders p <= 2; the product bracket stops as ``_sum_blocks``'s does.

    ``_CUBE``'s monomials have positive coefficients and degree 3, so
    factor brackets at most r <= 1/4 of their lower ends wide give a
    product [L, H] at most (1 + r)^3 - 1 <= 4 r of L wide.  A first pass at
    r = 1/4 that misses the target is followed by one at
    r = min(1/4, target/(4 H)), whose width 4 r L' <= target L'/H is within
    the target, L' being below the true value and so below H.  Where that
    r is below 10 u, a width 4 r L is under the 40 u by which both ends are
    rounded outward, and there is no retry.  That, or a factor walk that
    fails, ends the evaluation: the box's BudgetExceededError carries the
    narrower of the passes' products of the factors' best brackets.
    """
    if p > 2:
        raise ValueError(
            "box series evaluation supports derivative orders 0..2 "
            "(higher orders of the cubed factor are not implemented)"
        )
    r, narrowest, why = 0.25, None, ""
    for retry in (False, True):
        if retry:
            r = min(0.25, target / (4.0 * hi))
            if r < 10.0 * _U:  # 4 r L is within the 40 u that rounding takes
                factor = box_factor(seq.kappa).spec_string()
                why = f" (a factor: relative width {r:g} is below {10.0 * _U:g} for {factor} at y={y!r})"
                break
        low, high = [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]
        n_max, failed = 0, None
        for j in range(p + 1):
            try:
                factor = _sum_blocks(box_factor(seq.kappa), y, j, 0.0, budget, r)
            except BudgetExceededError as exc:
                factor, failed = exc.best, exc
            low[j], high[j] = max(factor.value, 0.0), factor.upper
            n_max = max(n_max, factor.truncation_index)
        lo, hi = _cube(low, p), _cube(high, p)
        # the factors' upper ends, powers, products and sum: at most 10 u
        # of an end, inside the 20 u taken, as _up(hi, 6 u) takes it
        lo = lo * (1.0 - 20.0 * _U) if lo >= _TINY else 0.0
        if lo == math.inf:  # as a factor walk past float64 keeps it
            lo = 2.0 ** 1023
        best = SeriesEval(lo, n_max, _up(_up(hi, 6.0 * _U) - lo, 0.0))
        target = max(tol, rel * lo)
        if best.tail_bound <= target or (rel and lo <= 0.0):
            return best
        if narrowest is None or best.tail_bound < narrowest.tail_bound:
            narrowest = best
        if failed is not None:
            why = f" (a factor: {failed})"
            break
    raise BudgetExceededError(
        f"box bracket did not reach tol={target:g} for {seq.spec_string()} at y={y!r}{why}",
        narrowest,
    )


def eval_series(
    seq: SigmaSequence,
    y: float,
    p: int = 0,
    tol: float = 1e-9,
    max_terms: Optional[int] = None,
) -> SeriesEval:
    """Certified bracket of f^(p)(y) with tail_bound <= tol on success.

    Raises DomainError outside the domain (boundary orders follow the
    classification: open edges are excluded, closed edges admit p = 0,
    and only finite-slope closed edges admit p = 1; higher orders at the
    edge are refused).  Raises BudgetExceededError, carrying the best
    bracket, when the tolerance needs more than the term budget, and
    ValueError for a NaN or -inf ``y`` before any term is summed.
    """
    return _evaluate(seq, y, p, tol, max_terms)


def _evaluate(
    seq: SigmaSequence, y: float, p: int, tol: float, max_terms: Optional[int], rel: float = 0.0
) -> SeriesEval:
    """``eval_series`` that also stops once tail_bound <= rel * value (see
    ``_sum_blocks``); with ``rel`` set, ``tol`` may be 0."""
    if math.isnan(y) or y == -math.inf:
        raise ValueError(f"y must be a number above -inf, got {y!r}")
    if p < 0 or p != int(p):
        raise ValueError("derivative order p must be a nonnegative integer")
    if not (tol > 0 or rel > 0):
        raise ValueError("tol must be positive")
    p = int(p)
    budget = max_terms_budget(max_terms)
    # edge and class from the rules; a refusal's record is summed on the way out
    alpha, edge = _edge(seq, "empty effective domain", y)
    if y > -alpha:
        raise _refused(seq, f"y={y!r} is beyond the domain edge -{alpha:g}", y)
    if y == -alpha:
        if edge is BoundaryClass.OPEN_BOUNDARY:
            raise _refused(seq, f"domain is open at the edge -{alpha:g}", y)
        if edge is BoundaryClass.CLOSED_INFINITE_SLOPE and p > 0:
            raise _refused(seq, "derivatives are unbounded at an infinite-slope edge", y)
        if p > 1:
            raise _refused(seq, "orders p >= 2 are refused at the domain edge", y)
    elif seq.family is Family.BOX:
        return _eval_box(seq, y, p, tol, budget, rel)
    return _sum_blocks(seq, y, p, tol, budget, rel)


# ---------------------------------------------------------------------------
# Derived quantities
# ---------------------------------------------------------------------------

def _best_bracket(
    seq: SigmaSequence, y: float, p: int, tol: float, budget, rel: float = 0.0
) -> tuple[SeriesEval, Optional[BudgetExceededError]]:
    """``_evaluate`` and None, or the best bracket and its budget error."""
    try:
        return _evaluate(seq, y, p, tol, budget, rel), None
    except BudgetExceededError as exc:
        return exc.best, exc


def _relative(seq: SigmaSequence, y: float, p: int, rel: float, budget: Optional[int], what: str) -> SeriesEval:
    """f^(p)(y) bracketed to ``rel`` of its certified lower end; DomainError
    where that end is not positive, the sum underflowing."""
    ev = _evaluate(seq, y, p, 0.0, budget, rel)
    if ev.value <= 0.0:
        raise _refused(seq, f"series underflows at y={y!r}; {what} undefined in float64", y)
    return ev


def phi(seq: SigmaSequence, y: float, tol: float = 1e-12, max_terms: Optional[int] = None) -> float:
    """Log-derivative f'(y)/f(y) with relative error <= tol.

    Strictly increasing in y with infimum sigma_start; the mean exponent
    under the normalized weights exp(sigma_n y)/f(y).  f and f' are each
    walked once, until their brackets are tol/4 of their own certified
    lower ends wide (``_sum_blocks``'s relative stop).
    """
    e0 = _relative(seq, y, 0, 0.25 * tol, max_terms, "ratio")
    e1 = _relative(seq, y, 1, 0.25 * tol, max_terms, "ratio")
    return e1.midpoint / e0.midpoint


def log_f(seq: SigmaSequence, y: float, tol: float = 1e-12, max_terms: Optional[int] = None) -> float:
    """ln f(y) with absolute error <= tol, from one walk that stops once
    f's bracket is tol/2 of its certified lower end wide."""
    e0 = _relative(seq, y, 0, 0.5 * tol, max_terms, "log")
    return math.log(e0.midpoint)
