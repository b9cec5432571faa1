"""The closed forms of the whole sum (``_Rules.whole``) against 40-digit
references: Li_{-p}(e^y) for ``linear``, and for ``quadratic`` and the box
factors sum_k (kappa k^2)^p e^(kappa k^2 y), summed directly at kappa |y|
>= 0.01 and below through Jacobi's transform of ``mp.jtheta``."""

import pytest

from gibbs_series import BudgetExceededError, box, eval_series, linear, phi, quadratic
from gibbs_series import series
from gibbs_series.sequences import _JACOBI_B, Family, box_factor

mp = pytest.importorskip("mpmath")

YS = (-1e-12, -1e-6, -1e-3, -0.05, -0.7, -3.0, -50.0)
KAPPAS = (0.25, 0.5, 1.0, 2.0)


def factor_reference(kappa: float, y: float, p: int):
    """sum_{k>=1} (kappa k^2)^p exp(kappa k^2 y) at 40 digits."""
    with mp.workdps(40):
        kappa, y = mp.mpf(kappa), mp.mpf(y)
        b = -kappa * y
        if b >= 0.01:  # the terms past K are below 1e-50 of the first
            K = int(mp.sqrt((130 + 8 * p) / b)) + 10
            return mp.fsum((kappa * k * k) ** p * mp.exp(-b * k * k) for k in range(1, K))

        def g(t):  # sqrt(pi/b) theta_3(0, e^(-pi^2/b)) = theta_3(0, e^(-b)), DLMF 20.7.32
            return (mp.sqrt(mp.pi / (-kappa * t)) * mp.jtheta(3, 0, mp.exp(mp.pi ** 2 / (kappa * t))) - 1) / 2

        return mp.diff(g, y, p)


def contains(lower: float, upper: float, ref) -> bool:
    return mp.mpf(lower) <= ref <= mp.mpf(upper)


@pytest.mark.parametrize("p", range(4))
@pytest.mark.parametrize("y", YS)
def test_linear_bracket_contains_polylog(y, p):
    seq = linear()
    lower, upper = Family.LINEAR.rules.whole(seq, y, p)
    with mp.workdps(40):
        ref = mp.polylog(-p, mp.exp(mp.mpf(y)))
    assert contains(lower, upper, ref), (lower, upper, ref)
    assert upper - lower <= 2e-14 * upper  # at most 180 u
    # the walk returns the same bracket wherever it meets the target
    ev = eval_series(seq, y, p, tol=1e-13 * max(1.0, upper))
    assert ev.truncation_index == 0 and ev.value == lower
    assert contains(ev.value, mp.mpf(ev.value) + mp.mpf(ev.tail_bound), ref)


@pytest.mark.parametrize("p", range(4))
@pytest.mark.parametrize("y", YS)
@pytest.mark.parametrize("kappa", KAPPAS)
def test_quadratic_and_factor_brackets_contain_theta_sums(kappa, y, p):
    seq = quadratic() if kappa == 1.0 else box_factor(kappa)
    lower, upper = Family.QUADRATIC.rules.whole(seq, y, p)
    ref = factor_reference(kappa, y, p)
    assert contains(lower, upper, ref), (kappa, y, p, lower, upper, ref)
    assert upper - lower <= 1e-12 * upper


@pytest.mark.parametrize("p", range(3))
@pytest.mark.parametrize("y", YS)
@pytest.mark.parametrize("kappa", KAPPAS)
def test_box_brackets_from_closed_factors(kappa, y, p):
    # the box's factor walks stop at their closed forms, whose product is
    # within 1e-11 of its size: f = g^3, (g^3)' = 3 g^2 g', (g^3)'' = 6 g
    # g'^2 + 3 g^2 g''
    ev = series._evaluate(box(kappa), y, p, 0.0, None, 1e-11)
    g = [factor_reference(kappa, y, j) for j in range(p + 1)] + [0, 0]
    ref = (g[0] ** 3, 3 * g[0] ** 2 * g[1], 6 * g[0] * g[1] ** 2 + 3 * g[0] ** 2 * g[2])[p]
    assert contains(ev.value, mp.mpf(ev.value) + mp.mpf(ev.tail_bound), ref), (kappa, y, p)


@pytest.mark.parametrize("p", range(4))
@pytest.mark.parametrize("kappa", KAPPAS)
def test_both_branches_across_the_switch(kappa, p):
    # b = kappa |y| just below, at and just above the switch: Jacobi's form
    # up to it, the direct terms beyond, each bracket holding the reference
    seq = quadratic() if kappa == 1.0 else box_factor(kappa)
    brackets = []
    for b in (_JACOBI_B * (1.0 - 1e-9), _JACOBI_B, _JACOBI_B * (1.0 + 1e-9), 1.7, 0.4):
        y = -b / kappa
        lower, upper = Family.QUADRATIC.rules.whole(seq, y, p)
        assert contains(lower, upper, factor_reference(kappa, y, p)), (b, p)
        brackets.append((lower, upper))
    # 1e-9 apart in b, the sums differ by less than their brackets' widths
    (l0, u0), (l1, u1), (l2, u2) = brackets[:3]
    assert l1 <= u0 and l2 <= u1


def test_walk_runs_where_the_closed_form_misses_the_target(monkeypatch):
    # at y = -1e-6 the sum is 1e6 and its bracket a few 1e-9 wide, so an
    # absolute 1e-9 is out of reach: the walk runs, and fails as it does
    # without the closed form, but its error carries the closed form's
    # bracket, narrower than the walk's 9e5 after 10^5 terms, and says so
    def failure():
        series._walk.cache_clear()
        with pytest.raises(BudgetExceededError) as info:
            eval_series(linear(), -1e-6, 0, tol=1e-9, max_terms=100_000)
        return str(info.value), info.value.best

    (message, best), (lower, upper) = failure(), Family.LINEAR.rules.whole(linear(), -1e-6, 0)
    monkeypatch.setattr(Family.LINEAR, "rules", Family.LINEAR.rules._replace(whole=None))
    walked, walked_best = failure()
    assert message == f"{walked}; carried: the closed form's bracket, {best.tail_bound:g} wide"
    assert best.value == lower and best.upper >= upper and best.tail_bound < 1e-8 < walked_best.tail_bound


@pytest.mark.parametrize(
    "seq, y, p",
    [
        (linear(), -800.0, 0),  # z = e^y underflows
        (linear(), -1e-300, 1),  # (1 - z)^2 underflows
        (linear(), -0.5, 4),  # orders past 3
        (quadratic(), -1e3, 0),  # the first term is below 2^-900
        (quadratic(), -0.5, 4),
    ],
)
def test_no_closed_form_outside_its_range(seq, y, p):
    assert seq.family.rules.whole(seq, y, p) is None


def test_relative_walks_read_the_closed_forms(monkeypatch):
    # phi walks f and f' to a fraction of their own lower ends: both are
    # read off the closed forms here, and no block is summed
    monkeypatch.setattr(series, "_block_sum", None)
    with mp.workdps(40):
        z = mp.exp(-0.5)
        ref = mp.polylog(-1, z) / mp.polylog(0, z)
    assert abs(phi(linear(), -0.5) - ref) <= 1e-12 * ref
    ref = factor_reference(1.0, -0.05, 1) / factor_reference(1.0, -0.05, 0)
    assert abs(phi(quadratic(), -0.05) - ref) <= 1e-12 * ref
