"""Work-count gate: evaluations, blocks, terms and exponents the reference
calls compute from a cold memo.

The counts are deterministic, so a change that silently drops the reuse of
partial sums or of cached exponents (or computes more for any other reason)
fails here on any machine.
"""

import pytest

from gibbs_series import (
    box,
    conjugate,
    domain_info,
    eval_series,
    fit_gibbs,
    linear,
    log_f_conjugate,
    logfam,
    min_entropy_moment,
    quadratic,
    series,
)

# (call, most _block_sum calls, most terms summed, most exponents computed,
# most evaluations: eval_series calls and the relative walks of phi, log_f
# and the ratio probes, all of which pass through series._evaluate)
REFERENCE_CALLS = {
    "conjugate(linear, 2)": (lambda: conjugate(linear(), 2.0), 8, 2_048, 256, 9),
    # the fit reads the conjugate's root; its moments reuse the cached sums
    "min_entropy_moment(linear, 2)": (lambda: min_entropy_moment(linear(), 2.0), 8, 2_048, 256, 11),
    # each ratio probe walks f and f' once, to a fraction of their own size
    "fit_gibbs(linear, 1, 2)": (lambda: fit_gibbs(linear(), 1.0, 2.0), 14, 3_584, 256, 18),
    "fit_gibbs(box, 1, 4)": (lambda: fit_gibbs(box(1.0), 1.0, 4.0), 12, 3_072, 256, 16),
    "log_f_conjugate(quadratic, 2)": (lambda: log_f_conjugate(quadratic(), 2.0), 14, 3_584, 256, 17),
    # one 4,096-term edge block classifies the domain, then three interior
    # blocks meet the integral sandwich
    "eval_series(logfam:1.7229, -1.0886)": (
        lambda: eval_series(logfam(1.7229), -1.0886), 4, 5_888, 4_096, 1
    ),
    "domain_info(logfam:1.5, 1e-9)": (lambda: domain_info(logfam(1.5), 1e-9), 1, 4_096, 4_096, 0),
    # every probe of the solve ends at the slope's difference-quotient sandwich
    "conjugate(logfam:2.9, 0.6625)": (
        lambda: conjugate(logfam(2.9), 0.6625), 58, 1_581_568, 1_556_480, 9
    ),
    # sigma is concave from x = 5.04 on for theta < 0 too, so Hermite-Hadamard applies
    "eval_series(logfam:-1, -1.3)": (lambda: eval_series(logfam(-1.0), -1.3), 6, 16_128, 16_128, 1),
}


@pytest.mark.parametrize("name", REFERENCE_CALLS)
def test_reference_call_work(name, monkeypatch):
    call, max_blocks, max_terms, max_sigmas, max_evals = REFERENCE_CALLS[name]
    work = {"blocks": 0, "terms": 0, "sigmas": 0, "evals": 0}
    kernel = series._block_sum
    sigma_values = series.sigma_values
    evaluate = series._evaluate

    def counted(seq, y, p, first, stop):
        work["blocks"] += 1
        work["terms"] += stop - first
        return kernel(seq, y, p, first, stop)

    def counted_sigmas(seq, ns):
        work["sigmas"] += len(ns)
        return sigma_values(seq, ns)

    def counted_evaluate(*args):
        work["evals"] += 1
        return evaluate(*args)

    monkeypatch.setattr(series, "_block_sum", counted)
    monkeypatch.setattr(series, "sigma_values", counted_sigmas)
    monkeypatch.setattr(series, "_evaluate", counted_evaluate)
    series._memo.lru.clear()
    series._memo.sigma.clear()
    domain_info.cache_clear()
    call()
    assert (
        work["blocks"] <= max_blocks
        and work["terms"] <= max_terms
        and work["sigmas"] <= max_sigmas
        and work["evals"] <= max_evals
    ), work
