"""Work-count gate: blocks and terms the reference calls sum from a cold memo.

The counts are deterministic, so a change that silently drops the reuse of
partial sums (or sums more for any other reason) fails here on any machine.
"""

import pytest

from gibbs_series import box, conjugate, fit_gibbs, linear, log_f_conjugate, quadratic, series

# (call, most _block_sum calls, most terms summed)
REFERENCE_CALLS = {
    "conjugate(linear, 2)": (lambda: conjugate(linear(), 2.0), 11, 2_816),
    "fit_gibbs(linear, 1, 2)": (lambda: fit_gibbs(linear(), 1.0, 2.0), 18, 4_608),
    "fit_gibbs(box, 1, 4)": (lambda: fit_gibbs(box(1.0), 1.0, 4.0), 18, 4_608),
    "log_f_conjugate(quadratic, 2)": (lambda: log_f_conjugate(quadratic(), 2.0), 24, 6_144),
}


@pytest.mark.parametrize("name", REFERENCE_CALLS)
def test_reference_call_work(name, monkeypatch):
    call, max_blocks, max_terms = REFERENCE_CALLS[name]
    work = {"blocks": 0, "terms": 0}
    kernel = series._block_sum

    def counted(seq, y, p, first, stop):
        work["blocks"] += 1
        work["terms"] += stop - first
        return kernel(seq, y, p, first, stop)

    monkeypatch.setattr(series, "_block_sum", counted)
    series._memo.lru.clear()
    call()
    assert work["blocks"] <= max_blocks and work["terms"] <= max_terms, work
