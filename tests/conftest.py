import pytest

from gibbs_series.sequences import Family


@pytest.fixture
def walked(monkeypatch):
    """``linear``, ``quadratic`` and the box factors summed by the block walk,
    their closed forms (``_Rules.whole``) taken away: for the tests that
    use these sums as a vehicle for the walk's budget, cache and retry."""
    for family in (Family.LINEAR, Family.QUADRATIC):
        monkeypatch.setattr(family, "rules", family.rules._replace(whole=None))
