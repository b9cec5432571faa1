"""The result records: NamedTuples that compare only to their own type,
on every field but their materialized arrays, and stay immutable; the two
reports with dict fields give each instance its own dict."""

import json

import numpy as np
import pytest

from gibbs_series import (
    AlternatingWitness,
    ConjugateValue,
    FitStatus,
    GibbsFit,
    PlateauWitness,
    Regime,
    SeriesEval,
    TruncatedSolution,
    VerificationReport,
)
from gibbs_series.acceptance import CriterionResult


def _arrays(n):
    return {"indices": np.arange(1, n + 1), "weights": np.full(n, 0.5)}


# (record, a copy differing only in the fields left out of == and hash)
PAIRS = [
    (SeriesEval(0.5, 256, 1e-12), SeriesEval(0.5, 256, 1e-12)),
    (
        ConjugateValue(-1.0, Regime.INTERIOR, -0.5, 0.0),
        ConjugateValue(-1.0, Regime.INTERIOR, -0.5, 0.0),
    ),
    (
        GibbsFit(FitStatus.INTERIOR_UNIQUE, 0.1, -0.5, achieved=(1.0, 2.0), **_arrays(3)),
        GibbsFit(FitStatus.INTERIOR_UNIQUE, 0.1, -0.5, achieved=(1.0, 2.0), **_arrays(5)),
    ),
    (
        PlateauWitness(entropy=1.0, gap=0.01, lam_history=(0.5,), **_arrays(3)),
        PlateauWitness(entropy=1.0, gap=0.01, lam_history=(0.5,), **_arrays(5)),
    ),
    (
        AlternatingWitness(entropy=1.0, moment_residuals=(0.0, 1e-17), **_arrays(3)),
        AlternatingWitness(entropy=1.0, moment_residuals=(0.0, 1e-17), **_arrays(5)),
    ),
    (
        TruncatedSolution(1.0, np.full(3, 0.5), None, -0.5, 0.0, 3),
        TruncatedSolution(1.0, np.full(5, 0.5), None, -0.5, 0.0, 3),
    ),
]
IDS = [type(a).__name__ for a, _ in PAIRS]


@pytest.mark.parametrize("a,b", PAIRS, ids=IDS)
def test_equality_and_hash_skip_the_arrays(a, b):
    assert a == b and not a != b
    assert hash(a) == hash(b)
    changed = a._replace(**{a._fields[-1]: "other"})
    assert a != changed and not a == changed


@pytest.mark.parametrize("a,b", PAIRS, ids=IDS)
def test_never_equal_to_a_bare_tuple(a, b):
    bare = tuple(a)
    assert a != bare and bare != a
    assert not a == bare and not bare == a


@pytest.mark.parametrize("a,b", PAIRS, ids=IDS)
def test_fields_cannot_be_assigned(a, b):
    with pytest.raises((AttributeError, TypeError)):
        setattr(a, a._fields[0], None)


def test_dict_defaults_are_new_per_instance():
    a = VerificationReport("c", {}, (1.0,), (1.0,), 0.0, 0.0, 1e-9, True)
    b = VerificationReport("c", {}, (1.0,), (1.0,), 0.0, 0.0, 1e-9, True)
    assert a.meta == {} and a.meta is not b.meta
    c, d = CriterionResult("1", "t", True), CriterionResult("1", "t", True)
    assert c.details == {} and c.details is not d.details
    c.details["x"] = 1.0
    assert d.details == {}


def test_report_serializations_unchanged():
    rep = VerificationReport(
        "claim", {"y": -0.5}, (1.0, 2.0), (1.0, 2.5), 0.5, 0.2, 1e-9, False, {"k": 1}
    )
    assert rep.to_json() == (
        '{"abs_gap": 0.5, "claim": "claim", "lhs": [1.0, 2.0], "meta": {"k": 1}, '
        '"params": {"y": -0.5}, "passed": false, "rel_gap": 0.2, "rhs": [1.0, 2.5], "tol": 1e-09}'
    )
    res = CriterionResult("4", "title", False, {"gap": 0.1})
    assert json.dumps(res.to_dict()) == (
        '{"id": "4", "title": "title", "passed": false, "details": {"gap": 0.1}}'
    )
    assert res == CriterionResult("4", "title", False, {"gap": 0.1})
    assert res != CriterionResult("4", "title", True, {"gap": 0.1})
    res.passed = True  # a criterion's result stays a mutable record
    assert res.summary_line() == "[PASS] criterion 4: title"
