"""Output checks, run outside the timed region.

``check_call`` classifies one library result as ``ok``, ``budget`` (a
documented BudgetExceededError, WitnessBudgetError or NumericError) or
``wrong``; any other exception is ``unexpected``.  The ``linear`` family
is checked against its geometric closed forms, fits against their
moments and the law exp(x + sigma_n y), and a seeded sample of values
against an mpmath reference computed here, independently of the library.
"""

from __future__ import annotations

import json
import math

import numpy as np

DOCUMENTED_ERRORS = ("BudgetExceededError", "WitnessBudgetError", "NumericError")
TOL = 1e-9  # the library's default tolerance, used by every benchmark call


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


# ---------------------------------------------------------------------------
# Closed forms of the linear family f(y) = sum_{n>=1} e^{ny} = z/(1-z)
# ---------------------------------------------------------------------------

def linear_conjugate(u: float) -> tuple[float, float]:
    """(f*(u), argmax y): z/(1-z)^2 = u."""
    z = ((2.0 * u + 1.0) - math.sqrt(4.0 * u + 1.0)) / (2.0 * u)
    y = math.log(z)
    return y * u - z / (1.0 - z), y


def linear_log_conjugate(v: float) -> float:
    """sup_y v y - ln f(y): f'/f = 1/(1-z) = v."""
    z = 1.0 - 1.0 / v
    return v * math.log(z) - math.log(z / (1.0 - z))


def _sigma(spec: str, indices) -> np.ndarray:
    """Exponents for materialized indices, from the family definitions."""
    family, _, param = spec.partition(":")
    if family == "box":
        trip = np.asarray(indices, dtype=np.float64).reshape(-1, 3)
        return float(param) * np.sum(trip * trip, axis=1)
    n = np.asarray(indices, dtype=np.float64)
    if family == "linear":
        return n
    if family == "quadratic":
        return n * n
    if family == "power":
        return n ** float(param)
    if family == "logfam":
        return np.log(n) + float(param) * np.log(np.log(n))
    raise ValueError(f"no exponent formula for {spec!r}")


def _check_law(spec: str, fit, mass: float, energy: float) -> list[str]:
    """Weights equal exp(x + sigma_n y) and carry the moments up to the tails."""
    errs = []
    sig = _sigma(spec, fit.indices)
    x = fit.dual_x or 0.0
    law = np.exp(x + sig * fit.dual_y)
    # the library forms e^x * e^{sigma y}; where the second factor is
    # subnormal its absolute error is 2^-1074, scaled by e^x
    if not np.allclose(fit.weights, law, rtol=1e-12, atol=1e-322 * max(1.0, math.exp(x))):
        errs.append("weights differ from exp(x + sigma_n y)")
    for name, target, part, tail in (
        ("mass", mass, fit.weights, fit.tail_mass),
        ("energy", energy, sig * fit.weights, fit.tail_energy),
    ):
        if target is None:
            continue
        slack = 4.0 * TOL * max(1.0, target)
        total = float(np.sum(part))
        if not (total - slack <= target <= total + tail + slack):
            errs.append(f"{name} {target!r} outside [{total!r}, {total + tail!r}]")
    return errs


def check_call(op: str, args: tuple, kwargs: dict, result, exc) -> tuple[str, str]:
    """(status, detail) for one library call; args hold spec strings."""
    if exc is not None:
        name = type(exc).__name__
        if name in DOCUMENTED_ERRORS:
            best = getattr(exc, "best", None)
            if name == "BudgetExceededError" and not (best is not None and best.tail_bound >= 0):
                return "wrong", "budget error without a best bracket"
            return "budget", name
        return "unexpected", f"{name}: {exc}"
    if op == "cli.main":
        code, text = result
        # the mpmath part runs later, in the harness, from cli_sample
        return check_cli(args[0], code, text, reference=False)
    errs = _CHECKS[op](args, kwargs, result)
    return ("wrong", "; ".join(errs)) if errs else ("ok", "")


def _conjugate(args, kwargs, cv) -> list[str]:
    spec, u = args
    if spec.startswith("logfam"):
        return [] if math.isfinite(cv.value) else ["non-finite conjugate"]
    errs = []
    if cv.regime.value != "Interior":
        errs.append(f"regime {cv.regime.value}")
    if not cv.residual <= TOL * max(1.0, u):
        errs.append(f"residual {cv.residual!r}")
    if spec == "linear":
        value, y = linear_conjugate(u)
        if not _close(cv.value, value, TOL * max(1.0, u)):
            errs.append(f"f*({u!r}) = {cv.value!r}, closed form {value!r}")
        if not _close(cv.attaining_y, y, 1e-6):
            errs.append(f"argmax {cv.attaining_y!r}, closed form {y!r}")
    return errs


def _min_entropy(args, kwargs, fit) -> list[str]:
    spec, u = args
    errs = _check_law(spec, fit, None, u)
    if spec == "linear":
        value, _ = linear_conjugate(u)
        if not _close(fit.entropy_value, value, TOL * max(1.0, u)):
            errs.append(f"entropy {fit.entropy_value!r}, closed form {value!r}")
    return errs


def _fit(args, kwargs, fit) -> list[str]:
    spec, u, v = args
    if fit.status.value != "InteriorUnique":
        return [f"status {fit.status.value}"]
    errs = _check_law(spec, fit, u, v)
    mass, energy = fit.achieved
    if not (_close(mass, u, TOL * max(1.0, u)) and _close(energy, v, TOL * max(1.0, v))):
        errs.append(f"achieved ({mass!r}, {energy!r}) for ({u!r}, {v!r})")
    if spec == "linear":
        value = u * (math.log(u) - 1.0) + u * linear_log_conjugate(v / u)
        if not _close(fit.entropy_value, value, 4.0 * TOL * max(1.0, u, v)):
            errs.append(f"entropy {fit.entropy_value!r}, closed form {value!r}")
    return errs


def _log_conjugate(args, kwargs, value) -> list[str]:
    spec, v = args
    if spec == "linear":
        ref = linear_log_conjugate(v)
        if not _close(value, ref, TOL * max(1.0, v)):
            return [f"value {value!r}, closed form {ref!r}"]
    return [] if math.isfinite(value) else ["non-finite value"]


def _fenchel_young(args, kwargs, rep) -> list[str]:
    spec, y, u = args
    errs = [] if rep.passed else [f"gap {rep.lhs[0]!r} below -tol"]
    if spec == "linear":
        z = math.exp(y)
        gap = z / (1.0 - z) + linear_conjugate(u)[0] - y * u
        if not _close(rep.lhs[0], gap, 1e-8 * max(1.0, abs(gap))):
            errs.append(f"gap {rep.lhs[0]!r}, closed form {gap!r}")
    return errs


def _gradient(args, kwargs, rep) -> list[str]:
    return [] if rep.passed else [f"difference-quotient gap {rep.abs_gap!r}"]


def _truncated(args, kwargs, sol) -> list[str]:
    spec, n_levels = args
    moment = kwargs["moment"]
    errs = []
    if not sol.residual <= TOL * max(1.0, moment):
        errs.append(f"residual {sol.residual!r}")
    if spec == "linear":
        value, _ = linear_conjugate(moment)
        if not _close(sol.value, value, 1e-8 * max(1.0, abs(value))):
            errs.append(f"truncated value {sol.value!r}, closed form {value!r}")
    return errs


def _box_conjugate(args, kwargs, value) -> list[str]:
    return [] if math.isfinite(value) else ["non-finite value"]


def _box_report(args, kwargs, rep) -> list[str]:
    u, v = args
    kappa = kwargs["kappa"]
    if rep.classification != "interior":
        return [f"classification {rep.classification}"]
    errs = _fit((f"box:{kappa}", u, v), {}, rep.fit)
    if not _close(rep.h_star, rep.fit.entropy_value, 4.0 * TOL * max(1.0, u, v)):
        errs.append(f"h_star {rep.h_star!r} against fit entropy {rep.fit.entropy_value!r}")
    return errs


def _domain_info(args, kwargs, di) -> list[str]:
    return _edge_errors(
        args[0], di.boundary_class.value, di.f_at_boundary, di.f_boundary_err, di.gamma, di.gamma_err
    )


def _edge_errors(spec: str, cls: str, f: float, f_err: float, gamma: float, gamma_err: float) -> list[str]:
    """The boundary class follows theta and the edge values are certified."""
    theta = float(spec.partition(":")[2])
    want = "OpenBoundary" if theta <= 1.0 else "ClosedInfiniteSlope" if theta <= 2.0 else "ClosedFiniteSlope"
    errs = [] if cls == want else [f"class {cls}, want {want}"]
    if theta > 1.0 and not (f > 0 and f_err <= 1e-8):
        errs.append(f"edge value {f!r} +- {f_err!r}")
    if theta > 2.0 and not (math.isfinite(gamma) and gamma_err <= 1e-8):
        errs.append(f"edge slope {gamma!r} +- {gamma_err!r}")
    return errs


def _eval(args, kwargs, ev) -> list[str]:
    if not (ev.tail_bound <= TOL and math.isfinite(ev.value)):
        return [f"bracket [{ev.value!r}, +{ev.tail_bound!r}] wider than tol"]
    return []


def _witness(args, kwargs, wit) -> list[str]:
    spec, u, eps = args
    errs = [] if wit.gap <= eps else [f"gap {wit.gap!r} above eps {eps!r}"]
    sig = _sigma(spec, wit.indices)
    w = wit.weights
    if not _close(float(np.sum(sig * w)), u, 1e-9 * u):
        errs.append("witness moment differs from u")
    entropy = float(np.sum(w * (np.log(w) - 1.0)))
    if not _close(entropy, wit.entropy, 1e-9 * max(1.0, abs(entropy))):
        errs.append(f"entropy {wit.entropy!r}, recomputed {entropy!r}")
    if not _close(wit.gap, wit.entropy - wit.target, 1e-12):
        errs.append("gap is not entropy - target")
    return errs


_EXAMPLE1 = ("OpenBoundary", "OpenBoundary", "ClosedInfiniteSlope", "ClosedFiniteSlope", "EmptyDomain")


def _example1(rows) -> list[str]:
    classes = tuple(row["boundary_class"] for row in rows)
    return [] if classes == _EXAMPLE1 else [f"classes {classes}"]


def _criterion(args, kwargs, res) -> list[str]:
    return [] if res.passed else [f"criterion {res.id} failed: {res.details}"]


_CHECKS = {
    "conjugate": _conjugate,
    "min_entropy_moment": _min_entropy,
    "fit_gibbs": _fit,
    "log_f_conjugate": _log_conjugate,
    "check_fenchel_young": _fenchel_young,
    "check_gradient_sum": _gradient,
    "primal_truncated": _truncated,
    "box_conjugate": _box_conjugate,
    "box_report": _box_report,
    "domain_info": _domain_info,
    "eval_series": _eval,
    "plateau_witness": _witness,
    "acceptance.run_criterion": _criterion,
}


def sample_record(op: str, args: tuple, result, exc) -> dict:
    """Plain data for the mpmath check of a sampled call."""
    rec = {"op": op, "args": list(args)}
    if op == "eval_series":
        ev = result if exc is None else exc.best
        rec.update(value=ev.value, tail=ev.tail_bound)
    elif op == "domain_info":
        rec.update(
            f=result.f_at_boundary, f_err=result.f_boundary_err, gamma=result.gamma, gamma_err=result.gamma_err
        )
    elif op == "conjugate":
        rec.update(value=result.value, y=result.attaining_y)
    elif op == "fit_gibbs":
        rec.update(value=result.entropy_value, y=result.dual_y)
    else:
        rec.update(value=result)
    return rec


# ---------------------------------------------------------------------------
# mpmath reference
# ---------------------------------------------------------------------------

def _mp():
    import mpmath

    mpmath.mp.dps = 30
    return mpmath


def series_ref(spec: str, y, p: int):
    """sum_n sigma_n^p exp(sigma_n y) to ~25 digits."""
    mp = _mp()
    y = mp.mpf(y)
    family, _, param = spec.partition(":")
    if family == "linear":
        return mp.polylog(-p, mp.exp(y))
    if family == "box":
        kappa = mp.mpf(param)
        g = [kappa ** j * _direct(lambda n: mp.mpf(n) ** 2, kappa * y, j) for j in range(3)]
        return (g[0] ** 3, 3 * g[0] ** 2 * g[1], 6 * g[0] * g[1] ** 2 + 3 * g[0] ** 2 * g[2])[p]
    if family == "quadratic":
        return _direct(lambda n: mp.mpf(n) ** 2, y, p)
    if family == "power":
        return _power_ref(mp.mpf(param), y, p)
    if family == "logfam":
        return _logfam_ref(mp.mpf(param), y, p)
    raise ValueError(spec)


def _direct(sig, y, p: int):
    """Plain summation for exponents growing at least like n^2."""
    mp = _mp()
    total = mp.mpf(0)
    n = 1
    while True:
        s = sig(n)
        term = s ** p * mp.exp(s * y)
        total += term
        if s * -y > p + 1 and term < mp.mpf(10) ** -40 * total:
            return total
        n += 1


def _euler_maclaurin(t, start: int, cut: int, integral):
    """sum_{n >= start} t(n) for a smooth t decreasing beyond ``cut``:
    head sum, the integral from ``cut``, and three correction terms."""
    mp = _mp()
    head = mp.fsum(t(n) for n in range(start, cut))
    return head + integral + t(cut) / 2 - mp.diff(t, cut, 1) / 12 + mp.diff(t, cut, 3) / 720 - mp.diff(t, cut, 5) / 30240


def _power_ref(theta, y, p: int, cut: int = 100):
    """sigma_n = n^theta; with s = x^theta the tail integral is an
    incomplete gamma: (1/theta) b^-a Gamma(a, b cut^theta), a = p + 1/theta."""
    mp = _mp()
    a, b = p + 1 / theta, -y
    integral = mp.gammainc(a, b * mp.mpf(cut) ** theta) / (theta * b ** a)
    return _euler_maclaurin(lambda x: x ** (theta * p) * mp.exp(x ** theta * y), 1, cut, integral)


def _logfam_ref(theta, y, p: int, cut: int = 200):
    """sigma_n = ln n + theta ln ln n, from n = 3."""
    mp = _mp()

    def t(x):
        s = mp.log(x) + theta * mp.log(mp.log(x))
        return s ** p * mp.exp(s * y)

    # integral over x > cut; with x = e^w the integrand is
    # (w + theta ln w)^p e^{(w + theta ln w) y + w}
    lo = mp.log(cut)
    if y == -1:
        # (w + theta ln w)^p w^-theta: expand the power; each piece
        # w^(p-j-theta) (ln w)^j integrates to Gamma(j+1, c ln lo) / c^(j+1)
        integral = mp.fsum(
            mp.binomial(p, j) * theta ** j * mp.gammainc(j + 1, (theta + j - p - 1) * mp.log(lo))
            / (theta + j - p - 1) ** (j + 1)
            for j in range(p + 1)
        )
    else:
        # e^{(1 + y) w} decays on the scale 1/|1 + y|; split the range there
        scale = 1 / abs(1 + y)
        points = [lo] + [lo + k * scale for k in (1, 4, 16, 64)] + [mp.inf]
        integral = mp.quad(lambda w: (w + theta * mp.log(w)) ** p * mp.exp((w + theta * mp.log(w)) * y + w), points)
    return _euler_maclaurin(t, 3, cut, integral)


def _newton(fn, dfn, y0, target, steps: int = 5):
    mp = _mp()
    y = mp.mpf(y0)
    for _ in range(steps):
        y -= (fn(y) - target) / dfn(y)
    return y


def conjugate_ref(spec: str, u: float, y0: float):
    y = _newton(lambda t: series_ref(spec, t, 1), lambda t: series_ref(spec, t, 2), y0, u)
    return y * u - series_ref(spec, y, 0)


def log_conjugate_ref(spec: str, v: float, y0: float):
    mp = _mp()

    def phi(t):
        return series_ref(spec, t, 1) / series_ref(spec, t, 0)

    def dphi(t):
        f0, f1, f2 = (series_ref(spec, t, j) for j in range(3))
        return f2 / f0 - (f1 / f0) ** 2

    y = _newton(phi, dphi, y0, v)
    return v * y - mp.log(series_ref(spec, y, 0))


def _y_start(spec: str, v: float) -> float:
    """A float start for Newton on f'/f = v, by bisection on a long prefix."""
    family, _, param = spec.partition(":")
    if family == "box":
        kappa = float(param)
        return _y_start("quadratic", v / (3.0 * kappa)) / kappa
    s = _sigma(spec, np.arange(1, 200_001 if family == "power" else 2_001))
    lo, hi = -50.0, -1e-3
    for _ in range(45):
        mid = 0.5 * (lo + hi)
        w = np.exp((s - s[0]) * mid)
        lo, hi = (mid, hi) if float(np.dot(s, w) / np.sum(w)) < v else (lo, mid)
    return 0.5 * (lo + hi)


def check_sample(rec: dict) -> str:
    """Empty string when the sampled output agrees with the reference."""
    mp = _mp()
    op, args = rec["op"], rec["args"]
    if op == "eval_series":
        spec, y, p = args
        ref = series_ref(spec, y, p)
        slack = mp.mpf(10) ** -18 * abs(ref)
        if not (mp.mpf(rec["value"]) - slack <= ref <= mp.mpf(rec["value"]) + mp.mpf(rec["tail"]) + slack):
            return f"{spec} y={y} p={p}: reference {mp.nstr(ref, 20)} outside [{rec['value']!r}, +{rec['tail']!r}]"
        return ""
    if op == "domain_info":
        spec = args[0]
        theta = float(spec.partition(":")[2])
        errs = []
        pairs = [("f", 0)] + ([("gamma", 1)] if theta > 2.0 else [])
        for key, p in pairs:
            ref = series_ref(spec, -1.0, p)
            if not abs(ref - mp.mpf(rec[key])) <= mp.mpf(rec[key + "_err"]) + mp.mpf(10) ** -18:
                errs.append(f"{spec} {key}={rec[key]!r}+-{rec[key + '_err']!r}, reference {mp.nstr(ref, 20)}")
        return "; ".join(errs)
    if op == "conjugate":
        spec, u = args
        ref = conjugate_ref(spec, u, rec["y"])
        tol = TOL * max(1.0, u)
    elif op == "log_f_conjugate":
        spec, v = args
        ref = log_conjugate_ref(spec, v, _y_start(spec, v))
        tol = TOL * max(1.0, v)
    elif op == "box_conjugate":
        u, v = args
        rho = v / (3.0 * u)
        ref = u * (mp.log(u) - 1) + 3 * u * log_conjugate_ref("quadratic", rho, _y_start("quadratic", rho))
        tol = 4.0 * TOL * max(1.0, u, v)
    elif op == "fit_gibbs":
        spec, u, v = args
        ref = u * (mp.log(u) - 1) + u * log_conjugate_ref(spec, v / u, rec["y"])
        tol = 4.0 * TOL * max(1.0, u, v)
    else:
        raise ValueError(op)
    if not abs(ref - mp.mpf(rec["value"])) <= tol:
        return f"{op}{tuple(args)} = {rec['value']!r}, reference {mp.nstr(ref, 20)}"
    return ""


# ---------------------------------------------------------------------------
# Command-line outputs
# ---------------------------------------------------------------------------

def _cli_status(code: int) -> str:
    return {0: "ok", 3: "budget"}.get(code, "unexpected")


def check_cli(argv: list, code: int, out: str, reference: bool = True) -> tuple[str, str]:
    """(status, detail) for one ``gibbs-series`` process.

    With ``reference=False`` the commands checked against mpmath
    (``eval``, ``logconj``, ``boxconj``) get only their structural
    checks; ``cli_sample`` gives the record for ``check_sample``.
    """
    status = _cli_status(code)
    if status != "ok":
        return status, f"exit code {code}: {out.strip()[-300:]}"
    try:
        errs = _check_cli_output(argv, out, reference)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        errs = [f"unreadable output ({type(exc).__name__}: {exc})"]
    return ("wrong", "; ".join(errs)) if errs else ("ok", "")


def _opt(argv: list, name: str) -> float:
    return float(argv[argv.index(name) + 1])


def cli_sample(argv: list, out: str) -> dict | None:
    """The ``check_sample`` record of a command checked against mpmath."""
    cmd = argv[0]
    if cmd not in ("eval", "logconj", "boxconj"):
        return None
    doc = json.loads(out)
    if cmd == "eval":
        rec = {"op": "eval_series", "args": [argv[1], _opt(argv, "--y"), int(_opt(argv, "--p"))]}
        return {**rec, "value": doc["value"], "tail": doc["tail_bound"]}
    if cmd == "logconj":
        return {"op": "log_f_conjugate", "args": ["quadratic", _opt(argv, "--v")], "value": doc["value"]}
    return {"op": "box_conjugate", "args": [_opt(argv, "--u"), _opt(argv, "--v")], "value": doc["value"]}


def _check_cli_output(argv: list, out: str, reference: bool) -> list[str]:
    cmd = argv[argv.index("table")] if "table" in argv else argv[0]
    if cmd in ("eval", "logconj", "boxconj"):
        rec = cli_sample(argv, out)  # parses the output in any case
        msg = check_sample(rec) if reference else ""
        return [msg] if msg else []
    if cmd == "table":
        import csv
        import io

        rows = list(csv.DictReader(io.StringIO(out)))
        which = argv[-1]
        if which == "example1":
            return _example1(rows)
        if which == "example2":
            return [] if len(rows) == 5 else [f"{len(rows)} rows"]
        errs = [] if len(rows) == 5 else [f"{len(rows)} rows"]
        for row in rows:
            if row["classification"] == "interior":
                h, e = float(row["h_star"]), float(row["entropy"])
                scale = max(1.0, float(row["u"]), float(row["v"]))
                if not _close(h, e, 4.0 * TOL * scale):
                    errs.append(f"h_star {h!r} against entropy {e!r}")
        return errs
    doc = json.loads(out)
    spec = argv[1] if len(argv) > 1 else ""
    if cmd == "domain":
        values = (float(doc[k]) for k in ("f_at_boundary", "f_boundary_err", "gamma", "gamma_err"))
        return _edge_errors(spec, doc["boundary_class"], *values)
    if cmd == "conjugate":
        u = _opt(argv, "--u")
        value, y = linear_conjugate(u)
        ok = _close(doc["value"], value, TOL * max(1.0, u)) and doc["regime"] == "Interior"
        return [] if ok else [f"f*({u!r}) = {doc['value']!r}, closed form {value!r}"]
    if cmd == "fit":
        u, v = _opt(argv, "--u"), _opt(argv, "--v")
        errs = [] if doc["status"] == "InteriorUnique" else [f"status {doc['status']}"]
        if not (_close(doc["achieved_mass"], u, TOL * max(1.0, u)) and _close(doc["achieved_energy"], v, TOL * max(1.0, v))):
            errs.append(f"achieved ({doc['achieved_mass']!r}, {doc['achieved_energy']!r})")
        idx = [w["index"] for w in doc["weights"]]
        law = np.exp(doc["dual_x"] + _sigma(spec, idx) * doc["dual_y"])
        if not np.allclose([w["weight"] for w in doc["weights"]], law, rtol=1e-12, atol=0.0):
            errs.append("printed weights differ from exp(x + sigma_n y)")
        if spec == "linear":
            value = u * (math.log(u) - 1.0) + u * linear_log_conjugate(v / u)
            if not _close(doc["entropy"], value, 4.0 * TOL * max(1.0, u, v)):
                errs.append(f"entropy {doc['entropy']!r}, closed form {value!r}")
        return errs
    if cmd == "witness":
        eps = _opt(argv, "--eps")
        return [] if -1e-12 <= doc["gap"] <= eps else [f"gap {doc['gap']!r} for eps {eps!r}"]
    raise ValueError(f"no check for {cmd!r}")


KNOWN_RED = ("4",)  # README: criterion 4's target is out of reach in principle


def check_verify(code: int, out: str) -> list[tuple[str, str]]:
    """One (status, detail) per criterion of a ``verify all`` process."""
    if code not in (0, 3):
        return [("unexpected", f"exit code {code}")] * 10
    results = json.loads(out)["results"]
    statuses = []
    for res in results:
        if res["passed"]:
            statuses.append(("ok", ""))
        elif res["id"] in KNOWN_RED:
            statuses.append(("budget", f"criterion {res['id']} (known red)"))
        else:
            statuses.append(("wrong", f"criterion {res['id']} failed: {res['details']}"))
    if len(results) != 10:
        statuses.append(("wrong", f"{len(results)} criteria reported"))
    return statuses
