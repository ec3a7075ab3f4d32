"""Pin seeded law-check reports and certified approximations byte for byte.

``REPORTS_SHA256`` and ``APPROX_SHA256`` were recorded before the equation and
conditional checks and the approx refinement loop were folded into single
paths; ``PROPAGATION_COMPLEX_SHA256`` was recorded before the propagation and
complex checks joined that loop.  Any change to the order of random draws, the
failure lists, the ``satisfied``/``skipped`` counts or the refinement schedule
changes a digest.
"""

import hashlib
import json
import re
from fractions import Fraction

from meadows import Session, approx_decimal, enclose, eval_exact, parse
from meadows.axioms import (
    ComplexLaw,
    ConditionalEquation,
    Equation,
    catalog,
    check_complex_law,
    check_conditional,
    check_equation,
    check_propagation,
)

REPORTS_SHA256 = "1c96de0445f52a64db24505a4b0e12a54fc89bbd04dedf2b2b95ed63947b1692"
APPROX_SHA256 = "c35db92668091078466a8554525e6a328570e082f1e8d56f13a08bb620a98a61"
PROPAGATION_COMPLEX_SHA256 = (
    "c43d93e4afa721d8c68d741a2ec0ce72bd0aebb1186911371986fcf73d31fc5d"
)

KNOWN_FALSE = (
    Equation("unrestricted-inverse", parse("x * inv(x)"), parse("1")),
    Equation("sqrt-of-sum", parse("sqrt(x + y)"), parse("sqrt(x) + sqrt(y)")),
    ConditionalEquation(
        "signs-determine-value",
        ((parse("s(x)"), parse("s(y)"), "eq"),),
        parse("x"),
        parse("y"),
        strategy="match-signs",
    ),
)

# false off the real line: the root reads only the real part of z * w
COMPLEX_KNOWN_FALSE = ComplexLaw(
    "sqrt-of-product-full", parse("sqrt(z1 * z2)"), parse("sqrt(z1) * sqrt(z2)")
)

NESTED_RADICALS = (
    "0",
    "-7/4",
    "sqrt(2)",
    "-sqrt(3)",
    "sqrt(2) + sqrt(3)",
    "sqrt(5 + 2 * sqrt(6))",
    "sqrt(1 + sqrt(2))",
    "inv(sqrt(2) - sqrt(3))",
    "(1 + sqrt(5)) / 2",
    "sqrt(2) - 577/408",
    "(1 - sqrt(2)) / 1000000",
    "sqrt(sqrt(2) + sqrt(sqrt(3) + 1)) - sqrt(7)",
)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _uses_signs(law) -> bool:
    return re.search(r"\bs\(|sqrt\(", law.statement) is not None


def _report(law, model, **kwargs):
    fn = check_conditional if isinstance(law, ConditionalEquation) else check_equation
    return fn(law, model, **kwargs).to_dict()


def test_seeded_reports_are_pinned():
    laws = [
        law
        for suite in catalog().sets().values()
        for law in suite
        if isinstance(law, (Equation, ConditionalEquation))
    ]
    laws.extend(KNOWN_FALSE)
    reports = []
    for law in laws:
        for seed in (0, 5):
            reports.append(_report(law, "exact", trials=30, seed=seed))
        if not _uses_signs(law):
            reports.append(_report(law, "fp:5", mode="exhaustive"))
            reports.append(
                _report(law, "fp:13", mode="randomized", trials=50, seed=3)
            )
    assert len(reports) == 152
    assert _digest(reports) == REPORTS_SHA256


def test_propagation_and_complex_reports_are_pinned():
    reports = []
    for kind in ("unit", "zero"):
        for seed in (0, 5):
            for context in (None, parse("sqrt([] + x)")):
                report = check_propagation(
                    kind, trials=40, seed=seed, fixed_context=context
                )
                reports.append(report.to_dict())
    laws = (*catalog().Complex, *catalog().ComplexRestricted, COMPLEX_KNOWN_FALSE)
    for law in laws:
        for seed in (0, 5):
            reports.append(check_complex_law(law, trials=30, seed=seed).to_dict())
    assert len(reports) == 24
    assert sum(r["failure_count"] for r in reports) == 52
    assert _digest(reports) == PROPAGATION_COMPLEX_SHA256


def test_approximations_are_pinned():
    session = Session()
    results = []
    for src in NESTED_RADICALS:
        value = eval_exact(parse(src), {}, session)
        for exponent in (5, 15, 30):
            width = Fraction(1, 10**exponent)
            results.append([str(q) for q in enclose(value, width)])
        for digits in (1, 3, 12, 40):
            results.append(approx_decimal(value, digits))
    assert _digest(results) == APPROX_SHA256
