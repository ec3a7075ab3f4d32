"""meadows: exact totalized field arithmetic with signs and square roots.

The package is organised in layers; each module imports, at run time, only
from modules listed above it:

- :mod:`meadows.approx` — certified decimal approximation of kernel values.
- :mod:`meadows.finite` — totalized prime fields, sum-of-squares probes, and
  prime scans.
- :mod:`meadows.terms` — term syntax: parsing, printing, substitution,
  contexts, random generation, and evaluation into either model.
- :mod:`meadows.exact` — the value kernel: sessions of adjoined square roots,
  exact arithmetic with totalized inverse (``inv(0) == 0``), sign, and
  comparison, and each value's canonical closed term.
- :mod:`meadows.complexes` — complex pairs over the kernel with totalized
  inverse and real-projected sign and root.
- :mod:`meadows.axioms` — the law catalog and the exhaustive/randomized
  checking engine, including pseudo-unit/zero propagation checks and the
  mod-3 separation argument (``verify_f3_argument``).
- :mod:`meadows.simplify` — closed-term normalization and equality decisions,
  plus a sound rewriting simplifier for open terms.
- :mod:`meadows.cli` — the ``meadows`` command-line entry point.
"""

from .approx import approx_decimal, approx_fraction, enclose
from .axioms import (
    Catalog,
    CheckReport,
    ComplexLaw,
    ConditionalEquation,
    Equation,
    F3Report,
    Failure,
    catalog,
    check_complex_law,
    check_conditional,
    check_equation,
    check_propagation,
    random_value,
    run_suite,
    verify_f3_argument,
)
from .complexes import Complex
from .exact import Real, Session, SessionMismatch, SignValue, TowerInvariantError
from .finite import (
    LagrangeResult,
    NotPrimeError,
    PrimeField,
    ScanResult,
    lagrange_holds,
    primes_upto,
    scan_lagrange,
)
from .simplify import (
    REWRITE_RULES,
    RewriteRule,
    SimplifyResult,
    decide_closed_eq,
    normalize_closed,
    rewrite_simplify,
    sign_of_closed,
    value_to_term,
)
from .terms import (
    HOLE,
    ONE,
    SIGMA_M,
    SIGMA_MS,
    SIGMA_MSS,
    ZERO,
    Add,
    Const,
    EvalError,
    Hole,
    Inv,
    Mul,
    Neg,
    ParseError,
    Sign,
    Sqrt,
    Term,
    UnsupportedSymbolError,
    Var,
    const,
    contains_hole,
    eval_exact,
    eval_mod_p,
    fill,
    free_vars,
    gen_random_context,
    gen_random_term,
    parse,
    render,
    substitute,
    term_size,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # exact kernel
    "Session",
    "Real",
    "SessionMismatch",
    "SignValue",
    "TowerInvariantError",
    # approximation
    "approx_decimal",
    "approx_fraction",
    "enclose",
    # complex extension
    "Complex",
    # finite meadows
    "PrimeField",
    "NotPrimeError",
    "LagrangeResult",
    "lagrange_holds",
    "ScanResult",
    "scan_lagrange",
    "primes_upto",
    "F3Report",
    "verify_f3_argument",
    # terms
    "Term",
    "Const",
    "Var",
    "Add",
    "Mul",
    "Neg",
    "Inv",
    "Sign",
    "Sqrt",
    "Hole",
    "HOLE",
    "ZERO",
    "ONE",
    "const",
    "ParseError",
    "EvalError",
    "UnsupportedSymbolError",
    "parse",
    "render",
    "substitute",
    "fill",
    "free_vars",
    "contains_hole",
    "term_size",
    "eval_exact",
    "eval_mod_p",
    "SIGMA_M",
    "SIGMA_MS",
    "SIGMA_MSS",
    "gen_random_term",
    "gen_random_context",
    # law catalog and checking engine
    "Equation",
    "ConditionalEquation",
    "ComplexLaw",
    "Failure",
    "CheckReport",
    "Catalog",
    "catalog",
    "check_equation",
    "check_conditional",
    "check_complex_law",
    "check_propagation",
    "run_suite",
    "random_value",
    # simplifier
    "value_to_term",
    "normalize_closed",
    "decide_closed_eq",
    "sign_of_closed",
    "RewriteRule",
    "REWRITE_RULES",
    "SimplifyResult",
    "rewrite_simplify",
]
