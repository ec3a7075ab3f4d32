"""meadows: exact totalized field arithmetic with signs and square roots.

The package is organised in layers; each module imports, at run time, only
from modules listed above it, and names its public objects in ``__all__``,
which the package re-exports:

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

from .approx import *
from .finite import *
from .terms import *
from .exact import *
from .complexes import *
from .axioms import *
from .simplify import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *approx.__all__,
    *finite.__all__,
    *terms.__all__,
    *exact.__all__,
    *complexes.__all__,
    *axioms.__all__,
    *simplify.__all__,
]
