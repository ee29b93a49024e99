"""tatecalc: exact computer algebra for the Tate rings of circle actions.

Core surfaces:

* laurent / multipoly / basis -- the exact coefficient tower: Laurent
  polynomials (every series the engine builds runs over them, renorm's
  Q[x,y] by Kronecker substitution, and they carry the symbolic binomials),
  Q[x,...] polynomials for the evaluator's series mode, and one integer-basis implementation whose two
  subclasses are the divided powers and the numerical polynomials; plus
  RationalFunction, the num/(d*beta^m) form in which the q-integrality
  report prints a Laurent coefficient; it lives in multipoly because the
  benchmark's tracer looks it up there by name.
* series -- truncated Laurent-tailed series with exp/log/inverse/division over
  pluggable rings, plus Bernoulli numbers.
* tate_h / tate_k -- the two Tate rings, their boundary/quotient splittings,
  and the machine-checked identities.
* renorm / expansions -- change-of-scale ratio series over Q[x,y] and the puncture
  expansion homomorphisms with Adams operations.
* cli -- `tatecalc eval|verify|expand|report`.
"""

from .basis import DividedPowerElem, NotIntegral, NumericalPoly, to_binomial_basis
from .errors import TateCalcError
from .laurent import LaurentPoly
from .multipoly import MultiPoly, RationalFunction
from .series import QQ, ZZ, Ring, TruncSeries, bernoulli_minus, bernoulli_number
from .tate_k import TateKElem

__version__ = "0.1.0"

__all__ = [
    "DividedPowerElem",
    "LaurentPoly",
    "MultiPoly",
    "NotIntegral",
    "NumericalPoly",
    "QQ",
    "Ring",
    "RationalFunction",
    "TateCalcError",
    "TateKElem",
    "TruncSeries",
    "ZZ",
    "bernoulli_minus",
    "bernoulli_number",
    "to_binomial_basis",
    "__version__",
]
