"""variety-forge: computing with Poisson-type nonassociative algebra varieties.

Modules: scalar (exact Q and Q(d) arithmetic), terms (canonical monomials and
elements), exprs (identity expression parsing/printing), linalg (sparse exact
row reduction), engine (per-arity monomial contexts and T-ideal consequence
spaces), algebras (structure-constant evaluation), operads (Koszul duals and
Hilbert series), catalog (every named identity, variety and example algebra),
cli.
"""

from .algebras import (Algebra, AlgebraError, CheckReport, load_algebra,
                       merge_polarization, split_polarization, tensor)
from .catalog import algebra, identity, presentation, variety
from .engine import (ArityOverflowError, ConsequenceSpace, EngineError,
                     Variety, consequences, depolarize_variety,
                     dim_multilinear, equivalent, is_consequence,
                     load_variety)
from .exprs import format_element, parse_expr, parse_scalar
from .linalg import RowBasis, nullspace
from .operads import (FreeBasisReport, KoszulVerdict, Series, compose,
                      free_delta_p_basis, hilbert_series, koszul_dual,
                      koszulness_witness)
from .scalar import DELTA, PoleError, RationalFunction
from .terms import (BRACKET, DOT, Element, Monomial, OpSymbol, Permutation,
                    act, depolarize_expr, multilinearize, multiply_by_var,
                    normalize, polarize_expr, substitute)

__version__ = "0.1.0"
