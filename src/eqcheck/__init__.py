"""eqcheck: a batch checker for equational proofs and refinement-type
signatures over a small, total, first-order functional language."""

__version__ = "0.1.0"

from .checker import CheckConfig, Report, Verdict, check_module
from .parser import ParseError, parse_module, parse_pred, parse_term
from .syntax import SourceModule, pretty, pretty_module
from .types import TypeCheckError, check_refinement_wf, check_types

__all__ = [
    "CheckConfig",
    "ParseError",
    "Report",
    "SourceModule",
    "TypeCheckError",
    "Verdict",
    "check_module",
    "check_refinement_wf",
    "check_types",
    "parse_module",
    "parse_pred",
    "parse_term",
    "pretty",
    "pretty_module",
    "__version__",
]
