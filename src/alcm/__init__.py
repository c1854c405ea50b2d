"""Consistency reasoning and inference for the description logic ALCM.

ALCM extends ALC with meta-modelling axioms `a =m A` equating an individual
with an atomic concept; models live in well-founded nested-set domains.
The package provides:

- an and-or graph tableau engine with global caching (`alcm.engine`),
- a naive backtracking tableau used as a differential oracle (`alcm.oracle`),
- model extraction into nested-set interpretations (`alcm.extraction`),
- a ground-truth finite-model evaluator (`alcm.semantics`),
- entailment services reduced to consistency (`alcm.inference`),
- a reader/printer for the .alcm text format (`alcm.parser`),
- the `alcm` command-line tool (`alcm.cli`).
"""

from .engine import (
    BudgetExceededError,
    Consistent,
    Inconsistent,
    build_graph,
    check_consistency,
)
from .extraction import check_saturated, extract_model, unfold_sets
from .inference import (
    entails,
    entails_equality,
    entails_inequality,
    entails_instance,
    entails_metamodelling,
    entails_subsumption,
    is_meta_concept,
)
from .parser import ParseError, parse_concept, parse_kb, print_kb
from .semantics import Interpretation, extension, satisfies_kb
from .syntax import KnowledgeBase, nnf, subconcepts

__all__ = [
    "BudgetExceededError",
    "Consistent",
    "Inconsistent",
    "Interpretation",
    "KnowledgeBase",
    "ParseError",
    "build_graph",
    "check_consistency",
    "check_saturated",
    "entails",
    "entails_equality",
    "entails_inequality",
    "entails_instance",
    "entails_metamodelling",
    "entails_subsumption",
    "extension",
    "extract_model",
    "is_meta_concept",
    "nnf",
    "parse_concept",
    "parse_kb",
    "print_kb",
    "satisfies_kb",
    "subconcepts",
    "unfold_sets",
]

__version__ = "0.1.0"
