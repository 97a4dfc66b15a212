"""Decision procedures for da Costa's paraconsistent calculi C_n and the
LFIs mbCcl and Cila, over restricted non-deterministic matrix semantics.

Two independent engines answer entailment questions: row-branching truth
tables (`truthtable.decide`, `truthtable.build_table`) and labelled tableaux
(`tableau.prove`).  They share the formula representation and `algebra`'s
tables and row restriction, but no search, so their agreement is a
meaningful cross-check; `tests/oracle.py` and `check_bivaluation` check the
semantics apart from `algebra`'s restriction.
"""

from .algebra import (boolean_values, designated, domain_size, inconsistent,
                      mult_op, render_tables, snapshots, tables, tables_json,
                      value_names)
from .axioms import Schema, instantiate, random_instance, schema_by_name, schemata
from .bivaluation import (Violation, bivaluation_from_json, bivaluation_to_json,
                          bivaluation_to_valuation, check_bivaluation, closure,
                          valuation_to_bivaluation)
from .errors import (DacostaError, DomainError, ExtensionError, ParseError,
                     ResourceLimitError)
from .formula import (CILA, MBCCL, And, C, Cons, Formula, Imp, Logic, Neg, Or,
                      Var, complexity, contradiction_base, is_pow1,
                      ordered_subformulas, parse, parse_logic, postorder,
                      pow, pow_decompose, powseq, random_formula, strong_neg)
from .tableau import (Branch, Node, ProveResult, SignedFormula, Tableau,
                      expand, expand_derived, extract_countermodel,
                      fold_premises, prove, tableau_to_json, tableau_to_text)
from .truthtable import (DecisionResult, Row, Table, Valuation, build_table,
                         check_valuation, decide, extend_partial, render_table,
                         table_verdict)

__version__ = "0.1.0"

__all__ = [
    "And", "Branch", "C", "CILA", "DacostaError", "DecisionResult",
    "DomainError", "ExtensionError", "Formula", "Imp", "Logic", "MBCCL",
    "Neg", "Node", "Or", "ParseError", "ProveResult", "ResourceLimitError",
    "Row", "Schema", "SignedFormula", "Table", "Tableau", "Valuation",
    "Var", "Violation", "bivaluation_from_json", "bivaluation_to_json",
    "bivaluation_to_valuation", "boolean_values", "build_table",
    "check_bivaluation", "check_valuation", "closure", "complexity", "Cons",
    "contradiction_base", "decide", "designated", "domain_size", "expand",
    "expand_derived", "extend_partial", "extract_countermodel",
    "fold_premises", "inconsistent", "instantiate", "is_pow1", "mult_op",
    "ordered_subformulas", "parse", "parse_logic", "postorder", "pow",
    "pow_decompose",
    "powseq", "prove", "random_formula", "random_instance", "render_table",
    "render_tables", "schema_by_name", "schemata", "snapshots",
    "strong_neg", "table_verdict", "tableau_to_json", "tableau_to_text",
    "tables", "tables_json", "valuation_to_bivaluation", "value_names",
]
