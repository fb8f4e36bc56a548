"""posslog: exact possibilistic-logic toolkit.

Weighted propositional bases with rational certainty levels, their
best-out possibility distributions, and a compiler turning a consistent
base into a product-based possibilistic network whose chain-rule
distribution matches the base exactly.
"""

from .compiler import (
    Ordering,
    compile_network,
    compile_stages,
    conditional_possibility,
    cpt_for,
    hidden_parent_closure,
    immediate_parents,
)
from .errors import (
    DomainError,
    GenerationError,
    InconsistentBaseError,
    NetworkSchemaError,
    ParseError,
    PosslogError,
    ResourceCapError,
)
from .io import (
    export_dot,
    parse_base,
    parse_formula,
    parse_network,
    serialize_base,
    serialize_network,
)
from .marginalize import decompose_check, instantiate, marginal_base
from .model import (
    And,
    Clause,
    Const,
    Distribution,
    FALSE,
    Formula,
    Interpretation,
    Literal,
    Not,
    Or,
    TRUE,
    Var,
    WeightedBase,
    as_weight,
    cnf_clauses,
    interpretations,
    negate,
    satisfies,
    unit,
    vars_of,
)
from .network import (
    CPT,
    Network,
    chain_rule_eval,
    check_normalization,
    network_distribution,
)
from .normalize import (
    remove_subsumed,
    remove_tautologies,
    to_clausal,
)
from .oracle import (
    distributions_equal,
    enumerate_distribution,
    random_base,
    verify_compilation,
)
from .semantics import (
    base_of_distribution,
    certainty_degree,
    distribution_of_base,
    inconsistency_degree,
    necessity,
    possibility,
    world_possibility,
)

__version__ = "0.1.0"

__all__ = [
    "And",
    "CPT",
    "Clause",
    "Const",
    "Distribution",
    "DomainError",
    "FALSE",
    "Formula",
    "GenerationError",
    "InconsistentBaseError",
    "Interpretation",
    "Literal",
    "Network",
    "NetworkSchemaError",
    "Not",
    "Or",
    "Ordering",
    "ParseError",
    "PosslogError",
    "ResourceCapError",
    "TRUE",
    "Var",
    "WeightedBase",
    "as_weight",
    "base_of_distribution",
    "certainty_degree",
    "chain_rule_eval",
    "check_normalization",
    "cnf_clauses",
    "compile_network",
    "compile_stages",
    "conditional_possibility",
    "cpt_for",
    "decompose_check",
    "distribution_of_base",
    "distributions_equal",
    "enumerate_distribution",
    "export_dot",
    "hidden_parent_closure",
    "immediate_parents",
    "inconsistency_degree",
    "instantiate",
    "interpretations",
    "marginal_base",
    "necessity",
    "negate",
    "network_distribution",
    "parse_base",
    "parse_formula",
    "parse_network",
    "possibility",
    "random_base",
    "remove_subsumed",
    "remove_tautologies",
    "satisfies",
    "serialize_base",
    "serialize_network",
    "to_clausal",
    "unit",
    "vars_of",
    "verify_compilation",
    "world_possibility",
]
