"""NetKAT: syntax, semantics, and a flow-table compiler.

This subpackage is the static-language substrate of the reproduction: it
implements the NetKAT fragment the paper builds on (Anderson et al.,
POPL'14) with an FDD-based compiler in the style of "A Fast Compiler for
NetKAT" (Smolka et al., ICFP'15).
"""

from .ast import (
    Assign,
    Conj,
    Disj,
    DROP,
    Dup,
    FALSE,
    Filter,
    ID,
    Link,
    Neg,
    PFalse,
    PTrue,
    Policy,
    Predicate,
    Seq,
    Star,
    Test,
    TRUE,
    Union,
    assign,
    at_location,
    conj,
    disj,
    filter_,
    link,
    neg,
    seq,
    star,
    test,
    union,
)
from .compiler import (
    Alternation,
    CompileError,
    Configuration,
    alternations,
    compile_policy,
    link_free,
    strip_dup,
)
from .fdd import FDD, FDDBuilder, FieldOrder
from .flowtable import FlowTable, Match, PrefixMatch, Rule, table_of_fdd
from .packet import History, LocatedPacket, Location, Packet, PT, SW
from .parser import ParseError, parse_policy, parse_predicate
from .pretty import pretty_policy, pretty_predicate
from .semantics import eval_packet, eval_policy, eval_predicate

__all__ = [
    # packets
    "Packet",
    "LocatedPacket",
    "Location",
    "History",
    "SW",
    "PT",
    # ast
    "Predicate",
    "Policy",
    "Test",
    "Neg",
    "Conj",
    "Disj",
    "PTrue",
    "PFalse",
    "Filter",
    "Assign",
    "Union",
    "Seq",
    "Star",
    "Dup",
    "Link",
    "TRUE",
    "FALSE",
    "ID",
    "DROP",
    "test",
    "neg",
    "conj",
    "disj",
    "filter_",
    "assign",
    "union",
    "seq",
    "star",
    "link",
    "at_location",
    # semantics
    "eval_predicate",
    "eval_policy",
    "eval_packet",
    # fdd + tables
    "FDD",
    "FDDBuilder",
    "FieldOrder",
    "FlowTable",
    "Match",
    "PrefixMatch",
    "Rule",
    "table_of_fdd",
    # compiler
    "CompileError",
    "ParseError",
    "parse_policy",
    "parse_predicate",
    "pretty_policy",
    "pretty_predicate",
    "Configuration",
    "Alternation",
    "alternations",
    "compile_policy",
    "link_free",
    "strip_dup",
]
