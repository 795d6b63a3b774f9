"""Hierarchical secure aggregation over a cyclic user-relay association.

K users upload masked inputs to B consecutive relays each (wrapping past
K); relays forward sums; the server recovers the total input sum and
learns nothing else, while relays learn nothing at all.  The package
builds the message and key designs for any (K, B), runs rounds, measures
rates against the achievable corner and the converse bounds, and audits
the security claims algebraically and, at toy sizes, by exact exhaustive
enumeration.
"""

from .audit import (
    AuditReport,
    StateSpaceError,
    algebraic_audit,
    exhaustive_mi_audit,
    exhaustive_recovery_audit,
    full_audit,
    golden_example1,
    relay_security_algebraic,
    server_security_algebraic,
)
from .code_design import CodeDesign, build_code_design
from .gf import (
    DuplicatePointsError,
    Matrix,
    PrimeField,
    SingularMatrixError,
    is_prime,
    vandermonde,
)
from .key_design import (
    CheckResult,
    ConstructionError,
    KeyDesign,
    build_keys,
    select_field,
    sufficient_field_size,
    validate_scheme,
)
from .protocol import (
    MissingMessageError,
    RoundResult,
    SchemeParams,
    SizeMismatchError,
    Transcript,
    build_scheme,
    derive_keys,
    direct_sum,
    random_inputs,
    relay_encode,
    run_round,
    run_rounds,
    sample_source_key,
    server_decode,
    user_encode,
)
from .rates import RateTuple, achievable_rates, converse_bounds, measured_rates
from .topology import InvalidIndexError, Topology, relays_of_user, users_of_relay

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "CheckResult",
    "CodeDesign",
    "ConstructionError",
    "DuplicatePointsError",
    "InvalidIndexError",
    "KeyDesign",
    "Matrix",
    "MissingMessageError",
    "PrimeField",
    "RateTuple",
    "RoundResult",
    "SchemeParams",
    "SingularMatrixError",
    "SizeMismatchError",
    "StateSpaceError",
    "Topology",
    "Transcript",
    "achievable_rates",
    "algebraic_audit",
    "build_code_design",
    "build_keys",
    "build_scheme",
    "converse_bounds",
    "derive_keys",
    "direct_sum",
    "exhaustive_mi_audit",
    "exhaustive_recovery_audit",
    "full_audit",
    "golden_example1",
    "is_prime",
    "measured_rates",
    "random_inputs",
    "relay_encode",
    "relay_security_algebraic",
    "relays_of_user",
    "run_round",
    "run_rounds",
    "sample_source_key",
    "select_field",
    "server_decode",
    "server_security_algebraic",
    "sufficient_field_size",
    "user_encode",
    "users_of_relay",
    "validate_scheme",
    "vandermonde",
]
