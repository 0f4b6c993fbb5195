"""Cooperative regenerating storage codes with exact secrecy verification.

Build a stable code, measure what an eavesdropper learns, and verify the
closed-form secrecy capacity by exact rank computation:

    from coopstore.instances import s1
    from coopstore.eve import EveModel, measured_secrecy_capacity

    code = s1()
    measured_secrecy_capacity(code, EveModel(F=(1,)))   # -> 2
"""

from .entropy import (
    ObservationSet,
    brute_force_entropy,
    conditional_entropy,
    entropy_symbols,
    mutual_information,
    observations,
)
from .eve import (
    NOT_COVERED,
    EveModel,
    bandwidth_comparison,
    capacity_table,
    leakage_observations,
    lemma_suite,
    measured_secrecy_capacity,
    predicted_secrecy_capacity,
    specific_verifications,
)
from .field import FieldSpec, binary_field, field_create, prime_field
from .legacy import (
    CodeB,
    code_a_attack,
    code_a_encode,
    code_a_init,
    code_a_repair_functionals,
    code_b_attack,
    code_b_repair_data,
)
from .matrix import Mat, moore_matrix, systematic_superregular, vandermonde
from .secure import (
    SecureScheme,
    decode_secret,
    encode_secure,
    precode,
    scheme_create,
    verify_secrecy,
)
from .stable import (
    CodeParams,
    RepairContext,
    ShardVector,
    StableCode,
    repair_context,
    stability_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "CodeB",
    "CodeParams",
    "EveModel",
    "FieldSpec",
    "Mat",
    "NOT_COVERED",
    "ObservationSet",
    "RepairContext",
    "SecureScheme",
    "ShardVector",
    "StableCode",
    "bandwidth_comparison",
    "binary_field",
    "brute_force_entropy",
    "capacity_table",
    "code_a_attack",
    "code_a_encode",
    "code_a_init",
    "code_a_repair_functionals",
    "code_b_attack",
    "code_b_repair_data",
    "conditional_entropy",
    "decode_secret",
    "encode_secure",
    "entropy_symbols",
    "field_create",
    "leakage_observations",
    "lemma_suite",
    "measured_secrecy_capacity",
    "moore_matrix",
    "mutual_information",
    "observations",
    "precode",
    "predicted_secrecy_capacity",
    "prime_field",
    "repair_context",
    "scheme_create",
    "specific_verifications",
    "stability_certificate",
    "systematic_superregular",
    "vandermonde",
    "verify_secrecy",
]
