"""Exception types raised by the library.

Everything derives from CoopstoreError so callers can catch broadly.  The
CLI exits 2 on a ConfigError (the parameters, field or eavesdropper model
asked for are unusable), 1 on any other CoopstoreError (corrupt data or a
broken invariant), and 1 when a verification fails without raising.
"""


class CoopstoreError(Exception):
    """Base class for all library errors."""


class ConfigError(CoopstoreError):
    """The requested configuration is unusable; the CLI exits 2."""


# --- field / matrix construction ---------------------------------------


class NonPrimeModulus(ConfigError):
    pass


class ReduciblePolynomial(ConfigError):
    pass


class FieldTooSmall(ConfigError):
    pass


class FieldKindUnsupported(ConfigError):
    pass


class DuplicatePoint(CoopstoreError):
    pass


class DependentPoints(CoopstoreError):
    pass


class Singular(CoopstoreError):
    """Matrix rank < dimension where an inverse/solution was required."""


class DimensionMismatch(CoopstoreError):
    pass


# --- codes and repair ----------------------------------------------------


class SelfRepair(CoopstoreError):
    pass


class InvalidContext(CoopstoreError):
    pass


class MissingShard(CoopstoreError):
    pass


class DuplicateNode(CoopstoreError):
    pass


class TooFewShards(CoopstoreError):
    pass


class InvalidGroup(CoopstoreError):
    pass


class NotGenerator(ConfigError):
    pass


class InadmissibleOmega(ConfigError):
    """The diagonal-code admissibility condition on omega fails."""

    def __init__(self, message, condition_value=None):
        super().__init__(message)
        self.condition_value = condition_value


class SingularLeakageMatrix(CoopstoreError):
    pass


class ParameterTooSmall(ConfigError):
    pass


# --- eavesdropper / analysis ----------------------------------------------


class InvalidEveModel(ConfigError):
    pass


class InvalidL(ConfigError):
    pass


class LemmaViolation(CoopstoreError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InstanceTooLarge(CoopstoreError):
    pass


class NonIntegralParams(ConfigError):
    pass


# --- secure precoding ------------------------------------------------------


class NotCoveredRegime(ConfigError):
    pass


class LengthMismatch(CoopstoreError):
    pass


# --- CLI / persistence -------------------------------------------------------


class InvalidConfig(ConfigError):
    pass


class IoError(CoopstoreError):
    pass


class CorruptShard(CoopstoreError):
    pass
