"""Exception hierarchy.

Every domain failure raises a subclass of KnotDeformError so the CLI can
map them uniformly to exit code 1.  Usage problems are handled separately
by the argument parser (exit code 64).
"""


class KnotDeformError(Exception):
    """Base class for all domain errors raised by this package."""


# --- coefficient rings ---

class CharacteristicTwo(KnotDeformError):
    """p = 2 is outside the theory (2 must be a unit everywhere)."""


class NotPrime(KnotDeformError):
    pass


class InvalidModulus(KnotDeformError):
    """Truncation exponent M must be >= 1."""


class NotLocalRing(KnotDeformError):
    """residue() is only defined on rings with a nontrivial maximal ideal."""


class RingMismatch(KnotDeformError):
    """Arithmetic between elements of different rings."""


class MalformedValue(KnotDeformError):
    """A value string that its ring cannot read exactly, such as an h-power
    at or above the truncation order."""


class NotAField(KnotDeformError):
    pass


class NotIntegralDomain(KnotDeformError):
    pass


class InfiniteRing(KnotDeformError):
    """Element enumeration requested on an infinite ring."""


# --- polynomials ---

class VarnameMismatch(KnotDeformError):
    pass


class NotSymmetrizable(KnotDeformError):
    """No power of t makes the Laurent polynomial invariant under t -> 1/t."""


class ConstantPolynomial(KnotDeformError):
    pass


class NonUnitLaurentBase(KnotDeformError):
    """t must evaluate to a unit so negative powers make sense."""


# --- truncated power series ---

class VarMismatch(KnotDeformError):
    pass


class NonUnitConstantTerm(KnotDeformError):
    pass


class NoSquareRootOfConstant(KnotDeformError):
    pass


class NotDivisible(KnotDeformError):
    pass


class NotAResidualRoot(KnotDeformError):
    pass


class NonSimpleRoot(KnotDeformError):
    pass


class IterationLimit(KnotDeformError):
    """An iteration cap was hit that is unreachable for valid inputs."""


# --- knots, words, matrices ---

class InvalidKnot(KnotDeformError):
    pass


class NotUnimodular(KnotDeformError):
    """Matrix determinant is not 1 (to the checkable precision)."""


class WordSyntaxError(KnotDeformError):
    pass


class WordTooLong(KnotDeformError):
    """A word is longer than trace reduction takes (MAX_TRACE_LETTERS)."""


class BatteryTooLarge(KnotDeformError):
    """A verify-all input is past its cap (cli.MAX_BATTERY_M or
    cli.MAX_BATTERY_PRIME)."""


class MalformedTable(KnotDeformError):
    """A stored pseudo-representation table is not a valid table file."""


# --- Riley pipeline ---

class BadCharacteristic(KnotDeformError):
    """p = 2 or p divides the discriminant of the residual polynomial."""


class PrimeTooLarge(KnotDeformError):
    """Root scans need p <= 10**4; primality is decided for n < 3.3 * 10^24."""


class NotARepresentation(KnotDeformError):
    pass


class NoConjugator(KnotDeformError):
    pass


class NotIrreducible(KnotDeformError):
    pass


# --- deformations ---

class NonUnitU(KnotDeformError):
    """The lifted series must be a unit; beta = 0 is rejected upstream."""


class NotInMaximalIdeal(KnotDeformError):
    pass


class PrecisionTooLow(KnotDeformError):
    """A requested series precision is below the minimum a construction needs."""


class PrecisionTooLarge(KnotDeformError):
    """A deform precision is past its cap (cli.MAX_DEFORM_PREC or
    cli.MAX_RAMIFIED_PREC)."""
