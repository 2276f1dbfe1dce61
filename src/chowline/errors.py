"""Exception types shared across the package."""


class ChowlineError(Exception):
    """Base class for all errors raised by this package."""


# --- polynomial / symmetric-function kernel ---

class NotSymmetric(ChowlineError):
    """Input polynomial is not invariant under permutations within a root block."""


class ConstantTermNotOne(ChowlineError):
    """Multiplicative series must have constant term 1."""


class UnitPartNotOne(ChowlineError):
    """Graded element is not invertible: its degree-0 part is not 1."""


# --- Chern ring / characteristic classes ---

class UnknownBundle(ChowlineError):
    """Bundle name not declared in the active setup."""


class MalformedVirtualBundle(ChowlineError):
    """Virtual-bundle expression violates a rank constraint (e.g. exterior
    power of a genuinely virtual object, or negative rank)."""


class TruncationTooLow(ChowlineError):
    """The truncation bound is too small for the requested verification."""


class TruncationTooHigh(ChowlineError):
    """The truncation bound, or a tower's dimension, exceeds
    ``chern_ring.TRUNCATION_LIMIT``."""


class SetupTooLarge(ChowlineError):
    """A setup's root monomials up to its truncation outnumber
    ``chern_ring.ROOT_MONOMIAL_LIMIT``."""


# --- towers and families ---

class UnequalBundles(ChowlineError):
    """Symmetry sign is only defined when the two swapped line classes agree."""


class UnsupportedFamily(ChowlineError):
    """Family is outside the scope of the cohomological oracle."""


class WrongBundleCount(ChowlineError):
    """A pairing over a fiber of dimension n takes exactly n+1 line bundles."""


class TowerTooLarge(ChowlineError):
    """A tower's table of monomial normal forms would pass
    ``pushforward.TOWER_TABLE_LIMIT`` entries."""


# --- Picard invariants ---

class ChainNotStabilized(ChowlineError):
    """The supplied finite chain of automorphism groups did not stabilize."""


class NonHomomorphicTranslation(ChowlineError):
    """A translation matrix does not send relations to relations."""


class NotAHomomorphism(ChowlineError):
    """A matrix between group presentations does not define a homomorphism."""


class UnderdeterminedSign(ChowlineError):
    """The chain classes do not generate pi0, so the sign homomorphism is
    not determined by the supplied symmetry data."""


class InvalidSymmetryData(ChowlineError):
    """Supplied symmetry elements admit no homomorphism of order dividing 2."""


# --- expression language ---

class ExprSyntaxError(ChowlineError):
    """Parse error, annotated with a position in the input."""

    def __init__(self, message, line, column):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ValidationError(ChowlineError):
    """Expression is well-formed but invalid against the active setup."""
