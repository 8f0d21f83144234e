"""Exception types shared across the package.

Every error carries enough structure (names, indices, witness tuples) for a
caller to print a useful diagnostic without re-deriving anything.
"""


class FinsiteError(Exception):
    """Base class for all errors raised by this package."""


class CategoryLawError(FinsiteError):
    """A composition table violates one of the category laws."""

    law = "CategoryLaw"

    def __init__(self, message, witnesses=()):
        super().__init__(message)
        self.witnesses = tuple(witnesses)


class MissingIdentity(CategoryLawError):
    law = "MissingIdentity"


class UndefinedComposite(CategoryLawError):
    law = "UndefinedComposite"


class NonAssociative(CategoryLawError):
    law = "NonAssociative"


class TypeMismatch(CategoryLawError):
    law = "TypeMismatch"


class IdentityLawViolation(CategoryLawError):
    law = "IdentityLawViolation"


class UnknownObject(FinsiteError):
    pass


class UnknownName(FinsiteError):
    pass


class CodomainMismatch(FinsiteError):
    """A family of arrows meant to share a codomain does not."""


class InvalidSubcategory(FinsiteError):
    """Object/morphism selection is not identity- and composition-closed."""


class SizeBoundExceeded(FinsiteError):
    """An enumeration would exceed the configured candidate bound."""

    def __init__(self, message, required, bound):
        super().__init__(message)
        self.required = required
        self.bound = bound


class RightOreFails(FinsiteError):
    """Counterexample cospan for the right Ore condition."""

    def __init__(self, message, cospan):
        super().__init__(message)
        self.cospan = cospan


class TopologyAxiomViolation(FinsiteError):
    """A covering assignment fails one of the topology axioms."""

    def __init__(self, message, axiom, witness):
        super().__init__(message)
        self.axiom = axiom
        self.witness = witness


class NotASheaf(FinsiteError):
    pass


class WrongTopology(FinsiteError):
    pass


class NotDense(FinsiteError):
    pass


class PresheafLawError(FinsiteError):
    """Value tables do not form a contravariant functor."""


class ParseError(FinsiteError):
    """A site file is malformed (I/O, JSON, or schema level)."""
