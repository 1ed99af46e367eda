"""Exception types shared across the package."""


class EmptyDomainError(Exception):
    """A cell of a partial cycle set lost all candidate values."""


class SizeLimitError(Exception):
    """An operation with a hard size guard was called above its limit."""


class MalformedModelError(Exception):
    """A SAT model does not select exactly one value for some matrix cell."""


class ShapeMismatchError(Exception):
    """Size or diagonal of an argument does not match the receiving instance."""


class NotAWitnessError(Exception):
    """Clause construction was asked for a permutation that is not a witness."""


class NotPropagatingError(Exception):
    """A propagation clause would not be unit under the inducing assignment."""


class BudgetOnCompleteCheckError(Exception):
    """A search budget was supplied for a complete-input minimality check."""


class PropagatorContractViolation(Exception):
    """A hook returned a clause that is neither falsified nor unit."""


class DatabaseParseError(Exception):
    """A solution database line is malformed."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number
