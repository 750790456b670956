"""Exception types shared across the package.

Everything raised on purpose derives from RoughFsmError, so callers can
catch the library's failures with one except clause. Verdict-style results
(a check that ran fine and found a counterexample) are not errors and are
returned as values instead.
"""


class RoughFsmError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateState(RoughFsmError):
    """A state name occurs more than once in a state list."""


class NonPartition(RoughFsmError):
    """The given cells do not partition the state set."""


class UnknownState(RoughFsmError):
    """A state is not part of the approximation space at hand."""


class UnknownSymbol(RoughFsmError):
    """A symbol is not part of the machine's input alphabet."""


class MismatchedSpace(RoughFsmError):
    """Two values that must share an approximation space do not."""


class TotalityError(RoughFsmError):
    """A map required to be total is missing entries, or maps outside its codomain."""


class NotOnto(RoughFsmError):
    """A state map required to be surjective is not."""


class BudgetExceeded(RoughFsmError):
    """An enumeration would exceed its configured size budget."""

    def __init__(self, size, budget, what="search space"):
        self.size = size
        self.budget = budget
        super().__init__(f"{what} has {size} candidates, budget is {budget}")


class BadDepth(RoughFsmError):
    """A word depth below zero was asked for."""


class NameCollision(RoughFsmError):
    """Distinct states or input symbols print to the same name."""


class AlphabetMismatch(RoughFsmError):
    """Two machines that must share an input alphabet do not."""


class ShapeMismatch(RoughFsmError):
    """Function symbols over different domains were combined."""


class BridgeTotalityError(TotalityError):
    """An input bridge does not decode every carrier symbol."""


class WiringTotalityError(TotalityError):
    """A cascade wiring is missing a (state, symbol) entry."""


class PreconditionFailed(RoughFsmError):
    """A claimed hypothesis (for instance, that a pair is a covering) does not hold."""


class ParseError(RoughFsmError):
    """A machine (or map) document is syntactically malformed.

    Carries the 1-based line and column of the offending token.
    """

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where = f" ({where})"
        super().__init__(f"{message}{where}")


class SemanticError(RoughFsmError):
    """A document parsed but does not describe a well-formed machine.

    `violations` lists the individual problems when there are several.
    """

    def __init__(self, message, violations=()):
        self.violations = tuple(violations)
        if self.violations:
            details = "; ".join(str(v) for v in self.violations)
            message = f"{message}: {details}"
        super().__init__(message)


class NonDefinableEntry(SemanticError):
    """A transition entry's state list is not a union of blocks."""
