"""Exception hierarchy shared by all semilat modules."""


class SemilatError(Exception):
    """Base class for every error raised by this package."""


class PosetConstructionError(SemilatError):
    """Bad poset input: duplicate/empty elements, unknown cover endpoints,
    cycles, or cover edges that are not actual covers."""


class UnknownElementError(SemilatError):
    """An element name does not belong to the poset."""


class NotAChainError(SemilatError):
    """A value is not a strictly increasing sequence of elements."""


class MissingBoundsError(SemilatError):
    """The poset lacks the bottom or top element the operation needs."""


class NoJoinError(SemilatError):
    """A pair has no least upper bound (none exists, or several minimal ones)."""


class NotJoinSemilatticeError(SemilatError):
    """Some pair of elements has no join."""

    def __init__(self, pair):
        self.pair = pair
        super().__init__(f"not a join semilattice: no join for pair {pair}")


class NotSemimodularError(SemilatError):
    """The semimodularity law fails; carries the violating triple (a, b, c)."""

    def __init__(self, counterexample):
        self.counterexample = counterexample
        a, b, c = counterexample
        super().__init__(
            f"not semimodular: {a} ⋖ {b} but join({a},{c}) is neither equal to "
            f"nor covered by join({b},{c})"
        )


class NotMaximalChainError(SemilatError):
    """A chain is not a bottom-to-top cover path."""


class ChainLengthMismatchError(SemilatError):
    """Two supposedly maximal chains have different lengths."""


class NotPrimeIntervalError(SemilatError):
    """An interval [a, b] was required to be prime (a covered by b)."""


class PreconditionError(SemilatError):
    """A stated operation precondition does not hold for the given arguments."""


class SizeLimitError(SemilatError):
    """Input exceeds the hard size guard of the operation."""


class GroupValidationError(SemilatError):
    """A Cayley table fails the group axioms or its encoding conventions."""


class UnknownNameError(SemilatError):
    """No builtin object is registered under the requested name."""


class InternalInvariantError(SemilatError):
    """A structural fact the algorithms are entitled to rely on failed to
    hold.  This signals a bug (or a falsified theorem), never bad input."""
