"""Exception types shared across the package, and the one deadline check."""

import time
from typing import Optional


class VbridgeError(Exception):
    """Base class for all library errors."""


class GaussCodeError(VbridgeError, ValueError):
    """Invalid Gauss-code input."""


class EmptyInputError(GaussCodeError):
    """The code contains no components at all."""


class GaussSyntaxError(GaussCodeError):
    """The code does not match the token grammar."""


class UnbalancedChordError(GaussCodeError):
    """A chord label does not occur exactly once as O and once as U."""


class SignMismatchError(GaussCodeError):
    """The two passages of one chord carry different signs."""


class NotAKnotError(VbridgeError, ValueError):
    """Operation is defined only for one-component diagrams."""


def require_knot(d, what: str) -> None:
    """Raise NotAKnotError unless ``d`` has one component; ``what`` names the operation."""
    if d.n_components != 1:
        raise NotAKnotError(f"{what} is defined for knot diagrams")


class CutSplitError(VbridgeError, ValueError):
    """Operation is defined only for diagrams that are not cut-split."""


class SearchExhaustedError(VbridgeError, RuntimeError):
    """Seed-set search hit the requested size cap without success."""


class SearchTimeoutError(VbridgeError, RuntimeError):
    """An analysis passed its deadline; raised by check_deadline only."""


def check_deadline(deadline: Optional[float], where: str) -> None:
    """Raise SearchTimeoutError once ``time.perf_counter()`` reaches
    ``deadline``, an absolute ``perf_counter`` value; None means no limit.
    ``where`` ends the message, e.g. "during the elementary-ideal bound"."""
    if deadline is not None and time.perf_counter() >= deadline:
        raise SearchTimeoutError(f"time limit reached {where}")


class InvariantError(VbridgeError, RuntimeError):
    """A record breaks max(ideal_lb, parity_lb) <= omega <= vb or |X| <= count <= |X|^omega."""


class QuandleAxiomError(VbridgeError, ValueError):
    """Operation table fails a quandle axiom; ``witness`` pins the failure."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotIdempotentError(QuandleAxiomError):
    pass


class NotRightInvertibleError(QuandleAxiomError):
    pass


class NotDistributiveError(QuandleAxiomError):
    pass


class NotOneOverbridgeError(VbridgeError, ValueError):
    """Diagram does not have exactly one tail-bearing strand."""
