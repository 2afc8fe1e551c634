"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class OrdtopError(Exception):
    """Base class for every error this package raises deliberately."""


class DuplicateLabelError(OrdtopError):
    def __init__(self, label: str):
        super().__init__(f"duplicate element label {label!r}")
        self.label = label


class UnknownLabelError(OrdtopError):
    def __init__(self, label: str):
        super().__init__(f"unknown element label {label!r}")
        self.label = label


class EmptyUniverseError(OrdtopError):
    def __init__(self) -> None:
        super().__init__("ground set must be nonempty")


class NotReflexiveError(OrdtopError):
    def __init__(self, label: str):
        super().__init__(f"relation is not reflexive at {label!r}")
        self.label = label


class NotTransitiveError(OrdtopError):
    def __init__(self, triple: tuple[str, str, str]):
        a, b, c = triple
        super().__init__(
            f"relation is not transitive: {a!r} <= {b!r} <= {c!r} but not {a!r} <= {c!r}"
        )
        self.triple = triple


class NotTotalError(OrdtopError):
    def __init__(self, pair: tuple[str, str]):
        super().__init__(f"preorder is not total: {pair[0]!r} and {pair[1]!r} are incomparable")
        self.pair = pair


class InconsistentForcingError(OrdtopError):
    def __init__(self, pair: tuple[str, str], reason: str):
        super().__init__(f"cannot force {pair[0]!r} strictly below {pair[1]!r}: {reason}")
        self.pair = pair
        self.reason = reason


class EmptySetError(OrdtopError):
    def __init__(self, what: str = "set"):
        super().__init__(f"{what} must be nonempty")


class TooLargeError(OrdtopError):
    def __init__(self, limit: int, actual: int, what: str = "ground set"):
        super().__init__(f"{what} has {actual} elements; this operation is capped at {limit}")
        self.limit = limit
        self.actual = actual


class OutOfBoundsError(OrdtopError):
    def __init__(self, mask: int, ground_size: int):
        super().__init__(
            f"element-set mask {mask:#x} has bits outside the {ground_size}-element ground set"
        )
        self.mask = mask
        self.ground_size = ground_size


class GroundMismatchError(OrdtopError):
    def __init__(self, left: int, right: int):
        super().__init__(f"ground sizes differ: {left} vs {right}")
        self.left = left
        self.right = right


class NotATopologyError(OrdtopError):
    """Neighbourhood rows that are not a preorder, or a family that is not a topology."""

    def __init__(self, reason: str):
        super().__init__(f"not a topology: {reason}")
        self.reason = reason


class EmptySubspaceError(OrdtopError):
    def __init__(self) -> None:
        super().__init__("subspace carrier must be nonempty")


class DomainMismatchError(OrdtopError):
    def __init__(self, detail: str):
        super().__init__(f"function domain does not match: {detail}")
        self.detail = detail


class EmptyFamilyError(OrdtopError):
    def __init__(self) -> None:
        super().__init__("function family must have at least one member")


class NotLscPreorderError(OrdtopError):
    """The preorder is not lower semicontinuous in the given topology."""

    def __init__(self, element: str, contour: int):
        super().__init__(f"weak lower contour of {element!r} is not closed")
        self.element = element
        self.contour = contour


class PremiseFailedError(OrdtopError):
    def __init__(self, reason: str, witness: object = None):
        super().__init__(f"checker premise failed: {reason}")
        self.reason = reason
        self.witness = witness


class RefinementViolatedError(OrdtopError):
    def __init__(self, pair: tuple[str, str]):
        super().__init__(
            f"refinement violated: {pair[0]!r} <= {pair[1]!r} holds in the coarse "
            f"preorder but not in the fine one"
        )
        self.pair = pair


class InstanceSyntaxError(OrdtopError):
    def __init__(self, line: int, message: str):
        super().__init__(f"syntax error at line {line}: {message}")
        self.line = line


class InstanceValidationError(OrdtopError):
    def __init__(self, path: str, reason: str):
        super().__init__(f"invalid instance at {path}: {reason}")
        self.path = path
        self.reason = reason
