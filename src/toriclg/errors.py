"""Exception types shared across the package."""


class ToricLGError(Exception):
    pass


class VerificationFailed(ToricLGError):
    """An internal cross-check of a computed result failed: the input was
    valid, the program's answer is not (the CLI exits 1, not 2)."""


# fan validation
class NonSimplicial(ToricLGError):
    pass


class SupportMismatch(ToricLGError):
    pass


class NoConvexSupportFunction(ToricLGError):
    pass


class RayNotInS(ToricLGError):
    pass


class OutsideSupport(ToricLGError):
    pass


class VolumeBoxMismatch(VerificationFailed):
    pass


# secondary fan
class TooLarge(ToricLGError):
    pass


class NotAdjacent(ToricLGError):
    pass


# LG model
class IncompleteCount(ToricLGError):
    pass


class NotPositiveReal(ToricLGError):
    pass


class DegenerateCritical(ToricLGError):
    pass


class LostBranch(ToricLGError):
    pass


# cohomology / K-theory
class NotSmooth(ToricLGError):
    pass


class NotComplete(ToricLGError):
    pass


class NonIntegral(ToricLGError):
    pass


class MismatchWithHRR(VerificationFailed):
    pass


class RankMismatch(ToricLGError):
    pass


class RelationFails(VerificationFailed):
    pass


# mutation
class NotSemiorthogonal(ToricLGError):
    pass


class IndexOutOfRange(ToricLGError):
    pass


class SimultaneousCrossing(ToricLGError):
    pass


class NonAdmissibleEndpoint(ToricLGError):
    pass


# GKZ
class NotInMoriCone(ToricLGError):
    pass


class NotWeakFano(ToricLGError):
    pass


# CLI / scenarios
class ScenarioError(ToricLGError):
    pass
