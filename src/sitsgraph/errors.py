"""Exception and warning types shared across the package.

Data errors derive from ``SitsGraphError`` so the CLI can map them to a
single exit code; misuse of an API (bad argument combinations) raises the
specific subclass named after the violated precondition.
"""


class SitsGraphError(Exception):
    """Base class for all data/contract errors raised by this package."""


# -- datacube ---------------------------------------------------------------

class MissingFile(SitsGraphError):
    pass


class ShapeMismatch(SitsGraphError):
    pass


class NonMonotonicTimestamps(SitsGraphError):
    pass


class UnknownBand(SitsGraphError):
    pass


class InvalidSpec(SitsGraphError):
    pass


class InvalidCube(SitsGraphError):
    pass


# -- segmentation -----------------------------------------------------------

class EmptyImage(SitsGraphError):
    pass


class InvalidSegmentCount(SitsGraphError):
    pass


# -- features / graph -------------------------------------------------------

class DimMismatch(SitsGraphError):
    pass


class TooFewNodes(SitsGraphError):
    pass


class InvalidLag(SitsGraphError):
    pass


class UnknownNode(SitsGraphError):
    pass


# -- neural / training ------------------------------------------------------

class AllIgnored(SitsGraphError):
    pass


class ConfigMismatch(SitsGraphError):
    pass


class NoLabels(SitsGraphError):
    pass


class LengthMismatch(SitsGraphError):
    pass


class MeshMismatch(SitsGraphError):
    pass


class SiteLeakage(SitsGraphError):
    pass


class NoData(SitsGraphError):
    pass


class TapeReplayed(SitsGraphError):
    pass


class Diverged(SitsGraphError):
    """No training epoch gave a finite validation metric."""


# -- metrics ----------------------------------------------------------------

class EmptyMatrix(SitsGraphError):
    pass


# -- warnings ---------------------------------------------------------------

class AllNodataWarning(UserWarning):
    """An object contained no valid pixel; its statistics were zero-filled."""


class DegenerateFeature(UserWarning):
    """All feature values identical; symbolization produced a single bin."""
