"""Typed errors raised by the toolkit.

Everything the public API can raise on bad data derives from
:class:`HarmbenchError`, so batch drivers can contain failures with a
single except clause while tests pin the exact subclass.
"""


class HarmbenchError(Exception):
    """Base class for all toolkit errors."""


# ---------------------------------------------------------------- volume I/O

class MalformedHeader(HarmbenchError):
    """File is not a parseable single-file NIfTI-1 header."""


class UnsupportedDatatype(HarmbenchError):
    """Header datatype code outside the supported scalar set."""


class TruncatedData(HarmbenchError):
    """File ends before the voxel data the header promises."""


class NonFiniteVoxel(HarmbenchError):
    """Voxel data contains NaN or infinity."""


class IoFailure(HarmbenchError):
    """Writing a volume failed at the OS level."""


# -------------------------------------------------------------- distribution

class EmptyForeground(HarmbenchError):
    """No voxel passes the foreground policy."""


# ---------------------------------------------------------- intensity metric

class DegenerateNormalizer(HarmbenchError):
    """Input and target distributions are indistinguishable; the
    normalized distance is undefined."""


# ------------------------------------------------------------ anatomy metric

class ZeroInputVolume(HarmbenchError):
    """A shared structure has zero volume in the input segmentation."""


class NoCommonStructures(HarmbenchError):
    """The two segmentations share no nonzero label."""


# ---------------------------------------------------------- reference metric

class DimsMismatch(HarmbenchError):
    """Paired grids differ in dims or in voxel spacing."""


class DegenerateRange(HarmbenchError):
    """Joint foreground minimum equals maximum; normalization undefined."""


# ------------------------------------------------------------------- stats

class AllSentinels(HarmbenchError):
    """A metric series holds no finite value to aggregate."""


class LengthMismatch(HarmbenchError):
    """Series cannot be paired (unequal or too short)."""


class ZeroRankVariance(HarmbenchError):
    """All values of one series are tied; rank correlation undefined."""


# ------------------------------------------------------------------ harness

class MissingColumn(HarmbenchError):
    """Manifest or results file lacks a required column or field."""


class DuplicateId(HarmbenchError):
    """Two manifest records share the same (id, channel) key."""


class UnreadableFile(HarmbenchError):
    """Manifest file could not be read."""


class NoSuccessfulRows(HarmbenchError):
    """No row of a results file is ok, so there is nothing to summarize."""


class UnsupportedFormat(HarmbenchError):
    """Unknown report format."""


# -------------------------------------------------------------------- synth

class OverlappingStructures(HarmbenchError):
    """Phantom spheres overlap; labels would be ambiguous."""
