"""Exception types raised across the toolkit.

Every failure mode that callers are expected to distinguish gets its own
class; all inherit from EmotionForgeError so blanket handling stays easy.
"""


class EmotionForgeError(Exception):
    """Base class for all toolkit errors."""


# --- raster I/O and pixel ops ---

class MalformedHeaderError(EmotionForgeError):
    """PGM header is not a valid binary P5 header."""


class UnsupportedMaxvalError(EmotionForgeError):
    """PGM maxval is not 255."""


class TruncatedPayloadError(EmotionForgeError):
    """PGM payload has fewer bytes than width*height."""


class ZeroDimensionError(EmotionForgeError):
    """Requested output width or height is not positive."""


class NonPositiveFactorError(EmotionForgeError):
    """Brightness factor must be > 0."""


# --- alignment ---

class CoincidentEyesError(EmotionForgeError):
    """Eye centers coincide; rotation angle is undefined."""


class DegenerateFaceError(EmotionForgeError):
    """Landmark geometry yields an empty or inverted crop rectangle."""


class EmptyCropError(EmotionForgeError):
    """Crop rectangle clamped to the image has zero area."""


class MalformedLandmarksError(EmotionForgeError, ValueError):
    """A .lm68 sidecar is not 68 lines of two finite decimal floats."""


# --- augmentation ---

class InvalidSpecError(EmotionForgeError):
    """Augmentation spec has the wrong cardinalities or misses required entries."""


# --- dataset ---

class OutOfRangeIntensityError(EmotionForgeError):
    """Intensity value outside (0, 1]."""


class TooFewFramesError(EmotionForgeError):
    """Sequence has fewer than 9 frames."""


class ApexOnBoundaryError(EmotionForgeError):
    """Apex frame too close to the sequence boundary to place all 9 picks."""


class ManifestParseError(EmotionForgeError):
    """Manifest line failed to parse; message carries the line number."""


class UnknownClassNameError(EmotionForgeError):
    """Class name not one of the seven emotion classes."""


class MissingIntensityColumnError(EmotionForgeError):
    """Regression manifest line lacks the intensity column."""


class EmptyDatasetError(EmotionForgeError):
    """No samples to iterate."""


class UnalignedImageError(EmotionForgeError, ValueError):
    """A dataset image is not a 128x128 aligned face."""


# --- network and losses ---

class ShapeMismatchError(EmotionForgeError):
    """Tensor shapes incompatible with the operation."""


class NonFiniteActivationError(EmotionForgeError):
    """NaN or Inf appeared in network activations."""


class StaleCacheError(EmotionForgeError):
    """Backward called with caches from a different batch."""


class IndexOutOfRangeError(EmotionForgeError):
    """Class index outside 0..6."""


class TargetOutOfRangeError(EmotionForgeError):
    """Regression target outside [0, 1]."""


# --- training and model files ---

class NonFiniteLossError(EmotionForgeError):
    """Training loss became NaN or Inf; message carries the iteration."""


class BadMagicError(EmotionForgeError):
    """Model file does not start with the EMO1 magic."""


class VersionMismatchError(EmotionForgeError):
    """Model file format version is not supported."""


class ChecksumMismatchError(EmotionForgeError):
    """Model file payload does not match its CRC-32 trailer."""


class ModelIoError(EmotionForgeError):
    """Model file is structurally unreadable (truncated or inconsistent)."""


# --- evaluation and streaming ---

class LengthMismatchError(EmotionForgeError):
    """Prediction and label sequences differ in length."""


class ModelModeMismatchError(EmotionForgeError):
    """Model head (classification/regression) does not match the requested mode."""


class BadAlphaError(EmotionForgeError):
    """Smoothing alpha outside (0, 1]."""


class MissingSidecarError(EmotionForgeError):
    """Image has no .lm68 landmark sidecar."""
