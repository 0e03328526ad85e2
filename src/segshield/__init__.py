"""Traffic shaping through random message segmentation, with an offline
trace simulator, a fingerprinting adversary, and overhead reporting."""

from .errors import (
    ConfigurationError,
    IntegrityError,
    SegShieldError,
    TraceFormatError,
    TransportError,
)
from .rng import derive_seed, make_rng
from .segcore import (
    LevelBand,
    SegmentationConfig,
    SegmentPlan,
    iter_chunks,
    payload_capacity,
    plan_default_segments,
    segment_lengths,
    segment_message,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "IntegrityError",
    "SegShieldError",
    "TraceFormatError",
    "TransportError",
    "LevelBand",
    "SegmentationConfig",
    "SegmentPlan",
    "derive_seed",
    "iter_chunks",
    "make_rng",
    "payload_capacity",
    "plan_default_segments",
    "segment_lengths",
    "segment_message",
    "__version__",
]
