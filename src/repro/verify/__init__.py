"""Schedule verification: structural checking and ASAP scheduling.

The state-vector semantic-equivalence oracle lives in
:mod:`repro.verify.simulator`; it needs numpy, so it is imported from
there directly rather than re-exported here (``import repro`` stays
numpy-free).
"""

from .checker import VerificationError, is_valid, validate_result
from .scheduler import ideal_depth, result_from_routed_ops

__all__ = [
    "validate_result",
    "is_valid",
    "VerificationError",
    "ideal_depth",
    "result_from_routed_ops",
]
