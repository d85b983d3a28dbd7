"""Small shared helpers."""

from __future__ import annotations

from gridshield.codec import RawFrame


def frame_digest(raw: RawFrame) -> str:
    """Stable short digest of frame bytes, used to track copies in the log;
    the value the frame carries as ``raw.digest``."""
    return raw.digest
