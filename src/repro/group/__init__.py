"""Group communication substrate (Maestro/Ensemble analog).

Versioned group membership, heartbeat-style crash detection, and
send-to-subset multicast with delayed membership-change notifications.
"""

from .ensemble import GroupCommunication, GroupView, MembershipError
from .failure_detector import FailureDetector

__all__ = [
    "GroupCommunication",
    "FailureDetector",
    "GroupView",
    "MembershipError",
]
