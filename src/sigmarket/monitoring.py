"""Monitoring policies: right-continuous step maps from effort to messages.

A school cannot show the market raw effort; it commits to a deterministic
monitoring map M and a fee.  Deterministic right-continuous step maps carry
all the strategic content here, so a policy is a strictly ascending threshold
list t_1 < ... < t_k and k+1 distinct message ids: M(e) = m_j on [t_j, t_{j+1})
with t_0 = 0 and m_k from t_k on.  k = 0 is the uninformative policy.

Message ids are opaque school-local ints; firms observe the school anyway, so
a signal is the tuple (school, message): `Signal` is a named tuple, so it
hashes, compares and sorts as that plain pair.
"""

from __future__ import annotations

import bisect as _bisect
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InputError, integer, read_field, real
from .market import MAX_THRESHOLDS


@dataclass(frozen=True)
class StepMonitoringPolicy:
    thresholds: tuple[float, ...]
    messages: tuple[int, ...]

    def __post_init__(self):
        if len(self.messages) != len(self.thresholds) + 1:
            raise InputError("need exactly one more message than thresholds")
        if len(set(self.messages)) != len(self.messages):
            raise InputError("messages must be pairwise distinct")
        if not all(map(math.isfinite, self.thresholds)):
            raise InputError(f"thresholds must be finite, got {self.thresholds}")
        if any(t <= 0 for t in self.thresholds):
            raise InputError("thresholds must be positive (the base segment starts at 0)")
        if any(b <= a for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise InputError("thresholds must be strictly ascending")

    @classmethod
    def uninformative(cls) -> "StepMonitoringPolicy":
        return cls(thresholds=(), messages=(0,))

    @classmethod
    def cutoff(cls, threshold: float) -> "StepMonitoringPolicy":
        """Message 0 below the threshold, 1 from it on."""
        return cls(thresholds=(threshold,), messages=(0, 1))

    @classmethod
    def informative_on_grid(cls, grid) -> "StepMonitoringPolicy":
        """Perfectly informative up to grid resolution: one step per grid point.

        Emulates M(e) = e; grid points must be ascending and the first at 0
        (messages are the grid indices).
        """
        pts = tuple(float(e) for e in grid)
        if not pts or pts[0] != 0.0:
            raise InputError("informative grid must start at 0")
        return cls(thresholds=pts[1:], messages=tuple(range(len(pts))))

    def message_of(self, effort: float) -> int:
        """Message generated by an effort; right-continuous at thresholds."""
        if effort < 0:
            raise InputError(f"effort must be nonnegative, got {effort}")
        return self.messages[_bisect.bisect_right(self.thresholds, effort)]

    def min_effort(self, message: int) -> float:
        """Cheapest effort generating a message (0 for the base segment)."""
        try:
            j = self.messages.index(message)
        except ValueError:
            raise InputError(f"message {message!r} not in policy image") from None
        return 0.0 if j == 0 else self.thresholds[j - 1]

    def band_starts(self) -> tuple[float, ...]:
        return (0.0,) + self.thresholds

    def to_dict(self) -> dict:
        return {"thresholds": list(self.thresholds), "messages": list(self.messages)}

    @classmethod
    def from_dict(cls, data: dict) -> "StepMonitoringPolicy":
        def thresholds(v) -> tuple[float, ...]:
            if len(v) > MAX_THRESHOLDS:
                raise ValueError(f"expected at most {MAX_THRESHOLDS} thresholds, got {len(v)}")
            return tuple(real(t) for t in v)

        where = "monitoring policy"
        return cls(
            thresholds=read_field(data, "thresholds", thresholds, where),
            messages=read_field(data, "messages", lambda v: tuple(integer(m) for m in v), where),
        )


@dataclass(frozen=True)
class Policy:
    """A school's commitment: attendance fee plus monitoring map."""

    fee: float
    monitoring: StepMonitoringPolicy

    def __post_init__(self):
        if not math.isfinite(self.fee):
            raise InputError(f"fee must be finite, got {self.fee}")
        if self.fee < 0:
            raise InputError(f"fee must be nonnegative, got {self.fee}")

    def to_dict(self) -> dict:
        return {"fee": self.fee, "monitoring": self.monitoring.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "Policy":
        return cls(
            fee=read_field(data, "fee", real, "policy"),
            monitoring=read_field(data, "monitoring", StepMonitoringPolicy.from_dict, "policy"),
        )


class Signal(NamedTuple):
    """The (school, message) tuple; all the market ever observes about a student.

    As a tuple it hashes as hash((school, message)) and sorts by school, then
    message.
    """

    school: int
    message: int

    def key(self) -> str:
        return f"{self.school}:{self.message}"

    @classmethod
    def from_key(cls, key: str) -> "Signal":
        try:
            school, message = key.split(":")
            return cls(int(school), int(message))
        except ValueError as exc:
            raise InputError(f"bad signal key {key!r}") from exc


@dataclass(frozen=True)
class PolicyProfile:
    policies: tuple[Policy, ...]

    def __post_init__(self):
        if not self.policies:
            raise InputError("profile needs at least one school")

    @property
    def n(self) -> int:
        return len(self.policies)

    def __iter__(self):
        return iter(self.policies)

    def __getitem__(self, i: int) -> Policy:
        return self.policies[i]

    @classmethod
    def of(cls, *policies: Policy) -> "PolicyProfile":
        return cls(policies=tuple(policies))

    @classmethod
    def symmetric(cls, policy: Policy, n: int) -> "PolicyProfile":
        return cls(policies=(policy,) * n)

    def replace(self, school: int, policy: Policy) -> "PolicyProfile":
        policies = self.policies
        if not 0 <= school < len(policies):
            raise InputError(f"school index {school} out of range")
        return PolicyProfile(policies[:school] + (policy,) + policies[school + 1 :])

    def classes(self) -> dict[Policy, tuple[int, ...]]:
        """Classes of identical schools: each distinct policy, in the order of
        its first school, mapped to the schools posting it, in index order."""
        members: dict[Policy, list[int]] = {}
        for i, policy in enumerate(self.policies):
            members.setdefault(policy, []).append(i)
        return {policy: tuple(schools) for policy, schools in members.items()}

    def signals(self) -> tuple[Signal, ...]:
        """Every signal any school can emit, in (school, band) order."""
        out = []
        for i, p in enumerate(self.policies):
            out.extend(Signal(i, m) for m in p.monitoring.messages)
        return tuple(out)

    def signal_of(self, school: int, effort: float) -> Signal:
        return Signal(school, self.policies[school].monitoring.message_of(effort))

    def min_effort(self, s: Signal) -> float:
        if not 0 <= s.school < self.n:
            raise InputError(f"signal {s} names an unknown school")
        return self.policies[s.school].monitoring.min_effort(s.message)

    def thresholds(self) -> tuple[float, ...]:
        """Sorted union of all schools' thresholds (deduplicated)."""
        seen = sorted({t for p in self.policies for t in p.monitoring.thresholds})
        return tuple(seen)

    def to_list(self) -> list:
        return [p.to_dict() for p in self.policies]

    @classmethod
    def from_list(cls, data) -> "PolicyProfile":
        if not isinstance(data, list) or not data:
            raise InputError("profile JSON must be a nonempty array of policies")
        return cls(policies=tuple(Policy.from_dict(d) for d in data))


def reduce_minimal(policy: StepMonitoringPolicy, sent_messages) -> StepMonitoringPolicy:
    """Coarsest step policy agreeing with `policy` on sent efforts.

    With kept = the indices of the sent bands, the result's messages are
    messages[j] for j in kept and its thresholds band_starts()[min(a + 2, b)]
    for each consecutive pair (a, b) of kept: an unsent run between sent
    bands a and b gives its first band to a and the rest to b, a run below
    the first sent band goes to that band, and a run above the last one to
    the last.  The result's image is exactly `sent_messages` and message_of
    is unchanged on every effort whose original message is sent.
    """
    sent = set(sent_messages)
    if not sent:
        raise InputError("sent message set must be nonempty")
    unknown = sent - set(policy.messages)
    if unknown:
        raise InputError(f"sent messages {sorted(unknown)} not in policy image")
    starts = policy.band_starts()
    kept = [j for j, m in enumerate(policy.messages) if m in sent]
    return StepMonitoringPolicy(
        thresholds=tuple(starts[min(a + 2, b)] for a, b in zip(kept, kept[1:])),
        messages=tuple(policy.messages[j] for j in kept),
    )
