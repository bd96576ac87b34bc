"""Typed request/response models shared by server, workers and client.

Everything that crosses the HTTP boundary is a frozen dataclass with an
explicit ``to_dict``/``from_dict`` pair — the wire format is plain JSON,
validated at the edge so a malformed request dies with a structured
:class:`~repro.common.errors.ServiceError` (HTTP 400) before it can
reach the queue.

Canonicalization matters here: a :class:`JobSpec`'s identity (and hence
its queue dedupe key and its result-cache key) is the SHA-256 of its
*canonical work dict* — the fields that determine the computed artifact,
excluding scheduling knobs (priority, timeout, retries).  Resubmitting
the same work therefore lands on the same job and the same cached
result.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import asdict, dataclass, field, replace

from ..common.config import ProtocolKind, SystemConfig
from ..common.errors import ServiceError

#: protocol names a job may request.  ``moesi`` is MESI with the Owned
#: state enabled, ``ceplus`` is accepted as an alias of ``ce+`` (shell
#: quoting makes ``+`` awkward); everything else maps to a
#: :class:`~repro.common.config.ProtocolKind` directly.
PROTOCOL_CHOICES = ("mesi", "moesi", "ce", "ce+", "ceplus", "arc")

#: job kinds the service executes (see :mod:`repro.service.jobs`)
JOB_KINDS = ("analyze", "simulate", "compare")


def canonical_json(payload: object) -> str:
    """The one JSON rendering used for hashing and wire payloads."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def normalize_protocol(name: str) -> str:
    """Validate and canonicalize a requested protocol name."""
    text = str(name).strip().lower()
    if text == "ceplus":
        text = "ce+"
    if text not in PROTOCOL_CHOICES:
        raise ServiceError(
            f"unknown protocol {name!r}: expected one of "
            f"{', '.join(PROTOCOL_CHOICES)}"
        )
    return text


def protocol_config(cfg: SystemConfig, name: str) -> SystemConfig:
    """``cfg`` retargeted at the service-level protocol name.

    ``moesi`` is not a :class:`ProtocolKind` of its own — it is MESI
    with ``use_owned_state`` — so the mapping lives here, next to the
    name vocabulary, rather than leaking into every caller.
    """
    if name == "moesi":
        return replace(cfg.with_protocol(ProtocolKind.MESI), use_owned_state=True)
    return replace(cfg.with_protocol(ProtocolKind(name)), use_owned_state=False)


class JobState(str, enum.Enum):
    """Queue state machine: ``PENDING → RUNNING → DONE/FAILED/TIMEOUT``.

    ``RUNNING`` additionally transitions back to ``PENDING`` when its
    lease expires (the claiming worker died or stalled) and attempts
    remain, or to ``TIMEOUT`` when they don't.
    """

    PENDING = "PENDING"
    RUNNING = "RUNNING"
    DONE = "DONE"
    FAILED = "FAILED"
    TIMEOUT = "TIMEOUT"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.TIMEOUT)


@dataclass(frozen=True)
class JobSpec:
    """One unit of analysis work a client can submit.

    Exactly one of ``workload`` (a registered synthetic/captured
    generator name) or ``trace`` (the digest of an uploaded ``.rtb``)
    names the program.  ``protocols`` is the comparison set for
    ``compare`` jobs and must be a single entry for ``simulate``;
    ``analyze`` jobs ignore it (the happens-before analyzer is
    protocol-free).
    """

    kind: str
    workload: str | None = None
    trace: str | None = None
    threads: int = 4
    seed: int = 1
    scale: float = 0.1
    num_cores: int | None = None
    protocols: tuple[str, ...] = ()
    priority: int | None = None
    timeout: float | None = None
    retries: int = 0

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ServiceError(
                f"unknown job kind {self.kind!r}: expected one of "
                f"{', '.join(JOB_KINDS)}"
            )
        if (self.workload is None) == (self.trace is None):
            raise ServiceError(
                "exactly one of 'workload' (a generator name) or 'trace' "
                "(an uploaded trace digest) must be given"
            )
        if self.workload is not None:
            if self.threads < 1:
                raise ServiceError(f"threads must be >= 1, got {self.threads}")
            if self.scale <= 0:
                raise ServiceError(f"scale must be > 0, got {self.scale}")
        if self.trace is not None and not _is_digest(self.trace):
            raise ServiceError(
                f"trace must be a 64-char hex sha256 digest, got {self.trace!r}"
            )
        object.__setattr__(
            self,
            "protocols",
            tuple(normalize_protocol(p) for p in self.protocols),
        )
        if len(set(self.protocols)) != len(self.protocols):
            raise ServiceError(f"duplicate protocols in {self.protocols}")
        if self.kind == "simulate" and len(self.protocols) != 1:
            raise ServiceError("simulate jobs take exactly one protocol")
        if self.kind == "compare" and not self.protocols:
            # the comparative default: the full matrix the paper studies
            object.__setattr__(
                self, "protocols", ("mesi", "moesi", "ce", "ce+", "arc")
            )
        if self.num_cores is not None and self.num_cores < 1:
            raise ServiceError(f"num_cores must be >= 1, got {self.num_cores}")
        if self.timeout is not None and self.timeout <= 0:
            raise ServiceError(f"timeout must be > 0, got {self.timeout}")
        if self.retries < 0:
            raise ServiceError(f"retries must be >= 0, got {self.retries}")
        if self.priority is not None and not 0 <= self.priority <= 9:
            raise ServiceError(
                f"priority must be in [0, 9] (0 = most urgent), "
                f"got {self.priority}"
            )

    # -- identity --------------------------------------------------------

    def work_dict(self) -> dict:
        """The fields that determine the computed artifact.

        Scheduling knobs (priority/timeout/retries) are deliberately
        absent — two specs differing only there are the *same work* and
        share one queue entry and one cached result.
        """
        return {
            "kind": self.kind,
            "workload": self.workload,
            "trace": self.trace,
            "threads": self.threads if self.workload is not None else None,
            "seed": self.seed if self.workload is not None else None,
            "scale": self.scale if self.workload is not None else None,
            "num_cores": self.num_cores,
            "protocols": list(self.protocols),
        }

    def job_id(self) -> str:
        """Content-addressed job identity (the queue dedupe key)."""
        return hashlib.sha256(
            ("service-job:" + canonical_json(self.work_dict())).encode("utf-8")
        ).hexdigest()

    def cost_estimate(self) -> int:
        """Relative work units, for cheap-jobs-first scheduling.

        A coarse, deterministic proxy for simulated event count: events
        scale with ``threads * scale``; simulation pays it once per
        protocol; the simulation-free analyzer is ~10x cheaper than one
        simulation (PR 2's measured floor).
        """
        weight = self.threads * self.scale if self.workload is not None else 8.0
        if self.kind == "analyze":
            return max(1, int(weight * 10))
        return max(1, int(weight * 100) * max(1, len(self.protocols)))

    def default_priority(self) -> int:
        """Priority when the client didn't pick one (0 urgent .. 9 bulk)."""
        if self.priority is not None:
            return self.priority
        return 3 if self.kind == "analyze" else 5

    # -- wire format -----------------------------------------------------

    def to_dict(self) -> dict:
        data = asdict(self)
        data["protocols"] = list(self.protocols)
        return data

    @classmethod
    def from_dict(cls, data: object) -> "JobSpec":
        if not isinstance(data, dict):
            raise ServiceError(f"job spec must be a JSON object, got {type(data).__name__}")
        known = set(cls.__dataclass_fields__)
        unknown = sorted(set(data) - known)
        if unknown:
            raise ServiceError(f"unknown job spec field(s): {', '.join(unknown)}")
        kwargs = dict(data)
        if "protocols" in kwargs:
            protocols = kwargs["protocols"]
            if isinstance(protocols, str):
                protocols = [p for p in protocols.split(",") if p]
            if not isinstance(protocols, (list, tuple)):
                raise ServiceError("protocols must be a list of names")
            kwargs["protocols"] = tuple(protocols)
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ServiceError(f"bad job spec: {exc}") from None


def _is_digest(text: object) -> bool:
    return (
        isinstance(text, str)
        and len(text) == 64
        and all(c in "0123456789abcdef" for c in text)
    )


@dataclass(frozen=True)
class JobRecord:
    """One job's full queue state, as served by ``GET /api/jobs/<id>``."""

    id: str
    spec: JobSpec
    state: JobState
    priority: int
    cost: int
    attempts: int
    max_attempts: int
    seq: int
    created: float
    updated: float
    owner: str | None = None
    deadline: float | None = None
    result_key: str | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "spec": self.spec.to_dict(),
            "state": self.state.value,
            "priority": self.priority,
            "cost": self.cost,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "seq": self.seq,
            "created": self.created,
            "updated": self.updated,
            "owner": self.owner,
            "deadline": self.deadline,
            "result_key": self.result_key,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobRecord":
        return cls(
            id=data["id"],
            spec=JobSpec.from_dict(data["spec"]),
            state=JobState(data["state"]),
            priority=data["priority"],
            cost=data["cost"],
            attempts=data["attempts"],
            max_attempts=data["max_attempts"],
            seq=data["seq"],
            created=data["created"],
            updated=data["updated"],
            owner=data.get("owner"),
            deadline=data.get("deadline"),
            result_key=data.get("result_key"),
            error=data.get("error"),
        )


@dataclass(frozen=True)
class TraceInfo:
    """What the trace store knows about one uploaded ``.rtb``."""

    digest: str
    bytes: int
    events: int
    threads: int
    existed: bool = False

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TraceInfo":
        return cls(**{k: data[k] for k in ("digest", "bytes", "events", "threads")},
                   existed=bool(data.get("existed", False)))


@dataclass
class QueueStats:
    """Aggregate queue counters, as served by ``GET /api/stats``."""

    pending: int = 0
    running: int = 0
    done: int = 0
    failed: int = 0
    timeout: int = 0
    depth: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.depth = self.pending + self.running

    def to_dict(self) -> dict:
        return {
            "pending": self.pending,
            "running": self.running,
            "done": self.done,
            "failed": self.failed,
            "timeout": self.timeout,
            "depth": self.depth,
        }
