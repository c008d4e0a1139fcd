"""Detection rules over the committed audit stream.

The monitor observes every event the ledger commits. Each mediated
statement (QueryExecuted or QueryDenied) is scored against the classic
exfiltration shapes: schema enumeration followed by a star select, any
bulk-copy attempt, session row volume drifting past its threshold, and
bursts of denials that look like permission probing; every break-glass
activation alerts on its own. Scoring is deterministic: the same event
sequence always yields the same alert sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import audit
from .errors import BadConfig
from .query import COPY_INTO, SELECT, SHOW_TABLES

SEVERITY_HIGH = "High"
SEVERITY_CRITICAL = "Critical"

ENUMERATION_PATTERN = "EnumerationPattern"
EXFILTRATION_ATTEMPT = "ExfiltrationAttempt"
VOLUME_DEVIATION = "VolumeDeviation"
PROBING_DENIALS = "ProbingDenials"
BREAK_GLASS_ACTIVATED = "BreakGlassActivated"

VERDICT_ALLOW = "Allow"
VERDICT_DENY = "Deny"

KIND_BREAK_GLASS = "BreakGlassActivation"
KIND_INVALID = "Invalid"  # statement that failed to parse

DEFAULT_VOLUME_THRESHOLD = 10000
DEFAULT_PROBING_THRESHOLD = 5
DEFAULT_PROBING_WINDOW = 300


@dataclass(frozen=True)
class MonitorEvent:
    session_id: str
    enclave_id: str
    contract_id: str
    statement_kind: str
    verdict: str  # Allow | Deny
    rows_returned: int
    timestamp: int
    select_star: bool = False

    def to_json(self) -> dict:
        return {
            "session_id": self.session_id,
            "enclave_id": self.enclave_id,
            "contract_id": self.contract_id,
            "statement_kind": self.statement_kind,
            "verdict": self.verdict,
            "rows_returned": self.rows_returned,
            "timestamp": self.timestamp,
            "select_star": self.select_star,
        }


@dataclass(frozen=True)
class Alert:
    alert_id: str
    rule: str
    severity: str
    session_id: str
    contract_id: str
    evidence: tuple[MonitorEvent, ...]  # never empty
    timestamp: int

    def to_json(self) -> dict:
        return {
            **self.ledger_payload(),
            "evidence": [e.to_json() for e in self.evidence],
            "timestamp": self.timestamp,
        }

    def ledger_payload(self) -> dict:
        """The payload of this alert's AlertRaised ledger event."""
        return {
            "alert_id": self.alert_id,
            "rule": self.rule,
            "severity": self.severity,
            "session_id": self.session_id,
            "contract_id": self.contract_id,
        }


@dataclass
class _SessionState:
    first_show_tables: MonitorEvent | None = None
    enumeration_fired: bool = False
    volume_fired: bool = False
    rows_total: int = 0
    allowed_events: list[MonitorEvent] = field(default_factory=list)
    denial_events: list[MonitorEvent] = field(default_factory=list)


class AccessMonitor:
    def __init__(
        self,
        volume_threshold: int = DEFAULT_VOLUME_THRESHOLD,
        probing_threshold: int = DEFAULT_PROBING_THRESHOLD,
        window: int = DEFAULT_PROBING_WINDOW,
    ):
        if volume_threshold <= 0 or probing_threshold <= 0 or window <= 0:
            raise BadConfig("monitor thresholds must be positive")
        self.volume_threshold = volume_threshold
        self.probing_threshold = probing_threshold
        self.window = window
        self.events: list[MonitorEvent] = []
        self._alerts: list[Alert] = []
        self._sessions: dict[str, _SessionState] = {}

    def _raise(self, rule, severity, session_id, contract_id, evidence, now) -> Alert:
        alert = Alert(
            alert_id=f"alert-{len(self._alerts)}",
            rule=rule,
            severity=severity,
            session_id=session_id,
            contract_id=contract_id,
            evidence=tuple(evidence),
            timestamp=now,
        )
        self._alerts.append(alert)
        return alert

    def observe(self, event: audit.AuditEvent) -> list[Alert]:
        """Score one committed ledger event; returns any newly raised alerts."""
        p = event.payload
        if event.kind == audit.QUERY_EXECUTED or event.kind == audit.QUERY_DENIED:
            return self.record_event(
                MonitorEvent(
                    session_id=p["session_id"],
                    enclave_id=p["enclave_id"],
                    contract_id=p["contract_id"],
                    statement_kind=p["statement_kind"],
                    verdict=VERDICT_ALLOW if event.kind == audit.QUERY_EXECUTED else VERDICT_DENY,
                    rows_returned=p["rows_returned"],
                    timestamp=event.timestamp,
                    select_star=p["select_star"],
                )
            )
        if event.kind == audit.BREAK_GLASS_ACTIVATED:
            # Emergency activations always alert, loudly and immediately.
            ev = MonitorEvent(
                session_id=f"break-glass:{p['request_id']}",
                enclave_id="",
                contract_id=p["contract_id"],
                statement_kind=KIND_BREAK_GLASS,
                verdict=VERDICT_ALLOW,
                rows_returned=0,
                timestamp=event.timestamp,
            )
            self.events.append(ev)
            return [
                self._raise(
                    BREAK_GLASS_ACTIVATED, SEVERITY_CRITICAL, ev.session_id, ev.contract_id, [ev], ev.timestamp
                )
            ]
        return []

    def record_event(self, ev: MonitorEvent) -> list[Alert]:
        """Score one mediated statement; returns any newly raised alerts."""
        self.events.append(ev)
        st = self._sessions.setdefault(ev.session_id, _SessionState())
        new: list[Alert] = []
        if ev.statement_kind == COPY_INTO:
            new.append(
                self._raise(
                    EXFILTRATION_ATTEMPT, SEVERITY_CRITICAL, ev.session_id, ev.contract_id, [ev], ev.timestamp
                )
            )
        if ev.statement_kind == SHOW_TABLES and st.first_show_tables is None:
            st.first_show_tables = ev
        if (
            ev.statement_kind == SELECT
            and ev.select_star
            and st.first_show_tables is not None
            and not st.enumeration_fired
        ):
            st.enumeration_fired = True
            new.append(
                self._raise(
                    ENUMERATION_PATTERN,
                    SEVERITY_HIGH,
                    ev.session_id,
                    ev.contract_id,
                    [st.first_show_tables, ev],
                    ev.timestamp,
                )
            )
        if ev.verdict == VERDICT_ALLOW:
            st.allowed_events.append(ev)
            st.rows_total += ev.rows_returned
            if not st.volume_fired and st.rows_total > self.volume_threshold:
                st.volume_fired = True
                new.append(
                    self._raise(
                        VOLUME_DEVIATION,
                        SEVERITY_HIGH,
                        ev.session_id,
                        ev.contract_id,
                        list(st.allowed_events),
                        ev.timestamp,
                    )
                )
        else:
            st.denial_events.append(ev)
            cutoff = ev.timestamp - self.window
            st.denial_events = [d for d in st.denial_events if d.timestamp > cutoff]
            if len(st.denial_events) >= self.probing_threshold:
                new.append(
                    self._raise(
                        PROBING_DENIALS,
                        SEVERITY_HIGH,
                        ev.session_id,
                        ev.contract_id,
                        list(st.denial_events),
                        ev.timestamp,
                    )
                )
                st.denial_events = []
        return new

    def alerts(self, rule=None, contract_id=None, enclave_id=None, since=None, until=None):
        """Filtered alert scan; time bounds are half-open [since, until)."""
        out = []
        for a in self._alerts:
            if rule is not None and a.rule != rule:
                continue
            if contract_id is not None and a.contract_id != contract_id:
                continue
            if enclave_id is not None and not any(e.enclave_id == enclave_id for e in a.evidence):
                continue
            if since is not None and a.timestamp < since:
                continue
            if until is not None and a.timestamp >= until:
                continue
            out.append(a)
        return out
