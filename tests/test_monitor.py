"""Detection rules: each alert shape, dedup, windows, determinism."""

from __future__ import annotations

import pytest

from enclave_broker.audit import BREAK_GLASS_ACTIVATED, SESSION_OPENED, AuditLedger
from enclave_broker.errors import BadConfig
from enclave_broker.monitor import AccessMonitor, MonitorEvent


def ev(session="s1", kind="Select", verdict="Allow", rows=0, t=0, star=False):
    return MonitorEvent(
        session_id=session,
        enclave_id="e1",
        contract_id="c1",
        statement_kind=kind,
        verdict=verdict,
        rows_returned=rows,
        timestamp=t,
        select_star=star,
    )


def rules(alerts):
    return [a.rule for a in alerts]


def test_config_must_be_positive():
    with pytest.raises(BadConfig):
        AccessMonitor(volume_threshold=0)
    with pytest.raises(BadConfig):
        AccessMonitor(probing_threshold=-1)
    with pytest.raises(BadConfig):
        AccessMonitor(window=0)


def test_exfiltration_fires_on_every_copy():
    m = AccessMonitor()
    first = m.record_event(ev(kind="CopyInto", verdict="Deny", t=1))
    second = m.record_event(ev(kind="CopyInto", verdict="Deny", t=2))
    assert rules(first) == ["ExfiltrationAttempt"]
    assert rules(second) == ["ExfiltrationAttempt"]
    assert first[0].severity == "Critical"
    assert first[0].evidence[0].statement_kind == "CopyInto"


def test_enumeration_requires_show_then_star():
    m = AccessMonitor()
    assert m.record_event(ev(kind="Select", star=True, t=1)) == []  # star first: no show yet
    assert m.record_event(ev(kind="ShowTables", t=2)) == []
    plain = m.record_event(ev(kind="Select", star=False, t=3))
    assert plain == []
    fired = m.record_event(ev(kind="Select", star=True, t=4))
    assert rules(fired) == ["EnumerationPattern"]
    assert fired[0].severity == "High"
    # Evidence is the first ShowTables plus the triggering star select.
    assert [e.statement_kind for e in fired[0].evidence] == ["ShowTables", "Select"]
    assert [e.timestamp for e in fired[0].evidence] == [2, 4]


def test_enumeration_once_per_session():
    m = AccessMonitor()
    m.record_event(ev(kind="ShowTables", t=1))
    assert rules(m.record_event(ev(kind="Select", star=True, t=2))) == ["EnumerationPattern"]
    assert m.record_event(ev(kind="Select", star=True, t=3)) == []
    # A different session starts fresh.
    m.record_event(ev(session="s2", kind="ShowTables", t=4))
    assert rules(m.record_event(ev(session="s2", kind="Select", star=True, t=5))) == [
        "EnumerationPattern"
    ]


def test_volume_crosses_threshold_once():
    m = AccessMonitor(volume_threshold=5)
    assert m.record_event(ev(rows=3, t=1)) == []
    fired = m.record_event(ev(rows=3, t=2))
    assert rules(fired) == ["VolumeDeviation"]
    assert fired[0].severity == "High"
    assert len(fired[0].evidence) == 2  # both allowed statements
    assert m.record_event(ev(rows=100, t=3)) == []  # once per session


def test_volume_threshold_is_strict():
    m = AccessMonitor(volume_threshold=5)
    assert m.record_event(ev(rows=5, t=1)) == []  # equal is not over
    assert rules(m.record_event(ev(rows=1, t=2))) == ["VolumeDeviation"]


def test_denied_rows_do_not_count_toward_volume():
    m = AccessMonitor(volume_threshold=5)
    assert m.record_event(ev(rows=10, verdict="Deny", t=1)) == []
    assert m.record_event(ev(rows=3, t=2)) == []


def test_probing_needs_threshold_denials_in_window():
    m = AccessMonitor(probing_threshold=3, window=300)
    assert m.record_event(ev(verdict="Deny", t=0)) == []
    assert m.record_event(ev(verdict="Deny", t=100)) == []
    fired = m.record_event(ev(verdict="Deny", t=200))
    assert rules(fired) == ["ProbingDenials"]
    assert len(fired[0].evidence) == 3


def test_probing_window_slides():
    m = AccessMonitor(probing_threshold=3, window=300)
    m.record_event(ev(verdict="Deny", t=0))
    m.record_event(ev(verdict="Deny", t=350))  # t=0 already out of the window
    assert m.record_event(ev(verdict="Deny", t=360)) == []
    assert rules(m.record_event(ev(verdict="Deny", t=370))) == ["ProbingDenials"]


def test_probing_window_boundary():
    # The window is (t - window, t]: a denial exactly `window` old is out.
    m = AccessMonitor(probing_threshold=2, window=300)
    m.record_event(ev(verdict="Deny", t=0))
    assert m.record_event(ev(verdict="Deny", t=300)) == []
    m2 = AccessMonitor(probing_threshold=2, window=300)
    m2.record_event(ev(verdict="Deny", t=1))
    assert rules(m2.record_event(ev(verdict="Deny", t=300))) == ["ProbingDenials"]


def test_probing_clears_after_firing():
    m = AccessMonitor(probing_threshold=2, window=300)
    m.record_event(ev(verdict="Deny", t=1))
    assert rules(m.record_event(ev(verdict="Deny", t=2))) == ["ProbingDenials"]
    # The buffer restarts; the next denial alone cannot refire.
    assert m.record_event(ev(verdict="Deny", t=3)) == []
    assert rules(m.record_event(ev(verdict="Deny", t=4))) == ["ProbingDenials"]


def test_break_glass_activation_alert():
    m = AccessMonitor()
    ledger = AuditLedger()
    assert m.observe(ledger.append(49, "x", SESSION_OPENED, {"session_id": "s1"})) == []
    activated = ledger.append(50, "broker", BREAK_GLASS_ACTIVATED, {"request_id": "req-1", "contract_id": "c9"})
    [alert] = m.observe(activated)
    assert alert.timestamp == 50
    assert alert.rule == "BreakGlassActivated"
    assert alert.severity == "Critical"
    assert alert.contract_id == "c9"
    assert alert.session_id == "break-glass:req-1"
    assert len(alert.evidence) == 1
    assert alert.evidence[0] in m.events


def test_paper_pattern_always_fires_both():
    # ShowTables -> star Select -> CopyInto, with noise in between.
    m = AccessMonitor()
    got = []
    got += m.record_event(ev(kind="ShowTables", t=1))
    got += m.record_event(ev(kind="Select", star=False, t=2, rows=1))
    got += m.record_event(ev(kind="Select", star=True, t=3, rows=2))
    got += m.record_event(ev(kind="Invalid", verdict="Deny", t=4))
    got += m.record_event(ev(kind="CopyInto", verdict="Deny", t=5))
    assert rules(got) == ["EnumerationPattern", "ExfiltrationAttempt"]


def test_evidence_belongs_to_alert_session():
    m = AccessMonitor(volume_threshold=1, probing_threshold=2)
    m.record_event(ev(session="a", kind="ShowTables", t=1))
    m.record_event(ev(session="b", kind="Select", star=True, t=2, rows=5))
    m.record_event(ev(session="a", kind="Select", star=True, t=3, rows=5))
    m.record_event(ev(session="b", verdict="Deny", t=4))
    m.record_event(ev(session="b", verdict="Deny", t=5))
    for alert in m.alerts():
        for e in alert.evidence:
            assert e.session_id == alert.session_id
            assert e in m.events


def test_determinism_same_events_same_alerts():
    script = [
        ev(kind="ShowTables", t=1),
        ev(kind="Select", star=True, rows=3, t=2),
        ev(kind="CopyInto", verdict="Deny", t=3),
        ev(verdict="Deny", t=4),
        ev(rows=10, t=5),
    ]
    runs = []
    for _ in range(2):
        m = AccessMonitor(volume_threshold=5, probing_threshold=2, window=100)
        out = []
        for e in script:
            out.extend(m.record_event(e))
        runs.append([(a.rule, a.severity, a.session_id, a.timestamp, a.evidence) for a in out])
    assert runs[0] == runs[1]


def test_alert_filters():
    m = AccessMonitor()
    m.record_event(ev(kind="CopyInto", verdict="Deny", t=10))
    m.record_event(ev(session="s2", kind="CopyInto", verdict="Deny", t=20))
    assert len(m.alerts(rule="ExfiltrationAttempt")) == 2
    assert len(m.alerts(rule="VolumeDeviation")) == 0
    assert len(m.alerts(contract_id="c1")) == 2
    assert len(m.alerts(enclave_id="e1")) == 2
    assert len(m.alerts(enclave_id="nope")) == 0
    assert [a.timestamp for a in m.alerts(since=10, until=20)] == [10]
    ids = [a.alert_id for a in m.alerts()]
    assert ids == ["alert-0", "alert-1"]
