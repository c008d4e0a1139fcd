"""Audit ledger: chaining, persistence, and tamper detection."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from enclave_broker import audit
from enclave_broker.audit import (
    GENESIS,
    KINDS,
    AuditLedger,
    compute_hash,
    verify_file,
)
from enclave_broker.broker import BrokerConfig, BrokerCore
from enclave_broker.canonical import canonical_json
from enclave_broker.errors import StorageFailure
from reference_loaders import load_events


def fill(ledger: AuditLedger, n: int):
    for i in range(n):
        ledger.append(i, f"actor{i % 3}", KINDS[i % len(KINDS)], {"i": i, "note": "x" * (i % 5)})


@pytest.fixture
def ledger(tmp_path):
    ledger = AuditLedger(str(tmp_path / "audit.log"))
    yield ledger
    ledger.close()


def test_chain_links_and_hashes(ledger):
    fill(ledger, 5)
    events = ledger.events()
    assert events[0].prev_hash == GENESIS
    for i, e in enumerate(events):
        assert e.seq == i
        assert e.hash == compute_hash(e.seq, e.timestamp, e.actor, e.kind, e.payload, e.prev_hash)
        if i:
            assert e.prev_hash == events[i - 1].hash
    assert ledger.verify() is None


def test_unknown_kind_rejected(ledger):
    with pytest.raises(StorageFailure):
        ledger.append(0, "a", "MadeUpKind", {})
    assert len(ledger) == 0


def _rewrite(ledger: AuditLedger, rows: list[dict]) -> None:
    """Replace the ledger file's bytes with `rows`, one line each."""
    Path(ledger.path).write_bytes(b"".join(canonical_json(r).encode("utf-8") + b"\n" for r in rows))


def test_verify_flags_first_bad(ledger):
    fill(ledger, 6)
    rows = [e.to_json() for e in ledger.events()]
    rows[3]["payload"]["i"] = 999
    rows2 = [e.to_json() for e in ledger.events()]
    rows2[2], rows2[4] = rows2[4], rows2[2]
    _rewrite(ledger, rows)
    assert ledger.verify() == 3
    _rewrite(ledger, rows2)
    assert ledger.verify() == 2


def test_file_persistence_and_reload(tmp_path):
    path = tmp_path / "audit.log"
    ledger = AuditLedger(str(path))
    fill(ledger, 4)
    ledger.close()
    # Reopen and keep appending; the chain must continue, not restart.
    again = AuditLedger(str(path))
    assert len(again) == 4
    again.append(9, "late", KINDS[0], {"more": True})
    again.close()
    assert verify_file(str(path)) is None
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 5
    assert json.loads(lines[4])["prev_hash"] == json.loads(lines[3])["hash"]


def test_append_only_suffix_growth(tmp_path):
    path = tmp_path / "audit.log"
    ledger = AuditLedger(str(path))
    prefix = b""
    for i in range(6):
        ledger.append(i, "a", KINDS[0], {"i": i})
        data = path.read_bytes()
        assert data.startswith(prefix)
        assert len(data) > len(prefix)
        prefix = data
    ledger.close()


def test_lines_are_canonical_json(tmp_path):
    path = tmp_path / "audit.log"
    ledger = AuditLedger(str(path))
    fill(ledger, 3)
    ledger.close()
    for line in path.read_text(encoding="utf-8").splitlines():
        assert line == canonical_json(json.loads(line))


def make_file(tmp_path, n=10):
    path = tmp_path / "audit.log"
    ledger = AuditLedger(str(path))
    fill(ledger, n)
    ledger.close()
    return path


def test_verify_file_ok(tmp_path):
    assert verify_file(make_file(tmp_path)) is None


def test_mutate_event_payload_detected(tmp_path):
    # Flip one byte inside event 4's payload.
    path = make_file(tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines()
    obj = json.loads(lines[4])
    obj["payload"]["i"] = 40
    lines[4] = canonical_json(obj)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert verify_file(path) == 4


def test_delete_event_detected(tmp_path):
    # Drop event 7 from a 10-event log; position 7 then carries seq 8.
    path = make_file(tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines()
    del lines[7]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert verify_file(path) == 7


def test_truncation_leaves_a_valid_prefix(tmp_path):
    # Removing a suffix is indistinguishable from not having appended yet.
    path = make_file(tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:6]) + "\n", encoding="utf-8")
    assert verify_file(path) is None
    # ...but truncation plus forgery is caught at the forged position.
    forged = dict(json.loads(lines[5]))
    forged["payload"] = {"forged": True}
    lines2 = lines[:5] + [canonical_json(forged)]
    path.write_text("\n".join(lines2) + "\n", encoding="utf-8")
    assert verify_file(path) == 5


def test_reorder_detected_at_first_touched_position(tmp_path):
    path = make_file(tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2], lines[6] = lines[6], lines[2]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert verify_file(path) == 2


def test_garbage_line_detected(tmp_path):
    path = make_file(tmp_path)
    data = path.read_bytes().splitlines()
    data[3] = b"not json at all"
    path.write_bytes(b"\n".join(data) + b"\n")
    assert verify_file(path) == 3
    data[3] = b'\xff\xfe broken utf8"'
    path.write_bytes(b"\n".join(data) + b"\n")
    assert verify_file(path) == 3


# JSON that the parser refuses with something other than a JSONDecodeError:
# an integer past the int-to-str digit limit (a ValueError) and nesting
# past the recursion limit (a RecursionError).
_UNREADABLE = (
    b'{"actor":"a","payload":{"n":' + b"9" * 5000 + b"}}",
    b"[" * 100_000,
)


@pytest.mark.parametrize("line", _UNREADABLE, ids=["long-int", "deep"])
def test_unreadable_line_is_bad_at_its_seq(tmp_path, line):
    path = make_file(tmp_path, 6)
    ledger = AuditLedger(str(path))
    try:
        assert ledger.verify() is None
        with open(path, "ab") as fh:
            fh.write(line + b"\n")
        assert verify_file(path) == 6
        assert ledger.verify() == 6
    finally:
        ledger.close()


def _raw_hash_line(obj_text: str) -> bytes:
    """`obj_text` with `,"hash":"<h>"` put after its first member, where h
    is the SHA-256 of `obj_text`'s bytes: self-consistent under the byte
    rule whatever its spacing, key order or escapes."""
    body = obj_text.encode("utf-8")
    digest = hashlib.sha256(body).hexdigest()
    at = body.index(b",")  # the end of the first member
    return body[:at] + b',"hash":"' + digest.encode() + b'"' + body[at:]


def _body_text(ledger: AuditLedger, payload: str, extra: str = "") -> str:
    """A non-canonical body for the ledger's next event: keys out of
    order, spaces after separators, `payload` spliced in as written."""
    seq, prev = len(ledger), _last_hash(ledger)
    return (
        f'{{"actor": "late", "seq": {seq}, "kind": "{KINDS[0]}", '
        f'"prev_hash": "{prev}", "timestamp": {seq}, "payload": {payload}{extra}}}'
    )


def test_self_consistent_non_canonical_line_verifies(tmp_path):
    path = make_file(tmp_path, 4)
    ledger = AuditLedger(str(path))
    text = _body_text(ledger, '{"b": 1, "a": "\\u00e9"}')
    ledger.close()
    line = _raw_hash_line(text)
    with open(path, "ab") as fh:
        fh.write(line + b"\n")
    assert line != canonical_json(json.loads(line)).encode("utf-8")
    assert verify_file(path) is None
    # The next append chains from it, like from any accepted line.
    again = AuditLedger(str(path))
    fill(again, 2)
    assert again.verify() is None
    again.close()
    assert verify_file(path) is None


_PRE_BYTE_RULE = Path(__file__).parent / "data" / "ledger_pre12.log"


def _escape_first_hash_digit(raw: bytes) -> bytes:
    at = raw.index(b',"hash":"') + len(b',"hash":"')
    return raw[:at] + b"\\u%04x" % raw[at] + raw[at + 1 :]


_RE_SERIALIZED = {
    "spaces-and-ascii-escapes": lambda raw: json.dumps(json.loads(raw)).encode("utf-8"),
    "inner-space": lambda raw: canonical_json(json.loads(raw)).replace('{"actor"', '{ "actor"', 1).encode("utf-8"),
    "reversed-keys": lambda raw: json.dumps(
        dict(reversed(json.loads(raw).items())), ensure_ascii=False, separators=(",", ":")
    ).encode("utf-8"),
    "escaped-hash-digit": _escape_first_hash_digit,
}


@pytest.mark.parametrize("how", sorted(_RE_SERIALIZED))
def test_re_serialized_genuine_line_is_bad(tmp_path, how):
    # The same event read back and written another way: the byte rule
    # pins bytes, not meaning. Line 3 holds non-ASCII text and escapes.
    lines = _PRE_BYTE_RULE.read_bytes().splitlines()
    changed = _RE_SERIALIZED[how](lines[3])
    assert changed != lines[3] and json.loads(changed) == json.loads(lines[3])
    lines[3] = changed
    path = tmp_path / "audit.log"
    path.write_bytes(b"\n".join(lines) + b"\n")
    assert verify_file(path) == 3


@pytest.mark.parametrize(
    "payload, extra",
    [
        ('{"i": 1, "i": 2}', ""),  # a key repeated inside payload
        ('{"i": 1}', ', "actor": "late"'),  # ...at the top level
        ('{"i": {"j": [{"k": 1, "k": 1}]}}', ""),  # ...deeper, with equal values
        ('{"i": 1}', ', "note": 1'),  # an eighth key
        ("[1]", ""),  # a payload that is not an object
    ],
)
def test_self_consistent_line_that_is_not_one_event_is_bad(tmp_path, payload, extra):
    path = make_file(tmp_path, 3)
    ledger = AuditLedger(str(path))
    text = _body_text(ledger, payload, extra)
    ledger.close()
    with open(path, "ab") as fh:
        fh.write(_raw_hash_line(text) + b"\n")
    assert verify_file(path) == 3


def test_the_cut_must_hold_the_hash_it_checks(ledger):
    # A parsed hash that matches the cut bytes is not enough: the 64
    # digits cut out must be that hash, or the cut could take in part of
    # a longer, escaped hash field and leave its tail in the hashed bytes.
    fill(ledger, 1)
    raw = Path(ledger.path).read_bytes()
    obj = json.loads(raw)
    assert audit._check_line(raw, obj, 0, GENESIS) == obj["hash"]
    assert audit._check_line(raw.replace(obj["hash"].encode(), b"0" * 64), obj, 0, GENESIS) is None


_TRICKY = (
    ',"hash":"' + "0" * 64 + '"',
    'back\\slash \\" and \\u0041',
    "ctl \x00\x07\t\n\r\x1f",
    "é 日本 \U0001f512 \u2028",
)


def test_tricky_payloads_verify(tmp_path):
    path = tmp_path / "audit.log"
    ledger = AuditLedger(str(path))
    for i, text in enumerate(_TRICKY):
        ledger.append(i, text, KINDS[i], {"a": text, "hash": "f" * 64, "n": {"a": 1, "hash": text}, text: [text]})
    assert ledger.verify() is None
    ledger.close()
    assert verify_file(path) is None
    assert b',"hash":"' in path.read_bytes().splitlines()[0].split(b'"payload"')[1]


def test_ledger_written_before_the_byte_rule_verifies():
    # Written by `append` while verification still re-encoded each event
    # canonically: 40 events of all 15 kinds, with escapes, control
    # characters, non-ASCII text and nested `hash` keys.
    assert verify_file(_PRE_BYTE_RULE) is None
    ledger = AuditLedger(str(_PRE_BYTE_RULE))
    try:
        assert len(ledger) == 40
        assert {e.kind for e in ledger.events()} == set(KINDS)
        assert ledger.verify() is None
    finally:
        ledger.close()


_JSON_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_JSON_TEXT, inner, max_size=3),
    max_leaves=8,
)


@given(
    events=st.lists(
        st.tuples(st.integers(0, 2**53), _JSON_TEXT, st.sampled_from(KINDS), st.dictionaries(_JSON_TEXT, _JSON_VALUES, max_size=4)),
        min_size=1,
        max_size=4,
    )
)
def test_byte_rule_gives_compute_hash_for_every_appended_line(events):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "audit.log"
        ledger = AuditLedger(str(path))
        try:
            written = [ledger.append(*event) for event in events]
            lines = path.read_bytes().splitlines(keepends=True)
            prev = GENESIS
            for event, raw in zip(written, lines):
                obj = audit._DECODER.decode(raw.decode("utf-8"))
                expected = compute_hash(event.seq, event.timestamp, event.actor, event.kind, event.payload, event.prev_hash)
                assert audit._check_line(raw, obj, event.seq, prev) == expected == event.hash
                prev = expected
            assert ledger.verify() is None
        finally:
            ledger.close()


def _last_hash(ledger: AuditLedger) -> str:
    """The hash the ledger's next append chains to, as its open left it."""
    return ledger._last


def _next_line(ledger: AuditLedger, payload: dict) -> bytes:
    """The line the ledger's next append would write, without its newline."""
    seq, prev = len(ledger), _last_hash(ledger)
    digest = compute_hash(seq, seq, "late", KINDS[0], payload, prev)
    event = {
        "seq": seq,
        "timestamp": seq,
        "actor": "late",
        "kind": KINDS[0],
        "payload": payload,
        "prev_hash": prev,
        "hash": digest,
    }
    return canonical_json(event).encode("utf-8")


_MUTATIONS = st.one_of(
    st.tuples(st.just("flip"), st.floats(0, 1, exclude_max=True), st.integers(0, 7)),
    st.tuples(st.just("truncate"), st.floats(0, 1, exclude_max=True)),
    st.tuples(st.just("insert"), st.floats(0, 1), st.binary(min_size=1, max_size=1)),
    st.tuples(
        st.just("garbage"),
        st.binary(max_size=20).filter(lambda b: b"\n" not in b)
        | st.sampled_from((b"9" * 5000, b"[" * 100_000)),
    ),
    st.tuples(st.just("append"), st.integers(1, 4)),
    st.tuples(st.just("torn"), st.just(1.0) | st.floats(0, 1, exclude_min=True)),
)


def _mutate(ledger: AuditLedger, path: Path, mutation) -> None:
    kind, *arg = mutation
    data = path.read_bytes()
    if kind == "flip":
        if not data:
            return
        pos = int(arg[0] * len(data))
        path.write_bytes(data[:pos] + bytes([data[pos] ^ (1 << arg[1])]) + data[pos + 1 :])
    elif kind == "truncate":
        path.write_bytes(data[: int(arg[0] * len(data))])
    elif kind == "insert":
        pos = int(arg[0] * len(data))
        path.write_bytes(data[:pos] + arg[1] + data[pos:])
    elif kind == "garbage":
        path.write_bytes(data + arg[0] + b"\n")
    elif kind == "append":
        fill(ledger, arg[0])
    else:  # torn: some or all of a valid next line, with no newline
        line = _next_line(ledger, {"torn": True})
        path.write_bytes(data + line[: max(1, int(arg[0] * len(line)))])


@given(
    n=st.integers(1, 8),
    mutations=st.lists(_MUTATIONS, min_size=1, max_size=3),
)
def test_memoized_verify_matches_verify_file(n, mutations):
    # The memo is seeded by a clean verify; after each mutation the
    # resumed check must give exactly the full scan's answer.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "audit.log"
        ledger = AuditLedger(str(path))
        try:
            fill(ledger, n)
            assert ledger.verify() is None
            for mutation in mutations:
                _mutate(ledger, path, mutation)
                assert ledger.verify() == verify_file(str(path)), mutation
                assert ledger.verify() == verify_file(str(path)), mutation
        finally:
            ledger.close()


def test_repeat_verify_checks_only_new_lines(tmp_path, monkeypatch):
    checked = []
    plain = audit._check_line

    def counted(raw, obj, position, prev_hash):
        checked.append(position)
        return plain(raw, obj, position, prev_hash)

    monkeypatch.setattr(audit, "_check_line", counted)
    path = tmp_path / "audit.log"
    ledger = AuditLedger(str(path))
    fill(ledger, 20)
    assert ledger.verify() is None
    assert len(checked) == 20
    checked.clear()
    assert ledger.verify() is None
    assert checked == []
    fill(ledger, 3)
    assert ledger.verify() is None
    assert checked == [20, 21, 22]
    # A good last line with no newline is rechecked until it gets one.
    checked.clear()
    with open(path, "ab") as fh:
        fh.write(_next_line(ledger, {"torn": True}))
    assert ledger.verify() is None
    assert ledger.verify() is None
    assert checked == [23, 23]
    ledger.close()


def test_corrupt_file_rejected_on_load(tmp_path):
    path = tmp_path / "audit.log"
    path.write_text("{]\n", encoding="utf-8")
    with pytest.raises(StorageFailure):
        AuditLedger(str(path))


def test_non_utf8_line_refuses_to_start_with_storage_failure(tmp_path):
    good = make_file(tmp_path, 3).read_bytes()
    (tmp_path / "audit.log").write_bytes(good + b"\xff\xfe\n")
    with pytest.raises(StorageFailure, match="line 4"):
        AuditLedger(str(tmp_path / "audit.log"))
    (tmp_path / "audit.log").write_bytes(b"\xff\xfe\n")
    with pytest.raises(StorageFailure, match="line 1"):
        BrokerCore(BrokerConfig(data_dir=str(tmp_path)))


def test_append_to_a_closed_ledger_fails(tmp_path):
    ledger = AuditLedger(str(tmp_path / "audit.log"))
    fill(ledger, 2)
    ledger.close()
    with pytest.raises(StorageFailure):
        ledger.append(9, "late", KINDS[0], {})
    assert len(ledger) == 2
    again = AuditLedger(str(tmp_path / "audit.log"))
    assert len(again) == 2
    again.close()


# Three appends, then a fourth under a file size cap that lets only 10 of
# its bytes reach the file, then a fifth with the cap lifted. SIGXFSZ is
# ignored, so the capped write fails with EFBIG instead of ending the
# process. With "refuse-truncate", cutting the file back fails too.
_CAPPED_APPEND = """
import os, resource, signal, sys
from enclave_broker.audit import KINDS, AuditLedger, verify_file
from enclave_broker.errors import StorageFailure

signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
path, mode = sys.argv[1:]
if mode == "refuse-truncate":
    def refuse(fd, size):
        raise OSError("truncate refused")
    os.ftruncate = refuse
ledger = AuditLedger(path)
for i in range(3):
    ledger.append(i, "a", KINDS[0], {"i": i})
soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
resource.setrlimit(resource.RLIMIT_FSIZE, (os.path.getsize(path) + 10, hard))
outcomes = []
for i in (3, 4):
    try:
        ledger.append(i, "a", KINDS[0], {"i": i})
        outcomes.append("ok")
    except StorageFailure:
        outcomes.append("StorageFailure")
    resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
ledger.close()
print(outcomes, len(ledger), verify_file(path))
"""


def _capped_append(tmp_path, mode: str) -> tuple[str, bytes]:
    path = tmp_path / "audit.log"
    src = str(Path(audit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_APPEND, str(path), mode],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip(), path.read_bytes()


@pytest.mark.skipif(os.name != "posix", reason="needs RLIMIT_FSIZE and SIGXFSZ")
def test_a_refused_append_leaves_the_file_as_it_was(tmp_path):
    out, data = _capped_append(tmp_path, "cut-back")
    # The refused event never reaches the file, not even with the next
    # append, so the chain holds and the next event takes its seq.
    assert out == "['StorageFailure', 'ok'] 4 None"
    lines = data.splitlines()
    assert [json.loads(line)["seq"] for line in lines] == [0, 1, 2, 3]
    assert json.loads(lines[3])["payload"] == {"i": 4}


@pytest.mark.skipif(os.name != "posix", reason="needs RLIMIT_FSIZE and SIGXFSZ")
def test_a_refused_append_that_cannot_be_cut_back_closes_the_ledger(tmp_path):
    out, data = _capped_append(tmp_path, "refuse-truncate")
    # The 10 bytes stay as a torn tail, the first bad seq, and no append
    # may follow them.
    assert out == "['StorageFailure', 'StorageFailure'] 3 3"
    lines = data.split(b"\n")
    assert len(lines) == 4 and len(lines[3]) == 10


def test_open_holds_no_events(tmp_path):
    # The open keeps the count and the last hash, not the 5k events.
    path = make_file(tmp_path, 5000)
    tracemalloc.start()
    try:
        ledger = AuditLedger(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    try:
        assert len(ledger) == 5000
        assert peak < 1 << 20, peak
    finally:
        ledger.close()


def _chain_lines(n: int) -> list[bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "audit.log"
        ledger = AuditLedger(str(path))
        fill(ledger, n)
        ledger.close()
        return path.read_bytes().splitlines(keepends=True)


_CHAIN = _chain_lines(8)
_OPEN_LINES = st.one_of(
    st.just("event"),
    st.sampled_from((b"\n", b"  \n", b"\t\r\n", b"\r\n", "\u00a0\u2028\n".encode("utf-8"))),
    st.binary(max_size=12).filter(lambda b: b"\n" not in b).map(lambda b: b + b"\n"),
    st.sampled_from((b"[]\n", b"1\n", b"null\n", b'"seq"\n', b'{"seq": 0}\n', b"{\n", b"[" * 3000 + b"\n")),
    st.sampled_from(audit._FIELDS).map(lambda f: ("missing", f)),
)


def _open_outcome(open_fn, path, refusals):
    try:
        return open_fn(path)
    except refusals:
        return "refused"


@given(lines=st.lists(_OPEN_LINES, max_size=8), torn=st.none() | st.floats(0, 1, exclude_min=True))
def test_open_matches_the_event_list_load(lines, torn):
    # Same count, last hash, or refusal as the load that kept every event,
    # over blank, garbage and half-event lines and torn tails. The old
    # load refused an undecodable line with UnicodeDecodeError, and JSON
    # nested too deep with RecursionError; the open refuses both with
    # StorageFailure, so any of these counts as a refusal.
    events = iter(_CHAIN)
    data = b""
    for line in lines:
        if line == "event":
            data += next(events, _CHAIN[0])
        elif isinstance(line, tuple):
            obj = json.loads(next(events, _CHAIN[0]))
            del obj[line[1]]
            data += canonical_json(obj).encode("utf-8") + b"\n"
        else:
            data += line
    if torn is not None:
        line = next(events, _CHAIN[0]).rstrip(b"\n")
        data += line[: max(1, int(torn * len(line)))]

    def reopened(path):
        ledger = AuditLedger(path)
        ledger.close()
        return len(ledger), _last_hash(ledger)

    def reference(path):
        events = load_events(path)
        return len(events), events[-1].hash if events else GENESIS

    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "audit.log")
        Path(path).write_bytes(data)
        expected = _open_outcome(reference, path, (StorageFailure, UnicodeDecodeError, ValueError, RecursionError))
        assert _open_outcome(reopened, path, StorageFailure) == expected
        assert Path(path).read_bytes() == data
