"""The broker: wiring, serialization, persistence, clock, and sweep.

One process owns everything: the table store, the contract registry,
the enclaves, the gateway, the monitor, the break-glass service, and
the audit ledger. Every protocol op runs under one lock, so observable
behavior is that of a single logical writer. Expiry is lazy: nothing
happens until time moves and someone sweeps.
"""

from __future__ import annotations

import heapq
import json
import re
import secrets
import threading
import urllib.parse
from dataclasses import dataclass, field, replace
from itertools import count
from operator import itemgetter
from pathlib import Path

from . import audit as audit_mod
from . import breakglass as bg_mod
from . import contracts as contracts_mod
from . import enclave as enclave_mod
from .audit import AuditEvent, AuditLedger
from .breakglass import BreakGlassService
from .canonical import canonical_bytes
from .clock import LOGICAL, WALL, LogicalClock, WallClock
from .contracts import ACTIVE, REVOKED, DataContract, canonical_encode, is_live, validate_contract
from .errors import (
    BadConfig,
    BadToken,
    BrokerError,
    DuplicateContract,
    StateError,
    StorageFailure,
    UnknownEntity,
    ValidationFailed,
)
from .contract_dsl import parse_contract
from .gateway import QueryGateway
from .monitor import (
    DEFAULT_PROBING_THRESHOLD,
    DEFAULT_PROBING_WINDOW,
    DEFAULT_VOLUME_THRESHOLD,
    AccessMonitor,
)
from .store import TableStore, load_table_csv

# The wire surface: op -> {arg: type}; the handler is the BrokerCore
# method named after the op. A "?" suffix marks an optional arg; an
# optional arg sent as null counts as absent. `int` args refuse
# booleans. `open_session` also gets a `token`, from args or the
# envelope, which it checks itself (BadToken, not BadRequest).
OPS = {
    "submit_contract": {"text": str},
    "activate_contract": {"contract_id": str},
    "revoke_contract": {"contract_id": str, "reason?": str},
    "broker_enclave": {"contract_id": str},
    "open_session": {"enclave_id": str},
    "query": {"session_id": str, "text": str},
    "close_session": {"session_id": str},
    "alerts": {"rule?": str, "contract_id?": str, "enclave_id?": str, "since?": int, "until?": int},
    "audit_export": {},
    "audit_verify": {},
    "bg_request": {"account": str, "template": str, "justification?": str},
    "bg_approve": {"request_id": str, "approver": str},
    "bg_deny": {"request_id": str, "operator?": str},
    "sweep": {},
    "tick": {"seconds": int},
}
_TYPE_NAMES = {str: "a string", int: "an integer"}
# JSON can carry a lone UTF-16 surrogate ("\ud800"); UTF-8 cannot, so
# neither the ledger nor a reply could record a string holding one.
_LONE_SURROGATE = re.compile("[\ud800-\udfff]")


@dataclass
class BrokerConfig:
    data_dir: str  # contracts, clock.json and audit.log
    tables: dict[str, str] = field(default_factory=dict)  # qualified name -> CSV path
    volume_threshold: int = DEFAULT_VOLUME_THRESHOLD
    probing_threshold: int = DEFAULT_PROBING_THRESHOLD
    probing_window: int = DEFAULT_PROBING_WINDOW
    bg_quorum: int = bg_mod.DEFAULT_QUORUM
    bg_window: int = bg_mod.DEFAULT_ACTIVATION_WINDOW
    bg_accounts: tuple[str, ...] = ()
    clock_mode: str = LOGICAL  # "Logical" | "Wall"


class BrokerCore:
    """All broker state and every protocol op, minus the socket.

    `contracts` and `enclaves` keep every contract and enclave this
    process has held, in registration and creation order. The sweep and
    `revoke_contract` read three indexes instead, so each costs what is
    due, not what was ever made:

    - `_deadlines`: a heap of `(activated_at + ttl, rank, contract_id)`,
      with `rank` the contract's place in registration order. An entry
      is pushed each time a contract becomes Active, so every Active
      contract has exactly one. An entry whose contract is no longer
      Active is stale: it was revoked or already expired, and the sweep
      skips it when it pops it.
    - `_open`: contract id -> {enclave id: (creation rank, enclave)} of
      the contract's enclaves not yet Expired or Revoked, in creation
      order. A contract with no open enclave has no entry.
    - `_dead`: the contracts that are Revoked or Expired and still have
      an open enclave, which the sweep shuts: those a sweep has just
      expired, and those whose shutdown the ledger refused.
    """

    def __init__(self, config: BrokerConfig):
        if config.clock_mode not in (WALL, LOGICAL):
            raise BadConfig(f"unknown clock mode {config.clock_mode!r}")
        self.config = config
        self._lock = threading.RLock()
        self._data_dir = Path(config.data_dir)
        self._contracts_dir = self._data_dir / "contracts"
        self._contracts_dir.mkdir(parents=True, exist_ok=True)
        if config.clock_mode == WALL:
            self.clock = WallClock()
        else:
            self.clock = LogicalClock(self._load_clock())
        self.store = TableStore()
        for name, path in config.tables.items():
            load_table_csv(self.store, name, path)
        self.ledger = AuditLedger(str(self._data_dir / "audit.log"))
        self.monitor = AccessMonitor(
            config.volume_threshold, config.probing_threshold, config.probing_window
        )
        self.gateway = QueryGateway(self.emit)
        self.break_glass = BreakGlassService(config.bg_quorum, config.bg_window)
        for account in config.bg_accounts:
            self.break_glass.register_account(account)
        self.contracts: dict[str, DataContract] = {}
        self.enclaves: dict[str, enclave_mod.EnclaveInstance] = {}
        self.tokens: dict[str, str] = {}  # principal -> bearer token
        self._rank: dict[str, int] = {}  # contract id -> place in registration order
        self._deadlines: list[tuple[int, int, str]] = []
        self._latest_activation = 0  # the latest activated_at of any contract held
        self._open: dict[str, dict[str, tuple[int, enclave_mod.EnclaveInstance]]] = {}
        self._born = count()  # enclave creation ranks
        self._dead: set[str] = set()
        self._load_contracts()

    # ---------------- persistence ----------------

    def _load_clock(self) -> int:
        path = self._data_dir / "clock.json"
        if not path.exists():
            return 0
        return int(json.loads(path.read_text(encoding="utf-8"))["now"])

    def _save_clock(self):
        if self.clock.mode == LOGICAL:
            _write_file(self._data_dir / "clock.json", canonical_bytes({"now": self.clock.now()}))

    def _contract_path(self, contract_id: str) -> Path:
        safe = urllib.parse.quote(contract_id, safe="")
        return self._contracts_dir / f"{safe}.json"

    def _hold(self, c: DataContract):
        """Hold `c` in `contracts` and in the sweep's indexes."""
        contract_id = c.contract_id
        rank = self._rank.setdefault(contract_id, len(self._rank))
        self.contracts[contract_id] = c
        if c.status == ACTIVE:
            heapq.heappush(self._deadlines, (c.activated_at + c.ttl, rank, contract_id))
            self._latest_activation = max(self._latest_activation, c.activated_at)
        elif contract_id in self._open:  # Revoked or Expired with an enclave open
            self._dead.add(contract_id)

    def _save_contract(self, c: DataContract):
        """Hold `c` and write its file. A failed write answers
        StorageFailure; memory keeps `c`, as the ledger already does."""
        self._hold(c)
        _write_file(self._contract_path(c.contract_id), canonical_encode(c))

    def _load_contracts(self):
        for path in sorted(self._contracts_dir.glob("*.json")):
            self._hold(DataContract.from_json(json.loads(path.read_text(encoding="utf-8"))))

    # ---------------- lookups ----------------

    def _contract(self, contract_id: str) -> DataContract:
        if contract_id not in self.contracts:
            raise UnknownEntity(f"no contract {contract_id!r}")
        return self.contracts[contract_id]

    def _enclave(self, enclave_id: str) -> enclave_mod.EnclaveInstance:
        if enclave_id not in self.enclaves:
            raise UnknownEntity(f"no enclave {enclave_id!r}")
        return self.enclaves[enclave_id]

    def _session(self, session_id: str):
        if session_id not in self.gateway.sessions:
            raise UnknownEntity(f"no session {session_id!r}")
        return self.gateway.sessions[session_id]

    def _check_new_id(self, contract_id: str):
        if contract_id in self.contracts:
            raise DuplicateContract(f"contract {contract_id!r} already exists")

    def _token_for(self, principal: str) -> str:
        if principal not in self.tokens:
            self.tokens[principal] = secrets.token_hex(16)
        return self.tokens[principal]

    # ---------------- the event path ----------------

    def emit(self, actor: str, kind: str, payload: dict) -> AuditEvent:
        """The one ledger writer. The append is the commit point; the
        monitor then scores the committed event, and each alert it raises
        is emitted in turn as an AlertRaised event."""
        event = self.ledger.append(self.clock.now(), actor, kind, payload)
        for alert in self.monitor.observe(event):
            self.emit("monitor", audit_mod.ALERT_RAISED, alert.ledger_payload())
        return event

    def _record_transition(self, e: enclave_mod.EnclaveInstance, from_state, to_state, cause) -> None:
        """The `record` of every enclave transition: the enclave module
        makes a transition only once this has appended its event.

        So `_open` is kept here, once the append has returned: a defined
        enclave joins its contract's entry, and one bound for Expired or
        Revoked leaves it. An entry left empty is deleted, and its
        contract leaves `_dead`."""
        self.emit(
            "broker",
            audit_mod.ENCLAVE_TRANSITION,
            {
                "enclave_id": e.enclave_id,
                "contract_id": e.contract_id,
                "from": from_state,
                "to": to_state,
                "cause": cause,
            },
        )
        contract_id = e.contract_id
        if from_state is None:
            self._open.setdefault(contract_id, {})[e.enclave_id] = (next(self._born), e)
        elif to_state in enclave_mod.TERMINAL:
            open_ = self._open[contract_id]
            del open_[e.enclave_id]
            if not open_:
                del self._open[contract_id]
                self._dead.discard(contract_id)

    # ---------------- contract ops ----------------

    def submit_contract(self, text: str) -> dict:
        c = parse_contract(text)
        self._check_new_id(c.contract_id)
        report = validate_contract(c, self.store.catalog())
        if not report.ok:
            problems = "; ".join(f"{code}: {msg}" for code, msg in report.problems)
            raise ValidationFailed(problems)
        # The append is the commit point: a contract the ledger cannot
        # record is never registered.
        self.emit(
            "operator",
            audit_mod.CONTRACT_SUBMITTED,
            {"contract_id": c.contract_id, "principal": c.principal, "contract": c.to_json()},
        )
        self._save_contract(c)
        return {"contract_id": c.contract_id, "status": c.status}

    def activate_contract(self, contract_id: str) -> dict:
        c = contracts_mod.activate(self._contract(contract_id), self.clock.now())
        self.emit(
            "operator",
            audit_mod.CONTRACT_ACTIVATED,
            {"contract_id": c.contract_id, "activated_at": c.activated_at, "ttl": c.ttl},
        )
        self._save_contract(c)
        token = self._token_for(c.principal)
        return {
            "contract_id": c.contract_id,
            "status": c.status,
            "activated_at": c.activated_at,
            "expires_at": c.activated_at + c.ttl,
            "token": token,
        }

    def revoke_contract(self, contract_id: str, reason: str = "") -> dict:
        c = self._contract(contract_id)
        # A Revoked contract with an enclave still open is one whose
        # shutdown the ledger refused: a repeat revoke finishes it and
        # records no second revocation.
        if c.status != REVOKED or contract_id not in self._open:
            c = contracts_mod.revoke(c)
            self.emit(
                "operator",
                audit_mod.CONTRACT_REVOKED,
                {"contract_id": c.contract_id, "reason": reason},
            )
            self._save_contract(c)
        closed = self._shut_enclaves_for(contract_id, enclave_mod.CAUSE_REVOCATION)
        return {"contract_id": contract_id, "status": c.status, "revoked_enclaves": closed}

    def _expire_contract(self, c: DataContract):
        expired = contracts_mod.expire(c)
        self.emit(
            "broker",
            audit_mod.CONTRACT_EXPIRED,
            {"contract_id": c.contract_id, "expired_at": self.clock.now()},
        )
        self._save_contract(expired)

    def _shut(self, e: enclave_mod.EnclaveInstance, cause: str):
        """Close both doors of `e` and wipe its segments, which ends its
        sessions. A shutdown the ledger refuses is not made; a repeat
        revoke or the next sweep makes it."""
        enclave_mod.expire_or_revoke(e, cause, self._record_transition)

    def _shut_enclaves_for(self, contract_id: str, cause: str) -> list[str]:
        """Shut the open enclaves of one contract, in creation order."""
        hit = [e for _, e in self._open.get(contract_id, {}).values()]
        for e in hit:
            self._shut(e, cause)
        return [e.enclave_id for e in hit]

    # ---------------- enclave ops ----------------

    def broker_enclave(self, contract_id: str) -> dict:
        """The composed happy path: define, provision, seal, open the gate.
        Each step is made once its event is appended; a refused append
        leaves the enclave in its last recorded state, for the sweep to
        close once its contract is no longer live."""
        c = self._contract(contract_id)
        now = self.clock.now()
        record = self._record_transition
        e = enclave_mod.create_enclave(c, now, record)
        self.enclaves[e.enclave_id] = e
        enclave_mod.provision(e, c, self.store, now, record)
        enclave_mod.seal(e, record)
        enclave_mod.open_gate(e, record)
        return {"enclave_id": e.enclave_id, "state": e.state}

    # ---------------- session and query ops ----------------

    def open_session(self, enclave_id: str, token) -> dict:
        if not isinstance(token, str):
            raise BadToken("no token presented")
        e = self._enclave(enclave_id)
        c = self._contract(e.contract_id)
        expected = self.tokens.get(c.principal)
        s = self.gateway.open_session(e, c, expected, token, self.clock.now())
        return {"session_id": s.session_id, "enclave_id": enclave_id}

    def query(self, session_id: str, text: str) -> dict:
        s = self._session(session_id)
        e = self._enclave(s.enclave_id)
        c = self._contract(s.contract_id)
        result = self.gateway.execute(s, e, c, text, self.clock.now())
        return result.to_json()

    def close_session(self, session_id: str) -> dict:
        s = self._session(session_id)
        c = self._contract(s.contract_id)
        self.gateway.close_session(s, c.principal)
        return {"session_id": session_id, "closed": True}

    # ---------------- monitor and audit ops ----------------

    def alerts(self, rule=None, contract_id=None, enclave_id=None, since=None, until=None) -> dict:
        found = self.monitor.alerts(rule, contract_id, enclave_id, since, until)
        return {"alerts": [a.to_json() for a in found]}

    def audit_export(self) -> dict:
        return {"events": [e.to_json() for e in self.ledger.events()]}

    def audit_verify(self) -> dict:
        bad = self.ledger.verify()
        if bad is None:
            return {"verified": True, "events": len(self.ledger)}
        return {"verified": False, "first_bad_seq": bad, "events": len(self.ledger)}

    # ---------------- break-glass ops ----------------

    def bg_request(self, account: str, template: str, justification: str = "") -> dict:
        parsed = parse_contract(template)
        self._check_new_id(parsed.contract_id)

        def record(req: bg_mod.BreakGlassRequest) -> None:
            self.emit(
                account,
                audit_mod.BREAK_GLASS_REQUESTED,
                {
                    "request_id": req.request_id,
                    "account": account,
                    "contract_id": parsed.contract_id,
                    "justification": justification,
                },
            )

        req = self.break_glass.request_access(account, parsed, justification, self.store.catalog(), record)
        return {"request_id": req.request_id, "status": req.status, "quorum": req.quorum}

    def bg_approve(self, request_id: str, approver: str) -> dict:
        def record(req: bg_mod.BreakGlassRequest) -> None:
            self.emit(
                approver,
                audit_mod.BREAK_GLASS_APPROVED,
                {
                    "request_id": request_id,
                    "approver": approver,
                    # The count with this approval, which is added next.
                    "approvals": len(req.approvals) + 1,
                    "quorum": req.quorum,
                },
            )

        req, quorum_met = self.break_glass.approve(request_id, approver, record)
        if not quorum_met:
            return {"request_id": request_id, "status": req.status, "approvals": list(req.approvals)}
        return self._bg_activate(req)

    def _bg_activate(self, req: bg_mod.BreakGlassRequest) -> dict:
        """Quorum crossed: activate, alert, provision, serve, atomically.
        The Critical alert is raised by the monitor as it observes the
        BreakGlassActivated event."""
        template = replace(req.template, ttl=req.activation_window)
        self._check_new_id(template.contract_id)
        c = contracts_mod.activate(template, self.clock.now())
        self.emit(
            "broker",
            audit_mod.BREAK_GLASS_ACTIVATED,
            {
                "request_id": req.request_id,
                "account": req.account_id,
                "contract_id": c.contract_id,
                "activated_at": c.activated_at,
                "activation_window": req.activation_window,
            },
        )
        self._save_contract(c)
        token = self._token_for(c.principal)
        self.break_glass.mark_activated(req.request_id, c.contract_id)
        enclave_info = self.broker_enclave(c.contract_id)
        return {
            "request_id": req.request_id,
            "status": req.status,
            "approvals": list(req.approvals),
            "contract_id": c.contract_id,
            "enclave_id": enclave_info["enclave_id"],
            "expires_at": c.activated_at + c.ttl,
            "token": token,
        }

    def bg_deny(self, request_id: str, operator: str = "operator") -> dict:
        def record(req: bg_mod.BreakGlassRequest) -> None:
            self.emit(
                operator,
                audit_mod.BREAK_GLASS_DENIED,
                {"request_id": request_id, "account": req.account_id},
            )

        req = self.break_glass.deny(request_id, record)
        return {"request_id": request_id, "status": req.status}

    # ---------------- clock and sweep ----------------

    def tick(self, seconds: int) -> dict:
        if self.clock.mode != LOGICAL:
            raise StateError("tick requires the logical clock")
        now = self.clock.tick(seconds)
        self._save_clock()
        return {"now": now}

    def sweep(self) -> dict:
        """Lazy expiry: retire everything whose time has passed.

        Break-glass teardown runs first so its enclaves carry the
        BreakGlassAuto cause rather than plain Expiry. Then the Active
        contracts that are no longer live expire, in registration order:
        the due entries popped from `_deadlines`, plus, only while the
        clock reads before the latest activation, the contracts
        activated after now. Then the open enclaves of the contracts in
        `_dead` shut, in creation order. A refused append answers
        StorageFailure; what the sweep retired before it stays retired,
        and each popped entry whose contract is still Active goes back
        on the heap for the next sweep.
        """
        now = self.clock.now()
        expired_contracts: list[str] = []
        expired_enclaves: list[str] = []
        auto_revoked: list[str] = []

        def contract_live(contract_id, at):
            c = self.contracts.get(contract_id)
            return c is not None and is_live(c, at)

        def revoke(req: bg_mod.BreakGlassRequest) -> None:
            c = self.contracts.get(req.activated_contract_id)
            if c is not None and c.status == ACTIVE:
                self._expire_contract(c)
                expired_contracts.append(c.contract_id)
            expired_enclaves.extend(
                self._shut_enclaves_for(req.activated_contract_id, enclave_mod.CAUSE_BREAK_GLASS_AUTO)
            )
            self.emit(
                "broker",
                audit_mod.BREAK_GLASS_REVOKED,
                {"request_id": req.request_id, "contract_id": req.activated_contract_id},
            )

        for req in self.break_glass.sweep(now, contract_live, revoke):
            auto_revoked.append(req.request_id)

        contracts, heap, popped = self.contracts, self._deadlines, []
        while heap and heap[0][0] <= now:
            entry = heapq.heappop(heap)
            if contracts[entry[2]].status == ACTIVE:
                popped.append(entry)
        due = popped
        if now < self._latest_activation:
            # The clock reads before an activation (a wall clock set
            # back, or a restart from a clock.json whose last write
            # failed), and a contract is not live before it is
            # activated. Those entries stay on the heap.
            due = popped + [
                entry
                for entry in heap
                if contracts[entry[2]].status == ACTIVE and now < contracts[entry[2]].activated_at
            ]
        due.sort(key=itemgetter(1))
        try:
            for entry in due:
                self._expire_contract(contracts[entry[2]])
                expired_contracts.append(entry[2])
        finally:
            for entry in popped:
                if contracts[entry[2]].status == ACTIVE:
                    heapq.heappush(heap, entry)

        shut = sorted((held for dead in self._dead for held in self._open[dead].values()), key=itemgetter(0))
        for _, e in shut:
            cause = (
                enclave_mod.CAUSE_REVOCATION
                if contracts[e.contract_id].status == REVOKED
                else enclave_mod.CAUSE_EXPIRY
            )
            self._shut(e, cause)
            expired_enclaves.append(e.enclave_id)
        return {
            "expired": expired_contracts,
            "expired_enclaves": expired_enclaves,
            "bg_auto_revoked": auto_revoked,
        }

    # ---------------- wire dispatch ----------------

    def handle(self, request: dict) -> dict:
        """One Request in, one Response out; never raises."""
        req_id = request.get("id") if isinstance(request, dict) else None
        if not _echoable(req_id):
            return _error(None, "BadRequest", "id cannot be echoed as canonical UTF-8 JSON")
        if not isinstance(request, dict) or not isinstance(request.get("op"), str):
            return _error(req_id, "BadRequest", "request must carry a string op")
        op = request["op"]
        args = request.get("args", {})
        if args is None:
            args = {}
        if not isinstance(args, dict):
            return _error(req_id, "BadRequest", "args must be an object")
        if op not in OPS:
            return _error(req_id, "UnknownOp", f"unknown op {op!r}")
        kwargs = {}
        for key, kind in OPS[op].items():
            name = key.rstrip("?")
            value = args.get(name)
            if value is None and name != key:
                continue
            if not isinstance(value, kind) or isinstance(value, bool):
                return _error(req_id, "BadRequest", f"{op}: {name} must be {_TYPE_NAMES[kind]}")
            if kind is str and _LONE_SURROGATE.search(value):
                return _error(req_id, "BadRequest", f"{op}: {name} holds a lone surrogate")
            kwargs[name] = value
        if op == "open_session":
            kwargs["token"] = args.get("token") or request.get("token")
        try:
            with self._lock:
                # Looked up per call, so a patched method takes effect.
                result = getattr(self, op)(**kwargs)
        except BrokerError as exc:
            return _error(req_id, exc.code, str(exc))
        except (TypeError, KeyError, ValueError) as exc:
            return _error(req_id, "BadRequest", f"bad args for {op}: {exc}")
        return {"id": req_id, "ok": True, "result": result}

    def close(self):
        self.ledger.close()


def _write_file(path: Path, data: bytes) -> None:
    """Replace `path` with `data` by a tmp write and a rename; a failure
    is a StorageFailure."""
    tmp = path.with_suffix(".tmp")
    try:
        tmp.write_bytes(data)
        tmp.replace(path)
    except OSError as exc:
        raise StorageFailure(f"cannot write {path}: {exc}") from None


def _echoable(value) -> bool:
    """Can a reply carry this JSON value? Not if it holds NaN or an
    infinity, which canonical JSON refuses, or a lone surrogate, which
    UTF-8 cannot encode."""
    try:
        canonical_bytes(value)
    except (ValueError, RecursionError):  # UnicodeEncodeError is a ValueError
        return False
    return True


def _error(req_id, code: str, message: str) -> dict:
    return {"id": req_id, "ok": False, "error": {"code": code, "message": message}}
