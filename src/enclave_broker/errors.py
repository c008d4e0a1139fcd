"""Error types shared across the broker.

Every error carries a stable ``code`` string; the wire protocol and the
CLI surface that code verbatim, so the class names here double as the
protocol's error vocabulary.
"""

from __future__ import annotations


class BrokerError(Exception):
    """Base class for every error the broker reports."""

    code = "BrokerError"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)


class ParseError(BrokerError):
    """Rejected input text, with a 1-based line and column position."""

    code = "ParseError"

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.detail = message
        self.line = line
        self.column = column


class StateError(BrokerError):
    code = "StateError"


class ContractNotLive(BrokerError):
    code = "ContractNotLive"


class ManTrapViolation(BrokerError):
    code = "ManTrapViolation"


class UnknownSource(BrokerError):
    code = "UnknownSource"


class UnknownColumn(BrokerError):
    code = "UnknownColumn"


class DuplicateTable(BrokerError):
    code = "DuplicateTable"


class TypeMismatch(BrokerError):
    code = "TypeMismatch"


class DuplicateContract(BrokerError):
    code = "DuplicateContract"


class UnknownEntity(BrokerError):
    """No contract, enclave, session, or request with the given id."""

    code = "UnknownEntity"


class EnclaveNotServing(BrokerError):
    code = "EnclaveNotServing"


class BadToken(BrokerError):
    code = "BadToken"


class ContractExpired(BrokerError):
    code = "ContractExpired"


class SessionDead(BrokerError):
    code = "SessionDead"


class BadConfig(BrokerError):
    code = "BadConfig"


class StorageFailure(BrokerError):
    code = "StorageFailure"


class UnknownAccount(BrokerError):
    code = "UnknownAccount"


class ValidationFailed(BrokerError):
    code = "ValidationFailed"


class SelfApproval(BrokerError):
    code = "SelfApproval"


class DuplicateApproval(BrokerError):
    code = "DuplicateApproval"
