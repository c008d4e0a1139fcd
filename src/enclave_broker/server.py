"""NDJSON wire endpoint over a local unix stream socket.

One JSON Request per line in, one JSON Response per line out. A line
that is not UTF-8, not valid JSON, or longer than `_MAX_LINE` bytes gets
a BadRequest response and the stream keeps going; the protocol itself
never kills a connection.
Every reply line is `canonical_json(response)` in UTF-8 plus a newline.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import socket
import threading

from . import breakglass, monitor
from .broker import BrokerConfig, BrokerCore
from .canonical import EncodedRows, canonical_json
from .cli import table_arg
from .clock import LOGICAL, WALL

_EMPTY_ROWS = b'"rows":[]'
_MAX_LINE = 1 << 20  # the most bytes a request line may hold before its newline


def reply_line(response: dict) -> bytes:
    """`canonical_json(response)` in UTF-8 plus a newline.

    Result rows held as their encoding (`EncodedRows`: every SELECT
    result) are never decoded here: the response is encoded with
    `"rows":[]` and their bytes are spliced in between the brackets.
    Other results (SHOW TABLES) are encoded whole. "result" is the
    last key of a response and "truncated" the only key after "rows" in
    a query result, so the last `"rows":[]` in the line is the result's.
    """
    result = response.get("result")
    rows = result.get("rows") if isinstance(result, dict) else None
    if not isinstance(rows, EncodedRows):
        return canonical_json(response).encode("utf-8") + b"\n"
    line = canonical_json({**response, "result": {**result, "rows": []}}).encode("utf-8")
    cut = line.rindex(_EMPTY_ROWS) + len(_EMPTY_ROWS) - 1
    return b"".join((line[:cut], rows.wire, line[cut:], b"\n"))


class BrokerServer:
    """Accept loop plus one thread per connection, all over one core."""

    def __init__(self, core: BrokerCore, endpoint: str):
        self.core = core
        self.endpoint = endpoint
        self._sock: socket.socket | None = None
        self._thread: threading.Thread | None = None
        self._running = False

    def start(self):
        if os.path.exists(self.endpoint):
            os.unlink(self.endpoint)
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.bind(self.endpoint)
        # Owner-only whatever the umask: a caller that can connect can
        # activate a contract and get its principal's token. No client
        # can connect before `listen`.
        os.chmod(self.endpoint, 0o600)
        self._sock.listen(16)
        self._running = True
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()
        return self

    def _accept_loop(self):
        while self._running:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            threading.Thread(target=self._serve_connection, args=(conn,), daemon=True).start()

    def _serve_connection(self, conn: socket.socket):
        with conn, conn.makefile("rb") as reader:
            while line := reader.readline(_MAX_LINE + 1):
                # Longer than `_MAX_LINE` (read past, never held whole), not
                # UTF-8, not JSON, an int too long to read, or nested too
                # deep: a BadRequest, and the connection stays open.
                try:
                    if len(line) > _MAX_LINE and not line.endswith(b"\n"):
                        while line and not line.endswith(b"\n"):
                            line = reader.readline(_MAX_LINE + 1)
                        raise ValueError(f"longer than {_MAX_LINE} bytes")
                    if not line.strip():
                        continue
                    request = json.loads(line.decode("utf-8"))
                except (ValueError, RecursionError) as exc:
                    response = {
                        "id": None,
                        "ok": False,
                        "error": {"code": "BadRequest", "message": f"bad request line: {exc}"},
                    }
                else:
                    response = self.core.handle(request)
                try:
                    conn.sendall(reply_line(response))
                except OSError:
                    return

    def stop(self):
        self._running = False
        if self._sock is not None:
            self._sock.close()
        if os.path.exists(self.endpoint):
            os.unlink(self.endpoint)
        self.core.close()

    def wait(self):
        if self._thread is not None:
            self._thread.join()


def serve(config: BrokerConfig, endpoint: str) -> BrokerServer:
    """Build a core from config and start listening on `endpoint`."""
    core = BrokerCore(config)
    # Loading can leave the collector's counts just short of a full
    # collection, which the first request would then pay for: 5-6 ms in
    # the first 20k-row provision after a start. Take it before serving.
    gc.collect()
    return BrokerServer(core, endpoint).start()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="enclave-brokerd", description="Run the data access broker."
    )
    parser.add_argument("--endpoint", required=True, help="unix socket path to listen on")
    parser.add_argument("--data-dir", required=True, help="directory for contracts and the audit log")
    parser.add_argument(
        "--table",
        action="append",
        default=[],
        type=table_arg,
        metavar="NAMESPACE.TABLE=CSV",
        help="register a source table from a CSV file (repeatable)",
    )
    parser.add_argument("--clock", choices=["logical", "wall"], default="logical")
    parser.add_argument("--volume-threshold", type=int, default=monitor.DEFAULT_VOLUME_THRESHOLD)
    parser.add_argument("--probing-threshold", type=int, default=monitor.DEFAULT_PROBING_THRESHOLD)
    parser.add_argument("--probing-window", type=int, default=monitor.DEFAULT_PROBING_WINDOW)
    parser.add_argument("--bg-quorum", type=int, default=breakglass.DEFAULT_QUORUM)
    parser.add_argument("--bg-window", type=int, default=breakglass.DEFAULT_ACTIVATION_WINDOW)
    parser.add_argument(
        "--bg-account", action="append", default=[], help="register a break-glass account (repeatable)"
    )
    args = parser.parse_args(argv)
    config = BrokerConfig(
        data_dir=args.data_dir,
        tables=dict(args.table),
        volume_threshold=args.volume_threshold,
        probing_threshold=args.probing_threshold,
        probing_window=args.probing_window,
        bg_quorum=args.bg_quorum,
        bg_window=args.bg_window,
        bg_accounts=tuple(args.bg_account),
        clock_mode=WALL if args.clock == "wall" else LOGICAL,
    )
    server = serve(config, args.endpoint)
    print(f"listening on {args.endpoint}")
    try:
        server.wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
