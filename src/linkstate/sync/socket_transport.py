"""Plain TCP transport: a threaded relay server and a realtime script runner.

The virtual-time simulator is the reference; this module exists so the relay
can be exercised across real sockets. Each connection gets a reader thread
that only parses frames and feeds the shared relay under a lock; client
engines stay single-threaded (the run loop drains an inbox queue).
"""

from __future__ import annotations

import logging
import queue
import socket
import threading
import time

from ..demo import build_demo_registry
from ..errors import MalformedMessage
from .client import ClientEngine
from .relay import Relay
from .sim import apply_edit, end_report, load_script
from .wire import Framer, Message, encode_frame

log = logging.getLogger(__name__)


class RelayServer:
    """Accepts connections, routes relay output back by client id."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._listener = socket.create_server((host, port))
        self.address = self._listener.getsockname()
        self._relay = Relay()
        self._lock = threading.Lock()
        self._routes: dict[str, socket.socket] = {}
        self._conn_locks: dict[socket.socket, threading.Lock] = {}
        self._stopping = threading.Event()
        self._threads: list[threading.Thread] = []

    @property
    def relay(self) -> Relay:
        return self._relay

    @property
    def lock(self) -> threading.Lock:
        return self._lock

    def start(self) -> None:
        t = threading.Thread(target=self.serve_forever, name="relay-accept", daemon=True)
        t.start()
        self._threads.append(t)

    def serve_forever(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                break
            self._conn_locks[conn] = threading.Lock()
            t = threading.Thread(target=self._client_loop, args=(conn,), daemon=True)
            t.start()
            self._threads.append(t)

    def stop(self) -> None:
        self._stopping.set()
        # shutdown (not just close) is what actually unblocks recv/accept
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            conns = set(self._routes.values()) | set(self._conn_locks)
        for conn in conns:
            for action in (lambda: conn.shutdown(socket.SHUT_RDWR), conn.close):
                try:
                    action()
                except OSError:
                    pass
        for t in self._threads:
            t.join(timeout=2)

    def _client_loop(self, conn: socket.socket) -> None:
        framer = Framer()
        try:
            while True:
                data = conn.recv(65536)
                if not data:
                    return
                try:
                    messages = list(framer.feed(data))
                except MalformedMessage as e:
                    log.warning("closing connection on unframeable data: %s", e)
                    return
                for msg in messages:
                    self._handle(msg, conn)
        except OSError:
            return
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _handle(self, msg: Message, conn: socket.socket) -> None:
        with self._lock:
            self._routes[msg.sender_id] = conn
            outs = self._relay.handle(msg)
            targets = [(self._routes.get(cid), out) for cid, out in outs]
        for target, out in targets:
            if target is None:
                continue
            try:
                with self._conn_locks.setdefault(target, threading.Lock()):
                    target.sendall(encode_frame(out))
            except OSError:
                log.warning("send to %s failed; peer gone?", out.kind)


class SocketClient:
    """One engine bridged onto a TCP connection; pump() stays on one thread."""

    def __init__(self, client_id: str, session_id: str, address, registry=None):
        self._sock = socket.create_connection(address)
        self._send_lock = threading.Lock()
        self._inbox: queue.Queue[Message] = queue.Queue()
        self.engine = ClientEngine(
            client_id=client_id,
            session_id=session_id,
            registry=registry or build_demo_registry(),
            send=self._send,
        )
        self._reader = threading.Thread(target=self._read_loop, name=f"read-{client_id}", daemon=True)
        self._reader.start()

    def _send(self, msg: Message) -> None:
        with self._send_lock:
            self._sock.sendall(encode_frame(msg))

    def _read_loop(self) -> None:
        framer = Framer()
        try:
            while True:
                data = self._sock.recv(65536)
                if not data:
                    return
                for msg in framer.feed(data):
                    self._inbox.put(msg)
        except (OSError, MalformedMessage):
            return

    def pump(self, now_ms: int) -> None:
        while True:
            try:
                msg = self._inbox.get_nowait()
            except queue.Empty:
                return
            self.engine.on_message(msg, now_ms)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        self._reader.join(timeout=2)


def run_realtime(script, settle_ms: int = 2000) -> dict:
    """Run a scenario over loopback sockets on the wall clock.

    Timing here is best-effort; only the virtual-time simulator promises
    determinism. The report mirrors the simulator's shape minus the seed,
    the virtual clock and the network counters.
    """
    script = load_script(script)
    server = RelayServer()
    server.start()
    clients: list[tuple[dict, SocketClient]] = []
    try:
        for spec in script["clients"]:
            clients.append((spec, SocketClient(spec["id"], script["session"], server.address)))

        start = time.monotonic()

        def now_ms() -> int:
            return int((time.monotonic() - start) * 1000)

        for _, sc in clients:
            sc.engine.hello(now_ms())

        interval_s = script["flushIntervalMs"] / 1000.0
        pending_edits = {spec["id"]: list(spec["edits"]) for spec, _ in clients}
        skipped = {spec["id"]: 0 for spec, _ in clients}
        deadline = script["durationMs"] + settle_ms
        while True:
            t = now_ms()
            quiet = True
            for spec, sc in clients:
                sc.pump(t)
                due = [e for e in pending_edits[spec["id"]] if e["atMs"] <= t]
                for edit in due:
                    pending_edits[spec["id"]].remove(edit)
                    if not apply_edit(sc.engine.root, edit):
                        skipped[spec["id"]] += 1
                sc.engine.flush(t)
                quiet = quiet and sc.engine.quiescent() and not pending_edits[spec["id"]]
            if t >= deadline or (t >= script["durationMs"] and quiet):
                break
            time.sleep(interval_s)

        with server.lock:
            end = end_report(
                server.relay, script["session"], [(spec["id"], sc.engine, skipped[spec["id"]]) for spec, sc in clients]
            )
        return {"mode": "realtime", "session": script["session"], **end}
    finally:
        for _, sc in clients:
            sc.close()
        server.stop()
