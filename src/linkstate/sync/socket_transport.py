"""Plain TCP transport: a single-threaded relay server and a realtime script runner.

The virtual-time simulator is the reference; this module exists so the relay
can be exercised across real sockets. `RelayServer` is one `selectors` loop
over nonblocking sockets, matching the single-threaded `Relay` actor inside
it. Both ends of a connection are one `_Conn`: a nonblocking socket with
Nagle's algorithm off, a `Framer` for what arrives and a buffer for what is
not yet sent, with the one nonblocking `send()` and `recv()`. The server
holds one per peer; `SocketClient` holds one and reads it when pumped.
`run_realtime` runs the simulator's driver on the wall clock with the
server and every client polled from that one loop, so a realtime run uses
the calling thread alone.
"""

from __future__ import annotations

import logging
import selectors
import socket
import time
from typing import Callable

from ..demo import build_demo_registry
from ..errors import MalformedMessage
from .client import ClientEngine
from .relay import Relay
from .sim import _drive, _Loop, load_script
from .wire import MAX_FRAME_BYTES, Framer, Message, encode_fanout, encode_frame

log = logging.getLogger(__name__)

# A peer that still holds more unsent bytes than this when another frame is
# due has stopped reading; it is closed so that it cannot grow the relay's
# memory. Checked before the new frame is queued, so one frame of any size the
# wire admits reaches a peer that reads.
MAX_UNSENT_BYTES = MAX_FRAME_BYTES

_RECV_BYTES = 65536


class _Conn:
    """One end of a TCP connection."""

    def __init__(self, sock: socket.socket):
        # Frames are small and latency-bound: never hold one back for the ACK
        # of the one before it (Nagle's algorithm).
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        self.sock = sock
        self.framer = Framer()
        self.out = bytearray()

    def send(self) -> bool:
        """Write as much of the unsent bytes as the socket takes now, the
        rest on a later call. False if the peer is gone: the bytes are then
        lost, like a dropped frame."""
        if self.out:
            try:
                del self.out[: self.sock.send(self.out)]
            except BlockingIOError:
                pass
            except OSError:
                self.out.clear()
                return False
        return True

    def recv(self) -> bytes | None:
        """The bytes that have arrived (b"" if none yet), or None once the
        peer closed or is gone."""
        try:
            return self.sock.recv(_RECV_BYTES) or None
        except BlockingIOError:
            return b""
        except OSError:
            return None


class RelayServer:
    """Accepts connections and routes relay output back by client id, all on
    the thread that calls poll() or serve_forever()."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._listener = socket.create_server((host, port))
        self._listener.setblocking(False)
        self.address = self._listener.getsockname()
        self.relay = Relay()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._routes: dict[str, _Conn] = {}
        self._stopped = False

    def serve_forever(self) -> None:
        while not self._stopped:
            self.poll(None)

    def poll(self, timeout: float | None) -> None:
        """One round: wait up to timeout seconds (None: until something
        happens), then accept, read and write whatever is ready."""
        for key, events in self._selector.select(timeout):
            conn = key.data
            if conn is None:
                self._accept()
                continue
            # fileno() is -1 once the connection was closed earlier this round
            if events & selectors.EVENT_READ and conn.sock.fileno() != -1:
                self._read(conn)
            if events & selectors.EVENT_WRITE and conn.sock.fileno() != -1:
                self._write(conn)

    def stop(self) -> None:
        """Close the listener and every connection; serve_forever() returns."""
        self._stopped = True
        for key in list(self._selector.get_map().values()):
            key.fileobj.close()
        self._selector.close()

    def _accept(self) -> None:
        try:
            sock, _ = self._listener.accept()
        except BlockingIOError:
            return
        self._selector.register(sock, selectors.EVENT_READ, _Conn(sock))

    def _read(self, conn: _Conn) -> None:
        data = conn.recv()
        if data is None:
            self._close(conn)
            return
        # Each message is handled as the framer yields it, so the frames
        # before an undecodable one count whatever recv() they arrived in.
        try:
            for msg in conn.framer.feed(data, self.relay.read_base):
                # A client id belongs to the first open connection that uses it.
                if self._routes.setdefault(msg.sender_id, conn) is not conn:
                    log.warning("closing a connection that sent as %r, which another connection holds", msg.sender_id)
                    self._close(conn)
                    return
                for cid, _, frame in encode_fanout(self.relay.handle(msg)):
                    target = self._routes.get(cid)
                    if target is not None and len(target.out) > MAX_UNSENT_BYTES:
                        log.warning("closing a peer that stopped reading (%d bytes unsent)", len(target.out))
                        self._close(target)
                    elif target is not None:
                        target.out += frame
                        self._write(target)
                if conn.sock.fileno() == -1:
                    return  # closed as a peer that stopped reading
        except MalformedMessage as e:
            log.warning("closing connection on unframeable data: %s", e)
            self._close(conn)

    def _write(self, conn: _Conn) -> None:
        if not conn.send():
            self._close(conn)
            return
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if conn.out else 0)
        if self._selector.get_key(conn.sock).events != events:
            self._selector.modify(conn.sock, events, conn)

    def _close(self, conn: _Conn) -> None:
        self._selector.unregister(conn.sock)
        conn.sock.close()
        for cid in [cid for cid, c in self._routes.items() if c is conn]:
            del self._routes[cid]


class SocketClient:
    """One engine bridged onto a TCP connection, driven by pump() on the
    caller's thread."""

    def __init__(self, client_id: str, session_id: str, address):
        self._conn = _Conn(socket.create_connection(address))
        self.engine = ClientEngine(
            client_id=client_id,
            session_id=session_id,
            registry=build_demo_registry(),
            send=self._send,
        )

    def _send(self, msg: Message) -> None:
        self._conn.out += encode_frame(msg)
        self._conn.send()

    def pump(self, now_ms: int) -> int:
        """Send what is still queued, then hand every message that has
        arrived to the engine; returns how many there were.

        Unframeable bytes from the relay end the stream as if the relay had
        closed it there: the messages before them are handled, the socket is
        closed, and later sends are dropped.
        """
        self._conn.send()
        handled = 0
        while True:
            data = self._conn.recv()
            if not data:  # nothing more for now, or the relay is gone
                return handled
            try:
                for msg in self._conn.framer.feed(data, self.engine.read_base):
                    self.engine.on_message(msg, now_ms)
                    handled += 1
            except MalformedMessage as e:
                log.warning("closing the relay connection on unframeable data: %s", e)
                self._conn.sock.close()
                return handled

    def close(self) -> None:
        self._conn.sock.close()


class _WallLoop(_Loop):
    """The driver's event heap on the wall clock. While it waits for the next
    event it polls the server, then pumps every client."""

    def __init__(self, server: RelayServer):
        super().__init__()
        self._server = server
        self._start = time.monotonic()
        self.links: list[tuple[SocketClient, Callable[[], None]]] = []

    def _elapsed_ms(self) -> int:
        return int((time.monotonic() - self._start) * 1000)

    def _wait(self, t: int) -> bool:
        self._server.poll(max(0, t - self._elapsed_ms()) / 1000)
        self.now = self._elapsed_ms()
        for sc, on_frames in self.links:
            if sc.pump(self.now):
                on_frames()
        return self.now >= t


def run_realtime(script) -> dict:
    """Run a scenario over loopback sockets on the wall clock.

    Timing here is best-effort; only the virtual-time simulator promises
    determinism. The report mirrors the simulator's shape minus the seed,
    the virtual clock and the network counters.
    """
    script = load_script(script)
    server = RelayServer()
    loop = _WallLoop(server)

    def connect(client):
        sc = SocketClient(client.cid, script["session"], server.address)
        loop.links.append((sc, client.wake))
        return sc.engine

    try:
        end = _drive(script, loop, server.relay, connect)
        return {"mode": "realtime", "session": script["session"], **end}
    finally:
        for sc, _ in loop.links:
            sc.close()
        server.stop()
