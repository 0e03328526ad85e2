"""Shaped stream transport and the loopback transfer benchmark.

The sender plans every application message with segcore and sends the
plan, one ``sendall`` per chunk, with Nagle disabled and a deliberately
small send buffer so the kernel cannot re-batch chunks at its leisure.
``finish`` builds the sender's stats once, from the lengths of the chunks
written whole. Wall time is sender-side: first send call until the
receiver's EOF comes back after shutdown, i.e. until delivery is
acknowledged end-to-end; it is 0 if nothing was sent.

Note on Linux buffer sizes: the kernel doubles the requested SO_SNDBUF /
SO_RCVBUF for bookkeeping, so queried values are compared as
effective >= requested rather than for equality.
"""

from __future__ import annotations

import hashlib
import random
import select
import socket
import threading
import time
from dataclasses import asdict, dataclass, replace
from typing import Sequence

from .errors import NON_NEGATIVE, POSITIVE, ConfigurationError, IntegrityError, TransportError
from .errors import check_fields, check_value, rule
from .rng import derive_seed, make_rng
from .segcore import SegmentationConfig, SegmentPlan, iter_chunks, segment_message

DEFAULT_SEND_BUFFER = 2**16
DEFAULT_RECV_BUFFER = 2**17
# setsockopt takes a buffer size as a C int.
BUFFER_BYTES = (lambda v: 0 < v < 2**31, "positive and below 2**31")
PORT = (lambda v: 0 < v < 65536, "1-65535")


@dataclass(frozen=True)
class SocketTuning:
    no_delay: bool = rule(bool, default=True)
    send_buffer_bytes: int = rule(int, BUFFER_BYTES, default=DEFAULT_SEND_BUFFER)
    receive_buffer_bytes: int = rule(int, BUFFER_BYTES, default=DEFAULT_RECV_BUFFER)

    def __post_init__(self):
        check_fields(self)

    def validate_for_shaping(self) -> None:
        if not self.no_delay:
            raise ConfigurationError("shaping requires no_delay=true")
        if self.send_buffer_bytes >= self.receive_buffer_bytes:
            raise ConfigurationError(
                "shaping requires send buffer < receive buffer "
                f"(got {self.send_buffer_bytes} >= {self.receive_buffer_bytes})"
            )


@dataclass(frozen=True)
class TransferStats:
    bytes_sent: int
    packets_sent: int
    wall_time: float
    segment_log: tuple[int, ...] = ()
    checksum: str = ""

    def __post_init__(self):
        object.__setattr__(self, "segment_log", tuple(self.segment_log))
        if self.segment_log:
            if sum(self.segment_log) != self.bytes_sent:
                raise ValueError("segment_log does not account for bytes_sent")
            if len(self.segment_log) != self.packets_sent:
                raise ValueError("packets_sent must equal len(segment_log)")

    def to_dict(self) -> dict:
        return {**asdict(self), "segment_log": list(self.segment_log)}


def parse_address(address) -> tuple[str, int]:
    if isinstance(address, tuple):
        host, port = address
    else:
        host, _, port = str(address).rpartition(":")
        if not host or not port:
            raise ValueError(f"address must be host:port, got {address!r}")
        port = int(port)
    return str(host), check_value(port, "port", int, PORT)


def _apply_tuning(sock: socket.socket, tuning: SocketTuning) -> None:
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, int(tuning.no_delay))
    for option, requested in (
        (socket.SO_SNDBUF, tuning.send_buffer_bytes),
        (socket.SO_RCVBUF, tuning.receive_buffer_bytes),
    ):
        sock.setsockopt(socket.SOL_SOCKET, option, requested)
        effective = sock.getsockopt(socket.SOL_SOCKET, option)
        if effective < requested:
            raise ConfigurationError(
                f"kernel clamped buffer to {effective} (< requested {requested})"
            )


def _plan_rng(config: SegmentationConfig | None, rng) -> random.Random | None:
    """A connection's planning generator; an unshaped one never draws, so it seeds none."""
    return None if config is None else make_rng(config.seed if rng is None else rng)


class ShapedConnection:
    """One connected stream. Owned by one thread at a time; hand the object
    over whole if another thread takes it."""

    def __init__(
        self,
        sock: socket.socket,
        config: SegmentationConfig | None,
        rng: random.Random | int | None = None,
    ):
        self._sock = sock
        self._config = config
        self._rng = _plan_rng(config, rng)
        self._segment_log: list[int] = []
        self._started: float | None = None
        self._stats: TransferStats | None = None

    @property
    def socket(self) -> socket.socket:
        return self._sock

    def send(self, message: bytes) -> SegmentPlan:
        """Send one application message, one send call per planned chunk."""
        if self._config is not None:
            plan = segment_message(message, self._config, self._rng)
        else:
            plan = SegmentPlan((len(message),), segmented=False)
        if self._started is None:
            self._started = time.perf_counter()
        try:
            for sent, chunk in enumerate(iter_chunks(message, plan)):
                self._sock.sendall(chunk)
        except OSError as exc:
            self._segment_log.extend(plan.lengths[:sent])
            raise TransportError(
                f"connection lost after {sent} chunks: {exc}", chunks_sent=sent
            ) from exc
        self._segment_log.extend(plan.lengths)
        return plan

    def finish(self) -> TransferStats:
        """Signal end-of-stream and wait for the peer to drain and close;
        the clock stops when its EOF arrives. A second call returns the
        same stats."""
        if self._stats is None:
            try:
                self._sock.shutdown(socket.SHUT_WR)
                while self._sock.recv(4096):
                    pass
            except OSError as exc:
                raise TransportError(f"peer vanished before drain: {exc}") from exc
            log = tuple(self._segment_log)
            self._stats = TransferStats(
                bytes_sent=sum(log),
                packets_sent=len(log),
                wall_time=time.perf_counter() - self._started if log else 0.0,
                segment_log=log,
            )
        return self._stats

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "ShapedConnection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_shaped_connection(
    address,
    config: SegmentationConfig | None = None,
    tuning: SocketTuning | None = None,
    timeout: float | None = 10.0,
    rng: random.Random | int | None = None,
) -> ShapedConnection:
    """Connect and apply per-socket tuning; nothing system-wide changes.
    Every argument is checked before a socket is opened."""
    host, port = parse_address(address)
    if tuning is None:
        tuning = SocketTuning()
    if config is not None:
        tuning.validate_for_shaping()
    timeout = check_value(timeout, "timeout", float | None, POSITIVE)
    rng = _plan_rng(config, rng)
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        _apply_tuning(sock, tuning)
        sock.settimeout(timeout)
        sock.connect((host, port))
        sock.settimeout(None)
    except ConfigurationError:
        sock.close()
        raise
    except OSError as exc:
        sock.close()
        raise TransportError(f"cannot connect to {host}:{port}: {exc}") from exc
    return ShapedConnection(sock, config, rng)


def run_receiver(
    port: int,
    host: str = "127.0.0.1",
    timeout: float = 30.0,
    recv_buffer: int = DEFAULT_RECV_BUFFER,
    drain_pause_s: float = 0.0,
    listening: "threading.Event | None" = None,
) -> TransferStats:
    """Accept one connection, drain it to EOF, and report byte count, wall
    time, and the payload digest. Shaping-agnostic by construction.

    One loop serves both consumers. Each pass reads one block. With
    `drain_pause_s` > 0 the receiver is a bursty consumer: it keeps reading
    while more data is ready, then hashes that backlog and stalls for that
    long. Stalls keep the sender blocked on its socket buffer, so buffer
    sizing becomes visible in sender wall time even over loopback. With no
    pause it is a greedy consumer that hashes each block as it comes."""
    return _receive(port, host, timeout, recv_buffer, drain_pause_s, listening, 1)[0]


def _receive(port, host, timeout, recv_buffer, drain_pause_s, listening, count) -> list:
    """The stats of ``count`` transfers, each drained as run_receiver drains
    one, accepted in turn on one listening socket: a sender's next transfer
    never finds the port closed."""
    check_value(port, "port", int, PORT)
    timeout = check_value(timeout, "timeout", float, POSITIVE)
    check_value(recv_buffer, "recv_buffer", int, BUFFER_BYTES)
    drain_pause_s = check_value(drain_pause_s, "drain_pause_s", float, NON_NEGATIVE)
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as server:
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, recv_buffer)
        try:
            server.bind((host, port))
        except OSError as exc:
            raise TransportError(f"cannot bind {host}:{port}: {exc}") from exc
        server.listen(1)
        server.settimeout(timeout)
        if listening is not None:
            listening.set()
        return [_drain(server, timeout, drain_pause_s) for _ in range(count)]


def _drain(server: socket.socket, timeout: float, drain_pause_s: float) -> TransferStats:
    """Accept one connection on ``server`` and read it to EOF."""
    try:
        conn, _ = server.accept()
    except socket.timeout as exc:
        raise TransportError(f"no connection within {timeout}s") from exc
    digest = hashlib.sha256()
    received = 0
    started = None
    with conn:
        conn.settimeout(timeout)
        while True:
            backlog = block = conn.recv(65536)
            if started is None:
                started = time.perf_counter()
            if drain_pause_s:
                # Drain with bare recv calls so the backlog empties faster
                # than the sender refills it; hash only once the pipe runs
                # dry, else the stall below never triggers and pacing
                # silently degrades.
                pieces = [block]
                while block and select.select([conn], [], [], 0)[0]:
                    block = conn.recv(65536)
                    pieces.append(block)
                backlog = b"".join(pieces)
            digest.update(backlog)
            received += len(backlog)
            if not block:
                break
            if drain_pause_s:
                time.sleep(drain_pause_s)
    return TransferStats(
        bytes_sent=received,
        packets_sent=0,
        wall_time=time.perf_counter() - started,
        checksum=digest.hexdigest(),
    )


def bound_port(host: str = "127.0.0.1") -> int:
    """Reserve an ephemeral port number."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind((host, 0))
        return probe.getsockname()[1]


def send_seeded_payload(
    address,
    file_bytes: int,
    config: SegmentationConfig | None,
    tuning: SocketTuning | None,
    seed: int,
    rep: int,
) -> TransferStats:
    """Repetition ``rep`` of a seeded transfer: a pseudo-random payload from
    derive_seed(seed, "payload", rep), planned with an RNG from
    derive_seed(seed, "plan", rep). The stats carry the payload digest."""
    payload = random.Random(derive_seed(seed, "payload", rep)).randbytes(file_bytes)
    conn = open_shaped_connection(address, config, tuning, rng=derive_seed(seed, "plan", rep))
    with conn:
        conn.send(payload)
        stats = conn.finish()
    return replace(stats, checksum=hashlib.sha256(payload).hexdigest())


def run_transfer_benchmark(
    file_bytes: int,
    config: SegmentationConfig | None,
    tuning: SocketTuning | None = None,
    repetitions: int = 10,
    seed: int = 0,
    receiver_recv_buffer: int | None = None,
    receiver_pause_s: float = 0.0,
) -> list[TransferStats]:
    """Send a pseudo-random payload `repetitions` times over loopback,
    one fresh receiver thread per run, verifying the digest every time.

    `receiver_recv_buffer` and `receiver_pause_s` configure the consumer
    side; a small buffer plus a nonzero pause emulates a slow peer whose
    backpressure makes sender buffer sizing measurable."""
    check_value(repetitions, "repetitions", int, POSITIVE)
    check_value(file_bytes, "file_bytes", int, POSITIVE)
    rx_buffer = receiver_recv_buffer or (tuning or SocketTuning()).receive_buffer_bytes
    runs: list[TransferStats] = []
    for rep in range(repetitions):
        port = bound_port()
        listening = threading.Event()
        result: list[TransferStats] = []
        receiver = threading.Thread(
            target=lambda *args, **kwargs: result.append(run_receiver(*args, **kwargs)),
            args=(port,),
            kwargs={
                "recv_buffer": rx_buffer,
                "drain_pause_s": receiver_pause_s,
                "listening": listening,
            },
            daemon=True,
        )
        receiver.start()
        if not listening.wait(timeout=10):
            raise TransportError("receiver did not come up")
        stats = send_seeded_payload(("127.0.0.1", port), file_bytes, config, tuning, seed, rep)
        receiver.join(timeout=30)
        if receiver.is_alive() or not result:
            raise TransportError("receiver did not finish")
        got = result[0].checksum
        if got != stats.checksum:
            raise IntegrityError(
                f"run {rep}: digest mismatch: got {got[:12]}.., want {stats.checksum[:12]}.."
            )
        runs.append(stats)
    return runs


def mean_wall_time(runs: Sequence[TransferStats]) -> float:
    if not runs:
        raise ValueError("no runs")
    return sum(r.wall_time for r in runs) / len(runs)
