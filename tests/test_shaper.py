import hashlib
import math
import random
import socket
import struct
import threading
from dataclasses import replace

import pytest

from segshield import shaper
from segshield.errors import ConfigurationError, IntegrityError, TransportError
from segshield.profiles import segmentation_profile
from segshield.segcore import LevelBand, SegmentationConfig, segment_message
from segshield.shaper import (
    ShapedConnection,
    SocketTuning,
    TransferStats,
    bound_port,
    mean_wall_time,
    open_shaped_connection,
    parse_address,
    run_receiver,
    run_transfer_benchmark,
)

PASSTHROUGH = SegmentationConfig(prob=0.0, bands=(LevelBand(5, 20),))


def start_receiver(**kwargs):
    port = bound_port()
    listening = threading.Event()
    result: list = []
    kwargs = {"listening": listening, "timeout": 10, **kwargs}
    thread = threading.Thread(
        target=lambda: result.append(run_receiver(port, **kwargs)), daemon=True
    )
    thread.start()
    assert listening.wait(5)
    return port, thread, result


class RecordingSocket:
    """A connected socket that keeps each chunk passed to sendall, and whose
    sendall fails once ``fail_at`` chunks have gone through."""

    def __init__(self, fail_at=None):
        self.sent = []
        self.fail_at = fail_at

    def sendall(self, chunk):
        if len(self.sent) == self.fail_at:
            raise ConnectionResetError("connection reset by peer")
        self.sent.append(bytes(chunk))

    def shutdown(self, how):
        pass

    def recv(self, size):
        return b""


class TestTuningAndStats:
    def test_shaping_requires_no_delay(self):
        tuning = SocketTuning(no_delay=False)
        with pytest.raises(ConfigurationError):
            tuning.validate_for_shaping()

    def test_shaping_requires_smaller_send_buffer(self):
        tuning = SocketTuning(no_delay=True, send_buffer_bytes=2**17, receive_buffer_bytes=2**16)
        with pytest.raises(ConfigurationError):
            tuning.validate_for_shaping()

    @pytest.mark.parametrize("field", ["send_buffer_bytes", "receive_buffer_bytes"])
    @pytest.mark.parametrize("value", [0, -5, True, 2**31, 2**32, 4096.0, "4096"])
    def test_buffer_outside_a_c_int_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            SocketTuning(**{field: value})

    def test_stats_log_must_account_for_bytes(self):
        with pytest.raises(ValueError):
            TransferStats(bytes_sent=10, packets_sent=2, wall_time=0.0, segment_log=(4, 4))
        with pytest.raises(ValueError):
            TransferStats(bytes_sent=8, packets_sent=3, wall_time=0.0, segment_log=(4, 4))

    def test_parse_address(self):
        assert parse_address("127.0.0.1:80") == ("127.0.0.1", 80)
        assert parse_address(("h", 9)) == ("h", 9)
        with pytest.raises(ValueError):
            parse_address("no-port")

    @pytest.mark.parametrize("address", ["127.0.0.1:0", "127.0.0.1:65536", ("h", -5), ("h", 70000)])
    def test_parse_address_rejects_a_port_outside_1_65535(self, address):
        with pytest.raises(ConfigurationError, match="^port: must be 1-65535, got -?[0-9]+$"):
            parse_address(address)
        assert parse_address("h:65535") == ("h", 65535) and parse_address(("h", 1)) == ("h", 1)

    def test_address_and_receiver_share_the_port_text(self):
        for reject in (lambda: parse_address("h:0"), lambda: run_receiver(0)):
            with pytest.raises(ConfigurationError) as err:
                reject()
            assert str(err.value) == "port: must be 1-65535, got 0"

    def test_mean_wall_time(self):
        runs = [
            TransferStats(1, 1, 2.0, (1,)),
            TransferStats(1, 1, 4.0, (1,)),
        ]
        assert mean_wall_time(runs) == 3.0
        with pytest.raises(ValueError):
            mean_wall_time([])


class TestLoopbackTransfers:
    def test_passthrough_single_send(self):
        port, thread, result = start_receiver()
        conn = open_shaped_connection(("127.0.0.1", port), PASSTHROUGH)
        with conn:
            plan = conn.send(b"hello")
            stats = conn.finish()
        thread.join(5)
        assert plan.lengths == (5,)
        assert stats.packets_sent == 1
        assert result[0].checksum == hashlib.sha256(b"hello").hexdigest()

    def test_two_messages_ordered_stream(self):
        port, thread, result = start_receiver()
        conn = open_shaped_connection(("127.0.0.1", port), segmentation_profile("rand-high"))
        with conn:
            first = conn.send(b"a" * 5000)
            second = conn.send(b"b" * 5000)
            stats = conn.finish()
        thread.join(5)
        expected = hashlib.sha256(b"a" * 5000 + b"b" * 5000).hexdigest()
        assert result[0].checksum == expected
        assert stats.segment_log == first.lengths + second.lengths
        assert stats.bytes_sent == 10_000

    def test_finish_without_a_send_reports_no_wall_time(self):
        port, thread, result = start_receiver()
        with open_shaped_connection(("127.0.0.1", port), PASSTHROUGH) as conn:
            stats = conn.finish()
            assert conn.finish() is stats
        thread.join(5)
        assert stats == TransferStats(bytes_sent=0, packets_sent=0, wall_time=0.0)
        assert result[0].bytes_sent == 0

    @pytest.mark.parametrize("config", [segmentation_profile("rand-high"), None])
    def test_empty_message_rejected_before_any_send_call(self, config):
        sock = RecordingSocket()
        conn = ShapedConnection(sock, config)
        with pytest.raises(ValueError):
            conn.send(b"")
        assert sock.sent == []
        assert conn.finish() == TransferStats(bytes_sent=0, packets_sent=0, wall_time=0.0)

    def test_failed_send_logs_the_chunks_written_whole(self):
        sock = RecordingSocket(fail_at=2)
        conn = ShapedConnection(sock, SegmentationConfig(1.0, (LevelBand(100, 200),)))
        with pytest.raises(TransportError) as err:
            conn.send(bytes(10_000))
        assert err.value.chunks_sent == 2
        stats = conn.finish()
        assert stats.segment_log == tuple(len(chunk) for chunk in sock.sent)
        assert stats.packets_sent == 2 and stats.wall_time > 0

    def test_peer_reset_mid_message(self):
        config = segmentation_profile("rand-high")
        payload = bytes(2**22)
        plan = segment_message(payload, config, random.Random(1))
        with socket.create_server(("127.0.0.1", 0)) as server:
            address = server.getsockname()
            conn = open_shaped_connection(address, config, rng=1)
            peer, _ = server.accept()
        # Linger 0: close sends a reset in place of the end of the stream.
        peer.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        peer.close()
        with conn, pytest.raises(TransportError) as err:
            conn.send(payload)
        assert 0 <= err.value.chunks_sent < len(plan.lengths)

    def test_shaped_payload_digest_and_log_bounds(self):
        config = segmentation_profile("rand-high", seed=3)
        payload = bytes(i % 251 for i in range(300_000))
        port, thread, result = start_receiver()
        conn = open_shaped_connection(("127.0.0.1", port), config)
        with conn:
            conn.send(payload)
            stats = conn.finish()
        thread.join(5)
        assert result[0].checksum == hashlib.sha256(payload).hexdigest()
        assert result[0].bytes_sent == len(payload)
        assert stats.packets_sent > 1
        assert sum(stats.segment_log) == len(payload)
        assert all(100 <= c <= 1400 for c in stats.segment_log[:-1])
        assert 1 <= stats.segment_log[-1] <= 1400

    def test_receiver_is_shaping_agnostic(self):
        payload = b"plain tcp, no shaping" * 100
        port, thread, result = start_receiver()
        conn = open_shaped_connection(("127.0.0.1", port), config=None)
        with conn:
            conn.send(payload)
            conn.finish()
        thread.join(5)
        assert result[0].checksum == hashlib.sha256(payload).hexdigest()

    def test_bursty_consumer_preserves_stream(self):
        # drain-then-stall consumption must not change what arrives
        config = segmentation_profile("rand-high", seed=5)
        payload = bytes((i * 7) % 256 for i in range(200_000))
        port, thread, result = start_receiver(recv_buffer=2**14, drain_pause_s=0.002)
        conn = open_shaped_connection(("127.0.0.1", port), config)
        with conn:
            conn.send(payload)
            conn.finish()
        thread.join(10)
        assert result[0].checksum == hashlib.sha256(payload).hexdigest()
        assert result[0].bytes_sent == len(payload)

    def test_bursty_consumer_stalls(self):
        payload = bytes(200_000)
        port, thread, result = start_receiver(recv_buffer=2**14, drain_pause_s=0.05)
        conn = open_shaped_connection(("127.0.0.1", port), config=None)
        with conn:
            conn.send(payload)
            conn.finish()
        thread.join(10)
        assert result[0].bytes_sent == len(payload)
        assert result[0].wall_time >= 0.05

    @pytest.mark.parametrize("pause", [0.0, 0.05])
    def test_connection_closed_before_sending(self, pause):
        port, thread, result = start_receiver(drain_pause_s=pause)
        socket.create_connection(("127.0.0.1", port), timeout=5).close()
        thread.join(5)
        assert result[0].bytes_sent == 0
        assert result[0].checksum == hashlib.sha256(b"").hexdigest()

    @pytest.mark.parametrize(
        "kwargs,name",
        [
            ({"timeout": 0.0}, "timeout"),
            ({"timeout": -1}, "timeout"),
            ({"timeout": math.nan}, "timeout"),
            ({"timeout": math.inf}, "timeout"),
            ({"recv_buffer": 0}, "recv_buffer"),
            ({"recv_buffer": 2**31}, "recv_buffer"),
            ({"recv_buffer": True}, "recv_buffer"),
            ({"drain_pause_s": math.nan}, "drain_pause_s"),
            # bind() raised OverflowError, neither a ValueError nor an OSError.
            ({"port": 70000}, "port"),
        ],
    )
    def test_bad_receiver_argument_rejected_before_any_socket(self, monkeypatch, kwargs, name):
        def no_socket(*args):
            raise AssertionError("a socket was opened")

        kwargs = {"port": bound_port(), **kwargs}
        monkeypatch.setattr(socket, "socket", no_socket)
        listening = threading.Event()
        with pytest.raises(ConfigurationError, match=name):
            run_receiver(listening=listening, **kwargs)
        assert not listening.is_set()

    # settimeout raised ValueError or TypeError, and the socket was left open.
    @pytest.mark.parametrize("timeout", [-1, 0.0, math.nan, "x", True])
    def test_bad_connect_timeout_rejected_before_any_socket(self, monkeypatch, timeout):
        def no_socket(*args):
            raise AssertionError("a socket was opened")

        monkeypatch.setattr(socket, "socket", no_socket)
        with pytest.raises(ConfigurationError, match="^timeout: "):
            open_shaped_connection(("127.0.0.1", 9), PASSTHROUGH, timeout=timeout)

    @pytest.mark.parametrize("rng", ["x", -1, True, 1.5])
    def test_unshaped_connection_checks_rng_before_connecting(self, rng):
        with socket.create_server(("127.0.0.1", 0)) as peer:
            with pytest.raises((TypeError, ConfigurationError), match="^rng"):
                open_shaped_connection(peer.getsockname(), None, rng=rng)
            peer.setblocking(False)
            with pytest.raises(BlockingIOError):
                peer.accept()

    def test_negative_drain_pause_rejected(self):
        with pytest.raises(ValueError):
            run_receiver(1, drain_pause_s=-0.5)

    def test_socket_options_reflect_request(self):
        port, thread, _ = start_receiver()
        tuning = SocketTuning(True, 2**16, 2**17)
        conn = open_shaped_connection(("127.0.0.1", port), PASSTHROUGH, tuning)
        with conn:
            sock = conn.socket
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) == 1
            # Linux reports twice the requested value; only the floor is promised.
            assert sock.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF) >= 2**16
            conn.send(b"x")
            conn.finish()
        thread.join(5)

    def test_tuning_is_per_socket(self):
        before = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        default_sndbuf = before.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
        before.close()
        port, thread, _ = start_receiver()
        tuning = SocketTuning(True, 2**15, 2**17)
        conn = open_shaped_connection(("127.0.0.1", port), PASSTHROUGH, tuning)
        with conn:
            fresh = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            untouched = fresh.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
            fresh.close()
            conn.send(b"x")
            conn.finish()
        thread.join(5)
        assert untouched == default_sndbuf

    def test_shaping_with_bad_tuning_rejected(self):
        tuning = SocketTuning(no_delay=False)
        with pytest.raises(ConfigurationError):
            open_shaped_connection(("127.0.0.1", 1), PASSTHROUGH, tuning)

    def test_connection_refused(self):
        with pytest.raises(TransportError):
            open_shaped_connection(("127.0.0.1", bound_port()), PASSTHROUGH, timeout=2)

    def test_receiver_timeout(self):
        with pytest.raises(TransportError):
            run_receiver(bound_port(), timeout=0.3)

    def test_port_in_use_is_a_transport_error_that_closes_its_socket(self, monkeypatch):
        made = []

        class Recorded(socket.socket):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        with socket.create_server(("127.0.0.1", 0)) as other:
            port = other.getsockname()[1]
            monkeypatch.setattr(socket, "socket", Recorded)
            with pytest.raises(TransportError) as err:
                run_receiver(port, timeout=1)
        assert str(err.value) == f"cannot bind 127.0.0.1:{port}: [Errno 98] Address already in use"
        assert len(made) == 1 and made[0].fileno() == -1


class TestBenchmark:
    def test_single_undefended_run(self):
        (stats,) = run_transfer_benchmark(200_000, None, repetitions=1, seed=1)
        assert stats.bytes_sent == 200_000
        assert stats.wall_time > 0
        assert stats.checksum

    def test_wide_band_sends_more_packets(self):
        low = run_transfer_benchmark(
            2**20, segmentation_profile("rand-low"), repetitions=2, seed=2
        )
        high = run_transfer_benchmark(
            2**20, segmentation_profile("rand-high"), repetitions=2, seed=2
        )
        assert sum(r.packets_sent for r in high) > sum(r.packets_sent for r in low)

    def test_one_receiver_drains_every_run(self, monkeypatch):
        counts = []
        receive = shaper._receive

        def spy(*args):
            counts.append(args[-1])
            return receive(*args)

        monkeypatch.setattr(shaper, "_receive", spy)
        runs = run_transfer_benchmark(10_000, PASSTHROUGH, repetitions=3, seed=4)
        assert counts == [3]
        assert [r.bytes_sent for r in runs] == [10_000] * 3

    def test_digest_mismatch_names_the_run(self, monkeypatch):
        send = shaper.send_seeded_payload

        def corrupt_second_run(*args):
            stats = send(*args)
            return replace(stats, checksum="0" * 64) if args[-1] == 1 else stats

        monkeypatch.setattr(shaper, "send_seeded_payload", corrupt_second_run)
        match = r"^run 1: digest mismatch: got [0-9a-f]{12}\.\., want 0{12}\.\.$"
        with pytest.raises(IntegrityError, match=match):
            run_transfer_benchmark(1000, None, repetitions=3, seed=0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            run_transfer_benchmark(0, None, repetitions=1)
        with pytest.raises(ValueError):
            run_transfer_benchmark(10, None, repetitions=0)
