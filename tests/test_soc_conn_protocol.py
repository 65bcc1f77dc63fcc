"""Tests for ``repro.soc.service.ConnProtocol``, the front door's one
connection state machine, driven without sockets.

Two harnesses:

- A Hypothesis ``RuleBasedStateMachine`` (plain and authenticated)
  runs many connections over an inline :class:`IngestService` attached
  to a fake event loop, with a fake transport and an injected monotonic
  clock.  Its rules are the client's messages and faults, the clock,
  the loop's turns, timers and disconnects, and the service's explicit
  calls, quota and worker kills; it checks each against a small
  reference model.
- A hostile-frame catalogue: declarative rows of ``(id, stage, wire
  bytes, expected outcome, counter that must move)``.  Every row runs
  against the protocol object, and the whole table runs once against a
  real ``mode="process"`` server.
"""

import asyncio
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.safety import Asil
from repro.soc import EventSource, make_event
from repro.soc import service
from repro.soc.service import (
    ConnProtocol,
    FrameStreamDecoder,
    IngestService,
    ServiceConfig,
    auth_tag,
    decode_message,
    derive_session_key,
    encode_auth,
    encode_batch,
    encode_bye,
    encode_hello,
    seal_payload,
    serve,
)
from repro.soc.store import FRAME_HEADER, canonical_dumps, frame_payload

FLEET_KEY = b"\x42" * 16

#: Every counter a refusal path moves, at the front door.
FRONT_COUNTERS = ("protocol_errors", "auth_failures", "handshake_timeouts",
                  "preauth_overflows", "half_open_rejected", "quota_refused",
                  "quota_disconnects")
#: ... and in the owning worker.
WORKER_COUNTERS = ("service_decode_errors", "service_cmac_rejected",
                   "rejected_invalid")


class FakeTransport:
    """The transport surface the protocol and the service use.  It
    decodes what the server wrote, as the client would, and fails the
    test on a write after close."""

    def __init__(self) -> None:
        self.decoder = FrameStreamDecoder()
        self.messages: List[tuple] = []
        self.closing = False

    def write(self, data: bytes) -> None:
        assert not self.closing, "write to a closing transport"
        self.messages += [decode_message(p) for p in self.decoder.feed(data)]

    def is_closing(self) -> bool:
        return self.closing

    def close(self) -> None:
        self.closing = True


@dataclass(eq=False)
class FakeHandle:
    callback: Callable
    args: tuple
    when: float = 0.0
    cancelled: bool = False

    def cancel(self) -> None:
        self.cancelled = True

    def run(self) -> None:
        if not self.cancelled:
            self.callback(*self.args)


class FakeLoop:
    """The loop surface the service schedules on.  ``call_soon``
    callbacks wait for the model's loop turn, ``call_later`` timers for
    the rule that fires the due ones."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.ready: List[FakeHandle] = []
        self.timers: List[FakeHandle] = []

    def call_soon(self, callback, *args) -> FakeHandle:
        self.ready.append(FakeHandle(callback, args))
        return self.ready[-1]

    def call_later(self, delay: float, callback, *args) -> FakeHandle:
        self.timers.append(FakeHandle(callback, args, self.clock() + delay))
        return self.timers[-1]

    def live(self, callback=None) -> List[FakeHandle]:
        return [h for h in self.ready if not h.cancelled
                and (callback is None or h.callback == callback)]

    def run_once(self) -> None:
        """One loop pass: the callbacks ready when it starts."""
        ready, self.ready = self.ready, []
        for handle in ready:
            handle.run()

    def fire_due_timers(self, slack: float = 0.0) -> List[FakeHandle]:
        """Run the timers due by ``slack`` past now (asyncio fires a
        timer up to its clock resolution early)."""
        now = self.clock() + slack
        due = [h for h in self.timers if not h.cancelled and h.when <= now]
        self.timers = [h for h in self.timers
                       if not h.cancelled and h.when > now]
        for handle in due:
            handle.run()
        return due


def ev(vehicle, seq, t=999.0, severity=Asil.C):
    return make_event(vehicle, EventSource.IDS, f"sig.{seq % 3}", t, seq,
                      severity=severity)


def front_counts(svc) -> Dict[str, int]:
    return {name: getattr(svc, name) for name in FRONT_COUNTERS}


# ----------------------------------------------------------------------
# Model test
# ----------------------------------------------------------------------
PRE = ("hello", "auth")
PREAUTH_CAP = 512
HALF_OPEN_CAP = 3
DISCONNECT_AFTER = 4
TIMEOUT_S = 5.0
#: The front-door limits the model runs under, small enough that a
#: short rule sequence reaches every watermark and cap.
MODEL_LIMITS = dict(HANDOFF_BATCH=3, SUPPRESS_AFTER=2, RESUME_BELOW=1,
                    HANDSHAKE_TIMEOUT_S=TIMEOUT_S,
                    MAX_PREAUTH_BYTES=PREAUTH_CAP, MAX_HALF_OPEN=HALF_OPEN_CAP)
PICK = st.integers(0, 63)
CUTS = st.lists(st.integers(0, 999), max_size=3)


@dataclass
class Peer:
    """One client connection and what the model expects of it."""

    client_id: str
    proto: ConnProtocol
    transport: FakeTransport
    state: str
    deadline: float
    preauth: int = 0
    next_batch: int = 0
    refused: int = 0
    lost: bool = False
    sent: List[int] = field(default_factory=list)
    seen: int = 0  # server messages already checked


class ConnModel(RuleBasedStateMachine):
    fleet_key: Optional[bytes] = None

    def __init__(self) -> None:
        super().__init__()
        # Patched for the machine's lifetime; teardown() undoes it.
        self.patches = pytest.MonkeyPatch()
        for name, value in MODEL_LIMITS.items():
            self.patches.setattr(service, name, value)
        self.root = tempfile.mkdtemp(prefix="conn-model-")
        self.now = [50.0]
        self.svc = IngestService(
            2, mode="inline", root=self.root,
            config=ServiceConfig(fleet_key=self.fleet_key),
            quota_bytes_per_s=300.0, quota_burst_bytes=1500.0,
            quota_disconnect_after=DISCONNECT_AFTER,
            clock=lambda: 1000.0, mono_clock=lambda: self.now[0])
        self.loop = FakeLoop(lambda: self.now[0])
        self.svc.attach(self.loop)
        self.peers: List[Peer] = []
        self.answered: Dict[str, List[int]] = {}

    # -- the loop and the wire -----------------------------------------
    def loop_turn(self) -> None:
        """What the event loop does between I/O events: it runs the
        callbacks ready at the start of the turn, and a transport the
        server closed reports ``connection_lost`` to its protocol."""
        self.loop.run_once()
        for peer in self.peers:
            if peer.transport.closing and not peer.lost:
                peer.lost = True
                peer.proto.connection_lost(None)
        self.read_replies()

    def read_replies(self) -> None:
        for peer in self.peers:
            for msg in peer.transport.messages[peer.seen:]:
                if msg[0] in ("a", "n"):
                    self.answered.setdefault(peer.client_id, []).append(
                        msg[1])
            peer.seen = len(peer.transport.messages)

    def deliver(self, peer: Peer, wire: bytes, cuts) -> bool:
        """Feed ``wire`` in arbitrary chunks; False if the loop would
        not read from this connection any more."""
        if peer.lost or peer.transport.closing:
            return False
        points = sorted({c % (len(wire) + 1) for c in cuts} | {0, len(wire)})
        for lo, hi in zip(points, points[1:]):
            peer.proto.data_received(wire[lo:hi])
        return True

    def expect(self, before: Dict[str, int], deltas: Dict[str, int],
               label: str) -> None:
        """Exactly the refusal counters in ``deltas`` moved, by those
        amounts, since ``before``."""
        after = front_counts(self.svc)
        moved = {k: after[k] - before[k] for k in after
                 if after[k] != before[k]}
        assert moved == deltas, (label, moved, deltas)

    def gate(self, peer: Peer, nbytes: int) -> Optional[Dict[str, int]]:
        """The pre-session checks every frame passes first: the
        deadline, then the byte cap.  Returns the refusal they make, or
        None to go on."""
        if peer.state not in PRE:
            return None
        if self.now[0] >= peer.deadline:
            return {"handshake_timeouts": 1}
        peer.preauth += nbytes
        if peer.preauth > PREAUTH_CAP:
            return {"preauth_overflows": 1}
        return None

    def send(self, peer: Peer, payload: bytes, cuts, model,
             turn: bool = True) -> None:
        """Deliver one framed payload; ``model(peer)`` returns the
        expected counter moves and sets ``peer.state`` for a frame that
        passed the gate.  With ``turn`` the loop turn follows."""
        wire = frame_payload(payload)
        before = front_counts(self.svc)
        state_was = peer.state
        if not self.deliver(peer, wire, cuts):
            return
        deltas = self.gate(peer, len(wire))
        if deltas is not None:
            peer.state = "closed"
        else:
            deltas = model(peer)
        self.expect(before, deltas, peer.client_id)
        assert peer.proto.state == peer.state, (state_was, payload)
        if turn:
            self.loop_turn()

    # -- rules: the client ---------------------------------------------
    @rule()
    def connect(self):
        transport = FakeTransport()
        proto = ConnProtocol(self.svc)
        live_pre = sum(p.state in PRE for p in self.peers)
        before = front_counts(self.svc)
        proto.connection_made(transport)
        peer = Peer(f"veh-{len(self.peers)}", proto, transport,
                    "hello", self.now[0] + TIMEOUT_S)
        if live_pre >= HALF_OPEN_CAP:
            peer.state = "closed"
            self.expect(before, {"half_open_rejected": 1}, peer.client_id)
        else:
            self.expect(before, {}, peer.client_id)
        self.peers.append(peer)
        self.loop_turn()

    def pick(self, index: int, states=None) -> Optional[Peer]:
        """A connection the loop still reads from, preferring one in
        ``states`` when there is one."""
        live = [p for p in self.peers
                if not p.lost and not p.transport.closing]
        preferred = [p for p in live if p.state in (states or ())] or live
        return preferred[index % len(preferred)] if preferred else None

    def fault(self, peer: Peer) -> Dict[str, int]:
        peer.state = "closed"
        return {"protocol_errors": 1}

    @initialize(n=st.integers(1, 3))
    def open_sessions(self, n):
        for _ in range(n):
            self.open_session()

    @rule()
    def open_session(self):
        """Connect and complete the handshake."""
        self.connect()
        peer = self.peers[-1]
        self.say_hello(peer, [])
        if self.fleet_key is not None:
            self.say_auth(peer, True, [])

    @rule(i=PICK, prefer=st.booleans(), cuts=CUTS)
    def hello(self, i, prefer, cuts):
        peer = self.pick(i, ("hello",) if prefer else None)
        if peer is not None:
            self.say_hello(peer, cuts)

    def say_hello(self, peer: Peer, cuts) -> None:
        def model(peer):
            if peer.state != "hello":
                return self.fault(peer)
            peer.state = "session" if self.fleet_key is None else "auth"
            return {}
        self.send(peer, encode_hello(peer.client_id), cuts, model)

    @rule(i=PICK, prefer=st.booleans(), good=st.booleans(), cuts=CUTS)
    def auth(self, i, prefer, good, cuts):
        peer = self.pick(i, ("auth",) if prefer else None)
        if peer is not None:
            self.say_auth(peer, good, cuts)

    def say_auth(self, peer: Peer, good: bool, cuts) -> None:
        challenges = [m for m in peer.transport.messages if m[0] == "c"]
        nonce = bytes.fromhex(challenges[-1][1]) if challenges else b""
        key = derive_session_key(FLEET_KEY, peer.client_id)
        tag = auth_tag(key, peer.client_id, nonce)
        if not good:
            tag = bytes([tag[0] ^ 1]) + tag[1:]

        def model(peer):
            if peer.state != "auth":
                return self.fault(peer)
            if good:
                peer.state = "session"
                return {}
            peer.state = "closed"
            return {"auth_failures": 1}
        self.send(peer, encode_auth(tag), cuts, model)

    @rule(i=PICK, n=st.integers(1, 4), cuts=CUTS)
    def batch(self, i, n, cuts):
        peer = self.pick(i, ("session",))
        if peer is not None:
            self.send_batch(peer, n, cuts)

    @rule(i=PICK, k=st.integers(2, 6))
    def quota_flood(self, i, k):
        for _ in range(k):
            peer = self.pick(i, ("session",))
            if peer is not None:
                self.send_batch(peer, 4, [])

    @rule(i=PICK, j=PICK)
    def burst(self, i, j):
        """Batches from two sessions read in one loop turn: the turn
        still hands off at most once per idle worker."""
        for index in (i, j):
            peer = self.pick(index, ("session",))
            if peer is not None:
                self.send_batch(peer, 2, [], turn=False)
        assert len(self.loop.live(self.svc.flush_idle)) <= 1
        self.loop_turn()

    def send_batch(self, peer: Peer, n: int, cuts, turn: bool = True) -> None:
        batch_id = peer.next_batch
        payload = encode_batch(batch_id, [
            ev(peer.client_id, 10 * batch_id + i) for i in range(n)])
        if self.fleet_key is not None:
            payload = seal_payload(
                derive_session_key(FLEET_KEY, peer.client_id),
                peer.client_id, payload)
        svc = self.svc
        routed, refused = svc.batches_routed, svc.quota_refused
        submitted, refusals = svc.handoffs_submitted, svc.submit_refusals
        buffered = [svc.buffered(s) for s in range(svc.num_workers)]
        busy = [svc.inflight_batches(s) > 0 for s in range(svc.num_workers)]

        def model(peer):
            if peer.state != "session":
                return self.fault(peer)
            peer.next_batch += 1
            peer.sent.append(batch_id)
            if svc.batches_routed == routed + 1:
                self.check_handoff(peer.proto.conn.shard, buffered, busy,
                                   submitted, refusals)
                return {}
            # Over quota: refused, the credit returned at once.
            assert self.svc.quota_refused == refused + 1
            assert peer.transport.messages[-1] == ("n", batch_id, 1)
            peer.refused += 1
            if peer.refused >= DISCONNECT_AFTER:
                peer.state = "closed"
                return {"quota_refused": 1, "quota_disconnects": 1}
            return {"quota_refused": 1}
        self.send(peer, payload, cuts, model, turn)

    @rule(i=PICK, kind=st.sampled_from(["non-canonical batch", "bye",
                                        "garbage", "preauth flood",
                                        "connection lost"]),
          junk=st.binary(max_size=40), flag=st.booleans(), cuts=CUTS)
    def disrupt(self, i, kind, junk, flag, cuts):
        """One of the moves that end a connection.  They share a rule so
        that sessions live long enough to exercise flow control."""
        peer = self.pick(i, PRE if kind == "preauth flood" else None)
        if peer is None:
            return
        if kind == "non-canonical batch":
            self.send(peer, b'[ "e",%d,[]]' % peer.next_batch, cuts,
                      self.fault)
        elif kind == "bye":
            self.say_bye(peer, cuts)
        elif kind == "garbage":
            self.send_garbage(peer, junk, bad_crc=flag)
        elif kind == "preauth flood":
            self.flood_preauth(peer)
        else:
            self.lose(peer, reset=flag)

    def check_handoff(self, shard, buffered, busy, submitted,
                      refusals) -> None:
        """The reference rule for when a routed batch is handed off: at
        once when it fills its buffer to ``HANDOFF_BATCH`` (a dead
        worker refuses the submit); otherwise it waits, and when its
        worker has no outstanding handoff the loop turn's one flush is
        due."""
        svc = self.svc
        dead = shard in svc.backend.dead_workers()
        moved = (svc.handoffs_submitted - submitted,
                 svc.submit_refusals - refusals)
        if buffered[shard] + 1 >= MODEL_LIMITS["HANDOFF_BATCH"]:
            assert moved == ((0, 1) if dead else (1, 0))
            assert svc.buffered(shard) == (buffered[shard] + 1 if dead
                                           else 0)
        else:
            assert moved == (0, 0)
            assert svc.buffered(shard) == buffered[shard] + 1
            if not busy[shard]:
                assert self.loop.live(svc.flush_idle)

    def say_bye(self, peer: Peer, cuts) -> None:
        def model(peer):
            if peer.state != "session":
                return self.fault(peer)
            assert peer.transport.messages[-1] == ("q",)
            peer.state = "closed"
            return {}
        self.send(peer, encode_bye(), cuts, model)

    def send_garbage(self, peer: Peer, junk: bytes, bad_crc: bool) -> None:
        # Not UTF-8, so never a message in any state.
        payload = b"\xff" + junk
        wire = frame_payload(payload)
        if bad_crc:
            wire = wire[:4] + bytes([wire[4] ^ 1]) + wire[5:]
        before = front_counts(self.svc)
        self.deliver(peer, wire, [])
        deltas = self.gate(peer, len(wire))
        if deltas is None or (bad_crc and "preauth_overflows" in deltas):
            # A bad CRC is refused while decoding, before the byte cap.
            deltas = {"protocol_errors": 1}
        peer.state = "closed"
        self.expect(before, deltas, peer.client_id)
        assert peer.proto.state == "closed"
        self.loop_turn()

    def flood_preauth(self, peer: Peer) -> None:
        if peer.state not in PRE:
            return  # a session has no byte cap, only a torn frame
        wire = FRAME_HEADER.pack(4000, 0) + bytes(PREAUTH_CAP)
        before = front_counts(self.svc)
        self.deliver(peer, wire, [])
        deltas = self.gate(peer, len(wire))
        peer.state = "closed"
        self.expect(before, deltas, peer.client_id)
        self.loop_turn()

    # -- rules: the loop and the clock ---------------------------------
    def lose(self, peer: Peer, reset: bool) -> None:
        """EOF or a peer reset, as the loop reports either."""
        before = front_counts(self.svc)
        peer.lost = True
        peer.proto.connection_lost(
            ConnectionResetError(104, "reset") if reset else None)
        peer.state = "closed"
        self.expect(before, {}, peer.client_id)
        self.loop_turn()

    @rule(dt=st.floats(0.0, 2 * TIMEOUT_S), fire_timers=st.booleans())
    def clock_jump(self, dt, fire_timers):
        """Advance the clock; then, or not yet, fire every handshake
        timer (bytes may arrive before a due timer runs)."""
        self.now[0] += dt
        if not fire_timers:
            return
        before = front_counts(self.svc)
        reaped = 0
        for peer in self.peers:
            expired = peer.state in PRE and self.now[0] >= peer.deadline
            assert peer.proto.tick() == expired
            if expired:
                peer.state = "closed"
                reaped += 1
        self.expect(before, {"handshake_timeouts": reaped} if reaped else {},
                    "clock")
        self.loop_turn()

    @rule(early=st.sampled_from([0.0, 0.0, 0.05, 1.0]))
    def quota_timers_fire(self, early):
        """Fire every quota timer due within ``early`` seconds (a timer
        that finds its bucket short, as after a take since it was armed,
        must re-arm): it lifts its connection's SUPPRESS once the bucket
        is half full, and re-arms itself otherwise."""
        for handle in self.loop.fire_due_timers(early):
            conn = handle.args[0]
            half = conn.bucket.level(self.now[0]) >= conn.bucket.burst / 2.0
            assert conn.quota_suppressed != half
            assert (conn.lift is not None) == conn.quota_suppressed
        self.loop_turn()

    @rule()
    def settle(self):
        """Let the loop run until nothing is ready: every batch routed to
        a worker, live or restarted, has then been handed off and
        answered."""
        for _ in range(50):
            if not self.loop.live():
                break
            self.loop_turn()
        assert not self.loop.live()
        assert self.svc.buffered() == self.svc.inflight_batches() == 0

    # -- rules: the service --------------------------------------------
    @rule()
    def flush(self):
        self.svc.flush()
        self.loop_turn()

    @rule()
    def poll_completions(self):
        self.svc.poll_completions()
        self.loop_turn()

    @rule()
    def check_workers(self):
        self.svc.check_workers()

    @rule(shard=st.integers(0, 1))
    def sigkill_worker(self, shard):
        if shard not in self.svc.backend.dead_workers():
            self.svc.sigkill_worker(shard)

    # -- invariants ----------------------------------------------------
    @invariant()
    def conserved(self):
        self.svc.audit_conservation()

    @invariant()
    def states_match_the_model(self):
        for peer in self.peers:
            assert peer.proto.state == peer.state, peer.client_id
        assert len(self.svc.handshakes) == sum(
            p.state in PRE for p in self.peers)
        assert sorted(c.client_id for c in self.svc.conns.values()) == \
            sorted(p.client_id for p in self.peers if p.state == "session")

    @invariant()
    def every_waiting_batch_has_a_trigger(self):
        """A buffered or in-flight batch always has a loop callback that
        will move it (a flush, a report or a restart), and the turn's
        flush is coalesced."""
        for shard in range(self.svc.num_workers):
            if self.svc.buffered(shard) or self.svc.inflight_batches(shard):
                assert self.loop.live()
        assert len(self.loop.live(self.svc.flush_idle)) <= 1

    @invariant()
    def one_quota_timer_per_suppressed_session(self):
        for peer in self.peers:
            if peer.state == "session":
                conn = peer.proto.conn
                armed = conn.lift is not None and not conn.lift.cancelled
                assert armed == conn.quota_suppressed, peer.client_id
            elif peer.proto.conn is not None:
                lift = peer.proto.conn.lift
                assert lift is None or lift.cancelled, peer.client_id

    @invariant()
    def each_batch_answered_at_most_once(self):
        for peer in self.peers:
            answered = self.answered.get(peer.client_id, [])
            assert len(answered) == len(set(answered)), peer.client_id
            assert set(answered) <= set(peer.sent), peer.client_id

    @invariant()
    def wire_suppression_matches_the_service(self):
        for peer in self.peers:
            if peer.state != "session":
                continue
            flags = [m[0] == "s" for m in peer.transport.messages
                     if m[0] in ("s", "r")]
            conn = peer.proto.conn
            assert (flags[-1] if flags else False) == conn.suppressed
            assert conn.suppressed == (self.svc.suppressed(conn.shard)
                                       or conn.quota_suppressed)

    def teardown(self):
        try:
            for _ in range(50):
                if not self.svc.buffered() + self.svc.inflight_batches():
                    break
                self.check_workers()
                self.flush()
                self.poll_completions()
            # Every batch a live session sent got exactly one ACK or
            # REFUSED.
            for peer in self.peers:
                if peer.state == "session":
                    assert sorted(self.answered.get(peer.client_id, [])) \
                        == sorted(peer.sent), peer.client_id
            self.svc.audit_conservation()
            self.svc.drain_and_close()
        finally:
            shutil.rmtree(self.root, ignore_errors=True)
            self.patches.undo()


class PlainModel(ConnModel):
    fleet_key = None


class AuthenticatedModel(ConnModel):
    fleet_key = FLEET_KEY


MODEL_SETTINGS = settings(max_examples=60, stateful_step_count=60,
                          deadline=None)
TestPlainConnModel = PlainModel.TestCase
TestPlainConnModel.settings = MODEL_SETTINGS
TestAuthenticatedConnModel = AuthenticatedModel.TestCase
TestAuthenticatedConnModel.settings = MODEL_SETTINGS


def test_connection_accepted_after_the_drain_is_refused(tmp_path,
                                                        monkeypatch):
    """A connection the listener accepted just before ``stop()`` reaches
    ``connection_made`` only after the drain: it is closed at once,
    holding no slot and moving no counter, so nothing it sends can be
    routed into the closed service (inline, a route there would append
    to the closed worker's event log from ``data_received``)."""
    monkeypatch.setattr(service, "HANDOFF_BATCH", 1)
    svc = IngestService(1, mode="inline", root=tmp_path)
    svc.drain_and_close()
    before = front_counts(svc)
    transport = FakeTransport()
    proto = ConnProtocol(svc)
    proto.connection_made(transport)
    proto.data_received(frame_payload(encode_hello("veh-late")))
    assert transport.closing and not transport.messages
    assert proto.state == "closed" and not svc.handshakes and not svc.conns
    assert front_counts(svc) == before


# ----------------------------------------------------------------------
# Hostile-frame catalogue
# ----------------------------------------------------------------------
CID = "veh-hostile"
SESSION_KEY = derive_session_key(FLEET_KEY, CID)


def _sealed(payload: bytes) -> bytes:
    return seal_payload(SESSION_KEY, CID, payload)


def _bad_crc(wire: bytes) -> bytes:
    return wire[:4] + bytes([wire[4] ^ 0x80]) + wire[5:]


def _flip(data: bytes, index: int) -> bytes:
    flipped = bytearray(data)
    flipped[index] ^= 1
    return bytes(flipped)


def _batch_with(field_index: int, value) -> bytes:
    obj = json.loads(encode_batch(0, [ev(CID, 0), ev(CID, 1)]))
    obj[2][1][field_index] = value
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


GOOD_BATCH = _sealed(encode_batch(0, [ev(CID, 0), ev(CID, 1)]))


@dataclass(frozen=True)
class Hostile:
    """One hostile input: sent at ``stage`` (``open``: first bytes on
    the wire; ``challenged``: after HELLO; ``session``: after WELCOME),
    with ``outcome`` ``dropped`` (closed, nothing acked) or ``acked``
    (an ACK admitting nothing, the session stays up), moving ``counter``
    by one and no other refusal counter."""

    id: str
    stage: str
    wire: bytes
    outcome: str
    counter: str


F = frame_payload
CATALOGUE = [
    # -- framing ---------------------------------------------------------
    Hostile("bad-crc", "open", _bad_crc(F(encode_hello(CID))),
            "dropped", "protocol_errors"),
    Hostile("oversize-length", "open", FRAME_HEADER.pack((1 << 24) + 1, 0),
            "dropped", "protocol_errors"),
    Hostile("session-bad-crc", "session", _bad_crc(F(GOOD_BATCH)),
            "dropped", "protocol_errors"),
    # -- handshake order -------------------------------------------------
    Hostile("batch-before-hello", "open", F(GOOD_BATCH),
            "dropped", "protocol_errors"),
    Hostile("auth-before-hello", "open", F(encode_auth(bytes(16))),
            "dropped", "protocol_errors"),
    Hostile("bye-before-hello", "open", F(encode_bye()),
            "dropped", "protocol_errors"),
    Hostile("second-hello-pre-auth", "challenged", F(encode_hello(CID)),
            "dropped", "protocol_errors"),
    # -- HELLO client ids --------------------------------------------------
    Hostile("hello-int-id", "open", F(b'["h",5,1]'),
            "dropped", "protocol_errors"),
    Hostile("hello-nan-id", "open", F(b'["h",NaN,1]'),
            "dropped", "protocol_errors"),
    Hostile("hello-list-id", "open", F(b'["h",["x"],1]'),
            "dropped", "protocol_errors"),
    Hostile("hello-null-id", "open", F(b'["h",null,1]'),
            "dropped", "protocol_errors"),
    Hostile("hello-huge-int-id", "open", F(b'["h",' + b"9" * 600 + b',1]'),
            "dropped", "protocol_errors"),
    Hostile("hello-huge-str-id", "open",
            F(canonical_dumps(["h", "v" * 8000, 1])),
            "dropped", "preauth_overflows"),
    Hostile("hello-bad-version", "open", F(b'["h","veh-x","one"]'),
            "dropped", "protocol_errors"),
    Hostile("hello-deep-nesting", "open", F(b"[" * 5000 + b"]" * 5000),
            "dropped", "preauth_overflows"),
    Hostile("hello-nested-1k", "open", F(b"[" * 1000 + b"]" * 1000),
            "dropped", "protocol_errors"),
    # -- AUTH tags ---------------------------------------------------------
    Hostile("auth-short-tag", "challenged", F(encode_auth(bytes(8))),
            "dropped", "auth_failures"),
    Hostile("auth-long-tag", "challenged", F(encode_auth(bytes(32))),
            "dropped", "auth_failures"),
    Hostile("auth-wrong-tag", "challenged", F(encode_auth(bytes(16))),
            "dropped", "auth_failures"),
    Hostile("auth-non-hex-tag", "challenged",
            F(canonical_dumps(["u", "not-hex!"])), "dropped", "auth_failures"),
    Hostile("auth-int-tag", "challenged", F(b'["u",5]'),
            "dropped", "auth_failures"),
    # -- session payloads ------------------------------------------------
    Hostile("non-canonical-batch", "session", F(b'[ "e",0,[]]'),
            "dropped", "protocol_errors"),
    Hostile("unscannable-batch-id", "session", F(b'["e",bogus,[]]'),
            "dropped", "protocol_errors"),
    Hostile("second-hello", "session", F(encode_hello(CID)),
            "dropped", "protocol_errors"),
    Hostile("unknown-tag", "session", F(b'["z"]'),
            "dropped", "protocol_errors"),
    Hostile("bye-with-field", "session", F(b'["q",0]'),
            "dropped", "protocol_errors"),
    # -- batch contents (checked by the owning worker) ---------------------
    Hostile("schema-violating-event", "session",
            F(_sealed(_batch_with(1, "999.0"))),
            "dropped", "service_decode_errors"),
    Hostile("nan-event-time", "session",
            F(_sealed(_batch_with(1, float("nan")))),
            "dropped", "service_decode_errors"),
    Hostile("huge-severity", "session",
            F(_sealed(_batch_with(5, 10 ** 30))),
            "dropped", "service_decode_errors"),
    Hostile("future-event", "session",
            F(_sealed(encode_batch(0, [ev(CID, 0, t=1e12)]))),
            "acked", "rejected_invalid"),
    # -- batch trailers ----------------------------------------------------
    Hostile("missing-trailer", "session",
            F(encode_batch(0, [ev(CID, 0)])),
            "dropped", "service_cmac_rejected"),
    Hostile("truncated-trailer", "session", F(GOOD_BATCH[:-1]),
            "dropped", "service_cmac_rejected"),
    Hostile("flipped-trailer", "session", F(_flip(GOOD_BATCH, -1)),
            "dropped", "service_cmac_rejected"),
    Hostile("flipped-body", "session", F(_flip(GOOD_BATCH, -20)),
            "dropped", "service_cmac_rejected"),
]


def _answers(messages) -> List[tuple]:
    return [m for m in messages if m[0] in ("a", "n")]


def _counts(front: Dict[str, int], workers: List[Dict[str, float]]):
    out = dict(front)
    for name in WORKER_COUNTERS:
        out[name] = int(sum(m.get(name, 0.0) for m in workers))
    return out


def _expected(row: Hostile) -> Dict[str, int]:
    out = dict.fromkeys(FRONT_COUNTERS + WORKER_COUNTERS, 0)
    out[row.counter] = 1
    return out


def _open_sans_io(svc, stage: str):
    transport = FakeTransport()
    proto = ConnProtocol(svc)
    proto.connection_made(transport)
    if stage != "open":
        proto.data_received(F(encode_hello(CID)))
        assert transport.messages[-1][0] == "c"
    if stage == "session":
        nonce = bytes.fromhex(transport.messages[-1][1])
        proto.data_received(F(encode_auth(auth_tag(SESSION_KEY, CID,
                                                   nonce))))
        assert transport.messages[-1][0] == "w"
    return proto, transport


class TestHostileCatalogue:
    def test_ids_unique_and_counters_known(self):
        assert len({row.id for row in CATALOGUE}) == len(CATALOGUE)
        for row in CATALOGUE:
            assert row.counter in FRONT_COUNTERS + WORKER_COUNTERS
            assert row.stage in ("open", "challenged", "session")

    @pytest.mark.parametrize("row", CATALOGUE, ids=lambda row: row.id)
    def test_row_against_protocol(self, row):
        svc = IngestService(1, mode="inline",
                            config=ServiceConfig(fleet_key=FLEET_KEY),
                            clock=lambda: 1000.0, mono_clock=lambda: 50.0)
        proto, transport = _open_sans_io(svc, row.stage)
        before = len(transport.messages)
        proto.data_received(row.wire)
        svc.flush()
        svc.poll_completions()
        if transport.closing:
            proto.connection_lost(None)
        replies = _answers(transport.messages[before:])
        if row.outcome == "dropped":
            assert transport.closing and replies == []
            assert len(svc.handshakes) == 0 and not svc.conns
        else:
            assert not transport.closing
            assert replies == [("a", 0, 0, 1)]
        workers = svc.drain_and_close()
        assert _counts(front_counts(svc), workers) == _expected(row)
        assert svc.batches_cmac_rejected == (
            row.counter == "service_cmac_rejected")
        svc.audit_conservation()

    def test_whole_table_against_process_server(self, tmp_path):
        async def open_raw(port, stage):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            decoder = FrameStreamDecoder()

            async def next_message():
                while True:
                    payloads = decoder.feed(await reader.read(1 << 16))
                    if payloads:
                        return decode_message(payloads[0])

            if stage != "open":
                writer.write(F(encode_hello(CID)))
                challenge = await next_message()
                assert challenge[0] == "c"
            if stage == "session":
                writer.write(F(encode_auth(auth_tag(
                    SESSION_KEY, CID, bytes.fromhex(challenge[1])))))
                assert (await next_message())[0] == "w"
            return reader, writer, decoder

        async def main():
            svc = IngestService(1, mode="process", root=tmp_path,
                                config=ServiceConfig(fleet_key=FLEET_KEY))
            server = await serve(svc)
            outcomes = {}
            try:
                for row in CATALOGUE:
                    before = front_counts(svc)
                    reader, writer, decoder = await open_raw(server.port,
                                                             row.stage)
                    writer.write(row.wire)
                    if row.outcome == "dropped":
                        got = await asyncio.wait_for(reader.read(),
                                                     timeout=10.0)
                        replies = _answers(map(decode_message,
                                               decoder.feed(got)))
                    else:
                        replies = []
                        while not replies:
                            replies = _answers(map(decode_message,
                                                   decoder.feed(
                                                       await reader.read(
                                                           1 << 16))))
                    writer.close()
                    after = front_counts(svc)
                    outcomes[row.id] = (
                        replies,
                        {k: after[k] - before[k] for k in after
                         if after[k] != before[k]})
            finally:
                workers = await server.stop()
            return svc, outcomes, workers

        svc, outcomes, workers = asyncio.run(main())
        for row in CATALOGUE:
            replies, moved = outcomes[row.id]
            want = ({row.counter: 1} if row.counter in FRONT_COUNTERS
                    else {})
            assert moved == want, row.id
            assert replies == ([] if row.outcome == "dropped"
                               else [("a", 0, 0, 1)]), row.id
        totals = _counts(front_counts(svc), workers)
        for name in WORKER_COUNTERS:
            assert totals[name] == sum(row.counter == name
                                       for row in CATALOGUE), name
        assert svc.batches_cmac_rejected == totals["service_cmac_rejected"]
        assert len(svc.handshakes) == 0 and not svc.conns
        svc.audit_conservation()
