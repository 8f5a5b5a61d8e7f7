"""The CATALINA Message Center.

"CATALINA uses a Message Center (MC) for all the communications between
its modules and agents.  In the MC, every component is assigned a port
which acts as its mailbox.  Every message directed to a component is
placed on this mailbox."

This implementation adds publish/subscribe on topics — the paper's agents
"publish" local state to the message center so every agent has "direct and
immediate access to all relevant information" (Section 4.7).

Delivery is resilient: a :class:`DeliveryPolicy` can model lossy links
(seeded, deterministic), per-send timeouts, bounded exponential-backoff
retries (optionally with deterministic full jitter), and duplicate
delivery.  Undeliverable messages — unknown destination, timeout, retry
exhaustion, or a network partition severing sender from destination —
land on a dead-letter queue instead of raising, so one misaddressed
message cannot take down the control network.  Each port suppresses
re-deliveries of a message id it has already accepted (a bounded
per-port dedup window), which is what makes retry- and duplicate-prone
links safe for handlers that are only idempotent per message.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from repro import obs
from repro.agents.messages import Message
from repro.gridsys.failures import NetworkPartition

__all__ = ["DeadLetter", "DeliveryPolicy", "Port", "MessageCenter"]

#: per-port count of recent message ids remembered for duplicate
#: suppression; ids older than the window can in principle be delivered
#: twice, but seqs are monotonic so a realistic retry horizon is far
#: shorter than this
DEDUP_WINDOW = 1024


@dataclass(slots=True)
class Port:
    """A named mailbox with a bounded duplicate-suppression window."""

    name: str
    mailbox: deque = field(default_factory=deque)
    #: message seqs already accepted (bounded by :data:`DEDUP_WINDOW`)
    seen: set = field(default_factory=set)
    seen_order: deque = field(default_factory=deque)

    def __len__(self) -> int:
        return len(self.mailbox)


@dataclass(frozen=True, slots=True)
class DeliveryPolicy:
    """Link-quality and retry knobs for point-to-point delivery.

    The default policy is a perfect link: no loss, no retries needed, no
    timeout.  ``loss_rate`` drops each delivery attempt independently
    (seeded — runs are reproducible); a dropped attempt is retried up to
    ``max_retries`` times with capped exponential backoff.  The summed
    backoff is simulated seconds, charged against ``send_timeout`` when
    one is set.
    """

    #: probability a single delivery attempt is lost
    loss_rate: float = 0.0
    #: retries after the first attempt before dead-lettering
    max_retries: int = 3
    #: backoff before the first retry (simulated seconds)
    backoff_base: float = 0.05
    #: multiplier applied per retry
    backoff_factor: float = 2.0
    #: upper bound on a single backoff wait
    backoff_cap: float = 2.0
    #: total simulated seconds a send may spend retrying (None = unbounded)
    send_timeout: float | None = None
    #: seed for the loss process
    seed: int = 0
    #: probability a delivered message is delivered a second time (the
    #: classic at-least-once artifact; the receiving port's dedup window
    #: suppresses the copy)
    duplicate_rate: float = 0.0
    #: full-jitter backoff: each wait is drawn uniformly from [0, capped
    #: backoff), seeded per (policy seed, message seq, retry) so runs
    #: stay deterministic.  Off by default — the un-jittered ladder is
    #: byte-identical to prior releases.
    backoff_jitter: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {self.loss_rate}")
        if not 0.0 <= self.duplicate_rate < 1.0:
            raise ValueError(
                f"duplicate_rate must be in [0, 1), got {self.duplicate_rate}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff_base and backoff_cap must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.send_timeout is not None and self.send_timeout <= 0:
            raise ValueError(f"send_timeout must be > 0, got {self.send_timeout}")

    def backoff(self, retry: int, key: int | None = None) -> float:
        """Backoff before the ``retry``-th retry (0-based), capped.

        With ``backoff_jitter`` and a ``key`` (the message seq), returns
        a full-jitter wait: uniform in [0, capped ladder value), drawn
        from a generator seeded by ``(seed, key, retry)`` — the same
        message retrying the same attempt always waits the same time, but
        distinct messages desynchronize instead of thundering together.
        """
        bound = min(self.backoff_base * self.backoff_factor**retry, self.backoff_cap)
        if not self.backoff_jitter or key is None:
            return bound
        mix = (self.seed * 1_000_003 + key) * 1_000_003 + retry
        return bound * random.Random(mix).random()


@dataclass(frozen=True, slots=True)
class DeadLetter:
    """A message the center could not deliver, and why."""

    message: Message
    #: "unregistered-destination", "timeout", "max-retries", or "partitioned"
    reason: str
    #: message timestamp at the time of failure
    time: float
    #: delivery attempts made (0 for an unknown destination)
    attempts: int


#: default bound on the dead-letter queue.  An unconsumed queue on a
#: sustained-lossy link previously grew without limit — a slow memory
#: leak in any long-running control network that never drains it.
DEAD_LETTER_CAPACITY = 4096


class MessageCenter:
    """Port registry, point-to-point delivery, and topic pub/sub."""

    def __init__(
        self,
        policy: DeliveryPolicy | None = None,
        *,
        dead_letter_capacity: int = DEAD_LETTER_CAPACITY,
    ) -> None:
        if dead_letter_capacity < 1:
            raise ValueError(
                f"dead_letter_capacity must be >= 1, got {dead_letter_capacity}"
            )
        self.policy = policy or DeliveryPolicy()
        self._rng = random.Random(self.policy.seed)
        self._ports: dict[str, Port] = {}
        self._subscriptions: dict[str, set[str]] = {}
        self._members: dict[str, object] = {}
        self._partitions: list[NetworkPartition] = []
        self._delivered = 0
        self._retries = 0
        self._duplicates_suppressed = 0
        #: bounded: oldest entries are evicted (and counted in
        #: :attr:`dead_letters_dropped`) once the capacity is reached
        self.dead_letters: deque[DeadLetter] = deque(
            maxlen=dead_letter_capacity
        )
        self.dead_letters_dropped = 0

    # -- ports ------------------------------------------------------------------

    def register(self, name: str) -> Port:
        """Create the mailbox for a component/agent; names are unique."""
        if not name:
            raise ValueError("port name must be non-empty")
        if name in self._ports:
            raise ValueError(f"port {name!r} already registered")
        port = Port(name=name)
        self._ports[name] = port
        return port

    def unregister(self, name: str) -> None:
        """Remove a mailbox and all its subscriptions.

        Topics whose subscriber set becomes empty are pruned, so
        long-lived agent networks with churning membership don't grow the
        subscription table unboundedly.
        """
        if name not in self._ports:
            raise KeyError(f"no port named {name!r}")
        del self._ports[name]
        for topic in list(self._subscriptions):
            subscribers = self._subscriptions[topic]
            subscribers.discard(name)
            if not subscribers:
                del self._subscriptions[topic]

    def has_port(self, name: str) -> bool:
        """True if a mailbox exists for ``name``."""
        return name in self._ports

    # -- network partitions --------------------------------------------------------

    def bind_port(self, name: str, member) -> None:
        """Place a port on a partition-group member (a node id or label).

        Partition checks apply only between *bound* ports; unbound ports
        (most tests, loopback agents) are never severed.
        """
        if name not in self._ports:
            raise KeyError(f"no port named {name!r}")
        self._members[name] = member

    def inject_partition(self, partition: NetworkPartition) -> None:
        """Sever deliveries across the partition's cut while it is active.

        Sends between bound ports whose members sit in different groups
        during the partition window dead-letter with reason
        ``"partitioned"`` — retries cannot cross a cut, so the loss/retry
        machinery is bypassed entirely.
        """
        self._partitions.append(partition)

    def heal_partitions(self) -> None:
        """Drop every injected partition (the cut is repaired)."""
        self._partitions.clear()

    def _severed(self, message: Message) -> bool:
        if not self._partitions:
            return False
        a = self._members.get(message.sender)
        b = self._members.get(message.dest)
        if a is None or b is None or a == b:
            return False
        return any(p.severed(a, b, message.time) for p in self._partitions)

    # -- point-to-point -----------------------------------------------------------

    def send(self, message: Message) -> bool:
        """Deliver a message to the destination's mailbox.

        Returns ``True`` on delivery.  A message that cannot be delivered
        — unknown destination, retry budget exhausted on a lossy link, or
        per-send timeout exceeded — is appended to :attr:`dead_letters`
        with a reason, and ``False`` is returned.  Sending never raises:
        the control network must survive a misaddressed message (e.g. a
        migration order for a component that just deregistered).

        When tracing is enabled the send runs inside an ``mc.send`` span
        and the message is stamped with a fresh causal flow id
        (``trace_ctx``); the handler that later consumes the message
        closes the flow, linking the two spans in trace exports.
        """
        w = obs.current()
        if w is None:
            return self._send_inner(message)
        tracer = w.tracer
        if message.trace_ctx is None:
            # Message is frozen + slotted; the flow stamp is the one
            # sanctioned mutation (publish pre-stamps fanout copies).
            object.__setattr__(message, "trace_ctx", tracer.new_flow())
        with tracer.span("mc.send", topic=message.topic, dest=message.dest):
            tracer.flow_start(message.trace_ctx)
            return self._send_inner(message)

    def _send_inner(self, message: Message) -> bool:
        if message.dest not in self._ports:
            self._dead_letter(message, "unregistered-destination", attempts=0)
            return False
        if self._severed(message):
            self._dead_letter(message, "partitioned", attempts=0)
            return False

        policy = self.policy
        attempts = 1
        waited = 0.0
        while policy.loss_rate > 0.0 and self._rng.random() < policy.loss_rate:
            retry = attempts - 1
            if retry >= policy.max_retries:
                self._dead_letter(message, "max-retries", attempts=attempts)
                return False
            wait = policy.backoff(retry, key=message.seq)
            if policy.send_timeout is not None and waited + wait > policy.send_timeout:
                self._dead_letter(message, "timeout", attempts=attempts)
                return False
            waited += wait
            attempts += 1
            self._retries += 1
            obs.counter("mc.retries").inc()

        delivered = self._deliver(message)
        if (
            policy.duplicate_rate > 0.0
            and self._rng.random() < policy.duplicate_rate
        ):
            # The link delivered a second copy (at-least-once artifact);
            # the port's dedup window must absorb it.
            obs.counter("mc.duplicates_injected").inc()
            self._deliver(message)
        return delivered

    def _deliver(self, message: Message) -> bool:
        """Hand a message to its port, suppressing duplicate seqs."""
        port = self._ports[message.dest]
        if message.seq in port.seen:
            self._duplicates_suppressed += 1
            obs.counter("mc.duplicates_suppressed").inc()
            return True
        port.seen.add(message.seq)
        port.seen_order.append(message.seq)
        if len(port.seen_order) > DEDUP_WINDOW:
            port.seen.discard(port.seen_order.popleft())
        port.mailbox.append(message)
        self._delivered += 1
        obs.counter("mc.sends").inc()
        obs.gauge("mc.mailbox_hwm", port=message.dest).set_max(len(port.mailbox))
        return True

    def receive(self, port_name: str) -> Message | None:
        """Pop the oldest message from a mailbox, or ``None`` if empty."""
        if port_name not in self._ports:
            raise KeyError(f"no port named {port_name!r}")
        box = self._ports[port_name].mailbox
        return box.popleft() if box else None

    def drain(self, port_name: str) -> list[Message]:
        """Pop every pending message from a mailbox."""
        out = []
        while (m := self.receive(port_name)) is not None:
            out.append(m)
        return out

    # -- dead letters -------------------------------------------------------------

    def _dead_letter(self, message: Message, reason: str, *, attempts: int) -> None:
        if len(self.dead_letters) == self.dead_letters.maxlen:
            self.dead_letters_dropped += 1
            obs.counter("mc.dead_letters_dropped").inc()
        self.dead_letters.append(
            DeadLetter(message=message, reason=reason,
                       time=message.time, attempts=attempts)
        )
        obs.counter("mc.dead_letters", reason=reason).inc()

    def drain_dead_letters(self) -> list[DeadLetter]:
        """Pop and return every retained dead letter (oldest first).

        Letters evicted by the capacity bound are gone — only the
        :attr:`dead_letters_dropped` count (and the
        ``mc.dead_letters_dropped`` counter) records that they existed.
        """
        out = list(self.dead_letters)
        self.dead_letters.clear()
        return out

    @property
    def dead_letter_count(self) -> int:
        """Dead letters currently queued (diagnostics)."""
        return len(self.dead_letters)

    @property
    def retry_count(self) -> int:
        """Total delivery retries since construction (diagnostics)."""
        return self._retries

    @property
    def duplicates_suppressed_count(self) -> int:
        """Duplicate deliveries absorbed by port dedup windows."""
        return self._duplicates_suppressed

    # -- publish/subscribe ------------------------------------------------------------

    def subscribe(self, port_name: str, topic: str) -> None:
        """Deliver future publications on ``topic`` to ``port_name``."""
        if port_name not in self._ports:
            raise KeyError(f"no port named {port_name!r}")
        if not topic:
            raise ValueError("topic must be non-empty")
        self._subscriptions.setdefault(topic, set()).add(port_name)

    def unsubscribe(self, port_name: str, topic: str) -> None:
        """Stop delivering ``topic`` publications to ``port_name``.

        Idempotent for subscriptions that don't exist; raises ``KeyError``
        only for an unknown port (matching :meth:`subscribe`).  A topic
        left with no subscribers is pruned from the subscription table.
        """
        if port_name not in self._ports:
            raise KeyError(f"no port named {port_name!r}")
        subscribers = self._subscriptions.get(topic)
        if subscribers is None:
            return
        subscribers.discard(port_name)
        if not subscribers:
            del self._subscriptions[topic]

    def topics(self) -> tuple[str, ...]:
        """Topics that currently have at least one subscriber (sorted)."""
        return tuple(sorted(self._subscriptions))

    def publish(self, sender: str, topic: str, payload: dict, time: float = 0.0) -> int:
        """Fan a message out to every subscriber of ``topic``.

        Returns the number of mailboxes reached — lost or dead-lettered
        deliveries are not counted.  Subscribers are visited in sorted
        order for determinism.
        """
        count = 0
        with obs.span("mc.publish", topic=topic):
            for dest in sorted(self._subscriptions.get(topic, ())):
                if dest in self._ports:
                    delivered = self.send(
                        Message(sender=sender, dest=dest, topic=topic,
                                payload=payload, time=time)
                    )
                    if delivered:
                        count += 1
        obs.counter("mc.publishes").inc()
        obs.counter("mc.fanout", topic=topic).inc(count)
        return count

    @property
    def delivered_count(self) -> int:
        """Total messages delivered since construction (diagnostics)."""
        return self._delivered
