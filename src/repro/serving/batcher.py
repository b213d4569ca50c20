"""Size-aware request aggregation: windowing policies and the batcher.

The paper's implicit sorting (§III-D) keeps each *launch* over
nearly-equal matrix sizes so thread-block durations cluster and the SM
schedule stays dense.  A serving front door faces the same problem one
level up: which of the queued requests should share the next vbatched
launch?  The policies here answer that question; the :class:`Batcher`
enforces the invariants around them:

* a batch never exceeds ``max_batch`` requests;
* a flush is due once the most urgent request has waited ``max_wait``
  (or its deadline minus ``deadline_margin`` has arrived), and every
  emitted batch contains that most urgent request — no starvation;
* a batch never mixes dtypes (one :class:`~repro.core.batch.VBatch`
  holds one precision) nor factor operations (one launch runs one
  kernel DAG; ``posv`` rides with ``potrf`` and ``gesv`` with
  ``getrf`` because they share the factor launch).

Policies choose *which* compatible requests ride along:

* ``"fifo"`` — arrival order, sizes ignored (the baseline the paper's
  unsorted launches correspond to);
* ``"size-bucket"`` — quantize ``n`` into fixed-width buckets, serve
  the urgent request's bucket (the serving analogue of the fixed-size
  batched + padding baseline, without the padding); the bucket key is
  op-aware because compatibility is;
* ``"greedy-window"`` — grow a window around the urgent request's size,
  always absorbing the closest remaining size, while the window's
  max/min ratio stays under ``max_ratio`` (implicit sorting as an
  admission rule);
* ``"cross-op"`` — the greedy window tuned for mixed-operation queues:
  each flush still serves one operation (the urgent request's), but
  when that operation's backlog cannot fill the batch the size window
  relaxes to ``relaxed_ratio`` so minority-op flushes leave full, and
  majority-op flushes keep the tight homogeneous window.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left
from collections.abc import Sequence

from ..errors import ArgumentError, ServingError
from ..observability.trace import Track, current_tracer
from .request import Request

__all__ = [
    "Batcher",
    "BatchingPolicy",
    "CrossOpGreedyPolicy",
    "FifoPolicy",
    "GreedyWindowPolicy",
    "SizeBucketPolicy",
    "POLICIES",
    "make_policy",
]


class BatchingPolicy:
    """Strategy interface: pick the requests that share the next launch.

    ``select`` receives the pending queue (arrival order), the index of
    the most urgent request, and the batch budget; it returns indices
    into ``pending``.  The :class:`Batcher` validates the contract:
    non-empty, unique, within budget, urgent included, one dtype, one
    factor operation.
    """

    name = "abstract"

    def select(self, pending: Sequence[Request], urgent: int, max_batch: int) -> list[int]:
        raise NotImplementedError

    def compatible(self, pending: Sequence[Request], urgent: int) -> list[int]:
        """Indices sharing the urgent request's dtype *and* factor op
        (arrival order) — the two things one vbatched launch cannot
        mix.  Every policy's candidate set starts here, which is what
        makes size buckets and greedy windows op-aware for free.  The
        :class:`Batcher` hands over its queue with the urgent request's
        class already indexed, so for that request nothing is scanned."""
        if isinstance(pending, _Queue) and urgent == pending.urgent:
            return list(pending.classmates)
        dtype = pending[urgent].dtype
        op_key = pending[urgent].factor_op
        return [
            i
            for i, r in enumerate(pending)
            if r.dtype == dtype and r.factor_op == op_key
        ]


class FifoPolicy(BatchingPolicy):
    """Arrival order, size-blind — the baseline every paper figure
    measures implicit sorting against."""

    name = "fifo"

    def select(self, pending: Sequence[Request], urgent: int, max_batch: int) -> list[int]:
        picks = self.compatible(pending, urgent)[:max_batch]
        if urgent not in picks:  # urgent is oldest compatible, but be safe
            picks = [urgent] + picks[: max_batch - 1]
        return picks


class SizeBucketPolicy(BatchingPolicy):
    """Quantize sizes into ``bucket_width``-wide bands; a batch serves
    one band.  Small widths give near-homogeneous launches but smaller
    batches; ``bucket_width=1`` is exact-size grouping."""

    name = "size-bucket"

    def __init__(self, bucket_width: int = 32):
        if bucket_width <= 0:
            raise ArgumentError(1, f"bucket_width must be positive, got {bucket_width}")
        self.bucket_width = int(bucket_width)

    def bucket(self, n: int) -> int:
        return (max(int(n), 1) - 1) // self.bucket_width

    def select(self, pending: Sequence[Request], urgent: int, max_batch: int) -> list[int]:
        want = self.bucket(pending[urgent].n)
        same = [
            i for i in self.compatible(pending, urgent) if self.bucket(pending[i].n) == want
        ]
        picks = same[:max_batch]
        if urgent not in picks:
            picks = [urgent] + picks[: max_batch - 1]
        return picks


class GreedyWindowPolicy(BatchingPolicy):
    """Grow a size window outward from the urgent request.

    Candidates are taken closest-size-first (ties: smaller ``n``, then
    arrival) while the window's ``max(n)/max(1, min(n))`` stays at most
    ``max_ratio``.  ``max_ratio=1.0`` serves exact-size groups only;
    larger ratios trade launch homogeneity for batch fill.
    """

    name = "greedy-window"

    def __init__(self, max_ratio: float = 1.5):
        if max_ratio < 1.0:
            raise ArgumentError(1, f"max_ratio must be >= 1.0, got {max_ratio}")
        self.max_ratio = float(max_ratio)

    def select(self, pending: Sequence[Request], urgent: int, max_batch: int) -> list[int]:
        return self._window(pending, urgent, max_batch, self.max_ratio)

    def _window(
        self, pending: Sequence[Request], urgent: int, max_batch: int, ratio: float
    ) -> list[int]:
        anchor = pending[urgent].n
        picks = [urgent]
        lo = hi = max(anchor, 1)
        candidates = sorted(
            (i for i in self.compatible(pending, urgent) if i != urgent),
            key=lambda i: (abs(pending[i].n - anchor), pending[i].n, pending[i].arrival, i),
        )
        for i in candidates:
            if len(picks) >= max_batch:
                break
            n = max(pending[i].n, 1)
            if max(hi, n) / min(lo, n) > ratio:
                continue
            picks.append(i)
            lo, hi = min(lo, n), max(hi, n)
        return picks


class CrossOpGreedyPolicy(GreedyWindowPolicy):
    """The greedy window specialized for mixed-operation queues.

    A dispatched batch still runs one factor op (a vbatched launch is
    one kernel DAG), so the cross-op leverage is in *when the window
    widens*: with the urgent op's backlog at or above ``max_batch`` the
    tight ``max_ratio`` window applies unchanged (plenty of same-op
    fill to choose from), but a minority op that could only scrape
    together a sliver of a batch relaxes to ``relaxed_ratio`` — its
    rare flushes leave full instead of trickling out padded singletons
    between the majority op's batches.  The per-op flush cadence itself
    falls out of the urgency rule: whichever op's oldest request
    expires first gets the next window.
    """

    name = "cross-op"

    def __init__(self, max_ratio: float = 1.5, relaxed_ratio: float = 4.0):
        super().__init__(max_ratio)
        if relaxed_ratio < max_ratio:
            raise ArgumentError(
                1, f"relaxed_ratio must be >= max_ratio, got {relaxed_ratio} < {max_ratio}"
            )
        self.relaxed_ratio = float(relaxed_ratio)

    def select(self, pending: Sequence[Request], urgent: int, max_batch: int) -> list[int]:
        same_op = self.compatible(pending, urgent)
        ratio = self.max_ratio if len(same_op) >= max_batch else self.relaxed_ratio
        return self._window(pending, urgent, max_batch, ratio)


POLICIES = {
    "fifo": FifoPolicy,
    "size-bucket": SizeBucketPolicy,
    "greedy-window": GreedyWindowPolicy,
    "cross-op": CrossOpGreedyPolicy,
}


def make_policy(policy: str | BatchingPolicy, **kwargs) -> BatchingPolicy:
    """Resolve a policy name (or pass an instance through)."""
    if isinstance(policy, BatchingPolicy):
        return policy
    try:
        cls = POLICIES[policy]
    except KeyError:
        known = ", ".join(sorted(POLICIES))
        raise ArgumentError(1, f"unknown batching policy {policy!r}; known: {known}") from None
    return cls(**kwargs)


class _Queue(list):
    """The pending queue in arrival order, as a policy receives it from
    the :class:`Batcher`: ``classmates`` are the (ascending) indices of
    the ``(dtype, factor_op)`` class of request ``urgent``."""

    __slots__ = ("urgent", "classmates")


class Batcher:
    """The windowing state machine between the queue and the dispatcher.

    Holds pending requests in arrival order and decides *when* a batch
    must leave (max-batch fill, max-wait age, deadline pressure) and
    *which* requests it contains (delegated to the policy, validated
    here).  Thread safety is the server's job; the batcher itself is a
    plain data structure so the policies stay trivially testable.

    The queue is indexed so a pump never rescans it: every request gets
    an arrival sequence number, each ``(dtype, factor_op)`` class keeps
    its requests in arrival order, and a heap orders
    ``(effective_deadline, arrival, req_id, seq)`` with lazy deletion
    (entries of requests no longer pending are skipped when they reach
    the top).  :meth:`add` and :meth:`remove` maintain the indices, so
    the urgent request, :meth:`flush_due` and :meth:`next_wakeup` cost
    O(log q), and the policy receives the urgent request's class
    positions with the queue instead of filtering it
    (:meth:`BatchingPolicy.compatible`).  Heap keys are taken when a
    request is added (or when ``max_wait`` changes).
    """

    def __init__(
        self,
        policy: str | BatchingPolicy = "greedy-window",
        max_batch: int = 32,
        max_wait: float = 2e-3,
        deadline_margin: float = 0.0,
    ):
        if max_batch <= 0:
            raise ArgumentError(2, f"max_batch must be positive, got {max_batch}")
        if max_wait < 0:
            raise ArgumentError(3, f"max_wait cannot be negative, got {max_wait}")
        if deadline_margin < 0:
            raise ArgumentError(4, f"deadline_margin cannot be negative, got {deadline_margin}")
        self.policy = make_policy(policy)
        self.max_batch = int(max_batch)
        self.deadline_margin = float(deadline_margin)
        self._seq = itertools.count()
        #: seq -> request, in arrival order.
        self._pending: dict[int, Request] = {}
        #: Live seqs, ascending: a request's position in :attr:`pending`.
        self._seqs: list[int] = []
        #: (dtype, factor_op) -> seq -> request, in arrival order.
        self._classes: dict[tuple, dict[int, Request]] = {}
        #: req_id -> live seqs (ids are unique when a server assigns them).
        self._ids: dict[int, list[int]] = {}
        self._heap: list[tuple] = []
        self.max_wait = max_wait
        # Trace row for window-close events; the owning server points
        # this at its queue track so events group under the server.
        self.trace_track = Track("serving", "queue")

    @property
    def max_wait(self) -> float:
        return self._max_wait

    @max_wait.setter
    def max_wait(self, value: float) -> None:
        # Effective deadlines depend on max_wait: re-key the heap.
        self._max_wait = float(value)
        self._heap = [self._entry(seq, r) for seq, r in self._pending.items()]
        heapq.heapify(self._heap)

    def _entry(self, seq: int, request: Request) -> tuple:
        return (request.effective_deadline(self._max_wait), request.arrival, request.req_id, seq)

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def pending(self) -> tuple[Request, ...]:
        """Read-only view of the queue (tests and metrics)."""
        return tuple(self._pending.values())

    def add(self, request: Request) -> None:
        seq = next(self._seq)
        self._pending[seq] = request
        self._seqs.append(seq)
        self._classes.setdefault((request.dtype, request.factor_op), {})[seq] = request
        self._ids.setdefault(request.req_id, []).append(seq)
        heapq.heappush(self._heap, self._entry(seq, request))

    def _drop(self, seq: int) -> Request:
        """Unindex one pending request; its heap entry goes lazily."""
        request = self._pending.pop(seq)
        del self._seqs[bisect_left(self._seqs, seq)]
        key = (request.dtype, request.factor_op)
        members = self._classes[key]
        del members[seq]
        if not members:
            del self._classes[key]
        seqs = self._ids[request.req_id]
        seqs.remove(seq)
        if not seqs:
            del self._ids[request.req_id]
        if len(self._heap) > 2 * len(self._pending) + 64:
            self._heap = [e for e in self._heap if e[3] in self._pending]
            heapq.heapify(self._heap)
        return request

    def remove(self, req_id: int) -> Request | None:
        """Pull one pending request out of the queue by id (cancellation
        path); returns it, or ``None`` if it is no longer pending —
        already batched, served, or never queued here."""
        seqs = self._ids.get(req_id)
        return self._drop(seqs[0]) if seqs else None

    def _urgent(self) -> tuple | None:
        """Heap entry of the most urgent pending request."""
        heap, pending = self._heap, self._pending
        while heap and heap[0][3] not in pending:
            heapq.heappop(heap)
        return heap[0] if heap else None

    def urgent_index(self) -> int | None:
        """The request the next batch must contain, as an index into
        :attr:`pending`: soonest effective deadline, ties broken by
        arrival then id (FIFO among equals)."""
        top = self._urgent()
        return None if top is None else bisect_left(self._seqs, top[3])

    def flush_due(self, now: float) -> bool:
        """Whether a batch must leave at time ``now``."""
        if not self._pending:
            return False
        if len(self._pending) >= self.max_batch:
            return True
        return now >= self._urgent()[0] - self.deadline_margin

    def next_wakeup(self, now: float) -> float | None:
        """Earliest future instant a flush could become due (worker
        wait timeout); ``None`` when the queue is empty."""
        if not self._pending:
            return None
        if len(self._pending) >= self.max_batch:
            return now
        return max(self._urgent()[0] - self.deadline_margin, now)

    def next_batch(self, now: float, force: bool = False) -> list[Request] | None:
        """Pop and return the next batch, or ``None`` if nothing is due.

        ``force`` flushes regardless of the window triggers (drain and
        closed-loop pumping).  The returned batch satisfies the batcher
        invariants; a policy that violates them raises
        :class:`~repro.errors.ServingError` rather than mis-serving.
        """
        if not self._pending:
            return None
        if not force and not self.flush_due(now):
            return None
        seqs = self._seqs
        urgent_seq = self._urgent()[3]
        urgent = bisect_left(seqs, urgent_seq)
        urgent_req = self._pending[urgent_seq]
        members = self._classes[(urgent_req.dtype, urgent_req.factor_op)]
        queue = _Queue(self._pending.values())
        queue.urgent = urgent
        if len(members) == len(queue):
            queue.classmates = range(len(queue))
        else:
            queue.classmates = [bisect_left(seqs, seq) for seq in members]
        picks = self.policy.select(queue, urgent, self.max_batch)
        self._validate(queue, picks, urgent)
        chosen = sorted(set(picks))
        batch = [queue[i] for i in chosen]
        tracer = current_tracer()
        if tracer:
            if force:
                reason = "force"
            elif len(self._pending) >= self.max_batch:
                reason = "full"
            elif (
                urgent_req.deadline is not None
                and urgent_req.effective_deadline(self.max_wait)
                < urgent_req.arrival + self.max_wait
            ):
                reason = "deadline"
            else:
                reason = "max-wait"
            tracer.instant(
                "window-close", self.trace_track, cat="serving",
                args={"reason": reason, "size": len(batch),
                      "pending_left": len(self._pending) - len(chosen),
                      "waited": max(now - urgent_req.arrival, 0.0)},
            )
        for seq in [seqs[i] for i in chosen]:
            self._drop(seq)
        return batch

    def drain_all(self) -> list[list[Request]]:
        """Flush everything into policy-shaped batches (shutdown path)."""
        batches = []
        while self._pending:
            batches.append(self.next_batch(now=0.0, force=True))
        return batches

    def _validate(self, queue: Sequence[Request], picks: list[int], urgent: int) -> None:
        name = type(self.policy).__name__
        if not picks:
            raise ServingError(f"{name} returned an empty batch")
        if len(set(picks)) != len(picks):
            raise ServingError(f"{name} selected a request twice")
        if len(picks) > self.max_batch:
            raise ServingError(f"{name} exceeded max_batch={self.max_batch}")
        if urgent not in picks:
            raise ServingError(f"{name} starved the most urgent request")
        if any(i < 0 or i >= len(queue) for i in picks):
            raise ServingError(f"{name} selected out-of-range indices")
        dtypes = {queue[i].dtype for i in picks}
        if len(dtypes) != 1:
            raise ServingError(f"{name} mixed dtypes in one batch: {sorted(map(str, dtypes))}")
        ops = {queue[i].factor_op for i in picks}
        if len(ops) != 1:
            raise ServingError(f"{name} mixed operations in one batch: {sorted(ops)}")
