"""Request/response envelope of the batch-serving subsystem.

One :class:`Request` is one independent problem — a matrix to
factorize (``op="potrf"``/``"geqrf"``/``"getrf"``), decompose
(``op="gesvj"``) or factorize-and-solve (``op="posv"``/``"gesv"``) —
submitted on its own, the way an inference server receives individual
queries.  The accepted operations and their validation rules
(right-hand-side requirements, real-only precisions, flop accounting)
come from the operation registry (:mod:`repro.ops.registry`), so the
serving tier gains an operation the moment the registry does.  The server aggregates requests into
:class:`~repro.core.batch.VBatch` launches; each request carries a
:class:`RequestFuture` that resolves to a :class:`Response` when its
batch completes.

Deadlines are *scheduling pressure*, not hard kills: a request whose
deadline draws near forces its window to flush early, and a request
served late is still served (the miss is counted in the metrics) — the
semantics of a soft-real-time serving tier.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from ..errors import ArgumentError, ServingError
from ..ops.registry import get_op
from ..types import Precision

__all__ = ["Request", "RequestFuture", "Response"]

#: Operations the serving tier accepts — every registered op, the
#: factor-only drivers and the solve aliases alike.
OPS = ("potrf", "posv", "geqrf", "getrf", "gesvj", "gesv")


class RequestFuture:
    """A minimal thread-safe future for one served request.

    The worker thread resolves it exactly once — with a
    :class:`Response` on success or an exception if the request was
    cancelled (non-drain shutdown) or its batch failed unexpectedly.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._response: Response | None = None
        self._exception: BaseException | None = None
        self._done = False
        self._callbacks: list = []
        #: Stamped by the server at admission; lets a router cancel by id.
        self.req_id: int | None = None

    def done(self) -> bool:
        """Whether the request has been resolved (response or error)."""
        with self._cond:
            return self._done

    def add_done_callback(self, fn) -> None:
        """Call ``fn(self)`` once the future resolves.

        Runs immediately (on the calling thread) if already resolved,
        else on the resolving thread — the hook the fleet router uses to
        chain retry/complete handling without one thread per request.
        Callback exceptions propagate to the resolver; keep them cheap.
        """
        with self._cond:
            if not self._done:
                self._callbacks.append(fn)
                return
        fn(self)

    def result(self, timeout: float | None = None) -> "Response":
        """Block until resolved; returns the response or raises the error."""
        with self._cond:
            if not self._cond.wait_for(lambda: self._done, timeout):
                raise TimeoutError("request not served within timeout")
            if self._exception is not None:
                raise self._exception
            return self._response

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """Block until resolved; returns the error (None on success)."""
        with self._cond:
            if not self._cond.wait_for(lambda: self._done, timeout):
                raise TimeoutError("request not served within timeout")
            return self._exception

    # -- resolution (server side) ---------------------------------------
    def set_result(self, response: "Response") -> None:
        self._resolve(response=response)

    def set_exception(self, error: BaseException) -> None:
        self._resolve(error=error)

    def _resolve(self, response=None, error=None) -> None:
        with self._cond:
            if self._done:
                raise ServingError("request future resolved twice")
            self._response = response
            self._exception = error
            self._done = True
            callbacks, self._callbacks = self._callbacks, []
            self._cond.notify_all()
        for fn in callbacks:
            fn(self)


@dataclass
class Request:
    """One submitted problem, as the server's queue holds it.

    ``matrix`` is the caller's host array; the server never mutates it
    (factors come back in the response).  ``deadline`` is absolute on
    the server's wall clock (``None`` = best effort).  ``arrival`` /
    ``arrival_sim`` stamp admission on the wall and simulated clocks.

    ``n`` (the matrix order), ``dtype`` and ``factor_op`` are resolved
    once, at construction, because the batcher reads them for every
    queued request.  ``factor_op`` is the factorization that actually
    runs on the device: the op itself, or the base op a solve alias
    factors through (``posv`` -> ``potrf``, ``gesv`` -> ``getrf``).
    Batches group on ``(dtype, factor_op)``, so a potrf and a posv
    request can share one launch.  Refused with
    :class:`~repro.errors.ArgumentError`: an empty (order 0) matrix, a
    dtype with no batched precision (integers, float16, ...), and a
    getrf, gesv, geqrf or gesvj request whose matrix (or gesv
    right-hand side) holds NaN or Inf.
    """

    req_id: int
    op: str
    matrix: np.ndarray
    rhs: np.ndarray | None = None
    deadline: float | None = None
    arrival: float = 0.0
    arrival_sim: float = 0.0
    future: RequestFuture = field(default_factory=RequestFuture)

    def __post_init__(self):
        if self.op not in OPS:
            raise ArgumentError(2, f"bad op {self.op!r} (use one of {OPS})")
        desc = get_op(self.op)
        m = self.matrix
        if not isinstance(m, np.ndarray) or m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ArgumentError(1, f"request matrix must be square 2-D, got {getattr(m, 'shape', None)}")
        if m.shape[0] == 0:
            raise ArgumentError(1, f"{self.op} request matrix is empty (order 0)")
        try:
            Precision.from_dtype(m.dtype)
        except TypeError as exc:
            raise ArgumentError(1, f"{self.op} request: {exc}") from None
        if desc.real_only and np.dtype(m.dtype).kind == "c":
            raise ArgumentError(
                2, f"{self.op} requests support real precisions only, got {m.dtype}"
            )
        if desc.needs_rhs:
            if self.rhs is None:
                raise ArgumentError(3, f"{self.op} request needs a right-hand side")
            if self.rhs.shape[0] != m.shape[0]:
                raise ArgumentError(
                    3, f"rhs has {self.rhs.shape[0]} rows, matrix has {m.shape[0]}"
                )
        elif self.rhs is not None:
            raise ArgumentError(3, f"{self.op} request must not carry a right-hand side")
        if not desc.spd_input:
            # Cholesky flags a NaN or Inf input with info > 0; LU, QR and
            # the Jacobi SVD have no info code for it and would return a
            # non-finite answer marked ok, so refuse it here.
            if not np.isfinite(m).all():
                raise ArgumentError(1, f"{self.op} request matrix holds NaN or Inf")
            if self.rhs is not None and not np.isfinite(self.rhs).all():
                raise ArgumentError(3, f"{self.op} right-hand side holds NaN or Inf")
        self.n = int(m.shape[0])
        self.dtype = m.dtype
        self.factor_op = desc.base or desc.name

    @property
    def precision(self):
        """The :class:`~repro.types.Precision` of the request matrix."""
        return Precision.from_dtype(self.matrix.dtype)

    @property
    def flops(self) -> float:
        """Useful flops of this request's operation (metrics currency)."""
        return get_op(self.op).matrix_flops(self.n, self.precision)

    def effective_deadline(self, max_wait: float) -> float:
        """The instant this request must be in flight: its own deadline
        or the window bound ``arrival + max_wait``, whichever is sooner."""
        window = self.arrival + max_wait
        return window if self.deadline is None else min(self.deadline, window)


@dataclass
class Response:
    """What a resolved :class:`RequestFuture` yields.

    ``factor`` is the ``n x n`` in-place output of the request's factor
    op (Cholesky ``L``, the LU or QR packed factors, or ``U`` for
    ``gesvj``) and ``solution`` the solve output for ``posv``/``gesv``
    requests; both are ``None`` on a timing-only device.  ``extras``
    carries the op-specific side outputs sliced per request — ``taus``
    for ``geqrf``, ``ipivs`` for ``getrf``/``gesv``,
    ``singular_values``/``vt`` for ``gesvj`` — and is empty for POTRF
    requests.  ``info`` is the per-matrix LAPACK code (0 = success).
    Timing fields cover both clocks: wall latency for the serving tier
    itself, simulated-seconds latency for the modeled hardware.
    """

    req_id: int
    op: str
    info: int
    factor: np.ndarray | None = None
    solution: np.ndarray | None = None
    extras: dict = field(default_factory=dict)
    batch_id: int = -1
    batch_size: int = 0
    batch_max_n: int = 0
    arrival: float = 0.0
    dispatched: float = 0.0
    completed: float = 0.0
    latency_sim: float = 0.0
    service_sim: float = 0.0
    deadline_missed: bool = False

    @property
    def ok(self) -> bool:
        return self.info == 0

    @property
    def latency(self) -> float:
        """Wall-clock submit-to-complete latency."""
        return self.completed - self.arrival

    @property
    def queue_wait(self) -> float:
        """Wall-clock time spent queued before the batch was formed."""
        return self.dispatched - self.arrival
