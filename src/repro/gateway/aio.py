"""The asyncio front door (:class:`AsyncGateway`).

A thin adapter over the threaded :class:`~repro.gateway.gateway.
Gateway`: admission stays the gateway's own non-blocking ``submit``
(safe straight from the event loop), settlement waits ride
``asyncio.wrap_future`` over the waiter a ticket builds when it is
first awaited while open, and the pump runs on the gateway's worker
thread.  That split is deliberate — the engine (controller, scheduler,
fault injector) is synchronous Python, so the event loop must never
run it inline; the worker thread *is* the thread-pool fallback the
gateway ships with, and asyncio merely awaits its settlements.

Usage::

    async with AsyncGateway(session, config) as front:
        tickets = [front.submit(request) for request in burst]
        settled = await asyncio.gather(*(t.aresult() for t in tickets))

``serve`` is the convenience for whole streams: it submits an iterable
of requests (optionally pacing submissions to let the throttle refill)
and returns the settled tickets in submission order.
"""

import asyncio
from typing import Iterable, List, Optional

from repro.errors import ConfigError
from repro.core.requests import Request
from repro.gateway.config import GatewayConfig
from repro.gateway.gateway import Gateway, GatewayTicket
from repro.service.session import SessionProtocol


class AsyncGateway:
    """Async context manager over a worker-pumped :class:`Gateway`.

    Accepts either a ready-made gateway or the pieces to build one.
    Entering the context starts the pump worker; leaving stops it and
    closes the gateway (open tickets abort with
    :class:`~repro.errors.GatewayError` rather than hanging their
    awaiters).
    """

    def __init__(self, session: Optional[SessionProtocol] = None,
                 config: Optional[GatewayConfig] = None,
                 gateway: Optional[Gateway] = None) -> None:
        if gateway is None:
            if session is None:
                raise ConfigError("AsyncGateway needs a session or a gateway")
            gateway = Gateway(session, config)
        self.gateway = gateway

    # ------------------------------------------------------------------
    async def __aenter__(self) -> "AsyncGateway":
        self.gateway.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await asyncio.to_thread(self.gateway.close)

    # ------------------------------------------------------------------
    def submit(self, request: Request,
               client: Optional[str] = None) -> GatewayTicket:
        """Admit one request; non-blocking, event-loop safe."""
        return self.gateway.submit(request, client=client)

    async def settle(self, ticket: GatewayTicket) -> GatewayTicket:
        """Await one ticket's settlement."""
        return await ticket.aresult()

    async def serve(self, requests: Iterable[Request],
                    client: Optional[str] = None,
                    pace: float = 0.0) -> List[GatewayTicket]:
        """Submit a stream and await every settlement.

        ``pace`` seconds of ``asyncio.sleep`` between submissions lets
        a throttled gateway's bucket refill (0 submits the whole stream
        at once — the burst case).  Returns tickets in submission
        order; refused tickets are already settled when returned.
        """
        tickets: List[GatewayTicket] = []
        for request in requests:
            tickets.append(self.submit(request, client=client))
            if pace > 0:
                await asyncio.sleep(pace)
        # Refused tickets settle at submission, so gathering the whole
        # list only ever waits on the accepted ones.
        await asyncio.gather(*(ticket.aresult() for ticket in tickets))
        return tickets

    async def join(self, timeout: Optional[float] = None) -> bool:
        """Await full drain of the leveling queue and engine batch."""
        return await asyncio.to_thread(self.gateway.join, timeout)
