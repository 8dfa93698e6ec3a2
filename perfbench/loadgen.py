"""Open-loop load generator for :class:`AsyncScoringService`.

Requests are due on a fixed schedule (``start + i / rate``) whether or not
earlier ones have been answered, so a stalled service builds a queue
instead of slowing the generator down.  Each request is timed from when it
was *due*, not from when it was sent, so a stall is charged to every
request it delayed; how late the generator itself ran is reported too.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass

from repro.distributed.service import AsyncScoringService, run_load
from repro.obs.metrics import percentile

#: A rung passes when its p99 latency is within this limit.
LATENCY_LIMIT_MS = 100.0
#: Percentiles are reported only with at least this many samples beyond.
MIN_TAIL_SAMPLES = 10
#: In-flight requests of the closed-loop warm-up drain.
WARMUP_CONCURRENCY = 32


def supported(n_samples: int, q: float) -> bool:
    """True when ``n_samples`` leave ``MIN_TAIL_SAMPLES`` beyond ``q``."""
    return n_samples * (100.0 - q) / 100.0 >= MIN_TAIL_SAMPLES


@dataclass
class Rung:
    """Outcome of one fixed-rate step of the ladder."""

    rate: float
    submitted: int
    answered: int
    fallbacks: int  # degraded answers, shed ones included
    shed: int
    batches: int
    scored: int
    latencies_ms: list  # answered without a fallback, from due time
    late_ms: list  # generator lateness per request
    backlog: int  # requests still unanswered at the last due time

    @property
    def failed(self) -> int:
        """Fallback-answered plus unanswered requests."""
        return self.fallbacks + self.submitted - self.answered

    def samples_ms(self) -> list:
        """One latency per submitted request; failed ones are infinite."""
        return self.latencies_ms + [math.inf] * self.failed

    def latency_percentile(self, q: float) -> float:
        """Nearest-rank percentile over :meth:`samples_ms`."""
        samples = self.samples_ms()
        if not supported(len(samples), q):
            raise ValueError(
                f"p{q:g} needs {MIN_TAIL_SAMPLES} samples beyond it; "
                f"the rung has {len(samples)}"
            )
        return percentile(samples, q)

    @property
    def passes(self) -> bool:
        """p99 within the limit, nothing shed, and no growing backlog."""
        return (
            self.shed == 0
            and self.backlog <= max(MIN_TAIL_SAMPLES, 0.1 * self.rate)
            and self.latency_percentile(99) <= LATENCY_LIMIT_MS
        )


def _track_degraded(service: AsyncScoringService) -> set:
    """Ids of the records the service answers with a degraded score.

    Every answer to a CE, degraded or not, goes through the online
    service's ``complete``; a degraded one carries its ``fallback_score``.
    """
    online = service.service
    complete = online.complete
    degraded: set = set()

    def tracked(prepared, score):
        if prepared.fallback_score is not None:
            degraded.add(id(prepared.ce))
        return complete(prepared, score)

    online.complete = tracked
    return degraded


async def _run_rung(service: AsyncScoringService, records, rate: float):
    loop = asyncio.get_running_loop()
    clock = time.perf_counter
    n = len(records)
    latencies: list = []
    late: list = []
    pending: list = []
    stats = service.stats
    degraded = _track_degraded(service)
    before = (stats.answered, stats.shed, stats.fallbacks, stats.batches,
              stats.scored)

    async def one(record, due):
        await service.submit(record)
        # Degraded answers are failures, counted as infinite latency.
        if id(record) not in degraded:
            latencies.append((clock() - due) * 1e3)

    start = clock()
    for i, record in enumerate(records):
        due = start + i / rate
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        late.append((clock() - due) * 1e3)
        pending.append(loop.create_task(one(record, due)))
    backlog = sum(not task.done() for task in pending)
    await asyncio.gather(*pending)
    return Rung(
        rate=rate,
        submitted=n,
        answered=stats.answered - before[0],
        fallbacks=stats.fallbacks - before[2],
        shed=stats.shed - before[1],
        batches=stats.batches - before[3],
        scored=stats.scored - before[4],
        latencies_ms=latencies,
        late_ms=late,
        backlog=backlog,
    )


async def _rung(service: AsyncScoringService, warmup, records, rate):
    await run_load(service, warmup, concurrency=WARMUP_CONCURRENCY)
    await service.start()
    try:
        return await _run_rung(service, records, rate)
    finally:
        await service.stop()


def run_ladder(make_service, warmup, records, rates) -> list:
    """One rung per rate, each on a fresh service and the same records.

    ``make_service()`` builds an identical service for every rung; it is
    warmed with a closed-loop drain of ``warmup`` and then sent
    ``records`` on the rung's schedule, so rungs differ only in rate.
    """
    return [
        asyncio.run(_rung(make_service(), warmup, records, rate))
        for rate in sorted(rates)
    ]


def max_passing_rate(rungs) -> float:
    """Highest rate at or below which every rung passes (0 if none)."""
    best = 0.0
    for rung in sorted(rungs, key=lambda r: r.rate):
        if not rung.passes:
            break
        best = rung.rate
    return best


def ladder_metrics(rungs, reference_rate: float) -> dict:
    """Latency, rate and batcher figures of a finished ladder."""
    reference = next(r for r in rungs if r.rate == reference_rate)
    return {
        "serve.p50_ms": reference.latency_percentile(50),
        "serve.p99_ms": reference.latency_percentile(99),
        "serve.samples": len(reference.samples_ms()),
        "serve.max_rps": max_passing_rate(rungs),
        # Rungs past the knee shed by design, so ladder failures are
        # reported here rather than in the run's failed count.
        "serve.failed": sum(r.failed for r in rungs),
        "loadgen.late_ms.p50": percentile(reference.late_ms, 50),
        "loadgen.late_ms.p99": percentile(reference.late_ms, 99),
        "loadgen.late_ms.max": max(reference.late_ms),
        "distributed.batches": reference.batches,
        "distributed.mean_batch": (
            reference.scored / reference.batches if reference.batches else 0.0
        ),
        "distributed.shed": reference.shed,
        "distributed.fallbacks": reference.fallbacks,
    }
