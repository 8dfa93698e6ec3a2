"""Checkpoint/resume plumbing for the replay engine.

A checkpoint is ONE atomically-written pickle (tmp file + ``os.replace``)
with this layout::

    {
      "version":   CHECKPOINT_VERSION,
      "platforms": tuple[str, ...],          # the merged stream's platforms
      "engine":    "batched" | "per_event",  # which walk the position indexes
      "position":  int,   # merged-walk entries already processed
      "state":     bytes, # inner pickle of the engine's mutable state
      "bus_counts": dict, # EventBus publish counters at snapshot time
    }

``state`` is a *single* inner ``pickle.dumps`` of every piece of mutable
decision state — incremental window states, the feature extractor, the
alarm ledger (with its unpicklable EventBus detached), pending micro-batch
queues, rescore throttles, score logs, the fleet policy engine with its
RNG — so shared references (states -> extractor caches, policy actions ->
alarm incidents) survive the round trip.  Per-platform state is stored in
``platforms`` order; a resume must name the same platforms in the same
order (the order is also the merged walk's cross-platform tie-break), or
:class:`ReplayCheckpointer` refuses it.  Everything *derivable* from the
input store (replay kernels, walk orders, vocabularies) is deliberately
NOT stored: the engine rebuilds it deterministically on resume and skips
the first ``position`` walk entries.

Because processing is deterministic, a replay killed anywhere at or after
a snapshot and resumed from it produces bit-identical score logs, alarms
and cost digests to the uninterrupted run (wall-clock timing fields are
the one documented exception).
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path

CHECKPOINT_VERSION = 2


def save_checkpoint(path, payload: dict) -> None:
    """Atomically persist one checkpoint payload."""
    path = Path(path)
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(blob)
    os.replace(tmp, path)


def load_checkpoint(path) -> dict:
    """Load and version-check one checkpoint payload."""
    payload = pickle.loads(Path(path).read_bytes())
    if (
        not isinstance(payload, dict)
        or payload.get("version") != CHECKPOINT_VERSION
    ):
        found = payload.get("version") if isinstance(payload, dict) else "?"
        raise ValueError(
            f"unsupported checkpoint {str(path)!r}: version={found!r} "
            f"(expected {CHECKPOINT_VERSION})"
        )
    return payload


class ReplayCheckpointer:
    """Periodic-snapshot + halt/resume driver for one replay call.

    The engines call :meth:`step` at the top of every merged-walk
    iteration, *before* processing the entry, so ``position`` always
    equals the number of entries already processed and a snapshot written
    at ``position`` resumes with zero reprocessing.  ``halt_after=N``
    stops the walk after N entries processed *in this call* (writing a
    final snapshot first when a path is configured) — the deterministic
    stand-in for a killed process that the bit-identity suite uses.
    """

    def __init__(
        self,
        *,
        every: int = 0,
        path=None,
        halt_after: int | None = None,
        resume_from=None,
        engine: str = "",
        platforms: tuple[str, ...] = (),
    ):
        self.every = int(every or 0)
        if self.every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        self.path = Path(path) if path is not None else None
        if self.every and self.path is None:
            raise ValueError("checkpoint_every needs a checkpoint_path")
        self.halt_after = None if halt_after is None else int(halt_after)
        self.engine = engine
        self.platforms = tuple(platforms)
        self.resume_state: dict | None = None
        if resume_from is not None:
            snap = load_checkpoint(resume_from)
            if (
                snap.get("platforms") != self.platforms
                or snap.get("engine") != engine
            ):
                raise ValueError(
                    f"checkpoint {str(resume_from)!r} was written by "
                    f"platforms={snap.get('platforms')!r} "
                    f"engine={snap.get('engine')!r}; this replay is "
                    f"platforms={self.platforms!r} engine={engine!r}"
                )
            self.resume_state = snap
        self.position = (
            int(self.resume_state["position"]) if self.resume_state else 0
        )
        self.saved = 0
        self._processed = 0
        self._since_save = 0

    def step(self, snapshot_fn) -> bool:
        """Account one walk entry about to be processed.

        ``snapshot_fn()`` must return ``{"state": bytes, "bus_counts":
        dict}`` describing the engine state *after* ``position`` entries;
        it is only called when a snapshot is actually due.  Returns True
        when the caller must halt without processing the entry.
        """
        halt = (
            self.halt_after is not None
            and self._processed >= self.halt_after
        )
        due = (
            self.path is not None
            and self.every > 0
            and self._since_save >= self.every
        )
        if (halt or due) and self.path is not None:
            payload = dict(snapshot_fn())
            payload["version"] = CHECKPOINT_VERSION
            payload["platforms"] = self.platforms
            payload["engine"] = self.engine
            payload["position"] = self.position
            save_checkpoint(self.path, payload)
            self.saved += 1
            self._since_save = 0
        if halt:
            return True
        self.position += 1
        self._processed += 1
        self._since_save += 1
        return False
