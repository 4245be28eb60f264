"""Facility-as-a-service: a crash-safe, long-running campaign server.

ROADMAP item 1 made concrete. The simulator stack becomes a *service*: a
declarative :class:`~repro.service.spec.CampaignSpec` (one schema shared by
CLI, server, workers and tests) is ingested in bulk, work is handed to
sessions under time-bounded heartbeat-refreshed leases, and every state
transition is written ahead to an fsync'd JSONL journal before it is
acknowledged — so a SIGKILL'd server replays the journal and resumes with
zero lost and zero duplicated jobs, and a SIGKILL'd worker merely lets its
lease expire and requeue (attempt-accounted through the shared
:class:`~repro.resilience.retry.RetryPolicy`).

Modules:

- :mod:`repro.service.spec` — the campaign/job schema;
- :mod:`repro.service.journal` — the write-ahead journal (seq-numbered
  records on a :mod:`repro.segmentlog` log, torn-tail-tolerant replay);
- :mod:`repro.service.state` — the pure state machine shared by live
  serving and replay;
- :mod:`repro.service.server` — the asyncio unix-socket server
  (backpressure, lease sweeper, graceful drain, telemetry);
- :mod:`repro.service.pubsub` — live event streaming (versioned
  length-prefixed frames, per-topic seqs, bounded subscriber queues);
- :mod:`repro.service.client` — the typed sync client (timeouts, backoff,
  ``subscribe``/``follow`` live event streams);
- :mod:`repro.service.worker` — the lease/heartbeat/complete worker loop
  (``repro work`` is its one entry point);
- :mod:`repro.service.handlers` — deterministic job handlers, and the
  in-process replay of a campaign's expected result set.

The seeded SIGKILL fault harness that proves recovery lives with the
tests: it drives these modules from outside, through real processes and a
client subclass, and nothing here carries a hook for it.
"""

from repro.service.client import ServiceClient
from repro.service.handlers import HANDLERS, expected_results, run_job
from repro.service.journal import Journal, JournalReplay, read_journal
from repro.service.pubsub import (
    FRAME_VERSION,
    Frame,
    HubSink,
    PubSubHub,
    TOPICS,
    decode_frame,
    encode_frame,
    eos_frame,
    read_frame,
)
from repro.service.server import CampaignServer, serve
from repro.service.spec import CampaignSpec, JobSpec, drug_campaign
from repro.service.state import CampaignState, JobRecord
from repro.service.worker import run_worker

__all__ = [
    "CampaignServer",
    "CampaignSpec",
    "CampaignState",
    "FRAME_VERSION",
    "Frame",
    "HANDLERS",
    "HubSink",
    "JobRecord",
    "JobSpec",
    "Journal",
    "JournalReplay",
    "PubSubHub",
    "ServiceClient",
    "TOPICS",
    "decode_frame",
    "drug_campaign",
    "encode_frame",
    "eos_frame",
    "expected_results",
    "read_frame",
    "read_journal",
    "run_job",
    "run_worker",
    "serve",
]
