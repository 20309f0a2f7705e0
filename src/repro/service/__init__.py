"""Continuous-profiling service: the DCPI-daemon half of the paper.

Four layers (see ``docs/architecture.md`` — "Profiling service"):

* :mod:`repro.service.protocol` — length-prefixed wire protocol: binary
  data frames with exact record serialization, JSON control frames;
* :mod:`repro.service.server` — asyncio ingestion server with bounded
  per-connection queues, drop accounting, shards, atomic snapshots;
* :mod:`repro.service.client` — blocking producer transport with
  retry/backoff and a local spill file, plus the driver sink;
* the ``repro serve`` / ``repro push`` / ``repro query`` CLI commands
  (``repro.tools.cli``) and the ``SessionSpec.push_to`` hook.
"""

from repro.service.client import ClientStats, ProfileClient, ServiceSink
from repro.service.protocol import WIRE_VERSION
from repro.service.server import ProfileServer, ServerStats, ServerThread

__all__ = [
    "ClientStats",
    "ProfileClient",
    "ProfileServer",
    "ServerStats",
    "ServerThread",
    "ServiceSink",
    "WIRE_VERSION",
]
