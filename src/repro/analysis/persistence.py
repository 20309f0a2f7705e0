"""Profile persistence: save/load/merge databases as JSON.

DCPI-style continuous profiling accumulates profiles across many runs;
``ProfileDatabase.merge`` provides the accumulation and this module the
on-disk format.  The format is a versioned, human-readable JSON document
holding exactly the database's aggregates (never raw records).

Two document kinds live here:

* ``repro-profile`` — one :class:`ProfileDatabase`
  (:func:`save_database` / :func:`load_database`);
* ``repro-session-result`` — the measured outputs of one detached
  :class:`~repro.engine.session.SessionResult` (summary statistics,
  sampling-hardware accounting, and the embedded profile document).
  This is the checkpoint/cache unit of the sweep layer
  (``repro.engine.sweep``): a result round-trips byte-identically, so a
  cache hit is indistinguishable from a fresh simulation.
"""

import dataclasses
import json
import os

from repro.analysis.database import (LatencyAggregate, PcProfile,
                                     ProbeSeries, ProfileDatabase)
from repro.errors import AnalysisError, PersistenceError
from repro.events import Event

FORMAT_VERSION = 1
BUCKETED_FORMAT_VERSION = 2  # time-bucketed (rollup) profile documents
RESULT_FORMAT_VERSION = 1
PGO_REPORT_FORMAT_VERSION = 1


def canonical_json(document):
    """Byte-stable JSON text for *document*: sorted keys, no whitespace.

    Two documents produce identical text iff they hold identical data,
    regardless of dict insertion order — this is the comparison form the
    profiling service's end-to-end differential (served export vs.
    in-process run) is defined over.
    """
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def _read_json(path, what):
    """Load a JSON document, converting every failure to a typed error."""
    try:
        with open(path) as stream:
            return json.load(stream)
    except OSError as exc:
        raise PersistenceError("cannot read %s %s: %s"
                               % (what, path, exc)) from exc
    except ValueError as exc:  # JSONDecodeError: corrupt/truncated write
        raise PersistenceError("corrupt %s %s: %s"
                               % (what, path, exc)) from exc


def _profile_payload(profile, with_addresses=True):
    payload = {
        "samples": profile.samples,
        "taken_count": profile.taken_count,
        "events": {flag.name: count
                   for flag, count in profile.events.items()},
        "latencies": {
            name: [agg.count, agg.total, agg.total_sq]
            for name, agg in profile.latencies.items()
        },
    }
    if with_addresses:
        payload["addresses"] = [[addr, dmiss, tmiss]
                                for addr, dmiss, tmiss in profile.addresses]
    return payload


def database_to_dict(database):
    """Serialize a ProfileDatabase to plain JSON-safe structures.

    Flat databases (no rollup) emit the historical version-1 document,
    byte-identical (canonical JSON) to the pre-columnar format — the
    service differential and the golden corpus pin this.  Bucketed
    databases emit the version-2 form: per-bucket ``per_pc`` payloads
    plus the rollup/retention configuration and eviction accounting;
    the capped address table (global, not bucketed) serializes as a
    top-level map.
    """
    if database.rollup_interval:
        buckets = []
        for level, start, span, profiles in database.bucket_views():
            buckets.append({
                "level": level,
                "start": start,
                "span": span,
                "per_pc": {str(pc): _profile_payload(profile,
                                                     with_addresses=False)
                           for pc, profile in profiles.items()},
            })
        document = {
            "format": "repro-profile",
            "version": BUCKETED_FORMAT_VERSION,
            "total_samples": database.total_samples,
            "keep_addresses": database.keep_addresses,
            "rollup_interval": database.rollup_interval,
            "retain_buckets": database.retain_buckets,
            "evicted_samples": database.evicted_samples,
            "buckets": buckets,
        }
        addresses = database.addresses_table()
        if addresses:
            document["addresses"] = {
                str(pc): [[addr, dmiss, tmiss]
                          for addr, dmiss, tmiss in entries]
                for pc, entries in addresses.items() if entries}
    else:
        per_pc = {}
        for pc, profile in database.per_pc.items():
            per_pc[str(pc)] = _profile_payload(profile)
        document = {
            "format": "repro-profile",
            "version": FORMAT_VERSION,
            "total_samples": database.total_samples,
            "keep_addresses": database.keep_addresses,
            "per_pc": per_pc,
        }
    # Streamed probe series ride along only when present, so documents
    # from probe-free runs stay byte-identical to the pre-probes format
    # (the golden corpus and the service differential both pin this).
    if database.probes:
        document["probes"] = {
            name: [series.count, series.total, series.minimum,
                   series.maximum, series.last, series.last_tick]
            for name, series in database.probes.items()
        }
    return document


def _count(value, what):
    """A document's count field *what*, checked to be an int64 count."""
    if type(value) is not int or not 0 <= value < 2 ** 63:
        raise PersistenceError("%s must be a non-negative 64-bit int, "
                               "got %r" % (what, value))
    return value


def _counted(cls, payload, what):
    """Build dataclass *cls* from *payload*, checking its int fields."""
    for field in dataclasses.fields(cls):
        if field.type is int and field.name in payload:
            _count(payload[field.name], "%s.%s" % (what, field.name))
    return cls(**payload)


def _profile_from_payload(pc, payload, with_addresses=True):
    profile = PcProfile(pc=pc)
    profile.samples = payload["samples"]
    profile.taken_count = payload["taken_count"]
    for flag_name, count in payload["events"].items():
        try:
            flag = Event[flag_name]
        except KeyError:
            raise AnalysisError("unknown event flag %r"
                                % (flag_name,)) from None
        profile.events[flag] = count
    for name, (count, total, total_sq) in payload["latencies"].items():
        aggregate = LatencyAggregate()
        aggregate.count = count
        aggregate.total = total
        aggregate.total_sq = total_sq
        profile.latencies[name] = aggregate
    if with_addresses:
        profile.addresses = [tuple(item) for item in payload["addresses"]]
    return profile


def database_from_dict(data):
    """Rebuild a ProfileDatabase from :func:`database_to_dict` output.

    Accepts both document versions: the flat version-1 form (every
    document written before rollup existed) and the bucketed version-2
    form.
    """
    if not isinstance(data, dict) or data.get("format") != "repro-profile":
        raise AnalysisError("not a repro profile document")
    version = data.get("version")
    if version not in (FORMAT_VERSION, BUCKETED_FORMAT_VERSION):
        raise AnalysisError("unsupported profile version %r" % (version,))
    try:
        if version == BUCKETED_FORMAT_VERSION:
            database = ProfileDatabase(
                keep_addresses=_count(data.get("keep_addresses", 0),
                                      "keep_addresses"),
                rollup_interval=int(data["rollup_interval"]),
                retain_buckets=int(data.get("retain_buckets", 0)))
            database.evicted_samples = int(data.get("evicted_samples", 0))
            for bucket in data["buckets"]:
                database.load_bucket(
                    int(bucket["level"]), int(bucket["start"]),
                    int(bucket["span"]),
                    ((int(pc_text), _profile_from_payload(
                        int(pc_text), payload, with_addresses=False))
                     for pc_text, payload in bucket["per_pc"].items()))
            addresses = database.addresses_table()
            for pc_text, entries in data.get("addresses", {}).items():
                addresses[int(pc_text)] = [tuple(item) for item in entries]
            database.total_samples = _count(data["total_samples"],
                                            "total_samples")
        else:
            database = ProfileDatabase(
                keep_addresses=_count(data.get("keep_addresses", 0),
                                      "keep_addresses"))
            database.total_samples = _count(data["total_samples"],
                                            "total_samples")
            for pc_text, payload in data["per_pc"].items():
                pc = int(pc_text)
                database.set_profile(pc, _profile_from_payload(pc, payload))
        for name, fields in data.get("probes", {}).items():
            count, total, minimum, maximum, last, last_tick = fields
            database.probes[name] = ProbeSeries(
                count=count, total=total, minimum=minimum,
                maximum=maximum, last=last, last_tick=last_tick)
    except AnalysisError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError,
            OverflowError) as exc:
        # OverflowError: a count past the int64 columns of the store.
        raise PersistenceError("malformed profile document: %s"
                               % (exc,)) from exc
    return database


def save_database(database, path):
    """Atomically write the database to *path* as JSON.

    Write-to-temp plus :func:`os.replace`, same as :func:`save_result`:
    the profiling service snapshots through this function while readers
    may load concurrently, so a snapshot file either exists complete or
    not at all — never half-written.
    """
    tmp_path = "%s.tmp.%d" % (path, os.getpid())
    with open(tmp_path, "w") as stream:
        json.dump(database_to_dict(database), stream, indent=1)
    os.replace(tmp_path, path)


def load_database(path):
    """Read a database previously written by :func:`save_database`.

    Raises :class:`~repro.errors.PersistenceError` for unreadable,
    corrupt (including partially written), or malformed files.
    """
    return database_from_dict(_read_json(path, "profile document"))


# ----------------------------------------------------------------------
# Detached session results (the sweep layer's checkpoint/cache unit).


def result_to_dict(result, spec_key=None):
    """Serialize a detached session result to plain JSON-safe structures.

    Persists exactly the outputs that survive
    :meth:`~repro.engine.session.SessionResult.detach` *and* aggregate
    cleanly: ``CoreStats``, the unit's ``ProfileMeStats``, and the
    profile database (as an embedded ``repro-profile`` document).  Raw
    records and live analyzer objects are deliberately dropped, matching
    this module's never-raw-records rule.

    *spec_key* is the spec's content hash (``repro.engine.sweep.
    spec_key``); storing it in the document makes cache files
    self-describing.
    """
    payload = {
        "format": "repro-session-result",
        "version": RESULT_FORMAT_VERSION,
        "spec_key": spec_key,
        "label": result.spec.label if result.spec is not None else None,
        "cycles": result.cycles,
        "stats": dataclasses.asdict(result.stats),
        "sampling_stats": (dataclasses.asdict(result.sampling_stats)
                           if result.sampling_stats is not None else None),
        "database": (database_to_dict(result.database)
                     if result.database is not None else None),
    }
    probes = getattr(result, "probes", None)
    if probes is not None:
        # Final registry snapshot ({name: {value, kind, unit,
        # description}}); omitted (not null) when absent so documents
        # written before the probe registry existed re-serialize
        # byte-identically.
        payload["probes"] = probes
    two_speed = getattr(result, "two_speed", None)
    if two_speed is not None:
        # Accounting only: the final ArchSnapshot is a verification hook,
        # not a measured output, and its memory image can be large.
        two = dataclasses.asdict(two_speed)
        two.pop("final_state", None)
        payload["two_speed"] = two
    return payload


def result_from_dict(data, spec=None):
    """Rebuild a detached session result from :func:`result_to_dict` output.

    The caller supplies the in-memory *spec* (cache lookups always have
    it in hand — it is what produced the key); the returned result is
    detached: ``core``, ``unit``, ``driver`` are all None.
    """
    from repro.engine.session import CoreStats, SessionResult
    from repro.profileme.unit import ProfileMeStats

    if not isinstance(data, dict) or data.get("format") != "repro-session-result":
        raise AnalysisError("not a repro session-result document")
    if data.get("version") != RESULT_FORMAT_VERSION:
        raise AnalysisError("unsupported session-result version %r"
                            % (data.get("version"),))
    sampling = data.get("sampling_stats")
    database = data.get("database")
    two_speed = data.get("two_speed")
    if two_speed:
        from repro.engine.twospeed import TwoSpeedStats
    try:
        return SessionResult(
            spec=spec,
            core=None,
            cycles=_count(data["cycles"], "cycles"),
            stats=_counted(CoreStats, data["stats"], "stats"),
            database=database_from_dict(database) if database else None,
            sampling_stats=(_counted(ProfileMeStats, sampling,
                                     "sampling_stats")
                            if sampling else None),
            two_speed=(_counted(TwoSpeedStats, two_speed, "two_speed")
                       if two_speed else None),
            probes=data.get("probes"))
    except AnalysisError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise PersistenceError("malformed session-result document: %s"
                               % (exc,)) from exc


def save_result(result, path, spec_key=None):
    """Atomically write one detached session result to *path* as JSON.

    Write-to-temp plus :func:`os.replace` keeps a checkpoint directory
    consistent even if the sweep process is killed mid-flush: a result
    file either exists complete or not at all.
    """
    payload = (result if isinstance(result, dict)
               else result_to_dict(result, spec_key=spec_key))
    tmp_path = "%s.tmp.%d" % (path, os.getpid())
    with open(tmp_path, "w") as stream:
        json.dump(payload, stream, indent=1, sort_keys=True)
    os.replace(tmp_path, path)


def load_result(path, spec=None):
    """Read a result previously written by :func:`save_result`.

    Raises :class:`~repro.errors.PersistenceError` for unreadable,
    corrupt (including partially written), or malformed files.
    """
    return result_from_dict(_read_json(path, "session-result document"),
                            spec=spec)


# ----------------------------------------------------------------------
# PGO reports (the repro.pgo pipeline's machine-readable output).


def save_pgo_report(document, path):
    """Atomically write a ``repro-pgo-report`` document to *path*.

    *document* is the plain dict built by
    :func:`repro.pgo.report.build_report`; its envelope (``format``/
    ``version``) is validated here so a malformed report can never be
    written, only to fail on load.
    """
    if (not isinstance(document, dict)
            or document.get("format") != "repro-pgo-report"):
        raise AnalysisError("not a repro PGO report document")
    if document.get("version") != PGO_REPORT_FORMAT_VERSION:
        raise AnalysisError("unsupported PGO report version %r"
                            % (document.get("version"),))
    tmp_path = "%s.tmp.%d" % (path, os.getpid())
    with open(tmp_path, "w") as stream:
        json.dump(document, stream, indent=1, sort_keys=True)
    os.replace(tmp_path, path)


def load_pgo_report(path):
    """Read a report previously written by :func:`save_pgo_report`.

    Raises :class:`~repro.errors.PersistenceError` for unreadable or
    corrupt files and :class:`~repro.errors.AnalysisError` for documents
    of the wrong kind or version.
    """
    data = _read_json(path, "PGO report document")
    if not isinstance(data, dict) or data.get("format") != "repro-pgo-report":
        raise AnalysisError("not a repro PGO report document")
    if data.get("version") != PGO_REPORT_FORMAT_VERSION:
        raise AnalysisError("unsupported PGO report version %r"
                            % (data.get("version"),))
    return data
