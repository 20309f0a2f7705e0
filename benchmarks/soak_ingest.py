"""Continuous-ingest soak: bounded memory under aggressive retention.

Drives a real ``repro serve`` process with a nonstop sample stream
whose ticks advance forever, under an aggressive ``--rollup-interval`` /
``--retain-buckets`` configuration.  Asserts the two properties that
make unbounded-duration profiling safe:

* **RSS plateaus.**  Retention keeps the working set bounded: the
  resident set of the server and its shard worker processes (where the
  databases live), summed, must not keep growing from the second
  quarter of the soak to the final one (within a noise allowance).
* **Nothing is lost silently.**  Every pushed record is folded or
  counted dropped (the shard queues shed what the workers cannot keep
  up with: ``pushed == folded + dropped``), every folded record is
  either retained or counted evicted (``folded == retained + evicted``,
  per the ``epochs`` accounting), and ``repro query stats`` reports the
  eviction counter.

Run directly (CI's soak-smoke job, non-gating)::

    PYTHONPATH=src python benchmarks/soak_ingest.py --seconds 60

Exit status 0 when every property holds, 1 otherwise.
"""

import argparse
import os
import subprocess
import sys
import tempfile
import time

from repro.profileme.registers import ProfileRecord
from repro.events import AbortReason, Event
from repro.isa.opcodes import Opcode
from repro.service.client import ProfileClient

BATCH = 512
NUM_PCS = 256


def _rss_kb(pid):
    try:
        with open("/proc/%d/status" % pid) as stream:
            for line in stream:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):
        pass  # the process exited between listing and reading
    return 0


def _tree_pids(root):
    """*root* and its descendants, found by parent pid in /proc/*/stat."""
    children = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as stream:
                stat = stream.read()
        except (FileNotFoundError, ProcessLookupError):
            continue
        # The command name may hold spaces and parentheses; the fields
        # after the last ')' are fixed: state, then the parent pid.
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    tree, todo = [], [root]
    while todo:
        pid = todo.pop()
        tree.append(pid)
        todo.extend(children.get(pid, ()))
    return tree


def _tree_rss_kb(root):
    return sum(_rss_kb(pid) for pid in _tree_pids(root))


def _batch(tick, step):
    records = []
    for i in range(BATCH):
        records.append(ProfileRecord(
            context=0, pc=0x1000 + 4 * (i % NUM_PCS), op=Opcode.ADD,
            addr=None,
            events=Event.RETIRED | (Event.DCACHE_MISS if i % 5 == 0
                                    else Event.RETIRED),
            abort_reason=AbortReason.NONE, history=0,
            fetch_to_map=2 + (i % 3), map_to_data_ready=1,
            data_ready_to_issue=0, issue_to_retire_ready=1,
            retire_ready_to_retire=3, load_issue_to_completion=None,
            fetch_cycle=tick + i * step, done_cycle=tick + i * step + 10))
    return records, tick + BATCH * step


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--rollup-interval", type=int, default=10_000)
    parser.add_argument("--retain-buckets", type=int, default=6)
    parser.add_argument("--tick-step", type=int, default=40,
                        help="cycles between consecutive samples")
    args = parser.parse_args(argv)

    port_file = os.path.join(tempfile.mkdtemp(prefix="soak."), "port")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.tools.cli", "serve",
         "--port", "0", "--port-file", port_file, "--shards", "2",
         "--rollup-interval", str(args.rollup_interval),
         "--retain-buckets", str(args.retain_buckets)],
        stdout=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 20.0
        while not os.path.exists(port_file):
            if time.monotonic() > deadline:
                raise RuntimeError("server never wrote its port file")
            time.sleep(0.1)
        with open(port_file) as stream:
            address = "127.0.0.1:%s" % stream.read().strip()
        print("soaking %s for %.0fs (interval=%d, retain=%d)"
              % (address, args.seconds, args.rollup_interval,
                 args.retain_buckets), flush=True)

        rss_samples = []
        pushed = 0
        tick = 0
        stop = time.monotonic() + args.seconds
        next_rss = 0.0
        with ProfileClient(address) as client:
            while time.monotonic() < stop:
                records, tick = _batch(tick, args.tick_step)
                client.push(records)
                pushed += len(records)
                now = time.monotonic()
                if now >= next_rss:
                    rss_samples.append(_tree_rss_kb(server.pid))
                    next_rss = now + 1.0
            client.drain()
            epochs = client.epochs()
            stats = client.query("stats")["stats"]
        rss_samples.append(_tree_rss_kb(server.pid))

        stats_out = subprocess.check_output(
            [sys.executable, "-m", "repro.tools.cli", "query", address,
             "stats"], text=True)
        print(stats_out)
    finally:
        server.terminate()
        server.wait(timeout=20)

    retained = epochs["total_samples"]
    evicted = epochs["evicted_samples"]
    folded = stats["records"]
    dropped = stats["dropped_records"]
    print("pushed=%d folded=%d dropped=%d retained=%d evicted=%d buckets=%d"
          % (pushed, folded, dropped, retained, evicted,
             len(epochs["epochs"])))
    quarter = max(1, len(rss_samples) // 4)
    early = sorted(rss_samples[quarter:2 * quarter])
    late = sorted(rss_samples[-quarter:])
    early_med = early[len(early) // 2]
    late_med = late[len(late) // 2]
    print("rss (server + shard workers): first=%dkB early-median=%dkB "
          "late-median=%dkB last=%dkB"
          % (rss_samples[0], early_med, late_med, rss_samples[-1]))

    failures = []
    if folded + dropped != pushed:
        failures.append("accounting: %d folded + %d dropped != %d pushed"
                        % (folded, dropped, pushed))
    if retained + evicted != folded:
        failures.append("accounting: %d retained + %d evicted != %d folded"
                        % (retained, evicted, folded))
    if evicted <= 0:
        failures.append("retention never evicted anything "
                        "(soak too short or retention too loose)")
    if "evicted_samples" not in stats_out:
        failures.append("`repro query stats` does not report "
                        "evicted_samples")
    # The plateau check: allow 30% drift for allocator noise, but the
    # resident set must not keep climbing with ingest volume.
    if late_med > 1.30 * early_med:
        failures.append("rss still growing: %dkB -> %dkB"
                        % (early_med, late_med))
    for failure in failures:
        print("SOAK FAILURE:", failure)
    if not failures:
        print("soak passed: memory bounded, eviction accounted")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
