"""Command-line profiler: the DCPI-daemon experience in one command.

Usage::

    repro profile gcc --scale 2 --interval 100
    repro profile compress --paired --out prof.json
    repro profile compress --scale 28 --interval 50000 \
        --mode two-speed --window 2000
    repro report prof.json
    repro paths go --history 8
    repro sweep compress --intervals 25,50,100,200 --jobs 4
    repro serve --port 9137 --snapshot profile.json
    repro push 127.0.0.1:9137 compress --interval 100
    repro sweep compress --jobs 4 --push 127.0.0.1:9137
    repro query 127.0.0.1:9137 top --event DCACHE_MISS
    repro query 127.0.0.1:9137 export --out served.json
    repro probes list 'cpu0.*'
    repro probes watch --period 500 --workload compress
    repro probes list --address 127.0.0.1:9137
    repro list

(Equivalently ``python -m repro`` / ``python -m repro.tools.cli``.)

`profile` runs a suite workload (or a Table 1 stall kernel via
``kernel:<name>``) under ProfileMe on the out-of-order core and prints
the standard reports; `report` re-renders a saved profile; `paths` runs
the Figure 6 path-reconstruction analysis on a workload trace; `sweep`
fans a sampling-interval x seed grid across worker processes via the
engine's resumable sweep runner — with ``--checkpoint``/``--resume`` it
caches results content-addressed by spec hash, survives worker crashes
and timeouts, and re-simulates only what is missing.

The continuous-profiling service lives behind three commands: `serve`
runs the asyncio ingestion server (`repro.service.server`), `push`
streams one profiled run (or a saved profile document) into it, and
`query` reads it back (top/latency/stats/convergence/export).  `sweep
--push <addr>` streams live samples from every worker process into the
same service.

`probes` is the window onto the hierarchical probe registry
(`repro.probes`): `list` enumerates the namespace with metadata, `read`
runs a workload and prints final probe values, `watch` streams readings
periodically while the workload runs.  With `--address` the same three
subcommands inspect a running service's own registry (and the probe
series streamed into it) instead of building a local machine.

Handled errors (bad configuration, unreachable server, unreadable
files) print to stderr and exit 2; only genuine bugs raise.
"""

import argparse
import json
import os
import sys

from repro.analysis.bottlenecks import instruction_metrics
from repro.analysis.cycles import (event_attribution, format_breakdown,
                                   program_breakdown)
from repro.analysis.persistence import (canonical_json, load_database,
                                        save_database)
from repro.analysis.reports import (bottleneck_report, format_table,
                                    latency_table)
from repro.engine.sweep import run_sweep
from repro.errors import ConfigError, ReproError
from repro.engine.session import SessionSpec, run_session
from repro.events import Event
from repro.profileme.unit import ProfileMeConfig
from repro.workloads import SUITE_NAMES, kernel_names, stall_kernel, \
    suite_program


def _load_workload(name, scale):
    if name.endswith(".s"):
        from repro.isa.asm import parse_asm

        with open(name) as stream:
            return parse_asm(stream.read(), name=name)
    if name.startswith("kernel:"):
        return stall_kernel(name.split(":", 1)[1], iterations=200 * scale)
    return suite_program(name, scale=scale)


def cmd_list(_args):
    print("suite workloads: " + ", ".join(SUITE_NAMES))
    print("stall kernels:   " + ", ".join("kernel:" + k
                                          for k in kernel_names()))
    return 0


def cmd_profile(args):
    program = _load_workload(args.workload, args.scale)
    profile = ProfileMeConfig(
        mean_interval=args.interval,
        paired=args.paired,
        pair_window=args.pair_window,
        register_sets=args.register_sets,
        seed=args.seed,
    )
    spec_kwargs = dict(program=program, core_kind=args.core,
                       profile=profile, keep_addresses=args.keep_addresses)
    if args.mode == "two-speed":
        spec_kwargs.update(exec_mode="two-speed", window=args.window)
    run = run_session(SessionSpec(**spec_kwargs))

    stats = run.stats
    print("workload %s: %d instructions retired in %d cycles "
          "(IPC %.2f), %d aborted, %d mispredicts"
          % (program.name, stats.retired, run.cycles, stats.ipc,
             stats.aborted, stats.mispredicts))
    sampling = run.unit.stats if run.unit is not None else run.sampling_stats
    print("samples: %d delivered via %d interrupts "
          "(%d dropped while busy)"
          % (run.driver.delivered, sampling.interrupts,
             sampling.dropped_busy))
    if run.two_speed is not None:
        two = run.two_speed
        print("two-speed: %d detailed windows of <=%d retired; "
              "%d fast-forwarded + %d detailed instructions "
              "(%.1f%% simulated in detail), %d sample points skipped"
              % (two.windows, args.window, two.fast_forwarded,
                 two.detailed_retired, 100.0 * two.detailed_fraction,
                 two.skipped_samples))
    print()

    top = run.database.top_by_event(Event.RETIRED, limit=args.top)
    rows = [["%#x" % pc, program.fetch(pc).disassemble()
             if program.contains_pc(pc) else "?", count]
            for pc, count in top]
    print(format_table(["pc", "instruction", "retired samples"], rows,
                       title="Hottest instructions"))
    print()
    hot_pcs = [pc for pc, _ in top]
    print(latency_table(run.database, pcs=hot_pcs, program=program))
    print()
    totals, fractions = program_breakdown(run.database, args.interval)
    print(format_breakdown(totals, fractions,
                           event_attribution(run.database)))
    print()
    from repro.analysis.aggregate import hierarchy_report

    print(hierarchy_report(run.database, program, args.interval,
                           limit=args.top))

    if run.pair_analyzer is not None:
        print()
        metrics = instruction_metrics(run.database, args.interval / 2.0,
                                      pair_analyzer=run.pair_analyzer)
        print(bottleneck_report(metrics, run.database, program=program,
                                limit=args.top))

    if args.out:
        save_database(run.database, args.out)
        print("\nprofile written to %s" % args.out)
    return 0


def cmd_report(args):
    database = load_database(args.profile)
    print("profile: %d samples over %d static instructions\n"
          % (database.total_samples, len(database.per_pc)))
    top = database.top_by_event(Event.RETIRED, limit=args.top)
    print(latency_table(database, pcs=[pc for pc, _ in top]))
    print()
    totals, fractions = program_breakdown(database, args.interval)
    print(format_breakdown(totals, fractions, event_attribution(database)))
    return 0


def cmd_compare(args):
    """Diff two saved profiles: where did the new build get worse?"""
    before = load_database(args.before)
    after = load_database(args.after)
    scale_before = args.interval
    scale_after = args.interval

    rows = []
    for pc in sorted(set(before.per_pc) | set(after.per_pc)):
        old = before.profile(pc)
        new = after.profile(pc)
        old_cycles = 0.0
        new_cycles = 0.0
        for name in ("fetch_to_map", "map_to_data_ready",
                     "data_ready_to_issue", "issue_to_retire_ready"):
            if old is not None:
                old_cycles += old.latency(name).total * scale_before
            if new is not None:
                new_cycles += new.latency(name).total * scale_after
        delta = new_cycles - old_cycles
        if abs(delta) < args.threshold:
            continue
        rows.append((delta, pc, old_cycles, new_cycles,
                     (old.samples if old else 0),
                     (new.samples if new else 0)))
    rows.sort(key=lambda r: -r[0])
    print(format_table(
        ["pc", "est. cycles before", "after", "delta", "samples b/a"],
        [["%#x" % pc, "%.0f" % old_cycles, "%.0f" % new_cycles,
          "%+.0f" % delta, "%d/%d" % (old_n, new_n)]
         for delta, pc, old_cycles, new_cycles, old_n, new_n
         in rows[:args.top]],
        title="Largest estimated-cycle regressions (positive = worse)"))
    total_before = sum(r[2] for r in rows)
    total_after = sum(r[3] for r in rows)
    print("\nnet change over reported PCs: %+.0f estimated cycles"
          % (total_after - total_before))
    return 0


def cmd_optimize(args):
    """Close the PGO loop: profile -> plan -> apply -> measured speedup."""
    from repro.analysis.persistence import save_pgo_report
    from repro.pgo.pipeline import options_from_args, run_pgo

    program = _load_workload(args.workload, args.scale)
    options = options_from_args(args)

    def progress(event):
        phase = event.get("phase")
        if phase == "profile":
            print("profiling %s: %d replicate(s), %s mode, interval %d"
                  % (program.name, options.replicates, options.exec_mode,
                     options.interval))
        elif phase == "plan":
            applied = ", ".join(event["applied"]) or "no applicable pass"
            print("planned %d transformation(s) (%s)"
                  % (event["transformations"], applied))
        elif phase == "measure":
            print("measuring %d unit(s): %s"
                  % (len(event["units"]), ", ".join(event["units"])))
        elif phase == "compare":
            print("running ground-truth pipeline for the envelope "
                  "comparison")

    report = run_pgo(program, options, workload=args.workload,
                     progress=progress)
    print()

    rows = []
    for pass_report in report.plan.reports:
        reason = pass_report.reason or "-"
        if pass_report.pcs:
            reason += " [%s]" % ", ".join("%#x" % pc
                                          for pc in pass_report.pcs[:4])
        rows.append([pass_report.name, pass_report.status,
                     len(pass_report.transformations), reason])
    print(format_table(["pass", "status", "transformations", "detail"],
                       rows,
                       title="PGO plan for %s (%d samples, effective "
                       "interval %.1f)"
                       % (program.name, report.total_samples,
                          report.effective_interval)))
    print()

    rows = []
    for m in report.measurements:
        rows.append([
            m.name, m.protocol, m.baseline_cycles,
            "%.0f" % (m.baseline_cycles - m.mean_reduction),
            "%.0f" % m.mean_reduction,
            "%.2f%%" % (100.0 * m.relative_reduction),
            "[%.0f, %.0f]" % (m.ci_low, m.ci_high),
            "yes" if m.significant else "no"])
    print(format_table(
        ["unit", "protocol", "baseline", "optimized", "reduction",
         "relative", "95% CI", "significant"],
        rows,
        title="Measured cycle reduction (%d replicate(s))"
        % options.replicates))

    comparison = report.comparison
    if comparison is not None:
        print()
        rows = [[c.name, c.sampled, c.truth, c.matched, len(c.conflicts)]
                for c in comparison.per_pass]
        print(format_table(
            ["pass", "sampled decisions", "truth decisions", "matched",
             "conflicts"],
            rows, title="Sampled vs ground-truth decisions"))
        print("\nsampled speedup %.2f%% vs ground-truth %.2f%% "
              "(ratio %s); k_min=%d so envelope is 1 +- %.3f -> %s"
              % (100.0 * comparison.sampled_reduction,
                 100.0 * comparison.truth_reduction,
                 "%.3f" % comparison.speedup_ratio
                 if comparison.speedup_ratio is not None else "n/a",
                 comparison.k_min, comparison.envelope_half,
                 "WITHIN envelope" if comparison.speedup_within_envelope
                 else "OUTSIDE envelope"))
        if comparison.envelope_fraction is not None:
            print("per-decision estimates inside 1 +- 1/sqrt(k): "
                  "%d/%d (%.0f%%)"
                  % (sum(1 for r in comparison.envelope_rows if r.within),
                     len(comparison.envelope_rows),
                     100.0 * comparison.envelope_fraction))

    if args.report:
        save_pgo_report(report.document, args.report)
        print("\nPGO report written to %s" % args.report)
    return 0


def _sweep_progress(event):
    """Default progress hook for `repro sweep`: checkpoint + retry lines."""
    metrics = event["metrics"]
    if event["kind"] == "flush":
        print("checkpoint: %d/%d done (%d ok, %d cached, %d failed, "
              "%d timeout, %d retries), %.0f cycles/s"
              % (metrics.done, metrics.total, metrics.ok, metrics.cached,
                 metrics.failed, metrics.timeouts, metrics.retries,
                 metrics.cycles_per_second))
    elif event["kind"] == "retry":
        print("retrying spec %d (attempt %d failed)"
              % (event["index"], event["attempts"]))


def cmd_sweep(args):
    """Profile one workload over an interval x seed grid, in parallel.

    With ``--checkpoint``/``--resume`` the sweep runs on the resumable
    runner: completed chunks are flushed to the directory as
    content-addressed result documents, and a re-run (or ``--resume``
    after a crash) simulates only the specs whose results are missing.

    With ``--push <host:port>`` every worker process streams its live
    samples into a running ``repro serve`` instance; cache hits (which
    simulate nothing) are forwarded afterwards as whole profile
    documents, so the service ends up with the full sweep either way.
    """
    program = _load_workload(args.workload, args.scale)
    try:
        intervals = [int(s) for s in args.intervals.split(",") if s]
    except ValueError:
        raise ConfigError("--intervals must be a comma-separated list of "
                          "integers, got %r" % (args.intervals,))
    specs = [
        SessionSpec(
            program=program, core_kind=args.core,
            profile=ProfileMeConfig(mean_interval=interval,
                                    paired=args.paired,
                                    seed=args.seed + seed_index),
            keep_records=False,
            push_to=args.push,
            exec_mode=args.mode, window=args.window,
            label="S=%d seed=%d" % (interval, args.seed + seed_index))
        for interval in intervals
        for seed_index in range(args.seeds)
    ]
    store = args.resume or args.checkpoint
    sweep = run_sweep(specs, workers=args.jobs, timeout=args.timeout,
                      retries=args.retries, store=store,
                      chunk_size=args.chunk_size,
                      progress=_sweep_progress)
    if args.push:
        _push_cached_outcomes(args.push, sweep)

    rows = []
    report = []
    for outcome in sweep.outcomes:
        spec = outcome.spec
        result = outcome.result
        entry = {
            "label": spec.label,
            "interval": spec.profile.mean_interval,
            "seed": spec.profile.seed,
            "status": outcome.status,
            "spec_key": outcome.key,
        }
        if result is not None:
            samples = (result.database.total_samples
                       if result.database is not None else 0)
            rows.append([spec.label, outcome.status, result.stats.cycles,
                         result.stats.retired, "%.2f" % result.stats.ipc,
                         samples,
                         "%.1f" % (1000.0 * samples
                                   / max(1, result.stats.fetched))])
            entry.update({
                "cycles": result.stats.cycles,
                "retired": result.stats.retired,
                "fetched": result.stats.fetched,
                "ipc": result.stats.ipc,
                "samples": samples,
            })
        else:
            rows.append([spec.label, outcome.status, "-", "-", "-", "-", "-"])
            entry["error"] = outcome.error
        report.append(entry)
    metrics = sweep.metrics
    print(format_table(
        ["run", "status", "cycles", "retired", "ipc", "samples",
         "samples/1k fetched"],
        rows,
        title="Sampling sweep: %s on %s (%d runs, jobs=%s)"
        % (program.name, args.core, len(specs),
           "auto" if args.jobs is None else args.jobs)))
    print("\n%d ok, %d cached, %d failed, %d timeout; %d retries; "
          "%d cycles simulated (%.0f cycles/s)"
          % (metrics.ok, metrics.cached, metrics.failed, metrics.timeouts,
             metrics.retries, metrics.simulated_cycles,
             metrics.cycles_per_second))
    if args.out:
        with open(args.out, "w") as stream:
            json.dump({"workload": program.name, "core": args.core,
                       "metrics": metrics.snapshot(),
                       "runs": report}, stream, indent=2)
        print("\nsweep results written to %s" % args.out)
    return 0 if not sweep.failures() else 1


def _push_cached_outcomes(address, sweep):
    """Forward cache hits (no simulation, no live stream) to the service."""
    from repro.engine.sweep import STATUS_CACHED
    from repro.service.client import ProfileClient

    documents = [outcome.payload["database"] for outcome in sweep.outcomes
                 if outcome.status == STATUS_CACHED and outcome.payload
                 and outcome.payload.get("database")]
    with ProfileClient(address) as client:
        for document in documents:
            client.push_database(document)
        info = client.drain()
    print("pushed to %s: %d cached profile(s) merged; service drops so "
          "far: %d batches / %d records"
          % (address, len(documents), info.get("dropped_batches", 0),
             info.get("dropped_records", 0)))


# ----------------------------------------------------------------------
# Continuous-profiling service commands.


def cmd_serve(args):
    """Run the continuous-profiling ingestion server until interrupted."""
    import asyncio
    import signal

    from repro.service.server import ProfileServer

    server = ProfileServer(host=args.host, port=args.port,
                           shards=args.shards, queue_size=args.queue_size,
                           keep_addresses=args.keep_addresses,
                           snapshot_path=args.snapshot,
                           snapshot_interval=args.snapshot_interval,
                           workers=not args.inline_fold,
                           rollup_interval=args.rollup_interval,
                           retain_buckets=args.retain_buckets)

    async def _serve():
        await server.start()
        print("profile service listening on %s:%d (%d shard worker(s), "
              "queue %d/shard%s)"
              % (server.host, server.port, server.shard_count,
                 server.queue_size,
                 ", snapshots to %s" % args.snapshot if args.snapshot
                 else ""), flush=True)
        if args.port_file:
            # Atomic, so a watcher never reads a half-written port.
            tmp = args.port_file + ".tmp"
            with open(tmp, "w") as stream:
                stream.write("%d\n" % server.port)
            import os

            os.replace(tmp, args.port_file)
        stopping = asyncio.Event()
        loop = asyncio.get_event_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stopping.set)
            except (NotImplementedError, RuntimeError):
                pass  # non-Unix loop: Ctrl-C still lands as KeyboardInterrupt
        serving = asyncio.ensure_future(server.serve_forever())
        waiter = asyncio.ensure_future(stopping.wait())
        try:
            await asyncio.wait([serving, waiter],
                               return_when=asyncio.FIRST_COMPLETED)
        finally:
            for task in (serving, waiter):
                task.cancel()
            # Graceful shutdown: the final snapshot lands even on SIGTERM.
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_push(args):
    """Profile a workload and stream the samples into a running service.

    With ``--database`` no simulation happens: the saved profile
    document is shipped for server-side merge instead.
    """
    from repro.service.client import ProfileClient

    if args.database:
        document = load_database(args.database).to_dict()
        with ProfileClient(args.address) as client:
            if not client.push_database(document):
                raise ConfigError("could not deliver %s to %s"
                                  % (args.database, args.address))
            info = client.drain()
        print("pushed %s (%d samples) to %s; service drops so far: "
              "%d batches / %d records"
              % (args.database, document["total_samples"], args.address,
                 info.get("dropped_batches", 0),
                 info.get("dropped_records", 0)))
        return 0
    if not args.workload:
        raise ConfigError("push needs a workload (or --database FILE)")
    program = _load_workload(args.workload, args.scale)
    spec = SessionSpec(
        program=program, core_kind=args.core,
        profile=ProfileMeConfig(mean_interval=args.interval,
                                paired=args.paired, seed=args.seed),
        keep_records=False, push_to=args.address,
        label="push:%s" % program.name)
    result = run_session(spec)
    with ProfileClient(args.address) as client:
        reply = client.query("stats")
    print("pushed %s: %d samples from %d retired instructions "
          "(%d cycles) to %s"
          % (program.name,
             result.database.total_samples if result.database else 0,
             result.stats.retired, result.cycles, args.address))
    print("service now holds %d samples over %d static instructions "
          "(%d batches dropped)"
          % (reply.get("total_samples", 0),
             reply.get("static_instructions", 0),
             reply.get("dropped_batches", 0)))
    return 0


def _query_epoch_params(args):
    """Validate ``query epochs`` range arguments before connecting.

    Returns the keyword dict for :meth:`ProfileClient.epochs`.  Raises
    :class:`ConfigError` (exit 2) on an empty or malformed range, so a
    typo never turns into a confusing server-side refusal.
    """
    from repro.errors import ProtocolError
    from repro.service.protocol import epoch_range_params

    try:
        return epoch_range_params(args.since, args.until, args.limit)
    except ProtocolError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_query(args):
    """Query a running profile service (top/latency/stats/.../epochs)."""
    from repro.service.client import ProfileClient

    # Reject malformed arguments *before* touching the network: a bad
    # limit, PC, or epoch range is the operator's typo, not the
    # server's problem, and must exit 2 with a one-line diagnosis.
    if args.cmd in ("top", "convergence", "epochs") and args.limit < 1:
        raise ConfigError("--limit must be >= 1, got %d" % (args.limit,))
    pc = None
    if args.cmd == "latency":
        if args.pc is None:
            raise ConfigError("query latency needs --pc")
        try:
            pc = int(args.pc, 0)
        except ValueError:
            raise ConfigError("malformed --pc %r (expected an integer, "
                              "hex ok)" % (args.pc,)) from None
    epoch_params = _query_epoch_params(args) if args.cmd == "epochs" else None

    with ProfileClient(args.address) as client:
        if args.drain:
            client.drain()
        if args.cmd == "top":
            reply = client.query("top", event=args.event, limit=args.limit)
            print(format_table(
                ["pc", "%s samples" % reply["event"].lower()],
                [["%#x" % pc, count] for pc, count in reply["top"]],
                title="Top PCs by %s (%d samples total, %d records dropped)"
                % (reply["event"], reply["total_samples"],
                   reply["dropped_records"])))
        elif args.cmd == "latency":
            reply = client.query("latency", pc=pc)
            if not reply.get("found"):
                print("pc %#x: no samples" % reply["pc"])
                return 1
            rows = []
            for name, (count, total, total_sq) in sorted(
                    reply["latencies"].items()):
                mean = total / count if count else 0.0
                var = max(0.0, total_sq / count - mean * mean) if count else 0.0
                rows.append([name, count, "%.2f" % mean, "%.2f" % var])
            print(format_table(["latency register", "n", "mean", "variance"],
                               rows,
                               title="pc %#x (%d samples)"
                               % (reply["pc"], reply["samples"])))
        elif args.cmd == "stats":
            reply = client.query("stats")
            stats = reply["stats"]
            print("service: %d samples over %d static instructions "
                  "in %d shard(s)"
                  % (reply["total_samples"], reply["static_instructions"],
                     len(reply["shards"])))
            for key in sorted(stats):
                print("  %-18s %d" % (key, stats[key]))
        elif args.cmd == "convergence":
            reply = client.query("convergence", event=args.event,
                                 limit=args.limit)
            print(format_table(
                ["pc", "samples", "relative error (1/sqrt(k))"],
                [["%#x" % row["pc"], row["samples"],
                  "%.3f" % row["envelope"] if row["envelope"] is not None
                  else "-"]
                 for row in reply["convergence"]],
                title="Convergence status for %s (%d samples total)"
                % (reply["event"], reply["total_samples"])))
        elif args.cmd == "epochs":
            reply = client.query("epochs", **epoch_params)
            rows = [[row["level"], row["start"],
                     row["start"] + row["span"], row["samples"],
                     row["pcs"]]
                    for row in reply["epochs"]]
            print(format_table(
                ["level", "start", "end", "samples", "pcs"], rows,
                title="Rollup epochs (interval %d, retain %s): "
                      "%d samples retained, %d evicted"
                % (reply["rollup_interval"],
                   reply["retain_buckets"] or "unbounded",
                   reply["total_samples"], reply["evicted_samples"])))
        elif args.cmd == "export":
            reply = client.query("export")
            text = canonical_json(reply["database"])
            if args.out:
                with open(args.out, "w") as stream:
                    stream.write(text)
                print("exported %d samples to %s (%d bytes, %d records "
                      "dropped server-side)"
                      % (reply["database"]["total_samples"], args.out,
                         len(text), reply["dropped_records"]))
            else:
                print(text)
        else:
            raise ConfigError("unknown query command %r" % (args.cmd,))
    return 0


# ----------------------------------------------------------------------
# Probe-registry introspection.


def _probe_machine(args):
    """Build the standard introspectable machine for local probe commands.

    Mirrors ``run_session``'s wiring — core + ProfileMe stack + one
    event counter, all on one registry — so every probe subtree a
    profiled session exposes (``cpu*``, ``mem``, ``branch``,
    ``profileme``, ``counters``) is enumerable here too.
    """
    from repro.counters.counter import (CounterConfig, CounterEvent,
                                        EventCounter)
    from repro.engine.session import attach_profileme, build_core

    program = _load_workload(args.workload, args.scale)
    core = build_core(program, core_kind=args.core)
    stack = attach_profileme(
        core, ProfileMeConfig(mean_interval=args.interval, seed=args.seed),
        keep_records=False)
    counter = EventCounter(CounterConfig(event=CounterEvent.RETIRED_INST,
                                         period=args.interval))
    core.add_probe(counter)
    registry = core.probe_registry()
    stack.unit.register_probes(registry)
    counter.register_probes(registry)
    return core, registry


def _format_probe_value(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        return "%.4g" % value
    return str(value)


def _print_probe_list(properties, pattern):
    """Render probe metadata; exit status 1 when nothing matches.

    The nonzero exit on an empty namespace is load-bearing: the CI
    service-smoke step uses ``repro probes list --address`` as a
    liveness check for the server-side registry.
    """
    if not properties:
        print("error: no probes match %r" % (pattern,), file=sys.stderr)
        return 1
    if isinstance(properties, list):  # registry.properties() form
        properties = {meta["name"]: meta for meta in properties}
    rows = [[name, meta["kind"], meta["unit"] or "-", meta["description"]]
            for name, meta in sorted(properties.items())]
    print(format_table(["probe", "kind", "unit", "description"], rows,
                       title="%d probe(s) matching %r"
                       % (len(rows), pattern)))
    return 0


def cmd_probes(args):
    """Inspect the probe registry: local machine or running service."""
    if args.address:
        return _probes_remote(args)
    return _probes_local(args)


def _probes_local(args):
    core, registry = _probe_machine(args)
    command = args.probes_cmd

    if command == "list":
        return _print_probe_list(registry.properties(args.pattern),
                                 args.pattern)

    if command == "watch":
        from repro.probes.stream import ProbeStreamer

        ticks = [0]

        def sink(cycle, readings):
            ticks[0] += 1
            for name in sorted(readings):
                print("%10d  %-44s %s"
                      % (cycle, name,
                         _format_probe_value(readings[name])))

        streamer = core.add_probe(ProbeStreamer(
            pattern=args.pattern, period=args.period, sink=sink,
            keep=False))
        cycles = core.run(max_cycles=args.max_cycles)
        streamer.sample(core.cycle)  # final reading at the end cycle
        print("\nwatched %r every %d cycles: %d reading(s) over "
              "%d cycles" % (args.pattern, args.period, ticks[0], cycles))
        return 0

    # read: run the workload, then print the final registry snapshot.
    cycles = core.run(max_cycles=args.max_cycles)
    snapshot = registry.snapshot(args.pattern, refresh=True)
    if not snapshot:
        print("error: no probes match %r" % (args.pattern,),
              file=sys.stderr)
        return 1
    rows = [[name, _format_probe_value(meta["value"]), meta["kind"],
             meta["unit"] or "-"]
            for name, meta in sorted(snapshot.items())]
    print(format_table(["probe", "value", "kind", "unit"], rows,
                       title="%d probe(s) after %d cycles of %s"
                       % (len(rows), cycles, args.workload)))
    return 0


def _probes_remote(args):
    import time

    from repro.service.client import ProfileClient

    command = args.probes_cmd
    with ProfileClient(args.address) as client:
        if command == "watch":
            polls = 0
            while True:
                reply = client.query("probes", pattern=args.pattern)
                _print_remote_probes(reply, values=True)
                polls += 1
                if args.count and polls >= args.count:
                    return 0
                time.sleep(args.every)
        reply = client.query("probes", pattern=args.pattern)
    if command == "list":
        return _print_probe_list(reply.get("probes", {}), args.pattern)
    if not reply.get("probes") and not reply.get("series"):
        # Neither a live registry probe nor a streamed series matches.
        print("error: no probes match %r on %s"
              % (args.pattern, args.address), file=sys.stderr)
        return 1
    _print_remote_probes(reply, values=True)
    return 0


def _print_remote_probes(reply, values=False):
    probes = reply.get("probes", {})
    rows = [[name, _format_probe_value(meta["value"]), meta["kind"],
             meta["unit"] or "-"]
            for name, meta in sorted(probes.items())]
    print(format_table(["probe", "value", "kind", "unit"], rows,
                       title="service registry: %d probe(s)" % len(rows)))
    series = reply.get("series", {})
    if series:
        rows = []
        for name in sorted(series):
            count, total, minimum, maximum, last, last_tick = series[name]
            rows.append([name, count,
                         "%.4g" % (total / count if count else 0.0),
                         "%.4g" % minimum, "%.4g" % maximum,
                         "%.4g @ %d" % (last, last_tick)])
        print()
        print(format_table(
            ["streamed series", "n", "mean", "min", "max", "last"],
            rows, title="probe series folded from probe_push frames"))


def cmd_paths(args):
    from repro.analysis.pathprof import run_reconstruction_experiment
    from repro.isa.interpreter import functional_trace
    from repro.utils.rng import SamplingRng

    program = _load_workload(args.workload, args.scale)
    trace = functional_trace(program)
    step = max(1, (len(trace) - 400) // args.samples)
    indices = list(range(300, len(trace) - 1, step))
    lengths = sorted(set([1, 2, 4, args.history]))
    results = run_reconstruction_experiment(
        program, trace, history_lengths=lengths, sample_indices=indices,
        pair_rng=SamplingRng(args.seed),
        interprocedural=args.interprocedural)
    rows = [[bits,
             "%.2f" % results[bits]["execution_counts"],
             "%.2f" % results[bits]["history_bits"],
             "%.2f" % results[bits]["history_plus_pair"]]
            for bits in lengths]
    print(format_table(
        ["history bits", "exec counts", "history", "history+pair"], rows,
        title="Path reconstruction success (%s, %d samples)"
        % ("interprocedural" if args.interprocedural
           else "intraprocedural", len(indices))))
    return 0


def cmd_bench(args):
    from repro.tools import bench

    # Load the baseline up front: with default arguments --out IS the
    # committed baseline file, so it must be read before the overwrite.
    committed = bench.QUICK_OUTPUT if args.quick else bench.DEFAULT_OUTPUT
    out = args.out or committed
    baseline_path = args.baseline
    if baseline_path is None and os.path.exists(committed):
        baseline_path = committed
    baseline = None
    if baseline_path:
        try:
            baseline = bench.load_document(baseline_path)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print("bench: cannot read baseline %s: %s"
                  % (baseline_path, exc), file=sys.stderr)
            baseline = None

    def progress(label):
        print("bench: running %s ..." % label, file=sys.stderr)

    document = bench.run_bench(quick=args.quick, repeats=args.repeats,
                               progress=progress)
    bench.save_document(document, out)
    print("wrote %s (rev %s)" % (out, document["git_rev"]))
    for kind in sorted(document["results"]):
        for label, entry in sorted(document["results"][kind].items()):
            line = ("  %s/%s: %d cycles in %.3fs = %d cycles/s, "
                    "%d retired instr/s"
                    % (kind, label, entry["cycles"], entry["wall_s"],
                       entry["cycles_per_sec"], entry["retired_per_sec"]))
            if "speedup_vs_detailed" in entry:
                line += " (%.2fx vs detailed)" % entry["speedup_vs_detailed"]
            print(line)

    if baseline is not None:
        lines, simulation_changed = bench.diff_lines(baseline, document)
        print("vs baseline %s:" % baseline_path)
        for line in lines:
            print("  " + line)
        if simulation_changed:
            print("bench: cycle counts diverge from the baseline — the "
                  "simulated machine changed", file=sys.stderr)
            return 1
    return 0


def _package_version():
    """The installed package version, falling back to the source tree's."""
    try:
        from importlib import metadata

        return metadata.version("repro")
    # Narrow on purpose: metadata.PackageNotFoundError subclasses
    # ImportError, and anything broader would also swallow
    # KeyboardInterrupt/SystemExit raised while importing.
    except ImportError:
        from repro import __version__

        return __version__


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro", description="ProfileMe reproduction CLI")
    parser.add_argument("--version", action="version",
                        version="repro %s" % _package_version())
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available workloads") \
        .set_defaults(func=cmd_list)

    p = sub.add_parser("profile", help="profile a workload with ProfileMe")
    p.add_argument("workload", help="suite name or kernel:<name>")
    p.add_argument("--scale", type=int, default=1)
    p.add_argument("--interval", type=int, default=100,
                   help="mean sampling interval S (fetched instructions)")
    p.add_argument("--paired", action="store_true",
                   help="enable paired sampling")
    p.add_argument("--pair-window", type=int, default=96,
                   help="paired-sampling window W")
    p.add_argument("--mode", choices=("detailed", "two-speed"),
                   default="detailed",
                   help="detailed simulates every instruction; two-speed "
                        "fast-forwards between samples and runs a bounded "
                        "detailed window around each one")
    p.add_argument("--window", type=int, default=2000,
                   help="two-speed detailed-window length in retired "
                        "instructions (first quarter is pipeline warm-up)")
    p.add_argument("--register-sets", type=int, default=1)
    p.add_argument("--core", choices=("ooo", "inorder"), default="ooo")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--top", type=int, default=8)
    p.add_argument("--keep-addresses", type=int, default=0)
    p.add_argument("--out", help="write the profile database as JSON")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("report", help="render a saved profile")
    p.add_argument("profile", help="path to a saved profile JSON")
    p.add_argument("--interval", type=int, default=100,
                   help="sampling interval the profile was taken at")
    p.add_argument("--top", type=int, default=8)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("compare",
                       help="diff two saved profiles (regressions)")
    p.add_argument("before", help="baseline profile JSON")
    p.add_argument("after", help="new profile JSON")
    p.add_argument("--interval", type=int, default=100)
    p.add_argument("--threshold", type=float, default=1.0,
                   help="hide deltas smaller than this (cycles)")
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "optimize",
        help="close the PGO loop: profile -> optimize -> measured speedup")
    p.add_argument("workload", help="suite name or kernel:<name>")
    p.add_argument("--scale", type=int, default=1)
    p.add_argument("--passes", default=None,
                   help="comma-separated subset of layout,prefetch,hints "
                        "(default: all three)")
    p.add_argument("--interval", type=int, default=100,
                   help="mean sampling interval S (fetched instructions)")
    p.add_argument("--seeds", type=int, default=3,
                   help="profile-seed replicates; the confidence interval "
                        "is over their per-replicate reductions")
    p.add_argument("--seed", type=int, default=1, help="base sampling seed")
    p.add_argument("--mode", choices=("detailed", "two-speed"),
                   default="detailed",
                   help="profiling engine (measurement always runs "
                        "detailed)")
    p.add_argument("--window", type=int, default=2000,
                   help="two-speed detailed-window length")
    p.add_argument("--core", choices=("ooo", "inorder"), default="ooo")
    p.add_argument("--max-retired", type=int, default=None,
                   help="cap every run at this many retired instructions")
    p.add_argument("--lookahead", type=int, default=6,
                   help="prefetch distance in strides")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for profiling/measurement runs "
                        "(1 runs inline)")
    p.add_argument("--checkpoint", metavar="DIR",
                   help="content-addressed result cache shared by the "
                        "profile and measurement runs; re-running an "
                        "identical optimize is then free")
    p.add_argument("--report", metavar="FILE",
                   help="write the machine-readable repro-pgo-report "
                        "JSON here")
    p.add_argument("--compare-truth", action="store_true",
                   help="also run the pipeline on exact ground-truth "
                        "counts and report the 1/sqrt(k) envelope verdict")
    p.add_argument("--quick", action="store_true",
                   help="CI smoke: at most 2 replicates, capped run "
                        "length")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("sweep",
                       help="parallel sampling sweep over one workload")
    p.add_argument("workload", help="suite name or kernel:<name>")
    p.add_argument("--scale", type=int, default=1)
    p.add_argument("--intervals", default="25,50,100,200",
                   help="comma-separated mean sampling intervals")
    p.add_argument("--seeds", type=int, default=1,
                   help="independent sampling seeds per interval")
    p.add_argument("--seed", type=int, default=1, help="base seed")
    p.add_argument("--paired", action="store_true")
    p.add_argument("--core", choices=("ooo", "inorder"), default="ooo")
    p.add_argument("--mode", choices=("detailed", "two-speed"),
                   default="detailed",
                   help="run every spec detailed, or two-speed (functional "
                        "fast-forward between sampled detailed windows)")
    p.add_argument("--window", type=int, default=2000,
                   help="two-speed detailed-window length (retired "
                        "instructions)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: one per host core; "
                        "1 runs inline)")
    p.add_argument("--out", help="write the sweep results as JSON")
    p.add_argument("--checkpoint", metavar="DIR",
                   help="flush completed chunks to DIR (content-addressed "
                        "result cache); a re-run skips cached specs")
    p.add_argument("--resume", metavar="DIR",
                   help="resume an interrupted sweep from DIR (same as "
                        "--checkpoint: only missing specs are simulated)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-spec wall-clock timeout in seconds; a worker "
                        "past the deadline is terminated and retried")
    p.add_argument("--retries", type=int, default=1,
                   help="extra attempts (fresh worker) after a failure, "
                        "timeout, or worker death")
    p.add_argument("--chunk-size", type=int, default=None,
                   help="specs per checkpoint chunk (default: 2 x jobs)")
    p.add_argument("--push", metavar="HOST:PORT",
                   help="stream live samples from every worker into a "
                        "running `repro serve` (cache hits are forwarded "
                        "as merged profile documents)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("serve",
                       help="run the continuous-profiling service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=9137,
                   help="TCP port (0 picks an ephemeral port)")
    p.add_argument("--shards", type=int, default=4,
                   help="ingest database shards (connections are "
                        "assigned round-robin)")
    p.add_argument("--queue-size", type=int, default=64,
                   help="batches buffered per connection before the "
                        "server starts dropping (and counting) them")
    p.add_argument("--keep-addresses", type=int, default=0,
                   help="effective addresses retained per PC")
    p.add_argument("--snapshot", metavar="PATH",
                   help="periodically persist the merged profile here "
                        "(atomic writes; final snapshot on shutdown)")
    p.add_argument("--snapshot-interval", type=float, default=30.0,
                   help="seconds between snapshots")
    p.add_argument("--port-file", metavar="PATH",
                   help="write the bound port here once listening "
                        "(for scripts using --port 0)")
    p.add_argument("--inline-fold", action="store_true",
                   help="fold on the event loop instead of dedicated "
                        "shard worker processes (debugging / "
                        "single-core embedding)")
    p.add_argument("--rollup-interval", type=int, default=0,
                   help="fold samples into time buckets of this many "
                        "cycles, rolled up into exponentially coarser "
                        "epochs as they age (0 = one flat store)")
    p.add_argument("--retain-buckets", type=int, default=0,
                   help="cap live buckets per shard; past it the oldest "
                        "are evicted and counted (0 = unbounded; "
                        "requires --rollup-interval)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("push",
                       help="profile a workload and stream it to a service")
    p.add_argument("address", help="service address, host:port")
    p.add_argument("workload", nargs="?",
                   help="suite name or kernel:<name>")
    p.add_argument("--database", metavar="FILE",
                   help="push a saved profile JSON instead of simulating")
    p.add_argument("--scale", type=int, default=1)
    p.add_argument("--interval", type=int, default=100)
    p.add_argument("--paired", action="store_true")
    p.add_argument("--core", choices=("ooo", "inorder"), default="ooo")
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_push)

    p = sub.add_parser("query", help="query a running profile service")
    p.add_argument("address", help="service address, host:port")
    p.add_argument("cmd",
                   choices=("top", "latency", "stats", "convergence",
                            "export", "epochs"))
    p.add_argument("--event", default="RETIRED",
                   help="event flag for top/convergence")
    p.add_argument("--limit", type=int, default=10)
    p.add_argument("--pc", help="PC for the latency query (hex ok)")
    p.add_argument("--since", type=int, default=None,
                   help="epochs: keep buckets overlapping ticks >= SINCE")
    p.add_argument("--until", type=int, default=None,
                   help="epochs: keep buckets starting before UNTIL")
    p.add_argument("--out", help="write the export document here")
    p.add_argument("--drain", action="store_true",
                   help="barrier this connection's ingest queue before "
                        "querying")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("probes",
                       help="inspect the hierarchical probe registry")
    probe_common = argparse.ArgumentParser(add_help=False)
    probe_common.add_argument("pattern", nargs="?", default="*",
                              help="fnmatch-style probe-name pattern "
                                   "(quote wildcards from the shell)")
    probe_common.add_argument("--address", metavar="HOST:PORT",
                              help="inspect a running service's registry "
                                   "instead of building a local machine")
    probe_common.add_argument("--workload", default="compress",
                              help="workload for the local machine "
                                   "(suite name or kernel:<name>)")
    probe_common.add_argument("--scale", type=int, default=1)
    probe_common.add_argument("--core", choices=("ooo", "inorder"),
                              default="ooo")
    probe_common.add_argument("--interval", type=int, default=100,
                              help="mean sampling interval for the "
                                   "attached ProfileMe unit")
    probe_common.add_argument("--seed", type=int, default=1)
    probes_sub = p.add_subparsers(dest="probes_cmd", required=True)
    pp = probes_sub.add_parser(
        "list", parents=[probe_common],
        help="enumerate probe names and metadata (exit 1 if none match)")
    pp.set_defaults(func=cmd_probes)
    pp = probes_sub.add_parser(
        "read", parents=[probe_common],
        help="run the workload, then print final probe values")
    pp.add_argument("--max-cycles", type=int, default=200_000)
    pp.set_defaults(func=cmd_probes)
    pp = probes_sub.add_parser(
        "watch", parents=[probe_common],
        help="stream probe readings while the workload runs "
             "(with --address: poll the service registry)")
    pp.add_argument("--period", type=int, default=1000,
                    help="cycles between local readings")
    pp.add_argument("--max-cycles", type=int, default=200_000)
    pp.add_argument("--every", type=float, default=2.0,
                    help="seconds between service polls (--address)")
    pp.add_argument("--count", type=int, default=0,
                    help="stop after this many service polls "
                         "(0 = until interrupted)")
    pp.set_defaults(func=cmd_probes)

    p = sub.add_parser(
        "bench",
        help="measure simulator throughput on the pinned workload set")
    p.add_argument("--quick", action="store_true",
                   help="small workload set, one repeat (CI smoke)")
    p.add_argument("--repeats", type=int, default=None,
                   help="timing repeats per case (default: 3, 1 with "
                        "--quick); best run is kept")
    p.add_argument("--out", default=None,
                   help="where to write the result document (default: "
                        "the committed document of the flavour run, "
                        "BENCH_core_throughput.json or "
                        "BENCH_core_throughput_quick.json)")
    p.add_argument("--baseline", default=None,
                   help="bench document to diff against (default: the "
                        "committed document of the same flavour if "
                        "present)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("paths", help="path-reconstruction analysis")
    p.add_argument("workload")
    p.add_argument("--scale", type=int, default=1)
    p.add_argument("--history", type=int, default=8)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--interprocedural", action="store_true")
    p.set_defaults(func=cmd_paths)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 2
    except OSError as exc:
        # Unreachable service, refused connection, unwritable output.
        print("error: %s" % (exc,), file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
