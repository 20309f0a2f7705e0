"""Tests for the command-line tool."""

import pytest

from repro.tools.cli import build_parser, main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "compress" in out
    assert "kernel:dcache_miss" in out


def test_profile_kernel(capsys):
    assert main(["profile", "kernel:dep_chain", "--interval", "20",
                 "--scale", "1"]) == 0
    out = capsys.readouterr().out
    assert "instructions retired" in out
    assert "Latency registers" in out
    assert "Where have all the cycles gone?" in out


def test_profile_paired_suite(capsys):
    assert main(["profile", "compress", "--interval", "60",
                 "--paired"]) == 0
    out = capsys.readouterr().out
    assert "wasted=" in out  # bottleneck report appears with pairs


def test_profile_save_and_report(tmp_path, capsys):
    out_path = str(tmp_path / "prof.json")
    assert main(["profile", "kernel:dcache_miss", "--interval", "25",
                 "--out", out_path]) == 0
    capsys.readouterr()
    assert main(["report", out_path, "--interval", "25"]) == 0
    out = capsys.readouterr().out
    assert "profile:" in out
    assert "cycles gone" in out


def test_compare_finds_regression(tmp_path, capsys):
    """Profile a kernel and its prefetch-optimized version; `compare`
    must report the optimized build as an improvement."""
    from repro.analysis.optimize import insert_prefetches, plan_prefetches
    from repro.analysis.persistence import save_database
    from repro.engine.session import SessionSpec, run_session
    from repro.profileme.unit import ProfileMeConfig
    from repro.workloads import stall_kernel

    # register_sets=4: at S=20 with ~85-cycle sample flights, a single
    # register set drops most selections and the load never accumulates
    # enough samples to plan from.
    config = ProfileMeConfig(mean_interval=20, register_sets=4, seed=3)
    program = stall_kernel("dcache_miss", iterations=400)
    base_run = run_session(SessionSpec(program=program, profile=config))
    plans = plan_prefetches(program, base_run.database, lookahead=8)
    assert plans, "profile must yield a prefetch plan"
    improved = insert_prefetches(program, plans)
    improved_run = run_session(SessionSpec(program=improved, profile=config))
    before_path = str(tmp_path / "before.json")
    after_path = str(tmp_path / "after.json")
    # Treat the OPTIMIZED profile as "before" so the diff reports the
    # unoptimized build as a regression (positive delta).
    save_database(improved_run.database, before_path)
    save_database(base_run.database, after_path)

    assert main(["compare", before_path, after_path,
                 "--interval", "20"]) == 0
    out = capsys.readouterr().out
    assert "regressions" in out
    assert "net change" in out
    net = int(out.rsplit("net change over reported PCs:", 1)[1]
              .split("estimated cycles")[0].strip().replace("+", ""))
    assert net > 0  # unoptimized costs more estimated cycles


def test_paths_command(capsys):
    assert main(["paths", "compress", "--history", "6",
                 "--samples", "30"]) == 0
    out = capsys.readouterr().out
    assert "Path reconstruction success" in out
    assert "history+pair" in out


def test_sweep_checkpoint_and_resume(tmp_path, capsys):
    store = str(tmp_path / "checkpoint")
    args = ["sweep", "kernel:dep_chain", "--intervals", "30,60",
            "--seeds", "1", "--jobs", "2"]
    assert main(args + ["--checkpoint", store]) == 0
    out = capsys.readouterr().out
    assert "checkpoint:" in out
    assert "2 ok, 0 cached" in out

    assert main(args + ["--resume", store]) == 0
    out = capsys.readouterr().out
    assert "0 ok, 2 cached" in out
    assert "cached" in out


def test_sweep_ctrl_c_exits_130_with_resumable_checkpoint(
        tmp_path, monkeypatch, capsys):
    # Ctrl-C mid-sweep must not be swallowed anywhere: the CLI exits
    # with the conventional 130, and the chunks flushed before the
    # interrupt make --resume skip straight past the finished work.
    import repro.engine.sweep as sweep_mod

    store = str(tmp_path / "checkpoint")
    args = ["sweep", "kernel:dep_chain", "--intervals", "30,60",
            "--seeds", "1", "--jobs", "1", "--chunk-size", "1"]
    real_run_session = sweep_mod.run_session
    calls = []

    def interrupted_run_session(spec):
        calls.append(spec)
        if len(calls) == 2:
            raise KeyboardInterrupt()
        return real_run_session(spec)

    monkeypatch.setattr(sweep_mod, "run_session", interrupted_run_session)
    assert main(args + ["--checkpoint", store]) == 130
    capsys.readouterr()

    monkeypatch.setattr(sweep_mod, "run_session", real_run_session)
    assert main(args + ["--resume", store]) == 0
    out = capsys.readouterr().out
    assert "1 ok, 1 cached" in out


def test_sweep_json_report_carries_status(tmp_path, capsys):
    import json

    out_path = str(tmp_path / "sweep.json")
    assert main(["sweep", "kernel:dep_chain", "--intervals", "40",
                 "--jobs", "1", "--out", out_path]) == 0
    capsys.readouterr()
    with open(out_path) as stream:
        report = json.load(stream)
    assert report["metrics"]["ok"] == 1
    assert report["runs"][0]["status"] == "ok"
    assert "spec_key" in report["runs"][0]


def test_profile_assembly_file(tmp_path, capsys):
    source = tmp_path / "prog.s"
    source.write_text(
        ".func main\n"
        "    ldi r1, 200\n"
        "loop:\n"
        "    lda r1, r1, #-1\n"
        "    bne r1, loop\n"
        "    halt\n"
        ".endfunc\n")
    assert main(["profile", str(source), "--interval", "10"]) == 0
    out = capsys.readouterr().out
    assert "instructions retired" in out
    assert "loop@" in out  # the loop aggregation found the loop


def test_unknown_workload_exits_nonzero(capsys):
    assert main(["profile", "nonexistent-workload"]) == 2
    assert "error:" in capsys.readouterr().err


def test_handled_errors_exit_nonzero(capsys):
    assert main(["report", "/nonexistent/profile.json"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["sweep", "kernel:dep_chain", "--intervals", "banana"]) == 2
    assert "--intervals" in capsys.readouterr().err
    assert main(["query", "127.0.0.1:1", "stats"]) == 2  # nothing listening
    assert "error:" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("repro ")
    assert out.split()[1][0].isdigit()  # a real version number follows


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_package_version_does_not_swallow_interrupts(monkeypatch):
    # The metadata-missing fallback must catch ImportError only: a
    # Ctrl-C landing inside the version lookup has to propagate.
    from importlib import metadata

    from repro.tools.cli import _package_version

    def interrupted(_name):
        raise KeyboardInterrupt()

    monkeypatch.setattr(metadata, "version", interrupted)
    with pytest.raises(KeyboardInterrupt):
        _package_version()


def test_bench_quick_writes_document_and_diffs(tmp_path, capsys):
    import json
    import pathlib

    from repro.tools import bench

    # Every quick row has a committed baseline, and the simulation
    # matches it (the deterministic half of the CI perf-smoke gate).
    committed = pathlib.Path(__file__).parents[1] / bench.QUICK_OUTPUT
    baseline_path = str(tmp_path / "baseline.json")
    assert main(["bench", "--quick", "--out", baseline_path,
                 "--baseline", str(committed)]) == 0
    out = capsys.readouterr().out
    assert "cycles/s" in out
    assert "no baseline entry" not in out
    with open(baseline_path) as stream:
        document = json.load(stream)
    assert document["kind"] == "repro-bench-core-throughput"
    assert document["results"]["ooo"]["compress@1"]["cycles"] > 0
    assert document["results"]["smt"]["compress+li"]["retired"] > 0
    assert document["results"]["profileme"]["gcc@1/S=100/paired"][
        "samples"] > 0
    assert document["results"]["wire"]["encode/gcc@1/S=100/paired"][
        "records"] > 0

    # Same simulation vs the baseline: informational diff, exit 0.
    second_path = str(tmp_path / "second.json")
    assert main(["bench", "--quick", "--out", second_path,
                 "--baseline", baseline_path]) == 0
    assert "vs baseline" in capsys.readouterr().out

    # A cycle-count mismatch means the simulated machine changed: the
    # diff must flag it and the command exits nonzero.
    document["results"]["ooo"]["compress@1"]["cycles"] += 1
    with open(baseline_path, "w") as stream:
        json.dump(document, stream)
    assert main(["bench", "--quick", "--out", second_path,
                 "--baseline", baseline_path]) == 1
    assert "SIMULATION CHANGED" in capsys.readouterr().out


def test_bench_diff_flags_wire_digest_changes():
    from repro.tools import bench

    row = {"cycles": 0, "records": 392, "digest": "ab" * 32,
           "wall_s": 0.1, "records_per_sec": 1000}
    baseline = {"quick": True, "git_rev": "base",
                "results": {"wire": {"encode/gcc@1": row}}}
    current = {"quick": True, "results": {"wire": {
        "encode/gcc@1": dict(row, records_per_sec=1100)}}}
    lines, changed = bench.diff_lines(baseline, current)
    assert not changed
    assert lines == ["wire/encode/gcc@1: 1100 records/s (+10.0% vs base)"]

    # Different payload (or folded-export) bytes gate like a cycle drift.
    current["results"]["wire"]["encode/gcc@1"]["digest"] = "cd" * 32
    lines, changed = bench.diff_lines(baseline, current)
    assert changed
    assert lines[0].startswith("wire/encode/gcc@1: WIRE BYTES CHANGED")


# ----------------------------------------------------------------------
# Continuous-profiling service commands.


@pytest.fixture
def service():
    from repro.service.server import ServerThread

    with ServerThread(port=0, shards=2) as thread:
        yield thread


def test_push_and_query_roundtrip(service, capsys):
    addr = service.address
    assert main(["push", addr, "kernel:dep_chain", "--interval", "30"]) == 0
    out = capsys.readouterr().out
    assert "pushed" in out and "service now holds" in out

    assert main(["query", addr, "top", "--event", "RETIRED",
                 "--limit", "3"]) == 0
    out = capsys.readouterr().out
    assert "Top PCs by RETIRED" in out

    assert main(["query", addr, "stats"]) == 0
    out = capsys.readouterr().out
    assert "samples over" in out

    assert main(["query", addr, "convergence"]) == 0
    out = capsys.readouterr().out
    assert "Convergence status" in out


def test_push_saved_database(service, tmp_path, capsys):
    from repro.analysis.persistence import save_database
    from repro.engine.session import SessionSpec, run_session
    from repro.profileme.unit import ProfileMeConfig
    from repro.workloads import stall_kernel

    run = run_session(SessionSpec(
        program=stall_kernel("dep_chain", iterations=200),
        profile=ProfileMeConfig(mean_interval=30, seed=1)))
    path = str(tmp_path / "prof.json")
    save_database(run.database, path)
    capsys.readouterr()
    assert main(["push", service.address, "--database", path]) == 0
    assert "pushed" in capsys.readouterr().out
    assert main(["query", service.address, "stats"]) == 0
    assert "samples over" in capsys.readouterr().out


def test_push_requires_workload_or_database(service, capsys):
    assert main(["push", service.address]) == 2
    assert "workload" in capsys.readouterr().err


def test_sweep_push_export_differential(service, tmp_path, capsys):
    """Acceptance criterion: the export after streaming a sweep through
    the server is byte-identical to the same specs run in-process."""
    from repro.analysis.database import ProfileDatabase
    from repro.analysis.persistence import canonical_json
    from repro.engine.session import SessionSpec, run_session
    from repro.profileme.unit import ProfileMeConfig
    from repro.workloads import stall_kernel

    addr = service.address
    assert main(["sweep", "kernel:dep_chain", "--intervals", "30,60",
                 "--jobs", "2", "--push", addr]) == 0
    capsys.readouterr()
    export_path = str(tmp_path / "served.json")
    assert main(["query", addr, "export", "--out", export_path]) == 0
    capsys.readouterr()

    merged = ProfileDatabase()
    for interval in (30, 60):
        spec = SessionSpec(program=stall_kernel("dep_chain", iterations=200),
                           profile=ProfileMeConfig(mean_interval=interval,
                                                   seed=1),
                           keep_records=False)
        merged.merge(run_session(spec).database)
    with open(export_path) as stream:
        served = stream.read()
    assert served == canonical_json(merged.to_dict())


def test_sweep_push_forwards_cache_hits(service, tmp_path, capsys):
    from repro.service.client import ProfileClient

    addr = service.address
    store = str(tmp_path / "ckpt")
    args = ["sweep", "kernel:dep_chain", "--intervals", "40", "--jobs", "1",
            "--push", addr]
    assert main(args + ["--checkpoint", store]) == 0
    assert main(args + ["--resume", store]) == 0  # all cached -> push_db
    out = capsys.readouterr().out
    assert "1 cached profile(s) merged" in out
    with ProfileClient(addr) as client:
        reply = client.query("stats")
    assert reply["stats"]["db_merges"] == 1
    # Cached forwarding doubles the samples: once live, once merged.
    assert reply["total_samples"] % 2 == 0


class TestQueryValidation:
    """Malformed `repro query` arguments exit 2 with a one-line error
    *before* any connection attempt (the address below has no server —
    reaching it would raise ServiceError, not ConfigError)."""

    DEAD = "127.0.0.1:1"

    def test_zero_limit_rejected(self, capsys):
        assert main(["query", self.DEAD, "top", "--limit", "0"]) == 2
        assert "--limit must be >= 1" in capsys.readouterr().err

    def test_negative_limit_rejected_for_epochs(self, capsys):
        assert main(["query", self.DEAD, "epochs", "--limit", "-3"]) == 2
        assert "--limit" in capsys.readouterr().err

    def test_malformed_pc_rejected(self, capsys):
        assert main(["query", self.DEAD, "latency", "--pc", "xyz"]) == 2
        assert "malformed --pc" in capsys.readouterr().err

    def test_latency_without_pc_rejected(self, capsys):
        assert main(["query", self.DEAD, "latency"]) == 2
        assert "needs --pc" in capsys.readouterr().err

    def test_empty_epoch_range_rejected(self, capsys):
        assert main(["query", self.DEAD, "epochs",
                     "--since", "100", "--until", "100"]) == 2
        assert "empty epoch range" in capsys.readouterr().err

    def test_hex_pc_is_accepted_past_validation(self, capsys):
        # A well-formed hex PC passes validation and fails only on the
        # (dead) connection — proving validation happens first.
        assert main(["query", self.DEAD, "latency", "--pc", "0x40"]) == 2
        err = capsys.readouterr().err
        assert "malformed" not in err
        assert "connect" in err or "refused" in err or "failed" in err


def test_query_epochs_against_live_service(tmp_path, capsys):
    from repro.service.server import ServerThread

    with ServerThread(port=0, shards=1, rollup_interval=100,
                      retain_buckets=8) as thread:
        assert main(["push", thread.address, "kernel:dep_chain",
                     "--interval", "20"]) == 0
        capsys.readouterr()
        assert main(["query", thread.address, "epochs"]) == 0
        out = capsys.readouterr().out
        assert "Rollup epochs" in out
        assert "interval 100" in out
        assert main(["query", thread.address, "stats"]) == 0
        out = capsys.readouterr().out
        assert "evicted_samples" in out
