"""Table 1: the latency registers and the stalls they diagnose.

For each Table 1 row, a kernel engineered to provoke that stall is run
with ProfileMe; the benchmark prints the mean of every latency register
and asserts that the *targeted* register is the one that stands out
relative to a quiet baseline kernel.  This validates both the latency
register semantics and Table 1's diagnostic mapping.
"""

from benchmarks.conftest import run_once
from repro.analysis.reports import format_table
from repro.engine.session import SessionSpec, run_session
from repro.profileme.registers import LATENCY_FIELDS
from repro.profileme.unit import ProfileMeConfig
from repro.workloads.microbench import kernel_names, stall_kernel

# Table 1 mapping: kernel -> the latency register it must inflate.
TARGETS = {
    "map_stall": "fetch_to_map",
    "dep_chain": "map_to_data_ready",
    "fu_contention": "data_ready_to_issue",
    "dcache_miss": "load_issue_to_completion",
    "retire_block": "retire_ready_to_retire",
}


def _mean_latencies(database):
    """Sample-weighted mean of each latency register over all PCs."""
    sums = {name: 0 for name in LATENCY_FIELDS}
    counts = {name: 0 for name in LATENCY_FIELDS}
    for profile in database.per_pc.values():
        for name in LATENCY_FIELDS:
            aggregate = profile.latency(name)
            sums[name] += aggregate.total
            counts[name] += aggregate.count
    return {name: (sums[name] / counts[name] if counts[name] else 0.0)
            for name in LATENCY_FIELDS}


def _baseline_program():
    """A quiet loop: independent single-cycle ops, no memory traffic."""
    from repro.isa.builder import ProgramBuilder

    b = ProgramBuilder(name="baseline")
    b.begin_function("main")
    b.ldi(1, 150)
    b.label("loop")
    for reg in range(4, 10):
        b.lda(reg, reg, 1)
    b.lda(1, 1, -1)
    b.bne(1, "loop")
    b.halt()
    b.end_function()
    return b.build(entry="main")


def _experiment():
    from repro.cpu.config import MachineConfig

    results = {}
    for name in list(kernel_names()) + ["baseline"]:
        config = None
        if name == "baseline":
            program = _baseline_program()
        else:
            program = stall_kernel(name, iterations=150)
        if name == "map_stall":
            # A wide window with few rename registers isolates the
            # "lack of physical registers" stall Table 1 describes.
            config = MachineConfig.alpha21264_like(rob_entries=128,
                                                   phys_regs=56)
        run = run_session(SessionSpec(
            program=program, config=config,
            profile=ProfileMeConfig(mean_interval=15, seed=4)))
        results[name] = _mean_latencies(run.database)
    return results


def test_table1_latency_registers(benchmark):
    results = run_once(benchmark, _experiment)

    rows = []
    for kernel, means in sorted(results.items()):
        rows.append([kernel] + ["%.1f" % means[name]
                                for name in LATENCY_FIELDS])
    print("\n=== Table 1: mean latency registers per stall kernel "
          "(cycles) ===")
    print(format_table(["kernel"] + list(LATENCY_FIELDS), rows))

    baseline = results["baseline"]
    for kernel, target in TARGETS.items():
        value = results[kernel][target]
        quiet = max(baseline[target], 1.0)
        # The targeted register must be clearly elevated over the quiet
        # machine (several kernels legitimately inflate more than one
        # register — e.g. a full ROB also stretches Fetch->Map — so the
        # comparison is against the baseline, not across kernels).
        assert value > 2.0 * quiet, (
            "%s: %s = %.2f not above baseline %.2f"
            % (kernel, target, value, quiet))
