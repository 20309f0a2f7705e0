"""Profile registers: what the ProfileMe hardware records (section 4.1.3).

A :class:`ProfileRecord` is the software-visible image of one sampled
instruction's Profile Registers:

* *Profiled Context Register* — ``context``;
* *Profiled PC Register* — ``pc``;
* *Profiled Address Register* — ``addr`` (effective address of loads and
  stores, target address of indirect jumps);
* *Profiled Event Register* — ``events`` + ``retired`` + ``abort_reason``;
* *Profiled Path Register* — ``history`` (low *path_bits* of the global
  branch-history register captured at fetch);
* *Latency Registers* — the six Table 1 latencies.

``fetch_cycle`` and ``done_cycle`` are absolute processor-cycle-counter
readings; real hardware exposes a cycle counter (Alpha PCC) and the
interrupt handler can timestamp samples, so including them does not grant
the software anything unimplementable.

The capture function reads **only architecturally observable fields** of a
DynInst — never simulator bookkeeping like physical register numbers.
"""

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.events import AbortReason, Event
from repro.isa.opcodes import Opcode

# The Table 1 latency register names, in pipeline order.
LATENCY_FIELDS = (
    "fetch_to_map",
    "map_to_data_ready",
    "data_ready_to_issue",
    "issue_to_retire_ready",
    "retire_ready_to_retire",
    "load_issue_to_completion",
)


@dataclass(frozen=True)
class ProfileRecord:
    """Software-visible image of one instruction's Profile Registers."""

    context: int
    pc: int
    op: Optional[Opcode]  # None for off-path selections (never decoded)
    addr: Optional[int]
    events: Event
    abort_reason: AbortReason
    history: int

    fetch_to_map: Optional[int]
    map_to_data_ready: Optional[int]
    data_ready_to_issue: Optional[int]
    issue_to_retire_ready: Optional[int]
    retire_ready_to_retire: Optional[int]
    load_issue_to_completion: Optional[int]

    fetch_cycle: int
    done_cycle: int  # retire or abort cycle

    @property
    def retired(self):
        return bool(self.events & Event.RETIRED)

    @property
    def fetch_to_issue(self):
        """Cycles from fetch to issue (None if the instruction never issued)."""
        total = 0
        for field_name in ("fetch_to_map", "map_to_data_ready",
                           "data_ready_to_issue"):
            value = getattr(self, field_name)
            if value is None:
                return None
            total += value
        return total

    @property
    def fetch_to_retire_ready(self):
        """The "in progress" latency used by the wasted-issue-slot metric."""
        issue = self.fetch_to_issue
        if issue is None or self.issue_to_retire_ready is None:
            return None
        return issue + self.issue_to_retire_ready

    def has_event(self, event):
        return bool(self.events & event)


def capture_record(dyninst, path_bits, done_cycle, context=None):
    """Latch a DynInst's observable state into a ProfileRecord.

    *context* is the Profiled Context Register value (the hardware's
    current address-space id); defaults to the DynInst's own context.
    """
    inst = dyninst.inst
    addr = None
    if inst.is_memory or inst.is_prefetch:
        addr = dyninst.eff_addr
    elif inst.op in (Opcode.JMP, Opcode.RET):
        addr = dyninst.actual_target
    history_mask = (1 << path_bits) - 1
    return ProfileRecord(
        context=dyninst.context if context is None else context,
        pc=dyninst.pc,
        op=inst.op,
        addr=addr,
        # The cores keep DynInst.events as a raw int bit-field (hot-path
        # composition); the latched record restores the enum type.
        events=Event(dyninst.events),
        abort_reason=dyninst.abort_reason,
        history=dyninst.history_at_fetch & history_mask,
        fetch_to_map=dyninst.fetch_to_map,
        map_to_data_ready=dyninst.map_to_data_ready,
        data_ready_to_issue=dyninst.data_ready_to_issue,
        issue_to_retire_ready=dyninst.issue_to_retire_ready,
        retire_ready_to_retire=dyninst.retire_ready_to_retire,
        load_issue_to_completion=dyninst.load_issue_to_completion,
        fetch_cycle=dyninst.fetch_cycle,
        done_cycle=done_cycle,
    )


def register_record_probes(registry, read_record, prefix="profileme.registers"):
    """Register one gauge per Profile Register field.

    *read_record* returns the currently-latched :class:`ProfileRecord`
    (or None before the first sample); each probe reads one field out of
    it, mirroring how software reads the hardware's register file after
    an interrupt.  All reads are None-safe and JSON-safe: enums flatten
    to their integer value, missing records read as None.
    """

    def field_reader(field_name, convert=None):
        def read():
            record = read_record()
            if record is None:
                return None
            value = getattr(record, field_name)
            if value is None or convert is None:
                return value
            return convert(value)
        return read

    scalar_fields = (
        ("context", None, "Profiled Context Register"),
        ("pc", None, "Profiled PC Register"),
        ("addr", None, "Profiled Address Register"),
        ("history", None, "Profiled Path Register"),
        ("fetch_cycle", None, "cycle the sampled instruction was fetched"),
        ("done_cycle", None, "cycle the sample retired or aborted"),
        ("events", int, "Profiled Event Register bit-field"),
        ("abort_reason", lambda reason: reason.value,
         "abort reason name ('none' when retired)"),
    )
    for field_name, convert, description in scalar_fields:
        registry.register("%s.%s" % (prefix, field_name),
                          field_reader(field_name, convert),
                          kind="gauge", unit="",
                          description=description)
    for field_name in LATENCY_FIELDS:
        registry.register("%s.%s" % (prefix, field_name),
                          field_reader(field_name),
                          kind="gauge", unit="cycles",
                          description="Table 1 latency register: "
                          + field_name.replace("_", " "))
    registry.register(prefix + ".retired",
                      field_reader("retired", int),
                      kind="gauge", unit="bool",
                      description="1 when the latched sample retired")


@dataclass(frozen=True)
class GroupRecord:
    """One N-way sample (section 4.1.2's "in general, N-way sampling").

    The hardware generalization of paired sampling: N instructions are
    selected at successive random minor intervals, each latched into its
    own Profile Register set; the interrupt fires when all have left the
    machine.  A ⌈log(N+1)⌉-bit ProfileMe tag distinguishes the members.

    Attributes:
        records: per-ordinal records; None where a selection landed on an
            empty fetch opportunity (or the run ended first).
        fetch_offsets: each member's fetch-time offset in cycles from the
            first member (None for missing members).
        distances: the minor intervals the software programmed between
            consecutive members.
    """

    records: tuple
    fetch_offsets: tuple
    distances: tuple

    @property
    def first(self):
        return self.records[0] if self.records else None

    @property
    def complete(self):
        return all(record is not None for record in self.records)

    def member_pairs(self):
        """Decompose into ordered (earlier, later, cycle_offset) pairs.

        An N-way group yields N(N-1)/2 concurrent pairs per interrupt,
        each analyzable exactly like a paired sample — the statistical
        payoff of N-way sampling.
        """
        pairs = []
        for i in range(len(self.records)):
            for j in range(i + 1, len(self.records)):
                if self.records[i] is None or self.records[j] is None:
                    continue
                if (self.fetch_offsets[i] is None
                        or self.fetch_offsets[j] is None):
                    continue
                pairs.append((self.records[i], self.records[j],
                              self.fetch_offsets[j] - self.fetch_offsets[i]))
        return pairs


@dataclass(frozen=True)
class PairedRecord:
    """One paired sample (section 4.2).

    Attributes:
        first: record of the first sampled instruction.
        second: record of the second, or None if the simulation ended
            before one was selected (delivered so software sees the tail).
        intra_pair_cycles: fetch-time separation in cycles — the latency
            register the paired-sampling hardware adds so the two sets of
            latency registers can be correlated (section 4.2).
        intra_pair_distance: the minor interval in fetched instructions
            (known to software because it wrote the interval register).
    """

    first: ProfileRecord
    second: Optional[ProfileRecord]
    intra_pair_cycles: Optional[int]
    intra_pair_distance: Optional[int]

    @property
    def complete(self):
        return self.second is not None


# ----------------------------------------------------------------------
# Sample shape: a delivered sample is a ProfileRecord (single sampling),
# a PairedRecord or an N-way GroupRecord.  Software reads it only
# through these three helpers.


def sample_records(sample):
    """The ProfileRecords a delivered sample holds, in member order."""
    if isinstance(sample, PairedRecord):
        if sample.second is None:
            return (sample.first,)
        return (sample.first, sample.second)
    if isinstance(sample, GroupRecord):
        return tuple(record for record in sample.records
                     if record is not None)
    return (sample,)


def sample_pairs(sample):
    """The sample as PairedRecords: one for a pair, N(N-1)/2 for a group.

    A pair comes back as delivered, even without its second member; a
    group yields one complete pair per two present members (with the
    measured fetch offset as ``intra_pair_cycles``); a single record
    carries no pair information and yields none.
    """
    if isinstance(sample, PairedRecord):
        return (sample,)
    if isinstance(sample, GroupRecord):
        return tuple(PairedRecord(first=earlier, second=later,
                                  intra_pair_cycles=offset,
                                  intra_pair_distance=None)
                     for earlier, later, offset in sample.member_pairs())
    return ()


def shift_sample(sample, cycles):
    """The sample with every member's timestamps moved by *cycles*."""
    if cycles == 0:
        return sample
    if isinstance(sample, PairedRecord):
        return dataclasses.replace(
            sample,
            first=shift_sample(sample.first, cycles),
            second=(shift_sample(sample.second, cycles)
                    if sample.second is not None else None))
    if isinstance(sample, GroupRecord):
        return dataclasses.replace(
            sample,
            records=tuple(shift_sample(record, cycles)
                          if record is not None else None
                          for record in sample.records))
    return dataclasses.replace(sample,
                               fetch_cycle=sample.fetch_cycle + cycles,
                               done_cycle=sample.done_cycle + cycles)
