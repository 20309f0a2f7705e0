"""Cycle-level out-of-order core (Alpha 21264-like).

The pipeline mirrors Figure 1 of the paper:

    fetch -> (slot/rename delay) -> map -> issue queue -> execute -> retire

Key modelled behaviours, each load-bearing for an experiment:

* in-order fetch along the *predicted* control path, with fetch blocks and
  fetch opportunities (section 4.1.1's two instruction-selection modes);
* register renaming with a bounded physical register file and issue queue
  (map stalls -> Table 1's Fetch->Map latency);
* data-flow issue with per-class functional units (Data-ready->Issue);
* speculative wrong-path fetch *and execution*, squashed on mispredict
  resolution (fetched-but-aborted ProfileMe samples);
* in-order retirement from a reorder buffer (Retire-ready->Retire), loads
  allowed to retire before their data returns (Load-issue->Completion);
* precise per-instruction timestamps and events on every DynInst — the
  signals the ProfileMe hardware latches.

The core knows nothing about profiling: observers see it via
:class:`repro.cpu.probes.Probe` callbacks dispatched through the
engine-layer :class:`~repro.engine.bus.ProbeBus` (run loop, limits, and
probe plumbing live in :class:`~repro.engine.core.CoreBase`).
"""

from bisect import bisect_left, insort
from collections import deque

from repro.branch.history import GlobalHistoryRegister
from repro.branch.predictors import BranchPredictor
from repro.cpu.config import MachineConfig
from repro.cpu.dynops import DynInst
from repro.cpu.ooo.lsq import BLOCK, CLEAR, FORWARD, LoadStoreQueue
from repro.cpu.ooo.rename import RegisterRenamer
from repro.cpu.ooo.wheel import EventWheel
from repro.cpu.probes import empty_slot, inst_slot, offpath_slot
from repro.engine.core import CoreBase
from repro.errors import SimulationError
from repro.events import AbortReason, Event
from repro.isa import semantics
from repro.isa.instruction import INSTRUCTION_BYTES
from repro.isa.opcodes import Opcode
from repro.isa.state import Memory
from repro.mem.hierarchy import MemoryHierarchy

_COMPLETE_EXEC = "exec"
_COMPLETE_LOAD = "load"

_STORE_FORWARD_LATENCY = 2

# The scheduler composes event flags millions of times per run, and
# IntFlag's operator overloads go through an enum lookup per `|`/`&`.
# DynInst.events is a plain int bit-field on the hot paths; these are
# the raw flag values.  The (rare) profile-capture points wrap the
# field back into an Event, so observers still see the enum type.
_RETIRED = int(Event.RETIRED)
_MISPREDICT = int(Event.MISPREDICT)
_BRANCH_TAKEN = int(Event.BRANCH_TAKEN)
_FU_CONFLICT = int(Event.FU_CONFLICT)
_LSQ_REPLAY = int(Event.LSQ_REPLAY)
_STORE_FORWARD = int(Event.STORE_FORWARD)
_MAP_STALL_ROB = int(Event.MAP_STALL_ROB)
_MAP_STALL_IQ = int(Event.MAP_STALL_IQ)
_MAP_STALL_REGS = int(Event.MAP_STALL_REGS)
_ABORT_EVENTS = int(Event.ABORTED | Event.BAD_PATH)


class OutOfOrderCore(CoreBase):
    """Execution-driven out-of-order processor model."""

    def __init__(self, program, config=None, hierarchy=None, predictor=None,
                 context=0, ghr=None):
        super().__init__(config or MachineConfig.alpha21264_like(),
                         context=context)
        self.program = program
        self.hierarchy = hierarchy or MemoryHierarchy(self.config.memory)
        self.predictor = predictor or BranchPredictor(self.config.predictor)
        self.ghr = ghr or GlobalHistoryRegister(bits=30)

        self.memory = Memory(program.initial_memory)
        self.renamer = RegisterRenamer(self.config.phys_regs)

        self.halted = False

        self.fetch_pc = program.entry
        # PC of the next instruction after the youngest retired one: the
        # architectural resume point a two-speed hand-off continues from.
        self.committed_pc = program.entry
        self.pending_fetch_events = 0

        self.fetch_queue = deque()
        self.rob = deque()
        # Issue queue: an array-of-structs data plane.  Each resident
        # entry owns a *slot* in the preallocated parallel arrays below
        # (fu pool, load bit, data-ready stamp, unready-source count),
        # so the issue scan indexes flat lists instead of chasing
        # DynInst attributes.  Scheduling order lives in packed int
        # keys, `(seq << _slot_bits) | slot`: sorting keys sorts by age
        # (seqs are unique), and the slot rides along in the low bits.
        # `_iq_ready` holds the keys whose operands are all available,
        # ascending; `_iq_waiting` maps a physical register to the
        # ascending keys still waiting on it, so a completion promotes
        # exactly its waiters (no every-entry-every-cycle scan) and a
        # squash is one bisect per touched list.
        capacity = self.config.iq_entries
        self._iq_capacity = capacity
        self._slot_bits = capacity.bit_length()
        self._slot_mask = (1 << self._slot_bits) - 1
        self._slot_free = list(range(capacity))
        self._slot_dyn = [None] * capacity
        self._slot_pool = [None] * capacity
        self._slot_isload = [False] * capacity
        self._slot_dr = [-1] * capacity  # data_ready stamp; -1 = unscanned
        self._slot_waits = [0] * capacity
        self._iq_ready = []
        self._iq_waiting = {}
        self.lsq = LoadStoreQueue(self.config.lsq_entries)
        self._wheel = EventWheel()  # pending (dyninst, kind) completions

        # Statistics.
        self.fetched = 0
        self.retired = 0
        self.aborted = 0
        self.mispredicts = 0

    def _register_pipeline_probes(self, registry):
        """Occupancy gauges for the out-of-order structures."""
        prefix = "cpu%d.ooo" % self.context
        registry.register(prefix + ".iq.occupancy",
                          lambda: self._iq_count,
                          kind="gauge", unit="entries",
                          description="issue-queue entries in flight")
        registry.register(prefix + ".rob.occupancy",
                          lambda: len(self.rob),
                          kind="gauge", unit="entries",
                          description="reorder-buffer entries in flight")
        registry.register(prefix + ".lsq.depth",
                          lambda: len(self.lsq),
                          kind="gauge", unit="entries",
                          description="load/store-queue entries in flight")
        registry.register(prefix + ".fetch_queue.depth",
                          lambda: len(self.fetch_queue),
                          kind="gauge", unit="entries",
                          description="fetched instructions awaiting map")

    def inject_state(self, regs, memory, pc):
        """Start execution from externally supplied architectural state.

        The two-speed hand-off: *regs* is a 32-entry snapshot list,
        *memory* is a live :class:`~repro.isa.state.Memory` the core
        adopts (NOT copied — stores only touch it at retire, so sharing
        it with the functional interpreter is safe), and *pc* is the
        first instruction to fetch.  Must be called before the first
        cycle is simulated.
        """
        if self.cycle or self.retired or self.fetched:
            raise SimulationError("inject_state into a running core")
        self.renamer.seed_architectural(regs)
        self.memory = memory
        self.fetch_pc = pc
        self.committed_pc = pc

    # ------------------------------------------------------------------
    # Engine hooks (run loop, limits, and probes live in CoreBase).

    def _deadlock_message(self, deadlock_limit):
        return ("no instruction retired for %d cycles at cycle %d "
                "(pc=%s rob=%d iq=%d)"
                % (deadlock_limit, self.cycle, self.fetch_pc,
                   len(self.rob), self._iq_count))

    @property
    def _iq_count(self):
        """Issue-queue occupancy: every resident entry holds one slot."""
        return self._iq_capacity - len(self._slot_free)

    @property
    def iq(self):
        """The issue-queue contents in age order (tests/introspection).

        The hot-path representation is the slot arrays + key lists
        above; this view reassembles the resident DynInsts (an entry
        waiting on two registers appears in two waiting lists but holds
        one slot, so iterating the slots deduplicates for free).
        """
        entries = [dyninst for dyninst in self._slot_dyn
                   if dyninst is not None]
        entries.sort(key=lambda dyninst: dyninst.seq)
        return entries

    def step_cycle(self):
        """Simulate one clock cycle."""
        cycle = self.cycle
        self._process_completions(cycle)
        if not self.halted:
            self._retire(cycle)
        if not self.halted:
            self._issue(cycle)
            self._map(cycle)
            self._fetch(cycle)
        for callback in self.bus.cycle_end:
            callback(cycle)
        self.cycle = cycle + 1

    advance = step_cycle

    # ------------------------------------------------------------------
    # Fetch.

    def _fetch(self, cycle):
        width = self.config.fetch_width
        # Fast path: fetch-slot objects exist only for observers, and a
        # fetch-countdown owner (the ProfileMe counters, see engine.bus)
        # needs them only on a cycle whose counted slots can reach its
        # countdown.  On every other cycle the fetcher subtracts the
        # counted slots from the countdown instead.  This fires every
        # cycle, so it is the single hottest dispatch point in the model.
        bus = self.bus
        subscribed = bus.fetch_slots
        every_cycle = bus.fetch_every_cycle
        publish = subscribed and (every_cycle or bus.fetch_countdown <= width)
        count_all = not bus.fetch_counts_instructions
        slots = [] if publish else None
        can_fetch = (cycle >= self.fetch_stall_until
                     and self.fetch_pc is not None
                     and len(self.fetch_queue) + width
                     <= self.config.fetch_queue_entries)
        if can_fetch:
            latency, events = self.hierarchy.ifetch(self.fetch_pc)
            if events:
                self.pending_fetch_events |= events
            if latency > 0:
                self.fetch_stall_until = cycle + latency
                can_fetch = False

        if not can_fetch:
            # A stalled cycle counts fetch opportunities, not instructions.
            if every_cycle or (publish and count_all):
                self._publish_slots(cycle, [empty_slot()] * width)
            elif subscribed and count_all:
                bus.fetch_countdown -= width
            return

        block_bytes = width * INSTRUCTION_BYTES
        block_start = self.fetch_pc & ~(block_bytes - 1)
        block_end = block_start + block_bytes

        # Opportunities before the entry point into the block hold
        # instructions that are in the fetch block but off the predicted
        # path (section 4.1.1).
        pc = block_start
        if publish:
            while pc < self.fetch_pc:
                slots.append(offpath_slot(pc)
                             if self.program.contains_pc(pc)
                             else empty_slot())
                pc += INSTRUCTION_BYTES
        else:
            pc = self.fetch_pc

        taken = False
        first_fetched = self.fetched
        fetch_or_none = self.program.fetch_or_none
        enqueue = self.fetch_queue.append
        predict = self._predict
        while pc < block_end and not taken:
            inst = fetch_or_none(pc)
            if inst is None:
                # Speculation ran off the end of the image; real hardware
                # would fetch garbage and fault.  Fetch idles until a
                # squash redirects it.
                self.fetch_pc = None
                break
            dyninst = self._make_dyninst(pc, inst, cycle)
            if publish:
                slots.append(inst_slot(dyninst))
            enqueue(dyninst)
            self.fetched += 1
            next_pc = predict(dyninst)
            pc += INSTRUCTION_BYTES
            taken = next_pc != pc
            self.fetch_pc = next_pc

        if not publish:
            if subscribed:
                bus.fetch_countdown -= (width if count_all
                                        else self.fetched - first_fetched)
            return
        if taken:
            # Slots after a predicted-taken branch hold off-path
            # instructions from the same block.
            while pc < block_end:
                slots.append(offpath_slot(pc)
                             if self.program.contains_pc(pc)
                             else empty_slot())
                pc += INSTRUCTION_BYTES
        while len(slots) < width:
            slots.append(empty_slot())
        self._publish_slots(cycle, slots)

    def _make_dyninst(self, pc, inst, cycle):
        dyninst = DynInst(seq=self.next_seq, pc=pc, inst=inst,
                          fetch_cycle=cycle, context=self.context)
        self.next_seq += 1
        dyninst.history_at_fetch = self.ghr.value
        if self.pending_fetch_events:
            dyninst.events |= self.pending_fetch_events
            self.pending_fetch_events = 0
        return dyninst

    def _predict(self, dyninst):
        """Predict control flow at fetch; return the next fetch PC."""
        inst = dyninst.inst
        pc = dyninst.pc
        fall_through = pc + INSTRUCTION_BYTES
        op = inst.op

        dyninst.ghr_before = self.ghr.snapshot()
        if inst.is_conditional:
            predicted = self.predictor.predict_conditional(pc, self.ghr.value)
            self.ghr.push(predicted)
            dyninst.predicted_taken = predicted
            dyninst.predicted_target = inst.target
            dyninst.ghr_after = self.ghr.snapshot()
            return inst.target if predicted else fall_through
        dyninst.ghr_after = dyninst.ghr_before

        if op is Opcode.BR:
            dyninst.predicted_taken = True
            dyninst.predicted_target = inst.target
            return inst.target
        if op is Opcode.JSR:
            dyninst.predicted_taken = True
            dyninst.predicted_target = inst.target
            self.predictor.ras.push(fall_through)
            return inst.target
        if op is Opcode.RET:
            target = self.predictor.ras.pop()
            if target is None:
                target = fall_through
            dyninst.predicted_taken = True
            dyninst.predicted_target = target
            return target
        if op is Opcode.JMP:
            target = self.predictor.predict_indirect(pc)
            if target is None:
                target = fall_through
            dyninst.predicted_taken = True
            dyninst.predicted_target = target
            return target
        return fall_through

    def _publish_slots(self, cycle, slots):
        for callback in self.bus.fetch_slots:
            callback(cycle, slots)

    # ------------------------------------------------------------------
    # Map (decode/rename/dispatch).

    def _map(self, cycle):
        mapped = 0
        config = self.config
        map_width = config.map_width
        frontend_delay = config.frontend_delay
        rob_entries = config.rob_entries
        fetch_queue = self.fetch_queue
        rob = self.rob
        renamer = self.renamer
        lsq = self.lsq
        while fetch_queue and mapped < map_width:
            dyninst = fetch_queue[0]
            inst = dyninst.inst
            if dyninst.fetch_cycle + frontend_delay > cycle:
                break
            if len(rob) >= rob_entries:
                dyninst.events |= _MAP_STALL_ROB
                break
            needs_iq = not inst.bypasses_iq
            if needs_iq and not self._slot_free:
                dyninst.events |= _MAP_STALL_IQ
                break
            if inst.is_memory and lsq.full:
                dyninst.events |= _MAP_STALL_IQ
                break
            if (inst.dest_reg is not None
                    and not renamer.free_list):
                dyninst.events |= _MAP_STALL_REGS
                break

            fetch_queue.popleft()
            if not renamer.rename(dyninst):
                raise SimulationError("rename failed after resource check")
            dyninst.map_cycle = cycle
            rob.append(dyninst)
            if inst.is_memory:
                lsq.insert(dyninst)
            if needs_iq:
                self._insert_iq(dyninst)
            else:
                # NOP/HALT: no operands, no functional unit; ready next cycle.
                dyninst.data_ready_cycle = cycle
                dyninst.issue_cycle = cycle
                self._wheel.schedule(cycle + 1, cycle, (dyninst,
                                                        _COMPLETE_EXEC))
            mapped += 1

    def _insert_iq(self, dyninst):
        """File *dyninst* as ready or waiting on its unready sources.

        Allocates a queue slot, fills its struct-of-arrays columns, and
        enqueues the packed key.  A source physical register is unready
        exactly while its producer is in flight; the producer's
        completion (`_wake`) moves waiters to the ready list.  Ready
        bits can only rise while the consumer sits in the queue (a
        source cannot be reallocated before all its readers retire), so
        counting unready sources once at map time is sound.  Duplicate
        unready sources enqueue the key twice on the same list and are
        decremented twice by the same wake.
        """
        inst = dyninst.inst
        slot = self._slot_free.pop()
        self._slot_dyn[slot] = dyninst
        self._slot_pool[slot] = inst.fu_pool
        self._slot_isload[slot] = inst.is_load
        self._slot_dr[slot] = -1
        dyninst.iq_slot = slot
        key = (dyninst.seq << self._slot_bits) | slot
        ready_bits = self.renamer.ready
        waits = 0
        for phys in dyninst.src_phys:
            if not ready_bits[phys]:
                waits += 1
                waiters = self._iq_waiting.get(phys)
                if waiters is None:
                    self._iq_waiting[phys] = [key]
                else:
                    # Mapped in program order: always the youngest key.
                    waiters.append(key)
        self._slot_waits[slot] = waits
        if waits == 0:
            self._iq_ready.append(key)

    def _wake(self, phys):
        """A value landed in *phys*: promote waiters that became ready."""
        waiters = self._iq_waiting.pop(phys, None)
        if not waiters:
            return
        ready = self._iq_ready
        slot_waits = self._slot_waits
        mask = self._slot_mask
        for key in waiters:
            slot = key & mask
            waits = slot_waits[slot] - 1
            slot_waits[slot] = waits
            if waits:
                continue
            # Woken keys may be older than keys already in the ready
            # list; keep it sorted to preserve age-ordered issue.
            if not ready or ready[-1] < key:
                ready.append(key)
            else:
                insort(ready, key)

    # ------------------------------------------------------------------
    # Issue / execute.

    def _issue(self, cycle, units=None, budget=None):
        """Select and start ready instructions.

        *units* and *budget* may be supplied by an SMT wrapper so several
        hardware contexts share one cycle's functional units and issue
        bandwidth; the remaining budget is returned.
        """
        if units is None:
            units = {
                "ialu": self.config.units.ialu,
                "imul": self.config.units.imul,
                "fp": self.config.units.fp,
                "mem": self.config.units.mem_ports,
            }
        if budget is None:
            budget = self.config.issue_width
        ready = self._iq_ready
        if not ready:
            return budget
        issue_subs = self.bus.issue
        slot_dyn = self._slot_dyn
        slot_pool = self._slot_pool
        slot_dr = self._slot_dr
        slot_isload = self._slot_isload
        slot_free = self._slot_free
        mask = self._slot_mask
        kept = []
        index = 0
        total = len(ready)
        while index < total:
            if budget == 0:
                # Unreached keys keep their position *and* stay
                # unstamped: the data-ready stamp records when the
                # issue scan first considered them, matching the old
                # full-scan's early break.
                kept.extend(ready[index:])
                break
            key = ready[index]
            index += 1
            slot = key & mask
            dyninst = slot_dyn[slot]
            if slot_dr[slot] < 0:
                slot_dr[slot] = cycle
            pool = slot_pool[slot]
            if units[pool] == 0:
                dyninst.events |= _FU_CONFLICT
                kept.append(key)
                continue
            if slot_isload[slot]:
                if not self._try_issue_load(dyninst, cycle):
                    kept.append(key)
                    continue
            else:
                self._execute(dyninst, cycle)
            units[pool] -= 1
            budget -= 1
            dyninst.issue_cycle = cycle
            # Leaving the queue: write the slot's stamp back onto the
            # DynInst (the only state observers read later) and recycle
            # the slot.
            dyninst.data_ready_cycle = slot_dr[slot]
            dyninst.iq_slot = -1
            slot_dyn[slot] = None
            slot_free.append(slot)
            for callback in issue_subs:
                callback(dyninst, cycle)
        self._iq_ready = kept
        return budget

    def _operand_values(self, dyninst):
        inst = dyninst.inst
        src_phys = dyninst.src_phys
        values = self.renamer.values
        slot = inst.src1_slot
        a = values[src_phys[slot]] if slot is not None else 0
        slot = inst.src2_slot
        b = values[src_phys[slot]] if slot is not None else 0
        return a, b

    def _try_issue_load(self, dyninst, cycle):
        """Resolve memory dependences; start the access if possible."""
        a, _ = self._operand_values(dyninst)
        dyninst.eff_addr = semantics.effective_address(dyninst.inst, a)
        status, store = self.lsq.load_status(dyninst)
        if status == BLOCK:
            dyninst.events |= _LSQ_REPLAY
            dyninst.eff_addr = None  # recompute on the next attempt
            return False
        if status == FORWARD:
            dyninst.events |= _STORE_FORWARD
            dyninst.result = store.result
            latency = _STORE_FORWARD_LATENCY
        else:
            assert status == CLEAR
            latency, events = self.hierarchy.dread(dyninst.eff_addr)
            if events:
                dyninst.events |= events
            dyninst.result = self.memory.read(dyninst.eff_addr)
        # Alpha-style: a load is ready to retire once its access is under
        # way; the value arrives (and wakes dependents) later.
        wheel = self._wheel
        wheel.schedule(cycle + 1, cycle, (dyninst, _COMPLETE_EXEC))
        wheel.schedule(cycle + latency, cycle, (dyninst, _COMPLETE_LOAD))
        return True

    def _execute(self, dyninst, cycle):
        """Compute results/outcomes for non-load instructions at issue."""
        inst = dyninst.inst
        op = inst.op
        a, b = self._operand_values(dyninst)
        latency = 1

        if inst.is_store:
            dyninst.eff_addr = semantics.effective_address(inst, a)
            dyninst.result = b
            self.lsq.resolve_store(dyninst)
            lat, events = self.hierarchy.dwrite(dyninst.eff_addr)
            if events:
                dyninst.events |= events
            latency = 1  # tag check; the write buffer hides the rest
        elif inst.is_prefetch:
            # Fire-and-forget cache warm: starts the fill, completes
            # immediately, never blocks (it has no consumers).
            dyninst.eff_addr = semantics.effective_address(inst, a)
            lat, events = self.hierarchy.dread(dyninst.eff_addr)
            if events:
                dyninst.events |= events
            latency = 1
        elif inst.is_control_flow:
            taken, target = semantics.control_outcome(inst, dyninst.pc, a)
            dyninst.actual_taken = taken
            dyninst.actual_target = target
            if taken:
                dyninst.events |= _BRANCH_TAKEN
            if op is Opcode.JSR:
                dyninst.result = dyninst.pc + INSTRUCTION_BYTES
            latency = 1
        else:
            dyninst.result = semantics.alu_result(op, a, b, inst.imm)
            latency = inst.exec_latency
        self._wheel.schedule(cycle + latency, cycle,
                             (dyninst, _COMPLETE_EXEC))

    def _process_completions(self, cycle):
        items = self._wheel.pop_due(cycle)
        if not items:
            return
        renamer = self.renamer
        for dyninst, kind in items:
            if dyninst.squashed:
                continue
            if kind == _COMPLETE_LOAD:
                dyninst.load_complete_cycle = cycle
                if renamer.complete(dyninst, dyninst.result, cycle):
                    self._wake(dyninst.dest_phys)
                continue
            dyninst.exec_complete_cycle = cycle
            if not dyninst.inst.is_load and dyninst.dest_phys is not None:
                if renamer.complete(dyninst, dyninst.result, cycle):
                    self._wake(dyninst.dest_phys)
            if dyninst.inst.is_control_flow:
                self._resolve_control(dyninst, cycle)

    # ------------------------------------------------------------------
    # Control-flow resolution and squash.

    def _resolve_control(self, dyninst, cycle):
        inst = dyninst.inst
        mispredicted = False
        if inst.is_conditional:
            mispredicted = dyninst.actual_taken != dyninst.predicted_taken
        elif inst.op in (Opcode.JMP, Opcode.RET):
            mispredicted = dyninst.actual_target != dyninst.predicted_target
        if not mispredicted:
            return
        dyninst.events |= _MISPREDICT
        self.mispredicts += 1
        # Repair the global history: drop the speculative bits pushed by
        # this branch and everything younger, then push the truth.
        self.ghr.restore(dyninst.ghr_before)
        if inst.is_conditional:
            self.ghr.push(dyninst.actual_taken)
        self._squash_younger(dyninst.seq, cycle)
        self.fetch_pc = dyninst.actual_target
        if not dyninst.actual_taken:
            self.fetch_pc = dyninst.pc + INSTRUCTION_BYTES
        self.fetch_stall_until = max(self.fetch_stall_until,
                                     cycle + self.config.mispredict_penalty)
        self.pending_fetch_events = 0

    def _squash_younger(self, seq, cycle):
        """Remove every instruction younger than *seq* from the machine."""
        while self.fetch_queue:
            victim = self.fetch_queue.pop()
            if victim.seq <= seq:
                self.fetch_queue.append(victim)
                break
            self._abort(victim, cycle, AbortReason.MISPREDICT_SQUASH)
        while self.rob:
            victim = self.rob[-1]
            if victim.seq <= seq:
                break
            self.rob.pop()
            victim.squashed = True
            self.renamer.rollback(victim)
            self._abort(victim, cycle, AbortReason.MISPREDICT_SQUASH)
        self._squash_iq(seq)
        self.lsq.squash_younger(seq)

    def _squash_iq(self, seq):
        """Drop issue-queue keys younger than *seq* from every list.

        Keys sort by seq, so each list is cut with one bisect.  The
        victims' slots were already recycled by :meth:`_abort` (every
        issue-queue resident is in the ROB, and the squash walk aborts
        ROB victims before calling here); this only removes their keys.
        """
        if not self._iq_ready and not self._iq_waiting:
            return
        cut = (seq + 1) << self._slot_bits
        ready = self._iq_ready
        index = bisect_left(ready, cut)
        if index < len(ready):
            del ready[index:]
        waiting = self._iq_waiting
        if waiting:
            for phys in list(waiting):
                waiters = waiting[phys]
                index = bisect_left(waiters, cut)
                if index == 0:
                    del waiting[phys]
                elif index < len(waiters):
                    del waiters[index:]

    def _abort(self, dyninst, cycle, reason):
        slot = dyninst.iq_slot
        if slot >= 0:
            # Still in the issue queue: persist the scan stamp (abort
            # captures read data_ready_cycle) and recycle the slot.
            # The stale keys are cut by _squash_iq / _drain right after
            # the abort walk, before any new entry can claim the slot.
            dr = self._slot_dr[slot]
            if dr >= 0:
                dyninst.data_ready_cycle = dr
            dyninst.iq_slot = -1
            self._slot_dyn[slot] = None
            self._slot_free.append(slot)
        dyninst.squashed = True
        dyninst.events |= _ABORT_EVENTS
        dyninst.abort_reason = reason
        self.aborted += 1
        bus = self.bus
        for callback in bus.abort:
            callback(dyninst, cycle)
        if dyninst.profile_tag is not None:
            for callback in bus.tagged_abort:
                callback(dyninst, cycle)

    # ------------------------------------------------------------------
    # Retire.

    def _retire(self, cycle):
        count = 0
        retire_subs = self.bus.retire
        while self.rob and count < self.config.retire_width:
            head = self.rob[0]
            if (head.exec_complete_cycle is None
                    or head.exec_complete_cycle > cycle):
                break
            self.rob.popleft()
            head.retire_cycle = cycle
            head.events |= _RETIRED
            self.renamer.commit(head)
            self.retired += 1
            self._last_retire_cycle = cycle

            inst = head.inst
            # actual_target is the architecturally correct successor for
            # every control transfer (fall-through included), so this is
            # always the next PC the retired stream will execute.
            self.committed_pc = (head.actual_target if inst.is_control_flow
                                 else head.pc + INSTRUCTION_BYTES)
            if inst.is_store:
                self.memory.write(head.eff_addr, head.result)
                self.lsq.remove(head)
            elif inst.is_load:
                self.lsq.remove(head)
            elif inst.is_conditional:
                self.predictor.train_conditional(
                    head.pc, head.history_at_fetch, head.actual_taken,
                    not head.events & _MISPREDICT)
            elif inst.is_indirect:
                self.predictor.train_indirect(head.pc, head.actual_target)

            for callback in retire_subs:
                callback(head, cycle)
            if head.profile_tag is not None:
                for callback in self.bus.tagged_retire:
                    callback(head, cycle)
            count += 1
            if inst.op is Opcode.HALT:
                self.halted = True
                break

    # ------------------------------------------------------------------
    # End of simulation.

    def _drain(self):
        """Abort everything still in flight when the simulation stops.

        After draining, the renamer's map table describes the committed
        architectural state, enabling validation against the reference
        interpreter.
        """
        cycle = self.cycle
        # Deliver outstanding load data for already-retired loads so the
        # committed register state matches the reference interpreter even
        # when HALT retires while a load's fill is still in flight.
        for due, (dyninst, kind) in self._wheel.drain_ordered():
            if (kind == _COMPLETE_LOAD and not dyninst.squashed
                    and dyninst.retired):
                dyninst.load_complete_cycle = due
                self.renamer.complete(dyninst, dyninst.result, due)
        # Repair the global history before discarding in-flight state:
        # the oldest unretired conditional's fetch-time snapshot holds
        # the true outcomes of every retired conditional (any older
        # misprediction would have squashed it).  After this, the GHR
        # matches what a retire-order engine would have built — the
        # two-speed warm-state contract across hand-offs.
        for dyninst in list(self.rob) + list(self.fetch_queue):
            if dyninst.inst.is_conditional and not dyninst.squashed:
                if dyninst.ghr_before is not None:
                    self.ghr.restore(dyninst.ghr_before)
                break
        while self.fetch_queue:
            self._abort(self.fetch_queue.pop(), cycle, AbortReason.DRAINED)
        while self.rob:
            victim = self.rob.pop()
            victim.squashed = True
            self.renamer.rollback(victim)
            self._abort(victim, cycle, AbortReason.DRAINED)
        # The abort walk recycled every resident's slot; discard the
        # now-stale keys.
        self._iq_ready = []
        self._iq_waiting.clear()
        self.lsq.clear()
        self._wheel.clear()

    def architectural_registers(self):
        """Committed register values; only meaningful after run() returns."""
        return self.renamer.architectural_values()
