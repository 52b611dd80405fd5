//! The cycle-level out-of-order core model.
//!
//! The simulator is trace-driven and instruction-granular: each cycle it
//! retires completed work from the reorder buffer, dispatches ready
//! instructions to execution ports, allocates µops from the instruction
//! decode queue (IDQ) into the back-end, and fetches/decodes new
//! instructions into the IDQ. Every stage updates the [`CounterFile`] with
//! the hardware events a real PMU would observe, which is the entire point:
//! SPIRE and TMA consume nothing but those counters.
//!
//! Wrong-path work after a branch misprediction is not simulated
//! instruction-by-instruction; its cost appears as the front-end redirect
//! stall, the allocator recovery window, and issue-slot waste charged to
//! `uops_issued.any` — the same signature TMA's bad-speculation formula
//! keys on.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::config::CoreConfig;
use crate::events::{CounterFile, Event};
use crate::instr::{DecodeSource, Instr, InstrClass, MemLevel, VecWidth};

/// "None" for the sequence-number links and cycle fields below.
const NONE: u64 = u64::MAX;

/// One completion-ring slot: the instruction that last took it, when its
/// result is ready, and the head of the list of waiting instructions
/// whose operand it produces (linked through their own slots).
#[derive(Debug, Clone, Copy)]
struct RingSlot {
    seq: u64,
    /// Completion cycle; [`NONE`] until dispatched.
    complete: u64,
    first_dependent: u64,
    next_dependent: u64,
}

impl RingSlot {
    const EMPTY: RingSlot = RingSlot {
        seq: NONE,
        complete: NONE,
        first_dependent: NONE,
        next_dependent: NONE,
    };
}

/// An instruction sitting in the IDQ, tagged with the front-end bubble
/// length that preceded its delivery (for the `frontend_retired.*` events).
#[derive(Debug, Clone, Copy)]
struct QueuedInstr {
    instr: Instr,
    fe_bubble: u64,
    dsb_miss: bool,
}

/// Execution state of a ROB entry.
#[derive(Debug, Clone, Copy, PartialEq)]
enum RobState {
    /// Allocated, waiting in the scheduler.
    Waiting,
    /// Dispatched; the result is ready at the contained cycle.
    Executing(u64),
}

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    seq: u64,
    instr: Instr,
    state: RobState,
    fe_bubble: u64,
    dsb_miss: bool,
}

/// Summary statistics of a [`Core::run`] call.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RunSummary {
    /// Cycles simulated by this call.
    pub cycles: u64,
    /// Instructions retired during this call.
    pub instructions: u64,
}

impl RunSummary {
    /// Retired instructions per cycle over the run.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

/// A simulated out-of-order core with a performance-monitoring unit.
///
/// ```
/// use spire_sim::{Core, CoreConfig, Event, Instr};
///
/// let mut core = Core::new(CoreConfig::skylake_server());
/// let mut stream = std::iter::repeat(Instr::simple_alu()).take(10_000);
/// let summary = core.run(&mut stream, 100_000);
/// assert_eq!(summary.instructions, 10_000);
/// // Independent single-µop ALU ops retire at the pipeline width.
/// assert!(summary.ipc() > 3.0);
/// assert_eq!(core.counters().get(Event::InstRetiredAny), 10_000);
/// ```
#[derive(Debug, Clone)]
pub struct Core {
    cfg: CoreConfig,
    cycle: u64,
    counters: CounterFile,

    // Front-end state.
    idq: VecDeque<QueuedInstr>,
    idq_uops: u64,
    fetch_stall_until: u64,
    fetch_bubble_len: u64,
    last_source: Option<DecodeSource>,
    pending_fetch: Option<Instr>,
    stream_exhausted: bool,

    // Bad-speculation state.
    recovery_start: u64,
    recovery_until: u64,
    redirect_until: u64,

    // Back-end state.
    rob: VecDeque<RobEntry>,
    // The scheduler: every `Waiting` ROB entry is in exactly one of
    // `ready`, `timers`, or its producer's dependent list in the
    // completion ring.
    /// Entries whose operand is available, in sequence order: dispatch
    /// walks this instead of the whole ROB.
    ready: Vec<u64>,
    /// `(cycle its operand is available, seq)` of entries whose producer
    /// has dispatched; due entries move to `ready` at the next dispatch.
    timers: BinaryHeap<Reverse<(u64, u64)>>,
    /// The current cycle's dispatch decisions (ROB index, port, completion
    /// cycle), kept across cycles to reuse the allocation.
    decisions: Vec<(usize, usize, u64)>,
    rob_uops: u64,
    rs_uops: u64,
    completion_ring: Vec<RingSlot>,
    divider_busy_until: u64,
    lock_busy_until: u64,
    inflight_loads: Vec<u64>,
    outstanding_misses: Vec<u64>,
    dram_inflight: Vec<u64>,
    /// Drain-completion cycles of stores occupying the store buffer.
    store_buffer: Vec<u64>,
    /// Earliest entry of the four in-flight trackers above (`u64::MAX`
    /// when all are empty): nothing expires before it.
    next_expiry: u64,
    last_vec_width: Option<VecWidth>,
    /// µops of the IDQ-front instruction already allocated in previous
    /// cycles (instructions wider than the issue width allocate over
    /// multiple cycles).
    alloc_partial: u64,
    /// µops of the ROB-head instruction already retired in previous
    /// cycles (instructions wider than the retire width retire over
    /// multiple cycles).
    retire_partial: u64,
    next_seq: u64,
    retired_instrs: u64,
    /// The last cycle dispatched nothing and allocated no instruction, so
    /// the scheduler saw the state it still holds (the skip-ahead
    /// precondition).
    quiet: bool,
}

/// What the allocator did with a cycle's issue slots.
#[derive(Debug, Clone, Copy)]
enum IssueSlots {
    /// Busy restoring state after a misprediction.
    Recovery,
    /// Stopped by a full ROB or scheduler after issuing the given µops.
    Blocked(u64),
    /// Issued the given µops; the rest went unfilled by the front-end.
    Issued(u64),
}

impl Core {
    /// Creates a core with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`CoreConfig::validate`]; construct and
    /// validate configurations before handing them to the core.
    pub fn new(cfg: CoreConfig) -> Self {
        cfg.validate().expect("core configuration must be valid");
        // The completion ring is a power of two no smaller than the ROB, so
        // every instruction in flight holds its own slot; a producer whose
        // slot was taken since has retired, and its result is ready.
        let ring_len = (cfg.backend.rob_size as usize).next_power_of_two();
        Core {
            cfg,
            cycle: 0,
            counters: CounterFile::new(),
            idq: VecDeque::new(),
            idq_uops: 0,
            fetch_stall_until: 0,
            fetch_bubble_len: 0,
            last_source: None,
            pending_fetch: None,
            stream_exhausted: false,
            recovery_start: 0,
            recovery_until: 0,
            redirect_until: 0,
            rob: VecDeque::new(),
            ready: Vec::new(),
            timers: BinaryHeap::new(),
            decisions: Vec::new(),
            rob_uops: 0,
            rs_uops: 0,
            completion_ring: vec![RingSlot::EMPTY; ring_len],
            divider_busy_until: 0,
            lock_busy_until: 0,
            inflight_loads: Vec::new(),
            outstanding_misses: Vec::new(),
            dram_inflight: Vec::new(),
            store_buffer: Vec::new(),
            next_expiry: u64::MAX,
            last_vec_width: None,
            alloc_partial: 0,
            retire_partial: 0,
            next_seq: 0,
            retired_instrs: 0,
            quiet: false,
        }
    }

    /// The core's configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Total retired instructions.
    pub fn retired_instructions(&self) -> u64 {
        self.retired_instrs
    }

    /// The raw hardware counters.
    pub fn counters(&self) -> &CounterFile {
        &self.counters
    }

    /// Returns `true` if all in-flight work has drained and the last
    /// supplied stream was exhausted.
    pub fn is_drained(&self) -> bool {
        self.stream_exhausted && !self.machine_busy()
    }

    /// Whether any instruction is in flight anywhere in the pipeline.
    ///
    /// "Busy" must be a pure function of pipeline state (not of the
    /// stream-exhausted flag, which resets per `run` call) so that slicing
    /// a run into pieces cannot change any counter.
    fn machine_busy(&self) -> bool {
        !self.rob.is_empty() || !self.idq.is_empty() || self.pending_fetch.is_some()
    }

    /// Runs the core on `stream` for at most `max_cycles` cycles, stopping
    /// early once the stream is exhausted and the pipeline has drained.
    ///
    /// The core keeps its state between calls, so a long workload can be
    /// simulated in slices (which is how the sampling layer measures
    /// intervals).
    pub fn run<I>(&mut self, stream: &mut I, max_cycles: u64) -> RunSummary
    where
        I: Iterator<Item = Instr>,
    {
        let start_cycle = self.cycle;
        let start_instr = self.retired_instrs;
        // Probe the stream instead of clearing the exhaustion flag: a
        // drained core resumes with fresh input without burning cycles,
        // and — crucially — drain detection does not depend on how a run
        // was sliced into `run` calls.
        if self.stream_exhausted && self.pending_fetch.is_none() {
            if let Some(instr) = stream.next() {
                self.pending_fetch = Some(instr);
                self.stream_exhausted = false;
            }
        }
        let end = start_cycle.saturating_add(max_cycles);
        while self.cycle < end && !self.is_drained() {
            if self.quiet {
                self.skip_idle(end);
                if self.cycle == end {
                    break;
                }
            }
            self.step(stream);
        }
        RunSummary {
            cycles: self.cycle - start_cycle,
            instructions: self.retired_instrs - start_instr,
        }
    }

    /// Advances the core by one cycle, pulling from `stream` as needed.
    pub fn step<I>(&mut self, stream: &mut I)
    where
        I: Iterator<Item = Instr>,
    {
        let now = self.cycle;
        self.expire_inflight(now);
        let machine_busy = self.machine_busy();
        let next_seq = self.next_seq;

        let retired_uops = self.retire(now);
        let (executed_uops, ports_used) = self.dispatch(now);
        let issued_uops = self.allocate(now);
        self.fetch(stream, now);

        self.count_cycle_activity(
            now,
            machine_busy,
            retired_uops,
            executed_uops,
            ports_used,
            issued_uops,
            1,
        );

        self.counters.incr(Event::CpuClkUnhaltedThread);
        self.cycle += 1;
        self.quiet = self.decisions.is_empty() && self.next_seq == next_seq;
    }

    /// Advances the clock over the cycles from now on that are provably
    /// idle — nothing retires, dispatches, allocates or is delivered, and
    /// no state changes beyond the per-cycle counters — stopping at the
    /// next event or at `end`, whichever comes first. The skipped cycles'
    /// counters are bulk-added, so the result is identical to stepping.
    ///
    /// Requires `self.quiet`: the last cycle dispatched nothing, so the
    /// scheduler can only wake on one of the events below.
    fn skip_idle(&mut self, end: u64) {
        let now = self.cycle;
        let Some(slots) = self.idle_issue(now) else {
            return;
        };
        if !self.fetch_idle(now) {
            return;
        }
        // Every cycle at which some stage's behavior may change: the ROB
        // head completes (retire), a waiting instruction's producer
        // completes (dependency), a tracker entry expires (MSHR, DRAM
        // queue and store-buffer occupancy), the divider or lock frees,
        // the recovery window opens or closes, or fetch unstalls.
        let mut until = end.min(self.next_expiry);
        let mut event = |at: u64| {
            if at >= now {
                until = until.min(at);
            }
        };
        match self.rob.front().map(|head| head.state) {
            Some(RobState::Executing(done_at)) if done_at <= now => return,
            Some(RobState::Executing(done_at)) => event(done_at),
            _ => {}
        }
        event(self.divider_busy_until);
        event(self.lock_busy_until);
        event(self.recovery_start);
        event(self.recovery_until);
        event(self.fetch_stall_until.max(self.redirect_until));
        if let Some(&Reverse((ready_at, _))) = self.timers.peek() {
            event(ready_at);
        }
        if until <= now {
            return;
        }

        let n = until - now;
        let machine_busy = self.machine_busy();
        self.count_issue_slots(slots, n);
        self.count_cycle_activity(now, machine_busy, 0, 0, 0, 0, n);
        self.counters.add(Event::CpuClkUnhaltedThread, n);
        self.fetch_bubble_len += n;
        self.cycle = until;
    }

    /// Removes completed entries from the in-flight load trackers.
    fn expire_inflight(&mut self, now: u64) {
        if now < self.next_expiry {
            return;
        }
        self.inflight_loads.retain(|&c| c > now);
        self.outstanding_misses.retain(|&c| c > now);
        self.dram_inflight.retain(|&c| c > now);
        self.store_buffer.retain(|&c| c > now);
        // Every miss and DRAM entry is also an in-flight load entry.
        self.next_expiry = self
            .inflight_loads
            .iter()
            .chain(&self.store_buffer)
            .copied()
            .min()
            .unwrap_or(u64::MAX);
    }

    /// Retires completed instructions in order; returns retired µops.
    fn retire(&mut self, now: u64) -> u64 {
        let mut budget = self.cfg.backend.retire_width;
        let mut retired_uops = 0;
        while budget > 0 {
            let Some(head) = self.rob.front() else {
                break;
            };
            let RobState::Executing(done_at) = head.state else {
                break;
            };
            if done_at > now {
                break;
            }
            let uops = u64::from(head.instr.uops);
            let remaining = uops - self.retire_partial;
            if remaining > budget {
                // Wider than the remaining retirement slots: retire what
                // fits this cycle and finish in a later cycle.
                self.retire_partial += budget;
                retired_uops += budget;
                break;
            }
            let entry = self.rob.pop_front().expect("head exists");
            budget -= remaining;
            retired_uops += remaining;
            self.retire_partial = 0;
            self.rob_uops -= uops;
            self.retired_instrs += 1;
            self.count_retirement(&entry);
        }
        retired_uops
    }

    fn count_retirement(&mut self, entry: &RobEntry) {
        let c = &mut self.counters;
        c.incr(Event::InstRetiredAny);
        c.add(Event::UopsRetiredRetireSlots, u64::from(entry.instr.uops));
        if entry.fe_bubble >= 2 {
            c.incr(Event::FrontendRetiredLatencyGe2BubblesGe1);
        }
        if entry.fe_bubble >= 4 {
            c.incr(Event::FrontendRetiredLatencyGe2BubblesGe2);
        }
        if entry.fe_bubble >= 6 {
            c.incr(Event::FrontendRetiredLatencyGe2BubblesGe3);
        }
        if entry.dsb_miss {
            c.incr(Event::FrontendRetiredDsbMiss);
        }
        match entry.instr.class {
            InstrClass::Branch { mispredicted } => {
                c.incr(Event::BrInstRetiredAllBranches);
                if mispredicted {
                    c.incr(Event::BrMispRetiredAllBranches);
                }
            }
            InstrClass::Load { level, locked } => {
                c.incr(Event::MemInstRetiredAllLoads);
                if locked {
                    c.incr(Event::MemInstRetiredLockLoads);
                }
                match level {
                    MemLevel::L1 => c.incr(Event::MemLoadRetiredL1Hit),
                    MemLevel::L2 => c.incr(Event::MemLoadRetiredL2Hit),
                    MemLevel::L3 => {
                        c.incr(Event::MemLoadRetiredL3Hit);
                        c.incr(Event::LongestLatCacheReference);
                    }
                    MemLevel::Dram => {
                        c.incr(Event::MemLoadRetiredDramHit);
                        c.incr(Event::LongestLatCacheReference);
                        c.incr(Event::LongestLatCacheMiss);
                    }
                }
            }
            InstrClass::Store => c.incr(Event::MemInstRetiredAllStores),
            _ => {}
        }
    }

    /// Dispatches ready scheduler entries to execution ports, oldest
    /// first; returns `(executed µops, distinct ports used)`.
    fn dispatch(&mut self, now: u64) -> (u64, usize) {
        let ports = self.cfg.backend.ports;
        let mut port_busy = 0u32;
        let mut executed_uops = 0u64;
        let mut dispatch_budget = ports as u64;
        self.decisions.clear();
        let head_seq = self.rob.front().map_or(0, |head| head.seq);

        // Operands that became available join the ready list.
        while let Some(&Reverse((ready_at, seq))) = self.timers.peek() {
            if ready_at > now {
                break;
            }
            self.timers.pop();
            let pos = self.ready.partition_point(|&s| s < seq);
            self.ready.insert(pos, seq);
        }

        // Walk the ready list in sequence order, compacting the entries
        // that stay ready to its front; once the budget is spent the
        // unvisited tail stays as it is.
        let mut kept = 0;
        let mut next = 0;
        while next < self.ready.len() && dispatch_budget > 0 {
            let seq = self.ready[next];
            next += 1;
            let idx = (seq - head_seq) as usize;
            let entry = self.rob[idx];
            // Instructions wider than the port count consume the whole
            // dispatch budget rather than waiting forever; the µop
            // counters still see the true width.
            let uops = u64::from(entry.instr.uops);
            let budget_cost = uops.min(ports as u64);
            let bound = if budget_cost > dispatch_budget {
                None
            } else {
                self.try_bind(&entry.instr, port_busy, now)
            };
            let Some((port, latency)) = bound else {
                self.ready[kept] = seq;
                kept += 1;
                continue;
            };
            let complete_at = now + latency;
            port_busy |= 1 << port;
            dispatch_budget -= budget_cost;
            executed_uops += uops;
            // Completions are published after the walk, so nothing
            // dispatched this cycle wakes a dependent in the same cycle.
            self.decisions.push((idx, port, complete_at));

            // Structural reservations.
            match entry.instr.class {
                InstrClass::IntDiv | InstrClass::FpDiv => {
                    self.divider_busy_until = complete_at;
                }
                InstrClass::Load { level, locked } => {
                    self.inflight_loads.push(complete_at);
                    self.next_expiry = self.next_expiry.min(complete_at);
                    // Locked loads count as memory-outstanding even on an
                    // L1 hit: their serialization latency is accounted
                    // under memory (L1) bound, as TMA does.
                    if level != MemLevel::L1 || locked {
                        self.outstanding_misses.push(complete_at);
                    }
                    if level == MemLevel::Dram {
                        self.dram_inflight.push(complete_at);
                    }
                    if locked {
                        self.lock_busy_until = complete_at;
                    }
                }
                InstrClass::Branch { mispredicted: true } => {
                    self.schedule_recovery(now, complete_at);
                }
                InstrClass::Store => {
                    // The store occupies its buffer entry until it drains
                    // into the L1 after completing.
                    let drained_at = complete_at + self.cfg.memory.l1_latency;
                    self.store_buffer.push(drained_at);
                    self.next_expiry = self.next_expiry.min(drained_at);
                }
                _ => {}
            }
        }
        if kept < next {
            self.ready.copy_within(next.., kept);
            self.ready.truncate(self.ready.len() - (next - kept));
        }

        let port_events = [
            Event::UopsDispatchedPort0,
            Event::UopsDispatchedPort1,
            Event::UopsDispatchedPort2,
            Event::UopsDispatchedPort3,
            Event::UopsDispatchedPort4,
            Event::UopsDispatchedPort5,
            Event::UopsDispatchedPort6,
            Event::UopsDispatchedPort7,
        ];
        for k in 0..self.decisions.len() {
            let (idx, port, complete_at) = self.decisions[k];
            let entry = &mut self.rob[idx];
            let uops = u64::from(entry.instr.uops);
            entry.state = RobState::Executing(complete_at);
            self.rs_uops -= uops;
            let seq = entry.seq;
            self.publish_completion(seq, complete_at);
            if port < port_events.len() {
                self.counters.add(port_events[port], uops);
            }
        }
        self.counters.add(Event::UopsExecutedThread, executed_uops);
        (executed_uops, port_busy.count_ones() as usize)
    }

    /// A mispredicted branch completing at `complete_at`: schedules the
    /// front-end redirect and the allocator recovery window, and charges a
    /// small wrong-path issue waste. The recovery window (not the fetch
    /// bubble) carries the bulk of the misprediction cost so that TMA
    /// attributes it to bad speculation rather than to the front-end; the
    /// shorter resteer tail that remains after recovery shows up as
    /// front-end latency, as it does on real hardware.
    fn schedule_recovery(&mut self, now: u64, complete_at: u64) {
        let fe = &self.cfg.frontend;
        let be = &self.cfg.backend;
        self.redirect_until = self
            .redirect_until
            .max(complete_at + fe.mispredict_redirect_penalty);
        if now >= self.recovery_until {
            self.recovery_start = complete_at;
        }
        self.recovery_until = self.recovery_until.max(complete_at + be.recovery_penalty);
        self.counters.add(Event::UopsIssuedAny, be.issue_width * 4);
    }

    fn ring_slot(&mut self, seq: u64) -> &mut RingSlot {
        let mask = self.completion_ring.len() - 1;
        &mut self.completion_ring[seq as usize & mask]
    }

    /// Enters a just-allocated instruction into the completion ring and
    /// the scheduler. Its operand is ready at once when it has no producer
    /// or the producer's slot has been taken since (the producer retired),
    /// at the producer's completion when that has dispatched, and
    /// otherwise it joins the producer's dependent list until the producer
    /// dispatches.
    fn enter_scheduler(&mut self, seq: u64, dep_distance: u32) {
        *self.ring_slot(seq) = RingSlot {
            seq,
            ..RingSlot::EMPTY
        };
        // Every entry already in the scheduler is older, so a push keeps
        // `ready` in sequence order.
        let producer = match seq.checked_sub(u64::from(dep_distance)) {
            Some(producer) if dep_distance > 0 => producer,
            _ => return self.ready.push(seq),
        };
        let slot = *self.ring_slot(producer);
        if slot.seq != producer {
            self.ready.push(seq);
        } else if slot.complete == NONE {
            self.ring_slot(seq).next_dependent = slot.first_dependent;
            self.ring_slot(producer).first_dependent = seq;
        } else {
            self.timers.push(Reverse((slot.complete, seq)));
        }
    }

    /// Records `seq`'s completion cycle and wakes its dependents: from the
    /// next cycle on, their operand is ready at `complete_at`.
    fn publish_completion(&mut self, seq: u64, complete_at: u64) {
        let slot = self.ring_slot(seq);
        slot.complete = complete_at;
        let mut dependent = std::mem::replace(&mut slot.first_dependent, NONE);
        while dependent != NONE {
            self.timers.push(Reverse((complete_at, dependent)));
            dependent = self.ring_slot(dependent).next_dependent;
        }
    }

    /// Tries to bind an instruction to a free, structurally available
    /// port; returns `(port, latency)` on success. `port_busy` has bit `p`
    /// set when port `p` is taken this cycle.
    fn try_bind(&self, instr: &Instr, port_busy: u32, now: u64) -> Option<(usize, u64)> {
        let ports = self.cfg.backend.ports;
        let mem = &self.cfg.memory;
        let be = &self.cfg.backend;
        let (candidates, latency): (&[usize], u64) = match instr.class {
            InstrClass::IntAlu => (&[0, 1, 5, 6], 1),
            InstrClass::IntMul => (&[1], 3),
            InstrClass::IntDiv => {
                if self.divider_busy_until > now {
                    return None;
                }
                (&[0], be.int_div_latency)
            }
            InstrClass::FpAdd => (&[0, 1], 4),
            InstrClass::FpMul => (&[0, 1], 4),
            InstrClass::FpDiv => {
                if self.divider_busy_until > now {
                    return None;
                }
                (&[0], be.fp_div_latency)
            }
            InstrClass::Vec(w) => match w {
                VecWidth::W128 | VecWidth::W256 => (&[0, 1], 4),
                VecWidth::W512 => (&[0, 5], 4),
            },
            InstrClass::Load { level, locked } => {
                if locked && self.lock_busy_until > now {
                    return None;
                }
                if level != MemLevel::L1 && self.outstanding_misses.len() >= mem.mshrs {
                    return None;
                }
                if level == MemLevel::Dram && self.dram_inflight.len() >= mem.dram_queue {
                    return None;
                }
                let base = match level {
                    MemLevel::L1 => mem.l1_latency,
                    MemLevel::L2 => mem.l2_latency,
                    MemLevel::L3 => mem.l3_latency,
                    MemLevel::Dram => mem.dram_latency,
                };
                let lat = if locked {
                    base + mem.lock_latency
                } else {
                    base
                };
                (&[2, 3], lat)
            }
            InstrClass::Store => {
                if self.store_buffer.len() >= mem.store_buffer {
                    return None;
                }
                (&[4], 1)
            }
            InstrClass::Branch { .. } => (&[6, 0], 1),
        };
        candidates
            .iter()
            .map(|&p| p % ports)
            .find(|&p| port_busy & (1 << p) == 0)
            .map(|p| (p, latency))
    }

    /// Allocates µops from the IDQ into the ROB/scheduler; returns issued
    /// µops.
    fn allocate(&mut self, now: u64) -> u64 {
        if self.in_recovery(now) {
            self.count_issue_slots(IssueSlots::Recovery, 1);
            return 0;
        }

        let be = &self.cfg.backend;
        let mut budget = be.issue_width;
        let mut issued = 0u64;
        let mut backend_blocked = false;
        while budget > 0 {
            let Some(front) = self.idq.front() else {
                break;
            };
            let uops = u64::from(front.instr.uops);
            if self.backend_full(uops) {
                backend_blocked = true;
                break;
            }
            let remaining = uops - self.alloc_partial;
            if remaining > budget {
                // Wider than the remaining issue slots: allocate what
                // fits this cycle and finish in a later cycle. This is
                // how a 4-µop microcoded instruction proceeds through a
                // 2-wide allocator without deadlocking.
                if self.alloc_partial == 0 {
                    self.rob_uops += uops;
                    self.rs_uops += uops;
                }
                self.alloc_partial += budget;
                issued += budget;
                break;
            }
            let started_now = self.alloc_partial == 0;
            let q = self.idq.pop_front().expect("front exists");
            self.idq_uops -= uops;
            budget -= remaining;
            issued += remaining;
            self.alloc_partial = 0;
            if started_now {
                self.rob_uops += uops;
                self.rs_uops += uops;
            }

            if let Some(w) = q.instr.vec_width() {
                if let Some(prev) = self.last_vec_width {
                    if prev != w {
                        self.counters.incr(Event::UopsIssuedVectorWidthMismatch);
                    }
                }
                self.last_vec_width = Some(w);
            }

            let seq = self.next_seq;
            self.next_seq += 1;
            self.rob.push_back(RobEntry {
                seq,
                instr: q.instr,
                state: RobState::Waiting,
                fe_bubble: q.fe_bubble,
                dsb_miss: q.dsb_miss,
            });
            self.enter_scheduler(seq, q.instr.dep_distance);
        }
        let slots = if backend_blocked {
            IssueSlots::Blocked(issued)
        } else {
            IssueSlots::Issued(issued)
        };
        self.count_issue_slots(slots, 1);
        issued
    }

    /// During a recovery window the allocator is busy restoring state;
    /// nothing allocates and the cycles are charged to bad speculation.
    fn in_recovery(&self, now: u64) -> bool {
        now >= self.recovery_start && now < self.recovery_until
    }

    /// Whether the ROB or scheduler lacks room for the IDQ-front
    /// instruction of `uops` µops. Resources for the whole instruction are
    /// reserved when its allocation starts (`alloc_partial == 0`), so a
    /// partly allocated instruction is never blocked.
    fn backend_full(&self, uops: u64) -> bool {
        let be = &self.cfg.backend;
        self.alloc_partial == 0
            && (self.rob_uops + uops > be.rob_size || self.rs_uops + uops > be.rs_size)
    }

    /// How the allocator spends cycle `now` if it would allocate nothing
    /// then; `None` if it would allocate.
    fn idle_issue(&self, now: u64) -> Option<IssueSlots> {
        if self.in_recovery(now) {
            return Some(IssueSlots::Recovery);
        }
        match self.idq.front() {
            None => Some(IssueSlots::Issued(0)),
            Some(front) if self.backend_full(u64::from(front.instr.uops)) => {
                Some(IssueSlots::Blocked(0))
            }
            Some(_) => None,
        }
    }

    /// Issue-slot counters of `n` cycles that each spent their slots as
    /// `slots` says.
    fn count_issue_slots(&mut self, slots: IssueSlots, n: u64) {
        let issue_width = self.cfg.backend.issue_width;
        let machine_busy = self.machine_busy();
        let c = &mut self.counters;
        match slots {
            IssueSlots::Recovery => {
                c.add(Event::IntMiscRecoveryCycles, n);
                c.add(Event::IntMiscRecoveryCyclesAny, n);
            }
            IssueSlots::Blocked(issued) => {
                c.add(Event::UopsIssuedAny, issued * n);
                c.add(Event::ResourceStallsAny, n);
                c.add(Event::IdqUopsNotDeliveredCyclesFeWasOk, n);
            }
            IssueSlots::Issued(issued) => {
                c.add(Event::UopsIssuedAny, issued * n);
                if machine_busy {
                    // Slots the front-end failed to fill while the
                    // back-end could have accepted them.
                    c.add(Event::IdqUopsNotDeliveredCore, (issue_width - issued) * n);
                    if issued <= 1 {
                        c.add(Event::IdqUopsNotDeliveredCyclesLe1, n);
                    }
                    if issued <= 2 {
                        c.add(Event::IdqUopsNotDeliveredCyclesLe2, n);
                    }
                    if issued <= 3 {
                        c.add(Event::IdqUopsNotDeliveredCyclesLe3, n);
                    }
                }
            }
        }
    }

    fn fetch_stalled(&self, now: u64) -> bool {
        now < self.fetch_stall_until.max(self.redirect_until)
    }

    /// Whether fetch at `now` would deliver nothing and change no state
    /// but the bubble length: it is stalled, or the IDQ has no room for
    /// the pending instruction (which misses no I-cache line and starts
    /// no microcode switch). A fetch that would pull from the stream is
    /// never idle.
    fn fetch_idle(&self, now: u64) -> bool {
        if self.fetch_stalled(now) {
            return true;
        }
        let Some(instr) = self.pending_fetch else {
            return false;
        };
        let ms_switch =
            instr.decode == DecodeSource::Ms && self.last_source != Some(DecodeSource::Ms);
        !instr.icache_miss
            && !ms_switch
            && self.idq_uops + u64::from(instr.uops) > self.cfg.frontend.idq_capacity
    }

    /// Fetches/decodes instructions into the IDQ.
    fn fetch<I>(&mut self, stream: &mut I, now: u64)
    where
        I: Iterator<Item = Instr>,
    {
        let fe = self.cfg.frontend;
        let stalled = self.fetch_stalled(now);
        let mut delivered_uops = 0u64;
        let mut dsb_uops = 0u64;
        let mut mite_uops = 0u64;
        let mut ms_uops = 0u64;

        if !stalled {
            let mut source_of_cycle: Option<DecodeSource> = None;
            let mut budget = 0u64;
            loop {
                if self.pending_fetch.is_none() {
                    match stream.next() {
                        Some(i) => self.pending_fetch = Some(i),
                        None => {
                            self.stream_exhausted = true;
                            break;
                        }
                    }
                }
                let instr = self.pending_fetch.expect("just filled");
                let uops = u64::from(instr.uops);

                // I-cache miss: stall fetch before delivering the
                // instruction; clear the flag so it delivers afterwards.
                if instr.icache_miss {
                    self.counters.incr(Event::IcacheMisses);
                    self.fetch_stall_until = now + self.cfg.memory.icache_miss_latency;
                    let mut cleared = instr;
                    cleared.icache_miss = false;
                    self.pending_fetch = Some(cleared);
                    break;
                }

                // One delivery source per cycle.
                match source_of_cycle {
                    None => {
                        // Microcode-sequencer switches cost a bubble before
                        // delivery starts.
                        if instr.decode == DecodeSource::Ms
                            && self.last_source != Some(DecodeSource::Ms)
                        {
                            self.counters.incr(Event::IdqMsSwitches);
                            if fe.ms_switch_penalty > 0 {
                                self.fetch_stall_until = now + fe.ms_switch_penalty;
                                self.last_source = Some(DecodeSource::Ms);
                                break;
                            }
                        }
                        source_of_cycle = Some(instr.decode);
                        budget = match instr.decode {
                            DecodeSource::Dsb => fe.dsb_width,
                            DecodeSource::Mite => fe.mite_width,
                            DecodeSource::Ms => fe.ms_width,
                        };
                    }
                    Some(src) if src != instr.decode => break,
                    Some(_) => {}
                }

                if self.idq_uops + uops > fe.idq_capacity {
                    break;
                }
                let source_width = match instr.decode {
                    DecodeSource::Dsb => fe.dsb_width,
                    DecodeSource::Mite => fe.mite_width,
                    DecodeSource::Ms => fe.ms_width,
                };
                if uops > budget {
                    if budget < source_width {
                        // Partial budget left this cycle: wait for a
                        // fresh cycle.
                        break;
                    }
                    // Wider than the delivery path: deliver now and
                    // charge the extra cycles as a fetch stall, which is
                    // equivalent to multi-cycle delivery.
                    let extra = (uops - budget).div_ceil(source_width);
                    self.fetch_stall_until = self.fetch_stall_until.max(now + 1 + extra);
                }

                // A DSB-to-MITE transition is a DSB miss.
                let dsb_miss = instr.decode == DecodeSource::Mite
                    && self.last_source == Some(DecodeSource::Dsb);
                self.last_source = Some(instr.decode);
                self.pending_fetch = None;
                budget = budget.saturating_sub(uops);
                delivered_uops += uops;
                match instr.decode {
                    DecodeSource::Dsb => dsb_uops += uops,
                    DecodeSource::Mite => mite_uops += uops,
                    DecodeSource::Ms => ms_uops += uops,
                }
                let fe_bubble = if delivered_uops == uops {
                    // First instruction delivered after a bubble carries
                    // its length.
                    self.fetch_bubble_len
                } else {
                    0
                };
                self.idq.push_back(QueuedInstr {
                    instr,
                    fe_bubble,
                    dsb_miss,
                });
                self.idq_uops += uops;
            }
        }

        let c = &mut self.counters;
        if dsb_uops > 0 {
            c.incr(Event::IdqDsbCycles);
            c.add(Event::IdqDsbUops, dsb_uops);
        }
        if mite_uops > 0 {
            c.incr(Event::IdqMiteCycles);
            c.add(Event::IdqMiteUops, mite_uops);
        }
        if ms_uops > 0 {
            c.incr(Event::IdqMsDsbCycles);
            c.add(Event::IdqMsUops, ms_uops);
        }
        if delivered_uops > 0 && delivered_uops == dsb_uops {
            c.incr(Event::IdqAllDsbCyclesAnyUops);
        }

        // Bubble length is only ever consumed when the next instruction
        // is delivered, so unconditional accumulation is safe and keeps
        // the counter independent of run-slicing.
        if delivered_uops == 0 {
            self.fetch_bubble_len += 1;
        } else {
            self.fetch_bubble_len = 0;
        }
    }

    /// Per-cycle activity counters derived from the stage results, added
    /// for each of `n` cycles with the same results.
    #[allow(clippy::too_many_arguments)]
    fn count_cycle_activity(
        &mut self,
        now: u64,
        machine_busy: bool,
        retired_uops: u64,
        executed_uops: u64,
        ports_used: usize,
        issued_uops: u64,
        n: u64,
    ) {
        if !machine_busy {
            return;
        }
        let mem_inflight = !self.inflight_loads.is_empty();
        let miss_outstanding = !self.outstanding_misses.is_empty();
        let c = &mut self.counters;

        if retired_uops == 0 {
            c.add(Event::UopsRetiredStallCycles, n);
        }
        if issued_uops == 0 {
            c.add(Event::UopsIssuedStallCycles, n);
        }
        let sb_full = self.store_buffer.len() >= self.cfg.memory.store_buffer;
        if sb_full {
            c.add(Event::ResourceStallsSb, n);
        }
        if executed_uops == 0 {
            c.add(Event::UopsExecutedStallCycles, n);
            if sb_full && !self.rob.is_empty() {
                c.add(Event::ExeActivityBoundOnStores, n);
            }
            if !self.rob.is_empty() {
                c.add(Event::CycleActivityStallsTotal, n);
                // Intel semantics: STALLS_MEM_ANY requires an outstanding
                // demand-load *miss*; stalls behind L1-hit latency are
                // execution (core) stalls.
                if miss_outstanding {
                    c.add(Event::CycleActivityStallsMemAny, n);
                    c.add(Event::CycleActivityStallsL1dMiss, n);
                } else {
                    c.add(Event::ExeActivityExeBound0Ports, n);
                }
            }
        } else {
            c.add(Event::UopsExecutedCoreCyclesGe1, n);
            c.add(Event::UopsExecutedCyclesGe1UopExec, n);
        }
        match ports_used {
            1 => c.add(Event::ExeActivity1PortsUtil, n),
            2 => c.add(Event::ExeActivity2PortsUtil, n),
            _ => {}
        }
        if mem_inflight {
            c.add(Event::CycleActivityCyclesMemAny, n);
        }
        if miss_outstanding {
            c.add(Event::CycleActivityCyclesL1dMiss, n);
            c.add(
                Event::L1dPendMissPendingCycles,
                self.outstanding_misses.len() as u64 * n,
            );
        }
        if self.divider_busy_until > now {
            c.add(Event::ArithDividerActive, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_n(instrs: Vec<Instr>, max_cycles: u64) -> (Core, RunSummary) {
        let mut core = Core::new(CoreConfig::skylake_server());
        let mut stream = instrs.into_iter();
        let summary = core.run(&mut stream, max_cycles);
        (core, summary)
    }

    #[test]
    fn independent_alu_ops_run_near_full_width() {
        let (core, s) = run_n(vec![Instr::simple_alu(); 20_000], 100_000);
        assert_eq!(s.instructions, 20_000);
        assert!(s.ipc() > 3.0, "ipc = {}", s.ipc());
        assert_eq!(core.counters().get(Event::InstRetiredAny), 20_000);
        assert!(core.is_drained());
    }

    #[test]
    fn dependent_chain_serializes_to_one_ipc() {
        let mut i = Instr::simple_alu();
        i.dep_distance = 1;
        let (_, s) = run_n(vec![i; 10_000], 100_000);
        assert!(s.ipc() < 1.2, "dep chain ipc = {}", s.ipc());
    }

    #[test]
    fn dram_loads_are_much_slower_than_l1() {
        let (_, dram) = run_n(vec![Instr::load(MemLevel::Dram); 2_000], 2_000_000);
        let (_, l1) = run_n(vec![Instr::load(MemLevel::L1); 2_000], 2_000_000);
        assert!(
            dram.ipc() < l1.ipc() / 2.0,
            "dram {} vs l1 {}",
            dram.ipc(),
            l1.ipc()
        );
    }

    #[test]
    fn dram_loads_count_llc_misses() {
        let (core, _) = run_n(vec![Instr::load(MemLevel::Dram); 500], 2_000_000);
        assert_eq!(core.counters().get(Event::LongestLatCacheMiss), 500);
        assert_eq!(core.counters().get(Event::MemLoadRetiredDramHit), 500);
    }

    #[test]
    fn mispredicted_branches_cost_cycles_and_count() {
        let mut mixed = Vec::new();
        for k in 0..5_000 {
            mixed.push(Instr::branch(k % 10 == 0));
            mixed.push(Instr::simple_alu());
        }
        let (core, s) = run_n(mixed, 2_000_000);
        let c = core.counters();
        assert_eq!(c.get(Event::BrMispRetiredAllBranches), 500);
        assert_eq!(c.get(Event::BrInstRetiredAllBranches), 5_000);
        assert!(c.get(Event::IntMiscRecoveryCycles) > 0);
        // Equal by construction in a single-thread model.
        assert_eq!(
            c.get(Event::IntMiscRecoveryCycles),
            c.get(Event::IntMiscRecoveryCyclesAny)
        );
        assert!(s.ipc() < 2.0, "mispredicts should hurt ipc: {}", s.ipc());
    }

    #[test]
    fn divider_serializes() {
        let div = Instr {
            class: InstrClass::IntDiv,
            ..Instr::simple_alu()
        };
        let (core, s) = run_n(vec![div; 500], 2_000_000);
        let lat = CoreConfig::skylake_server().backend.int_div_latency;
        assert!(s.cycles >= 500 * lat, "divides must serialize");
        assert!(core.counters().get(Event::ArithDividerActive) > 400 * lat);
    }

    #[test]
    fn mite_decoding_is_slower_than_dsb() {
        let mite = Instr {
            decode: DecodeSource::Mite,
            ..Instr::simple_alu()
        };
        let (_, s_mite) = run_n(vec![mite; 10_000], 1_000_000);
        let (_, s_dsb) = run_n(vec![Instr::simple_alu(); 10_000], 1_000_000);
        assert!(
            s_mite.ipc() < s_dsb.ipc(),
            "mite {} vs dsb {}",
            s_mite.ipc(),
            s_dsb.ipc()
        );
    }

    #[test]
    fn ms_switches_are_counted_and_penalized() {
        let ms = Instr {
            decode: DecodeSource::Ms,
            uops: 4,
            ..Instr::simple_alu()
        };
        let mut v = Vec::new();
        for _ in 0..500 {
            v.push(Instr::simple_alu());
            v.push(ms);
        }
        let (core, _) = run_n(v, 1_000_000);
        assert!(core.counters().get(Event::IdqMsSwitches) >= 500);
    }

    #[test]
    fn icache_misses_stall_fetch() {
        let missy = Instr {
            icache_miss: true,
            ..Instr::simple_alu()
        };
        let mut v = Vec::new();
        for _ in 0..200 {
            v.push(missy);
            v.extend(std::iter::repeat_n(Instr::simple_alu(), 9));
        }
        let (core, s) = run_n(v, 1_000_000);
        assert_eq!(core.counters().get(Event::IcacheMisses), 200);
        // 200 misses x 30-cycle penalty dominates 2000 instructions.
        assert!(s.cycles > 200 * 30);
        assert!(
            core.counters()
                .get(Event::FrontendRetiredLatencyGe2BubblesGe1)
                > 0
        );
    }

    #[test]
    fn locked_loads_serialize_and_count() {
        let lock = Instr {
            class: InstrClass::Load {
                level: MemLevel::L1,
                locked: true,
            },
            ..Instr::simple_alu()
        };
        let (core, s) = run_n(vec![lock; 300], 1_000_000);
        let cfg = CoreConfig::skylake_server();
        let per = cfg.memory.l1_latency + cfg.memory.lock_latency;
        assert_eq!(core.counters().get(Event::MemInstRetiredLockLoads), 300);
        assert!(s.cycles >= 300 * per, "locks must serialize");
    }

    #[test]
    fn vector_width_mixing_counts_mismatches() {
        let v256 = Instr {
            class: InstrClass::Vec(VecWidth::W256),
            ..Instr::simple_alu()
        };
        let v512 = Instr {
            class: InstrClass::Vec(VecWidth::W512),
            ..Instr::simple_alu()
        };
        let mut v = Vec::new();
        for _ in 0..500 {
            v.push(v256);
            v.push(v512);
        }
        let (core, _) = run_n(v, 1_000_000);
        assert!(core.counters().get(Event::UopsIssuedVectorWidthMismatch) >= 900);
    }

    #[test]
    fn uop_identities_hold() {
        let mut v = vec![Instr::simple_alu(); 3000];
        v.extend(vec![Instr::load(MemLevel::L2); 500]);
        v.extend(vec![Instr::branch(false); 500]);
        let (core, _) = run_n(v, 1_000_000);
        let c = core.counters();
        // Delivered µops by source must equal issued (no waste here) and
        // retired µops (single-µop instructions, no mispredicts).
        let delivered =
            c.get(Event::IdqDsbUops) + c.get(Event::IdqMiteUops) + c.get(Event::IdqMsUops);
        assert_eq!(delivered, 4000);
        assert_eq!(c.get(Event::UopsIssuedAny), 4000);
        assert_eq!(c.get(Event::UopsRetiredRetireSlots), 4000);
        assert_eq!(c.get(Event::UopsExecutedThread), 4000);
    }

    #[test]
    fn cycles_counter_matches_cycle() {
        let (core, s) = run_n(vec![Instr::simple_alu(); 100], 10_000);
        assert_eq!(
            core.counters().get(Event::CpuClkUnhaltedThread),
            core.cycle()
        );
        assert_eq!(s.cycles, core.cycle());
    }

    #[test]
    fn run_respects_max_cycles() {
        let mut core = Core::new(CoreConfig::tiny());
        let mut stream = std::iter::repeat(Instr::load(MemLevel::Dram));
        let s = core.run(&mut stream, 1_000);
        assert_eq!(s.cycles, 1_000);
        assert!(!core.is_drained());
    }

    #[test]
    fn state_persists_across_run_slices() {
        let mut core = Core::new(CoreConfig::skylake_server());
        let instrs: Vec<Instr> = vec![Instr::simple_alu(); 10_000];
        let mut stream = instrs.into_iter();
        let a = core.run(&mut stream, 500);
        let b = core.run(&mut stream, 1_000_000);
        assert_eq!(a.instructions + b.instructions, 10_000);
        assert!(core.is_drained());
    }

    #[test]
    fn store_buffer_limit_throttles_stores() {
        let mk = |sb: usize| {
            let mut cfg = CoreConfig::skylake_server();
            cfg.memory.store_buffer = sb;
            let mut core = Core::new(cfg);
            let mut stream = std::iter::repeat_n(
                Instr {
                    class: InstrClass::Store,
                    ..Instr::simple_alu()
                },
                5_000,
            );
            let s = core.run(&mut stream, 1_000_000);
            (s, core)
        };
        let (tight, tight_core) = mk(1);
        let (wide, _) = mk(56);
        assert!(
            tight.ipc() < wide.ipc() * 0.6,
            "a 1-entry store buffer must throttle: {} vs {}",
            tight.ipc(),
            wide.ipc()
        );
        assert!(tight_core.counters().get(Event::ResourceStallsSb) > 0);
    }

    #[test]
    fn mshr_limit_throttles_memory_parallelism() {
        let mut narrow_cfg = CoreConfig::skylake_server();
        narrow_cfg.memory.mshrs = 1;
        let mut wide_cfg = CoreConfig::skylake_server();
        wide_cfg.memory.mshrs = 10;
        let mk = |cfg: CoreConfig| {
            let mut core = Core::new(cfg);
            let mut stream = std::iter::repeat_n(Instr::load(MemLevel::L3), 2_000);
            core.run(&mut stream, 10_000_000)
        };
        let narrow = mk(narrow_cfg);
        let wide = mk(wide_cfg);
        assert!(
            wide.ipc() > narrow.ipc() * 2.0,
            "MLP should scale with MSHRs: narrow {} wide {}",
            narrow.ipc(),
            wide.ipc()
        );
    }

    #[test]
    fn backend_pressure_counts_resource_stalls_and_fe_ok() {
        // DRAM-bound: the ROB fills and the front-end is fine.
        let (core, _) = run_n(vec![Instr::load(MemLevel::Dram); 1_000], 5_000_000);
        let c = core.counters();
        assert!(c.get(Event::ResourceStallsAny) > 0);
        assert!(c.get(Event::IdqUopsNotDeliveredCyclesFeWasOk) > 0);
        assert!(c.get(Event::CycleActivityStallsMemAny) > 0);
        assert!(c.get(Event::CycleActivityCyclesMemAny) > 0);
    }

    #[test]
    fn frontend_pressure_counts_unfilled_slots() {
        let missy = Instr {
            icache_miss: true,
            ..Instr::simple_alu()
        };
        let mut v = Vec::new();
        for _ in 0..100 {
            v.push(missy);
            v.push(Instr::simple_alu());
        }
        let (core, _) = run_n(v, 1_000_000);
        assert!(core.counters().get(Event::IdqUopsNotDeliveredCore) > 0);
        assert!(core.counters().get(Event::IdqUopsNotDeliveredCyclesLe1) > 0);
    }
}
