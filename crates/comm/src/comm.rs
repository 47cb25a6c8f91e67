//! The per-rank [`Communicator`]: P2P messaging, collectives, virtual clock,
//! and fallible `try_*` variants that surface injected faults as typed
//! [`CommError`]s instead of panics.

use crate::double_ring::{all_gather_on, reduce_scatter_on, DoubleRingSpec};
use crate::fault::{CommError, CrashAt, FaultPlan, LossKind};
use crate::stats::{CommStats, FaultCounters};
use crate::topology::{Topology, WireDtype};
use crate::transport::FailureDetector;
use burst_obs::{
    MemCategory, MemId, MemLedger, MemReport, RankSink, RankTrace, SpanKind, DEFAULT_SPAN_CAPACITY,
};
use burst_tensor::{Bf16Mat, Mat};
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

/// Wall-clock backstop for receives under a fault plan: the virtual-clock
/// deadline is the real timeout mechanism (deterministic), but if a bug ever
/// leaves a rank blocked on a message that will never be sent, this bound
/// converts the would-be deadlock into a typed error instead of a hang.
const WALL_BACKSTOP: Duration = Duration::from_secs(30);

/// Kind of an elastic-layer control message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlKind {
    /// "I am abandoning the current collective" — sent by a rank that hit a
    /// failure mid-collective so its healthy neighbors stop waiting for data.
    Abort,
    /// A follower's eviction proposal to the agreement leader.
    Propose,
    /// The leader's eviction decision (new epoch + evicted set).
    Decide,
    /// A follower acknowledging the decision (its stale-message drain is
    /// complete).
    Ack,
    /// The leader's release: every survivor drained, safe to resume.
    Go,
    /// A parked rank petitioning the leader for re-admission (the join leg
    /// of the epoch protocol; `suspects` carries the joiner itself).
    Join,
}

/// An elastic-layer control message: abort pills and the eviction-agreement
/// protocol ride the same deterministic channels as data, so a control
/// message arriving where data was expected is itself a typed signal
/// ([`CommError::Aborted`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CtrlMsg {
    pub kind: CtrlKind,
    pub epoch: u64,
    pub suspects: Vec<usize>,
}

/// A message payload. Real data moves between ranks so distributed
/// algorithms are numerically exact end-to-end.
#[derive(Debug, Clone)]
pub enum MsgData {
    Mat(Mat),
    /// A matrix rounded to bfloat16 at the sender (half-width wire format;
    /// see [`crate::topology::WireDtype`]). Decoded back to `f32` on receive.
    Bf16Mat(Bf16Mat),
    Vec(Vec<f32>),
    /// A matrix payload ([`MsgData::Mat`] or [`MsgData::Bf16Mat`]) with
    /// `f32` values riding beside it in the same message, at 4 bytes each
    /// whatever the wire dtype.
    WithVals(Box<MsgData>, Vec<f32>),
    Scalar(f64),
    Empty,
    /// Elastic-layer control traffic (see [`CtrlMsg`]).
    Ctrl(CtrlMsg),
}

impl MsgData {
    /// Logical element count used for wire-time modeling.
    pub fn elems(&self) -> usize {
        match self {
            MsgData::Mat(m) => m.len(),
            MsgData::Bf16Mat(m) => m.len(),
            MsgData::Vec(v) => v.len(),
            MsgData::WithVals(m, v) => m.elems() + v.len(),
            MsgData::Scalar(_) => 1,
            MsgData::Empty => 0,
            MsgData::Ctrl(c) => c.suspects.len() + 2,
        }
    }

    /// Bytes this payload occupies on the wire. Unlike [`MsgData::elems`],
    /// this is per-variant: an f32 matrix or statistics vector is 4 bytes
    /// per element, a bf16 matrix 2, a scalar 8, and control traffic is
    /// billed at 8 bytes per logical element (small either way).
    pub fn wire_bytes(&self) -> f64 {
        match self {
            MsgData::Mat(m) => m.len() as f64 * 4.0,
            MsgData::Bf16Mat(m) => m.len() as f64 * 2.0,
            MsgData::Vec(v) => v.len() as f64 * 4.0,
            MsgData::WithVals(m, v) => m.wire_bytes() + v.len() as f64 * 4.0,
            MsgData::Scalar(_) => 8.0,
            MsgData::Empty => 0.0,
            MsgData::Ctrl(c) => (c.suspects.len() + 2) as f64 * 8.0,
        }
    }

    /// Human-readable payload kind + shape, for error messages.
    pub fn describe(&self) -> String {
        match self {
            MsgData::Mat(m) => format!("Mat {}x{}", m.rows(), m.cols()),
            MsgData::Bf16Mat(m) => format!("Bf16Mat {}x{}", m.rows(), m.cols()),
            MsgData::Vec(v) => format!("Vec[{}]", v.len()),
            MsgData::WithVals(m, v) => format!("{} + Vec[{}]", m.describe(), v.len()),
            MsgData::Scalar(_) => "Scalar".to_string(),
            MsgData::Empty => "Empty".to_string(),
            MsgData::Ctrl(c) => format!("Ctrl {:?} epoch={}", c.kind, c.epoch),
        }
    }

    /// FNV-1a over the payload bits (shape included), for in-flight
    /// corruption detection. Only computed when a fault plan is active.
    fn checksum(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |b: u64| {
            h ^= b;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        match self {
            MsgData::Mat(m) => {
                eat(m.rows() as u64);
                eat(m.cols() as u64);
                for v in m.as_slice() {
                    eat(v.to_bits() as u64);
                }
            }
            MsgData::Bf16Mat(m) => {
                eat(m.rows() as u64);
                eat(m.cols() as u64);
                for &b in m.as_bits() {
                    eat(b as u64);
                }
            }
            MsgData::Vec(v) => {
                eat(v.len() as u64);
                for x in v {
                    eat(x.to_bits() as u64);
                }
            }
            MsgData::WithVals(m, v) => {
                eat(m.checksum());
                eat(v.len() as u64);
                for x in v {
                    eat(x.to_bits() as u64);
                }
            }
            MsgData::Scalar(s) => eat(s.to_bits()),
            MsgData::Empty => eat(0),
            MsgData::Ctrl(c) => {
                eat(c.kind as u64);
                eat(c.epoch);
                for &s in &c.suspects {
                    eat(s as u64);
                }
            }
        }
        h
    }

    /// Flip the sign bit of the first element (injected corruption). The
    /// checksum is taken *before* this, so the receiver detects it.
    fn corrupt_in_place(&mut self) {
        match self {
            MsgData::Mat(m) => {
                if let Some(x) = m.as_mut_slice().first_mut() {
                    *x = f32::from_bits(x.to_bits() ^ 0x8000_0000);
                }
            }
            MsgData::Bf16Mat(m) => {
                if let Some(b) = m.as_bits_mut().first_mut() {
                    *b ^= 0x8000;
                }
            }
            MsgData::Vec(v) => {
                if let Some(x) = v.first_mut() {
                    *x = f32::from_bits(x.to_bits() ^ 0x8000_0000);
                }
            }
            MsgData::WithVals(m, _) => m.corrupt_in_place(),
            MsgData::Scalar(s) => *s = f64::from_bits(s.to_bits() ^ (1 << 63)),
            MsgData::Empty => {}
            MsgData::Ctrl(c) => c.epoch ^= 1,
        }
    }
}

/// A message in flight: payload plus its causal virtual arrival time and
/// (under a fault plan) a payload checksum. `dropped` marks a message the
/// plan discarded on the wire — the receiver consumes it as a timeout.
#[derive(Debug, Clone)]
pub struct Msg {
    pub arrival: f64,
    pub data: MsgData,
    pub checksum: u64,
    pub dropped: bool,
}

/// One rank's endpoint into the simulated cluster.
///
/// Sends are non-blocking in virtual time (NCCL multi-stream style): the
/// sender's clock does not advance, but the message occupies the sender's
/// egress port (NVLink port intra-node, the GPU's IB NIC inter-node), so
/// back-to-back sends through one port serialise. A receive advances the
/// local clock to the message's arrival time — communication posted early
/// and consumed late therefore overlaps with compute automatically.
///
/// Every operation is fallible: a `try_*` method returning
/// `Result<_, CommError>`, whose error names the local rank, the peer and
/// the expected payload kind. Four collectives also keep an infallible
/// form (`all_gather_mat`, `all_reduce_mat`, `all_to_all_mat`,
/// `ring_shift`) that escalates through [`Communicator::escalate`]: under a
/// fault plan it panics with the typed [`CommError`] itself as the payload
/// so [`crate::World::run_faulty`] can recover it.
pub struct Communicator {
    rank: usize,
    topo: Topology,
    tx: Vec<Sender<Msg>>,
    rx: Vec<Receiver<Msg>>,
    clock: f64,
    intra_port_free: f64,
    nic_free: f64,
    stats: CommStats,
    /// Span sink for the observability layer (`None` = tracing off; the
    /// sink never touches the virtual clock, so enabling it is
    /// bit-identical to running without it).
    obs: Option<RankSink>,
    /// Virtual-memory accountant (`None` = accounting off). Like `obs`, a
    /// pure observer of the virtual clock: hooks record buffer lifetimes
    /// but never advance time, so accounting on is bit-identical to off.
    mem: Option<MemLedger>,
    /// LIFO stack of open checkpoint-stash entries: the model layer pushes
    /// one entry per stored block in the forward and pops in reverse block
    /// order during the backward, without threading ledger ids through the
    /// checkpointing data structures.
    mem_stash: Vec<MemId>,
    fault: Option<FaultPlan>,
    /// Injected-fault firing counters (always on; zero on a healthy run).
    pub(crate) faults: FaultCounters,
    /// The crash trigger fired (counted once; the rank stays crashed).
    crash_fired: bool,
    /// Communication operations performed so far (sends + receives).
    ops: u64,
    /// Per-destination sent-message counters (fault trigger indexing).
    sent: Vec<u64>,
    /// Deterministic virtual-time failure detector: per-peer evidence of
    /// receive failures, retransmit history and heartbeat silence. Pure
    /// bookkeeping (never touches the clock); consulted by the membership
    /// layer to decide dead-vs-slow before escalating a timeout.
    detector: FailureDetector,
    /// Slow-kernel straggler factor from the fault plan (1.0 = healthy).
    compute_factor: f64,
    /// Depth of open recompute scopes: while nonzero, `advance_compute`
    /// tags its kernel spans `"recompute"` (gradient-checkpointing re-runs
    /// of forward code). Never touches the clock math.
    recompute_depth: u32,
}

/// Absolute virtual-clock deadline for a receive posted at `posted` with a
/// timeout budget of `budget` seconds, saturating instead of overflowing to
/// infinity when the clock sits near `f64::MAX`. An *unset* budget
/// (infinite) stays infinite — only finite budgets are clamped, so a
/// configured deadline can never silently become "no deadline".
pub fn saturating_deadline(posted: f64, budget: f64) -> f64 {
    if !budget.is_finite() {
        return f64::INFINITY;
    }
    let d = posted + budget;
    if d.is_finite() {
        d
    } else {
        f64::MAX
    }
}

impl Communicator {
    pub(crate) fn new(
        rank: usize,
        topo: Topology,
        tx: Vec<Sender<Msg>>,
        rx: Vec<Receiver<Msg>>,
        fault: Option<FaultPlan>,
    ) -> Self {
        let world = topo.world_size();
        let compute_factor = fault
            .as_ref()
            .map(|p| p.compute_slowdown(rank))
            .unwrap_or(1.0);
        let detector = FailureDetector::new(
            world,
            fault.as_ref().map(|p| p.detector_cfg()).unwrap_or_default(),
        );
        Communicator {
            rank,
            topo,
            tx,
            rx,
            clock: 0.0,
            intra_port_free: 0.0,
            nic_free: 0.0,
            stats: CommStats::default(),
            obs: None,
            mem: None,
            mem_stash: Vec::new(),
            fault,
            faults: FaultCounters::default(),
            crash_fired: false,
            ops: 0,
            sent: vec![0; world],
            detector,
            compute_factor,
            recompute_depth: 0,
        }
    }

    /// Start recording hierarchical spans on the virtual clock into a
    /// pre-sized per-rank [`RankSink`] (see [`burst_obs`]). Off by default.
    pub fn start_trace(&mut self) {
        self.obs = Some(RankSink::with_capacity(self.rank, DEFAULT_SPAN_CAPACITY));
    }

    /// Whether span recording is active.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.obs.is_some()
    }

    /// Start the per-rank virtual-memory accountant (see
    /// [`burst_obs::mem`]). Off by default; strictly an observer of the
    /// virtual clock.
    pub fn start_mem_accounting(&mut self) {
        self.mem = Some(MemLedger::new(self.rank));
        self.mem_stash.clear();
    }

    /// Stop accounting and return the finished ledger, force-closing (with
    /// warnings) any interval still open — on a crashed rank this is what
    /// keeps the ledger balanced (allocation == free + live-at-crash).
    /// `None` if accounting was off.
    pub fn take_mem_report(&mut self) -> Option<MemReport> {
        let clock = self.clock;
        // Ids index into the ledger being taken; a crashed pass's leftovers
        // are force-closed by `finish`, so the stack must not leak into a
        // future ledger.
        self.mem_stash.clear();
        self.mem.take().map(|m| m.finish(clock))
    }

    /// Register a named buffer of `bytes` becoming live now. No-op (and
    /// `None`) when accounting is off; never touches the clock.
    pub fn mem_alloc(&mut self, name: &str, cat: MemCategory, bytes: u64) -> Option<MemId> {
        let clock = self.clock;
        self.mem.as_mut().map(|m| m.alloc(name, cat, bytes, clock))
    }

    /// Close a ledger entry opened by [`Communicator::mem_alloc`]. Accepts
    /// the `Option` handle directly so call sites stay one line.
    pub fn mem_free(&mut self, id: Option<MemId>) {
        if let (Some(m), Some(id)) = (self.mem.as_mut(), id) {
            m.free(id, self.clock);
        }
    }

    /// Open a checkpoint-stash entry and push it on the stash stack. The
    /// model's checkpointing code stores per-block stashes in forward order
    /// and consumes them in reverse, so LIFO pairing frees the right entry
    /// without the `Stored` structures carrying ledger ids. No-op when
    /// accounting is off.
    pub fn mem_stash_push(&mut self, bytes: u64) {
        if let Some(id) = self.mem_alloc("ckpt_stash", MemCategory::CkptStash, bytes) {
            self.mem_stash.push(id);
        }
    }

    /// Close the most recently opened, still-open stash entry. No-op when
    /// accounting is off or the stack is empty (a crashed pass's leftovers
    /// are force-closed by [`Communicator::take_mem_report`] instead).
    pub fn mem_stash_pop(&mut self) {
        let id = self.mem_stash.pop();
        self.mem_free(id);
    }

    /// Raise the (ungated) workspace lane's high-water mark to at least
    /// `bytes` — called with a scratch allocator's resident size at the
    /// end of a pass.
    pub fn mem_note_workspace(&mut self, bytes: u64) {
        if let Some(m) = self.mem.as_mut() {
            m.note_peak(MemCategory::Workspace, bytes);
        }
    }

    /// Current live bytes on one accountant lane (0 when accounting is off).
    pub fn mem_cur(&self, cat: MemCategory) -> u64 {
        self.mem.as_ref().map_or(0, |m| m.cur(cat))
    }

    /// Bytes `elems` matrix elements occupy at the topology's wire dtype —
    /// the rate communication buffers are billed at (a bf16 wire halves
    /// the circulating ring-buffer footprint, exactly as a real bf16 comm
    /// buffer would).
    #[inline]
    pub fn mem_wire_bytes(&self, elems: usize) -> u64 {
        self.topo.wire_bytes(elems) as u64
    }

    /// Stop tracing and return the full per-rank span tree, force-closing
    /// (with warnings) anything left open. `None` if tracing was off.
    pub fn take_rank_trace(&mut self) -> Option<RankTrace> {
        let clock = self.clock;
        self.obs.take().map(|s| s.finish(clock))
    }

    /// Open a structural span (step, layer, attention round, …) at the
    /// current virtual time. No-op when tracing is off; never advances the
    /// clock.
    #[inline]
    pub fn span_begin(&mut self, kind: SpanKind, name: &'static str) {
        if let Some(obs) = &mut self.obs {
            obs.begin(kind, name, self.clock);
        }
    }

    /// Close the innermost open span at the current virtual time.
    #[inline]
    pub fn span_end(&mut self) {
        if let Some(obs) = &mut self.obs {
            obs.end(self.clock);
        }
    }

    /// Number of spans currently open (0 when tracing is off). Capture this
    /// before fallible work and hand it to [`Communicator::span_unwind`] on
    /// the error path.
    #[inline]
    pub fn span_depth(&self) -> usize {
        self.obs.as_ref().map_or(0, RankSink::open_count)
    }

    /// Close open spans at the current virtual time until at most `depth`
    /// remain — settles the stack after a `?` skipped the matching
    /// `span_end` calls (e.g. a ring round that failed mid-flight).
    #[inline]
    pub fn span_unwind(&mut self, depth: usize) {
        if let Some(obs) = &mut self.obs {
            obs.unwind_to(depth, self.clock);
        }
    }

    /// Record an instantaneous event (epoch bump, fault firing, …).
    #[inline]
    pub fn span_instant(&mut self, kind: SpanKind, name: &'static str) {
        if let Some(obs) = &mut self.obs {
            obs.instant(kind, name, self.clock);
        }
    }

    /// `(buffer address, capacity)` of the active span sink — lets tests
    /// assert the steady-state ring round records without reallocating.
    pub fn trace_fingerprint(&self) -> Option<(usize, usize)> {
        self.obs.as_ref().map(RankSink::buffer_fingerprint)
    }

    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    #[inline]
    pub fn world_size(&self) -> usize {
        self.topo.world_size()
    }

    #[inline]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    #[inline]
    pub fn node(&self) -> usize {
        self.topo.node_of(self.rank)
    }

    #[inline]
    pub fn local_rank(&self) -> usize {
        self.topo.local_rank(self.rank)
    }

    /// Current virtual time on this rank, in seconds.
    #[inline]
    pub fn time(&self) -> f64 {
        self.clock
    }

    /// Communication/compute counters accumulated so far.
    #[inline]
    pub fn stats(&self) -> CommStats {
        self.stats
    }

    /// Injected-fault firing counters accumulated so far (all zero on a
    /// healthy run).
    #[inline]
    pub fn fault_counters(&self) -> FaultCounters {
        self.faults
    }

    /// Record one ring round elided entirely by mask-aware skipping (no
    /// compute, no traffic, no virtual time). Pure accounting: never
    /// touches the clock.
    #[inline]
    pub fn note_round_skipped(&mut self) {
        self.stats.rounds_skipped += 1;
    }

    /// Record a suppressed `Mat` send of `elems` elements — wire bytes a
    /// dense schedule would have shipped at this site, billed at the
    /// topology's wire dtype. Pure accounting.
    #[inline]
    pub fn note_skipped_mat(&mut self, elems: usize) {
        self.stats.skipped_bytes += self.topo.wire_bytes(elems);
    }

    /// Record a suppressed statistics-vector send of `len` f32 elements
    /// (LSE/D vectors always travel at 4 bytes each). Pure accounting.
    #[inline]
    pub fn note_skipped_vec(&mut self, len: usize) {
        self.stats.skipped_bytes += 4.0 * len as f64;
    }

    /// Communication operations (sends + receives) performed so far — the
    /// index space of [`FaultPlan::crash_at_op`].
    #[inline]
    pub fn op_count(&self) -> u64 {
        self.ops
    }

    /// Whether a fault plan is installed on this world.
    #[inline]
    pub fn has_faults(&self) -> bool {
        self.fault.is_some()
    }

    /// The installed fault plan, if any.
    #[inline]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// The failure detector's accrued suspicion (phi) toward `peer` at the
    /// current virtual time. Diagnostic read — see
    /// [`crate::transport::FailureDetector::phi`].
    pub fn suspicion_phi(&self, peer: usize) -> f64 {
        self.detector.phi(peer, self.clock)
    }

    /// Read access to the failure detector's evidence (tests/diagnostics).
    pub fn failure_detector(&self) -> &FailureDetector {
        &self.detector
    }

    /// Consult the failure detector: is `peer` confirmed *dead* rather
    /// than merely *slow*? `default_fail_threshold` is the consulting
    /// retry policy's `max_attempts`, so with a default
    /// [`crate::transport::DetectorCfg`] the answer reproduces the
    /// pre-detector escalation decision exactly. The first confirmation of
    /// an incident is announced as a suspicion span and counted in
    /// [`FaultCounters::suspicions`].
    pub fn peer_confirmed_dead(&mut self, peer: usize, default_fail_threshold: u32) -> bool {
        let dead = self
            .detector
            .is_dead(peer, default_fail_threshold, self.clock);
        if dead && self.detector.announce_suspicion(peer) {
            self.faults.suspicions += 1;
            self.span_instant(SpanKind::Fault, "suspect");
        }
        dead
    }

    /// The gradient poison scheduled for this rank at (`step`, `micro`),
    /// if any (compute-side fault injection).
    #[inline]
    pub fn grad_poison(&self, step: u64, micro: u64) -> Option<f32> {
        self.fault
            .as_ref()
            .and_then(|p| p.grad_poison(self.rank, step, micro))
    }

    /// Escalate a typed error through the infallible API: under a fault
    /// plan the panic payload is the [`CommError`] itself (recoverable by
    /// [`crate::World::run_faulty`]); otherwise a readable message.
    #[track_caller]
    pub fn escalate(&self, e: CommError) -> ! {
        if self.fault.is_some() {
            std::panic::panic_any(e)
        } else {
            panic!("{e}")
        }
    }

    /// Model `seconds` of local compute (advances the virtual clock). A
    /// slow-kernel straggler factor from the fault plan stretches the
    /// advance deterministically.
    pub fn advance_compute(&mut self, seconds: f64) {
        let name = if self.recompute_depth > 0 {
            "recompute"
        } else {
            "compute"
        };
        self.advance_compute_named(name, seconds);
    }

    /// Enter (`true`) or leave (`false`) a recompute scope: while inside,
    /// [`Communicator::advance_compute`] tags kernel spans `"recompute"`.
    /// Depth-counted so nested scopes compose. Affects only span names —
    /// the clock and stats are byte-for-byte unchanged.
    pub fn recompute_scope(&mut self, enter: bool) {
        if enter {
            self.recompute_depth += 1;
        } else {
            debug_assert!(self.recompute_depth > 0, "recompute_scope underflow");
            self.recompute_depth = self.recompute_depth.saturating_sub(1);
        }
    }

    /// Named form of [`Communicator::advance_compute`] — the name tags the
    /// recorded kernel span; the clock math is byte-for-byte the same for
    /// every name, so instrumentation choices cannot change numerics.
    pub fn advance_compute_named(&mut self, name: &'static str, seconds: f64) {
        debug_assert!(seconds >= 0.0, "negative compute time");
        let seconds = seconds * self.compute_factor;
        if seconds > 0.0 {
            if let Some(obs) = &mut self.obs {
                obs.leaf(
                    SpanKind::Kernel,
                    name,
                    self.clock,
                    self.clock + seconds,
                    u32::MAX,
                    0,
                    false,
                );
            }
        }
        self.clock += seconds;
        self.stats.compute_time += seconds;
    }

    /// Check this rank's scheduled crash trigger and count the operation.
    /// Once the trigger fires every subsequent operation fails too — a
    /// crashed rank stays crashed.
    fn check_crash(&mut self) -> Result<(), CommError> {
        if let Some(plan) = &self.fault {
            let fired = match plan.crash_trigger(self.rank) {
                Some(CrashAt::Op(n)) => self.ops >= n,
                None => false,
            };
            if fired {
                if !self.crash_fired {
                    self.crash_fired = true;
                    self.faults.crashes += 1;
                    if let Some(obs) = &mut self.obs {
                        obs.instant(SpanKind::Fault, "crash", self.clock);
                    }
                }
                return Err(CommError::Crashed {
                    rank: self.rank,
                    at: self.clock,
                });
            }
        }
        self.ops = self.ops.saturating_add(1);
        Ok(())
    }

    /// The virtual-clock deadline for a receive posted now (saturating:
    /// a clock near `f64::MAX` must not overflow a finite budget into
    /// "no deadline").
    fn recv_deadline_abs(&self) -> f64 {
        match &self.fault {
            Some(plan) => saturating_deadline(self.clock, plan.deadline_secs()),
            None => f64::INFINITY,
        }
    }

    /// Non-blocking send of `data` to `dst`. Fails with
    /// [`CommError::PeerLost`] if the peer has terminated.
    pub fn try_send(&mut self, dst: usize, data: MsgData) -> Result<(), CommError> {
        assert!(
            dst < self.world_size(),
            "rank {}: send: dst {dst} out of range (world size {})",
            self.rank,
            self.world_size()
        );
        assert_ne!(
            dst, self.rank,
            "rank {}: send: self-send is not supported",
            self.rank
        );
        self.check_crash()?;
        let mut data = data;
        let elems = data.elems();
        let bytes = data.wire_bytes();
        let link = self.topo.link(self.rank, dst);
        let inter = !self.topo.same_node(self.rank, dst);
        let tx_time = link.serialization(bytes);
        // Take the plan so its queries can interleave with the mutable
        // accounting below; restored before returning.
        let plan = self.fault.take();
        let transport = plan.as_ref().and_then(|p| p.transport());
        let (depart, arrival, checksum, dropped) = if let Some(tp) = transport {
            // Reliable path: the plan is shared deterministic data, so the
            // sender simulates the whole ack/retransmit dialogue locally.
            // Each physical attempt consumes a message index, occupies the
            // egress port and is billed on the wire; a lost or corrupted
            // attempt schedules a retransmission one RTO later, and only
            // the final (clean) transmission is enqueued — the receiver
            // never sees the healed failures.
            let p = plan.as_ref().expect("transport policy implies a plan");
            let checksum = data.checksum();
            let mut attempt = 0u32;
            let mut resend_gate = 0.0f64;
            loop {
                let msg_index = self.sent[dst];
                self.sent[dst] = self.sent[dst].saturating_add(1);
                let extra = p.extra_latency(self.rank, dst, msg_index);
                let port_free = if inter {
                    &mut self.nic_free
                } else {
                    &mut self.intra_port_free
                };
                let depart = self.clock.max(*port_free).max(resend_gate);
                *port_free = depart + tx_time;
                let arrival = depart + link.latency + extra + tx_time;
                let loss = p.link_loss(self.rank, dst, msg_index, depart);
                let corrupted = loss.is_none() && p.should_corrupt(self.rank, dst, msg_index);
                if extra > 0.0 {
                    self.faults.delays += 1;
                    self.span_instant(SpanKind::Fault, "delay");
                }
                match loss {
                    Some(LossKind::Drop) => {
                        self.faults.drops += 1;
                        self.span_instant(SpanKind::Fault, "drop");
                    }
                    Some(LossKind::Flap) => {
                        self.faults.flaps += 1;
                        self.span_instant(SpanKind::Fault, "flap");
                    }
                    Some(LossKind::Partition) => {
                        self.faults.flaps += 1;
                        self.span_instant(SpanKind::Fault, "partition");
                    }
                    None => {}
                }
                if corrupted {
                    self.faults.corruptions += 1;
                    self.span_instant(SpanKind::Fault, "corrupt");
                }
                let failed = loss.is_some() || corrupted;
                if failed && attempt < tp.max_resends {
                    // Billed as retransmit overhead, invisible above the
                    // transport; the next attempt departs one RTO later,
                    // which is what lets it outlive a flap/partition window.
                    self.stats.retrans_msgs += 1;
                    self.stats.retrans_bytes += bytes;
                    self.faults.retransmits += 1;
                    self.detector.record_retransmit(dst);
                    if let Some(obs) = &mut self.obs {
                        obs.leaf(
                            SpanKind::Retransmit,
                            "retransmit",
                            depart,
                            arrival,
                            dst as u32,
                            elems as u64,
                            inter,
                        );
                    }
                    resend_gate = depart + tp.rto(attempt, self.rank, dst, msg_index);
                    if let Some(mem) = &mut self.mem {
                        // The transport holds the payload for the re-send:
                        // queued bytes from the (constant-clock) post until
                        // the next attempt may depart. Charged at the post
                        // clock so lane charge times stay monotone.
                        let clock = self.clock;
                        mem.charge_until(
                            MemCategory::RetransQueue,
                            bytes as u64,
                            clock,
                            resend_gate,
                        );
                    }
                    attempt += 1;
                    continue;
                }
                if failed {
                    // Retry budget exhausted: hand the failure up the
                    // ladder by delivering the legacy observable (the
                    // receiver sees a timeout or a checksum mismatch).
                    self.faults.giveups += 1;
                    self.span_instant(SpanKind::Fault, "giveup");
                    if corrupted {
                        data.corrupt_in_place();
                    }
                } else if attempt > 0 {
                    self.faults.healed += 1;
                    self.span_instant(SpanKind::Fault, "healed");
                }
                break (depart, arrival, checksum, loss.is_some());
            }
        } else {
            // Legacy wire: deterministic extra latency/jitter, drops and
            // corruption, all keyed off the plan seed and message index;
            // every loss surfaces directly to the receiver.
            let msg_index = self.sent[dst];
            self.sent[dst] = self.sent[dst].saturating_add(1);
            let port_free_now = if inter {
                self.nic_free
            } else {
                self.intra_port_free
            };
            let depart = self.clock.max(port_free_now);
            let (extra, loss, checksum, corrupted) = match &plan {
                Some(p) => {
                    let extra = p.extra_latency(self.rank, dst, msg_index);
                    let loss = p.link_loss(self.rank, dst, msg_index, depart);
                    let checksum = data.checksum();
                    let corrupted = p.should_corrupt(self.rank, dst, msg_index);
                    if corrupted {
                        data.corrupt_in_place();
                    }
                    (extra, loss, checksum, corrupted)
                }
                None => (0.0, None, 0, false),
            };
            if extra > 0.0 {
                self.faults.delays += 1;
                self.span_instant(SpanKind::Fault, "delay");
            }
            match loss {
                Some(LossKind::Drop) => {
                    self.faults.drops += 1;
                    self.span_instant(SpanKind::Fault, "drop");
                }
                Some(LossKind::Flap) => {
                    self.faults.flaps += 1;
                    self.span_instant(SpanKind::Fault, "flap");
                }
                Some(LossKind::Partition) => {
                    self.faults.flaps += 1;
                    self.span_instant(SpanKind::Fault, "partition");
                }
                None => {}
            }
            if corrupted {
                self.faults.corruptions += 1;
                self.span_instant(SpanKind::Fault, "corrupt");
            }
            let port_free = if inter {
                &mut self.nic_free
            } else {
                &mut self.intra_port_free
            };
            *port_free = depart + tx_time;
            (
                depart,
                depart + link.latency + extra + tx_time,
                checksum,
                loss.is_some(),
            )
        };
        self.fault = plan;
        if inter {
            self.stats.inter_msgs += 1;
            self.stats.inter_elems += elems as u64;
            self.stats.inter_bytes += bytes;
        } else {
            self.stats.intra_msgs += 1;
            self.stats.intra_elems += elems as u64;
            self.stats.intra_bytes += bytes;
        }
        if let Some(obs) = &mut self.obs {
            obs.leaf(
                SpanKind::Send,
                "send",
                depart,
                arrival,
                dst as u32,
                elems as u64,
                inter,
            );
        }
        if let Some(mem) = &mut self.mem {
            // Sender-side in-flight occupancy: the sender owns the payload
            // from post until delivery, `[clock, arrival)`. Lane-only — no
            // ledger entry — so steady-state rounds append nothing; charged
            // at the post clock, which is monotone per rank, so the lane
            // peak is the exact peak of its step function.
            let clock = self.clock;
            mem.charge_until(MemCategory::InFlight, bytes as u64, clock, arrival);
        }
        self.tx[dst]
            .send(Msg {
                arrival,
                data,
                checksum,
                dropped,
            })
            .map_err(|_| CommError::PeerLost {
                rank: self.rank,
                src: dst,
                at: self.clock,
            })
    }

    /// Blocking receive of the next message from `src`. Advances the clock
    /// to the message's causal arrival time; a message arriving after the
    /// fault plan's virtual deadline — or dropped on the wire — is consumed
    /// as [`CommError::Timeout`], and a payload failing checksum validation
    /// as [`CommError::Corrupt`].
    pub fn try_recv(&mut self, src: usize) -> Result<MsgData, CommError> {
        assert!(
            src < self.world_size(),
            "rank {}: recv: src {src} out of range (world size {})",
            self.rank,
            self.world_size()
        );
        assert_ne!(
            src, self.rank,
            "rank {}: recv: self-recv is not supported",
            self.rank
        );
        self.check_crash()?;
        let posted = self.clock;
        let deadline = self.recv_deadline_abs();
        let msg = if self.fault.is_some() {
            match self.rx[src].recv_timeout(WALL_BACKSTOP) {
                Ok(m) => m,
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CommError::PeerLost {
                        rank: self.rank,
                        src,
                        at: self.clock,
                    });
                }
                Err(RecvTimeoutError::Timeout) => {
                    self.faults.timeouts += 1;
                    self.detector.record_failure(src);
                    self.span_instant(SpanKind::Fault, "timeout");
                    return Err(CommError::Timeout {
                        rank: self.rank,
                        src,
                        deadline,
                        at: self.clock,
                    });
                }
            }
        } else {
            match self.rx[src].recv() {
                Ok(m) => m,
                Err(_) => {
                    return Err(CommError::PeerLost {
                        rank: self.rank,
                        src,
                        at: self.clock,
                    });
                }
            }
        };
        if msg.dropped || msg.arrival > deadline {
            // The wait burns virtual time up to the deadline; the message
            // itself is gone (dropped) or too late to use.
            if deadline.is_finite() && deadline > self.clock {
                self.stats.wait_time += deadline - self.clock;
                if let Some(obs) = &mut self.obs {
                    obs.leaf(
                        SpanKind::Wait,
                        "deadline",
                        self.clock,
                        deadline,
                        src as u32,
                        0,
                        false,
                    );
                }
                self.clock = deadline;
            }
            self.faults.timeouts += 1;
            self.detector.record_failure(src);
            self.span_instant(SpanKind::Fault, "timeout");
            return Err(CommError::Timeout {
                rank: self.rank,
                src,
                deadline,
                at: self.clock,
            });
        }
        if msg.arrival > self.clock {
            self.stats.wait_time += msg.arrival - self.clock;
            if let Some(obs) = &mut self.obs {
                obs.leaf(
                    SpanKind::Wait,
                    "wait",
                    self.clock,
                    msg.arrival,
                    src as u32,
                    0,
                    false,
                );
            }
            self.clock = msg.arrival;
        }
        if self.fault.is_some() && msg.data.checksum() != msg.checksum {
            self.detector.record_failure(src);
            return Err(CommError::Corrupt {
                rank: self.rank,
                src,
                detail: format!(
                    "checksum mismatch on {} (expected {:#x}, got {:#x})",
                    msg.data.describe(),
                    msg.checksum,
                    msg.data.checksum()
                ),
            });
        }
        if self.fault.is_some() {
            self.detector.record_ok(src, self.clock);
        }
        if let Some(obs) = &mut self.obs {
            obs.leaf(
                SpanKind::Recv,
                "recv",
                posted,
                self.clock,
                src as u32,
                msg.data.elems() as u64,
                false,
            );
        }
        Ok(msg.data)
    }

    /// A control message arrived where data was expected: the sender
    /// abandoned the collective. Convert it to the typed signal.
    fn aborted_by(&self, src: usize, c: CtrlMsg) -> CommError {
        CommError::Aborted {
            rank: self.rank,
            src,
            epoch: c.epoch,
            suspects: c.suspects,
            at: self.clock,
        }
    }

    /// Discard every message currently queued on this rank's inbound
    /// channels without advancing the virtual clock — used between
    /// membership epochs to clear stale in-flight data from an aborted
    /// collective. Returns the number of messages discarded.
    pub fn drain_all(&mut self) -> usize {
        let mut n = 0;
        for src in 0..self.world_size() {
            if src == self.rank {
                continue;
            }
            while self.rx[src].try_recv().is_ok() {
                n += 1;
            }
        }
        n
    }

    // ----- typed helpers ---------------------------------------------------

    /// Wrap a matrix in the wire payload selected by the topology's
    /// [`WireDtype`]: under [`WireDtype::F32`] the matrix travels as-is;
    /// under [`WireDtype::Bf16`] it is rounded (nearest-even) at the sender
    /// and occupies 2 bytes per element on the wire. Because decoding is
    /// exact and re-encoding a decoded matrix is lossless, a shard that
    /// circulates a ring is rounded exactly once.
    pub fn mat_payload(&self, m: Mat) -> MsgData {
        match self.topo.wire_dtype {
            WireDtype::F32 => MsgData::Mat(m),
            WireDtype::Bf16 => MsgData::Bf16Mat(Bf16Mat::from_mat(&m)),
        }
    }

    /// Send a copy of `m` to `dst` in the wire dtype's payload (see
    /// [`Communicator::mat_payload`]).
    pub fn try_send_mat(&mut self, dst: usize, m: &Mat) -> Result<(), CommError> {
        let payload = self.mat_payload(m.clone());
        self.try_send(dst, payload)
    }

    /// Receive a matrix from `src`. Accepts either wire dtype — an f32
    /// payload is returned untouched, a bf16 payload is decoded (exactly)
    /// back to `f32`.
    pub fn try_recv_mat(&mut self, src: usize) -> Result<Mat, CommError> {
        let data = self.try_recv(src)?;
        self.expect_mat(src, data)
    }

    /// Receive a matrix from `src` with the values riding beside it
    /// ([`MsgData::WithVals`]); a plain matrix payload carries none.
    pub(crate) fn try_recv_mat_vals(&mut self, src: usize) -> Result<(Mat, Vec<f32>), CommError> {
        let (data, vals) = match self.try_recv(src)? {
            MsgData::WithVals(data, vals) => (*data, vals),
            data => (data, Vec::new()),
        };
        Ok((self.expect_mat(src, data)?, vals))
    }

    fn expect_mat(&self, src: usize, data: MsgData) -> Result<Mat, CommError> {
        match data {
            MsgData::Mat(m) => Ok(m),
            MsgData::Bf16Mat(m) => Ok(m.to_mat()),
            MsgData::Ctrl(c) => Err(self.aborted_by(src, c)),
            other => Err(CommError::ShapeMismatch {
                rank: self.rank,
                src,
                expected: "Mat",
                got: other.describe(),
            }),
        }
    }

    /// Send a copy of `v` to `dst`; vectors always travel as f32.
    pub fn try_send_vec(&mut self, dst: usize, v: &[f32]) -> Result<(), CommError> {
        self.try_send(dst, MsgData::Vec(v.to_vec()))
    }

    /// Receive a vector from `src`.
    pub fn try_recv_vec(&mut self, src: usize) -> Result<Vec<f32>, CommError> {
        match self.try_recv(src)? {
            MsgData::Vec(v) => Ok(v),
            MsgData::Ctrl(c) => Err(self.aborted_by(src, c)),
            other => Err(CommError::ShapeMismatch {
                rank: self.rank,
                src,
                expected: "Vec",
                got: other.describe(),
            }),
        }
    }

    // ----- ring helpers ----------------------------------------------------

    #[inline]
    pub fn next_rank(&self) -> usize {
        self.topo.next_rank(self.rank)
    }

    #[inline]
    pub fn prev_rank(&self) -> usize {
        self.topo.prev_rank(self.rank)
    }

    /// One synchronous step of the flat global ring: send `data` to the next
    /// rank, receive the previous rank's message. Panics (with rank/peer
    /// context) on a communication failure.
    pub fn ring_shift(&mut self, data: MsgData) -> MsgData {
        let shifted = self
            .try_send(self.next_rank(), data)
            .and_then(|()| self.try_recv(self.prev_rank()));
        shifted.unwrap_or_else(|e| self.escalate(e))
    }

    // ----- collectives -----------------------------------------------------

    /// Global barrier: gather-to-0 + broadcast of empty messages. After it
    /// returns, every rank's clock equals the global maximum (plus the
    /// barrier's own latency cost).
    pub fn try_barrier(&mut self) -> Result<(), CommError> {
        let members: Vec<usize> = (0..self.world_size()).collect();
        barrier_on(self, &members, Communicator::try_recv)
    }

    /// Ring all-gather: returns every rank's matrix, indexed by rank.
    ///
    /// Runs the two-level ring of [`crate::double_ring`] over the whole
    /// topology: `nodes − 1` steps across nodes among the ranks at the same
    /// local position, then `gpus_per_node − 1` steps inside each node, so
    /// every NIC carries traffic in parallel. Each step forwards what the
    /// previous one received, so port occupancy and latency follow the real
    /// algorithm. On one node, or one GPU per node, this is the standard
    /// `G − 1`-step flat ring.
    pub fn all_gather_mat(&mut self, mine: &Mat) -> Vec<Mat> {
        match self.try_all_gather_mat(mine, &[]) {
            Ok(parts) => parts.into_iter().map(|(m, _)| m).collect(),
            Err(e) => self.escalate(e),
        }
    }

    /// Fallible [`Communicator::all_gather_mat`] that also carries `vals`:
    /// they ride beside `mine` in the messages that forward it, at f32
    /// whatever the wire dtype, and every rank's `(block, values)` comes
    /// back, indexed by rank. Empty `vals` send plain matrix payloads.
    pub fn try_all_gather_mat(
        &mut self,
        mine: &Mat,
        vals: &[f32],
    ) -> Result<Vec<(Mat, Vec<f32>)>, CommError> {
        let spec = DoubleRingSpec::full(&self.topo);
        all_gather_on(self, &spec, mine, vals, Communicator::try_recv_mat_vals)
    }

    /// Ring reduce-scatter (sum): `parts[d]` is this rank's contribution to
    /// destination rank `d`; returns the fully reduced block owned by this
    /// rank.
    ///
    /// The mirror image of [`Communicator::all_gather_mat`]: a ring inside
    /// each node sums every block over the node's ranks, then a ring across
    /// nodes sums the node partials. On a multi-node topology an element's
    /// sum is therefore associated node by node; on one node, or one GPU
    /// per node, it is the flat ring's order.
    #[track_caller]
    pub fn try_reduce_scatter_mat(&mut self, parts: &[Mat]) -> Result<Mat, CommError> {
        let spec = DoubleRingSpec::full(&self.topo);
        reduce_scatter_on(self, &spec, parts, Communicator::try_recv_mat)
    }

    /// All-reduce (sum) of a matrix: the two-level ring reduce-scatter over
    /// row blocks followed by the two-level ring all-gather when the row
    /// count divides evenly, otherwise a gather-to-rank-0, sum, broadcast
    /// fallback (summed in ascending rank order).
    pub fn all_reduce_mat(&mut self, m: &Mat) -> Mat {
        match self.try_all_reduce_mat(m) {
            Ok(m) => m,
            Err(e) => self.escalate(e),
        }
    }

    /// Fallible [`Communicator::all_reduce_mat`].
    pub fn try_all_reduce_mat(&mut self, m: &Mat) -> Result<Mat, CommError> {
        let g = self.world_size();
        if g == 1 {
            return Ok(m.clone());
        }
        if m.rows().is_multiple_of(g) && m.rows() >= g {
            let parts = m.chunk_rows(g);
            let mine = self.try_reduce_scatter_mat(&parts)?;
            let gathered = self.try_all_gather_mat(&mine, &[])?;
            let blocks: Vec<Mat> = gathered.into_iter().map(|(b, _)| b).collect();
            Ok(Mat::vstack(&blocks))
        } else {
            let members: Vec<usize> = (0..g).collect();
            leader_all_reduce_mat_on(self, &members, m, Communicator::try_recv_mat)
        }
    }

    /// All-to-all: `outgoing[d]` goes to rank `d`; returns `incoming[s]`
    /// from each rank `s` (our own block passes through untouched).
    #[track_caller]
    pub fn all_to_all_mat(&mut self, outgoing: Vec<Mat>) -> Vec<Mat> {
        match self.try_all_to_all_mat(outgoing) {
            Ok(v) => v,
            Err(e) => self.escalate(e),
        }
    }

    /// Fallible [`Communicator::all_to_all_mat`].
    #[track_caller]
    pub fn try_all_to_all_mat(&mut self, outgoing: Vec<Mat>) -> Result<Vec<Mat>, CommError> {
        let g = self.world_size();
        assert_eq!(
            outgoing.len(),
            g,
            "rank {}: all_to_all: need one block per rank ({} given, world size {g})",
            self.rank,
            outgoing.len()
        );
        let mut incoming: Vec<Option<Mat>> = vec![None; g];
        // Schedule sends in an offset pattern (classic balanced exchange).
        let mut keep = None;
        for (d, block) in outgoing.into_iter().enumerate() {
            if d == self.rank {
                keep = Some(block);
            } else {
                let payload = self.mat_payload(block);
                self.try_send(d, payload)?;
            }
        }
        incoming[self.rank] = keep;
        for off in 1..g {
            let src = (self.rank + g - off) % g;
            incoming[src] = Some(self.try_recv_mat(src)?);
        }
        Ok(incoming
            .into_iter()
            .map(|p| p.expect("all_to_all missed a block"))
            .collect())
    }

    /// Broadcast from `root`. Non-root ranks pass `None`.
    #[track_caller]
    pub fn try_broadcast_mat(&mut self, root: usize, m: Option<&Mat>) -> Result<Mat, CommError> {
        if self.rank == root {
            let m = m.unwrap_or_else(|| {
                panic!("rank {}: broadcast: root must supply the matrix", self.rank)
            });
            for dst in 0..self.world_size() {
                if dst != root {
                    self.try_send_mat(dst, m)?;
                }
            }
            Ok(m.clone())
        } else {
            self.try_recv_mat(root)
        }
    }

    /// All-reduce (sum) of a flat vector via gather-broadcast (used for
    /// scalars/short vectors where ring overhead is irrelevant).
    pub fn try_all_reduce_vec(&mut self, v: &[f32]) -> Result<Vec<f32>, CommError> {
        let members: Vec<usize> = (0..self.world_size()).collect();
        leader_all_reduce_vec_on(self, &members, v, Communicator::try_recv_vec)
    }
}

// ----- leader collectives over a member list ------------------------------
//
// One algorithm each for the fixed world (`members` = every rank, `recv` =
// the plain receive) and the shrinking collectives of `crate::membership`
// (`members` = the alive set, `recv` = a receive that retries timeouts).
// `members[0]` leads; followers contribute in ascending member order, so a
// reduction over `k` members sums exactly as a fresh `k`-rank world does.

/// Barrier: every follower sends the leader an empty message, and the
/// leader releases them once all have arrived. Received payloads are
/// ignored.
pub(crate) fn barrier_on(
    comm: &mut Communicator,
    members: &[usize],
    mut recv: impl FnMut(&mut Communicator, usize) -> Result<MsgData, CommError>,
) -> Result<(), CommError> {
    let (&leader, followers) = members.split_first().expect("a barrier needs a member");
    if comm.rank() == leader {
        for &src in followers {
            recv(comm, src)?;
        }
        for &dst in followers {
            comm.try_send(dst, MsgData::Empty)?;
        }
    } else {
        comm.try_send(leader, MsgData::Empty)?;
        recv(comm, leader)?;
    }
    Ok(())
}

/// All-reduce (sum) of a flat vector: gather to the leader, sum in member
/// order, broadcast.
pub(crate) fn leader_all_reduce_vec_on(
    comm: &mut Communicator,
    members: &[usize],
    v: &[f32],
    mut recv: impl FnMut(&mut Communicator, usize) -> Result<Vec<f32>, CommError>,
) -> Result<Vec<f32>, CommError> {
    let (&leader, followers) = members.split_first().expect("a reduction needs a member");
    if comm.rank() != leader {
        comm.try_send_vec(leader, v)?;
        return recv(comm, leader);
    }
    let mut acc = v.to_vec();
    for &src in followers {
        let part = recv(comm, src)?;
        if part.len() != acc.len() {
            return Err(CommError::ShapeMismatch {
                rank: comm.rank(),
                src,
                expected: "all-reduce vector of matching length",
                got: format!("Vec[{}] (expected Vec[{}])", part.len(), acc.len()),
            });
        }
        for (a, p) in acc.iter_mut().zip(&part) {
            *a += p;
        }
    }
    for &dst in followers {
        comm.try_send_vec(dst, &acc)?;
    }
    Ok(acc)
}

/// All-reduce (sum) of a matrix: gather to the leader, sum in member order,
/// broadcast — the path for row counts the ring cannot split evenly.
pub(crate) fn leader_all_reduce_mat_on(
    comm: &mut Communicator,
    members: &[usize],
    m: &Mat,
    mut recv: impl FnMut(&mut Communicator, usize) -> Result<Mat, CommError>,
) -> Result<Mat, CommError> {
    let (&leader, followers) = members.split_first().expect("a reduction needs a member");
    if comm.rank() != leader {
        comm.try_send_mat(leader, m)?;
        return recv(comm, leader);
    }
    let mut acc = m.clone();
    for &src in followers {
        let part = recv(comm, src)?;
        if part.shape() != acc.shape() {
            return Err(CommError::ShapeMismatch {
                rank: comm.rank(),
                src,
                expected: "all-reduce contribution of matching shape",
                got: format!(
                    "Mat {}x{} (expected {}x{})",
                    part.rows(),
                    part.cols(),
                    acc.rows(),
                    acc.cols()
                ),
            });
        }
        acc.add_assign(&part);
    }
    for &dst in followers {
        comm.try_send_mat(dst, &acc)?;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_math_saturates_near_clock_max() {
        // A virtual clock parked near f64::MAX plus a large-but-finite
        // timeout budget must clamp to f64::MAX, not overflow to infinity
        // (which would silently disable the deadline).
        let d = saturating_deadline(f64::MAX, 1e307);
        assert!(d.is_finite(), "finite budget must yield a finite deadline");
        assert_eq!(d, f64::MAX);
        // Ordinary arithmetic is untouched.
        assert_eq!(saturating_deadline(1.5, 2.0), 3.5);
        // An unset (infinite) budget genuinely means "no deadline".
        assert_eq!(saturating_deadline(1e100, f64::INFINITY), f64::INFINITY);
        assert_eq!(saturating_deadline(f64::MAX, f64::INFINITY), f64::INFINITY);
    }

    #[test]
    fn ctrl_messages_have_checksums_and_describe() {
        let c = MsgData::Ctrl(CtrlMsg {
            kind: CtrlKind::Abort,
            epoch: 3,
            suspects: vec![1, 2],
        });
        assert_eq!(c.elems(), 4);
        assert!(c.describe().contains("Abort"));
        let mut tampered = c.clone();
        tampered.corrupt_in_place();
        assert_ne!(c.checksum(), tampered.checksum());
    }
}
