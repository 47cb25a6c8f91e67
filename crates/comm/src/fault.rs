//! Deterministic fault injection: typed communication errors and a seeded
//! [`FaultPlan`] that turns the virtual cluster into a failure testbed.
//!
//! The plan is pure data attached to a [`crate::World`]: it schedules rank
//! crashes (at a virtual time or at the n-th communication operation),
//! per-link extra delay and seeded jitter (stragglers), message drops and
//! payload corruption. Because every trigger is keyed off the deterministic
//! virtual clock and per-link message counters — never off wall time or OS
//! scheduling — the same plan and seed reproduce the same failure, bit for
//! bit, on every run.
//!
//! Failures surface as [`CommError`] values naming the local rank, the peer
//! and the deadline or payload detail involved, instead of context-free
//! panics or deadlocks. The fallible `try_*` operations on
//! [`crate::Communicator`] return them directly;
//! [`crate::World::run_faulty`] collects per-rank `Result`s so one dead
//! rank no longer aborts the whole simulation.

/// A typed communication failure. Every injected fault (crash, timeout,
/// drop, corruption) and every structural misuse (wrong payload kind)
/// resolves to one of these, carrying enough context to attribute the
/// failure to a rank, a peer and a cause.
#[derive(Debug, Clone, PartialEq)]
pub enum CommError {
    /// The peer's rank thread terminated (crashed or returned early) while
    /// `rank` was exchanging data with it. `at` is the observer's virtual
    /// clock when the loss was detected.
    PeerLost { rank: usize, src: usize, at: f64 },
    /// A message from `src` did not arrive by the virtual-clock deadline
    /// (straggler link or dropped packet). `at` is the observer's virtual
    /// clock when the timeout fired.
    Timeout {
        rank: usize,
        src: usize,
        deadline: f64,
        at: f64,
    },
    /// The payload kind or shape did not match what the receiver expected.
    ShapeMismatch {
        rank: usize,
        src: usize,
        expected: &'static str,
        got: String,
    },
    /// The payload failed checksum validation (in-flight corruption).
    Corrupt {
        rank: usize,
        src: usize,
        detail: String,
    },
    /// This rank hit its scheduled [`FaultPlan`] crash point.
    Crashed { rank: usize, at: f64 },
    /// A rank panicked with a payload that was not a [`CommError`]
    /// (collected by [`crate::World::run_faulty`] instead of unwinding).
    Panicked { rank: usize, detail: String },
    /// A control message (abort/eviction traffic from the elastic layer)
    /// arrived where a data payload was expected: peer `src` abandoned the
    /// collective in flight, naming `suspects` as the ranks it believes
    /// dead. The receiver should stop the collective and join the eviction
    /// agreement (see `membership`).
    Aborted {
        rank: usize,
        src: usize,
        epoch: u64,
        suspects: Vec<usize>,
        at: f64,
    },
    /// The alive set changed underneath a shrinking collective: `evicted`
    /// ranks were removed at membership epoch `epoch`. The caller must
    /// re-derive its ring neighbors from the updated membership and re-run.
    Evicted {
        rank: usize,
        epoch: u64,
        evicted: Vec<usize>,
        at: f64,
    },
}

impl CommError {
    /// The rank on which the error was observed.
    pub fn rank(&self) -> usize {
        match self {
            CommError::PeerLost { rank, .. }
            | CommError::Timeout { rank, .. }
            | CommError::ShapeMismatch { rank, .. }
            | CommError::Corrupt { rank, .. }
            | CommError::Crashed { rank, .. }
            | CommError::Panicked { rank, .. }
            | CommError::Aborted { rank, .. }
            | CommError::Evicted { rank, .. } => *rank,
        }
    }

    /// The peer involved, when the failure has one.
    pub fn peer(&self) -> Option<usize> {
        match self {
            CommError::PeerLost { src, .. }
            | CommError::Timeout { src, .. }
            | CommError::ShapeMismatch { src, .. }
            | CommError::Corrupt { src, .. }
            | CommError::Aborted { src, .. } => Some(*src),
            CommError::Crashed { .. } | CommError::Panicked { .. } | CommError::Evicted { .. } => {
                None
            }
        }
    }

    /// The virtual time at which the failure was observed, when known —
    /// pins each rank's failure to the deterministic virtual clock so
    /// eviction decisions and test assertions can reason about *when*, not
    /// just where, a rank died.
    pub fn at_time(&self) -> Option<f64> {
        match self {
            CommError::PeerLost { at, .. }
            | CommError::Timeout { at, .. }
            | CommError::Crashed { at, .. }
            | CommError::Aborted { at, .. }
            | CommError::Evicted { at, .. } => Some(*at),
            CommError::ShapeMismatch { .. }
            | CommError::Corrupt { .. }
            | CommError::Panicked { .. } => None,
        }
    }
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::PeerLost { rank, src, at } => {
                write!(
                    f,
                    "rank {rank}: peer rank {src} terminated (observed at virtual time {at:.6}s)"
                )
            }
            CommError::Timeout {
                rank,
                src,
                deadline,
                at,
            } => write!(
                f,
                "rank {rank}: message from rank {src} missed its virtual deadline \
                 ({deadline:.6}s, observed at {at:.6}s)"
            ),
            CommError::ShapeMismatch {
                rank,
                src,
                expected,
                got,
            } => write!(
                f,
                "rank {rank}: payload from rank {src} has wrong kind/shape: \
                 expected {expected}, got {got}"
            ),
            CommError::Corrupt { rank, src, detail } => {
                write!(f, "rank {rank}: corrupt payload from rank {src}: {detail}")
            }
            CommError::Crashed { rank, at } => {
                write!(f, "rank {rank}: injected crash at virtual time {at:.6}s")
            }
            CommError::Panicked { rank, detail } => {
                write!(f, "rank {rank}: panicked: {detail}")
            }
            CommError::Aborted {
                rank,
                src,
                epoch,
                suspects,
                at,
            } => write!(
                f,
                "rank {rank}: peer rank {src} aborted the collective at epoch {epoch} \
                 suspecting ranks {suspects:?} (observed at {at:.6}s)"
            ),
            CommError::Evicted {
                rank,
                epoch,
                evicted,
                at,
            } => write!(
                f,
                "rank {rank}: membership shrank to epoch {epoch} (evicted ranks \
                 {evicted:?} at virtual time {at:.6}s); re-derive neighbors and re-run"
            ),
        }
    }
}

impl std::error::Error for CommError {}

/// When a scheduled crash fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CrashAt {
    /// Crash at the n-th communication operation (send or receive,
    /// 0-based) on that rank.
    Op(u64),
}

/// The direction of a scheduled elastic membership change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnKind {
    /// The rank departs the training ring before executing the step.
    Leave,
    /// The rank petitions the leader for re-admission before the step.
    Join,
}

/// One scheduled membership event: before executing `step`, `rank` either
/// leaves the training ring or petitions to rejoin it. Joins at a step are
/// processed before leaves at the same step, so a valid schedule requires a
/// rank's rejoin step to be strictly greater than its departure step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    pub step: u64,
    pub rank: usize,
    pub kind: ChurnKind,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct LinkFault {
    src: usize,
    dst: usize,
    /// Deterministic extra one-way latency on every message (straggler).
    extra_latency: f64,
    /// Amplitude of seeded per-message jitter added on top (uniform in
    /// `[0, jitter]`, derived from the plan seed and the message index).
    jitter: f64,
}

/// A directed link outage window: every message departing on `src → dst`
/// within `[from, until)` of virtual time is lost on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FlapWindow {
    src: usize,
    dst: usize,
    from: f64,
    until: f64,
}

/// A network partition window: messages crossing between two different
/// `groups` within `[from, until)` of virtual time are lost in both
/// directions. Ranks not listed in any group form one implicit group of
/// their own (so `partition(&[&[0, 1]], ..)` cuts `{0, 1}` off from
/// everyone else).
#[derive(Debug, Clone, PartialEq)]
struct PartitionWindow {
    groups: Vec<Vec<usize>>,
    from: f64,
    until: f64,
}

impl PartitionWindow {
    fn group_of(&self, rank: usize) -> usize {
        self.groups
            .iter()
            .position(|g| g.contains(&rank))
            .unwrap_or(usize::MAX)
    }
}

/// Why the wire lost a physical transmission — reported so the fault
/// counters can split "a packet vanished" from "the link was down".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossKind {
    /// A per-index drop trigger or burst-drop window fired.
    Drop,
    /// The message departed inside a link-flap outage window.
    Flap,
    /// The message crossed a partition boundary during a partition window.
    Partition,
}

/// SplitMix64: a tiny, high-quality deterministic mixer — all jitter
/// randomness derives from it so a plan's seed fully determines the run.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded, deterministic schedule of injected faults.
///
/// Built with a fluent API and attached to a [`crate::World`] via
/// [`crate::World::with_faults`]:
///
/// ```
/// use burst_comm::{FaultPlan, Topology, World};
/// let plan = FaultPlan::new(42)
///     .crash_at_op(2, 8)            // rank 2 dies at its 9th comm op
///     .delay_link(0, 1, 5e-3, 1e-4) // straggler NIC with jitter
///     .drop_msg(1, 0, 3)            // 4th message on link 1→0 vanishes
///     .recv_deadline(1e-3);         // virtual-clock receive timeout
/// let world = World::with_faults(Topology::single_node(4), plan);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    crashes: Vec<(usize, CrashAt)>,
    links: Vec<LinkFault>,
    drops: Vec<(usize, usize, u64)>,
    corrupts: Vec<(usize, usize, u64)>,
    recv_deadline: Option<f64>,
    /// Compute-side gradient poisoning: (rank, step, micro-batch, value)
    /// overwrites one gradient entry with `value` (NaN/Inf) after that
    /// micro-batch's backward pass.
    poisons: Vec<(usize, u64, u64, f32)>,
    /// Compute-side stragglers: (rank, factor) multiplies every
    /// `advance_compute` on that rank by `factor` (slow kernel).
    slowdowns: Vec<(usize, f64)>,
    /// Elastic membership schedule: voluntary leaves and rejoin petitions
    /// keyed off the training step counter (see [`ChurnEvent`]).
    churn: Vec<ChurnEvent>,
    /// Burst-drop windows: `(src, dst, from_index, count)` discards that
    /// many consecutive messages on the link starting at `from_index`.
    drop_windows: Vec<(usize, usize, u64, u64)>,
    /// Directed link-flap outage windows on the virtual clock.
    flaps: Vec<FlapWindow>,
    /// Network partition windows on the virtual clock.
    partitions: Vec<PartitionWindow>,
    /// Reliable-delivery transport (ack/retransmit below the comm API).
    /// `None` = the pre-transport wire: every loss surfaces to the
    /// receiver and escalation is immediate.
    transport: Option<crate::transport::TransportPolicy>,
    /// Failure-detector thresholds (always consulted before a timed-out
    /// peer is reported to the membership agreement; the default config
    /// reproduces the retry policy's escalation timing exactly).
    detector: Option<crate::transport::DetectorCfg>,
}

impl FaultPlan {
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Schedule `rank` to crash at its `op`-th communication operation
    /// (sends and receives both count, 0-based).
    pub fn crash_at_op(mut self, rank: usize, op: u64) -> Self {
        self.crashes.push((rank, CrashAt::Op(op)));
        self
    }

    /// Add `extra_latency` seconds (plus seeded jitter in `[0, jitter]`)
    /// to every message on the directed link `src → dst` (a straggler NIC).
    pub fn delay_link(mut self, src: usize, dst: usize, extra_latency: f64, jitter: f64) -> Self {
        self.links.push(LinkFault {
            src,
            dst,
            extra_latency,
            jitter,
        });
        self
    }

    /// Drop the `index`-th message (0-based) sent on the directed link
    /// `src → dst`. The receiver observes a virtual-deadline timeout
    /// instead of the payload.
    pub fn drop_msg(mut self, src: usize, dst: usize, index: u64) -> Self {
        self.drops.push((src, dst, index));
        self
    }

    /// Corrupt the payload of the `index`-th message on `src → dst`; the
    /// receiver's checksum validation reports it as [`CommError::Corrupt`].
    pub fn corrupt_msg(mut self, src: usize, dst: usize, index: u64) -> Self {
        self.corrupts.push((src, dst, index));
        self
    }

    /// Drop `count` consecutive messages on `src → dst` starting at
    /// message `from_index` (a burst-drop window — congestion shedding a
    /// whole train of packets).
    pub fn drop_burst(mut self, src: usize, dst: usize, from_index: u64, count: u64) -> Self {
        self.drop_windows.push((src, dst, from_index, count));
        self
    }

    /// Take the directed link `src → dst` down for virtual time
    /// `[from, until)`: every message *departing* in that window is lost.
    /// With a reliable transport whose retry budget outlives the window,
    /// the flap heals invisibly; without one, each lost message surfaces
    /// as a receive timeout.
    pub fn flap_link(mut self, src: usize, dst: usize, from: f64, until: f64) -> Self {
        assert!(from <= until, "flap window must have from <= until");
        self.flaps.push(FlapWindow {
            src,
            dst,
            from,
            until,
        });
        self
    }

    /// Partition the cluster for virtual time `[from, until)`: messages
    /// crossing between different `groups` are lost in both directions.
    /// Ranks not listed in any group form one implicit group of their own.
    pub fn partition(mut self, groups: &[&[usize]], from: f64, until: f64) -> Self {
        assert!(from <= until, "partition window must have from <= until");
        self.partitions.push(PartitionWindow {
            groups: groups.iter().map(|g| g.to_vec()).collect(),
            from,
            until,
        });
        self
    }

    /// Enable the reliable-delivery transport with default policy: lost or
    /// corrupted transmissions are retransmitted on a seeded RTO schedule
    /// instead of surfacing to the receiver (see [`crate::transport`]).
    pub fn reliable(self) -> Self {
        self.with_transport(crate::transport::TransportPolicy::default())
    }

    /// Enable the reliable-delivery transport with an explicit policy.
    pub fn with_transport(mut self, policy: crate::transport::TransportPolicy) -> Self {
        self.transport = Some(policy);
        self
    }

    /// Override the failure detector's thresholds (defaults reproduce the
    /// retry policy's escalation timing; see
    /// [`crate::transport::DetectorCfg`]).
    pub fn with_detector(mut self, cfg: crate::transport::DetectorCfg) -> Self {
        self.detector = Some(cfg);
        self
    }

    /// The reliable-transport policy, if enabled.
    pub fn transport(&self) -> Option<crate::transport::TransportPolicy> {
        self.transport
    }

    /// The failure-detector configuration (defaults when not overridden).
    pub fn detector_cfg(&self) -> crate::transport::DetectorCfg {
        self.detector.unwrap_or_default()
    }

    /// Overwrite one gradient entry on `rank` with `value` (typically NaN
    /// or Inf) after the backward pass of micro-batch 0 of step `step` — a
    /// compute-side fault: the communication layer stays healthy but the
    /// numerics go bad.
    pub fn poison_grad(self, rank: usize, step: u64, value: f32) -> Self {
        self.poison_grad_micro(rank, step, 0, value)
    }

    /// Like [`FaultPlan::poison_grad`], but targets a specific micro-batch
    /// within the step (for gradient-accumulation runs).
    pub fn poison_grad_micro(mut self, rank: usize, step: u64, micro: u64, value: f32) -> Self {
        self.poisons.push((rank, step, micro, value));
        self
    }

    /// Multiply every compute advance on `rank` by `factor` — a slow-kernel
    /// straggler that stretches the rank's virtual compute time without
    /// touching any link.
    pub fn slow_compute(mut self, rank: usize, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 1.0,
            "slowdown factor must be a finite value >= 1, got {factor}"
        );
        self.slowdowns.push((rank, factor));
        self
    }

    /// The poison value scheduled for (`rank`, `step`, `micro`), if any.
    pub fn grad_poison(&self, rank: usize, step: u64, micro: u64) -> Option<f32> {
        self.poisons
            .iter()
            .find(|&&(r, s, m, _)| (r, s, m) == (rank, step, micro))
            .map(|&(_, _, _, v)| v)
    }

    /// Whether any gradient poison is scheduled for `rank` at all — lets
    /// the training loop skip per-micro gradient snapshots on clean runs.
    pub fn has_poisons(&self, rank: usize) -> bool {
        self.poisons.iter().any(|&(r, ..)| r == rank)
    }

    /// The compute-slowdown factor for `rank` (1.0 when unaffected).
    pub fn compute_slowdown(&self, rank: usize) -> f64 {
        self.slowdowns
            .iter()
            .filter(|&&(r, _)| r == rank)
            .map(|&(_, f)| f)
            .product::<f64>()
            .max(1.0)
    }

    /// Schedule `rank` to leave the training ring voluntarily just before
    /// executing `step` (0-based). The survivors agree on the departure,
    /// bump the membership epoch, and continue on the shrunken ring; the
    /// leaver parks until (and unless) a matching [`FaultPlan::join_at`] is
    /// scheduled.
    pub fn leave_at(mut self, rank: usize, step: u64) -> Self {
        self.churn.push(ChurnEvent {
            step,
            rank,
            kind: ChurnKind::Leave,
        });
        self
    }

    /// Schedule parked `rank` to petition for re-admission just before
    /// executing `step`. Must come strictly after the rank's departure
    /// (joins at a step are processed before leaves at the same step).
    pub fn join_at(mut self, rank: usize, step: u64) -> Self {
        self.churn.push(ChurnEvent {
            step,
            rank,
            kind: ChurnKind::Join,
        });
        self
    }

    /// Generate a seeded leave/join storm: `events` membership changes
    /// spread over training steps `1..steps`, Poisson-flavoured in that
    /// event kinds and victims are drawn from the plan's deterministic
    /// mixer. The generator enforces validity — a rank leaves only while
    /// present, rejoins only strictly after it left, rank 0 never departs
    /// (so the leader every parked rank petitions stays stable), and at
    /// least two ranks remain present at all times.
    pub fn churn_storm(mut self, world: usize, steps: u64, events: usize) -> Self {
        assert!(world >= 3, "churn storm needs >= 3 ranks, got {world}");
        assert!(steps >= 2, "churn storm needs >= 2 steps, got {steps}");
        let mut state = self.seed ^ 0x00c0_ffee_c0ff_ee00;
        let mut roll = move || {
            state = splitmix64(state);
            state
        };
        let mut present = vec![true; world];
        // The step each absent rank left at, to keep rejoins strictly later.
        let mut left_at = vec![0u64; world];
        for i in 0..events as u64 {
            // Non-decreasing spread of the events over the horizon.
            let step = 1 + i * (steps - 1) / events as u64;
            let absent: Vec<usize> = (0..world)
                .filter(|&r| !present[r] && left_at[r] < step)
                .collect();
            let n_present = present.iter().filter(|&&p| p).count();
            let leavable: Vec<usize> = (1..world)
                .filter(|&r| present[r] && n_present > 2)
                .collect();
            let leave = if absent.is_empty() {
                true
            } else if leavable.is_empty() {
                false
            } else {
                roll() % 2 == 0
            };
            if leave {
                let r = leavable[(roll() % leavable.len() as u64) as usize];
                present[r] = false;
                left_at[r] = step;
                self.churn.push(ChurnEvent {
                    step,
                    rank: r,
                    kind: ChurnKind::Leave,
                });
            } else {
                let r = absent[(roll() % absent.len() as u64) as usize];
                present[r] = true;
                self.churn.push(ChurnEvent {
                    step,
                    rank: r,
                    kind: ChurnKind::Join,
                });
            }
        }
        self
    }

    /// The full churn schedule, in insertion (= step) order.
    pub fn churn_events(&self) -> &[ChurnEvent] {
        &self.churn
    }

    /// Whether any elastic membership events are scheduled at all.
    pub fn has_churn(&self) -> bool {
        !self.churn.is_empty()
    }

    /// Ranks scheduled to leave just before `step`, ascending.
    pub fn leaves_at(&self, step: u64) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .churn
            .iter()
            .filter(|e| e.kind == ChurnKind::Leave && e.step == step)
            .map(|e| e.rank)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Ranks scheduled to petition for re-admission just before `step`,
    /// ascending.
    pub fn joins_at(&self, step: u64) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .churn
            .iter()
            .filter(|e| e.kind == ChurnKind::Join && e.step == step)
            .map(|e| e.rank)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The step at which parked `rank` is scheduled to rejoin after having
    /// left at `after` (the earliest join strictly later than `after`), if
    /// any — what a departed rank consults to know when to petition.
    pub fn rejoin_step(&self, rank: usize, after: u64) -> Option<u64> {
        self.churn
            .iter()
            .filter(|e| e.kind == ChurnKind::Join && e.rank == rank && e.step > after)
            .map(|e| e.step)
            .min()
    }

    /// Set the virtual-clock receive deadline: a `try_recv` whose message
    /// arrives more than `seconds` of virtual time after the receive was
    /// posted fails with [`CommError::Timeout`]. Default: no deadline.
    pub fn recv_deadline(mut self, seconds: f64) -> Self {
        self.recv_deadline = Some(seconds);
        self
    }

    /// The configured virtual receive deadline (`INFINITY` when unset).
    pub fn deadline_secs(&self) -> f64 {
        self.recv_deadline.unwrap_or(f64::INFINITY)
    }

    /// The crash trigger for `rank`, if one is scheduled.
    pub(crate) fn crash_trigger(&self, rank: usize) -> Option<CrashAt> {
        self.crashes
            .iter()
            .find(|(r, _)| *r == rank)
            .map(|(_, at)| *at)
    }

    /// Deterministic extra latency for message `index` on `src → dst`.
    pub(crate) fn extra_latency(&self, src: usize, dst: usize, index: u64) -> f64 {
        let mut extra = 0.0;
        for l in &self.links {
            if l.src == src && l.dst == dst {
                extra += l.extra_latency;
                if l.jitter > 0.0 {
                    let h = splitmix64(
                        self.seed
                            ^ (src as u64).wrapping_mul(0x100_0001)
                            ^ (dst as u64).wrapping_mul(0x1_0000_01b3)
                            ^ index.wrapping_mul(0x9e3779b1),
                    );
                    extra += l.jitter * (h >> 11) as f64 / (1u64 << 53) as f64;
                }
            }
        }
        extra
    }

    pub(crate) fn should_drop(&self, src: usize, dst: usize, index: u64) -> bool {
        self.drops
            .iter()
            .any(|&(s, d, i)| (s, d, i) == (src, dst, index))
    }

    pub(crate) fn should_corrupt(&self, src: usize, dst: usize, index: u64) -> bool {
        self.corrupts
            .iter()
            .any(|&(s, d, i)| (s, d, i) == (src, dst, index))
    }

    /// Whether — and why — the wire loses a physical transmission of
    /// message `index` on `src → dst` departing at virtual time `at`.
    /// Keying flap/partition windows off the *departure* time is what lets
    /// a retransmitting transport outlive them: each RTO backoff pushes
    /// the next attempt's departure later until it clears the window.
    pub(crate) fn link_loss(
        &self,
        src: usize,
        dst: usize,
        index: u64,
        at: f64,
    ) -> Option<LossKind> {
        if self.should_drop(src, dst, index) {
            return Some(LossKind::Drop);
        }
        if self
            .drop_windows
            .iter()
            .any(|&(s, d, f, c)| s == src && d == dst && index >= f && index < f.saturating_add(c))
        {
            return Some(LossKind::Drop);
        }
        if self
            .flaps
            .iter()
            .any(|w| w.src == src && w.dst == dst && at >= w.from && at < w.until)
        {
            return Some(LossKind::Flap);
        }
        if self
            .partitions
            .iter()
            .any(|p| at >= p.from && at < p.until && p.group_of(src) != p.group_of(dst))
        {
            return Some(LossKind::Partition);
        }
        None
    }

    /// Whether the plan schedules any transient wire faults at all (used
    /// by docs/tests to label all-transient plans).
    pub fn has_transient_faults(&self) -> bool {
        !self.drops.is_empty()
            || !self.corrupts.is_empty()
            || !self.drop_windows.is_empty()
            || !self.flaps.is_empty()
            || !self.partitions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let plan = FaultPlan::new(7).delay_link(0, 1, 1e-3, 5e-4);
        for idx in 0..32 {
            let a = plan.extra_latency(0, 1, idx);
            let b = plan.extra_latency(0, 1, idx);
            assert_eq!(a, b, "same seed and index must give identical jitter");
            assert!((1e-3..1e-3 + 5e-4).contains(&a));
        }
        // Different indices produce different jitter (with overwhelming
        // probability for this seed).
        assert_ne!(plan.extra_latency(0, 1, 0), plan.extra_latency(0, 1, 1));
        // Unaffected links see no delay.
        assert_eq!(plan.extra_latency(1, 0, 0), 0.0);
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::new(1).delay_link(0, 1, 0.0, 1e-3);
        let b = FaultPlan::new(2).delay_link(0, 1, 0.0, 1e-3);
        assert_ne!(a.extra_latency(0, 1, 0), b.extra_latency(0, 1, 0));
    }

    #[test]
    fn triggers_match_exact_messages() {
        let plan = FaultPlan::new(0).drop_msg(2, 3, 5).corrupt_msg(3, 2, 1);
        assert!(plan.should_drop(2, 3, 5));
        assert!(!plan.should_drop(2, 3, 4));
        assert!(!plan.should_drop(3, 2, 5));
        assert!(plan.should_corrupt(3, 2, 1));
        assert!(!plan.should_corrupt(3, 2, 0));
    }

    #[test]
    fn error_accessors_report_rank_and_peer() {
        let e = CommError::Timeout {
            rank: 3,
            src: 1,
            deadline: 0.5,
            at: 0.75,
        };
        assert_eq!(e.rank(), 3);
        assert_eq!(e.peer(), Some(1));
        assert_eq!(e.at_time(), Some(0.75));
        assert!(format!("{e}").contains("rank 3"));
        assert!(format!("{e}").contains("rank 1"));
        let c = CommError::Crashed { rank: 2, at: 1.0 };
        assert_eq!(c.peer(), None);
        assert_eq!(c.at_time(), Some(1.0));
        let a = CommError::Aborted {
            rank: 0,
            src: 2,
            epoch: 1,
            suspects: vec![3],
            at: 2.5,
        };
        assert_eq!(a.peer(), Some(2));
        assert_eq!(a.at_time(), Some(2.5));
        let v = CommError::Evicted {
            rank: 0,
            epoch: 2,
            evicted: vec![1, 3],
            at: 3.0,
        };
        assert_eq!(v.peer(), None);
        assert!(format!("{v}").contains("epoch 2"));
    }

    #[test]
    fn churn_schedule_is_queryable_per_step() {
        let plan = FaultPlan::new(3)
            .leave_at(2, 4)
            .leave_at(1, 4)
            .join_at(2, 7)
            .join_at(1, 9);
        assert!(plan.has_churn());
        assert_eq!(plan.leaves_at(4), vec![1, 2]);
        assert_eq!(plan.leaves_at(5), Vec::<usize>::new());
        assert_eq!(plan.joins_at(7), vec![2]);
        assert_eq!(plan.joins_at(9), vec![1]);
        assert_eq!(plan.rejoin_step(2, 4), Some(7));
        assert_eq!(plan.rejoin_step(1, 4), Some(9));
        assert_eq!(plan.rejoin_step(1, 9), None);
        assert_eq!(plan.churn_events().len(), 4);
        assert!(!FaultPlan::new(0).has_churn());
    }

    #[test]
    fn churn_storm_is_deterministic_and_valid() {
        for seed in [7u64, 23, 42, 1234] {
            let a = FaultPlan::new(seed).churn_storm(6, 24, 8);
            let b = FaultPlan::new(seed).churn_storm(6, 24, 8);
            assert_eq!(a.churn_events(), b.churn_events());
            assert_eq!(a.churn_events().len(), 8);

            // Replay the schedule and check every validity invariant.
            let mut present = [true; 6];
            let mut left_at = [0u64; 6];
            let mut last_step = 0u64;
            for e in a.churn_events() {
                assert!(e.step >= last_step, "events must be step-ordered");
                last_step = e.step;
                assert!(e.step >= 1 && e.step < 24);
                match e.kind {
                    ChurnKind::Leave => {
                        assert_ne!(e.rank, 0, "rank 0 must never depart");
                        assert!(present[e.rank], "only present ranks may leave");
                        present[e.rank] = false;
                        left_at[e.rank] = e.step;
                        let n = present.iter().filter(|&&p| p).count();
                        assert!(n >= 2, "membership must never shrink below 2");
                    }
                    ChurnKind::Join => {
                        assert!(!present[e.rank], "only absent ranks may join");
                        assert!(
                            e.step > left_at[e.rank],
                            "rejoin must be strictly after departure"
                        );
                        present[e.rank] = true;
                    }
                }
            }
        }
        // Different seeds give different storms (for these seeds).
        let a = FaultPlan::new(7).churn_storm(6, 24, 8);
        let b = FaultPlan::new(8).churn_storm(6, 24, 8);
        assert_ne!(a.churn_events(), b.churn_events());
    }

    #[test]
    fn burst_windows_flaps_and_partitions_trigger_precisely() {
        let plan = FaultPlan::new(5)
            .drop_burst(0, 1, 4, 3)
            .flap_link(2, 3, 1e-3, 2e-3)
            .partition(&[&[0, 1]], 5e-3, 6e-3);
        assert!(plan.has_transient_faults());
        // Burst window covers indices [4, 7) on 0→1 only.
        assert_eq!(plan.link_loss(0, 1, 3, 0.0), None);
        assert_eq!(plan.link_loss(0, 1, 4, 0.0), Some(LossKind::Drop));
        assert_eq!(plan.link_loss(0, 1, 6, 0.0), Some(LossKind::Drop));
        assert_eq!(plan.link_loss(0, 1, 7, 0.0), None);
        assert_eq!(plan.link_loss(1, 0, 5, 0.0), None);
        // Flap is directed and keyed off departure time, half-open window.
        assert_eq!(plan.link_loss(2, 3, 0, 0.5e-3), None);
        assert_eq!(plan.link_loss(2, 3, 0, 1e-3), Some(LossKind::Flap));
        assert_eq!(plan.link_loss(2, 3, 0, 1.9e-3), Some(LossKind::Flap));
        assert_eq!(plan.link_loss(2, 3, 0, 2e-3), None);
        assert_eq!(plan.link_loss(3, 2, 0, 1.5e-3), None);
        // Partition cuts {0,1} from the implicit rest, both directions.
        assert_eq!(plan.link_loss(0, 2, 0, 5.5e-3), Some(LossKind::Partition));
        assert_eq!(plan.link_loss(2, 1, 0, 5.5e-3), Some(LossKind::Partition));
        assert_eq!(plan.link_loss(0, 1, 0, 5.5e-3), None, "same group stays up");
        assert_eq!(
            plan.link_loss(2, 3, 0, 5.5e-3),
            None,
            "implicit group stays up"
        );
        assert_eq!(plan.link_loss(0, 2, 0, 6e-3), None, "window is half-open");
        // Per-index drops still report as plain drops.
        let p2 = FaultPlan::new(0).drop_msg(1, 2, 9);
        assert_eq!(p2.link_loss(1, 2, 9, 0.0), Some(LossKind::Drop));
        assert!(!FaultPlan::new(0).has_transient_faults());
    }

    #[test]
    fn transport_and_detector_are_opt_in() {
        let plain = FaultPlan::new(1);
        assert!(plain.transport().is_none());
        assert_eq!(
            plain.detector_cfg(),
            crate::transport::DetectorCfg::default()
        );
        let reliable = FaultPlan::new(1).reliable();
        assert_eq!(
            reliable.transport(),
            Some(crate::transport::TransportPolicy::default())
        );
        let strict = FaultPlan::new(1).with_detector(crate::transport::DetectorCfg {
            fail_threshold: Some(7),
            ..Default::default()
        });
        assert_eq!(strict.detector_cfg().fail_threshold, Some(7));
    }

    #[test]
    fn compute_faults_are_queried_per_rank_and_step() {
        let plan = FaultPlan::new(9)
            .poison_grad(1, 4, f32::NAN)
            .poison_grad_micro(2, 0, 1, f32::INFINITY)
            .slow_compute(3, 2.5);
        assert!(plan.grad_poison(1, 4, 0).unwrap().is_nan());
        assert_eq!(plan.grad_poison(2, 0, 1), Some(f32::INFINITY));
        assert_eq!(plan.grad_poison(0, 4, 0), None);
        assert_eq!(plan.grad_poison(1, 3, 0), None);
        assert_eq!(plan.compute_slowdown(3), 2.5);
        assert_eq!(plan.compute_slowdown(0), 1.0);
    }
}
