//! Per-rank **virtual-memory accountant**: a deterministic allocation
//! ledger on the same virtual clock the span layer observes.
//!
//! The simulator executes real numerics but its Rust heap is not the
//! quantity the paper reports — peak bytes *per GPU* is. The accountant
//! therefore models the steady-state semantic footprint of each layer:
//! every long-lived buffer a schedule holds (accumulators, circulating
//! ring bundles, checkpoint stashes, parameter/optimizer state) registers
//! one [`MemEntry`] — category × bytes × virtual-time interval — whose
//! size comes from the live matrix dimensions at the hook site. Transient,
//! clock-driven occupancy (bytes in flight on the wire, the reliable
//! transport's retransmit queue) is charged on *lanes only*: a current /
//! peak counter plus a pending-release min-heap, with **zero ledger
//! entries**, so a steady-state ring round appends nothing to the ledger
//! (the reuse contract the zero-alloc tests pin).
//!
//! Like the span sink, the ledger is strictly an observer: recording never
//! touches the virtual clock, so enabling accounting is bit-identical to
//! running without it.
//!
//! Categories split into two classes:
//!
//! * **gated** — deterministic functions of (schedule, dims, dtype): the
//!   measured per-category peak must equal `burst-perf`'s
//!   `exact_peak_bytes_dtype` census *exactly*;
//! * **ungated** — time-dependent (in-flight wire bytes, retransmit queue)
//!   or host-dependent (kernel workspace after autotuning): measured and
//!   exported, but excluded from the exact gate.

use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Number of [`MemCategory`] variants (array-lane indexing).
pub const MEM_CATEGORIES: usize = 10;

/// What an allocation *is*, in the paper's memory-decomposition terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemCategory {
    /// Model parameters (possibly FSDP-sharded).
    Params,
    /// Parameter gradients.
    Grads,
    /// Optimizer state (Adam moments, master weights).
    OptimState,
    /// Forward activations and gradient accumulators of a schedule.
    Activations,
    /// Activation-checkpoint stashes (f32 or bf16 storage).
    CkptStash,
    /// The rank's resident K/V/Q/O sequence shards.
    RingShards,
    /// Communication staging: circulating ring bundles, all-to-all
    /// send/recv staging, FSDP gather buffers.
    CommBuffers,
    /// Bytes in flight on this rank's egress ports (lane-only, ungated).
    InFlight,
    /// The reliable transport's retransmit queue (lane-only, ungated).
    RetransQueue,
    /// Kernel scratch workspace — autotuned tile sizes are host-dependent,
    /// so this lane is measured but ungated.
    Workspace,
}

impl MemCategory {
    pub const ALL: [MemCategory; MEM_CATEGORIES] = [
        MemCategory::Params,
        MemCategory::Grads,
        MemCategory::OptimState,
        MemCategory::Activations,
        MemCategory::CkptStash,
        MemCategory::RingShards,
        MemCategory::CommBuffers,
        MemCategory::InFlight,
        MemCategory::RetransQueue,
        MemCategory::Workspace,
    ];

    /// Stable lane index (array slot in the ledger and in [`PeakBytes`]).
    pub fn lane(self) -> usize {
        match self {
            MemCategory::Params => 0,
            MemCategory::Grads => 1,
            MemCategory::OptimState => 2,
            MemCategory::Activations => 3,
            MemCategory::CkptStash => 4,
            MemCategory::RingShards => 5,
            MemCategory::CommBuffers => 6,
            MemCategory::InFlight => 7,
            MemCategory::RetransQueue => 8,
            MemCategory::Workspace => 9,
        }
    }

    /// Short lowercase label, used in exports and counter-track names.
    pub fn label(self) -> &'static str {
        match self {
            MemCategory::Params => "params",
            MemCategory::Grads => "grads",
            MemCategory::OptimState => "optim_state",
            MemCategory::Activations => "activations",
            MemCategory::CkptStash => "ckpt_stash",
            MemCategory::RingShards => "ring_shards",
            MemCategory::CommBuffers => "comm_buffers",
            MemCategory::InFlight => "in_flight",
            MemCategory::RetransQueue => "retrans_queue",
            MemCategory::Workspace => "workspace",
        }
    }

    /// Whether this category participates in the exact measured-vs-analytic
    /// peak-bytes gate.
    pub fn is_gated(self) -> bool {
        !matches!(
            self,
            MemCategory::InFlight | MemCategory::RetransQueue | MemCategory::Workspace
        )
    }
}

/// Handle to an open ledger entry (index into the entry vector).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemId(pub u32);

/// One named allocation interval on the virtual clock.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemEntry {
    pub name: String,
    pub cat: MemCategory,
    pub bytes: u64,
    /// Virtual time the buffer became live.
    pub open: f64,
    /// Virtual time it was freed; `None` while live (force-closed with a
    /// warning by [`MemLedger::finish`]).
    pub close: Option<f64>,
}

/// Per-category peak bytes — the census row both the measured ledger and
/// `burst-perf`'s analytic `exact_peak_bytes_dtype` produce, so equality is a
/// plain `==`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PeakBytes {
    pub params: u64,
    pub grads: u64,
    pub optim_state: u64,
    pub activations: u64,
    pub ckpt_stash: u64,
    pub ring_shards: u64,
    pub comm_buffers: u64,
    pub in_flight: u64,
    pub retrans_queue: u64,
    pub workspace: u64,
    /// Peak of the *sum* over gated categories (the per-GPU headline
    /// number). Tracked live, not a sum of per-category peaks — category
    /// peaks need not coincide in time.
    pub gated_total: u64,
}

impl PeakBytes {
    pub fn get(&self, cat: MemCategory) -> u64 {
        match cat {
            MemCategory::Params => self.params,
            MemCategory::Grads => self.grads,
            MemCategory::OptimState => self.optim_state,
            MemCategory::Activations => self.activations,
            MemCategory::CkptStash => self.ckpt_stash,
            MemCategory::RingShards => self.ring_shards,
            MemCategory::CommBuffers => self.comm_buffers,
            MemCategory::InFlight => self.in_flight,
            MemCategory::RetransQueue => self.retrans_queue,
            MemCategory::Workspace => self.workspace,
        }
    }

    pub fn set(&mut self, cat: MemCategory, v: u64) {
        match cat {
            MemCategory::Params => self.params = v,
            MemCategory::Grads => self.grads = v,
            MemCategory::OptimState => self.optim_state = v,
            MemCategory::Activations => self.activations = v,
            MemCategory::CkptStash => self.ckpt_stash = v,
            MemCategory::RingShards => self.ring_shards = v,
            MemCategory::CommBuffers => self.comm_buffers = v,
            MemCategory::InFlight => self.in_flight = v,
            MemCategory::RetransQueue => self.retrans_queue = v,
            MemCategory::Workspace => self.workspace = v,
        }
    }

    /// The gated sub-census (ungated lanes zeroed) — what the exact gate
    /// compares.
    pub fn gated(&self) -> PeakBytes {
        PeakBytes {
            in_flight: 0,
            retrans_queue: 0,
            workspace: 0,
            ..*self
        }
    }

    /// Element-wise max across ranks (each field merges like a gauge).
    pub fn merge_max(&mut self, other: &PeakBytes) {
        for cat in MemCategory::ALL {
            self.set(cat, self.get(cat).max(other.get(cat)));
        }
        self.gated_total = self.gated_total.max(other.gated_total);
    }
}

/// The per-rank ledger. One per rank thread, owned by the communicator —
/// no locks, no sharing, never touches the clock.
#[derive(Debug)]
pub struct MemLedger {
    rank: usize,
    entries: Vec<MemEntry>,
    cur: [u64; MEM_CATEGORIES],
    peak: [u64; MEM_CATEGORIES],
    /// Live sum over gated categories and its peak.
    cur_gated: u64,
    peak_gated: u64,
    /// Scheduled lane releases: `(virtual release time as sortable bits,
    /// lane, bytes)`. Drained whenever the ledger observes a later time.
    pending: BinaryHeap<Reverse<(u64, usize, u64)>>,
    allocated: u64,
    freed: u64,
}

/// Nonnegative f64 → order-preserving u64 key (virtual clocks start at 0).
fn time_key(t: f64) -> u64 {
    debug_assert!(t >= 0.0 && t.is_finite(), "virtual time {t} not sortable");
    t.to_bits()
}

impl MemLedger {
    pub fn new(rank: usize) -> Self {
        MemLedger {
            rank,
            entries: Vec::with_capacity(64),
            cur: [0; MEM_CATEGORIES],
            peak: [0; MEM_CATEGORIES],
            cur_gated: 0,
            peak_gated: 0,
            pending: BinaryHeap::with_capacity(16),
            allocated: 0,
            freed: 0,
        }
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Release every pending lane charge whose release time is ≤ `now`.
    /// Releases are applied before any same-instant charge, so the peak of
    /// a lane is the exact peak of its step function.
    fn drain(&mut self, now: f64) {
        let key = time_key(now);
        while let Some(Reverse((t, lane, bytes))) = self.pending.peek().copied() {
            if t > key {
                break;
            }
            self.pending.pop();
            self.cur[lane] -= bytes;
        }
    }

    fn raise(&mut self, lane: usize, bytes: u64, gated: bool) {
        self.cur[lane] += bytes;
        if self.cur[lane] > self.peak[lane] {
            self.peak[lane] = self.cur[lane];
        }
        if gated {
            self.cur_gated += bytes;
            if self.cur_gated > self.peak_gated {
                self.peak_gated = self.cur_gated;
            }
        }
    }

    /// Register a named buffer of `bytes` becoming live at `now`.
    pub fn alloc(&mut self, name: &str, cat: MemCategory, bytes: u64, now: f64) -> MemId {
        self.drain(now);
        let id = MemId(self.entries.len() as u32);
        self.entries.push(MemEntry {
            name: name.to_string(),
            cat,
            bytes,
            open: now,
            close: None,
        });
        self.allocated += bytes;
        self.raise(cat.lane(), bytes, cat.is_gated());
        id
    }

    /// Close entry `id` at `now`. Double frees panic (accounting bugs must
    /// not silently unbalance the ledger).
    pub fn free(&mut self, id: MemId, now: f64) {
        self.drain(now);
        let e = &mut self.entries[id.0 as usize];
        assert!(
            e.close.is_none(),
            "rank {}: mem entry `{}` freed twice",
            self.rank,
            e.name
        );
        e.close = Some(now);
        let (lane, bytes, gated) = (e.cat.lane(), e.bytes, e.cat.is_gated());
        self.freed += bytes;
        self.cur[lane] -= bytes;
        if gated {
            self.cur_gated -= bytes;
        }
    }

    /// Lane-only charge of `bytes` on `[now, release)`: no ledger entry, so
    /// steady-state traffic leaves the entry vector untouched. Used for the
    /// in-flight and retransmit-queue lanes.
    pub fn charge_until(&mut self, cat: MemCategory, bytes: u64, now: f64, release: f64) {
        self.drain(now);
        self.raise(cat.lane(), bytes, cat.is_gated());
        self.pending
            .push(Reverse((time_key(release.max(now)), cat.lane(), bytes)));
    }

    /// Raise a lane's peak to at least `bytes` without touching its current
    /// level — for workspaces whose high-water mark is read off at the end
    /// of a pass.
    pub fn note_peak(&mut self, cat: MemCategory, bytes: u64) {
        let lane = cat.lane();
        if bytes > self.peak[lane] {
            self.peak[lane] = bytes;
        }
    }

    /// Number of ledger entries recorded so far (the zero-churn contract:
    /// constant across steady-state rounds).
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// `(len, capacity)` of the entry vector — compare before/after a
    /// steady-state phase to prove the ledger allocated nothing.
    pub fn fingerprint(&self) -> (usize, usize) {
        (self.entries.len(), self.entries.capacity())
    }

    /// Current live bytes on a lane.
    pub fn cur(&self, cat: MemCategory) -> u64 {
        self.cur[cat.lane()]
    }

    /// Peak bytes seen on a lane so far.
    pub fn peak(&self, cat: MemCategory) -> u64 {
        self.peak[cat.lane()]
    }

    /// Close the ledger at `now`: any entry still open is force-closed with
    /// a warning (mirroring the span sink's crash semantics), any pending
    /// lane charge still scheduled counts as live at close. The returned
    /// report always balances: `allocated == freed + live_at_close`.
    pub fn finish(mut self, now: f64) -> MemReport {
        self.drain(now);
        let mut warnings = Vec::new();
        let mut live = 0u64;
        for e in &mut self.entries {
            if e.close.is_none() {
                warnings.push(format!(
                    "rank {}: mem entry `{}` ({}) dropped open; force-closed at t={:.3e}s",
                    self.rank,
                    e.name,
                    e.cat.label(),
                    now
                ));
                e.close = Some(now);
                live += e.bytes;
            }
        }
        let mut peak = PeakBytes::default();
        for cat in MemCategory::ALL {
            peak.set(cat, self.peak[cat.lane()]);
        }
        peak.gated_total = self.peak_gated;
        MemReport {
            rank: self.rank,
            end_time: now,
            entries: self.entries,
            peak,
            allocated_bytes: self.allocated,
            freed_bytes: self.freed,
            live_at_close: live,
            warnings,
        }
    }
}

/// The finished, serializable ledger of one rank.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemReport {
    pub rank: usize,
    pub end_time: f64,
    pub entries: Vec<MemEntry>,
    pub peak: PeakBytes,
    pub allocated_bytes: u64,
    pub freed_bytes: u64,
    /// Bytes force-closed at [`MemLedger::finish`] — nonzero exactly when
    /// the rank died (or leaked) with buffers live.
    pub live_at_close: u64,
    pub warnings: Vec<String>,
}

impl MemReport {
    /// The ledger balance identity, which must hold even for a crashed
    /// rank: every allocated byte was either freed or live at close.
    pub fn balances(&self) -> bool {
        self.allocated_bytes == self.freed_bytes + self.live_at_close
    }
}

/// Structural validation of a finished ledger: the balance identity, entry
/// intervals that sit inside `[0, end_time]`, and per-category peaks that
/// dominate both every single entry and the entry-replay peak.
pub fn validate_mem(r: &MemReport) -> Result<(), String> {
    if !r.balances() {
        return Err(format!(
            "rank {}: ledger does not balance: allocated {} != freed {} + live {}",
            r.rank, r.allocated_bytes, r.freed_bytes, r.live_at_close
        ));
    }
    let entry_sum: u64 = r.entries.iter().map(|e| e.bytes).sum();
    if entry_sum != r.allocated_bytes {
        return Err(format!(
            "rank {}: entry bytes sum {} != allocated {}",
            r.rank, entry_sum, r.allocated_bytes
        ));
    }
    for e in &r.entries {
        let close = e
            .close
            .ok_or_else(|| format!("rank {}: entry `{}` still open in report", r.rank, e.name))?;
        if !(e.open >= 0.0 && close >= e.open && close <= r.end_time) {
            return Err(format!(
                "rank {}: entry `{}` interval [{}, {close}] escapes [0, {}]",
                r.rank, e.name, e.open, r.end_time
            ));
        }
        if r.peak.get(e.cat) < e.bytes {
            return Err(format!(
                "rank {}: category {} peak {} below entry `{}` of {} bytes",
                r.rank,
                e.cat.label(),
                r.peak.get(e.cat),
                e.name,
                e.bytes
            ));
        }
    }
    // Replay the entry intervals (closes applied before same-instant
    // opens): the sweep peak is a lower bound on the recorded lane peak —
    // equal when no lane-only charges hit the category.
    for cat in MemCategory::ALL {
        let replay = replay_peak(&r.entries, cat);
        if replay > r.peak.get(cat) {
            return Err(format!(
                "rank {}: category {} replay peak {} exceeds recorded {}",
                r.rank,
                cat.label(),
                replay,
                r.peak.get(cat)
            ));
        }
    }
    Ok(())
}

/// Sweep-line peak of one category's entry intervals. At equal timestamps
/// closes apply first (release-before-charge, matching the live ledger's
/// drain order), then zero-length entries as open-then-close, then opens —
/// so the sweep never underflows and stays a lower bound on the recorded
/// peak.
pub fn replay_peak(entries: &[MemEntry], cat: MemCategory) -> u64 {
    /// What an event does at its instant, in application order.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Edge {
        Close,
        OpenClose,
        Open,
    }
    let mut events: Vec<(u64, Edge, u64)> = Vec::new();
    for e in entries.iter().filter(|e| e.cat == cat) {
        let open = time_key(e.open);
        match e.close.map(time_key) {
            Some(c) if c == open => events.push((open, Edge::OpenClose, e.bytes)),
            close => {
                events.push((open, Edge::Open, e.bytes));
                if let Some(c) = close {
                    events.push((c, Edge::Close, e.bytes));
                }
            }
        }
    }
    events.sort_by_key(|&(t, edge, _)| (t, edge));
    let (mut cur, mut peak) = (0u64, 0u64);
    for (_, edge, bytes) in events {
        match edge {
            Edge::Close => cur -= bytes,
            Edge::OpenClose => peak = peak.max(cur + bytes),
            Edge::Open => {
                cur += bytes;
                peak = peak.max(cur);
            }
        }
    }
    peak
}

/// Per-category **Perfetto counter events** (`ph:"C"`) for one rank's
/// ledger: one counter sample per change point, on the dedicated memory
/// lane. Loadable next to the span timeline in `ui.perfetto.dev`, where
/// each `mem/<category>` track renders as a byte step-function.
pub fn mem_counter_events(report: &MemReport, pid: u64) -> Vec<crate::perfetto::PerfettoEvent> {
    use crate::perfetto::{PerfettoArgs, PerfettoEvent};
    const US: f64 = 1e6;
    /// Perfetto tid for memory counter tracks (span lanes use 0–4).
    const MEM_LANE: u64 = 5;
    let mut out = Vec::new();
    for cat in MemCategory::ALL {
        // (time, close-first, delta) change points from the entry ledger.
        let mut events: Vec<(u64, bool, i64)> = Vec::new();
        for e in report.entries.iter().filter(|e| e.cat == cat) {
            events.push((time_key(e.open), true, e.bytes as i64));
            if let Some(c) = e.close {
                events.push((time_key(c), false, -(e.bytes as i64)));
            }
        }
        if events.is_empty() {
            continue;
        }
        events.sort_by_key(|&(t, open, _)| (t, open));
        let mut cur = 0i64;
        let mut i = 0;
        while i < events.len() {
            let t = events[i].0;
            while i < events.len() && events[i].0 == t {
                cur += events[i].2;
                i += 1;
            }
            out.push(PerfettoEvent {
                name: format!("mem/{}", cat.label()),
                cat: "mem".to_string(),
                ph: "C".to_string(),
                ts: f64::from_bits(t) * US,
                dur: 0.0,
                pid,
                tid: MEM_LANE,
                args: PerfettoArgs {
                    detail: format!("{} bytes", cur),
                    value: cur as f64,
                },
            });
        }
    }
    out
}

/// Element-wise max of per-rank peak censuses — the cluster-wide peak-GB
/// row a benchmark reports.
pub fn peak_census(reports: &[MemReport]) -> PeakBytes {
    let mut acc = PeakBytes::default();
    for r in reports {
        acc.merge_max(&r.peak);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_tracks_cur_and_peak() {
        let mut l = MemLedger::new(0);
        let a = l.alloc("acc_o", MemCategory::Activations, 1000, 0.0);
        let b = l.alloc("acc_lse", MemCategory::Activations, 24, 0.1);
        assert_eq!(l.cur(MemCategory::Activations), 1024);
        l.free(a, 0.5);
        assert_eq!(l.cur(MemCategory::Activations), 24);
        l.free(b, 0.6);
        let r = l.finish(1.0);
        assert_eq!(r.peak.activations, 1024);
        assert_eq!(r.peak.gated_total, 1024);
        assert!(r.balances());
        assert_eq!(r.live_at_close, 0);
        assert!(r.warnings.is_empty());
        validate_mem(&r).unwrap();
    }

    #[test]
    fn gated_total_is_a_timeline_peak_not_a_sum_of_peaks() {
        let mut l = MemLedger::new(0);
        let a = l.alloc("x", MemCategory::Activations, 100, 0.0);
        l.free(a, 1.0);
        let b = l.alloc("y", MemCategory::RingShards, 70, 2.0);
        l.free(b, 3.0);
        let r = l.finish(4.0);
        assert_eq!(r.peak.activations, 100);
        assert_eq!(r.peak.ring_shards, 70);
        // The two never overlap, so the headline peak is 100, not 170.
        assert_eq!(r.peak.gated_total, 100);
    }

    #[test]
    fn lane_charges_release_on_schedule_and_leave_no_entries() {
        let mut l = MemLedger::new(1);
        l.charge_until(MemCategory::InFlight, 512, 0.0, 1.0);
        l.charge_until(MemCategory::InFlight, 512, 0.5, 1.5);
        assert_eq!(l.cur(MemCategory::InFlight), 1024);
        // A later charge first drains both earlier releases.
        l.charge_until(MemCategory::InFlight, 100, 2.0, 3.0);
        assert_eq!(l.cur(MemCategory::InFlight), 100);
        assert_eq!(l.entry_count(), 0);
        let r = l.finish(5.0);
        assert_eq!(r.peak.in_flight, 1024);
        // Ungated lanes never move the gated headline.
        assert_eq!(r.peak.gated_total, 0);
        assert!(r.balances());
        validate_mem(&r).unwrap();
    }

    #[test]
    fn release_applies_before_same_instant_charge() {
        let mut l = MemLedger::new(0);
        l.charge_until(MemCategory::InFlight, 512, 0.0, 1.0);
        // Charging exactly at the release instant must not double-count.
        l.charge_until(MemCategory::InFlight, 512, 1.0, 2.0);
        let r = l.finish(3.0);
        assert_eq!(r.peak.in_flight, 512);
    }

    #[test]
    fn finish_force_closes_open_entries_and_still_balances() {
        let mut l = MemLedger::new(3);
        let a = l.alloc("kv_buf", MemCategory::CommBuffers, 2048, 0.0);
        l.free(a, 0.4);
        l.alloc("grad_q", MemCategory::Activations, 4096, 0.2);
        l.charge_until(MemCategory::InFlight, 64, 0.3, 10.0);
        let r = l.finish(0.5); // crash: grad_q still open, 64 B in flight
        assert_eq!(r.warnings.len(), 1);
        assert!(r.warnings[0].contains("grad_q"), "{:?}", r.warnings);
        assert!(r.warnings[0].contains("force-closed"));
        assert_eq!(r.live_at_close, 4096);
        assert!(r.balances());
        assert_eq!(r.entries[1].close, Some(0.5));
        validate_mem(&r).unwrap();
    }

    #[test]
    fn note_peak_raises_workspace_without_live_bytes() {
        let mut l = MemLedger::new(0);
        l.note_peak(MemCategory::Workspace, 333);
        l.note_peak(MemCategory::Workspace, 100);
        assert_eq!(l.cur(MemCategory::Workspace), 0);
        let r = l.finish(1.0);
        assert_eq!(r.peak.workspace, 333);
        assert_eq!(r.peak.gated_total, 0);
    }

    #[test]
    #[should_panic(expected = "freed twice")]
    fn double_free_panics() {
        let mut l = MemLedger::new(0);
        let a = l.alloc("x", MemCategory::Params, 8, 0.0);
        l.free(a, 1.0);
        l.free(a, 2.0);
    }

    #[test]
    fn fingerprint_is_stable_across_reuse() {
        let mut l = MemLedger::new(0);
        for _ in 0..8 {
            l.charge_until(MemCategory::InFlight, 128, 0.0, 0.1);
        }
        let fp = l.fingerprint();
        for _ in 0..100 {
            l.charge_until(MemCategory::InFlight, 128, 1.0, 1.1);
        }
        assert_eq!(l.fingerprint(), fp, "lane traffic must not add entries");
    }

    #[test]
    fn replay_peak_matches_recorded_for_entry_only_categories() {
        let mut l = MemLedger::new(0);
        let a = l.alloc("a", MemCategory::CkptStash, 10, 0.0);
        let b = l.alloc("b", MemCategory::CkptStash, 20, 1.0);
        l.free(a, 2.0);
        let c = l.alloc("c", MemCategory::CkptStash, 15, 2.0);
        l.free(b, 3.0);
        l.free(c, 3.0);
        let r = l.finish(4.0);
        assert_eq!(replay_peak(&r.entries, MemCategory::CkptStash), 35);
        assert_eq!(r.peak.ckpt_stash, 35);
        validate_mem(&r).unwrap();
    }

    #[test]
    fn replay_peak_counts_zero_length_entries_without_underflow() {
        // An entry opened and closed at one instant, alone and between a
        // same-instant close and open: it counts after the close and before
        // the open, as the live ledger saw it.
        let mut l = MemLedger::new(0);
        let a = l.alloc("a", MemCategory::CkptStash, 10, 1.0);
        l.free(a, 1.0);
        let b = l.alloc("b", MemCategory::CkptStash, 20, 1.0);
        l.free(b, 2.0);
        let c = l.alloc("c", MemCategory::CkptStash, 5, 2.0);
        l.free(c, 2.0);
        let d = l.alloc("d", MemCategory::CkptStash, 18, 2.0);
        l.free(d, 3.0);
        let r = l.finish(4.0);
        // Misordered, `c` would stack on `b` (25) or on `d` (23).
        assert_eq!(replay_peak(&r.entries, MemCategory::CkptStash), 20);
        assert_eq!(r.peak.ckpt_stash, 20);
        validate_mem(&r).unwrap();
    }

    #[test]
    fn counter_events_step_through_change_points() {
        let mut l = MemLedger::new(2);
        let a = l.alloc("stash", MemCategory::CkptStash, 100, 0.0);
        l.free(a, 2.0);
        let r = l.finish(3.0);
        let evs = mem_counter_events(&r, 2);
        assert_eq!(evs.len(), 2);
        assert!(evs.iter().all(|e| e.ph == "C" && e.pid == 2));
        assert_eq!(evs[0].args.value, 100.0);
        assert_eq!(evs[1].args.value, 0.0);
        assert_eq!(evs[0].name, "mem/ckpt_stash");
    }

    #[test]
    fn report_serde_round_trips() {
        let mut l = MemLedger::new(1);
        let a = l.alloc("w", MemCategory::Params, 64, 0.0);
        l.free(a, 1.0);
        l.charge_until(MemCategory::InFlight, 16, 0.2, 0.4);
        let r = l.finish(2.0);
        let text = serde_json::to_string(&r).unwrap();
        let back: MemReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn census_merges_by_max() {
        let mut a = MemLedger::new(0);
        a.alloc("x", MemCategory::Activations, 10, 0.0);
        let mut b = MemLedger::new(1);
        b.alloc("y", MemCategory::Activations, 30, 0.0);
        let (ra, rb) = (a.finish(1.0), b.finish(1.0));
        let c = peak_census(&[ra, rb]);
        assert_eq!(c.activations, 30);
        assert_eq!(c.gated_total, 30);
    }
}
