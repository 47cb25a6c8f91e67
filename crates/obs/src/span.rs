//! Hierarchical spans on the virtual clock, recorded per rank.
//!
//! Each rank thread owns one [`RankSink`] — no locks, no sharing. The sink
//! is a flat `Vec<SpanRecord>` plus an open-span stack: `begin`/`end`
//! bracket structural spans (step, layer, attention round, …) while `leaf`
//! records an already-closed interval (a kernel, a message on the wire, a
//! blocked wait). Parent links are indices into the same vector, so the
//! whole tree costs one pre-sized allocation and recording a span in the
//! steady state allocates nothing.
//!
//! ## Virtual-clock semantics
//!
//! All spans except [`SpanKind::Send`] live on the rank's *clock lane*:
//! their intervals are slices of the rank's own virtual time, so children
//! nest inside parents and a parent's duration is the `max` (the envelope)
//! of its children plus any gaps — **not** their sum. `Send` spans live on
//! the *wire lane*: a send is non-blocking, its interval is the modeled
//! `[depart, arrival]` window of the payload, and it may legitimately
//! outlive the structural span that issued it (that is what overlap *is*).
//! [`validate`] enforces exactly this: containment for clock-lane spans,
//! per-link-class monotone departures for the wire lane.

/// What a span describes. The discriminant order is stable (used for lane
/// assignment in the Perfetto export).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// One optimizer step of the training engine.
    Step,
    /// One micro-batch inside a step.
    Micro,
    /// One transformer layer (forward or backward half).
    Layer,
    /// One round/slot of a ring-family attention schedule.
    AttnRound,
    /// Modeled local compute (`advance_compute`).
    Kernel,
    /// A message on the wire: `[depart, arrival]` (wire lane, non-blocking).
    Send,
    /// A receive: `[posted, completed]` on the local clock.
    Recv,
    /// The blocked portion of a receive (data not yet arrived).
    Wait,
    /// A checkpoint shard/manifest write.
    Checkpoint,
    /// The eviction-agreement protocol after a failure.
    Eviction,
    /// A re-run of a step/ring on a shrunken world.
    Replay,
    /// A membership epoch bump (instant).
    Epoch,
    /// A fault firing or fault-driven decision (instant).
    Fault,
    /// The join-agreement protocol re-admitting a parked rank.
    Join,
    /// A rank being re-admitted to the alive set (instant).
    Rejoin,
    /// A failed physical transmission the reliable transport re-sent:
    /// `[depart, would-be-arrival]` on the wire lane. Excluded from
    /// [`wire_secs`] so the measured-vs-analytic comm gate keeps holding
    /// with faults on; summed separately by [`retrans_secs`].
    Retransmit,
    /// An optimizer/FSDP communication op (weight all-gather, gradient
    /// all-reduce, offload round-trip) — per-op tracing of the optimizer
    /// path.
    Optim,
}

impl SpanKind {
    /// Short lowercase label, used in exports.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Step => "step",
            SpanKind::Micro => "micro",
            SpanKind::Layer => "layer",
            SpanKind::AttnRound => "attn_round",
            SpanKind::Kernel => "kernel",
            SpanKind::Send => "send",
            SpanKind::Recv => "recv",
            SpanKind::Wait => "wait",
            SpanKind::Checkpoint => "checkpoint",
            SpanKind::Eviction => "eviction",
            SpanKind::Replay => "replay",
            SpanKind::Epoch => "epoch",
            SpanKind::Fault => "fault",
            SpanKind::Join => "join",
            SpanKind::Rejoin => "rejoin",
            SpanKind::Retransmit => "retransmit",
            SpanKind::Optim => "optim",
        }
    }

    /// Rendering lane (Perfetto tid): 0 = control/structure, 1 = compute,
    /// 2 = recv/wait, 3 = the wire.
    pub fn lane(self) -> u64 {
        match self {
            SpanKind::Kernel => 1,
            SpanKind::Recv | SpanKind::Wait => 2,
            SpanKind::Send => 3,
            SpanKind::Retransmit => 4,
            _ => 0,
        }
    }

    /// Wire-lane spans are exempt from parent containment (a non-blocking
    /// send may land after the structural span that issued it closed).
    pub fn is_wire(self) -> bool {
        matches!(self, SpanKind::Send | SpanKind::Retransmit)
    }
}

/// One recorded span. `Copy` and free of owned data (`name` is static) so
/// recording never allocates.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    pub kind: SpanKind,
    pub name: &'static str,
    /// Virtual start time (seconds). For `Send`: the port departure time.
    pub start: f64,
    /// Virtual end time. `NaN` while the span is still open.
    pub end: f64,
    /// Index of the enclosing span in the same sink, `-1` for roots.
    pub parent: i32,
    /// Peer rank for `Send`/`Recv`, `u32::MAX` otherwise.
    pub peer: u32,
    /// Logical payload elements for `Send`/`Recv`, free-form tag otherwise.
    pub elems: u64,
    /// `Send` crossed the node boundary (NIC) rather than NVLink.
    pub inter: bool,
}

impl SpanRecord {
    pub fn is_open(&self) -> bool {
        self.end.is_nan()
    }

    pub fn duration(&self) -> f64 {
        if self.is_open() {
            0.0
        } else {
            self.end - self.start
        }
    }
}

/// Default span capacity installed by `Communicator::start_trace`: enough
/// for every workload in the test suite and the `burst-trace` harness
/// without growth. The sink *does* grow past it (a long training run loses
/// nothing), the zero-alloc guarantee applies below capacity.
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 15;

/// Per-rank span sink. One per rank thread — never shared, hence no locks.
#[derive(Debug, Clone)]
pub struct RankSink {
    rank: usize,
    spans: Vec<SpanRecord>,
    open: Vec<u32>,
}

impl RankSink {
    /// A sink pre-sized for `cap` spans (records beyond that still land,
    /// at the cost of one reallocation).
    pub fn with_capacity(rank: usize, cap: usize) -> Self {
        RankSink {
            rank,
            spans: Vec::with_capacity(cap),
            open: Vec::with_capacity(64),
        }
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Number of spans currently open (begin without end).
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// `(buffer address, capacity)` of the span storage — lets tests assert
    /// the steady state reuses one allocation (pointer and capacity stable).
    pub fn buffer_fingerprint(&self) -> (usize, usize) {
        (self.spans.as_ptr() as usize, self.spans.capacity())
    }

    /// Open a structural span at virtual time `now`.
    pub fn begin(&mut self, kind: SpanKind, name: &'static str, now: f64) {
        let parent = self.open.last().map(|&i| i as i32).unwrap_or(-1);
        let idx = self.spans.len() as u32;
        self.spans.push(SpanRecord {
            kind,
            name,
            start: now,
            end: f64::NAN,
            parent,
            peer: u32::MAX,
            elems: 0,
            inter: false,
        });
        self.open.push(idx);
    }

    /// Close the innermost open span at virtual time `now`. A stray `end`
    /// with nothing open is ignored (debug builds assert).
    pub fn end(&mut self, now: f64) {
        debug_assert!(!self.open.is_empty(), "span end with no open span");
        if let Some(i) = self.open.pop() {
            self.spans[i as usize].end = now;
        }
    }

    /// Close open spans at `now` until at most `depth` remain. Lets error
    /// paths that skipped their `end` calls (a `?` out of a ring round)
    /// settle the stack at a known boundary instead of leaking open spans
    /// into the next attempt.
    pub fn unwind_to(&mut self, depth: usize, now: f64) {
        while self.open.len() > depth {
            self.end(now);
        }
    }

    /// Record a closed leaf span under the currently open span.
    #[allow(clippy::too_many_arguments)]
    pub fn leaf(
        &mut self,
        kind: SpanKind,
        name: &'static str,
        start: f64,
        end: f64,
        peer: u32,
        elems: u64,
        inter: bool,
    ) {
        let parent = self.open.last().map(|&i| i as i32).unwrap_or(-1);
        self.spans.push(SpanRecord {
            kind,
            name,
            start,
            end,
            parent,
            peer,
            elems,
            inter,
        });
    }

    /// Record an instantaneous event (zero-length leaf) at `now`.
    pub fn instant(&mut self, kind: SpanKind, name: &'static str, now: f64) {
        self.leaf(kind, name, now, now, u32::MAX, 0, false);
    }

    /// Close every span still open at `now` (a rank that crashed mid-round
    /// never reached its `end` calls) and return one warning per closure —
    /// the timeline stays renderable, and the caller can surface the
    /// warnings instead of panicking.
    pub fn close_unclosed(&mut self, now: f64) -> Vec<String> {
        let mut warnings = Vec::new();
        while let Some(i) = self.open.pop() {
            let s = &mut self.spans[i as usize];
            s.end = now;
            warnings.push(format!(
                "rank {}: span `{}` ({}) dropped unclosed; force-closed at t={:.3e}s",
                self.rank,
                s.name,
                s.kind.label(),
                now
            ));
        }
        warnings
    }

    /// Consume the sink into an immutable per-rank trace, force-closing any
    /// span left open at `now` (warnings retained on the trace).
    pub fn finish(mut self, now: f64) -> RankTrace {
        let warnings = self.close_unclosed(now);
        RankTrace {
            rank: self.rank,
            spans: self.spans,
            warnings,
            end_time: now,
        }
    }
}

/// A finished per-rank span timeline.
#[derive(Debug, Clone)]
pub struct RankTrace {
    pub rank: usize,
    pub spans: Vec<SpanRecord>,
    /// One entry per span that had to be force-closed (see
    /// [`RankSink::close_unclosed`]). Empty on a clean run.
    pub warnings: Vec<String>,
    /// The rank's final virtual clock when the trace was collected.
    pub end_time: f64,
}

impl RankTrace {
    /// Total seconds in spans of `kind`.
    pub fn total_secs(&self, kind: SpanKind) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(SpanRecord::duration)
            .sum()
    }

    /// Seconds of the rank's timeline, `[0, end_time]`, covered by at least
    /// one span of `kind`: the length of the union of their intervals.
    /// Unlike [`RankTrace::total_secs`] this never exceeds the timeline,
    /// even for kinds whose spans overlap each other (async sends share the
    /// wire) or outlive the rank's clock (a send still in flight when the
    /// rank finishes).
    pub fn union_secs(&self, kind: SpanKind) -> f64 {
        let mut spans: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| (s.start, s.end.min(self.end_time)))
            .filter(|&(start, end)| end > start)
            .collect();
        spans.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = f64::NEG_INFINITY;
        for (start, end) in spans {
            if end > reach {
                covered += end - start.max(reach);
                reach = end;
            }
        }
        covered
    }

    /// Count of spans of `kind`.
    pub fn count(&self, kind: SpanKind) -> usize {
        self.spans.iter().filter(|s| s.kind == kind).count()
    }
}

const EPS: f64 = 1e-9;

/// Check the structural invariants of a finished trace:
///
/// * every span is closed and `start <= end`;
/// * parent indices are in range and point backwards;
/// * clock-lane children lie inside their parent's interval (wire-lane
///   `Send` spans are exempt — see the module docs);
/// * per-kind timelines are monotone: clock-lane leaves (`Kernel`, `Recv`,
///   `Wait`) start in non-decreasing order, and `Send` departures are
///   non-decreasing *per link class* (each egress port serialises);
/// * nothing ends after the rank's final clock.
pub fn validate(trace: &RankTrace) -> Result<(), String> {
    let fail = |i: usize, s: &SpanRecord, why: &str| {
        Err(format!(
            "rank {} span {i} `{}` ({}) [{:.6e}, {:.6e}]: {why}",
            trace.rank,
            s.name,
            s.kind.label(),
            s.start,
            s.end
        ))
    };
    let mut last_clock_leaf = f64::NEG_INFINITY;
    let mut last_depart = [f64::NEG_INFINITY; 2]; // [intra, inter]
    for (i, s) in trace.spans.iter().enumerate() {
        if s.is_open() {
            return fail(i, s, "span left open");
        }
        if s.start > s.end + EPS {
            return fail(i, s, "inverted interval");
        }
        if !s.kind.is_wire() && s.end > trace.end_time + EPS {
            return fail(i, s, "ends after the rank's final clock");
        }
        if s.parent >= 0 {
            let p = s.parent as usize;
            if p >= i {
                return fail(i, s, "parent index not backwards");
            }
            let parent = &trace.spans[p];
            if !s.kind.is_wire() {
                // Parent may itself still have been open when the child was
                // recorded, but after force-closing all ends are filled.
                if s.start < parent.start - EPS || s.end > parent.end + EPS {
                    return fail(i, s, "child escapes its parent's interval");
                }
            } else if s.start < parent.start - EPS {
                return fail(i, s, "send departs before its parent opened");
            }
        }
        match s.kind {
            SpanKind::Kernel | SpanKind::Recv | SpanKind::Wait => {
                if s.start < last_clock_leaf - EPS {
                    return fail(i, s, "clock-lane leaf starts before its predecessor");
                }
                last_clock_leaf = s.start;
            }
            SpanKind::Send | SpanKind::Retransmit => {
                let class = s.inter as usize;
                if s.start < last_depart[class] - EPS {
                    return fail(i, s, "send departs before the port's previous send");
                }
                last_depart[class] = s.start;
            }
            _ => {}
        }
    }
    Ok(())
}

/// Total modeled wire seconds across Send spans, split `(intra, inter)` —
/// each send contributes `arrival - depart` (latency + serialization).
pub fn wire_secs(traces: &[RankTrace]) -> (f64, f64) {
    let (mut intra, mut inter) = (0.0, 0.0);
    for t in traces {
        for s in &t.spans {
            if s.kind == SpanKind::Send {
                if s.inter {
                    inter += s.duration();
                } else {
                    intra += s.duration();
                }
            }
        }
    }
    (intra, inter)
}

/// Wire seconds consumed by retransmitted physical attempts, split
/// `(intra, inter)` — the transport's recovery overhead on the fabric,
/// kept out of [`wire_secs`] so the clean comm census stays exact.
pub fn retrans_secs(traces: &[RankTrace]) -> (f64, f64) {
    let (mut intra, mut inter) = (0.0, 0.0);
    for t in traces {
        for s in &t.spans {
            if s.kind == SpanKind::Retransmit {
                if s.inter {
                    inter += s.duration();
                } else {
                    intra += s.duration();
                }
            }
        }
    }
    (intra, inter)
}

/// `(wait, compute)` seconds summed across all ranks' `Wait`/`Kernel`
/// spans — the inputs to [`crate::report::overlap_efficiency`].
pub fn wait_compute_secs(traces: &[RankTrace]) -> (f64, f64) {
    let mut wait = 0.0;
    let mut compute = 0.0;
    for t in traces {
        wait += t.total_secs(SpanKind::Wait);
        compute += t.total_secs(SpanKind::Kernel);
    }
    (wait, compute)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_parent_links_hold() {
        let mut sink = RankSink::with_capacity(0, 16);
        sink.begin(SpanKind::Step, "step", 0.0);
        sink.begin(SpanKind::Layer, "layer", 0.5);
        sink.leaf(SpanKind::Kernel, "kernel", 0.5, 1.0, u32::MAX, 0, false);
        sink.end(1.5); // layer
        sink.end(2.0); // step
        let trace = sink.finish(2.0);
        assert!(trace.warnings.is_empty());
        assert_eq!(trace.spans.len(), 3);
        assert_eq!(trace.spans[0].parent, -1);
        assert_eq!(trace.spans[1].parent, 0);
        assert_eq!(trace.spans[2].parent, 1);
        validate(&trace).unwrap();
        assert_eq!(trace.total_secs(SpanKind::Kernel), 0.5);
        assert_eq!(trace.count(SpanKind::Layer), 1);
    }

    #[test]
    fn union_secs_counts_overlapping_spans_once() {
        // [0, 2] ∪ [1, 3] ∪ [1.5, 2.5] ∪ [4, 6] ∪ [5.5, 6], recorded out of
        // order, on a timeline ending at 5: the last sends land, or even
        // depart, after the rank's clock stops.
        let mut sink = RankSink::with_capacity(0, 8);
        for (start, end) in [(1.0, 3.0), (4.0, 6.0), (0.0, 2.0), (5.5, 6.0), (1.5, 2.5)] {
            sink.leaf(SpanKind::Send, "send", start, end, 1, 1, false);
        }
        let trace = sink.finish(5.0);
        assert_eq!(trace.total_secs(SpanKind::Send), 7.5);
        assert_eq!(trace.union_secs(SpanKind::Send), 4.0);
        assert_eq!(trace.union_secs(SpanKind::Kernel), 0.0);
    }

    #[test]
    fn unclosed_spans_warn_and_stay_renderable() {
        let mut sink = RankSink::with_capacity(3, 16);
        sink.begin(SpanKind::Step, "step", 0.0);
        sink.begin(SpanKind::AttnRound, "round", 1.0);
        // Crash: no `end` calls.
        let trace = sink.finish(1.5);
        assert_eq!(trace.warnings.len(), 2);
        assert!(trace.warnings[0].contains("round"), "{:?}", trace.warnings);
        assert!(trace.warnings[1].contains("step"));
        validate(&trace).unwrap();
        assert_eq!(trace.spans[1].end, 1.5);
    }

    #[test]
    fn validate_rejects_escaping_child() {
        let trace = RankTrace {
            rank: 0,
            spans: vec![
                SpanRecord {
                    kind: SpanKind::Step,
                    name: "step",
                    start: 0.0,
                    end: 1.0,
                    parent: -1,
                    peer: u32::MAX,
                    elems: 0,
                    inter: false,
                },
                SpanRecord {
                    kind: SpanKind::Kernel,
                    name: "kernel",
                    start: 0.5,
                    end: 2.0,
                    parent: 0,
                    peer: u32::MAX,
                    elems: 0,
                    inter: false,
                },
            ],
            warnings: vec![],
            end_time: 2.0,
        };
        let err = validate(&trace).unwrap_err();
        assert!(err.contains("escapes"), "{err}");
    }

    #[test]
    fn sends_may_outlive_their_parent() {
        let mut sink = RankSink::with_capacity(1, 8);
        sink.begin(SpanKind::AttnRound, "round", 0.0);
        // Posted inside the round, lands well after it closed: legal.
        sink.leaf(SpanKind::Send, "send", 0.1, 5.0, 2, 64, true);
        sink.end(1.0);
        let trace = sink.finish(1.0);
        validate(&trace).unwrap();
        let (intra, inter) = wire_secs(std::slice::from_ref(&trace));
        assert_eq!(intra, 0.0);
        assert!((inter - 4.9).abs() < 1e-12);
    }

    #[test]
    fn recording_below_capacity_never_reallocates() {
        let mut sink = RankSink::with_capacity(0, 1024);
        let fp0 = sink.buffer_fingerprint();
        for i in 0..300 {
            let t = i as f64;
            sink.begin(SpanKind::AttnRound, "round", t);
            sink.leaf(SpanKind::Kernel, "kernel", t, t + 0.4, u32::MAX, 0, false);
            sink.leaf(SpanKind::Send, "send", t, t + 0.2, 1, 8, false);
            sink.end(t + 0.5);
            assert_eq!(sink.buffer_fingerprint(), fp0, "realloc at round {i}");
        }
        assert_eq!(sink.len(), 900);
    }

    #[test]
    fn instants_are_zero_length_and_valid() {
        let mut sink = RankSink::with_capacity(0, 8);
        sink.instant(SpanKind::Epoch, "epoch_bump", 3.0);
        let trace = sink.finish(3.0);
        validate(&trace).unwrap();
        assert_eq!(trace.spans[0].duration(), 0.0);
    }
}
