//! # burst-obs
//!
//! Full-stack **virtual-time observability** for the BurstEngine
//! reproduction. Every layer of the stack — the `burst-comm` cluster
//! simulator, the ring-family attention algorithms, the training engine,
//! elastic recovery and checkpointing — records what it does on the same
//! per-rank virtual clock, as a tree of hierarchical spans:
//!
//! ```text
//! step > micro > layer > attn_round > {kernel, send, recv, wait}
//!        plus checkpoint, eviction, replay, epoch, fault
//! ```
//!
//! The design splits cleanly into four pieces:
//!
//! * [`span`] — the per-rank [`RankSink`]: a pre-sized, lock-free (one
//!   sink per rank thread, no sharing) span buffer on the virtual clock,
//!   plus the structural validation used by tests and the `burst-trace`
//!   harness;
//! * [`metrics`] — a deterministic [`Registry`] of named counters, gauges
//!   and histograms whose merge is exact (integer arithmetic), hence
//!   associative and commutative across rank orders;
//! * [`mem`] — the per-rank virtual-memory accountant: a deterministic
//!   allocation ledger (category × bytes × virtual-time interval) with
//!   lane-only charging for in-flight traffic, whose gated per-category
//!   peaks must equal `burst-perf`'s analytic `exact_peak_bytes_dtype` census;
//! * [`perfetto`] — Chrome/Perfetto `trace_events` JSON export (one pid
//!   per rank, one tid per span lane), loadable in `ui.perfetto.dev`;
//! * [`stream`] — the incremental Perfetto writer: byte-identical output
//!   to the buffered exporter with O(step) resident memory;
//! * [`flame`] / [`report`] — a plain-text flame summary and the
//!   machine-readable `BENCH_e2e.json` report (overlap efficiency, modeled
//!   MFU, measured-vs-analytic comm time).
//!
//! Instrumentation is strictly an *observer* of the virtual clock: opening
//! or closing a span never advances time, so enabling tracing is
//! bit-identical to running without it, and the sink's buffers are
//! pre-sized so the steady-state ring round allocates nothing.

pub mod flame;
pub mod mem;
pub mod metrics;
pub mod perfetto;
pub mod report;
pub mod span;
pub mod stream;

pub use flame::flame_text;
pub use mem::{
    mem_counter_events, peak_census, validate_mem, MemCategory, MemEntry, MemId, MemLedger,
    MemReport, PeakBytes,
};
pub use metrics::{Histogram, Metric, Registry, Series};
pub use perfetto::{to_perfetto, to_perfetto_grouped, PerfettoEvent, PerfettoTrace};
pub use report::{
    compare_to_baseline, mfu, overlap_efficiency, E2eReport, MethodReport, MAX_PEAK_RISE,
    MAX_TGS_DROP,
};
pub use span::{
    retrans_secs, validate, wait_compute_secs, wire_secs, RankSink, RankTrace, SpanKind,
    SpanRecord, DEFAULT_SPAN_CAPACITY,
};
pub use stream::StreamingPerfettoWriter;
