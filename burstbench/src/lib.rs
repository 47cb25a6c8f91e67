//! # burstbench
//!
//! One benchmark for both clocks of the BurstEngine reproduction: how fast
//! this Rust program runs (host time) and how fast the simulated A800
//! cluster it models trains (virtual time), on three workloads.
//!
//! A run with `trace: false` measures the end-to-end metrics with tracing
//! off. A run with `trace: true` measures the per-layer metrics: untraced
//! and traced iterations (their ratio is the tracing overhead), the
//! virtual per-layer split read from spans and ledgers, and host probes
//! that call each layer's public functions at the workload's shapes.
//! Every iteration's outputs are checked; failures are counted, not fatal.

mod attn;
mod host;
mod probes;
mod train;
mod virt;
pub mod workload;

use std::time::Instant;

use burst_comm::{CommStats, Communicator, FaultCounters, RankOutput};
use burst_obs::{to_perfetto, MemReport, RankTrace, StreamingPerfettoWriter};

use host::{median, quantile};
use workload::{probe_shape, Scale, Workload};

/// Timed iterations every loop runs at least, whatever the time budget.
const MIN_ITERS: usize = 3;
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// What one invocation measures.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed loop in seconds.
    pub seconds: f64,
    /// Per-layer run (tracing on for half the loop) instead of end-to-end.
    pub trace: bool,
    pub scale: Scale,
    /// Corrupt one output element of the first timed iteration, to prove
    /// the checks catch it.
    pub corrupt: bool,
}

/// One reported number, with its unit and its scope across ranks.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub scope: &'static str,
}

impl Metric {
    pub fn new(
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        scope: &'static str,
    ) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            scope,
        }
    }
}

/// What the program recorded beside its results during one iteration.
#[derive(Default)]
pub(crate) struct Capture {
    pub traces: Vec<RankTrace>,
    pub mem: Vec<MemReport>,
    pub stats: Vec<CommStats>,
    pub faults: Vec<FaultCounters>,
}

/// Which observers an iteration switches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Record {
    Off,
    /// The memory ledger only (warm-up: peak bytes).
    Mem,
    /// Span tracing and the memory ledger.
    Trace,
}

impl Record {
    pub fn arm(self, comm: &mut Communicator) {
        if self == Record::Trace {
            comm.start_trace();
        }
        if self != Record::Off {
            comm.start_mem_accounting();
        }
    }
}

/// One iteration: an engine step of every rank, or one attention pass.
pub(crate) struct Iter {
    /// Host wall seconds, world spawn to join.
    pub host_s: f64,
    /// Global tokens completed.
    pub tokens: usize,
    /// Virtual makespan: max over ranks of the final clock.
    pub virt_s: f64,
    /// The output check.
    pub check: Result<(), String>,
    pub capture: Capture,
}

/// A workload's inputs and state, run one checked iteration at a time.
pub(crate) trait Bench {
    fn iterate(&mut self, rec: Record) -> Iter;
    /// Corrupt one output element of the next iteration before its check.
    fn corrupt_next(&mut self);
    /// Iterations in one cycle through the workload's configurations.
    fn cycle(&self) -> usize;
    /// A one-line digest of the outputs so far, to compare runs by.
    fn digest(&self) -> Option<String> {
        None
    }
}

/// Split rank outputs into results, the virtual makespan and the capture.
pub(crate) fn collect<R>(outs: Vec<RankOutput<R>>) -> (Vec<R>, f64, Capture) {
    let virt_s = outs.iter().map(|o| o.time).fold(0.0, f64::max);
    let mut cap = Capture::default();
    let mut results = Vec::with_capacity(outs.len());
    for o in outs {
        results.push(o.result);
        cap.stats.push(o.stats);
        cap.faults.push(o.faults);
        cap.traces.extend(o.trace);
        cap.mem.extend(o.mem);
    }
    (results, virt_s, cap)
}

/// Attempted and failed operations, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    fn add(&mut self, what: &str, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(format!("{what}: {e}"));
            }
        }
    }
}

/// The outcome of one invocation.
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the metric table.
    pub notes: Vec<String>,
}

impl Report {
    pub fn failed_frac(&self) -> f64 {
        self.tally.failed as f64 / self.tally.attempted.max(1) as f64
    }

    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The machine-readable result line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() {
                    format!("{:?}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// Deterministic virtual-clock numbers of one cycle of configurations.
struct Warm {
    /// Tokens / (Σ virtual makespan × world): the paper's tokens/GPU/s.
    virt_tgs: f64,
    /// Max over ranks and configurations of the ledger's gated total.
    peak_device_bytes: f64,
}

/// Build inputs, world and models, then warm up with one cycle of
/// configurations (memory ledger on). Returns the workload's bench, its
/// virtual numbers and the seconds it took.
fn setup(opts: &Opts, tally: &mut Tally) -> (Box<dyn Bench>, Warm, f64) {
    let t0 = Instant::now();
    let mut bench: Box<dyn Bench> = match opts.workload {
        Workload::Attn32Rank => Box::new(attn::Attn::new(opts.scale, opts.seed)),
        w => Box::new(train::Train::new(w, opts.scale, opts.seed)),
    };
    let world = workload::topology(opts.workload, opts.scale).world_size() as f64;
    let (mut tokens, mut virt_s, mut peak) = (0usize, 0.0, 0u64);
    for _ in 0..bench.cycle() {
        let it = bench.iterate(Record::Mem);
        tally.add("warm-up", it.check);
        tokens += it.tokens;
        virt_s += it.virt_s;
        peak = peak.max(burst_obs::peak_census(&it.capture.mem).gated_total);
    }
    let warm = Warm {
        virt_tgs: tokens as f64 / (virt_s * world),
        peak_device_bytes: peak as f64,
    };
    (bench, warm, t0.elapsed().as_secs_f64())
}

/// Samples of one timed loop.
struct Loop {
    host_s: Vec<f64>,
    tokens: usize,
    wall_s: f64,
    captures: Vec<Capture>,
    /// Process CPU seconds the loop consumed.
    cpu_s: f64,
}

/// Iterate for `seconds` (at least `min_iters` times), checking every
/// iteration; traced iterations are validated and keep their first
/// `keep` captures.
fn timed_loop(
    bench: &mut dyn Bench,
    rec: Record,
    seconds: f64,
    min_iters: usize,
    keep: usize,
    tally: &mut Tally,
) -> Loop {
    let mut l = Loop {
        host_s: Vec::new(),
        tokens: 0,
        wall_s: 0.0,
        captures: Vec::new(),
        cpu_s: 0.0,
    };
    let cpu0 = host::process_cpu_s();
    let t0 = Instant::now();
    while l.host_s.len() < min_iters || t0.elapsed().as_secs_f64() < seconds {
        let it = bench.iterate(rec);
        tally.add("iteration", it.check);
        l.host_s.push(it.host_s);
        l.tokens += it.tokens;
        if rec == Record::Trace {
            tally.add("trace and ledger validation", virt::validate(&it.capture));
            if l.captures.len() < keep {
                l.captures.push(it.capture);
            }
        }
    }
    l.wall_s = t0.elapsed().as_secs_f64();
    l.cpu_s = host::process_cpu_s() - cpu0;
    l
}

impl Loop {
    /// The host throughput numbers of an untraced loop.
    fn host_metrics(&self) -> [Metric; 3] {
        [
            Metric::new(
                "host_tokens_per_s",
                self.tokens as f64 / self.wall_s,
                "tokens/s",
                "global, whole world",
            ),
            Metric::new(
                "host_iter_s.p50",
                median(&self.host_s),
                "s",
                "per iteration, whole world",
            ),
            Metric::new(
                "host_cpu_s_per_iter",
                self.cpu_s / self.host_s.len() as f64,
                "s",
                "per iteration, process",
            ),
        ]
    }
}

/// Host seconds to export one iteration's timelines: `to_perfetto` plus
/// the streaming writer (into a sink, so disk speed stays out).
fn export_s(cap: &Capture) -> f64 {
    let t0 = Instant::now();
    let trace = to_perfetto(&cap.traces);
    let mut w = StreamingPerfettoWriter::compact(std::io::sink());
    for e in &trace.traceEvents {
        w.write_event(e).expect("writing to a sink cannot fail");
    }
    w.finish().expect("writing to a sink cannot fail");
    t0.elapsed().as_secs_f64()
}

/// Run one invocation.
pub fn run(opts: &Opts) -> Report {
    let mut tally = Tally::default();
    let mut notes = vec![host::stamp(opts.seed)];
    // The SIMD `col_panel` autotune runs once per process, at first use.
    let t0 = Instant::now();
    burst_tensor::simd::col_panel(512);
    let autotune_s = t0.elapsed().as_secs_f64();

    let metrics = if opts.trace {
        per_layer(opts, &mut tally, &mut notes)
    } else {
        end_to_end(opts, autotune_s, &mut tally, &mut notes)
    };
    if opts.workload == Workload::TrainBurstCausal {
        tally.add(
            "single-worker baseline",
            train::local_baseline_check(opts.scale, opts.seed),
        );
    }
    Report {
        tally,
        metrics,
        notes,
    }
}

fn end_to_end(
    opts: &Opts,
    autotune_s: f64,
    tally: &mut Tally,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let reps = if opts.scale == Scale::Toy {
        1
    } else {
        SETUP_REPS
    };
    let mut setups = Vec::with_capacity(reps);
    let mut built = None;
    for _ in 0..reps {
        drop(built.take()); // free the previous set-up before building the next
        let (bench, warm, secs) = setup(opts, tally);
        setups.push(autotune_s + secs);
        built = Some((bench, warm));
    }
    let (mut bench, warm) = built.expect("at least one set-up");
    if opts.corrupt {
        bench.corrupt_next();
    }
    let l = timed_loop(&mut *bench, Record::Off, opts.seconds, MIN_ITERS, 0, tally);
    let n = l.host_s.len();
    notes.push(format!("timed iterations: {n}"));
    if n >= 100 {
        notes.push(format!(
            "host_iter_s.p90 = {:.6} s (from {n} iterations)",
            quantile(&l.host_s, 0.9)
        ));
    } else {
        notes.push(format!("host_iter_s samples: {:?}", l.host_s));
    }
    notes.push(format!("setup_s samples: {setups:?}"));
    notes.extend(bench.digest());
    // Host throughput drifts too much on shared machines to hold a bound:
    // printed here, reported in the per-layer set.
    for m in l.host_metrics() {
        notes.push(format!(
            "{} = {:e} {} ({})",
            m.name, m.value, m.unit, m.scope
        ));
    }
    vec![
        Metric::new(
            "virt_tgs",
            warm.virt_tgs,
            "tokens/s/gpu",
            "per GPU, max-over-ranks clock",
        ),
        Metric::new(
            "peak_device_bytes",
            warm.peak_device_bytes,
            "bytes",
            "max over ranks",
        ),
        Metric::new(
            "host_peak_rss_bytes",
            host::peak_rss_bytes(),
            "bytes",
            "process",
        ),
        Metric::new(
            "setup_s",
            median(&setups),
            "s",
            "process, median of set-ups",
        ),
    ]
}

fn per_layer(opts: &Opts, tally: &mut Tally, notes: &mut Vec<String>) -> Vec<Metric> {
    let toy = opts.scale == Scale::Toy;
    let (mut bench, _warm, _) = setup(opts, tally);
    let cycle = bench.cycle();
    if opts.corrupt {
        bench.corrupt_next();
    }
    let half = opts.seconds / 2.0;
    let min_iters = MIN_ITERS.max(cycle);
    let plain = timed_loop(&mut *bench, Record::Off, half, min_iters, 0, tally);
    let traced = timed_loop(&mut *bench, Record::Trace, half, min_iters, cycle, tally);
    notes.push(format!(
        "iterations: {} untraced, {} traced",
        plain.host_s.len(),
        traced.host_s.len()
    ));
    notes.extend(bench.digest());

    // Virtual per-layer numbers: mean over one cycle of configurations.
    let mut metrics: Vec<Metric> = Vec::new();
    for cap in &traced.captures {
        for m in virt::metrics(cap) {
            match metrics.iter_mut().find(|x| x.name == m.name) {
                Some(x) => x.value += m.value / cycle as f64,
                None => metrics.push(Metric {
                    value: m.value / cycle as f64,
                    ..m
                }),
            }
        }
    }
    let exports: Vec<f64> = traced.captures.iter().take(3).map(export_s).collect();
    metrics.push(Metric::new(
        "obs.trace_overhead_frac",
        median(&traced.host_s) / median(&plain.host_s) - 1.0,
        "fraction",
        "traced over untraced host s/iter",
    ));
    metrics.extend(plain.host_metrics());
    metrics.push(Metric::new(
        "obs.export_s",
        median(&exports),
        "s",
        "per iteration, all ranks",
    ));
    let shape = probe_shape(opts.workload, opts.scale);
    let (budget, reps) = if toy { (0.0, 2) } else { (0.25, 16) };
    metrics.extend(probes::run(&shape, opts.seed, budget, reps));
    metrics
}
