//! The machine-readable end-to-end report (`BENCH_e2e.json`).
//!
//! One [`MethodReport`] per attention method compares three views of the
//! same run: the *measured* wire time summed from `Send` spans, the
//! *exact-count* analytic prediction, and the paper's Table 1 closed form
//! from `crates/perf` — so the simulator and the analytic model cross-check
//! each other in CI. Overlap efficiency and modeled MFU summarise where
//! the virtual time went.

use crate::mem::{peak_census, MemCategory, MemReport, PeakBytes};
use crate::span::{wait_compute_secs, wire_secs, RankTrace};
use serde::{Deserialize, Serialize};

/// `1 − wait/(wait+compute)`: the fraction of busy time not spent blocked
/// on the network. Defined as `1.0` for the degenerate cluster with no
/// busy time at all (1 rank, 0 compute) — there is nothing to overlap.
pub fn overlap_efficiency(wait_secs: f64, compute_secs: f64) -> f64 {
    let busy = wait_secs + compute_secs;
    if busy <= 0.0 {
        1.0
    } else {
        1.0 - wait_secs / busy
    }
}

/// Model FLOPs utilisation: useful FLOPs divided by what `world` devices
/// of `peak_flops` each could have done in `makespan_secs`. Zero for a
/// degenerate (zero-time or zero-device) run.
pub fn mfu(useful_flops: f64, makespan_secs: f64, world: usize, peak_flops: f64) -> f64 {
    let budget = makespan_secs * peak_flops * world as f64;
    if budget <= 0.0 {
        0.0
    } else {
        useful_flops / budget
    }
}

/// Useful FLOPs of one causal attention layer pass (forward + backward):
/// 4 matmul-FLOPs per allowed (query, key) pair forward and 10 backward,
/// with `n (n + 1) / 2` causally allowed pairs, each of width `d`.
pub fn causal_attn_flops(seq_len: usize, head_dim: usize) -> f64 {
    let n = seq_len as f64;
    let pairs = n * (n + 1.0) / 2.0;
    14.0 * head_dim as f64 * pairs
}

/// Everything we know about one method's run. Every time field names its
/// scope: `_max_` is the maximum over ranks, `_sum_` the sum over ranks, and
/// `_critical_path_` one pass's communication along its critical path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodReport {
    /// Method name: `"ring"`, `"double_ring"`, `"burst"`, `"burst_topo"`.
    pub method: String,
    pub world: usize,
    /// Final clock, max over ranks.
    pub makespan_max_secs: f64,
    /// Kernel seconds summed over ranks.
    pub compute_sum_secs: f64,
    /// Wait seconds summed over ranks.
    pub wait_sum_secs: f64,
    /// `1 − wait/(wait + compute)` over the two sums.
    pub overlap_efficiency: f64,
    pub mfu: f64,
    pub tokens_per_gpu_per_sec: f64,
    /// Wire seconds measured from `Send` spans (latency + serialization),
    /// summed over ranks, and its intra- and inter-node parts.
    pub comm_measured_sum_secs: f64,
    pub comm_measured_intra_sum_secs: f64,
    pub comm_measured_inter_sum_secs: f64,
    /// Exact-count analytic prediction from `crates/perf`, summed over
    /// ranks like the measurement.
    pub comm_predicted_sum_secs: f64,
    /// The paper's Table 1 closed form: one pass's communication along its
    /// critical path (coarse; reported for reference).
    pub comm_table1_critical_path_secs: f64,
    /// `|measured − predicted| / predicted` (0 when predicted is 0).
    pub comm_rel_err: f64,
    /// Max-over-ranks measured peak bytes per accountant category (all
    /// zeros when the run was not memory-accounted).
    pub peak: PeakBytes,
    /// Fully-masked rank-rounds elided by mask-aware skipping, summed over
    /// ranks (zero on a dense run or with skipping off).
    #[serde(default)]
    pub rounds_skipped: u64,
    /// Wire bytes those skipped rounds would have moved — the dual that
    /// reconstructs the dense census: measured bytes + saved bytes equals
    /// the dense wire census exactly.
    #[serde(default)]
    pub wire_bytes_saved: f64,
}

impl MethodReport {
    /// Assemble a report from the per-rank traces of one run plus the two
    /// analytic comm-time predictions: the exact census summed over ranks
    /// and the Table 1 critical-path closed form.
    #[allow(clippy::too_many_arguments)]
    pub fn from_traces(
        method: &str,
        traces: &[RankTrace],
        seq_len: usize,
        head_dim: usize,
        peak_flops: f64,
        comm_predicted_sum_secs: f64,
        comm_table1_critical_path_secs: f64,
    ) -> MethodReport {
        let world = traces.len();
        let makespan = traces.iter().map(|t| t.end_time).fold(0.0, f64::max);
        let (wait, compute) = wait_compute_secs(traces);
        let (intra, inter) = wire_secs(traces);
        let measured = intra + inter;
        let rel_err = if comm_predicted_sum_secs > 0.0 {
            (measured - comm_predicted_sum_secs).abs() / comm_predicted_sum_secs
        } else {
            0.0
        };
        let denom = makespan * world as f64;
        MethodReport {
            method: method.to_string(),
            world,
            makespan_max_secs: makespan,
            compute_sum_secs: compute,
            wait_sum_secs: wait,
            overlap_efficiency: overlap_efficiency(wait, compute),
            mfu: mfu(
                causal_attn_flops(seq_len, head_dim),
                makespan,
                world,
                peak_flops,
            ),
            tokens_per_gpu_per_sec: if denom > 0.0 {
                seq_len as f64 / denom
            } else {
                0.0
            },
            comm_measured_sum_secs: measured,
            comm_measured_intra_sum_secs: intra,
            comm_measured_inter_sum_secs: inter,
            comm_predicted_sum_secs,
            comm_table1_critical_path_secs,
            comm_rel_err: rel_err,
            peak: PeakBytes::default(),
            rounds_skipped: 0,
            wire_bytes_saved: 0.0,
        }
    }

    /// Attach the mask-aware skip summary of the same run (summed over
    /// ranks).
    pub fn with_skips(mut self, rounds_skipped: u64, wire_bytes_saved: f64) -> MethodReport {
        self.rounds_skipped = rounds_skipped;
        self.wire_bytes_saved = wire_bytes_saved;
        self
    }

    /// Attach the per-rank memory census of the same run (max over ranks,
    /// per category).
    pub fn with_mem(mut self, reports: &[MemReport]) -> MethodReport {
        self.peak = peak_census(reports);
        self
    }
}

/// The `BENCH_e2e.json` document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E2eReport {
    /// Schema tag, currently `"burst-e2e/v4"` (v2 added the per-category
    /// peak-memory census to every method row; v3 added the mask-aware
    /// `rounds_skipped`/`wire_bytes_saved` summary and masked method rows;
    /// v4 names every time field's scope, `_max_` over ranks or `_sum_`
    /// over ranks); CI checks it.
    pub schema: String,
    pub nodes: usize,
    pub gpus_per_node: usize,
    pub seq_len: usize,
    pub head_dim: usize,
    pub methods: Vec<MethodReport>,
}

impl E2eReport {
    pub const SCHEMA: &'static str = "burst-e2e/v4";

    pub fn new(nodes: usize, gpus_per_node: usize, seq_len: usize, head_dim: usize) -> Self {
        E2eReport {
            schema: Self::SCHEMA.to_string(),
            nodes,
            gpus_per_node,
            seq_len,
            head_dim,
            methods: Vec::new(),
        }
    }

    /// Structural checks CI runs on the emitted JSON: schema tag, all
    /// methods populated with positive makespan, finite efficiency/MFU.
    pub fn validate_schema(&self) -> Result<(), String> {
        if self.schema != Self::SCHEMA {
            return Err(format!(
                "schema is `{}`, want `{}`",
                self.schema,
                Self::SCHEMA
            ));
        }
        if self.methods.is_empty() {
            return Err("no methods in report".to_string());
        }
        for m in &self.methods {
            if m.makespan_max_secs <= 0.0 {
                return Err(format!("method `{}` has non-positive makespan", m.method));
            }
            if !(0.0..=1.0).contains(&m.overlap_efficiency) {
                return Err(format!(
                    "method `{}` overlap efficiency {} outside [0, 1]",
                    m.method, m.overlap_efficiency
                ));
            }
            if !m.mfu.is_finite() || m.mfu < 0.0 {
                return Err(format!(
                    "method `{}` MFU {} not finite/non-negative",
                    m.method, m.mfu
                ));
            }
        }
        Ok(())
    }
}

/// A throughput regression fails the gate when measured tokens/GPU/s falls
/// more than this fraction below the committed baseline.
pub const MAX_TGS_DROP: f64 = 0.10;

/// A memory regression fails the gate when a gated peak-bytes lane (or the
/// gated total) rises more than this fraction above the committed baseline.
pub const MAX_PEAK_RISE: f64 = 0.01;

/// The perf-trajectory regression gate: compare a freshly measured report
/// against the committed baseline. Virtual time makes both deterministic,
/// so the bands police *code* changes, not machine noise: a >10 %
/// throughput drop or a >1 % gated peak-memory rise on any method is a
/// violation. Methods present only in `current` are new work and pass;
/// methods missing from `current` are lost coverage and fail. Returns every
/// violation (empty = gate green).
pub fn compare_to_baseline(current: &E2eReport, baseline: &E2eReport) -> Vec<String> {
    let mut violations = Vec::new();
    if current.schema != baseline.schema {
        violations.push(format!(
            "schema drifted: `{}` vs baseline `{}` — regenerate the baseline",
            current.schema, baseline.schema
        ));
        return violations;
    }
    for base in &baseline.methods {
        let Some(cur) = current.methods.iter().find(|m| m.method == base.method) else {
            violations.push(format!(
                "method `{}` disappeared from the report",
                base.method
            ));
            continue;
        };
        if base.tokens_per_gpu_per_sec > 0.0 {
            let floor = base.tokens_per_gpu_per_sec * (1.0 - MAX_TGS_DROP);
            if cur.tokens_per_gpu_per_sec < floor {
                violations.push(format!(
                    "method `{}`: throughput {:.6e} tok/GPU/s is more than {:.0}% below \
                     baseline {:.6e}",
                    cur.method,
                    cur.tokens_per_gpu_per_sec,
                    MAX_TGS_DROP * 100.0,
                    base.tokens_per_gpu_per_sec,
                ));
            }
        }
        let mut lanes: Vec<(&str, u64, u64)> = MemCategory::ALL
            .iter()
            .filter(|c| c.is_gated())
            .map(|&c| (c.label(), cur.peak.get(c), base.peak.get(c)))
            .collect();
        lanes.push(("gated_total", cur.peak.gated_total, base.peak.gated_total));
        for (lane, got, want) in lanes {
            if want > 0 && got as f64 > want as f64 * (1.0 + MAX_PEAK_RISE) {
                violations.push(format!(
                    "method `{}`: peak {lane} {got} B is more than {:.0}% above baseline \
                     {want} B",
                    cur.method,
                    MAX_PEAK_RISE * 100.0,
                ));
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{RankSink, SpanKind};

    #[test]
    fn overlap_efficiency_edges() {
        assert_eq!(overlap_efficiency(0.0, 0.0), 1.0); // degenerate: nothing to hide
        assert_eq!(overlap_efficiency(0.0, 2.0), 1.0); // perfectly overlapped
        assert_eq!(overlap_efficiency(1.0, 1.0), 0.5);
        assert_eq!(overlap_efficiency(3.0, 0.0), 0.0); // pure blocking
    }

    #[test]
    fn mfu_edges() {
        assert_eq!(mfu(100.0, 0.0, 8, 1e12), 0.0);
        let v = mfu(1e12, 1.0, 1, 1e12);
        assert!((v - 1.0).abs() < 1e-12);
    }

    fn busy_trace(rank: usize, compute: f64, wait: f64) -> RankTrace {
        let mut sink = RankSink::with_capacity(rank, 8);
        sink.leaf(SpanKind::Kernel, "k", 0.0, compute, u32::MAX, 0, false);
        sink.leaf(
            SpanKind::Wait,
            "w",
            compute,
            compute + wait,
            u32::MAX,
            0,
            false,
        );
        sink.leaf(SpanKind::Send, "s", 0.0, 0.25, 1, 128, true);
        sink.finish(compute + wait)
    }

    #[test]
    fn method_report_from_traces() {
        let traces = vec![busy_trace(0, 0.6, 0.2), busy_trace(1, 0.7, 0.1)];
        let r = MethodReport::from_traces("ring", &traces, 1024, 64, 312e12, 0.5, 0.6);
        assert_eq!(r.world, 2);
        // The makespan is the later rank's clock; kernel, wait and wire
        // seconds add up over both ranks.
        assert!((r.makespan_max_secs - 0.8).abs() < 1e-12);
        assert!((r.compute_sum_secs - 1.3).abs() < 1e-12);
        assert!((r.wait_sum_secs - 0.3).abs() < 1e-12);
        assert!((r.overlap_efficiency - (1.0 - 0.3 / 1.6)).abs() < 1e-12);
        assert!((r.comm_measured_sum_secs - 0.5).abs() < 1e-12);
        assert!(r.comm_rel_err < 1e-9, "measured matches prediction exactly");
        assert!(r.mfu > 0.0 && r.mfu < 1.0);
        assert!(r.tokens_per_gpu_per_sec > 0.0);
    }

    #[test]
    fn e2e_report_schema_and_serde() {
        let mut report = E2eReport::new(2, 4, 2048, 64);
        assert!(report.validate_schema().is_err(), "empty methods rejected");
        let traces = vec![busy_trace(0, 0.6, 0.2)];
        report.methods.push(MethodReport::from_traces(
            "burst", &traces, 2048, 64, 312e12, 0.5, 0.5,
        ));
        report.validate_schema().unwrap();
        let text = serde_json::to_string_pretty(&report).unwrap();
        let back: E2eReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, report);
        assert!(text.contains("burst-e2e/v4"));
    }

    #[test]
    fn skip_summary_rides_the_report_and_defaults_on_old_json() {
        let traces = vec![busy_trace(0, 0.6, 0.2)];
        let m = MethodReport::from_traces("burst_masked", &traces, 1024, 64, 312e12, 0.5, 0.5)
            .with_skips(12, 4096.0);
        assert_eq!(m.rounds_skipped, 12);
        assert_eq!(m.wire_bytes_saved, 4096.0);
        let text = serde_json::to_string(&m).unwrap();
        assert!(text.contains("rounds_skipped"));
        // A method row written before the skip summary existed still
        // parses, with the summary defaulting to a dense (zero-skip) run.
        // The two fields are declared last, so cutting at the first one
        // (and re-closing the object) yields the old-schema document.
        let cut = text.find(",\"rounds_skipped\"").unwrap();
        let stripped = format!("{}}}", &text[..cut]);
        let back: MethodReport = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.rounds_skipped, 0);
        assert_eq!(back.wire_bytes_saved, 0.0);
    }

    fn gated_report(tgs: f64, peak_total: u64) -> E2eReport {
        let mut report = E2eReport::new(1, 2, 1024, 64);
        let traces = vec![busy_trace(0, 0.6, 0.2)];
        let mut m = MethodReport::from_traces("burst", &traces, 1024, 64, 312e12, 0.5, 0.5);
        m.tokens_per_gpu_per_sec = tgs;
        m.peak.ring_shards = peak_total;
        m.peak.gated_total = peak_total;
        report.methods.push(m);
        report
    }

    #[test]
    fn baseline_gate_passes_inside_the_bands() {
        let base = gated_report(1000.0, 1_000_000);
        // 5% slower and 0.5% more memory: both inside tolerance.
        let cur = gated_report(950.0, 1_005_000);
        assert!(compare_to_baseline(&cur, &base).is_empty());
        // A new method in `current` is new work, not a regression.
        let mut grown = cur.clone();
        let mut extra = grown.methods[0].clone();
        extra.method = "ring".into();
        grown.methods.push(extra);
        assert!(compare_to_baseline(&grown, &base).is_empty());
    }

    #[test]
    fn baseline_gate_fails_on_throughput_drop() {
        let base = gated_report(1000.0, 1_000_000);
        let cur = gated_report(850.0, 1_000_000);
        let v = compare_to_baseline(&cur, &base);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("throughput"), "{v:?}");
    }

    #[test]
    fn baseline_gate_fails_on_peak_memory_rise_and_lost_methods() {
        let base = gated_report(1000.0, 1_000_000);
        let cur = gated_report(1000.0, 1_020_000);
        let v = compare_to_baseline(&cur, &base);
        // Both the ring_shards lane and the gated total breached 1%.
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|s| s.contains("above baseline")), "{v:?}");
        let empty = E2eReport::new(1, 2, 1024, 64);
        let v = compare_to_baseline(&empty, &base);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("disappeared"), "{v:?}");
    }
}
