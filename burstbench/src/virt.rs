//! Per-layer numbers read from what the program already records on the
//! virtual clock: span timelines, `CommStats`, `FaultCounters` and memory
//! ledgers of one traced iteration.

use burst_obs::{overlap_efficiency, peak_census, wire_secs, MemCategory, SpanKind};

use crate::{Capture, Metric};

/// Per-rank virtual seconds, split by the layer that spent them.
#[derive(Default)]
struct RankSplit {
    /// Outermost attention-round spans.
    attn: f64,
    attn_kernel: f64,
    attn_wait: f64,
    rounds: u64,
    layer_fwd: f64,
    layer_bwd: f64,
    recompute: f64,
    fsdp: f64,
}

fn split(spans: &[burst_obs::SpanRecord]) -> RankSplit {
    let mut s = RankSplit::default();
    // Parents precede children, so one forward pass marks every span that
    // sits inside an attention round.
    let mut in_attn = vec![false; spans.len()];
    for (i, sp) in spans.iter().enumerate() {
        let parent_in = sp.parent >= 0 && in_attn[sp.parent as usize];
        in_attn[i] = parent_in || sp.kind == SpanKind::AttnRound;
        let dur = sp.duration();
        match sp.kind {
            SpanKind::AttnRound => {
                s.rounds += 1;
                if !parent_in {
                    s.attn += dur;
                }
            }
            SpanKind::Kernel if parent_in => s.attn_kernel += dur,
            SpanKind::Wait if parent_in => s.attn_wait += dur,
            SpanKind::Layer if sp.name == "layer_fwd" => s.layer_fwd += dur,
            SpanKind::Layer if sp.name == "layer_bwd" => s.layer_bwd += dur,
            SpanKind::Optim => s.fsdp += dur,
            _ => {}
        }
        if sp.kind == SpanKind::Kernel && sp.name == "recompute" {
            s.recompute += dur;
        }
    }
    s
}

fn max(xs: impl Iterator<Item = f64>) -> f64 {
    xs.fold(0.0, f64::max)
}

/// The virtual per-layer metrics of one traced iteration.
pub fn metrics(cap: &Capture) -> Vec<Metric> {
    let splits: Vec<RankSplit> = cap.traces.iter().map(|t| split(&t.spans)).collect();
    let ranks = splits.len() as f64;
    let stats = cap
        .stats
        .iter()
        .fold(burst_comm::CommStats::default(), |a, b| a.merge(b));
    let faults: u64 = cap.faults.iter().map(|f| f.total()).sum();
    let (wire_intra, wire_inter) = wire_secs(&cap.traces);
    let kernel_sum: f64 = splits.iter().map(|s| s.attn_kernel).sum();
    let wait_sum: f64 = splits.iter().map(|s| s.attn_wait).sum();
    let kernel_max = max(splits.iter().map(|s| s.attn_kernel));
    let rounds: u64 = splits.iter().map(|s| s.rounds).sum();
    let spans: usize = cap.traces.iter().map(|t| t.spans.len()).sum();
    let peak = peak_census(&cap.mem);

    const SUM: &str = "sum over ranks";
    const MAX: &str = "max over ranks";
    let mut m = vec![
        Metric::new("comm.msgs", stats.total_msgs() as f64, "count", SUM),
        Metric::new("comm.intra_bytes", stats.intra_bytes, "bytes", SUM),
        Metric::new("comm.inter_bytes", stats.inter_bytes, "bytes", SUM),
        Metric::new(
            "comm.rounds_skipped",
            stats.rounds_skipped as f64,
            "count",
            SUM,
        ),
        Metric::new("comm.bytes_saved", stats.skipped_bytes, "bytes", SUM),
        Metric::new("comm.wire_intra_virt_s", wire_intra, "s", SUM),
        Metric::new("comm.wire_inter_virt_s", wire_inter, "s", SUM),
        Metric::new("comm.faults", faults as f64, "count", SUM),
        Metric::new(
            "dattn.makespan_virt_s",
            max(splits.iter().map(|s| s.attn)),
            "s",
            MAX,
        ),
        Metric::new("dattn.kernel_virt_s", kernel_max, "s", MAX),
        Metric::new(
            "dattn.wait_virt_s",
            max(splits.iter().map(|s| s.attn_wait)),
            "s",
            MAX,
        ),
        Metric::new(
            "dattn.overlap_eff",
            overlap_efficiency(wait_sum, kernel_sum),
            "fraction",
            "ratio of sums over ranks",
        ),
        Metric::new(
            "dattn.imbalance",
            if kernel_sum > 0.0 {
                kernel_max / (kernel_sum / ranks)
            } else {
                1.0
            },
            "ratio",
            "max over mean of ranks",
        ),
        Metric::new(
            "dattn.rounds_skipped_frac",
            stats.rounds_skipped as f64 / (stats.rounds_skipped + rounds).max(1) as f64,
            "fraction",
            "ratio of sums over ranks",
        ),
        Metric::new(
            "model.layer_fwd_virt_s",
            max(splits.iter().map(|s| s.layer_fwd)),
            "s",
            MAX,
        ),
        Metric::new(
            "model.layer_bwd_virt_s",
            max(splits.iter().map(|s| s.layer_bwd)),
            "s",
            MAX,
        ),
        Metric::new(
            "model.recompute_virt_s",
            max(splits.iter().map(|s| s.recompute)),
            "s",
            MAX,
        ),
        Metric::new(
            "model.fsdp_virt_s",
            max(splits.iter().map(|s| s.fsdp)),
            "s",
            MAX,
        ),
        Metric::new("obs.spans_per_iter", spans as f64, "count", SUM),
    ];
    for cat in MemCategory::ALL {
        m.push(Metric::new(
            format!("mem.{}", cat.label()),
            peak.get(cat) as f64,
            "bytes",
            MAX,
        ));
    }
    m.push(Metric::new(
        "mem.gated_total",
        peak.gated_total as f64,
        "bytes",
        MAX,
    ));
    m.push(Metric::new(
        "mem.live_at_close",
        cap.mem.iter().map(|r| r.live_at_close).max().unwrap_or(0) as f64,
        "bytes",
        MAX,
    ));
    m
}

/// Ledger entries the program is known to drop open. The engine's USP
/// executor discards the forward's `UspSaved` without freeing its stash
/// entry (`UspExec::forward` in `crates/model/src/attention.rs`); its bytes
/// show in `mem.live_at_close` until that is fixed.
const KNOWN_LEAKS: [&str; 1] = ["`usp_saved`"];

/// Every rank timeline passes `obs::validate`, and every ledger passes
/// `validate_mem` with zero live bytes at close, apart from the entries in
/// [`KNOWN_LEAKS`].
pub fn validate(cap: &Capture) -> Result<(), String> {
    for t in &cap.traces {
        burst_obs::validate(t)?;
        if !t.warnings.is_empty() {
            return Err(format!(
                "rank {} force-closed spans: {:?}",
                t.rank, t.warnings
            ));
        }
    }
    for m in &cap.mem {
        burst_obs::validate_mem(m)?;
        let known = |w: &String| KNOWN_LEAKS.iter().any(|k| w.contains(k));
        if m.live_at_close != 0 && (m.warnings.is_empty() || !m.warnings.iter().all(known)) {
            return Err(format!(
                "rank {} leaked {} bytes: {:?}",
                m.rank, m.live_at_close, m.warnings
            ));
        }
    }
    Ok(())
}
