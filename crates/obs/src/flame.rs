//! Plain-text flame summary: per-rank, per-kind time totals rendered as a
//! fixed-width table with proportional bars — the quick look before
//! opening the full trace in Perfetto.

use crate::span::{RankTrace, SpanKind};

/// Kinds shown in the summary, in display order. `Send` is wire time and
/// overlaps the others; it is listed last and not part of the busy bar.
/// Async sends also overlap each other, so its row reports wire-busy
/// seconds — the union of the rank's send intervals within its timeline —
/// not their sum.
const KINDS: [SpanKind; 4] = [
    SpanKind::Kernel,
    SpanKind::Wait,
    SpanKind::Recv,
    SpanKind::Send,
];

const BAR_WIDTH: usize = 24;

fn bar(frac: f64) -> String {
    let filled = ((frac.clamp(0.0, 1.0)) * BAR_WIDTH as f64).round() as usize;
    let mut s = String::with_capacity(BAR_WIDTH);
    for i in 0..BAR_WIDTH {
        s.push(if i < filled { '#' } else { '.' });
    }
    s
}

/// Render the per-rank summary. Degenerate inputs (no ranks, zero-length
/// timelines, no compute) render as empty bars rather than panicking.
pub fn flame_text(traces: &[RankTrace]) -> String {
    let mut out = String::new();
    let makespan = traces.iter().map(|t| t.end_time).fold(0.0, f64::max);
    out.push_str(&format!(
        "flame summary: {} rank(s), makespan {:.6e}s\n",
        traces.len(),
        makespan
    ));
    for t in traces {
        out.push_str(&format!("rank {:>3}  end {:.6e}s\n", t.rank, t.end_time));
        for kind in KINDS {
            let (label, secs) = match kind {
                SpanKind::Send => ("send busy", t.union_secs(kind)),
                _ => (kind.label(), t.total_secs(kind)),
            };
            let count = t.count(kind);
            if count == 0 {
                continue;
            }
            let frac = if t.end_time > 0.0 {
                secs / t.end_time
            } else {
                0.0
            };
            out.push_str(&format!(
                "  {:<10} {} {:>12.6e}s  ({:>5.1}%)  n={}\n",
                label,
                bar(frac),
                secs,
                frac * 100.0,
                count
            ));
        }
        for w in &t.warnings {
            out.push_str(&format!("  warning: {w}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::RankSink;

    #[test]
    fn renders_a_busy_rank() {
        let mut sink = RankSink::with_capacity(0, 8);
        sink.leaf(SpanKind::Kernel, "k", 0.0, 0.5, u32::MAX, 0, false);
        sink.leaf(SpanKind::Wait, "w", 0.5, 1.0, u32::MAX, 0, false);
        let text = flame_text(&[sink.finish(1.0)]);
        assert!(text.contains("rank   0"), "{text}");
        assert!(text.contains("kernel"), "{text}");
        assert!(text.contains("50.0%"), "{text}");
    }

    #[test]
    fn overlapping_sends_report_wire_busy_time() {
        // Two async sends in flight over the whole 1 s timeline keep the
        // wire busy for 1 s, not 2 s.
        let mut sink = RankSink::with_capacity(0, 4);
        sink.leaf(SpanKind::Send, "send", 0.0, 1.0, 1, 8, false);
        sink.leaf(SpanKind::Send, "send", 0.0, 1.0, 2, 8, true);
        let text = flame_text(&[sink.finish(1.0)]);
        assert!(text.contains("send busy"), "{text}");
        assert!(text.contains("(100.0%)  n=2"), "{text}");
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        assert!(flame_text(&[]).contains("0 rank(s)"));
        // One rank, zero compute, zero-length timeline.
        let sink = RankSink::with_capacity(0, 4);
        let text = flame_text(&[sink.finish(0.0)]);
        assert!(text.contains("rank   0"), "{text}");
    }

    #[test]
    fn warnings_are_surfaced() {
        let mut sink = RankSink::with_capacity(1, 4);
        sink.begin(SpanKind::Step, "step", 0.0);
        let text = flame_text(&[sink.finish(0.5)]);
        assert!(text.contains("warning:"), "{text}");
        assert!(text.contains("force-closed"), "{text}");
    }
}
