//! Trace-level verification of the Fig. 5 overlap schedules: the span
//! timelines must show BurstAttention's read-only payloads departing before
//! the compute that hides them, its blocked time shrinking relative to the
//! flat ring, and a multi-head forward posting every head's inter-node
//! payload up front.

use burst_comm::obs::wait_compute_secs;
use burst_comm::{RankTrace, SpanKind, Topology, World};
use burst_dattn::{double_ring, run_attention, Algo, AttnShard, CostModel, DoubleRingSpec, Layout};
use burst_kernels::AttnMask;
use burst_tensor::{randn_mat, Mat};

const N: usize = 128;
const D: usize = 32;

/// A slow simulated device: per-step compute is comparable to the ring
/// transfers, which is where overlap discipline matters.
fn slow_device() -> CostModel {
    CostModel {
        peak_flops: 5e9,
        efficiency: 1.0,
    }
}

fn traced_run(algo: Algo) -> Vec<RankTrace> {
    let topo = Topology::a800(2, 4);
    let g = topo.world_size();
    let q = randn_mat(N, D, 0.7, 61);
    let k = randn_mat(N, D, 0.7, 62);
    let v = randn_mat(N, D, 0.7, 63);
    let go = randn_mat(N, D, 0.8, 64);
    let world = World::new(topo);
    world.run_results(move |comm| {
        comm.start_trace();
        let idx = Layout::Zigzag.indices(N, g, comm.rank());
        run_attention(
            algo,
            comm,
            &q.gather_rows(&idx),
            &k.gather_rows(&idx),
            &v.gather_rows(&idx),
            &go.gather_rows(&idx),
            1.0 / (D as f32).sqrt(),
            &AttnMask::Causal,
            Layout::Zigzag,
            N,
            &slow_device(),
        );
        comm.take_rank_trace().expect("tracing on")
    })
}

fn blocked_fraction(traces: &[RankTrace]) -> f64 {
    let (wait, compute) = wait_compute_secs(traces);
    wait / compute
}

/// Spans of `kind` in record order.
fn spans_of(trace: &RankTrace, kind: SpanKind) -> Vec<(f64, f64)> {
    trace
        .spans
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| (s.start, s.end))
        .collect()
}

#[test]
fn burst_blocks_far_less_than_flat_ring() {
    let flat = blocked_fraction(&traced_run(Algo::RingFlat));
    let double = blocked_fraction(&traced_run(Algo::DoubleRing));
    let burst = blocked_fraction(&traced_run(Algo::BurstTopo));
    assert!(
        burst < 0.5 * flat,
        "burst blocked fraction {burst} vs flat ring {flat}"
    );
    assert!(burst < double, "burst {burst} vs double ring {double}");
}

#[test]
fn burst_posts_read_only_payloads_before_computing() {
    // In the trace, the first send must precede the end of the first
    // compute span (early posting), for every rank.
    for trace in traced_run(Algo::BurstTopo) {
        let first_send = spans_of(&trace, SpanKind::Send)[0].0;
        let first_compute_end = spans_of(&trace, SpanKind::Kernel)[0].1;
        assert!(
            first_send < first_compute_end,
            "first send at {first_send} must precede first compute end {first_compute_end}"
        );
    }
}

#[test]
fn trace_events_are_monotone_and_complete() {
    for trace in traced_run(Algo::BurstTopo) {
        assert!(!trace.spans.is_empty());
        assert!(trace.warnings.is_empty(), "{:?}", trace.warnings);
        for s in &trace.spans {
            assert!(
                s.start <= s.end + 1e-12,
                "inverted interval {}..{}",
                s.start,
                s.end
            );
            assert!(s.end <= trace.end_time + 1e-9, "span past the final clock");
        }
        // Compute spans never overlap each other (one device, one stream).
        let mut computes = spans_of(&trace, SpanKind::Kernel);
        computes.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in computes.windows(2) {
            assert!(w[0].1 <= w[1].0 + 1e-12, "overlapping compute spans");
        }
    }
}

/// Each rank's trace of a two-head double-ring forward on `a800(2, 4)`:
/// one pipelined multi-head pass, or one single-head pass per head.
fn two_head_forward(pipelined: bool) -> Vec<RankTrace> {
    let topo = Topology::a800(2, 4);
    let g = topo.world_size();
    let qkv: Vec<(Mat, Mat, Mat)> = (0..2)
        .map(|h| {
            (
                randn_mat(N, D, 0.7, 71 + 10 * h),
                randn_mat(N, D, 0.7, 72 + 10 * h),
                randn_mat(N, D, 0.7, 73 + 10 * h),
            )
        })
        .collect();
    World::new(topo).run_results(|comm| {
        comm.start_trace();
        let idx = Layout::Zigzag.indices(N, g, comm.rank());
        let local: Vec<(Mat, Mat, Mat)> = qkv
            .iter()
            .map(|(q, k, v)| {
                (
                    q.gather_rows(&idx),
                    k.gather_rows(&idx),
                    v.gather_rows(&idx),
                )
            })
            .collect();
        let heads: Vec<AttnShard> = local
            .iter()
            .map(|(q, k, v)| AttnShard {
                q,
                k,
                v,
                scale: 1.0 / (D as f32).sqrt(),
                mask: &AttnMask::Causal,
                layout: Layout::Zigzag,
                seq_len: N,
                cost: slow_device(),
                max_token: None,
                skip: false,
            })
            .collect();
        if pipelined {
            let spec = DoubleRingSpec::full(comm.topology());
            double_ring::try_double_ring_forward_heads_on(comm, &heads, &spec).unwrap();
        } else {
            for shard in &heads {
                double_ring::double_ring_forward(comm, shard);
            }
        }
        comm.take_rank_trace().expect("tracing on")
    })
}

/// Departure times of a rank's inter-node sends, in record order.
fn inter_departures(trace: &RankTrace) -> Vec<f64> {
    trace
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Send && s.inter)
        .map(|s| s.start)
        .collect()
}

#[test]
fn multi_head_forward_posts_every_heads_inter_node_kv_up_front() {
    // Two nodes: each head sends its (K, V) across once, as two messages.
    for trace in two_head_forward(true) {
        let departs = inter_departures(&trace);
        assert_eq!(departs.len(), 4, "rank {}", trace.rank);
        let first_compute_end = spans_of(&trace, SpanKind::Kernel)[0].1;
        for t in departs {
            assert!(
                t < first_compute_end,
                "rank {}: inter-node send at {t} after the first kernel ended at \
                 {first_compute_end}",
                trace.rank
            );
        }
    }
    // One pass per head: head 1's inter-node sends wait for head 0's whole
    // pass, all eight of its slots.
    for trace in two_head_forward(false) {
        let departs = inter_departures(&trace);
        assert_eq!(departs.len(), 4, "rank {}", trace.rank);
        let head0_end = spans_of(&trace, SpanKind::AttnRound)[7].1;
        for &t in &departs[2..] {
            assert!(
                t >= head0_end,
                "rank {}: head 1 sent at {t} before head 0's pass ended at {head0_end}",
                trace.rank
            );
        }
    }
}
