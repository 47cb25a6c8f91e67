//! Trace-level verification of the Fig. 5 overlap schedules: the span
//! timelines must show BurstAttention's read-only payloads departing before
//! the compute that hides them, its blocked time shrinking relative to the
//! flat ring, a multi-head forward posting every head's inter-node payload
//! up front, and a multi-head backward sending the next head's inter-node
//! bundle before the last head's `∇Q` comes home.

use burst_comm::obs::{validate, wait_compute_secs};
use burst_comm::{RankTrace, SpanKind, Topology, World};
use burst_dattn::{
    double_ring, try_run_attention_opts, Algo, AttnShard, BackwardInputs, CostModel,
    DoubleRingSpec, Layout,
};
use burst_kernels::{flash_forward, AttnMask};
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
        try_run_attention_opts(
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
            false,
        )
        .expect("fault-free attention");
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
        let spec = DoubleRingSpec::full(comm.topology());
        if pipelined {
            double_ring::try_double_ring_forward_heads_on(comm, &heads, &spec).unwrap();
        } else {
            for shard in &heads {
                double_ring::try_double_ring_forward_heads_on(
                    comm,
                    std::slice::from_ref(shard),
                    &spec,
                )
                .unwrap();
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

/// Each rank's trace of a two-head Algorithm 2 backward on `a800(2, 4)`:
/// one multi-head call handing each head to the next, or one single-head
/// call per head.
fn two_head_backward(handed: bool) -> Vec<RankTrace> {
    let topo = Topology::a800(2, 4);
    let g = topo.world_size();
    let scale = 1.0 / (D as f32).sqrt();
    let all: Vec<usize> = (0..N).collect();
    let data: Vec<[Mat; 6]> = (0..2)
        .map(|h| {
            let q = randn_mat(N, D, 0.7, 81 + 10 * h);
            let k = randn_mat(N, D, 0.7, 82 + 10 * h);
            let v = randn_mat(N, D, 0.7, 83 + 10 * h);
            let fwd = flash_forward(&q, &k, &v, scale, &AttnMask::Causal, &all, &all);
            let lse = Mat::from_vec(N, 1, fwd.lse);
            let go = randn_mat(N, D, 0.8, 84 + 10 * h);
            [q, k, v, fwd.o, lse, go]
        })
        .collect();
    World::new(topo).run_results(|comm| {
        comm.start_trace();
        let idx = Layout::Zigzag.indices(N, g, comm.rank());
        let local: Vec<Vec<Mat>> = data
            .iter()
            .map(|mats| mats.iter().map(|m| m.gather_rows(&idx)).collect())
            .collect();
        let ds: Vec<Vec<f32>> = local.iter().map(|m| m[5].rowsum_hadamard(&m[3])).collect();
        let heads: Vec<(AttnShard, BackwardInputs)> = local
            .iter()
            .zip(&ds)
            .map(|(m, d)| {
                let shard = AttnShard {
                    q: &m[0],
                    k: &m[1],
                    v: &m[2],
                    scale,
                    mask: &AttnMask::Causal,
                    layout: Layout::Zigzag,
                    seq_len: N,
                    cost: slow_device(),
                    max_token: None,
                    skip: false,
                };
                let back = BackwardInputs {
                    lse: m[4].as_slice(),
                    grad_o: &m[5],
                    d,
                };
                (shard, back)
            })
            .collect();
        let spec = DoubleRingSpec::full(comm.topology());
        if handed {
            double_ring::try_double_ring_backward_alg2_heads_on(comm, &heads, &spec).unwrap();
        } else {
            for head in &heads {
                double_ring::try_double_ring_backward_alg2_heads_on(
                    comm,
                    std::slice::from_ref(head),
                    &spec,
                )
                .unwrap();
            }
        }
        comm.take_rank_trace().expect("tracing on")
    })
}

/// The departures of a rank's start-bundle sends — its inter-node sends to
/// the same local rank on the next node — and the `(start, end)` of its
/// `dr_bwd_slot` and `dr_dq_final` rounds, in record order.
type BackwardRounds = (Vec<f64>, Vec<(f64, f64)>, Vec<(f64, f64)>);

fn backward_rounds(trace: &RankTrace) -> BackwardRounds {
    let gpn = 4;
    let peer_next = (trace.rank + gpn) % (2 * gpn);
    let bundles = trace
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Send && s.inter && s.peer as usize == peer_next)
        .map(|s| s.start)
        .collect();
    let rounds = |name| {
        trace
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::AttnRound && s.name == name)
            .map(|s| (s.start, s.end))
            .collect()
    };
    (bundles, rounds("dr_bwd_slot"), rounds("dr_dq_final"))
}

#[test]
fn multi_head_backward_sends_the_next_bundle_before_the_homecoming() {
    // Each head's start bundle `(Q, ∇O, Lse, D)` crosses once, as four
    // messages, each head runs eight slots, and each head's `∇Q` comes
    // home in one round.
    for handed in [true, false] {
        for trace in two_head_backward(handed) {
            let rank = trace.rank;
            validate(&trace).unwrap_or_else(|e| panic!("handed={handed}: {e}"));
            assert!(trace.warnings.is_empty(), "{:?}", trace.warnings);
            let (bundles, slots, homecomings) = backward_rounds(&trace);
            assert_eq!(bundles.len(), 8, "handed={handed} rank {rank}");
            assert_eq!(slots.len(), 16, "handed={handed} rank {rank}");
            assert_eq!(homecomings.len(), 2, "handed={handed} rank {rank}");
            let head1_first = bundles[4];
            let head0_home = homecomings[0];
            if handed {
                // Head 1's bundle leaves during head 0's last sweep, and
                // head 0's `∇Q` comes home during head 1's pass.
                let (head0_last, head1_start) = (slots[7].1, slots[8].0);
                assert!(
                    head1_first < head0_last,
                    "rank {rank}: head 1's bundle left at {head1_first}, after head 0's \
                     last slot ended at {head0_last}"
                );
                assert!(
                    head0_home.0 >= head1_start,
                    "rank {rank}: head 0's homecoming began at {}, before head 1's first \
                     slot at {head1_start}",
                    head0_home.0
                );
                assert!(
                    head1_first < head0_home.1,
                    "rank {rank}: head 1's bundle left at {head1_first}, after head 0's \
                     homecoming ended at {}",
                    head0_home.1
                );
            } else {
                assert!(
                    head1_first >= head0_home.1,
                    "rank {rank}: head 1's bundle left at {head1_first}, before head 0's \
                     pass ended at {}",
                    head0_home.1
                );
            }
        }
    }
}
