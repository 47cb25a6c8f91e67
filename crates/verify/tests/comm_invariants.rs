//! Algebraic invariants of the comm layer, property-tested:
//!
//! * `all_gather ∘ reduce_scatter ≡ all_reduce` — bit-exactly, on the
//!   divisible path where `all_reduce_mat` itself is RS+AG;
//! * `all_to_all` is an involution: routing the received blocks straight
//!   back restores every rank's original payload bit-for-bit;
//! * byte conservation: the bytes/messages the simulated wire actually
//!   carried during ring attention equal `exact_wire_counts_dtype`' closed-form
//!   census, per link class, exactly;
//! * the virtual clock is monotone through any sequence of collectives.

use burst_comm::{Topology, WireDtype, World};
use burst_dattn::{try_run_attention_opts, Algo, CostModel, Layout};
use burst_kernels::AttnMask;
use burst_perf::commtime::{exact_wire_counts_dtype, RingMethod};
use burst_perf::machine::Cluster;
use burst_tensor::{randn_mat, Mat};
use burst_verify::assert_bits_eq;
use proptest::prelude::*;

fn rank_mat(rank: usize, rows: usize, cols: usize, salt: u64) -> Mat {
    Mat::from_fn(rows, cols, |r, c| {
        (((rank as u64 + 1) * 131 + r as u64 * 17 + c as u64 * 3 + salt * 7) % 101) as f32 / 9.0
            - 5.0
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On the divisible path `all_reduce_mat` *is* reduce-scatter followed
    /// by all-gather; composing the two collectives by hand must therefore
    /// agree to the last bit — any drift means the fused path reordered a
    /// reduction. Worlds are single nodes or `a800` clusters of 1..=3
    /// nodes × 1..=4 GPUs, so the two-level ring is covered too.
    #[test]
    fn all_gather_of_reduce_scatter_is_all_reduce(
        g in 1usize..6,
        rows_per_rank in 1usize..4,
        cols in 1usize..4,
        salt in 0u64..1_000,
        cluster in prop_oneof![Just(None), (1usize..=3, 1usize..=4).prop_map(Some)],
    ) {
        let topo = match cluster {
            None => Topology::single_node(g),
            Some((nodes, gpn)) => Topology::a800(nodes, gpn),
        };
        let g = topo.world_size();
        let world = World::new(topo);
        let outs = world.run_results(move |comm| {
            let me = comm.rank();
            let x = rank_mat(me, g * rows_per_rank, cols, salt);
            let fused = comm.all_reduce_mat(&x);
            let parts: Vec<Mat> = (0..g)
                .map(|p| x.slice_rows(p * rows_per_rank, (p + 1) * rows_per_rank))
                .collect();
            let mine = comm.try_reduce_scatter_mat(&parts).expect("reduce-scatter");
            let gathered = comm.all_gather_mat(&mine);
            let composed = Mat::vstack(&gathered);
            (fused, composed)
        });
        for (rank, (fused, composed)) in outs.iter().enumerate() {
            assert_bits_eq(
                &format!("rank{rank}: AG∘RS vs AR"),
                composed.as_slice(),
                fused.as_slice(),
            );
        }
    }

    /// all-to-all twice is the identity: each rank sends block `d` to rank
    /// `d`, then routes what it received straight back, and must recover
    /// its original outgoing payloads bit-for-bit (messages are neither
    /// altered, duplicated nor misrouted — including self-delivery and the
    /// single-rank world).
    #[test]
    fn all_to_all_is_an_involution(
        g in 1usize..6,
        rows in 1usize..4,
        cols in 1usize..4,
        salt in 0u64..1_000,
    ) {
        let world = World::new(Topology::single_node(g));
        let outs = world.run_results(move |comm| {
            let me = comm.rank();
            let original: Vec<Mat> = (0..g)
                .map(|d| rank_mat(me * g + d, rows, cols, salt))
                .collect();
            let received = comm.all_to_all_mat(original.clone());
            let returned = comm.all_to_all_mat(received);
            (original, returned)
        });
        for (rank, (original, returned)) in outs.iter().enumerate() {
            for (d, (a, b)) in original.iter().zip(returned).enumerate() {
                assert_bits_eq(
                    &format!("rank{rank} block{d}"),
                    b.as_slice(),
                    a.as_slice(),
                );
            }
        }
    }

    /// The virtual clock never runs backwards, collectives leave every
    /// rank's clock positive once any real message moved, and a
    /// single-rank world's collectives cost nothing on the wire.
    #[test]
    fn virtual_clock_is_monotone(
        g in 1usize..5,
        rows in 1usize..4,
        salt in 0u64..1_000,
    ) {
        let world = World::new(Topology::single_node(g));
        let outs = world.run_results(move |comm| {
            let me = comm.rank();
            let mut stamps = vec![comm.time()];
            let x = rank_mat(me, g * rows, 2, salt);
            let _ = comm.all_reduce_mat(&x);
            stamps.push(comm.time());
            let _ = comm.all_gather_mat(&x);
            stamps.push(comm.time());
            let _ = comm.all_to_all_mat((0..g).map(|d| rank_mat(d, rows, 2, salt)).collect());
            stamps.push(comm.time());
            comm.try_barrier().expect("barrier");
            stamps.push(comm.time());
            stamps
        });
        for (rank, stamps) in outs.iter().enumerate() {
            for w in stamps.windows(2) {
                prop_assert!(
                    w[1] >= w[0],
                    "rank{rank}: clock ran backwards ({} -> {})", w[0], w[1]
                );
            }
            if g > 1 {
                prop_assert!(stamps.last().unwrap() > &0.0, "rank{rank}: clock never advanced");
            }
        }
    }
}

/// Byte conservation: run each ring method's full forward+backward on the
/// simulated wire and census the bytes and messages every rank actually
/// sent. The totals must equal `exact_wire_counts_dtype`' closed-form prediction
/// *exactly*, per link class — the analytic model and the simulator count
/// the same wire.
#[test]
fn measured_wire_traffic_equals_exact_census() {
    const METHODS: [(&str, Algo, RingMethod); 3] = [
        ("ring", Algo::RingFlat, RingMethod::Ring),
        ("double_ring", Algo::DoubleRing, RingMethod::DoubleRing),
        ("burst", Algo::BurstTopo, RingMethod::Burst),
    ];
    let (seq, d) = (64usize, 8usize);
    for (nodes, gpn) in [(1usize, 4usize), (2, 2), (2, 4)] {
        let cluster = Cluster::a800(nodes, gpn);
        let g = nodes * gpn;
        // Both wire dtypes: the census must track the 4-byte f32 payloads
        // and the 2-byte bf16 payloads (LSE/D stat vectors stay f32 either
        // way, so bf16 does NOT simply halve the totals).
        for dtype in [WireDtype::F32, WireDtype::Bf16] {
            let topo = Topology::a800(nodes, gpn).with_wire_dtype(dtype);
            for (name, algo, method) in METHODS {
                let q = randn_mat(seq, d, 0.7, 61);
                let k = randn_mat(seq, d, 0.7, 62);
                let v = randn_mat(seq, d, 0.7, 63);
                let go = randn_mat(seq, d, 0.8, 64);
                let world = World::new(topo.clone());
                let outs = world.run(move |comm| {
                    let idx = Layout::Zigzag.indices(seq, g, comm.rank());
                    try_run_attention_opts(
                        algo,
                        comm,
                        &q.gather_rows(&idx),
                        &k.gather_rows(&idx),
                        &v.gather_rows(&idx),
                        &go.gather_rows(&idx),
                        1.0 / (d as f32).sqrt(),
                        &AttnMask::Causal,
                        Layout::Zigzag,
                        seq,
                        &CostModel::free(),
                        false,
                    )
                    .expect("fault-free attention");
                });
                let mut intra_msgs = 0u64;
                let mut inter_msgs = 0u64;
                let mut intra_bytes = 0.0f64;
                let mut inter_bytes = 0.0f64;
                for o in &outs {
                    intra_msgs += o.stats.intra_msgs;
                    inter_msgs += o.stats.inter_msgs;
                    intra_bytes += o.stats.intra_bytes;
                    inter_bytes += o.stats.inter_bytes;
                }
                let want = exact_wire_counts_dtype(&cluster, seq, d, method, dtype);
                assert_eq!(
                    (intra_msgs, inter_msgs),
                    (want.intra_msgs, want.inter_msgs),
                    "{name} {nodes}x{gpn} {}: message census mismatch",
                    dtype.label()
                );
                assert_eq!(
                    (intra_bytes, inter_bytes),
                    (want.intra_bytes, want.inter_bytes),
                    "{name} {nodes}x{gpn} {}: byte census mismatch",
                    dtype.label()
                );
            }
        }
    }
}

/// A world of one carries nothing on the wire: collectives degenerate to
/// copies, the census predicts zero, and the measured stats agree.
#[test]
fn single_rank_world_moves_no_bytes() {
    let world = World::new(Topology::single_node(1));
    let outs = world.run(|comm| {
        let x = rank_mat(0, 4, 3, 9);
        let r = comm.all_reduce_mat(&x);
        assert_bits_eq("g=1 all_reduce is identity", r.as_slice(), x.as_slice());
        let gathered = comm.all_gather_mat(&x);
        assert_eq!(gathered.len(), 1);
        let swapped = comm.all_to_all_mat(vec![x.clone()]);
        assert_bits_eq(
            "g=1 all_to_all is identity",
            swapped[0].as_slice(),
            x.as_slice(),
        );
    });
    let stats = &outs[0].stats;
    assert_eq!(stats.total_msgs(), 0, "single rank sent messages");
    assert_eq!(stats.intra_bytes + stats.inter_bytes, 0.0);
    let cluster = Cluster::a800(1, 1);
    let counts = exact_wire_counts_dtype(&cluster, 32, 8, RingMethod::Ring, WireDtype::F32);
    assert_eq!(counts.msgs(), 0);
    assert_eq!(counts.bytes(), 0.0);
}
