//! Masked wire census vs measured traffic: with mask-aware skipping ON,
//! the bytes and messages a schedule actually puts on the wire must equal
//! the analytic masked census **exactly** (integer equality, both wire
//! dtypes), the number of elided rank-rounds must equal the analytic
//! skipped-round count, the skipped-byte dual must reconstruct the dense
//! census to the byte, and the virtual clock must stay monotone and never
//! run longer than the unskipped schedule.

use burst_comm::{CommStats, SpanKind, Topology, WireDtype, World};
use burst_dattn::ring::AttnShard;
use burst_dattn::{try_run_attention_shard, Algo, CostModel, Layout};
use burst_kernels::{AttnMask, BlockSparseMask};
use burst_perf::{exact_wire_counts_dtype, exact_wire_counts_masked_dtype, Cluster};
use burst_tensor::randn_mat;
use proptest::prelude::*;

/// Deterministic random block-sparse pattern (xorshift64) with the
/// diagonal kept allowed — the same generator the differential matrix
/// uses, dense enough to stay solvable, sparse enough to skip rounds.
fn random_block_sparse(n: usize, block: usize, seed: u64) -> AttnMask {
    let nblocks = n.div_ceil(block);
    let mut s = seed | 1;
    let mut allowed = vec![false; nblocks * nblocks];
    for bi in 0..nblocks {
        for bj in 0..nblocks {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            allowed[bi * nblocks + bj] = bi == bj || (s >> 33) & 3 == 0;
        }
    }
    AttnMask::BlockSparse(BlockSparseMask::new(block, nblocks, allowed))
}

fn mask_for(kind: usize, seq: usize, seed: u64) -> AttnMask {
    match kind {
        0 => AttnMask::SlidingWindow { window: seq / 4 },
        1 => AttnMask::Dilated {
            window: seq / 2,
            step: 2,
        },
        _ => random_block_sparse(seq, 4, seed),
    }
}

const ALGOS: [Algo; 3] = [Algo::RingFlat, Algo::DoubleRing, Algo::BurstTopo];

/// Run one attention layer (forward + backward), cut at `max_token`, on a
/// fresh world with skipping toggled, returning each rank's comm stats and
/// its clock readings around the schedule, and the payload elements of
/// every message sent.
#[allow(clippy::too_many_arguments)]
fn run_once(
    topo: &Topology,
    algo: Algo,
    layout: Layout,
    seq: usize,
    d: usize,
    mask: &AttnMask,
    skip: bool,
    max_token: Option<usize>,
) -> (Vec<(CommStats, f64, f64)>, Vec<u64>) {
    let g = topo.world_size();
    let q = randn_mat(seq, d, 0.7, 71);
    let k = randn_mat(seq, d, 0.7, 72);
    let v = randn_mat(seq, d, 0.7, 73);
    let go = randn_mat(seq, d, 0.8, 74);
    let mask = mask.clone();
    let world = World::new(topo.clone());
    let outs = world.run(move |comm| {
        comm.start_trace();
        let idx: Vec<usize> = layout
            .spans(seq, g, comm.rank(), max_token)
            .into_iter()
            .flat_map(|s| s.iter())
            .collect();
        let (ql, kl, vl) = (
            q.gather_rows(&idx),
            k.gather_rows(&idx),
            v.gather_rows(&idx),
        );
        let shard = AttnShard {
            q: &ql,
            k: &kl,
            v: &vl,
            scale: 1.0 / (d as f32).sqrt(),
            mask: &mask,
            layout,
            seq_len: seq,
            cost: CostModel::free(),
            max_token,
            skip,
        };
        let t0 = comm.time();
        try_run_attention_shard(algo, comm, &shard, &go.gather_rows(&idx))
            .expect("fault-free schedule failed");
        (t0, comm.time())
    });
    let sends = outs
        .iter()
        .flat_map(|o| o.trace.iter().flat_map(|t| &t.spans))
        .filter(|s| s.kind == SpanKind::Send)
        .map(|s| s.elems)
        .collect();
    let stats = outs
        .into_iter()
        .map(|o| (o.stats, o.result.0, o.result.1))
        .collect();
    (stats, sends)
}

fn sum_stats(outs: &[(CommStats, f64, f64)]) -> (u64, u64, f64, f64, u64, f64) {
    let mut acc = (0u64, 0u64, 0.0f64, 0.0f64, 0u64, 0.0f64);
    for (s, _, _) in outs {
        acc.0 += s.intra_msgs;
        acc.1 += s.inter_msgs;
        acc.2 += s.intra_bytes;
        acc.3 += s.inter_bytes;
        acc.4 += s.rounds_skipped;
        acc.5 += s.skipped_bytes;
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For a random mask (sliding-window, dilated, or seeded random
    /// block-sparse), world shape, schedule, layout and wire dtype:
    ///
    /// * skip-ON measured traffic == masked census, to the message and byte;
    /// * skip-ON elided rounds == the census's analytic skipped-round count;
    /// * measured bytes + skipped-byte dual == dense census bytes exactly;
    /// * skip-OFF measured traffic == dense census, with zero skips billed;
    /// * each rank's clock is monotone and skip-ON never finishes later
    ///   than skip-OFF.
    #[test]
    fn measured_masked_traffic_equals_masked_census(
        nodes in 1usize..=2,
        gpn in 2usize..=4,
        mask_kind in 0usize..3,
        mask_seed in 0u64..1_000,
        method_idx in 0usize..3,
        layout_idx in 0usize..2,
        dtype_idx in 0usize..2,
    ) {
        let g = nodes * gpn;
        let (seq, d) = (8 * g, 8usize);
        let mask = mask_for(mask_kind, seq, mask_seed);
        let algo = ALGOS[method_idx];
        let layout = [Layout::Contiguous, Layout::Zigzag][layout_idx];
        let dtype = [WireDtype::F32, WireDtype::Bf16][dtype_idx];
        let cluster = Cluster::a800(nodes, gpn);
        let topo = Topology::a800(nodes, gpn).with_wire_dtype(dtype);
        let label = format!(
            "{algo:?}+{layout:?}+{} mask{mask_kind}/{mask_seed} {nodes}x{gpn}",
            dtype.label()
        );

        let (on, _) = run_once(&topo, algo, layout, seq, d, &mask, true, None);
        let (im, xm, ib, xb, skipped_rounds, skipped_bytes) = sum_stats(&on);
        let want =
            exact_wire_counts_masked_dtype(&cluster, seq, d, algo, dtype, &mask, layout, None, true);
        prop_assert_eq!(
            (im, xm),
            (want.counts.intra_msgs, want.counts.inter_msgs),
            "{}: masked message census mismatch", label
        );
        prop_assert_eq!(
            (ib, xb),
            (want.counts.intra_bytes, want.counts.inter_bytes),
            "{}: masked byte census mismatch", label
        );
        prop_assert_eq!(
            skipped_rounds, want.rounds_skipped,
            "{}: skipped-round count mismatch", label
        );
        prop_assert_eq!(
            skipped_bytes, want.skipped_bytes,
            "{}: skipped-byte dual mismatch", label
        );

        // The dual reconstructs the dense schedule to the byte.
        let dense = exact_wire_counts_dtype(&cluster, seq, d, algo, dtype);
        prop_assert_eq!(
            ib + xb + skipped_bytes,
            dense.intra_bytes + dense.inter_bytes,
            "{}: wire bytes + skipped dual must equal the dense census", label
        );

        // Skip-OFF reproduces the dense census and bills no skips.
        let (off, _) = run_once(&topo, algo, layout, seq, d, &mask, false, None);
        let (im0, xm0, ib0, xb0, sr0, sb0) = sum_stats(&off);
        prop_assert_eq!((sr0, sb0), (0u64, 0.0f64), "{}: dense run billed skips", label);
        prop_assert_eq!(
            (im0, xm0, ib0, xb0),
            (dense.intra_msgs, dense.inter_msgs, dense.intra_bytes, dense.inter_bytes),
            "{}: dense run vs dense census mismatch", label
        );

        // Clock: monotone per rank, and skipping never slows a rank down.
        for (rank, ((_, t0, t1), (_, u0, u1))) in on.iter().zip(&off).enumerate() {
            prop_assert!(t1.is_finite() && *t1 >= *t0, "{label}: rank {rank} clock ran backwards");
            prop_assert!(u1.is_finite() && *u1 >= *u0);
            prop_assert!(
                t1 - t0 <= u1 - u0 + 1e-12,
                "{label}: rank {rank} skip-on elapsed {} > skip-off {}",
                t1 - t0,
                u1 - u0
            );
        }
    }
}

/// Non-vacuity witness for the property above: a sliding-window mask on a
/// contiguous layout genuinely elides rounds and bytes on every schedule,
/// and the measured counters agree with the census about how many.
#[test]
fn window_on_contiguous_actually_skips() {
    let (nodes, gpn, d) = (2usize, 2usize, 8usize);
    let g = nodes * gpn;
    let seq = 8 * g;
    let mask = AttnMask::SlidingWindow { window: seq / 4 };
    let cluster = Cluster::a800(nodes, gpn);
    let topo = Topology::a800(nodes, gpn);
    for algo in ALGOS {
        let want = exact_wire_counts_masked_dtype(
            &cluster,
            seq,
            d,
            algo,
            WireDtype::F32,
            &mask,
            Layout::Contiguous,
            None,
            true,
        );
        assert!(
            want.rounds_skipped > 0,
            "{algo:?}: census predicts no skipped rounds — witness is vacuous"
        );
        assert!(want.skipped_bytes > 0.0, "{algo:?}: no bytes saved");
        let (outs, _) = run_once(&topo, algo, Layout::Contiguous, seq, d, &mask, true, None);
        let (_, _, ib, xb, rounds, bytes) = sum_stats(&outs);
        assert_eq!(rounds, want.rounds_skipped, "{algo:?}: measured skips");
        assert_eq!(bytes, want.skipped_bytes, "{algo:?}: measured saved bytes");
        assert_eq!(
            (ib, xb),
            (want.counts.intra_bytes, want.counts.inter_bytes),
            "{algo:?}: measured wire bytes"
        );
    }
}

/// The masked census of one pass on the zigzag layout, in `sum_stats`'
/// shape: `(intra msgs, inter msgs, intra bytes, inter bytes, rounds
/// skipped, skipped bytes)`.
#[allow(clippy::too_many_arguments)]
fn zigzag_census(
    algo: Algo,
    (nodes, gpn): (usize, usize),
    seq: usize,
    d: usize,
    dtype: WireDtype,
    mask: &AttnMask,
    max_token: Option<usize>,
    skip: bool,
) -> (u64, u64, f64, f64, u64, f64) {
    let cluster = Cluster::a800(nodes, gpn);
    let c = exact_wire_counts_masked_dtype(
        &cluster,
        seq,
        d,
        algo,
        dtype,
        mask,
        Layout::Zigzag,
        max_token,
        skip,
    );
    (
        c.counts.intra_msgs,
        c.counts.inter_msgs,
        c.counts.intra_bytes,
        c.counts.inter_bytes,
        c.rounds_skipped,
        c.skipped_bytes,
    )
}

/// Tile-aligned zigzag cells: at `seq = 64·G` every chunk is one 32-row
/// kernel tile, so the skip plans split shards into their two spans and a
/// read-only hop may carry one of them. On all four ring schedules the
/// measured traffic still equals the masked census to the message and
/// byte, and measured plus skipped bytes equal the dense census — uncut
/// and cut mid-chunk (inside rank 0's second span), on both wire dtypes.
/// Window cells must show a single-span send.
#[test]
fn aligned_zigzag_span_traffic_equals_masked_census() {
    let d = 8usize;
    for shape in [(2usize, 2usize), (2, 4)] {
        let g = shape.0 * shape.1;
        let (seq, chunk) = (64 * g, 32usize);
        let masks = [
            AttnMask::SlidingWindow { window: chunk },
            AttnMask::Dilated {
                window: 2 * chunk,
                step: 3,
            },
            random_block_sparse(seq, chunk / 2, 7),
        ];
        for dtype in [WireDtype::F32, WireDtype::Bf16] {
            let topo = Topology::a800(shape.0, shape.1).with_wire_dtype(dtype);
            for mask in &masks {
                for max_token in [None, Some(seq - chunk / 2)] {
                    for algo in [
                        Algo::RingFlat,
                        Algo::BurstFlat,
                        Algo::DoubleRing,
                        Algo::BurstTopo,
                    ] {
                        let label =
                            format!("{algo:?} {shape:?} {dtype:?} {mask:?} cut {max_token:?}");
                        let census =
                            |skip| zigzag_census(algo, shape, seq, d, dtype, mask, max_token, skip);
                        let (on, sends) =
                            run_once(&topo, algo, Layout::Zigzag, seq, d, mask, true, max_token);
                        let got = sum_stats(&on);
                        assert_eq!(got, census(true), "{label}: measured != masked census");
                        let dense = census(false);
                        assert_eq!(
                            got.2 + got.3 + got.5,
                            dense.2 + dense.3,
                            "{label}: measured + skipped != dense census"
                        );
                        if matches!(mask, AttnMask::SlidingWindow { .. }) {
                            assert!(
                                sends.contains(&((chunk * d) as u64)),
                                "{label}: no read-only send carried a single span"
                            );
                        }
                    }
                }
            }
        }
    }
}
