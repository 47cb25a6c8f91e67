//! End-to-end correctness of every distributed attention implementation
//! against the single-device blocked kernel, across topologies, layouts
//! and masks. Real tensors move between rank threads, so these are exact
//! (up to f32 accumulation-order noise) equivalences.

use burst_comm::obs::{validate_mem, MemReport};
use burst_comm::{CommStats, Communicator, Topology, WireDtype, World};
use burst_dattn::usp::UspTopo;
use burst_dattn::{
    double_ring, try_run_attention_opts, Algo, AttnShard, BackwardInputs, CostModel,
    DoubleRingSpec, Layout,
};
use burst_kernels::flash::DEFAULT_BLOCK;
use burst_kernels::{flash_backward, flash_forward, AttnMask, BlockSparseMask};
use burst_tensor::testutil::assert_allclose;
use burst_tensor::{randn_mat, Mat};

const TOL: f32 = 2e-3;

struct Reference {
    o: Mat,
    dq: Mat,
    dk: Mat,
    dv: Mat,
}

fn reference(q: &Mat, k: &Mat, v: &Mat, grad_o: &Mat, scale: f32, mask: &AttnMask) -> Reference {
    let n = q.rows();
    let idx: Vec<usize> = (0..n).collect();
    let fwd = flash_forward(q, k, v, scale, mask, &idx, &idx);
    let (dq, dk, dv, _) =
        flash_backward(q, k, v, &fwd.o, grad_o, &fwd.lse, scale, mask, &idx, &idx);
    Reference {
        o: fwd.o,
        dq,
        dk,
        dv,
    }
}

fn problem(n: usize, d: usize) -> (Mat, Mat, Mat, Mat, f32) {
    let q = randn_mat(n, d, 0.7, 1);
    let k = randn_mat(n, d, 0.7, 2);
    let v = randn_mat(n, d, 0.7, 3);
    let grad_o = randn_mat(n, d, 0.8, 4);
    let scale = 1.0 / (d as f32).sqrt();
    (q, k, v, grad_o, scale)
}

/// Run `algo` on `topo` and compare every rank's outputs and gradients to
/// the single-device reference.
fn check_algo(algo: Algo, topo: Topology, layout: Layout, mask: AttnMask, n: usize, d: usize) {
    let g = topo.world_size();
    let (q, k, v, grad_o, scale) = problem(n, d);
    let r = reference(&q, &k, &v, &grad_o, scale, &mask);
    let world = World::new(topo);
    let outs = world.run_results(|comm| {
        let idx = layout.indices(n, g, comm.rank());
        let ql = q.gather_rows(&idx);
        let kl = k.gather_rows(&idx);
        let vl = v.gather_rows(&idx);
        let dol = grad_o.gather_rows(&idx);
        try_run_attention_opts(
            algo,
            comm,
            &ql,
            &kl,
            &vl,
            &dol,
            scale,
            &mask,
            layout,
            n,
            &CostModel::free(),
            false,
        )
        .expect("fault-free attention")
    });
    for (rank, (o, _lse, dq, dk, dv)) in outs.iter().enumerate() {
        let idx = layout.indices(n, g, rank);
        let ctx = format!("{algo:?}/{layout:?} rank {rank}");
        assert_allclose(o, &r.o.gather_rows(&idx), TOL, &format!("{ctx} O"));
        assert_allclose(dq, &r.dq.gather_rows(&idx), TOL, &format!("{ctx} dQ"));
        assert_allclose(dk, &r.dk.gather_rows(&idx), TOL, &format!("{ctx} dK"));
        assert_allclose(dv, &r.dv.gather_rows(&idx), TOL, &format!("{ctx} dV"));
    }
}

#[test]
fn ring_flat_matches_reference_all_layouts() {
    for layout in [Layout::Contiguous, Layout::Zigzag, Layout::Striped] {
        check_algo(
            Algo::RingFlat,
            Topology::single_node(4),
            layout,
            AttnMask::Causal,
            32,
            6,
        );
    }
}

#[test]
fn burst_flat_matches_reference_all_layouts() {
    for layout in [Layout::Contiguous, Layout::Zigzag, Layout::Striped] {
        check_algo(
            Algo::BurstFlat,
            Topology::single_node(4),
            layout,
            AttnMask::Causal,
            32,
            6,
        );
    }
}

#[test]
fn double_ring_matches_reference_multi_node() {
    // 2×2, 2×4 and 3×2 exercise different completion-hop counts
    // (nodes mod gpn = 0, 2 and 1).
    for topo in [
        Topology::a800(2, 2),
        Topology::a800(2, 4),
        Topology::a800(3, 2),
    ] {
        check_algo(
            Algo::DoubleRing,
            topo,
            Layout::Zigzag,
            AttnMask::Causal,
            48,
            5,
        );
    }
}

#[test]
fn burst_topo_matches_reference_multi_node() {
    for topo in [
        Topology::a800(2, 2),
        Topology::a800(2, 4),
        Topology::a800(3, 2),
    ] {
        check_algo(
            Algo::BurstTopo,
            topo,
            Layout::Zigzag,
            AttnMask::Causal,
            48,
            5,
        );
    }
}

#[test]
fn topo_algorithms_handle_single_gpu_nodes_and_single_node() {
    // Degenerate shapes: 4 nodes × 1 GPU (pure inter ring) and 1 node × 4
    // GPUs (pure intra ring).
    for topo in [Topology::a800(4, 1), Topology::a800(1, 4)] {
        check_algo(
            Algo::DoubleRing,
            topo.clone(),
            Layout::Contiguous,
            AttnMask::Causal,
            32,
            4,
        );
        check_algo(
            Algo::BurstTopo,
            topo,
            Layout::Contiguous,
            AttnMask::Causal,
            32,
            4,
        );
    }
}

#[test]
fn full_and_sliding_window_masks_work_distributed() {
    for mask in [
        AttnMask::Full,
        AttnMask::SlidingWindow { window: 12 },
        AttnMask::BlockSparse(BlockSparseMask::sliding_window_blocks(8, 6, 2)),
    ] {
        check_algo(
            Algo::BurstTopo,
            Topology::a800(2, 2),
            Layout::Striped,
            mask.clone(),
            48,
            4,
        );
        check_algo(
            Algo::RingFlat,
            Topology::single_node(4),
            Layout::Striped,
            mask,
            48,
            4,
        );
    }
}

/// The two-level forward against the flat ring's, its one-level case.
#[test]
fn double_ring_forward_standalone_matches_flat_ring() {
    let n = 32;
    let d = 4;
    let (q, k, v, _, scale) = problem(n, d);
    let mask = AttnMask::Causal;
    let layout = Layout::Zigzag;
    let world = World::new(Topology::a800(2, 2));
    let outs = world.run_results(|comm| {
        let idx = layout.indices(n, 4, comm.rank());
        let shard = AttnShard {
            q: &q.gather_rows(&idx),
            k: &k.gather_rows(&idx),
            v: &v.gather_rows(&idx),
            scale,
            mask: &mask,
            layout,
            seq_len: n,
            cost: CostModel::free(),
            max_token: None,
            skip: false,
        };
        let mut run = |spec: &DoubleRingSpec| {
            double_ring::try_double_ring_forward_heads_on(comm, std::slice::from_ref(&shard), spec)
                .expect("fault-free attention")
                .remove(0)
        };
        let flat = run(&DoubleRingSpec::one_level(&[0, 1, 2, 3]));
        let topo = run(&DoubleRingSpec::full(&Topology::a800(2, 2)));
        (flat.o, topo.o, flat.lse, topo.lse)
    });
    for (rank, (fo, to, flse, tlse)) in outs.iter().enumerate() {
        assert_allclose(fo, to, 1e-5, &format!("rank {rank} O"));
        for (a, b) in flse.iter().zip(tlse) {
            assert!((a - b).abs() < 1e-5, "rank {rank} lse");
        }
    }
}

/// One rank's side of a forward over several heads: per-head `(O, Lse)`,
/// the rank's counters and its final virtual clock.
type HeadsRun = (Vec<(Mat, Vec<f32>)>, CommStats, f64);

/// Every rank's `HeadsRun` for `heads` heads on `topo`: one pipelined
/// multi-head double-ring pass, or one single-head pass per head.
fn run_heads(
    topo: &Topology,
    heads: usize,
    (mask, layout, skip, max_token): (&AttnMask, Layout, bool, Option<usize>),
    pipelined: bool,
) -> Vec<HeadsRun> {
    let g = topo.world_size();
    let (n, d) = (8 * g, 8);
    let qkv: Vec<(Mat, Mat, Mat)> = (0..heads as u64)
        .map(|h| {
            (
                randn_mat(n, d, 0.7, 10 * h + 1),
                randn_mat(n, d, 0.7, 10 * h + 2),
                randn_mat(n, d, 0.7, 10 * h + 3),
            )
        })
        .collect();
    World::new(topo.clone()).run_results(|comm| {
        let idx: Vec<usize> = layout
            .indices(n, g, comm.rank())
            .into_iter()
            .filter(|&i| max_token.is_none_or(|cut| i < cut))
            .collect();
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
        let shards: Vec<AttnShard> = local
            .iter()
            .map(|(q, k, v)| AttnShard {
                q,
                k,
                v,
                scale: 1.0 / (d as f32).sqrt(),
                mask,
                layout,
                seq_len: n,
                cost: CostModel::a800(),
                max_token,
                skip,
            })
            .collect();
        let spec = DoubleRingSpec::full(comm.topology());
        let outs = if pipelined {
            double_ring::try_double_ring_forward_heads_on(comm, &shards, &spec).unwrap()
        } else {
            shards
                .iter()
                .map(|shard| {
                    double_ring::try_double_ring_forward_heads_on(
                        comm,
                        std::slice::from_ref(shard),
                        &spec,
                    )
                    .unwrap()
                    .remove(0)
                })
                .collect()
        };
        let outs = outs.into_iter().map(|out| (out.o, out.lse)).collect();
        (outs, comm.stats(), comm.time())
    })
}

fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// The wire counters a schedule change must not move.
type Counters = ((u64, u64, u64, u64), (f64, f64), (u64, f64));

fn counters(c: &CommStats) -> Counters {
    (
        (c.intra_msgs, c.inter_msgs, c.intra_elems, c.inter_elems),
        (c.intra_bytes, c.inter_bytes),
        (c.rounds_skipped, c.skipped_bytes),
    )
}

/// The pipelined multi-head forward against one single-head pass per head
/// on one case: bit-identical `(O, Lse)` per head, equal counters per rank,
/// and a makespan never above the sequential one.
fn check_heads(topo: &Topology, heads: usize, case: (&AttnMask, Layout, bool, Option<usize>)) {
    let (mask, layout, skip, max_token) = case;
    let ctx = format!(
        "{}x{} {:?} {mask:?}/{layout:?} skip={skip} max_token={max_token:?} heads={heads}",
        topo.nodes, topo.gpus_per_node, topo.wire_dtype
    );
    let piped = run_heads(topo, heads, case, true);
    let seq = run_heads(topo, heads, case, false);
    for (rank, (p, s)) in piped.iter().zip(&seq).enumerate() {
        for (h, ((po, pl), (so, sl))) in p.0.iter().zip(&s.0).enumerate() {
            let at = format!("{ctx} rank {rank} head {h}");
            assert_eq!(bits(po.as_slice()), bits(so.as_slice()), "{at} O");
            assert_eq!(bits(pl), bits(sl), "{at} Lse");
        }
        assert_eq!(counters(&p.1), counters(&s.1), "{ctx} rank {rank} stats");
    }
    let makespan = |run: &[HeadsRun]| run.iter().map(|r| r.2).fold(0.0, f64::max);
    let (mp, ms) = (makespan(&piped), makespan(&seq));
    assert!(mp <= ms, "{ctx}: pipelined {mp} above sequential {ms}");
    // Only inter-node posts move. Without any (one node, or skip gates that
    // keep every shard on its node) nothing changes; a later head's post
    // gains whenever its sender blocks in the one-pass-per-head schedule,
    // which then holds it back behind the earlier heads' passes.
    let inter = seq.iter().any(|r| r.1.inter_msgs > 0);
    let blocked_sender = seq
        .iter()
        .any(|r| r.1.inter_msgs > 0 && r.1.wait_time > 0.0);
    if heads == 1 || !inter {
        assert_eq!(mp, ms, "{ctx}: makespans differ");
    } else if blocked_sender {
        assert!(mp < ms, "{ctx}: pipelined {mp} not below {ms}");
    }
}

#[test]
fn multi_head_double_ring_forward_equals_one_pass_per_head() {
    let topos = [
        Topology::single_node(4),
        Topology::a800(2, 2),
        Topology::a800(2, 4),
        Topology::a800(3, 2),
        Topology::a800(3, 4),
        Topology::a800(4, 1),
    ];
    for topo in topos {
        let n = 8 * topo.world_size();
        let masks = [
            (AttnMask::Causal, Layout::Zigzag),
            (
                AttnMask::SlidingWindow { window: n / 4 },
                Layout::Contiguous,
            ),
        ];
        for wire in [WireDtype::F32, WireDtype::Bf16] {
            let topo = topo.clone().with_wire_dtype(wire);
            for (mask, layout) in &masks {
                for skip in [false, true] {
                    for max_token in [None, Some(n / 2)] {
                        for heads in 1..=3 {
                            check_heads(&topo, heads, (mask, *layout, skip, max_token));
                        }
                    }
                }
            }
        }
    }
}

/// Every rank's front-row `(O, Lse)` bits of one forward on `spec`: the
/// whole pass's rows below `cut`, or a pass over those rows alone
/// (`max_token`), as sequence-selective checkpointing recomputes them.
fn front_bits(
    topo: &Topology,
    one_level: bool,
    (n, mask, layout, skip): (usize, &AttnMask, Layout, bool),
    cut: usize,
    partial: bool,
) -> Vec<(Vec<u32>, Vec<u32>)> {
    let g = topo.world_size();
    let d = 8;
    let (q, k, v) = (
        randn_mat(n, d, 0.7, 31),
        randn_mat(n, d, 0.7, 32),
        randn_mat(n, d, 0.7, 33),
    );
    World::new(topo.clone()).run_results(|comm| {
        let idx = layout.indices(n, g, comm.rank());
        let front = idx.iter().take_while(|&&i| i < cut).count();
        let rows = if partial { &idx[..front] } else { &idx[..] };
        let (ql, kl, vl) = (
            q.gather_rows(rows),
            k.gather_rows(rows),
            v.gather_rows(rows),
        );
        let shard = AttnShard {
            q: &ql,
            k: &kl,
            v: &vl,
            scale: 1.0 / (d as f32).sqrt(),
            mask,
            layout,
            seq_len: n,
            cost: CostModel::a800(),
            max_token: partial.then_some(cut),
            skip,
        };
        let spec = if one_level {
            DoubleRingSpec::one_level(&(0..g).collect::<Vec<_>>())
        } else {
            DoubleRingSpec::full(comm.topology())
        };
        let out = double_ring::try_double_ring_forward_heads_on(
            comm,
            std::slice::from_ref(&shard),
            &spec,
        )
        .unwrap()
        .remove(0);
        let o = (0..front).flat_map(|r| bits(out.o.row(r))).collect();
        (o, bits(&out.lse[..front]))
    })
}

/// Sequence-selective checkpointing keeps the last block's outputs only
/// where a recompute rebuilds the forward's bits. Where every rank's tokens
/// below the cut fill whole kernel tiles (`Layout::cut_on_tiles`), a pass
/// over those tokens alone gives them the whole pass's bits: on both ring
/// levels, every layout, causal and windowed masks, skipping off and on.
/// A cut through a tile may not: the 4-token zigzag chunks of 32 tokens on
/// four ranks do not.
#[test]
fn a_cut_on_whole_tiles_rebuilds_the_forward_bits() {
    let mut cut_tiles_differ = false;
    for (topo, one_level) in [
        (Topology::single_node(4), true),
        (Topology::a800(2, 2), false),
        (Topology::a800(2, 4), false),
    ] {
        let g = topo.world_size();
        for n in [32 * g, 64 * g, 8 * g] {
            for layout in [Layout::Zigzag, Layout::Contiguous, Layout::Striped] {
                for mask in [AttnMask::Causal, AttnMask::SlidingWindow { window: n / 4 }] {
                    for skip in [false, true] {
                        for cut in [n / 4, n / 2, 3 * n / 4, n / 2 + 4] {
                            let case = (n, &mask, layout, skip);
                            let whole = front_bits(&topo, one_level, case, cut, false);
                            let part = front_bits(&topo, one_level, case, cut, true);
                            if layout.cut_on_tiles(n, g, cut, DEFAULT_BLOCK) {
                                assert!(
                                    whole == part,
                                    "{topo:?} {layout:?} {mask:?} skip={skip} n={n} cut={cut}"
                                );
                            } else {
                                cut_tiles_differ |= whole != part;
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(cut_tiles_differ, "some cut through a tile changes a bit");
}

/// One rank's side of a backward over several heads: per-head
/// `(∇Q, ∇K, ∇V)`, the rank's counters, its final virtual clock and its
/// memory ledger.
type BwdHeadsRun = (Vec<(Mat, Mat, Mat)>, CommStats, f64, MemReport);

/// Which multi-head backward a hand-off check runs, and on which ring.
#[derive(Clone, Copy, Debug, PartialEq)]
enum HandOff {
    /// BurstAttention's Algorithm 2 on the topology's two-level ring.
    Alg2,
    /// DoubleRingAttention's Algorithm 1 on the topology's two-level ring.
    Alg1,
    /// Algorithm 1 on USP's ring over every second rank (`U = 2`), its
    /// `∇Q` billed by the caller.
    UspAlg1,
}

impl HandOff {
    /// The ring the pass runs on, and this rank's slot on it.
    fn ring(self, comm: &Communicator) -> (DoubleRingSpec, usize) {
        match self {
            HandOff::Alg2 | HandOff::Alg1 => (DoubleRingSpec::full(comm.topology()), comm.rank()),
            HandOff::UspAlg1 => {
                let utopo = UspTopo::new(comm, 2);
                (utopo.ring_spec().clone(), utopo.r_pos)
            }
        }
    }

    /// The multi-head backward itself.
    fn run(
        self,
        comm: &mut Communicator,
        heads: &[(AttnShard, BackwardInputs)],
        spec: &DoubleRingSpec,
    ) -> Vec<(Mat, Mat, Mat)> {
        match self {
            HandOff::Alg2 => double_ring::try_double_ring_backward_alg2_heads_on(comm, heads, spec),
            HandOff::Alg1 => {
                double_ring::try_double_ring_backward_alg1_heads_on(comm, heads, spec, false)
            }
            HandOff::UspAlg1 => {
                double_ring::try_double_ring_backward_alg1_heads_on(comm, heads, spec, true)
            }
        }
        .expect("fault-free backward")
    }

    /// The ledger entry of a head's circulating bundle: Algorithm 2's
    /// inter-node start bundle, or Algorithm 1's `(K, V, ∇K, ∇V)` slot.
    fn bundle(self) -> &'static str {
        match self {
            HandOff::Alg2 => "dr_bwd_start_bundle",
            HandOff::Alg1 | HandOff::UspAlg1 => "dr_bwd_kv_grads",
        }
    }
}

/// Every rank's `BwdHeadsRun` for `heads` heads on `topo`, each head's
/// `(O, Lse)` from the single-device forward: one multi-head call handing
/// each head to the next, or one single-head call per head. A layout other
/// than zigzag applies to the two-level ring only; USP's ring is zigzag.
fn run_bwd_heads(
    pass: HandOff,
    topo: &Topology,
    heads: usize,
    (mask, layout, skip): (&AttnMask, Layout, bool),
    handed: bool,
) -> Vec<BwdHeadsRun> {
    let (n, d) = (8 * topo.world_size(), 8);
    let scale = 1.0 / (d as f32).sqrt();
    let all: Vec<usize> = (0..n).collect();
    let data: Vec<[Mat; 6]> = (0..heads as u64)
        .map(|h| {
            let q = randn_mat(n, d, 0.7, 10 * h + 1);
            let k = randn_mat(n, d, 0.7, 10 * h + 2);
            let v = randn_mat(n, d, 0.7, 10 * h + 3);
            let fwd = flash_forward(&q, &k, &v, scale, mask, &all, &all);
            let lse = Mat::from_vec(n, 1, fwd.lse);
            let grad_o = randn_mat(n, d, 0.8, 10 * h + 4);
            [q, k, v, fwd.o, lse, grad_o]
        })
        .collect();
    World::new(topo.clone()).run_results(|comm| {
        comm.start_mem_accounting();
        let (spec, slot) = pass.ring(comm);
        let layout = if pass == HandOff::UspAlg1 {
            Layout::Zigzag
        } else {
            layout
        };
        let idx = layout.indices(n, spec.len(), slot);
        let local: Vec<Vec<Mat>> = data
            .iter()
            .map(|mats| mats.iter().map(|m| m.gather_rows(&idx)).collect())
            .collect();
        let ds: Vec<Vec<f32>> = local.iter().map(|m| m[5].rowsum_hadamard(&m[3])).collect();
        let shards: Vec<(AttnShard, BackwardInputs)> = local
            .iter()
            .zip(&ds)
            .map(|(m, d)| {
                let shard = AttnShard {
                    q: &m[0],
                    k: &m[1],
                    v: &m[2],
                    scale,
                    mask,
                    layout,
                    seq_len: n,
                    cost: CostModel::a800(),
                    max_token: None,
                    skip,
                };
                let back = BackwardInputs {
                    lse: m[4].as_slice(),
                    grad_o: &m[5],
                    d,
                };
                (shard, back)
            })
            .collect();
        let grads = if handed {
            pass.run(comm, &shards, &spec)
        } else {
            shards
                .iter()
                .flat_map(|head| pass.run(comm, std::slice::from_ref(head), &spec))
                .collect()
        };
        let mem = comm.take_mem_report().expect("accounting was on");
        (grads, comm.stats(), comm.time(), mem)
    })
}

/// A handed-off multi-head backward against one single-head call per head
/// on one case: bit-identical gradients per head, equal counters per rank,
/// and no rank finishing later. Every rank finishes strictly earlier on
/// the rings named by `strict`. The ledger's gated peak is the one-head
/// call's, nothing is live at close, no two heads' bundle entries are ever
/// open at once, and Algorithm 1 bills a `∇Q` accumulator exactly when its
/// caller does not.
fn check_bwd_heads(
    pass: HandOff,
    topo: &Topology,
    heads: usize,
    case: (&AttnMask, Layout, bool),
    strict: bool,
) {
    let (mask, layout, skip) = case;
    let ctx = format!(
        "{pass:?} {}x{} {:?} {mask:?}/{layout:?} skip={skip} heads={heads}",
        topo.nodes, topo.gpus_per_node, topo.wire_dtype
    );
    let handed = run_bwd_heads(pass, topo, heads, case, true);
    let seq = run_bwd_heads(pass, topo, heads, case, false);
    for (rank, (p, s)) in handed.iter().zip(&seq).enumerate() {
        let at = format!("{ctx} rank {rank}");
        let grads = |g: &(Mat, Mat, Mat)| [&g.0, &g.1, &g.2].map(|m| bits(m.as_slice()));
        for (h, (pg, sg)) in p.0.iter().zip(&s.0).enumerate() {
            assert_eq!(grads(pg), grads(sg), "{at} head {h} (dQ, dK, dV)");
        }
        assert_eq!(counters(&p.1), counters(&s.1), "{at} stats");
        let (tp, ts) = (p.2, s.2);
        assert!(tp <= ts, "{at}: handed off {tp} after sequential {ts}");
        if strict {
            assert!(tp < ts, "{at}: handed off {tp} not before sequential {ts}");
        }
        validate_mem(&p.3).unwrap_or_else(|e| panic!("{at}: {e}"));
        assert_eq!(p.3.live_at_close, 0, "{at}: live at close");
        assert_eq!(p.3.peak.gated(), s.3.peak.gated(), "{at}: gated peak");
        // Algorithm 1's ∇Q accumulator is billed unless the caller bills it.
        let dq_entries = p.3.entries.iter().any(|e| e.name == "dr_bwd_dq");
        assert_eq!(dq_entries, pass == HandOff::Alg1, "{at}: dr_bwd_dq");
        let mut bundles: Vec<(f64, f64)> =
            p.3.entries
                .iter()
                .filter(|e| e.name == pass.bundle())
                .map(|e| (e.open, e.close.expect("closed")))
                .collect();
        bundles.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in bundles.windows(2) {
            assert!(
                w[0].1 <= w[1].0,
                "{at}: bundles open at once: {:?} and {:?}",
                w[0],
                w[1]
            );
        }
    }
}

/// The hand-off grid: five topologies, three mask/layout pairs, f32 and
/// bf16 wires, skipping off and on, two and three heads. `strict` names the
/// topologies on which every rank must finish strictly earlier.
fn check_bwd_grid(pass: HandOff, strict: impl Fn(&Topology) -> bool) {
    let topos = [
        Topology::a800(2, 2),
        Topology::a800(2, 4),
        Topology::a800(3, 2),
        Topology::single_node(4),
        Topology::a800(4, 1),
    ];
    for topo in topos {
        let n = 8 * topo.world_size();
        let masks = [
            (AttnMask::Causal, Layout::Zigzag),
            (AttnMask::Full, Layout::Zigzag),
            (
                AttnMask::SlidingWindow { window: n / 4 },
                Layout::Contiguous,
            ),
        ];
        for wire in [WireDtype::F32, WireDtype::Bf16] {
            let topo = topo.clone().with_wire_dtype(wire);
            for (mask, layout) in &masks {
                for skip in [false, true] {
                    for heads in 2..=3 {
                        let case = (mask, *layout, skip);
                        check_bwd_heads(pass, &topo, heads, case, strict(&topo));
                    }
                }
            }
        }
    }
}

#[test]
fn multi_head_burst_backward_equals_one_call_per_head() {
    check_bwd_grid(HandOff::Alg2, |t| (t.nodes, t.gpus_per_node) == (2, 4));
}

/// Algorithm 1's hand-off, on the two-level ring and on USP's ring leg: on
/// `a800(2, 4)` every rank finishes strictly earlier, and so does every
/// rank of USP's 2 × 2 ring (two members on each of two nodes, on
/// `a800(2, 4)`).
#[test]
fn multi_head_alg1_backward_equals_one_call_per_head() {
    check_bwd_grid(HandOff::Alg1, |t| (t.nodes, t.gpus_per_node) == (2, 4));
    check_bwd_grid(HandOff::UspAlg1, |t| (t.nodes, t.gpus_per_node) == (2, 4));
}

#[test]
#[should_panic(expected = "double-ring heads must share one attention problem")]
fn multi_head_forward_rejects_heads_with_different_problems() {
    let (q, k, v, _, scale) = problem(8, 4);
    World::new(Topology::single_node(1)).run_results(|comm| {
        let shard = |mask| AttnShard {
            q: &q,
            k: &k,
            v: &v,
            scale,
            mask,
            layout: Layout::Contiguous,
            seq_len: 8,
            cost: CostModel::free(),
            max_token: None,
            skip: false,
        };
        let heads = [shard(&AttnMask::Causal), shard(&AttnMask::Full)];
        let spec = DoubleRingSpec::full(comm.topology());
        double_ring::try_double_ring_forward_heads_on(comm, &heads, &spec).ok();
    });
}

/// The pairs each rank's forward folds, the closed form's view: its own
/// position's spans against every kv position's, summed.
fn counted_pairs(
    mask: &AttnMask,
    layout: Layout,
    n: usize,
    g: usize,
    me: usize,
    max_token: Option<usize>,
) -> u64 {
    let mine = layout.spans(n, g, me, max_token);
    (0..g)
        .map(|kv| mask.pairs_between(&mine, &layout.spans(n, g, kv, max_token)))
        .sum::<u128>() as u64
}

/// The kernels fold exactly the pairs the closed-form count gives: every
/// rank's forward `work.pairs` equals the sum over kv positions of the span
/// count against its own position. Covered: the flat forward (RingFlat and
/// BurstFlat) and the two-level forward (DoubleRing and BurstTopo) on every
/// layout, USP's ring leg on its zigzag two-level ring, every mask kind
/// (block-sparse ragged, its pattern ending before the sequence does),
/// skipping on and off, and a mid-chunk `max_token` cutoff.
#[test]
fn forward_work_equals_the_closed_form_pair_count() {
    let masks = |n: usize| {
        [
            AttnMask::Full,
            AttnMask::Causal,
            AttnMask::SlidingWindow { window: 7 },
            AttnMask::Dilated {
                window: 13,
                step: 3,
            },
            AttnMask::BlockSparse(BlockSparseMask::sliding_window_blocks(5, n / 5, 2)),
        ]
    };
    let topo = Topology::a800(2, 2);
    let g = topo.world_size();
    let (n, d) = (12 * g, 4);
    let (q, k, v, _, scale) = problem(n, d);
    for mask in masks(n) {
        for layout in [Layout::Contiguous, Layout::Zigzag, Layout::Striped] {
            for skip in [false, true] {
                // 27 lies mid-chunk on the contiguous (12) and zigzag (6)
                // chunkings of 48 tokens.
                for max_token in [None, Some(27)] {
                    for two_level in [false, true] {
                        let works = World::new(topo.clone()).run_results(|comm| {
                            let me = comm.rank();
                            let idx: Vec<usize> = layout
                                .spans(n, g, me, max_token)
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
                                scale,
                                mask: &mask,
                                layout,
                                seq_len: n,
                                cost: CostModel::a800(),
                                max_token,
                                skip,
                            };
                            let spec = if two_level {
                                DoubleRingSpec::full(comm.topology())
                            } else {
                                DoubleRingSpec::one_level(&(0..g).collect::<Vec<_>>())
                            };
                            let out = double_ring::try_double_ring_forward_heads_on(
                                comm,
                                std::slice::from_ref(&shard),
                                &spec,
                            )
                            .unwrap()
                            .remove(0);
                            out.work.pairs
                        });
                        for (me, pairs) in works.into_iter().enumerate() {
                            assert_eq!(
                                pairs,
                                counted_pairs(&mask, layout, n, g, me, max_token),
                                "{mask:?} {layout:?} skip={skip} max_token={max_token:?} \
                                 two_level={two_level} rank {me}"
                            );
                        }
                    }
                }
            }
        }
    }
    // USP's ring leg: U = 2 on 2×4 leaves rings of four members, two per
    // node, over the zigzag layout of the whole sequence.
    let (topo, u) = (Topology::a800(2, 4), 2);
    let ring = topo.world_size() / u;
    let n = 12 * ring;
    let (q, k, v, _, scale) = problem(n, d);
    for mask in masks(n) {
        for skip in [false, true] {
            let works = World::new(topo.clone()).run_results(|comm| {
                let utopo = UspTopo::new(comm, u).with_skip(skip);
                let idx = Layout::Zigzag.indices(n, ring, utopo.r_pos);
                let (ql, kl, vl) = (
                    q.gather_rows(&idx),
                    k.gather_rows(&idx),
                    v.gather_rows(&idx),
                );
                let shard = AttnShard {
                    q: &ql,
                    k: &kl,
                    v: &vl,
                    scale,
                    mask: &mask,
                    layout: Layout::Zigzag,
                    seq_len: n,
                    cost: CostModel::a800(),
                    max_token: None,
                    skip,
                };
                let out = double_ring::try_double_ring_forward_heads_on(
                    comm,
                    std::slice::from_ref(&shard),
                    utopo.ring_spec(),
                )
                .unwrap()
                .remove(0);
                (utopo.r_pos, out.work.pairs)
            });
            for (rank, (pos, pairs)) in works.into_iter().enumerate() {
                assert_eq!(
                    pairs,
                    counted_pairs(&mask, Layout::Zigzag, n, ring, pos, None),
                    "usp {mask:?} skip={skip} rank {rank}"
                );
            }
        }
    }
}

/// Fold `bytes` into the FNV-1a digest `h`.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
}

/// Per topology row and algorithm, digests of every rank's
/// `(O, Lse, ∇Q, ∇K, ∇V)` bits, final virtual clock, `CommStats` and ledger
/// `PeakBytes`, folded over causal, full and N/4- and N/8-window masks, the
/// zigzag and contiguous layouts and skipping off and on, as the dispatcher
/// runs one head. The flat rows were recorded while the flat ring still ran
/// schedules of its own.
const FLAT_PINS: &str = "\
2x4/F32 RingFlat 0x9e4218fe64444861 0x7dfd3442f160938e 0x5c80424213416429 0x94b7c65e7e457450
2x4/F32 BurstFlat 0x5c9792892240d985 0xc91e1e7b58ebca95 0x39533d0f02299346 0xbb019b19bf9fc77f
2x4/Bf16 RingFlat 0x70d4b2d06a169785 0x7e4dfb218aa6ba79 0x99c457573b2e8e0f 0x6f2806254d382910
2x4/Bf16 BurstFlat 0x451da4a2b9ed5101 0x36e38a31702418f7 0x4f0a56e8c62fa54e 0x18a6722c5fa7ea42
1x4/F32 RingFlat 0x782c1b7937f0ae5d 0x2a3195a030b9c189 0x6a789f361149cfc5 0x33b045c5d0bde38d
1x4/F32 BurstFlat 0x31127b27aaaaf615 0x957b6f5b399a117e 0x8e9232cba7dbb717 0x3fd116b8f9e747b7
4x2/F32 RingFlat 0x9e4218fe64444861 0xe90e7824ed33bbd7 0x3bd43aea722dcd68 0x31c3d3d038aa89ed
4x2/F32 BurstFlat 0x5c9792892240d985 0xe6ad53434bdafd69 0xfc508e502cec82b7 0x203f7affdc28c1d3
3x1/F32 RingFlat 0x1f476a3f7b8a4df1 0x2a69bbef49b13d2f 0xdac6fa08e980f030 0x3488fc104e2d0804
3x1/F32 BurstFlat 0xebb93e1fd2d38f0d 0x9ef5ac7a3dd8e909 0xbcdaf1bf84c0f533 0x71deb9b30c0164b3
1x1/F32 RingFlat 0x1d77451e86b3137d 0x8d44922d42847455 0x38660fad83827ec5 0x6308ac0bfcb19f25
1x1/F32 BurstFlat 0x1d77451e86b3137d 0x8d44922d42847455 0x38660fad83827ec5 0x6308ac0bfcb19f25
";

/// The two-level Algorithm 1 rows (`Algo::DoubleRing`), recorded while its
/// backward still took one head per call.
const ALG1_PINS: &str = "\
2x4/F32 DoubleRing 0xbd2cf82c12ec0c35 0x979207c9bead913c 0x32625692d76e00de 0xdbf6b0a29c4eba74
2x4/Bf16 DoubleRing 0xc628b866ff6b3d3d 0x5a89e2a436a4bd77 0x3d673c7c32919e7d 0xc5966de5d6170e39
2x2/F32 DoubleRing 0x1e1a869a9355cbe1 0xa0254bf588be3b55 0x24ef97196c503943 0x8d900fa339ced8ae
3x2/F32 DoubleRing 0x8b5fe9d4cb1ebd89 0x4f4d1ee1bae941ad 0xc1a12385dae54e1e 0xca4791b45a5acf04
4x1/F32 DoubleRing 0x782c1b7937f0ae5d 0xfba9300e16980119 0x6acbfcbcac734950 0x7069929b1267151b
1x4/F32 DoubleRing 0x782c1b7937f0ae5d 0x9aec1a2b035dac37 0x4e37c9afbedf7398 0x7069929b1267151b
";

/// One line per topology row and algorithm of [`FLAT_PINS`] or
/// [`ALG1_PINS`].
fn ring_digests(topos: &[Topology], algos: &[Algo]) -> String {
    let mut table = String::new();
    for topo in topos {
        let g = topo.world_size();
        // Zigzag chunks of one kernel tile, so skip gates split shards.
        let (n, d) = (64 * g, 8);
        let (q, k, v, grad_o, scale) = problem(n, d);
        for &algo in algos {
            let mut h = [0xcbf2_9ce4_8422_2325u64; 4];
            for mask in [
                AttnMask::Causal,
                AttnMask::Full,
                AttnMask::SlidingWindow { window: n / 4 },
                AttnMask::SlidingWindow { window: n / 8 },
            ] {
                for layout in [Layout::Zigzag, Layout::Contiguous] {
                    for skip in [false, true] {
                        let ranks = World::new(topo.clone()).run_results(|comm| {
                            comm.start_mem_accounting();
                            let idx = layout.indices(n, g, comm.rank());
                            let [ql, kl, vl, dol] =
                                [&q, &k, &v, &grad_o].map(|m| m.gather_rows(&idx));
                            let out = try_run_attention_opts(
                                algo,
                                comm,
                                &ql,
                                &kl,
                                &vl,
                                &dol,
                                scale,
                                &mask,
                                layout,
                                n,
                                &CostModel::a800(),
                                skip,
                            )
                            .expect("fault-free attention");
                            let peak = comm.take_mem_report().expect("accounting on").peak;
                            (out, comm.time(), comm.stats(), peak)
                        });
                        for ((o, lse, dq, dk, dv), time, stats, peak) in ranks {
                            let outs = [o.as_slice(), &lse, dq.as_slice(), dk.as_slice()];
                            for x in outs.into_iter().chain([dv.as_slice()]).flatten() {
                                fnv(&mut h[0], &x.to_bits().to_le_bytes());
                            }
                            fnv(&mut h[1], &time.to_bits().to_le_bytes());
                            fnv(&mut h[2], format!("{stats:?}").as_bytes());
                            fnv(&mut h[3], format!("{peak:?}").as_bytes());
                        }
                    }
                }
            }
            let hs: Vec<String> = h.iter().map(|x| format!("{x:#018x}")).collect();
            table += &format!(
                "{}x{}/{:?} {algo:?} {}\n",
                topo.nodes,
                topo.gpus_per_node,
                topo.wire_dtype,
                hs.join(" ")
            );
        }
    }
    table
}

/// RingAttention and BurstAttention on the flat ring keep their output
/// bits, clocks, counters and ledger peaks: the flat ring is the one-level
/// case of the two-level ring. If a change moves them on purpose, the
/// failure prints the new table.
#[test]
fn flat_ring_matches_pinned_digests() {
    let topos = [
        Topology::a800(2, 4),
        Topology::a800(2, 4).with_wire_dtype(WireDtype::Bf16),
        Topology::a800(1, 4),
        Topology::a800(4, 2),
        Topology::a800(3, 1),
        Topology::a800(1, 1),
    ];
    let got = ring_digests(&topos, &[Algo::RingFlat, Algo::BurstFlat]);
    assert_eq!(got, FLAT_PINS, "flat-ring digests moved; now:\n{got}");
}

/// DoubleRingAttention's one-head pass, as the dispatcher and
/// `attn-32rank` run it, keeps its output bits, clocks, counters and ledger
/// peaks: one head is the plain pass of the multi-head Algorithm 1
/// backward.
#[test]
fn double_ring_one_head_matches_pinned_digests() {
    let topos = [
        Topology::a800(2, 4),
        Topology::a800(2, 4).with_wire_dtype(WireDtype::Bf16),
        Topology::a800(2, 2),
        Topology::a800(3, 2),
        Topology::a800(4, 1),
        Topology::a800(1, 4),
    ];
    let got = ring_digests(&topos, &[Algo::DoubleRing]);
    assert_eq!(
        got, ALG1_PINS,
        "two-level Algorithm 1 digests moved; now:\n{got}"
    );
}
