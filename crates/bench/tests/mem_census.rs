//! The exact memory gate: per-rank peak bytes *measured* by the
//! virtual-memory accountant must equal `burst-perf`'s analytic
//! `exact_peak_bytes_dtype` census — not within a tolerance, but `==` — for
//! every schedule, topology and wire dtype. The same contract CI enforces
//! in the `obs-regression` job.
//!
//! Also pinned here: the accountant's zero-overhead contract (accounting
//! on is bit-identical to off, and ring rounds append no ledger entries)
//! and the crash semantics (a crashed rank's force-closed ledger still
//! balances).

use burst_comm::obs::{peak_census, validate_mem, PeakBytes};
use burst_comm::{FaultPlan, Membership, RetryPolicy, Topology, WireDtype, World};
use burst_dattn::usp::{try_usp_backward, try_usp_forward, UspTopo};
use burst_dattn::{
    try_elastic_attention_opts, try_run_attention_opts, Algo, CostModel, ElasticOpts, Layout,
    ShardData,
};
use burst_kernels::AttnMask;
use burst_perf::{exact_peak_bytes_dtype, exact_peak_bytes_masked_dtype, Cluster, PeakMethod};
use burst_tensor::{randn_mat, Mat};

const DTYPES: [WireDtype; 2] = [WireDtype::F32, WireDtype::Bf16];

fn problem(n: usize, d: usize) -> (Mat, Mat, Mat, Mat, f32) {
    (
        randn_mat(n, d, 0.7, 31),
        randn_mat(n, d, 0.7, 32),
        randn_mat(n, d, 0.7, 33),
        randn_mat(n, d, 0.8, 34),
        1.0 / (d as f32).sqrt(),
    )
}

fn shard_of(layout: Layout, n: usize, g: usize, rank: usize, full: &Mat) -> Mat {
    full.gather_rows(&layout.indices(n, g, rank))
}

/// Run `algo` through the dispatcher with accounting on and return each
/// rank's measured gated census.
fn measured_dispatch(
    algo: Algo,
    topo: &Topology,
    seq: usize,
    d: usize,
    (mask, layout, skip): (&AttnMask, Layout, bool),
) -> Vec<PeakBytes> {
    let g = topo.world_size();
    let (q, k, v, grad_o, scale) = problem(seq, d);
    let world = World::new(topo.clone());
    world
        .run(|comm| {
            let r = comm.rank();
            let (ql, kl, vl, dol) = (
                shard_of(layout, seq, g, r, &q),
                shard_of(layout, seq, g, r, &k),
                shard_of(layout, seq, g, r, &v),
                shard_of(layout, seq, g, r, &grad_o),
            );
            comm.start_mem_accounting();
            try_run_attention_opts(
                algo,
                comm,
                &ql,
                &kl,
                &vl,
                &dol,
                scale,
                mask,
                layout,
                seq,
                &CostModel::a800(),
                skip,
            )
            .expect("fault-free attention");
        })
        .into_iter()
        .map(|o| {
            let m = o.mem.expect("accounting was on");
            validate_mem(&m).unwrap_or_else(|e| panic!("rank {}: {e}", o.rank));
            assert!(
                m.warnings.is_empty(),
                "healthy run leaked: {:?}",
                m.warnings
            );
            assert_eq!(m.live_at_close, 0);
            m.peak.gated()
        })
        .collect()
}

#[test]
fn dispatcher_peaks_match_exact_census_on_every_topology_and_dtype() {
    let (seq, d) = (128usize, 16usize);
    let methods = [
        (Algo::RingFlat, PeakMethod::RingFlat),
        (Algo::BurstFlat, PeakMethod::BurstFlat),
        (Algo::DoubleRing, PeakMethod::DoubleRing),
        (Algo::BurstTopo, PeakMethod::BurstTopo),
    ];
    for (nodes, gpn) in [(2usize, 4usize), (1, 4), (4, 2)] {
        let cluster = Cluster::a800(nodes, gpn);
        for dtype in DTYPES {
            let topo = Topology::a800(nodes, gpn).with_wire_dtype(dtype);
            for (algo, method) in methods {
                let want = exact_peak_bytes_dtype(&cluster, seq, d, method, dtype);
                let dense = (&AttnMask::Causal, Layout::Zigzag, false);
                for (rank, got) in measured_dispatch(algo, &topo, seq, d, dense)
                    .iter()
                    .enumerate()
                {
                    assert_eq!(
                        *got, want,
                        "{algo:?} {nodes}x{gpn} {dtype:?} rank {rank}: \
                         measured {got:?} != census {want:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn skip_on_dispatcher_peaks_match_masked_census() {
    // With skipping on, each schedule bills only the comm-buffer slots its
    // gates ever fill; the masked census prices the same gates per rank.
    let (seq, d) = (128usize, 16usize);
    let methods = [
        (Algo::RingFlat, PeakMethod::RingFlat),
        (Algo::BurstFlat, PeakMethod::BurstFlat),
        (Algo::DoubleRing, PeakMethod::DoubleRing),
        (Algo::BurstTopo, PeakMethod::BurstTopo),
    ];
    let masks = [
        AttnMask::SlidingWindow { window: seq / 8 },
        AttnMask::Dilated {
            window: seq / 4,
            step: 3,
        },
    ];
    let mut below_dense = 0;
    for (nodes, gpn) in [(2usize, 4usize), (1, 4), (4, 2)] {
        let cluster = Cluster::a800(nodes, gpn);
        for dtype in DTYPES {
            let topo = Topology::a800(nodes, gpn).with_wire_dtype(dtype);
            for mask in &masks {
                for layout in [Layout::Contiguous, Layout::Zigzag] {
                    for (algo, method) in methods {
                        let dense = exact_peak_bytes_dtype(&cluster, seq, d, method, dtype);
                        let got = measured_dispatch(algo, &topo, seq, d, (mask, layout, true));
                        for (rank, got) in got.iter().enumerate() {
                            below_dense += (got.comm_buffers < dense.comm_buffers) as usize;
                            let want = exact_peak_bytes_masked_dtype(
                                &cluster, seq, d, method, dtype, mask, layout, None, true, rank,
                            );
                            assert_eq!(
                                *got, want,
                                "{algo:?} {nodes}x{gpn} {dtype:?} {mask:?} {layout:?} \
                                 rank {rank}: measured != masked census"
                            );
                        }
                    }
                }
            }
        }
    }
    assert!(below_dense > 0, "no rank's gates kept a slot empty");
}

/// Run USP (`u`-rank Ulysses groups, ring leg skipping per `skip`) forward
/// then backward with accounting on, and return each rank's measured gated
/// census. `heads` heads of width `dh` over `seq` tokens.
#[allow(clippy::too_many_arguments)]
fn measured_usp(
    topo: Topology,
    seq: usize,
    heads: usize,
    dh: usize,
    u: usize,
    mask: &AttnMask,
    skip: bool,
) -> Vec<PeakBytes> {
    let scale = 1.0 / (dh as f32).sqrt();
    let inputs = |sd: f32, base: u64| -> Vec<Mat> {
        (0..heads)
            .map(|h| randn_mat(seq, dh, sd, base + h as u64))
            .collect()
    };
    let (qh, kh, vh, doh) = (
        inputs(0.7, 500),
        inputs(0.7, 600),
        inputs(0.7, 700),
        inputs(0.8, 800),
    );
    World::new(topo)
        .run(|comm| {
            let utopo = UspTopo::new(comm, u).with_skip(skip);
            let my_idx = utopo.local_idx(seq);
            let ql: Vec<Mat> = qh.iter().map(|m| m.gather_rows(&my_idx)).collect();
            let kl: Vec<Mat> = kh.iter().map(|m| m.gather_rows(&my_idx)).collect();
            let vl: Vec<Mat> = vh.iter().map(|m| m.gather_rows(&my_idx)).collect();
            let dol: Vec<Mat> = doh.iter().map(|m| m.gather_rows(&my_idx)).collect();
            comm.start_mem_accounting();
            let (o, lse) = try_usp_forward(
                comm,
                &utopo,
                &ql,
                &kl,
                &vl,
                scale,
                mask,
                seq,
                &CostModel::free(),
            )
            .expect("usp forward");
            try_usp_backward(
                comm,
                &utopo,
                &ql,
                &kl,
                &vl,
                &o,
                &lse,
                &dol,
                scale,
                mask,
                seq,
                &CostModel::free(),
            )
            .expect("usp backward");
        })
        .into_iter()
        .map(|o| {
            let m = o.mem.expect("accounting was on");
            validate_mem(&m).unwrap_or_else(|e| panic!("rank {}: {e}", o.rank));
            m.peak.gated()
        })
        .collect()
}

#[test]
fn ulysses_and_usp_peaks_match_exact_census() {
    // Each shape: (nodes, gpn, seq, heads, head dim, Ulysses size). On 2×2,
    // pure Ulysses (one group spanning the world) and USP with U = 2, whose
    // rings hold one member per node. On 2×4 the U = 2 rings hold two
    // members per node, so the ring leg runs on both levels, and with head
    // dim above heads per rank every head's start bundle shows in the
    // comm-buffer peak. On 2×3 the U = 2 rings are ragged across nodes and
    // take the one-level ring.
    let shapes = [
        (2, 2, 32, 4, 6, 4),
        (2, 2, 32, 4, 6, 2),
        (2, 4, 64, 8, 16, 2),
        (2, 3, 48, 4, 8, 2),
    ];
    for (nodes, gpn, seq, heads, dh, u) in shapes {
        let cluster = Cluster::a800(nodes, gpn);
        for dtype in DTYPES {
            let topo = Topology::a800(nodes, gpn).with_wire_dtype(dtype);
            let want = exact_peak_bytes_dtype(
                &cluster,
                seq,
                heads * dh,
                PeakMethod::Usp { heads, ulysses: u },
                dtype,
            );
            let got = measured_usp(topo, seq, heads, dh, u, &AttnMask::Causal, false);
            for (rank, got) in got.iter().enumerate() {
                assert_eq!(
                    *got, want,
                    "{nodes}x{gpn} U={u} {dtype:?} rank {rank}: census mismatch"
                );
            }
        }
    }
}

#[test]
fn windowed_skip_on_usp_peaks_match_masked_census() {
    // USP's ring leg gates its two-level slots on the ring's skip plan: with
    // a window of seq/8 on 2×4 and U = 2, the middle ring positions never
    // receive some bundles and bill less comm-buffer memory than the dense
    // census. Each shape: (seq, heads, head dim).
    let (nodes, gpn, u) = (2usize, 4usize, 2usize);
    let cluster = Cluster::a800(nodes, gpn);
    for (seq, heads, dh) in [(64usize, 8usize, 16usize), (128, 4, 8)] {
        let mask = AttnMask::SlidingWindow { window: seq / 8 };
        for dtype in DTYPES {
            let topo = Topology::a800(nodes, gpn).with_wire_dtype(dtype);
            let dense = exact_peak_bytes_dtype(
                &cluster,
                seq,
                heads * dh,
                PeakMethod::Usp { heads, ulysses: u },
                dtype,
            );
            let got = measured_usp(topo, seq, heads, dh, u, &mask, true);
            for (rank, got) in got.iter().enumerate() {
                let want = exact_peak_bytes_masked_dtype(
                    &cluster,
                    seq,
                    heads * dh,
                    PeakMethod::Usp { heads, ulysses: u },
                    dtype,
                    &mask,
                    Layout::Zigzag,
                    None,
                    true,
                    rank,
                );
                assert_eq!(
                    *got, want,
                    "seq {seq} {heads}x{dh} {dtype:?} rank {rank}: masked census mismatch"
                );
                assert!(want.comm_buffers <= dense.comm_buffers);
            }
            // Non-vacuity: some rank's gates keep a slot empty.
            assert!(
                got.iter().any(|p| p.comm_buffers < dense.comm_buffers),
                "seq {seq} {dtype:?}: no rank billed below the dense census"
            );
        }
    }
}

#[test]
fn elastic_healthy_peaks_match_exact_census() {
    let (nodes, gpn, seq, d) = (1usize, 4usize, 64usize, 8usize);
    let g = nodes * gpn;
    let cluster = Cluster::a800(nodes, gpn);
    let (q, k, v, grad_o, scale) = problem(seq, d);
    let layout = Layout::Zigzag;
    for dtype in DTYPES {
        let topo = Topology::a800(nodes, gpn).with_wire_dtype(dtype);
        let want = exact_peak_bytes_dtype(&cluster, seq, d, PeakMethod::ElasticHealthy, dtype);
        let world = World::new(topo);
        let outs = world.run(|comm| {
            let r = comm.rank();
            let (ql, kl, vl, dol) = (
                shard_of(layout, seq, g, r, &q),
                shard_of(layout, seq, g, r, &k),
                shard_of(layout, seq, g, r, &v),
                shard_of(layout, seq, g, r, &grad_o),
            );
            comm.start_mem_accounting();
            let mut membership = Membership::new(g);
            let mut load = |rank: usize| -> ShardData {
                (
                    shard_of(layout, seq, g, rank, &q),
                    shard_of(layout, seq, g, rank, &k),
                    shard_of(layout, seq, g, rank, &v),
                    shard_of(layout, seq, g, rank, &grad_o),
                )
            };
            let out = try_elastic_attention_opts(
                comm,
                &mut membership,
                &ql,
                &kl,
                &vl,
                &dol,
                scale,
                &AttnMask::Causal,
                layout,
                seq,
                &CostModel::a800(),
                &mut load,
                &RetryPolicy::default(),
                ElasticOpts::default(),
            )
            .expect("healthy elastic run");
            assert_eq!(out.attempts, 1);
            assert_eq!(out.shards_loaded, 0);
        });
        for o in outs {
            let m = o.mem.expect("accounting was on");
            validate_mem(&m).unwrap_or_else(|e| panic!("rank {}: {e}", o.rank));
            assert!(m.warnings.is_empty(), "{:?}", m.warnings);
            assert_eq!(
                m.peak.gated(),
                want,
                "elastic {dtype:?} rank {}: census mismatch",
                o.rank
            );
        }
    }
}

/// Satellite contract: the accountant is a pure observer. Enabling it
/// changes neither the numerics nor the virtual clock, and ring rounds
/// append no ledger entries (the entry count depends on the schedule's
/// pass structure, not on how many rounds the ring turns).
#[test]
fn accounting_is_bit_identical_and_entry_count_is_round_independent() {
    let (seq, d) = (64usize, 8usize);
    let run = |accounting: bool, gpn: usize| {
        let topo = Topology::a800(1, gpn);
        let (q, k, v, grad_o, scale) = problem(seq, d);
        let layout = Layout::Zigzag;
        let world = World::new(topo);
        world.run(|comm| {
            let r = comm.rank();
            let (ql, kl, vl, dol) = (
                shard_of(layout, seq, gpn, r, &q),
                shard_of(layout, seq, gpn, r, &k),
                shard_of(layout, seq, gpn, r, &v),
                shard_of(layout, seq, gpn, r, &grad_o),
            );
            if accounting {
                comm.start_mem_accounting();
            }
            let (o, lse, dq, dk, dv) = try_run_attention_opts(
                Algo::BurstTopo,
                comm,
                &ql,
                &kl,
                &vl,
                &dol,
                scale,
                &AttnMask::Causal,
                layout,
                seq,
                &CostModel::a800(),
                false,
            )
            .expect("fault-free attention");
            let mut bits: Vec<u32> = Vec::new();
            for m in [&o, &dq, &dk, &dv] {
                bits.extend(m.as_slice().iter().map(|x| x.to_bits()));
            }
            bits.extend(lse.iter().map(|x| x.to_bits()));
            bits
        })
    };
    let off = run(false, 4);
    let on = run(true, 4);
    for (a, b) in off.iter().zip(&on) {
        assert_eq!(
            a.result, b.result,
            "rank {}: accounting changed numerics",
            a.rank
        );
        assert_eq!(
            a.time.to_bits(),
            b.time.to_bits(),
            "rank {}: accounting moved the virtual clock",
            a.rank
        );
        assert!(a.mem.is_none() && b.mem.is_some());
    }
    // Same schedule, twice the ring rounds: identical entry count. The
    // rounds' wire traffic lands on the lane counters, not the ledger.
    let entries = |gpn: usize| {
        run(true, gpn)
            .into_iter()
            .map(|o| o.mem.unwrap().entries.len())
            .collect::<Vec<_>>()
    };
    let e4 = entries(4);
    let e8 = entries(8);
    assert!(
        e4.iter().all(|&n| n == e4[0]),
        "ragged entry counts: {e4:?}"
    );
    assert_eq!(
        e4[0], e8[0],
        "ledger entries must not scale with ring rounds (zero-alloc steady state)"
    );
}

/// Satellite contract: a crashed rank's ledger force-closes its open
/// intervals with warnings and still balances — allocation == free +
/// live-at-crash.
#[test]
fn crashed_rank_ledger_balances_with_warnings() {
    let (seq, d) = (64usize, 8usize);
    let topo = Topology::a800(1, 4);
    let g = topo.world_size();
    let victim = 2usize;
    let (q, k, v, grad_o, scale) = problem(seq, d);
    let layout = Layout::Zigzag;
    let world = World::with_faults(topo, FaultPlan::new(5).crash_at_op(victim, 8));
    let outs = world.run_faulty(|comm| {
        let r = comm.rank();
        let (ql, kl, vl, dol) = (
            shard_of(layout, seq, g, r, &q),
            shard_of(layout, seq, g, r, &k),
            shard_of(layout, seq, g, r, &v),
            shard_of(layout, seq, g, r, &grad_o),
        );
        comm.start_mem_accounting();
        try_run_attention_opts(
            Algo::BurstFlat,
            comm,
            &ql,
            &kl,
            &vl,
            &dol,
            scale,
            &AttnMask::Causal,
            layout,
            seq,
            &CostModel::a800(),
            false,
        )
        .map(|_| ())
    });
    let mut census = Vec::new();
    for o in &outs {
        let m = o.mem.as_ref().expect("ledger survives the crash");
        assert!(
            m.balances(),
            "rank {}: allocated {} != freed {} + live {}",
            o.rank,
            m.allocated_bytes,
            m.freed_bytes,
            m.live_at_close
        );
        validate_mem(m).unwrap_or_else(|e| panic!("rank {}: {e}", o.rank));
        census.push(m.clone());
        if o.rank == victim {
            assert!(o.result.is_err(), "the victim must observe its crash");
            assert!(
                !m.warnings.is_empty(),
                "the victim died mid-pass; its open entries must warn"
            );
            assert!(
                m.live_at_close > 0,
                "the victim's buffers were live at crash"
            );
        }
    }
    // The cluster census still merges — crashed ledgers are first-class.
    let merged = peak_census(&census);
    assert!(merged.gated_total > 0);
}
