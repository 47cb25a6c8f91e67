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

use burst_comm::obs::{peak_census, validate_mem, MemCategory, MemReport, PeakBytes};
use burst_comm::{FaultPlan, RankOutput, SpanKind, Topology, WireDtype, World};
use burst_dattn::ring::AttnShard;
use burst_dattn::usp::{try_usp_backward, try_usp_forward, UspTopo};
use burst_dattn::{try_run_attention_opts, try_run_attention_shard, Algo, CostModel, Layout};
use burst_kernels::AttnMask;
use burst_perf::{exact_peak_bytes_dtype, exact_peak_bytes_masked_dtype, Cluster, PeakMethod};
use burst_tensor::{randn_mat, Mat};

const DTYPES: [WireDtype; 2] = [WireDtype::F32, WireDtype::Bf16];
const ALGOS: [Algo; 4] = [
    Algo::RingFlat,
    Algo::BurstFlat,
    Algo::DoubleRing,
    Algo::BurstTopo,
];

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

/// The payload elements of every `Send` span the ranks traced.
fn send_elems<R>(outs: &[RankOutput<R>]) -> Vec<u64> {
    outs.iter()
        .flat_map(|o| o.trace.iter().flat_map(|t| &t.spans))
        .filter(|s| s.kind == SpanKind::Send)
        .map(|s| s.elems)
        .collect()
}

/// Run `algo` through the dispatcher, cut at `max_token`, with accounting
/// and tracing on; return each rank's measured gated census and the
/// payload elements of every message sent.
fn measured_dispatch(
    algo: Algo,
    topo: &Topology,
    seq: usize,
    d: usize,
    (mask, layout, skip, max_token): (&AttnMask, Layout, bool, Option<usize>),
) -> (Vec<PeakBytes>, Vec<u64>) {
    let g = topo.world_size();
    let (q, k, v, grad_o, scale) = problem(seq, d);
    let world = World::new(topo.clone());
    let outs = world.run(|comm| {
        let idx: Vec<usize> = layout
            .spans(seq, g, comm.rank(), max_token)
            .into_iter()
            .flat_map(|s| s.iter())
            .collect();
        let (ql, kl, vl, dol) = (
            q.gather_rows(&idx),
            k.gather_rows(&idx),
            v.gather_rows(&idx),
            grad_o.gather_rows(&idx),
        );
        let shard = AttnShard {
            q: &ql,
            k: &kl,
            v: &vl,
            scale,
            mask,
            layout,
            seq_len: seq,
            cost: CostModel::a800(),
            max_token,
            skip,
        };
        comm.start_mem_accounting();
        comm.start_trace();
        try_run_attention_shard(algo, comm, &shard, &dol).expect("fault-free attention");
    });
    let sends = send_elems(&outs);
    let peaks = outs
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
        .collect();
    (peaks, sends)
}

#[test]
fn dispatcher_peaks_match_exact_census_on_every_topology_and_dtype() {
    let (seq, d) = (128usize, 16usize);
    for (nodes, gpn) in [(2usize, 4usize), (1, 4), (4, 2)] {
        let cluster = Cluster::a800(nodes, gpn);
        for dtype in DTYPES {
            let topo = Topology::a800(nodes, gpn).with_wire_dtype(dtype);
            for algo in ALGOS {
                let method = PeakMethod::Ring(algo);
                let want = exact_peak_bytes_dtype(&cluster, seq, d, method, dtype);
                let dense = (&AttnMask::Causal, Layout::Zigzag, false, None);
                for (rank, got) in measured_dispatch(algo, &topo, seq, d, dense)
                    .0
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
                    for algo in ALGOS {
                        let method = PeakMethod::Ring(algo);
                        let dense = exact_peak_bytes_dtype(&cluster, seq, d, method, dtype);
                        let (got, _) =
                            measured_dispatch(algo, &topo, seq, d, (mask, layout, true, None));
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

/// Tile-aligned zigzag cells: at `seq = 64·G` the skip plans split shards
/// into their two spans, so read-only hops carry single spans, yet every
/// ledger slot still bills a whole shard and the ledger stays `==` the
/// masked census — on every ring schedule, uncut and cut mid-chunk, and on
/// USP's ring leg (U = 2), in f32 and bf16.
#[test]
fn aligned_zigzag_peaks_match_masked_census() {
    let d = 8usize;
    for (nodes, gpn) in [(2usize, 2usize), (2, 4)] {
        let g = nodes * gpn;
        let (seq, chunk) = (64 * g, 32usize);
        let mask = AttnMask::SlidingWindow { window: chunk };
        let cluster = Cluster::a800(nodes, gpn);
        for dtype in DTYPES {
            let topo = Topology::a800(nodes, gpn).with_wire_dtype(dtype);
            for max_token in [None, Some(seq - chunk / 2)] {
                for algo in ALGOS {
                    let method = PeakMethod::Ring(algo);
                    let label = format!("{algo:?} {nodes}x{gpn} {dtype:?} cut {max_token:?}");
                    let cell = (&mask, Layout::Zigzag, true, max_token);
                    let (got, sends) = measured_dispatch(algo, &topo, seq, d, cell);
                    for (rank, got) in got.iter().enumerate() {
                        let want = exact_peak_bytes_masked_dtype(
                            &cluster,
                            seq,
                            d,
                            method,
                            dtype,
                            &mask,
                            Layout::Zigzag,
                            max_token,
                            true,
                            rank,
                        );
                        assert_eq!(*got, want, "{label} rank {rank}: ledger != masked census");
                    }
                    assert!(
                        sends.contains(&((chunk * d) as u64)),
                        "{label}: no read-only send carried a single span"
                    );
                }
            }
            // USP's ring leg: G / 2 ring positions over half the tokens.
            let (heads, u) = (4usize, 2usize);
            let (got, sends) = measured_usp(topo, seq / 2, heads, d, u, &mask, true, true);
            let got = gated(&got);
            assert!(
                sends.contains(&((chunk * d) as u64)),
                "usp {nodes}x{gpn} {dtype:?}: no read-only send carried a single span"
            );
            for (rank, got) in got.iter().enumerate() {
                let want = exact_peak_bytes_masked_dtype(
                    &cluster,
                    seq / 2,
                    heads * d,
                    PeakMethod::Usp { heads, ulysses: u },
                    dtype,
                    &mask,
                    Layout::Zigzag,
                    None,
                    true,
                    rank,
                );
                assert_eq!(*got, want, "usp {nodes}x{gpn} {dtype:?} rank {rank}");
            }
        }
    }
}

/// Run USP (`u`-rank Ulysses groups, ring leg skipping per `skip`) forward
/// then backward with accounting and tracing on, and return each rank's
/// validated ledger and the payload elements of every message sent. The
/// backward runs on the forward's context when `hold` is set, and on one it
/// rebuilds otherwise. `heads` heads of width `dh` over `seq` tokens.
#[allow(clippy::too_many_arguments)]
fn measured_usp(
    topo: Topology,
    seq: usize,
    heads: usize,
    dh: usize,
    u: usize,
    mask: &AttnMask,
    skip: bool,
    hold: bool,
) -> (Vec<MemReport>, Vec<u64>) {
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
    let outs = World::new(topo).run(|comm| {
        let utopo = UspTopo::new(comm, u).with_skip(skip);
        let my_idx = utopo.local_idx(seq);
        let ql: Vec<Mat> = qh.iter().map(|m| m.gather_rows(&my_idx)).collect();
        let kl: Vec<Mat> = kh.iter().map(|m| m.gather_rows(&my_idx)).collect();
        let vl: Vec<Mat> = vh.iter().map(|m| m.gather_rows(&my_idx)).collect();
        let dol: Vec<Mat> = doh.iter().map(|m| m.gather_rows(&my_idx)).collect();
        comm.start_mem_accounting();
        comm.start_trace();
        let ((o, lse), ctx) = try_usp_forward(
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
        let held = if hold {
            Some(ctx)
        } else {
            ctx.release(comm);
            None
        };
        try_usp_backward(
            comm,
            &utopo,
            held,
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
    });
    let sends = send_elems(&outs);
    let reports = outs
        .into_iter()
        .map(|o| {
            let m = o.mem.expect("accounting was on");
            validate_mem(&m).unwrap_or_else(|e| panic!("rank {}: {e}", o.rank));
            m
        })
        .collect();
    (reports, sends)
}

/// Each rank's measured gated census.
fn gated(reports: &[MemReport]) -> Vec<PeakBytes> {
    reports.iter().map(|r| r.peak.gated()).collect()
}

#[test]
fn ulysses_and_usp_peaks_match_exact_census() {
    // Each shape: (nodes, gpn, seq, heads, head dim, Ulysses size). On 2×2,
    // pure Ulysses (one group spanning the world) and USP with U = 2, whose
    // rings hold one member per node. On 2×4 the U = 2 rings hold two
    // members per node, so the ring leg runs on both levels with a start
    // bundle per head. On 2×3 the U = 2 rings are ragged across nodes and
    // take the one-level ring. The backward runs on the forward's context
    // and on one it rebuilds, at the same census: the rebuilding all-to-all
    // repeats the forward's first instant.
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
            for hold in [true, false] {
                let (got, _) = measured_usp(
                    topo.clone(),
                    seq,
                    heads,
                    dh,
                    u,
                    &AttnMask::Causal,
                    false,
                    hold,
                );
                for (rank, got) in gated(&got).iter().enumerate() {
                    assert_eq!(
                        *got, want,
                        "{nodes}x{gpn} U={u} {dtype:?} hold={hold} rank {rank}: census mismatch"
                    );
                }
            }
        }
    }
}

#[test]
fn windowed_skip_on_usp_peaks_match_masked_census() {
    // USP's ring leg gates its two-level slots on the ring's skip plan: with
    // a window of seq/8 on 2×4 and U = 2, the middle ring positions never
    // receive some bundles and bill fewer slot bytes than a dense run. No
    // USP peak shows it: the packed Q|K|V all-to-all stages more than the
    // ring's slots, and the forward's slots, under the held head-shard
    // Q, K, V, stay below the backward's ring pass. The masked census
    // prices them anyway and must equal the ledger. Each shape: (seq,
    // heads, head dim).
    let (nodes, gpn, u) = (2usize, 4usize, 2usize);
    let cluster = Cluster::a800(nodes, gpn);
    // Bytes of the two-level ring's slot entries a rank opened.
    let slot_bytes = |r: &MemReport| -> u64 {
        r.entries
            .iter()
            .filter(|e| e.name.starts_with("dr_") && e.cat == MemCategory::CommBuffers)
            .map(|e| e.bytes)
            .sum()
    };
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
            let (masked, _) = measured_usp(topo.clone(), seq, heads, dh, u, &mask, true, true);
            for (rank, got) in gated(&masked).iter().enumerate() {
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
            let (unmasked, _) = measured_usp(topo, seq, heads, dh, u, &mask, false, true);
            assert!(
                masked
                    .iter()
                    .zip(&unmasked)
                    .any(|(m, d)| slot_bytes(m) < slot_bytes(d)),
                "seq {seq} {dtype:?}: no rank billed fewer ring-slot bytes than the dense run"
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
