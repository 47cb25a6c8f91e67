//! Correctness of the USP hybrid and of DeepSpeed-Ulysses — USP whose
//! Ulysses group is the whole world — validated per head against the
//! single-device blocked kernel, plus the infeasible geometries: the
//! head-divisibility failure mode the paper exploits (40 heads on 32 GPUs)
//! and ring shards a Ulysses group cannot split evenly.

use burst_comm::{CommStats, Communicator, RankTrace, SpanKind, Topology, WireDtype, World};
use burst_dattn::usp::{
    try_usp_backward, try_usp_forward, HeadGrads, HeadOuts, UlyssesError, UspTopo,
};
use burst_dattn::{CostModel, DattnError};
use burst_kernels::{flash_backward, flash_forward, AttnMask};
use burst_tensor::testutil::assert_allclose;
use burst_tensor::{randn_mat, Mat};

const TOL: f32 = 2e-3;

/// Per-head global tensors.
struct HeadProblem {
    q: Vec<Mat>,
    k: Vec<Mat>,
    v: Vec<Mat>,
    grad_o: Vec<Mat>,
    scale: f32,
}

fn head_problem(n: usize, heads: usize, dh: usize) -> HeadProblem {
    HeadProblem {
        q: (0..heads)
            .map(|h| randn_mat(n, dh, 0.7, 100 + h as u64))
            .collect(),
        k: (0..heads)
            .map(|h| randn_mat(n, dh, 0.7, 200 + h as u64))
            .collect(),
        v: (0..heads)
            .map(|h| randn_mat(n, dh, 0.7, 300 + h as u64))
            .collect(),
        grad_o: (0..heads)
            .map(|h| randn_mat(n, dh, 0.8, 400 + h as u64))
            .collect(),
        scale: 1.0 / (dh as f32).sqrt(),
    }
}

struct HeadRef {
    o: Vec<Mat>,
    lse: Vec<Vec<f32>>,
    dq: Vec<Mat>,
    dk: Vec<Mat>,
    dv: Vec<Mat>,
}

fn head_reference(p: &HeadProblem, mask: &AttnMask, n: usize) -> HeadRef {
    let idx: Vec<usize> = (0..n).collect();
    let mut r = HeadRef {
        o: vec![],
        lse: vec![],
        dq: vec![],
        dk: vec![],
        dv: vec![],
    };
    for h in 0..p.q.len() {
        let fwd = flash_forward(&p.q[h], &p.k[h], &p.v[h], p.scale, mask, &idx, &idx);
        let (dq, dk, dv, _) = flash_backward(
            &p.q[h],
            &p.k[h],
            &p.v[h],
            &fwd.o,
            &p.grad_o[h],
            &fwd.lse,
            p.scale,
            mask,
            &idx,
            &idx,
        );
        r.o.push(fwd.o);
        r.lse.push(fwd.lse);
        r.dq.push(dq);
        r.dk.push(dk);
        r.dv.push(dv);
    }
    r
}

/// This rank's Lse rows against the reference's rows `idx`, within `TOL`.
fn assert_lse_close(got: &[f32], want: &[f32], idx: &[usize], ctx: &str) {
    assert_eq!(got.len(), idx.len(), "{ctx} Lse rows");
    for (&a, &i) in got.iter().zip(idx) {
        let b = want[i];
        assert!(
            (a - b).abs() <= TOL * (1.0 + b.abs()),
            "{ctx} Lse[{i}]: {a} vs {b}"
        );
    }
}

/// One forward + backward of USP with Ulysses groups of `u` ranks on this
/// rank's rows of the global per-head tensors, ring-round skipping set by
/// `skip`: `(local_idx, (O, Lse), (∇Q, ∇K, ∇V))`. The backward runs twice,
/// on the forward's context and on one it rebuilds, and the two must agree
/// bit for bit.
fn run_usp(
    comm: &mut Communicator,
    p: &HeadProblem,
    mask: &AttnMask,
    n: usize,
    u: usize,
    skip: bool,
) -> (Vec<usize>, HeadOuts, HeadGrads) {
    let topo = UspTopo::new(comm, u).with_skip(skip);
    let idx = topo.local_idx(n);
    let local = |hs: &[Mat]| -> Vec<Mat> { hs.iter().map(|m| m.gather_rows(&idx)).collect() };
    let (q, k, v, go) = (local(&p.q), local(&p.k), local(&p.v), local(&p.grad_o));
    let free = CostModel::free();
    let ((o, lse), ctx) =
        try_usp_forward(comm, &topo, &q, &k, &v, p.scale, mask, n, &free).expect("usp forward");
    let mut backward = |held| {
        try_usp_backward(
            comm, &topo, held, &q, &k, &v, &o, &lse, &go, p.scale, mask, n, &free,
        )
        .expect("usp backward")
    };
    let grads = backward(Some(ctx));
    let rebuilt = backward(None);
    for (held, rebuilt) in [
        (&grads.0, &rebuilt.0),
        (&grads.1, &rebuilt.1),
        (&grads.2, &rebuilt.2),
    ] {
        for (a, b) in held.iter().zip(rebuilt) {
            assert_eq!(bits(a), bits(b), "held vs rebuilt context");
        }
    }
    (idx, (o, lse), grads)
}

#[test]
fn ulysses_matches_reference_per_head() {
    let (n, heads, dh, g) = (24usize, 4usize, 5usize, 2usize);
    let p = head_problem(n, heads, dh);
    let mask = AttnMask::Causal;
    let r = head_reference(&p, &mask, n);
    let world = World::new(Topology::single_node(g));
    let outs = world.run_results(|comm| run_usp(comm, &p, &mask, n, g, false));
    for (rank, (idx, (o, lse), (dq, dk, dv))) in outs.iter().enumerate() {
        for h in 0..heads {
            let ctx = format!("rank {rank} head {h}");
            assert_allclose(&o[h], &r.o[h].gather_rows(idx), TOL, &format!("{ctx} O"));
            assert_lse_close(&lse[h], &r.lse[h], idx, &ctx);
            assert_allclose(&dq[h], &r.dq[h].gather_rows(idx), TOL, &format!("{ctx} dQ"));
            assert_allclose(&dk[h], &r.dk[h].gather_rows(idx), TOL, &format!("{ctx} dK"));
            assert_allclose(&dv[h], &r.dv[h].gather_rows(idx), TOL, &format!("{ctx} dV"));
        }
    }
}

#[test]
fn ulysses_rejects_indivisible_heads() {
    // The paper's 14B setting: 40 heads cannot be head-parallelised over 32
    // GPUs; here 3 heads over 2 ranks.
    let (n, heads, dh, g) = (8usize, 3usize, 4usize, 2usize);
    let p = head_problem(n, heads, dh);
    let world = World::new(Topology::single_node(g));
    let outs = world.run_results(|comm| {
        let topo = UspTopo::new(comm, g);
        let my_idx = topo.local_idx(n);
        let ql: Vec<Mat> = p.q.iter().map(|m| m.gather_rows(&my_idx)).collect();
        try_usp_forward(
            comm,
            &topo,
            &ql,
            &ql,
            &ql,
            p.scale,
            &AttnMask::Causal,
            n,
            &CostModel::free(),
        )
        .err()
    });
    for out in outs {
        assert_eq!(
            out,
            Some(DattnError::Infeasible(UlyssesError::HeadsNotDivisible {
                heads: 3,
                group: 2
            }))
        );
    }
}

/// `(msgs, bytes)` on the intra- and the inter-node links.
fn by_link(s: &CommStats) -> [(u64, f64); 2] {
    [(s.intra_msgs, s.intra_bytes), (s.inter_msgs, s.inter_bytes)]
}

/// The sends of every `a2a` span of a rank's trace, in run order: per
/// all-to-all, `(peer, payload elements, crossed a NIC)` per message.
fn a2a_sends(trace: &RankTrace) -> Vec<Vec<(usize, u64, bool)>> {
    let rounds: Vec<usize> = (0..trace.spans.len())
        .filter(|&i| trace.spans[i].kind == SpanKind::AttnRound && trace.spans[i].name == "a2a")
        .collect();
    rounds
        .iter()
        .map(|&r| {
            trace
                .spans
                .iter()
                .filter(|s| s.kind == SpanKind::Send && s.parent == r as i32)
                .map(|s| (s.peer as usize, s.elems, s.inter))
                .collect()
        })
        .collect()
}

#[test]
fn ulysses_communication_scales_inversely_with_group() {
    // Every phase is one all-to-all: a rank sends each of its U − 1
    // Ulysses peers one message per all-to-all, in the order they run —
    // forward Q|K|V, (O, Lse); a backward on the forward's context
    // (O, Lse)|∇O, ∇Q|∇K|∇V; a backward without one Q|K|V first. A message
    // packs `t` tensors' H/U heads on n/G rows, t·(n/G)·(H/U)·dh matrix
    // elements at the wire dtype, and the two (O, Lse) rounds add
    // (H/U)·(n/G) Lse values at f32. The Ulysses group is consecutive
    // ranks, so a peer is across a NIC only when the group spans nodes.
    // At U = G (DeepSpeed-Ulysses) the ring has one position and these
    // are all of a rank's messages, so the forward plus a backward on its
    // context moves 9·n·H·dh·(G − 1)/G² matrix elements per rank, which
    // shrinks with G. At U < G the ring leg sends too, outside the
    // all-to-alls.
    let (n, heads, dh) = (32usize, 8usize, 4usize);
    let p = head_problem(n, heads, dh);
    // Each all-to-all in run order: (tensors packed, carries the Lse).
    let rounds = [
        (3, false),
        (1, true),
        (2, true),
        (3, false),
        (3, false),
        (2, true),
        (3, false),
    ];
    let mut volume = Vec::new();
    for (topo, u) in [
        (Topology::single_node(2), 2),
        (Topology::single_node(4), 4),
        (Topology::a800(2, 2), 4),
        (Topology::a800(2, 2), 2),
        (Topology::a800(2, 4), 2),
    ] {
        for dtype in [WireDtype::F32, WireDtype::Bf16] {
            let g = topo.world_size();
            let gpn = topo.gpus_per_node;
            let (rows, hpr) = (n / g, heads / u);
            let mat = (rows * hpr * dh) as u64;
            let lse = (hpr * rows) as u64;
            let elems = |(t, with_lse): (u64, bool)| t * mat + if with_lse { lse } else { 0 };
            let bytes = |(t, with_lse): (u64, bool)| {
                (t * mat) as f64 * dtype.width() + if with_lse { 4.0 * lse as f64 } else { 0.0 }
            };
            let outs = World::new(topo.clone().with_wire_dtype(dtype)).run(|comm| {
                comm.start_trace();
                let usp = UspTopo::new(comm, u);
                let idx = usp.local_idx(n);
                let local =
                    |hs: &[Mat]| -> Vec<Mat> { hs.iter().map(|m| m.gather_rows(&idx)).collect() };
                let (q, k, v, go) = (local(&p.q), local(&p.k), local(&p.v), local(&p.grad_o));
                let (mask, free) = (AttnMask::Causal, CostModel::free());
                let ((o, l), ctx) =
                    try_usp_forward(comm, &usp, &q, &k, &v, p.scale, &mask, n, &free)
                        .expect("usp forward");
                let fwd = comm.stats();
                let mut backward = |held| {
                    try_usp_backward(
                        comm, &usp, held, &q, &k, &v, &o, &l, &go, p.scale, &mask, n, &free,
                    )
                    .expect("usp backward");
                };
                backward(Some(ctx));
                backward(None);
                (fwd, comm.stats())
            });
            for out in &outs {
                let ctx = format!(
                    "U={u} on {g} ranks, {} nodes, {dtype:?}, rank {}",
                    topo.nodes, out.rank
                );
                let trace = out.trace.as_ref().expect("traced");
                let sent = a2a_sends(trace);
                assert_eq!(sent.len(), rounds.len(), "{ctx}: all-to-alls");
                let group = out.rank / u * u..out.rank / u * u + u;
                let mut per_link = vec![[(0u64, 0.0f64); 2]; rounds.len()];
                for (i, (msgs, &(t, with_lse))) in sent.iter().zip(&rounds).enumerate() {
                    let mut peers: Vec<usize> = msgs.iter().map(|m| m.0).collect();
                    peers.sort_unstable();
                    let want: Vec<usize> = group.clone().filter(|&m| m != out.rank).collect();
                    assert_eq!(peers, want, "{ctx}: all-to-all {i} peers");
                    for &(peer, got, inter) in msgs {
                        assert_eq!(got, elems((t, with_lse)), "{ctx}: all-to-all {i} elements");
                        assert_eq!(inter, peer / gpn != out.rank / gpn, "{ctx}: link to {peer}");
                        let link = &mut per_link[i][inter as usize];
                        link.0 += 1;
                        link.1 += bytes((t, with_lse));
                    }
                }
                if u == g {
                    // Nothing but the all-to-alls: the link counters hold
                    // exactly their messages and bytes.
                    let sum = |rounds: std::ops::Range<usize>| {
                        let mut acc = [(0u64, 0.0f64); 2];
                        for r in &per_link[rounds] {
                            for (a, b) in acc.iter_mut().zip(r) {
                                a.0 += b.0;
                                a.1 += b.1;
                            }
                        }
                        acc
                    };
                    let (fwd, all) = &out.result;
                    assert_eq!(by_link(fwd), sum(0..2), "{ctx}: forward");
                    assert_eq!(by_link(all), sum(0..rounds.len()), "{ctx}: both backwards");
                    let [intra, inter] = sum(0..4);
                    volume.push((g, dtype, intra.1 + inter.1));
                }
            }
        }
    }
    for dtype in [WireDtype::F32, WireDtype::Bf16] {
        let of = |g| volume.iter().find(|v| v.0 == g && v.1 == dtype).unwrap().2;
        assert!(
            of(4) < of(2),
            "{dtype:?}: per-rank volume must shrink with G"
        );
    }
}

#[test]
fn usp_matches_reference_per_head() {
    // U = 2 Ulysses groups. On 2×2 the R = 2 rings hold one member per
    // node; on 2×4 the R = 4 rings hold two members per node, so the ring
    // leg runs on both levels of the two-level ring, dense and with a
    // sliding window, skipping masked rounds or not.
    let (n, heads, dh, u) = (32usize, 4usize, 5usize, 2usize);
    let p = head_problem(n, heads, dh);
    let window = AttnMask::SlidingWindow { window: n / 8 };
    let cases = [
        (Topology::a800(2, 2), AttnMask::Causal, false),
        (Topology::a800(2, 4), AttnMask::Causal, false),
        (Topology::a800(2, 4), AttnMask::Causal, true),
        (Topology::a800(2, 4), window.clone(), false),
        (Topology::a800(2, 4), window, true),
    ];
    for (topo, mask, skip) in cases {
        let g = topo.world_size();
        let r = head_reference(&p, &mask, n);
        let world = World::new(topo);
        let outs = world.run_results(|comm| run_usp(comm, &p, &mask, n, u, skip));
        assert_eq!(outs.len(), g);
        for (rank, (idx, (o, lse), (dq, dk, dv))) in outs.iter().enumerate() {
            for h in 0..heads {
                let ctx = format!("G={g} {mask:?} skip={skip} rank {rank} head {h}");
                assert_allclose(&o[h], &r.o[h].gather_rows(idx), TOL, &format!("{ctx} O"));
                assert_lse_close(&lse[h], &r.lse[h], idx, &ctx);
                assert_allclose(&dq[h], &r.dq[h].gather_rows(idx), TOL, &format!("{ctx} dQ"));
                assert_allclose(&dk[h], &r.dk[h].gather_rows(idx), TOL, &format!("{ctx} dK"));
                assert_allclose(&dv[h], &r.dv[h].gather_rows(idx), TOL, &format!("{ctx} dV"));
            }
        }
    }
}

fn bits(m: &Mat) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

#[test]
fn usp_at_u_equal_world_is_exact_attention_bit_for_bit() {
    // U = G: the ring has one position, so every owned head attends the
    // whole sequence locally — pure Ulysses. On an f32 wire the all-to-alls
    // only move rows, so each head's outputs and gradients equal the
    // single-device kernels on the global tensors bit for bit, at any
    // length the group divides (odd n included).
    let masks = [AttnMask::Causal, AttnMask::SlidingWindow { window: 3 }];
    for g in 1..=4usize {
        for rows in [3usize, 4] {
            for hpr in 1..=2usize {
                let (n, heads, dh) = (g * rows, g * hpr, 4usize);
                let p = head_problem(n, heads, dh);
                let world = World::new(Topology::single_node(g));
                for mask in &masks {
                    let r = head_reference(&p, mask, n);
                    let outs = world.run_results(|comm| run_usp(comm, &p, mask, n, g, false));
                    for (rank, (idx, (o, lse), (dq, dk, dv))) in outs.iter().enumerate() {
                        for h in 0..heads {
                            let ctx =
                                format!("g={g} n={n} heads={heads} {mask:?} rank {rank} head {h}");
                            assert_eq!(bits(&o[h]), bits(&r.o[h].gather_rows(idx)), "{ctx} O");
                            let want_lse = idx.iter().map(|&i| r.lse[h][i].to_bits());
                            let got_lse = lse[h].iter().map(|x| x.to_bits());
                            assert!(got_lse.eq(want_lse), "{ctx} Lse");
                            assert_eq!(bits(&dq[h]), bits(&r.dq[h].gather_rows(idx)), "{ctx} dQ");
                            assert_eq!(bits(&dk[h]), bits(&r.dk[h].gather_rows(idx)), "{ctx} dK");
                            assert_eq!(bits(&dv[h]), bits(&r.dv[h].gather_rows(idx)), "{ctx} dV");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn usp_rejects_indivisible_heads() {
    let (n, heads, dh, g, u) = (16usize, 3usize, 4usize, 4usize, 2usize);
    let p = head_problem(n, heads, dh);
    let world = World::new(Topology::single_node(g));
    let outs = world.run_results(|comm| {
        let topo = UspTopo::new(comm, u);
        let my_idx = topo.local_idx(n);
        let ql: Vec<Mat> = p.q.iter().map(|m| m.gather_rows(&my_idx)).collect();
        try_usp_forward(
            comm,
            &topo,
            &ql,
            &ql,
            &ql,
            p.scale,
            &AttnMask::Causal,
            n,
            &CostModel::free(),
        )
        .err()
    });
    for out in outs {
        assert_eq!(
            out,
            Some(DattnError::Infeasible(UlyssesError::HeadsNotDivisible {
                heads: 3,
                group: 2
            }))
        );
    }
}

#[test]
fn usp_rejects_a_ring_shard_its_group_cannot_split_before_sending() {
    // n = 20 on 8 ranks with U = 4: two 10-row ring shards, which four
    // Ulysses members cannot split evenly. Every rank reports the typed
    // error in both directions and no message leaves any rank.
    let (n, heads, dh, g, u) = (20usize, 4usize, 4usize, 8usize, 4usize);
    let p = head_problem(n, heads, dh);
    let world = World::new(Topology::single_node(g));
    let outs = world.run(|comm| {
        let topo = UspTopo::new(comm, u);
        let ql: Vec<Mat> = p.q.iter().map(|m| m.slice_rows(0, 2)).collect();
        let lse = vec![vec![0.0; 2]; heads];
        let free = CostModel::free();
        let mask = AttnMask::Causal;
        let fwd = try_usp_forward(comm, &topo, &ql, &ql, &ql, p.scale, &mask, n, &free).err();
        let bwd = try_usp_backward(
            comm, &topo, None, &ql, &ql, &ql, &ql, &lse, &ql, p.scale, &mask, n, &free,
        )
        .err();
        [fwd, bwd]
    });
    let want = Some(DattnError::Infeasible(UlyssesError::RowsNotDivisible {
        rows: 10,
        group: 4,
    }));
    for o in outs {
        assert_eq!(o.result, [want.clone(), want.clone()], "rank {}", o.rank);
        assert_eq!(o.stats.total_msgs(), 0, "rank {} sent a message", o.rank);
    }
}
