//! Quantitative communication claims of the paper, asserted from the
//! simulator's byte counters and virtual clock:
//!
//! * forward ring: `2Nd·(G−1)/G` words per rank;
//! * Algorithm 1 backward: exactly `4Nd` words per rank;
//! * Algorithm 2 backward: `(2Nd + 2N)(G−1)/G + Nd` words per rank —
//!   ~25 % less at large `G` and `d ≫ 1`;
//! * topology-aware rings move almost all volume onto NVLink;
//! * in virtual time: BurstTopo < DoubleRing < flat ring on multi-node
//!   clusters.

use burst_comm::{CommStats, Topology, World};
use burst_dattn::double_ring::{
    try_double_ring_backward_alg2_heads_on, try_double_ring_forward_heads_on,
};
use burst_dattn::{
    try_ring_backward, try_run_attention_opts, Algo, AttnShard, BackwardInputs, CostModel,
    DoubleRingSpec, Layout,
};
use burst_kernels::AttnMask;
use burst_tensor::{randn_mat, Mat};

fn problem(n: usize, d: usize) -> (Mat, Mat, Mat, Mat, f32) {
    (
        randn_mat(n, d, 0.7, 11),
        randn_mat(n, d, 0.7, 12),
        randn_mat(n, d, 0.7, 13),
        randn_mat(n, d, 0.8, 14),
        1.0 / (d as f32).sqrt(),
    )
}

/// Per-rank elements sent during forward and backward of one flat-ring
/// algorithm (the one-level spec), measured separately.
fn measure_flat(n: usize, d: usize, g: usize, burst: bool) -> (u64, u64) {
    let (q, k, v, grad_o, scale) = problem(n, d);
    let mask = AttnMask::Full;
    let world = World::new(Topology::single_node(g));
    let outs = world.run_results(|comm| {
        let layout = Layout::Contiguous;
        let idx = layout.indices(n, g, comm.rank());
        let ql = q.gather_rows(&idx);
        let kl = k.gather_rows(&idx);
        let vl = v.gather_rows(&idx);
        let dol = grad_o.gather_rows(&idx);
        let shard = AttnShard {
            q: &ql,
            k: &kl,
            v: &vl,
            scale,
            mask: &mask,
            layout,
            seq_len: n,
            cost: CostModel::free(),
            max_token: None,
            skip: false,
        };
        let spec = DoubleRingSpec::one_level(&(0..g).collect::<Vec<_>>());
        let fwd = try_double_ring_forward_heads_on(comm, std::slice::from_ref(&shard), &spec)
            .expect("fault-free attention")
            .remove(0);
        let fwd_elems = comm.stats().total_elems();
        let back = BackwardInputs {
            o: &fwd.o,
            lse: &fwd.lse,
            grad_o: &dol,
        };
        if burst {
            try_double_ring_backward_alg2_heads_on(comm, &[(shard, back)], &spec)
                .expect("fault-free attention");
        } else {
            try_ring_backward(comm, &spec, &shard, &back).expect("fault-free attention");
        }
        (fwd_elems, comm.stats().total_elems() - fwd_elems)
    });
    // All ranks send the same volume; return rank 0's.
    assert!(
        outs.iter().all(|&o| o == outs[0]),
        "asymmetric volumes {outs:?}"
    );
    outs[0]
}

#[test]
fn forward_communication_is_2nd() {
    let (n, d, g) = (32usize, 8usize, 4usize);
    let (fwd, _) = measure_flat(n, d, g, false);
    let expect = ((g - 1) * 2 * (n / g) * d) as u64;
    assert_eq!(fwd, expect, "forward ring volume");
}

#[test]
fn algorithm1_backward_is_exactly_4nd() {
    let (n, d, g) = (32usize, 8usize, 4usize);
    let (_, bwd) = measure_flat(n, d, g, false);
    assert_eq!(bwd, (4 * n * d) as u64, "Algorithm 1 backward volume");
}

#[test]
fn algorithm2_backward_is_3nd_plus_2n() {
    let (n, d, g) = (32usize, 8usize, 4usize);
    let (_, bwd) = measure_flat(n, d, g, true);
    // (G−1) hops of (Q, ∇O, Lse, D) + G hops of ∇Q.
    let p = n / g;
    let expect = ((g - 1) * (2 * p * d + 2 * p) + g * p * d) as u64;
    assert_eq!(bwd, expect, "Algorithm 2 backward volume");
}

#[test]
fn burst_backward_saves_about_25_percent() {
    // At large d the 2N term vanishes: ratio → (3 − 3/G + 1) /4 … compare
    // against the paper's ≈ 25 % claim with a generous band.
    let (n, d, g) = (64usize, 32usize, 8usize);
    let (_, ring) = measure_flat(n, d, g, false);
    let (_, burst) = measure_flat(n, d, g, true);
    let ratio = burst as f64 / ring as f64;
    assert!(
        (0.70..0.82).contains(&ratio),
        "burst/ring backward volume ratio {ratio}"
    );
}

fn run_algo_timed(algo: Algo, topo: Topology, n: usize, d: usize) -> (f64, CommStats) {
    let g = topo.world_size();
    let (q, k, v, grad_o, scale) = problem(n, d);
    let mask = AttnMask::Causal;
    let world = World::new(topo);
    let (_, makespan, stats) = world.run_timed(|comm| {
        let layout = Layout::Zigzag;
        let idx = layout.indices(n, g, comm.rank());
        try_run_attention_opts(
            algo,
            comm,
            &q.gather_rows(&idx),
            &k.gather_rows(&idx),
            &v.gather_rows(&idx),
            &grad_o.gather_rows(&idx),
            scale,
            &mask,
            layout,
            n,
            &CostModel::free(),
            false,
        )
        .expect("fault-free attention");
    });
    (makespan, stats)
}

#[test]
fn topology_aware_rings_keep_volume_on_nvlink() {
    let topo = Topology::a800(2, 4);
    let (_, flat) = run_algo_timed(Algo::RingFlat, topo.clone(), 64, 8);
    let (_, burst) = run_algo_timed(Algo::BurstTopo, topo, 64, 8);
    let flat_inter_share = flat.inter_elems as f64 / flat.total_elems() as f64;
    let topo_inter_share = burst.inter_elems as f64 / burst.total_elems() as f64;
    // Flat ring: 2 of 8 hops cross nodes → 25 % inter volume. Topology-aware
    // rings exchange inter-node once per full intra sweep (plus the backward
    // completion hops) → ~17 %. The bigger win — NIC parallelism — shows up
    // in virtual time, asserted below.
    assert!(
        topo_inter_share < 0.8 * flat_inter_share,
        "topo-aware inter share {topo_inter_share} vs flat {flat_inter_share}"
    );
    assert!(topo_inter_share < 0.2, "inter share {topo_inter_share}");
}

#[test]
fn multi_node_virtual_time_ordering_matches_paper() {
    // Communication-bound regime (free compute): BurstTopo < DoubleRing <
    // flat ring, the ordering of the paper's Fig. 14.
    let topo = Topology::a800(2, 4);
    let (t_flat, _) = run_algo_timed(Algo::RingFlat, topo.clone(), 64, 16);
    let (t_double, _) = run_algo_timed(Algo::DoubleRing, topo.clone(), 64, 16);
    let (t_burst, _) = run_algo_timed(Algo::BurstTopo, topo, 64, 16);
    assert!(
        t_burst < t_double && t_double < t_flat,
        "expected burst {t_burst} < double {t_double} < flat {t_flat}"
    );
}

#[test]
fn virtual_time_is_deterministic() {
    let topo = Topology::a800(2, 2);
    let (t1, s1) = run_algo_timed(Algo::BurstTopo, topo.clone(), 32, 8);
    let (t2, s2) = run_algo_timed(Algo::BurstTopo, topo, 32, 8);
    assert_eq!(t1, t2);
    assert_eq!(s1, s2);
}
