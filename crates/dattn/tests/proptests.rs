//! Property-based tests: distributed attention ≡ single-device flash under
//! randomised shapes, topologies, layouts, masks and algorithms.

use burst_comm::{Topology, WireDtype, World};
use burst_dattn::{try_run_attention_opts, Algo, CostModel, Layout};
use burst_kernels::{flash_backward, flash_forward, AttnMask};
use burst_tensor::randn_mat;
use burst_tensor::testutil::allclose;
use proptest::prelude::*;

fn arb_topology() -> impl Strategy<Value = Topology> {
    prop_oneof![
        (1usize..5).prop_map(Topology::single_node),
        ((2usize..4), (1usize..4)).prop_map(|(n, g)| Topology::a800(n, g)),
    ]
}

fn arb_layout() -> impl Strategy<Value = Layout> {
    prop_oneof![
        Just(Layout::Contiguous),
        Just(Layout::Zigzag),
        Just(Layout::Striped),
    ]
}

fn arb_algo() -> impl Strategy<Value = Algo> {
    prop_oneof![
        Just(Algo::RingFlat),
        Just(Algo::BurstFlat),
        Just(Algo::DoubleRing),
        Just(Algo::BurstTopo),
    ]
}

fn arb_mask() -> impl Strategy<Value = AttnMask> {
    prop_oneof![
        Just(AttnMask::Full),
        Just(AttnMask::Causal),
        (2usize..24).prop_map(|w| AttnMask::SlidingWindow { window: w }),
        ((2usize..24), (1usize..3)).prop_map(|(w, s)| AttnMask::Dilated { window: w, step: s }),
    ]
}

/// Distributed attention of `algo` on `topo` equals single-device flash
/// attention (outputs and gradients) on `2·G·chunks` random rows of width
/// `d`.
fn check_distributed_equals_single_device(
    topo: Topology,
    layout: Layout,
    algo: Algo,
    mask: &AttnMask,
    chunks: usize,
    d: usize,
    seed: u64,
) {
    let g = topo.world_size();
    let n = 2 * g * chunks; // divisible by 2G for zigzag
    let q = randn_mat(n, d, 0.7, seed);
    let k = randn_mat(n, d, 0.7, seed + 1);
    let v = randn_mat(n, d, 0.7, seed + 2);
    let go = randn_mat(n, d, 0.8, seed + 3);
    let scale = 1.0 / (d as f32).sqrt();

    let idx: Vec<usize> = (0..n).collect();
    let fwd = flash_forward(&q, &k, &v, scale, mask, &idx, &idx);
    let (dq_ref, dk_ref, dv_ref, _) =
        flash_backward(&q, &k, &v, &fwd.o, &go, &fwd.lse, scale, mask, &idx, &idx);

    let world = World::new(topo);
    let mask2 = mask.clone();
    let outs = world.run_results(move |comm| {
        let my = layout.indices(n, g, comm.rank());
        try_run_attention_opts(
            algo,
            comm,
            &q.gather_rows(&my),
            &k.gather_rows(&my),
            &v.gather_rows(&my),
            &go.gather_rows(&my),
            scale,
            &mask2,
            layout,
            n,
            &CostModel::free(),
            false,
        )
        .expect("fault-free attention")
    });
    for (rank, (o, _, dq, dk, dv)) in outs.iter().enumerate() {
        let my = layout.indices(n, g, rank);
        assert!(
            allclose(o, &fwd.o.gather_rows(&my), 2e-3, 2e-3),
            "O rank {rank} ({algo:?}, {layout:?}, {mask:?})"
        );
        assert!(
            allclose(dq, &dq_ref.gather_rows(&my), 2e-3, 2e-3),
            "dQ rank {rank}"
        );
        assert!(
            allclose(dk, &dk_ref.gather_rows(&my), 2e-3, 2e-3),
            "dK rank {rank}"
        );
        assert!(
            allclose(dv, &dv_ref.gather_rows(&my), 2e-3, 2e-3),
            "dV rank {rank}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn distributed_equals_single_device(
        topo in arb_topology(),
        layout in arb_layout(),
        algo in arb_algo(),
        mask in arb_mask(),
        chunks in 1usize..4,
        d in 2usize..6,
        seed in 0u64..200,
    ) {
        check_distributed_equals_single_device(topo, layout, algo, &mask, chunks, d, seed);
    }

    #[test]
    fn layouts_always_partition(
        layout in arb_layout(),
        g in 1usize..9,
        chunks in 1usize..6,
    ) {
        let n = 2 * g * chunks;
        let mut seen = vec![false; n];
        for r in 0..g {
            for i in layout.indices(n, g, r) {
                prop_assert!(!seen[i], "{layout:?}: token {i} double-owned");
                seen[i] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "{layout:?}: coverage");
    }

    #[test]
    fn backward_volume_formulas_hold_for_any_world(
        g in 2usize..7,
        chunks in 1usize..4,
        d in 2usize..8,
    ) {
        use burst_dattn::double_ring::{
            try_double_ring_backward_alg2_heads_on, try_double_ring_forward_heads_on,
        };
        use burst_dattn::{try_ring_backward, AttnShard, BackwardInputs, DoubleRingSpec};
        let n = 2 * g * chunks;
        let q = randn_mat(n, d, 0.7, 5);
        let k = randn_mat(n, d, 0.7, 6);
        let v = randn_mat(n, d, 0.7, 7);
        let go = randn_mat(n, d, 0.8, 8);
        let mask = AttnMask::Full;
        let world = World::new(Topology::single_node(g));
        let outs = world.run_results(move |comm| {
            let layout = Layout::Contiguous;
            let my = layout.indices(n, g, comm.rank());
            let ql = q.gather_rows(&my);
            let kl = k.gather_rows(&my);
            let vl = v.gather_rows(&my);
            let shard = AttnShard {
                q: &ql,
                k: &kl,
                v: &vl,
                scale: 1.0,
                mask: &mask,
                layout,
                seq_len: n,
                cost: CostModel::free(),
                max_token: None,
                skip: false,
            };
            // The flat ring: the one-level spec over the world.
            let spec = DoubleRingSpec::one_level(&(0..g).collect::<Vec<_>>());
            let fwd = try_double_ring_forward_heads_on(comm, std::slice::from_ref(&shard), &spec)
                .expect("fault-free attention")
                .remove(0);
            let after_fwd = comm.stats().total_elems();
            let grad_o = go.gather_rows(&my);
            let back = BackwardInputs { o: &fwd.o, lse: &fwd.lse, grad_o: &grad_o };
            try_ring_backward(comm, &spec, &shard, &back)
                .expect("fault-free attention");
            let after_ring = comm.stats().total_elems();
            try_double_ring_backward_alg2_heads_on(comm, &[(shard, back)], &spec)
                .expect("fault-free attention");
            let after_burst = comm.stats().total_elems();
            (after_fwd, after_ring - after_fwd, after_burst - after_ring)
        });
        let p = n / g;
        for (fwd, ring_b, burst_b) in outs {
            prop_assert_eq!(fwd, ((g - 1) * 2 * p * d) as u64);
            prop_assert_eq!(ring_b, (4 * n * d) as u64);
            prop_assert_eq!(burst_b, ((g - 1) * (2 * p * d + 2 * p) + g * p * d) as u64);
        }
    }
}

/// A counterexample the property once shrank to: one rank on a bf16 wire,
/// contiguous layout, flat RingAttention, no mask, `d` = 2.
#[test]
fn one_rank_on_a_bf16_wire_equals_single_device() {
    let topo = Topology::single_node(1).with_wire_dtype(WireDtype::Bf16);
    check_distributed_equals_single_device(
        topo,
        Layout::Contiguous,
        Algo::RingFlat,
        &AttnMask::Full,
        1,
        2,
        0,
    );
}
