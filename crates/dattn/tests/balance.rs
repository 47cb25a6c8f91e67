//! Measured workload balance (the mechanism behind the paper's Table 3):
//! with a causal or sliding-window mask, the naive contiguous partition
//! leaves most ranks idle while the last rank computes the bulk of the
//! triangle; zigzag/striped partitions equalise per-rank work and cut the
//! virtual-time makespan.

use burst_comm::{Topology, World};
use burst_dattn::{try_run_attention_opts, Algo, CostModel, Layout};
use burst_kernels::{AttnMask, BlockSparseMask};
use burst_tensor::randn_mat;

/// Run one fwd+bwd and return (makespan, per-rank compute seconds).
fn measure(layout: Layout, mask: &AttnMask, n: usize, g: usize) -> (f64, Vec<f64>) {
    let d = 8;
    let q = randn_mat(n, d, 0.7, 21);
    let k = randn_mat(n, d, 0.7, 22);
    let v = randn_mat(n, d, 0.7, 23);
    let grad_o = randn_mat(n, d, 0.8, 24);
    let scale = 1.0 / (d as f32).sqrt();
    // Slow simulated device so compute dominates communication.
    let cost = CostModel {
        peak_flops: 1e8,
        efficiency: 1.0,
    };
    let world = World::new(Topology::single_node(g));
    let outs = world.run(|comm| {
        let idx = layout.indices(n, g, comm.rank());
        try_run_attention_opts(
            Algo::BurstFlat,
            comm,
            &q.gather_rows(&idx),
            &k.gather_rows(&idx),
            &v.gather_rows(&idx),
            &grad_o.gather_rows(&idx),
            scale,
            mask,
            layout,
            n,
            &cost,
            false,
        )
        .expect("fault-free attention");
    });
    let makespan = outs.iter().map(|o| o.time).fold(0.0, f64::max);
    let compute: Vec<f64> = outs.iter().map(|o| o.stats.compute_time).collect();
    (makespan, compute)
}

#[test]
fn zigzag_and_striped_cut_causal_makespan() {
    let (n, g) = (64usize, 8usize);
    let mask = AttnMask::Causal;
    let (t_naive, c_naive) = measure(Layout::Contiguous, &mask, n, g);
    let (t_zig, c_zig) = measure(Layout::Zigzag, &mask, n, g);
    let (t_str, _) = measure(Layout::Striped, &mask, n, g);
    // Contiguous: the last rank computes ~2G/(G+1)× the average → makespan
    // approaches 2× the balanced one at large G (paper reports 1.72× at
    // G=32 end-to-end).
    let speedup_zig = t_naive / t_zig;
    let speedup_str = t_naive / t_str;
    assert!(
        speedup_zig > 1.4,
        "zigzag speedup {speedup_zig} (naive {t_naive}, zigzag {t_zig})"
    );
    assert!(speedup_str > 1.4, "striped speedup {speedup_str}");
    // Per-rank compute seconds: wildly skewed for contiguous, flat for zigzag.
    let spread = |c: &[f64]| {
        let max = c.iter().cloned().fold(0.0, f64::max);
        let min = c.iter().cloned().fold(f64::INFINITY, f64::min);
        (max - min) / max
    };
    assert!(spread(&c_naive) > 0.5, "contiguous spread {:?}", c_naive);
    assert!(spread(&c_zig) < 0.15, "zigzag spread {:?}", c_zig);
}

#[test]
fn striped_balances_sliding_window_attention() {
    // Table 3's SWA row: block-sparse balance via the striped-style layout.
    let (n, g) = (64usize, 4usize);
    let window_mask = AttnMask::SlidingWindow { window: 16 };
    let (t_naive, _) = measure(Layout::Contiguous, &window_mask, n, g);
    let (t_str, c_str) = measure(Layout::Striped, &window_mask, n, g);
    // Contiguous + SWA is only mildly imbalanced (just the first rank's
    // warm-up triangle is light), so the balanced layout wins ~1.1–1.2×;
    // the headline Table 3 gain comes from skipping masked tiles at all,
    // benchmarked in the harness.
    assert!(
        t_naive / t_str > 1.1,
        "striped SWA speedup {} (naive {t_naive}, striped {t_str})",
        t_naive / t_str
    );
    let max = c_str.iter().cloned().fold(0.0, f64::max);
    let min = c_str.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!((max - min) / max < 0.2, "striped SWA spread {c_str:?}");
}

#[test]
fn block_sparse_balance_requires_striped_layout() {
    let (n, g) = (64usize, 4usize);
    // Block size 16 = multiple of G = 4, per the paper's requirement.
    let mask = AttnMask::BlockSparse(BlockSparseMask::sliding_window_blocks(16, 4, 2));
    let (t_naive, _) = measure(Layout::Contiguous, &mask, n, g);
    let (t_str, _) = measure(Layout::Striped, &mask, n, g);
    assert!(
        t_str < t_naive,
        "striped block-sparse {t_str} should beat contiguous {t_naive}"
    );
}

#[test]
fn sliding_window_work_is_far_below_causal() {
    // The raw FLOP saving SWA offers (Table 3's 3.68× comes from this saving
    // being actually realisable once balanced).
    let n = 1 << 14;
    let causal = AttnMask::Causal.allowed_pairs(n);
    let swa = AttnMask::SlidingWindow { window: 1 << 10 }.allowed_pairs(n);
    let ratio = causal as f64 / swa as f64;
    assert!(ratio > 7.0, "causal/SWA work ratio {ratio}");
}
