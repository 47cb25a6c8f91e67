//! Property-based tests of the attention and LM-head kernels against their
//! explicit-matrix references, under randomised shapes, masks and tilings.

use burst_kernels::flash::flash_forward_with_block;
use burst_kernels::lmhead::{fused_lm_loss_with_blocks, naive_lm_loss};
use burst_kernels::naive::{naive_backward, naive_forward};
use burst_kernels::{flash_backward, AttnMask, BlockSparseMask, OnlineState};
use burst_tensor::testutil::allclose;
use burst_tensor::{randn_mat, Mat};
use proptest::prelude::*;

fn arb_mask(n: usize) -> impl Strategy<Value = AttnMask> {
    prop_oneof![
        Just(AttnMask::Full),
        Just(AttnMask::Causal),
        (1usize..n.max(2)).prop_map(|w| AttnMask::SlidingWindow { window: w }),
        (1usize..n.max(2), 1usize..4).prop_map(|(w, s)| AttnMask::Dilated { window: w, step: s }),
        (1usize..3).prop_map(move |wb| {
            AttnMask::BlockSparse(BlockSparseMask::sliding_window_blocks(4, n.div_ceil(4), wb))
        }),
    ]
}

/// Blocked flash forward with `block`-row tiles matches the explicit-matrix
/// reference on `n` random rows of width `d`, and counts exactly the
/// mask's allowed pairs.
fn check_flash_forward(n: usize, d: usize, block: usize, seed: u64, mask: &AttnMask) {
    let q = randn_mat(n, d, 0.7, seed);
    let k = randn_mat(n, d, 0.7, seed + 1);
    let v = randn_mat(n, d, 0.7, seed + 2);
    let idx: Vec<usize> = (0..n).collect();
    let scale = 1.0 / (d as f32).sqrt();
    let (o_ref, lse_ref) = naive_forward(&q, &k, &v, scale, mask, &idx, &idx);
    let out = flash_forward_with_block(&q, &k, &v, scale, mask, &idx, &idx, block);
    assert!(
        allclose(&out.o, &o_ref, 1e-3, 1e-3),
        "O mismatch for {mask:?}"
    );
    for (a, b) in out.lse.iter().zip(&lse_ref) {
        assert!(a == b || (a - b).abs() < 1e-3);
    }
    // Work counter equals the mask's exact pair count.
    assert_eq!(out.work.pairs as u128, mask.allowed_pairs(n));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn flash_forward_matches_naive(
        n in 2usize..20,
        d in 1usize..8,
        block in 1usize..8,
        seed in 0u64..500,
        mask in (2usize..20).prop_flat_map(arb_mask),
    ) {
        check_flash_forward(n, d, block, seed, &mask);
    }

    #[test]
    fn flash_backward_matches_naive(
        n in 2usize..14,
        d in 1usize..6,
        seed in 0u64..500,
        mask in (2usize..14).prop_flat_map(arb_mask),
    ) {
        let q = randn_mat(n, d, 0.7, seed);
        let k = randn_mat(n, d, 0.7, seed + 1);
        let v = randn_mat(n, d, 0.7, seed + 2);
        let go = randn_mat(n, d, 0.8, seed + 3);
        let idx: Vec<usize> = (0..n).collect();
        let scale = 1.0 / (d as f32).sqrt();
        let (gq_ref, gk_ref, gv_ref) =
            naive_backward(&q, &k, &v, &go, scale, &mask, &idx, &idx);
        let fwd = flash_forward_with_block(&q, &k, &v, scale, &mask, &idx, &idx, 4);
        let (gq, gk, gv, _) =
            flash_backward(&q, &k, &v, &fwd.o, &go, &fwd.lse, scale, &mask, &idx, &idx);
        prop_assert!(allclose(&gq, &gq_ref, 2e-3, 2e-3), "dQ for {mask:?}");
        prop_assert!(allclose(&gk, &gk_ref, 2e-3, 2e-3), "dK for {mask:?}");
        prop_assert!(allclose(&gv, &gv_ref, 2e-3, 2e-3), "dV for {mask:?}");
    }

    #[test]
    fn online_merge_is_order_invariant(
        parts in 2usize..6,
        rows in 1usize..4,
        d in 1usize..4,
        seed in 0u64..500,
        perm_seed in 0u64..100,
    ) {
        let states: Vec<OnlineState> = (0..parts)
            .map(|p| {
                OnlineState::new(
                    randn_mat(rows, d, 1.0, seed + p as u64),
                    randn_mat(rows, 1, 1.0, seed + 100 + p as u64).into_vec(),
                )
            })
            .collect();
        let fold = |order: &[usize]| {
            let mut acc = OnlineState::empty(rows, d);
            for &i in order {
                acc.merge(&states[i]);
            }
            acc
        };
        let forward: Vec<usize> = (0..parts).collect();
        // A deterministic pseudo-shuffle.
        let mut shuffled = forward.clone();
        for i in 0..parts {
            let j = (perm_seed as usize + i * 7) % parts;
            shuffled.swap(i, j);
        }
        let a = fold(&forward);
        let b = fold(&shuffled);
        prop_assert!(allclose(&a.o, &b.o, 1e-3, 1e-3));
        for (x, y) in a.lse.iter().zip(&b.lse) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn fused_lm_loss_matches_naive_for_any_tiling(
        n in 1usize..12,
        d in 1usize..6,
        v in 2usize..20,
        bs in 1usize..13,
        bv in 1usize..21,
        seed in 0u64..500,
    ) {
        let h = randn_mat(n, d, 0.8, seed);
        let w = randn_mat(v, d, 0.8, seed + 1);
        let y: Vec<usize> = (0..n).map(|i| (i * 7 + seed as usize) % v).collect();
        let reference = naive_lm_loss(&h, &w, &y);
        let fused = fused_lm_loss_with_blocks(&h, &w, &y, bs, bv);
        prop_assert!((fused.loss - reference.loss).abs() < 1e-3);
        prop_assert!(allclose(&fused.grad_h, &reference.grad_h, 1e-3, 1e-3));
        prop_assert!(allclose(&fused.grad_w, &reference.grad_w, 1e-3, 1e-3));
    }

    #[test]
    fn masked_attention_rows_sum_to_one_or_zero(
        n in 2usize..16,
        seed in 0u64..300,
        mask in (2usize..16).prop_flat_map(arb_mask),
    ) {
        // Σ_j P_ij = 1 for rows with any allowed key, else the output row is 0.
        let d = 4;
        let q = randn_mat(n, d, 0.7, seed);
        let k = randn_mat(n, d, 0.7, seed + 1);
        // V = identity-ish probe: use all-ones so O row sums = Σ P.
        let v = Mat::full(n, 1, 1.0);
        let idx: Vec<usize> = (0..n).collect();
        let out = flash_forward_with_block(&q, &k, &v, 1.0, &mask, &idx, &idx, 4);
        for i in 0..n {
            let any = (0..n).any(|j| mask.allowed(i, j));
            let s = out.o.get(i, 0);
            if any {
                prop_assert!((s - 1.0).abs() < 1e-4, "row {i} mass {s}");
            } else {
                prop_assert!(s == 0.0, "fully masked row {i} must be zero");
            }
        }
    }
}

/// A counterexample the forward property once shrank to: 5 rows of width
/// 1 in one-row tiles under a block-diagonal mask of 4-token blocks, so the
/// last block is ragged.
#[test]
fn flash_forward_matches_naive_on_a_ragged_block_sparse_tail() {
    let mask = AttnMask::BlockSparse(BlockSparseMask::new(4, 2, vec![true, false, false, true]));
    check_flash_forward(5, 1, 1, 0, &mask);
}
