//! Closed-form pair counts against the per-token scan they replace. Skip
//! plans, the masked checkpoint cutoff and the workload census count
//! allowed pairs over index spans ([`AttnMask::pairs_between`]); here every
//! one of them must equal what scanning each `(query, key)` pair gives, on
//! every mask kind, layout, ring size and cutoff. At the paper's 1M-token
//! scale the plans must stay cheap enough to build for every mask × layout
//! in well under a second, which pins the complexity without a timer.

use burst_dattn::{Layout, SkipPlan};
use burst_kernels::{AttnMask, BlockSparseMask, Span};
use burst_model::{cutoff_for, cutoff_for_masked};
use proptest::prelude::*;

/// Deterministic random block pattern (xorshift64) with the diagonal kept.
fn random_block_sparse(block: usize, nblocks: usize, seed: u64) -> AttnMask {
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

/// Allowed pairs between two index lists, one pair at a time.
fn scan(mask: &AttnMask, q: &[usize], k: &[usize]) -> u128 {
    q.iter()
        .map(|&i| k.iter().filter(|&&j| mask.allowed(i, j)).count() as u128)
        .sum()
}

/// The masked cutoff from a token scan: the longest prefix whose allowed
/// pairs (queries in the prefix, keys anywhere) fit `ρ²` of the causal
/// total, found by walking row counts rather than by binary search. Full
/// and causal masks keep the paper's position rule.
fn scanned_cutoff(rho: f32, n: usize, mask: &AttnMask) -> usize {
    if matches!(mask, AttnMask::Full | AttnMask::Causal) {
        return cutoff_for(rho, n);
    }
    let budget = (rho as f64) * (rho as f64) * (n as f64 * (n + 1) as f64 / 2.0);
    let keys: Vec<usize> = (0..n).collect();
    let mut pairs = 0u128;
    for i in 0..n {
        pairs += scan(mask, &[i], &keys);
        if pairs as f64 > budget {
            return i;
        }
    }
    n
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For a random mask (window and dilation step including 0 and 1,
    /// block-sparse with `seq_len % block` ragged and patterns shorter or
    /// longer than the sequence), layout, ring size `g`, sequence length
    /// and cutoff (none, 0, mid-sequence, `n`):
    ///
    /// * every position's spans hold exactly its cut index list;
    /// * every tile's span count equals the scanned count, and the skip
    ///   plan's counts and liveness equal the scan's;
    /// * `allowed_pairs`, `rank_workload` and the masked checkpoint cutoff
    ///   equal their scans.
    #[test]
    fn span_counts_plans_and_cutoffs_equal_the_token_scan(
        g in 1usize..=6,
        chunks in 1usize..=4,
        layout in prop_oneof![
            Just(Layout::Contiguous), Just(Layout::Zigzag), Just(Layout::Striped)
        ],
        kind in 0usize..5,
        window in 0usize..=40,
        step in 0usize..=5,
        block in 1usize..=7,
        extra_blocks in 0usize..=2,
        short_pattern in 0usize..=1,
        seed in 0u64..1_000,
        cut_kind in 0usize..4,
        cut_at in 0usize..=1_000,
        rho in 0.0f32..1.0,
    ) {
        let n = 2 * g * chunks;
        let mask = match kind {
            0 => AttnMask::Full,
            1 => AttnMask::Causal,
            2 => AttnMask::SlidingWindow { window },
            3 => AttnMask::Dilated { window, step },
            _ => {
                let nblocks = (n.div_ceil(block) + extra_blocks).saturating_sub(short_pattern);
                random_block_sparse(block, nblocks, seed)
            }
        };
        let max_token = match cut_kind {
            0 => None,
            1 => Some(0),
            2 => Some(cut_at % (n + 1)),
            _ => Some(n),
        };
        let label = format!("{mask:?} {layout:?} n={n} g={g} cut={max_token:?}");
        let spans: Vec<Vec<Span>> =
            (0..g).map(|p| layout.spans(n, g, p, max_token)).collect();
        let idx: Vec<Vec<usize>> = (0..g)
            .map(|p| {
                let all = layout.indices(n, g, p);
                all.into_iter().filter(|&i| max_token.is_none_or(|c| i < c)).collect()
            })
            .collect();
        let plan = SkipPlan::build(&mask, layout, n, g, max_token);
        for p in 0..g {
            let held: Vec<usize> = spans[p].iter().flat_map(|s| s.iter()).collect();
            prop_assert_eq!(&held, &idx[p], "{}: position {} spans", label, p);
            for kv in 0..g {
                let want = scan(&mask, &idx[p], &idx[kv]);
                prop_assert_eq!(
                    mask.pairs_between(&spans[p], &spans[kv]), want,
                    "{}: tile ({}, {}) span count", label, p, kv
                );
                prop_assert_eq!(plan.pairs(p, kv), want, "{}: plan count", label);
                prop_assert_eq!(plan.live(p, kv), want > 0, "{}: plan liveness", label);
            }
            let all: Vec<usize> = (0..n).collect();
            prop_assert_eq!(
                layout.rank_workload(&mask, n, g, p),
                scan(&mask, &layout.indices(n, g, p), &all),
                "{}: rank {} workload", label, p
            );
        }
        let cut = max_token.unwrap_or(n);
        let prefix: Vec<usize> = (0..cut).collect();
        prop_assert_eq!(mask.allowed_pairs(cut), scan(&mask, &prefix, &prefix), "{}", label);
        prop_assert_eq!(
            cutoff_for_masked(rho, n, &mask),
            scanned_cutoff(rho, n, &mask),
            "{}: cutoff at rho {}", label, rho
        );
    }
}

/// The README's 1M-token masks: causal, full, a 64Ki sliding window, a
/// 128Ki/4 dilated window and a 32Ki-block random pattern.
fn paper_scale_masks(n: usize) -> Vec<AttnMask> {
    let block = 1 << 15;
    vec![
        AttnMask::Causal,
        AttnMask::Full,
        AttnMask::SlidingWindow { window: 1 << 16 },
        AttnMask::Dilated {
            window: 1 << 17,
            step: 4,
        },
        random_block_sparse(block, n.div_ceil(block), 7),
    ]
}

/// At 1,048,576 tokens on 32 positions, the skip plan of every mask ×
/// layout, with no cutoff and with the ρ = 0.5 masked cutoff, counts every
/// allowed pair of the cut sequence exactly once. A token scan would take
/// about 10³ s for one windowed zigzag plan of this size; the closed form
/// builds all thirty in well under a second, debug build included.
#[test]
fn paper_scale_plans_count_every_pair_of_the_cut_sequence() {
    let (n, g) = (1usize << 20, 32usize);
    for mask in paper_scale_masks(n) {
        for layout in [Layout::Contiguous, Layout::Zigzag, Layout::Striped] {
            for max_token in [None, Some(cutoff_for_masked(0.5, n, &mask))] {
                let plan = SkipPlan::build(&mask, layout, n, g, max_token);
                let total: u128 = (0..g)
                    .flat_map(|q| (0..g).map(move |k| (q, k)))
                    .map(|(q, k)| plan.pairs(q, k))
                    .sum();
                assert_eq!(
                    total,
                    mask.allowed_pairs(max_token.unwrap_or(n)),
                    "{mask:?} {layout:?} cut {max_token:?}"
                );
            }
        }
    }
}
