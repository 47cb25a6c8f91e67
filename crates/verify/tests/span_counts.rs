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
use std::ops::Range;

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

/// Zigzag shard `x` of a `g`-position ring over `n` tokens, spelled out:
/// chunk `x`, then chunk `2g − 1 − x`.
fn zigzag(n: usize, g: usize, x: usize) -> Vec<usize> {
    let c = n / (2 * g);
    (x * c..(x + 1) * c)
        .chain((2 * g - 1 - x) * c..(2 * g - x) * c)
        .collect()
}

/// Which rows of `k` some query of `q` attends to, and which rows of `q`
/// attend into `k`, one pair at a time.
fn read_rows(mask: &AttnMask, q: &[usize], k: &[usize]) -> (Vec<bool>, Vec<bool>) {
    let mut k_read = vec![false; k.len()];
    let mut q_read = vec![false; q.len()];
    for (a, &i) in q.iter().enumerate() {
        for (b, &j) in k.iter().enumerate() {
            if mask.allowed(i, j) {
                k_read[b] = true;
                q_read[a] = true;
            }
        }
    }
    (k_read, q_read)
}

/// The rows of a two-span shard covering every read row, a whole span at
/// a time; `None` when no row is read.
fn span_rows<'a>(reads: impl Iterator<Item = &'a Vec<bool>>, rows: usize) -> Option<Range<usize>> {
    let half = rows / 2;
    let (mut early, mut late) = (false, false);
    for r in reads {
        early |= r[..half].iter().any(|&x| x);
        late |= r[half..].iter().any(|&x| x);
    }
    match (early, late) {
        (false, false) => None,
        (true, false) => Some(0..half),
        (false, true) => Some(half..rows),
        (true, true) => Some(0..rows),
    }
}

/// The span gates of every read-only hop, against a token scan that shares
/// nothing with `SkipPlan`. On tile-aligned zigzag shapes (`n = 64·G`, one
/// 32-row kernel tile per chunk) every shard splits into its two spans, and
/// each hop of each schedule must carry exactly the spans holding a row
/// some downstream consumer reads — found here by scanning
/// `AttnMask::allowed` over the consumers the schedule's traversal visits
/// after the hop:
///
/// * flat forward and Algorithm 1 (K, V): shard `x` is at rank `x + t` at
///   step `t`, and the hop at `t` feeds steps `(t, G)`;
/// * flat Algorithm 2 (Q, ∇O, Lse, D): bundle `j` is at rank `j + t`;
/// * two-level forward and Algorithm 2: at sweep `o`, slot `i`, shard `x`
///   is on node `x/p + o`, local `x%p + i`; an intra hop feeds the later
///   slots of its sweep, an inter hop every later sweep;
/// * two-level Algorithm 1: step `t` has crossed `⌊t/p⌋` nodes and taken
///   `t − ⌊t/p⌋` local hops; the hop at `t` feeds steps `(t, n·p)`.
///
/// Each receiver must expect the same rows the sender posts.
#[test]
fn span_gates_equal_the_rows_downstream_consumers_read() {
    let block = |n: usize, b: usize, seed| random_block_sparse(b, n.div_ceil(b), seed);
    for (nodes, p) in [(1usize, 3usize), (2, 2), (3, 2), (2, 3), (2, 4)] {
        let g = nodes * p;
        let n = 64 * g;
        let masks = [
            AttnMask::Causal,
            AttnMask::SlidingWindow { window: 16 },
            AttnMask::SlidingWindow { window: 32 },
            AttnMask::SlidingWindow { window: 80 },
            AttnMask::Dilated {
                window: 64,
                step: 3,
            },
            block(n, 16, 3),
            block(n, 32, 5),
        ];
        let shards: Vec<Vec<usize>> = (0..g).map(|x| zigzag(n, g, x)).collect();
        let rows = shards[0].len();
        // Hops that carry one span of two: the check is not vacuous.
        let mut single = 0;
        for mask in &masks {
            let label = format!("{mask:?} {nodes}x{p}");
            // kv[q][k]: rows of kv-shard k that q-shard q reads;
            // qr[q][k]: rows of q-shard q that read kv-shard k.
            let mut kv = vec![vec![Vec::new(); g]; g];
            let mut qr = vec![vec![Vec::new(); g]; g];
            for q in 0..g {
                for k in 0..g {
                    (kv[q][k], qr[q][k]) = read_rows(mask, &shards[q], &shards[k]);
                }
            }
            let plan = SkipPlan::build(mask, Layout::Zigzag, n, g, None);
            let win = |x: usize, set| plan.window(x, set, rows);

            // Flat ring.
            for x in 0..g {
                for t in 0..g {
                    let (me, next) = ((x + t) % g, (x + t + 1) % g);
                    let want = span_rows((t + 1..g).map(|u| &kv[(x + u) % g][x]), rows);
                    single += (want.as_ref().map(|w| w.len()) == Some(rows / 2)) as usize;
                    let a1 = plan.flat_alg1_round(me, t);
                    assert_eq!(a1.shard_out, x, "{label}");
                    assert_eq!(win(x, a1.send_kv), want, "{label}: alg1 kv {x} step {t}");
                    let r1 = plan.flat_alg1_round(next, t);
                    assert_eq!(win(r1.shard_in, r1.recv_kv), want, "{label}: alg1 recv");
                    if t + 1 < g {
                        let f = plan.flat_fwd_round(me, t);
                        assert_eq!(win(x, f.send), want, "{label}: fwd kv {x} step {t}");
                        let rf = plan.flat_fwd_round(next, t);
                        assert_eq!(win(rf.shard_in, rf.recv), want, "{label}: fwd recv");
                        let want = span_rows((t + 1..g).map(|u| &qr[x][(x + u) % g]), rows);
                        let a2 = plan.flat_alg2_round(me, t);
                        assert_eq!(a2.bundle, x, "{label}");
                        assert_eq!(win(x, a2.fwd_ro), want, "{label}: alg2 ro {x} step {t}");
                        let r2 = plan.flat_alg2_round(next, t + 1);
                        assert_eq!(win(r2.bundle, r2.recv_ro), want, "{label}: alg2 recv");
                    }
                }
            }

            // Two-level ring.
            let at = |x: usize, o: usize, i: usize| ((x / p + o) % nodes) * p + (x % p + i) % p;
            for x in 0..g {
                for o in 0..nodes {
                    if o + 1 < nodes {
                        let later = || (o + 1..nodes).flat_map(|u| (0..p).map(move |i| (u, i)));
                        let me = at(x, o, 0);
                        let f = plan.dr_fwd_outer(me, o, nodes, p);
                        assert_eq!(f.start_shard, x, "{label}");
                        let want = span_rows(later().map(|(u, i)| &kv[at(x, u, i)][x]), rows);
                        assert_eq!(win(x, f.send_inter), want, "{label}: fwd inter {x} @{o}");
                        let a2 = plan.dr_alg2_outer(me, o, nodes, p);
                        let want = span_rows(later().map(|(u, i)| &qr[x][at(x, u, i)]), rows);
                        assert_eq!(win(x, a2.send_inter), want, "{label}: alg2 inter {x} @{o}");
                        let peer = plan.dr_alg2_outer(at(x, o + 1, 0), o, nodes, p);
                        assert_eq!(win(peer.start_in, peer.recv_inter), want, "{label}");
                    }
                    for i in 0..p - 1 {
                        let me = at(x, o, i);
                        let f = plan.dr_fwd_slot(me, o, i, nodes, p);
                        assert_eq!(f.shard, x, "{label}");
                        let want = span_rows((i + 1..p).map(|u| &kv[at(x, o, u)][x]), rows);
                        assert_eq!(win(x, f.send), want, "{label}: fwd intra {x} @{o},{i}");
                        let rf = plan.dr_fwd_slot(at(x, o, i + 1), o, i, nodes, p);
                        assert_eq!(win(rf.shard_in, rf.recv), want, "{label}: fwd intra recv");
                        let a2 = plan.dr_alg2_slot(me, o, i, nodes, p);
                        let want = span_rows((i + 1..p).map(|u| &qr[x][at(x, o, u)]), rows);
                        assert_eq!(win(x, a2.send_ro), want, "{label}: alg2 intra {x} @{o},{i}");
                    }
                }
                let step = |x: usize, t: usize| {
                    let hops = t / p;
                    ((x / p + hops) % nodes) * p + (x % p + t - hops) % p
                };
                for t in 0..g - 1 {
                    let s = plan.dr_alg1_slot(step(x, t), t, nodes, p);
                    assert_eq!(s.shard, x, "{label}");
                    let want = span_rows((t + 1..g).map(|u| &kv[step(x, u)][x]), rows);
                    assert_eq!(win(x, s.send_kv), want, "{label}: alg1 kv {x} step {t}");
                    let r = plan.dr_alg1_slot(step(x, t + 1), t, nodes, p);
                    assert_eq!(win(r.shard_in, r.recv_kv), want, "{label}: alg1 recv");
                }
            }
        }
        assert!(single > 0, "{nodes}x{p}: no hop carried a single span");
    }
}
