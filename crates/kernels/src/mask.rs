//! Attention sparsity patterns over global token indices.
//!
//! Distributed workload balance (paper §3.4) hands each device
//! *non-contiguous* pieces of the sequence, so masks are always evaluated on
//! global indices. The tile classifier [`AttnMask::tile_state`] lets kernels
//! skip fully-masked tiles entirely and run the dense fast path on
//! fully-allowed tiles — that skip is precisely the "workload" whose balance
//! the paper's Table 3 measures.
//!
//! Above the kernels, whole shards are described by [`Span`]s — arithmetic
//! progressions of token indices — and [`AttnMask::pairs_between`] counts
//! the allowed pairs between two shards in closed form: O(1) per span pair
//! for the offset masks (full, causal, sliding window, dilated), one term
//! per covered block pair for block-sparse. Skip plans, the masked
//! checkpoint cutoff and the workload censuses all derive from that count;
//! a tile is live when it is positive and fully allowed when it equals
//! `|q|·|k|`.

/// Block-sparse pattern: the sequence is cut into `block`-token blocks and
/// `allowed[bi * nblocks + bj]` says whether queries in block `bi` may attend
/// to keys in block `bj`.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSparseMask {
    pub block: usize,
    pub nblocks: usize,
    pub allowed: Vec<bool>,
}

impl BlockSparseMask {
    #[track_caller]
    pub fn new(block: usize, nblocks: usize, allowed: Vec<bool>) -> Self {
        assert!(block > 0, "BlockSparseMask: zero block size");
        assert_eq!(
            allowed.len(),
            nblocks * nblocks,
            "BlockSparseMask: allowed matrix must be nblocks² entries"
        );
        BlockSparseMask {
            block,
            nblocks,
            allowed,
        }
    }

    /// A sliding-window pattern at block granularity: block `bi` attends to
    /// blocks `bj` with `bi - w_blocks < bj <= bi` (causal block window).
    pub fn sliding_window_blocks(block: usize, nblocks: usize, w_blocks: usize) -> Self {
        let mut allowed = vec![false; nblocks * nblocks];
        for bi in 0..nblocks {
            for bj in 0..nblocks {
                if bj <= bi && bi - bj < w_blocks {
                    allowed[bi * nblocks + bj] = true;
                }
            }
        }
        BlockSparseMask::new(block, nblocks, allowed)
    }

    #[inline]
    pub fn block_allowed(&self, bi: usize, bj: usize) -> bool {
        if bi >= self.nblocks || bj >= self.nblocks {
            return false;
        }
        self.allowed[bi * self.nblocks + bj]
    }

    /// Allowed pairs between two spans: every covered block pair weighs its
    /// tokens. Blocks at or past `nblocks` hold no allowed pair, as
    /// [`Self::block_allowed`] answers for them.
    fn span_pairs(&self, q: Span, k: Span) -> u128 {
        let kb = self.covered(k);
        self.covered(q)
            .iter()
            .map(|&(bi, nq)| {
                let row = &self.allowed[bi * self.nblocks..(bi + 1) * self.nblocks];
                let nk: u128 = kb.iter().filter(|&&(bj, _)| row[bj]).map(|&(_, n)| n).sum();
                nq * nk
            })
            .sum()
    }

    /// `(block, tokens of span in it)` for every block below `nblocks` the
    /// span touches.
    fn covered(&self, s: Span) -> Vec<(usize, u128)> {
        let first = s.start / self.block;
        if s.len == 0 || first >= self.nblocks {
            return Vec::new();
        }
        let last = (s.last() / self.block).min(self.nblocks - 1);
        (first..=last)
            .map(|b| {
                let inside = s.cut((b + 1) * self.block).len - s.cut(b * self.block).len;
                (b, inside as u128)
            })
            .filter(|&(_, n)| n > 0)
            .collect()
    }
}

/// An arithmetic progression of global token indices: `start + stride·m`
/// for `m < len`. A ring position's tokens are at most two of these — one
/// run on the contiguous layout, two runs on zigzag, one stride-`G`
/// progression on striped — each cut at any `max_token`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub start: usize,
    /// Distance between consecutive tokens, at least 1.
    pub stride: usize,
    pub len: usize,
}

impl Span {
    /// The run `start..end` (empty when `end <= start`).
    pub fn range(start: usize, end: usize) -> Span {
        Span {
            start,
            stride: 1,
            len: end.saturating_sub(start),
        }
    }

    /// The tokens below `max_token`.
    pub fn cut(self, max_token: usize) -> Span {
        let below = max_token.saturating_sub(self.start).div_ceil(self.stride);
        Span {
            len: self.len.min(below),
            ..self
        }
    }

    /// The tokens in ascending order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        (0..self.len).map(move |m| self.start + self.stride * m)
    }

    fn last(self) -> usize {
        self.start + self.stride * (self.len - 1)
    }

    /// The same tokens as progressions of stride `stride`, a multiple of
    /// this span's.
    fn restride(self, stride: usize) -> impl Iterator<Item = Span> {
        let r = stride / self.stride;
        (0..r.min(self.len)).map(move |rho| Span {
            start: self.start + rho * self.stride,
            stride,
            len: (self.len - rho).div_ceil(r),
        })
    }
}

/// The attention mask kinds the engine integrates (paper §3.4).
#[derive(Debug, Clone, PartialEq)]
pub enum AttnMask {
    /// Dense attention, no masking.
    Full,
    /// Token `i` attends to tokens `j <= i`.
    Causal,
    /// Causal with a window: `j <= i` and `i - j < window`.
    SlidingWindow { window: usize },
    /// Dilated causal attention (LongNet-style): within a window of
    /// `window` tokens, attend only to keys at multiples of `step`
    /// (`j <= i`, `i − j < window`, `(i − j) % step == 0`).
    Dilated { window: usize, step: usize },
    /// Block-wise sparse pattern.
    BlockSparse(BlockSparseMask),
}

/// Classification of a (q-tile, k-tile) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileState {
    /// Every (q, k) pair in the tile is allowed: dense fast path, no
    /// per-element checks.
    FullyAllowed,
    /// No pair is allowed: the tile is skipped entirely (zero work).
    FullyMasked,
    /// Mixed: per-element masking applies.
    Partial,
}

impl AttnMask {
    /// May global query `i` attend to global key `j`?
    #[inline]
    pub fn allowed(&self, i: usize, j: usize) -> bool {
        match self {
            AttnMask::Full => true,
            AttnMask::Causal => j <= i,
            AttnMask::SlidingWindow { window } => j <= i && i - j < *window,
            AttnMask::Dilated { window, step } => {
                j <= i && i - j < *window && (i - j).is_multiple_of(*step.max(&1))
            }
            AttnMask::BlockSparse(bs) => bs.block_allowed(i / bs.block, j / bs.block),
        }
    }

    /// Allowed `(query, key)` pairs with the query in one of `q`'s spans and
    /// the key in one of `k`'s (spans within a side must not overlap). The
    /// offset masks take O(1) per span pair: `i − j` runs over an
    /// arithmetic progression of offsets, each repeated a trapezoid number
    /// of times, and the count sums that trapezoid over the allowed offsets.
    /// Block-sparse takes one term per covered block pair.
    pub fn pairs_between(&self, q: &[Span], k: &[Span]) -> u128 {
        q.iter()
            .flat_map(|&a| k.iter().map(move |&b| self.span_pairs(a, b)))
            .sum()
    }

    fn span_pairs(&self, q: Span, k: Span) -> u128 {
        if q.len == 0 || k.len == 0 {
            return 0;
        }
        match self {
            AttnMask::Full => q.len as u128 * k.len as u128,
            AttnMask::Causal => offset_pairs(q, k, None, 1),
            AttnMask::SlidingWindow { window } => offset_pairs(q, k, Some(*window), 1),
            AttnMask::Dilated { window, step } => offset_pairs(q, k, Some(*window), (*step).max(1)),
            AttnMask::BlockSparse(bs) => bs.span_pairs(q, k),
        }
    }

    /// Classify a tile given the global index sets of its rows and columns.
    ///
    /// Exact for arbitrary index sets. Min/max bounds settle whole tiles
    /// that lie entirely inside or outside the allowed region; any other
    /// sliding-window or dilated tile is scanned pair by pair until it is
    /// known to be mixed, and block-sparse tiles classify their covered
    /// blocks. The kernels call this per tile of at most a block squared;
    /// whole shards are counted in closed form by [`Self::pairs_between`].
    pub fn tile_state(&self, q_idx: &[usize], k_idx: &[usize]) -> TileState {
        if q_idx.is_empty() || k_idx.is_empty() {
            return TileState::FullyMasked;
        }
        let (qmin, qmax) = min_max(q_idx);
        let (kmin, kmax) = min_max(k_idx);
        match self {
            AttnMask::Full => TileState::FullyAllowed,
            AttnMask::Causal => {
                if kmax <= qmin {
                    TileState::FullyAllowed
                } else if kmin > qmax {
                    TileState::FullyMasked
                } else {
                    TileState::Partial
                }
            }
            AttnMask::SlidingWindow { window } => {
                let all = kmax <= qmin && qmax - kmin < *window;
                if all {
                    TileState::FullyAllowed
                } else if kmin > qmax || qmin >= kmax + *window {
                    // Every key is after every query, or every key fell out
                    // of even the latest query's window.
                    TileState::FullyMasked
                } else {
                    self.scan_tile(q_idx, k_idx)
                }
            }
            AttnMask::Dilated { window, .. } => {
                if kmin > qmax || qmin >= kmax + *window {
                    TileState::FullyMasked
                } else {
                    self.scan_tile(q_idx, k_idx)
                }
            }
            AttnMask::BlockSparse(bs) => {
                // Block-granular fast path: the pattern is constant on
                // block-aligned token rectangles, so classifying the
                // *covered* block pairs is exact — every tile pair lands in
                // some covered (bi, bj), and every covered (bi, bj) holds at
                // least one tile pair. Two edge rules keep it in agreement
                // with the per-token scan on ragged shapes
                // (`seq_len % block != 0`, or indices past the pattern's
                // extent): covered blocks come from the actual indices,
                // never from the [min/block, max/block] range (strided
                // tiles touch gaps that range would claim), and block
                // indices `>= nblocks` participate as masked, exactly as
                // `block_allowed` answers for them.
                let qb = covered_blocks(q_idx, bs.block);
                let kb = covered_blocks(k_idx, bs.block);
                let mut any = false;
                let mut all = true;
                for &bi in &qb {
                    for &bj in &kb {
                        if bs.block_allowed(bi, bj) {
                            any = true;
                        } else {
                            all = false;
                        }
                        if any && !all {
                            return TileState::Partial;
                        }
                    }
                }
                if all {
                    TileState::FullyAllowed
                } else if any {
                    TileState::Partial
                } else {
                    TileState::FullyMasked
                }
            }
        }
    }

    /// Exact tile classification by scanning all pairs.
    fn scan_tile(&self, q_idx: &[usize], k_idx: &[usize]) -> TileState {
        let mut any = false;
        let mut all = true;
        for &i in q_idx {
            for &j in k_idx {
                if self.allowed(i, j) {
                    any = true;
                } else {
                    all = false;
                }
                if any && !all {
                    return TileState::Partial;
                }
            }
        }
        if all {
            TileState::FullyAllowed
        } else if any {
            TileState::Partial
        } else {
            TileState::FullyMasked
        }
    }

    /// Number of allowed (query, key) pairs in an `n × n` attention — the
    /// exact FLOP-relevant workload of the pattern (used by the balance
    /// benches and the perf model).
    pub fn allowed_pairs(&self, n: usize) -> u128 {
        let all = [Span::range(0, n)];
        self.pairs_between(&all, &all)
    }
}

/// Pairs `(i, j)`, `i` in `q` and `j` in `k`, whose offset `δ = i − j`
/// satisfies `0 ≤ δ < window` (no upper bound without a window) and
/// `δ ≡ 0 (mod step)`.
fn offset_pairs(q: Span, k: Span, window: Option<usize>, step: usize) -> u128 {
    // A one-token span fits any stride; otherwise both sides move to the
    // least common multiple of their strides (equal on every layout, so
    // this is one span pair there).
    let stride = match (q.len > 1, k.len > 1) {
        (true, true) => q.stride / gcd(q.stride, k.stride) * k.stride,
        (true, false) => q.stride,
        (false, true) => k.stride,
        (false, false) => 1,
    };
    let align = |s: Span| -> Vec<Span> {
        if s.len > 1 {
            s.restride(stride).collect()
        } else {
            vec![Span { stride, ..s }]
        }
    };
    let ks = align(k);
    align(q)
        .iter()
        .flat_map(|&a| {
            ks.iter()
                .map(move |&b| aligned_offset_pairs(a, b, window, step))
        })
        .sum()
}

/// [`offset_pairs`] for two spans of one stride `s`. With `i = q0 + s·a`
/// and `j = k0 + s·b`, the offset is `δ0 + s·c` for `c = a − b`, and `c`
/// occurs `min(A, B + c) − max(0, c)` times: a trapezoid rising from
/// `c = −(B−1)`, flat at `min(A, B)`, falling to `c = A − 1`. The allowed
/// `c` form an arithmetic progression in an interval, so the count is three
/// linear sums over it.
fn aligned_offset_pairs(q: Span, k: Span, window: Option<usize>, step: usize) -> u128 {
    let (a, b, s) = (q.len as i128, k.len as i128, q.stride as i128);
    let d0 = q.start as i128 - k.start as i128;
    // δ ≥ 0 and δ < window bound `c`.
    let lo = (1 - b).max(-(d0.div_euclid(s)));
    let mut hi = a - 1;
    if let Some(w) = window {
        hi = hi.min((w as i128 - 1 - d0).div_euclid(s));
    }
    if lo > hi {
        return 0;
    }
    // δ ≡ 0 (mod step) holds on `c ≡ r (mod m)`, or nowhere.
    let step = step as i128;
    let g = gcd(s as usize, step as usize) as i128;
    if d0.rem_euclid(g) != 0 {
        return 0;
    }
    let m = step / g;
    let r = ((-d0 / g).rem_euclid(m) * mod_inverse(s / g, m)).rem_euclid(m);
    let (knee_lo, knee_hi) = ((a - b).min(0), (a - b).max(0));
    let pieces = [
        (1 - b, knee_lo - 1, b, 1),
        (knee_lo, knee_hi - 1, a.min(b), 0),
        (knee_hi, a - 1, a, -1),
    ];
    let total: i128 = pieces
        .iter()
        .map(|&(x, y, alpha, beta)| ap_linear_sum(x.max(lo), y.min(hi), r, m, alpha, beta))
        .sum();
    total as u128
}

/// `Σ (alpha + beta·c)` over `c ∈ [x, y]` with `c ≡ r (mod m)`.
fn ap_linear_sum(x: i128, y: i128, r: i128, m: i128, alpha: i128, beta: i128) -> i128 {
    let first = x + (r - x).rem_euclid(m);
    if first > y {
        return 0;
    }
    let t = (y - first) / m + 1;
    alpha * t + beta * (t * first + m * t * (t - 1) / 2)
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The inverse of `a` modulo `m` (`a` and `m` coprime, `m ≥ 1`).
fn mod_inverse(a: i128, m: i128) -> i128 {
    let (mut r0, mut r1, mut s0, mut s1) = (a.rem_euclid(m), m, 1i128, 0i128);
    while r1 != 0 {
        let t = r0 / r1;
        (r0, r1) = (r1, r0 - t * r1);
        (s0, s1) = (s1, s0 - t * s1);
    }
    s0.rem_euclid(m)
}

/// Distinct block indices actually touched by `idx`, ascending.
fn covered_blocks(idx: &[usize], block: usize) -> Vec<usize> {
    let mut blocks: Vec<usize> = idx.iter().map(|&i| i / block).collect();
    blocks.sort_unstable();
    blocks.dedup();
    blocks
}

fn min_max(idx: &[usize]) -> (usize, usize) {
    let mut lo = usize::MAX;
    let mut hi = 0;
    for &i in idx {
        lo = lo.min(i);
        hi = hi.max(i);
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn causal_allows_past_only() {
        let m = AttnMask::Causal;
        assert!(m.allowed(5, 5));
        assert!(m.allowed(5, 0));
        assert!(!m.allowed(5, 6));
    }

    #[test]
    fn sliding_window_bounds() {
        let m = AttnMask::SlidingWindow { window: 3 };
        assert!(m.allowed(10, 10));
        assert!(m.allowed(10, 8));
        assert!(!m.allowed(10, 7)); // distance 3 >= window
        assert!(!m.allowed(10, 11));
    }

    #[test]
    fn block_sparse_indexing() {
        let bs = BlockSparseMask::sliding_window_blocks(4, 3, 2);
        let m = AttnMask::BlockSparse(bs);
        // Block layout (3 blocks of 4): block 2 attends to blocks 1, 2.
        assert!(m.allowed(8, 4)); // b(2,1)
        assert!(m.allowed(8, 11)); // b(2,2)
        assert!(!m.allowed(8, 0)); // b(2,0) outside window
        assert!(!m.allowed(0, 4)); // non-causal block
    }

    #[test]
    fn tile_state_causal_contiguous() {
        let m = AttnMask::Causal;
        let q: Vec<usize> = (8..16).collect();
        assert_eq!(
            m.tile_state(&q, &(0..8).collect::<Vec<_>>()),
            TileState::FullyAllowed
        );
        assert_eq!(
            m.tile_state(&q, &(16..24).collect::<Vec<_>>()),
            TileState::FullyMasked
        );
        assert_eq!(
            m.tile_state(&q, &(8..16).collect::<Vec<_>>()),
            TileState::Partial
        );
    }

    #[test]
    fn tile_state_matches_scan_for_strided_indices() {
        // Striped layout: rank 1 of 4 owns tokens 1, 5, 9, 13.
        let m = AttnMask::Causal;
        let q = vec![1usize, 5, 9, 13];
        let k = vec![2usize, 6, 10, 14];
        assert_eq!(m.tile_state(&q, &k), TileState::Partial);
        let k_early = vec![0usize];
        assert_eq!(m.tile_state(&q, &k_early), TileState::FullyAllowed);
    }

    #[test]
    fn tile_state_full_mask() {
        let m = AttnMask::Full;
        assert_eq!(m.tile_state(&[0, 1], &[5, 6]), TileState::FullyAllowed);
        assert_eq!(m.tile_state(&[], &[5]), TileState::FullyMasked);
    }

    #[test]
    fn sliding_window_tile_states() {
        let m = AttnMask::SlidingWindow { window: 4 };
        let q: Vec<usize> = (100..104).collect();
        // Keys immediately before and inside window.
        assert_eq!(
            m.tile_state(&q, &(100..104).collect::<Vec<_>>()),
            TileState::Partial
        );
        // Keys far in the past: fully masked.
        assert_eq!(
            m.tile_state(&q, &(0..4).collect::<Vec<_>>()),
            TileState::FullyMasked
        );
        // Keys in the future: fully masked.
        assert_eq!(
            m.tile_state(&q, &(200..204).collect::<Vec<_>>()),
            TileState::FullyMasked
        );
    }

    #[test]
    fn allowed_pairs_formulas() {
        assert_eq!(AttnMask::Full.allowed_pairs(10), 100);
        assert_eq!(AttnMask::Causal.allowed_pairs(10), 55);
        // Window 3 over 10 tokens: 3·4/2 + 7·3 = 6 + 21 = 27.
        assert_eq!(AttnMask::SlidingWindow { window: 3 }.allowed_pairs(10), 27);
        // Window >= n degrades to causal.
        assert_eq!(
            AttnMask::SlidingWindow { window: 100 }.allowed_pairs(10),
            55
        );
    }

    #[test]
    fn dilated_mask_semantics() {
        let m = AttnMask::Dilated { window: 8, step: 2 };
        assert!(m.allowed(10, 10)); // distance 0
        assert!(m.allowed(10, 8)); // distance 2
        assert!(!m.allowed(10, 9)); // distance 1: off the dilation grid
        assert!(!m.allowed(10, 1)); // distance 9: outside window
        assert!(!m.allowed(10, 11)); // future
    }

    #[test]
    fn dilated_tile_states_are_conservative_and_correct() {
        let m = AttnMask::Dilated { window: 8, step: 2 };
        let q: Vec<usize> = (100..104).collect();
        assert_eq!(
            m.tile_state(&q, &(0..4).collect::<Vec<_>>()),
            TileState::FullyMasked
        );
        assert_eq!(
            m.tile_state(&q, &(200..204).collect::<Vec<_>>()),
            TileState::FullyMasked
        );
        assert_eq!(
            m.tile_state(&q, &(98..102).collect::<Vec<_>>()),
            TileState::Partial
        );
    }

    #[test]
    fn span_counts_match_the_token_scan() {
        let masks = [
            AttnMask::Full,
            AttnMask::Causal,
            AttnMask::SlidingWindow { window: 0 },
            AttnMask::SlidingWindow { window: 1 },
            AttnMask::SlidingWindow { window: 7 },
            AttnMask::Dilated { window: 0, step: 2 },
            AttnMask::Dilated { window: 9, step: 0 },
            AttnMask::Dilated { window: 9, step: 1 },
            AttnMask::Dilated {
                window: 13,
                step: 3,
            },
            AttnMask::Dilated {
                window: 40,
                step: 4,
            },
            // Ragged: 5 blocks of 3 cover 15 tokens, the spans reach 40.
            AttnMask::BlockSparse(BlockSparseMask::sliding_window_blocks(3, 5, 2)),
            AttnMask::BlockSparse(BlockSparseMask::new(4, 0, Vec::new())),
        ];
        let spans = [
            Span::range(0, 0),
            Span::range(3, 4),
            Span::range(0, 12),
            Span::range(5, 21),
            Span::range(20, 40),
            Span {
                start: 2,
                stride: 3,
                len: 6,
            },
            Span {
                start: 1,
                stride: 4,
                len: 9,
            },
            Span {
                start: 0,
                stride: 6,
                len: 7,
            },
            Span {
                start: 7,
                stride: 2,
                len: 1,
            },
        ];
        for m in &masks {
            for &q in &spans {
                for &k in &spans {
                    let scan = q
                        .iter()
                        .flat_map(|i| k.iter().map(move |j| (i, j)))
                        .filter(|&(i, j)| m.allowed(i, j))
                        .count() as u128;
                    assert_eq!(m.pairs_between(&[q], &[k]), scan, "{m:?} {q:?} {k:?}");
                }
            }
        }
    }

    #[test]
    fn cut_keeps_the_tokens_below_the_cutoff() {
        let s = Span {
            start: 3,
            stride: 4,
            len: 5,
        };
        for cut in 0..30 {
            let want: Vec<usize> = s.iter().filter(|&i| i < cut).collect();
            assert_eq!(s.cut(cut).iter().collect::<Vec<_>>(), want, "cut {cut}");
        }
    }

    #[test]
    fn allowed_pairs_matches_bruteforce() {
        let masks = [
            AttnMask::Full,
            AttnMask::Causal,
            AttnMask::SlidingWindow { window: 5 },
            AttnMask::Dilated { window: 6, step: 2 },
            AttnMask::Dilated { window: 5, step: 3 },
            AttnMask::Dilated { window: 4, step: 1 },
            AttnMask::BlockSparse(BlockSparseMask::sliding_window_blocks(4, 4, 2)),
        ];
        let n = 16;
        for m in &masks {
            let brute: u128 = (0..n)
                .flat_map(|i| (0..n).map(move |j| (i, j)))
                .filter(|&(i, j)| m.allowed(i, j))
                .count() as u128;
            assert_eq!(m.allowed_pairs(n), brute, "mask {m:?}");
        }
    }
}
