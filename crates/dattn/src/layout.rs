//! Sequence partitions across ranks and the causal workload-balance
//! schemes of paper §3.4.
//!
//! A layout maps global token indices to ranks. The attention kernels take
//! the owned global indices directly, apply masks on them and skip
//! fully-masked tiles — so a layout choice alone determines each rank's
//! causal workload. Zigzag (Eq. 11) and striped (Eq. 13) make that workload
//! identical across ranks; contiguous does not (rank 0 holds the triangle's
//! thin end).

use burst_kernels::{AttnMask, Span};

/// How the global sequence is split across `G` ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Rank `i` owns tokens `[i·N/G, (i+1)·N/G)`.
    Contiguous,
    /// The sequence is cut into `2G` chunks; rank `i` owns chunks `i` and
    /// `2G−1−i` (Eq. 11) — one early chunk, one late chunk.
    Zigzag,
    /// Rank `i` owns tokens `≡ i (mod G)` (Eq. 13).
    Striped,
}

impl Layout {
    /// The tokens `rank` owns below `max_token` (all of them for `None`),
    /// as arithmetic progressions in local storage order: one run on the
    /// contiguous layout, the early then the late chunk on zigzag, one
    /// stride-`G` progression on striped. Spans the cut empties stay, with
    /// length 0.
    #[track_caller]
    pub fn spans(&self, n: usize, g: usize, rank: usize, max_token: Option<usize>) -> Vec<Span> {
        assert!(g > 0 && rank < g, "layout: rank {rank} of {g}");
        assert_eq!(n % g, 0, "layout: sequence {n} not divisible by {g} ranks");
        let p = n / g;
        let spans = match self {
            Layout::Contiguous => vec![Span::range(rank * p, (rank + 1) * p)],
            Layout::Zigzag => {
                assert_eq!(
                    n % (2 * g),
                    0,
                    "zigzag: sequence {n} must divide into 2G = {} chunks",
                    2 * g
                );
                let half = p / 2;
                let back = 2 * g - 1 - rank;
                vec![
                    Span::range(rank * half, (rank + 1) * half),
                    Span::range(back * half, (back + 1) * half),
                ]
            }
            Layout::Striped => vec![Span {
                start: rank,
                stride: g,
                len: p,
            }],
        };
        match max_token {
            Some(cut) => spans.into_iter().map(|s| s.cut(cut)).collect(),
            None => spans,
        }
    }

    /// Whether every rank's tokens below `cut` fill whole `block`-row tiles
    /// of its storage: each span the cut leaves nonempty
    /// ([`Layout::spans`]) starts at a storage offset that is a multiple of
    /// `block` and keeps a multiple of `block` tokens. A flash pass over the
    /// tokens below `cut` then runs the forward's own key tiles, with the
    /// same keys in the same SIMD lanes, and every tile only the whole pass
    /// runs is masked for those queries under a causal mask: both passes
    /// give them the same bits. Otherwise a cut tile sums its rows in
    /// another association (a row's last `len % 8` keys land in lane 0), and
    /// the bits may differ.
    pub fn cut_on_tiles(&self, n: usize, g: usize, cut: usize, block: usize) -> bool {
        (0..g).all(|rank| {
            let mut offset = 0;
            let whole = self.spans(n, g, rank, None);
            whole
                .iter()
                .zip(self.spans(n, g, rank, Some(cut)))
                .all(|(span, kept)| {
                    let on_tiles = kept.len == 0 || (offset % block == 0 && kept.len % block == 0);
                    offset += span.len;
                    on_tiles
                })
        })
    }

    /// Global indices owned by `rank`, in the local storage order.
    #[track_caller]
    pub fn indices(&self, n: usize, g: usize, rank: usize) -> Vec<usize> {
        self.spans(n, g, rank, None)
            .into_iter()
            .flat_map(Span::iter)
            .collect()
    }

    /// Scatter a global matrix into the shard owned by `rank`.
    pub fn shard_of(&self, global: &burst_tensor::Mat, g: usize, rank: usize) -> burst_tensor::Mat {
        let idx = self.indices(global.rows(), g, rank);
        global.gather_rows(&idx)
    }

    /// Reassemble per-rank shards into the global row order.
    #[track_caller]
    pub fn unshard(&self, shards: &[burst_tensor::Mat], n: usize) -> burst_tensor::Mat {
        let g = shards.len();
        assert!(g > 0, "unshard: no shards");
        let cols = shards[0].cols();
        let mut out = burst_tensor::Mat::zeros(n, cols);
        for (rank, shard) in shards.iter().enumerate() {
            let idx = self.indices(n, g, rank);
            assert_eq!(idx.len(), shard.rows(), "unshard: shard size mismatch");
            for (local, &global) in idx.iter().enumerate() {
                out.row_mut(global).copy_from_slice(shard.row(local));
            }
        }
        out
    }

    /// The causal workload (allowed query–key pairs against the *whole*
    /// sequence) of `rank` under this layout — the quantity the balance
    /// schemes equalise.
    pub fn rank_workload(&self, mask: &AttnMask, n: usize, g: usize, rank: usize) -> u128 {
        mask.pairs_between(&self.spans(n, g, rank, None), &[Span::range(0, n)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use burst_tensor::Mat;

    #[test]
    fn cut_on_tiles_checks_every_span_left_by_the_cut() {
        // Zigzag on 4 ranks of 256 tokens: 32-token chunks. The causal
        // midpoint keeps one whole chunk per rank; a cut inside a chunk, a
        // smaller chunk or a larger tile does not fill whole tiles.
        assert!(Layout::Zigzag.cut_on_tiles(256, 4, 128, 32));
        assert!(Layout::Zigzag.cut_on_tiles(256, 4, 192, 32));
        assert!(!Layout::Zigzag.cut_on_tiles(256, 4, 144, 32));
        assert!(!Layout::Zigzag.cut_on_tiles(32, 4, 16, 32));
        assert!(!Layout::Zigzag.cut_on_tiles(256, 4, 128, 64));
        // A cut that keeps nothing runs no tile.
        assert!(Layout::Zigzag.cut_on_tiles(32, 4, 0, 32));
        // Contiguous: ranks wholly above or below the cut always qualify;
        // the one it splits needs a tile-aligned remainder.
        assert!(Layout::Contiguous.cut_on_tiles(256, 4, 96, 32));
        assert!(!Layout::Contiguous.cut_on_tiles(256, 4, 80, 32));
        // Striped: one progression per rank, cut to `⌈cut / G⌉`-ish tokens.
        assert!(Layout::Striped.cut_on_tiles(256, 2, 128, 32));
        assert!(!Layout::Striped.cut_on_tiles(256, 2, 96, 32));
    }

    fn check_partition(layout: Layout, n: usize, g: usize) {
        let mut seen = vec![false; n];
        for rank in 0..g {
            let idx = layout.indices(n, g, rank);
            assert_eq!(idx.len(), n / g, "{layout:?}: rank {rank} size");
            for &i in &idx {
                assert!(!seen[i], "{layout:?}: token {i} owned twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "{layout:?}: tokens unowned");
    }

    #[test]
    fn all_layouts_partition_the_sequence() {
        for layout in [Layout::Contiguous, Layout::Zigzag, Layout::Striped] {
            check_partition(layout, 32, 4);
            check_partition(layout, 48, 8);
            check_partition(layout, 16, 1);
        }
    }

    #[test]
    fn zigzag_matches_equation_11() {
        // N = 16, G = 4 → 8 chunks of 2; rank 1 owns chunks 1 and 6.
        let idx = Layout::Zigzag.indices(16, 4, 1);
        assert_eq!(idx, vec![2, 3, 12, 13]);
        // Rank 0 gets the first and last chunks.
        let idx0 = Layout::Zigzag.indices(16, 4, 0);
        assert_eq!(idx0, vec![0, 1, 14, 15]);
    }

    #[test]
    fn striped_matches_equation_13() {
        let idx = Layout::Striped.indices(12, 4, 2);
        assert_eq!(idx, vec![2, 6, 10]);
    }

    #[test]
    fn zigzag_and_striped_balance_causal_workload() {
        let n = 64;
        let g = 8;
        let mask = AttnMask::Causal;
        for layout in [Layout::Zigzag, Layout::Striped] {
            let loads: Vec<u128> = (0..g)
                .map(|r| layout.rank_workload(&mask, n, g, r))
                .collect();
            let max = *loads.iter().max().unwrap();
            let min = *loads.iter().min().unwrap();
            // Zigzag is exactly balanced; striped is balanced up to the
            // (G−1)·N/G diagonal remainder (Eq. 14's Q'/K' trick), which is
            // O(N) against an O(N²/G) workload.
            assert!(max - min <= n as u128, "{layout:?}: imbalance {loads:?}");
        }
        // Contiguous is badly imbalanced: last rank ~ (2G−1)× the first.
        let loads: Vec<u128> = (0..g)
            .map(|r| Layout::Contiguous.rank_workload(&mask, n, g, r))
            .collect();
        assert!(loads[g - 1] > 10 * loads[0], "contiguous loads {loads:?}");
    }

    #[test]
    fn striped_balances_block_sparse_workload() {
        // Block size a multiple of G (the paper's stated requirement).
        let n = 64;
        let g = 4;
        let mask = AttnMask::BlockSparse(burst_kernels::BlockSparseMask::sliding_window_blocks(
            16, 4, 2,
        ));
        let loads: Vec<u128> = (0..g)
            .map(|r| Layout::Striped.rank_workload(&mask, n, g, r))
            .collect();
        assert!(
            loads.iter().all(|&l| l == loads[0]),
            "striped block-sparse loads must be exactly equal: {loads:?}"
        );
    }

    #[test]
    fn shard_unshard_roundtrip() {
        let global = Mat::from_fn(24, 3, |r, c| (r * 3 + c) as f32);
        for layout in [Layout::Contiguous, Layout::Zigzag, Layout::Striped] {
            let shards: Vec<Mat> = (0..4).map(|r| layout.shard_of(&global, 4, r)).collect();
            let back = layout.unshard(&shards, 24);
            assert_eq!(back, global, "{layout:?}");
        }
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn rejects_indivisible_sequence() {
        let _ = Layout::Contiguous.indices(10, 4, 0);
    }
}
