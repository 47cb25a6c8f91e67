//! Gradient-checkpointing strategies over a stack of Transformer blocks
//! (paper §3.2, Fig. 6–7).
//!
//! The forward decides what to *store* per block; the backward rebuilds
//! whatever is missing by recomputation. Only memory and recompute differ:
//! at an f32 stash `Full` and `SelectivePlusPlus` train the bits of `None`,
//! and so does `SeqSelective` where its front fills whole kernel tiles (a
//! cut tile's recompute may differ in the last bit; asserted in the crate
//! tests):
//!
//! | strategy          | stored per block          | attention recompute |
//! |--------------------|---------------------------|---------------------|
//! | `None`             | everything                | none                |
//! | `Full`             | block input               | full                |
//! | `SelectivePlusPlus`| block input + `(O, Lse)`  | none                |
//! | `SeqSelective{ρ}`  | block input + tail `(O, Lse)` | front segment (≈ ρ² of full for causal) |
//!
//! **The last block under `SeqSelective`** keeps its whole `(O, Lse)`, as
//! `SelectivePlusPlus` does, wherever recomputing its front would rebuild the
//! forward's own bits: its backward follows its forward with only the LM
//! head in between, so the recompute would be a ring pass on the critical
//! path that changes nothing. That holds at an f32 stash when no front
//! query may attend a later key and the front fills whole kernel tiles on
//! every rank ([`AttnExec::recompute_rebuilds_forward`]), and always for
//! the head-parallel backends, which rerun their whole forward. A bf16
//! stash rounds the recompute's input, and a cut tile sums its rows in
//! another association, so there the last block recomputes like the others
//! and the rule never changes a bit.
//!
//! **The cached `O` is its own stash entry.** Every attention backward
//! reads `O` only to form `D = rowsum(∇O ∘ O)` (or to send it to the head
//! shards), so it closes that entry once `D` exists for every head
//! ([`burst_comm::Communicator::mem_stash_close_o`]); the block input and
//! `Lse` stay billed until the block's backward ends.

use crate::attention::AttnExec;
use crate::block::{BlockSaved, TransformerBlock};
use burst_comm::SpanKind;
use burst_kernels::{AttnMask, Span};
use burst_tensor::{Bf16Mat, Mat};

/// Precision of stashed activations (block inputs and cached attention
/// outputs). Softmax statistics (`Lse`) always stay f32 — they anchor the
/// online merges and are `O(m)` against the `O(m·d)` matrices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ActPrecision {
    /// Full-width stashes: recompute starts from exact inputs.
    #[default]
    F32,
    /// Genuine 2-byte stashes ([`Bf16Mat`]): halves stored activation
    /// bytes; recompute starts from bf16-rounded inputs (the paper's
    /// training precision).
    Bf16,
}

/// One stashed activation matrix, stored at the configured precision.
#[derive(Debug, Clone)]
pub enum StoredMat {
    F32(Mat),
    Bf16(Bf16Mat),
}

impl StoredMat {
    pub fn store(m: Mat, precision: ActPrecision) -> Self {
        match precision {
            ActPrecision::F32 => StoredMat::F32(m),
            ActPrecision::Bf16 => StoredMat::Bf16(Bf16Mat::from_mat(&m)),
        }
    }

    /// Materialise the full-width matrix (decodes exactly for bf16).
    pub fn load(&self) -> Mat {
        match self {
            StoredMat::F32(m) => m.clone(),
            StoredMat::Bf16(h) => h.to_mat(),
        }
    }

    /// True storage footprint: 4 bytes per element for f32, 2 for bf16.
    pub fn nbytes(&self) -> usize {
        match self {
            StoredMat::F32(m) => m.nbytes(),
            StoredMat::Bf16(h) => h.nbytes(),
        }
    }
}

/// Cached attention outputs a strategy chose to keep.
#[derive(Debug, Clone)]
pub enum AttnCache {
    /// Per-head `(O, Lse)` for all local rows (selective checkpointing++).
    Full {
        o: Vec<StoredMat>,
        lse: Vec<Vec<f32>>,
    },
    /// Per-head `(O, Lse)` for local rows with global index `>= cutoff`
    /// only (sequence-level selective checkpointing).
    Tail {
        o_tail: Vec<StoredMat>,
        lse_tail: Vec<Vec<f32>>,
        cutoff: usize,
    },
}

impl AttnCache {
    pub fn nbytes(&self) -> usize {
        let lse = match self {
            AttnCache::Full { lse, .. } => lse,
            AttnCache::Tail { lse_tail, .. } => lse_tail,
        };
        self.o_nbytes() + lse.iter().map(|l| l.len() * 4).sum::<usize>()
    }

    /// Bytes of the cached `O` alone, the stash entry a backward closes
    /// once `D` exists.
    fn o_nbytes(&self) -> usize {
        let o = match self {
            AttnCache::Full { o, .. } => o,
            AttnCache::Tail { o_tail, .. } => o_tail,
        };
        o.iter().map(|m| m.nbytes()).sum()
    }
}

/// The checkpointing strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// Store all activations (no recomputation).
    None,
    /// Classic gradient checkpointing: store block inputs only.
    Full,
    /// DISTFLASHATTN / LoongTrain selective checkpointing++: additionally
    /// store each attention's outputs so attention is never recomputed.
    SelectivePlusPlus,
    /// The paper's sequence-level selective checkpointing: store the tail
    /// `(1−ρ)` fraction of the attention outputs, recompute the front `ρ`.
    SeqSelective { rho: f32 },
}

/// What the forward kept for one block.
pub enum Stored {
    Everything(Box<BlockSaved>),
    InputOnly { x: StoredMat },
    WithCache { x: StoredMat, cache: AttnCache },
}

impl Stored {
    pub fn nbytes(&self) -> usize {
        match self {
            Stored::Everything(s) => s.nbytes(),
            Stored::InputOnly { x } => x.nbytes(),
            Stored::WithCache { x, cache } => x.nbytes() + cache.nbytes(),
        }
    }

    /// Bytes of a cached attention output `O` (0 without a cache).
    fn o_nbytes(&self) -> usize {
        match self {
            Stored::WithCache { cache, .. } => cache.o_nbytes(),
            _ => 0,
        }
    }
}

/// Forward through all blocks, storing per `strategy` at the stash
/// `precision`: under [`ActPrecision::Bf16`] every kept block input and
/// cached attention output occupies 2 bytes per element. Under
/// `SeqSelective` the last block keeps its whole `(O, Lse)` where a
/// recompute would rebuild the forward's bits (see the module docs). Each
/// block's stash is billed to the executor's ledger, its cached `O` as an
/// entry of its own ([`AttnExec::stash_push`]), and released by
/// [`backward_blocks`].
pub fn forward_blocks_prec<E: AttnExec>(
    blocks: &[TransformerBlock],
    x: &Mat,
    exec: &mut E,
    strategy: Strategy,
    seq_len: usize,
    precision: ActPrecision,
) -> (Mat, Vec<Stored>) {
    let mut cur = x.clone();
    let mut stored = Vec::with_capacity(blocks.len());
    for (l, block) in blocks.iter().enumerate() {
        exec.span_begin(SpanKind::Layer, "layer_fwd");
        let input = cur.clone();
        let (y, saved) = block.forward(&cur, exec);
        let strategy = match strategy {
            Strategy::SeqSelective { rho }
                if l + 1 == blocks.len()
                    && precision == ActPrecision::F32
                    && exec.recompute_rebuilds_forward(cutoff_for_masked(
                        rho,
                        seq_len,
                        exec.mask(),
                    )) =>
            {
                Strategy::SelectivePlusPlus
            }
            s => s,
        };
        let keep = match strategy {
            Strategy::None => Stored::Everything(Box::new(saved)),
            Strategy::Full => Stored::InputOnly {
                x: StoredMat::store(input, precision),
            },
            Strategy::SelectivePlusPlus => Stored::WithCache {
                x: StoredMat::store(input, precision),
                cache: AttnCache::Full {
                    o: saved
                        .mha
                        .o_heads
                        .iter()
                        .map(|m| StoredMat::store(m.clone(), precision))
                        .collect(),
                    lse: saved.mha.lse.clone(),
                },
            },
            Strategy::SeqSelective { rho } => {
                let cutoff = cutoff_for_masked(rho, seq_len, exec.mask());
                let idx = exec.local_indices();
                let tail_rows: Vec<usize> = idx
                    .iter()
                    .enumerate()
                    .filter(|(_, &g)| g >= cutoff)
                    .map(|(r, _)| r)
                    .collect();
                let o_tail: Vec<StoredMat> = saved
                    .mha
                    .o_heads
                    .iter()
                    .map(|m| StoredMat::store(m.gather_rows(&tail_rows), precision))
                    .collect();
                let lse_tail: Vec<Vec<f32>> = saved
                    .mha
                    .lse
                    .iter()
                    .map(|l| tail_rows.iter().map(|&r| l[r]).collect())
                    .collect();
                Stored::WithCache {
                    x: StoredMat::store(input, precision),
                    cache: AttnCache::Tail {
                        o_tail,
                        lse_tail,
                        cutoff,
                    },
                }
            }
        };
        let o_bytes = keep.o_nbytes();
        exec.stash_push(keep.nbytes() - o_bytes, o_bytes);
        stored.push(keep);
        cur = y;
        exec.span_end();
    }
    (cur, stored)
}

/// Round the split point to the sequence position `ρ·N`.
pub fn cutoff_for(rho: f32, seq_len: usize) -> usize {
    ((rho as f64 * seq_len as f64).round() as usize).min(seq_len)
}

/// Mask-aware split point for sequence-level selective checkpointing.
///
/// The paper's rule trades `ρ²` of the attention recompute for `(1−ρ)` of
/// the output stash, which is exact for causal attention: the front `ρ·N`
/// rows hold `ρ²` of the causal score pairs. A sparse mask keeps that
/// *absolute* recompute budget but makes each recomputed row cheaper (its
/// cost is its allowed-pair count, not its position), so the same budget
/// buys a longer recomputed front — segments the mask makes cheap are
/// recomputed rather than stashed. The cutoff is the largest prefix whose
/// masked recompute work stays within the causal-calibrated budget:
/// `allowed_pairs(c) ≤ ρ² · N(N+1)/2`, where `allowed_pairs(c)` counts the
/// allowed `(q, k)` pairs with query index `< c` — the recompute work of
/// the front segment, in score-matrix elements, counted in closed form
/// ([`AttnMask::pairs_between`]). `Full` and `Causal` reduce to
/// [`cutoff_for`] (the paper's position rule), keeping every existing
/// schedule bit-identical.
pub fn cutoff_for_masked(rho: f32, seq_len: usize, mask: &AttnMask) -> usize {
    match mask {
        AttnMask::Full | AttnMask::Causal => cutoff_for(rho, seq_len),
        _ => {
            let causal_total = seq_len as f64 * (seq_len + 1) as f64 / 2.0;
            let budget = (rho as f64) * (rho as f64) * causal_total;
            let keys = [Span::range(0, seq_len)];
            // The prefix count is monotone in the prefix length: binary
            // search the largest prefix within the budget.
            let (mut lo, mut hi) = (0usize, seq_len);
            while lo < hi {
                let mid = (lo + hi).div_ceil(2);
                if mask.pairs_between(&[Span::range(0, mid)], &keys) as f64 <= budget {
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            lo
        }
    }
}

/// Backward through all blocks in reverse, recomputing per the stored kind.
/// Releases each block's stash entries as they are consumed (the cached `O`
/// inside the attention backward, once `D` exists) and notes the transient
/// recompute working set.
pub fn backward_blocks<E: AttnExec>(
    blocks: &mut [TransformerBlock],
    stored: Vec<Stored>,
    grad_y: &Mat,
    exec: &mut E,
) -> Mat {
    assert_eq!(
        blocks.len(),
        stored.len(),
        "backward_blocks: layer mismatch"
    );
    let mut grad = grad_y.clone();
    for (block, keep) in blocks.iter_mut().zip(stored).rev() {
        exec.span_begin(SpanKind::Layer, "layer_bwd");
        let kept_bytes = keep.nbytes();
        // Rebuilding discarded activations is recomputation: tag the time
        // so the trace splits it from first-run compute.
        let saved = match keep {
            Stored::Everything(saved) => *saved,
            Stored::InputOnly { x } => {
                exec.recompute_scope(true);
                let s = block.forward(&x.load(), exec).1;
                exec.recompute_scope(false);
                s
            }
            Stored::WithCache { x, cache } => {
                exec.recompute_scope(true);
                let s = block.forward_with_cache(&x.load(), exec, &cache).1;
                exec.recompute_scope(false);
                s
            }
        };
        // The rebuilt full context is transient: live only during this
        // block's backward.
        let transient = saved.nbytes().saturating_sub(kept_bytes);
        exec.note_workspace(transient);
        grad = block.backward(&saved, &grad, exec);
        exec.stash_pop();
        exec.span_end();
    }
    grad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::LocalExec;
    use burst_kernels::AttnMask;
    use burst_tensor::randn_mat;
    use burst_tensor::testutil::assert_allclose;

    fn blocks(d: usize, heads: usize, dff: usize, layers: usize) -> Vec<TransformerBlock> {
        (0..layers)
            .map(|l| TransformerBlock::new(d, heads, dff, 500 + 100 * l as u64))
            .collect()
    }

    fn run(strategy: Strategy) -> (Mat, Vec<Mat>, usize) {
        run_prec(strategy, ActPrecision::F32)
    }

    fn run_prec(strategy: Strategy, precision: ActPrecision) -> (Mat, Vec<Mat>, usize) {
        let (n, d, heads, dff, layers) = (16usize, 4usize, 2usize, 8usize, 3usize);
        let mut bs = blocks(d, heads, dff, layers);
        let x = randn_mat(n, d, 0.8, 600);
        let gy = randn_mat(n, d, 1.0, 601);
        let mut exec = LocalExec::new(AttnMask::Causal, n);
        let (y, stored) = forward_blocks_prec(&bs, &x, &mut exec, strategy, n, precision);
        let stored_bytes = stored.iter().map(Stored::nbytes).sum();
        let gx = backward_blocks(&mut bs, stored, &gy, &mut exec);
        let grads: Vec<Mat> = bs
            .iter()
            .flat_map(|b| {
                vec![
                    b.attn.wq.weight.grad.clone(),
                    b.ffn.w_down.weight.grad.clone(),
                    b.norm1.weight.grad.clone(),
                ]
            })
            .collect();
        let mut all = vec![y, gx];
        all.extend(grads);
        let out = all.remove(0);
        (out, all, stored_bytes)
    }

    #[test]
    fn all_strategies_produce_identical_gradients() {
        let (y_ref, grads_ref, _) = run(Strategy::None);
        for strategy in [
            Strategy::Full,
            Strategy::SelectivePlusPlus,
            Strategy::SeqSelective { rho: 0.5 },
            Strategy::SeqSelective { rho: 0.25 },
        ] {
            let (y, grads, _) = run(strategy);
            assert_allclose(&y, &y_ref, 1e-5, &format!("{strategy:?} output"));
            for (g, gr) in grads.iter().zip(&grads_ref) {
                assert_allclose(g, gr, 1e-5, &format!("{strategy:?} grads"));
            }
        }
    }

    #[test]
    fn cutoff_rounds_correctly() {
        assert_eq!(cutoff_for(0.5, 16), 8);
        assert_eq!(cutoff_for(0.0, 16), 0);
        assert_eq!(cutoff_for(1.0, 16), 16);
        assert_eq!(cutoff_for(0.26, 100), 26);
    }

    #[test]
    fn masked_cutoff_reduces_to_position_rule_for_dense_masks() {
        for n in [16usize, 100] {
            for rho in [0.0f32, 0.25, 0.5, 1.0] {
                assert_eq!(
                    cutoff_for_masked(rho, n, &AttnMask::Causal),
                    cutoff_for(rho, n)
                );
                assert_eq!(
                    cutoff_for_masked(rho, n, &AttnMask::Full),
                    cutoff_for(rho, n)
                );
            }
        }
    }

    #[test]
    fn masked_cutoff_recomputes_more_under_a_window() {
        // Window rows cost O(w) to recompute instead of O(i): the same
        // causal-calibrated ρ² budget buys a longer recomputed front, so
        // the cutoff moves right and the stash shrinks.
        let n = 256;
        let mask = AttnMask::SlidingWindow { window: 64 };
        for rho in [0.5f32, 0.75] {
            let masked = cutoff_for_masked(rho, n, &mask);
            let causal = cutoff_for(rho, n);
            assert!(
                masked > causal,
                "rho {rho}: window cutoff {masked} must exceed causal {causal}"
            );
        }
        // A narrow enough window makes the whole sequence cheaper than the
        // budget: everything is recomputed, nothing stashed.
        assert_eq!(
            cutoff_for_masked(0.25, n, &AttnMask::SlidingWindow { window: 8 }),
            n
        );
        // Endpoints are preserved: no budget recomputes nothing, full
        // budget covers the (cheaper-than-causal) whole sequence.
        assert_eq!(cutoff_for_masked(0.0, n, &mask), 0);
        assert_eq!(cutoff_for_masked(1.0, n, &mask), n);
        // The budget rule is exact: the chosen prefix fits, the next row
        // does not.
        let rho = 0.5f32;
        let c = cutoff_for_masked(rho, n, &mask);
        assert!(c < n, "boundary check needs a mid-sequence cutoff");
        let budget = (rho as f64).powi(2) * (n as f64) * (n as f64 + 1.0) / 2.0;
        assert!(scanned_prefix_pairs(&mask, c, n) as f64 <= budget);
        assert!(scanned_prefix_pairs(&mask, c + 1, n) as f64 > budget);
    }

    /// Allowed `(q, k)` pairs with query index `< c`, scanned token by
    /// token: the oracle for the closed-form prefix count.
    fn scanned_prefix_pairs(mask: &AttnMask, c: usize, seq_len: usize) -> usize {
        (0..c)
            .map(|i| (0..seq_len).filter(|&j| mask.allowed(i, j)).count())
            .sum()
    }

    #[test]
    fn masked_seq_selective_keeps_gradients_identical() {
        // The mask-aware cutoff only moves the stash/recompute split; the
        // rebuilt state must stay bit-compatible with the no-checkpoint
        // reference under the same mask.
        let (n, d, heads, dff, layers) = (16usize, 4usize, 2usize, 8usize, 2usize);
        let mask = AttnMask::SlidingWindow { window: 5 };
        let run = |strategy: Strategy| {
            let mut bs = blocks(d, heads, dff, layers);
            let x = randn_mat(n, d, 0.8, 610);
            let gy = randn_mat(n, d, 1.0, 611);
            let mut exec = LocalExec::new(mask.clone(), n);
            let (y, stored) =
                forward_blocks_prec(&bs, &x, &mut exec, strategy, n, ActPrecision::F32);
            let stash: usize = stored.iter().map(Stored::nbytes).sum();
            let gx = backward_blocks(&mut bs, stored, &gy, &mut exec);
            let gw = bs[0].attn.wq.weight.grad.clone();
            (y, gx, gw, stash)
        };
        let (y_ref, gx_ref, gw_ref, _) = run(Strategy::None);
        let (y, gx, gw, stash_seq) = run(Strategy::SeqSelective { rho: 0.5 });
        assert_allclose(&y, &y_ref, 1e-5, "masked seq-selective output");
        assert_allclose(&gx, &gx_ref, 1e-5, "masked seq-selective ∇x");
        assert_allclose(&gw, &gw_ref, 1e-5, "masked seq-selective ∇W");
        // And the window stash is strictly below the full-cache stash.
        let (_, _, _, stash_pp) = run(Strategy::SelectivePlusPlus);
        assert!(
            stash_seq < stash_pp,
            "window stash {stash_seq} < selective++ {stash_pp}"
        );
    }

    #[test]
    fn seq_selective_with_rho_zero_equals_selective_pp() {
        // ρ = 0: nothing recomputed, everything cached — memory equals ++.
        let (_, _, m_pp) = run(Strategy::SelectivePlusPlus);
        let (_, _, m_seq0) = run(Strategy::SeqSelective { rho: 0.0 });
        assert_eq!(m_pp, m_seq0);
        // ρ = 1: everything recomputed — memory equals full checkpointing.
        let (_, _, m_full) = run(Strategy::Full);
        let (_, _, m_seq1) = run(Strategy::SeqSelective { rho: 1.0 });
        assert_eq!(m_full, m_seq1);
    }

    #[test]
    fn bf16_stash_halves_stored_peak() {
        // Strategy::Full stores only block-input matrices, so the bf16
        // stash is exactly half the f32 stash.
        let (_, _, f32_peak) = run_prec(Strategy::Full, ActPrecision::F32);
        let (_, _, bf16_peak) = run_prec(Strategy::Full, ActPrecision::Bf16);
        assert_eq!(bf16_peak * 2, f32_peak, "bf16 block-input stash");
        // Selective++ adds f32 Lse vectors to the stash, so the ratio sits
        // strictly between ½ (all-matrix) and 1.
        let (_, _, pp32) = run_prec(Strategy::SelectivePlusPlus, ActPrecision::F32);
        let (_, _, pp16) = run_prec(Strategy::SelectivePlusPlus, ActPrecision::Bf16);
        assert!(
            pp16 * 2 > pp32 && pp16 < pp32,
            "selective++ bf16 stash: {pp16} vs f32 {pp32}"
        );
    }

    #[test]
    fn bf16_stash_gradients_stay_close_to_f32() {
        // Recompute starts from bf16-rounded inputs. The ~0.4% input
        // rounding amplifies through three blocks of recompute, so the
        // bound is loose — what matters is that gradients stay the same
        // order, not bitwise (training tolerance, not kernel tolerance).
        let (y32, g32, _) = run_prec(Strategy::Full, ActPrecision::F32);
        let (y16, g16, _) = run_prec(Strategy::Full, ActPrecision::Bf16);
        assert_allclose(&y16, &y32, 1e-5, "bf16 stash forward output");
        assert_ne!(
            g16[0].as_slice(),
            g32[0].as_slice(),
            "bf16 rounding must actually perturb the recompute"
        );
        for (a, b) in g16.iter().zip(&g32) {
            assert_allclose(a, b, 1e-1, "bf16 stash grads");
        }
    }
}
