//! Blocked (FlashAttention-style) attention forward and backward.
//!
//! The forward tiles over keys and folds each tile's *unnormalised* softmax
//! into a running `(O, Lse)` accumulator, so the `N/G × N/G` score matrix of
//! a ring step is never stored beyond one tile and each score element costs
//! a single `exp`. The backward is exposed at two levels:
//!
//! * [`attn_tile_backward`] — the tile kernel of Algorithms 1–2: given the
//!   *global* per-row `Lse` and `D = rowsum(∇O ∘ O)`, produce this tile's
//!   contributions `(∇Q, ∇K, ∇V)`. Ring algorithms call it once per ring
//!   step with remote partitions.
//! * [`flash_backward`] — the single-device composition: computes `D`
//!   locally and loops over local key tiles.
//!
//! Both directions also come in `_acc` form ([`flash_forward_acc`],
//! [`attn_tile_backward_acc`]) which accumulate into caller-owned buffers
//! through a reusable [`Scratch`] workspace; the ring loops call these every
//! round so steady-state rounds perform zero heap allocations.
//!
//! Large forward calls parallelise over query row-blocks with a fixed
//! block→task mapping, so results are bit-identical for any thread count:
//! every output row sees the same tile contributions, computed by the same
//! code, folded in the same order. The backward runs one serial sweep: it
//! computes `P` and `∇S` once per tile for all three gradients, where
//! disjoint-row parallel passes over query blocks and over key blocks
//! would each recompute them.
//!
//! All kernels take global token indices (`q_idx`, `k_idx`) so the
//! zigzag/striped layouts of §3.4 work unchanged, and they skip
//! fully-masked tiles — the savings measured in Table 3.

use crate::mask::{AttnMask, TileState};
use crate::online::OnlineState;
use burst_tensor::{
    matmul_nt_with, matmul_tn_with, matmul_with, simd, Epilogue, Mat, MatRef, Scratch,
};

/// Default square tile edge. The values never depend on it, but the bits
/// do: the online merge rounds once per key tile, so a different edge folds
/// the same scores in a different order. Every entry point that keeps a
/// ring's partition sums bit-identical to the one-shot kernels runs at this
/// edge.
pub const DEFAULT_BLOCK: usize = 32;

/// Problem volume (`q_rows · k_rows · head_dim`) below which the fork/join
/// overhead of parallel dispatch outweighs the work and the kernels stay
/// serial. Determinism never depends on which path runs.
const PAR_VOLUME: usize = 64 * 64 * 16;

/// Work counters: how much attention math a kernel actually performed.
///
/// `pairs` counts allowed (query, key) pairs — proportional to FLOPs — and
/// is what the simulator converts into virtual compute time, so workload
/// *imbalance* across ranks shows up as idle time exactly as on real GPUs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelWork {
    pub tiles_computed: usize,
    pub tiles_skipped: usize,
    pub pairs: u64,
}

impl KernelWork {
    pub fn merge(&mut self, other: KernelWork) {
        self.tiles_computed += other.tiles_computed;
        self.tiles_skipped += other.tiles_skipped;
        self.pairs += other.pairs;
    }
}

/// Output of the blocked forward: aggregated output, per-row log-sum-exp,
/// and work counters.
#[derive(Debug, Clone)]
pub struct FlashOut {
    pub o: Mat,
    pub lse: Vec<f32>,
    pub work: KernelWork,
}

/// Write `-inf` over every pair of a `q_idx × k_idx` score tile (row-major,
/// `k_idx.len()` columns) that `mask` disallows, and return how many pairs
/// it allows: one scan of a partial tile serves the masking and the work
/// counter.
fn mask_tile(s: &mut [f32], mask: &AttnMask, q_idx: &[usize], k_idx: &[usize]) -> u64 {
    let mut allowed = 0;
    for (row, &gi) in s.chunks_exact_mut(k_idx.len()).zip(q_idx) {
        for (x, &gj) in row.iter_mut().zip(k_idx) {
            if mask.allowed(gi, gj) {
                allowed += 1;
            } else {
                *x = f32::NEG_INFINITY;
            }
        }
    }
    allowed
}

/// Borrowed problem description threaded through the tile loops.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    q: MatRef<'a>,
    k: MatRef<'a>,
    v: MatRef<'a>,
    scale: f32,
    mask: &'a AttnMask,
    q_idx: &'a [usize],
    k_idx: &'a [usize],
    block: usize,
}

/// [`Ctx`] plus the backward-only streams.
#[derive(Clone, Copy)]
struct BwdCtx<'a> {
    fwd: Ctx<'a>,
    grad_o: MatRef<'a>,
    lse: &'a [f32],
    d_vec: &'a [f32],
}

/// `[start, end)` row ranges covering `0..n` in steps of `block`.
pub(crate) fn row_blocks(n: usize, block: usize) -> Vec<(usize, usize)> {
    let mut blocks = Vec::with_capacity(n.div_ceil(block.max(1)));
    let mut r = 0;
    while r < n {
        let e = (r + block).min(n);
        blocks.push((r, e));
        r = e;
    }
    blocks
}

/// `scale · Q_b K_tᵀ` for query rows `[r0, r1)` against key rows
/// `[c0, c1)` into `score`, the scale applied as the product leaves the
/// registers and `-inf` written over masked pairs. Returns the tile's
/// allowed pairs.
fn score_tile(
    ctx: &Ctx<'_>,
    (r0, r1): (usize, usize),
    (c0, c1): (usize, usize),
    tstate: TileState,
    score: &mut Mat,
) -> u64 {
    score.reshape_in_place(r1 - r0, c1 - c0);
    let (qb, kt) = (ctx.q.rows_view(r0, r1), ctx.k.rows_view(c0, c1));
    matmul_nt_with(qb, kt, score.as_mut_slice(), Epilogue::Scale(ctx.scale));
    if tstate == TileState::Partial {
        mask_tile(
            score.as_mut_slice(),
            ctx.mask,
            &ctx.q_idx[r0..r1],
            &ctx.k_idx[c0..c1],
        )
    } else {
        score.len() as u64
    }
}

/// Forward for query rows `[r0, r1)`: tile over all keys and merge each
/// tile into `(o_rows, lse_rows)` online.
///
/// Each tile costs one `exp` per score element: the tile keeps the
/// unnormalised `P̃ = exp(s − rowmax)`, and since
/// `Õ = P̃ · V = exp(s − m) · V`, the normalised-tile merge weight
/// `exp(l_t − l_new) / Σp̃` collapses to `exp(m − l_new)` — no second
/// normalisation pass either. The weights are known before `P̃ · V` runs,
/// so the product merges into `O` as it leaves the registers.
fn forward_rows(
    ctx: &Ctx<'_>,
    r0: usize,
    r1: usize,
    o_rows: &mut [f32],
    lse_rows: &mut [f32],
    scratch: &mut Scratch,
) -> KernelWork {
    let qi = &ctx.q_idx[r0..r1];
    let mut work = KernelWork::default();
    let Scratch { score, merge, .. } = scratch;
    let mut c0 = 0;
    while c0 < ctx.k.rows() {
        let c1 = (c0 + ctx.block).min(ctx.k.rows());
        let tstate = ctx.mask.tile_state(qi, &ctx.k_idx[c0..c1]);
        if tstate == TileState::FullyMasked {
            work.tiles_skipped += 1;
            c0 = c1;
            continue;
        }
        work.pairs += score_tile(ctx, (r0, r1), (c0, c1), tstate, score);
        // P̃ = exp(s − rowmax) in place, parking each row's (max, Σp̃) in
        // `merge` ...
        merge.clear();
        for row in score.as_mut_slice().chunks_exact_mut(c1 - c0) {
            let m = simd::row_max(row);
            if m == f32::NEG_INFINITY {
                row.fill(0.0);
                merge.push(None);
            } else {
                merge.push(Some((m, simd::exp_shift_sum_inplace(row, m))));
            }
        }
        // ... then turn them into the merge weights `(wa, wt)`. The per-row
        // `ln`/`exp` are scalar libm calls (they have no bit-exact vector
        // form); with the vector work out of this loop, rows overlap.
        for (w, la) in merge.iter_mut().zip(lse_rows.iter_mut()) {
            let Some((m, sum)) = *w else { continue };
            let lnew = OnlineState::merge_lse(*la, m + sum.ln());
            let wa = if *la == f32::NEG_INFINITY {
                0.0
            } else {
                (*la - lnew).exp()
            };
            *w = Some((wa, (m - lnew).exp()));
            *la = lnew;
        }
        // O = wt · (P̃ · V_tile) + wa · O, row by row.
        matmul_with(
            score.view(),
            ctx.v.rows_view(c0, c1),
            o_rows,
            Epilogue::Merge(merge),
        );
        work.tiles_computed += 1;
        c0 = c1;
    }
    work
}

/// Run `forward_rows` over a list of row blocks, recursively forking at
/// block boundaries when `parallel`. The block list is fixed by the problem
/// shape, every block is processed by identical code against disjoint
/// output rows, so the split never changes results.
fn forward_blocks(
    ctx: &Ctx<'_>,
    blocks: &[(usize, usize)],
    o: &mut [f32],
    lse: &mut [f32],
    parallel: bool,
) -> KernelWork {
    let Some(&(base, _)) = blocks.first() else {
        return KernelWork::default();
    };
    let dv = ctx.v.cols();
    if !parallel || blocks.len() == 1 {
        let mut scratch = Scratch::new();
        let mut work = KernelWork::default();
        for &(r0, r1) in blocks {
            let w = forward_rows(
                ctx,
                r0,
                r1,
                &mut o[(r0 - base) * dv..(r1 - base) * dv],
                &mut lse[r0 - base..r1 - base],
                &mut scratch,
            );
            work.merge(w);
        }
        return work;
    }
    let (lo, hi) = blocks.split_at(blocks.len() / 2);
    let cut = hi[0].0 - base;
    let (o_lo, o_hi) = o.split_at_mut(cut * dv);
    let (l_lo, l_hi) = lse.split_at_mut(cut);
    let (mut wa, wb) = rayon::join(
        || forward_blocks(ctx, lo, o_lo, l_lo, true),
        || forward_blocks(ctx, hi, o_hi, l_hi, true),
    );
    wa.merge(wb);
    wa
}

/// Blocked attention forward with online softmax, default tile size.
pub fn flash_forward(
    q: &Mat,
    k: &Mat,
    v: &Mat,
    scale: f32,
    mask: &AttnMask,
    q_idx: &[usize],
    k_idx: &[usize],
) -> FlashOut {
    flash_forward_with_block(q, k, v, scale, mask, q_idx, k_idx, DEFAULT_BLOCK)
}

/// Blocked attention forward with an explicit tile size.
#[allow(clippy::too_many_arguments)]
#[track_caller]
pub fn flash_forward_with_block(
    q: &Mat,
    k: &Mat,
    v: &Mat,
    scale: f32,
    mask: &AttnMask,
    q_idx: &[usize],
    k_idx: &[usize],
    block: usize,
) -> FlashOut {
    assert!(block > 0, "flash_forward: zero block");
    assert_eq!(q.rows(), q_idx.len(), "flash_forward: q_idx length");
    assert_eq!(k.rows(), k_idx.len(), "flash_forward: k_idx length");
    assert_eq!(k.rows(), v.rows(), "flash_forward: K/V rows");
    assert_eq!(q.cols(), k.cols(), "flash_forward: Q/K dim");
    let (n, dv) = (q.rows(), v.cols());
    let mut o = Mat::zeros(n, dv);
    let mut lse = vec![f32::NEG_INFINITY; n];
    let ctx = Ctx {
        q: q.view(),
        k: k.view(),
        v: v.view(),
        scale,
        mask,
        q_idx,
        k_idx,
        block,
    };
    let blocks = row_blocks(n, block);
    let parallel = blocks.len() > 1
        && n * k.rows() * q.cols() >= PAR_VOLUME
        && rayon::current_num_threads() > 1;
    let work = forward_blocks(&ctx, &blocks, o.as_mut_slice(), &mut lse, parallel);
    FlashOut { o, lse, work }
}

/// Forward one K/V partition *into* a running `(acc_o, acc_lse)` pair.
///
/// This is the ring-round entry point: `acc_o`/`acc_lse` carry the online
/// state across rounds (initialise to zeros / `-inf`), and all temporaries
/// live in `scratch`, so after the first round a ring step allocates
/// nothing. Merging partitions here is bit-identical to passing the
/// concatenated keys to [`flash_forward`] tile by tile.
#[allow(clippy::too_many_arguments)]
#[track_caller]
pub fn flash_forward_acc(
    q: &Mat,
    k: &Mat,
    v: &Mat,
    scale: f32,
    mask: &AttnMask,
    q_idx: &[usize],
    k_idx: &[usize],
    acc_o: &mut Mat,
    acc_lse: &mut [f32],
    scratch: &mut Scratch,
) -> KernelWork {
    assert_eq!(q.rows(), q_idx.len(), "flash_forward_acc: q_idx length");
    assert_eq!(k.rows(), k_idx.len(), "flash_forward_acc: k_idx length");
    assert_eq!(k.rows(), v.rows(), "flash_forward_acc: K/V rows");
    assert_eq!(q.cols(), k.cols(), "flash_forward_acc: Q/K dim");
    assert_eq!(
        acc_o.shape(),
        (q.rows(), v.cols()),
        "flash_forward_acc: acc_o shape"
    );
    assert_eq!(q.rows(), acc_lse.len(), "flash_forward_acc: acc_lse length");
    let ctx = Ctx {
        q: q.view(),
        k: k.view(),
        v: v.view(),
        scale,
        mask,
        q_idx,
        k_idx,
        block: DEFAULT_BLOCK,
    };
    let dv = v.cols();
    let mut work = KernelWork::default();
    let mut r0 = 0;
    while r0 < q.rows() {
        let r1 = (r0 + DEFAULT_BLOCK).min(q.rows());
        let w = forward_rows(
            &ctx,
            r0,
            r1,
            &mut acc_o.as_mut_slice()[r0 * dv..r1 * dv],
            &mut acc_lse[r0..r1],
            scratch,
        );
        work.merge(w);
        r0 = r1;
    }
    work
}

/// One (query block, key tile) step of the backward, fused.
///
/// `P = exp(scale·Q_b K_tᵀ − Lse_b)` is recomputed into `score` from the
/// stored global `Lse`. `∇V += Pᵀ ∇O` lands in `gv`, then the `∇O Vᵀ`
/// product turns `score` into `∇S = P ∘ (∇P − D)` in its epilogue, and
/// `∇Q += scale · ∇S K` and `∇K += scale · ∇Sᵀ Q` land in `gq` and `gk`.
/// `gq` holds query rows `[r0, r1)`, `gk` and `gv` key rows `[c0, c1)`;
/// every product accumulates straight into those rows. Returns the tile's
/// allowed pairs.
fn backward_tile(
    ctx: &BwdCtx<'_>,
    (r0, r1): (usize, usize),
    (c0, c1): (usize, usize),
    tstate: TileState,
    score: &mut Mat,
    gq: &mut [f32],
    (gk, gv): (&mut [f32], &mut [f32]),
) -> u64 {
    let f = &ctx.fwd;
    let pairs = score_tile(f, (r0, r1), (c0, c1), tstate, score);
    score.exp_sub_rowwise_inplace(&ctx.lse[r0..r1]);
    let dob = ctx.grad_o.rows_view(r0, r1);
    matmul_tn_with(score.view(), dob, gv, Epilogue::Axpy(1.0));
    let ds = Epilogue::MulDiff(&ctx.d_vec[r0..r1]);
    matmul_nt_with(dob, f.v.rows_view(c0, c1), score.as_mut_slice(), ds);
    let axpy = Epilogue::Axpy(f.scale);
    matmul_with(score.view(), f.k.rows_view(c0, c1), gq, axpy);
    matmul_tn_with(score.view(), f.q.rows_view(r0, r1), gk, axpy);
    pairs
}

/// Serial single sweep over all (query, key) tiles, accumulating into the
/// raw storage of all three gradients: the one backward schedule, behind
/// both the one-shot and the `_acc` ring entry points.
fn backward_sweep(
    ctx: &BwdCtx<'_>,
    gq: &mut [f32],
    gk: &mut [f32],
    gv: &mut [f32],
    scratch: &mut Scratch,
) -> KernelWork {
    let f = &ctx.fwd;
    let (dq, dk, dv) = (f.q.cols(), f.k.cols(), f.v.cols());
    let mut work = KernelWork::default();
    let score = &mut scratch.score;
    let mut r0 = 0;
    while r0 < f.q.rows() {
        let r1 = (r0 + f.block).min(f.q.rows());
        let qi = &f.q_idx[r0..r1];
        let mut c0 = 0;
        while c0 < f.k.rows() {
            let c1 = (c0 + f.block).min(f.k.rows());
            let tstate = f.mask.tile_state(qi, &f.k_idx[c0..c1]);
            if tstate == TileState::FullyMasked {
                work.tiles_skipped += 1;
                c0 = c1;
                continue;
            }
            work.pairs += backward_tile(
                ctx,
                (r0, r1),
                (c0, c1),
                tstate,
                score,
                &mut gq[r0 * dq..r1 * dq],
                (&mut gk[c0 * dk..c1 * dk], &mut gv[c0 * dv..c1 * dv]),
            );
            work.tiles_computed += 1;
            c0 = c1;
        }
        r0 = r1;
    }
    work
}

/// The tile backward kernel of Algorithms 1–2 (default tile size).
///
/// Inputs are a query block (with its gradient stream `∇O`, global `Lse`
/// and global `D = rowsum(∇O ∘ O)`) and a key/value block. Returns the
/// tile's additive contributions `(∇Q, ∇K, ∇V)` and work counters.
#[allow(clippy::too_many_arguments)]
pub fn attn_tile_backward(
    q: &Mat,
    k: &Mat,
    v: &Mat,
    grad_o: &Mat,
    lse: &[f32],
    d_vec: &[f32],
    scale: f32,
    mask: &AttnMask,
    q_idx: &[usize],
    k_idx: &[usize],
) -> (Mat, Mat, Mat, KernelWork) {
    attn_tile_backward_with_block(
        q,
        k,
        v,
        grad_o,
        lse,
        d_vec,
        scale,
        mask,
        q_idx,
        k_idx,
        DEFAULT_BLOCK,
    )
}

/// [`attn_tile_backward`] with an explicit tile size: one serial sweep over
/// every (query block, key tile), so the result does not depend on thread
/// count.
#[allow(clippy::too_many_arguments)]
#[track_caller]
pub fn attn_tile_backward_with_block(
    q: &Mat,
    k: &Mat,
    v: &Mat,
    grad_o: &Mat,
    lse: &[f32],
    d_vec: &[f32],
    scale: f32,
    mask: &AttnMask,
    q_idx: &[usize],
    k_idx: &[usize],
    block: usize,
) -> (Mat, Mat, Mat, KernelWork) {
    assert!(block > 0, "attn_tile_backward: zero block");
    assert_eq!(q.rows(), q_idx.len(), "attn_tile_backward: q_idx length");
    assert_eq!(k.rows(), k_idx.len(), "attn_tile_backward: k_idx length");
    assert_eq!(q.rows(), grad_o.rows(), "attn_tile_backward: ∇O rows");
    assert_eq!(q.rows(), lse.len(), "attn_tile_backward: Lse length");
    assert_eq!(q.rows(), d_vec.len(), "attn_tile_backward: D length");
    let mut grad_q = Mat::zeros(q.rows(), q.cols());
    let mut grad_k = Mat::zeros(k.rows(), k.cols());
    let mut grad_v = Mat::zeros(v.rows(), v.cols());
    let ctx = BwdCtx {
        fwd: Ctx {
            q: q.view(),
            k: k.view(),
            v: v.view(),
            scale,
            mask,
            q_idx,
            k_idx,
            block,
        },
        grad_o: grad_o.view(),
        lse,
        d_vec,
    };
    let work = backward_sweep(
        &ctx,
        grad_q.as_mut_slice(),
        grad_k.as_mut_slice(),
        grad_v.as_mut_slice(),
        &mut Scratch::new(),
    );
    (grad_q, grad_k, grad_v, work)
}

/// [`attn_tile_backward`] accumulating `+=` into caller-owned gradients.
///
/// The ring-round entry point: gradients and `scratch` persist across
/// rounds, so steady-state rounds allocate nothing. Runs the serial sweep —
/// accumulation order per destination row matches [`attn_tile_backward`]
/// exactly, so partition sums are bit-identical to the one-shot kernel.
///
/// The gradients are raw row-major rows: `grad_q` holds `q.rows()` rows of
/// `q.cols()` floats and `grad_k`/`grad_v` hold `k.rows()` rows, each
/// possibly a row window of a larger buffer. A ring schedule that receives
/// only some of a shard's rows accumulates straight into the matching rows
/// of the shard's gradient, in the same per-element order as the whole
/// shard.
#[allow(clippy::too_many_arguments)]
#[track_caller]
pub fn attn_tile_backward_acc(
    q: &Mat,
    k: &Mat,
    v: &Mat,
    grad_o: &Mat,
    lse: &[f32],
    d_vec: &[f32],
    scale: f32,
    mask: &AttnMask,
    q_idx: &[usize],
    k_idx: &[usize],
    grad_q: &mut [f32],
    grad_k: &mut [f32],
    grad_v: &mut [f32],
    scratch: &mut Scratch,
) -> KernelWork {
    assert_eq!(
        q.rows(),
        q_idx.len(),
        "attn_tile_backward_acc: q_idx length"
    );
    assert_eq!(
        k.rows(),
        k_idx.len(),
        "attn_tile_backward_acc: k_idx length"
    );
    assert_eq!(q.rows(), grad_o.rows(), "attn_tile_backward_acc: ∇O rows");
    assert_eq!(q.rows(), lse.len(), "attn_tile_backward_acc: Lse length");
    assert_eq!(q.rows(), d_vec.len(), "attn_tile_backward_acc: D length");
    assert_eq!(grad_q.len(), q.len(), "attn_tile_backward_acc: ∇Q rows");
    assert_eq!(grad_k.len(), k.len(), "attn_tile_backward_acc: ∇K rows");
    assert_eq!(grad_v.len(), v.len(), "attn_tile_backward_acc: ∇V rows");
    let ctx = BwdCtx {
        fwd: Ctx {
            q: q.view(),
            k: k.view(),
            v: v.view(),
            scale,
            mask,
            q_idx,
            k_idx,
            block: DEFAULT_BLOCK,
        },
        grad_o: grad_o.view(),
        lse,
        d_vec,
    };
    backward_sweep(&ctx, grad_q, grad_k, grad_v, scratch)
}

/// Single-device blocked backward: computes `D = rowsum(∇O ∘ O)` and runs
/// the tile kernel over the local keys.
#[allow(clippy::too_many_arguments)]
pub fn flash_backward(
    q: &Mat,
    k: &Mat,
    v: &Mat,
    o: &Mat,
    grad_o: &Mat,
    lse: &[f32],
    scale: f32,
    mask: &AttnMask,
    q_idx: &[usize],
    k_idx: &[usize],
) -> (Mat, Mat, Mat, KernelWork) {
    let d_vec = grad_o.rowsum_hadamard(o);
    attn_tile_backward(q, k, v, grad_o, lse, &d_vec, scale, mask, q_idx, k_idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::BlockSparseMask;
    use crate::naive::{naive_backward, naive_forward};
    use burst_tensor::randn_mat;
    use burst_tensor::testutil::{assert_allclose, assert_allclose_vec};

    fn idx(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    fn all_masks(n: usize) -> Vec<AttnMask> {
        vec![
            AttnMask::Full,
            AttnMask::Causal,
            AttnMask::SlidingWindow { window: 5 },
            AttnMask::BlockSparse(BlockSparseMask::sliding_window_blocks(4, n.div_ceil(4), 2)),
        ]
    }

    #[test]
    fn forward_matches_naive_for_all_masks_and_blocks() {
        let (n, d) = (19, 6);
        let q = randn_mat(n, d, 0.8, 20);
        let k = randn_mat(n, d, 0.8, 21);
        let v = randn_mat(n, d, 0.8, 22);
        let scale = 1.0 / (d as f32).sqrt();
        for mask in all_masks(n) {
            let (o_ref, lse_ref) = naive_forward(&q, &k, &v, scale, &mask, &idx(n), &idx(n));
            for block in [4, 7, 32] {
                let out =
                    flash_forward_with_block(&q, &k, &v, scale, &mask, &idx(n), &idx(n), block);
                assert_allclose(&out.o, &o_ref, 1e-4, &format!("{mask:?} block {block}"));
                assert_allclose_vec(&out.lse, &lse_ref, 1e-4, "lse");
            }
        }
    }

    #[test]
    fn forward_handles_strided_global_indices() {
        // Striped layout: Q rows are tokens {1, 5, 9, 13}, K rows {3, 7, 11, 15}.
        let d = 4;
        let q = randn_mat(4, d, 1.0, 30);
        let k = randn_mat(4, d, 1.0, 31);
        let v = randn_mat(4, d, 1.0, 32);
        let qi = vec![1usize, 5, 9, 13];
        let ki = vec![3usize, 7, 11, 15];
        let mask = AttnMask::Causal;
        let (o_ref, lse_ref) = naive_forward(&q, &k, &v, 0.5, &mask, &qi, &ki);
        let out = flash_forward_with_block(&q, &k, &v, 0.5, &mask, &qi, &ki, 2);
        assert_allclose(&out.o, &o_ref, 1e-4, "strided forward");
        assert_allclose_vec(&out.lse, &lse_ref, 1e-4, "strided lse");
    }

    #[test]
    fn fully_masked_rows_produce_zero_output() {
        // Query token 0 with keys all in the future.
        let q = randn_mat(2, 3, 1.0, 40);
        let k = randn_mat(4, 3, 1.0, 41);
        let v = randn_mat(4, 3, 1.0, 42);
        let out = flash_forward(
            &q,
            &k,
            &v,
            1.0,
            &AttnMask::Causal,
            &[0, 1],
            &[10, 11, 12, 13],
        );
        assert_eq!(out.o, burst_tensor::Mat::zeros(2, 3));
        assert!(out.lse.iter().all(|&l| l == f32::NEG_INFINITY));
        assert_eq!(out.work.pairs, 0);
    }

    #[test]
    fn backward_matches_naive_for_all_masks() {
        let (n, d) = (17, 5);
        let q = randn_mat(n, d, 0.7, 50);
        let k = randn_mat(n, d, 0.7, 51);
        let v = randn_mat(n, d, 0.7, 52);
        let grad_o = randn_mat(n, d, 1.0, 53);
        let scale = 1.0 / (d as f32).sqrt();
        for mask in all_masks(n) {
            let (gq_ref, gk_ref, gv_ref) =
                naive_backward(&q, &k, &v, &grad_o, scale, &mask, &idx(n), &idx(n));
            let out = flash_forward(&q, &k, &v, scale, &mask, &idx(n), &idx(n));
            for block in [4, 32] {
                let (gq, gk, gv, _) = {
                    let d_vec = grad_o.rowsum_hadamard(&out.o);
                    attn_tile_backward_with_block(
                        &q,
                        &k,
                        &v,
                        &grad_o,
                        &out.lse,
                        &d_vec,
                        scale,
                        &mask,
                        &idx(n),
                        &idx(n),
                        block,
                    )
                };
                assert_allclose(&gq, &gq_ref, 1e-3, &format!("dQ {mask:?}"));
                assert_allclose(&gk, &gk_ref, 1e-3, &format!("dK {mask:?}"));
                assert_allclose(&gv, &gv_ref, 1e-3, &format!("dV {mask:?}"));
            }
        }
    }

    #[test]
    fn tile_backward_is_additive_over_key_partitions() {
        // Splitting K/V into two halves and summing the tile contributions
        // must equal the whole backward — the invariant ring attention
        // relies on.
        let (n, d) = (12, 4);
        let q = randn_mat(n, d, 0.7, 60);
        let k = randn_mat(n, d, 0.7, 61);
        let v = randn_mat(n, d, 0.7, 62);
        let grad_o = randn_mat(n, d, 1.0, 63);
        let scale = 0.5;
        let mask = AttnMask::Causal;
        let out = flash_forward(&q, &k, &v, scale, &mask, &idx(n), &idx(n));
        let d_vec = grad_o.rowsum_hadamard(&out.o);
        let (gq_ref, gk_ref, gv_ref, _) = attn_tile_backward(
            &q,
            &k,
            &v,
            &grad_o,
            &out.lse,
            &d_vec,
            scale,
            &mask,
            &idx(n),
            &idx(n),
        );
        let half = n / 2;
        let k1 = k.slice_rows(0, half);
        let v1 = v.slice_rows(0, half);
        let k2 = k.slice_rows(half, n);
        let v2 = v.slice_rows(half, n);
        let all_idx = idx(n);
        let (gq1, gk1, gv1, _) = attn_tile_backward(
            &q,
            &k1,
            &v1,
            &grad_o,
            &out.lse,
            &d_vec,
            scale,
            &mask,
            &all_idx,
            &all_idx[..half],
        );
        let (gq2, gk2, gv2, _) = attn_tile_backward(
            &q,
            &k2,
            &v2,
            &grad_o,
            &out.lse,
            &d_vec,
            scale,
            &mask,
            &all_idx,
            &all_idx[half..],
        );
        let mut gq = gq1;
        gq.add_assign(&gq2);
        assert_allclose(&gq, &gq_ref, 1e-4, "dQ additivity");
        let gk = burst_tensor::Mat::vstack(&[gk1, gk2]);
        let gv = burst_tensor::Mat::vstack(&[gv1, gv2]);
        assert_allclose(&gk, &gk_ref, 1e-4, "dK additivity");
        assert_allclose(&gv, &gv_ref, 1e-4, "dV additivity");
    }

    #[test]
    fn acc_forward_over_partitions_matches_one_shot() {
        // Feeding two K/V partitions through flash_forward_acc must produce
        // exactly what one flash_forward over the concatenated keys does —
        // the zero-alloc ring rounds rely on this.
        let (n, d) = (23, 6);
        let q = randn_mat(n, d, 0.8, 90);
        let k = randn_mat(n, d, 0.8, 91);
        let v = randn_mat(n, d, 0.8, 92);
        let scale = 1.0 / (d as f32).sqrt();
        let all_idx = idx(n);
        for mask in all_masks(n) {
            let whole = flash_forward(&q, &k, &v, scale, &mask, &all_idx, &all_idx);
            let half = 11; // not a multiple of DEFAULT_BLOCK on purpose
            let (k1, v1) = (k.slice_rows(0, half), v.slice_rows(0, half));
            let (k2, v2) = (k.slice_rows(half, n), v.slice_rows(half, n));
            let mut acc_o = Mat::zeros(n, d);
            let mut acc_lse = vec![f32::NEG_INFINITY; n];
            let mut scratch = Scratch::new();
            let mut work = flash_forward_acc(
                &q,
                &k1,
                &v1,
                scale,
                &mask,
                &all_idx,
                &all_idx[..half],
                &mut acc_o,
                &mut acc_lse,
                &mut scratch,
            );
            work.merge(flash_forward_acc(
                &q,
                &k2,
                &v2,
                scale,
                &mask,
                &all_idx,
                &all_idx[half..],
                &mut acc_o,
                &mut acc_lse,
                &mut scratch,
            ));
            assert_allclose(&acc_o, &whole.o, 1e-5, &format!("acc O {mask:?}"));
            assert_allclose_vec(&acc_lse, &whole.lse, 1e-5, "acc lse");
            assert_eq!(work.pairs, whole.work.pairs, "acc pairs {mask:?}");
        }
    }

    #[test]
    fn acc_backward_over_partitions_matches_one_shot() {
        let (n, d) = (23, 6);
        let q = randn_mat(n, d, 0.7, 93);
        let k = randn_mat(n, d, 0.7, 94);
        let v = randn_mat(n, d, 0.7, 95);
        let grad_o = randn_mat(n, d, 1.0, 96);
        let scale = 1.0 / (d as f32).sqrt();
        let all_idx = idx(n);
        let mask = AttnMask::Causal;
        let out = flash_forward(&q, &k, &v, scale, &mask, &all_idx, &all_idx);
        let d_vec = grad_o.rowsum_hadamard(&out.o);
        let (gq_ref, gk_ref, gv_ref, _) = attn_tile_backward(
            &q, &k, &v, &grad_o, &out.lse, &d_vec, scale, &mask, &all_idx, &all_idx,
        );
        // Each key partition accumulates into its row window of ∇K/∇V.
        let half = 11;
        let mut gq = Mat::zeros(n, d);
        let mut gk = Mat::zeros(n, d);
        let mut gv = Mat::zeros(n, d);
        let mut scratch = Scratch::new();
        for (lo, hi) in [(0, half), (half, n)] {
            attn_tile_backward_acc(
                &q,
                &k.slice_rows(lo, hi),
                &v.slice_rows(lo, hi),
                &grad_o,
                &out.lse,
                &d_vec,
                scale,
                &mask,
                &all_idx,
                &all_idx[lo..hi],
                gq.as_mut_slice(),
                gk.rows_mut(lo, hi),
                gv.rows_mut(lo, hi),
                &mut scratch,
            );
        }
        assert_allclose(&gq, &gq_ref, 1e-4, "acc dQ");
        assert_allclose(&gk, &gk_ref, 1e-4, "acc dK");
        assert_allclose(&gv, &gv_ref, 1e-4, "acc dV");
    }

    #[test]
    fn work_counters_match_mask_density() {
        let n = 32;
        let d = 4;
        let q = randn_mat(n, d, 1.0, 70);
        let k = randn_mat(n, d, 1.0, 71);
        let v = randn_mat(n, d, 1.0, 72);
        for mask in [
            AttnMask::Full,
            AttnMask::Causal,
            AttnMask::SlidingWindow { window: 8 },
        ] {
            let out = flash_forward_with_block(&q, &k, &v, 1.0, &mask, &idx(n), &idx(n), 8);
            assert_eq!(
                out.work.pairs as u128,
                mask.allowed_pairs(n),
                "pairs for {mask:?}"
            );
        }
        // Sliding window must skip distant tiles.
        let out = flash_forward_with_block(
            &q,
            &k,
            &v,
            1.0,
            &AttnMask::SlidingWindow { window: 4 },
            &idx(n),
            &idx(n),
            4,
        );
        assert!(out.work.tiles_skipped > 0, "SWA should skip far tiles");
    }

    #[test]
    fn flash_backward_convenience_matches_tile_kernel() {
        let (n, d) = (10, 3);
        let q = randn_mat(n, d, 0.7, 80);
        let k = randn_mat(n, d, 0.7, 81);
        let v = randn_mat(n, d, 0.7, 82);
        let grad_o = randn_mat(n, d, 1.0, 83);
        let mask = AttnMask::Full;
        let out = flash_forward(&q, &k, &v, 1.0, &mask, &idx(n), &idx(n));
        let (gq1, gk1, gv1, _) = flash_backward(
            &q,
            &k,
            &v,
            &out.o,
            &grad_o,
            &out.lse,
            1.0,
            &mask,
            &idx(n),
            &idx(n),
        );
        let d_vec = grad_o.rowsum_hadamard(&out.o);
        let (gq2, gk2, gv2, _) = attn_tile_backward(
            &q,
            &k,
            &v,
            &grad_o,
            &out.lse,
            &d_vec,
            1.0,
            &mask,
            &idx(n),
            &idx(n),
        );
        assert_allclose(&gq1, &gq2, 0.0, "dQ");
        assert_allclose(&gk1, &gk2, 0.0, "dK");
        assert_allclose(&gv1, &gv2, 0.0, "dV");
    }
}
