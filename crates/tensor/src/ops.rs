//! Linear algebra and reduction kernels on [`Mat`].
//!
//! Matrix products go through one set of register-blocked micro-kernels
//! (see `nt_micro` and friends): 4×4 output blocks with sixteen
//! independent accumulators, K-tiled so the streamed operands stay
//! L1-resident, written so LLVM autovectorizes the inner loops. Dispatch is
//! cache-blocked over output row blocks and parallelised with rayon above a
//! volume threshold.
//!
//! Every product has two entry points: the owned `Mat` method
//! (`a.matmul(&b)`) and an `_into` free function
//! ([`matmul_into`], [`matmul_nt_into`], [`matmul_tn_into`]) that writes
//! into a caller-provided [`Mat`], reusing its allocation via
//! [`Mat::reshape_in_place`]. Both run the identical kernel, and each
//! output element accumulates its products in a fixed ascending-k order
//! regardless of how rows are grouped or which thread runs the block — so
//! results are bit-identical across thread counts and entry points.

use crate::mat::{Mat, MatRef};
use crate::simd;
use rayon::prelude::*;

/// Row-block size used to split work across rayon tasks. Must stay a
/// multiple of [`MR`] so serial and parallel dispatch group rows into the
/// same 4-row quads.
const PAR_ROW_BLOCK: usize = 32;
/// Register-block row edge: micro-kernels process `MR` output rows at once.
pub(crate) const MR: usize = 4;
/// Column width of the output-stationary register tile in [`nn_micro`] /
/// [`tn_micro`] (two 8-lane SIMD registers per output row).
pub(crate) const NR: usize = 16;
/// Emulated SIMD width: reduction accumulators in [`nt_micro`] are
/// `[f32; VL]` arrays whose element-wise update LLVM lowers to one FMA.
const VL: usize = 8;
/// Column edge of the `nt` register block. `MR × NTC` vector accumulators
/// must fit the 16 architectural SIMD registers with room for operands;
/// 4×4 spills.
pub(crate) const NTC: usize = 2;

/// Smallest matrix volume (`m * n * k`) worth parallelising; below this the
/// rayon fork/join overhead dominates.
const PAR_THRESHOLD: usize = 32 * 32 * 32;

impl Mat {
    /// `C = A · B` (`self` is A). Panics on inner-dimension mismatch.
    #[track_caller]
    pub fn matmul(&self, b: &Mat) -> Mat {
        let mut out = Mat::default();
        matmul_into(self.view(), b.view(), &mut out);
        out
    }

    /// `C = A · Bᵀ` — the attention-score product `Q Kᵀ` without forming `Kᵀ`.
    #[track_caller]
    pub fn matmul_nt(&self, b: &Mat) -> Mat {
        let mut out = Mat::default();
        matmul_nt_into(self.view(), b.view(), &mut out);
        out
    }

    /// `C = Aᵀ · B` — gradient products like `Pᵀ ∇O` without forming `Aᵀ`.
    #[track_caller]
    pub fn matmul_tn(&self, b: &Mat) -> Mat {
        let mut out = Mat::default();
        matmul_tn_into(self.view(), b.view(), &mut out);
        out
    }

    /// Element-wise (Hadamard) product.
    #[track_caller]
    pub fn hadamard(&self, b: &Mat) -> Mat {
        assert_eq!(self.shape(), b.shape(), "hadamard: shape mismatch");
        let mut out = self.clone();
        for (o, x) in out.as_mut_slice().iter_mut().zip(b.as_slice()) {
            *o *= x;
        }
        out
    }

    /// `self += other`.
    #[track_caller]
    pub fn add_assign(&mut self, other: &Mat) {
        assert_eq!(self.shape(), other.shape(), "add_assign: shape mismatch");
        for (o, x) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *o += x;
        }
    }

    /// `self += alpha * other` (axpy).
    #[track_caller]
    pub fn axpy(&mut self, alpha: f32, other: &Mat) {
        assert_eq!(self.shape(), other.shape(), "axpy: shape mismatch");
        for (o, x) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *o += alpha * x;
        }
    }

    /// `self - other` as a new matrix.
    #[track_caller]
    pub fn sub(&self, other: &Mat) -> Mat {
        assert_eq!(self.shape(), other.shape(), "sub: shape mismatch");
        let mut out = self.clone();
        for (o, x) in out.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *o -= x;
        }
        out
    }

    /// Multiply every element by `s` in place (vectorized; see [`simd`]).
    pub fn scale(&mut self, s: f32) {
        simd::scale_slice(self.as_mut_slice(), s);
    }

    /// A scaled copy.
    pub fn scaled(&self, s: f32) -> Mat {
        let mut out = self.clone();
        out.scale(s);
        out
    }

    /// Row-wise sums.
    pub fn rowsum(&self) -> Vec<f32> {
        (0..self.rows()).map(|r| self.row(r).iter().sum()).collect()
    }

    /// `rowsum(self ∘ other)` without materialising the product — this is the
    /// `D = rowsum(∇O ∘ O)` reduction of Algorithms 1–2.
    #[track_caller]
    pub fn rowsum_hadamard(&self, other: &Mat) -> Vec<f32> {
        assert_eq!(
            self.shape(),
            other.shape(),
            "rowsum_hadamard: shape mismatch"
        );
        (0..self.rows())
            .map(|r| {
                self.row(r)
                    .iter()
                    .zip(other.row(r))
                    .map(|(a, b)| a * b)
                    .sum()
            })
            .collect()
    }

    /// Numerically stable row-wise softmax.
    pub fn softmax_rows(&self) -> Mat {
        let mut out = self.clone();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            if !max.is_finite() {
                // All -inf (fully masked row): define softmax as all zeros.
                row.fill(0.0);
                continue;
            }
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            let inv = 1.0 / sum;
            for v in row.iter_mut() {
                *v *= inv;
            }
        }
        out
    }

    /// Numerically stable row-wise log-sum-exp: `lse[r] = log Σ_c exp(self[r,c])`.
    ///
    /// Fully masked rows (all `-inf`) produce `-inf`, which the online-softmax
    /// merge treats as "no mass yet".
    pub fn lse_rows(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.lse_rows_into(&mut out);
        out
    }

    /// [`Mat::lse_rows`] into a caller-provided vector, reusing its
    /// allocation (the per-tile LSE buffer of [`Scratch`](crate::Scratch)).
    pub fn lse_rows_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.extend((0..self.rows()).map(|r| {
            let row = self.row(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            if !max.is_finite() {
                return f32::NEG_INFINITY;
            }
            let sum: f32 = row.iter().map(|v| (v - max).exp()).sum();
            max + sum.ln()
        }));
    }

    /// Subtract a per-row scalar and exponentiate: `exp(self[r,c] - s[r])`.
    /// This is the `P = exp(S - Lse)` step shared by Algorithms 1–3.
    #[track_caller]
    pub fn exp_sub_rowwise(&self, s: &[f32]) -> Mat {
        let mut out = self.clone();
        out.exp_sub_rowwise_inplace(s);
        out
    }

    /// In-place [`Mat::exp_sub_rowwise`]: overwrite `S` with
    /// `P = exp(S - Lse)` instead of allocating a probability matrix — the
    /// score tile doubles as the probability tile in the tiled kernels.
    #[track_caller]
    pub fn exp_sub_rowwise_inplace(&mut self, s: &[f32]) {
        assert_eq!(self.rows(), s.len(), "exp_sub_rowwise: row count mismatch");
        for (r, &shift) in s.iter().enumerate() {
            if shift.is_finite() {
                // Vectorized polynomial exp; -inf (masked) scores flush to 0.
                simd::exp_shift_inplace(self.row_mut(r), shift);
            } else {
                for v in self.row_mut(r) {
                    // exp(-inf - -inf) must be 0, not NaN: a masked row has
                    // no mass.
                    *v = if v.is_finite() {
                        (*v - shift).exp()
                    } else {
                        0.0
                    };
                }
            }
        }
    }

    /// Frobenius norm.
    pub fn frob_norm(&self) -> f32 {
        self.as_slice().iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Largest absolute element.
    pub fn max_abs(&self) -> f32 {
        self.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// Index of the maximum in each row.
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows())
            .map(|r| {
                self.row(r)
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }
}

/// `C = A · B` into a caller-provided matrix; `out` is reshaped to `m × n`
/// in place (zero heap traffic once its capacity has reached steady state).
#[track_caller]
pub fn matmul_into(a: MatRef<'_>, b: MatRef<'_>, out: &mut Mat) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul: inner dims {}x{} · {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    out.reshape_in_place(m, n);
    let use_simd = simd::avx2_active();
    let panel = simd::col_panel(n);
    run_blocked(out, m, m * n * k, |rows, r0, len| {
        matmul_nn_block(a, b, rows, r0, len, n, use_simd, panel);
    });
}

/// `C = A · Bᵀ` into a caller-provided matrix (see [`matmul_into`]).
#[track_caller]
pub fn matmul_nt_into(a: MatRef<'_>, b: MatRef<'_>, out: &mut Mat) {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_nt: inner dims {}x{} · ({}x{})ᵀ",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    out.reshape_in_place(m, n);
    let use_simd = simd::avx2_active();
    run_blocked(out, m, m * n * k, |rows, r0, len| {
        matmul_nt_block(a, b, rows, r0, len, n, use_simd);
    });
}

/// `C = Aᵀ · B` into a caller-provided matrix (see [`matmul_into`]).
/// Output rows index columns of `A`, so row blocks are independent and the
/// same dispatch applies.
#[track_caller]
pub fn matmul_tn_into(a: MatRef<'_>, b: MatRef<'_>, out: &mut Mat) {
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_tn: inner dims ({}x{})ᵀ · {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (m, k, n) = (a.cols(), a.rows(), b.cols());
    out.reshape_in_place(m, n);
    let use_simd = simd::avx2_active();
    run_blocked(out, m, m * n * k, |rows, c0, len| {
        matmul_tn_block(a, b, rows, c0, len, n, use_simd);
    });
}

/// `dst[row0..][..src.rows()] += alpha · src`, where `dst` is the raw
/// row-major storage of a matrix with `src.cols()` columns.
///
/// The tiled kernels accumulate per-tile products into gradient buffers
/// through this; it takes a raw slice (not [`Mat`]) so parallel passes can
/// hand each task a disjoint `split_at_mut` region of one output.
pub fn axpy_rows_slice(dst: &mut [f32], row0: usize, alpha: f32, src: &Mat) {
    let w = src.cols();
    let dst = &mut dst[row0 * w..(row0 + src.rows()) * w];
    for (d, s) in dst.iter_mut().zip(src.as_slice()) {
        *d += alpha * s;
    }
}

/// Deterministic pairwise (tree) reduction of a slice. The association is a
/// fixed balanced split, so the result depends only on the input — not on
/// chunking, thread count, or accumulation order of the producer.
pub fn tree_sum(xs: &[f32]) -> f32 {
    match xs.len() {
        0 => 0.0,
        1 => xs[0],
        2 => xs[0] + xs[1],
        len => {
            let (lo, hi) = xs.split_at(len / 2);
            tree_sum(lo) + tree_sum(hi)
        }
    }
}

/// Dispatch a row-blocked kernel either serially or across rayon tasks.
///
/// The parallel path hands each `PAR_ROW_BLOCK`-row chunk to a task; the
/// serial path runs one call covering all rows. Because every kernel
/// processes rows in [`MR`]-row quads *relative to the chunk start* and
/// `PAR_ROW_BLOCK % MR == 0`, both paths group the same global rows into
/// the same quads, and each output element sees the same ascending-k
/// accumulation either way — results are bit-identical across thread
/// counts.
fn run_blocked(
    out: &mut Mat,
    m: usize,
    volume: usize,
    kernel: impl Fn(&mut [f32], usize, usize) + Sync,
) {
    let n = out.cols();
    // A one-thread pool still pays rayon's producer-splitting and join
    // machinery per call — measurable when the tiled kernels issue
    // thousands of small products — so only fork when it can help.
    if volume >= PAR_THRESHOLD && m > PAR_ROW_BLOCK && rayon::current_num_threads() > 1 {
        out.as_mut_slice()
            .par_chunks_mut(PAR_ROW_BLOCK * n)
            .enumerate()
            .for_each(|(bi, chunk)| {
                let r0 = bi * PAR_ROW_BLOCK;
                kernel(chunk, r0, chunk.len() / n);
            });
    } else {
        let slice = out.as_mut_slice();
        kernel(slice, 0, m);
    }
}

/// Fixed-order pairwise reduction of one emulated vector register. The
/// association is baked into the code, so the value never depends on how
/// the caller was dispatched. Shared with the AVX2 kernels in
/// [`crate::simd`], which spill their 256-bit accumulators to `[f32; 8]`
/// and reduce through this exact association — that reduction is what
/// keeps the two paths bit-identical.
#[inline(always)]
pub(crate) fn hsum8(v: [f32; VL]) -> f32 {
    ((v[0] + v[1]) + (v[2] + v[3])) + ((v[4] + v[5]) + (v[6] + v[7]))
}

// ---------------------------------------------------------------------------
// Dispatch happens at the *block driver* level: each `matmul_*_block` below
// jumps to its AVX2+FMA twin in [`crate::simd`] when `use_simd` is set
// (decided once per `_into` call by `simd::avx2_active`), so the vector
// path pays one branch per block and the `#[target_feature]` microkernels
// inline into their drivers. Both branches contract every multiply-add into
// a single-rounding IEEE FMA (`f32::mul_add` ⟷ `_mm256_fmadd_ps`), so
// either yields the same bits. Column tails run the shared scalar tail
// kernels in both modes.
// ---------------------------------------------------------------------------

/// `R × C` register-blocked panel of `A · Bᵀ`: accumulate
/// `out[or0+p][c0+q] += Σ_k a[r0+p][k] · b[c0+q][k]`.
///
/// A plain dot product is one serial FP add chain, which LLVM cannot
/// vectorize (float addition is not associative). Each accumulator here is
/// an emulated 8-lane vector (`[f32; VL]`) updated element-wise over
/// `VL`-wide chunks of `k` — that's a single SIMD FMA per chunk — and the
/// `R*C` accumulators give the FPU independent chains to overlap. Lanes are
/// combined by the fixed-order [`hsum8`] at the end, and any `k % VL` tail
/// accumulates into lane 0, so the value for a given output element depends
/// only on this code path — never on `R`, `C`, or the dispatch that chose
/// them. This is where the scores (`Q Kᵀ`) and logits (`H Wᵀ`) products get
/// their speedup.
#[inline(always)]
fn nt_micro<const R: usize, const C: usize>(
    a: MatRef<'_>,
    b: MatRef<'_>,
    out: &mut [f32],
    n: usize,
    r0: usize,
    or0: usize,
    c0: usize,
) {
    let k = a.cols();
    let arows: [&[f32]; R] = std::array::from_fn(|p| &a.row(r0 + p)[..k]);
    let brows: [&[f32]; C] = std::array::from_fn(|q| &b.row(c0 + q)[..k]);
    let mut acc = [[[0.0f32; VL]; C]; R];
    let whole = k - k % VL;
    let mut i = 0;
    while i < whole {
        for p in 0..R {
            for q in 0..C {
                let av = &arows[p][i..i + VL];
                let bv = &brows[q][i..i + VL];
                for l in 0..VL {
                    acc[p][q][l] = av[l].mul_add(bv[l], acc[p][q][l]);
                }
            }
        }
        i += VL;
    }
    while i < k {
        for p in 0..R {
            for q in 0..C {
                acc[p][q][0] = arows[p][i].mul_add(brows[q][i], acc[p][q][0]);
            }
        }
        i += 1;
    }
    for p in 0..R {
        for q in 0..C {
            out[(or0 + p) * n + c0 + q] += hsum8(acc[p][q]);
        }
    }
}

/// `R × NR` output-stationary panel of `A · B`: the `R`-row,
/// `NR`-column output tile lives in registers across the whole `k` loop;
/// each step broadcasts `a[r0+p][i]` against a contiguous `NR`-wide slice
/// of row `b[i]`. Output memory is touched exactly once per tile and each
/// streamed `B` slice is reused `R` times from registers.
// Index-form loops are deliberate here: the accumulation order is part of
// the determinism contract and the codegen is tuned around this exact shape.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn nn_micro<const R: usize>(
    a: MatRef<'_>,
    b: MatRef<'_>,
    out: &mut [f32],
    n: usize,
    r0: usize,
    or0: usize,
    c0: usize,
) {
    let k = a.cols();
    let arows: [&[f32]; R] = std::array::from_fn(|p| &a.row(r0 + p)[..k]);
    let mut acc = [[0.0f32; NR]; R];
    for i in 0..k {
        let brow = &b.row(i)[c0..c0 + NR];
        for p in 0..R {
            let x = arows[p][i];
            for l in 0..NR {
                acc[p][l] = x.mul_add(brow[l], acc[p][l]);
            }
        }
    }
    for p in 0..R {
        let orow = &mut out[(or0 + p) * n + c0..(or0 + p) * n + c0 + NR];
        for l in 0..NR {
            orow[l] += acc[p][l];
        }
    }
}

/// Column remainder of [`nn_micro`] (`cn < NR` trailing columns):
/// accumulates straight into `out` in the same ascending-`k` order. Only
/// runs when `n % NR != 0`, so its throughput is irrelevant; it is shared
/// verbatim with the AVX2 drivers in [`crate::simd`].
#[allow(clippy::needless_range_loop, clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn nn_micro_tail<const R: usize>(
    a: MatRef<'_>,
    b: MatRef<'_>,
    out: &mut [f32],
    n: usize,
    r0: usize,
    or0: usize,
    c0: usize,
    cn: usize,
) {
    let k = a.cols();
    let arows: [&[f32]; R] = std::array::from_fn(|p| &a.row(r0 + p)[..k]);
    for i in 0..k {
        let brow = &b.row(i)[c0..c0 + cn];
        for p in 0..R {
            let x = arows[p][i];
            let orow = &mut out[(or0 + p) * n + c0..(or0 + p) * n + c0 + cn];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o = x.mul_add(bv, *o);
            }
        }
    }
}

/// `R × NR` output-stationary panel of `Aᵀ · B` (outer-product
/// accumulation): structure mirrors [`nn_micro`] with the broadcast taken
/// from a column of `A`; output rows `[i0, i0+R)` gather
/// `Σ_r a[r][ac0+i0+p] · b[r][c0..c0+NR]` in ascending-`r` order.
#[inline(always)]
fn tn_micro<const R: usize>(
    a: MatRef<'_>,
    b: MatRef<'_>,
    out: &mut [f32],
    n: usize,
    ac0: usize,
    i0: usize,
    c0: usize,
) {
    let k = a.rows();
    let mut acc = [[0.0f32; NR]; R];
    for r in 0..k {
        let arow = a.row(r);
        let brow = &b.row(r)[c0..c0 + NR];
        for p in 0..R {
            let x = arow[ac0 + i0 + p];
            for l in 0..NR {
                acc[p][l] = x.mul_add(brow[l], acc[p][l]);
            }
        }
    }
    for p in 0..R {
        let orow = &mut out[(i0 + p) * n + c0..(i0 + p) * n + c0 + NR];
        for l in 0..NR {
            orow[l] += acc[p][l];
        }
    }
}

/// Column remainder of [`tn_micro`], analogous to [`nn_micro_tail`].
#[allow(clippy::needless_range_loop, clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn tn_micro_tail<const R: usize>(
    a: MatRef<'_>,
    b: MatRef<'_>,
    out: &mut [f32],
    n: usize,
    ac0: usize,
    i0: usize,
    c0: usize,
    cn: usize,
) {
    let k = a.rows();
    for r in 0..k {
        let arow = a.row(r);
        let brow = &b.row(r)[c0..c0 + cn];
        for p in 0..R {
            let x = arow[ac0 + i0 + p];
            let orow = &mut out[(i0 + p) * n + c0..(i0 + p) * n + c0 + cn];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o = x.mul_add(bv, *o);
            }
        }
    }
}

/// `out[0..len] += A[r0..r0+len] · B`, in `MR`-row quads relative to `r0`
/// and `NR`-column register tiles, visited one column panel at a time.
///
/// Panelling bounds how much of `B` each pass over the row quads streams,
/// so a panel of `B` stays cache-resident across all quads; `panel` comes
/// from the autotuner ([`simd::col_panel`], `usize::MAX` = no panelling).
/// Every output element still accumulates inside a single micro call in
/// ascending-`k` order, so the panel width never affects values — only the
/// order in which independent output tiles are visited.
#[allow(clippy::too_many_arguments)]
fn matmul_nn_block(
    a: MatRef<'_>,
    b: MatRef<'_>,
    out: &mut [f32],
    r0: usize,
    len: usize,
    n: usize,
    use_simd: bool,
    panel: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if use_simd {
        unsafe { simd::x86::nn_block_avx2(a, b, out, r0, len, n, panel) };
        return;
    }
    let _ = use_simd;
    let mut p0 = 0;
    while p0 < n {
        let pend = if panel == usize::MAX {
            n
        } else {
            n.min(p0 + panel)
        };
        let span = pend - p0;
        let cwhole = p0 + (span - span % NR);
        let mut r = 0;
        while r < len {
            let mut c = p0;
            if r + MR <= len {
                while c < cwhole {
                    nn_micro::<MR>(a, b, out, n, r0 + r, r, c);
                    c += NR;
                }
                if c < pend {
                    nn_micro_tail::<MR>(a, b, out, n, r0 + r, r, c, pend - c);
                }
                r += MR;
            } else {
                while c < cwhole {
                    nn_micro::<1>(a, b, out, n, r0 + r, r, c);
                    c += NR;
                }
                if c < pend {
                    nn_micro_tail::<1>(a, b, out, n, r0 + r, r, c, pend - c);
                }
                r += 1;
            }
        }
        p0 = pend;
    }
}

/// [`matmul_nn_block`] with an explicit panel width — the autotuner's probe
/// target (and the hook tests use to prove panel choice is value-neutral).
pub(crate) fn nn_block_with_panel(
    a: MatRef<'_>,
    b: MatRef<'_>,
    out: &mut [f32],
    r0: usize,
    len: usize,
    n: usize,
    panel: usize,
) {
    matmul_nn_block(a, b, out, r0, len, n, simd::avx2_active(), panel);
}

/// `out[0..len] += A[r0..r0+len] · Bᵀ`, in `MR × NTC` register blocks
/// (eight 8-lane accumulators — small enough to stay in registers).
fn matmul_nt_block(
    a: MatRef<'_>,
    b: MatRef<'_>,
    out: &mut [f32],
    r0: usize,
    len: usize,
    n: usize,
    use_simd: bool,
) {
    #[cfg(target_arch = "x86_64")]
    if use_simd {
        unsafe { simd::x86::nt_block_avx2(a, b, out, r0, len, n) };
        return;
    }
    let _ = use_simd;
    let mut r = 0;
    while r + MR <= len {
        let mut c = 0;
        while c + NTC <= n {
            nt_micro::<MR, NTC>(a, b, out, n, r0 + r, r, c);
            c += NTC;
        }
        while c < n {
            nt_micro::<MR, 1>(a, b, out, n, r0 + r, r, c);
            c += 1;
        }
        r += MR;
    }
    while r < len {
        let mut c = 0;
        while c + NTC <= n {
            nt_micro::<1, NTC>(a, b, out, n, r0 + r, r, c);
            c += NTC;
        }
        while c < n {
            nt_micro::<1, 1>(a, b, out, n, r0 + r, r, c);
            c += 1;
        }
        r += 1;
    }
}

/// `out[0..len] += (Aᵀ · B)[c0..c0+len]` where `out` rows index columns of A.
fn matmul_tn_block(
    a: MatRef<'_>,
    b: MatRef<'_>,
    out: &mut [f32],
    c0: usize,
    len: usize,
    n: usize,
    use_simd: bool,
) {
    #[cfg(target_arch = "x86_64")]
    if use_simd {
        unsafe { simd::x86::tn_block_avx2(a, b, out, c0, len, n) };
        return;
    }
    let _ = use_simd;
    let cwhole = n - n % NR;
    let mut i = 0;
    while i < len {
        let mut c = 0;
        if i + MR <= len {
            while c < cwhole {
                tn_micro::<MR>(a, b, out, n, c0, i, c);
                c += NR;
            }
            if c < n {
                tn_micro_tail::<MR>(a, b, out, n, c0, i, c, n - c);
            }
            i += MR;
        } else {
            while c < cwhole {
                tn_micro::<1>(a, b, out, n, c0, i, c);
                c += NR;
            }
            if c < n {
                tn_micro_tail::<1>(a, b, out, n, c0, i, c, n - c);
            }
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::mat::Mat;
    use crate::testutil::assert_allclose;

    fn naive_matmul(a: &Mat, b: &Mat) -> Mat {
        let mut out = Mat::zeros(a.rows(), b.cols());
        for r in 0..a.rows() {
            for c in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a.get(r, k) * b.get(k, c);
                }
                out.set(r, c, acc);
            }
        }
        out
    }

    fn arange(rows: usize, cols: usize, scale: f32) -> Mat {
        Mat::from_fn(rows, cols, |r, c| ((r * cols + c) as f32).sin() * scale)
    }

    #[test]
    fn matmul_matches_naive() {
        for (m, k, n) in [(1, 1, 1), (3, 4, 5), (17, 33, 9), (64, 64, 64)] {
            let a = arange(m, k, 0.7);
            let b = arange(k, n, 1.3);
            assert_allclose(&a.matmul(&b), &naive_matmul(&a, &b), 1e-4, "matmul");
        }
    }

    #[test]
    fn matmul_parallel_path_matches_naive() {
        // Big enough to cross PAR_THRESHOLD and use multiple row blocks.
        let a = arange(96, 48, 0.9);
        let b = arange(48, 40, 1.1);
        assert_allclose(&a.matmul(&b), &naive_matmul(&a, &b), 1e-3, "matmul par");
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = arange(7, 11, 0.5);
        let b = arange(13, 11, 0.8);
        assert_allclose(&a.matmul_nt(&b), &a.matmul(&b.transpose()), 1e-4, "nt");
        let big_a = arange(80, 64, 0.5);
        let big_b = arange(72, 64, 0.8);
        assert_allclose(
            &big_a.matmul_nt(&big_b),
            &big_a.matmul(&big_b.transpose()),
            1e-3,
            "nt par",
        );
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = arange(11, 7, 0.5);
        let b = arange(11, 13, 0.8);
        assert_allclose(&a.matmul_tn(&b), &a.transpose().matmul(&b), 1e-4, "tn");
        let big_a = arange(64, 80, 0.5);
        let big_b = arange(64, 72, 0.8);
        assert_allclose(
            &big_a.matmul_tn(&big_b),
            &big_a.transpose().matmul(&big_b),
            1e-3,
            "tn par",
        );
    }

    #[test]
    fn softmax_rows_sum_to_one_and_is_shift_invariant() {
        let m = arange(5, 9, 3.0);
        let sm = m.softmax_rows();
        for r in 0..5 {
            let s: f32 = sm.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "row {r} sums to {s}");
        }
        let mut shifted = m.clone();
        for r in 0..5 {
            for v in shifted.row_mut(r) {
                *v += 100.0;
            }
        }
        assert_allclose(&shifted.softmax_rows(), &sm, 1e-5, "shift invariance");
    }

    #[test]
    fn softmax_handles_fully_masked_row() {
        let m = Mat::from_vec(1, 3, vec![f32::NEG_INFINITY; 3]);
        let sm = m.softmax_rows();
        assert_eq!(sm.row(0), &[0.0, 0.0, 0.0]);
        assert_eq!(m.lse_rows()[0], f32::NEG_INFINITY);
    }

    #[test]
    fn lse_matches_log_of_sum() {
        let m = arange(4, 6, 2.0);
        let lse = m.lse_rows();
        for (r, &l) in lse.iter().enumerate() {
            let direct: f32 = m.row(r).iter().map(|v| v.exp()).sum::<f32>().ln();
            assert!((l - direct).abs() < 1e-5);
        }
    }

    #[test]
    fn exp_sub_rowwise_reproduces_softmax() {
        let m = arange(4, 6, 2.0);
        let lse = m.lse_rows();
        let p = m.exp_sub_rowwise(&lse);
        assert_allclose(&p, &m.softmax_rows(), 1e-5, "exp_sub");
    }

    #[test]
    fn exp_sub_rowwise_masked_row_is_zero() {
        let m = Mat::from_vec(1, 2, vec![f32::NEG_INFINITY; 2]);
        let p = m.exp_sub_rowwise(&[f32::NEG_INFINITY]);
        assert_eq!(p.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn rowsum_hadamard_matches_composition() {
        let a = arange(6, 5, 1.0);
        let b = arange(6, 5, 0.4);
        let d = a.rowsum_hadamard(&b);
        let explicit = a.hadamard(&b).rowsum();
        for (x, y) in d.iter().zip(&explicit) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Mat::full(2, 2, 1.0);
        let b = Mat::full(2, 2, 2.0);
        a.axpy(0.5, &b);
        assert_eq!(a.row(0), &[2.0, 2.0]);
        a.scale(2.0);
        assert_eq!(a.row(1), &[4.0, 4.0]);
    }

    #[test]
    fn argmax_rows_picks_max() {
        let m = Mat::from_vec(2, 3, vec![0.1, 0.9, 0.3, 5.0, -1.0, 2.0]);
        assert_eq!(m.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn into_variants_match_owned_bitwise_and_reuse_allocation() {
        use crate::ops::{matmul_into, matmul_nt_into, matmul_tn_into};
        let a = arange(37, 29, 0.7);
        let b = arange(29, 23, 1.1);
        let bt = arange(23, 29, 1.1);
        let at = arange(29, 37, 0.7);

        let mut out = Mat::zeros(64, 64); // larger than any result below
        let ptr = out.as_slice().as_ptr();

        matmul_into(a.view(), b.view(), &mut out);
        assert_eq!(out, a.matmul(&b));
        matmul_nt_into(a.view(), bt.view(), &mut out);
        assert_eq!(out, a.matmul_nt(&bt));
        matmul_tn_into(at.view(), b.view(), &mut out);
        assert_eq!(out, at.matmul_tn(&b));
        // Every product above fit in the original capacity: no reallocation.
        assert_eq!(out.as_slice().as_ptr(), ptr);
    }

    #[test]
    fn into_variants_accept_row_views() {
        use crate::ops::matmul_nt_into;
        let a = arange(24, 16, 0.5);
        let b = arange(40, 16, 0.9);
        let mut out = Mat::default();
        matmul_nt_into(a.rows_view(8, 20), b.rows_view(4, 36), &mut out);
        assert_eq!(out, a.slice_rows(8, 20).matmul_nt(&b.slice_rows(4, 36)));
    }

    #[test]
    fn quad_grouping_is_consistent_across_block_splits() {
        // A 40-row product crosses the 32-row parallel block boundary, so
        // rows 32..40 land in a second chunk; results must still be
        // bit-identical to computing each row block separately, because
        // quads are aligned to multiples of MR from each chunk start and
        // PAR_ROW_BLOCK % MR == 0.
        let a = arange(40, 64, 0.6);
        let b = arange(48, 64, 0.9);
        let whole = a.matmul_nt(&b);
        for split in [4, 12, 32] {
            let top = a.slice_rows(0, split).matmul_nt(&b);
            let bot = a.slice_rows(split, 40).matmul_nt(&b);
            let mut glued = Mat::zeros(40, 48);
            glued.set_rows(0, &top);
            glued.set_rows(split, &bot);
            assert_eq!(glued, whole, "split at {split}");
        }
    }

    #[test]
    fn tree_sum_matches_sequential_within_tolerance() {
        use crate::ops::tree_sum;
        assert_eq!(tree_sum(&[]), 0.0);
        assert_eq!(tree_sum(&[2.5]), 2.5);
        assert_eq!(tree_sum(&[1.0, 2.0]), 3.0);
        let xs: Vec<f32> = (0..1000)
            .map(|i| ((i * 37) % 101) as f32 * 0.01 - 0.5)
            .collect();
        let seq: f32 = xs.iter().sum();
        let tree = tree_sum(&xs);
        assert!((seq - tree).abs() < 1e-3, "seq {seq} vs tree {tree}");
        // Determinism: identical association every call.
        assert_eq!(tree.to_bits(), tree_sum(&xs).to_bits());
    }

    #[test]
    fn exp_sub_rowwise_inplace_matches_allocating_variant() {
        let m = arange(6, 9, 2.0);
        let lse = m.lse_rows();
        let mut inplace = m.clone();
        inplace.exp_sub_rowwise_inplace(&lse);
        assert_eq!(inplace, m.exp_sub_rowwise(&lse));
    }

    #[test]
    fn lse_rows_into_reuses_buffer() {
        let m = arange(8, 5, 1.5);
        let mut buf = Vec::with_capacity(16);
        let ptr = buf.as_ptr();
        m.lse_rows_into(&mut buf);
        assert_eq!(buf, m.lse_rows());
        assert_eq!(buf.as_ptr(), ptr);
    }
}
