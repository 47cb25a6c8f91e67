//! Runtime-dispatched AVX2+FMA kernels with a bit-identical scalar
//! fallback, plus the cache-blocking autotuner and the shared polynomial
//! `exp` used by the softmax tile loops.
//!
//! ## Dispatch contract
//!
//! The scalar microkernels in [`crate::ops`] emulate fixed-width SIMD:
//! reduction accumulators are `[f32; 8]` arrays combined by a fixed-order
//! pairwise `hsum8`, and output-stationary tiles are `[f32; 16]` arrays
//! updated lane-wise. The AVX2 kernels here map those lanes 1:1 onto
//! 256-bit registers. Both paths contract every multiply-accumulate into a
//! **single-rounding IEEE fused multiply-add** — `f32::mul_add` on the
//! scalar side, `_mm256_fmadd_ps` on the vector side — which are the same
//! operation bit-for-bit, so every lane performs the exact op sequence of
//! its scalar counterpart and the two paths are bit-identical. That is what
//! lets one CI matrix cover both, and keeps every oracle bound and
//! cross-schedule equivalence gate valid regardless of which branch ran.
//!
//! Dispatch is decided once per process from
//! `is_x86_feature_detected!("avx2")` + `("fma")` and the `BURST_NO_SIMD`
//! environment knob (any non-empty value other than `0` forces the scalar
//! fallback), cached in an atomic. Tests that toggle the knob mid-process
//! call [`refresh`]. The dispatch point is the *block driver*, not the
//! microkernel: the AVX2 drivers in this module mirror the scalar drivers'
//! loop structure exactly and their `#[target_feature]` microkernels inline
//! into them, so the vector path pays one branch per matmul block, not one
//! opaque call per register tile. Column tails run the shared scalar tail
//! kernels in both modes.
//!
//! ## The shared `exp`
//!
//! `libm`'s `expf` cannot be vectorized bit-compatibly, so the softmax/LSE
//! tile loops route through [`exp_shift_inplace`]: a degree-5 polynomial
//! (Cephes `expf` coefficients, FMA-contracted, round-to-nearest-even
//! argument reduction via the 1.5·2²³ magic-constant trick) evaluated with
//! the identical elementwise operation sequence on both paths. Relative
//! error is a few ulp — far inside every oracle tolerance. Domain
//! contract: inputs are `x − rowmax ≤ 0` or `-∞` (masked); `-∞` and
//! anything below `ln(2⁻¹²⁶)` flush to exactly `0.0`. NaN inputs are
//! outside the contract (masking produces `-∞`, never NaN).
//!
//! ## Autotuner
//!
//! The output-stationary `nn` driver streams the whole `B` panel per 4-row
//! quad; once `B` outgrows L2 that stream thrashes. [`col_panel`] probes a
//! few candidate column-panel widths on a synthetic product at first use
//! (per host, once per process) and caches the fastest. Panel choice only
//! reorders *which output tiles* are visited — each output element still
//! accumulates in the same ascending-`k` order inside a single microkernel
//! call — so the tuned value never changes results, only cache behaviour.
//! `BURST_COL_PANEL=<n>` (0 = no panelling) overrides the probe.

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// 0 = undecided, 1 = AVX2+FMA, 2 = scalar fallback.
static DISPATCH: AtomicU8 = AtomicU8::new(0);

fn detect() -> u8 {
    let forced_off = std::env::var_os("BURST_NO_SIMD")
        .is_some_and(|v| !v.is_empty() && v != std::ffi::OsStr::new("0"));
    #[cfg(target_arch = "x86_64")]
    {
        if !forced_off
            && std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma")
        {
            return 1;
        }
    }
    let _ = forced_off;
    2
}

/// Re-read `BURST_NO_SIMD` and the CPU features (for tests that flip the
/// knob mid-process; normal code never needs this).
pub fn refresh() {
    DISPATCH.store(detect(), Ordering::Relaxed);
}

/// Whether the AVX2+FMA kernels are active for this process.
#[inline]
pub fn avx2_active() -> bool {
    match DISPATCH.load(Ordering::Relaxed) {
        0 => {
            let d = detect();
            DISPATCH.store(d, Ordering::Relaxed);
            d == 1
        }
        d => d == 1,
    }
}

/// Human-readable dispatch decision (for bench/report provenance).
pub fn dispatch_label() -> &'static str {
    if avx2_active() {
        "avx2+fma"
    } else {
        "scalar"
    }
}

// ---------------------------------------------------------------------------
// Cache-blocking autotuner
// ---------------------------------------------------------------------------

/// 0 = unprobed, `usize::MAX` = no panelling, otherwise the panel width.
static COL_PANEL: AtomicUsize = AtomicUsize::new(0);

/// Column widths the probe races (multiples of the register tile).
const PANEL_CANDIDATES: [usize; 4] = [64, 128, 256, usize::MAX];

/// The tuned output-column panel width for the `nn` driver. Products
/// narrower than the smallest candidate never panel, so tiny matmuls
/// (unit tests) skip the probe entirely.
pub fn col_panel(n: usize) -> usize {
    if n <= PANEL_CANDIDATES[0] {
        return usize::MAX;
    }
    match COL_PANEL.load(Ordering::Relaxed) {
        0 => {
            let p = probe_col_panel();
            COL_PANEL.store(p, Ordering::Relaxed);
            p
        }
        p => p,
    }
}

fn probe_col_panel() -> usize {
    if let Some(v) = std::env::var_os("BURST_COL_PANEL") {
        if let Ok(p) = v.to_string_lossy().parse::<usize>() {
            return if p == 0 { usize::MAX } else { p.max(16) };
        }
    }
    // Race the candidates on a synthetic product wide enough that the B
    // panel (k × n) spills L1: ~1 ms total, once per process.
    let (m, k, n) = (32usize, 64usize, 512usize);
    let a = crate::Mat::from_fn(m, k, |r, c| ((r * 31 + c) % 17) as f32 * 0.25 - 2.0);
    let b = crate::Mat::from_fn(k, n, |r, c| ((r + c * 13) % 23) as f32 * 0.125 - 1.0);
    let mut out = vec![0.0f32; m * n];
    let mut best = (f64::INFINITY, usize::MAX);
    for &panel in &PANEL_CANDIDATES {
        let mut fastest = f64::INFINITY;
        for _ in 0..2 {
            out.fill(0.0);
            let t0 = std::time::Instant::now();
            crate::ops::nn_block_with_panel(a.view(), b.view(), &mut out, 0, m, n, panel);
            fastest = fastest.min(t0.elapsed().as_secs_f64());
        }
        if fastest < best.0 {
            best = (fastest, panel);
        }
    }
    std::hint::black_box(&out);
    best.1
}

// ---------------------------------------------------------------------------
// Shared polynomial exp
// ---------------------------------------------------------------------------

/// Cephes `expf` constants. `C1 + C2 = ln 2` split for exact reduction;
/// `P0..=P5` is the degree-5 minimax polynomial on `[-ln2/2, ln2/2]`.
/// The literals are written at the exact stored `f32` values (clippy would
/// truncate digits that document the exactness, e.g. `C1 = 710/1024`).
#[allow(clippy::excessive_precision)]
mod expc {
    pub const EXP_LOG2E: f32 = std::f32::consts::LOG2_E;
    pub const EXP_C1: f32 = 0.693_359_375; // ln2 high part
    pub const EXP_C2: f32 = -2.121_944_4e-4; // ln2 low part
    pub const EXP_P0: f32 = 1.987_569_15e-4;
    pub const EXP_P1: f32 = 1.398_199_95e-3;
    pub const EXP_P2: f32 = 8.333_451_9e-3;
    pub const EXP_P3: f32 = 4.166_579_6e-2;
    pub const EXP_P4: f32 = 1.666_666_55e-1;
    pub const EXP_P5: f32 = 5.000_000_1e-1;
    /// Below `ln(2⁻¹²⁶)` the true result is subnormal; flush to exactly 0.
    pub const EXP_LO: f32 = -87.336_54;
    /// Above this `2ⁿ` would overflow the exponent field; clamp (the
    /// softmax domain is `≤ 0`, so this is defensive only).
    pub const EXP_HI: f32 = 88.376_26;
    /// `1.5 · 2²³`: adding then subtracting snaps to the nearest integer
    /// under round-to-nearest-even.
    pub const EXP_MAGIC: f32 = 12_582_912.0;
}
use expc::*;

/// One element of the shared polynomial exp. The AVX2 path performs this
/// exact operation sequence lane-wise; keep the two in lockstep.
#[inline(always)]
fn exp_scalar(x: f32) -> f32 {
    let under = x < EXP_LO;
    let xc = x.clamp(EXP_LO, EXP_HI);
    let t = xc.mul_add(EXP_LOG2E, EXP_MAGIC);
    let n = t - EXP_MAGIC;
    let f = n.mul_add(-EXP_C1, xc);
    let f = n.mul_add(-EXP_C2, f);
    let mut p = EXP_P0;
    p = p.mul_add(f, EXP_P1);
    p = p.mul_add(f, EXP_P2);
    p = p.mul_add(f, EXP_P3);
    p = p.mul_add(f, EXP_P4);
    p = p.mul_add(f, EXP_P5);
    let z = p.mul_add(f * f, f) + 1.0;
    let scale = f32::from_bits((((n as i32) + 127) << 23) as u32);
    if under {
        0.0
    } else {
        z * scale
    }
}

/// `xs[i] = exp(xs[i] - shift)` — the `P̃ = exp(S − rowmax)` /
/// `P = exp(S − Lse)` tile transform. `shift` must be finite; elements may
/// be `-∞` (masked) and produce exactly `0.0`.
pub fn exp_shift_inplace(xs: &mut [f32], shift: f32) {
    debug_assert!(shift.is_finite(), "exp_shift_inplace: non-finite shift");
    #[cfg(target_arch = "x86_64")]
    if avx2_active() {
        unsafe { x86::exp_shift_avx2(xs, shift) };
        return;
    }
    for x in xs.iter_mut() {
        *x = exp_scalar(*x - shift);
    }
}

/// [`exp_shift_inplace`] fused with the row sum `Σ exp(xs[i] - shift)`.
///
/// The sum uses an 8-lane accumulator reduced by the fixed-order
/// `hsum8` tree (tail elements fold into lane 0), with the identical
/// lane-wise op sequence on both dispatch paths — a serial left-fold
/// would be a single 4-cycle-latency add chain and dominate the softmax
/// row transform at long sequence lengths.
pub fn exp_shift_sum_inplace(xs: &mut [f32], shift: f32) -> f32 {
    debug_assert!(shift.is_finite(), "exp_shift_sum_inplace: non-finite shift");
    #[cfg(target_arch = "x86_64")]
    if avx2_active() {
        return unsafe { x86::exp_shift_sum_avx2(xs, shift) };
    }
    let mut lanes = [0.0f32; 8];
    let len = xs.len();
    let whole = len - len % 8;
    for chunk in xs[..whole].chunks_exact_mut(8) {
        for (l, x) in chunk.iter_mut().enumerate() {
            *x = exp_scalar(*x - shift);
            lanes[l] += *x;
        }
    }
    for x in &mut xs[whole..] {
        *x = exp_scalar(*x - shift);
        lanes[0] += *x;
    }
    crate::ops::hsum8(lanes)
}

// ---------------------------------------------------------------------------
// Elementwise kernels (tile loops around the exponentials)
// ---------------------------------------------------------------------------

/// `xs[i] *= s` — the tile rescale (`S ← scale·S`).
pub fn scale_slice(xs: &mut [f32], s: f32) {
    #[cfg(target_arch = "x86_64")]
    if avx2_active() {
        unsafe { x86::scale_slice_avx2(xs, s) };
        return;
    }
    for x in xs.iter_mut() {
        *x *= s;
    }
}

/// `dst[i] *= src[i] - c` — one row of `∇S = P ∘ (∇P − D)`.
pub fn mul_by_diff(dst: &mut [f32], src: &[f32], c: f32) {
    debug_assert_eq!(dst.len(), src.len());
    #[cfg(target_arch = "x86_64")]
    if avx2_active() {
        unsafe { x86::mul_by_diff_avx2(dst, src, c) };
        return;
    }
    for (d, &s) in dst.iter_mut().zip(src) {
        *d *= s - c;
    }
}

/// `o[i] = wt·t[i] + wa·o[i]` (FMA) — the online-softmax output merge.
pub fn weighted_merge(o: &mut [f32], t: &[f32], wa: f32, wt: f32) {
    debug_assert_eq!(o.len(), t.len());
    #[cfg(target_arch = "x86_64")]
    if avx2_active() {
        unsafe { x86::weighted_merge_avx2(o, t, wa, wt) };
        return;
    }
    for (x, &y) in o.iter_mut().zip(t) {
        *x = wt.mul_add(y, wa * *x);
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use super::*;
    use crate::mat::MatRef;
    use crate::ops::{hsum8, nn_micro_tail, tn_micro_tail, MR, NR, NTC};
    use std::arch::x86_64::*;

    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn scale_slice_avx2(xs: &mut [f32], s: f32) {
        let sv = _mm256_set1_ps(s);
        let len = xs.len();
        let ptr = xs.as_mut_ptr();
        let mut i = 0;
        while i + 8 <= len {
            let v = _mm256_loadu_ps(ptr.add(i));
            _mm256_storeu_ps(ptr.add(i), _mm256_mul_ps(v, sv));
            i += 8;
        }
        while i < len {
            *ptr.add(i) *= s;
            i += 1;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn mul_by_diff_avx2(dst: &mut [f32], src: &[f32], c: f32) {
        let cv = _mm256_set1_ps(c);
        let len = dst.len();
        let dp = dst.as_mut_ptr();
        let sp = src.as_ptr();
        let mut i = 0;
        while i + 8 <= len {
            let d = _mm256_loadu_ps(dp.add(i));
            let s = _mm256_loadu_ps(sp.add(i));
            _mm256_storeu_ps(dp.add(i), _mm256_mul_ps(d, _mm256_sub_ps(s, cv)));
            i += 8;
        }
        while i < len {
            *dp.add(i) *= *sp.add(i) - c;
            i += 1;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn weighted_merge_avx2(o: &mut [f32], t: &[f32], wa: f32, wt: f32) {
        let wav = _mm256_set1_ps(wa);
        let wtv = _mm256_set1_ps(wt);
        let len = o.len();
        let op = o.as_mut_ptr();
        let tp = t.as_ptr();
        let mut i = 0;
        while i + 8 <= len {
            let ov = _mm256_loadu_ps(op.add(i));
            let tv = _mm256_loadu_ps(tp.add(i));
            // wt·t fused with + wa·o: same fma(mul) shape as the scalar loop.
            let r = _mm256_fmadd_ps(wtv, tv, _mm256_mul_ps(wav, ov));
            _mm256_storeu_ps(op.add(i), r);
            i += 8;
        }
        while i < len {
            *op.add(i) = wt.mul_add(*tp.add(i), wa * *op.add(i));
            i += 1;
        }
    }

    /// Vector twin of [`exp_scalar`] — identical op sequence per lane.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp8(x: __m256) -> __m256 {
        let under = _mm256_cmp_ps::<_CMP_LT_OQ>(x, _mm256_set1_ps(EXP_LO));
        let xc = _mm256_min_ps(
            _mm256_max_ps(x, _mm256_set1_ps(EXP_LO)),
            _mm256_set1_ps(EXP_HI),
        );
        let t = _mm256_fmadd_ps(xc, _mm256_set1_ps(EXP_LOG2E), _mm256_set1_ps(EXP_MAGIC));
        let n = _mm256_sub_ps(t, _mm256_set1_ps(EXP_MAGIC));
        let f = _mm256_fmadd_ps(n, _mm256_set1_ps(-EXP_C1), xc);
        let f = _mm256_fmadd_ps(n, _mm256_set1_ps(-EXP_C2), f);
        let mut p = _mm256_set1_ps(EXP_P0);
        p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(EXP_P1));
        p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(EXP_P2));
        p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(EXP_P3));
        p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(EXP_P4));
        p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(EXP_P5));
        let z = _mm256_add_ps(
            _mm256_fmadd_ps(p, _mm256_mul_ps(f, f), f),
            _mm256_set1_ps(1.0),
        );
        let ni = _mm256_cvtps_epi32(n);
        let scale = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            ni,
            _mm256_set1_epi32(127),
        )));
        _mm256_andnot_ps(under, _mm256_mul_ps(z, scale))
    }

    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn exp_shift_avx2(xs: &mut [f32], shift: f32) {
        let sv = _mm256_set1_ps(shift);
        let len = xs.len();
        let ptr = xs.as_mut_ptr();
        let mut i = 0;
        while i + 8 <= len {
            let v = _mm256_sub_ps(_mm256_loadu_ps(ptr.add(i)), sv);
            _mm256_storeu_ps(ptr.add(i), exp8(v));
            i += 8;
        }
        while i < len {
            *ptr.add(i) = exp_scalar(*ptr.add(i) - shift);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn exp_shift_sum_avx2(xs: &mut [f32], shift: f32) -> f32 {
        let sv = _mm256_set1_ps(shift);
        let len = xs.len();
        let ptr = xs.as_mut_ptr();
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i + 8 <= len {
            let v = _mm256_sub_ps(_mm256_loadu_ps(ptr.add(i)), sv);
            let e = exp8(v);
            _mm256_storeu_ps(ptr.add(i), e);
            acc = _mm256_add_ps(acc, e);
            i += 8;
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        while i < len {
            let e = exp_scalar(*ptr.add(i) - shift);
            *ptr.add(i) = e;
            lanes[0] += e;
            i += 1;
        }
        hsum8(lanes)
    }

    // -----------------------------------------------------------------------
    // Matmul microkernels — AVX2+FMA twins of `ops::{nt,nn,tn}_micro`.
    //
    // Each maps the scalar kernel's emulated-SIMD accumulators onto real
    // 256-bit registers: `[f32; 8]` → one `__m256`, `[f32; 16]` → two.
    // `#[inline]` + matching target features lets them inline into the
    // block drivers below, so the vector path has no per-tile call cost.
    // -----------------------------------------------------------------------

    /// AVX2 `nt_micro`: `R × C` panel of `A · Bᵀ` with one vector
    /// accumulator per output element, spilled to an array and reduced by
    /// the scalar kernel's fixed-order [`hsum8`] (same bits; the `k % 8`
    /// tail lands in lane 0 exactly as in the scalar path).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn nt_micro_avx2<const R: usize, const C: usize>(
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
        let mut acc = [[_mm256_setzero_ps(); C]; R];
        let whole = k - k % 8;
        let mut i = 0;
        while i < whole {
            let bv: [__m256; C] =
                std::array::from_fn(|q| _mm256_loadu_ps(brows[q].as_ptr().add(i)));
            for (p, arow) in arows.iter().enumerate() {
                let av = _mm256_loadu_ps(arow.as_ptr().add(i));
                for q in 0..C {
                    acc[p][q] = _mm256_fmadd_ps(av, bv[q], acc[p][q]);
                }
            }
            i += 8;
        }
        if R == 4 && whole == k {
            // Reduce four accumulators (one output column, all four rows)
            // at once with a horizontal-add tree. The association is
            // exactly `hsum8`'s — hadd pairs adjacent lanes, the second
            // hadd pairs the pairs, and the 128-bit fold adds the two
            // quad-sums — so the bits match the lane-spill path below.
            for q in 0..C {
                let h1 = _mm256_hadd_ps(acc[0][q], acc[1][q]);
                let h2 = _mm256_hadd_ps(acc[2][q], acc[3][q]);
                let t = _mm256_hadd_ps(h1, h2);
                let s4 = _mm_add_ps(_mm256_castps256_ps128(t), _mm256_extractf128_ps::<1>(t));
                let mut s = [0.0f32; 4];
                _mm_storeu_ps(s.as_mut_ptr(), s4);
                for (p, &sum) in s.iter().enumerate() {
                    out[(or0 + p) * n + c0 + q] += sum;
                }
            }
            return;
        }
        for p in 0..R {
            for q in 0..C {
                let mut lanes = [0.0f32; 8];
                _mm256_storeu_ps(lanes.as_mut_ptr(), acc[p][q]);
                let mut t = whole;
                while t < k {
                    lanes[0] = arows[p][t].mul_add(brows[q][t], lanes[0]);
                    t += 1;
                }
                out[(or0 + p) * n + c0 + q] += hsum8(lanes);
            }
        }
    }

    /// AVX2 `nn_micro`: `R × 16` output-stationary panel of `A · B`; each
    /// 16-wide accumulator row lives in two `__m256`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn nn_micro_avx2<const R: usize>(
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
        let mut lo = [_mm256_setzero_ps(); R];
        let mut hi = [_mm256_setzero_ps(); R];
        #[allow(clippy::needless_range_loop)] // `i` also indexes `b.row(i)`
        for i in 0..k {
            let bp = b.row(i).as_ptr().add(c0);
            let blo = _mm256_loadu_ps(bp);
            let bhi = _mm256_loadu_ps(bp.add(8));
            for p in 0..R {
                let x = _mm256_set1_ps(arows[p][i]);
                lo[p] = _mm256_fmadd_ps(x, blo, lo[p]);
                hi[p] = _mm256_fmadd_ps(x, bhi, hi[p]);
            }
        }
        for p in 0..R {
            let op = out.as_mut_ptr().add((or0 + p) * n + c0);
            _mm256_storeu_ps(op, _mm256_add_ps(_mm256_loadu_ps(op), lo[p]));
            _mm256_storeu_ps(op.add(8), _mm256_add_ps(_mm256_loadu_ps(op.add(8)), hi[p]));
        }
    }

    /// AVX2 `tn_micro`: `R × 16` outer-product panel of `Aᵀ · B`, the
    /// broadcast taken from a column of `A`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn tn_micro_avx2<const R: usize>(
        a: MatRef<'_>,
        b: MatRef<'_>,
        out: &mut [f32],
        n: usize,
        ac0: usize,
        i0: usize,
        c0: usize,
    ) {
        let k = a.rows();
        let mut lo = [_mm256_setzero_ps(); R];
        let mut hi = [_mm256_setzero_ps(); R];
        for r in 0..k {
            let arow = a.row(r);
            let bp = b.row(r).as_ptr().add(c0);
            let blo = _mm256_loadu_ps(bp);
            let bhi = _mm256_loadu_ps(bp.add(8));
            for p in 0..R {
                let x = _mm256_set1_ps(arow[ac0 + i0 + p]);
                lo[p] = _mm256_fmadd_ps(x, blo, lo[p]);
                hi[p] = _mm256_fmadd_ps(x, bhi, hi[p]);
            }
        }
        for p in 0..R {
            let op = out.as_mut_ptr().add((i0 + p) * n + c0);
            _mm256_storeu_ps(op, _mm256_add_ps(_mm256_loadu_ps(op), lo[p]));
            _mm256_storeu_ps(op.add(8), _mm256_add_ps(_mm256_loadu_ps(op.add(8)), hi[p]));
        }
    }

    // -----------------------------------------------------------------------
    // Block drivers — loop structure mirrors ops::matmul_{nn,nt,tn}_block
    // exactly (same quad grouping, same tails), with the microkernels
    // inlined. ops dispatches here once per block when AVX2+FMA is active.
    // -----------------------------------------------------------------------

    /// AVX2 twin of `ops::matmul_nn_block` (including the column-panel
    /// loop; see [`super::col_panel`]).
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn nn_block_avx2(
        a: MatRef<'_>,
        b: MatRef<'_>,
        out: &mut [f32],
        r0: usize,
        len: usize,
        n: usize,
        panel: usize,
    ) {
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
                        nn_micro_avx2::<MR>(a, b, out, n, r0 + r, r, c);
                        c += NR;
                    }
                    if c < pend {
                        nn_micro_tail::<MR>(a, b, out, n, r0 + r, r, c, pend - c);
                    }
                    r += MR;
                } else {
                    while c < cwhole {
                        nn_micro_avx2::<1>(a, b, out, n, r0 + r, r, c);
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

    /// AVX2 twin of `ops::matmul_nt_block`.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn nt_block_avx2(
        a: MatRef<'_>,
        b: MatRef<'_>,
        out: &mut [f32],
        r0: usize,
        len: usize,
        n: usize,
    ) {
        let mut r = 0;
        while r + MR <= len {
            let mut c = 0;
            while c + NTC <= n {
                nt_micro_avx2::<MR, NTC>(a, b, out, n, r0 + r, r, c);
                c += NTC;
            }
            while c < n {
                nt_micro_avx2::<MR, 1>(a, b, out, n, r0 + r, r, c);
                c += 1;
            }
            r += MR;
        }
        while r < len {
            let mut c = 0;
            while c + NTC <= n {
                nt_micro_avx2::<1, NTC>(a, b, out, n, r0 + r, r, c);
                c += NTC;
            }
            while c < n {
                nt_micro_avx2::<1, 1>(a, b, out, n, r0 + r, r, c);
                c += 1;
            }
            r += 1;
        }
    }

    /// AVX2 twin of `ops::matmul_tn_block`.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn tn_block_avx2(
        a: MatRef<'_>,
        b: MatRef<'_>,
        out: &mut [f32],
        c0: usize,
        len: usize,
        n: usize,
    ) {
        let cwhole = n - n % NR;
        let mut i = 0;
        while i < len {
            let mut c = 0;
            if i + MR <= len {
                while c < cwhole {
                    tn_micro_avx2::<MR>(a, b, out, n, c0, i, c);
                    c += NR;
                }
                if c < n {
                    tn_micro_tail::<MR>(a, b, out, n, c0, i, c, n - c);
                }
                i += MR;
            } else {
                while c < cwhole {
                    tn_micro_avx2::<1>(a, b, out, n, c0, i, c);
                    c += NR;
                }
                if c < n {
                    tn_micro_tail::<1>(a, b, out, n, c0, i, c, n - c);
                }
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{matmul_into, matmul_nt_into, matmul_tn_into, randn_mat, Mat};

    /// Run `f` with the scalar fallback forced, restoring dispatch after.
    /// `BURST_NO_SIMD` is process-wide and the tests run on parallel
    /// threads, so one lock serialises every flip of it.
    fn with_scalar<R>(f: impl FnOnce() -> R) -> R {
        static ENV_KNOB: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _knob = ENV_KNOB.lock().unwrap_or_else(|e| e.into_inner());
        std::env::set_var("BURST_NO_SIMD", "1");
        refresh();
        let r = f();
        std::env::remove_var("BURST_NO_SIMD");
        refresh();
        r
    }

    fn assert_bits(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
        }
    }

    #[test]
    fn env_knob_forces_scalar() {
        with_scalar(|| assert!(!avx2_active(), "BURST_NO_SIMD must force the fallback"));
    }

    #[test]
    fn matmul_paths_bit_identical() {
        // Ragged shapes exercise every remainder path (row quads, NR/NTC
        // column tails, k % 8 tails). On hosts without AVX2+FMA both runs
        // take the scalar path and the assertion is trivially true.
        for (m, k, n) in [(4, 8, 16), (7, 13, 19), (33, 40, 50), (64, 64, 64)] {
            let a = randn_mat(m, k, 0.8, 100 + m as u64);
            let b = randn_mat(k, n, 0.8, 200 + n as u64);
            let bt = randn_mat(n, k, 0.8, 300 + n as u64);
            let at = randn_mat(k, m, 0.8, 400 + m as u64);
            let mut simd = (Mat::default(), Mat::default(), Mat::default());
            matmul_into(a.view(), b.view(), &mut simd.0);
            matmul_nt_into(a.view(), bt.view(), &mut simd.1);
            matmul_tn_into(at.view(), b.view(), &mut simd.2);
            let scalar = with_scalar(|| {
                let mut out = (Mat::default(), Mat::default(), Mat::default());
                matmul_into(a.view(), b.view(), &mut out.0);
                matmul_nt_into(a.view(), bt.view(), &mut out.1);
                matmul_tn_into(at.view(), b.view(), &mut out.2);
                out
            });
            assert_bits(simd.0.as_slice(), scalar.0.as_slice(), "nn");
            assert_bits(simd.1.as_slice(), scalar.1.as_slice(), "nt");
            assert_bits(simd.2.as_slice(), scalar.2.as_slice(), "tn");
        }
    }

    #[test]
    fn elementwise_paths_bit_identical() {
        let src = randn_mat(1, 37, 1.3, 7);
        let base = randn_mat(1, 37, 0.9, 8);
        let tile = randn_mat(1, 37, 0.7, 9);
        let mut simd = (
            base.as_slice().to_vec(),
            base.as_slice().to_vec(),
            base.as_slice().to_vec(),
            base.as_slice().to_vec(),
        );
        scale_slice(&mut simd.0, 0.37);
        mul_by_diff(&mut simd.1, src.as_slice(), 0.21);
        weighted_merge(&mut simd.2, tile.as_slice(), 0.6, 0.4);
        exp_shift_inplace(&mut simd.3, 1.75);
        let scalar = with_scalar(|| {
            let mut out = (
                base.as_slice().to_vec(),
                base.as_slice().to_vec(),
                base.as_slice().to_vec(),
                base.as_slice().to_vec(),
            );
            scale_slice(&mut out.0, 0.37);
            mul_by_diff(&mut out.1, src.as_slice(), 0.21);
            weighted_merge(&mut out.2, tile.as_slice(), 0.6, 0.4);
            exp_shift_inplace(&mut out.3, 1.75);
            out
        });
        assert_bits(&simd.0, &scalar.0, "scale_slice");
        assert_bits(&simd.1, &scalar.1, "mul_by_diff");
        assert_bits(&simd.2, &scalar.2, "weighted_merge");
        assert_bits(&simd.3, &scalar.3, "exp_shift_inplace");
    }

    #[test]
    fn poly_exp_is_accurate_and_handles_masking() {
        // Accuracy vs libm over the softmax domain (x − max ≤ 0).
        let mut worst = 0.0f64;
        for i in 0..10_000 {
            let x = -(i as f32) * 0.008; // 0 .. -80
            let mut v = [x];
            exp_shift_inplace(&mut v, 0.0);
            let want = (x as f64).exp();
            let rel = ((v[0] as f64) - want).abs() / want;
            worst = worst.max(rel);
        }
        assert!(worst < 1e-6, "poly exp rel err {worst}");
        // Masked (-∞) scores flush to exactly zero; exp(0) is exactly 1.
        let mut v = [f32::NEG_INFINITY, 0.0, -100.0];
        exp_shift_inplace(&mut v, 0.0);
        assert_eq!(v[0].to_bits(), 0.0f32.to_bits());
        assert_eq!(v[1], 1.0);
        assert_eq!(v[2], 0.0, "deep underflow flushes to zero");
    }

    #[test]
    fn panel_choice_never_changes_values() {
        let a = randn_mat(24, 32, 0.8, 11);
        let b = randn_mat(32, 200, 0.8, 12);
        let reference = a.matmul(&b);
        for panel in [16, 64, 128, usize::MAX] {
            let mut out = vec![0.0f32; 24 * 200];
            crate::ops::nn_block_with_panel(a.view(), b.view(), &mut out, 0, 24, 200, panel);
            assert_bits(&out, reference.as_slice(), &format!("panel {panel}"));
        }
    }

    #[test]
    fn col_panel_is_probed_once_and_valid() {
        let p = col_panel(512);
        assert!(p >= 16, "panel too narrow: {p}");
        assert_eq!(col_panel(512), p, "probe must be cached");
        // Narrow products never panel.
        assert_eq!(col_panel(32), usize::MAX);
    }
}
