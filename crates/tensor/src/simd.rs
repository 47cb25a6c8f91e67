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
//! The output-stationary `nn` driver streams the whole `B` panel per row
//! band; once `B` outgrows L2 that stream thrashes. [`col_panel`] probes a
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

/// `max(xs)`, or `-∞` for an empty or all-masked row — the softmax row
/// max. NaN elements are skipped, as by `f32::max`. Eight lanes take the
/// running max of every eighth element and a tree folds them; a max is
/// exact, so only the sign of a zero maximum can depend on the fold, and no
/// caller's result depends on it (`x − (±0)` and `exp(±0)` agree).
pub fn row_max(xs: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if avx2_active() {
        // SAFETY: `avx2_active()` found AVX2 and FMA on this CPU.
        return unsafe { x86::row_max_avx2(xs) };
    }
    let mut lanes = [f32::NEG_INFINITY; 8];
    let whole = xs.len() - xs.len() % 8;
    for chunk in xs[..whole].chunks_exact(8) {
        for (l, &x) in lanes.iter_mut().zip(chunk) {
            *l = x.max(*l);
        }
    }
    for &x in &xs[whole..] {
        lanes[0] = x.max(lanes[0]);
    }
    max8(lanes)
}

/// The fixed fold of [`row_max`]'s lanes.
#[inline(always)]
fn max8(v: [f32; 8]) -> f32 {
    (v[0].max(v[1]).max(v[2].max(v[3]))).max(v[4].max(v[5]).max(v[6].max(v[7])))
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use super::*;
    use crate::mat::MatRef;
    use crate::ops::{hsum8, nn_micro_tail, tn_micro_tail, Epilogue, MR, NR, NTC, NTR};
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

    /// # Safety
    /// The CPU must support AVX2 and FMA (see [`super::avx2_active`]).
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn row_max_avx2(xs: &[f32]) -> f32 {
        let len = xs.len();
        let ptr = xs.as_ptr();
        let mut acc = _mm256_set1_ps(f32::NEG_INFINITY);
        let mut i = 0;
        while i + 8 <= len {
            // `maxps` returns its second operand when either is NaN, so a
            // NaN element leaves the running max alone, as `f32::max` does.
            acc = _mm256_max_ps(_mm256_loadu_ps(ptr.add(i)), acc);
            i += 8;
        }
        // Fold the lanes in registers (no lane is NaN), then the tail.
        let h = _mm_max_ps(_mm256_castps256_ps128(acc), _mm256_extractf128_ps::<1>(acc));
        let h = _mm_max_ps(h, _mm_movehl_ps(h, h));
        let mut m = _mm_cvtss_f32(_mm_max_ss(h, _mm_shuffle_ps::<0b01>(h, h)));
        while i < len {
            m = (*ptr.add(i)).max(m);
            i += 1;
        }
        m
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
    // Operands are read through raw row pointers: the drivers keep every
    // row and column index inside the operands' shapes.
    // -----------------------------------------------------------------------

    /// Vector twin of [`Epilogue::apply`] for eight consecutive elements of
    /// output row `r` at `o`; `h` already holds `0.0 + Σ`.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA, and `o` must point at eight
    /// writable outputs of row `r`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn apply8(epi: Epilogue<'_>, o: *mut f32, r: usize, h: __m256) {
        match epi {
            Epilogue::Store => _mm256_storeu_ps(o, h),
            Epilogue::Scale(s) => _mm256_storeu_ps(o, _mm256_mul_ps(h, _mm256_set1_ps(s))),
            Epilogue::MulDiff(c) => {
                let d = _mm256_sub_ps(h, _mm256_set1_ps(c[r]));
                _mm256_storeu_ps(o, _mm256_mul_ps(_mm256_loadu_ps(o), d));
            }
            Epilogue::Axpy(alpha) => {
                let t = _mm256_mul_ps(_mm256_set1_ps(alpha), h);
                _mm256_storeu_ps(o, _mm256_add_ps(_mm256_loadu_ps(o), t));
            }
            Epilogue::Merge(w) => {
                if let Some((wa, wt)) = w[r] {
                    let kept = _mm256_mul_ps(_mm256_set1_ps(wa), _mm256_loadu_ps(o));
                    _mm256_storeu_ps(o, _mm256_fmadd_ps(_mm256_set1_ps(wt), h, kept));
                }
            }
        }
    }

    /// [`apply8`] for four consecutive elements.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA, and `o` must point at four
    /// writable outputs of row `r`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn apply4(epi: Epilogue<'_>, o: *mut f32, r: usize, h: __m128) {
        match epi {
            Epilogue::Store => _mm_storeu_ps(o, h),
            Epilogue::Scale(s) => _mm_storeu_ps(o, _mm_mul_ps(h, _mm_set1_ps(s))),
            Epilogue::MulDiff(c) => {
                let d = _mm_sub_ps(h, _mm_set1_ps(c[r]));
                _mm_storeu_ps(o, _mm_mul_ps(_mm_loadu_ps(o), d));
            }
            Epilogue::Axpy(alpha) => {
                let t = _mm_mul_ps(_mm_set1_ps(alpha), h);
                _mm_storeu_ps(o, _mm_add_ps(_mm_loadu_ps(o), t));
            }
            Epilogue::Merge(w) => {
                if let Some((wa, wt)) = w[r] {
                    let kept = _mm_mul_ps(_mm_set1_ps(wa), _mm_loadu_ps(o));
                    _mm_storeu_ps(o, _mm_fmadd_ps(_mm_set1_ps(wt), h, kept));
                }
            }
        }
    }

    /// `hsum8` of four accumulators at once, one result per lane.
    ///
    /// `hadd` adds adjacent lane pairs, so two rounds of it leave
    /// `(l0+l1)+(l2+l3)` of each accumulator in the low half and
    /// `(l4+l5)+(l6+l7)` in the high half; adding the halves completes
    /// `hsum8`'s exact association for all four.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA; `acc` holds at least four vectors.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum8x4(acc: &[__m256]) -> __m128 {
        let t = _mm256_hadd_ps(
            _mm256_hadd_ps(acc[0], acc[1]),
            _mm256_hadd_ps(acc[2], acc[3]),
        );
        _mm_add_ps(_mm256_castps256_ps128(t), _mm256_extractf128_ps::<1>(t))
    }

    /// AVX2 `nt_micro`: `R × C` panel of `A · Bᵀ` with one vector
    /// accumulator per output element. A row's `NTC` accumulators reduce
    /// together through [`hsum8x4`] into one 128-bit epilogue; a single
    /// column spills its lanes to the scalar [`hsum8`] (same bits; the
    /// `k % 8` tail lands in lane 0 exactly as in the scalar path).
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA (see [`super::avx2_active`]), and
    /// every row and column the call touches must lie inside `a`, `b` and
    /// `out` (row-major, `n` columns), as the block drivers ensure.
    #[allow(clippy::too_many_arguments)]
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
        epi: Epilogue<'_>,
    ) {
        let k = a.cols();
        let ap: [*const f32; R] = std::array::from_fn(|p| a.row(r0 + p).as_ptr());
        let bp: [*const f32; C] = std::array::from_fn(|q| b.row(c0 + q).as_ptr());
        let mut acc = [[_mm256_setzero_ps(); C]; R];
        let whole = k - k % 8;
        let mut i = 0;
        while i < whole {
            let bv: [__m256; C] = std::array::from_fn(|q| _mm256_loadu_ps(bp[q].add(i)));
            for p in 0..R {
                let av = _mm256_loadu_ps(ap[p].add(i));
                for q in 0..C {
                    acc[p][q] = _mm256_fmadd_ps(av, bv[q], acc[p][q]);
                }
            }
            i += 8;
        }
        if whole < k {
            for p in 0..R {
                for q in 0..C {
                    let mut lanes = [0.0f32; 8];
                    _mm256_storeu_ps(lanes.as_mut_ptr(), acc[p][q]);
                    for t in whole..k {
                        lanes[0] = (*ap[p].add(t)).mul_add(*bp[q].add(t), lanes[0]);
                    }
                    acc[p][q] = _mm256_loadu_ps(lanes.as_ptr());
                }
            }
        }
        for (p, row) in acc.iter().enumerate() {
            let r = or0 + p;
            let o = out.as_mut_ptr().add(r * n + c0);
            if C == NTC {
                apply4(epi, o, r, _mm_add_ps(_mm_setzero_ps(), hsum8x4(row)));
            } else {
                for (q, &v) in row.iter().enumerate() {
                    let mut lanes = [0.0f32; 8];
                    _mm256_storeu_ps(lanes.as_mut_ptr(), v);
                    epi.apply(&mut *o.add(q), r, 0.0 + hsum8(lanes));
                }
            }
        }
    }

    /// AVX2 `nn_micro`: `R × 16` output-stationary panel of `A · B`; each
    /// 16-wide accumulator row lives in two `__m256`.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA (see [`super::avx2_active`]), and
    /// every row and column the call touches must lie inside `a`, `b` and
    /// `out` (row-major, `n` columns), as the block drivers ensure.
    #[allow(clippy::too_many_arguments)]
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
        epi: Epilogue<'_>,
    ) {
        let k = a.cols();
        let ap: [*const f32; R] = std::array::from_fn(|p| a.row(r0 + p).as_ptr());
        let bb = b.as_slice().as_ptr().add(c0);
        let bs = b.cols();
        let mut lo = [_mm256_setzero_ps(); R];
        let mut hi = [_mm256_setzero_ps(); R];
        for i in 0..k {
            let bp = bb.add(i * bs);
            let blo = _mm256_loadu_ps(bp);
            let bhi = _mm256_loadu_ps(bp.add(8));
            for p in 0..R {
                let x = _mm256_set1_ps(*ap[p].add(i));
                lo[p] = _mm256_fmadd_ps(x, blo, lo[p]);
                hi[p] = _mm256_fmadd_ps(x, bhi, hi[p]);
            }
        }
        finish16(&lo, &hi, out, n, or0, c0, epi);
    }

    /// Hand `R` rows of 16 finished sums (two vectors each) to the epilogue.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA, and rows `[or0, or0 + R)` of
    /// `out` must hold columns `[c0, c0 + 16)`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn finish16<const R: usize>(
        lo: &[__m256; R],
        hi: &[__m256; R],
        out: &mut [f32],
        n: usize,
        or0: usize,
        c0: usize,
        epi: Epilogue<'_>,
    ) {
        let zero = _mm256_setzero_ps();
        for p in 0..R {
            let o = out.as_mut_ptr().add((or0 + p) * n + c0);
            apply8(epi, o, or0 + p, _mm256_add_ps(zero, lo[p]));
            apply8(epi, o.add(8), or0 + p, _mm256_add_ps(zero, hi[p]));
        }
    }

    /// AVX2 `tn_micro`: `R × 16` outer-product panel of `Aᵀ · B`, the
    /// broadcast taken from a column of `A`.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA (see [`super::avx2_active`]), and
    /// every row and column the call touches must lie inside `a`, `b` and
    /// `out` (row-major, `n` columns), as the block drivers ensure.
    #[allow(clippy::too_many_arguments)]
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
        epi: Epilogue<'_>,
    ) {
        let k = a.rows();
        let ab = a.as_slice().as_ptr().add(ac0 + i0);
        let bb = b.as_slice().as_ptr().add(c0);
        let (as_, bs) = (a.cols(), b.cols());
        let mut lo = [_mm256_setzero_ps(); R];
        let mut hi = [_mm256_setzero_ps(); R];
        for r in 0..k {
            let arow = ab.add(r * as_);
            let bp = bb.add(r * bs);
            let blo = _mm256_loadu_ps(bp);
            let bhi = _mm256_loadu_ps(bp.add(8));
            for p in 0..R {
                let x = _mm256_set1_ps(*arow.add(p));
                lo[p] = _mm256_fmadd_ps(x, blo, lo[p]);
                hi[p] = _mm256_fmadd_ps(x, bhi, hi[p]);
            }
        }
        finish16(&lo, &hi, out, n, i0, c0, epi);
    }

    // -----------------------------------------------------------------------
    // Block drivers — loop structure mirrors ops::matmul_{nn,nt,tn}_block
    // exactly (same row bands, same tails), with the microkernels
    // inlined. ops dispatches here once per block when AVX2+FMA is active.
    // -----------------------------------------------------------------------

    /// AVX2 twin of `ops::matmul_nn_block` (including the column-panel
    /// loop; see [`super::col_panel`]).
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA (see [`super::avx2_active`]), and
    /// `out` must hold `len × n` outputs.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn nn_block_avx2(
        a: MatRef<'_>,
        b: MatRef<'_>,
        out: &mut [f32],
        r0: usize,
        len: usize,
        n: usize,
        panel: usize,
        epi: Epilogue<'_>,
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
                let cols = (p0, cwhole, pend);
                r += match len - r {
                    MR.. => nn_rows_avx2::<MR>(a, b, out, n, r0, r, cols, epi),
                    2.. => nn_rows_avx2::<2>(a, b, out, n, r0, r, cols, epi),
                    _ => nn_rows_avx2::<1>(a, b, out, n, r0, r, cols, epi),
                };
            }
            p0 = pend;
        }
    }

    /// AVX2 twin of `ops::nn_rows`.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA (see [`super::avx2_active`]), and
    /// every row and column the call touches must lie inside `a`, `b` and
    /// `out` (row-major, `n` columns), as the block drivers ensure.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn nn_rows_avx2<const R: usize>(
        a: MatRef<'_>,
        b: MatRef<'_>,
        out: &mut [f32],
        n: usize,
        r0: usize,
        r: usize,
        (p0, cwhole, pend): (usize, usize, usize),
        epi: Epilogue<'_>,
    ) -> usize {
        let mut c = p0;
        while c < cwhole {
            nn_micro_avx2::<R>(a, b, out, n, r0 + r, r, c, epi);
            c += NR;
        }
        if c < pend {
            nn_micro_tail::<R>(a, b, out, n, r0 + r, r, c, pend - c, epi);
        }
        R
    }

    /// AVX2 twin of `ops::matmul_nt_block`.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA (see [`super::avx2_active`]), and
    /// `out` must hold `len × n` outputs.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn nt_block_avx2(
        a: MatRef<'_>,
        b: MatRef<'_>,
        out: &mut [f32],
        r0: usize,
        len: usize,
        n: usize,
        epi: Epilogue<'_>,
    ) {
        let mut r = 0;
        while r + NTR <= len {
            let mut c = 0;
            while c + NTC <= n {
                nt_micro_avx2::<NTR, NTC>(a, b, out, n, r0 + r, r, c, epi);
                c += NTC;
            }
            while c < n {
                nt_micro_avx2::<NTR, 1>(a, b, out, n, r0 + r, r, c, epi);
                c += 1;
            }
            r += NTR;
        }
        while r < len {
            let mut c = 0;
            while c + NTC <= n {
                nt_micro_avx2::<1, NTC>(a, b, out, n, r0 + r, r, c, epi);
                c += NTC;
            }
            while c < n {
                nt_micro_avx2::<1, 1>(a, b, out, n, r0 + r, r, c, epi);
                c += 1;
            }
            r += 1;
        }
    }

    /// AVX2 twin of `ops::matmul_tn_block`.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA (see [`super::avx2_active`]), and
    /// `out` must hold `len × n` outputs.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn tn_block_avx2(
        a: MatRef<'_>,
        b: MatRef<'_>,
        out: &mut [f32],
        c0: usize,
        len: usize,
        n: usize,
        epi: Epilogue<'_>,
    ) {
        let cwhole = n - n % NR;
        let mut i = 0;
        while i < len {
            i += match len - i {
                MR.. => tn_rows_avx2::<MR>(a, b, out, n, c0, i, cwhole, epi),
                2.. => tn_rows_avx2::<2>(a, b, out, n, c0, i, cwhole, epi),
                _ => tn_rows_avx2::<1>(a, b, out, n, c0, i, cwhole, epi),
            };
        }
    }

    /// AVX2 twin of `ops::tn_rows`.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA (see [`super::avx2_active`]), and
    /// every row and column the call touches must lie inside `a`, `b` and
    /// `out` (row-major, `n` columns), as the block drivers ensure.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn tn_rows_avx2<const R: usize>(
        a: MatRef<'_>,
        b: MatRef<'_>,
        out: &mut [f32],
        n: usize,
        c0: usize,
        i: usize,
        cwhole: usize,
        epi: Epilogue<'_>,
    ) -> usize {
        let mut c = 0;
        while c < cwhole {
            tn_micro_avx2::<R>(a, b, out, n, c0, i, c, epi);
            c += NR;
        }
        if c < n {
            tn_micro_tail::<R>(a, b, out, n, c0, i, c, n - c, epi);
        }
        R
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
        // Ragged shapes exercise every remainder path (row bands, NR/NTC
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
        let base = randn_mat(1, 37, 0.9, 8);
        let run = || {
            let mut scaled = base.as_slice().to_vec();
            scale_slice(&mut scaled, 0.37);
            let mut exps = base.as_slice().to_vec();
            exp_shift_inplace(&mut exps, 1.75);
            let mut summed = base.as_slice().to_vec();
            let sum = exp_shift_sum_inplace(&mut summed, 1.75);
            let maxes: Vec<f32> = (0..=37)
                .map(|len| row_max(&base.as_slice()[..len]))
                .collect();
            (scaled, exps, summed, sum, maxes)
        };
        let simd = run();
        let scalar = with_scalar(run);
        assert_bits(&simd.0, &scalar.0, "scale_slice");
        assert_bits(&simd.1, &scalar.1, "exp_shift_inplace");
        assert_bits(&simd.2, &scalar.2, "exp_shift_sum_inplace");
        assert_bits(&[simd.3], &[scalar.3], "exp_shift_sum_inplace sum");
        assert_bits(&simd.4, &scalar.4, "row_max");
    }

    #[test]
    fn row_max_skips_nan_and_masked_lanes() {
        let mut xs = vec![f32::NEG_INFINITY; 19];
        assert_eq!(row_max(&xs), f32::NEG_INFINITY);
        assert_eq!(row_max(&[]), f32::NEG_INFINITY);
        xs[3] = f32::NAN;
        xs[17] = -2.5;
        xs[9] = -1.0;
        assert_eq!(row_max(&xs), -1.0);
        assert_eq!(with_scalar(|| row_max(&xs)), -1.0);
    }

    /// Every epilogue rounds exactly like the plain product followed by
    /// the separate elementwise pass it replaces, on both dispatch paths.
    #[test]
    fn fused_epilogues_match_product_then_pass() {
        use crate::ops::Epilogue;
        use crate::{matmul_nt_with, matmul_tn_with, matmul_with};
        // 7 rows and 19 columns leave tails on every register block; k = 13
        // leaves a `k % 8` tail in the nt lanes.
        let (m, k, n) = (7, 13, 19);
        let a = randn_mat(m, k, 0.8, 31);
        let b = randn_mat(k, n, 0.8, 32);
        let bt = randn_mat(n, k, 0.8, 33);
        let at = randn_mat(k, m, 0.8, 34);
        let base = randn_mat(m, n, 0.9, 35);
        let c: Vec<f32> = (0..m).map(|r| 0.1 * r as f32 - 0.3).collect();
        let w: Vec<Option<(f32, f32)>> = (0..m)
            .map(|r| (r % 3 != 1).then_some((0.25 + 0.1 * r as f32, 0.8 - 0.05 * r as f32)))
            .collect();
        let epis = [
            Epilogue::Store,
            Epilogue::Scale(0.37),
            Epilogue::MulDiff(&c),
            Epilogue::Axpy(-0.6),
            Epilogue::Merge(&w),
        ];
        let then_pass = |plain: &Mat, epi: Epilogue<'_>| {
            let mut out = base.as_slice().to_vec();
            for (r, row) in out.chunks_exact_mut(n).enumerate() {
                for (o, &h) in row.iter_mut().zip(plain.row(r)) {
                    match epi {
                        Epilogue::Store => *o = h,
                        Epilogue::Scale(s) => *o = h * s,
                        Epilogue::MulDiff(c) => *o *= h - c[r],
                        Epilogue::Axpy(alpha) => *o += alpha * h,
                        Epilogue::Merge(w) => {
                            if let Some((wa, wt)) = w[r] {
                                *o = wt.mul_add(h, wa * *o);
                            }
                        }
                    }
                }
            }
            out
        };
        let plain = (a.matmul(&b), a.matmul_nt(&bt), at.matmul_tn(&b));
        let fused = |epi: Epilogue<'_>| {
            let mut outs = [
                base.as_slice().to_vec(),
                base.as_slice().to_vec(),
                base.as_slice().to_vec(),
            ];
            matmul_with(a.view(), b.view(), &mut outs[0], epi);
            matmul_nt_with(a.view(), bt.view(), &mut outs[1], epi);
            matmul_tn_with(at.view(), b.view(), &mut outs[2], epi);
            outs
        };
        for epi in epis {
            let want = [
                then_pass(&plain.0, epi),
                then_pass(&plain.1, epi),
                then_pass(&plain.2, epi),
            ];
            let native = fused(epi);
            let scalar = with_scalar(|| fused(epi));
            for (i, what) in ["nn", "nt", "tn"].iter().enumerate() {
                assert_bits(&native[i], &want[i], &format!("{what} {epi:?}"));
                assert_bits(&scalar[i], &want[i], &format!("{what} {epi:?} scalar"));
            }
        }
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
