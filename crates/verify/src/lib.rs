//! # burst-verify
//!
//! The correctness backbone of the reproduction: every distributed schedule
//! in this workspace — ring, double-ring, Ulysses, USP, and the full
//! training engine on top of them, in-step recovery included — claims to
//! compute **the same function** as a plain serial transformer. This crate
//! turns that claim into an executable gate:
//!
//! * [`oracle`] — the ground truth: single-rank forward/backward/train-step
//!   with no communication, no tiling, no online softmax. Score matrices
//!   are materialised explicitly and every reduction runs in `f64`, so the
//!   oracle's rounding error is negligible next to any `f32` schedule.
//! * [`diff`] — the differential harness: runs a schedule on the simulated
//!   cluster, reassembles the sharded outputs into global row order, and
//!   compares them (and gradients, losses, optimizer state) against the
//!   oracle under the documented bounds below.
//!
//! ## Exactness model
//!
//! Two tiers, asserted separately:
//!
//! 1. **Oracle bounds** (`ORACLE_*` constants): a distributed `f32`
//!    schedule can never bit-match an `f64` oracle — flash attention's
//!    online softmax and the ring's partial-sum merge order both reorder
//!    floating-point reductions. What *is* guaranteed is that the result
//!    lies within a small, shape-independent neighbourhood of the true
//!    value. The bounds here are calibrated to ~100× tighter than a real
//!    divergence (a wrong LSE merge or dropped tile shows up at `1e-1`,
//!    not `1e-4`).
//! 2. **Bit-exact gates** ([`assert_bits_eq`]): pairs that share an
//!    accumulation order must agree to the last bit — the same schedule run
//!    twice, a resumed run vs an uninterrupted one, an in-step recovered
//!    run vs fresh worlds chained at the eviction step, and every rank's
//!    FSDP replica of the parameters.
//!
//! bf16 runs (`EngineConfig::emulate_bf16`) round weights to 8 mantissa
//! bits each step; comparisons against a bf16 oracle use [`BF16_RTOL`]
//! (a few bf16 ULPs, `2^-8` each) instead of the f32 bounds.

pub mod diff;
pub mod oracle;

/// Absolute floor for attention outputs vs the oracle (`O`, and `lse`).
pub const ORACLE_ATTN_ATOL: f32 = 2e-5;
/// Relative bound for attention outputs vs the oracle.
pub const ORACLE_ATTN_RTOL: f32 = 2e-4;
/// Absolute floor for attention gradients vs the oracle.
pub const ORACLE_GRAD_ATOL: f32 = 5e-5;
/// Relative bound for attention gradients vs the oracle.
pub const ORACLE_GRAD_RTOL: f32 = 5e-4;
/// Absolute floor for per-step losses and post-Adam parameters vs the
/// serial oracle train-step. Adam normalises each update by
/// `sqrt(v) + eps`, which amplifies tiny gradient differences, so the
/// engine bound is looser than the raw attention bound.
pub const ORACLE_TRAIN_ATOL: f32 = 2e-4;
/// Relative bound for engine state vs the serial oracle train-step.
pub const ORACLE_TRAIN_RTOL: f32 = 2e-3;
/// Relative bound for bf16-emulated runs: weights carry 8 mantissa bits
/// (ULP `2^-8 ≈ 3.9e-3`); a few ULPs of slack cover reduction reorder.
pub const BF16_RTOL: f32 = 1.6e-2;

/// Bounds for schedules run with bf16 **wire** payloads
/// (`burst_comm::WireDtype::Bf16`): every K/V ring shard and merged O
/// block is rounded to 8 mantissa bits at the sender, exactly once per
/// tensor (the round-once law — re-encoding a decoded shard is lossless).
///
/// Derivation, to first order in `ε = 2⁻⁸` (one bf16 ULP):
/// * rounding `K` perturbs each score by `≤ ε·|q·k|`; softmax maps a
///   score perturbation `δ` to an output-weight perturbation `≤ 2δ` (its
///   Jacobian rows have ℓ₁ norm `≤ 2·max pᵢ(1−pᵢ)·spread ≤ spread/2`,
///   and the generated inputs keep the score spread ≲ 4);
/// * rounding `V` adds `≤ ε·max|v|` directly to the convex combination;
/// * `O` crosses the wire once more in the ring merge: `+ε`.
///
/// So `|ΔO| ≲ (2·spread·ε + 2ε)·scale ≈ 3–4 ε` relative in the worst
/// case. [`BF16_ATTN_RTOL`] allows 4 ULPs; the absolute floor covers
/// near-zero outputs where the relative bound collapses. Gradients chain
/// one more rounded factor (`dS·K`, `P·dO`), hence double the slack.
pub const BF16_ATTN_ATOL: f32 = 1e-3;
/// Relative bound for attention outputs under bf16 wire payloads (4 ULPs).
pub const BF16_ATTN_RTOL: f32 = 1.6e-2;
/// Absolute floor for attention gradients under bf16 wire payloads.
pub const BF16_GRAD_ATOL: f32 = 2e-3;
/// Relative bound for attention gradients under bf16 wire payloads (8 ULPs).
pub const BF16_GRAD_RTOL: f32 = 3.2e-2;

/// Where and how badly two tensors disagree — the payload of every failed
/// comparison, formatted so a shrunken proptest case reads as a bug report.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Which tensor diverged (e.g. `"dq"`, `"flat_state"`).
    pub what: String,
    /// Flat element index of the worst violation.
    pub index: usize,
    pub got: f32,
    pub want: f32,
    /// `|got − want|` at the worst element.
    pub abs: f32,
    /// `|got − want| / max(|want|, tiny)` at the worst element.
    pub rel: f32,
    /// ULP distance at the worst element (`u32::MAX` across signs/NaN).
    pub ulp: u32,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{}]: got {:e}, oracle {:e} (abs {:e}, rel {:e}, {} ulp)",
            self.what, self.index, self.got, self.want, self.abs, self.rel, self.ulp
        )
    }
}

/// ULP distance between two finite `f32`s (monotone integer mapping of the
/// float line); `u32::MAX` when signs differ materially or a value is NaN.
pub fn ulp_distance(a: f32, b: f32) -> u32 {
    if a == b {
        return 0;
    }
    if a.is_nan() || b.is_nan() {
        return u32::MAX;
    }
    // Map to a monotone integer line: negative floats mirror below zero.
    fn key(x: f32) -> i64 {
        let bits = x.to_bits() as i64;
        if x < 0.0 {
            -(bits & 0x7fff_ffff)
        } else {
            bits & 0x7fff_ffff
        }
    }
    (key(a) - key(b)).unsigned_abs().min(u32::MAX as u64) as u32
}

/// Compare `got` against the oracle `want` element-wise under
/// `|got − want| ≤ atol + rtol·|want|`; returns the **worst** violation.
pub fn compare_slice(
    what: &str,
    got: &[f32],
    want: &[f32],
    atol: f32,
    rtol: f32,
) -> Result<(), Divergence> {
    assert_eq!(
        got.len(),
        want.len(),
        "{what}: length mismatch {} vs {}",
        got.len(),
        want.len()
    );
    let mut worst: Option<Divergence> = None;
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        let abs = (g - w).abs();
        let bound = atol + rtol * w.abs();
        let violation = if g.is_finite() && w.is_finite() {
            abs > bound
        } else {
            g.to_bits() != w.to_bits()
        };
        if violation {
            let rel = abs / w.abs().max(f32::MIN_POSITIVE);
            let excess = abs - bound;
            let beat = worst
                .as_ref()
                .map(|d| excess > (d.abs - (atol + rtol * d.want.abs())))
                .unwrap_or(true);
            if beat {
                worst = Some(Divergence {
                    what: what.to_string(),
                    index: i,
                    got: g,
                    want: w,
                    abs,
                    rel,
                    ulp: ulp_distance(g, w),
                });
            }
        }
    }
    match worst {
        Some(d) => Err(d),
        None => Ok(()),
    }
}

/// Bit-exact equality (the shared-accumulation-order gate). Panics with the
/// first differing element, including its ULP distance.
#[track_caller]
pub fn assert_bits_eq(what: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{what}[{i}] not bit-identical: {g:e} vs {w:e} ({} ulp)",
            ulp_distance(g, w)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ulp_distance_basics() {
        assert_eq!(ulp_distance(1.0, 1.0), 0);
        assert_eq!(ulp_distance(1.0, f32::from_bits(1.0f32.to_bits() + 1)), 1);
        assert_eq!(ulp_distance(0.0, -0.0), 0);
        assert_eq!(ulp_distance(f32::NAN, 1.0), u32::MAX);
        assert!(ulp_distance(-1.0, 1.0) > 1_000_000);
    }

    #[test]
    fn compare_slice_reports_worst_element() {
        let want = [1.0f32, 2.0, 3.0];
        let got = [1.0f32, 2.5, 3.001];
        let d = compare_slice("x", &got, &want, 1e-3, 1e-3).unwrap_err();
        assert_eq!(d.index, 1);
        assert!(d.abs > 0.49 && d.abs < 0.51);
        assert!(compare_slice("x", &got, &want, 0.6, 0.0).is_ok());
    }

    #[test]
    fn compare_slice_rejects_nan() {
        assert!(compare_slice("x", &[f32::NAN], &[0.0], 1.0, 1.0).is_err());
        assert!(compare_slice("x", &[f32::NAN], &[f32::NAN], 0.0, 0.0).is_ok());
    }

    #[test]
    #[should_panic(expected = "not bit-identical")]
    fn bits_eq_catches_one_ulp() {
        assert_bits_eq("y", &[1.0], &[f32::from_bits(1.0f32.to_bits() + 1)]);
    }
}
