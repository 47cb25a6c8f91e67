//! Online-softmax state and its merge operator.
//!
//! The pair `(O, Lse)` — a partially aggregated attention output and the
//! log-sum-exp of the scores that produced it — is the exchange currency of
//! the whole system: FlashAttention accumulates k-tiles into it,
//! RingAttention/BurstAttention accumulate *remote* partitions into it, and
//! Algorithm 3 accumulates vocabulary tiles into its `Lse`. The merge is
//! associative and commutative up to floating-point rounding, which is what
//! makes the ring order irrelevant to the result (property-tested).

use burst_tensor::Mat;

/// A partially aggregated attention state for a block of queries.
#[derive(Debug, Clone)]
pub struct OnlineState {
    /// Aggregated (softmax-weighted) output, `rows × d`.
    pub o: Mat,
    /// Per-row log-sum-exp of all scores aggregated so far; `-inf` means the
    /// row has absorbed no mass yet (identity element).
    pub lse: Vec<f32>,
}

impl OnlineState {
    /// The identity state: zero output, `-inf` log-sum-exp.
    pub fn empty(rows: usize, d: usize) -> Self {
        OnlineState {
            o: Mat::zeros(rows, d),
            lse: vec![f32::NEG_INFINITY; rows],
        }
    }

    /// Build from a tile's local softmax result.
    #[track_caller]
    pub fn new(o: Mat, lse: Vec<f32>) -> Self {
        assert_eq!(o.rows(), lse.len(), "OnlineState: O/Lse row mismatch");
        OnlineState { o, lse }
    }

    /// Stable log-sum-exp of two scalars.
    ///
    /// The larger operand's term is `exp(±0)`, which libm returns as exactly
    /// `1.0` (C Annex F), so it costs no call: this stays bit-identical to
    /// `m + ((a − m).exp() + (b − m).exp()).ln()`.
    #[inline]
    pub fn merge_lse(a: f32, b: f32) -> f32 {
        if a == f32::NEG_INFINITY {
            return b;
        }
        if b == f32::NEG_INFINITY {
            return a;
        }
        let m = a.max(b);
        let term = |x: f32| {
            let d = x - m;
            if d == 0.0 {
                1.0
            } else {
                d.exp()
            }
        };
        m + (term(a) + term(b)).ln()
    }

    /// Fold `other` into `self`:
    ///
    /// ```text
    /// lse' = logaddexp(lse, other.lse)
    /// o'   = exp(lse - lse')·o + exp(other.lse - lse')·other.o
    /// ```
    #[track_caller]
    pub fn merge(&mut self, other: &OnlineState) {
        assert_eq!(self.o.shape(), other.o.shape(), "OnlineState::merge shape");
        for r in 0..self.o.rows() {
            let la = self.lse[r];
            let lb = other.lse[r];
            let lnew = Self::merge_lse(la, lb);
            let wa = if la == f32::NEG_INFINITY {
                0.0
            } else {
                (la - lnew).exp()
            };
            let wb = if lb == f32::NEG_INFINITY {
                0.0
            } else {
                (lb - lnew).exp()
            };
            let dst = self.o.row_mut(r);
            let src = other.o.row(r);
            for (d, s) in dst.iter_mut().zip(src) {
                *d = wa * *d + wb * *s;
            }
            self.lse[r] = lnew;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use burst_tensor::randn_mat;
    use burst_tensor::testutil::assert_allclose;

    fn state(seed: u64, rows: usize, d: usize) -> OnlineState {
        let o = randn_mat(rows, d, 1.0, seed);
        let lse = randn_mat(rows, 1, 1.0, seed + 1000).into_vec();
        OnlineState::new(o, lse)
    }

    #[test]
    fn identity_element_is_neutral() {
        let s = state(1, 4, 3);
        let mut left = OnlineState::empty(4, 3);
        left.merge(&s);
        assert_allclose(&left.o, &s.o, 1e-6, "empty ∘ s = s (O)");
        let mut right = s.clone();
        right.merge(&OnlineState::empty(4, 3));
        assert_allclose(&right.o, &s.o, 1e-6, "s ∘ empty = s (O)");
        for (a, b) in right.lse.iter().zip(&s.lse) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn merge_is_commutative() {
        let a = state(2, 4, 3);
        let b = state(3, 4, 3);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_allclose(&ab.o, &ba.o, 1e-5, "commutativity (O)");
        for (x, y) in ab.lse.iter().zip(&ba.lse) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn merge_is_associative() {
        let a = state(4, 3, 2);
        let b = state(5, 3, 2);
        let c = state(6, 3, 2);
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_allclose(&left.o, &right.o, 1e-4, "associativity (O)");
        for (x, y) in left.lse.iter().zip(&right.lse) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn merge_reproduces_global_softmax() {
        // Softmax over concatenated scores == merge of per-part softmaxes.
        let scores = randn_mat(2, 8, 2.0, 9);
        let v = randn_mat(8, 3, 1.0, 10);
        // Global reference.
        let p = scores.softmax_rows();
        let o_ref = p.matmul(&v);
        // Two halves aggregated online.
        let mut acc = OnlineState::empty(2, 3);
        for half in 0..2 {
            let s_half = scores.slice_cols(half * 4, (half + 1) * 4);
            let v_half = v.slice_rows(half * 4, (half + 1) * 4);
            let lse = s_half.lse_rows();
            let p_half = s_half.exp_sub_rowwise(&lse);
            let o_half = p_half.matmul(&v_half);
            acc.merge(&OnlineState::new(o_half, lse));
        }
        assert_allclose(&acc.o, &o_ref, 1e-5, "online == global softmax");
        let lse_ref = scores.lse_rows();
        for (x, y) in acc.lse.iter().zip(&lse_ref) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn merge_lse_handles_infinities() {
        assert_eq!(OnlineState::merge_lse(f32::NEG_INFINITY, 2.0), 2.0);
        assert_eq!(OnlineState::merge_lse(2.0, f32::NEG_INFINITY), 2.0);
        assert_eq!(
            OnlineState::merge_lse(f32::NEG_INFINITY, f32::NEG_INFINITY),
            f32::NEG_INFINITY
        );
        let m = OnlineState::merge_lse(0.0, 0.0);
        assert!((m - (2.0f32).ln()).abs() < 1e-6);
    }
}
