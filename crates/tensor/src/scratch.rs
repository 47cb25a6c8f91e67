//! Reusable kernel workspace.
//!
//! The tiled attention and LM-head kernels need a handful of temporaries per
//! tile (score matrix, probability matrix, partial gradients, per-tile LSE).
//! Allocating them per tile dominated small-tile runtime and — worse — made
//! every ring round in the distributed loops pay a fresh set of heap
//! allocations. A [`Scratch`] owns those temporaries; callers thread one
//! through a whole pass (or keep one per ring participant) and each tile
//! reshapes the buffers in place via [`Mat::reshape_in_place`], which reuses
//! the backing `Vec` capacity. After the first round every buffer has
//! reached its steady-state size, so subsequent rounds perform zero heap
//! allocations in the tile-compute path.

use crate::Mat;

/// Pre-sized temporaries for the tiled kernels.
///
/// Field roles (shapes are per-tile and set by `reshape_in_place`):
///
/// * `score` — attention scores / probabilities (`bq × bk`), or a logits
///   tile in the LM head (`bs × bv`); doubles as `dS` in the backward pass
///   since `dS` overwrites `P` element-wise.
/// * `merge` — per-row online-softmax merge weights `(wa, wt)` of the
///   current attention tile (`None` for a row the tile leaves untouched).
/// * `tile_max` — per-row logit maxima of the LM head's vocabulary tiles
///   (the backward rescales each retained tile by `exp(max − lse)`).
/// * `vtiles` — retained per-vocab-tile probability matrices for the fused
///   LM head (forward writes, backward re-reads); each slot is itself
///   reshaped in place across calls.
///
/// Products land straight in the caller's rows through their epilogue
/// ([`crate::Epilogue`]), so no product temporary is needed.
#[derive(Debug, Default)]
pub struct Scratch {
    pub score: Mat,
    pub merge: Vec<Option<(f32, f32)>>,
    pub tile_max: Vec<f32>,
    pub vtiles: Vec<Mat>,
}

impl Scratch {
    /// An empty workspace; buffers grow to steady-state sizes on first use.
    pub fn new() -> Self {
        Scratch::default()
    }

    /// Make sure `vtiles` has at least `n` slots (empty `Mat`s are cheap;
    /// they inflate lazily on first reshape).
    pub fn ensure_vtiles(&mut self, n: usize) {
        if self.vtiles.len() < n {
            self.vtiles.resize_with(n, Mat::default);
        }
    }

    /// Bytes currently held by the workspace buffers, at their present
    /// shapes. Tile sizes come from the autotuner, so this is a measured
    /// (host-dependent) quantity — the memory accountant reports it on the
    /// ungated `workspace` lane rather than gating it against the analytic
    /// census.
    pub fn resident_bytes(&self) -> u64 {
        let vecs = std::mem::size_of_val(&self.merge[..]) + 4 * self.tile_max.len();
        let vtiles: usize = self.vtiles.iter().map(|m| m.nbytes()).sum();
        (self.score.nbytes() + vecs + vtiles) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_reach_steady_state() {
        let mut s = Scratch::new();
        s.score.reshape_in_place(32, 64);
        let cap = s.score.as_slice().len();
        let ptr = s.score.as_slice().as_ptr();
        // Any smaller-or-equal reshape reuses the same allocation.
        s.score.reshape_in_place(16, 64);
        s.score.reshape_in_place(32, 32);
        assert_eq!(s.score.as_slice().as_ptr(), ptr);
        assert!(s.score.as_slice().len() <= cap);
    }

    #[test]
    fn ensure_vtiles_grows_only() {
        let mut s = Scratch::new();
        s.ensure_vtiles(4);
        assert_eq!(s.vtiles.len(), 4);
        s.vtiles[2].reshape_in_place(8, 8);
        s.ensure_vtiles(2);
        assert_eq!(s.vtiles.len(), 4);
        assert_eq!(s.vtiles[2].shape(), (8, 8));
    }
}
