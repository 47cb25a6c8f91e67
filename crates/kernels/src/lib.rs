//! # burst-kernels
//!
//! Single-device ("one simulated GPU") kernels of the BurstEngine
//! reproduction. Everything a rank executes locally lives here:
//!
//! * [`mask`] — attention sparsity patterns over **global** token indices
//!   (full, causal, sliding-window, dilated, block-sparse), with a tile
//!   classifier that lets kernels skip fully-masked tiles — the mechanism
//!   behind the paper's workload-balance results (Table 3) — and a
//!   closed-form count of allowed pairs between whole shards ([`Span`]s);
//! * [`online`] — the online-softmax state `(O, Lse)` and its merge
//!   operator, the shared numeric core of FlashAttention, ring attention
//!   aggregation and the fused LM head (Algorithm 3);
//! * [`flash`] — blocked attention forward/backward with online softmax.
//!   The backward exposes the tile-level kernel
//!   ([`flash::attn_tile_backward`]) that Algorithms 1–2 invoke per ring
//!   step, parameterised by the *global* `Lse` and `D = rowsum(∇O ∘ O)`;
//! * [`naive`] — an explicit-matrix reference implementation used by tests;
//! * [`lmhead`] — the sequence-level fused LM head + cross-entropy loss
//!   (Algorithm 3): tiled over sequence and vocabulary, forward and backward
//!   fused so logits are never recomputed and the `N × v` matrix is never
//!   materialised.
//!
//! Kernels operate on global token indices (`q_idx`/`k_idx` slices) rather
//! than assuming contiguous ranges, because the zigzag/striped workload
//! balance schemes of §3.4 hand each device non-contiguous slices of the
//! sequence.

pub mod flash;
pub mod lmhead;
pub mod mask;
pub mod naive;
pub mod online;

pub use flash::{
    attn_tile_backward, attn_tile_backward_acc, attn_tile_backward_with_block, flash_backward,
    flash_forward, flash_forward_acc, flash_forward_with_block, FlashOut, KernelWork,
};
pub use lmhead::{fused_lm_loss, naive_lm_loss, LmLossOut};
pub use mask::{AttnMask, BlockSparseMask, Span, TileState};
pub use online::OnlineState;
