//! # burst-model
//!
//! The Transformer training substrate of the BurstEngine reproduction:
//! a LLaMA-style model (RMSNorm → multi-head attention → RMSNorm → SwiGLU
//! FFN, pre-norm residuals, tied token embedding ↔ LM head optional) with
//! **hand-written forward and backward passes** — no autograd — so every
//! stored activation is explicit and the gradient-checkpointing strategies
//! of the paper (§3.2) can be implemented literally:
//!
//! * [`checkpoint::Strategy::None`] — store everything;
//! * [`checkpoint::Strategy::Full`] — store block inputs only, recompute
//!   whole blocks in the backward (classic gradient checkpointing);
//! * [`checkpoint::Strategy::SelectivePlusPlus`] — additionally store each
//!   attention module's `(O, Lse)` so attention (and its ring
//!   communication!) is never recomputed — DISTFLASHATTN / LoongTrain's
//!   selective checkpointing++;
//! * [`checkpoint::Strategy::SeqSelective`] — the paper's contribution:
//!   store `(O, Lse)` only for the *tail* of the sequence and recompute the
//!   cheap front segment, halving checkpoint memory at ~¼ of the attention
//!   recompute cost.
//!
//! The same layer code runs single-device (for reference) and distributed:
//! all non-attention ops are row-local, attention plugs in through the
//! [`attention::AttnExec`] trait (local flash, ring/burst/double-ring,
//! Ulysses or USP backends), parameters can be FSDP-sharded ([`fsdp`]:
//! flat-bucket weight gathers and gradient syncs), and the LM head + loss
//! use the fused kernel of `burst-kernels` (§3.3). The [`engine`] module
//! assembles full distributed training steps and reports loss, virtual step
//! time, TGS/MFU and modeled peak memory.

pub mod attention;
pub mod block;
pub mod checkpoint;
pub mod checkpoint_io;
pub mod checkpoint_shard;
pub mod embedding;
pub mod engine;
pub mod ffn;
pub mod fsdp;
pub mod linear;
pub mod model;
pub mod norm;
pub mod param;
pub mod rope;

pub use attention::{AttnExec, DistExec, LocalExec, MultiHeadAttention};
pub use block::TransformerBlock;
pub use checkpoint::{cutoff_for, cutoff_for_masked, ActPrecision, StoredMat, Strategy};
pub use checkpoint_shard::{load_sharded, save_sharded, ShardManifest, ShardMeta};
pub use engine::{
    run_span_elastic, train_with_recovery, ElasticCfg, ElasticOutcome, EngineConfig, RecoveryCfg,
    RecoveryReport, SpanOutcome, TrainMetrics,
};
pub use model::{Model, ModelConfig};
pub use param::{AdamCfg, Param};
