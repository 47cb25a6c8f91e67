//! # burstengine
//!
//! A from-scratch Rust reproduction of **BurstEngine** (SC 2025): an
//! efficient distributed framework for training Transformers on extremely
//! long sequences of over 1M tokens.
//!
//! This meta-crate re-exports the whole workspace:
//!
//! * [`tensor`] — dense `f32` matrices with blocked, rayon-parallel
//!   products;
//! * [`comm`] — the deterministic cluster simulator (rank threads, real
//!   payloads, LogGP-style virtual clock with NVLink/InfiniBand modeling);
//! * [`kernels`] — flash-style attention fwd/bwd, sparse masks, the fused
//!   LM head + loss (Algorithm 3);
//! * [`dattn`] — RingAttention (Alg. 1), BurstAttention (Alg. 2),
//!   topology-aware double rings, Ulysses, USP, and the zigzag/striped
//!   workload-balance layouts;
//! * [`model`] — the LLaMA-style training substrate with hand-written
//!   backward passes, gradient-checkpointing strategies (incl. the paper's
//!   sequence-level selective scheme), FSDP and the training engine;
//! * [`perf`] — analytical performance/memory models that regenerate the
//!   paper's tables and figures at 7B/14B × 1M–4M token scale.
//!
//! ## Quickstart
//!
//! ```
//! use burstengine::prelude::*;
//!
//! // Distributed BurstAttention on a simulated 2-node × 2-GPU cluster,
//! // numerically equivalent to single-device flash attention.
//! let n = 32;
//! let d = 8;
//! let q = randn_mat(n, d, 0.7, 1);
//! let k = randn_mat(n, d, 0.7, 2);
//! let v = randn_mat(n, d, 0.7, 3);
//! let grad_o = randn_mat(n, d, 0.8, 4);
//!
//! let world = World::new(Topology::a800(2, 2));
//! let outs = world.run_results(|comm| {
//!     let idx = Layout::Zigzag.indices(n, 4, comm.rank());
//!     // `(O, Lse, ∇Q, ∇K, ∇V)` of this rank's shard, or an `AttnFailure`
//!     // naming the rank, peer, phase and ring round of a fault.
//!     try_run_attention_opts(
//!         Algo::BurstTopo,
//!         comm,
//!         &q.gather_rows(&idx),
//!         &k.gather_rows(&idx),
//!         &v.gather_rows(&idx),
//!         &grad_o.gather_rows(&idx),
//!         1.0 / (d as f32).sqrt(),
//!         &AttnMask::Causal,
//!         Layout::Zigzag,
//!         n,
//!         &CostModel::a800(),
//!         false, // mask-aware round skipping
//!     )
//! });
//! assert!(outs.iter().all(|out| out.is_ok()));
//! ```

pub use burst_comm as comm;
pub use burst_dattn as dattn;
pub use burst_kernels as kernels;
pub use burst_model as model;
pub use burst_perf as perf;
pub use burst_tensor as tensor;

/// The most commonly used items across the workspace.
pub mod prelude {
    pub use burst_comm::{
        agree_on_eviction, agree_on_join, agree_on_leave, ChurnEvent, ChurnKind, CommError,
        CommStats, Communicator, CrashAt, DetectorCfg, FailureDetector, FaultPlan, Link, LossKind,
        Membership, RetryPolicy, Topology, TransportPolicy, World,
    };
    pub use burst_dattn::{
        escalate_attn, try_run_attention_opts, Algo, AttnFailure, AttnShard, CostModel, DattnError,
        DoubleRingSpec, Layout, OverlapMode, Phase, Ring,
    };
    pub use burst_kernels::{
        flash_backward, flash_forward, fused_lm_loss, AttnMask, BlockSparseMask, OnlineState,
    };
    pub use burst_model::engine::{train, Backend, EngineConfig};
    pub use burst_model::{
        load_sharded, run_span_elastic, save_sharded, train_with_recovery, AdamCfg, ElasticCfg,
        ElasticOutcome, LocalExec, Model, ModelConfig, MultiHeadAttention, RecoveryCfg,
        RecoveryReport, ShardManifest, Strategy,
    };
    pub use burst_perf::endtoend::{evaluate, BurstOpts, Method};
    pub use burst_perf::machine::{Cluster, PaperModel};
    pub use burst_tensor::{randn_mat, Mat, SeedStream};
}
