//! # burst-perf
//!
//! Analytical models that evaluate the paper's experiments at their real
//! scale (7B/14B models, 1M–4M tokens, 32–64 A800s) — scales the simulator
//! cannot execute numerically on a CPU. The models use the paper's own
//! machine constants and cost formulas:
//!
//! * [`machine`] — the A800 testbed (312 TFLOPS bf16, 80 GB HBM, 400 GB/s
//!   NVLink, one 25 GB/s HDR NIC per GPU) and the paper's two model
//!   configurations (7B and 14B LLaMA);
//! * [`commtime`] — Table 1's communication-time formulas for
//!   RingAttention, DoubleRingAttention and BurstAttention;
//! * [`flops`] — attention/dense FLOP counts, checkpointing recompute
//!   factors, MFU/TGS conversion (drives Fig. 2);
//! * [`memory`] — the per-GPU memory decomposition: parameter/optimizer
//!   states (FSDP-sharded or replicated, optionally offloaded), activation
//!   checkpoints per strategy (Fig. 7), LM-head logits (Fig. 8), transient
//!   working set and ring buffers;
//! * [`peakmem`] — the exact per-rank peak-bytes census: the analytic twin
//!   of the virtual-memory accountant's measured ledger, gated equal in CI;
//! * [`endtoend`] — assembles the above into per-method step time, TGS,
//!   MFU and peak memory with feasibility checks (Megatron-CP's optimizer
//!   OOM, Ulysses' head-divisibility cap) — the engine behind Fig. 12–14
//!   and Tables 2–5.
//!
//! Calibration policy: two scalar efficiencies (attention-kernel and GEMM)
//! plus one allocator-overhead constant are fitted once against the
//! paper's no-optimization baseline (Table 2 row 1: 36.75 % MFU,
//! 48.47 GB); every other number is derived. EXPERIMENTS.md records
//! paper-vs-model for each table and figure.

pub mod commtime;
pub mod endtoend;
pub mod flops;
pub mod machine;
pub mod memory;
pub mod peakmem;

pub use commtime::{
    exact_wire_counts_dtype, exact_wire_counts_masked_dtype, masked_wire_rank, MaskedWireCounts,
    RingMethod, WireCounts,
};
pub use endtoend::{evaluate, EndToEnd, Infeasible, Method};
pub use machine::{Cluster, PaperModel};
pub use peakmem::{exact_peak_bytes_dtype, exact_peak_bytes_masked_dtype, PeakMethod};
