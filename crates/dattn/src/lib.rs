//! # burst-dattn
//!
//! Distributed attention — the paper's primary contribution — implemented on
//! the simulated cluster of [`burst_comm`]. Real tensors move between rank
//! threads, so every algorithm here is validated bit-for-bit against the
//! single-device kernels; virtual time and byte counters reproduce the
//! paper's communication claims.
//!
//! Algorithms:
//!
//! * [`ring`] — the flat global ring: forward pass (shared by RingAttention
//!   and BurstAttention, `2Nd` communication), RingAttention's backward
//!   (Algorithm 1, `4Nd`) and BurstAttention's backward (Algorithm 2,
//!   `3Nd + 2N`) with fine-grained gradient overlap;
//! * [`double_ring`] — topology-aware two-level rings (paper §3.1, Fig. 4):
//!   intra-node NVLink sub-rings nested inside an inter-node NIC ring, with
//!   the inter-node exchange posted early so it hides behind a whole
//!   intra-node sweep. Provides both the DoubleRingAttention baseline
//!   (no gradient overlap in backward) and BurstAttention's topology-aware
//!   variant;
//! * [`usp`] — head parallelism: LoongTrain's hybrid head+context USP, its
//!   context-parallel ring on the two-level ring of [`double_ring`], and
//!   its ring-of-one case (Ulysses group = world), DeepSpeed-Ulysses;
//! * [`layout`] — sequence partitions: contiguous, zigzag (Eq. 11–12) and
//!   striped (Eq. 13–14) causal workload balance. Because the kernels take
//!   global token indices and skip fully-masked tiles, balance follows from
//!   the partition alone — including for block-wise sparse masks (Fig. 11);
//! * [`cost`] — the FLOP→seconds model that turns kernel work counters into
//!   virtual compute time on the simulated A800s.

pub mod cost;
pub mod double_ring;
pub mod elastic;
pub mod layout;
pub mod ring;
pub mod skip;
pub mod usp;

pub use cost::CostModel;
pub use double_ring::DoubleRingSpec;
pub use elastic::{try_elastic_attention_opts, ElasticAttnOut, ElasticOpts, ShardData};
pub use layout::Layout;
pub use ring::{
    try_burst_backward, try_ring_backward, try_ring_forward, AttnFailure, AttnShard,
    BackwardInputs, DistAttnOut, OverlapMode, Phase, Ring,
};
pub use skip::{
    census_dr_alg1, census_dr_alg2, census_dr_forward, census_flat_alg1, census_flat_alg2,
    census_flat_forward, MaskedWire, RingGeom, SkipPlan,
};

use burst_comm::{CommError, Communicator, MemCategory};
use burst_kernels::AttnMask;
use burst_tensor::Mat;
use usp::UlyssesError;

/// Why a distributed attention call failed: either the requested geometry
/// is infeasible (a configuration error, reported before any communication
/// happens) or a communication fault struck mid-loop (carrying phase, round,
/// rank and peer via [`AttnFailure`]).
#[derive(Debug, Clone, PartialEq)]
pub enum DattnError {
    /// A communication failure inside an attention loop.
    Comm(AttnFailure),
    /// The requested head/group geometry cannot run.
    Infeasible(UlyssesError),
}

impl From<AttnFailure> for DattnError {
    fn from(e: AttnFailure) -> Self {
        DattnError::Comm(e)
    }
}

impl From<UlyssesError> for DattnError {
    fn from(e: UlyssesError) -> Self {
        DattnError::Infeasible(e)
    }
}

impl From<CommError> for DattnError {
    fn from(e: CommError) -> Self {
        DattnError::Comm(AttnFailure::from(e))
    }
}

impl std::fmt::Display for DattnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DattnError::Comm(e) => write!(f, "{e}"),
            DattnError::Infeasible(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DattnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DattnError::Comm(e) => Some(e),
            DattnError::Infeasible(e) => Some(e),
        }
    }
}

/// Escalate a failed attention call into a panic: under a fault plan a
/// communication failure panics with its [`CommError`] payload (recoverable
/// by `World::run_faulty`); any other failure panics with its message.
pub fn escalate_attn(comm: &Communicator, e: impl Into<DattnError>) -> ! {
    match e.into() {
        DattnError::Comm(e) if comm.has_faults() => std::panic::panic_any(e.source),
        e => panic!("{e}"),
    }
}

/// Which distributed attention implementation to run — mirrors the paper's
/// evaluated systems (Fig. 14).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// RingAttention on the flat global ring (Megatron-CP style).
    RingFlat,
    /// BurstAttention (Alg. 2 backward) on the flat global ring.
    BurstFlat,
    /// DoubleRingAttention (LoongTrain): topology-aware rings, Alg. 1
    /// backward, no gradient overlap.
    DoubleRing,
    /// Full BurstAttention: topology-aware rings + Alg. 2 backward with
    /// fine-grained gradient overlap.
    BurstTopo,
}

/// One forward+backward of the selected algorithm on this rank's shard.
/// Returns `(O, Lse, dQ, dK, dV)`.
///
/// A mid-loop communication fault surfaces as an [`AttnFailure`] naming the
/// rank, the peer, the ring round and the phase. With `skip` on, every
/// schedule counts the allowed pairs of each (q-shard × kv-shard) tile in
/// closed form ([`AttnMask::pairs_between`]) and elides rounds whose tiles
/// hold none — no compute, no wire traffic, no virtual time — while staying
/// bit-identical to the unskipped run (a skipped tile contributes exactly
/// nothing).
#[allow(clippy::too_many_arguments)]
pub fn try_run_attention_opts(
    algo: Algo,
    comm: &mut Communicator,
    q: &Mat,
    k: &Mat,
    v: &Mat,
    grad_o: &Mat,
    scale: f32,
    mask: &AttnMask,
    layout: Layout,
    seq_len: usize,
    cost: &CostModel,
    skip: bool,
) -> Result<(Mat, Vec<f32>, Mat, Mat, Mat), AttnFailure> {
    let shard = AttnShard {
        q,
        k,
        v,
        scale,
        mask,
        layout,
        seq_len,
        cost: *cost,
        max_token: None,
        skip,
    };
    // The rank's resident sequence shards — Q, K, V and ∇O, f32 on device —
    // live for the whole forward+backward call.
    let mem_inputs = comm.mem_alloc(
        "attn_inputs",
        MemCategory::RingShards,
        (q.nbytes() + k.nbytes() + v.nbytes() + grad_o.nbytes()) as u64,
    );
    let ring = Ring::global(comm);
    let spec = DoubleRingSpec::full(comm.topology());
    let fwd = match algo {
        Algo::RingFlat | Algo::BurstFlat => try_ring_forward(comm, &ring, &shard)?,
        Algo::DoubleRing | Algo::BurstTopo => double_ring::try_double_ring_forward_heads_on(
            comm,
            std::slice::from_ref(&shard),
            &spec,
        )?
        .pop()
        .expect("one head in, one head out"),
    };
    // The forward's (O, Lse) outputs stay live through the backward (the
    // schedule's own accumulator entry closed when it returned them).
    let mem_out = comm.mem_alloc(
        "attn_fwd_out",
        MemCategory::Activations,
        (fwd.o.nbytes() + 4 * fwd.lse.len()) as u64,
    );
    let back = BackwardInputs {
        o: &fwd.o,
        lse: &fwd.lse,
        grad_o,
    };
    let (dq, dk, dv) = match algo {
        Algo::RingFlat => try_ring_backward(comm, &ring, &shard, &back)?,
        Algo::BurstFlat => try_burst_backward(comm, &ring, &shard, &back)?,
        Algo::DoubleRing => {
            double_ring::try_double_ring_backward_alg1_on(comm, &shard, &back, &spec)?
        }
        Algo::BurstTopo => {
            double_ring::try_double_ring_backward_alg2_on(comm, &shard, &back, &spec)?
        }
    };
    comm.mem_free(mem_out);
    comm.mem_free(mem_inputs);
    Ok((fwd.o, fwd.lse, dq, dk, dv))
}
