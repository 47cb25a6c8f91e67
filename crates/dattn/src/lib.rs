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
//! * [`double_ring`] — the ring schedules, on a [`DoubleRingSpec`]:
//!   topology-aware two-level rings (paper §3.1, Fig. 4), intra-node NVLink
//!   sub-rings nested inside an inter-node NIC ring, with the inter-node
//!   exchange posted early so it hides behind a whole intra-node sweep. The
//!   forward (`2Nd` communication) is shared by every ring algorithm;
//!   Algorithm 1 there is the DoubleRingAttention baseline (no gradient
//!   overlap in backward) and Algorithm 2 (`3Nd + 2N`) BurstAttention's,
//!   with fine-grained gradient overlap. Both run every head's forward
//!   through one pipelined pass; BurstAttention's backward also takes every
//!   head in one call, handing each head's NIC time to the next. The flat
//!   ring of RingAttention and BurstAttention is the one-level case
//!   ([`DoubleRingSpec::one_level`]);
//! * [`ring`] — the one schedule only the flat ring has, RingAttention's
//!   backward (Algorithm 1, `4Nd`, its read-only `K, V` riding home), and
//!   the shard, failure and hold types every schedule shares;
//! * [`usp`] — head parallelism: LoongTrain's hybrid head+context USP, its
//!   context-parallel ring on the two-level ring of [`double_ring`], and
//!   its ring-of-one case (Ulysses group = world), DeepSpeed-Ulysses;
//! * [`layout`] — sequence partitions: contiguous, zigzag (Eq. 11–12) and
//!   striped (Eq. 13–14) causal workload balance. Because the kernels take
//!   global token indices and skip fully-masked tiles, balance follows from
//!   the partition alone — including for block-wise sparse masks (Fig. 11);
//! * [`cost`] — the FLOP→seconds model that turns kernel work counters into
//!   virtual compute time on the simulated A800s.
//!
//! A communication fault inside any schedule surfaces as a typed
//! [`AttnFailure`]. Surviving a lost rank — evicting it, shrinking the ring
//! and replaying — is the training engine's in-step recovery
//! (`burst_model::engine::run_span_elastic`), not this crate's.

pub mod cost;
pub mod double_ring;
pub mod layout;
pub mod ring;
pub mod skip;
pub mod usp;

pub use cost::CostModel;
pub use double_ring::DoubleRingSpec;
pub use layout::Layout;
pub use ring::{
    try_ring_backward, AttnFailure, AttnShard, BackwardInputs, DistAttnOut, OverlapMode, Phase,
};
pub use skip::{
    census_dr_alg1, census_dr_alg2, census_dr_forward, census_flat_alg1, MaskedWire, RingGeom,
    SkipPlan, SpanSet,
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
/// closed form ([`AttnMask::pairs_between`]), elides rounds whose tiles
/// hold none — no compute, no wire traffic, no virtual time — and cuts
/// each read-only hop to the spans later ranks read, while staying
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
    try_run_attention_shard(algo, comm, &shard, grad_o)
}

/// [`try_run_attention_opts`] on a shard the caller built — one cut at a
/// `max_token`, say.
pub fn try_run_attention_shard(
    algo: Algo,
    comm: &mut Communicator,
    shard: &AttnShard,
    grad_o: &Mat,
) -> Result<(Mat, Vec<f32>, Mat, Mat, Mat), AttnFailure> {
    // The rank's resident sequence shards — Q, K, V and ∇O, f32 on device —
    // live for the whole forward+backward call.
    let mem_inputs = comm.mem_alloc(
        "attn_inputs",
        MemCategory::RingShards,
        (shard.q.nbytes() + shard.k.nbytes() + shard.v.nbytes() + grad_o.nbytes()) as u64,
    );
    // The flat ring is the one-level ring over the world.
    let spec = match algo {
        Algo::RingFlat | Algo::BurstFlat => {
            DoubleRingSpec::one_level(&(0..comm.world_size()).collect::<Vec<_>>())
        }
        Algo::DoubleRing | Algo::BurstTopo => DoubleRingSpec::full(comm.topology()),
    };
    let fwd =
        double_ring::try_double_ring_forward_heads_on(comm, std::slice::from_ref(shard), &spec)?
            .pop()
            .expect("one head in, one head out");
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
        Algo::RingFlat => try_ring_backward(comm, &spec, shard, &back)?,
        Algo::DoubleRing => {
            double_ring::try_double_ring_backward_alg1_on(comm, shard, &back, &spec)?
        }
        Algo::BurstFlat | Algo::BurstTopo => double_ring::try_double_ring_backward_alg2_heads_on(
            comm,
            std::slice::from_ref(&(*shard, back)),
            &spec,
        )?
        .pop()
        .expect("one head in, one head out"),
    };
    comm.mem_free(mem_out);
    comm.mem_free(mem_inputs);
    Ok((fwd.o, fwd.lse, dq, dk, dv))
}
