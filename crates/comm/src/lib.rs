//! # burst-comm
//!
//! A deterministic, multi-threaded **cluster simulator** standing in for the
//! NCCL/NVLink/InfiniBand substrate of the BurstEngine paper.
//!
//! Each simulated GPU (*rank*) is an OS thread. Ranks exchange real data —
//! [`burst_tensor::Mat`] payloads move over crossbeam channels, so every
//! distributed algorithm built on this crate is numerically end-to-end exact.
//! Performance is accounted in **virtual time** with a LogGP-style model:
//!
//! * every message carries its causal arrival time, computed from the
//!   sender's clock, the link's latency, its bandwidth, and the *occupancy*
//!   of the sender's egress port (NVLink port for intra-node traffic, the
//!   GPU's dedicated IB NIC for inter-node traffic);
//! * a receive advances the receiver's clock to
//!   `max(local_clock, arrival)` — so communication posted early and
//!   consumed late overlaps with compute *for free*, exactly like a
//!   non-blocking `isend`/`irecv` pair with a wait;
//! * explicit compute is added with [`Communicator::advance_compute`].
//!
//! Because arrival times depend only on message causality (never on OS
//! scheduling), the virtual clock is **bit-deterministic across runs**, while
//! still capturing the phenomena the paper's evaluation turns on: the
//! inter-node bandwidth cliff, NIC serialisation in flat rings, and
//! communication/computation overlap.
//!
//! The topology mirrors the paper's testbed: `nodes × gpus_per_node`
//! ranks, NVLink intra-node, one InfiniBand NIC per GPU inter-node
//! ([`Topology::a800`]).

pub mod comm;
pub mod double_ring;
pub mod fault;
pub mod membership;
pub mod stats;
pub mod topology;
pub mod trace;
pub mod transport;
pub mod world;

pub use comm::{saturating_deadline, Communicator, CtrlKind, CtrlMsg, Msg, MsgData};
pub use double_ring::DoubleRingSpec;
pub use fault::{ChurnEvent, ChurnKind, CommError, CrashAt, FaultPlan, LossKind};
pub use membership::{
    agree_on_eviction, agree_on_join, agree_on_leave, send_abort, shrink_all_gather_mat,
    shrink_all_reduce_mat, shrink_all_reduce_vec, shrink_barrier, shrink_reduce_scatter_mat,
    shrink_ring_shift, AgreeOutcome, JoinOutcome, Membership, RetryPolicy,
};
pub use stats::{CommStats, FaultCounters};
pub use topology::{Link, Topology, WireDtype};
pub use trace::{ascii_lane, summarize, TraceEvent, TraceSummary};
pub use transport::{DetectorCfg, FailureDetector, TransportPolicy};
pub use world::{RankOutput, World};

/// The observability layer the communicator records into (re-exported so
/// downstream crates can name span kinds without a direct `burst-obs` dep).
pub use burst_obs as obs;
pub use burst_obs::{
    MemCategory, MemId, MemLedger, MemReport, PeakBytes, RankSink, RankTrace, SpanKind,
};
