//! Head parallelism: LoongTrain's USP hybrid (the paper's strongest
//! baseline) and, as its ring-of-one case, DeepSpeed-Ulysses.
//!
//! With `G = U × R` ranks (head-first placement: consecutive ranks — i.e.
//! NVLink neighbours — form a Ulysses group of size `U`; same-position
//! ranks across groups form a context-parallel ring of size `R`):
//!
//! 1. an intra-group all-to-all turns sequence shards into head shards
//!    (all NVLink traffic),
//! 2. each rank attends its `H/U` heads over its ring shard: ring attention
//!    with zigzag balance across the size-`R` ring, or — when `U = G` and
//!    the ring has one position — local attention over the whole sequence,
//!    which is DeepSpeed-Ulysses,
//! 3. a reverse all-to-all restores the sequence partition.
//!
//! The ring carries `N/R`-token shards instead of `N/G`, but only `R` hops;
//! the all-to-alls add `O(N·d/G)` NVLink traffic. USP's win over pure ring
//! attention comes from replacing most inter-node ring hops with cheap
//! intra-node all-to-alls. Head parallelism caps `U` at the head count: 40
//! heads on 32 GPUs (the paper's 14B setting) cannot run as pure Ulysses,
//! which [`UlyssesError::HeadsNotDivisible`] reports exactly as DeepSpeed
//! does.

use crate::cost::CostModel;
use crate::layout::Layout;
use crate::ring::{
    try_ring_backward, try_ring_forward, AttnFailure, AttnShard, BackwardInputs, OverlapMode,
    Phase, Ring,
};
use crate::DattnError;
use burst_comm::{CommError, Communicator, MemCategory, MemId, SpanKind};
use burst_kernels::{flash_backward, flash_forward, AttnMask};
use burst_tensor::Mat;

/// Why a head-parallel geometry cannot run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UlyssesError {
    /// Head parallelism requires `heads % group_size == 0`.
    HeadsNotDivisible { heads: usize, group: usize },
    /// Every member of a Ulysses group owns an equal slice of the ring
    /// shard, so `rows % group_size == 0`.
    RowsNotDivisible { rows: usize, group: usize },
}

impl std::fmt::Display for UlyssesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UlyssesError::HeadsNotDivisible { heads, group } => write!(
                f,
                "Ulysses head parallelism infeasible: {heads} heads not divisible by \
                 group size {group}"
            ),
            UlyssesError::RowsNotDivisible { rows, group } => write!(
                f,
                "Ulysses head parallelism infeasible: ring shard of {rows} rows not \
                 divisible by group size {group}"
            ),
        }
    }
}

impl std::error::Error for UlyssesError {}

/// Per-head `(∇Q, ∇K, ∇V)` triple returned by the backward pass.
pub type HeadGrads = (Vec<Mat>, Vec<Mat>, Vec<Mat>);

/// USP group geometry for one rank.
#[derive(Debug, Clone)]
pub struct UspTopo {
    /// Ulysses (head-parallel) group size `U`.
    pub ulysses: usize,
    /// Ring (context-parallel) group size `R`.
    pub ring: usize,
    /// Members of this rank's Ulysses group (consecutive ranks).
    pub u_members: Vec<usize>,
    /// Members of this rank's ring group (stride-`U` ranks).
    pub r_members: Vec<usize>,
    /// Position within the Ulysses group.
    pub u_pos: usize,
    /// Position within the ring group.
    pub r_pos: usize,
    /// Mask-aware round skipping on the ring legs (off by default). The
    /// all-to-alls are mask-independent — every token still changes owner —
    /// so only the ring rounds shrink.
    pub skip: bool,
}

impl UspTopo {
    /// Build the geometry; `ulysses_size` must divide the world size.
    #[track_caller]
    pub fn new(comm: &Communicator, ulysses_size: usize) -> Self {
        let g = comm.world_size();
        assert!(
            ulysses_size > 0 && g.is_multiple_of(ulysses_size),
            "USP: ulysses size {ulysses_size} must divide world size {g}"
        );
        let r = g / ulysses_size;
        let rank = comm.rank();
        let u_pos = rank % ulysses_size;
        let r_pos = rank / ulysses_size;
        UspTopo {
            ulysses: ulysses_size,
            ring: r,
            u_members: (r_pos * ulysses_size..(r_pos + 1) * ulysses_size).collect(),
            r_members: (0..r).map(|i| u_pos + i * ulysses_size).collect(),
            u_pos,
            r_pos,
            skip: false,
        }
    }

    /// Same geometry with mask-aware ring-round skipping switched on/off.
    pub fn with_skip(mut self, skip: bool) -> Self {
        self.skip = skip;
        self
    }

    /// Global token indices of this rank's local rows: the zigzag shard of
    /// ring position `r_pos`, sliced contiguously (in shard order) among the
    /// Ulysses group members. A ring of one position owns the whole
    /// sequence in order (zigzag over one position is the identity) at any
    /// length, so at `U = G` this is the contiguous layout.
    pub fn local_idx(&self, seq_len: usize) -> Vec<usize> {
        let shard = if self.ring == 1 {
            (0..seq_len).collect()
        } else {
            Layout::Zigzag.indices(seq_len, self.ring, self.r_pos)
        };
        let per = shard.len() / self.ulysses;
        shard[self.u_pos * per..(self.u_pos + 1) * per].to_vec()
    }

    /// Heads per rank, or why `heads` heads over `seq_len` tokens cannot
    /// run on this geometry — checked before any message is sent.
    fn heads_per_rank(&self, heads: usize, seq_len: usize) -> Result<usize, UlyssesError> {
        let group = self.ulysses;
        if !heads.is_multiple_of(group) {
            return Err(UlyssesError::HeadsNotDivisible { heads, group });
        }
        let rows = seq_len / self.ring;
        if !rows.is_multiple_of(group) {
            return Err(UlyssesError::RowsNotDivisible { rows, group });
        }
        Ok(heads / group)
    }
}

/// All-to-all within the Ulysses group (outgoing indexed by member
/// position). Each call is one `a2a` round in the trace; a failure
/// mid-exchange settles the span before propagating.
fn all_to_all(
    comm: &mut Communicator,
    members: &[usize],
    outgoing: Vec<Mat>,
) -> Result<Vec<Mat>, CommError> {
    let depth = comm.span_depth();
    comm.span_begin(SpanKind::AttnRound, "a2a");
    // Staging for the exchange: the outgoing blocks plus the equal-sized
    // incoming set, live for the duration of the a2a, billed at the wire
    // dtype.
    let out_elems: usize = outgoing.iter().map(Mat::len).sum();
    let staging = 2 * comm.mem_wire_bytes(out_elems);
    let mem = comm.mem_alloc("a2a_staging", MemCategory::CommBuffers, staging);
    let res = exchange(comm, members, outgoing);
    comm.mem_free(mem);
    comm.span_unwind(depth);
    res
}

fn exchange(
    comm: &mut Communicator,
    members: &[usize],
    outgoing: Vec<Mat>,
) -> Result<Vec<Mat>, CommError> {
    let pos = members
        .iter()
        .position(|&m| m == comm.rank())
        .expect("all_to_all: caller not in group");
    let len = members.len();
    let mut incoming: Vec<Option<Mat>> = vec![None; len];
    for (p, block) in outgoing.into_iter().enumerate() {
        if p == pos {
            incoming[pos] = Some(block);
        } else {
            comm.try_send_mat(members[p], &block)?;
        }
    }
    for off in 1..len {
        let sp = (pos + len - off) % len;
        incoming[sp] = Some(comm.try_recv_mat(members[sp])?);
    }
    Ok(incoming.into_iter().map(|m| m.unwrap()).collect())
}

/// Split a bundle of `n` equal column groups back into heads.
fn unbundle(bundle: &Mat, n: usize) -> Vec<Mat> {
    let dh = bundle.cols() / n;
    (0..n)
        .map(|h| bundle.slice_cols(h * dh, (h + 1) * dh))
        .collect()
}

/// Sequence shards → head shards: member `p` receives heads
/// `p·hpr..(p+1)·hpr` of every member's rows, stacked in member order.
fn to_heads(
    comm: &mut Communicator,
    topo: &UspTopo,
    heads: &[Mat],
    hpr: usize,
    at: impl Fn(CommError) -> AttnFailure,
) -> Result<Vec<Mat>, AttnFailure> {
    let outgoing: Vec<Mat> = (0..topo.ulysses)
        .map(|p| Mat::hstack(&heads[p * hpr..(p + 1) * hpr]))
        .collect();
    let incoming = all_to_all(comm, &topo.u_members, outgoing).map_err(at)?;
    Ok(unbundle(&Mat::vstack(&incoming), hpr))
}

/// Head shards → sequence shards, the reverse of [`to_heads`]: member `p`
/// receives its row slice of this rank's heads.
fn to_rows(
    comm: &mut Communicator,
    topo: &UspTopo,
    shards: &[Mat],
    hpr: usize,
    at: impl Fn(CommError) -> AttnFailure,
) -> Result<Vec<Mat>, AttnFailure> {
    let rows = shards[0].rows() / topo.ulysses;
    let outgoing: Vec<Mat> = (0..topo.ulysses)
        .map(|p| {
            let slices: Vec<Mat> = shards
                .iter()
                .map(|s| s.slice_rows(p * rows, (p + 1) * rows))
                .collect();
            Mat::hstack(&slices)
        })
        .collect();
    let incoming = all_to_all(comm, &topo.u_members, outgoing).map_err(at)?;
    Ok(incoming.iter().flat_map(|b| unbundle(b, hpr)).collect())
}

/// State saved by [`try_usp_forward`] for the backward pass: the ring-shard
/// tensors of this rank's owned heads.
pub struct UspSaved {
    q: Vec<Mat>,
    k: Vec<Mat>,
    v: Vec<Mat>,
    o: Vec<Mat>,
    lse: Vec<Vec<f32>>,
    /// Accountant handle for the stash: opened when the forward saves this
    /// state, closed when the backward consumes it.
    mem: Option<MemId>,
}

impl UspSaved {
    /// Discard the state without running the backward, closing its stash
    /// entry — for callers that rebuild it (recompute) instead of keeping
    /// it.
    pub fn release(self, comm: &mut Communicator) {
        comm.mem_free(self.mem);
    }
}

/// USP forward: intra-group all-to-all, attention per owned head over the
/// ring shard (zigzag ring attention, or local flash attention for a ring
/// of one), reverse all-to-all.
///
/// All-to-all failures carry `(Phase::Forward, k)` with `k` the all-to-all
/// index (0 = Q, 1 = K, 2 = V, 3 = output); ring failures keep the ring's
/// own phase/round annotation.
#[allow(clippy::too_many_arguments)]
pub fn try_usp_forward(
    comm: &mut Communicator,
    topo: &UspTopo,
    q_heads: &[Mat],
    k_heads: &[Mat],
    v_heads: &[Mat],
    scale: f32,
    mask: &AttnMask,
    seq_len: usize,
    cost: &CostModel,
) -> Result<(Vec<Mat>, UspSaved), DattnError> {
    let hpr = topo.heads_per_rank(q_heads.len(), seq_len)?;
    let q = to_heads(comm, topo, q_heads, hpr, AttnFailure::at(Phase::Forward, 0))?;
    let k = to_heads(comm, topo, k_heads, hpr, AttnFailure::at(Phase::Forward, 1))?;
    let v = to_heads(comm, topo, v_heads, hpr, AttnFailure::at(Phase::Forward, 2))?;

    let mut o = Vec::with_capacity(hpr);
    let mut lse = Vec::with_capacity(hpr);
    if topo.ring == 1 {
        // DeepSpeed-Ulysses: every owned head attends the whole sequence
        // locally.
        let idx: Vec<usize> = (0..seq_len).collect();
        for h in 0..hpr {
            let out = flash_forward(&q[h], &k[h], &v[h], scale, mask, &idx, &idx);
            comm.advance_compute(cost.attn_fwd_secs(out.work.pairs, q[h].cols()));
            o.push(out.o);
            lse.push(out.lse);
        }
    } else {
        let ring = Ring::subgroup(comm, topo.r_members.clone());
        for h in 0..hpr {
            let shard = AttnShard {
                q: &q[h],
                k: &k[h],
                v: &v[h],
                scale,
                mask,
                layout: Layout::Zigzag,
                seq_len,
                cost: *cost,
                max_token: None,
                skip: topo.skip,
            };
            let out = try_ring_forward(comm, &ring, &shard)?;
            o.push(out.o);
            lse.push(out.lse);
        }
    }

    let o_heads = to_rows(comm, topo, &o, hpr, AttnFailure::at(Phase::Forward, 3))?;
    // The saved state (Q, K, V, O as f32 plus Lse) is one checkpoint-stash
    // entry spanning forward → backward.
    let mats: usize = q
        .iter()
        .chain(&k)
        .chain(&v)
        .chain(&o)
        .map(Mat::nbytes)
        .sum();
    let vecs: usize = lse.iter().map(|l| 4 * l.len()).sum();
    let mem = comm.mem_alloc("usp_saved", MemCategory::CkptStash, (mats + vecs) as u64);
    Ok((
        o_heads,
        UspSaved {
            q,
            k,
            v,
            o,
            lse,
            mem,
        },
    ))
}

/// USP backward: all-to-all of `∇O`, backward per owned head over the ring
/// shard (zigzag ring backward — Algorithm 1 with fine overlap, LoongTrain's
/// implementation — or the local flash backward for a ring of one),
/// all-to-all of the input gradients back.
///
/// All-to-all failures carry `(Phase::Backward, k)` with `k` the all-to-all
/// index (0 = ∇O, 1 = ∇Q, 2 = ∇K, 3 = ∇V); ring failures keep the ring's
/// own annotation.
#[allow(clippy::too_many_arguments)]
pub fn try_usp_backward(
    comm: &mut Communicator,
    topo: &UspTopo,
    saved: &UspSaved,
    grad_o_heads: &[Mat],
    scale: f32,
    mask: &AttnMask,
    seq_len: usize,
    cost: &CostModel,
) -> Result<HeadGrads, DattnError> {
    let hpr = topo.heads_per_rank(grad_o_heads.len(), seq_len)?;
    // The ring-shard (∇Q, ∇K, ∇V) of this rank's owned heads, live from the
    // per-head backwards until the scatters return them.
    let grads_bytes: usize = 3 * saved.q.iter().map(Mat::nbytes).sum::<usize>();
    let mem_grads = comm.mem_alloc("usp_grads", MemCategory::Activations, grads_bytes as u64);
    let grad_o = to_heads(
        comm,
        topo,
        grad_o_heads,
        hpr,
        AttnFailure::at(Phase::Backward, 0),
    )?;

    let mut dq = Vec::with_capacity(hpr);
    let mut dk = Vec::with_capacity(hpr);
    let mut dv = Vec::with_capacity(hpr);
    if topo.ring == 1 {
        // DeepSpeed-Ulysses: the local backward over the whole sequence.
        let idx: Vec<usize> = (0..seq_len).collect();
        for (h, do_h) in grad_o.iter().enumerate() {
            let (a, b, c, w) = flash_backward(
                &saved.q[h],
                &saved.k[h],
                &saved.v[h],
                &saved.o[h],
                do_h,
                &saved.lse[h],
                scale,
                mask,
                &idx,
                &idx,
            );
            comm.advance_compute(cost.attn_bwd_secs(w.pairs, saved.q[h].cols()));
            dq.push(a);
            dk.push(b);
            dv.push(c);
        }
    } else {
        let ring = Ring::subgroup(comm, topo.r_members.clone());
        for (h, do_h) in grad_o.iter().enumerate() {
            let shard = AttnShard {
                q: &saved.q[h],
                k: &saved.k[h],
                v: &saved.v[h],
                scale,
                mask,
                layout: Layout::Zigzag,
                seq_len,
                cost: *cost,
                max_token: None,
                skip: topo.skip,
            };
            let back = BackwardInputs {
                o: &saved.o[h],
                lse: &saved.lse[h],
                grad_o: do_h,
            };
            let (a, b, c) = try_ring_backward(comm, &ring, &shard, &back, OverlapMode::Fine)?;
            dq.push(a);
            dk.push(b);
            dv.push(c);
        }
    }

    let dq = to_rows(comm, topo, &dq, hpr, AttnFailure::at(Phase::Backward, 1))?;
    let dk = to_rows(comm, topo, &dk, hpr, AttnFailure::at(Phase::Backward, 2))?;
    let dv = to_rows(comm, topo, &dv, hpr, AttnFailure::at(Phase::Backward, 3))?;
    comm.mem_free(mem_grads);
    comm.mem_free(saved.mem);
    Ok((dq, dk, dv))
}
