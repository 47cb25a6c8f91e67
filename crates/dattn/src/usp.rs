//! Head parallelism: LoongTrain's USP hybrid (the paper's strongest
//! baseline) and, as its ring-of-one case, DeepSpeed-Ulysses.
//!
//! With `G = U × R` ranks (head-first placement: consecutive ranks — i.e.
//! NVLink neighbours — form a Ulysses group of size `U`; same-position
//! ranks across groups form a context-parallel ring of size `R`):
//!
//! 1. one intra-group all-to-all turns the sequence shards of `Q, K, V`
//!    into head shards, the three tensors packed in one message per peer
//!    (all NVLink traffic),
//! 2. each rank attends its `H/U` heads over its ring shard: ring attention
//!    over the zigzag shards of the size-`R` ring, or — when `U = G` and
//!    the ring has one position — local attention over the whole sequence,
//!    which is DeepSpeed-Ulysses,
//! 3. a reverse all-to-all restores the sequence partition and returns
//!    each head's `(O, Lse)` on the caller's rows; the Lse rides the same
//!    message as f32 values, so a bf16 wire never rounds it.
//!
//! The ring leg runs on the two-level ring of LoongTrain's
//! DoubleRingAttention ([`crate::double_ring`]). Its members — every
//! `U`-th rank — are split by node when every node holds the same number
//! of them ([`DoubleRingSpec::two_level_or_flat`]): inner hops go to the
//! next member on the same node, over NVLink, and only the outer hops, to
//! the same-position member of the neighbouring node, cross a NIC, so
//! every member carries an equal share of the cross-node traffic at once.
//! With one member per node the ring is that cross-node ring alone; on one
//! node, or with members ragged across nodes, it is one level, the flat
//! ring over the members. The forward runs every owned head through one
//! pipelined pass ([`try_double_ring_forward_heads_on`]), so head `h + 1`'s
//! cross-node `(K, V)` hides behind head `h`'s sweeps. The backward runs
//! every owned head through one Algorithm 1 call
//! ([`try_double_ring_backward_alg1_heads_on`]), so USP stays an
//! Algorithm 1 baseline: the heads run one after another, and head `h`'s
//! own `(∇K, ∇V)`, the last receive of its completion, land behind head
//! `h + 1`'s first sweep. That landing is the head's gradient output, which
//! `usp_grads` already bills, so it opens no entry of its own.
//!
//! The backward consumes the forward's outputs, as a FlashAttention-style
//! kernel does, and never reruns the forward. The forward hands back its
//! head-shard `Q, K, V` ([`UspCtx`]), as LoongTrain keeps them, so the
//! backward that follows moves only `(O, Lse)` and `∇O` to head shards, in
//! one all-to-all; a backward handed no context first runs the forward's
//! packed `Q, K, V` exchange. The ring (or local) backward runs per owned
//! head, and one all-to-all returns `∇Q, ∇K, ∇V`. Every phase is one
//! all-to-all: two in the forward, two in a backward with a context, three
//! without. What a training step recomputes is the checkpointing
//! strategy's choice alone.
//!
//! Ledger: each all-to-all stages its outgoing and incoming blocks
//! (`a2a_staging`) for its duration; the context (`usp_saved`) holds the
//! head-shard `Q, K, V` from the landing of their exchange and, in the
//! backward, the head-shard `O` and Lse from the landing of theirs; the
//! ring-shard gradients (`usp_grads`) open before the ring pass. Algorithm
//! 1 accumulates each head's `∇Q` in place, in `usp_grads`, so the pass
//! bills no `∇Q` accumulator of its own, only its bundle slots. The whole
//! context closes after the ring pass, before the gradient exchange, and
//! the gradients when that exchange is done.
//!
//! The ring carries `N/R`-token shards instead of `N/G`, but only `R` hops;
//! the all-to-alls add `O(N·d/G)` NVLink traffic. USP's win over pure ring
//! attention comes from replacing most inter-node ring hops with cheap
//! intra-node all-to-alls. Head parallelism caps `U` at the head count: 40
//! heads on 32 GPUs (the paper's 14B setting) cannot run as pure Ulysses,
//! which [`UlyssesError::HeadsNotDivisible`] reports exactly as DeepSpeed
//! does.
//!
//! A failure reports `(phase, round)`. On an all-to-all the round is the
//! all-to-all's index in its direction (listed on [`try_usp_forward`] and
//! [`try_usp_backward`]). On the ring leg it is the two-level ring's slot
//! label `outer · gpn + inner`, where `gpn` is the ring's members per node
//! (its size on a one-level ring) and `outer` counts cross-node steps.

use crate::cost::CostModel;
use crate::double_ring::{
    try_double_ring_backward_alg1_heads_on, try_double_ring_forward_heads_on, DoubleRingSpec,
};
use crate::layout::Layout;
use crate::ring::{AttnFailure, AttnShard, BackwardInputs, Phase};
use crate::DattnError;
use burst_comm::{CommError, Communicator, MemCategory, MemId, SpanKind};
use burst_kernels::{flash_backward, flash_forward, AttnMask};
use burst_tensor::Mat;
use std::ops::Range;

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

/// Per-head `(O, Lse)` pair returned by the forward pass.
pub type HeadOuts = (Vec<Mat>, Vec<Vec<f32>>);

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
    /// This rank's context-parallel ring over the stride-`U` ranks:
    /// two-level when they are node-balanced, otherwise one level. Its
    /// slots are the members in ascending order, so a slot is a ring
    /// position.
    ring_spec: DoubleRingSpec,
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
        let r_members: Vec<usize> = (0..r).map(|i| u_pos + i * ulysses_size).collect();
        UspTopo {
            ulysses: ulysses_size,
            ring: r,
            u_members: (r_pos * ulysses_size..(r_pos + 1) * ulysses_size).collect(),
            ring_spec: DoubleRingSpec::two_level_or_flat(comm.topology(), &r_members),
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

    /// The context-parallel ring the ring leg runs on. This rank is its
    /// slot `r_pos` and holds that ring position's zigzag shard.
    pub fn ring_spec(&self) -> &DoubleRingSpec {
        &self.ring_spec
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

/// The head-shard `Q, K, V` of one forward: what this rank's owned heads
/// attended with, each over the ring shard (the whole sequence at
/// `U = G`). [`try_usp_forward`] hands it back so the backward that
/// follows need not exchange `Q, K, V` again, as LoongTrain keeps its head
/// shards. It is billed as `usp_saved` from the landing of its exchange
/// until [`try_usp_backward`] consumes it or [`UspCtx::release`] drops it.
#[derive(Debug)]
pub struct UspCtx {
    q: Vec<Mat>,
    k: Vec<Mat>,
    v: Vec<Mat>,
    mem: Option<MemId>,
}

impl UspCtx {
    /// Drop the context unused, closing its ledger entry.
    pub fn release(self, comm: &mut Communicator) {
        comm.mem_free(self.mem);
    }
}

/// One member's share of an all-to-all: a block of head matrices packed
/// side by side, with `f32` values riding beside it in the same message
/// (empty for none). The values are Lse, which a bf16 wire never rounds.
type Block = (Mat, Vec<f32>);

/// All-to-all within the Ulysses group (outgoing indexed by member
/// position): one message per peer. Each call is one `a2a` round in the
/// trace; a failure mid-exchange settles the span before propagating.
fn all_to_all(
    comm: &mut Communicator,
    members: &[usize],
    outgoing: Vec<Block>,
) -> Result<Vec<Block>, CommError> {
    let depth = comm.span_depth();
    comm.span_begin(SpanKind::AttnRound, "a2a");
    // Staging for the exchange: the outgoing blocks plus the equal-sized
    // incoming set, live for the duration of the a2a, billed at the wire
    // dtype (the values at 4 bytes).
    let mats: usize = outgoing.iter().map(|b| b.0.len()).sum();
    let vals: usize = outgoing.iter().map(|b| b.1.len()).sum();
    let staging = 2 * (comm.mem_wire_bytes(mats) + 4 * vals as u64);
    let mem = comm.mem_alloc("a2a_staging", MemCategory::CommBuffers, staging);
    let res = exchange(comm, members, outgoing);
    comm.mem_free(mem);
    comm.span_unwind(depth);
    res
}

fn exchange(
    comm: &mut Communicator,
    members: &[usize],
    outgoing: Vec<Block>,
) -> Result<Vec<Block>, CommError> {
    let pos = members
        .iter()
        .position(|&m| m == comm.rank())
        .expect("all_to_all: caller not in group");
    let len = members.len();
    let mut incoming: Vec<Option<Block>> = vec![None; len];
    for (p, (mat, vals)) in outgoing.into_iter().enumerate() {
        if p == pos {
            incoming[pos] = Some((mat, vals));
        } else {
            comm.try_send_mat_vals(members[p], mat, vals)?;
        }
    }
    for off in 1..len {
        let sp = (pos + len - off) % len;
        incoming[sp] = Some(comm.try_recv_mat_vals(members[sp])?);
    }
    Ok(incoming
        .into_iter()
        .map(|b| b.expect("all_to_all: every member's block arrived"))
        .collect())
}

/// What an all-to-all delivered: per tensor, its head matrices, and the
/// heads' Lse (empty when none rode along).
type Moved = (Vec<Vec<Mat>>, Vec<Vec<f32>>);

/// Rows `rows` of every matrix in `parts`, side by side.
fn pack(parts: &[&Mat], rows: Range<usize>) -> Mat {
    let cols: usize = parts.iter().map(|m| m.cols()).sum();
    let mut data = Vec::with_capacity(rows.len() * cols);
    for r in rows.clone() {
        for m in parts {
            data.extend_from_slice(m.row(r));
        }
    }
    Mat::from_vec(rows.len(), cols, data)
}

/// Sequence shards → head shards. `tensors` are per-head matrices on this
/// rank's rows; member `p` receives heads `p·hpr..(p+1)·hpr` of every
/// tensor in one block, with the Lse of those heads when `lse` is given.
/// Returns, per tensor, the owned heads over every member's rows stacked
/// in member order, and the owned heads' Lse (empty without `lse`).
fn to_heads(
    comm: &mut Communicator,
    topo: &UspTopo,
    tensors: &[&[Mat]],
    lse: Option<&[Vec<f32>]>,
    hpr: usize,
    at: impl Fn(CommError) -> AttnFailure,
) -> Result<Moved, AttnFailure> {
    let rows = tensors[0][0].rows();
    let outgoing: Vec<Block> = (0..topo.ulysses)
        .map(|p| {
            let owned = p * hpr..(p + 1) * hpr;
            let parts: Vec<&Mat> = tensors.iter().flat_map(|t| &t[owned.clone()]).collect();
            let stats = lse.map_or_else(Vec::new, |l| l[owned].concat());
            (pack(&parts, 0..rows), stats)
        })
        .collect();
    let incoming = all_to_all(comm, &topo.u_members, outgoing).map_err(at)?;
    // Column group `i` of every block is one head: stack its rows.
    let dh = tensors[0][0].cols();
    let total = rows * topo.ulysses;
    let group = |i: usize| {
        let mut data = Vec::with_capacity(total * dh);
        for (block, _) in &incoming {
            for r in 0..block.rows() {
                data.extend_from_slice(&block.row(r)[i * dh..(i + 1) * dh]);
            }
        }
        Mat::from_vec(total, dh, data)
    };
    let heads = (0..tensors.len())
        .map(|t| (0..hpr).map(|h| group(t * hpr + h)).collect())
        .collect();
    // Each block's values are its sender's rows of the owned heads' Lse,
    // one head after another.
    let lse = lse.map_or_else(Vec::new, |_| {
        (0..hpr)
            .map(|h| {
                incoming
                    .iter()
                    .flat_map(|(_, s)| &s[h * rows..(h + 1) * rows])
                    .copied()
                    .collect()
            })
            .collect()
    });
    Ok((heads, lse))
}

/// Head shards → sequence shards, the reverse of [`to_heads`]: member `p`
/// receives its row slice of this rank's heads of every tensor in one
/// block, with those heads' Lse when `lse` is given. Returns, per tensor,
/// every head on this rank's rows, and their Lse (empty without `lse`).
fn to_rows(
    comm: &mut Communicator,
    topo: &UspTopo,
    tensors: &[&[Mat]],
    lse: Option<&[Vec<f32>]>,
    hpr: usize,
    at: impl Fn(CommError) -> AttnFailure,
) -> Result<Moved, AttnFailure> {
    let rows = tensors[0][0].rows() / topo.ulysses;
    let parts: Vec<&Mat> = tensors.iter().flat_map(|t| t.iter()).collect();
    let outgoing: Vec<Block> = (0..topo.ulysses)
        .map(|p| {
            let mine = p * rows..(p + 1) * rows;
            let stats = lse.map_or_else(Vec::new, |l| {
                l.iter().flat_map(|h| &h[mine.clone()]).copied().collect()
            });
            (pack(&parts, mine), stats)
        })
        .collect();
    let incoming = all_to_all(comm, &topo.u_members, outgoing).map_err(at)?;
    // Member `m`'s block holds heads `m·hpr..(m+1)·hpr` of every tensor.
    let dh = tensors[0][0].cols();
    let heads = (0..tensors.len())
        .map(|t| {
            incoming
                .iter()
                .flat_map(|(block, _)| {
                    (0..hpr)
                        .map(move |h| block.slice_cols((t * hpr + h) * dh, (t * hpr + h + 1) * dh))
                })
                .collect()
        })
        .collect();
    let lse = lse.map_or_else(Vec::new, |_| {
        incoming
            .iter()
            .flat_map(|(_, s)| (0..hpr).map(move |h| s[h * rows..(h + 1) * rows].to_vec()))
            .collect()
    });
    Ok((heads, lse))
}

/// One packed all-to-all of `Q, K, V` to head shards, billed as
/// `usp_saved` from the moment it lands.
fn context(
    comm: &mut Communicator,
    topo: &UspTopo,
    qkv: [&[Mat]; 3],
    hpr: usize,
    at: impl Fn(CommError) -> AttnFailure,
) -> Result<UspCtx, AttnFailure> {
    let (heads, _) = to_heads(comm, topo, &qkv, None, hpr, at)?;
    let bytes: usize = heads.iter().flatten().map(Mat::nbytes).sum();
    let mem = comm.mem_alloc("usp_saved", MemCategory::CkptStash, bytes as u64);
    let [q, k, v]: [Vec<Mat>; 3] = heads.try_into().expect("three tensors");
    Ok(UspCtx { q, k, v, mem })
}

/// USP forward: one packed all-to-all moves Q, K and V to head shards,
/// attention runs over the ring shard for every owned head at once (one
/// pipelined pass over the two-level ring, or local flash attention for a
/// ring of one), and a reverse all-to-all returns each head's `(O, Lse)`
/// on this rank's rows. The head-shard `Q, K, V` come back as a
/// [`UspCtx`] for [`try_usp_backward`]; a caller with no backward to follow
/// releases it.
///
/// All-to-all failures carry `(Phase::Forward, k)` with `k` the
/// all-to-all index in the order they run: 0 = Q|K|V, 1 = (O, Lse). Ring
/// failures carry `(Phase::Forward, outer · gpn + inner)`, the two-level
/// slot label (see the module docs).
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
) -> Result<(HeadOuts, UspCtx), DattnError> {
    let hpr = topo.heads_per_rank(q_heads.len(), seq_len)?;
    let at = |k| AttnFailure::at(Phase::Forward, k);
    let ctx = context(comm, topo, [q_heads, k_heads, v_heads], hpr, at(0))?;
    let (q, k, v) = (&ctx.q, &ctx.k, &ctx.v);

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
        let shards: Vec<AttnShard> = (0..hpr)
            .map(|h| AttnShard {
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
            })
            .collect();
        for out in try_double_ring_forward_heads_on(comm, &shards, &topo.ring_spec)? {
            o.push(out.o);
            lse.push(out.lse);
        }
    }
    let (outs, lse) = to_rows(comm, topo, &[&o], Some(&lse), hpr, at(1))?;
    let [o]: [Vec<Mat>; 1] = outs.try_into().expect("one tensor");
    Ok(((o, lse), ctx))
}

/// USP backward from the tensors the caller holds on its rows: `Q, K, V`,
/// the forward's `(O, Lse)` and `∇O`. `held` is the context the forward
/// over the same `Q, K, V` handed back; without one, the forward's packed
/// all-to-all first moves `Q, K, V` to head shards. One all-to-all moves
/// `(O, Lse)` and `∇O`: the caller's `(O, Lse)`, not the forward's, so
/// outputs a checkpointing strategy stitched from a recompute and a cache
/// are the ones differentiated. The backward then runs every owned head
/// over the ring shard (one Algorithm 1 call over the two-level ring,
/// LoongTrain's DoubleRing backward, each head's `(∇K, ∇V)` landing behind
/// the next head's first sweep; or the local flash backward for a ring of
/// one), and one all-to-all returns the input gradients. No forward runs
/// here.
///
/// The context is billed as `usp_saved` — its `Q, K, V` from the landing of
/// their exchange, the head-shard `O` and Lse from the landing of theirs —
/// and closes after the ring pass, before the gradients leave.
/// Once the exchange has sent the caller's `O`, a checkpoint stash's cached
/// copy of it closes ([`Communicator::mem_stash_close_o`]).
///
/// All-to-all failures carry `(Phase::Backward, k)` with `k` the
/// all-to-all's index: 0 = Q|K|V (run only without `held`), 1 = (O, Lse)|∇O,
/// 2 = ∇Q|∇K|∇V. Ring failures carry `(Phase::Backward, outer · gpn +
/// inner)`, the two-level slot label (see the module docs).
#[allow(clippy::too_many_arguments)]
pub fn try_usp_backward(
    comm: &mut Communicator,
    topo: &UspTopo,
    held: Option<UspCtx>,
    q_heads: &[Mat],
    k_heads: &[Mat],
    v_heads: &[Mat],
    o_heads: &[Mat],
    lse_heads: &[Vec<f32>],
    grad_o_heads: &[Mat],
    scale: f32,
    mask: &AttnMask,
    seq_len: usize,
    cost: &CostModel,
) -> Result<HeadGrads, DattnError> {
    let hpr = topo.heads_per_rank(q_heads.len(), seq_len)?;
    let at = |k| AttnFailure::at(Phase::Backward, k);
    let ctx = match held {
        Some(ctx) => ctx,
        None => context(comm, topo, [q_heads, k_heads, v_heads], hpr, at(0))?,
    };
    let (outs, lse) = to_heads(
        comm,
        topo,
        &[o_heads, grad_o_heads],
        Some(lse_heads),
        hpr,
        at(1),
    )?;
    let [o, grad_o]: [Vec<Mat>; 2] = outs.try_into().expect("two tensors");
    // The exchange has sent the caller's `O`: a checkpoint stash's cached
    // copy of it is dead.
    comm.mem_stash_close_o();
    let out_bytes: usize =
        o.iter().map(Mat::nbytes).sum::<usize>() + 4 * lse.iter().map(Vec::len).sum::<usize>();
    let mem_out = comm.mem_alloc("usp_saved", MemCategory::CkptStash, out_bytes as u64);
    let (q, k, v) = (&ctx.q, &ctx.k, &ctx.v);

    // The ring-shard (∇Q, ∇K, ∇V) of this rank's owned heads, live from the
    // ring pass until the all-to-all returns them.
    let grads_bytes: usize = 3 * q.iter().map(Mat::nbytes).sum::<usize>();
    let mem_grads = comm.mem_alloc("usp_grads", MemCategory::Activations, grads_bytes as u64);
    let grads: Vec<(Mat, Mat, Mat)> = if topo.ring == 1 {
        // DeepSpeed-Ulysses: the local backward over the whole sequence.
        let idx: Vec<usize> = (0..seq_len).collect();
        (0..hpr)
            .map(|h| {
                let (a, b, c, w) = flash_backward(
                    &q[h], &k[h], &v[h], &o[h], &grad_o[h], &lse[h], scale, mask, &idx, &idx,
                );
                comm.advance_compute(cost.attn_bwd_secs(w.pairs, q[h].cols()));
                (a, b, c)
            })
            .collect()
    } else {
        let ds: Vec<Vec<f32>> = (0..hpr).map(|h| grad_o[h].rowsum_hadamard(&o[h])).collect();
        let heads: Vec<(AttnShard, BackwardInputs)> = (0..hpr)
            .map(|h| {
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
                let back = BackwardInputs {
                    lse: &lse[h],
                    grad_o: &grad_o[h],
                    d: &ds[h],
                };
                (shard, back)
            })
            .collect();
        // `usp_grads` already bills each head's ∇Q, which Algorithm 1
        // accumulates in place.
        try_double_ring_backward_alg1_heads_on(comm, &heads, &topo.ring_spec, true)?
    };
    let (dq, (dk, dv)): (Vec<Mat>, (Vec<Mat>, Vec<Mat>)) =
        grads.into_iter().map(|(a, b, c)| (a, (b, c))).unzip();
    // The whole context goes before the gradients leave.
    comm.mem_free(mem_out);
    ctx.release(comm);
    drop((o, grad_o, lse));

    let (grads, _) = to_rows(comm, topo, &[&dq, &dk, &dv], None, hpr, at(2))?;
    comm.mem_free(mem_grads);
    let [dq, dk, dv]: [Vec<Mat>; 3] = grads.try_into().expect("three tensors");
    Ok((dq, dk, dv))
}
