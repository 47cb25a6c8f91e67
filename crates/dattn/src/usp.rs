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
//!    over the zigzag shards of the size-`R` ring, or — when `U = G` and
//!    the ring has one position — local attention over the whole sequence,
//!    which is DeepSpeed-Ulysses,
//! 3. a reverse all-to-all restores the sequence partition and returns
//!    each head's `(O, Lse)` on the caller's rows; the Lse rides the same
//!    round as f32 vectors, so a bf16 wire never rounds it.
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
//! one Algorithm-1 pass per head ([`try_double_ring_backward_alg1_on`]):
//! USP stays an Algorithm-1 baseline.
//!
//! The backward consumes the forward's outputs, as a FlashAttention-style
//! kernel does, and never reruns the forward: all-to-alls move `Q, K, V`,
//! `O` with its Lse and `∇O` to head shards, the ring (or local) backward
//! runs per owned head, and all-to-alls return `∇Q, ∇K, ∇V`. What a
//! training step recomputes is the checkpointing strategy's choice alone.
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
    try_double_ring_backward_alg1_on, try_double_ring_forward_heads_on, DoubleRingSpec,
};
use crate::layout::Layout;
use crate::ring::{AttnFailure, AttnShard, BackwardInputs, Phase};
use crate::DattnError;
use burst_comm::{CommError, Communicator, MemCategory, SpanKind};
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

/// One member's share of an all-to-all: its heads side by side and, for
/// the attention output, those heads' Lse one after another. The Lse
/// travels as an f32 vector, so a bf16 wire never rounds it.
type Block = (Mat, Option<Vec<f32>>);

/// All-to-all within the Ulysses group (outgoing indexed by member
/// position). Each call is one `a2a` round in the trace; a failure
/// mid-exchange settles the span before propagating.
fn all_to_all(
    comm: &mut Communicator,
    members: &[usize],
    outgoing: Vec<Block>,
) -> Result<Vec<Block>, CommError> {
    let depth = comm.span_depth();
    comm.span_begin(SpanKind::AttnRound, "a2a");
    // Staging for the exchange: the outgoing blocks plus the equal-sized
    // incoming set, live for the duration of the a2a, billed at the wire
    // dtype (the Lse at 4 bytes).
    let mats: usize = outgoing.iter().map(|b| b.0.len()).sum();
    let lse: usize = outgoing.iter().flat_map(|b| &b.1).map(Vec::len).sum();
    let staging = 2 * (comm.mem_wire_bytes(mats) + 4 * lse as u64);
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
    let with_lse = outgoing[pos].1.is_some();
    let mut incoming: Vec<Option<Block>> = vec![None; len];
    for (p, block) in outgoing.into_iter().enumerate() {
        if p == pos {
            incoming[pos] = Some(block);
            continue;
        }
        comm.try_send_mat(members[p], &block.0)?;
        if let Some(lse) = &block.1 {
            comm.try_send_vec(members[p], lse)?;
        }
    }
    for off in 1..len {
        let sp = (pos + len - off) % len;
        let mat = comm.try_recv_mat(members[sp])?;
        let lse = if with_lse {
            Some(comm.try_recv_vec(members[sp])?)
        } else {
            None
        };
        incoming[sp] = Some((mat, lse));
    }
    Ok(incoming
        .into_iter()
        .map(|b| b.expect("all_to_all: every member's block arrived"))
        .collect())
}

/// Split a bundle of `n` equal column groups back into heads.
fn unbundle(bundle: &Mat, n: usize) -> Vec<Mat> {
    let dh = bundle.cols() / n;
    (0..n)
        .map(|h| bundle.slice_cols(h * dh, (h + 1) * dh))
        .collect()
}

/// Head `h` of a block's Lse vector, which holds `n` equal pieces.
fn lse_piece(lse: &[f32], n: usize, h: usize) -> &[f32] {
    let rows = lse.len() / n;
    &lse[h * rows..(h + 1) * rows]
}

/// Sequence shards → head shards: member `p` receives heads
/// `p·hpr..(p+1)·hpr` of every member's rows, stacked in member order,
/// with their Lse when `lse` is given (empty otherwise).
fn to_heads(
    comm: &mut Communicator,
    topo: &UspTopo,
    heads: &[Mat],
    lse: Option<&[Vec<f32>]>,
    hpr: usize,
    at: impl Fn(CommError) -> AttnFailure,
) -> Result<(Vec<Mat>, Vec<Vec<f32>>), AttnFailure> {
    let outgoing: Vec<Block> = (0..topo.ulysses)
        .map(|p| {
            let owned = p * hpr..(p + 1) * hpr;
            let stats = lse.map(|l| l[owned.clone()].concat());
            (Mat::hstack(&heads[owned]), stats)
        })
        .collect();
    let incoming = all_to_all(comm, &topo.u_members, outgoing).map_err(at)?;
    let (mats, stats): (Vec<Mat>, Vec<Option<Vec<f32>>>) = incoming.into_iter().unzip();
    let stats: Vec<Vec<f32>> = stats.into_iter().flatten().collect();
    let lse = lse.map_or_else(Vec::new, |_| {
        (0..hpr)
            .map(|h| {
                stats
                    .iter()
                    .flat_map(|s| lse_piece(s, hpr, h))
                    .copied()
                    .collect()
            })
            .collect()
    });
    Ok((unbundle(&Mat::vstack(&mats), hpr), lse))
}

/// Head shards → sequence shards, the reverse of [`to_heads`]: member `p`
/// receives its row slice of this rank's heads, with their Lse when `lse`
/// is given (empty otherwise).
fn to_rows(
    comm: &mut Communicator,
    topo: &UspTopo,
    shards: &[Mat],
    lse: Option<&[Vec<f32>]>,
    hpr: usize,
    at: impl Fn(CommError) -> AttnFailure,
) -> Result<(Vec<Mat>, Vec<Vec<f32>>), AttnFailure> {
    let rows = shards[0].rows() / topo.ulysses;
    let outgoing: Vec<Block> = (0..topo.ulysses)
        .map(|p| {
            let mine = p * rows..(p + 1) * rows;
            let slices: Vec<Mat> = shards
                .iter()
                .map(|s| s.slice_rows(mine.start, mine.end))
                .collect();
            let stats = lse.map(|l| l.iter().flat_map(|h| &h[mine.clone()]).copied().collect());
            (Mat::hstack(&slices), stats)
        })
        .collect();
    let incoming = all_to_all(comm, &topo.u_members, outgoing).map_err(at)?;
    let mats = incoming.iter().flat_map(|b| unbundle(&b.0, hpr)).collect();
    let lse = incoming
        .iter()
        .filter_map(|b| b.1.as_deref())
        .flat_map(|s| (0..hpr).map(move |h| lse_piece(s, hpr, h).to_vec()))
        .collect();
    Ok((mats, lse))
}

/// USP forward: all-to-alls move Q, K and V to head shards, attention runs
/// over the ring shard for every owned head at once (one pipelined pass
/// over the two-level ring, or local flash attention for a ring of one),
/// and a reverse all-to-all returns each head's `(O, Lse)` on this rank's
/// rows. Nothing is kept for the backward: [`try_usp_backward`] takes the
/// outputs back from the caller.
///
/// All-to-all failures carry `(Phase::Forward, k)` with `k` the all-to-all
/// index in the order they run: 0 = Q, 1 = K, 2 = V, 3 = O with its Lse.
/// Ring failures carry `(Phase::Forward, outer · gpn + inner)`, the
/// two-level slot label (see the module docs).
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
) -> Result<HeadOuts, DattnError> {
    let hpr = topo.heads_per_rank(q_heads.len(), seq_len)?;
    let at = |k| AttnFailure::at(Phase::Forward, k);
    let (q, _) = to_heads(comm, topo, q_heads, None, hpr, at(0))?;
    let (k, _) = to_heads(comm, topo, k_heads, None, hpr, at(1))?;
    let (v, _) = to_heads(comm, topo, v_heads, None, hpr, at(2))?;

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
    Ok(to_rows(comm, topo, &o, Some(&lse), hpr, at(3))?)
}

/// USP backward from the tensors the caller holds on its rows: `Q, K, V`,
/// the forward's `(O, Lse)` and `∇O`. All-to-alls move them to head
/// shards, the backward runs one owned head at a time over the ring shard
/// (Algorithm 1 over the two-level ring, LoongTrain's DoubleRing backward,
/// or the local flash backward for a ring of one), and all-to-alls return
/// the input gradients. No forward runs here.
///
/// The rebuilt head-shard context (`Q, K, V, O` and Lse) is billed as
/// `usp_saved` from the first all-to-all until the gradients have left.
///
/// All-to-all failures carry `(Phase::Backward, k)` with `k` the
/// all-to-all index in the order they run: 0 = Q, 1 = K, 2 = V, 3 = O with
/// its Lse, 4 = ∇O, 5 = ∇Q, 6 = ∇K, 7 = ∇V. Ring failures carry
/// `(Phase::Backward, outer · gpn + inner)`, the two-level slot label (see
/// the module docs).
#[allow(clippy::too_many_arguments)]
pub fn try_usp_backward(
    comm: &mut Communicator,
    topo: &UspTopo,
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
    // The all-to-alls only move elements between ranks, so the head-shard
    // context is as large as the row-shard tensors it is built from.
    let mats: usize = [q_heads, k_heads, v_heads, o_heads]
        .iter()
        .flat_map(|hs| hs.iter())
        .map(Mat::nbytes)
        .sum();
    let vecs: usize = lse_heads.iter().map(|l| 4 * l.len()).sum();
    let mem_saved = comm.mem_alloc("usp_saved", MemCategory::CkptStash, (mats + vecs) as u64);
    let (q, _) = to_heads(comm, topo, q_heads, None, hpr, at(0))?;
    let (k, _) = to_heads(comm, topo, k_heads, None, hpr, at(1))?;
    let (v, _) = to_heads(comm, topo, v_heads, None, hpr, at(2))?;
    let (o, lse) = to_heads(comm, topo, o_heads, Some(lse_heads), hpr, at(3))?;
    let (grad_o, _) = to_heads(comm, topo, grad_o_heads, None, hpr, at(4))?;

    // The ring-shard (∇Q, ∇K, ∇V) of this rank's owned heads, live from the
    // per-head backwards until the all-to-alls return them.
    let grads_bytes: usize = 3 * q.iter().map(Mat::nbytes).sum::<usize>();
    let mem_grads = comm.mem_alloc("usp_grads", MemCategory::Activations, grads_bytes as u64);
    let mut dq = Vec::with_capacity(hpr);
    let mut dk = Vec::with_capacity(hpr);
    let mut dv = Vec::with_capacity(hpr);
    if topo.ring == 1 {
        // DeepSpeed-Ulysses: the local backward over the whole sequence.
        let idx: Vec<usize> = (0..seq_len).collect();
        for h in 0..hpr {
            let (a, b, c, w) = flash_backward(
                &q[h], &k[h], &v[h], &o[h], &grad_o[h], &lse[h], scale, mask, &idx, &idx,
            );
            comm.advance_compute(cost.attn_bwd_secs(w.pairs, q[h].cols()));
            dq.push(a);
            dk.push(b);
            dv.push(c);
        }
    } else {
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
            let back = BackwardInputs {
                o: &o[h],
                lse: &lse[h],
                grad_o: &grad_o[h],
            };
            let (a, b, c) = try_double_ring_backward_alg1_on(comm, &shard, &back, &topo.ring_spec)?;
            dq.push(a);
            dk.push(b);
            dv.push(c);
        }
    }

    let (dq, _) = to_rows(comm, topo, &dq, None, hpr, at(5))?;
    let (dk, _) = to_rows(comm, topo, &dk, None, hpr, at(6))?;
    let (dv, _) = to_rows(comm, topo, &dv, None, hpr, at(7))?;
    comm.mem_free(mem_grads);
    comm.mem_free(mem_saved);
    Ok((dq, dk, dv))
}
