//! DeepSpeed-Ulysses head parallelism.
//!
//! Each rank starts with its sequence chunk of **all** heads. An all-to-all
//! re-partitions to *all* of the sequence × a subset of heads; attention is
//! then entirely local (no ring), and a second all-to-all restores the
//! sequence partition. Communication per rank is `O(N·d/G)` — cheaper than
//! ring attention's `O(N·d)` — but head parallelism caps the group size at
//! the head count: 40 heads on 32 GPUs (the paper's 14B setting) is
//! impossible, which [`UlyssesError::HeadsNotDivisible`] reports exactly as
//! DeepSpeed does.

use crate::cost::CostModel;
use crate::ring::{AttnFailure, Phase};
use crate::DattnError;
use burst_comm::{CommError, Communicator, MemCategory, MemId, SpanKind};
use burst_kernels::{flash_backward, flash_forward, AttnMask};
use burst_tensor::Mat;

/// Why Ulysses could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UlyssesError {
    /// Head parallelism requires `heads % group_size == 0`.
    HeadsNotDivisible { heads: usize, group: usize },
}

impl std::fmt::Display for UlyssesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UlyssesError::HeadsNotDivisible { heads, group } => write!(
                f,
                "Ulysses head parallelism infeasible: {heads} heads not divisible by \
                 group size {group}"
            ),
        }
    }
}

impl std::error::Error for UlyssesError {}

/// All-to-all restricted to `members` (outgoing indexed by member position).
pub(crate) fn group_all_to_all(
    comm: &mut Communicator,
    members: &[usize],
    outgoing: Vec<Mat>,
) -> Vec<Mat> {
    match try_group_all_to_all(comm, members, outgoing) {
        Ok(v) => v,
        Err(e) => comm.escalate(e),
    }
}

/// Fallible [`group_all_to_all`]. Each call is one `a2a` round in the
/// trace; a failure mid-exchange settles the span before propagating.
pub(crate) fn try_group_all_to_all(
    comm: &mut Communicator,
    members: &[usize],
    outgoing: Vec<Mat>,
) -> Result<Vec<Mat>, CommError> {
    let depth = comm.span_depth();
    comm.span_begin(SpanKind::AttnRound, "a2a");
    // Staging for the exchange: the outgoing blocks plus the equal-sized
    // incoming set, live for the duration of the a2a, billed at the wire
    // dtype. One hook covers Ulysses and USP.
    let out_elems: usize = outgoing.iter().map(Mat::len).sum();
    let staging = 2 * comm.mem_wire_bytes(out_elems);
    let mem = comm.mem_alloc("a2a_staging", MemCategory::CommBuffers, staging);
    let res = a2a_inner(comm, members, outgoing);
    comm.mem_free(mem);
    comm.span_unwind(depth);
    res
}

fn a2a_inner(
    comm: &mut Communicator,
    members: &[usize],
    outgoing: Vec<Mat>,
) -> Result<Vec<Mat>, CommError> {
    assert_eq!(outgoing.len(), members.len(), "group_all_to_all: size");
    let pos = members
        .iter()
        .position(|&m| m == comm.rank())
        .expect("group_all_to_all: caller not in group");
    let len = members.len();
    let mut incoming: Vec<Option<Mat>> = vec![None; len];
    let mut keep = None;
    for (p, block) in outgoing.into_iter().enumerate() {
        if p == pos {
            keep = Some(block);
        } else {
            comm.try_send_mat(members[p], &block)?;
        }
    }
    incoming[pos] = keep;
    for off in 1..len {
        let sp = (pos + len - off) % len;
        incoming[sp] = Some(comm.try_recv_mat(members[sp])?);
    }
    Ok(incoming.into_iter().map(|m| m.unwrap()).collect())
}

/// Bundle `heads[h0..h1]` column-wise into one matrix.
fn bundle_heads(heads: &[Mat], h0: usize, h1: usize) -> Mat {
    Mat::hstack(&heads[h0..h1])
}

/// Split a bundle of `n_heads` equal column groups back into heads.
fn unbundle_heads(bundle: &Mat, n_heads: usize) -> Vec<Mat> {
    let dh = bundle.cols() / n_heads;
    (0..n_heads)
        .map(|h| bundle.slice_cols(h * dh, (h + 1) * dh))
        .collect()
}

/// State saved by the forward for the backward pass: the full-sequence
/// tensors of this rank's owned heads.
pub struct UlyssesSaved {
    q: Vec<Mat>,
    k: Vec<Mat>,
    v: Vec<Mat>,
    o: Vec<Mat>,
    lse: Vec<Vec<f32>>,
    heads_per_rank: usize,
    /// Accountant handle for the stash: opened when the forward saves this
    /// state, closed when the backward consumes it.
    mem: Option<MemId>,
}

impl UlyssesSaved {
    /// Discard the state without running the backward, closing its stash
    /// entry — for callers that rebuild it (recompute) instead of keeping
    /// it.
    pub fn release(self, comm: &mut Communicator) {
        comm.mem_free(self.mem);
    }
}

/// Bill the full-sequence saved state (Q, K, V, O as f32 plus Lse) as one
/// checkpoint-stash entry spanning forward → backward.
pub(crate) fn stash_entry(
    comm: &mut Communicator,
    name: &str,
    q: &[Mat],
    k: &[Mat],
    v: &[Mat],
    o: &[Mat],
    lse: &[Vec<f32>],
) -> Option<MemId> {
    let mats: usize = q.iter().chain(k).chain(v).chain(o).map(Mat::nbytes).sum();
    let vecs: usize = lse.iter().map(|l| 4 * l.len()).sum();
    comm.mem_alloc(name, MemCategory::CkptStash, (mats + vecs) as u64)
}

/// Ulysses forward. `member_idx[p]` lists the global token indices of member
/// `p`'s local rows (contiguous chunks for pure Ulysses; arbitrary slices
/// when embedded in USP). Returns the local per-head outputs plus the saved
/// state for [`try_ulysses_backward`].
///
/// Communication failures carry `(Phase::Forward, k)` where `k` is the
/// all-to-all index (0 = Q, 1 = K, 2 = V, 3 = output).
#[allow(clippy::too_many_arguments)]
pub fn try_ulysses_forward(
    comm: &mut Communicator,
    members: &[usize],
    member_idx: &[Vec<usize>],
    q_heads: &[Mat],
    k_heads: &[Mat],
    v_heads: &[Mat],
    scale: f32,
    mask: &AttnMask,
    cost: &CostModel,
) -> Result<(Vec<Mat>, UlyssesSaved), DattnError> {
    let group = members.len();
    let heads = q_heads.len();
    if !heads.is_multiple_of(group) {
        return Err(DattnError::Infeasible(UlyssesError::HeadsNotDivisible {
            heads,
            group,
        }));
    }
    let hpr = heads / group;
    let pos = members
        .iter()
        .position(|&m| m == comm.rank())
        .expect("try_ulysses_forward: caller not in group");
    let full_idx: Vec<usize> = member_idx.iter().flatten().copied().collect();
    let dh = q_heads[0].cols();

    // Sequence-sharded → head-sharded: one all-to-all per tensor.
    let redistribute = |comm: &mut Communicator,
                        heads_in: &[Mat],
                        round: usize|
     -> Result<Vec<Mat>, AttnFailure> {
        let outgoing: Vec<Mat> = (0..group)
            .map(|p| bundle_heads(heads_in, p * hpr, (p + 1) * hpr))
            .collect();
        let incoming = try_group_all_to_all(comm, members, outgoing)
            .map_err(AttnFailure::at(Phase::Forward, round))?;
        let stacked = Mat::vstack(&incoming);
        Ok(unbundle_heads(&stacked, hpr))
    };
    let q_full = redistribute(comm, q_heads, 0)?;
    let k_full = redistribute(comm, k_heads, 1)?;
    let v_full = redistribute(comm, v_heads, 2)?;

    // Local attention over the full sequence for our heads.
    let mut o_full = Vec::with_capacity(hpr);
    let mut lse = Vec::with_capacity(hpr);
    for h in 0..hpr {
        let out = flash_forward(
            &q_full[h], &k_full[h], &v_full[h], scale, mask, &full_idx, &full_idx,
        );
        comm.advance_compute(cost.attn_fwd_secs(out.work.pairs, dh));
        o_full.push(out.o);
        lse.push(out.lse);
    }

    // Head-sharded output → sequence-sharded: reverse all-to-all.
    let row_of = |p: usize| -> (usize, usize) {
        let start: usize = member_idx[..p].iter().map(|v| v.len()).sum();
        (start, start + member_idx[p].len())
    };
    let outgoing: Vec<Mat> = (0..group)
        .map(|p| {
            let (r0, r1) = row_of(p);
            let slices: Vec<Mat> = o_full.iter().map(|o| o.slice_rows(r0, r1)).collect();
            Mat::hstack(&slices)
        })
        .collect();
    let incoming = try_group_all_to_all(comm, members, outgoing)
        .map_err(AttnFailure::at(Phase::Forward, 3))?;
    let mut o_heads = Vec::with_capacity(heads);
    for (s, bundle) in incoming.iter().enumerate() {
        debug_assert_eq!(bundle.rows(), member_idx[pos].len());
        o_heads.extend(unbundle_heads(bundle, hpr));
        let _ = s;
    }
    let mem = stash_entry(
        comm,
        "ulysses_saved",
        &q_full,
        &k_full,
        &v_full,
        &o_full,
        &lse,
    );
    Ok((
        o_heads,
        UlyssesSaved {
            q: q_full,
            k: k_full,
            v: v_full,
            o: o_full,
            lse,
            heads_per_rank: hpr,
            mem,
        },
    ))
}

/// Rebuild the backward state from sequence-sharded tensors (used when a
/// gradient-checkpointing strategy discarded the forward's saved state but
/// kept — or recomputed — the attention outputs). Costs the same
/// all-to-alls as a forward, but no attention compute.
#[allow(clippy::too_many_arguments)]
pub fn rebuild_saved(
    comm: &mut Communicator,
    members: &[usize],
    _member_idx: &[Vec<usize>],
    q_heads: &[Mat],
    k_heads: &[Mat],
    v_heads: &[Mat],
    o_heads: &[Mat],
    lse_heads: &[Vec<f32>],
) -> Result<UlyssesSaved, UlyssesError> {
    let group = members.len();
    let heads = q_heads.len();
    if !heads.is_multiple_of(group) {
        return Err(UlyssesError::HeadsNotDivisible { heads, group });
    }
    let hpr = heads / group;
    let redistribute = |comm: &mut Communicator, hs: &[Mat]| -> Vec<Mat> {
        let outgoing: Vec<Mat> = (0..group)
            .map(|p| bundle_heads(hs, p * hpr, (p + 1) * hpr))
            .collect();
        let incoming = group_all_to_all(comm, members, outgoing);
        unbundle_heads(&Mat::vstack(&incoming), hpr)
    };
    let q = redistribute(comm, q_heads);
    let k = redistribute(comm, k_heads);
    let v = redistribute(comm, v_heads);
    let o = redistribute(comm, o_heads);
    // Lse columns ride a bundled matrix (one column per head).
    let rows = lse_heads[0].len();
    let lse_local = Mat::from_fn(rows, heads, |r, h| lse_heads[h][r]);
    let lse_full = redistribute(
        comm,
        &(0..heads)
            .map(|h| lse_local.slice_cols(h, h + 1))
            .collect::<Vec<_>>(),
    );
    let lse: Vec<Vec<f32>> = lse_full.iter().map(|m| m.as_slice().to_vec()).collect();
    let mem = stash_entry(comm, "ulysses_saved", &q, &k, &v, &o, &lse);
    Ok(UlyssesSaved {
        q,
        k,
        v,
        o,
        lse,
        heads_per_rank: hpr,
        mem,
    })
}

/// Per-head `(∇Q, ∇K, ∇V)` triple returned by the backward passes.
pub type HeadGrads = (Vec<Mat>, Vec<Mat>, Vec<Mat>);

/// Ulysses backward: all-to-all of `∇O`, local blocked backward per owned
/// head, all-to-all of `(∇Q, ∇K, ∇V)` back to the sequence partition.
///
/// Communication failures carry `(Phase::Backward, k)` where `k` is the
/// all-to-all index (0 = ∇O, 1 = ∇Q, 2 = ∇K, 3 = ∇V).
#[allow(clippy::too_many_arguments)]
pub fn try_ulysses_backward(
    comm: &mut Communicator,
    members: &[usize],
    member_idx: &[Vec<usize>],
    saved: &UlyssesSaved,
    grad_o_heads: &[Mat],
    scale: f32,
    mask: &AttnMask,
    cost: &CostModel,
) -> Result<HeadGrads, DattnError> {
    let group = members.len();
    let heads = grad_o_heads.len();
    if !heads.is_multiple_of(group) {
        return Err(DattnError::Infeasible(UlyssesError::HeadsNotDivisible {
            heads,
            group,
        }));
    }
    let hpr = saved.heads_per_rank;
    let full_idx: Vec<usize> = member_idx.iter().flatten().copied().collect();
    let dh = saved.q[0].cols();
    // The full-sequence (∇Q, ∇K, ∇V) of this rank's owned heads, live from
    // the head loop until the scatters return them to the sequence
    // partition.
    let grads_bytes: usize = 3 * saved.q.iter().map(Mat::nbytes).sum::<usize>();
    let mem_grads = comm.mem_alloc(
        "ulysses_grads",
        MemCategory::Activations,
        grads_bytes as u64,
    );

    let outgoing: Vec<Mat> = (0..group)
        .map(|p| bundle_heads(grad_o_heads, p * hpr, (p + 1) * hpr))
        .collect();
    let incoming = try_group_all_to_all(comm, members, outgoing)
        .map_err(AttnFailure::at(Phase::Backward, 0))?;
    let do_full = unbundle_heads(&Mat::vstack(&incoming), hpr);

    let mut dq_full = Vec::with_capacity(hpr);
    let mut dk_full = Vec::with_capacity(hpr);
    let mut dv_full = Vec::with_capacity(hpr);
    for (h, do_h) in do_full.iter().enumerate().take(hpr) {
        let (dq, dk, dv, w) = flash_backward(
            &saved.q[h],
            &saved.k[h],
            &saved.v[h],
            &saved.o[h],
            do_h,
            &saved.lse[h],
            scale,
            mask,
            &full_idx,
            &full_idx,
        );
        comm.advance_compute(cost.attn_bwd_secs(w.pairs, dh));
        dq_full.push(dq);
        dk_full.push(dk);
        dv_full.push(dv);
    }

    let row_of = |p: usize| -> (usize, usize) {
        let start: usize = member_idx[..p].iter().map(|v| v.len()).sum();
        (start, start + member_idx[p].len())
    };
    let scatter =
        |comm: &mut Communicator, grads: &[Mat], round: usize| -> Result<Vec<Mat>, AttnFailure> {
            let outgoing: Vec<Mat> = (0..group)
                .map(|p| {
                    let (r0, r1) = row_of(p);
                    let slices: Vec<Mat> = grads.iter().map(|g| g.slice_rows(r0, r1)).collect();
                    Mat::hstack(&slices)
                })
                .collect();
            let incoming = try_group_all_to_all(comm, members, outgoing)
                .map_err(AttnFailure::at(Phase::Backward, round))?;
            Ok(incoming
                .iter()
                .flat_map(|bundle| unbundle_heads(bundle, hpr))
                .collect())
        };
    let dq = scatter(comm, &dq_full, 1)?;
    let dk = scatter(comm, &dk_full, 2)?;
    let dv = scatter(comm, &dv_full, 3)?;
    comm.mem_free(mem_grads);
    comm.mem_free(saved.mem);
    Ok((dq, dk, dv))
}
