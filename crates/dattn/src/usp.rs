//! USP: LoongTrain's hybrid head–context parallelism (the paper's strongest
//! baseline).
//!
//! With `G = U × R` ranks (head-first placement: consecutive ranks — i.e.
//! NVLink neighbours — form a Ulysses group of size `U`; same-position
//! ranks across groups form a context-parallel ring of size `R`):
//!
//! 1. an intra-group all-to-all turns sequence shards into head shards
//!    (all NVLink traffic),
//! 2. ring attention with zigzag balance runs across the size-`R` ring on
//!    each rank's `H/U` heads,
//! 3. a reverse all-to-all restores the sequence partition.
//!
//! The ring carries `N/R`-token shards instead of `N/G`, but only `R` hops;
//! the all-to-alls add `O(N·d/G)` NVLink traffic. USP's win over pure ring
//! attention comes from replacing most inter-node ring hops with cheap
//! intra-node all-to-alls.

use crate::cost::CostModel;
use crate::layout::Layout;
use crate::ring::{
    try_ring_backward, try_ring_forward, AttnFailure, AttnShard, BackwardInputs, OverlapMode,
    Phase, Ring,
};
use crate::ulysses::{
    group_all_to_all, stash_entry, try_group_all_to_all, HeadGrads, UlyssesError,
};
use crate::DattnError;
use burst_comm::{Communicator, MemCategory, MemId};
use burst_kernels::AttnMask;
use burst_tensor::Mat;

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
    /// Ulysses group members.
    pub fn local_idx(&self, seq_len: usize) -> Vec<usize> {
        self.member_idx(seq_len, self.u_pos)
    }

    /// Same for an arbitrary Ulysses-group member.
    pub fn member_idx(&self, seq_len: usize, u_pos: usize) -> Vec<usize> {
        let shard = Layout::Zigzag.indices(seq_len, self.ring, self.r_pos);
        let per = shard.len() / self.ulysses;
        shard[u_pos * per..(u_pos + 1) * per].to_vec()
    }
}

/// State saved by [`try_usp_forward`] for the backward pass.
pub struct UspSaved {
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

impl UspSaved {
    /// Discard the state without running the backward, closing its stash
    /// entry — for callers that rebuild it (recompute) instead of keeping
    /// it.
    pub fn release(self, comm: &mut Communicator) {
        comm.mem_free(self.mem);
    }
}

fn bundle(heads: &[Mat], h0: usize, h1: usize) -> Mat {
    Mat::hstack(&heads[h0..h1])
}

fn unbundle(bundle: &Mat, n: usize) -> Vec<Mat> {
    let dh = bundle.cols() / n;
    (0..n)
        .map(|h| bundle.slice_cols(h * dh, (h + 1) * dh))
        .collect()
}

/// USP forward: intra-group all-to-all, zigzag ring attention per owned
/// head across the ring group, reverse all-to-all.
///
/// All-to-all failures carry `(Phase::Forward, k)` with `k` the all-to-all
/// index; ring failures keep the ring's own phase/round annotation.
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
    let heads = q_heads.len();
    if !heads.is_multiple_of(topo.ulysses) {
        return Err(DattnError::Infeasible(UlyssesError::HeadsNotDivisible {
            heads,
            group: topo.ulysses,
        }));
    }
    let hpr = heads / topo.ulysses;
    let dh = q_heads[0].cols();

    let redistribute =
        |comm: &mut Communicator, hs: &[Mat], round: usize| -> Result<Vec<Mat>, AttnFailure> {
            let outgoing: Vec<Mat> = (0..topo.ulysses)
                .map(|p| bundle(hs, p * hpr, (p + 1) * hpr))
                .collect();
            let incoming = try_group_all_to_all(comm, &topo.u_members, outgoing)
                .map_err(AttnFailure::at(Phase::Forward, round))?;
            Ok(unbundle(&Mat::vstack(&incoming), hpr))
        };
    let q_shard = redistribute(comm, q_heads, 0)?;
    let k_shard = redistribute(comm, k_heads, 1)?;
    let v_shard = redistribute(comm, v_heads, 2)?;

    // Ring attention over the context group, zigzag-balanced.
    let ring = Ring::subgroup(comm, topo.r_members.clone());
    let mut o_shard = Vec::with_capacity(hpr);
    let mut lse = Vec::with_capacity(hpr);
    for h in 0..hpr {
        let shard = AttnShard {
            q: &q_shard[h],
            k: &k_shard[h],
            v: &v_shard[h],
            scale,
            mask,
            layout: Layout::Zigzag,
            seq_len,
            cost: *cost,
            max_token: None,
            skip: topo.skip,
        };
        let out = try_ring_forward(comm, &ring, &shard)?;
        let _ = dh;
        o_shard.push(out.o);
        lse.push(out.lse);
    }

    // Reverse all-to-all on O.
    let rows_per_member = o_shard[0].rows() / topo.ulysses;
    let outgoing: Vec<Mat> = (0..topo.ulysses)
        .map(|p| {
            let slices: Vec<Mat> = o_shard
                .iter()
                .map(|o| o.slice_rows(p * rows_per_member, (p + 1) * rows_per_member))
                .collect();
            Mat::hstack(&slices)
        })
        .collect();
    let incoming = try_group_all_to_all(comm, &topo.u_members, outgoing)
        .map_err(AttnFailure::at(Phase::Forward, 3))?;
    let o_heads: Vec<Mat> = incoming.iter().flat_map(|b| unbundle(b, hpr)).collect();
    let mem = stash_entry(
        comm,
        "usp_saved",
        &q_shard,
        &k_shard,
        &v_shard,
        &o_shard,
        &lse,
    );
    Ok((
        o_heads,
        UspSaved {
            q: q_shard,
            k: k_shard,
            v: v_shard,
            o: o_shard,
            lse,
            heads_per_rank: hpr,
            mem,
        },
    ))
}

/// Rebuild the backward state from sequence-sharded tensors (see
/// `ulysses::rebuild_saved`): all-to-all only, no attention compute.
#[allow(clippy::too_many_arguments)]
pub fn rebuild_saved(
    comm: &mut Communicator,
    topo: &UspTopo,
    q_heads: &[Mat],
    k_heads: &[Mat],
    v_heads: &[Mat],
    o_heads: &[Mat],
    lse_heads: &[Vec<f32>],
) -> Result<UspSaved, UlyssesError> {
    let heads = q_heads.len();
    if !heads.is_multiple_of(topo.ulysses) {
        return Err(UlyssesError::HeadsNotDivisible {
            heads,
            group: topo.ulysses,
        });
    }
    let hpr = heads / topo.ulysses;
    let redistribute = |comm: &mut Communicator, hs: &[Mat]| -> Vec<Mat> {
        let outgoing: Vec<Mat> = (0..topo.ulysses)
            .map(|p| bundle(hs, p * hpr, (p + 1) * hpr))
            .collect();
        let incoming = group_all_to_all(comm, &topo.u_members, outgoing);
        unbundle(&Mat::vstack(&incoming), hpr)
    };
    let q = redistribute(comm, q_heads);
    let k = redistribute(comm, k_heads);
    let v = redistribute(comm, v_heads);
    let o = redistribute(comm, o_heads);
    let rows = lse_heads[0].len();
    let lse_local = Mat::from_fn(rows, heads, |r, h| lse_heads[h][r]);
    let lse_cols: Vec<Mat> = (0..heads).map(|h| lse_local.slice_cols(h, h + 1)).collect();
    let lse_full = redistribute(comm, &lse_cols);
    let lse: Vec<Vec<f32>> = lse_full.iter().map(|m| m.as_slice().to_vec()).collect();
    let mem = stash_entry(comm, "usp_saved", &q, &k, &v, &o, &lse);
    Ok(UspSaved {
        q,
        k,
        v,
        o,
        lse,
        heads_per_rank: hpr,
        mem,
    })
}

/// USP backward: all-to-all of `∇O`, zigzag ring backward (Algorithm 1 with
/// fine overlap — LoongTrain's implementation) per owned head, all-to-all of
/// the input gradients back.
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
    let heads = grad_o_heads.len();
    if !heads.is_multiple_of(topo.ulysses) {
        return Err(DattnError::Infeasible(UlyssesError::HeadsNotDivisible {
            heads,
            group: topo.ulysses,
        }));
    }
    let hpr = saved.heads_per_rank;
    // The ring-shard (∇Q, ∇K, ∇V) of this rank's owned heads, live from the
    // per-head ring backwards until the scatters return them.
    let grads_bytes: usize = 3 * saved.q.iter().map(Mat::nbytes).sum::<usize>();
    let mem_grads = comm.mem_alloc("usp_grads", MemCategory::Activations, grads_bytes as u64);

    let outgoing: Vec<Mat> = (0..topo.ulysses)
        .map(|p| bundle(grad_o_heads, p * hpr, (p + 1) * hpr))
        .collect();
    let incoming = try_group_all_to_all(comm, &topo.u_members, outgoing)
        .map_err(AttnFailure::at(Phase::Backward, 0))?;
    let do_shard = unbundle(&Mat::vstack(&incoming), hpr);

    let ring = Ring::subgroup(comm, topo.r_members.clone());
    let mut dq_shard = Vec::with_capacity(hpr);
    let mut dk_shard = Vec::with_capacity(hpr);
    let mut dv_shard = Vec::with_capacity(hpr);
    for (h, do_h) in do_shard.iter().enumerate().take(hpr) {
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
        let (dq, dk, dv) = try_ring_backward(comm, &ring, &shard, &back, OverlapMode::Fine)?;
        dq_shard.push(dq);
        dk_shard.push(dk);
        dv_shard.push(dv);
    }

    let rows_per_member = dq_shard[0].rows() / topo.ulysses;
    let scatter =
        |comm: &mut Communicator, grads: &[Mat], round: usize| -> Result<Vec<Mat>, AttnFailure> {
            let outgoing: Vec<Mat> = (0..topo.ulysses)
                .map(|p| {
                    let slices: Vec<Mat> = grads
                        .iter()
                        .map(|g| g.slice_rows(p * rows_per_member, (p + 1) * rows_per_member))
                        .collect();
                    Mat::hstack(&slices)
                })
                .collect();
            let incoming = try_group_all_to_all(comm, &topo.u_members, outgoing)
                .map_err(AttnFailure::at(Phase::Backward, round))?;
            Ok(incoming.iter().flat_map(|b| unbundle(b, hpr)).collect())
        };
    let dq = scatter(comm, &dq_shard, 1)?;
    let dk = scatter(comm, &dk_shard, 2)?;
    let dv = scatter(comm, &dv_shard, 3)?;
    comm.mem_free(mem_grads);
    comm.mem_free(saved.mem);
    Ok((dq, dk, dv))
}
