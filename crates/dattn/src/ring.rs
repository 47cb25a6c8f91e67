//! Flat global-ring attention: the shared forward pass, RingAttention's
//! backward (Algorithm 1) and BurstAttention's backward (Algorithm 2).
//!
//! ## Communication accounting (per rank, `N` tokens, `G` ranks, head dim `d`)
//!
//! * forward: `(G−1)` ring hops of `(K_j, V_j)` → `2Nd·(G−1)/G ≈ 2Nd`;
//! * Algorithm 1 backward: `G` hops of `(K_j, V_j, ∇K_j, ∇V_j)` → exactly
//!   `4Nd` (the read-only `K, V` ride the ring all the way home — the waste
//!   BurstAttention eliminates);
//! * Algorithm 2 backward: `(G−1)` hops of the read-only bundle
//!   `(Q_j, ∇O_j, Lse_j, D_j)` plus `G` hops of `∇Q_j` →
//!   `(2Nd + 2N)(G−1)/G + Nd ≈ 3Nd + 2N`, ~25 % less than Algorithm 1.
//!
//! These counts are asserted exactly from the simulator's byte counters in
//! the crate tests.
//!
//! ## Skipping
//!
//! With skipping on, the pass's [`SkipPlan`] gates every hop. A read-only
//! hop — the forward's `(K, V)`, Algorithm 1's `(K, V)` half, Algorithm 2's
//! `(Q, ∇O, Lse, D)` — carries only the spans of its shard that some later
//! rank reads: on a zigzag shard, often one chunk of the two. It arrives as
//! a window of the shard's rows, and the kernels fold that window with its
//! global indices; Algorithm 1 accumulates into the matching rows of the
//! circulating `∇K, ∇V`, Algorithm 2 into the matching rows of the bundle's
//! `∇Q`. Compute and the gradient hops keep whole-shard gates.
//!
//! ## Overlap
//!
//! Read-only payloads are posted *before* the local compute of each step
//! (activation overlapping, Fig. 5 top) and gradients are forwarded right
//! after the compute that produced them, one round behind the read-only
//! stream (the warm-up-round trick, Fig. 5 bottom) — so both transfer
//! streams hide behind compute in virtual time. This fine-grained schedule
//! is the only one.

use crate::cost::CostModel;
use crate::layout::Layout;
use crate::skip::SkipPlan;
use burst_comm::{CommError, Communicator, MemCategory, SpanKind};
use burst_kernels::{
    attn_tile_backward, attn_tile_backward_acc, flash_forward_acc, AttnMask, KernelWork, Span,
};
use burst_tensor::{Mat, Scratch};
use std::ops::Range;

/// Which half of the attention computation a failure struck.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Forward,
    Backward,
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Phase::Forward => write!(f, "forward"),
            Phase::Backward => write!(f, "backward"),
        }
    }
}

/// A communication failure inside a distributed attention loop, annotated
/// with *where* it struck: the phase (fwd/bwd) and the ring round (for
/// Ulysses/USP, the all-to-all index). The underlying [`CommError`] names
/// the rank and peer, so together a mid-ring death reports which rank,
/// which round, and which phase died.
#[derive(Debug, Clone, PartialEq)]
pub struct AttnFailure {
    /// `(phase, round)` when the failure struck inside an attention loop;
    /// `None` when a raw [`CommError`] was promoted outside one.
    pub context: Option<(Phase, usize)>,
    pub source: CommError,
}

impl AttnFailure {
    /// A `map_err` adaptor pinning the failure to `(phase, round)`.
    pub fn at(phase: Phase, round: usize) -> impl Fn(CommError) -> AttnFailure {
        move |source| AttnFailure {
            context: Some((phase, round)),
            source,
        }
    }

    pub fn phase(&self) -> Option<Phase> {
        self.context.map(|(p, _)| p)
    }

    pub fn round(&self) -> Option<usize> {
        self.context.map(|(_, r)| r)
    }

    /// The rank on which the failure was observed.
    pub fn rank(&self) -> usize {
        self.source.rank()
    }
}

impl From<CommError> for AttnFailure {
    fn from(source: CommError) -> Self {
        AttnFailure {
            context: None,
            source,
        }
    }
}

impl std::fmt::Display for AttnFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.context {
            Some((phase, round)) => write!(
                f,
                "distributed attention {phase} failed at ring round {round}: {}",
                self.source
            ),
            None => write!(f, "distributed attention failed: {}", self.source),
        }
    }
}

impl std::error::Error for AttnFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// This rank's slice of the attention problem plus the global parameters.
#[derive(Clone, Copy)]
pub struct AttnShard<'a> {
    pub q: &'a Mat,
    pub k: &'a Mat,
    pub v: &'a Mat,
    pub scale: f32,
    pub mask: &'a AttnMask,
    pub layout: Layout,
    /// Global sequence length `N`.
    pub seq_len: usize,
    pub cost: CostModel,
    /// Restrict the attention problem to global tokens `< max_token`
    /// (every rank's `Q/K/V` must hold exactly its owned tokens below the
    /// cutoff, in layout order). Used by sequence-level selective
    /// checkpointing to recompute only the front segment. `None` = full
    /// sequence.
    pub max_token: Option<usize>,
    /// Mask-aware round skipping: classify every (q-shard × kv-shard) tile
    /// up front, elide fully-masked rounds (no compute, no wire bytes, no
    /// virtual time) and cut each read-only hop to the spans downstream
    /// ranks read. Off by default — the dense path reproduces the paper's
    /// headline `2Nd`/`4Nd`/`3Nd + 2N` traffic exactly; with skip on the
    /// counters shrink to the masked census (and Algorithm 1's read-only
    /// K/V homecoming hop disappears even under a full mask).
    pub skip: bool,
}

impl AttnShard<'_> {
    /// The pass's [`SkipPlan`] on a `ring_size` ring: tile pair counts in
    /// closed form when skipping is enabled, the gate-everything-on dense
    /// plan otherwise.
    pub(crate) fn skip_plan(&self, ring_size: usize) -> SkipPlan {
        if self.skip {
            SkipPlan::build(
                self.mask,
                self.layout,
                self.seq_len,
                ring_size,
                self.max_token,
            )
        } else {
            SkipPlan::dense(ring_size)
        }
    }

    /// Global indices owned by ring position `pos` of a `ring_size` ring.
    pub fn idx_at(&self, ring_size: usize, pos: usize) -> Vec<usize> {
        self.layout
            .spans(self.seq_len, ring_size, pos, self.max_token)
            .into_iter()
            .flat_map(Span::iter)
            .collect()
    }

    /// Global indices owned by `rank` on the global ring.
    pub fn idx_of(&self, comm: &Communicator, rank: usize) -> Vec<usize> {
        self.idx_at(comm.world_size(), rank)
    }

    pub fn my_idx(&self, comm: &Communicator) -> Vec<usize> {
        self.idx_of(comm, comm.rank())
    }

    fn head_dim(&self) -> usize {
        self.q.cols()
    }
}

/// Extra inputs for the backward pass.
#[derive(Clone, Copy)]
pub struct BackwardInputs<'a> {
    pub o: &'a Mat,
    pub lse: &'a [f32],
    pub grad_o: &'a Mat,
}

/// Per-rank result of a distributed attention forward.
#[derive(Debug, Clone)]
pub struct DistAttnOut {
    pub o: Mat,
    pub lse: Vec<f32>,
    pub work: KernelWork,
}

/// What a rank holds of a circulating (K, V) pair mid-ring. `Absent` only
/// arises with skipping on, when the upstream gate elided the transfer;
/// the gate monotonicity guarantees an absent shard is never read.
pub(crate) enum KvHold {
    /// Round 0: the local shard, by reference.
    Local,
    /// A received window of the shard's rows (owned ring buffers) and the
    /// shard row it starts at.
    Owned(Mat, Mat, usize),
    /// Gated off upstream — no consumer here or downstream.
    Absent,
}

impl KvHold {
    /// The held K and V rows and the shard row they start at.
    pub(crate) fn view<'a>(&'a self, k: &'a Mat, v: &'a Mat) -> (&'a Mat, &'a Mat, usize) {
        match self {
            KvHold::Local => (k, v, 0),
            KvHold::Owned(ok, ov, off) => (ok, ov, *off),
            KvHold::Absent => unreachable!("skip gates never read an absent shard"),
        }
    }

    /// Receive the `rows` window of a (K, V) shard from `src`; a hop gated
    /// off upstream (`None`) leaves the shard `Absent`.
    pub(crate) fn recv(
        comm: &mut Communicator,
        src: usize,
        rows: Option<Range<usize>>,
    ) -> Result<KvHold, CommError> {
        let Some(rows) = rows else {
            return Ok(KvHold::Absent);
        };
        let k = comm.try_recv_mat(src)?;
        Ok(KvHold::Owned(k, comm.try_recv_mat(src)?, rows.start))
    }
}

/// What a rank holds of a circulating read-only `(Q, ∇O, Lse, D)` bundle,
/// as [`KvHold`] holds a (K, V) pair.
pub(crate) enum RoHold {
    Local,
    Owned(Mat, Mat, Vec<f32>, Vec<f32>, usize),
    Absent,
}

/// A held `(Q, ∇O, Lse, D)` window and the bundle row it starts at.
pub(crate) type RoView<'a> = (&'a Mat, &'a Mat, &'a [f32], &'a [f32], usize);

impl RoHold {
    pub(crate) fn view<'a>(
        &'a self,
        q: &'a Mat,
        grad_o: &'a Mat,
        lse: &'a [f32],
        d: &'a [f32],
    ) -> RoView<'a> {
        match self {
            RoHold::Local => (q, grad_o, lse, d, 0),
            RoHold::Owned(oq, oo, ol, od, off) => (oq, oo, ol, od, *off),
            RoHold::Absent => unreachable!("skip gates never read an absent bundle"),
        }
    }

    /// Receive the `rows` window of a read-only bundle from `src`.
    pub(crate) fn recv(
        comm: &mut Communicator,
        src: usize,
        rows: Option<Range<usize>>,
    ) -> Result<RoHold, CommError> {
        let Some(rows) = rows else {
            return Ok(RoHold::Absent);
        };
        let q = comm.try_recv_mat(src)?;
        let grad_o = comm.try_recv_mat(src)?;
        let lse = comm.try_recv_vec(src)?;
        Ok(RoHold::Owned(
            q,
            grad_o,
            lse,
            comm.try_recv_vec(src)?,
            rows.start,
        ))
    }
}

/// Send rows `want` of a shard from the held window `m`, which starts at
/// shard row `off` and covers `want`; the whole window goes as is.
fn send_rows(
    comm: &mut Communicator,
    dst: usize,
    m: &Mat,
    off: usize,
    want: &Range<usize>,
) -> Result<(), CommError> {
    if want.len() == m.rows() {
        comm.try_send_mat(dst, m)
    } else {
        comm.try_send_rows(dst, m, want.start - off..want.end - off)
    }
}

/// Bill a (K, V) — or (∇K, ∇V) — hop of `rows` rows the gates kept off
/// the wire.
pub(crate) fn skip_kv(comm: &mut Communicator, rows: usize, shard: &AttnShard) {
    comm.note_skipped_mat(rows * shard.k.cols());
    comm.note_skipped_mat(rows * shard.v.cols());
}

/// Bill a read-only `(Q, ∇O, Lse, D)` hop of `rows` rows, whose Q and ∇O
/// have `q_cols` and `do_cols` columns, that the gates kept off the wire.
pub(crate) fn skip_ro(comm: &mut Communicator, rows: usize, (q_cols, do_cols): (usize, usize)) {
    comm.note_skipped_mat(rows * (q_cols + do_cols));
    comm.note_skipped_vec(2 * rows);
}

/// Post the `want` window of a read-only (K, V) shard of `rows` rows from
/// the hold `held` resolves, and bill the rows it leaves behind to the
/// skip dual. A gated-off hop (`None`) posts nothing and never reads the
/// hold.
pub(crate) fn post_kv<'a>(
    comm: &mut Communicator,
    dst: usize,
    want: Option<Range<usize>>,
    rows: usize,
    shard: &AttnShard,
    held: impl FnOnce() -> (&'a Mat, &'a Mat, usize),
) -> Result<(), CommError> {
    skip_kv(comm, rows - want.as_ref().map_or(0, Range::len), shard);
    let Some(want) = want else {
        return Ok(());
    };
    let (k, v, off) = held();
    send_rows(comm, dst, k, off, &want)?;
    send_rows(comm, dst, v, off, &want)
}

/// Post the `want` window of a read-only `(Q, ∇O, Lse, D)` bundle of
/// `rows` rows, as [`post_kv`] posts a (K, V) shard.
pub(crate) fn post_ro<'a>(
    comm: &mut Communicator,
    dst: usize,
    want: Option<Range<usize>>,
    rows: usize,
    cols: (usize, usize),
    held: impl FnOnce() -> RoView<'a>,
) -> Result<(), CommError> {
    skip_ro(comm, rows - want.as_ref().map_or(0, Range::len), cols);
    let Some(want) = want else {
        return Ok(());
    };
    let (q, grad_o, lse, d, off) = held();
    let vals = want.start - off..want.end - off;
    send_rows(comm, dst, q, off, &want)?;
    send_rows(comm, dst, grad_o, off, &want)?;
    comm.try_send_vec(dst, &lse[vals.clone()])?;
    comm.try_send_vec(dst, &d[vals])
}

/// Communication/computation overlap discipline. Only the fine-grained
/// schedule exists, and no schedule reads this value: the type stays
/// because the benchmark's engine configuration names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverlapMode {
    /// Fine-grained overlap: read-only data posted before compute,
    /// gradients one round behind (paper Fig. 5).
    Fine,
}

/// An ordered ring of ranks. [`Ring::global`] spans the whole world;
/// sub-rings (e.g. the context-parallel groups of USP) list their members
/// explicitly.
#[derive(Debug, Clone)]
pub struct Ring {
    /// Global rank of each member, in ring order.
    pub members: Vec<usize>,
    /// This rank's position within `members`.
    pub pos: usize,
}

impl Ring {
    /// The flat ring over all ranks.
    pub fn global(comm: &Communicator) -> Ring {
        Ring {
            members: (0..comm.world_size()).collect(),
            pos: comm.rank(),
        }
    }

    /// A sub-ring; panics if `comm`'s rank is not a member.
    #[track_caller]
    pub fn subgroup(comm: &Communicator, members: Vec<usize>) -> Ring {
        let pos = members
            .iter()
            .position(|&m| m == comm.rank())
            .expect("Ring::subgroup: calling rank not in member list");
        Ring { members, pos }
    }

    #[inline]
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Global rank of the next member.
    #[inline]
    pub fn next(&self) -> usize {
        self.members[(self.pos + 1) % self.members.len()]
    }

    /// Global rank of the previous member.
    #[inline]
    pub fn prev(&self) -> usize {
        self.members[(self.pos + self.members.len() - 1) % self.members.len()]
    }
}

/// Forward pass on the flat global ring (shared by RingAttention and
/// BurstAttention): `K, V` partitions circulate, each rank folds every
/// partition into its online-softmax state.
///
/// Steady-state rounds are allocation-free in the tile-compute path: the
/// first round reads the local shard by reference (no clone), index tables
/// for every ring position are precomputed, and the kernel merges each
/// partition straight into persistent `(O, Lse)` accumulators through one
/// reused [`Scratch`].
///
/// A failed send/receive at ring round `k` surfaces as an [`AttnFailure`]
/// carrying `(Phase::Forward, k)`.
pub fn try_ring_forward(
    comm: &mut Communicator,
    ring: &Ring,
    shard: &AttnShard,
) -> Result<DistAttnOut, AttnFailure> {
    let g = ring.size();
    let d = shard.head_dim();
    let qi = shard.idx_at(g, ring.pos);
    let kidx_all: Vec<Vec<usize>> = (0..g).map(|p| shard.idx_at(g, p)).collect();
    let plan = shard.skip_plan(g);
    let mut acc_o = Mat::zeros(shard.q.rows(), shard.v.cols());
    let mut acc_lse = vec![f32::NEG_INFINITY; shard.q.rows()];
    let mut scratch = Scratch::new();
    let mut work = KernelWork::default();
    // Accountant entries for the pass: the persistent (O, Lse) accumulators
    // and — when the ring actually lands a partition here — one
    // steady-state slot for the received (K, V) bundle, billed at the wire
    // dtype. Registered once per pass, so steady-state rounds append
    // nothing to the ledger.
    let mem_acc = comm.mem_alloc(
        "ring_fwd_acc",
        MemCategory::Activations,
        (acc_o.nbytes() + 4 * acc_lse.len()) as u64,
    );
    let kv_wire = comm.mem_wire_bytes(shard.k.len() + shard.v.len());
    let mem_kv = if g > 1 && plan.flat_fwd_recv_any(ring.pos) {
        comm.mem_alloc("ring_fwd_kv", MemCategory::CommBuffers, kv_wire)
    } else {
        None
    };
    let mut held = KvHold::Local;
    for step in 0..g {
        let at = AttnFailure::at(Phase::Forward, step);
        let r = plan.flat_fwd_round(ring.pos, step);
        let rows = kidx_all[r.shard_out].len();
        if r.idle() {
            // Fully-masked round: no span, no clock, no wire. The sends the
            // dense schedule would have posted are billed to the skip dual.
            comm.note_round_skipped();
            if step < g - 1 {
                skip_kv(comm, rows, shard);
            }
            held = KvHold::Absent;
            continue;
        }
        // A rank that dies mid-round leaves this span open; the trace
        // collector force-closes it at crash time (with a warning).
        comm.span_begin(SpanKind::AttnRound, "fwd_round");
        // Post the shift before computing so the transfer hides under the
        // kernel (double buffering): the spans a later rank still folds.
        if step < g - 1 {
            let want = plan.window(r.shard_out, r.send, rows);
            post_kv(comm, ring.next(), want, rows, shard, || {
                held.view(shard.k, shard.v)
            })
            .map_err(&at)?;
        }
        if r.compute {
            let (cur_k, cur_v, off) = held.view(shard.k, shard.v);
            let w = flash_forward_acc(
                shard.q,
                cur_k,
                cur_v,
                shard.scale,
                shard.mask,
                &qi,
                &kidx_all[r.shard_out][off..off + cur_k.rows()],
                &mut acc_o,
                &mut acc_lse,
                &mut scratch,
            );
            comm.advance_compute(shard.cost.attn_fwd_secs(w.pairs, d));
            work.merge(w);
        }
        if step < g - 1 {
            let rows_in = plan.window(r.shard_in, r.recv, kidx_all[r.shard_in].len());
            held = KvHold::recv(comm, ring.prev(), rows_in).map_err(&at)?;
        }
        comm.span_end();
    }
    comm.mem_note_workspace(scratch.resident_bytes());
    comm.mem_free(mem_kv);
    comm.mem_free(mem_acc);
    Ok(DistAttnOut {
        o: acc_o,
        lse: acc_lse,
        work,
    })
}

/// RingAttention backward (Algorithm 1): `(K_j, V_j, ∇K_j, ∇V_j)` circulate
/// for `G` full hops (exactly `4Nd` words per rank); `∇Q_i` accumulates
/// locally. Per Algorithm 1 line 10, `D_i = rowsum(∇O_i ∘ O_i)` is
/// recomputed every round — we charge its (small) cost each round, which is
/// precisely the compute overhead Algorithm 2 removes. The read-only
/// `(K_j, V_j)` depart before the round's compute and the gradients right
/// after it.
///
/// A failed send/receive at ring round `k` surfaces as an [`AttnFailure`]
/// carrying `(Phase::Backward, k)`.
pub fn try_ring_backward(
    comm: &mut Communicator,
    ring: &Ring,
    shard: &AttnShard,
    back: &BackwardInputs,
) -> Result<(Mat, Mat, Mat), AttnFailure> {
    let g = ring.size();
    let d = shard.head_dim();
    let qi = shard.idx_at(g, ring.pos);
    let d_vec = back.grad_o.rowsum_hadamard(back.o);
    let d_recompute = shard.cost.gemm_secs(shard.q.rows(), d, 1);
    if g == 1 {
        let (dq, dk, dv, w) = attn_tile_backward(
            shard.q,
            shard.k,
            shard.v,
            back.grad_o,
            back.lse,
            &d_vec,
            shard.scale,
            shard.mask,
            &qi,
            &qi,
        );
        comm.advance_compute(shard.cost.attn_bwd_secs(w.pairs, d) + d_recompute);
        return Ok((dq, dk, dv));
    }
    let mut grad_q = Mat::zeros(shard.q.rows(), shard.q.cols());
    let kidx_all: Vec<Vec<usize>> = (0..g).map(|p| shard.idx_at(g, p)).collect();
    let plan = shard.skip_plan(g);
    // Pass-scoped accountant entries: the local ∇Q accumulator, plus one
    // steady-state slot for Algorithm 1's circulating (K, V, ∇K, ∇V)
    // bundle at the wire dtype — twice the forward's traffic, the waste
    // Algorithm 2 removes. With skipping on, a rank that never holds the
    // read-only half (or never holds gradients) only bills the half it
    // actually buffers.
    let mem_dq = comm.mem_alloc(
        "ring_bwd_dq",
        MemCategory::Activations,
        grad_q.nbytes() as u64,
    );
    let (buf_kv, buf_dkv) = plan.flat_alg1_bufs(ring.pos);
    let halves = buf_kv as usize + buf_dkv as usize;
    let mem_bundle = if halves > 0 {
        let bundle_wire = comm.mem_wire_bytes(halves * (shard.k.len() + shard.v.len()));
        comm.mem_alloc("ring_bwd_kv_grads", MemCategory::CommBuffers, bundle_wire)
    } else {
        None
    };
    // Round 0 reads the local K/V shard by reference; the circulating
    // gradient buffers materialize (at zero) at the first live consumer of
    // each shard and the tile kernel accumulates into them (and into
    // `grad_q`) in place, through one reused scratch — no per-round
    // temporaries on the dense path.
    let mut held = KvHold::Local;
    let mut dkv: Option<(Mat, Mat)> = None;
    let mut scratch = Scratch::new();
    for step in 0..g {
        let at = AttnFailure::at(Phase::Backward, step);
        let r = plan.flat_alg1_round(ring.pos, step);
        let rows = kidx_all[r.shard_out].len();
        if r.idle() {
            comm.note_round_skipped();
            skip_kv(comm, rows, shard);
            skip_kv(comm, rows, shard);
            held = KvHold::Absent;
            dkv = None;
            continue;
        }
        comm.span_begin(SpanKind::AttnRound, "bwd_round");
        // Activations can depart before the compute that reads them (we own
        // a copy); gradients cannot.
        let want = plan.window(r.shard_out, r.send_kv, rows);
        post_kv(comm, ring.next(), want, rows, shard, || {
            held.view(shard.k, shard.v)
        })
        .map_err(&at)?;
        if r.compute {
            if dkv.is_none() {
                // First live consumer after a gated-off stretch: carry the
                // zeros the dense ring would have delivered.
                dkv = Some((
                    Mat::zeros(rows, shard.k.cols()),
                    Mat::zeros(rows, shard.v.cols()),
                ));
            }
            let (cur_dk, cur_dv) = dkv.as_mut().expect("just materialized");
            let (cur_k, cur_v, off) = held.view(shard.k, shard.v);
            let end = off + cur_k.rows();
            let w = attn_tile_backward_acc(
                shard.q,
                cur_k,
                cur_v,
                back.grad_o,
                back.lse,
                &d_vec,
                shard.scale,
                shard.mask,
                &qi,
                &kidx_all[r.shard_out][off..end],
                grad_q.as_mut_slice(),
                cur_dk.rows_mut(off, end),
                cur_dv.rows_mut(off, end),
                &mut scratch,
            );
            comm.advance_compute(shard.cost.attn_bwd_secs(w.pairs, d) + d_recompute);
        }
        if r.send_dkv {
            let (cur_dk, cur_dv) = dkv.as_ref().expect("dkv gate implies a contribution");
            comm.try_send_mat(ring.next(), cur_dk).map_err(&at)?;
            comm.try_send_mat(ring.next(), cur_dv).map_err(&at)?;
        } else {
            skip_kv(comm, rows, shard);
        }
        let rows_in = plan.window(r.shard_in, r.recv_kv, kidx_all[r.shard_in].len());
        held = KvHold::recv(comm, ring.prev(), rows_in).map_err(&at)?;
        dkv = if r.recv_dkv {
            Some((
                comm.try_recv_mat(ring.prev()).map_err(&at)?,
                comm.try_recv_mat(ring.prev()).map_err(&at)?,
            ))
        } else {
            None
        };
        comm.span_end();
    }
    // After G hops everything is home: the circulating buffers carry the
    // fully reduced gradients of our own K, V (zeros if no q-shard anywhere
    // attends to them — the dense ring would have carried zeros home too).
    let (dk_home, dv_home) = dkv.unwrap_or_else(|| {
        (
            Mat::zeros(shard.k.rows(), shard.k.cols()),
            Mat::zeros(shard.v.rows(), shard.v.cols()),
        )
    });
    comm.mem_note_workspace(scratch.resident_bytes());
    comm.mem_free(mem_bundle);
    comm.mem_free(mem_dq);
    Ok((grad_q, dk_home, dv_home))
}

/// BurstAttention backward (Algorithm 2): `K_i, V_i, ∇K_i, ∇V_i` stay
/// local; the read-only bundle `(Q_j, ∇O_j, Lse_j, D_j)` circulates `G−1`
/// hops and `∇Q_j` circulates `G` hops — `≈ 3Nd + 2N` words per rank.
/// `D_i` is computed once, before the loop (Algorithm 2 line 2).
///
/// The read-only bundle is forwarded *on receipt* (before the local
/// compute) and `∇Q` follows one round behind — the warm-up-round schedule
/// of Fig. 5 that lets gradient communication hide under compute.
///
/// A failed send/receive at ring round `k` surfaces as an [`AttnFailure`]
/// carrying `(Phase::Backward, k)`.
pub fn try_burst_backward(
    comm: &mut Communicator,
    ring: &Ring,
    shard: &AttnShard,
    back: &BackwardInputs,
) -> Result<(Mat, Mat, Mat), AttnFailure> {
    let g = ring.size();
    let d = shard.head_dim();
    let ki = shard.idx_at(g, ring.pos);
    let qidx_all: Vec<Vec<usize>> = (0..g).map(|p| shard.idx_at(g, p)).collect();
    let d_vec = back.grad_o.rowsum_hadamard(back.o);
    comm.advance_compute(shard.cost.gemm_secs(shard.q.rows(), d, 1));
    let mut grad_k = Mat::zeros(shard.k.rows(), shard.k.cols());
    let mut grad_v = Mat::zeros(shard.v.rows(), shard.v.cols());
    let mut scratch = Scratch::new();

    if g == 1 {
        let (dq, dk, dv, w) = attn_tile_backward(
            shard.q,
            shard.k,
            shard.v,
            back.grad_o,
            back.lse,
            &d_vec,
            shard.scale,
            shard.mask,
            &qidx_all[0],
            &ki,
        );
        comm.advance_compute(shard.cost.attn_bwd_secs(w.pairs, d));
        return Ok((dq, dk, dv));
    }

    let plan = shard.skip_plan(g);
    let (buf_ro, buf_dq_ring, buf_dq_buf) = plan.flat_alg2_bufs(ring.pos);
    // Pass-scoped accountant entries: the local ∇K/∇V accumulators, one
    // steady-state slot for the circulating read-only bundle
    // (Q, ∇O, Lse, D) — matrices at the wire dtype, softmax statistics as
    // f32 — and one slot for the ∇Q partial riding the ring. With skipping
    // on, slots this rank's gates never fill are not billed.
    let mem_dkv = comm.mem_alloc(
        "burst_bwd_dkv",
        MemCategory::Activations,
        (grad_k.nbytes() + grad_v.nbytes()) as u64,
    );
    let ro_wire = comm.mem_wire_bytes(shard.q.len() + back.grad_o.len())
        + 4 * (back.lse.len() + d_vec.len()) as u64;
    let mem_ro = if buf_ro {
        comm.mem_alloc("burst_ro_bundle", MemCategory::CommBuffers, ro_wire)
    } else {
        None
    };
    let dq_wire = comm.mem_wire_bytes(shard.q.len());
    let mem_dq_ring = if buf_dq_ring {
        comm.mem_alloc("burst_dq_ring", MemCategory::CommBuffers, dq_wire)
    } else {
        None
    };

    // Warm-up round: process our own bundle before any communication
    // (Fig. 5 bottom), then stream: forward the read-only bundle the
    // moment it arrives, compute, and send ∇Q one round behind.
    // `dq_buf` is re-zeroed in place each round (capacity reused),
    // and ∇K/∇V accumulate directly into the local outputs — the
    // steady-state tile-compute path allocates nothing.
    let me = ring.pos;
    let next = ring.next();
    let prev = ring.prev();
    let mut dq_buf = Mat::default();
    let mem_dq_buf = if buf_dq_buf {
        comm.mem_alloc(
            "burst_dq_buf",
            MemCategory::Activations,
            shard.q.nbytes() as u64,
        )
    } else {
        None
    };
    let dq_elems = |j: usize| qidx_all[j].len() * shard.q.cols();
    let ro_cols = (shard.q.cols(), back.grad_o.cols());
    // Warm-up round: the read-only parts depart before the local
    // compute; ∇Q follows one round behind it.
    let r0 = plan.flat_alg2_round(me, 0);
    let rows_me = qidx_all[me].len();
    if r0.idle() {
        comm.note_round_skipped();
        skip_ro(comm, rows_me, ro_cols);
        comm.note_skipped_mat(dq_elems(me));
    } else {
        let at = AttnFailure::at(Phase::Backward, 0);
        comm.span_begin(SpanKind::AttnRound, "burst_warmup");
        let want = plan.window(me, r0.fwd_ro, rows_me);
        post_ro(comm, next, want, rows_me, ro_cols, || {
            (shard.q, back.grad_o, back.lse, &d_vec, 0)
        })
        .map_err(&at)?;
        if r0.compute {
            dq_buf.reshape_in_place(shard.q.rows(), shard.q.cols());
            let w = attn_tile_backward_acc(
                shard.q,
                shard.k,
                shard.v,
                back.grad_o,
                back.lse,
                &d_vec,
                shard.scale,
                shard.mask,
                &qidx_all[me],
                &ki,
                dq_buf.as_mut_slice(),
                grad_k.as_mut_slice(),
                grad_v.as_mut_slice(),
                &mut scratch,
            );
            comm.advance_compute(shard.cost.attn_bwd_secs(w.pairs, d));
        }
        if r0.send_dq {
            debug_assert!(r0.compute, "∇Q warm-up gate implies a live local tile");
            comm.try_send_mat(next, &dq_buf).map_err(&at)?;
        } else {
            comm.note_skipped_mat(dq_elems(me));
        }
        comm.span_end();
    }
    for s in 1..g {
        let at = AttnFailure::at(Phase::Backward, s);
        let r = plan.flat_alg2_round(me, s);
        let j = r.bundle;
        let rows_j = qidx_all[j].len();
        if r.idle() {
            comm.note_round_skipped();
            if s < g - 1 {
                skip_ro(comm, rows_j, ro_cols);
            }
            comm.note_skipped_mat(dq_elems(j));
            continue;
        }
        comm.span_begin(SpanKind::AttnRound, "burst_round");
        let bundle = RoHold::recv(comm, prev, plan.window(j, r.recv_ro, rows_j)).map_err(&at)?;
        let view = || bundle.view(shard.q, back.grad_o, back.lse, &d_vec);
        if s < g - 1 {
            // The next rank is not the bundle's home: forward the read-only
            // spans it or a later rank reads immediately, before computing.
            let want = plan.window(j, r.fwd_ro, rows_j);
            post_ro(comm, next, want, rows_j, ro_cols, view).map_err(&at)?;
        }
        if r.compute {
            // ∇Q of the received rows lands in their rows of the bundle's
            // ∇Q; the other rows stay zero, as the dense tile leaves them.
            let (q_j, do_j, lse_j, d_j, off) = view();
            let end = off + q_j.rows();
            dq_buf.reshape_in_place(rows_j, shard.q.cols());
            let w = attn_tile_backward_acc(
                q_j,
                shard.k,
                shard.v,
                do_j,
                lse_j,
                d_j,
                shard.scale,
                shard.mask,
                &qidx_all[j][off..end],
                &ki,
                dq_buf.rows_mut(off, end),
                grad_k.as_mut_slice(),
                grad_v.as_mut_slice(),
                &mut scratch,
            );
            comm.advance_compute(shard.cost.attn_bwd_secs(w.pairs, d));
        }
        if r.recv_dq {
            let mut dq_j = comm.try_recv_mat(prev).map_err(&at)?;
            if !r.compute {
                // The dense schedule adds a freshly zeroed buffer
                // here; mirror it so the bits (±0.0 included) match.
                dq_buf.reshape_in_place(dq_j.rows(), dq_j.cols());
            }
            dq_j.add_assign(&dq_buf);
            debug_assert!(r.send_dq, "held ∇Q always travels on");
            comm.try_send_mat(next, &dq_j).map_err(&at)?;
        } else if r.send_dq {
            // First live contributor after a gated-off stretch:
            // materialize the zeros the dense ring would have
            // delivered, then add our contribution.
            debug_assert!(r.compute, "first ∇Q hop implies a live tile");
            let mut dq_j = Mat::zeros(qidx_all[j].len(), shard.q.cols());
            dq_j.add_assign(&dq_buf);
            comm.try_send_mat(next, &dq_j).map_err(&at)?;
        } else {
            comm.note_skipped_mat(dq_elems(j));
        }
        comm.span_end();
    }
    let grad_q = if plan.flat_alg2_final(me) {
        comm.span_begin(SpanKind::AttnRound, "burst_final");
        let gq = comm
            .try_recv_mat(prev)
            .map_err(AttnFailure::at(Phase::Backward, g - 1))?;
        comm.span_end();
        gq
    } else {
        // No rank anywhere attends to our queries: the homecoming
        // hop is gated off and ∇Q is identically zero.
        comm.note_round_skipped();
        Mat::zeros(shard.q.rows(), shard.q.cols())
    };
    comm.mem_note_workspace(scratch.resident_bytes());
    comm.mem_free(mem_dq_buf);
    comm.mem_free(mem_dq_ring);
    comm.mem_free(mem_ro);
    comm.mem_free(mem_dkv);
    Ok((grad_q, grad_k, grad_v))
}
