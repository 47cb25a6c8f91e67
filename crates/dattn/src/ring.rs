//! The flat ring's own schedule, and the shard, failure and hold types
//! every ring schedule shares.
//!
//! The flat ring of RingAttention and BurstAttention is the one-level case
//! of the two-level ring ([`DoubleRingSpec::one_level`]): its forward and
//! BurstAttention's backward (Algorithm 2) are the schedules of
//! [`crate::double_ring`] on a one-level spec, one sweep of `G` slots with
//! no inter-node exchange. What lives here is the one schedule only the
//! flat ring has: RingAttention's backward (Algorithm 1), whose read-only
//! `K, V` ride the ring all the way home.
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
//! hop — Algorithm 1's `(K, V)` half here, the forward's `(K, V)` and
//! Algorithm 2's `(Q, ∇O, Lse, D)` on the two-level ring — carries only the
//! spans of its shard that some later rank reads: on a zigzag shard, often
//! one chunk of the two. It arrives as a window of the shard's rows, and
//! the kernels fold that window with its global indices; Algorithm 1
//! accumulates into the matching rows of the circulating `∇K, ∇V`.
//! Compute and the gradient hops keep whole-shard gates.
//!
//! ## Overlap
//!
//! Algorithm 1's read-only `(K, V)` depart before the local compute of each
//! step (activation overlapping, Fig. 5 top) and its gradients right after
//! the compute that produced them, so both transfer streams hide behind
//! compute in virtual time. This fine-grained schedule is the only one.

use crate::cost::CostModel;
use crate::layout::Layout;
use crate::skip::SkipPlan;
use burst_comm::{CommError, Communicator, DoubleRingSpec, MemCategory, SpanKind};
use burst_kernels::{attn_tile_backward, attn_tile_backward_acc, AttnMask, KernelWork, Span};
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

    fn head_dim(&self) -> usize {
        self.q.cols()
    }
}

/// Extra inputs for the backward pass. Neither algorithm reads the forward's
/// `O` beyond `D = rowsum(∇O ∘ O)`, so the caller forms `D` and may free `O`
/// before the first slot opens.
#[derive(Clone, Copy)]
pub struct BackwardInputs<'a> {
    pub lse: &'a [f32],
    pub grad_o: &'a Mat,
    /// `D = grad_o.rowsum_hadamard(o)`, one value per local row. The
    /// schedules charge its thin GEMM: Algorithm 2 once per head before its
    /// first slot, Algorithm 1 in every round, as RingAttention recomputes
    /// it.
    pub d: &'a [f32],
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

/// RingAttention backward (Algorithm 1): `(K_j, V_j, ∇K_j, ∇V_j)` circulate
/// for `G` full hops (exactly `4Nd` words per rank); `∇Q_i` accumulates
/// locally. Per Algorithm 1 line 10, `D_i = rowsum(∇O_i ∘ O_i)` is
/// recomputed every round — we charge its (small) cost each round, which is
/// precisely the compute overhead Algorithm 2 removes. The read-only
/// `(K_j, V_j)` depart before the round's compute and the gradients right
/// after it.
///
/// It runs on a one-level spec ([`DoubleRingSpec::one_level`]), the flat
/// ring over its members; this panics on a two-level one. A failed
/// send/receive at ring round `k` surfaces as an [`AttnFailure`] carrying
/// `(Phase::Backward, k)`.
pub fn try_ring_backward(
    comm: &mut Communicator,
    spec: &DoubleRingSpec,
    shard: &AttnShard,
    back: &BackwardInputs,
) -> Result<(Mat, Mat, Mat), AttnFailure> {
    assert_eq!(spec.nodes(), 1, "Algorithm 1 runs on the one-level ring");
    let g = spec.len();
    let me = spec
        .slot_of(comm.rank())
        .expect("flat-ring caller must be a spec member");
    let next = spec.rank_at(spec.next_in_node(me));
    let prev = spec.rank_at(spec.prev_in_node(me));
    let d = shard.head_dim();
    let qi = shard.idx_at(g, me);
    let d_recompute = shard.cost.gemm_secs(shard.q.rows(), d, 1);
    if g == 1 {
        let (dq, dk, dv, w) = attn_tile_backward(
            shard.q,
            shard.k,
            shard.v,
            back.grad_o,
            back.lse,
            back.d,
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
    let (buf_kv, buf_dkv) = plan.flat_alg1_bufs(me);
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
        let r = plan.flat_alg1_round(me, step);
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
        post_kv(comm, next, want, rows, shard, || {
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
                back.d,
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
            comm.try_send_mat(next, cur_dk).map_err(&at)?;
            comm.try_send_mat(next, cur_dv).map_err(&at)?;
        } else {
            skip_kv(comm, rows, shard);
        }
        let rows_in = plan.window(r.shard_in, r.recv_kv, kidx_all[r.shard_in].len());
        held = KvHold::recv(comm, prev, rows_in).map_err(&at)?;
        dkv = if r.recv_dkv {
            Some((
                comm.try_recv_mat(prev).map_err(&at)?,
                comm.try_recv_mat(prev).map_err(&at)?,
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
