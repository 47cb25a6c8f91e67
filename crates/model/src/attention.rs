//! Multi-head attention with pluggable execution backends.
//!
//! The projection math (`W_Q/W_K/W_V/W_attn` of Eq. 1) lives here; the
//! actual attention runs through an [`AttnExec`] implementation:
//!
//! * [`LocalExec`] — single-device blocked flash attention (the reference);
//! * [`DistExec`] — ring-family context parallelism (RingAttention,
//!   BurstAttention, DoubleRing, topology-aware Burst);
//! * [`UspExec`] — head parallelism: LoongTrain's hybrid head+context
//!   USP, or DeepSpeed-Ulysses when its Ulysses group is the whole world.
//!
//! `backward` is self-contained (takes `q, k, v, o, lse` explicitly) and
//! reruns no forward, so gradient-checkpointing strategies alone decide
//! what is recomputed: they rebuild those tensors any way they like —
//! including the paper's sequence-level selective scheme, which recomputes
//! only the front of the sequence via [`AttnExec::forward_partial`].

use crate::linear::{Linear, LinearSaved};
use crate::rope::{rope_apply, rope_backward, ROPE_THETA};
use burst_comm::{CommError, Communicator, MemCategory, SpanKind};
use burst_dattn::usp::{try_usp_backward, try_usp_forward, HeadGrads, UspCtx, UspTopo};
use burst_dattn::{
    double_ring, escalate_attn, try_ring_backward, Algo, AttnShard, BackwardInputs, CostModel,
    DattnError, DistAttnOut, DoubleRingSpec, Layout,
};
use burst_kernels::flash::DEFAULT_BLOCK;
use burst_kernels::{flash_backward, flash_forward, AttnMask, Span};
use burst_tensor::Mat;
use serde::{Deserialize, Serialize};

/// Per-head attention outputs of a forward pass.
pub type AttnOut = (Vec<Mat>, Vec<Vec<f32>>);

/// An attention execution backend: computes per-head attention over this
/// rank's rows, given per-head `Q/K/V` shards.
pub trait AttnExec {
    /// Forward: per-head `(O, Lse)` for the local rows.
    fn forward(&mut self, q: &[Mat], k: &[Mat], v: &[Mat]) -> AttnOut;

    /// Backward: per-head `(∇Q, ∇K, ∇V)` for the local rows, given the
    /// tensors the forward produced (however the caller obtained them:
    /// kept, or rebuilt by the checkpointing strategy). It consumes them as
    /// given and runs no forward of its own.
    #[allow(clippy::too_many_arguments)]
    fn backward(
        &mut self,
        q: &[Mat],
        k: &[Mat],
        v: &[Mat],
        o: &[Mat],
        lse: &[Vec<f32>],
        grad_o: &[Mat],
    ) -> (Vec<Mat>, Vec<Mat>, Vec<Mat>);

    /// Recompute the attention outputs restricted to global tokens
    /// `< cutoff` (inputs are the local rows below the cutoff, in layout
    /// order). `None` when the backend does not support partial recompute,
    /// or when a query below the cutoff may attend a key at or above it, so
    /// that a pass over the front alone cannot rebuild the front's outputs;
    /// the caller then reruns the whole forward and keeps its front rows.
    fn forward_partial(
        &mut self,
        _q: &[Mat],
        _k: &[Mat],
        _v: &[Mat],
        _cutoff: usize,
    ) -> Option<AttnOut> {
        None
    }

    /// Whether recomputing the outputs of global tokens `< cutoff` from the
    /// same f32 inputs ([`AttnExec::forward_partial`], or the full forward
    /// where a backend has none) rebuilds the forward's bits for them. A
    /// backend that reruns its whole forward always does.
    fn recompute_rebuilds_forward(&self, _cutoff: usize) -> bool {
        true
    }

    /// Global token indices of this rank's local rows, in storage order.
    fn local_indices(&self) -> Vec<usize>;

    /// The communication fault that stopped this executor, if any (cleared
    /// on read). The layer stack drives the executor infallibly, so a
    /// distributed executor latches its first fault: the failing call
    /// yields zero-shaped outputs, every later call short-circuits without
    /// touching the wire, and the caller reads the fault after the
    /// micro-batch to fail the step instead of aborting the process.
    fn take_failure(&mut self) -> Option<CommError> {
        None
    }

    /// The attention mask this executor computes under. Drives the
    /// mask-aware sequence-selective checkpointing cutoff: sparse masks
    /// make front-segment recompute cheaper, so the same recompute budget
    /// buys a smaller stash.
    fn mask(&self) -> &AttnMask;

    /// The rank's communicator, for backends that run on one. The span,
    /// recompute-scope, stash and workspace hooks below delegate through it
    /// and are no-ops without one.
    fn comm(&mut self) -> Option<&mut Communicator> {
        None
    }

    /// Open a structural span on the rank's timeline. Layer-level
    /// instrumentation goes through these so `checkpoint.rs` stays
    /// backend-agnostic.
    fn span_begin(&mut self, kind: SpanKind, name: &'static str) {
        if let Some(comm) = self.comm() {
            comm.span_begin(kind, name);
        }
    }

    /// Close the innermost open span.
    fn span_end(&mut self) {
        if let Some(comm) = self.comm() {
            comm.span_end();
        }
    }

    /// Enter/leave a recompute scope: compute charged inside is tagged
    /// `"recompute"` in the trace, and [`UspExec`] keeps the head-shard
    /// context of a forward run inside one for the backward that follows.
    fn recompute_scope(&mut self, enter: bool) {
        if let Some(comm) = self.comm() {
            comm.recompute_scope(enter);
        }
    }

    /// Register one block's checkpoint stash: `bytes` kept until the
    /// block's backward ends, freed in reverse block order by
    /// [`AttnExec::stash_pop`], and `o_bytes` of cached attention output `O`
    /// as an entry of its own, which the block's attention backward closes
    /// once it no longer reads `O` ([`Communicator::mem_stash_close_o`]).
    /// Lands on the accountant's `CkptStash` lane (no-op with accounting
    /// off).
    fn stash_push(&mut self, bytes: usize, o_bytes: usize) {
        if let Some(comm) = self.comm() {
            comm.mem_stash_push(bytes as u64, o_bytes as u64);
        }
    }

    /// Release the most recently pushed block's stash entries that are
    /// still open.
    fn stash_pop(&mut self) {
        if let Some(comm) = self.comm() {
            comm.mem_stash_pop();
        }
    }

    /// Note transient working-set bytes (recompute scratch, rebuilt block
    /// contexts) on the accountant's ungated `Workspace` lane.
    fn note_workspace(&mut self, bytes: usize) {
        if let Some(comm) = self.comm() {
            comm.mem_note_workspace(bytes as u64);
        }
    }
}

/// Whether a query among the `n` global tokens below `cut` may attend a key
/// at or above it: then a pass over the tokens below the cut alone does not
/// give them their outputs.
fn front_sees_tail(mask: &AttnMask, n: usize, cut: usize) -> bool {
    mask.pairs_between(&[Span::range(0, cut)], &[Span::range(cut, n)]) > 0
}

/// Whether a pass over the global tokens `< cut` alone gives them the
/// forward's bits: no query below the cut may attend a key at or above it,
/// and the cut leaves whole kernel tiles on each of the `g` members
/// ([`Layout::cut_on_tiles`]).
fn partial_pass_exact(mask: &AttnMask, layout: Layout, n: usize, g: usize, cut: usize) -> bool {
    !front_sees_tail(mask, n, cut) && layout.cut_on_tiles(n, g, cut, DEFAULT_BLOCK)
}

/// Single-device blocked flash attention.
pub struct LocalExec {
    pub mask: AttnMask,
    pub seq_len: usize,
}

impl LocalExec {
    pub fn new(mask: AttnMask, seq_len: usize) -> Self {
        LocalExec { mask, seq_len }
    }
}

fn head_scale(q: &Mat) -> f32 {
    1.0 / (q.cols() as f32).sqrt()
}

impl AttnExec for LocalExec {
    fn forward(&mut self, q: &[Mat], k: &[Mat], v: &[Mat]) -> AttnOut {
        let idx = self.local_indices();
        let mut o = Vec::with_capacity(q.len());
        let mut lse = Vec::with_capacity(q.len());
        for h in 0..q.len() {
            let out = flash_forward(
                &q[h],
                &k[h],
                &v[h],
                head_scale(&q[h]),
                &self.mask,
                &idx,
                &idx,
            );
            o.push(out.o);
            lse.push(out.lse);
        }
        (o, lse)
    }

    fn backward(
        &mut self,
        q: &[Mat],
        k: &[Mat],
        v: &[Mat],
        o: &[Mat],
        lse: &[Vec<f32>],
        grad_o: &[Mat],
    ) -> (Vec<Mat>, Vec<Mat>, Vec<Mat>) {
        let idx = self.local_indices();
        let mut dq = Vec::with_capacity(q.len());
        let mut dk = Vec::with_capacity(q.len());
        let mut dv = Vec::with_capacity(q.len());
        for h in 0..q.len() {
            let (a, b, c, _) = flash_backward(
                &q[h],
                &k[h],
                &v[h],
                &o[h],
                &grad_o[h],
                &lse[h],
                head_scale(&q[h]),
                &self.mask,
                &idx,
                &idx,
            );
            dq.push(a);
            dk.push(b);
            dv.push(c);
        }
        (dq, dk, dv)
    }

    fn forward_partial(
        &mut self,
        q: &[Mat],
        k: &[Mat],
        v: &[Mat],
        cutoff: usize,
    ) -> Option<AttnOut> {
        if front_sees_tail(&self.mask, self.seq_len, cutoff) {
            return None;
        }
        let idx: Vec<usize> = (0..cutoff.min(self.seq_len)).collect();
        let mut o = Vec::with_capacity(q.len());
        let mut lse = Vec::with_capacity(q.len());
        for h in 0..q.len() {
            let out = flash_forward(
                &q[h],
                &k[h],
                &v[h],
                head_scale(&q[h]),
                &self.mask,
                &idx,
                &idx,
            );
            o.push(out.o);
            lse.push(out.lse);
        }
        Some((o, lse))
    }

    /// The partial pass runs the tokens below the cutoff as one run.
    fn recompute_rebuilds_forward(&self, cutoff: usize) -> bool {
        partial_pass_exact(&self.mask, Layout::Contiguous, self.seq_len, 1, cutoff)
    }

    fn local_indices(&self) -> Vec<usize> {
        (0..self.seq_len).collect()
    }

    fn mask(&self) -> &AttnMask {
        &self.mask
    }
}

/// Ring-family context parallelism on the simulated cluster, over an
/// ascending member list (the whole world, or the alive set of an elastic
/// step).
///
/// The ring is the member list with this rank at its position, so a
/// `g`-member step reproduces a fresh `g`-rank world bit for bit. Every
/// algorithm runs on a [`DoubleRingSpec`] over the members. The
/// topology-aware algorithms (`DoubleRing`, `BurstTopo`) take
/// [`DoubleRingSpec::from_members`] when the members are node-balanced
/// (always, for the whole world) and fall back to the flat ring, counted in
/// [`DistExec::flat_fallback`], when they are ragged across nodes. The flat
/// ring is the one-level spec ([`DoubleRingSpec::one_level`]): its forward
/// and Algorithm 2 are the two-level schedules of [`double_ring`] on it, and
/// Algorithm 1 there is [`try_ring_backward`].
///
/// On a two-level spec the forward and the partial recompute forward run
/// every head through one pipelined pass
/// ([`double_ring::try_double_ring_forward_heads_on`]): head `h + 1`'s
/// inter-node `(K, V)` transfer hides behind head `h`'s intra-node sweeps.
/// The backward there runs every head through one call too. BurstTopo's
/// ([`double_ring::try_double_ring_backward_alg2_heads_on`]) sends head
/// `h + 1`'s inter-node start bundle during head `h`'s last sweep, and head
/// `h`'s final `∇Q` lands behind head `h + 1`'s work. DoubleRing's
/// Algorithm 1 ([`double_ring::try_double_ring_backward_alg1_heads_on`])
/// lands head `h`'s own `(∇K, ∇V)` behind head `h + 1`'s first sweep. In
/// both, a pending landing is the head's output and bills nothing. Every
/// pass on the flat ring runs one head at a time, so each flat head opens
/// and closes its own accumulators. Every backward first forms each head's
/// `D = rowsum(∇O ∘ O)`, billed as `attn_bwd_d` until it returns, and
/// closes the block's cached `O` ([`AttnExec::stash_push`]): no slot reads
/// `O`. A communication fault is latched (see [`AttnExec::take_failure`]);
/// in a call over every head it zeroes every head, and one head at a time
/// it zeroes the heads from the fault on.
pub struct DistExec<'a> {
    pub comm: &'a mut Communicator,
    pub algo: Algo,
    pub layout: Layout,
    pub mask: AttnMask,
    pub seq_len: usize,
    pub cost: CostModel,
    /// Mask-aware round skipping: fully-masked ring rounds are elided
    /// (no wire traffic, no compute, no virtual time) while remaining
    /// bit-identical to the dense schedule. Off by default.
    pub skip: bool,
    /// The ring over the ascending members, this rank at its slot: the
    /// two-level split for a topology-aware algorithm on node-balanced
    /// members, the one-level (flat) ring otherwise.
    spec: DoubleRingSpec,
    /// A topology-aware algorithm runs on the flat ring because the members
    /// are ragged across nodes.
    flat_fallback: bool,
    latch: FaultLatch,
}

impl<'a> DistExec<'a> {
    /// Panics if the calling rank is not in `members`.
    pub fn new(
        comm: &'a mut Communicator,
        members: Vec<usize>,
        algo: Algo,
        layout: Layout,
        mask: AttnMask,
        seq_len: usize,
        cost: CostModel,
    ) -> Self {
        let topo_algo = matches!(algo, Algo::DoubleRing | Algo::BurstTopo);
        let two_level = topo_algo
            .then(|| DoubleRingSpec::from_members(comm.topology(), &members))
            .flatten();
        let flat_fallback = topo_algo && two_level.is_none();
        let spec = two_level.unwrap_or_else(|| DoubleRingSpec::one_level(&members));
        assert!(
            spec.slot_of(comm.rank()).is_some(),
            "DistExec: calling rank not in member list"
        );
        DistExec {
            comm,
            algo,
            layout,
            mask,
            seq_len,
            cost,
            skip: false,
            flat_fallback,
            spec,
            latch: FaultLatch::default(),
        }
    }

    /// Whether a topology-aware algorithm ran flat because the members are
    /// ragged across nodes.
    pub fn flat_fallback(&self) -> bool {
        self.flat_fallback
    }

    /// A topology-aware algorithm on its two-level spec: the forward and
    /// the backward take every head in one call there.
    fn two_level(&self) -> bool {
        matches!(self.algo, Algo::DoubleRing | Algo::BurstTopo) && !self.flat_fallback
    }

    /// All heads' forward (restricted to tokens `< cutoff` when given). On
    /// the two-level ring a fault anywhere in the pipelined pass zeroes every
    /// head; on the flat ring heads past a fault get zeros.
    fn fwd(&mut self, q: &[Mat], k: &[Mat], v: &[Mat], cutoff: Option<usize>) -> AttnOut {
        let heads: Vec<AttnShard> = (0..q.len())
            .map(|h| AttnShard {
                q: &q[h],
                k: &k[h],
                v: &v[h],
                scale: head_scale(&q[h]),
                mask: &self.mask,
                layout: self.layout,
                seq_len: self.seq_len,
                cost: self.cost,
                max_token: cutoff,
                skip: self.skip,
            })
            .collect();
        let per_call = if self.two_level() { heads.len() } else { 1 };
        let (comm, spec, latch) = (&mut *self.comm, &self.spec, &mut self.latch);
        let outs: Vec<DistAttnOut> = heads
            .chunks(per_call)
            .map_while(|hs| {
                latch.run(comm, |c| {
                    double_ring::try_double_ring_forward_heads_on(c, hs, spec)
                })
            })
            .flatten()
            .collect();
        zero_padded_out(outs.into_iter().map(|out| (out.o, out.lse)).unzip(), q, v)
    }
}

impl AttnExec for DistExec<'_> {
    fn forward(&mut self, q: &[Mat], k: &[Mat], v: &[Mat]) -> AttnOut {
        self.fwd(q, k, v, None)
    }

    fn backward(
        &mut self,
        q: &[Mat],
        k: &[Mat],
        v: &[Mat],
        o: &[Mat],
        lse: &[Vec<f32>],
        grad_o: &[Mat],
    ) -> (Vec<Mat>, Vec<Mat>, Vec<Mat>) {
        // Every head's `D` before the first slot opens: no slot reads `O`,
        // so a block's cached `O` closes here. The `D` vectors stay billed
        // until the backward returns.
        let d: Vec<Vec<f32>> = o
            .iter()
            .zip(grad_o)
            .map(|(o, g)| g.rowsum_hadamard(o))
            .collect();
        let d_bytes = 4 * d.iter().map(Vec::len).sum::<usize>() as u64;
        let mem_d = self
            .comm
            .mem_alloc("attn_bwd_d", MemCategory::Activations, d_bytes);
        self.comm.mem_stash_close_o();
        let heads: Vec<(AttnShard, BackwardInputs)> = (0..q.len())
            .map(|h| {
                let shard = AttnShard {
                    q: &q[h],
                    k: &k[h],
                    v: &v[h],
                    scale: head_scale(&q[h]),
                    mask: &self.mask,
                    layout: self.layout,
                    seq_len: self.seq_len,
                    cost: self.cost,
                    max_token: None,
                    skip: self.skip,
                };
                let back = BackwardInputs {
                    lse: &lse[h],
                    grad_o: &grad_o[h],
                    d: &d[h],
                };
                (shard, back)
            })
            .collect();
        let (algo, two_level) = (self.algo, self.two_level());
        let per_call = if two_level { heads.len() } else { 1 };
        let (comm, spec, latch) = (&mut *self.comm, &self.spec, &mut self.latch);
        let grads: Vec<(Mat, Mat, Mat)> = heads
            .chunks(per_call)
            .map_while(|hs| {
                latch.run(comm, |c| match algo {
                    Algo::BurstFlat | Algo::BurstTopo => {
                        double_ring::try_double_ring_backward_alg2_heads_on(c, hs, spec)
                    }
                    Algo::DoubleRing if two_level => {
                        double_ring::try_double_ring_backward_alg1_heads_on(c, hs, spec, false)
                    }
                    Algo::RingFlat | Algo::DoubleRing => {
                        try_ring_backward(c, spec, &hs[0].0, &hs[0].1).map(|g| vec![g])
                    }
                })
            })
            .flatten()
            .collect();
        comm.mem_free(mem_d);
        let (dq, (dk, dv)) = grads.into_iter().map(|(a, b, c)| (a, (b, c))).unzip();
        zero_padded_grads((dq, dk, dv), q, k, v)
    }

    fn forward_partial(
        &mut self,
        q: &[Mat],
        k: &[Mat],
        v: &[Mat],
        cutoff: usize,
    ) -> Option<AttnOut> {
        (!front_sees_tail(&self.mask, self.seq_len, cutoff))
            .then(|| self.fwd(q, k, v, Some(cutoff)))
    }

    /// Every member's tokens below the cutoff circulate as the ring's
    /// partial key tiles.
    fn recompute_rebuilds_forward(&self, cutoff: usize) -> bool {
        let g = self.spec.len();
        partial_pass_exact(&self.mask, self.layout, self.seq_len, g, cutoff)
    }

    fn local_indices(&self) -> Vec<usize> {
        let slot = self.spec.slot_of(self.comm.rank()).expect("member");
        self.layout.indices(self.seq_len, self.spec.len(), slot)
    }

    fn take_failure(&mut self) -> Option<CommError> {
        self.latch.take()
    }

    fn mask(&self) -> &AttnMask {
        &self.mask
    }

    fn comm(&mut self) -> Option<&mut Communicator> {
        Some(self.comm)
    }
}

/// Head-parallel backend: LoongTrain's USP over Ulysses groups of
/// `ulysses_size` ranks; `ulysses_size` = world size is DeepSpeed-Ulysses.
/// The context-parallel ring runs on the two-level ring (one level when its
/// members are ragged across nodes): every owned head through one pipelined
/// forward pass, and through one Algorithm 1 call in the backward, each
/// head's `(∇K, ∇V)` landing behind the next head's first sweep (see
/// [`burst_dattn::usp`]). The forward returns each head's `(O, Lse)`, and
/// the backward consumes the `(O, Lse)` it is handed, as the ring family
/// does: rebuilding them is the checkpointing strategy's business.
///
/// A forward run inside a recompute scope (see
/// [`AttnExec::recompute_scope`]) — the Full and sequence-selective
/// strategies rebuild a block's outputs right before that block's
/// backward — keeps its head-shard `Q, K, V` ([`UspCtx`]) until the next
/// backward, which then exchanges only `(O, Lse)` and `∇O`. Any other
/// forward releases its context on return, and a backward without one
/// exchanges `Q, K, V` first. A communication fault is latched (see
/// [`AttnExec::take_failure`]).
pub struct UspExec<'a> {
    pub comm: &'a mut Communicator,
    pub ulysses_size: usize,
    pub mask: AttnMask,
    pub seq_len: usize,
    pub cost: CostModel,
    /// Mask-aware round skipping on the context-parallel ring legs (the
    /// all-to-alls are mask-independent). Off by default.
    pub skip: bool,
    /// The head-shard context of the last forward run in a recompute
    /// scope, until the backward consumes it.
    held: Option<UspCtx>,
    latch: FaultLatch,
}

impl<'a> UspExec<'a> {
    pub fn new(
        comm: &'a mut Communicator,
        ulysses_size: usize,
        mask: AttnMask,
        seq_len: usize,
        cost: CostModel,
    ) -> Self {
        UspExec {
            comm,
            ulysses_size,
            mask,
            seq_len,
            cost,
            skip: false,
            held: None,
            latch: FaultLatch::default(),
        }
    }

    fn topo(&self) -> UspTopo {
        UspTopo::new(self.comm, self.ulysses_size).with_skip(self.skip)
    }
}

impl AttnExec for UspExec<'_> {
    fn forward(&mut self, q: &[Mat], k: &[Mat], v: &[Mat]) -> AttnOut {
        let topo = self.topo();
        let (mask, seq_len, cost) = (&self.mask, self.seq_len, &self.cost);
        let scale = head_scale(&q[0]);
        let out = self.latch.run(self.comm, |comm| {
            try_usp_forward(comm, &topo, q, k, v, scale, mask, seq_len, cost)
        });
        let out = out.map(|(out, ctx)| {
            let stale = if self.comm.in_recompute_scope() {
                self.held.replace(ctx)
            } else {
                Some(ctx)
            };
            if let Some(ctx) = stale {
                ctx.release(self.comm);
            }
            out
        });
        zero_padded_out(out.unwrap_or_default(), q, v)
    }

    fn backward(
        &mut self,
        q: &[Mat],
        k: &[Mat],
        v: &[Mat],
        o: &[Mat],
        lse: &[Vec<f32>],
        grad_o: &[Mat],
    ) -> HeadGrads {
        let topo = self.topo();
        let (mask, seq_len, cost) = (&self.mask, self.seq_len, &self.cost);
        let scale = head_scale(&q[0]);
        let held = self.held.take();
        let grads = self.latch.run(self.comm, |comm| {
            try_usp_backward(
                comm, &topo, held, q, k, v, o, lse, grad_o, scale, mask, seq_len, cost,
            )
        });
        zero_padded_grads(grads.unwrap_or_default(), q, k, v)
    }

    fn local_indices(&self) -> Vec<usize> {
        self.topo().local_idx(self.seq_len)
    }

    fn take_failure(&mut self) -> Option<CommError> {
        self.latch.take()
    }

    fn mask(&self) -> &AttnMask {
        &self.mask
    }

    fn comm(&mut self) -> Option<&mut Communicator> {
        Some(self.comm)
    }
}

/// The first communication fault of a distributed executor, latched until
/// taken (see [`AttnExec::take_failure`]).
#[derive(Default)]
struct FaultLatch(Option<CommError>);

impl FaultLatch {
    /// Run `f` unless a fault is latched, latching its communication
    /// failure. Infeasible geometry is a configuration error, not a fault,
    /// and escalates.
    fn run<T, E: Into<DattnError>>(
        &mut self,
        comm: &mut Communicator,
        f: impl FnOnce(&mut Communicator) -> Result<T, E>,
    ) -> Option<T> {
        if self.0.is_some() {
            return None;
        }
        match f(comm).map_err(Into::into) {
            Ok(out) => Some(out),
            Err(DattnError::Comm(e)) => {
                self.0 = Some(e.source);
                None
            }
            Err(e) => escalate_attn(comm, e),
        }
    }

    fn take(&mut self) -> Option<CommError> {
        self.0.take()
    }
}

/// Per-head forward outputs, with zero-shaped heads appended for those a
/// latched fault left uncomputed.
fn zero_padded_out((mut o, mut lse): AttnOut, q: &[Mat], v: &[Mat]) -> AttnOut {
    for h in o.len()..q.len() {
        o.push(Mat::zeros(q[h].rows(), v[h].cols()));
        lse.push(vec![0.0; q[h].rows()]);
    }
    (o, lse)
}

/// Per-head gradients, with zero-shaped heads appended for those a latched
/// fault left uncomputed.
fn zero_padded_grads(mut grads: HeadGrads, q: &[Mat], k: &[Mat], v: &[Mat]) -> HeadGrads {
    for h in grads.0.len()..q.len() {
        grads.0.push(Mat::zeros(q[h].rows(), q[h].cols()));
        grads.1.push(Mat::zeros(k[h].rows(), k[h].cols()));
        grads.2.push(Mat::zeros(v[h].rows(), v[h].cols()));
    }
    grads
}

/// Multi-head attention module: QKV projections + backend + output
/// projection (Eq. 1's `W_Q, W_K, W_V, W_attn`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiHeadAttention {
    pub wq: Linear,
    pub wk: Linear,
    pub wv: Linear,
    pub wo: Linear,
    pub heads: usize,
    /// Number of key/value heads (grouped-query attention); `heads` query
    /// heads share `kv_heads` K/V projections. `kv_heads == heads` is
    /// classic multi-head attention.
    pub kv_heads: usize,
    /// Apply rotary position embeddings to Q and K (LLaMA). Positions are
    /// the backend's global token indices, so distributed shards rotate
    /// consistently with the single-device reference.
    pub rope: bool,
}

/// Saved forward context of the attention module.
#[derive(Debug, Clone)]
pub struct MhaSaved {
    /// Input to the three projections.
    pub proj_in: LinearSaved,
    pub q_heads: Vec<Mat>,
    pub k_heads: Vec<Mat>,
    pub v_heads: Vec<Mat>,
    pub o_heads: Vec<Mat>,
    pub lse: Vec<Vec<f32>>,
}

impl MhaSaved {
    pub fn nbytes(&self) -> usize {
        let mats = |v: &Vec<Mat>| v.iter().map(|m| m.nbytes()).sum::<usize>();
        self.proj_in.nbytes()
            + mats(&self.q_heads)
            + mats(&self.k_heads)
            + mats(&self.v_heads)
            + mats(&self.o_heads)
            + self.lse.iter().map(|l| l.len() * 4).sum::<usize>()
    }

    /// Bytes attributable to the attention outputs `(O, Lse)` — what
    /// selective checkpointing++ stores.
    pub fn attn_out_nbytes(&self) -> usize {
        self.o_heads.iter().map(|m| m.nbytes()).sum::<usize>()
            + self.lse.iter().map(|l| l.len() * 4).sum::<usize>()
    }
}

fn split_heads(x: &Mat, heads: usize) -> Vec<Mat> {
    let dh = x.cols() / heads;
    (0..heads)
        .map(|h| x.slice_cols(h * dh, (h + 1) * dh))
        .collect()
}

impl MultiHeadAttention {
    pub fn new(d_model: usize, heads: usize, seed: u64) -> Self {
        Self::new_gqa(d_model, heads, heads, seed)
    }

    /// Grouped-query attention: `heads` query heads share `kv_heads`
    /// key/value projections (`heads % kv_heads == 0`).
    pub fn new_gqa(d_model: usize, heads: usize, kv_heads: usize, seed: u64) -> Self {
        assert_eq!(d_model % heads, 0, "MHA: d_model must divide by heads");
        assert!(
            kv_heads > 0 && heads.is_multiple_of(kv_heads),
            "MHA: heads ({heads}) must divide by kv_heads ({kv_heads})"
        );
        let dh = d_model / heads;
        MultiHeadAttention {
            wq: Linear::new(d_model, d_model, seed),
            wk: Linear::new(kv_heads * dh, d_model, seed + 1),
            wv: Linear::new(kv_heads * dh, d_model, seed + 2),
            wo: Linear::new(d_model, d_model, seed + 3),
            heads,
            kv_heads,
            rope: false,
        }
    }

    /// Expand `kv_heads` tensors to one per query head (GQA sharing).
    fn expand_kv(&self, kv: Vec<Mat>) -> Vec<Mat> {
        if self.kv_heads == self.heads {
            return kv;
        }
        let group = self.heads / self.kv_heads;
        (0..self.heads).map(|h| kv[h / group].clone()).collect()
    }

    /// Sum per-query-head gradients back onto their shared KV heads.
    fn reduce_kv(&self, grads: Vec<Mat>) -> Vec<Mat> {
        if self.kv_heads == self.heads {
            return grads;
        }
        let group = self.heads / self.kv_heads;
        let mut out: Vec<Mat> = Vec::with_capacity(self.kv_heads);
        for kvh in 0..self.kv_heads {
            let mut acc = grads[kvh * group].clone();
            for g in 1..group {
                acc.add_assign(&grads[kvh * group + g]);
            }
            out.push(acc);
        }
        out
    }

    /// Rotate per-head Q/K by their global positions (no-op when `rope` is
    /// off).
    fn maybe_rope<E: AttnExec>(&self, heads: &mut [Mat], exec: &E) {
        if !self.rope {
            return;
        }
        let idx = exec.local_indices();
        for h in heads.iter_mut() {
            assert_eq!(h.cols() % 2, 0, "RoPE needs an even head dimension");
            *h = rope_apply(h, &idx, ROPE_THETA);
        }
    }

    pub fn forward<E: AttnExec>(&self, x: &Mat, exec: &mut E) -> (Mat, MhaSaved) {
        let q = self.wq.forward_nosave(x);
        let k = self.wk.forward_nosave(x);
        let v = self.wv.forward_nosave(x);
        let mut q_heads = split_heads(&q, self.heads);
        let mut kv_k = split_heads(&k, self.kv_heads);
        let kv_v = split_heads(&v, self.kv_heads);
        self.maybe_rope(&mut q_heads, exec);
        self.maybe_rope(&mut kv_k, exec);
        let k_heads = self.expand_kv(kv_k);
        let v_heads = self.expand_kv(kv_v);
        let (o_heads, lse) = exec.forward(&q_heads, &k_heads, &v_heads);
        let merged = Mat::hstack(&o_heads);
        let y = self.wo.forward_nosave(&merged);
        (
            y,
            MhaSaved {
                proj_in: LinearSaved { x: x.clone() },
                q_heads,
                k_heads,
                v_heads,
                o_heads,
                lse,
            },
        )
    }

    /// Forward that injects cached attention outputs instead of running the
    /// backend (selective checkpointing++), or recomputes only the front
    /// segment and stitches in the cached tail (sequence-level selective).
    pub fn forward_with_cache<E: AttnExec>(
        &self,
        x: &Mat,
        exec: &mut E,
        cache: &crate::checkpoint::AttnCache,
    ) -> (Mat, MhaSaved) {
        use crate::checkpoint::AttnCache;
        let q = self.wq.forward_nosave(x);
        let k = self.wk.forward_nosave(x);
        let v = self.wv.forward_nosave(x);
        let mut q_heads = split_heads(&q, self.heads);
        let mut kv_k = split_heads(&k, self.kv_heads);
        let kv_v = split_heads(&v, self.kv_heads);
        self.maybe_rope(&mut q_heads, exec);
        self.maybe_rope(&mut kv_k, exec);
        let k_heads = self.expand_kv(kv_k);
        let v_heads = self.expand_kv(kv_v);
        let (o_heads, lse) = match cache {
            AttnCache::Full { o, lse } => (
                o.iter().map(|m| m.load()).collect::<Vec<Mat>>(),
                lse.clone(),
            ),
            AttnCache::Tail {
                o_tail,
                lse_tail,
                cutoff,
            } => {
                let idx = exec.local_indices();
                let front_rows: Vec<usize> = idx
                    .iter()
                    .enumerate()
                    .filter(|(_, &g)| g < *cutoff)
                    .map(|(r, _)| r)
                    .collect();
                let tail_rows: Vec<usize> = idx
                    .iter()
                    .enumerate()
                    .filter(|(_, &g)| g >= *cutoff)
                    .map(|(r, _)| r)
                    .collect();
                let q_sub: Vec<Mat> = q_heads.iter().map(|m| m.gather_rows(&front_rows)).collect();
                let k_sub: Vec<Mat> = k_heads.iter().map(|m| m.gather_rows(&front_rows)).collect();
                let v_sub: Vec<Mat> = v_heads.iter().map(|m| m.gather_rows(&front_rows)).collect();
                let partial = exec.forward_partial(&q_sub, &k_sub, &v_sub, *cutoff);
                let (o_front, lse_front) = match partial {
                    Some(out) => out,
                    // Backends without partial recompute (Ulysses/USP), and
                    // masks under which the front attends later keys, rerun
                    // the full forward once and keep its front rows: the
                    // tail cache still saves memory, not compute.
                    None => {
                        let (o, lse) = exec.forward(&q_heads, &k_heads, &v_heads);
                        let o_front: Vec<Mat> =
                            o.iter().map(|m| m.gather_rows(&front_rows)).collect();
                        let lse_front: Vec<Vec<f32>> = lse
                            .iter()
                            .map(|l| front_rows.iter().map(|&r| l[r]).collect())
                            .collect();
                        (o_front, lse_front)
                    }
                };
                // Stitch front (recomputed) and tail (cached) rows back into
                // local order.
                let rows = idx.len();
                let dh = q_heads[0].cols();
                let mut o = Vec::with_capacity(self.heads);
                let mut lse_full = Vec::with_capacity(self.heads);
                for h in 0..self.heads {
                    let mut oh = Mat::zeros(rows, dh);
                    let mut lh = vec![0.0f32; rows];
                    for (sub, &r) in front_rows.iter().enumerate() {
                        oh.row_mut(r).copy_from_slice(o_front[h].row(sub));
                        lh[r] = lse_front[h][sub];
                    }
                    let ot = o_tail[h].load();
                    for (sub, &r) in tail_rows.iter().enumerate() {
                        oh.row_mut(r).copy_from_slice(ot.row(sub));
                        lh[r] = lse_tail[h][sub];
                    }
                    o.push(oh);
                    lse_full.push(lh);
                }
                (o, lse_full)
            }
        };
        let merged = Mat::hstack(&o_heads);
        let y = self.wo.forward_nosave(&merged);
        (
            y,
            MhaSaved {
                proj_in: LinearSaved { x: x.clone() },
                q_heads,
                k_heads,
                v_heads,
                o_heads,
                lse,
            },
        )
    }

    /// Backward: accumulates all four projection grads, returns `∇x`.
    pub fn backward<E: AttnExec>(&mut self, saved: &MhaSaved, grad_y: &Mat, exec: &mut E) -> Mat {
        let merged = Mat::hstack(&saved.o_heads);
        let grad_merged = self.wo.backward(&LinearSaved { x: merged }, grad_y);
        let grad_o_heads = split_heads(&grad_merged, self.heads);
        let (mut dq, dk, dv) = exec.backward(
            &saved.q_heads,
            &saved.k_heads,
            &saved.v_heads,
            &saved.o_heads,
            &saved.lse,
            &grad_o_heads,
        );
        // Shared KV heads: fold the per-query-head gradients first (the
        // rotation is per-row, so reduce-then-unrotate equals
        // unrotate-then-reduce).
        let mut dk = self.reduce_kv(dk);
        let dv = self.reduce_kv(dv);
        if self.rope {
            // Chain through the (orthogonal) rotation.
            let idx = exec.local_indices();
            for h in dq.iter_mut().chain(dk.iter_mut()) {
                *h = rope_backward(h, &idx, ROPE_THETA);
            }
        }
        let dq_full = Mat::hstack(&dq);
        let dk_full = Mat::hstack(&dk);
        let dv_full = Mat::hstack(&dv);
        let mut grad_x = self.wq.backward(&saved.proj_in, &dq_full);
        grad_x.add_assign(&self.wk.backward(&saved.proj_in, &dk_full));
        grad_x.add_assign(&self.wv.backward(&saved.proj_in, &dv_full));
        grad_x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use burst_tensor::randn_mat;
    use burst_tensor::testutil::{assert_allclose, numerical_grad};

    #[test]
    fn local_exec_forward_backward_numerical() {
        let (n, d, heads) = (8usize, 6usize, 2usize);
        let mha = MultiHeadAttention::new(d, heads, 40);
        let mut exec = LocalExec::new(AttnMask::Causal, n);
        let x = randn_mat(n, d, 0.8, 41);
        let gy = randn_mat(n, d, 1.0, 42);
        let (y, saved) = mha.forward(&x, &mut exec);
        assert_eq!(y.shape(), (n, d));
        let mut mha2 = mha.clone();
        let gx = mha2.backward(&saved, &gy, &mut exec);

        let mha3 = mha.clone();
        let gy2 = gy.clone();
        let nx = numerical_grad(&x, 1e-2, move |m| {
            let mut e = LocalExec::new(AttnMask::Causal, n);
            mha3.forward(m, &mut e)
                .0
                .as_slice()
                .iter()
                .zip(gy2.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        });
        assert_allclose(&gx, &nx, 3e-2, "MHA ∇x");
    }

    #[test]
    fn gqa_backward_matches_numerical() {
        // 4 query heads sharing 2 KV heads, with RoPE on.
        let (n, d, heads, kv) = (8usize, 8usize, 4usize, 2usize);
        let mut mha = MultiHeadAttention::new_gqa(d, heads, kv, 55);
        mha.rope = true;
        assert_eq!(mha.wk.weight.w.rows(), kv * d / heads);
        let mut exec = LocalExec::new(AttnMask::Causal, n);
        let x = randn_mat(n, d, 0.8, 56);
        let gy = randn_mat(n, d, 1.0, 57);
        let (y, saved) = mha.forward(&x, &mut exec);
        assert_eq!(y.shape(), (n, d));
        let mut mha2 = mha.clone();
        let gx = mha2.backward(&saved, &gy, &mut exec);
        let mha3 = mha.clone();
        let gy2 = gy.clone();
        let nx = numerical_grad(&x, 1e-2, move |m| {
            let mut e = LocalExec::new(AttnMask::Causal, n);
            mha3.forward(m, &mut e)
                .0
                .as_slice()
                .iter()
                .zip(gy2.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        });
        assert_allclose(&gx, &nx, 3e-2, "GQA ∇x");
        // KV weight grads must also match numerically.
        let x2 = x.clone();
        let gy3 = gy.clone();
        let mut probe = mha.clone();
        let nw = numerical_grad(&mha.wk.weight.w, 1e-2, move |m| {
            probe.wk.weight.w = m.clone();
            let mut e = LocalExec::new(AttnMask::Causal, n);
            probe
                .forward(&x2, &mut e)
                .0
                .as_slice()
                .iter()
                .zip(gy3.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        });
        assert_allclose(&mha2.wk.weight.grad, &nw, 3e-2, "GQA ∇W_k");
    }

    #[test]
    fn gqa_with_full_kv_heads_equals_mha() {
        let (n, d, heads) = (6usize, 8usize, 4usize);
        let a = MultiHeadAttention::new(d, heads, 58);
        let b = MultiHeadAttention::new_gqa(d, heads, heads, 58);
        let mut exec = LocalExec::new(AttnMask::Causal, n);
        let x = randn_mat(n, d, 0.8, 59);
        let (ya, _) = a.forward(&x, &mut exec);
        let (yb, _) = b.forward(&x, &mut exec);
        assert_allclose(&ya, &yb, 0.0, "kv_heads == heads is plain MHA");
    }

    #[test]
    #[should_panic(expected = "must divide by kv_heads")]
    fn gqa_rejects_nondividing_kv_heads() {
        let _ = MultiHeadAttention::new_gqa(12, 4, 3, 60);
    }

    #[test]
    fn rope_mha_backward_matches_numerical() {
        let (n, d, heads) = (8usize, 8usize, 2usize);
        let mut mha = MultiHeadAttention::new(d, heads, 45);
        mha.rope = true;
        let mut exec = LocalExec::new(AttnMask::Causal, n);
        let x = randn_mat(n, d, 0.8, 46);
        let gy = randn_mat(n, d, 1.0, 47);
        let (_, saved) = mha.forward(&x, &mut exec);
        let mut mha2 = mha.clone();
        let gx = mha2.backward(&saved, &gy, &mut exec);
        let mha3 = mha.clone();
        let gy2 = gy.clone();
        let nx = numerical_grad(&x, 1e-2, move |m| {
            let mut e = LocalExec::new(AttnMask::Causal, n);
            mha3.forward(m, &mut e)
                .0
                .as_slice()
                .iter()
                .zip(gy2.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        });
        assert_allclose(&gx, &nx, 3e-2, "RoPE MHA ∇x");
    }

    #[test]
    fn rope_breaks_permutation_symmetry() {
        // Without positions, swapping two key/value rows with a full mask
        // leaves outputs identical; RoPE must distinguish them.
        let (n, d, heads) = (4usize, 8usize, 2usize);
        let mut mha = MultiHeadAttention::new(d, heads, 48);
        let mut exec = LocalExec::new(AttnMask::Full, n);
        let x = randn_mat(n, d, 0.8, 49);
        let mut x_swapped = x.clone();
        let row0 = x.row(0).to_vec();
        let row1 = x.row(1).to_vec();
        x_swapped.row_mut(0).copy_from_slice(&row1);
        x_swapped.row_mut(1).copy_from_slice(&row0);
        // Plain attention: row 2's output is invariant to the swap.
        let (y_a, _) = mha.forward(&x, &mut exec);
        let (y_b, _) = mha.forward(&x_swapped, &mut exec);
        for (a, b) in y_a.row(2).iter().zip(y_b.row(2)) {
            assert!((a - b).abs() < 1e-5, "plain attention is permutation-blind");
        }
        // RoPE: the swap changes row 2's output.
        mha.rope = true;
        let (y_a, _) = mha.forward(&x, &mut exec);
        let (y_b, _) = mha.forward(&x_swapped, &mut exec);
        let diff: f32 = y_a
            .row(2)
            .iter()
            .zip(y_b.row(2))
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-3, "RoPE must be position-sensitive (diff {diff})");
    }

    #[test]
    fn split_heads_roundtrip() {
        let x = randn_mat(4, 6, 1.0, 50);
        let heads = split_heads(&x, 3);
        assert_eq!(heads.len(), 3);
        assert_eq!(heads[0].shape(), (4, 2));
        assert_eq!(Mat::hstack(&heads), x);
    }

    #[test]
    fn mha_saved_nbytes_counts_components() {
        let (n, d, heads) = (8usize, 4usize, 2usize);
        let mha = MultiHeadAttention::new(d, heads, 60);
        let mut exec = LocalExec::new(AttnMask::Full, n);
        let x = randn_mat(n, d, 1.0, 61);
        let (_, saved) = mha.forward(&x, &mut exec);
        // x + 3 qkv + o (all n×d) + lse (n per head).
        let expect = 5 * n * d * 4 + heads * n * 4;
        assert_eq!(saved.nbytes(), expect);
        assert_eq!(saved.attn_out_nbytes(), n * d * 4 + heads * n * 4);
    }
}
