//! Topology-aware two-level ring attention (paper §3.1, Fig. 4–5).
//!
//! The global ring is split into intra-node NVLink sub-rings nested inside
//! an inter-node NIC ring. One outer iteration = one full intra-node sweep
//! (`gpus_per_node` compute steps) + one inter-node exchange. Because every
//! GPU exchanges with its same-local-rank peer on the neighbouring node,
//! all NICs move data simultaneously — the bandwidth win over the flat
//! ring, where the single node-boundary link serialises everything.
//!
//! The flat ring is the one-level case ([`DoubleRingSpec::one_level`]):
//! one logical node whose sub-ring is the whole ring, one sweep of `G`
//! slots and no inter-node exchange. On it the forward is the flat ring's
//! forward and Algorithm 2 BurstAttention's flat backward; a one-level spec
//! over a multi-node world simply has some intra hops cross nodes.
//!
//! Three schedules are provided:
//!
//! * [`try_double_ring_forward_heads_on`] — shared by every ring algorithm
//!   (RingAttention and BurstAttention on the one-level ring,
//!   DoubleRingAttention and BurstAttention on the two-level one): `K, V`
//!   are read-only, so each head's inter-node transfer is posted as soon as
//!   the rank holds it and hides behind the whole intra-node sweep — and,
//!   with several heads, behind the earlier heads' sweeps too. One head is
//!   `std::slice::from_ref(&shard)`;
//! * [`try_double_ring_backward_alg1_heads_on`] — the LoongTrain
//!   DoubleRing baseline: Algorithm 1's `(K, V, ∇K, ∇V)` bundle circulates
//!   through every rank. Gradients ride in the same buffers as activations,
//!   so *nothing* can be posted early: each transfer waits for the compute
//!   that updated it (the paper's "fails to overlap gradient
//!   communication" critique). The heads run one after another, and each
//!   head's own `(∇K, ∇V)` land behind the next head's first sweep instead
//!   of idling the rank for the last completion hop. One head is
//!   `std::slice::from_ref(&(shard, back))`;
//! * [`try_double_ring_backward_alg2_heads_on`] — full BurstAttention:
//!   Algorithm 2's read-only bundle `(Q, ∇O, Lse, D)` flows exactly like
//!   the forward (early posts), while `∇Q` follows one compute step behind
//!   on a delayed stream (warm-up-round schedule, Fig. 5 bottom), so
//!   gradient communication also hides under compute. The heads run one
//!   after another and hand off: the next head's start bundle leaves for
//!   the next node during the last sweep, and each head's final `∇Q`
//!   lands behind the next head's work. One head is
//!   `std::slice::from_ref(&(shard, back))`.
//!
//! All three schedules use the `_acc` tile kernels with persistent
//! accumulators and one reused [`Scratch`], and read the local shard (and
//! each sweep's start bundle) by reference — steady-state rounds perform no
//! heap allocations in the tile-compute path.
//!
//! With skipping on, each read-only hop carries the spans its consumers
//! read ([`crate::skip`]): an intra hop the spans a later slot of the same
//! sweep reads, an inter hop — a sweep's start bundle — the spans any later
//! sweep reads. The start bundle arriving over a NIC is therefore never
//! more than the spans the whole remaining ring needs, and the sweeps relay
//! windows of it.

use crate::ring::{
    post_kv, post_ro, skip_kv, skip_ro, AttnFailure, AttnShard, BackwardInputs, DistAttnOut,
    KvHold, Phase, RoHold,
};
/// The slot geometry every schedule here runs on. It lives in `burst-comm`,
/// whose ring collectives run on it too.
pub use burst_comm::DoubleRingSpec;
use burst_comm::{Communicator, MemCategory, MemId, SpanKind};
use burst_kernels::{attn_tile_backward, attn_tile_backward_acc, flash_forward_acc, KernelWork};
use burst_tensor::{Mat, Scratch};

/// Resolve the two-level `cur`-over-`start` K/V hold without touching
/// `start` unless `cur` actually defers to it — with skipping on, a rank
/// can own the current shard while the sweep's start shard was gated off
/// and is legitimately absent.
fn kv_pair<'a>(
    cur: &'a KvHold,
    start: &'a KvHold,
    k: &'a Mat,
    v: &'a Mat,
) -> (&'a Mat, &'a Mat, usize) {
    match cur {
        KvHold::Local => start.view(k, v),
        held => held.view(k, v),
    }
}

/// The first of `heads`, after checking that every head poses the same
/// attention problem (mask, layout, `seq_len`, `max_token`, skip and cost),
/// so one index table and one skip plan serve them all. Panics otherwise,
/// or without a head.
fn one_problem<'s, 'a: 's>(
    mut heads: impl Iterator<Item = &'s AttnShard<'a>>,
) -> &'s AttnShard<'a> {
    let first = heads.next().expect("double-ring pass needs a head");
    assert!(
        heads.all(|h| h.mask == first.mask
            && h.layout == first.layout
            && h.seq_len == first.seq_len
            && h.max_token == first.max_token
            && h.skip == first.skip
            && h.cost == first.cost),
        "double-ring heads must share one attention problem"
    );
    first
}

/// One head's state across a multi-head forward: its accumulators, the
/// inter-node start bundle it holds for the current outer step, and their
/// ledger entries.
struct FwdHead {
    acc_o: Mat,
    acc_lse: Vec<f32>,
    work: KernelWork,
    start: KvHold,
    mem_acc: Option<MemId>,
    mem_start: Option<MemId>,
}

/// Multi-head forward over the two-level ring, every head's inter-node
/// start bundle posted as soon as this rank holds it. Each head's `Q/K/V`
/// must hold the tokens of this rank's *slot* in the spec's `len()`-way
/// partition ([`AttnShard::idx_at`]); a failure at slot `(outer, inner)` is
/// reported with global round `outer · gpus_per_node + inner`.
///
/// * **Post rule.** At outer step 0 every head's local `(K, V)` leaves for
///   the next node before the first head's sweep. At each later outer step
///   a head's bundle is received right before that head's sweep and, when a
///   further node still needs it, relayed at once. The intra-node sweeps
///   run one head after another, so head `h + 1`'s NIC transfer hides
///   behind head `h`'s sweeps as well as its own. Each head's kernels and
///   accumulation order are the single-head pass's, so its `(O, Lse)` are
///   bit-identical to it.
/// * **Billing.** One `dr_fwd_acc` per head and — on multi-node specs whose
///   skip gates ever deliver a start bundle — one `dr_fwd_start_kv` per
///   head, since every head holds its own bundle between outer steps. One
///   `dr_fwd_cur_kv` is shared: the sweeps never overlap.
/// * **One head** (`std::slice::from_ref(&shard)`) is the plain two-level
///   schedule: a start bundle is received once the previous outer step's
///   sweep ends and relayed before the next sweep begins. A start receive
///   carries the round label of the sweep it follows,
///   `outer · gpus_per_node − 1`.
///
/// All heads must share one attention problem (mask, layout, `seq_len`,
/// `max_token`, skip and cost), so one index table and one [`SkipPlan`]
/// serve them all; this panics otherwise.
///
/// [`SkipPlan`]: crate::skip::SkipPlan
pub fn try_double_ring_forward_heads_on(
    comm: &mut Communicator,
    heads: &[AttnShard],
    spec: &DoubleRingSpec,
) -> Result<Vec<DistAttnOut>, AttnFailure> {
    let first = one_problem(heads.iter());
    let (nodes, gpn) = (spec.nodes(), spec.gpus_per_node());
    let g = spec.len();
    let me = spec
        .slot_of(comm.rank())
        .expect("double-ring caller must be a spec member");
    let intra_next = spec.rank_at(spec.next_in_node(me));
    let intra_prev = spec.rank_at(spec.prev_in_node(me));
    let peer_next = spec.rank_at(spec.peer_next_node(me));
    let peer_prev = spec.rank_at(spec.peer_prev_node(me));
    let qi = first.idx_at(g, me);
    let kidx_all: Vec<Vec<usize>> = (0..g).map(|s| first.idx_at(g, s)).collect();
    let plan = first.skip_plan(g);
    let (buf_start, buf_cur) = plan.dr_fwd_bufs(me, nodes, gpn);
    let mut scratch = Scratch::new();
    // Call-scoped accountant entries: each head's persistent accumulators
    // and inter-node start bundle, plus one shared intra-node current
    // bundle — the start bundles circulate concurrently with the sweeps.
    let mut state = Vec::with_capacity(heads.len());
    let mut cur_wire = 0;
    for shard in heads {
        let acc_o = Mat::zeros(shard.q.rows(), shard.v.cols());
        let acc_lse = vec![f32::NEG_INFINITY; shard.q.rows()];
        let mem_acc = comm.mem_alloc(
            "dr_fwd_acc",
            MemCategory::Activations,
            (acc_o.nbytes() + 4 * acc_lse.len()) as u64,
        );
        let kv_wire = comm.mem_wire_bytes(shard.k.len() + shard.v.len());
        let mem_start = if nodes > 1 && buf_start {
            comm.mem_alloc("dr_fwd_start_kv", MemCategory::CommBuffers, kv_wire)
        } else {
            None
        };
        cur_wire = cur_wire.max(kv_wire);
        // `Local` start bundle = outer round 0, read the local shard in place.
        state.push(FwdHead {
            acc_o,
            acc_lse,
            work: KernelWork::default(),
            start: KvHold::Local,
            mem_acc,
            mem_start,
        });
    }
    let mem_cur = if gpn > 1 && buf_cur {
        comm.mem_alloc("dr_fwd_cur_kv", MemCategory::CommBuffers, cur_wire)
    } else {
        None
    };

    let mut start_src = me;
    let mut recv_start = None;
    for outer in 0..nodes {
        let op = plan.dr_fwd_outer(me, outer, nodes, gpn);
        debug_assert_eq!(op.start_shard, start_src);
        // Post a head's start bundle to the next node — the spans a later
        // sweep still folds: it hides behind this and every later sweep
        // until the peer's matching sweep.
        let post = |comm: &mut Communicator,
                    shard: &AttnShard,
                    start: &KvHold|
         -> Result<(), AttnFailure> {
            if outer == nodes - 1 {
                return Ok(());
            }
            let rows = kidx_all[start_src].len();
            let want = plan.window(start_src, op.send_inter, rows);
            post_kv(comm, peer_next, want, rows, shard, || {
                start.view(shard.k, shard.v)
            })
            .map_err(AttnFailure::at(Phase::Forward, outer * gpn))
        };
        if outer == 0 {
            for (shard, head) in heads.iter().zip(&state) {
                post(comm, shard, &head.start)?;
            }
        }
        for (shard, head) in heads.iter().zip(&mut state) {
            if outer > 0 {
                head.start = KvHold::recv(comm, peer_prev, recv_start.clone())
                    .map_err(AttnFailure::at(Phase::Forward, outer * gpn - 1))?;
                post(comm, shard, &head.start)?;
            }
            // `Local` current bundle = inner step 0, read the start bundle
            // in place.
            let mut cur_held = KvHold::Local;
            let mut src = start_src;
            for inner in 0..gpn {
                let s = plan.dr_fwd_slot(me, outer, inner, nodes, gpn);
                debug_assert_eq!(s.shard, src);
                let rows = kidx_all[src].len();
                if s.idle() {
                    // Fully-masked slot: no span, no clock, no wire.
                    comm.note_round_skipped();
                    if inner < gpn - 1 {
                        skip_kv(comm, rows, shard);
                        cur_held = KvHold::Absent;
                        src = spec.prev_in_node(src);
                    }
                    continue;
                }
                let at = AttnFailure::at(Phase::Forward, outer * gpn + inner);
                comm.span_begin(SpanKind::AttnRound, "dr_fwd_slot");
                if inner < gpn - 1 {
                    let want = plan.window(src, s.send, rows);
                    post_kv(comm, intra_next, want, rows, shard, || {
                        kv_pair(&cur_held, &head.start, shard.k, shard.v)
                    })
                    .map_err(&at)?;
                }
                if s.compute {
                    let (cur_k, cur_v, off) = kv_pair(&cur_held, &head.start, shard.k, shard.v);
                    let w = flash_forward_acc(
                        shard.q,
                        cur_k,
                        cur_v,
                        shard.scale,
                        shard.mask,
                        &qi,
                        &kidx_all[src][off..off + cur_k.rows()],
                        &mut head.acc_o,
                        &mut head.acc_lse,
                        &mut scratch,
                    );
                    comm.advance_compute(shard.cost.attn_fwd_secs(w.pairs, shard.q.cols()));
                    head.work.merge(w);
                }
                if inner < gpn - 1 {
                    let rows_in = plan.window(s.shard_in, s.recv, kidx_all[s.shard_in].len());
                    cur_held = KvHold::recv(comm, intra_prev, rows_in).map_err(&at)?;
                    src = spec.prev_in_node(src);
                }
                comm.span_end();
            }
        }
        recv_start = plan.window(op.start_in, op.recv_inter, kidx_all[op.start_in].len());
        start_src = spec.peer_prev_node(start_src);
    }
    comm.mem_note_workspace(scratch.resident_bytes());
    comm.mem_free(mem_cur);
    for head in state.iter().rev() {
        comm.mem_free(head.mem_start);
        comm.mem_free(head.mem_acc);
    }
    Ok(state
        .into_iter()
        .map(|h| DistAttnOut {
            o: h.acc_o,
            lse: h.acc_lse,
            work: h.work,
        })
        .collect())
}

/// DoubleRingAttention backward: Algorithm 1 over the two-level ring, one
/// head after another, each head's homecoming landing behind the next
/// head's first sweep. Returns each head's `(∇Q, ∇K, ∇V)`.
///
/// The `(K, V, ∇K, ∇V)` bundle physically accumulates gradients at every
/// rank, so every hop — intra and inter — departs only after the compute
/// that updated it: communication serialises with compute. After the sweep,
/// the bundle is one node and `nodes mod gpn` local hops away from home;
/// the completion hops deliver `(∇K, ∇V)` back to their owner. A failure at
/// step `t` is reported with round `t`, and one in the completion with
/// `nodes · gpus_per_node − 1`.
///
/// * **`D`.** The caller forms each head's `D` ([`BackwardInputs::d`])
///   before the call. Algorithm 1 recomputes it, so every computing round
///   charges its thin GEMM.
/// * **Hand-off.** A head's completion runs up to its last receive, the
///   landing of this rank's own `(∇K, ∇V)`. That receive waits on its link
///   until this rank next receives on that link (or the call ends), so it
///   lands behind the next head's first sweep instead of idling the rank
///   for a whole hop. Every link stays FIFO. Each head keeps its kernels,
///   accumulation order, messages and bytes, so its gradients are
///   bit-identical to a pass of its own.
/// * **Billing.** Each head bills its `dr_bwd_dq` `∇Q` accumulator and a
///   `dr_bwd_kv_grads` bundle slot for the halves its gates ever hold, and
///   closes both once its completion has sent, before the next head opens
///   its own. A pending landing is the head's gradient output and opens no
///   entry, so the gated peak is the one-head pass's. Algorithm 1
///   accumulates `∇Q` in place, in the head's output: with `dq_billed` the
///   caller already bills every head's gradients for the whole call (USP's
///   `usp_grads`), and no `dr_bwd_dq` opens.
/// * **One head** (`std::slice::from_ref(&(shard, back))`) is the plain
///   pass: its `(∇K, ∇V)` land inside its completion, then its entries
///   close.
///
/// All heads must share one attention problem, as in
/// [`try_double_ring_forward_heads_on`]; this panics otherwise.
pub fn try_double_ring_backward_alg1_heads_on(
    comm: &mut Communicator,
    heads: &[(AttnShard, BackwardInputs)],
    spec: &DoubleRingSpec,
    dq_billed: bool,
) -> Result<Vec<(Mat, Mat, Mat)>, AttnFailure> {
    let first = one_problem(heads.iter().map(|(shard, _)| shard));
    let (nodes, gpn) = (spec.nodes(), spec.gpus_per_node());
    let g = spec.len();
    let me = spec
        .slot_of(comm.rank())
        .expect("double-ring caller must be a spec member");
    // A hop's `(to, from)` ranks on the inter-node or the intra-node link.
    let link = |inter: bool| {
        let (to, from) = if inter {
            (spec.peer_next_node(me), spec.peer_prev_node(me))
        } else {
            (spec.next_in_node(me), spec.prev_in_node(me))
        };
        (spec.rank_at(to), spec.rank_at(from))
    };
    let qi = first.idx_at(g, me);
    let kidx_all: Vec<Vec<usize>> = (0..g).map(|s| first.idx_at(g, s)).collect();
    let plan = first.skip_plan(g);
    // No early posts here, so a single bundle slot covers both ring levels;
    // with skipping on, a rank gated out of a half never holds it.
    let (buf_kv, buf_dkv) = plan.dr_alg1_bufs(me, nodes, gpn);
    let halves = buf_kv as u64 + buf_dkv as u64;
    // Completion: deliver (∇K, ∇V) home — one inter hop (the sweep ends one
    // node early) plus `nodes mod gpn` intra hops (local drift of the
    // nested rotation). Each hop's gate is `col_any` of the shard it moves;
    // a completion with hops but no live gate anywhere on this rank is one
    // skipped round. This rank's own (∇K, ∇V) land on the last hop's link.
    let hops = plan.dr_alg1_completion(me, nodes, gpn);
    let completes = hops.is_empty() || hops.iter().any(|h| h.send || h.recv);
    let home_link = link(hops.last().is_some_and(|h| h.inter)).1;
    let mut homecoming = Homecoming::new(home_link, nodes * gpn - 1, Landing::DkDv);
    let mut scratch = Scratch::new();
    let mut out: Vec<(Mat, Mat, Mat)> = Vec::with_capacity(heads.len());
    for (h, (shard, back)) in heads.iter().enumerate() {
        let last_head = h + 1 == heads.len();
        let d = shard.q.cols();
        let d_recompute = shard.cost.gemm_secs(shard.q.rows(), d, 1);
        let mut grad_q = Mat::zeros(shard.q.rows(), shard.q.cols());
        let mut held = KvHold::Local;
        // The (∇K, ∇V) half of the circulating bundle, materialized lazily
        // at the first contribution (dense zeros plus identical adds —
        // bit-equal to the always-materialized dense path).
        let mut dkv: Option<(Mat, Mat)> = None;
        let mut src = me;
        let mem_dq = if dq_billed {
            None
        } else {
            comm.mem_alloc(
                "dr_bwd_dq",
                MemCategory::Activations,
                grad_q.nbytes() as u64,
            )
        };
        let half_wire = comm.mem_wire_bytes(shard.k.len() + shard.v.len());
        let mem_bundle = if g > 1 && halves > 0 {
            comm.mem_alloc(
                "dr_bwd_kv_grads",
                MemCategory::CommBuffers,
                halves * half_wire,
            )
        } else {
            None
        };

        for outer in 0..nodes {
            for inner in 0..gpn {
                let t = outer * gpn + inner;
                let s = plan.dr_alg1_slot(me, t, nodes, gpn);
                debug_assert_eq!(s.shard, src);
                let last = t + 1 == g;
                let last_inner = inner == gpn - 1;
                let rows = kidx_all[src].len();
                if s.idle() {
                    comm.note_round_skipped();
                    if !last {
                        skip_kv(comm, rows, shard);
                        skip_kv(comm, rows, shard);
                        held = KvHold::Absent;
                        dkv = None;
                        src = if last_inner {
                            spec.peer_prev_node(src)
                        } else {
                            spec.prev_in_node(src)
                        };
                    }
                    continue;
                }
                let at = AttnFailure::at(Phase::Backward, t);
                comm.span_begin(SpanKind::AttnRound, "dr_bwd_slot");
                if s.compute {
                    // The received K/V rows accumulate into their rows of
                    // the shard's circulating ∇K/∇V.
                    let (cur_k, cur_v, off) = held.view(shard.k, shard.v);
                    let end = off + cur_k.rows();
                    if dkv.is_none() {
                        dkv = Some((
                            Mat::zeros(rows, shard.k.cols()),
                            Mat::zeros(rows, shard.v.cols()),
                        ));
                    }
                    let (cur_dk, cur_dv) = dkv.as_mut().expect("just materialized");
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
                        &kidx_all[src][off..end],
                        grad_q.as_mut_slice(),
                        cur_dk.rows_mut(off, end),
                        cur_dv.rows_mut(off, end),
                        &mut scratch,
                    );
                    comm.advance_compute(shard.cost.attn_bwd_secs(w.pairs, d) + d_recompute);
                }
                if last {
                    comm.span_end();
                    break; // sweep done; completion hops below
                }
                let (dst, src_peer) = link(last_inner);
                let want = plan.window(src, s.send_kv, rows);
                post_kv(comm, dst, want, rows, shard, || held.view(shard.k, shard.v))
                    .map_err(&at)?;
                if s.send_dkv {
                    let (cur_dk, cur_dv) = dkv.as_ref().expect("∇K/∇V gate implies a contribution");
                    comm.try_send_mat(dst, cur_dk).map_err(&at)?;
                    comm.try_send_mat(dst, cur_dv).map_err(&at)?;
                } else {
                    skip_kv(comm, rows, shard);
                }
                let rows_in = plan.window(s.shard_in, s.recv_kv, kidx_all[s.shard_in].len());
                if rows_in.is_some() || s.recv_dkv {
                    homecoming.before_recv(comm, src_peer, &mut out)?;
                }
                held = KvHold::recv(comm, src_peer, rows_in).map_err(&at)?;
                dkv = if s.recv_dkv {
                    Some((
                        comm.try_recv_mat(src_peer).map_err(&at)?,
                        comm.try_recv_mat(src_peer).map_err(&at)?,
                    ))
                } else {
                    None
                };
                src = if last_inner {
                    spec.peer_prev_node(src)
                } else {
                    spec.prev_in_node(src)
                };
                comm.span_end();
            }
        }
        // This head's own (∇K, ∇V), the last hop's receive, wait on their
        // link for the next head.
        let pending = completes && !last_head && hops.last().is_some_and(|h| h.recv);
        if completes {
            let at = AttnFailure::at(Phase::Backward, nodes * gpn - 1);
            comm.span_begin(SpanKind::AttnRound, "dr_bwd_completion");
            for (j, hop) in hops.iter().enumerate() {
                let (dst, src_peer) = link(hop.inter);
                if hop.send {
                    let (dk, dv) = dkv
                        .as_ref()
                        .expect("completion gate implies a contribution");
                    comm.try_send_mat(dst, dk).map_err(&at)?;
                    comm.try_send_mat(dst, dv).map_err(&at)?;
                } else {
                    skip_kv(comm, kidx_all[hop.send_shard].len(), shard);
                }
                dkv = if hop.recv && !(pending && j + 1 == hops.len()) {
                    homecoming.before_recv(comm, src_peer, &mut out)?;
                    Some((
                        comm.try_recv_mat(src_peer).map_err(&at)?,
                        comm.try_recv_mat(src_peer).map_err(&at)?,
                    ))
                } else {
                    None
                };
            }
            comm.span_end();
        } else {
            comm.note_round_skipped();
            for hop in &hops {
                skip_kv(comm, kidx_all[hop.send_shard].len(), shard);
            }
            dkv = None;
        }
        if last_head {
            homecoming.land(comm, &mut out)?;
            comm.mem_note_workspace(scratch.resident_bytes());
        }
        comm.mem_free(mem_bundle);
        comm.mem_free(mem_dq);
        let (grad_k, grad_v) = match dkv {
            Some(pair) => pair,
            // Landing later, or no live consumer anywhere for our shard:
            // then the dense gradients are identically (+0.0) zero.
            None if pending => (Mat::default(), Mat::default()),
            None => (
                Mat::zeros(shard.k.rows(), shard.k.cols()),
                Mat::zeros(shard.v.rows(), shard.v.cols()),
            ),
        };
        out.push((grad_q, grad_k, grad_v));
        if pending {
            homecoming.heads.push(h);
        }
    }
    Ok(out)
}

/// Heads whose last gradient message is still on its link, oldest first:
/// Algorithm 2's final `∇Q`, or the `(∇K, ∇V)` Algorithm 1's completion
/// brings home. A head's landing waits there until this rank next receives
/// on that link, or the call ends, so it lands behind the next head's work
/// and the link stays FIFO.
struct Homecoming {
    /// The link's sender.
    from: usize,
    /// The failure round of a landing receive, `nodes · gpus_per_node − 1`.
    round: usize,
    grads: Landing,
    heads: Vec<usize>,
}

/// Which of a head's `(∇Q, ∇K, ∇V)` a [`Homecoming`] lands.
#[derive(Clone, Copy)]
enum Landing {
    /// Algorithm 2's final `∇Q`, in a `dr_dq_final` round.
    Dq,
    /// Algorithm 1's `(∇K, ∇V)`, in a `dr_dkv_final` round.
    DkDv,
}

impl Homecoming {
    fn new(from: usize, round: usize, grads: Landing) -> Self {
        Homecoming {
            from,
            round,
            grads,
            heads: Vec::new(),
        }
    }

    /// Land every pending head's gradients in its slot of `out`, oldest
    /// first.
    fn land(
        &mut self,
        comm: &mut Communicator,
        out: &mut [(Mat, Mat, Mat)],
    ) -> Result<(), AttnFailure> {
        let at = AttnFailure::at(Phase::Backward, self.round);
        for h in self.heads.drain(..) {
            match self.grads {
                Landing::Dq => {
                    comm.span_begin(SpanKind::AttnRound, "dr_dq_final");
                    out[h].0 = comm.try_recv_mat(self.from).map_err(&at)?;
                }
                Landing::DkDv => {
                    comm.span_begin(SpanKind::AttnRound, "dr_dkv_final");
                    out[h].1 = comm.try_recv_mat(self.from).map_err(&at)?;
                    out[h].2 = comm.try_recv_mat(self.from).map_err(&at)?;
                }
            }
            comm.span_end();
        }
        Ok(())
    }

    /// Land the pending heads ahead of a receive from `src`, when that
    /// receive shares their link.
    fn before_recv(
        &mut self,
        comm: &mut Communicator,
        src: usize,
        out: &mut [(Mat, Mat, Mat)],
    ) -> Result<(), AttnFailure> {
        if src == self.from {
            self.land(comm, out)
        } else {
            Ok(())
        }
    }
}

/// Full BurstAttention backward: Algorithm 2 over the two-level ring with
/// fine-grained gradient overlap, one head after another, each handing the
/// next its NIC time. Returns each head's `(∇Q, ∇K, ∇V)`.
///
/// The read-only bundle `(Q_j, ∇O_j, Lse_j, D_j)` takes the forward's
/// traversal (early inter posts, intra posts before compute). `∇Q_j`
/// follows one compute step behind: after rank `r` computes its
/// contribution at slot `(o, t)`, it forwards `∇Q_j` to the rank that
/// processes bundle `j` at the next slot — `next_in_node(r)` within a
/// sweep, and the *diagonal* peer `peer_next(next_in(r))` across sweeps.
/// A failure at slot `(outer, inner)` is reported with global round
/// `outer · gpus_per_node + inner`, and one at a final `∇Q` receive with
/// `nodes · gpus_per_node − 1`.
///
/// * **`D` up front.** Every head's `D` ([`BackwardInputs::d`]) is charged
///   as one thin GEMM before the first slot opens, so no slot reads `O`.
/// * **Hand-off.** A head's start bundle is dead once the first slot of
///   its last sweep has read it: after that slot's kernel, or at once when
///   the slot is idle. There head `h + 1` posts its first start bundle to
///   the next node, so that transfer hides behind the rest of head `h`'s
///   sweep. With one GPU per node the slot's `∇Q`
///   goes to that same peer, so the bundle follows it. Head `h`'s own final
///   `∇Q` waits on the diagonal link until this rank next receives on that
///   link (or the call ends), so it lands behind head `h + 1`'s work. Every
///   link stays FIFO, also where the diagonal link is the intra link (one
///   node) or the inter link (one GPU per node). Each head keeps its
///   kernels, accumulation order, messages and bytes, so its gradients are
///   bit-identical to a pass of its own.
/// * **Billing.** Each head bills its pass's `dr_bwd_dkv`, `dr_bwd_dq_buf`,
///   `dr_bwd_start_bundle`, `dr_bwd_cur_bundle` and `dr_dq_ring` and closes
///   each at its last use: the start bundle at the hand-off, the rest after
///   the head's last slot, before the next head opens its own. No two start
///   bundles are ever open at once, so the gated peak is the one-head
///   pass's. A finished head's gradients are outputs and stay unbilled.
/// * **One head** (`std::slice::from_ref(&(shard, back))`) is the plain
///   pass: its final `∇Q` is received at the end, then its entries close.
///
/// All heads must share one attention problem, as in
/// [`try_double_ring_forward_heads_on`]; this panics otherwise.
pub fn try_double_ring_backward_alg2_heads_on(
    comm: &mut Communicator,
    heads: &[(AttnShard, BackwardInputs)],
    spec: &DoubleRingSpec,
) -> Result<Vec<(Mat, Mat, Mat)>, AttnFailure> {
    let first = one_problem(heads.iter().map(|(shard, _)| shard));
    let (nodes, gpn) = (spec.nodes(), spec.gpus_per_node());
    let g = spec.len();
    let me = spec
        .slot_of(comm.rank())
        .expect("double-ring caller must be a spec member");
    let ki = first.idx_at(g, me);
    // Every head's `D`, one thin GEMM each, before the first slot.
    for (shard, _) in heads {
        comm.advance_compute(shard.cost.gemm_secs(shard.q.rows(), shard.q.cols(), 1));
    }

    if g == 1 {
        return Ok(heads
            .iter()
            .map(|(shard, back)| {
                let (dq, dk, dv, w) = attn_tile_backward(
                    shard.q,
                    shard.k,
                    shard.v,
                    back.grad_o,
                    back.lse,
                    back.d,
                    shard.scale,
                    shard.mask,
                    &ki,
                    &ki,
                );
                comm.advance_compute(shard.cost.attn_bwd_secs(w.pairs, shard.q.cols()));
                (dq, dk, dv)
            })
            .collect());
    }

    let intra_next = spec.rank_at(spec.next_in_node(me));
    let intra_prev = spec.rank_at(spec.prev_in_node(me));
    let peer_next = spec.rank_at(spec.peer_next_node(me));
    let peer_prev = spec.rank_at(spec.peer_prev_node(me));
    // The rank that processes a bundle right after us when crossing nodes,
    // and the one that processed it right before us.
    let diag_next = spec.rank_at(spec.peer_next_node(spec.next_in_node(me)));
    let diag_prev = spec.rank_at(spec.peer_prev_node(spec.prev_in_node(me)));
    let qidx_all: Vec<Vec<usize>> = (0..g).map(|s| first.idx_at(g, s)).collect();
    let plan = first.skip_plan(g);
    let (buf_start, buf_cur, buf_dq_ring, buf_dq_buf) = plan.dr_alg2_bufs(me, nodes, gpn);
    let ro_cols = (first.q.cols(), heads[0].1.grad_o.cols());
    // Pass-scoped accountant entries, per head: ∇K/∇V accumulators and the
    // per-round ∇Q staging buffer, plus one read-only-bundle slot per
    // active ring level and one slot for the ∇Q partial riding one step
    // behind. A start-bundle slot opens before its head's first post.
    let ro_wire = |comm: &Communicator, (shard, back): &(AttnShard, BackwardInputs)| {
        comm.mem_wire_bytes(shard.q.len() + back.grad_o.len())
            + 4 * (back.lse.len() + back.grad_o.rows()) as u64
    };
    let start_entry = |comm: &mut Communicator, head: &(AttnShard, BackwardInputs)| {
        if nodes > 1 && buf_start {
            let bytes = ro_wire(comm, head);
            comm.mem_alloc("dr_bwd_start_bundle", MemCategory::CommBuffers, bytes)
        } else {
            None
        }
    };
    // Early inter-node post of a head's start bundle at outer step `outer`:
    // the read-only spans a later sweep reads.
    let post_start = |comm: &mut Communicator,
                      outer: usize,
                      src: usize,
                      held: &RoHold,
                      (shard, back): &(AttnShard, BackwardInputs)|
     -> Result<(), AttnFailure> {
        let op = plan.dr_alg2_outer(me, outer, nodes, gpn);
        let rows = qidx_all[src].len();
        let want = plan.window(src, op.send_inter, rows);
        post_ro(comm, peer_next, want, rows, ro_cols, || {
            held.view(shard.q, back.grad_o, back.lse, back.d)
        })
        .map_err(AttnFailure::at(Phase::Backward, outer * gpn))
    };

    let mut scratch = Scratch::new();
    let mut dq_buf = Mat::default();
    let mut out: Vec<(Mat, Mat, Mat)> = Vec::with_capacity(heads.len());
    let mut homecoming = Homecoming::new(diag_prev, nodes * gpn - 1, Landing::Dq);
    // The next head's start-bundle entry, opened at the hand-off.
    let mut handed: Option<Option<MemId>> = None;
    for (h, head) in heads.iter().enumerate() {
        let (shard, back) = head;
        let d = shard.q.cols();
        let early_start = handed.take();
        let posted = early_start.is_some();
        let mut grad_k = Mat::zeros(shard.k.rows(), shard.k.cols());
        let mut grad_v = Mat::zeros(shard.v.rows(), shard.v.cols());
        let mem_dkv = comm.mem_alloc(
            "dr_bwd_dkv",
            MemCategory::Activations,
            (grad_k.nbytes() + grad_v.nbytes()) as u64,
        );
        let mem_dq_buf = if buf_dq_buf {
            comm.mem_alloc(
                "dr_bwd_dq_buf",
                MemCategory::Activations,
                shard.q.nbytes() as u64,
            )
        } else {
            None
        };
        let mut mem_start = match early_start {
            Some(mem) => mem,
            None => start_entry(comm, head),
        };
        let mem_cur = if gpn > 1 && buf_cur {
            let bytes = ro_wire(comm, head);
            comm.mem_alloc("dr_bwd_cur_bundle", MemCategory::CommBuffers, bytes)
        } else {
            None
        };
        let dq_wire = comm.mem_wire_bytes(shard.q.len());
        let mem_dq_ring = if buf_dq_ring {
            comm.mem_alloc("dr_dq_ring", MemCategory::CommBuffers, dq_wire)
        } else {
            None
        };

        // Hand-off: the first slot of the last sweep is the last reader of
        // the start bundle. Once it has read it, the next head's bundle
        // takes the bundle's slot and leaves for the next node.
        let mut hand_off = |comm: &mut Communicator| -> Result<(), AttnFailure> {
            let Some(next) = heads.get(h + 1) else {
                return Ok(());
            };
            comm.mem_free(mem_start.take());
            let mem_next = start_entry(comm, next);
            if nodes > 1 {
                post_start(comm, 0, me, &RoHold::Local, next)?;
            }
            handed = Some(mem_next);
            Ok(())
        };
        let mut start_held = RoHold::Local;
        let mut start_src = me;
        for outer in 0..nodes {
            let op = plan.dr_alg2_outer(me, outer, nodes, gpn);
            debug_assert_eq!(op.start_bundle, start_src);
            if outer < nodes - 1 && !(outer == 0 && posted) {
                post_start(comm, outer, start_src, &start_held, head)?;
            }
            let mut cur_held = RoHold::Local;
            let mut src = start_src;
            for inner in 0..gpn {
                let t = outer * gpn + inner;
                let s = plan.dr_alg2_slot(me, outer, inner, nodes, gpn);
                debug_assert_eq!(s.bundle, src);
                let rows_j = qidx_all[src].len();
                let dq_elems = rows_j * shard.q.cols();
                let last_read = outer == nodes - 1 && inner == 0;
                if s.idle() {
                    comm.note_round_skipped();
                    if inner < gpn - 1 {
                        skip_ro(comm, rows_j, ro_cols);
                        cur_held = RoHold::Absent;
                        src = spec.prev_in_node(src);
                    }
                    comm.note_skipped_mat(dq_elems);
                    if last_read {
                        hand_off(comm)?;
                    }
                    continue;
                }
                let at = AttnFailure::at(Phase::Backward, t);
                comm.span_begin(SpanKind::AttnRound, "dr_bwd_slot");
                // Dereference the bundle lazily: a slot can be live
                // purely for the ∇Q stream (or an intra receive) while
                // the read-only bundle itself was gated off upstream
                // and is absent here.
                let ro = || match &cur_held {
                    RoHold::Local => start_held.view(shard.q, back.grad_o, back.lse, back.d),
                    held => held.view(shard.q, back.grad_o, back.lse, back.d),
                };
                if inner < gpn - 1 {
                    // Read-only intra post before compute.
                    let want = plan.window(src, s.send_ro, rows_j);
                    post_ro(comm, intra_next, want, rows_j, ro_cols, ro).map_err(&at)?;
                }
                if s.compute {
                    // ∇Q of the held rows lands in their rows of the
                    // bundle's ∇Q; the other rows stay zero, as the
                    // dense tile leaves them.
                    let (cur_q, cur_do, cur_lse, cur_d, off) = ro();
                    let end = off + cur_q.rows();
                    dq_buf.reshape_in_place(rows_j, shard.q.cols());
                    let w = attn_tile_backward_acc(
                        cur_q,
                        shard.k,
                        shard.v,
                        cur_do,
                        cur_lse,
                        cur_d,
                        shard.scale,
                        shard.mask,
                        &qidx_all[src][off..end],
                        &ki,
                        dq_buf.rows_mut(off, end),
                        grad_k.as_mut_slice(),
                        grad_v.as_mut_slice(),
                        &mut scratch,
                    );
                    comm.advance_compute(shard.cost.attn_bwd_secs(w.pairs, d));
                }
                // ∇Q stream, one step behind: receive the partial sum
                // from the bundle's previous processor (none at the
                // very first slot), add our contribution, forward to
                // the next processor.
                let to = if inner == gpn - 1 {
                    diag_next
                } else {
                    intra_next
                };
                // The next head's bundle leaves right after the kernel —
                // behind this slot's ∇Q when that goes to the same peer
                // (one GPU per node), so the link stays FIFO.
                let dq_first = to == peer_next;
                if last_read && !dq_first {
                    hand_off(comm)?;
                }
                if s.recv_dq {
                    let from = if inner == 0 { diag_prev } else { intra_prev };
                    homecoming.before_recv(comm, from, &mut out)?;
                    let mut dq_j = comm.try_recv_mat(from).map_err(&at)?;
                    if !s.compute {
                        // Mirror the dense pass-through bit-for-bit:
                        // the reshape zeroes the staging buffer and the
                        // add replays dense's elementwise `+ 0.0`.
                        dq_buf.reshape_in_place(dq_j.rows(), dq_j.cols());
                    }
                    dq_j.add_assign(&dq_buf);
                    comm.try_send_mat(to, &dq_j).map_err(&at)?;
                } else if s.send_dq {
                    debug_assert!(s.compute, "first ∇Q contribution implies a live tile");
                    if t == 0 {
                        comm.try_send_mat(to, &dq_buf).map_err(&at)?;
                    } else {
                        // First contributor mid-ring: every upstream
                        // dense add was `0.0 + 0.0`, so materialize the
                        // zeros and add.
                        let mut dq_j = Mat::zeros(rows_j, shard.q.cols());
                        dq_j.add_assign(&dq_buf);
                        comm.try_send_mat(to, &dq_j).map_err(&at)?;
                    }
                } else {
                    comm.note_skipped_mat(dq_elems);
                }
                if last_read && dq_first {
                    hand_off(comm)?;
                }
                if inner < gpn - 1 {
                    let rows_in = plan.window(s.bundle_in, s.recv_ro, qidx_all[s.bundle_in].len());
                    if rows_in.is_some() {
                        homecoming.before_recv(comm, intra_prev, &mut out)?;
                    }
                    cur_held = RoHold::recv(comm, intra_prev, rows_in).map_err(&at)?;
                    src = spec.prev_in_node(src);
                }
                comm.span_end();
            }
            if outer < nodes - 1 {
                let rows_in = plan.window(op.start_in, op.recv_inter, qidx_all[op.start_in].len());
                if rows_in.is_some() {
                    homecoming.before_recv(comm, peer_prev, &mut out)?;
                }
                start_held = RoHold::recv(comm, peer_prev, rows_in)
                    .map_err(AttnFailure::at(Phase::Backward, (outer + 1) * gpn - 1))?;
                start_src = spec.peer_prev_node(start_src);
            }
        }
        // The very last ∇Q send above (slot (nodes−1, gpn−1)) delivered
        // that bundle's gradient home via the diagonal; symmetrically, our
        // own ∇Q arrives from our diagonal predecessor — unless no rank
        // anywhere attends to our queries, in which case ∇Q is identically
        // zero.
        let grad_q = if plan.dr_alg2_final(me) {
            homecoming.heads.push(h);
            Mat::default()
        } else {
            comm.note_round_skipped();
            Mat::zeros(shard.q.rows(), shard.q.cols())
        };
        out.push((grad_q, grad_k, grad_v));
        if h + 1 == heads.len() {
            homecoming.land(comm, &mut out)?;
            comm.mem_note_workspace(scratch.resident_bytes());
        }
        comm.mem_free(mem_dq_ring);
        comm.mem_free(mem_cur);
        comm.mem_free(mem_start);
        comm.mem_free(mem_dq_buf);
        comm.mem_free(mem_dkv);
    }
    Ok(out)
}
