//! Exact peak-bytes census — the memory twin of [`crate::commtime`]'s
//! `exact_wire_counts_dtype`.
//!
//! The per-rank virtual-memory accountant (`burst_obs::MemLedger`) measures
//! the peak bytes of every schedule as it runs. This module predicts those
//! peaks *analytically*, per category, from the schedule geometry alone —
//! and the two must agree **exactly** (`PeakBytes == PeakBytes`), which the
//! `mem_census` integration test gates in CI. Every formula below names the
//! hook site in `burst-dattn` it mirrors, so a drift in either side breaks
//! the build rather than the paper's memory claims.
//!
//! Only the gated categories are predicted (`Activations`, `CkptStash`,
//! `RingShards`, `CommBuffers` and the live `gated_total`); the ungated
//! lanes (in-flight wire bytes, retransmit queue, kernel workspace) are
//! time- or host-dependent and stay measured-only. The attention census
//! leaves `Params`/`Grads`/`OptimState` at zero — those belong to the
//! training-engine census, which layers on top.

use crate::commtime::ring_shape;
use crate::machine::Cluster;
use burst_comm::{PeakBytes, WireDtype};
use burst_dattn::{Algo, Layout, RingGeom, SkipPlan};
use burst_kernels::AttnMask;

/// Which distributed-attention schedule to predict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeakMethod {
    /// A ring-family schedule as `try_run_attention_opts` runs it. The flat
    /// algorithms run on the one-level ring, so their forward and
    /// Algorithm 2 are priced as the two-level ones at `(n, p) = (1, G)`.
    Ring(Algo),
    /// USP hybrid: Ulysses groups of size `ulysses` × context rings of size
    /// `world / ulysses` on the two-level ring (one level when a ring's
    /// members are ragged across nodes); `ulysses` = world is
    /// DeepSpeed-Ulysses. One forward over every owned head at once, which
    /// keeps its head-shard `Q, K, V` for the backward, then a backward that
    /// lands the caller's `(O, Lse)` and `∇O` beside them, runs Algorithm 1
    /// one head at a time and closes the context before the gradient
    /// all-to-all. A backward without a context runs the forward's `Q, K,
    /// V` all-to-all first, an instant the forward already prices.
    Usp { heads: usize, ulysses: usize },
}

/// Exact per-rank peak bytes of `method` on `cluster` at the matrix wire
/// dtype `dtype` (`WireDtype::F32` is the simulator's default). Exactly as
/// in the simulator, only circulating `Mat` payloads change width; resident
/// f32 tensors, checkpoint stashes and the softmax statistics vectors stay
/// at 4 bytes per element.
pub fn exact_peak_bytes_dtype(
    cluster: &Cluster,
    seq_len: usize,
    d: usize,
    method: PeakMethod,
    dtype: WireDtype,
) -> PeakBytes {
    // Same arithmetic as `Topology::wire_bytes` (f64 product, truncated).
    let wire = |elems: usize| -> u64 { (elems as f64 * dtype.width()) as u64 };
    let g = cluster.world();
    let mut peak = PeakBytes::default();
    match method {
        PeakMethod::Ring(algo) => {
            let (n, p) = ring_shape(cluster, algo);
            let r = seq_len / g;
            // `attn_inputs`: the rank's resident Q/K/V/∇O shards, f32,
            // live for the whole dispatcher call.
            peak.ring_shards = 16 * (r * d) as u64;
            // `dr_fwd_acc` then `attn_fwd_out`: the (O, Lse) accumulator
            // hands over to the dispatcher's saved output at the same
            // instant (release-before-charge), so one term covers both.
            let acc = (4 * r * d + 4 * r) as u64;
            // Forward circulating (K, V) bundles at the wire dtype: one slot
            // per active level.
            let lvls = (n > 1) as u64 + (p > 1) as u64;
            let cb_fwd = lvls * wire(2 * r * d);
            // Backward extras on top of `attn_fwd_out`.
            let ro_bundle = wire(2 * r * d) + 8 * r as u64; // Q+∇O at wire, Lse+D at f32
            let (act_bwd, cb_bwd) = match algo {
                // Algorithm 1, flat: ∇Q accumulator + fused (K,V,∇K,∇V)
                // bundle — both skipped by the single-rank early return.
                Algo::RingFlat => {
                    if g > 1 {
                        ((4 * r * d) as u64, wire(4 * r * d))
                    } else {
                        (0, 0)
                    }
                }
                // Algorithm 1 on the double ring always registers its ∇Q
                // accumulator; the bundle slot needs a circulating ring.
                Algo::DoubleRing => {
                    let cb = if g > 1 { wire(4 * r * d) } else { 0 };
                    ((4 * r * d) as u64, cb)
                }
                // Algorithm 2: ∇K/∇V accumulators + ∇Q staging buffer; one
                // read-only-bundle slot per active level plus the ∇Q
                // partial riding one step behind.
                Algo::BurstFlat | Algo::BurstTopo => {
                    if g > 1 {
                        ((12 * r * d) as u64, lvls * ro_bundle + wire(r * d))
                    } else {
                        (0, 0)
                    }
                }
            };
            peak.activations = acc + act_bwd;
            peak.comm_buffers = cb_fwd.max(cb_bwd);
            // The gated-sum peak is a timeline quantity: inputs + saved
            // output are always live; the forward holds its circulating
            // bundles, the backward holds its accumulators *and* bundles.
            peak.gated_total = peak.ring_shards + acc + cb_fwd.max(act_bwd + cb_bwd);
        }
        PeakMethod::Usp { heads, ulysses } => {
            return usp_peak(cluster, seq_len, d, heads, ulysses, dtype, None, 0);
        }
    }
    peak
}

/// Mask-aware [`exact_peak_bytes_dtype`]: the exact peak of rank `me` when
/// the schedule runs with round skipping. Every term is gated by the same
/// `SkipPlan` buffer-activity flag that gates the matching `mem_alloc` in
/// `burst-dattn`, so the prediction equals the measured `MemLedger` gated
/// peak byte-for-byte — a comm-buffer slot this rank's gates never fill is
/// simply not billed.
///
/// `skip = false` builds the dense plan (every flag on), reproducing
/// [`exact_peak_bytes_dtype`] exactly for any mask. The head-parallel
/// method (`Usp`) gates only its ring leg — the all-to-all staging is
/// mask-independent — and that ring always runs the zigzag layout over the
/// whole sequence, so `layout` and `max_token` do not apply to it.
#[allow(clippy::too_many_arguments)]
pub fn exact_peak_bytes_masked_dtype(
    cluster: &Cluster,
    seq_len: usize,
    d: usize,
    method: PeakMethod,
    dtype: WireDtype,
    mask: &AttnMask,
    layout: Layout,
    max_token: Option<usize>,
    skip: bool,
    me: usize,
) -> PeakBytes {
    let algo = match method {
        PeakMethod::Ring(algo) => algo,
        PeakMethod::Usp { heads, ulysses } => {
            let skip_mask = skip.then_some(mask);
            return usp_peak(cluster, seq_len, d, heads, ulysses, dtype, skip_mask, me);
        }
    };
    let wire = |elems: usize| -> u64 { (elems as f64 * dtype.width()) as u64 };
    let g = cluster.world();
    let (n, p) = ring_shape(cluster, algo);
    let plan = if skip {
        SkipPlan::build(mask, layout, seq_len, g, max_token)
    } else {
        SkipPlan::dense(g)
    };
    let geom = RingGeom::build(layout, seq_len, g, d, d, max_token);
    let r = geom.rows[me];
    // Resident accumulator and bundle shapes, all sized by this rank's own
    // shard (the slot-registration sites use `shard.*.len()`).
    let acc = (4 * r * d + 4 * r) as u64;
    let kv_slot = wire(2 * r * d);
    let ro_bundle = wire(2 * r * d) + 8 * r as u64;
    // `dr_fwd_start_kv` / `dr_fwd_cur_kv`: one slot per active level this
    // rank's gates ever fill.
    let (buf_start, buf_cur) = plan.dr_fwd_bufs(me, n, p);
    let cb_fwd =
        if n > 1 && buf_start { kv_slot } else { 0 } + if p > 1 && buf_cur { kv_slot } else { 0 };
    let (act_bwd, cb_bwd) = match algo {
        // Flat Algorithm 1: `ring_bwd_dq` is unconditional past the early
        // return; the fused `ring_bwd_kv_grads` slot bills only the halves
        // this rank's gates ever hold.
        Algo::RingFlat if g > 1 => {
            let (kv, dkv) = plan.flat_alg1_bufs(me);
            let halves = kv as u64 + dkv as u64;
            ((4 * r * d) as u64, halves * kv_slot)
        }
        // `dr_bwd_dq` is unconditional (no single-rank early return);
        // `dr_bwd_kv_grads` bills per held half.
        Algo::DoubleRing => {
            let (buf_kv, buf_dkv) = plan.dr_alg1_bufs(me, n, p);
            let halves = buf_kv as u64 + buf_dkv as u64;
            let cb_bwd = if g > 1 { halves * kv_slot } else { 0 };
            ((4 * r * d) as u64, cb_bwd)
        }
        // Algorithm 2: `dr_bwd_dkv` unconditional past the early return,
        // the bundle slots per active level.
        Algo::BurstFlat | Algo::BurstTopo if g > 1 => {
            let (start, cur, dq_ring, dq_buf) = plan.dr_alg2_bufs(me, n, p);
            let act = (8 * r * d) as u64 + if dq_buf { (4 * r * d) as u64 } else { 0 };
            let cb = if n > 1 && start { ro_bundle } else { 0 }
                + if p > 1 && cur { ro_bundle } else { 0 }
                + if dq_ring { wire(r * d) } else { 0 };
            (act, cb)
        }
        Algo::RingFlat | Algo::BurstFlat | Algo::BurstTopo => (0, 0),
    };
    PeakBytes {
        ring_shards: 16 * (r * d) as u64,
        activations: acc + act_bwd,
        comm_buffers: cb_fwd.max(cb_bwd),
        gated_total: 16 * (r * d) as u64 + acc + cb_fwd.max(act_bwd + cb_bwd),
        ..PeakBytes::default()
    }
}

/// USP's census on rank `me`. With `skip_mask`, the ring leg gates its
/// slots on the ring's [`SkipPlan`] over the zigzag layout of the whole
/// sequence, as `UspTopo::with_skip` does; `None` bills every slot.
#[allow(clippy::too_many_arguments)]
fn usp_peak(
    cluster: &Cluster,
    seq_len: usize,
    d: usize,
    heads: usize,
    ulysses: usize,
    dtype: WireDtype,
    skip_mask: Option<&AttnMask>,
    me: usize,
) -> PeakBytes {
    let wire = |elems: usize| -> u64 { (elems as f64 * dtype.width()) as u64 };
    let g = cluster.world();
    let (n, p) = (cluster.nodes, cluster.gpus_per_node);
    assert!(
        g.is_multiple_of(ulysses) && heads.is_multiple_of(ulysses) && d.is_multiple_of(heads),
        "USP census: ulysses {ulysses} must divide world {g} and heads {heads}, \
         heads into width {d}"
    );
    let ring = g / ulysses;
    let (hpr, dh) = (heads / ulysses, d / heads);
    // Ring-shard rows per owned head, and the elements of one tensor's
    // owned heads over them.
    let ns = seq_len / ring;
    let x = ns * hpr * dh;
    // The context's `usp_saved` entries: the head-shard Q, K, V (f32) from
    // the landing of their all-to-all, and in the backward the head-shard
    // O and Lse from the landing of theirs.
    let qkv = (12 * x) as u64;
    let out = (4 * x + 4 * ns * hpr) as u64;
    let grads = (12 * x) as u64;
    // An all-to-all's `a2a_staging`: `t` packed tensors out and in at the
    // wire dtype, and the Lse, in and out, at f32 when it rides along.
    let staging =
        |t: usize, lse: bool| 2 * wire(t * x) + if lse { (8 * ns * hpr) as u64 } else { 0 };
    // The ring leg runs on the two-level ring. Forward: one pass over every
    // owned head, so all their `dr_fwd_acc` (O, Lse) accumulators are live
    // at once, with one `dr_fwd_start_kv` (K, V) bundle per head when the
    // ring crosses nodes and one shared `dr_fwd_cur_kv` when a node holds
    // several members. Backward, one head at a time: the gradient block
    // plus Algorithm 1's ∇Q accumulator and the halves of its
    // (K, V, ∇K, ∇V) bundle the gates ever fill. A ring of one position
    // (Ulysses) runs its kernels locally and bills no ring term.
    let (fwd_act, fwd_cb, ring_dq, ring_cb_bwd) = if ring > 1 {
        // `(nodes, members per node)` of every ring's split: the
        // stride-`ulysses` members put one rank on each node when
        // `ulysses ≥ p`, `p / ulysses` on every node when that divides,
        // and are ragged (one level) otherwise.
        let (rn, rp) = if ulysses >= p {
            (ring, 1)
        } else if p.is_multiple_of(ulysses) {
            (n, p / ulysses)
        } else {
            (1, ring)
        };
        // A rank's ring slot is its position among the members; the
        // buffers its gates never fill are not billed.
        let plan = match skip_mask {
            Some(mask) => SkipPlan::build(mask, Layout::Zigzag, seq_len, ring, None),
            None => SkipPlan::dense(ring),
        };
        let slot = me / ulysses;
        let (buf_start, buf_cur) = plan.dr_fwd_bufs(slot, rn, rp);
        let (buf_kv, buf_dkv) = plan.dr_alg1_bufs(slot, rn, rp);
        let kv = wire(2 * ns * dh);
        let starts = if rn > 1 && buf_start {
            hpr as u64 * kv
        } else {
            0
        };
        let cur = if rp > 1 && buf_cur { kv } else { 0 };
        let acc = (4 * ns * dh + 4 * ns) as u64;
        (
            hpr as u64 * acc,
            starts + cur,
            (4 * ns * dh) as u64,
            (buf_kv as u64 + buf_dkv as u64) * kv,
        )
    } else {
        (0, 0, 0, 0)
    };
    // The gated sum at each instant that can be the deepest, in run order:
    // the Q|K|V all-to-all (the forward's, or a backward's without a
    // context); the forward's ring pass on top of the context, then its
    // (O, Lse) all-to-all; the backward's (O, Lse)|∇O all-to-all on top of
    // the context; its ring pass with the whole context and the gradient
    // block live; and, the context closed, the gradient all-to-all.
    let gated_total = [
        staging(3, false),
        qkv + fwd_act + fwd_cb,
        qkv + staging(1, true),
        qkv + staging(2, true),
        qkv + out + grads + ring_dq + ring_cb_bwd,
        grads + staging(3, false),
    ]
    .into_iter()
    .max()
    .expect("instants");
    PeakBytes {
        ckpt_stash: qkv + out,
        activations: fwd_act.max(grads + ring_dq),
        comm_buffers: [
            staging(3, false),
            staging(1, true),
            staging(2, true),
            fwd_cb,
            ring_cb_bwd,
        ]
        .into_iter()
        .max()
        .expect("buffers"),
        gated_total,
        ..PeakBytes::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEQ: usize = 4096;
    const D: usize = 64;

    fn cluster() -> Cluster {
        Cluster::a800(2, 4)
    }

    #[test]
    fn census_is_gated_only() {
        for m in [
            PeakMethod::Ring(Algo::RingFlat),
            PeakMethod::Ring(Algo::BurstFlat),
            PeakMethod::Ring(Algo::DoubleRing),
            PeakMethod::Ring(Algo::BurstTopo),
            PeakMethod::Usp {
                heads: 8,
                ulysses: 8,
            },
            PeakMethod::Usp {
                heads: 8,
                ulysses: 4,
            },
        ] {
            let p = exact_peak_bytes_dtype(&cluster(), SEQ, D, m, WireDtype::F32);
            assert_eq!(p, p.gated(), "{m:?} census must not predict ungated lanes");
            assert_eq!(p.params, 0);
            assert!(p.gated_total > 0, "{m:?} census empty");
        }
    }

    #[test]
    fn bf16_wire_halves_circulating_buffers_only() {
        for m in [
            PeakMethod::Ring(Algo::RingFlat),
            PeakMethod::Ring(Algo::BurstTopo),
            PeakMethod::Usp {
                heads: 8,
                ulysses: 8,
            },
        ] {
            let f32p = exact_peak_bytes_dtype(&cluster(), SEQ, D, m, WireDtype::F32);
            let bf16 = exact_peak_bytes_dtype(&cluster(), SEQ, D, m, WireDtype::Bf16);
            assert!(
                bf16.comm_buffers < f32p.comm_buffers,
                "{m:?}: wire dtype must shrink comm buffers"
            );
            assert_eq!(bf16.activations, f32p.activations);
            assert_eq!(bf16.ckpt_stash, f32p.ckpt_stash);
            assert_eq!(bf16.ring_shards, f32p.ring_shards);
        }
        // Algorithm 1's pure-Mat bundle halves exactly; Algorithm 2's
        // carries f32 statistics vectors, so it shrinks by less than half.
        let rf = exact_peak_bytes_dtype(
            &cluster(),
            SEQ,
            D,
            PeakMethod::Ring(Algo::RingFlat),
            WireDtype::F32,
        );
        let rb = exact_peak_bytes_dtype(
            &cluster(),
            SEQ,
            D,
            PeakMethod::Ring(Algo::RingFlat),
            WireDtype::Bf16,
        );
        assert_eq!(rb.comm_buffers * 2, rf.comm_buffers);
    }

    #[test]
    fn gated_total_is_at_most_the_sum_and_at_least_the_max_of_lanes() {
        for m in [
            PeakMethod::Ring(Algo::BurstFlat),
            PeakMethod::Ring(Algo::DoubleRing),
            PeakMethod::Usp {
                heads: 8,
                ulysses: 4,
            },
        ] {
            let p = exact_peak_bytes_dtype(&cluster(), SEQ, D, m, WireDtype::F32);
            let lanes = [p.activations, p.ckpt_stash, p.ring_shards, p.comm_buffers];
            let sum: u64 = lanes.iter().sum();
            let max = *lanes.iter().max().unwrap();
            assert!(p.gated_total <= sum, "{m:?}: total above lane sum");
            assert!(p.gated_total >= max, "{m:?}: total below deepest lane");
        }
    }

    #[test]
    fn ulysses_trades_ring_shards_for_stash() {
        // The paper's qualitative claim: head parallelism stashes the full
        // sequence per owned head, while ring methods keep only their shard.
        let burst = exact_peak_bytes_dtype(
            &cluster(),
            SEQ,
            D,
            PeakMethod::Ring(Algo::BurstTopo),
            WireDtype::F32,
        );
        let uly = exact_peak_bytes_dtype(
            &cluster(),
            SEQ,
            D,
            PeakMethod::Usp {
                heads: 8,
                ulysses: 8,
            },
            WireDtype::F32,
        );
        assert_eq!(uly.ring_shards, 0);
        assert!(uly.ckpt_stash > burst.ckpt_stash);
        assert!(burst.ring_shards > 0);
    }

    #[test]
    fn masked_peak_skip_off_reproduces_dense_census() {
        // The dense plan forces every buffer-activity flag on, so the
        // masked census must equal the closed forms for every method,
        // every rank, both wire dtypes — regardless of the mask.
        let c = cluster();
        let methods = [
            PeakMethod::Ring(Algo::RingFlat),
            PeakMethod::Ring(Algo::BurstFlat),
            PeakMethod::Ring(Algo::DoubleRing),
            PeakMethod::Ring(Algo::BurstTopo),
            PeakMethod::Usp {
                heads: 8,
                ulysses: 8,
            },
            PeakMethod::Usp {
                heads: 8,
                ulysses: 4,
            },
        ];
        for m in methods {
            for dtype in [WireDtype::F32, WireDtype::Bf16] {
                let dense = exact_peak_bytes_dtype(&c, SEQ, D, m, dtype);
                for me in 0..c.world() {
                    let masked = exact_peak_bytes_masked_dtype(
                        &c,
                        SEQ,
                        D,
                        m,
                        dtype,
                        &AttnMask::SlidingWindow { window: 64 },
                        Layout::Zigzag,
                        None,
                        false,
                        me,
                    );
                    assert_eq!(masked, dense, "{m:?} rank {me} {dtype:?}");
                }
            }
        }
    }

    #[test]
    fn masked_peak_never_exceeds_dense_and_window_shrinks_it() {
        // Gating can only turn slots off: every lane is bounded by the
        // dense census, and a narrow window on the contiguous layout must
        // actually free comm buffers on at least one rank.
        let c = cluster();
        let mask = AttnMask::SlidingWindow {
            window: SEQ / c.world() / 2,
        };
        // Flat Algorithm 1 circulates (K, V): under a causal window the
        // early shards run out of downstream consumers, so early ranks
        // stop receiving and their bundle halves are freed. Algorithm 2
        // circulates the read-only (Q, ∇O) bundle instead, and causal
        // consumers sit *behind* each bundle on the ring — every rank
        // keeps forwarding, so its slots stay live. The double ring's
        // node-major traversal likewise wraps each node's inner ring,
        // turning the early ranks into cross-node forwarders. For those
        // schedules the window's savings are wire messages and skipped
        // rounds, not freed buffer slots. BurstTopo is the exception among
        // the Algorithm 2 runs: its outer ring is a direct boundary
        // exchange with no forwarding, and causal consumers cross it one
        // way only, so the last node's inter-level bundle slots are freed.
        for (m, expect_shrink) in [
            (PeakMethod::Ring(Algo::RingFlat), true),
            (PeakMethod::Ring(Algo::BurstFlat), false),
            (PeakMethod::Ring(Algo::DoubleRing), false),
            (PeakMethod::Ring(Algo::BurstTopo), true),
        ] {
            let dense = exact_peak_bytes_dtype(&c, SEQ, D, m, WireDtype::F32);
            let mut any_shrunk = false;
            for me in 0..c.world() {
                let p = exact_peak_bytes_masked_dtype(
                    &c,
                    SEQ,
                    D,
                    m,
                    WireDtype::F32,
                    &mask,
                    Layout::Contiguous,
                    None,
                    true,
                    me,
                );
                assert!(p.comm_buffers <= dense.comm_buffers, "{m:?} rank {me}");
                assert!(p.activations <= dense.activations, "{m:?} rank {me}");
                assert!(p.gated_total <= dense.gated_total, "{m:?} rank {me}");
                any_shrunk |= p.gated_total < dense.gated_total;
            }
            assert_eq!(
                any_shrunk, expect_shrink,
                "{m:?}: unexpected slot gating under the window mask"
            );
        }
    }

    #[test]
    fn masked_peak_full_mask_with_skip_is_dense() {
        // Full leaves every tile live: skipping on changes nothing.
        let c = cluster();
        for m in [
            PeakMethod::Ring(Algo::BurstTopo),
            PeakMethod::Ring(Algo::RingFlat),
        ] {
            let dense = exact_peak_bytes_dtype(&c, SEQ, D, m, WireDtype::F32);
            for me in 0..c.world() {
                let p = exact_peak_bytes_masked_dtype(
                    &c,
                    SEQ,
                    D,
                    m,
                    WireDtype::F32,
                    &AttnMask::Full,
                    Layout::Zigzag,
                    None,
                    true,
                    me,
                );
                assert_eq!(p, dense, "{m:?} rank {me}");
            }
        }
    }

    #[test]
    fn single_rank_keeps_only_resident_state() {
        let solo = Cluster::a800(1, 1);
        let p = exact_peak_bytes_dtype(
            &solo,
            SEQ,
            D,
            PeakMethod::Ring(Algo::RingFlat),
            WireDtype::F32,
        );
        assert_eq!(p.comm_buffers, 0);
        let r = SEQ; // whole sequence on the one rank
        assert_eq!(p.ring_shards, 16 * (r * D) as u64);
        assert_eq!(p.gated_total, p.ring_shards + p.activations);
    }
}
