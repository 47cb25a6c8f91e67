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

use crate::machine::Cluster;
use burst_comm::{PeakBytes, WireDtype};
use burst_dattn::{Layout, RingGeom, SkipPlan};
use burst_kernels::AttnMask;

/// Which distributed-attention schedule to predict. The first four mirror
/// `burst_dattn::Algo` (driven through `try_run_attention_opts`); the last three
/// cover the head-parallel baselines and the elastic wrapper's healthy
/// (full-membership, flat-ring) path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeakMethod {
    /// RingAttention on the flat ring (Algorithm 1 backward, fine overlap).
    RingFlat,
    /// BurstAttention on the flat ring (Algorithm 2 backward, fine overlap).
    BurstFlat,
    /// DoubleRingAttention: two-level rings, Algorithm 1 backward.
    DoubleRing,
    /// Full BurstAttention: two-level rings, Algorithm 2 backward.
    BurstTopo,
    /// DeepSpeed-Ulysses head parallelism over the whole world. `heads`
    /// must divide into both the world size and the model width `d`.
    Ulysses { heads: usize },
    /// USP hybrid: Ulysses groups of size `ulysses` × context rings of size
    /// `world / ulysses`.
    Usp { heads: usize, ulysses: usize },
    /// `try_elastic_attention_opts` with default options on a fault-free
    /// full world: local-shard checkpoint stash + flat ring forward +
    /// Algorithm 2 backward.
    ElasticHealthy,
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
    let (n, p) = (cluster.nodes, cluster.gpus_per_node);
    let mut peak = PeakBytes::default();
    match method {
        PeakMethod::RingFlat
        | PeakMethod::BurstFlat
        | PeakMethod::DoubleRing
        | PeakMethod::BurstTopo => {
            let r = seq_len / g;
            // `attn_inputs`: the rank's resident Q/K/V/∇O shards, f32,
            // live for the whole dispatcher call.
            peak.ring_shards = 16 * (r * d) as u64;
            // `ring_fwd_acc`/`dr_fwd_acc` then `attn_fwd_out`: the (O, Lse)
            // accumulator hands over to the dispatcher's saved output at the
            // same instant (release-before-charge), so one term covers both.
            let acc = (4 * r * d + 4 * r) as u64;
            // Forward circulating (K, V) bundles at the wire dtype: one slot
            // on the flat ring, one per active level on the double ring.
            let lvls = (n > 1) as u64 + (p > 1) as u64;
            let cb_fwd = match method {
                PeakMethod::RingFlat | PeakMethod::BurstFlat => {
                    if g > 1 {
                        wire(2 * r * d)
                    } else {
                        0
                    }
                }
                _ => lvls * wire(2 * r * d),
            };
            // Backward extras on top of `attn_fwd_out`.
            let ro_bundle = wire(2 * r * d) + 8 * r as u64; // Q+∇O at wire, Lse+D at f32
            let (act_bwd, cb_bwd) = match method {
                // Algorithm 1, flat: ∇Q accumulator + fused (K,V,∇K,∇V)
                // bundle — both skipped by the single-rank early return.
                PeakMethod::RingFlat => {
                    if g > 1 {
                        ((4 * r * d) as u64, wire(4 * r * d))
                    } else {
                        (0, 0)
                    }
                }
                // Algorithm 2, flat: ∇K/∇V accumulators + ∇Q staging buffer;
                // read-only bundle + ∇Q ring slot.
                PeakMethod::BurstFlat => {
                    if g > 1 {
                        ((12 * r * d) as u64, ro_bundle + wire(r * d))
                    } else {
                        (0, 0)
                    }
                }
                // Algorithm 1 on the double ring always registers its ∇Q
                // accumulator; the bundle slot needs a circulating ring.
                PeakMethod::DoubleRing => {
                    let cb = if g > 1 { wire(4 * r * d) } else { 0 };
                    ((4 * r * d) as u64, cb)
                }
                // Algorithm 2 on the double ring: one read-only-bundle slot
                // per active level plus the ∇Q partial riding one step
                // behind.
                PeakMethod::BurstTopo => {
                    if g > 1 {
                        ((12 * r * d) as u64, lvls * ro_bundle + wire(r * d))
                    } else {
                        (0, 0)
                    }
                }
                _ => unreachable!(),
            };
            peak.activations = acc + act_bwd;
            peak.comm_buffers = cb_fwd.max(cb_bwd);
            // The gated-sum peak is a timeline quantity: inputs + saved
            // output are always live; the forward holds its circulating
            // bundles, the backward holds its accumulators *and* bundles.
            peak.gated_total = peak.ring_shards + acc + cb_fwd.max(act_bwd + cb_bwd);
        }
        PeakMethod::Ulysses { heads } => {
            assert!(
                heads.is_multiple_of(g) && d.is_multiple_of(heads),
                "Ulysses census: heads {heads} must divide by world {g} and into width {d}"
            );
            let (hpr, dh) = (heads / g, d / heads);
            // `ulysses_saved`: full-sequence Q/K/V/O (f32) + Lse of the
            // rank's owned heads, stashed forward → backward.
            let stash = (16 * seq_len * hpr * dh + 4 * seq_len * hpr) as u64;
            // `ulysses_grads`: full-sequence (∇Q, ∇K, ∇V) of the owned
            // heads, live across the backward's scatters.
            let grads = (12 * seq_len * hpr * dh) as u64;
            // `a2a_staging`: outgoing + incoming blocks at the wire dtype.
            // Every all-to-all in the pass stages the same r·H·dh elements
            // = seq·hpr·dh.
            let staging = 2 * wire(seq_len * hpr * dh);
            peak.ckpt_stash = stash;
            peak.activations = grads;
            peak.comm_buffers = staging;
            // Deepest instant: a backward all-to-all with the stash and the
            // gradient block both live.
            peak.gated_total = stash + grads + staging;
        }
        PeakMethod::Usp { heads, ulysses } => {
            assert!(
                g.is_multiple_of(ulysses)
                    && heads.is_multiple_of(ulysses)
                    && d.is_multiple_of(heads),
                "USP census: ulysses {ulysses} must divide world {g} and heads {heads}, \
                 heads into width {d}"
            );
            let ring = g / ulysses;
            let (hpr, dh) = (heads / ulysses, d / heads);
            let ns = seq_len / ring; // ring-shard rows per owned head
            let stash = (16 * ns * hpr * dh + 4 * ns * hpr) as u64;
            let grads = (12 * ns * hpr * dh) as u64;
            let staging = 2 * wire(ns * hpr * dh);
            peak.ckpt_stash = stash;
            // Forward: the inner ring's per-head (O, Lse) accumulator (one
            // head at a time). Backward: the gradient block plus — when the
            // ring circulates — the per-head ∇Q accumulator.
            let ring_dq = if ring > 1 { (4 * ns * dh) as u64 } else { 0 };
            peak.activations = ((4 * ns * dh + 4 * ns) as u64).max(grads + ring_dq);
            // Inner-ring bundles: (K, V) forward, (K, V, ∇K, ∇V) backward.
            let ring_cb_bwd = if ring > 1 { wire(4 * ns * dh) } else { 0 };
            peak.comm_buffers = staging.max(ring_cb_bwd);
            // Deepest instant: backward with stash + gradient block live,
            // plus whichever is larger of an all-to-all's staging or an
            // inner-ring round's ∇Q + bundle.
            peak.gated_total = stash + grads + staging.max(ring_dq + ring_cb_bwd);
        }
        PeakMethod::ElasticHealthy => {
            let r = seq_len / g;
            // `elastic_local_stash`: the cloned Q/K/V/∇O recovery shard,
            // held across the whole call. Healthy runs never touch the
            // shard cache or rebuild a partition.
            let stash = 16 * (r * d) as u64;
            peak.ckpt_stash = stash;
            // Flat ring forward + Algorithm 2 backward, without the
            // dispatcher's `attn_inputs`/`attn_fwd_out` wrappers.
            let acc = (4 * r * d + 4 * r) as u64;
            let (act_bwd, cb_fwd, cb_bwd) = if g > 1 {
                (
                    (12 * r * d) as u64,
                    wire(2 * r * d),
                    wire(2 * r * d) + 8 * r as u64 + wire(r * d),
                )
            } else {
                (0, 0, 0)
            };
            peak.activations = acc.max(act_bwd);
            peak.comm_buffers = cb_fwd.max(cb_bwd);
            peak.gated_total = stash + (acc + cb_fwd).max(act_bwd + cb_bwd);
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
/// methods (`Ulysses`, `Usp`) have no mask-gated slots — their all-to-all
/// staging is mask-independent — and return the dense census unchanged.
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
    if matches!(method, PeakMethod::Ulysses { .. } | PeakMethod::Usp { .. }) {
        return exact_peak_bytes_dtype(cluster, seq_len, d, method, dtype);
    }
    let wire = |elems: usize| -> u64 { (elems as f64 * dtype.width()) as u64 };
    let g = cluster.world();
    let (n, p) = (cluster.nodes, cluster.gpus_per_node);
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
    // Flat forward (K, V) slot: `ring_fwd_kv`, gated on ever receiving.
    let flat_cb_fwd = if g > 1 && plan.flat_fwd_recv_any(me) {
        kv_slot
    } else {
        0
    };
    // Flat Algorithm 2 backward extras (also the elastic healthy path):
    // `burst_bwd_dkv` is unconditional past the single-rank early return;
    // `burst_dq_buf` / `burst_ro_bundle` / `burst_dq_ring` are flag-gated.
    let flat_alg2 = |plan: &SkipPlan| -> (u64, u64) {
        if g == 1 {
            return (0, 0);
        }
        let (ro, dq_ring, dq_buf) = plan.flat_alg2_bufs(me);
        let act = (8 * r * d) as u64 + if dq_buf { (4 * r * d) as u64 } else { 0 };
        let cb = if ro { ro_bundle } else { 0 } + if dq_ring { wire(r * d) } else { 0 };
        (act, cb)
    };
    let mut peak = PeakBytes::default();
    match method {
        PeakMethod::RingFlat => {
            peak.ring_shards = 16 * (r * d) as u64;
            // `ring_bwd_dq` is unconditional past the early return; the
            // fused `ring_bwd_kv_grads` slot bills only the halves this
            // rank's gates ever hold.
            let (act_bwd, cb_bwd) = if g > 1 {
                let (kv, dkv) = plan.flat_alg1_bufs(me);
                let halves = kv as usize + dkv as usize;
                let cb = if halves > 0 {
                    wire(halves * 2 * r * d)
                } else {
                    0
                };
                ((4 * r * d) as u64, cb)
            } else {
                (0, 0)
            };
            peak.activations = acc + act_bwd;
            peak.comm_buffers = flat_cb_fwd.max(cb_bwd);
            peak.gated_total = peak.ring_shards + acc + flat_cb_fwd.max(act_bwd + cb_bwd);
        }
        PeakMethod::BurstFlat => {
            peak.ring_shards = 16 * (r * d) as u64;
            let (act_bwd, cb_bwd) = flat_alg2(&plan);
            peak.activations = acc + act_bwd;
            peak.comm_buffers = flat_cb_fwd.max(cb_bwd);
            peak.gated_total = peak.ring_shards + acc + flat_cb_fwd.max(act_bwd + cb_bwd);
        }
        PeakMethod::DoubleRing => {
            peak.ring_shards = 16 * (r * d) as u64;
            // `dr_fwd_start_kv` / `dr_fwd_cur_kv`: one slot per active
            // level this rank's gates ever fill.
            let (buf_start, buf_cur) = plan.dr_fwd_bufs(me, n, p);
            let cb_fwd = if n > 1 && buf_start { kv_slot } else { 0 }
                + if p > 1 && buf_cur { kv_slot } else { 0 };
            // `dr_bwd_dq` is unconditional (no single-rank early return);
            // `dr_bwd_kv_grads` bills per held half.
            let (buf_kv, buf_dkv) = plan.dr_alg1_bufs(me, n, p);
            let halves = buf_kv as u64 + buf_dkv as u64;
            let cb_bwd = if g > 1 && halves > 0 {
                halves * kv_slot
            } else {
                0
            };
            let act_bwd = (4 * r * d) as u64;
            peak.activations = acc + act_bwd;
            peak.comm_buffers = cb_fwd.max(cb_bwd);
            peak.gated_total = peak.ring_shards + acc + cb_fwd.max(act_bwd + cb_bwd);
        }
        PeakMethod::BurstTopo => {
            peak.ring_shards = 16 * (r * d) as u64;
            let (buf_start, buf_cur) = plan.dr_fwd_bufs(me, n, p);
            let cb_fwd = if n > 1 && buf_start { kv_slot } else { 0 }
                + if p > 1 && buf_cur { kv_slot } else { 0 };
            // Algorithm 2 on the double ring: `dr_bwd_dkv` unconditional
            // past the early return, the bundle slots per active level.
            let (act_bwd, cb_bwd) = if g > 1 {
                let (start, cur, dq_ring, dq_buf) = plan.dr_alg2_bufs(me, n, p);
                let act = (8 * r * d) as u64 + if dq_buf { (4 * r * d) as u64 } else { 0 };
                let cb = if n > 1 && start { ro_bundle } else { 0 }
                    + if p > 1 && cur { ro_bundle } else { 0 }
                    + if dq_ring { wire(r * d) } else { 0 };
                (act, cb)
            } else {
                (0, 0)
            };
            peak.activations = acc + act_bwd;
            peak.comm_buffers = cb_fwd.max(cb_bwd);
            peak.gated_total = peak.ring_shards + acc + cb_fwd.max(act_bwd + cb_bwd);
        }
        PeakMethod::ElasticHealthy => {
            peak.ckpt_stash = 16 * (r * d) as u64;
            let (act_bwd, cb_bwd) = flat_alg2(&plan);
            peak.activations = acc.max(act_bwd);
            peak.comm_buffers = flat_cb_fwd.max(cb_bwd);
            peak.gated_total = peak.ckpt_stash + (acc + flat_cb_fwd).max(act_bwd + cb_bwd);
        }
        PeakMethod::Ulysses { .. } | PeakMethod::Usp { .. } => unreachable!(),
    }
    peak
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
            PeakMethod::RingFlat,
            PeakMethod::BurstFlat,
            PeakMethod::DoubleRing,
            PeakMethod::BurstTopo,
            PeakMethod::Ulysses { heads: 8 },
            PeakMethod::Usp {
                heads: 8,
                ulysses: 4,
            },
            PeakMethod::ElasticHealthy,
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
            PeakMethod::RingFlat,
            PeakMethod::BurstTopo,
            PeakMethod::Ulysses { heads: 8 },
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
        let rf = exact_peak_bytes_dtype(&cluster(), SEQ, D, PeakMethod::RingFlat, WireDtype::F32);
        let rb = exact_peak_bytes_dtype(&cluster(), SEQ, D, PeakMethod::RingFlat, WireDtype::Bf16);
        assert_eq!(rb.comm_buffers * 2, rf.comm_buffers);
    }

    #[test]
    fn gated_total_is_at_most_the_sum_and_at_least_the_max_of_lanes() {
        for m in [
            PeakMethod::BurstFlat,
            PeakMethod::DoubleRing,
            PeakMethod::Usp {
                heads: 8,
                ulysses: 4,
            },
            PeakMethod::ElasticHealthy,
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
        let burst =
            exact_peak_bytes_dtype(&cluster(), SEQ, D, PeakMethod::BurstTopo, WireDtype::F32);
        let uly = exact_peak_bytes_dtype(
            &cluster(),
            SEQ,
            D,
            PeakMethod::Ulysses { heads: 8 },
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
            PeakMethod::RingFlat,
            PeakMethod::BurstFlat,
            PeakMethod::DoubleRing,
            PeakMethod::BurstTopo,
            PeakMethod::Ulysses { heads: 8 },
            PeakMethod::Usp {
                heads: 8,
                ulysses: 4,
            },
            PeakMethod::ElasticHealthy,
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
            (PeakMethod::RingFlat, true),
            (PeakMethod::BurstFlat, false),
            (PeakMethod::DoubleRing, false),
            (PeakMethod::BurstTopo, true),
            (PeakMethod::ElasticHealthy, false),
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
        for m in [PeakMethod::BurstTopo, PeakMethod::RingFlat] {
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
        let p = exact_peak_bytes_dtype(&solo, SEQ, D, PeakMethod::RingFlat, WireDtype::F32);
        assert_eq!(p.comm_buffers, 0);
        let r = SEQ; // whole sequence on the one rank
        assert_eq!(p.ring_shards, 16 * (r * D) as u64);
        assert_eq!(p.gated_total, p.ring_shards + p.activations);
    }
}
