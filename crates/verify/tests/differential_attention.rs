//! Differential gates: every distributed attention schedule vs the serial
//! `f64` oracle, over proptest-generated shapes, world sizes (including 1
//! and non-power-of-two), layouts and fault plans.
//!
//! Two tiers of assertion (see `burst_verify` crate docs):
//! * oracle bounds (`ORACLE_*`) for any schedule vs the oracle;
//! * bit-exact (`assert_bits_eq`) for pairs sharing an accumulation order —
//!   determinism re-runs and timing-only fault runs.

use burst_comm::{FaultPlan, Topology, WireDtype};
use burst_dattn::{Algo, ElasticOpts, Layout};
use burst_kernels::{AttnMask, BlockSparseMask};
use burst_verify::diff::{
    attn_inputs, run_elastic, run_elastic_masked_on, run_elastic_on, run_ring_family,
    run_ring_family_opts, run_usp, run_usp_opts, GlobalAttn,
};
use burst_verify::oracle::oracle_attention;
use burst_verify::{
    assert_bits_eq, compare_slice, BF16_ATTN_ATOL, BF16_ATTN_RTOL, BF16_GRAD_ATOL, BF16_GRAD_RTOL,
    ORACLE_ATTN_ATOL, ORACLE_ATTN_RTOL, ORACLE_GRAD_ATOL, ORACLE_GRAD_RTOL,
};
use proptest::prelude::*;

fn scale(d: usize) -> f32 {
    1.0 / (d as f32).sqrt()
}

/// Assert a reassembled schedule run against the oracle under the
/// documented bounds.
fn expect_matches_oracle(label: &str, got: &GlobalAttn, want: &burst_verify::oracle::OracleAttn) {
    let gate = |what: &str, g: &[f32], w: &[f32], atol: f32, rtol: f32| {
        if let Err(d) = compare_slice(what, g, w, atol, rtol) {
            panic!("{label}: {d}");
        }
    };
    gate(
        "o",
        got.o.as_slice(),
        want.o.as_slice(),
        ORACLE_ATTN_ATOL,
        ORACLE_ATTN_RTOL,
    );
    gate(
        "lse",
        &got.lse,
        &want.lse,
        ORACLE_ATTN_ATOL,
        ORACLE_ATTN_RTOL,
    );
    gate(
        "dq",
        got.dq.as_slice(),
        want.dq.as_slice(),
        ORACLE_GRAD_ATOL,
        ORACLE_GRAD_RTOL,
    );
    gate(
        "dk",
        got.dk.as_slice(),
        want.dk.as_slice(),
        ORACLE_GRAD_ATOL,
        ORACLE_GRAD_RTOL,
    );
    gate(
        "dv",
        got.dv.as_slice(),
        want.dv.as_slice(),
        ORACLE_GRAD_ATOL,
        ORACLE_GRAD_RTOL,
    );
}

/// Like [`expect_matches_oracle`], under the looser `BF16_*` bounds for
/// runs whose wire payloads are rounded to bf16 (see the derivation on the
/// constants in `burst_verify`).
fn expect_matches_oracle_bf16(
    label: &str,
    got: &GlobalAttn,
    want: &burst_verify::oracle::OracleAttn,
) {
    let gate = |what: &str, g: &[f32], w: &[f32], atol: f32, rtol: f32| {
        if let Err(d) = compare_slice(what, g, w, atol, rtol) {
            panic!("{label}: {d}");
        }
    };
    gate(
        "o",
        got.o.as_slice(),
        want.o.as_slice(),
        BF16_ATTN_ATOL,
        BF16_ATTN_RTOL,
    );
    gate("lse", &got.lse, &want.lse, BF16_ATTN_ATOL, BF16_ATTN_RTOL);
    gate(
        "dq",
        got.dq.as_slice(),
        want.dq.as_slice(),
        BF16_GRAD_ATOL,
        BF16_GRAD_RTOL,
    );
    gate(
        "dk",
        got.dk.as_slice(),
        want.dk.as_slice(),
        BF16_GRAD_ATOL,
        BF16_GRAD_RTOL,
    );
    gate(
        "dv",
        got.dv.as_slice(),
        want.dv.as_slice(),
        BF16_GRAD_ATOL,
        BF16_GRAD_RTOL,
    );
}

fn bits_eq_attn(label: &str, a: &GlobalAttn, b: &GlobalAttn) {
    assert_bits_eq(&format!("{label}/o"), a.o.as_slice(), b.o.as_slice());
    assert_bits_eq(&format!("{label}/lse"), &a.lse, &b.lse);
    assert_bits_eq(&format!("{label}/dq"), a.dq.as_slice(), b.dq.as_slice());
    assert_bits_eq(&format!("{label}/dk"), a.dk.as_slice(), b.dk.as_slice());
    assert_bits_eq(&format!("{label}/dv"), a.dv.as_slice(), b.dv.as_slice());
}

fn oracle_for(n: usize, d: usize, seed: u64, mask: &AttnMask) -> burst_verify::oracle::OracleAttn {
    let (q, k, v, go) = attn_inputs(n, d, seed);
    oracle_attention(&q, &k, &v, &go, scale(d), mask)
}

fn algo_name(a: Algo) -> &'static str {
    match a {
        Algo::RingFlat => "ring-flat",
        Algo::BurstFlat => "burst-flat",
        Algo::DoubleRing => "double-ring",
        Algo::BurstTopo => "burst-topo",
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every ring-family schedule, on single- and multi-node topologies,
    /// matches the oracle — including world size 1 and non-power-of-two
    /// worlds (g = 3 with zigzag exercises the 2G-chunk layout off the
    /// power-of-two path).
    #[test]
    fn ring_family_matches_oracle(
        g in 1usize..=4,
        chunks_per_rank in 1usize..=3,
        d in prop_oneof![Just(4usize), Just(8)],
        seed in 0u64..1_000,
        algo in prop_oneof![
            Just(Algo::RingFlat), Just(Algo::BurstFlat),
            Just(Algo::DoubleRing), Just(Algo::BurstTopo)
        ],
        causal in prop_oneof![Just(true), Just(false)],
    ) {
        // Zigzag needs n divisible by 2g; scale n off g so every world
        // size (1..=4, incl. 3) stays feasible.
        let n = 2 * g * chunks_per_rank * 2;
        let mask = if causal { AttnMask::Causal } else { AttnMask::Full };
        let layout = Layout::Zigzag;
        let topo = if g % 2 == 0 && g > 2 {
            Topology::new(2, g / 2, burst_comm::Link::new(1e-6, 100e9), burst_comm::Link::new(5e-6, 25e9))
        } else {
            Topology::single_node(g)
        };
        let want = oracle_for(n, d, seed, &mask);
        let got = run_ring_family(algo, layout, &topo, n, d, seed, &mask, None)
            .unwrap_or_else(|e| panic!("{} failed: {e}", algo_name(algo)));
        expect_matches_oracle(algo_name(algo), &got, &want);
    }

    /// The same ring-family sweep with **bf16 wire payloads**: every K/V
    /// shard and merged O block is genuinely rounded to 8 mantissa bits at
    /// the sender. Results must stay inside the `BF16_*` bounds of the
    /// oracle — and remain deterministic (rounding is a pure function of
    /// the data flow, so two runs still agree bit for bit).
    #[test]
    fn ring_family_bf16_wire_matches_oracle(
        g in 2usize..=4,
        chunks_per_rank in 1usize..=2,
        d in prop_oneof![Just(4usize), Just(8)],
        seed in 0u64..1_000,
        algo in prop_oneof![
            Just(Algo::RingFlat), Just(Algo::BurstFlat),
            Just(Algo::DoubleRing), Just(Algo::BurstTopo)
        ],
        causal in prop_oneof![Just(true), Just(false)],
    ) {
        let n = 2 * g * chunks_per_rank * 2;
        let mask = if causal { AttnMask::Causal } else { AttnMask::Full };
        let topo = Topology::single_node(g).with_wire_dtype(WireDtype::Bf16);
        let want = oracle_for(n, d, seed, &mask);
        let label = format!("{}+bf16wire", algo_name(algo));
        let got = run_ring_family(algo, Layout::Zigzag, &topo, n, d, seed, &mask, None)
            .unwrap_or_else(|e| panic!("{label} failed: {e}"));
        expect_matches_oracle_bf16(&label, &got, &want);
        let again = run_ring_family(algo, Layout::Zigzag, &topo, n, d, seed, &mask, None).unwrap();
        bits_eq_attn(&label, &got, &again);
    }

    /// Pure Ulysses head parallelism (USP whose Ulysses group is the whole
    /// world) matches the oracle head-by-head, including the degenerate
    /// single-rank group and odd sequence lengths.
    #[test]
    fn ulysses_matches_oracle(
        g in prop_oneof![Just(1usize), Just(2), Just(3), Just(4)],
        heads_per_rank in 1usize..=2,
        rows_per_rank in 2usize..=4,
        d in prop_oneof![Just(4usize), Just(8)],
        seed in 0u64..1_000,
    ) {
        let heads = g * heads_per_rank;        // Ulysses needs heads % g == 0
        let n = g * rows_per_rank;
        let topo = Topology::single_node(g);
        let got = run_usp(&topo, n, d, heads, g, seed, &AttnMask::Causal, None)
            .expect("ulysses failed");
        for (h, got_h) in got.iter().enumerate() {
            let want = oracle_for(n, d, seed.wrapping_mul(64) + h as u64, &AttnMask::Causal);
            expect_matches_oracle(&format!("ulysses/head{h}"), got_h, &want);
        }
    }

    /// USP (Ulysses nested in zigzag rings) matches the oracle for every
    /// factorisation of the world, including pure-ring (u = 1) and
    /// pure-Ulysses (u = g) corners, on one node and across nodes: ring
    /// members per node of 1 (a cross-node ring alone), 2 (both levels of
    /// the two-level ring) and ragged (the one-level fallback).
    #[test]
    fn usp_matches_oracle(
        // (nodes, gpus per node, ulysses size), one kind of ring per arm.
        shape in prop_oneof![
            // One node.
            prop_oneof![
                Just((1usize, 1usize, 1usize)), Just((1, 2, 1)), Just((1, 2, 2)),
                Just((1, 4, 2)), Just((1, 4, 1)), Just((1, 4, 4)), Just((1, 3, 3)),
                Just((1, 3, 1))
            ],
            // One ring member per node: the cross-node ring alone.
            prop_oneof![Just((2usize, 2usize, 2usize)), Just((4, 1, 1)), Just((2, 4, 4))],
            // Two ring members per node: both levels.
            prop_oneof![Just((2usize, 2usize, 1usize)), Just((2, 4, 2)), Just((3, 2, 1))],
            // Members ragged across nodes: the one-level ring.
            Just((2usize, 3usize, 2usize)),
        ],
        heads_mul in 1usize..=2,
        d in prop_oneof![Just(4usize), Just(8)],
        seed in 0u64..1_000,
    ) {
        let (nodes, gpn, u) = shape;
        let g = nodes * gpn;
        let r = g / u;                         // ring size
        let heads = u * heads_mul;             // heads % ulysses_size == 0
        let n = 2 * r * u * 2;                 // zigzag over r rings, then /u per member
        let topo = Topology::a800(nodes, gpn);
        let got = run_usp(&topo, n, d, heads, u, seed, &AttnMask::Causal, None)
            .expect("usp failed");
        for (h, got_h) in got.iter().enumerate() {
            let want = oracle_for(n, d, seed.wrapping_mul(64) + h as u64, &AttnMask::Causal);
            expect_matches_oracle(
                &format!("usp[{nodes}x{gpn},u={u},r={r}]/head{h}"),
                got_h,
                &want,
            );
        }
    }

    /// Same schedule, same seed, run twice on fresh worlds → bit-identical.
    /// The simulated cluster is deterministic end to end; any drift here
    /// means a scheduling-order dependence leaked into the numerics.
    #[test]
    fn schedules_are_deterministic(
        g in 2usize..=4,
        seed in 0u64..1_000,
        algo in prop_oneof![
            Just(Algo::RingFlat), Just(Algo::BurstFlat),
            Just(Algo::DoubleRing), Just(Algo::BurstTopo)
        ],
    ) {
        let (n, d) = (4 * g, 8);
        let topo = Topology::single_node(g);
        let a = run_ring_family(algo, Layout::Zigzag, &topo, n, d, seed, &AttnMask::Causal, None).unwrap();
        let b = run_ring_family(algo, Layout::Zigzag, &topo, n, d, seed, &AttnMask::Causal, None).unwrap();
        bits_eq_attn(algo_name(algo), &a, &b);
    }

    /// Timing-only faults (link delay, compute slowdown) shift the virtual
    /// clock but must not change a single bit of any schedule's output —
    /// the numerics are a pure function of the data flow.
    #[test]
    fn timing_faults_do_not_change_ring_results(
        g in 2usize..=4,
        seed in 0u64..500,
        fault_seed in 0u64..100,
        algo in prop_oneof![
            Just(Algo::RingFlat), Just(Algo::BurstFlat),
            Just(Algo::DoubleRing), Just(Algo::BurstTopo)
        ],
    ) {
        let (n, d) = (4 * g, 8);
        let topo = Topology::single_node(g);
        let plan = FaultPlan::new(fault_seed)
            .delay_link(0, 1 % g, 3e-3, 1e-3)
            .delay_link(g - 1, 0, 5e-3, 0.0)
            .slow_compute(fault_seed as usize % g, 2.5);
        let clean = run_ring_family(algo, Layout::Zigzag, &topo, n, d, seed, &AttnMask::Causal, None).unwrap();
        let delayed = run_ring_family(algo, Layout::Zigzag, &topo, n, d, seed, &AttnMask::Causal, Some(&plan)).unwrap();
        bits_eq_attn(&format!("{}+delay", algo_name(algo)), &clean, &delayed);
    }

    /// Same for the head-parallel schedules: delayed all-to-alls reorder
    /// nothing observable.
    #[test]
    fn timing_faults_do_not_change_ulysses_usp_results(
        seed in 0u64..500,
        fault_seed in 0u64..100,
    ) {
        let g = 4;
        let (n, d, heads, u) = (16, 8, 4, 2);
        let topo = Topology::single_node(g);
        let plan = FaultPlan::new(fault_seed)
            .delay_link(1, 2, 2e-3, 5e-4)
            .slow_compute(3, 1.7);
        let a = run_usp(&topo, n, d, heads, g, seed, &AttnMask::Causal, None).unwrap();
        let b = run_usp(&topo, n, d, heads, g, seed, &AttnMask::Causal, Some(&plan)).unwrap();
        for (h, (x, y)) in a.iter().zip(&b).enumerate() {
            bits_eq_attn(&format!("ulysses+delay/head{h}"), x, y);
        }
        let a = run_usp(&topo, n, d, heads, u, seed, &AttnMask::Causal, None).unwrap();
        let b = run_usp(&topo, n, d, heads, u, seed, &AttnMask::Causal, Some(&plan)).unwrap();
        for (h, (x, y)) in a.iter().zip(&b).enumerate() {
            bits_eq_attn(&format!("usp+delay/head{h}"), x, y);
        }
    }

    /// Fault + recovery: crash one rank mid-attention; the survivors evict
    /// it, reload shards, re-partition and still match the oracle — and
    /// match a fresh world of the surviving size bit-for-bit (the re-run
    /// shares its accumulation order with a clean small-world run).
    #[test]
    fn elastic_recovery_matches_oracle_and_fresh_small_world(
        dead in 0usize..4,
        seed in 0u64..500,
        crash_op in 2u64..12,
    ) {
        let orig = 4usize;
        let (n, d) = (24, 8);                  // divisible by 2·4 and 2·3
        let plan = FaultPlan::new(seed).crash_at_op(dead, crash_op);
        let out = run_elastic(orig, n, d, seed, Some(&plan)).expect("elastic recovery failed");
        prop_assert_eq!(out.evicted.clone(), vec![dead]);
        prop_assert!(out.attempts > 1, "crash at op {} was never hit", crash_op);

        let want = oracle_for(n, d, seed, &AttnMask::Causal);
        expect_matches_oracle("elastic", &out.attn, &want);

        // A clean run with no fault plan takes the fast path (attempts == 1).
        let clean = run_elastic(orig, n, d, seed, None).expect("clean elastic run failed");
        prop_assert_eq!(clean.attempts, 1);
        expect_matches_oracle("elastic-clean", &clean.attn, &want);

        // The recovered run re-partitions over the 3 survivors with the
        // same layout formula a fresh 3-rank world uses, so the two share
        // their accumulation order exactly: bit-identical results.
        let fresh = run_elastic(orig - 1, n, d, seed, None).expect("fresh small world failed");
        bits_eq_attn("elastic-vs-fresh", &out.attn, &fresh.attn);
    }

    /// Multi-node elastic double-ring: crash one of four ranks on a
    /// 2-node × 2-GPU cluster. Any three survivors are ragged across the
    /// nodes, so the topology-aware retry must fall back to the flat ring
    /// — and still match the oracle, and a fresh 3-rank world bit for bit
    /// (the fallback shares its accumulation order with the flat path).
    #[test]
    fn elastic_double_ring_shrink_matches_oracle(
        dead in 0usize..4,
        seed in 0u64..500,
        crash_op in 2u64..10,
    ) {
        let (n, d) = (24, 8);
        let multi = Topology::a800(2, 2);
        let plan = FaultPlan::new(seed)
            .crash_at_op(dead, crash_op)
            .recv_deadline(60.0);
        let opts = ElasticOpts { double_ring: true, skip_masked_rounds: false };
        let out = run_elastic_on(&multi, n, d, seed, Some(&plan), opts)
            .expect("elastic double-ring recovery failed");
        prop_assert_eq!(out.evicted.clone(), vec![dead]);
        prop_assert!(
            out.flat_fallbacks >= 1,
            "3 ragged survivors must fall back to the flat ring"
        );

        let want = oracle_for(n, d, seed, &AttnMask::Causal);
        expect_matches_oracle("elastic-dr", &out.attn, &want);

        let fresh = run_elastic(3, n, d, seed, None).expect("fresh small world failed");
        bits_eq_attn("elastic-dr-vs-fresh", &out.attn, &fresh.attn);
    }
}

/// One deliberate, non-random fault+resume case per schedule — the
/// fixed-seed smoke row of the acceptance matrix (the proptests above cover
/// the randomised space around it).
#[test]
fn fixed_fault_matrix_all_schedules() {
    let g = 4;
    let (n, d, heads) = (16usize, 8usize, 4usize);
    let topo = Topology::single_node(g);
    let delay = FaultPlan::new(7).delay_link(2, 3, 4e-3, 1e-3);
    for algo in [
        Algo::RingFlat,
        Algo::BurstFlat,
        Algo::DoubleRing,
        Algo::BurstTopo,
    ] {
        let want = oracle_for(n, d, 11, &AttnMask::Causal);
        let got = run_ring_family(
            algo,
            Layout::Zigzag,
            &topo,
            n,
            d,
            11,
            &AttnMask::Causal,
            Some(&delay),
        )
        .unwrap();
        expect_matches_oracle(algo_name(algo), &got, &want);
    }
    for (h, got_h) in run_usp(&topo, n, d, heads, g, 11, &AttnMask::Causal, Some(&delay))
        .unwrap()
        .iter()
        .enumerate()
    {
        let want = oracle_for(n, d, 11u64.wrapping_mul(64) + h as u64, &AttnMask::Causal);
        expect_matches_oracle("ulysses", got_h, &want);
    }
    for (h, got_h) in run_usp(&topo, n, d, heads, 2, 11, &AttnMask::Causal, Some(&delay))
        .unwrap()
        .iter()
        .enumerate()
    {
        let want = oracle_for(n, d, 11u64.wrapping_mul(64) + h as u64, &AttnMask::Causal);
        expect_matches_oracle("usp", got_h, &want);
    }
    let crash = FaultPlan::new(7).crash_at_op(1, 5);
    let out = run_elastic(g, 24, d, 11, Some(&crash)).unwrap();
    assert_eq!(out.evicted, vec![1]);
    let want = oracle_for(24, d, 11, &AttnMask::Causal);
    expect_matches_oracle("elastic", &out.attn, &want);

    // The same crash on a 2×2 multi-node cluster with the topology-aware
    // schedule enabled: the ragged survivor set forces a flat-ring
    // fallback, which must still satisfy the oracle gate.
    let crash_dr = FaultPlan::new(7).crash_at_op(1, 5).recv_deadline(60.0);
    let out = run_elastic_on(
        &Topology::a800(2, 2),
        24,
        d,
        11,
        Some(&crash_dr),
        ElasticOpts {
            double_ring: true,
            skip_masked_rounds: false,
        },
    )
    .unwrap();
    assert_eq!(out.evicted, vec![1]);
    assert!(out.flat_fallbacks >= 1, "expected a flat-ring fallback");
    expect_matches_oracle("elastic-dr", &out.attn, &want);

    // bf16-wire rows: the same four ring schedules with rounded payloads,
    // including one under the link-delay plan (timing faults still must
    // not touch the — now rounded — numerics).
    let bf16_topo = topo.with_wire_dtype(WireDtype::Bf16);
    for algo in [
        Algo::RingFlat,
        Algo::BurstFlat,
        Algo::DoubleRing,
        Algo::BurstTopo,
    ] {
        let want = oracle_for(n, d, 11, &AttnMask::Causal);
        let clean = run_ring_family(
            algo,
            Layout::Zigzag,
            &bf16_topo,
            n,
            d,
            11,
            &AttnMask::Causal,
            None,
        )
        .unwrap();
        expect_matches_oracle_bf16(&format!("{}+bf16wire", algo_name(algo)), &clean, &want);
        let delayed = run_ring_family(
            algo,
            Layout::Zigzag,
            &bf16_topo,
            n,
            d,
            11,
            &AttnMask::Causal,
            Some(&delay),
        )
        .unwrap();
        bits_eq_attn(
            &format!("{}+bf16wire+delay", algo_name(algo)),
            &clean,
            &delayed,
        );
    }
}

/// The reassembly helper itself is covered by construction everywhere
/// above, but pin the scatter logic on a case where layouts interleave:
/// striped vs contiguous reassembly of the same global tensors agree.
#[test]
fn reassembly_is_layout_invariant() {
    let (n, d, g, seed) = (12usize, 4usize, 3usize, 99u64);
    let topo = Topology::single_node(g);
    let a = run_ring_family(
        Algo::RingFlat,
        Layout::Contiguous,
        &topo,
        n,
        d,
        seed,
        &AttnMask::Full,
        None,
    )
    .unwrap();
    let b = run_ring_family(
        Algo::RingFlat,
        Layout::Striped,
        &topo,
        n,
        d,
        seed,
        &AttnMask::Full,
        None,
    )
    .unwrap();
    // Different shardings reorder the ring merges, so compare under the
    // oracle bounds, not bitwise; both must also satisfy the oracle gate.
    let want = oracle_for(n, d, seed, &AttnMask::Full);
    expect_matches_oracle("contiguous", &a, &want);
    expect_matches_oracle("striped", &b, &want);
    if let Err(divergence) = compare_slice(
        "o",
        b.o.as_slice(),
        a.o.as_slice(),
        ORACLE_ATTN_ATOL,
        ORACLE_ATTN_RTOL,
    ) {
        panic!("striped vs contiguous: {divergence}");
    }
}

// ---------------------------------------------------------------------------
// Sparse-mask cells: every mask kind × every schedule vs the oracle, plus
// skip-on vs skip-off bit identity (mask-aware round skipping must be a
// pure communication optimisation — same arithmetic, same order).
// ---------------------------------------------------------------------------

/// Deterministic random block-sparse pattern from a seed (xorshift64).
/// Diagonal blocks stay allowed so no query row is ever fully dead —
/// off-diagonal blocks drop with probability ~3/4, which reliably produces
/// fully-masked tiles for the skip path to elide.
fn random_block_sparse(n: usize, block: usize, seed: u64) -> AttnMask {
    let nblocks = n.div_ceil(block);
    let mut s = seed | 1;
    let mut allowed = vec![false; nblocks * nblocks];
    for bi in 0..nblocks {
        for bj in 0..nblocks {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            allowed[bi * nblocks + bj] = bi == bj || (s >> 33) & 3 == 0;
        }
    }
    AttnMask::BlockSparse(BlockSparseMask::new(block, nblocks, allowed))
}

/// The sparse mask kinds of the acceptance matrix. Every kind keeps the
/// diagonal allowed, so softmax is defined for every row under every
/// sharding.
fn sparse_masks(n: usize, seed: u64) -> Vec<(&'static str, AttnMask)> {
    vec![
        ("sliding-window", AttnMask::SlidingWindow { window: 6 }),
        (
            "dilated",
            AttnMask::Dilated {
                window: 12,
                step: 3,
            },
        ),
        ("block-sparse", random_block_sparse(n, 4, seed)),
    ]
}

/// Every sparse mask kind through every schedule — the fixed-seed rows of
/// the mask × schedule acceptance matrix. Ring family runs multi-node (so
/// forwarding-only hops exist), head-parallel and elastic run single-node.
#[test]
fn sparse_mask_matrix_all_schedules() {
    let (n, d, g, heads, seed) = (32usize, 8usize, 4usize, 4usize, 11u64);
    let multi = Topology::a800(2, 2);
    let single = Topology::single_node(g);
    for (name, mask) in sparse_masks(n, seed) {
        let want = oracle_for(n, d, seed, &mask);
        for algo in [
            Algo::RingFlat,
            Algo::BurstFlat,
            Algo::DoubleRing,
            Algo::BurstTopo,
        ] {
            let label = format!("{}+{name}", algo_name(algo));
            let got = run_ring_family(algo, Layout::Zigzag, &multi, n, d, seed, &mask, None)
                .unwrap_or_else(|e| panic!("{label} failed: {e}"));
            expect_matches_oracle(&label, &got, &want);
        }
        let ul = run_usp(&single, n, d, heads, g, seed, &mask, None)
            .unwrap_or_else(|e| panic!("ulysses+{name} failed: {e}"));
        for (h, got_h) in ul.iter().enumerate() {
            let want_h = oracle_for(n, d, seed.wrapping_mul(64) + h as u64, &mask);
            expect_matches_oracle(&format!("ulysses+{name}/head{h}"), got_h, &want_h);
        }
        let usp = run_usp(&single, n, d, heads, 2, seed, &mask, None)
            .unwrap_or_else(|e| panic!("usp+{name} failed: {e}"));
        for (h, got_h) in usp.iter().enumerate() {
            let want_h = oracle_for(n, d, seed.wrapping_mul(64) + h as u64, &mask);
            expect_matches_oracle(&format!("usp+{name}/head{h}"), got_h, &want_h);
        }
        let el = run_elastic_masked_on(
            &single,
            n,
            d,
            seed,
            &mask,
            Layout::Zigzag,
            None,
            ElasticOpts::default(),
        )
        .unwrap_or_else(|e| panic!("elastic+{name} failed: {e}"));
        expect_matches_oracle(&format!("elastic+{name}"), &el.attn, &want);
    }
}

/// Mask-aware round skipping is bit-invisible: for every mask kind (causal
/// included), every ring-family schedule, USP, the elastic loop, and both a
/// skip-rich layout (contiguous) and a balanced one (zigzag), the skip-on
/// run is bit-identical to the skip-off run of the same cell.
#[test]
fn skip_on_is_bit_identical_to_skip_off_matrix() {
    let (n, d, g, heads, seed) = (32usize, 8usize, 4usize, 4usize, 17u64);
    let multi = Topology::a800(2, 2);
    let single = Topology::single_node(g);
    let mut masks = vec![("causal", AttnMask::Causal)];
    masks.extend(sparse_masks(n, seed));
    for (name, mask) in &masks {
        for layout in [Layout::Contiguous, Layout::Zigzag] {
            for algo in [
                Algo::RingFlat,
                Algo::BurstFlat,
                Algo::DoubleRing,
                Algo::BurstTopo,
            ] {
                let label = format!("{}+{name}+{layout:?}", algo_name(algo));
                let off = run_ring_family_opts(algo, layout, &multi, n, d, seed, mask, None, false)
                    .unwrap_or_else(|e| panic!("{label} skip-off failed: {e}"));
                let on = run_ring_family_opts(algo, layout, &multi, n, d, seed, mask, None, true)
                    .unwrap_or_else(|e| panic!("{label} skip-on failed: {e}"));
                bits_eq_attn(&label, &on, &off);
            }
            let opts_off = ElasticOpts::default();
            let opts_on = ElasticOpts {
                skip_masked_rounds: true,
                ..ElasticOpts::default()
            };
            let label = format!("elastic+{name}+{layout:?}");
            let off = run_elastic_masked_on(&single, n, d, seed, mask, layout, None, opts_off)
                .unwrap_or_else(|e| panic!("{label} skip-off failed: {e}"));
            let on = run_elastic_masked_on(&single, n, d, seed, mask, layout, None, opts_on)
                .unwrap_or_else(|e| panic!("{label} skip-on failed: {e}"));
            bits_eq_attn(&label, &on.attn, &off.attn);
        }
        let off = run_usp_opts(&single, n, d, heads, 2, seed, mask, None, false)
            .unwrap_or_else(|e| panic!("usp+{name} skip-off failed: {e}"));
        let on = run_usp_opts(&single, n, d, heads, 2, seed, mask, None, true)
            .unwrap_or_else(|e| panic!("usp+{name} skip-on failed: {e}"));
        for (h, (a, b)) in on.iter().zip(&off).enumerate() {
            bits_eq_attn(&format!("usp+{name}/head{h}"), a, b);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomised sweep over the sparse-mask cells: a random world size,
    /// mask kind and ring-family schedule must match the oracle with
    /// skipping ON, and be bit-identical to the same run with skipping OFF.
    #[test]
    fn sparse_masks_match_oracle_and_skip_is_invisible(
        g in 1usize..=4,
        chunks_per_rank in 1usize..=3,
        seed in 0u64..1_000,
        algo in prop_oneof![
            Just(Algo::RingFlat), Just(Algo::BurstFlat),
            Just(Algo::DoubleRing), Just(Algo::BurstTopo)
        ],
        kind in 0usize..3,
        layout in prop_oneof![Just(Layout::Contiguous), Just(Layout::Zigzag)],
    ) {
        let n = 2 * g * chunks_per_rank * 2;
        let d = 8usize;
        let (name, mask) = sparse_masks(n, seed).swap_remove(kind);
        let topo = Topology::single_node(g);
        let want = oracle_for(n, d, seed, &mask);
        let on = run_ring_family_opts(algo, layout, &topo, n, d, seed, &mask, None, true)
            .unwrap_or_else(|e| panic!("{}+{name} skip-on failed: {e}", algo_name(algo)));
        expect_matches_oracle(&format!("{}+{name}+skip", algo_name(algo)), &on, &want);
        let off = run_ring_family_opts(algo, layout, &topo, n, d, seed, &mask, None, false)
            .unwrap_or_else(|e| panic!("{}+{name} skip-off failed: {e}", algo_name(algo)));
        bits_eq_attn(&format!("{}+{name}", algo_name(algo)), &on, &off);
    }
}
