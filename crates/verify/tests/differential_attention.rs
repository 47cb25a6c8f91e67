//! Differential gates: every distributed attention schedule vs the serial
//! `f64` oracle, over proptest-generated shapes, world sizes (including 1
//! and non-power-of-two), layouts and fault plans.
//!
//! Two tiers of assertion (see `burst_verify` crate docs):
//! * oracle bounds (`ORACLE_*`) for any schedule vs the oracle;
//! * bit-exact (`assert_bits_eq`) for pairs sharing an accumulation order —
//!   determinism re-runs and timing-only fault runs.

use burst_comm::{FaultPlan, Topology, WireDtype};
use burst_dattn::{Algo, Layout};
use burst_kernels::{AttnMask, BlockSparseMask};
use burst_tensor::Mat;
use burst_verify::diff::{
    attn_inputs, run_ring_family, run_ring_family_opts, run_usp, run_usp_opts, GlobalAttn,
};
use burst_verify::oracle::{oracle_attention, OracleAttn};
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

/// The oracle of the problem cut at `cut` tokens, padded with zero rows
/// (and zero Lse) to `n`, as the runners reassemble a cut run.
fn oracle_cut(n: usize, d: usize, seed: u64, mask: &AttnMask, cut: usize) -> OracleAttn {
    let (q, k, v, go) = attn_inputs(n, d, seed);
    let head = |m: &Mat| m.slice_rows(0, cut);
    let o = oracle_attention(&head(&q), &head(&k), &head(&v), &head(&go), scale(d), mask);
    let pad = |m: Mat| Mat::vstack(&[m, Mat::zeros(n - cut, d)]);
    let mut lse = o.lse;
    lse.resize(n, 0.0);
    OracleAttn {
        o: pad(o.o),
        lse,
        dq: pad(o.dq),
        dk: pad(o.dk),
        dv: pad(o.dv),
    }
}

/// The ring schedules, in the order the matrices run them.
const ALGOS: [Algo; 4] = [
    Algo::RingFlat,
    Algo::BurstFlat,
    Algo::DoubleRing,
    Algo::BurstTopo,
];

/// Tile-aligned shapes: with `n = 64·G` tokens every zigzag chunk is one
/// 32-row kernel tile, so the skip plans split each shard into its two
/// spans, and a read-only hop can carry one of them. One and two ring
/// members per node.
const ALIGNED_TOPOS: [(usize, usize); 2] = [(2, 2), (2, 4)];
const ALIGNED_D: usize = 8;

/// The masks of the aligned cells, sized off the zigzag chunk.
fn aligned_masks(n: usize, chunk: usize, seed: u64) -> Vec<(&'static str, AttnMask)> {
    vec![
        ("causal", AttnMask::Causal),
        ("sliding-window", AttnMask::SlidingWindow { window: chunk }),
        (
            "dilated",
            AttnMask::Dilated {
                window: 2 * chunk,
                step: 3,
            },
        ),
        ("block-sparse", random_block_sparse(n, chunk / 2, seed)),
    ]
}

/// A window cell's witness that span gates engaged: some read-only send
/// carried one `chunk`-row span of a two-span shard (whole shards are
/// `2·chunk` rows, gradients always travel whole).
fn assert_span_send(label: &str, sends: &[u64], chunk: usize) {
    assert!(
        sends.contains(&((chunk * ALIGNED_D) as u64)),
        "{label}: no read-only send carried a single span"
    );
}

/// Every sparse mask kind through every schedule — the fixed-seed rows of
/// the mask × schedule acceptance matrix. Ring family runs multi-node (so
/// forwarding-only hops exist), head-parallel runs single-node.
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
    }
    // Tile-aligned window cells, skipping on: the span gates engage and
    // every schedule still matches the oracle, cut mid-chunk too.
    let d = ALIGNED_D;
    for (nodes, gpn) in ALIGNED_TOPOS {
        let g = nodes * gpn;
        let (n, chunk) = (64 * g, 32);
        let mask = AttnMask::SlidingWindow { window: chunk };
        for dtype in [WireDtype::F32, WireDtype::Bf16] {
            let topo = Topology::a800(nodes, gpn).with_wire_dtype(dtype);
            let check = |label: &str, got: &GlobalAttn, want: &OracleAttn| {
                if dtype == WireDtype::F32 {
                    expect_matches_oracle(label, got, want);
                } else {
                    expect_matches_oracle_bf16(label, got, want);
                }
                assert_span_send(label, &got.sends, chunk);
            };
            for cut in [n, n - chunk / 2] {
                let want = oracle_cut(n, d, seed, &mask, cut);
                let max_token = (cut < n).then_some(cut);
                for algo in ALGOS {
                    let label = format!(
                        "aligned {nodes}x{gpn} {dtype:?} {} cut {cut}",
                        algo_name(algo)
                    );
                    let got = run_ring_family_opts(
                        algo,
                        Layout::Zigzag,
                        &topo,
                        n,
                        d,
                        seed,
                        &mask,
                        None,
                        true,
                        max_token,
                    )
                    .unwrap_or_else(|e| panic!("{label} failed: {e}"));
                    check(&label, &got, &want);
                }
            }
            let usp = run_usp_opts(&topo, 64 * g / 2, d, 4, 2, seed, &mask, None, true)
                .unwrap_or_else(|e| panic!("aligned usp {nodes}x{gpn} failed: {e}"));
            for (h, got_h) in usp.iter().enumerate() {
                let want_h = oracle_for(64 * g / 2, d, seed.wrapping_mul(64) + h as u64, &mask);
                check(
                    &format!("aligned usp {nodes}x{gpn} {dtype:?}/head{h}"),
                    got_h,
                    &want_h,
                );
            }
        }
    }
}

/// Mask-aware round skipping is bit-invisible: for every mask kind (causal
/// included), every ring-family schedule and USP, and both a skip-rich
/// layout (contiguous) and a balanced one (zigzag), the skip-on
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
                let off =
                    run_ring_family_opts(algo, layout, &multi, n, d, seed, mask, None, false, None)
                        .unwrap_or_else(|e| panic!("{label} skip-off failed: {e}"));
                let on =
                    run_ring_family_opts(algo, layout, &multi, n, d, seed, mask, None, true, None)
                        .unwrap_or_else(|e| panic!("{label} skip-on failed: {e}"));
                bits_eq_attn(&label, &on, &off);
            }
        }
        let off = run_usp_opts(&single, n, d, heads, 2, seed, mask, None, false)
            .unwrap_or_else(|e| panic!("usp+{name} skip-off failed: {e}"));
        let on = run_usp_opts(&single, n, d, heads, 2, seed, mask, None, true)
            .unwrap_or_else(|e| panic!("usp+{name} skip-on failed: {e}"));
        for (h, (a, b)) in on.iter().zip(&off).enumerate() {
            bits_eq_attn(&format!("usp+{name}/head{h}"), a, b);
        }
    }
    // Tile-aligned zigzag cells: the plans split shards into spans, on both
    // wire dtypes and with the pass cut mid-chunk inside rank 0's second
    // span. Window cells must show a single-span send.
    let d = ALIGNED_D;
    for (nodes, gpn) in ALIGNED_TOPOS {
        let g = nodes * gpn;
        let (n, chunk) = (64 * g, 32);
        for dtype in [WireDtype::F32, WireDtype::Bf16] {
            let topo = Topology::a800(nodes, gpn).with_wire_dtype(dtype);
            for (name, mask) in aligned_masks(n, chunk, seed) {
                let window = name == "sliding-window";
                for max_token in [None, Some(n - chunk / 2)] {
                    for algo in ALGOS {
                        let label = format!(
                            "aligned {nodes}x{gpn} {dtype:?} {}+{name} cut {max_token:?}",
                            algo_name(algo)
                        );
                        let run = |skip| {
                            run_ring_family_opts(
                                algo,
                                Layout::Zigzag,
                                &topo,
                                n,
                                d,
                                seed,
                                &mask,
                                None,
                                skip,
                                max_token,
                            )
                            .unwrap_or_else(|e| panic!("{label} skip={skip} failed: {e}"))
                        };
                        let on = run(true);
                        bits_eq_attn(&label, &on, &run(false));
                        if window {
                            assert_span_send(&label, &on.sends, chunk);
                        }
                    }
                }
                // USP's two-level ring leg (U = 2) over a ring of G / 2.
                let label = format!("aligned usp {nodes}x{gpn} {dtype:?}+{name}");
                let run = |skip| {
                    run_usp_opts(&topo, n / 2, d, heads, 2, seed, &mask, None, skip)
                        .unwrap_or_else(|e| panic!("{label} skip={skip} failed: {e}"))
                };
                let on = run(true);
                for (h, (a, b)) in on.iter().zip(&run(false)).enumerate() {
                    bits_eq_attn(&format!("{label}/head{h}"), a, b);
                }
                if window {
                    assert_span_send(&label, &on[0].sends, chunk);
                }
            }
        }
    }
    // An unaligned cell pins the fallback: 24-token chunks end mid-tile, so
    // no plan splits a shard and every send carries a whole 48-row shard —
    // its matrices or its two statistics vectors.
    let (n, rows) = (192, 48);
    let mask = AttnMask::SlidingWindow { window: 24 };
    for algo in ALGOS {
        let label = format!("unaligned {}", algo_name(algo));
        let on = run_ring_family_opts(
            algo,
            Layout::Zigzag,
            &multi,
            n,
            d,
            seed,
            &mask,
            None,
            true,
            None,
        )
        .unwrap_or_else(|e| panic!("{label} failed: {e}"));
        let whole = [(rows * d) as u64, rows as u64];
        assert!(
            on.sends.iter().all(|e| whole.contains(e)),
            "{label}: a send carried part of a shard: {:?}",
            on.sends
        );
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
        let on = run_ring_family_opts(algo, layout, &topo, n, d, seed, &mask, None, true, None)
            .unwrap_or_else(|e| panic!("{}+{name} skip-on failed: {e}", algo_name(algo)));
        expect_matches_oracle(&format!("{}+{name}+skip", algo_name(algo)), &on, &want);
        let off = run_ring_family_opts(algo, layout, &topo, n, d, seed, &mask, None, false, None)
            .unwrap_or_else(|e| panic!("{}+{name} skip-off failed: {e}", algo_name(algo)));
        bits_eq_attn(&format!("{}+{name}", algo_name(algo)), &on, &off);
    }
}
