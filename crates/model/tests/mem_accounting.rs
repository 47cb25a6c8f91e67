//! Ledger accounting at the model/engine layer: device-resident state
//! entries, FSDP collective buffers and the checkpoint stash — including
//! the gate that a bf16 activation stash is exactly half the f32 one.

use burst_comm::obs::{validate_mem, MemReport};
use burst_comm::{SpanKind, Topology, WireDtype, World};
use burst_dattn::{Algo, CostModel, Layout};
use burst_kernels::flash::DEFAULT_BLOCK;
use burst_kernels::AttnMask;
use burst_model::engine::{run_rank, Backend, EngineConfig};
use burst_model::{cutoff_for_masked, Strategy};

/// Run `steps` training steps on every rank with accounting on and return
/// the finished per-rank ledgers.
fn run_accounted(cfg: &EngineConfig, topo: Topology, steps: usize) -> Vec<MemReport> {
    let world = World::new(topo);
    world
        .run(|comm| {
            comm.start_mem_accounting();
            let _ = run_rank(comm, cfg, steps);
            comm.take_mem_report().expect("accounting was on")
        })
        .into_iter()
        .map(|o| o.result)
        .collect()
}

fn stash_peak(bf16: bool) -> u64 {
    let mut cfg = EngineConfig::tiny(Backend::Ring(Algo::BurstFlat));
    // Strategy::Full stores only block-input matrices, so the stash is a
    // pure f32-vs-bf16 width comparison (no always-f32 Lse vectors mixed
    // in, unlike SelectivePlusPlus).
    cfg.strategy = Strategy::Full;
    cfg.bf16_activations = bf16;
    let reports = run_accounted(&cfg, Topology::a800(1, 2), 1);
    for r in &reports {
        validate_mem(r).unwrap();
        assert!(r.warnings.is_empty(), "clean run: {:?}", r.warnings);
        assert_eq!(r.live_at_close, 0, "clean run frees everything");
    }
    reports.iter().map(|r| r.peak.ckpt_stash).max().unwrap()
}

#[test]
fn bf16_activation_stash_is_exactly_half_of_f32() {
    let f32_peak = stash_peak(false);
    let bf16_peak = stash_peak(true);
    assert!(bf16_peak > 0, "stash must be billed at all");
    assert_eq!(f32_peak, 2 * bf16_peak, "2-byte stash vs 4-byte stash");
}

/// Bytes of the forward's first checkpoint-stash entries on rank 0 — the
/// block input (with `Lse`) and its cached `O` — that make up block 0.
fn block0_stash(r: &MemReport, entries: usize) -> u64 {
    r.entries
        .iter()
        .filter(|e| e.name.starts_with("ckpt_stash"))
        .take(entries)
        .map(|e| e.bytes)
        .sum()
}

/// Fig. 7 on the ledger of a 4-rank BurstAttention step over 256 tokens:
/// the checkpoint stash orders full checkpointing < sequence-selective
/// (ρ = 0.5) < selective++ < none. Every zigzag rank's tail past the causal
/// midpoint holds half its rows, so the non-final block keeps exactly half
/// of the attention outputs selective++ adds to its input. The last block
/// keeps all of them at an f32 stash, where its 32-token front fills whole
/// kernel tiles and a recompute would rebuild the forward's bits, and half
/// at a bf16 stash, where it recomputes. With two blocks, sequence-selective
/// keeps exactly 3/4 of selective++'s extra at f32 and 1/2 at bf16.
#[test]
fn stash_ordering_matches_figure_7() {
    for (bf16, num, den) in [(false, 3, 4), (true, 1, 2)] {
        let stash = |strategy: Strategy| {
            let mut cfg = EngineConfig::tiny(Backend::Ring(Algo::BurstFlat));
            cfg.model.seq_len = 256;
            cfg.strategy = strategy;
            cfg.bf16_activations = bf16;
            let reports = run_accounted(&cfg, Topology::a800(1, 4), 1);
            let peak = reports.iter().map(|r| r.peak.ckpt_stash).max().unwrap();
            (peak, reports)
        };
        let (full, full_r) = stash(Strategy::Full);
        let (seq, seq_r) = stash(Strategy::SeqSelective { rho: 0.5 });
        let (pp, pp_r) = stash(Strategy::SelectivePlusPlus);
        let (none, _) = stash(Strategy::None);
        let ctx = format!("bf16 stash {bf16}");
        assert!(full < seq, "{ctx}: full ckpt {full} < seq-selective {seq}");
        assert!(seq < pp, "{ctx}: seq-selective {seq} < selective++ {pp}");
        assert!(pp < none, "{ctx}: selective++ {pp} < no ckpt {none}");
        assert_eq!(
            (seq - full) * den,
            (pp - full) * num,
            "{ctx}: seq-selective keeps {num}/{den} of selective++'s extra"
        );
        let b0 = |r: &[MemReport], entries| block0_stash(&r[0], entries);
        assert_eq!(
            (b0(&seq_r, 2) - b0(&full_r, 1)) * 2,
            b0(&pp_r, 2) - b0(&full_r, 1),
            "{ctx}: the non-final block keeps half of selective++'s extra"
        );
    }
}

#[test]
fn device_state_entries_match_the_fsdp_decomposition() {
    let mut cfg = EngineConfig::tiny(Backend::Ring(Algo::RingFlat));
    let p = cfg.model.param_count() as u64;
    // FSDP on (tiny() default), no offload: P·4/G weights, P·4/G grads,
    // 2·(P·4/G) Adam moments.
    let g = 2u64;
    let bytes = p * 4 / g;
    for r in &run_accounted(&cfg, Topology::a800(1, g as usize), 1) {
        assert_eq!(r.peak.params, bytes);
        assert_eq!(r.peak.grads, bytes);
        assert_eq!(r.peak.optim_state, 2 * bytes);
    }
    // ZeRO-Offload: the Adam moments leave the device ledger entirely.
    cfg.offload_optimizer = true;
    for r in &run_accounted(&cfg, Topology::a800(1, g as usize), 1) {
        assert_eq!(r.peak.params, bytes);
        assert_eq!(r.peak.optim_state, 0, "offloaded moments are host-side");
    }
    // No FSDP: fully replicated state, still summed by the gradient sync.
    cfg.offload_optimizer = false;
    cfg.fsdp = false;
    for r in &run_accounted(&cfg, Topology::a800(1, g as usize), 1) {
        assert_eq!(r.peak.params, p * 4);
        assert_eq!(r.peak.grads, p * 4);
        assert_eq!(r.peak.optim_state, p * 8);
    }
}

#[test]
fn fsdp_buffers_stash_and_workspace_land_on_their_lanes() {
    let mut cfg = EngineConfig::tiny(Backend::Ring(Algo::BurstFlat));
    cfg.strategy = Strategy::SelectivePlusPlus;
    let reports = run_accounted(&cfg, Topology::a800(1, 4), 2);
    for r in &reports {
        validate_mem(r).unwrap();
        assert!(r.warnings.is_empty(), "clean run: {:?}", r.warnings);
        assert!(r.peak.comm_buffers > 0, "FSDP + ring buffers were billed");
        assert!(r.peak.ckpt_stash > 0, "selective++ stash was billed");
        assert!(r.peak.workspace > 0, "recompute transients were noted");
        assert!(
            r.entries.iter().any(|e| e.name == "fsdp_gather_buf"),
            "weight gather buffers appear by name"
        );
        assert!(
            r.entries.iter().any(|e| e.name == "fsdp_sync_buf"),
            "gradient sync buffers appear by name"
        );
    }
}

#[test]
fn ulysses_and_usp_forwards_close_their_stash_entries() {
    // The head-parallel context (`usp_saved`) is the one ledger entry that
    // spans two executor calls: a forward inside a recompute scope keeps
    // it for the backward that follows, any other forward releases it, and
    // a backward without one rebuilds it. Every strategy takes a different
    // one of those paths, so each must close every entry, on both wire
    // dtypes and with micro-batches accumulated.
    let strategies = [
        Strategy::None,
        Strategy::Full,
        Strategy::SelectivePlusPlus,
        Strategy::SeqSelective { rho: 0.5 },
    ];
    for (backend, topo) in [
        (Backend::Ulysses, Topology::a800(1, 2)),
        (Backend::Usp { ulysses_size: 2 }, Topology::a800(2, 2)),
    ] {
        for dtype in [WireDtype::F32, WireDtype::Bf16] {
            let topo = topo.clone().with_wire_dtype(dtype);
            let runs = strategies
                .iter()
                .map(|&strategy| (strategy, 1))
                .chain([(Strategy::Full, 2)]);
            for (strategy, grad_accum) in runs {
                let mut cfg = EngineConfig::tiny(backend);
                cfg.strategy = strategy;
                cfg.grad_accum = grad_accum;
                let ctx = format!("{backend:?} {dtype:?} {strategy:?} accum {grad_accum}");
                for r in &run_accounted(&cfg, topo.clone(), 2) {
                    validate_mem(r).unwrap();
                    assert!(r.warnings.is_empty(), "{ctx}: {:?}", r.warnings);
                    assert_eq!(r.live_at_close, 0, "{ctx}: rank {} leaked", r.rank);
                }
            }
        }
    }
}

/// Per-rank expected checkpoint stash of `SeqSelective { rho }`: every
/// block keeps its input plus the tail `(O, Lse)` cache past the
/// mask-aware cutoff, except the last block at an f32 stash whose front
/// fills whole kernel tiles, which keeps all its rows' `(O, Lse)`; all
/// blocks' stashes are live at once when the forward finishes. Matrix
/// stashes follow the activation width; `Lse` stays f32.
fn expected_seq_stash(cfg: &EngineConfig, g: usize, rank: usize, rho: f32) -> u64 {
    let m = &cfg.model;
    let width = if cfg.bf16_activations { 2 } else { 4 };
    let cutoff = cutoff_for_masked(rho, m.seq_len, &cfg.mask);
    let idx = cfg.layout.indices(m.seq_len, g, rank);
    let rows = idx.len();
    let tail = idx.iter().filter(|&&i| i >= cutoff).count();
    let keeps_all =
        !cfg.bf16_activations && cfg.layout.cut_on_tiles(m.seq_len, g, cutoff, DEFAULT_BLOCK);
    let per_layer = |cached: usize| {
        rows * m.d_model * width       // block input
            + cached * m.d_model * width // per-head O, Σ dh = d
            + m.heads * cached * 4 // Lse, always f32
    };
    let last = if keeps_all { rows } else { tail };
    ((m.layers - 1) * per_layer(tail) + per_layer(last)) as u64
}

#[test]
fn masked_seq_selective_stash_is_exact_and_smaller() {
    // Satellite: under a window mask the mask-aware cutoff moves right
    // (cheap rows are recomputed, not stashed), so sequence-selective
    // checkpointing stashes strictly fewer bytes than both the causal
    // cutoff at the same ρ and the full attention-output cache — and the
    // measured stash equals the analytic expectation to the byte, at both
    // activation widths. At 32 tokens every block caches its tail; at 256
    // tokens the window's cutoff (160) leaves whole tiles on both ranks, so
    // at f32 the last block caches every row.
    let g = 2usize;
    let rho = 0.5f32;
    for (seq_len, window) in [(32, 8), (256, 64)] {
        let run = |mask: AttnMask, strategy: Strategy, bf16: bool| {
            let mut cfg = EngineConfig::tiny(Backend::Ring(Algo::BurstFlat));
            cfg.model.seq_len = seq_len;
            cfg.layout = Layout::Zigzag;
            cfg.mask = mask;
            cfg.strategy = strategy;
            cfg.bf16_activations = bf16;
            let reports = run_accounted(&cfg, Topology::a800(1, g), 1);
            (cfg, reports)
        };
        let window = AttnMask::SlidingWindow { window };
        for bf16 in [false, true] {
            let ctx = format!("{seq_len} tokens, bf16={bf16}");
            let (cfg, masked) = run(window.clone(), Strategy::SeqSelective { rho }, bf16);
            for (rank, r) in masked.iter().enumerate() {
                validate_mem(r).unwrap();
                assert_eq!(
                    r.peak.ckpt_stash,
                    expected_seq_stash(&cfg, g, rank, rho),
                    "{ctx} rank {rank}: stash must match the census exactly"
                );
            }
            let (_, causal) = run(AttnMask::Causal, Strategy::SeqSelective { rho }, bf16);
            let (_, pp) = run(window.clone(), Strategy::SelectivePlusPlus, bf16);
            let sum = |rs: &[MemReport]| rs.iter().map(|r| r.peak.ckpt_stash).sum::<u64>();
            assert!(
                sum(&masked) < sum(&causal),
                "{ctx}: window stash {} < causal-cutoff stash {}",
                sum(&masked),
                sum(&causal)
            );
            assert!(
                sum(&masked) < sum(&pp),
                "{ctx}: window stash {} < full-cache stash {}",
                sum(&masked),
                sum(&pp)
            );
        }
    }
}

/// Whether a ledger entry is an attention backward's buffer: a ring
/// backward's accumulators and bundles, or the head-parallel ring-shard
/// gradients that follow USP's and Ulysses' exchange of `(O, Lse)` and `∇O`.
fn backward_bundle(name: &str) -> bool {
    name.starts_with("dr_bwd") || name.starts_with("ring_bwd") || name == "usp_grads"
}

#[test]
fn cached_outputs_close_before_the_first_backward_bundle() {
    // A block's cached `O` is read only to form `D` (or, head-parallel, to
    // send it to the head shards), so its stash entry closes before the
    // block's first backward buffer opens: no ledger instant holds both.
    // Checked per traced `layer_bwd`, for every backend, both stash widths
    // and both caching strategies.
    let mut total = 0;
    for (backend, topo) in [
        (Backend::Ring(Algo::RingFlat), Topology::a800(1, 4)),
        (Backend::Ring(Algo::BurstFlat), Topology::a800(1, 4)),
        (Backend::Ring(Algo::DoubleRing), Topology::a800(2, 2)),
        (Backend::Ring(Algo::BurstTopo), Topology::a800(2, 2)),
        (Backend::Usp { ulysses_size: 2 }, Topology::a800(2, 2)),
        (Backend::Ulysses, Topology::a800(1, 2)),
    ] {
        for bf16 in [false, true] {
            for strategy in [
                Strategy::SeqSelective { rho: 0.5 },
                Strategy::SelectivePlusPlus,
            ] {
                let mut cfg = EngineConfig::tiny(backend);
                cfg.model.seq_len = 256;
                cfg.cost = CostModel::a800();
                cfg.strategy = strategy;
                cfg.bf16_activations = bf16;
                let ctx = format!("{backend:?} bf16={bf16} {strategy:?}");
                let outs = World::new(topo.clone()).run(|comm| {
                    comm.start_trace();
                    comm.start_mem_accounting();
                    let _ = run_rank(comm, &cfg, 2);
                    comm.take_mem_report().expect("accounting was on")
                });
                for o in &outs {
                    let (r, t) = (&o.result, o.trace.as_ref().expect("tracing was on"));
                    validate_mem(r).unwrap();
                    assert!(r.warnings.is_empty(), "{ctx}: {:?}", r.warnings);
                    assert_eq!(r.live_at_close, 0, "{ctx}: rank {} leaked", r.rank);
                    let layers = t
                        .spans
                        .iter()
                        .filter(|s| s.kind == SpanKind::Layer && s.name == "layer_bwd");
                    let mut checked = 0;
                    for span in layers {
                        // Half-open: the next block's backward starts at
                        // this one's end.
                        let within = |at: f64| span.start <= at && at < span.end;
                        let cached = r
                            .entries
                            .iter()
                            .find(|e| e.name == "ckpt_stash_o" && within(e.close.expect("closed")));
                        let first = r
                            .entries
                            .iter()
                            .filter(|e| backward_bundle(&e.name) && within(e.open))
                            .map(|e| e.open)
                            .reduce(f64::min);
                        let (Some(cached), Some(first)) = (cached, first) else {
                            continue;
                        };
                        let closed = cached.close.expect("closed");
                        assert!(
                            closed <= first,
                            "{ctx} rank {}: cached O closes at {closed} after the first \
                             backward bundle opens at {first}",
                            r.rank
                        );
                        checked += 1;
                    }
                    // Every cached `O` belongs to one block's backward (a
                    // rank whose rows all fall before the cut caches none).
                    let cached = r.entries.iter().filter(|e| e.name == "ckpt_stash_o");
                    assert_eq!(checked, cached.count(), "{ctx} rank {}", r.rank);
                    total += checked;
                }
            }
        }
    }
    assert!(total > 0, "some block cached its outputs");
}

#[test]
fn engine_accounting_is_a_pure_observer() {
    let cfg = EngineConfig::tiny(Backend::Ring(Algo::BurstFlat));
    let base = World::new(Topology::a800(1, 2)).run(|comm| run_rank(comm, &cfg, 2));
    let acct = World::new(Topology::a800(1, 2)).run(|comm| {
        comm.start_mem_accounting();
        let out = run_rank(comm, &cfg, 2);
        let report = comm.take_mem_report().expect("accounting was on");
        (out, report)
    });
    for (a, b) in base.iter().zip(&acct) {
        let (losses_a, _) = &a.result;
        let ((losses_b, _), report) = &b.result;
        assert!(report.allocated_bytes > 0, "the ledger actually recorded");
        assert_eq!(losses_a.len(), losses_b.len());
        for (x, y) in losses_a.iter().zip(losses_b) {
            assert_eq!(x.to_bits(), y.to_bits(), "losses must be bit-identical");
        }
        assert_eq!(
            a.time.to_bits(),
            b.time.to_bits(),
            "accounting must never touch the virtual clock"
        );
    }
}
