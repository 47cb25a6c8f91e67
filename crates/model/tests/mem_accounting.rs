//! Ledger accounting at the model/engine layer: device-resident state
//! entries, FSDP collective buffers and the checkpoint stash — including
//! the gate that a bf16 activation stash is exactly half the f32 one.

use burst_comm::obs::{validate_mem, MemReport};
use burst_comm::{Topology, WireDtype, World};
use burst_dattn::{Algo, Layout};
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

/// Fig. 7 on the ledger of a 4-rank BurstAttention step: the checkpoint
/// stash orders full checkpointing < sequence-selective (ρ = 0.5) <
/// selective++ < none, and at ρ = 0.5 the sequence-level scheme keeps about
/// half of the attention outputs selective++ adds to the block inputs.
#[test]
fn stash_ordering_matches_figure_7() {
    let stash = |strategy: Strategy| {
        let mut cfg = EngineConfig::tiny(Backend::Ring(Algo::BurstFlat));
        cfg.strategy = strategy;
        let reports = run_accounted(&cfg, Topology::a800(1, 4), 1);
        reports.iter().map(|r| r.peak.ckpt_stash).max().unwrap()
    };
    let full = stash(Strategy::Full);
    let seq = stash(Strategy::SeqSelective { rho: 0.5 });
    let pp = stash(Strategy::SelectivePlusPlus);
    let none = stash(Strategy::None);
    assert!(full < seq, "full ckpt {full} < seq-selective {seq}");
    assert!(seq < pp, "seq-selective {seq} < selective++ {pp}");
    assert!(pp < none, "selective++ {pp} < no ckpt {none}");
    let ratio = (seq - full) as f64 / (pp - full) as f64;
    assert!(
        (0.4..0.6).contains(&ratio),
        "tail storage should be ~half of ++: {ratio}"
    );
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
/// mask-aware cutoff, and all blocks' stashes are live at once when the
/// forward finishes. Matrix stashes follow the activation width; `Lse`
/// stays f32.
fn expected_seq_stash(cfg: &EngineConfig, g: usize, rank: usize, rho: f32) -> u64 {
    let m = &cfg.model;
    let width = if cfg.bf16_activations { 2 } else { 4 };
    let cutoff = cutoff_for_masked(rho, m.seq_len, &cfg.mask);
    let idx = cfg.layout.indices(m.seq_len, g, rank);
    let rows = idx.len();
    let tail = idx.iter().filter(|&&i| i >= cutoff).count();
    let per_layer = rows * m.d_model * width   // block input
        + tail * m.d_model * width             // per-head O tail, Σ dh = d
        + m.heads * tail * 4; // Lse tail, always f32
    (m.layers * per_layer) as u64
}

#[test]
fn masked_seq_selective_stash_is_exact_and_smaller() {
    // Satellite: under a window mask the mask-aware cutoff moves right
    // (cheap rows are recomputed, not stashed), so sequence-selective
    // checkpointing stashes strictly fewer bytes than both the causal
    // cutoff at the same ρ and the full attention-output cache — and the
    // measured stash equals the analytic expectation to the byte, at both
    // activation widths.
    let g = 2usize;
    let rho = 0.5f32;
    let run = |mask: AttnMask, strategy: Strategy, bf16: bool| -> (EngineConfig, Vec<MemReport>) {
        let mut cfg = EngineConfig::tiny(Backend::Ring(Algo::BurstFlat));
        cfg.layout = Layout::Zigzag;
        cfg.mask = mask;
        cfg.strategy = strategy;
        cfg.bf16_activations = bf16;
        let reports = run_accounted(&cfg, Topology::a800(1, g), 1);
        (cfg, reports)
    };
    let window = AttnMask::SlidingWindow { window: 8 };
    for bf16 in [false, true] {
        let (cfg, masked) = run(window.clone(), Strategy::SeqSelective { rho }, bf16);
        for (rank, r) in masked.iter().enumerate() {
            validate_mem(r).unwrap();
            assert_eq!(
                r.peak.ckpt_stash,
                expected_seq_stash(&cfg, g, rank, rho),
                "rank {rank} bf16={bf16}: stash must match the census exactly"
            );
        }
        let (_, causal) = run(AttnMask::Causal, Strategy::SeqSelective { rho }, bf16);
        let (_, pp) = run(window.clone(), Strategy::SelectivePlusPlus, bf16);
        let sum = |rs: &[MemReport]| rs.iter().map(|r| r.peak.ckpt_stash).sum::<u64>();
        assert!(
            sum(&masked) < sum(&causal),
            "bf16={bf16}: window stash {} < causal-cutoff stash {}",
            sum(&masked),
            sum(&causal)
        );
        assert!(
            sum(&masked) < sum(&pp),
            "bf16={bf16}: window stash {} < full-cache stash {}",
            sum(&masked),
            sum(&pp)
        );
    }
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
