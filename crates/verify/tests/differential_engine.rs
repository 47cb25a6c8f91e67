//! Engine-level differential gates: full distributed train steps (every
//! backend) vs the serial oracle train-step, checkpoint/resume bit-exactness
//! across proptest-chosen cut points, and fault+skip lockstep recovery
//! compared against an oracle told to skip the same steps.

use burst_comm::{FaultPlan, Topology};
use burst_dattn::Algo;
use burst_model::engine::{Backend, EngineConfig};
use burst_verify::diff::{
    elastic_ops_after, engine_elastic, engine_resume, engine_run, engine_span,
};
use burst_verify::oracle::oracle_train;
use burst_verify::{
    assert_bits_eq, compare_slice, BF16_RTOL, ORACLE_TRAIN_ATOL, ORACLE_TRAIN_RTOL,
};
use proptest::prelude::*;

fn cfg_for(backend: Backend, grad_accum: usize, seed: u64) -> EngineConfig {
    let mut cfg = EngineConfig::tiny(backend);
    cfg.grad_accum = grad_accum;
    cfg.seed = seed;
    cfg
}

/// World size each backend supports with `ModelConfig::tiny()` (2 heads,
/// seq 32): Ulysses caps at the head count, USP's Ulysses factor likewise.
fn world_for(backend: Backend) -> usize {
    match backend {
        Backend::Local => 1,
        Backend::Ring(_) => 4,
        Backend::Ulysses => 2,
        Backend::Usp { .. } => 4,
    }
}

fn backend_name(b: Backend) -> String {
    match b {
        Backend::Local => "local".into(),
        Backend::Ring(a) => format!("ring/{a:?}"),
        Backend::Ulysses => "ulysses".into(),
        Backend::Usp { ulysses_size } => format!("usp/u{ulysses_size}"),
    }
}

fn any_backend() -> impl Strategy<Value = Backend> {
    prop_oneof![
        Just(Backend::Local),
        Just(Backend::Ring(Algo::RingFlat)),
        Just(Backend::Ring(Algo::BurstFlat)),
        Just(Backend::Ring(Algo::DoubleRing)),
        Just(Backend::Ring(Algo::BurstTopo)),
        Just(Backend::Ulysses),
        Just(Backend::Usp { ulysses_size: 2 }),
    ]
}

fn expect_train_matches(
    label: &str,
    losses: &[f32],
    flat: &[f32],
    want: &burst_verify::oracle::OracleTrain,
    rtol: f32,
) {
    if let Err(d) = compare_slice("losses", losses, &want.losses, ORACLE_TRAIN_ATOL, rtol) {
        panic!("{label}: {d}");
    }
    if let Err(d) = compare_slice("flat_state", flat, &want.flat, ORACLE_TRAIN_ATOL, rtol) {
        panic!("{label}: {d}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every backend's full train loop — embeddings, RoPE, norms, FFN,
    /// fused LM head, FSDP sync, Adam — lands within the documented bounds
    /// of the serial oracle's train-step, for f32 and bf16-emulated runs.
    #[test]
    fn engine_matches_oracle_train(
        backend in any_backend(),
        grad_accum in 1usize..=2,
        steps in 2usize..=3,
        seed in 0u64..500,
        bf16 in prop_oneof![Just(false), Just(true)],
    ) {
        let mut cfg = cfg_for(backend, grad_accum, seed);
        cfg.emulate_bf16 = bf16;
        let topo = Topology::single_node(world_for(backend));
        let run = engine_run(&cfg, &topo, steps, None).expect("train failed");
        let want = oracle_train(&cfg, steps, &[]);
        let rtol = if bf16 { BF16_RTOL } else { ORACLE_TRAIN_RTOL };
        expect_train_matches(&backend_name(backend), &run.losses, &run.flat, &want, rtol);
        prop_assert_eq!(run.skipped, 0);
    }

    /// Cut a run at a random step, resume from the flattened state on a
    /// fresh cluster: losses and final state must be **bit-identical** to
    /// the uninterrupted run — the checkpoint/resume invariant.
    #[test]
    fn resume_is_bit_exact(
        backend in any_backend(),
        steps in 2usize..=4,
        cut_frac in 0usize..=100,
        seed in 0u64..500,
    ) {
        let cfg = cfg_for(backend, 1, seed);
        let topo = Topology::single_node(world_for(backend));
        let cut = cut_frac * steps / 101;      // 0..steps-ish, incl. 0
        let whole = engine_run(&cfg, &topo, steps, None).expect("train failed");
        let resumed = engine_resume(&cfg, &topo, cut, steps, None).expect("resume failed");
        prop_assert_eq!(&whole.losses, &resumed.losses);
        assert_bits_eq(
            &format!("{}/resume@{cut}", backend_name(backend)),
            &resumed.flat,
            &whole.flat,
        );
    }

    /// Poison one rank's gradient at a random step: the engine must skip
    /// that optimizer step in lockstep on every rank, and the run must
    /// match an oracle told to skip the same step. Resuming after the
    /// poisoned step stays bit-exact with the uninterrupted faulty run.
    #[test]
    fn poisoned_step_skips_in_lockstep_and_resumes(
        backend in any_backend(),
        seed in 0u64..500,
        bad_step in 0usize..=2,
        bad_rank_pick in 0usize..4,
    ) {
        let steps = 3usize;
        let cfg = cfg_for(backend, 1, seed);
        let g = world_for(backend);
        let topo = Topology::single_node(g);
        let plan = FaultPlan::new(seed)
            .poison_grad(bad_rank_pick % g, bad_step as u64, f32::NAN);

        let run = engine_run(&cfg, &topo, steps, Some(&plan)).expect("faulty train failed");
        prop_assert_eq!(run.skipped, 1, "poisoned step was not skipped");

        let want = oracle_train(&cfg, steps, &[bad_step]);
        expect_train_matches(
            &format!("{}+poison@{bad_step}", backend_name(backend)),
            &run.losses, &run.flat, &want, ORACLE_TRAIN_RTOL,
        );

        // Fault + resume: cut right after the poisoned step; phase 1
        // replays the poison, phase 2 runs clean. Must equal the
        // uninterrupted faulty run bit for bit.
        let cut = bad_step + 1;
        let resumed = engine_resume(&cfg, &topo, cut, steps, Some(&plan))
            .expect("faulty resume failed");
        prop_assert_eq!(resumed.skipped, 1);
        prop_assert_eq!(&resumed.losses, &run.losses);
        assert_bits_eq(
            &format!("{}/faulty-resume", backend_name(backend)),
            &resumed.flat,
            &run.flat,
        );
    }

    /// Link delays and compute slowdowns shift the virtual clock only:
    /// training results are bit-identical to the clean run on every
    /// backend.
    #[test]
    fn timing_faults_do_not_change_training(
        backend in any_backend(),
        seed in 0u64..500,
        fault_seed in 0u64..100,
    ) {
        let steps = 2usize;
        let cfg = cfg_for(backend, 1, seed);
        let g = world_for(backend);
        let topo = Topology::single_node(g);
        let plan = FaultPlan::new(fault_seed)
            .delay_link(0, g - 1, 2e-3, 1e-3)
            .slow_compute(fault_seed as usize % g, 3.0);
        let clean = engine_run(&cfg, &topo, steps, None).expect("clean train failed");
        let slow = engine_run(&cfg, &topo, steps, Some(&plan)).expect("delayed train failed");
        prop_assert_eq!(&clean.losses, &slow.losses);
        assert_bits_eq(
            &format!("{}+delay", backend_name(backend)),
            &slow.flat,
            &clean.flat,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Crash one rank mid-step: the elastic engine evicts it, replays only
    /// that step in place on the shrunken ring, and the whole run must be
    /// **bit-identical** to a fresh 4-rank world chained into a fresh
    /// 3-rank world at the crash step — the shrink-and-continue invariant.
    #[test]
    fn elastic_shrink_continue_is_bit_exact(
        victim in 1usize..4,
        seed in 0u64..500,
        f in 1usize..3,
    ) {
        let steps = 3usize;
        let mut cfg = cfg_for(Backend::Ring(Algo::BurstFlat), 1, seed);
        cfg.model.seq_len = 48;            // zigzag needs n % 2g == 0 for g in {3, 4}
        let topo = Topology::single_node(4);

        // Aim the crash inside step `f` by probing the op counter of a
        // clean elastic run at the step boundaries.
        let before = elastic_ops_after(&cfg, &topo, victim, f);
        let after = elastic_ops_after(&cfg, &topo, victim, f + 1);
        let plan = FaultPlan::new(seed)
            .crash_at_op(victim, (before + after) / 2)
            .recv_deadline(60.0);

        let run = engine_elastic(&cfg, &topo, steps, Some(&plan), None, 0)
            .expect("elastic train failed");
        prop_assert_eq!(run.evicted.clone(), vec![victim]);
        prop_assert_eq!(run.steps_replayed, 1, "only the failed step may replay");
        prop_assert_eq!(run.skipped, 0);

        let phase1 = engine_span(&cfg, &topo, 0, f, None, None).expect("full-world span failed");
        let phase2 = engine_span(
            &cfg,
            &Topology::single_node(3),
            f,
            steps,
            Some(&phase1.flat),
            None,
        )
        .expect("shrunken span failed");
        let want: Vec<f32> = phase1.losses.iter().chain(&phase2.losses).copied().collect();
        prop_assert_eq!(&run.losses, &want);
        assert_bits_eq("elastic-shrink-continue", &run.flat, &phase2.flat);
    }
}

/// `world_for` puts every ring backend on `single_node(4)`, where the
/// two-level ring has one node and no inter-node hop runs. On `a800(2, 2)`
/// the topology-aware backends cross nodes: DoubleRing's Algorithm 1, and
/// BurstTopo's multi-head Algorithm 2, which posts the next head's start
/// bundle across the NIC during the last sweep of the head before it.
#[test]
fn two_node_ring_backends_match_oracle_train() {
    let steps = 3;
    for algo in [Algo::DoubleRing, Algo::BurstTopo] {
        let backend = Backend::Ring(algo);
        for bf16 in [false, true] {
            for grad_accum in [1, 2] {
                let mut cfg = cfg_for(backend, grad_accum, 11);
                cfg.emulate_bf16 = bf16;
                let run =
                    engine_run(&cfg, &Topology::a800(2, 2), steps, None).expect("train failed");
                assert_eq!(run.skipped, 0);
                let want = oracle_train(&cfg, steps, &[]);
                let rtol = if bf16 { BF16_RTOL } else { ORACLE_TRAIN_RTOL };
                let label = format!(
                    "{} on 2x2, bf16={bf16}, grad_accum={grad_accum}",
                    backend_name(backend)
                );
                expect_train_matches(&label, &run.losses, &run.flat, &want, rtol);
            }
        }
    }
}

/// The fixed-seed acceptance row: one fault+resume case per backend —
/// poison step 1, skip in lockstep, resume at the cut, match the skipping
/// oracle. This is the deliberate (non-randomised) instance of the
/// acceptance criterion "≥ 1 fault + resume case per schedule".
#[test]
fn fixed_fault_resume_matrix_all_backends() {
    let backends = [
        Backend::Local,
        Backend::Ring(Algo::RingFlat),
        Backend::Ring(Algo::BurstFlat),
        Backend::Ring(Algo::DoubleRing),
        Backend::Ring(Algo::BurstTopo),
        Backend::Ulysses,
        Backend::Usp { ulysses_size: 2 },
    ];
    let steps = 3usize;
    for backend in backends {
        let cfg = cfg_for(backend, 1, 42);
        let g = world_for(backend);
        let topo = Topology::single_node(g);
        let plan = FaultPlan::new(17).poison_grad(g - 1, 1, f32::INFINITY);

        let run = engine_run(&cfg, &topo, steps, Some(&plan)).expect("faulty train failed");
        assert_eq!(
            run.skipped,
            1,
            "{}: poisoned step not skipped",
            backend_name(backend)
        );

        let want = oracle_train(&cfg, steps, &[1]);
        expect_train_matches(
            &backend_name(backend),
            &run.losses,
            &run.flat,
            &want,
            ORACLE_TRAIN_RTOL,
        );

        let resumed = engine_resume(&cfg, &topo, 2, steps, Some(&plan)).expect("resume failed");
        assert_eq!(&resumed.losses, &run.losses);
        assert_bits_eq(&backend_name(backend), &resumed.flat, &run.flat);
    }
}

/// Gradient accumulation must not change what is computed, only how it is
/// batched — but micro-batches draw different synthetic data per absolute
/// micro index, so accum=2 is a different (still oracle-checked) run, not
/// a bitwise twin. Pin both against their own oracle.
#[test]
fn grad_accum_matches_oracle() {
    for accum in [1usize, 2, 3] {
        let cfg = cfg_for(Backend::Ring(Algo::BurstTopo), accum, 7);
        let topo = Topology::single_node(4);
        let run = engine_run(&cfg, &topo, 2, None).expect("train failed");
        let want = oracle_train(&cfg, 2, &[]);
        expect_train_matches(
            &format!("accum{accum}"),
            &run.losses,
            &run.flat,
            &want,
            ORACLE_TRAIN_RTOL,
        );
    }
}
