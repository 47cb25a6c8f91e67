//! Elastic training integration tests. In-step recovery is the engine's
//! one evict-shrink-replay loop ([`run_span_elastic`], or
//! [`train_with_recovery`] with `in_step`): when a rank dies mid-step the
//! survivors agree to evict it, restore the step-start model and replay the
//! step on the shrunken ring, bit-identical to a segmented reference of
//! fresh worlds chained at the failed step. Also covered: scheduled leaves
//! and rejoins, gradient poison, stragglers and restart recovery from
//! sharded checkpoints.

use burstengine::comm::obs::{RankTrace, SpanKind};
use burstengine::comm::RankOutput;
use burstengine::model::fsdp::{try_gather_weights, Group};
use burstengine::prelude::*;
use std::path::PathBuf;

/// Engine config whose sequence length keeps the zigzag layout valid for
/// every world size the elastic tests pass through: 48 is divisible by
/// `2·g` for g ∈ {2, 3, 4, 6, 8}.
fn elastic_cfg() -> EngineConfig {
    let mut cfg = EngineConfig::tiny(Backend::Ring(Algo::BurstFlat));
    cfg.model.seq_len = 48;
    cfg
}

/// Reference segment: steps `start..end` on a fresh, never-faulted world
/// of `topo`, warm-started from `warm` flat state (`None` = fresh model).
/// Returns the segment's losses and the final flat state, after checking
/// all ranks agree bit-for-bit.
fn segment(
    topo: Topology,
    warm: Option<&[f32]>,
    start: usize,
    end: usize,
    cfg: &EngineConfig,
) -> (Vec<f32>, Vec<f32>) {
    let w = World::new(topo);
    let mut outs = w.run_results(|comm| {
        let mut model = Model::new(cfg.model, cfg.seed);
        if let Some(f) = warm {
            model.load_flat_state(f);
        }
        let out = burstengine::model::engine::run_span(
            comm,
            cfg,
            &mut model,
            start,
            end,
            |_, _, _, _| {},
        )
        .expect("clean reference segment");
        (out.losses, model.flat_state())
    });
    let first = outs.remove(0);
    for o in &outs {
        assert_eq!(o.0, first.0, "reference ranks disagree on losses");
        assert_eq!(o.1, first.1, "reference ranks disagree on state");
    }
    first
}

/// The op count rank `victim` has accumulated after `s` clean elastic
/// steps — used to aim a crash inside a specific step.
fn elastic_ops_after(cfg: &EngineConfig, topo: Topology, victim: usize, s: usize) -> u64 {
    let outs = World::new(topo).run_results(|comm| {
        let mut model = Model::new(cfg.model, cfg.seed);
        run_span_elastic(comm, cfg, &mut model, 0, s, &[], &ElasticCfg::default())
            .expect("clean elastic probe");
        comm.op_count()
    });
    outs[victim]
}

/// One rank's in-step recovery: its outcome and its final flat state.
type ElasticRun = Result<(ElasticOutcome, Vec<f32>), CommError>;

/// Train `steps` steps with in-step recovery on a world of `topo` under
/// `plan`, tracing every rank.
fn recover_in_step(
    cfg: &EngineConfig,
    topo: Topology,
    steps: usize,
    plan: FaultPlan,
) -> Vec<RankOutput<ElasticRun>> {
    World::with_faults(topo, plan).run_faulty(|comm| {
        comm.start_trace();
        let mut model = Model::new(cfg.model, cfg.seed);
        let out = run_span_elastic(comm, cfg, &mut model, 0, steps, &[], &ElasticCfg::default())?;
        Ok((out, model.flat_state()))
    })
}

/// The segmented reference: a fresh world of `first` over `[0, f)`, then a
/// fresh world of `then` over `[f, steps)` warm-started from it. Returns
/// the losses of both segments and the final flat state.
fn chained(
    first: (Topology, &EngineConfig),
    f: usize,
    then: (Topology, &EngineConfig),
    steps: usize,
) -> (Vec<f32>, Vec<f32>) {
    let (mut losses, flat_a) = segment(first.0, None, 0, f, first.1);
    let (lb, flat_b) = segment(then.0, Some(&flat_a), f, steps, then.1);
    losses.extend(lb);
    (losses, flat_b)
}

/// Check every rank of an in-step recovery run: the `dead` report their
/// own crash; each survivor evicted exactly them and ended on the
/// reference's losses and state, bit for bit. Returns the survivors'
/// outcomes.
fn survivors_match<'a>(
    outs: &'a [RankOutput<ElasticRun>],
    dead: &[usize],
    want: &(Vec<f32>, Vec<f32>),
) -> Vec<&'a ElasticOutcome> {
    let mut survivors = Vec::new();
    for o in outs {
        let r = o.rank;
        if dead.contains(&r) {
            assert!(
                matches!(&o.result, Err(CommError::Crashed { rank, .. }) if *rank == r),
                "rank {r} was scheduled to die: {:?}",
                o.result.as_ref().err()
            );
            continue;
        }
        let (out, flat) = o.result.as_ref().expect("survivor completes");
        let mut evicted = out.evicted.clone();
        evicted.sort_unstable();
        assert_eq!(evicted, dead, "rank {r}");
        assert!(out.parked_at.is_none(), "rank {r} finished the span");
        assert_eq!(out.losses, want.0, "rank {r}: losses");
        assert!(
            *flat == want.1,
            "rank {r}: parameters differ from the reference"
        );
        survivors.push(out);
    }
    survivors
}

/// Whether `t` records its rank's crash inside an attention ring round.
fn crashed_in_a_ring_round(t: &RankTrace) -> bool {
    let Some(i) = t
        .spans
        .iter()
        .position(|s| s.kind == SpanKind::Fault && s.name == "crash")
    else {
        return false;
    };
    let mut up = t.spans[i].parent;
    while up >= 0 {
        let s = &t.spans[up as usize];
        if s.kind == SpanKind::AttnRound {
            return true;
        }
        up = s.parent;
    }
    false
}

/// The midpoint of `rank`'s ops in clean step `f`: a crash aimed there
/// lands inside that step.
fn mid_step_op(cfg: &EngineConfig, topo: &Topology, rank: usize, f: usize) -> u64 {
    let before = elastic_ops_after(cfg, topo.clone(), rank, f);
    let after = elastic_ops_after(cfg, topo.clone(), rank, f + 1);
    assert!(after > before, "a step must cost comm ops");
    (before + after) / 2
}

/// `rank`'s op count when an elastic step starts its first attention ring:
/// the step's FSDP weight gather, with its eviction agreement, comes first.
fn first_ring_op(cfg: &EngineConfig, topo: Topology, rank: usize) -> u64 {
    let outs = World::new(topo).run_results(|comm| {
        let mut m = Membership::new(comm.world_size());
        let policy = RetryPolicy::default();
        let mut model = Model::new(cfg.model, cfg.seed);
        let group = &mut Group::Alive(&mut m, &policy);
        try_gather_weights(comm, group, &mut model.params_mut()).expect("clean gather");
        comm.op_count()
    });
    outs[rank]
}

#[test]
fn mid_ring_crash_shrinks_to_a_bit_identical_small_world_run() {
    // Rank 2 of 4 dies inside an attention ring round of step 1. The three
    // survivors evict it, replay the step on their shrunken ring and
    // finish bit-identical to a fresh 4-rank world chained into a fresh
    // 3-rank world at step 1.
    let cfg = elastic_cfg();
    let (steps, f, victim) = (3, 1, 2);
    let topo = Topology::single_node(4);
    let op = mid_step_op(&cfg, &topo, victim, f);
    let plan = FaultPlan::new(7)
        .crash_at_op(victim, op)
        .recv_deadline(60.0);
    let outs = recover_in_step(&cfg, topo.clone(), steps, plan);

    let t = outs[victim].trace.as_ref().expect("tracing was on");
    assert!(crashed_in_a_ring_round(t), "op {op} is not mid-ring");
    let Err(e) = &outs[victim].result else {
        panic!("rank {victim} was scheduled to die");
    };
    assert!(
        e.at_time().is_some(),
        "the failure must carry its virtual time"
    );

    let want = chained((topo, &cfg), f, (Topology::single_node(3), &cfg), steps);
    for out in survivors_match(&outs, &[victim], &want) {
        assert_eq!(out.epoch, 1, "one eviction bumps the epoch once");
        assert_eq!(out.steps_replayed, 1, "only the failed step re-runs");
    }
}

#[test]
fn two_ranks_dying_in_the_same_round_still_converge() {
    // Ranks 1 and 3 of 4 both die in step 1. The two survivors absorb
    // both deaths within the step and match a fresh 4-rank world chained
    // into a fresh 2-rank world.
    let cfg = elastic_cfg();
    let (steps, f) = (3, 1);
    let topo = Topology::single_node(4);
    let plan = FaultPlan::new(13)
        .crash_at_op(1, mid_step_op(&cfg, &topo, 1, f))
        .crash_at_op(3, mid_step_op(&cfg, &topo, 3, f))
        .recv_deadline(60.0);
    let outs = recover_in_step(&cfg, topo.clone(), steps, plan);
    let want = chained((topo, &cfg), f, (Topology::single_node(2), &cfg), steps);
    for out in survivors_match(&outs, &[1, 3], &want) {
        assert!(
            (1..=2).contains(&out.steps_replayed),
            "both deaths must be absorbed within two replays, took {}",
            out.steps_replayed
        );
    }
}

#[test]
fn crash_on_the_very_first_ring_op_is_recovered() {
    // Rank 1 of 3 dies at its first attention ring op, right after step
    // 0's weight gather. The two survivors replay the step and match a
    // fresh 2-rank world from the start.
    let cfg = elastic_cfg();
    let steps = 2;
    let op = first_ring_op(&cfg, Topology::single_node(3), 1);
    let plan = FaultPlan::new(17).crash_at_op(1, op).recv_deadline(60.0);
    let outs = recover_in_step(&cfg, Topology::single_node(3), steps, plan);
    let t = outs[1].trace.as_ref().expect("tracing was on");
    assert!(crashed_in_a_ring_round(t), "op {op} is not a ring op");
    let before = FaultPlan::new(17)
        .crash_at_op(1, op - 1)
        .recv_deadline(60.0);
    let outs_before = recover_in_step(&cfg, Topology::single_node(3), steps, before);
    let t = outs_before[1].trace.as_ref().expect("tracing was on");
    assert!(!crashed_in_a_ring_round(t), "op {} is a ring op", op - 1);
    let want = chained(
        (Topology::single_node(3), &cfg),
        0,
        (Topology::single_node(2), &cfg),
        steps,
    );
    for out in survivors_match(&outs, &[1], &want) {
        assert_eq!(out.steps_replayed, 1, "step 0 re-runs once");
    }
}

#[test]
fn clean_elastic_run_loads_nothing_and_matches_plain_burst_attention() {
    // With no fault, in-step recovery never evicts, replays or reads a
    // checkpoint shard back, and trains exactly what `run_span` trains.
    let cfg = elastic_cfg();
    let steps = 3;
    let dir = scratch("clean-elastic");
    let rcfg = RecoveryCfg {
        every: 1,
        path: dir.clone(),
        max_restarts: 0,
        shrink: false,
        in_step: true,
        quiet: true,
    };
    let report = train_with_recovery(
        |_, _| World::new(Topology::single_node(4)),
        &cfg,
        steps,
        &rcfg,
    )
    .expect("a clean run must finish");
    assert_eq!(report.restarts, 0);
    assert_eq!(
        report.shards_reloaded, 0,
        "a clean run must not read storage"
    );
    assert!(report.evicted_ranks.is_empty());
    assert_eq!(report.steps_replayed, 0);
    let (losses, flat) = segment(Topology::single_node(4), None, 0, steps, &cfg);
    assert_eq!(report.losses, losses, "losses equal run_span's");
    assert!(
        report.final_model.flat_state() == flat,
        "parameters equal run_span's, bit for bit"
    );
    let man = burstengine::model::checkpoint_shard::read_manifest(&dir).unwrap();
    assert_eq!(man.epoch, 0, "no membership change");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn slow_compute_straggler_stretches_only_the_afflicted_ranks_clock() {
    let plan = FaultPlan::new(1).slow_compute(1, 4.0);
    let world = World::with_faults(Topology::single_node(2), plan);
    let outs = world.run(|comm| {
        comm.advance_compute(1.0);
        comm.time()
    });
    assert_eq!(outs[0].result, 1.0, "healthy rank pays nominal time");
    assert_eq!(outs[1].result, 4.0, "straggler pays the slowdown factor");
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("burstengine-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn poisoned_gradient_is_skipped_in_lockstep_without_a_restart() {
    let cfg = EngineConfig::tiny(Backend::Ring(Algo::BurstFlat));
    let steps = 4;
    let dir = scratch("poison-skip");
    let rcfg = RecoveryCfg {
        every: 2,
        path: dir.clone(),
        max_restarts: 0,
        shrink: false,
        in_step: false,
        quiet: true,
    };
    let report = train_with_recovery(
        |_, _| {
            let plan = FaultPlan::new(3).poison_grad(1, 1, f32::NAN);
            World::with_faults(Topology::single_node(2), plan)
        },
        &cfg,
        steps,
        &rcfg,
    )
    .expect("a poisoned gradient must not kill the job");
    assert_eq!(report.restarts, 0, "skip-and-rescale needs no restart");
    assert_eq!(report.skipped_steps, 1, "exactly the poisoned step skipped");
    assert_eq!(report.losses.len(), steps);
    assert!(
        report.losses.iter().all(|l| l.is_finite()),
        "gradient poison never reaches the loss history: {:?}",
        report.losses
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn poisoned_micro_batch_is_rolled_back_and_rescaled() {
    let mut cfg = EngineConfig::tiny(Backend::Ring(Algo::BurstFlat));
    cfg.grad_accum = 2;
    let steps = 3;
    let dir = scratch("poison-micro");
    // Restart recovery and in-step recovery run the same step, so both
    // salvage the poisoned micro-batch alike.
    let reports: Vec<RecoveryReport> = [false, true]
        .into_iter()
        .map(|in_step| {
            let rcfg = RecoveryCfg {
                every: 2,
                path: dir.join(if in_step { "in-step" } else { "restart" }),
                max_restarts: 0,
                shrink: false,
                in_step,
                quiet: true,
            };
            let report = train_with_recovery(
                |_, _| {
                    let plan = FaultPlan::new(5).poison_grad_micro(0, 1, 0, f32::INFINITY);
                    World::with_faults(Topology::single_node(2), plan)
                },
                &cfg,
                steps,
                &rcfg,
            )
            .expect("a poisoned micro-batch must not kill the job");
            assert_eq!(report.restarts, 0, "in_step {in_step}");
            assert_eq!(
                report.skipped_steps, 0,
                "in_step {in_step}: gradient accumulation salvages the step"
            );
            assert_eq!(
                report.dropped_micros, 1,
                "in_step {in_step}: one micro rolled back"
            );
            assert_eq!(report.losses.len(), steps);
            assert!(report.losses.iter().all(|l| l.is_finite()));
            report
        })
        .collect();
    let bits = |r: &RecoveryReport| -> Vec<u32> {
        r.final_model
            .flat_state()
            .iter()
            .map(|x| x.to_bits())
            .collect()
    };
    assert_eq!(
        reports[0].losses, reports[1].losses,
        "both recovery modes train the same losses"
    );
    assert!(
        bits(&reports[0]) == bits(&reports[1]),
        "both recovery modes end at the same model, bit for bit"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ragged_survivors_fall_back_to_the_flat_ring_bit_exactly() {
    // Rank 1 of a 2-node × 2-GPU cluster dies in step 1 of topology-aware
    // Burst training. The survivors [0, 2, 3] are ragged across the nodes
    // (one GPU on node 0, two on node 1), so no two-level split exists:
    // every step from the crash on runs on the flat ring, bit-identical
    // to a fresh 3-rank flat BurstAttention world.
    let flat = elastic_cfg();
    let mut topo_aware = flat.clone();
    topo_aware.backend = Backend::Ring(Algo::BurstTopo);
    let (steps, f, victim) = (3, 1, 1);
    let topo = Topology::a800(2, 2);
    let op = mid_step_op(&topo_aware, &topo, victim, f);
    let plan = FaultPlan::new(19)
        .crash_at_op(victim, op)
        .recv_deadline(60.0);
    let outs = recover_in_step(&topo_aware, topo.clone(), steps, plan);
    let want = chained(
        (topo, &topo_aware),
        f,
        (Topology::single_node(3), &flat),
        steps,
    );
    for out in survivors_match(&outs, &[victim], &want) {
        assert!(
            out.flat_fallbacks >= 1,
            "ragged [0, 2, 3] has no node-local split, got {} fallbacks",
            out.flat_fallbacks
        );
        assert_eq!(
            out.flat_fallbacks,
            steps - f,
            "every step from the crash on"
        );
    }
}

#[test]
fn node_balanced_survivors_keep_the_double_ring() {
    // Ranks 1 and 5, one per node of a 2 × 4 cluster, die at their first
    // op of step 1. Neither can take part in another exchange, so one
    // agreement evicts both. (Deaths aimed mid-step may be agreed on one
    // at a time, through a seven-rank world the zigzag layout cannot
    // split 48 tokens over.) The survivors [0, 2, 3, 4, 6, 7] hold three
    // GPUs on each node, so the replayed step and the rest of the run stay
    // on the two-level ring, bit-identical to a fresh 2 × 3 world.
    let mut cfg = elastic_cfg();
    cfg.backend = Backend::Ring(Algo::BurstTopo);
    let (steps, f) = (3, 1);
    let topo = Topology::a800(2, 4);
    let plan = FaultPlan::new(29)
        .crash_at_op(1, elastic_ops_after(&cfg, topo.clone(), 1, f))
        .crash_at_op(5, elastic_ops_after(&cfg, topo.clone(), 5, f))
        .recv_deadline(60.0);
    let outs = recover_in_step(&cfg, topo.clone(), steps, plan);
    let want = chained((topo, &cfg), f, (Topology::a800(2, 3), &cfg), steps);
    for out in survivors_match(&outs, &[1, 5], &want) {
        assert_eq!(out.steps_replayed, 1, "one agreement, one replay");
        assert_eq!(out.flat_fallbacks, 0, "node-balanced survivors");
    }
}

#[test]
fn in_step_recovery_replays_only_the_failed_step_bit_exactly() {
    let cfg = elastic_cfg();
    let steps = 4;
    let f = 2; // the step the crash interrupts
    let victim = 2;
    let crash_op = mid_step_op(&cfg, &Topology::single_node(4), victim, f);

    let dir = scratch("in-step");
    let rcfg = RecoveryCfg {
        every: 100,
        path: dir.clone(),
        max_restarts: 0,
        shrink: false,
        in_step: true,
        quiet: true,
    };
    let report = train_with_recovery(
        |_, _| {
            let plan = FaultPlan::new(11)
                .crash_at_op(victim, crash_op)
                .recv_deadline(60.0);
            World::with_faults(Topology::single_node(4), plan)
        },
        &cfg,
        steps,
        &rcfg,
    )
    .expect("in-step recovery must finish the job without a restart");

    assert_eq!(
        report.restarts, 0,
        "the failure is absorbed inside the step"
    );
    assert_eq!(report.evicted_ranks, vec![victim]);
    assert!(report.rejoined_ranks.is_empty());
    assert_eq!(
        report.steps_replayed, 1,
        "only the interrupted step re-runs"
    );
    assert_eq!(
        report.failures.len(),
        1,
        "the absorbed crash is still reported"
    );
    assert_eq!(report.skipped_steps, 0);

    // Bit-identity against the segmented reference: a fresh 4-rank world
    // over [0, f), then a fresh 3-rank world over [f, steps) warm-started
    // from the first segment's final state.
    let (expect, flat_b) = chained(
        (Topology::single_node(4), &cfg),
        f,
        (Topology::single_node(3), &cfg),
        steps,
    );
    assert_eq!(
        report.losses, expect,
        "losses must match the segmented reference bit-for-bit"
    );
    assert_eq!(
        report.final_model.flat_state(),
        flat_b,
        "parameters must match the segmented reference bit-for-bit"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_in_a_two_level_fsdp_gather_evicts_only_the_victim() {
    // On 2 nodes x 4 GPUs the FSDP weight all-gather runs the two-level
    // ring: a rank waits on its cross-node peer and its in-node neighbour,
    // not only on its flat ones. Rank 5 dies at each op of step 1's gather
    // (its first collective) and, on BurstTopo, at each op of the
    // first-layer attention forward that follows it: one pipelined
    // double-ring pass over both heads. The survivors must evict rank 5
    // alone, replay the step on the seven-rank flat ring, and match fresh
    // 2 x 4 and 7-rank worlds bit for bit.
    let mut flat = elastic_cfg();
    flat.model.seq_len = 112; // zigzag needs 2·g | seq for g = 8 and g = 7
    let mut topo_aware = flat.clone();
    topo_aware.backend = Backend::Ring(Algo::BurstTopo);
    // The gather: one cross-node step (a send and a receive), then three
    // in-node steps of two sends and two receives.
    let gather = 0..14;
    // The forward, per head: two cross-node sends, three in-node slots of
    // two sends and two receives, two cross-node receives.
    let forward = 14..14 + 2 * 16;
    let (steps, f, victim) = (2, 1, 5);
    let topo = Topology::a800(2, 4);
    for (cfg, ops) in [(flat.clone(), gather), (topo_aware, forward)] {
        let before = elastic_ops_after(&cfg, topo.clone(), victim, f);
        // Seven survivors are ragged across the two nodes: they fall back
        // to the flat ring.
        let seven = (Topology::single_node(7), &flat);
        let (expect, flat_b) = chained((topo.clone(), &cfg), f, seven, steps);
        for op in ops.start + before..ops.end + before {
            let ctx = format!("{:?} op {op}", cfg.backend);
            let dir = scratch(&format!("two-level-crash-{op}"));
            let rcfg = RecoveryCfg {
                every: 100,
                path: dir.clone(),
                max_restarts: 0,
                shrink: false,
                in_step: true,
                quiet: true,
            };
            let report = train_with_recovery(
                |_, _| {
                    let plan = FaultPlan::new(23)
                        .crash_at_op(victim, op)
                        .recv_deadline(60.0);
                    World::with_faults(topo.clone(), plan)
                },
                &cfg,
                steps,
                &rcfg,
            )
            .unwrap_or_else(|e| panic!("{ctx}: in-step recovery must finish: {e:?}"));
            assert_eq!(report.restarts, 0, "{ctx}: absorbed inside the step");
            assert_eq!(report.evicted_ranks, vec![victim], "{ctx}");
            assert_eq!(report.steps_replayed, 1, "{ctx}: only step {f} re-runs");
            assert_eq!(report.losses, expect, "{ctx}: losses");
            assert_eq!(report.final_model.flat_state(), flat_b, "{ctx}: parameters");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// The ops `rank` runs in clean step `f` of topology-aware training on
/// `topo` between head 1's first backward slot and the deferred landing of
/// head 0's gradients, read off the rank's trace: head 1's slots run there,
/// while head 0's last gradient message waits on its link. `landing` names
/// the landing's round, `dr_dq_final` (BurstTopo's final `∇Q`) or
/// `dr_dkv_final` (DoubleRing's `(∇K, ∇V)`), and `back` counts head 1's
/// slots before the one that lands it. A rank's op index of a span is the
/// number of sends and receives recorded before it.
fn homecoming_window_ops(
    cfg: &EngineConfig,
    topo: &Topology,
    rank: usize,
    f: usize,
    (landing, back): (&str, usize),
) -> std::ops::Range<u64> {
    let before = elastic_ops_after(cfg, topo.clone(), rank, f);
    let traces = World::new(topo.clone()).run_results(|comm| {
        comm.start_trace();
        let mut model = Model::new(cfg.model, cfg.seed);
        run_span_elastic(comm, cfg, &mut model, 0, f + 1, &[], &ElasticCfg::default())
            .expect("clean elastic probe");
        comm.take_rank_trace().expect("tracing was on")
    });
    let spans = &traces[rank].spans;
    let mut ops = 0;
    let op_at: Vec<u64> = spans
        .iter()
        .map(|s| {
            let at = ops;
            ops += matches!(s.kind, SpanKind::Send | SpanKind::Recv) as u64;
            at
        })
        .collect();
    let is_slot = |i: usize| spans[i].kind == SpanKind::AttnRound && spans[i].name == "dr_bwd_slot";
    // The step's first landing received inside a slot of the next head.
    let home = (0..spans.len())
        .find(|&i| {
            op_at[i] >= before
                && spans[i].name == landing
                && spans[i].parent >= 0
                && is_slot(spans[i].parent as usize)
        })
        .expect("a deferred landing in step f");
    let slots: Vec<usize> = (0..home).filter(|&i| is_slot(i)).collect();
    let head1_first = slots[slots.len() - 1 - back];
    op_at[head1_first]..op_at[home]
}

#[test]
fn crash_while_a_heads_homecoming_is_deferred_is_recovered() {
    // On 2 nodes x 4 GPUs both topology-aware backwards hand each head to
    // the next. BurstTopo's head 0 final ∇Q waits on the diagonal link while
    // head 1's first sweep runs, and lands in the first slot of head 1's
    // second sweep. DoubleRing's head 0 (∇K, ∇V) wait on the intra-node
    // link, its last completion hop's, and land in head 1's first slot.
    // Rank 5 dies at an op in that window of step 1. The survivors must
    // evict rank 5 alone, replay the step on the seven-rank flat ring (where
    // the two run BurstFlat's and RingFlat's schedules), and match fresh
    // 2 x 4 and 7-rank worlds bit for bit.
    let topo = Topology::a800(2, 4);
    for (algo, flat_algo, landing) in [
        (
            Algo::BurstTopo,
            Algo::BurstFlat,
            ("dr_dq_final", topo.gpus_per_node),
        ),
        (Algo::DoubleRing, Algo::RingFlat, ("dr_dkv_final", 0)),
    ] {
        let mut flat = elastic_cfg();
        flat.model.seq_len = 112; // zigzag needs 2·g | seq for g = 8 and g = 7
        flat.backend = Backend::Ring(flat_algo);
        let mut cfg = flat.clone();
        cfg.backend = Backend::Ring(algo);
        let (steps, f, victim) = (2, 1, 5);
        let window = homecoming_window_ops(&cfg, &topo, victim, f, landing);
        assert!(!window.is_empty(), "{algo:?}: head 1 runs ops first");
        let op = (window.start + window.end) / 2;
        let plan = FaultPlan::new(31)
            .crash_at_op(victim, op)
            .recv_deadline(60.0);
        let outs = recover_in_step(&cfg, topo.clone(), steps, plan);
        let t = outs[victim].trace.as_ref().expect("tracing was on");
        assert!(
            crashed_in_a_ring_round(t),
            "{algo:?}: op {op} is not mid-ring"
        );
        let want = chained(
            (topo.clone(), &cfg),
            f,
            (Topology::single_node(7), &flat),
            steps,
        );
        for out in survivors_match(&outs, &[victim], &want) {
            assert_eq!(out.epoch, 1, "one eviction bumps the epoch once");
            assert_eq!(out.steps_replayed, 1, "only the failed step re-runs");
        }
    }
}

#[test]
fn leave_and_rejoin_runs_bit_identical_to_the_segmented_reference() {
    // Rank 2 of 3 leaves before step 1 and rejoins before step 3,
    // warm-starting from the checkpoint the two survivors committed. The
    // whole run — 3-rank, then 2-rank, then regrown 3-rank — must be
    // bit-identical to three fresh chained reference worlds.
    let cfg = elastic_cfg();
    let steps = 5;
    let dir = scratch("rejoin");
    let rcfg = RecoveryCfg {
        every: 2,
        path: dir.clone(),
        max_restarts: 0,
        shrink: false,
        in_step: true,
        quiet: true,
    };
    let report = train_with_recovery(
        |_, _| {
            let plan = FaultPlan::new(23).leave_at(2, 1).join_at(2, 3);
            World::with_faults(Topology::single_node(3), plan)
        },
        &cfg,
        steps,
        &rcfg,
    )
    .expect("a voluntary leave/rejoin cycle must not kill the job");

    assert_eq!(report.restarts, 0);
    assert_eq!(report.rejoined_ranks, vec![2]);
    assert!(
        report.evicted_ranks.is_empty(),
        "a voluntary leave is not an eviction"
    );
    assert_eq!(
        report.steps_replayed, 0,
        "no step is lost to voluntary churn"
    );

    let (la, flat_a) = segment(Topology::single_node(3), None, 0, 1, &cfg);
    let (lb, flat_b) = segment(Topology::single_node(2), Some(&flat_a), 1, 3, &cfg);
    let (lc, flat_c) = segment(Topology::single_node(3), Some(&flat_b), 3, 5, &cfg);
    let mut expect = la;
    expect.extend(lb);
    expect.extend(lc);
    assert_eq!(report.losses, expect, "losses must chain bit-exactly");
    assert_eq!(report.final_model.flat_state(), flat_c);

    // The manifest left on disk describes the regrown 3-rank world.
    let man = burstengine::model::checkpoint_shard::read_manifest(&dir).unwrap();
    assert_eq!(man.world_size, 3);
    assert_eq!(man.step as usize, steps);
    assert_eq!(man.epoch, 2, "one leave + one join bump the epoch twice");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn seeded_churn_storm_completes_with_bounded_replay() {
    let cfg = elastic_cfg();
    let steps = 8;
    // The CI `elastic-churn` job sweeps FAULT_SEED (which storm) and
    // CHURN_EVENTS (how dense the leave/join schedule is); both default to
    // the committed storm so a plain `cargo test` stays deterministic.
    let events: usize = std::env::var("CHURN_EVENTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .map_or(6, |e: usize| e.clamp(1, 6));
    let seed: u64 = std::env::var("FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2024);

    // The storm schedule is a pure function of the seed; regenerate it
    // here to know what to expect.
    let schedule = FaultPlan::new(seed).churn_storm(4, steps as u64, events);
    assert!(
        schedule.churn_events().len() >= events,
        "the storm must schedule at least {events} membership events"
    );
    let mut expect_rejoined: Vec<usize> = schedule
        .churn_events()
        .iter()
        .filter(|e| e.kind == ChurnKind::Join)
        .map(|e| e.rank)
        .collect();
    expect_rejoined.sort_unstable();
    expect_rejoined.dedup();

    let dir = scratch(&format!("churn-storm-{seed}-{events}"));
    let rcfg = RecoveryCfg {
        every: 2,
        path: dir.clone(),
        max_restarts: 0,
        shrink: false,
        in_step: true,
        // CI sets RECOVERY_SUMMARY to collect the one-line `[recovery]`
        // summaries as a job artifact.
        quiet: std::env::var("RECOVERY_SUMMARY").is_err(),
    };
    let report = train_with_recovery(
        |_, _| {
            let plan = FaultPlan::new(seed).churn_storm(4, steps as u64, events);
            World::with_faults(Topology::single_node(4), plan)
        },
        &cfg,
        steps,
        &rcfg,
    )
    .expect("the churn storm must not kill the job");

    assert_eq!(report.restarts, 0, "churn is absorbed without restarts");
    assert!(
        report.steps_replayed <= events,
        "replay is bounded by the events injected: {} > {events}",
        report.steps_replayed
    );
    let mut rejoined = report.rejoined_ranks.clone();
    rejoined.sort_unstable();
    rejoined.dedup();
    assert_eq!(
        rejoined, expect_rejoined,
        "every scheduled join is admitted"
    );
    assert_eq!(report.losses.len(), steps);
    assert!(
        report.losses.iter().all(|l| l.is_finite()),
        "churn never corrupts the loss history: {:?}",
        report.losses
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_checkpoints_and_shrink_recover_a_dead_rank() {
    let cfg = EngineConfig::tiny(Backend::Ring(Algo::BurstFlat));
    let steps = 6;
    // Probe a clean 2-rank run for its op count so the crash lands at ~2/3
    // of the job — safely after the step-2 checkpoint.
    let probe = World::new(Topology::single_node(2)).run_results(|comm| {
        let (losses, _) = burstengine::model::engine::run_rank(comm, &cfg, steps);
        (losses, comm.op_count())
    });
    let crash_op = probe[1].1 * 2 / 3;
    assert!(crash_op > 0);

    let dir = scratch("sharded-shrink");
    let rcfg = RecoveryCfg {
        every: 2,
        path: dir.clone(),
        max_restarts: 2,
        shrink: true,
        in_step: false,
        quiet: true,
    };
    let report = train_with_recovery(
        |attempt, shrink_to| {
            let size = shrink_to.unwrap_or(2);
            if attempt == 0 {
                let plan = FaultPlan::new(7)
                    .crash_at_op(1, crash_op)
                    .recv_deadline(60.0);
                World::with_faults(Topology::single_node(size), plan)
            } else {
                World::new(Topology::single_node(size))
            }
        },
        &cfg,
        steps,
        &rcfg,
    )
    .expect("shrink recovery must finish the job");

    assert_eq!(report.restarts, 1);
    assert_eq!(report.evicted_ranks, vec![1], "the dead rank is evicted");
    assert_eq!(
        report.shards_reloaded, 2,
        "the restart restores exactly the two shards of the 2-rank manifest"
    );
    assert_eq!(report.losses.len(), steps);
    assert!(report.losses.iter().all(|l| l.is_finite()));
    // The manifest left on disk describes the final, shrunken world.
    let man = burstengine::model::checkpoint_shard::read_manifest(&dir).unwrap();
    assert_eq!(man.world_size, 1, "final checkpoint is sharded for 1 rank");
    assert_eq!(man.step as usize, steps);
    assert_eq!(man.epoch, 1, "one eviction recorded");
    std::fs::remove_dir_all(&dir).ok();
}
