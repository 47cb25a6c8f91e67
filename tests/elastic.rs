//! Elastic shrink-recovery integration tests: a rank that dies mid-ring is
//! evicted by the survivors, its sequence shard is recovered from
//! checkpoint data, and the re-run on the shrunken ring must be
//! **bit-identical** to a run that started with the smaller world — the
//! paper's fine-grained ring schedules made fault-tolerant without losing
//! numerical exactness.

use burstengine::dattn::double_ring::{
    try_double_ring_backward_alg2_on, try_double_ring_forward_heads_on,
};
use burstengine::dattn::ring::{try_burst_backward, try_ring_forward, AttnShard, BackwardInputs};
use burstengine::prelude::*;
use std::path::PathBuf;

const N: usize = 24;
const D: usize = 8;

fn globals() -> (Mat, Mat, Mat, Mat) {
    (
        randn_mat(N, D, 0.7, 1),
        randn_mat(N, D, 0.7, 2),
        randn_mat(N, D, 0.7, 3),
        randn_mat(N, D, 0.8, 4),
    )
}

fn scale() -> f32 {
    1.0 / (D as f32).sqrt()
}

/// Rank `r`'s zigzag shard of the globals under a `world`-rank partition.
fn shard_of(world: usize, r: usize) -> (Mat, Mat, Mat, Mat) {
    let (q, k, v, go) = globals();
    let idx = Layout::Zigzag.indices(N, world, r);
    (
        q.gather_rows(&idx),
        k.gather_rows(&idx),
        v.gather_rows(&idx),
        go.gather_rows(&idx),
    )
}

/// Reference: BurstAttention forward+backward on a fresh `world`-rank
/// cluster that never saw a fault. Returns per-position `(O, Lse, dQ, dK,
/// dV)`.
fn fresh_small_world(world: usize) -> Vec<(Mat, Vec<f32>, Mat, Mat, Mat)> {
    let w = World::new(Topology::single_node(world));
    w.run_results(|comm| {
        let (q, k, v, go) = shard_of(world, comm.rank());
        let shard = AttnShard {
            q: &q,
            k: &k,
            v: &v,
            scale: scale(),
            mask: &AttnMask::Causal,
            layout: Layout::Zigzag,
            seq_len: N,
            cost: CostModel::free(),
            max_token: None,
            skip: false,
        };
        let ring = Ring::global(comm);
        let fwd = try_ring_forward(comm, &ring, &shard).expect("clean forward");
        let back = BackwardInputs {
            o: &fwd.o,
            lse: &fwd.lse,
            grad_o: &go,
        };
        let (dq, dk, dv) =
            try_burst_backward(comm, &ring, &shard, &back, OverlapMode::Fine).expect("clean bwd");
        (fwd.o, fwd.lse, dq, dk, dv)
    })
}

/// Run elastic attention with `opts` on a possibly-faulty `world`-rank
/// cluster. Each rank returns its output plus the list of original-owner
/// shards its checkpoint loader was asked for.
#[allow(clippy::type_complexity)]
fn elastic_run(
    world: &World,
    orig_world: usize,
    opts: ElasticOpts,
) -> Vec<burstengine::comm::RankOutput<Result<(ElasticAttnOut, Vec<usize>), AttnFailure>>> {
    world.run_faulty::<_, AttnFailure, _>(move |comm| {
        let mut m = Membership::new(comm.world_size());
        let policy = RetryPolicy::default();
        let (q, k, v, go) = shard_of(orig_world, comm.rank());
        let mut loaded: Vec<usize> = Vec::new();
        let out = {
            let mut load = |r: usize| {
                loaded.push(r);
                shard_of(orig_world, r)
            };
            try_elastic_attention_opts(
                comm,
                &mut m,
                &q,
                &k,
                &v,
                &go,
                scale(),
                &AttnMask::Causal,
                Layout::Zigzag,
                N,
                &CostModel::free(),
                &mut load,
                &policy,
                opts,
            )?
        };
        Ok((out, loaded))
    })
}

/// Original owners (under the `orig`-rank partition) of the tokens rank
/// `me` holds at ring position `pos` of a `now`-rank partition — what an
/// exact loader must fetch, and nothing more.
fn needed_owners(orig: usize, now: usize, pos: usize, me: usize) -> Vec<usize> {
    let mut home = [usize::MAX; N];
    for r in 0..orig {
        for t in Layout::Zigzag.indices(N, orig, r) {
            home[t] = r;
        }
    }
    let mut owners: Vec<usize> = Layout::Zigzag
        .indices(N, now, pos)
        .into_iter()
        .map(|t| home[t])
        .filter(|&o| o != me)
        .collect();
    owners.sort_unstable();
    owners.dedup();
    owners
}

#[test]
fn mid_ring_crash_shrinks_to_a_bit_identical_small_world_run() {
    // Rank 2 of 4 dies mid-ring. The three survivors must evict it,
    // re-partition (pulling missing rows from checkpoint shards), and
    // produce output bit-identical to a fresh 3-rank run.
    let plan = FaultPlan::new(7).crash_at_op(2, 5).recv_deadline(60.0);
    let world = World::with_faults(Topology::single_node(4), plan);
    let outs = elastic_run(&world, 4, ElasticOpts::default());

    match &outs[2].result {
        Err(f) => {
            assert!(
                matches!(f.source, CommError::Crashed { rank: 2, .. }),
                "dead rank reports its own crash: {f:?}"
            );
            assert!(
                f.source.at_time().is_some(),
                "the failure must carry its virtual time"
            );
        }
        Ok(_) => panic!("rank 2 was scheduled to die"),
    }

    let reference = fresh_small_world(3);
    for (pos, &r) in [0usize, 1, 3].iter().enumerate() {
        let (out, loaded) = outs[r].result.as_ref().expect("survivor completes");
        assert_eq!(out.evicted, vec![2], "rank {r}");
        assert_eq!(out.epoch, 1, "one eviction bumps the epoch once");
        assert_eq!(out.attempts, 2, "full-world try, then the shrunken ring");
        assert_eq!(out.idx, Layout::Zigzag.indices(N, 3, pos));

        // Bit-identity against the never-failed 3-rank run.
        let (o, lse, dq, dk, dv) = &reference[pos];
        assert_eq!(&out.o, o, "rank {r}: O");
        assert_eq!(&out.lse, lse, "rank {r}: Lse");
        assert_eq!(&out.dq, dq, "rank {r}: dQ");
        assert_eq!(&out.dk, dk, "rank {r}: dK");
        assert_eq!(&out.dv, dv, "rank {r}: dV");

        // IO accounting: the loader is asked for exactly the shards whose
        // rows this rank's new partition needs — no full-state broadcast.
        let expect = needed_owners(4, 3, pos, r);
        let mut got = loaded.clone();
        got.sort_unstable();
        assert_eq!(got, expect, "rank {r} must load only the shards it needs");
        assert_eq!(out.shards_loaded, expect.len(), "rank {r}");
        assert!(
            !loaded.contains(&r),
            "rank {r} must never reload its own shard"
        );
    }
}

#[test]
fn two_ranks_dying_in_the_same_round_still_converge() {
    let plan = FaultPlan::new(13)
        .crash_at_op(1, 5)
        .crash_at_op(3, 5)
        .recv_deadline(60.0);
    let world = World::with_faults(Topology::single_node(4), plan);
    let outs = elastic_run(&world, 4, ElasticOpts::default());

    for dead in [1usize, 3] {
        assert!(
            matches!(
                &outs[dead].result,
                Err(f) if matches!(f.source, CommError::Crashed { .. })
            ),
            "rank {dead} was scheduled to die: {:?}",
            outs[dead].result
        );
    }
    let reference = fresh_small_world(2);
    for (pos, &r) in [0usize, 2].iter().enumerate() {
        let (out, _) = outs[r].result.as_ref().expect("survivor completes");
        let mut evicted = out.evicted.clone();
        evicted.sort_unstable();
        assert_eq!(evicted, vec![1, 3], "rank {r}");
        assert!(
            out.attempts <= 3,
            "both deaths must be absorbed within two shrink rounds, took {}",
            out.attempts
        );
        let (o, lse, dq, dk, dv) = &reference[pos];
        assert_eq!(&out.o, o, "rank {r}: O");
        assert_eq!(&out.lse, lse, "rank {r}: Lse");
        assert_eq!(&out.dq, dq, "rank {r}: dQ");
        assert_eq!(&out.dk, dk, "rank {r}: dK");
        assert_eq!(&out.dv, dv, "rank {r}: dV");
    }
}

#[test]
fn crash_on_the_very_first_ring_op_is_recovered() {
    let plan = FaultPlan::new(17).crash_at_op(1, 0).recv_deadline(60.0);
    let world = World::with_faults(Topology::single_node(3), plan);
    let outs = elastic_run(&world, 3, ElasticOpts::default());

    let reference = fresh_small_world(2);
    for (pos, &r) in [0usize, 2].iter().enumerate() {
        let (out, _) = outs[r].result.as_ref().expect("survivor completes");
        assert_eq!(out.evicted, vec![1], "rank {r}");
        let (o, lse, dq, dk, dv) = &reference[pos];
        assert_eq!(&out.o, o, "rank {r}: O");
        assert_eq!(&out.lse, lse, "rank {r}: Lse");
        assert_eq!(&out.dq, dq, "rank {r}: dQ");
        assert_eq!(&out.dk, dk, "rank {r}: dK");
        assert_eq!(&out.dv, dv, "rank {r}: dV");
    }
}

#[test]
fn clean_elastic_run_loads_nothing_and_matches_plain_burst_attention() {
    let world = World::new(Topology::single_node(4));
    let outs = elastic_run(&world, 4, ElasticOpts::default());
    let reference = fresh_small_world(4);
    for r in 0..4 {
        let (out, loaded) = outs[r].result.as_ref().expect("no faults");
        assert_eq!(out.attempts, 1);
        assert_eq!(out.epoch, 0);
        assert!(out.evicted.is_empty());
        assert_eq!(out.shards_loaded, 0, "a clean run must not touch storage");
        assert!(loaded.is_empty());
        let (o, lse, dq, dk, dv) = &reference[r];
        assert_eq!(&out.o, o);
        assert_eq!(&out.lse, lse);
        assert_eq!(&out.dq, dq);
        assert_eq!(&out.dk, dk);
        assert_eq!(&out.dv, dv);
    }
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
        path: dir.join("train.ckpt"),
        max_restarts: 0,
        sharded: false,
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
                path: dir.join(if in_step { "in-step" } else { "train.ckpt" }),
                max_restarts: 0,
                sharded: in_step,
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

/// Reference: double-ring forward + Algorithm 2 backward on a fresh
/// `nodes × gpn` cluster that never saw a fault.
fn fresh_double_ring_world(nodes: usize, gpn: usize) -> Vec<(Mat, Vec<f32>, Mat, Mat, Mat)> {
    let w = World::new(Topology::a800(nodes, gpn));
    let g = nodes * gpn;
    w.run_results(|comm| {
        let (q, k, v, go) = shard_of(g, comm.rank());
        let shard = AttnShard {
            q: &q,
            k: &k,
            v: &v,
            scale: scale(),
            mask: &AttnMask::Causal,
            layout: Layout::Zigzag,
            seq_len: N,
            cost: CostModel::free(),
            max_token: None,
            skip: false,
        };
        let spec = DoubleRingSpec::full(comm.topology());
        let fwd = try_double_ring_forward_heads_on(comm, std::slice::from_ref(&shard), &spec)
            .expect("clean double-ring forward")
            .remove(0);
        let back = BackwardInputs {
            o: &fwd.o,
            lse: &fwd.lse,
            grad_o: &go,
        };
        let (dq, dk, dv) = try_double_ring_backward_alg2_on(comm, &shard, &back, &spec)
            .expect("clean double-ring backward");
        (fwd.o, fwd.lse, dq, dk, dv)
    })
}

#[test]
fn ragged_survivors_fall_back_to_the_flat_ring_bit_exactly() {
    // Rank 1 of a 2-node × 2-GPU cluster dies mid-double-ring. The
    // survivor set [0, 2, 3] is ragged across nodes (1 GPU on node 0,
    // 2 on node 1), so no inner/outer split exists: the re-run must land
    // on the flat ring and still be bit-identical to a fresh 3-rank flat
    // run.
    let plan = FaultPlan::new(19).crash_at_op(1, 5).recv_deadline(60.0);
    let world = World::with_faults(Topology::a800(2, 2), plan);
    let opts = ElasticOpts {
        double_ring: true,
        warm_start: false,
        skip_masked_rounds: false,
    };
    let outs = elastic_run(&world, 4, opts);

    let reference = fresh_small_world(3);
    for (pos, &r) in [0usize, 2, 3].iter().enumerate() {
        let (out, _) = outs[r].result.as_ref().expect("survivor completes");
        assert_eq!(out.evicted, vec![1], "rank {r}");
        assert!(
            out.flat_fallbacks >= 1,
            "rank {r}: ragged [0,2,3] has no node-local split, got {} fallbacks",
            out.flat_fallbacks
        );
        let (o, lse, dq, dk, dv) = &reference[pos];
        assert_eq!(&out.o, o, "rank {r}: O");
        assert_eq!(&out.lse, lse, "rank {r}: Lse");
        assert_eq!(&out.dq, dq, "rank {r}: dQ");
        assert_eq!(&out.dk, dk, "rank {r}: dK");
        assert_eq!(&out.dv, dv, "rank {r}: dV");
    }
}

#[test]
fn node_balanced_survivors_keep_the_double_ring() {
    // Ranks 1 and 3 die, one per node. The survivor set [0, 2] is
    // node-balanced (1 GPU per node), so the topology-aware schedule must
    // survive the shrink: the final attempt runs a genuine 2-node × 1-GPU
    // double ring, bit-identical to a fresh cluster of that shape.
    let plan = FaultPlan::new(29)
        .crash_at_op(1, 5)
        .crash_at_op(3, 9)
        .recv_deadline(60.0);
    let world = World::with_faults(Topology::a800(2, 2), plan);
    let opts = ElasticOpts {
        double_ring: true,
        warm_start: false,
        skip_masked_rounds: false,
    };
    let outs = elastic_run(&world, 4, opts);

    let reference = fresh_double_ring_world(2, 1);
    for (pos, &r) in [0usize, 2].iter().enumerate() {
        let (out, _) = outs[r].result.as_ref().expect("survivor completes");
        let mut evicted = out.evicted.clone();
        evicted.sort_unstable();
        assert_eq!(evicted, vec![1, 3], "rank {r}");
        let (o, lse, dq, dk, dv) = &reference[pos];
        assert_eq!(&out.o, o, "rank {r}: O");
        assert_eq!(&out.lse, lse, "rank {r}: Lse");
        assert_eq!(&out.dq, dq, "rank {r}: dQ");
        assert_eq!(&out.dk, dk, "rank {r}: dK");
        assert_eq!(&out.dv, dv, "rank {r}: dV");
    }
}

/// Engine config whose sequence length keeps the zigzag layout valid for
/// every world size the elastic tests pass through: 48 is divisible by
/// `2·g` for g ∈ {2, 3, 4}.
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

#[test]
fn in_step_recovery_replays_only_the_failed_step_bit_exactly() {
    let cfg = elastic_cfg();
    let steps = 4;
    let f = 2; // the step the crash interrupts
    let victim = 2;
    // Aim the crash mid-step: between the victim's op counts at the end of
    // step f-1 and the end of step f.
    let before = elastic_ops_after(&cfg, Topology::single_node(4), victim, f);
    let after = elastic_ops_after(&cfg, Topology::single_node(4), victim, f + 1);
    assert!(after > before, "a step must cost comm ops");
    let crash_op = (before + after) / 2;

    let dir = scratch("in-step");
    let rcfg = RecoveryCfg {
        every: 100,
        path: dir.clone(),
        max_restarts: 0,
        sharded: true,
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
    let (la, flat_a) = segment(Topology::single_node(4), None, 0, f, &cfg);
    let (lb, flat_b) = segment(Topology::single_node(3), Some(&flat_a), f, steps, &cfg);
    let mut expect = la;
    expect.extend(lb);
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
        let (la, flat_a) = segment(topo.clone(), None, 0, f, &cfg);
        // Seven survivors are ragged across the two nodes: they fall back
        // to the flat ring.
        let (lb, flat_b) = segment(Topology::single_node(7), Some(&flat_a), f, steps, &flat);
        let mut expect = la;
        expect.extend(lb);
        for op in ops.start + before..ops.end + before {
            let ctx = format!("{:?} op {op}", cfg.backend);
            let dir = scratch(&format!("two-level-crash-{op}"));
            let rcfg = RecoveryCfg {
                every: 100,
                path: dir.clone(),
                max_restarts: 0,
                sharded: true,
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
        sharded: true,
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
        sharded: true,
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
        sharded: true,
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
