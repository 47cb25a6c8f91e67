//! Elastic checkpoint-recovery integration tests: a training job that loses
//! a rank mid-run, restores the last good checkpoint on a fresh world and
//! replays must be **bit-identical** to a job that never failed — the
//! operational guarantee behind the paper's week-long 1M-token runs.

use burstengine::model::checkpoint_io::tmp_path;
use burstengine::model::checkpoint_shard::shard_path;
use burstengine::model::engine::{run_rank, run_span};
use burstengine::model::fsdp;
use burstengine::prelude::*;
use std::cell::Cell;
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("burstengine-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn recovered_run_is_bit_identical_to_uninterrupted() {
    // Restart recovery commits its sharded checkpoints inside every
    // distributed backend's steps: the flat and the two-level ring, USP and
    // Ulysses.
    for (case, (topo, backend)) in [
        (Topology::single_node(2), Backend::Ring(Algo::BurstFlat)),
        (Topology::a800(2, 2), Backend::Ring(Algo::BurstTopo)),
        (Topology::a800(2, 2), Backend::Usp { ulysses_size: 2 }),
        (Topology::single_node(2), Backend::Ulysses),
    ]
    .into_iter()
    .enumerate()
    {
        let cfg = EngineConfig::tiny(backend);
        let steps = 6;

        // Reference: an uninterrupted run, plus the op count a full run needs
        // so the crash below can be planted at ~2/3 of the job.
        let probe = World::new(topo.clone()).run_results(|comm| {
            let (losses, _) = run_rank(comm, &cfg, steps);
            (losses, comm.op_count())
        });
        let ref_losses = probe[0].0.clone();
        let crash_op = probe[1].1 * 2 / 3;
        assert!(crash_op > 0, "{backend:?}: probe run must communicate");

        let dir = scratch(&format!("recovery-{case}"));
        let rcfg = RecoveryCfg {
            every: 2,
            path: dir.join("faulty"),
            max_restarts: 3,
            shrink: false,
            in_step: false,
            quiet: true,
        };
        // Attempt 0 runs on a cluster where rank 1 dies mid-job; every later
        // attempt gets a healthy replacement cluster.
        let report = train_with_recovery(
            |attempt, _| {
                if attempt == 0 {
                    let plan = FaultPlan::new(7)
                        .crash_at_op(1, crash_op)
                        .recv_deadline(60.0);
                    World::with_faults(topo.clone(), plan)
                } else {
                    World::new(topo.clone())
                }
            },
            &cfg,
            steps,
            &rcfg,
        )
        .expect("recovery must succeed within max_restarts");

        assert!(
            report.restarts >= 1,
            "{backend:?}: the planted crash must trigger a restart"
        );
        assert_eq!(report.restarts, report.failures.len());
        assert!(
            report.failures.iter().all(|e| matches!(
                e,
                CommError::Crashed { .. } | CommError::PeerLost { .. } | CommError::Timeout { .. }
            )),
            "{backend:?}: every failure must be typed: {:?}",
            report.failures
        );
        assert_eq!(
            report.losses, ref_losses,
            "{backend:?}: recovered loss history must be bit-identical to the uninterrupted run"
        );

        // A never-failing recovery run reproduces the same final state —
        // compare the recovered model against it bit for bit.
        let clean_rcfg = RecoveryCfg {
            path: dir.join("clean"),
            max_restarts: 0,
            ..rcfg
        };
        let clean = train_with_recovery(|_, _| World::new(topo.clone()), &cfg, steps, &clean_rcfg)
            .expect("clean run cannot fail");
        assert_eq!(clean.restarts, 0);
        assert_eq!(clean.losses, ref_losses);
        let bits = |m: &Model| -> Vec<u32> { m.flat_state().iter().map(|x| x.to_bits()).collect() };
        assert!(
            bits(&report.final_model) == bits(&clean.final_model),
            "{backend:?}: recovered state must match the uninterrupted run exactly"
        );

        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn checkpoint_survives_a_crash_mid_write() {
    let cfg = EngineConfig::tiny(Backend::Ring(Algo::RingFlat));
    let world = || World::new(Topology::single_node(2));
    let dir = scratch("atomic-ckpt");
    let rcfg = RecoveryCfg {
        every: 3,
        path: dir.clone(),
        max_restarts: 0,
        shrink: false,
        in_step: false,
        quiet: true,
    };
    let first = train_with_recovery(|_, _| world(), &cfg, 3, &rcfg).unwrap();
    // A later commit dies mid-write: garbage sits in a shard's staging file
    // and the publishing rename never happens. The previous checkpoint must
    // still load, and the next commit must sweep the staging file away.
    let torn = tmp_path(&shard_path(&dir, 1));
    std::fs::write(&torn, b"torn page").unwrap();
    let (restored, man, _) = load_sharded(&dir).unwrap();
    assert_eq!(man.step, 3);
    assert_eq!(man.losses, first.losses);
    assert_eq!(restored.head.w, first.final_model.head.w);
    let resumed = train_with_recovery(|_, _| world(), &cfg, 4, &rcfg).unwrap();
    assert_eq!(resumed.shards_reloaded, 2, "the resume reads both shards");
    assert_eq!(resumed.losses[..3], first.losses[..]);
    assert!(
        !torn.exists(),
        "the next commit must sweep the staging file"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_train_checkpoint_fails_recovery_loudly() {
    let cfg = EngineConfig::tiny(Backend::Ring(Algo::RingFlat));
    let dir = scratch("corrupt-resume");
    save_sharded(&Model::new(cfg.model, 6), &dir, 2, 2, 0, &[2.0, 1.0]).unwrap();
    let shard = shard_path(&dir, 1);
    let mut bytes = std::fs::read(&shard).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&shard, &bytes).unwrap();
    let rcfg = RecoveryCfg {
        every: 2,
        path: dir.clone(),
        max_restarts: 1,
        shrink: false,
        in_step: false,
        quiet: true,
    };
    let err = train_with_recovery(|_, _| World::new(Topology::single_node(2)), &cfg, 4, &rcfg)
        .expect_err("resuming from a rotten checkpoint must not silently restart from step 0");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_crash_inside_a_commit_keeps_the_last_checkpoint_whole() {
    // Every rank stages its shard before the commit's first barrier, and
    // only the leader publishes the shards, with the manifest. Rank 1 dies
    // at each of its ops from the end of step 1 through its commit, where
    // rank 0 may already have finished the step: the restart must always
    // find the step-0 checkpoint whole and replay bit-identically.
    let topo = Topology::single_node(2);
    let cfg = EngineConfig::tiny(Backend::Ring(Algo::BurstFlat));
    let dir = scratch("commit-crash");
    let rcfg = RecoveryCfg {
        every: 1,
        path: dir.join("clean"),
        max_restarts: 1,
        shrink: false,
        in_step: false,
        quiet: true,
    };
    let clean = train_with_recovery(|_, _| World::new(topo.clone()), &cfg, 2, &rcfg)
        .expect("clean run cannot fail");
    let mut restarts = 0;
    // The span probe counts no commit ops; the slack past its end covers
    // the two commits' barriers.
    let end = rank1_ops_after(&topo, |comm| {
        let mut model = Model::new(cfg.model, cfg.seed);
        run_span(comm, &cfg, &mut model, 0, 2, |_, _, _, _| {}).expect("clean span");
    });
    for op in end - 8..end + 16 {
        let rcfg = RecoveryCfg {
            path: dir.join(format!("crash-{op}")),
            ..rcfg.clone()
        };
        let report = train_with_recovery(
            |attempt, _| {
                if attempt == 0 {
                    World::with_faults(topo.clone(), FaultPlan::new(3).crash_at_op(1, op))
                } else {
                    World::new(topo.clone())
                }
            },
            &cfg,
            2,
            &rcfg,
        )
        .unwrap_or_else(|e| panic!("crash at op {op}: {e}"));
        assert_eq!(report.losses, clean.losses, "crash at op {op}");
        restarts += report.restarts;
    }
    assert!(restarts > 0, "the sweep must crash some attempts");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn in_step_recovery_rejects_a_non_ring_backend_before_building_a_world() {
    for backend in [
        Backend::Local,
        Backend::Usp { ulysses_size: 2 },
        Backend::Ulysses,
    ] {
        let cfg = EngineConfig::tiny(backend);
        let dir = scratch("in-step-backend");
        let rcfg = RecoveryCfg {
            every: 1,
            path: dir.clone(),
            max_restarts: 2,
            shrink: false,
            in_step: true,
            quiet: true,
        };
        let worlds = Cell::new(0usize);
        let err = train_with_recovery(
            |_, _| {
                worlds.set(worlds.get() + 1);
                World::new(Topology::a800(2, 2))
            },
            &cfg,
            2,
            &rcfg,
        )
        .expect_err("in-step recovery needs a ring backend");
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidInput,
            "{backend:?}: {err}"
        );
        assert_eq!(worlds.get(), 0, "{backend:?}: no world may be built");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Rank 1's comm-op count after `f` runs on a clean `topo` world.
fn rank1_ops_after(topo: &Topology, f: impl Fn(&mut Communicator) + Sync) -> u64 {
    World::new(topo.clone()).run_results(|comm| {
        f(comm);
        comm.op_count()
    })[1]
}

#[test]
fn run_span_returns_a_typed_error_when_a_rank_crashes_mid_step() {
    for (topo, backend) in [
        (Topology::a800(2, 2), Backend::Ring(Algo::BurstTopo)),
        (Topology::single_node(2), Backend::Ring(Algo::BurstFlat)),
        (Topology::a800(2, 2), Backend::Usp { ulysses_size: 2 }),
        (Topology::a800(2, 4), Backend::Usp { ulysses_size: 2 }),
        (Topology::single_node(2), Backend::Ulysses),
    ] {
        let cfg = EngineConfig::tiny(backend);
        let fresh = || Model::new(cfg.model, cfg.seed);
        let span = |comm: &mut Communicator, steps: usize| {
            run_span(comm, &cfg, &mut fresh(), 0, steps, |_, _, _, _| {})
        };
        // Rank 1's ops in step 0 and in its FSDP gradient sync, the step's
        // last collective, measured on clean worlds. A crash at any op of
        // step 0 must fail every rank softly. Before the sync, every peer
        // still needs rank 1 within step 0. Inside it, a peer may already
        // hold all it needs from rank 1 and finish step 0, so those crashes
        // run a two-step span, whose step 1 gathers weights from rank 1
        // again. The sync is measured as the step runs it, carrying the
        // loss sum and the skip flag.
        let sync = rank1_ops_after(&topo, |comm| {
            let mut model = fresh();
            let params = &mut model.params_mut();
            fsdp::try_sync_grads(comm, &mut fsdp::Group::World, params, &[0.0, 0.0])
                .expect("clean sync");
        });
        let step = rank1_ops_after(&topo, |comm| {
            span(comm, 1).expect("clean step");
        });
        assert!(
            sync > 0 && step > sync,
            "{backend:?}: step 0 must communicate"
        );
        for (ops, steps) in [(0..step - sync, 1), (step - sync..step, 2)] {
            for op in ops {
                let plan = FaultPlan::new(31).crash_at_op(1, op);
                // `World::run` re-raises any rank's panic, so reaching the
                // checks below means every rank returned.
                let errs = World::with_faults(topo.clone(), plan)
                    .run_results(|comm| span(comm, steps).err());
                for (rank, e) in errs.iter().enumerate() {
                    assert!(
                        e.is_some(),
                        "{backend:?}, crash at op {op}: rank {rank} finished the span"
                    );
                }
                assert!(
                    matches!(errs[1], Some(CommError::Crashed { rank: 1, .. })),
                    "{backend:?}, crash at op {op}: rank 1 reported {:?}",
                    errs[1]
                );
            }
        }
    }
}
