//! Elastic checkpoint-recovery integration tests: a training job that loses
//! a rank mid-run, restores the last good checkpoint on a fresh world and
//! replays must be **bit-identical** to a job that never failed — the
//! operational guarantee behind the paper's week-long 1M-token runs.

use burstengine::model::checkpoint_io::tmp_path;
use burstengine::model::engine::{run_rank, run_span};
use burstengine::model::fsdp;
use burstengine::prelude::*;
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("burstengine-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn recovered_run_is_bit_identical_to_uninterrupted() {
    let cfg = EngineConfig::tiny(Backend::Ring(Algo::BurstFlat));
    let steps = 6;
    let topo = || Topology::single_node(2);

    // Reference: an uninterrupted run, plus the op count a full run needs so
    // the crash below can be planted at ~2/3 of the job.
    let probe = World::new(topo()).run_results(|comm| {
        let (losses, _) = run_rank(comm, &cfg, steps);
        (losses, comm.op_count())
    });
    let ref_losses = probe[0].0.clone();
    let crash_op = probe[1].1 * 2 / 3;
    assert!(crash_op > 0, "probe run must perform communication");

    let dir = scratch("recovery");
    let rcfg = RecoveryCfg {
        every: 2,
        path: dir.join("train.ckpt"),
        max_restarts: 3,
        sharded: false,
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
                World::with_faults(topo(), plan)
            } else {
                World::new(topo())
            }
        },
        &cfg,
        steps,
        &rcfg,
    )
    .expect("recovery must succeed within max_restarts");

    assert!(
        report.restarts >= 1,
        "the planted crash must trigger a restart"
    );
    assert_eq!(report.restarts, report.failures.len());
    assert!(
        report.failures.iter().all(|e| matches!(
            e,
            CommError::Crashed { .. } | CommError::PeerLost { .. } | CommError::Timeout { .. }
        )),
        "every failure must be typed: {:?}",
        report.failures
    );
    assert_eq!(
        report.losses, ref_losses,
        "recovered loss history must be bit-identical to the uninterrupted run"
    );

    // A never-failing recovery run reproduces the same final weights —
    // compare the recovered model against it bit for bit.
    let clean_rcfg = RecoveryCfg {
        every: 2,
        path: dir.join("clean.ckpt"),
        max_restarts: 0,
        sharded: false,
        shrink: false,
        in_step: false,
        quiet: true,
    };
    let clean = train_with_recovery(|_, _| World::new(topo()), &cfg, steps, &clean_rcfg)
        .expect("clean run cannot fail");
    assert_eq!(clean.restarts, 0);
    assert_eq!(clean.losses, ref_losses);
    assert_eq!(
        report.final_model.head.w, clean.final_model.head.w,
        "recovered weights must match the uninterrupted run exactly"
    );
    assert_eq!(
        report.final_model.embed.table.w,
        clean.final_model.embed.table.w
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_survives_a_crash_mid_write() {
    let cfg = EngineConfig::tiny(Backend::Local);
    let dir = scratch("atomic-ckpt");
    let path = dir.join("train.ckpt");
    let ck = TrainCheckpoint {
        step: 3,
        losses: vec![1.5, 1.25, 1.0],
        model: Model::new(cfg.model, 5),
    };
    ck.save(&path).unwrap();
    // A later save dies mid-write: garbage sits in the staging file and the
    // publishing rename never happens. The previous checkpoint must still
    // load, and a fresh save must clean up after itself.
    std::fs::write(tmp_path(&path), b"torn page").unwrap();
    let restored = TrainCheckpoint::load(&path).unwrap();
    assert_eq!(restored.step, 3);
    assert_eq!(restored.losses, ck.losses);
    assert_eq!(restored.model.head.w, ck.model.head.w);
    ck.save(&path).unwrap();
    assert!(
        !tmp_path(&path).exists(),
        "save must reclaim the staging file"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_train_checkpoint_fails_recovery_loudly() {
    let cfg = EngineConfig::tiny(Backend::Ring(Algo::RingFlat));
    let dir = scratch("corrupt-resume");
    let path = dir.join("train.ckpt");
    let ck = TrainCheckpoint {
        step: 2,
        losses: vec![2.0, 1.0],
        model: Model::new(cfg.model, 6),
    };
    ck.save(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    let rcfg = RecoveryCfg {
        every: 2,
        path: path.clone(),
        max_restarts: 1,
        sharded: false,
        shrink: false,
        in_step: false,
        quiet: true,
    };
    let err = train_with_recovery(|_, _| World::new(Topology::single_node(2)), &cfg, 4, &rcfg)
        .expect_err("resuming from a rotten checkpoint must not silently restart from step 0");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    std::fs::remove_dir_all(&dir).ok();
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
