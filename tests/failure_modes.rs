//! Failure-injection and misuse tests: the library must fail loudly and
//! precisely, not silently corrupt results.

use burstengine::prelude::*;

#[test]
fn mismatched_recv_type_is_a_typed_shape_mismatch() {
    let world = World::new(Topology::single_node(2));
    let outs = world.run_faulty::<_, CommError, _>(|comm| {
        if comm.rank() == 0 {
            comm.try_send_vec(1, &[1.0, 2.0])?;
            Ok(())
        } else {
            // Expecting a matrix where a vector was sent.
            comm.try_recv_mat(0).map(|_| ())
        }
    });
    assert!(outs[0].result.is_ok(), "sender is unaffected");
    match &outs[1].result {
        Err(CommError::ShapeMismatch {
            rank,
            src,
            expected,
            got,
        }) => {
            assert_eq!((*rank, *src), (1, 0), "error must name both ends");
            assert_eq!(*expected, "Mat");
            assert!(got.contains("Vec"), "got must describe the payload: {got}");
        }
        other => panic!("expected a typed ShapeMismatch, got {other:?}"),
    }
}

#[test]
fn rank_panic_surfaces_as_typed_panicked_error() {
    let world = World::new(Topology::single_node(2));
    let outs = world.run_faulty::<_, CommError, _>(|comm| {
        if comm.rank() == 1 {
            panic!("injected rank failure");
        }
        // Rank 0 performs no communication with rank 1, so it completes.
        Ok(comm.rank())
    });
    assert_eq!(outs[0].result, Ok(0), "healthy rank completes");
    match &outs[1].result {
        Err(CommError::Panicked { rank, detail }) => {
            assert_eq!(*rank, 1, "error must name the dead rank");
            assert!(
                detail.contains("injected rank failure"),
                "detail must carry the panic message: {detail}"
            );
        }
        other => panic!("expected a typed Panicked error, got {other:?}"),
    }
}

#[test]
fn shape_mismatched_collective_is_a_typed_rejection() {
    let world = World::new(Topology::single_node(2));
    let outs = world.run_faulty::<_, CommError, _>(|comm| {
        // Ranks contribute different lengths to an all-reduce.
        let v = vec![0.0f32; 2 + comm.rank()];
        comm.try_all_reduce_vec(&v).map(|_| ())
    });
    // Rank 0 (the reducer) detects the mismatch; rank 1 then loses its peer.
    match &outs[0].result {
        Err(CommError::ShapeMismatch { rank, src, got, .. }) => {
            assert_eq!((*rank, *src), (0, 1));
            assert!(
                got.contains("Vec[3]") && got.contains("Vec[2]"),
                "mismatch must report both lengths: {got}"
            );
        }
        other => panic!("expected a typed ShapeMismatch, got {other:?}"),
    }
    assert!(
        matches!(
            outs[1].result,
            Err(CommError::PeerLost {
                rank: 1,
                src: 0,
                ..
            })
        ),
        "the other rank must observe the aborted reducer: {:?}",
        outs[1].result
    );
}

#[test]
fn layout_rejects_indivisible_sequences() {
    let panic_message = |f: Box<dyn FnOnce() -> Vec<usize>>| -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("indivisible layout must be rejected");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload must be a message")
    };
    // 30 tokens on 4 ranks trips the general divisibility check …
    let msg = panic_message(Box::new(|| Layout::Zigzag.indices(30, 4, 0)));
    assert!(
        msg.contains("sequence 30 not divisible by 4 ranks"),
        "rejection must name the sequence and rank count: {msg}"
    );
    // … while 12 tokens divide by 4 ranks but not into 2G = 8 zigzag
    // chunks, tripping the zigzag-specific check with its own message.
    let msg = panic_message(Box::new(|| Layout::Zigzag.indices(12, 4, 0)));
    assert!(
        msg.contains("zigzag: sequence 12 must divide into 2G = 8 chunks"),
        "rejection must name the zigzag chunk requirement: {msg}"
    );
}

#[test]
fn attention_rejects_inconsistent_shard_shapes() {
    let world = World::new(Topology::single_node(2));
    let n = 16;
    let outs = world.run_faulty::<_, AttnFailure, _>(|comm| {
        // K shard deliberately has the wrong row count.
        let q = randn_mat(n / 2, 4, 1.0, 1);
        let k = randn_mat(n / 2 + 1, 4, 1.0, 2);
        let v = randn_mat(n / 2 + 1, 4, 1.0, 3);
        let go = randn_mat(n / 2, 4, 1.0, 4);
        try_run_attention_opts(
            Algo::BurstFlat,
            comm,
            &q,
            &k,
            &v,
            &go,
            0.5,
            &AttnMask::Causal,
            Layout::Contiguous,
            n,
            &CostModel::free(),
            false,
        )
    });
    for out in &outs {
        assert!(
            out.result.is_err(),
            "rank {}: inconsistent shard shapes must fail",
            out.rank
        );
    }
    // The failure is typed, not an unwinding panic: whichever rank tripped
    // the internal shape check reports Panicked with its rank attached,
    // and any peer mid-exchange observes the loss as a comm error.
    assert!(
        outs.iter().any(|o| matches!(
            o.result.as_ref().unwrap_err().source,
            CommError::Panicked { rank, .. } if rank == o.rank
        )),
        "some rank must report the shape check it tripped: {outs:?}"
    );
}

#[test]
fn ulysses_error_is_typed_not_a_panic() {
    use burstengine::dattn::ulysses::{try_ulysses_forward, UlyssesError};
    let world = World::new(Topology::single_node(2));
    let outs = world.run_results(|comm| {
        let members = vec![0usize, 1];
        let idx = vec![vec![0usize, 1], vec![2usize, 3]];
        let heads: Vec<Mat> = (0..3).map(|h| randn_mat(2, 4, 1.0, h)).collect();
        try_ulysses_forward(
            comm,
            &members,
            &idx,
            &heads,
            &heads,
            &heads,
            0.5,
            &AttnMask::Causal,
            &CostModel::free(),
        )
        .err()
    });
    for e in outs {
        assert_eq!(
            e,
            Some(DattnError::Infeasible(UlyssesError::HeadsNotDivisible {
                heads: 3,
                group: 2
            }))
        );
    }
}

#[test]
fn oom_and_head_failures_are_reported_not_panicked() {
    use burstengine::perf::endtoend::Infeasible;
    let c = Cluster::a800(4, 8);
    let r = evaluate(
        &Method::MegatronCp,
        &c,
        &PaperModel::llama_14b(),
        &AttnMask::Causal,
        1 << 20,
    );
    match r {
        Err(Infeasible::Oom {
            required_gb,
            budget_gb,
        }) => {
            assert!(required_gb > budget_gb);
            // The error formats into the string the tables harness prints.
            let msg = format!(
                "{}",
                Infeasible::Oom {
                    required_gb,
                    budget_gb
                }
            );
            assert!(msg.contains("OOM"));
        }
        other => panic!("expected OOM, got {other:?}"),
    }
}

/// Fault-injection seed for the plans below; the CI matrix overrides it via
/// the `FAULT_SEED` environment variable to prove determinism holds for any
/// seed, not just the default.
fn fault_seed() -> u64 {
    std::env::var("FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

#[test]
fn straggler_link_times_out_with_typed_error() {
    // Link 0→1 is a 10-virtual-second straggler; the receiver only waits 1s.
    let plan = FaultPlan::new(fault_seed())
        .delay_link(0, 1, 10.0, 0.0)
        .recv_deadline(1.0);
    let world = World::with_faults(Topology::single_node(2), plan);
    let outs = world.run_faulty::<_, CommError, _>(|comm| {
        if comm.rank() == 0 {
            comm.try_send_vec(1, &[1.0, 2.0])
        } else {
            comm.try_recv_vec(0).map(|_| ())
        }
    });
    assert!(outs[0].result.is_ok(), "sender is unaffected");
    match &outs[1].result {
        Err(CommError::Timeout { rank, src, .. }) => {
            assert_eq!((*rank, *src), (1, 0), "timeout must name both ends");
        }
        other => panic!("expected a typed timeout, got {other:?}"),
    }
}

#[test]
fn dropped_message_surfaces_as_timeout_not_deadlock() {
    let plan = FaultPlan::new(fault_seed())
        .drop_msg(0, 1, 0)
        .recv_deadline(1.0);
    let world = World::with_faults(Topology::single_node(2), plan);
    let outs = world.run_faulty::<_, CommError, _>(|comm| {
        if comm.rank() == 0 {
            comm.try_send_vec(1, &[3.0])
        } else {
            comm.try_recv_vec(0).map(|_| ())
        }
    });
    assert!(
        matches!(
            outs[1].result,
            Err(CommError::Timeout {
                rank: 1,
                src: 0,
                ..
            })
        ),
        "dropped message must become a deadline timeout: {:?}",
        outs[1].result
    );
}

#[test]
fn corrupted_message_is_detected_by_checksum() {
    let plan = FaultPlan::new(fault_seed()).corrupt_msg(0, 1, 0);
    let world = World::with_faults(Topology::single_node(2), plan);
    let outs = world.run_faulty::<_, CommError, _>(|comm| {
        if comm.rank() == 0 {
            comm.try_send_vec(1, &[1.0, -2.0, 3.0])
        } else {
            comm.try_recv_vec(0).map(|_| ())
        }
    });
    match &outs[1].result {
        Err(CommError::Corrupt { rank, src, detail }) => {
            assert_eq!((*rank, *src), (1, 0));
            assert!(detail.contains("checksum"), "detail must explain: {detail}");
        }
        other => panic!("expected a corruption error, got {other:?}"),
    }
}

#[test]
fn crash_mid_ring_attention_names_rank_and_round() {
    let n = 32;
    let d = 8;
    let g = 4;
    let crashed = 2usize;
    // Rank 2 dies after a handful of communication ops — mid-ring.
    let plan = FaultPlan::new(fault_seed())
        .crash_at_op(crashed, 4)
        .recv_deadline(60.0);
    let world = World::with_faults(Topology::single_node(g), plan);
    let q = randn_mat(n, d, 0.7, 1);
    let k = randn_mat(n, d, 0.7, 2);
    let v = randn_mat(n, d, 0.7, 3);
    let go = randn_mat(n, d, 0.8, 4);
    let outs = world.run_faulty::<_, AttnFailure, _>(|comm| {
        let idx = Layout::Zigzag.indices(n, g, comm.rank());
        try_run_attention_opts(
            Algo::BurstFlat,
            comm,
            &q.gather_rows(&idx),
            &k.gather_rows(&idx),
            &v.gather_rows(&idx),
            &go.gather_rows(&idx),
            1.0 / (d as f32).sqrt(),
            &AttnMask::Causal,
            Layout::Zigzag,
            n,
            &CostModel::free(),
            false,
        )
    });
    for out in &outs {
        assert!(
            out.result.is_err(),
            "rank {}: a mid-ring crash must fail every rank",
            out.rank
        );
    }
    let failures: Vec<&AttnFailure> = outs
        .iter()
        .map(|o| o.result.as_ref().unwrap_err())
        .collect();
    assert!(
        matches!(failures[crashed].source, CommError::Crashed { rank, .. } if rank == crashed),
        "the crashed rank reports its own crash: {:?}",
        failures[crashed]
    );
    assert!(
        failures
            .iter()
            .enumerate()
            .any(|(r, e)| r != crashed && e.source.peer() == Some(crashed)),
        "some survivor must name rank {crashed} as the failed peer: {failures:?}"
    );
    let located = failures
        .iter()
        .find(|e| e.context.is_some())
        .expect("at least one failure carries (phase, round) context");
    let msg = located.to_string();
    assert!(
        msg.contains("round") && (msg.contains("forward") || msg.contains("backward")),
        "failure must name the phase and ring round: {msg}"
    );
}

#[test]
fn fault_injection_is_deterministic_for_a_fixed_seed() {
    let run = || {
        let plan = FaultPlan::new(fault_seed())
            .delay_link(0, 1, 0.9, 0.3)
            .drop_msg(1, 0, 1)
            .recv_deadline(1.0);
        let world = World::with_faults(Topology::single_node(2), plan);
        let outs = world.run_faulty::<_, CommError, _>(|comm| {
            let peer = 1 - comm.rank();
            for _ in 0..3 {
                comm.try_send_vec(peer, &[comm.rank() as f32])?;
                comm.try_recv_vec(peer)?;
            }
            Ok(())
        });
        outs.iter()
            .map(|o| (o.rank, format!("{:?}", o.result), o.time.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run(), "same seed must reproduce the same failures");
}

#[test]
fn transient_faults_split_into_healed_vs_escalated() {
    // One plan, two fates: the drop on 0→1 is transient (a single lost
    // transmission — the transport heals it), while the 10-second flap on
    // 0→2 outlives the whole retry budget (the transport gives up and the
    // failure escalates to the receiver). The counters must record that
    // split exactly: one healed incident, one give-up, and a receiver
    // timeout only where healing failed.
    let tp = TransportPolicy::default();
    let plan = |reliable: bool| {
        let p = FaultPlan::new(fault_seed())
            .drop_msg(0, 1, 0)
            .flap_link(0, 2, 0.0, 10.0)
            .recv_deadline(1.0);
        if reliable {
            p.reliable()
        } else {
            p
        }
    };
    let run = |reliable: bool| {
        let world = World::with_faults(Topology::single_node(3), plan(reliable));
        world.run_faulty::<_, CommError, _>(|comm| match comm.rank() {
            0 => {
                comm.try_send_vec(1, &[4.0, 5.0])?;
                comm.try_send_vec(2, &[6.0, 7.0])?;
                Ok(vec![])
            }
            1 => comm.try_recv_vec(0),
            _ => comm.try_recv_vec(0),
        })
    };

    let healed = run(true);
    assert_eq!(
        healed[1].result.as_deref(),
        Ok(&[4.0, 5.0][..]),
        "the transient drop must heal invisibly"
    );
    assert!(
        matches!(
            healed[2].result,
            Err(CommError::Timeout {
                rank: 2,
                src: 0,
                ..
            })
        ),
        "the unhealable flap must escalate: {:?}",
        healed[2].result
    );
    assert_eq!(healed[0].faults.healed, 1, "one incident healed");
    assert_eq!(healed[0].faults.giveups, 1, "one incident escalated");
    assert_eq!(
        healed[0].faults.retransmits,
        1 + u64::from(tp.max_resends),
        "one resend heals the drop; the flap burns the whole budget"
    );
    assert_eq!(
        healed[1].faults.timeouts, 0,
        "healed link: no receiver timeout"
    );
    assert_eq!(healed[2].faults.timeouts, 1, "escalated link: exactly one");

    // Retries disabled: the same plan reproduces today's escalation path
    // on BOTH links — no retransmissions, both receivers time out.
    let legacy = run(false);
    assert!(matches!(
        legacy[1].result,
        Err(CommError::Timeout {
            rank: 1,
            src: 0,
            ..
        })
    ));
    assert!(matches!(
        legacy[2].result,
        Err(CommError::Timeout {
            rank: 2,
            src: 0,
            ..
        })
    ));
    assert_eq!(legacy[0].faults.retransmits, 0);
    assert_eq!(legacy[0].faults.healed, 0);
    assert_eq!(legacy[0].faults.giveups, 0);
}

#[test]
fn corrupted_checkpoint_is_rejected_on_load() {
    let cfg = ModelConfig::tiny();
    let m = Model::new(cfg, 99);
    let dir = std::env::temp_dir().join(format!("burstengine-corrupt-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.ckpt");
    m.save(&path).unwrap();
    // Flip one payload byte — a single bit of rot anywhere in the file.
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    let err = Model::load(&path).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(
        err.to_string().contains("checksum"),
        "rejection must name the checksum: {err}"
    );
    std::fs::remove_file(&path).ok();
}
