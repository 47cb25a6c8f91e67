//! Integration tests for the self-healing transport and the deterministic
//! failure detector: the bottom two rungs of the recovery ladder.
//!
//! The contract under test: any *transient* fault (drop, corruption, burst
//! drop, link flap, partition) that fits inside the transport's retry
//! budget heals invisibly — the final payloads are **bit-identical** to a
//! clean run, only virtual time and wire-byte accounting differ. An outage
//! that outlives the budget gives up and reproduces the legacy escalation
//! observables exactly, where the failure detector then separates *dead*
//! peers from merely *slow* ones.

use burst_comm::{
    CommError, DetectorCfg, FaultPlan, RetryPolicy, Topology, TransportPolicy, World,
};

/// The CI `transport-faults` job sweeps this to prove the healing path is
/// deterministic for any seed, not just the default.
fn fault_seed() -> u64 {
    std::env::var("FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// One deterministic ring workload: every rank sends a rank-tagged vector
/// to its successor `rounds` times and returns everything it received,
/// plus its final virtual clock.
fn ring_exchange(
    world: &World,
    rounds: usize,
) -> Vec<(
    Vec<Vec<f32>>,
    f64,
    burst_comm::CommStats,
    burst_comm::FaultCounters,
)> {
    let outs = world.run(|comm| {
        let g = comm.world_size();
        let next = (comm.rank() + 1) % g;
        let prev = (comm.rank() + g - 1) % g;
        let mut got = Vec::with_capacity(rounds);
        for round in 0..rounds {
            let payload: Vec<f32> = (0..16)
                .map(|i| (comm.rank() * 1000 + round * 16 + i) as f32 * 0.5)
                .collect();
            comm.try_send_vec(next, &payload).expect("send");
            got.push(comm.try_recv_vec(prev).expect("recv"));
        }
        got
    });
    outs.into_iter()
        .map(|o| (o.result, o.time, o.stats, o.faults))
        .collect()
}

#[test]
fn transient_faults_heal_bit_identical_to_clean() {
    let topo = || Topology::single_node(4);
    let rounds = 6;
    let clean = ring_exchange(&World::new(topo()), rounds);

    // Every transient fault class at once: point drops, a burst-drop
    // window, payload corruption, a link flap, and a full partition —
    // all comfortably inside the default retry budget (~51 ms).
    let tp = TransportPolicy::default();
    assert!(
        tp.min_retry_budget() > 2e-3,
        "windows below must be transient"
    );
    let plan = FaultPlan::new(fault_seed())
        .drop_msg(0, 1, 0)
        .drop_burst(1, 2, 1, 2)
        .corrupt_msg(2, 3, 1)
        .flap_link(3, 0, 0.0, 5e-4)
        .partition(&[&[0, 1], &[2, 3]], 1e-3, 2e-3)
        .recv_deadline(30.0)
        .reliable();
    let healed = ring_exchange(&World::with_faults(topo(), plan), rounds);

    let mut retransmits = 0;
    let mut healed_count = 0;
    for (rank, ((cp, ct, cs, _), (hp, ht, hs, hf))) in clean.iter().zip(healed.iter()).enumerate() {
        // Bit-identical payloads: healing is invisible above the transport.
        assert_eq!(cp, hp, "rank {rank}: healed payloads must match clean run");
        // Only virtual time and retransmit accounting may differ.
        assert!(ht >= ct, "rank {rank}: healing can only cost virtual time");
        assert_eq!(
            cs.total_bytes(),
            hs.total_bytes(),
            "rank {rank}: clean byte counters are untouched by healing"
        );
        assert_eq!(
            hs.wire_bytes_with_retrans(),
            hs.total_bytes() + hs.retrans_bytes,
            "rank {rank}: retransmit bytes are accounted exactly"
        );
        // Uniform 16-float payloads: every retransmitted attempt re-ships
        // exactly 64 bytes.
        assert_eq!(hs.retrans_bytes, hf.retransmits as f64 * 64.0);
        assert_eq!(hs.retrans_msgs, hf.retransmits);
        assert_eq!(hf.giveups, 0, "rank {rank}: every fault must heal");
        assert_eq!(hf.timeouts, 0, "rank {rank}: no receiver ever times out");
        retransmits += hf.retransmits;
        healed_count += hf.healed;
    }
    assert!(
        retransmits > 0,
        "the plan must actually exercise the transport"
    );
    assert!(healed_count > 0, "healed incidents must be counted");
    let total_faults: u64 = healed.iter().map(|(_, _, _, f)| f.total()).sum();
    assert!(
        total_faults > 0,
        "injected faults must be visible in counters"
    );
}

#[test]
fn healing_is_deterministic_for_a_fixed_seed() {
    let run = || {
        let plan = FaultPlan::new(fault_seed())
            .drop_burst(0, 1, 0, 2)
            .flap_link(1, 0, 0.0, 4e-4)
            .recv_deadline(30.0)
            .reliable();
        let world = World::with_faults(Topology::single_node(2), plan);
        ring_exchange(&world, 4)
            .into_iter()
            .map(|(p, t, s, f)| (p, t.to_bits(), s.retrans_msgs, f.retransmits, f.healed))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        run(),
        run(),
        "same seed, same healing dialogue, bit for bit"
    );
}

#[test]
fn outage_beyond_the_budget_gives_up_and_escalates_like_legacy() {
    // A 10-virtual-second outage dwarfs the ~77 ms worst-case retry
    // budget: the transport must give up and reproduce the legacy
    // observable (a receive timeout naming the same endpoints).
    let run = |reliable: bool| {
        let mut plan = FaultPlan::new(fault_seed())
            .flap_link(0, 1, 0.0, 10.0)
            .recv_deadline(1.0);
        if reliable {
            plan = plan.reliable();
        }
        let world = World::with_faults(Topology::single_node(2), plan);
        world.run_faulty::<_, CommError, _>(|comm| {
            if comm.rank() == 0 {
                comm.try_send_vec(1, &[1.0, 2.0])
            } else {
                comm.try_recv_vec(0).map(|_| ())
            }
        })
    };
    let with_transport = run(true);
    let without = run(false);
    for (label, outs) in [("reliable", &with_transport), ("legacy", &without)] {
        assert!(
            matches!(
                outs[1].result,
                Err(CommError::Timeout {
                    rank: 1,
                    src: 0,
                    ..
                })
            ),
            "{label}: an unhealable outage must escalate as a timeout: {:?}",
            outs[1].result
        );
    }
    let tp = TransportPolicy::default();
    assert_eq!(
        with_transport[0].faults.retransmits,
        u64::from(tp.max_resends),
        "the whole resend budget is spent before giving up"
    );
    assert_eq!(with_transport[0].faults.giveups, 1);
    assert_eq!(with_transport[0].faults.healed, 0);
    assert_eq!(
        without[0].faults.retransmits, 0,
        "legacy path never resends"
    );
    assert_eq!(without[0].faults.giveups, 0);
    // Both paths burn the same receiver-side escalation counter.
    assert_eq!(with_transport[1].faults.timeouts, 1);
    assert_eq!(without[1].faults.timeouts, 1);
}

#[test]
fn partition_cuts_cross_group_links_only() {
    // Groups {0,1} and {2,3} split for the first virtual second; intra-
    // group traffic is untouched, cross-group traffic is lost (and with no
    // transport, surfaces as a timeout).
    let plan = FaultPlan::new(fault_seed())
        .partition(&[&[0, 1], &[2, 3]], 0.0, 1.0)
        .recv_deadline(0.5);
    let world = World::with_faults(Topology::single_node(4), plan);
    let outs = world.run_faulty::<_, CommError, _>(|comm| match comm.rank() {
        0 => {
            comm.try_send_vec(1, &[7.0])?; // same group: delivered
            comm.try_send_vec(2, &[8.0])?; // cross group: lost
            Ok(vec![])
        }
        1 => comm.try_recv_vec(0),
        2 => comm.try_recv_vec(0),
        _ => Ok(vec![]),
    });
    assert_eq!(
        outs[1].result.as_deref(),
        Ok(&[7.0][..]),
        "intra-group delivery must survive the partition"
    );
    assert!(
        matches!(
            outs[2].result,
            Err(CommError::Timeout {
                rank: 2,
                src: 0,
                ..
            })
        ),
        "cross-group message must be lost: {:?}",
        outs[2].result
    );
    assert_eq!(
        outs[0].faults.flaps, 1,
        "the partition loss lands in the sender's flap counter"
    );
}

#[test]
fn detector_confirms_death_at_the_policy_threshold() {
    // Three dropped messages = three consecutive receive failures = the
    // retry policy's max_attempts: the default detector confirms the peer
    // dead exactly when the pre-detector escalation would have evicted.
    let policy = RetryPolicy::default();
    assert_eq!(policy.max_attempts, 3, "test tracks the default policy");
    let plan = FaultPlan::new(fault_seed())
        .drop_burst(0, 1, 0, 3)
        .recv_deadline(1.0);
    let world = World::with_faults(Topology::single_node(2), plan);
    let outs = world.run_faulty::<_, CommError, _>(|comm| {
        if comm.rank() == 0 {
            for _ in 0..3 {
                comm.try_send_vec(1, &[1.0])?;
            }
            Ok((false, false, true))
        } else {
            let mut confirmed = Vec::new();
            for _ in 0..3 {
                assert!(matches!(
                    comm.try_recv_vec(0),
                    Err(CommError::Timeout { .. })
                ));
                confirmed.push(comm.peer_confirmed_dead(0, 3));
            }
            assert_eq!(comm.failure_detector().consecutive_failures(0), 3);
            assert!(comm.suspicion_phi(0) >= 3.0);
            Ok((confirmed[0], confirmed[1], confirmed[2]))
        }
    });
    assert_eq!(
        outs[1].result,
        Ok((false, false, true)),
        "confirmation fires exactly at max_attempts failures"
    );
    assert_eq!(
        outs[1].faults.suspicions, 1,
        "one incident, one suspicion — repeat confirmations do not re-count"
    );
}

#[test]
fn detector_threshold_override_keeps_a_slow_peer_alive() {
    // Same three losses, but the detector is configured to demand five
    // consecutive failures: the peer is *slow*, not dead — and a single
    // clean delivery resets the streak entirely.
    let plan = FaultPlan::new(fault_seed())
        .drop_burst(0, 1, 0, 3)
        .recv_deadline(1.0)
        .with_detector(DetectorCfg {
            fail_threshold: Some(5),
            ..DetectorCfg::default()
        });
    let world = World::with_faults(Topology::single_node(2), plan);
    let outs = world.run_faulty::<_, CommError, _>(|comm| {
        if comm.rank() == 0 {
            for _ in 0..4 {
                comm.try_send_vec(1, &[2.5])?;
            }
            Ok(0)
        } else {
            for _ in 0..3 {
                assert!(matches!(
                    comm.try_recv_vec(0),
                    Err(CommError::Timeout { .. })
                ));
                assert!(
                    !comm.peer_confirmed_dead(0, 3),
                    "3 < 5 failures: slow, not dead"
                );
            }
            // The fourth message survives: the streak resets.
            let v = comm.try_recv_vec(0)?;
            assert_eq!(v, vec![2.5]);
            assert_eq!(comm.failure_detector().consecutive_failures(0), 0);
            assert!(!comm.peer_confirmed_dead(0, 3));
            Ok(1)
        }
    });
    assert_eq!(outs[1].result, Ok(1));
    assert_eq!(
        outs[1].faults.suspicions, 0,
        "a withheld suspicion must never be announced"
    );
}

#[test]
fn seeded_flap_matrix_heals_with_detector_on() {
    // The CI `transport-faults` job runs this over a FAULT_SEED matrix and
    // collects the `[recovery]` lines as an artifact. The flap/partition
    // windows are a pure function of the seed, always inside the retry
    // budget — so for ANY seed the run must heal completely: zero
    // give-ups, zero receiver timeouts, zero suspicions, payloads
    // bit-identical to the clean run.
    let seed = fault_seed();
    let tp = TransportPolicy::default();
    let budget = tp.min_retry_budget();
    let rounds = 8;
    let topo = || Topology::single_node(4);
    let clean = ring_exchange(&World::new(topo()), rounds);

    // Seed-derived transient windows: two link flaps and one partition,
    // each strictly shorter than half the retry budget.
    let mix = |k: u64| {
        let mut x = seed.wrapping_add(k).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 31;
        x
    };
    let frac = |k: u64| (mix(k) >> 11) as f64 / (1u64 << 53) as f64;
    let w = |k: u64| 1e-4 + frac(k) * (budget * 0.5 - 1e-4);
    let mut plan = FaultPlan::new(seed)
        .flap_link(
            (mix(1) % 4) as usize,
            ((mix(1) % 4) as usize + 1) % 4,
            0.0,
            w(2),
        )
        .flap_link(
            (mix(3) % 4) as usize,
            ((mix(3) % 4) as usize + 3) % 4,
            w(4) * 0.5,
            w(4),
        )
        .partition(&[&[0, 2], &[1, 3]], w(5) * 0.25, w(5))
        .recv_deadline(30.0)
        .reliable();
    plan = plan.with_detector(DetectorCfg::default());
    let healed = ring_exchange(&World::with_faults(topo(), plan), rounds);

    let mut flaps = 0u64;
    let mut retransmits = 0u64;
    let mut healed_count = 0u64;
    let mut retrans_bytes = 0.0f64;
    for (rank, ((cp, _, _, _), (hp, _, hs, hf))) in clean.iter().zip(healed.iter()).enumerate() {
        assert_eq!(
            cp, hp,
            "seed {seed}, rank {rank}: healed run must be bit-identical"
        );
        assert_eq!(
            hf.giveups, 0,
            "seed {seed}, rank {rank}: transient plan must heal"
        );
        assert_eq!(hf.timeouts, 0, "seed {seed}, rank {rank}");
        assert_eq!(
            hf.suspicions, 0,
            "seed {seed}, rank {rank}: nobody is suspected"
        );
        flaps += hf.flaps;
        retransmits += hf.retransmits;
        healed_count += hf.healed;
        retrans_bytes += hs.retrans_bytes;
    }
    println!(
        "[recovery] seed={seed} flaps={flaps} retransmits={retransmits} \
         healed={healed_count} giveups=0 timeouts=0 suspicions=0 \
         retrans_bytes={retrans_bytes}"
    );
}
