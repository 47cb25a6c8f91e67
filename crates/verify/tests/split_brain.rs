//! Split-brain containment: a live-but-unreachable rank must **park**, not
//! train ahead solo.
//!
//! A dropped message makes the receiver evict the sender. The sender is
//! still alive, though — its peers just stop answering it, so its own
//! eviction agreement would (in absentia) evict everyone else and leave it
//! training a divergent one-rank replica. The quorum rule in
//! `agree_on_eviction` catches this: a side whose decision evicts a strict
//! majority of the pre-agreement membership has lost the split and parks
//! itself instead.

use burst_comm::{FaultPlan, RetryPolicy, Topology, World};
use burst_dattn::Algo;
use burst_model::engine::{run_span_elastic, Backend, EngineConfig};
use burst_model::{ElasticCfg, Model};

#[test]
fn a_live_evicted_rank_parks_instead_of_training_solo() {
    let seed = 100u64;
    let mut cfg = EngineConfig::tiny(Backend::Ring(Algo::BurstFlat));
    cfg.model.seq_len = 48; // zigzag: n % 2g == 0 for g in {3, 4}
    cfg.seed = seed;
    let steps = 2usize;
    let victim = 1usize;
    // Aim the drop at the victim's first attention K/V send, past the FSDP
    // gather prelude: the one-bucket ring all-gather puts g - 1 messages
    // on the link.
    let g = 4;
    let prelude = g as u64 - 1;
    let plan = FaultPlan::new(seed)
        .drop_msg(victim, victim + 1, prelude)
        .recv_deadline(60.0);
    let world = World::with_faults(Topology::single_node(g), plan);
    let ecfg = ElasticCfg {
        policy: RetryPolicy::default(),
        ckpt_dir: None,
        every: 0,
    };
    let c2 = cfg.clone();
    let outs = world.run_faulty::<_, burst_comm::CommError, _>(move |comm| {
        let mut model = Model::new(c2.model, c2.seed);
        let out = run_span_elastic(comm, &c2, &mut model, 0, steps, &[], &ecfg)?;
        Ok((out, model.flat_state()))
    });

    // The victim parks at the failing step, agreeing it was the one
    // evicted — not the majority it could no longer reach.
    let (veo, _) = outs[victim].result.as_ref().expect("victim parks cleanly");
    assert_eq!(veo.parked_at, Some(0), "victim parks at the failing step");
    assert_eq!(veo.evicted, vec![victim], "victim records its own eviction");
    assert!(veo.losses.is_empty(), "a parked rank completes no step");

    // The survivors agree on the same eviction and finish bit-identically.
    let mut reference: Option<(&Vec<f32>, &Vec<f32>)> = None;
    for r in [0usize, 2, 3] {
        let (eo, flat) = outs[r].result.as_ref().expect("survivor finishes");
        assert_eq!(eo.parked_at, None, "rank {r} finishes the span");
        assert_eq!(eo.evicted, vec![victim], "rank {r} evicts the victim");
        assert_eq!(eo.steps_replayed, 1, "rank {r} replays the broken step");
        match reference {
            None => reference = Some((&eo.losses, flat)),
            Some((losses, rflat)) => {
                assert_eq!(&eo.losses, losses, "rank {r}: survivor losses agree");
                assert_eq!(flat, rflat, "rank {r}: survivor replicas agree");
            }
        }
    }
}
