//! Mixed-precision emulation: training with bf16 weight storage (the
//! paper's format) must still converge, stay deterministic, and keep the
//! distributed ≡ local equivalence.

use burst_comm::{Topology, WireDtype, World};
use burst_dattn::{Algo, CostModel, Layout, OverlapMode};
use burst_kernels::AttnMask;
use burst_model::engine::{run_span, train, Backend, EngineConfig};
use burst_model::{Model, ModelConfig, Strategy};

fn cfg(backend: Backend) -> EngineConfig {
    EngineConfig {
        model: ModelConfig {
            layers: 2,
            d_model: 16,
            heads: 4,
            d_ff: 32,
            vocab: 29,
            seq_len: 32,
            rope: true,
        },
        backend,
        layout: Layout::Zigzag,
        strategy: Strategy::Full,
        mask: AttnMask::Causal,
        cost: CostModel::free(),
        fsdp: true,
        offload_optimizer: false,
        grad_accum: 1,
        emulate_bf16: true,
        bf16_activations: true,
        overlap: OverlapMode::Fine,
        skip_masked_rounds: false,
        adam: Default::default(),
        seed: 88,
    }
}

#[test]
fn bf16_training_descends_and_matches_local() {
    let mut c = cfg(Backend::Ring(Algo::BurstTopo));
    c.adam.lr = 3e-3;
    let dist = train(&World::new(Topology::a800(2, 2)), &c, 12);
    assert!(
        dist.losses.last().unwrap() < &(dist.losses[0] * 0.95),
        "bf16 training should descend: {:?}",
        dist.losses
    );
    let mut local = cfg(Backend::Local);
    local.fsdp = false;
    local.adam.lr = 3e-3;
    let reference = train(&World::new(Topology::single_node(1)), &local, 12);
    for (d, l) in dist.losses.iter().zip(&reference.losses) {
        assert!(
            (d - l).abs() / (1.0 + l.abs()) < 5e-3,
            "bf16 distributed {d} vs local {l}"
        );
    }
}

#[test]
fn bf16_changes_the_trajectory_but_not_by_much() {
    let c16 = cfg(Backend::Ring(Algo::BurstFlat));
    let mut c32 = c16.clone();
    c32.emulate_bf16 = false;
    let w = World::new(Topology::single_node(4));
    let a = train(&w, &c16, 4);
    let b = train(&w, &c32, 4);
    // Same data, same seeds: only the precision differs. The trajectories
    // diverge (rounding is real)...
    assert_ne!(a.losses, b.losses, "bf16 rounding must have an effect");
    // ...but stay close (bf16 is adequate for training, as the paper's
    // setup assumes).
    for (x, y) in a.losses.iter().zip(&b.losses) {
        assert!((x - y).abs() / (1.0 + y.abs()) < 0.02, "{x} vs {y}");
    }
}

#[test]
fn bf16_run_is_deterministic() {
    let c = cfg(Backend::Ring(Algo::BurstFlat));
    let w = World::new(Topology::single_node(2));
    assert_eq!(train(&w, &c, 3).losses, train(&w, &c, 3).losses);
}

#[test]
fn bf16_wire_fsdp_keeps_replicas_bit_identical() {
    // A bf16 wire rounds every gathered shard and every reduced gradient
    // block. Each rank must hold the rounded value, its own shards and
    // blocks included, so replicas stay bit-identical; training stays close
    // to the f32-wire run. The head-parallel backends also round O on its
    // way back to the sequence shards, before their backward reads it.
    for (backend, topo) in [
        (Backend::Ring(Algo::BurstTopo), Topology::a800(2, 2)),
        (Backend::Usp { ulysses_size: 2 }, Topology::a800(2, 2)),
        (Backend::Usp { ulysses_size: 2 }, Topology::a800(2, 4)),
        (Backend::Ulysses, Topology::a800(1, 2)),
    ] {
        let cfg = EngineConfig::tiny(backend);
        let run = |wire: WireDtype| -> Vec<f32> {
            let world = World::new(topo.clone().with_wire_dtype(wire));
            let outs = world.run(|comm| {
                let mut model = Model::new(cfg.model, cfg.seed);
                let out =
                    run_span(comm, &cfg, &mut model, 0, 4, |_, _, _, _| {}).expect("clean run");
                (out.losses, model.flat_state())
            });
            let (losses, state) = &outs[0].result;
            for o in &outs[1..] {
                assert_eq!(
                    &o.result.0, losses,
                    "{backend:?} rank {}: global loss",
                    o.rank
                );
                assert!(
                    o.result
                        .1
                        .iter()
                        .zip(state)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{backend:?} rank {}: replica differs from rank 0 under a {wire:?} wire",
                    o.rank
                );
            }
            losses.clone()
        };
        let bf16 = run(WireDtype::Bf16);
        let f32_wire = run(WireDtype::F32);
        assert_eq!(bf16.len(), 4);
        for (x, y) in bf16.iter().zip(&f32_wire) {
            assert!(
                (x - y).abs() / y.abs() < 0.02,
                "{backend:?}: bf16 wire {x} vs f32 wire {y}"
            );
        }
    }
}
