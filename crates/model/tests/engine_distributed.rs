//! End-to-end distributed training on the simulated cluster: every backend
//! must reproduce the single-device run's loss trajectory, losses must
//! decrease, and checkpointing strategies must stay equivalent under
//! distribution.

use burst_comm::{Topology, World};
use burst_dattn::{Algo, CostModel, Layout};
use burst_kernels::flash::DEFAULT_BLOCK;
use burst_kernels::AttnMask;
use burst_model::engine::{run_span, train, Backend, EngineConfig};
use burst_model::{cutoff_for_masked, Model, ModelConfig, Strategy};

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
        emulate_bf16: false,
        bf16_activations: false,
        overlap: burst_dattn::OverlapMode::Fine,
        skip_masked_rounds: false,
        adam: Default::default(),
        seed: 77,
    }
}

fn local_reference(steps: usize) -> Vec<f32> {
    let world = World::new(Topology::single_node(1));
    let mut c = cfg(Backend::Local);
    c.fsdp = false;
    train(&world, &c, steps).losses
}

fn close(a: &[f32], b: &[f32], tol: f32, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() / (1.0 + y.abs()) < tol,
            "{ctx}: step {i}: {x} vs {y}"
        );
    }
}

#[test]
fn ring_backends_match_local_training() {
    let reference = local_reference(4);
    for (algo, topo) in [
        (Algo::RingFlat, Topology::single_node(4)),
        (Algo::BurstFlat, Topology::single_node(4)),
        (Algo::DoubleRing, Topology::a800(2, 2)),
        (Algo::BurstTopo, Topology::a800(2, 2)),
    ] {
        let world = World::new(topo);
        let m = train(&world, &cfg(Backend::Ring(algo)), 4);
        close(&m.losses, &reference, 5e-3, &format!("{algo:?}"));
    }
}

#[test]
fn ulysses_backend_matches_local_training() {
    let reference = local_reference(3);
    let world = World::new(Topology::single_node(4));
    let mut c = cfg(Backend::Ulysses);
    c.layout = Layout::Contiguous;
    let m = train(&world, &c, 3);
    close(&m.losses, &reference, 5e-3, "ulysses");
}

#[test]
fn usp_backend_matches_local_training() {
    let reference = local_reference(3);
    let world = World::new(Topology::a800(2, 2));
    let m = train(&world, &cfg(Backend::Usp { ulysses_size: 2 }), 3);
    close(&m.losses, &reference, 5e-3, "usp");
}

#[test]
fn distributed_training_reduces_loss() {
    let world = World::new(Topology::single_node(4));
    let mut c = cfg(Backend::Ring(Algo::BurstFlat));
    c.adam.lr = 3e-3;
    let m = train(&world, &c, 25);
    let first = m.losses[0];
    let last = *m.losses.last().unwrap();
    // The synthetic stream shifts every step, so this is generalisation,
    // not memorisation — expect a steady but not dramatic descent.
    assert!(
        last < first * 0.85,
        "loss should fall: {first} → {last} ({:?})",
        m.losses
    );
}

/// The checkpointing strategies besides `Strategy::None`.
const STRATEGIES: [Strategy; 3] = [
    Strategy::Full,
    Strategy::SelectivePlusPlus,
    Strategy::SeqSelective { rho: 0.5 },
];

/// Every rank's `(losses, flat_state())` bits after a `steps`-step span.
fn run_state(topo: &Topology, c: &EngineConfig, steps: usize) -> Vec<(Vec<f32>, Vec<u32>)> {
    World::new(topo.clone())
        .run(|comm| {
            let mut model = Model::new(c.model, c.seed);
            let losses = run_span(comm, c, &mut model, 0, steps, |_, _, _, _| {})
                .expect("healthy run")
                .losses;
            let state = model.flat_state().iter().map(|x| x.to_bits()).collect();
            (losses, state)
        })
        .into_iter()
        .map(|o| o.result)
        .collect()
}

#[test]
fn replicated_weights_train_identical_replicas() {
    // Without FSDP every rank holds the whole model, and the gradient sync
    // still sums every rank's gradients, so the replicas take the same Adam
    // step: bit-identical state on every rank. On an f32 wire the FSDP
    // weight gather returns each replica unchanged, so the losses are the
    // FSDP run's.
    let topo = Topology::single_node(3);
    let mut c = cfg(Backend::Ring(Algo::BurstFlat));
    c.model.seq_len = 48; // three zigzag shards
    c.fsdp = false;
    let replicated = run_state(&topo, &c, 3);
    for (rank, (losses, state)) in replicated.iter().enumerate() {
        assert_eq!(losses, &replicated[0].0, "rank {rank}: losses");
        assert!(state == &replicated[0].1, "rank {rank}: state diverged");
    }
    c.fsdp = true;
    let sharded = run_state(&topo, &c, 3);
    assert_eq!(replicated[0].0, sharded[0].0, "fsdp on vs off: losses");
}

#[test]
fn checkpoint_strategies_equivalent_distributed() {
    // Every backward consumes whatever `(O, Lse)` a strategy hands it. At
    // an f32 stash, kept or rebuilt, those are the forward's bits, so losses
    // and every rank's trained state are bit-identical across strategies —
    // which is what lets the last block under `SeqSelective` keep its whole
    // `(O, Lse)`. The one exception is a ring's partial recompute when the
    // front cuts a kernel tile: at 32 tokens on four ranks the zigzag chunks
    // hold 4 tokens, and there `SeqSelective` recomputes every block
    // (`Layout::cut_on_tiles` is false) and stays within the tolerance it
    // has always had. At 256 tokens every front fills whole 32-token tiles.
    // On `a800(2, 4)` USP's rings hold two members per node, so its ring
    // leg runs on both levels of the two-level ring.
    let window = AttnMask::SlidingWindow { window: 64 };
    let ring = |algo| Backend::Ring(algo);
    for (backend, topo, seq_len, mask) in [
        (ring(Algo::RingFlat), Topology::single_node(4), 256, None),
        (ring(Algo::BurstFlat), Topology::single_node(4), 256, None),
        (ring(Algo::DoubleRing), Topology::a800(2, 2), 256, None),
        (ring(Algo::BurstTopo), Topology::a800(2, 2), 256, None),
        (
            ring(Algo::BurstTopo),
            Topology::a800(2, 2),
            256,
            Some(&window),
        ),
        (ring(Algo::BurstTopo), Topology::single_node(4), 32, None),
        (ring(Algo::BurstTopo), Topology::a800(2, 2), 32, None),
        (
            Backend::Usp { ulysses_size: 2 },
            Topology::a800(2, 2),
            32,
            None,
        ),
        (
            Backend::Usp { ulysses_size: 2 },
            Topology::a800(2, 4),
            32,
            None,
        ),
        (Backend::Ulysses, Topology::single_node(4), 32, None),
    ] {
        let mut c = cfg(backend);
        c.model.seq_len = seq_len;
        if let Some(mask) = mask {
            c.mask = mask.clone();
            c.skip_masked_rounds = true;
        }
        let run = |strategy: Strategy| {
            let c = EngineConfig {
                strategy,
                ..c.clone()
            };
            run_state(&topo, &c, 3)
        };
        let reference = run(Strategy::None);
        for strategy in STRATEGIES {
            let ctx = format!("{backend:?} {topo:?} {seq_len} {mask:?} {strategy:?}");
            let got = run(strategy);
            let cut = match (backend, strategy) {
                (Backend::Ring(_), Strategy::SeqSelective { rho }) => {
                    Some(cutoff_for_masked(rho, seq_len, &c.mask))
                }
                _ => None,
            };
            let g = topo.world_size();
            if cut.is_some_and(|cut| !c.layout.cut_on_tiles(seq_len, g, cut, DEFAULT_BLOCK)) {
                assert_eq!(seq_len, 32, "{ctx}: only the 4-token chunks cut a tile");
                close(&got[0].0, &reference[0].0, 1e-3, &ctx);
                continue;
            }
            for (rank, (got, want)) in got.iter().zip(&reference).enumerate() {
                assert_eq!(got.0, want.0, "{ctx} rank {rank}: losses");
                assert!(got.1 == want.1, "{ctx} rank {rank}: state");
            }
        }
    }
}

#[test]
fn seq_selective_under_a_full_mask_trains_the_bits_of_no_checkpointing() {
    // Under `AttnMask::Full` a query below the cutoff attends keys above
    // it, so a pass over the front rows alone cannot rebuild their
    // outputs: the recompute reruns the whole forward and keeps its front
    // rows. At an f32 stash the losses and every rank's state — weights,
    // gradients and Adam moments — are then those of `Strategy::None`, on
    // the single-device executor and on the two-level ring.
    for (backend, topo) in [
        (Backend::Local, Topology::single_node(1)),
        (Backend::Ring(Algo::BurstTopo), Topology::a800(2, 2)),
    ] {
        let mut c = cfg(backend);
        c.mask = AttnMask::Full;
        c.fsdp = backend != Backend::Local;
        let run = |strategy: Strategy| {
            let c = EngineConfig {
                strategy,
                ..c.clone()
            };
            run_state(&topo, &c, 2)
        };
        let reference = run(Strategy::None);
        let got = run(Strategy::SeqSelective { rho: 0.5 });
        for (rank, (got, want)) in got.iter().zip(&reference).enumerate() {
            assert_eq!(got.0, want.0, "{backend:?} rank {rank}: losses");
            assert!(got.1 == want.1, "{backend:?} rank {rank}: state");
        }
    }
}

#[test]
fn bf16_stash_recompute_differs_from_the_kept_outputs() {
    // Why the last-block rule stops at a bf16 stash: recomputing a block
    // from its bf16-rounded input does not rebuild the forward's outputs.
    // With one block, `SelectivePlusPlus` keeps exactly what the rule would
    // keep and `SeqSelective` recomputes the block's front; at f32, where
    // the 256-token front fills whole tiles, the two train the same bits
    // (the rule makes them one configuration), at bf16 they do not.
    let topo = Topology::a800(2, 2);
    for bf16 in [false, true] {
        let run = |strategy: Strategy| {
            let mut c = cfg(Backend::Ring(Algo::BurstTopo));
            c.model.layers = 1;
            c.model.seq_len = 256;
            c.bf16_activations = bf16;
            c.strategy = strategy;
            run_state(&topo, &c, 2)
        };
        let kept = run(Strategy::SelectivePlusPlus);
        let recomputed = run(Strategy::SeqSelective { rho: 0.5 });
        assert_eq!(kept == recomputed, !bf16, "bf16 stash {bf16}");
    }
}

#[test]
fn head_parallel_backward_reruns_no_forward_under_selective_pp() {
    // Selective checkpointing++ keeps every attention output, so a layer's
    // backward must not rerun the attention forward: no recompute kernel
    // and no forward ring slot inside any `layer_bwd` span. Full
    // checkpointing, which does rerun it, shows both tags there.
    use burst_comm::obs::{RankTrace, SpanKind};
    let rerun_in_bwd = |t: &RankTrace, kind: SpanKind, name: &str| {
        t.spans.iter().any(|s| {
            let mut up = s.parent;
            while up >= 0 {
                let p = &t.spans[up as usize];
                if p.kind == SpanKind::Layer && p.name == "layer_bwd" {
                    return s.kind == kind && s.name == name;
                }
                up = p.parent;
            }
            false
        })
    };
    for (backend, topo) in [
        (Backend::Usp { ulysses_size: 2 }, Topology::a800(2, 2)),
        (Backend::Usp { ulysses_size: 2 }, Topology::a800(2, 4)),
        (Backend::Ulysses, Topology::single_node(4)),
    ] {
        for (strategy, reruns) in [(Strategy::Full, true), (Strategy::SelectivePlusPlus, false)] {
            let mut c = cfg(backend);
            c.strategy = strategy;
            // Zero-cost kernels emit no spans.
            c.cost = CostModel::a800();
            let outs = World::new(topo.clone()).run(|comm| {
                comm.start_trace();
                let mut model = Model::new(c.model, c.seed);
                run_span(comm, &c, &mut model, 0, 1, |_, _, _, _| {}).expect("healthy run");
            });
            for o in &outs {
                let t = o.trace.as_ref().expect("tracing was on");
                let ctx = format!("{backend:?} {strategy:?} rank {}", o.rank);
                let kernel = rerun_in_bwd(t, SpanKind::Kernel, "recompute");
                assert_eq!(kernel, reruns, "{ctx}: recompute kernel in layer_bwd");
                // Ulysses runs no ring, so only USP shows forward slots of
                // its two-level ring.
                let ring = matches!(backend, Backend::Usp { .. }) && reruns;
                let slot = rerun_in_bwd(t, SpanKind::AttnRound, "dr_fwd_slot");
                assert_eq!(slot, ring, "{ctx}: dr_fwd_slot in layer_bwd");
                // A rerun forward moves Q|K|V and (O, Lse), and the backward
                // on its context (O, Lse)|∇O and the gradients; without a
                // rerun the backward first moves Q|K|V itself.
                let a2a = if reruns { 4 } else { 3 };
                let under = |mut up: i32, layer: usize| {
                    while up >= 0 && up as usize != layer {
                        up = t.spans[up as usize].parent;
                    }
                    up >= 0
                };
                for (i, _) in t
                    .spans
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.kind == SpanKind::Layer && s.name == "layer_bwd")
                {
                    let n = t
                        .spans
                        .iter()
                        .filter(|s| s.kind == SpanKind::AttnRound && s.name == "a2a")
                        .filter(|s| under(s.parent, i))
                        .count();
                    assert_eq!(n, a2a, "{ctx}: all-to-alls in layer_bwd span {i}");
                }
            }
        }
    }
}

#[test]
fn last_layer_backward_skips_the_recompute_that_would_rebuild_its_bits() {
    // Under `SeqSelective` at an f32 stash over 256 tokens the last block
    // keeps its whole `(O, Lse)` (its 32-token fronts fill whole tiles), so
    // the last layer's backward runs no recompute kernel and no forward ring
    // slot, while every other layer recomputes its front. A bf16 stash, 32
    // tokens whose 4-token fronts cut a tile, or a mask that lets the front
    // attend later keys recompute in every layer.
    use burst_comm::obs::{RankTrace, SpanKind};
    let has_under = |t: &RankTrace, layer: usize, kind: SpanKind, name: &str| {
        t.spans.iter().any(|s| {
            let mut up = s.parent;
            while up >= 0 && up as usize != layer {
                up = t.spans[up as usize].parent;
            }
            up >= 0 && s.kind == kind && s.name == name
        })
    };
    for (seq_len, bf16, mask, last_recomputes) in [
        (256, false, AttnMask::Causal, false),
        (256, true, AttnMask::Causal, true),
        (32, false, AttnMask::Causal, true),
        (256, false, AttnMask::Full, true),
    ] {
        let mut c = cfg(Backend::Ring(Algo::BurstTopo));
        c.model.seq_len = seq_len;
        c.model.layers = 3;
        c.mask = mask.clone();
        c.strategy = Strategy::SeqSelective { rho: 0.5 };
        c.bf16_activations = bf16;
        // Zero-cost kernels emit no spans.
        c.cost = CostModel::a800();
        let outs = World::new(Topology::a800(2, 2)).run(|comm| {
            comm.start_trace();
            let mut model = Model::new(c.model, c.seed);
            run_span(comm, &c, &mut model, 0, 1, |_, _, _, _| {}).expect("healthy run");
        });
        for o in &outs {
            let t = o.trace.as_ref().expect("tracing was on");
            // Backward order: the last block first.
            let layers: Vec<usize> = (0..t.spans.len())
                .filter(|&i| t.spans[i].kind == SpanKind::Layer && t.spans[i].name == "layer_bwd")
                .collect();
            assert_eq!(layers.len(), 3, "rank {}", o.rank);
            for (pos, &i) in layers.iter().enumerate() {
                let recomputes = last_recomputes || pos > 0;
                let ctx = format!(
                    "{seq_len} tokens, bf16 {bf16}, {mask:?}, rank {} backward {pos}",
                    o.rank
                );
                let kernel = has_under(t, i, SpanKind::Kernel, "recompute");
                assert_eq!(kernel, recomputes, "{ctx}: recompute kernel");
                let slot = has_under(t, i, SpanKind::AttnRound, "dr_fwd_slot");
                assert_eq!(slot, recomputes, "{ctx}: dr_fwd_slot");
            }
        }
    }
}

#[test]
fn virtual_step_time_orders_methods_on_multinode() {
    // End-to-end: with realistic A800 costs, BurstTopo must beat the flat
    // ring on a 2×4 cluster (the Fig. 12 mechanism at miniature scale).
    let topo = Topology::a800(2, 4);
    let run = |algo: Algo| {
        let world = World::new(topo.clone());
        let mut c = cfg(Backend::Ring(algo));
        c.cost = CostModel::a800();
        train(&world, &c, 2).wall_time
    };
    let flat = run(Algo::RingFlat);
    let burst = run(Algo::BurstTopo);
    assert!(
        burst < flat,
        "BurstTopo end-to-end ({burst}) should beat flat ring ({flat})"
    );
}

#[test]
fn fsdp_gather_catches_replica_divergence() {
    // Sanity: with FSDP on, losses stay identical across ranks (already
    // asserted inside train) and runs are reproducible.
    let world = World::new(Topology::single_node(2));
    let a = train(&world, &cfg(Backend::Ring(Algo::BurstFlat)), 2);
    let b = train(&world, &cfg(Backend::Ring(Algo::BurstFlat)), 2);
    assert_eq!(a.losses, b.losses);
    assert_eq!(a.wall_time, b.wall_time);
}

#[test]
fn optimizer_offload_trades_time_for_device_state() {
    let world = World::new(Topology::single_node(4));
    let base = cfg(Backend::Ring(Algo::BurstFlat));
    let mut off = base.clone();
    off.offload_optimizer = true;
    let with = train(&world, &base, 2);
    let without = train(&world, &off, 2);
    // Same numerics, slower steps, smaller device state.
    assert_eq!(with.losses, without.losses);
    assert!(
        without.wall_time > with.wall_time,
        "offload must cost PCIe time"
    );
    assert!(without.state_bytes_per_rank < with.state_bytes_per_rank);
}

#[test]
fn dilated_mask_trains_distributed() {
    // The §3.4 dilated pattern through the whole stack.
    let world = World::new(Topology::single_node(4));
    let mut c = cfg(Backend::Ring(Algo::BurstTopo));
    c.mask = AttnMask::Dilated {
        window: 16,
        step: 2,
    };
    let dist = train(&world, &c, 2).losses;
    let mut local = cfg(Backend::Local);
    local.fsdp = false;
    local.mask = AttnMask::Dilated {
        window: 16,
        step: 2,
    };
    let reference = train(&World::new(Topology::single_node(1)), &local, 2).losses;
    close(&dist, &reference, 5e-3, "dilated");
}

#[test]
fn gradient_accumulation_runs_and_stays_consistent() {
    // Accumulated micro-batches: ranks still agree on the loss, training
    // still descends, and the run is deterministic.
    let world = World::new(Topology::single_node(4));
    let mut c = cfg(Backend::Ring(Algo::BurstFlat));
    c.grad_accum = 3;
    c.adam.lr = 3e-3;
    let a = train(&world, &c, 6);
    let b = train(&world, &c, 6);
    assert_eq!(a.losses, b.losses, "accumulated runs must be deterministic");
    assert!(
        a.losses.last().unwrap() < &a.losses[0],
        "loss should fall with accumulation: {:?}",
        a.losses
    );
    // Single-device equivalence with accumulation.
    let mut local = cfg(Backend::Local);
    local.fsdp = false;
    local.grad_accum = 3;
    local.adam.lr = 3e-3;
    let r = train(&World::new(Topology::single_node(1)), &local, 6);
    close(
        &a.losses,
        &r.losses,
        5e-3,
        "accumulated distributed vs local",
    );
}

#[test]
fn tgs_accounts_compute_and_comm() {
    let world = World::new(Topology::single_node(2));
    let mut c = cfg(Backend::Ring(Algo::BurstFlat));
    c.cost = CostModel::a800();
    let m = train(&world, &c, 2);
    assert!(m.wall_time > 0.0);
    assert!(m.tgs.is_finite() && m.tgs > 0.0);
    assert!(
        m.mfu.is_finite() && m.mfu > 0.0 && m.mfu < 1.0,
        "mfu {}",
        m.mfu
    );
    assert!(m.comm.total_elems() > 0);
}

#[test]
fn engine_step_spans_validate_and_tracing_is_bit_identical() {
    use burst_comm::obs::{self, SpanKind};

    let topo = Topology::a800(2, 2);
    let steps = 2usize;
    let mut c = cfg(Backend::Ring(Algo::BurstTopo));
    c.grad_accum = 2;
    // Zero-cost kernels emit no spans; use the real cost model so compute
    // and recompute show up on the timeline.
    c.cost = CostModel::a800();
    let run = |trace: bool| {
        let world = World::new(topo.clone());
        world.run(|comm| {
            if trace {
                comm.start_trace();
            }
            let mut model = Model::new(c.model, c.seed);
            run_span(comm, &c, &mut model, 0, steps, |_, _, _, _| {})
                .expect("healthy run")
                .losses
        })
    };
    let plain = run(false);
    let traced = run(true);
    for (p, t) in plain.iter().zip(&traced) {
        assert_eq!(p.result, t.result, "losses differ under tracing");
        assert_eq!(
            p.time.to_bits(),
            t.time.to_bits(),
            "virtual clock differs under tracing"
        );
        let trace = t.trace.as_ref().expect("tracing was on");
        obs::validate(trace).unwrap_or_else(|e| panic!("rank {}: {e}", t.rank));
        assert!(trace.warnings.is_empty(), "healthy run warned");
        assert_eq!(trace.count(SpanKind::Step), steps, "one span per step");
        assert_eq!(
            trace.count(SpanKind::Micro),
            steps * c.grad_accum,
            "one span per micro-batch"
        );
        assert!(trace.count(SpanKind::Layer) > 0, "no layer spans");
        assert!(trace.count(SpanKind::AttnRound) > 0, "no attention rounds");
        // Strategy::Full rebuilds every block in the backward; the rebuilt
        // kernels must be tagged as recomputation.
        assert!(
            trace
                .spans
                .iter()
                .any(|s| s.kind == SpanKind::Kernel && s.name == "recompute"),
            "full checkpointing produced no recompute spans"
        );
    }
}

#[test]
fn fsdp_sync_is_the_only_collective_after_the_last_micro_batch() {
    // The loss, the skip flag and the leader-bucket gradients ride the
    // gradient sync, so after a step's last micro-batch a rank sends and
    // receives only inside one `fsdp_sync` span. On `single_node(3)` no
    // gradient's rows divide by 3: the sync is one leader all-reduce.
    use burst_comm::obs::{RankTrace, SpanKind};
    // The nearest span enclosing span `i` that satisfies `is`.
    let enclosing = |t: &RankTrace, i: usize, is: &dyn Fn(usize) -> bool| {
        let mut up = t.spans[i].parent;
        while up >= 0 && !is(up as usize) {
            up = t.spans[up as usize].parent;
        }
        (up >= 0).then_some(up as usize)
    };
    for (backend, topo, seq_len) in [
        (Backend::Ring(Algo::BurstTopo), Topology::a800(2, 2), 32),
        (Backend::Usp { ulysses_size: 2 }, Topology::a800(2, 2), 32),
        (Backend::Ring(Algo::BurstFlat), Topology::single_node(3), 48),
    ] {
        let mut c = cfg(backend);
        c.model.seq_len = seq_len;
        let outs = World::new(topo).run(|comm| {
            comm.start_trace();
            let mut model = Model::new(c.model, c.seed);
            run_span(comm, &c, &mut model, 0, 1, |_, _, _, _| {}).expect("healthy run");
        });
        for o in &outs {
            let t = o.trace.as_ref().expect("tracing was on");
            let ctx = format!("{backend:?} rank {}", o.rank);
            let last_micro = t
                .spans
                .iter()
                .rposition(|s| s.kind == SpanKind::Micro)
                .expect("a micro span");
            let syncs: Vec<Option<usize>> = (last_micro + 1..t.spans.len())
                .filter(|&i| matches!(t.spans[i].kind, SpanKind::Send | SpanKind::Recv))
                .filter(|&i| enclosing(t, i, &|up| up == last_micro).is_none())
                .map(|i| {
                    enclosing(t, i, &|up| {
                        let s = &t.spans[up];
                        s.kind == SpanKind::Optim && s.name == "fsdp_sync"
                    })
                })
                .collect();
            assert!(!syncs.is_empty(), "{ctx}: no collective after the micro");
            assert!(
                syncs.iter().all(|s| s.is_some() && *s == syncs[0]),
                "{ctx}: messages outside one fsdp_sync span: {syncs:?}"
            );
        }
    }
}

#[test]
fn elastic_fsdp_step_runs_three_eviction_agreements() {
    // Each shrinking collective ends in an eviction agreement: the weight
    // gather, the reduce-scatter and the all-gather that also carries the
    // loss, the skip flag and the norm gradients.
    use burst_comm::obs::SpanKind;
    use burst_model::engine::run_span_elastic;
    use burst_model::ElasticCfg;
    let c = cfg(Backend::Ring(Algo::BurstFlat));
    let steps = 2;
    let outs = World::new(Topology::single_node(4)).run(|comm| {
        comm.start_trace();
        let mut model = Model::new(c.model, c.seed);
        run_span_elastic(comm, &c, &mut model, 0, steps, &[], &ElasticCfg::default())
            .expect("clean elastic run");
    });
    for o in &outs {
        let t = o.trace.as_ref().expect("tracing was on");
        let agreements = t
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Eviction && s.name == "agree_on_eviction")
            .count();
        assert_eq!(agreements, 3 * steps, "rank {}", o.rank);
    }
}

#[test]
fn in_step_recovery_traces_its_eviction_and_replay() {
    // A rank dies mid-step under in-step recovery. Every rank's trace still
    // validates; each survivor marks the agreed eviction with an epoch bump
    // inside its `Eviction` spans, and holds the step it re-ran on the
    // shrunken ring as one `Replay` span.
    use burst_comm::obs::{self, SpanKind};
    use burst_comm::FaultPlan;
    use burst_model::engine::run_span_elastic;
    use burst_model::ElasticCfg;
    let mut c = cfg(Backend::Ring(Algo::BurstFlat));
    c.model.seq_len = 48; // zigzag needs 2·g | seq for g = 4 and g = 3
    c.cost = CostModel::a800();
    let (steps, victim) = (2, 2);
    let topo = Topology::single_node(4);
    // The victim's op count after `s` clean steps, to aim the crash inside
    // step 1.
    let ops_after = |s: usize| {
        World::new(topo.clone()).run(|comm| {
            let mut model = Model::new(c.model, c.seed);
            run_span_elastic(comm, &c, &mut model, 0, s, &[], &ElasticCfg::default())
                .expect("clean elastic probe");
            comm.op_count()
        })[victim]
            .result
    };
    let crash_op = (ops_after(1) + ops_after(2)) / 2;
    let plan = FaultPlan::new(5)
        .crash_at_op(victim, crash_op)
        .recv_deadline(60.0);
    let outs = World::with_faults(topo, plan).run_faulty(|comm| {
        comm.start_trace();
        let mut model = Model::new(c.model, c.seed);
        run_span_elastic(comm, &c, &mut model, 0, steps, &[], &ElasticCfg::default())
    });
    for o in &outs {
        let t = o.trace.as_ref().expect("tracing was on");
        obs::validate(t).unwrap_or_else(|e| panic!("rank {}: {e}", o.rank));
        if o.rank == victim {
            assert!(o.result.is_err(), "the victim reports its own crash");
            continue;
        }
        let out = o.result.as_ref().expect("survivors recover in the step");
        assert_eq!(out.evicted, vec![victim], "rank {}", o.rank);
        assert_eq!(out.steps_replayed, 1, "rank {}", o.rank);
        assert!(t.count(SpanKind::Eviction) > 0, "rank {}", o.rank);
        assert_eq!(
            t.count(SpanKind::Epoch),
            1,
            "rank {}: one epoch bump",
            o.rank
        );
        assert_eq!(
            t.count(SpanKind::Replay),
            1,
            "rank {}: one replayed step",
            o.rank
        );
    }
}

/// `EngineConfig::tiny` on the flat ring under the A800 cost model keeps
/// its losses, `tgs` and gated memory census: FNV-1a digests of them per
/// flat backend. The losses, `tgs` and every lane but `activations` are
/// those recorded while the flat ring still ran schedules of its own; the
/// backward's up-front `D` vectors (2 heads × 8 rows × 4 B) moved the
/// activations peak from 288 to 320 B on RingFlat (the forward's
/// accumulator, 8 × 8 × 4 + 8 × 4, gave way to the backward's ∇Q, 256, plus
/// both `D`) and from 768 to 832 B on BurstFlat (its ∇K, ∇V and ∇Q buffers
/// plus both `D`).
#[test]
fn flat_ring_training_matches_pinned_digests() {
    for (algo, pin) in [
        (Algo::RingFlat, 0x86bc573e0f4898ca_u64),
        (Algo::BurstFlat, 0x634273537a0b61cf),
    ] {
        let mut c = EngineConfig::tiny(Backend::Ring(algo));
        c.cost = CostModel::a800();
        let m = train(&World::new(Topology::a800(2, 2)), &c, 2);
        let text = format!("{:?} {:?} {:?}", m.losses, m.tgs.to_bits(), m.peak_census);
        let digest = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(digest, pin, "{algo:?}: {text} digests to {digest:#018x}");
    }
}
