//! Cross-crate integration tests: the full BurstEngine pipeline from
//! kernels through the simulated cluster to the analytical models.

use burstengine::model::engine::{synthetic_batch, train, Backend, EngineConfig};
use burstengine::prelude::*;

fn tiny_engine(backend: Backend) -> EngineConfig {
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
        strategy: Strategy::SeqSelective { rho: 0.5 },
        mask: AttnMask::Causal,
        cost: CostModel::a800(),
        fsdp: true,
        offload_optimizer: false,
        grad_accum: 1,
        emulate_bf16: false,
        bf16_activations: false,
        overlap: burst_dattn::OverlapMode::Fine,
        skip_masked_rounds: false,
        adam: AdamCfg::default(),
        seed: 101,
    }
}

#[test]
fn whole_stack_trains_identically_distributed_and_local() {
    // The headline integration invariant: the full engine (zigzag shards,
    // BurstTopo attention, sequence-level selective checkpointing, fused
    // LM loss, FSDP) reproduces a single-device training trajectory.
    let steps = 4;
    let mut local = tiny_engine(Backend::Local);
    local.fsdp = false;
    let reference = train(&World::new(Topology::single_node(1)), &local, steps);
    let dist = train(
        &World::new(Topology::a800(2, 2)),
        &tiny_engine(Backend::Ring(Algo::BurstTopo)),
        steps,
    );
    for (d, l) in dist.losses.iter().zip(&reference.losses) {
        assert!((d - l).abs() / (1.0 + l.abs()) < 5e-3, "{d} vs {l}");
    }
}

#[test]
fn burst_engine_beats_ring_attention_end_to_end_in_virtual_time() {
    let steps = 2;
    let ring = train(
        &World::new(Topology::a800(2, 4)),
        &tiny_engine(Backend::Ring(Algo::RingFlat)),
        steps,
    );
    let burst = train(
        &World::new(Topology::a800(2, 4)),
        &tiny_engine(Backend::Ring(Algo::BurstTopo)),
        steps,
    );
    assert!(
        burst.wall_time < ring.wall_time,
        "burst {} vs ring {}",
        burst.wall_time,
        ring.wall_time
    );
    // And it moves fewer bytes.
    assert!(burst.comm.total_elems() < ring.comm.total_elems());
}

#[test]
fn simulator_and_analytic_model_agree_on_ordering() {
    // The executable simulator (small scale) and the analytical model
    // (paper scale) must rank the ring disciplines identically.
    // -- simulator --
    let n = 64;
    let d = 16;
    let q = randn_mat(n, d, 0.7, 31);
    let k = randn_mat(n, d, 0.7, 32);
    let v = randn_mat(n, d, 0.7, 33);
    let go = randn_mat(n, d, 0.8, 34);
    let measure = |algo: Algo| {
        let world = World::new(Topology::a800(2, 4));
        let (_, makespan, _) = world.run_timed(|comm| {
            let idx = Layout::Zigzag.indices(n, 8, comm.rank());
            try_run_attention_opts(
                algo,
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
            .expect("fault-free attention");
        });
        makespan
    };
    let sim_ring = measure(Algo::RingFlat);
    let sim_double = measure(Algo::DoubleRing);
    let sim_burst = measure(Algo::BurstTopo);
    assert!(sim_burst < sim_double && sim_double < sim_ring);
    // -- analytic (Table 1) --
    let c = Cluster::a800(2, 4);
    let t = burstengine::perf::commtime::layer_comm_times(&c, 1 << 20, 4096);
    assert!(t.burst < t.double_ring && t.double_ring < t.ring);
}

#[test]
fn fused_lm_loss_used_by_the_model_matches_kernel_reference() {
    use burstengine::kernels::lmhead::{fused_lm_loss, naive_lm_loss};
    let h = randn_mat(24, 8, 0.8, 41);
    let w = randn_mat(37, 8, 0.8, 42);
    let y: Vec<usize> = (0..24).map(|i| (i * 5) % 37).collect();
    let a = fused_lm_loss(&h, &w, &y);
    let b = naive_lm_loss(&h, &w, &y);
    assert!((a.loss - b.loss).abs() < 1e-5);
    burstengine::tensor::testutil::assert_allclose(&a.grad_h, &b.grad_h, 1e-4, "grad_h");
}

#[test]
fn synthetic_batches_are_deterministic_and_in_vocab() {
    let cfg = ModelConfig::tiny();
    let (t1, y1) = synthetic_batch(&cfg, 3);
    let (t2, _) = synthetic_batch(&cfg, 3);
    assert_eq!(t1, t2);
    assert_eq!(t1.len(), cfg.seq_len);
    assert!(t1.iter().chain(&y1).all(|&t| t < cfg.vocab));
}

#[test]
fn paper_scale_headline_numbers_hold() {
    // The paper's abstract in one test: ≥1.15× speedup and ≥20 % memory
    // saving over the strongest baseline at 14B/1M/32 GPUs, plus 1M+
    // training only BurstEngine can complete at 64 GPUs.
    use burstengine::perf::endtoend::Infeasible;
    let c = Cluster::a800(4, 8);
    let m = PaperModel::llama_14b();
    let mask = AttnMask::Causal;
    let burst = evaluate(
        &Method::BurstEngine(BurstOpts::full()),
        &c,
        &m,
        &mask,
        1 << 20,
    )
    .unwrap();
    let usp = evaluate(&Method::LoongTrainUsp, &c, &m, &mask, 1 << 20).unwrap();
    assert!(burst.tgs / usp.tgs > 1.1, "speedup {}", burst.tgs / usp.tgs);
    assert!(
        1.0 - burst.mem_gb / usp.mem_gb > 0.2,
        "memory saving {}",
        1.0 - burst.mem_gb / usp.mem_gb
    );
    let c64 = Cluster::a800(8, 8);
    assert!(evaluate(
        &Method::BurstEngine(BurstOpts::full()),
        &c64,
        &m,
        &mask,
        2 << 20
    )
    .is_ok());
    for b in [
        Method::MegatronCp,
        Method::DeepSpeedUlysses,
        Method::LoongTrainDoubleRing,
        Method::LoongTrainUsp,
    ] {
        let r = evaluate(&b, &c64, &m, &mask, 2 << 20);
        assert!(
            matches!(r, Err(Infeasible::Oom { .. })),
            "{} should OOM at 14B@2M/64: {r:?}",
            b.name()
        );
    }
}

#[test]
fn prelude_exports_cover_the_readme_workflow() {
    // Compile-time check that the public API surface stays intact.
    let _mask: AttnMask = AttnMask::SlidingWindow { window: 4 };
    let _bs = BlockSparseMask::sliding_window_blocks(4, 4, 2);
    let _stream = SeedStream::new(1);
    let _state = OnlineState::empty(2, 2);
    let _stats = CommStats::default();
    let _link = Link::new(1e-6, 1e9);
    let _ring = DoubleRingSpec::one_level(&[0, 1]);
    let _om = OverlapMode::Fine;
    let _mha = MultiHeadAttention::new(8, 2, 1);
    let _exec = LocalExec::new(AttnMask::Causal, 8);
    let _model = Model::new(ModelConfig::tiny(), 1);
}
