//! End-to-end distributed training with the BurstEngine stack.
//!
//! Trains a small LLaMA-style model on a synthetic next-token task across a
//! simulated 2-node × 2-GPU cluster — full pipeline: zigzag sequence
//! sharding, topology-aware BurstAttention, sequence-level selective
//! checkpointing, fused LM head + loss, FSDP weight gathering and gradient
//! reduction, Adam. Compares the loss trajectory against a single-device
//! run (they match to float noise) and prints throughput metrics.
//!
//! ```text
//! cargo run --release --example train_long_context
//! ```

use burstengine::model::engine::{train, Backend, EngineConfig};
use burstengine::prelude::*;

fn main() {
    let model = ModelConfig {
        layers: 2,
        d_model: 32,
        heads: 4,
        d_ff: 64,
        vocab: 53,
        seq_len: 64,
        rope: true,
    };
    let steps = 10;

    let dist_cfg = EngineConfig {
        model,
        backend: Backend::Ring(Algo::BurstTopo),
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
        adam: AdamCfg {
            lr: 2e-3,
            ..AdamCfg::default()
        },
        seed: 7,
    };

    println!(
        "training a {}-layer model ({} params) on {} tokens across 4 simulated GPUs",
        model.layers,
        model.param_count(),
        model.seq_len
    );

    let world = World::new(Topology::a800(2, 2));
    let metrics = train(&world, &dist_cfg, steps);

    // Single-device reference trajectory.
    let mut local_cfg = dist_cfg.clone();
    local_cfg.backend = Backend::Local;
    local_cfg.fsdp = false;
    let reference = train(&World::new(Topology::single_node(1)), &local_cfg, steps);

    println!("\n step   distributed      local        |Δ|");
    for (i, (d, l)) in metrics.losses.iter().zip(&reference.losses).enumerate() {
        println!("{i:>5}   {d:>11.5}  {l:>9.5}  {:>9.2e}", (d - l).abs());
        assert!(
            (d - l).abs() / (1.0 + l.abs()) < 5e-3,
            "distributed training must match the single-device trajectory"
        );
    }
    println!(
        "\nloss {:.4} → {:.4} over {steps} steps",
        metrics.losses[0],
        metrics.losses.last().unwrap()
    );
    println!(
        "virtual step time {:.2} ms · TGS {:.0} tokens/s/GPU · peak device memory {} KiB/rank \
         ({} KiB checkpoint stash)",
        metrics.wall_time / steps as f64 * 1e3,
        metrics.tgs,
        metrics.peak_census.gated_total / 1024,
        metrics.peak_census.ckpt_stash / 1024
    );
    println!(
        "communication: {:.1} KiB intra-node, {:.1} KiB inter-node",
        metrics.comm.intra_bytes / 1024.0,
        metrics.comm.inter_bytes / 1024.0
    );
    println!("OK");
}
