//! A character-level language model trained with the full BurstEngine
//! stack on a simulated cluster, then sampled greedily.
//!
//! The training loop runs manually (rather than through the engine helper)
//! to show the pieces: zigzag sharding, a `DistExec` with topology-aware
//! BurstAttention, sequence-level selective checkpointing, FSDP gradient
//! reduction and Adam — then generation on the converged replica.
//!
//! ```text
//! cargo run --release --example char_lm
//! ```

use burstengine::model::engine::{Backend, EngineConfig};
use burstengine::model::fsdp;
use burstengine::model::DistExec;
use burstengine::prelude::*;

const CORPUS: &str = "the ring passes keys and values around the devices while \
queries stay at home; burst attention turns the ring inside out for the backward \
pass, sending queries and their gradients instead, and saves a quarter of the \
traffic. the sequence is cut into zigzag stripes so every device computes the \
same number of attention pairs. ";

fn vocab() -> Vec<char> {
    let mut chars: Vec<char> = CORPUS.chars().collect();
    chars.sort_unstable();
    chars.dedup();
    chars
}

fn encode(text: &str, vocab: &[char]) -> Vec<usize> {
    text.chars()
        .map(|c| vocab.iter().position(|&v| v == c).expect("in vocab"))
        .collect()
}

fn decode(tokens: &[usize], vocab: &[char]) -> String {
    tokens.iter().map(|&t| vocab[t]).collect()
}

fn main() {
    let vocab = vocab();
    let data = encode(CORPUS, &vocab);
    let seq = 64usize;
    let model_cfg = ModelConfig {
        layers: 2,
        d_model: 64,
        heads: 4,
        d_ff: 128,
        vocab: vocab.len(),
        seq_len: seq,
        rope: true,
    };
    let cfg = EngineConfig {
        model: model_cfg,
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
            lr: 3e-3,
            ..AdamCfg::default()
        },
        seed: 2024,
    };
    let steps = 1200usize;
    println!(
        "char-LM: {} params, vocab {}, {} tokens of text, {} steps on 4 simulated GPUs",
        model_cfg.param_count(),
        vocab.len(),
        data.len(),
        steps
    );

    let world = World::new(Topology::a800(2, 2));
    let results = world.run_results(|comm| {
        let g = comm.world_size();
        let mut model = Model::new(cfg.model, cfg.seed);
        let mut printed = Vec::new();
        for step in 0..steps {
            // Slide a window over the corpus.
            let start = (step * 17) % (data.len() - seq - 1);
            let tokens = &data[start..start + seq];
            let targets = &data[start + 1..start + seq + 1];
            model.zero_grads();
            let idx = cfg.layout.indices(seq, g, comm.rank());
            let local_tokens: Vec<usize> = idx.iter().map(|&i| tokens[i]).collect();
            let local_targets: Vec<usize> = idx.iter().map(|&i| targets[i]).collect();
            let mut exec = DistExec::new(
                comm,
                (0..g).collect(),
                Algo::BurstTopo,
                cfg.layout,
                cfg.mask.clone(),
                seq,
                cfg.cost,
            );
            let out = model.train_step(&local_tokens, &local_targets, &mut exec, cfg.strategy, seq);
            if let Some(e) = exec.take_failure() {
                panic!("ring attention failed: {e}");
            }
            let loss = comm.all_reduce_vec(&[out.loss_sum])[0] / seq as f32;
            fsdp::sync_grads(comm, &mut model.params_mut());
            // Decay the learning rate once the corpus is roughly learned:
            // the tail steps then settle into the memorised optimum instead
            // of oscillating around it.
            let adam = AdamCfg {
                lr: if step < 800 {
                    cfg.adam.lr
                } else {
                    cfg.adam.lr / 3.0
                },
                ..cfg.adam
            };
            model.adam_step(&adam, step as u64 + 1);
            if step % 200 == 0 || step + 1 == steps {
                printed.push((step, loss));
            }
        }
        // Every replica converged identically; rank 0 samples.
        let sample = if comm.rank() == 0 {
            let prompt = &data[..24];
            Some(model.generate(prompt, 48, |n| LocalExec::new(AttnMask::Causal, n)))
        } else {
            None
        };
        (printed, sample)
    });

    for (step, loss) in &results[0].0 {
        println!("  step {step:>4}  loss {loss:.4}");
    }
    let first = results[0].0.first().unwrap().1;
    let last = results[0].0.last().unwrap().1;
    assert!(last < first, "training must reduce the loss");
    let sample = results[0].1.as_ref().unwrap();
    let text = decode(sample, &vocab);
    println!("\nprompt + continuation:\n  {text:?}");
    assert!(
        text.starts_with("the ring passes keys and values around"),
        "the memorised corpus should continue correctly"
    );
    println!("OK");
}
