//! The three workloads and the shapes each one drives through the layers.
//! See `NOTES.md` for why each was chosen.

use burst_comm::Topology;
use burst_dattn::{Algo, CostModel, Layout, OverlapMode};
use burst_kernels::AttnMask;
use burst_model::engine::{Backend, EngineConfig};
use burst_model::{AdamCfg, ModelConfig, Strategy};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `engine::run_span` steps, BurstAttention on the two-level ring.
    TrainBurstCausal,
    /// Single attention passes on the paper's 32-GPU world.
    Attn32Rank,
    /// `engine::run_span` steps, USP with a sliding window and bf16 stashes.
    TrainUspWindow,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::TrainBurstCausal,
        Workload::Attn32Rank,
        Workload::TrainUspWindow,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainBurstCausal => "train-burst-causal",
            Workload::Attn32Rank => "attn-32rank",
            Workload::TrainUspWindow => "train-usp-window",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Full size, or a toy size (tiny sequence, 4 ranks) for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Toy,
}

/// Global sequence length of a workload at a scale.
pub fn seq_len(w: Workload, scale: Scale) -> usize {
    match (w, scale) {
        (_, Scale::Toy) => 64,
        (Workload::Attn32Rank, Scale::Full) => 512,
        (_, Scale::Full) => 8192,
    }
}

/// The simulated cluster a workload runs on.
pub fn topology(w: Workload, scale: Scale) -> Topology {
    match (w, scale) {
        (_, Scale::Toy) => Topology::a800(2, 2),
        (Workload::Attn32Rank, Scale::Full) => Topology::a800(4, 8),
        (_, Scale::Full) => Topology::a800(2, 4),
    }
}

/// The model the workload trains — or, for `attn-32rank`, which trains
/// none, the model the host layer probes use: one 64-wide head, matching
/// the pass's head dim.
pub fn model(w: Workload, scale: Scale) -> ModelConfig {
    let (d_model, heads, d_ff) = match w {
        Workload::TrainBurstCausal => (128, 2, 256),
        Workload::Attn32Rank => (64, 1, 128),
        Workload::TrainUspWindow => (128, 4, 256),
    };
    ModelConfig {
        layers: 2,
        d_model,
        heads,
        d_ff,
        vocab: 256,
        seq_len: seq_len(w, scale),
        rope: true,
    }
}

/// The attention mask of a training workload (and of the kernel probes).
pub fn mask(w: Workload, seq: usize) -> AttnMask {
    match w {
        Workload::TrainUspWindow => AttnMask::SlidingWindow {
            window: (seq / 8).max(1),
        },
        _ => AttnMask::Causal,
    }
}

/// Engine configuration of a training workload. The workload seed seeds
/// the model's weights.
pub fn engine_config(w: Workload, scale: Scale, seed: u64) -> EngineConfig {
    let model = model(w, scale);
    let usp = w == Workload::TrainUspWindow;
    EngineConfig {
        model,
        backend: if usp {
            Backend::Usp { ulysses_size: 2 }
        } else {
            Backend::Ring(Algo::BurstTopo)
        },
        layout: Layout::Zigzag,
        strategy: Strategy::SeqSelective { rho: 0.5 },
        mask: mask(w, model.seq_len),
        cost: CostModel::a800(),
        fsdp: true,
        offload_optimizer: false,
        grad_accum: 1,
        emulate_bf16: usp,
        bf16_activations: usp,
        overlap: OverlapMode::Fine,
        skip_masked_rounds: usp,
        adam: AdamCfg::default(),
        seed,
    }
}

/// One configuration of the `attn-32rank` pass cycle: the six
/// `burst-trace` rows.
#[derive(Debug, Clone)]
pub struct AttnRow {
    pub name: &'static str,
    pub algo: Algo,
    pub mask: AttnMask,
    pub layout: Layout,
    pub skip: bool,
}

/// Ring, double ring and burst — dense causal on the zigzag layout, then
/// a sliding window of `seq/4` on the contiguous layout with skipping on.
pub fn attn_rows(seq: usize) -> Vec<AttnRow> {
    let algos = [
        ("ring", Algo::RingFlat),
        ("double_ring", Algo::DoubleRing),
        ("burst", Algo::BurstTopo),
    ];
    let dense = algos.iter().map(|&(name, algo)| AttnRow {
        name,
        algo,
        mask: AttnMask::Causal,
        layout: Layout::Zigzag,
        skip: false,
    });
    let masked = algos.iter().map(|&(name, algo)| AttnRow {
        name,
        algo,
        mask: AttnMask::SlidingWindow {
            window: (seq / 4).max(1),
        },
        layout: Layout::Contiguous,
        skip: true,
    });
    dense.chain(masked).collect()
}

/// Shapes the host layer probes run at, derived from the workload.
#[derive(Debug, Clone)]
pub struct ProbeShape {
    pub model: ModelConfig,
    pub topo: Topology,
    /// Token rows each rank holds.
    pub local_tokens: usize,
    pub head_dim: usize,
    pub mask: AttnMask,
    /// Ranks on the attention ring: the world, or USP's ring of `G/U`.
    pub ring: usize,
    /// The `try_run_attention_opts` pass(es) `dattn.pass_s` times.
    pub passes: Vec<AttnRow>,
}

pub fn probe_shape(w: Workload, scale: Scale) -> ProbeShape {
    let model = model(w, scale);
    let topo = topology(w, scale);
    let seq = model.seq_len;
    let g = topo.world_size();
    let (ring, passes) = match w {
        Workload::TrainBurstCausal => (
            g,
            vec![AttnRow {
                name: "burst",
                algo: Algo::BurstTopo,
                mask: mask(w, seq),
                layout: Layout::Zigzag,
                skip: false,
            }],
        ),
        Workload::Attn32Rank => (g, attn_rows(seq)),
        // USP's ring leg: a flat zigzag ring over G/U ranks; the pass
        // probe runs that flat ring over the whole world.
        Workload::TrainUspWindow => (
            g / 2,
            vec![AttnRow {
                name: "ring",
                algo: Algo::RingFlat,
                mask: mask(w, seq),
                layout: Layout::Zigzag,
                skip: true,
            }],
        ),
    };
    ProbeShape {
        model,
        topo,
        local_tokens: seq / g,
        head_dim: model.d_model / model.heads,
        mask: mask(w, seq),
        ring,
        passes,
    }
}
