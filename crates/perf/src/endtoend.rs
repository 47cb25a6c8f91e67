//! End-to-end method comparison at paper scale.
//!
//! One training step is assembled as
//!
//! ```text
//! step = Σ_layers [ max(attn_compute, comm_overlappable) + comm_serial ]
//!        + max(dense_compute, fsdp_comm) + a2a_serial
//! ```
//!
//! with per-method communication formulas (Table 1 for the ring family),
//! overlap disciplines (which units can hide under compute), checkpointing
//! recompute factors and memory options. Feasibility is checked against
//! HBM (reproducing Megatron-CP's optimizer OOM and Ulysses' sequence
//! blow-up when the head count caps its group size).

use crate::commtime;
use crate::flops;
use crate::machine::{Cluster, PaperModel};
use crate::memory::{
    self, CkptKind, LmHeadKind, MemOptions, COMM_STATE_BMTRAIN, COMM_STATE_PYTORCH,
};
use burst_kernels::AttnMask;
use serde::{Deserialize, Serialize};

/// BurstEngine's optimization toggles (Table 2's ablation axes).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurstOpts {
    /// Algorithm 2 backward (3Nd + 2N) instead of Algorithm 1 (4Nd).
    pub backward_opt: bool,
    /// Topology-aware two-level ring + fine-grained overlap.
    pub topo_ring: bool,
    /// Fused LM head + loss (Algorithm 3).
    pub fused_lm_head: bool,
    pub ckpt: CkptKind,
}

impl BurstOpts {
    /// Everything on — the configuration of Figs. 12–13.
    pub fn full() -> Self {
        BurstOpts {
            backward_opt: true,
            topo_ring: true,
            fused_lm_head: true,
            ckpt: CkptKind::SeqSelective { rho: 0.5 },
        }
    }

    /// Nothing on — Table 2 row 1.
    pub fn baseline() -> Self {
        BurstOpts {
            backward_opt: false,
            topo_ring: false,
            fused_lm_head: false,
            ckpt: CkptKind::Full,
        }
    }
}

/// The evaluated systems (paper §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Method {
    /// Megatron-LM context parallelism: flat-ring RingAttention, zigzag,
    /// no FSDP, no optimizer offload.
    MegatronCp,
    /// DeepSpeed-Ulysses head parallelism with FSDP + optimizer offload.
    DeepSpeedUlysses,
    /// LoongTrain's DoubleRingAttention (FSDP, two-level ring, Alg. 1).
    LoongTrainDoubleRing,
    /// LoongTrain USP: Ulysses groups intra-node × ring inter-node.
    LoongTrainUsp,
    /// BurstEngine with the given optimization set.
    BurstEngine(BurstOpts),
}

impl Method {
    pub fn name(&self) -> &'static str {
        match self {
            Method::MegatronCp => "Megatron-CP",
            Method::DeepSpeedUlysses => "DeepSpeed-Ulysses",
            Method::LoongTrainDoubleRing => "LoongTrain-DoubleRing",
            Method::LoongTrainUsp => "LoongTrain-USP",
            Method::BurstEngine(_) => "BurstEngine",
        }
    }

    /// All five systems with BurstEngine fully enabled.
    pub fn all() -> Vec<Method> {
        vec![
            Method::MegatronCp,
            Method::DeepSpeedUlysses,
            Method::LoongTrainDoubleRing,
            Method::LoongTrainUsp,
            Method::BurstEngine(BurstOpts::full()),
        ]
    }
}

/// Why a configuration cannot run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Infeasible {
    /// Modeled memory exceeds HBM.
    Oom { required_gb: f64, budget_gb: f64 },
    /// Head parallelism cannot span the cluster.
    HeadsNotDivisible { heads: usize, world: usize },
}

impl std::fmt::Display for Infeasible {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Infeasible::Oom {
                required_gb,
                budget_gb,
            } => write!(f, "OOM ({required_gb:.1} GB > {budget_gb:.1} GB)"),
            Infeasible::HeadsNotDivisible { heads, world } => {
                write!(f, "infeasible ({heads} heads on {world} GPUs)")
            }
        }
    }
}

/// Modeled outcome of one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EndToEnd {
    pub step_time: f64,
    pub tgs: f64,
    pub mfu: f64,
    pub mem_gb: f64,
    /// Attention communication that could not hide under compute.
    pub comm_exposed: f64,
    /// Total attention communication time (hidden + exposed).
    pub comm_total: f64,
    pub attn_compute: f64,
    pub dense_compute: f64,
}

/// Attention recompute factor under a checkpoint strategy: forward passes
/// executed per step (the backward's 10-FLOP share is always 1×).
fn attn_fwd_passes(ckpt: CkptKind) -> f64 {
    match ckpt {
        CkptKind::None | CkptKind::SelectivePP => 1.0,
        CkptKind::Full => 2.0,
        // Causal: recomputing the front ρ·N tokens costs ρ² of a forward.
        CkptKind::SeqSelective { rho } => 1.0 + rho * rho,
    }
}

/// Dense recompute factor: 6 (fwd+bwd) or 8 (+1 recomputed fwd).
fn dense_factor(ckpt: CkptKind) -> f64 {
    match ckpt {
        CkptKind::None => 6.0,
        _ => 8.0,
    }
}

/// Largest Ulysses group: biggest common divisor of `heads` and `world`.
pub fn ulysses_group(heads: usize, world: usize) -> usize {
    let mut best = 1;
    for g in 1..=world.min(heads) {
        if heads.is_multiple_of(g) && world.is_multiple_of(g) {
            best = g;
        }
    }
    best
}

/// Per-layer attention phase: `(compute, comm_overlappable, comm_serial)`.
fn attention_phase(
    method: &Method,
    cluster: &Cluster,
    model: &PaperModel,
    mask: &AttnMask,
    seq_len: usize,
) -> (f64, f64, f64) {
    attention_phase_with_passes(
        method,
        cluster,
        model,
        mask,
        seq_len,
        attn_fwd_passes(method_ckpt(method)),
    )
}

/// Like [`attention_phase`] with an explicit forward-pass count (the
/// attention-only microbenchmark of Fig. 14 runs exactly one).
fn attention_phase_with_passes(
    method: &Method,
    cluster: &Cluster,
    model: &PaperModel,
    mask: &AttnMask,
    seq_len: usize,
    fwd_passes: f64,
) -> (f64, f64, f64) {
    let g = cluster.world() as f64;
    let compute = (flops::attn_fwd_flops(model, mask, seq_len) * fwd_passes
        + flops::attn_bwd_flops(model, mask, seq_len))
        / (g * cluster.peak_flops * cluster.eff_attn);
    let p = commtime::partition_bytes(seq_len, model.d_model, cluster.world());
    let times = commtime::comm_times(cluster, p);
    match method {
        Method::MegatronCp => {
            // Flat ring, Alg. 1: 2 of 6 units are gradient-carrying and
            // cannot hide.
            (compute, times.ring * 4.0 / 6.0, times.ring * 2.0 / 6.0)
        }
        Method::LoongTrainDoubleRing => {
            // Table 1: the `+2(...)` serial term is the unoverlapped
            // gradient communication.
            let n_inter = cluster.nodes as f64;
            let two_level_serial = (g - n_inter) * cluster.nvlink.transfer_time(p)
                + n_inter * cluster.nic.transfer_time(p);
            let overlappable = times.double_ring - 2.0 * two_level_serial;
            (compute, overlappable, 2.0 * two_level_serial)
        }
        Method::LoongTrainUsp => {
            // Ring over R = nodes members with a per-member share of heads:
            // same per-hop bytes (N·d·2/G), R hops, all inter-node.
            let r = cluster.nodes as f64;
            let ring = 6.0 * r * cluster.nic.transfer_time(p);
            // Intra-node all-to-alls (8 transfers of the local shard).
            let u = cluster.gpus_per_node as f64;
            let local_bytes = seq_len as f64 / g * model.d_model as f64 * 2.0;
            let a2a = 8.0 * local_bytes * (u - 1.0) / u / cluster.nvlink.bandwidth;
            (compute, ring * 4.0 / 6.0, ring * 2.0 / 6.0 + a2a)
        }
        Method::DeepSpeedUlysses => {
            // All-to-all only, not overlapped with compute (paper §4.2).
            let u = ulysses_group(model.heads, cluster.world()) as f64;
            let local = seq_len as f64 / u;
            let bytes = 8.0 * local * model.d_model as f64 * 2.0 * (u - 1.0) / u;
            let gpn = cluster.gpus_per_node as f64;
            let inter_frac = if u > gpn { (u - gpn) / u } else { 0.0 };
            let t = bytes * inter_frac / cluster.nic.bandwidth
                + bytes * (1.0 - inter_frac) / cluster.nvlink.bandwidth;
            // Compute runs on a group of u GPUs only.
            let compute_u = (flops::attn_fwd_flops(model, mask, seq_len) * fwd_passes
                + flops::attn_bwd_flops(model, mask, seq_len))
                / (u * cluster.peak_flops * cluster.eff_attn);
            (compute_u, 0.0, t)
        }
        Method::BurstEngine(opts) => {
            let units = if opts.backward_opt { 5.0 } else { 6.0 };
            if opts.topo_ring {
                // Two-level rings, everything fine-overlapped.
                let n_inter = cluster.nodes as f64;
                let pass = ((g - n_inter) * cluster.nvlink.transfer_time(p))
                    .max(n_inter * cluster.nic.transfer_time(p));
                (compute, units * pass, 0.0)
            } else {
                // Flat ring; Alg. 2 leaves only the ∇Q unit serial, Alg. 1
                // leaves two.
                let serial_units = if opts.backward_opt { 1.0 } else { 2.0 };
                let flat = units
                    * g
                    * cluster
                        .nvlink
                        .transfer_time(p)
                        .max(cluster.nic.transfer_time(p));
                (
                    compute,
                    flat * (units - serial_units) / units,
                    flat * serial_units / units,
                )
            }
        }
    }
}

fn method_ckpt(method: &Method) -> CkptKind {
    match method {
        Method::BurstEngine(o) => o.ckpt,
        // All baselines run plain full gradient checkpointing (§4.1).
        _ => CkptKind::Full,
    }
}

fn method_mem_options(method: &Method) -> MemOptions {
    match method {
        Method::MegatronCp => MemOptions {
            fsdp: false,
            offload_optimizer: false,
            lm_head: LmHeadKind::Vanilla,
            ckpt: CkptKind::Full,
            comm_state_per_rank: COMM_STATE_PYTORCH,
        },
        Method::DeepSpeedUlysses => MemOptions {
            fsdp: true,
            offload_optimizer: true,
            lm_head: LmHeadKind::Vanilla,
            ckpt: CkptKind::Full,
            comm_state_per_rank: COMM_STATE_PYTORCH,
        },
        // LoongTrain trains with plain full checkpointing and an
        // off-the-shelf cross-entropy — the fp32 logits upcast is the
        // "storing the outputs of the LM head" cost the paper names as the
        // source of its high memory.
        Method::LoongTrainDoubleRing | Method::LoongTrainUsp => MemOptions {
            fsdp: true,
            offload_optimizer: false,
            lm_head: LmHeadKind::Vanilla,
            ckpt: CkptKind::Full,
            comm_state_per_rank: COMM_STATE_PYTORCH,
        },
        Method::BurstEngine(o) => MemOptions {
            fsdp: true,
            offload_optimizer: false,
            lm_head: if o.fused_lm_head {
                LmHeadKind::Fused
            } else {
                LmHeadKind::Chunked
            },
            ckpt: o.ckpt,
            comm_state_per_rank: COMM_STATE_BMTRAIN,
        },
    }
}

/// End-to-end implementation-efficiency divisor: the residual gap between
/// the paper's measured end-to-end numbers and what the component formulas
/// (Tables 1–2) explain — pipeline bubbles, kernel-quality and scheduler
/// differences of the baseline frameworks. Fitted once against Fig. 12 and
/// applied only to end-to-end step time (Fig. 14's attention-only numbers
/// use the raw component model). Documented in EXPERIMENTS.md.
fn impl_efficiency(method: &Method) -> f64 {
    match method {
        Method::MegatronCp => 1.45,
        Method::DeepSpeedUlysses => 1.25,
        Method::LoongTrainDoubleRing => 1.10,
        Method::LoongTrainUsp => 1.0,
        Method::BurstEngine(_) => 1.0,
    }
}

/// Evaluate a full training step. `offload_optimizer` overrides the
/// method's default (the paper enables it for small worlds, Table 5).
pub fn evaluate_with_offload(
    method: &Method,
    cluster: &Cluster,
    model: &PaperModel,
    mask: &AttnMask,
    seq_len: usize,
    force_offload: Option<bool>,
) -> Result<EndToEnd, Infeasible> {
    let g = cluster.world();
    // ---- feasibility: memory ----
    let mut mem_opts = method_mem_options(method);
    if let Some(off) = force_offload {
        mem_opts.offload_optimizer = off;
    }
    let local_tokens = match method {
        Method::DeepSpeedUlysses => {
            let u = ulysses_group(model.heads, g);
            seq_len as f64 / u as f64
        }
        _ => seq_len as f64 / g as f64,
    };
    let mem = memory::memory(model, g, local_tokens, &mem_opts);
    let budget = cluster.hbm * 0.95;
    if mem.total() > budget {
        return Err(Infeasible::Oom {
            required_gb: mem.total_gb(),
            budget_gb: budget / 1e9,
        });
    }
    if let Method::DeepSpeedUlysses = method {
        let u = ulysses_group(model.heads, g);
        if u < g {
            return Err(Infeasible::HeadsNotDivisible {
                heads: model.heads,
                world: g,
            });
        }
    }

    // ---- timing ----
    let (attn_c, comm_ov, comm_serial) = attention_phase(method, cluster, model, mask, seq_len);
    let layer_time = attn_c.max(comm_ov) + comm_serial;
    let attn_total = layer_time * model.layers as f64;
    let dense = flops::dense_flops(model, seq_len, dense_factor(method_ckpt(method)))
        / (g as f64 * cluster.peak_flops * cluster.eff_gemm);
    // FSDP traffic: gather weights (fwd + recompute) + reduce-scatter grads
    // ≈ 3 × params × 2 B × (G−1)/G per rank, mostly inter-node.
    let fsdp_comm = if mem_opts.fsdp {
        let vol = 3.0 * model.params() * 2.0 * (g as f64 - 1.0) / g as f64;
        let inter_frac = (g - cluster.gpus_per_node) as f64 / g as f64;
        vol * inter_frac / cluster.nic.bandwidth
            + vol * (1.0 - inter_frac) / cluster.nvlink.bandwidth
    } else {
        0.0
    };
    let step_time = (attn_total + dense.max(fsdp_comm)) * impl_efficiency(method);
    let comm_total = (comm_ov + comm_serial) * model.layers as f64 + fsdp_comm;
    let comm_exposed = ((comm_ov - attn_c).max(0.0) + comm_serial) * model.layers as f64
        + (fsdp_comm - dense).max(0.0);
    Ok(EndToEnd {
        step_time,
        tgs: flops::tgs(seq_len, step_time, g),
        mfu: flops::mfu(cluster, model, mask, seq_len, step_time),
        mem_gb: mem.total_gb(),
        comm_exposed,
        comm_total,
        attn_compute: attn_total,
        dense_compute: dense,
    })
}

/// Fig. 14's attention-only microbenchmark: one attention layer's forward
/// and backward (no recomputation, no dense path, no FSDP) across the
/// cluster. Megatron-CP's reported OOM beyond 256K tokens is reproduced by
/// its implementation's per-step fp32 score/probability chunks
/// (`(N/G)² × heads × 8 B`), which the online-softmax implementations never
/// materialise.
pub fn attention_only(
    method: &Method,
    cluster: &Cluster,
    model: &PaperModel,
    mask: &AttnMask,
    seq_len: usize,
) -> Result<f64, Infeasible> {
    let g = cluster.world();
    if let Method::DeepSpeedUlysses = method {
        let u = ulysses_group(model.heads, g);
        if u < g {
            return Err(Infeasible::HeadsNotDivisible {
                heads: model.heads,
                world: g,
            });
        }
    }
    if let Method::MegatronCp = method {
        let chunk = seq_len as f64 / g as f64;
        let extra = chunk * chunk * model.heads as f64 * 8.0;
        let budget = cluster.hbm * 0.95;
        if extra > budget {
            return Err(Infeasible::Oom {
                required_gb: extra / 1e9,
                budget_gb: budget / 1e9,
            });
        }
    }
    let (c, ov, serial) = attention_phase_with_passes(method, cluster, model, mask, seq_len, 1.0);
    Ok(c.max(ov) + serial)
}

/// Table 5's setting: `gpus` GPUs in one node, a context-parallel group of
/// size `cp` (the remaining `gpus/cp` form data-parallel replicas, each on
/// its own sequence of `cp × tokens_per_gpu` tokens), FSDP sharding over
/// the whole node and optimizer offloading per the paper.
pub fn evaluate_intra_node_cp(
    gpus: usize,
    cp: usize,
    model: &PaperModel,
    mask: &AttnMask,
    tokens_per_gpu: usize,
    opts: BurstOpts,
) -> Result<EndToEnd, Infeasible> {
    assert!(cp > 0 && gpus.is_multiple_of(cp), "cp must divide the node");
    let node = Cluster::a800(1, gpus);
    let cp_cluster = Cluster::a800(1, cp);
    let seq = tokens_per_gpu * cp;
    let method = Method::BurstEngine(opts);
    // Memory: parameters shard over the whole node; activations follow the
    // per-GPU token count.
    let mut mem_opts = method_mem_options(&method);
    mem_opts.offload_optimizer = true;
    let mem = memory::memory(model, gpus, tokens_per_gpu as f64, &mem_opts);
    let budget = node.hbm * 0.95;
    if mem.total() > budget {
        return Err(Infeasible::Oom {
            required_gb: mem.total_gb(),
            budget_gb: budget / 1e9,
        });
    }
    // Timing: attention runs on the cp-sized ring over `seq` tokens; the
    // dense path sees `tokens_per_gpu` per GPU.
    let (attn_c, comm_ov, comm_serial) = attention_phase(&method, &cp_cluster, model, mask, seq);
    let attn_total = (attn_c.max(comm_ov) + comm_serial) * model.layers as f64;
    let dense = flops::dense_flops(model, tokens_per_gpu, dense_factor(opts.ckpt))
        / (node.peak_flops * node.eff_gemm);
    let fsdp_vol = 3.0 * model.params() * 2.0 * (gpus as f64 - 1.0) / gpus as f64;
    let fsdp_comm = fsdp_vol / node.nvlink.bandwidth;
    let step_time = attn_total + dense.max(fsdp_comm);
    // Per-GPU useful FLOPs: this GPU's share of its replica's sequence.
    let useful = flops::useful_flops(model, mask, seq) / cp as f64;
    Ok(EndToEnd {
        step_time,
        tgs: tokens_per_gpu as f64 / step_time,
        mfu: useful / (step_time * node.peak_flops),
        mem_gb: mem.total_gb(),
        comm_exposed: ((comm_ov - attn_c).max(0.0) + comm_serial) * model.layers as f64,
        comm_total: (comm_ov + comm_serial) * model.layers as f64 + fsdp_comm,
        attn_compute: attn_total,
        dense_compute: dense,
    })
}

/// Sweep the sequence-level selective checkpointing split point ρ
/// (Fig. 6's trade-off): returns `(ρ, TGS, MFU, memory GB)` rows for the
/// fully-optimized BurstEngine. ρ = 0 stores everything (selective++);
/// ρ = 1 recomputes everything (full checkpointing).
pub fn rho_sweep(
    cluster: &Cluster,
    model: &PaperModel,
    mask: &AttnMask,
    seq_len: usize,
    points: usize,
) -> Vec<(f64, EndToEnd)> {
    (0..=points)
        .map(|i| {
            let rho = i as f64 / points as f64;
            let opts = BurstOpts {
                ckpt: CkptKind::SeqSelective { rho },
                ..BurstOpts::full()
            };
            let e = evaluate(&Method::BurstEngine(opts), cluster, model, mask, seq_len)
                .expect("burst must fit at paper settings");
            (rho, e)
        })
        .collect()
}

/// Evaluate with the method's default offload policy.
pub fn evaluate(
    method: &Method,
    cluster: &Cluster,
    model: &PaperModel,
    mask: &AttnMask,
    seq_len: usize,
) -> Result<EndToEnd, Infeasible> {
    evaluate_with_offload(method, cluster, model, mask, seq_len, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn causal() -> AttnMask {
        AttnMask::Causal
    }

    #[test]
    fn megatron_cp_ooms_at_paper_settings() {
        // Fig. 12: Megatron-CP fails at 7B and 14B on 32×A800 (no FSDP).
        let c = Cluster::a800(4, 8);
        for model in [PaperModel::llama_7b(), PaperModel::llama_14b()] {
            let r = evaluate(&Method::MegatronCp, &c, &model, &causal(), 1 << 20);
            assert!(matches!(r, Err(Infeasible::Oom { .. })), "{r:?}");
        }
    }

    #[test]
    fn ulysses_fails_at_14b_but_runs_at_7b() {
        let c = Cluster::a800(4, 8);
        // 7B: 32 heads over 32 GPUs — feasible.
        let ok = evaluate(
            &Method::DeepSpeedUlysses,
            &c,
            &PaperModel::llama_7b(),
            &causal(),
            1 << 20,
        );
        assert!(ok.is_ok(), "{ok:?}");
        // 14B: 40 heads cap the group at 8 → sequence per GPU ×4 → OOM
        // (the paper's reported failure mode).
        let bad = evaluate(
            &Method::DeepSpeedUlysses,
            &c,
            &PaperModel::llama_14b(),
            &causal(),
            1 << 20,
        );
        assert!(matches!(bad, Err(Infeasible::Oom { .. })), "{bad:?}");
    }

    #[test]
    fn burst_beats_all_baselines_figure_12() {
        let c = Cluster::a800(4, 8);
        let m = PaperModel::llama_14b();
        let n = 1 << 20;
        let burst = evaluate(
            &Method::BurstEngine(BurstOpts::full()),
            &c,
            &m,
            &causal(),
            n,
        )
        .unwrap();
        for baseline in [Method::LoongTrainDoubleRing, Method::LoongTrainUsp] {
            let b = evaluate(&baseline, &c, &m, &causal(), n).unwrap();
            assert!(
                burst.tgs > b.tgs,
                "burst {} must beat {} ({})",
                burst.tgs,
                baseline.name(),
                b.tgs
            );
        }
        // Speedup over USP in the paper's 1.1–1.3 band.
        let usp = evaluate(&Method::LoongTrainUsp, &c, &m, &causal(), n).unwrap();
        let speedup = burst.tgs / usp.tgs;
        assert!(
            (1.05..1.45).contains(&speedup),
            "speedup over USP {speedup} (paper: 1.15–1.2×)"
        );
    }

    #[test]
    fn burst_memory_is_lowest_figure_13() {
        let c = Cluster::a800(4, 8);
        let m = PaperModel::llama_14b();
        let n = 1 << 20;
        let burst = evaluate(
            &Method::BurstEngine(BurstOpts::full()),
            &c,
            &m,
            &causal(),
            n,
        )
        .unwrap();
        for baseline in [Method::LoongTrainDoubleRing, Method::LoongTrainUsp] {
            let b = evaluate(&baseline, &c, &m, &causal(), n).unwrap();
            assert!(
                burst.mem_gb < b.mem_gb,
                "burst {} GB must undercut {} ({} GB)",
                burst.mem_gb,
                baseline.name(),
                b.mem_gb
            );
        }
    }

    #[test]
    fn only_burst_survives_64_gpu_long_sequences() {
        // Fig. 13: on 64×A800, 7B @ 4M and 14B @ 2M run only on BurstEngine.
        let c = Cluster::a800(8, 8);
        for (model, seq) in [
            (PaperModel::llama_7b(), 4usize << 20),
            (PaperModel::llama_14b(), 2usize << 20),
        ] {
            let burst = evaluate(
                &Method::BurstEngine(BurstOpts::full()),
                &c,
                &model,
                &causal(),
                seq,
            );
            assert!(burst.is_ok(), "burst must fit: {burst:?}");
            for baseline in [
                Method::MegatronCp,
                Method::DeepSpeedUlysses,
                Method::LoongTrainDoubleRing,
                Method::LoongTrainUsp,
            ] {
                let r = evaluate(&baseline, &c, &model, &causal(), seq);
                assert!(r.is_err(), "{} should fail: {r:?}", baseline.name());
            }
        }
    }

    #[test]
    fn ablation_ordering_matches_table_2() {
        // MFU must increase monotonically along the paper's ablation rows,
        // and each row's delta must have the right sign.
        let c = Cluster::a800(4, 8);
        let m = PaperModel::llama_14b();
        let n = 1 << 20;
        let row = |o: BurstOpts| evaluate(&Method::BurstEngine(o), &c, &m, &causal(), n).unwrap();
        let r1 = row(BurstOpts::baseline());
        let r2 = row(BurstOpts {
            backward_opt: true,
            ..BurstOpts::baseline()
        });
        let r3 = row(BurstOpts {
            backward_opt: true,
            topo_ring: true,
            ..BurstOpts::baseline()
        });
        let r4 = row(BurstOpts {
            backward_opt: true,
            topo_ring: true,
            fused_lm_head: true,
            ckpt: CkptKind::Full,
        });
        let r5 = row(BurstOpts {
            backward_opt: true,
            topo_ring: true,
            fused_lm_head: true,
            ckpt: CkptKind::SeqSelective { rho: 0.5 },
        });
        let r6 = row(BurstOpts {
            backward_opt: true,
            topo_ring: true,
            fused_lm_head: true,
            ckpt: CkptKind::SelectivePP,
        });
        // Paper row 1: 36.75 % MFU. Calibration anchor: within ±4 points.
        assert!(
            (r1.mfu - 0.3675).abs() < 0.04,
            "baseline MFU {} vs paper 0.3675",
            r1.mfu
        );
        assert!(r2.mfu > r1.mfu, "backward opt: {} > {}", r2.mfu, r1.mfu);
        assert!(r3.mfu > r2.mfu, "topo ring: {} > {}", r3.mfu, r2.mfu);
        // Fusion: memory drops a lot, throughput unchanged.
        assert!(
            r4.mem_gb < r3.mem_gb - 5.0,
            "{} vs {}",
            r4.mem_gb,
            r3.mem_gb
        );
        assert!((r4.mfu - r3.mfu).abs() < 0.01);
        // Seq-selective: big MFU gain, moderate memory increase.
        assert!(r5.mfu > 1.10 * r4.mfu, "{} vs {}", r5.mfu, r4.mfu);
        assert!(r5.mem_gb > r4.mem_gb);
        // ++: even faster, even more memory.
        assert!(r6.mfu > r5.mfu);
        assert!(r6.mem_gb > r5.mem_gb);
    }

    #[test]
    fn scalability_holds_nodes_and_sequence_together() {
        // Table 4: MFU stays ~flat from 2 to 8 nodes with 32K tokens/GPU.
        let m = PaperModel::llama_14b();
        let mut mfus = Vec::new();
        for nodes in [2usize, 4, 8] {
            let c = Cluster::a800(nodes, 8);
            let n = 32768 * c.world();
            let e = evaluate(
                &Method::BurstEngine(BurstOpts::full()),
                &c,
                &m,
                &causal(),
                n,
            )
            .unwrap();
            mfus.push(e.mfu);
        }
        let max = mfus.iter().cloned().fold(0.0, f64::max);
        let min = mfus.iter().cloned().fold(1.0, f64::min);
        assert!(
            (max - min) / max < 0.15,
            "MFU should be stable across nodes: {mfus:?}"
        );
    }

    #[test]
    fn intra_node_mfu_grows_with_cp_size() {
        // Table 5: CP 1→8 at 32K tokens/GPU: MFU creeps up, TGS drops
        // (each token costs more attention), memory stays bounded.
        let m = PaperModel::llama_14b();
        let mut rows = Vec::new();
        for cp in [1usize, 2, 4, 8] {
            let e = evaluate_intra_node_cp(8, cp, &m, &causal(), 32768, BurstOpts::full()).unwrap();
            rows.push((cp, e));
        }
        for w in rows.windows(2) {
            assert!(
                w[1].1.mfu >= w[0].1.mfu * 0.99,
                "MFU should not fall with CP: {:?}",
                rows.iter().map(|(c, e)| (*c, e.mfu)).collect::<Vec<_>>()
            );
            assert!(
                w[1].1.tgs < w[0].1.tgs,
                "TGS must drop as the sequence grows with CP"
            );
        }
        let last = rows.last().unwrap().1;
        assert!(
            (0.42..0.58).contains(&last.mfu),
            "CP=8 MFU {} (paper: 51.9 %)",
            last.mfu
        );
        // Paper: 393.44 TGS at CP=8; ±25 %.
        assert!(
            (295.0..492.0).contains(&last.tgs),
            "CP=8 TGS {} vs paper 393",
            last.tgs
        );
    }

    #[test]
    fn rho_sweep_is_a_true_tradeoff() {
        // Throughput falls and memory falls as ρ grows: no point dominates.
        let c = Cluster::a800(4, 8);
        let m = PaperModel::llama_14b();
        let rows = rho_sweep(&c, &m, &causal(), 1 << 20, 4);
        for w in rows.windows(2) {
            assert!(w[1].1.tgs <= w[0].1.tgs + 1e-9, "TGS must fall with ρ");
            assert!(
                w[1].1.mem_gb <= w[0].1.mem_gb + 1e-9,
                "memory must fall with ρ"
            );
        }
        // Endpoints coincide with the named strategies.
        let pp = evaluate(
            &Method::BurstEngine(BurstOpts {
                ckpt: CkptKind::SelectivePP,
                ..BurstOpts::full()
            }),
            &c,
            &m,
            &causal(),
            1 << 20,
        )
        .unwrap();
        assert!((rows[0].1.tgs - pp.tgs).abs() < 1e-6);
        let full = evaluate(
            &Method::BurstEngine(BurstOpts {
                ckpt: CkptKind::Full,
                ..BurstOpts::full()
            }),
            &c,
            &m,
            &causal(),
            1 << 20,
        )
        .unwrap();
        assert!((rows.last().unwrap().1.tgs - full.tgs).abs() < 1e-6);
    }

    #[test]
    fn ulysses_group_arithmetic() {
        assert_eq!(ulysses_group(32, 32), 32);
        assert_eq!(ulysses_group(40, 32), 8);
        assert_eq!(ulysses_group(40, 64), 8);
        assert_eq!(ulysses_group(32, 64), 32);
        assert_eq!(ulysses_group(7, 4), 1);
    }

    #[test]
    fn sparse_masks_speed_up_training_table_3() {
        let c = Cluster::a800(4, 8);
        let m = PaperModel::llama_14b();
        let n = 1 << 20;
        let burst = Method::BurstEngine(BurstOpts::full());
        let masking = evaluate(&burst, &c, &m, &AttnMask::Full, n).unwrap();
        let causal = evaluate(&burst, &c, &m, &AttnMask::Causal, n).unwrap();
        let swa = evaluate(
            &burst,
            &c,
            &m,
            &AttnMask::SlidingWindow { window: 32 << 10 },
            n,
        )
        .unwrap();
        let causal_speedup = causal.tgs / masking.tgs;
        let swa_speedup = swa.tgs / masking.tgs;
        assert!(
            (1.5..2.5).contains(&causal_speedup),
            "causal speedup {causal_speedup} (paper: 1.72×)"
        );
        assert!(
            swa_speedup > causal_speedup * 1.5,
            "SWA speedup {swa_speedup} must far exceed causal ({causal_speedup})"
        );
    }
}
