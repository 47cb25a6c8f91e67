//! The BurstEngine training engine: distributed end-to-end training steps
//! on the simulated cluster, with pluggable attention backend, sequence
//! layout, checkpointing strategy and FSDP synchronisation. Reports the
//! paper's evaluation metrics — loss, virtual step time, TGS (tokens per
//! second per GPU), MFU and modeled memory.

use crate::attention::{AttnExec, DistExec, LocalExec, UspExec};
use crate::checkpoint::{ActPrecision, Strategy};
use crate::checkpoint_shard::{
    load_sharded, publish_shard, shard_meta, stage_shard, write_manifest, ShardManifest,
};
use crate::fsdp::{self, Group};
use crate::model::{Model, ModelConfig, StepOutput};
use crate::param::AdamCfg;
use burst_comm::obs::{peak_census, MemCategory, MemId, MemReport, PeakBytes};
use burst_comm::{
    agree_on_eviction, agree_on_join, agree_on_leave, send_abort, ChurnKind, CommError, CommStats,
    Communicator, Membership, RetryPolicy, SpanKind, World,
};
use burst_dattn::{Algo, CostModel, Layout, OverlapMode};
use burst_kernels::AttnMask;
use burst_tensor::Mat;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Which attention parallelism the engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Single-device flash attention (reference; world size 1).
    Local,
    /// Ring-family context parallelism.
    Ring(Algo),
    /// DeepSpeed-Ulysses head parallelism: USP whose Ulysses group is the
    /// whole world, so its context-parallel ring has one position.
    Ulysses,
    /// LoongTrain USP hybrid: Ulysses groups of `ulysses_size` ranks nested
    /// in context-parallel rings.
    Usp { ulysses_size: usize },
}

/// Full engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    pub model: ModelConfig,
    pub backend: Backend,
    pub layout: Layout,
    pub strategy: Strategy,
    pub mask: AttnMask,
    pub cost: CostModel,
    /// Shard the training state FSDP-style: all-gather the weights every
    /// step and bill weights, gradients and Adam moments at `1/G` per rank.
    /// Gradients are summed across the world every step either way, so
    /// replicas stay identical.
    pub fsdp: bool,
    /// ZeRO-Offload: keep Adam moments in host memory; each step pays the
    /// PCIe round trip in virtual time but frees device state (the paper's
    /// Table 5 setting for small worlds).
    pub offload_optimizer: bool,
    /// Micro-batches accumulated per optimizer step.
    pub grad_accum: usize,
    /// Emulate bf16 weight storage (the paper's training precision): round
    /// every parameter to bfloat16 before each step's compute while Adam
    /// keeps fp32 masters — the standard mixed-precision recipe.
    pub emulate_bf16: bool,
    /// Hold checkpointed activations (block inputs, cached attention
    /// outputs) at genuine 2-byte bf16 width, halving the tracked stash
    /// (see [`ActPrecision`]).
    pub bf16_activations: bool,
    /// Not read: the flat-ring backwards have one schedule, the
    /// fine-grained overlap of [`burst_dattn::ring`]. The field stays
    /// because the benchmark's engine configuration sets it.
    pub overlap: OverlapMode,
    /// Mask-aware round skipping in the distributed attention schedules:
    /// fully-masked (q-shard × kv-shard) rounds are elided — no wire
    /// traffic, no compute, no virtual time — bit-identically to the dense
    /// run. Off by default.
    pub skip_masked_rounds: bool,
    pub adam: AdamCfg,
    pub seed: u64,
}

impl EngineConfig {
    pub fn tiny(backend: Backend) -> Self {
        EngineConfig {
            model: ModelConfig::tiny(),
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
            overlap: OverlapMode::Fine,
            skip_masked_rounds: false,
            adam: AdamCfg::default(),
            seed: 42,
        }
    }
}

/// Metrics of a training run (per rank or aggregated by [`train`]).
#[derive(Debug, Clone)]
pub struct TrainMetrics {
    /// Global mean loss of each step.
    pub losses: Vec<f32>,
    /// Virtual makespan of the whole run in seconds.
    pub wall_time: f64,
    /// Tokens per second per GPU over the run.
    pub tgs: f64,
    /// Model FLOPs utilisation (useful FLOPs / device peak).
    pub mfu: f64,
    /// Per-lane max over ranks of the memory ledger's peaks: every rank
    /// runs with accounting on ([`peak_census`]).
    pub peak_census: PeakBytes,
    /// Modeled device-resident parameter/gradient/optimizer bytes per rank
    /// (shrinks under FSDP sharding and optimizer offloading).
    pub state_bytes_per_rank: usize,
    /// Aggregated communication counters.
    pub comm: CommStats,
}

/// Deterministic synthetic LM data: a periodic stream with a fixed shift
/// rule, memorisable by a tiny model (loss ↓ sanity-checks training).
pub fn synthetic_batch(cfg: &ModelConfig, step: usize) -> (Vec<usize>, Vec<usize>) {
    let tokens: Vec<usize> = (0..cfg.seq_len)
        .map(|i| (i * 7 + step * 13 + 3) % cfg.vocab)
        .collect();
    let mut targets: Vec<usize> = tokens[1..].to_vec();
    targets.push(tokens[0]);
    (tokens, targets)
}

/// Dense (non-attention) FLOPs of one forward+backward per token: the
/// standard `6 P` with one extra forward (`+2 P`) when checkpointing
/// recomputes blocks.
fn dense_flops_per_token(cfg: &ModelConfig, strategy: Strategy) -> f64 {
    let block = 4 * cfg.d_model * cfg.d_model + 3 * cfg.d_model * cfg.d_ff;
    let dense: usize = cfg.layers * block + cfg.vocab * cfg.d_model;
    let factor = match strategy {
        Strategy::None => 6.0,
        // One recomputed forward over the dense path.
        _ => 8.0,
    };
    factor * dense as f64
}

/// Useful model FLOPs per step (for MFU; recompute does not count).
fn useful_flops(cfg: &ModelConfig, mask: &AttnMask) -> f64 {
    let block = 4 * cfg.d_model * cfg.d_model + 3 * cfg.d_model * cfg.d_ff;
    let dense: usize = cfg.layers * block + cfg.vocab * cfg.d_model;
    let dh = cfg.d_model / cfg.heads;
    let pairs = mask.allowed_pairs(cfg.seq_len) as f64 * cfg.heads as f64 * cfg.layers as f64;
    6.0 * dense as f64 * cfg.seq_len as f64 + pairs * 14.0 * dh as f64
}

/// Open ledger entries for the device-resident training state: weights,
/// gradients and (unless offloaded) the two Adam moments, FSDP-sharded
/// across `shard` ranks — [`fsdp::device_state_bytes`]'s decomposition as
/// three accountant lanes. [`free_state_entries`] closes them at span end;
/// an error path that skips the close is force-closed (with a warning)
/// when the ledger is taken, the same crash semantics as every other lane.
fn bill_state_entries(
    comm: &mut Communicator,
    cfg: &EngineConfig,
    shard: usize,
) -> [Option<MemId>; 3] {
    let bytes = (cfg.model.param_count() * 4 / shard) as u64;
    let params = comm.mem_alloc("model_params", MemCategory::Params, bytes);
    let grads = comm.mem_alloc("model_grads", MemCategory::Grads, bytes);
    let optim = if cfg.offload_optimizer {
        // ZeRO-Offload: the Adam moments live in host memory.
        None
    } else {
        comm.mem_alloc("adam_moments", MemCategory::OptimState, 2 * bytes)
    };
    [params, grads, optim]
}

fn free_state_entries(comm: &mut Communicator, ids: [Option<MemId>; 3]) {
    for id in ids {
        comm.mem_free(id);
    }
}

/// What a [`run_span`] call observed, beyond the losses themselves.
#[derive(Debug, Clone)]
pub struct SpanOutcome {
    /// Global mean loss of every step in the span (skipped steps included —
    /// gradient poison does not touch the forward loss).
    pub losses: Vec<f32>,
    /// The final rank-local step output (None for an empty span).
    pub last: Option<StepOutput>,
    /// Optimizer steps skipped because some rank's gradients went
    /// non-finite and could not be salvaged (all ranks agree via the loss
    /// reduction, so the count is identical across ranks).
    pub skipped_steps: usize,
    /// Poisoned micro-batches this rank rolled back individually (gradient
    /// accumulation lets a single bad micro be dropped without losing the
    /// step).
    pub dropped_micros: usize,
}

/// Run `steps` training steps on one rank. Returns per-step global losses
/// and the final rank-local `StepOutput`.
pub fn run_rank(
    comm: &mut Communicator,
    cfg: &EngineConfig,
    steps: usize,
) -> (Vec<f32>, StepOutput) {
    let mut model = Model::new(cfg.model, cfg.seed);
    match run_span(comm, cfg, &mut model, 0, steps, |_, _, _, _| {}) {
        Ok(out) => (out.losses, out.last.expect("steps > 0")),
        Err(e) => comm.escalate(e),
    }
}

/// Run training steps `start_step..end_step` on one rank, mutating `model`
/// in place. Because the synthetic batch and the Adam bias correction are
/// both functions of the *absolute* step index, a model restored from a
/// checkpoint taken after `start_step` steps continues bit-identically to a
/// run that never stopped — the invariant the recovery loop and its tests
/// rely on.
///
/// `on_step(comm, completed, model, losses)` fires after every optimizer
/// step with the rank's communicator, the number of completed steps, the
/// post-update model and the span's losses so far; [`train_with_recovery`]
/// uses it to write checkpoints (the communicator lets every rank write its
/// own shard and synchronise on a barrier before the manifest commits).
///
/// Fails with a typed [`CommError`] instead of aborting, anywhere in the
/// step: a non-finite reduced loss is reported as [`CommError::Corrupt`],
/// and communication faults injected by a [`burst_comm::FaultPlan`] surface
/// through the fallible FSDP weight gather and gradient sync (which also
/// reduces the loss, or a loss all-reduce without FSDP) and through the
/// attention executor's latched failure ([`AttnExec::take_failure`]),
/// checked after every micro-batch.
///
/// Compute-side faults from the plan are honored here: scheduled gradient
/// poison ([`burst_comm::FaultPlan::poison_grad`]) is injected after the
/// affected micro-batch's backward. With gradient accumulation the poisoned
/// micro is rolled back from a snapshot and the surviving micros are
/// rescaled to an unbiased estimate (**skip-and-rescale**); without it the
/// rank raises a flag that is reduced with the loss and every rank skips the
/// optimizer update for that step in lockstep — the job keeps training
/// instead of restarting. Slow-kernel stragglers
/// ([`burst_comm::FaultPlan::slow_compute`]) are charged inside
/// [`Communicator::advance_compute`].
pub fn run_span(
    comm: &mut Communicator,
    cfg: &EngineConfig,
    model: &mut Model,
    start_step: usize,
    end_step: usize,
    mut on_step: impl FnMut(&mut Communicator, usize, &Model, &[f32]),
) -> Result<SpanOutcome, CommError> {
    let mut losses = Vec::with_capacity(end_step.saturating_sub(start_step));
    let mut last = None;
    let mut skipped_steps = 0usize;
    let mut dropped_micros = 0usize;
    let state_shard = if cfg.fsdp { comm.world_size() } else { 1 };
    let state_ids = bill_state_entries(comm, cfg, state_shard);
    for step in start_step..end_step {
        // The step span also covers the checkpoint `on_step` may write. A
        // step that fails out via `?` leaves it open; the trace collector
        // force-closes it at the failure clock with a warning.
        comm.span_begin(SpanKind::Step, "step");
        let done = step_on(comm, &mut Group::World, cfg, model, step)?;
        losses.push(done.loss);
        skipped_steps += usize::from(done.skipped);
        dropped_micros += done.dropped_micros;
        last = Some(done.out);
        on_step(comm, step + 1, model, &losses);
        comm.span_end();
    }
    free_state_entries(comm, state_ids);
    Ok(SpanOutcome {
        losses,
        last,
        skipped_steps,
        dropped_micros,
    })
}

/// What one optimizer step produced on this rank.
struct StepDone {
    /// Global mean loss of the step.
    loss: f32,
    /// The optimizer update was skipped in lockstep after gradient poison.
    skipped: bool,
    /// Poisoned micro-batches this rank rolled back.
    dropped_micros: usize,
    /// A topology-aware ring ran on the flat ring because the group's
    /// ranks were ragged across nodes.
    fell_flat: bool,
    /// The last micro-batch's rank-local output.
    out: StepOutput,
}

/// One optimizer step over `group`: the FSDP weight gather, every
/// micro-batch through the backend's executor (rolling back a poisoned one
/// when accumulation allows), the gradient sync that also reduces the loss
/// and agrees on a lockstep skip, then Adam and the offload charge. The
/// same messages in the same order for the fixed world and an alive set of
/// the same shape. A typed error leaves spans open for the caller to
/// settle; the model is then mid-step.
fn step_on(
    comm: &mut Communicator,
    group: &mut Group<'_>,
    cfg: &EngineConfig,
    model: &mut Model,
    step: usize,
) -> Result<StepDone, CommError> {
    let n = cfg.model.seq_len;
    let accum = cfg.grad_accum.max(1);
    // Per-micro gradient snapshots cost a full state clone, so only arm
    // them when this rank actually has poison scheduled and accumulation
    // gives a finer granularity than the whole step.
    let can_rollback = accum > 1
        && comm
            .fault_plan()
            .is_some_and(|p| p.has_poisons(comm.rank()));
    model.zero_grads();
    if cfg.fsdp {
        fsdp::try_gather_weights(comm, group, &mut model.params_mut())?;
    }
    if cfg.emulate_bf16 {
        // fp32 Adam masters persist in `m`/`v` and the pre-rounding `w`
        // evolution; the compute stream sees bf16 weights.
        for p in model.params_mut() {
            p.w.round_bf16_inplace();
        }
    }
    let mut step_loss_sum = 0.0f32;
    let mut out = None;
    let mut local_bad = 0.0f32;
    let mut dropped = 0usize;
    let mut fell_flat = false;
    for micro in 0..accum {
        comm.span_begin(SpanKind::Micro, "micro");
        let snapshot: Option<Vec<Mat>> =
            can_rollback.then(|| model.params().iter().map(|p| p.grad.clone()).collect());
        let (tokens, targets) = synthetic_batch(&cfg.model, step * accum + micro);
        // Backend-specific exec and local row indices.
        let micro_out = match cfg.backend {
            Backend::Local => {
                let mut exec = LocalExec::new(cfg.mask.clone(), n);
                step_with(&mut *model, &tokens, &targets, &mut exec, cfg, accum)?
            }
            Backend::Ring(algo) => {
                let members = group.members(comm);
                let mut exec = DistExec::new(
                    comm,
                    members,
                    algo,
                    cfg.layout,
                    cfg.mask.clone(),
                    n,
                    cfg.cost,
                );
                exec.skip = cfg.skip_masked_rounds;
                let out = step_with(&mut *model, &tokens, &targets, &mut exec, cfg, accum)?;
                fell_flat |= exec.flat_fallback();
                out
            }
            Backend::Ulysses | Backend::Usp { .. } => {
                let ulysses_size = match cfg.backend {
                    Backend::Usp { ulysses_size } => ulysses_size,
                    _ => comm.world_size(),
                };
                let mut exec = UspExec::new(comm, ulysses_size, cfg.mask.clone(), n, cfg.cost);
                exec.skip = cfg.skip_masked_rounds;
                step_with(&mut *model, &tokens, &targets, &mut exec, cfg, accum)?
            }
        };
        // Dense-path compute time (attention time was charged inside
        // the backend).
        let dense_secs = dense_flops_per_token(&cfg.model, cfg.strategy) * micro_out.tokens as f64
            / (cfg.cost.peak_flops * cfg.cost.efficiency);
        if dense_secs.is_finite() {
            comm.advance_compute(dense_secs);
        }
        step_loss_sum += micro_out.loss_sum;
        out = Some(micro_out);
        // Scheduled compute-side fault: the backward "produced" a bad
        // gradient. The forward loss above is untouched.
        if let Some(v) = comm.grad_poison(step as u64, micro as u64) {
            comm.span_instant(SpanKind::Fault, "grad_poison");
            model.params_mut()[0].grad.as_mut_slice()[0] = v;
            if !v.is_finite() {
                match snapshot {
                    Some(snap) => {
                        // Roll the whole micro back and keep going — the
                        // other micros' work is not lost.
                        for (p, s) in model.params_mut().into_iter().zip(snap) {
                            p.grad = s;
                        }
                        dropped += 1;
                        comm.span_instant(SpanKind::Fault, "micro_rollback");
                    }
                    None => local_bad = 1.0,
                }
            }
        }
        comm.span_end();
    }
    let out = out.expect("grad_accum >= 1");
    if dropped == accum {
        // Every micro was poisoned: nothing usable survived.
        local_bad = 1.0;
    } else if dropped > 0 {
        // Rescale the surviving micros' contribution to an unbiased
        // estimate of this rank's full-step gradient.
        let scale = accum as f32 / (accum - dropped) as f32;
        for p in model.params_mut() {
            for g in p.grad.as_mut_slice() {
                *g *= scale;
            }
        }
    }
    // Global mean loss + the poison flag, reduced together so every rank
    // takes the same skip decision: they ride the gradient sync, the step's
    // one collective after its last micro-batch.
    let local = [step_loss_sum, local_bad];
    let reduced = fsdp::try_sync_grads(comm, group, &mut model.params_mut(), &local)?;
    let loss = reduced[0] / (n * accum) as f32;
    if !loss.is_finite() {
        // A poisoned reduction: some rank fed NaN/Inf into the loss
        // itself. Surface it as a typed error so the recovery loop can
        // roll back to the last good checkpoint instead of training on.
        return Err(CommError::Corrupt {
            rank: comm.rank(),
            src: comm.rank(),
            detail: format!("non-finite global loss {loss} at step {step}"),
        });
    }
    let skipped = reduced[1] > 0.0;
    if skipped {
        // Some rank's gradients went non-finite beyond repair: skip the
        // optimizer update in lockstep (the synced grads are discarded,
        // weights and Adam state stay at the last good step) and train on.
        comm.span_instant(SpanKind::Fault, "skip_step");
        model.zero_grads();
    } else {
        model.adam_step(&cfg.adam, step as u64 + 1);
        if cfg.offload_optimizer {
            // The update itself ran on identical replicas above; charge the
            // ZeRO-Offload PCIe round trip for the sharded states.
            let shard = if cfg.fsdp { group.shape(comm).0 } else { 1 };
            comm.advance_compute(fsdp::offload_step_seconds(cfg.model.param_count(), shard));
        }
    }
    Ok(StepDone {
        loss,
        skipped,
        dropped_micros: dropped,
        fell_flat,
        out,
    })
}

/// One micro-batch through `exec`; fails with the executor's latched fault.
fn step_with<E: AttnExec>(
    model: &mut Model,
    tokens: &[usize],
    targets: &[usize],
    exec: &mut E,
    cfg: &EngineConfig,
    accum: usize,
) -> Result<StepOutput, CommError> {
    let idx = exec.local_indices();
    let local_tokens: Vec<usize> = idx.iter().map(|&i| tokens[i]).collect();
    let local_targets: Vec<usize> = idx.iter().map(|&i| targets[i]).collect();
    let precision = if cfg.bf16_activations {
        ActPrecision::Bf16
    } else {
        ActPrecision::F32
    };
    let out = model.train_step_prec(
        &local_tokens,
        &local_targets,
        exec,
        cfg.strategy,
        cfg.model.seq_len * accum,
        precision,
    );
    exec.take_failure().map_or(Ok(out), Err)
}

/// Run a full distributed training job on `world` and aggregate metrics.
/// Every rank keeps a memory ledger, which observes without changing a bit
/// of the run.
pub fn train(world: &World, cfg: &EngineConfig, steps: usize) -> TrainMetrics {
    let mut outs = world.run(|comm| {
        comm.start_mem_accounting();
        run_rank(comm, cfg, steps)
    });
    let wall_time = outs.iter().map(|o| o.time).fold(0.0, f64::max);
    let comm = outs
        .iter()
        .map(|o| o.stats)
        .fold(CommStats::default(), |a, b| a.merge(&b));
    let losses = outs[0].result.0.clone();
    for o in &outs {
        assert_eq!(o.result.0, losses, "ranks disagree on the global loss");
    }
    let g = world.topology().world_size() as f64;
    let total_tokens = (cfg.model.seq_len * steps) as f64;
    let tgs = if wall_time > 0.0 {
        total_tokens / wall_time / g
    } else {
        f64::INFINITY
    };
    let mfu = if wall_time > 0.0 && cfg.cost.peak_flops.is_finite() {
        useful_flops(&cfg.model, &cfg.mask) * steps as f64 / (wall_time * cfg.cost.peak_flops * g)
    } else {
        f64::NAN
    };
    let ledgers: Vec<MemReport> = outs.iter_mut().filter_map(|o| o.mem.take()).collect();
    let shard = if cfg.fsdp {
        world.topology().world_size()
    } else {
        1
    };
    TrainMetrics {
        losses,
        wall_time,
        tgs,
        mfu,
        peak_census: peak_census(&ledgers),
        state_bytes_per_rank: fsdp::device_state_bytes(
            cfg.model.param_count(),
            shard,
            cfg.offload_optimizer,
        ),
        comm,
    }
}

/// Options for [`run_span_elastic`]. A step is replayed in place at most
/// once per rank of the world before the span gives up.
#[derive(Debug, Clone, Default)]
pub struct ElasticCfg {
    /// Retry policy for the shrink collectives and membership agreements.
    pub policy: RetryPolicy,
    /// Sharded checkpoint directory (`BURSTCKPT v2`). Required when the
    /// fault plan schedules joins: a checkpoint is force-written at the end
    /// of the step before each join so the joiner can warm-start from it.
    pub ckpt_dir: Option<PathBuf>,
    /// Also checkpoint every `every` steps (0 = only before joins and at
    /// span end).
    pub every: usize,
}

/// Per-rank outcome of an elastic span.
#[derive(Debug, Clone)]
pub struct ElasticOutcome {
    /// Full global loss history (prior + this span) as this rank saw it.
    pub losses: Vec<f32>,
    /// Ranks evicted by in-step recovery, in eviction order.
    pub evicted: Vec<usize>,
    /// Ranks re-admitted by the Join leg, in admission order.
    pub rejoined: Vec<usize>,
    /// Steps replayed from their top by in-step recovery.
    pub steps_replayed: usize,
    /// Steps where a topology-aware algorithm ran on the flat ring because
    /// the survivor pattern was ragged across nodes.
    pub flat_fallbacks: usize,
    /// Optimizer updates skipped in lockstep after gradient poison.
    pub skipped_steps: usize,
    /// Poisoned micro-batches this rank rolled back in the steps it
    /// completed.
    pub dropped_micros: usize,
    /// Step at which this rank left the job for good (`None` = finished).
    pub parked_at: Option<usize>,
    /// Final membership epoch.
    pub epoch: u64,
}

/// How a failure relates to the rank observing it.
fn fatal_to_me(e: &CommError, me: usize) -> bool {
    matches!(e,
        CommError::Crashed { rank, .. } | CommError::Panicked { rank, .. } if *rank == me)
}

/// Run training steps `start_step..end_step` **elastically**: scheduled
/// leaves shrink the ring, scheduled joins grow it back (the joiner
/// warm-starts from the sharded checkpoint the survivors committed), and a
/// mid-step fault is repaired *inside* the step — the survivors agree on
/// the eviction, restore the step-start model snapshot and replay the step
/// on the shrunken ring, instead of restarting the whole attempt.
///
/// Each step is [`run_span`]'s step over the alive set, so gradient poison
/// is handled alike: a poisoned micro-batch is rolled back and the rest
/// rescaled under gradient accumulation, and the update is skipped in
/// lockstep without it.
///
/// The churn schedule comes from the world's [`burst_comm::FaultPlan`]
/// (`leave_at` / `join_at` / `churn_storm`), which every rank knows
/// deterministically — a real cluster's scheduler plays this role. Within a
/// step the member list is fixed; churn is applied at step boundaries:
/// joins first (so a rank can hand off to its replacement in one step),
/// then leaves, then the step itself.
///
/// Bit-identity: every collective in the step — weight gather, ring
/// attention, the gradient sync that also reduces the loss — runs over the
/// ascending alive set with this rank at its membership position, with the
/// same accumulation order as a fresh world of that size. A span that
/// shrinks at step `f` and regrows at step `j` therefore reproduces, bit
/// for bit, the segmented reference: a fresh full world over `[0, f)`, a
/// fresh shrunken world over `[f, j)` warm-started from the first segment,
/// and a fresh full world over `[j, end)` warm-started from the second.
/// `crates/verify` gates on exactly this equivalence.
pub fn run_span_elastic(
    comm: &mut Communicator,
    cfg: &EngineConfig,
    model: &mut Model,
    start_step: usize,
    end_step: usize,
    prior_losses: &[f32],
    ecfg: &ElasticCfg,
) -> Result<ElasticOutcome, CommError> {
    assert!(
        matches!(cfg.backend, Backend::Ring(_)),
        "run_span_elastic requires a ring backend"
    );
    let me = comm.rank();
    let mut m = Membership::new(comm.world_size());
    // The deterministic churn schedule, cloned out of the communicator so
    // it stays mutably borrowable.
    let plan = comm.fault_plan().cloned().unwrap_or_default();
    if plan.has_churn() {
        assert!(
            ecfg.ckpt_dir.is_some()
                || plan
                    .churn_events()
                    .iter()
                    .all(|e| e.kind == ChurnKind::Leave),
            "scheduled joins need ElasticCfg::ckpt_dir for the warm-start"
        );
    }
    let mut out = ElasticOutcome {
        losses: prior_losses.to_vec(),
        evicted: Vec::new(),
        rejoined: Vec::new(),
        steps_replayed: 0,
        flat_fallbacks: 0,
        skipped_steps: 0,
        dropped_micros: 0,
        parked_at: None,
        epoch: 0,
    };
    let mut step = start_step;
    'span: while step < end_step {
        // Scheduled joins first: the ring regrows before the step runs.
        let joiners: Vec<usize> = plan
            .joins_at(step as u64)
            .into_iter()
            .filter(|&r| !m.is_alive(r))
            .collect();
        if !joiners.is_empty() {
            let j = agree_on_join(comm, &mut m, &joiners, &ecfg.policy)?;
            out.rejoined.extend(j.admitted.iter().copied());
        }
        // Scheduled leaves: the departing ranks and the survivors agree,
        // then the leaver parks until its rejoin step (if it has one).
        let leavers: Vec<usize> = plan
            .leaves_at(step as u64)
            .into_iter()
            .filter(|&r| m.is_alive(r))
            .collect();
        if !leavers.is_empty() {
            agree_on_leave(comm, &mut m, &leavers, &ecfg.policy)?;
            if leavers.contains(&me) {
                let Some(j) = plan.rejoin_step(me, step as u64) else {
                    out.parked_at = Some(step);
                    break 'span;
                };
                // Park: wait for the leader's invite at step `j`. The wait
                // spans many survivor steps, so the petitioner must be
                // patient about receive timeouts.
                let patient = RetryPolicy {
                    max_attempts: u32::MAX,
                    ..ecfg.policy
                };
                let cohort = plan.joins_at(j);
                let res = agree_on_join(comm, &mut m, &cohort, &patient)?;
                if !m.is_alive(me) {
                    out.parked_at = Some(step);
                    break 'span;
                }
                out.rejoined.extend(res.admitted.iter().copied());
                // Warm-start from the checkpoint the survivors committed at
                // the end of step j-1 (BURSTCKPT v2 shards).
                let dir = ecfg
                    .ckpt_dir
                    .as_ref()
                    .expect("scheduled rejoin requires ElasticCfg::ckpt_dir");
                let (loaded, man, _files) = load_sharded(dir).map_err(|e| CommError::Corrupt {
                    rank: me,
                    src: me,
                    detail: format!("warm-start restore failed: {e}"),
                })?;
                *model = loaded;
                out.losses = man.losses.clone();
                debug_assert_eq!(man.step, j, "warm-start checkpoint is stale");
                step = man.step as usize;
                continue 'span;
            }
        }
        // The step itself, replayed in place on the shrunken ring if a
        // member dies partway through it.
        let mut attempts = 0usize;
        let done = loop {
            attempts += 1;
            let snapshot = model.clone();
            let span_depth = comm.span_depth();
            if attempts > 1 {
                comm.span_begin(SpanKind::Replay, "replay_step");
            }
            match elastic_step(comm, &mut m, cfg, model, step, &ecfg.policy) {
                Ok(done) => {
                    if attempts > 1 {
                        comm.span_end();
                    }
                    break done;
                }
                Err(e) => {
                    comm.span_unwind(span_depth);
                    if fatal_to_me(&e, me) {
                        return Err(e);
                    }
                    *model = snapshot;
                    if !m.is_alive(me) {
                        // The step's internal agreement already parked this
                        // rank (minority side of a split) — no second
                        // agreement round; just stop here.
                        if !out.evicted.contains(&me) {
                            out.evicted.push(me);
                        }
                        out.parked_at = Some(step);
                        break 'span;
                    }
                    if let CommError::Evicted { evicted, .. } = &e {
                        // A shrinking collective (the FSDP gather or sync)
                        // already agreed on this eviction and applied it
                        // to `m`; the round below then finds nothing new.
                        out.evicted.extend(evicted.iter().copied());
                    }
                    let suspects: Vec<usize> = dead_ranks(&e)
                        .into_iter()
                        .filter(|&r| r != me && m.is_alive(r))
                        .collect();
                    send_abort(comm, &m, &suspects);
                    let agreed = agree_on_eviction(comm, &mut m, &suspects, &ecfg.policy)?;
                    out.evicted.extend(agreed.evicted.iter().copied());
                    if !m.is_alive(me) {
                        out.parked_at = Some(step);
                        break 'span;
                    }
                    out.steps_replayed += 1;
                    if attempts > m.world_size() {
                        return Err(e);
                    }
                }
            }
        };
        out.losses.push(done.loss);
        out.skipped_steps += usize::from(done.skipped);
        out.dropped_micros += done.dropped_micros;
        out.flat_fallbacks += usize::from(done.fell_flat);
        step += 1;
        if let Some(dir) = ecfg.ckpt_dir.as_ref() {
            let join_next =
                step < end_step && plan.joins_at(step as u64).iter().any(|&r| !m.is_alive(r));
            let periodic = ecfg.every > 0 && step.is_multiple_of(ecfg.every);
            if join_next || periodic || step == end_step {
                comm.span_begin(SpanKind::Checkpoint, "checkpoint");
                let epoch = m.epoch();
                let group = &mut Group::Alive(&mut m, &ecfg.policy);
                commit_sharded(comm, group, dir, model, step, &out.losses, epoch)?;
                comm.span_end();
            }
        }
    }
    out.epoch = m.epoch();
    Ok(out)
}

/// One attempt at one elastic optimizer step over the current alive set; a
/// typed error means a member died and the caller should evict and replay.
fn elastic_step(
    comm: &mut Communicator,
    m: &mut Membership,
    cfg: &EngineConfig,
    model: &mut Model,
    step: usize,
    policy: &RetryPolicy,
) -> Result<StepDone, CommError> {
    comm.span_begin(SpanKind::Step, "step");
    // Re-billed every elastic step: the FSDP shard tracks the alive set.
    let state_ids = bill_state_entries(comm, cfg, if cfg.fsdp { m.num_alive() } else { 1 });
    let done = step_on(comm, &mut Group::Alive(m, policy), cfg, model, step)?;
    free_state_entries(comm, state_ids);
    comm.span_end();
    Ok(done)
}

/// Sharded checkpoint of `model` after `done` steps over `group`: each
/// member stages the shard at its position for a world of the group's size
/// — exactly what a fresh world of that size would write — and the leader
/// (position 0) publishes every staged shard and commits the manifest
/// between two barriers. A member that fails before the leader's publish
/// leaves the previous checkpoint whole. Replicas are bit-identical, so the
/// leader derives every shard's metadata from its own state without
/// re-reading the files.
fn commit_sharded(
    comm: &mut Communicator,
    group: &mut Group<'_>,
    dir: &Path,
    model: &Model,
    done: usize,
    losses: &[f32],
    epoch: u64,
) -> Result<(), CommError> {
    let (g, pos) = group.shape(comm);
    let rank = comm.rank();
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| panic!("rank {rank}: checkpoint dir creation failed: {e}"));
    let flat = model.flat_state();
    stage_shard(dir, pos, g, &flat)
        .unwrap_or_else(|e| panic!("rank {rank}: shard write failed: {e}"));
    group.barrier(comm)?;
    if pos == 0 {
        let committed = (0..g)
            .map(|s| publish_shard(dir, s).and_then(|()| shard_meta(&flat, g, s)))
            .collect::<io::Result<Vec<_>>>()
            .and_then(|shards| {
                let man = ShardManifest {
                    step: done as u64,
                    epoch,
                    world_size: g,
                    flat_len: flat.len(),
                    cfg: model.cfg,
                    losses: losses.to_vec(),
                    shards,
                };
                write_manifest(dir, &man)
            });
        committed.unwrap_or_else(|e| panic!("rank {rank}: checkpoint commit failed: {e}"));
    }
    // No member trains past an uncommitted checkpoint.
    group.barrier(comm)
}

/// Configuration of the elastic recovery loop in [`train_with_recovery`].
#[derive(Debug, Clone)]
pub struct RecoveryCfg {
    /// Checkpoint every `every` optimizer steps and after the last one:
    /// every rank stages its own shard, and the leader publishes them with
    /// the manifest.
    pub every: usize,
    /// Checkpoint directory: per-rank shard files plus a checksummed
    /// manifest (`BURSTCKPT v2`, see [`crate::checkpoint_shard`]).
    pub path: PathBuf,
    /// Give up after this many restarts.
    pub max_restarts: usize,
    /// When a restart is caused by a failure that names dead ranks,
    /// continue on a world shrunk by those ranks instead of a same-size
    /// replacement cluster.
    pub shrink: bool,
    /// Repair failures **inside** the failed step: survivors agree on the
    /// eviction and replay only the current step on the shrunken ring via
    /// [`run_span_elastic`], instead of restarting the attempt from the
    /// last checkpoint. Scheduled churn (leave/join events in the world's
    /// fault plan) is honored too. Needs a ring backend; any other backend
    /// fails with [`io::ErrorKind::InvalidInput`] before a world is built.
    pub in_step: bool,
    /// Suppress the one-line recovery summary printed on completion.
    pub quiet: bool,
}

/// What [`train_with_recovery`] observed: the full loss history (bit-exact
/// against an uninterrupted run), the restarts it performed, and the typed
/// failure that triggered each one.
#[derive(Debug)]
pub struct RecoveryReport {
    /// Global mean loss of every step, across all attempts.
    pub losses: Vec<f32>,
    /// How many times the job was restarted from a checkpoint.
    pub restarts: usize,
    /// One representative typed failure per failed attempt.
    pub failures: Vec<CommError>,
    /// The final model state after all `steps` completed.
    pub final_model: Model,
    /// Optimizer steps the skip-and-rescale path dropped in the final
    /// (successful) attempt.
    pub skipped_steps: usize,
    /// Poisoned micro-batches rolled back across all ranks of the final
    /// attempt.
    pub dropped_micros: usize,
    /// Ranks evicted by the shrink path or by in-step recovery, in eviction
    /// order (rank ids are relative to the world they were evicted from).
    pub evicted_ranks: Vec<usize>,
    /// Ranks re-admitted by the Join leg, in admission order.
    pub rejoined_ranks: Vec<usize>,
    /// Shard files read across every restore.
    pub shards_reloaded: usize,
    /// Completed-then-lost steps re-run after restarts (work between the
    /// last checkpoint and each failure).
    pub steps_replayed: usize,
}

/// Elastic training: run `steps` optimizer steps, committing a sharded
/// checkpoint every `recovery.every` steps, and when any rank fails —
/// crash, timeout, lost peer, corrupted message or poisoned loss — restore
/// the last good checkpoint and replay from there on a fresh world. Restart
/// and in-step recovery write and read checkpoints the same way.
///
/// `make_world(attempt, shrink_to)` builds the cluster for each attempt
/// (attempt 0 first); a fault-injection test hands back a faulty world
/// first and clean worlds after, modelling a failed node being replaced.
/// `shrink_to` is `Some(n)` only when [`RecoveryCfg::shrink`] decided to
/// continue on `n` ranks after an eviction — the closure must then return a
/// world of that size; `None` means "your configured size". Because every
/// quantity in [`run_span`] depends only on the restored model state and
/// the absolute step index, a same-size recovered run is bit-identical to
/// one that never failed.
pub fn train_with_recovery(
    make_world: impl Fn(usize, Option<usize>) -> World,
    cfg: &EngineConfig,
    steps: usize,
    recovery: &RecoveryCfg,
) -> io::Result<RecoveryReport> {
    if recovery.in_step && !matches!(cfg.backend, Backend::Ring(_)) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "in-step recovery requires a ring backend, not {:?}",
                cfg.backend
            ),
        ));
    }
    let every = recovery.every.max(1);
    let mut restarts = 0usize;
    let mut failures: Vec<CommError> = Vec::new();
    let mut evicted_ranks: Vec<usize> = Vec::new();
    let mut rejoined_ranks: Vec<usize> = Vec::new();
    let mut shards_reloaded = 0usize;
    let mut steps_replayed = 0usize;
    let mut shrink_to: Option<usize> = None;
    // Highest step any rank completed in the current attempt; what was done
    // past the checkpoint at failure time gets replayed.
    let completed = Arc::new(AtomicUsize::new(0));
    // Set after a failed attempt to the step work had reached, so the next
    // restore can account the replay.
    let mut lost_from: Option<usize> = None;
    loop {
        // Resume from the last good checkpoint, or start fresh when none
        // has been written yet. A present-but-invalid one is a hard error:
        // silently restarting a long job from step 0 would be worse.
        let (start_model, start_step, prior_losses) = match load_sharded(&recovery.path) {
            Ok((model, man, files)) => {
                shards_reloaded += files;
                (model, man.step as usize, man.losses)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                (Model::new(cfg.model, cfg.seed), 0, Vec::new())
            }
            Err(e) => return Err(e),
        };
        if let Some(reached) = lost_from.take() {
            steps_replayed += reached.saturating_sub(start_step);
        }
        completed.store(start_step, Ordering::Relaxed);
        let world = make_world(restarts, shrink_to);
        let world_size = world.topology().world_size();
        let epoch = evicted_ranks.len() as u64;
        let ckpt_path = recovery.path.clone();
        // In-step recovery reports evictions/rejoins/replays out of the
        // rank closures through a shared accumulator.
        let extras = Arc::new(Mutex::new(ElasticExtras::default()));
        let outs = world.run_faulty::<_, CommError, _>(|comm| {
            let mut model = start_model.clone();
            let completed = Arc::clone(&completed);
            if recovery.in_step {
                let ecfg = ElasticCfg {
                    policy: RetryPolicy::default(),
                    ckpt_dir: Some(ckpt_path.clone()),
                    every,
                };
                let eout = run_span_elastic(
                    comm,
                    cfg,
                    &mut model,
                    start_step,
                    steps,
                    &prior_losses,
                    &ecfg,
                )?;
                let finished = eout.parked_at.is_none();
                if finished {
                    completed.fetch_max(steps, Ordering::Relaxed);
                }
                {
                    let mut ex = extras.lock().unwrap_or_else(|p| p.into_inner());
                    for &r in &eout.evicted {
                        if !ex.evicted.contains(&r) {
                            ex.evicted.push(r);
                        }
                    }
                    for &r in &eout.rejoined {
                        if !ex.rejoined.contains(&r) {
                            ex.rejoined.push(r);
                        }
                    }
                    ex.steps_replayed = ex.steps_replayed.max(eout.steps_replayed);
                }
                let span = SpanOutcome {
                    losses: eout.losses[prior_losses.len()..].to_vec(),
                    last: None,
                    skipped_steps: eout.skipped_steps,
                    dropped_micros: eout.dropped_micros,
                };
                return Ok((span, model, finished));
            }
            let out = run_span(
                comm,
                cfg,
                &mut model,
                start_step,
                steps,
                |comm, done, m, sofar| {
                    completed.fetch_max(done, Ordering::Relaxed);
                    if done % every != 0 && done != steps {
                        return;
                    }
                    comm.span_begin(SpanKind::Checkpoint, "checkpoint");
                    let mut losses = prior_losses.clone();
                    losses.extend_from_slice(sofar);
                    let group = &mut Group::World;
                    if let Err(e) = commit_sharded(comm, group, &ckpt_path, m, done, &losses, epoch)
                    {
                        comm.escalate(e);
                    }
                    comm.span_end();
                },
            )?;
            Ok((out, model, true))
        });
        let mut first_err: Option<CommError> = None;
        let mut ok: Option<(SpanOutcome, Model)> = None;
        let mut dead: Vec<usize> = Vec::new();
        let mut attempt_dropped = 0usize;
        for out in outs {
            match out.result {
                Ok((span, model, finished)) => {
                    attempt_dropped += span.dropped_micros;
                    // A rank that left the job and stayed parked returns a
                    // partial outcome — not a failure, but not the result
                    // either. Prefer the longest (most complete) history.
                    if finished {
                        let better = ok
                            .as_ref()
                            .is_none_or(|p| span.losses.len() >= p.0.losses.len());
                        if better {
                            ok = Some((span, model));
                        }
                    }
                }
                Err(e) => {
                    dead.extend(dead_ranks(&e));
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        {
            let ex = extras.lock().unwrap_or_else(|p| p.into_inner());
            evicted_ranks.extend(ex.evicted.iter().copied());
            rejoined_ranks.extend(ex.rejoined.iter().copied());
            steps_replayed += ex.steps_replayed;
        }
        // In-step mode the attempt succeeds as long as some rank finished
        // every step: a crashed member's own error was already absorbed by
        // the survivors' in-step eviction.
        if recovery.in_step && ok.is_some() {
            if let Some(e) = first_err.take() {
                failures.push(e);
            }
        }
        match first_err {
            None => {
                let (span, final_model) = ok.expect("run_faulty returned no rank outputs");
                let mut losses = prior_losses;
                losses.extend(span.losses);
                if !recovery.quiet {
                    eprintln!(
                        "[recovery] steps={steps} restarts={restarts} replayed={steps_replayed} \
                         skipped={} dropped_micros={attempt_dropped} evicted={evicted_ranks:?} \
                         rejoined={rejoined_ranks:?} shards_reloaded={shards_reloaded}",
                        span.skipped_steps
                    );
                }
                return Ok(RecoveryReport {
                    losses,
                    restarts,
                    failures,
                    final_model,
                    skipped_steps: span.skipped_steps,
                    dropped_micros: attempt_dropped,
                    evicted_ranks,
                    rejoined_ranks,
                    shards_reloaded,
                    steps_replayed,
                });
            }
            Some(e) => {
                failures.push(e);
                restarts += 1;
                if restarts > recovery.max_restarts {
                    let last = failures.last().expect("at least one failure");
                    return Err(io::Error::other(format!(
                        "giving up after {} restarts; last failure: {last}",
                        recovery.max_restarts
                    )));
                }
                lost_from = Some(completed.load(Ordering::Relaxed));
                dead.sort_unstable();
                dead.dedup();
                dead.retain(|&r| r < world_size);
                if recovery.shrink && !dead.is_empty() && dead.len() < world_size {
                    shrink_to = Some(world_size - dead.len());
                    evicted_ranks.extend(dead);
                } else {
                    shrink_to = None;
                }
            }
        }
    }
}

/// What the in-step recovery closures report out of [`run_span_elastic`],
/// shared across the rank threads of one attempt.
#[derive(Default)]
struct ElasticExtras {
    evicted: Vec<usize>,
    rejoined: Vec<usize>,
    steps_replayed: usize,
}

/// Which ranks a failure implicates as dead, for the shrink path.
fn dead_ranks(e: &CommError) -> Vec<usize> {
    match e {
        CommError::Crashed { rank, .. } | CommError::Panicked { rank, .. } => vec![*rank],
        CommError::PeerLost { src, .. } | CommError::Timeout { src, .. } => vec![*src],
        CommError::Aborted { suspects, .. } => suspects.clone(),
        CommError::Evicted { evicted, .. } => evicted.clone(),
        _ => Vec::new(),
    }
}
