//! The differential harness: run a distributed schedule on the simulated
//! cluster, reassemble the sharded outputs into **global row order**, and
//! hand back something directly comparable to the serial oracle.
//!
//! Every runner here returns per-token tensors indexed by global position,
//! regardless of how the schedule sharded the sequence (contiguous, zigzag,
//! striped or head-parallel) — reassembly is the harness's job so the
//! comparisons stay one-liners.

use burst_comm::{CommError, FaultPlan, RankOutput, RetryPolicy, SpanKind, Topology, World};
use burst_dattn::ring::{AttnFailure, AttnShard};
use burst_dattn::usp::{try_usp_backward, try_usp_forward, UspTopo};
use burst_dattn::{try_run_attention_shard, Algo, CostModel, DattnError, Layout};
use burst_kernels::AttnMask;
use burst_model::engine::{run_span, run_span_elastic, ElasticCfg, EngineConfig};
use burst_model::Model;
use burst_tensor::{randn_mat, Mat};

/// A schedule's attention outputs reassembled into global row order.
#[derive(Debug, Clone)]
pub struct GlobalAttn {
    pub o: Mat,
    pub lse: Vec<f32>,
    pub dq: Mat,
    pub dk: Mat,
    pub dv: Mat,
    /// The payload elements of every message the run sent, rank by rank in
    /// send order, read off the ranks' `Send` spans.
    pub sends: Vec<u64>,
}

impl GlobalAttn {
    fn empty(n: usize, d: usize) -> Self {
        GlobalAttn {
            o: Mat::zeros(n, d),
            lse: vec![0.0; n],
            dq: Mat::zeros(n, d),
            dk: Mat::zeros(n, d),
            dv: Mat::zeros(n, d),
            sends: Vec::new(),
        }
    }

    fn scatter(&mut self, idx: &[usize], o: &Mat, lse: &[f32], dq: &Mat, dk: &Mat, dv: &Mat) {
        for (r, &g) in idx.iter().enumerate() {
            self.o.row_mut(g).copy_from_slice(o.row(r));
            self.lse[g] = lse[r];
            self.dq.row_mut(g).copy_from_slice(dq.row(r));
            self.dk.row_mut(g).copy_from_slice(dk.row(r));
            self.dv.row_mut(g).copy_from_slice(dv.row(r));
        }
    }
}

/// Deterministic global Q/K/V/∇O for a differential case.
pub fn attn_inputs(n: usize, d: usize, seed: u64) -> (Mat, Mat, Mat, Mat) {
    (
        randn_mat(n, d, 0.7, seed.wrapping_mul(4) + 1),
        randn_mat(n, d, 0.7, seed.wrapping_mul(4) + 2),
        randn_mat(n, d, 0.7, seed.wrapping_mul(4) + 3),
        randn_mat(n, d, 0.8, seed.wrapping_mul(4) + 4),
    )
}

fn head_scale(d: usize) -> f32 {
    1.0 / (d as f32).sqrt()
}

fn world_for(topo: &Topology, plan: Option<&FaultPlan>) -> World {
    match plan {
        Some(p) => World::with_faults(topo.clone(), p.clone()),
        None => World::new(topo.clone()),
    }
}

/// The payload elements of every `Send` span the ranks traced.
fn send_elems<R>(outs: &[RankOutput<R>]) -> Vec<u64> {
    outs.iter()
        .flat_map(|o| o.trace.iter().flat_map(|t| &t.spans))
        .filter(|s| s.kind == SpanKind::Send)
        .map(|s| s.elems)
        .collect()
}

/// Run a ring-family schedule (flat ring, BurstAttention backward,
/// double-ring, or topology-aware Burst) and reassemble.
#[allow(clippy::too_many_arguments)]
pub fn run_ring_family(
    algo: Algo,
    layout: Layout,
    topo: &Topology,
    n: usize,
    d: usize,
    seed: u64,
    mask: &AttnMask,
    plan: Option<&FaultPlan>,
) -> Result<GlobalAttn, AttnFailure> {
    run_ring_family_opts(algo, layout, topo, n, d, seed, mask, plan, false, None)
}

/// [`run_ring_family`] with mask-aware round skipping toggled explicitly —
/// the entry point for the skip-on vs skip-off bit-identity cells — and
/// the problem cut at `max_token`: every rank holds its tokens below the
/// cutoff, and the rows at or past it stay zero.
#[allow(clippy::too_many_arguments)]
pub fn run_ring_family_opts(
    algo: Algo,
    layout: Layout,
    topo: &Topology,
    n: usize,
    d: usize,
    seed: u64,
    mask: &AttnMask,
    plan: Option<&FaultPlan>,
    skip: bool,
    max_token: Option<usize>,
) -> Result<GlobalAttn, AttnFailure> {
    let g = topo.world_size();
    let (q, k, v, go) = attn_inputs(n, d, seed);
    let world = world_for(topo, plan);
    let mask = mask.clone();
    let outs = world.run_faulty::<_, AttnFailure, _>(move |comm| {
        comm.start_trace();
        let idx: Vec<usize> = layout
            .spans(n, g, comm.rank(), max_token)
            .into_iter()
            .flat_map(|s| s.iter())
            .collect();
        let (ql, kl, vl) = (
            q.gather_rows(&idx),
            k.gather_rows(&idx),
            v.gather_rows(&idx),
        );
        let shard = AttnShard {
            q: &ql,
            k: &kl,
            v: &vl,
            scale: head_scale(d),
            mask: &mask,
            layout,
            seq_len: n,
            cost: CostModel::free(),
            max_token,
            skip,
        };
        let (o, lse, dq, dk, dv) =
            try_run_attention_shard(algo, comm, &shard, &go.gather_rows(&idx))?;
        Ok((idx, o, lse, dq, dk, dv))
    });
    let mut global = GlobalAttn::empty(n, d);
    global.sends = send_elems(&outs);
    for out in outs {
        let (idx, o, lse, dq, dk, dv) = out.result?;
        global.scatter(&idx, &o, &lse, &dq, &dk, &dv);
    }
    Ok(global)
}

/// Run USP (Ulysses groups of size `ulysses_size` nested in zigzag rings;
/// `ulysses_size` = world size is pure Ulysses) and reassemble each head
/// separately.
#[allow(clippy::too_many_arguments)]
pub fn run_usp(
    topo: &Topology,
    n: usize,
    d: usize,
    heads: usize,
    ulysses_size: usize,
    seed: u64,
    mask: &AttnMask,
    plan: Option<&FaultPlan>,
) -> Result<Vec<GlobalAttn>, DattnError> {
    run_usp_opts(topo, n, d, heads, ulysses_size, seed, mask, plan, false)
}

/// [`run_usp`] with mask-aware skipping on the ring legs toggled explicitly
/// (the Ulysses all-to-all legs have no rounds to skip).
#[allow(clippy::too_many_arguments)]
pub fn run_usp_opts(
    topo: &Topology,
    n: usize,
    d: usize,
    heads: usize,
    ulysses_size: usize,
    seed: u64,
    mask: &AttnMask,
    plan: Option<&FaultPlan>,
    skip: bool,
) -> Result<Vec<GlobalAttn>, DattnError> {
    let per_head: Vec<(Mat, Mat, Mat, Mat)> = (0..heads)
        .map(|h| attn_inputs(n, d, seed.wrapping_mul(64) + h as u64))
        .collect();
    let world = world_for(topo, plan);
    let mask = mask.clone();
    let inputs = per_head.clone();
    let outs = world.run_faulty::<_, DattnError, _>(move |comm| {
        comm.start_trace();
        let utopo = UspTopo::new(comm, ulysses_size).with_skip(skip);
        let idx = utopo.local_idx(n);
        let gather = |sel: fn(&(Mat, Mat, Mat, Mat)) -> &Mat| -> Vec<Mat> {
            inputs.iter().map(|t| sel(t).gather_rows(&idx)).collect()
        };
        let q_heads = gather(|t| &t.0);
        let k_heads = gather(|t| &t.1);
        let v_heads = gather(|t| &t.2);
        let go_heads = gather(|t| &t.3);
        let ((o_heads, lse_heads), ctx) = try_usp_forward(
            comm,
            &utopo,
            &q_heads,
            &k_heads,
            &v_heads,
            head_scale(d),
            &mask,
            n,
            &CostModel::free(),
        )?;
        let (dq, dk, dv) = try_usp_backward(
            comm,
            &utopo,
            Some(ctx),
            &q_heads,
            &k_heads,
            &v_heads,
            &o_heads,
            &lse_heads,
            &go_heads,
            head_scale(d),
            &mask,
            n,
            &CostModel::free(),
        )?;
        Ok((idx, o_heads, lse_heads, dq, dk, dv))
    });
    let mut global: Vec<GlobalAttn> = (0..heads).map(|_| GlobalAttn::empty(n, d)).collect();
    let sends = send_elems(&outs);
    for head in &mut global {
        head.sends = sends.clone();
    }
    for out in outs {
        let (idx, o_heads, lse_heads, dq, dk, dv) = out.result?;
        for h in 0..heads {
            global[h].scatter(&idx, &o_heads[h], &lse_heads[h], &dq[h], &dk[h], &dv[h]);
        }
    }
    Ok(global)
}

// ---------------------------------------------------------------------------
// Engine-level differential runs.
// ---------------------------------------------------------------------------

/// What one engine training run produced, reduced to the comparable facts.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineRun {
    /// Global mean loss of every step.
    pub losses: Vec<f32>,
    /// Final flattened training state (identical across FSDP replicas —
    /// asserted bit-exactly before this struct is built).
    pub flat: Vec<f32>,
    /// How many optimizer steps were skipped in lockstep
    /// (gradient-poison recovery).
    pub skipped: usize,
}

/// Train `steps` steps on a fresh cluster and return the run's facts.
/// Every rank's parameter replica is asserted **bit-identical** (the FSDP
/// invariant) before rank 0's copy is returned.
pub fn engine_run(
    cfg: &EngineConfig,
    topo: &Topology,
    steps: usize,
    plan: Option<&FaultPlan>,
) -> Result<EngineRun, CommError> {
    engine_span(cfg, topo, 0, steps, None, plan)
}

/// Train steps `start..end`, optionally resuming from a flattened state
/// (`init`, as produced by a previous [`EngineRun::flat] at `start`).
pub fn engine_span(
    cfg: &EngineConfig,
    topo: &Topology,
    start: usize,
    end: usize,
    init: Option<&[f32]>,
    plan: Option<&FaultPlan>,
) -> Result<EngineRun, CommError> {
    let world = world_for(topo, plan);
    let cfg = cfg.clone();
    let init: Option<Vec<f32>> = init.map(|s| s.to_vec());
    let outs = world.run_faulty::<_, CommError, _>(move |comm| {
        let mut model = Model::new(cfg.model, cfg.seed);
        if let Some(flat) = &init {
            model.load_flat_state(flat);
        }
        let span = run_span(comm, &cfg, &mut model, start, end, |_, _, _, _| {})?;
        Ok((span.losses, model.flat_state(), span.skipped_steps))
    });
    let mut first: Option<EngineRun> = None;
    for out in outs {
        let (losses, flat, skipped) = out.result?;
        match &first {
            None => {
                first = Some(EngineRun {
                    losses,
                    flat,
                    skipped,
                })
            }
            Some(f) => {
                assert_eq!(f.losses, losses, "ranks disagree on the global loss");
                assert_eq!(f.skipped, skipped, "ranks disagree on skipped steps");
                crate::assert_bits_eq("fsdp replica", &f.flat, &flat);
            }
        }
    }
    Ok(first.expect("world has at least one rank"))
}

/// What an **elastic** engine run produced: the comparable training facts
/// plus the membership history in-step recovery and scheduled churn left
/// behind.
#[derive(Debug, Clone)]
pub struct ElasticEngineRun {
    /// Global mean loss of every step (full history, bit-comparable to a
    /// segmented reference of fresh worlds chained with [`engine_span`]).
    pub losses: Vec<f32>,
    /// Final flattened training state of the finishing ranks (asserted
    /// bit-identical across them).
    pub flat: Vec<f32>,
    /// Ranks evicted by in-step recovery, sorted.
    pub evicted: Vec<usize>,
    /// Ranks re-admitted by the Join leg, in admission order.
    pub rejoined: Vec<usize>,
    /// Steps replayed from their top by in-step recovery.
    pub steps_replayed: usize,
    /// Steps a topology-aware ring ran on the flat ring because the
    /// survivors were ragged across nodes.
    pub flat_fallbacks: usize,
    /// Optimizer steps skipped in lockstep (gradient poison).
    pub skipped: usize,
}

/// Train `steps` steps **elastically** ([`run_span_elastic`]): mid-step
/// faults are repaired inside the failed step, scheduled churn shrinks and
/// regrows the ring. Ranks that leave for good (parked) or die are
/// excluded from the result; the finishing ranks' replicas are asserted
/// bit-identical. `ckpt_dir` is required when the plan schedules joins.
pub fn engine_elastic(
    cfg: &EngineConfig,
    topo: &Topology,
    steps: usize,
    plan: Option<&FaultPlan>,
    ckpt_dir: Option<&std::path::Path>,
    every: usize,
) -> Result<ElasticEngineRun, CommError> {
    let world = world_for(topo, plan);
    let cfg = cfg.clone();
    let ecfg = ElasticCfg {
        policy: RetryPolicy::default(),
        ckpt_dir: ckpt_dir.map(|p| p.to_path_buf()),
        every,
    };
    let outs = world.run_faulty::<_, CommError, _>(move |comm| {
        let mut model = Model::new(cfg.model, cfg.seed);
        let out = run_span_elastic(comm, &cfg, &mut model, 0, steps, &[], &ecfg)?;
        Ok((out, model.flat_state()))
    });
    let mut first: Option<ElasticEngineRun> = None;
    for out in outs {
        match out.result {
            Ok((eo, flat)) => {
                if eo.parked_at.is_some() {
                    continue; // left the job for good — not a finisher
                }
                let mut evicted = eo.evicted;
                evicted.sort_unstable();
                evicted.dedup();
                let run = ElasticEngineRun {
                    losses: eo.losses,
                    flat,
                    evicted,
                    rejoined: eo.rejoined,
                    steps_replayed: eo.steps_replayed,
                    flat_fallbacks: eo.flat_fallbacks,
                    skipped: eo.skipped_steps,
                };
                match &first {
                    None => first = Some(run),
                    Some(f) => {
                        assert_eq!(
                            f.losses, run.losses,
                            "ranks disagree on the elastic loss history"
                        );
                        crate::assert_bits_eq("elastic replica", &f.flat, &run.flat);
                    }
                }
            }
            Err(e) => {
                // A crashed rank reports its own death; anything else is a
                // real failure the caller must see.
                if !matches!(e, CommError::Crashed { .. } | CommError::Panicked { .. }) {
                    return Err(e);
                }
            }
        }
    }
    Ok(first.expect("elastic engine run lost every rank"))
}

/// Op count `rank` has accumulated after `s` **clean** elastic steps on a
/// fresh `topo` world — for aiming a [`FaultPlan::crash_at_op`] inside a
/// specific training step.
pub fn elastic_ops_after(cfg: &EngineConfig, topo: &Topology, rank: usize, s: usize) -> u64 {
    let world = World::new(topo.clone());
    let cfg = cfg.clone();
    let outs = world.run_results(move |comm| {
        let mut model = Model::new(cfg.model, cfg.seed);
        run_span_elastic(comm, &cfg, &mut model, 0, s, &[], &ElasticCfg::default())
            .expect("clean elastic probe failed");
        comm.op_count()
    });
    outs[rank]
}

/// Train to `cut`, drop the world, then resume `cut..steps` on a fresh
/// cluster from the flattened state — the checkpoint/resume differential.
/// The fault plan applies to the **first** phase only (the resumed phase
/// runs clean, as after a real recovery).
pub fn engine_resume(
    cfg: &EngineConfig,
    topo: &Topology,
    cut: usize,
    steps: usize,
    plan: Option<&FaultPlan>,
) -> Result<EngineRun, CommError> {
    assert!(cut <= steps, "resume cut {cut} beyond {steps} steps");
    let phase1 = engine_span(cfg, topo, 0, cut, None, plan)?;
    if cut == steps {
        return Ok(phase1);
    }
    let phase2 = engine_span(cfg, topo, cut, steps, Some(&phase1.flat), None)?;
    let mut losses = phase1.losses;
    losses.extend(phase2.losses);
    Ok(EngineRun {
        losses,
        flat: phase2.flat,
        skipped: phase1.skipped + phase2.skipped,
    })
}
