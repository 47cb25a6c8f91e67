//! Training workloads: one iteration is one `engine::run_span` step of
//! every rank, in a fresh `World` over per-rank models that persist
//! between iterations.

use std::sync::Mutex;
use std::time::Instant;

use burst_comm::{CommError, Topology, World};
use burst_model::engine::{run_span, Backend, EngineConfig};
use burst_model::Model;
use burst_verify::{compare_slice, ORACLE_TRAIN_ATOL, ORACLE_TRAIN_RTOL};

use crate::workload::{engine_config, topology, Scale, Workload};
use crate::{collect, Bench, Iter, Record};

pub struct Train {
    cfg: EngineConfig,
    topo: Topology,
    models: Vec<Mutex<Model>>,
    /// Absolute index of the next step: the synthetic batch and Adam's bias
    /// correction are functions of it.
    step: usize,
    corrupt: bool,
    /// Global loss of every step run so far, in order.
    losses: Vec<f32>,
}

/// First step of a run: the seed picks which window of the synthetic data
/// stream the run trains on.
fn first_step(seed: u64) -> usize {
    (seed % 1000) as usize
}

impl Train {
    pub fn new(w: Workload, scale: Scale, seed: u64) -> Train {
        let cfg = engine_config(w, scale, seed);
        let topo = topology(w, scale);
        // Seeded construction is deterministic: identical replicas, as FSDP
        // requires.
        let models = (0..topo.world_size())
            .map(|_| Mutex::new(Model::new(cfg.model, cfg.seed)))
            .collect();
        Train {
            cfg,
            topo,
            models,
            step: first_step(seed),
            corrupt: false,
            losses: Vec::new(),
        }
    }

    /// Every rank must report the same finite global loss, bit for bit.
    fn check(&mut self, results: Vec<Result<f32, CommError>>) -> Result<(), String> {
        let mut losses = Vec::with_capacity(results.len());
        for (rank, r) in results.into_iter().enumerate() {
            losses.push(r.map_err(|e| format!("rank {rank}: {e}"))?);
        }
        if std::mem::take(&mut self.corrupt) {
            losses[0] += 1.0;
        }
        let first = losses[0];
        if !first.is_finite() {
            return Err(format!("non-finite loss {first}"));
        }
        if losses.iter().any(|l| l.to_bits() != first.to_bits()) {
            return Err(format!("ranks disagree on the global loss: {losses:?}"));
        }
        self.losses.push(first);
        Ok(())
    }
}

impl Bench for Train {
    fn iterate(&mut self, rec: Record) -> Iter {
        let step = self.step;
        self.step += 1;
        let world = World::new(self.topo.clone());
        let (cfg, models) = (&self.cfg, &self.models);
        let t0 = Instant::now();
        let outs = world.run_faulty(|comm| -> Result<f32, CommError> {
            rec.arm(comm);
            let rank = comm.rank();
            let mut model = models[rank].lock().map_err(|_| CommError::Panicked {
                rank,
                detail: "model lock poisoned by an earlier panic".to_string(),
            })?;
            let out = run_span(comm, cfg, &mut model, step, step + 1, |_, _, _, _| {})?;
            Ok(out.losses[0])
        });
        let host_s = t0.elapsed().as_secs_f64();
        let (results, virt_s, capture) = collect(outs);
        Iter {
            host_s,
            tokens: self.cfg.model.seq_len,
            virt_s,
            check: self.check(results),
            capture,
        }
    }

    fn corrupt_next(&mut self) {
        self.corrupt = true;
    }

    fn cycle(&self) -> usize {
        1
    }

    fn digest(&self) -> Option<String> {
        let last = self.step;
        let first = last - self.losses.len();
        Some(format!(
            "loss digest {:016x} over steps {first}..{last} (last loss {:?})",
            loss_digest(&self.losses),
            self.losses.last()
        ))
    }
}

/// FNV-1a digest of a loss sequence's bits: equal digests mean equal
/// losses at every step.
pub fn loss_digest(losses: &[f32]) -> u64 {
    losses.iter().fold(0xcbf2_9ce4_8422_2325, |h, l| {
        l.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
    })
}

/// The single-worker baseline: `train-burst-causal`'s configuration at a
/// reduced sequence length, trained for two steps on the distributed stack
/// and with `Backend::Local` on one device; the losses must agree within
/// the verify crate's engine bounds.
pub fn local_baseline_check(scale: Scale, seed: u64) -> Result<(), String> {
    const STEPS: usize = 2;
    let w = Workload::TrainBurstCausal;
    let mut dist = engine_config(w, scale, seed);
    if scale == Scale::Full {
        dist.model.seq_len = 1024;
    }
    let mut local = dist.clone();
    local.backend = Backend::Local;
    local.fsdp = false;
    let start = first_step(seed);
    let run = |cfg: &EngineConfig, topo: Topology| -> Result<Vec<f32>, String> {
        let outs = World::new(topo).run_faulty(|comm| -> Result<Vec<f32>, CommError> {
            let mut model = Model::new(cfg.model, cfg.seed);
            Ok(run_span(comm, cfg, &mut model, start, start + STEPS, |_, _, _, _| {})?.losses)
        });
        let mut losses = Vec::new();
        for o in outs {
            let l = o.result.map_err(|e| format!("rank {}: {e}", o.rank))?;
            if !losses.is_empty() && l != losses {
                return Err(format!("ranks disagree on the losses: {l:?} vs {losses:?}"));
            }
            losses = l;
        }
        Ok(losses)
    };
    let d = run(&dist, topology(w, scale))?;
    let l = run(&local, Topology::single_node(1))?;
    compare_slice(
        "distributed vs single-worker loss",
        &d,
        &l,
        ORACLE_TRAIN_ATOL,
        ORACLE_TRAIN_RTOL,
    )
    .map_err(|e| e.to_string())
}
