//! Host-time probes: each layer's public functions called directly at the
//! shapes the workload drives them with, timed with `Instant`. Times are
//! medians of repeated calls; collective and pass times are measured
//! inside rank 0 of a live world.

use std::hint::black_box;
use std::time::Instant;

use burst_comm::{Communicator, MsgData, Topology, World};
use burst_dattn::Layout;
use burst_kernels::{flash_backward, flash_forward, fused_lm_loss};
use burst_model::{fsdp, AdamCfg, Model};
use burst_tensor::{randn_mat, Bf16Mat};

use crate::attn::{global_inputs, pass, scale_of, shard_inputs};
use crate::host::{median, time_median};
use crate::workload::ProbeShape;
use crate::{Metric, Record};

const SINGLE: &str = "single call, one thread";
const RANK0: &str = "per call, rank 0 of a live world";

/// Build per-rank state with `init`, then run `op` `reps` times on every
/// rank of a fresh world; median host seconds per call as rank 0 saw them.
fn in_world<S>(
    topo: &Topology,
    reps: usize,
    init: impl Fn() -> S + Sync,
    op: impl Fn(&mut Communicator, &mut S) + Sync,
) -> f64 {
    let outs = World::new(topo.clone()).run(|comm| {
        let mut state = init();
        let samples: Vec<f64> = (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                op(comm, &mut state);
                t0.elapsed().as_secs_f64()
            })
            .collect();
        median(&samples)
    });
    outs[0].result
}

/// A measured single-core FMA peak: independent 8-lane `mul_add` chains,
/// enough of them to cover FMA latency.
pub fn fma_peak_gflops() -> f64 {
    const CHAINS: usize = 12;
    const ITERS: usize = 2_000_000;
    let a = black_box([0.9999f32; 8]);
    let b = black_box([1e-4f32; 8]);
    let mut best = 0.0f64;
    for _ in 0..3 {
        let mut acc = [[0.5f32; 8]; CHAINS];
        let t0 = Instant::now();
        for _ in 0..ITERS {
            for chain in acc.iter_mut() {
                for l in 0..8 {
                    chain[l] = chain[l].mul_add(a[l], b[l]);
                }
            }
        }
        black_box(&acc);
        let flops = (2 * 8 * CHAINS * ITERS) as f64;
        best = best.max(flops / t0.elapsed().as_secs_f64() / 1e9);
    }
    best
}

/// All host probes of one workload. `budget` is the per-probe time
/// budget in seconds, `reps` the per-probe call count inside a world.
pub fn run(shape: &ProbeShape, seed: u64, budget: f64, reps: usize) -> Vec<Metric> {
    let mut m = Vec::new();
    let n = shape.local_tokens;
    let (dm, dff, vocab) = (shape.model.d_model, shape.model.d_ff, shape.model.vocab);
    let gflops = |flops: f64, s: f64| flops / s / 1e9;

    // tensor: the FFN products, and the bf16 stash encode/decode.
    let x = randn_mat(n, dm, 1.0, seed);
    let w1 = randn_mat(dm, dff, 0.1, seed + 1);
    let w1t = w1.transpose();
    let t = time_median(budget, || {
        black_box(x.matmul(&w1));
        black_box(x.matmul_nt(&w1t));
    });
    m.push(Metric::new("tensor.matmul_s", t, "s", SINGLE));
    m.push(Metric::new(
        "tensor.matmul_gflops",
        gflops(4.0 * (n * dm * dff) as f64, t),
        "GFLOP/s",
        SINGLE,
    ));
    let t = time_median(budget, || {
        black_box(Bf16Mat::from_mat(&x).to_mat());
    });
    m.push(Metric::new("tensor.bf16_roundtrip_s", t, "s", SINGLE));

    // kernels: one ring round — rank 0's queries against rank 1's keys —
    // at the per-round shard shape, with the workload's mask and the
    // zigzag layout's global indices. FLOPs come from allowed pairs.
    let seq = shape.model.seq_len;
    let rows = seq / shape.ring;
    let d = shape.head_dim;
    let qi = Layout::Zigzag.indices(seq, shape.ring, 0);
    let ki = Layout::Zigzag.indices(seq, shape.ring, 1);
    let [q, k, v, grad_o] = global_inputs(rows, d, seed);
    let scale = scale_of(d);
    let fwd = flash_forward(&q, &k, &v, scale, &shape.mask, &qi, &ki);
    let pairs = fwd.work.pairs as f64;
    let t = time_median(budget, || {
        black_box(flash_forward(&q, &k, &v, scale, &shape.mask, &qi, &ki));
    });
    m.push(Metric::new("kernels.flash_fwd_s", t, "s", SINGLE));
    m.push(Metric::new(
        "kernels.flash_fwd_gflops",
        gflops(4.0 * d as f64 * pairs, t),
        "GFLOP/s",
        SINGLE,
    ));
    let t = time_median(budget, || {
        black_box(flash_backward(
            &q,
            &k,
            &v,
            &fwd.o,
            &grad_o,
            &fwd.lse,
            scale,
            &shape.mask,
            &qi,
            &ki,
        ));
    });
    m.push(Metric::new("kernels.flash_bwd_s", t, "s", SINGLE));
    m.push(Metric::new(
        "kernels.flash_bwd_gflops",
        gflops(10.0 * d as f64 * pairs, t),
        "GFLOP/s",
        SINGLE,
    ));
    let head = randn_mat(vocab, dm, 0.1, seed + 2);
    let targets: Vec<usize> = (0..n).map(|i| (i * 7 + 3) % vocab).collect();
    let t = time_median(budget, || {
        black_box(fused_lm_loss(&x, &head, &targets));
    });
    m.push(Metric::new("kernels.lm_loss_s", t, "s", SINGLE));
    m.push(Metric::new(
        "kernels.lm_loss_gflops",
        gflops(6.0 * (n * vocab * dm) as f64, t),
        "GFLOP/s",
        SINGLE,
    ));
    m.push(Metric::new(
        "kernels.fma_peak_gflops",
        fma_peak_gflops(),
        "GFLOP/s",
        "one core",
    ));

    // comm: world spawn, ring shifts of the shard payload, and the
    // collectives at the shapes the schedules and FSDP use.
    let topo = &shape.topo;
    let g = topo.world_size();
    let t = time_median(budget, || {
        black_box(World::new(topo.clone()).run(|comm| comm.rank()));
    });
    m.push(Metric::new(
        "comm.world_spawn_s",
        t,
        "s",
        "per World::new + run",
    ));
    let shard = randn_mat(n, d, 1.0, seed + 3);
    let t = in_world(
        topo,
        reps,
        || (),
        |comm, _| {
            black_box(comm.ring_shift(MsgData::Mat(shard.clone())));
        },
    );
    m.push(Metric::new("comm.p2p_msg_s", t, "s", RANK0));
    let chunk = randn_mat((n / g).max(1), dm, 1.0, seed + 4);
    let t = in_world(
        topo,
        reps,
        || (),
        |comm, _| {
            black_box(comm.all_to_all_mat(vec![chunk.clone(); g]));
        },
    );
    m.push(Metric::new("comm.all_to_all_s", t, "s", RANK0));
    let param = randn_mat(vocab.max(dff), dm, 0.1, seed + 5);
    let param_shard = param.slice_rows(0, param.rows() / g);
    let t = in_world(
        topo,
        reps,
        || (),
        |comm, _| {
            black_box(comm.all_gather_mat(&param_shard));
        },
    );
    m.push(Metric::new("comm.all_gather_s", t, "s", RANK0));
    let t = in_world(
        topo,
        reps,
        || (),
        |comm, _| {
            black_box(comm.all_reduce_mat(&param));
        },
    );
    m.push(Metric::new("comm.all_reduce_s", t, "s", RANK0));

    // dattn: host seconds inside `try_run_attention_opts`.
    let mut samples = Vec::new();
    let global = global_inputs(seq, d, seed + 6);
    for row in &shape.passes {
        let shards = shard_inputs(&global, row, g);
        for _ in 0..2 {
            for o in pass(topo, row, &shards, Record::Off) {
                let (_, secs) = o.result.expect("probe pass failed");
                if o.rank == 0 {
                    samples.push(secs);
                }
            }
        }
    }
    m.push(Metric::new("dattn.pass_s", median(&samples), "s", RANK0));

    // model: FSDP collectives over the whole parameter set, and Adam.
    let cfg = shape.model;
    let build = || Model::new(cfg, seed);
    let t = in_world(topo, 3, build, |comm, model| {
        fsdp::gather_weights(comm, &mut model.params_mut())
    });
    m.push(Metric::new("model.fsdp_gather_s", t, "s", RANK0));
    let t = in_world(topo, 3, build, |comm, model| {
        fsdp::sync_grads(comm, &mut model.params_mut())
    });
    m.push(Metric::new("model.fsdp_sync_s", t, "s", RANK0));
    let mut model = Model::new(cfg, seed);
    let mut step = 0u64;
    let t = time_median(budget, || {
        step += 1;
        model.adam_step(&AdamCfg::default(), step);
    });
    m.push(Metric::new("model.adam_s", t, "s", SINGLE));
    m
}
