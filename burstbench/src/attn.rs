//! The attention-only workload: one iteration is one forward+backward
//! `try_run_attention_opts` pass in a fresh `World`, cycling through the
//! six `burst-trace` configurations.

use std::time::Instant;

use burst_comm::{RankOutput, Topology, World};
use burst_dattn::{try_run_attention_opts, AttnFailure, CostModel};
use burst_kernels::{flash_backward, flash_forward};
use burst_tensor::{randn_mat, Mat};
use burst_verify::{compare_slice, ORACLE_ATTN_ATOL, ORACLE_ATTN_RTOL};
use burst_verify::{ORACLE_GRAD_ATOL, ORACLE_GRAD_RTOL};

use crate::workload::{attn_rows, seq_len, topology, AttnRow, Scale, Workload};
use crate::{collect, Bench, Iter, Record};

/// Head dim of every pass.
pub const HEAD_DIM: usize = 64;

/// Per-rank `[Q, K, V, ∇O]` shards of one configuration.
pub type Shards = Vec<[Mat; 4]>;

/// What one rank returns from a pass: `[O, ∇Q, ∇K, ∇V]` and the host
/// seconds spent inside the attention call.
pub type PassOut = RankOutput<Result<([Mat; 4], f64), AttnFailure>>;

/// Global `[Q, K, V, ∇O]` drawn from `seed`.
pub fn global_inputs(seq: usize, d: usize, seed: u64) -> [Mat; 4] {
    let s = seed.wrapping_mul(4);
    [
        randn_mat(seq, d, 0.7, s),
        randn_mat(seq, d, 0.7, s + 1),
        randn_mat(seq, d, 0.7, s + 2),
        randn_mat(seq, d, 0.8, s + 3),
    ]
}

/// Split global inputs into the shards `row`'s layout gives each rank.
pub fn shard_inputs(global: &[Mat; 4], row: &AttnRow, g: usize) -> Shards {
    let seq = global[0].rows();
    (0..g)
        .map(|rank| {
            let idx = row.layout.indices(seq, g, rank);
            global.each_ref().map(|m| m.gather_rows(&idx))
        })
        .collect()
}

pub struct Attn {
    topo: Topology,
    seq: usize,
    rows: Vec<AttnRow>,
    shards: Vec<Shards>,
    /// Single-device `[O, ∇Q, ∇K, ∇V]` of each configuration.
    refs: Vec<[Mat; 4]>,
    next: usize,
    corrupt: bool,
}

impl Attn {
    pub fn new(scale: Scale, seed: u64) -> Attn {
        let w = Workload::Attn32Rank;
        let seq = seq_len(w, scale);
        let topo = topology(w, scale);
        let g = topo.world_size();
        let global = global_inputs(seq, HEAD_DIM, seed);
        let rows = attn_rows(seq);
        let shards = rows.iter().map(|r| shard_inputs(&global, r, g)).collect();
        let all: Vec<usize> = (0..seq).collect();
        let [q, k, v, grad_o] = &global;
        let refs = rows
            .iter()
            .map(|r| {
                let fwd = flash_forward(q, k, v, scale_of(HEAD_DIM), &r.mask, &all, &all);
                let (dq, dk, dv, _) = flash_backward(
                    q,
                    k,
                    v,
                    &fwd.o,
                    grad_o,
                    &fwd.lse,
                    scale_of(HEAD_DIM),
                    &r.mask,
                    &all,
                    &all,
                );
                [fwd.o, dq, dk, dv]
            })
            .collect();
        Attn {
            topo,
            seq,
            rows,
            shards,
            refs,
            next: 0,
            corrupt: false,
        }
    }

    /// Reassemble the per-rank outputs in global row order and compare
    /// them with the single-device kernels.
    fn check(
        &mut self,
        i: usize,
        results: Vec<Result<[Mat; 4], AttnFailure>>,
    ) -> Result<(), String> {
        let row = &self.rows[i];
        let g = results.len();
        let mut global: [Mat; 4] = std::array::from_fn(|_| Mat::zeros(self.seq, HEAD_DIM));
        for (rank, r) in results.into_iter().enumerate() {
            let mut local = r.map_err(|e| format!("{} rank {rank}: {e}", row.name))?;
            if rank == 0 && std::mem::take(&mut self.corrupt) {
                local[0].as_mut_slice()[0] += 1.0;
            }
            let idx = row.layout.indices(self.seq, g, rank);
            for (dst, src) in global.iter_mut().zip(&local) {
                for (l, &gi) in idx.iter().enumerate() {
                    dst.row_mut(gi).copy_from_slice(src.row(l));
                }
            }
        }
        let names = ["o", "dq", "dk", "dv"];
        for (t, (got, want)) in global.iter().zip(&self.refs[i]).enumerate() {
            let (atol, rtol) = if t == 0 {
                (ORACLE_ATTN_ATOL, ORACLE_ATTN_RTOL)
            } else {
                (ORACLE_GRAD_ATOL, ORACLE_GRAD_RTOL)
            };
            compare_slice(names[t], got.as_slice(), want.as_slice(), atol, rtol)
                .map_err(|d| format!("{}: {d}", row.name))?;
        }
        Ok(())
    }
}

pub fn scale_of(d: usize) -> f32 {
    1.0 / (d as f32).sqrt()
}

/// One forward+backward pass of `row` over `shards` on `topo`, with the
/// observers `rec` selects.
pub fn pass(topo: &Topology, row: &AttnRow, shards: &Shards, rec: Record) -> Vec<PassOut> {
    let seq = shards.len() * shards[0][0].rows();
    let d = shards[0][0].cols();
    let cost = CostModel::a800();
    World::new(topo.clone()).run_faulty(|comm| {
        rec.arm(comm);
        let [q, k, v, grad_o] = &shards[comm.rank()];
        let t0 = Instant::now();
        let (o, _lse, dq, dk, dv) = try_run_attention_opts(
            row.algo,
            comm,
            q,
            k,
            v,
            grad_o,
            scale_of(d),
            &row.mask,
            row.layout,
            seq,
            &cost,
            row.skip,
        )?;
        Ok(([o, dq, dk, dv], t0.elapsed().as_secs_f64()))
    })
}

impl Bench for Attn {
    fn iterate(&mut self, rec: Record) -> Iter {
        let i = self.next % self.rows.len();
        self.next += 1;
        let t0 = Instant::now();
        let outs = pass(&self.topo, &self.rows[i], &self.shards[i], rec);
        let host_s = t0.elapsed().as_secs_f64();
        let (results, virt_s, capture) = collect(outs);
        let results = results.into_iter().map(|r| r.map(|(out, _)| out)).collect();
        Iter {
            host_s,
            tokens: self.seq,
            virt_s,
            check: self.check(i, results),
            capture,
        }
    }

    fn corrupt_next(&mut self) {
        self.corrupt = true;
    }

    fn cycle(&self) -> usize {
        self.rows.len()
    }
}
