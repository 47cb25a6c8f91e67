//! Quickstart: distributed BurstAttention on a simulated cluster.
//!
//! Runs a causal attention forward + backward with the full BurstAttention
//! stack (topology-aware double ring, Algorithm 2 backward, zigzag workload
//! balance) on a simulated 2-node × 4-GPU cluster, verifies the result
//! against single-device flash attention, and prints the communication and
//! virtual-time statistics the paper's claims are made of.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use burstengine::kernels::flash_forward;
use burstengine::prelude::*;

fn main() {
    let n = 256; // global sequence length
    let d = 32; // head dimension
    let topo = Topology::a800(2, 4);
    let g = topo.world_size();
    println!("BurstAttention quickstart: {n} tokens on {g} simulated GPUs (2 nodes)");

    // Global problem, deterministic.
    let q = randn_mat(n, d, 0.7, 1);
    let k = randn_mat(n, d, 0.7, 2);
    let v = randn_mat(n, d, 0.7, 3);
    let grad_o = randn_mat(n, d, 0.8, 4);
    let scale = 1.0 / (d as f32).sqrt();
    let mask = AttnMask::Causal;

    // Single-device reference.
    let idx: Vec<usize> = (0..n).collect();
    let reference = flash_forward(&q, &k, &v, scale, &mask, &idx, &idx);

    // Distributed run: every rank gets its zigzag shard.
    let world = World::new(topo);
    let outs = world.run(|comm| {
        let my = Layout::Zigzag.indices(n, g, comm.rank());
        try_run_attention_opts(
            Algo::BurstTopo,
            comm,
            &q.gather_rows(&my),
            &k.gather_rows(&my),
            &v.gather_rows(&my),
            &grad_o.gather_rows(&my),
            scale,
            &mask,
            Layout::Zigzag,
            n,
            &CostModel::a800(),
            false,
        )
        .expect("fault-free attention")
    });

    // Verify each rank's output slice against the reference.
    let mut worst = 0.0f32;
    for out in &outs {
        let my = Layout::Zigzag.indices(n, g, out.rank);
        let expect = reference.o.gather_rows(&my);
        let diff = out.result.0.sub(&expect).max_abs();
        worst = worst.max(diff);
    }
    println!("max |distributed − single-device| over all ranks: {worst:.2e}");
    assert!(
        worst < 1e-3,
        "distributed attention must match the reference"
    );

    // Communication accounting (the 3Nd + 2N claim of Algorithm 2).
    let s = outs[0].stats;
    println!(
        "rank 0 sent {} elements ({} intra-node msgs, {} inter-node msgs)",
        s.total_elems(),
        s.intra_msgs,
        s.inter_msgs
    );
    println!(
        "virtual step time: {:.1} µs (compute {:.1} µs, waiting {:.1} µs)",
        outs.iter().map(|o| o.time).fold(0.0, f64::max) * 1e6,
        s.compute_time * 1e6,
        s.wait_time * 1e6
    );
    println!("OK");
}
