//! Visualise the paper's Fig. 5: how BurstAttention's fine-grained overlap
//! hides communication under compute.
//!
//! Traces one distributed attention forward+backward per algorithm on a
//! simulated 2-node × 4-GPU cluster with a deliberately slow device (so
//! compute and communication are comparable) and prints each rank's flame
//! summary: virtual seconds in kernels, blocked waits, receives and
//! wire-busy sends, as bars against the rank's timeline.
//!
//! ```text
//! cargo run --release --example overlap_timeline
//! ```

use burstengine::comm::obs::{flame_text, wait_compute_secs};
use burstengine::comm::SpanKind;
use burstengine::prelude::*;

fn main() {
    let n = 128;
    let d = 32;
    let topo = Topology::a800(2, 4);
    let g = topo.world_size();
    let q = randn_mat(n, d, 0.7, 1);
    let k = randn_mat(n, d, 0.7, 2);
    let v = randn_mat(n, d, 0.7, 3);
    let go = randn_mat(n, d, 0.8, 4);
    let mask = AttnMask::Causal;
    // A slow simulated device: per-step compute is comparable to the ring
    // transfers, which is where overlap discipline matters.
    let cost = CostModel {
        peak_flops: 5e9,
        efficiency: 1.0,
    };

    let mut ratios = Vec::new();
    for algo in [Algo::RingFlat, Algo::DoubleRing, Algo::BurstTopo] {
        let world = World::new(topo.clone());
        let traces = world.run_results(|comm| {
            comm.start_trace();
            let idx = Layout::Zigzag.indices(n, g, comm.rank());
            try_run_attention_opts(
                algo,
                comm,
                &q.gather_rows(&idx),
                &k.gather_rows(&idx),
                &v.gather_rows(&idx),
                &go.gather_rows(&idx),
                1.0 / (d as f32).sqrt(),
                &mask,
                Layout::Zigzag,
                n,
                &cost,
                false,
            )
            .expect("fault-free attention");
            comm.take_rank_trace().expect("tracing is on")
        });
        let (wait, compute) = wait_compute_secs(&traces);
        let inter_sends: usize = traces
            .iter()
            .flat_map(|t| &t.spans)
            .filter(|s| s.kind == SpanKind::Send && s.inter)
            .count();
        println!("\n== {algo:?} ==");
        print!("{}", flame_text(&traces));
        println!(
            "  blocked/compute ratio: {:.1}%  ({inter_sends} inter-node sends total)",
            wait / compute * 100.0,
        );
        ratios.push(wait / compute);
    }
    assert!(
        ratios[2] < ratios[0],
        "BurstAttention must block less than the flat ring: {ratios:?}"
    );
    println!("\nThe flat ring stalls on its NIC-gated hops; the double ring shrinks");
    println!("them; BurstAttention's early-posted activations and delayed gradient");
    println!("stream leave almost nothing exposed. OK");
}
