//! End-to-end observability contract: the wire time *measured* from the
//! simulator's `Send` spans must match the exact-count analytic prediction
//! of `crates/perf` — per link class and in total — because both sides
//! model a message as `latency + bytes/bandwidth`. The 1 % gate here is
//! the same one the `burst-trace` harness and the CI job enforce.

use burst_comm::obs::{wire_secs, E2eReport, MethodReport, RankTrace};
use burst_comm::{Topology, WireDtype, World};
use burst_dattn::{try_run_attention_opts, Algo, CostModel, Layout};
use burst_kernels::AttnMask;
use burst_perf::commtime::{exact_wire_counts_dtype, layer_comm_times, RingMethod};
use burst_perf::Cluster;
use burst_tensor::randn_mat;

const METHODS: [(&str, Algo, RingMethod); 3] = [
    ("ring", Algo::RingFlat, RingMethod::Ring),
    ("double_ring", Algo::DoubleRing, RingMethod::DoubleRing),
    ("burst", Algo::BurstTopo, RingMethod::Burst),
];

fn traces(algo: Algo, topo: &Topology, seq: usize, d: usize) -> Vec<RankTrace> {
    let g = topo.world_size();
    let q = randn_mat(seq, d, 0.7, 61);
    let k = randn_mat(seq, d, 0.7, 62);
    let v = randn_mat(seq, d, 0.7, 63);
    let grad_o = randn_mat(seq, d, 0.8, 64);
    let scale = 1.0 / (d as f32).sqrt();
    let layout = Layout::Zigzag;
    let world = World::new(topo.clone());
    world
        .run(|comm| {
            let idx = layout.indices(seq, g, comm.rank());
            let (ql, kl, vl, dol) = (
                q.gather_rows(&idx),
                k.gather_rows(&idx),
                v.gather_rows(&idx),
                grad_o.gather_rows(&idx),
            );
            comm.start_trace();
            try_run_attention_opts(
                algo,
                comm,
                &ql,
                &kl,
                &vl,
                &dol,
                scale,
                &AttnMask::Causal,
                layout,
                seq,
                &CostModel::a800(),
                false,
            )
            .expect("fault-free attention");
        })
        .into_iter()
        .map(|o| o.trace.expect("tracing was on"))
        .collect()
}

#[test]
fn measured_wire_time_matches_exact_census_within_1_percent() {
    let (seq, d) = (256usize, 16usize);
    for (nodes, gpn) in [(2usize, 4usize), (1, 4), (4, 2)] {
        let topo = Topology::a800(nodes, gpn);
        let cluster = Cluster::a800(nodes, gpn);
        for (name, algo, method) in METHODS {
            let t = traces(algo, &topo, seq, d);
            let (intra, inter) = wire_secs(&t);
            let counts = exact_wire_counts_dtype(&cluster, seq, d, method, WireDtype::F32);
            let pred_intra = counts.intra_msgs as f64 * cluster.nvlink.latency
                + counts.intra_bytes / cluster.nvlink.bandwidth;
            let pred_inter = counts.inter_msgs as f64 * cluster.nic.latency
                + counts.inter_bytes / cluster.nic.bandwidth;
            for (label, got, want) in [
                ("intra", intra, pred_intra),
                ("inter", inter, pred_inter),
                ("total", intra + inter, counts.secs(&cluster)),
            ] {
                let err = if want > 0.0 {
                    (got - want).abs() / want
                } else {
                    got.abs()
                };
                assert!(
                    err <= 0.01,
                    "{name} {nodes}x{gpn} {label}: measured {got} vs predicted {want} \
                     (rel err {err})"
                );
            }
        }
    }
}

#[test]
fn e2e_report_populates_all_methods_and_round_trips() {
    let (nodes, gpn, seq, d) = (2usize, 2usize, 128usize, 8usize);
    let topo = Topology::a800(nodes, gpn);
    let cluster = Cluster::a800(nodes, gpn);
    let table1 = layer_comm_times(&cluster, seq, d);
    let mut report = E2eReport::new(nodes, gpn, seq, d);
    for (name, algo, method) in METHODS {
        let t = traces(algo, &topo, seq, d);
        let predicted =
            exact_wire_counts_dtype(&cluster, seq, d, method, WireDtype::F32).secs(&cluster);
        let table1_secs = match method {
            RingMethod::Ring => table1.ring,
            RingMethod::DoubleRing => table1.double_ring,
            RingMethod::Burst => table1.burst,
        };
        report.methods.push(MethodReport::from_traces(
            name,
            &t,
            seq,
            d,
            cluster.peak_flops,
            predicted,
            table1_secs,
        ));
    }
    report.validate_schema().expect("schema");
    for m in &report.methods {
        assert!(
            m.comm_rel_err <= 0.01,
            "{}: rel err {}",
            m.method,
            m.comm_rel_err
        );
        assert!(m.overlap_efficiency > 0.0 && m.overlap_efficiency <= 1.0);
        assert!(m.mfu > 0.0);
    }
    let text = serde_json::to_string(&report).expect("serialize");
    let back: E2eReport = serde_json::from_str(&text).expect("parse");
    assert_eq!(back, report);
}
