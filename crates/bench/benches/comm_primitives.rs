//! Collectives on the simulated cluster: real wall time of the thread +
//! channel substrate (the overhead floor under every distributed bench).

use burst_comm::{Topology, World};
use burst_tensor::randn_mat;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

/// Keep full-workspace bench runs short: the comparisons of interest are
/// order-of-magnitude, not microsecond-precise.
fn fast<'a>(
    c: &'a mut Criterion,
    name: &str,
) -> criterion::BenchmarkGroup<'a, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group(name);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(10);
    g
}

fn bench_collectives(c: &mut Criterion) {
    let mut group = fast(c, "collectives");
    let g = 8;
    for &rows in &[64usize, 256] {
        let m = randn_mat(rows, 32, 1.0, 9);
        group.bench_with_input(BenchmarkId::new("all_gather", rows), &rows, |b, _| {
            b.iter(|| {
                let world = World::new(Topology::single_node(g));
                world.run_results(|comm| comm.all_gather_mat(&m))
            })
        });
        group.bench_with_input(BenchmarkId::new("all_reduce", rows), &rows, |b, _| {
            b.iter(|| {
                let world = World::new(Topology::single_node(g));
                world.run_results(|comm| comm.all_reduce_mat(&m))
            })
        });
        // The same eight ranks as two nodes of four: the two-level ring
        // (cross-node steps between same-position peers, then intra-node).
        group.bench_with_input(BenchmarkId::new("all_gather_2x4", rows), &rows, |b, _| {
            b.iter(|| {
                let world = World::new(Topology::a800(2, 4));
                world.run_results(|comm| comm.all_gather_mat(&m))
            })
        });
        group.bench_with_input(BenchmarkId::new("all_reduce_2x4", rows), &rows, |b, _| {
            b.iter(|| {
                let world = World::new(Topology::a800(2, 4));
                world.run_results(|comm| comm.all_reduce_mat(&m))
            })
        });
        let m2 = m.clone();
        group.bench_with_input(BenchmarkId::new("all_to_all", rows), &rows, |b, _| {
            b.iter(|| {
                let world = World::new(Topology::single_node(g));
                world.run_results(|comm| {
                    let parts = m2.chunk_rows(comm.world_size());
                    comm.all_to_all_mat(parts)
                })
            })
        });
    }
    group.finish();
}

fn bench_ring_shift(c: &mut Criterion) {
    let mut group = fast(c, "ring_pass");
    let m = randn_mat(128, 32, 1.0, 10);
    for g in [4usize, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(g), &g, |b, &g| {
            b.iter(|| {
                let world = World::new(Topology::single_node(g));
                world.run_results(|comm| {
                    let mut cur = m.clone();
                    for _ in 0..comm.world_size() - 1 {
                        comm.try_send_mat(comm.next_rank(), &cur).expect("send");
                        cur = comm.try_recv_mat(comm.prev_rank()).expect("recv");
                    }
                    cur
                })
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_collectives, bench_ring_shift);
criterion_main!(benches);
