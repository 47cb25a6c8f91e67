//! Integration tests for the simulated cluster: correctness of the
//! collectives, causality of the virtual clock, NIC serialisation, overlap
//! semantics and determinism.

use burst_comm::{Link, MsgData, Topology, World};
use burst_tensor::Mat;

fn rank_mat(rank: usize, rows: usize, cols: usize) -> Mat {
    Mat::from_fn(rows, cols, |r, c| (rank * 100 + r * cols + c) as f32)
}

#[test]
fn p2p_roundtrip_delivers_data() {
    let world = World::new(Topology::single_node(2));
    let outs = world.run_results(|comm| {
        if comm.rank() == 0 {
            comm.try_send_mat(1, &rank_mat(0, 3, 2)).expect("send");
            comm.try_recv_mat(1).expect("recv")
        } else {
            let got = comm.try_recv_mat(0).expect("recv");
            comm.try_send_mat(0, &rank_mat(1, 3, 2)).expect("send");
            got
        }
    });
    assert_eq!(outs[0], rank_mat(1, 3, 2));
    assert_eq!(outs[1], rank_mat(0, 3, 2));
}

#[test]
fn clock_respects_latency_and_bandwidth() {
    // 2 KB over a 1 GB/s link with 1 ms latency: arrival >= 1e-3 + 2e-6
    // (f32 wire: 4 bytes per element).
    let topo = Topology::uniform(2, Link::new(1e-3, 1e9));
    let world = World::new(topo);
    let outs = world.run(|comm| {
        if comm.rank() == 0 {
            comm.try_send_vec(1, &vec![0.0; 500]).expect("send"); // 500 elems = 2000 wire bytes
        } else {
            let _ = comm.try_recv_vec(0).expect("recv");
        }
        comm.time()
    });
    assert_eq!(
        outs[0].result, 0.0,
        "sends are non-blocking in virtual time"
    );
    let expect = 1e-3 + 2000.0 / 1e9;
    assert!(
        (outs[1].result - expect).abs() < 1e-12,
        "arrival {} != {}",
        outs[1].result,
        expect
    );
}

#[test]
fn egress_port_serialises_back_to_back_sends() {
    // Two sends through the same NIC: second arrival is delayed by the
    // first's serialisation time even though both are posted at t=0.
    let topo = Topology::new(2, 1, Link::new(0.0, 1e9), Link::new(1e-6, 1e8));
    let world = World::new(topo);
    let bytes = 4.0 * 1000.0;
    let outs = world.run_results(|comm| {
        if comm.rank() == 0 {
            comm.try_send_vec(1, &vec![0.0; 1000]).expect("send");
            comm.try_send_vec(1, &vec![0.0; 1000]).expect("send");
            0.0
        } else {
            let _ = comm.try_recv_vec(0).expect("recv");
            let t1 = comm.time();
            let _ = comm.try_recv_vec(0).expect("recv");
            let t2 = comm.time();
            t2 - t1
        }
    });
    let ser = bytes / 1e8;
    assert!(
        (outs[1] - ser).abs() < 1e-12,
        "second message delayed by {} not {}",
        outs[1],
        ser
    );
}

#[test]
fn intra_and_inter_ports_are_independent() {
    // A send over NVLink does not occupy the NIC and vice versa.
    let topo = Topology::new(2, 2, Link::new(0.0, 1e9), Link::new(0.0, 1e8));
    let world = World::new(topo);
    let outs = world.run_results(|comm| match comm.rank() {
        0 => {
            // One intra send (to 1) then one inter send (to 2), both at t=0.
            comm.try_send_vec(1, &vec![0.0; 1000]).expect("send");
            comm.try_send_vec(2, &vec![0.0; 1000]).expect("send");
            0.0
        }
        1 => {
            let _ = comm.try_recv_vec(0).expect("recv");
            comm.time()
        }
        2 => {
            let _ = comm.try_recv_vec(0).expect("recv");
            comm.time()
        }
        _ => 0.0,
    });
    assert!((outs[1] - 4000.0 / 1e9).abs() < 1e-12, "intra {}", outs[1]);
    // Inter send departs at t=0 too (separate port), so it is NOT delayed
    // behind the intra transfer.
    assert!((outs[2] - 4000.0 / 1e8).abs() < 1e-12, "inter {}", outs[2]);
}

#[test]
fn overlap_is_max_of_compute_and_comm() {
    let topo = Topology::uniform(2, Link::new(0.0, 1e6)); // slow: 4 KB = 4 ms
    let world = World::new(topo);
    let outs = world.run_results(|comm| {
        if comm.rank() == 0 {
            comm.try_send_vec(1, &vec![0.0; 1000]).expect("send");
            0.0
        } else {
            comm.advance_compute(1e-3); // compute while the message flies
            let _ = comm.try_recv_vec(0).expect("recv");
            comm.time()
        }
    });
    // Transfer takes 4 ms; 1 ms of compute hides inside it: total 4 ms, not 5.
    assert!(
        (outs[1] - 4e-3).abs() < 1e-9,
        "overlapped total {}",
        outs[1]
    );
}

#[test]
fn serial_compute_then_recv_adds_up() {
    let topo = Topology::uniform(2, Link::new(0.0, 1e6));
    let world = World::new(topo);
    let outs = world.run_results(|comm| {
        if comm.rank() == 0 {
            comm.advance_compute(5e-3); // send AFTER compute: no overlap
            comm.try_send_vec(1, &vec![0.0; 1000]).expect("send");
            0.0
        } else {
            let _ = comm.try_recv_vec(0).expect("recv");
            comm.time()
        }
    });
    assert!((outs[1] - 9e-3).abs() < 1e-9, "serial total {}", outs[1]);
}

#[test]
fn barrier_synchronises_clocks() {
    let world = World::new(Topology::single_node(4));
    let outs = world.run(|comm| {
        comm.advance_compute(comm.rank() as f64 * 1e-3);
        comm.try_barrier().expect("barrier");
        comm.time()
    });
    let t0 = outs[0].result;
    assert!(t0 >= 3e-3, "barrier must wait for the slowest rank");
    for o in &outs {
        assert!(
            (o.result - t0).abs() < 1e-4,
            "rank {} clock {} far from {}",
            o.rank,
            o.result,
            t0
        );
    }
}

#[test]
fn all_gather_returns_blocks_in_rank_order() {
    for gpus in [2, 3, 8] {
        let world = World::new(Topology::single_node(gpus));
        let outs = world.run_results(|comm| {
            let mine = rank_mat(comm.rank(), 2, 3);
            comm.all_gather_mat(&mine)
        });
        for (rank, got) in outs.iter().enumerate() {
            assert_eq!(got.len(), gpus, "rank {rank}");
            for (src, m) in got.iter().enumerate() {
                assert_eq!(*m, rank_mat(src, 2, 3), "rank {rank} block {src}");
            }
        }
    }
}

#[test]
fn reduce_scatter_sums_contributions() {
    for gpus in [2, 3, 5, 8] {
        let world = World::new(Topology::single_node(gpus));
        let outs = world.run_results(|comm| {
            let g = comm.world_size();
            let parts: Vec<Mat> = (0..g)
                .map(|d| Mat::full(2, 2, (comm.rank() * 10 + d) as f32))
                .collect();
            comm.try_reduce_scatter_mat(&parts).expect("reduce-scatter")
        });
        for (rank, got) in outs.iter().enumerate() {
            // Sum over src of (src*10 + rank).
            let expect: f32 = (0..gpus).map(|s| (s * 10 + rank) as f32).sum();
            assert_eq!(*got, Mat::full(2, 2, expect), "rank {rank}");
        }
    }
}

#[test]
fn all_reduce_matches_manual_sum() {
    for rows in [4usize, 6] {
        // 4 divides evenly among 4 ranks (ring path); 6 does not (fallback).
        let world = World::new(Topology::single_node(4));
        let outs = world.run_results(move |comm| {
            let m = rank_mat(comm.rank(), rows, 2);
            comm.all_reduce_mat(&m)
        });
        let mut expect = rank_mat(0, rows, 2);
        for r in 1..4 {
            expect.add_assign(&rank_mat(r, rows, 2));
        }
        for got in &outs {
            assert_eq!(*got, expect);
        }
    }
}

#[test]
fn all_to_all_transposes_blocks() {
    let world = World::new(Topology::a800(2, 2));
    let outs = world.run_results(|comm| {
        let g = comm.world_size();
        let outgoing: Vec<Mat> = (0..g)
            .map(|d| Mat::full(1, 1, (comm.rank() * 10 + d) as f32))
            .collect();
        comm.all_to_all_mat(outgoing)
    });
    for (rank, got) in outs.iter().enumerate() {
        for (src, m) in got.iter().enumerate() {
            assert_eq!(
                m.get(0, 0),
                (src * 10 + rank) as f32,
                "rank {rank} src {src}"
            );
        }
    }
}

#[test]
fn broadcast_distributes_root_matrix() {
    let world = World::new(Topology::single_node(3));
    let outs = world.run_results(|comm| {
        let m = rank_mat(7, 2, 2);
        let mine = if comm.rank() == 1 { Some(&m) } else { None };
        comm.try_broadcast_mat(1, mine).expect("broadcast")
    });
    for got in &outs {
        assert_eq!(*got, rank_mat(7, 2, 2));
    }
}

#[test]
fn all_reduce_vec_sums() {
    let world = World::new(Topology::single_node(4));
    let outs = world.run_results(|comm| {
        comm.try_all_reduce_vec(&[comm.rank() as f32, 1.0])
            .expect("all-reduce")
    });
    for got in &outs {
        assert_eq!(got, &vec![6.0, 4.0]);
    }
}

#[test]
fn ring_shift_moves_data_one_hop() {
    let world = World::new(Topology::single_node(4));
    let outs =
        world.run_results(
            |comm| match comm.ring_shift(MsgData::Scalar(comm.rank() as f64)) {
                MsgData::Scalar(s) => s,
                other => panic!("unexpected {other:?}"),
            },
        );
    assert_eq!(outs, vec![3.0, 0.0, 1.0, 2.0]);
}

#[test]
fn stats_split_intra_vs_inter() {
    let world = World::new(Topology::a800(2, 2));
    let outs = world.run(|comm| {
        if comm.rank() == 0 {
            comm.try_send_vec(1, &[0.0; 10]).expect("send"); // intra
            comm.try_send_vec(2, &[0.0; 20]).expect("send"); // inter
        } else if comm.rank() == 1 || comm.rank() == 2 {
            let _ = comm.try_recv_vec(0).expect("recv");
        }
    });
    let s = outs[0].stats;
    assert_eq!(s.intra_msgs, 1);
    assert_eq!(s.inter_msgs, 1);
    assert_eq!(s.intra_elems, 10);
    assert_eq!(s.inter_elems, 20);
    assert_eq!(s.intra_bytes, 40.0);
    assert_eq!(s.inter_bytes, 80.0);
}

#[test]
fn virtual_clock_is_deterministic_across_runs() {
    let run = || {
        let world = World::new(Topology::a800(2, 4));
        let outs = world.run(|comm| {
            let mine = rank_mat(comm.rank(), 8, 4);
            let all = comm.all_gather_mat(&mine);
            comm.advance_compute(1e-4 * (comm.rank() + 1) as f64);
            let red = comm.all_reduce_mat(&all[0]);
            comm.try_barrier().expect("barrier");
            red.frob_norm()
        });
        outs.iter().map(|o| (o.result, o.time)).collect::<Vec<_>>()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "virtual clocks must not depend on thread scheduling");
}

#[test]
fn flat_ring_crossing_nodes_is_gated_by_nic() {
    // Compare a full ring pass on 1x4 (all NVLink) vs 2x2 (two IB hops):
    // the multi-node ring must be slower in virtual time.
    let elems = 64 * 64;
    let run = |topo: Topology| {
        let world = World::new(topo);
        let (_, makespan, _) = world.run_timed(|comm| {
            let mut buf = rank_mat(comm.rank(), 64, 64);
            for _ in 0..comm.world_size() - 1 {
                match comm.ring_shift(MsgData::Mat(buf.clone())) {
                    MsgData::Mat(m) => buf = m,
                    other => panic!("unexpected {other:?}"),
                }
            }
            buf
        });
        assert!(elems > 0);
        makespan
    };
    let single = run(Topology::single_node(4));
    let multi = run(Topology::a800(2, 2));
    assert!(
        multi > 2.0 * single,
        "inter-node ring ({multi}) should be much slower than NVLink ring ({single})"
    );
}

#[test]
fn bf16_wire_dtype_halves_bytes_and_rounds_payloads() {
    use burst_comm::WireDtype;
    let run = |dtype: WireDtype| {
        let topo = Topology::single_node(2).with_wire_dtype(dtype);
        let world = World::new(topo);
        world.run(|comm| {
            if comm.rank() == 0 {
                comm.try_send_mat(1, &Mat::from_fn(8, 8, |r, c| 0.1 + (r * 8 + c) as f32))
                    .expect("send");
                (Mat::default(), comm.stats().total_bytes())
            } else {
                let got = comm.try_recv_mat(0).expect("recv");
                (got, 0.0)
            }
        })
    };
    let f32_run = run(WireDtype::F32);
    let bf16_run = run(WireDtype::Bf16);
    let (sent_f32, sent_bf16) = (f32_run[0].result.1, bf16_run[0].result.1);
    assert_eq!(sent_f32, 64.0 * 4.0, "f32 wire bills 4 bytes per element");
    assert_eq!(sent_bf16, 64.0 * 2.0, "bf16 wire bills 2 bytes per element");
    let exact = Mat::from_fn(8, 8, |r, c| 0.1 + (r * 8 + c) as f32);
    assert_eq!(f32_run[1].result.0, exact, "f32 wire is exact");
    assert_eq!(
        bf16_run[1].result.0,
        exact.to_bf16(),
        "bf16 wire rounds to nearest-even at the sender"
    );
}

#[test]
fn bf16_collectives_round_once_and_agree_across_ranks() {
    use burst_comm::WireDtype;
    // All-gather under bf16: every rank must see the same rounded blocks,
    // and a block that traversed multiple hops must equal the one-hop
    // rounding (re-encoding a decoded matrix is lossless).
    let topo = Topology::single_node(4).with_wire_dtype(WireDtype::Bf16);
    let world = World::new(topo);
    let outs = world.run_results(|comm| {
        let mine = Mat::from_fn(3, 5, |r, c| {
            0.123 + (comm.rank() * 100 + r * 5 + c) as f32 * 0.017
        });
        comm.all_gather_mat(&mine)
    });
    for rank in 0..4 {
        let expect =
            Mat::from_fn(3, 5, |r, c| 0.123 + (rank * 100 + r * 5 + c) as f32 * 0.017).to_bf16();
        for (viewer, out) in outs.iter().enumerate() {
            if viewer == rank {
                continue; // own block never crossed the wire
            }
            assert_eq!(
                out[rank], expect,
                "viewer {viewer} sees rank {rank}'s block rounded exactly once"
            );
        }
    }
}
