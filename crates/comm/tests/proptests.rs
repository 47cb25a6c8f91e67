//! Property-based tests of the simulated cluster's collectives under
//! randomised world sizes, shapes and payloads, and of the [`Membership`]
//! ring-navigation invariants under ragged evict/readmit churn.

use burst_comm::{Membership, Topology, World};
use burst_tensor::Mat;
use proptest::prelude::*;

fn rank_mat(rank: usize, rows: usize, cols: usize, salt: u64) -> Mat {
    Mat::from_fn(rows, cols, |r, c| {
        ((rank as u64 * 131 + r as u64 * 17 + c as u64 * 3 + salt) % 97) as f32 - 48.0
    })
}

/// Either `None` — the collective runs on `single_node(g)` — or the
/// `(nodes, gpus_per_node)` of an `a800` cluster with 1..=3 nodes of 1..=4
/// GPUs: one-level shapes (one node, one GPU per node) and two-level ones.
fn cluster() -> impl Strategy<Value = Option<(usize, usize)>> {
    prop_oneof![Just(None), (1usize..=3, 1usize..=4).prop_map(Some)]
}

fn world_of(g: usize, cluster: Option<(usize, usize)>) -> Topology {
    match cluster {
        None => Topology::single_node(g),
        Some((nodes, gpn)) => Topology::a800(nodes, gpn),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_gather_collects_every_rank_in_order(
        g in 1usize..6,
        rows in 1usize..6,
        cols in 1usize..5,
        salt in 0u64..1000,
        cluster in cluster(),
    ) {
        let topo = world_of(g, cluster);
        let g = topo.world_size();
        let world = World::new(topo);
        let outs = world.run_results(move |comm| {
            comm.all_gather_mat(&rank_mat(comm.rank(), rows, cols, salt))
        });
        for got in &outs {
            prop_assert_eq!(got.len(), g);
            for (src, m) in got.iter().enumerate() {
                prop_assert_eq!(m.clone(), rank_mat(src, rows, cols, salt));
            }
        }
    }

    #[test]
    fn reduce_scatter_equals_manual_sum(
        g in 1usize..6,
        rows in 1usize..5,
        salt in 0u64..1000,
        cluster in cluster(),
    ) {
        let topo = world_of(g, cluster);
        let g = topo.world_size();
        let world = World::new(topo);
        let outs = world.run_results(move |comm| {
            let parts: Vec<Mat> = (0..g)
                .map(|d| rank_mat(comm.rank() * 10 + d, rows, 2, salt))
                .collect();
            comm.try_reduce_scatter_mat(&parts).expect("reduce-scatter")
        });
        for (dst, got) in outs.iter().enumerate() {
            let mut expect = rank_mat(dst, rows, 2, salt);
            for src in 1..g {
                expect.add_assign(&rank_mat(src * 10 + dst, rows, 2, salt));
            }
            prop_assert!(burst_tensor::testutil::allclose(got, &expect, 1e-4, 1e-4));
        }
    }

    #[test]
    fn all_reduce_is_rank_invariant_sum(
        g in 1usize..6,
        rows in 1usize..8,
        salt in 0u64..1000,
        cluster in cluster(),
    ) {
        let topo = world_of(g, cluster);
        let g = topo.world_size();
        let world = World::new(topo);
        let outs = world.run_results(move |comm| {
            comm.all_reduce_mat(&rank_mat(comm.rank(), rows, 3, salt))
        });
        let mut expect = rank_mat(0, rows, 3, salt);
        for src in 1..g {
            expect.add_assign(&rank_mat(src, rows, 3, salt));
        }
        for got in &outs {
            prop_assert!(burst_tensor::testutil::allclose(got, &expect, 1e-4, 1e-4));
        }
    }

    #[test]
    fn all_to_all_is_a_transpose(
        g in 1usize..6,
        salt in 0u64..1000,
    ) {
        let world = World::new(Topology::single_node(g));
        let outs = world.run_results(move |comm| {
            let outgoing: Vec<Mat> = (0..g)
                .map(|d| rank_mat(comm.rank() * 100 + d, 2, 2, salt))
                .collect();
            comm.all_to_all_mat(outgoing)
        });
        for (me, got) in outs.iter().enumerate() {
            for (src, m) in got.iter().enumerate() {
                prop_assert_eq!(m.clone(), rank_mat(src * 100 + me, 2, 2, salt));
            }
        }
    }

    #[test]
    fn virtual_clocks_are_schedule_independent(
        nodes in 1usize..3,
        gpn in 1usize..4,
        rows in 1usize..32,
    ) {
        let run = || {
            let world = World::new(Topology::a800(nodes, gpn));
            let outs = world.run(move |comm| {
                let m = rank_mat(comm.rank(), rows, 4, 7);
                let all = comm.all_gather_mat(&m);
                comm.try_barrier().expect("barrier");
                all.len()
            });
            outs.iter().map(|o| (o.time, o.stats.total_bytes())).collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }

    /// all-to-all with *heterogeneous* block shapes: each (src, dst) pair
    /// carries its own row count, so misrouting or reordering cannot hide
    /// behind uniform shapes. Running it twice (sending back what arrived)
    /// must restore every original payload bit-for-bit — including on
    /// single-rank and non-power-of-two worlds.
    #[test]
    fn all_to_all_roundtrip_restores_ragged_payloads(
        g in prop_oneof![Just(1usize), Just(2), Just(3), Just(5)],
        cols in 1usize..4,
        salt in 0u64..1000,
    ) {
        let world = World::new(Topology::single_node(g));
        let outs = world.run_results(move |comm| {
            let me = comm.rank();
            let original: Vec<Mat> = (0..g)
                .map(|d| rank_mat(me * 31 + d, 1 + (me + d) % 3, cols, salt))
                .collect();
            let received = comm.all_to_all_mat(original.clone());
            let returned = comm.all_to_all_mat(received);
            (original, returned)
        });
        for (original, returned) in &outs {
            for (a, b) in original.iter().zip(returned) {
                prop_assert_eq!(a.rows(), b.rows());
                prop_assert!(a.as_slice().iter().zip(b.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits()));
            }
        }
    }

    /// reduce-scatter on a single-rank world is the identity on the one
    /// part — bitwise, no wire traffic.
    #[test]
    fn reduce_scatter_single_rank_is_identity(
        rows in 1usize..6,
        cols in 1usize..5,
        salt in 0u64..1000,
    ) {
        let world = World::new(Topology::single_node(1));
        let outs = world.run(move |comm| {
            let part = rank_mat(0, rows, cols, salt);
            let got = comm.try_reduce_scatter_mat(std::slice::from_ref(&part)).expect("reduce-scatter");
            (part, got)
        });
        let (part, got) = &outs[0].result;
        prop_assert!(part.as_slice().iter().zip(got.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
        prop_assert_eq!(outs[0].stats.total_msgs(), 0);
    }

    /// reduce-scatter on awkward world sizes (3, 5, 6 — never a power of
    /// two) with per-destination column widths still sums exactly the
    /// right parts for exactly the right destination.
    #[test]
    fn reduce_scatter_non_power_of_two_worlds(
        g in prop_oneof![Just(3usize), Just(5), Just(6)],
        rows in 1usize..4,
        salt in 0u64..1000,
    ) {
        let world = World::new(Topology::single_node(g));
        let outs = world.run_results(move |comm| {
            let parts: Vec<Mat> = (0..g)
                .map(|d| rank_mat(comm.rank() * 17 + d, rows, 3, salt))
                .collect();
            comm.try_reduce_scatter_mat(&parts).expect("reduce-scatter")
        });
        for (dst, got) in outs.iter().enumerate() {
            let mut expect = rank_mat(dst, rows, 3, salt);
            for src in 1..g {
                expect.add_assign(&rank_mat(src * 17 + dst, rows, 3, salt));
            }
            prop_assert!(burst_tensor::testutil::allclose(got, &expect, 1e-4, 1e-4));
        }
    }

    /// Drive a [`Membership`] view through a ragged evict/readmit sequence
    /// (never letting the alive set empty), then check every navigation
    /// query against a naive scan of the alive list: `pos_of` is the index
    /// in `alive_ranks`, `next_alive`/`prev_alive` are cyclic neighbors for
    /// alive *and* dead starting ranks, and walking `next_alive` from any
    /// member visits the whole ring and returns home.
    #[test]
    fn membership_navigation_survives_ragged_churn(
        n in 1usize..8,
        ops in (0usize..16).prop_flat_map(|len| collection::vec((0usize..2, 0usize..8), len)),
    ) {
        let mut m = Membership::new(n);
        for (kind, pick) in ops {
            let r = pick % n;
            match kind {
                0 => {
                    // Evicting the last member is a protocol-level
                    // impossibility (someone must stay to agree); keep the
                    // invariant the agreement layer guarantees.
                    if m.num_alive() > 1 {
                        let was_alive = m.is_alive(r);
                        prop_assert_eq!(m.evict(r), was_alive, "evict({}) return", r);
                    }
                }
                _ => {
                    let was_dead = !m.is_alive(r);
                    prop_assert_eq!(m.readmit(r), was_dead, "readmit({}) return", r);
                }
            }
        }

        let alive = m.alive_ranks();
        prop_assert!(!alive.is_empty());
        prop_assert_eq!(alive.len(), m.num_alive());
        prop_assert!(alive.windows(2).all(|w| w[0] < w[1]), "alive_ranks unsorted");

        let k = alive.len();
        for r in 0..n {
            match alive.iter().position(|&a| a == r) {
                Some(p) => {
                    prop_assert_eq!(m.pos_of(r), Some(p));
                    prop_assert_eq!(m.next_alive(r), alive[(p + 1) % k]);
                    prop_assert_eq!(m.prev_alive(r), alive[(p + k - 1) % k]);
                    prop_assert_eq!(m.prev_alive(m.next_alive(r)), r);
                    prop_assert_eq!(m.next_alive(m.prev_alive(r)), r);
                }
                None => {
                    prop_assert_eq!(m.pos_of(r), None);
                    // From a dead rank the cyclic scans still land on the
                    // first alive rank in each direction.
                    let next = (1..=n).map(|s| (r + s) % n).find(|&x| m.is_alive(x));
                    let prev = (1..=n).map(|s| (r + n - s) % n).find(|&x| m.is_alive(x));
                    prop_assert_eq!(Some(m.next_alive(r)), next);
                    prop_assert_eq!(Some(m.prev_alive(r)), prev);
                }
            }
        }

        // One full lap of next_alive from the lowest member traverses the
        // ring in ascending order and closes the cycle.
        let mut walk = vec![alive[0]];
        for _ in 1..k {
            walk.push(m.next_alive(*walk.last().unwrap()));
        }
        prop_assert_eq!(&walk, &alive);
        prop_assert_eq!(m.next_alive(*walk.last().unwrap()), alive[0]);
    }

    /// Evict every rank but one: the survivor is its own cyclic neighbor
    /// in both directions and holds ring slot 0 — the degenerate world the
    /// shrink collectives special-case as local no-ops.
    #[test]
    fn membership_single_survivor_is_its_own_ring(
        n in 1usize..8,
        keep in 0usize..8,
    ) {
        let keep = keep % n;
        let mut m = Membership::new(n);
        for r in 0..n {
            if r != keep {
                prop_assert!(m.evict(r));
            }
        }
        prop_assert_eq!(m.num_alive(), 1);
        prop_assert_eq!(m.alive_ranks(), vec![keep]);
        prop_assert_eq!(m.pos_of(keep), Some(0));
        prop_assert_eq!(m.next_alive(keep), keep);
        prop_assert_eq!(m.prev_alive(keep), keep);
        // Every dead rank's scans converge on the lone survivor too.
        for r in 0..n {
            prop_assert_eq!(m.next_alive(r), keep);
            prop_assert_eq!(m.prev_alive(r), keep);
        }
    }

    /// Evict a ragged subset, then readmit every dead rank: the view must
    /// be indistinguishable from a fresh full world (positions, neighbors,
    /// and the idempotence of a second readmit).
    #[test]
    fn membership_full_readmission_restores_the_dense_ring(
        n in 2usize..8,
        evict_mask in 1u64..128,
        keep in 0usize..8,
    ) {
        let keep = keep % n;
        let mut m = Membership::new(n);
        for r in 0..n {
            if r != keep && evict_mask & (1 << r) != 0 {
                prop_assert!(m.evict(r));
            }
        }
        for r in 0..n {
            if !m.is_alive(r) {
                prop_assert!(m.readmit(r));
            }
            prop_assert!(!m.readmit(r), "readmit of a live rank must be a no-op");
        }
        prop_assert_eq!(m.alive_ranks(), (0..n).collect::<Vec<_>>());
        for r in 0..n {
            prop_assert_eq!(m.pos_of(r), Some(r));
            prop_assert_eq!(m.next_alive(r), (r + 1) % n);
            prop_assert_eq!(m.prev_alive(r), (r + n - 1) % n);
        }
    }

    #[test]
    fn broadcast_reaches_everyone(
        g in 2usize..6,
        root in 0usize..5,
        salt in 0u64..1000,
    ) {
        let root = root % g;
        let world = World::new(Topology::single_node(g));
        let outs = world.run_results(move |comm| {
            let m = rank_mat(999, 3, 3, salt);
            let mine = if comm.rank() == root { Some(&m) } else { None };
            comm.try_broadcast_mat(root, mine).expect("broadcast")
        });
        for got in &outs {
            prop_assert_eq!(got.clone(), rank_mat(999, 3, 3, salt));
        }
    }
}
