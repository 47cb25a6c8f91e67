//! Flat-bucket FSDP against the per-parameter algorithm it replaces — one
//! `all_gather_mat` / `all_reduce_mat` per parameter through the public
//! comm API: the same bits and the same wire bytes, in a number of messages
//! that no longer grows with the parameter count.

use burst_comm::{CommStats, Communicator, Membership, RetryPolicy, Topology, World};
use burst_model::fsdp::{gather_weights, sync_grads, try_gather_weights_m, try_sync_grads_m};
use burst_model::Param;
use burst_tensor::{randn_mat, Mat};

/// Parameter shapes. Across the test worlds (G = 2, 3, 4, 8) they mix rows
/// that divide by G (24 by every G; 16, 6 and 3 by some), rows below G (1
/// always; 3, 5 and 6 at G = 8) and rows that divide by no G (5).
const SHAPES: [(usize, usize); 6] = [(24, 3), (1, 7), (5, 4), (16, 2), (3, 6), (6, 5)];

fn worlds() -> [Topology; 4] {
    [
        Topology::single_node(2),
        Topology::single_node(3),
        Topology::a800(2, 2),
        Topology::a800(2, 4),
    ]
}

/// The replicated parameter set, with gradients seeded by `grad_seed` so
/// every rank contributes different values.
fn params(grad_seed: u64) -> Vec<Param> {
    SHAPES
        .iter()
        .zip(0u64..)
        .map(|(&(rows, cols), i)| {
            let mut p = Param::new(randn_mat(rows, cols, 1.0, 100 + i));
            p.grad = randn_mat(rows, cols, 1.0, 1000 * (grad_seed + 1) + i);
            p
        })
        .collect()
}

fn refs(ps: &mut [Param]) -> Vec<&mut Param> {
    ps.iter_mut().collect()
}

/// Bit patterns of every weight and gradient.
fn bits(ps: &[Param]) -> Vec<u32> {
    ps.iter()
        .flat_map(|p| p.w.as_slice().iter().chain(p.grad.as_slice()))
        .map(|x| x.to_bits())
        .collect()
}

/// The per-parameter weight gather: one ring all-gather of each row shard.
fn gather_reference(comm: &mut Communicator, ps: &mut [Param]) {
    let (g, rank) = (comm.world_size(), comm.rank());
    for p in ps {
        let rows = p.w.rows();
        let shard = p.w.slice_rows(rows * rank / g, rows * (rank + 1) / g);
        p.w = Mat::vstack(&comm.all_gather_mat(&shard));
    }
}

/// The per-parameter gradient sync: one all-reduce per gradient.
fn sync_reference(comm: &mut Communicator, ps: &mut [Param]) {
    for p in ps {
        p.grad = comm.all_reduce_mat(&p.grad);
    }
}

/// Run `f` once on every rank of a fresh world, over that rank's
/// parameters; return each rank's resulting bits and counters.
fn run(topo: &Topology, f: fn(&mut Communicator, &mut [Param])) -> Vec<(Vec<u32>, CommStats)> {
    World::new(topo.clone())
        .run(move |comm| {
            let mut ps = params(comm.rank() as u64);
            f(comm, &mut ps);
            bits(&ps)
        })
        .into_iter()
        .map(|o| (o.result, o.stats))
        .collect()
}

/// Bucketed and reference runs agree bit for bit and byte for byte; each
/// bucketed rank sends at most `max_sends`.
fn assert_matches_reference(
    what: &str,
    bucketed: fn(&mut Communicator, &mut [Param]),
    reference: fn(&mut Communicator, &mut [Param]),
    max_sends: fn(u64) -> u64,
) {
    for topo in worlds() {
        let g = topo.world_size() as u64;
        let got = run(&topo, bucketed);
        let want = run(&topo, reference);
        for (rank, ((bits, s), (ref_bits, r))) in got.iter().zip(&want).enumerate() {
            let at = format!("{what}, G = {g}, rank {rank}");
            assert!(bits == ref_bits, "{at}: values differ from the reference");
            assert_eq!(s.intra_bytes, r.intra_bytes, "{at}: intra bytes");
            assert_eq!(s.inter_bytes, r.inter_bytes, "{at}: inter bytes");
            assert_eq!(s.total_elems(), r.total_elems(), "{at}: elements");
            assert!(
                s.total_msgs() <= max_sends(g),
                "{at}: {} sends, bound {}",
                s.total_msgs(),
                max_sends(g)
            );
            assert!(s.total_msgs() < r.total_msgs(), "{at}: fewer messages");
        }
    }
}

#[test]
fn bucketed_gather_matches_one_gather_per_parameter() {
    assert_matches_reference(
        "gather",
        |comm, ps| gather_weights(comm, &mut refs(ps)),
        gather_reference,
        |g| g - 1,
    );
}

#[test]
fn bucketed_sync_matches_one_all_reduce_per_parameter() {
    assert_matches_reference(
        "sync",
        |comm, ps| sync_grads(comm, &mut refs(ps)),
        sync_reference,
        |g| 3 * (g - 1),
    );
}

/// Gather + sync over `topo` with `dead` evicted: the survivors shard over
/// their ring positions, the seeds following the positions, and must
/// reproduce a fresh `fresh` world bit for bit.
fn assert_shrink_matches_fresh(topo: Topology, dead: &'static [usize], fresh: Topology) {
    let shrunk = World::new(topo).run(move |comm| {
        let mut m = Membership::new(comm.world_size());
        for &d in dead {
            m.evict(d);
        }
        let pos = m.pos_of(comm.rank())?;
        let mut ps = params(pos as u64);
        let policy = RetryPolicy::default();
        try_gather_weights_m(comm, &mut m, &mut refs(&mut ps), &policy).expect("clean gather");
        try_sync_grads_m(comm, &mut m, &mut refs(&mut ps), &policy).expect("clean sync");
        Some(bits(&ps))
    });
    let want = run(&fresh, |comm, ps| {
        gather_weights(comm, &mut refs(ps));
        sync_grads(comm, &mut refs(ps));
    });
    let alive: Vec<Vec<u32>> = shrunk.into_iter().filter_map(|o| o.result).collect();
    assert_eq!(alive.len(), want.len());
    for (pos, (got, (want, _))) in alive.iter().zip(&want).enumerate() {
        assert!(
            got == want,
            "evicted {dead:?}, position {pos}: shrunk world differs from fresh"
        );
    }
}

#[test]
fn elastic_buckets_with_an_evicted_rank_match_a_fresh_small_world() {
    // Rank 2 of a 2×2 cluster is gone: node 1 keeps one rank, node 0 two,
    // so the survivors run the one-level ring of a fresh 3-rank world.
    assert_shrink_matches_fresh(Topology::a800(2, 2), &[2], Topology::single_node(3));
}

#[test]
fn node_balanced_shrink_matches_a_fresh_world_of_its_shape() {
    // One rank per node of a 2×4 cluster is gone: the survivors keep the
    // two-level ring as a 2×3 split and must reproduce a fresh 2×3 world,
    // node-local-then-cross-node summation order included.
    assert_shrink_matches_fresh(Topology::a800(2, 4), &[3, 7], Topology::a800(2, 3));
}
