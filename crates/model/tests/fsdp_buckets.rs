//! Flat-bucket FSDP against the per-parameter algorithm it replaces — one
//! `all_gather_mat` / `all_reduce_mat` per parameter through the public
//! comm API: the same bits, the same wire bytes plus exactly the values
//! that ride the gradient all-gather, in a number of messages that no
//! longer grows with the parameter count.

use burst_comm::{CommStats, Communicator, Membership, RetryPolicy, Topology, WireDtype, World};
use burst_model::fsdp::{gather_weights, sync_grads, try_gather_weights, try_sync_grads, Group};
use burst_model::Param;
use burst_tensor::{decode_bf16, encode_bf16, randn_mat, Mat};

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

/// Whether a gradient of `rows` rows rides the ring bucket at group size
/// `g`; the others form the leader bucket.
fn on_ring(rows: usize, g: usize) -> bool {
    rows >= g && rows.is_multiple_of(g)
}

/// Elements of the leader bucket at group size `g`.
fn leader_elems(g: usize) -> usize {
    SHAPES
        .iter()
        .filter(|&&(rows, _)| !on_ring(rows, g))
        .map(|&(rows, cols)| rows * cols)
        .sum()
}

type Run = fn(&mut Communicator, &mut [Param]);

/// Run `f` once on every rank of a fresh world, over that rank's
/// parameters; return each rank's resulting bits and counters.
fn run(topo: &Topology, f: Run) -> Vec<(Vec<u32>, CommStats)> {
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

/// Bucketed and reference runs agree bit for bit. The bucketed run's wire
/// bytes and elements are `wire_reference`'s plus `riding(G)` f32 values
/// in each of a rank's `G − 1` all-gather sends (`nodes − 1` across nodes,
/// the rest inside them), and each bucketed rank sends at most
/// `max_sends`, fewer than the reference.
fn assert_matches_reference(
    what: &str,
    bucketed: Run,
    reference: Run,
    wire_reference: Run,
    riding: fn(usize) -> usize,
    max_sends: fn(u64) -> u64,
) {
    for topo in worlds() {
        let g = topo.world_size();
        let ride = riding(g);
        let inter_sends = topo.nodes - 1;
        let intra_sends = g - 1 - inter_sends;
        let got = run(&topo, bucketed);
        let want = run(&topo, reference);
        let wire = run(&topo, wire_reference);
        for (rank, (((bits, s), (ref_bits, r)), (_, w))) in
            got.iter().zip(&want).zip(&wire).enumerate()
        {
            let at = format!("{what}, G = {g}, rank {rank}");
            assert!(bits == ref_bits, "{at}: values differ from the reference");
            let riding_bytes = |sends: usize| (4 * ride * sends) as f64;
            assert_eq!(
                s.intra_bytes,
                w.intra_bytes + riding_bytes(intra_sends),
                "{at}: intra bytes"
            );
            assert_eq!(
                s.inter_bytes,
                w.inter_bytes + riding_bytes(inter_sends),
                "{at}: inter bytes"
            );
            assert_eq!(
                s.total_elems(),
                w.total_elems() + (ride * (g - 1)) as u64,
                "{at}: elements"
            );
            assert!(
                s.total_msgs() <= max_sends(g as u64),
                "{at}: {} sends, bound {}",
                s.total_msgs(),
                max_sends(g as u64)
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
        gather_reference,
        |_| 0,
        |g| g - 1,
    );
}

#[test]
fn bucketed_sync_matches_one_all_reduce_per_parameter() {
    // The ring bucket's wire is its parameters' own all-reduces; the
    // leader bucket rides the ring all-gather instead of a collective of
    // its own.
    assert_matches_reference(
        "sync",
        |comm, ps| sync_grads(comm, &mut refs(ps)),
        sync_reference,
        |comm, ps| {
            let g = comm.world_size();
            for p in ps.iter_mut().filter(|p| on_ring(p.grad.rows(), g)) {
                p.grad = comm.all_reduce_mat(&p.grad);
            }
        },
        leader_elems,
        |g| 2 * (g - 1),
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
        let mut group = Group::Alive(&mut m, &policy);
        try_gather_weights(comm, &mut group, &mut refs(&mut ps)).expect("clean gather");
        try_sync_grads(comm, &mut group, &mut refs(&mut ps), &[]).expect("clean sync");
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

/// The values the member at `pos` passes to the sync: three of spread
/// magnitudes, so their sum depends on the order they meet in.
fn member_vals(pos: usize) -> Vec<f32> {
    let scale = [1.0, 1e3, 1e-3][pos % 3];
    randn_mat(1, 3, scale, 7000 + pos as u64)
        .as_slice()
        .to_vec()
}

/// The value `x` arrives as after a trip over a `wire` link.
fn wire_round(wire: WireDtype, x: f32) -> f32 {
    match wire {
        WireDtype::F32 => x,
        WireDtype::Bf16 => decode_bf16(encode_bf16(x)),
    }
}

/// The leader-bucket gradients of `ps` at group size `g`, in bucket order.
fn leader_grads(ps: &[Param], g: usize) -> Vec<f32> {
    ps.iter()
        .filter(|p| !on_ring(p.grad.rows(), g))
        .flat_map(|p| p.grad.as_slice().to_vec())
        .collect()
}

fn to_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// What a leader all-reduce over members `0..g` hands back: the values
/// summed at f32 (they travel as f32 vectors), and the leader bucket summed
/// from the leader's own gradients at f32 and every other member's at wire
/// precision, in ascending member order, then rounded to the wire.
fn serial_sums(g: usize, wire: WireDtype) -> (Vec<u32>, Vec<u32>) {
    let mut vals = member_vals(0);
    let mut grads = leader_grads(&params(0), g);
    for pos in 1..g {
        for (s, x) in vals.iter_mut().zip(member_vals(pos)) {
            *s += x;
        }
        for (s, x) in grads.iter_mut().zip(leader_grads(&params(pos as u64), g)) {
            *s += wire_round(wire, x);
        }
    }
    let grads: Vec<f32> = grads.into_iter().map(|x| wire_round(wire, x)).collect();
    (to_bits(&vals), to_bits(&grads))
}

#[test]
fn synced_values_and_leader_bucket_equal_a_serial_ascending_member_sum() {
    let evicted: [(Topology, &'static [usize]); 2] = [
        (Topology::a800(2, 2), &[2]),
        (Topology::a800(2, 4), &[3, 7]),
    ];
    let fixed = worlds().map(|t| (t, &[][..]));
    for (topo, dead) in fixed.into_iter().chain(evicted) {
        for wire in [WireDtype::F32, WireDtype::Bf16] {
            let outs = World::new(topo.clone().with_wire_dtype(wire)).run(move |comm| {
                let mut m = Membership::new(comm.world_size());
                for &d in dead {
                    m.evict(d);
                }
                let pos = m.pos_of(comm.rank())?;
                let g = m.num_alive();
                let policy = RetryPolicy::default();
                let mut group = if dead.is_empty() {
                    Group::World
                } else {
                    Group::Alive(&mut m, &policy)
                };
                let mut ps = params(pos as u64);
                let sums = try_sync_grads(comm, &mut group, &mut refs(&mut ps), &member_vals(pos))
                    .expect("clean sync");
                // The same gradients synced without values.
                let mut plain = params(pos as u64);
                try_sync_grads(comm, &mut group, &mut refs(&mut plain), &[]).expect("clean sync");
                // The leader bucket alone: nothing to ring, so the values
                // take one leader all-reduce.
                let mut lone: Vec<Param> = params(pos as u64)
                    .into_iter()
                    .filter(|p| !on_ring(p.grad.rows(), g))
                    .collect();
                let lone_sums =
                    try_sync_grads(comm, &mut group, &mut refs(&mut lone), &member_vals(pos))
                        .expect("clean sync");
                Some((
                    [to_bits(&sums), to_bits(&lone_sums)],
                    [
                        to_bits(&leader_grads(&ps, g)),
                        to_bits(&leader_grads(&lone, g)),
                    ],
                    bits(&ps),
                    bits(&plain),
                ))
            });
            let alive: Vec<_> = outs.into_iter().filter_map(|o| o.result).collect();
            let (want_vals, want_grads) = serial_sums(alive.len(), wire);
            for (pos, (vals, grads, synced, plain)) in alive.iter().enumerate() {
                let shape = (topo.nodes, topo.gpus_per_node);
                let at = format!("{shape:?} − {dead:?}, {wire:?} wire, position {pos}");
                for (path, (vals, grads)) in ["ring", "leader"].iter().zip(vals.iter().zip(grads)) {
                    assert!(vals == &want_vals, "{at}, {path} path: value sums");
                    assert!(grads == &want_grads, "{at}, {path} path: leader bucket");
                }
                assert!(synced == plain, "{at}: values moved a gradient");
            }
        }
    }
}
