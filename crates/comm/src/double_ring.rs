//! The two-level ring: [`DoubleRingSpec`], the node-major geometry of a
//! ring over any member set, and the ring all-gather and reduce-scatter
//! that run on it.
//!
//! On a multi-node spec the all-gather first rings each block across nodes
//! among the members at the same local position — every NIC carries one
//! block per step, all of them in parallel — and then passes the
//! per-position groups around each node's NVLink sub-ring. The
//! reduce-scatter is the mirror image: node-local partial sums first, then
//! the cross-node sum of those partials. Either way a member sends `G − 1`
//! messages, the count and bytes of a flat ring, but only `nodes − 1` of
//! them leave its node.
//!
//! With one node, or one member per node, one level is empty and the other
//! is the flat ring over the members: the same messages in the same order.
//!
//! The all-gather can also carry a few `f32` values per member in the
//! messages that forward its block, so a small reduction needs no
//! collective of its own: each member sums the gathered values itself.

use crate::comm::Communicator;
use crate::fault::CommError;
use crate::topology::Topology;
use burst_tensor::Mat;

/// The logical geometry of a two-level ring over an arbitrary member set.
///
/// All schedule arithmetic runs on **slots** — dense logical positions
/// `slot = outer · gpus_per_node + inner`, node-major like fresh physical
/// ranks — and `slots[slot]` maps each one back to the physical rank
/// occupying it. A full world is the identity mapping; after an eviction,
/// [`DoubleRingSpec::from_members`] rebuilds the split from the survivors
/// **iff node locality survived** (every remaining node contributes the
/// same number of ranks), so inner hops stay on NVLink and outer hops stay
/// on the NICs. Because slot arithmetic is exactly the rank arithmetic of a
/// fresh `(nodes, gpus_per_node)` world, a shrunken two-level schedule is
/// bit-identical to a fresh world of that shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DoubleRingSpec {
    nodes: usize,
    gpn: usize,
    /// `slots[outer * gpn + inner]` = physical rank at that slot.
    slots: Vec<usize>,
}

impl DoubleRingSpec {
    /// The identity spec over the full topology.
    pub fn full(topo: &Topology) -> Self {
        DoubleRingSpec {
            nodes: topo.nodes,
            gpn: topo.gpus_per_node,
            slots: (0..topo.nodes * topo.gpus_per_node).collect(),
        }
    }

    /// Rebuild the two-level split over a surviving member set, preserving
    /// node locality. Returns `None` when the survivors are *ragged* — the
    /// non-empty nodes hold unequal rank counts, so no valid inner/outer
    /// split exists and the caller must fall back to a flat ring.
    pub fn from_members(topo: &Topology, members: &[usize]) -> Option<Self> {
        let mut members = members.to_vec();
        members.sort_unstable();
        members.dedup();
        if members.is_empty() || *members.last().unwrap() >= topo.world_size() {
            return None;
        }
        let mut per_node = vec![0usize; topo.nodes];
        for &r in &members {
            per_node[topo.node_of(r)] += 1;
        }
        let counts: Vec<usize> = per_node.iter().copied().filter(|&c| c > 0).collect();
        let gpn = counts[0];
        if counts.iter().any(|&c| c != gpn) {
            return None;
        }
        // Ranks are node-major, so ascending survivors are already grouped
        // by (retained) node: the sorted list *is* the slot map.
        Some(DoubleRingSpec {
            nodes: counts.len(),
            gpn,
            slots: members,
        })
    }

    /// The ring over an ascending member list: the two-level split when the
    /// members are node-balanced ([`DoubleRingSpec::from_members`]),
    /// otherwise the one-level ring over the same list. Slot order is the
    /// list order either way, so a slot is a ring position.
    #[track_caller]
    pub fn two_level_or_flat(topo: &Topology, members: &[usize]) -> Self {
        assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "ring members must be ascending and distinct: {members:?}"
        );
        DoubleRingSpec::from_members(topo, members).unwrap_or_else(|| Self::one_level(members))
    }

    /// A one-level spec: the flat ring over `members`, in the given order.
    fn one_level(members: &[usize]) -> Self {
        assert!(!members.is_empty(), "a ring needs at least one member");
        DoubleRingSpec {
            nodes: 1,
            gpn: members.len(),
            slots: members.to_vec(),
        }
    }

    pub fn nodes(&self) -> usize {
        self.nodes
    }

    pub fn gpus_per_node(&self) -> usize {
        self.gpn
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The physical rank occupying `slot`.
    pub fn rank_at(&self, slot: usize) -> usize {
        self.slots[slot]
    }

    /// The slot occupied by physical `rank`, if it is a member.
    pub fn slot_of(&self, rank: usize) -> Option<usize> {
        self.slots.iter().position(|&r| r == rank)
    }

    /// Next slot on the same (logical) node's NVLink sub-ring.
    pub fn next_in_node(&self, slot: usize) -> usize {
        let (outer, inner) = (slot / self.gpn, slot % self.gpn);
        outer * self.gpn + (inner + 1) % self.gpn
    }

    /// Previous slot on the same (logical) node's NVLink sub-ring.
    pub fn prev_in_node(&self, slot: usize) -> usize {
        let (outer, inner) = (slot / self.gpn, slot % self.gpn);
        outer * self.gpn + (inner + self.gpn - 1) % self.gpn
    }

    /// Same-inner-position slot on the next (logical) node.
    pub fn peer_next_node(&self, slot: usize) -> usize {
        let (outer, inner) = (slot / self.gpn, slot % self.gpn);
        ((outer + 1) % self.nodes) * self.gpn + inner
    }

    /// Same-inner-position slot on the previous (logical) node.
    pub fn peer_prev_node(&self, slot: usize) -> usize {
        let (outer, inner) = (slot / self.gpn, slot % self.gpn);
        ((outer + self.nodes - 1) % self.nodes) * self.gpn + inner
    }

    /// The calling rank's slot; panics if it is not a member.
    fn my_slot(&self, comm: &Communicator) -> usize {
        self.slot_of(comm.rank()).unwrap_or_else(|| {
            panic!(
                "rank {}: ring collective on a spec it is not a member of",
                comm.rank()
            )
        })
    }

    /// Physical `(next, prev)` ranks of `slot` on its node's sub-ring.
    fn intra_peers(&self, slot: usize) -> (usize, usize) {
        (
            self.rank_at(self.next_in_node(slot)),
            self.rank_at(self.prev_in_node(slot)),
        )
    }

    /// Physical `(next, prev)` ranks of `slot` on its cross-node ring.
    fn inter_peers(&self, slot: usize) -> (usize, usize) {
        (
            self.rank_at(self.peer_next_node(slot)),
            self.rank_at(self.peer_prev_node(slot)),
        )
    }
}

/// Two-level ring all-gather over `spec`: every member's block and
/// values, indexed by slot. `vals` ride beside `mine` in every message that
/// forwards it ([`crate::MsgData::WithVals`], at f32 whatever the wire
/// dtype); empty values send the plain matrix payload. `recv` receives one part
/// from a physical rank — the fixed world's plain receive, or a shrinking
/// collective's retrying one.
pub(crate) fn all_gather_on(
    comm: &mut Communicator,
    spec: &DoubleRingSpec,
    mine: &Mat,
    vals: &[f32],
    mut recv: impl FnMut(&mut Communicator, usize) -> Result<(Mat, Vec<f32>), CommError>,
) -> Result<Vec<(Mat, Vec<f32>)>, CommError> {
    let (nodes, gpn) = (spec.nodes, spec.gpn);
    let me = spec.my_slot(comm);
    let (outer, inner) = (me / gpn, me % gpn);
    let mut parts: Vec<Option<(Mat, Vec<f32>)>> = vec![None; spec.len()];
    parts[me] = Some((mine.clone(), vals.to_vec()));
    let forward = |comm: &mut Communicator, part: &Option<(Mat, Vec<f32>)>, dst: usize| {
        let (block, vals) = part.clone().expect("ring all-gather invariant");
        comm.try_send_mat_vals(dst, block, vals)
    };
    // Across nodes: each step forwards the block received in the previous
    // one, so after `nodes − 1` steps a member holds every block at its
    // local position.
    let (next, prev) = spec.inter_peers(me);
    let mut cursor = outer;
    for _ in 1..nodes {
        forward(comm, &parts[cursor * gpn + inner], next)?;
        let incoming = recv(comm, prev)?;
        cursor = (cursor + nodes - 1) % nodes;
        parts[cursor * gpn + inner] = Some(incoming);
    }
    // Inside each node: the same ring, forwarding one local position's
    // group of `nodes` blocks per step.
    let (next, prev) = spec.intra_peers(me);
    let mut cursor = inner;
    for _ in 1..gpn {
        for o in 0..nodes {
            forward(comm, &parts[o * gpn + cursor], next)?;
        }
        cursor = (cursor + gpn - 1) % gpn;
        for o in 0..nodes {
            parts[o * gpn + cursor] = Some(recv(comm, prev)?);
        }
    }
    Ok(parts
        .into_iter()
        .map(|p| p.expect("ring all-gather missed a block"))
        .collect())
}

/// Two-level ring reduce-scatter (sum) over `spec`: `parts[s]` is this
/// rank's contribution to the member at slot `s`; returns the reduced block
/// of this rank's slot. Block `b` at local position `i` is summed over
/// each node's members by the node's ring starting at position `i − 1`,
/// then those node partials over the cross-node ring starting at the node
/// before `b`'s: on one level, exactly the flat ring's association.
#[track_caller]
pub(crate) fn reduce_scatter_on(
    comm: &mut Communicator,
    spec: &DoubleRingSpec,
    parts: &[Mat],
    mut recv: impl FnMut(&mut Communicator, usize) -> Result<Mat, CommError>,
) -> Result<Mat, CommError> {
    let g = spec.len();
    assert_eq!(
        parts.len(),
        g,
        "rank {}: reduce-scatter: need one part per ring member ({} given, {g} members)",
        comm.rank(),
        parts.len()
    );
    let (nodes, gpn) = (spec.nodes, spec.gpn);
    let me = spec.my_slot(comm);
    let (outer, inner) = (me / gpn, me % gpn);
    let mut acc: Vec<Mat> = parts.to_vec();
    let rank = comm.rank();
    let accumulate = |into: &mut Mat, src: usize, incoming: Mat| {
        if incoming.shape() != into.shape() {
            return Err(CommError::ShapeMismatch {
                rank,
                src,
                expected: "reduce-scatter block of matching shape",
                got: format!(
                    "Mat {}x{} (expected {}x{})",
                    incoming.rows(),
                    incoming.cols(),
                    into.rows(),
                    into.cols()
                ),
            });
        }
        into.add_assign(&incoming);
        Ok(())
    };
    // Inside each node: blocks flow toward lower local positions,
    // accumulating, one position's group of `nodes` blocks per step.
    let (next, prev) = spec.intra_peers(me);
    let mut cursor = (inner + 1) % gpn;
    for _ in 1..gpn {
        for o in 0..nodes {
            let payload = comm.mat_payload(acc[o * gpn + cursor].clone());
            comm.try_send(prev, payload)?;
        }
        cursor = (cursor + 1) % gpn;
        for o in 0..nodes {
            let incoming = recv(comm, next)?;
            accumulate(&mut acc[o * gpn + cursor], next, incoming)?;
        }
    }
    // Across nodes: the node partials of this local position's blocks.
    let (next, prev) = spec.inter_peers(me);
    let mut cursor = (outer + 1) % nodes;
    for _ in 1..nodes {
        let payload = comm.mat_payload(acc[cursor * gpn + inner].clone());
        comm.try_send(prev, payload)?;
        let incoming = recv(comm, next)?;
        cursor = (cursor + 1) % nodes;
        accumulate(&mut acc[cursor * gpn + inner], next, incoming)?;
    }
    Ok(acc.swap_remove(me))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_spec_is_the_identity_over_the_topology() {
        let topo = Topology::a800(3, 4);
        let spec = DoubleRingSpec::full(&topo);
        assert_eq!(spec.len(), 12);
        assert_eq!((spec.nodes(), spec.gpus_per_node()), (3, 4));
        for r in 0..12 {
            assert_eq!(spec.rank_at(r), r);
            assert_eq!(spec.slot_of(r), Some(r));
        }
        // The intra-node sub-ring stays in the node and wraps.
        assert_eq!(spec.next_in_node(3), 0);
        assert_eq!(spec.next_in_node(7), 4);
        assert_eq!(spec.prev_in_node(4), 7);
        // The cross-node ring preserves the local position and wraps.
        assert_eq!(spec.peer_next_node(2), 6);
        assert_eq!(spec.peer_next_node(10), 2);
        assert_eq!(spec.peer_prev_node(2), 10);
    }

    #[test]
    fn sub_rings_partition_the_world() {
        // Walking either ring from any slot visits exactly its node's
        // slots, or exactly the slots at its local position.
        let topo = Topology::a800(3, 4);
        let spec = DoubleRingSpec::full(&topo);
        let walk = |start: usize, step: &dyn Fn(usize) -> usize| {
            let mut seen = vec![start];
            let mut s = step(start);
            while s != start {
                seen.push(s);
                s = step(s);
            }
            seen
        };
        for start in 0..spec.len() {
            let node = walk(start, &|s| spec.next_in_node(s));
            assert_eq!(node.len(), 4);
            assert!(node.iter().all(|&s| topo.same_node(s, start)));
            let peers = walk(start, &|s| spec.peer_next_node(s));
            assert_eq!(peers.len(), 3);
            assert!(peers
                .iter()
                .all(|&s| topo.local_rank(s) == topo.local_rank(start)));
        }
    }

    #[test]
    fn balanced_survivors_rebuild_a_two_level_split() {
        // 2 nodes x 3 gpus; one death per node keeps the split valid as a
        // 2x2 logical double-ring.
        let topo = Topology::a800(2, 3);
        let spec = DoubleRingSpec::from_members(&topo, &[0, 2, 3, 5]).expect("balanced");
        assert_eq!((spec.nodes(), spec.gpus_per_node()), (2, 2));
        assert_eq!(
            (0..4).map(|s| spec.rank_at(s)).collect::<Vec<_>>(),
            vec![0, 2, 3, 5]
        );
        // Slot arithmetic mirrors a fresh 2x2 world: slot 1's intra
        // neighbour is slot 0, its inter peer is slot 3.
        assert_eq!(spec.next_in_node(1), 0);
        assert_eq!(spec.peer_next_node(1), 3);
        assert_eq!(spec.slot_of(5), Some(3));
        assert_eq!(spec.slot_of(1), None);
    }

    #[test]
    fn whole_node_loss_still_splits() {
        // Losing node 1 entirely leaves 2 nodes of 2 — still valid.
        let topo = Topology::a800(3, 2);
        let spec = DoubleRingSpec::from_members(&topo, &[0, 1, 4, 5]).expect("node loss");
        assert_eq!((spec.nodes(), spec.gpus_per_node()), (2, 2));
        assert_eq!(spec.rank_at(2), 4);
        assert_eq!(spec.peer_next_node(0), 2);
    }

    #[test]
    fn ragged_survivors_are_rejected() {
        let topo = Topology::a800(2, 3);
        // Node 0 keeps 3 ranks, node 1 keeps 2: no valid split.
        assert!(DoubleRingSpec::from_members(&topo, &[0, 1, 2, 3, 4]).is_none());
        // Empty and out-of-range member sets are rejected too.
        assert!(DoubleRingSpec::from_members(&topo, &[]).is_none());
        assert!(DoubleRingSpec::from_members(&topo, &[0, 99]).is_none());
    }

    #[test]
    fn single_survivor_is_a_one_by_one_spec() {
        let topo = Topology::a800(2, 2);
        let spec = DoubleRingSpec::from_members(&topo, &[3]).expect("singleton");
        assert_eq!((spec.nodes(), spec.gpus_per_node(), spec.len()), (1, 1, 1));
        assert_eq!(spec.next_in_node(0), 0);
        assert_eq!(spec.peer_next_node(0), 0);
    }

    #[test]
    fn two_level_or_flat_splits_balanced_members_only() {
        let topo = Topology::a800(2, 4);
        // Stride-2 members hold two ranks per node: a 2x2 split.
        let spec = DoubleRingSpec::two_level_or_flat(&topo, &[1, 3, 5, 7]);
        assert_eq!((spec.nodes(), spec.gpus_per_node()), (2, 2));
        assert_eq!(spec.rank_at(spec.peer_next_node(1)), 7);
        // Stride-4 members hold one rank per node: a cross-node ring.
        let spec = DoubleRingSpec::two_level_or_flat(&topo, &[2, 6]);
        assert_eq!((spec.nodes(), spec.gpus_per_node()), (2, 1));
        // Three ranks on node 0, one on node 1: one level, in list order.
        let spec = DoubleRingSpec::two_level_or_flat(&topo, &[0, 1, 2, 4]);
        assert_eq!((spec.nodes(), spec.gpus_per_node()), (1, 4));
        assert_eq!(
            (0..4).map(|s| spec.rank_at(s)).collect::<Vec<_>>(),
            [0, 1, 2, 4]
        );
    }

    #[test]
    fn one_level_spec_is_the_flat_ring_over_its_members() {
        let spec = DoubleRingSpec::one_level(&[0, 1, 2, 3, 4]);
        assert_eq!((spec.nodes(), spec.gpus_per_node()), (1, 5));
        for s in 0..5 {
            assert_eq!(spec.rank_at(spec.next_in_node(s)), (s + 1) % 5);
            assert_eq!(spec.rank_at(spec.prev_in_node(s)), (s + 4) % 5);
            assert_eq!(spec.peer_next_node(s), s, "no cross-node level");
        }
    }
}
