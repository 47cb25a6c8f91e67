//! FSDP-style parameter handling (the paper trains with BMTrain's fully
//! sharded data parallelism).
//!
//! Compute replicas hold full parameters; sharding shows up as *real*
//! collective traffic on the simulated cluster: weights are all-gathered
//! from row shards at step start, gradients are all-reduced (ring
//! reduce-scatter + all-gather, numerically the sum every rank needs before
//! the identical Adam update). The virtual clock therefore carries the
//! FSDP communication the paper identifies as the reason end-to-end
//! overlap is imperfect (§4.3).
//!
//! # Flat buckets
//!
//! Each call packs every parameter into flat one-row buckets and runs one
//! collective per bucket, so the step pays one ring's latencies per
//! collective instead of one ring's per parameter:
//!
//! * **Weight gather** — one bucket per rank: its `shard_range` rows of
//!   every parameter, back to back, through one ring all-gather.
//! * **Gradient sync, ring bucket** — block `b` concatenates the `b`-th
//!   `chunk_rows` slice of every parameter whose row count divides by `G`;
//!   one ring reduce-scatter plus all-gather reduces all of them.
//! * **Gradient sync, leader bucket** — the remaining parameters (row
//!   counts below or not divisible by `G`, e.g. the `1 × d` norms) ride the
//!   ring bucket's all-gather as per-member values (below). With an empty
//!   ring bucket they go through one leader gather-sum-broadcast instead.
//!
//! The received buckets are unpacked in place into `p.w` / `p.grad`.
//!
//! # Per-member values
//!
//! [`try_sync_grads`] also takes each member's `f32` values — the engine
//! passes a step's loss sum and poison flag — and returns their sums, so a
//! training step runs no collective after its last micro-batch but the
//! sync. The all-gather half of the ring bucket's all-reduce carries,
//! beside each member's reduced block, that member's values followed by its
//! leader-bucket gradients, at `f32` whatever the wire. Every member then
//! sums them in ascending member order, the association of a leader
//! all-reduce: the leader's (position 0) first, then each other member's
//! in turn. A leader all-reduce receives the leader's own gradients at
//! `f32` and every other member's at wire precision, and rounds the sum to
//! the wire; the sync rounds the same ones the same way, while the values
//! stay `f32` like a vector all-reduce's. Losses and leader-bucket
//! gradients are therefore bit-identical to a separate leader all-reduce of
//! each.
//!
//! The ring collectives are `burst-comm`'s two-level ones: on a multi-node
//! topology the all-gather first rings blocks across nodes between
//! same-position peers, every NIC busy at once, then inside each node; the
//! reduce-scatter sums each block node-locally first and across nodes
//! second. On one node, or one GPU per node, both are the flat ring. The
//! buckets, spans and ledger entries do not depend on which.
//!
//! **Bit-identical to one collective per parameter.** Addition is
//! elementwise, so an element's sum depends only on the order its
//! contributions meet. Every element keeps the ring block index it had
//! in a per-parameter ring all-reduce, and with it the reduce-scatter's
//! association; leader-bucket elements are summed in ascending rank order,
//! as the per-parameter leader path sums them. Losses and final state
//! therefore match a collective per parameter exactly, and so do the ring
//! bucket's wire bytes; only the message boundaries — and so the latency
//! the virtual clock charges — move, and the leader bucket's bytes, which
//! ride the all-gather's `G − 1` sends per member instead.
//!
//! **bf16 wire.** Under [`WireDtype::Bf16`] a peer decodes every element it
//! receives at bf16 precision. Replicas stay identical because every rank
//! holds the wire-rounded value, including the one that sent it: a rank
//! rounds its own shard before the gather, a block's owner rounds its
//! reduced block before the gradient all-gather, a member other than the
//! leader rounds its leader-bucket gradients before they ride it, and every
//! rank rounds the leader bucket's sum. The gather checks each received
//! element bit for bit against the local replica rounded the same way (the
//! identity on an f32 wire), so diverged replicas fail loudly.
//!
//! **Elastic worlds.** [`try_gather_weights`] and [`try_sync_grads`] take
//! the [`Group`] they shard over. [`Group::World`] is the fixed world,
//! through the communicator's fallible collectives; [`Group::Alive`] is the
//! alive set of a [`Membership`] — ring positions replace rank ids —
//! through the shrinking collectives. Those run the fixed world's
//! algorithms on the alive set's geometry: the two-level split when the
//! survivors are node-balanced, the flat ring over the alive list when they
//! are ragged. A shrunken or regrown world therefore matches a fresh world
//! of the survivors' shape (or a fresh flat world of their count) bit for
//! bit. Each shrinking collective ends in one eviction agreement: three
//! per FSDP step (the weight gather, the reduce-scatter and the
//! all-gather), where separate loss and leader-bucket all-reduces made five
//! and a collective per parameter ran two or three per parameter.
//!
//! **Observability.** The weight gather and the gradient sync are each
//! wrapped in one [`SpanKind::Optim`] span (`fsdp_gather` / `fsdp_sync`) —
//! under the reliable transport their retransmissions are attributable to
//! them — and bill one comm-buffer entry: `fsdp_gather_buf` at the gather
//! bucket's wire bytes, `fsdp_sync_buf` at the ring bucket's wire bytes
//! plus every member's values at 4 B each. A member dying mid-collective
//! leaves its entry open; the ledger force-closes it with a warning — the
//! crash's true footprint.

use crate::param::Param;
use burst_comm::obs::MemCategory;
use burst_comm::{
    shrink_all_gather_mat, shrink_all_reduce_vec, shrink_barrier, shrink_reduce_scatter_mat,
    CommError, Communicator, Membership, RetryPolicy, SpanKind, WireDtype,
};
use burst_tensor::{decode_bf16, encode_bf16, Mat};

/// Near-equal row range of `rank` for an `rows`-row parameter.
fn shard_range(rows: usize, g: usize, rank: usize) -> (usize, usize) {
    (rows * rank / g, rows * (rank + 1) / g)
}

/// Whether a parameter's gradient rides the ring bucket: the condition
/// under which a per-parameter all-reduce takes the ring path.
fn on_ring(p: &Param, g: usize) -> bool {
    p.grad.rows() >= g && p.grad.rows().is_multiple_of(g)
}

/// The value `x` arrives as after a trip over a `wire` link.
fn wire_round(wire: WireDtype, x: f32) -> f32 {
    match wire {
        WireDtype::F32 => x,
        WireDtype::Bf16 => decode_bf16(encode_bf16(x)),
    }
}

/// Round a bucket in place to what its receivers decode.
fn round_to_wire(wire: WireDtype, buf: &mut [f32]) {
    if wire != WireDtype::F32 {
        for v in buf {
            *v = wire_round(wire, *v);
        }
    }
}

/// The ranks a training step runs over, and the collectives it runs on
/// them. Both variants return failures as typed errors.
pub enum Group<'a> {
    /// The fixed world: rank ids, the communicator's fallible collectives.
    World,
    /// The alive set of an elastic membership: ring positions, shrinking
    /// collectives that end in an eviction agreement.
    Alive(&'a mut Membership, &'a RetryPolicy),
}

impl Group<'_> {
    /// `(group size, this rank's position in it)`.
    pub(crate) fn shape(&self, comm: &Communicator) -> (usize, usize) {
        match self {
            Group::World => (comm.world_size(), comm.rank()),
            Group::Alive(m, _) => (
                m.num_alive(),
                m.pos_of(comm.rank())
                    .expect("group collective on an evicted rank"),
            ),
        }
    }

    /// The member ranks in ascending order.
    pub(crate) fn members(&self, comm: &Communicator) -> Vec<usize> {
        match self {
            Group::World => (0..comm.world_size()).collect(),
            Group::Alive(m, _) => m.alive_ranks(),
        }
    }

    /// Ring all-gather of `mine` with `vals` riding beside it: every
    /// member's `(block, values)`, in ascending member order.
    fn all_gather(
        &mut self,
        comm: &mut Communicator,
        mine: &Mat,
        vals: &[f32],
    ) -> Result<Vec<(Mat, Vec<f32>)>, CommError> {
        match self {
            Group::World => comm.try_all_gather_mat(mine, vals),
            Group::Alive(m, policy) => shrink_all_gather_mat(comm, m, mine, vals, policy),
        }
    }

    fn reduce_scatter(&mut self, comm: &mut Communicator, parts: &[Mat]) -> Result<Mat, CommError> {
        match self {
            Group::World => comm.try_reduce_scatter_mat(parts),
            Group::Alive(m, policy) => shrink_reduce_scatter_mat(comm, m, parts, policy),
        }
    }

    /// All-reduce (sum) of a short vector through the group's leader.
    pub(crate) fn all_reduce_vec(
        &mut self,
        comm: &mut Communicator,
        v: &[f32],
    ) -> Result<Vec<f32>, CommError> {
        match self {
            Group::World => comm.try_all_reduce_vec(v),
            Group::Alive(m, policy) => shrink_all_reduce_vec(comm, m, v, policy),
        }
    }

    pub(crate) fn barrier(&mut self, comm: &mut Communicator) -> Result<(), CommError> {
        match self {
            Group::World => comm.try_barrier(),
            Group::Alive(m, policy) => shrink_barrier(comm, m, policy),
        }
    }
}

/// The members' values summed in ascending member order, the association
/// of a leader all-reduce: the first member's, plus each later member's in
/// turn.
fn member_sum(vals: Vec<Vec<f32>>) -> Vec<f32> {
    let mut vals = vals.into_iter();
    let mut sums = vals.next().expect("a group has a member");
    for v in vals {
        assert_eq!(v.len(), sums.len(), "FSDP: members synced unequal values");
        for (s, x) in sums.iter_mut().zip(&v) {
            *s += x;
        }
    }
    sums
}

/// One ring all-gather of every parameter's row shard over `group`,
/// unpacked into the replicas after checking them against it (the gathered
/// values must reproduce the replica at wire precision, which is asserted —
/// catching any divergence between ranks).
pub fn try_gather_weights(
    comm: &mut Communicator,
    group: &mut Group<'_>,
    params: &mut [&mut Param],
) -> Result<(), CommError> {
    let (g, pos) = group.shape(comm);
    if g == 1 {
        return Ok(());
    }
    let wire = comm.topology().wire_dtype;
    let mut mine = Vec::new();
    for p in params.iter() {
        let (r0, r1) = shard_range(p.w.rows(), g, pos);
        let cols = p.w.cols();
        mine.extend_from_slice(&p.w.as_slice()[r0 * cols..r1 * cols]);
    }
    round_to_wire(wire, &mut mine);
    let total: usize = params.iter().map(|p| p.w.len()).sum();
    let buf = comm.mem_alloc(
        "fsdp_gather_buf",
        MemCategory::CommBuffers,
        comm.mem_wire_bytes(total),
    );
    comm.span_begin(SpanKind::Optim, "fsdp_gather");
    let parts = group.all_gather(comm, &Mat::from_vec(1, mine.len(), mine), &[]);
    comm.span_end();
    for (src, (part, _)) in parts?.iter().enumerate() {
        let mut got = part.as_slice();
        for p in params.iter_mut() {
            let shape = p.w.shape();
            let (r0, r1) = shard_range(shape.0, g, src);
            let dst = &mut p.w.as_mut_slice()[r0 * shape.1..r1 * shape.1];
            let (shard, rest) = got.split_at(dst.len());
            for (d, &x) in dst.iter_mut().zip(shard) {
                assert_eq!(
                    x.to_bits(),
                    wire_round(wire, *d).to_bits(),
                    "FSDP: rank replicas diverged for a parameter of shape {shape:?}"
                );
                *d = x;
            }
            got = rest;
        }
        debug_assert!(got.is_empty(), "FSDP: gather bucket has trailing elements");
    }
    comm.mem_free(buf);
    Ok(())
}

/// Sum every parameter's gradient across `group`, and each member's `vals`
/// with them: one ring reduce-scatter plus all-gather of the ring bucket,
/// whose all-gather carries each member's values and leader-bucket
/// gradients beside its reduced block. Returns the sums of `vals`, taken in
/// ascending member order. Over an alive set the accumulation order is a
/// fresh world's of that size.
pub fn try_sync_grads(
    comm: &mut Communicator,
    group: &mut Group<'_>,
    params: &mut [&mut Param],
    vals: &[f32],
) -> Result<Vec<f32>, CommError> {
    let (g, pos) = group.shape(comm);
    if g == 1 {
        return Ok(vals.to_vec());
    }
    let wire = comm.topology().wire_dtype;
    // This member's values: the caller's at f32, then the leader bucket's
    // gradients — the leader's own at f32, every other member's at wire
    // precision, as a leader all-reduce receives them.
    let mut mine = vals.to_vec();
    for p in params.iter().filter(|p| !on_ring(p, g)) {
        mine.extend_from_slice(p.grad.as_slice());
    }
    if pos > 0 {
        round_to_wire(wire, &mut mine[vals.len()..]);
    }
    let block_len: usize = params
        .iter()
        .filter(|p| on_ring(p, g))
        .map(|p| p.grad.len() / g)
        .sum();
    // The ring bucket at wire width, plus every member's values at f32.
    let buf = comm.mem_alloc(
        "fsdp_sync_buf",
        MemCategory::CommBuffers,
        comm.mem_wire_bytes(g * block_len) + (4 * g * mine.len()) as u64,
    );
    comm.span_begin(SpanKind::Optim, "fsdp_sync");
    let synced = if block_len == 0 {
        // Nothing to ring: the values go through the leader alone.
        group
            .all_reduce_vec(comm, &mine)
            .map(|sums| (Vec::new(), sums))
    } else {
        let parts: Vec<Mat> = (0..g)
            .map(|b| {
                let mut block = Vec::with_capacity(block_len);
                for p in params.iter().filter(|p| on_ring(p, g)) {
                    let n = p.grad.len() / g;
                    block.extend_from_slice(&p.grad.as_slice()[b * n..(b + 1) * n]);
                }
                Mat::from_vec(1, block_len, block)
            })
            .collect();
        group
            .reduce_scatter(comm, &parts)
            .and_then(|mut owned| {
                round_to_wire(wire, owned.as_mut_slice());
                group.all_gather(comm, &owned, &mine)
            })
            .map(|gathered| {
                let (blocks, vals): (Vec<Mat>, Vec<Vec<f32>>) = gathered.into_iter().unzip();
                (blocks, member_sum(vals))
            })
    };
    comm.span_end();
    let (blocks, mut sums) = synced?;
    for (b, block) in blocks.iter().enumerate() {
        let mut got = block.as_slice();
        for p in params.iter_mut().filter(|p| on_ring(p, g)) {
            let n = p.grad.len() / g;
            let (chunk, rest) = got.split_at(n);
            p.grad.as_mut_slice()[b * n..(b + 1) * n].copy_from_slice(chunk);
            got = rest;
        }
    }
    // The leader bucket, rounded to the wire as a leader's broadcast is.
    let mut leader = sums.split_off(vals.len());
    round_to_wire(wire, &mut leader);
    let mut got = leader.as_slice();
    for p in params.iter_mut().filter(|p| !on_ring(p, g)) {
        let (grad, tail) = got.split_at(p.grad.len());
        p.grad.as_mut_slice().copy_from_slice(grad);
        got = tail;
    }
    comm.mem_free(buf);
    Ok(sums)
}

/// [`try_gather_weights`] over the fixed world; a failure escalates.
pub fn gather_weights(comm: &mut Communicator, params: &mut [&mut Param]) {
    if let Err(e) = try_gather_weights(comm, &mut Group::World, params) {
        comm.escalate(e)
    }
}

/// [`try_sync_grads`] of the gradients alone over the fixed world; a
/// failure escalates.
pub fn sync_grads(comm: &mut Communicator, params: &mut [&mut Param]) {
    if let Err(e) = try_sync_grads(comm, &mut Group::World, params, &[]) {
        comm.escalate(e)
    }
}

/// Modeled per-rank parameter + optimizer memory under FSDP sharding:
/// each rank persists `1/G` of weights, gradients and the two Adam moments
/// (all f32 here; the perf crate models mixed precision at paper scale).
pub fn sharded_state_bytes(total_params: usize, g: usize) -> usize {
    total_params * 4 * 4 / g
}

/// Device-resident state with optional optimizer offloading (ZeRO-Offload):
/// the Adam moments (2 × 4 B/param) move to host memory, leaving weights +
/// gradients on device.
pub fn device_state_bytes(total_params: usize, g: usize, offload_optimizer: bool) -> usize {
    let per_param = if offload_optimizer { 2 * 4 } else { 4 * 4 };
    total_params * per_param / g
}

/// PCIe round-trip seconds for one offloaded optimizer step: gradients
/// stream to the host and updated parameters stream back (ZeRO-Offload's
/// data path), at an effective 12 GB/s per direction.
pub fn offload_step_seconds(total_params: usize, g: usize) -> f64 {
    const PCIE_BW: f64 = 12e9;
    let down = (total_params / g) as f64 * 4.0; // fp32 gradients out
    let up = (total_params / g) as f64 * 4.0; // fp32 master weights back
    down / PCIE_BW + up / PCIE_BW
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_cover_rows() {
        for rows in [7usize, 8, 33] {
            for g in [1usize, 3, 4] {
                let mut covered = 0;
                for r in 0..g {
                    let (a, b) = shard_range(rows, g, r);
                    assert_eq!(a, covered);
                    covered = b;
                }
                assert_eq!(covered, rows);
            }
        }
    }

    #[test]
    fn sharded_state_shrinks_with_world() {
        assert_eq!(sharded_state_bytes(1000, 1), 16_000);
        assert_eq!(sharded_state_bytes(1000, 4), 4_000);
    }

    #[test]
    fn offload_halves_device_state() {
        assert_eq!(device_state_bytes(1000, 1, false), 16_000);
        assert_eq!(device_state_bytes(1000, 1, true), 8_000);
        assert_eq!(device_state_bytes(1000, 4, true), 2_000);
    }

    #[test]
    fn offload_time_scales_with_params_and_shards() {
        let t1 = offload_step_seconds(12_000_000, 1);
        let t4 = offload_step_seconds(12_000_000, 4);
        assert!(t1 > 0.0);
        assert!((t1 / t4 - 4.0).abs() < 1e-9);
    }
}
