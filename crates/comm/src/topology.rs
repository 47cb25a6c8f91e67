//! Cluster topology: node layout, link performance parameters, and the
//! wire dtype for tensor payloads.

use serde::{Deserialize, Serialize};

/// Element dtype used for matrix payloads on the wire.
///
/// Selecting [`WireDtype::Bf16`] makes the typed send helpers and the
/// `*_mat` collectives encode matrices through
/// [`Bf16Mat`](burst_tensor::Bf16Mat) before enqueueing: the payload
/// genuinely occupies (and is billed at) 2 bytes per element, and the
/// receiver decodes back to `f32`, observing bf16-rounded values. Softmax
/// statistics (LSE/D vectors) always travel as `f32` — they are `O(m)`
/// against the `O(m·d)` matrices and their precision anchors the online
/// merges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum WireDtype {
    /// Full-precision payloads: 4 bytes per element, values untouched.
    #[default]
    F32,
    /// bfloat16 payloads: 2 bytes per element, values rounded to nearest
    /// even at the sender.
    Bf16,
}

impl WireDtype {
    /// Wire width in bytes per element.
    #[inline]
    pub fn width(self) -> f64 {
        match self {
            WireDtype::F32 => 4.0,
            WireDtype::Bf16 => 2.0,
        }
    }

    /// Short label for reports and traces.
    pub fn label(self) -> &'static str {
        match self {
            WireDtype::F32 => "f32",
            WireDtype::Bf16 => "bf16",
        }
    }
}

/// A point-to-point link model: `time(bytes) = latency + bytes / bandwidth`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// One-way latency in seconds.
    pub latency: f64,
    /// Bandwidth in bytes per second.
    pub bandwidth: f64,
}

impl Link {
    pub fn new(latency: f64, bandwidth: f64) -> Self {
        Link { latency, bandwidth }
    }

    /// Pure serialisation (bandwidth) term for `bytes`.
    #[inline]
    pub fn serialization(&self, bytes: f64) -> f64 {
        bytes / self.bandwidth
    }

    /// Full transfer time for `bytes`.
    #[inline]
    pub fn transfer_time(&self, bytes: f64) -> f64 {
        self.latency + bytes / self.bandwidth
    }
}

/// The shape of the simulated cluster.
///
/// Ranks are numbered `0..nodes*gpus_per_node`; rank `r` lives on node
/// `r / gpus_per_node` with local index `r % gpus_per_node`. Intra-node
/// traffic uses the NVLink [`Link`]; inter-node traffic uses the sending
/// GPU's dedicated NIC [`Link`] (the paper's testbed has one HDR NIC per
/// GPU, so per-GPU inter-node bandwidth is a single NIC's).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    pub nodes: usize,
    pub gpus_per_node: usize,
    /// NVLink (intra-node) link model.
    pub intra: Link,
    /// Per-GPU InfiniBand NIC (inter-node) link model.
    pub inter: Link,
    /// Dtype for matrix payloads on the wire (see [`WireDtype`]).
    pub wire_dtype: WireDtype,
}

impl Topology {
    pub fn new(nodes: usize, gpus_per_node: usize, intra: Link, inter: Link) -> Self {
        assert!(nodes > 0 && gpus_per_node > 0, "Topology: empty cluster");
        Topology {
            nodes,
            gpus_per_node,
            intra,
            inter,
            wire_dtype: WireDtype::default(),
        }
    }

    /// The same topology with bf16 matrix payloads on the wire.
    pub fn with_wire_dtype(mut self, dtype: WireDtype) -> Self {
        self.wire_dtype = dtype;
        self
    }

    /// The paper's testbed: A800 nodes with 400 GB/s NVLink and one
    /// 200 Gb/s (25 GB/s) HDR InfiniBand NIC per GPU. Latencies are typical
    /// measured values (NVLink ~3 µs effective per NCCL op, IB ~10 µs).
    pub fn a800(nodes: usize, gpus_per_node: usize) -> Self {
        Topology::new(
            nodes,
            gpus_per_node,
            Link::new(3e-6, 400e9),
            Link::new(10e-6, 25e9),
        )
    }

    /// A single-node topology where every link is NVLink.
    pub fn single_node(gpus: usize) -> Self {
        Topology::a800(1, gpus)
    }

    /// An idealised uniform cluster (for unit tests): every link identical.
    pub fn uniform(world: usize, link: Link) -> Self {
        Topology::new(1, world, link, link)
    }

    #[inline]
    pub fn world_size(&self) -> usize {
        self.nodes * self.gpus_per_node
    }

    #[inline]
    #[track_caller]
    pub fn node_of(&self, rank: usize) -> usize {
        debug_assert!(rank < self.world_size(), "rank {rank} out of range");
        rank / self.gpus_per_node
    }

    #[inline]
    pub fn local_rank(&self, rank: usize) -> usize {
        rank % self.gpus_per_node
    }

    #[inline]
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// Link used when `src` sends to `dst`.
    #[inline]
    pub fn link(&self, src: usize, dst: usize) -> Link {
        if self.same_node(src, dst) {
            self.intra
        } else {
            self.inter
        }
    }

    /// Wire bytes for `elems` tensor elements at the configured matrix
    /// payload dtype. Payload-specific accounting (f32 vectors, control
    /// messages) happens in the mailbox; this is the matrix-payload rate.
    #[inline]
    pub fn wire_bytes(&self, elems: usize) -> f64 {
        elems as f64 * self.wire_dtype.width()
    }

    /// Successor on the flat global ring.
    #[inline]
    pub fn next_rank(&self, rank: usize) -> usize {
        (rank + 1) % self.world_size()
    }

    /// Predecessor on the flat global ring.
    #[inline]
    pub fn prev_rank(&self, rank: usize) -> usize {
        (rank + self.world_size() - 1) % self.world_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_indexing() {
        let t = Topology::a800(2, 4);
        assert_eq!(t.world_size(), 8);
        assert_eq!(t.node_of(5), 1);
        assert_eq!(t.local_rank(5), 1);
        assert!(t.same_node(4, 7));
        assert!(!t.same_node(3, 4));
    }

    #[test]
    fn link_selection() {
        let t = Topology::a800(2, 4);
        assert_eq!(t.link(0, 3), t.intra);
        assert_eq!(t.link(3, 4), t.inter);
        assert!(t.intra.bandwidth > t.inter.bandwidth);
    }

    #[test]
    fn transfer_time_formula() {
        let l = Link::new(1e-6, 1e9);
        let t = l.transfer_time(1e9);
        assert!((t - (1.0 + 1e-6)).abs() < 1e-12);
    }

    #[test]
    fn ring_neighbors_wrap() {
        let t = Topology::a800(2, 4);
        assert_eq!(t.next_rank(7), 0);
        assert_eq!(t.prev_rank(0), 7);
    }

    #[test]
    fn wire_bytes_follow_the_wire_dtype() {
        let t = Topology::a800(1, 2);
        assert_eq!(t.wire_dtype, WireDtype::F32);
        assert_eq!(t.wire_bytes(100), 400.0);
        let b = t.with_wire_dtype(WireDtype::Bf16);
        assert_eq!(b.wire_bytes(100), 200.0, "bf16 halves the wire");
        assert_eq!(WireDtype::F32.width(), 4.0);
        assert_eq!(WireDtype::Bf16.width(), 2.0);
        assert_eq!(WireDtype::Bf16.label(), "bf16");
    }
}
