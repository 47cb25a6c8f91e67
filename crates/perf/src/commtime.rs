//! Table 1: communication time of one attention layer (forward + backward)
//! under the three ring disciplines.
//!
//! Following the paper's notation, a full ring pass makes `G` hops; in a
//! flat ring every hop is gated by the slower of the two link classes,
//! while the two-level rings take `G − N_inter` NVLink hops and `N_inter`
//! NIC hops (all NICs active simultaneously). One "unit" is a full ring
//! pass of one `N/G × d` partition: the forward moves 2 units (`K, V`),
//! Algorithm 1's backward moves 4 and Algorithm 2's moves ~3.
//!
//! * RingAttention:      `6 · max(G·T_intra(P), G·T_inter(P))`
//! * DoubleRingAttention:`4 · max((G−n)·T_intra, n·T_inter) + 2·((G−n)·T_intra + n·T_inter)`
//!   (forward's 2 units overlap the two link classes; the backward's 4
//!   gradient-carrying units cannot, so their intra and inter parts add)
//! * BurstAttention:     `5 · max((G−n)·T_intra, n·T_inter)`
//!   (2 forward + ~3 backward units, both levels overlapped)

use crate::machine::Cluster;
use burst_comm::{CommStats, WireDtype};
use burst_dattn::{
    census_dr_alg1, census_dr_alg2, census_dr_forward, census_flat_alg1, Algo, Layout, MaskedWire,
    RingGeom, SkipPlan,
};
use burst_kernels::AttnMask;
use serde::{Deserialize, Serialize};

/// Communication time of one layer's attention fwd+bwd for each method.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CommTimes {
    pub ring: f64,
    pub double_ring: f64,
    pub burst: f64,
}

/// Per-hop partition bytes: one `N/G × d_model` activation in bf16 —
/// the paper's Table 1 assumes half-width activations on the wire
/// (the simulator's [`WireDtype::Bf16`] setting). For the f32 wire use
/// `partition_bytes_dtype` with [`WireDtype::F32`].
pub fn partition_bytes(seq_len: usize, d_model: usize, world: usize) -> f64 {
    partition_bytes_dtype(seq_len, d_model, world, WireDtype::Bf16)
}

/// [`partition_bytes`] at an explicit wire dtype.
pub fn partition_bytes_dtype(
    seq_len: usize,
    d_model: usize,
    world: usize,
    dtype: WireDtype,
) -> f64 {
    (seq_len as f64 / world as f64) * d_model as f64 * dtype.width()
}

/// Evaluate all three Table 1 rows for a partition of `p_bytes`.
pub fn comm_times(cluster: &Cluster, p_bytes: f64) -> CommTimes {
    let g = cluster.world() as f64;
    // A single node has no inter-node hops at all; otherwise one hop per
    // node boundary.
    let n_inter = if cluster.nodes > 1 {
        cluster.nodes as f64
    } else {
        0.0
    };
    let t_intra = cluster.nvlink.transfer_time(p_bytes);
    let t_inter = if cluster.nodes > 1 {
        cluster.nic.transfer_time(p_bytes)
    } else {
        0.0
    };
    let flat_pass = if cluster.nodes > 1 {
        g * t_intra.max(t_inter)
    } else {
        g * t_intra
    };
    let two_level_pass = ((g - n_inter) * t_intra).max(n_inter * t_inter);
    let two_level_serial = (g - n_inter) * t_intra + n_inter * t_inter;
    CommTimes {
        ring: 6.0 * flat_pass,
        double_ring: 4.0 * two_level_pass + 2.0 * two_level_serial,
        burst: 5.0 * two_level_pass,
    }
}

/// Convenience: per-layer communication times for a model shape.
pub fn layer_comm_times(cluster: &Cluster, seq_len: usize, d_model: usize) -> CommTimes {
    comm_times(cluster, partition_bytes(seq_len, d_model, cluster.world()))
}

/// Exact wire-message census of one attention layer (forward + backward),
/// aggregated over every rank and split by link class.
///
/// Unlike the Table 1 closed forms above — which approximate the
/// *critical-path* communication time of a ring pass — this census counts
/// each point-to-point message the schedules actually post, so
/// `secs = msgs · latency + bytes / bandwidth` per link class reproduces
/// the simulator's per-message wire occupancy (the sum over `Send` spans
/// of `arrival − depart`) exactly on the fault-free path. The observability
/// report gates measured-vs-predicted divergence on this quantity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct WireCounts {
    pub intra_msgs: u64,
    pub inter_msgs: u64,
    pub intra_bytes: f64,
    pub inter_bytes: f64,
}

impl WireCounts {
    fn add(&mut self, inter: bool, msgs: u64, bytes_each: f64) {
        if inter {
            self.inter_msgs += msgs;
            self.inter_bytes += msgs as f64 * bytes_each;
        } else {
            self.intra_msgs += msgs;
            self.intra_bytes += msgs as f64 * bytes_each;
        }
    }

    pub fn msgs(&self) -> u64 {
        self.intra_msgs + self.inter_msgs
    }

    pub fn bytes(&self) -> f64 {
        self.intra_bytes + self.inter_bytes
    }

    /// Total wire occupancy: every message pays its link's latency plus
    /// serialization, summed over both link classes.
    pub fn secs(&self, cluster: &Cluster) -> f64 {
        self.intra_msgs as f64 * cluster.nvlink.latency
            + self.intra_bytes / cluster.nvlink.bandwidth
            + self.inter_msgs as f64 * cluster.nic.latency
            + self.inter_bytes / cluster.nic.bandwidth
    }
}

/// Count every message the schedule `algo` posts, over all ranks,
/// for per-rank partitions of `seq_len / world` rows of width `d`, at the
/// matrix wire dtype `dtype` (`WireDtype::F32` is the simulator's default).
/// Only the `Mat` payloads change width: the softmax statistics vectors
/// (`LSE`, `D`) always travel as f32 (4 bytes per element), matching the
/// simulator. The per-rank counts mirror the send sites in `burst-dattn`:
///
/// * flat ring: `2(G−1)` forward + `4G` Algorithm 1 backward `Mat` hops on
///   each rank's single outgoing edge; `nodes` of the `G` edges cross a
///   node boundary when `nodes > 1`;
/// * Algorithm 2 over the flat ring replaces Algorithm 1's hops with
///   `G−1` read-only bundles (2 `Mat` + 2 `Vec`) and `G` `∇Q` `Mat` hops
///   on the same edge;
/// * two-level forward: `2(n−1)` inter + `2n(p−1)` intra `Mat` hops;
/// * Algorithm 1 over the two-level ring adds `4(n−1)` inter +
///   `4n(p−1)` intra hops plus the completion hops (`2` inter when
///   `n > 1`, `2·(n mod p)` intra);
/// * Algorithm 2 over the two-level ring moves the read-only bundle
///   (2 `Mat` + 2 `Vec`) along the forward traversal and streams one `∇Q`
///   `Mat` per slot, `n` of them on the inter diagonal when `n > 1`.
pub fn exact_wire_counts_dtype(
    cluster: &Cluster,
    seq_len: usize,
    d: usize,
    algo: Algo,
    dtype: WireDtype,
) -> WireCounts {
    let g = cluster.world();
    let (n, p) = (cluster.nodes as u64, cluster.gpus_per_node as u64);
    let m = seq_len as f64 / g as f64;
    let mat = m * d as f64 * dtype.width();
    let vec = m * 4.0;
    let mut w = WireCounts::default();
    if g == 1 {
        return w; // single rank: both backwards early-return, no sends
    }
    let gr = g as u64;
    // Flat rings: every rank sends on its one outgoing edge.
    let inter_ranks = if n > 1 { n } else { 0 };
    match algo {
        Algo::RingFlat => {
            let per_rank = 2 * (gr - 1) + 4 * gr;
            w.add(true, inter_ranks * per_rank, mat);
            w.add(false, (gr - inter_ranks) * per_rank, mat);
        }
        Algo::BurstFlat => {
            for (inter, ranks) in [(true, inter_ranks), (false, gr - inter_ranks)] {
                w.add(inter, ranks * (4 * (gr - 1) + gr), mat);
                w.add(inter, ranks * 2 * (gr - 1), vec);
            }
        }
        Algo::DoubleRing => {
            let inter_per = 6 * (n - 1) + if n > 1 { 2 } else { 0 };
            let intra_per = 6 * n * (p - 1) + 2 * (n % p);
            w.add(true, gr * inter_per, mat);
            w.add(false, gr * intra_per, mat);
        }
        Algo::BurstTopo => {
            // Forward K/V and the backward read-only Q/∇O share the
            // two-level traversal: 2 Mat hops each way per boundary.
            let ro_inter = n - 1;
            let ro_intra = n * (p - 1);
            w.add(true, gr * 4 * ro_inter, mat);
            w.add(true, gr * 2 * ro_inter, vec);
            w.add(false, gr * 4 * ro_intra, mat);
            w.add(false, gr * 2 * ro_intra, vec);
            // ∇Q stream: one Mat per slot; the `n` diagonal hops cross
            // nodes when there is more than one.
            let dq_inter = if n > 1 { n } else { 0 };
            w.add(true, gr * dq_inter, mat);
            w.add(false, gr * (n * p - dq_inter), mat);
        }
    }
    w
}

/// [`WireCounts`] plus the skip duals: what a mask-gated run actually puts
/// on the wire, what it elides, and how many rank-rounds disappear. With
/// `skip = false` (or under [`AttnMask::Full`]) `counts` reproduces
/// [`exact_wire_counts_dtype`] bit-for-bit and the duals are zero; with
/// skipping on, `counts.bytes() + skipped_bytes` still equals the dense
/// census — bytes move between the lanes, they never vanish.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MaskedWireCounts {
    /// Messages the gated schedule actually posts, split by link class.
    pub counts: WireCounts,
    /// Rank-rounds elided entirely (no span, no clock, no wire),
    /// summed over all ranks.
    pub rounds_skipped: u64,
    /// Bytes the dense schedule would have posted that the gates kept off
    /// the wire (matrix payloads at the wire dtype, statistics vectors at
    /// f32 — the same widths `CommStats::skipped_bytes` bills).
    pub skipped_bytes: f64,
}

impl MaskedWireCounts {
    /// Dense-equivalent wire bytes: actual traffic plus the skipped dual.
    pub fn dense_bytes(&self) -> f64 {
        self.counts.bytes() + self.skipped_bytes
    }
}

/// Exact per-rank wire activity of one *masked* pass of `algo`, in
/// logical elements. This is the symbolic twin of the gated send sites in
/// `burst-dattn`: for every `(schedule × mask × layout)` cell the returned
/// [`MaskedWire`] matches rank `me`'s measured `CommStats` — messages,
/// matrix/vector elements, skipped rounds and skipped elements — exactly.
/// The flat algorithms' forward and Algorithm 2 are the two-level arms at
/// `(n, p) = (1, G)`.
///
/// `skip = false` builds the dense plan (every gate forced open), so the
/// census then reproduces the unmasked schedule regardless of `mask`.
#[allow(clippy::too_many_arguments)]
pub fn masked_wire_rank(
    cluster: &Cluster,
    seq_len: usize,
    d: usize,
    algo: Algo,
    mask: &AttnMask,
    layout: Layout,
    max_token: Option<usize>,
    skip: bool,
    me: usize,
) -> MaskedWire {
    let g = cluster.world();
    let (n, p) = (cluster.nodes, cluster.gpus_per_node);
    let plan = if skip {
        SkipPlan::build(mask, layout, seq_len, g, max_token)
    } else {
        SkipPlan::dense(g)
    };
    let geom = RingGeom::build(layout, seq_len, g, d, d, max_token);
    let shape = ring_shape(cluster, algo);
    // On the one-level ring over several nodes (the flat ring) a rank's
    // edge to its successor crosses the node boundary exactly when the rank
    // is the last GPU of its node; two-level intra edges stay on the node.
    let intra_inter = shape.0 == 1 && n > 1 && (me + 1).is_multiple_of(p);
    let fwd = census_dr_forward(&plan, &geom, shape, intra_inter, me);
    fwd.add(&match algo {
        Algo::RingFlat => census_flat_alg1(&plan, &geom, intra_inter, me),
        Algo::DoubleRing => census_dr_alg1(&plan, &geom, shape, intra_inter, me),
        Algo::BurstFlat | Algo::BurstTopo => census_dr_alg2(&plan, &geom, shape, intra_inter, me),
    })
}

/// `(nodes, gpus_per_node)` of the ring `algo` runs on: the cluster's for
/// the topology-aware algorithms, one level of `G` slots for the flat ones.
pub(crate) fn ring_shape(cluster: &Cluster, algo: Algo) -> (usize, usize) {
    match algo {
        Algo::RingFlat | Algo::BurstFlat => (1, cluster.world()),
        Algo::DoubleRing | Algo::BurstTopo => (cluster.nodes, cluster.gpus_per_node),
    }
}

/// Mask-aware [`exact_wire_counts_dtype`]: aggregate the per-rank masked
/// censuses over the whole cluster and convert elements to bytes (matrix
/// payloads at `dtype`, statistics vectors always f32).
#[allow(clippy::too_many_arguments)]
pub fn exact_wire_counts_masked_dtype(
    cluster: &Cluster,
    seq_len: usize,
    d: usize,
    algo: Algo,
    dtype: WireDtype,
    mask: &AttnMask,
    layout: Layout,
    max_token: Option<usize>,
    skip: bool,
) -> MaskedWireCounts {
    let g = cluster.world();
    let total = (0..g).fold(MaskedWire::default(), |acc, me| {
        acc.add(&masked_wire_rank(
            cluster, seq_len, d, algo, mask, layout, max_token, skip, me,
        ))
    });
    let width = dtype.width();
    MaskedWireCounts {
        counts: WireCounts {
            intra_msgs: total.intra_msgs,
            inter_msgs: total.inter_msgs,
            intra_bytes: total.intra_mat_elems as f64 * width + total.intra_vec_elems as f64 * 4.0,
            inter_bytes: total.inter_mat_elems as f64 * width + total.inter_vec_elems as f64 * 4.0,
        },
        rounds_skipped: total.rounds_skipped,
        skipped_bytes: total.skipped_mat_elems as f64 * width
            + total.skipped_vec_elems as f64 * 4.0,
    }
}

/// Exact retransmit census of a (possibly faulty) run under the reliable
/// transport.
///
/// The transport bills every *physical* attempt after the first into the
/// simulator's `retrans_msgs`/`retrans_bytes` counters, while the clean
/// message counters stay byte-for-byte what a fault-free run records. That
/// split is what keeps the measured-vs-analytic comm gate exact with
/// faults on: the analytic side stays [`WireCounts`] (the schedule's
/// clean census), and the *reliability overhead* is this census — so
///
/// ```text
/// measured wire bytes == WireCounts::bytes() + RetransCensus::bytes
/// ```
///
/// holds exactly, not approximately, for any seeded transient fault plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RetransCensus {
    /// Retransmitted physical messages (attempts beyond the first).
    pub msgs: u64,
    /// Bytes those attempts put on the wire.
    pub bytes: f64,
}

impl RetransCensus {
    /// Extract the retransmit share of one rank's [`CommStats`].
    pub fn from_stats(stats: &CommStats) -> Self {
        RetransCensus {
            msgs: stats.retrans_msgs,
            bytes: stats.retrans_bytes,
        }
    }

    /// Aggregate the census over all ranks of a run.
    pub fn from_run(stats: &[CommStats]) -> Self {
        stats.iter().fold(RetransCensus::default(), |mut c, s| {
            c.msgs += s.retrans_msgs;
            c.bytes += s.retrans_bytes;
            c
        })
    }

    /// A clean run (or one where every fault was outside the wire path)
    /// retransmits nothing.
    pub fn is_clean(&self) -> bool {
        self.msgs == 0 && self.bytes == 0.0
    }

    /// Total bytes the reliable run put on the wire: the schedule's clean
    /// census plus every retransmitted attempt. Matches
    /// `CommStats::wire_bytes_with_retrans()` summed over ranks exactly.
    pub fn reliable_wire_bytes(&self, clean: &WireCounts) -> f64 {
        clean.bytes() + self.bytes
    }

    /// Fractional byte overhead of reliability over the clean census
    /// (`0.0` for a clean run; `0.10` means 10 % extra wire bytes).
    pub fn overhead_fraction(&self, clean: &WireCounts) -> f64 {
        if clean.bytes() == 0.0 {
            0.0
        } else {
            self.bytes / clean.bytes()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> Cluster {
        Cluster::a800(4, 8)
    }

    #[test]
    fn partition_bytes_formula() {
        // 1M tokens, 5120 dims, 32 GPUs, bf16.
        let p = partition_bytes(1 << 20, 5120, 32);
        assert_eq!(p, (1 << 20) as f64 / 32.0 * 5120.0 * 2.0);
    }

    #[test]
    fn burst_is_fastest_multi_node() {
        let t = layer_comm_times(&cluster(), 1 << 20, 5120);
        assert!(
            t.burst < t.double_ring,
            "burst {} < double {}",
            t.burst,
            t.double_ring
        );
        assert!(
            t.double_ring < t.ring,
            "double {} < ring {}",
            t.double_ring,
            t.ring
        );
    }

    #[test]
    fn single_node_all_collapse_to_nvlink() {
        // With one node the NIC terms vanish and burst/ring differ only by
        // the 5-vs-6 unit count.
        let c = Cluster::a800(1, 8);
        let t = layer_comm_times(&c, 1 << 18, 4096);
        let ratio = t.burst / t.ring;
        assert!((ratio - 5.0 / 6.0).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn flat_ring_is_gated_by_the_nic() {
        let c = cluster();
        let p = partition_bytes(1 << 20, 5120, c.world());
        let t = comm_times(&c, p);
        let g = c.world() as f64;
        assert!((t.ring - 6.0 * g * c.nic.transfer_time(p)).abs() < 1e-9);
    }

    #[test]
    fn burst_advantage_grows_with_node_count() {
        let seq = 1 << 20;
        let r2 = {
            let t = layer_comm_times(&Cluster::a800(2, 8), seq, 5120);
            t.ring / t.burst
        };
        let r8 = {
            let t = layer_comm_times(&Cluster::a800(8, 8), seq, 5120);
            t.ring / t.burst
        };
        assert!(
            r8 >= r2,
            "advantage should not shrink: 2 nodes {r2}, 8 nodes {r8}"
        );
    }

    #[test]
    fn exact_census_matches_hand_count() {
        // 2 nodes × 2 GPUs, 8 tokens, d = 4: m = 2 rows, f32 Mat = 32 bytes.
        let c = Cluster::a800(2, 2);
        let w = exact_wire_counts_dtype(&c, 8, 4, Algo::RingFlat, WireDtype::F32);
        // Per rank 2·3 fwd + 4·4 bwd = 22 Mat hops; 2 of 4 edges are inter.
        assert_eq!(w.inter_msgs, 2 * 22);
        assert_eq!(w.intra_msgs, 2 * 22);
        assert_eq!(w.inter_bytes, 44.0 * 32.0);

        let w = exact_wire_counts_dtype(&c, 8, 4, Algo::BurstFlat, WireDtype::F32);
        // Per rank 2·3 fwd + 2·3 read-only + 4 ∇Q = 16 Mat hops and 2·3 Vec
        // hops (Vec = 2 rows · 4 bytes), on the same edges as the flat ring.
        assert_eq!(w.inter_msgs, 2 * 22);
        assert_eq!(w.intra_msgs, 2 * 22);
        assert_eq!(w.inter_bytes, 2.0 * (16.0 * 32.0 + 6.0 * 8.0));

        let w = exact_wire_counts_dtype(&c, 8, 4, Algo::DoubleRing, WireDtype::F32);
        // Per rank inter: 6·1 + 2 completion = 8; intra: 6·2·1 + 2·(2%2) = 12.
        assert_eq!(w.inter_msgs, 4 * 8);
        assert_eq!(w.intra_msgs, 4 * 12);

        let w = exact_wire_counts_dtype(&c, 8, 4, Algo::BurstTopo, WireDtype::F32);
        // Per rank inter: 4 Mat read-only + 2 Vec + 2 ∇Q; intra: 8 Mat
        // read-only + 4 Vec + 2 ∇Q. Vec = 2 rows · 4 bytes.
        assert_eq!(w.inter_msgs, 4 * 8);
        assert_eq!(w.intra_msgs, 4 * 14);
        assert_eq!(w.inter_bytes, 4.0 * (6.0 * 32.0 + 2.0 * 8.0));
    }

    #[test]
    fn bf16_wire_halves_mat_bytes_but_not_vec_bytes() {
        let c = Cluster::a800(2, 2);
        for method in [Algo::RingFlat, Algo::DoubleRing] {
            // Mat-only methods: total bytes halve exactly.
            let f = exact_wire_counts_dtype(&c, 8, 4, method, WireDtype::F32);
            let h = exact_wire_counts_dtype(&c, 8, 4, method, WireDtype::Bf16);
            assert_eq!(h.bytes() * 2.0, f.bytes(), "{method:?}");
            assert_eq!(h.msgs(), f.msgs(), "{method:?}: census counts messages");
        }
        // Burst also ships f32 statistics vectors, so the halving applies
        // only to the Mat share: Bf16 Mat = 2·4·2 = 16 B, Vec stays 8 B.
        let h = exact_wire_counts_dtype(&c, 8, 4, Algo::BurstTopo, WireDtype::Bf16);
        assert_eq!(h.inter_bytes, 4.0 * (6.0 * 16.0 + 2.0 * 8.0));
    }

    #[test]
    fn exact_burst_moves_fewest_bytes() {
        let c = cluster();
        let ring = exact_wire_counts_dtype(&c, 1 << 16, 128, Algo::RingFlat, WireDtype::F32);
        let double = exact_wire_counts_dtype(&c, 1 << 16, 128, Algo::DoubleRing, WireDtype::F32);
        let burst = exact_wire_counts_dtype(&c, 1 << 16, 128, Algo::BurstTopo, WireDtype::F32);
        assert!(burst.bytes() < double.bytes());
        assert!(burst.bytes() < ring.bytes());
        assert!(burst.secs(&c) < double.secs(&c));
    }

    #[test]
    fn exact_census_single_node_has_no_inter_traffic() {
        let c = Cluster::a800(1, 8);
        for method in [
            Algo::RingFlat,
            Algo::BurstFlat,
            Algo::DoubleRing,
            Algo::BurstTopo,
        ] {
            let w = exact_wire_counts_dtype(&c, 1 << 12, 64, method, WireDtype::F32);
            assert_eq!(w.inter_msgs, 0, "{method:?}");
            assert_eq!(w.inter_bytes, 0.0, "{method:?}");
            assert!(w.intra_msgs > 0, "{method:?}");
        }
    }

    #[test]
    fn exact_census_single_rank_is_silent() {
        let c = Cluster::a800(1, 1);
        for method in [
            Algo::RingFlat,
            Algo::BurstFlat,
            Algo::DoubleRing,
            Algo::BurstTopo,
        ] {
            assert_eq!(
                exact_wire_counts_dtype(&c, 64, 8, method, WireDtype::F32).msgs(),
                0
            );
        }
    }

    #[test]
    fn retrans_census_accounts_reliable_overhead_exactly() {
        use burst_comm::{FaultPlan, Topology, World};
        // Two ranks, one uniform 16-element f32 message per step: every
        // retransmitted attempt re-ships exactly 64 bytes.
        let steps = 8usize;
        let run = |plan: Option<FaultPlan>| {
            let topo = Topology::single_node(2);
            let world = match plan {
                Some(p) => World::with_faults(topo, p),
                None => World::new(topo),
            };
            world.run(|comm| {
                let v: Vec<f32> = (0..16).map(|i| (comm.rank() * 100 + i) as f32).collect();
                for _ in 0..steps {
                    if comm.rank() == 0 {
                        comm.try_send_vec(1, &v).expect("send");
                    } else {
                        comm.try_recv_vec(0).expect("recv");
                    }
                }
            })
        };
        let clean = run(None);
        let faulty = run(Some(
            FaultPlan::new(7)
                .drop_burst(0, 1, 2, 2)
                .flap_link(0, 1, 0.0, 1e-4)
                .reliable(),
        ));
        let census = RetransCensus::from_run(&faulty.iter().map(|o| o.stats).collect::<Vec<_>>());
        assert!(!census.is_clean(), "the plan must actually retransmit");
        // Clean counters are untouched by healing: byte-for-byte equal to
        // the fault-free run, so the census is precisely the overhead.
        let clean_bytes: f64 = clean.iter().map(|o| o.stats.total_bytes()).sum();
        let faulty_clean_bytes: f64 = faulty.iter().map(|o| o.stats.total_bytes()).sum();
        assert_eq!(faulty_clean_bytes, clean_bytes);
        let with_retrans: f64 = faulty
            .iter()
            .map(|o| o.stats.wire_bytes_with_retrans())
            .sum();
        assert_eq!(with_retrans, clean_bytes + census.bytes);
        // Uniform payloads: retransmitted bytes are an exact multiple.
        assert_eq!(census.bytes, census.msgs as f64 * 64.0);
        let retransmits: u64 = faulty.iter().map(|o| o.faults.retransmits).sum();
        assert_eq!(census.msgs, retransmits);
        // And the WireCounts-based closed form agrees.
        let wc = WireCounts {
            intra_msgs: steps as u64,
            inter_msgs: 0,
            intra_bytes: clean_bytes,
            inter_bytes: 0.0,
        };
        assert_eq!(census.reliable_wire_bytes(&wc), with_retrans);
        assert!(census.overhead_fraction(&wc) > 0.0);
    }

    #[test]
    fn retrans_census_is_clean_without_faults() {
        let c = RetransCensus::from_stats(&CommStats::default());
        assert!(c.is_clean());
        let w = WireCounts::default();
        assert_eq!(c.overhead_fraction(&w), 0.0);
        assert_eq!(c.reliable_wire_bytes(&w), 0.0);
    }

    #[test]
    fn masked_census_skip_off_reproduces_dense_census() {
        // With skipping off the plan is dense and every gate is forced
        // open, so the masked census must equal the closed forms exactly —
        // for any mask, any layout, both wire dtypes.
        let c = Cluster::a800(2, 3);
        let masks = [
            AttnMask::Full,
            AttnMask::Causal,
            AttnMask::SlidingWindow { window: 7 },
        ];
        for method in [
            Algo::RingFlat,
            Algo::BurstFlat,
            Algo::DoubleRing,
            Algo::BurstTopo,
        ] {
            for dtype in [WireDtype::F32, WireDtype::Bf16] {
                let dense = exact_wire_counts_dtype(&c, 48, 8, method, dtype);
                for mask in &masks {
                    for layout in [Layout::Contiguous, Layout::Zigzag] {
                        let m = exact_wire_counts_masked_dtype(
                            &c, 48, 8, method, dtype, mask, layout, None, false,
                        );
                        assert_eq!(m.counts, dense, "{method:?} {mask:?} {layout:?}");
                        assert_eq!(m.rounds_skipped, 0, "{method:?} {mask:?}");
                        assert_eq!(m.skipped_bytes, 0.0, "{method:?} {mask:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn masked_census_full_mask_skips_nothing() {
        // Under Full every tile is live, so even with skipping on the
        // gated schedule is the dense schedule (the flat Algorithm 1
        // homecoming being the one documented exception, on by the dense
        // flag only — Full + skip uses live gates and those are all-true,
        // so the monotone futures ranges still fire every hop).
        let c = Cluster::a800(2, 2);
        for method in [Algo::DoubleRing, Algo::BurstTopo] {
            let dense = exact_wire_counts_dtype(&c, 32, 8, method, WireDtype::F32);
            let m = exact_wire_counts_masked_dtype(
                &c,
                32,
                8,
                method,
                WireDtype::F32,
                &AttnMask::Full,
                Layout::Zigzag,
                None,
                true,
            );
            assert_eq!(m.counts, dense, "{method:?}");
            assert_eq!(m.rounds_skipped, 0, "{method:?}");
        }
    }

    #[test]
    fn masked_census_duals_to_dense() {
        // Whatever the gates keep off the wire is billed to the skip dual:
        // actual + skipped == dense, byte-for-byte, for every cell.
        let c = Cluster::a800(2, 3);
        let masks = [
            AttnMask::Causal,
            AttnMask::SlidingWindow { window: 9 },
            AttnMask::Dilated { window: 9, step: 2 },
        ];
        for method in [
            Algo::RingFlat,
            Algo::BurstFlat,
            Algo::DoubleRing,
            Algo::BurstTopo,
        ] {
            for dtype in [WireDtype::F32, WireDtype::Bf16] {
                let dense = exact_wire_counts_dtype(&c, 48, 8, method, dtype);
                for mask in &masks {
                    let m = exact_wire_counts_masked_dtype(
                        &c,
                        48,
                        8,
                        method,
                        dtype,
                        mask,
                        Layout::Contiguous,
                        None,
                        true,
                    );
                    assert_eq!(
                        m.dense_bytes(),
                        dense.bytes(),
                        "{method:?} {mask:?} {dtype:?}"
                    );
                    assert!(
                        m.counts.msgs() <= dense.msgs(),
                        "{method:?} {mask:?}: gating cannot add messages"
                    );
                }
            }
        }
    }

    #[test]
    fn masked_census_window_on_contiguous_saves_wire() {
        // A narrow window on the contiguous layout leaves most remote
        // tiles fully masked: rounds disappear and bytes move to the dual.
        let c = Cluster::a800(2, 3);
        let mask = AttnMask::SlidingWindow { window: 8 };
        for method in [
            Algo::RingFlat,
            Algo::BurstFlat,
            Algo::DoubleRing,
            Algo::BurstTopo,
        ] {
            let dense = exact_wire_counts_dtype(&c, 48, 8, method, WireDtype::F32);
            let m = exact_wire_counts_masked_dtype(
                &c,
                48,
                8,
                method,
                WireDtype::F32,
                &mask,
                Layout::Contiguous,
                None,
                true,
            );
            assert!(m.rounds_skipped > 0, "{method:?}: no rounds skipped");
            assert!(m.skipped_bytes > 0.0, "{method:?}: no bytes saved");
            assert!(
                m.counts.bytes() < dense.bytes(),
                "{method:?}: wire bytes must shrink"
            );
        }
        // Zigzag under the same window balances compute instead: (almost)
        // every rank pair stays live, so the savings collapse.
        let zig = exact_wire_counts_masked_dtype(
            &c,
            48,
            8,
            Algo::BurstTopo,
            WireDtype::F32,
            &mask,
            Layout::Zigzag,
            None,
            true,
        );
        let con = exact_wire_counts_masked_dtype(
            &c,
            48,
            8,
            Algo::BurstTopo,
            WireDtype::F32,
            &mask,
            Layout::Contiguous,
            None,
            true,
        );
        assert!(con.skipped_bytes > zig.skipped_bytes);
    }

    #[test]
    fn masked_census_per_rank_sums_to_aggregate() {
        let c = Cluster::a800(2, 2);
        let mask = AttnMask::SlidingWindow { window: 8 };
        for method in [
            Algo::RingFlat,
            Algo::BurstFlat,
            Algo::DoubleRing,
            Algo::BurstTopo,
        ] {
            let agg = exact_wire_counts_masked_dtype(
                &c,
                32,
                8,
                method,
                WireDtype::F32,
                &mask,
                Layout::Contiguous,
                None,
                true,
            );
            let by_rank = (0..c.world()).fold(MaskedWire::default(), |acc, me| {
                acc.add(&masked_wire_rank(
                    &c,
                    32,
                    8,
                    method,
                    &mask,
                    Layout::Contiguous,
                    None,
                    true,
                    me,
                ))
            });
            assert_eq!(agg.counts.msgs(), by_rank.msgs(), "{method:?}");
            assert_eq!(agg.rounds_skipped, by_rank.rounds_skipped, "{method:?}");
            assert_eq!(
                agg.counts.bytes(),
                by_rank.mat_elems() as f64 * 4.0 + by_rank.vec_elems() as f64 * 4.0,
                "{method:?}"
            );
        }
    }

    #[test]
    fn times_scale_linearly_in_bytes_at_zero_latency() {
        let mut c = cluster();
        c.nvlink.latency = 0.0;
        c.nic.latency = 0.0;
        let t1 = comm_times(&c, 1e6);
        let t2 = comm_times(&c, 2e6);
        assert!((t2.ring / t1.ring - 2.0).abs() < 1e-9);
        assert!((t2.burst / t1.burst - 2.0).abs() < 1e-9);
    }
}
