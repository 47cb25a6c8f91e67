//! Regenerates (and pins) the README's "wire bytes saved by mask-aware
//! round skipping" table at the paper-scale 1M-token configuration.
//!
//! The table in README.md is this test's output: run
//!
//! ```text
//! cargo test -p burst-perf --test readme_savings -- --nocapture
//! ```
//!
//! and paste the printed markdown. The assertions keep the README honest —
//! every row must save bytes on every schedule, and actual traffic plus the
//! saved dual must reconstruct the dense census exactly.

use burst_comm::WireDtype;
use burst_dattn::{Algo, Layout};
use burst_kernels::{AttnMask, BlockSparseMask};
use burst_perf::{exact_wire_counts_dtype, exact_wire_counts_masked_dtype, Cluster};

/// The README configuration: 1Mi tokens on 4 nodes × 8 GPUs, head dim
/// 128, bf16 wire payloads, on the contiguous layout (whole shards skip)
/// and on zigzag (16Ki-token chunks, whole kernel tiles, so the span gates
/// drop the chunk no downstream consumer reads).
const SEQ: usize = 1 << 20;
const D: usize = 128;
const NODES: usize = 4;
const GPN: usize = 8;

/// Deterministic random block-sparse pattern (xorshift64, ~25 %
/// off-diagonal density, diagonal always allowed) at 32Ki-token blocks —
/// the same generator the verification matrix uses, scaled up.
fn block_sparse_1m() -> AttnMask {
    let block = 1 << 15;
    let nblocks = SEQ.div_ceil(block);
    let mut s = 7u64 | 1;
    let mut allowed = vec![false; nblocks * nblocks];
    for bi in 0..nblocks {
        for bj in 0..nblocks {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            allowed[bi * nblocks + bj] = bi == bj || (s >> 33) & 3 == 0;
        }
    }
    AttnMask::BlockSparse(BlockSparseMask::new(block, nblocks, allowed))
}

#[test]
fn readme_wire_savings_table_at_1m_tokens() {
    let cluster = Cluster::a800(NODES, GPN);
    let masks = [
        ("causal", AttnMask::Causal),
        (
            "sliding-window 64Ki",
            AttnMask::SlidingWindow { window: 1 << 16 },
        ),
        (
            "dilated 128Ki/4",
            AttnMask::Dilated {
                window: 1 << 17,
                step: 4,
            },
        ),
        ("block-sparse 32Ki (seed 7)", block_sparse_1m()),
    ];
    let methods = [
        ("ring", Algo::RingFlat),
        ("double_ring", Algo::DoubleRing),
        ("burst", Algo::BurstTopo),
    ];

    println!("| mask | layout | ring | double_ring | burst |");
    println!("|---|---|---|---|---|");
    for (mask_name, mask) in &masks {
        for layout in [Layout::Contiguous, Layout::Zigzag] {
            let mut cells = Vec::new();
            for (_, method) in methods {
                let dense = exact_wire_counts_dtype(&cluster, SEQ, D, method, WireDtype::Bf16);
                let dense_bytes = dense.intra_bytes + dense.inter_bytes;
                let got = exact_wire_counts_masked_dtype(
                    &cluster,
                    SEQ,
                    D,
                    method,
                    WireDtype::Bf16,
                    mask,
                    layout,
                    None,
                    true,
                );
                // The dual reconstructs the dense census to the byte.
                assert_eq!(
                    got.counts.intra_bytes + got.counts.inter_bytes + got.skipped_bytes,
                    dense_bytes,
                    "{mask_name}: skipped dual does not reconstruct the dense census"
                );
                // Every mask saves — causal included: on the contiguous layout
                // a rank's keys are entirely in the future of every earlier
                // rank's queries, so whole rounds go, and on zigzag a shard's
                // late chunk is in the future of every later rank's queries,
                // so no hop past those ranks carries it.
                if layout == Layout::Contiguous {
                    assert!(got.rounds_skipped > 0, "{mask_name}: no rounds skipped");
                }
                assert!(
                    got.skipped_bytes > 0.0,
                    "{mask_name} {layout:?}: no bytes saved"
                );
                cells.push(format!(
                    "{:.1} GB ({:.0} %)",
                    got.skipped_bytes / 1e9,
                    100.0 * got.skipped_bytes / dense_bytes
                ));
            }
            println!("| {mask_name} | {layout:?} | {} |", cells.join(" | "));
        }
    }
}
