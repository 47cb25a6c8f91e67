//! Sharded checkpoints (`BURSTCKPT v2`): the flat training state is split
//! into one payload file per rank plus a checksummed **manifest**, so that
//!
//! * checkpoint writes parallelize — each rank persists only its own slice
//!   of the state, instead of every rank (or one rank) serializing the full
//!   replica;
//! * restore-after-shrink is cheap — a survivor re-assembling an evicted
//!   rank's partition reads **only the shards that overlap the slice it
//!   needs**, and the loaders account every file they open so tests can
//!   assert exactly that;
//! * a torn checkpoint is impossible to observe: each rank stages its
//!   shard beside the published one, the committer publishes every staged
//!   shard by rename, and the manifest — which records every shard's length
//!   and FNV-1a checksum — is written **last**, as the commit point. A
//!   crash before the publish leaves only stale `*.tmp` droppings: the
//!   published shards and the manifest still describe the previous
//!   complete checkpoint, and the next successful commit sweeps the
//!   droppings.
//!
//! Layout on disk, for a world of `W` ranks:
//!
//! ```text
//! <dir>/shard-0.ckpt … <dir>/shard-{W-1}.ckpt   framed JSON Vec<f32>
//! <dir>/manifest.ckpt                           framed JSON ShardManifest
//! ```
//!
//! Shard `s` holds the half-open flat range [`shard_range`]`(flat_len, W,
//! s)` — the same `rows*s/W` split the FSDP layer uses, so shard sizes
//! differ by at most one element and every boundary is reproducible from
//! `(flat_len, W)` alone.

use crate::checkpoint_io::{atomic_write, decode_checkpoint, encode_checkpoint, fnv1a, tmp_path};
use crate::model::{Model, ModelConfig};
use std::io;
use std::path::{Path, PathBuf};

/// What the manifest records about one shard file: enough to detect a
/// missing, truncated, corrupted or mismatched (wrong-checkpoint) shard
/// before any state is loaded from it.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ShardMeta {
    /// Number of `f32` elements in the shard.
    pub elems: usize,
    /// FNV-1a checksum of the shard's serialized payload bytes, as the
    /// `0x`-prefixed hex string [`fnv_hex`] produces (JSON numbers cannot
    /// carry full 64-bit precision).
    pub fnv: String,
}

/// Render a checksum the way shard manifests record it.
pub fn fnv_hex(h: u64) -> String {
    format!("{h:#018x}")
}

/// The checkpoint's commit record: written last, after every shard file is
/// in place. Restoring starts here; a directory whose manifest is missing
/// or stale simply describes the previous complete checkpoint.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ShardManifest {
    /// Global step the checkpoint was taken at (next step to run).
    pub step: u64,
    /// Membership epoch of the writers (0 until a rank is evicted).
    pub epoch: u64,
    /// World size the state was sharded over.
    pub world_size: usize,
    /// Total `f32` elements across all shards.
    pub flat_len: usize,
    /// Model architecture, so a reader can rebuild a replica to load into.
    pub cfg: ModelConfig,
    /// Per-step mean losses recorded so far.
    pub losses: Vec<f32>,
    /// One entry per shard, indexed by rank.
    pub shards: Vec<ShardMeta>,
}

/// `<dir>/manifest.ckpt`.
pub fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("manifest.ckpt")
}

/// `<dir>/shard-<s>.ckpt`.
pub fn shard_path(dir: &Path, s: usize) -> PathBuf {
    dir.join(format!("shard-{s}.ckpt"))
}

/// Half-open flat range `[lo, hi)` owned by shard `s` of `world` — the
/// FSDP split: sizes differ by at most one element.
pub fn shard_range(flat_len: usize, world: usize, s: usize) -> (usize, usize) {
    assert!(s < world, "shard_range: shard {s} of world {world}");
    (flat_len * s / world, flat_len * (s + 1) / world)
}

fn invalid(detail: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail)
}

/// The manifest entry shard `s` would get — computed from the flat state
/// alone, without touching disk. Because training replicas are
/// bit-identical, the manifest writer can derive **every** shard's metadata
/// from its own state while the other ranks write their shard files in
/// parallel.
pub fn shard_meta(flat: &[f32], world: usize, s: usize) -> io::Result<ShardMeta> {
    let (lo, hi) = shard_range(flat.len(), world, s);
    let payload = serde_json::to_vec(&flat[lo..hi])
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Ok(ShardMeta {
        elems: hi - lo,
        fnv: fnv_hex(fnv1a(&payload)),
    })
}

/// Stage shard `s`'s slice of the flat state at the shard file's
/// [`tmp_path`], leaving the published shard untouched until
/// [`publish_shard`]. Returns the metadata the manifest must record for
/// this shard.
pub(crate) fn stage_shard(
    dir: &Path,
    s: usize,
    world: usize,
    flat: &[f32],
) -> io::Result<ShardMeta> {
    let (lo, hi) = shard_range(flat.len(), world, s);
    let payload = serde_json::to_vec(&flat[lo..hi])
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    std::fs::write(tmp_path(&shard_path(dir, s)), encode_checkpoint(&payload))?;
    Ok(ShardMeta {
        elems: hi - lo,
        fnv: fnv_hex(fnv1a(&payload)),
    })
}

/// Publish shard `s`'s staged file by an atomic rename over the shard file.
pub(crate) fn publish_shard(dir: &Path, s: usize) -> io::Result<()> {
    let path = shard_path(dir, s);
    std::fs::rename(tmp_path(&path), path)
}

/// Write shard `s`'s slice of the flat state atomically: stage it, then
/// publish it. Returns the metadata the manifest must record for this
/// shard.
pub fn write_shard(dir: &Path, s: usize, world: usize, flat: &[f32]) -> io::Result<ShardMeta> {
    let meta = stage_shard(dir, s, world, flat)?;
    publish_shard(dir, s)?;
    Ok(meta)
}

/// Remove stale `*.tmp` staging files left behind by a crash mid-write.
/// Called by [`write_manifest`] at commit time; safe to call any time — a
/// `.tmp` file is only ever an unpublished write in progress by *this*
/// checkpoint directory's single writer group.
pub fn clean_stale_tmp(dir: &Path) -> io::Result<usize> {
    let mut removed = 0;
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "tmp") {
            std::fs::remove_file(&path)?;
            removed += 1;
        }
    }
    Ok(removed)
}

/// Commit the checkpoint: sweep stale staging files, then atomically
/// publish the manifest. Every shard file must already be in place — in
/// distributed use, the leader publishes the staged shards and calls this
/// only after a barrier confirms all ranks staged theirs.
pub fn write_manifest(dir: &Path, man: &ShardManifest) -> io::Result<()> {
    clean_stale_tmp(dir)?;
    let payload =
        serde_json::to_vec(man).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    atomic_write(&manifest_path(dir), &encode_checkpoint(&payload))
}

/// Read and validate the manifest.
pub fn read_manifest(dir: &Path) -> io::Result<ShardManifest> {
    let bytes = std::fs::read(manifest_path(dir))?;
    let payload = decode_checkpoint(&bytes)?;
    let man: ShardManifest = serde_json::from_slice(payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    if man.shards.len() != man.world_size {
        return Err(invalid(format!(
            "manifest lists {} shards for world size {}",
            man.shards.len(),
            man.world_size
        )));
    }
    let total: usize = man.shards.iter().map(|m| m.elems).sum();
    if total != man.flat_len {
        return Err(invalid(format!(
            "manifest shard sizes sum to {total}, flat_len says {}",
            man.flat_len
        )));
    }
    Ok(man)
}

/// Read shard `s`, validating its frame *and* cross-checking it against the
/// manifest's recorded length and checksum — a shard left over from a
/// different checkpoint generation is rejected even if internally intact.
pub fn read_shard(dir: &Path, s: usize, man: &ShardManifest) -> io::Result<Vec<f32>> {
    let meta = &man.shards[s];
    let bytes = std::fs::read(shard_path(dir, s))?;
    let payload = decode_checkpoint(&bytes)?;
    let got = fnv_hex(fnv1a(payload));
    if got != meta.fnv {
        return Err(invalid(format!(
            "shard {s} does not match the manifest: fnv {got} vs recorded {}",
            meta.fnv
        )));
    }
    let data: Vec<f32> = serde_json::from_slice(payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    if data.len() != meta.elems {
        return Err(invalid(format!(
            "shard {s} holds {} elements, manifest records {}",
            data.len(),
            meta.elems
        )));
    }
    Ok(data)
}

/// Read the flat range `[lo, hi)`, opening **only** the shard files that
/// overlap it. Returns the data and the number of shard files read — the
/// IO-accounting hook elastic recovery tests assert on.
pub fn read_flat_range(
    dir: &Path,
    man: &ShardManifest,
    lo: usize,
    hi: usize,
) -> io::Result<(Vec<f32>, usize)> {
    assert!(lo <= hi && hi <= man.flat_len, "read_flat_range: bad range");
    let mut out = Vec::with_capacity(hi - lo);
    let mut files_read = 0;
    for s in 0..man.world_size {
        let (slo, shi) = shard_range(man.flat_len, man.world_size, s);
        if shi <= lo || slo >= hi {
            continue;
        }
        let data = read_shard(dir, s, man)?;
        files_read += 1;
        let a = lo.max(slo);
        let b = hi.min(shi);
        out.extend_from_slice(&data[a - slo..b - slo]);
    }
    Ok((out, files_read))
}

/// Read the complete flat state (every shard, in rank order).
pub fn read_full_state(dir: &Path, man: &ShardManifest) -> io::Result<(Vec<f32>, usize)> {
    read_flat_range(dir, man, 0, man.flat_len)
}

/// Single-writer convenience: shard the model's full state over
/// `world_size` files and commit the manifest. In distributed training each
/// rank instead stages its own shard and the leader publishes them all
/// before [`write_manifest`].
pub fn save_sharded(
    model: &Model,
    dir: &Path,
    world_size: usize,
    step: u64,
    epoch: u64,
    losses: &[f32],
) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let flat = model.flat_state();
    let mut shards = Vec::with_capacity(world_size);
    for s in 0..world_size {
        shards.push(write_shard(dir, s, world_size, &flat)?);
    }
    write_manifest(
        dir,
        &ShardManifest {
            step,
            epoch,
            world_size,
            flat_len: flat.len(),
            cfg: model.cfg,
            losses: losses.to_vec(),
            shards,
        },
    )
}

/// Restore a full model replica from a sharded checkpoint. Returns the
/// model, the manifest, and how many shard files were read (always all of
/// them here — partial restore goes through [`read_flat_range`]).
///
/// The replica is rebuilt from the manifest's [`ModelConfig`] and then every
/// weight, gradient and Adam moment is overwritten from the shards, so the
/// construction seed is irrelevant.
pub fn load_sharded(dir: &Path) -> io::Result<(Model, ShardManifest, usize)> {
    let man = read_manifest(dir)?;
    let mut model = Model::new(man.cfg, 0);
    if model.flat_state_len() != man.flat_len {
        return Err(invalid(format!(
            "manifest flat_len {} does not fit cfg (expected {})",
            man.flat_len,
            model.flat_state_len()
        )));
    }
    let (flat, files_read) = read_full_state(dir, &man)?;
    model.load_flat_state(&flat);
    Ok((model, man, files_read))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::LocalExec;
    use crate::checkpoint::Strategy;
    use crate::model::{Model, ModelConfig};
    use crate::param::AdamCfg;
    use burst_kernels::AttnMask;

    fn trained_model(seed: u64, steps: u64) -> Model {
        let cfg = ModelConfig::tiny();
        let mut m = Model::new(cfg, seed);
        let tokens: Vec<usize> = (0..cfg.seq_len).map(|i| (i * 3 + 1) % cfg.vocab).collect();
        let targets: Vec<usize> = tokens.iter().map(|&t| (t + 1) % cfg.vocab).collect();
        let mut exec = LocalExec::new(AttnMask::Causal, cfg.seq_len);
        for t in 1..=steps {
            m.zero_grads();
            m.train_step(&tokens, &targets, &mut exec, Strategy::None, cfg.seq_len);
            m.adam_step(&AdamCfg::default(), t);
        }
        m
    }

    fn tdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("burstengine-shard-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn flat_state_roundtrips_bit_exactly() {
        let m = trained_model(40, 2);
        let flat = m.flat_state();
        assert_eq!(flat.len(), m.flat_state_len());
        let mut fresh = Model::new(m.cfg, 12345);
        fresh.load_flat_state(&flat);
        assert_eq!(fresh.flat_state(), flat);
        assert_eq!(fresh.head.w, m.head.w);
        assert_eq!(fresh.embed.table.grad, m.embed.table.grad);
    }

    #[test]
    fn sharded_save_and_load_roundtrip() {
        let m = trained_model(41, 2);
        let dir = tdir("roundtrip");
        save_sharded(&m, &dir, 4, 7, 0, &[1.5, 1.2]).unwrap();
        let (loaded, man, files_read) = load_sharded(&dir).unwrap();
        assert_eq!(man.step, 7);
        assert_eq!(man.world_size, 4);
        assert_eq!(man.losses, vec![1.5, 1.2]);
        assert_eq!(files_read, 4);
        assert_eq!(loaded.flat_state(), m.flat_state());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_restore_reads_only_overlapping_shards() {
        let m = trained_model(42, 1);
        let dir = tdir("partial");
        save_sharded(&m, &dir, 4, 3, 0, &[]).unwrap();
        let man = read_manifest(&dir).unwrap();
        let flat = m.flat_state();
        // A slice inside shard 1 only.
        let (lo, hi) = shard_range(man.flat_len, 4, 1);
        let mid = (lo + hi) / 2;
        let (data, files) = read_flat_range(&dir, &man, lo + 1, mid).unwrap();
        assert_eq!(files, 1, "slice within one shard must read one file");
        assert_eq!(data, flat[lo + 1..mid]);
        // A slice spanning the 1/2 boundary.
        let (_, bhi) = shard_range(man.flat_len, 4, 2);
        let (data, files) = read_flat_range(&dir, &man, mid, bhi - 1).unwrap();
        assert_eq!(files, 2, "boundary-spanning slice must read two files");
        assert_eq!(data, flat[mid..bhi - 1]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_rejects_mismatched_shard() {
        let m = trained_model(43, 1);
        let dir = tdir("mismatch");
        save_sharded(&m, &dir, 2, 1, 0, &[]).unwrap();
        // Overwrite shard 1 with a validly-framed but different payload —
        // as a crash between shard writes of two generations could leave.
        let other = trained_model(99, 1);
        write_shard(&dir, 1, 2, &other.flat_state()).unwrap();
        let err = load_sharded(&dir).unwrap_err();
        assert!(
            err.to_string().contains("does not match the manifest"),
            "got: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn commit_sweeps_stale_tmp_and_previous_checkpoint_survives_a_torn_write() {
        let m = trained_model(44, 1);
        let dir = tdir("torn");
        save_sharded(&m, &dir, 2, 5, 0, &[0.9]).unwrap();
        // A later checkpoint attempt dies mid-shard-write: garbage staging
        // file, no manifest update.
        std::fs::write(shard_path(&dir, 0).with_extension("ckpt.tmp"), b"junk").unwrap();
        let (loaded, man, _) = load_sharded(&dir).unwrap();
        assert_eq!(man.step, 5, "manifest still describes the old checkpoint");
        assert_eq!(loaded.flat_state(), m.flat_state());
        // The next successful commit sweeps the dropping.
        save_sharded(&m, &dir, 2, 6, 0, &[0.9, 0.8]).unwrap();
        let stale: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .is_some_and(|x| x == "tmp")
            })
            .collect();
        assert!(stale.is_empty(), "commit must sweep stale .tmp files");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_ranges_tile_the_state() {
        for flat_len in [0usize, 1, 7, 100, 101] {
            for world in 1..=5 {
                let mut expect = 0;
                for s in 0..world {
                    let (lo, hi) = shard_range(flat_len, world, s);
                    assert_eq!(lo, expect);
                    expect = hi;
                }
                assert_eq!(expect, flat_len);
            }
        }
    }
}
