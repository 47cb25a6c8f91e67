//! Bitwise determinism of the parallel kernels across thread counts.
//!
//! The parallel schedules in `flash.rs` and `lmhead.rs` decompose work into
//! *fixed* row/vocab blocks whose per-destination accumulation order never
//! depends on how many workers execute them, so the results must be
//! bit-identical — not merely close — to the serial path at any
//! `RAYON_NUM_THREADS`. These tests sweep 1, 2, and 8 threads over every
//! mask kind and compare outputs with `f32::to_bits`.
//!
//! The rayon shim re-reads `RAYON_NUM_THREADS` on every call, which is what
//! lets a single process sweep thread counts. The variable is process-global
//! state, so everything runs inside one `#[test]` to keep the sweeps from
//! racing each other under the default parallel test harness.
//!
//! Both comparisons above are relative: a rewrite that moved the SIMD and
//! the scalar path together, at every thread count, would pass them. So
//! [`kernel_bits_match_pinned_digests`] also holds the kernels' output
//! bits to FNV-1a digests recorded from a known-good build.

use burst_kernels::{
    attn_tile_backward, attn_tile_backward_acc, flash_backward, flash_forward, flash_forward_acc,
    fused_lm_loss, AttnMask, BlockSparseMask, KernelWork,
};
use burst_tensor::{matmul_into, matmul_nt_into, matmul_tn_into, randn_mat, Mat, Scratch};
use std::sync::Mutex;

const THREADS: [usize; 3] = [1, 2, 8];

/// Both tests in this file mutate process-global state (env vars, the SIMD
/// dispatch atom), so they serialise on one lock.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    std::env::set_var("RAYON_NUM_THREADS", n.to_string());
    let r = f();
    std::env::remove_var("RAYON_NUM_THREADS");
    r
}

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: bit mismatch at {i}: {x} vs {y}"
        );
    }
}

fn mask_kinds(n: usize) -> Vec<(&'static str, AttnMask)> {
    vec![
        ("full", AttnMask::Full),
        ("causal", AttnMask::Causal),
        ("swa", AttnMask::SlidingWindow { window: 24 }),
        (
            "dilated",
            AttnMask::Dilated {
                window: 32,
                step: 2,
            },
        ),
        (
            "blocksparse",
            AttnMask::BlockSparse(BlockSparseMask::sliding_window_blocks(4, n.div_ceil(4), 2)),
        ),
    ]
}

#[test]
fn parallel_kernels_bit_identical_across_thread_counts() {
    let _env = ENV_LOCK.lock().unwrap();
    // n and d chosen so n·n·d clears the PAR_VOLUME gate (96·96·16 = 147456)
    // and n is not a multiple of the 32-row block, exercising the ragged
    // final block under every thread count.
    let (n, d) = (97usize, 16usize);
    let q = randn_mat(n, d, 0.6, 11);
    let k = randn_mat(n, d, 0.6, 12);
    let v = randn_mat(n, d, 0.6, 13);
    let grad_o = randn_mat(n, d, 0.4, 14);
    let idx: Vec<usize> = (0..n).collect();
    let scale = 1.0 / (d as f32).sqrt();

    for (name, mask) in mask_kinds(n) {
        let reference = with_threads(1, || {
            let fwd = flash_forward(&q, &k, &v, scale, &mask, &idx, &idx);
            let d_vec = grad_o.rowsum_hadamard(&fwd.o);
            let (dq, dk, dv, _) = attn_tile_backward(
                &q, &k, &v, &grad_o, &fwd.lse, &d_vec, scale, &mask, &idx, &idx,
            );
            (fwd, dq, dk, dv)
        });
        for threads in THREADS {
            let (fwd, dq, dk, dv) = with_threads(threads, || {
                let fwd = flash_forward(&q, &k, &v, scale, &mask, &idx, &idx);
                let d_vec = grad_o.rowsum_hadamard(&fwd.o);
                let (dq, dk, dv, _) = attn_tile_backward(
                    &q, &k, &v, &grad_o, &fwd.lse, &d_vec, scale, &mask, &idx, &idx,
                );
                (fwd, dq, dk, dv)
            });
            let tag = format!("flash/{name}/t{threads}");
            assert_bits_eq(fwd.o.as_slice(), reference.0.o.as_slice(), &tag);
            assert_bits_eq(&fwd.lse, &reference.0.lse, &tag);
            assert_bits_eq(dq.as_slice(), reference.1.as_slice(), &tag);
            assert_bits_eq(dk.as_slice(), reference.2.as_slice(), &tag);
            assert_bits_eq(dv.as_slice(), reference.3.as_slice(), &tag);
        }
    }

    // Fused LM head: 97·512·16 = 794624 clears the gate; both the row-tile
    // and vocab-tile lists have several blocks.
    let vocab = 512usize;
    let h = randn_mat(n, d, 0.7, 15);
    let w = randn_mat(vocab, d, 0.7, 16);
    let y: Vec<usize> = (0..n).map(|i| (i * 131) % vocab).collect();
    let reference = with_threads(1, || fused_lm_loss(&h, &w, &y));
    for threads in THREADS {
        let out = with_threads(threads, || fused_lm_loss(&h, &w, &y));
        let tag = format!("lmhead/t{threads}");
        assert_eq!(out.loss.to_bits(), reference.loss.to_bits(), "{tag}: loss");
        assert_bits_eq(&out.losses, &reference.losses, &tag);
        assert_bits_eq(&out.lse, &reference.lse, &tag);
        assert_bits_eq(out.grad_h.as_slice(), reference.grad_h.as_slice(), &tag);
        assert_bits_eq(out.grad_w.as_slice(), reference.grad_w.as_slice(), &tag);
    }
}

/// The AVX2+FMA microkernels and the scalar fallback are bound to each
/// other bit for bit: both contract multiply–add to a single rounding
/// (`f32::mul_add` ⟷ `vfmadd`), share one polynomial `exp`, and reduce in
/// the same lane order. `BURST_NO_SIMD=1` must therefore reproduce the
/// vector path exactly — this is the contract that makes the CI fallback
/// leg and the vectorised leg interchangeable witnesses.
#[test]
fn simd_and_scalar_dispatch_bit_identical() {
    let _env = ENV_LOCK.lock().unwrap();
    // d = 20 is not a multiple of the 8-lane AVX2 width, so every inner
    // loop exercises its ragged remainder; n·n·d clears the volume gates.
    let (n, d) = (97usize, 20usize);
    let q = randn_mat(n, d, 0.6, 21);
    let k = randn_mat(n, d, 0.6, 22);
    let v = randn_mat(n, d, 0.6, 23);
    let grad_o = randn_mat(n, d, 0.4, 24);
    let idx: Vec<usize> = (0..n).collect();
    let scale = 1.0 / (d as f32).sqrt();
    let vocab = 509usize; // prime: ragged vocab tiles too
    let h = randn_mat(n, d, 0.7, 25);
    let w = randn_mat(vocab, d, 0.7, 26);
    let y: Vec<usize> = (0..n).map(|i| (i * 131) % vocab).collect();

    let run_all = |mask: &AttnMask| {
        let fwd = flash_forward(&q, &k, &v, scale, mask, &idx, &idx);
        let d_vec = grad_o.rowsum_hadamard(&fwd.o);
        let (dq, dk, dv, _) = attn_tile_backward(
            &q, &k, &v, &grad_o, &fwd.lse, &d_vec, scale, mask, &idx, &idx,
        );
        let lm = fused_lm_loss(&h, &w, &y);
        (fwd, dq, dk, dv, lm)
    };

    for (name, mask) in mask_kinds(n) {
        burst_tensor::simd::refresh();
        let native = run_all(&mask);
        let native_label = burst_tensor::simd::dispatch_label();

        std::env::set_var("BURST_NO_SIMD", "1");
        burst_tensor::simd::refresh();
        assert!(
            !burst_tensor::simd::avx2_active(),
            "BURST_NO_SIMD=1 must force the scalar fallback"
        );
        let scalar = run_all(&mask);
        std::env::remove_var("BURST_NO_SIMD");
        burst_tensor::simd::refresh();

        let tag = format!("simd-vs-scalar/{name} (native dispatch: {native_label})");
        assert_bits_eq(scalar.0.o.as_slice(), native.0.o.as_slice(), &tag);
        assert_bits_eq(&scalar.0.lse, &native.0.lse, &tag);
        assert_bits_eq(scalar.1.as_slice(), native.1.as_slice(), &tag);
        assert_bits_eq(scalar.2.as_slice(), native.2.as_slice(), &tag);
        assert_bits_eq(scalar.3.as_slice(), native.3.as_slice(), &tag);
        assert_eq!(
            scalar.4.loss.to_bits(),
            native.4.loss.to_bits(),
            "{tag}: loss"
        );
        assert_bits_eq(&scalar.4.losses, &native.4.losses, &tag);
        assert_bits_eq(&scalar.4.lse, &native.4.lse, &tag);
        assert_bits_eq(scalar.4.grad_h.as_slice(), native.4.grad_h.as_slice(), &tag);
        assert_bits_eq(scalar.4.grad_w.as_slice(), native.4.grad_w.as_slice(), &tag);
    }
}

/// FNV-1a over the little-endian bytes of everything fed to it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f32s(&mut self, xs: &[f32]) {
        for x in xs {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }

    fn work(&mut self, w: KernelWork) {
        for c in [w.tiles_computed as u64, w.tiles_skipped as u64, w.pairs] {
            self.bytes(&c.to_le_bytes());
        }
    }
}

/// Head dims of the pinned sweep: below one 8-lane chunk, the two training
/// workloads' dims, a dim with a `k % 8` tail, and a wide one.
const PIN_DIMS: [usize; 5] = [8, 32, 33, 64, 128];

/// Per head dim: digests of `flash_forward` (O, Lse and work over every
/// mask), `flash_forward_acc` over two key partitions, `attn_tile_backward_acc`
/// over the same partitions, `flash_backward` (at 1 and at 2 threads), and
/// `matmul_{,nt,tn}_into` — recorded before the flash tile loops were fused.
const PINNED: [(usize, [u64; 5]); 5] = [
    (
        8,
        [
            0xd3d1d672a38c2821,
            0x37f2f160f457edec,
            0x8c1163841e6367e8,
            0xcc63401c43954d2c,
            0xb24a98ca3ccd1d7f,
        ],
    ),
    (
        32,
        [
            0xeb3ab4cb6ef7bbc6,
            0x0b44e0aa74da30c3,
            0x37677dc321850c89,
            0xcd0847ba496ad226,
            0x654a253f94b072eb,
        ],
    ),
    (
        33,
        [
            0x58bad9e7faba972e,
            0x60e166ff549e2167,
            0xf5245da535d6dc7d,
            0x02412805e9454f16,
            0x7c0bda6b2a530c2d,
        ],
    ),
    (
        64,
        [
            0x1de85cb8156ad7b1,
            0xb4e9637b10a0ca5a,
            0x90dc61f1a1f01861,
            0xfb050d25f60850d6,
            0x281514f04c0edc99,
        ],
    ),
    (
        128,
        [
            0x5101d4cb6987e454,
            0xf6c3e7c50daccca3,
            0x14edfb8db4aebb56,
            0x547e7a2dcfe474ab,
            0xac57323db26e54d8,
        ],
    ),
];

/// The five digests of one head dim. 75 query and key rows are a multiple
/// of none of 4, 16 or 32, so every register tile, row quad and key tile
/// has a ragged tail; the key split at 19 cuts a tile in two.
fn pinned_digests(d: usize) -> [u64; 5] {
    let n = 75usize;
    let split = 19usize;
    let seed = 1000 + 10 * d as u64;
    let q = randn_mat(n, d, 0.6, seed);
    let k = randn_mat(n, d, 0.6, seed + 1);
    let v = randn_mat(n, d, 0.6, seed + 2);
    let grad_o = randn_mat(n, d, 0.4, seed + 3);
    let idx: Vec<usize> = (0..n).collect();
    let scale = 1.0 / (d as f32).sqrt();
    let (mut fwd_h, mut acc_h, mut bwd_acc_h, mut bwd_h) =
        (Fnv::new(), Fnv::new(), Fnv::new(), Fnv::new());
    for (name, mask) in mask_kinds(n) {
        let fwd = flash_forward(&q, &k, &v, scale, &mask, &idx, &idx);
        fwd_h.f32s(fwd.o.as_slice());
        fwd_h.f32s(&fwd.lse);
        fwd_h.work(fwd.work);

        let mut acc_o = Mat::zeros(n, d);
        let mut acc_lse = vec![f32::NEG_INFINITY; n];
        let mut scratch = Scratch::new();
        for (lo, hi) in [(0, split), (split, n)] {
            let w = flash_forward_acc(
                &q,
                &k.slice_rows(lo, hi),
                &v.slice_rows(lo, hi),
                scale,
                &mask,
                &idx,
                &idx[lo..hi],
                &mut acc_o,
                &mut acc_lse,
                &mut scratch,
            );
            acc_h.work(w);
        }
        acc_h.f32s(acc_o.as_slice());
        acc_h.f32s(&acc_lse);

        let d_vec = grad_o.rowsum_hadamard(&fwd.o);
        let (mut gq, mut gk, mut gv) = (Mat::zeros(n, d), Mat::zeros(n, d), Mat::zeros(n, d));
        for (lo, hi) in [(0, split), (split, n)] {
            let w = attn_tile_backward_acc(
                &q,
                &k.slice_rows(lo, hi),
                &v.slice_rows(lo, hi),
                &grad_o,
                &fwd.lse,
                &d_vec,
                scale,
                &mask,
                &idx,
                &idx[lo..hi],
                gq.as_mut_slice(),
                gk.rows_mut(lo, hi),
                gv.rows_mut(lo, hi),
                &mut scratch,
            );
            bwd_acc_h.work(w);
        }
        for g in [&gq, &gk, &gv] {
            bwd_acc_h.f32s(g.as_slice());
        }

        let at = |threads| {
            with_threads(threads, || {
                flash_backward(
                    &q, &k, &v, &fwd.o, &grad_o, &fwd.lse, scale, &mask, &idx, &idx,
                )
            })
        };
        let (one, two) = (at(1), at(2));
        for (a, b) in [(&one.0, &two.0), (&one.1, &two.1), (&one.2, &two.2)] {
            assert_bits_eq(
                a.as_slice(),
                b.as_slice(),
                &format!("flash_backward/{name}/d{d}"),
            );
            bwd_h.f32s(a.as_slice());
        }
        assert_eq!(one.3, two.3, "flash_backward/{name}/d{d}: work");
        bwd_h.work(one.3);
    }

    let a = randn_mat(n, d, 0.8, seed + 4);
    let b = randn_mat(d, 45, 0.8, seed + 5);
    let bt = randn_mat(45, d, 0.8, seed + 6);
    let c = randn_mat(n, 45, 0.8, seed + 7);
    let mut mm_h = Fnv::new();
    let mut out = Mat::default();
    matmul_into(a.view(), b.view(), &mut out);
    mm_h.f32s(out.as_slice());
    matmul_nt_into(a.view(), bt.view(), &mut out);
    mm_h.f32s(out.as_slice());
    matmul_tn_into(c.view(), a.view(), &mut out);
    mm_h.f32s(out.as_slice());
    [fwd_h.0, acc_h.0, bwd_acc_h.0, bwd_h.0, mm_h.0]
}

/// The kernels' output bits equal the recorded ones, in whichever dispatch
/// mode (`BURST_NO_SIMD`, `-C target-cpu=native`) the suite runs under.
/// If a change moves them on purpose, the failure prints the new table.
#[test]
fn kernel_bits_match_pinned_digests() {
    // Compare after releasing the lock, so a moved digest fails this test
    // alone instead of poisoning the lock for the others.
    let got: Vec<(usize, [u64; 5])> = {
        let _env = ENV_LOCK.lock().unwrap();
        PIN_DIMS.iter().map(|&d| (d, pinned_digests(d))).collect()
    };
    let table: String = got
        .iter()
        .map(|(d, h)| {
            let hs: Vec<String> = h.iter().map(|x| format!("{x:#018x}")).collect();
            format!("    ({d}, [{}]),\n", hs.join(", "))
        })
        .collect();
    assert_eq!(
        got,
        PINNED.to_vec(),
        "kernel bits moved (dispatch: {}); digests now:\n{table}",
        burst_tensor::simd::dispatch_label()
    );
}
