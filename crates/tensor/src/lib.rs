//! # burst-tensor
//!
//! Dense `f32` tensor substrate underlying the BurstEngine reproduction.
//!
//! The crate deliberately implements only what the attention / transformer
//! kernels need, but implements it well:
//!
//! * [`Mat`] — an owned, row-major 2-D matrix with register-blocked,
//!   cache-tiled, rayon-parallel matrix products in all transpose variants
//!   ([`Mat::matmul`], [`Mat::matmul_nt`], [`Mat::matmul_tn`]), plus
//!   allocation-free `_into` variants ([`matmul_into`], [`matmul_nt_into`],
//!   [`matmul_tn_into`]) over borrowed [`MatRef`] views,
//! * [`Scratch`] — a reusable workspace the tiled kernels thread through
//!   their tile loops so steady-state iterations (ring rounds in
//!   particular) perform zero heap allocations,
//! * numerically robust row-wise softmax and log-sum-exp ([`Mat::softmax_rows`],
//!   [`Mat::lse_rows`]) used by the online-softmax machinery,
//! * deterministic random initialisation ([`random`]),
//! * test utilities: [`testutil::allclose`] and a central-difference
//!   numerical gradient checker ([`testutil::numerical_grad`]).
//!
//! Shape mismatches are programming errors and panic with a precise message
//! (the same contract `ndarray` and BLAS wrappers use); the hot paths carry
//! no `Result` overhead.

pub mod bf16;
pub mod mat;
pub mod ops;
pub mod random;
pub mod scratch;
pub mod simd;
pub mod testutil;

pub use bf16::{decode_bf16, encode_bf16, round_bf16, Bf16Mat};
pub use mat::{Mat, MatRef};
pub use ops::{
    matmul_into, matmul_nt_into, matmul_nt_with, matmul_tn_into, matmul_tn_with, matmul_with,
    tree_sum, Epilogue,
};
pub use random::{randn_mat, uniform_mat, SeedStream};
pub use scratch::Scratch;
