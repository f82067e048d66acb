//! # neural — pure-Rust neural network substrate
//!
//! The learning machinery the paper builds on Keras/TensorFlow,
//! reimplemented from scratch:
//!
//! * [`matrix`] — dense `f32` matrices with cache-blocked, register-tiled
//!   GEMM kernels and a fused dense-layer forward;
//! * [`pool`] — the shared persistent worker pool that runs whole tasks
//!   (classify chunks, candidate profiling, scheduler jobs), plus
//!   unified thread-count resolution (`PATCHECKO_THREADS`);
//! * [`net`] — the sequential pair classifier (dense layers, ReLU, sigmoid,
//!   binary cross-entropy, Adam) plus the training loop that records the
//!   Figure-8 accuracy/loss curves;
//! * [`metrics`] — accuracy, AUC (Mann–Whitney), confusion counts;
//! * [`graph`] — a structure2vec graph-embedding network with siamese
//!   cosine training, serving as the Gemini-style static baseline.
//!
//! ## Example
//!
//! ```
//! use neural::matrix::Matrix;
//! use neural::net::{train, Mlp, TrainConfig};
//!
//! // Learn y = x0 > x1 on a toy dataset.
//! let x = Matrix::from_fn(128, 2, |r, c| ((r * 37 + c * 11) % 19) as f32 / 19.0);
//! let y: Vec<f32> = (0..128).map(|r| (x.get(r, 0) > x.get(r, 1)) as u8 as f32).collect();
//! let mut net = Mlp::new(&[2, 16, 1], 1);
//! let cfg = TrainConfig { epochs: 40, batch: 32, lr: 5e-3, seed: 1, ..Default::default() };
//! let hist = train(&mut net, &x, &y, &x, &y, &cfg);
//! assert!(hist.final_val_acc() > 0.9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod matrix;
pub mod metrics;
pub mod net;
pub mod pool;

pub use graph::{cosine, GraphEmbedder, GraphSample};
pub use matrix::Matrix;
pub use metrics::{accuracy, auc, Confusion};
pub use net::{train, Adam, EpochStats, Mlp, TrainConfig, TrainHistory};
