//! The feed-forward pair classifier: a sequential stack of dense layers
//! with ReLU hidden activations and a sigmoid output — the paper's 6-layer
//! Keras model ("we adapt a sequential model that is composed of a linear
//! stack of layers", input shape 96).

use crate::matrix::Matrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One dense layer with its Adam optimizer state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    w: Matrix,
    b: Vec<f32>,
    // Adam moments.
    mw: Matrix,
    vw: Matrix,
    mb: Vec<f32>,
    vb: Vec<f32>,
}

impl Dense {
    fn new(inp: usize, out: usize, rng: &mut SmallRng) -> Dense {
        // Xavier/Glorot uniform initialization.
        let limit = (6.0 / (inp + out) as f32).sqrt();
        let w = Matrix::from_fn(inp, out, |_, _| rng.gen_range(-limit..limit));
        Dense {
            w,
            b: vec![0.0; out],
            mw: Matrix::zeros(inp, out),
            vw: Matrix::zeros(inp, out),
            mb: vec![0.0; out],
            vb: vec![0.0; out],
        }
    }

    /// Fused forward: GEMM + bias (+ ReLU for hidden layers) in one
    /// kernel pass instead of a matmul followed by whole-output sweeps.
    fn forward(&self, x: &Matrix, relu: bool) -> Matrix {
        x.dense_forward(&self.w, &self.b, relu)
    }
}

/// One Adam update, precomputed per minibatch and applied per layer.
struct AdamStep {
    lr: f32,
    b1: f32,
    b2: f32,
    eps: f32,
    bias1: f32,
    bias2: f32,
}

impl AdamStep {
    fn apply(&self, layer: &mut Dense, dw: &Matrix, db: &[f32]) {
        let &AdamStep { lr, b1, b2, eps, bias1, bias2 } = self;
        for i in 0..dw.as_slice().len() {
            let g = dw.as_slice()[i];
            let m = &mut layer.mw.as_mut_slice()[i];
            *m = b1 * *m + (1.0 - b1) * g;
            let v = &mut layer.vw.as_mut_slice()[i];
            *v = b2 * *v + (1.0 - b2) * g * g;
            let mhat = *m / bias1;
            let vhat = *v / bias2;
            layer.w.as_mut_slice()[i] -= lr * mhat / (vhat.sqrt() + eps);
        }
        for (i, &g) in db.iter().enumerate() {
            layer.mb[i] = b1 * layer.mb[i] + (1.0 - b1) * g;
            layer.vb[i] = b2 * layer.vb[i] + (1.0 - b2) * g * g;
            let mhat = layer.mb[i] / bias1;
            let vhat = layer.vb[i] / bias2;
            layer.b[i] -= lr * mhat / (vhat.sqrt() + eps);
        }
    }
}

/// Adam hyperparameters and step counter.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    t: u64,
}

impl Default for Adam {
    fn default() -> Adam {
        Adam { lr: 1e-3, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0 }
    }
}

/// The multi-layer perceptron.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
    dims: Vec<usize>,
    adam: Adam,
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

impl Mlp {
    /// Build a network with the given layer widths, e.g.
    /// `[96, 128, 64, 32, 16, 8, 1]` for the paper's 6-layer model.
    /// The final width must be 1 (binary similarity output).
    ///
    /// # Panics
    /// Panics if fewer than two dims are given or the output width is not 1.
    pub fn new(dims: &[usize], seed: u64) -> Mlp {
        assert!(dims.len() >= 2, "need at least input and output dims");
        assert_eq!(*dims.last().unwrap(), 1, "binary classifier output must be width 1");
        let mut rng = SmallRng::seed_from_u64(seed);
        let layers = dims.windows(2).map(|w| Dense::new(w[0], w[1], &mut rng)).collect();
        Mlp { layers, dims: dims.to_vec(), adam: Adam::default() }
    }

    /// Number of dense layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Input feature width.
    pub fn input_dim(&self) -> usize {
        self.dims[0]
    }

    /// Total trainable parameter count (weights + biases).
    pub fn parameter_count(&self) -> usize {
        self.dims.windows(2).map(|w| w[0] * w[1] + w[1]).sum()
    }

    /// Borrow layer `li`'s weight matrix and bias, for benchmarks and
    /// inspection tooling that reproduce the forward pass externally.
    pub fn layer_params(&self, li: usize) -> (&Matrix, &[f32]) {
        (&self.layers[li].w, &self.layers[li].b)
    }

    /// Forward pass: returns the sigmoid probability per input row.
    pub fn predict(&self, x: &Matrix) -> Vec<f32> {
        let nl = self.layers.len();
        self.predict_from(1, self.layers[0].forward(x, nl > 1))
    }

    /// Resume the forward pass with `a` as the activations entering layer
    /// `li` (so `predict_from(0, x)` is a full pass and `li == num_layers`
    /// just applies the output sigmoid). Lets callers that compute the
    /// first layer by other means — e.g. the detector's factorized
    /// pair-product classification — reuse the remaining layers.
    ///
    /// # Panics
    /// Panics if `li > num_layers()`.
    pub fn predict_from(&self, li: usize, mut a: Matrix) -> Vec<f32> {
        let nl = self.layers.len();
        assert!(li <= nl, "layer index {li} out of range ({nl} layers)");
        for (lj, layer) in self.layers.iter().enumerate().skip(li) {
            a = layer.forward(&a, lj + 1 < nl);
        }
        a.as_slice().iter().map(|&z| sigmoid(z)).collect()
    }

    /// One minibatch of training with binary cross-entropy loss. Returns
    /// the mean loss over the batch.
    ///
    /// # Panics
    /// Panics if `y.len() != x.rows()`.
    pub fn train_batch(&mut self, x: &Matrix, y: &[f32], lr: f32) -> f32 {
        assert_eq!(y.len(), x.rows(), "label count mismatch");
        let batch = x.rows();
        let nl = self.layers.len();
        // Forward, caching activations only. The ReLU backward gate reads
        // post-activations (for a = max(z, 0), a <= 0 exactly when
        // z <= 0), so the per-layer pre-activation clones the seed kept
        // were dead weight; the final entry holds the raw logits.
        let mut acts: Vec<Matrix> = Vec::with_capacity(nl + 1);
        acts.push(x.clone());
        for (li, layer) in self.layers.iter().enumerate() {
            let a = layer.forward(acts.last().unwrap(), li + 1 < nl);
            acts.push(a);
        }
        // Output probabilities and loss.
        let logits = acts.last().unwrap();
        let mut loss = 0.0f32;
        let mut dz = Matrix::zeros(batch, 1);
        for (r, &t) in y.iter().enumerate().take(batch) {
            let p = sigmoid(logits.get(r, 0));
            let pc = p.clamp(1e-7, 1.0 - 1e-7);
            loss += -(t * pc.ln() + (1.0 - t) * (1.0 - pc).ln());
            dz.set(r, 0, (p - t) / batch as f32);
        }
        loss /= batch as f32;

        // Backward: gradients first (against pre-update weights, exactly
        // as the seed's propagate-before-update ordering), then one Adam
        // step over all layers.
        let mut grads: Vec<(Matrix, Vec<f32>)> = Vec::with_capacity(nl);
        let mut delta = dz;
        for li in (0..nl).rev() {
            let a_prev = &acts[li];
            let dw = a_prev.t_matmul(&delta);
            let mut db = vec![0.0f32; delta.cols()];
            for r in 0..delta.rows() {
                for (c, d) in db.iter_mut().enumerate() {
                    *d += delta.get(r, c);
                }
            }
            if li > 0 {
                let mut d = delta.matmul_t(&self.layers[li].w);
                // ReLU gate on the previous layer's activation.
                for (v, a) in d.as_mut_slice().iter_mut().zip(acts[li].as_slice()) {
                    if *a <= 0.0 {
                        *v = 0.0;
                    }
                }
                delta = d;
            }
            grads.push((dw, db));
        }
        grads.reverse();

        self.adam.t += 1;
        let t = self.adam.t;
        let (b1, b2) = (self.adam.beta1, self.adam.beta2);
        let step = AdamStep {
            lr,
            b1,
            b2,
            eps: self.adam.eps,
            bias1: 1.0 - b1.powi(t as i32),
            bias2: 1.0 - b2.powi(t as i32),
        };
        for (layer, (dw, db)) in self.layers.iter_mut().zip(&grads) {
            step.apply(layer, dw, db);
        }
        loss
    }

    /// Mean binary cross-entropy loss of the model on `(x, y)` without
    /// updating weights.
    pub fn loss(&self, x: &Matrix, y: &[f32]) -> f32 {
        let p = self.predict(x);
        let mut loss = 0.0;
        for (pi, ti) in p.iter().zip(y) {
            let pc = pi.clamp(1e-7, 1.0 - 1e-7);
            loss += -(ti * pc.ln() + (1.0 - ti) * (1.0 - pc).ln());
        }
        loss / y.len().max(1) as f32
    }
}

/// Per-epoch training statistics (the series plotted in the paper's
/// Figure 8).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss.
    pub train_loss: f32,
    /// Training accuracy at threshold 0.5.
    pub train_acc: f32,
    /// Validation loss.
    pub val_loss: f32,
    /// Validation accuracy.
    pub val_acc: f32,
}

/// Full training history.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrainHistory {
    /// One entry per epoch.
    pub epochs: Vec<EpochStats>,
}

impl TrainHistory {
    /// Final validation accuracy, or 0 if empty.
    pub fn final_val_acc(&self) -> f32 {
        self.epochs.last().map(|e| e.val_acc).unwrap_or(0.0)
    }
}

/// Training configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Minibatch size.
    pub batch: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Shuffle seed.
    pub seed: u64,
    /// Multiply the learning rate by this factor after each epoch
    /// (1.0 = constant rate).
    #[serde(default = "default_lr_decay")]
    pub lr_decay: f32,
    /// Stop early when validation loss has not improved for this many
    /// consecutive epochs (`None` = always run all epochs).
    #[serde(default)]
    pub early_stop_patience: Option<usize>,
}

fn default_lr_decay() -> f32 {
    1.0
}

impl Default for TrainConfig {
    fn default() -> TrainConfig {
        TrainConfig {
            epochs: 12,
            batch: 256,
            lr: 1e-3,
            seed: 7,
            lr_decay: 1.0,
            early_stop_patience: None,
        }
    }
}

/// Train `net` on `(x, y)` with a held-out validation set, recording the
/// Figure-8 curves.
pub fn train(
    net: &mut Mlp,
    x: &Matrix,
    y: &[f32],
    val_x: &Matrix,
    val_y: &[f32],
    cfg: &TrainConfig,
) -> TrainHistory {
    let n = x.rows();
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut history = TrainHistory::default();
    let mut lr = cfg.lr;
    let mut best_val = f32::INFINITY;
    let mut stale = 0usize;
    // Minibatch scratch buffers, reused across every batch of every
    // epoch instead of allocating a fresh gather per batch.
    let mut bx = Matrix::zeros(0, x.cols());
    let mut by: Vec<f32> = Vec::with_capacity(cfg.batch);
    for epoch in 0..cfg.epochs {
        // Fisher-Yates shuffle.
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut loss_sum = 0.0;
        let mut batches = 0;
        for chunk in order.chunks(cfg.batch) {
            x.gather_rows_into(chunk, &mut bx);
            by.clear();
            by.extend(chunk.iter().map(|&i| y[i]));
            loss_sum += net.train_batch(&bx, &by, lr);
            batches += 1;
        }
        let train_loss = loss_sum / batches.max(1) as f32;
        let train_acc = crate::metrics::accuracy(&net.predict(x), y, 0.5);
        let val_loss = net.loss(val_x, val_y);
        let val_acc = crate::metrics::accuracy(&net.predict(val_x), val_y, 0.5);
        history.epochs.push(EpochStats { epoch, train_loss, train_acc, val_loss, val_acc });
        lr *= cfg.lr_decay;
        if let Some(patience) = cfg.early_stop_patience {
            if val_loss < best_val - 1e-5 {
                best_val = val_loss;
                stale = 0;
            } else {
                stale += 1;
                if stale >= patience {
                    break;
                }
            }
        }
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_is_learnable() {
        let x = Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        let y = vec![0., 1., 1., 0.];
        let mut net = Mlp::new(&[2, 8, 8, 1], 3);
        for _ in 0..2000 {
            net.train_batch(&x, &y, 5e-2);
        }
        let p = net.predict(&x);
        assert!(p[0] < 0.2 && p[3] < 0.2, "negatives: {p:?}");
        assert!(p[1] > 0.8 && p[2] > 0.8, "positives: {p:?}");
    }

    #[test]
    fn gradient_check_numeric() {
        // Numeric gradient of the loss w.r.t. one weight matches backprop's
        // effect direction: after one SGD-ish Adam step the loss drops.
        let x = Matrix::from_vec(8, 3, (0..24).map(|i| ((i * 7 % 5) as f32 - 2.0) / 2.0).collect());
        let y: Vec<f32> = (0..8).map(|i| (i % 2) as f32).collect();
        let mut net = Mlp::new(&[3, 6, 1], 11);
        let before = net.loss(&x, &y);
        for _ in 0..50 {
            net.train_batch(&x, &y, 1e-2);
        }
        let after = net.loss(&x, &y);
        assert!(after < before, "loss should decrease: {before} -> {after}");
    }

    #[test]
    fn predict_outputs_probabilities() {
        let net = Mlp::new(&[4, 8, 1], 1);
        let x = Matrix::from_fn(10, 4, |r, c| (r + c) as f32 / 10.0);
        for p in net.predict(&x) {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn training_records_history() {
        let x = Matrix::from_fn(64, 4, |r, c| ((r * 13 + c * 5) % 7) as f32 - 3.0);
        let y: Vec<f32> = (0..64).map(|i| if i % 3 == 0 { 1.0 } else { 0.0 }).collect();
        let mut net = Mlp::new(&[4, 8, 1], 2);
        let cfg = TrainConfig { epochs: 3, batch: 16, lr: 1e-3, seed: 1, ..Default::default() };
        let hist = train(&mut net, &x, &y, &x, &y, &cfg);
        assert_eq!(hist.epochs.len(), 3);
        assert!(hist.final_val_acc() > 0.0);
    }

    #[test]
    fn early_stopping_halts_training() {
        let x = Matrix::from_fn(64, 4, |r, c| ((r * 13 + c * 5) % 7) as f32 - 3.0);
        let y: Vec<f32> = (0..64).map(|i| if i % 3 == 0 { 1.0 } else { 0.0 }).collect();
        let mut net = Mlp::new(&[4, 4, 1], 2);
        let cfg = TrainConfig {
            epochs: 200,
            batch: 64,
            lr: 0.0, // no learning: validation loss never improves
            seed: 1,
            lr_decay: 1.0,
            early_stop_patience: Some(3),
        };
        let hist = train(&mut net, &x, &y, &x, &y, &cfg);
        assert!(hist.epochs.len() <= 5, "stopped after patience ran out: {}", hist.epochs.len());
    }

    #[test]
    fn lr_decay_shrinks_updates() {
        // With aggressive decay, later epochs barely move the weights:
        // training with decay diverges less from the start than without.
        let x = Matrix::from_fn(32, 3, |r, c| ((r + c) % 5) as f32 - 2.0);
        let y: Vec<f32> = (0..32).map(|i| (i % 2) as f32).collect();
        let run = |decay: f32| {
            let mut net = Mlp::new(&[3, 4, 1], 9);
            let cfg = TrainConfig {
                epochs: 12,
                batch: 32,
                lr: 5e-2,
                seed: 1,
                lr_decay: decay,
                early_stop_patience: None,
            };
            let h = train(&mut net, &x, &y, &x, &y, &cfg);
            h.epochs.last().unwrap().train_loss
        };
        // Both must make progress, but they are genuinely different runs.
        let with_decay = run(0.3);
        let without = run(1.0);
        assert_ne!(with_decay, without);
    }

    #[test]
    fn parameter_count_matches_architecture() {
        let net = Mlp::new(&[96, 128, 64, 32, 16, 8, 1], 0);
        let expect = 96 * 128 + 128 + 128 * 64 + 64 + 64 * 32 + 32 + 32 * 16 + 16 + 16 * 8 + 8 + 8 + 1;
        assert_eq!(net.parameter_count(), expect);
    }

    #[test]
    fn model_serde_roundtrip() {
        let net = Mlp::new(&[4, 6, 1], 5);
        let json = serde_json::to_string(&net).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        let x = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 / 12.0);
        assert_eq!(net.predict(&x), back.predict(&x));
    }

    #[test]
    #[should_panic]
    fn output_width_must_be_one() {
        let _ = Mlp::new(&[4, 8, 2], 0);
    }

    #[test]
    fn separable_data_reaches_high_accuracy() {
        // Two Gaussian-ish blobs.
        let n = 200;
        let x = Matrix::from_fn(n, 4, |r, c| {
            let base = if r % 2 == 0 { 1.0 } else { -1.0 };
            base + ((r * 31 + c * 17) % 10) as f32 / 20.0
        });
        let y: Vec<f32> = (0..n).map(|i| (i % 2 == 0) as u8 as f32).collect();
        let mut net = Mlp::new(&[4, 8, 8, 1], 4);
        let cfg = TrainConfig { epochs: 30, batch: 32, lr: 5e-3, seed: 2, ..Default::default() };
        let hist = train(&mut net, &x, &y, &x, &y, &cfg);
        assert!(hist.final_val_acc() > 0.95, "acc = {}", hist.final_val_acc());
    }
}
