//! One training epoch of [`Mlp::train_batch`] against the seed's training
//! loop: the `legacy` module rebuilds the seed network on the seed's
//! kernels (naive GEMMs, unfused forward, pre-activation clones,
//! per-batch gather allocation and in-place Adam during the backward
//! walk). Both sides start from identical weights and walk identical
//! minibatches, so their outputs must agree to float tolerance.

use neural::matrix::Matrix;
use neural::net::Mlp;

/// The detector's layer widths (`patchecko_core::detector::MODEL_DIMS`).
const MODEL_DIMS: [usize; 7] = [96, 128, 64, 32, 16, 8, 1];

/// The seed's kernels and training loop, kept as the reference.
mod legacy {
    use neural::matrix::Matrix;
    use neural::net::Mlp;

    /// Seed `Matrix::matmul` (serial path): i-k-j axpy with a zero-skip.
    pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.rows());
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for k in 0..a.cols() {
                let av = a.get(i, k);
                if av == 0.0 {
                    continue;
                }
                let brow = b.row(k);
                let orow = out.row_mut(i);
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    /// Seed `Matrix::t_matmul`: r-outer, i-inner, zero-skip.
    pub fn t_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.rows(), b.rows());
        let mut out = Matrix::zeros(a.cols(), b.cols());
        for r in 0..a.rows() {
            for i in 0..a.cols() {
                let av = a.get(r, i);
                if av == 0.0 {
                    continue;
                }
                let brow = b.row(r);
                let orow = out.row_mut(i);
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    /// Seed `Matrix::matmul_t`: one scalar dot chain per output element.
    pub fn matmul_t(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.cols());
        let mut out = Matrix::zeros(a.rows(), b.rows());
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                let mut acc = 0.0f32;
                for (&av, &bv) in a.row(i).iter().zip(b.row(j)) {
                    acc += av * bv;
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    fn sigmoid(x: f32) -> f32 {
        1.0 / (1.0 + (-x).exp())
    }

    /// The seed's `Mlp` on the seed kernels, with its weights copied from
    /// a real `Mlp`.
    pub struct Net {
        w: Vec<Matrix>,
        b: Vec<Vec<f32>>,
        mw: Vec<Matrix>,
        vw: Vec<Matrix>,
        mb: Vec<Vec<f32>>,
        vb: Vec<Vec<f32>>,
        t: u64,
    }

    impl Net {
        pub fn from_mlp(net: &Mlp) -> Net {
            let mut out = Net {
                w: Vec::new(),
                b: Vec::new(),
                mw: Vec::new(),
                vw: Vec::new(),
                mb: Vec::new(),
                vb: Vec::new(),
                t: 0,
            };
            for li in 0..net.num_layers() {
                let (w, b) = net.layer_params(li);
                out.mw.push(Matrix::zeros(w.rows(), w.cols()));
                out.vw.push(Matrix::zeros(w.rows(), w.cols()));
                out.mb.push(vec![0.0; b.len()]);
                out.vb.push(vec![0.0; b.len()]);
                out.w.push(w.clone());
                out.b.push(b.to_vec());
            }
            out
        }

        /// Matmul, then a bias sweep.
        fn forward_layer(&self, li: usize, x: &Matrix) -> Matrix {
            let mut z = matmul(x, &self.w[li]);
            for r in 0..z.rows() {
                for (v, b) in z.row_mut(r).iter_mut().zip(&self.b[li]) {
                    *v += b;
                }
            }
            z
        }

        pub fn predict(&self, x: &Matrix) -> Vec<f32> {
            let mut a = x.clone();
            for li in 0..self.w.len() {
                let mut z = self.forward_layer(li, &a);
                if li + 1 < self.w.len() {
                    for v in z.as_mut_slice() {
                        *v = v.max(0.0);
                    }
                }
                a = z;
            }
            a.as_slice().iter().map(|&z| sigmoid(z)).collect()
        }

        pub fn train_batch(&mut self, x: &Matrix, y: &[f32], lr: f32) -> f32 {
            let batch = x.rows();
            let mut acts: Vec<Matrix> = vec![x.clone()];
            let mut zs: Vec<Matrix> = Vec::with_capacity(self.w.len());
            for li in 0..self.w.len() {
                let z = self.forward_layer(li, acts.last().unwrap());
                zs.push(z.clone());
                let mut a = z;
                if li + 1 < self.w.len() {
                    for v in a.as_mut_slice() {
                        *v = v.max(0.0);
                    }
                }
                acts.push(a);
            }
            let logits = zs.last().unwrap();
            let mut loss = 0.0f32;
            let mut dz = Matrix::zeros(batch, 1);
            for (r, &t) in y.iter().enumerate().take(batch) {
                let p = sigmoid(logits.get(r, 0));
                let pc = p.clamp(1e-7, 1.0 - 1e-7);
                loss += -(t * pc.ln() + (1.0 - t) * (1.0 - pc).ln());
                dz.set(r, 0, (p - t) / batch as f32);
            }
            loss /= batch as f32;

            self.t += 1;
            let (b1, b2, eps) = (0.9f32, 0.999f32, 1e-8f32);
            let bias1 = 1.0 - b1.powi(self.t as i32);
            let bias2 = 1.0 - b2.powi(self.t as i32);
            let mut delta = dz;
            for li in (0..self.w.len()).rev() {
                let dw = t_matmul(&acts[li], &delta);
                let mut db = vec![0.0f32; delta.cols()];
                for r in 0..delta.rows() {
                    for (c, d) in db.iter_mut().enumerate() {
                        *d += delta.get(r, c);
                    }
                }
                let next_delta = if li > 0 {
                    let mut d = matmul_t(&delta, &self.w[li]);
                    for (v, z) in d.as_mut_slice().iter_mut().zip(zs[li - 1].as_slice()) {
                        if *z <= 0.0 {
                            *v = 0.0;
                        }
                    }
                    Some(d)
                } else {
                    None
                };
                for i in 0..dw.as_slice().len() {
                    let g = dw.as_slice()[i];
                    let m = &mut self.mw[li].as_mut_slice()[i];
                    *m = b1 * *m + (1.0 - b1) * g;
                    let v = &mut self.vw[li].as_mut_slice()[i];
                    *v = b2 * *v + (1.0 - b2) * g * g;
                    self.w[li].as_mut_slice()[i] -= lr * (*m / bias1) / ((*v / bias2).sqrt() + eps);
                }
                for (i, &g) in db.iter().enumerate() {
                    self.mb[li][i] = b1 * self.mb[li][i] + (1.0 - b1) * g;
                    self.vb[li][i] = b2 * self.vb[li][i] + (1.0 - b2) * g * g;
                    self.b[li][i] -=
                        lr * (self.mb[li][i] / bias1) / ((self.vb[li][i] / bias2).sqrt() + eps);
                }
                if let Some(d) = next_delta {
                    delta = d;
                }
            }
            loss
        }
    }
}

fn assert_close(a: &[f32], b: &[f32], tol: f32, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (x, y) in a.iter().zip(b) {
        assert!((x - y).abs() <= tol, "{what}: {x} vs {y}");
    }
}

fn pseudo_matrix(rows: usize, cols: usize, salt: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        let h = (r as u64)
            .wrapping_mul(6364136223846793005)
            .wrapping_add(c as u64)
            .wrapping_mul(1442695040888963407)
            .wrapping_add(salt);
        ((h >> 33) % 2000) as f32 / 1000.0 - 1.0
    })
}

/// 2048 inputs at batch 256: the fused forward matches the seed's unfused
/// one on the initial weights, every minibatch loss matches, and so do the
/// predictions after the epoch, each within 1e-6.
#[test]
fn one_epoch_matches_the_seed_training_loop() {
    const BATCH: usize = 256;
    let x = pseudo_matrix(2048, MODEL_DIMS[0], 17);
    let y: Vec<f32> = (0..2048).map(|i| (i % 2) as f32).collect();
    let mut old = legacy::Net::from_mlp(&Mlp::new(&MODEL_DIMS, 1));
    let mut new = Mlp::new(&MODEL_DIMS, 1);
    assert_close(&old.predict(&x), &new.predict(&x), 1e-6, "initial predictions");

    let mut bx = Matrix::zeros(0, x.cols());
    for start in (0..x.rows()).step_by(BATCH) {
        let idx: Vec<usize> = (start..(start + BATCH).min(x.rows())).collect();
        let lx = x.gather_rows(&idx);
        let ly = &y[start..start + idx.len()];
        let l_old = old.train_batch(&lx, ly, 1e-3);
        x.gather_rows_into(&idx, &mut bx);
        let l_new = new.train_batch(&bx, ly, 1e-3);
        assert!((l_old - l_new).abs() <= 1e-6, "epoch losses diverge: {l_old} vs {l_new}");
    }
    assert_close(&old.predict(&x), &new.predict(&x), 1e-6, "post-epoch predictions");
}
