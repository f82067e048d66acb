//! Kernel-level before/after: the seed's naive GEMM / unfused forward /
//! per-call thread spawning, reproduced here verbatim as the `legacy`
//! module, raced against the blocked kernels, fused dense layers, and
//! persistent worker pool that replaced them.
//!
//! Every legacy-vs-new pair is also asserted equal (bitwise or ≤ 1e-6)
//! before timing, so the speedup numbers in `BENCH_kernels.json` are for
//! provably identical outputs. Groups:
//!
//! * `gemm`     — model GEMM shapes (96→128, 128→64) at batch 1/64/1024;
//! * `forward`  — unfused matmul + bias sweep + ReLU sweep vs the fused pass;
//! * `pool`     — per-call `crossbeam::thread::scope` spawn vs warm-pool dispatch;
//! * `extract`  — serial `features::extract_all` over a real library;
//! * `train`    — one epoch: seed training loop (pre-activation clones,
//!   per-batch gather allocation, unfused kernels) vs the new one;
//! * `classify` — the static stage at ≥256 pairs: per-pair normalization +
//!   legacy kernels vs `classify_pairs` over every pair on the new kernels
//!   (the `product/N` row).

use criterion::{criterion_group, BatchSize, Criterion};
use std::hint::black_box;

use corpus::dataset1::Dataset1Config;
use neural::matrix::Matrix;
use neural::net::{Mlp, TrainConfig};
use neural::pool::WorkerPool;
use patchecko_core::detector::{self, Detector, DetectorConfig, MODEL_DIMS};
use patchecko_core::features::{self, StaticFeatures};
use patchecko_core::pipeline::{Basis, Patchecko};

/// The seed's kernels and training loop, reproduced for the comparison.
mod legacy {
    use super::*;

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

    /// The seed's `Mlp`, rebuilt on the legacy kernels: unfused forward
    /// (matmul, then a bias sweep, then a ReLU sweep), pre-activation
    /// clones in `train_batch`, and in-place Adam during the backward
    /// walk. Weights are copied from a real `Mlp` so both sides start
    /// from identical parameters.
    pub struct Net {
        pub w: Vec<Matrix>,
        pub b: Vec<Vec<f32>>,
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
                    self.b[li][i] -= lr * (self.mb[li][i] / bias1) / ((self.vb[li][i] / bias2).sqrt() + eps);
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

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    for &(batch, k, n) in &[(1usize, 96usize, 128usize), (64, 96, 128), (1024, 96, 128), (1024, 128, 64)] {
        let a = pseudo_matrix(batch, k, 7);
        let b = pseudo_matrix(k, n, 11);
        // The blocked kernel must reproduce the seed kernel bit for bit.
        assert_eq!(legacy::matmul(&a, &b).as_slice(), a.matmul(&b).as_slice(), "gemm {batch}x{k}x{n}");
        group.bench_function(format!("naive/{batch}x{k}x{n}"), |bch| {
            bch.iter(|| black_box(legacy::matmul(&a, &b)))
        });
        group.bench_function(format!("blocked/{batch}x{k}x{n}"), |bch| {
            bch.iter(|| black_box(a.matmul(&b)))
        });
    }
    // Backward-pass shapes: dw = aᵀ·delta and delta·wᵀ at batch 1024.
    let a = pseudo_matrix(1024, 96, 3);
    let delta = pseudo_matrix(1024, 128, 5);
    assert_eq!(legacy::t_matmul(&a, &delta).as_slice(), a.t_matmul(&delta).as_slice());
    group.bench_function("naive_t/1024x96x128", |bch| {
        bch.iter(|| black_box(legacy::t_matmul(&a, &delta)))
    });
    group.bench_function("blocked_t/1024x96x128", |bch| {
        bch.iter(|| black_box(a.t_matmul(&delta)))
    });
    let w = pseudo_matrix(96, 128, 9);
    assert_eq!(legacy::matmul_t(&delta, &w).as_slice(), delta.matmul_t(&w).as_slice());
    group.bench_function("naive_nt/1024x128x96", |bch| {
        bch.iter(|| black_box(legacy::matmul_t(&delta, &w)))
    });
    group.bench_function("blocked_nt/1024x128x96", |bch| {
        bch.iter(|| black_box(delta.matmul_t(&w)))
    });
    group.finish();
}

fn bench_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("forward");
    let net = Mlp::new(&MODEL_DIMS, 1);
    let old = legacy::Net::from_mlp(&net);
    for &batch in &[64usize, 1024] {
        let x = pseudo_matrix(batch, MODEL_DIMS[0], batch as u64);
        assert_close(&old.predict(&x), &net.predict(&x), 1e-6, "forward");
        group.bench_function(format!("unfused/{batch}"), |b| {
            b.iter(|| black_box(old.predict(&x)))
        });
        group.bench_function(format!("fused/{batch}"), |b| {
            b.iter(|| black_box(net.predict(&x)))
        });
    }
    group.finish();
}

fn bench_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool");
    const WIDTH: usize = 2;
    let work = |seed: usize| -> f64 {
        let mut acc = 0.0f64;
        for i in 0..20_000 {
            acc += ((seed * 20_000 + i) as f64).sqrt();
        }
        acc
    };
    // Cold: what the seed's matmul paid on every large call — spawn
    // threads, do the work, join them.
    group.bench_function("cold_spawn", |b| {
        b.iter(|| {
            let mut outs = vec![0.0f64; WIDTH];
            crossbeam::thread::scope(|s| {
                for (i, o) in outs.iter_mut().enumerate() {
                    s.spawn(move |_| *o = work(i));
                }
            })
            .unwrap();
            black_box(outs)
        })
    });
    // Warm: the same tasks dispatched to an already-spawned pool.
    let pool = WorkerPool::new(WIDTH);
    pool.run((0..WIDTH).map(|i| move || work(i)).collect::<Vec<_>>());
    group.bench_function("warm_dispatch", |b| {
        b.iter(|| black_box(pool.run((0..WIDTH).map(|i| move || work(i)).collect::<Vec<_>>())))
    });
    group.finish();
}

fn bench_extract_and_classify(c: &mut Criterion) {
    // A real library from the evaluation device, and a detector trained
    // the way `bench_cache` trains one.
    let ds = corpus::build_dataset1(&Dataset1Config {
        num_libraries: 10,
        min_functions: 8,
        max_functions: 12,
        seed: 1,
        include_catalog: true,
    });
    let cfg = DetectorConfig {
        pairs_per_function: 6,
        train: TrainConfig { epochs: 10, batch: 256, lr: 1e-3, seed: 7, ..Default::default() },
        ..DetectorConfig::default()
    };
    let det: Detector = detector::train(&ds, &cfg).0;
    let db = corpus::build_vulndb(0, 1);
    let entry = db.get("CVE-2018-9412").unwrap();
    let device = corpus::build_device(&corpus::android_things_spec(), &corpus::full_catalog(), 0.1);
    let truth = device.truth_for("CVE-2018-9412").unwrap();
    let bin = device.image.binary(&truth.library).unwrap().clone();

    let mut group = c.benchmark_group("extract");
    group.bench_function("serial", |b| b.iter(|| black_box(features::extract_all(&bin).unwrap())));
    group.finish();

    // Static-stage classification at >= 256 pairs: the seed normalized
    // every pair independently and ran the legacy kernels; the new path
    // normalizes each side once and runs the blocked fused forward.
    let references = Patchecko::reference_feature_set(entry, Basis::Vulnerable).unwrap();
    let mut targets = features::extract_all(&bin).unwrap();
    // One library at this device scale is a few hundred pairs short of the
    // 256-pair floor; widen the target set with the image's other
    // binaries (the realistic shape of a whole-image static stage).
    for other in device.image.binaries.iter().filter(|b2| b2.lib_name != bin.lib_name) {
        if references.len() * targets.len() >= 512 {
            break;
        }
        targets.extend(features::extract_all(other).unwrap());
    }
    let pairs: Vec<(&StaticFeatures, &StaticFeatures)> =
        references.iter().flat_map(|r| targets.iter().map(move |t| (r, t))).collect();
    assert!(pairs.len() >= 256, "classify batch must be >= 256, got {}", pairs.len());
    let all: Vec<(u32, u32)> = (0..references.len() as u32)
        .flat_map(|r| (0..targets.len() as u32).map(move |t| (r, t)))
        .collect();
    let old_net = legacy::Net::from_mlp(&det.net);
    let legacy_classify = |pairs: &[(&StaticFeatures, &StaticFeatures)]| -> Vec<f32> {
        let mut x = Matrix::zeros(pairs.len(), 96);
        for (r, (a, b)) in pairs.iter().enumerate() {
            x.row_mut(r).copy_from_slice(&det.norm.pair_input(a, b));
        }
        old_net.predict(&x)
    };
    assert_close(
        &legacy_classify(&pairs),
        &det.classify_pairs(&references, &targets, &all),
        1e-6,
        "classify",
    );
    let mut group = c.benchmark_group("classify");
    group.bench_function(format!("legacy/{}", pairs.len()), |b| {
        b.iter(|| black_box(legacy_classify(&pairs)))
    });
    group.bench_function(format!("product/{}", pairs.len()), |b| {
        b.iter(|| black_box(det.classify_pairs(&references, &targets, &all)))
    });
    group.finish();
}

fn bench_train(c: &mut Criterion) {
    let mut group = c.benchmark_group("train");
    group.sample_size(10);
    let x = pseudo_matrix(2048, MODEL_DIMS[0], 17);
    let y: Vec<f32> = (0..2048).map(|i| (i % 2) as f32).collect();
    const BATCH: usize = 256;

    // Both epochs walk identical minibatches from identical weights; the
    // resulting models must agree to float equality.
    {
        let mut old = legacy::Net::from_mlp(&Mlp::new(&MODEL_DIMS, 1));
        let mut new = Mlp::new(&MODEL_DIMS, 1);
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

    group.bench_function("epoch_legacy", |b| {
        b.iter_batched(
            || legacy::Net::from_mlp(&Mlp::new(&MODEL_DIMS, 1)),
            |mut old| {
                for start in (0..x.rows()).step_by(BATCH) {
                    let idx: Vec<usize> = (start..(start + BATCH).min(x.rows())).collect();
                    let bx = x.gather_rows(&idx);
                    black_box(old.train_batch(&bx, &y[start..start + idx.len()], 1e-3));
                }
                old
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("epoch", |b| {
        b.iter_batched(
            || Mlp::new(&MODEL_DIMS, 1),
            |mut net| {
                let mut bx = Matrix::zeros(0, x.cols());
                for start in (0..x.rows()).step_by(BATCH) {
                    let idx: Vec<usize> = (start..(start + BATCH).min(x.rows())).collect();
                    x.gather_rows_into(&idx, &mut bx);
                    black_box(net.train_batch(&bx, &y[start..start + idx.len()], 1e-3));
                }
                net
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_gemm, bench_forward, bench_pool, bench_train, bench_extract_and_classify
}

fn main() {
    benches();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    criterion::write_json_summary(path).expect("write BENCH_kernels.json");
    println!("wrote {path}");
    // The pool benches dispatch through the instrumented worker pool, so
    // `pool.dispatches` / `pool.inline_runs` accumulated globally; show them.
    patchecko_bench::print_telemetry("bench_kernels");
}
