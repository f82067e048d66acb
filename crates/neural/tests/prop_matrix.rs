//! Property tests for the matrix substrate: the fast GEMM paths agree
//! bit for bit with a naive reference implementation, and linear-algebra
//! laws hold within floating-point tolerance.

use neural::matrix::Matrix;
use proptest::prelude::*;

fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-4.0f32..4.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for r in 0..a.rows() {
        for k in 0..a.cols() {
            for c in 0..b.cols() {
                out.set(r, c, out.get(r, c) + a.get(r, k) * b.get(k, c));
            }
        }
    }
    out
}

/// Shape plus the exact bit pattern of every element.
fn bits(m: &Matrix) -> (usize, usize, Vec<u32>) {
    let bits = m.as_slice().iter().map(|v| v.to_bits()).collect();
    (m.rows(), m.cols(), bits)
}

fn assert_close(a: &Matrix, b: &Matrix, tol: f32) {
    assert_eq!(a.rows(), b.rows());
    assert_eq!(a.cols(), b.cols());
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert!((x - y).abs() <= tol, "{x} vs {y}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn matmul_matches_naive(
        a in matrix_strategy(7, 5),
        b in matrix_strategy(5, 9),
    ) {
        prop_assert_eq!(bits(&a.matmul(&b)), bits(&naive_matmul(&a, &b)));
    }

    #[test]
    fn t_matmul_matches_transpose(
        a in matrix_strategy(6, 4),
        b in matrix_strategy(6, 3),
    ) {
        let at = Matrix::from_fn(4, 6, |r, c| a.get(c, r));
        prop_assert_eq!(bits(&a.t_matmul(&b)), bits(&naive_matmul(&at, &b)));
    }

    #[test]
    fn matmul_t_matches_transpose(
        a in matrix_strategy(5, 6),
        b in matrix_strategy(8, 6),
    ) {
        let bt = Matrix::from_fn(6, 8, |r, c| b.get(c, r));
        prop_assert_eq!(bits(&a.matmul_t(&b)), bits(&naive_matmul(&a, &bt)));
    }

    #[test]
    fn matmul_distributes_over_add(
        a in matrix_strategy(4, 4),
        b in matrix_strategy(4, 4),
        c in matrix_strategy(4, 4),
    ) {
        // A(B + C) == AB + AC
        let mut bc = b.clone();
        bc.add_scaled(&c, 1.0);
        let lhs = a.matmul(&bc);
        let mut rhs = a.matmul(&b);
        rhs.add_scaled(&a.matmul(&c), 1.0);
        assert_close(&lhs, &rhs, 1e-3);
    }

    #[test]
    fn gather_rows_picks_rows(
        a in matrix_strategy(9, 3),
        idx in proptest::collection::vec(0usize..9, 0..12),
    ) {
        let g = a.gather_rows(&idx);
        prop_assert_eq!(g.rows(), idx.len());
        for (i, &r) in idx.iter().enumerate() {
            prop_assert_eq!(g.row(i), a.row(r));
        }
    }

    #[test]
    fn fused_forward_matches_unfused(
        x in matrix_strategy(11, 7),
        w in matrix_strategy(7, 6),
        bias in proptest::collection::vec(-2.0f32..2.0, 6),
        relu in any::<bool>(),
    ) {
        // The fused GEMM+bias+ReLU pass matches the unfused matmul →
        // bias sweep → activation sweep composition bit for bit.
        let mut expect = x.matmul(&w);
        for r in 0..expect.rows() {
            for (v, b) in expect.row_mut(r).iter_mut().zip(&bias) {
                *v += b;
            }
        }
        if relu {
            for v in expect.as_mut_slice() {
                *v = v.max(0.0);
            }
        }
        prop_assert_eq!(bits(&x.dense_forward(&w, &bias, relu)), bits(&expect));
    }

    #[test]
    fn degenerate_shapes_match_naive(
        rows in 0usize..3,
        cols in 1usize..3,
        n in 0usize..3,
        seed in 0u64..1000,
    ) {
        // 0 rows, 1 row, and outputs narrower than the SIMD tile all go
        // through the same kernels.
        let a = Matrix::from_fn(rows, cols, |r, c| ((r as u64 * 31 + c as u64 * 7 + seed) % 11) as f32 - 5.0);
        let b = Matrix::from_fn(cols, n, |r, c| ((r as u64 * 13 + c as u64 * 3 + seed) % 9) as f32 - 4.0);
        prop_assert_eq!(bits(&a.matmul(&b)), bits(&naive_matmul(&a, &b)));
        let bt = Matrix::from_fn(n, cols, |r, c| b.get(c, r));
        prop_assert_eq!(bits(&a.matmul_t(&bt)), bits(&naive_matmul(&a, &b)));
        let at = Matrix::from_fn(cols, rows, |r, c| a.get(c, r));
        let c2 = Matrix::from_fn(rows, n, |r, c| ((r + c) % 5) as f32 - 2.0);
        prop_assert_eq!(bits(&a.t_matmul(&c2)), bits(&naive_matmul(&at, &c2)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn fused_mlp_predict_matches_manual_layers(
        x in matrix_strategy(9, 4),
        seed in 0u64..500,
    ) {
        // The network's fused forward equals an unfused composition built
        // from the same layer parameters, end to end through the sigmoid.
        let net = neural::net::Mlp::new(&[4, 6, 5, 1], seed);
        let mut a = x.clone();
        for li in 0..net.num_layers() {
            let (w, bias) = net.layer_params(li);
            let mut z = a.matmul(w);
            for r in 0..z.rows() {
                for (v, b) in z.row_mut(r).iter_mut().zip(bias) {
                    *v += b;
                }
            }
            if li + 1 < net.num_layers() {
                for v in z.as_mut_slice() {
                    *v = v.max(0.0);
                }
            }
            a = z;
        }
        let expect: Vec<f32> = a.as_slice().iter().map(|&z| 1.0 / (1.0 + (-z).exp())).collect();
        let got = net.predict(&x);
        prop_assert_eq!(got.len(), expect.len());
        for (g, e) in got.iter().zip(&expect) {
            prop_assert!((g - e).abs() <= 1e-6, "{} vs {}", g, e);
        }
    }
}

#[test]
fn auc_is_threshold_free() {
    // Monotone transformation of scores leaves AUC unchanged.
    let probs = [0.1f32, 0.4, 0.35, 0.8, 0.65, 0.9];
    let labels = [0.0f32, 0.0, 1.0, 1.0, 0.0, 1.0];
    let a1 = neural::auc(&probs, &labels);
    let squashed: Vec<f32> = probs.iter().map(|p| p * p).collect();
    let a2 = neural::auc(&squashed, &labels);
    assert!((a1 - a2).abs() < 1e-12);
}
