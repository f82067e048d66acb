//! The deep-learning vulnerability detector (§III-A): pair-sampled
//! training over Dataset I and the trained pair classifier.
//!
//! Two functions are labeled *similar* when they were compiled from the
//! same source function (possibly for different architectures or
//! optimization levels), *dissimilar* otherwise. The classifier is the
//! 6-layer sequential model of Figure 4, over 96 inputs (two 48-feature
//! vectors).

use crate::features::{self, Normalizer, StaticFeatures, NUM_STATIC_FEATURES};
use corpus::dataset1::Dataset1;
use neural::matrix::Matrix;
use neural::net::{self, Mlp, TrainConfig, TrainHistory};
use neural::metrics;
use neural::pool::WorkerPool;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scope::MetricsRegistry;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Layer widths of the paper's 6-layer model (input shape 96).
pub const MODEL_DIMS: [usize; 7] = [96, 128, 64, 32, 16, 8, 1];

/// Distinct pairs per [`Detector::classify_pairs`] chunk. A 512-row chunk
/// keeps each layer's activations (at most 512 × 128 `f32`, 256 KiB) in
/// cache. Chunks cut the list of distinct content pairs, not the list
/// requested. A one-CVE scan of a library up to 128 functions (× 4
/// reference variants) fits in one chunk; an audit's image-wide pass
/// (156,600 pairs, ~35k distinct at scale 0.25) and a streaming working
/// set's top-K list (about 16 pairs per function, ~17k pairs for 64 units)
/// span dozens.
const CHUNK_PAIRS: usize = 512;

/// Detector training configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Positive (and negative) pairs sampled per source function.
    pub pairs_per_function: usize,
    /// Training hyperparameters.
    pub train: TrainConfig,
    /// Similarity threshold for candidate selection.
    pub threshold: f32,
    /// Pair-sampling seed.
    pub seed: u64,
}

impl Default for DetectorConfig {
    fn default() -> DetectorConfig {
        DetectorConfig {
            pairs_per_function: 8,
            train: TrainConfig { epochs: 15, batch: 256, lr: 1e-3, seed: 7, ..Default::default() },
            threshold: 0.5,
            seed: 1234,
        }
    }
}

/// Held-out test metrics (the paper reports accuracy 96 % and AUC 0.971 for
/// the baseline \[41\]; Figure 8 shows the curves).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TestMetrics {
    /// Accuracy at threshold 0.5 on the held-out test split.
    pub accuracy: f32,
    /// Area under the ROC curve on the test split.
    pub auc: f64,
    /// Test pair count.
    pub pairs: usize,
}

/// The trained detector: model + the normalizer its inputs require.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Detector {
    /// The pair classifier.
    pub net: Mlp,
    /// Input normalization fitted on the training corpus.
    pub norm: Normalizer,
    /// Candidate-selection threshold.
    pub threshold: f32,
}

/// A labeled feature-pair dataset (flattened inputs + labels).
pub struct PairDataset {
    /// `(pairs, 96)` input matrix.
    pub x: Matrix,
    /// Labels (1 = similar).
    pub y: Vec<f32>,
}

/// Extracted per-variant features with source identity for pair sampling.
struct Extracted {
    /// `features[v][f]` = features of function `f` in variant `v`.
    features: Vec<Vec<StaticFeatures>>,
    /// Source identity per variant function: (library, function name).
    identity: Vec<Vec<(usize, String)>>,
}

fn extract_dataset(ds: &Dataset1) -> Extracted {
    let mut features = Vec::with_capacity(ds.variants.len());
    let mut identity = Vec::with_capacity(ds.variants.len());
    for v in &ds.variants {
        let fs = features::extract_all(&v.binary).expect("dataset binaries decode");
        let ids = v
            .binary
            .functions
            .iter()
            .map(|f| (v.library, f.name.clone().expect("dataset I is unstripped")))
            .collect();
        features.push(fs);
        identity.push(ids);
    }
    Extracted { features, identity }
}

/// Sample a balanced pair dataset from Dataset I. Positive pairs are two
/// variants of the same source function; negatives pair it with a random
/// different function.
pub fn sample_pairs(ds: &Dataset1, cfg: &DetectorConfig, norm: &Normalizer) -> PairDataset {
    let ex = extract_dataset(ds);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);

    // Index variants by source identity.
    let mut groups: HashMap<(usize, &str), Vec<(usize, usize)>> = HashMap::new();
    for (vi, ids) in ex.identity.iter().enumerate() {
        for (fi, (lib, name)) in ids.iter().enumerate() {
            groups.entry((*lib, name.as_str())).or_default().push((vi, fi));
        }
    }
    let group_list: Vec<&Vec<(usize, usize)>> = {
        let mut keys: Vec<_> = groups.keys().copied().collect();
        keys.sort(); // determinism
        keys.iter().map(|k| &groups[k]).collect()
    };

    let mut rows: Vec<Vec<f32>> = Vec::new();
    let mut y: Vec<f32> = Vec::new();
    let total_variants = ex.features.len();
    for (gi, members) in group_list.iter().enumerate() {
        if members.len() < 2 {
            continue;
        }
        for _ in 0..cfg.pairs_per_function {
            // Positive pair: two distinct variants of this function.
            let a = members[rng.gen_range(0..members.len())];
            let mut b = members[rng.gen_range(0..members.len())];
            let mut guard = 0;
            while b == a && guard < 8 {
                b = members[rng.gen_range(0..members.len())];
                guard += 1;
            }
            if a == b {
                continue;
            }
            rows.push(norm.pair_input(&ex.features[a.0][a.1], &ex.features[b.0][b.1]));
            y.push(1.0);
            // Negative pair: this function against a random other one.
            let mut ov = rng.gen_range(0..total_variants);
            let mut of = rng.gen_range(0..ex.features[ov].len());
            let mut guard = 0;
            while ex.identity[ov][of] == ex.identity[a.0][a.1] && guard < 8 {
                ov = rng.gen_range(0..total_variants);
                of = rng.gen_range(0..ex.features[ov].len());
                guard += 1;
            }
            rows.push(norm.pair_input(&ex.features[a.0][a.1], &ex.features[ov][of]));
            y.push(0.0);
        }
        let _ = gi;
    }

    let cols = rows.first().map(|r| r.len()).unwrap_or(96);
    let mut x = Matrix::zeros(rows.len(), cols);
    for (r, row) in rows.iter().enumerate() {
        x.row_mut(r).copy_from_slice(row);
    }
    PairDataset { x, y }
}

/// Train the detector on Dataset I, splitting pairs 60/20/20 into
/// train/validation/test as the paper does (1,222,663 / 407,554 / 407,555).
/// Returns the detector, the Figure-8 history, and the test metrics.
pub fn train(ds: &Dataset1, cfg: &DetectorConfig) -> (Detector, TrainHistory, TestMetrics) {
    // Fit the normalizer on every function of every variant.
    let mut corpus = Vec::new();
    for v in &ds.variants {
        corpus.extend(features::extract_all(&v.binary).expect("dataset binaries decode"));
    }
    let norm = Normalizer::fit(&corpus);
    drop(corpus);

    let pairs = sample_pairs(ds, cfg, &norm);
    let n = pairs.x.rows();
    // Shuffled split.
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x5151);
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let n_train = n * 6 / 10;
    let n_val = n * 2 / 10;
    let take = |idx: &[usize]| -> (Matrix, Vec<f32>) {
        (pairs.x.gather_rows(idx), idx.iter().map(|&i| pairs.y[i]).collect())
    };
    let (tx, ty) = take(&order[..n_train]);
    let (vx, vy) = take(&order[n_train..n_train + n_val]);
    let (sx, sy) = take(&order[n_train + n_val..]);

    let mut net = Mlp::new(&MODEL_DIMS, cfg.seed ^ 0x77);
    let history = net::train(&mut net, &tx, &ty, &vx, &vy, &cfg.train);

    let test_probs = net.predict(&sx);
    let metrics = TestMetrics {
        accuracy: metrics::accuracy(&test_probs, &sy, 0.5),
        auc: metrics::auc(&test_probs, &sy),
        pairs: sy.len(),
    };
    (Detector { net, norm, threshold: cfg.threshold }, history, metrics)
}

impl Detector {
    /// A digest of everything a static scan reads from the detector: each
    /// layer's shape, weight bits and bias bits, the normalizer's
    /// statistics and the threshold. It is computed afresh on each call
    /// (about 23k parameter words, folded a word at a time), so a
    /// detector changed through its public fields digests differently
    /// the next time it is asked.
    pub fn fingerprint(&self) -> (u64, u64) {
        let mut h = crate::dynsource::Fnv2::new();
        h.update(b"detector");
        h.update_u64(self.net.num_layers() as u64);
        for li in 0..self.net.num_layers() {
            let (w, b) = self.net.layer_params(li);
            h.update_u64(w.rows() as u64);
            h.update_u64(w.cols() as u64);
            h.update_u64(b.len() as u64);
            let params = w.as_slice().iter().chain(b);
            h.update_words(params.map(|x| u64::from(x.to_bits())));
        }
        self.norm.digest_into(&mut h);
        h.update_u32(self.threshold.to_bits());
        (h.hi, h.lo)
    }

    /// Similarity probability of one pair.
    pub fn similarity(&self, a: &StaticFeatures, b: &StaticFeatures) -> f32 {
        let input = self.norm.pair_input(a, b);
        let x = Matrix::from_vec(1, input.len(), input);
        self.net.predict(&x)[0]
    }

    /// Classify many arbitrary feature pairs in one forward pass: all 96-wide
    /// pair inputs are packed into a single `(pairs, 96)` matrix, so each
    /// layer runs one GEMM for the whole batch instead of one per pair.
    /// Probabilities match per-pair [`Detector::similarity`] exactly (the
    /// forward pass is row-independent).
    pub fn classify_batch(&self, pairs: &[(&StaticFeatures, &StaticFeatures)]) -> Vec<f32> {
        if pairs.is_empty() {
            return Vec::new();
        }
        let mut x = Matrix::zeros(pairs.len(), self.net.input_dim());
        for (r, (a, b)) in pairs.iter().enumerate() {
            x.row_mut(r).copy_from_slice(&self.norm.pair_input(a, b));
        }
        self.net.predict(&x)
    }

    /// Classify a list of (reference, target) index pairs in one forward
    /// pass: `scores[p]` is the probability of
    /// `pairs[p] = (reference_index, target_index)`. The static scan's one
    /// scoring path — the exact scan passes every pair, indexed retrieval
    /// only the candidates it selects.
    ///
    /// Two structural savings over the pairwise
    /// [`Detector::classify_batch`]: each feature vector the list touches
    /// is normalized exactly once (not once per pair), and the first dense
    /// layer is factorized through the pair structure —
    /// `[rn_i, tn_j]·W₁ = rn_i·W₁ᵗᵒᵖ + tn_j·W₁ᵇᵒᵗ` — so the layer costs one
    /// small GEMM per *side* over the touched rows plus an O(pairs·width)
    /// gather-combine instead of a GEMM over every pair.
    /// The two partial sums are added per element (instead of one long
    /// ascending chain), which is why scores match the pairwise path to
    /// `1e-6` rather than bitwise.
    ///
    /// A pair's score depends only on its own two rows: projection and
    /// the downstream layers are row-independent, and the combine is the
    /// same per-element `rv + tv + bias` for every pair. So a score is
    /// bitwise the same whichever list carries the pair, which is what
    /// makes indexed retrieval at full K reproduce the exact scan.
    ///
    /// The same property lets the call score each distinct *content* pair
    /// once. The touched rows are made canonical by their `f64` bit
    /// patterns, so indices whose 48 features are bitwise equal share one
    /// normalized, projected row. A dense slot table over (distinct
    /// reference row, distinct target row) then maps every pair to its
    /// distinct pair; each distinct pair is scored once and its score is
    /// copied back to every pair that carries it. The output is bitwise
    /// what scoring every pair would give. The table holds 4 bytes per
    /// (distinct reference row, distinct target row) the list touches:
    /// at most half the 8 bytes per pair of the list that pairs every one
    /// of those rows, which is the exact scan's own list. How much this
    /// saves depends on the duplicate rate: many small functions map onto
    /// the same Table I row. The global counters `classify.pairs` and
    /// `classify.pairs_scored` count the pairs requested and the pairs
    /// actually scored.
    ///
    /// A list of more than `CHUNK_PAIRS` distinct pairs is scored in
    /// chunks of that many, one task per chunk in a single dispatch on
    /// the shared [`neural::pool`]. Each row is still normalized and
    /// projected once per call; only the combine and the layers after the
    /// first run per chunk, inside their task, so a chunk's activations
    /// stay in cache. Chunking cannot change a bit, by the same row
    /// independence. A list that fits one chunk is scored in one forward
    /// pass, without a chunk dispatch.
    ///
    /// # Panics
    /// Panics if a pair indexes out of `references`/`targets` range.
    pub fn classify_pairs(
        &self,
        references: &[StaticFeatures],
        targets: &[StaticFeatures],
        pairs: &[(u32, u32)],
    ) -> Vec<f32> {
        self.classify_pairs_on(neural::pool::global(), scope::global(), references, targets, pairs)
    }

    /// [`Detector::classify_pairs`] with its chunks dispatched on `pool`
    /// and its counters added to `metrics`.
    fn classify_pairs_on(
        &self,
        pool: &WorkerPool,
        metrics: &MetricsRegistry,
        references: &[StaticFeatures],
        targets: &[StaticFeatures],
        pairs: &[(u32, u32)],
    ) -> Vec<f32> {
        if pairs.is_empty() {
            return Vec::new();
        }
        let half = self.net.input_dim() / 2;
        let (w1, b1) = self.net.layer_params(0);
        let n1 = w1.cols();
        let relu = self.net.num_layers() > 1;
        // Project only the distinct rows the pair list actually touches —
        // the point of sparse classification is staying sub-linear in the
        // reference DB, so the first-layer projection must not run over
        // every reference. A projected row depends only on its own
        // normalized input, so gathering keeps rows bitwise-identical.
        let (ref_rows, ref_map) = gather_used(pairs.iter().map(|&(r, _)| r), references);
        let (tgt_rows, tgt_map) = gather_used(pairs.iter().map(|&(_, t)| t), targets);
        let rn = Matrix::from_vec(
            ref_rows.len(),
            half,
            ref_rows.iter().flat_map(|&r| self.norm.apply(&references[r as usize])).collect(),
        );
        let tn = Matrix::from_vec(
            tgt_rows.len(),
            half,
            tgt_rows.iter().flat_map(|&t| self.norm.apply(&targets[t as usize])).collect(),
        );
        let w_top = Matrix::from_fn(half, n1, |r, c| w1.get(r, c));
        let w_bot = Matrix::from_fn(half, n1, |r, c| w1.get(r + half, c));
        let rpart = rn.matmul(&w_top);
        let tpart = tn.matmul(&w_bot);
        let (scored, slot_of) = distinct_pairs(
            pairs.iter().map(|&(r, t)| (ref_map[r as usize], tgt_map[t as usize])),
            ref_rows.len(),
            tgt_rows.len(),
        );
        metrics.add("classify.pairs", pairs.len() as u64);
        metrics.add("classify.pairs_scored", scored.len() as u64);
        let scores = if scored.len() <= CHUNK_PAIRS {
            let h = Matrix::combine_pairs(&rpart, &tpart, &scored, b1, relu);
            self.net.predict_from(1, h)
        } else {
            // Pool tasks are `'static`: share the projected halves, the
            // pair list and the network (whose first layer supplies the
            // bias).
            let (rpart, tpart) = (Arc::new(rpart), Arc::new(tpart));
            let (scored, net) = (Arc::new(scored), Arc::new(self.net.clone()));
            let tasks: Vec<_> = (0..scored.len())
                .step_by(CHUNK_PAIRS)
                .map(|start| {
                    let (rpart, tpart) = (Arc::clone(&rpart), Arc::clone(&tpart));
                    let (pairs, net) = (Arc::clone(&scored), Arc::clone(&net));
                    move || {
                        let chunk = &pairs[start..(start + CHUNK_PAIRS).min(pairs.len())];
                        let bias = net.layer_params(0).1;
                        let h = Matrix::combine_pairs(&rpart, &tpart, chunk, bias, relu);
                        net.predict_from(1, h)
                    }
                })
                .collect();
            pool.run(tasks).concat()
        };
        slot_of.iter().map(|&s| scores[s as usize]).collect()
    }
}

/// The distinct rows of `rows` that `it` touches, canonical by content:
/// `used` holds the index where each distinct row first appears, and
/// `map[i]` is index `i`'s distinct row (`u32::MAX` = untouched). Indices
/// whose features are bitwise equal as `f64` bit patterns share a row.
fn gather_used(it: impl Iterator<Item = u32>, rows: &[StaticFeatures]) -> (Vec<u32>, Vec<u32>) {
    let mut map = vec![u32::MAX; rows.len()];
    let mut by_content: HashMap<[u64; NUM_STATIC_FEATURES], u32> = HashMap::new();
    let mut used = Vec::new();
    for i in it {
        let slot = &mut map[i as usize];
        if *slot == u32::MAX {
            let bits = rows[i as usize].0.map(f64::to_bits);
            *slot = *by_content.entry(bits).or_insert_with(|| {
                used.push(i);
                used.len() as u32 - 1
            });
        }
    }
    (used, map)
}

/// Each distinct pair of `pairs` (over `refs` × `targets` distinct rows)
/// once, in first-appearance order, and each pair's index into that list,
/// found through a dense `refs × targets` slot table.
fn distinct_pairs(
    pairs: impl Iterator<Item = (u32, u32)>,
    refs: usize,
    targets: usize,
) -> (Vec<(u32, u32)>, Vec<u32>) {
    let mut table = vec![u32::MAX; refs * targets];
    let mut distinct = Vec::new();
    let slot_of = pairs
        .map(|(r, t)| {
            let slot = &mut table[r as usize * targets + t as usize];
            if *slot == u32::MAX {
                *slot = distinct.len() as u32;
                distinct.push((r, t));
            }
            *slot
        })
        .collect();
    (distinct, slot_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::dataset1::Dataset1Config;

    fn tiny_dataset() -> Dataset1 {
        corpus::build_dataset1(&Dataset1Config {
            num_libraries: 6,
            min_functions: 5,
            max_functions: 7,
            seed: 21,
            include_catalog: false,
        })
    }

    #[test]
    fn pair_sampling_is_balanced() {
        let ds = tiny_dataset();
        let cfg = DetectorConfig { pairs_per_function: 2, ..DetectorConfig::default() };
        let mut corpus = Vec::new();
        for v in &ds.variants {
            corpus.extend(crate::features::extract_all(&v.binary).unwrap());
        }
        let norm = Normalizer::fit(&corpus);
        let pairs = sample_pairs(&ds, &cfg, &norm);
        let pos = pairs.y.iter().filter(|y| **y == 1.0).count();
        let neg = pairs.y.len() - pos;
        assert_eq!(pos, neg, "balanced pos/neg");
        assert!(pairs.y.len() > 50);
        assert_eq!(pairs.x.cols(), 96);
    }

    #[test]
    fn training_learns_cross_platform_similarity() {
        let ds = tiny_dataset();
        let cfg = DetectorConfig {
            pairs_per_function: 6,
            train: TrainConfig { epochs: 20, batch: 64, lr: 2e-3, seed: 3, ..Default::default() },
            ..DetectorConfig::default()
        };
        let (det, history, metrics) = train(&ds, &cfg);
        assert_eq!(history.epochs.len(), cfg.train.epochs);
        assert!(
            metrics.accuracy > 0.8,
            "even a tiny corpus should separate reasonably, got {}",
            metrics.accuracy
        );
        assert!(metrics.auc > 0.85, "AUC {}", metrics.auc);

        // Spot check: variant pair of the same function scores high.
        let v0 = &ds.variants[0];
        let v1 = ds.variants_of(0).nth(3).unwrap();
        let f0 = crate::features::extract_all(&v0.binary).unwrap();
        let f1 = crate::features::extract_all(&v1.binary).unwrap();
        let same = det.similarity(&f0[0], &f1[0]);
        let diff = det.similarity(&f0[0], &f1[3]);
        assert!(same > diff, "same-source {same} vs different {diff}");
    }

    #[test]
    fn classify_batch_matches_per_pair_similarity() {
        let ds = tiny_dataset();
        let cfg = DetectorConfig {
            pairs_per_function: 2,
            train: TrainConfig { epochs: 20, batch: 64, lr: 2e-3, seed: 3, ..Default::default() },
            ..DetectorConfig::default()
        };
        let (det, _, _) = train(&ds, &cfg);
        let fs = crate::features::extract_all(&ds.variants[0].binary).unwrap();
        let gs = crate::features::extract_all(&ds.variants[1].binary).unwrap();
        // Arbitrary cross pairs, not one-reference-many-targets.
        let pairs: Vec<(&StaticFeatures, &StaticFeatures)> =
            fs.iter().flat_map(|a| gs.iter().map(move |b| (a, b))).collect();
        let batch = det.classify_batch(&pairs);
        assert_eq!(batch.len(), pairs.len());
        for (p, (a, b)) in batch.iter().zip(&pairs) {
            assert!((p - det.similarity(a, b)).abs() < 1e-6);
        }
        assert!(det.classify_batch(&[]).is_empty());
    }

    /// Every (reference, target) pair, reference-major:
    /// `all[i * targets + j] = (i, j)`.
    fn full_pair_list(refs: usize, targets: usize) -> Vec<(u32, u32)> {
        (0..refs as u32).flat_map(|i| (0..targets as u32).map(move |j| (i, j))).collect()
    }

    #[test]
    fn classify_pairs_full_list_matches_classify_batch() {
        let ds = tiny_dataset();
        let cfg = DetectorConfig {
            pairs_per_function: 2,
            train: TrainConfig { epochs: 20, batch: 64, lr: 2e-3, seed: 3, ..Default::default() },
            ..DetectorConfig::default()
        };
        let (det, _, _) = train(&ds, &cfg);
        let features = |v: usize| crate::features::extract_all(&ds.variants[v].binary).unwrap();
        let refs = features(0);
        // One variant's functions, then more variants' until the list
        // is scored in more than one chunk of distinct pairs.
        let mut wide = Vec::new();
        for v in 1..ds.variants.len() {
            if refs.len() * wide.len() > 3 * CHUNK_PAIRS {
                break;
            }
            wide.extend(features(v));
        }
        let chunked = CHUNK_PAIRS as u64 + 1;
        for (targets, min_scored) in [(features(1), 0), (wide, chunked)] {
            let what = format!("{}x{} pairs", refs.len(), targets.len());
            let pairs: Vec<(&StaticFeatures, &StaticFeatures)> =
                refs.iter().flat_map(|a| targets.iter().map(move |b| (a, b))).collect();
            // The factorized first layer splits each pair's reduction into
            // a reference partial plus a target partial, so scores agree
            // with the pairwise path to tolerance rather than bitwise.
            let metrics = MetricsRegistry::new();
            let all = full_pair_list(refs.len(), targets.len());
            let full =
                det.classify_pairs_on(neural::pool::global(), &metrics, &refs, &targets, &all);
            let batch = det.classify_batch(&pairs);
            assert_eq!(full.len(), batch.len(), "{what}");
            for (p, q) in full.iter().zip(&batch) {
                assert!((p - q).abs() <= 1e-6, "{what}: {p} vs {q}");
            }
            let scored = metrics.snapshot().counter("classify.pairs_scored");
            assert!(scored >= min_scored, "{what}: {scored} distinct pairs");
        }
        assert!(det.classify_pairs(&[], &refs, &[]).is_empty());
        assert!(det.classify_pairs(&refs, &[], &[]).is_empty());
    }

    #[test]
    fn classify_pairs_scores_are_bitwise_independent_of_the_list() {
        let ds = tiny_dataset();
        let cfg = DetectorConfig {
            pairs_per_function: 2,
            train: TrainConfig { epochs: 20, batch: 64, lr: 2e-3, seed: 3, ..Default::default() },
            ..DetectorConfig::default()
        };
        let (det, _, _) = train(&ds, &cfg);
        let refs = crate::features::extract_all(&ds.variants[0].binary).unwrap();
        let targets = crate::features::extract_all(&ds.variants[1].binary).unwrap();
        let all = full_pair_list(refs.len(), targets.len());
        let full = det.classify_pairs(&refs, &targets, &all);
        let expect = |i: u32, j: u32| full[i as usize * targets.len() + j as usize];

        // The exact scan's target-major order: every score must match its
        // reference-major row *bitwise* (the downstream layers are
        // row-independent).
        let by_target: Vec<(u32, u32)> = (0..targets.len() as u32)
            .flat_map(|j| (0..refs.len() as u32).map(move |i| (i, j)))
            .collect();
        let scores = det.classify_pairs(&refs, &targets, &by_target);
        for (&(i, j), s) in by_target.iter().zip(&scores) {
            assert_eq!(s.to_bits(), expect(i, j).to_bits(), "target-major pair ({i},{j})");
        }

        // An arbitrary sparse subset (every third pair, reversed) too.
        let sparse: Vec<(u32, u32)> = all.iter().rev().step_by(3).copied().collect();
        let sparse_scores = det.classify_pairs(&refs, &targets, &sparse);
        for (&(i, j), s) in sparse.iter().zip(&sparse_scores) {
            assert_eq!(s.to_bits(), expect(i, j).to_bits(), "sparse pair ({i},{j})");
        }

        assert!(det.classify_pairs(&refs, &targets, &[]).is_empty());

        // A list of more than two chunks of distinct pairs, with its chunks
        // run inline and on a private 2-wide pool (independent of the
        // global width), scores as it does cut into lists of one chunk,
        // each scored in one forward pass. The list runs over widened rows:
        // the tiny rows give too few distinct pairs to fill one chunk.
        let (refs, targets) = (widened(&refs), widened(&targets));
        let long = full_pair_list(refs.len(), targets.len());
        let by_chunk: Vec<f32> =
            long.chunks(CHUNK_PAIRS).flat_map(|c| det.classify_pairs(&refs, &targets, c)).collect();
        let global = scope::global();
        for (width, runs) in
            [(1, global.counter("pool.inline_runs")), (2, global.counter("pool.dispatches"))]
        {
            let (pool, metrics) = (WorkerPool::new(width), MetricsRegistry::new());
            let before = runs.get();
            let scores = det.classify_pairs_on(&pool, &metrics, &refs, &targets, &long);
            assert!(runs.get() > before, "width {width}: the chunks never reached the pool");
            let scored = metrics.snapshot().counter("classify.pairs_scored");
            assert!(scored > 2 * CHUNK_PAIRS as u64, "width {width}: {scored} distinct pairs");
            assert_eq!(scores.len(), long.len());
            for (p, (s, want)) in scores.iter().zip(&by_chunk).enumerate() {
                assert_eq!(s.to_bits(), want.to_bits(), "width {width}, pair {p}");
            }
        }
    }

    /// `base`, then its first row with one feature raised (one row per
    /// feature and step), then `base` again: every base row recurs at a
    /// non-adjacent position, and 96 rows differ from the first in exactly
    /// one of the 48 features.
    fn widened(base: &[StaticFeatures]) -> Vec<StaticFeatures> {
        let mut rows = base.to_vec();
        for step in [1.0, 2.0] {
            rows.extend((0..NUM_STATIC_FEATURES).map(|k| {
                let mut row = base[0].clone();
                row.0[k] += step;
                row
            }));
        }
        rows.extend_from_slice(base);
        rows
    }

    /// Content dedup is invisible. Rows that recur at non-adjacent
    /// positions, and rows one feature apart, score bitwise as each pair's
    /// one-pair call does, in dense and sparse lists under and over one
    /// chunk, and `classify.pairs_scored` counts the distinct content
    /// pairs.
    #[test]
    fn duplicate_rows_score_once_and_bitwise_as_one_pair_calls() {
        use std::collections::HashSet;
        let det = crate::testutil::shared_detector();
        let ds = tiny_dataset();
        let base_refs = crate::features::extract_all(&ds.variants[0].binary).unwrap();
        let base_targets = crate::features::extract_all(&ds.variants[1].binary).unwrap();
        let (refs, targets) = (widened(&base_refs), widened(&base_targets));
        let (nr, nt) = (refs.len() as u32, targets.len() as u32);
        // Row 0 with its last feature raised by 1, on either side.
        let (r47, t47) = (base_refs.len() + 47, base_targets.len() + 47);
        let bits = |f: &StaticFeatures| f.0.map(f64::to_bits);
        assert_eq!(bits(&refs[0])[..47], bits(&refs[r47])[..47]);
        assert_eq!(bits(&targets[0])[..47], bits(&targets[t47])[..47]);
        let one = |r: u32, t: u32| det.classify_pairs(&refs, &targets, &[(r, t)])[0].to_bits();
        assert_ne!(one(0, 0), one(r47 as u32, 0), "rows one feature apart must score apart");
        assert_ne!(one(0, 0), one(0, t47 as u32), "rows one feature apart must score apart");

        // Base rows, their repeats and the last-feature neighbour.
        let near = |i: usize, base: usize| i < base || i == base + 47 || i >= base + 96;
        let every_ref_vs_near_targets: Vec<(u32, u32)> = (0..nt)
            .filter(|&t| near(t as usize, base_targets.len()))
            .flat_map(|t| (0..nr).map(move |r| (r, t)))
            .collect();
        let near_only: Vec<(u32, u32)> = every_ref_vs_near_targets
            .iter()
            .copied()
            .filter(|&(r, _)| near(r as usize, base_refs.len()))
            .collect();
        let n = nr.min(nt);
        let diagonal: Vec<(u32, u32)> = (0..n).chain((0..n).rev()).map(|i| (i, i)).collect();
        let shifted: Vec<(u32, u32)> =
            (0..5).flat_map(|s| (0..n).map(move |i| (i, (i + s) % nt))).collect();
        let cases = [
            ("every ref x near targets", every_ref_vs_near_targets),
            ("near rows only", near_only),
            ("diagonal", diagonal),
            ("shifted diagonals", shifted),
        ];
        for long in [false, true] {
            let (dense, sparse) = (&cases[..2], &cases[2..]);
            assert!(dense.iter().any(|(_, l)| (l.len() > CHUNK_PAIRS) == long));
            assert!(sparse.iter().any(|(_, l)| (l.len() > CHUNK_PAIRS) == long));
        }

        let pool = WorkerPool::new(2);
        let mut expect: HashMap<(u32, u32), u32> = HashMap::new();
        for (name, list) in &cases {
            let content_pairs: HashSet<_> = list
                .iter()
                .map(|&(r, t)| (bits(&refs[r as usize]), bits(&targets[t as usize])))
                .collect();
            assert!(content_pairs.len() < list.len(), "{name}: fixture has no duplicate pair");

            let metrics = MetricsRegistry::new();
            let scores = det.classify_pairs_on(&pool, &metrics, &refs, &targets, list);
            assert_eq!(scores.len(), list.len(), "{name}");
            for (p, (&(r, t), s)) in list.iter().zip(&scores).enumerate() {
                let want = *expect.entry((r, t)).or_insert_with(|| one(r, t));
                assert_eq!(s.to_bits(), want, "{name}: pair {p} ({r}, {t})");
            }
            let counters = metrics.snapshot();
            assert_eq!(counters.counter("classify.pairs"), list.len() as u64, "{name}");
            let scored = counters.counter("classify.pairs_scored");
            assert_eq!(scored, content_pairs.len() as u64, "{name}");
        }
    }

    #[test]
    fn model_has_six_layers_and_96_inputs() {
        let net = Mlp::new(&MODEL_DIMS, 0);
        assert_eq!(net.num_layers(), 6);
        assert_eq!(net.input_dim(), 96);
    }
}
