//! Sub-linear candidate retrieval: quantized feature signatures with
//! MinHash/LSH banding in front of the NN scan.
//!
//! The all-pairs static scan costs O(targets × references); a realistic
//! CVE database (thousands of reference functions) drowns the batched
//! GEMM. This module provides the cheap pre-filter: each function's 48
//! static features are squashed (the normalizer's signed `ln(1+|x|)`
//! transform), scaled and rounded into a compact [`FunctionSignature`],
//! and MinHash-banded so near-identical functions collide in at least one
//! LSH bucket. [`SignatureSet::candidates`] retrieves the top-K nearest
//! references per target by cosine distance over the quantized vectors,
//! unions in every LSH band collision as a rescue tier, and only those
//! pairs reach the classifier.
//!
//! Everything here is a pure function of the feature vector — the same
//! features always produce the same signature, so a signature recomputed
//! from cached features is exact and nothing needs to cache signatures.

use crate::features::{self, StaticFeatures, NUM_STATIC_FEATURES};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// MinHash functions per signature.
pub const SIG_HASHES: usize = 16;
/// LSH bands (each band hashes [`SIG_ROWS_PER_BAND`] MinHash rows).
pub const SIG_BANDS: usize = 4;
/// MinHash rows combined into one band key. Four rows per band keeps the
/// per-band collision probability at J⁴ (J = token-set Jaccard), tight
/// enough that unrelated functions — which share many zero-valued feature
/// cells, inflating their baseline Jaccard — rarely collide, while
/// near-duplicates (J → 1) still collide in some band with high
/// probability.
pub const SIG_ROWS_PER_BAND: usize = 4;
/// Default candidate count per target for `--retrieval topk`.
pub const DEFAULT_TOP_K: usize = 16;
/// Quantization scale: squashed features are multiplied by this before
/// rounding to `i16`. The squash transform keeps magnitudes small (ln of
/// 1+|x|), so a scale of 8 preserves ~3 fractional bits.
pub const QUANT_SCALE: f64 = 8.0;
/// Token grid width: quantized values are bucketed into cells of this
/// many quantization steps for MinHash tokens. Each feature emits its
/// cell and the next cell up, so values near a cell edge still share a
/// token with close neighbors across the boundary.
pub const TOKEN_GRID: i32 = 6;

/// The splitmix64 finalizer: a cheap, well-mixed 64-bit permutation used
/// for MinHash token hashing and band keys.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A compact retrieval signature of one function: the 48 static features
/// squashed, scaled by [`QUANT_SCALE`] and rounded to `i16`, plus
/// [`SIG_HASHES`] MinHash values over overlapping-window tokens of the
/// quantized vector.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FunctionSignature {
    /// Quantized (squashed × scale, rounded) feature vector.
    pub q: [i16; NUM_STATIC_FEATURES],
    /// MinHash values, one per hash function.
    pub minhash: [u32; SIG_HASHES],
}

impl FunctionSignature {
    /// Compute the signature of one feature vector. Pure: the same
    /// features always produce the same signature, whether they were
    /// just extracted or served from a cache.
    pub fn of(f: &StaticFeatures) -> FunctionSignature {
        let mut q = [0i16; NUM_STATIC_FEATURES];
        for (qi, &x) in q.iter_mut().zip(f.as_slice()) {
            let scaled = (features::squash(x) * QUANT_SCALE).round();
            *qi = scaled.clamp(f64::from(i16::MIN), f64::from(i16::MAX)) as i16;
        }
        let mut minhash = [u32::MAX; SIG_HASHES];
        for (i, &qi) in q.iter().enumerate() {
            let cell = i32::from(qi).div_euclid(TOKEN_GRID);
            // Overlapping windows: emit this cell and the next one up, so
            // neighbors on opposite sides of a cell edge still share a token.
            for c in [cell, cell + 1] {
                let token = ((i as u64) << 32) ^ u64::from(c as u32);
                // Kirsch–Mitzenmacher: two independent hashes of the token
                // generate all SIG_HASHES MinHash functions as h1 + i·h2 —
                // statistically equivalent to independent hashes for
                // min-wise selection at 2 mixes per token instead of
                // SIG_HASHES.
                let h1 = mix64(token);
                let h2 = mix64(token ^ 0xA076_1D64_78BD_642F);
                for (h, slot) in minhash.iter_mut().enumerate() {
                    let v = h1.wrapping_add((h as u64).wrapping_mul(h2)) as u32;
                    if v < *slot {
                        *slot = v;
                    }
                }
            }
        }
        FunctionSignature { q, minhash }
    }

    /// L1 distance between the quantized vectors.
    pub fn l1(&self, other: &FunctionSignature) -> u32 {
        self.q
            .iter()
            .zip(&other.q)
            .map(|(&a, &b)| (i32::from(a) - i32::from(b)).unsigned_abs())
            .sum()
    }

    /// Cosine distance between the quantized vectors, in [0, 2]. Cross-ISA
    /// and cross-optimization builds of one function inflate feature
    /// magnitudes roughly proportionally (more instructions of every
    /// kind), which cosine is invariant to and absolute distances are not
    /// — this is the retrieval ranking metric. The accumulation is exact
    /// integer arithmetic, so the distance is fully deterministic.
    pub fn cos_dist(&self, other: &FunctionSignature) -> f64 {
        1.0 - self.dot(other) as f64 / (self.norm() * other.norm()).max(1e-12)
    }

    /// Integer dot product of the quantized vectors (exact).
    fn dot(&self, other: &FunctionSignature) -> i64 {
        self.q.iter().zip(&other.q).map(|(&a, &b)| i64::from(a) * i64::from(b)).sum()
    }

    /// Euclidean norm of the quantized vector (`sqrt` of the exact
    /// integer sum of squares).
    fn norm(&self) -> f64 {
        (self.q.iter().map(|&a| i64::from(a) * i64::from(a)).sum::<i64>() as f64).sqrt()
    }
}

/// Order-sensitive 64-bit fingerprint of a feature set — the memo key
/// for reusing a built [`SignatureSet`] across scans against the same
/// reference DB. A multiply-rotate fold over the raw `f64` bits plus a
/// final mix: ~1ns per feature word, negligible next to even a single
/// NN pair classification.
pub fn feature_fingerprint(feats: &[StaticFeatures]) -> u64 {
    let mut h = 0x517c_c1b7_2722_0a95u64 ^ feats.len() as u64;
    for f in feats {
        for &x in f.as_slice() {
            h = (h ^ x.to_bits()).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(23);
        }
    }
    mix64(h)
}

/// LSH bucket key of one band: the band's MinHash rows folded into a u64.
fn band_key(minhash: &[u32; SIG_HASHES], band: usize) -> u64 {
    let mut key = 0xcbf2_9ce4_8422_2325u64;
    for r in 0..SIG_ROWS_PER_BAND {
        key = mix64(key ^ u64::from(minhash[band * SIG_ROWS_PER_BAND + r]));
    }
    key
}

/// An in-memory retrieval structure over a set of signatures (the
/// reference side of a scan): [`SIG_BANDS`] hash tables of LSH buckets
/// plus the signatures themselves for cosine ranking.
pub struct SignatureSet {
    sigs: Vec<FunctionSignature>,
    /// Precomputed quantized-vector norms, one per signature — hoists the
    /// `sqrt(Σq²)` out of the per-(probe, reference) ranking loop.
    norms: Vec<f64>,
    bands: Vec<HashMap<u64, Vec<u32>>>,
}

impl SignatureSet {
    /// Index a set of signatures (position in the slice = retrieval index).
    pub fn build(sigs: &[FunctionSignature]) -> SignatureSet {
        let mut bands: Vec<HashMap<u64, Vec<u32>>> = vec![HashMap::new(); SIG_BANDS];
        for (i, sig) in sigs.iter().enumerate() {
            for (band, buckets) in bands.iter_mut().enumerate() {
                buckets.entry(band_key(&sig.minhash, band)).or_default().push(i as u32);
            }
        }
        let norms = sigs.iter().map(FunctionSignature::norm).collect();
        SignatureSet { sigs: sigs.to_vec(), norms, bands }
    }

    /// Number of indexed signatures.
    pub fn len(&self) -> usize {
        self.sigs.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }

    /// The candidate set for `probe`, ascending by index: the `k` nearest
    /// indexed signatures by [`FunctionSignature::cos_dist`], UNIONED with
    /// every signature sharing at least one LSH band with the probe. The
    /// two tiers fail differently — cosine ranking absorbs proportional
    /// cross-platform feature inflation, banding catches sparse
    /// token-overlap matches that quantized geometry misranks — so their
    /// union retrieves more of the classifier's true argmaxes than either
    /// alone. At least `min(k, len)` candidates are always returned, and
    /// `k >= len` short-circuits to the identity (the exact scan's pair
    /// set). Distances accumulate in exact integer arithmetic with
    /// ascending-index tie-breaks, so the result is fully deterministic.
    ///
    /// Ranking every signature costs ~48 multiply-adds per reference —
    /// three orders of magnitude below one NN pair classification — so
    /// selection stays negligible while the expensive stage shrinks from
    /// O(refs) to O(k) per target.
    pub fn candidates(&self, probe: &FunctionSignature, k: usize) -> Vec<u32> {
        if self.sigs.is_empty() || k == 0 {
            return Vec::new();
        }
        if k >= self.sigs.len() {
            return (0..self.sigs.len() as u32).collect();
        }
        // Same arithmetic as [`FunctionSignature::cos_dist`], with the
        // probe norm computed once and reference norms precomputed at
        // build time — the ranking loop is one 48-element integer dot
        // product per reference.
        let pn = probe.norm();
        let dists: Vec<f64> = self
            .sigs
            .iter()
            .zip(&self.norms)
            .map(|(s, &n)| 1.0 - probe.dot(s) as f64 / (pn * n).max(1e-12))
            .collect();
        let mut ranked: Vec<u32> = (0..self.sigs.len() as u32).collect();
        ranked.sort_unstable_by(|&a, &b| {
            dists[a as usize]
                .partial_cmp(&dists[b as usize])
                .expect("cosine distances are never NaN")
                .then(a.cmp(&b))
        });
        let mut out = ranked;
        out.truncate(k);
        for (band, buckets) in self.bands.iter().enumerate() {
            if let Some(hits) = buckets.get(&band_key(&probe.minhash, band)) {
                // Frequent-bucket cut: a band key shared by more than k
                // references carries no ranking signal (on databases
                // dense with near-duplicates it would degrade retrieval
                // back to all-pairs); the cosine tier already ranks
                // whatever such a bucket holds.
                if hits.len() <= k {
                    out.extend_from_slice(hits);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// How the static scan selects (reference, target) pairs to classify.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Retrieval {
    /// All-pairs: every target is scored against every reference (the
    /// exact baseline).
    #[default]
    Exact,
    /// Signature retrieval: each target is scored only against its `k`
    /// nearest references by quantized-signature distance.
    TopK {
        /// Candidate references per target.
        k: usize,
    },
}

impl std::fmt::Display for Retrieval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Retrieval::Exact => f.write_str("exact"),
            Retrieval::TopK { k } => write!(f, "topk:{k}"),
        }
    }
}

impl std::str::FromStr for Retrieval {
    type Err = String;

    fn from_str(s: &str) -> Result<Retrieval, String> {
        match s {
            "exact" => Ok(Retrieval::Exact),
            "topk" => Ok(Retrieval::TopK { k: DEFAULT_TOP_K }),
            _ => match s.strip_prefix("topk:") {
                Some(n) => {
                    let k: usize =
                        n.parse().map_err(|_| format!("invalid top-K count {n:?}"))?;
                    if k == 0 {
                        return Err("top-K count must be >= 1".to_string());
                    }
                    Ok(Retrieval::TopK { k })
                }
                None => Err(format!("unknown retrieval mode {s:?} (expected exact | topk | topk:K)")),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feat(seed: u64) -> StaticFeatures {
        let mut v = [0.0f64; NUM_STATIC_FEATURES];
        let mut x = seed;
        for (i, slot) in v.iter_mut().enumerate() {
            x = mix64(x ^ i as u64);
            // Mixed magnitudes, signs and zeros, like real features.
            *slot = match x % 5 {
                0 => 0.0,
                1 => (x % 1000) as f64,
                2 => -((x % 50) as f64),
                3 => (x % 7) as f64 / 3.0,
                _ => (x % 100_000) as f64,
            };
        }
        StaticFeatures(v)
    }

    #[test]
    fn signature_is_deterministic_and_serializable() {
        let f = feat(42);
        let a = FunctionSignature::of(&f);
        let b = FunctionSignature::of(&f);
        assert_eq!(a, b);
        let json = serde_json::to_string(&a).unwrap();
        let back: FunctionSignature = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn identical_functions_always_collide() {
        // An identical feature vector has an identical signature: every
        // band matches and the cosine distance is 0, so an exact match is
        // always retrieved even at k = 1.
        let sigs: Vec<FunctionSignature> = (0..50).map(|s| FunctionSignature::of(&feat(s))).collect();
        let set = SignatureSet::build(&sigs);
        for (i, sig) in sigs.iter().enumerate() {
            let got = set.candidates(sig, 1);
            assert!(
                got.iter().any(|&c| sig.l1(&sigs[c as usize]) == 0),
                "probe {i} must retrieve an exact match, got {got:?}"
            );
        }
    }

    #[test]
    fn k_at_least_len_returns_every_index() {
        let sigs: Vec<FunctionSignature> = (0..9).map(|s| FunctionSignature::of(&feat(s))).collect();
        let set = SignatureSet::build(&sigs);
        let probe = FunctionSignature::of(&feat(999));
        for k in [9, 10, 100] {
            assert_eq!(set.candidates(&probe, k), (0..9).collect::<Vec<u32>>());
        }
    }

    #[test]
    fn candidates_sorted_ascending_and_at_least_k() {
        let sigs: Vec<FunctionSignature> = (0..40).map(|s| FunctionSignature::of(&feat(s))).collect();
        let set = SignatureSet::build(&sigs);
        for probe_seed in 0..40 {
            let probe = FunctionSignature::of(&feat(probe_seed));
            let got = set.candidates(&probe, 5);
            // Top-5 by cosine plus the probe's band collisions (at minimum
            // its own identical signature).
            assert!(got.len() >= 5 && got.len() <= 40, "k <= |candidates| <= len: {got:?}");
            assert!(got.windows(2).all(|w| w[0] < w[1]), "ascending, no duplicates: {got:?}");
            assert!(got.contains(&(probe_seed as u32)), "exact match retrieved");
        }
    }

    #[test]
    fn empty_set_and_zero_k_are_well_formed() {
        let set = SignatureSet::build(&[]);
        assert!(set.is_empty());
        assert_eq!(set.len(), 0);
        let probe = FunctionSignature::of(&feat(1));
        assert!(set.candidates(&probe, 4).is_empty());
        let nonempty = SignatureSet::build(std::slice::from_ref(&probe));
        assert!(nonempty.candidates(&probe, 0).is_empty());
    }

    #[test]
    fn near_neighbors_outrank_far_ones() {
        // A lightly perturbed copy of f must rank above unrelated vectors.
        let base = feat(7);
        let mut near_v = base.0;
        near_v[3] += 0.05;
        near_v[17] += 0.1;
        let near = StaticFeatures(near_v);
        let mut sigs: Vec<FunctionSignature> =
            (100..120).map(|s| FunctionSignature::of(&feat(s))).collect();
        sigs.push(FunctionSignature::of(&near)); // index 20
        let set = SignatureSet::build(&sigs);
        let got = set.candidates(&FunctionSignature::of(&base), 1);
        assert!(got.contains(&20), "the near neighbor must be retrieved at k = 1, got {got:?}");
    }

    #[test]
    fn fingerprint_distinguishes_content_order_and_length() {
        let a = vec![feat(1), feat(2), feat(3)];
        let b = vec![feat(1), feat(2), feat(3)];
        assert_eq!(feature_fingerprint(&a), feature_fingerprint(&b), "pure function of content");
        let reordered = vec![feat(2), feat(1), feat(3)];
        assert_ne!(feature_fingerprint(&a), feature_fingerprint(&reordered), "order-sensitive");
        assert_ne!(feature_fingerprint(&a), feature_fingerprint(&a[..2]), "length-sensitive");
        assert_ne!(feature_fingerprint(&[]), feature_fingerprint(&a));
    }

    #[test]
    fn retrieval_mode_parses_and_displays() {
        assert_eq!("exact".parse::<Retrieval>().unwrap(), Retrieval::Exact);
        assert_eq!("topk".parse::<Retrieval>().unwrap(), Retrieval::TopK { k: DEFAULT_TOP_K });
        assert_eq!("topk:3".parse::<Retrieval>().unwrap(), Retrieval::TopK { k: 3 });
        assert!("topk:0".parse::<Retrieval>().is_err());
        assert!("topk:x".parse::<Retrieval>().is_err());
        assert!("fuzzy".parse::<Retrieval>().is_err());
        assert_eq!(Retrieval::Exact.to_string(), "exact");
        assert_eq!(Retrieval::TopK { k: 8 }.to_string(), "topk:8");
        assert_eq!(Retrieval::default(), Retrieval::Exact);
    }
}
