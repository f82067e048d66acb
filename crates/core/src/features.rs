//! The 48 static function features of Table I, extracted from a
//! disassembled function exactly as the paper's IDA Pro plugin does —
//! function-level counts, basic-block statistics, IDA `fcb_*` block-type
//! counts, per-block call/arith/FP-arith statistics, and betweenness
//! centrality statistics.

use disasm::{graph, BlockKind, FunctionDisasm};
use fwbin::format::FuncRecord;
use fwbin::isa::Inst;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Number of static features (Table I).
pub const NUM_STATIC_FEATURES: usize = 48;

/// Table I feature names, in extraction order.
pub const STATIC_FEATURE_NAMES: [&str; NUM_STATIC_FEATURES] = [
    "num_constant",
    "num_string",
    "num_inst",
    "size_local",
    "fun_flag",
    "num_import",
    "num_ox",
    "num_cx",
    "size_fun",
    "min_i_b",
    "max_i_b",
    "avg_i_b",
    "std_i_b",
    "min_s_b",
    "max_s_b",
    "avg_s_b",
    "std_s_b",
    "num_bb",
    "num_edge",
    "cyclomatic_complexity",
    "fcb_normal",
    "fcb_indjump",
    "fcb_ret",
    "fcb_cndret",
    "fcb_noret",
    "fcb_enoret",
    "fcb_extern",
    "fcb_error",
    "min_call_b",
    "max_call_b",
    "avg_call_b",
    "std_call_b",
    "sum_call_b",
    "min_arith_b",
    "max_arith_b",
    "avg_arith_b",
    "std_arith_b",
    "sum_arith_b",
    "min_arith_fp_b",
    "max_arith_fp_b",
    "avg_arith_fp_b",
    "std_arith_fp_b",
    "sum_arith_fp_b",
    "min_betweeness_cent",
    "max_betweeness_cent",
    "avg_betweeness_cent",
    "std_betweeness_cent",
    "betweeness_cent_zero",
];

/// Function flag bits packed into the `fun_flag` feature.
pub mod fun_flags {
    /// Function appears in the export table.
    pub const EXPORTED: u32 = 1 << 0;
    /// No reachable return block (`FUNC_NORET` analog).
    pub const NORET: u32 = 1 << 1;
    /// Leaf function (no calls).
    pub const LEAF: u32 = 1 << 2;
    /// Uses floating point.
    pub const USES_FP: u32 = 1 << 3;
}

/// One function's static feature vector.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticFeatures(pub [f64; NUM_STATIC_FEATURES]);

impl Serialize for StaticFeatures {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.0.as_slice().serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for StaticFeatures {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let v = Vec::<f64>::deserialize(deserializer)?;
        let arr: [f64; NUM_STATIC_FEATURES] = v
            .try_into()
            .map_err(|v: Vec<f64>| serde::de::Error::invalid_length(v.len(), &"48 features"))?;
        Ok(StaticFeatures(arr))
    }
}

impl StaticFeatures {
    /// Feature by name (test/report convenience).
    pub fn by_name(&self, name: &str) -> Option<f64> {
        STATIC_FEATURE_NAMES.iter().position(|n| *n == name).map(|i| self.0[i])
    }

    /// The underlying slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }
}

/// Extract the Table I features for one disassembled function.
pub fn extract(dis: &FunctionDisasm, rec: &FuncRecord) -> StaticFeatures {
    let mut constants: HashSet<i64> = HashSet::new();
    let mut strings: HashSet<u32> = HashSet::new();
    let mut imports: HashSet<u32> = HashSet::new();
    let mut code_refs: HashSet<u64> = HashSet::new();
    let mut num_cx = 0u32;
    let mut uses_fp = false;

    for (inst, _) in &dis.insts {
        match inst {
            Inst::MovImm { imm, .. } | Inst::BinImm { imm, .. } => {
                constants.insert(*imm);
            }
            Inst::FMovImm { imm, .. } => {
                constants.insert(imm.to_bits() as i64);
                uses_fp = true;
            }
            Inst::LoadStr { sid, .. } => {
                strings.insert(*sid);
            }
            Inst::Call { sym } => {
                num_cx += 1;
                if sym.is_import() {
                    imports.insert(sym.index());
                }
                code_refs.insert(0x1_0000_0000 | sym.0 as u64);
            }
            _ => {}
        }
        if inst.is_arith_fp() {
            uses_fp = true;
        }
        if let Some(t) = inst.target() {
            code_refs.insert(t as u64);
        }
    }

    let cfg = &dis.cfg;
    let has_ret = cfg.count_kind(BlockKind::Ret) + cfg.count_kind(BlockKind::CndRet) > 0;
    let mut flag = 0u32;
    if rec.exported {
        flag |= fun_flags::EXPORTED;
    }
    if !has_ret {
        flag |= fun_flags::NORET;
    }
    if num_cx == 0 {
        flag |= fun_flags::LEAF;
    }
    if uses_fp {
        flag |= fun_flags::USES_FP;
    }

    // Per-block statistics.
    let n_blocks = cfg.blocks.len();
    let mut insts_b = Vec::with_capacity(n_blocks);
    let mut size_b = Vec::with_capacity(n_blocks);
    let mut call_b = Vec::with_capacity(n_blocks);
    let mut arith_b = Vec::with_capacity(n_blocks);
    let mut arith_fp_b = Vec::with_capacity(n_blocks);
    for b in 0..n_blocks {
        let blk = &cfg.blocks[b];
        let insts = dis.block_insts(b);
        insts_b.push(blk.len() as f64);
        size_b.push(blk.byte_size as f64);
        call_b.push(insts.iter().filter(|(i, _)| matches!(i, Inst::Call { .. })).count() as f64);
        arith_b.push(insts.iter().filter(|(i, _)| i.is_arith()).count() as f64);
        arith_fp_b.push(insts.iter().filter(|(i, _)| i.is_arith_fp()).count() as f64);
    }
    let (min_i, max_i, avg_i, std_i) = graph::stats(&insts_b);
    let (min_s, max_s, avg_s, std_s) = graph::stats(&size_b);
    let (min_c, max_c, avg_c, std_c) = graph::stats(&call_b);
    let sum_c: f64 = call_b.iter().sum();
    let (min_a, max_a, avg_a, std_a) = graph::stats(&arith_b);
    let sum_a: f64 = arith_b.iter().sum();
    let (min_f, max_f, avg_f, std_f) = graph::stats(&arith_fp_b);
    let sum_f: f64 = arith_fp_b.iter().sum();

    let cb = graph::betweenness_centrality(cfg);
    let (min_b, max_b, avg_b, std_b) = graph::stats(&cb);
    let zero_b = cb.iter().filter(|v| **v == 0.0).count() as f64;

    StaticFeatures([
        constants.len() as f64,
        strings.len() as f64,
        dis.inst_count() as f64,
        rec.frame_slots as f64 * 8.0,
        flag as f64,
        imports.len() as f64,
        code_refs.len() as f64,
        num_cx as f64,
        dis.byte_size() as f64,
        min_i,
        max_i,
        avg_i,
        std_i,
        min_s,
        max_s,
        avg_s,
        std_s,
        n_blocks as f64,
        cfg.num_edges as f64,
        cfg.cyclomatic_complexity() as f64,
        cfg.count_kind(BlockKind::Normal) as f64,
        cfg.count_kind(BlockKind::IndJump) as f64,
        cfg.count_kind(BlockKind::Ret) as f64,
        cfg.count_kind(BlockKind::CndRet) as f64,
        cfg.count_kind(BlockKind::NoRet) as f64,
        cfg.count_kind(BlockKind::ExternNoRet) as f64,
        cfg.count_kind(BlockKind::Extern) as f64,
        cfg.count_kind(BlockKind::Error) as f64,
        min_c,
        max_c,
        avg_c,
        std_c,
        sum_c,
        min_a,
        max_a,
        avg_a,
        std_a,
        sum_a,
        min_f,
        max_f,
        avg_f,
        std_f,
        sum_f,
        min_b,
        max_b,
        avg_b,
        std_b,
        zero_b,
    ])
}

/// Extract features for every function of a binary.
///
/// # Errors
/// Returns the first decode error encountered.
pub fn extract_all(bin: &fwbin::Binary) -> Result<Vec<StaticFeatures>, fwbin::encode::DecodeError> {
    (0..bin.function_count())
        .map(|i| Ok(extract(&disasm::disassemble(bin, i)?, &bin.functions[i])))
        .collect()
}

/// Number of extended features appended by [`extract_extended`].
pub const NUM_EXTENDED_FEATURES: usize = 4;

/// Names of the extended (beyond-Table-I) features.
pub const EXTENDED_FEATURE_NAMES: [&str; NUM_EXTENDED_FEATURES] =
    ["num_loops", "max_loop_depth", "num_back_edges", "reachable_blocks"];

/// The paper notes its feature list "is not comprehensive and can easily
/// be extended". This extractor appends four loop-aware features computed
/// from the dominator analysis: natural-loop count, maximum loop-nesting
/// depth, back-edge count, and the number of entry-reachable blocks. Used
/// by the `ablation_feature_set` experiment.
pub fn extract_extended(dis: &disasm::FunctionDisasm, rec: &fwbin::FuncRecord) -> Vec<f64> {
    let base = extract(dis, rec);
    let loops = disasm::natural_loops(&dis.cfg);
    let dom = disasm::Dominators::compute(&dis.cfg);
    let reachable =
        (0..dis.cfg.blocks.len()).filter(|&b| dom.reachable(b as u32)).count() as f64;
    let mut headers: Vec<u32> = loops.iter().map(|l| l.header).collect();
    headers.sort_unstable();
    headers.dedup();
    let mut out = base.as_slice().to_vec();
    out.push(headers.len() as f64);
    out.push(disasm::max_loop_depth(&dis.cfg) as f64);
    out.push(loops.len() as f64);
    out.push(reachable);
    out
}

/// Feature normalizer: signed `ln(1+|x|)` transform followed by z-scoring
/// with statistics fit on a training corpus. Stored inside trained models
/// so inference uses the same scaling.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Normalizer {
    mean: Vec<f64>,
    std: Vec<f64>,
}

pub(crate) fn squash(x: f64) -> f64 {
    x.signum() * (1.0 + x.abs()).ln()
}

impl Normalizer {
    /// Fit on a corpus of feature vectors.
    ///
    /// # Panics
    /// Panics if `corpus` is empty.
    pub fn fit(corpus: &[StaticFeatures]) -> Normalizer {
        assert!(!corpus.is_empty(), "cannot fit a normalizer on an empty corpus");
        let n = corpus.len() as f64;
        let mut mean = vec![0.0; NUM_STATIC_FEATURES];
        for f in corpus {
            for (m, v) in mean.iter_mut().zip(f.as_slice()) {
                *m += squash(*v);
            }
        }
        for m in mean.iter_mut() {
            *m /= n;
        }
        let mut var = vec![0.0; NUM_STATIC_FEATURES];
        for f in corpus {
            for ((s, v), m) in var.iter_mut().zip(f.as_slice()).zip(&mean) {
                let d = squash(*v) - m;
                *s += d * d;
            }
        }
        let std = var.into_iter().map(|v| (v / n).sqrt().max(1e-6)).collect();
        Normalizer { mean, std }
    }

    /// Normalize one feature vector into `f32` model inputs.
    pub fn apply(&self, f: &StaticFeatures) -> Vec<f32> {
        f.as_slice()
            .iter()
            .zip(&self.mean)
            .zip(&self.std)
            .map(|((v, m), s)| ((squash(*v) - m) / s) as f32)
            .collect()
    }

    /// Build the 96-wide pair input for the classifier.
    pub fn pair_input(&self, a: &StaticFeatures, b: &StaticFeatures) -> Vec<f32> {
        let mut out = self.apply(a);
        out.extend(self.apply(b));
        out
    }

    /// Feed every statistic to `h`, length-prefixed, as exact bits.
    pub(crate) fn digest_into(&self, h: &mut crate::dynsource::Fnv2) {
        for stats in [&self.mean, &self.std] {
            h.update_u64(stats.len() as u64);
            h.update_words(stats.iter().map(|x| x.to_bits()));
        }
    }
}

/// A length-generic variant of [`Normalizer`] for extended feature
/// vectors (used by the feature-set ablation).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VecNormalizer {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl VecNormalizer {
    /// Fit on a corpus of equal-length vectors.
    ///
    /// # Panics
    /// Panics if `corpus` is empty or lengths differ.
    pub fn fit(corpus: &[Vec<f64>]) -> VecNormalizer {
        assert!(!corpus.is_empty());
        let dim = corpus[0].len();
        let n = corpus.len() as f64;
        let mut mean = vec![0.0; dim];
        for v in corpus {
            assert_eq!(v.len(), dim, "inconsistent vector length");
            for (m, x) in mean.iter_mut().zip(v) {
                *m += squash(*x);
            }
        }
        for m in mean.iter_mut() {
            *m /= n;
        }
        let mut var = vec![0.0; dim];
        for v in corpus {
            for ((s, x), m) in var.iter_mut().zip(v).zip(&mean) {
                let d = squash(*x) - m;
                *s += d * d;
            }
        }
        let std = var.into_iter().map(|v| (v / n).sqrt().max(1e-6)).collect();
        VecNormalizer { mean, std }
    }

    /// Normalized Euclidean distance between two raw vectors.
    pub fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .zip(self.mean.iter().zip(&self.std))
            .map(|((x, y), (m, s))| {
                let dx = (squash(*x) - m) / s;
                let dy = (squash(*y) - m) / s;
                (dx - dy) * (dx - dy)
            })
            .sum::<f64>()
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fwbin::isa::{Arch, OptLevel};
    use fwlang::gen::Generator;

    fn features_of(seed: u64, arch: Arch, opt: OptLevel) -> Vec<StaticFeatures> {
        let lib = Generator::new(seed).library_sized("libf", 10);
        let bin = fwbin::compile_library(&lib, arch, opt).unwrap();
        extract_all(&bin).unwrap()
    }

    #[test]
    fn feature_vector_has_48_entries() {
        assert_eq!(STATIC_FEATURE_NAMES.len(), 48);
        let fs = features_of(1, Arch::Arm64, OptLevel::O2);
        for f in &fs {
            assert_eq!(f.as_slice().len(), 48);
        }
    }

    #[test]
    fn block_stats_are_consistent() {
        for f in features_of(2, Arch::X86, OptLevel::O1) {
            let min_i = f.by_name("min_i_b").unwrap();
            let max_i = f.by_name("max_i_b").unwrap();
            let avg_i = f.by_name("avg_i_b").unwrap();
            assert!(min_i <= avg_i && avg_i <= max_i);
            // Block instruction counts total the function instruction count.
            let num_bb = f.by_name("num_bb").unwrap();
            assert!(num_bb * avg_i - f.by_name("num_inst").unwrap() < 1e-6);
        }
    }

    #[test]
    fn cyclomatic_matches_edges_and_nodes() {
        for f in features_of(3, Arch::Arm32, OptLevel::O2) {
            let e = f.by_name("num_edge").unwrap();
            let n = f.by_name("num_bb").unwrap();
            assert_eq!(f.by_name("cyclomatic_complexity").unwrap(), e - n + 2.0);
        }
    }

    #[test]
    fn same_source_features_are_closer_than_different_source() {
        // Core premise of the static stage: cross-platform variants of the
        // same function are closer in feature space than unrelated
        // functions (on average).
        let a = features_of(5, Arch::X86, OptLevel::O1);
        let b = features_of(5, Arch::Arm64, OptLevel::O3);
        let norm = Normalizer::fit(&[a.clone(), b.clone()].concat());
        let dist = |x: &StaticFeatures, y: &StaticFeatures| -> f64 {
            norm.apply(x)
                .iter()
                .zip(norm.apply(y))
                .map(|(p, q)| ((p - q) as f64).powi(2))
                .sum::<f64>()
                .sqrt()
        };
        let mut same = 0.0;
        let mut diff = 0.0;
        let mut diff_n = 0.0;
        for i in 0..a.len() {
            same += dist(&a[i], &b[i]);
            for (j, bj) in b.iter().enumerate() {
                if i != j {
                    diff += dist(&a[i], bj);
                    diff_n += 1.0;
                }
            }
        }
        let same_avg = same / a.len() as f64;
        let diff_avg = diff / diff_n;
        assert!(
            same_avg < diff_avg,
            "same-source avg {same_avg:.3} should beat different-source {diff_avg:.3}"
        );
    }

    #[test]
    fn fun_flags_reflect_function_properties() {
        let lib = Generator::new(9).library_sized("libf", 20);
        let bin = fwbin::compile_library(&lib, Arch::Arm64, OptLevel::O1).unwrap();
        let fs = extract_all(&bin).unwrap();
        for (i, f) in fs.iter().enumerate() {
            let flag = f.by_name("fun_flag").unwrap() as u32;
            assert_eq!(
                flag & fun_flags::EXPORTED != 0,
                bin.functions[i].exported,
                "exported flag mismatch on fn {i}"
            );
            let leaf = f.by_name("num_cx").unwrap() == 0.0;
            assert_eq!(flag & fun_flags::LEAF != 0, leaf);
        }
    }

    #[test]
    fn normalizer_standardizes_corpus() {
        let fs = features_of(11, Arch::Amd64, OptLevel::O2);
        let norm = Normalizer::fit(&fs);
        // Means of the normalized corpus are ~0.
        let mut acc = vec![0.0f64; NUM_STATIC_FEATURES];
        for f in &fs {
            for (a, v) in acc.iter_mut().zip(norm.apply(f)) {
                *a += v as f64;
            }
        }
        for a in &acc {
            assert!((a / fs.len() as f64).abs() < 1e-3);
        }
    }

    #[test]
    fn pair_input_is_96_wide() {
        let fs = features_of(12, Arch::X86, OptLevel::O0);
        let norm = Normalizer::fit(&fs);
        assert_eq!(norm.pair_input(&fs[0], &fs[1]).len(), 96);
    }

    #[test]
    fn by_name_unknown_is_none() {
        let fs = features_of(13, Arch::X86, OptLevel::O0);
        assert!(fs[0].by_name("nope").is_none());
    }
}
