//! # disasm — disassembly substrate
//!
//! Recovers instruction streams and control flow graphs from FWB function
//! records — the substrate role IDA Pro plays in the paper (PATCHECKO "is
//! implemented as a plugin for IDA Pro"; here the plugin host is this
//! crate). Provides:
//!
//! * [`disassemble`] — decode a function record into instructions with byte
//!   sizes and build its [`cfg::Cfg`];
//! * [`cfg`](mod@cfg) — basic blocks, edges, and IDA-style block kinds (`fcb_*`);
//! * [`dom`] — dominator analysis and natural-loop detection;
//! * [`fmt`] — human-readable assembly listings;
//! * [`graph`] — Brandes betweenness centrality and summary statistics.
//!
//! ## Example
//!
//! ```
//! use fwbin::{compile_library, Arch, OptLevel};
//! use fwlang::gen::Generator;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = Generator::new(3).library("libdemo");
//! let bin = compile_library(&lib, Arch::Arm64, OptLevel::O2)?;
//! let dis = disasm::disassemble(&bin, 0)?;
//! assert!(dis.cfg.num_blocks() >= 1);
//! assert_eq!(dis.cfg.cyclomatic_complexity(),
//!            dis.cfg.num_edges as i64 - dis.cfg.num_blocks() as i64 + 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cfg;
pub mod dom;
pub mod fmt;
pub mod graph;

pub use cfg::{BasicBlock, BlockKind, Cfg, CfgSummary};
pub use dom::{max_loop_depth, natural_loops, Dominators, NaturalLoop};

use fwbin::encode::{decode_with_sizes, DecodeError};
use fwbin::format::Binary;
use fwbin::isa::Inst;

/// A disassembled function: decoded instructions (with encoded byte sizes)
/// plus the recovered CFG.
#[derive(Debug, Clone)]
pub struct FunctionDisasm {
    /// Instructions with their encoded byte size.
    pub insts: Vec<(Inst, u32)>,
    /// Recovered control flow graph.
    pub cfg: Cfg,
}

impl FunctionDisasm {
    /// Total encoded size in bytes (Table I `size_fun`).
    pub fn byte_size(&self) -> u32 {
        self.insts.iter().map(|(_, s)| s).sum()
    }

    /// Instruction count (Table I `num_inst`).
    pub fn inst_count(&self) -> u32 {
        self.insts.len() as u32
    }

    /// The instructions of block `b`.
    pub fn block_insts(&self, b: usize) -> &[(Inst, u32)] {
        let blk = &self.cfg.blocks[b];
        &self.insts[blk.start as usize..blk.end as usize]
    }
}

/// Import-table indices of no-return routines in `bin` (currently `abort`).
pub fn noreturn_imports(bin: &Binary) -> Vec<u32> {
    bin.imports
        .iter()
        .enumerate()
        .filter(|(_, n)| n.as_str() == "abort")
        .map(|(i, _)| i as u32)
        .collect()
}

/// Disassemble function `idx` of `bin`: decode its code bytes and recover
/// the CFG.
///
/// # Errors
/// Returns a [`DecodeError`] if the code bytes are malformed.
pub fn disassemble(bin: &Binary, idx: usize) -> Result<FunctionDisasm, DecodeError> {
    let insts = decode_with_sizes(&bin.functions[idx].code, bin.arch)?;
    let noret = noreturn_imports(bin);
    let cfg = cfg::Cfg::build(&insts, &noret);
    Ok(FunctionDisasm { insts, cfg })
}

/// Disassemble every function of `bin`.
///
/// # Errors
/// Returns the first [`DecodeError`] encountered.
pub fn disassemble_all(bin: &Binary) -> Result<Vec<FunctionDisasm>, DecodeError> {
    (0..bin.function_count()).map(|i| disassemble(bin, i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fwbin::isa::{Arch, OptLevel};
    use fwlang::gen::Generator;

    #[test]
    fn disassembles_whole_generated_library() {
        let lib = Generator::new(77).library_sized("libx", 20);
        for arch in Arch::ALL {
            let bin = fwbin::compile_library(&lib, arch, OptLevel::O2).unwrap();
            let all = disassemble_all(&bin).unwrap();
            assert_eq!(all.len(), 20);
            for d in &all {
                assert!(d.inst_count() > 0);
                assert!(d.byte_size() > 0);
                assert!(d.cfg.num_blocks() >= 1);
                // Block ranges tile the function exactly.
                let mut covered = 0;
                for b in &d.cfg.blocks {
                    assert_eq!(b.start, covered);
                    covered = b.end;
                    assert!(!b.is_empty());
                }
                assert_eq!(covered, d.inst_count());
            }
        }
    }

    #[test]
    fn loops_increase_cyclomatic_complexity() {
        let lib = Generator::new(42).library_sized("libx", 40);
        let bin = fwbin::compile_library(&lib, Arch::Arm64, OptLevel::O1).unwrap();
        let mut any_loopy = false;
        for i in 0..bin.function_count() {
            let d = disassemble(&bin, i).unwrap();
            if d.cfg.cyclomatic_complexity() > 2 {
                any_loopy = true;
            }
        }
        assert!(any_loopy, "expected some complex functions in 40");
    }

    #[test]
    fn centrality_runs_on_real_functions() {
        let lib = Generator::new(9).library_sized("libx", 10);
        let bin = fwbin::compile_library(&lib, Arch::X86, OptLevel::O0).unwrap();
        for i in 0..bin.function_count() {
            let d = disassemble(&bin, i).unwrap();
            let cb = graph::betweenness_centrality(&d.cfg);
            assert_eq!(cb.len(), d.cfg.blocks.len());
            assert!(cb.iter().all(|v| *v >= 0.0));
        }
    }

    #[test]
    fn same_source_different_arch_similar_block_count() {
        // The CFG shape is a platform-robust feature: block counts across
        // architectures at the same opt level should be close (not equal —
        // legalization splits differ).
        let lib = Generator::new(5).library_sized("libx", 10);
        let a = fwbin::compile_library(&lib, Arch::X86, OptLevel::O2).unwrap();
        let b = fwbin::compile_library(&lib, Arch::Arm64, OptLevel::O2).unwrap();
        for i in 0..10 {
            let da = disassemble(&a, i).unwrap();
            let db = disassemble(&b, i).unwrap();
            let (na, nb) = (da.cfg.num_blocks() as i64, db.cfg.num_blocks() as i64);
            assert!(
                (na - nb).abs() <= na.max(nb) / 2 + 2,
                "block counts diverge too much: {na} vs {nb}"
            );
        }
    }
}
