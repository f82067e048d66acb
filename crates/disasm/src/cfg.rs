//! Control-flow-graph recovery from decoded instruction streams.
//!
//! The paper assumes the disassembler provides function boundaries and the
//! CFG ("we assume that these steps are handled by the disassembler using a
//! robust heuristic technique"); the FWB function table provides boundaries
//! and this module builds the CFG. Block *kinds* mirror the IDA `fcb_*`
//! block types that appear verbatim among the paper's 48 static features
//! (Table I).

use fwbin::isa::Inst;
use serde::{Deserialize, Serialize};

/// Classification of a basic block, following IDA's `FC_*` block types used
/// by Table I of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BlockKind {
    /// Ordinary block (falls through or jumps to other blocks).
    Normal,
    /// Ends with an indirect jump.
    IndJump,
    /// Ends with a return.
    Ret,
    /// Ends with a conditional branch one of whose successors is a trivial
    /// return block ("conditional return").
    CndRet,
    /// Ends with a no-return trap (`Halt`).
    NoRet,
    /// Ends by calling a no-return external routine (e.g. `abort`).
    ExternNoRet,
    /// External block (tail-transfer outside the function). Never produced
    /// by our compiler but kept for feature parity.
    Extern,
    /// Execution can run past the end of the function (disassembly error).
    Error,
}

/// A basic block: a maximal single-entry straight-line instruction run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BasicBlock {
    /// Index of the first instruction (inclusive).
    pub start: u32,
    /// Index one past the last instruction (exclusive).
    pub end: u32,
    /// Sum of encoded byte sizes of the block's instructions.
    pub byte_size: u32,
    /// Block classification.
    pub kind: BlockKind,
    /// Successor block indices.
    pub succs: Vec<u32>,
    /// Predecessor block indices.
    pub preds: Vec<u32>,
}

impl BasicBlock {
    /// Number of instructions in the block.
    pub fn len(&self) -> u32 {
        self.end - self.start
    }

    /// Whether the block is empty (never true for built CFGs).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// A function's control flow graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cfg {
    /// Basic blocks in address order; block 0 is the entry.
    pub blocks: Vec<BasicBlock>,
    /// Total edge count.
    pub num_edges: u32,
}

impl Cfg {
    /// Build the CFG for a decoded function. `insts` pairs each instruction
    /// with its encoded byte size; `noreturn_imports` lists import-table
    /// indices of no-return routines (for `ExternNoRet` classification).
    pub fn build(insts: &[(Inst, u32)], noreturn_imports: &[u32]) -> Cfg {
        if insts.is_empty() {
            return Cfg { blocks: Vec::new(), num_edges: 0 };
        }
        let n = insts.len();
        let is_noret_call = |inst: &Inst| -> bool {
            matches!(inst, Inst::Call { sym }
                if sym.is_import() && noreturn_imports.contains(&sym.index()))
        };

        // 1. Leaders: entry, branch targets, instructions after
        //    terminators/conditional branches/no-return calls.
        let mut leader = vec![false; n];
        leader[0] = true;
        for (i, (inst, _)) in insts.iter().enumerate() {
            if let Some(t) = inst.target() {
                if (t as usize) < n {
                    leader[t as usize] = true;
                }
            }
            if (inst.is_terminator() || inst.is_cond_branch() || is_noret_call(inst))
                && i + 1 < n
            {
                leader[i + 1] = true;
            }
        }

        // 2. Carve blocks.
        let mut starts: Vec<u32> = (0..n as u32).filter(|&i| leader[i as usize]).collect();
        starts.push(n as u32);
        let mut blocks: Vec<BasicBlock> = Vec::with_capacity(starts.len() - 1);
        let block_of = {
            // Map instruction index -> block index.
            let mut map = vec![0u32; n];
            for (b, w) in starts.windows(2).enumerate() {
                for i in w[0]..w[1] {
                    map[i as usize] = b as u32;
                }
            }
            map
        };
        for w in starts.windows(2) {
            let (start, end) = (w[0], w[1]);
            let byte_size = insts[start as usize..end as usize].iter().map(|(_, s)| s).sum();
            blocks.push(BasicBlock {
                start,
                end,
                byte_size,
                kind: BlockKind::Normal,
                succs: Vec::new(),
                preds: Vec::new(),
            });
        }

        // 3. Edges and preliminary kinds.
        let mut num_edges = 0u32;
        for block in blocks.iter_mut() {
            let last_idx = block.end - 1;
            let (last, _) = &insts[last_idx as usize];
            let mut succs = Vec::new();
            match last {
                Inst::Ret => block.kind = BlockKind::Ret,
                Inst::Halt => block.kind = BlockKind::NoRet,
                Inst::JmpInd { .. } => block.kind = BlockKind::IndJump,
                Inst::Jmp { target } => {
                    if (*target as usize) < n {
                        succs.push(block_of[*target as usize]);
                    } else {
                        block.kind = BlockKind::Error;
                    }
                }
                inst if inst.is_cond_branch() => {
                    if let Some(t) = inst.target() {
                        if (t as usize) < n {
                            succs.push(block_of[t as usize]);
                        } else {
                            block.kind = BlockKind::Error;
                        }
                    }
                    if (last_idx as usize) + 1 < n {
                        let ft = block_of[last_idx as usize + 1];
                        if !succs.contains(&ft) {
                            succs.push(ft);
                        }
                    } else {
                        block.kind = BlockKind::Error;
                    }
                }
                inst if is_noret_call(inst) => {
                    block.kind = BlockKind::ExternNoRet;
                }
                _ => {
                    // Fallthrough.
                    if (last_idx as usize) + 1 < n {
                        succs.push(block_of[last_idx as usize + 1]);
                    } else {
                        block.kind = BlockKind::Error;
                    }
                }
            }
            num_edges += succs.len() as u32;
            block.succs = succs;
        }

        // 4. Predecessors.
        let succ_lists: Vec<Vec<u32>> = blocks.iter().map(|b| b.succs.clone()).collect();
        for (b, succs) in succ_lists.iter().enumerate() {
            for &s in succs {
                blocks[s as usize].preds.push(b as u32);
            }
        }

        // 5. Conditional-return marking: a conditional-branch block one of
        //    whose successors is a short pure-return block.
        let ret_trivial: Vec<bool> = blocks
            .iter()
            .map(|b| b.kind == BlockKind::Ret && b.len() <= 2)
            .collect();
        for block in blocks.iter_mut() {
            let last_idx = block.end - 1;
            if insts[last_idx as usize].0.is_cond_branch()
                && block.succs.iter().any(|&s| ret_trivial[s as usize])
            {
                block.kind = BlockKind::CndRet;
            }
        }

        Cfg { blocks, num_edges }
    }

    /// Number of basic blocks.
    pub fn num_blocks(&self) -> u32 {
        self.blocks.len() as u32
    }

    /// Cyclomatic complexity `E - N + 2`, exactly as Table I defines it
    /// ("Edges - Nodes + 2"). With unreachable blocks (code after a
    /// no-return call) the value can fall below 1 — faithful to what the
    /// IDA-based extractor would report.
    pub fn cyclomatic_complexity(&self) -> i64 {
        self.num_edges as i64 - self.blocks.len() as i64 + 2
    }

    /// Count blocks of a given kind.
    pub fn count_kind(&self, kind: BlockKind) -> u32 {
        self.blocks.iter().filter(|b| b.kind == kind).count() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fwbin::isa::{BinOp, Cond, Reg, Sym};

    fn r(i: u16) -> Reg {
        Reg::phys(i)
    }

    fn sized(insts: Vec<Inst>) -> Vec<(Inst, u32)> {
        insts.into_iter().map(|i| (i, 4)).collect()
    }

    #[test]
    fn straight_line_is_one_ret_block() {
        let insts = sized(vec![
            Inst::MovImm { rd: r(0), imm: 1 },
            Inst::SetRet { rs: r(0) },
            Inst::Ret,
        ]);
        let cfg = Cfg::build(&insts, &[]);
        assert_eq!(cfg.num_blocks(), 1);
        assert_eq!(cfg.num_edges, 0);
        assert_eq!(cfg.blocks[0].kind, BlockKind::Ret);
        assert_eq!(cfg.blocks[0].byte_size, 12);
        assert_eq!(cfg.cyclomatic_complexity(), 1);
    }

    #[test]
    fn diamond_has_four_blocks() {
        // 0: cbr -> 3
        // 1: mov; 2: jmp 4
        // 3: mov
        // 4: ret
        let insts = sized(vec![
            Inst::CBr { cond: Cond::Eq, rs1: r(0), rs2: r(1), target: 3 }, // B0
            Inst::MovImm { rd: r(0), imm: 1 },                             // B1
            Inst::Jmp { target: 4 },
            Inst::MovImm { rd: r(0), imm: 2 },                             // B2
            Inst::Ret,                                                     // B3
        ]);
        let cfg = Cfg::build(&insts, &[]);
        assert_eq!(cfg.num_blocks(), 4);
        assert_eq!(cfg.num_edges, 4);
        assert_eq!(cfg.cyclomatic_complexity(), 2);
        assert_eq!(cfg.blocks[0].succs.len(), 2);
        assert_eq!(cfg.blocks[3].preds.len(), 2);
    }

    #[test]
    fn loop_produces_back_edge() {
        // 0: movimm          B0
        // 1: cbr -> 4        B1 (head)
        // 2: binimm          B2 (body)
        // 3: jmp 1
        // 4: ret             B3
        let insts = sized(vec![
            Inst::MovImm { rd: r(0), imm: 0 },
            Inst::CBr { cond: Cond::Ge, rs1: r(0), rs2: r(1), target: 4 },
            Inst::BinImm { op: BinOp::Add, rd: r(0), rs: r(0), imm: 1 },
            Inst::Jmp { target: 1 },
            Inst::Ret,
        ]);
        let cfg = Cfg::build(&insts, &[]);
        assert_eq!(cfg.num_blocks(), 4);
        // Edges: B0->B1, B1->B3, B1->B2, B2->B1.
        assert_eq!(cfg.num_edges, 4);
        assert!(cfg.blocks[2].succs.contains(&1));
    }

    #[test]
    fn halt_block_is_noret() {
        let insts = sized(vec![
            Inst::CBr { cond: Cond::Eq, rs1: r(0), rs2: r(1), target: 2 },
            Inst::Halt,
            Inst::Ret,
        ]);
        let cfg = Cfg::build(&insts, &[]);
        assert_eq!(cfg.count_kind(BlockKind::NoRet), 1);
    }

    #[test]
    fn cndret_marked_when_branching_to_trivial_ret() {
        let insts = sized(vec![
            Inst::CBr { cond: Cond::Eq, rs1: r(0), rs2: r(1), target: 3 },
            Inst::MovImm { rd: r(0), imm: 1 },
            Inst::Ret,
            Inst::Ret,
        ]);
        let cfg = Cfg::build(&insts, &[]);
        assert_eq!(cfg.blocks[0].kind, BlockKind::CndRet);
    }

    #[test]
    fn extern_noret_call_classified() {
        let insts = sized(vec![
            Inst::Call { sym: Sym::import(0) },
            Inst::Ret,
        ]);
        // Import 0 is a no-return routine (e.g. abort).
        let cfg = Cfg::build(&insts, &[0]);
        assert_eq!(cfg.count_kind(BlockKind::ExternNoRet), 1);
        // Without the annotation it is a plain block.
        let cfg2 = Cfg::build(&insts, &[]);
        assert_eq!(cfg2.count_kind(BlockKind::ExternNoRet), 0);
    }

    #[test]
    fn error_block_on_fallthrough_past_end() {
        let insts = sized(vec![Inst::MovImm { rd: r(0), imm: 1 }]);
        let cfg = Cfg::build(&insts, &[]);
        assert_eq!(cfg.blocks[0].kind, BlockKind::Error);
    }

    #[test]
    fn jcc_both_successors_same_block_deduplicated() {
        let insts = sized(vec![
            Inst::CBr { cond: Cond::Eq, rs1: r(0), rs2: r(1), target: 1 },
            Inst::Ret,
        ]);
        let cfg = Cfg::build(&insts, &[]);
        assert_eq!(cfg.blocks[0].succs, vec![1]);
        assert_eq!(cfg.num_edges, 1);
    }

    #[test]
    fn empty_function_yields_empty_cfg() {
        let cfg = Cfg::build(&[], &[]);
        assert_eq!(cfg.num_blocks(), 0);
        assert_eq!(cfg.num_edges, 0);
    }
}
