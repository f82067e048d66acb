//! Differential identity suite: the fast engine must be bitwise-identical
//! to the reference interpreter — outcome (floats compared by bit
//! pattern), all 21 `DynFeatures`, and coverage — across all 4 ISAs ×
//! generated libraries × environments, including Timeout and Fault
//! outcomes at tight instruction budgets. The pipeline wrappers
//! (`EnvPool`, `fuzz_function`) must likewise be engine-invariant.

use fwbin::isa::{Arch, OptLevel};
use fwlang::gen::Generator;
use proptest::prelude::*;
use vm::env::ExecEnv;
use vm::exec::{Engine, VmConfig};
use vm::fuzz::{fuzz_function, FuzzConfig};
use vm::loader::{LoadedBinary, RunResult};
use vm::value::Value;
use vm::{EnvPool, Outcome};

fn assert_bitwise(fast: &RunResult, interp: &RunResult, ctx: &str) {
    match (&fast.outcome, &interp.outcome) {
        // `Outcome` equality uses f64 `==`, which would call NaN != NaN a
        // mismatch; identity here means identical bit patterns.
        (Outcome::Returned(Value::Float(a)), Outcome::Returned(Value::Float(b))) => {
            assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: float return differs");
        }
        (a, b) => assert_eq!(a, b, "{ctx}: outcome differs"),
    }
    assert_eq!(
        fast.features.as_slice().iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
        interp.features.as_slice().iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
        "{ctx}: features differ"
    );
    assert_eq!(fast.coverage, interp.coverage, "{ctx}: coverage differs");
}

fn cfg_for(engine: Engine, max_instructions: u64) -> VmConfig {
    VmConfig { engine, max_instructions, ..VmConfig::default() }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Random libraries, all 4 ISAs, random inputs, budgets from 1 (instant
    /// timeout) through default: every (function, env) profile matches.
    #[test]
    fn engines_produce_bitwise_identical_profiles(
        seed in 0u64..10_000,
        size in 1usize..6,
        opt_i in 0usize..OptLevel::ALL.len(),
        input in proptest::collection::vec(any::<u8>(), 0..24),
        budget_i in 0usize..5,
    ) {
        let budget = [1u64, 5, 17, 100, 200_000][budget_i];
        let lib = Generator::new(seed).library_sized("libident", size);
        for arch in Arch::ALL {
            let bin = fwbin::compile_library(&lib, arch, OptLevel::ALL[opt_i]).expect("compile");
            let loaded = LoadedBinary::load(bin).expect("load");
            let env = ExecEnv::for_buffer(input.clone(), &[3, 1]);
            for func in 0..loaded.function_count() {
                let fast = loaded.run_any(func, &env, &cfg_for(Engine::Fast, budget));
                let interp = loaded.run_any(func, &env, &cfg_for(Engine::Interp, budget));
                assert_bitwise(
                    &fast,
                    &interp,
                    &format!("seed {seed} {arch} func {func} budget {budget}"),
                );
            }
        }
    }

    /// `EnvPool` — the dynamic stage's replay path, where the fast engine
    /// reuses one VM across every (candidate, env) pair — is engine-
    /// invariant even under interleaved environment switching.
    #[test]
    fn env_pool_is_engine_invariant(
        seed in 0u64..10_000,
        arch_i in 0usize..Arch::ALL.len(),
        inputs in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..16), 1..4),
    ) {
        let lib = Generator::new(seed).library_sized("libpool", 4);
        let bin = fwbin::compile_library(&lib, Arch::ALL[arch_i], OptLevel::O2).expect("compile");
        let loaded = LoadedBinary::load(bin).expect("load");
        let envs: Vec<ExecEnv> =
            inputs.into_iter().map(|i| ExecEnv::for_buffer(i, &[2, 0])).collect();
        let fast_pool = EnvPool::new(&loaded, &envs, &cfg_for(Engine::Fast, 50_000));
        let interp_pool = EnvPool::new(&loaded, &envs, &cfg_for(Engine::Interp, 50_000));
        // Interleave envs and candidates to stress the dirty-tracked reset
        // and env-token switching.
        for round in 0..2 {
            for func in 0..loaded.function_count() {
                for e in 0..envs.len() {
                    let idx = (e + round) % envs.len();
                    assert_bitwise(
                        &fast_pool.run(func, idx),
                        &interp_pool.run(func, idx),
                        &format!("seed {seed} func {func} env {idx} round {round}"),
                    );
                }
            }
        }
    }

    /// Coverage-guided env generation consumes engine outputs (coverage,
    /// outcomes, edge sets); identical engines ⇒ identical env sets.
    #[test]
    fn fuzzed_env_sets_are_engine_invariant(
        seed in 0u64..10_000,
        arch_i in 0usize..Arch::ALL.len(),
        fuzz_seed in 0u64..1000,
    ) {
        let lib = Generator::new(seed).library_sized("libfuzz", 3);
        let bin = fwbin::compile_library(&lib, Arch::ALL[arch_i], OptLevel::O1).expect("compile");
        let loaded = LoadedBinary::load(bin).expect("load");
        let fcfg = FuzzConfig { rounds: 40, seed: fuzz_seed, ..FuzzConfig::default() };
        let fast = fuzz_function(&loaded, 0, &fcfg, &cfg_for(Engine::Fast, 50_000));
        let interp = fuzz_function(&loaded, 0, &fcfg, &cfg_for(Engine::Interp, 50_000));
        prop_assert_eq!(fast, interp, "env sets differ between engines");
    }
}

/// A library whose one function reads and then rewrites every input byte
/// and reads and then rewrites globals 2 and 3, so a run leaves input
/// dirty past byte 32 and globals dirty past index 1, and its result
/// depends on both.
fn dirtying_library() -> fwlang::ast::Library {
    use fwlang::ast::{BinOp, Expr, Function, Library, Param, Stmt, Ty};
    let mut lib = Library::new("libdirty");
    for (name, init) in [("g0", 1), ("g1", 2), ("g2", 3), ("g3", 5)] {
        lib.add_global(name, init);
    }
    let mut f = Function {
        name: "dirty".into(),
        params: vec![
            Param { name: "buf".into(), ty: Ty::Buf },
            Param { name: "len".into(), ty: Ty::Int },
        ],
        locals: Vec::new(),
        ret: Some(Ty::Int),
        body: Vec::new(),
        exported: true,
    };
    let (i, acc) = (f.add_local("i", Ty::Int), f.add_local("acc", Ty::Int));
    let byte = || Expr::load(Expr::Param(0), Expr::Local(i));
    f.body = vec![
        Stmt::Let {
            local: acc,
            value: Expr::bin(
                BinOp::Add,
                Expr::bin(BinOp::Mul, Expr::Global(2), Expr::ConstInt(7)),
                Expr::Global(3),
            ),
        },
        Stmt::For {
            var: i,
            start: Expr::ConstInt(0),
            end: Expr::Param(1),
            step: Expr::ConstInt(1),
            body: vec![
                Stmt::Let {
                    local: acc,
                    value: Expr::bin(
                        BinOp::Add,
                        Expr::bin(BinOp::Mul, Expr::Local(acc), Expr::ConstInt(31)),
                        byte(),
                    ),
                },
                Stmt::StoreByte {
                    base: Expr::Param(0),
                    index: Expr::Local(i),
                    value: Expr::bin(
                        BinOp::Add,
                        byte(),
                        Expr::bin(BinOp::Add, Expr::Local(i), Expr::ConstInt(1)),
                    ),
                },
            ],
        },
        Stmt::SetGlobal {
            global: 2,
            value: Expr::bin(BinOp::Add, Expr::Global(2), Expr::Local(acc)),
        },
        Stmt::SetGlobal {
            global: 3,
            value: Expr::bin(BinOp::Add, Expr::Global(3), Expr::ConstInt(1)),
        },
        Stmt::Return(Some(Expr::Local(acc))),
    ];
    lib.functions.push(f);
    lib
}

/// A second run on the same fast VM starts from the installed
/// environment, not from what the first run left: every input byte the
/// first run wrote (up to byte 48) and every global it wrote (up to
/// index 3) is restored. The second run is bitwise a fresh VM's run and
/// the interpreter's, on every ISA, through `FastVm` and through
/// `EnvPool`.
#[test]
fn reused_vm_restores_input_and_globals_the_last_run_dirtied() {
    let cfg = cfg_for(Engine::Fast, 200_000);
    let input: Vec<u8> = (0..48u8).map(|b| b.wrapping_mul(37)).collect();
    let env = ExecEnv::for_buffer(input.clone(), &[]);
    let lib = dirtying_library();
    for arch in Arch::ALL {
        let bin = fwbin::compile_library(&lib, arch, OptLevel::O2).expect("compile");
        let loaded = LoadedBinary::load(bin).expect("load");
        let interp = loaded.run_any(0, &env, &cfg_for(Engine::Interp, 200_000));
        assert!(matches!(interp.outcome, Outcome::Returned(_)), "{arch}: {:?}", interp.outcome);
        // The result depends on the bytes past 32 and on globals 2 and 3,
        // so a reset that forgets either shows in the second run.
        let mut tail = input.clone();
        tail[40] ^= 1;
        let changed_tail = loaded.run_any(0, &ExecEnv::for_buffer(tail, &[]), &cfg);
        assert_ne!(changed_tail.outcome, interp.outcome, "{arch}: byte 40 is read");
        for global in [2, 3] {
            let overridden = ExecEnv { global_overrides: vec![(global, 100)], ..env.clone() };
            let changed = loaded.run_any(0, &overridden, &cfg);
            assert_ne!(changed.outcome, interp.outcome, "{arch}: global {global} is read");
        }
        let run_twice = |vm: &mut vm::FastVm| {
            vm.set_env(&env.input, &env.arg_values(), &env.global_overrides);
            (vm.run(0), vm.run(0))
        };
        let (first, second) = run_twice(&mut vm::FastVm::new(&loaded, &cfg));
        let fresh = run_twice(&mut vm::FastVm::new(&loaded, &cfg)).0;
        assert_bitwise(&first, &interp, &format!("{arch}: first run"));
        assert_bitwise(&second, &fresh, &format!("{arch}: second run vs a fresh VM"));
        assert_bitwise(&second, &interp, &format!("{arch}: second run vs the interpreter"));
        let pool = EnvPool::new(&loaded, std::slice::from_ref(&env), &cfg);
        for round in 0..2 {
            assert_bitwise(&pool.run(0, 0), &interp, &format!("{arch}: EnvPool run {round}"));
        }
    }
}
