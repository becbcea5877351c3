//! The composed evaluation pipeline against the §2.3 reference evaluator.
//!
//! `seqdl run` and `seqdl query` chain rewrites before evaluation: dead-rule
//! stripping, and for queries the magic-set rewrite with its demand seeds.
//! Each rewrite can be right on its own and still break in composition — a
//! dead-rule strip that ignored the seeds once removed the rules a magic seed
//! made live.  So this property runs the whole matrix, {strip-dead off, on} ×
//! {full run, magic goal} × {1, 2 executor threads}, on random wgen programs
//! with recursion, negation and injected dead rules, and requires every
//! answer set to equal the one `seqdl_engine::reference` computes from the
//! unrewritten program.
//!
//! Half the programs also end in the shape where seeds matter to stripping
//! (see [`add_false_guarded_output`]): the goal's magic relation then has
//! only statically false demand rules, so only its seed facts keep it, and
//! the answers, alive.

use proptest::prelude::*;
use sequence_datalog::core::Tuple;
use sequence_datalog::engine::reference;
use sequence_datalog::exec::Executor;
use sequence_datalog::prelude::*;
use sequence_datalog::rewrite::{
    goal_matches, magic, nonempty_relations, strip_dead_seeded, strip_dead_with_edb,
};
use sequence_datalog::syntax::Stratum;
use sequence_datalog::wgen::{ProgramConfig, ProgramGenerator, Workloads};
use std::collections::BTreeSet;

/// Append a stratum whose output `Out0` holds the `R0` paths whenever the
/// program's output `O` (of arity k) is nonempty, behind a recursive rule
/// guarded by the statically false `Never0`:
///
/// ```text
/// Never0(@g) <- R0(@g), a·@g = b·@g.
/// Out0(@h·$t) <- R0(@h·$t), O($o0, …, $ok).
/// Out0(@h·$t) <- Never0(@g), Out0(@h·$t).
/// ```
///
/// A goal binding `Out0`'s first value is seeded, and the guarded rule's
/// demand rule, the only one, is statically false.
fn add_false_guarded_output(program: &mut Program, output: RelName, arity: usize) {
    let args: Vec<String> = (0..arity).map(|i| format!("$o{i}")).collect();
    let rules = [
        "Never0(@g) <- R0(@g), a·@g = b·@g.".to_string(),
        format!("Out0(@h·$t) <- R0(@h·$t), {output}({}).", args.join(", ")),
        "Out0(@h·$t) <- Never0(@g), Out0(@h·$t).".to_string(),
    ];
    let rules = rules.iter().map(|r| parse_rule(r).expect("rule parses"));
    program.strata.push(Stratum::new(rules.collect()));
}

/// All tuples of `relation` in `instance` (empty when it was not derived).
fn tuples_of(instance: &Instance, relation: RelName) -> BTreeSet<Tuple> {
    instance
        .relation(relation)
        .map(|r| r.iter().cloned().collect())
        .unwrap_or_default()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_pipeline_combination_answers_like_the_reference(
        seed in 0u64..(1u64 << 32),
        salt in 0u64..(1u64 << 32),
        goal_salt in 0u64..(1u64 << 32),
        allow_equations in any::<bool>(),
        allow_arity in any::<bool>(),
        false_guard in any::<bool>(),
    ) {
        let config = ProgramConfig {
            allow_equations,
            allow_arity,
            allow_negation: true,
            allow_recursion: true,
            ..ProgramConfig::default()
        };
        let generator = ProgramGenerator::new(seed);
        let (mut program, _) = generator.random_program_with_defects(salt, &config);
        if false_guard {
            let last = program.rules().last().expect("generated programs have rules");
            let (output, arity) = (last.head.relation, last.head.arity());
            add_false_guarded_output(&mut program, output, arity);
        }
        let mut input = Workloads::new(seed ^ salt).random_flat_instance(2, 3, 4, 2);
        input.declare_relation(rel("R0"), 1);
        input.declare_relation(rel("R1"), 1);

        // The answers: the output relation (the head of the last rule) and a
        // random goal over it, both read off one reference run.
        let output = program
            .strata
            .last()
            .and_then(|s| s.rules.last())
            .map(|r| r.head.clone())
            .expect("generated programs have rules");
        let goal = generator.random_goal(goal_salt, output.relation, output.arity());
        let full = reference::run(&program, &input)
            .unwrap_or_else(|e| panic!("reference run failed: {e}\n{program}"));
        let expected_full = tuples_of(&full, output.relation);
        let expected_goal: BTreeSet<Tuple> = expected_full
            .iter()
            .filter(|t| goal_matches(&goal, t))
            .cloned()
            .collect();

        // The rewritten programs, built as `seqdl run` and `seqdl query` do.
        let nonempty = nonempty_relations(&input);
        let stripped = strip_dead_with_edb(&program, &BTreeSet::from([output.relation]), Some(&nonempty));
        let mp = magic(&program, &goal)
            .unwrap_or_else(|e| panic!("magic failed for goal {goal}: {e}\n{program}"));
        let seeded: BTreeSet<RelName> = mp.seeds.iter().map(|f| f.relation).collect();
        let stripped_magic = strip_dead_seeded(&mp.program, &BTreeSet::from([mp.answer]), &seeded);

        for threads in [1usize, 2] {
            let executor = Executor::new().with_threads(threads);
            for (strip, evaluated) in [(false, &program), (true, &stripped.program)] {
                let out = executor
                    .run(evaluated, &input)
                    .unwrap_or_else(|e| panic!("run failed: {e}\n{evaluated}"));
                prop_assert_eq!(
                    tuples_of(&out, output.relation),
                    expected_full.clone(),
                    "full run, strip = {}, threads = {}:\n{}",
                    strip,
                    threads,
                    evaluated
                );
            }
            for (strip, evaluated) in [(false, &mp.program), (true, &stripped_magic.program)] {
                let out = executor
                    .run_seeded(evaluated, &input, &mp.seeds)
                    .unwrap_or_else(|e| panic!("seeded run failed: {e}\n{evaluated}"));
                prop_assert_eq!(
                    mp.answers(&out),
                    expected_goal.clone(),
                    "goal {}, strip = {}, threads = {}:\n{}\nrewritten from\n{}",
                    &goal,
                    strip,
                    threads,
                    evaluated,
                    &program
                );
            }
        }
    }
}
