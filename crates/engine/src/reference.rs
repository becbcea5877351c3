//! The reference evaluator: the semantics of Section 2.3, read off directly.
//!
//! A program is evaluated stratum by stratum.  Each stratum's least fixpoint
//! is computed naively: every round matches every rule body against the whole
//! instance as it stood at the start of the round, grounds the heads, and adds
//! the new facts; the stratum is done after a round that adds nothing.
//!
//! A rule body is matched in three passes, a direct reading of rule safety:
//!
//! 1. positive predicates in source order, each against every tuple of its
//!    relation ([`match_predicate`] enumerates all associative matches);
//! 2. positive equations, repeatedly solving one whose side is ground
//!    ([`match_equation`]) until none is left;
//! 3. negated literals, checked on the now ground tuples and paths.
//!
//! Nothing here plans, indexes, memoises or lowers: this module is the
//! oracle the optimised evaluators are tested against, and it is what
//! [`FixpointStrategy::Naive`](crate::FixpointStrategy::Naive) runs.

use crate::error::{EvalError, LimitKind};
use crate::eval::{
    prepare_idb_instance, seed_instance, EvalLimits, EvalStats, ResourceGovernor, StratumStats,
};
use crate::matching::{equation_holds, ground_tuple, match_equation, match_predicate};
use seqdl_core::{CancelToken, Fact, Instance};
use seqdl_syntax::{Atom, Equation, Program, ProgramInfo, Rule, Stratum, Valuation};
use std::time::Instant;

/// Evaluate `program` on `input` under the default [`EvalLimits`].
///
/// # Errors
/// Ill-formed programs and exceeded resource limits.
pub fn run(program: &Program, input: &Instance) -> Result<Instance, EvalError> {
    run_seeded(program, input, &[])
}

/// Evaluate `program` on `input` with demand `seeds` inserted before the
/// first stratum (see [`crate::Engine::run_seeded`]), under the default
/// [`EvalLimits`].
///
/// # Errors
/// Ill-formed programs, seed arity mismatches, and exceeded resource limits.
pub fn run_seeded(
    program: &Program,
    input: &Instance,
    seeds: &[Fact],
) -> Result<Instance, EvalError> {
    run_with_stats_seeded(program, input, seeds, &EvalLimits::default(), None).map(|(i, _)| i)
}

/// Evaluate `program` on `input` with `seeds`, under `limits` and observing
/// `cancel`, returning the final instance and its statistics.
///
/// # Errors
/// Ill-formed programs, seed arity mismatches, exceeded resource limits and
/// cancellation (which carries the statistics gathered so far).
pub fn run_with_stats_seeded(
    program: &Program,
    input: &Instance,
    seeds: &[Fact],
    limits: &EvalLimits,
    cancel: Option<CancelToken>,
) -> Result<(Instance, EvalStats), EvalError> {
    let governor = ResourceGovernor::for_run(limits, cancel);
    let mut stats = EvalStats::default();
    match evaluate(program, input, seeds, limits, &governor, &mut stats) {
        Ok(instance) => Ok((instance, stats)),
        Err(e) => Err(e.with_partial_stats(stats)),
    }
}

fn evaluate(
    program: &Program,
    input: &Instance,
    seeds: &[Fact],
    limits: &EvalLimits,
    governor: &ResourceGovernor,
    stats: &mut EvalStats,
) -> Result<Instance, EvalError> {
    let info = ProgramInfo::analyse(program)?;
    let mut instance = prepare_idb_instance(&info, input)?;
    seed_instance(&mut instance, seeds)?;
    for stratum in &program.strata {
        let start = Instant::now();
        let before = (stats.iterations, stats.derived_facts, stats.rule_firings);
        stratum_fixpoint(stratum, &mut instance, limits, governor, stats)?;
        stats.strata.push(StratumStats {
            rules: stratum.rules.len(),
            iterations: stats.iterations - before.0,
            derived_facts: stats.derived_facts - before.1,
            rule_firings: stats.rule_firings - before.2,
            shards: 0,
            wall: start.elapsed(),
        });
    }
    Ok(instance)
}

/// Apply the stratum's rules round after round until a round derives no new
/// fact.
fn stratum_fixpoint(
    stratum: &Stratum,
    instance: &mut Instance,
    limits: &EvalLimits,
    governor: &ResourceGovernor,
    stats: &mut EvalStats,
) -> Result<(), EvalError> {
    for _ in 0..limits.max_iterations {
        stats.iterations += 1;
        governor.check()?;
        let mut derived: Vec<Fact> = Vec::new();
        for rule in &stratum.rules {
            for nu in body_matches(rule, instance)? {
                let tuple = ground_tuple(&rule.head, &nu).ok_or_else(|| unsafe_rule(rule))?;
                derived.push(Fact::new(rule.head.relation, tuple));
                stats.rule_firings += 1;
            }
        }
        let mut grew = false;
        for fact in derived {
            let Some(tuple) = instance.insert_fact_new(fact).map_err(EvalError::Data)? else {
                continue;
            };
            if tuple.iter().any(|p| p.len() > limits.max_path_len) {
                return Err(limit(LimitKind::PathLength, limits.max_path_len));
            }
            grew = true;
            stats.derived_facts += 1;
            if stats.derived_facts > limits.max_facts {
                return Err(limit(LimitKind::Facts, limits.max_facts));
            }
        }
        if !grew {
            return Ok(());
        }
    }
    Err(limit(LimitKind::Iterations, limits.max_iterations))
}

/// Every valuation of the rule's variables that satisfies its body on
/// `instance`.
fn body_matches(rule: &Rule, instance: &Instance) -> Result<Vec<Valuation>, EvalError> {
    // Pass 1: positive predicates, in source order, each by a full scan.
    let mut matches = vec![Valuation::new()];
    for literal in rule.body.iter().filter(|l| l.positive) {
        let Atom::Pred(pred) = &literal.atom else {
            continue;
        };
        let tuples = instance
            .relation(pred.relation)
            .map_or(&[][..], |r| r.as_slice());
        matches = matches
            .iter()
            .flat_map(|nu| tuples.iter().flat_map(|t| match_predicate(pred, t, nu)))
            .collect();
    }
    // Pass 2: positive equations, each solved once one side is ground.
    let equations: Vec<&Equation> = rule
        .body
        .iter()
        .filter(|l| l.positive)
        .filter_map(|l| l.atom.as_equation())
        .collect();
    let mut solved = Vec::new();
    for nu in matches {
        solve_equations(&equations, nu, &mut solved).ok_or_else(|| unsafe_rule(rule))?;
    }
    // Pass 3: negated literals, on ground values.
    let mut satisfying = Vec::new();
    for nu in solved {
        let mut holds = true;
        for literal in rule.body.iter().filter(|l| !l.positive) {
            let absent = match &literal.atom {
                Atom::Pred(pred) => ground_tuple(pred, &nu)
                    .map(|tuple| !instance.contains_fact(&Fact::new(pred.relation, tuple))),
                Atom::Eq(eq) => equation_holds(eq, &nu).map(|equal| !equal),
            };
            holds &= absent.ok_or_else(|| unsafe_rule(rule))?;
        }
        if holds {
            satisfying.push(nu);
        }
    }
    Ok(satisfying)
}

/// Push onto `out` every extension of `nu` that satisfies all `equations`,
/// solving first whichever equation has a ground side.  `None` when no
/// remaining equation has one: the rule is unsafe.
fn solve_equations(equations: &[&Equation], nu: Valuation, out: &mut Vec<Valuation>) -> Option<()> {
    if equations.is_empty() {
        out.push(nu);
        return Some(());
    }
    let ix = equations
        .iter()
        .position(|eq| nu.is_appropriate_for(&eq.lhs) || nu.is_appropriate_for(&eq.rhs))?;
    let mut rest = equations.to_vec();
    let eq = rest.remove(ix);
    for extension in match_equation(eq, &nu)? {
        solve_equations(&rest, extension, out)?;
    }
    Some(())
}

fn unsafe_rule(rule: &Rule) -> EvalError {
    EvalError::Unplannable {
        rule: rule.to_string(),
    }
}

fn limit(what: LimitKind, limit: usize) -> EvalError {
    EvalError::LimitExceeded { what, limit }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use seqdl_core::{path_of, rel, repeat_path, Path};
    use seqdl_syntax::parse_program;

    #[test]
    fn equations_negation_and_strata() {
        // Example 3.1's all-a paths, then a second stratum negating them.
        let program =
            parse_program("S($x) <- R($x), a·$x = $x·a.\n---\nN($x) <- R($x), !S($x).").unwrap();
        let input = Instance::unary(
            rel("R"),
            [repeat_path("a", 3), path_of(&["a", "b"]), Path::empty()],
        );
        let (out, stats) =
            run_with_stats_seeded(&program, &input, &[], &EvalLimits::default(), None).unwrap();
        assert_eq!(
            out.unary_paths(rel("S")),
            [repeat_path("a", 3), Path::empty()].into()
        );
        assert_eq!(out.unary_paths(rel("N")), [path_of(&["a", "b"])].into());
        assert_eq!(stats.strata.len(), 2);
        assert_eq!(stats.derived_facts, 3);
        // One productive round and one that detects the fixpoint, per stratum.
        assert_eq!(stats.iterations, 4);
    }

    #[test]
    fn equations_are_solved_once_a_side_is_ground() {
        // The first equation only becomes solvable after the second binds $y.
        let program = parse_program("S($z) <- R($x), $z·a = $y, $y = $x·a·a.").unwrap();
        let input = Instance::unary(rel("R"), [path_of(&["b"])]);
        assert_eq!(
            run(&program, &input).unwrap().unary_paths(rel("S")),
            [path_of(&["b", "a"])].into()
        );
    }

    #[test]
    fn recursion_reaches_its_fixpoint_and_limits_hold() {
        let reverse = parse_program(
            "T($x, eps) <- R($x).\nT($x, $y·@u) <- T($x·@u, $y).\nS($x) <- T(eps, $x).",
        )
        .unwrap();
        let input = Instance::unary(rel("R"), [path_of(&["a", "b", "c"])]);
        assert_eq!(
            run(&reverse, &input).unwrap().unary_paths(rel("S")),
            [path_of(&["c", "b", "a"])].into()
        );
        // Example 2.3 never terminates.
        let diverging = parse_program("T(a).\nT(a·$x) <- T($x).").unwrap();
        let limits = EvalLimits {
            max_iterations: 20,
            ..EvalLimits::default()
        };
        let err = run_with_stats_seeded(&diverging, &Instance::new(), &[], &limits, None);
        assert!(matches!(
            err,
            Err(EvalError::LimitExceeded {
                what: LimitKind::Iterations,
                limit: 20
            })
        ));
    }
}
