//! Associative matching of path expressions against ground paths.
//!
//! The central operation of the evaluator: given a path expression `e`, a ground
//! path `p`, and a partial valuation ν, enumerate all extensions ν′ ⊇ ν such that
//! ν′(e) = p.  Because concatenation is associative, an unbound path variable can
//! absorb any contiguous (possibly empty) block of the remaining path, so matching
//! enumerates all decompositions.

use crate::plan::FLAT_MAX_VARS;
use seqdl_core::{Path, PathView, Value};
use seqdl_syntax::{Binding, Equation, PathExpr, Predicate, Term, Valuation, Var, VarKind};

/// Non-backtracking matcher for [flat](crate::plan::PlannedPredicate::flat)
/// predicates: every term is a constant or an atomic variable, so each column
/// either matches its path value-for-value or fails — no decompositions, no
/// continuation chain.  Newly bound variables are recorded in `newly` (the
/// caller pops them after running its continuation); on failure they are
/// already backtracked out.  Returns how many entries of `newly` were used.
pub fn match_predicate_flat(
    args: &[PathExpr],
    tuple: &[Path],
    nu: &mut Valuation,
    newly: &mut [Option<Var>; FLAT_MAX_VARS],
) -> Option<usize> {
    let mut bound = 0usize;
    let mut ok = true;
    'outer: for (arg, path) in args.iter().zip(tuple) {
        let terms = arg.terms();
        let values = path.values();
        if terms.len() != values.len() {
            ok = false;
            break;
        }
        for (term, value) in terms.iter().zip(values) {
            let Value::Atom(b) = value else {
                ok = false;
                break 'outer;
            };
            match term {
                Term::Const(a) => {
                    if a != b {
                        ok = false;
                        break 'outer;
                    }
                }
                Term::Var(v) => match nu.get(*v) {
                    Some(Binding::Atom(bd)) => {
                        if bd != b {
                            ok = false;
                            break 'outer;
                        }
                    }
                    None => {
                        nu.bind_new(*v, Binding::Atom(*b));
                        newly[bound] = Some(*v);
                        bound += 1;
                    }
                    Some(Binding::Path(_)) => {
                        ok = false;
                        break 'outer;
                    }
                },
                Term::Packed(_) => {
                    ok = false;
                    break 'outer;
                }
            }
        }
    }
    if ok {
        Some(bound)
    } else {
        for v in newly[..bound].iter().rev().flatten() {
            nu.pop_binding(*v);
        }
        None
    }
}

/// All extensions of `valuation` that make `expr` denote exactly `path`.
fn match_expr(expr: &PathExpr, path: &Path, valuation: &Valuation) -> Vec<Valuation> {
    let mut out = Vec::new();
    let mut scratch = valuation.clone();
    match_terms(
        expr.terms(),
        *path,
        0,
        path.values(),
        &mut scratch,
        &mut |nu| {
            out.push(nu.clone());
        },
    );
    out
}

/// All extensions of `valuation` that make every component expression of `pred`
/// denote the corresponding component path of `tuple`.
///
/// Returns an empty vector if the arities differ.
pub fn match_predicate(pred: &Predicate, tuple: &[Path], valuation: &Valuation) -> Vec<Valuation> {
    let mut out = Vec::new();
    let mut scratch = valuation.clone();
    match_predicate_sink(pred, tuple, &mut scratch, &mut |nu| out.push(nu.clone()));
    out
}

/// Like [`match_predicate`], but hands each matching valuation to `sink` instead
/// of collecting clones.
///
/// This is the fixpoint loop's entry point: matching backtracks on `valuation`
/// itself (which is restored to its original bindings before returning), so a
/// candidate tuple that fails to match allocates nothing.  The valuation passed to
/// `sink` is only valid for the duration of the call (its extra bindings are
/// backtracked away afterwards); `sink` must clone whatever it wants to keep.
/// This lets the final step of a rule body ground the rule head directly, without
/// materialising a valuation per match.
pub fn match_predicate_sink(
    pred: &Predicate,
    tuple: &[Path],
    valuation: &mut Valuation,
    sink: &mut dyn FnMut(&mut Valuation),
) {
    if pred.args.len() != tuple.len() {
        return;
    }
    match_args(&pred.args, tuple, valuation, sink);
}

/// Match the argument expressions column by column, calling `sink` once for every
/// valuation under which all columns match.  `nu` is restored before returning.
fn match_args(
    args: &[PathExpr],
    tuple: &[Path],
    nu: &mut Valuation,
    sink: &mut dyn FnMut(&mut Valuation),
) {
    let Some((arg, rest)) = args.split_first() else {
        sink(nu);
        return;
    };
    // invariant: relation arity equals the argument count — enforced when the
    // program is analysed and when facts are inserted, before matching runs.
    let (path, paths) = tuple.split_first().expect("arity checked by the caller");
    match_terms(arg.terms(), *path, 0, path.values(), nu, &mut |nu| {
        match_args(rest, paths, nu, sink);
    });
}

/// Does the (fully bound) equation hold under `valuation`?  Returns `None` if some
/// variable of the equation is unbound.
pub fn equation_holds(eq: &Equation, valuation: &Valuation) -> Option<bool> {
    let lhs = valuation.apply(&eq.lhs)?;
    let rhs = valuation.apply(&eq.rhs)?;
    Some(lhs == rhs)
}

/// All extensions of `valuation` satisfying the equation, assuming at least one side
/// is fully bound under `valuation` (the planner guarantees this for safe rules).
///
/// Returns `None` if neither side is fully bound.
pub fn match_equation(eq: &Equation, valuation: &Valuation) -> Option<Vec<Valuation>> {
    let lhs_bound = valuation.is_appropriate_for(&eq.lhs);
    let rhs_bound = valuation.is_appropriate_for(&eq.rhs);
    match (lhs_bound, rhs_bound) {
        (true, true) => {
            let holds = equation_holds(eq, valuation).unwrap_or(false);
            Some(if holds {
                vec![valuation.clone()]
            } else {
                Vec::new()
            })
        }
        (true, false) => {
            let ground = valuation.apply(&eq.lhs)?;
            Some(match_expr(&eq.rhs, &ground, valuation))
        }
        (false, true) => {
            let ground = valuation.apply(&eq.rhs)?;
            Some(match_expr(&eq.lhs, &ground, valuation))
        }
        (false, false) => None,
    }
}

/// Match a term sequence against the value suffix `parent.values()[base..]`
/// (passed pre-sliced as `values`), calling `sink` at every complete match.
/// Backtracks on `nu` in place: any binding added during the walk is removed
/// again, so `nu` leaves in the state it entered.  Carrying the parent path's
/// identity lets every path-variable binding resolve through the store's
/// `(id, start, end)` subpath memo — a whole-suffix bind at `base == 0` reuses
/// the parent's id outright, and enumerated prefixes hash three `u32`s instead
/// of their value content.
fn match_terms(
    terms: &[Term],
    parent: Path,
    base: usize,
    values: &'static [Value],
    nu: &mut Valuation,
    sink: &mut dyn FnMut(&mut Valuation),
) {
    let Some((first, rest)) = terms.split_first() else {
        if values.is_empty() {
            sink(nu);
        }
        return;
    };
    match first {
        Term::Const(a) => {
            if let Some(Value::Atom(b)) = values.first() {
                if a == b {
                    match_terms(rest, parent, base + 1, &values[1..], nu, sink);
                }
            }
        }
        Term::Packed(inner) => {
            if let Some(Value::Packed(p)) = values.first() {
                match_terms(inner.terms(), *p, 0, p.values(), nu, &mut |nu| {
                    match_terms(rest, parent, base + 1, &values[1..], nu, sink);
                });
            }
        }
        Term::Var(v) => match v.kind {
            VarKind::Atom => {
                let Some(Value::Atom(b)) = values.first() else {
                    return;
                };
                let b = *b;
                match nu.get(*v) {
                    Some(Binding::Atom(bound)) => {
                        if *bound == b {
                            match_terms(rest, parent, base + 1, &values[1..], nu, sink);
                        }
                    }
                    None => {
                        nu.bind_new(*v, Binding::Atom(b));
                        match_terms(rest, parent, base + 1, &values[1..], nu, sink);
                        nu.pop_binding(*v);
                    }
                    // A binding of the wrong shape cannot occur: `Valuation::bind`
                    // checks it.
                    Some(Binding::Path(_)) => unreachable!("valuation binding of the wrong kind"),
                }
            }
            VarKind::Path => {
                // `None` = unbound; `Some(None)` = bound but mismatching;
                // `Some(Some(n))` = bound to a matching prefix of length n.
                let bound_prefix = match nu.get(*v) {
                    Some(Binding::Path(bound)) => {
                        let n = bound.len();
                        if values.len() >= n && &values[..n] == bound.values() {
                            Some(Some(n))
                        } else {
                            Some(None)
                        }
                    }
                    None => None,
                    Some(Binding::Atom(_)) => unreachable!("valuation binding of the wrong kind"),
                };
                match bound_prefix {
                    Some(Some(n)) => match_terms(rest, parent, base + n, &values[n..], nu, sink),
                    Some(None) => {}
                    None if rest.is_empty() => {
                        // A trailing unbound path variable must absorb everything
                        // that is left; bind it directly instead of enumerating
                        // every prefix only to reject all but the full one.
                        let suffix = PathView::cut(parent, base, base + values.len());
                        nu.bind_new(*v, Binding::Path(suffix));
                        sink(nu);
                        nu.pop_binding(*v);
                    }
                    None => {
                        // Try every prefix (including the empty one), as
                        // unregistered views: a speculative cut rejected by a
                        // later term must not grow the global store.
                        for split in 0..=values.len() {
                            let prefix = PathView::cut(parent, base, base + split);
                            nu.bind_new(*v, Binding::Path(prefix));
                            match_terms(rest, parent, base + split, &values[split..], nu, sink);
                            nu.pop_binding(*v);
                        }
                    }
                }
            }
        },
    }
}

/// Does *some* extension of `valuation` make every component of `pred` denote
/// the corresponding component of `tuple`?  Unlike [`match_predicate`] this
/// decides existence only: the backtracking walk stops at the first complete
/// match instead of enumerating every decomposition, and nothing is cloned or
/// collected.  Answer filters (`seqdl query` matching a goal pattern against a
/// result relation) call this once per tuple.
pub fn predicate_matches(pred: &Predicate, tuple: &[Path], valuation: &Valuation) -> bool {
    if pred.args.len() != tuple.len() {
        return false;
    }
    let mut nu = valuation.clone();
    match_args_find(&pred.args, tuple, &mut nu)
}

fn match_args_find(args: &[PathExpr], tuple: &[Path], nu: &mut Valuation) -> bool {
    let Some((arg, rest)) = args.split_first() else {
        return true;
    };
    // invariant: relation arity equals the argument count — enforced when the
    // program is analysed and when facts are inserted, before matching runs.
    let (path, paths) = tuple.split_first().expect("arity checked by the caller");
    match_terms_find(arg.terms(), *path, 0, path.values(), nu, &mut |nu| {
        match_args_find(rest, paths, nu)
    })
}

/// The short-circuiting twin of [`match_terms`]: `cont` reports whether the
/// rest of the problem succeeded, and the walk returns as soon as any branch
/// does.  `nu` is restored before returning, matched or not.
fn match_terms_find(
    terms: &[Term],
    parent: Path,
    base: usize,
    values: &'static [Value],
    nu: &mut Valuation,
    cont: &mut dyn FnMut(&mut Valuation) -> bool,
) -> bool {
    let Some((first, rest)) = terms.split_first() else {
        return values.is_empty() && cont(nu);
    };
    match first {
        Term::Const(a) => match values.first() {
            Some(Value::Atom(b)) if a == b => {
                match_terms_find(rest, parent, base + 1, &values[1..], nu, cont)
            }
            _ => false,
        },
        Term::Packed(inner) => match values.first() {
            Some(Value::Packed(p)) => {
                match_terms_find(inner.terms(), *p, 0, p.values(), nu, &mut |nu| {
                    match_terms_find(rest, parent, base + 1, &values[1..], nu, &mut *cont)
                })
            }
            _ => false,
        },
        Term::Var(v) => match v.kind {
            VarKind::Atom => {
                let Some(Value::Atom(b)) = values.first() else {
                    return false;
                };
                let b = *b;
                match nu.get(*v) {
                    Some(Binding::Atom(bound)) if *bound == b => {
                        match_terms_find(rest, parent, base + 1, &values[1..], nu, cont)
                    }
                    Some(_) => false,
                    None => {
                        nu.bind_new(*v, Binding::Atom(b));
                        let found =
                            match_terms_find(rest, parent, base + 1, &values[1..], nu, cont);
                        nu.pop_binding(*v);
                        found
                    }
                }
            }
            VarKind::Path => {
                let bound_prefix = match nu.get(*v) {
                    Some(Binding::Path(bound)) => {
                        let n = bound.len();
                        if values.len() >= n && &values[..n] == bound.values() {
                            Some(n)
                        } else {
                            return false;
                        }
                    }
                    None => None,
                    Some(Binding::Atom(_)) => unreachable!("valuation binding of the wrong kind"),
                };
                match bound_prefix {
                    Some(n) => match_terms_find(rest, parent, base + n, &values[n..], nu, cont),
                    None if rest.is_empty() => {
                        let suffix = PathView::cut(parent, base, base + values.len());
                        nu.bind_new(*v, Binding::Path(suffix));
                        let found = cont(nu);
                        nu.pop_binding(*v);
                        found
                    }
                    None => {
                        for split in 0..=values.len() {
                            let prefix = PathView::cut(parent, base, base + split);
                            nu.bind_new(*v, Binding::Path(prefix));
                            let found = match_terms_find(
                                rest,
                                parent,
                                base + split,
                                &values[split..],
                                nu,
                                cont,
                            );
                            nu.pop_binding(*v);
                            if found {
                                return true;
                            }
                        }
                        false
                    }
                }
            }
        },
    }
}

/// In-place matcher for probes the lowering proved *deterministic*: under the
/// binding state the plan guarantees at this step, every tuple admits at most
/// one extension (each argument consumes its path left-to-right with no
/// choice point — constants, atomic variables, bound path variables, and at
/// most one unbound path variable sitting last in its term list).  Bindings
/// are applied directly to `nu`; on a mismatch everything added here is
/// truncated away and the call returns `false`.  On success the bindings stay
/// (the caller backtracks by truncating to its own entry depth), and they are
/// exactly the bindings the general enumerator would have produced for the
/// single extension — in the same order.
pub fn match_predicate_det(pred: &Predicate, tuple: &[Path], nu: &mut Valuation) -> bool {
    let start = nu.len();
    if pred.args.len() != tuple.len() {
        return false;
    }
    for (arg, path) in pred.args.iter().zip(tuple) {
        if !det_terms(arg.terms(), *path, 0, path.values(), nu) {
            nu.truncate(start);
            return false;
        }
    }
    true
}

/// One deterministic left-to-right pass of `terms` over `values` (the suffix
/// of `parent` starting at `base`); binds onto `nu` without backtracking.
fn det_terms(
    terms: &[Term],
    parent: Path,
    mut base: usize,
    mut values: &'static [Value],
    nu: &mut Valuation,
) -> bool {
    let last = terms.len().wrapping_sub(1);
    for (i, term) in terms.iter().enumerate() {
        match term {
            Term::Const(a) => match values.first() {
                Some(Value::Atom(b)) if a == b => {
                    base += 1;
                    values = &values[1..];
                }
                _ => return false,
            },
            Term::Packed(inner) => match values.first() {
                Some(Value::Packed(p)) => {
                    if !det_terms(inner.terms(), *p, 0, p.values(), nu) {
                        return false;
                    }
                    base += 1;
                    values = &values[1..];
                }
                _ => return false,
            },
            Term::Var(v) => match v.kind {
                VarKind::Atom => {
                    let Some(Value::Atom(b)) = values.first() else {
                        return false;
                    };
                    let b = *b;
                    match nu.get(*v) {
                        Some(Binding::Atom(bound)) => {
                            if *bound != b {
                                return false;
                            }
                        }
                        None => nu.bind_new(*v, Binding::Atom(b)),
                        Some(Binding::Path(_)) => {
                            unreachable!("valuation binding of the wrong kind")
                        }
                    }
                    base += 1;
                    values = &values[1..];
                }
                VarKind::Path => match nu.get(*v) {
                    Some(Binding::Path(bound)) => {
                        let n = bound.len();
                        if values.len() < n || &values[..n] != bound.values() {
                            return false;
                        }
                        base += n;
                        values = &values[n..];
                    }
                    None => {
                        debug_assert!(i == last, "det lowering proved the trailing position");
                        let suffix = PathView::cut(parent, base, base + values.len());
                        nu.bind_new(*v, Binding::Path(suffix));
                        base += values.len();
                        values = &values[values.len()..];
                    }
                    Some(Binding::Atom(_)) => unreachable!("valuation binding of the wrong kind"),
                },
            },
        }
    }
    values.is_empty()
}

/// Convenience for tests and callers: apply a valuation to a predicate to obtain the
/// corresponding ground tuple, if the valuation is appropriate.
pub fn ground_tuple(pred: &Predicate, valuation: &Valuation) -> Option<Vec<Path>> {
    pred.args.iter().map(|a| valuation.apply(a)).collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use seqdl_core::{atom, path_of, rel, Path};
    use seqdl_syntax::{parse_expr, Predicate, Var};

    fn expr(s: &str) -> PathExpr {
        parse_expr(s).unwrap()
    }

    #[test]
    fn matching_constants_and_atom_variables() {
        let matches = match_expr(
            &expr("a·@x·c"),
            &path_of(&["a", "b", "c"]),
            &Valuation::new(),
        );
        assert_eq!(matches.len(), 1);
        assert_eq!(
            matches[0].get(Var::atom("x")),
            Some(&Binding::Atom(atom("b")))
        );
        // Atom variable cannot absorb two values.
        assert!(
            match_expr(&expr("a·@x"), &path_of(&["a", "b", "c"]), &Valuation::new()).is_empty()
        );
        // Constant mismatch.
        assert!(match_expr(&expr("a·b"), &path_of(&["a", "c"]), &Valuation::new()).is_empty());
    }

    #[test]
    fn unbound_path_variables_enumerate_all_decompositions() {
        // $x·$y against a·b·c: 4 splits (|$x| = 0..3).
        let matches = match_expr(
            &expr("$x·$y"),
            &path_of(&["a", "b", "c"]),
            &Valuation::new(),
        );
        assert_eq!(matches.len(), 4);
        // Each match reassembles to the original path.
        for nu in &matches {
            let x = nu.get(Var::path("x")).unwrap().as_path();
            let y = nu.get(Var::path("y")).unwrap().as_path();
            assert_eq!(x.concat(&y), path_of(&["a", "b", "c"]));
        }
    }

    #[test]
    fn repeated_path_variables_must_agree() {
        // $x·$x against a·b·a·b: only $x = a·b.
        let matches = match_expr(
            &expr("$x·$x"),
            &path_of(&["a", "b", "a", "b"]),
            &Valuation::new(),
        );
        assert_eq!(matches.len(), 1);
        assert_eq!(
            matches[0].get(Var::path("x")),
            Some(&Binding::Path(path_of(&["a", "b"]).into()))
        );
        assert!(match_expr(
            &expr("$x·$x"),
            &path_of(&["a", "b", "a"]),
            &Valuation::new()
        )
        .is_empty());
    }

    #[test]
    fn bound_variables_constrain_the_match() {
        let mut nu = Valuation::new();
        nu.bind_path(Var::path("x"), path_of(&["a"]));
        let matches = match_expr(&expr("$x·$y"), &path_of(&["a", "b"]), &nu);
        assert_eq!(matches.len(), 1);
        assert_eq!(
            matches[0].get(Var::path("y")),
            Some(&Binding::Path(path_of(&["b"]).into()))
        );
        // A conflicting binding yields no matches.
        let mut nu = Valuation::new();
        nu.bind_path(Var::path("x"), path_of(&["c"]));
        assert!(match_expr(&expr("$x·$y"), &path_of(&["a", "b"]), &nu).is_empty());
    }

    #[test]
    fn packing_must_match_packed_values() {
        let packed_path =
            Path::from_values([Value::atom("c"), Value::packed(path_of(&["a", "b"]))]);
        let matches = match_expr(&expr("c·<$s>"), &packed_path, &Valuation::new());
        assert_eq!(matches.len(), 1);
        assert_eq!(
            matches[0].get(Var::path("s")),
            Some(&Binding::Path(path_of(&["a", "b"]).into()))
        );
        // A packed expression never matches an atomic value.
        assert!(match_expr(&expr("<$s>"), &path_of(&["a"]), &Valuation::new()).is_empty());
        // And a path variable *can* match a packed value (it is a value like any
        // other).
        let matches = match_expr(&expr("c·$v"), &packed_path, &Valuation::new());
        assert_eq!(matches.len(), 1);
    }

    #[test]
    fn empty_expression_matches_only_the_empty_path() {
        assert_eq!(
            match_expr(&expr("eps"), &Path::empty(), &Valuation::new()).len(),
            1
        );
        assert!(match_expr(&expr("eps"), &path_of(&["a"]), &Valuation::new()).is_empty());
    }

    #[test]
    fn predicate_matching_threads_valuations_across_components() {
        // T($x, $x·a) against (b, b·a) succeeds; against (b, c·a) fails.
        let pred = Predicate::new(rel("T"), vec![expr("$x"), expr("$x·a")]);
        let ok = match_predicate(
            &pred,
            &[path_of(&["b"]), path_of(&["b", "a"])],
            &Valuation::new(),
        );
        assert_eq!(ok.len(), 1);
        let bad = match_predicate(
            &pred,
            &[path_of(&["b"]), path_of(&["c", "a"])],
            &Valuation::new(),
        );
        assert!(bad.is_empty());
        // Arity mismatch never matches.
        assert!(match_predicate(&pred, &[path_of(&["b"])], &Valuation::new()).is_empty());
    }

    #[test]
    fn equation_matching_uses_the_ground_side() {
        // With $x bound, a·$x = $y·a binds $y.
        let eq = Equation::new(expr("a·$x"), expr("$y·a"));
        let mut nu = Valuation::new();
        nu.bind_path(Var::path("x"), path_of(&["a"]));
        let matches = match_equation(&eq, &nu).unwrap();
        assert_eq!(matches.len(), 1);
        assert_eq!(
            matches[0].get(Var::path("y")),
            Some(&Binding::Path(path_of(&["a"]).into()))
        );
        // Fully bound equations are just checked.
        let mut nu2 = matches[0].clone();
        nu2.bind_path(Var::path("z"), Path::empty());
        let eq2 = Equation::new(expr("$x"), expr("$y"));
        assert_eq!(match_equation(&eq2, &nu2).unwrap().len(), 1);
        // Neither side bound: planner error signalled by None.
        assert!(
            match_equation(&Equation::new(expr("$p"), expr("$q")), &Valuation::new()).is_none()
        );
    }

    #[test]
    fn predicate_matches_agrees_with_enumeration() {
        // Same answers as match_predicate on a grab-bag of patterns, without
        // enumerating: repeated variables, packing, constants, arity mismatch.
        let cases: Vec<(Predicate, Vec<Path>)> = vec![
            (
                Predicate::new(rel("T"), vec![expr("$x·$x")]),
                vec![path_of(&["a", "b", "a", "b"])],
            ),
            (
                Predicate::new(rel("T"), vec![expr("$x·$x")]),
                vec![path_of(&["a", "b", "a"])],
            ),
            (
                Predicate::new(rel("T"), vec![expr("$x"), expr("$x·a")]),
                vec![path_of(&["b"]), path_of(&["b", "a"])],
            ),
            (
                Predicate::new(rel("T"), vec![expr("$x"), expr("$x·a")]),
                vec![path_of(&["b"]), path_of(&["c", "a"])],
            ),
            (
                Predicate::new(rel("T"), vec![expr("c·<$s>")]),
                vec![Path::from_values([
                    Value::atom("c"),
                    Value::packed(path_of(&["a", "b"])),
                ])],
            ),
            (
                Predicate::new(rel("T"), vec![expr("a·$x·$y")]),
                vec![path_of(&["a", "b", "c"])],
            ),
            (
                Predicate::new(rel("T"), vec![expr("$x")]),
                vec![path_of(&["a"]), path_of(&["b"])],
            ),
        ];
        for (pred, tuple) in cases {
            assert_eq!(
                predicate_matches(&pred, &tuple, &Valuation::new()),
                !match_predicate(&pred, &tuple, &Valuation::new()).is_empty(),
                "disagreement on {pred} vs {tuple:?}"
            );
        }
        // Bound valuations constrain the existence check too.
        let pred = Predicate::new(rel("T"), vec![expr("$x·$y")]);
        let mut nu = Valuation::new();
        nu.bind_path(Var::path("x"), path_of(&["c"]));
        assert!(!predicate_matches(&pred, &[path_of(&["a", "b"])], &nu));
    }

    #[test]
    fn ground_tuple_applies_the_valuation() {
        let pred = Predicate::new(rel("R"), vec![expr("$x·a")]);
        let mut nu = Valuation::new();
        nu.bind_path(Var::path("x"), path_of(&["b"]));
        assert_eq!(ground_tuple(&pred, &nu), Some(vec![path_of(&["b", "a"])]));
        assert_eq!(ground_tuple(&pred, &Valuation::new()), None);
    }

    #[test]
    fn only_as_equation_matches_exactly_a_powers() {
        // a·$x = $x·a with $x bound: holds iff $x is all a's.
        let eq = Equation::new(expr("a·$x"), expr("$x·a"));
        for (path, expected) in [
            (seqdl_core::repeat_path("a", 4), true),
            (path_of(&["a", "b", "a"]), false),
            (Path::empty(), true),
        ] {
            let mut nu = Valuation::new();
            nu.bind_path(Var::path("x"), path);
            assert_eq!(equation_holds(&eq, &nu), Some(expected));
        }
    }
}
