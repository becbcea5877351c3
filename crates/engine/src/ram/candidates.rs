//! Index selection for the interpreter's probe frames: which candidate list
//! (joint index, column trie prefix, exact-`ε` bucket or any-packed bucket)
//! a positive predicate draws from under the current valuation.

use crate::plan::{ColumnProbe, PlannedPredicate, PrefixSource};
use seqdl_core::{Path, Relation, TrieEntry, Value, TRIE_DEPTH};
use seqdl_syntax::{Binding, Valuation};

/// A placeholder for value buffers (never read before being overwritten).
pub(crate) const DUMMY_VALUE: Value = Value::Packed(Path::empty());

/// Joint probes over more columns than this fall back to column probing.
pub(crate) const MAX_JOINT_COLS: usize = 8;

/// An indexed candidate list: trie buckets carry [`TrieEntry`] metadata for
/// bucket-side matching, the other indexes (joint, ε, any-packed) carry bare
/// tuple ids.
#[derive(Clone, Copy)]
pub(crate) enum CandList<'r> {
    Entries(&'r [TrieEntry]),
    Ids(&'r [u32]),
}

impl CandList<'_> {
    fn len(&self) -> usize {
        match self {
            CandList::Entries(e) => e.len(),
            CandList::Ids(i) => i.len(),
        }
    }
}

/// The winning candidate list plus its provenance: `trie_col` is set when the
/// list came from a column trie that consumed the *entire* resolved prefix
/// (column, prefix length) — the precondition for bucket-side matching.
#[derive(Clone, Copy)]
pub(crate) struct Chosen<'r> {
    pub(crate) list: CandList<'r>,
    pub(crate) trie_col: Option<(usize, usize)>,
}

/// Keep `best` the smallest candidate list seen so far.
fn consider<'r>(best: &mut Option<Chosen<'r>>, cand: Chosen<'r>) {
    if best.as_ref().is_none_or(|b| cand.list.len() < b.list.len()) {
        *best = Some(cand);
    }
}

/// The smallest available indexed candidate list for `planned` under `nu`:
/// the joint index (when the planner selected one), each column's resolved
/// prefix through its trie, exact-`ε` buckets, and any-packed buckets all
/// compete, and the shortest list wins.  `None` means no column offers an
/// index at all — scan the relation.
pub(crate) fn choose_candidates<'r>(
    relation: &'r Relation,
    planned: &PlannedPredicate,
    nu: &Valuation,
) -> Option<Chosen<'r>> {
    let mut best: Option<Chosen<'r>> = None;
    if let Some(cols) = planned.joint_cols.as_deref() {
        if cols.len() <= MAX_JOINT_COLS {
            let mut firsts = [DUMMY_VALUE; MAX_JOINT_COLS];
            let mut ok = true;
            for (i, &c) in cols.iter().enumerate() {
                match first_value(&planned.probes[c], nu) {
                    Some(v) => firsts[i] = v,
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                if let Some(ids) = relation.probe_joint(cols, &firsts[..cols.len()]) {
                    consider(
                        &mut best,
                        Chosen {
                            list: CandList::Ids(ids),
                            trie_col: None,
                        },
                    );
                }
            }
        }
    }
    let mut buf = [DUMMY_VALUE; TRIE_DEPTH];
    for (column, probe) in planned.probes.iter().enumerate() {
        if !probe.can_probe() || !relation.column_active(column) {
            continue;
        }
        if matches!(&best, Some(b) if b.list.len() == 0) {
            break;
        }
        let (n, complete) = resolve_prefix(probe, nu, &mut buf);
        if n > 0 {
            let full_walk = relation
                .column_index(column)
                .is_some_and(|trie| n <= trie.depth());
            consider(
                &mut best,
                Chosen {
                    list: CandList::Entries(relation.probe_prefix(column, &buf[..n])),
                    trie_col: full_walk.then_some((column, n)),
                },
            );
        } else if complete {
            // Every source resolved to zero values and the sources cover the
            // whole argument: the column must be exactly ε.
            consider(
                &mut best,
                Chosen {
                    list: CandList::Ids(relation.probe_empty(column)),
                    trie_col: None,
                },
            );
        } else if probe.leading_packed_var {
            consider(
                &mut best,
                Chosen {
                    list: CandList::Ids(relation.probe_packed_first(column)),
                    trie_col: None,
                },
            );
        }
    }
    best
}

/// Resolve the statically-known leading values of one column into `buf`,
/// returning how many were filled (capped at [`TRIE_DEPTH`]) and whether the
/// sources were consumed completely (so `probe.exact` still pins the column).
fn resolve_prefix(
    probe: &ColumnProbe,
    nu: &Valuation,
    buf: &mut [Value; TRIE_DEPTH],
) -> (usize, bool) {
    let mut n = 0usize;
    for source in &probe.sources {
        if n == TRIE_DEPTH {
            return (n, false);
        }
        match source {
            PrefixSource::Const(a) => {
                buf[n] = Value::Atom(*a);
                n += 1;
            }
            PrefixSource::Packed(v) => {
                buf[n] = *v;
                n += 1;
            }
            PrefixSource::AtomVar(v) => match nu.get(*v) {
                Some(Binding::Atom(a)) => {
                    buf[n] = Value::Atom(*a);
                    n += 1;
                }
                _ => return (n, false),
            },
            PrefixSource::PathVar(v) => match nu.get(*v) {
                Some(Binding::Path(p)) => {
                    for value in p.values() {
                        if n == TRIE_DEPTH {
                            return (n, false);
                        }
                        buf[n] = *value;
                        n += 1;
                    }
                }
                _ => return (n, false),
            },
        }
    }
    (n, probe.exact)
}

/// The runtime first value of a joint-index column (guaranteed by the planner
/// to resolve; `None` only on a defensive miss, which disables the joint
/// probe for this call).
pub(crate) fn first_value(probe: &ColumnProbe, nu: &Valuation) -> Option<Value> {
    match probe.sources.first()? {
        PrefixSource::Const(a) => Some(Value::Atom(*a)),
        PrefixSource::Packed(v) => Some(*v),
        PrefixSource::AtomVar(v) => match nu.get(*v) {
            Some(Binding::Atom(a)) => Some(Value::Atom(*a)),
            _ => None,
        },
        PrefixSource::PathVar(_) => None,
    }
}
