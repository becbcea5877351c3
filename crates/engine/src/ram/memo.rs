//! The per-rule emit memo: duplicate head derivations recognised by the
//! segment identity of the grounded head, before any path is built.

use seqdl_core::{FxHasher, Segment, Value};
use std::collections::HashSet;
use std::hash::BuildHasherDefault;

type FxSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// A per-rule emit-deduplication memo, keyed by the *segment identity* of the
/// grounded head: one interned id per head term (atom binding, path binding,
/// or constant).  A firing whose segment tuple was seen before in this
/// fixpoint is a duplicate derivation — it is counted, but recognised in one
/// hash probe without grounding any path and without touching the relation's
/// dedup index.  Create one per rule and reuse it across rounds.
///
/// Heads of up to three segments (the overwhelmingly common case) are stored
/// as one `u128` — 16 bytes per entry, so a memo that lives for a whole
/// fixpoint stays dense — and heads of four to six segments as two, with no
/// allocation per entry; longer heads are stored as boxed slices.
///
/// Reuse across rounds relies on one invariant the caller keeps: every head
/// the memo has seen names a fact that is in the instance once the round that
/// saw it has merged.  A memo whose round did not merge (an error, a cancel
/// or a panic) must be dropped, never reused; a fresh memo is always correct.
#[derive(Debug, Default)]
pub struct EmitMemo {
    short: FxSet<u128>,
    wide: FxSet<[u128; 2]>,
    long: FxSet<Box<[Segment]>>,
}

impl EmitMemo {
    /// An empty memo.
    pub fn new() -> EmitMemo {
        EmitMemo::default()
    }

    /// Record the head segment row `segs`; `true` the first time this memo
    /// sees it, `false` on a duplicate.
    pub fn first_sight(&mut self, segs: &[Segment]) -> bool {
        match segs.len() {
            0..=PACKED => self.short.insert(pack(segs)),
            n if n <= 2 * PACKED => self
                .wide
                .insert([pack(&segs[..PACKED]), pack(&segs[PACKED..])]),
            _ => !self.long.contains(segs) && self.long.insert(segs.into()),
        }
    }
}

/// Segments packed into one `u128` key.
const PACKED: usize = 3;

/// Up to [`PACKED`] segments as one `u128`: 40 bits per segment, first
/// segment lowest.
fn pack(segs: &[Segment]) -> u128 {
    segs.iter().enumerate().fold(0, |key, (i, seg)| {
        key | (u128::from(segment_code(*seg)) << (40 * i))
    })
}

/// A segment as a 40-bit code (8-bit tag + 32-bit id); three fit a `u128`,
/// and the tag for "no segment" is 0, so length is implicit.
fn segment_code(seg: Segment) -> u64 {
    match seg {
        Segment::Value(Value::Atom(a)) => (1u64 << 32) | u64::from(a.symbol().index()),
        Segment::Value(Value::Packed(p)) => (2u64 << 32) | u64::from(p.id().index()),
        Segment::Path(p) => (3u64 << 32) | u64::from(p.index()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdl_core::{path_of, AtomId, Symbol};

    #[test]
    fn heads_of_every_length_are_recorded_once() {
        let p = path_of(&["a", "b"]);
        let seg = Segment::Path(p.id());
        let atom = Segment::Value(Value::atom("a"));
        let rows: [&[Segment]; 10] = [
            &[],
            &[seg],
            &[seg, atom],
            &[atom, seg],
            &[seg, atom, seg],
            &[seg, atom, seg, atom],
            &[seg, atom, seg, atom, seg],
            &[seg, atom, seg, atom, seg, atom],
            &[atom, seg, atom, seg, atom, seg],
            &[seg, atom, seg, atom, seg, atom, seg],
        ];
        let mut memo = EmitMemo::new();
        for row in rows {
            assert!(memo.first_sight(row), "{row:?} is new");
        }
        for row in rows {
            assert!(!memo.first_sight(row), "{row:?} is a duplicate");
        }
    }

    /// Rows of every key size built from two segments.
    fn rows_of(a: Segment, b: Segment) -> Vec<Vec<Segment>> {
        [2, 3, 4, 6, 7]
            .into_iter()
            .map(|n| (0..n).map(|i| if i == 1 { b } else { a }).collect())
            .collect()
    }

    #[test]
    fn segment_kinds_sharing_an_id_stay_apart() {
        // An atom, a packed value and a spliced path whose interned ids are
        // all the same index.
        let p = path_of(&["x", "y"]);
        let ix = p.id().index();
        let kinds = [
            Segment::Value(Value::Atom(AtomId::from_symbol(Symbol::from_index(ix)))),
            Segment::Value(Value::Packed(p)),
            Segment::Path(p.id()),
        ];
        let mut memo = EmitMemo::new();
        for a in kinds {
            assert!(memo.first_sight(&[a]));
            for b in kinds {
                for row in rows_of(a, b) {
                    assert!(memo.first_sight(&row));
                }
            }
        }
        // Every row above was new; each is now a duplicate.
        for a in kinds {
            assert!(!memo.first_sight(&[a]));
            for b in kinds {
                for row in rows_of(a, b) {
                    assert!(!memo.first_sight(&row));
                }
            }
        }
    }
}
