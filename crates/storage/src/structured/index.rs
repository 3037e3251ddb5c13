//! Secondary indexes: ordered `(value, row id)` entries kept in lockstep
//! with the overlay rows. Equality and range probes both come off the same
//! tree, in the `(value, row-id)` order a checkpoint image's index tree
//! uses.

use crate::value::Value;

use super::pmap::PMap;
use super::table::RowId;

/// One secondary index over a single column. Cloning shares the tree.
#[derive(Debug, Clone, Default)]
pub struct SecondaryIndex {
    entries: PMap<(Value, RowId), ()>,
    /// Distinct values among `entries` (the optimizer's selectivity
    /// model), kept as entries come and go: equal values are adjacent in
    /// the tree, so a value is new exactly when neither neighbour of its
    /// entry holds it.
    distinct: usize,
}

impl SecondaryIndex {
    /// Create an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Entries from the first one whose value is `>= lo`.
    fn entries_from(&self, lo: Option<&Value>) -> impl Iterator<Item = &(Value, RowId)> {
        self.entries.seek(move |(v, _)| lo.is_some_and(|lo| v < lo)).map(|(entry, ())| entry)
    }

    fn has_value(&self, value: &Value) -> bool {
        self.entries_from(Some(value)).next().is_some_and(|(v, _)| v == value)
    }

    /// Register `row` under `value`, in one descent of the tree: the leaf
    /// the entry lands in says whether a neighbour holds the same value.
    /// Only an entry on a leaf edge with no such neighbour in the leaf
    /// takes a second look, over the one value, to settle the count.
    pub fn insert(&mut self, value: &Value, row: RowId) {
        let entry = (value.clone(), row);
        let (old, beside) = self.entries.insert_beside(entry, (), |(a, _), (b, _)| a == b);
        if old.is_some() {
            return;
        }
        let shared =
            beside.unwrap_or_else(|| self.range(Some(value), Some(value)).nth(1).is_some());
        if !shared {
            self.distinct += 1;
        }
    }

    /// Remove `row` from under `value` (no-op if absent).
    pub fn remove(&mut self, value: &Value, row: RowId) {
        if self.entries.remove(&(value.clone(), row)).is_some() && !self.has_value(value) {
            self.distinct -= 1;
        }
    }

    /// Rows whose indexed value equals `value`.
    pub fn get<'a>(&'a self, value: &'a Value) -> impl Iterator<Item = RowId> + 'a {
        self.range(Some(value), Some(value)).map(|(_, row)| *row)
    }

    /// `(value, row)` entries whose value falls in `[lo, hi]` (either
    /// bound optional), in `(value, row-id)` order — the merge key when
    /// combining this overlay index with a checkpoint image's index tree.
    /// An inverted window (`lo > hi`) is empty, not a panic — the planner
    /// derives bounds from arbitrary user conjunctions.
    pub fn range<'a>(
        &'a self,
        lo: Option<&'a Value>,
        hi: Option<&'a Value>,
    ) -> impl Iterator<Item = &'a (Value, RowId)> {
        self.entries_from(lo).take_while(move |(v, _)| hi.is_none_or(|hi| v <= hi))
    }

    /// Total (value, row) pairs indexed.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Distinct indexed values (used by the optimizer's selectivity model).
    pub fn distinct_values(&self) -> usize {
        self.distinct
    }
}

#[cfg(test)]
impl SecondaryIndex {
    pub(crate) fn unshared_nodes(&self, other: &SecondaryIndex) -> (usize, usize) {
        self.entries.unshared_nodes(&other.entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn rows(ix: &SecondaryIndex, lo: Option<&Value>, hi: Option<&Value>) -> Vec<RowId> {
        ix.range(lo, hi).map(|(_, row)| *row).collect()
    }

    #[test]
    fn insert_get_remove() {
        let mut ix = SecondaryIndex::new();
        ix.insert(&Value::Int(10), RowId(1));
        ix.insert(&Value::Int(10), RowId(2));
        ix.insert(&Value::Int(20), RowId(3));
        assert_eq!(ix.get(&Value::Int(10)).count(), 2);
        assert_eq!(ix.len(), 3);
        ix.remove(&Value::Int(10), RowId(1));
        assert_eq!(ix.get(&Value::Int(10)).collect::<Vec<_>>(), vec![RowId(2)]);
        assert_eq!(ix.len(), 2);
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let mut ix = SecondaryIndex::new();
        ix.insert(&Value::Int(1), RowId(5));
        ix.insert(&Value::Int(1), RowId(5));
        assert_eq!((ix.len(), ix.distinct_values()), (1, 1));
    }

    #[test]
    fn remove_absent_is_noop() {
        let mut ix = SecondaryIndex::new();
        ix.remove(&Value::Int(1), RowId(5));
        assert!(ix.is_empty());
    }

    #[test]
    fn range_queries_inclusive() {
        let mut ix = SecondaryIndex::new();
        for i in 0..10 {
            ix.insert(&Value::Int(i), RowId(i as u64));
        }
        let got = rows(&ix, Some(&Value::Int(3)), Some(&Value::Int(6)));
        assert_eq!(got, vec![RowId(3), RowId(4), RowId(5), RowId(6)]);
        assert_eq!(rows(&ix, Some(&Value::Int(8)), None), vec![RowId(8), RowId(9)]);
        assert_eq!(rows(&ix, None, None).len(), 10);
        assert!(rows(&ix, Some(&Value::Int(6)), Some(&Value::Int(3))).is_empty(), "inverted");
    }

    #[test]
    fn mixed_numeric_types_share_order() {
        let mut ix = SecondaryIndex::new();
        ix.insert(&Value::Int(2), RowId(1));
        ix.insert(&Value::Float(2.5), RowId(2));
        ix.insert(&Value::Int(3), RowId(3));
        let got = rows(&ix, Some(&Value::Float(2.1)), Some(&Value::Int(3)));
        assert_eq!(got, vec![RowId(2), RowId(3)]);
    }

    #[test]
    fn distinct_values_follow_inserts_and_removes() {
        let mut ix = SecondaryIndex::new();
        ix.insert(&Value::Int(1), RowId(1));
        ix.insert(&Value::Int(1), RowId(2));
        ix.insert(&Value::Int(2), RowId(3));
        // Equal under the value order, so one distinct value.
        ix.insert(&Value::Float(2.0), RowId(4));
        assert_eq!(ix.distinct_values(), 2);
        ix.remove(&Value::Int(1), RowId(1));
        assert_eq!(ix.distinct_values(), 2, "row 2 still holds the value");
        ix.remove(&Value::Int(1), RowId(2));
        ix.remove(&Value::Int(1), RowId(2));
        assert_eq!(ix.distinct_values(), 1);
    }

    /// One step of the model property: a run of consecutive rows, all
    /// under one value, inserted or removed.
    #[derive(Debug, Clone)]
    struct Run {
        insert: bool,
        value: i64,
        /// Written as a `Float`: equal to the `Int` of the same number.
        float: bool,
        first: u64,
        len: u64,
    }

    fn runs() -> impl Strategy<Value = Vec<Run>> {
        // Four values and runs of up to 150 rows: longer than a map leaf
        // (64 entries), so one value's entries straddle leaf edges, and
        // inserts land on those edges both inside and between runs.
        let run = (0u8..10, 0i64..4, any::<bool>(), 0u64..400, 1u64..150).prop_map(
            |(kind, value, float, first, len)| Run { insert: kind < 6, value, float, first, len },
        );
        proptest::collection::vec(run, 1..80)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The distinct count kept by single-descent inserts equals a
        /// recount of the entries after every step, and the entries are
        /// the model's.
        #[test]
        fn prop_distinct_count_matches_a_recount_across_leaf_edges(runs in runs()) {
            let mut ix = SecondaryIndex::new();
            let mut model: BTreeSet<(i64, u64)> = BTreeSet::new();
            for run in runs {
                let value = if run.float { Value::Float(run.value as f64) } else { Value::Int(run.value) };
                for row in run.first..run.first + run.len {
                    if run.insert {
                        ix.insert(&value, RowId(row));
                        model.insert((run.value, row));
                    } else {
                        ix.remove(&value, RowId(row));
                        model.remove(&(run.value, row));
                    }
                }
                let entries: Vec<(i64, u64)> = ix
                    .range(None, None)
                    .map(|(v, row)| (v.as_f64().unwrap_or(f64::NAN) as i64, row.0))
                    .collect();
                let mut recount = entries.iter().map(|(v, _)| v).collect::<Vec<_>>();
                recount.dedup();
                prop_assert_eq!(ix.distinct_values(), recount.len());
                prop_assert_eq!(ix.len(), model.len());
                prop_assert_eq!(entries, model.iter().copied().collect::<Vec<_>>());
            }
        }
    }
}
