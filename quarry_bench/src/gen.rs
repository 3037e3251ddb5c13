//! The generator and its oracle: rows, operation streams and the answer
//! every operation must get. Everything derives from `--seed`; sizes are
//! fixed counts and never depend on the seed or on how fast a run goes.

use quarry_query::engine::{AggFn, Predicate, Query};
use quarry_storage::{Column, DataType, Row, TableSchema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub const TABLE: &str = "readings";
pub const STATIONS: i64 = 97;
/// `value` is drawn without repetition from `0..VALUE_SPACE`, so a
/// `w`-wide window over `n` rows matches about `n * w / VALUE_SPACE` of
/// them and a sort on `value` has no ties to break.
pub const VALUE_SPACE: i64 = 100_000;
/// Rows per insert transaction, in set-up and in `ingest_read` alike.
pub const BATCH: usize = 100;
pub const HOT_KEYS: usize = 128;

pub fn schema() -> TableSchema {
    TableSchema::new(
        TABLE,
        vec![
            Column::new("id", DataType::Int),
            Column::new("station", DataType::Text),
            Column::new("value", DataType::Int),
            Column::new("note", DataType::Text),
        ],
        &["id"],
        &[],
    )
    .expect("static schema literal")
}

/// Secondary indexes every workload creates. A primary-key equality
/// without an index on `id` is a full scan: the planner only routes
/// through secondary indexes.
pub const INDEXED: [&str; 2] = ["id", "value"];

fn station(id: i64) -> String {
    // Zero-padded, so text order is station order.
    format!("station-{:02}", id % STATIONS)
}

fn shuffled(n: usize, rng: &mut StdRng) -> Vec<i64> {
    let mut v: Vec<i64> = (0..n as i64).collect();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
    v
}

/// The table a workload runs on.
pub struct Dataset {
    /// Row `id` at index `id`.
    rows: Vec<Row>,
    /// Ids in the order they are inserted.
    pub insert_order: Vec<i64>,
    /// `(value, id)` ascending: the oracle for windows over `value`.
    by_value: Vec<(i64, i64)>,
}

impl Dataset {
    pub fn new(n: usize, seed: u64) -> Dataset {
        assert!(n as i64 <= VALUE_SPACE, "values are drawn without repetition");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0fda_7a5e);
        let values = shuffled(VALUE_SPACE as usize, &mut rng);
        let rows: Vec<Row> = (0..n as i64)
            .map(|id| {
                vec![
                    Value::Int(id),
                    Value::Text(station(id)),
                    Value::Int(values[id as usize]),
                    Value::Text(format!("reading {id:06}: nominal, no maintenance flag set")),
                ]
            })
            .collect();
        let mut by_value: Vec<(i64, i64)> =
            (0..n as i64).map(|id| (values[id as usize], id)).collect();
        by_value.sort_unstable();
        Dataset { rows, insert_order: shuffled(n, &mut rng), by_value }
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn row(&self, id: i64) -> &Row {
        &self.rows[id as usize]
    }

    /// Insert transactions of [`BATCH`] rows, in insert order.
    pub fn batches(&self) -> impl Iterator<Item = Vec<Row>> + '_ {
        self.insert_order
            .chunks(BATCH)
            .map(|ids| ids.iter().map(|&id| self.row(id).clone()).collect())
    }

    fn window(&self, lo: i64, hi: i64) -> &[(i64, i64)] {
        let start = self.by_value.partition_point(|&(v, _)| v < lo);
        let end = self.by_value.partition_point(|&(v, _)| v <= hi);
        &self.by_value[start..end]
    }

    /// The rows `op` must return, in the order it must return them.
    pub fn expect(&self, op: &Op) -> Vec<Row> {
        match *op {
            Op::Point { id } => vec![self.row(id).clone()],
            Op::Count { lo, hi } => {
                let mut per_station = [0i64; STATIONS as usize];
                for &(_, id) in self.window(lo, hi) {
                    per_station[(id % STATIONS) as usize] += 1;
                }
                (0..STATIONS)
                    .filter(|&s| per_station[s as usize] > 0)
                    .map(|s| vec![Value::Text(station(s)), Value::Int(per_station[s as usize])])
                    .collect()
            }
            Op::Top { lo, hi, k } => self
                .window(lo, hi)
                .iter()
                .rev()
                .take(k)
                .map(|&(_, id)| self.row(id).clone())
                .collect(),
        }
    }
}

/// One read operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `id = k`.
    Point { id: i64 },
    /// `COUNT(id) GROUP BY station` over `lo <= value <= hi`.
    Count { lo: i64, hi: i64 },
    /// The `k` largest `value`s in `lo <= value <= hi`, whole rows.
    Top { lo: i64, hi: i64, k: usize },
}

fn value_window(lo: i64, hi: i64) -> Query {
    Query::scan(TABLE).filter(vec![
        Predicate::Ge("value".into(), Value::Int(lo)),
        Predicate::Le("value".into(), Value::Int(hi)),
    ])
}

impl Op {
    pub fn query(&self) -> Query {
        match *self {
            Op::Point { id } => {
                Query::scan(TABLE).filter(vec![Predicate::Eq("id".into(), Value::Int(id))])
            }
            Op::Count { lo, hi } => {
                value_window(lo, hi).aggregate(Some("station"), AggFn::Count, "id")
            }
            Op::Top { lo, hi, k } => value_window(lo, hi).sort("value", true, Some(k)),
        }
    }
}

/// Which operations a workload draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 80 % uniform ids, 20 % from a fixed hot set of [`HOT_KEYS`] ids.
    HotCold,
    /// Grouped counts over `width`-wide windows at uniform positions.
    Counts { width: i64 },
    /// Alternating top-`k` sorts and grouped counts, each pair over the
    /// same `width`-wide window.
    TopThenCount { width: i64, k: usize },
}

/// An endless, seeded stream of read operations over `rows` rows.
pub struct OpStream {
    rng: StdRng,
    mix: Mix,
    rows: i64,
    hot: Vec<i64>,
    /// The window a `TopThenCount` pair shares.
    pending: Option<(i64, i64)>,
}

impl OpStream {
    pub fn new(mix: Mix, rows: usize, seed: u64) -> OpStream {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0b50_f0b5);
        let mut hot = shuffled(rows, &mut rng);
        hot.truncate(HOT_KEYS);
        OpStream { rng, mix, rows: rows as i64, hot, pending: None }
    }

    fn window(&mut self, width: i64) -> (i64, i64) {
        let lo = self.rng.gen_range(0..=VALUE_SPACE - width);
        (lo, lo + width - 1)
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        Some(match self.mix {
            Mix::HotCold => {
                let id = if self.rng.gen_range(0..5) == 0 {
                    self.hot[self.rng.gen_range(0..self.hot.len())]
                } else {
                    self.rng.gen_range(0..self.rows)
                };
                Op::Point { id }
            }
            Mix::Counts { width } => {
                let (lo, hi) = self.window(width);
                Op::Count { lo, hi }
            }
            Mix::TopThenCount { width, k } => match self.pending.take() {
                Some((lo, hi)) => Op::Count { lo, hi },
                None => {
                    let (lo, hi) = self.window(width);
                    self.pending = Some((lo, hi));
                    Op::Top { lo, hi, k }
                }
            },
        })
    }
}

/// `ingest_read`: after the `i`-th insert transaction, which of its rows
/// is read back.
pub fn read_back(batch: &[Row], seed: u64, i: usize) -> i64 {
    let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    match &batch[rng.gen_range(0..batch.len())][0] {
        Value::Int(id) => *id,
        other => unreachable!("generated ids are Int, got {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarry_storage::Database;

    #[test]
    fn same_seed_same_rows_and_ops() {
        let (a, b) = (Dataset::new(500, 7), Dataset::new(500, 7));
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.insert_order, b.insert_order);
        for mix in
            [Mix::HotCold, Mix::Counts { width: 400 }, Mix::TopThenCount { width: 2000, k: 20 }]
        {
            let x: Vec<Op> = OpStream::new(mix, 500, 7).take(300).collect();
            let y: Vec<Op> = OpStream::new(mix, 500, 7).take(300).collect();
            assert_eq!(x, y);
        }
    }

    #[test]
    fn other_seed_other_keys_same_sizes() {
        let (a, b) = (Dataset::new(500, 1), Dataset::new(500, 2));
        assert_ne!(a.insert_order, b.insert_order);
        assert_ne!(a.rows, b.rows, "the value permutation follows the seed");
        assert_eq!(a.len(), b.len());
        assert_eq!(a.batches().count(), b.batches().count());
        let bytes = |d: &Dataset| -> usize {
            d.rows.iter().flatten().map(|v| v.as_text().map_or(8, str::len)).sum()
        };
        assert_eq!(bytes(&a), bytes(&b));
        let x: Vec<Op> = OpStream::new(Mix::HotCold, 500, 1).take(300).collect();
        let y: Vec<Op> = OpStream::new(Mix::HotCold, 500, 2).take(300).collect();
        assert_ne!(x, y);
    }

    #[test]
    fn hot_set_takes_a_fifth_of_point_reads() {
        let stream = OpStream::new(Mix::HotCold, 20_000, 3);
        let hot = stream.hot.clone();
        assert_eq!(hot.len(), HOT_KEYS);
        let hits = stream
            .take(20_000)
            .filter(|op| matches!(op, Op::Point { id } if hot.contains(id)))
            .count();
        assert!((3_600..4_600).contains(&hits), "{hits} of 20000 from the hot set");
    }

    #[test]
    fn pairs_share_their_window() {
        let ops: Vec<Op> =
            OpStream::new(Mix::TopThenCount { width: 2000, k: 20 }, 500, 9).take(4).collect();
        match (ops[0], ops[1], ops[2]) {
            (Op::Top { lo, hi, k: 20 }, Op::Count { lo: l2, hi: h2 }, Op::Top { .. }) => {
                assert_eq!((lo, hi), (l2, h2));
                assert_eq!(hi - lo + 1, 2000);
            }
            other => panic!("unexpected op order {other:?}"),
        }
    }

    /// The oracle against the engine itself on a 500-row table: point,
    /// range-count and top-k.
    #[test]
    fn oracle_agrees_with_the_engine_on_500_rows() {
        let data = Dataset::new(500, 11);
        let db = Database::in_memory();
        db.create_table(schema()).unwrap();
        for col in INDEXED {
            db.create_index(TABLE, col).unwrap();
        }
        for batch in data.batches() {
            let tx = db.begin();
            for row in batch {
                db.insert(tx, TABLE, row).unwrap();
            }
            db.commit(tx).unwrap();
        }
        let ops = [
            Op::Point { id: 0 },
            Op::Point { id: 499 },
            Op::Count { lo: 0, hi: VALUE_SPACE - 1 },
            Op::Count { lo: 40_000, hi: 59_999 },
            Op::Count { lo: 5, hi: 5 },
            Op::Top { lo: 0, hi: VALUE_SPACE - 1, k: 20 },
            Op::Top { lo: 10_000, hi: 12_000, k: 20 },
        ];
        for op in ops {
            let got = quarry_query::engine::execute(&db, &op.query()).unwrap();
            assert_eq!(got.rows, data.expect(&op), "{op:?}");
        }
        // Hand-checked shapes, independent of the engine.
        let all = data.expect(&Op::Count { lo: 0, hi: VALUE_SPACE - 1 });
        assert_eq!(all.len(), STATIONS as usize);
        assert_eq!(
            all.iter()
                .map(|r| match r[1] {
                    Value::Int(n) => n,
                    _ => 0,
                })
                .sum::<i64>(),
            500
        );
        let top = data.expect(&Op::Top { lo: 0, hi: VALUE_SPACE - 1, k: 20 });
        assert_eq!(top.len(), 20);
        assert!(top.windows(2).all(|w| w[0][2] > w[1][2]), "descending, no ties");
    }
}
