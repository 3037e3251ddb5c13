//! E10 — §4 Part IV: the schema "will evolve over time" under incremental
//! generation, so migration must be correct and affordable.
//!
//! Measures migration wall time for evolution sequences over growing
//! tables, and verifies lossless round-trips (split → merge returns the
//! original rows). The "evolve" column times the sequence over the schema
//! alone (no rows); "migrate" times `migrate_table`, which reads the
//! table's schema and rows from the database, evolves both, and swaps the
//! result in.

use quarry_bench::{banner, f1, timed, Table};
use quarry_schema::evolution::apply_all;
use quarry_schema::{migrate_table, EvolutionOp};
use quarry_storage::{Column, DataType, Database, TableSchema, Value};

fn base_schema() -> TableSchema {
    TableSchema::new(
        "cities",
        vec![
            Column::new("name", DataType::Text),
            Column::new("population", DataType::Int),
            Column::nullable("location", DataType::Text),
        ],
        &["name"],
        &[],
    )
    .unwrap()
}

fn seed_rows(n: usize) -> Vec<Vec<Value>> {
    (0..n)
        .map(|i| {
            vec![
                Value::Text(format!("city{i}")),
                Value::Int(1000 + i as i64),
                Value::Text(format!("city{i}, State{}", i % 20)),
            ]
        })
        .collect()
}

fn evolution_sequence() -> Vec<EvolutionOp> {
    vec![
        EvolutionOp::AddColumn {
            column: Column::new("founded", DataType::Int),
            default: Value::Int(1900),
        },
        EvolutionOp::RenameColumn { from: "population".into(), to: "residents".into() },
        EvolutionOp::RetypeColumn { name: "residents".into(), to: DataType::Float },
        EvolutionOp::SplitColumn {
            from: "location".into(),
            delimiter: ",".into(),
            into: ("city_part".into(), "state_part".into()),
        },
        EvolutionOp::MergeColumns {
            from: ("city_part".into(), "state_part".into()),
            delimiter: ", ".into(),
            into: "location".into(),
        },
    ]
}

fn main() {
    banner(
        "E10 schema evolution",
        "\"the schema will evolve over time. Hence, Part IV will likely have to deal \
         with schema evolution challenges\" (§4)",
    );
    let ops = evolution_sequence();
    println!("evolution sequence: {} ops (add, rename, retype, split, merge)\n", ops.len());

    let mut table = Table::new(&["rows", "evolve ms", "migrate ms", "rows/ms"]);
    for n in [1_000usize, 10_000, 50_000] {
        let rows = seed_rows(n);
        let db = Database::in_memory();
        db.create_table(base_schema()).unwrap();
        {
            let tx = db.begin();
            for r in &rows {
                db.insert(tx, "cities", r.clone()).unwrap();
            }
            db.commit(tx).unwrap();
        }
        let (_, ms_evolve) = timed(|| apply_all(&base_schema(), &[], &ops).unwrap());
        let (_, ms_mig) = timed(|| migrate_table(&db, "cities", &ops).unwrap());
        table.row(&[n.to_string(), f1(ms_evolve), f1(ms_mig), f1(n as f64 / ms_mig.max(0.001))]);

        // Round-trip check: split+merge returned the original location text.
        let migrated = db.snapshot().scan("cities").unwrap();
        let schema = db.schema("cities").unwrap();
        let li = schema.column_index("location").unwrap();
        let ni = schema.column_index("name").unwrap();
        for row in migrated.iter().take(100) {
            let name = row[ni].to_string();
            let i: usize = name.trim_start_matches("city").parse().unwrap();
            assert_eq!(
                row[li],
                Value::Text(format!("city{i}, State{}", i % 20)),
                "split→merge must be lossless"
            );
        }
    }
    table.print();
    println!("\nexpected shape: migration cost linear in table size; evolution bookkeeping\nitself constant; split→merge round-trips byte-identical (asserted).");
}
