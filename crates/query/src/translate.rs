//! Keyword → structured-query translation.
//!
//! §3.2: an ordinary user "would just want to start with a keyword query,
//! such as 'average temperature Madison'. In this case it would be highly
//! desirable for the system to guide the user ... One way to do so is to
//! 'guess' and show the user several structured queries". This module is
//! the guesser: it maps keywords onto tables, columns, and known values,
//! assembles candidate query trees, and ranks them by how much of the
//! keyword query they explain.

use crate::engine::{AggFn, Predicate, Query};
use quarry_storage::{is_system_table, DataType, DbSnapshot, Value};
use std::collections::{BTreeMap, HashMap};

/// One ranked translation candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateQuery {
    /// The structured query.
    pub query: Query,
    /// Ranking score (higher = better).
    pub score: f64,
    /// Which keywords each part consumed (explanation for the user).
    pub explanation: String,
}

#[derive(Debug, Clone)]
struct TableInfo {
    name: String,
    /// (column, type) pairs.
    columns: Vec<(String, DataType)>,
}

/// The translator: a catalog snapshot plus a value index.
#[derive(Debug, Clone, Default)]
pub struct Translator {
    tables: Vec<TableInfo>,
    /// lowercased text value → (table, column) witnesses.
    values: HashMap<String, Vec<(String, String)>>,
    /// column-name synonyms: keyword → canonical fragment.
    synonyms: BTreeMap<String, String>,
}

impl Translator {
    /// Build from an immutable [`DbSnapshot`]: the catalog plus a
    /// text-value index as of the snapshot's LSN (sorted table iteration,
    /// row-id scan order). System tables are not data and are never
    /// proposed. Lock-free: readers can (re)build translators without
    /// touching the live engine.
    pub fn from_snapshot(snap: &DbSnapshot) -> Translator {
        let mut t = Translator { synonyms: default_synonyms(), ..Default::default() };
        for table in snap.table_names().into_iter().filter(|t| !is_system_table(t)) {
            let Ok(schema) = snap.schema(&table) else { continue };
            let columns: Vec<(String, DataType)> =
                schema.columns.iter().map(|c| (c.name.clone(), c.dtype)).collect();
            if let Ok(rows) = snap.scan(&table) {
                for row in &rows {
                    for (j, v) in row.iter().enumerate() {
                        if let Some(text) = v.as_text() {
                            t.values
                                .entry(text.to_lowercase())
                                .or_default()
                                .push((table.clone(), columns[j].0.clone()));
                        }
                    }
                }
            }
            t.tables.push(TableInfo { name: table, columns });
        }
        for v in t.values.values_mut() {
            v.sort();
            v.dedup();
        }
        t
    }

    /// Translate a keyword query into ranked candidates (at most `k`).
    pub fn translate(&self, keywords: &str, k: usize) -> Vec<CandidateQuery> {
        let tokens: Vec<String> = keywords
            .split(|c: char| !c.is_alphanumeric() && c != '_')
            .filter(|t| !t.is_empty())
            .map(str::to_lowercase)
            .collect();
        if tokens.is_empty() {
            return Vec::new();
        }
        let n_tokens = tokens.len() as f64;

        // 1. Aggregate intent.
        let agg = tokens.iter().find_map(|t| agg_intent(t));

        // 2. Value matches: longest phrases first (up to trigrams).
        let mut value_preds: Vec<(String, String, Value, usize)> = Vec::new(); // (table, col, value, tokens consumed)
        let mut consumed = vec![false; tokens.len()];
        for len in (1..=3usize.min(tokens.len())).rev() {
            for start in 0..=tokens.len() - len {
                if consumed[start..start + len].iter().any(|&c| c) {
                    continue;
                }
                let phrase = tokens[start..start + len].join(" ");
                if let Some(hits) = self.values.get(&phrase) {
                    for (table, col) in hits {
                        value_preds.push((
                            table.clone(),
                            col.clone(),
                            Value::Text(original_case(&phrase, hits)),
                            len,
                        ));
                    }
                    consumed[start..start + len].iter_mut().for_each(|c| *c = true);
                }
            }
        }

        // 3. Column matches among unconsumed tokens.
        let mut column_hits: Vec<(String, String, DataType)> = Vec::new(); // (table, col, type)
        for (i, tok) in tokens.iter().enumerate() {
            if consumed[i] {
                continue;
            }
            let tok_canon = self.synonyms.get(tok).cloned().unwrap_or_else(|| tok.clone());
            for table in &self.tables {
                for (col, ty) in &table.columns {
                    if column_matches(col, &tok_canon) {
                        column_hits.push((table.name.clone(), col.clone(), *ty));
                    }
                }
            }
        }

        // 4. Assemble candidates per table.
        let mut out: Vec<CandidateQuery> = Vec::new();
        for table in &self.tables {
            let preds: Vec<Predicate> = group_value_preds(&value_preds, &table.name);
            let cols_here: Vec<&(String, String, DataType)> =
                column_hits.iter().filter(|(t, _, _)| t == &table.name).collect();
            let matched_tokens = preds.len() as f64 + cols_here.len() as f64;
            if matched_tokens == 0.0 {
                continue;
            }
            let base = Query::scan(&table.name);
            let filtered =
                if preds.is_empty() { base.clone() } else { base.clone().filter(preds.clone()) };

            if let Some(agg) = agg {
                // Aggregate over each matched numeric column.
                for (_, col, ty) in &cols_here {
                    if matches!(ty, DataType::Int | DataType::Float) {
                        let q = filtered.clone().aggregate(None, agg, col);
                        out.push(CandidateQuery {
                            explanation: format!(
                                "{} of {col} in {}{}",
                                agg.name(),
                                table.name,
                                if preds.is_empty() { String::new() } else { " (filtered)".into() }
                            ),
                            score: (matched_tokens + 1.0) / (n_tokens + 1.0),
                            query: q,
                        });
                    }
                }
            }
            // Lookup candidate: project matched columns (or everything).
            let q = if cols_here.is_empty() {
                filtered.clone()
            } else {
                let names: Vec<&str> = cols_here.iter().map(|(_, c, _)| c.as_str()).collect();
                filtered.clone().project(&names)
            };
            out.push(CandidateQuery {
                explanation: format!("lookup in {}", table.name),
                score: matched_tokens / (n_tokens + 1.0),
                query: q,
            });
        }
        out.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.explanation.cmp(&b.explanation))
        });
        out.dedup_by(|a, b| a.query == b.query);
        out.truncate(k);
        out
    }
}

/// Collapse same-column value predicates into `IN`, keep others as `Eq`.
fn group_value_preds(
    value_preds: &[(String, String, Value, usize)],
    table: &str,
) -> Vec<Predicate> {
    let mut by_col: BTreeMap<&str, Vec<Value>> = BTreeMap::new();
    for (t, col, v, _) in value_preds {
        if t == table {
            by_col.entry(col).or_default().push(v.clone());
        }
    }
    by_col
        .into_iter()
        .map(|(col, mut vs)| {
            vs.sort();
            vs.dedup();
            if let [only] = vs.as_slice() {
                Predicate::Eq(col.to_string(), only.clone())
            } else {
                Predicate::In(col.to_string(), vs)
            }
        })
        .collect()
}

fn agg_intent(tok: &str) -> Option<AggFn> {
    match tok {
        "average" | "avg" | "mean" => Some(AggFn::Avg),
        "total" | "sum" => Some(AggFn::Sum),
        "count" | "many" => Some(AggFn::Count),
        "highest" | "max" | "maximum" | "warmest" | "largest" | "biggest" => Some(AggFn::Max),
        "lowest" | "min" | "minimum" | "coldest" | "smallest" => Some(AggFn::Min),
        _ => None,
    }
}

fn column_matches(col: &str, tok: &str) -> bool {
    if tok.len() < 3 {
        return false;
    }
    let col = col.to_lowercase();
    col == tok || col.contains(tok) || (tok.contains(&col) && col.len() >= 3)
}

/// Recover the stored casing of a matched value (the value index is
/// lowercased; predicates must compare against stored text). The simple
/// rule: title-case each word — matching how the corpus stores names.
fn original_case(phrase: &str, _hits: &[(String, String)]) -> String {
    phrase
        .split(' ')
        .map(|w| {
            let mut cs = w.chars();
            match cs.next() {
                Some(f) => f.to_uppercase().chain(cs).collect::<String>(),
                None => String::new(),
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn default_synonyms() -> BTreeMap<String, String> {
    [
        ("temperature", "temp"),
        ("temperatures", "temp"),
        ("people", "population"),
        ("inhabitants", "population"),
        ("residents", "population"),
        ("founded", "founded"),
        ("established", "founded"),
        ("works", "employer"),
        ("employed", "employer"),
        ("company", "employer"),
        ("lives", "residence"),
        ("area", "area"),
    ]
    .into_iter()
    .map(|(a, b)| (a.to_string(), b.to_string()))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::execute;
    use quarry_storage::{Column, Database, TableSchema};

    fn db() -> Database {
        let db = Database::in_memory();
        db.create_table(
            TableSchema::new(
                "cities",
                vec![
                    Column::new("name", DataType::Text),
                    Column::new("state", DataType::Text),
                    Column::new("population", DataType::Int),
                ],
                &["name"],
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_table(
            TableSchema::new(
                "temps",
                vec![
                    Column::new("city", DataType::Text),
                    Column::new("month", DataType::Text),
                    Column::new("temp", DataType::Int),
                ],
                &["city", "month"],
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        for (n, s, p) in [("Madison", "Wisconsin", 250_000i64), ("Oakton", "Iowa", 9_500)] {
            db.insert_autocommit("cities", vec![n.into(), s.into(), Value::Int(p)]).unwrap();
        }
        for (m, t) in [("January", 20i64), ("July", 72), ("September", 62)] {
            db.insert_autocommit("temps", vec!["Madison".into(), m.into(), Value::Int(t)]).unwrap();
        }
        db
    }

    #[test]
    fn paper_keyword_query_translates_to_aggregate() {
        let db = db();
        let tr = Translator::from_snapshot(&db.snapshot());
        let cands = tr.translate("average temperature Madison", 5);
        assert!(!cands.is_empty());
        let top = &cands[0];
        // Top candidate: AVG(temp) over temps filtered city = Madison.
        let r = execute(&db, &top.query).unwrap();
        let avg = r.scalar().and_then(Value::as_f64).expect("scalar avg");
        assert!((avg - (20.0 + 72.0 + 62.0) / 3.0).abs() < 1e-9, "{avg}");
        assert!(top.explanation.contains("AVG"));
    }

    #[test]
    fn a_system_table_is_never_proposed() {
        let db = db();
        let cols =
            vec![Column::new("table", DataType::Text), Column::new("column", DataType::Text)];
        db.create_table(TableSchema::new("_notes", cols, &["table", "column"], &[]).unwrap())
            .unwrap();
        db.insert_autocommit("_notes", vec!["cities".into(), "population".into()]).unwrap();
        let tr = Translator::from_snapshot(&db.snapshot());
        let cands = tr.translate("population cities Madison", 10);
        assert!(!cands.is_empty());
        assert!(cands.iter().all(|c| !c.query.display().contains("_notes")), "{cands:?}");
    }

    #[test]
    fn lookup_query_by_value() {
        let db = db();
        let tr = Translator::from_snapshot(&db.snapshot());
        let cands = tr.translate("population Madison", 5);
        let top = &cands[0];
        let r = execute(&db, &top.query).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert!(r.rows[0].contains(&Value::Int(250_000)));
    }

    #[test]
    fn multiple_values_become_in_predicate() {
        let db = db();
        let tr = Translator::from_snapshot(&db.snapshot());
        let cands = tr.translate("temperature January July Madison", 5);
        let top = &cands[0];
        let rendered = top.query.display();
        assert!(rendered.contains("IN"), "{rendered}");
        let r = execute(&db, &top.query).unwrap();
        assert_eq!(r.rows.len(), 2, "{rendered}");
    }

    #[test]
    fn max_intent() {
        let db = db();
        let tr = Translator::from_snapshot(&db.snapshot());
        let cands = tr.translate("warmest temperature Madison", 5);
        let r = execute(&db, &cands[0].query).unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(72)));
    }

    #[test]
    fn unknown_keywords_produce_no_candidates() {
        let db = db();
        let tr = Translator::from_snapshot(&db.snapshot());
        assert!(tr.translate("qwerty zxcvb", 5).is_empty());
        assert!(tr.translate("", 5).is_empty());
    }

    #[test]
    fn candidates_are_ranked_and_bounded() {
        let db = db();
        let tr = Translator::from_snapshot(&db.snapshot());
        let cands = tr.translate("average population Wisconsin", 3);
        assert!(cands.len() <= 3);
        for w in cands.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }
}
