//! Exploration sessions: the seamless movement between exploitation modes.
//!
//! A session starts in whatever mode the user is comfortable with (usually
//! keyword search), records every step, and carries state forward — the
//! keyword results seed the translator, a chosen candidate becomes a form,
//! a filled form becomes a structured answer. The transition log is what
//! E1/E8 inspect.

use crate::engine::{execute, Query, QueryResult};
use crate::forms::{self, QueryForm};
use crate::index::{InvertedIndex, SearchHit};
use crate::translate::{CandidateQuery, Translator};
use quarry_storage::{Database, Value};

/// Exploitation modes a session can be in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Keyword search over raw documents.
    Keyword,
    /// Reviewing suggested structured-query forms.
    FormChoice,
    /// Executing structured queries.
    Structured,
}

/// One logged step.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Mode the step ran in.
    pub mode: Mode,
    /// What the user did.
    pub action: String,
}

/// An interactive exploration session.
pub struct Session<'a> {
    index: &'a InvertedIndex,
    translator: &'a Translator,
    db: &'a Database,
    steps: Vec<Step>,
    candidates: Vec<CandidateQuery>,
}

impl<'a> Session<'a> {
    /// Open a session over the three engines.
    pub fn new(
        index: &'a InvertedIndex,
        translator: &'a Translator,
        db: &'a Database,
    ) -> Session<'a> {
        Session { index, translator, db, steps: Vec::new(), candidates: Vec::new() }
    }

    /// Keyword-search step: returns document hits *and* stages structured
    /// candidates for the same keywords (the "guide the user" move).
    pub fn keyword(&mut self, query: &str, k: usize) -> (Vec<SearchHit>, Vec<QueryForm>) {
        self.steps.push(Step { mode: Mode::Keyword, action: format!("search: {query}") });
        let hits = self.index.search(query, k);
        self.candidates = self.translator.translate(query, k);
        let forms = self.candidates.iter().map(|c| forms::render(&c.query)).collect();
        (hits, forms)
    }

    /// The staged candidates from the last keyword step.
    pub fn candidates(&self) -> &[CandidateQuery] {
        &self.candidates
    }

    /// Choose the `i`-th suggested form and run it.
    pub fn choose_form(&mut self, i: usize) -> Option<QueryResult> {
        let cand = self.candidates.get(i)?;
        self.steps.push(Step {
            mode: Mode::FormChoice,
            action: format!("chose form {i}: {}", cand.query.display()),
        });
        self.run(cand.query.clone())
    }

    /// Choose a form, edit one field, then run it.
    pub fn fill_and_run(&mut self, i: usize, field: usize, value: Value) -> Option<QueryResult> {
        let cand = self.candidates.get(i)?;
        let edited = forms::fill(&cand.query, field, value);
        self.steps.push(Step {
            mode: Mode::FormChoice,
            action: format!("edited form {i} field {field}"),
        });
        self.run(edited)
    }

    /// Direct structured-query step (the sophisticated-user path).
    pub fn structured(&mut self, q: Query) -> Option<QueryResult> {
        self.run(q)
    }

    /// Explain a structured query instead of returning its rows: the
    /// physical plan with access paths and per-operator row counts. Logged
    /// as a structured-mode step.
    pub fn explain(&mut self, q: &Query) -> Option<String> {
        self.steps
            .push(Step { mode: Mode::Structured, action: format!("explain: {}", q.display()) });
        q.explain(self.db).ok()
    }

    fn run(&mut self, q: Query) -> Option<QueryResult> {
        self.steps.push(Step { mode: Mode::Structured, action: format!("run: {}", q.display()) });
        execute(self.db, &q).ok()
    }

    /// The transition log.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarry_corpus::{DocId, DocKind, Document};
    use quarry_storage::{Column, DataType, TableSchema};

    fn setup() -> (InvertedIndex, Database) {
        let docs = vec![Document {
            id: DocId(0),
            title: "Madison".into(),
            text: "Madison has a July temperature of 72 F.".into(),
            kind: DocKind::City,
        }];
        let ix = InvertedIndex::build(&docs);
        let db = Database::in_memory();
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
        for (m, t) in [("January", 20i64), ("July", 72)] {
            db.insert_autocommit("temps", vec!["Madison".into(), m.into(), Value::Int(t)]).unwrap();
        }
        (ix, db)
    }

    #[test]
    fn keyword_to_form_to_structured_journey() {
        let (ix, db) = setup();
        let tr = Translator::from_snapshot(&db.snapshot());
        let mut s = Session::new(&ix, &tr, &db);

        let (hits, forms) = s.keyword("average temperature Madison", 5);
        assert!(!hits.is_empty(), "keyword mode still returns documents");
        assert!(!forms.is_empty(), "structured candidates suggested");

        let result = s.choose_form(0).expect("top form runs");
        let avg = result.scalar().and_then(Value::as_f64).unwrap();
        assert!((avg - 46.0).abs() < 1e-9, "{avg}");

        // The session walked through all three modes, in order.
        let modes: Vec<Mode> = s.steps().iter().map(|st| st.mode).collect();
        assert_eq!(modes, vec![Mode::Keyword, Mode::FormChoice, Mode::Structured]);
    }

    #[test]
    fn fill_and_run_edits_a_field() {
        let (ix, db) = setup();
        let tr = Translator::from_snapshot(&db.snapshot());
        let mut s = Session::new(&ix, &tr, &db);
        s.keyword("temperature July Madison", 5);
        // Edit the month field (July → January) and re-run.
        let form = forms::render(&s.candidates()[0].query);
        let month_field = form.fields.iter().position(|f| f.label == "month").expect("month field");
        let result = s.fill_and_run(0, month_field, "January".into()).unwrap();
        assert!(result.rows.iter().all(|r| r.contains(&Value::Int(20))), "{result:?}");
    }

    #[test]
    fn direct_structured_mode() {
        let (ix, db) = setup();
        let tr = Translator::from_snapshot(&db.snapshot());
        let mut s = Session::new(&ix, &tr, &db);
        let r = s.structured(Query::scan("temps")).unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(s.steps().len(), 1);
    }

    #[test]
    fn explain_shows_physical_plan() {
        let (ix, db) = setup();
        let tr = Translator::from_snapshot(&db.snapshot());
        let mut s = Session::new(&ix, &tr, &db);
        let text = s.explain(&Query::scan("temps")).unwrap();
        assert!(text.contains("PHYSICAL PLAN"), "{text}");
        assert!(text.contains("full scan"), "{text}");
        assert!(text.contains("rows=2"), "{text}");
        assert_eq!(s.steps().len(), 1);
    }

    #[test]
    fn choosing_a_missing_form_is_none() {
        let (ix, db) = setup();
        let tr = Translator::from_snapshot(&db.snapshot());
        let mut s = Session::new(&ix, &tr, &db);
        assert!(s.choose_form(0).is_none());
    }
}
