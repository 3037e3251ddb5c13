//! Incremental, best-effort structure generation (§3.2).
//!
//! "Many applications may want to generate structured data incrementally
//! ... as the user deems necessary (instead of generating all of them in
//! one shot)." The manager tracks which attributes of a target table have
//! been materialized; [`IncrementalManager::ensure`] extracts *only* what a
//! new query additionally needs. Two mechanisms make the marginal cost
//! small: the optimizer prunes extractors that cannot produce the requested
//! attributes, and the execution context's materialization cache makes
//! re-running an already-run extractor free. E3 plots the resulting
//! incremental-vs-one-shot crossover.

use crate::system::QuarryError;
use quarry_lang::{compile, optimize, ExecContext, ExecStats, Executor};
use quarry_storage::StorageError;
use std::collections::BTreeSet;

/// Tracks materialized attributes for one entity table.
#[derive(Debug, Clone)]
pub struct IncrementalManager {
    /// Target table.
    pub table: String,
    /// Entity key attribute.
    pub key: String,
    materialized: BTreeSet<String>,
    /// Cumulative extraction cost units across all `ensure` calls.
    pub total_cost: f64,
    /// Number of pipeline runs that actually executed.
    pub runs: usize,
}

impl IncrementalManager {
    /// Manager for `table`, keyed by `key`.
    pub fn new(table: &str, key: &str) -> IncrementalManager {
        IncrementalManager {
            table: table.to_string(),
            key: key.to_string(),
            materialized: BTreeSet::new(),
            total_cost: 0.0,
            runs: 0,
        }
    }

    /// Attributes materialized so far.
    pub fn materialized(&self) -> impl Iterator<Item = &str> {
        self.materialized.iter().map(String::as_str)
    }

    /// True when every requested attribute is already available.
    pub fn covers(&self, attrs: &[&str]) -> bool {
        attrs.iter().all(|a| self.materialized.contains(*a))
    }

    /// Make sure `attrs` are materialized, extracting on demand. Returns
    /// the stats of the run, or `None` when nothing new was needed.
    ///
    /// The generated pipeline always requests the *cumulative* attribute
    /// set (so the rebuilt table keeps earlier columns); the cache in `ctx`
    /// turns previously-run extractors into free hits, leaving only the
    /// marginal work. It is compiled before anything changes: a refused
    /// pipeline leaves the manager and the table as they were.
    pub fn ensure(
        &mut self,
        attrs: &[&str],
        extractors: &[&str],
        ctx: &mut ExecContext<'_>,
    ) -> Result<Option<ExecStats>, QuarryError> {
        if self.covers(attrs) {
            return Ok(None);
        }
        let mut materialized = self.materialized.clone();
        materialized.extend(attrs.iter().map(|a| a.to_string()));
        materialized.insert(self.key.clone());

        let attr_list: Vec<String> = materialized.iter().map(|a| format!("\"{a}\"")).collect();
        let src = format!(
            "PIPELINE incremental_{table}\nFROM corpus\nEXTRACT {ex}\nWHERE attribute IN ({attrs})\nRESOLVE BY {key}\nSTORE INTO {table} KEY {key}",
            table = self.table,
            ex = extractors.join(", "),
            attrs = attr_list.join(", "),
            key = self.key,
        );
        let program = optimize(&compile("<incremental>", &src, ctx.registry, None)?, ctx.registry);
        // Rebuild the table from scratch under the wider schema. A drop
        // that fails for any reason but an absent table is this call's
        // error, not the re-run's refused STORE.
        match ctx.db.drop_table(&self.table) {
            Ok(()) | Err(StorageError::NoSuchTable(_)) => {}
            Err(e) => return Err(e.into()),
        }
        let stats = Executor::run(&program, ctx)?;
        self.materialized = materialized;
        self.total_cost += stats.cost_units;
        self.runs += 1;
        Ok(Some(stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarry_corpus::{Corpus, CorpusConfig, NoiseConfig};
    use quarry_lang::ExtractorRegistry;
    use quarry_storage::Database;

    fn corpus() -> Corpus {
        Corpus::generate(&CorpusConfig { noise: NoiseConfig::none(), ..CorpusConfig::tiny(3) })
    }

    #[test]
    fn first_ensure_runs_later_covered_calls_skip() {
        let c = corpus();
        let reg = ExtractorRegistry::standard();
        let db = Database::in_memory();
        let mut ctx = ExecContext::new(&c.docs, &reg, &db);
        let mut mgr = IncrementalManager::new("cities", "name");

        let s1 = mgr
            .ensure(&["population"], &["infobox", "rules"], &mut ctx)
            .unwrap()
            .expect("first run executes");
        assert!(s1.rows_stored > 0);
        assert!(mgr.covers(&["population"]));
        assert!(!mgr.covers(&["state"]));

        // Same attributes again: no work at all.
        assert!(mgr.ensure(&["population"], &["infobox", "rules"], &mut ctx).unwrap().is_none());
        assert_eq!(mgr.runs, 1);
    }

    #[test]
    fn marginal_extension_is_cheaper_than_first_run() {
        let c = corpus();
        let reg = ExtractorRegistry::standard();
        let db = Database::in_memory();
        let mut ctx = ExecContext::new(&c.docs, &reg, &db);
        let mut mgr = IncrementalManager::new("cities", "name");
        let s1 = mgr.ensure(&["population"], &["infobox", "rules"], &mut ctx).unwrap().unwrap();
        let s2 = mgr.ensure(&["state"], &["infobox", "rules"], &mut ctx).unwrap().unwrap();
        // Extractors already ran for the first call; the extension is
        // served from the cache.
        assert!(s2.cost_units < s1.cost_units, "{} vs {}", s2.cost_units, s1.cost_units);
        assert!(s2.cache_hits > 0);
        // The widened table retains the earlier column.
        let schema = db.schema("cities").unwrap();
        assert!(schema.column_index("population").is_some());
        assert!(schema.column_index("state").is_some());
    }

    #[test]
    fn a_refused_ensure_leaves_the_manager_and_the_table_unchanged() {
        let c = corpus();
        let reg = ExtractorRegistry::standard();
        let db = Database::in_memory();
        let mut ctx = ExecContext::new(&c.docs, &reg, &db);
        let mut mgr = IncrementalManager::new("cities", "name");
        mgr.ensure(&["population"], &["infobox", "rules"], &mut ctx).unwrap();
        let rows = db.row_count("cities").ok();
        let before: Vec<String> = mgr.materialized().map(str::to_string).collect();

        let err = mgr.ensure(&["state"], &["infobox", "warp_drive"], &mut ctx).unwrap_err();
        assert!(err.to_string().contains("unknown extractor: warp_drive"), "{err}");
        assert_eq!(db.row_count("cities").ok(), rows, "a refused ensure dropped the table");
        assert!(!mgr.covers(&["state"]), "a refused ensure marked `state` materialized");
        assert_eq!(mgr.materialized().collect::<Vec<_>>(), before);
        assert_eq!(mgr.runs, 1);

        // A correct retry runs and widens the table.
        let s = mgr.ensure(&["state"], &["infobox"], &mut ctx).unwrap().expect("the retry runs");
        assert!(s.rows_stored > 0);
        assert!(db.schema("cities").unwrap().column_index("state").is_some());
    }

    #[test]
    fn cumulative_tracking() {
        let c = corpus();
        let reg = ExtractorRegistry::standard();
        let db = Database::in_memory();
        let mut ctx = ExecContext::new(&c.docs, &reg, &db);
        let mut mgr = IncrementalManager::new("cities", "name");
        mgr.ensure(&["population"], &["infobox"], &mut ctx).unwrap();
        mgr.ensure(&["state", "founded"], &["infobox"], &mut ctx).unwrap();
        let mat: Vec<&str> = mgr.materialized().collect();
        assert_eq!(mat, vec!["founded", "name", "population", "state"]);
        assert_eq!(mgr.runs, 2);
        assert!(mgr.total_cost > 0.0);
    }
}
