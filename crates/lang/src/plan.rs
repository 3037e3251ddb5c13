//! Logical plans and the rule-based optimizer.
//!
//! [`crate::compile()`] lowers a checked pipeline to a [`LogicalPlan`]: the
//! same step sequence, with every `WHERE` merged into one filter placed
//! directly after the `EXTRACT` ops (filters only reference extraction
//! fields, so filtering before entity resolution and curation is both
//! legal and cheaper). The optimizer then applies two rewrite rules, each
//! ablatable independently (experiment E5):
//!
//! 1. **Extractor pruning** — an extractor whose declared signature cannot
//!    produce any attribute admitted by the filters is removed.
//! 2. **Cost ordering** — surviving extractors run cheapest-first (stable
//!    and deterministic; matters when a downstream consumer short-circuits).

use crate::ast::{Condition, Pipeline, Step};
use crate::compile::CheckedProgram;
use crate::registry::ExtractorRegistry;
use std::fmt;

/// One logical operator.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOp {
    /// Run extraction operators.
    Extract {
        /// Operator names in execution order.
        extractors: Vec<String>,
    },
    /// Filter the extraction stream.
    Filter {
        /// Conjunctive conditions.
        conditions: Vec<Condition>,
    },
    /// Resolve entities.
    Resolve {
        /// Key attribute.
        key: String,
    },
    /// Human curation of uncertain decisions.
    Curate {
        /// Budget units.
        budget: u32,
        /// Votes per question.
        votes: u32,
    },
    /// Store into the structured store.
    Store {
        /// Target table.
        table: String,
        /// Key attributes.
        key: Vec<String>,
    },
}

/// An ordered operator list.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalPlan {
    /// Operators, first executed first.
    pub ops: Vec<PlanOp>,
}

impl LogicalPlan {
    /// Lower a parsed pipeline to a plan: its steps in order, with every
    /// `WHERE` merged into one filter right after the leading `EXTRACT`s.
    pub(crate) fn from_pipeline(p: &Pipeline) -> LogicalPlan {
        let (mut ops, mut conditions) = (Vec::new(), Vec::new());
        for s in &p.steps {
            ops.push(match s {
                Step::Extract { extractors } => PlanOp::Extract { extractors: extractors.clone() },
                Step::Where { conditions: cs } => {
                    conditions.extend(cs.iter().cloned());
                    continue;
                }
                Step::Resolve { key } => PlanOp::Resolve { key: key.clone() },
                Step::Curate { budget, votes } => PlanOp::Curate { budget: *budget, votes: *votes },
                Step::Store { table, key } => {
                    PlanOp::Store { table: table.clone(), key: key.clone() }
                }
            });
        }
        if !conditions.is_empty() {
            let at = ops
                .iter()
                .position(|op| !matches!(op, PlanOp::Extract { .. }))
                .unwrap_or(ops.len());
            ops.insert(at, PlanOp::Filter { conditions });
        }
        LogicalPlan { ops }
    }

    /// The attribute allow-list implied by the plan's filters, if every
    /// filter-constrained attribute set intersects (None = unrestricted).
    pub fn attribute_allowlist(&self) -> Option<Vec<String>> {
        let mut allow: Option<Vec<String>> = None;
        for op in &self.ops {
            let PlanOp::Filter { conditions } = op else { continue };
            for c in conditions {
                if let Some(attrs) = c.attribute_set() {
                    let set: Vec<String> = attrs.iter().map(|a| a.to_string()).collect();
                    allow = Some(match allow {
                        None => set,
                        Some(prev) => prev.into_iter().filter(|a| set.contains(a)).collect(),
                    });
                }
            }
        }
        allow
    }

    /// Estimated cost in operator units over `n_docs` documents.
    pub fn estimated_cost(&self, registry: &ExtractorRegistry, n_docs: usize) -> f64 {
        self.ops
            .iter()
            .map(|op| match op {
                PlanOp::Extract { extractors } => {
                    extractors.iter().map(|e| registry.get(e).map_or(1.0, |r| r.cost)).sum::<f64>()
                        * n_docs as f64
                }
                // Non-extraction ops are per-item and cheap relative to IE.
                _ => 0.1 * n_docs as f64,
            })
            .sum()
    }

    /// Render an EXPLAIN listing through the shared plan renderer (the
    /// same tree display `quarry-query`'s physical explain uses).
    pub fn explain(&self, registry: &ExtractorRegistry, n_docs: usize) -> String {
        use quarry_exec::PlanNode;
        let root = PlanNode::branch(
            format!(
                "PLAN ({} ops, est. cost {:.0} units over {n_docs} docs)",
                self.ops.len(),
                self.estimated_cost(registry, n_docs)
            ),
            self.ops
                .iter()
                .enumerate()
                .map(|(i, op)| PlanNode::leaf(format!("{i}: {op}")))
                .collect(),
        );
        root.render()
    }
}

impl fmt::Display for PlanOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanOp::Extract { extractors } => write!(f, "Extract[{}]", extractors.join(", ")),
            PlanOp::Filter { conditions } => {
                let cs: Vec<String> = conditions.iter().map(Condition::to_string).collect();
                write!(f, "Filter[{}]", cs.join(" AND "))
            }
            PlanOp::Resolve { key } => write!(f, "Resolve[by {key}]"),
            PlanOp::Curate { budget, votes } => write!(f, "Curate[budget {budget}, votes {votes}]"),
            PlanOp::Store { table, key } => write!(f, "Store[{table} key {}]", key.join(", ")),
        }
    }
}

/// Optimizer toggles (all on by default; E5 ablates them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizerConfig {
    /// Rule 1: drop extractors that cannot satisfy the filters.
    pub extractor_pruning: bool,
    /// Rule 2: order extractors by ascending cost.
    pub cost_ordering: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig { extractor_pruning: true, cost_ordering: true }
    }
}

/// Optimize a program under the default configuration.
pub fn optimize(program: &CheckedProgram, registry: &ExtractorRegistry) -> CheckedProgram {
    optimize_with(program, registry, OptimizerConfig::default())
}

/// Optimize with explicit toggles. The result answers what `program`
/// answers, so it stays checked.
pub fn optimize_with(
    program: &CheckedProgram,
    registry: &ExtractorRegistry,
    cfg: OptimizerConfig,
) -> CheckedProgram {
    let allow = program.plan.attribute_allowlist().filter(|_| cfg.extractor_pruning);
    let allow: Option<Vec<&str>> = allow.as_ref().map(|a| a.iter().map(String::as_str).collect());
    let mut out = program.clone();
    for op in &mut out.plan.ops {
        let PlanOp::Extract { extractors } = op else { continue };
        if let Some(allow) = &allow {
            extractors.retain(|e| registry.get(e).is_none_or(|r| r.produces.intersects(allow)));
        }
        if cfg.cost_ordering {
            extractors.sort_by(|a, b| {
                let ca = registry.get(a).map_or(1.0, |r| r.cost);
                let cb = registry.get(b).map_or(1.0, |r| r.cost);
                ca.partial_cmp(&cb).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(b))
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::registry::Produces;

    fn plan(src: &str) -> CheckedProgram {
        compile("test.qdl", src, &ExtractorRegistry::standard(), None).unwrap()
    }

    const SRC: &str = r#"
PIPELINE p FROM corpus
EXTRACT rules, infobox, rule:monthly-temperature
RESOLVE BY name
WHERE attribute IN ("population", "name")
STORE INTO cities KEY name
"#;

    #[test]
    fn lowering_places_the_filter_after_extract() {
        let p = plan(SRC);
        assert_eq!(p.plan().ops.len(), 4);
        assert!(matches!(p.plan().ops[0], PlanOp::Extract { .. }));
        assert!(matches!(p.plan().ops[1], PlanOp::Filter { .. }));
    }

    #[test]
    fn filter_moves_before_resolve() {
        let reg = ExtractorRegistry::standard();
        let opt = optimize(&plan(SRC), &reg);
        let filter_pos =
            opt.plan().ops.iter().position(|o| matches!(o, PlanOp::Filter { .. })).unwrap();
        let resolve_pos =
            opt.plan().ops.iter().position(|o| matches!(o, PlanOp::Resolve { .. })).unwrap();
        assert!(filter_pos < resolve_pos, "{opt:?}");
    }

    #[test]
    fn adjacent_filters_merge() {
        let src = r#"PIPELINE p FROM corpus
EXTRACT infobox
WHERE confidence >= 0.5
WHERE attribute = "population""#;
        let reg = ExtractorRegistry::standard();
        let opt = optimize(&plan(src), &reg);
        let filters: Vec<_> =
            opt.plan().ops.iter().filter(|o| matches!(o, PlanOp::Filter { .. })).collect();
        assert_eq!(filters.len(), 1);
        if let PlanOp::Filter { conditions } = filters[0] {
            assert_eq!(conditions.len(), 2);
        }
    }

    #[test]
    fn pruning_drops_extractors_that_cannot_help() {
        // Only `author` is wanted; the monthly-temperature rule can't
        // produce it and must go, while infobox (Any) stays.
        let src = r#"PIPELINE p FROM corpus
EXTRACT infobox, rule:monthly-temperature, rule:lead-author
WHERE attribute = "author""#;
        let reg = ExtractorRegistry::standard();
        let opt = optimize(&plan(src), &reg);
        if let PlanOp::Extract { extractors } = &opt.plan().ops[0] {
            assert!(extractors.contains(&"infobox".to_string()));
            assert!(extractors.contains(&"rule:lead-author".to_string()));
            assert!(!extractors.contains(&"rule:monthly-temperature".to_string()));
        } else {
            panic!("first op should be Extract: {opt:?}");
        }
    }

    #[test]
    fn cost_ordering_puts_cheap_first() {
        let src = "PIPELINE p FROM corpus EXTRACT rules, infobox";
        let reg = ExtractorRegistry::standard();
        let opt = optimize(&plan(src), &reg);
        if let PlanOp::Extract { extractors } = &opt.plan().ops[0] {
            assert_eq!(extractors[0], "infobox", "cost 1 before cost 5");
        } else {
            panic!();
        }
    }

    #[test]
    fn optimized_plan_costs_less() {
        let reg = ExtractorRegistry::standard();
        let naive = plan(SRC);
        let opt = optimize(&naive, &reg);
        assert!(opt.plan().estimated_cost(&reg, 100) < naive.plan().estimated_cost(&reg, 100));
    }

    #[test]
    fn toggles_disable_rules() {
        let reg = ExtractorRegistry::standard();
        let none = OptimizerConfig { extractor_pruning: false, cost_ordering: false };
        let p = plan(SRC);
        assert_eq!(optimize_with(&p, &reg, none), p, "all-off is identity");
    }

    #[test]
    fn allowlist_intersects_multiple_conditions() {
        let src = r#"PIPELINE p FROM corpus
EXTRACT infobox
WHERE attribute IN ("a", "b") AND attribute = "b""#;
        assert_eq!(plan(src).plan().attribute_allowlist(), Some(vec!["b".to_string()]));
        let src2 = "PIPELINE p FROM corpus EXTRACT infobox WHERE confidence >= 0.5";
        assert_eq!(plan(src2).plan().attribute_allowlist(), None);
    }

    #[test]
    fn explain_renders() {
        let reg = ExtractorRegistry::standard();
        let text = optimize(&plan(SRC), &reg).plan().explain(&reg, 50);
        assert!(text.contains("PLAN"));
        assert!(text.contains("Resolve[by name]"));
        assert!(text.contains("est. cost"));
    }

    #[test]
    fn unknown_extractors_survive_pruning() {
        // Pruning must not silently drop operators it knows nothing about:
        // checked against a registry that has one, optimized against one
        // that does not.
        let src = r#"PIPELINE p FROM corpus
EXTRACT mystery_op
WHERE attribute = "x""#;
        let mut known = ExtractorRegistry::standard();
        known.register("mystery_op", Produces::Set(vec!["x".into()]), 1.0, |_| Vec::new());
        let program = compile("test.qdl", src, &known, None).unwrap();
        let opt = optimize(&program, &ExtractorRegistry::standard());
        if let PlanOp::Extract { extractors } = &opt.plan().ops[0] {
            assert_eq!(extractors, &vec!["mystery_op".to_string()]);
        } else {
            panic!();
        }
    }
}
