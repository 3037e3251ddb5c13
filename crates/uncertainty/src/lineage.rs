//! Provenance lineage: a DAG from source text spans through operator
//! applications to derived tuples.
//!
//! Every derived fact must be explainable: "this `population = 250,000`
//! tuple came from bytes 120..127 of doc 3 via the infobox extractor, merged
//! with bytes 88..95 of doc 7 via entity resolution, confirmed by user u2."
//! The graph stores exactly that derivation structure; explanations render
//! it as an indented tree.

use quarry_corpus::DocId;
use quarry_extract::Span;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Identifier of a lineage node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// What a lineage node represents.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NodeKind {
    /// A span of raw source text.
    Source {
        /// Source document.
        doc: DocId,
        /// Byte span in the document.
        span: Span,
        /// A short excerpt of the covered text (for explanations).
        excerpt: String,
    },
    /// An operator application (extractor, matcher, HI review...).
    Operator {
        /// Operator name, e.g. `infobox`, `entity-match`, `hi-vote`.
        name: String,
        /// Confidence the operator assigned to its output.
        confidence: f64,
    },
    /// A derived tuple/value in the structured store.
    Tuple {
        /// Table the tuple landed in.
        table: String,
        /// Human-readable rendering of the tuple.
        display: String,
    },
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Node {
    kind: NodeKind,
    /// Nodes this one was derived from.
    inputs: Vec<NodeId>,
}

/// An append-only provenance DAG.
///
/// Nodes are immutable once added and inputs must already exist, so the
/// graph is acyclic by construction.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LineageGraph {
    nodes: Vec<Node>,
}

impl LineageGraph {
    /// Empty graph.
    pub fn new() -> LineageGraph {
        LineageGraph::default()
    }

    fn add(&mut self, kind: NodeKind, inputs: Vec<NodeId>) -> NodeId {
        for i in &inputs {
            assert!((i.0 as usize) < self.nodes.len(), "lineage input {i:?} does not exist yet");
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { kind, inputs });
        id
    }

    /// Record a source span.
    pub fn source(&mut self, doc: DocId, span: Span, excerpt: &str) -> NodeId {
        let excerpt = if excerpt.len() > 60 {
            let cut = (0..=60).rev().find(|&i| excerpt.is_char_boundary(i)).unwrap_or(0);
            format!("{}…", &excerpt[..cut])
        } else {
            excerpt.to_string()
        };
        self.add(NodeKind::Source { doc, span, excerpt }, Vec::new())
    }

    /// Record an operator application over existing nodes.
    pub fn operator(&mut self, name: &str, confidence: f64, inputs: Vec<NodeId>) -> NodeId {
        self.add(NodeKind::Operator { name: name.to_string(), confidence }, inputs)
    }

    /// Record a derived tuple.
    pub fn tuple(&mut self, table: &str, display: &str, inputs: Vec<NodeId>) -> NodeId {
        self.add(NodeKind::Tuple { table: table.to_string(), display: display.to_string() }, inputs)
    }

    /// The kind of a node.
    pub fn kind(&self, id: NodeId) -> &NodeKind {
        &self.nodes[id.0 as usize].kind
    }

    /// Direct inputs of a node.
    pub fn inputs(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.0 as usize].inputs
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All transitive ancestors of a node (not including itself), deduped.
    pub fn ancestors(&self, id: NodeId) -> Vec<NodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = self.inputs(id).to_vec();
        let mut out = Vec::new();
        while let Some(n) = stack.pop() {
            if seen[n.0 as usize] {
                continue;
            }
            seen[n.0 as usize] = true;
            out.push(n);
            stack.extend_from_slice(self.inputs(n));
        }
        out.sort_unstable();
        out
    }

    /// The source spans a node ultimately derives from.
    pub fn source_spans(&self, id: NodeId) -> Vec<(DocId, Span)> {
        let mut out: Vec<(DocId, Span)> = self
            .ancestors(id)
            .into_iter()
            .chain(std::iter::once(id))
            .filter_map(|n| match self.kind(n) {
                NodeKind::Source { doc, span, .. } => Some((*doc, *span)),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Render a human-readable derivation tree for a node.
    pub fn explain(&self, id: NodeId) -> String {
        let mut out = String::new();
        self.explain_rec(id, 0, &mut out);
        out
    }

    fn explain_rec(&self, id: NodeId, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        match self.kind(id) {
            NodeKind::Source { doc, span, excerpt } => {
                let _ = writeln!(out, "source {doc} {span}: \"{excerpt}\"");
            }
            NodeKind::Operator { name, confidence } => {
                let _ = writeln!(out, "via {name} (confidence {confidence:.2})");
            }
            NodeKind::Tuple { table, display } => {
                let _ = writeln!(out, "tuple in {table}: {display}");
            }
        }
        for &i in self.inputs(id) {
            self.explain_rec(i, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (LineageGraph, NodeId) {
        let mut g = LineageGraph::new();
        let s1 = g.source(DocId(3), Span::new(120, 127), "250,000");
        let s2 = g.source(DocId(7), Span::new(88, 95), "250000");
        let e1 = g.operator("infobox", 0.95, vec![s1]);
        let e2 = g.operator("prose-rule", 0.75, vec![s2]);
        let merge = g.operator("entity-match", 0.9, vec![e1, e2]);
        let t = g.tuple("cities", "population = 250000", vec![merge]);
        (g, t)
    }

    #[test]
    fn builds_and_navigates() {
        let (g, t) = sample();
        assert_eq!(g.len(), 6);
        assert_eq!(g.inputs(t).len(), 1);
        assert_eq!(g.ancestors(t).len(), 5);
    }

    #[test]
    fn source_spans_collects_leaves() {
        let (g, t) = sample();
        let spans = g.source_spans(t);
        assert_eq!(spans, vec![(DocId(3), Span::new(120, 127)), (DocId(7), Span::new(88, 95)),]);
    }

    #[test]
    fn explanation_renders_the_full_derivation() {
        let (g, t) = sample();
        let text = g.explain(t);
        assert!(text.contains("tuple in cities: population = 250000"));
        assert!(text.contains("via entity-match (confidence 0.90)"));
        assert!(text.contains("source doc:3 [120..127): \"250,000\""));
        // Indentation depth reflects derivation depth.
        assert!(text.lines().any(|l| l.starts_with("      source")));
    }

    #[test]
    #[should_panic(expected = "does not exist yet")]
    fn forward_references_rejected() {
        let mut g = LineageGraph::new();
        g.operator("bad", 0.5, vec![NodeId(99)]);
    }

    #[test]
    fn long_excerpts_truncate_on_char_boundary() {
        let mut g = LineageGraph::new();
        let long = "é".repeat(100);
        let id = g.source(DocId(0), Span::new(0, 200), &long);
        match g.kind(id) {
            NodeKind::Source { excerpt, .. } => {
                assert!(excerpt.ends_with('…'));
                assert!(excerpt.len() <= 64);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn diamond_ancestry_dedupes() {
        let mut g = LineageGraph::new();
        let s = g.source(DocId(0), Span::new(0, 5), "hello");
        let a = g.operator("op-a", 0.9, vec![s]);
        let b = g.operator("op-b", 0.8, vec![s]);
        let t = g.tuple("t", "x", vec![a, b]);
        let anc = g.ancestors(t);
        assert_eq!(anc.len(), 3); // s, a, b — s only once
    }

    #[test]
    fn serde_round_trip() {
        let (g, t) = sample();
        let json = serde_json::to_string(&g).unwrap();
        let g2: LineageGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(g2.explain(t), g.explain(t));
    }
}
