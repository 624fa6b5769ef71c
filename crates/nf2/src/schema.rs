//! Database and relation schemas with validation.
//!
//! §2 of the paper: data that may be shared are stored in relations of their
//! own; a reference always references a complex object of a relation. Every
//! relation therefore is a *set of complex tuples*, and its schema is a tuple
//! type. Validation enforces the paper's standing assumptions:
//!
//! * the schema is **non-recursive** (no reference cycles, §2),
//! * every reference targets an existing relation,
//! * every relation has an atomic key attribute at the top level,
//! * names are unique per scope.

use crate::error::Nf2Error;
use crate::types::{AttrType, Attribute};
use crate::Result;
use std::collections::{HashMap, HashSet};

/// Schema of one relation: a named set of complex tuples placed in a segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationSchema {
    /// Relation name, e.g. `cells`.
    pub name: String,
    /// Name of the segment holding the relation, e.g. `seg1`.
    pub segment: String,
    /// Top-level attributes of the relation's complex tuples.
    pub attributes: Vec<Attribute>,
}

impl RelationSchema {
    /// The tuple type of one complex object of this relation.
    ///
    /// This deep-clones every attribute type, so it is for cold paths only;
    /// per-access code borrows [`RelationSchema::attributes`] instead.
    pub fn tuple_type(&self) -> AttrType {
        AttrType::Tuple(self.attributes.clone())
    }

    /// The key attribute of the relation (first attribute flagged as key).
    pub fn key_attribute(&self) -> Option<&Attribute> {
        self.attributes.iter().find(|a| a.key)
    }

    /// Looks up a top-level attribute by name.
    pub fn attribute(&self, name: &str) -> Option<&Attribute> {
        self.attributes.iter().find(|a| a.name == name)
    }

    /// All relations directly referenced from this relation's schema.
    pub fn direct_ref_targets(&self) -> Vec<&str> {
        let mut out = Vec::new();
        for a in &self.attributes {
            a.ty.collect_ref_targets(&mut out);
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn validate_local(&self) -> Result<()> {
        let mut seen = HashSet::new();
        for a in &self.attributes {
            if !seen.insert(a.name.as_str()) {
                return Err(Nf2Error::DuplicateAttribute(a.name.clone()));
            }
            validate_attr_names(&a.ty)?;
        }
        let key = self
            .key_attribute()
            .ok_or_else(|| Nf2Error::MissingKey(self.name.clone()))?;
        if !matches!(key.ty, AttrType::Atomic(_)) {
            return Err(Nf2Error::NonAtomicKey {
                relation: self.name.clone(),
                attribute: key.name.clone(),
            });
        }
        Ok(())
    }
}

fn validate_attr_names(ty: &AttrType) -> Result<()> {
    match ty {
        AttrType::Tuple(fields) => {
            let mut seen = HashSet::new();
            for f in fields {
                if !seen.insert(f.name.as_str()) {
                    return Err(Nf2Error::DuplicateAttribute(f.name.clone()));
                }
                validate_attr_names(&f.ty)?;
            }
            Ok(())
        }
        AttrType::Set(e) | AttrType::List(e) => validate_attr_names(e),
        _ => Ok(()),
    }
}

/// Schema of a segment (a named container of relations, as in System R's lock
/// graph, Fig. 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentSchema {
    /// Segment name, e.g. `seg1`.
    pub name: String,
}

/// Schema of a whole database: segments plus relations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatabaseSchema {
    /// Database name, e.g. `db1`.
    pub name: String,
    /// Segments in declaration order.
    pub segments: Vec<SegmentSchema>,
    /// Relations in declaration order.
    pub relations: Vec<RelationSchema>,
}

impl DatabaseSchema {
    /// Validates the whole schema (names, segments, key attributes, reference
    /// targets, non-recursiveness) and returns it unchanged on success.
    pub fn validate(self) -> Result<Self> {
        let mut seg_names = HashSet::new();
        for s in &self.segments {
            if !seg_names.insert(s.name.as_str()) {
                return Err(Nf2Error::DuplicateSegment(s.name.clone()));
            }
        }
        let mut rel_names = HashSet::new();
        for r in &self.relations {
            if !rel_names.insert(r.name.as_str()) {
                return Err(Nf2Error::DuplicateRelation(r.name.clone()));
            }
        }
        for r in &self.relations {
            if !seg_names.contains(r.segment.as_str()) {
                return Err(Nf2Error::UnknownSegment {
                    relation: r.name.clone(),
                    segment: r.segment.clone(),
                });
            }
            r.validate_local()?;
            for t in r.direct_ref_targets() {
                if !rel_names.contains(t) {
                    return Err(Nf2Error::UnknownRefTarget {
                        relation: r.name.clone(),
                        target: t.to_string(),
                    });
                }
            }
        }
        self.check_acyclic()?;
        Ok(self)
    }

    /// Looks up a relation schema by name.
    pub fn relation(&self, name: &str) -> Result<&RelationSchema> {
        self.relations
            .iter()
            .find(|r| r.name == name)
            .ok_or_else(|| Nf2Error::UnknownRelation(name.to_string()))
    }

    /// Index of a relation in declaration order.
    pub fn relation_index(&self, name: &str) -> Option<usize> {
        self.relations.iter().position(|r| r.name == name)
    }

    /// Looks up a segment schema by name.
    pub fn segment(&self, name: &str) -> Option<&SegmentSchema> {
        self.segments.iter().find(|s| s.name == name)
    }

    /// The reference graph between relations: `name -> directly referenced`.
    pub fn reference_graph(&self) -> HashMap<&str, Vec<&str>> {
        self.relations
            .iter()
            .map(|r| (r.name.as_str(), r.direct_ref_targets()))
            .collect()
    }

    /// Relations that nothing references ("top-level" relations such as
    /// `cells`); common-data relations such as `effectors` are excluded.
    pub fn unreferenced_relations(&self) -> Vec<&RelationSchema> {
        let mut referenced: HashSet<&str> = HashSet::new();
        for r in &self.relations {
            referenced.extend(r.direct_ref_targets());
        }
        self.relations.iter().filter(|r| !referenced.contains(r.name.as_str())).collect()
    }

    /// Relations that are referenced by at least one other relation, i.e. the
    /// relations holding common data (inner units live inside these).
    pub fn common_data_relations(&self) -> Vec<&RelationSchema> {
        let mut referenced: HashSet<&str> = HashSet::new();
        for r in &self.relations {
            referenced.extend(r.direct_ref_targets());
        }
        self.relations.iter().filter(|r| referenced.contains(r.name.as_str())).collect()
    }

    fn check_acyclic(&self) -> Result<()> {
        // DFS over the reference graph; the paper treats only non-recursive
        // complex objects, so any cycle (including self-reference) is an error.
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let graph = self.reference_graph();
        let mut marks: HashMap<&str, Mark> =
            graph.keys().map(|&k| (k, Mark::White)).collect();

        fn dfs<'a>(
            node: &'a str,
            graph: &HashMap<&'a str, Vec<&'a str>>,
            marks: &mut HashMap<&'a str, Mark>,
            stack: &mut Vec<&'a str>,
        ) -> Result<()> {
            marks.insert(node, Mark::Grey);
            stack.push(node);
            for &next in graph.get(node).into_iter().flatten() {
                match marks.get(next).copied().unwrap_or(Mark::White) {
                    Mark::Grey => {
                        let pos = stack.iter().position(|&n| n == next).unwrap_or(0);
                        let mut cycle: Vec<String> =
                            stack[pos..].iter().map(|s| s.to_string()).collect();
                        cycle.push(next.to_string());
                        return Err(Nf2Error::RecursiveSchema { cycle });
                    }
                    Mark::White => dfs(next, graph, marks, stack)?,
                    Mark::Black => {}
                }
            }
            stack.pop();
            marks.insert(node, Mark::Black);
            Ok(())
        }

        let names: Vec<&str> = graph.keys().copied().collect();
        let mut stack = Vec::new();
        for name in names {
            if marks[name] == Mark::White {
                dfs(name, &graph, &mut marks, &mut stack)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::shorthand::*;

    fn effectors() -> RelationSchema {
        RelationSchema {
            name: "effectors".into(),
            segment: "seg2".into(),
            attributes: vec![attr("eff_id", str_()), attr("tool", str_())],
        }
    }

    fn cells() -> RelationSchema {
        RelationSchema {
            name: "cells".into(),
            segment: "seg1".into(),
            attributes: vec![
                attr("cell_id", str_()),
                attr(
                    "c_objects",
                    set(tuple(vec![attr("obj_id", str_()), attr("obj_name", str_())])),
                ),
                attr(
                    "robots",
                    list(tuple(vec![
                        attr("robot_id", str_()),
                        attr("trajectory", str_()),
                        attr("effectors", set(ref_("effectors"))),
                    ])),
                ),
            ],
        }
    }

    fn db() -> DatabaseSchema {
        DatabaseSchema {
            name: "db1".into(),
            segments: vec![
                SegmentSchema { name: "seg1".into() },
                SegmentSchema { name: "seg2".into() },
            ],
            relations: vec![cells(), effectors()],
        }
    }

    #[test]
    fn fig1_schema_validates() {
        assert!(db().validate().is_ok());
    }

    #[test]
    fn duplicate_relation_rejected() {
        let mut d = db();
        d.relations.push(effectors());
        assert_eq!(d.validate().unwrap_err(), Nf2Error::DuplicateRelation("effectors".into()));
    }

    #[test]
    fn unknown_segment_rejected() {
        let mut d = db();
        d.relations[0].segment = "nope".into();
        assert!(matches!(d.validate().unwrap_err(), Nf2Error::UnknownSegment { .. }));
    }

    #[test]
    fn unknown_ref_target_rejected() {
        let mut d = db();
        d.relations.truncate(1); // drop effectors; cells still references it
        assert!(matches!(d.validate().unwrap_err(), Nf2Error::UnknownRefTarget { .. }));
    }

    #[test]
    fn missing_key_rejected() {
        let mut d = db();
        d.relations[1].attributes[0] = attr("eff", str_()); // no _id, no key
        assert_eq!(d.validate().unwrap_err(), Nf2Error::MissingKey("effectors".into()));
    }

    #[test]
    fn non_atomic_key_rejected() {
        let mut d = db();
        d.relations[1].attributes[0] = Attribute::key("eff_id", set(str_()));
        assert!(matches!(d.validate().unwrap_err(), Nf2Error::NonAtomicKey { .. }));
    }

    #[test]
    fn self_reference_is_recursive() {
        let mut d = db();
        d.relations[1].attributes.push(attr("next", ref_("effectors")));
        assert!(matches!(d.validate().unwrap_err(), Nf2Error::RecursiveSchema { .. }));
    }

    #[test]
    fn two_cycle_is_recursive() {
        let mut d = db();
        d.relations[1].attributes.push(attr("used_in", ref_("cells")));
        let err = d.validate().unwrap_err();
        match err {
            Nf2Error::RecursiveSchema { cycle } => {
                assert!(cycle.len() >= 3, "cycle {cycle:?}");
                assert_eq!(cycle.first(), cycle.last());
            }
            other => panic!("expected RecursiveSchema, got {other:?}"),
        }
    }

    #[test]
    fn common_data_classification() {
        let d = db().validate().unwrap();
        let common: Vec<_> = d.common_data_relations().iter().map(|r| r.name.clone()).collect();
        assert_eq!(common, vec!["effectors"]);
        let top: Vec<_> = d.unreferenced_relations().iter().map(|r| r.name.clone()).collect();
        assert_eq!(top, vec!["cells"]);
    }

    #[test]
    fn key_attribute_found() {
        let c = cells();
        assert_eq!(c.key_attribute().unwrap().name, "cell_id");
        assert_eq!(c.direct_ref_targets(), vec!["effectors"]);
    }

    #[test]
    fn duplicate_nested_attribute_rejected() {
        let mut d = db();
        d.relations[0].attributes[1] =
            attr("c_objects", set(tuple(vec![attr("x", str_()), attr("x", int_())])));
        assert_eq!(d.validate().unwrap_err(), Nf2Error::DuplicateAttribute("x".into()));
    }

    #[test]
    fn diamond_sharing_is_not_a_cycle() {
        // cells -> effectors, cells -> tools, effectors -> tools: a DAG.
        let mut d = db();
        d.relations.push(RelationSchema {
            name: "tools".into(),
            segment: "seg2".into(),
            attributes: vec![attr("tool_id", str_())],
        });
        d.relations[1].attributes.push(attr("tool_ref", ref_("tools")));
        d.relations[0].attributes.push(attr("spare", ref_("tools")));
        assert!(d.validate().is_ok());
    }
}
