//! [`InstanceSource`] implementation: the store feeds the lock protocols.
//!
//! Every walk here borrows its types from the relation schema, so scanning
//! an object for references costs no type copies (§4.4.2.1: propagation
//! "adds no extra I/O", and it should add no extra allocation either).

use crate::navigate;
use crate::store::Store;
use colock_core::{InstanceSource, InstanceTarget, ReverseScan, TargetStep};
use colock_nf2::{AttrType, Attribute, ObjectKey, ObjectRef, Value};

impl InstanceSource for Store {
    fn refs_under(&self, target: &InstanceTarget) -> Vec<ObjectRef> {
        let Some(key) = &target.object else {
            return self.refs_in_relation(&target.relation);
        };
        let Ok(schema) = self.catalog().schema().relation(&target.relation) else {
            return Vec::new();
        };
        self.with_object(&target.relation, key, |obj| {
            navigate::navigate(schema, obj, &target.steps)
                .map(|sub| {
                    let mut refs = Vec::new();
                    sub.collect_refs(&mut refs);
                    refs.into_iter().cloned().collect()
                })
                .unwrap_or_default()
        })
        .unwrap_or_default()
    }

    fn refs_in_relation(&self, relation: &str) -> Vec<ObjectRef> {
        let Ok(keys) = self.keys(relation) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for key in keys {
            let _ = self.with_object(relation, &key, |obj| {
                let mut refs = Vec::new();
                obj.collect_refs(&mut refs);
                out.extend(refs.into_iter().cloned());
            });
        }
        out
    }

    fn tuples_under(&self, target: &InstanceTarget) -> Vec<InstanceTarget> {
        let Some(key) = &target.object else {
            return Vec::new();
        };
        let Ok(schema) = self.catalog().schema().relation(&target.relation) else {
            return Vec::new();
        };
        self.with_object(&target.relation, key, |obj| {
            let mut tuples =
                TupleCollector { relation: &target.relation, obj_key: key, out: Vec::new() };
            let Some(sub) = navigate::navigate(schema, obj, &target.steps) else {
                return tuples.out;
            };
            let mut prefix = target.steps.clone();
            if target.steps.is_empty() {
                // The object's root tuple counts once when the whole object
                // is targeted.
                tuples.out.push(InstanceTarget::object(&target.relation, key.clone()));
                tuples.fields(&mut prefix, sub, &schema.attributes);
            } else if let Some(ty) = navigate::path_type(schema, &target.steps) {
                tuples.value(&mut prefix, sub, ty);
            }
            tuples.out
        })
        .unwrap_or_default()
    }

    fn referencing_objects(&self, relation: &str, key: &ObjectKey) -> ReverseScan {
        let mut scan = ReverseScan::default();
        let schema = self.catalog().schema();
        for rel in &schema.relations {
            if !rel.direct_ref_targets().contains(&relation) {
                continue;
            }
            let Ok(keys) = self.keys(&rel.name) else {
                continue;
            };
            for obj_key in keys {
                scan.objects_scanned += 1;
                let _ = self.with_object(&rel.name, &obj_key, |obj| {
                    let mut finder = RefFinder {
                        relation: &rel.name,
                        obj_key: &obj_key,
                        target_rel: relation,
                        target_key: key,
                        out: &mut scan.referencing,
                    };
                    if let Value::Tuple(vals) = obj {
                        finder.fields(&mut Vec::new(), vals, &rel.attributes);
                    }
                });
            }
        }
        self.bump_scan_visits(scan.objects_scanned);
        scan
    }

    fn object_keys(&self, relation: &str) -> Vec<ObjectKey> {
        self.keys(relation).unwrap_or_default()
    }
}

/// Collects the basic element tuples below a value as lock targets: each
/// element of each set/list, recursively.
struct TupleCollector<'a> {
    relation: &'a str,
    obj_key: &'a ObjectKey,
    out: Vec<InstanceTarget>,
}

impl TupleCollector<'_> {
    fn fields(&mut self, prefix: &mut Vec<TargetStep>, value: &Value, fields: &[Attribute]) {
        for f in fields {
            if let Some(v) = value.field(&f.name) {
                prefix.push(TargetStep::attr(&f.name));
                self.value(prefix, v, &f.ty);
                prefix.pop();
            }
        }
    }

    fn value(&mut self, prefix: &mut Vec<TargetStep>, value: &Value, ty: &AttrType) {
        match ty {
            AttrType::Tuple(fields) => self.fields(prefix, value, fields),
            AttrType::Set(elem) | AttrType::List(elem) => {
                let Some(es) = value.elements() else {
                    return;
                };
                for e in es {
                    let Some(k) = e.element_key(elem) else {
                        continue;
                    };
                    // Turn the trailing bare attr step into an elem step.
                    let keyed = match prefix.last_mut() {
                        Some(last) if last.elem.is_none() => {
                            last.elem = Some(k);
                            true
                        }
                        _ => false,
                    };
                    self.out.push(InstanceTarget {
                        relation: self.relation.to_string(),
                        object: Some(self.obj_key.clone()),
                        steps: prefix.clone(),
                    });
                    self.value(prefix, e, elem);
                    if keyed {
                        if let Some(last) = prefix.last_mut() {
                            last.elem = None;
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

/// One step of the walk from an object down to a value: the attribute, and
/// inside a set/list the current element with its type. Keys are derived
/// only when a match is recorded.
struct Step<'v> {
    attr: &'v str,
    elem: Option<(&'v Value, &'v AttrType)>,
}

impl Step<'_> {
    fn key(&self) -> Option<ObjectKey> {
        self.elem.and_then(|(e, ty)| e.element_key(ty))
    }
}

/// Walks one object looking for references to `target_rel[target_key]`,
/// recording the path of the innermost enclosing element (or the object
/// itself).
struct RefFinder<'a> {
    relation: &'a str,
    obj_key: &'a ObjectKey,
    target_rel: &'a str,
    target_key: &'a ObjectKey,
    out: &'a mut Vec<InstanceTarget>,
}

impl RefFinder<'_> {
    fn fields<'v>(
        &mut self,
        prefix: &mut Vec<Step<'v>>,
        vals: &'v [(String, Value)],
        fields: &'v [Attribute],
    ) {
        for ((name, v), ft) in vals.iter().zip(fields) {
            debug_assert_eq!(name, &ft.name);
            prefix.push(Step { attr: name, elem: None });
            self.value(prefix, v, &ft.ty);
            prefix.pop();
        }
    }

    fn value<'v>(&mut self, prefix: &mut Vec<Step<'v>>, value: &'v Value, ty: &'v AttrType) {
        match (value, ty) {
            (Value::Ref(r), _) if r.relation == self.target_rel && &r.key == self.target_key => {
                // Cut at the last keyed element step: the referencing
                // *subobject*.
                let cut = prefix.iter().rposition(|s| s.key().is_some()).map_or(0, |i| i + 1);
                self.out.push(InstanceTarget {
                    relation: self.relation.to_string(),
                    object: Some(self.obj_key.clone()),
                    steps: prefix[..cut]
                        .iter()
                        .map(|s| TargetStep { attr: s.attr.to_string(), elem: s.key() })
                        .collect(),
                });
            }
            (Value::Tuple(vals), AttrType::Tuple(fields)) => self.fields(prefix, vals, fields),
            (Value::Set(es), AttrType::Set(elem)) | (Value::List(es), AttrType::List(elem)) => {
                for e in es {
                    if let Some(last) = prefix.last_mut() {
                        last.elem = Some((e, elem));
                    }
                    self.value(prefix, e, elem);
                    if let Some(last) = prefix.last_mut() {
                        last.elem = None;
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colock_core::fixtures::fig1_catalog;
    use colock_nf2::value::build::*;
    use std::sync::Arc;

    fn populated() -> Store {
        let s = Store::new(Arc::new(fig1_catalog()));
        for (e, t) in [("e1", "grip"), ("e2", "weld"), ("e3", "drill")] {
            s.insert(
                "effectors",
                tup(vec![("eff_id", Value::str(e)), ("tool", Value::str(t))]),
            )
            .unwrap();
        }
        s.insert(
            "cells",
            tup(vec![
                ("cell_id", Value::str("c1")),
                (
                    "c_objects",
                    set(vec![
                        tup(vec![("obj_id", Value::str("o1")), ("obj_name", Value::str("n1"))]),
                        tup(vec![("obj_id", Value::str("o2")), ("obj_name", Value::str("n2"))]),
                    ]),
                ),
                (
                    "robots",
                    list(vec![
                        tup(vec![
                            ("robot_id", Value::str("r1")),
                            ("trajectory", Value::str("t1")),
                            (
                                "effectors",
                                set(vec![
                                    Value::reference("effectors", "e1"),
                                    Value::reference("effectors", "e2"),
                                ]),
                            ),
                        ]),
                        tup(vec![
                            ("robot_id", Value::str("r2")),
                            ("trajectory", Value::str("t2")),
                            (
                                "effectors",
                                set(vec![
                                    Value::reference("effectors", "e2"),
                                    Value::reference("effectors", "e3"),
                                ]),
                            ),
                        ]),
                    ]),
                ),
            ]),
        )
        .unwrap();
        s
    }

    #[test]
    fn refs_under_robot() {
        let s = populated();
        let t = InstanceTarget::object("cells", "c1").elem("robots", "r1");
        let refs: Vec<String> = s.refs_under(&t).iter().map(|r| r.key.to_string()).collect();
        assert_eq!(refs, vec!["e1", "e2"]);
    }

    #[test]
    fn refs_under_whole_object_and_relation() {
        let s = populated();
        assert_eq!(s.refs_under(&InstanceTarget::object("cells", "c1")).len(), 4);
        assert_eq!(s.refs_in_relation("cells").len(), 4);
        assert!(s.refs_in_relation("effectors").is_empty());
    }

    #[test]
    fn tuples_under_counts_elements_and_root() {
        let s = populated();
        let all = s.tuples_under(&InstanceTarget::object("cells", "c1"));
        // root + 2 c_objects + 2 robots = 5 (effector refs are not tuples)
        assert_eq!(all.len(), 5, "{all:?}");
        let names: Vec<String> = all.iter().map(|t| t.to_string()).collect();
        assert!(names.contains(&"cells[c1]".to_string()));
        assert!(names.contains(&"cells[c1].c_objects[o2]".to_string()));
        assert!(names.contains(&"cells[c1].robots[r2]".to_string()));
    }

    #[test]
    fn tuples_under_subtree_only() {
        let s = populated();
        let robots = s.tuples_under(&InstanceTarget::object("cells", "c1").attr("robots"));
        assert_eq!(robots.len(), 2);
    }

    #[test]
    fn reverse_scan_finds_both_robots_for_e2() {
        let s = populated();
        let scan = s.referencing_objects("effectors", &ObjectKey::from("e2"));
        let who: Vec<String> = scan.referencing.iter().map(|t| t.to_string()).collect();
        assert_eq!(who, vec!["cells[c1].robots[r1]", "cells[c1].robots[r2]"]);
        assert_eq!(scan.objects_scanned, 1);
        assert_eq!(s.scan_visits(), 1);
    }

    #[test]
    fn reverse_scan_cost_grows_with_relation_size() {
        let s = populated();
        for i in 2..=20 {
            s.insert(
                "cells",
                tup(vec![
                    ("cell_id", Value::str(format!("c{i}"))),
                    ("c_objects", set(vec![])),
                    ("robots", list(vec![])),
                ]),
            )
            .unwrap();
        }
        let scan = s.referencing_objects("effectors", &ObjectKey::from("e1"));
        assert_eq!(scan.objects_scanned, 20, "every cell must be visited");
        assert_eq!(scan.referencing.len(), 1);
    }

    #[test]
    fn object_keys_lists_relation() {
        let s = populated();
        assert_eq!(s.object_keys("effectors").len(), 3);
        assert!(s.object_keys("missing").is_empty());
    }
}
