//! Statistics collection: measured cardinalities feed the catalog so the
//! §4.5 optimizer plans against real data.

use crate::store::Store;
use colock_nf2::{AttrPath, AttrType, Attribute, Catalog, Value};
use std::collections::HashMap;

/// Computes a catalog whose statistics reflect the store's current contents:
/// relation cardinalities plus average set/list cardinalities per attribute
/// path.
pub fn catalog_with_stats(store: &Store) -> Catalog {
    let mut catalog = (**store.catalog()).clone();
    let schema = catalog.schema().clone();
    for rel in &schema.relations {
        let keys = store.keys(&rel.name).unwrap_or_default();
        let n = keys.len() as u64;
        catalog.relation_stats_mut(&rel.name).cardinality = n;
        if n == 0 {
            continue;
        }
        // Accumulate (sum, count-of-parents) per homogeneous path.
        let mut sums: HashMap<String, (f64, f64)> = HashMap::new();
        for key in &keys {
            let _ = store.with_object(&rel.name, key, |obj| {
                walk_fields(obj, &rel.attributes, &AttrPath::root(), &mut sums);
            });
        }
        for (path, (sum, parents)) in sums {
            if parents > 0.0 {
                catalog.record_cardinality(&rel.name, &path, sum / parents);
            }
        }
    }
    catalog
}

fn walk_fields(
    value: &Value,
    fields: &[Attribute],
    path: &AttrPath,
    sums: &mut HashMap<String, (f64, f64)>,
) {
    if let Value::Tuple(vals) = value {
        for ((_, v), ft) in vals.iter().zip(fields) {
            walk(v, &ft.ty, &path.child(&ft.name), sums);
        }
    }
}

fn walk(value: &Value, ty: &AttrType, path: &AttrPath, sums: &mut HashMap<String, (f64, f64)>) {
    match (value, ty) {
        (_, AttrType::Tuple(fields)) => walk_fields(value, fields, path, sums),
        (Value::Set(es), AttrType::Set(elem)) | (Value::List(es), AttrType::List(elem)) => {
            let entry = sums.entry(path.to_string()).or_insert((0.0, 0.0));
            entry.0 += es.len() as f64;
            entry.1 += 1.0;
            for e in es {
                walk(e, elem, path, sums);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colock_core::fixtures::fig1_catalog;
    use colock_nf2::value::build::*;
    use std::sync::Arc;

    #[test]
    fn measured_cardinalities_land_in_catalog() {
        let s = Store::new(Arc::new(fig1_catalog()));
        s.insert("effectors", tup(vec![("eff_id", Value::str("e1")), ("tool", Value::str("t"))]))
            .unwrap();
        for c in ["c1", "c2"] {
            s.insert(
                "cells",
                tup(vec![
                    ("cell_id", Value::str(c)),
                    (
                        "c_objects",
                        set(vec![
                            tup(vec![("obj_id", Value::str(format!("{c}o1"))), ("obj_name", Value::str("n"))]),
                            tup(vec![("obj_id", Value::str(format!("{c}o2"))), ("obj_name", Value::str("n"))]),
                            tup(vec![("obj_id", Value::str(format!("{c}o3"))), ("obj_name", Value::str("n"))]),
                        ]),
                    ),
                    (
                        "robots",
                        list(vec![tup(vec![
                            ("robot_id", Value::str(format!("{c}r1"))),
                            ("trajectory", Value::str("t")),
                            ("effectors", set(vec![Value::reference("effectors", "e1")])),
                        ])]),
                    ),
                ]),
            )
            .unwrap();
        }
        let cat = catalog_with_stats(&s);
        assert_eq!(cat.relation_stats("cells").cardinality, 2);
        assert_eq!(cat.relation_stats("effectors").cardinality, 1);
        let robots = cat
            .estimated_instances("cells", &AttrPath::parse("robots"))
            .unwrap();
        assert_eq!(robots, 1.0);
        let c_objects = cat
            .estimated_instances("cells", &AttrPath::parse("c_objects"))
            .unwrap();
        assert_eq!(c_objects, 3.0);
        let eff_refs = cat
            .estimated_instances("cells", &AttrPath::parse("robots.effectors"))
            .unwrap();
        assert_eq!(eff_refs, 1.0);
    }

    #[test]
    fn empty_relations_keep_default_stats() {
        let s = Store::new(Arc::new(fig1_catalog()));
        let cat = catalog_with_stats(&s);
        assert_eq!(cat.relation_stats("cells").cardinality, 0);
    }
}
