//! Navigation of NF² values along instance-target steps.
//!
//! A [`TargetStep`] names an attribute and optionally one element of a
//! set/list by key; navigation needs the schema to extract element keys
//! (sets of tuples are keyed by their key attribute). Every walk borrows its
//! types from [`RelationSchema::attributes`] and compares element keys in
//! place, so [`navigate`] and [`navigate_mut`] allocate nothing.

use colock_core::TargetStep;
use colock_nf2::{AttrType, ObjectKey, RelationSchema, Value};

/// The type of attribute `attr` one step below `cur`, where `None` is the
/// relation's root tuple (stepping through set/list constructors like
/// `AttrPath` resolution does).
fn attr_type<'s>(
    relation: &'s RelationSchema,
    cur: Option<&'s AttrType>,
    attr: &str,
) -> Option<&'s AttrType> {
    match cur {
        None => relation.attribute(attr).map(|a| &a.ty),
        Some(ty) => colock_nf2::path::resolve_step(ty, attr),
    }
}

/// Navigates `value` (an object of `relation`) along `steps`, returning the
/// referenced subvalue. An elem step selects one element of a set/list; a
/// bare attr step selects the whole attribute value.
pub fn navigate<'v>(
    relation: &RelationSchema,
    value: &'v Value,
    steps: &[TargetStep],
) -> Option<&'v Value> {
    walk(relation, value, steps, |_| {})
}

/// The position of the element each elem step selects along `steps`. A
/// write at the end of the path changes neither the field names nor the
/// element positions above it, even when it changes an element key on the
/// way, so [`at_positions_mut`] finds the written node again afterwards.
pub(crate) fn element_positions(
    relation: &RelationSchema,
    value: &Value,
    steps: &[TargetStep],
) -> Option<Vec<usize>> {
    let mut positions = Vec::new();
    walk(relation, value, steps, |i| positions.push(i))?;
    Some(positions)
}

/// [`navigate`], reporting the position of each selected element.
fn walk<'v>(
    relation: &RelationSchema,
    value: &'v Value,
    steps: &[TargetStep],
    mut selected: impl FnMut(usize),
) -> Option<&'v Value> {
    let mut cur = value;
    let mut cur_ty = None;
    for step in steps {
        let attr_ty = attr_type(relation, cur_ty, &step.attr)?;
        cur = cur.field(&step.attr)?;
        cur_ty = Some(match &step.elem {
            Some(key) => {
                let elem_ty = attr_ty.element()?;
                let es = cur.elements()?;
                let i = es.iter().position(|e| e.has_element_key(elem_ty, key))?;
                selected(i);
                cur = &es[i];
                elem_ty
            }
            None => attr_ty,
        });
    }
    Some(cur)
}

/// Mutable navigation that selects each elem step's element by the
/// position [`element_positions`] recorded rather than by key.
pub(crate) fn at_positions_mut<'v>(
    value: &'v mut Value,
    steps: &[TargetStep],
    positions: &[usize],
) -> Option<&'v mut Value> {
    let mut cur = value;
    let mut positions = positions.iter();
    for step in steps {
        cur = cur.field_mut(&step.attr)?;
        if step.elem.is_some() {
            cur = cur.elements_mut()?.get_mut(*positions.next()?)?;
        }
    }
    Some(cur)
}

/// Mutable navigation; same semantics as [`navigate`].
pub fn navigate_mut<'v>(
    relation: &RelationSchema,
    value: &'v mut Value,
    steps: &[TargetStep],
) -> Option<&'v mut Value> {
    let mut cur = value;
    let mut cur_ty = None;
    for step in steps {
        let attr_ty = attr_type(relation, cur_ty, &step.attr)?;
        cur = cur.field_mut(&step.attr)?;
        cur_ty = Some(match &step.elem {
            Some(key) => {
                let elem_ty = attr_ty.element()?;
                cur = cur.elements_mut()?.iter_mut().find(|e| e.has_element_key(elem_ty, key))?;
                elem_ty
            }
            None => attr_ty,
        });
    }
    Some(cur)
}

/// Finds a set/list element by key.
pub fn find_element<'v>(container: &'v Value, elem_ty: &AttrType, key: &ObjectKey) -> Option<&'v Value> {
    container.elements()?.iter().find(|e| e.has_element_key(elem_ty, key))
}

/// Removes the element with `key` from a set/list value, returning its
/// position and before-image (the position lets a rollback re-insert a list
/// element where it was).
pub fn remove_element(
    container: &mut Value,
    elem_ty: &AttrType,
    key: &ObjectKey,
) -> Option<(usize, Value)> {
    let es = container.elements_mut()?;
    let idx = es.iter().position(|e| e.has_element_key(elem_ty, key))?;
    Some((idx, es.remove(idx)))
}

/// The attribute type at the end of `steps` (elem steps resolve to the
/// element type), borrowed from the schema. `None` when a step does not
/// resolve, and for empty `steps`: the root tuple's fields are
/// [`RelationSchema::attributes`].
pub fn path_type<'s>(relation: &'s RelationSchema, steps: &[TargetStep]) -> Option<&'s AttrType> {
    let mut cur_ty = None;
    for step in steps {
        let t = attr_type(relation, cur_ty, &step.attr)?;
        cur_ty = Some(if step.elem.is_some() { t.element()? } else { t });
    }
    cur_ty
}

/// The element type of the set/list at the end of `steps`.
pub(crate) fn element_type<'s>(
    relation: &'s RelationSchema,
    steps: &[TargetStep],
) -> Option<&'s AttrType> {
    path_type(relation, steps)?.element()
}

/// Enumerates the element keys of the set/list at the end of `steps`.
pub fn element_keys(
    relation: &RelationSchema,
    value: &Value,
    steps: &[TargetStep],
) -> Vec<ObjectKey> {
    let (Some(container), Some(elem_ty)) =
        (navigate(relation, value, steps), element_type(relation, steps))
    else {
        return Vec::new();
    };
    container
        .elements()
        .map(|es| es.iter().filter_map(|e| e.element_key(elem_ty)).collect())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use colock_nf2::builder::RelationBuilder;
    use colock_nf2::types::shorthand::*;
    use colock_nf2::value::build::{list as vlist, set as vset, tup};

    fn cells_schema() -> RelationSchema {
        RelationBuilder::new("cells", "seg1")
            .attr("cell_id", str_())
            .attr(
                "robots",
                list(tuple(vec![
                    attr("robot_id", str_()),
                    attr("trajectory", str_()),
                    attr("effectors", set(ref_("effectors"))),
                ])),
            )
            .finish()
    }

    fn c1() -> Value {
        tup(vec![
            ("cell_id", Value::str("c1")),
            (
                "robots",
                vlist(vec![
                    tup(vec![
                        ("robot_id", Value::str("r1")),
                        ("trajectory", Value::str("t1")),
                        ("effectors", vset(vec![Value::reference("effectors", "e1")])),
                    ]),
                    tup(vec![
                        ("robot_id", Value::str("r2")),
                        ("trajectory", Value::str("t2")),
                        ("effectors", vset(vec![])),
                    ]),
                ]),
            ),
        ])
    }

    #[test]
    fn navigate_to_attr_and_elem() {
        let schema = cells_schema();
        let v = c1();
        let robots = navigate(&schema, &v, &[TargetStep::attr("robots")]).unwrap();
        assert_eq!(robots.elements().unwrap().len(), 2);
        let r2 = navigate(&schema, &v, &[TargetStep::elem("robots", "r2")]).unwrap();
        assert_eq!(r2.field("trajectory"), Some(&Value::str("t2")));
        let traj = navigate(
            &schema,
            &v,
            &[TargetStep::elem("robots", "r1"), TargetStep::attr("trajectory")],
        )
        .unwrap();
        assert_eq!(traj, &Value::str("t1"));
    }

    #[test]
    fn navigate_missing_elem_is_none() {
        let schema = cells_schema();
        let v = c1();
        assert!(navigate(&schema, &v, &[TargetStep::elem("robots", "r9")]).is_none());
        assert!(navigate(&schema, &v, &[TargetStep::attr("nope")]).is_none());
    }

    #[test]
    fn navigate_mut_allows_in_place_update() {
        let schema = cells_schema();
        let mut v = c1();
        let traj = navigate_mut(
            &schema,
            &mut v,
            &[TargetStep::elem("robots", "r1"), TargetStep::attr("trajectory")],
        )
        .unwrap();
        *traj = Value::str("new");
        assert_eq!(
            navigate(&schema, &v, &[TargetStep::elem("robots", "r1"), TargetStep::attr("trajectory")]),
            Some(&Value::str("new"))
        );
    }

    #[test]
    fn positions_find_the_node_again_after_its_key_changed() {
        let schema = cells_schema();
        let mut v = c1();
        let steps = [TargetStep::elem("robots", "r2"), TargetStep::attr("robot_id")];
        let positions = element_positions(&schema, &v, &steps).unwrap();
        assert_eq!(positions, vec![1]);
        *at_positions_mut(&mut v, &steps, &positions).unwrap() = Value::str("r9");
        assert!(navigate(&schema, &v, &steps).is_none(), "the key r2 is gone");
        let node = at_positions_mut(&mut v, &steps, &positions).unwrap();
        assert_eq!(node, &Value::str("r9"));
        assert!(element_positions(&schema, &v, &[TargetStep::elem("robots", "r7")]).is_none());
    }

    #[test]
    fn path_type_borrows_from_the_schema() {
        let schema = cells_schema();
        let robots = [TargetStep::attr("robots")];
        assert_eq!(
            path_type(&schema, &robots).map(ToString::to_string).as_deref(),
            Some("L<T(robot_id: str, trajectory: str, effectors: S<ref<effectors>>)>")
        );
        let robots_ty = &schema.attribute("robots").unwrap().ty;
        assert_eq!(element_type(&schema, &robots), robots_ty.element());
        let effectors = [TargetStep::elem("robots", "r1"), TargetStep::attr("effectors")];
        assert_eq!(element_type(&schema, &effectors), Some(&ref_("effectors")));
        assert!(path_type(&schema, &[]).is_none(), "the root tuple is the attribute list");
        assert!(element_type(&schema, &[TargetStep::attr("cell_id")]).is_none());
    }

    #[test]
    fn element_keys_of_robots() {
        let schema = cells_schema();
        let v = c1();
        let keys = element_keys(&schema, &v, &[TargetStep::attr("robots")]);
        assert_eq!(keys, vec![ObjectKey::from("r1"), ObjectKey::from("r2")]);
    }

    #[test]
    fn element_keys_of_non_container_is_empty() {
        let schema = cells_schema();
        let v = c1();
        assert!(element_keys(&schema, &v, &[TargetStep::elem("robots", "r1")]).is_empty());
    }
}
