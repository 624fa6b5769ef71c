//! Golden corpus of invalid values: `check_type` / `check_object` report
//! the exact error value and message for each kind of fault, with the path
//! of the offending node spelled out (`cells.robots[0].trajectory`).

use colock_nf2::types::shorthand::*;
use colock_nf2::value::build::{list as vlist, set as vset, tup};
use colock_nf2::{AttrType, Nf2Error, RelationBuilder, RelationSchema, Value};

fn cells() -> RelationSchema {
    RelationBuilder::new("cells", "seg1")
        .attr("cell_id", str_())
        .attr("c_objects", set(tuple(vec![attr("obj_id", str_()), attr("obj_name", str_())])))
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

const ROBOT_TY: &str = "T(robot_id: str, trajectory: str, effectors: S<ref<effectors>>)";
const CELL_TY: &str = "T(cell_id: str, c_objects: S<T(obj_id: str, obj_name: str)>, \
                        robots: L<T(robot_id: str, trajectory: str, effectors: S<ref<effectors>>)>)";

fn c_object(id: &str) -> Value {
    tup(vec![("obj_id", Value::str(id)), ("obj_name", Value::str("n"))])
}

fn robot(id: &str, trajectory: Value, effectors: Vec<Value>) -> Value {
    tup(vec![
        ("robot_id", Value::str(id)),
        ("trajectory", trajectory),
        ("effectors", vset(effectors)),
    ])
}

fn cell(c_objects: Vec<Value>, robots: Vec<Value>) -> Value {
    tup(vec![("cell_id", Value::str("c1")), ("c_objects", vset(c_objects)), ("robots", vlist(robots))])
}

fn eff(key: &str) -> Value {
    Value::reference("effectors", key)
}

/// Checks `value` as a `cells` object and pins both the error value and its
/// rendered message.
fn pin(value: &Value, want: Nf2Error, message: &str) {
    let err = value.check_object(&cells()).unwrap_err();
    assert_eq!(err, want);
    assert_eq!(err.to_string(), message);
}

fn mismatch(path: &str, expected: &str, found: &str) -> Nf2Error {
    Nf2Error::TypeMismatch { path: path.into(), expected: expected.into(), found: found.into() }
}

#[test]
fn valid_cell_checks_and_yields_its_key() {
    let v = cell(
        vec![c_object("o1"), c_object("o2")],
        vec![robot("r1", Value::str("t"), vec![eff("e1"), eff("e2")])],
    );
    assert_eq!(v.check_object(&cells()).unwrap(), "c1".into());
}

#[test]
fn atomic_mismatch_at_depth() {
    let v = cell(
        vec![],
        vec![robot("r1", Value::str("t"), vec![]), robot("r2", Value::Int(7), vec![])],
    );
    pin(
        &v,
        mismatch("cells.robots[1].trajectory", "str", "int"),
        "type mismatch at `cells.robots[1].trajectory`: expected str, found int",
    );
}

#[test]
fn atomic_mismatch_below_a_caller_supplied_path() {
    let ty = list(set(int_()));
    let v = vlist(vec![vset(vec![Value::Int(1)]), vset(vec![Value::Int(2), Value::Bool(true)])]);
    let err = v.check_type(&ty, "root.xs").unwrap_err();
    assert_eq!(err, mismatch("root.xs[1][1]", "int", "bool"));
    assert_eq!(err.to_string(), "type mismatch at `root.xs[1][1]`: expected int, found bool");
}

#[test]
fn duplicate_set_key() {
    let v = cell(vec![c_object("o1"), c_object("o2"), c_object("o1")], vec![]);
    pin(
        &v,
        Nf2Error::DuplicateSetKey { path: "cells.c_objects".into(), key: "o1".into() },
        "duplicate key `o1` in set at `cells.c_objects`",
    );
}

#[test]
fn duplicate_set_key_reports_the_smallest_duplicate() {
    let v = cell(
        vec![c_object("o9"), c_object("o3"), c_object("o9"), c_object("o3"), c_object("o5")],
        vec![],
    );
    pin(
        &v,
        Nf2Error::DuplicateSetKey { path: "cells.c_objects".into(), key: "o3".into() },
        "duplicate key `o3` in set at `cells.c_objects`",
    );
}

#[test]
fn duplicate_key_in_a_large_set() {
    let mut objects: Vec<Value> = (0..100).map(|i| c_object(&format!("o{i:03}"))).collect();
    objects.push(c_object("o042"));
    objects.push(c_object("o017"));
    pin(
        &cell(objects, vec![]),
        Nf2Error::DuplicateSetKey { path: "cells.c_objects".into(), key: "o017".into() },
        "duplicate key `o017` in set at `cells.c_objects`",
    );
}

#[test]
fn duplicate_atomic_set_elements() {
    let err = vset(vec![Value::Int(3), Value::Int(1), Value::Int(3)])
        .check_type(&set(int_()), "sizes")
        .unwrap_err();
    assert_eq!(err, Nf2Error::DuplicateSetKey { path: "sizes".into(), key: "3".into() });
    assert_eq!(err.to_string(), "duplicate key `3` in set at `sizes`");
}

#[test]
fn unkeyed_set_elements_may_repeat() {
    let v = vset(vec![Value::Real(1.0), Value::Real(1.0)]);
    assert!(v.check_type(&set(real_()), "xs").is_ok());
    let v = cell(vec![], vec![robot("r1", Value::str("t"), vec![eff("e1"), eff("e1")])]);
    assert!(v.check_object(&cells()).is_ok());
}

#[test]
fn wrong_field_name() {
    let v = cell(
        vec![],
        vec![tup(vec![
            ("robotid", Value::str("r1")),
            ("trajectory", Value::str("t")),
            ("effectors", vset(vec![])),
        ])],
    );
    pin(
        &v,
        Nf2Error::BadPath { path: "cells.robots[0]".into(), step: "robotid".into() },
        "path `cells.robots[0]`: step `robotid` does not resolve",
    );
}

#[test]
fn wrong_ref_relation() {
    let v = cell(
        vec![],
        vec![robot("r1", Value::str("t"), vec![eff("e1"), Value::reference("cells", "c2")])],
    );
    pin(
        &v,
        mismatch("cells.robots[0].effectors[1]", "ref<effectors>", "ref<cells>"),
        "type mismatch at `cells.robots[0].effectors[1]`: expected ref<effectors>, found ref<cells>",
    );
}

#[test]
fn wrong_tuple_arity() {
    let v = cell(
        vec![],
        vec![tup(vec![("robot_id", Value::str("r1")), ("trajectory", Value::str("t"))])],
    );
    pin(
        &v,
        mismatch("cells.robots[0]", ROBOT_TY, "tuple of 2 fields"),
        &format!("type mismatch at `cells.robots[0]`: expected {ROBOT_TY}, found tuple of 2 fields"),
    );
}

#[test]
fn wrong_arity_and_kind_at_the_object_root() {
    let short = tup(vec![("cell_id", Value::str("c1"))]);
    pin(
        &short,
        mismatch("cells", CELL_TY, "tuple of 1 fields"),
        &format!("type mismatch at `cells`: expected {CELL_TY}, found tuple of 1 fields"),
    );
    pin(
        &Value::Int(1),
        mismatch("cells", CELL_TY, "int"),
        &format!("type mismatch at `cells`: expected {CELL_TY}, found int"),
    );
}

#[test]
fn container_kind_mismatch() {
    let v = tup(vec![
        ("cell_id", Value::str("c1")),
        ("c_objects", vlist(vec![])),
        ("robots", vlist(vec![])),
    ]);
    pin(
        &v,
        mismatch("cells.c_objects", "S<T(obj_id: str, obj_name: str)>", "list"),
        "type mismatch at `cells.c_objects`: expected S<T(obj_id: str, obj_name: str)>, found list",
    );
}

#[test]
fn first_fault_in_schema_order_wins() {
    // Both the key type and a nested trajectory are wrong: the key comes
    // first in schema order and is the one reported.
    let v = tup(vec![
        ("cell_id", Value::Int(1)),
        ("c_objects", vset(vec![])),
        ("robots", vlist(vec![robot("r1", Value::Int(7), vec![])])),
    ]);
    pin(
        &v,
        mismatch("cells.cell_id", "str", "int"),
        "type mismatch at `cells.cell_id`: expected str, found int",
    );
}

#[test]
fn object_without_a_usable_key() {
    let rel = RelationBuilder::new("readings", "seg1").attr("reading_id", real_()).finish();
    let err = tup(vec![("reading_id", Value::Real(1.5))]).check_object(&rel).unwrap_err();
    assert_eq!(err, Nf2Error::MissingKey("readings".into()));
    assert_eq!(err.to_string(), "relation `readings` has no key attribute");
}

#[test]
fn nested_type_display_in_expected() {
    let ty: AttrType = list(tuple(vec![attr("a", int_()), attr("b", set(ref_("x")))]));
    let err = Value::Bool(false).check_type(&ty, "p").unwrap_err();
    assert_eq!(err, mismatch("p", "L<T(a: int, b: S<ref<x>>)>", "bool"));
}
