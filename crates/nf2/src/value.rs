//! Instance values of the extended NF² model, validated against schemas.

use crate::error::Nf2Error;
use crate::schema::{DatabaseSchema, RelationSchema};
use crate::types::{fmt_fields, AtomicType, AttrType, Attribute};
use crate::Result;
use std::fmt::{self, Write as _};

/// Key of a complex object within its relation (the value of the relation's
/// key attribute). Only atomic values can be keys.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ObjectKey {
    /// String key (e.g. `"c1"`, `"e2"`).
    Str(String),
    /// Integer key.
    Int(i64),
}

impl ObjectKey {
    fn borrowed(&self) -> KeyRef<'_> {
        match self {
            ObjectKey::Str(s) => KeyRef::Str(s),
            ObjectKey::Int(i) => KeyRef::Int(*i),
        }
    }
}

impl fmt::Display for ObjectKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.borrowed().fmt(f)
    }
}

/// A borrowed [`ObjectKey`]: equality, order and display match the owned
/// key, so key comparisons on the hot path need not copy strings.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum KeyRef<'a> {
    Str(&'a str),
    Int(i64),
}

impl KeyRef<'_> {
    fn owned(self) -> ObjectKey {
        match self {
            KeyRef::Str(s) => ObjectKey::Str(s.to_string()),
            KeyRef::Int(i) => ObjectKey::Int(i),
        }
    }
}

impl fmt::Display for KeyRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyRef::Str(s) => f.write_str(s),
            KeyRef::Int(i) => write!(f, "{i}"),
        }
    }
}

impl From<&str> for ObjectKey {
    fn from(s: &str) -> Self {
        ObjectKey::Str(s.to_string())
    }
}

impl From<String> for ObjectKey {
    fn from(s: String) -> Self {
        ObjectKey::Str(s)
    }
}

impl From<i64> for ObjectKey {
    fn from(i: i64) -> Self {
        ObjectKey::Int(i)
    }
}

/// A reference to a complex object of a relation ("common data", §2).
///
/// The paper makes no assumption about the implementation of references (key
/// values, surrogates \[MeLo83\], …); we use `(relation, key)` pairs, which is
/// the key-value variant.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectRef {
    /// Target relation name.
    pub relation: String,
    /// Key of the referenced complex object.
    pub key: ObjectKey,
}

impl ObjectRef {
    /// Creates a reference.
    pub fn new(relation: impl Into<String>, key: impl Into<ObjectKey>) -> Self {
        ObjectRef { relation: relation.into(), key: key.into() }
    }
}

impl fmt::Display for ObjectRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "->{}[{}]", self.relation, self.key)
    }
}

/// An attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// String value.
    Str(String),
    /// Integer value.
    Int(i64),
    /// Real value.
    Real(f64),
    /// Boolean value.
    Bool(bool),
    /// Set of values of one type. For sets of tuples, elements are identified
    /// by their key attribute; for sets of atomic values, by the value itself.
    Set(Vec<Value>),
    /// Ordered list of values of one type.
    List(Vec<Value>),
    /// Complex tuple: `(attribute name, value)` pairs in schema order.
    Tuple(Vec<(String, Value)>),
    /// Reference to a complex object of another relation.
    Ref(ObjectRef),
}

impl Value {
    /// Short builder for string values.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// Short builder for references.
    pub fn reference(relation: impl Into<String>, key: impl Into<ObjectKey>) -> Self {
        Value::Ref(ObjectRef::new(relation, key))
    }

    /// The field of a tuple value by attribute name.
    pub fn field(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Tuple(fields) => fields.iter().find(|(n, _)| n == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Mutable field of a tuple value.
    pub fn field_mut(&mut self, name: &str) -> Option<&mut Value> {
        match self {
            Value::Tuple(fields) => {
                fields.iter_mut().find(|(n, _)| n == name).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// The elements of a set or list value.
    pub fn elements(&self) -> Option<&[Value]> {
        match self {
            Value::Set(es) | Value::List(es) => Some(es),
            _ => None,
        }
    }

    /// Mutable elements of a set or list value.
    pub fn elements_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::Set(es) | Value::List(es) => Some(es),
            _ => None,
        }
    }

    /// Converts an atomic value to an [`ObjectKey`], if possible.
    pub fn as_key(&self) -> Option<ObjectKey> {
        self.key_ref().map(KeyRef::owned)
    }

    fn key_ref(&self) -> Option<KeyRef<'_>> {
        match self {
            Value::Str(s) => Some(KeyRef::Str(s)),
            Value::Int(i) => Some(KeyRef::Int(*i)),
            _ => None,
        }
    }

    /// The borrowed element key: the key field of a tuple element, the
    /// element itself otherwise.
    fn element_key_ref(&self, elem_ty: &AttrType) -> Option<KeyRef<'_>> {
        match (self, elem_ty) {
            (Value::Tuple(_), AttrType::Tuple(fields)) => {
                let key_attr = fields.iter().find(|a| a.key)?;
                self.field(&key_attr.name)?.key_ref()
            }
            _ => self.key_ref(),
        }
    }

    /// For a tuple value with a `key` attribute flagged in `fields`, extracts
    /// the element key; for an atomic value, the value itself.
    pub fn element_key(&self, elem_ty: &AttrType) -> Option<ObjectKey> {
        self.element_key_ref(elem_ty).map(KeyRef::owned)
    }

    /// Whether this element's key is `key`: the same answer as
    /// `element_key(elem_ty) == Some(key)`, compared in place without
    /// building an owned key.
    pub fn has_element_key(&self, elem_ty: &AttrType, key: &ObjectKey) -> bool {
        self.element_key_ref(elem_ty) == Some(key.borrowed())
    }

    /// Collects all [`ObjectRef`]s contained anywhere in this value.
    ///
    /// This is the "scan over all the existing references" of §4.4.2.1: the
    /// protocol discovers entry points of dependent inner units from the data
    /// it accesses anyway — no backward pointers are needed.
    pub fn collect_refs<'a>(&'a self, out: &mut Vec<&'a ObjectRef>) {
        match self {
            Value::Ref(r) => out.push(r),
            Value::Set(es) | Value::List(es) => {
                for e in es {
                    e.collect_refs(out);
                }
            }
            Value::Tuple(fields) => {
                for (_, v) in fields {
                    v.collect_refs(out);
                }
            }
            _ => {}
        }
    }

    /// Counts the basic (atomic/ref) leaves of this value — a proxy for how
    /// many tuple-level locks a finest-granularity protocol would take.
    pub fn leaf_count(&self) -> usize {
        match self {
            Value::Set(es) | Value::List(es) => es.iter().map(Value::leaf_count).sum(),
            Value::Tuple(fields) => fields.iter().map(|(_, v)| v.leaf_count()).sum(),
            _ => 1,
        }
    }

    /// Type checks this value against `ty`; `path` names the value in error
    /// messages. Nothing is allocated unless the check fails.
    pub fn check_type(&self, ty: &AttrType, path: &str) -> Result<()> {
        check_value(self, ty).map_err(|fault| fault.into_error(path))
    }

    /// Validates this value as a complex object of `relation` and returns its
    /// key. The value is checked against the relation's attributes in place;
    /// nothing but the returned key is allocated unless the check fails.
    pub fn check_object(&self, relation: &RelationSchema) -> Result<ObjectKey> {
        check_tuple(self, &relation.attributes).map_err(|fault| fault.into_error(&relation.name))?;
        let key_attr = relation
            .key_attribute()
            .ok_or_else(|| Nf2Error::MissingKey(relation.name.clone()))?;
        self.field(&key_attr.name)
            .and_then(Value::as_key)
            .ok_or_else(|| Nf2Error::MissingKey(relation.name.clone()))
    }

    /// Verifies that every reference inside this value resolves against some
    /// relation in `schema` (existence of the *target object* is checked by
    /// the storage layer, which knows the extension).
    pub fn check_ref_relations(&self, schema: &DatabaseSchema) -> Result<()> {
        let mut refs = Vec::new();
        self.collect_refs(&mut refs);
        for r in refs {
            schema.relation(&r.relation)?;
        }
        Ok(())
    }
}

/// A failed type check, recorded by borrowing from the value and the type.
/// The failing node's path is collected while the recursion unwinds, so a
/// successful check allocates nothing; [`TypeFault::into_error`] renders it.
struct TypeFault<'a> {
    fault: Fault<'a>,
    /// Steps from the failing node up to the checked root (innermost first).
    below: Vec<PathStep<'a>>,
}

enum Fault<'a> {
    Mismatch { expected: Expected<'a>, found: Found<'a> },
    MisnamedField(&'a str),
    DuplicateKey(KeyRef<'a>),
}

enum Expected<'a> {
    Type(&'a AttrType),
    Tuple(&'a [Attribute]),
}

enum Found<'a> {
    Kind(&'static str),
    Ref(&'a str),
    Fields(usize),
}

enum PathStep<'a> {
    Index(usize),
    Field(&'a str),
}

impl<'a> TypeFault<'a> {
    fn new(fault: Fault<'a>) -> Self {
        TypeFault { fault, below: Vec::new() }
    }

    fn mismatch(expected: Expected<'a>, found: Found<'a>) -> Self {
        Self::new(Fault::Mismatch { expected, found })
    }

    fn under(mut self, step: PathStep<'a>) -> Self {
        self.below.push(step);
        self
    }

    /// The error for a check that started at `root`, e.g.
    /// `cells.robots[0].trajectory` for `root = "cells"`.
    fn into_error(self, root: &str) -> Nf2Error {
        let mut path = root.to_string();
        for step in self.below.iter().rev() {
            let _ = match step {
                PathStep::Index(i) => write!(path, "[{i}]"),
                PathStep::Field(name) => write!(path, ".{name}"),
            };
        }
        match self.fault {
            Fault::Mismatch { expected, found } => Nf2Error::TypeMismatch {
                path,
                expected: expected.to_string(),
                found: found.to_string(),
            },
            Fault::MisnamedField(step) => Nf2Error::BadPath { path, step: step.to_string() },
            Fault::DuplicateKey(key) => Nf2Error::DuplicateSetKey { path, key: key.to_string() },
        }
    }
}

impl fmt::Display for Expected<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expected::Type(ty) => ty.fmt(f),
            Expected::Tuple(fields) => fmt_fields(f, fields),
        }
    }
}

impl fmt::Display for Found<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Found::Kind(kind) => f.write_str(kind),
            Found::Ref(relation) => write!(f, "ref<{relation}>"),
            Found::Fields(n) => write!(f, "tuple of {n} fields"),
        }
    }
}

type Checked<'a> = std::result::Result<(), TypeFault<'a>>;

/// The one type checker behind [`Value::check_type`] and
/// [`Value::check_object`].
fn check_value<'a>(value: &'a Value, ty: &'a AttrType) -> Checked<'a> {
    let mismatch = |found| Err(TypeFault::mismatch(Expected::Type(ty), found));
    match (value, ty) {
        (Value::Str(_), AttrType::Atomic(AtomicType::Str))
        | (Value::Int(_), AttrType::Atomic(AtomicType::Int))
        | (Value::Real(_), AttrType::Atomic(AtomicType::Real))
        | (Value::Bool(_), AttrType::Atomic(AtomicType::Bool)) => Ok(()),
        (Value::Ref(r), AttrType::Ref(target)) => {
            if &r.relation == target {
                Ok(())
            } else {
                mismatch(Found::Ref(&r.relation))
            }
        }
        (Value::Set(es), AttrType::Set(elem)) => {
            check_elements(es, elem)?;
            match smallest_duplicate(es.iter().filter_map(|e| e.element_key_ref(elem))) {
                Some(key) => Err(TypeFault::new(Fault::DuplicateKey(key))),
                None => Ok(()),
            }
        }
        (Value::List(es), AttrType::List(elem)) => check_elements(es, elem),
        (_, AttrType::Tuple(fields)) => check_tuple(value, fields),
        (v, _) => mismatch(Found::Kind(kind_name(v))),
    }
}

fn check_elements<'a>(elements: &'a [Value], elem_ty: &'a AttrType) -> Checked<'a> {
    for (i, e) in elements.iter().enumerate() {
        check_value(e, elem_ty).map_err(|fault| fault.under(PathStep::Index(i)))?;
    }
    Ok(())
}

/// Checks a tuple against its fields: arity, field names in schema order,
/// then each field's value.
fn check_tuple<'a>(value: &'a Value, fields: &'a [Attribute]) -> Checked<'a> {
    let Value::Tuple(vals) = value else {
        return Err(TypeFault::mismatch(Expected::Tuple(fields), Found::Kind(kind_name(value))));
    };
    if vals.len() != fields.len() {
        return Err(TypeFault::mismatch(Expected::Tuple(fields), Found::Fields(vals.len())));
    }
    for ((name, v), f) in vals.iter().zip(fields) {
        if name != &f.name {
            return Err(TypeFault::new(Fault::MisnamedField(name)));
        }
        check_value(v, &f.ty).map_err(|fault| fault.under(PathStep::Field(name)))?;
    }
    Ok(())
}

/// The smallest key that occurs twice among `keys`. The borrowed keys are
/// sorted in a stack buffer when they fit (the common small set), so the
/// duplicate test allocates only for sets of more than 32 keyed elements.
fn smallest_duplicate<'a>(keys: impl Iterator<Item = KeyRef<'a>>) -> Option<KeyRef<'a>> {
    const INLINE: usize = 32;
    let mut inline = [KeyRef::Int(0); INLINE];
    let mut spilled = Vec::new();
    let mut n = 0;
    for key in keys {
        if n < INLINE {
            inline[n] = key;
        } else {
            if n == INLINE {
                spilled.extend_from_slice(&inline);
            }
            spilled.push(key);
        }
        n += 1;
    }
    let sorted = if n <= INLINE { &mut inline[..n] } else { &mut spilled[..] };
    sorted.sort_unstable();
    sorted.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
}

fn kind_name(v: &Value) -> &'static str {
    match v {
        Value::Str(_) => "str",
        Value::Int(_) => "int",
        Value::Real(_) => "real",
        Value::Bool(_) => "bool",
        Value::Set(_) => "set",
        Value::List(_) => "list",
        Value::Tuple(_) => "tuple",
        Value::Ref(_) => "ref",
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(r) => write!(f, "{r}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Set(es) => {
                write!(f, "{{")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "}}")
            }
            Value::List(es) => {
                write!(f, "[")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "]")
            }
            Value::Tuple(fields) => {
                write!(f, "(")?;
                for (i, (n, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{n}: {v}")?;
                }
                write!(f, ")")
            }
            Value::Ref(r) => write!(f, "{r}"),
        }
    }
}

/// Builder helpers for tuple values.
pub mod build {
    use super::*;

    /// Builds a tuple value from `(name, value)` pairs.
    pub fn tup(fields: Vec<(&str, Value)>) -> Value {
        Value::Tuple(fields.into_iter().map(|(n, v)| (n.to_string(), v)).collect())
    }

    /// Builds a set value.
    pub fn set(elems: Vec<Value>) -> Value {
        Value::Set(elems)
    }

    /// Builds a list value.
    pub fn list(elems: Vec<Value>) -> Value {
        Value::List(elems)
    }
}

#[cfg(test)]
mod tests {
    use super::build::*;
    use super::*;
    use crate::types::shorthand::{self, attr, int_, ref_, str_};

    fn robot_ty() -> AttrType {
        shorthand::tuple(vec![
            attr("robot_id", str_()),
            attr("trajectory", str_()),
            attr("effectors", shorthand::set(ref_("effectors"))),
        ])
    }

    fn robot(id: &str, effs: &[&str]) -> Value {
        tup(vec![
            ("robot_id", Value::str(id)),
            ("trajectory", Value::str(format!("t{id}"))),
            (
                "effectors",
                set(effs.iter().map(|e| Value::reference("effectors", *e)).collect()),
            ),
        ])
    }

    #[test]
    fn well_typed_robot_checks() {
        assert!(robot("r1", &["e1", "e2"]).check_type(&robot_ty(), "robots").is_ok());
    }

    #[test]
    fn wrong_atomic_type_rejected() {
        let v = tup(vec![
            ("robot_id", Value::Int(3)),
            ("trajectory", Value::str("t")),
            ("effectors", set(vec![])),
        ]);
        assert!(matches!(
            v.check_type(&robot_ty(), "robots").unwrap_err(),
            Nf2Error::TypeMismatch { .. }
        ));
    }

    #[test]
    fn wrong_ref_target_rejected() {
        let v = tup(vec![
            ("robot_id", Value::str("r1")),
            ("trajectory", Value::str("t")),
            ("effectors", set(vec![Value::reference("cells", "c1")])),
        ]);
        let err = v.check_type(&robot_ty(), "robots").unwrap_err();
        assert!(matches!(err, Nf2Error::TypeMismatch { .. }), "{err:?}");
    }

    #[test]
    fn misnamed_field_rejected() {
        let v = tup(vec![
            ("robotid", Value::str("r1")),
            ("trajectory", Value::str("t")),
            ("effectors", set(vec![])),
        ]);
        assert!(matches!(
            v.check_type(&robot_ty(), "robots").unwrap_err(),
            Nf2Error::BadPath { .. }
        ));
    }

    #[test]
    fn duplicate_set_keys_rejected() {
        let ty = shorthand::set(robot_ty());
        let v = set(vec![robot("r1", &[]), robot("r1", &[])]);
        assert!(matches!(
            v.check_type(&ty, "robots").unwrap_err(),
            Nf2Error::DuplicateSetKey { .. }
        ));
    }

    #[test]
    fn collect_refs_traverses_everything() {
        let v = robot("r1", &["e1", "e2"]);
        let mut refs = Vec::new();
        v.collect_refs(&mut refs);
        let keys: Vec<String> = refs.iter().map(|r| r.key.to_string()).collect();
        assert_eq!(keys, vec!["e1", "e2"]);
    }

    #[test]
    fn leaf_count_counts_blu_instances() {
        // robot_id + trajectory + 2 refs = 4 leaves
        assert_eq!(robot("r1", &["e1", "e2"]).leaf_count(), 4);
        assert_eq!(Value::Int(1).leaf_count(), 1);
        assert_eq!(set(vec![]).leaf_count(), 0);
    }

    #[test]
    fn field_accessors() {
        let mut v = robot("r1", &[]);
        assert_eq!(v.field("robot_id"), Some(&Value::str("r1")));
        *v.field_mut("trajectory").unwrap() = Value::str("new");
        assert_eq!(v.field("trajectory"), Some(&Value::str("new")));
        assert!(v.field("nope").is_none());
        assert!(Value::Int(1).field("x").is_none());
    }

    #[test]
    fn element_key_for_tuples_and_atoms() {
        let r = robot("r7", &[]);
        assert_eq!(r.element_key(&robot_ty()), Some(ObjectKey::Str("r7".into())));
        assert_eq!(Value::Int(5).element_key(&int_()), Some(ObjectKey::Int(5)));
        assert_eq!(set(vec![]).element_key(&int_()), None);
    }

    #[test]
    fn display_is_compact() {
        let v = tup(vec![("a", Value::Int(1)), ("b", set(vec![Value::Int(2)]))]);
        assert_eq!(v.to_string(), "(a: 1, b: {2})");
        assert_eq!(Value::reference("effectors", "e1").to_string(), "->effectors[e1]");
    }

    #[test]
    fn object_key_orderings() {
        assert!(ObjectKey::from("a") < ObjectKey::from("b"));
        assert!(ObjectKey::from(1i64) < ObjectKey::from(2i64));
        assert_eq!(ObjectKey::from("x").to_string(), "x");
    }
}
