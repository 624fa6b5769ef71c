//! Property-based tests: values generated from a type always check against
//! it; structural invariants of schemas and paths.

use colock_nf2::types::shorthand as ty;
use colock_nf2::value::build as val;
use colock_nf2::{AttrPath, AttrType, Attribute, ObjectKey, Value};
use colock_testkit::prop::{alpha_string, any_finite_f64, any_i64, pick_weighted, vec_of};
use colock_testkit::{ensure, ensure_eq, forall, Rng};

/// Generator: a random (type, matching value) pair, recursively.
fn typed_value(rng: &mut Rng, depth: u32) -> (AttrType, Value) {
    let leaf = |rng: &mut Rng| match rng.gen_range(0..4u32) {
        0 => (ty::int_(), Value::Int(any_i64(rng))),
        1 => (ty::str_(), Value::Str(alpha_string(rng, 0..9))),
        2 => (ty::bool_(), Value::Bool(rng.gen_bool(0.5))),
        _ => (ty::real_(), Value::Real(any_finite_f64(rng))),
    };
    if depth == 0 {
        return leaf(rng);
    }
    match pick_weighted(rng, &[4, 1, 1]) {
        0 => leaf(rng),
        1 => {
            // Lists of one element type (replicate the value n times —
            // lists allow duplicates).
            let (t, v) = typed_value(rng, depth - 1);
            let n = rng.gen_range(0usize..4);
            (ty::list(t), val::list(vec![v; n]))
        }
        _ => {
            // Tuples of up to 3 distinctly-named fields.
            let fields = vec_of(rng, 1..4, |rng| typed_value(rng, depth - 1));
            let mut ft = Vec::new();
            let mut fv = Vec::new();
            for (i, (t, v)) in fields.into_iter().enumerate() {
                let name = format!("f{i}");
                ft.push(ty::attr(&name, t));
                fv.push((name, v));
            }
            (ty::tuple(ft), Value::Tuple(fv))
        }
    }
}

/// `(AttrType, Value)` pairs don't shrink structurally; wrap so `forall!`
/// accepts them (the case seed is enough to replay).
#[derive(Debug, Clone)]
struct Typed(AttrType, Value);

colock_testkit::no_shrink!(Typed);

#[test]
fn generated_values_typecheck() {
    forall!(|rng| { let (t, v) = typed_value(rng, 3); Typed(t, v) }, |Typed(t, v)| {
        ensure!(v.check_type(t, "root").is_ok(), "{v} vs {t}");
        Ok(())
    });
}

#[test]
fn kind_mismatch_fails() {
    forall!(
        |rng| { let (t, v) = typed_value(rng, 2); (Typed(t, v), any_i64(rng)) },
        |(Typed(t, _), wrong)| {
            // An Int value only checks against the Int atomic type.
            let v = Value::Int(*wrong);
            if *t != ty::int_() && !matches!(t, AttrType::List(_)) {
                // (empty lists are the only container an Int can't be confused
                // with either — Int vs List always mismatches too)
                ensure!(v.check_type(t, "root").is_err());
            }
            Ok(())
        }
    );
}

#[test]
fn leaf_count_is_nonnegative_and_stable() {
    forall!(|rng| { let (t, v) = typed_value(rng, 3); Typed(t, v) }, |Typed(_, v)| {
        let a = v.leaf_count();
        let b = v.clone().leaf_count();
        ensure_eq!(a, b);
        Ok(())
    });
}

#[test]
fn collect_refs_never_panics() {
    forall!(|rng| { let (t, v) = typed_value(rng, 3); Typed(t, v) }, |Typed(_, v)| {
        let mut refs = Vec::new();
        v.collect_refs(&mut refs);
        // No refs can be generated by the generator.
        ensure!(refs.is_empty());
        Ok(())
    });
}

fn ident(rng: &mut Rng) -> String {
    let head = alpha_string(rng, 1..2);
    let tail = colock_testkit::prop::string_of(
        rng,
        "abcdefghijklmnopqrstuvwxyz0123456789_",
        0..7,
    );
    format!("{head}{tail}")
}

#[test]
fn path_parse_display_roundtrip() {
    forall!(|rng| vec_of(rng, 1..5, ident), |steps: &Vec<String>| {
        let text = steps.join(".");
        let p = AttrPath::parse(&text);
        ensure_eq!(p.to_string(), text);
        ensure_eq!(p.steps().len(), steps.len());
        Ok(())
    });
}

#[test]
fn path_parent_child_inverse() {
    forall!(
        |rng| (vec_of(rng, 1..5, |rng| alpha_string(rng, 1..7)), alpha_string(rng, 1..7)),
        |(steps, extra): &(Vec<String>, String)| {
            let p = AttrPath::from_steps(steps.clone());
            let child = p.child(extra);
            ensure_eq!(child.parent().unwrap(), p.clone());
            ensure!(p.is_prefix_of(&child));
            Ok(())
        }
    );
}

#[test]
fn prefix_is_partial_order() {
    forall!(
        |rng| (
            vec_of(rng, 0..4, |rng| colock_testkit::prop::string_of(rng, "ab", 1..2)),
            vec_of(rng, 0..4, |rng| colock_testkit::prop::string_of(rng, "ab", 1..2)),
        ),
        |(a, b): &(Vec<String>, Vec<String>)| {
            let pa = AttrPath::from_steps(a.clone());
            let pb = AttrPath::from_steps(b.clone());
            if pa.is_prefix_of(&pb) && pb.is_prefix_of(&pa) {
                ensure_eq!(pa, pb);
            }
            Ok(())
        }
    );
}

#[test]
fn display_of_values_never_panics() {
    forall!(|rng| { let (t, v) = typed_value(rng, 3); Typed(t, v) }, |Typed(_, v)| {
        let _ = v.to_string();
        Ok(())
    });
}

/// A key drawn from a tiny pool so matches are common: `Int(1)` and
/// `Str("1")` are both in it and must never match each other.
fn small_key(rng: &mut Rng) -> ObjectKey {
    if rng.gen_bool(0.5) {
        ObjectKey::Int(rng.gen_range(0i64..3))
    } else {
        ObjectKey::Str(["0", "1", "a"][rng.gen_range(0usize..3)].to_string())
    }
}

/// A candidate key field: usually a keyable atom, sometimes a value that
/// carries no key at all.
fn key_field(rng: &mut Rng) -> Value {
    match pick_weighted(rng, &[3, 3, 1, 1]) {
        0 => Value::Int(rng.gen_range(0i64..3)),
        1 => Value::str(["0", "1", "a"][rng.gen_range(0usize..3)]),
        2 => Value::Real(1.0),
        _ => Value::Bool(true),
    }
}

/// Generator: an element type and an element built with the value
/// builders — atoms, keyed tuples (`_id` convention or an explicit key
/// flag), keyless tuples, tuples missing their key field, containers, and
/// values of the wrong shape for their type.
fn keyed_element(rng: &mut Rng) -> (AttrType, Value) {
    match rng.gen_range(0u32..8) {
        0 => (ty::str_(), key_field(rng)),
        1 => (ty::int_(), key_field(rng)),
        2 => (
            ty::tuple(vec![ty::attr("x_id", ty::str_()), ty::attr("v", ty::int_())]),
            val::tup(vec![("x_id", key_field(rng)), ("v", Value::Int(0))]),
        ),
        3 => (
            ty::tuple(vec![ty::attr("v", ty::real_()), Attribute::key("n", ty::int_())]),
            val::tup(vec![("v", Value::Real(0.5)), ("n", key_field(rng))]),
        ),
        4 => (
            ty::tuple(vec![ty::attr("name", ty::str_())]),
            val::tup(vec![("name", key_field(rng))]),
        ),
        5 => (
            ty::tuple(vec![ty::attr("x_id", ty::str_()), ty::attr("v", ty::int_())]),
            val::tup(vec![("v", key_field(rng))]),
        ),
        6 => (ty::set(ty::str_()), val::set(vec![key_field(rng)])),
        _ => (
            ty::tuple(vec![ty::attr("x_id", ty::int_())]),
            key_field(rng),
        ),
    }
}

#[derive(Debug, Clone)]
struct KeyCase(AttrType, Value, ObjectKey);

colock_testkit::no_shrink!(KeyCase);

#[test]
fn has_element_key_agrees_with_element_key() {
    forall!(
        |rng| {
            let (t, v) = keyed_element(rng);
            KeyCase(t, v, small_key(rng))
        },
        |KeyCase(t, v, k)| {
            ensure_eq!(
                v.has_element_key(t, k),
                v.element_key(t).as_ref() == Some(k),
                "{v} : {t} vs {k:?}"
            );
            // The value's own key, when it has one, always matches.
            if let Some(own) = v.element_key(t) {
                ensure!(v.has_element_key(t, &own));
            }
            Ok(())
        }
    );
}

#[test]
fn int_and_str_keys_never_match() {
    let t = ty::tuple(vec![ty::attr("x_id", ty::str_())]);
    let v = val::tup(vec![("x_id", Value::str("1"))]);
    assert!(v.has_element_key(&t, &ObjectKey::Str("1".into())));
    assert!(!v.has_element_key(&t, &ObjectKey::Int(1)));
    assert!(!Value::Int(1).has_element_key(&ty::int_(), &ObjectKey::Str("1".into())));
    assert!(Value::Int(1).has_element_key(&ty::int_(), &ObjectKey::Int(1)));
    // A tuple without a key attribute has no element key at all.
    let keyless = ty::tuple(vec![ty::attr("name", ty::str_())]);
    let v = val::tup(vec![("name", Value::str("1"))]);
    assert!(!v.has_element_key(&keyless, &ObjectKey::Str("1".into())));
}
