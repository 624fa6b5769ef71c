//! Property tests for `ResourcePath` identity: the same path built by every
//! route — raw steps, `.child()` chains, `InstanceTarget::resource`, a prefix
//! of a longer path, a journal-field round trip — is one value. Equality,
//! both hashers, ordering and the prefix test agree with the step slices,
//! whether or not two paths share storage.

use colock_core::{InstanceTarget, PathStep, ResourcePath, TargetStep};
use colock_lockmgr::FastHasher;
use colock_nf2::ObjectKey;
use colock_testkit::codec::FieldCodec;
use colock_testkit::{ensure, ensure_eq, forall, Rng};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Keys drawn from a tiny pool so that equal and look-alike keys
/// (`Int(42)` vs `Str("42")`) meet often.
fn key(rng: &mut Rng) -> ObjectKey {
    match rng.gen_range(0..4u32) {
        0 => ObjectKey::Int(42),
        1 => ObjectKey::Str("42".into()),
        2 => ObjectKey::Int(7),
        _ => ObjectKey::Str("r1".into()),
    }
}

fn name(rng: &mut Rng, pool: &[&str]) -> String {
    rng.choose(pool).expect("non-empty pool").to_string()
}

/// A target-shaped path: database, segment and an instance target.
#[derive(Debug, Clone)]
struct Spec {
    db: String,
    seg: String,
    target: InstanceTarget,
}

colock_testkit::no_shrink!(Spec);

impl Spec {
    fn random(rng: &mut Rng) -> Spec {
        let mut target = InstanceTarget::relation(name(rng, &["cells", "lib"]));
        if rng.gen_bool(0.8) {
            target.object = Some(key(rng));
            for _ in 0..rng.gen_range(0usize..3) {
                let attr = name(rng, &["robots", "trajectory", "42"]);
                let elem = rng.gen_bool(0.5).then(|| key(rng));
                target.steps.push(TargetStep { attr, elem });
            }
        }
        Spec { db: name(rng, &["db", "d/b"]), seg: name(rng, &["s1", "s%2"]), target }
    }

    /// A variant of `self`: equal, a shorter or longer target, or unrelated.
    fn related(&self, rng: &mut Rng) -> Spec {
        let mut other = self.clone();
        match rng.gen_range(0..4u32) {
            0 => {}
            1 if !other.target.steps.is_empty() => {
                other.target.steps.pop();
            }
            1 => other.target.object = None,
            2 if other.target.object.is_some() => {
                other.target.steps.push(TargetStep::elem("robots", key(rng)));
            }
            _ => other = Spec::random(rng),
        }
        other
    }

    /// The expected steps, written out independently of the library.
    fn steps(&self) -> Vec<PathStep> {
        let mut steps = vec![
            PathStep::Database(self.db.clone()),
            PathStep::Segment(self.seg.clone()),
            PathStep::Relation(self.target.relation.clone()),
        ];
        if let Some(k) = &self.target.object {
            steps.push(PathStep::Object(k.clone()));
            for s in &self.target.steps {
                steps.push(PathStep::Attr(s.attr.clone()));
                if let Some(e) = &s.elem {
                    steps.push(PathStep::Elem(e.clone()));
                }
            }
        }
        steps
    }

    /// A longer path whose proper prefix is this one (shared storage).
    fn extended(&self) -> ResourcePath {
        let mut steps = self.steps();
        steps.push(PathStep::Attr("trajectory".into()));
        steps.push(PathStep::Elem(ObjectKey::Int(42)));
        ResourcePath::from_steps(steps)
    }

    /// This path, built every way the library offers.
    fn routes(&self) -> Vec<ResourcePath> {
        let steps = self.steps();
        let n = steps.len();
        let mut chained = ResourcePath::database(self.db.clone());
        for step in &steps[1..] {
            chained = chained.child(step.clone());
        }
        let direct = ResourcePath::from_steps(steps);
        let long = self.extended();
        let mut routes = vec![
            direct.clone(),
            chained,
            self.target.resource(&self.db, &self.seg),
            long.ancestors()[n - 1].clone(),
            long.parent().and_then(|p| p.parent()).expect("two steps longer"),
            ResourcePath::from_field(&direct.to_field()).expect("round trip"),
        ];
        if self.target.object.is_some() && self.target.steps.is_empty() {
            routes.push(long.object_prefix().expect("object step present"));
        }
        routes
    }
}

fn fast_hash(p: &ResourcePath) -> u64 {
    let mut h = FastHasher::default();
    p.hash(&mut h);
    h.finish()
}

fn std_hash(p: &ResourcePath) -> u64 {
    let mut h = DefaultHasher::new();
    p.hash(&mut h);
    h.finish()
}

/// The four identity properties for one pair of paths.
fn check_pair(a: &ResourcePath, b: &ResourcePath) -> Result<(), String> {
    let equal_steps = a.steps() == b.steps();
    ensure_eq!(a == b, equal_steps, "{a} vs {b}");
    if a == b {
        ensure_eq!(fast_hash(a), fast_hash(b), "FastHasher: {a}");
        ensure_eq!(std_hash(a), std_hash(b), "DefaultHasher: {a}");
        ensure_eq!(a.to_string(), b.to_string());
        ensure_eq!(format!("{a:?}"), format!("{b:?}"));
        ensure_eq!(a.to_field(), b.to_field());
    }
    ensure_eq!(a.cmp(b), a.steps().cmp(b.steps()), "{a} vs {b}");
    let stepwise = a.len() <= b.len() && a.steps() == &b.steps()[..a.len()];
    ensure_eq!(a.is_prefix_of(b), stepwise, "{a} prefix of {b}");
    Ok(())
}

#[test]
fn every_route_to_a_path_yields_one_identity() {
    forall!(
        cases: 256,
        |rng| {
            let a = Spec::random(rng);
            let b = a.related(rng);
            (a, b)
        },
        |(a, b)| {
            let routes_a = a.routes();
            ensure!(routes_a[0].steps() == a.steps(), "steps of {}", routes_a[0]);
            for r in &routes_a {
                ensure!(r == &routes_a[0], "route {r} differs from {}", routes_a[0]);
            }
            // Paths of both specs, plus every prefix of one longer path:
            // those share one allocation and differ only in length.
            let long = a.extended();
            let mut all = routes_a;
            all.extend(b.routes());
            all.extend(long.ancestors());
            all.push(long);
            for x in &all {
                for y in &all {
                    check_pair(x, y)?;
                }
            }
            Ok(())
        }
    );
}

#[test]
fn int_and_string_keys_stay_distinct_on_every_route() {
    let int = Spec {
        db: "db".into(),
        seg: "s1".into(),
        target: InstanceTarget::object("lib", ObjectKey::Int(42)).elem("robots", ObjectKey::Int(42)),
    };
    let mut string = int.clone();
    string.target.steps[0].elem = Some(ObjectKey::Str("42".into()));
    for a in int.routes() {
        for b in string.routes() {
            assert_ne!(a, b);
            assert_ne!(a.to_field(), b.to_field());
            check_pair(&a, &b).unwrap();
        }
    }
    // Both render alike for humans; only the journal field tells them apart.
    assert_eq!(int.routes()[0].to_string(), string.routes()[0].to_string());
}

#[test]
fn rendering_is_unchanged() {
    let p = InstanceTarget::object("cells", "c1")
        .elem("robots", "r1")
        .attr("trajectory")
        .resource("db1", "seg1");
    assert_eq!(p.to_string(), "db:db1/seg:seg1/rel:cells/obj:c1/robots/[r1]/trajectory");
    assert_eq!(format!("{p:?}"), p.to_string());
    assert_eq!(
        p.to_field(),
        "db:db1/seg:seg1/rel:cells/obj:c1/attr:robots/elem:r1/attr:trajectory"
    );
    let obj = p.object_prefix().unwrap();
    assert_eq!(obj.to_field(), "db:db1/seg:seg1/rel:cells/obj:c1");
    assert_eq!(
        ResourcePath::database("db1").segment("s").relation("lib").object(ObjectKey::Int(42)).to_field(),
        "db:db1/seg:s/rel:lib/obj#42"
    );
}
