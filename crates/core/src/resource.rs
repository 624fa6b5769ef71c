//! Lockable resources: hierarchical instance paths.
//!
//! The paper's lockable units are *instances* of lock-graph nodes: Fig. 7
//! locks "cell c1", "robot r1", "effector e2" — concrete subobjects, not
//! schema nodes. We identify such an instance by the path from the database
//! root down to it: database, segment, relation, complex object (by key),
//! then alternating attribute steps (naming HoLU/HeLU/BLU schema nodes) and
//! element steps (naming set/list elements by their key).
//!
//! `ResourcePath` is the key type of the lock table; every prefix of a path
//! is itself a lockable ancestor, which makes the root-to-leaf lock chains of
//! the protocol (rule 5) a simple prefix walk. A path is a length-limited
//! view of shared steps plus the cached hash of that prefix, so ancestors and
//! clones never copy a step, and hashing a key costs one `u64` write.

use colock_lockmgr::FastHasher;
use colock_nf2::ObjectKey;
use colock_testkit::codec::{CodecError, FieldCodec};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// One step of an instance path.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PathStep {
    /// The database node.
    Database(String),
    /// A segment of the database.
    Segment(String),
    /// A relation within a segment.
    Relation(String),
    /// A complex object of the relation, by key.
    Object(ObjectKey),
    /// An attribute node (HoLU/HeLU/BLU) within the current (sub)tuple.
    Attr(String),
    /// An element of a set/list, by element key.
    Elem(ObjectKey),
}

impl fmt::Display for PathStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathStep::Database(s) => write!(f, "db:{s}"),
            PathStep::Segment(s) => write!(f, "seg:{s}"),
            PathStep::Relation(s) => write!(f, "rel:{s}"),
            PathStep::Object(k) => write!(f, "obj:{k}"),
            PathStep::Attr(s) => write!(f, "{s}"),
            PathStep::Elem(k) => write!(f, "[{k}]"),
        }
    }
}

/// A hierarchical instance path identifying one lockable unit.
///
/// The first `len` entries of `steps` are the path; `steps` may be shared
/// with longer paths this one is a prefix of. `hash` is `fold_hash` folded
/// over those `len` steps — a pure function of the steps, so equal paths
/// hash equal whatever storage they share. Equality, ordering and every
/// rendering look only at the steps.
#[derive(Clone)]
pub struct ResourcePath {
    steps: Arc<[PathStep]>,
    len: usize,
    hash: u64,
}

impl PartialEq for ResourcePath {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self.hash == other.hash
            && (Arc::ptr_eq(&self.steps, &other.steps) || self.steps() == other.steps())
    }
}

impl Eq for ResourcePath {}

impl Hash for ResourcePath {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl Ord for ResourcePath {
    fn cmp(&self, other: &Self) -> Ordering {
        self.steps().cmp(other.steps())
    }
}

impl PartialOrd for ResourcePath {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// `Debug` delegates to `Display` (`db:db1/seg:seg1/rel:cells/...`): the
/// lock table formats resource keys with `{:?}` in diagnostics and trace
/// events, and the path syntax is the readable form.
impl fmt::Debug for ResourcePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl ResourcePath {
    /// The path hash after `step`, given the hash of the steps before it
    /// (`0` for the empty prefix). Folding it over a path's steps yields the
    /// path's hash, and every prefix hash along the way.
    fn fold_hash(prefix: u64, step: &PathStep) -> u64 {
        let mut h = FastHasher::default();
        h.write_u64(prefix);
        step.hash(&mut h);
        h.finish()
    }

    /// The prefix of the first `len` steps, sharing this path's storage.
    fn prefix(&self, len: usize) -> ResourcePath {
        let hash = self.steps[..len].iter().fold(0, Self::fold_hash);
        ResourcePath { steps: Arc::clone(&self.steps), len, hash }
    }

    /// The database root resource.
    pub fn database(name: impl Into<String>) -> Self {
        Self::from_steps(vec![PathStep::Database(name.into())])
    }

    /// Builds a path from raw steps (must start with `Database`).
    pub fn from_steps(steps: Vec<PathStep>) -> Self {
        debug_assert!(matches!(steps.first(), Some(PathStep::Database(_))));
        let hash = steps.iter().fold(0, Self::fold_hash);
        ResourcePath { len: steps.len(), steps: steps.into(), hash }
    }

    /// The steps of this path.
    pub fn steps(&self) -> &[PathStep] {
        &self.steps[..self.len]
    }

    /// Extends by one step.
    pub fn child(&self, step: PathStep) -> Self {
        let hash = Self::fold_hash(self.hash, &step);
        let mut steps = Vec::with_capacity(self.len + 1);
        steps.extend_from_slice(self.steps());
        steps.push(step);
        ResourcePath { len: steps.len(), steps: steps.into(), hash }
    }

    /// Convenience: segment child.
    pub fn segment(&self, name: impl Into<String>) -> Self {
        self.child(PathStep::Segment(name.into()))
    }

    /// Convenience: relation child.
    pub fn relation(&self, name: impl Into<String>) -> Self {
        self.child(PathStep::Relation(name.into()))
    }

    /// Convenience: complex-object child.
    pub fn object(&self, key: impl Into<ObjectKey>) -> Self {
        self.child(PathStep::Object(key.into()))
    }

    /// Convenience: attribute child.
    pub fn attr(&self, name: impl Into<String>) -> Self {
        self.child(PathStep::Attr(name.into()))
    }

    /// Convenience: element child.
    pub fn elem(&self, key: impl Into<ObjectKey>) -> Self {
        self.child(PathStep::Elem(key.into()))
    }

    /// The parent resource (one step shorter), or `None` at the database.
    pub fn parent(&self) -> Option<ResourcePath> {
        (self.len > 1).then(|| self.prefix(self.len - 1))
    }

    /// All proper ancestors, root first (database, segment, …). They share
    /// this path's storage; their hashes come from one fold over the steps.
    pub fn ancestors(&self) -> Vec<ResourcePath> {
        let mut hash = 0;
        self.steps()[..self.len - 1]
            .iter()
            .enumerate()
            .map(|(i, step)| {
                hash = Self::fold_hash(hash, step);
                ResourcePath { steps: Arc::clone(&self.steps), len: i + 1, hash }
            })
            .collect()
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Never empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `true` if `self` is a (non-strict) prefix of `other`.
    pub fn is_prefix_of(&self, other: &ResourcePath) -> bool {
        other.len >= self.len
            && (Arc::ptr_eq(&self.steps, &other.steps)
                || self.steps() == &other.steps()[..self.len])
    }

    /// The relation name on this path, if the path descends into one.
    pub fn relation_name(&self) -> Option<&str> {
        self.steps().iter().find_map(|s| match s {
            PathStep::Relation(r) => Some(r.as_str()),
            _ => None,
        })
    }

    /// The complex-object key on this path, if any.
    pub fn object_key(&self) -> Option<&ObjectKey> {
        self.steps().iter().find_map(|s| match s {
            PathStep::Object(k) => Some(k),
            _ => None,
        })
    }

    /// The prefix of this path ending at the complex-object step, if present.
    pub fn object_prefix(&self) -> Option<ResourcePath> {
        let idx = self.steps().iter().position(|s| matches!(s, PathStep::Object(_)))?;
        Some(self.prefix(idx + 1))
    }

    /// The attribute steps after the complex-object step (schema path within
    /// the object, ignoring element keys).
    pub fn attr_steps(&self) -> Vec<&str> {
        let mut out = Vec::new();
        let mut past_object = false;
        for s in self.steps() {
            match s {
                PathStep::Object(_) => past_object = true,
                PathStep::Attr(a) if past_object => out.push(a.as_str()),
                _ => {}
            }
        }
        out
    }
}

impl fmt::Display for ResourcePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.steps().iter().enumerate() {
            if i > 0 {
                f.write_str("/")?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

// ----- persistence ----------------------------------------------------------
//
// The long-lock journal (`colock-lockmgr`'s `persistent` module) needs the
// lock table's key type to round-trip through a single record field. The
// encoding is the `Display` syntax made unambiguous: each step gets an
// explicit tag (`attr` steps print bare in `Display`), integer object keys
// are tagged `#` so `Str("42")` and `Int(42)` stay distinct, and `%` / `/`
// inside names are percent-escaped so the step separator can never be
// forged by data.

/// Escapes `%` and `/` in a step name for the persisted path syntax.
fn escape_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        match c {
            '%' => out.push_str("%25"),
            '/' => out.push_str("%2F"),
            other => out.push(other),
        }
    }
    out
}

/// Reverses [`escape_name`].
fn unescape_name(text: &str) -> Result<String, CodecError> {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let pair: String = chars.by_ref().take(2).collect();
        match pair.as_str() {
            "25" => out.push('%'),
            "2F" | "2f" => out.push('/'),
            _ => {
                return Err(CodecError::BadField {
                    field: text.to_string(),
                    expected: "percent-escaped path name",
                })
            }
        }
    }
    Ok(out)
}

fn key_field(tag: &str, key: &ObjectKey) -> String {
    match key {
        ObjectKey::Str(s) => format!("{tag}:{}", escape_name(s)),
        ObjectKey::Int(i) => format!("{tag}#{i}"),
    }
}

fn step_field(step: &PathStep) -> String {
    match step {
        PathStep::Database(s) => format!("db:{}", escape_name(s)),
        PathStep::Segment(s) => format!("seg:{}", escape_name(s)),
        PathStep::Relation(s) => format!("rel:{}", escape_name(s)),
        PathStep::Attr(s) => format!("attr:{}", escape_name(s)),
        PathStep::Object(k) => key_field("obj", k),
        PathStep::Elem(k) => key_field("elem", k),
    }
}

fn parse_step(seg: &str) -> Result<PathStep, CodecError> {
    let bad = || CodecError::BadField { field: seg.to_string(), expected: "resource path step" };
    if let Some(rest) = seg.strip_prefix("db:") {
        return Ok(PathStep::Database(unescape_name(rest)?));
    }
    if let Some(rest) = seg.strip_prefix("seg:") {
        return Ok(PathStep::Segment(unescape_name(rest)?));
    }
    if let Some(rest) = seg.strip_prefix("rel:") {
        return Ok(PathStep::Relation(unescape_name(rest)?));
    }
    if let Some(rest) = seg.strip_prefix("attr:") {
        return Ok(PathStep::Attr(unescape_name(rest)?));
    }
    if let Some(rest) = seg.strip_prefix("obj#") {
        return rest.parse().map(|i| PathStep::Object(ObjectKey::Int(i))).map_err(|_| bad());
    }
    if let Some(rest) = seg.strip_prefix("obj:") {
        return Ok(PathStep::Object(ObjectKey::Str(unescape_name(rest)?)));
    }
    if let Some(rest) = seg.strip_prefix("elem#") {
        return rest.parse().map(|i| PathStep::Elem(ObjectKey::Int(i))).map_err(|_| bad());
    }
    if let Some(rest) = seg.strip_prefix("elem:") {
        return Ok(PathStep::Elem(ObjectKey::Str(unescape_name(rest)?)));
    }
    Err(bad())
}

impl FieldCodec for ResourcePath {
    fn to_field(&self) -> String {
        self.steps().iter().map(step_field).collect::<Vec<_>>().join("/")
    }

    fn from_field(field: &str) -> Result<Self, CodecError> {
        let steps: Vec<PathStep> =
            field.split('/').map(parse_step).collect::<Result<_, _>>()?;
        if !matches!(steps.first(), Some(PathStep::Database(_))) {
            return Err(CodecError::BadField {
                field: field.to_string(),
                expected: "resource path starting at db:",
            });
        }
        Ok(ResourcePath::from_steps(steps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn robot_r1() -> ResourcePath {
        ResourcePath::database("db1")
            .segment("seg1")
            .relation("cells")
            .object("c1")
            .attr("robots")
            .elem("r1")
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(robot_r1().to_string(), "db:db1/seg:seg1/rel:cells/obj:c1/robots/[r1]");
    }

    #[test]
    fn ancestors_are_all_prefixes_root_first() {
        let p = robot_r1();
        let anc = p.ancestors();
        assert_eq!(anc.len(), 5);
        assert_eq!(anc[0], ResourcePath::database("db1"));
        assert_eq!(anc[4], p.parent().unwrap());
        for a in &anc {
            assert!(a.is_prefix_of(&p));
            assert!(!p.is_prefix_of(a));
        }
    }

    #[test]
    fn relation_and_object_extraction() {
        let p = robot_r1();
        assert_eq!(p.relation_name(), Some("cells"));
        assert_eq!(p.object_key(), Some(&ObjectKey::Str("c1".into())));
        assert_eq!(
            p.object_prefix().unwrap().to_string(),
            "db:db1/seg:seg1/rel:cells/obj:c1"
        );
        assert_eq!(p.attr_steps(), vec!["robots"]);
    }

    #[test]
    fn database_has_no_parent() {
        assert!(ResourcePath::database("db1").parent().is_none());
        assert!(ResourcePath::database("db1").ancestors().is_empty());
    }

    #[test]
    fn paths_are_value_types() {
        let a = robot_r1();
        let b = robot_r1();
        assert_eq!(a, b);
        let c = a.child(PathStep::Attr("trajectory".into()));
        assert_ne!(a, c);
        assert!(a.is_prefix_of(&c));
        assert_eq!(c.attr_steps(), vec!["robots", "trajectory"]);
    }

    #[test]
    fn field_codec_roundtrips_typical_paths() {
        for p in [
            ResourcePath::database("db1"),
            robot_r1(),
            robot_r1().attr("trajectory"),
            ResourcePath::database("db1").segment("seg1").relation("lib").object(ObjectKey::Int(42)),
        ] {
            let field = p.to_field();
            assert_eq!(ResourcePath::from_field(&field).unwrap(), p, "{field}");
        }
    }

    #[test]
    fn field_codec_distinguishes_int_and_string_keys() {
        let base = ResourcePath::database("db1").segment("s").relation("r");
        let by_int = base.object(ObjectKey::Int(42));
        let by_str = base.object(ObjectKey::Str("42".into()));
        assert_ne!(by_int, by_str);
        assert_ne!(by_int.to_field(), by_str.to_field());
        assert_eq!(ResourcePath::from_field(&by_int.to_field()).unwrap(), by_int);
        assert_eq!(ResourcePath::from_field(&by_str.to_field()).unwrap(), by_str);
    }

    #[test]
    fn field_codec_escapes_separators_in_names() {
        let nasty = ResourcePath::database("d%b")
            .segment("se/g")
            .relation("r%2Fel")
            .object("k/e%y")
            .attr("a/t%tr");
        let field = nasty.to_field();
        assert_eq!(ResourcePath::from_field(&field).unwrap(), nasty, "{field}");
    }

    #[test]
    fn field_codec_rejects_garbage() {
        for bad in [
            "",
            "seg:s/db:d",             // does not start at the database
            "db:d/unknown:x",         // unknown step tag
            "db:d/obj#notanint",      // int tag with non-int key
            "db:d/seg:a%GGb",         // malformed percent escape
            "db:d/seg:trunc%2",       // truncated percent escape
        ] {
            assert!(ResourcePath::from_field(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn elem_keys_distinguish_resources() {
        let r1 = robot_r1();
        let r2 = ResourcePath::database("db1")
            .segment("seg1")
            .relation("cells")
            .object("c1")
            .attr("robots")
            .elem("r2");
        assert_ne!(r1, r2);
        assert_eq!(r1.parent(), r2.parent());
    }
}
