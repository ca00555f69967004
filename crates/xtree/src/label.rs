//! Interned node labels.
//!
//! The paper draws labels from an infinite domain `L`; concretely we intern
//! strings into `u32` handles through a global interner so that label
//! comparison, hashing and automata alphabets work on plain integers.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// An interned label. Two labels are equal iff their underlying strings are.
///
/// ```
/// use xuc_xtree::Label;
/// let a = Label::new("patient");
/// let b = Label::new("patient");
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "patient");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Label(u32);

/// Name → id, for [`Label::new`]. The reverse table is [`NAMES`].
fn index() -> &'static RwLock<HashMap<&'static str, u32>> {
    static INDEX: OnceLock<RwLock<HashMap<&'static str, u32>>> = OnceLock::new();
    INDEX.get_or_init(|| RwLock::new(HashMap::new()))
}

/// A label's name and the FNV-1a-64 of its bytes, stored once when the
/// label is interned so that hashing a label reads a word, not a string.
#[derive(Debug)]
struct Name {
    text: &'static str,
    fnv: u64,
}

/// FNV-1a-64 over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// One segment of the id → name table.
type Segment = OnceLock<Box<[OnceLock<Name>]>>;

/// Segments of the id → name table: segment `k` holds ids
/// `2^k - 1 .. 2^(k+1) - 1`, so 33 segments cover every `u32` id. The
/// table is append-only and a segment never moves once allocated, so
/// readers index it without a lock; only [`Label::new`], under the
/// index's write lock, fills it.
static NAMES: [Segment; 33] = [const { OnceLock::new() }; 33];

/// The segment and offset of `id` in [`NAMES`].
#[inline]
fn slot(id: u32) -> (usize, usize) {
    let n = u64::from(id) + 1;
    let segment = n.ilog2() as usize;
    (segment, (n - (1 << segment)) as usize)
}

impl Label {
    /// Interns `name` and returns its label handle.
    pub fn new(name: &str) -> Self {
        if let Some(&id) = index().read().get(name) {
            return Label(id);
        }
        let mut index = index().write();
        if let Some(&id) = index.get(name) {
            return Label(id);
        }
        // Labels live for the whole process; leaking keeps `as_str` free of
        // locking and allocation on the hot path.
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let id = u32::try_from(index.len()).expect("label interner overflow");
        let (segment, offset) = slot(id);
        let names = NAMES[segment]
            .get_or_init(|| (0..1usize << segment).map(|_| OnceLock::new()).collect());
        // Invariant: ids are handed out once each, under this lock.
        let name = Name { text: leaked, fnv: fnv1a(leaked.as_bytes()) };
        names[offset].set(name).expect("fresh label id");
        index.insert(leaked, id);
        Label(id)
    }

    /// The interned string: two lock-free loads.
    pub fn as_str(self) -> &'static str {
        self.name().text
    }

    /// The FNV-1a-64 of the label's bytes, computed once at interning:
    /// two lock-free loads, no string bytes read.
    #[inline]
    pub fn fnv(self) -> u64 {
        self.name().fnv
    }

    #[inline]
    fn name(self) -> &'static Name {
        let (segment, offset) = slot(self.0);
        // Invariant: a `Label` is minted only after its name is stored.
        NAMES[segment].get().and_then(|names| names[offset].get()).expect("interned label")
    }

    /// A stable integer handle, usable as an automaton alphabet symbol.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// The conventional "fresh" label `z` used throughout the paper's proofs
    /// for nodes whose label must not interact with any constraint.
    pub fn z() -> Self {
        Label::new("z")
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl From<&str> for Label {
    fn from(s: &str) -> Self {
        Label::new(s)
    }
}

#[cfg(feature = "serde")]
impl serde::Serialize for Label {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(self.as_str())
    }
}

#[cfg(feature = "serde")]
impl<'de> serde::Deserialize<'de> for Label {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let s = String::deserialize(d)?;
        Ok(Label::new(&s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let a = Label::new("a");
        let b = Label::new("b");
        let a2 = Label::new("a");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a.raw(), a2.raw());
        assert_eq!(a.as_str(), "a");
        assert_eq!(b.as_str(), "b");
    }

    #[test]
    fn display_prints_name() {
        assert_eq!(format!("{}", Label::new("visit")), "visit");
        assert_eq!(format!("{:?}", Label::new("visit")), "visit");
    }

    #[test]
    fn z_label_is_z() {
        assert_eq!(Label::z().as_str(), "z");
    }

    #[test]
    fn concurrent_interning_agrees_and_reads_back() {
        let threads: Vec<_> = (1..=4)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..2_000)
                        .map(|i| {
                            let name = format!("concurrent{}", (i * t) % 1_500);
                            let label = Label::new(&name);
                            assert_eq!(label.as_str(), name);
                            (name, label)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for (name, label) in threads.into_iter().flat_map(|h| h.join().unwrap()) {
            assert_eq!(Label::new(&name), label, "{name} interned twice");
            assert_eq!(label.as_str(), name);
        }
    }

    #[test]
    fn the_stored_hash_is_fnv1a_of_the_name() {
        // FNV-1a-64 test vectors: the empty string and "a".
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        let l = Label::new("clinicalTrial");
        assert_eq!(l.fnv(), fnv1a(b"clinicalTrial"));
    }

    #[test]
    fn slots_tile_the_id_space() {
        assert_eq!(slot(0), (0, 0));
        assert_eq!((slot(1), slot(2), slot(3)), ((1, 0), (1, 1), (2, 0)));
        assert_eq!(slot(u32::MAX - 1), (31, (1 << 31) - 1));
        assert_eq!(slot(u32::MAX), (32, 0));
    }

    #[test]
    fn many_labels_distinct() {
        let labels: Vec<Label> = (0..500).map(|i| Label::new(&format!("l{i}"))).collect();
        for (i, a) in labels.iter().enumerate() {
            for (j, b) in labels.iter().enumerate() {
                assert_eq!(i == j, a == b);
            }
        }
    }
}
