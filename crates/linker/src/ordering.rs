//! Symbol ordering files.

use std::collections::HashMap;
use std::sync::Arc;

/// The global layout directive: an ordered list of text-section symbols
/// (the `ld_prof.txt` of Figure 1).
///
/// Sections whose defining symbol appears in the list are placed first,
/// in list order; all remaining text sections follow in input order.
/// This mirrors `--symbol-ordering-file` in LLD.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SymbolOrdering {
    names: Vec<Arc<str>>,
    index: HashMap<Arc<str>, usize>,
}

impl SymbolOrdering {
    /// Builds an ordering from symbol names; later duplicates are
    /// ignored, matching linker behavior.
    pub fn new(names: impl IntoIterator<Item = impl Into<Arc<str>>>) -> Self {
        let mut ordering = SymbolOrdering::default();
        for n in names {
            ordering.push(n.into());
        }
        ordering
    }

    /// Appends one symbol (ignored if already present).
    pub fn push(&mut self, name: Arc<str>) {
        if !self.index.contains_key(&name) {
            self.index.insert(name.clone(), self.names.len());
            self.names.push(name);
        }
    }

    /// The rank of `name`, if listed.
    pub fn rank(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Number of listed symbols.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the ordering lists no symbols.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The ordered names.
    pub fn names(&self) -> &[Arc<str>] {
        &self.names
    }

    /// Serializes to the on-disk ordering-file format (one symbol per
    /// line).
    pub fn to_file_contents(&self) -> String {
        let mut s = self.names.join("\n");
        s.push('\n');
        s
    }
}

impl<S: Into<Arc<str>>> FromIterator<S> for SymbolOrdering {
    fn from_iter<T: IntoIterator<Item = S>>(iter: T) -> Self {
        Self::new(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_follow_insertion() {
        let o = SymbolOrdering::new(["b", "a", "b"]);
        assert_eq!(o.len(), 2);
        assert_eq!(o.rank("b"), Some(0));
        assert_eq!(o.rank("a"), Some(1));
        assert_eq!(o.rank("zzz"), None);
    }

    /// The parser this type once had was the only check of these
    /// bytes; `ld_prof.txt` is a CI artifact, so they are pinned by hand.
    #[test]
    fn file_contents_bytes_are_pinned() {
        let o = SymbolOrdering::new(["main", "helper.1", "helper.cold"]);
        assert_eq!(o.to_file_contents(), "main\nhelper.1\nhelper.cold\n");
        assert_eq!(SymbolOrdering::default().to_file_contents(), "\n");
    }

    #[test]
    fn collects_from_iterator() {
        let o: SymbolOrdering = ["x".to_string(), "y".to_string()].into_iter().collect();
        assert_eq!(o.len(), 2);
        assert!(!o.is_empty());
    }
}
