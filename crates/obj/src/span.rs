//! Typed spans over flat tables.
//!
//! Every per-item table of the toolchain — an object's section contents,
//! the address map's ranges and entries, codegen's layout side table,
//! the linker's per-section targets and branch sites — is headers over
//! one flat array. A header holds a [`Span<T>`] of the [`Table<T>`] it
//! was built with; the span indexes only a `[T]`, so a span of one
//! array cannot slice another of a different item type.
//!
//! A table grows only by appending, and [`Table::close`] is the only
//! way to make a span: it covers everything appended since the previous
//! close. Nothing shortens a table but [`Table::clear`], so the spans
//! one table hands out tile it in order, and none reaches past its end.

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut, Index, IndexMut, Range};

/// A run of consecutive items of a `[T]`: two `u32` indices, no larger
/// than a plain range of them.
///
/// Only [`Table::close`] makes one (besides [`Span::default`], the empty
/// span at the start of any table), and it indexes only a slice of its
/// own item type: a section's bytes span cannot slice its object's
/// relocations.
///
/// ```
/// use propeller_obj::{ObjectFile, Section, SectionKind};
///
/// let mut obj = ObjectFile::new("a.o");
/// obj.content_mut().0.extend_from_slice(&[0x90; 4]);
/// obj.push_section(Section::new(".text.a", SectionKind::Text));
/// let text = obj.sections()[0].clone();
/// let (bytes, relocs) = obj.content_mut();
/// assert_eq!(bytes[text.bytes], [0x90; 4]);
/// assert!(relocs[text.relocs].is_empty());
/// ```
///
/// ```compile_fail
/// use propeller_obj::{ObjectFile, Section, SectionKind};
///
/// let mut obj = ObjectFile::new("a.o");
/// obj.content_mut().0.extend_from_slice(&[0x90; 4]);
/// obj.push_section(Section::new(".text.a", SectionKind::Text));
/// let text = obj.sections()[0].clone();
/// let (_, relocs) = obj.content_mut();
/// let _ = &relocs[text.bytes]; // a bytes span slicing the relocations
/// ```
pub struct Span<T> {
    start: u32,
    end: u32,
    item: PhantomData<fn() -> T>,
}

impl<T> Span<T> {
    /// Number of items the span covers.
    pub fn len(self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the span covers no item.
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }

    /// The span as indices into its table.
    pub fn range(self) -> Range<usize> {
        self.start as usize..self.end as usize
    }
}

impl<T> Clone for Span<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Span<T> {}

impl<T> PartialEq for Span<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.start, self.end) == (other.start, other.end)
    }
}

impl<T> Eq for Span<T> {}

impl<T> Default for Span<T> {
    fn default() -> Self {
        Span {
            start: 0,
            end: 0,
            item: PhantomData,
        }
    }
}

/// Printed as the range `start..end`.
impl<T> fmt::Debug for Span<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (self.start..self.end).fmt(f)
    }
}

impl<T> Index<Span<T>> for [T] {
    type Output = [T];

    fn index(&self, span: Span<T>) -> &[T] {
        &self[span.range()]
    }
}

impl<T> IndexMut<Span<T>> for [T] {
    fn index_mut(&mut self, span: Span<T>) -> &mut [T] {
        &mut self[span.range()]
    }
}

/// An array built by appending, whose spans come from [`Table::close`].
///
/// It reads, and its items can be changed in place, as a `[T]`; it
/// cannot be shortened except by [`Table::clear`], so the content of a
/// closed span cannot be cut short.
#[derive(Clone, PartialEq, Eq)]
pub struct Table<T> {
    items: Vec<T>,
    /// Where the next span starts: the end of the last one closed.
    closed: u32,
}

impl<T> Table<T> {
    /// An empty table with room for `capacity` items: a writer that
    /// knows its size up front fills it without reallocating.
    pub fn with_capacity(capacity: usize) -> Self {
        Table {
            items: Vec::with_capacity(capacity),
            closed: 0,
        }
    }

    /// Appends `item` to the open span.
    pub fn push(&mut self, item: T) {
        self.items.push(item);
    }

    /// Closes the items appended since the last close into a span,
    /// which starts where the previous one ended.
    ///
    /// # Panics
    ///
    /// Panics if the table holds 2³² items or more.
    pub fn close(&mut self) -> Span<T> {
        let span = self.mark();
        self.closed = span.end;
        span
    }

    /// Empties the table, keeping its capacity. Every span it handed out
    /// is void.
    pub fn clear(&mut self) {
        self.items.clear();
        self.closed = 0;
    }

    /// Where the table stands: the span still open, of what was
    /// appended since the last close.
    pub(crate) fn mark(&self) -> Span<T> {
        Span {
            start: self.closed,
            end: u32::try_from(self.items.len()).expect("a table holds fewer than 2^32 items"),
            item: PhantomData,
        }
    }

    /// Returns the table to `mark`: what was appended, and closed, since
    /// it was taken is dropped.
    pub(crate) fn rollback(&mut self, mark: Span<T>) {
        self.items.truncate(mark.end as usize);
        self.closed = mark.start;
    }
}

impl<T: Clone> Table<T> {
    /// Appends `items` to the open span.
    pub fn extend_from_slice(&mut self, items: &[T]) {
        self.items.extend_from_slice(items);
    }
}

impl<T> Extend<T> for Table<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        self.items.extend(iter);
    }
}

impl<T> Default for Table<T> {
    fn default() -> Self {
        Table::with_capacity(0)
    }
}

impl<T> Deref for Table<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items
    }
}

impl<T> DerefMut for Table<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.items
    }
}

/// Printed as the array.
impl<T: fmt::Debug> fmt::Debug for Table<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.items.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closing_with_nothing_appended_is_empty() {
        let mut t = Table::<u8>::default();
        let span = t.close();
        assert!(span.is_empty());
        assert_eq!(span, Span::default());
        t.extend_from_slice(&[1, 2]);
        t.close();
        let span = t.close();
        assert_eq!((span.len(), span.range()), (0, 2..2));
        assert!(t[span].is_empty());
    }

    #[test]
    fn consecutive_closes_are_adjacent_and_tile_the_table() {
        let mut t = Table::default();
        let mut at = 0;
        for n in [3, 0, 1, 4] {
            t.extend(0..n);
            let span = t.close();
            assert_eq!(span.range(), at..at + n as usize);
            assert_eq!(t[span], (0..n).collect::<Vec<_>>());
            at = span.range().end;
        }
        assert_eq!(at, t.len());
    }

    #[test]
    fn rollback_returns_to_the_mark() {
        let mut t = Table::default();
        t.push('a');
        let a = t.close();
        t.push('b');
        let mark = t.mark();
        t.push('c');
        t.close();
        t.push('d');
        t.rollback(mark);
        assert_eq!(*t, ['a', 'b']);
        assert_eq!(t.close().range(), 1..2);
        assert_eq!(t[a], ['a']);
    }

    #[test]
    fn debug_prints_the_range_and_the_array() {
        let mut t = Table::default();
        t.extend_from_slice(&[7u8, 8]);
        let span = t.close();
        assert_eq!(format!("{span:?} {t:?}"), "0..2 [7, 8]");
    }
}
