//! Content hashing for the build system's content-addressed cache.

use std::fmt;

/// A 64-bit FNV-1a content hash.
///
/// The distributed build system caches artifacts by the hash of their
/// contents (and actions by the hash of their inputs); 64 bits of FNV is
/// plenty for a simulation and keeps the implementation dependency-free.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ContentHash(pub u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl ContentHash {
    /// Hashes a byte slice.
    pub fn of_bytes(bytes: &[u8]) -> Self {
        Self::of_parts([bytes])
    }

    /// Combines this hash with another, order-sensitively.
    pub fn combine(self, other: ContentHash) -> Self {
        let mut h = ContentHasher(self.0);
        h.write(&other.0.to_le_bytes());
        h.finish()
    }

    /// Hashes an iterator of byte slices as if concatenated.
    pub fn of_parts<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> Self {
        let mut h = ContentHasher::default();
        for part in parts {
            h.write(part);
        }
        h.finish()
    }
}

/// A running FNV-1a state: bytes go in in any number of pieces, and
/// [`finish`](ContentHasher::finish) is the [`ContentHash`] of their
/// concatenation — for content that would otherwise have to be copied
/// into one buffer just to be hashed.
#[derive(Copy, Clone, Debug)]
pub struct ContentHasher(u64);

impl Default for ContentHasher {
    fn default() -> Self {
        ContentHasher(FNV_OFFSET)
    }
}

impl ContentHasher {
    /// Feeds the next bytes.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// The hash of everything written so far.
    #[inline]
    pub fn finish(self) -> ContentHash {
        ContentHash(self.0)
    }
}

impl fmt::Display for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl fmt::LowerHex for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_content_sensitive() {
        let a = ContentHash::of_bytes(b"hello");
        let b = ContentHash::of_bytes(b"hello");
        let c = ContentHash::of_bytes(b"hellp");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn parts_equal_concatenation() {
        let whole = ContentHash::of_bytes(b"abcdef");
        let parts = ContentHash::of_parts([b"abc".as_slice(), b"def".as_slice()]);
        assert_eq!(whole, parts);
    }

    #[test]
    fn streamed_pieces_equal_the_whole_and_known_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(ContentHash::of_bytes(b"").0, 0xcbf2_9ce4_8422_2325);
        assert_eq!(ContentHash::of_bytes(b"a").0, 0xaf63_dc4c_8601_ec8c);
        assert_eq!(ContentHash::of_bytes(b"foobar").0, 0x8594_4171_f739_67e8);
        let mut h = ContentHasher::default();
        for piece in [b"fo".as_slice(), b"", b"oba", b"r"] {
            h.write(piece);
        }
        assert_eq!(h.finish(), ContentHash::of_bytes(b"foobar"));
        // `combine` continues the state with the other hash's bytes.
        let (a, b) = (ContentHash::of_bytes(b"a"), ContentHash::of_bytes(b"b"));
        let mut h = ContentHasher::default();
        h.write(b"a");
        h.write(&b.0.to_le_bytes());
        assert_eq!(a.combine(b), h.finish());
    }

    #[test]
    fn combine_is_order_sensitive() {
        let a = ContentHash::of_bytes(b"a");
        let b = ContentHash::of_bytes(b"b");
        assert_ne!(a.combine(b), b.combine(a));
    }

    #[test]
    fn display_is_fixed_width_hex() {
        let s = ContentHash::of_bytes(b"x").to_string();
        assert_eq!(s.len(), 16);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
