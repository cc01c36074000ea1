//! Byte-wise FNV-1a 64.
//!
//! Each byte is XORed into the state, which is then multiplied by the FNV
//! prime. A `u64` word is fed as its eight little-endian bytes, so a digest
//! over `f64::to_bits` values is the same on every host. Digests are built
//! by threading the state: `word(word(OFFSET, a), b)`.

/// The FNV-1a 64 offset basis: the digest of no bytes.
pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into the state `h`.
pub fn bytes(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(PRIME))
}

/// Fold the word `x` into the state `h` as its little-endian bytes.
pub fn word(h: u64, x: u64) -> u64 {
    bytes(h, &x.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_fnv1a_64_vectors() {
        assert_eq!(bytes(OFFSET, b""), 0xcbf29ce484222325);
        assert_eq!(bytes(OFFSET, b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(bytes(OFFSET, b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn a_word_is_its_little_endian_bytes() {
        let x = 0x0123_4567_89ab_cdef;
        assert_eq!(
            word(OFFSET, x),
            bytes(OFFSET, &[0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01])
        );
    }
}
