//! Per-point RNG seed derivation.
//!
//! Every experiment point derives its workload seed as
//! `hash(experiment id, point index)`, so seeds are stable under
//! experiment **reordering** (adding, removing, or resequencing
//! experiments never shifts another experiment's seeds) and identical
//! between the serial and parallel execution paths, which both call
//! this one helper.

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Incremental FNV-1a 64-bit hasher. Deliberately **not**
/// `DefaultHasher`: seeds must be stable across Rust versions and runs.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Feeds a length-prefixed byte string (prevents concatenation
    /// ambiguity between adjacent fields).
    fn write_field(&mut self, bytes: &[u8]) -> &mut Self {
        self.write(&(bytes.len() as u64).to_le_bytes());
        self.write(bytes)
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Deterministic seed for point `point` of experiment `experiment`.
///
/// Stable across runs, platforms, and Rust versions (FNV-1a, not
/// `DefaultHasher`).
pub fn point_seed(experiment: &str, point: usize) -> u64 {
    let mut h = Fnv1a::new();
    h.write_field(experiment.as_bytes());
    h.write_field(&(point as u64).to_le_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_vectors() {
        // Well-known FNV-1a 64 test vectors.
        for (input, want) in [
            (&b""[..], 0xcbf29ce484222325),
            (b"a", 0xaf63dc4c8601ec8c),
            (b"foobar", 0x85944171f73967e8),
        ] {
            assert_eq!(Fnv1a::new().write(input).finish(), want);
        }
    }

    #[test]
    fn stable_and_distinct() {
        assert_eq!(point_seed("fig7", 3), point_seed("fig7", 3));
        assert_ne!(point_seed("fig7", 3), point_seed("fig7", 4));
        assert_ne!(point_seed("fig7", 3), point_seed("fig8", 3));
        // Name/index framing cannot collide by concatenation.
        assert_ne!(point_seed("fig1", 0), point_seed("fig", 1));
    }
}
