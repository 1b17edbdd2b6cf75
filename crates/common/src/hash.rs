//! Fast non-cryptographic hashing for hot hash tables.
//!
//! The engine's inner loops are dominated by hash-join builds/probes and
//! hash aggregation on integer and short-string keys. The standard library's
//! SipHash is collision-resistant but slow for this use; the offline crate
//! set does not include `rustc-hash`, so we carry a small implementation of
//! the same "Fx" multiply-and-rotate hash used by the Rust compiler, with
//! a bit-mixing finisher ([`FxHasher::finish`]) so every bit of the result
//! depends on the key. HashDoS is not a concern: all inputs are generated
//! workloads.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx hash function: for each word, `state = (state.rotl(5) ^ word) * SEED`;
/// [`finish`](Hasher::finish) runs the state through [`mix64`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    /// The state, bit-mixed. The last step of the Fx round is a multiply by
    /// an odd constant, which only carries entropy *upward*: whatever low
    /// bits of the last word were key-independent stay key-independent in
    /// the state. [`Value`](crate::Value) hashes numerics as `f64` bits, and
    /// the `f64` pattern of an integer below 2^16 has 36+ trailing zeroes —
    /// returned unmixed, every such key lands in one bucket chain of a
    /// `HashMap` (bucket = low bits) and on bucket 0 of any `% n`
    /// partitioning. After the mix both the low bits (hashbrown's bucket
    /// index) and the top seven (its control byte) depend on the whole key.
    #[inline]
    fn finish(&self) -> u64 {
        mix64(self.hash)
    }

    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            let word = u64::from_le_bytes(bytes[..8].try_into().unwrap());
            self.add_to_hash(word);
            bytes = &bytes[8..];
        }
        if bytes.len() >= 4 {
            let word = u32::from_le_bytes(bytes[..4].try_into().unwrap());
            self.add_to_hash(word as u64);
            bytes = &bytes[4..];
        }
        if bytes.len() >= 2 {
            let word = u16::from_le_bytes(bytes[..2].try_into().unwrap());
            self.add_to_hash(word as u64);
            bytes = &bytes[2..];
        }
        if let Some(&b) = bytes.first() {
            self.add_to_hash(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }
    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// The murmur3 64-bit finalizer: every output bit depends on every input
/// bit. [`FxHasher::finish`] is its one caller in the engine; it is public
/// for seeded draws (`splitmix`-style generators in the benches).
#[inline]
pub fn mix64(h: u64) -> u64 {
    let mut x = h;
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// splitmix64: a stateless mixer of a seeded counter — the draw behind
/// every [`crate::FaultPlane`] decision and the tests' small generators.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"hello"), hash_of(&"hello"));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&"a"), hash_of(&"b"));
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<i64, &str> = FxHashMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));

        let mut s: FxHashSet<&str> = FxHashSet::default();
        assert!(s.insert("x"));
        assert!(!s.insert("x"));
    }

    /// Distinct values of the low 12 bits (hashbrown's bucket index at
    /// 4096 buckets) and of the top 7 bits (its control byte).
    fn spread(hashes: impl Iterator<Item = u64>) -> (usize, usize) {
        let (mut low, mut top) = (FxHashSet::default(), FxHashSet::default());
        for h in hashes {
            low.insert(h & 0xfff);
            top.insert(h >> 57);
        }
        (low.len(), top.len())
    }

    #[test]
    fn small_numeric_keys_spread_over_buckets_and_control_bytes() {
        use crate::columnar::hash_keys;
        use crate::Value;
        let ints = || (0..4096).map(Value::Int);
        let key_hashes = hash_keys(&ints().map(|v| Some(vec![v])).collect::<Vec<_>>());
        let families: [(&str, Vec<u64>); 4] = [
            ("Int", ints().map(|v| hash_of(&v)).collect()),
            (
                "Double",
                (0..4096)
                    .map(|k| hash_of(&Value::Double(k as f64 * 0.5)))
                    .collect(),
            ),
            ("[Int]", ints().map(|v| hash_of(&vec![v])).collect()),
            (
                "u64 of hash_keys",
                key_hashes.iter().map(|h| hash_of(&h.unwrap())).collect(),
            ),
        ];
        for (name, hashes) in families {
            let (low, top) = spread(hashes.into_iter());
            assert!(low >= 2048, "{name}: {low} distinct low-12-bit values");
            assert!(top >= 64, "{name}: {top} distinct top-7-bit values");
        }
    }

    #[test]
    fn byte_tail_lengths() {
        // Exercise the 8/4/2/1-byte tails of `write`.
        for len in 0..=17usize {
            let data: Vec<u8> = (0..len as u8).collect();
            let mut h = FxHasher::default();
            h.write(&data);
            let first = h.finish();
            let mut h2 = FxHasher::default();
            h2.write(&data);
            assert_eq!(first, h2.finish());
        }
    }
}
