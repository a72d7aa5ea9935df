//! Content-addressed tensor pool.
//!
//! A snapshot of an N-residence federation stores the same base-layer
//! parameters up to N times (every residence holds the broadcast base
//! after a γ merge), each DQN stores its target network as a near- or
//! exact copy of its Q-network, and consecutive replay transitions
//! share their `next_state`/`state` vectors. Interning every f64
//! vector in one pool and referencing it by index collapses those
//! copies: identical tensors (bit-for-bit, so `-0.0` ≠ `0.0` and NaN
//! payloads are distinguished) are stored once.
//!
//! The pool keeps its tensors in their wire form, back to back in one
//! flat arena that *is* the `TENSORS` section payload: interning a new
//! tensor appends to that one buffer instead of allocating its own,
//! encoding is a borrow, and a decoded pool borrows the snapshot's
//! bytes instead of copying them.
//!
//! Dedup keys are word-wise hashes over the raw bit patterns; the index
//! maps a key to the newest tensor carrying it, and each tensor links
//! to the previous one with the same key. Collisions are resolved by
//! exact bit comparison, so two distinct tensors never alias, and ids
//! are assigned in first-intern order.

use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::error::StoreError;
use crate::wire::{extend_f64s, f64s_from_le, le_words, Reader};

/// Identifier of an interned tensor inside one snapshot's pool.
pub type TensorId = u32;

/// Marks the end of a collision chain.
const NO_TENSOR: TensorId = TensorId::MAX;

/// Deduplicating pool of f64 vectors.
#[derive(Debug)]
pub struct TensorPool<'a> {
    /// The wire form: tensor count (u64), then per tensor its length
    /// (u64) and its f64 bit patterns, all little-endian. Borrowed from
    /// the snapshot after decode; copied only if `intern` needs to
    /// append to a decoded pool.
    bytes: Cow<'a, [u8]>,
    /// Offset in `bytes` of each tensor's first f64. Tensor `id` ends
    /// at the next tensor's length prefix, or at the end of `bytes`.
    starts: Vec<usize>,
    /// Content hash → newest indexed id with that hash.
    index: HashMap<u64, TensorId, BuildHasherDefault<IdentityHasher>>,
    /// Per indexed id: the previous id with the same hash, or
    /// [`NO_TENSOR`]. Its length is the number of indexed tensors, so a
    /// decoded pool builds its index only once `intern` needs it.
    chain: Vec<TensorId>,
}

/// The pool's keys are already well-mixed hashes; rehashing them
/// would only cost time. The keys are unseeded, so crafted tensors can
/// collide; the pool indexes only this process's tensors or a local
/// snapshot's, the trust boundary the CRCs already assume.
#[derive(Default)]
struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the pool index is keyed by u64 only")
    }

    fn write_u64(&mut self, h: u64) {
        self.0 = h;
    }
}

/// Word-wise hash over the raw bit patterns of a tensor of `len`
/// elements, one multiply per element, with a full-avalanche finalizer
/// (MurmurHash3 `fmix64`) so every key bit reaches the bucket and tag
/// bits of the index.
fn hash_words(len: usize, words: impl Iterator<Item = u64>) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = (len as u64).wrapping_mul(K);
    for w in words {
        h = (h.rotate_left(23) ^ w).wrapping_mul(K);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

fn hash_bits(vs: &[f64]) -> u64 {
    hash_words(vs.len(), vs.iter().map(|v| v.to_bits()))
}

/// Whether the wire-form tensor `stored` holds exactly the bit
/// patterns of `vs` (so `-0.0` ≠ `0.0` and NaN payloads keep their
/// identity) — the only equality under which interning is lossless.
fn same_bits(stored: &[u8], vs: &[f64]) -> bool {
    stored.len() == 8 * vs.len() && le_words(stored).zip(vs).all(|(w, v)| w == v.to_bits())
}

impl Default for TensorPool<'_> {
    fn default() -> Self {
        Self {
            bytes: Cow::Owned(0u64.to_le_bytes().to_vec()),
            starts: Vec::new(),
            index: HashMap::default(),
            chain: Vec::new(),
        }
    }
}

impl<'a> TensorPool<'a> {
    /// Empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `vs`, returning the id of the stored copy. Bit-identical
    /// tensors get the same id; anything else gets a fresh slot.
    pub fn intern(&mut self, vs: &[f64]) -> TensorId {
        self.index_all();
        self.intern_hashed(hash_bits(vs), vs)
    }

    /// [`TensorPool::intern`] with the hash of `vs` already computed.
    fn intern_hashed(&mut self, h: u64, vs: &[f64]) -> TensorId {
        if let Some(id) = self.find(h, vs) {
            return id;
        }
        let id = self.starts.len() as TensorId;
        let bytes = self.bytes.to_mut();
        bytes.extend_from_slice(&(vs.len() as u64).to_le_bytes());
        self.starts.push(bytes.len());
        extend_f64s(bytes, vs);
        bytes[..8].copy_from_slice(&(self.starts.len() as u64).to_le_bytes());
        self.link(h, id);
        id
    }

    /// The indexed id holding exactly `vs`, if any.
    fn find(&self, h: u64, vs: &[f64]) -> Option<TensorId> {
        let mut id = *self.index.get(&h)?;
        while id != NO_TENSOR {
            if same_bits(self.stored(id as usize), vs) {
                return Some(id);
            }
            id = self.chain[id as usize];
        }
        None
    }

    /// Add `id` to the index under hash `h`.
    fn link(&mut self, h: u64, id: TensorId) {
        let prev = self.index.insert(h, id).unwrap_or(NO_TENSOR);
        self.chain.push(prev);
    }

    /// Index every tensor not yet indexed (those of a decoded pool). A
    /// tensor equal to an earlier one stays unindexed, so `intern`
    /// keeps returning the first id for it, and its chain slot is only
    /// a placeholder.
    fn index_all(&mut self) {
        while self.chain.len() < self.starts.len() {
            let id = self.chain.len();
            let vs = f64s_from_le(self.stored(id));
            let h = hash_bits(&vs);
            if self.find(h, &vs).is_some() {
                self.chain.push(NO_TENSOR);
            } else {
                self.link(h, id as TensorId);
            }
        }
    }

    /// The wire bytes of tensor `id`'s elements; `id` must exist.
    fn stored(&self, id: usize) -> &[u8] {
        let end = self.starts.get(id + 1).map_or(self.bytes.len(), |s| s - 8);
        &self.bytes[self.starts[id]..end]
    }

    /// Fetch a copy of a tensor by id; a dangling id is a typed error,
    /// not a panic.
    pub fn get(&self, id: u64) -> Result<Vec<f64>, StoreError> {
        match usize::try_from(id) {
            Ok(i) if i < self.starts.len() => Ok(f64s_from_le(self.stored(i))),
            _ => Err(StoreError::BadTensorRef { id }),
        }
    }

    /// Number of distinct tensors stored.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Total f64 elements across all stored tensors (dedup-effectiveness
    /// metric: compare against the sum over all intern calls).
    pub fn total_params(&self) -> usize {
        (self.bytes.len() - 8 - 8 * self.len()) / 8
    }

    /// The pool's wire form: the `TENSORS` section payload.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Parse a pool from its wire form, borrowing the bytes. Its dedup
    /// index is built only if `intern` is called on it.
    pub fn decode(r: &mut Reader<'a>) -> Result<Self, StoreError> {
        let all = r.rest();
        let n = r.count(8)?; // each tensor costs at least its length prefix
        let mut starts = Vec::with_capacity(n);
        for _ in 0..n {
            let len = r.count(8)?;
            starts.push(all.len() - r.remaining());
            r.take(8 * len)?;
        }
        Ok(TensorPool {
            bytes: Cow::Borrowed(&all[..all.len() - r.remaining()]),
            starts,
            index: HashMap::default(),
            chain: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_tensors_share_one_slot() {
        let mut pool = TensorPool::new();
        let a = pool.intern(&[1.0, 2.0, 3.0]);
        let b = pool.intern(&[1.0, 2.0, 3.0]);
        let c = pool.intern(&[1.0, 2.0, 3.5]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn negative_zero_and_nan_payloads_are_distinct() {
        let mut pool = TensorPool::new();
        let pz = pool.intern(&[0.0]);
        let nz = pool.intern(&[-0.0]);
        assert_ne!(pz, nz);

        let nan_a = f64::from_bits(0x7FF8_0000_0000_0001);
        let nan_b = f64::from_bits(0x7FF8_0000_0000_0002);
        let ia = pool.intern(&[nan_a]);
        let ib = pool.intern(&[nan_b]);
        let ia2 = pool.intern(&[nan_a]);
        assert_ne!(ia, ib);
        assert_eq!(ia, ia2);
    }

    #[test]
    fn round_trip_preserves_ids_and_bits() {
        let mut pool = TensorPool::new();
        let nan = f64::from_bits(0x7FF8_DEAD_BEEF_0001);
        let ids = [
            pool.intern(&[1.0, -0.0, nan]),
            pool.intern(&[]),
            pool.intern(&[f64::MAX; 17]),
            pool.intern(&[1.0, -0.0, nan]), // dup of first
        ];
        assert_eq!(ids[0], ids[3]);

        let bytes = pool.as_bytes().to_vec();
        let mut r = Reader::new(&bytes, "pool");
        let back = TensorPool::decode(&mut r).unwrap();
        r.expect_end().unwrap();

        assert_eq!(back.len(), pool.len());
        assert_eq!(back.as_bytes(), pool.as_bytes());
        let bits = |v: Vec<f64>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for id in 0..pool.len() as u64 {
            assert_eq!(bits(pool.get(id).unwrap()), bits(back.get(id).unwrap()));
        }
        // The rebuilt index still deduplicates.
        let mut back = back;
        assert_eq!(back.intern(&[1.0, -0.0, nan]), ids[0]);
    }

    #[test]
    fn colliding_hashes_resolve_by_bit_compare() {
        let mut pool = TensorPool::new();
        let a = pool.intern_hashed(42, &[1.0]);
        let b = pool.intern_hashed(42, &[2.0]);
        let c = pool.intern_hashed(42, &[1.0, 2.0]);
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(pool.intern_hashed(42, &[1.0]), a);
        assert_eq!(pool.intern_hashed(42, &[2.0]), b);
        assert_eq!(pool.intern_hashed(42, &[1.0, 2.0]), c);
        assert_eq!(pool.len(), 3);
    }

    #[test]
    fn ids_match_a_first_seen_oracle() {
        // A seeded stream of ~200k tensors built from a small palette of
        // awkward values, so exact repeats, signed zeros, distinct NaN
        // payloads, `[]` vs `[0.0]` and equal prefixes of different
        // lengths all occur many times.
        let palette = [
            0.0,
            -0.0,
            1.0,
            f64::from_bits(0x7FF8_0000_0000_0001),
            f64::from_bits(0x7FF8_0000_0000_0002),
            f64::from_bits(0xFFF8_0000_0000_0001),
            f64::INFINITY,
            f64::MIN_POSITIVE / 2.0,
        ];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut stream: Vec<Vec<f64>> = Vec::with_capacity(200_000);
        while stream.len() < 200_000 {
            let t = match next() % 4 {
                0 if !stream.is_empty() => stream[(next() % stream.len() as u64) as usize].clone(),
                1 if !stream.is_empty() => {
                    let src = &stream[(next() % stream.len() as u64) as usize];
                    src[..(next() % (src.len() as u64 + 1)) as usize].to_vec()
                }
                _ => (0..next() % 7)
                    .map(|_| palette[(next() % palette.len() as u64) as usize])
                    .collect(),
            };
            stream.push(t);
        }

        let mut oracle: HashMap<Vec<u64>, TensorId> = HashMap::new();
        let mut pool = TensorPool::new();
        let mut ids = Vec::with_capacity(stream.len());
        for t in &stream {
            let bits: Vec<u64> = t.iter().map(|v| v.to_bits()).collect();
            let fresh = oracle.len() as TensorId;
            let want = *oracle.entry(bits).or_insert(fresh);
            let id = pool.intern(t);
            assert_eq!(id, want, "tensor {t:?}");
            ids.push(id);
        }
        assert_eq!(pool.len(), oracle.len());
        assert!(pool.len() < stream.len() / 2, "stream has too few repeats");

        // A decoded pool dedups the same stream onto the same ids.
        let bytes = pool.as_bytes().to_vec();
        let mut back = TensorPool::decode(&mut Reader::new(&bytes, "pool")).unwrap();
        for (t, &id) in stream.iter().zip(&ids) {
            assert_eq!(back.intern(t), id);
        }
        assert_eq!(back.len(), pool.len());
    }

    #[test]
    fn decoded_duplicates_intern_to_the_first_id() {
        // The encoder never writes a duplicate, but a decoded pool may
        // hold one; interning it returns the lower id, as before decode.
        let mut w = crate::wire::Writer::new();
        w.put_usize(3);
        w.put_f64s(&[7.0]);
        w.put_f64s(&[8.0]);
        w.put_f64s(&[7.0]);
        let bytes = w.into_bytes();
        let mut pool = TensorPool::decode(&mut Reader::new(&bytes, "pool")).unwrap();
        assert_eq!(pool.intern(&[7.0]), 0);
        assert_eq!(pool.intern(&[8.0]), 1);
        assert_eq!(pool.intern(&[9.0]), 3);
    }

    #[test]
    fn dangling_ids_are_typed_errors() {
        let pool = TensorPool::new();
        assert_eq!(pool.get(0), Err(StoreError::BadTensorRef { id: 0 }));
        assert_eq!(
            pool.get(u64::MAX),
            Err(StoreError::BadTensorRef { id: u64::MAX })
        );
    }
}
