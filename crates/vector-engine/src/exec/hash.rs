//! The shared columnar key pipeline behind hash join and hash aggregation.
//!
//! The seed operators materialized a `Vec<KeyPart>` per row — one heap
//! allocation plus a SipHash of an enum tree for every probe. This module
//! replaces that with three batch-level pieces:
//!
//! * [`hash_key_columns`]: a per-batch `Vec<u64>` hash vector. Each key
//!   column contributes a normalized 64-bit code per row (integer-valued
//!   floats collapse onto the integer code, `-0.0` onto `0.0`, strings hash
//!   by bytes) mixed with a splitmix-style finalizer — a tight per-column
//!   loop the compiler can vectorize, with no per-row allocation.
//! * [`keys_equal`]: typed positional comparison directly against the
//!   retained key columns, implementing SQL equality (`INT 3` = `FLOAT
//!   3.0`) without materializing composite keys. Hash codes only *candidate*
//!   matches; equality is always resolved here.
//! * [`KeyTable`]: a bucket-chained raw table over row indices. Buckets are
//!   open-addressed by masked hash; entries chain through a parallel `next`
//!   array and keep their full 64-bit hash so probes reject almost all
//!   collisions before touching the key columns.

use crate::column::ColumnVector;
use crate::types::Value;
use std::borrow::Borrow;

/// splitmix64 finalizer: full-avalanche mix of one 64-bit code.
#[inline]
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Combine a column's code into an existing row hash.
#[inline]
fn combine(h: u64, code: u64) -> u64 {
    // Boost-style hash_combine, widened to 64 bit.
    h ^ mix(code).wrapping_add(0x9e3779b97f4a7c15).wrapping_add(h << 6).wrapping_add(h >> 2)
}

/// Normalized code of a float: integer-valued floats collapse onto the
/// integer's code so `INT 3` and `FLOAT 3.0` hash identically; `-0.0`
/// normalizes to `0.0`; everything else hashes by bit pattern.
#[inline]
fn float_code(f: f64) -> u64 {
    // Upper bound is exclusive: `i64::MAX as f64` rounds up to 2^63,
    // which is NOT representable as i64 — an inclusive check would let
    // the float 2^63 saturate onto i64::MAX's code and collide with the
    // genuine INT i64::MAX key. The lower bound stays inclusive because
    // -2^63 == i64::MIN exactly. NaN fails `fract() == 0.0` and ±inf
    // fails the range check, so both hash by bit pattern.
    if f.fract() == 0.0 && f >= i64::MIN as f64 && f < i64::MAX as f64 {
        (f as i64) as u64
    } else {
        f.to_bits()
    }
}

/// FNV-1a over the string bytes — no per-row allocation, good avalanche
/// after [`mix`].
#[inline]
fn str_code(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in s.as_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    h
}

/// Compute the composite hash vector of `rows` rows over `cols`. The output
/// buffer is reused across batches by the callers (cleared, then filled) —
/// the per-row path performs no allocation. Columns may be owned or shared.
pub fn hash_key_columns<C: Borrow<ColumnVector>>(cols: &[C], rows: usize, hashes: &mut Vec<u64>) {
    hashes.clear();
    hashes.resize(rows, 0);
    for (ci, col) in cols.iter().enumerate() {
        let first = ci == 0;
        match col.borrow() {
            ColumnVector::Int(v) => {
                for (h, &x) in hashes.iter_mut().zip(v) {
                    *h = if first { mix(x as u64) } else { combine(*h, x as u64) };
                }
            }
            ColumnVector::Float(v) => {
                for (h, &x) in hashes.iter_mut().zip(v) {
                    let c = float_code(x);
                    *h = if first { mix(c) } else { combine(*h, c) };
                }
            }
            ColumnVector::Bool(v) => {
                for (h, &x) in hashes.iter_mut().zip(v) {
                    *h = if first { mix(x as u64) } else { combine(*h, x as u64) };
                }
            }
            ColumnVector::Str(v) => {
                for (h, s) in hashes.iter_mut().zip(v) {
                    let c = str_code(s);
                    *h = if first { mix(c) } else { combine(*h, c) };
                }
            }
        }
    }
}

/// The hash [`hash_key_columns`] gives a one-column key holding `v`: a
/// hash-placed table's rows and a `key = literal` pin agree on the
/// partition, `INT 3` and `FLOAT 3.0` included.
pub fn hash_value(v: &Value) -> u64 {
    mix(match v {
        Value::Int(i) => *i as u64,
        Value::Float(f) => float_code(*f),
        Value::Bool(b) => *b as u64,
        Value::Str(s) => str_code(s),
    })
}

/// SQL equality of one key column pair at `(ai, bi)` — typed, in place, no
/// `Value` materialization. Numeric values compare by value across
/// `INT`/`FLOAT`; floats with identical bit patterns (NaN keys) also match,
/// mirroring the seed's bit-normalized behaviour.
#[inline]
fn col_equal(a: &ColumnVector, ai: usize, b: &ColumnVector, bi: usize) -> bool {
    match (a, b) {
        (ColumnVector::Int(x), ColumnVector::Int(y)) => x[ai] == y[bi],
        (ColumnVector::Float(x), ColumnVector::Float(y)) => {
            x[ai] == y[bi] || x[ai].to_bits() == y[bi].to_bits()
        }
        (ColumnVector::Int(x), ColumnVector::Float(y)) => int_eq_float(x[ai], y[bi]),
        (ColumnVector::Float(x), ColumnVector::Int(y)) => int_eq_float(y[bi], x[ai]),
        (ColumnVector::Bool(x), ColumnVector::Bool(y)) => x[ai] == y[bi],
        (ColumnVector::Str(x), ColumnVector::Str(y)) => x[ai] == y[bi],
        _ => false,
    }
}

#[inline]
fn int_eq_float(i: i64, f: f64) -> bool {
    // Exclusive upper bound for the same reason as `float_code`: the
    // float 2^63 saturates to i64::MAX under `as i64`, which would make
    // it spuriously equal to INT i64::MAX.
    f.fract() == 0.0 && f >= i64::MIN as f64 && f < i64::MAX as f64 && f as i64 == i
}

/// Composite-key equality of row `ai` of `a` against row `bi` of `b`.
#[inline]
pub fn keys_equal<A: Borrow<ColumnVector>, B: Borrow<ColumnVector>>(
    a: &[A],
    ai: usize,
    b: &[B],
    bi: usize,
) -> bool {
    a.iter().zip(b).all(|(ca, cb)| col_equal(ca.borrow(), ai, cb.borrow(), bi))
}

/// A bucket-chained hash table over row indices. It stores no keys: entry
/// `i` *is* row `i` of whatever columns the owner retained, and collision
/// resolution is the owner's job via [`keys_equal`]. `u32` indices bound
/// build sides at 4 billion rows — far beyond a vector-at-a-time build.
pub struct KeyTable {
    /// Bucket heads: entry index + 1, `0` = empty. Length is a power of two.
    buckets: Vec<u32>,
    mask: u64,
    /// Per-entry chain link: next entry index + 1, `0` = end.
    next: Vec<u32>,
    /// Per-entry full hash, for cheap rejection before key comparison.
    hashes: Vec<u64>,
}

impl KeyTable {
    /// A table expecting roughly `n` entries.
    pub fn with_capacity(n: usize) -> KeyTable {
        let cap = (n.max(8) * 8 / 7).next_power_of_two();
        KeyTable {
            buckets: vec![0; cap],
            mask: cap as u64 - 1,
            next: Vec::new(),
            hashes: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Append the next row (index `self.len()`) with hash `h`.
    pub fn insert(&mut self, h: u64) {
        if self.next.len() + 1 > self.buckets.len() / 8 * 7 {
            self.grow();
        }
        let entry = self.next.len() as u32;
        assert!(entry != u32::MAX, "build side exceeds u32 row indices");
        let b = (h & self.mask) as usize;
        self.next.push(self.buckets[b]);
        self.hashes.push(h);
        self.buckets[b] = entry + 1;
    }

    fn grow(&mut self) {
        let cap = (self.buckets.len() * 2).max(16);
        self.buckets.clear();
        self.buckets.resize(cap, 0);
        self.mask = cap as u64 - 1;
        for (i, &h) in self.hashes.iter().enumerate() {
            let b = (h & self.mask) as usize;
            self.next[i] = self.buckets[b];
            self.buckets[b] = i as u32 + 1;
        }
    }

    /// Iterate the row indices whose stored hash equals `h`, newest first.
    /// Callers must still confirm with [`keys_equal`].
    #[inline]
    pub fn candidates(&self, h: u64) -> Candidates<'_> {
        let head = self.buckets[(h & self.mask) as usize];
        Candidates { table: self, cursor: head, hash: h }
    }
}

/// Iterator over hash-equal entries of one bucket chain.
pub struct Candidates<'a> {
    table: &'a KeyTable,
    cursor: u32,
    hash: u64,
}

impl Iterator for Candidates<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.cursor != 0 {
            let entry = (self.cursor - 1) as usize;
            self.cursor = self.table.next[entry];
            if self.table.hashes[entry] == self.hash {
                return Some(entry);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_one(cols: &[ColumnVector]) -> u64 {
        let mut h = Vec::new();
        hash_key_columns(cols, 1, &mut h);
        h[0]
    }

    #[test]
    fn a_value_hashes_like_its_one_column_key() {
        for (v, col) in [
            (Value::Int(-3), ColumnVector::Int(vec![-3])),
            (Value::Float(3.0), ColumnVector::Int(vec![3])),
            (Value::Float(-0.0), ColumnVector::Float(vec![0.0])),
            (Value::Float(2.5), ColumnVector::Float(vec![2.5])),
            (Value::Bool(true), ColumnVector::Bool(vec![true])),
            (Value::Str("k".into()), ColumnVector::Str(vec!["k".into()])),
        ] {
            assert_eq!(hash_value(&v), hash_one(&[col]), "{v:?}");
        }
    }

    #[test]
    fn int_and_integral_float_hash_identically() {
        let a = hash_one(&[ColumnVector::Int(vec![3])]);
        let b = hash_one(&[ColumnVector::Float(vec![3.0])]);
        assert_eq!(a, b);
        let c = hash_one(&[ColumnVector::Float(vec![3.5])]);
        assert_ne!(a, c);
    }

    #[test]
    fn negative_zero_normalizes() {
        let a = hash_one(&[ColumnVector::Float(vec![0.0])]);
        let b = hash_one(&[ColumnVector::Float(vec![-0.0])]);
        assert_eq!(a, b);
        let zero = [ColumnVector::Float(vec![0.0])];
        let negzero = [ColumnVector::Float(vec![-0.0])];
        assert!(keys_equal(&zero, 0, &negzero, 0));
    }

    #[test]
    fn cross_type_numeric_equality() {
        let i = [ColumnVector::Int(vec![3, 4])];
        let f = [ColumnVector::Float(vec![3.0, 4.5])];
        assert!(keys_equal(&i, 0, &f, 0));
        assert!(!keys_equal(&i, 1, &f, 1));
        let s = [ColumnVector::Str(vec!["3".into()])];
        assert!(!keys_equal(&i, 0, &s, 0));
    }

    #[test]
    fn string_keys_compare_in_place() {
        let a = [ColumnVector::Str(vec!["edge".into(), "node".into()])];
        let b = [ColumnVector::Str(vec!["node".into()])];
        assert!(keys_equal(&a, 1, &b, 0));
        assert!(!keys_equal(&a, 0, &b, 0));
        assert_eq!(
            hash_one(&[ColumnVector::Str(vec!["node".into()])]),
            hash_one(&[ColumnVector::Str(vec!["node".into()])]),
        );
    }

    #[test]
    fn multi_column_hash_is_order_sensitive() {
        let ab = hash_one(&[ColumnVector::Int(vec![1]), ColumnVector::Int(vec![2])]);
        let ba = hash_one(&[ColumnVector::Int(vec![2]), ColumnVector::Int(vec![1])]);
        assert_ne!(ab, ba);
    }

    #[test]
    fn table_chains_duplicates_and_grows() {
        let mut t = KeyTable::with_capacity(2);
        let hashes: Vec<u64> = (0..200).map(|i| mix(i as u64 % 50)).collect();
        for &h in &hashes {
            t.insert(h);
        }
        assert_eq!(t.len(), 200);
        // Each of the 50 distinct hashes owns 4 entries, newest first.
        let got: Vec<usize> = t.candidates(mix(7)).collect();
        assert_eq!(got, vec![157, 107, 57, 7]);
        // A hash that was never inserted yields nothing.
        assert_eq!(t.candidates(mix(999)).count(), 0);
    }

    #[test]
    fn nan_keys_match_by_bit_pattern() {
        let a = [ColumnVector::Float(vec![f64::NAN])];
        let b = [ColumnVector::Float(vec![f64::NAN])];
        assert!(keys_equal(&a, 0, &b, 0));
        assert_eq!(hash_one(&a), hash_one(&b));
    }

    #[test]
    fn out_of_range_floats_do_not_saturate_onto_int_extremes() {
        // 2^63 is integral but not representable as i64; before the
        // exclusive-bound fix it saturated to i64::MAX and both grouped
        // and compared equal to INT i64::MAX.
        let two_63 = 9_223_372_036_854_775_808.0_f64;
        let int_max = [ColumnVector::Int(vec![i64::MAX])];
        let f = [ColumnVector::Float(vec![two_63])];
        assert!(!keys_equal(&int_max, 0, &f, 0));
        assert!(!int_eq_float(i64::MAX, two_63));
        assert_eq!(float_code(two_63), two_63.to_bits());
        // -2^63 IS exactly i64::MIN — that pairing must keep unifying.
        let min_f = i64::MIN as f64;
        let int_min = [ColumnVector::Int(vec![i64::MIN])];
        let g = [ColumnVector::Float(vec![min_f])];
        assert!(keys_equal(&int_min, 0, &g, 0));
        assert_eq!(hash_one(&int_min), hash_one(&g));
        // Infinities and huge finite floats stay distinct bit-pattern keys.
        assert!(!int_eq_float(i64::MAX, f64::INFINITY));
        assert_ne!(float_code(1e300), float_code(f64::INFINITY));
        assert_ne!(float_code(f64::INFINITY), float_code(f64::NEG_INFINITY));
    }
}
