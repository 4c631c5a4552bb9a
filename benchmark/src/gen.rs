//! Everything a workload feeds the engine is generated here from the
//! seed: fact values, key order, request inputs, operation sequences.
//! The engine only ever sees the generated inputs.

use indbml_core::data::iris_features;
use vector_engine::ColumnVector;

/// SplitMix64: tiny, seedable, and good enough to decorrelate streams.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated from other `salt`s of the seed.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut r = Rng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s) over ranks `0..n` by inverse CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Rank 0 is the most popular.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

pub fn facts_ddl(table: &str, float_cols: usize) -> String {
    let mut ddl = format!("CREATE TABLE {table} (id INT");
    for c in 0..float_cols {
        ddl.push_str(&format!(", c{c} FLOAT"));
    }
    ddl.push(')');
    ddl
}

/// `rows` fact tuples: ids `first_id..`, optionally shuffled (which
/// defeats min/max block pruning for point predicates), and `float_cols`
/// feature columns drawn row-wise from the Iris table — the paper's
/// replicated-Iris fact table, with the replication order seeded.
pub fn fact_columns(
    rng: &mut Rng,
    first_id: i64,
    rows: usize,
    float_cols: usize,
    shuffle_ids: bool,
) -> Vec<ColumnVector> {
    let iris = iris_features();
    let mut ids: Vec<i64> = (first_id..first_id + rows as i64).collect();
    if shuffle_ids {
        rng.shuffle(&mut ids);
    }
    let picks: Vec<usize> = (0..rows).map(|_| rng.below(iris.len())).collect();
    let mut cols = vec![ColumnVector::Int(ids)];
    for c in 0..float_cols {
        // Columns past Iris's four reuse its features, shifted by the
        // column index so no two columns are equal.
        let shift = (c / 4) as f64;
        cols.push(ColumnVector::Float(
            picks.iter().map(|&p| iris[p][c % 4] as f64 + shift).collect(),
        ));
    }
    cols
}

/// Request inputs for point predictions: Iris rows with a little seeded
/// jitter, so requests differ while staying in the model's input range.
pub fn input_pool(rng: &mut Rng, n: usize) -> Vec<Vec<f32>> {
    let iris = iris_features();
    (0..n)
        .map(|_| {
            let row = iris[rng.below(iris.len())];
            row.iter().map(|&v| v + (rng.unit() as f32 - 0.5) * 0.2).collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_key_sequence_repeats_for_a_seed_and_differs_across_seeds() {
        let z = Zipf::new(16_384, 1.0);
        let draw = |seed| {
            let mut rng = Rng::new(seed, 3);
            (0..2_000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(7));
    }

    #[test]
    fn zipf_is_skewed_but_reaches_the_whole_key_space() {
        let z = Zipf::new(16_384, 1.0);
        let mut rng = Rng::new(42, 3);
        let draws: Vec<usize> = (0..100_000).map(|_| z.sample(&mut rng)).collect();
        let top = draws.iter().filter(|&&r| r == 0).count() as f64 / draws.len() as f64;
        // H(16384) ≈ 10.28, so rank 0 carries ≈ 9.7 % of the draws.
        assert!((0.08..0.12).contains(&top), "rank-0 share {top}");
        let distinct: std::collections::BTreeSet<usize> = draws.iter().copied().collect();
        assert!(distinct.len() > 4_096, "more distinct keys than the route cache holds");
        assert!(draws.iter().all(|&r| r < 16_384));
    }

    #[test]
    fn fact_columns_are_seeded_and_shuffled_ids_are_a_permutation() {
        let a = fact_columns(&mut Rng::new(1, 0), 10, 1_000, 8, true);
        let b = fact_columns(&mut Rng::new(1, 0), 10, 1_000, 8, true);
        let c = fact_columns(&mut Rng::new(2, 0), 10, 1_000, 8, true);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut ids = a[0].as_int().unwrap().to_vec();
        assert_ne!(ids, (10..1_010).collect::<Vec<i64>>());
        ids.sort_unstable();
        assert_eq!(ids, (10..1_010).collect::<Vec<i64>>());
        assert_eq!(a.len(), 9);
    }
}
