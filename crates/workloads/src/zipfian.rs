//! Key distributions.
//!
//! The evaluation drives every key-value application with YCSB-style
//! workloads (§5, Workloads): zipfian-skewed key choice for the main phase,
//! and zipfian offsets for the MadFS shared-file benchmark. This module
//! implements the standard YCSB generators: uniform, zipfian (Gray et
//! al.'s rejection-free incremental algorithm, as used in YCSB's
//! `ZipfianGenerator`), and scrambled zipfian (zipfian rank hashed over the
//! key space so the hot keys are spread out).

use hawkset_core::hash::fnv1a_u64;
use rand::Rng;

/// YCSB's default zipfian skew.
pub const DEFAULT_THETA: f64 = 0.99;

/// A distribution over `0..n`.
pub trait KeyDistribution {
    /// Draws the next value in `0..n` using `rng`.
    fn next(&mut self, rng: &mut impl Rng) -> u64;

    /// The exclusive upper bound of the distribution's range.
    fn range(&self) -> u64;
}

/// Uniform distribution over `0..n`.
#[derive(Clone, Debug)]
pub struct Uniform {
    n: u64,
}

impl Uniform {
    /// Creates a uniform distribution over `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: u64) -> Self {
        assert!(n > 0, "empty key space");
        Self { n }
    }
}

impl KeyDistribution for Uniform {
    fn next(&mut self, rng: &mut impl Rng) -> u64 {
        rng.gen_range(0..self.n)
    }

    fn range(&self) -> u64 {
        self.n
    }
}

/// Zipfian distribution over `0..n` with parameter `theta`, favouring low
/// ranks (rank 0 is the hottest).
#[derive(Clone, Debug)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zeta_n: f64,
    eta: f64,
}

impl Zipfian {
    /// Creates a zipfian distribution over `0..n` with the YCSB default
    /// skew.
    pub fn new(n: u64) -> Self {
        Self::with_theta(n, DEFAULT_THETA)
    }

    /// Creates a zipfian distribution with explicit skew `theta ∈ (0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is outside `(0, 1)`.
    pub fn with_theta(n: u64, theta: f64) -> Self {
        assert!(n > 0, "empty key space");
        assert!(
            (0.0..1.0).contains(&theta) && theta > 0.0,
            "theta must be in (0, 1)"
        );
        let zeta_n = zeta(n, theta);
        let zeta2 = zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zeta_n);
        Self {
            n,
            theta,
            alpha,
            zeta_n,
            eta,
        }
    }

    /// The skew parameter.
    pub fn theta(&self) -> f64 {
        self.theta
    }
}

/// Harmonic partial sum `Σ 1/i^theta` for `i in 1..=n`.
fn zeta(n: u64, theta: f64) -> f64 {
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

impl KeyDistribution for Zipfian {
    fn next(&mut self, rng: &mut impl Rng) -> u64 {
        let u: f64 = rng.gen_range(0.0..1.0);
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    fn range(&self) -> u64 {
        self.n
    }
}

/// Scrambled zipfian: zipfian ranks hashed with FNV so the hottest keys are
/// scattered across the key space (YCSB's `ScrambledZipfianGenerator`).
#[derive(Clone, Debug)]
pub struct ScrambledZipfian {
    inner: Zipfian,
}

impl ScrambledZipfian {
    /// Creates a scrambled zipfian over `0..n`.
    pub fn new(n: u64) -> Self {
        Self {
            inner: Zipfian::new(n),
        }
    }
}

impl KeyDistribution for ScrambledZipfian {
    fn next(&mut self, rng: &mut impl Rng) -> u64 {
        let rank = self.inner.next(rng);
        fnv1a_u64(rank) % self.inner.n
    }

    fn range(&self) -> u64 {
        self.inner.n
    }
}

/// The distribution choices exposed by workload specs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Distribution {
    /// Uniform over the key space.
    Uniform,
    /// Zipfian with the YCSB default skew, favouring low keys.
    Zipfian,
    /// Zipfian ranks scattered by hashing.
    ScrambledZipfian,
}

impl Distribution {
    /// Instantiates the distribution over `0..n`.
    pub fn build(self, n: u64) -> Box<dyn DynDistribution> {
        match self {
            Distribution::Uniform => Box::new(Uniform::new(n)),
            Distribution::Zipfian => Box::new(Zipfian::new(n)),
            Distribution::ScrambledZipfian => Box::new(ScrambledZipfian::new(n)),
        }
    }
}

/// Object-safe adapter over [`KeyDistribution`] for boxed use.
pub trait DynDistribution {
    /// Draws the next value with the given RNG.
    fn next_dyn(&mut self, rng: &mut rand::rngs::StdRng) -> u64;
}

impl<T: KeyDistribution> DynDistribution for T {
    fn next_dyn(&mut self, rng: &mut rand::rngs::StdRng) -> u64 {
        self.next(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_stays_in_range_and_covers() {
        let mut d = Uniform::new(10);
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = d.next(&mut rng);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "1000 draws must cover 0..10");
    }

    #[test]
    fn zipfian_stays_in_range() {
        let mut d = Zipfian::new(1000);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            assert!(d.next(&mut rng) < 1000);
        }
    }

    #[test]
    fn zipfian_is_skewed_toward_low_ranks() {
        let mut d = Zipfian::new(1000);
        let mut rng = StdRng::seed_from_u64(3);
        let mut low = 0u32;
        const DRAWS: u32 = 20_000;
        for _ in 0..DRAWS {
            if d.next(&mut rng) < 10 {
                low += 1;
            }
        }
        // With theta=0.99 over 1000 keys, the top-10 ranks get far more
        // than their uniform share (1%); empirically ≈ 35–45%.
        assert!(
            low > DRAWS / 5,
            "zipfian skew missing: {low}/{DRAWS} in top 10"
        );
    }

    #[test]
    fn scrambled_zipfian_scatters_hot_keys() {
        let mut d = ScrambledZipfian::new(1000);
        let mut rng = StdRng::seed_from_u64(4);
        let mut counts = vec![0u32; 1000];
        for _ in 0..20_000 {
            counts[d.next(&mut rng) as usize] += 1;
        }
        // The hottest key exists but is not key 0 deterministically — it is
        // fnv1a_u64(0) % 1000.
        let hottest = counts.iter().enumerate().max_by_key(|(_, &c)| c).unwrap().0 as u64;
        assert_eq!(hottest, fnv1a_u64(0) % 1000);
    }

    #[test]
    fn zeta_matches_manual_sum() {
        let z = zeta(3, 1.0_f64.min(0.99));
        let manual = 1.0 + 1.0 / 2f64.powf(0.99) + 1.0 / 3f64.powf(0.99);
        assert!((z - manual).abs() < 1e-12);
    }

    #[test]
    fn distribution_enum_builds_all_variants() {
        let mut rng = StdRng::seed_from_u64(5);
        for d in [
            Distribution::Uniform,
            Distribution::Zipfian,
            Distribution::ScrambledZipfian,
        ] {
            let mut g = d.build(100);
            for _ in 0..100 {
                assert!(g.next_dyn(&mut rng) < 100);
            }
        }
    }
}
