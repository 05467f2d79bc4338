//! The seeded workload generator. It belongs to the benchmark: the
//! library only ever sees the events and queries built from what this
//! module draws, and every draw is folded into the run's `input_hash`
//! so two runs can prove they did the same work.

/// Door sensors per range.
pub const DOORS: usize = 16;
/// Rooms per range.
pub const ROOMS: usize = 8;
/// People whose badges the doors read.
pub const SUBJECTS: usize = 500;

/// SplitMix64: small, fast, and good enough to pick doors.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias at these sizes is below one
    /// part in 10^16).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One badge read: `subject` walked through `door` into `room`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Reading {
    pub door: usize,
    pub subject: usize,
    pub room: usize,
}

/// Draws readings and hashes them (FNV-1a over the drawn indices).
#[derive(Clone, Debug)]
pub struct Generator {
    rng: Rng,
    hash: u64,
}

impl Generator {
    /// `stream` separates the generators of one run (one per workload
    /// and phase) so they do not replay each other's draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        Generator {
            rng,
            hash: 0xCBF2_9CE4_8422_2325,
        }
    }

    fn fold(&mut self, v: usize) {
        for byte in (v as u32).to_le_bytes() {
            self.hash = (self.hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// A uniform index in `0..n`, hashed into the input record.
    pub fn pick(&mut self, n: usize) -> usize {
        let v = self.rng.below(n);
        self.fold(v);
        v
    }

    pub fn reading(&mut self) -> Reading {
        Reading {
            door: self.pick(DOORS),
            subject: self.pick(SUBJECTS),
            room: self.pick(ROOMS),
        }
    }

    /// Hash of everything drawn so far.
    pub fn input_hash(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_after(seed: u64, stream: u64, n: usize) -> (u64, Vec<Reading>) {
        let mut g = Generator::new(seed, stream);
        let readings = (0..n).map(|_| g.reading()).collect();
        (g.input_hash(), readings)
    }

    #[test]
    fn same_seed_same_inputs_and_hash() {
        assert_eq!(hash_after(42, 1, 1000), hash_after(42, 1, 1000));
    }

    #[test]
    fn different_seed_or_stream_differs() {
        let base = hash_after(42, 1, 1000);
        assert_ne!(base.0, hash_after(43, 1, 1000).0);
        assert_ne!(base.0, hash_after(42, 2, 1000).0);
        assert_ne!(base.1, hash_after(43, 1, 1000).1);
    }

    #[test]
    fn readings_stay_in_range_and_cover_the_population() {
        let (_, readings) = hash_after(7, 0, 20_000);
        assert!(readings
            .iter()
            .all(|r| r.door < DOORS && r.subject < SUBJECTS && r.room < ROOMS));
        let subjects: std::collections::HashSet<usize> =
            readings.iter().map(|r| r.subject).collect();
        assert_eq!(subjects.len(), SUBJECTS);
    }
}
