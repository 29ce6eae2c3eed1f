//! Named, reproducible random-number streams.
//!
//! Every stochastic element of a simulation (traffic jitter, noise
//! injection, ...) draws from its own named stream so that adding a new
//! consumer of randomness never perturbs the draws seen by existing ones —
//! the classic requirement for comparable simulation runs.
//!
//! The generator is a self-contained ChaCha8 block cipher in counter mode
//! (no external crates), keyed by a stable FNV-1a hash of the stream name
//! mixed with the master seed.

/// Core ChaCha8 block generator.
struct ChaCha8 {
    key: [u32; 8],
    counter: u64,
    buf: [u32; 16],
    /// Next unread word in `buf`; 16 means the buffer is exhausted.
    idx: usize,
}

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl ChaCha8 {
    fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (i, k) in key.iter_mut().enumerate() {
            // Never fires: a 4-byte window of the 32-byte seed converts.
            *k = u32::from_le_bytes(seed[i * 4..i * 4 + 4].try_into().unwrap());
        }
        ChaCha8 { key, counter: 0, buf: [0; 16], idx: 16 }
    }

    /// Produce the next 64-byte keystream block into `buf`.
    fn refill(&mut self) {
        // "expand 32-byte k" constants, key, 64-bit block counter, zero nonce.
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
        state[4..12].copy_from_slice(&self.key);
        state[12..14].copy_from_slice(&[self.counter as u32, (self.counter >> 32) as u32]);
        let initial = state;
        for _ in 0..4 {
            // Column round.
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            // Diagonal round.
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (out, (s, i)) in self.buf.iter_mut().zip(state.iter().zip(initial.iter())) {
            *out = s.wrapping_add(*i);
        }
        self.counter = self.counter.wrapping_add(1);
        self.idx = 0;
    }

    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.idx == 16 {
            self.refill();
        }
        let w = self.buf[self.idx];
        self.idx += 1;
        w
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }
}

/// A seedable random stream identified by `(master_seed, name)`.
pub struct StreamRng {
    inner: ChaCha8,
    name: String,
}

/// Stable 64-bit FNV-1a, used to derive per-stream seeds from names.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

/// The Box–Muller transform of `u1` in `(0, 1)` and `u2` in `[0, 1)`: a
/// standard normal value.
pub fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

impl StreamRng {
    /// Create the stream `name` under `master_seed`.
    pub fn new(master_seed: u64, name: &str) -> Self {
        let mut seed = [0u8; 32];
        let h = fnv1a(name.as_bytes());
        seed[0..8].copy_from_slice(&master_seed.to_le_bytes());
        seed[8..16].copy_from_slice(&h.to_le_bytes());
        seed[16..24].copy_from_slice(&master_seed.rotate_left(17).to_le_bytes());
        seed[24..32].copy_from_slice(&h.rotate_left(31).to_le_bytes());
        StreamRng { inner: ChaCha8::from_seed(seed), name: name.to_string() }
    }

    /// The stream's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Move to draw `n` of [`next_u64`](Self::next_u64), counted from the
    /// stream's start: ChaCha8 is counter mode, so that is block `n / 8`.
    pub fn seek(&mut self, n: u64) {
        self.inner.counter = n / 8;
        self.inner.refill();
        self.inner.idx = 2 * (n % 8) as usize;
    }

    /// Fill `dest` with keystream bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(4) {
            let w = self.inner.next_u32().to_le_bytes();
            chunk.copy_from_slice(&w[..chunk.len()]);
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.inner.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(hi >= lo);
        lo + (hi - lo) * self.uniform()
    }

    /// Standard normal draw (Box–Muller; one value per call, the pair's
    /// second member is discarded for simplicity).
    pub fn normal(&mut self) -> f64 {
        let u1 = loop {
            let u = self.uniform();
            if u > 0.0 {
                break u;
            }
        };
        box_muller(u1, self.uniform())
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        // Rejection sampling to avoid modulo bias.
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let v = self.inner.next_u64();
            if v < zone {
                return v % n;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 8439 test vector machinery only covers ChaCha20; for ChaCha8 we
    /// check the block function against an independently computed keystream
    /// property instead: distinct counters must give distinct blocks.
    #[test]
    fn blocks_differ_by_counter() {
        let mut g = ChaCha8::from_seed([7u8; 32]);
        let a: Vec<u32> = (0..16).map(|_| g.next_u32()).collect();
        let b: Vec<u32> = (0..16).map(|_| g.next_u32()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = StreamRng::new(42, "noise");
        let mut b = StreamRng::new(42, "noise");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_names_decorrelate() {
        let mut a = StreamRng::new(42, "noise");
        let mut b = StreamRng::new(42, "jitter");
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn different_seeds_decorrelate() {
        let mut a = StreamRng::new(1, "noise");
        let mut b = StreamRng::new(2, "noise");
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn fill_bytes_handles_odd_lengths() {
        let mut r = StreamRng::new(3, "f");
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = StreamRng::new(7, "u");
        for _ in 0..10_000 {
            let x = r.uniform();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_in_bounds() {
        let mut r = StreamRng::new(7, "u2");
        for _ in 0..1_000 {
            let x = r.uniform_in(-3.0, 5.0);
            assert!((-3.0..5.0).contains(&x));
        }
    }

    #[test]
    fn normal_moments() {
        let mut r = StreamRng::new(11, "n");
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = StreamRng::new(17, "b");
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = r.below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
