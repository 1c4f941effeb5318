//! Seeded input generation. The program under test never sees the
//! seed, only the bytes and choices made from it.

/// SplitMix64: small, fast, and good enough to pick keys and fill
/// payloads; the same seed always yields the same stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for one purpose (`salt`) of one run
    /// (`seed`), so adding a consumer does not shift the others.
    pub fn for_stream(seed: u64, salt: u64) -> Rng {
        Rng(mix(seed ^ salt.wrapping_mul(0xa076_1d64_78bd_642f)))
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at
    /// the ranges used here.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

/// The SplitMix64 finaliser, also used as a stateless hash.
#[inline]
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_streams_differ() {
        let mut a = Rng::for_stream(7, 1);
        let mut b = Rng::for_stream(7, 1);
        let mut c = Rng::for_stream(7, 2);
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(x, y);
        assert_ne!(x, z);
        let mut buf = [0u8; 13];
        a.fill(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
