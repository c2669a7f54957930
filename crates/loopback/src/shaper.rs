//! Token-bucket rate shaping: the emulated WAN bottleneck.
//!
//! All client streams draw send-permits from one shared bucket, so the
//! aggregate rate across any number of streams is capped — the essential
//! property of a shared bottleneck link. The bucket refills continuously at
//! the configured rate with a bounded burst (one refill-quantum), and
//! `acquire` blocks the calling stream until permits are available, like a
//! full NIC queue blocks a sender.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Shaper configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShaperConfig {
    /// Sustained rate in bytes per second. `f64::INFINITY` disables shaping.
    pub rate_bytes_per_s: f64,
    /// Maximum burst (bucket capacity) in bytes.
    pub burst_bytes: f64,
}

impl ShaperConfig {
    /// A shaper with the given sustained rate in MB/s and a 50 ms burst.
    ///
    /// # Panics
    /// Panics if `mbs` is not strictly positive.
    pub fn rate_mbs(mbs: f64) -> Self {
        assert!(mbs > 0.0, "rate must be positive");
        let rate = mbs * 1e6;
        ShaperConfig {
            rate_bytes_per_s: rate,
            burst_bytes: (rate * 0.05).max(64.0 * 1024.0),
        }
    }

    /// An unshaped configuration (loopback native speed).
    pub fn unshaped() -> Self {
        ShaperConfig {
            rate_bytes_per_s: f64::INFINITY,
            burst_bytes: f64::INFINITY,
        }
    }
}

#[derive(Debug)]
struct BucketState {
    tokens: f64,
    last_refill: Instant,
}

/// A thread-safe token bucket.
#[derive(Debug)]
pub struct TokenBucket {
    config: ShaperConfig,
    state: Mutex<BucketState>,
}

impl TokenBucket {
    /// A bucket that starts full.
    pub fn new(config: ShaperConfig) -> Self {
        TokenBucket {
            config,
            state: Mutex::new(BucketState {
                tokens: config.burst_bytes.min(1e18),
                last_refill: Instant::now(),
            }),
        }
    }

    /// The configuration.
    pub fn config(&self) -> ShaperConfig {
        self.config
    }

    /// Lock the bucket state. Every update under the lock is a few plain
    /// stores that cannot panic, so a poisoned lock holds valid state.
    fn state(&self) -> MutexGuard<'_, BucketState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire permission to send `bytes`; blocks (sleeping) until the bucket
    /// has refilled enough. Unshaped buckets return immediately.
    pub fn acquire(&self, bytes: usize) {
        if self.config.rate_bytes_per_s.is_infinite() {
            return;
        }
        let need = bytes as f64;
        loop {
            let wait = {
                let mut s = self.state();
                let now = Instant::now();
                let elapsed = now.duration_since(s.last_refill).as_secs_f64();
                s.tokens = (s.tokens + elapsed * self.config.rate_bytes_per_s)
                    .min(self.config.burst_bytes.max(need));
                s.last_refill = now;
                if s.tokens >= need {
                    s.tokens -= need;
                    return;
                }
                // Time until enough tokens accumulate.
                (need - s.tokens) / self.config.rate_bytes_per_s
            };
            std::thread::sleep(Duration::from_secs_f64(wait.clamp(1e-4, 0.05)));
        }
    }

    /// Non-blocking attempt; returns `true` when the permits were taken.
    pub fn try_acquire(&self, bytes: usize) -> bool {
        if self.config.rate_bytes_per_s.is_infinite() {
            return true;
        }
        let need = bytes as f64;
        let mut s = self.state();
        let now = Instant::now();
        let elapsed = now.duration_since(s.last_refill).as_secs_f64();
        s.tokens = (s.tokens + elapsed * self.config.rate_bytes_per_s)
            .min(self.config.burst_bytes.max(need));
        s.last_refill = now;
        if s.tokens >= need {
            s.tokens -= need;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unshaped_never_blocks() {
        let b = TokenBucket::new(ShaperConfig::unshaped());
        let t0 = Instant::now();
        for _ in 0..1000 {
            b.acquire(1 << 20);
        }
        assert!(t0.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn sustained_rate_respected() {
        // 10 MB/s: moving 2 MB beyond the burst takes ~0.2 s.
        let b = TokenBucket::new(ShaperConfig::rate_mbs(10.0));
        let chunk = 64 * 1024;
        // Drain the burst first.
        b.acquire(b.config().burst_bytes as usize);
        let t0 = Instant::now();
        let total = 2_000_000usize;
        let mut moved = 0;
        while moved < total {
            b.acquire(chunk);
            moved += chunk;
        }
        let secs = t0.elapsed().as_secs_f64();
        let rate = moved as f64 / secs / 1e6;
        assert!(
            (7.0..14.0).contains(&rate),
            "expected ~10 MB/s sustained, got {rate:.1}"
        );
    }

    #[test]
    fn try_acquire_fails_when_empty() {
        let b = TokenBucket::new(ShaperConfig::rate_mbs(1.0));
        assert!(b.try_acquire(b.config().burst_bytes as usize));
        assert!(!b.try_acquire(10_000_000));
    }

    #[test]
    fn concurrent_streams_share_the_rate() {
        let b = &TokenBucket::new(ShaperConfig::rate_mbs(20.0));
        b.acquire(b.config().burst_bytes as usize); // drain the burst
        let t0 = Instant::now();
        let moved: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(move || {
                        let mut local = 0u64;
                        while t0.elapsed() < Duration::from_millis(300) {
                            b.acquire(32 * 1024);
                            local += 32 * 1024;
                        }
                        local
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        let rate = moved as f64 / t0.elapsed().as_secs_f64() / 1e6;
        assert!(
            rate < 40.0,
            "4 streams must share one 20 MB/s bucket, got {rate:.1}"
        );
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        ShaperConfig::rate_mbs(0.0);
    }
}
